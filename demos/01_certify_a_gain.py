"""
Certifying a feedback gain
==========================

A gain K is usable here only together with a witness that A - BK decays:
matrices (P, Q) with A - BK = Q P Q^{-1}, ||P|| <= 1 - gamma, and
||K||, ||Q||, ||Q^{-1}|| <= kappa. The certificate is issued for the
(kappa, gamma) you request, or refused; nothing is searched for you.
"""
import numpy as np

from onlinectrl.stability import certify, power_decay_check
from onlinectrl.system import make_system

# A lightly damped two-state plant and a stabilizing gain.
A = np.array([[0.9, 0.3], [0.0, 0.7]])
B = np.array([[1.0, 0.0], [0.2, 1.0]])
K = np.array([[0.45, 0.15], [-0.05, 0.35]])
sys_ = make_system(A, B)

print("closed-loop eigenvalues:", np.linalg.eigvals(A - B @ K))

# Ask for a certificate. kappa bounds the gain and the eigenbasis
# conditioning; gamma is the contraction margin.
cert = certify(sys_, K, kappa=4.0, gamma=0.25)
for k, v in cert.summary().items():
    print(f"  {k:10s} {v}")

# The certificate implies the power decay ||(A - BK)^i|| <= kappa^2 (1-gamma)^i.
chk = power_decay_check(sys_, K, cert, i_max=40)
print("decay bound holds:", bool(np.all(chk["norms"] <= chk["bounds"] + 1e-9)))
for i in (0, 5, 10, 20, 40):
    print(f"  i={i:2d}  ||A_K^i|| = {chk['norms'][i]:.6f}"
          f"   bound = {chk['bounds'][i]:.6f}")

# Asking for a margin the system cannot meet raises with the violated bounds.
try:
    certify(sys_, K, kappa=4.0, gamma=0.9)
except Exception as e:
    print("gamma=0.9 refused:", e)
