"""Online control of known linear systems under unbounded stochastic noise.

Disturbance-action policies tuned by projected online gradient descent
on surrogate costs, with sqrt(T)-regret and logarithmic-regret step-size
schedules, comparator replays on shared noise, and a batch harness for
regret-scaling experiments.
"""

__version__ = "0.1.0"
