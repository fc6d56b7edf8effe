"""Online control of known linear systems under unbounded stochastic noise.

Disturbance-action policies tuned by projected online gradient descent
on surrogate costs, with sqrt(T)-regret and logarithmic-regret step-size
schedules, comparator replays on shared noise, and a batch harness for
regret-scaling experiments.
"""

from .comparator import (ComparatorResult, RegretCurve, best_fixed_K,
                         best_fixed_M, mstar_rollout, regret)
from .costs import (CostSchedule, QuadraticCost, adversarial_convex_schedule,
                    constant_schedule, materialize, quadratic_cost)
from .harness import (ExperimentConfig, ScalingReport, TheoryConstants,
                      build_experiment, compute_theory_constants, config_hash,
                      emit_plotdata, load_config, run_batch, write_outputs)
from .learner import (EpisodeDivergedError, EpisodeRecord,
                      LearningRateSchedule, alpha_tilde_from, eta,
                      noise_fingerprint, ogd_memory_regret_terms, run_episode)
from .noise import (MomentEstimate, NoiseProcess, estimate_moments,
                    population_sigma_lower, population_sigma_w,
                    population_sigma_w4, sample)
from .policy import (PolicyParams, admissible_radii, block_spectral_norms,
                     comparator_params, control_input, horizon_H,
                     is_admissible, policy_class_diameter, policy_from_blocks,
                     project, sample_admissible, zero_policy)
from .rng import keyed_rng, mix_seed
from .stability import (CertificationError, ClosedLoop, StabilityCertificate,
                        build_certificate, certify, make_closed_loop,
                        power_decay_check, validate_certificate)
from .surrogate import (SurrogateGradient, SurrogateKernel, SurrogatePoint,
                        TransferMatrix, grad_f, hessian_frob_bound, psi,
                        state_expansion, surrogate_cost_f, surrogate_point)
from .system import (LinearSystem, SystemState, initial_state, make_system,
                     recover_noise, spectral_norm, step, system_from_json)

__version__ = "0.1.0"

__all__ = [
    "CertificationError", "ClosedLoop", "ComparatorResult",
    "CostSchedule", "EpisodeDivergedError", "EpisodeRecord",
    "ExperimentConfig", "LearningRateSchedule", "LinearSystem",
    "MomentEstimate", "NoiseProcess", "PolicyParams", "QuadraticCost",
    "RegretCurve", "ScalingReport", "StabilityCertificate",
    "SurrogateGradient", "SurrogateKernel", "SurrogatePoint", "SystemState",
    "TheoryConstants", "TransferMatrix", "admissible_radii",
    "adversarial_convex_schedule", "alpha_tilde_from", "best_fixed_K",
    "best_fixed_M", "block_spectral_norms", "build_certificate",
    "build_experiment", "certify", "comparator_params",
    "compute_theory_constants", "config_hash", "constant_schedule",
    "control_input", "emit_plotdata", "estimate_moments", "eta", "grad_f",
    "hessian_frob_bound", "horizon_H", "initial_state", "is_admissible",
    "keyed_rng", "load_config", "make_closed_loop", "make_system",
    "materialize", "mix_seed", "mstar_rollout", "noise_fingerprint",
    "ogd_memory_regret_terms", "policy_class_diameter", "policy_from_blocks",
    "population_sigma_lower", "population_sigma_w", "population_sigma_w4",
    "power_decay_check", "project", "psi", "quadratic_cost", "recover_noise",
    "regret", "run_batch", "run_episode", "sample", "sample_admissible",
    "spectral_norm", "state_expansion", "step", "surrogate_cost_f",
    "surrogate_point", "system_from_json", "validate_certificate",
    "write_outputs", "zero_policy",
]
