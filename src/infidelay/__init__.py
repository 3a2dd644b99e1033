"""Scalar linear differential equations with infinitely many discrete delays.

The package integrates x'(t) = a x(t) + sum_i b_i x(t - tau_i) forward from a
history function by the method of steps, with certified truncation of the
delay series, seminorm machinery for the natural phase space, and checks that
the induced solution operators behave like a strongly continuous semigroup.
"""

from .coefficients import (
    CoefficientFamily,
    DelaySchedule,
    DivergentTailError,
    NotInPhaseSpaceError,
    UnknownTailError,
    WeightFunction,
    m_index,
    n_index,
    tail_sum_bound,
)
from .history import (
    ConstantTail,
    CosTail,
    ExpFormTail,
    ExpTail,
    HistoryFunction,
    L_functional,
    MembershipReport,
    SeminormValue,
    WeightEnvelopeTail,
    cg_norm,
    check_cg_embedding,
    combine_histories,
    history_difference,
    history_from_callable,
    history_preset,
    membership_in_F,
    p_seminorm,
    scale_history,
    sup_norm_k,
)
from .oracle import compare_trajectories, oracle_solve
from .scenario import ScenarioError, list_checks, load_scenario, run_scenario
from .semigroup import (
    apply_semigroup,
    check_generator_domain,
    check_mild_solution,
    check_semigroup_law,
    check_strong_continuity,
)
from .stepper import (
    EstimateCertificate,
    ProblemSpec,
    SolverConfig,
    Trajectory,
    estimate_certificate,
    forcing,
    solve,
    step_interval,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientFamily",
    "ConstantTail",
    "CosTail",
    "DelaySchedule",
    "DivergentTailError",
    "EstimateCertificate",
    "ExpFormTail",
    "ExpTail",
    "HistoryFunction",
    "L_functional",
    "MembershipReport",
    "NotInPhaseSpaceError",
    "ProblemSpec",
    "ScenarioError",
    "SeminormValue",
    "SolverConfig",
    "Trajectory",
    "UnknownTailError",
    "WeightEnvelopeTail",
    "WeightFunction",
    "apply_semigroup",
    "cg_norm",
    "check_cg_embedding",
    "check_generator_domain",
    "check_mild_solution",
    "check_semigroup_law",
    "check_strong_continuity",
    "combine_histories",
    "compare_trajectories",
    "estimate_certificate",
    "forcing",
    "history_difference",
    "history_from_callable",
    "history_preset",
    "list_checks",
    "load_scenario",
    "m_index",
    "membership_in_F",
    "n_index",
    "oracle_solve",
    "p_seminorm",
    "run_scenario",
    "scale_history",
    "solve",
    "step_interval",
    "sup_norm_k",
    "tail_sum_bound",
    "__version__",
]
