"""Rationalizability tests and cost recovery for choice under costly information.

The package decides whether state-dependent stochastic choice data can be
explained by a decision maker paying posterior-mean-separable information
costs, recovers a rationalizing cost derivative and per-menu price
functions when it can, exhibits an improving reallocation when it cannot,
solves forward information-acquisition problems over mean-preserving
contractions, and searches for concave rationalizations.
"""

from types import ModuleType as _ModuleType

from .axioms import (
    FarkasSystem,
    NiasReport,
    NiasViolation,
    NipmcVerdict,
    build_farkas_system,
    check_nias,
    check_nipmc,
    explain_violation,
)
from .concavity import ConcavityVerdict, certify_concave, is_concave
from .forward import (
    ForwardProblem,
    ForwardSolution,
    generate_dataset,
    oracle_value,
    solve_forward,
)
from .lp import (
    Constraint,
    LinearProgram,
    LPOutcome,
    LPResourceError,
    constraint,
    solve,
    to_lp_text,
    verify_certificate,
)
from .model import (
    SDSC,
    Act,
    Dataset,
    Menu,
    Observation,
    Prior,
    StateSpace,
    ValidationReport,
    indirect_utility,
    utility,
    validate_dataset,
)
from .piecewise import PiecewiseScalarFunction, lower_envelope, upper_envelope
from .recovery import (
    ObservationAudit,
    RationalizationReport,
    information_cost,
    price_function,
    recover_cost,
    variance_cost,
    verify_rationalization,
)
from .revealed import (
    DiscreteCDF,
    RevealedSummary,
    binding_set,
    is_monotone_partitional,
    is_mpc,
    mpc_gap,
    positive_gap_intervals,
    prior_cdf,
    revealed_summary,
)

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
