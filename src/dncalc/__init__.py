"""Symbol calculus and boundary reconstruction for weighted Laplacian DN maps."""

__version__ = "0.1.0"

from .errors import (
    BackendError,
    BudgetExhaustedError,
    DataError,
    DepthError,
    DnCalcError,
    IncompatibleJetsError,
    MetricError,
    NotInvertibleError,
    ReconstructionError,
    ScenarioError,
)
from .jets import Jet, JetSpace, collar_from_radial_orders
from .symbols import FormalSymbol, HomSymbol, SymbolContext, XiPoly, compose
from .geometry import (
    BoundaryMetricJet,
    GaugeData,
    compute_q_symbols,
    gauge_s,
    gauge_sigma,
    radial_drift,
    schroedinger_potential,
)
from .factorization import (
    FactorizationResult,
    factorize_gauge,
    factorize_scalar,
    perturb_component,
    verify_residual,
)
from .dn import DNSymbolData, dn_symbol_gauge, dn_symbol_scalar
from .reconstruction import (
    Branch,
    IndistinguishableWeight,
    ReconstructionReport,
    construct_indistinguishable_weight,
    recover_first_order,
    recover_metric_known_weight,
    recover_weight_gauge,
    recover_weight_scalar,
    recover_with_known_volume_gauge,
    recover_with_known_volume_scalar,
)
from .diskcheck import RadialProblem, asymptotic_compare, solve_mode
