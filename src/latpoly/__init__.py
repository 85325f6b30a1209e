"""Exact weight polynomials of decorated lattice paths in a strip.

Paths step up, across or down inside heights 0..L; across and down steps
carry per-height weights (rational backgrounds plus decorations that may
stay symbolic).  The weight polynomial Z_t(y', y; L) is computed by five
mutually verifying engines and by closed forms for the classic two- and
four-boundary-weight models, all in exact rational arithmetic.
"""

from types import ModuleType as _ModuleType

from .errors import (
    CutOutOfRange,
    GuardViolation,
    IndexOutOfRange,
    InsufficientWeights,
    LatPolyError,
    NearBranchPoint,
    NonInvertibleSubstitution,
    NonUnitLeadingCoefficient,
    SchemaError,
    SizeLimit,
    TruncationInsufficient,
    ZeroLambda,
)
from .symbolic import (
    LaurentPolynomial,
    ONE,
    TruncatedSeries,
    ZERO,
    as_poly,
    constant_term_ratio,
    monomial,
    parse_polynomial,
    series_invert,
    sym,
)
from .orthopoly import (
    WeightSpec,
    chebyshev_closed_form_check,
    chebyshev_s,
    ortho_poly,
    reciprocal,
    to_laurent,
)
from .paving import (
    Decomposition,
    DecompositionTerm,
    Paving,
    decompose,
    edge_cut,
    enumerate_pavings,
    paving_count,
    paving_polynomial,
    vertex_cut,
)
from .engines import (
    LatticePath,
    StripQuery,
    brute_force,
    enumerate_paths,
    generating_function,
    h_factor,
    path_weight,
    rho_ct,
    transfer_matrix,
    viennot_ct,
)
from .closedforms import (
    DmrParams,
    FourWeightParams,
    RogersParams,
    dmr_ct,
    dmr_sum,
    extended_catalan,
    four_weight_ct,
    four_weight_sum,
    rogers,
    rogers_weight_spec,
    stratified_weight,
)

__version__ = "0.1.0"

# the submodules bound by the imports above are not part of the API
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
