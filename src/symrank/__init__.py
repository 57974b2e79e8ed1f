"""symrank: exact rank computations for two-valued symmetric matrix ensembles.

The package covers exact rational and quadratic-extension arithmetic,
exact rank (fraction-free, or certified full modulo a prime), the
tournament and bipartite-graph encodings of two-valued symmetric
ensembles, eigenvalue-multiplicity rank bounds, Hadamard matrices and
symmetric block designs, and bisection-closed set families with a
backtracking extension search.
"""

from .errors import (
    ConstructionFailedError,
    DegenerateEnsembleError,
    FieldMismatchError,
    GoodPairError,
    NoRealRootError,
    NotInEnsembleError,
    UnsupportedParameterError,
    VerificationError,
)
from .exactfield import (
    QuadExt,
    as_fraction,
    format_scalar,
    parse_scalar,
    solve_monic_quadratic,
    square_free_part,
)
from .linalg import Matrix
from .ensemble import (
    BipartiteGraph,
    LinearTheta,
    SquaredDiff,
    TableFunction,
    Tournament,
    TwoValuePair,
    bigraph_from_matrix,
    matrix_from_bigraph,
    matrix_from_tournament,
    mu_squared,
    random_tournament,
    tournament_from_matrix,
)
from .spectra import (
    RowlinsonReport,
    SpectralReport,
    bigraph_multiplicity,
    complete_minus_matching,
    ensemble_rank,
    low_rank_matching_instance,
    rank_sandwich,
    rowlinson_check,
)
from .designs import (
    HadamardMatrix,
    SymmetricDesign,
    complement_design,
    design_rank_instance,
    fano,
    hadamard_design,
    incidence_bigraph,
    onebytwo_scan,
    paley,
    replicate_bigraph,
    sylvester,
)
from .families import (
    SetFamily,
    fano_family,
    family_matrix,
    hadamard_family,
    is_theta_intersecting,
    rank_to_size_bound,
    search_bisection_closed,
    sunflower_family,
    theta_violation,
)

__all__ = [
    "BipartiteGraph",
    "ConstructionFailedError",
    "DegenerateEnsembleError",
    "FieldMismatchError",
    "GoodPairError",
    "HadamardMatrix",
    "LinearTheta",
    "Matrix",
    "NoRealRootError",
    "NotInEnsembleError",
    "QuadExt",
    "RowlinsonReport",
    "SetFamily",
    "SpectralReport",
    "SquaredDiff",
    "SymmetricDesign",
    "TableFunction",
    "Tournament",
    "TwoValuePair",
    "UnsupportedParameterError",
    "VerificationError",
    "as_fraction",
    "bigraph_from_matrix",
    "bigraph_multiplicity",
    "complement_design",
    "complete_minus_matching",
    "design_rank_instance",
    "ensemble_rank",
    "fano",
    "fano_family",
    "family_matrix",
    "format_scalar",
    "hadamard_design",
    "hadamard_family",
    "incidence_bigraph",
    "is_theta_intersecting",
    "low_rank_matching_instance",
    "matrix_from_bigraph",
    "matrix_from_tournament",
    "mu_squared",
    "onebytwo_scan",
    "paley",
    "parse_scalar",
    "random_tournament",
    "rank_sandwich",
    "rank_to_size_bound",
    "replicate_bigraph",
    "rowlinson_check",
    "search_bisection_closed",
    "solve_monic_quadratic",
    "square_free_part",
    "sunflower_family",
    "sylvester",
    "theta_violation",
    "tournament_from_matrix",
]

__version__ = "0.1.0"
