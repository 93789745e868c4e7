"""Weighted quotient geometries, statistics and Gaussian simulation on the simplex."""

from .ambient import amb_exp, amb_log, odot, oplus
from .basis import TangentBasis, coords, from_coords, helmert_basis
from .compose import SubSelection, permute_context, select, subcompose
from .errors import (
    DimensionMismatch,
    GcodaError,
    IngestError,
    MixedSignParameter,
    NonConvergence,
    NonPositiveValue,
    NotInTangentSpace,
    NotOnSimplex,
    NotPositiveDefinite,
    NumericalOverflow,
    WeightOutOfRange,
    ZeroComponent,
)
from .geometry import (
    GeometryContext,
    SolverSettings,
    as_composition,
    as_tangent,
    closure,
    closure_jacobian,
    distance,
    equivalent,
    exp_map,
    inner,
    invert,
    log_map,
    make_context,
    neutral_to_param,
    norm,
    pairwise_distance,
    perturb,
    power,
    solve_t,
)
from .stats import (
    PrincipalComponents,
    RandomSource,
    SimplexGaussian,
    frechet_mean,
    gaussian_density,
    gaussian_mean,
    gaussian_sample,
    make_gaussian,
    pc_line,
    pca,
    sample_covariance,
)

__version__ = "0.1.0"
