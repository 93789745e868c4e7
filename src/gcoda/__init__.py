"""Weighted quotient geometries, statistics and Gaussian simulation on the simplex."""

from .ambient import amb_exp, amb_log, odot, oplus
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

# basis, compose and stats, and their names, load on first access (PEP 562):
# a command of the geometry alone does not import them.
_LAZY = {
    "basis": ("TangentBasis", "coords", "from_coords", "helmert_basis"),
    "compose": ("SubSelection", "permute_context", "select", "subcompose"),
    "stats": ("PrincipalComponents", "RandomSource", "SimplexGaussian", "frechet_mean", "gaussian_density",
              "gaussian_mean", "gaussian_sample", "make_gaussian", "pc_line", "pca", "sample_covariance"),
}
__all__ = [name for name in globals() if name[0] != "_"] + [*_LAZY, *(n for names in _LAZY.values() for n in names)]
__version__ = "0.1.0"


def __getattr__(name):
    home = next((m for m, names in _LAZY.items() if name == m or name in names), None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{home}", __name__)
    globals()[name] = value = module if name == home else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
