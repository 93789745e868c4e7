"""The names the ``gcoda`` package offers, whichever of its modules load lazily."""

import pytest

import gcoda as g

# What dir(gcoda) listed, dunders aside, when every module loaded at import.
PUBLIC = (
    "DimensionMismatch GcodaError GeometryContext IngestError MixedSignParameter NonConvergence "
    "NonPositiveValue NotInTangentSpace NotOnSimplex NotPositiveDefinite NumericalOverflow PrincipalComponents "
    "RandomSource SimplexGaussian SubSelection TangentBasis WeightOutOfRange ZeroComponent amb_exp amb_log "
    "ambient as_composition as_tangent basis closure closure_jacobian compose coords distance equivalent errors "
    "exp_map frechet_mean from_coords gaussian_density gaussian_mean gaussian_sample geometry helmert_basis "
    "inner invert log_map make_context make_gaussian neutral_to_param norm odot oplus pairwise_distance pc_line "
    "pca permute_context perturb power sample_covariance select solve_t stats subcompose"
).split()
SUBMODULES = {"ambient", "basis", "compose", "errors", "geometry", "stats"}


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves_is_listed_and_star_imported(name):
    value = getattr(g, name)
    assert name in dir(g)
    star = {}
    exec("from gcoda import *", star)
    assert name in SUBMODULES or star[name] is value


def test_lazy_names_are_their_modules_objects_and_are_cached():
    assert g.pca is g.stats.pca
    assert g.helmert_basis is g.basis.helmert_basis
    assert g.subcompose is g.compose.subcompose
    assert vars(g)["pca"] is g.pca and vars(g)["stats"] is g.stats


def test_unknown_name_raises_the_usual_error():
    with pytest.raises(AttributeError, match=r"^module 'gcoda' has no attribute 'nosuch'$"):
        g.nosuch
