"""Subcomposition and permutation for weighted simplex geometries.

Keeping a subset of parts is only coherent when the weight vector is
restricted to the same parts: the subcomposition operator closes the selected
components under the restricted geometry, which makes it a linear map between
the two simplex vector spaces and keeps arithmetic means consistent.
Selections and permutations use 1-based positions, matching the CLI surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .geometry import GeometryContext, _check_dim, as_composition, closure, make_context

__all__ = ["SubSelection", "select", "subcompose", "permute_context"]


@dataclass(frozen=True)
class SubSelection:
    """Ordered distinct 1-based part positions; order need not be increasing."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if len(idx) < 2:
            raise DimensionMismatch("a selection needs at least 2 parts")
        if len(set(idx)) != len(idx):
            raise DimensionMismatch("selection indices must be distinct")
        if any(i < 1 for i in idx):
            raise DimensionMismatch("selection indices are 1-based and must be >= 1")


def _as_selection(sel) -> SubSelection:
    return sel if isinstance(sel, SubSelection) else SubSelection(tuple(sel))


def select(sel, x) -> np.ndarray:
    """Pick the selected components, in the listed order."""
    sel = _as_selection(sel)
    arr = np.asarray(x, dtype=float)
    if max(sel.indices) > arr.shape[-1]:
        raise DimensionMismatch(f"selection index {max(sel.indices)} out of range for {arr.shape[-1]} parts")
    return arr[..., [i - 1 for i in sel.indices]]


def subcompose(ctx: GeometryContext, sel, lam) -> tuple[GeometryContext, np.ndarray]:
    """Subcomposition with its own geometry.

    Returns the context generated by the restricted weight vector together
    with the closure of the selected parts under it, so downstream analysis
    cannot accidentally mix the parent geometry with sub-part data.
    """
    sel = _as_selection(sel)
    sub_ctx = make_context(select(sel, ctx.a))
    lam = as_composition(lam)
    _check_dim(ctx, lam)
    # the selected parts replace the whole rows, which are freed before the closure
    lam = select(sel, lam)
    return sub_ctx, closure(sub_ctx, lam)


def permute_context(ctx: GeometryContext, perm) -> GeometryContext:
    """Geometry after relabeling parts: position i takes the old part perm[i].

    ``perm`` is a 1-based permutation of all parts; the permuted geometry's
    neutral element is the permuted neutral element.
    """
    idx = tuple(int(i) for i in perm)
    if sorted(idx) != list(range(1, ctx.dim + 1)):
        raise DimensionMismatch(f"not a permutation of 1..{ctx.dim}: {perm}")
    return make_context(ctx.a[[i - 1 for i in idx]])
