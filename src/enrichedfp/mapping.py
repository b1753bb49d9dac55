"""Self-maps of the space, the averaging transform and N-fold composition.

Maps are kept as small expression trees rather than opaque callables: the
analyzer exploits closed forms for trees that reduce to ``x -> c*x + t``, and
scenario files can describe any tree as plain data.

Every map offers two evaluation paths with identical per-point arithmetic:
``apply`` on a single :class:`SpaceElement` (used by the solvers) and
``apply_batch`` on an ``(m, n)`` float array (used by the sampling analyzers).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .space import SpaceElement

__all__ = [
    "SelfMap",
    "Reflection",
    "ScalarAffine",
    "SupNormRegion",
    "PiecewiseTwoSet",
    "Averaged",
    "Iterated",
    "averaged",
    "iterated",
    "affine_reduction",
    "default_piecewise",
]


class SelfMap(ABC):
    """A self-map of the coordinate space."""

    @property
    @abstractmethod
    def dimension(self) -> int: ...

    @abstractmethod
    def apply(self, x: SpaceElement) -> SpaceElement: ...

    @abstractmethod
    def apply_batch(self, xs: np.ndarray) -> np.ndarray: ...

    def _check_point(self, x: SpaceElement) -> None:
        if x.dim != self.dimension:
            raise ValueError(f"dimension mismatch: point {x.dim}, map {self.dimension}")

    def _check_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dimension:
            raise ValueError(f"expected (m, {self.dimension}) array, got {xs.shape}")
        return xs


@dataclass(frozen=True)
class Reflection(SelfMap):
    """x -> w - x, the point reflection through w/2 (its unique fixed point)."""

    w: SpaceElement

    @property
    def dimension(self) -> int:
        return self.w.dim

    def apply(self, x: SpaceElement) -> SpaceElement:
        self._check_point(x)
        return SpaceElement([wi - xi for wi, xi in zip(self.w.coords, x.coords)])

    def apply_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = self._check_batch(xs)
        return self.w.as_array() - xs


@dataclass(frozen=True)
class ScalarAffine(SelfMap):
    """x -> scale * x + shift."""

    scale: float
    shift: SpaceElement

    @property
    def dimension(self) -> int:
        return self.shift.dim

    def apply(self, x: SpaceElement) -> SpaceElement:
        self._check_point(x)
        c = self.scale
        return SpaceElement([c * xi + ti for xi, ti in zip(x.coords, self.shift.coords)])

    def apply_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = self._check_batch(xs)
        return self.scale * xs + self.shift.as_array()


@dataclass(frozen=True)
class SupNormRegion:
    """The set A = {x : max_i |x_i| > threshold}."""

    threshold: float

    def contains(self, x: SpaceElement) -> bool:
        return max(abs(c) for c in x.coords) > self.threshold

    def contains_batch(self, xs: np.ndarray) -> np.ndarray:
        # np.max(a, axis=1) over a few columns runs numpy's slow short-axis
        # reduction; np.maximum down the columns gives the same array, NaN
        # included (np.fmax would drop NaN), about five times faster.
        a = np.abs(xs)
        m = a[:, 0].copy()
        for j in range(1, a.shape[1]):
            np.maximum(m, a[:, j], out=m)
        return m > self.threshold


@dataclass(frozen=True)
class PiecewiseTwoSet(SelfMap):
    """The two-region map: u on the region A, -u/3 on its complement.

    With both u and -u/3 outside A the square of the map is the constant
    -u/3, so the second iterate contracts even though the map itself is
    discontinuous and contracts for no averaging parameter.
    """

    region: SupNormRegion
    u: SpaceElement

    @property
    def dimension(self) -> int:
        return self.u.dim

    def _fallback(self) -> tuple[float, ...]:
        return tuple(-c / 3.0 for c in self.u.coords)

    def apply(self, x: SpaceElement) -> SpaceElement:
        self._check_point(x)
        if self.region.contains(x):
            return self.u
        return SpaceElement(self._fallback())

    def apply_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = self._check_batch(xs)
        mask = self.region.contains_batch(xs)
        return np.where(mask[:, None], self.u.as_array(), np.array(self._fallback()))


@dataclass(frozen=True)
class Averaged(SelfMap):
    """The averaged map x -> (1 - lam) * x + lam * inner(x), lam in (0, 1].

    Shares its fixed-point set with the inner map; at lam = 1 it evaluates to
    the inner map exactly (0.0 * x + inner(x), bit for bit).
    """

    inner: SelfMap
    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"averaging parameter must lie in (0, 1], got {self.lam}")

    @property
    def dimension(self) -> int:
        return self.inner.dimension

    def apply(self, x: SpaceElement) -> SpaceElement:
        self._check_point(x)
        return self.combine(x, self.inner.apply(x))

    def combine(self, x: SpaceElement, t: SpaceElement) -> SpaceElement:
        """``(1 - lam) * x + lam * t`` for ``t = inner(x)`` already evaluated.

        ``apply(x)`` is ``combine(x, inner.apply(x))``, so a caller holding
        ``inner(x)`` gets the averaged value bit for bit without re-evaluating
        the inner map.
        """
        a = 1.0 - self.lam
        lam = self.lam
        return SpaceElement([a * xi + lam * ti for xi, ti in zip(x.coords, t.coords)])

    def apply_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = self._check_batch(xs)
        return (1.0 - self.lam) * xs + self.lam * self.inner.apply_batch(xs)


@dataclass(frozen=True)
class Iterated(SelfMap):
    """The times-fold composition of the inner map with itself."""

    inner: SelfMap
    times: int

    def __post_init__(self):
        if self.times < 1:
            raise ValueError(f"iterate count must be at least 1, got {self.times}")

    @property
    def dimension(self) -> int:
        return self.inner.dimension

    def apply(self, x: SpaceElement) -> SpaceElement:
        self._check_point(x)
        for _ in range(self.times):
            x = self.inner.apply(x)
        return x

    def apply_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = self._check_batch(xs)
        for _ in range(self.times):
            xs = self.inner.apply_batch(xs)
        return xs


def averaged(T: SelfMap, lam: float) -> Averaged:
    """Wrap T in the averaging transform with parameter ``lam`` in (0, 1]."""
    return Averaged(T, float(lam))


def iterated(T: SelfMap, n: int) -> SelfMap:
    """The n-th iterate of T (n >= 1)."""
    return Iterated(T, int(n))


def affine_reduction(T: SelfMap) -> Optional[float]:
    """The slope c of a map tree that collapses to ``x -> c*x + t``.

    Returns c for reflection / scalar-affine trees and their averaged or
    iterated wrappers, ``None`` for anything with a piecewise node. The shift
    t is not formed: theta and b depend on c alone (``theta = |b + c|``). The
    reduction is exact algebra; the reduced map may differ from the tree by
    rounding when evaluated, so it feeds closed-form analysis, not iteration.
    """
    if isinstance(T, Reflection):
        return -1.0
    if isinstance(T, ScalarAffine):
        return T.scale
    if isinstance(T, Averaged):
        c = affine_reduction(T.inner)
        if c is None:
            return None
        lam = T.lam
        return (1.0 - lam) + lam * c
    if isinstance(T, Iterated):
        c = affine_reduction(T.inner)
        if c is None:
            return None
        ck = 1.0
        for _ in range(T.times):
            ck = c * ck
        return ck
    return None


def default_piecewise(dimension: int, threshold: float = 2.0) -> PiecewiseTwoSet:
    """The desk-checkable two-region instance: u = (1, ..., 1), A = {sup > 2}.

    Both u and -u/3 have sup-norm at most 1, hence lie outside A, which is
    what makes the second iterate constant.
    """
    u = SpaceElement(tuple(1.0 for _ in range(dimension)))
    return PiecewiseTwoSet(SupNormRegion(float(threshold)), u)
