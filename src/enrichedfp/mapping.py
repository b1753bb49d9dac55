"""Self-maps of the space, the averaging transform and N-fold composition.

Maps are kept as small expression trees rather than opaque callables: the
analyzer reads a tree node by node and turns it into the affine pieces
``x -> c*x + t`` it takes over a box, and scenario files can describe any
tree as plain data. ``apply`` evaluates a map at one :class:`SpaceElement`;
each node keeps its own ``apply``, and a compound node calls its inner
map's. Only the leaves check a point's dimension: every compound node
evaluates a leaf first, which raises the same error. A value that is fixed
for the life of a map, such as the two-region map's ``-u/3``, is built once
when the map is.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

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
    "default_piecewise",
]


class SelfMap(ABC):
    """A self-map of the coordinate space."""

    @property
    @abstractmethod
    def dimension(self) -> int: ...

    @abstractmethod
    def apply(self, x: SpaceElement) -> SpaceElement: ...

    def _check_point(self, x: SpaceElement) -> None:
        if x.dim != self.dimension:
            raise ValueError(f"dimension mismatch: point {x.dim}, map {self.dimension}")


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


@dataclass(frozen=True)
class SupNormRegion:
    """The set A = {x : max_i |x_i| > threshold}."""

    threshold: float

    def contains(self, x: SpaceElement) -> bool:
        return max(map(abs, x.coords)) > self.threshold


@dataclass(frozen=True)
class PiecewiseTwoSet(SelfMap):
    """The two-region map: u on the region A, -u/3 on its complement.

    With both u and -u/3 outside A the square of the map is the constant
    -u/3, so the second iterate contracts even though the map itself is
    discontinuous and contracts for no averaging parameter. The value -u/3
    is built once, with the map, so neither branch of ``apply`` builds an
    element.
    """

    region: SupNormRegion
    u: SpaceElement
    _off: SpaceElement = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_off", SpaceElement(tuple(-c / 3.0 for c in self.u.coords)))

    @property
    def dimension(self) -> int:
        return self.u.dim

    def fallback(self) -> tuple[float, ...]:
        """The value -u/3 off the region."""
        return self._off.coords

    def apply(self, x: SpaceElement) -> SpaceElement:
        self._check_point(x)
        return self.u if self.region.contains(x) else self._off


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
        for _ in range(self.times):
            x = self.inner.apply(x)
        return x


def averaged(T: SelfMap, lam: float) -> Averaged:
    """Wrap T in the averaging transform with parameter ``lam`` in (0, 1]."""
    return Averaged(T, float(lam))


def iterated(T: SelfMap, n: int) -> SelfMap:
    """The n-th iterate of T (n >= 1)."""
    return Iterated(T, int(n))


def default_piecewise(dimension: int, threshold: float = 2.0) -> PiecewiseTwoSet:
    """The desk-checkable two-region instance: u = (1, ..., 1), A = {sup > 2}.

    Both u and -u/3 have sup-norm at most 1, hence lie outside A, which is
    what makes the second iterate constant.
    """
    u = SpaceElement(tuple(1.0 for _ in range(dimension)))
    return PiecewiseTwoSet(SupNormRegion(float(threshold)), u)
