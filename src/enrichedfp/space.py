"""Finite-dimensional 2-normed coordinate spaces.

A 2-norm assigns to a pair of vectors the area they span. It vanishes exactly
on linearly dependent pairs, is symmetric, absolutely homogeneous in each slot
and triangle-subadditive in the first slot. Two concrete instances are
provided:

* ``cross2`` on the plane, ``|u1*v2 - u2*v1|``;
* ``gram`` on R^n (n >= 2), ``sqrt(|x|^2 |y|^2 - <x,y>^2)``, which restricts
  to ``cross2`` in the plane.

Convergence of iterates is always measured against a finite *witness set*: a
spanning family of vectors z, so that ``max_z ||v, z|| = 0`` forces ``v = 0``.
This is the computational stand-in for quantifying over every second argument.

Both norm kernels accumulate in double-double arithmetic (see ``_dd``). On
``cross2`` the result is the correctly rounded area of the given float
vectors, even for nearly dependent pairs. On ``gram`` it is not always:
about 13% of basis witness norms miss by one ulp, the general kernel loses
accuracy near dependence, and the basis closed form cancels when magnitudes
spread, so ``||(1e20, 1e-5, 1e-5), e_1||`` reads 0.0, not 1.41e-05 (ROADMAP
item 11). The batch kernel :func:`two_norm_batch` is the scalar kernel
itself, run on coordinate-major arrays.

Witness residuals go through one kernel body, which yields ``||v, z_j||``
for the witnesses in order: ``two_norm(space, v, z_j)`` per witness, save
on the ``gram`` standard basis (below). :func:`witness_norms` collects every
value; :func:`witness_norm_rows` evaluates the rows of an array, through one
broadcasting :func:`two_norm_batch` call once they cost 24 kernel calls,
bit for bit the same.

Every decision of the solve loop is asked here, and decides exactly as the
full residual or distance would: the pair test :func:`witness_gap_within`,
``max_z ||a - b, z|| <= limit`` for two coordinate lists, for every
residual (the step, the convergence check and the cycle test); and the
regions :class:`Box` and :class:`TwoNormBall`, through ``contains``.
:func:`difference` is their one coordinate difference, raising where
``SpaceElement`` subtraction does. One exact float screen settles
clear-cut comparisons with no double-double work, and only where the
exact kernel gives the same answer; the exact kernel decides the rest. Its
one decision body, ``_screen``, holds the forward-error model: the error
bound, the margin and the guards. Its two entry points are
:func:`two_norm_screen`, ``||v, u||`` against a radius, for the ball; and
:func:`basis_screen`, the same test at ``u = e_j`` on the standard basis,
for the pair test. The pair test takes both of its answers, so a clear
pass, such as a converged run's last step and confirmation, runs no exact
kernel either.

On ``gram``, a set whose witnesses are the rows of the identity, in order
(the standard basis, however it was written), takes a closed form in both
witness kernels. With ``z = e_j`` the general kernel's ``<v, z>`` is exactly
``(v_j, 0)``, its ``<v,z>^2`` is the ``two_prod(v_j, v_j)`` that ``|v|^2``
sums anyway, and ``|v|^2 |z|^2`` is one value per vector. The closed form
forms those terms with the same formulas, drops only operations on exact
zeros (which change no nonzero value, and the radicand never comes out
``-0.0``) and ends in the same ``dd_add`` high part and square root, so it
is bit for bit the general kernel, NaN included. One body,
``_gram_basis_radicands``, holds it for both kernels, on one vector's
floats or on a slice's coordinate arrays.

The coordinate spaces here are complete (every Cauchy sequence converges),
which the convergence theory assumes; completeness is a property of the space
construction and is documented rather than checked at runtime.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from ._dd import dd_add, dd_mul, det2_dd, dot_dd, two_square, two_sum

EPS = 2.220446049250313e-16  # 2**-52, one ulp at 1.0

__all__ = [
    "NonFiniteError",
    "SpaceElement",
    "difference",
    "Box",
    "TwoNormBall",
    "SpaceKind",
    "TwoNormSpace",
    "WitnessSet",
    "AxiomViolation",
    "AxiomReport",
    "cross2_space",
    "gram_space",
    "cross2_norm",
    "gram_norm",
    "two_norm",
    "two_norm_batch",
    "seminorm",
    "standard_basis",
    "witness_norms",
    "witness_gap_within",
    "witness_norm_rows",
    "witness_residual",
    "check_axioms",
]


class NonFiniteError(ValueError):
    """A coordinate is infinite or NaN, as a diverging iteration's become."""


@dataclass(frozen=True)
class SpaceElement:
    """A point of the linear space, held as an immutable coordinate tuple.

    Equality is exact coordinate equality; approximate comparisons go through
    :func:`witness_residual` with an explicit tolerance.
    """

    coords: tuple[float, ...]

    def __post_init__(self):
        coords = tuple(map(float, self.coords))
        if not coords:
            raise ValueError("SpaceElement needs at least one coordinate")
        if not all(map(math.isfinite, coords)):
            raise NonFiniteError(f"non-finite coordinates: {coords}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __add__(self, other: "SpaceElement") -> "SpaceElement":
        _same_dim(self, other)
        return SpaceElement([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "SpaceElement") -> "SpaceElement":
        _same_dim(self, other)
        return SpaceElement([a - b for a, b in zip(self.coords, other.coords)])

    def __rmul__(self, scalar: float) -> "SpaceElement":
        s = float(scalar)
        return SpaceElement([s * a for a in self.coords])


def difference(a: Sequence[float], b: Sequence[float]) -> list[float]:
    """``a - b`` coordinatewise, as a list of floats.

    Raises :class:`NonFiniteError` on an entry that overflows, as
    ``SpaceElement.__sub__`` does on the same coordinates, and ``ValueError``
    on lists of different lengths; a difference of finite floats is never
    NaN, so a finite sum settles the common case.
    """
    d = [x - y for x, y in zip(a, b, strict=True)]
    if not math.isfinite(sum(d)) and not all(map(math.isfinite, d)):
        raise NonFiniteError(f"non-finite coordinates: {tuple(d)}")
    return d


@dataclass(frozen=True)
class Box:
    """An axis-aligned box: an analysis box or a solver domain."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("box bounds must be matching nonempty tuples")
        if any(not (math.isfinite(a) and math.isfinite(b)) or a > b for a, b in zip(lo, hi)):
            raise ValueError(f"invalid box bounds lo={lo} hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def symmetric(cls, dimension: int, half_width: float = 10.0) -> "Box":
        return cls(tuple(-half_width for _ in range(dimension)),
                   tuple(half_width for _ in range(dimension)))

    @property
    def dimension(self) -> int:
        return len(self.lo)

    def contains(self, space: "TwoNormSpace", x: SpaceElement) -> bool:
        return all(a <= c <= b for a, c, b in zip(self.lo, x.coords, self.hi, strict=True))


@dataclass(frozen=True)
class TwoNormBall:
    """The ball ``{x : ||x - center, u|| <= radius}``, or ``<`` when open: a
    solver domain, and the local solve's region."""

    u: SpaceElement
    center: SpaceElement
    radius: float
    closed: bool = True
    _u_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")
        if self.u.dim != self.center.dim:
            raise ValueError(f"ball direction and center differ in dimension: "
                             f"{self.u.dim} vs {self.center.dim}")
        # |u|^2 for two_norm_screen, formed once per ball.
        object.__setattr__(self, "_u_sq", sum([a * a for a in self.u.coords]))

    @property
    def dimension(self) -> int:
        return self.center.dim

    def contains(self, space: "TwoNormSpace", x: SpaceElement) -> bool:
        """``two_norm(space, x - center, u) <= radius`` (``<`` when open).

        The difference is a coordinate list, which raises where ``x -
        center`` does; :func:`two_norm_screen` settles the clear-cut cases,
        inside or outside alike, and the exact kernel the rest.
        """
        v = difference(x.coords, self.center.coords)
        inside = two_norm_screen(space, v, self.u.coords, self._u_sq, self.radius)
        if inside is None:
            dist = two_norm(space, SpaceElement(v), self.u)
            inside = dist <= self.radius if self.closed else dist < self.radius
        return inside


def _same_dim(x: SpaceElement, y: SpaceElement) -> None:
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")


class SpaceKind(str, Enum):
    CROSS2 = "cross2"
    GRAM = "gram"


@dataclass(frozen=True)
class TwoNormSpace:
    """A 2-norm evaluator over pairs of elements, with dimension metadata."""

    kind: SpaceKind
    dimension: int

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("2-normed spaces need dimension >= 2")
        if self.kind is SpaceKind.CROSS2 and self.dimension != 2:
            raise ValueError("cross2 is defined on the plane only")


def cross2_space() -> TwoNormSpace:
    return TwoNormSpace(SpaceKind.CROSS2, 2)


def gram_space(dimension: int) -> TwoNormSpace:
    return TwoNormSpace(SpaceKind.GRAM, dimension)


def _element_in(space: TwoNormSpace, *elems: SpaceElement) -> None:
    for e in elems:
        if e.dim != space.dimension:
            raise ValueError(
                f"dimension mismatch: element has {e.dim}, space has {space.dimension}"
            )


# --- norm kernels -----------------------------------------------------------

def cross2_norm(u: SpaceElement, v: SpaceElement) -> float:
    """Planar area ``|u1*v2 - u2*v1|``, correctly rounded."""
    _same_dim(u, v)
    if u.dim != 2:
        raise ValueError(f"cross2_norm needs dimension 2, got {u.dim}")
    return abs(det2_dd(u.coords[0], u.coords[1], v.coords[0], v.coords[1]))


def _gram_radicand(xs, ys):
    # |x|^2 |y|^2 - <x,y>^2 in double-double; the difference cancels for
    # nearly dependent pairs, which is the whole reason for the compensation.
    sxh, sxl = dot_dd(xs, xs)
    syh, syl = dot_dd(ys, ys)
    sh, sl = dot_dd(xs, ys)
    p1h, p1l = dd_mul(sxh, sxl, syh, syl)
    p2h, p2l = dd_mul(sh, sl, sh, sl)
    rh, _ = dd_add(p1h, p1l, -p2h, -p2l)
    return rh


def gram_norm(x: SpaceElement, y: SpaceElement) -> float:
    """Area 2-norm ``sqrt(|x|^2 |y|^2 - <x,y>^2)`` on R^n.

    The radicand is clamped at zero: Cauchy-Schwarz keeps it nonnegative
    analytically, rounding can push it a hair below. A NaN radicand (the
    Dekker split overflows once ``|x|^2`` passes about 1.3e300) stays NaN, as
    in :func:`two_norm_batch`, so an overflowed area never reads as zero.
    """
    _same_dim(x, y)
    r = _gram_radicand(x.coords, y.coords)
    return math.sqrt(r if r > 0.0 or r != r else 0.0)


def two_norm(space: TwoNormSpace, x: SpaceElement, y: SpaceElement) -> float:
    """Evaluate the space's 2-norm on a pair of its elements."""
    _element_in(space, x, y)
    if space.kind is SpaceKind.CROSS2:
        return cross2_norm(x, y)
    return gram_norm(x, y)


def two_norm_batch(space: TwoNormSpace, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorised :func:`two_norm` over the last axis of two broadcast arrays.

    ``xs`` and ``ys`` are float arrays of equal ``ndim >= 2``, last axis
    ``space.dimension`` and broadcastable leading shapes, so two ``(m, n)``
    arrays give the ``m`` paired norms and ``xs[:, None]`` against
    ``ys[None]`` gives the ``(k, m)`` table of every pair. The last axis is
    moved to the front, and the scalar kernel's own functions run on the
    coordinate arrays: :func:`det2_dd` on ``cross2``, ``_gram_radicand`` on
    ``gram``. Every ``_dd`` function is elementwise on floats and arrays
    alike, so each entry is the scalar result bit for bit.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = space.dimension
    if (len(xs.shape) < 2 or len(xs.shape) != len(ys.shape) or xs.shape[-1] != n
            or ys.shape[-1] != n
            or any(a != b and a != 1 and b != 1 for a, b in zip(xs.shape, ys.shape))):
        raise ValueError(f"expected (..., {n}) arrays of equal ndim with broadcastable "
                         f"leading shapes, got {xs.shape} and {ys.shape}")
    x, y = np.moveaxis(xs, -1, 0), np.moveaxis(ys, -1, 0)
    if space.kind is SpaceKind.CROSS2:
        return np.abs(det2_dd(x[0], x[1], y[0], y[1]))
    return np.sqrt(np.maximum(0.0, _gram_radicand(x, y)))


def _gram_basis_radicands(coords):
    # The radicand of gram_norm(v, e_j) for each j in order; coords holds v's
    # coordinates, floats for one vector or coordinate arrays for many. With
    # z = e_j, <v, z> = (v_j, 0) exactly, so p2 is v_j's own two_prod,
    # normalised, and p1 = dd_mul(|v|^2, |e_j|^2) = dd_mul(|v|^2, (1, 0)) is
    # one value per vector. Each radicand is dd_add(p1, -p2)[0], the rounded
    # sum that dd_add's last two_sum forms first.
    squares = [two_square(a) for a in coords]
    h = l = 0.0
    for p, e in squares:
        h, l = dd_add(h, l, p, e)
    p1h, p1l = dd_mul(h, l, 1.0, 0.0)
    for p, e in squares:
        p2h, p2l = two_sum(p, e + 0.0)
        s, err = two_sum(p1h, -p2h)
        yield s + (err + (p1l + -p2l))


def seminorm(space: TwoNormSpace, z: SpaceElement, x: SpaceElement) -> float:
    """The seminorm obtained by freezing the second slot at z: ``||x, z||``."""
    return two_norm(space, x, z)


# --- witness sets and residuals ---------------------------------------------

@dataclass(frozen=True)
class WitnessSet:
    """A finite spanning family of vectors against which residuals are taken.

    Spanning guarantees that a vanishing max-residual pins the point down,
    i.e. ``max_z ||v, z|| = 0`` implies ``v = 0``. The set also holds the
    ``(1, m, n)`` array of its witnesses that :func:`witness_norm_rows`
    broadcasts against, and whether the witnesses are the standard basis,
    which on ``gram`` selects the closed form of both witness kernels; on
    any other set :func:`witness_norms` runs :func:`two_norm` per witness.
    """

    witnesses: tuple[SpaceElement, ...]
    _batch: np.ndarray = field(init=False, repr=False, compare=False)
    _basis: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.witnesses:
            raise ValueError("witness set must be nonempty")
        dims = {w.dim for w in self.witnesses}
        if len(dims) != 1:
            raise ValueError("witnesses must share one dimension")
        n = dims.pop()
        mat = np.array([w.coords for w in self.witnesses], dtype=float)
        if np.linalg.matrix_rank(mat) < n:
            raise ValueError("witness set does not span the space")
        object.__setattr__(self, "_batch", mat[None])
        # The rows of the identity, in order and bit for bit (no -0.0): the
        # witnesses on which gram norms have a closed form.
        object.__setattr__(self, "_basis", mat.tobytes() == np.eye(n).tobytes())

    @property
    def dim(self) -> int:
        return self.witnesses[0].dim


@functools.cache
def standard_basis(dimension: int) -> WitnessSet:
    """The unit vectors of the space, one set per dimension.

    The set is frozen, so every caller shares it; building it runs an SVD
    for the spanning check.
    """
    rows = np.eye(dimension)
    return WitnessSet(tuple(SpaceElement(tuple(r)) for r in rows))


def _witness_norm_iter(space: TwoNormSpace, wset: WitnessSet, v: SpaceElement):
    """Yield ``||v, z_j||`` in witness order: the one body of the witness kernels.

    Every set runs the reference kernel per witness, ``two_norm(space, v,
    z_j)``, save one: on ``gram`` against the standard basis it takes the
    square root of each radicand that ``_gram_basis_radicands`` yields on
    ``v``'s coordinates (see the module notes), lazily, so an early exit
    skips the later witnesses.
    """
    if wset.dim != space.dimension:
        raise ValueError("witness set dimension does not match the space")
    _element_in(space, v)
    if not (wset._basis and space.kind is SpaceKind.GRAM):
        for z in wset.witnesses:
            yield two_norm(space, v, z)
        return

    sqrt = math.sqrt
    for r in _gram_basis_radicands(v.coords):
        yield sqrt(r if r > 0.0 or r != r else 0.0)  # as in gram_norm


def witness_norms(
    space: TwoNormSpace, wset: WitnessSet, v: SpaceElement
) -> tuple[float, ...]:
    """``||v, z_j||`` for every witness z_j, equal to :func:`two_norm` bit for bit."""
    return tuple(_witness_norm_iter(space, wset, v))


# The float screen's guards and margin; see _screen and its two entry points.
_SCREEN_SQ_MAX = 2.0**800
_SCREEN_LIMIT_SQ_MIN = 2.0**-900
_SCREEN_LIMIT_SQ_MAX = 2.0**900
_SCREEN_DIM_MAX = 2**16
_SCREEN_MARGIN = 1.0 + 2.0**-30
_SCREEN_NORM_SQ_MAX = 2.0**100


def _screen(n: int, a: float, r: float, radius: float) -> Optional[bool]:
    """The one decision body of the float screens: True where ``||v, u|| <
    radius`` is clear-cut, False where ``||v, u|| > radius`` is, None where
    the screen cannot tell.

    ``n`` is the dimension, ``a = fl(|v|^2) fl(|u|^2)`` and ``r = a -
    fl(<v, u>)^2``, a plain-float ``R* = |v|^2 |u|^2 - <v, u>^2``, whose
    square root both exact kernels compute (on ``cross2`` by Lagrange's
    identity, ``R* = (v1 u2 - v2 u1)^2``). With ``err = (n + 1) 2**-50 a``
    it answers

    * False (past the radius) when ``r - err > radius^2 (1 + 2**-30)``;
    * True (inside, strictly) when ``(r + err) (1 + 2**-30) < radius^2``;

    and only when ``n <= 2**16``, ``a < 2**800`` and ``2**-900 <= radius *
    radius <= 2**900``; NaN fails the guards. Error bound, with ``eps =
    2**-53`` and ``M = |v|^2 |u|^2``: the three n-term sums are off by at
    most ``n eps (1 + 2**-30)`` times ``|v|^2``, ``|u|^2`` and ``|v| |u|``
    (Cauchy-Schwarz on ``|v_i u_i|``), so ``|r - R*| <= (4n + 3) eps M (1
    + 2**-30) < (n + 1) 2**-51 M``, while ``err >= (n + 1) 2**-50 M (1 -
    2**-30)``. The other half of ``err`` covers the exact kernel's own
    absolute error, ``O(n eps^2) M`` from its double-double sums (its
    relative error is a few ulps of ``R*``), so it fits near-dependent
    pairs, where ``r`` cancels. The margin ``2**-30`` covers what underflow
    leaves (each entry point bounds it below ``2**-940``), the rounding of
    ``radius^2`` and of the comparisons, the kernel's few ulps and its
    square root, so False means the exact norm is ``> radius`` and True
    that it is ``< radius``, the same answer for a closed and an open ball.
    """
    if n <= _SCREEN_DIM_MAX and a < _SCREEN_SQ_MAX:
        lim2 = radius * radius
        if _SCREEN_LIMIT_SQ_MIN <= lim2 <= _SCREEN_LIMIT_SQ_MAX:
            err = a * ((n + 1) * 2.0**-50)
            if r - err > lim2 * _SCREEN_MARGIN:
                return False
            if (r + err) * _SCREEN_MARGIN < lim2:
                return True
    return None


def basis_screen(
    space: TwoNormSpace, wset: WitnessSet, sq: Sequence[float], limit: float
) -> Optional[bool]:
    """Whether ``max_j ||v, e_j|| < limit`` on the standard basis, where the
    float screen can tell; None where it cannot. It is the screen of the pair
    test :func:`witness_gap_within`, which takes both answers.

    ``sq`` holds the squares ``v_i * v_i`` of all ``space.dimension``
    coordinates of v. There ``||v, e_j||^2 = |v|^2 - v_j^2``, so the
    squared max norm is :func:`two_norm_screen`'s ``R*`` at ``u = e_j``,
    with j the index of the smallest square: there ``fl(|u|^2) = 1`` and
    ``fl(<v, u>) = v_j`` exactly, so ``a = sum(sq)`` and ``r = a -
    min(sq)`` are that screen's, its error bound holds as it stands, and the
    answer is :func:`_screen`'s. False (past the limit) holds for that one
    witness. True (inside) holds for every witness: each exact ``R*_j`` is
    at most ``R*`` at the smallest square, and the kernel's error bound is
    the same for every j, since ``M = |v|^2`` for each. Every product is a
    square, so underflow moves ``r`` by at most ``n 2**-1075``, and ``a <
    2**800`` keeps every ``|v_i| < 2**400``, where no kernel overflows. A
    NaN or infinite square fails that guard, so an answer also means every
    ``v_i`` is finite: a difference that overflowed is never screened away.
    A set other than the standard basis gets None.
    """
    n = space.dimension
    if wset._basis and len(wset.witnesses) == len(sq) == n:
        a = sum(sq)
        return _screen(n, a, a - min(sq), limit)
    return None


def witness_gap_within(
    space: TwoNormSpace, wset: WitnessSet, a: Sequence[float], b: Sequence[float],
    limit: float,
) -> bool:
    """Whether ``max_z ||a - b, z|| <= limit``, for two coordinate lists.

    Decides as ``witness_residual(space, wset, SpaceElement(a),
    SpaceElement(b)) <= limit`` does, NaN included, and raises
    :class:`NonFiniteError` wherever that subtraction does. On the standard
    basis, of ``gram`` or ``cross2``, :func:`basis_screen` first settles a
    clear miss or a clear pass from the squared differences, with no
    difference list (it answers only where every difference is finite, so
    no ``NonFiniteError`` is screened away). The rest run the exact kernel
    on the difference list, in witness order, and stop at the first norm
    past ``limit`` without evaluating later witnesses: Python's ``max`` is
    within the limit exactly when its first value is (so a NaN first norm
    is not) and no later value exceeds it (a later NaN is skipped).
    """
    if wset._basis and len(a) == len(b):
        within = basis_screen(space, wset, [d * d for d in map(operator.sub, a, b)], limit)
        if within is not None:
            return within
    norms = _witness_norm_iter(space, wset, SpaceElement(difference(a, b)))
    return next(norms) <= limit and not any(x > limit for x in norms)


def two_norm_screen(
    space: TwoNormSpace, v: Sequence[float], u: Sequence[float], u_sq: float, radius: float
) -> Optional[bool]:
    """Whether ``two_norm(space, SpaceElement(v), SpaceElement(u)) < radius``,
    where a float screen can tell; None where it cannot.

    ``v`` and ``u`` are coordinates and ``u_sq`` is ``sum(a * a for a in
    u)``, which a caller testing many vectors against one u forms once. It
    forms ``a = fl(|v|^2) u_sq`` and ``r = a - fl(<v, u>)^2`` and returns
    :func:`_screen`'s answer, only when ``len(v) == len(u) ==
    space.dimension`` and both ``fl(|v|^2)`` and ``u_sq`` are below
    ``2**100``. Those guards keep every coordinate below ``2**50``, so no
    product overflows and no Dekker split in the kernel does. A product that
    underflows is off by at most ``2**-1075``, and the later products scale
    that by factors below ``2**101``, so underflow moves either side's
    radicand by less than ``2**-940`` against ``radius^2 >= 2**-900`` (a
    ``u`` near ``2**380`` would lift it to about ``2**-300``, hence the
    guard on both). A NaN or infinite ``v`` fails the guards. ``u = 0`` and
    ``v = 0`` give ``r = 0``: inside.
    """
    n = space.dimension
    if len(v) == len(u) == n and u_sq < _SCREEN_NORM_SQ_MAX:
        v_sq = sum([a * a for a in v])
        if v_sq < _SCREEN_NORM_SQ_MAX:
            a = v_sq * u_sq
            p = sum(map(operator.mul, v, u))
            return _screen(n, a, a - p * p, radius)
    return None


# witness_norm_rows runs the batch once its rows cost _ROWS_BATCH_MIN kernel
# calls: one _gram_basis_radicands body per row on the gram standard basis,
# one two_norm per row and witness on every other set. Where the batch draws
# level with witness_norms (whole call, each path forced, best of 27 x 20 on
# a shared 2-vCPU VM, Python 3.11, numpy 2.4):
#   witness set (calls per row)         rows     calls
#   cross2 basis (2)                    8-10     16-20
#   gram:3, gram:4 basis (1)            ~16      ~16
#   gram:8 basis (1)                    16-20    16-20
#   gram:3 permuted unit vectors (3)    8-10     24-30
#   gram:3 basis + (1, 1, 1) (4)        ~6       ~24
#   gram:8 permuted unit vectors (8)    3-4      24-32
# Slices of at most 4096 vectors bound the batch's temporaries: a general
# gram:8 slice against 8 witnesses forms (4096, 8) arrays, 256 kB each.
_ROWS_BATCH_MIN = 24
_ROWS_BATCH_SLICE = 4096


def witness_norm_rows(
    space: TwoNormSpace, wset: WitnessSet, vectors: np.ndarray
) -> np.ndarray:
    """``witness_norms(space, wset, v)`` for every row v, equal to it bit for bit.

    ``vectors`` is an ``(N, n)`` float array; the result is the ``(N, m)``
    float64 array whose row i holds ``||v_i, z_j||`` for the m witnesses, on
    both paths. Rows that cost fewer than 24 kernel calls (see
    ``_ROWS_BATCH_MIN``) go through :func:`witness_norms` one at a time, as
    elements of Python floats; more, and any array with an inf or NaN, which
    no element can hold, go through one :func:`two_norm_batch` call per
    slice, on the slice's ``(k, 1, n)`` rows against the set's ``(1, m, n)``
    witness array. That is the scalar kernel run on arrays; it forms each
    ``|v|^2`` and each ``|z|^2`` once per call. On ``gram`` against the
    standard basis each slice runs ``_gram_basis_radicands`` instead, the
    scalar closed form itself, on the rows of ``chunk.T`` (one array per
    coordinate), with no witness array. A vector that overflows the kernel
    (``|v|`` past about 1.2e150 on ``gram``, coordinates past about 1.3e300
    on ``cross2``) gets NaN on both paths, and numpy's overflow warnings are
    silenced, as Python float arithmetic gives none.
    """
    basis = wset._basis and space.kind is SpaceKind.GRAM
    k = len(wset.witnesses)
    calls = len(vectors) * (1 if basis else k)
    if calls < _ROWS_BATCH_MIN and np.isfinite(vectors).all():
        return np.array([witness_norms(space, wset, SpaceElement(c))
                         for c in vectors.tolist()], dtype=float).reshape(-1, k)
    if wset.dim != space.dimension:
        raise ValueError("witness set dimension does not match the space")
    if basis and vectors.shape[1:] != (space.dimension,):
        raise ValueError(f"expected ({space.dimension},) rows, got {vectors.shape}")
    rows = np.empty((len(vectors), k))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(vectors), _ROWS_BATCH_SLICE):
            chunk = vectors[start : start + _ROWS_BATCH_SLICE]
            if basis:
                radicands = np.array(list(_gram_basis_radicands(chunk.T)))
                table = np.sqrt(np.maximum(0.0, radicands)).T
            else:
                table = two_norm_batch(space, chunk[:, None, :], wset._batch)
            rows[start : start + len(chunk)] = table
    return rows


def witness_residual(
    space: TwoNormSpace, wset: WitnessSet, x: SpaceElement, y: SpaceElement
) -> float:
    """``max_z ||x - y, z||`` over the witness set; zero iff x equals y."""
    return max(witness_norms(space, wset, x - y))


# --- axiom checking ----------------------------------------------------------

@dataclass(frozen=True)
class AxiomViolation:
    axiom: str           # one of N1..N4
    sample_index: int    # row of the seeded draw that holds the offending vectors
    deviation: float     # violation magnitude, normalised by the axiom scale


@dataclass(frozen=True)
class AxiomReport:
    samples_tested: int
    violations: tuple[AxiomViolation, ...]
    violation_count: int

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


_SAMPLING_BOX = 10.0  # axioms are homogeneous, so the box scale is immaterial
_RECORD_LIMIT = 32  # violations kept on the report; violation_count has them all


def check_axioms(
    space: TwoNormSpace,
    sample_count: int,
    seed: int,
    tolerance: float,
    norm_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> AxiomReport:
    """Probe the four 2-norm axioms on seeded random triples.

    Draws ``sample_count`` triples (x, y, z) and scalars alpha uniformly from
    ``[-10, 10]^n`` and runs five checks, in this order:

    * N1: nonnegativity, ``||x, y|| >= 0`` with no slack;
    * N1: ``||x, alpha*x|| = 0`` on constructed dependent pairs;
    * N2: symmetry;
    * N3: absolute homogeneity ``||alpha*x, y|| = |alpha| ||x, y||``;
    * N4: the triangle inequality ``||x+y, z|| <= ||x, z|| + ||y, z||``.

    A sample violates a check where its excess passes ``tolerance`` (zero
    for nonnegativity) times the Cauchy-Schwarz area ceiling of the vectors
    involved (|x||y| and friends), the natural homogeneous scale; its
    deviation is the excess over that scale. Violations are reported, never
    raised: ``violation_count`` counts them all, and the report keeps the
    first 32 by sample index, each naming the row of the draw that holds
    its vectors. The run is deterministic given the seed. ``norm_fn``
    substitutes a custom batch evaluator ``(X, Y) -> values`` for the
    space's own norm, which is how deliberately broken evaluators are put
    under test. A negative, infinite or NaN tolerance is a ``ValueError``.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    n = space.dimension
    rng = np.random.default_rng(seed)
    draw = rng.uniform(-_SAMPLING_BOX, _SAMPLING_BOX, size=(sample_count, 3 * n + 1))
    X = draw[:, 0:n]
    Y = draw[:, n : 2 * n]
    Z = draw[:, 2 * n : 3 * n]
    alpha = draw[:, 3 * n]

    norm = norm_fn if norm_fn is not None else (lambda a, b: two_norm_batch(space, a, b))

    mag_x = np.linalg.norm(X, axis=1)
    mag_y = np.linalg.norm(Y, axis=1)
    mag_z = np.linalg.norm(Z, axis=1)

    n_xy = norm(X, Y)
    n_yx = norm(Y, X)
    n_dep = norm(X, alpha[:, None] * X)
    n_ax_y = norm(alpha[:, None] * X, Y)
    n_sum = norm(X + Y, Z)
    n_xz = norm(X, Z)
    n_yz = norm(Y, Z)

    # (axiom, excess, scale, slack), in the order above. The scales are
    # finite, so -n_xy > 0.0 * scale decides as n_xy < 0.0 does, NaN and
    # -0.0 included.
    scale_xy = mag_x * mag_y
    checks = (
        ("N1", -n_xy, scale_xy, 0.0),
        ("N1", n_dep, np.abs(alpha) * mag_x * mag_x, tolerance),
        ("N2", np.abs(n_xy - n_yx), scale_xy, tolerance),
        ("N3", np.abs(n_ax_y - np.abs(alpha) * n_xy), np.abs(alpha) * scale_xy, tolerance),
        ("N4", n_sum - (n_xz + n_yz), (mag_x + mag_y) * mag_z, tolerance),
    )
    found: list[tuple[int, str, int, float]] = []
    for tag, (axiom, excess, scale, slack) in enumerate(checks):
        dev = np.divide(excess, scale, out=np.zeros_like(excess), where=scale > 0)
        found += [(int(i), axiom, tag, float(dev[i]))
                  for i in np.nonzero(excess > slack * scale)[0]]
    found.sort()
    return AxiomReport(
        samples_tested=sample_count,
        violations=tuple(AxiomViolation(axiom, i, dev)
                         for i, axiom, _, dev in found[:_RECORD_LIMIT]),
        violation_count=len(found),
    )
