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

Both norm kernels accumulate in double-double arithmetic (see ``_dd``), so the
returned value is the correctly rounded area of the given float vectors even
when the pair is close to dependent. With the naive formulas the two kinds
disagree by thousands of ulps on a noticeable fraction of random pairs; with
the compensated kernels they agree to a few ulps everywhere except at areas
below the ~1e-14 double-double noise floor.

Witness residuals go through one kernel body, which yields ``||v, z_j||``
for the witnesses in order. A :class:`WitnessSet` precomputes, once, each
witness's coordinates, their Dekker splits and its double-double ``|z|^2``;
the kernel splits ``v`` and forms ``|v|^2`` once per call, then runs the
``gram`` arithmetic inline. It performs the same IEEE operations in the same
order as the scalar :func:`two_norm`, so its results equal
``two_norm(space, v, z_j)`` bit for bit. :func:`witness_norms` collects every
value; :func:`witness_max_prefix` stops as soon as the running max passes a
limit, which is all a stopping test needs; :func:`witness_norm_rows` takes
many vectors and, from 24 on, evaluates them with :func:`two_norm_batch`,
bit for bit the same. The scalar kernel stays the reference, and serves the
ball tests.

The coordinate spaces here are complete (every Cauchy sequence converges),
which the convergence theory assumes; completeness is a property of the space
construction and is documented rather than checked at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from ._dd import _SPLIT, dd_add, dd_mul, det2_dd, dot_dd

EPS = 2.220446049250313e-16  # 2**-52, one ulp at 1.0

__all__ = [
    "NonFiniteError",
    "SpaceElement",
    "Box",
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
    "witness_max_prefix",
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
        coords = tuple(float(c) for c in self.coords)
        if not coords:
            raise ValueError("SpaceElement needs at least one coordinate")
        if not all(math.isfinite(c) for c in coords):
            raise NonFiniteError(f"non-finite coordinates: {coords}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.array(self.coords, dtype=float)

    def __add__(self, other: "SpaceElement") -> "SpaceElement":
        _same_dim(self, other)
        return SpaceElement(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "SpaceElement") -> "SpaceElement":
        _same_dim(self, other)
        return SpaceElement(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, scalar: float) -> "SpaceElement":
        s = float(scalar)
        return SpaceElement(tuple(s * a for a in self.coords))


@dataclass(frozen=True)
class Box:
    """An axis-aligned box: a sampling region or a solver domain."""

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

    @property
    def scale(self) -> float:
        return max(max(abs(v) for v in self.lo), max(abs(v) for v in self.hi), 1.0)

    def contains(self, space: "TwoNormSpace", x: SpaceElement) -> bool:
        return all(a <= c <= b for a, c, b in zip(self.lo, x.coords, self.hi, strict=True))


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
    """Vectorised :func:`two_norm` over rows of two ``(m, n)`` arrays.

    Runs the same compensated operation sequence as the scalar kernels, so
    each row matches the scalar result bit for bit.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 2 or xs.shape[1] != space.dimension:
        raise ValueError(f"expected matching (m, {space.dimension}) arrays")
    if space.kind is SpaceKind.CROSS2:
        return np.abs(det2_dd(xs[:, 0], xs[:, 1], ys[:, 0], ys[:, 1]))
    cols_x = [xs[:, i] for i in range(xs.shape[1])]
    cols_y = [ys[:, i] for i in range(ys.shape[1])]
    r = _gram_radicand(cols_x, cols_y)
    return np.sqrt(np.maximum(0.0, r))


def seminorm(space: TwoNormSpace, z: SpaceElement, x: SpaceElement) -> float:
    """The seminorm obtained by freezing the second slot at z: ``||x, z||``."""
    return two_norm(space, x, z)


# --- witness sets and residuals ---------------------------------------------

def _split(a: float) -> tuple[float, float]:
    # Dekker split, the same operations as inside _dd.two_prod.
    ah = _SPLIT * a
    ah = ah - (ah - a)
    return ah, a - ah


@dataclass(frozen=True)
class WitnessSet:
    """A finite spanning family of vectors against which residuals are taken.

    Spanning guarantees that a vanishing max-residual pins the point down,
    i.e. ``max_z ||v, z|| = 0`` implies ``v = 0``. The set also holds the
    per-witness operands of :func:`witness_norms` (coordinates with their
    Dekker splits, and the split double-double ``|z|^2``), computed once.
    """

    witnesses: tuple[SpaceElement, ...]
    _operands: tuple = field(init=False, repr=False, compare=False)

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
        operands = []
        for w in self.witnesses:
            szh, szl = dot_dd(w.coords, w.coords)
            splits = tuple((a, *_split(a)) for a in w.coords)
            operands.append((splits, szh, szl, *_split(szh)))
        object.__setattr__(self, "_operands", tuple(operands))

    @property
    def dim(self) -> int:
        return self.witnesses[0].dim


def standard_basis(dimension: int) -> WitnessSet:
    rows = np.eye(dimension)
    return WitnessSet(tuple(SpaceElement(tuple(r)) for r in rows))


def _witness_norm_iter(space: TwoNormSpace, wset: WitnessSet, v: SpaceElement):
    """Yield ``||v, z_j||`` in witness order: the one body of the witness kernels.

    For ``gram`` this is :func:`gram_norm` with ``_dd.two_prod``, ``dd_add``
    and ``dd_mul`` written out inline: ``v``'s splits and ``|v|^2`` are formed
    once per call and each witness's operands come precomputed from the set,
    while every remaining operation runs in the order of the scalar kernel.
    ``cross2`` has no squared norms to share, so it evaluates the scalar
    kernel per witness.
    """
    if wset.dim != space.dimension:
        raise ValueError("witness set dimension does not match the space")
    _element_in(space, v)
    if space.kind is SpaceKind.CROSS2:
        for z in wset.witnesses:
            yield two_norm(space, v, z)
        return

    # v's splits, and |v|^2 = dot_dd(v, v)
    vt = []
    h = l = 0.0
    for a in v.coords:
        ah = _SPLIT * a
        ah = ah - (ah - a)
        al = a - ah
        vt.append((a, ah, al))
        p = a * a
        e = ((ah * ah - p) + ah * al + al * ah) + al * al
        s = h + p
        bb = s - h
        e = (h - (s - bb)) + (p - bb) + (l + e)
        h = s + e
        bb = h - s
        l = (s - (h - bb)) + (e - bb)
    svh, svl = h, l
    svhh, svhl = _split(svh)

    sqrt = math.sqrt
    for zt, szh, szl, szhh, szhl in wset._operands:
        # <v, z> = dot_dd(v, z)
        h = l = 0.0
        for (a, ah, al), (b, bh, bl) in zip(vt, zt):
            p = a * b
            e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
            s = h + p
            bb = s - h
            e = (h - (s - bb)) + (p - bb) + (l + e)
            h = s + e
            bb = h - s
            l = (s - (h - bb)) + (e - bb)
        # p1 = dd_mul(|v|^2, |z|^2)
        p = svh * szh
        e = ((svhh * szhh - p) + svhh * szhl + svhl * szhh) + svhl * szhl
        e = e + (svh * szl + svl * szh)
        p1h = p + e
        bb = p1h - p
        p1l = (p - (p1h - bb)) + (e - bb)
        # p2 = dd_mul(<v,z>, <v,z>)
        hh = _SPLIT * h
        hh = hh - (hh - h)
        hl = h - hh
        p = h * h
        e = ((hh * hh - p) + hh * hl + hl * hh) + hl * hl
        e = e + (h * l + l * h)
        p2h = p + e
        bb = p2h - p
        p2l = (p - (p2h - bb)) + (e - bb)
        # radicand = dd_add(p1, -p2), high part only
        q = -p2h
        s = p1h + q
        bb = s - p1h
        e = (p1h - (s - bb)) + (q - bb)
        e = e + (p1l + -p2l)
        r = s + e
        yield sqrt(r if r > 0.0 or r != r else 0.0)  # as in gram_norm


def witness_norms(
    space: TwoNormSpace, wset: WitnessSet, v: SpaceElement
) -> tuple[float, ...]:
    """``||v, z_j||`` for every witness z_j, equal to :func:`two_norm` bit for bit."""
    return tuple(_witness_norm_iter(space, wset, v))


def witness_max_prefix(
    space: TwoNormSpace, wset: WitnessSet, v: SpaceElement, limit: float
) -> float:
    """``max(witness_norms(space, wset, v))``, cut short once it passes ``limit``.

    Keeps the running value of Python's ``max`` in witness order and returns
    it as soon as it is not ``<= limit``, without evaluating later witnesses.
    So the result is ``<= limit`` exactly when the full max is, and
    ``> limit`` exactly when the full max is; a NaN first norm stays NaN, as
    in ``max``.
    """
    norms = _witness_norm_iter(space, wset, v)
    r = next(norms)
    if r <= limit:
        for x in norms:
            if x > r:
                r = x
                if not r <= limit:
                    break
    return r


# Kernel choice for witness_norm_rows. Measured on a shared 2-vCPU VM (Python
# 3.11, numpy 2.4, runs vary up to 2x): one two_norm_batch call costs about
# 30-90 us on cross2, 190-400 us on gram:3, 330-520 us on gram:4 and
# 450-730 us on gram:8 however few rows it gets, while witness_norms costs
# about 5-8, 8-14, 16 and 41-47 us per vector. The batch therefore wins from
# about 6 (cross2) to 30 (gram:4) vectors; it takes over at 24, where it is at
# worst about even, and long traces gain most. Slices of at most 4096 vectors
# bound its temporaries: an unsliced 10,000-iteration gram:8 trace would stack
# 240,000 pairs, two 15 MB input arrays and 1.9 MB per column temporary.
_ROWS_BATCH_MIN = 24
_ROWS_BATCH_SLICE = 4096


def witness_norm_rows(
    space: TwoNormSpace, wset: WitnessSet, vectors: Sequence[SpaceElement]
) -> list[tuple[float, ...]]:
    """``witness_norms(space, wset, v)`` for every v, equal to it bit for bit.

    Few vectors go through :func:`witness_norms` one at a time; more go
    through :func:`two_norm_batch` over every (vector, witness) pair, which
    runs the same operation sequence as the scalar kernel. A vector that
    overflows the kernel (``|v|`` past about 1.2e150 on ``gram``, coordinates
    past about 1.3e300 on ``cross2``) gets NaN on both paths, and numpy's
    overflow warnings are silenced, as Python float arithmetic gives none.
    """
    if len(vectors) < _ROWS_BATCH_MIN:
        return [witness_norms(space, wset, v) for v in vectors]
    if wset.dim != space.dimension:
        raise ValueError("witness set dimension does not match the space")
    m = len(wset.witnesses)
    W = np.array([z.coords for z in wset.witnesses], dtype=float)
    rows: list[tuple[float, ...]] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(vectors), _ROWS_BATCH_SLICE):
            V = np.array([v.coords for v in vectors[start : start + _ROWS_BATCH_SLICE]],
                         dtype=float)
            norms = two_norm_batch(space, np.repeat(V, m, axis=0), np.tile(W, (len(V), 1)))
            rows.extend(map(tuple, norms.reshape(len(V), m).tolist()))
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
    sample_index: int
    witness: tuple       # offending vectors (and scalar where relevant)
    deviation: float     # violation magnitude, normalised by the axiom scale


@dataclass(frozen=True)
class AxiomReport:
    samples_tested: int
    violations: tuple[AxiomViolation, ...]
    violation_count: int
    passed: bool


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
    ``[-10, 10]^n`` and checks, each within ``tolerance`` relative slack:

    * N1: nonnegativity, plus ``||x, alpha*x|| = 0`` on constructed
      dependent pairs;
    * N2: symmetry;
    * N3: absolute homogeneity ``||alpha*x, y|| = |alpha| ||x, y||``;
    * N4: the triangle inequality ``||x+y, z|| <= ||x, z|| + ||y, z||``.

    Slack is measured relative to the Cauchy-Schwarz area ceiling of the
    vectors involved (|x||y| and friends), the natural homogeneous scale.
    Violations are reported, never raised; the run is deterministic given the
    seed. ``norm_fn`` substitutes a custom batch evaluator ``(X, Y) -> values``
    for the space's own norm, which is how deliberately broken evaluators are
    put under test.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
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

    found: list[tuple[int, str, int, float]] = []
    witness_makers: list = []
    total = 0

    def collect(axiom, mask, deviation, witness_of):
        nonlocal total
        idx = np.nonzero(mask)[0]
        total += len(idx)
        tag = len(witness_makers)
        witness_makers.append(witness_of)
        for i in idx:
            found.append((int(i), axiom, tag, float(deviation[i])))

    def vec(row):
        return tuple(float(v) for v in row)

    # N1: nonnegativity and the dependent-pair zero.
    scale_xy0 = mag_x * mag_y
    scale_dep = np.abs(alpha) * mag_x * mag_x
    collect(
        "N1",
        n_xy < 0.0,
        np.divide(-n_xy, scale_xy0, out=np.zeros_like(n_xy), where=scale_xy0 > 0),
        lambda i: (vec(X[i]), vec(Y[i])),
    )
    collect(
        "N1",
        n_dep > tolerance * scale_dep,
        np.divide(n_dep, scale_dep, out=np.zeros_like(n_dep), where=scale_dep > 0),
        lambda i: (vec(X[i]), float(alpha[i])),
    )

    # N2: symmetry (exact for both built-in kernels).
    scale_xy = mag_x * mag_y
    collect(
        "N2",
        np.abs(n_xy - n_yx) > tolerance * scale_xy,
        np.divide(np.abs(n_xy - n_yx), scale_xy, out=np.zeros_like(n_xy), where=scale_xy > 0),
        lambda i: (vec(X[i]), vec(Y[i])),
    )

    # N3: absolute homogeneity.
    scale_hom = np.abs(alpha) * scale_xy
    dev_hom = np.abs(n_ax_y - np.abs(alpha) * n_xy)
    collect(
        "N3",
        dev_hom > tolerance * scale_hom,
        np.divide(dev_hom, scale_hom, out=np.zeros_like(dev_hom), where=scale_hom > 0),
        lambda i: (vec(X[i]), vec(Y[i]), float(alpha[i])),
    )

    # N4: triangle inequality in the first slot.
    scale_tri = (mag_x + mag_y) * mag_z
    dev_tri = n_sum - (n_xz + n_yz)
    collect(
        "N4",
        dev_tri > tolerance * scale_tri,
        np.divide(dev_tri, scale_tri, out=np.zeros_like(dev_tri), where=scale_tri > 0),
        lambda i: (vec(X[i]), vec(Y[i]), vec(Z[i])),
    )

    found.sort(key=lambda v: (v[0], v[1], v[2]))
    recorded = tuple(
        AxiomViolation(axiom, i, witness_makers[tag](i), dev)
        for i, axiom, tag, dev in found[:_RECORD_LIMIT]
    )
    return AxiomReport(
        samples_tested=sample_count,
        violations=recorded,
        violation_count=total,
        passed=total == 0,
    )
