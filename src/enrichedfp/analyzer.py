"""Enrichment analysis: the exact slope of a map tree, certificates and the best b.

A map T is (b, theta)-enriched when ``||b(x-y) + Tx - Ty, z|| <= theta
||x-y, z||`` for all x, y, z, with b >= 0 and theta in [0, b+1). Averaging T
with lam = 1/(b+1) then yields a plain contraction with factor d = theta * lam
< 1, which is what the solvers drive to a fixed point.

The quantifier includes z = x - y, where the right side is 0 (N1). Write
``D = x - y`` and ``E = Tx - Ty``: absolute homogeneity (N3) and the triangle
inequality (N4) give ``||b D + E, D|| = ||E, D||``, so an enriched map has
``||E, D|| = 0``, that is ``Tx - Ty`` parallel to ``x - y``, on every pair,
whatever b and theta are. On a region that does not lie on a line this makes
T the map ``x -> c x + t`` with one slope c, and every ratio of the
inequality is then ``|b + c|`` (:func:`theta_scalar_affine`).

Every map the package builds is a tree of reflection, scalar-affine,
two-region, averaged and iterated nodes, and the analysis turns such a tree
into the pieces ``x -> c_k x + t_k`` it takes over a box, each with an
enclosure of its image (interval abstract interpretation, Cousot & Cousot,
POPL 1977):

* a reflection or scalar-affine leaf maps each piece and its image box;
* a two-region node gives the constant u when the image box lies wholly
  inside ``{sup > threshold}``, the constant -u/3 when it lies wholly outside,
  and both when it straddles the boundary;
* an averaged node mixes each piece of its inner node with the identity;
* an iterated node folds its inner node over the pieces so far.

Pieces with the same (c, t) merge. One remaining piece certifies
``theta = |b + c|`` at every b, least in d at ``b* = max(0, -c)``; two
pieces mean that no (b, theta) holds, and the refusal names both. A node's
slope is composed from its inner node's in a fixed order, ``(1 - lam) + lam *
c`` for an averaged node and ``c * c_k`` for each step of an iterated one,
which keeps the slope of every affine tree, and so its artifacts, bit-stable.

Image boxes are rounded outward. Each bound is computed with the float
operations that ``apply`` performs on a point, then moved one ulp outward.
Each of those operations is monotone in each operand and rounding to nearest
is monotone, so the value ``apply`` computes at any point of the box lies
between the unwidened bounds; the widening by one ulp per operation makes the
box hold the exact real values too. A two-region node that finds its image
box wholly on one side therefore decides that side for every float
evaluation, and the branch ``apply`` takes at any point of the box is one of
the analysed pieces. The constants u and -u/3 are exact and are not widened.
Bounds may be infinite: the whole space is ``[-inf, inf]^n``, a zero factor
gives 0 rather than ``0 * inf = nan``, and a nan bound widens to the
infinite one.

A certificate whose map is one piece over the whole space holds everywhere.
Otherwise, when the map is one piece over the analysis box, the certificate
carries that box (``Provenance.box``) and the solver keeps every iterate in
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .mapping import Averaged, Iterated, PiecewiseTwoSet, Reflection, ScalarAffine, SelfMap
from .space import Box, TwoNormSpace, WitnessSet

__all__ = [
    "NotCertifiableError",
    "Provenance",
    "EnrichedCertificate",
    "ThetaEstimate",
    "theta_scalar_affine",
    "certify",
    "map_slope",
    "estimate_theta",
    "optimize_b",
]


class NotCertifiableError(Exception):
    """No (b, theta) certificate exists or can be trusted for the map."""


@dataclass(frozen=True)
class Provenance:
    """Where a certificate's theta came from, and the box it holds on.

    ``box`` is None when the certificate holds on the whole space.
    """

    kind: str  # closed_form | asserted
    box: Optional[Box] = None

    @classmethod
    def closed_form(cls, box: Optional[Box] = None) -> "Provenance":
        return cls("closed_form", box)

    @classmethod
    def asserted(cls) -> "Provenance":
        return cls("asserted")

    def __str__(self) -> str:
        if self.box is None:
            return self.kind
        lo, hi = (",".join(map(repr, v)) for v in (self.box.lo, self.box.hi))
        return f"{self.kind}(lo={lo};hi={hi})"


@dataclass(frozen=True)
class EnrichedCertificate:
    """The tuple (b, theta, lambda, d) certifying enriched contractivity.

    Only b and theta are stored; lambda = 1/(b+1) and d = theta * lambda are
    computed from them in doubles. Rounding can make d = 1 although theta <
    b + 1 (b = 2.9028432123001946, theta = 3.902843212300194), so a
    certificate needs both theta < b + 1 and d < 1 as computed.
    """

    b: float
    theta: float
    provenance: Provenance

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b >= 0.0):
            raise ValueError(f"b must be finite and nonnegative, got {self.b}")
        if not self.theta >= 0.0:
            raise ValueError(f"theta must be nonnegative, got {self.theta}")
        if not self.theta < self.b + 1.0:
            raise NotCertifiableError(
                f"theta={self.theta} is not below b+1={self.b + 1.0}"
            )
        if not self.d < 1.0:
            raise NotCertifiableError(
                f"d=theta*lambda={self.d} is not below 1 as computed"
            )

    @property
    def lam(self) -> float:
        return 1.0 / (self.b + 1.0)

    @property
    def d(self) -> float:
        return self.theta * self.lam


def certify(b: float, theta: float, provenance: Provenance) -> EnrichedCertificate:
    """Build the certificate for a (b, theta) pair, or refuse it.

    Raises :class:`NotCertifiableError` unless theta < b + 1 (the boundary is
    excluded by the enrichment definition) and d < 1 as computed; an infinite
    theta is refused too. A negative or NaN b or theta, or an infinite b, is a
    ``ValueError``.
    """
    return EnrichedCertificate(b=float(b), theta=float(theta), provenance=provenance)


def theta_scalar_affine(c: float, b: float) -> float:
    """Exact minimal theta for x -> c*x + t under any 2-norm: |b + c|.

    The enriched difference for such a map is (b + c)(x - y), so absolute
    homogeneity makes every admissible ratio equal |b + c|.
    """
    if b < 0:
        raise ValueError(f"b must be nonnegative, got {b}")
    return abs(b + c)


@dataclass(frozen=True)
class ThetaEstimate:
    """The least theta of a map at a given b: ``|b + c|`` for its one slope c."""

    b: float
    theta_hat: float


# --- the analysis -----------------------------------------------------------------

# A piece (c, t, lo, hi): the node maps its input x to c x + t on part of the
# box, with every image in [lo, hi].
_Vec = tuple[float, ...]
_Piece = tuple[float, _Vec, _Vec, _Vec]

# Most pieces one node may give before the analysis gives up: each two-region
# node can double them, and an iterated averaged two-region map would
# otherwise grow them as 2**times.
_PIECE_LIMIT = 64


def _down(v: float) -> float:
    return math.nextafter(v, -math.inf) if v == v else -math.inf


def _up(v: float) -> float:
    return math.nextafter(v, math.inf) if v == v else math.inf


def _scaled(s: float, lo: _Vec, hi: _Vec) -> tuple[_Vec, _Vec]:
    """Outward bounds of ``s * x`` for x in [lo, hi]."""
    if s == 0.0:  # 0 * x is 0 for every finite x; 0 * inf would be nan
        zero = tuple(0.0 for _ in lo)
        return zero, zero
    if s < 0.0:
        lo, hi = hi, lo
    return tuple(_down(s * v) for v in lo), tuple(_up(s * v) for v in hi)


def _shifted(lo: _Vec, hi: _Vec, a: _Vec, b: _Vec) -> tuple[_Vec, _Vec]:
    """Outward bounds of ``x + y`` for x in [lo, hi] and y in [a, b]."""
    return (tuple(_down(x + y) for x, y in zip(lo, a)),
            tuple(_up(x + y) for x, y in zip(hi, b)))


def _region_pieces(T: PiecewiseTwoSet, lo: _Vec, hi: _Vec) -> list[_Piece]:
    thr = T.region.threshold
    # The least sup-norm over the box is the largest least |x_i|; the
    # greatest is the largest max(|lo_i|, |hi_i|).
    inside = any((l if l > 0.0 else -h if h < 0.0 else 0.0) > thr for l, h in zip(lo, hi))
    outside = all(max(-l, h) <= thr for l, h in zip(lo, hi))
    pieces = []
    if not outside:
        u = T.u.coords
        pieces.append((0.0, u, u, u))
    if not inside:
        f = T.fallback()
        pieces.append((0.0, f, f, f))
    return pieces


def _compose(q: _Piece, p: _Piece) -> _Piece:
    """Piece q of a node applied after piece p of its input."""
    cq, tq, lo, hi = q
    # After a constant node the shift is its own, even where p's overflowed.
    return (cq * p[0], tq if cq == 0.0 else tuple(cq * a + b for a, b in zip(p[1], tq)),
            lo, hi)


def _merged(pieces: list[_Piece]) -> list[_Piece]:
    """One piece per (c, t), its image box the hull of theirs."""
    out: dict[tuple[float, _Vec], tuple[_Vec, _Vec]] = {}
    for c, t, lo, hi in pieces:
        have = out.get((c, t))
        if have is not None:
            lo = tuple(map(min, lo, have[0]))
            hi = tuple(map(max, hi, have[1]))
        out[(c, t)] = (lo, hi)
    if len(out) > _PIECE_LIMIT:
        raise NotCertifiableError(
            f"the map takes more than {_PIECE_LIMIT} affine pieces")
    return [(c, t, lo, hi) for (c, t), (lo, hi) in out.items()]


def _pieces(T: SelfMap, lo: _Vec, hi: _Vec) -> list[_Piece]:
    """The pieces of T as a map of its input x in [lo, hi]."""
    if isinstance(T, Reflection):  # w - x, falling in x
        w = T.w.coords
        return [(-1.0, w, tuple(_down(a - b) for a, b in zip(w, hi)),
                 tuple(_up(a - b) for a, b in zip(w, lo)))]
    if isinstance(T, ScalarAffine):  # scale * x + shift
        t = T.shift.coords
        return [(T.scale, t, *_shifted(*_scaled(T.scale, lo, hi), t, t))]
    if isinstance(T, PiecewiseTwoSet):
        return _region_pieces(T, lo, hi)
    if isinstance(T, Averaged):  # (1 - lam) x + lam inner(x)
        lam = T.lam
        a = 1.0 - lam
        x_lo, x_hi = _scaled(a, lo, hi)
        return _merged([(a + lam * c, tuple(lam * v for v in t),
                         *_shifted(x_lo, x_hi, *_scaled(lam, q_lo, q_hi)))
                        for c, t, q_lo, q_hi in _pieces(T.inner, lo, hi)])
    if isinstance(T, Iterated):
        pieces: list[_Piece] = [(1.0, tuple(0.0 for _ in lo), lo, hi)]
        for _ in range(T.times):
            pieces = _merged([_compose(q, p) for p in pieces
                              for q in _pieces(T.inner, p[2], p[3])])
        return pieces
    raise NotCertifiableError(
        f"{type(T).__name__} is not a reflection, scalar-affine, two-region, averaged "
        "or iterated node, so it cannot be analysed")


def map_slope(T: SelfMap, box: Optional[Box] = None) -> tuple[float, Optional[Box]]:
    """The one slope c of T, and the box the slope needs, or None.

    T is analysed over the whole space first: one piece there gives
    ``(c, None)``. Otherwise, over ``box``: one piece there gives ``(c,
    box)``, and the slope holds only on that box. Two pieces where the
    analysis ends raise :class:`NotCertifiableError` naming both, as do more
    pieces than the analysis keeps and a map that is not a tree of the five
    node kinds.
    """
    n = T.dimension
    try:
        pieces = _pieces(T, (-math.inf,) * n, (math.inf,) * n)
    except NotCertifiableError:  # too many pieces, perhaps not on the box
        if box is None:
            raise
        pieces = []
    where = None
    if len(pieces) != 1 and box is not None:
        pieces, where = _pieces(T, box.lo, box.hi), box
    if len(pieces) > 1:
        (c1, t1, _, _), (c2, t2, _, _) = pieces[:2]
        on = "the whole space" if where is None else f"the box lo={where.lo} hi={where.hi}"
        raise NotCertifiableError(
            f"the map is not one affine piece on {on}: it takes both "
            f"x -> {c1!r} x + {t1} and x -> {c2!r} x + {t2}, so no (b, theta) "
            "makes it enriched")
    return pieces[0][0], where


def estimate_theta(
    T: SelfMap,
    b: float,
    space: TwoNormSpace,
    region: Box,
    witnesses: Optional[WitnessSet],
    count: int,
    seed: int,
) -> ThetaEstimate:
    """The least theta of T at b over the box: exactly ``|b + c|``.

    c is :func:`map_slope` of T over ``region``. The ratio is the same in
    every 2-norm and for every z, so ``space`` and ``witnesses`` are not
    read, and nothing is sampled, so neither are ``count`` and ``seed``.
    """
    if b < 0:
        raise ValueError(f"b must be nonnegative, got {b}")
    c, _ = map_slope(T, region)
    return ThetaEstimate(b=float(b), theta_hat=theta_scalar_affine(c, b))


def optimize_b(
    T: SelfMap,
    space: TwoNormSpace,
    region: Box,
) -> tuple[float, EnrichedCertificate]:
    """The b minimising the averaged contraction factor d(b) = theta(b)/(b+1).

    With c the :func:`map_slope` of T over ``region``, theta(b) = |b + c| is
    least in d at ``b = max(0, -c)``, where d = max(c, 0); a slope of 1 or
    more gives d >= 1 at every b and is refused. The certificate carries the
    box when the slope holds only there. The slope is the same in every
    2-norm, so ``space`` is not read.
    """
    c, box = map_slope(T, region)
    if not math.isfinite(c):  # an iterated slope can overflow
        raise NotCertifiableError(f"the map's slope c={c} is not finite")
    b = max(0.0, -c)
    return b, certify(b, theta_scalar_affine(c, b), Provenance.closed_form(box))
