"""Enrichment analysis: estimate theta for a given b and certify contractivity.

A map T is (b, theta)-enriched when ``||b(x-y) + Tx - Ty, z|| <= theta
||x-y, z||`` for all x, y, z, with b >= 0 and theta in [0, b+1). Averaging T
with lam = 1/(b+1) then yields a plain contraction with factor d = theta * lam
< 1, which is what the solvers drive to a fixed point.

The quantifier includes z = x - y, where the right side is 0 (N1). Write
``D = x - y`` and ``E = Tx - Ty``: absolute homogeneity (N3) and the triangle
inequality (N4) give ``||b D + E, D|| = ||E, D||``, so an enriched map has
``||E, D|| = 0``, that is ``Tx - Ty`` parallel to ``x - y``, on every pair,
whatever b and theta are. One pair that is not parallel therefore refutes
every (b, theta). On a parallel pair ``E = mu D`` with ``mu = <E, D>/<D, D>``,
and every ratio of the inequality is ``|b + mu|`` whatever z is.

``estimate_theta`` samples pairs (x, y) from a box and applies T to them once.

* A pair whose ``||E, D||`` exceeds its rounding bound by ``_REFUTE_MARGIN``
  refutes the map: :class:`NotCertifiableError` names it.
* Near-dependent pairs, where ``|D|`` is at most ``_EPS_DEP = 1e-8`` times
  the box scale ``max(1, |lo_i|, |hi_i|)``, are skipped: the quantifier
  constrains nothing there.
* Numerically untrusted pairs are skipped, where a forward error bound on
  mu exceeds ``ratio_noise_tol``. Evaluating T in doubles perturbs E by a few
  ulps of the coordinate magnitudes, and dividing by a small ``|D|``
  amplifies that; such pairs say nothing about theta.

Over the accepted pairs, with ``M = max mu`` and ``m = min mu``, the largest
sampled ratio is ``theta_hat(b) = max(b + M, -(b + m))``. Every accepted mu
is within ``ratio_noise_tol`` of the true slope of the implemented map, so
``theta_hat`` estimates the supremum from below up to that tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mapping import SelfMap, affine_reduction
from .space import EPS, Box, SpaceElement, TwoNormSpace, WitnessSet, two_norm_batch

__all__ = [
    "NotCertifiableError",
    "Provenance",
    "EnrichedCertificate",
    "ThetaEstimate",
    "theta_scalar_affine",
    "certify",
    "certify_sampled",
    "estimate_theta",
    "optimize_b",
]


class NotCertifiableError(Exception):
    """No (b, theta) certificate exists or can be trusted for the map."""


@dataclass(frozen=True)
class Provenance:
    """Where a certificate's theta came from."""

    kind: str  # closed_form | sampled | asserted
    sample_count: Optional[int] = None
    seed: Optional[int] = None

    @classmethod
    def closed_form(cls) -> "Provenance":
        return cls("closed_form")

    @classmethod
    def sampled(cls, sample_count: int, seed: int) -> "Provenance":
        return cls("sampled", sample_count, seed)

    @classmethod
    def asserted(cls) -> "Provenance":
        return cls("asserted")

    def __str__(self) -> str:
        if self.kind == "sampled":
            return f"sampled(count={self.sample_count},seed={self.seed})"
        return self.kind


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
    """Sampled lower estimate of the enrichment coefficient at a given b."""

    b: float
    theta_hat: float
    argmax_pair: Optional[tuple[SpaceElement, SpaceElement]]
    skipped_dependent: int
    skipped_noisy: int
    accepted: int
    sample_count: int
    seed: int


# Most sample coordinates (count times dimension) one sample may draw. A
# sample's arrays grow linearly with them: analyze on a gram:8 piecewise map
# (Python 3.11, numpy 2.4) peaked at 141 MiB with 100,000 samples and at
# 245 MiB with 200,000, about 136 bytes per coordinate over a 38 MiB base, so
# the limit allows a peak of about 0.6 GB. It admits the default 100,000
# samples up to gram:40.
_DRAW_LIMIT = 4_000_000


def _draw_pairs(region: Box, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # numpy draws uniformly only from ranges whose width hi - lo is finite.
    width = max(h - l for l, h in zip(region.lo, region.hi))
    if not math.isfinite(width):
        raise NotCertifiableError(
            f"sampling box width hi - lo = {width} is not finite, so no sample can be drawn")
    if count * region.dimension > _DRAW_LIMIT:
        raise NotCertifiableError(
            f"sampling count {count} in dimension {region.dimension} draws "
            f"{count * region.dimension} coordinates, above the limit of {_DRAW_LIMIT}")
    # One block of draws per sample keeps the stream prefix-stable in count,
    # which makes theta_hat monotone under sample-count extension.
    rng = np.random.default_rng(seed)
    pts = rng.uniform(np.array(region.lo), np.array(region.hi),
                      size=(count, 2, region.dimension))
    return pts[:, 0, :], pts[:, 1, :]


# The box scale max(1, |lo_i|, |hi_i|) never drops below 1, so a box inside
# [-1, 1]^n whose diagonal is at most _EPS_DEP has no live pair: at a scale
# near 1e-150 the kernel's products |E|^2 |D|^2 underflow, and ||E, D|| would
# read 0 on pairs that are not parallel.
_EPS_DEP = 1e-8

# Rounding of T, of E = Tx - Ty and of D = x - y moves each coordinate of E
# by at most about _NOISE * EPS times the magnitudes |x| + |y| + |Tx| + |Ty|
# that entered it, so ||E, D|| by at most that times |D| (||e, D|| <= |e| |D|)
# and mu by at most that over |D|, plus 2 n EPS |mu| for the rounding of its
# two n-term dot products. A pair refutes the map only beyond _REFUTE_MARGIN
# times its bound.
_NOISE = 8.0
_REFUTE_MARGIN = 4.0


class _ThetaSample:
    """One draw of pairs, mapped once and reduced to their slopes mu.

    Builds ``D = X - Y`` and ``E = TX - TY`` and refutes the map by the
    batch norm ``||E, D||``, which runs only on live pairs (not near-dependent
    by ``_EPS_DEP``) with a nonzero ``E``: by N3 ``||0, D|| = 0``, and the
    kernel's arithmetic on a zero row gives exactly 0, or NaN where D
    overflows, so such a pair can refute nothing and skipping it changes no
    decision, index or message. On T^2 of a two-region map, which is
    constant, no pair reaches the kernel. The dependence and noise filters
    depend on neither b nor theta, so the accepted pairs, ``M = max mu`` and
    ``m = min mu`` are computed here once, and :meth:`estimate` at any b is
    ``theta_hat(b) = max(b + M, -(b + m))``.

    Overflowing draws (a box near the float range) yield inf and NaN norms,
    which refute nothing and which the guards reject; numpy's warnings about
    them are silenced, as in :func:`~enrichedfp.space.witness_norm_rows`.
    """

    def __init__(self, T: SelfMap, space: TwoNormSpace, region: Box, count: int,
                 seed: int, ratio_noise_tol: float = 1e-12):
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        scale = max(1.0, *map(abs, region.lo), *map(abs, region.hi))
        self.count = count
        self.seed = seed
        self.X, self.Y = _draw_pairs(region, count, seed)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            TX = T.apply_batch(self.X)
            TY = T.apply_batch(self.Y)
            D = self.X - self.Y
            E = TX - TY
            dd = np.add.reduce(D * D, axis=1)
            dmag = np.sqrt(dd)
            live = dmag > _EPS_DEP * scale
            self.n_dep = count - int(np.count_nonzero(live))
            noise = _NOISE * EPS * np.linalg.norm(
                np.abs(self.X) + np.abs(self.Y) + np.abs(TX) + np.abs(TY), axis=1)

            # The rows where E is nonzero, NaN and inf included (both are
            # != 0), found column by column: an axis=1 reduction over a few
            # columns is numpy's slow path.
            moved = E[:, 0] != 0.0
            for j in range(1, space.dimension):
                moved |= E[:, j] != 0.0
            cand = np.flatnonzero(live & moved)
            if cand.size:
                area = two_norm_batch(space, E[cand], D[cand])
                limit = _REFUTE_MARGIN * noise[cand] * dmag[cand]
                refuting = np.flatnonzero(area > limit)
                if refuting.size:
                    k = int(refuting[0])
                    raise NotCertifiableError(
                        f"Tx - Ty is not parallel to x - y at sample {int(cand[k])}: "
                        f"||Tx - Ty, x - y|| = {float(area[k])!r} exceeds its rounding "
                        f"bound {float(limit[k])!r}, so no (b, theta) makes the map "
                        "enriched")

            mu = np.add.reduce(E * D, axis=1) / dd
            err = noise / dmag + 2.0 * space.dimension * EPS * np.abs(mu)
        accepted = live & (err <= ratio_noise_tol)
        self.n_noisy = int(np.count_nonzero(live & ~accepted))
        self.accepted = int(np.count_nonzero(accepted))
        if self.accepted:
            # argmax and argmin return the lowest index among ties.
            self.i_max = int(np.argmax(np.where(accepted, mu, -np.inf)))
            self.i_min = int(np.argmin(np.where(accepted, mu, np.inf)))
            self.M = float(mu[self.i_max])
            self.m = float(mu[self.i_min])

    def estimate(self, b: float) -> ThetaEstimate:
        """The theta estimate at b over this sample."""
        theta_hat, pair = 0.0, None
        if self.accepted:
            up, down = b + self.M, -(b + self.m)
            theta_hat = max(up, down)
            i = self.i_max if up >= down else self.i_min
            pair = (SpaceElement(tuple(self.X[i])), SpaceElement(tuple(self.Y[i])))
        return ThetaEstimate(
            b=float(b),
            theta_hat=theta_hat,
            argmax_pair=pair,
            skipped_dependent=self.n_dep,
            skipped_noisy=self.n_noisy,
            accepted=self.accepted,
            sample_count=self.count,
            seed=self.seed,
        )


def estimate_theta(
    T: SelfMap,
    b: float,
    space: TwoNormSpace,
    region: Box,
    witnesses: Optional[WitnessSet],
    count: int,
    seed: int,
    ratio_noise_tol: float = 1e-12,
) -> ThetaEstimate:
    """Sampled supremum of ||b(x-y) + Tx - Ty, z|| / ||x-y, z|| over the box.

    Deterministic given the seed; the maximum ``max(b + M, -(b + m))`` is
    taken over the pairs that pass the dependence and noise guards described
    in the module docstring, and the maximising pair is the lowest-index one
    with mu = M, or with mu = m when ``-(b + m)`` is the larger.
    ``witnesses`` is not read, since z = x - y decides every ratio. A pair
    whose ``Tx - Ty`` is not parallel to ``x - y``, a box too wide to sample,
    where ``hi - lo`` overflows, or a draw of more than ``_DRAW_LIMIT``
    coordinates (count times dimension) raises :class:`NotCertifiableError`.
    """
    if b < 0:
        raise ValueError(f"b must be nonnegative, got {b}")
    return _ThetaSample(T, space, region, count, seed, ratio_noise_tol).estimate(b)


_INFLATION = 1.01


def certify_sampled(estimate: ThetaEstimate) -> EnrichedCertificate:
    """Certify at the estimate's b, inflating theta_hat for margin.

    Sampling estimates the supremum from below, so theta_hat is inflated by
    ``_INFLATION`` (capped midway below b+1) before certification; empty
    estimates are refused outright. The certificate's b is the estimate's.
    """
    b = estimate.b
    if estimate.accepted == 0:
        raise NotCertifiableError(f"no trustworthy samples at b={b}")
    if estimate.theta_hat >= b + 1.0:
        raise NotCertifiableError(
            f"sampled theta_hat={estimate.theta_hat} is not below b+1={b + 1.0}"
        )
    theta = min(_INFLATION * estimate.theta_hat, 0.5 * (estimate.theta_hat + b + 1.0))
    return certify(b, theta, Provenance.sampled(estimate.sample_count, estimate.seed))


def optimize_b(
    T: SelfMap,
    space: TwoNormSpace,
    region: Box,
    count: int = 100_000,
    seed: int = 0,
) -> tuple[float, EnrichedCertificate]:
    """The b minimising the averaged contraction factor d(b) = theta(b)/(b+1).

    A map tree that reduces to x -> c*x + t has theta(b) = |b + c|, least in
    d at ``b = max(0, -c)``. Any other map is sampled once, as in
    :func:`estimate_theta`: a pair that is not parallel refutes it, and the
    accepted slopes mu give ``theta_hat(b) = max(b + M, -(b + m))``. Then
    ``d_hat(b)`` falls on ``b < -(M + m)/2`` when m < 1 and rises beyond it
    when M < 1, so it is least at ``b* = max(0, -(M + m)/2)``, where
    ``d_hat = (M - m)/(2 - M - m)`` when that b is positive; with M >= 1,
    ``d_hat(b) >= 1`` for every b. The returned certificate is exactly
    ``certify_sampled(estimate_theta(T, b*, ..., count, seed))``.
    """
    c = affine_reduction(T)
    if c is not None:
        if not math.isfinite(c):  # an iterated slope can overflow
            raise NotCertifiableError(f"the map's slope c={c} is not finite")
        b = max(0.0, -c)
        return b, certify(b, theta_scalar_affine(c, b), Provenance.closed_form())
    sample = _ThetaSample(T, space, region, count, seed)
    if sample.accepted == 0:
        raise NotCertifiableError("no trustworthy samples for any b")
    if not sample.M < 1.0:
        raise NotCertifiableError(
            f"sampled slope M={sample.M!r} is not below 1, so d(b) >= 1 for every b")
    b = max(0.0, -(sample.M + sample.m) / 2.0)
    return b, certify_sampled(sample.estimate(b))
