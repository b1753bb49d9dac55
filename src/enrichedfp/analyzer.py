"""Enrichment analysis: estimate theta for a given b and certify contractivity.

A map T is (b, theta)-enriched when ``||b(x-y) + Tx - Ty, z|| <= theta
||x-y, z||`` for all x, y, z, with b >= 0 and theta in [0, b+1). Averaging T
with lam = 1/(b+1) then yields a plain contraction with factor d = theta * lam
< 1, which is what the solvers drive to a fixed point.

``estimate_theta`` samples the defining ratio and keeps its running maximum.
Two kinds of triples are excluded from the maximum:

* near-dependent triples, where ``||x-y, z||`` falls below the dependence
  threshold ``eps_dep * region scale`` (the quantifier constrains nothing
  there);
* numerically untrusted triples, where a forward error bound on the computed
  ratio exceeds ``ratio_noise_tol``. Evaluating T in doubles perturbs the
  numerator by a few ulps of the coordinate magnitudes, and dividing by a tiny
  denominator amplifies that perturbation far beyond the certification
  tolerances; such samples say nothing about theta. Ratios certifiably above
  ``ratio_cap`` still set ``unbounded_flag``, because their *relative* error
  stays small even where their absolute error bound is large.

Every accepted ratio is therefore within ``ratio_noise_tol`` of the true
ratio of the implemented map, so ``theta_hat`` estimates the supremum from
below up to that tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mapping import SelfMap, affine_reduction
from .space import (EPS, Box, SpaceElement, TwoNormSpace, WitnessSet, norm_operand,
                    two_norm_batch)

__all__ = [
    "NotCertifiableError",
    "Provenance",
    "EnrichedCertificate",
    "ThetaEstimate",
    "DEFAULT_B_GRID",
    "theta_scalar_affine",
    "certify",
    "certify_sampled",
    "estimate_theta",
    "optimize_b",
]


class NotCertifiableError(Exception):
    """The pair (b, theta) violates the definitional range theta < b + 1."""


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
    argmax_triple: Optional[tuple[SpaceElement, SpaceElement, SpaceElement]]
    skipped_dependent: int
    skipped_noisy: int
    accepted: int
    unbounded_flag: bool
    sample_count: int
    seed: int


def _draw_triples(region: Box, witnesses: Optional[WitnessSet],
                  count: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # numpy draws uniformly only from ranges whose width hi - lo is finite.
    width = max(h - l for l, h in zip(region.lo, region.hi))
    if not math.isfinite(width):
        raise NotCertifiableError(
            f"sampling box width hi - lo = {width} is not finite, so no sample can be drawn")
    # One block of draws per sample keeps the stream prefix-stable in count,
    # which makes theta_hat monotone under sample-count extension.
    rng = np.random.default_rng(seed)
    lo = np.array(region.lo)
    hi = np.array(region.hi)
    pts = rng.uniform(lo, hi, size=(count, 3, region.dimension))
    X = pts[:, 0, :].copy()
    Y = pts[:, 1, :].copy()
    Z = pts[:, 2, :].copy()
    if witnesses is not None:
        # The quantifier also ranges over the residual directions the solver
        # will measure against, so the first samples pin z to the witnesses.
        for i, w in enumerate(witnesses.witnesses[: min(len(witnesses.witnesses), count)]):
            Z[i] = w.coords
    return X, Y, Z


def _row_norm(a: np.ndarray) -> np.ndarray:
    # np.linalg.norm(a, axis=1) without its wrapper: numpy's own code path
    # for that call, so the same bits.
    return np.sqrt(np.add.reduce(a * a, axis=1))


_NOISE_NUM = 8.0
_NOISE_DEN = 4.0


class _ThetaSample:
    """The b-invariant part of ``estimate_theta`` over one draw of triples.

    Of the sampled ratio ``||b D + E, z|| / ||D, z||`` with ``D = x - y`` and
    ``E = Tx - Ty``, only the numerator vector ``V = b D + E`` depends on b.
    The draws, both map applications, ``D``, ``E``, the
    :class:`~enrichedfp.space.NormOperand` of ``Z`` (its splits and
    ``|z|^2``), the denominators, the dependence mask and the b-free parts of
    the forward error model are computed here once. :meth:`estimate` then
    costs one batch norm per b, against that operand: the operand of ``V``
    plus one pair step.

    Overflowing draws (a box near the float range) yield inf and NaN norms,
    which the guards reject; numpy's warnings about them are silenced, as in
    :func:`~enrichedfp.space.witness_norm_rows`.
    """

    def __init__(self, T: SelfMap, space: TwoNormSpace, region: Box,
                 witnesses: Optional[WitnessSet], count: int, seed: int,
                 eps_dep: float):
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        if eps_dep <= 0:
            raise ValueError(f"eps_dep must be positive, got {eps_dep}")
        self.space = space
        self.count = count
        self.seed = seed
        self.X, self.Y, self.Z = _draw_triples(region, witnesses, count, seed)
        with np.errstate(over="ignore", invalid="ignore"):
            TX = T.apply_batch(self.X)
            TY = T.apply_batch(self.Y)
            self.D = self.X - self.Y
            self.E = TX - TY
            self.z_op = norm_operand(space, self.Z)
            self.den = two_norm_batch(space, self.D, self.z_op)
            dep = self.den <= eps_dep * region.scale
            self.n_dep = int(np.count_nonzero(dep))
            self.live = ~dep

            # Forward error model: T evaluated in doubles perturbs each
            # coordinate of the numerator vector by ~EPS times the magnitudes
            # that entered it, and ||e, z|| <= |e| |z| bounds how that reaches
            # the area.
            self.zmag = _row_norm(self.Z)
            self.err_den = EPS * (_NOISE_DEN * _row_norm(np.abs(self.D)) * self.zmag
                                  + 4.0 * self.den)
            self.abs_XY = np.abs(self.X) + np.abs(self.Y)
            self.abs_TX = np.abs(TX)
            self.abs_TY = np.abs(TY)

    def estimate(self, b: float, ratio_noise_tol: float = 1e-12,
                 ratio_cap: float = 1e6) -> ThetaEstimate:
        """The theta estimate at b over this sample."""
        with np.errstate(over="ignore", invalid="ignore"):
            V = b * self.D + self.E
            num = two_norm_batch(self.space, V, self.z_op)
            # Keep this order: pre-adding |TX| + |TY| would round differently.
            coord_mag = abs(b) * self.abs_XY + self.abs_TX + self.abs_TY + np.abs(V)
            # A live ratio is trusted when its forward error bound is within tol.
            ratio = np.divide(num, self.den, out=np.zeros_like(num), where=self.live)
            err_num = EPS * (_NOISE_NUM * _row_norm(coord_mag) * self.zmag + 4.0 * num)
            err_ratio = np.divide(err_num + ratio * self.err_den, self.den,
                                  out=np.full_like(num, np.inf), where=self.live)
            accepted = self.live & (err_ratio <= ratio_noise_tol)
            unbounded = bool(np.any(self.live & (ratio - err_ratio > ratio_cap)))

        n_noisy = int(np.count_nonzero(self.live & ~accepted))
        n_acc = int(np.count_nonzero(accepted))

        if n_acc == 0:
            theta_hat, triple = 0.0, None
        else:
            masked = np.where(accepted, ratio, -np.inf)
            idx = int(np.argmax(masked))  # argmax returns the lowest tied index
            theta_hat = float(ratio[idx])
            triple = (
                SpaceElement(tuple(self.X[idx])),
                SpaceElement(tuple(self.Y[idx])),
                SpaceElement(tuple(self.Z[idx])),
            )

        return ThetaEstimate(
            b=float(b),
            theta_hat=theta_hat,
            argmax_triple=triple,
            skipped_dependent=self.n_dep,
            skipped_noisy=n_noisy,
            accepted=n_acc,
            unbounded_flag=unbounded,
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
    eps_dep: float = 1e-8,
    ratio_noise_tol: float = 1e-12,
    ratio_cap: float = 1e6,
) -> ThetaEstimate:
    """Sampled supremum of ||b(x-y) + Tx - Ty, z|| / ||x-y, z|| over the box.

    Deterministic given the seed; the maximum is taken over triples that pass
    the dependence and noise guards described in the module docstring, and the
    maximising triple is the lowest-index one. A box too wide to sample, where
    ``hi - lo`` overflows, raises :class:`NotCertifiableError`.
    """
    if b < 0:
        raise ValueError(f"b must be nonnegative, got {b}")
    sample = _ThetaSample(T, space, region, witnesses, count, seed, eps_dep)
    return sample.estimate(b, ratio_noise_tol, ratio_cap)


_INFLATION = 1.01


def certify_sampled(b: float, estimate: ThetaEstimate) -> EnrichedCertificate:
    """Certify from a sampled estimate, inflating theta_hat for margin.

    Sampling estimates the supremum from below, so theta_hat is inflated by
    ``_INFLATION`` (capped midway below b+1) before certification; unbounded
    or empty estimates are refused outright.
    """
    if estimate.unbounded_flag:
        raise NotCertifiableError(
            f"sampled ratios at b={b} exceed the cap; the supremum looks unbounded"
        )
    if estimate.accepted == 0:
        raise NotCertifiableError(f"no trustworthy samples at b={b}")
    if estimate.theta_hat >= b + 1.0:
        raise NotCertifiableError(
            f"sampled theta_hat={estimate.theta_hat} is not below b+1={b + 1.0}"
        )
    theta = min(_INFLATION * estimate.theta_hat, 0.5 * (estimate.theta_hat + b + 1.0))
    return certify(b, theta, Provenance.sampled(estimate.sample_count, estimate.seed))


DEFAULT_B_GRID: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_b(
    T: SelfMap,
    space: TwoNormSpace,
    region: Box,
    witnesses: Optional[WitnessSet],
    refine_steps: int = 32,
    count: int = 100_000,
    seed: int = 0,
    eps_dep: float = 1e-8,
) -> tuple[float, EnrichedCertificate]:
    """Search for the b minimising the averaged contraction factor d(b).

    Evaluates ``d_hat(b) = theta(b)/(b+1)`` on ``DEFAULT_B_GRID``, using the
    closed form |b + c| when the map tree reduces to x -> c*x + t and the
    sampled estimate otherwise, then golden-section refines inside the bracket
    around the grid minimiser. Ties go to the smaller b (larger averaging
    step). Candidates whose sampled ratios look unbounded are discarded.

    Every sampled candidate is evaluated on one fixed sample: the triples are
    drawn and mapped once, on first need, together with the batch-norm
    operand of ``z`` (its splits and ``|z|^2``). Each b then forms only its
    numerator ``V = b(x-y) + Tx - Ty``, whose norm costs one operand for
    ``V`` plus one pair step against that of ``z``. The returned certificate
    is therefore exactly
    ``certify_sampled(b, estimate_theta(T, b, ..., count, seed, eps_dep))``
    at the returned b. On that sample each ratio ``||b D + E, z|| / ||D, z||``
    is convex in b (by the triangle inequality N4 and absolute homogeneity N3
    of the 2-norm), so their maximum theta_hat(b) is convex and
    ``d_hat(b) = theta_hat(b)/(b+1)`` is quasiconvex: the bracket around the
    grid minimiser holds the minimum on the sample, and golden section narrows
    it. One caveat remains: the noise filter's coordinate magnitudes depend on
    b, so the set of accepted samples can change with b.
    """
    grid = DEFAULT_B_GRID  # ascending, so ties below keep the smaller b
    closed = affine_reduction(T)
    sample: Optional[_ThetaSample] = None
    cache: dict[float, ThetaEstimate] = {}

    def theta_at(b: float) -> float:
        nonlocal sample
        if closed is not None:
            return theta_scalar_affine(closed[0], b)
        est = cache.get(b)
        if est is None:
            if sample is None:
                sample = _ThetaSample(T, space, region, witnesses, count, seed, eps_dep)
            est = cache[b] = sample.estimate(b)
        if est.unbounded_flag or est.accepted == 0:
            return math.inf
        return est.theta_hat

    def d_at(b: float) -> float:
        th = theta_at(b)
        return th / (b + 1.0) if math.isfinite(th) else math.inf

    best_b = grid[0]
    best_d = d_at(best_b)
    best_i = 0
    for i, g in enumerate(grid[1:], start=1):
        dg = d_at(g)
        if dg < best_d:  # strict: ties stay with the smaller b
            best_b, best_d, best_i = g, dg, i

    if not math.isfinite(best_d) or best_d >= 1.0:
        raise NotCertifiableError(
            "no grid point certifies: theta_hat(b) >= b+1 throughout the grid"
        )

    lo = grid[best_i - 1] if best_i > 0 else grid[best_i]
    hi = grid[best_i + 1] if best_i + 1 < len(grid) else grid[best_i]
    if hi > lo:
        c = hi - _GOLDEN * (hi - lo)
        d_pt = lo + _GOLDEN * (hi - lo)
        fc, fd = d_at(c), d_at(d_pt)
        for _ in range(refine_steps):
            for b_cand, val in ((c, fc), (d_pt, fd)):
                if val < best_d or (val == best_d and b_cand < best_b):
                    best_b, best_d = b_cand, val
            if fc < fd:
                hi, d_pt, fd = d_pt, c, fc
                c = hi - _GOLDEN * (hi - lo)
                fc = d_at(c)
            else:
                lo, c, fc = c, d_pt, fd
                d_pt = lo + _GOLDEN * (hi - lo)
                fd = d_at(d_pt)

    if closed is not None:
        cert = certify(best_b, theta_scalar_affine(closed[0], best_b), Provenance.closed_form())
    else:
        cert = certify_sampled(best_b, cache[best_b])
    return best_b, cert
