"""Tests for the enrichment analyzer: estimates, certificates, b search."""

import dataclasses
import math
import random

import numpy as np
import pytest

from enrichedfp import analyzer
from enrichedfp.analyzer import (
    DEFAULT_B_GRID,
    NotCertifiableError,
    Provenance,
    certify,
    certify_sampled,
    estimate_theta,
    optimize_b,
    theta_scalar_affine,
)
from enrichedfp.mapping import (
    PiecewiseTwoSet,
    Reflection,
    ScalarAffine,
    SelfMap,
    SupNormRegion,
    averaged,
    default_piecewise,
    iterated,
)
from enrichedfp.space import (
    Box,
    SpaceElement,
    WitnessSet,
    cross2_space,
    gram_space,
    standard_basis,
    two_norm,
)

SP = cross2_space()
BOX = Box.symmetric(2)
WIT = standard_basis(2)


def el(*coords):
    return SpaceElement(tuple(float(c) for c in coords))


# --- closed form ----------------------------------------------------------------

def test_theta_scalar_affine_values():
    assert theta_scalar_affine(-1.0, 0.5) == 0.5   # the reflection bound |b - 1|
    assert theta_scalar_affine(-1.0, 1.0) == 0.0
    assert theta_scalar_affine(-3.0, 2.0) == 1.0   # certified: 1 < 3 = b + 1
    with pytest.raises(ValueError):
        theta_scalar_affine(0.5, -0.1)


# --- certificates ----------------------------------------------------------------

def test_certify_reflection_pair():
    cert = certify(0.5, 0.5, Provenance.closed_form())
    assert cert.lam == 1.0 / 1.5
    assert cert.d == 0.5 * (1.0 / 1.5)
    assert abs(cert.d - 1.0 / 3.0) < 1e-15


def test_certify_plain_contraction():
    cert = certify(0.0, 0.9, Provenance.asserted())
    assert cert.lam == 1.0
    assert cert.d == 0.9


def test_certify_rejects_boundary():
    with pytest.raises(NotCertifiableError):
        certify(1.0, 2.0, Provenance.asserted())
    with pytest.raises(ValueError):
        certify(-0.5, 0.1, Provenance.asserted())
    with pytest.raises(ValueError):
        certify(1.0, -0.1, Provenance.asserted())


def test_certify_refuses_a_d_that_rounds_to_one_and_an_infinite_theta():
    # theta < b + 1, yet d = theta * (1 / (b + 1)) rounds to exactly 1.0.
    b, theta = 2.9028432123001946, 3.902843212300194
    assert theta < b + 1.0 and theta * (1.0 / (b + 1.0)) == 1.0
    with pytest.raises(NotCertifiableError, match=r"^d=theta\*lambda=1\.0 is not below 1"):
        certify(b, theta, Provenance.asserted())
    # The closed form |b + c| overflows.
    theta = theta_scalar_affine(1.7e308, 1.7e308)
    assert theta == math.inf
    with pytest.raises(NotCertifiableError, match=r"^theta=inf is not below b\+1"):
        certify(1.7e308, theta, Provenance.closed_form())


@pytest.mark.parametrize("b, theta", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5),
                                      (-1.0, 0.5), (0.5, -1.0)])
def test_certify_rejects_a_negative_or_nan_pair_as_a_value_error(b, theta):
    with pytest.raises(ValueError):
        certify(b, theta, Provenance.asserted())


def test_certificate_stores_b_and_theta_and_computes_lambda_and_d():
    cert = certify(0.5, 0.5, Provenance.closed_form())
    assert [f.name for f in dataclasses.fields(cert)] == ["b", "theta", "provenance"]
    assert (cert.lam, cert.d) == (1.0 / 1.5, 0.5 * (1.0 / 1.5))


def test_certificate_arithmetic_on_random_pairs():
    rng = random.Random(17)
    for _ in range(1000):
        b = rng.uniform(0.0, 8.0)
        theta = rng.uniform(0.0, (b + 1.0) * 1.2)
        if theta < b + 1.0:
            cert = certify(b, theta, Provenance.asserted())
            assert cert.d < 1.0
        else:
            with pytest.raises(NotCertifiableError):
                certify(b, theta, Provenance.asserted())


# --- sampled estimates ------------------------------------------------------------

def test_estimate_theta_reflection_reaches_abs_b_minus_one():
    est = estimate_theta(Reflection(el(2, 0)), 0.5, SP, BOX, WIT, 20_000, seed=1)
    assert 0.49 <= est.theta_hat <= 0.5 + 1e-12
    assert est.argmax_triple is not None
    assert est.accepted > 0


def test_estimate_theta_constant_map_is_exactly_b():
    T = ScalarAffine(0.0, el(0.4, -1.2))
    for b in (0.0, 0.5, 2.0):
        est = estimate_theta(T, b, SP, BOX, WIT, 5_000, seed=2)
        assert est.theta_hat == b


def test_estimate_theta_identity_is_exactly_one():
    T = ScalarAffine(1.0, el(0, 0))
    est = estimate_theta(T, 0.0, SP, BOX, WIT, 5_000, seed=3)
    assert est.theta_hat == 1.0


def test_estimate_theta_validates_inputs():
    T = Reflection(el(2, 0))
    with pytest.raises(ValueError):
        estimate_theta(T, -1.0, SP, BOX, WIT, 100, seed=0)
    with pytest.raises(ValueError):
        estimate_theta(T, 0.0, SP, BOX, WIT, 0, seed=0)
    with pytest.raises(ValueError):
        estimate_theta(T, 0.0, SP, BOX, WIT, 100, seed=0, eps_dep=0.0)


def test_estimate_theta_deterministic():
    T = ScalarAffine(-0.4, el(1, 1))
    a = estimate_theta(T, 0.7, SP, BOX, WIT, 3_000, seed=11)
    b = estimate_theta(T, 0.7, SP, BOX, WIT, 3_000, seed=11)
    assert a == b


def test_estimate_theta_monotone_in_count():
    T = ScalarAffine(-0.4, el(1, 1))
    prev = -math.inf
    for count in (500, 2_000, 8_000):
        est = estimate_theta(T, 0.7, SP, BOX, WIT, count, seed=11)
        assert est.theta_hat >= prev
        prev = est.theta_hat


def test_estimate_theta_never_exceeds_closed_form():
    rng = random.Random(23)
    for _ in range(10):
        c = rng.uniform(-3.0, 1.0)
        b = rng.uniform(0.0, 4.0)
        T = ScalarAffine(c, el(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        est = estimate_theta(T, b, SP, BOX, WIT, 10_000, seed=rng.randrange(1 << 20))
        assert est.theta_hat <= theta_scalar_affine(c, b) + 1e-12


def test_estimate_theta_ratio_is_scale_invariant_pointwise():
    # homogeneity of the 2-norm: scaling the triple leaves the ratio alone
    # (exactly at the norm level; up to map-evaluation rounding end to end,
    # since the reflection's offset w does not scale with the points)
    T = Reflection(el(2, 0))
    b = 0.5
    rng = random.Random(29)

    def ratio(x, y, z):
        d = x - y
        v = SpaceElement(
            tuple(b * di + (ti - si) for di, ti, si in
                  zip(d.coords, T.apply(x).coords, T.apply(y).coords))
        )
        return two_norm(SP, v, z) / two_norm(SP, d, z)

    for _ in range(100):
        x = el(rng.uniform(-5, 5), rng.uniform(-5, 5))
        y = el(rng.uniform(-5, 5), rng.uniform(-5, 5))
        z = el(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if two_norm(SP, x - y, z) < 1e-3:
            continue
        # norm-level homogeneity is exact for power-of-two factors
        assert two_norm(SP, 2.0 * x, 2.0 * z) == 4.0 * two_norm(SP, x, z)
        r = ratio(x, y, z)
        for s in (2.0, 3.0):
            rs = ratio(s * x, s * y, s * z)
            assert abs(rs - r) <= 1e-12 * (1.0 + r)


def test_estimate_theta_band_holds_on_gram_space():
    from enrichedfp.space import gram_space

    sp3 = gram_space(3)
    box3 = Box.symmetric(3)
    wit3 = standard_basis(3)
    T = ScalarAffine(0.3, el(0.7, -0.3, 1.1))
    for b in (0.0, 2.0):
        est = estimate_theta(T, b, sp3, box3, wit3, 50_000, seed=9)
        exact = theta_scalar_affine(0.3, b)
        assert 0.99 * exact <= est.theta_hat <= exact + 1e-12


def test_iterated_piecewise_square_is_constant_hence_theta_is_b():
    from enrichedfp.mapping import iterated

    # the square of the two-region map is constant, so the enriched ratio
    # degenerates to exactly b for every admissible triple
    T2 = iterated(default_piecewise(2), 2)
    est = estimate_theta(T2, 1.0, SP, BOX, WIT, 50_000, seed=4)
    assert est.theta_hat == 1.0
    assert not est.unbounded_flag
    cert = certify_sampled(1.0, est)
    assert cert.theta == pytest.approx(1.01)
    # and the optimal averaging needs no averaging at all: b* = 0, d = 0
    b, cert0 = optimize_b(T2, SP, BOX, WIT, count=30_000)
    assert b == 0.0
    assert cert0.d == 0.0


def test_piecewise_unbounded_flag_with_low_cap():
    T = default_piecewise(2)
    est = estimate_theta(T, 0.0, SP, BOX, WIT, 100_000, seed=5, ratio_cap=100.0)
    assert est.unbounded_flag
    est_default = estimate_theta(T, 0.0, SP, BOX, WIT, 10_000, seed=5)
    assert not est_default.unbounded_flag  # 1e6 needs astronomically small areas


def test_certify_sampled_inflates_and_guards():
    T = Reflection(el(2, 0))
    est = estimate_theta(T, 0.5, SP, BOX, WIT, 20_000, seed=1)
    cert = certify_sampled(0.5, est)
    assert cert.theta >= est.theta_hat
    assert cert.theta <= 1.01 * est.theta_hat + 1e-15
    assert cert.provenance.kind == "sampled"
    flagged = estimate_theta(default_piecewise(2), 0.0, SP, BOX, WIT, 100_000,
                             seed=5, ratio_cap=100.0)
    with pytest.raises(NotCertifiableError):
        certify_sampled(0.0, flagged)


# --- b optimisation ----------------------------------------------------------------

def test_optimize_b_reflection_hits_one_exactly():
    b, cert = optimize_b(Reflection(el(2, 0)), SP, BOX, WIT)
    assert b == 1.0            # on the default grid, and d(1) = 0 beats any refinement
    assert cert.theta == 0.0
    assert cert.d == 0.0
    assert cert.provenance.kind == "closed_form"


def test_optimize_b_small_positive_slope_prefers_zero():
    b, cert = optimize_b(ScalarAffine(0.3, el(1, 0)), SP, BOX, WIT)
    assert b == 0.0
    assert cert.d == pytest.approx(0.3, abs=1e-12)


def test_optimize_b_strongly_negative_slope():
    b, cert = optimize_b(ScalarAffine(-3.0, el(1, 0)), SP, BOX, WIT, refine_steps=64)
    assert abs(b - 3.0) <= 1e-4
    assert cert.d <= 1e-9


def test_optimize_b_dominates_grid():
    rng = random.Random(31)
    for _ in range(5):
        c = rng.uniform(-3.0, 0.99)
        T = ScalarAffine(c, el(1, 1))
        b_star, cert = optimize_b(T, SP, BOX, WIT, refine_steps=64)
        for g in DEFAULT_B_GRID:
            d_g = theta_scalar_affine(c, g) / (g + 1.0)
            assert cert.d <= d_g + 1e-12
        if c <= 0:
            assert cert.d <= 1e-9


def test_optimize_b_not_certifiable_for_identity():
    with pytest.raises(NotCertifiableError):
        optimize_b(ScalarAffine(1.0, el(0, 0)), SP, BOX, WIT)


def test_optimize_b_sampled_route_matches_closed_form():
    # The wrapper hides the map tree from the closed form.
    b, cert = optimize_b(CountingMap(Reflection(el(2, 0))), SP, BOX, WIT, count=20_000)
    assert b == 1.0
    assert cert.provenance.kind == "sampled"
    assert cert.d <= 1e-9


# --- one sample shared by every candidate b -------------------------------------------

class CountingMap(SelfMap):
    """Delegates to an inner map and records the arrays ``apply_batch`` gets."""

    def __init__(self, inner: SelfMap):
        self.inner = inner
        self.batches = []

    @property
    def dimension(self) -> int:
        return self.inner.dimension

    def apply(self, x):
        return self.inner.apply(x)

    def apply_batch(self, xs):
        self.batches.append(xs.copy())
        return self.inner.apply_batch(xs)


# A sampled optimum inside a grid bracket: the averaged reflection is
# x -> -0.6 x + 0.8 w, so d(b) = |b - 0.6|/(b + 1) is least at b = 0.6. The
# wrapper hides the map tree from the closed form.
def _reflection_at_0_6(dim):
    return CountingMap(averaged(Reflection(el(*([2.0] + [0.0] * (dim - 1)))), 0.8))


@pytest.mark.parametrize("dim", [2, 3])
def test_per_b_evaluation_equals_estimate_theta(dim):
    space = cross2_space() if dim == 2 else gram_space(3)
    box, wit = Box.symmetric(dim, 4.0), standard_basis(dim)
    rng = random.Random(dim)
    bs = list(DEFAULT_B_GRID) + [0.6, 1e-12, 3.3] + [rng.uniform(0.0, 10.0) for _ in range(8)]
    maps = (default_piecewise(dim), iterated(default_piecewise(dim), 2), _reflection_at_0_6(dim))
    seen = []
    # (eps_dep, ratio_noise_tol, ratio_cap): the defaults, then guards tight
    # enough that dependent, noisy, empty and unbounded estimates all occur.
    for eps_dep, tol, cap in ((1e-8, 1e-12, 1e6), (0.5, 1e-14, 2.0)):
        for T in maps:
            sample = analyzer._ThetaSample(T, space, box, wit, 3_000, 7, eps_dep)
            for b in bs:
                got = sample.estimate(b, tol, cap)
                want = estimate_theta(T, b, space, box, wit, 3_000, 7, eps_dep, tol, cap)
                assert got.theta_hat.hex() == want.theta_hat.hex()
                assert got.argmax_triple == want.argmax_triple
                assert (got.skipped_dependent, got.skipped_noisy, got.accepted) == (
                    want.skipped_dependent, want.skipped_noisy, want.accepted)
                assert got.unbounded_flag == want.unbounded_flag
                assert got == want
                seen.append(want)
    assert any(e.skipped_dependent for e in seen) and any(e.skipped_noisy for e in seen)
    assert any(e.accepted == 0 for e in seen) and any(e.unbounded_flag for e in seen)


def test_optimize_b_maps_its_sample_once(monkeypatch):
    T = _reflection_at_0_6(2)
    norms = []
    real = analyzer.two_norm_batch
    monkeypatch.setattr(analyzer, "two_norm_batch",
                        lambda sp, v, z: norms.append(v) or real(sp, v, z))
    b, cert = optimize_b(T, SP, BOX, WIT, count=5_000, seed=2)
    X, Y, _ = analyzer._draw_triples(BOX, WIT, 5_000, 2)
    assert len(T.batches) == 2
    assert np.array_equal(T.batches[0], X) and np.array_equal(T.batches[1], Y)
    # One denominator, then one numerator per distinct candidate b: the grid
    # and the golden-section points.
    assert len(norms) > 1 + len(DEFAULT_B_GRID) + 30
    assert abs(b - 0.6) < 1e-3 and cert.d < 1e-3


@pytest.mark.parametrize("space,dim", [(cross2_space(), 2), (gram_space(3), 3)])
def test_optimize_b_certificate_is_the_estimate_at_its_b(space, dim):
    T = _reflection_at_0_6(dim)
    box, wit = Box.symmetric(dim), standard_basis(dim)
    b, cert = optimize_b(T, space, box, wit, count=4_000, seed=11, eps_dep=1e-7)
    assert cert.provenance == Provenance.sampled(4_000, 11)
    est = estimate_theta(T, b, space, box, wit, 4_000, 11, 1e-7)
    assert cert == certify_sampled(b, est)



# optimize_b pinned bit for bit on discontinuous two-region maps: u is small,
# so d_hat(b) has its minimum inside a grid bracket and the golden-section
# search runs on every map. (space, witnesses, b, theta, d as float.hex, then
# the counts of the estimate at b: accepted, skipped_dependent, skipped_noisy,
# unbounded_flag.)
_PINNED_B_SEARCH = [
    ("cross2:2", False, "0x1.804f66869491ap+2", "0x1.a1a7d797e6820p+2",
     "0x1.dcfd9116fe9bbp-1", (1943, 0, 57, False)),
    ("cross2:2", True, "0x1.804f66869491ap+2", "0x1.a1a7d797e6820p+2",
     "0x1.dcfd9116fe9bbp-1", (1943, 0, 57, False)),
    ("gram:3", False, "0x1.06012abf78741p-3", "0x1.7c349c7b461bep-2",
     "0x1.5114fc105ce40p-2", (2000, 0, 0, False)),
    ("gram:3", True, "0x1.06012abf78741p-3", "0x1.7c349c7b461bep-2",
     "0x1.5114fc105ce40p-2", (2000, 0, 0, False)),
    ("gram:5", False, "0x1.2dbdb66cea187p-7", "0x1.4e10e8ab051acp-2",
     "0x1.4b049547727e8p-2", (2000, 0, 0, False)),
    ("gram:5", True, "0x1.2dbdb66cea187p-7", "0x1.4e10e8ab051acp-2",
     "0x1.4b049547727e8p-2", (2000, 0, 0, False)),
]


def _skewed_witnesses(n):
    rows = [tuple(float(i == j) + 0.5 * (j == (i + 1) % n) for j in range(n)) for i in range(n)]
    return WitnessSet(tuple(SpaceElement(r) for r in rows + [tuple(([1.0, -1.0] * n)[:n])]))


@pytest.mark.parametrize("name, with_witnesses, b_hex, theta_hex, d_hex, counts",
                         _PINNED_B_SEARCH)
def test_optimize_b_is_pinned_on_piecewise_maps(name, with_witnesses, b_hex, theta_hex,
                                                d_hex, counts):
    n = int(name.split(":")[1])
    space = cross2_space() if name.startswith("cross2") else gram_space(n)
    u = SpaceElement(tuple(0.05 * (1.0 + 0.25 * i) * (-1) ** i for i in range(n)))
    T = PiecewiseTwoSet(SupNormRegion(3.5), u)
    box, wit = Box.symmetric(n, 4.0), _skewed_witnesses(n) if with_witnesses else None
    b, cert = optimize_b(T, space, box, wit, count=2000, seed=5)
    assert (b.hex(), cert.theta.hex(), cert.d.hex()) == (b_hex, theta_hex, d_hex)
    assert cert.provenance == Provenance.sampled(2000, 5)
    est = estimate_theta(T, b, space, box, wit, 2000, 5)
    assert (est.accepted, est.skipped_dependent, est.skipped_noisy, est.unbounded_flag) == counts
    assert cert == certify_sampled(b, est)


def test_a_box_too_wide_to_sample_is_not_certifiable():
    # hi - lo overflows to inf: numpy cannot draw from the box, so no
    # estimate exists, at a fixed b or in the b search.
    box = Box.symmetric(2, 1e308)
    with pytest.raises(NotCertifiableError, match="sampling box width hi - lo = inf"):
        estimate_theta(_reflection_at_0_6(2), 0.5, SP, box, WIT, 100, 1)
    with pytest.raises(NotCertifiableError, match="sampling box width"):
        optimize_b(_reflection_at_0_6(2), SP, box, WIT, count=100, seed=1)
