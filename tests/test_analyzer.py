"""Tests for the enrichment analyzer: estimates, certificates, refutation, best b."""

import dataclasses
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp import analyzer
from enrichedfp.analyzer import (
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
    two_norm_batch,
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
    assert est.argmax_pair is not None
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
    cert = certify_sampled(est)
    assert cert.theta == pytest.approx(1.01)
    # and the optimal averaging needs no averaging at all: b* = 0, d = 0
    b, cert0 = optimize_b(T2, SP, BOX, count=30_000)
    assert b == 0.0
    assert cert0.d == 0.0


def _refuting_index(exc_info, T, space, box, count, seed):
    """The sample index the refusal names, checked against the draw itself.

    The named pair is not parallel: ``||Tx - Ty, x - y||`` is far above
    rounding. Every pair before it is parallel to the last bit.
    """
    m = re.search(r"not parallel to x - y at sample (\d+): \|\|Tx - Ty, x - y\|\| = (\S+) "
                  r"exceeds its rounding bound (\S+), so no \(b, theta\)", str(exc_info.value))
    assert m is not None, str(exc_info.value)
    i, area, bound = int(m.group(1)), float(m.group(2)), float(m.group(3))
    X, Y = analyzer._draw_pairs(box, count, seed)
    pairs = [(el(*x), el(*y)) for x, y in zip(X[: i + 1], Y[: i + 1])]
    areas = [two_norm(space, T.apply(x) - T.apply(y), x - y) for x, y in pairs]
    assert areas[i] == area and area > 1e6 * bound
    assert all(a == 0.0 for a in areas[:i])
    return i


def test_default_piecewise_map_is_refuted():
    # u on {sup > 2}, -u/3 elsewhere: a pair across the boundary has
    # Tx - Ty = 4u/3, which no x - y off the diagonal is parallel to.
    T = default_piecewise(2)
    with pytest.raises(NotCertifiableError) as exc_info:
        estimate_theta(T, 0.0, SP, BOX, WIT, 100_000, seed=5)
    assert _refuting_index(exc_info, T, SP, BOX, 100_000, 5) == 8


def test_certify_sampled_inflates_and_guards():
    T = Reflection(el(2, 0))
    est = estimate_theta(T, 0.5, SP, BOX, WIT, 20_000, seed=1)
    cert = certify_sampled(est)
    assert cert.theta >= est.theta_hat
    assert cert.theta <= 1.01 * est.theta_hat + 1e-15
    assert cert.provenance.kind == "sampled"
    # The default piecewise map is refuted before any estimate exists.
    with pytest.raises(NotCertifiableError, match="not parallel"):
        estimate_theta(default_piecewise(2), 0.0, SP, BOX, WIT, 100_000, seed=5)
    # No mu is trusted to 1e-16, below the rounding of any slope: empty.
    empty = estimate_theta(T, 0.5, SP, BOX, WIT, 2_000, 1, ratio_noise_tol=1e-16)
    assert (empty.accepted, empty.theta_hat, empty.argmax_pair) == (0, 0.0, None)
    with pytest.raises(NotCertifiableError, match="no trustworthy samples"):
        certify_sampled(empty)


# --- b optimisation ----------------------------------------------------------------

def test_optimize_b_reflection_hits_one_exactly():
    b, cert = optimize_b(Reflection(el(2, 0)), SP, BOX)
    assert b == 1.0            # max(0, -c) with c = -1
    assert cert.theta == 0.0
    assert cert.d == 0.0
    assert cert.provenance.kind == "closed_form"


def test_optimize_b_small_positive_slope_prefers_zero():
    b, cert = optimize_b(ScalarAffine(0.3, el(1, 0)), SP, BOX)
    assert b == 0.0
    assert cert.d == pytest.approx(0.3, abs=1e-12)


def test_optimize_b_strongly_negative_slope():
    b, cert = optimize_b(ScalarAffine(-3.0, el(1, 0)), SP, BOX)
    assert abs(b - 3.0) <= 1e-4
    assert cert.d <= 1e-9
    assert (b, cert.d) == (3.0, 0.0)  # max(0, -c) is exact


def test_optimize_b_dominates_grid():
    rng = random.Random(31)
    for _ in range(5):
        c = rng.uniform(-3.0, 0.99)
        T = ScalarAffine(c, el(1, 1))
        b_star, cert = optimize_b(T, SP, BOX)
        for g in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
            d_g = theta_scalar_affine(c, g) / (g + 1.0)
            assert cert.d <= d_g + 1e-12
        if c <= 0:
            assert cert.d <= 1e-9


def test_optimize_b_not_certifiable_for_identity():
    with pytest.raises(NotCertifiableError):
        optimize_b(ScalarAffine(1.0, el(0, 0)), SP, BOX)


def test_optimize_b_sampled_route_matches_closed_form():
    # The wrapper hides the map tree from the closed form.
    b, cert = optimize_b(CountingMap(Reflection(el(2, 0))), SP, BOX, count=20_000)
    assert abs(b - 1.0) <= 1e-12  # -(M + m)/2 with M and m within rounding of -1
    assert cert.provenance.kind == "sampled"
    assert cert.d <= 1e-9


# --- one sample, reduced to its slopes ------------------------------------------------

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


# A sampled optimum at an interior b: the averaged reflection is
# x -> -0.6 x + 0.8 w, so d(b) = |b - 0.6|/(b + 1) is least at b = 0.6. The
# wrapper hides the map tree from the closed form.
def _reflection_at_0_6(dim):
    return CountingMap(averaged(Reflection(el(*([2.0] + [0.0] * (dim - 1)))), 0.8))


def _slopes(T, box, count, seed):
    """Each pair's |x - y| and mu = <Tx - Ty, x - y>/<x - y, x - y>, pair by pair.

    The dot products sum the coordinates in order, as the batch does below
    eight coordinates.
    """
    X, Y = analyzer._draw_pairs(box, count, seed)
    out = []
    for x, y in zip(X, Y):
        d = x - y
        e = T.apply_batch(x[None])[0] - T.apply_batch(y[None])[0]
        dd = sum(float(a) * float(a) for a in d)
        ed = sum(float(a) * float(b) for a, b in zip(e, d))
        out.append((math.sqrt(dd), ed / dd))
    return X, Y, out


@pytest.mark.parametrize("dim", [2, 3])
def test_per_b_evaluation_equals_estimate_theta(dim, monkeypatch):
    # One sample answers every b with estimate_theta's estimate, and that
    # estimate is max(b + M, -(b + m)): the largest sampled |b + mu|.
    space = cross2_space() if dim == 2 else gram_space(3)
    box = Box.symmetric(dim, 4.0)
    rng = random.Random(dim)
    bs = [0.0, 0.25, 0.6, 1.0, 8.0, 1e-12, 3.3] + [rng.uniform(0.0, 10.0) for _ in range(8)]
    maps = (iterated(default_piecewise(dim), 2), _reflection_at_0_6(dim),
            CountingMap(ScalarAffine(-2.5, el(*([1.0] * dim)))))
    seen = []
    # (dependence floor, ratio_noise_tol): the defaults, then guards tight
    # enough that dependent and noisy pairs and empty estimates occur. The
    # box scale is 4.
    for floor, tol in ((1e-8, 1e-12), (0.25, 4e-15)):
        monkeypatch.setattr(analyzer, "_EPS_DEP", floor)
        for T in maps:
            sample = analyzer._ThetaSample(T, space, box, 3_000, 7, tol)
            X, Y, slopes = _slopes(T, box, 3_000, 7)
            live = [i for i, (dmag, _) in enumerate(slopes) if dmag > floor * 4.0]
            for b in bs:
                got = sample.estimate(b)
                assert got == estimate_theta(T, b, space, box, WIT, 3_000, 7, tol)
                assert got.skipped_dependent == 3_000 - len(live)
                assert got.skipped_noisy + got.accepted == len(live)
                # theta_hat is the |b + mu| of its argmax pair. With no noisy
                # pair it is the largest over the live pairs, and the argmax
                # is the lowest-index pair with the largest or the smallest
                # mu, whichever gives it.
                seen.append(got)
                if got.accepted == 0:
                    assert (got.theta_hat, got.argmax_pair) == (0.0, None)
                    continue
                ratios = {i: abs(b + slopes[i][1]) for i in live}
                i = next(i for i in live if (el(*X[i]), el(*Y[i])) == got.argmax_pair)
                assert ratios[i] == got.theta_hat <= max(ratios.values())
                if got.skipped_noisy == 0:
                    assert got.theta_hat == max(ratios.values())
                    mus = [slopes[j][1] for j in live]
                    M, m = max(mus), min(mus)
                    extreme = M if b + M >= -(b + m) else m
                    assert i == min(j for j in live if slopes[j][1] == extreme)
    assert any(e.skipped_dependent for e in seen) and any(e.skipped_noisy for e in seen)
    assert any(e.accepted == 0 for e in seen)


def test_optimize_b_maps_its_sample_once(monkeypatch):
    T = _reflection_at_0_6(2)
    norms = []
    real = analyzer.two_norm_batch
    monkeypatch.setattr(analyzer, "two_norm_batch",
                        lambda sp, v, z: norms.append((v, z)) or real(sp, v, z))
    b, cert = optimize_b(T, SP, BOX, count=5_000, seed=2)
    X, Y = analyzer._draw_pairs(BOX, 5_000, 2)
    assert len(T.batches) == 2
    assert np.array_equal(T.batches[0], X) and np.array_equal(T.batches[1], Y)
    # One norm call: ||Tx - Ty, x - y|| on every pair.
    assert len(norms) == 1
    assert np.array_equal(norms[0][1], X - Y)
    assert abs(b - 0.6) < 1e-12 and cert.d < 1e-12


@pytest.mark.parametrize("space,dim", [(cross2_space(), 2), (gram_space(3), 3)])
def test_optimize_b_certificate_is_the_estimate_at_its_b(space, dim):
    T = _reflection_at_0_6(dim)
    box, wit = Box.symmetric(dim), standard_basis(dim)
    b, cert = optimize_b(T, space, box, count=4_000, seed=11)
    assert cert.provenance == Provenance.sampled(4_000, 11)
    est = estimate_theta(T, b, space, box, wit, 4_000, 11)
    assert cert == certify_sampled(est)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_optimize_b_is_the_closed_form_in_the_sampled_slopes(dim):
    # x -> c x + t behind a map tree with a piecewise node: a two-region map
    # whose region {sup > -1} covers the box is the constant u there, and
    # averaging it gives c = 1 - lam in [0, 1). Negative slopes come from a
    # plain affine map that the wrapper hides from the closed form.
    space = cross2_space() if dim == 2 else gram_space(dim)
    box = Box.symmetric(dim, 3.0)
    rng = random.Random(100 + dim)
    exact = 0
    for k in range(8):
        shift = el(*(rng.uniform(-2.0, 2.0) for _ in range(dim)))
        if k % 2:
            lam = rng.uniform(0.05, 1.0)
            T = averaged(PiecewiseTwoSet(SupNormRegion(-1.0), shift), lam)
            c = 1.0 - lam
        else:
            c = rng.uniform(-3.0, 0.0)
            T = CountingMap(ScalarAffine(c, shift))
        assert analyzer.affine_reduction(T) is None
        seed = rng.randrange(1 << 20)
        b, cert = optimize_b(T, space, box, count=2_000, seed=seed)
        est = estimate_theta(T, b, space, box, None, 2_000, seed)
        assert cert == certify_sampled(est)
        # The slopes are c up to rounding, so b and d are those of the closed form.
        assert abs(b - max(0.0, -c)) <= 1e-12 and cert.d <= abs(c) * 1.01 + 1e-12
        if est.skipped_noisy or est.skipped_dependent:
            continue  # M and m below are over every pair, not the accepted ones
        exact += 1
        _, _, slopes = _slopes(T, box, 2_000, seed)
        M, m = max(mu for _, mu in slopes), min(mu for _, mu in slopes)
        assert b == max(0.0, -(M + m) / 2.0)
        theta_hat = max(b + M, -(b + m))
        assert cert.theta == min(1.01 * theta_hat, 0.5 * (theta_hat + b + 1.0))
        if b > 0.0:
            assert theta_hat / (b + 1.0) == pytest.approx((M - m) / (2.0 - M - m),
                                                          rel=1e-9, abs=1e-15)
    assert exact >= 6


# The two-region maps whose sampled certificates were once pinned bit for
# bit (cross2 d = 0.93, gram:3 d = 0.33, gram:5 d = 0.32): u is small, so
# pairs straddle the region boundary with Tx - Ty = 4u/3. Each is refuted,
# by the b search and by an estimate at its formerly certified b, and the
# refusal names the first pair that is not parallel.
_ONCE_PINNED = [
    ("cross2:2", "auto", 2), ("cross2:2", "0x1.804f66869491ap+2", 2),
    ("gram:3", "auto", 0), ("gram:3", "0x1.06012abf78741p-3", 0),
    ("gram:5", "auto", 2), ("gram:5", "0x1.2dbdb66cea187p-7", 2),
]


@pytest.mark.parametrize("name, b, index", _ONCE_PINNED)
def test_once_pinned_piecewise_maps_are_refuted(name, b, index):
    n = int(name.split(":")[1])
    space = cross2_space() if name.startswith("cross2") else gram_space(n)
    u = SpaceElement(tuple(0.05 * (1.0 + 0.25 * i) * (-1) ** i for i in range(n)))
    T = PiecewiseTwoSet(SupNormRegion(3.5), u)
    box = Box.symmetric(n, 4.0)
    with pytest.raises(NotCertifiableError) as exc_info:
        if b == "auto":
            optimize_b(T, space, box, count=2000, seed=5)
        else:
            estimate_theta(T, float.fromhex(b), space, box, None, 2000, 5)
    assert _refuting_index(exc_info, T, space, box, 2000, 5) == index


def test_a_box_too_wide_to_sample_is_not_certifiable():
    # hi - lo overflows to inf: numpy cannot draw from the box, so no
    # estimate exists, at a fixed b or for b=auto.
    box = Box.symmetric(2, 1e308)
    with pytest.raises(NotCertifiableError, match="sampling box width hi - lo = inf"):
        estimate_theta(_reflection_at_0_6(2), 0.5, SP, box, WIT, 100, 1)
    with pytest.raises(NotCertifiableError, match="sampling box width"):
        optimize_b(_reflection_at_0_6(2), SP, box, count=100, seed=1)


def test_a_sample_too_large_to_draw_is_not_certifiable():
    # One coordinate past the limit is refused before anything is drawn, at
    # a fixed b or for b=auto; the default count fits on gram:8.
    space, box, T = gram_space(8), Box.symmetric(8, 4.0), default_piecewise(8)
    assert 100_000 * 8 <= analyzer._DRAW_LIMIT
    count = analyzer._DRAW_LIMIT // 8 + 1
    with pytest.raises(NotCertifiableError,
                       match=f"sampling count {count} in dimension 8 draws {8 * count} "):
        estimate_theta(T, 0.5, space, box, None, count, 1)
    with pytest.raises(NotCertifiableError, match="sampling count 10{20} in dimension 8"):
        optimize_b(T, space, box, count=10**20, seed=1)


def test_the_dependence_floor_scales_with_the_box_and_never_drops_below_one():
    # A pair is dependent when |x - y| <= 1e-8 * max(1, |lo_i|, |hi_i|).
    T = CountingMap(ScalarAffine(0.5, el(1, 0)))
    near_1e9 = Box((1e9, 1e9), (1e9 + 100, 1e9 + 100))
    X, Y = analyzer._draw_pairs(near_1e9, 1_000, 1)
    dependent = int(np.count_nonzero(np.linalg.norm(X - Y, axis=1) <= 1e-8 * (1e9 + 100)))
    assert 0 < dependent < 1_000
    assert estimate_theta(T, 0.0, SP, near_1e9, WIT, 1_000, 1).skipped_dependent == dependent
    # Width 1 near 1e9: every |x - y| is below 10. In [-1e-9, 1e-9]^2 the
    # floor of 1 applies, so every |x - y| is below 1e-8: the kernel's
    # products underflow at tiny scales, and such a box certifies nothing.
    for box in (Box((1e9, 1e9), (1e9 + 1, 1e9 + 1)), Box.symmetric(2, 1e-9)):
        est = estimate_theta(T, 0.0, SP, box, WIT, 1_000, 1)
        assert (est.skipped_dependent, est.accepted) == (1_000, 0)
        with pytest.raises(NotCertifiableError, match="no trustworthy samples at b=0.0"):
            certify_sampled(est)


def test_a_sampled_slope_of_one_or_more_is_refused():
    # x -> 1.5 x + t behind a wrapper that hides it from the closed form:
    # d(b) = (b + 1.5)/(b + 1) >= 1 for every b, and theta_hat >= b + 1 at b = 0.
    T = CountingMap(ScalarAffine(1.5, el(1, 0)))
    with pytest.raises(NotCertifiableError,
                       match=r"^sampled slope M=1\.5\d* is not below 1, so d\(b\) >= 1"):
        optimize_b(T, SP, BOX, count=2_000, seed=1)
    est = estimate_theta(T, 0.0, SP, BOX, WIT, 2_000, 1)
    assert est.b == 0.0 and abs(est.theta_hat - 1.5) < 1e-12
    with pytest.raises(NotCertifiableError,
                       match=r"^sampled theta_hat=1\.5\d* is not below b\+1=1\.0$"):
        certify_sampled(est)


# --- the kernel runs only where Tx - Ty is nonzero ----------------------------------

def _reference_sample(T, space, box, count, seed, ratio_noise_tol=1e-12):
    """The sample as built with the kernel on every live pair.

    Returns the refusal message, or ``(accepted, n_dep, n_noisy, M, m,
    i_max, i_min)`` with None for the last four when nothing is accepted.
    """
    X, Y = analyzer._draw_pairs(box, count, seed)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        TX, TY = T.apply_batch(X), T.apply_batch(Y)
        D, E = X - Y, TX - TY
        dd = np.add.reduce(D * D, axis=1)
        dmag = np.sqrt(dd)
        live = dmag > 1e-8 * max(1.0, *map(abs, box.lo), *map(abs, box.hi))
        noise = analyzer._NOISE * analyzer.EPS * np.linalg.norm(
            np.abs(X) + np.abs(Y) + np.abs(TX) + np.abs(TY), axis=1)
        area = two_norm_batch(space, E, D)
        bound = analyzer._REFUTE_MARGIN * noise * dmag
        refuting = np.flatnonzero(live & (area > bound))
        if refuting.size:
            i = int(refuting[0])
            return (f"Tx - Ty is not parallel to x - y at sample {i}: "
                    f"||Tx - Ty, x - y|| = {float(area[i])!r} exceeds its rounding "
                    f"bound {float(bound[i])!r}, so no (b, theta) makes the map enriched")
        mu = np.add.reduce(E * D, axis=1) / dd
        err = noise / dmag + 2.0 * space.dimension * analyzer.EPS * np.abs(mu)
    accepted = live & (err <= ratio_noise_tol)
    n_dep = count - int(np.count_nonzero(live))
    n_noisy = int(np.count_nonzero(live & ~accepted))
    if not accepted.any():
        return (0, n_dep, n_noisy, None, None, None, None)
    i_max = int(np.argmax(np.where(accepted, mu, -np.inf)))
    i_min = int(np.argmin(np.where(accepted, mu, np.inf)))
    return (int(np.count_nonzero(accepted)), n_dep, n_noisy,
            float(mu[i_max]), float(mu[i_min]), i_max, i_min)


def _space(name):
    return cross2_space() if name == "cross2" else gram_space(int(name.split(":")[1]))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["cross2", "gram:3", "gram:4", "gram:5", "gram:6"]),
       kind=st.sampled_from(["piecewise", "square", "affine"]),
       threshold=st.sampled_from([0.5, 2.0, 3.5]),
       scale=st.sampled_from([0.0, -0.6, 0.5, 1.0, 3.0, -7.0]),
       half=st.sampled_from([0.5, 2.5, 4.0, 10.0, 1e306, 4e307]),
       count=st.integers(1, 300), seed=st.integers(0, 2**20))
def test_screened_sample_equals_the_kernel_on_every_pair(name, kind, threshold, scale,
                                                         half, count, seed):
    # Two-region maps mix pairs with Tx - Ty = 0 and 4u/3; their square is
    # constant; an affine map is parallel everywhere, zero at scale 0, and
    # overflows to inf and NaN in a box near the float range.
    space = _space(name)
    n = space.dimension
    box = Box.symmetric(n, half)
    if kind == "affine":
        T = ScalarAffine(scale, el(*(0.25 * (i + 1) for i in range(n))))
    else:
        T = default_piecewise(n, threshold)
        if kind == "square":
            T = iterated(T, 2)
    expected = _reference_sample(T, space, box, count, seed)
    try:
        s = analyzer._ThetaSample(T, space, box, count, seed)
    except NotCertifiableError as exc:
        assert str(exc) == expected
        return
    got = (s.accepted, s.n_dep, s.n_noisy) + (
        (s.M, s.m, s.i_max, s.i_min) if s.accepted else (None,) * 4)
    assert got == expected


@pytest.mark.parametrize("name", ["cross2", "gram:3", "gram:4", "gram:5", "gram:6"])
def test_a_constant_square_sends_no_pair_to_the_kernel(name, monkeypatch):
    space = _space(name)
    n = space.dimension
    rows = []
    real = analyzer.two_norm_batch
    monkeypatch.setattr(analyzer, "two_norm_batch",
                        lambda sp, v, z: rows.append(len(v)) or real(sp, v, z))
    T2 = iterated(default_piecewise(n), 2)
    est = estimate_theta(T2, 0.5, space, Box.symmetric(n, 4.0), None, 2000, 1)
    assert est.accepted == 2000 and est.theta_hat == 0.5
    assert sum(rows) == 0
