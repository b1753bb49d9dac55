"""Tests for the enrichment analyzer: map-tree analysis, certificates, refutation, best b."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enrichedfp import analyzer, space
from enrichedfp.analyzer import (
    NotCertifiableError,
    Provenance,
    certify,
    estimate_theta,
    map_slope,
    optimize_b,
    theta_scalar_affine,
)
from enrichedfp.mapping import (
    Averaged,
    Iterated,
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
    EPS,
    Box,
    NonFiniteError,
    SpaceElement,
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


# --- estimates ------------------------------------------------------------------

def test_estimate_theta_reflection_reaches_abs_b_minus_one():
    est = estimate_theta(Reflection(el(2, 0)), 0.5, SP, BOX, WIT, 20_000, seed=1)
    assert (est.b, est.theta_hat) == (0.5, 0.5)


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
    # Nothing is sampled: the count and the seed are not read.
    assert estimate_theta(T, 0.0, SP, BOX, WIT, 0, seed=-1).theta_hat == 1.0


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
    sp3 = gram_space(3)
    box3 = Box.symmetric(3)
    wit3 = standard_basis(3)
    T = ScalarAffine(0.3, el(0.7, -0.3, 1.1))
    for b in (0.0, 2.0):
        est = estimate_theta(T, b, sp3, box3, wit3, 50_000, seed=9)
        exact = theta_scalar_affine(0.3, b)
        assert 0.99 * exact <= est.theta_hat <= exact + 1e-12


def test_iterated_piecewise_square_is_constant_hence_theta_is_b():
    # the square of the two-region map is constant, so the enriched ratio
    # degenerates to exactly b for every admissible triple
    T2 = iterated(default_piecewise(2), 2)
    est = estimate_theta(T2, 1.0, SP, BOX, WIT, 50_000, seed=4)
    assert est.theta_hat == 1.0
    # and the optimal averaging needs no averaging at all: b* = 0, d = 0,
    # on the whole space
    b, cert0 = optimize_b(T2, SP, BOX)
    assert b == 0.0
    assert cert0.d == 0.0
    assert cert0.provenance == Provenance.closed_form()


def test_the_square_is_constant_on_a_box_near_the_float_range():
    box = Box.symmetric(2, 1e300)
    assert map_slope(iterated(default_piecewise(2), 2), box) == (0.0, None)
    assert analyzer._pieces(iterated(default_piecewise(2), 2), box.lo, box.hi) == [
        (0.0, (-1.0 / 3.0, -1.0 / 3.0), (-1.0 / 3.0, -1.0 / 3.0), (-1.0 / 3.0, -1.0 / 3.0))]


def test_default_piecewise_map_is_refuted():
    # u on {sup > 2}, -u/3 elsewhere: the box [-10, 10]^2 straddles the
    # boundary, so the map takes two constants and no x - y off the
    # diagonal is parallel to their difference 4u/3.
    T = default_piecewise(2)
    message = ("the map is not one affine piece on {}: it takes both x -> 0.0 x + (1.0, 1.0) "
               "and x -> 0.0 x + (-0.3333333333333333, -0.3333333333333333), so no "
               "(b, theta) makes it enriched")
    box_text = "the box lo=(-10.0, -10.0) hi=(10.0, 10.0)"
    with pytest.raises(NotCertifiableError) as exc_info:
        estimate_theta(T, 0.0, SP, BOX, WIT, 100_000, seed=5)
    assert str(exc_info.value) == message.format(box_text)
    with pytest.raises(NotCertifiableError) as exc_info:
        optimize_b(T, SP, BOX)
    assert str(exc_info.value) == message.format(box_text)
    with pytest.raises(NotCertifiableError) as exc_info:
        map_slope(T)
    assert str(exc_info.value) == message.format("the whole space")
    # Inside {sup <= 2} it is the constant -u/3, and that holds on the box only.
    assert map_slope(T, Box.symmetric(2, 2.0)) == (0.0, Box.symmetric(2, 2.0))


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


class CountingMap(SelfMap):
    """Delegates to an inner map: a map outside the tree vocabulary."""

    def __init__(self, inner: SelfMap):
        self.inner = inner

    @property
    def dimension(self) -> int:
        return self.inner.dimension

    def apply(self, x):
        return self.inner.apply(x)


def test_a_map_outside_the_tree_vocabulary_is_not_certifiable():
    # The analysis reads the tree node by node; it cannot see through a map
    # it does not know, so theta=estimate and b=auto both refuse it.
    T = CountingMap(Reflection(el(2, 0)))
    message = ("CountingMap is not a reflection, scalar-affine, two-region, averaged or "
               "iterated node, so it cannot be analysed")
    with pytest.raises(NotCertifiableError, match=f"^{message}$"):
        optimize_b(T, SP, BOX)
    with pytest.raises(NotCertifiableError, match=f"^{message}$"):
        estimate_theta(T, 0.5, SP, BOX, WIT, 100, 1)
    with pytest.raises(NotCertifiableError, match=f"^{message}$"):
        map_slope(averaged(T, 0.5))


# The averaged reflection is x -> -0.6 x + 0.8 w, so d(b) = |b - 0.6|/(b + 1)
# is least at b = 0.6.
def _reflection_at_0_6(dim):
    return averaged(Reflection(el(*([2.0] + [0.0] * (dim - 1)))), 0.8)


@pytest.mark.parametrize("dim", [2, 3])
def test_per_b_evaluation_equals_estimate_theta(dim):
    # One slope answers every b: estimate_theta is |b + c| with c from the
    # analysis, for a constant square, an averaged reflection and a plain
    # affine map.
    space = cross2_space() if dim == 2 else gram_space(3)
    box = Box.symmetric(dim, 4.0)
    rng = random.Random(dim)
    bs = [0.0, 0.25, 0.6, 1.0, 8.0, 1e-12, 3.3] + [rng.uniform(0.0, 10.0) for _ in range(8)]
    maps = ((iterated(default_piecewise(dim), 2), 0.0),
            (_reflection_at_0_6(dim), (1.0 - 0.8) + 0.8 * -1.0),
            (ScalarAffine(-2.5, el(*([1.0] * dim))), -2.5))
    for T, c in maps:
        assert map_slope(T, box) == (c, None)
        for b in bs:
            assert estimate_theta(T, b, space, box, None, 3_000, 7) == \
                analyzer.ThetaEstimate(b, abs(b + c))


@pytest.mark.parametrize("space,dim", [(cross2_space(), 2), (gram_space(3), 3)])
def test_optimize_b_certificate_is_the_estimate_at_its_b(space, dim):
    T = _reflection_at_0_6(dim)
    box, wit = Box.symmetric(dim), standard_basis(dim)
    b, cert = optimize_b(T, space, box)
    assert cert.provenance == Provenance.closed_form()
    est = estimate_theta(T, b, space, box, wit, 4_000, 11)
    assert cert == certify(b, est.theta_hat, Provenance.closed_form())
    assert abs(b - 0.6) < 1e-12 and cert.d < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_optimize_b_is_the_closed_form_in_the_sampled_slopes(dim):
    # x -> c x + t behind a map tree with a piecewise node: a two-region map
    # whose region {sup > -1} covers the space is the constant u, and
    # averaging it gives c = 1 - lam in [0, 1). Negative slopes come from a
    # plain affine map.
    space = cross2_space() if dim == 2 else gram_space(dim)
    box = Box.symmetric(dim, 3.0)
    rng = random.Random(100 + dim)
    for k in range(8):
        shift = el(*(rng.uniform(-2.0, 2.0) for _ in range(dim)))
        if k % 2:
            lam = rng.uniform(0.05, 1.0)
            T = averaged(PiecewiseTwoSet(SupNormRegion(-1.0), shift), lam)
            c = (1.0 - lam) + lam * 0.0
        else:
            c = rng.uniform(-3.0, 0.0)
            T = ScalarAffine(c, shift)
        b, cert = optimize_b(T, space, box)
        assert b == max(0.0, -c)
        assert cert == certify(b, abs(b + c), Provenance.closed_form())
        assert cert == certify(b, estimate_theta(T, b, space, box, None, 2_000, k).theta_hat,
                               Provenance.closed_form())
        assert cert.d == (max(c, 0.0) if b == 0.0 else 0.0)


def test_the_averaged_covering_two_region_map_has_slope_0_7():
    T = averaged(PiecewiseTwoSet(SupNormRegion(-1.0), el(0.5, -1.5)), 0.3)
    assert map_slope(T, BOX) == (1.0 - 0.3, None)
    assert map_slope(T, BOX)[0] == pytest.approx(0.7, abs=1e-16)


# --- a seeded sample of pairs, as a witness to the analysis ---------------------------

def _draw_pairs(box, count, seed):
    """``count`` pairs drawn uniformly from ``box``, one block of draws per pair."""
    pts = np.random.default_rng(seed).uniform(np.array(box.lo), np.array(box.hi),
                                              size=(count, 2, box.dimension))
    return [(el(*x), el(*y)) for x, y in zip(pts[:, 0, :], pts[:, 1, :])]


def _sampled_slopes(T, box, count, seed):
    """Each drawn pair's mu = <Tx - Ty, x - y>/<x - y, x - y>, evaluated with ``apply``."""
    out = []
    for x, y in _draw_pairs(box, count, seed):
        d, e = x - y, T.apply(x) - T.apply(y)
        out.append(sum(a * b for a, b in zip(e.coords, d.coords))
                   / sum(a * a for a in d.coords))
    return out


def test_optimize_b_sampled_route_matches_closed_form():
    # The slopes of sampled pairs all lie within rounding of the analysed
    # c = -1, so the sampled b = -(M + m)/2 agrees with the exact b* = 1.
    T = Reflection(el(2, 0))
    b, cert = optimize_b(T, SP, BOX)
    slopes = _sampled_slopes(T, BOX, 2_000, 3)
    M, m = max(slopes), min(slopes)
    assert abs(-(M + m) / 2.0 - b) <= 1e-12
    assert (b, cert.d) == (1.0, 0.0)
    assert cert.provenance.kind == "closed_form"


# The two-region maps whose sampled certificates were once pinned bit for
# bit (cross2 d = 0.93, gram:3 d = 0.33, gram:5 d = 0.32): u is small, so
# the box straddles the region boundary and the map takes both u and -u/3.
# Each is refused, by the b search and by an estimate at its formerly
# certified b, naming both pieces. The refusal is witnessed by evaluation:
# in a seeded draw of 2000 pairs, pair ``index`` is the first whose points
# take different pieces, so that Tx - Ty = +-4u/3 is not parallel to x - y.
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
            optimize_b(T, space, box)
        else:
            estimate_theta(T, float.fromhex(b), space, box, None, 2000, 5)
    assert str(exc_info.value) == (
        f"the map is not one affine piece on the box lo={box.lo} hi={box.hi}: it takes "
        f"both x -> 0.0 x + {u.coords} and x -> 0.0 x + {T.fallback()}, so no (b, theta) "
        "makes it enriched")
    pairs = _draw_pairs(box, 2000, 5)[: index + 1]
    areas = [two_norm(space, T.apply(x) - T.apply(y), x - y) for x, y in pairs]
    assert all(a == 0.0 for a in areas[:index]) and areas[index] > 0.0
    x, y = pairs[index]
    assert {T.apply(x).coords, T.apply(y).coords} == {u.coords, T.fallback()}


def test_a_sampled_slope_of_one_or_more_is_refused():
    # x -> 1.5 x + t: every sampled slope is 1.5 up to rounding, and so is
    # the analysed c, so d(b) = (b + 1.5)/(b + 1) >= 1 for every b and
    # theta = 1.5 >= b + 1 at b = 0.
    T = ScalarAffine(1.5, el(1, 0))
    assert all(abs(mu - 1.5) <= 1e-12 for mu in _sampled_slopes(T, BOX, 2_000, 1))
    with pytest.raises(NotCertifiableError, match=r"^theta=1\.5 is not below b\+1=1\.0$"):
        optimize_b(T, SP, BOX)
    est = estimate_theta(T, 0.0, SP, BOX, WIT, 2_000, 1)
    assert (est.b, est.theta_hat) == (0.0, 1.5)


def test_an_overflowing_slope_is_refused():
    # (-1e200)^3 overflows to -inf: b* = max(0, -c) would be inf, and at a
    # fixed b theta = |b + c| is inf.
    T = iterated(ScalarAffine(-1e200, el(1, 0)), 3)
    assert map_slope(T) == (-math.inf, None)
    with pytest.raises(NotCertifiableError, match=r"^the map's slope c=-inf is not finite$"):
        optimize_b(T, SP, BOX)
    theta = estimate_theta(T, 0.5, SP, BOX, WIT, 100, 1).theta_hat
    assert theta == math.inf
    with pytest.raises(NotCertifiableError, match=r"^theta=inf is not below b\+1=1\.5$"):
        certify(0.5, theta, Provenance.closed_form())


def test_the_piece_count_is_bounded():
    # Each step of the averaged two-region map can split every piece in two,
    # with distinct shifts that never merge.
    T = iterated(averaged(default_piecewise(2, threshold=0.5), 0.5), 8)
    with pytest.raises(NotCertifiableError, match="^the map takes more than 64 affine pieces$"):
        map_slope(T)
    # Inside {sup <= 0.5} every step takes the fallback branch, so the box
    # that the whole space overflows still gives one piece.
    box = Box.symmetric(2, 0.1)
    assert map_slope(T, box) == (0.5 ** 8, box)


# --- the analysis never calls a norm kernel ------------------------------------------

def _space(name):
    return cross2_space() if name == "cross2" else gram_space(int(name.split(":")[1]))


@pytest.mark.parametrize("name", ["cross2", "gram:3", "gram:4", "gram:5", "gram:6"])
def test_a_constant_square_sends_no_pair_to_the_kernel(name, monkeypatch):
    spc = _space(name)
    n = spc.dimension
    calls = []
    for kernel in ("two_norm", "two_norm_batch"):
        real = getattr(space, kernel)
        monkeypatch.setattr(space, kernel,
                            lambda *args, real=real: calls.append(args) or real(*args))
    T2 = iterated(default_piecewise(n), 2)
    est = estimate_theta(T2, 0.5, spc, Box.symmetric(n, 4.0), None, 2000, 1)
    assert est.theta_hat == 0.5
    assert calls == []


# --- properties of the analysis -----------------------------------------------------

def affine_reduction(T):
    """The slope c of an affine map tree, as the package once reduced it.

    The reference for the analysis's one-piece slope: a node's slope is
    composed from its inner slope, ``(1 - lam) + lam * c`` for an averaged
    node and ``c * c_k`` per step of an iterated one.
    """
    if isinstance(T, Reflection):
        return -1.0
    if isinstance(T, ScalarAffine):
        return T.scale
    if isinstance(T, Averaged):
        lam = T.lam
        return (1.0 - lam) + lam * affine_reduction(T.inner)
    assert isinstance(T, Iterated)
    c = affine_reduction(T.inner)
    ck = 1.0
    for _ in range(T.times):
        ck = c * ck
    return ck


_DIMS = st.sampled_from([2, 3, 5])
_COORD = st.floats(-4.0, 4.0, allow_subnormal=False)


def _trees(leaves):
    """Map trees over the given leaf strategy, with averaged and iterated nodes."""
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Averaged, inner, st.floats(0.05, 1.0)),
            st.builds(Iterated, inner, st.integers(1, 3)),
        ),
        max_leaves=3,
    )


def _affine_leaves(dim):
    point = st.tuples(*[_COORD] * dim).map(SpaceElement)
    return st.one_of(st.builds(Reflection, point),
                     st.builds(ScalarAffine, st.floats(-2.0, 2.0), point))


def _all_leaves(dim):
    point = st.tuples(*[_COORD] * dim).map(SpaceElement)
    region = st.builds(SupNormRegion, st.sampled_from([-1.0, 0.5, 2.0, 3.5]))
    return st.one_of(_affine_leaves(dim), st.builds(PiecewiseTwoSet, region, point))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=_DIMS)
def test_one_piece_slope_is_the_affine_reduction_bit_for_bit(data, dim):
    T = data.draw(_trees(_affine_leaves(dim)))
    c, box = map_slope(T, Box.symmetric(dim))
    assert box is None
    assert c.hex() == float(affine_reduction(T)).hex()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=_DIMS, half=st.sampled_from([0.5, 3.0, 10.0]))
def test_every_evaluation_lies_on_an_analysed_piece(data, dim, half):
    # The float value of T at a point of the box lies in the image box of
    # some analysed piece, and within rounding of that piece's c x + t.
    T = data.draw(_trees(_all_leaves(dim)))
    lo, hi = (-half,) * dim, (half,) * dim
    try:
        pieces = analyzer._pieces(T, lo, hi)
    except NotCertifiableError:  # more pieces than the analysis keeps
        assume(False)
    points = data.draw(st.lists(st.tuples(*[st.floats(-half, half)] * dim), min_size=1,
                                max_size=8))
    for x in points:
        try:
            y = T.apply(SpaceElement(x)).coords
        except NonFiniteError:
            continue

        def on(piece):
            c, t, p_lo, p_hi = piece
            return all(l <= v <= h and abs(v - (c * xi + ti))
                       <= 64 * EPS * (1.0 + abs(c * xi) + abs(ti) + abs(v))
                       for v, xi, ti, l, h in zip(y, x, t, p_lo, p_hi))

        assert any(on(p) for p in pieces), (x, y, pieces)
