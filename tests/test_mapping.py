"""Tests for the self-map library: evaluation, averaging, composition."""

import random

import numpy as np
import pytest

from enrichedfp import analyzer
from enrichedfp.analyzer import NotCertifiableError, map_slope
from enrichedfp.mapping import (
    Averaged,
    PiecewiseTwoSet,
    Reflection,
    ScalarAffine,
    SupNormRegion,
    averaged,
    default_piecewise,
    iterated,
)
from enrichedfp.space import (
    NonFiniteError,
    SpaceElement,
    cross2_space,
    standard_basis,
    witness_residual,
)


def el(*coords):
    return SpaceElement(tuple(float(c) for c in coords))


def rand_points(n, count, seed):
    rng = random.Random(seed)
    return [el(*(rng.uniform(-10, 10) for _ in range(n))) for _ in range(count)]


# --- apply ---------------------------------------------------------------------

def test_reflection_apply():
    T = Reflection(el(2, 0))
    assert T.apply(el(2, 0)).coords == (0.0, 0.0)
    # w/2 is the fixed point
    assert T.apply(el(1, 0)).coords == (1.0, 0.0)


def test_averaged_reflection_half_is_constant():
    T = Averaged(Reflection(el(2, 0)), 0.5)
    assert T.apply(el(5, 9)).coords == (1.0, 0.0)
    assert T.apply(el(-3, 2)).coords == (1.0, 0.0)


def test_apply_dimension_mismatch():
    # Only the leaves check a point's dimension: every compound node
    # evaluates a leaf first, so it raises the leaf's error and message.
    leaf = Reflection(el(2, 0))
    piecewise = default_piecewise(2)
    for T in (leaf, ScalarAffine(0.5, el(1, 0)), piecewise, averaged(leaf, 0.5),
              iterated(leaf, 2), iterated(piecewise, 2),
              averaged(iterated(averaged(leaf, 0.5), 3), 0.25)):
        with pytest.raises(ValueError, match="^dimension mismatch: point 3, map 2$"):
            T.apply(el(1, 2, 3))


def test_scalar_affine_apply():
    T = ScalarAffine(0.5, el(1, 0))
    assert T.apply(el(2, 4)).coords == (2.0, 2.0)


# --- averaged ------------------------------------------------------------------

def test_averaged_lambda_one_collapses_to_inner():
    T = Reflection(el(2, -1))
    T1 = averaged(T, 1.0)
    for x in rand_points(2, 200, seed=1):
        assert T1.apply(x).coords == T.apply(x).coords


def test_averaged_lambda_out_of_range():
    T = Reflection(el(2, 0))
    with pytest.raises(ValueError):
        averaged(T, 0.0)
    with pytest.raises(ValueError):
        averaged(T, 1.5)


def test_averaged_reflection_closed_form():
    # substituting Tx = w - x gives x -> -x/3 + 2w/3 at lambda = 2/3
    w = el(2, 0)
    T = averaged(Reflection(w), 2.0 / 3.0)
    for x in rand_points(2, 200, seed=2):
        got = T.apply(x)
        for g, xi, wi in zip(got.coords, x.coords, w.coords):
            want = -xi / 3.0 + 2.0 * wi / 3.0
            assert abs(g - want) <= 1e-12 * (1.0 + abs(want))


def test_averaged_is_pointwise_convex_combination():
    T = ScalarAffine(-0.7, el(0.3, 1.1))
    lam = 0.37
    A = averaged(T, lam)
    for x in rand_points(2, 200, seed=3):
        t = T.apply(x)
        expect = tuple((1.0 - lam) * xi + lam * ti for xi, ti in zip(x.coords, t.coords))
        assert A.apply(x).coords == expect


def test_averaged_scalar_affine_slope_and_offset():
    c, lam = -2.0, 0.25
    t = el(1.0, -0.5)
    A = averaged(ScalarAffine(c, t), lam)
    slope = (1.0 - lam) + lam * c
    for x in rand_points(2, 200, seed=4):
        got = A.apply(x)
        for g, xi, ti in zip(got.coords, x.coords, t.coords):
            want = slope * xi + lam * ti
            assert abs(g - want) <= 1e-12 * (1.0 + abs(want))


# --- iterated ------------------------------------------------------------------

def test_iterated_once_is_identity_wrapper():
    T = ScalarAffine(0.5, el(1, 0))
    I1 = iterated(T, 1)
    for x in rand_points(2, 100, seed=5):
        assert I1.apply(x).coords == T.apply(x).coords


def test_iterated_reflection_twice_is_identity():
    sp = cross2_space()
    w = standard_basis(2)
    T2 = iterated(Reflection(el(2, 0)), 2)
    for x in rand_points(2, 200, seed=6):
        assert witness_residual(sp, w, T2.apply(x), x) <= 1e-12 * 10.0


def test_iterated_rejects_nonpositive():
    with pytest.raises(ValueError):
        iterated(Reflection(el(2, 0)), 0)


def test_iterated_composes_multiplicatively():
    T = ScalarAffine(-0.8, el(0.2, 0.4))
    a, b = 2, 3
    nested = iterated(iterated(T, a), b)
    flat = iterated(T, a * b)
    for x in rand_points(2, 100, seed=7):
        assert nested.apply(x).coords == flat.apply(x).coords


# --- piecewise -----------------------------------------------------------------

def test_piecewise_regions_and_square():
    T = default_piecewise(2)
    u = el(1, 1)
    fallback = el(-1.0 / 3.0, -1.0 / 3.0)
    # u and -u/3 both lie outside A = {sup > 2}
    assert not T.region.contains(u)
    assert not T.region.contains(fallback)
    assert T.apply(el(5, 5)) == u          # in A
    assert T.apply(el(0, 0)) == fallback   # in B
    T2 = iterated(T, 2)
    for x in rand_points(2, 200, seed=8) + [el(5, 5), el(0, 0), el(2.0001, 0)]:
        assert T2.apply(x) == fallback     # the square is constant


@pytest.mark.parametrize("u", [
    (-0.0, 0.0, 1.0),
    (5e-324, -5e-324, 1.5e-323),
    (1e308, -1.7976931348623157e308, 3.0),
    (2.2250738585072014e-308, -1e-310, -0.0),
], ids=["signed-zero", "subnormal", "huge", "tiny"])
def test_piecewise_off_region_value_is_minus_u_over_3_bitwise(u):
    # The value off the region is built once with the map, and is -c / 3.0 of
    # each coordinate of u bit for bit: -0.0 becomes 0.0, a subnormal -0.0.
    T = PiecewiseTwoSet(SupNormRegion(2.0), SpaceElement(u))
    expected = SpaceElement(tuple(-c / 3.0 for c in u))
    x, y = el(0, 0, 0), el(-1.5, 2.0, 0.25)
    got = T.apply(x)
    assert [c.hex() for c in got.coords] == [c.hex() for c in expected.coords]
    assert [c.hex() for c in T.fallback()] == [c.hex() for c in expected.coords]
    assert T.apply(y) is got
    assert T.apply(el(0, 0, 2.5)) is T.u


def _branches(region, lo, hi=None):
    """The values the analysis of a two-region node keeps on the box [lo, hi],
    by default the point box of the row lo."""
    T = PiecewiseTwoSet(region, el(*([1.0] * len(lo))))
    lo = tuple(float(v) for v in lo)
    hi = lo if hi is None else tuple(float(v) for v in hi)
    return {t for _, t, _, _ in analyzer._pieces(T, lo, hi)}, T


def test_sup_norm_region_batch_matches_scalar():
    # On a point box the analysis takes the branch that apply takes.
    region = SupNormRegion(2.0)
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [2.1, 0.0], [-3.0, 1.0]])
    for row in pts:
        got, T = _branches(region, row)
        x = SpaceElement(tuple(row))
        assert got == {T.apply(x).coords}
        assert (got == {T.u.coords}) == region.contains(x)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("t", [0.0, 2.0, 1e308])
def test_sup_norm_region_batch_is_the_row_max_test(n, t):
    # The analysis of a two-region node on the point box of each row keeps
    # only the branch of the row max test: -0.0, the threshold itself and its
    # negative are not above it, and an infinite coordinate is. The analysis
    # widens a nan bound to [-inf, inf], so a row with NaN is the box with
    # those coordinates unbounded: it is inside when another coordinate is
    # above the threshold, and keeps both branches otherwise.
    rng = np.random.default_rng(100 * n + int(t > 1))
    pool = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, t, -t, np.nextafter(t, np.inf),
                     np.nextafter(t, -np.inf), 1.5, -2.5])
    xs = rng.uniform(-4.0, 4.0, size=(400, n))
    special = rng.random((400, n)) < 0.3
    xs[special] = rng.choice(pool, size=int(special.sum()))
    xs[:len(pool)] = pool[:, None]  # rows of one value each
    expected = np.max(np.abs(xs), axis=1) > t
    for row, inside in zip(xs, expected):
        nan = np.isnan(row)
        got, T = _branches(SupNormRegion(t), np.where(nan, -np.inf, row),
                           np.where(nan, np.inf, row))
        if not nan.any():
            assert got == {T.u.coords if inside else T.fallback()}
        elif np.max(np.abs(row[~nan]), initial=0.0) > t:
            assert got == {T.u.coords}
        else:
            assert got == {T.u.coords, T.fallback()}


# --- fixed point transfer -------------------------------------------------------

def test_fixed_points_transfer_to_averaged_map():
    sp = cross2_space()
    wit = standard_basis(2)
    cases = [
        (Reflection(el(2, 0)), el(1, 0)),                 # w/2
        (ScalarAffine(0.5, el(1, 0)), el(2, 0)),          # t/(1-c)
    ]
    for T, fp in cases:
        assert witness_residual(sp, wit, T.apply(fp), fp) <= 1e-12
        for lam in (0.1, 0.5, 1.0):
            A = averaged(T, lam)
            assert witness_residual(sp, wit, A.apply(fp), fp) <= 1e-12
    # conversely: a point moved by T is moved by the averaged map (lam > 0)
    T = Reflection(el(2, 0))
    for x in rand_points(2, 100, seed=9):
        if witness_residual(sp, wit, T.apply(x), x) > 1e-6:
            A = averaged(T, 0.3)
            assert witness_residual(sp, wit, A.apply(x), x) > 0.0


# --- affine reduction -----------------------------------------------------------
# The analyzer reduces a map tree to its affine pieces; an affine tree is one
# piece x -> c x + t on the whole space.

def test_affine_reduction_reflection():
    assert map_slope(Reflection(el(2, -3))) == (-1.0, None)


def test_affine_reduction_matches_pointwise_apply():
    trees = [
        ScalarAffine(0.3, el(1, 2)),
        averaged(Reflection(el(2, 0)), 2.0 / 3.0),
        averaged(ScalarAffine(-2.0, el(1, 1)), 0.25),
        iterated(ScalarAffine(0.5, el(1, 0)), 3),
        iterated(averaged(Reflection(el(4, 2)), 0.5), 2),
    ]
    for T in trees:
        c, box = map_slope(T)
        assert box is None
        t = T.apply(el(0, 0)).coords
        for x in rand_points(2, 50, seed=10):
            got = T.apply(x)
            for g, xi, ti in zip(got.coords, x.coords, t):
                want = c * xi + ti
                assert abs(g - want) <= 1e-9 * (1.0 + abs(want))


def test_affine_reduction_refuses_piecewise():
    for T in (default_piecewise(2), averaged(default_piecewise(2), 0.5)):
        with pytest.raises(NotCertifiableError, match="not one affine piece"):
            map_slope(T)
    # The square is no longer piecewise: it is the constant -u/3.
    assert map_slope(iterated(default_piecewise(2), 2)) == (0.0, None)


# --- coordinate types and overflow ----------------------------------------------

def _all_floats(x):
    return all(type(c) is float for c in x.coords)


@pytest.mark.parametrize("param", [np.float64, int, float], ids=lambda t: t.__name__)
def test_outputs_hold_python_floats_whatever_the_parameter_type(param):
    x = SpaceElement((np.float64(1.5), 2))
    y = SpaceElement([3, np.float64(-0.25)])
    shift = SpaceElement((param(1), param(-2)))
    outs = [
        ScalarAffine(param(2), shift).apply(x),
        ScalarAffine(param(1), shift).apply(y),
        Reflection(SpaceElement((param(4), param(0)))).apply(x),
        Averaged(ScalarAffine(param(3), shift), param(1)).apply(x),
        Averaged(Reflection(shift), np.float64(0.25)).combine(x, y),
        averaged(Reflection(shift), 0.5).combine(x, y),
        x + y,
        x - y,
        param(3) * x,
        x.__rmul__(param(2)),
    ]
    assert _all_floats(x) and _all_floats(y)
    assert all(_all_floats(o) for o in outs)


def test_overflow_raises_non_finite_in_the_producing_call():
    # Each call overflows a coordinate and must raise itself, as before the
    # element operators and maps built from list comprehensions.
    big = el(1e308, 0.0)
    cases = [
        lambda: ScalarAffine(10.0, el(0, 0)).apply(big),
        lambda: ScalarAffine(np.float64(10.0), el(0, 0)).apply(big),
        lambda: ScalarAffine(1, big).apply(big),
        lambda: Reflection(big).apply(el(-1e308, 0.0)),
        lambda: Averaged(ScalarAffine(10.0, el(0, 0)), np.float64(0.5)).apply(big),
        lambda: big + big,
        lambda: big - el(-1e308, 0.0),
        lambda: np.float64(10.0) * big,
        lambda: 10 * big,
    ]
    with np.errstate(over="ignore"):  # np.float64 arithmetic warns on overflow
        for make in cases:
            with pytest.raises(NonFiniteError):
                make()
