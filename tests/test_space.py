"""Tests for the 2-normed space layer: norms, witnesses, balls, axiom checks."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import enrichedfp.space as space_module
from enrichedfp.solver import TwoNormBall
from test_solver import cycle_cases
from enrichedfp.space import (
    EPS,
    Box,
    NonFiniteError,
    SpaceElement,
    WitnessSet,
    basis_screen,
    check_axioms,
    cross2_norm,
    cross2_space,
    gram_norm,
    gram_space,
    seminorm,
    standard_basis,
    two_norm,
    two_norm_batch,
    two_norm_screen,
    witness_gap_within,
    witness_norm_rows,
    witness_norms,
    witness_residual,
)


def el(*coords):
    return SpaceElement(tuple(float(c) for c in coords))


coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


def vec(n):
    return st.tuples(*([coord] * n)).map(lambda t: SpaceElement(t))


# --- concrete values ----------------------------------------------------------

def test_cross2_unit_basis():
    assert cross2_norm(el(1, 0), el(0, 1)) == 1.0


def test_cross2_dependent_pair_is_zero():
    assert cross2_norm(el(2, 3), el(4, 6)) == 0.0


def test_cross2_hand_evaluated():
    # |3*2 - 1*1| evaluated by hand
    assert cross2_norm(el(3, 1), el(1, 2)) == 5.0


def test_non_finite_coordinates_raise_a_value_error_subclass():
    with pytest.raises(NonFiniteError, match="non-finite"):
        el(math.inf, 0.0)
    with pytest.raises(ValueError):
        el(1.0, math.nan)
    with pytest.raises(NonFiniteError):
        el(1e308, 0.0) - el(-1e308, 0.0)


def test_cross2_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        cross2_norm(el(1, 0, 0), el(0, 1, 0))
    with pytest.raises(ValueError):
        cross2_norm(el(1, 0), el(0, 1, 0))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gram_orthonormal_pair(n):
    e1 = el(*([1.0] + [0.0] * (n - 1)))
    e2 = el(*([0.0, 1.0] + [0.0] * (n - 2)))
    assert gram_norm(e1, e2) == 1.0


def test_gram_same_vector_is_zero():
    x = el(1.3, -2.4, 0.7)
    assert gram_norm(x, x) == 0.0
    assert witness_norms(gram_space(3), standard_basis(3), el(0.0, -3.0, 0.0))[1] == 0.0


def test_gram_hand_evaluated():
    # sqrt(|x|^2 |y|^2 - <x,y>^2) = sqrt(2*2 - 1) by hand
    expected = math.sqrt(2.0 * 2.0 - 1.0 * 1.0)
    assert gram_norm(el(1, 1, 0), el(0, 1, 1)) == expected


def test_two_norm_dispatch():
    assert two_norm(cross2_space(), el(1, 0), el(0, 1)) == 1.0
    assert two_norm(cross2_space(), el(-2, 0), el(0, 1)) == 2.0
    x = el(0.3, 1.1, -4.0)
    assert two_norm(gram_space(3), x, x) == 0.0
    with pytest.raises(ValueError):
        two_norm(cross2_space(), el(1, 0, 0), el(0, 1, 0))


def test_space_invariants():
    with pytest.raises(ValueError):
        cross2_space().__class__(cross2_space().kind, 3)
    with pytest.raises(ValueError):
        gram_space(1)


def test_seminorm_values():
    sp = cross2_space()
    assert seminorm(sp, el(0, 1), el(3, 7)) == 3.0      # |3*1 - 7*0|
    assert seminorm(sp, el(1, 0), el(5, -4)) == 4.0     # |5*0 - (-4)*1|
    x = el(2.5, -1.5)
    assert seminorm(sp, x, x) == 0.0


# --- witness sets -------------------------------------------------------------

def test_witness_residual_identical_points():
    sp = cross2_space()
    w = standard_basis(2)
    assert witness_residual(sp, w, el(1, 2), el(1, 2)) == 0.0


def test_witness_residual_hand_values():
    sp = cross2_space()
    w = standard_basis(2)
    # x - y = (3, 0): residual against (1,0) is 0, against (0,1) is 3
    assert witness_residual(sp, w, el(3, 1), el(0, 1)) == 3.0
    assert witness_residual(sp, w, el(1, 1), el(0, 0)) == 1.0


def test_witness_set_must_span():
    with pytest.raises(ValueError):
        WitnessSet((el(1, 0), el(2, 0)))
    with pytest.raises(ValueError):
        WitnessSet(())
    WitnessSet((el(1, 0), el(1, 1)))  # spanning, fine


# Correctly rounded areas in the subnormal range lie on an absolute grid of
# spacing ulp(0), so the relative bounds below also get two grid steps of
# absolute slack; each @example is an input that fails without it.
_AREA_GRID = 2 * math.ulp(0.0)


@given(vec(2), vec(2), vec(2))
@example(el(5e-324, 0), el(0, 1), el(0, 0.5))  # 1.5 * 5e-324 rounds to 1e-323
@settings(max_examples=200)
def test_seminorm_is_a_seminorm(z, x, y):
    sp = cross2_space()
    sub = seminorm(sp, z, x + y)
    scale = (math.hypot(*x.coords) + math.hypot(*y.coords)) * math.hypot(*z.coords)
    assert sub <= seminorm(sp, z, x) + seminorm(sp, z, y) + 1e-9 * scale + _AREA_GRID


@given(vec(2), vec(2), st.floats(min_value=-8, max_value=8, allow_nan=False))
@example(el(0, 2), el(0.00390625, 0), 2.2250738585e-313)
@example(el(0, 6), el(1.5, 0), 5e-324)  # a * x rounds to (1e-323, 0)
@example(el(0, 6), el(5.960464477539063e-08, 0), 2.225073858507e-311)
@example(el(5e-324, 0), el(0, 1.5), 6.0)  # 1.5 * 5e-324 rounds to 1e-323, times 6
@settings(max_examples=200)
def test_seminorm_absolute_homogeneity(z, x, a):
    sp = cross2_space()
    ceiling = abs(a) * math.hypot(*x.coords) * math.hypot(*z.coords)
    deviation = abs(seminorm(sp, z, a * x) - abs(a) * seminorm(sp, z, x))
    # a * x itself rounds to the subnormal grid, and |z| scales that error;
    # the area of (z, x) rounds to that grid too, and |a| scales its error.
    grid = _AREA_GRID + (math.hypot(*z.coords) + abs(a)) * math.ulp(0.0)
    assert deviation <= 1e-9 * ceiling + grid


@given(vec(2))
@settings(max_examples=100)
def test_witness_residual_zero_iff_equal(x):
    sp = cross2_space()
    w = standard_basis(2)
    assert witness_residual(sp, w, x, x) == 0.0
    shifted = SpaceElement((x.coords[0] + 1.0, x.coords[1]))
    assert witness_residual(sp, w, x, shifted) > 0.0


# --- boxes and balls -----------------------------------------------------------

def test_box_contains():
    sp = cross2_space()
    box = Box((-1, 0), (1, 2))
    assert box.lo == (-1.0, 0.0) and box.dimension == 2
    assert box.contains(sp, el(1, 0)) and box.contains(sp, el(0, 2))
    assert not box.contains(sp, el(1.5, 1))
    assert Box.symmetric(3, 0.5) == Box((-0.5,) * 3, (0.5,) * 3)


def test_box_contains_rejects_a_point_of_another_dimension():
    # A plane point against a 3-d box must not be checked on two coordinates.
    box = Box((-5, -5, 7), (5, 5, 8))
    with pytest.raises(ValueError):
        box.contains(cross2_space(), el(0, 0))


@pytest.mark.parametrize("lo, hi, message", [
    ((0.0, -math.inf), (1.0, 1.0), "invalid box bounds"),
    ((0.0, 0.0), (1.0, math.inf), "invalid box bounds"),
    ((math.nan, 0.0), (1.0, 1.0), "invalid box bounds"),
    ((0.0, 0.0), (1.0, math.nan), "invalid box bounds"),
    ((2.0, 0.0), (1.0, 1.0), "invalid box bounds"),
    ((0.0, 0.0), (1.0,), "matching nonempty"),
    ((), (), "matching nonempty"),
])
def test_box_rejects_invalid_bounds(lo, hi, message):
    with pytest.raises(ValueError, match=message):
        Box(lo, hi)


def test_closed_ball_membership():
    sp = cross2_space()
    u, c = el(0, 1), el(0, 0)
    assert TwoNormBall(u, c, 1.0).contains(sp, el(1, 5))      # ||(1,5),(0,1)|| = 1
    assert not TwoNormBall(u, c, 1.0).contains(sp, el(2, 0))  # residual 2
    assert TwoNormBall(u, c, 0.5).contains(sp, c)             # center always inside


def test_open_ball_is_strict():
    sp = cross2_space()
    u, c = el(0, 1), el(0, 0)
    assert not TwoNormBall(u, c, 1.0, closed=False).contains(sp, el(1, 5))  # boundary excluded
    assert TwoNormBall(u, c, 1.0001, closed=False).contains(sp, el(1, 5))
    with pytest.raises(ValueError):
        TwoNormBall(u, c, 0.0, closed=False)
    with pytest.raises(ValueError):
        TwoNormBall(u, c, -1.0)


def test_ball_refuses_a_direction_and_center_of_different_dimensions():
    for u, c in ((el(0, 1), el(0, 0, 0)), (el(0, 0, 1), el(0, 0))):
        with pytest.raises(ValueError, match=r"differ in dimension: (2 vs 3|3 vs 2)"):
            TwoNormBall(u, c, 1.0)
    assert TwoNormBall(el(0, 0, 1), el(0, 0, 0), 1.0).dimension == 3


_BALL_SPACES = [cross2_space(), gram_space(3), gram_space(8)]


def _outcome(f):
    """``f()``, or the type of the ValueError (NonFiniteError included) it raises."""
    try:
        return f()
    except ValueError as exc:
        return type(exc)


def _exact_membership(space, u, center, x, radius, closed):
    """The definition: the exact kernel's distance against the radius."""
    dist = two_norm(space, x - center, u)
    return dist <= radius if closed else dist < radius


@st.composite
def ball_cases(draw):
    """(space, u, center, x, radius, closed): coordinates of any binade from
    2**-600 to past the 2**400 screen guard, the kernels' overflow (a NaN
    distance) and an overflowing x - center; u drawn, zero, or parallel or
    nearly parallel to x - center; a radius at the distance, its neighbours,
    a 2**-30-ish margin from it, subnormal, near 1e308, or a draw. The
    mantissas come from a seeded generator, as few-bit values would make
    the plain-float sums exact and hide their rounding."""
    space = draw(st.sampled_from(_BALL_SPACES))
    n = space.dimension
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def point():
        exponent = draw(st.sampled_from([0, -30, 20, 45, -600, 399, 400, 500, 1000, 1022]))
        coords = [math.ldexp(rng.uniform(-2.0, 2.0), exponent) for _ in range(n)]
        if draw(st.booleans()):  # some coordinates zero or huge
            coords = [rng.choice([0.0, -0.0, 1e308, -1e308, 2.0**400]) if rng.random() < 0.3
                      else a for a in coords]
        return tuple(coords)

    center, x = point(), point()
    v = [a - b for a, b in zip(x, center)]
    kind = draw(st.sampled_from(["drawn", "zero", "parallel"]))
    u = point()
    if kind == "zero":
        u = (0.0,) * n
    elif kind == "parallel" and all(map(math.isfinite, v)):
        scale = draw(st.sampled_from([1.0, -3.0, 1e-3, 2.0**-300, 2.0**300]))
        tilt = draw(st.sampled_from([0.0, 2.0**-45, 2.0**-20, 1e-8]))
        parallel = tuple(a * scale * (1.0 + tilt * rng.uniform(-1.0, 1.0)) for a in v)
        if all(map(math.isfinite, parallel)):
            u = parallel
    u, center, x = SpaceElement(u), SpaceElement(center), SpaceElement(x)
    near = []
    dist = _outcome(lambda: two_norm(space, x - center, u))
    if isinstance(dist, float) and math.isfinite(dist):
        near = [_ulps(dist, k) for k in (-2, -1, 0, 1, 2)]
        near += [dist * (1.0 + f) for f in (-2.0**-29, -2.0**-31, 2.0**-31, 2.0**-29)]
    radius = draw(st.one_of(
        st.sampled_from([r for r in near if r > 0.0] or [1.0]),
        st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 2.0**-450,
                         math.nextafter(2.0**-450, 0.0), 2.0**450, 1e308,
                         math.nextafter(1e308, 0.0), 1.7976931348623157e308]),
        st.floats(min_value=1e-6, max_value=1e4),
    ))
    return space, u, center, x, radius, draw(st.booleans())


@given(ball_cases())
@example((cross2_space(), el(0, 1), el(0, 0), el(1, 5), 1.0, True))  # on the sphere
@example((cross2_space(), el(0, 1), el(0, 0), el(1, 5), 1.0, False))
@example((gram_space(3), el(0, 0, 0), el(1, 2, 3), el(4, 5, 6), 5e-324, False))  # u = 0
@example((gram_space(3), el(1, 1 + 2.0**-40, 1), el(0, 0, 0), el(1e10, 1e10, 1e10),
          9.0, True))  # nearly parallel: R cancels
@example((gram_space(8), el(*[1.0] * 8), el(*[0.0] * 8), el(*[2.0**400] * 8), 1.0, True))
@example((cross2_space(), el(0, 1), el(-1e308, 0), el(1e308, 0), 1.0, True))  # x - c overflows
@example((gram_space(3), el(0, 1, 0), el(0, 0, 0), el(2e150, 0, 1), 1e308, True))  # NaN
# x_i^2 underflows while |u|^2 is near 2**760: outside, past the |.|^2 < 2**100 guard.
@example((cross2_space(), el(4.615519231456158e+114, 4.581432719491532e+114), el(0, 0),
          el(-2.0710402641085454e-163, 1.9763712461693054e-163), 1.2406874083041786e-48,
          True))
@settings(max_examples=500, deadline=None)
def test_ball_membership_is_the_exact_distance_against_the_radius(case):
    space, u, center, x, radius, closed = case
    ball = TwoNormBall(u, center, radius, closed)
    assert _outcome(lambda: ball.contains(space, x)) == _outcome(
        lambda: _exact_membership(space, u, center, x, radius, closed))


# --- norm axioms as properties -------------------------------------------------

SPACES = [cross2_space(), gram_space(2), gram_space(3), gram_space(4)]


def _pair_strategy(n):
    return st.tuples(vec(n), vec(n))


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.kind.value}{s.dimension}")
def test_symmetry_is_exact(space):
    rng = random.Random(4)
    n = space.dimension
    for _ in range(500):
        x = el(*(rng.uniform(-10, 10) for _ in range(n)))
        y = el(*(rng.uniform(-10, 10) for _ in range(n)))
        assert two_norm(space, x, y) == two_norm(space, y, x)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.kind.value}{s.dimension}")
def test_homogeneity_within_relative_ceiling(space):
    rng = random.Random(5)
    n = space.dimension
    for _ in range(500):
        x = el(*(rng.uniform(-10, 10) for _ in range(n)))
        y = el(*(rng.uniform(-10, 10) for _ in range(n)))
        a = rng.uniform(-10, 10)
        ax = a * x
        ceiling = abs(a) * math.hypot(*x.coords) * math.hypot(*y.coords)
        assert abs(two_norm(space, ax, y) - abs(a) * two_norm(space, x, y)) <= 1e-9 * ceiling


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.kind.value}{s.dimension}")
def test_triangle_inequality(space):
    rng = random.Random(6)
    n = space.dimension
    for _ in range(500):
        x = el(*(rng.uniform(-10, 10) for _ in range(n)))
        y = el(*(rng.uniform(-10, 10) for _ in range(n)))
        z = el(*(rng.uniform(-10, 10) for _ in range(n)))
        lhs = two_norm(space, x + y, z)
        rhs = two_norm(space, x, z) + two_norm(space, y, z)
        scale = (math.hypot(*x.coords) + math.hypot(*y.coords)) * math.hypot(*z.coords)
        assert lhs <= rhs + 1e-9 * scale


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.kind.value}{s.dimension}")
def test_dependent_pair_vanishes(space):
    rng = random.Random(7)
    n = space.dimension
    for _ in range(500):
        x = el(*(rng.uniform(-10, 10) for _ in range(n)))
        a = rng.uniform(-10, 10)
        ceiling = abs(a) * math.hypot(*x.coords) ** 2
        assert two_norm(space, x, a * x) <= 1e-9 * ceiling + 1e-300


def test_gram_matches_cross2_within_4_ulps_on_sampled_pairs():
    rng = random.Random(12345)
    for _ in range(20_000):
        x = el(rng.uniform(-10, 10), rng.uniform(-10, 10))
        y = el(rng.uniform(-10, 10), rng.uniform(-10, 10))
        c = cross2_norm(x, y)
        g = gram_norm(x, y)
        if c == 0.0 and g == 0.0:
            continue
        assert abs(c - g) <= 4.0 * math.ulp(max(c, g))


def test_gram_matches_cross2_near_dependence_absolutely():
    # At areas near the double-double noise floor the ulp measure blows up;
    # agreement is then absolute, at the level EPS * |x| |y|.
    rng = random.Random(99)
    for _ in range(5_000):
        x = el(rng.uniform(-10, 10), rng.uniform(-10, 10))
        t = rng.uniform(-3, 3)
        eps = rng.uniform(-1e-9, 1e-9)
        y = el(t * x.coords[0] + eps, t * x.coords[1] - eps)
        c = cross2_norm(x, y)
        g = gram_norm(x, y)
        mag = math.hypot(*x.coords) * math.hypot(*y.coords)
        assert abs(c - g) <= 8.0 * EPS * (1.0 + mag)


def test_batch_norms_match_scalar_bitwise():
    rng = np.random.default_rng(11)
    for space in SPACES:
        n = space.dimension
        X = rng.uniform(-10, 10, size=(200, n))
        Y = rng.uniform(-10, 10, size=(200, n))
        batch = two_norm_batch(space, X, Y)
        for i in range(200):
            scalar = two_norm(space, SpaceElement(tuple(X[i])), SpaceElement(tuple(Y[i])))
            assert batch[i] == scalar
        # Three ways: the rows of Y as a witness set, against the batch kernel
        # on X[i] repeated and the scalar kernel per witness.
        k = n + 2
        wset = WitnessSet(tuple(SpaceElement(tuple(r)) for r in Y[:k]))
        for i in range(20):
            v = SpaceElement(tuple(X[i]))
            rows = two_norm_batch(space, np.tile(X[i], (k, 1)), Y[:k])
            scalars = tuple(two_norm(space, v, z) for z in wset.witnesses)
            assert witness_norms(space, wset, v) == tuple(rows) == scalars
    # Past |v| ~ 1.2e150 the Dekker split of |v|^2 overflows; every path gives
    # NaN, so an overflowed area never reads as zero.
    space, v, z = gram_space(2), el(2e150, 5e149), el(1, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        batch = two_norm_batch(space, np.array([v.coords]), np.array([z.coords]))
    paths = (float(batch[0]), two_norm(space, v, z), witness_norms(space, standard_basis(2), v)[0])
    assert [a.hex() for a in paths] == [math.nan.hex()] * 3


@pytest.mark.parametrize("space, kernel", [(cross2_space(), "det2_dd"),
                                           (gram_space(3), "_gram_radicand")],
                         ids=["cross2", "gram:3"])
def test_scalar_and_batch_norms_run_one_kernel_body(space, kernel, monkeypatch):
    # The batch is the scalar kernel run on arrays: two_norm and
    # two_norm_batch both reach the same det2_dd (cross2) or _gram_radicand
    # (gram), and nothing else computes the area.
    calls = []
    for name in ("det2_dd", "_gram_radicand"):
        body = getattr(space_module, name)
        monkeypatch.setattr(space_module, name,
                            lambda *a, _name=name, _body=body: calls.append(_name) or _body(*a))
    n = space.dimension
    v, z = el(*range(1, n + 1)), el(*([0.5] * n))
    scalar = two_norm(space, v, z)
    assert calls == [kernel]
    calls.clear()
    batch = two_norm_batch(space, np.array([[v.coords]] * 2), np.array([[z.coords] * 3]))
    assert calls == [kernel]
    assert batch.shape == (2, 3)
    assert {float(a).hex() for a in batch.ravel()} == {scalar.hex()}


def test_scalar_and_batch_basis_norms_run_one_closed_form_body(monkeypatch):
    # On the gram standard basis both witness kernels reach the same
    # _gram_basis_radicands: once per witness_norms call or exact pair test,
    # and once per slice of witness_norm_rows.
    calls = []
    body = space_module._gram_basis_radicands
    monkeypatch.setattr(space_module, "_gram_basis_radicands",
                        lambda coords: calls.append(coords) or body(coords))
    space, wset = gram_space(3), standard_basis(3)
    v = el(1.0, 2.0, 3.0)
    norms = witness_norms(space, wset, v)
    assert len(calls) == 1
    calls.clear()
    # A limit equal to the max norm is one the float screen cannot settle.
    assert witness_gap_within(space, wset, v.coords, (0.0,) * 3, max(norms))
    assert len(calls) == 1
    for count, entries in ((24, 1), (4097, 2)):
        calls.clear()
        rows = witness_norm_rows(space, wset, np.array([v.coords] * count))
        assert len(calls) == entries
        assert rows.tolist() == [list(norms)] * count


# --- axiom checker -------------------------------------------------------------

def test_check_axioms_passes_cross2():
    report = check_axioms(cross2_space(), 10_000, seed=42, tolerance=1e-9)
    assert report.passed
    assert report.violation_count == 0
    assert report.samples_tested == 10_000


def test_check_axioms_passes_gram4():
    report = check_axioms(gram_space(4), 10_000, seed=7, tolerance=1e-9)
    assert report.passed


def test_check_axioms_deterministic():
    a = check_axioms(gram_space(3), 2_000, seed=3, tolerance=1e-9)
    b = check_axioms(gram_space(3), 2_000, seed=3, tolerance=1e-9)
    assert a == b


def test_check_axioms_flags_broken_evaluator():
    # u1*v2 + u2*v1 without absolute value: bilinear, so the triangle holds
    # with equality, but sign flips break homogeneity and nonnegativity.
    def broken(X, Y):
        return X[:, 0] * Y[:, 1] + X[:, 1] * Y[:, 0]

    report = check_axioms(cross2_space(), 10_000, seed=1, tolerance=1e-9, norm_fn=broken)
    assert not report.passed
    axioms = {v.axiom for v in report.violations}
    assert "N3" in axioms
    assert report.violation_count > 0
    assert len(report.violations) <= 32


def _poisoned_cross2(X, Y):
    # The true norm with every 7th value NaN and every 11th negated.
    r = two_norm_batch(cross2_space(), X, Y)
    r[::7] = np.nan
    r[::11] *= -1
    return r


@pytest.mark.parametrize("norm_fn, count, digest", [
    (lambda X, Y: X[:, 0] * Y[:, 1] + X[:, 1] * Y[:, 0], 15113,
     "06d762ca19313b3bb1fb0cdd1b9440807c7ac83fd869153873dceb27ae7d23c7"),
    (_poisoned_cross2, 1165,
     "46f5ff4bd5b4c27a7a406497808471042dfbbb694e9b347ca3c4492a202b87a1"),
], ids=["bilinear", "nan-and-sign-flips"])
def test_check_axioms_report_is_pinned(norm_fn, count, digest):
    # The count and each recorded (axiom, sample_index, deviation), bit for
    # bit, as the checker reported them when it still stored witness vectors.
    report = check_axioms(cross2_space(), 10_000, seed=1, tolerance=1e-9, norm_fn=norm_fn)
    assert report.violation_count == count
    assert len(report.violations) == 32
    text = "".join(f"{v.axiom} {v.sample_index} {v.deviation.hex()}\n"
                   for v in report.violations)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_check_axioms_rejects_bad_count():
    with pytest.raises(ValueError):
        check_axioms(cross2_space(), 0, seed=0, tolerance=1e-9)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1.0])
def test_check_axioms_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        check_axioms(cross2_space(), 10, seed=0, tolerance=tolerance)


# --- the witness kernel ----------------------------------------------------------

KERNEL_SPACES = [cross2_space()] + [gram_space(n) for n in range(2, 9)]


@st.composite
def kernel_cases(draw):
    """(space, witness set, v): basis or random spanning sets, and v drawn
    generic, nearly dependent on a witness, or with signed-zero coordinates."""
    space = draw(st.sampled_from(KERNEL_SPACES))
    n = space.dimension
    if draw(st.booleans()):
        wset = standard_basis(n)
    else:
        rows = draw(st.lists(st.tuples(*([coord] * n)), min_size=n, max_size=n + 2))
        mat = np.array(rows, dtype=float)
        if np.linalg.matrix_rank(mat) < n:
            wset = standard_basis(n)
        else:
            wset = WitnessSet(tuple(SpaceElement(r) for r in rows))
    kind = draw(st.sampled_from(["generic", "dependent", "zeros"]))
    scale = draw(st.sampled_from([1e-12, 1e-6, 1.0, 1e3]))
    if kind == "generic":
        coords = tuple(scale * c for c in draw(st.tuples(*([coord] * n))))
    elif kind == "dependent":
        z = draw(st.sampled_from(wset.witnesses))
        alpha = draw(coord)
        tiny = draw(st.tuples(*([coord] * n)))
        coords = tuple(alpha * a + 1e-12 * t for a, t in zip(z.coords, tiny))
    else:
        coords = tuple(
            draw(st.sampled_from([0.0, -0.0, scale * draw(coord)])) for _ in range(n)
        )
    return space, wset, SpaceElement(coords)


@given(kernel_cases())
@example((gram_space(3), standard_basis(3), el(0.0, -0.0, 0.0)))
@example((gram_space(3), standard_basis(3), el(-0.0, -0.0, -0.0)))
@example((gram_space(3), standard_basis(3), el(-0.0, 2.0, 0.0)))
@example((gram_space(3), standard_basis(3), el(0.0, -3.0, 0.0)))
@example((gram_space(2), standard_basis(2), el(2e150, 5e149)))  # |v|^2 split overflows
@settings(max_examples=400, deadline=None)
def test_witness_norms_match_scalar_bitwise(case):
    space, wset, v = case
    expected = tuple(two_norm(space, v, z) for z in wset.witnesses)
    got = witness_norms(space, wset, v)
    # float.hex matches NaN with NaN and keeps -0.0 apart from 0.0.
    assert [a.hex() for a in got] == [b.hex() for b in expected]


def test_witness_norms_checks_dimensions():
    with pytest.raises(ValueError):
        witness_norms(gram_space(3), standard_basis(2), el(1, 2))
    with pytest.raises(ValueError):
        witness_norms(gram_space(3), standard_basis(3), el(1, 2))
    with pytest.raises(ValueError):
        witness_gap_within(gram_space(3), standard_basis(3), (1.0, 2.0), (0.0, 0.0), 1.0)
    for count in (1, 24):
        with pytest.raises(ValueError):
            witness_norm_rows(gram_space(3), standard_basis(2), np.array([[1.0, 2.0]] * count))
        # Rows of the wrong width, against the closed form and the general kernel.
        for wset in (standard_basis(3), WitnessSet((el(0, 1, 0), el(1, 0, 0), el(0, 0, 1)))):
            with pytest.raises(ValueError):
                witness_norm_rows(gram_space(3), wset, np.array([[1.0, 2.0]] * count))


@st.composite
def limit_cases(draw):
    """A kernel case plus a limit: one of its norms, a signed zero or a draw."""
    space, wset, v = draw(kernel_cases())
    norms = witness_norms(space, wset, v)
    limit = draw(st.one_of(
        st.sampled_from(norms),
        st.sampled_from([0.0, -0.0, math.inf]),
        st.floats(min_value=0.0, max_value=1e4),
    ))
    return space, wset, v, limit


@given(limit_cases())
@example((gram_space(2), standard_basis(2), el(2e150, 5e149), 1.0))  # every norm NaN
@example((gram_space(2), standard_basis(2), el(2e150, 5e149), math.inf))
@example((gram_space(3), standard_basis(3), el(0.0, -0.0, 0.0), 0.0))
@example((gram_space(3), standard_basis(3), el(0.0, -0.0, 0.0), -0.0))
@example((cross2_space(), standard_basis(2), el(3.0, 0.0), 0.0))  # norms 0 then 3
@example((cross2_space(), standard_basis(2), el(3.0, 0.0), 3.0))
# Norms sqrt(5), sqrt(10), sqrt(13): the limit is a running max that a later
# witness exceeds, so stopping at a max equal to the limit would be wrong.
@example((gram_space(3), standard_basis(3), el(3.0, 2.0, 1.0), math.sqrt(10.0)))
@settings(max_examples=400, deadline=None)
def test_the_pair_test_against_zero_decides_like_the_full_max(case):
    # v - 0.0 is v bit for bit, so the pair test sees v's own norms.
    space, wset, v, limit = case
    full = max(witness_norms(space, wset, v))
    zero = (0.0,) * space.dimension
    assert witness_gap_within(space, wset, v.coords, zero, limit) == (full <= limit)


# --- the float screen on the standard basis ---------------------------------------

_SCREEN_SPACES = [cross2_space()] + [gram_space(n) for n in range(2, 9)]
_SUM_GUARD = 2.0**800  # the screen needs sum(v_i * v_i) below this
_GUARD = 2.0**400  # so every |v_i| is below this
_BELOW_GUARD = math.nextafter(_GUARD, 0.0)


def _sum_guard_edges(n):
    """Two coordinate tuples of dimension n, every entry below 2**400, whose
    squares sum to exactly 2**800 and to the float just below it."""
    head = (2.0**399,) * min(n - 1, 3) + (0.0,) * max(n - 4, 0)
    total = lambda c: sum([a * a for a in head + (c,)])  # noqa: E731
    at = math.sqrt(_SUM_GUARD - total(0.0))
    while total(at) < _SUM_GUARD:
        at = math.nextafter(at, math.inf)
    while total(at) > _SUM_GUARD:
        at = math.nextafter(at, 0.0)
    below = math.nextafter(at, 0.0)
    while total(below) >= _SUM_GUARD:
        below = math.nextafter(below, 0.0)
    assert total(at) == _SUM_GUARD and total(below) == math.nextafter(_SUM_GUARD, 0.0)
    assert max(head + (at,)) < _GUARD
    return head + (at,), head + (below,)


def _ulps(x, k):
    """``x`` moved ``k`` ulps, up for positive ``k``."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


@st.composite
def screen_cases(draw):
    """(space, coordinates, limit) for the screened pair test: coordinates of
    any binade from subnormal to past 2**400, whose squares sum to anything
    from zero to past the 2**800 guard, one in five exactly at or just below
    it, and a limit a few ulps or a 2**-30-ish margin from the max norm, at
    the 2**+-450 edges of the screened range, a signed zero, inf or a draw."""
    space = draw(st.sampled_from(_SCREEN_SPACES))
    n = space.dimension
    exponent = draw(st.sampled_from([-1074, -1060, -540, -460, -30, 0, 20, 399, 400]))
    unit = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, _GUARD, -_BELOW_GUARD,
                               _BELOW_GUARD])
    pick = draw(st.integers(0, 9))
    if pick < 2:
        coords = _sum_guard_edges(n)[pick]
    else:
        coords = tuple(draw(st.one_of(unit.map(lambda a: math.ldexp(a, exponent)), special))
                       for _ in range(n))
    full = max(witness_norms(space, standard_basis(n), SpaceElement(coords)))
    near = []
    if math.isfinite(full):
        near = [_ulps(full, k) for k in range(-4, 5)]
        near += [full * (1.0 + f) for f in (-2.0**-29, -2.0**-31, 2.0**-31, 2.0**-29)]
    limit = draw(st.one_of(
        st.sampled_from(near or [1.0]),
        st.sampled_from([0.0, -0.0, math.inf, 2.0**-450, math.nextafter(2.0**-450, 0.0),
                         2.0**450, math.nextafter(2.0**450, math.inf)]),
        st.floats(min_value=0.0, max_value=1e4),
    ))
    return space, coords, limit


@given(screen_cases())
@example((cross2_space(), (3.0, 4.0), math.nextafter(4.0, 0.0)))  # max norm 4, one ulp off
@example((cross2_space(), (3.0, 4.0), 4.0))
@example((gram_space(3), (3.0, 2.0, 1.0), math.nextafter(math.sqrt(13.0), 0.0)))
@example((gram_space(3), (3.0, 2.0, 1.0), math.nextafter(math.sqrt(13.0), math.inf)))
@example((gram_space(2), (_GUARD, 1.0), 1.0))  # squares sum to 2**800: the exact kernel
@example((gram_space(2), (_BELOW_GUARD, 1.0), 1.0))  # sum just below 2**800: screened
@example((gram_space(8), (-_GUARD,) + (1.0,) * 7, 1.0))  # sum at the guard
@example((cross2_space(), (_GUARD, _GUARD), 1.0))  # sum past the guard
@example((gram_space(4), (2.0**399,) * 4, 1.0))  # sum exactly 2**800: the exact kernel
@example((gram_space(4), _sum_guard_edges(4)[1], 1.0))  # the float below: screened
@example((cross2_space(), _sum_guard_edges(2)[0], 1.0))
@example((cross2_space(), _sum_guard_edges(2)[1], 1.0))
@example((gram_space(3), _sum_guard_edges(3)[1], 2.0**450))
@example((gram_space(2), (2e150, 5e149), 1.0))  # every norm NaN, never screened
@example((gram_space(3), (5e-324, -5e-324, 5e-324), 0.0))  # subnormal coordinates
@example((gram_space(3), (5e-324, -5e-324, 5e-324), 2.0**-450))
@example((gram_space(4), (2.0**-440, 2.0**-440, 0.0, -0.0), 2.0**-450))
@example((gram_space(4), (2.0**-440, 2.0**-440, 0.0, -0.0),
          math.nextafter(2.0**-450, 0.0)))
@example((gram_space(2), (2.0**399, 2.0**399), 2.0**450))
@example((gram_space(2), (2.0**399, 2.0**399), math.nextafter(2.0**450, math.inf)))
@example((gram_space(5), (0.0, -0.0, 0.0, 0.0, -0.0), 0.0))  # the zero vector
@example((gram_space(5), (0.0, -0.0, 0.0, 0.0, -0.0), -0.0))
@example((cross2_space(), (0.0, 0.0), math.inf))
@example((gram_space(3), (1.0, 2.0, 3.0), math.inf))
@example((gram_space(3), (1.0, 2.0, 3.0), -0.0))
@settings(max_examples=500, deadline=None)
def test_the_screened_pair_test_against_zero_decides_like_the_full_max(case):
    # coords - 0.0 is coords bit for bit, so the screen sees their squares.
    space, coords, limit = case
    wset = standard_basis(space.dimension)
    full = max(witness_norms(space, wset, SpaceElement(coords)))
    zero = (0.0,) * space.dimension
    assert witness_gap_within(space, wset, coords, zero, limit) == (full <= limit)


@given(screen_cases())
@example((gram_space(4), (3.0, -0.0, 5e-324, 1.0), 3.0))  # the smallest square is -0.0's
@example((cross2_space(), (2.0**46, 1.0), 2.0**46))  # as large as the scaling leaves it
@settings(max_examples=300, deadline=None)
def test_basis_screen_is_the_ball_screen_at_the_smallest_square(case):
    # On the standard basis max_j ||v, e_j||^2 = |v|^2 - min_j v_j^2, which
    # is two_norm_screen's R at u = e_j, j the index of the smallest square:
    # both entry points hand the one body the same a and r, so basis_screen
    # answers as two_norm_screen does: outside, inside or undecided.
    space, coords, limit = case
    n = space.dimension
    # Below two_norm_screen's own guard on |v|^2: a case past it is scaled
    # by a power of two, exactly, to coordinates below 2**47.
    shift = max(0, math.frexp(max(map(abs, coords)))[1] - 47)
    coords = tuple(math.ldexp(a, -shift) for a in coords)
    limit = math.ldexp(limit, -shift)
    sq = [a * a for a in coords]
    assert sum(sq) < 2.0**100
    j = sq.index(min(sq))
    e_j = tuple(1.0 if i == j else 0.0 for i in range(n))
    full = max(witness_norms(space, standard_basis(n), SpaceElement(coords)))
    # The case's limit, and limits clear of the max norm on either side.
    for lim in (limit, full * 0.5, full * (1.0 - 2.0**-20), full * (1.0 + 2.0**-20), full * 2.0):
        ball = two_norm_screen(space, coords, e_j, 1.0, lim)
        assert basis_screen(space, standard_basis(n), sq, lim) is ball


def test_a_clear_cut_step_on_the_basis_runs_no_exact_kernel(monkeypatch):
    # The screen settles a step far past the limit, or far inside it, without
    # entering the witness kernel; a step near the limit, and any set that is
    # not the standard basis, still run the exact kernel.
    entered = []
    kernel = space_module._witness_norm_iter
    monkeypatch.setattr(space_module, "_witness_norm_iter",
                        lambda *a: entered.append(a[1]) or kernel(*a))
    permuted = WitnessSet((el(0, 1), el(1, 0)))
    for space in _SCREEN_SPACES:
        n = space.dimension
        wset = standard_basis(n)
        step, zero = tuple(1e-3 * (i + 1) for i in range(n)), (0.0,) * n
        assert not witness_gap_within(space, wset, step, zero, 1e-11)
        assert witness_gap_within(space, wset, step, zero, 1.0)
        assert entered == []
        full = max(witness_norms(space, wset, SpaceElement(step)))
        entered.clear()
        for limit in (full, math.nextafter(full, 0.0)):
            assert witness_gap_within(space, wset, step, zero, limit) == (full <= limit)
        assert entered == [wset, wset]
        entered.clear()
    for space in (cross2_space(), gram_space(2)):
        # The first norm is past the limit: the exact kernel stops there.
        first = two_norm(space, el(1e-3, 2e-3), permuted.witnesses[0])
        assert first > 1e-11
        assert not witness_gap_within(space, permuted, (1e-3, 2e-3), (0.0, 0.0), 1e-11)
        assert entered == [permuted]
        entered.clear()


def _row_vectors(space, count, rng):
    """``count`` vectors: generic draws with every few rows a zero vector, a
    signed-zero mix, a nearly dependent pair member or one whose norms are
    NaN (past the Dekker split's overflow)."""
    n = space.dimension
    huge = 1e301 if space.kind.value == "cross2" else 2e150
    out = []
    for i in range(count):
        kind = i % 7
        if kind == 0:
            coords = [0.0] * n
        elif kind == 1:
            coords = [-0.0 if j % 2 else 0.0 for j in range(n)]
            coords[i % n] = rng.uniform(-10, 10)
        elif kind == 2:
            coords = [1e-12 * rng.uniform(-1, 1) for _ in range(n)]
            coords[0] += 3.0
        elif kind == 3 and i % 2:
            coords = [huge] + [0.5 * huge] * (n - 1)
        else:
            coords = [rng.uniform(-10, 10) for _ in range(n)]
        out.append(SpaceElement(tuple(coords)))
    return out


def _skewed_set(n):
    """n + 1 witnesses off the standard basis: a skewed basis and (1, -1, ...)."""
    witnesses = [SpaceElement(tuple(float(i == j) + 0.5 * (j == (i + 1) % n)
                                    for j in range(n))) for i in range(n)]
    return WitnessSet(tuple(witnesses) + (el(*([1.0, -1.0] * n)[:n]),))


# --- the pair test -------------------------------------------------------------------

@st.composite
def gap_cases(draw):
    """(space, wset, a, b, limit) for witness_gap_within, on the standard
    basis or a skewed set: either a screened case whose difference ``a - b``
    is exactly its coordinates (a minus zero, 2v minus v, or zero minus -v),
    so the sum-``2**800`` edges and the near limits reach the pair test
    intact, or two iterates of an overflowing Picard orbit, whose norms are
    NaN or whose differences overflow, against one of the cycle test's eps."""
    if draw(st.integers(0, 2)) < 2:
        space, coords, limit = draw(screen_cases())
        zero = tuple(0.0 for _ in coords)
        a, b = draw(st.sampled_from([
            (coords, zero),
            (tuple(2.0 * c for c in coords), coords),
            (zero, tuple(-c for c in coords)),
        ]))
    else:
        space, _, xs, _, limit = draw(
            cycle_cases(kinds=("overflowing", "overflowing differences")))
        a = draw(st.sampled_from(xs)).coords
        b = draw(st.sampled_from(xs)).coords
    n = space.dimension
    wset = _skewed_set(n) if draw(st.booleans()) else standard_basis(n)
    return space, wset, a, b, limit


@given(gap_cases())
@example((cross2_space(), standard_basis(2), (1e308, 0.0), (-1e308, 0.0), 1e-10))  # overflows
@example((cross2_space(), _skewed_set(2), (1e308, 0.0), (-1e308, 0.0), math.inf))
# Norms sqrt(5), sqrt(10), sqrt(13): the limit is a running max that a later
# witness exceeds.
@example((gram_space(3), standard_basis(3), (3.0, 2.0, 1.0), (0.0, 0.0, 0.0), math.sqrt(10.0)))
@example((gram_space(2), standard_basis(2), (2e150, 5e149), (0.0, 0.0), 1.0))  # every norm NaN
@example((gram_space(4), standard_basis(4), (2.0**399,) * 4, (0.0,) * 4, 1.0))  # sum 2**800
@example((gram_space(4), standard_basis(4), _sum_guard_edges(4)[1], (0.0,) * 4, 1.0))
@example((gram_space(8), _skewed_set(8), _sum_guard_edges(8)[1], (0.0,) * 8, 1.0))
@settings(max_examples=500, deadline=None)
def test_the_pair_test_decides_as_the_witness_residual_against_the_limit(case):
    space, wset, a, b, limit = case
    assert _outcome(lambda: witness_gap_within(space, wset, a, b, limit)) == _outcome(
        lambda: witness_residual(space, wset, SpaceElement(a), SpaceElement(b)) <= limit)


@pytest.mark.parametrize("space", [cross2_space(), gram_space(3), gram_space(8)],
                         ids=lambda s: f"{s.kind.value}:{s.dimension}")
@pytest.mark.parametrize("count, batch_calls", [(1, 0), (23, 1), (24, 1), (4097, 2)])
def test_witness_norm_rows_match_witness_norms_bitwise(space, count, batch_calls,
                                                       monkeypatch):
    rng = random.Random(count)
    wset = _skewed_set(space.dimension)
    vectors = _row_vectors(space, count, rng)
    calls = []
    batch = space_module.two_norm_batch

    def counting_batch(space, xs, ys):
        calls.append(len(xs))
        return batch(space, xs, ys)

    monkeypatch.setattr(space_module, "two_norm_batch", counting_batch)
    rows = witness_norm_rows(space, wset, np.array([v.coords for v in vectors]))
    # Below 24 kernel calls (rows times witnesses on these sets) the scalar
    # path runs; from 24 on one batch call per slice of at most 4096 vectors.
    assert len(calls) == batch_calls
    assert all(c <= 4096 * len(wset.witnesses) for c in calls)
    assert len(rows) == count
    for v, row in zip(vectors, rows):
        assert [a.hex() for a in row] == [b.hex() for b in witness_norms(space, wset, v)]
    if count >= 4:
        assert any(math.isnan(a) for row in rows for a in row)


@pytest.mark.parametrize("space, basis, edge", [
    (cross2_space(), False, 8), (gram_space(3), False, 6), (gram_space(8), False, 3),
    (cross2_space(), True, 12), (gram_space(3), True, 24),
], ids=["cross2:2-skewed", "gram:3-skewed", "gram:8-skewed", "cross2:2-basis", "gram:3-basis"])
def test_witness_norm_rows_batch_from_24_kernel_calls(space, basis, edge, monkeypatch):
    # A row costs one closed-form body on the gram standard basis and one
    # two_norm per witness on every other set, cross2's basis included, so the
    # batch takes over at ceil(24 / cost) rows: 8, 6 and 3 on the skewed sets
    # of 3, 4 and 9 witnesses, 12 on cross2's basis and 24 on gram's.
    n = space.dimension
    wset = standard_basis(n) if basis else _skewed_set(n)
    for count, batch_calls in ((edge - 1, 0), (edge, 1)):
        vectors = _row_vectors(space, count, random.Random(count))
        scalar, batch = [], []
        norms = space_module.witness_norms
        pair_step = space_module.two_norm_batch
        body = space_module._gram_basis_radicands
        monkeypatch.setattr(space_module, "witness_norms",
                            lambda *a: scalar.append(a) or norms(*a))
        monkeypatch.setattr(space_module, "two_norm_batch",
                            lambda *a: batch.append(a) or pair_step(*a))
        monkeypatch.setattr(space_module, "_gram_basis_radicands", lambda coords: (
            isinstance(coords, np.ndarray) and batch.append(coords)) or body(coords))
        rows = witness_norm_rows(space, wset, np.array([v.coords for v in vectors]))
        monkeypatch.undo()
        assert (len(scalar), len(batch)) == ((0, 1) if batch_calls else (count, 0))
        for v, row in zip(vectors, rows, strict=True):
            assert [a.hex() for a in row] == [b.hex() for b in witness_norms(space, wset, v)]


@pytest.mark.parametrize("space", [cross2_space(), gram_space(3), gram_space(8)],
                         ids=lambda s: f"{s.kind.value}:{s.dimension}")
def test_two_norm_batch_broadcast_table_matches_scalar_bitwise(space):
    # Every (vector, witness) pair of the (k, 1, n) x (1, m, n) broadcast
    # against the scalar kernel, with zero, signed-zero, nearly dependent and
    # NaN-producing rows on both sides.
    rng = random.Random(5)
    vectors = _row_vectors(space, 29, rng)
    witnesses = _row_vectors(space, 11, rng)
    V = np.array([v.coords for v in vectors])
    W = np.array([z.coords for z in witnesses])
    with np.errstate(over="ignore", invalid="ignore"):
        table = two_norm_batch(space, V[:, None], W[None])
    assert table.shape == (len(vectors), len(witnesses))
    for i, v in enumerate(vectors):
        for j, z in enumerate(witnesses):
            assert float(table[i, j]).hex() == two_norm(space, v, z).hex()
    assert np.isnan(table).any()


@pytest.mark.parametrize("xs_shape, ys_shape", [
    ((2, 3), (2, 2)),      # mismatched last axes
    ((2, 2), (2, 3)),
    ((2, 1, 3), (2, 3)),   # unequal ndim
    ((3,), (3,)),          # 1-D
    ((2, 3), (3, 3)),      # leading shapes that do not broadcast
    ((2, 1, 3), (3, 4, 3)),
])
def test_two_norm_batch_rejects_bad_shapes(xs_shape, ys_shape):
    with pytest.raises(ValueError, match=r"expected \(\.\.\., 3\) arrays of equal ndim"):
        two_norm_batch(gram_space(3), np.ones(xs_shape), np.ones(ys_shape))


_OPERAND_SPACES = [cross2_space()] + [gram_space(n) for n in range(2, 9)]


@st.composite
def _operand_case(draw):
    space = draw(st.sampled_from(_OPERAND_SPACES))
    row = st.lists(st.floats(-1e3, 1e3), min_size=space.dimension,
                   max_size=space.dimension)
    return (space, draw(st.lists(row, min_size=1, max_size=5)),
            draw(st.lists(row, min_size=1, max_size=5)))


def _hexes(values):
    return [float(v).hex() for v in np.asarray(values).ravel()]


@given(case=_operand_case())
@example(case=(gram_space(3), [[-0.0, 0.0, -0.0], [1.0, -0.0, 2.0]],
               [[0.0, -0.0, 0.0], [-0.0, 3.0, -0.0]]))
@example(case=(cross2_space(), [[-0.0, 0.0], [-1.5, -0.0]], [[0.0, -0.0], [-0.0, 2.0]]))
@example(case=(gram_space(3), [[3.0, 1.0, 4.0], [1.0, 1.0, 1.0]],
               [[6.0, 2.0, 8.000000000000002], [1.0, 1.0, 1.0000000000000002]]))
@example(case=(cross2_space(), [[0.1, 0.3]], [[0.30000000000000004, 0.9]]))
@example(case=(gram_space(2), [[2e150, 5e149], [1.0, 2.0]], [[1.0, 0.0], [2e150, 5e149]]))
@example(case=(gram_space(4), [[2e150, 5e149, 0.0, 1.0]], [[1.0, 0.0, -0.0, 1.0]]))
@settings(max_examples=150, deadline=None)
def test_operand_sides_match_the_array_call_and_scalar_bitwise(case):
    # Paired (p, n) and broadcast (k, 1, n) x (1, m, n): every entry equals
    # two_norm by float.hex, NaN included.
    space, xs, ys = case
    X, Y = np.array(xs), np.array(ys)
    p = min(len(X), len(Y))
    scalar_pairs = [two_norm(space, SpaceElement(x), SpaceElement(y))
                    for x, y in zip(xs[:p], ys[:p])]
    scalar_table = [two_norm(space, SpaceElement(x), SpaceElement(y)) for x in xs for y in ys]
    with np.errstate(over="ignore", invalid="ignore"):
        for (A, B), want in (((X[:p], Y[:p]), scalar_pairs),
                             ((X[:, None], Y[None]), scalar_table)):
            array_call = two_norm_batch(space, A, B)
            assert _hexes(array_call) == _hexes(want)


@pytest.mark.parametrize("space", [cross2_space(), gram_space(3)],
                         ids=lambda s: f"{s.kind.value}:{s.dimension}")
@pytest.mark.parametrize("count", [1, 23, 24])
def test_witness_norm_rows_takes_an_array(space, count):
    vectors = _row_vectors(space, count, random.Random(count))
    wset = standard_basis(space.dimension)
    rows = witness_norm_rows(space, wset, np.array([v.coords for v in vectors]))
    # One (N, m) float64 array on the scalar path and the batch path alike.
    assert type(rows) is np.ndarray and rows.dtype == np.float64
    assert rows.shape == (count, len(wset.witnesses))
    assert [[a.hex() for a in r] for r in rows.tolist()] == [
        [a.hex() for a in witness_norms(space, wset, v)] for v in vectors]


def test_witness_norm_rows_array_may_hold_non_finite_rows():
    # An overflowed difference (inf) has no SpaceElement; its row reads NaN
    # on any count instead of raising.
    space, wset = cross2_space(), standard_basis(2)
    rows = witness_norm_rows(space, wset, np.array([[math.inf, 0.0], [1.0, 2.0]]))
    assert all(math.isnan(a) for a in rows[0])
    assert tuple(rows[1].tolist()) == witness_norms(space, wset, el(1.0, 2.0))


# --- the closed form on the standard basis ----------------------------------------

_BASIS_SPACES = [gram_space(n) for n in range(2, 9)]


def _basis_rows(n, count, rng):
    """``count`` rows for the basis kernel: every few rows a zero or
    signed-zero row, subnormal or nearly-dependent-on-e_j coordinates, or a
    ``|v|`` past 1.2e150 (NaN norms), between generic draws; then eight rows
    whose squares or ``|v|^2`` overflow."""
    out = []
    for i in range(count):
        kind = i % 8
        j = i % n
        if kind == 0:
            coords = [0.0] * n
        elif kind == 1:
            coords = [-0.0 if (i + k) % 2 else 0.0 for k in range(n)]
        elif kind == 2:
            coords = [rng.choice([5e-324, -5e-324, 2.2e-308, 0.0]) for _ in range(n)]
            coords[j] = rng.uniform(-10, 10)
        elif kind == 3:
            coords = [1e-12 * rng.uniform(-1, 1) for _ in range(n)]
            coords[j] = rng.uniform(-10, 10)
        elif kind == 4:
            coords = [rng.choice([0.0, -0.0]) for _ in range(n)]
            coords[j] = rng.uniform(-10, 10)
        elif kind == 5:
            coords = [rng.uniform(-1, 1) * 10 ** rng.uniform(140, 160) for _ in range(n)]
        else:
            coords = [rng.uniform(-10, 10) for _ in range(n)]
        out.append(coords)
    # Then rows where a * a or |v|^2 overflows, among small coordinates: one
    # coordinate from 1e155 to 1.7e308, one at 1.7e308, two near 1.2e154
    # (finite squares, infinite sum), or every other one past 1e155.
    for i in range(8):
        coords = [rng.choice([0.0, -0.0, rng.uniform(-10, 10)]) for _ in range(n)]
        kind, j, sign = i % 4, i % n, rng.choice([1.0, -1.0])
        if kind == 0:
            coords[j] = sign * min(1.7e308, 10 ** rng.uniform(155, 308.3))
        elif kind == 1:
            coords[j] = sign * 1.7e308
        elif kind == 2:
            coords[j] = sign * rng.uniform(1.0e154, 1.3e154)
            coords[(j + 1) % n] = rng.uniform(1.0e154, 1.3e154)
        else:
            for k in range(j % 2, n, 2):
                coords[k] = rng.choice([1.0, -1.0]) * 10 ** rng.uniform(155, 308)
        out.append(coords)
    return out


def test_only_the_identity_rows_in_order_take_the_closed_form():
    for n in range(2, 9):
        rows = np.eye(n)
        assert standard_basis(n)._basis
        assert WitnessSet(tuple(SpaceElement(tuple(r)) for r in rows))._basis
        assert not WitnessSet(tuple(SpaceElement(tuple(r)) for r in rows[::-1]))._basis
        assert not WitnessSet(tuple(SpaceElement(tuple(r)) for r in 2.0 * rows))._basis
        extra = np.vstack([rows, np.ones(n)])
        assert not WitnessSet(tuple(SpaceElement(tuple(r)) for r in extra))._basis
    assert not WitnessSet((el(1.0, -0.0), el(0.0, 1.0)))._basis


@pytest.mark.parametrize("space", _BASIS_SPACES, ids=lambda s: f"gram:{s.dimension}")
def test_basis_witness_norms_match_two_norm_bitwise(space):
    n = space.dimension
    wset = standard_basis(n)
    for coords in _basis_rows(n, 400, random.Random(n)):
        v = SpaceElement(tuple(coords))
        want = [two_norm(space, v, z).hex() for z in wset.witnesses]
        assert [a.hex() for a in witness_norms(space, wset, v)] == want
        for limit in (0.0, -0.0, math.inf, float.fromhex(want[-1])):
            norms = [float.fromhex(h) for h in want]
            assert witness_gap_within(space, wset, v.coords, (0.0,) * n, limit) == (
                max(norms) <= limit)


@pytest.mark.parametrize("space", _BASIS_SPACES, ids=lambda s: f"gram:{s.dimension}")
@pytest.mark.parametrize("count", [24, 4097])
def test_basis_witness_norm_rows_match_the_general_batch_bitwise(space, count, monkeypatch):
    n = space.dimension
    wset = standard_basis(n)
    rows = _basis_rows(n, count, random.Random(count + n))
    rows[7] = [math.inf] + [0.0] * (n - 1)
    rows[9] = [1.0] * (n - 1) + [math.nan]
    rows[11] = [0.0] * (n - 1) + [-math.inf]
    V = np.array(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        want = two_norm_batch(space, V[:, None], wset._batch)
    calls = []
    monkeypatch.setattr(space_module, "two_norm_batch", lambda *a: calls.append(a))
    got = witness_norm_rows(space, wset, V)
    assert calls == []  # the closed form, not the general pair step
    assert [[a.hex() for a in r] for r in got] == [_hexes(r) for r in want]
    assert all(math.isnan(a) for i in (7, 9, 11) for a in got[i])


@pytest.mark.parametrize("rows", [[[0.0, 1.0], [1.0, 0.0]], [[2.0, 0.0], [0.0, 1.0]]],
                         ids=["permuted", "scaled"])
def test_a_permuted_or_scaled_basis_takes_the_general_kernel(rows, monkeypatch):
    space = gram_space(2)
    wset = WitnessSet(tuple(SpaceElement(tuple(r)) for r in rows))
    assert not wset._basis
    V = np.array(_basis_rows(2, 30, random.Random(2)))
    calls = []
    batch = space_module.two_norm_batch
    monkeypatch.setattr(space_module, "two_norm_batch",
                        lambda *a: calls.append(a) or batch(*a))
    got = witness_norm_rows(space, wset, V)
    assert len(calls) == 1
    for v, row in zip(V.tolist(), got):
        v = SpaceElement(tuple(v))
        want = [two_norm(space, v, z).hex() for z in wset.witnesses]
        assert [a.hex() for a in row] == want
        assert [a.hex() for a in witness_norms(space, wset, v)] == want


def test_off_the_basis_gram_witness_norms_run_two_norm_per_witness(monkeypatch):
    # A gram set other than the standard basis runs the reference kernel once
    # per witness evaluated: all of them for witness_norms, and up to the
    # first norm past the limit for the pair test.
    space = gram_space(3)
    rows = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 1.0))
    wset = WitnessSet(tuple(SpaceElement(r) for r in rows))
    v = el(1.0, 0.0, 2.0)  # norms 1, 2, sqrt(5), sqrt(6)
    want = [two_norm(space, v, z) for z in wset.witnesses]
    calls = []
    reference = space_module.two_norm
    monkeypatch.setattr(space_module, "two_norm",
                        lambda *a: calls.append(a[2]) or reference(*a))
    assert list(witness_norms(space, wset, v)) == want
    assert calls == list(wset.witnesses)
    for limit, evaluated in ((0.5, 1), (1.5, 2), (2.1, 3), (math.inf, 4)):
        calls.clear()
        within = witness_gap_within(space, wset, v.coords, (0.0, 0.0, 0.0), limit)
        assert within is (limit == math.inf)
        assert calls == list(wset.witnesses[:evaluated])
    calls.clear()
    witness_norms(space, standard_basis(3), v)
    assert calls == []  # the basis closed form


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11: the gram basis closed form forms "
                   "|v|^2 - v_j^2, which cancels when the magnitudes spread")
def test_the_gram_basis_norm_keeps_n1_when_magnitudes_spread():
    # ||v, e_1||^2 = v_2^2 + v_3^2 exactly, so the norm is sqrt(2) 1e-5
    # correctly rounded, not 0: a nonzero pair off a line has a nonzero norm.
    space, v, e1 = gram_space(3), el(1e20, 1e-5, 1e-5), el(1, 0, 0)
    want = 1.4142135623730951e-05
    assert two_norm(space, v, e1) == want
    assert witness_norms(space, standard_basis(3), v)[0] == want
