"""Tests for the 2-normed space layer: norms, witnesses, balls, axiom checks."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import enrichedfp.space as space_module
from enrichedfp.solver import TwoNormBall
from enrichedfp.space import (
    EPS,
    Box,
    NonFiniteError,
    SpaceElement,
    WitnessSet,
    check_axioms,
    cross2_norm,
    cross2_space,
    gram_norm,
    gram_space,
    seminorm,
    standard_basis,
    two_norm,
    two_norm_batch,
    witness_max_prefix,
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
@settings(max_examples=200)
def test_seminorm_absolute_homogeneity(z, x, a):
    sp = cross2_space()
    ceiling = abs(a) * math.hypot(*x.coords) * math.hypot(*z.coords)
    deviation = abs(seminorm(sp, z, a * x) - abs(a) * seminorm(sp, z, x))
    # a * x itself rounds to the subnormal grid, and |z| scales that error.
    grid = _AREA_GRID + math.hypot(*z.coords) * math.ulp(0.0)
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

def test_box_contains_and_scale():
    sp = cross2_space()
    box = Box((-1, 0), (1, 2))
    assert box.lo == (-1.0, 0.0) and box.dimension == 2 and box.scale == 2.0
    assert box.contains(sp, el(1, 0)) and box.contains(sp, el(0, 2))
    assert not box.contains(sp, el(1.5, 1))
    assert Box.symmetric(3, 0.5) == Box((-0.5,) * 3, (0.5,) * 3)
    assert Box.symmetric(2, 0.5).scale == 1.0  # the scale never drops below 1


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


def test_check_axioms_rejects_bad_count():
    with pytest.raises(ValueError):
        check_axioms(cross2_space(), 0, seed=0, tolerance=1e-9)


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
        witness_max_prefix(gram_space(3), standard_basis(3), el(1, 2), 1.0)
    for count in (1, 24):
        with pytest.raises(ValueError):
            witness_norm_rows(gram_space(3), standard_basis(2), [el(1, 2)] * count)


@st.composite
def prefix_cases(draw):
    """A kernel case plus a limit: one of its norms, a signed zero or a draw."""
    space, wset, v = draw(kernel_cases())
    norms = witness_norms(space, wset, v)
    limit = draw(st.one_of(
        st.sampled_from(norms),
        st.sampled_from([0.0, -0.0, math.inf]),
        st.floats(min_value=0.0, max_value=1e4),
    ))
    return space, wset, v, limit


@given(prefix_cases())
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
def test_witness_max_prefix_decides_like_the_full_max(case):
    space, wset, v, limit = case
    full = max(witness_norms(space, wset, v))
    got = witness_max_prefix(space, wset, v, limit)
    assert (got <= limit) == (full <= limit)
    assert (got > limit) == (full > limit)
    if full <= limit:  # no early exit: the value is the full max itself
        assert got.hex() == full.hex()
    if math.isnan(full):
        assert math.isnan(got)


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


@pytest.mark.parametrize("space", [cross2_space(), gram_space(3), gram_space(8)],
                         ids=lambda s: f"{s.kind.value}:{s.dimension}")
@pytest.mark.parametrize("count, batch_calls", [(1, 0), (23, 0), (24, 1), (4097, 2)])
def test_witness_norm_rows_match_witness_norms_bitwise(space, count, batch_calls,
                                                       monkeypatch):
    rng = random.Random(count)
    n = space.dimension
    witnesses = [SpaceElement(tuple(float(i == j) + 0.5 * (j == (i + 1) % n)
                                    for j in range(n))) for i in range(n)]
    wset = WitnessSet(tuple(witnesses) + (el(*([1.0, -1.0] * n)[:n]),))
    vectors = _row_vectors(space, count, rng)
    calls = []
    batch = space_module.two_norm_batch

    def counting_batch(space, xs, ys):
        calls.append(len(xs))
        return batch(space, xs, ys)

    monkeypatch.setattr(space_module, "two_norm_batch", counting_batch)
    rows = witness_norm_rows(space, wset, vectors)
    # Below 24 vectors the scalar path runs; from 24 on one batch call per
    # slice of at most 4096 vectors.
    assert len(calls) == batch_calls
    assert all(c <= 4096 * len(wset.witnesses) for c in calls)
    assert len(rows) == count
    for v, row in zip(vectors, rows):
        assert [a.hex() for a in row] == [b.hex() for b in witness_norms(space, wset, v)]
    if count >= 4:
        assert any(math.isnan(a) for row in rows for a in row)
