"""Tests for the iteration engine: solves, bounds, stopping, cycles."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import enrichedfp.solver as solver_module
import enrichedfp.space as space_module
from enrichedfp.analyzer import Provenance, certify
from enrichedfp.cli import emit_trace_csv, report_text
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
from enrichedfp.solver import (
    SolveConfig,
    SolveStatus,
    Trace,
    TwoNormBall,
    aposteriori_step_threshold,
    apriori_bound,
    asymptotic_solve,
    detect_cycle,
    krasnoselskij_solve,
    local_ball_solve,
    picard_solve,
)
from enrichedfp.space import (
    Box,
    NonFiniteError,
    SpaceElement,
    WitnessSet,
    cross2_space,
    gram_space,
    standard_basis,
    two_norm,
    witness_residual,
)

SP = cross2_space()
WIT = standard_basis(2)


def el(*coords):
    return SpaceElement(tuple(float(c) for c in coords))


def reflection_cert():
    return certify(0.5, 0.5, Provenance.closed_form())


# --- bound helpers ---------------------------------------------------------------

def test_apriori_bound_values():
    cert = reflection_cert()  # d = 1/3
    # oracle: d^n * base / (1 - d) evaluated directly
    d = cert.d
    assert apriori_bound(cert, 2, 4.0 / 3.0) == d**2 * (4.0 / 3.0) / (1.0 - d)
    assert apriori_bound(cert, 2, 4.0 / 3.0) == pytest.approx(2.0 / 9.0, rel=1e-14)
    zero_d = certify(1.0, 0.0, Provenance.asserted())
    assert apriori_bound(zero_d, 1, 5.0) == 0.0
    assert apriori_bound(zero_d, 7, 123.0) == 0.0
    half = certify(0.0, 0.5, Provenance.asserted())
    assert apriori_bound(half, 0, 1.0) == 2.0
    with pytest.raises(ValueError):
        apriori_bound(cert, -1, 1.0)
    with pytest.raises(ValueError):
        apriori_bound(cert, 1, -1.0)


def test_bound_helpers_properties():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
        st.integers(min_value=0, max_value=60),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=300)
    def check(d, n, base):
        cert = certify(0.0, d, Provenance.asserted())
        b_n = apriori_bound(cert, n, base)
        assert b_n >= 0.0
        assert apriori_bound(cert, n + 1, base) <= b_n * (1 + 1e-12)
        if 1e-300 < d:
            thr = aposteriori_step_threshold(cert, 1e-8)
            # the step threshold inverts the tail estimate: thr * d/(1-d) = tol
            assert thr * d / (1.0 - d) == pytest.approx(1e-8, rel=1e-12)

    check()


def test_aposteriori_threshold_values():
    third = reflection_cert()
    got = aposteriori_step_threshold(third, 1e-8)
    assert got == 1e-8 * (1.0 - third.d) / third.d
    assert got == pytest.approx(2e-8, rel=1e-14)
    half = certify(0.0, 0.5, Provenance.asserted())
    assert aposteriori_step_threshold(half, 1e-6) == 1e-6
    zero = certify(1.0, 0.0, Provenance.asserted())
    assert aposteriori_step_threshold(zero, 1e-8) == 1e-8
    with pytest.raises(ValueError):
        aposteriori_step_threshold(half, 0.0)


# --- krasnoselskij ----------------------------------------------------------------

def test_krasnoselskij_reflection_converges_to_half_w():
    rep = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                              SolveConfig(tol=1e-10), SP)
    assert rep.status == SolveStatus.CONVERGED
    assert rep.iterations <= 25
    assert witness_residual(SP, WIT, rep.x_star, el(1, 0)) <= 1e-10
    assert witness_residual(SP, WIT, Reflection(el(2, 0)).apply(rep.x_star), rep.x_star) <= 1e-10
    assert rep.bound_violations == 0


def test_krasnoselskij_d_zero_converges_in_one_iteration():
    cert = certify(1.0, 0.0, Provenance.asserted())
    rep = krasnoselskij_solve(Reflection(el(2, 0)), cert, el(-7.3, 4.4),
                              SolveConfig(tol=1e-10), SP)
    assert rep.status == SolveStatus.CONVERGED
    assert rep.iterations == 1
    assert witness_residual(SP, WIT, rep.x_star, el(1, 0)) <= 1e-10


def test_krasnoselskij_scalar_affine_geometric_limit():
    # fixed point oracle: solve x = x/2 + (1, 0) by hand -> (2, 0)
    cert = certify(0.0, 0.5, Provenance.asserted())
    rep = krasnoselskij_solve(ScalarAffine(0.5, el(1, 0)), cert, el(0, 0),
                              SolveConfig(tol=1e-10), SP)
    assert rep.status == SolveStatus.CONVERGED
    assert witness_residual(SP, WIT, rep.x_star, el(2, 0)) <= 1e-10


def test_krasnoselskij_requires_certificate():
    with pytest.raises(ValueError):
        krasnoselskij_solve(Reflection(el(2, 0)), None, el(0, 0), SolveConfig(), SP)


def test_rate_bound_along_trace():
    rep = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                              SolveConfig(tol=1e-10), SP)
    rows = rep.trace
    base = rows[1].step_residual
    d = rep.certificate.d
    for prev, cur in zip(rows[1:], rows[2:]):
        assert cur.step_residual <= d * prev.step_residual + 1e-12 * max(1.0, base)


def test_apriori_dominance_along_trace():
    rep = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                              SolveConfig(tol=1e-10), SP)
    base = rep.trace[1].step_residual
    slack = 1e-12 * max(1.0, base)
    for row in rep.trace:
        assert witness_residual(SP, WIT, row.x, rep.x_star) <= row.apriori_bound + slack
    assert rep.bound_violations == 0


def test_trace_row_structure():
    rep = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                              SolveConfig(tol=1e-10), SP)
    rows = rep.trace
    assert [r.n for r in rows] == list(range(len(rows)))
    assert rows[0].step_residual == 0.0
    assert rows[0].witness_steps == (0.0, 0.0)
    base = rows[1].step_residual
    for r in rows:
        assert r.apriori_bound == apriori_bound(rep.certificate, r.n, base)
        assert max(r.witness_steps) == r.step_residual or r.n == 0


def test_the_trace_is_a_read_only_sequence_of_rows():
    rep = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                              SolveConfig(tol=1e-10), SP)
    trace = rep.trace
    rows = tuple(trace)
    assert isinstance(trace, Trace) and trace
    assert len(trace) == len(rows) == rep.iterations + 1 > 4
    assert trace[-1].n == rep.iterations and trace[-1] == rows[-1] == trace[len(rows) - 1]
    assert trace[1:4] == rows[1:4] and type(trace[1:4]) is tuple
    assert trace[::-2] == rows[::-2] and trace[5:2] == ()
    assert [row.n for row in trace] == list(range(len(rows)))
    with pytest.raises(IndexError):
        trace[len(rows)]
    # Equal to a trace of the same dim and table, to no shorter one, and not
    # to the tuple of its rows.
    assert trace == Trace(2, trace.table.copy()) and trace != Trace(2, trace.table[:-1])
    assert trace != rows and trace != Trace(3, trace.table)
    # The table is read-only, and the report still hashes.
    assert trace.table.shape == (len(rows), 2 + 3 + 2)
    assert not trace.table.flags.writeable
    with pytest.raises(ValueError):
        trace.table[0, 0] = 1.0
    again = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                                SolveConfig(tol=1e-10), SP)
    assert again == rep and hash(again) == hash(rep)
    # An uncertified trace, NaN bounds and all, equals its copy too.
    picard = picard_solve(Reflection(el(2, 0)), el(0, 0), SolveConfig(), SP)
    copy = Trace(2, picard.trace.table.copy())
    assert picard.trace == copy and hash(picard.trace) == hash(copy)
    assert hash(picard) == hash(picard)
    # A run with no iterate has an empty trace, as wide as any other.
    empty = picard_solve(ScalarAffine(3.0, el(1, 0)), el(1e308, 0), SolveConfig(), SP).trace
    assert not empty and len(empty) == 0 and tuple(empty) == () and empty[:] == ()
    assert empty == Trace(2, np.empty((0, 7))) and empty != Trace(2, np.empty((0, 8)))


def test_uniqueness_probe_across_starts():
    rng = random.Random(41)
    cert = reflection_cert()
    tol = 1e-10
    limits = []
    for _ in range(10):
        x0 = el(rng.uniform(-8, 8), rng.uniform(-8, 8))
        rep = krasnoselskij_solve(Reflection(el(2, 0)), cert, x0, SolveConfig(tol=tol), SP)
        assert rep.status == SolveStatus.CONVERGED
        limits.append(rep.x_star)
    for a in limits:
        for b in limits:
            assert witness_residual(SP, WIT, a, b) <= 2 * tol


def test_determinism_identical_traces():
    a = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                            SolveConfig(), SP)
    b = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                            SolveConfig(), SP)
    assert a == b


def test_left_domain_box():
    domain = Box((-0.5, -0.5), (0.5, 0.5))
    rep = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                              SolveConfig(domain=domain), SP)
    assert rep.status == SolveStatus.LEFT_DOMAIN
    assert rep.iterations == 1  # first iterate (4/3, 0) already escapes


def test_left_domain_when_start_outside():
    domain = Box((-0.5, -0.5), (0.5, 0.5))
    rep = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(5, 5),
                              SolveConfig(domain=domain), SP)
    assert rep.status == SolveStatus.LEFT_DOMAIN
    assert rep.iterations == 0


def test_bound_beta_consistency_warning():
    box = Box((-10, -10), (10, 10))
    rep = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                              SolveConfig(domain=box, bound_beta=0.1), SP)
    assert any("bound_beta" in w for w in rep.warnings)
    rep2 = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                               SolveConfig(domain=box, bound_beta=10.0), SP)
    assert rep2.warnings == ()
    assert rep2.status == SolveStatus.CONVERGED


def test_gram_space_solve():
    sp3 = gram_space(3)
    cert = certify(0.0, 0.5, Provenance.asserted())
    rep = krasnoselskij_solve(ScalarAffine(0.5, el(1, 0, -1)), cert, el(0, 0, 0),
                              SolveConfig(tol=1e-10), sp3)
    assert rep.status == SolveStatus.CONVERGED
    assert witness_residual(sp3, standard_basis(3), rep.x_star, el(2, 0, -2)) <= 1e-10


# --- picard -----------------------------------------------------------------------

def test_picard_reflection_oscillates_with_period_two():
    rep = picard_solve(Reflection(el(2, 0)), el(0, 0), SolveConfig(), SP)
    assert rep.status == SolveStatus.OSCILLATION
    assert rep.period == 2
    assert rep.iterations <= 4
    assert rep.certificate is None
    assert all(math.isnan(r.apriori_bound) for r in rep.trace)


def test_picard_contraction_converges():
    rep = picard_solve(ScalarAffine(0.5, el(1, 0)), el(0, 0), SolveConfig(tol=1e-10), SP)
    assert rep.status == SolveStatus.CONVERGED
    assert witness_residual(SP, WIT, rep.x_star, el(2, 0)) <= 1e-10


def test_picard_already_fixed_point():
    rep = picard_solve(Reflection(el(2, 0)), el(1, 0), SolveConfig(), SP)
    assert rep.status == SolveStatus.CONVERGED
    assert rep.iterations == 0
    assert rep.x_star == el(1, 0)


# --- cycle detection --------------------------------------------------------------

def test_detect_cycle_period_two():
    xs = [el(0, 0), el(2, 0), el(0, 0), el(2, 0)]
    assert detect_cycle(SP, WIT, xs, window=8, eps=1e-10) == 2


def test_detect_cycle_period_one():
    xs = [el(1, 1), el(1, 1), el(1, 1)]
    assert detect_cycle(SP, WIT, xs, window=8, eps=1e-10) == 1


def test_detect_cycle_none_on_converging_sequence():
    xs = [el(2.0 ** -k, 0) for k in range(8)]
    assert detect_cycle(SP, WIT, xs, window=8, eps=1e-10) is None


def test_detect_cycle_needs_history():
    assert detect_cycle(SP, WIT, [el(0, 0), el(2, 0)], window=8, eps=1e-10) is None
    with pytest.raises(ValueError):
        detect_cycle(SP, WIT, [el(0, 0)], window=1, eps=1e-10)



def _detect_cycle_reference(space, wset, xs, window, eps):
    """The first definition: full witness residuals over a copy of the list."""
    xs = list(xs)
    n = len(xs) - 1
    for p in range(1, window + 1):
        if n - 1 - p < 0:
            break
        if (
            witness_residual(space, wset, xs[n], xs[n - p]) <= eps
            and witness_residual(space, wset, xs[n - 1], xs[n - 1 - p]) <= eps
        ):
            return p
    return None


def _raised(f):
    """``f()``, or ``NonFiniteError`` where it raises one."""
    try:
        return f()
    except NonFiniteError:
        return NonFiniteError


@st.composite
def cycle_cases(draw, kinds=("periodic", "converging", "overflowing")):
    """An iterate list on cross2 or gram:3 that is near-periodic, converging,
    overflowing (norms NaN past the Dekker split) or, among ``kinds`` on
    request, a periodic orbit whose differences overflow, a window and an
    eps that is often one of the residuals the detector compares with it."""
    space = draw(st.sampled_from([cross2_space(), gram_space(3)]))
    dim = space.dimension
    wset = standard_basis(dim)

    def point(lo, hi):
        return draw(st.lists(st.floats(min_value=lo, max_value=hi), min_size=dim, max_size=dim))

    length = draw(st.integers(min_value=1, max_value=14))
    kind = draw(st.sampled_from(list(kinds)))
    if kind == "periodic":
        orbit = [point(-10, 10) for _ in range(draw(st.integers(min_value=1, max_value=5)))]
        jitter = draw(st.sampled_from([0.0, 1e-13, 1e-11, 1e-9]))
        rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        xs = [el(*(c + jitter * rng.uniform(-1, 1) for c in orbit[k % len(orbit)]))
              for k in range(length)]
    elif kind == "converging":
        centre, direction = point(-10, 10), point(-10, 10)
        rate = draw(st.floats(min_value=-0.9, max_value=0.9))
        xs = [el(*(c + rate**k * v for c, v in zip(centre, direction))) for k in range(length)]
    elif kind == "overflowing":
        start = point(0.1, 1.0)
        scale = draw(st.sampled_from([1e140, 1e150, 1e295, 1e300]))
        growth = draw(st.sampled_from([-3.0, 3.0]))
        xs = [el(*(c * scale * growth**k for c in start)) for k in range(length)]
    else:
        # Each coordinate of each orbit point is small or +-1e308-ish, so some
        # x_i - x_j overflow in some coordinates and differ clearly in others.
        big = st.sampled_from([1e308, -1e308, 9e307, -1.7976931348623157e308])
        orbit = [[draw(st.one_of(big, st.floats(min_value=-10, max_value=10)))
                  for _ in range(dim)] for _ in range(draw(st.integers(min_value=2, max_value=5)))]
        xs = [el(*orbit[k % len(orbit)]) for k in range(length)]

    window = draw(st.integers(min_value=2, max_value=10))
    n = len(xs) - 1
    residuals = [_raised(lambda: witness_residual(space, wset, xs[i], xs[i - p]))
                 for i in (n, n - 1) for p in range(1, window + 1) if i - p >= 0]
    residuals = [r for r in residuals if r is not NonFiniteError]
    eps = draw(st.one_of(
        st.sampled_from(residuals or [0.0]),
        st.sampled_from([0.0, 1e-10, 1e-8, math.inf]),
        st.floats(min_value=0.0, max_value=20.0),
    ))
    return space, wset, xs, window, eps


@given(cycle_cases())
@example((SP, WIT, [el(0, 0), el(2, 0), el(0, 0), el(2, 0)], 8, 1e-10))  # period 2
# Norms sqrt(5), sqrt(10), sqrt(13) of the last step: eps is a running max
# that a later witness exceeds, so stopping at a max equal to eps is wrong.
@example((gram_space(3), standard_basis(3), [el(0, 0, 0), el(0, 0, 0), el(3, 2, 1)], 8,
          math.sqrt(10.0)))
@example((gram_space(3), standard_basis(3), [el(0, 0, 0), el(3, 2, 1), el(0, 0, 0),
                                             el(3, 2, 1)], 8, math.sqrt(10.0)))
@settings(max_examples=300, deadline=None)
def test_detect_cycle_matches_the_full_residual_definition(case):
    space, wset, xs, window, eps = case
    assert detect_cycle(space, wset, xs, window, eps) == _detect_cycle_reference(
        space, wset, xs, window, eps)


@given(cycle_cases(kinds=("overflowing differences",)))
@example((SP, WIT, [el(1e308, 0), el(-1e308, 0)] * 3, 8, 1e-10))  # alternating, p = 2
@example((SP, WIT, [el(1, 1e308), el(2, -1e308), el(3, 1e308)] * 2, 8, 1e-10))
@example((gram_space(3), standard_basis(3),
          [el(1e308, 5, 0), el(-1e308, 5, 0), el(1e308, 5, 0)] * 2, 8, 1e-10))
@settings(max_examples=300, deadline=None)
def test_detect_cycle_raises_where_the_full_residual_definition_does(case):
    space, wset, xs, window, eps = case
    assert _raised(lambda: detect_cycle(space, wset, xs, window, eps)) == _raised(
        lambda: _detect_cycle_reference(space, wset, xs, window, eps))


# A certified gram:8 solve that converges in 38 iterations.
_GRAM8_SOLVE = (ScalarAffine(-0.8, el(1, -2, 0.5, 3, -0.25, 0, -1.5, 2)),
                certify(0.25, 0.55, Provenance.closed_form()), el(3, 1, -4, 1, 5, -9, 2, 6),
                gram_space(8))


def test_the_loop_settles_clear_cut_steps_and_cycle_tests_without_the_exact_kernel(
        monkeypatch):
    # A non-cycling cross2 Picard run makes up to 16 cycle tests and one step
    # test per iteration, all far past tol: only the two start residuals
    # enter the witness kernel, and the 2000 rows are evaluated in batch.
    entered = []
    kernel = space_module._witness_norm_iter
    monkeypatch.setattr(space_module, "_witness_norm_iter",
                        lambda *a: entered.append(a[2]) or kernel(*a))
    T = ScalarAffine(0.999, el(1, 0))
    rep = picard_solve(T, el(0.5, 0.25), SolveConfig(tol=1e-14, max_iter=2000), SP)
    assert rep.status == SolveStatus.MAX_ITER and rep.iterations == 2000
    assert len(entered) == 2
    # The converging step and the two residuals of the convergence check are
    # clear passes, which the pair test's screen settles.
    entered.clear()
    T, cert, x0, space = _GRAM8_SOLVE
    rep = krasnoselskij_solve(T, cert, x0, SolveConfig(tol=1e-12), space)
    assert rep.status == SolveStatus.CONVERGED and rep.iterations == 38
    assert len(entered) == 2
    assert_trace_matches_scalar_kernel(T, rep, standard_basis(8), space)


def test_the_loop_forms_no_coordinate_difference_for_a_finite_step(monkeypatch):
    # The step test asks the pair test, which screens the squared
    # differences, and one float sum clears each fixed-point row: the loop
    # forms no difference list, in solver or in space.
    formed = []
    difference = space_module.difference
    for module in (solver_module, space_module):
        monkeypatch.setattr(module, "difference",
                            lambda a, b: formed.append((a, b)) or difference(a, b))
    T, cert, x0, space = _GRAM8_SOLVE
    rep = krasnoselskij_solve(T, cert, x0, SolveConfig(tol=1e-12), space)
    assert rep.status == SolveStatus.CONVERGED and rep.iterations == 38
    assert formed == []


def test_the_ball_and_cycle_tests_leave_only_near_cases_to_the_exact_work(monkeypatch):
    # A local solve whose iterates stay well inside their ball calls the
    # exact 2-norm once, for the displacement precondition (in solver): the
    # float screen settles every ball test (in space), x0's included.
    calls = []
    norm = space_module.two_norm
    for module in (solver_module, space_module):
        monkeypatch.setattr(module, "two_norm", lambda *a: calls.append(a) or norm(*a))
    space = gram_space(3)
    T = ScalarAffine(0.5, el(1, 0.5, -0.25))  # fixed point (2, 1, -0.5)
    rep = local_ball_solve(T, certify(0.0, 0.5, Provenance.closed_form()), el(0, 0, 0),
                           el(0, 0, 1), 10.0, SolveConfig(tol=1e-10), space)
    assert rep.status == SolveStatus.CONVERGED and rep.iterations > 30
    assert rep.precondition[0] < rep.precondition[1] and rep.epsilon > 6.0
    assert len(calls) == 1
    # A contracting cross2 Picard run forms a cycle test's difference only
    # for a near-cycle, one the screen cannot tell from eps; every other
    # period, a clear cycle included, is settled from the squared
    # differences. The pair test (space.witness_gap_within) forms it with
    # space.difference.
    formed, inside = [], []
    detect, difference = solver_module.detect_cycle, space_module.difference

    def spy_detect(*a):
        inside.append(True)
        try:
            return detect(*a)
        finally:
            inside.pop()

    monkeypatch.setattr(solver_module, "detect_cycle", spy_detect)
    monkeypatch.setattr(space_module, "difference",
                        lambda a, b: (inside and formed.append((a, b))) or difference(a, b))
    rep = picard_solve(ScalarAffine(0.999, el(1, 0)), el(0.5, 0.25),
                       SolveConfig(tol=1e-14, max_iter=2000), SP)
    assert rep.status == SolveStatus.MAX_ITER and formed == []
    # x -> -0.9 x + (1, 0) alternates around its fixed point, so once the
    # step is a few tol, x_n - x_{n-2} = step / 9 comes within tol: clearly
    # within 1e-12, and exactly within a tol set to that very gap.
    T = ScalarAffine(-0.9, el(1, 0))
    rep = picard_solve(T, el(0.5, 0.25), SolveConfig(tol=1e-12), SP)
    assert rep.status == SolveStatus.OSCILLATION and rep.period == 2 and formed == []
    eps = witness_residual(SP, WIT, rep.trace[-1].x, rep.trace[-3].x)
    rep = picard_solve(T, el(0.5, 0.25), SolveConfig(tol=eps), SP)
    assert rep.status == SolveStatus.OSCILLATION and rep.period == 2
    assert formed
    for a, b in formed:
        assert witness_residual(SP, WIT, el(*a), el(*b)) <= eps * (1.0 + 2.0**-29)


@pytest.mark.parametrize("space", [cross2_space(), gram_space(3)],
                         ids=lambda s: f"{s.kind.value}{s.dimension}")
def test_the_step_cycle_and_ball_tests_run_one_screen_body(space, monkeypatch):
    # The step test (the pair test against 0), the cycle test (detect_cycle) and
    # the ball test (TwoNormBall.contains) all reach the one decision body,
    # space._screen, and decide nothing on their own: with the body settling
    # nothing, every test falls to the exact kernel and decides the same.
    calls = []
    body = space_module._screen
    n = space.dimension
    wset = standard_basis(n)
    xs = [el(*[float(i * 7 + j) for j in range(n)]) for i in range(6)]
    ball = TwoNormBall(el(*[0.0] * (n - 1), 1.0), el(*[0.0] * n), 10.0)
    step = tuple(1e-3 * (i + 1) for i in range(n))
    decisions = []
    for settle in (True, False):
        monkeypatch.setattr(space_module, "_screen", lambda *a, _settle=settle:
                            calls.append(a[0]) or (body(*a) if _settle else None))
        decisions.append((
            not solver_module.witness_gap_within(space, wset, step, (0.0,) * n, 1e-11),
            detect_cycle(space, wset, xs, 2, 1e-10),
            ball.contains(space, el(*[1.0] * n)),
        ))
        # One step test, one cycle test per period (each misses on its
        # first pair), one ball test: a cycle test the body leaves open goes
        # on to the exact kernel without asking the body again.
        assert calls == [n] * 4
        calls.clear()
    assert decisions[0] == decisions[1] == (True, None, True)


@pytest.mark.parametrize("space", [cross2_space()] + [gram_space(n) for n in range(3, 9)],
                         ids=lambda s: f"{s.kind.value}{s.dimension}")
def test_a_certified_solve_is_the_same_with_the_screen_deciding_nothing(
        space, monkeypatch, tmp_path):
    # With lam = 1/4 the residual of T at x_n is four times that of T_lam,
    # so the convergence check misses at least once, clearly, before it
    # passes: the pair test's screen can settle that miss. With the one
    # screen body settling nothing, the report and trace keep every byte.
    n = space.dimension
    T = ScalarAffine(-0.8, el(*[1, -2, 0.5, 3, -0.25, 0, -1.5, 2][:n]))
    cert = certify(3.0, 2.2, Provenance.closed_form())  # |b + c| = 2.2, d = 0.55
    x0 = el(*[3, 1, -4, 1, 5, -9, 2, 6][:n])
    answers = []
    gap_within = solver_module.witness_gap_within

    def spy(*a):
        within = gap_within(*a)
        if a[4] == 1e-12:  # the convergence check's tol, not the step threshold
            answers.append(within)
        return within

    monkeypatch.setattr(solver_module, "witness_gap_within", spy)
    body = space_module._screen
    outputs = []
    for screen in (body, lambda *a: None):
        monkeypatch.setattr(space_module, "_screen", screen)
        rep = krasnoselskij_solve(T, cert, x0, SolveConfig(tol=1e-12), space)
        assert rep.status == SolveStatus.CONVERGED
        trace = tmp_path / f"trace{len(outputs)}.csv"
        emit_trace_csv(rep.trace, trace)
        outputs.append((report_text(rep), trace.read_bytes()))
        assert False in answers and answers[-1] is True
        answers.clear()
    assert outputs[0] == outputs[1]


# --- local ball -------------------------------------------------------------------

def test_local_ball_accepts_and_stays_inside():
    cert = certify(1.0, 0.0, Provenance.asserted())
    rep = local_ball_solve(Reflection(el(2, 0)), cert, el(0, 0), el(0, 1), 2.0,
                           SolveConfig(tol=1e-10), SP)
    assert rep.status == SolveStatus.CONVERGED
    assert rep.x_star == el(1, 0)
    # displacement oracle: ||x0 - Tx0, u|| = ||(-2, 0), (0, 1)|| = 2 < 2*2
    assert rep.precondition == (2.0, 4.0)
    assert rep.epsilon == pytest.approx(1.5)
    for row in rep.trace:
        assert TwoNormBall(el(0, 1), el(0, 0), rep.epsilon).contains(SP, row.x)


def test_local_ball_precondition_failure():
    cert = certify(1.0, 0.0, Provenance.asserted())
    rep = local_ball_solve(Reflection(el(2, 0)), cert, el(0, 0), el(0, 1), 0.5,
                           SolveConfig(), SP)
    assert rep.status == SolveStatus.PRECONDITION_FAILED
    assert rep.precondition == (2.0, 1.0)  # 2 is not below (b+1-theta) r = 1
    assert rep.x_star is None
    assert rep.iterations == 0


def test_local_ball_trivial_when_start_is_fixed():
    cert = certify(1.0, 0.0, Provenance.asserted())
    rep = local_ball_solve(Reflection(el(2, 0)), cert, el(1, 0), el(0, 1), 1.0,
                           SolveConfig(), SP)
    assert rep.status == SolveStatus.CONVERGED
    assert rep.iterations == 0
    with pytest.raises(ValueError):
        local_ball_solve(Reflection(el(2, 0)), cert, el(1, 0), el(0, 1), 0.0,
                         SolveConfig(), SP)


# --- asymptotic -------------------------------------------------------------------

def test_asymptotic_piecewise_square():
    T = default_piecewise(2)
    cert = certify(1.0, 1.0, Provenance.asserted())
    cfg = SolveConfig(tol=1e-10)
    rep = asymptotic_solve(T, 2, cert, el(5, 5), cfg, SP)
    assert rep.status == SolveStatus.CONVERGED
    target = el(-1.0 / 3.0, -1.0 / 3.0)
    assert witness_residual(SP, WIT, rep.x_star, target) <= 1e-10
    # the limit is fixed by T itself, not just by T^2
    assert witness_residual(SP, WIT, T.apply(rep.x_star), rep.x_star) <= 1e-10


def test_asymptotic_n_one_equals_krasnoselskij():
    cert = reflection_cert()
    cfg = SolveConfig(tol=1e-10)
    a = asymptotic_solve(Reflection(el(2, 0)), 1, cert, el(0, 0), cfg, SP)
    b = krasnoselskij_solve(iterated(Reflection(el(2, 0)), 1), cert, el(0, 0), cfg, SP)
    assert a.status == b.status == SolveStatus.CONVERGED
    assert a.x_star == b.x_star
    assert [r.x for r in a.trace] == [r.x for r in b.trace]


def test_asymptotic_constant_map_single_step():
    cert = certify(0.0, 0.0, Provenance.asserted())
    rep = asymptotic_solve(ScalarAffine(0.0, el(0.3, 0.7)), 3, cert, el(5, -5),
                           SolveConfig(), SP)
    assert rep.status == SolveStatus.CONVERGED
    assert rep.iterations == 1
    assert rep.x_star == el(0.3, 0.7)


def test_asymptotic_rejects_bad_n():
    with pytest.raises(ValueError):
        asymptotic_solve(Reflection(el(2, 0)), 0, reflection_cert(), el(0, 0),
                         SolveConfig(), SP)


# --- fixed point transfer on converged reports ---------------------------------------

def test_converged_point_fixed_for_both_maps():
    cert = reflection_cert()
    rep = krasnoselskij_solve(Reflection(el(2, 0)), cert, el(0, 0),
                              SolveConfig(tol=1e-10), SP)
    T = Reflection(el(2, 0))
    Tl = averaged(T, cert.lam)
    assert witness_residual(SP, WIT, T.apply(rep.x_star), rep.x_star) <= 1e-10
    assert witness_residual(SP, WIT, Tl.apply(rep.x_star), rep.x_star) <= 1e-10


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolveConfig(max_iter=0)
    # beta bounds a domain: without one it has nothing to bound.
    with pytest.raises(ValueError, match="bound_beta needs a domain"):
        SolveConfig(bound_beta=1.0)


def test_two_norm_ball_domain():
    ball = TwoNormBall(el(0, 1), el(0, 0), 5.0, closed=True)
    rep = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                              SolveConfig(domain=ball), SP)
    assert rep.status == SolveStatus.CONVERGED


@pytest.mark.parametrize("domain", [Box((-9,) * 3, (9,) * 3),
                                    TwoNormBall(el(0, 0, 1), el(0, 0, 0), 5.0)],
                         ids=["box", "ball"])
def test_a_domain_of_another_dimension_is_refused_by_name(domain):
    # Refused before any region test, with a message that names the domain.
    cfg = SolveConfig(domain=domain)
    with pytest.raises(ValueError, match="domain dimension 3 does not match the space"):
        krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0), cfg, SP)
    with pytest.raises(ValueError, match="domain dimension 3 does not match the space"):
        picard_solve(Reflection(el(2, 0)), el(0, 0), cfg, SP)


def test_a_certificate_box_of_another_dimension_is_refused_by_name():
    # Refused beside the domain check, naming both dimensions, not at x0's
    # region test with zip's "argument 2 is shorter than argument 1".
    cert = certify(0.5, 0.5, Provenance.closed_form(Box((-9.0,) * 3, (9.0,) * 3)))
    match = r"certificate box dimension 3 does not match the space \(2\)"
    with pytest.raises(ValueError, match=match):
        krasnoselskij_solve(Reflection(el(2, 0)), cert, el(0, 0), SolveConfig(), SP)
    with pytest.raises(ValueError, match=match):
        local_ball_solve(Reflection(el(2, 0)), cert, el(0, 0), el(1, 1), 1.0,
                         SolveConfig(), SP)


# --- map evaluations per iteration -------------------------------------------------

class CountingMap(SelfMap):
    """Delegates to an inner map and counts its ``apply`` calls."""

    def __init__(self, inner: SelfMap):
        self.inner = inner
        self.calls = 0

    @property
    def dimension(self) -> int:
        return self.inner.dimension

    def apply(self, x):
        self.calls += 1
        return self.inner.apply(x)


def test_solve_evaluates_the_map_once_per_iteration():
    # T x0 once, then T x_n once per iteration; x_1, each next iterate and the
    # final T_lam check reuse those values instead of calling T again.
    T = CountingMap(ScalarAffine(-0.5, el(1.0, 2.0)))
    cert = certify(0.25, 0.25, Provenance.closed_form())
    rep = krasnoselskij_solve(T, cert, el(4, -3), SolveConfig(tol=1e-12), SP)
    assert rep.status == SolveStatus.CONVERGED and rep.iterations > 5
    assert T.calls == rep.iterations + 1

    T.calls = 0
    rep = picard_solve(T, el(4, -3), SolveConfig(tol=1e-12), SP)
    assert rep.status == SolveStatus.CONVERGED
    assert T.calls == rep.iterations + 1

    # d = 0: the averaged map is constant and one iteration lands on x*.
    T.calls = 0
    rep = krasnoselskij_solve(T, certify(0.5, 0.0, Provenance.closed_form()),
                              el(4, -3), SolveConfig(), SP)
    assert rep.iterations == 1 and T.calls == 2


def test_local_solve_evaluates_the_map_once_per_iteration():
    # The precondition reads the loop's own T x0, so a local solve costs what
    # a bare solve does: n + 1 leaf calls.
    T = CountingMap(ScalarAffine(0.5, el(1.0, 0.0)))
    cert = certify(0.0, 0.5, Provenance.closed_form())
    rep = local_ball_solve(T, cert, el(3, 3), el(0, 1), 10.0, SolveConfig(tol=1e-10), SP)
    assert rep.status == SolveStatus.CONVERGED and rep.iterations > 20
    assert T.calls == rep.iterations + 1


def test_local_precondition_failure_keeps_row_zero_and_the_beta_warning():
    # ||x0 - T x0, u|| = 2 is not below (b+1-theta) r = 1: the failure
    # decides before the x0 domain test, and the beta check still runs.
    cert = certify(1.0, 0.0, Provenance.asserted())
    T = CountingMap(Reflection(el(2, 0)))
    outside = Box((5.0, 5.0), (6.0, 6.0))
    rep = local_ball_solve(T, cert, el(0, 0), el(0, 1), 0.5,
                           SolveConfig(domain=outside, bound_beta=0.5), SP)
    assert rep.status == SolveStatus.PRECONDITION_FAILED
    assert rep.precondition == (2.0, 1.0) and rep.epsilon is None
    assert T.calls == 1 and rep.iterations == 0 and rep.bound_violations == 0
    (row0,) = rep.trace
    assert (row0.n, row0.x, row0.step_residual, row0.fixed_residual) == (0, el(0, 0), 0.0, 2.0)
    assert row0.witness_steps == (0.0, 0.0) and row0.apriori_bound == 0.0
    assert len(rep.warnings) == 1 and "bound_beta" in rep.warnings[0]


def test_local_ball_radius_that_underflows_falls_back_to_r():
    # The midpoint of (0, 5e-324) rounds to 0, which is no ball radius; the
    # start is fixed, so the solve converges at once inside the ball of radius r.
    cert = certify(1.0, 0.0, Provenance.asserted())
    rep = local_ball_solve(Reflection(el(0, 0)), cert, el(0, 0), el(0, 1), 5e-324,
                           SolveConfig(), SP)
    assert rep.status == SolveStatus.CONVERGED and rep.iterations == 0
    assert rep.precondition == (0.0, 1e-323) and rep.epsilon == 5e-324


def test_asymptotic_solve_halves_leaf_evaluations():
    # Through T^2 every T^2 evaluation is two leaf calls, plus one final check
    # of the limit against T itself.
    T = CountingMap(ScalarAffine(0.5, el(1.0, 0.0)))
    cert = certify(0.0, 0.25, Provenance.closed_form())
    rep = asymptotic_solve(T, 2, cert, el(3, 3), SolveConfig(tol=1e-10), SP)
    assert rep.status == SolveStatus.CONVERGED
    assert T.calls == 2 * (rep.iterations + 1) + 1


def test_solve_reports_divergence_when_iterates_overflow():
    # x_1 = T x0 is finite but T x_1 overflows, so row 1 cannot be formed: the
    # solve stops with Diverged and keeps the rows recorded before that.
    T = ScalarAffine(1e300, el(1.0, 1.0))
    rep = picard_solve(T, el(1.0, 1.0), SolveConfig(max_iter=10), SP)
    assert rep.status == SolveStatus.DIVERGED
    assert rep.x_star is None and rep.bound_violations == 0
    assert rep.iterations == 0
    assert [r.x for r in rep.trace] == [el(1.0, 1.0)]


def test_divergent_solves_stop_with_a_status():
    # |c| > 1 under plain iteration, and an asserted theta the map violates.
    rep = picard_solve(ScalarAffine(3.0, el(1, 0)), el(0.5, 0.25), SolveConfig(), SP)
    assert rep.status == SolveStatus.DIVERGED and rep.iterations > 600
    cert = certify(0.0, 0.5, Provenance.asserted())
    rep = krasnoselskij_solve(ScalarAffine(1.5, el(1, 0)), cert, el(0.5, 0.25),
                              SolveConfig(), SP)
    assert rep.status == SolveStatus.DIVERGED
    assert len(rep.trace) == rep.iterations + 1
    assert all(math.isfinite(c) for r in rep.trace for c in r.x.coords)


def test_divergence_on_the_first_map_evaluation():
    # T x0 itself overflows: no trace row can be formed.
    T = ScalarAffine(3.0, el(1, 0))
    x0 = el(1e308, 0)
    rep = picard_solve(T, x0, SolveConfig(), SP)
    assert rep.status == SolveStatus.DIVERGED
    assert rep.iterations == 0 and len(rep.trace) == 0
    rep = local_ball_solve(T, certify(0.0, 0.5, Provenance.asserted()), x0, el(0, 1),
                           1.0, SolveConfig(), SP)
    assert rep.status == SolveStatus.DIVERGED and len(rep.trace) == 0


# --- trace columns against a scalar recomputation ------------------------------------

def _scalar_norms(space, wset, v):
    return tuple(two_norm(space, v, z) for z in wset.witnesses)


def assert_trace_matches_scalar_kernel(T, rep, wset, space):
    """Every trace column and the bound-violation count, recomputed with the
    scalar kernel per witness and compared by float.hex."""
    rows = rep.trace
    for i, row in enumerate(rows):
        steps = (_scalar_norms(space, wset, row.x - rows[i - 1].x) if i
                 else tuple(0.0 for _ in wset.witnesses))
        assert [a.hex() for a in row.witness_steps] == [b.hex() for b in steps]
        assert row.step_residual.hex() == max(steps).hex()
        fixed = max(_scalar_norms(space, wset, T.apply(row.x) - row.x))
        assert row.fixed_residual.hex() == fixed.hex()
    violations = 0
    if rep.status == SolveStatus.CONVERGED and rep.certificate is not None:
        base = rows[1].step_residual if len(rows) > 1 else 0.0
        slack = 1e-12 * max(1.0, base)
        violations = sum(
            max(_scalar_norms(space, wset, row.x - rep.x_star)) > row.apriori_bound + slack
            for row in rows
        )
    assert rep.bound_violations == violations


def test_short_solve_columns_match_the_scalar_kernel(monkeypatch):
    # 3 * iterations + 1 rows at two cross2 witnesses each cost fewer than 24
    # kernel calls: the columns take the per-vector path, not the batch.
    batch_calls = []
    batch = space_module.two_norm_batch
    monkeypatch.setattr(space_module, "two_norm_batch",
                        lambda *a: batch_calls.append(a) or batch(*a))
    T = ScalarAffine(-0.5, el(1.0, 2.0))
    cert = certify(0.25, 0.25, Provenance.closed_form())
    rep = krasnoselskij_solve(T, cert, el(4, -3), SolveConfig(tol=1e-1), SP)
    assert rep.status == SolveStatus.CONVERGED and rep.iterations == 3
    assert (3 * rep.iterations + 1) * 2 < space_module._ROWS_BATCH_MIN
    assert batch_calls == []
    assert_trace_matches_scalar_kernel(T, rep, WIT, SP)


def test_gram8_solve_columns_match_the_scalar_kernel():
    # A converged gram:8 run long enough for the batch path, against a
    # witness set that is not the standard basis.
    space = gram_space(8)
    wset = WitnessSet(tuple(
        SpaceElement(tuple(float(j == i) + 0.5 * float(j == (i + 1) % 8) for j in range(8)))
        for i in range(8)
    ) + (el(1, -1, 1, -1, 1, -1, 1, -1),))
    T = ScalarAffine(-0.8, el(1, -2, 0.5, 3, -0.25, 0, -1.5, 2))
    cert = certify(0.25, 0.55, Provenance.closed_form())
    cfg = SolveConfig(tol=1e-12, witnesses=wset)
    rep = krasnoselskij_solve(T, cert, el(3, 1, -4, 1, 5, -9, 2, 6), cfg, space)
    assert rep.status == SolveStatus.CONVERGED and 3 * rep.iterations + 1 >= 24
    assert_trace_matches_scalar_kernel(T, rep, wset, space)


@pytest.mark.parametrize("space, T, theta, x0, tol, batch", [
    (cross2_space(), ScalarAffine(-0.5, el(1, 2)), 0.25, el(0.5, 1), 1e-2, False),
    (gram_space(8), ScalarAffine(-0.8, el(1, -2, 0.5, 3, -0.25, 0, -1.5, 2)), 0.55,
     el(3, 1, -4, 1, 5, -9, 2, 6), 1e-12, True),
], ids=["cross2-scalar-path", "gram:8-batch-path"])
def test_trace_rows_hold_python_floats_on_both_paths(space, T, theta, x0, tol, batch):
    # The columns come out of one float64 array; every value the report
    # hands on is a Python float (n an int), whichever path evaluated it.
    rep = krasnoselskij_solve(T, certify(0.25, theta, Provenance.closed_form()), x0,
                              SolveConfig(tol=tol), space)
    assert rep.status == SolveStatus.CONVERGED and rep.bound_violations == 0
    # The block's kernel calls: 3m + 1 rows, each two_norm per cross2 witness
    # or one closed form on the gram basis.
    calls = (3 * rep.iterations + 1) * (1 if batch else 2)
    assert (calls >= space_module._ROWS_BATCH_MIN) == batch
    for row in rep.trace:
        assert type(row.n) is int
        for value in (row.step_residual, row.fixed_residual, row.apriori_bound,
                      *row.witness_steps, *row.x.coords):
            assert type(value) is float
    assert all(type(c) is float for c in rep.x_star.coords)


def test_divergent_solve_columns_match_the_scalar_kernel():
    # Past about 1.3e300 the cross2 kernels give NaN: rows 629-645 of this
    # Picard run hold NaN residuals, and the batch path must keep them NaN.
    T = ScalarAffine(3.0, el(1, 0))
    rep = picard_solve(T, el(0.5, 0.25), SolveConfig(), SP)
    assert rep.status == SolveStatus.DIVERGED and rep.iterations == 645
    nan_rows = [r.n for r in rep.trace
                if math.isnan(r.step_residual) or math.isnan(r.fixed_residual)]
    assert nan_rows == list(range(629, 646))
    assert_trace_matches_scalar_kernel(T, rep, WIT, SP)


@pytest.mark.parametrize("space, T, x0, iterations", [
    (cross2_space(), ScalarAffine(-1.5, el(1, 0)), el(0.5, 0.25), 1751),
    (gram_space(3), ScalarAffine(-1.5, el(1, 0, -2)), el(0.5, 0.25, 3), 1744),
], ids=["cross2", "gram:3"])
def test_divergence_through_an_overflowing_difference(space, T, x0, iterations):
    # The next Picard point x = T x_n and its image T x are finite, but
    # T x - x overflows: the run ends Diverged before that row is recorded.
    wset = standard_basis(space.dimension)
    rep = picard_solve(T, x0, SolveConfig(), space)
    assert rep.status == SolveStatus.DIVERGED
    assert rep.iterations == iterations and len(rep.trace) == iterations + 1
    x_next = T.apply(rep.trace[-1].x)
    t_next = T.apply(x_next)
    assert not all(math.isfinite(a - b) for a, b in zip(t_next.coords, x_next.coords))
    assert_trace_matches_scalar_kernel(T, rep, wset, space)


_DIVERGED_AT_39 = "Diverged: the iteration overflowed after 39 iteration(s)."


@pytest.mark.parametrize("hi, status, warned, reason", [
    (None, SolveStatus.DIVERGED, False, _DIVERGED_AT_39),
    (3.2e307, SolveStatus.DIVERGED, False, _DIVERGED_AT_39),
    (1e307, SolveStatus.LEFT_DOMAIN, True, "Iterate 39 left the box where the certificate holds."),
], ids=["no-box", "box-past-x39", "box-short-of-x39"])
def test_an_overflowing_difference_ends_the_run_before_the_box_test(hi, status, warned, reason):
    # x -> -5x averaged with lam = 1/2 doubles and flips the point: x_n =
    # (-2)^n x0, so x_39 = -1.65e307 and x_40 = 3.3e307 are finite, but T x_40
    # - x_40 = -1.98e308 overflows. A run ends Diverged at that difference,
    # before x_40 meets any box it leaves; a box that x_39 leaves already
    # ends it LeftDomain at iteration 39, with the box's warning.
    box = Box((-hi, -1.0), (hi, 1.0)) if hi is not None else None
    T = ScalarAffine(-5.0, el(0, 0))
    rep = krasnoselskij_solve(T, certify(1.0, 1.5, Provenance.closed_form(box)),
                              el(3.3e307 / 2**40, 0), SolveConfig(max_iter=200), cross2_space())
    assert rep.status == status
    assert rep.iterations == 39 and len(rep.trace) == 40
    assert rep.trace[-1].x.coords[0] == -1.65e307
    assert rep.x_star is None and rep.period is None
    assert rep.reason == reason
    assert rep.warnings == ((f"iterate 39 left the box lo={box.lo} hi={box.hi}, "
                             "the only region where the certificate holds",) if warned else ())
    assert_trace_matches_scalar_kernel(T, rep, WIT, SP)


def test_an_overflowing_fixed_point_row_ends_the_run_at_once():
    # With lam = 3/4, T x0 = -u/3 = (-5e307, 0) and x1 = (-3.75e307, 0), which
    # lies in the region: T x1 = u = (1.5e308, 0), and T x1 - x1 overflows.
    # The run ends Diverged before recording x1, with T evaluated twice; it
    # once went on for 28 more evaluations, whose rows the trace then cut.
    T = CountingMap(PiecewiseTwoSet(SupNormRegion(2.0), el(1.5e308, 0)))
    rep = krasnoselskij_solve(T, certify(1 / 3, 0.5, Provenance.asserted()), el(0, 0),
                              SolveConfig(max_iter=10_000), SP)
    assert rep.status == SolveStatus.DIVERGED
    assert rep.iterations == 0 and len(rep.trace) == 1
    assert rep.x_star is None and rep.period is None
    assert T.calls == 2
    assert_trace_matches_scalar_kernel(T, rep, WIT, SP)


# --- the a priori column and the post-hoc bound check -------------------------------

def _apriori_cases():
    zero_d = certify(1.0, 0.0, Provenance.asserted())
    pw_cert = certify(1.0, 1.0, Provenance.asserted())
    slow = certify(0.0, 0.99, Provenance.closed_form())
    third = reflection_cert()
    return {
        "d=0": lambda: krasnoselskij_solve(Reflection(el(2, 0)), zero_d, el(-7.3, 4.4),
                                           SolveConfig(tol=1e-10), SP),
        "asymptotic": lambda: asymptotic_solve(default_piecewise(3), 2, pw_cert,
                                               el(5, -0.5, 3), SolveConfig(tol=1e-10),
                                               gram_space(3)),
        "d=0.99": lambda: krasnoselskij_solve(ScalarAffine(0.99, el(1, -2, 0.5)), slow,
                                              el(0, 0, 0), SolveConfig(tol=1e-4),
                                              gram_space(3)),
        "max-iter": lambda: krasnoselskij_solve(Reflection(el(2, 0)), third, el(0, 0),
                                                SolveConfig(max_iter=3), SP),
    }


@pytest.mark.parametrize("case", ["d=0", "asymptotic", "d=0.99", "max-iter"])
def test_apriori_column_is_apriori_bound_bitwise(case):
    # Every row's bound, converged or not, is apriori_bound(cert, n, base)
    # with base the first step's residual, by float.hex.
    rep = _apriori_cases()[case]()
    assert rep.status == (SolveStatus.MAX_ITER if case == "max-iter"
                          else SolveStatus.CONVERGED)
    assert rep.certificate is not None and len(rep.trace) >= 2
    if case == "d=0.99":
        assert rep.certificate.d == 0.99 and rep.iterations > 1000
    base = rep.trace[1].step_residual
    for row in rep.trace:
        assert row.apriori_bound.hex() == apriori_bound(rep.certificate, row.n, base).hex()
    if case == "d=0":
        assert [r.apriori_bound for r in rep.trace] == [base, 0.0]


def test_uncertified_rows_have_nan_bounds():
    converged = picard_solve(ScalarAffine(0.5, el(1, 0)), el(4, -3), SolveConfig(), SP)
    oscillating = picard_solve(Reflection(el(2, 0)), el(0, 0), SolveConfig(), SP)
    assert converged.status == SolveStatus.CONVERGED and len(converged.trace) > 2
    assert oscillating.status == SolveStatus.OSCILLATION
    for rep in (converged, oscillating):
        assert rep.bound_violations == 0
        assert all(math.isnan(r.apriori_bound) for r in rep.trace)


def _solve_with_edited_gaps(monkeypatch, edit, space=SP, T=None, x0=None):
    """A converged, certified solve whose trace rows pass through ``edit``.

    The solver evaluates the step rows, the fixed-point rows and the gaps
    x_n - x_star in one witness_norm_rows call, an ``(3m + 1, k)`` array;
    ``edit(rows, m)`` may overwrite any of its entries before the solver
    reads them.
    """
    real = solver_module.witness_norm_rows

    def patched(sp, wset, vectors):
        rows = real(sp, wset, vectors)
        m = (len(rows) - 1) // 3
        assert len(rows) == 3 * m + 1
        edit(rows, m)
        return rows

    monkeypatch.setattr(solver_module, "witness_norm_rows", patched)
    T = T if T is not None else Reflection(el(2, 0))
    x0 = x0 if x0 is not None else el(0, 0)
    return krasnoselskij_solve(T, reflection_cert(), x0, SolveConfig(tol=1e-10), space)


def _limit(rows, n):
    # The bound check's limit on row n: the a priori bound plus the slack.
    base = max(rows[0])
    return apriori_bound(reflection_cert(), n, base) + 1e-12 * max(1.0, base)


@pytest.mark.parametrize("gap, violations", [
    (lambda rows, m, n: (rows[2 * m + n][0], math.nan), 1),
    (lambda rows, m, n: (math.inf, rows[2 * m + n][1]), 1),
    (lambda rows, m, n: (0.0, _limit(rows, n)), 0),
    (lambda rows, m, n: (0.0, math.nextafter(_limit(rows, n), math.inf)), 1),
], ids=["nan-gap", "inf-gap", "at-limit", "one-ulp-past-limit"])
def test_bound_check_counts_one_violation_per_failing_row(monkeypatch, gap, violations):
    # One witness gap of row 3 is replaced: a NaN or inf gap fails the row
    # once, a gap exactly at bound + slack passes, one ulp past it fails.
    def edit(rows, m):
        rows[2 * m + 3] = gap(rows, m, 3)

    rep = _solve_with_edited_gaps(monkeypatch, edit)
    assert rep.iterations > 5 and rep.bound_violations == violations
    assert rep.status == (SolveStatus.CERTIFICATE_VIOLATED if violations
                          else SolveStatus.CONVERGED)


def test_a_nan_base_makes_every_row_one_violation(monkeypatch):
    # A NaN first step residual makes the base, and so every row's a priori
    # bound, NaN; each row then fails the check once, however many witnesses
    # (three here) pass.
    def edit(rows, m):
        rows[0, 0] = math.nan

    rep = _solve_with_edited_gaps(monkeypatch, edit, gram_space(3),
                                  Reflection(el(2, 0, -1)), el(0, 1, 0))
    assert all(math.isnan(r.apriori_bound) for r in rep.trace)
    assert rep.bound_violations == len(rep.trace) > 2
    assert rep.status == SolveStatus.CERTIFICATE_VIOLATED
