"""Tests for the iteration engine: solves, bounds, stopping, cycles."""

import math
import random

import pytest

from enrichedfp.analyzer import Provenance, certify
from enrichedfp.mapping import (
    Reflection,
    ScalarAffine,
    SelfMap,
    averaged,
    default_piecewise,
    iterated,
)
from enrichedfp.solver import (
    Domain,
    SolveConfig,
    SolveStatus,
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
    rows = rep.trace.rows
    base = rows[1].step_residual
    d = rep.certificate.d
    for prev, cur in zip(rows[1:], rows[2:]):
        assert cur.step_residual <= d * prev.step_residual + 1e-12 * max(1.0, base)


def test_apriori_dominance_along_trace():
    rep = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                              SolveConfig(tol=1e-10), SP)
    base = rep.trace.rows[1].step_residual
    slack = 1e-12 * max(1.0, base)
    for row in rep.trace.rows:
        assert witness_residual(SP, WIT, row.x, rep.x_star) <= row.apriori_bound + slack
    assert rep.bound_violations == 0


def test_trace_row_structure():
    rep = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                              SolveConfig(tol=1e-10), SP)
    rows = rep.trace.rows
    assert [r.n for r in rows] == list(range(len(rows)))
    assert rows[0].step_residual == 0.0
    assert rows[0].witness_steps == (0.0, 0.0)
    base = rows[1].step_residual
    for r in rows:
        assert r.apriori_bound == apriori_bound(rep.certificate, r.n, base)
        assert max(r.witness_steps) == r.step_residual or r.n == 0


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
    domain = Domain(Box((-0.5, -0.5), (0.5, 0.5)))
    rep = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                              SolveConfig(domain=domain), SP)
    assert rep.status == SolveStatus.LEFT_DOMAIN
    assert rep.iterations == 1  # first iterate (4/3, 0) already escapes


def test_left_domain_when_start_outside():
    domain = Domain(Box((-0.5, -0.5), (0.5, 0.5)))
    rep = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(5, 5),
                              SolveConfig(domain=domain), SP)
    assert rep.status == SolveStatus.LEFT_DOMAIN
    assert rep.iterations == 0


def test_bound_beta_consistency_warning():
    inside = Domain(Box((-10, -10), (10, 10)), bound_beta=0.1)
    rep = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                              SolveConfig(domain=inside), SP)
    assert any("bound_beta" in w for w in rep.warnings)
    roomy = Domain(Box((-10, -10), (10, 10)), bound_beta=10.0)
    rep2 = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                               SolveConfig(domain=roomy), SP)
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
    assert all(math.isnan(r.apriori_bound) for r in rep.trace.rows)


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
    for row in rep.trace.rows:
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
    assert [r.x for r in a.trace.rows] == [r.x for r in b.trace.rows]


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
    with pytest.raises(ValueError):
        SolveConfig(cycle_window=1)


def test_two_norm_ball_domain():
    ball = Domain(TwoNormBall(el(0, 1), el(0, 0), 5.0, closed=True))
    rep = krasnoselskij_solve(Reflection(el(2, 0)), reflection_cert(), el(0, 0),
                              SolveConfig(domain=ball), SP)
    assert rep.status == SolveStatus.CONVERGED


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

    def apply_batch(self, xs):
        return self.inner.apply_batch(xs)


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
    assert [r.x for r in rep.trace.rows] == [el(1.0, 1.0)]


def test_divergent_solves_stop_with_a_status():
    # |c| > 1 under plain iteration, and an asserted theta the map violates.
    rep = picard_solve(ScalarAffine(3.0, el(1, 0)), el(0.5, 0.25), SolveConfig(), SP)
    assert rep.status == SolveStatus.DIVERGED and rep.iterations > 600
    cert = certify(0.0, 0.5, Provenance.asserted())
    rep = krasnoselskij_solve(ScalarAffine(1.5, el(1, 0)), cert, el(0.5, 0.25),
                              SolveConfig(), SP)
    assert rep.status == SolveStatus.DIVERGED
    assert len(rep.trace.rows) == rep.iterations + 1
    assert all(math.isfinite(c) for r in rep.trace.rows for c in r.x.coords)


def test_divergence_on_the_first_map_evaluation():
    # T x0 itself overflows: no trace row can be formed.
    T = ScalarAffine(3.0, el(1, 0))
    x0 = el(1e308, 0)
    rep = picard_solve(T, x0, SolveConfig(), SP)
    assert rep.status == SolveStatus.DIVERGED
    assert rep.iterations == 0 and rep.trace.rows == ()
    rep = local_ball_solve(T, certify(0.0, 0.5, Provenance.asserted()), x0, el(0, 1),
                           1.0, SolveConfig(), SP)
    assert rep.status == SolveStatus.DIVERGED and rep.trace.rows == ()


# --- trace columns against a scalar recomputation ------------------------------------

def _scalar_norms(space, wset, v):
    return tuple(two_norm(space, v, z) for z in wset.witnesses)


def assert_trace_matches_scalar_kernel(T, rep, wset, space):
    """Every trace column and the bound-violation count, recomputed with the
    scalar kernel per witness and compared by float.hex."""
    rows = rep.trace.rows
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


def test_short_solve_columns_match_the_scalar_kernel():
    # 3 * iterations + 1 < 24 vectors: the columns take the per-vector path.
    T = ScalarAffine(-0.5, el(1.0, 2.0))
    cert = certify(0.25, 0.25, Provenance.closed_form())
    rep = krasnoselskij_solve(T, cert, el(4, -3), SolveConfig(tol=1e-4), SP)
    assert rep.status == SolveStatus.CONVERGED and 3 * rep.iterations + 1 < 24
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


def test_divergent_solve_columns_match_the_scalar_kernel():
    # Past about 1.3e300 the cross2 kernels give NaN: rows 629-645 of this
    # Picard run hold NaN residuals, and the batch path must keep them NaN.
    T = ScalarAffine(3.0, el(1, 0))
    rep = picard_solve(T, el(0.5, 0.25), SolveConfig(), SP)
    assert rep.status == SolveStatus.DIVERGED and rep.iterations == 645
    nan_rows = [r.n for r in rep.trace.rows
                if math.isnan(r.step_residual) or math.isnan(r.fixed_residual)]
    assert nan_rows == list(range(629, 646))
    assert_trace_matches_scalar_kernel(T, rep, WIT, SP)
