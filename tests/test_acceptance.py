"""Acceptance suite: one test per criterion, one pass line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here, not configurable.
"""

import random
import time

import pytest

from enrichedfp.analyzer import (
    Provenance,
    certify,
    estimate_theta,
    optimize_b,
    theta_scalar_affine,
)
from enrichedfp.cli import DEMO_SCENARIOS, main, parse_scenario_text, run_scenario
from enrichedfp.mapping import Reflection, ScalarAffine, default_piecewise
from enrichedfp.solver import (
    SolveConfig,
    SolveStatus,
    TwoNormBall,
    apriori_bound,
    asymptotic_solve,
    krasnoselskij_solve,
    local_ball_solve,
)
from enrichedfp.space import (
    Box,
    SpaceElement,
    check_axioms,
    cross2_space,
    gram_space,
    standard_basis,
    witness_residual,
)

SP = cross2_space()
WIT = standard_basis(2)


def el(*coords):
    return SpaceElement(tuple(float(c) for c in coords))


def _passed(n: int, text: str) -> None:
    print(f"[criterion {n:2d}] PASS  {text}")


def _assert_trace_bounds(report, space, witnesses):
    """Tail-bound dominance of inequality d^n/(1-d)*base along a trace."""
    rows = report.trace
    base = rows[1].step_residual if len(rows) > 1 else 0.0
    slack = 1e-12 * max(1.0, base)
    cert = report.certificate
    for row in rows:
        bound = apriori_bound(cert, row.n, base)
        assert witness_residual(space, witnesses, row.x, report.x_star) <= bound + slack
    assert report.bound_violations == 0


def _random_affine_runs(count, seed):
    """Seeded certified scenarios: random affine maps solved from random x0."""
    rng = random.Random(seed)
    runs = []
    for _ in range(count):
        dim = rng.choice((2, 3))
        space = cross2_space() if dim == 2 else gram_space(3)
        wit = standard_basis(dim)
        c = rng.uniform(-3.0, 0.9)
        shift = el(*(rng.uniform(-2, 2) for _ in range(dim)))
        T = ScalarAffine(c, shift)
        box = Box.symmetric(dim)
        _, cert = optimize_b(T, space, box)
        x0 = el(*(rng.uniform(-5, 5) for _ in range(dim)))
        report = krasnoselskij_solve(T, cert, x0, SolveConfig(tol=1e-10), space)
        runs.append((space, wit, T, cert, report))
    return runs


def test_criterion_01_axiom_suite():
    cases = [("cross2", 42), ("gram:2", 43), ("gram:3", 44), ("gram:4", 45)]
    t0 = time.perf_counter()
    for label, seed in cases:
        code = main(["check-norm", "--space", label, "--samples", "10000",
                     "--seed", str(seed), "--tol", "1e-9"])
        assert code == 0, f"check-norm failed for {label}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"axiom suite took {elapsed:.3f}s"

    def mutated(X, Y):
        return X[:, 0] * Y[:, 1] + X[:, 1] * Y[:, 0]

    broken = check_axioms(cross2_space(), 10_000, seed=42, tolerance=1e-9, norm_fn=mutated)
    assert not broken.passed
    assert broken.violation_count > 0
    assert len(broken.violations) > 0
    _passed(1, f"four axioms on 4 spaces in {elapsed:.2f}s; mutated evaluator "
               f"rejected with {broken.violation_count} recorded violations")


def test_criterion_02_reflection_convergence():
    cert = certify(0.5, 0.5, Provenance.closed_form())
    assert cert.lam == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert cert.d == pytest.approx(1.0 / 3.0, abs=1e-15)
    report = krasnoselskij_solve(Reflection(el(2, 0)), cert, el(0, 0),
                                 SolveConfig(tol=1e-10), SP)
    assert report.status == SolveStatus.CONVERGED
    assert report.iterations <= 25
    assert witness_residual(SP, WIT, report.x_star, el(1, 0)) <= 1e-10
    rows = report.trace
    base = rows[1].step_residual
    # per-step contraction at factor d, with 1e-12 slack at the trace scale
    # (the pure ratio form is unattainable in doubles near the tolerance)
    for prev, cur in zip(rows[1:], rows[2:]):
        assert cur.step_residual <= cert.d * prev.step_residual + 1e-12 * max(1.0, base)
    _passed(2, f"converged to (1,0) in {report.iterations} <= 25 iterations, "
               f"residual <= 1e-10, every step within factor 1/3")


def test_criterion_03_optimal_averaging():
    text = DEMO_SCENARIOS["reflection"].replace("b=0.5", "b=auto")
    report, code = run_scenario(parse_scenario_text(text))
    assert code == 0
    cert = report.certificate
    assert 0.99 <= cert.b <= 1.01
    assert cert.d <= 1e-6
    assert report.iterations <= 2
    assert report.status == SolveStatus.CONVERGED
    _passed(3, f"auto-b certified b*={cert.b} with d={cert.d}, "
               f"converged in {report.iterations} <= 2 iterations")


def test_criterion_04_picard_failure():
    report, code = run_scenario(parse_scenario_text(DEMO_SCENARIOS["picard-oscillation"]))
    assert code == 3
    assert report.status == SolveStatus.OSCILLATION
    assert report.period == 2
    assert report.iterations <= 4
    _passed(4, f"picard on the reflection oscillates with period 2 at "
               f"iteration {report.iterations} <= 4, exit code 3")


def test_criterion_05_apriori_bound_dominance():
    # traces from criteria 2 and 3
    cert = certify(0.5, 0.5, Provenance.closed_form())
    rep2 = krasnoselskij_solve(Reflection(el(2, 0)), cert, el(0, 0),
                               SolveConfig(tol=1e-10), SP)
    _assert_trace_bounds(rep2, SP, WIT)
    rep3, _ = run_scenario(parse_scenario_text(
        DEMO_SCENARIOS["reflection"].replace("b=0.5", "b=auto")))
    _assert_trace_bounds(rep3, SP, WIT)
    # ten randomized certified scenarios
    checked = 0
    for space, wit, T, cert_i, report in _random_affine_runs(10, seed=2024):
        assert report.status == SolveStatus.CONVERGED
        _assert_trace_bounds(report, space, wit)
        checked += 1
    assert checked == 10
    _passed(5, "a priori tail bound dominates every row of 12 converged traces, "
               "bound_violations = 0 throughout")


def test_criterion_06_theta_oracle():
    box = Box.symmetric(2)
    shift = el(0.7, -0.3)
    for c in (-3.0, -1.0, -0.5, 0.3):
        T = ScalarAffine(c, shift)
        for b in (0.0, 0.5, 1.0, 2.0, 4.0):
            exact = theta_scalar_affine(c, b)
            assert exact == abs(b + c)  # closed form is |b + c| itself
            est = estimate_theta(T, b, SP, box, WIT, 100_000, seed=12345)
            assert 0.99 * exact <= est.theta_hat <= exact + 1e-12, (
                f"c={c} b={b}: theta_hat={est.theta_hat!r} exact={exact!r}"
            )
    _passed(6, "sampled theta_hat within [0.99|b+c|, |b+c|+1e-12] for all 20 "
               "(c, b) pairs at 1e5 samples; closed form exact")


def test_criterion_07_local_solver():
    cert = certify(1.0, 0.0, Provenance.asserted())
    cfg = SolveConfig(tol=1e-10)
    ok = local_ball_solve(Reflection(el(2, 0)), cert, el(0, 0), el(0, 1), 2.0, cfg, SP)
    assert ok.status == SolveStatus.CONVERGED
    assert ok.precondition == (2.0, 4.0)
    assert witness_residual(SP, WIT, ok.x_star, el(1, 0)) <= 1e-10
    for row in ok.trace:
        assert TwoNormBall(el(0, 1), el(0, 0), ok.epsilon).contains(SP, row.x)

    bad = local_ball_solve(Reflection(el(2, 0)), cert, el(0, 0), el(0, 1), 0.5, cfg, SP)
    assert bad.status == SolveStatus.PRECONDITION_FAILED
    assert bad.precondition == (2.0, 1.0)
    # exit-code mapping for the same scenario through the cli layer
    text = """\
schema=1
space.kind=cross2
mode=local
map.kind=reflection
map.w=2,0
b=1
theta=0
x0=0,0
local.u=0,1
local.r=0.5
"""
    _, code = run_scenario(parse_scenario_text(text))
    assert code == 2
    _passed(7, "ball precondition accepts r=2 (2 < 4) with invariant iterates, "
               "rejects r=0.5 (2 !< 1) with exit code 2")


def test_criterion_08_asymptotic_solver():
    T = default_piecewise(2)
    cert = certify(1.0, 1.0, Provenance.asserted())
    cfg = SolveConfig(tol=1e-10)
    report = asymptotic_solve(T, 2, cert, el(5, 5), cfg, SP)
    assert report.status == SolveStatus.CONVERGED
    target = el(-1.0 / 3.0, -1.0 / 3.0)
    assert witness_residual(SP, WIT, report.x_star, target) <= 1e-10
    t_res = witness_residual(SP, WIT, T.apply(report.x_star), report.x_star)
    assert t_res <= 1e-10
    _passed(8, f"T^2 iteration converged to (-1/3, -1/3); the point is fixed "
               f"by T itself (residual {t_res:.2e})")


def test_criterion_09_uniqueness_probe():
    rng = random.Random(77)
    tol = 1e-10
    scenarios = []
    cert_r = certify(0.5, 0.5, Provenance.closed_form())
    scenarios.append(("reflection", SP, WIT,
                      lambda x0: krasnoselskij_solve(Reflection(el(2, 0)), cert_r, x0,
                                                     SolveConfig(tol=tol), SP)))
    cert_a = certify(0.0, 0.5, Provenance.asserted())
    scenarios.append(("affine", SP, WIT,
                      lambda x0: krasnoselskij_solve(ScalarAffine(0.5, el(1, 0)), cert_a,
                                                     x0, SolveConfig(tol=tol), SP)))
    cert_p = certify(1.0, 1.0, Provenance.asserted())
    scenarios.append(("piecewise^2", SP, WIT,
                      lambda x0: asymptotic_solve(default_piecewise(2), 2, cert_p, x0,
                                                  SolveConfig(tol=tol), SP)))
    for name, space, wit, solve in scenarios:
        limits = []
        for _ in range(10):
            x0 = el(rng.uniform(-8, 8), rng.uniform(-8, 8))
            report = solve(x0)
            assert report.status == SolveStatus.CONVERGED, name
            limits.append(report.x_star)
        for a in limits:
            for b in limits:
                assert witness_residual(space, wit, a, b) <= 2 * tol, name
    _passed(9, "limits from 10 seeded starts agree pairwise within 2*tol on "
               "all three certified scenarios")


def test_criterion_10_determinism(tmp_path):
    for name in sorted(DEMO_SCENARIOS):
        d1, d2 = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        c1 = main(["demo", name, "--outdir", str(d1)])
        c2 = main(["demo", name, "--outdir", str(d2)])
        assert c1 == c2
        for suffix in ("report.txt", "trace.csv", "scenario"):
            f1, f2 = d1 / f"{name}.{suffix}", d2 / f"{name}.{suffix}"
            assert f1.exists() == f2.exists()
            if f1.exists():
                assert f1.read_bytes() == f2.read_bytes(), f"{name}.{suffix}"
    _passed(10, "rerunning every demo scenario reproduces trace CSV and "
                "report byte for byte")
