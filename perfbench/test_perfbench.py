"""Tests of the benchmark's own machinery: generators, percentile, tracing.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for entry in (str(HERE), str(HERE.parent / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from enrichedfp import cli, mapping, solver, space  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    a = workloads.generate(name, 7)
    b = workloads.generate(name, 7)
    c = workloads.generate(name, 8)
    assert a == b
    assert [s.text for s in a.cycle] != [s.text for s in c.cycle]
    # Same categories in every seed: only the drawn parameters change.
    assert sorted(s.category for s in a.cycle) == sorted(s.category for s in c.cycle)
    assert len(a.cycle) >= workloads.MIN_DISTINCT
    assert len({s.name for s in a.cycle}) == len(a.cycle)
    for scn in a.cycle:
        cli.parse_scenario_text(scn.text)
        assert (scn.x_true is not None) == (scn.expect_exit == workloads.EXIT_CONVERGED)


def test_percentile_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.percentile(samples, 0.9) == 90.0
    assert run.percentile(samples, 0.5) == 50.0
    with pytest.raises(ValueError):
        run.percentile(samples[:99], 0.9)
    assert run.percentile([1.0] * 20, 0.5) == 1.0
    with pytest.raises(ValueError):
        run.percentile([1.0] * 19, 0.5)


def test_failed_samples_count_as_infinite_latency():
    samples = [1.0] * 89 + [math.inf] * 11
    assert run.percentile(samples, 0.9) == math.inf
    assert run.percentile(samples, 0.5) == 1.0


def test_witness_residual_matches_the_package():
    x = space.SpaceElement((0.5, -2.0, 3.25))
    y = space.SpaceElement((1.0, 0.75, -1.5))
    ours = workloads.witness_residual(x.coords, y.coords)
    theirs = space.witness_residual(space.gram_space(3), space.standard_basis(3), x, y)
    assert ours == pytest.approx(theirs, rel=1e-14)


def test_tracer_install_and_uninstall_restores_every_name():
    originals = (space.two_norm, solver.two_norm, solver.witness_residual,
                 cli.main, mapping.ScalarAffine.apply, mapping.Averaged.apply)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert solver.two_norm is space.two_norm is not originals[0]
        assert hasattr(solver.witness_residual, "__perfbench_span__")
        assert "Averaged.apply" in spans.installed_wrappers()
        with pytest.raises(RuntimeError):
            tracer.install()
        text = workloads.DEMOS["reflection"][0].replace("map.kind=reflection\nmap.w=2,0",
                                                        "map.kind=averaged\nmap.lambda=0.5\n"
                                                        "map.inner.kind=scalar_affine\n"
                                                        "map.inner.scale=-0.5\n"
                                                        "map.inner.shift=1,0")
        cfg = cli.parse_scenario_text(text)
        report, code = cli.run_scenario(cfg)
        assert code == 0
    finally:
        tracer.uninstall()
    assert spans.installed_wrappers() == []
    assert (space.two_norm, solver.two_norm, solver.witness_residual, cli.main,
            mapping.ScalarAffine.apply, mapping.Averaged.apply) == originals

    recorded = list(tracer.spans)
    names = [s[0] for s in recorded]
    assert names.count("cli.run_scenario") == 1
    assert "solver.krasnoselskij_solve" in names and "space.two_norm" in names
    # The inner ScalarAffine node is a child span of its Averaged parent.
    nested = [s for s in recorded if s[0] == "mapping.apply" and s[3] >= 0
              and recorded[s[3]][0] == "mapping.apply"]
    assert nested
    m = spans.layer_metrics(tracer, 1.0, 1.0, 0)
    assert set(m) == set(spans.PER_LAYER_UNITS)
    assert m["solver.iterations"] == report.iterations > 0
    assert m["space.two_norm.per_iteration"] > 0


def test_sweep_cycle_passes_its_checks(tmp_path):
    workload = run.write_scenarios(workloads, "scenario-sweep", 3, tmp_path)
    runner = run.Runner(cli, workloads, workload, tmp_path)
    for _ in range(2):
        for k in range(len(workload.cycle)):
            runner.run(k)
    assert runner.failures == {}
    assert runner.attempted == 2 * len(workload.cycle)
    assert runner.artifact_sha256() is not None


def test_check_rejects_a_wrong_fixed_point(tmp_path):
    workload = run.write_scenarios(workloads, "scenario-sweep", 3, tmp_path)
    k = next(i for i, s in enumerate(workload.cycle) if s.expect_exit == 0)
    scn = workload.cycle[k]
    p = run._paths(tmp_path, f"s{k:03d}")
    call = run.call_main(cli, p)
    assert run.check(scn, call, *run.artifacts(p), workloads) is None
    moved = tuple(c + 1e-9 for c in scn.x_true)
    wrong = workloads.Scenario(scn.name, scn.category, scn.text, 0, moved, space=scn.space)
    assert "exceeds" in run.check(wrong, call, *run.artifacts(p), workloads)
