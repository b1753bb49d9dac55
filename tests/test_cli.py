"""Tests for scenario parsing, the run orchestration and artifact emission."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp.cli import (
    DEMO_SCENARIOS,
    EXIT_CONVERGED,
    EXIT_DIVERGED,
    EXIT_INTERNAL,
    EXIT_NOT_CERTIFIABLE,
    EXIT_OSCILLATION,
    ScenarioError,
    emit_report,
    emit_trace_csv,
    fmt_float,
    main,
    parse_scenario,
    parse_scenario_text,
    report_text,
    run_scenario,
    write_scenario,
)
from enrichedfp.mapping import Reflection, default_piecewise
from enrichedfp.solver import IterationTrace, SolveReport, SolveStatus, TraceRow
from enrichedfp.space import SpaceElement, cross2_space, standard_basis

REFLECTION_SCENARIO = DEMO_SCENARIOS["reflection"]


def el(*coords):
    return SpaceElement(tuple(float(c) for c in coords))


# --- parsing ------------------------------------------------------------------

def test_parse_reflection_defaults():
    cfg = parse_scenario_text(REFLECTION_SCENARIO)
    assert cfg.space == cross2_space()
    assert cfg.mode == "krasnoselskij"
    assert cfg.map == Reflection(el(2, 0))
    assert cfg.b == 0.5
    assert cfg.theta == "estimate"
    assert cfg.x0 == el(0, 0)
    assert cfg.witnesses == standard_basis(2)
    assert cfg.tol == 1e-10
    assert cfg.max_iter == 10_000
    assert cfg.seed == 0
    assert cfg.n == 1
    assert cfg.sampling.count == 100_000
    assert cfg.sampling.eps_dep == 1e-8
    assert cfg.sampling.box.lo == (-10.0, -10.0)


def test_parse_rejects_local_mode_without_block():
    text = REFLECTION_SCENARIO.replace("mode=krasnoselskij", "mode=local")
    with pytest.raises(ScenarioError, match="local"):
        parse_scenario_text(text)


def test_parse_rejects_auto_b_with_numeric_theta():
    text = REFLECTION_SCENARIO.replace("b=0.5", "b=auto").replace("theta=estimate", "theta=0.5")
    with pytest.raises(ScenarioError, match="auto"):
        parse_scenario_text(text)


def test_parse_rejects_unknown_keys():
    with pytest.raises(ScenarioError, match="wibble"):
        parse_scenario_text(REFLECTION_SCENARIO + "wibble=1\n")


def test_parse_rejects_bad_schema_and_floats():
    with pytest.raises(ScenarioError, match="schema"):
        parse_scenario_text(REFLECTION_SCENARIO.replace("schema=1", "schema=2"))
    with pytest.raises(ScenarioError, match="tol"):
        parse_scenario_text(REFLECTION_SCENARIO.replace("tol=1e-10", "tol=banana"))


def test_parse_missing_file():
    with pytest.raises(ScenarioError, match="not found"):
        parse_scenario("/nonexistent/path/to.scenario")


def test_round_trip_simple():
    cfg = parse_scenario_text(REFLECTION_SCENARIO)
    assert parse_scenario_text(write_scenario(cfg)) == cfg


def test_round_trip_rich_configs():
    rich = """\
schema=1
space.kind=gram
space.dimension=3
mode=krasnoselskij
map.kind=averaged
map.lambda=0.25
map.inner.kind=scalar_affine
map.inner.scale=-2
map.inner.shift=1,0,2
b=0.75
theta=estimate
x0=1,2,3
witnesses=1,0,0;0,1,0;0,0,1;1,1,1
tol=1e-9
max_iter=500
seed=42
domain.kind=box
domain.lo=-50,-50,-50
domain.hi=50,50,50
domain.beta=100
sampling.count=5000
sampling.eps_dep=1e-7
sampling.lo=-5,-5,-5
sampling.hi=5,5,5
"""
    cfg = parse_scenario_text(rich)
    assert parse_scenario_text(write_scenario(cfg)) == cfg

    local = """\
schema=1
space.kind=cross2
mode=local
map.kind=reflection
map.w=2,0
b=1
theta=0
x0=0,0
local.u=0,1
local.r=2
domain.kind=ball
domain.u=0,1
domain.center=0,0
domain.radius=9
domain.closed=false
"""
    cfg2 = parse_scenario_text(local)
    assert parse_scenario_text(write_scenario(cfg2)) == cfg2

    piecewise = DEMO_SCENARIOS["asymptotic-piecewise"]
    cfg3 = parse_scenario_text(piecewise)
    assert cfg3.map == default_piecewise(2)
    assert parse_scenario_text(write_scenario(cfg3)) == cfg3


_num = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _vec(dim):
    return st.lists(_num, min_size=dim, max_size=dim).map(_csv)


def _bounds(dim):
    # Pairs lo <= hi per coordinate, as text.
    pairs = st.lists(st.tuples(_num, _num).map(sorted), min_size=dim, max_size=dim)
    return pairs.map(lambda ps: (_csv(p[0] for p in ps), _csv(p[1] for p in ps)))


def _map_lines(dim):
    """A random map tree as (key under the map prefix, value) pairs."""
    leaves = st.one_of(
        st.builds(lambda w: [("kind", "reflection"), ("w", w)], _vec(dim)),
        st.builds(lambda s, t: [("kind", "scalar_affine"), ("scale", repr(s)), ("shift", t)],
                  _num, _vec(dim)),
        st.builds(lambda u, th: [("kind", "piecewise_two_set"), ("u", u),
                                 ("region.threshold", repr(th))], _vec(dim), _num),
    )

    def nest(kind, key, value, inner):
        return [("kind", kind), (key, value)] + [(f"inner.{k}", v) for k, v in inner]

    def wrap(inner):
        return st.one_of(
            st.builds(lambda lam, sub: nest("averaged", "lambda", repr(lam), sub),
                      st.floats(min_value=0.0, max_value=1.0, exclude_min=True), inner),
            st.builds(lambda t, sub: nest("iterated", "times", str(t), sub),
                      st.integers(1, 5), inner),
        )

    return st.recursive(leaves, wrap, max_leaves=4)


@st.composite
def _scenario_texts(draw):
    dim = draw(st.sampled_from([2, 2, 3, 4]))
    kind = "cross2" if dim == 2 and draw(st.booleans()) else "gram"
    mode = draw(st.sampled_from(["krasnoselskij", "picard", "local", "asymptotic"]))
    lines = ["schema=1", f"space.kind={kind}", f"space.dimension={dim}", f"mode={mode}"]
    lines += [f"map.{k}={v}" for k, v in draw(_map_lines(dim))]
    if draw(st.booleans()):
        lines += ["b=auto", "theta=estimate"]
    else:
        theta = draw(st.one_of(st.just("estimate"), _positive.map(repr)))
        lines += [f"b={draw(_positive)!r}", f"theta={theta}"]
    lines += [f"n={draw(st.integers(1, 4))}", f"x0={draw(_vec(dim))}"]
    if draw(st.booleans()):
        scales = draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim))
        rows = [_csv(s if i == j else 0.0 for j in range(dim)) for i, s in enumerate(scales)]
        extra = st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim).map(_csv)
        lines.append("witnesses=" + ";".join(rows + draw(st.lists(extra, max_size=2))))
    lines += [f"tol={draw(_positive)!r}", f"max_iter={draw(st.integers(1, 10**6))}",
              f"seed={draw(st.integers(0, 2**32))}"]
    domain = draw(st.sampled_from([None, "box", "ball"]))
    if domain == "box":
        lo, hi = draw(_bounds(dim))
        lines += ["domain.kind=box", f"domain.lo={lo}", f"domain.hi={hi}"]
    elif domain == "ball":
        lines += ["domain.kind=ball", f"domain.u={draw(_vec(dim))}",
                  f"domain.center={draw(_vec(dim))}", f"domain.radius={draw(_positive)!r}",
                  f"domain.closed={draw(st.sampled_from(['true', 'false']))}"]
    if domain is not None and draw(st.booleans()):
        lines.append(f"domain.beta={draw(_num)!r}")
    if mode == "local" or draw(st.booleans()):
        lines += [f"local.u={draw(_vec(dim))}", f"local.r={draw(_positive)!r}"]
    lines += [f"sampling.count={draw(st.integers(1, 10**6))}",
              f"sampling.eps_dep={draw(_positive)!r}"]
    sampling = draw(st.sampled_from([None, "broadcast", "full"]))
    if sampling == "broadcast":
        lo, hi = draw(_bounds(1))
        lines += [f"sampling.lo={lo}", f"sampling.hi={hi}"]
    elif sampling == "full":
        lo, hi = draw(_bounds(dim))
        lines += [f"sampling.lo={lo}", f"sampling.hi={hi}"]
    return "\n".join(lines) + "\n"


@given(_scenario_texts())
@settings(max_examples=150, deadline=None)
def test_round_trip_property(text):
    cfg = parse_scenario_text(text)
    written = write_scenario(cfg)
    assert parse_scenario_text(written) == cfg
    assert write_scenario(parse_scenario_text(written)) == written
    assert cfg.sampling.box.dimension == cfg.space.dimension


def test_scalar_sampling_bounds_broadcast():
    text = REFLECTION_SCENARIO + "sampling.lo=-3\nsampling.hi=3\n"
    cfg = parse_scenario_text(text)
    assert cfg.sampling.box.lo == (-3.0, -3.0)
    assert cfg.sampling.box.hi == (3.0, 3.0)


# --- run_scenario ----------------------------------------------------------------

def test_run_reflection_explicit_b():
    cfg = parse_scenario_text(REFLECTION_SCENARIO)
    report, code = run_scenario(cfg)
    assert code == EXIT_CONVERGED
    assert report.status == SolveStatus.CONVERGED
    assert report.certificate.d == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert report.certificate.provenance.kind == "closed_form"


def test_run_reflection_auto_b():
    text = REFLECTION_SCENARIO.replace("b=0.5", "b=auto")
    report, code = run_scenario(parse_scenario_text(text))
    assert code == EXIT_CONVERGED
    assert 0.99 <= report.certificate.b <= 1.01
    assert report.certificate.d <= 1e-6
    assert report.iterations <= 2


def test_run_picard_oscillation_exit_code():
    report, code = run_scenario(parse_scenario_text(DEMO_SCENARIOS["picard-oscillation"]))
    assert code == EXIT_OSCILLATION == 3
    assert report.period == 2


def test_run_asymptotic_piecewise():
    report, code = run_scenario(parse_scenario_text(DEMO_SCENARIOS["asymptotic-piecewise"]))
    assert code == EXIT_CONVERGED
    x = report.x_star.coords
    assert abs(x[0] + 1.0 / 3.0) <= 1e-10 and abs(x[1] + 1.0 / 3.0) <= 1e-10


def test_run_asymptotic_with_sampled_theta():
    # theta=estimate on the piecewise square goes through the sampled path
    text = DEMO_SCENARIOS["asymptotic-piecewise"].replace("theta=1", "theta=estimate")
    report, code = run_scenario(parse_scenario_text(text))
    assert code == EXIT_CONVERGED
    assert report.certificate.provenance.kind == "sampled"
    x = report.x_star.coords
    assert abs(x[0] + 1.0 / 3.0) <= 1e-10 and abs(x[1] + 1.0 / 3.0) <= 1e-10


def test_run_asymptotic_with_auto_b():
    text = (DEMO_SCENARIOS["asymptotic-piecewise"]
            .replace("theta=1", "theta=estimate")
            .replace("b=1", "b=auto")
            + "sampling.count=30000\n")
    cfg = parse_scenario_text(text)
    assert cfg.sampling.count == 30_000
    report, code = run_scenario(cfg)
    assert code == EXIT_CONVERGED
    # the constant square needs no averaging: b* = 0 lands in one application
    assert report.certificate.b == 0.0
    assert report.iterations == 1


def test_run_accepts_valid_asserted_theta_and_rejects_invalid():
    ok = REFLECTION_SCENARIO.replace("b=0.5", "b=0.1").replace("theta=estimate", "theta=0.5")
    _, code = run_scenario(parse_scenario_text(ok))  # 0.5 < 1.1: certifiable
    assert code == EXIT_CONVERGED

    bad = REFLECTION_SCENARIO.replace("b=0.5", "b=0.1").replace("theta=estimate", "theta=1.2")
    report, code = run_scenario(parse_scenario_text(bad))
    assert code == EXIT_NOT_CERTIFIABLE == 2
    assert report.status == SolveStatus.PRECONDITION_FAILED
    assert any("certification failed" in w for w in report.warnings)


def test_run_local_mode_exit_codes():
    base = """\
schema=1
space.kind=cross2
mode=local
map.kind=reflection
map.w=2,0
b=1
theta=0
x0=0,0
local.u=0,1
local.r={r}
"""
    rep_ok, code_ok = run_scenario(parse_scenario_text(base.format(r=2)))
    assert code_ok == EXIT_CONVERGED
    assert rep_ok.epsilon == pytest.approx(1.5)
    rep_bad, code_bad = run_scenario(parse_scenario_text(base.format(r=0.5)))
    assert code_bad == EXIT_NOT_CERTIFIABLE
    assert rep_bad.status == SolveStatus.PRECONDITION_FAILED
    assert rep_bad.precondition == (2.0, 1.0)


# --- trace CSV --------------------------------------------------------------------

def test_emit_trace_csv_serialises_manual_trace(tmp_path):
    # a one-iterate trace of a constant map applied at its own value:
    # the second row's step residual is exactly zero
    wit = standard_basis(2)
    x = el(0.3, 0.7)
    rows = (
        TraceRow(0, x, 0.0, 0.0, 0.0, (0.0, 0.0)),
        TraceRow(1, x, 0.0, 0.0, 0.0, (0.0, 0.0)),
    )
    path = tmp_path / "t.csv"
    emit_trace_csv(IterationTrace(rows), wit, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,x_0,x_1,step_residual,fixed_residual,apriori_bound,res_w0,res_w1"
    assert len(lines) == 3
    assert lines[2].split(",")[3] == fmt_float(0.0)


def test_emit_trace_csv_refuses_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_trace_csv(IterationTrace(()), standard_basis(2), tmp_path / "x.csv")


def test_trace_csv_bound_column_recomputable(tmp_path):
    cfg = parse_scenario_text(REFLECTION_SCENARIO)
    report, _ = run_scenario(cfg)
    path = tmp_path / "reflection.csv"
    emit_trace_csv(report.trace, cfg.witnesses, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    i_step = header.index("step_residual")
    i_bound = header.index("apriori_bound")
    base = float(lines[2].split(",")[i_step])  # row n=1
    d = report.certificate.d
    for n, line in enumerate(lines[1:]):
        want = fmt_float(d**n * base / (1.0 - d))
        assert line.split(",")[i_bound] == want


def test_trace_csv_row0_witness_columns_zero(tmp_path):
    cfg = parse_scenario_text(REFLECTION_SCENARIO)
    report, _ = run_scenario(cfg)
    path = tmp_path / "r.csv"
    emit_trace_csv(report.trace, cfg.witnesses, path)
    row0 = path.read_text().splitlines()[1].split(",")
    assert row0[-1] == fmt_float(0.0) and row0[-2] == fmt_float(0.0)


def test_trace_csv_deterministic(tmp_path):
    cfg = parse_scenario_text(REFLECTION_SCENARIO)
    for name in ("a.csv", "b.csv"):
        report, _ = run_scenario(cfg)
        emit_trace_csv(report.trace, cfg.witnesses, tmp_path / name)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# --- report -----------------------------------------------------------------------

def test_report_contains_certificate_lines():
    cfg = parse_scenario_text(REFLECTION_SCENARIO)
    report, _ = run_scenario(cfg)
    text = report_text(report)
    assert "status=Converged" in text
    assert "d=3.3333333333333331e-01" in text
    assert "bound_violations=0" in text
    assert "provenance=closed_form" in text


def test_report_status_line_is_the_status_value():
    assert [s.value for s in SolveStatus] == [
        "Converged", "OscillationDetected", "MaxIterExceeded", "LeftDomain",
        "PreconditionFailed", "Diverged",
    ]
    for status in SolveStatus:
        report = SolveReport(status=status, x_star=None, iterations=0, certificate=None,
                             trace=IterationTrace(()), bound_violations=0)
        assert report_text(report).startswith(f"status={status.value}\niterations=0\n")


def test_report_oscillation_period_line():
    report, _ = run_scenario(parse_scenario_text(DEMO_SCENARIOS["picard-oscillation"]))
    text = report_text(report)
    assert "status=OscillationDetected" in text
    assert "period=2" in text


def test_report_precondition_sides():
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
    report, _ = run_scenario(parse_scenario_text(text))
    rendered = report_text(report)
    assert "status=PreconditionFailed" in rendered
    assert f"precondition_lhs={fmt_float(2.0)}" in rendered
    assert f"precondition_rhs={fmt_float(1.0)}" in rendered


def test_emit_report_to_file(tmp_path):
    cfg = parse_scenario_text(REFLECTION_SCENARIO)
    report, _ = run_scenario(cfg)
    path = tmp_path / "rep.txt"
    emit_report(report, path)
    assert path.read_text().startswith("status=Converged\n")


# --- command line -----------------------------------------------------------------

def test_main_check_norm_passes():
    assert main(["check-norm", "--space", "cross2", "--samples", "2000",
                 "--seed", "42", "--tol", "1e-9"]) == 0
    assert main(["check-norm", "--space", "gram:3", "--samples", "2000",
                 "--seed", "7", "--tol", "1e-9"]) == 0


def test_main_solve_writes_artifacts(tmp_path):
    scenario = tmp_path / "s.scenario"
    scenario.write_text(REFLECTION_SCENARIO)
    trace = tmp_path / "out.csv"
    report = tmp_path / "out.txt"
    code = main(["solve", "--scenario", str(scenario),
                 "--trace", str(trace), "--report", str(report)])
    assert code == 0
    assert trace.is_file() and report.is_file()
    assert report.read_text().startswith("status=Converged\n")


def test_main_analyze(tmp_path, capsys):
    scenario = tmp_path / "s.scenario"
    scenario.write_text(REFLECTION_SCENARIO.replace("b=0.5", "b=auto"))
    code = main(["analyze", "--scenario", str(scenario)])
    out = capsys.readouterr().out
    assert code == 0
    assert "status=Certified" in out
    assert "b=1.0000000000000000e+00" in out


def test_main_scenario_error_is_exit_one(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("schema=1\n")
    assert main(["solve", "--scenario", str(bad)]) == 1


def test_main_demo_byte_identical_reruns(tmp_path):
    for name, expected in (
        ("reflection", 0),
        ("picard-oscillation", 3),
        ("asymptotic-piecewise", 0),
    ):
        d1, d2 = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        assert main(["demo", name, "--outdir", str(d1)]) == expected
        assert main(["demo", name, "--outdir", str(d2)]) == expected
        for suffix in ("report.txt", "trace.csv"):
            f1, f2 = d1 / f"{name}.{suffix}", d2 / f"{name}.{suffix}"
            if f1.exists() or f2.exists():
                assert f1.read_bytes() == f2.read_bytes()


def test_parse_wraps_constructor_errors_with_field_paths():
    non_spanning = REFLECTION_SCENARIO + "witnesses=1,0;2,0\n"
    with pytest.raises(ScenarioError, match="witnesses"):
        parse_scenario_text(non_spanning)
    bad_box = REFLECTION_SCENARIO + "domain.kind=box\ndomain.lo=5,5\ndomain.hi=1,1\n"
    with pytest.raises(ScenarioError, match="domain"):
        parse_scenario_text(bad_box)
    bad_sampling = REFLECTION_SCENARIO + "sampling.lo=9,9\nsampling.hi=1,1\n"
    with pytest.raises(ScenarioError, match="sampling"):
        parse_scenario_text(bad_sampling)


def test_parse_rejects_bad_map_parameters_naming_the_key(tmp_path, capsys):
    averaged_zero = REFLECTION_SCENARIO.replace(
        "map.kind=reflection\nmap.w=2,0",
        "map.kind=averaged\nmap.lambda=0\nmap.inner.kind=reflection\nmap.inner.w=2,0",
    )
    with pytest.raises(ScenarioError, match=r"^map\.lambda: averaging parameter"):
        parse_scenario_text(averaged_zero)
    iterated_zero = REFLECTION_SCENARIO.replace(
        "map.kind=reflection\nmap.w=2,0",
        "map.kind=iterated\nmap.times=2\nmap.inner.kind=iterated\nmap.inner.times=0\n"
        "map.inner.inner.kind=reflection\nmap.inner.inner.w=2,0",
    )
    with pytest.raises(ScenarioError, match=r"^map\.inner\.times: iterate count"):
        parse_scenario_text(iterated_zero)
    scenario = tmp_path / "s.scenario"
    scenario.write_text(averaged_zero)
    assert main(["solve", "--scenario", str(scenario)]) == EXIT_INTERNAL
    assert capsys.readouterr().err.startswith("scenario error: map.lambda:")


_DIVERGENT = "schema=1\nspace.kind=cross2\nspace.dimension=2\nx0=0.5,0.25\n"


@pytest.mark.parametrize("body", [
    "mode=picard\nmap.kind=scalar_affine\nmap.scale=3\nmap.shift=1,0\n",
    "mode=krasnoselskij\nmap.kind=scalar_affine\nmap.scale=1.5\nmap.shift=1,0\n"
    "b=0\ntheta=0.5\n",
])
def test_main_divergent_solve_exits_six(body, tmp_path, capsys):
    scenario = tmp_path / "s.scenario"
    scenario.write_text(_DIVERGENT + body)
    trace = tmp_path / "out.csv"
    code = main(["solve", "--scenario", str(scenario), "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert err == ""  # no numpy overflow warning from the NaN rows
    assert code == EXIT_DIVERGED == 6
    assert out.startswith("status=Diverged\n")
    assert "x_star=none\n" in out and "Diverged: the iteration overflowed" in out
    iterations = int(out.split("iterations=")[1].split("\n")[0])
    assert len(trace.read_text().splitlines()) == iterations + 2  # header + rows


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("certificate", ["mode=picard\n", "b=0\ntheta=0.5\n"])
def test_main_divergent_gram_solve_exits_six(dim, certificate, tmp_path, capsys):
    # Past |x| ~ 1.2e150 the gram norm is NaN; a step that read 0 there would
    # stop the run as Converged at an overflowing point.
    pad = ",0" * (dim - 2)
    scenario = tmp_path / "s.scenario"
    scenario.write_text(
        f"schema=1\nspace.kind=gram\nspace.dimension={dim}\n{certificate}"
        f"map.kind=scalar_affine\nmap.scale=3\nmap.shift=1,0{pad}\nx0=0.5,0.25{pad}\n"
    )
    assert main(["solve", "--scenario", str(scenario)]) == EXIT_DIVERGED
    out, err = capsys.readouterr()
    assert out.startswith("status=Diverged\niterations=645\n")
    assert err == ""


@pytest.mark.parametrize("label", ["gram:1", "gram:x", "gram:", "hilbert"])
def test_main_check_norm_rejects_bad_space(label, capsys):
    assert main(["check-norm", "--space", label, "--samples", "10"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == f"error: --space must be cross2 or gram:N, got {label!r}\n"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_main_check_norm_rejects_too_few_samples(samples, capsys):
    assert main(["check-norm", "--space", "cross2", "--samples", samples]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == f"error: --samples must be at least 1, got {samples}\n"


# --- coordinate lists against the space dimension -------------------------------------

def _dimension_scenario(kind, dim, domain):
    zeros = ",".join(["0"] * dim)
    unit = ",".join(["1"] + ["0"] * (dim - 1))
    lines = [
        "schema=1", f"space.kind={kind}", f"space.dimension={dim}",
        "map.kind=scalar_affine", "map.scale=0.5", f"map.shift={zeros}",
        "b=0", "theta=0.5", f"x0={zeros}",
        f"local.u={unit}", "local.r=1",
        f"sampling.lo={','.join(['-5'] * dim)}", f"sampling.hi={','.join(['5'] * dim)}",
    ]
    if domain == "box":
        lines += ["domain.kind=box", f"domain.lo={','.join(['-5'] * dim)}",
                  f"domain.hi={','.join(['5'] * dim)}"]
    else:
        lines += ["domain.kind=ball", f"domain.u={unit}", f"domain.center={zeros}",
                  "domain.radius=10"]
    return "\n".join(lines) + "\n"


def _write(tmp_path, name, text):
    path = tmp_path / f"{name}.scenario"
    path.write_text(text)
    return str(path)


# Lengths dim - 1 and dim + 1 for every key; one sampling value is no mismatch,
# it broadcasts (test_scalar_sampling_bounds_broadcast).
_MISMATCHES = [
    (key, kind, dim, dim + offset)
    for key in ("domain.lo", "domain.hi", "domain.u", "domain.center", "local.u",
                "sampling.lo", "sampling.hi")
    for kind, dim in (("cross2", 2), ("gram", 3))
    for offset in (-1, 1)
    if not (dim + offset == 1 and key.startswith("sampling."))
]


@pytest.mark.parametrize("key, kind, dim, length", _MISMATCHES)
def test_parse_rejects_coordinates_of_another_dimension(key, kind, dim, length,
                                                        tmp_path, capsys):
    domain = "ball" if key in ("domain.u", "domain.center") else "box"
    good = _dimension_scenario(kind, dim, domain)
    assert main(["solve", "--scenario", _write(tmp_path, "good", good)]) == EXIT_CONVERGED
    capsys.readouterr()
    lines = [f"{key}={','.join(['0.5'] * length)}" if line.startswith(f"{key}=") else line
             for line in good.splitlines()]
    bad = "\n".join(lines) + "\n"
    with pytest.raises(ScenarioError, match=(
            rf"^{key}: dimension {length} does not match space dimension {dim}$")):
        parse_scenario_text(bad)
    assert main(["solve", "--scenario", _write(tmp_path, "bad", bad)]) == EXIT_INTERNAL
    assert capsys.readouterr().err.startswith(f"scenario error: {key}: dimension")


def test_box_of_another_dimension_no_longer_converges(tmp_path):
    # lo/hi with 3 coordinates on the plane once reached Box.contains, whose
    # zip cut them to 2, and the run converged with exit 0.
    text = (_dimension_scenario("cross2", 2, "box")
            .replace("domain.lo=-5,-5", "domain.lo=-5,-5,7")
            .replace("domain.hi=5,5", "domain.hi=5,5,8"))
    assert main(["solve", "--scenario", _write(tmp_path, "s", text)]) == EXIT_INTERNAL


# --- pinned artifact bytes ------------------------------------------------------------

# A gram:8 Krasnoselskij solve of T^2 against a non-basis witness set, so the
# witness kernel runs on precomputed operands that are not unit vectors.
GRAM8_ITERATED_SCENARIO = """\
schema=1
space.kind=gram
space.dimension=8
mode=krasnoselskij
map.kind=iterated
map.times=2
map.inner.kind=scalar_affine
map.inner.scale=-0.8
map.inner.shift=1,-2,0.5,3,-0.25,0,-1.5,2
b=0.25
theta=estimate
x0=3,1,-4,1,5,-9,2,6
witnesses=1,0.5,0,0,0,0,0,0;0,1,0.5,0,0,0,0,0;0,0,1,0.5,0,0,0,0;0,0,0,1,0.5,0,0,0;\
0,0,0,0,1,0.5,0,0;0,0,0,0,0,1,0.5,0;0,0,0,0,0,0,1,0.5;0.5,0,0,0,0,0,0,1;1,-1,1,-1,1,-1,1,-1
tol=1e-12
max_iter=10000
seed=0
"""

# sha256 of each artifact as the per-witness scalar norm loop wrote it; the
# witness kernel and the one map evaluation per iteration reproduce them.
PINNED_SHA256 = {
    "reflection.trace.csv":
        "4506602c761eb2e4eac04b4cbbdba8598643d83a4ac7bbad8cf86219c3ca73ff",
    "reflection.report.txt":
        "24f2a7ce30837a161c8c3ea1482821788bd498f784d9764f5b54ce6fbec88790",
    "picard-oscillation.trace.csv":
        "8a1395410f6a9c1482f821092d7c2b7aaceb2520fc99c52cb4bf3e80a7df0f34",
    "picard-oscillation.report.txt":
        "0e7df535517bb1c6f05aed07b808fef9799b49e2f0d1dc241978fe85c1f22f8e",
    "asymptotic-piecewise.trace.csv":
        "b9b0f3ed8e2a4ab4c1413a0e2833590e1a99f4380afff9f6c09332e06e9fb5f7",
    "asymptotic-piecewise.report.txt":
        "aa1d1b9831ff74b25f434b2f208aa4a7a1f1119d5d14f940e4af37196f6fb03f",
    "iter.trace.csv":
        "c55cc30961ac460c7b3235fd7f9fef7aa8355b6d1dd056ac39da418b3aa37419",
    "iter.report.txt":
        "0e5d14aa485f9d3fe2c677791ef89d1496923336ec3518121825ca8b2fd3ac73",
}


def test_artifacts_match_pinned_bytes(tmp_path):
    for name in DEMO_SCENARIOS:
        main(["demo", name, "--outdir", str(tmp_path)])
    scenario = tmp_path / "iter.scenario"
    scenario.write_text(GRAM8_ITERATED_SCENARIO)
    assert main(["solve", "--scenario", str(scenario),
                 "--trace", str(tmp_path / "iter.trace.csv"),
                 "--report", str(tmp_path / "iter.report.txt")]) == EXIT_CONVERGED
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in PINNED_SHA256}
    assert got == PINNED_SHA256
