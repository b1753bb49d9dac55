"""Tests for scenario parsing, the run orchestration and artifact emission."""

import dataclasses
import hashlib
import math
import os
import random
import struct
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from enrichedfp import cli
from enrichedfp.analyzer import Provenance, certify
from enrichedfp.cli import (
    DEMO_SCENARIOS,
    EXIT_CERTIFICATE_VIOLATED,
    EXIT_CONVERGED,
    EXIT_DIVERGED,
    EXIT_INTERNAL,
    EXIT_LEFT_DOMAIN,
    EXIT_MAX_ITER,
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
from enrichedfp.mapping import Reflection, ScalarAffine, averaged, default_piecewise
from enrichedfp.solver import (
    SolveConfig,
    SolveReport,
    SolveStatus,
    Trace,
    TraceRow,
    krasnoselskij_solve,
    picard_solve,
)
from enrichedfp.space import (
    SpaceElement,
    WitnessSet,
    cross2_space,
    gram_space,
    standard_basis,
    witness_norms,
)

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
    assert cfg.solve.witnesses == standard_basis(2)
    assert cfg.solve.tol == 1e-10
    assert cfg.solve.max_iter == 10_000
    assert cfg.n == 1
    assert cfg.box.lo == (-10.0, -10.0)


@pytest.mark.parametrize("space", ["space.kind=cross2", "space.kind=gram\nspace.dimension=4"])
def test_parses_share_one_standard_basis(space):
    # The basis is built once per dimension: its spanning check runs an SVD.
    text = REFLECTION_SCENARIO.replace("space.kind=cross2\nspace.dimension=2", space)
    if "gram" in space:
        text = text.replace("map.w=2,0", "map.w=2,0,0,0").replace("x0=0,0", "x0=0,0,0,0")
    first, second = parse_scenario_text(text), parse_scenario_text(text)
    shared = first.solve.witnesses
    assert second.solve.witnesses is shared is standard_basis(shared.dim)
    fresh = WitnessSet(tuple(el(*row) for row in np.eye(shared.dim)))
    assert shared.witnesses == fresh.witnesses
    assert np.array_equal(shared._batch, fresh._batch)


# gram:2 witnesses whose squares overflow a double (coordinates past 1e154).
HUGE_WITNESS_SCENARIO = (REFLECTION_SCENARIO
                         .replace("space.kind=cross2", "space.kind=gram")
                         .replace("witnesses=basis", "witnesses=1e200,0;0,1e200")
                         .replace("max_iter=10000", "max_iter=30"))


def test_parse_of_witnesses_past_1e154_warns_nothing():
    # Building the witness set forms no products of its coordinates, so no
    # numpy overflow warning (an error under the test settings) reaches stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = parse_scenario_text(HUGE_WITNESS_SCENARIO)
    assert cfg.solve.witnesses.witnesses == (el(1e200, 0), el(0, 1e200))


def test_solve_with_witnesses_past_1e154_warns_nothing(tmp_path, capsys):
    # The kernel overflows on every step here (its exit code is not pinned),
    # but silently: 31 trace rows take the batch path, under np.errstate.
    scenario = _write(tmp_path, "s", HUGE_WITNESS_SCENARIO)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        main(["solve", "--scenario", scenario, "--trace", str(tmp_path / "t.csv")])
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "RuntimeWarning" not in capsys.readouterr().err
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 32  # header + rows


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
    lines.append(f"sampling.count={draw(st.integers(1, 10**6))}")
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
    assert cfg.box.dimension == cfg.space.dimension


def test_scalar_sampling_bounds_broadcast():
    text = REFLECTION_SCENARIO + "sampling.lo=-3\nsampling.hi=3\n"
    cfg = parse_scenario_text(text)
    assert cfg.box.lo == (-3.0, -3.0)
    assert cfg.box.hi == (3.0, 3.0)


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
    # theta=estimate on the piecewise square: T^2 is the constant -u/3 on the
    # whole space, so its theta is |b + 0| = b and holds everywhere.
    text = DEMO_SCENARIOS["asymptotic-piecewise"].replace("theta=1", "theta=estimate")
    report, code = run_scenario(parse_scenario_text(text))
    assert code == EXIT_CONVERGED
    assert report.certificate.provenance == Provenance.closed_form()
    assert report.certificate.theta == 1.0
    x = report.x_star.coords
    assert abs(x[0] + 1.0 / 3.0) <= 1e-10 and abs(x[1] + 1.0 / 3.0) <= 1e-10


def test_run_asymptotic_with_auto_b():
    text = (DEMO_SCENARIOS["asymptotic-piecewise"]
            .replace("theta=1", "theta=estimate")
            .replace("b=1", "b=auto")
            + "sampling.count=30000\n")
    cfg = parse_scenario_text(text)
    report, code = run_scenario(cfg)
    assert code == EXIT_CONVERGED
    # the constant square needs no averaging: b* = 0 lands in one application
    assert report.certificate.b == 0.0
    assert report.iterations == 1


def test_run_accepts_valid_asserted_theta_and_rejects_invalid():
    ok = REFLECTION_SCENARIO.replace("b=0.5", "b=0.1").replace("theta=estimate", "theta=0.95")
    _, code = run_scenario(parse_scenario_text(ok))  # |0.1 - 1| <= 0.95 < 1.1
    assert code == EXIT_CONVERGED

    # 0.5 < 1.1 would certify, but the true theta is |0.1 - 1| = 0.9: the
    # asserted theta is checked against the map's slope and refused. Such a
    # run once met tol and broke the a priori bound (exit 7).
    wrong = REFLECTION_SCENARIO.replace("b=0.5", "b=0.1").replace("theta=estimate", "theta=0.5")
    report, code = run_scenario(parse_scenario_text(wrong))
    assert code == EXIT_NOT_CERTIFIABLE
    assert report.warnings == ("certification failed: asserted theta=0.5 is below "
                               "|b + c| = 0.9 for the map's slope c=-1.0",)

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


# A local solve with a box domain: x0 lies in the local ball, and in the box
# only when the box is the large one.
_LOCAL_WITH_DOMAIN = """\
schema=1
space.kind=cross2
mode={mode}
map.kind=scalar_affine
map.scale=0.5
map.shift=1,0
b=0
theta=estimate
x0=1.5,0
local.u=0,1
local.r=10
domain.kind=box
domain.lo={lo}
domain.hi={hi}
"""


@pytest.mark.parametrize("mode", ["local", "krasnoselskij"])
def test_main_local_mode_honours_the_domain(mode, tmp_path, capsys):
    # The local solve once checked its ball only, so this run converged, exit 0.
    text = _LOCAL_WITH_DOMAIN.format(mode=mode, lo="-0.1,-0.1", hi="0.1,0.1")
    code = main(["solve", "--scenario", _write(tmp_path, "s", text)])
    assert code == EXIT_LEFT_DOMAIN == 5
    assert capsys.readouterr().out.startswith("status=LeftDomain\n")


def test_run_local_mode_checks_the_domain_beta():
    # ||x0 - T_lam x0|| = 0.25 exceeds beta, in the ball and the box alike.
    text = _LOCAL_WITH_DOMAIN.format(mode="local", lo="-10,-10", hi="10,10")
    report, code = run_scenario(parse_scenario_text(text + "domain.beta=0.01\n"))
    assert code == EXIT_CONVERGED
    assert any("bound_beta" in w for w in report.warnings)

# --- trace CSV --------------------------------------------------------------------

def _cell_trace(dim, cells):
    """The trace whose table holds ``cells``, one list of floats per row."""
    return Trace(dim, np.array(cells, dtype=float))


def _header(dim, k):
    """The trace CSV header of ``dim`` coordinates and ``k`` witnesses."""
    return ",".join(["n"] + [f"x_{i}" for i in range(dim)]
                    + ["step_residual", "fixed_residual", "apriori_bound"]
                    + [f"res_w{j}" for j in range(k)])


def _csv_of_cells(header, cells):
    """The CSV bytes of a per-cell fmt_float join: the header, then n and the
    cells of each row."""
    lines = [header] + [",".join([str(n)] + [fmt_float(c) for c in row])
                        for n, row in enumerate(cells)]
    return ("\n".join(lines) + "\n").encode()


def test_emit_trace_csv_serialises_manual_trace(tmp_path):
    # a one-iterate trace of a constant map applied at its own value:
    # the second row's step residual is exactly zero
    trace = _cell_trace(2, [[0.3, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0]] * 2)
    path = tmp_path / "t.csv"
    emit_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,x_0,x_1,step_residual,fixed_residual,apriori_bound,res_w0,res_w1"
    assert len(lines) == 3
    assert lines[2].split(",")[3] == fmt_float(0.0)


def test_emit_trace_csv_rows_are_a_per_cell_fmt_float_join(tmp_path):
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
    cells = [[specials[3 + n % 3], specials[3 + (n + 1) % 3],
              specials[n % 6], specials[(n + 1) % 6], specials[(n + 2) % 6],
              *(specials[(n + j) % 6] for j in (3, 4, 5))]
             for n in range(7)]
    path = tmp_path / "t.csv"
    emit_trace_csv(_cell_trace(2, cells), path)
    assert path.read_bytes() == _csv_of_cells(
        "n,x_0,x_1,step_residual,fixed_residual,apriori_bound,res_w0,res_w1,res_w2", cells)


@pytest.mark.parametrize("dim, k", [(2, 3), (8, 8)])
def test_an_empty_trace_writes_its_header_line_only(dim, k, tmp_path):
    path = tmp_path / "t.csv"
    emit_trace_csv(Trace(dim, np.empty((0, dim + 3 + k))), path)
    assert path.read_bytes() == (_header(dim, k) + "\n").encode()


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _fmt_join(table):
    """The text fmt_float gives a matrix: each cell led by a comma."""
    return "".join("," + ",".join(map(fmt_float, row)) for row in table).encode()


def _kernel_text(table):
    return cli._float_rows(np.array(table, dtype=float)).tobytes().translate(None, b"\0")


@st.composite
def _decimal_ties(draw):
    # x = m 2**-k is m 5**k / 10**k exactly: with m odd and m 5**k an
    # 18-digit integer, its last digit is a 5, so x lies exactly halfway
    # between two 17-digit decimals. k from 2 to 25 keeps m within 2**53.
    k = draw(st.integers(2, 25))
    lo, hi = -(-10**17 // 5**k), min(2**53, (10**18 - 1) // 5**k)
    m = draw(st.integers(lo, hi)) | 1
    if m > hi:
        m -= 2
    exact = m * 5**k
    assert len(str(exact)) == 18 and exact % 10 == 5
    return draw(st.sampled_from([1.0, -1.0])) * math.ldexp(m, -k)


def _decades(k):
    p = float(f"1e{k}")
    return [p, math.nextafter(p, math.inf), math.nextafter(p, 0.0), 10.0**k]


_KERNEL_EDGES = [1e-280, 1e280, math.nextafter(1e-280, 0.0), math.nextafter(1e280, math.inf),
                 0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 math.inf, -math.inf, math.nan]

_cells = st.one_of(
    st.integers(0, 2**64 - 1).map(_double),                      # every bit pattern
    st.integers(1, 2**52 - 1).map(_double),                      # subnormals
    st.sampled_from(_KERNEL_EDGES),
    st.integers(-323, 308).flatmap(lambda k: st.sampled_from(_decades(k))),
    st.floats(1e100, 1.7976931348623157e308) | st.floats(5e-324, 1e-100),  # 3-digit exponents
    _decimal_ties(),
    st.floats(allow_nan=True, allow_infinity=True),
).flatmap(lambda x: st.sampled_from([x, -x]))


@given(st.lists(_cells, min_size=1, max_size=48), st.integers(1, 8))
@settings(max_examples=400, deadline=None)
def test_the_cell_kernel_writes_fmt_float_of_every_cell(cells, width):
    # Each cell's text is fmt_float's, hard cells (near ties, a decade
    # estimate off, out of range, NaN, inf) included: rows joined by commas.
    rows = [cells[i : i + width] for i in range(0, len(cells) - width + 1, width)]
    rows = rows or [cells]
    assert _kernel_text(rows) == _fmt_join(rows)


def test_the_cell_kernel_matches_fmt_float_on_every_decade_and_tie():
    rng = random.Random(27)
    cells = [c for k in range(-323, 309) for c in _decades(k)] + _KERNEL_EDGES
    for k in range(2, 26):  # decimal ties, as _decimal_ties draws them, and neighbours
        lo, hi = -(-10**17 // 5**k), min(2**53, (10**18 - 1) // 5**k)
        for _ in range(40):
            x = math.ldexp(rng.randrange(lo, hi) | 1, -k)
            cells += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    cells += [_double(rng.getrandbits(64)) for _ in range(20_000)]
    cells += [-c for c in cells]
    cells = cells[: len(cells) // 19 * 19]
    rows = [cells[i : i + 19] for i in range(0, len(cells), 19)]
    assert _kernel_text(rows) == _fmt_join(rows)


def _near_ties(q):
    """Floats x with x / 10**q = N + 1/2 +- 1 / (2 5**q), N a 17-digit integer:
    within 2**-30 of a tie between two 17-digit decimals, and not on one."""
    mod, found = 5**q, []
    for c in ((mod + 1) // 2, (mod - 1) // 2):  # the fraction of x / 10**q is c / 5**q
        for e in range(q + 1, 200):  # x = m 2**e with m 2**(e - q) = c (mod 5**q)
            m = c * pow(2, q - e, mod) % mod
            m += mod * max(0, -(-(2**52 - m) // mod))
            if m < 2**53 and 10**(16 + q) <= m * 2**e < 10**(17 + q):
                found.append(math.ldexp(m, e))
    return found


def test_the_cell_kernel_leaves_every_cell_near_a_tie_to_fmt_float(monkeypatch):
    # The kernel's digits are off by up to about 2**-104 of the value, so it
    # proves no cell within 2**-30 of a decimal tie: fmt_float, CPython's
    # own rounding, writes those. Exact ties and ties off by 1 / (2 5**q)
    # go there; cells clear of a tie do not.
    rng = random.Random(5)
    ties = []
    for k in range(2, 26):
        lo, hi = -(-10**17 // 5**k), min(2**53, (10**18 - 1) // 5**k)
        ties += [math.ldexp(m, -k) for m in {rng.randrange(lo, hi + 1) | 1 for _ in range(8)}
                 if m <= hi]
    near = [x for q in range(18, 23) for x in _near_ties(q)]
    assert len(near) >= 20
    clear = [1.5, 0.1, 1e-5, 123.456, 2.0**-20, 6.02214076e23, 1.602176634e-19]
    routed = []
    fmt = cli.fmt_float
    monkeypatch.setattr(cli, "fmt_float", lambda v: routed.append(v) or fmt(v))
    cells = [c for x in ties + near + clear for c in (x, -x)]
    assert _kernel_text([cells]) == _fmt_join([cells])
    assert sorted(routed) == sorted(c for x in ties + near for c in (x, -x))


def test_emit_trace_csv_above_the_crossover_is_a_per_cell_fmt_float_join(tmp_path,
                                                                         monkeypatch):
    # gram:8 rows hold 19 float cells: 60 rows are past the crossover, so the
    # kernel writes them, NaN bounds, infinities, ties and subnormals included.
    rng = random.Random(8)
    specials = _KERNEL_EDGES + [math.ldexp(4503599627370497, -2), 1e-5, 1e22, 1e23]
    dim = 8

    def cell(pool=specials):
        if rng.random() < 0.2:
            return rng.choice(pool)
        return rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 5)

    finite = [c for c in specials if math.isfinite(c)]  # a point's coordinates
    cells = [[*(cell(finite) for _ in range(dim)), cell(), cell(), cell(),
              *(cell() for _ in range(dim))]
             for _ in range(60)]
    assert len(cells) * (2 * dim + 3) >= cli._TRACE_KERNEL_MIN
    calls = _spy_on_the_kernel(monkeypatch)
    path = tmp_path / "t.csv"
    emit_trace_csv(_cell_trace(dim, cells), path)
    assert calls == [(60, 2 * dim + 3)]
    header = _header(dim, dim)
    assert path.read_bytes() == _csv_of_cells(header, cells)
    # One row short of the crossover's cells, the row loop writes the same bytes.
    calls.clear()
    short = cells[: -(-cli._TRACE_KERNEL_MIN // (2 * dim + 3)) - 1]
    emit_trace_csv(_cell_trace(dim, short), path)
    assert calls == []
    assert path.read_bytes() == _csv_of_cells(header, short)


def test_the_power_of_ten_pairs_are_correctly_rounded_on_the_whole_range():
    # The kernel's 10^p table, p in [-264, 297]: hi is 10^p correctly
    # rounded, and hi + lo lies within 2**-106 10^p of it.
    for p in range(cli._POW10_P_MIN, cli._POW10_P_MAX + 1):
        exact = Fraction(10) ** p
        hi, lo = cli._pow10_pair(p)
        assert hi == float(exact)
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= Fraction(2) ** -106 * exact


def _spy_on_the_kernel(monkeypatch):
    """The list of float table shapes the cell kernel receives from now on."""
    calls = []
    kernel = cli._float_rows
    monkeypatch.setattr(cli, "_float_rows",
                        lambda table: calls.append(table.shape) or kernel(table))
    return calls


# Gram:2 Picard runs of x -> 3x + (1, 0) against a witness set with one long
# witness, put first or last: past |v| |z| of about 1.2e150 a gram norm is
# NaN, so rows 311-314 hold one NaN witness step, the long witness's, and
# every step from row 315 on is NaN. The run ends Diverged at 645.
_NAN_WITNESS_SETS = {
    "long-first": WitnessSet((el(1e6, 0), el(0, 1))),
    "long-last": WitnessSet((el(0, 1), el(1e6, 0))),
}


def _nan_witness_run(name):
    wset = _NAN_WITNESS_SETS[name]
    T = ScalarAffine(3.0, el(1, 0))
    return T, wset, picard_solve(T, el(0.5, 0.25), SolveConfig(witnesses=wset), gram_space(2))


@pytest.mark.parametrize("run, kernel", [
    ("cross2", False), ("gram:8", True), ("long-first", True), ("long-last", True),
])
def test_a_trace_and_its_rows_emit_the_same_bytes(run, kernel, tmp_path, monkeypatch):
    # A short cross2 solve (8 rows of 7 float cells) takes the row loop; the
    # gram:8 scenario's 93 rows of 20 cells and the NaN runs take the kernel.
    if run == "cross2":
        cert = certify(0.25, 0.25, Provenance.closed_form())
        trace = krasnoselskij_solve(ScalarAffine(-0.5, el(1, 2)), cert, el(4, -3),
                                    SolveConfig(tol=1e-4), cross2_space()).trace
    elif run == "gram:8":
        trace = run_scenario(parse_scenario_text(GRAM8_ITERATED_SCENARIO))[0].trace
    else:
        trace = _nan_witness_run(run)[2].trace
    assert (trace.table.size >= cli._TRACE_KERNEL_MIN) == kernel
    calls = _spy_on_the_kernel(monkeypatch)
    emit_trace_csv(trace, tmp_path / "t.csv")
    assert calls == ([trace.table.shape] if kernel else [])
    header = _header(trace.dim, len(trace[0].witness_steps))
    rows = [[*r.x.coords, r.step_residual, r.fixed_residual, r.apriori_bound,
             *r.witness_steps] for r in trace]
    assert (tmp_path / "t.csv").read_bytes() == _csv_of_cells(header, rows)


def _python_worst_step_ratio(steps):
    """The report's worst step ratio over a list of Python float steps."""
    worst = math.nan
    for prev, cur in zip(steps[1:], steps[2:]):
        if prev > 0.0:
            r = cur / prev
            if math.isnan(worst) or r > worst:
                worst = r
    return worst


@pytest.mark.parametrize("name", sorted(_NAN_WITNESS_SETS))
def test_nan_witness_norms_keep_python_max_in_every_column(name):
    # A residual is max over its witnesses by Python's rule: NaN when the
    # first witness's norm is NaN, a later NaN skipped.
    T, wset, rep = _nan_witness_run(name)
    space = gram_space(2)
    assert rep.status == SolveStatus.DIVERGED and rep.iterations == 645
    rows = tuple(rep.trace)
    one_nan = [r.n for r in rows if sum(map(math.isnan, r.witness_steps)) == 1]
    assert one_nan == [311, 312, 313, 314]
    long_first = name == "long-first"
    for r in rows:
        assert r.step_residual.hex() == max(r.witness_steps).hex()
        fixed = max(witness_norms(space, wset, T.apply(r.x) - r.x))
        assert r.fixed_residual.hex() == fixed.hex()
        if r.n in one_nan:
            assert math.isnan(r.step_residual) == long_first
    steps = [max(r.witness_steps) for r in rows]
    want = _python_worst_step_ratio(steps)
    assert cli._worst_step_ratio(rep.trace).hex() == want.hex()
    assert f"worst_step_ratio={fmt_float(want)}\n" in report_text(rep)


def test_worst_step_ratio_matches_the_python_loop_on_special_steps():
    # Zero, subnormal, huge, infinite and NaN steps: the ratios overflow, come
    # out NaN (inf / inf) or are skipped (a step of zero or NaN before them).
    rng = random.Random(29)
    pool = [0.0, 5e-324, 1e-300, 0.5, 1.0, 3.0, 1e300, math.inf, math.nan]
    for count in range(8):
        for _ in range(60):
            steps = [0.0] + [rng.choice(pool) for _ in range(count)]
            trace = _cell_trace(2, [[0.5, 0.25, step, 0.0, 0.0, step, 0.0] for step in steps])
            assert cli._worst_step_ratio(trace).hex() == _python_worst_step_ratio(steps).hex()


def test_a_cli_solve_builds_no_trace_row(tmp_path, monkeypatch):
    # The trace goes from the solver to the CSV and the report as one table.
    built = []
    init = TraceRow.__init__
    monkeypatch.setattr(TraceRow, "__init__",
                        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    trace, report = tmp_path / "t.csv", tmp_path / "r.txt"
    assert main(["solve", "--scenario", _write(tmp_path, "s", GRAM8_ITERATED_SCENARIO),
                 "--trace", str(trace), "--report", str(report)]) == EXIT_CONVERGED
    assert trace.stat().st_size > 0 and built == []
    assert len(run_scenario(parse_scenario_text(GRAM8_ITERATED_SCENARIO))[0].trace[:2]) == 2
    assert len(built) == 2  # the spy sees rows that are read


def test_importing_the_cli_loads_neither_fractions_nor_decimal():
    # The kernel's tables come from numpy and 10**p from int arithmetic: an
    # import of fractions (and with it decimal) raised peak RSS by 1.5 MB.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, enrichedfp.cli\n"
            "print(sorted({'fractions', 'decimal', '_pydecimal'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_trace_csv_bound_column_recomputable(tmp_path):
    cfg = parse_scenario_text(REFLECTION_SCENARIO)
    report, _ = run_scenario(cfg)
    path = tmp_path / "reflection.csv"
    emit_trace_csv(report.trace, path)
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
    emit_trace_csv(report.trace, path)
    row0 = path.read_text().splitlines()[1].split(",")
    assert row0[-1] == fmt_float(0.0) and row0[-2] == fmt_float(0.0)


def test_trace_csv_deterministic(tmp_path):
    cfg = parse_scenario_text(REFLECTION_SCENARIO)
    for name in ("a.csv", "b.csv"):
        report, _ = run_scenario(cfg)
        emit_trace_csv(report.trace, tmp_path / name)
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
        "PreconditionFailed", "Diverged", "CertificateViolated",
    ]
    for status in SolveStatus:
        report = SolveReport(status=status, x_star=None, iterations=0, certificate=None,
                             trace=Trace(2, np.empty((0, 7))), bound_violations=0)
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


@pytest.mark.parametrize("label, digest", [
    ("gram:3", "aa808001f56514d2e0f5212c73e2dfc986a1cf0be5d983ad64a5cba219a22e78"),
    ("cross2", "66a0fcaa2560d0a71fd5079ed3e977ec6b84bbf564f7d2f7f8df4baec3de9678"),
])
def test_main_check_norm_output_is_pinned(label, digest, capsys):
    # At tol 0 rounding alone fails some samples: the first ten are printed.
    assert main(["check-norm", "--space", label, "--samples", "2000",
                 "--seed", "3", "--tol", "0"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    non_spanning = REFLECTION_SCENARIO.replace("witnesses=basis", "witnesses=1,0;2,0")
    with pytest.raises(ScenarioError, match="witnesses: witness set does not span"):
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
    # A true certificate, but the fixed point 2e308 lies beyond the doubles.
    "mode=krasnoselskij\nmap.kind=scalar_affine\nmap.scale=0.5\nmap.shift=1e308,0\n"
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


@pytest.mark.parametrize("scale, shift, iterations", [
    ("0.5", "-5e307", 28),     # 85 bound-check rows: the batch kernel
    ("0.02", "-8.0164e307", 6),  # 19 rows: the per-vector kernel
])
def test_main_overflowing_bound_check_counts_violations(scale, shift, iterations,
                                                        tmp_path, capsys):
    # The solve converges from 1e308 to below -8e307, so x0 - x_star
    # overflows in the post-hoc bound check; that row is a violation, not a
    # traceback or a silent pass.
    scenario = tmp_path / "s.scenario"
    scenario.write_text(
        "schema=1\nspace.kind=cross2\nspace.dimension=2\nmode=krasnoselskij\n"
        f"map.kind=scalar_affine\nmap.scale={scale}\nmap.shift={shift},0\n"
        "b=0\ntheta=estimate\nx0=1e308,0\ntol=1e300\n"
    )
    # Such a run once read Converged and exited 0.
    assert main(["solve", "--scenario", str(scenario)]) == EXIT_CERTIFICATE_VIOLATED
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith(f"status=CertificateViolated\niterations={iterations}\n")
    assert int(out.split("bound_violations=")[1].split("\n")[0]) > 0
    assert "the trace broke the certificate's a priori bound" in out


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("certificate", ["mode=picard\n", "b=0\ntheta=0.5\n"])
def test_main_divergent_gram_solve_exits_six(dim, certificate, tmp_path, capsys):
    # Past |x| ~ 1.2e150 the gram norm is NaN; a step that read 0 there would
    # stop the run as Converged at an overflowing point. Picard runs the
    # expanding x -> 3x + t until a point overflows. The asserted theta = 0.5
    # holds for x -> 0.5 x + t (an expanding map with it is refused before
    # the run), but with t = 1e308 the fixed point 2t lies past the float
    # range, so the second iterate overflows.
    scale, shift, iterations = ("3", "1", 645) if "picard" in certificate else ("0.5", "1e308", 2)
    pad = ",0" * (dim - 2)
    scenario = tmp_path / "s.scenario"
    scenario.write_text(
        f"schema=1\nspace.kind=gram\nspace.dimension={dim}\n{certificate}"
        f"map.kind=scalar_affine\nmap.scale={scale}\nmap.shift={shift},0{pad}\n"
        f"x0=0.5,0.25{pad}\n"
    )
    assert main(["solve", "--scenario", str(scenario)]) == EXIT_DIVERGED
    out, err = capsys.readouterr()
    assert out.startswith(f"status=Diverged\niterations={iterations}\n")
    assert err == ""


@pytest.mark.parametrize("space", ["gram\nspace.dimension=2", "cross2"],
                         ids=["gram:2", "cross2"])
@pytest.mark.parametrize("x0", ["1e200", "1e302"])
def test_main_picard_finds_the_cycle_of_steps_with_nan_norms(space, x0, tmp_path, capsys):
    # x -> (2, 0) - x alternates between x0 and (2, 0) - x0. Each step's
    # norms are NaN (gram past |v| ~ 1.2e150, cross2 past ~1.3e300), which is
    # not within tol, so Picard runs its cycle test; x_n - x_{n-2} is exactly
    # 0. Such a step once skipped the cycle test, and the run went on for
    # 10,000 iterations to exit 4.
    scenario = _write(tmp_path, "s", f"schema=1\nspace.kind={space}\nmode=picard\n"
                      f"map.kind=reflection\nmap.w=2,0\nx0={x0},0\n")
    assert main(["solve", "--scenario", scenario]) == EXIT_OSCILLATION
    out, err = capsys.readouterr()
    assert out.startswith("status=OscillationDetected\nperiod=2\niterations=3\n")
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


@pytest.mark.parametrize("args, coords", [
    (["--space", "gram:2", "--samples", "1000000000000000000"], 7 * 10**18),
    (["--space", "gram:2", "--samples", "100000000000000000000"], 7 * 10**20),
    (["--space", "gram:100000000"], 10_000 * 300_000_001),
], ids=["samples-1e18", "samples-1e20", "gram-1e8"])
def test_main_check_norm_refuses_an_oversize_draw(args, coords, capsys):
    # The first two ended in numpy tracebacks ("array is too big", "Maximum
    # allowed dimension exceeded"); the cap refuses all three before a draw.
    assert main(["check-norm", *args]) == EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == "" and err == (f"error: --samples x (3n+1) = {coords} coordinates on "
                                 f"{args[1]} is over the limit of 8000000\n")


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "--seed must be nonnegative, got -1"),
    ("--tol", "nan", "--tol must be finite and nonnegative, got nan"),
    ("--tol", "inf", "--tol must be finite and nonnegative, got inf"),
    ("--tol", "-1", "--tol must be finite and nonnegative, got -1.0"),
])
def test_main_check_norm_rejects_bad_seed_and_tolerance(flag, value, message, capsys):
    # A negative seed was a numpy traceback, a NaN or infinite tolerance
    # passed every sample, and a negative one failed exact results.
    assert main(["check-norm", "--space", "cross2", "--samples", "10",
                 flag, value]) == EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    lambda d: ["solve", "--scenario", str(d / "r.scenario"),
               "--trace", str(d / "missing" / "x.csv")],
    lambda d: ["solve", "--scenario", str(d / "r.scenario"),
               "--report", str(d / "missing" / "x.txt")],
    lambda d: ["demo", "reflection", "--outdir", str(d / "r.scenario" / "sub")],
], ids=["trace", "report", "demo-outdir"])
def test_main_unwritable_output_path_is_exit_one(argv, tmp_path, capsys):
    (tmp_path / "r.scenario").write_text(REFLECTION_SCENARIO)
    assert main(argv(tmp_path)) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path) in err and "Traceback" not in err


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


# The gram:8 solve above against the standard basis, named two ways; sha256
# of the trace and report as the general witness kernel wrote them.
_GRAM8_BASIS_SHA256 = {
    "trace": "4ea841962b1d5a0294d9e45d2aebb2f124e746b5429869e05ef518a54bcf7a50",
    "report": "ba00e2d106c6c90ed0a3d7f8ed8947f74dcc2b9b0f5a5bd3d5dffc904a0e9ded",
}


def test_an_explicit_identity_witness_list_writes_the_basis_bytes(tmp_path):
    witnesses = GRAM8_ITERATED_SCENARIO[GRAM8_ITERATED_SCENARIO.index("witnesses="):]
    witnesses = witnesses[: witnesses.index("\ntol=")]
    identity = ";".join(",".join("1" if i == j else "0" for j in range(8)) for i in range(8))
    got = []
    for name, value in (("basis", "basis"), ("identity", identity)):
        text = GRAM8_ITERATED_SCENARIO.replace(witnesses, f"witnesses={value}")
        trace, report = tmp_path / f"{name}.csv", tmp_path / f"{name}.txt"
        assert main(["solve", "--scenario", _write(tmp_path, name, text),
                     "--trace", str(trace), "--report", str(report)]) == EXIT_CONVERGED
        got.append({"trace": hashlib.sha256(trace.read_bytes()).hexdigest(),
                    "report": hashlib.sha256(report.read_bytes()).hexdigest()})
    assert got == [_GRAM8_BASIS_SHA256] * 2


# A gram:3 two-region map solved through T^2 with theta=estimate, over a
# sampling box near the float range.
_WIDE_BOX = """\
schema=1
space.kind=gram
space.dimension=3
mode=asymptotic
n=2
map.kind=piecewise_two_set
map.u=1,1,1
map.region.kind=sup_norm_gt
map.region.threshold=2
b={b}
theta=estimate
x0=1,2,3
sampling.count=500
sampling.lo={lo}
sampling.hi={hi}
"""


@pytest.mark.parametrize("b", ["auto", "0.5"])
def test_a_box_near_the_float_range_is_analysed(b, tmp_path, capsys):
    # hi - lo overflows, which once left nothing to sample (exit 2). T^2 is
    # the constant -u/3 on the whole space, so the box is never needed.
    path = _write(tmp_path, "s", _WIDE_BOX.format(b=b, lo="-1e308", hi="1e308"))
    assert main(["analyze", "--scenario", path]) == EXIT_CONVERGED
    out, err = capsys.readouterr()
    assert out.endswith("\nprovenance=closed_form\n") and err == ""
    assert main(["solve", "--scenario", path]) == EXIT_CONVERGED
    assert capsys.readouterr().out.startswith("status=Converged\n")


@pytest.mark.parametrize("b", ["1", "auto"])
def test_sampling_count_and_seed_are_accepted_but_not_read(b, tmp_path, capsys):
    # A count of 10^20 was once refused as too large to draw; now neither key
    # changes a byte of the report.
    base = DEMO_SCENARIOS["asymptotic-piecewise"].replace("b=1\ntheta=1\n",
                                                          f"b={b}\ntheta=estimate\n")
    reports = []
    for extra in ("", "sampling.count=100000000000000000000\n", "sampling.count=1\n"):
        text = base.replace("seed=0", "seed=7") + extra if extra else base
        assert main(["solve", "--scenario", _write(tmp_path, "s", text)]) == EXIT_CONVERGED
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1] == reports[2]


# The two-region map u = (3, 3) on {sup > 2} is the constant (-1, -1) on the
# sampling box [-1.5, 1.5]^2 but takes both values on the plane: (-1, -1) and
# (3, 3) are both fixed.
_BOX_ONLY = """\
schema=1
space.kind=cross2
map.kind=piecewise_two_set
map.u=3,3
map.region.threshold=2
sampling.lo=-1.5
sampling.hi=1.5
b=auto
theta=estimate
x0={x0}
"""


def test_a_certificate_of_the_sampling_box_keeps_the_run_in_it(tmp_path, capsys):
    # From x0 = (5, 5) the run once printed Converged at (3, 3), exit 0, on a
    # certificate drawn from a box it never entered.
    assert main(["solve", "--scenario", _write(tmp_path, "s", _BOX_ONLY.format(x0="5,5"))]) \
        == EXIT_LEFT_DOMAIN
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["status=LeftDomain", "iterations=0", "x_star=none"]
    assert "provenance=closed_form(lo=-1.5,-1.5;hi=1.5,1.5)" in lines
    assert ("warning=iterate 0 left the box lo=(-1.5, -1.5) hi=(1.5, 1.5), the only region "
            "where the certificate holds") in lines
    assert main(["solve", "--scenario", _write(tmp_path, "s", _BOX_ONLY.format(x0="0,0"))]) \
        == EXIT_CONVERGED
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "x_star=-1.0000000000000000e+00,-1.0000000000000000e+00"
    assert not any(line.startswith("warning=") for line in lines)


@pytest.mark.parametrize("x0, domain, line", [
    ("5,5", "", "Iterate 0 left the box where the certificate holds."),
    # From (0, 0) the run heads for (-1, -1), inside the box, out of the domain.
    ("0,0", "domain.kind=box\ndomain.lo=-0.5,-0.5\ndomain.hi=0.5,0.5\n",
     "Iterate 1 left the configured domain."),
    # (5, 5) is outside both: the domain names the exit, the warning the box.
    ("5,5", "domain.kind=box\ndomain.lo=-1,-1\ndomain.hi=1,1\n",
     "Iterate 0 left the configured domain."),
], ids=["box-only", "domain-only", "domain-and-box"])
def test_a_left_domain_report_names_the_region_it_left(x0, domain, line, tmp_path, capsys):
    text = _BOX_ONLY.format(x0=x0) + domain
    assert main(["solve", "--scenario", _write(tmp_path, "s", text)]) == EXIT_LEFT_DOMAIN
    out = capsys.readouterr().out
    assert out.startswith("status=LeftDomain\n")
    assert f"\n\n{line}\n" in out
    assert out.count("left the") == 1 + ("warning=iterate" in out)


def test_an_asserted_theta_is_checked_against_the_map(tmp_path, capsys):
    # T takes u = (1, 1) and -u/3 on the plane, so no (b, theta) holds: the
    # asserted (1, 1.5) once ran to Converged after 39 iterations, with step
    # ratios of 1.17 against d = 0.75.
    text = (DEMO_SCENARIOS["asymptotic-piecewise"].replace("mode=asymptotic", "mode=krasnoselskij")
            .replace("theta=1\n", "theta=1.5\n"))
    assert main(["solve", "--scenario", _write(tmp_path, "s", text)]) == EXIT_NOT_CERTIFIABLE
    out = capsys.readouterr().out
    assert ("warning=certification failed: the map is not one affine piece on the whole "
            "space: it takes both x -> 0.0 x + (1.0, 1.0) and x -> 0.0 x + "
            "(-0.3333333333333333, -0.3333333333333333), so no (b, theta) makes it "
            "enriched\n") in out
    # On a domain box inside {sup <= 2} the map is the constant -u/3, and a
    # theta at least |b + 0| holds.
    boxed = text + "domain.kind=box\ndomain.lo=-2,-2\ndomain.hi=2,2\n"
    assert main(["analyze", "--scenario", _write(tmp_path, "s", boxed)]) == EXIT_CONVERGED
    assert capsys.readouterr().out.endswith("\nprovenance=asserted\n")
    low = boxed.replace("theta=1.5", "theta=0.5")
    assert main(["analyze", "--scenario", _write(tmp_path, "s", low)]) == EXIT_NOT_CERTIFIABLE
    assert capsys.readouterr().out == (
        "status=NotCertifiable\nreason=asserted theta=0.5 is below |b + c| = 1.0 for the "
        "map's slope c=0.0\n")


# A two-region map with small u: pairs across the boundary |x|_sup = 3.5
# have Tx - Ty = 4u/3, not parallel to x - y. A grid and golden-section
# search over b once certified it with d = 0.93.
_NOT_PARALLEL = """\
schema=1
space.kind=cross2
map.kind=piecewise_two_set
map.u=0.05,-0.0625
map.region.threshold=3.5
b=auto
theta=estimate
x0=0,0
seed=5
sampling.count=2000
sampling.lo=-4,-4
sampling.hi=4,4
"""


def test_a_map_with_a_pair_that_is_not_parallel_is_not_certifiable(tmp_path, capsys):
    path = _write(tmp_path, "s", _NOT_PARALLEL)
    assert main(["analyze", "--scenario", path]) == EXIT_NOT_CERTIFIABLE == 2
    out, err = capsys.readouterr()
    reason = ("the map is not one affine piece on the box lo=(-4.0, -4.0) hi=(4.0, 4.0): "
              "it takes both x -> 0.0 x + (0.05, -0.0625) and x -> 0.0 x + "
              "(-0.016666666666666666, 0.020833333333333332), so no (b, theta) makes it "
              "enriched")
    assert (out, err) == (f"status=NotCertifiable\nreason={reason}\n", "")
    assert main(["solve", "--scenario", path]) == EXIT_NOT_CERTIFIABLE
    out, err = capsys.readouterr()
    assert out.startswith("status=PreconditionFailed\n")
    assert f"warning=certification failed: {reason}\n" in out


def test_a_run_without_iterates_replaces_an_earlier_trace(tmp_path, capsys):
    trace, report = tmp_path / "t.csv", tmp_path / "r.txt"
    argv = ["solve", "--trace", str(trace), "--report", str(report), "--scenario"]
    assert main(argv + [_write(tmp_path, "ok", REFLECTION_SCENARIO)]) == EXIT_CONVERGED
    assert len(trace.read_text().splitlines()) > 2
    refused = REFLECTION_SCENARIO.replace("b=0.5", "b=0").replace("theta=estimate", "theta=5")
    assert main(argv + [_write(tmp_path, "bad", refused)]) == EXIT_NOT_CERTIFIABLE
    assert report.read_text().startswith("status=PreconditionFailed\n")
    assert trace.read_text() == (
        "n,x_0,x_1,step_residual,fixed_residual,apriori_bound,res_w0,res_w1\n")
    # The header has one column per witness of the scenario.
    three = refused.replace("witnesses=basis", "witnesses=1,0;0,1;1,1")
    assert main(argv + [_write(tmp_path, "three", three)]) == EXIT_NOT_CERTIFIABLE
    assert trace.read_text().rstrip("\n").endswith(",res_w0,res_w1,res_w2")
    capsys.readouterr()


def test_a_run_diverging_at_x0_writes_the_header_line_only(tmp_path, capsys):
    # T x0 = 3e308 + 1 overflows, so the run ends Diverged with no iterate
    # recorded, and the CSV holds the header of its three witnesses alone.
    text = ("schema=1\nspace.kind=cross2\nmode=picard\nmap.kind=scalar_affine\n"
            "map.scale=3\nmap.shift=1,0\nx0=1e308,0\nwitnesses=1,0;0,1;1,1\n")
    trace = tmp_path / "t.csv"
    code = main(["solve", "--scenario", _write(tmp_path, "s", text), "--trace", str(trace)])
    assert code == EXIT_DIVERGED == 6
    assert capsys.readouterr().out.startswith("status=Diverged\n")
    assert trace.read_bytes() == (b"n,x_0,x_1,step_residual,fixed_residual,apriori_bound,"
                                  b"res_w0,res_w1,res_w2\n")


def test_each_trace_row_reads_back_the_loops_iterate_bit_for_bit():
    # The table is the one copy of the iterates: row n's x is the loop's x_n,
    # rebuilt here from x0 as x_{n+1} = T_lam x_n, to the last bit.
    cfg = parse_scenario_text(GRAM8_ITERATED_SCENARIO)
    report, code = run_scenario(cfg)
    assert code == EXIT_CONVERGED and len(report.trace) > 90
    Tlam = averaged(cfg.map, report.certificate.lam)
    x = cfg.x0
    for row in report.trace:
        assert [c.hex() for c in row.x.coords] == [c.hex() for c in x.coords]
        last, x = x, Tlam.combine(x, cfg.map.apply(x))
    assert last == report.x_star


def _basis_free(text):
    """The scenario with a hand-built ``SolveConfig()``: witnesses None, default tol."""
    return dataclasses.replace(parse_scenario_text(text), solve=SolveConfig())


def test_a_config_without_witnesses_writes_the_standard_basis():
    cfg = _basis_free(REFLECTION_SCENARIO)
    written = write_scenario(cfg)
    assert "\nwitnesses=" + ";".join(
        ",".join(fmt_float(c) for c in w.coords) for w in standard_basis(2).witnesses
    ) + "\n" in written
    back = parse_scenario_text(written)
    assert back == dataclasses.replace(cfg, solve=SolveConfig(witnesses=standard_basis(2)))
    assert write_scenario(back) == written


def test_a_failed_run_without_witnesses_writes_one_column_per_basis_vector(
        tmp_path, capsys, monkeypatch):
    refused = REFLECTION_SCENARIO.replace("b=0.5", "b=0").replace("theta=estimate", "theta=5")
    monkeypatch.setattr(cli, "parse_scenario", lambda path: _basis_free(refused))
    trace = tmp_path / "t.csv"
    assert main(["solve", "--scenario", "unused", "--trace", str(trace)]) == EXIT_NOT_CERTIFIABLE
    assert trace.read_text() == (
        "n,x_0,x_1,step_residual,fixed_residual,apriori_bound,res_w0,res_w1\n")
    capsys.readouterr()


@pytest.mark.parametrize("module", ["enrichedfp", "enrichedfp.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    missing = tmp_path / "missing.scenario"
    proc = subprocess.run([sys.executable, "-m", module, "solve", "--scenario", str(missing)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_INTERNAL and proc.stdout == ""
    # One line, and no runpy warning before it for the enrichedfp.cli form.
    assert proc.stderr.splitlines() == [f"scenario error: scenario file not found: {missing}"]


def test_an_overflowing_sample_leaks_no_numpy_warning(tmp_path, capsys):
    # A box near 1e200 once overflowed the sampler's norm kernels. Under the
    # suite's error::RuntimeWarning filter a leaked numpy warning would raise.
    path = _write(tmp_path, "s", _WIDE_BOX.format(b="auto", lo="-1e200", hi="1e200"))
    assert main(["solve", "--scenario", path]) == EXIT_CONVERGED
    out, err = capsys.readouterr()
    assert out.startswith("status=Converged\n") and err == ""


# --- every schema-valid scenario ends in a documented exit code -------------------------

# theta < b + 1, but d = theta / (b + 1) rounds to exactly 1.0.
_D_ROUNDS_TO_ONE = """\
schema=1
space.kind=cross2
mode=krasnoselskij
map.kind=scalar_affine
map.scale=0.5
map.shift=1,0
b=2.9028432123001946
theta=3.902843212300194
x0=0,0
"""
# The closed form |b + c| overflows to inf.
_CLOSED_FORM_OVERFLOWS = """\
schema=1
space.kind=cross2
mode=krasnoselskij
map.kind=scalar_affine
map.scale=1.7e308
map.shift=1,0
b=1.7e308
theta=estimate
x0=0,0
"""

# The slope of T = (x -> -1e200 x + t)^3 overflows to -inf, and b=auto's
# b* = max(0, -c) would be inf, which no certificate takes.
_SLOPE_OVERFLOWS = """\
schema=1
space.kind=cross2
map.kind=iterated
map.times=3
map.inner.kind=scalar_affine
map.inner.scale=-1e200
map.inner.shift=1,0
b=auto
theta=estimate
x0=0,0
"""

_CAPS = {"max_iter": 200, "sampling.count": 500}


def _capped(text):
    """The scenario with max_iter and sampling.count cut to ``_CAPS``."""
    lines = []
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if key in _CAPS:
            line = f"{key}={min(int(value), _CAPS[key])}"
        lines.append(line)
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_scenario_texts())
@example(text=_D_ROUNDS_TO_ONE)
@example(text=_CLOSED_FORM_OVERFLOWS)
@example(text=_SLOPE_OVERFLOWS)
def test_no_schema_valid_scenario_exits_one_or_raises(text, tmp_path, capsys):
    path = _write(tmp_path, "s", _capped(text))
    solve = main(["solve", "--scenario", path, "--trace", str(tmp_path / "t.csv"),
                  "--report", str(tmp_path / "r.txt")])
    assert capsys.readouterr().err == ""
    assert solve in {0, 2, 3, 4, 5, 6, 7}
    analyze = main(["analyze", "--scenario", path])
    assert capsys.readouterr().err == ""
    assert analyze in {0, 2}


@pytest.mark.parametrize("text, reason", [
    (_D_ROUNDS_TO_ONE, "d=theta*lambda=1.0 is not below 1"),
    (_CLOSED_FORM_OVERFLOWS, "theta=inf is not below b+1"),
    (_SLOPE_OVERFLOWS, "the map's slope c=-inf is not finite"),
])
def test_a_certificate_that_certifies_nothing_is_refused(text, reason, tmp_path, capsys):
    # The first two once printed status=Certified or crashed with a
    # ValueError, exit 1.
    path = _write(tmp_path, "s", text)
    assert main(["analyze", "--scenario", path]) == EXIT_NOT_CERTIFIABLE
    out, err = capsys.readouterr()
    assert out.startswith(f"status=NotCertifiable\nreason={reason}") and err == ""
    assert main(["solve", "--scenario", path]) == EXIT_NOT_CERTIFIABLE
    out, err = capsys.readouterr()
    assert out.startswith("status=PreconditionFailed\n") and reason in out and err == ""


def _nested(levels):
    lines = ["schema=1", "space.kind=cross2", "b=0", "theta=estimate", "x0=0,0"]
    prefix = "map"
    for _ in range(levels):
        lines += [f"{prefix}.kind=iterated", f"{prefix}.times=1"]
        prefix += ".inner"
    lines += [f"{prefix}.kind=scalar_affine", f"{prefix}.scale=0.5", f"{prefix}.shift=1,0"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text, key", [
    (REFLECTION_SCENARIO.replace("seed=0", "seed=-1").replace("b=0.5", "b=auto"), "seed"),
    (REFLECTION_SCENARIO.replace("space.kind=cross2\nspace.dimension=2",
                                 "space.kind=gram\nspace.dimension=1"), "space.dimension"),
    (REFLECTION_SCENARIO.replace("space.kind=cross2\nspace.dimension=2",
                                 "space.kind=gram\nspace.dimension=-3"), "space.dimension"),
    (_nested(2000), "map"),
    (_nested(401), "map"),
], ids=["negative-seed", "gram-1", "gram-minus-3", "nested-2000", "nested-401"])
def test_inputs_that_once_raised_are_scenario_errors(text, key, tmp_path, capsys):
    path = _write(tmp_path, "s", text)
    for command in ("solve", "analyze"):
        assert main([command, "--scenario", path]) == EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"scenario error: {key}: ")


def test_a_scenario_nested_at_the_limit_still_runs(tmp_path, capsys):
    path = _write(tmp_path, "s", _nested(400))
    assert main(["solve", "--scenario", path]) == EXIT_CONVERGED
    assert capsys.readouterr().err == ""


def _nested_times(levels, times, extra=""):
    text = _nested(levels).replace(".times=1", f".times={times}")
    return text + extra


@pytest.mark.parametrize("text, key", [
    # 5^12 = 244 million leaf calls per T: this once ran past a 10 s timeout.
    (_nested_times(12, 5), "map" + ".inner" * 6 + ".times: one evaluation of the map "
                           "would make 15625 leaf map evaluations, above the limit of 10000"),
    (_nested_times(1, 10001), "map.times: one evaluation of the map would make 10001 leaf"),
    (_nested_times(2, 100, "mode=asymptotic\nn=2\n"),
     "n: one evaluation of the map would make 20000 leaf map evaluations"),
], ids=["twelve-levels-of-5", "times-10001", "asymptotic-n-2"])
def test_a_map_that_evaluates_too_many_leaves_is_a_scenario_error(text, key, tmp_path,
                                                                   capsys):
    path = _write(tmp_path, "s", text)
    for command in ("solve", "analyze"):
        assert main([command, "--scenario", path]) == EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"scenario error: {key}")


def test_a_map_at_the_leaf_limit_still_parses():
    # 100 * 100 = 10000 leaf calls per T, and in asymptotic mode 5000 * 2.
    assert parse_scenario_text(_nested_times(2, 100)).map.times == 100
    cfg = parse_scenario_text(_nested_times(2, 50, "mode=asymptotic\nn=4\n")
                              .replace("map.inner.times=50", "map.inner.times=25"))
    assert cfg.n == 4


def test_a_scenario_file_that_is_not_utf8_is_a_scenario_error(tmp_path, capsys):
    path = tmp_path / "s.scenario"
    path.write_bytes(REFLECTION_SCENARIO.encode("utf-8") + b"# caf\xe9\n")
    assert main(["solve", "--scenario", str(path)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("scenario error: scenario file is not UTF-8: ")


# --- every parser error branch ---------------------------------------------------------

_BASE = """\
schema=1
space.kind=cross2
map.kind=reflection
map.w=2,0
b=0.5
theta=estimate
x0=0,0
"""


def _with(changes):
    """``_BASE`` with each key set to its value, or removed where it is None;
    a string is a line appended as it is."""
    if isinstance(changes, str):
        return _BASE + changes + "\n"
    kv = dict(line.split("=", 1) for line in _BASE.splitlines())
    kv.update(changes)
    return "".join(f"{k}={v}\n" for k, v in kv.items() if v is not None)


_NO_W = {"map.w": None}
_BALL = {"domain.kind": "ball", "domain.u": "0,1", "domain.center": "0,0"}

_PARSE_ERRORS = {
    "no-equals": ("oops", "line 8: expected key=value, got 'oops'"),
    "non-finite": ({"tol": "inf"}, "tol: must be finite, got 'inf'"),
    "non-integer": ({"max_iter": "1.5"}, "max_iter: not an integer: '1.5'"),
    "empty-coordinates": ({"x0": ","}, "x0: empty coordinate list"),
    "bad-boolean": ({**_BALL, "domain.radius": "1", "domain.closed": "maybe"},
                    "domain.closed: expected true or false, got 'maybe'"),
    "no-map-kind": ({"map.kind": None, **_NO_W}, "map.kind: missing"),
    "reflection-without-w": (_NO_W, "map.w: missing for reflection"),
    "affine-without-shift": ({"map.kind": "scalar_affine", **_NO_W, "map.scale": "0.5"},
                             "map: scalar_affine needs scale and shift"),
    "piecewise-without-u": ({"map.kind": "piecewise_two_set", **_NO_W},
                            "map.u: missing for piecewise_two_set"),
    "unknown-region": ({"map.kind": "piecewise_two_set", **_NO_W, "map.u": "1,1",
                        "map.region.kind": "ball"}, "map.region.kind: unknown region 'ball'"),
    "averaged-without-lambda": ({"map.kind": "averaged", **_NO_W,
                                 "map.inner.kind": "reflection", "map.inner.w": "2,0"},
                                "map.lambda: missing for averaged"),
    "iterated-without-times": ({"map.kind": "iterated", **_NO_W,
                                "map.inner.kind": "reflection", "map.inner.w": "2,0"},
                               "map.times: missing for iterated"),
    "unknown-map": ({"map.kind": "rotation"}, "map.kind: unknown map kind 'rotation'"),
    "map-of-another-dimension": ({"map.w": "2,0,0"},
                                 "map: dimension 3 does not match space dimension 2"),
    "unknown-mode": ({"mode": "newton"}, "mode: expected one of ('krasnoselskij', 'picard', "
                                         "'local', 'asymptotic'), got 'newton'"),
    "cross2-dimension-3": ({"space.dimension": "3"},
                           "space.dimension: cross2 requires dimension 2"),
    "gram-without-dimension": ({"space.kind": "gram"},
                               "space.dimension: required for gram spaces"),
    "negative-b": ({"b": "-1"}, "b: must be nonnegative"),
    "negative-theta": ({"theta": "-0.5"}, "theta: must be nonnegative"),
    "n-zero": ({"n": "0"}, "n: must be at least 1"),
    "no-x0": ({"x0": None}, "x0: missing"),
    "witnesses-not-spanning": ({"witnesses": "1,0;2,0"},
                               "witnesses: witness set does not span the space"),
    "witnesses-of-another-dimension": ({"witnesses": "1,0,0;0,1,0;0,0,1"},
                                       "witnesses: dimension does not match the space"),
    "tol-zero": ({"tol": "0"}, "tol: must be positive"),
    "max-iter-zero": ({"max_iter": "0"}, "max_iter: must be at least 1"),
    "box-without-hi": ({"domain.kind": "box", "domain.lo": "-1,-1"},
                       "domain: box needs domain.lo and domain.hi"),
    "ball-without-radius": (_BALL, "domain: ball needs domain.u, domain.center, domain.radius"),
    "unknown-domain": ({"domain.kind": "disc"}, "domain.kind: expected box or ball, got 'disc'"),
    "local-r-zero": ({"local.u": "0,1", "local.r": "0"}, "local.r: must be positive"),
    "sampling-count-zero": ({"sampling.count": "0"}, "sampling.count: must be at least 1"),
    "removed-eps-dep": ({"sampling.eps_dep": "1e-7"}, "unknown keys: sampling.eps_dep"),
}


@pytest.mark.parametrize("changes, message", _PARSE_ERRORS.values(), ids=_PARSE_ERRORS.keys())
def test_each_parse_error_is_one_line_naming_the_key(changes, message, tmp_path, capsys):
    path = _write(tmp_path, "s", _with(changes))
    assert main(["solve", "--scenario", path]) == EXIT_INTERNAL
    assert capsys.readouterr() == ("", f"scenario error: {message}\n")


def test_blank_and_comment_lines_parse_like_the_text_without_them():
    lines = _BASE.splitlines()
    padded = "\n".join(["# a comment", ""] + lines[:3] + ["   ", "  # indented"] + lines[3:])
    assert parse_scenario_text(padded + "\n\n") == parse_scenario_text(_BASE)


def test_a_sampled_analyze_prints_its_provenance(tmp_path, capsys):
    text = (DEMO_SCENARIOS["asymptotic-piecewise"].replace("theta=1", "theta=estimate")
            .replace("seed=0", "seed=3") + "sampling.count=2000\n")
    assert main(["analyze", "--scenario", _write(tmp_path, "s", text)]) == EXIT_CONVERGED
    out, err = capsys.readouterr()
    # sampling.count and seed are accepted, but nothing samples any more.
    assert out.endswith("\nprovenance=closed_form\n") and err == ""


def test_an_asymptotic_fixed_point_that_the_map_moves_reports_no_x_star(tmp_path, capsys):
    # T = -0.99 x: x0 = (37, 0) meets tol = 1 for T^2, which moves it by
    # 0.0199 * 37, but T moves it by 1.99 * 37.
    text = _with({"mode": "asymptotic", "map.kind": "scalar_affine", "map.w": None,
                  "map.scale": "-0.99", "map.shift": "0,0", "b": "0", "theta": "0.99",
                  "n": "2", "tol": "1", "x0": "37,0"})
    assert main(["solve", "--scenario", _write(tmp_path, "s", text)]) == EXIT_MAX_ITER
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "status=MaxIterExceeded" and "x_star=none" in lines
    assert ("warning=fixed point of the 2-th iterate is not fixed by the map itself: "
            "residual 73.63 exceeds tol 1.0") in lines


# --- the stop sentence of every outcome ------------------------------------------------

_LOCAL_REFLECTION = _with({"b": "1", "theta": "0", "mode": "local", "local.u": "0,1",
                           "local.r": "0.5"})
# x0 - T x0 is nearly parallel to u: gram's general kernel reads its norm as 0
# where the exact value is 6.7e-16, so the precondition passes with eps = r/2
# = 5e-17, and the 15th iterate leaves that ball.
_LEAVES_THE_BALL = """\
schema=1
space.kind=gram
space.dimension=2
mode=local
map.kind=scalar_affine
map.scale=-0.5
map.shift=0.3,0.3
b=0
theta=estimate
x0=1,3
local.u=2,7
local.r=1e-16
"""

_STOP_SENTENCES = {
    "converged-at-x0": (_with({"x0": "1,0"}), EXIT_CONVERGED,
                        "Converged after 0 iteration(s) to (1.0, 0.0)."),
    "converged": (REFLECTION_SCENARIO, EXIT_CONVERGED,
                  "Converged after 22 iteration(s) to (0.9999999999681337, 0.0)."),
    "oscillation": (DEMO_SCENARIOS["picard-oscillation"], EXIT_OSCILLATION,
                    "Picard iteration locked into a period-2 orbit; the plain iteration "
                    "does not converge for this map."),
    "precondition": (_LOCAL_REFLECTION, EXIT_NOT_CERTIFIABLE,
                     "Rejected: displacement 2.0 is not below (b+1-theta)*r = 1.0."),
    "certification": (DEMO_SCENARIOS["asymptotic-piecewise"]
                      .replace("mode=asymptotic", "mode=krasnoselskij")
                      .replace("theta=1\n", "theta=1.5\n"),
                      EXIT_NOT_CERTIFIABLE, "Rejected before iterating; see warnings."),
    "left-box": (_BOX_ONLY.format(x0="5,5"), EXIT_LEFT_DOMAIN,
                 "Iterate 0 left the box where the certificate holds."),
    "left-domain": (_BOX_ONLY.format(x0="0,0")
                    + "domain.kind=box\ndomain.lo=-0.5,-0.5\ndomain.hi=0.5,0.5\n",
                    EXIT_LEFT_DOMAIN, "Iterate 1 left the configured domain."),
    "left-ball": (_LEAVES_THE_BALL, EXIT_LEFT_DOMAIN, "Iterate 15 left the configured domain."),
    "diverged": (_DIVERGENT + "mode=picard\nmap.kind=scalar_affine\nmap.scale=3\n"
                 "map.shift=1,0\n", EXIT_DIVERGED,
                 "Diverged: the iteration overflowed after 645 iteration(s)."),
    "certificate-violated": (
        "schema=1\nspace.kind=cross2\nspace.dimension=2\nmode=krasnoselskij\n"
        "map.kind=scalar_affine\nmap.scale=0.02\nmap.shift=-8.0164e307,0\n"
        "b=0\ntheta=estimate\nx0=1e308,0\ntol=1e300\n",
        EXIT_CERTIFICATE_VIOLATED,
        "Met tol after 6 iteration(s), but the trace broke the certificate's a priori "
        "bound, so the certificate does not hold for this run."),
    "max-iter": (_with({"max_iter": "1"}), EXIT_MAX_ITER,
                 "Stopped after 1 iteration(s) without meeting tol."),
    "asymptotic-downgrade": (
        _with({"mode": "asymptotic", "map.kind": "scalar_affine", "map.w": None,
               "map.scale": "-0.99", "map.shift": "0,0", "b": "0", "theta": "0.99",
               "n": "2", "tol": "1", "x0": "37,0"}),
        EXIT_MAX_ITER, "Stopped after 0 iteration(s) without meeting tol."),
}


@pytest.mark.parametrize("text, code, sentence", _STOP_SENTENCES.values(),
                         ids=_STOP_SENTENCES.keys())
def test_each_outcome_states_why_the_run_stopped(text, code, sentence, tmp_path, capsys):
    # The human block opens with one sentence saying why the run stopped.
    assert main(["solve", "--scenario", _write(tmp_path, "s", text)]) == code
    human = capsys.readouterr().out.split("\n\n", 1)[1]
    assert human.splitlines()[0] == sentence


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: the stopping rule has no rounding "
                   "term, so the float iterates stall short of the fixed point")
def test_a_converged_run_lies_within_tol_of_the_exact_fixed_point():
    # The float map x -> 0.999 x + (1, 0) has the exact fixed point
    # (1 / (1 - 0.999), 0), 0.999 read as its double. The run stops where the
    # float iterates stall, at a step and residual of 0, about 57 tol away.
    text = _with({"map.kind": "scalar_affine", "map.w": None, "map.scale": "0.999",
                  "map.shift": "1,0", "b": "auto", "tol": "1e-12", "max_iter": "100000"})
    report, code = run_scenario(parse_scenario_text(text))
    assert code == EXIT_CONVERGED
    exact = (1 / (1 - Fraction(0.999)), Fraction(0))
    error = max(abs(Fraction(x) - e) for x, e in zip(report.x_star.coords, exact))
    assert error <= Fraction(1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11: the gram kernel reads 0 for a pair "
                   "close to dependence, so the local precondition passes")
def test_a_near_dependent_local_precondition_fails_on_gram_as_on_cross2():
    # ||x0 - T x0, u|| = ||(1.2, 4.2), (2, 7)|| is 6.66e-16 exactly rounded,
    # past (b + 1 - theta) r = 5e-17: cross2 rejects the run before iterating,
    # and gram:2, the same space, must do the same.
    text = ("schema=1\nspace.kind={space}\nmode=local\nmap.kind=scalar_affine\n"
            "map.scale=-0.5\nmap.shift=0.3,0.3\nb=0\ntheta=estimate\nx0=1,3\n"
            "local.u=2,7\nlocal.r=1e-16\n")
    cross2 = run_scenario(parse_scenario_text(text.format(space="cross2")))[1]
    assert cross2 == EXIT_NOT_CERTIFIABLE == 2
    gram = run_scenario(parse_scenario_text(text.format(space="gram\nspace.dimension=2")))[1]
    assert gram == EXIT_NOT_CERTIFIABLE


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the gram norm's Dekker split overflows "
                   "past |v| of about 1.2e150, so the bound check reads NaN gaps as violations")
def test_a_run_at_the_exact_fixed_point_far_out_holds_its_certificate():
    # The reflection x -> w - x from x0 = 0 steps to w / 2, its exact fixed
    # point, in one iteration. |w| / 2 is past the gram kernel's reach, so
    # the gaps x_n - x_star have NaN norms and the run exits 7.
    text = _with({"space.kind": "gram\nspace.dimension=2",
                  "map.w": "0,2.3146366876930233e+150", "b": "1", "tol": "1",
                  "max_iter": "1"})
    report, code = run_scenario(parse_scenario_text(text))
    assert report.x_star.coords == (0.0, 2.3146366876930233e+150 / 2)
    assert code == EXIT_CONVERGED
