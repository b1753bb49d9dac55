"""Benchmark of the enrichedfp CLI: seeded workloads through ``cli.main``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload long-solve --seed 1 --seconds 20 --trace 0

Each scenario is one in-process ``cli.main(["solve", "--scenario", ...,
"--trace", ..., "--report", ...])`` call with stdout captured, exactly what a
user runs. One process, one thread: the BLAS/OpenMP pools are pinned to one
thread before numpy loads.

``--trace 0`` times the workload with no wrapper installed and prints the
end-to-end metrics. ``--trace 1`` runs the workload's scenario cycle
alternately untraced and traced (see ``spans.py``) and prints the per-layer
metrics. Either way every output is checked, a few JSON lines of context are
printed, and the last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``.

Outputs go to ``.perfbench_out/<workload>/`` under the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

LOOP_CAP_S = 120.0     # stop timing here even before one pass is complete
SETUP_REPS = 7

END_TO_END_UNITS = {
    "scenarios_per_s": "1/s",
    "scenario_p50_ms": "ms",
    "scenario_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def percentile(samples: Sequence[float], q: float, min_beyond: int = 10) -> float:
    """Nearest-rank q-quantile, defined only with ``min_beyond`` samples above it.

    The rank is ``ceil(q * n)``; the samples ranked after it must number at
    least ``min_beyond``, so that the percentile rests on a real tail.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        raise ValueError(f"{n} samples leave {n - rank} beyond the {q} quantile; "
                         f"need {min_beyond}")
    return sorted(samples)[rank - 1]


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# --- one scenario call ------------------------------------------------------------

@dataclass
class Paths:
    scenario: Path
    trace: Path
    report: Path


@dataclass
class Call:
    code: Optional[int]
    error: Optional[str]  # the exception, when main raised
    seconds: float
    stdout: str
    stderr: str


def _paths(outdir: Path, stem: str) -> Paths:
    return Paths(outdir / f"{stem}.scenario", outdir / f"{stem}.trace.csv",
                 outdir / f"{stem}.report.txt")


def _stems(workload) -> list[tuple[str, object]]:
    """File stem of every scenario: the cycle, the warm-up and the probes."""
    return ([(f"s{i:03d}", s) for i, s in enumerate(workload.cycle)]
            + [("warmup", workload.warmup)]
            + [(f"probe{i}", s) for i, s in enumerate(workload.probes)])


def call_main(cli, p: Paths) -> Call:
    """One timed ``cli.main`` solve; the clock covers parse to last artifact."""
    for f in (p.trace, p.report):
        f.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    argv = ["solve", "--scenario", str(p.scenario), "--trace", str(p.trace),
            "--report", str(p.report)]
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a result to record, not to stop on
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Call(code, error, seconds, out.getvalue(), err.getvalue())


def _read(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b""


def artifacts(p: Paths) -> tuple[bytes, bytes]:
    return _read(p.report), _read(p.trace)


def _report_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        if not line:
            break
        key, _, value = line.partition("=")
        fields.setdefault(key, value)
    return fields


def check(scn, call: Call, report: bytes, trace: bytes, wl) -> Optional[str]:
    """Why this run of the scenario is wrong, or None when it is right."""
    if call.error is not None:
        return f"raised {call.error}"
    if call.code != scn.expect_exit:
        return f"exit code {call.code}, expected {scn.expect_exit}: {call.stderr[-300:]!r}"
    if call.stdout.encode("utf-8") != report:
        return "stdout differs from the report file"
    fields = _report_fields(report.decode("utf-8"))
    if fields.get("bound_violations") != "0":
        return f"bound_violations={fields.get('bound_violations')}"
    if scn.expect_exit == wl.EXIT_CONVERGED:
        if not trace:
            return "no trace CSV for a converged run"
        x_star = tuple(float(v) for v in fields["x_star"].split(","))
        res = wl.witness_residual(x_star, scn.x_true)
        if not res <= wl.PROMISE:
            return f"witness residual {res!r} to the true fixed point exceeds {wl.PROMISE!r}"
    return None


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


class Runner:
    """Runs scenarios of one workload and checks every output.

    The first run of each scenario is checked in full; every later run must
    reproduce its bytes (report, trace CSV and stdout) exactly. ``best``
    keeps each scenario's fastest passing run, ``math.inf`` once any run of
    it failed.
    """

    def __init__(self, cli, wl, workload, outdir: Path) -> None:
        self.cli, self.wl, self.workload = cli, wl, workload
        n = len(workload.cycle)
        self.paths = [_paths(outdir, f"s{i:03d}") for i in range(n)]
        self.first: list[Optional[str]] = [None] * n
        self.artifact_digests: list[Optional[str]] = [None] * n
        self.best: list[Optional[float]] = [None] * n
        self.failures: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.emit_bytes = 0

    def run(self, k: int) -> float:
        """Run scenario k once; returns the call's latency in seconds."""
        scn, p = self.workload.cycle[k], self.paths[k]
        call = call_main(self.cli, p)
        report, trace = artifacts(p)
        stdout = call.stdout.encode("utf-8")
        self.emit_bytes += len(report) + len(trace) + len(stdout)
        h = digest(report, trace, stdout)
        if self.first[k] is None:
            reason = check(scn, call, report, trace, self.wl)
            if reason is None:
                self.first[k] = h
                self.artifact_digests[k] = digest(report, trace)
        else:
            reason = None if h == self.first[k] else "rerun changed the artifact bytes"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures.setdefault(scn.name, reason)
            self.best[k] = math.inf
        elif self.best[k] is None or call.seconds < self.best[k] < math.inf:
            self.best[k] = call.seconds
        return call.seconds

    def artifact_sha256(self) -> Optional[str]:
        """One hash over every report and trace CSV, in scenario order."""
        if any(d is None for d in self.artifact_digests):
            return None
        return digest(*(d.encode("ascii") for d in self.artifact_digests))


# --- set-up ---------------------------------------------------------------------

def write_scenarios(wl, workload_name: str, seed: int, outdir: Path):
    """Generate the workload and write its scenario files; returns the workload."""
    workload = wl.generate(workload_name, seed)
    outdir.mkdir(parents=True, exist_ok=True)
    for stem, scn in _stems(workload):
        _paths(outdir, stem).scenario.write_text(scn.text, encoding="utf-8", newline="\n")
    return workload


def measure_setup(wl, workload_name: str, seed: int,
                  outdir: Path) -> tuple[float, list[str]]:
    """Median over SETUP_REPS of: generate and write the inputs, then a fresh
    process that starts, imports the package and runs the warm-up scenario.

    Also returns a problem for every set-up whose exit code was wrong."""
    p = _paths(outdir, "warmup")
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
             str(p.scenario), str(p.trace), str(p.report)]
    reps, problems = [], []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload = write_scenarios(wl, workload_name, seed, outdir)
        done = subprocess.run(probe, cwd=ROOT, env=os.environ.copy(), timeout=120,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        reps.append(time.perf_counter() - start)
        if done.returncode != workload.warmup.expect_exit:
            problems.append(f"set-up exited {done.returncode}: "
                            f"{done.stderr.decode(errors='replace')[-300:]!r}")
    return statistics.median(reps), problems


def warm_up(cli, wl, workload, outdir: Path) -> Optional[str]:
    p = _paths(outdir, "warmup")
    call = call_main(cli, p)
    return check(workload.warmup, call, *artifacts(p), wl)


def run_probes(cli, workload, outdir: Path) -> dict[str, str]:
    """Run the known-crashing inputs once; a documented non-zero code fixes one."""
    outcomes = {}
    for i, scn in enumerate(workload.probes):
        call = call_main(cli, _paths(outdir, f"probe{i}"))
        outcomes[scn.name] = call.error if call.error is not None else f"exit {call.code}"
    return outcomes


# --- the two modes --------------------------------------------------------------

def timed(runner: Runner, seconds: float) -> dict:
    """Repeat passes over the cycle until ``seconds`` are up.

    A scenario's latency is the fastest of its runs (as ``timeit`` reports),
    which filters out the time a shared machine spends on other work; a
    scenario with any failed run counts as +inf. p50 and p90 are taken over
    the cycle's scenarios and scenarios_per_s is the passing scenarios over
    the sum of their latencies.
    """
    n = len(runner.workload.cycle)
    busy, calls = 0.0, 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= LOOP_CAP_S or (elapsed >= seconds and calls >= n):
            break
        busy += runner.run(calls % n)
        calls += 1
    best = [math.inf if t is None else t for t in runner.best]
    passing = [t for t in best if math.isfinite(t)]
    return {
        "metrics": {
            "scenarios_per_s": len(passing) / math.fsum(passing),
            "scenario_p50_ms": 1e3 * percentile(best, 0.5),
            "scenario_p90_ms": 1e3 * percentile(best, 0.9),
        },
        "samples": n,
        "samples_beyond_p90": n - math.ceil(0.9 * n),
        "runs_per_scenario": calls / n,
        "calls_per_s_all_runs": (calls - runner.failed) / busy,
    }


def traced(runner: Runner, seconds: float, spans_mod, outdir: Path) -> dict:
    """Alternate untraced and traced passes over the cycle until time is up.

    Counts must repeat exactly from round to round; times are the median
    over rounds. The first traced round's spans are written out at the end.
    """
    n = len(runner.workload.cycle)
    rounds, first = [], None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < min(seconds, LOOP_CAP_S):
        if spans_mod.installed_wrappers():
            raise RuntimeError("span wrappers installed during an untraced pass")
        wall_u = sum(runner.run(k) for k in range(n))
        tracer = spans_mod.Tracer()
        tracer.install()
        emitted = runner.emit_bytes
        try:
            wall_t = 0.0
            for k in range(n):
                tracer.scenario = k
                wall_t += runner.run(k)
        finally:
            tracer.uninstall()
        rounds.append(spans_mod.layer_metrics(tracer, wall_u, wall_t,
                                              runner.emit_bytes - emitted))
        first = first or tracer
    first.write(outdir / "spans.csv")
    steady = all(r[k] == rounds[0][k] for r in rounds for k in spans_mod.COUNT_METRICS)
    metrics = {key: rounds[0][key] if key in spans_mod.COUNT_METRICS
               else statistics.median(r[key] for r in rounds)
               for key in spans_mod.PER_LAYER_UNITS}
    return {"metrics": metrics, "rounds": len(rounds), "counts_repeat": steady,
            "spans_written": len(first.names)}


# --- entry point ----------------------------------------------------------------

def _args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _args(argv)
    if not (SRC / "enrichedfp" / "__init__.py").is_file():
        print(f"error: no enrichedfp sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    import numpy
    import enrichedfp
    from enrichedfp import cli
    if Path(enrichedfp.__file__).resolve().parent != (SRC / "enrichedfp").resolve():
        print(f"error: imported enrichedfp from {enrichedfp.__file__}", file=sys.stderr)
        return 2
    import spans as spans_mod
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {wl.WORKLOADS}",
              file=sys.stderr)
        return 2

    outdir = OUT / args.workload
    setup_s, problems = None, []
    if not args.trace:
        setup_s, problems = measure_setup(wl, args.workload, args.seed, outdir)
    workload = write_scenarios(wl, args.workload, args.seed, outdir)
    runner = Runner(cli, wl, workload, outdir)
    if spans_mod.installed_wrappers():
        raise RuntimeError("span wrappers installed before the untraced warm-up")
    warm = warm_up(cli, wl, workload, outdir)
    if warm is not None:
        problems.append(f"warm-up: {warm}")

    if args.trace:
        result = traced(runner, args.seconds, spans_mod, outdir)
        if not result["counts_repeat"]:
            problems.append("per-layer counts differ between rounds")
    else:
        result = timed(runner, args.seconds)
        if spans_mod.installed_wrappers():
            problems.append("span wrappers found after the untimed run")
        result["metrics"]["setup_s"] = setup_s
        result["metrics"]["peak_rss_mb"] = _peak_rss_mb()
    probes = run_probes(cli, workload, outdir)
    # A probe exiting 0 would claim convergence on a divergent or invalid input.
    problems += [f"{name}: {out}" for name, out in probes.items() if out == "exit 0"]

    sha = runner.artifact_sha256()
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": nproc(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scenarios_in_cycle": len(workload.cycle),
        "categories": _shares(workload.cycle),
        "artifact_sha256": sha,
        "failed_frac": runner.failed / max(1, runner.attempted),
        "failures": runner.failures,
        "known_defects": sum(1 for out in probes.values() if not out.startswith("exit ")),
        "probes": probes,
        "problems": problems,
        **{k: v for k, v in result.items() if k != "metrics" and k != "counts_repeat"},
    }
    print(json.dumps({"info": info}))

    units = spans_mod.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct = (not problems and runner.failed == 0 and sha is not None)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0


def _shares(cycle) -> dict[str, float]:
    counts: dict[str, int] = {}
    for scn in cycle:
        counts[scn.category] = counts.get(scn.category, 0) + 1
        counts["space=" + scn.space] = counts.get("space=" + scn.space, 0) + 1
    return {k: v / len(cycle) for k, v in sorted(counts.items())}


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
