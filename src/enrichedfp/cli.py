"""Scenario-driven command line front end.

Subcommands:

* ``check-norm`` -- run the 2-norm axiom suite on a built-in space;
* ``analyze``    -- resolve (b, theta) for a scenario and print the
  certificate;
* ``solve``      -- full run: certify, iterate, emit trace CSV and report;
* ``demo``       -- run one of the shipped scenarios (reflection,
  picard-oscillation, asymptotic-piecewise).

Scenario files are plain ``key=value`` text with dotted keys for nested
blocks (map/domain/local/sampling) and a ``schema=1`` header. All floats in
emitted artifacts are rendered with 17 significant digits so reruns are
byte-identical and every value round-trips.

Exit codes: 0 converged, 1 scenario or usage error (a message on stderr;
this covers coordinate lists whose length is not the space dimension and
``check-norm --samples`` below 1), 2 not certifiable / precondition failed, 3
oscillation detected, 4 iteration budget exceeded, 5 left the domain, 6
diverged (an iterate overflowed).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, TextIO, Union

from .analyzer import (
    EnrichedCertificate,
    NotCertifiableError,
    Provenance,
    certify,
    certify_sampled,
    estimate_theta,
    optimize_b,
    theta_scalar_affine,
)
from .mapping import (
    Averaged,
    Iterated,
    PiecewiseTwoSet,
    Reflection,
    ScalarAffine,
    SelfMap,
    SupNormRegion,
    affine_reduction,
    iterated,
)
from .solver import (
    Domain,
    IterationTrace,
    SolveConfig,
    SolveReport,
    SolveStatus,
    TwoNormBall,
    asymptotic_solve,
    krasnoselskij_solve,
    local_ball_solve,
    picard_solve,
)
from .space import (
    Box,
    SpaceElement,
    TwoNormSpace,
    WitnessSet,
    check_axioms,
    cross2_space,
    gram_space,
    standard_basis,
)

__all__ = [
    "ScenarioError",
    "SamplingSettings",
    "ScenarioConfig",
    "parse_scenario",
    "parse_scenario_text",
    "write_scenario",
    "run_scenario",
    "emit_trace_csv",
    "emit_report",
    "report_text",
    "DEMO_SCENARIOS",
    "main",
    "main_entry",
]

EXIT_CONVERGED = 0
EXIT_INTERNAL = 1
EXIT_NOT_CERTIFIABLE = 2
EXIT_OSCILLATION = 3
EXIT_MAX_ITER = 4
EXIT_LEFT_DOMAIN = 5
EXIT_DIVERGED = 6

_STATUS_EXIT = {
    SolveStatus.CONVERGED: EXIT_CONVERGED,
    SolveStatus.PRECONDITION_FAILED: EXIT_NOT_CERTIFIABLE,
    SolveStatus.OSCILLATION: EXIT_OSCILLATION,
    SolveStatus.MAX_ITER: EXIT_MAX_ITER,
    SolveStatus.LEFT_DOMAIN: EXIT_LEFT_DOMAIN,
    SolveStatus.DIVERGED: EXIT_DIVERGED,
}

MODES = ("krasnoselskij", "picard", "local", "asymptotic")


def fmt_float(v: float) -> str:
    """17 significant digits: lossless for doubles, stable for golden files."""
    return f"{v:.16e}"


def _fmt_coords(coords: Sequence[float]) -> str:
    return ",".join(fmt_float(c) for c in coords)


class ScenarioError(ValueError):
    """A scenario file violated the schema; the message names the field."""


@dataclass(frozen=True)
class SamplingSettings:
    count: int
    eps_dep: float
    box: Box


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of one experiment."""

    space: TwoNormSpace
    mode: str
    map: SelfMap
    b: Union[float, str]          # a number or "auto"
    theta: Union[float, str]      # a number or "estimate"
    n: int
    x0: SpaceElement
    witnesses: WitnessSet
    tol: float
    max_iter: int
    seed: int
    domain: Optional[Domain]
    local_u: Optional[SpaceElement]
    local_r: Optional[float]
    sampling: SamplingSettings


# --- parsing ------------------------------------------------------------------

def _parse_float(raw: str, key: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ScenarioError(f"{key}: not a number: {raw!r}") from None
    if not math.isfinite(v):
        raise ScenarioError(f"{key}: must be finite, got {raw!r}")
    return v


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"{key}: not an integer: {raw!r}") from None


def _parse_coords(raw: str, key: str) -> tuple[float, ...]:
    parts = [p for p in raw.split(",") if p.strip()]
    if not parts:
        raise ScenarioError(f"{key}: empty coordinate list")
    return tuple(_parse_float(p, key) for p in parts)


def _require_dim(coords: tuple[float, ...], key: str, dim: int) -> tuple[float, ...]:
    if len(coords) != dim:
        raise ScenarioError(
            f"{key}: dimension {len(coords)} does not match space dimension {dim}"
        )
    return coords


def _parse_point(raw: str, key: str, dim: int) -> tuple[float, ...]:
    """A coordinate list that must have one entry per space dimension."""
    return _require_dim(_parse_coords(raw, key), key, dim)


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "false"):
        return low == "true"
    raise ScenarioError(f"{key}: expected true or false, got {raw!r}")


def _kv_lines(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ScenarioError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in out:
            raise ScenarioError(f"{key}: duplicated key")
        out[key] = value
    return out


def _parse_map(kv: dict[str, str], prefix: str, dimension: int) -> SelfMap:
    kind_key = f"{prefix}.kind"
    kind = kv.pop(kind_key, None)
    if kind is None:
        raise ScenarioError(f"{kind_key}: missing")
    if kind == "reflection":
        w = kv.pop(f"{prefix}.w", None)
        if w is None:
            raise ScenarioError(f"{prefix}.w: missing for reflection")
        return Reflection(SpaceElement(_parse_coords(w, f"{prefix}.w")))
    if kind == "scalar_affine":
        scale = kv.pop(f"{prefix}.scale", None)
        shift = kv.pop(f"{prefix}.shift", None)
        if scale is None or shift is None:
            raise ScenarioError(f"{prefix}: scalar_affine needs scale and shift")
        return ScalarAffine(
            _parse_float(scale, f"{prefix}.scale"),
            SpaceElement(_parse_coords(shift, f"{prefix}.shift")),
        )
    if kind == "piecewise_two_set":
        u = kv.pop(f"{prefix}.u", None)
        region_kind = kv.pop(f"{prefix}.region.kind", "sup_norm_gt")
        threshold = kv.pop(f"{prefix}.region.threshold", "2")
        if u is None:
            raise ScenarioError(f"{prefix}.u: missing for piecewise_two_set")
        if region_kind != "sup_norm_gt":
            raise ScenarioError(f"{prefix}.region.kind: unknown region {region_kind!r}")
        return PiecewiseTwoSet(
            SupNormRegion(_parse_float(threshold, f"{prefix}.region.threshold")),
            SpaceElement(_parse_coords(u, f"{prefix}.u")),
        )
    if kind == "averaged":
        lam = kv.pop(f"{prefix}.lambda", None)
        if lam is None:
            raise ScenarioError(f"{prefix}.lambda: missing for averaged")
        inner = _parse_map(kv, f"{prefix}.inner", dimension)
        lam_value = _parse_float(lam, f"{prefix}.lambda")
        try:
            return Averaged(inner, lam_value)
        except ValueError as exc:
            raise ScenarioError(f"{prefix}.lambda: {exc}") from None
    if kind == "iterated":
        times = kv.pop(f"{prefix}.times", None)
        if times is None:
            raise ScenarioError(f"{prefix}.times: missing for iterated")
        inner = _parse_map(kv, f"{prefix}.inner", dimension)
        times_value = _parse_int(times, f"{prefix}.times")
        try:
            return Iterated(inner, times_value)
        except ValueError as exc:
            raise ScenarioError(f"{prefix}.times: {exc}") from None
    raise ScenarioError(f"{kind_key}: unknown map kind {kind!r}")


def _write_map(lines: list[str], prefix: str, T: SelfMap) -> None:
    if isinstance(T, Reflection):
        lines.append(f"{prefix}.kind=reflection")
        lines.append(f"{prefix}.w={_fmt_coords(T.w.coords)}")
    elif isinstance(T, ScalarAffine):
        lines.append(f"{prefix}.kind=scalar_affine")
        lines.append(f"{prefix}.scale={fmt_float(T.scale)}")
        lines.append(f"{prefix}.shift={_fmt_coords(T.shift.coords)}")
    elif isinstance(T, PiecewiseTwoSet):
        lines.append(f"{prefix}.kind=piecewise_two_set")
        lines.append(f"{prefix}.u={_fmt_coords(T.u.coords)}")
        lines.append(f"{prefix}.region.kind=sup_norm_gt")
        lines.append(f"{prefix}.region.threshold={fmt_float(T.region.threshold)}")
    elif isinstance(T, Averaged):
        lines.append(f"{prefix}.kind=averaged")
        lines.append(f"{prefix}.lambda={fmt_float(T.lam)}")
        _write_map(lines, f"{prefix}.inner", T.inner)
    elif isinstance(T, Iterated):
        lines.append(f"{prefix}.kind=iterated")
        lines.append(f"{prefix}.times={T.times}")
        _write_map(lines, f"{prefix}.inner", T.inner)
    else:  # pragma: no cover - the tree above is closed
        raise ScenarioError(f"map: cannot serialise {type(T).__name__}")


def parse_scenario_text(text: str) -> ScenarioConfig:
    """Parse and validate scenario text; defaults applied, strict on keys."""
    kv = _kv_lines(text)

    schema = kv.pop("schema", None)
    if schema != "1":
        raise ScenarioError(f"schema: expected 1, got {schema!r}")

    space_kind = kv.pop("space.kind", None)
    if space_kind not in ("cross2", "gram"):
        raise ScenarioError(f"space.kind: expected cross2 or gram, got {space_kind!r}")
    if space_kind == "cross2":
        dimension = _parse_int(kv.pop("space.dimension", "2"), "space.dimension")
        if dimension != 2:
            raise ScenarioError("space.dimension: cross2 requires dimension 2")
        space = cross2_space()
    else:
        raw_dim = kv.pop("space.dimension", None)
        if raw_dim is None:
            raise ScenarioError("space.dimension: required for gram spaces")
        space = gram_space(_parse_int(raw_dim, "space.dimension"))
    dim = space.dimension

    mode = kv.pop("mode", "krasnoselskij")
    if mode not in MODES:
        raise ScenarioError(f"mode: expected one of {MODES}, got {mode!r}")

    the_map = _parse_map(kv, "map", dim)
    if the_map.dimension != dim:
        raise ScenarioError(
            f"map: dimension {the_map.dimension} does not match space dimension {dim}"
        )

    raw_b = kv.pop("b", "auto")
    b: Union[float, str] = "auto" if raw_b == "auto" else _parse_float(raw_b, "b")
    if isinstance(b, float) and b < 0:
        raise ScenarioError("b: must be nonnegative")
    raw_theta = kv.pop("theta", "estimate")
    theta: Union[float, str] = (
        "estimate" if raw_theta == "estimate" else _parse_float(raw_theta, "theta")
    )
    if isinstance(theta, float) and theta < 0:
        raise ScenarioError("theta: must be nonnegative")
    if b == "auto" and theta != "estimate":
        raise ScenarioError("b: auto requires theta=estimate")

    n = _parse_int(kv.pop("n", "1"), "n")
    if n < 1:
        raise ScenarioError("n: must be at least 1")

    raw_x0 = kv.pop("x0", None)
    if raw_x0 is None:
        raise ScenarioError("x0: missing")
    x0 = SpaceElement(_parse_point(raw_x0, "x0", dim))

    raw_wit = kv.pop("witnesses", "basis")
    if raw_wit == "basis":
        witnesses = standard_basis(dim)
    else:
        groups = [g for g in raw_wit.split(";") if g.strip()]
        try:
            witnesses = WitnessSet(
                tuple(SpaceElement(_parse_coords(g, "witnesses")) for g in groups)
            )
        except ValueError as exc:
            raise ScenarioError(f"witnesses: {exc}") from None
    if witnesses.dim != dim:
        raise ScenarioError("witnesses: dimension does not match the space")

    tol = _parse_float(kv.pop("tol", "1e-10"), "tol")
    if tol <= 0:
        raise ScenarioError("tol: must be positive")
    max_iter = _parse_int(kv.pop("max_iter", "10000"), "max_iter")
    if max_iter < 1:
        raise ScenarioError("max_iter: must be at least 1")
    seed = _parse_int(kv.pop("seed", "0"), "seed")

    domain: Optional[Domain] = None
    domain_kind = kv.pop("domain.kind", None)
    if domain_kind is not None:
        beta_raw = kv.pop("domain.beta", None)
        beta = None if beta_raw is None else _parse_float(beta_raw, "domain.beta")
        try:
            if domain_kind == "box":
                lo = kv.pop("domain.lo", None)
                hi = kv.pop("domain.hi", None)
                if lo is None or hi is None:
                    raise ScenarioError("domain: box needs domain.lo and domain.hi")
                domain = Domain(
                    Box(_parse_point(lo, "domain.lo", dim), _parse_point(hi, "domain.hi", dim)),
                    beta,
                )
            elif domain_kind == "ball":
                u = kv.pop("domain.u", None)
                center = kv.pop("domain.center", None)
                radius = kv.pop("domain.radius", None)
                closed = _parse_bool(kv.pop("domain.closed", "true"), "domain.closed")
                if u is None or center is None or radius is None:
                    raise ScenarioError(
                        "domain: ball needs domain.u, domain.center, domain.radius"
                    )
                domain = Domain(
                    TwoNormBall(
                        SpaceElement(_parse_point(u, "domain.u", dim)),
                        SpaceElement(_parse_point(center, "domain.center", dim)),
                        _parse_float(radius, "domain.radius"),
                        closed,
                    ),
                    beta,
                )
            else:
                raise ScenarioError(f"domain.kind: expected box or ball, got {domain_kind!r}")
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"domain: {exc}") from None

    local_u_raw = kv.pop("local.u", None)
    local_r_raw = kv.pop("local.r", None)
    local_u = (
        None if local_u_raw is None else SpaceElement(_parse_point(local_u_raw, "local.u", dim))
    )
    local_r = None if local_r_raw is None else _parse_float(local_r_raw, "local.r")
    if mode == "local" and (local_u is None or local_r is None):
        raise ScenarioError("local: mode=local requires local.u and local.r")
    if local_r is not None and local_r <= 0:
        raise ScenarioError("local.r: must be positive")

    count = _parse_int(kv.pop("sampling.count", "100000"), "sampling.count")
    eps_dep = _parse_float(kv.pop("sampling.eps_dep", "1e-8"), "sampling.eps_dep")
    if count < 1 or eps_dep <= 0:
        raise ScenarioError("sampling: count must be >= 1 and eps_dep positive")
    lo_raw = kv.pop("sampling.lo", None)
    hi_raw = kv.pop("sampling.hi", None)
    lo = (
        tuple(-10.0 for _ in range(dim))
        if lo_raw is None
        else _parse_coords(lo_raw, "sampling.lo")
    )
    hi = (
        tuple(10.0 for _ in range(dim))
        if hi_raw is None
        else _parse_coords(hi_raw, "sampling.hi")
    )
    if len(lo) == 1:
        lo = tuple(lo[0] for _ in range(dim))
    if len(hi) == 1:
        hi = tuple(hi[0] for _ in range(dim))
    _require_dim(lo, "sampling.lo", dim)
    _require_dim(hi, "sampling.hi", dim)
    try:
        sampling = SamplingSettings(count=count, eps_dep=eps_dep, box=Box(lo, hi))
    except ValueError as exc:
        raise ScenarioError(f"sampling: {exc}") from None

    if kv:
        raise ScenarioError(f"unknown keys: {', '.join(sorted(kv))}")

    return ScenarioConfig(
        space=space,
        mode=mode,
        map=the_map,
        b=b,
        theta=theta,
        n=n,
        x0=x0,
        witnesses=witnesses,
        tol=tol,
        max_iter=max_iter,
        seed=seed,
        domain=domain,
        local_u=local_u,
        local_r=local_r,
        sampling=sampling,
    )


def parse_scenario(path: Union[str, Path]) -> ScenarioConfig:
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"scenario file not found: {p}")
    return parse_scenario_text(p.read_text(encoding="utf-8"))


def write_scenario(cfg: ScenarioConfig) -> str:
    """Canonical text form of a config; parse(write(cfg)) == cfg."""
    lines = ["schema=1"]
    lines.append(f"space.kind={cfg.space.kind.value}")
    lines.append(f"space.dimension={cfg.space.dimension}")
    lines.append(f"mode={cfg.mode}")
    _write_map(lines, "map", cfg.map)
    lines.append(f"b={'auto' if cfg.b == 'auto' else fmt_float(cfg.b)}")
    lines.append(f"theta={'estimate' if cfg.theta == 'estimate' else fmt_float(cfg.theta)}")
    lines.append(f"n={cfg.n}")
    lines.append(f"x0={_fmt_coords(cfg.x0.coords)}")
    lines.append(
        "witnesses=" + ";".join(_fmt_coords(w.coords) for w in cfg.witnesses.witnesses)
    )
    lines.append(f"tol={fmt_float(cfg.tol)}")
    lines.append(f"max_iter={cfg.max_iter}")
    lines.append(f"seed={cfg.seed}")
    if cfg.domain is not None:
        region = cfg.domain.region
        if isinstance(region, Box):
            lines.append("domain.kind=box")
            lines.append(f"domain.lo={_fmt_coords(region.lo)}")
            lines.append(f"domain.hi={_fmt_coords(region.hi)}")
        else:
            lines.append("domain.kind=ball")
            lines.append(f"domain.u={_fmt_coords(region.u.coords)}")
            lines.append(f"domain.center={_fmt_coords(region.center.coords)}")
            lines.append(f"domain.radius={fmt_float(region.radius)}")
            lines.append(f"domain.closed={'true' if region.closed else 'false'}")
        if cfg.domain.bound_beta is not None:
            lines.append(f"domain.beta={fmt_float(cfg.domain.bound_beta)}")
    if cfg.local_u is not None:
        lines.append(f"local.u={_fmt_coords(cfg.local_u.coords)}")
    if cfg.local_r is not None:
        lines.append(f"local.r={fmt_float(cfg.local_r)}")
    lines.append(f"sampling.count={cfg.sampling.count}")
    lines.append(f"sampling.eps_dep={fmt_float(cfg.sampling.eps_dep)}")
    lines.append(f"sampling.lo={_fmt_coords(cfg.sampling.box.lo)}")
    lines.append(f"sampling.hi={_fmt_coords(cfg.sampling.box.hi)}")
    return "\n".join(lines) + "\n"


# --- running ------------------------------------------------------------------

def resolve_certificate(cfg: ScenarioConfig, target: SelfMap) -> EnrichedCertificate:
    """Resolve (b, theta) for the map actually iterated (T or its N-th power).

    Numeric (b, theta) certify as asserted; theta=estimate takes the closed
    form |b + c| when the map tree is affine-reducible and a sampled estimate
    otherwise; b=auto searches the grid for the d-minimising b.
    """
    if cfg.b == "auto":
        _, cert = optimize_b(
            target,
            cfg.space,
            cfg.sampling.box,
            cfg.witnesses,
            count=cfg.sampling.count,
            seed=cfg.seed,
            eps_dep=cfg.sampling.eps_dep,
        )
        return cert
    b = float(cfg.b)
    if cfg.theta != "estimate":
        return certify(b, float(cfg.theta), Provenance.asserted())
    closed = affine_reduction(target)
    if closed is not None:
        return certify(b, theta_scalar_affine(closed[0], b), Provenance.closed_form())
    est = estimate_theta(
        target,
        b,
        cfg.space,
        cfg.sampling.box,
        cfg.witnesses,
        cfg.sampling.count,
        cfg.seed,
        cfg.sampling.eps_dep,
    )
    return certify_sampled(b, est)


def run_scenario(cfg: ScenarioConfig) -> tuple[SolveReport, int]:
    """Resolve, certify and dispatch one scenario; returns (report, exit code).

    The picard mode runs uncertified: the oscillating reflection map is not
    enriched at b = 0, so demanding a certificate would reject exactly the
    runs this mode exists to demonstrate. Failed certification elsewhere is
    reported as a PreconditionFailed report carrying the reason.
    """
    solve_cfg = SolveConfig(
        tol=cfg.tol,
        max_iter=cfg.max_iter,
        witnesses=cfg.witnesses,
        domain=cfg.domain,
        cycle_window=8,
    )
    if cfg.mode == "picard":
        report = picard_solve(cfg.map, cfg.x0, solve_cfg, cfg.space)
        return report, _STATUS_EXIT[report.status]

    target = cfg.map if cfg.mode != "asymptotic" else iterated(cfg.map, cfg.n)
    try:
        cert = resolve_certificate(cfg, target)
    except NotCertifiableError as exc:
        report = SolveReport(
            status=SolveStatus.PRECONDITION_FAILED,
            x_star=None,
            iterations=0,
            certificate=None,
            trace=IterationTrace(()),
            bound_violations=0,
            warnings=(f"certification failed: {exc}",),
        )
        return report, EXIT_NOT_CERTIFIABLE

    if cfg.mode == "krasnoselskij":
        report = krasnoselskij_solve(cfg.map, cert, cfg.x0, solve_cfg, cfg.space)
    elif cfg.mode == "local":
        assert cfg.local_u is not None and cfg.local_r is not None
        report = local_ball_solve(
            cfg.map, cert, cfg.x0, cfg.local_u, cfg.local_r, solve_cfg, cfg.space
        )
    else:
        report = asymptotic_solve(cfg.map, cfg.n, cert, cfg.x0, solve_cfg, cfg.space)
    return report, _STATUS_EXIT[report.status]


# --- artifact emission --------------------------------------------------------

def emit_trace_csv(
    trace: IterationTrace, witnesses: WitnessSet, path: Union[str, Path]
) -> None:
    """Write the trace as CSV: one row per iterate, 17-digit floats, LF ends.

    Columns: n, the coordinates, step and fixed-point residuals, the a priori
    bound, then one step-residual column per witness (zero on row 0).
    """
    if not trace.rows:
        raise ValueError("refusing to emit an empty trace")
    dim = trace.rows[0].x.dim
    k = len(witnesses.witnesses)
    header = (
        ["n"]
        + [f"x_{i}" for i in range(dim)]
        + ["step_residual", "fixed_residual", "apriori_bound"]
        + [f"res_w{j}" for j in range(k)]
    )
    lines = [",".join(header)]
    for row in trace.rows:
        cells = [str(row.n)]
        cells += [fmt_float(c) for c in row.x.coords]
        cells += [
            fmt_float(row.step_residual),
            fmt_float(row.fixed_residual),
            fmt_float(row.apriori_bound),
        ]
        cells += [fmt_float(v) for v in row.witness_steps]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _worst_step_ratio(trace: IterationTrace) -> float:
    worst = math.nan
    rows = trace.rows
    for prev, cur in zip(rows[1:], rows[2:]):
        if prev.step_residual > 0.0:
            r = cur.step_residual / prev.step_residual
            if math.isnan(worst) or r > worst:
                worst = r
    return worst


def report_text(report: SolveReport) -> str:
    """Render a report: machine key=value lines, then a human-readable block."""
    lines = [f"status={report.status.value}"]
    if report.period is not None:
        lines.append(f"period={report.period}")
    lines.append(f"iterations={report.iterations}")
    if report.x_star is not None:
        lines.append(f"x_star={_fmt_coords(report.x_star.coords)}")
    else:
        lines.append("x_star=none")
    cert = report.certificate
    if cert is not None:
        lines.append(f"b={fmt_float(cert.b)}")
        lines.append(f"theta={fmt_float(cert.theta)}")
        lines.append(f"lambda={fmt_float(cert.lam)}")
        lines.append(f"d={fmt_float(cert.d)}")
        lines.append(f"provenance={cert.provenance}")
    else:
        lines.append("certificate=none")
    if report.epsilon is not None:
        lines.append(f"epsilon={fmt_float(report.epsilon)}")
    if report.precondition is not None:
        lines.append(f"precondition_lhs={fmt_float(report.precondition[0])}")
        lines.append(f"precondition_rhs={fmt_float(report.precondition[1])}")
    lines.append(f"worst_step_ratio={fmt_float(_worst_step_ratio(report.trace))}")
    lines.append(f"bound_violations={report.bound_violations}")
    for w in report.warnings:
        lines.append(f"warning={w}")

    human = [""]
    if report.status == SolveStatus.CONVERGED and report.x_star is not None:
        pt = ", ".join(repr(c) for c in report.x_star.coords)
        human.append(f"Converged after {report.iterations} iteration(s) to ({pt}).")
    elif report.status == SolveStatus.OSCILLATION:
        human.append(
            f"Picard iteration locked into a period-{report.period} orbit; "
            "the plain iteration does not converge for this map."
        )
    elif report.status == SolveStatus.PRECONDITION_FAILED:
        if report.precondition is not None:
            lhs, rhs = report.precondition
            human.append(
                f"Rejected: displacement {lhs!r} is not below (b+1-theta)*r = {rhs!r}."
            )
        else:
            human.append("Rejected before iterating; see warnings.")
    elif report.status == SolveStatus.LEFT_DOMAIN:
        human.append(f"Iterate {report.iterations} left the configured domain.")
    elif report.status == SolveStatus.DIVERGED:
        human.append(
            f"Diverged: the iteration overflowed after {report.iterations} iteration(s)."
        )
    else:
        human.append(f"Stopped after {report.iterations} iteration(s) without meeting tol.")
    if cert is not None:
        human.append(
            f"Certificate: ({fmt_float(cert.b)}, {fmt_float(cert.theta)})-enriched, "
            f"lambda={fmt_float(cert.lam)}, d={fmt_float(cert.d)} [{cert.provenance}]."
        )
    if report.epsilon is not None:
        if report.status == SolveStatus.CONVERGED:
            human.append(
                f"Local ball radius eps={fmt_float(report.epsilon)}; all recorded "
                "iterates stayed inside the closed ball."
            )
        else:
            human.append(f"Local ball radius eps={fmt_float(report.epsilon)}.")
    if report.status == SolveStatus.CONVERGED:
        human.append(f"A priori bound violations along the trace: {report.bound_violations}.")
    return "\n".join(lines + human) + "\n"


def emit_report(report: SolveReport, dest: Union[str, Path, TextIO, None] = None) -> None:
    text = report_text(report)
    if dest is None:
        sys.stdout.write(text)
    elif isinstance(dest, (str, Path)):
        Path(dest).write_text(text, encoding="utf-8", newline="\n")
    else:
        dest.write(text)


# --- shipped demo scenarios ----------------------------------------------------

DEMO_SCENARIOS: dict[str, str] = {
    # Averaged reflection: b = 0.5 gives lambda = 2/3 and factor d = 1/3.
    "reflection": """\
schema=1
space.kind=cross2
space.dimension=2
mode=krasnoselskij
map.kind=reflection
map.w=2,0
b=0.5
theta=estimate
x0=0,0
witnesses=basis
tol=1e-10
max_iter=10000
seed=0
""",
    # The same map under plain Picard iteration: period-2 orbit, exit code 3.
    "picard-oscillation": """\
schema=1
space.kind=cross2
space.dimension=2
mode=picard
map.kind=reflection
map.w=2,0
x0=0,0
witnesses=basis
tol=1e-10
max_iter=10000
seed=0
""",
    # The two-region map whose square is constant: solve through T^2.
    "asymptotic-piecewise": """\
schema=1
space.kind=cross2
space.dimension=2
mode=asymptotic
map.kind=piecewise_two_set
map.u=1,1
map.region.kind=sup_norm_gt
map.region.threshold=2
b=1
theta=1
n=2
x0=5,5
witnesses=basis
tol=1e-10
max_iter=10000
seed=0
""",
}


# --- entry points ---------------------------------------------------------------

def _cmd_check_norm(args: argparse.Namespace) -> int:
    label = args.space
    space: Optional[TwoNormSpace] = None
    if label == "cross2":
        space = cross2_space()
    elif label.startswith("gram:"):
        try:
            space = gram_space(int(label.split(":", 1)[1]))
        except ValueError:  # not an integer, or a dimension below 2
            pass
    if space is None:
        print(f"error: --space must be cross2 or gram:N, got {label!r}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.samples < 1:
        print(f"error: --samples must be at least 1, got {args.samples}", file=sys.stderr)
        return EXIT_INTERNAL
    report = check_axioms(space, args.samples, args.seed, args.tol)
    print(
        f"space={label} samples={report.samples_tested} seed={args.seed} "
        f"tolerance={fmt_float(args.tol)}"
    )
    print(f"passed={'true' if report.passed else 'false'} violations={report.violation_count}")
    for v in report.violations[:10]:
        print(f"violation axiom={v.axiom} sample={v.sample_index} deviation={fmt_float(v.deviation)}")
    return 0 if report.passed else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    cfg = parse_scenario(args.scenario)
    target = cfg.map if cfg.mode != "asymptotic" else iterated(cfg.map, cfg.n)
    try:
        cert = resolve_certificate(cfg, target)
    except NotCertifiableError as exc:
        print("status=NotCertifiable")
        print(f"reason={exc}")
        return EXIT_NOT_CERTIFIABLE
    print("status=Certified")
    print(f"b={fmt_float(cert.b)}")
    print(f"theta={fmt_float(cert.theta)}")
    print(f"lambda={fmt_float(cert.lam)}")
    print(f"d={fmt_float(cert.d)}")
    print(f"provenance={cert.provenance}")
    return EXIT_CONVERGED


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = parse_scenario(args.scenario)
    report, code = run_scenario(cfg)
    if args.trace and report.trace.rows:
        emit_trace_csv(report.trace, cfg.witnesses, args.trace)
    if args.report:
        emit_report(report, args.report)
    emit_report(report, sys.stdout)
    return code


def _cmd_demo(args: argparse.Namespace) -> int:
    name = args.name
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    scenario_path = outdir / f"{name}.scenario"
    scenario_path.write_text(DEMO_SCENARIOS[name], encoding="utf-8", newline="\n")
    cfg = parse_scenario(scenario_path)
    report, code = run_scenario(cfg)
    if report.trace.rows:
        emit_trace_csv(report.trace, cfg.witnesses, outdir / f"{name}.trace.csv")
    emit_report(report, outdir / f"{name}.report.txt")
    emit_report(report, sys.stdout)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="enrichedfp",
        description="Fixed points of enriched contractions in 2-normed spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check-norm", help="run the 2-norm axiom suite")
    p_check.add_argument("--space", required=True, help="cross2 or gram:N")
    p_check.add_argument("--samples", type=int, default=10_000)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--tol", type=float, default=1e-9)
    p_check.set_defaults(func=_cmd_check_norm)

    p_analyze = sub.add_parser("analyze", help="estimate/certify (b, theta) only")
    p_analyze.add_argument("--scenario", required=True)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_solve = sub.add_parser("solve", help="run a scenario end to end")
    p_solve.add_argument("--scenario", required=True)
    p_solve.add_argument("--trace", default=None, help="write the iteration trace CSV here")
    p_solve.add_argument("--report", default=None, help="write the summary report here")
    p_solve.set_defaults(func=_cmd_solve)

    p_demo = sub.add_parser("demo", help="run a shipped scenario")
    p_demo.add_argument("name", choices=sorted(DEMO_SCENARIOS))
    p_demo.add_argument("--outdir", default=".")
    p_demo.set_defaults(func=_cmd_demo)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main_entry() -> None:  # console-script shim
    sys.exit(main())
