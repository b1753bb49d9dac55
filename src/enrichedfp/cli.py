"""Scenario-driven command line front end.

Subcommands:

* ``check-norm`` -- run the 2-norm axiom suite on a built-in space;
* ``analyze``    -- resolve (b, theta) for a scenario and print the
  certificate;
* ``solve``      -- full run: certify, iterate, emit trace CSV and report;
* ``demo``       -- run one of the shipped scenarios (reflection,
  picard-oscillation, asymptotic-piecewise).

The ``enrichedfp`` console script, ``python -m enrichedfp`` and ``python -m
enrichedfp.cli`` all run :func:`main_entry`.

Scenario files are plain ``key=value`` text with dotted keys for nested
blocks (map/domain/local/sampling) and a ``schema=1`` header. All floats in
emitted artifacts are rendered with 17 significant digits so reruns are
byte-identical and every value round-trips.

Exit codes: 0 converged, 1 scenario or usage error (a message on stderr;
this covers coordinate lists whose length is not the space dimension, a
negative seed, a gram dimension below 2, a file that is not UTF-8, a map
tree nested more than 400 averaged/iterated levels deep or making more than
10000 leaf map evaluations per evaluation of the solved map, ``check-norm
--samples`` below 1 or drawing more than 8,000,000 coordinates (samples x
(3n+1) on gram:n, n = 2 for cross2), a negative ``--seed`` and a ``--tol``
that is not finite and nonnegative, and a path that cannot be written, such
as a ``--trace`` or ``--report`` file in a missing directory: one
``error:`` line names it), 2 not certifiable / precondition failed, 3
oscillation detected, 4 iteration budget exceeded, 5 left the domain, 6
diverged (an iterate overflowed), 7 certificate violated (the run met tol,
but some trace row broke the certificate's a priori bound).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, TextIO, Union

import numpy as np

from ._dd import two_prod, two_sum
from .analyzer import (
    EnrichedCertificate,
    NotCertifiableError,
    Provenance,
    certify,
    map_slope,
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
    iterated,
)
from .solver import (
    SolveConfig,
    SolveReport,
    SolveStatus,
    Trace,
    asymptotic_solve,
    krasnoselskij_solve,
    local_ball_solve,
    picard_solve,
)
from .space import (
    Box,
    SpaceElement,
    TwoNormBall,
    TwoNormSpace,
    WitnessSet,
    check_axioms,
    cross2_space,
    gram_space,
    standard_basis,
)

__all__ = [
    "ScenarioError",
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
EXIT_CERTIFICATE_VIOLATED = 7

_STATUS_EXIT = {
    SolveStatus.CONVERGED: EXIT_CONVERGED,
    SolveStatus.PRECONDITION_FAILED: EXIT_NOT_CERTIFIABLE,
    SolveStatus.OSCILLATION: EXIT_OSCILLATION,
    SolveStatus.MAX_ITER: EXIT_MAX_ITER,
    SolveStatus.LEFT_DOMAIN: EXIT_LEFT_DOMAIN,
    SolveStatus.DIVERGED: EXIT_DIVERGED,
    SolveStatus.CERTIFICATE_VIOLATED: EXIT_CERTIFICATE_VIOLATED,
}

MODES = ("krasnoselskij", "picard", "local", "asymptotic")


_FLOAT_CELL = "{:.16e}"


def fmt_float(v: float) -> str:
    """17 significant digits: lossless for doubles, stable for golden files."""
    return _FLOAT_CELL.format(v)


def _fmt_coords(coords: Sequence[float]) -> str:
    return ",".join(fmt_float(c) for c in coords)


# --- the cell kernel: fmt_float over a whole float matrix at once -----------
#
# A cell x with 1e-280 <= |x| <= 1e280 has decade k = floor(log10|x|) and
# 17 significant digits round(D), D = |x| 10^(16 - k) in [1e16, 1e17). D is
# formed in double-double against 10^p = hi + lo (both correctly rounded, so
# |hi + lo - 10^p| <= 2**-106 10^p), which puts the pair (s, t) = D within
# about 2**-104 D < 1e-14 of the true product. s >= 1e16 > 2**53 is an
# integer, so rint(t) (ties to even, as CPython's formatter) rounds D unless
# D lies within 2**-30 of a tie. Those cells, those whose decade estimate is
# off (s < 1e16, s == 1e16 with t < 0, or digits past 1e17), and cells out
# of range, NaN and inf are hard: they take fmt_float itself. A carry to
# exactly 1e17 reads 1e16 one decade up. The range keeps every Dekker split
# and partial product of two_prod normal and finite, with -264 <= p <= 297.
_KERNEL_MIN, _KERNEL_MAX = 1e-280, 1e280
_POW10_P_MIN, _POW10_P_MAX = -264, 297
# A cell's slot is 28 bytes, seven uint32 words of four text bytes each: the
# lead (",", sign or pad, digit, "."), four words of four digits, and the
# exponent's 8 bytes ("e", sign, 2 or 3 digits, pads). Zero bytes are
# padding, removed after assembly, so a pad may sit anywhere; the tables are
# built as bytes, so no word order matters. A row of slots is
# "," + ",".join(map(fmt_float, row)): the n column goes before it.
_SLOT = 28
# The exponent table covers -300 to 300; the kernel's exponents lie in -281 to 281.
_EXP_OFFSET = 300

# emit_trace_csv runs the kernel for traces of at least this many float
# cells. Its fixed cost is about 70 us a call, so on the emit alone it draws
# level with the row loop near 150 to 230 cells (a gram:8 trace cut to size:
# 152 cells 179 against 165 us, 228 cells 193 against 214 us). In the
# workloads' cycles a low crossover costs more than the emit shows, so it is
# set from them: scenarios/s at seed 1 (median of 5 alternating 10 s runs of
# perfbench, 2 vCPUs, Python 3.11, numpy 2.4; scenario-sweep's p50 in ms):
#   crossover   long-solve   auto-certify   scenario-sweep (p50)
#   150         363.0        1208           1231 (0.878)
#   400         361.3        1205           1259 (0.821)
#   1000        357.4        1201           1257 (0.792)
# At 1000 no auto-certify or scenario-sweep trace reaches the kernel (their
# largest hold 570 and 561 float cells); 110 of 120 long-solve traces do.
_TRACE_KERNEL_MIN = 1000


@functools.cache
def _kernel_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's tables, built on its first call (each numpy routine first
    run at import raised the peak RSS of every run by about 0.1 MB, kernel or
    not): lead word ``neg * 10 + d``; four-digit word i, from the ten digit
    bytes (a table built by integer division of 0..9999 raised peak RSS by
    1.1 MB); the exponent's two words at row ``k + _EXP_OFFSET``; and 10^p as
    (hi, lo) in column ``p - _POW10_P_MIN`` of a ``(2, 562)`` array."""
    lead = b"".join(b",%s%d." % (sign, d) for sign in (b"\0", b"-") for d in range(10))
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits4 = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1).view(np.uint32).ravel()
    exponent = b"".join((b"e%+03d" % k).ljust(8, b"\0")
                        for k in range(-_EXP_OFFSET, _EXP_OFFSET + 1))
    pow10 = np.array([_pow10_pair(p) for p in range(_POW10_P_MIN, _POW10_P_MAX + 1)]).T
    return (np.frombuffer(lead, np.uint32), digits4,
            np.frombuffer(exponent, np.uint32).reshape(-1, 2), pow10)


def _pow10_pair(p: int) -> tuple[float, float]:
    """10^p as (hi, lo), each correctly rounded: int true division rounds so."""
    if p >= 0:
        n = 10**p
        hi = float(n)
        return hi, float(n - int(hi))
    d = 10**-p
    hi = 1 / d
    num, den = hi.as_integer_ratio()
    return hi, (den - num * d) / (den * d)


def _decimal_digits(x: np.ndarray, pow10: np.ndarray) -> tuple[np.ndarray, ...]:
    """For each cell of the flat array x: its 17 significant digits as one
    integer (0 for zero), its decade, and whether it is hard, so that its
    digits are not proved. See the kernel notes above ``_KERNEL_MIN``."""
    ax = np.abs(x)
    fast = (ax >= _KERNEL_MIN) & (ax <= _KERNEL_MAX)
    xe = np.where(fast, ax, 1.0)
    k = np.floor(np.log10(xe)).astype(np.int64)
    hi, lo = pow10[:, 16 - k - _POW10_P_MIN]
    p, e = two_prod(xe, hi)
    s, t = two_sum(p, e + xe * lo)
    r = np.rint(t)
    digits = s.astype(np.int64) + r.astype(np.int64)
    hard = ((~fast & (ax != 0.0)) | (0.5 - np.abs(t - r) < 2.0**-30) | (s < 1e16)
            | ((s == 1e16) & (t < 0.0)) | (digits > 10**17))
    top = digits == 10**17
    digits[top] = 10**16
    k += top
    digits[hard | (ax == 0.0)] = 0
    return digits, k, hard


def _float_rows(table: np.ndarray) -> np.ndarray:
    """The cells of a ``(rows, cells)`` float64 array as ``(rows, cells * 28)``
    uint8 text: each row is ``"," + ",".join(map(fmt_float, row))`` once the
    zero bytes are removed, every hard cell written by fmt_float itself."""
    lead_words, digit_words, exponent_words, pow10 = _kernel_tables()
    rows, cells = table.shape
    x = table.ravel()
    digits, k, hard = _decimal_digits(x, pow10)
    # digits = lead 10^16 + high 10^8 + low, each half four-digit groups.
    upper = digits // 10**8
    lead = upper // 10**8
    halves = np.stack([upper - lead * 10**8, digits - upper * 10**8], axis=1)
    top4 = halves // 10**4
    out = np.empty((x.size, _SLOT // 4), np.uint32)
    out[:, 0] = lead_words[lead + 10 * np.signbit(x)]
    out[:, 1:5] = digit_words[np.stack([top4, halves - top4 * 10**4], axis=2).reshape(-1, 4)]
    out[:, 5:] = exponent_words[k + _EXP_OFFSET]
    idx = np.flatnonzero(hard)
    if idx.size:
        fallback = b"".join((b"," + fmt_float(v).encode()).ljust(_SLOT, b"\0")
                            for v in x[idx].tolist())
        out[idx] = np.frombuffer(fallback, np.uint32).reshape(-1, _SLOT // 4)
    return out.view(np.uint8).reshape(rows, cells * _SLOT)


class ScenarioError(ValueError):
    """A scenario file violated the schema; the message names the field."""


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
    solve: SolveConfig
    local_u: Optional[SpaceElement]
    local_r: Optional[float]
    box: Box                      # the analysis box, sampling.lo/hi


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


# Deepest map tree a scenario may describe, in averaged/iterated nodes above
# the leaf: parsing and evaluating the tree take one stack frame per level.
_MAP_NESTING_LIMIT = 400
# Most leaf map evaluations one evaluation of the solved map may make (T, or
# T^n in asymptotic mode): iterated nodes multiply them, so a few nested
# levels would otherwise make one evaluation run for hours.
_MAP_WORK_LIMIT = 10_000


def _parse_map(kv: dict[str, str], prefix: str, dimension: int,
               depth: int = 0) -> tuple[SelfMap, int]:
    """The map tree under ``prefix``, and the leaf evaluations one evaluation makes."""
    if depth > _MAP_NESTING_LIMIT:
        raise ScenarioError(f"map: nested deeper than {_MAP_NESTING_LIMIT} levels")
    kind_key = f"{prefix}.kind"
    kind = kv.pop(kind_key, None)
    if kind is None:
        raise ScenarioError(f"{kind_key}: missing")
    if kind == "reflection":
        w = kv.pop(f"{prefix}.w", None)
        if w is None:
            raise ScenarioError(f"{prefix}.w: missing for reflection")
        return Reflection(SpaceElement(_parse_coords(w, f"{prefix}.w"))), 1
    if kind == "scalar_affine":
        scale = kv.pop(f"{prefix}.scale", None)
        shift = kv.pop(f"{prefix}.shift", None)
        if scale is None or shift is None:
            raise ScenarioError(f"{prefix}: scalar_affine needs scale and shift")
        return ScalarAffine(
            _parse_float(scale, f"{prefix}.scale"),
            SpaceElement(_parse_coords(shift, f"{prefix}.shift")),
        ), 1
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
        ), 1
    if kind == "averaged":
        lam = kv.pop(f"{prefix}.lambda", None)
        if lam is None:
            raise ScenarioError(f"{prefix}.lambda: missing for averaged")
        inner, work = _parse_map(kv, f"{prefix}.inner", dimension, depth + 1)
        lam_value = _parse_float(lam, f"{prefix}.lambda")
        try:
            return Averaged(inner, lam_value), work
        except ValueError as exc:
            raise ScenarioError(f"{prefix}.lambda: {exc}") from None
    if kind == "iterated":
        times = kv.pop(f"{prefix}.times", None)
        if times is None:
            raise ScenarioError(f"{prefix}.times: missing for iterated")
        inner, work = _parse_map(kv, f"{prefix}.inner", dimension, depth + 1)
        times_value = _parse_int(times, f"{prefix}.times")
        try:
            node = Iterated(inner, times_value)
        except ValueError as exc:
            raise ScenarioError(f"{prefix}.times: {exc}") from None
        return node, _bounded_work(work * times_value, f"{prefix}.times")
    raise ScenarioError(f"{kind_key}: unknown map kind {kind!r}")


def _bounded_work(work: int, key: str) -> int:
    if work > _MAP_WORK_LIMIT:
        raise ScenarioError(f"{key}: one evaluation of the map would make {work} leaf "
                            f"map evaluations, above the limit of {_MAP_WORK_LIMIT}")
    return work


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
        dimension = _parse_int(raw_dim, "space.dimension")
        try:
            space = gram_space(dimension)
        except ValueError as exc:
            raise ScenarioError(f"space.dimension: {exc}") from None
    dim = space.dimension

    mode = kv.pop("mode", "krasnoselskij")
    if mode not in MODES:
        raise ScenarioError(f"mode: expected one of {MODES}, got {mode!r}")

    the_map, work = _parse_map(kv, "map", dim)
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
    if mode == "asymptotic":  # the solver evaluates T^n
        _bounded_work(n * work, "n")

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
    # seed and sampling.count are checked, so older scenario files keep their
    # exit codes, but not stored: nothing samples any more.
    if _parse_int(kv.pop("seed", "0"), "seed") < 0:
        raise ScenarioError("seed: must be nonnegative")

    domain: Union[Box, TwoNormBall, None] = None
    beta: Optional[float] = None
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
                domain = Box(_parse_point(lo, "domain.lo", dim),
                             _parse_point(hi, "domain.hi", dim))
            elif domain_kind == "ball":
                u = kv.pop("domain.u", None)
                center = kv.pop("domain.center", None)
                radius = kv.pop("domain.radius", None)
                closed = _parse_bool(kv.pop("domain.closed", "true"), "domain.closed")
                if u is None or center is None or radius is None:
                    raise ScenarioError(
                        "domain: ball needs domain.u, domain.center, domain.radius"
                    )
                domain = TwoNormBall(
                    SpaceElement(_parse_point(u, "domain.u", dim)),
                    SpaceElement(_parse_point(center, "domain.center", dim)),
                    _parse_float(radius, "domain.radius"),
                    closed,
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

    if _parse_int(kv.pop("sampling.count", "100000"), "sampling.count") < 1:
        raise ScenarioError("sampling.count: must be at least 1")
    lo = _parse_coords(kv.pop("sampling.lo", "-10"), "sampling.lo")
    hi = _parse_coords(kv.pop("sampling.hi", "10"), "sampling.hi")
    if len(lo) == 1:
        lo = tuple(lo[0] for _ in range(dim))
    if len(hi) == 1:
        hi = tuple(hi[0] for _ in range(dim))
    _require_dim(lo, "sampling.lo", dim)
    _require_dim(hi, "sampling.hi", dim)
    try:
        box = Box(lo, hi)
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
        solve=SolveConfig(tol=tol, max_iter=max_iter, witnesses=witnesses,
                          domain=domain, bound_beta=beta),
        local_u=local_u,
        local_r=local_r,
        box=box,
    )


def parse_scenario(path: Union[str, Path]) -> ScenarioConfig:
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"scenario file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file is not UTF-8: {p}: {exc.reason} "
                            f"at byte {exc.start}") from None
    return parse_scenario_text(text)


def write_scenario(cfg: ScenarioConfig) -> str:
    """Canonical text form of a config; parse(write(cfg)) == cfg.

    Witnesses None are written, and parsed back, as the standard basis they
    stand for (:meth:`SolveConfig.witness_set`), and a set whose dimension
    is not the space's is a ``ValueError``, as the parser would refuse it.
    """
    lines = ["schema=1"]
    lines.append(f"space.kind={cfg.space.kind.value}")
    lines.append(f"space.dimension={cfg.space.dimension}")
    lines.append(f"mode={cfg.mode}")
    _write_map(lines, "map", cfg.map)
    lines.append(f"b={'auto' if cfg.b == 'auto' else fmt_float(cfg.b)}")
    lines.append(f"theta={'estimate' if cfg.theta == 'estimate' else fmt_float(cfg.theta)}")
    lines.append(f"n={cfg.n}")
    lines.append(f"x0={_fmt_coords(cfg.x0.coords)}")
    solve = cfg.solve
    lines.append("witnesses=" + ";".join(_fmt_coords(w.coords)
                                         for w in solve.witness_set(cfg.space).witnesses))
    lines.append(f"tol={fmt_float(solve.tol)}")
    lines.append(f"max_iter={solve.max_iter}")
    region = solve.domain
    if region is not None:
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
        if solve.bound_beta is not None:
            lines.append(f"domain.beta={fmt_float(solve.bound_beta)}")
    if cfg.local_u is not None:
        lines.append(f"local.u={_fmt_coords(cfg.local_u.coords)}")
    if cfg.local_r is not None:
        lines.append(f"local.r={fmt_float(cfg.local_r)}")
    lines.append(f"sampling.lo={_fmt_coords(cfg.box.lo)}")
    lines.append(f"sampling.hi={_fmt_coords(cfg.box.hi)}")
    return "\n".join(lines) + "\n"


# --- running ------------------------------------------------------------------

def resolve_certificate(cfg: ScenarioConfig) -> EnrichedCertificate:
    """Resolve (b, theta) for the map actually iterated: T, or T^N when asymptotic.

    Every route starts from the map's one slope c (:func:`map_slope`).
    theta=estimate takes theta = |b + c|, and b=auto the d-minimising b =
    max(0, -c); the slope is analysed over the whole space, or over the
    sampling box when only the box leaves one piece, and then the certificate
    carries that box. A numeric theta is asserted: it is checked on the whole
    space, or on ``domain`` when that is a box, and refused when the map is
    not one piece there or when theta is below |b + c|.
    """
    target = cfg.map if cfg.mode != "asymptotic" else iterated(cfg.map, cfg.n)
    if cfg.b == "auto":
        _, cert = optimize_b(target, cfg.space, cfg.box)
        return cert
    b = float(cfg.b)
    if cfg.theta == "estimate":
        c, box = map_slope(target, cfg.box)
        return certify(b, theta_scalar_affine(c, b), Provenance.closed_form(box))
    domain = cfg.solve.domain
    c, _ = map_slope(target, domain if isinstance(domain, Box) else None)
    theta, least = float(cfg.theta), theta_scalar_affine(c, b)
    if theta < least:
        raise NotCertifiableError(
            f"asserted theta={theta!r} is below |b + c| = {least!r} for the map's "
            f"slope c={c!r}")
    return certify(b, theta, Provenance.asserted())


def run_scenario(cfg: ScenarioConfig) -> tuple[SolveReport, int]:
    """Resolve, certify and dispatch one scenario; returns (report, exit code).

    The picard mode runs uncertified: the oscillating reflection map is not
    enriched at b = 0, so demanding a certificate would reject exactly the
    runs this mode exists to demonstrate. Failed certification elsewhere ends
    in a PreconditionFailed report, rejected before iterating, whose warning
    names the failure.
    """
    if cfg.mode == "picard":
        report = picard_solve(cfg.map, cfg.x0, cfg.solve, cfg.space)
        return report, _STATUS_EXIT[report.status]

    try:
        cert = resolve_certificate(cfg)
    except NotCertifiableError as exc:
        dim = cfg.space.dimension
        k = len(cfg.solve.witness_set(cfg.space).witnesses)
        report = SolveReport(
            status=SolveStatus.PRECONDITION_FAILED,
            x_star=None,
            iterations=0,
            certificate=None,
            trace=Trace(dim, np.empty((0, dim + 3 + k))),
            bound_violations=0,
            warnings=(f"certification failed: {exc}",),
            reason="Rejected before iterating; see warnings.",
        )
        return report, _STATUS_EXIT[report.status]

    if cfg.mode == "krasnoselskij":
        report = krasnoselskij_solve(cfg.map, cert, cfg.x0, cfg.solve, cfg.space)
    elif cfg.mode == "local":
        assert cfg.local_u is not None and cfg.local_r is not None
        report = local_ball_solve(
            cfg.map, cert, cfg.x0, cfg.local_u, cfg.local_r, cfg.solve, cfg.space
        )
    else:
        report = asymptotic_solve(cfg.map, cfg.n, cert, cfg.x0, cfg.solve, cfg.space)
    return report, _STATUS_EXIT[report.status]


# --- artifact emission --------------------------------------------------------

def emit_trace_csv(trace: Trace, path: Union[str, Path]) -> None:
    """Write the trace as CSV: one row per iterate, 17-digit floats, LF ends.

    Columns: n, the coordinates, step and fixed-point residuals, the a priori
    bound, then one step-residual column per witness (zero on row 0): the
    columns of ``Trace.table``. The header comes from ``trace.dim`` and the
    table's width, so a trace without rows writes its header line alone. The
    bytes are those of a per-cell :func:`fmt_float` join, written one of two
    ways. A trace of fewer than 1000 float cells
    (``_TRACE_KERNEL_MIN``) fills each row of ``table.tolist()`` by one
    ``str.format`` call on a format string built once per trace, with
    ``_FLOAT_CELL`` in every float cell. A longer one goes through the cell
    kernel: the table's 17 digits are computed for every cell at once and
    written into fixed comma-led byte slots, with ``fmt_float`` itself for
    each cell the kernel cannot prove (see the notes above ``_KERNEL_MIN``),
    between the n column and a newline column. Either way the file is
    written once, from bytes.
    """
    table = trace.table
    header = _trace_header(trace.dim, table.shape[1] - trace.dim - 3)
    if table.size < _TRACE_KERNEL_MIN:
        row_fmt = ",".join(["{}"] + [_FLOAT_CELL] * table.shape[1]) + "\n"
        body = "".join(row_fmt.format(n, *cells)
                       for n, cells in enumerate(table.tolist())).encode()
    else:
        # n in a zero-padded fixed-width column, the float slots, then "\n".
        rows = len(table)
        first = np.array([f"{n}" for n in range(rows)], dtype="S").view(np.uint8)
        ends = np.full((rows, 1), ord("\n"), np.uint8)
        body = np.concatenate([first.reshape(rows, -1), _float_rows(table), ends],
                              axis=1).tobytes().translate(None, b"\0")
    Path(path).write_bytes(header.encode() + b"\n" + body)


def _trace_header(dim: int, witness_count: int) -> str:
    return ",".join(["n"] + [f"x_{i}" for i in range(dim)]
                    + ["step_residual", "fixed_residual", "apriori_bound"]
                    + [f"res_w{j}" for j in range(witness_count)])


def _worst_step_ratio(trace: Trace) -> float:
    steps = trace.table[1:, trace.dim].tolist()
    worst = math.nan
    for prev, cur in zip(steps, steps[1:]):
        if prev > 0.0:
            r = cur / prev
            if math.isnan(worst) or r > worst:
                worst = r
    return worst


def _certificate_lines(cert: EnrichedCertificate) -> list[str]:
    return [
        f"b={fmt_float(cert.b)}",
        f"theta={fmt_float(cert.theta)}",
        f"lambda={fmt_float(cert.lam)}",
        f"d={fmt_float(cert.d)}",
        f"provenance={cert.provenance}",
    ]


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
        lines += _certificate_lines(cert)
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

    human = ["", report.reason]
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
    if report.status in (SolveStatus.CONVERGED, SolveStatus.CERTIFICATE_VIOLATED):
        human.append(f"A priori bound violations along the trace: {report.bound_violations}.")
    return "\n".join(lines + human) + "\n"


def emit_report(report: SolveReport, *dests: Union[str, Path, TextIO]) -> None:
    """Render the report once and write it to each destination in turn.

    A destination is a file path or an open text stream; with no
    destination the report goes to stdout.
    """
    text = report_text(report)
    for dest in dests or (sys.stdout,):
        if isinstance(dest, (str, Path)):
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

# The most coordinates check-norm draws, samples x (3n + 1). Peak RSS grew
# by 48 to 77 bytes per coordinate (cross2 and gram:2 to gram:32, 0.5 to 5
# million coordinates; Python 3.11, numpy 2.4), so about 0.6 GB at the cap.
_CHECK_NORM_COORDS = 8_000_000


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
    coords = args.samples * (3 * space.dimension + 1)
    if coords > _CHECK_NORM_COORDS:
        print(f"error: --samples x (3n+1) = {coords} coordinates on {label} is over "
              f"the limit of {_CHECK_NORM_COORDS}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.seed < 0:
        print(f"error: --seed must be nonnegative, got {args.seed}", file=sys.stderr)
        return EXIT_INTERNAL
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        print(f"error: --tol must be finite and nonnegative, got {args.tol}", file=sys.stderr)
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
    try:
        cert = resolve_certificate(cfg)
    except NotCertifiableError as exc:
        print("status=NotCertifiable")
        print(f"reason={exc}")
        return EXIT_NOT_CERTIFIABLE
    print("\n".join(["status=Certified"] + _certificate_lines(cert)))
    return EXIT_CONVERGED


def _solve_and_emit(scenario: Union[str, Path], trace: Union[str, Path, None],
                    report_path: Union[str, Path, None]) -> int:
    """Run one scenario file and emit its artifacts; returns the exit code.

    Every run writes its trace CSV when asked: one without iterates (failed
    certification, or divergence at x0) writes the header line alone, so no
    earlier run's trace survives at the path.
    """
    report, code = run_scenario(parse_scenario(scenario))
    if trace:
        emit_trace_csv(report.trace, trace)
    dests = [report_path] if report_path else []
    emit_report(report, *dests, sys.stdout)
    return code


def _cmd_solve(args: argparse.Namespace) -> int:
    return _solve_and_emit(args.scenario, args.trace, args.report)


def _cmd_demo(args: argparse.Namespace) -> int:
    name = args.name
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    scenario_path = outdir / f"{name}.scenario"
    scenario_path.write_text(DEMO_SCENARIOS[name], encoding="utf-8", newline="\n")
    return _solve_and_emit(scenario_path, outdir / f"{name}.trace.csv",
                           outdir / f"{name}.report.txt")


def _build_parser() -> argparse.ArgumentParser:
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
    return parser


# Built once at import: building it takes about 1 ms, a large share of a short solve.
_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:  # an unreadable or unwritable path; the message names it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main_entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
