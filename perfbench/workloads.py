"""Seeded scenario generators for the three benchmark workloads.

Every scenario is generated together with its expected outcome: the exit
code, and for converged runs the analytic fixed point. The program only
ever sees the scenario text.

Continuous parameters (contraction factor, averaging parameter, b) are drawn
by stratified sampling over fixed ranges and every cycle holds a fixed count
of each category, so two seeds give different scenarios with nearly the same
cost distribution. That keeps medians and p90 steady from seed to seed.

The generators use ``random.Random`` seeded with a string, so the inputs
depend only on the workload name and the seed, not on the numpy version.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

__all__ = [
    "EXIT_CONVERGED",
    "EXIT_NOT_CERTIFIABLE",
    "EXIT_OSCILLATION",
    "MIN_DISTINCT",
    "PROMISE",
    "Scenario",
    "Workload",
    "WORKLOADS",
    "generate",
    "witness_residual",
]

EXIT_CONVERGED = 0
EXIT_NOT_CERTIFIABLE = 2
EXIT_OSCILLATION = 3

TOL = 1e-10  # every scenario, the demos included, solves to this tol
# The a posteriori stopping rule promises ||x_star - x_true|| <= tol. On top
# of tol this allows 1e-12 for rounding: accumulated rounding in an iteration
# with factor <= 0.9 on coordinates of magnitude <= 10 stays near 1e-14.
PROMISE = TOL + 1e-12


@dataclass(frozen=True)
class Scenario:
    """One scenario file plus what a correct run of it must produce."""

    name: str
    category: str
    text: str
    expect_exit: int
    x_true: Optional[tuple[float, ...]] = None  # fixed point, for expect_exit == 0
    space: str = "cross2"                       # "cross2" or "gram:n"


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: Scenario             # run untimed before timing starts
    cycle: tuple[Scenario, ...]  # timed scenarios, repeated in this order
    probes: tuple[Scenario, ...] = ()  # known-crashing inputs, run untimed


# --- scenario text ------------------------------------------------------------

def _coords(v: Sequence[float]) -> str:
    return ",".join(repr(float(c)) for c in v)


def _space_keys(space: str) -> list[str]:
    if space == "cross2":
        return ["space.kind=cross2", "space.dimension=2"]
    return ["space.kind=gram", f"space.dimension={space.split(':')[1]}"]


def _dim(space: str) -> int:
    return 2 if space == "cross2" else int(space.split(":")[1])


def _text(space: str, mode: str, map_keys: list[str], **extra) -> str:
    """Scenario text; each ``extra`` key names a scenario key with ``_`` for ``.``."""
    lines = ["schema=1", *_space_keys(space), f"mode={mode}", *map_keys]
    for key, value in extra.items():
        lines.append(f"{key.replace('_', '.')}={value}")
    return "\n".join(lines) + "\n"


def _affine_keys(prefix: str, scale: float, shift: Sequence[float]) -> list[str]:
    return [f"{prefix}.kind=scalar_affine", f"{prefix}.scale={scale!r}",
            f"{prefix}.shift={_coords(shift)}"]


def _piecewise_keys(u: Sequence[float], threshold: float) -> list[str]:
    return ["map.kind=piecewise_two_set", f"map.u={_coords(u)}",
            "map.region.kind=sup_norm_gt", f"map.region.threshold={threshold!r}"]


# --- random helpers -----------------------------------------------------------

def _strata(rng: random.Random, m: int, lo: float, hi: float) -> list[float]:
    """m draws, one from each of m equal slices of [lo, hi], in random order."""
    vals = [lo + (hi - lo) * (j + rng.random()) / m for j in range(m)]
    rng.shuffle(vals)
    return vals


def _point(rng: random.Random, dim: int, half: float) -> tuple[float, ...]:
    return tuple(rng.uniform(-half, half) for _ in range(dim))


def _offset(rng: random.Random, centre: Sequence[float], radius: float) -> tuple[float, ...]:
    """A point at the given Euclidean distance from centre, random direction."""
    g = [rng.gauss(0.0, 1.0) for _ in centre]
    norm = math.sqrt(sum(v * v for v in g)) or 1.0
    return tuple(c + radius * v / norm for c, v in zip(centre, g))


def _shift_for(x_star: Sequence[float], c: float) -> tuple[float, ...]:
    """Shift t with x -> c*x + t fixing x_star."""
    return tuple(x * (1.0 - c) for x in x_star)


def _fixed_point(c: float, t: Sequence[float]) -> tuple[float, ...]:
    return tuple(ti / (1.0 - c) for ti in t)


def _sign(rng: random.Random) -> float:
    return 1.0 if rng.random() < 0.5 else -1.0


# --- independent residual -----------------------------------------------------

def witness_residual(x: Sequence[float], y: Sequence[float]) -> float:
    """``max_i ||x - y, e_i||`` over the standard basis, in plain doubles.

    Written independently of the package: the area 2-norm of (v, z) is the
    root of the sum of squared 2x2 minors (Lagrange's identity), which is
    also ``cross2`` in the plane.
    """
    v = [a - b for a, b in zip(x, y)]
    n = len(v)
    # With z = e_i every minor involving i is +-v_j and the rest vanish.
    return max(math.sqrt(math.fsum(v[j] * v[j] for j in range(n) if j != i))
               for i in range(n))


def _two_norm(v: Sequence[float], z: Sequence[float]) -> float:
    n = len(v)
    return math.sqrt(math.fsum((v[j] * z[k] - v[k] * z[j]) ** 2
                               for j in range(n) for k in range(j + 1, n)))


# --- long-solve ---------------------------------------------------------------
# gram:8 averaged solves with on the order of a hundred iterations or more:
# the solve loop and the scalar double-double kernel do nearly all the work.

LONG_SPACE = "gram:8"
LONG_RHO = (0.78, 0.84)   # contraction factor of the averaged map
LONG_START = 5.0          # Euclidean distance from x0 to the fixed point


def _long_solve(rng: random.Random) -> list[Scenario]:
    plan = (["affine"] * 6 + ["asserted"] * 4 + ["reflection"] * 4
            + ["averaged"] * 4 + ["iterated"] * 3 + ["auto"])
    rhos = _strata(rng, len(plan), *LONG_RHO)
    dim = _dim(LONG_SPACE)
    out: list[Scenario] = []
    for i, (cat, rho) in enumerate(zip(plan, rhos)):
        x_star = _point(rng, dim, 3.0)
        x0 = _offset(rng, x_star, LONG_START)
        extra = {"x0": _coords(x0), "tol": repr(TOL)}
        if cat in ("affine", "asserted"):
            b = (0.0, 0.5, 1.0, 2.0)[i % 4]
            c = _sign(rng) * rho * (b + 1.0) - b
            t = _shift_for(x_star, c)
            keys = _affine_keys("map", c, t)
            theta = repr(abs(b + c) * 1.0005) if cat == "asserted" else "estimate"
            text = _text(LONG_SPACE, "krasnoselskij", keys, b=repr(b), theta=theta, **extra)
            x_true = _fixed_point(c, t)
        elif cat == "reflection":
            b = (1.0 - rho) / (1.0 + rho)
            w = tuple(2.0 * x for x in x_star)
            keys = ["map.kind=reflection", f"map.w={_coords(w)}"]
            text = _text(LONG_SPACE, "krasnoselskij", keys, b=repr(b), theta="estimate", **extra)
            x_true = tuple(wi / 2.0 for wi in w)
        elif cat == "averaged":
            b = (0.0, 0.5)[i % 2]
            lam = rng.uniform(0.3, 0.7)
            c_red = rho * (b + 1.0) - b
            c = (c_red - 1.0 + lam) / lam
            t = _shift_for(x_star, c)
            keys = ["map.kind=averaged", f"map.lambda={lam!r}", *_affine_keys("map.inner", c, t)]
            text = _text(LONG_SPACE, "krasnoselskij", keys, b=repr(b), theta="estimate", **extra)
            x_true = _fixed_point(c, t)
        elif cat == "iterated":
            b = (0.0, 0.25)[i % 2]
            c = _sign(rng) * math.sqrt(rho * (b + 1.0) - b)
            t = _shift_for(x_star, c)
            keys = ["map.kind=iterated", "map.times=2", *_affine_keys("map.inner", c, t)]
            text = _text(LONG_SPACE, "krasnoselskij", keys, b=repr(b), theta="estimate", **extra)
            x_true = _fixed_point(c, t)
        else:  # auto: the closed form makes optimize_b settle on b = 0, d = c
            c = rho
            t = _shift_for(x_star, c)
            text = _text(LONG_SPACE, "krasnoselskij", _affine_keys("map", c, t),
                         b="auto", theta="estimate", **extra)
            x_true = _fixed_point(c, t)
        out.append(Scenario(f"long-solve/{i:02d}-{cat}", cat, text, EXIT_CONVERGED,
                            x_true, space=LONG_SPACE))

    # A small fixed share keeps every layer busy on every workload (the cycle
    # detector and the sampler), so no layer time is zero by construction.
    c = rng.uniform(0.3, 0.5)
    x_star = _point(rng, dim, 3.0)
    t = _shift_for(x_star, c)
    text = _text(LONG_SPACE, "picard", _affine_keys("map", c, t),
                 x0=_coords(_offset(rng, x_star, LONG_START)), tol=repr(TOL))
    out.append(Scenario("long-solve/22-picard", "picard", text, EXIT_CONVERGED,
                        _fixed_point(c, t), space=LONG_SPACE))
    out.append(_piecewise(rng, "long-solve/23-sampled", "sampled", LONG_SPACE,
                          b=repr(rng.uniform(0.5, 1.0)), theta="estimate",
                          sampling_count="400"))
    return out


# --- auto-certify -------------------------------------------------------------
# piecewise_two_set maps solved through T^2 with a sampled theta: estimate_theta,
# optimize_b and the batch kernels dominate, the loop runs few iterations.

AUTO_SPACES = ("cross2", "gram:3", "gram:4", "gram:5", "gram:6")
AUTO_COUNT = 2000
AUTO_B = (0.25, 1.0)


def _piecewise(rng: random.Random, name: str, category: str, space: str,
               mode: str = "asymptotic", **solve: str) -> Scenario:
    """T = u on {sup > thr}, -u/3 elsewhere; T^2 is the constant -u/3.

    ``solve`` holds the certificate keys (b, theta, sampling_count) for the
    asymptotic mode; picard runs uncertified and takes none.
    """
    dim = _dim(space)
    threshold = rng.uniform(1.5, 3.0)
    u = _point(rng, dim, 0.9 * threshold)
    x0 = _point(rng, dim, 8.0)
    if mode == "asymptotic":
        solve = {**solve, "n": "2", "seed": str(rng.randrange(1 << 30))}
    text = _text(space, mode, _piecewise_keys(u, threshold),
                 x0=_coords(x0), tol=repr(TOL), **solve)
    return Scenario(name, category, text, EXIT_CONVERGED,
                    tuple(-c / 3.0 for c in u), space=space)


def _auto_certify(rng: random.Random) -> list[Scenario]:
    fixed_b = _strata(rng, 3 * len(AUTO_SPACES), *AUTO_B)
    out: list[Scenario] = []
    for s, space in enumerate(AUTO_SPACES):
        for j in range(3):
            out.append(_piecewise(rng, f"auto-certify/{space}-fixed{j}", "fixed-b", space,
                                  b=repr(fixed_b[3 * s + j]), theta="estimate",
                                  sampling_count=str(AUTO_COUNT)))
        out.append(_piecewise(rng, f"auto-certify/{space}-auto", "b-auto", space,
                              b="auto", theta="estimate",
                              sampling_count=str(AUTO_COUNT)))
    for space in ("cross2", "gram:4"):
        out.append(_piecewise(rng, f"auto-certify/{space}-picard", "picard", space,
                              mode="picard"))
    return out


# --- scenario-sweep -----------------------------------------------------------
# Many short mixed scenarios: fixed per-call costs (parse, set-up, cycle
# detection, emission) dominate, and the solver takes short and
# non-converging exits.

SWEEP_SPACES = ("cross2", "gram:3", "gram:4")

DEMOS = {
    # The three scenarios the CLI ships as demos, byte for byte.
    "reflection": (
        "schema=1\nspace.kind=cross2\nspace.dimension=2\nmode=krasnoselskij\n"
        "map.kind=reflection\nmap.w=2,0\nb=0.5\ntheta=estimate\nx0=0,0\n"
        "witnesses=basis\ntol=1e-10\nmax_iter=10000\nseed=0\n",
        EXIT_CONVERGED, (1.0, 0.0)),
    "picard-oscillation": (
        "schema=1\nspace.kind=cross2\nspace.dimension=2\nmode=picard\n"
        "map.kind=reflection\nmap.w=2,0\nx0=0,0\nwitnesses=basis\ntol=1e-10\n"
        "max_iter=10000\nseed=0\n",
        EXIT_OSCILLATION, None),
    "asymptotic-piecewise": (
        "schema=1\nspace.kind=cross2\nspace.dimension=2\nmode=asymptotic\n"
        "map.kind=piecewise_two_set\nmap.u=1,1\nmap.region.kind=sup_norm_gt\n"
        "map.region.threshold=2\nb=1\ntheta=1\nn=2\nx0=5,5\nwitnesses=basis\n"
        "tol=1e-10\nmax_iter=10000\nseed=0\n",
        EXIT_CONVERGED, (-1.0 / 3.0, -1.0 / 3.0)),
}


def _sweep_affine(rng, space, rho_lo, rho_hi, mode="krasnoselskij", asserted=False):
    dim = _dim(space)
    rho = rng.uniform(rho_lo, rho_hi)
    b = rng.choice((0.0, 0.5, 1.0))
    c = _sign(rng) * rho * (b + 1.0) - b
    x_star = _point(rng, dim, 3.0)
    t = _shift_for(x_star, c)
    theta = repr(abs(b + c) * 1.0005) if asserted else "estimate"
    text = _text(space, mode, _affine_keys("map", c, t), b=repr(b), theta=theta,
                 x0=_coords(_point(rng, dim, 5.0)), tol=repr(TOL))
    return text, _fixed_point(c, t)


def _sweep_local(rng, space, fits):
    """mode=local on x -> c*x + t, c in (0, 1): the ball admits the solve iff fits."""
    dim = _dim(space)
    c = rng.uniform(0.3, 0.6)
    b = rng.choice((0.0, 0.5))
    x_star = _point(rng, dim, 3.0)
    t = _shift_for(x_star, c)
    x0 = _offset(rng, x_star, 4.0)
    u = _point(rng, dim, 1.0)
    # ||x0 - T x0, u|| against (b + 1 - theta) r with theta = b + c: the
    # iterates move monotonically towards x_star, so r = 4 lhs/margin keeps
    # them well inside the ball and r = lhs/(2 margin) fails the test.
    lhs = _two_norm([x - (c * x + ti) for x, ti in zip(x0, t)], u)
    margin = 1.0 - c
    r = (4.0 if fits else 0.5) * lhs / margin
    text = _text(space, "local", _affine_keys("map", c, t), b=repr(b), theta="estimate",
                 x0=_coords(x0), tol=repr(TOL), local_u=_coords(u), local_r=repr(r))
    return text, _fixed_point(c, t)


def _scenario_sweep(rng: random.Random) -> list[Scenario]:
    out: list[Scenario] = []

    def add(cat, space, text, code, x_true=None):
        out.append(Scenario(f"scenario-sweep/{len(out):02d}-{cat}", cat, text, code,
                            x_true, space=space))

    for name, (text, code, x_true) in DEMOS.items():
        add(f"demo-{name}", "cross2", text, code, x_true)
    for k in range(4):
        space = SWEEP_SPACES[k % 3]
        dim = _dim(space)
        w = _point(rng, dim, 3.0)
        x0 = _offset(rng, tuple(wi / 2.0 for wi in w), rng.uniform(1.0, 4.0))
        text = _text(space, "picard", ["map.kind=reflection", f"map.w={_coords(w)}"],
                     x0=_coords(x0), tol=repr(TOL))
        add("picard-oscillating", space, text, EXIT_OSCILLATION)
    for k in range(3):
        space = SWEEP_SPACES[k]
        dim = _dim(space)
        c = _sign(rng) * rng.uniform(0.1, 0.4)
        x_star = _point(rng, dim, 3.0)
        t = _shift_for(x_star, c)
        text = _text(space, "picard", _affine_keys("map", c, t),
                     x0=_coords(_point(rng, dim, 5.0)), tol=repr(TOL))
        add("picard-contracting", space, text, EXIT_CONVERGED, _fixed_point(c, t))
    for k in range(3):
        space = SWEEP_SPACES[k]
        text, x_true = _sweep_local(rng, space, fits=True)
        add("local", space, text, EXIT_CONVERGED, x_true)
    for k in range(2):
        space = SWEEP_SPACES[k + 1]
        text, _ = _sweep_local(rng, space, fits=False)
        add("local-precondition-failed", space, text, EXIT_NOT_CERTIFIABLE)
    for k in range(3):
        space = SWEEP_SPACES[k]
        dim = _dim(space)
        b = rng.uniform(0.4, 1.0)
        w = _point(rng, dim, 3.0)
        text = _text(space, "krasnoselskij", ["map.kind=reflection", f"map.w={_coords(w)}"],
                     b=repr(b), theta="estimate", x0=_coords(_point(rng, dim, 5.0)),
                     tol=repr(TOL))
        add("reflection", space, text, EXIT_CONVERGED, tuple(wi / 2.0 for wi in w))
    for k in range(3):
        space = SWEEP_SPACES[k]
        text, x_true = _sweep_affine(rng, space, 0.2, 0.5, asserted=k == 2)
        add("affine", space, text, EXIT_CONVERGED, x_true)
    space = SWEEP_SPACES[rng.randrange(3)]
    w = _point(rng, _dim(space), 3.0)
    text = _text(space, "krasnoselskij", ["map.kind=reflection", f"map.w={_coords(w)}"],
                 b="auto", theta="estimate", x0=_coords(_point(rng, _dim(space), 5.0)),
                 tol=repr(TOL))
    add("reflection-auto", space, text, EXIT_CONVERGED, tuple(wi / 2.0 for wi in w))
    for k in range(3):
        space = SWEEP_SPACES[k]
        s = _piecewise(rng, "", "asymptotic-sampled", space,
                       b=repr(rng.uniform(0.5, 1.0)), theta="estimate", sampling_count="300")
        add(s.category, space, s.text, s.expect_exit, s.x_true)
    for k in range(2):
        space = SWEEP_SPACES[k + 1]
        b = repr(rng.uniform(0.5, 1.0))
        s = _piecewise(rng, "", "asymptotic-asserted", space, b=b, theta=b)
        add(s.category, space, s.text, s.expect_exit, s.x_true)
    return out


def _sweep_probes() -> tuple[Scenario, ...]:
    """The inputs that still end in a traceback instead of an exit code.

    A probe passes once the CLI gives it any documented non-zero exit code;
    exit 0 would claim convergence on a divergent or invalid input.
    """
    x0 = "x0=0.5,0.25\n"
    head = "schema=1\nspace.kind=cross2\nspace.dimension=2\n"
    return (
        Scenario("probe/picard-scale3", "probe", head + "mode=picard\n"
                 "map.kind=scalar_affine\nmap.scale=3\nmap.shift=1,0\n" + x0, -1),
        Scenario("probe/asserted-theta-scale1.5", "probe", head + "mode=krasnoselskij\n"
                 "map.kind=scalar_affine\nmap.scale=1.5\nmap.shift=1,0\nb=0\ntheta=0.5\n"
                 + x0, -1),
        Scenario("probe/lambda0", "probe", head + "mode=krasnoselskij\n"
                 "map.kind=averaged\nmap.lambda=0\nmap.inner.kind=reflection\n"
                 "map.inner.w=2,0\nb=0.5\ntheta=estimate\n" + x0, -1),
    )


# --- entry point ----------------------------------------------------------------

_GENERATORS: dict[str, Callable[[random.Random], list[Scenario]]] = {
    "long-solve": _long_solve,
    "auto-certify": _auto_certify,
    "scenario-sweep": _scenario_sweep,
}

WORKLOADS = tuple(_GENERATORS)

# Distinct scenarios per cycle: p50 and p90 are taken over the cycle's
# scenarios, and p90 needs at least ten of them beyond it.
MIN_DISTINCT = 100


def generate(workload: str, seed: int) -> Workload:
    """The workload's scenarios for this seed; the same seed gives the same text.

    The cycle is made of whole blocks, each holding every category of the
    workload in its fixed count, until it has MIN_DISTINCT scenarios.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    cycle: list[Scenario] = []
    block = 0
    while len(cycle) < MIN_DISTINCT:
        cycle += [replace(s, name=f"{s.name}@{block}") for s in _GENERATORS[workload](rng)]
        block += 1
    rng.shuffle(cycle)
    # The warm-up comes from the same generator under a derived seed, so it
    # warms the same code paths without being one of the timed scenarios.
    warm = _GENERATORS[workload](random.Random(f"{workload}:{seed}:warmup"))
    first = min(warm, key=lambda s: s.name)
    warmup = replace(first, name="warmup/" + first.name)
    probes = _sweep_probes() if workload == "scenario-sweep" else ()
    return Workload(workload, warmup, tuple(cycle), probes)
