"""Krasnoselskij iteration with certified stopping rules and error bounds.

Given a certificate (b, theta, lambda, d), the averaged map T_lam contracts
with factor d, so the iteration ``x_n = (1-lam) x_{n-1} + lam T x_{n-1}``
converges to the unique fixed point of T. The solver turns the geometric tail
of that proof into machinery:

* a posteriori stopping: ``||x_n - x*|| <= d/(1-d) ||x_n - x_{n-1}||``, so the
  loop halts once the step drops below ``tol (1-d)/d`` and then verifies the
  actual fixed-point residual;
* the a priori tail bound ``d^n/(1-d) ||x0 - x1||`` recorded per row and
  cross-checked post hoc against the final iterate;
* cycle detection for the plain Picard variant, which oscillates for maps
  like the reflection x -> w - x;
* a local variant confined to a closed two-norm ball and an asymptotic
  variant that iterates T^N and hands the fixed point back to T;
* a Diverged status, with the trace so far, once a point overflows.

All residuals are ``max_z ||., z||`` over the configured witness set. Inside
the loop only the stopping test evaluates them, and it stops at the first
witness that settles the answer (``space.witness_max_prefix``); the trace
columns and the post-hoc bound check are evaluated after the loop in one
``space.witness_norm_rows`` pass, bit for bit what a per-iteration evaluation
gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence, Union

from .analyzer import EnrichedCertificate
from .mapping import SelfMap, averaged, iterated
from .space import (
    Box,
    NonFiniteError,
    SpaceElement,
    TwoNormSpace,
    WitnessSet,
    standard_basis,
    two_norm,
    witness_max_prefix,
    witness_norm_rows,
    witness_norms,
    witness_residual,
)

__all__ = [
    "TwoNormBall",
    "Domain",
    "SolveConfig",
    "TraceRow",
    "IterationTrace",
    "SolveStatus",
    "SolveReport",
    "apriori_bound",
    "aposteriori_step_threshold",
    "detect_cycle",
    "krasnoselskij_solve",
    "picard_solve",
    "local_ball_solve",
    "asymptotic_solve",
]


@dataclass(frozen=True)
class TwoNormBall:
    """The ball ``{x : ||x - center, u|| <= radius}``, or ``<`` when open."""

    u: SpaceElement
    center: SpaceElement
    radius: float
    closed: bool = True

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")

    def contains(self, space: TwoNormSpace, x: SpaceElement) -> bool:
        dist = two_norm(space, x - self.center, self.u)
        return dist <= self.radius if self.closed else dist < self.radius


@dataclass(frozen=True)
class Domain:
    """Where the iteration is allowed to live, with an optional bound constant.

    ``bound_beta`` is the user-supplied boundedness constant of the domain; it
    is consistency-checked against ``||x0 - T_lam x0||`` and never computed.
    """

    region: Union[Box, TwoNormBall]
    bound_beta: Optional[float] = None

    def contains(self, space: TwoNormSpace, x: SpaceElement) -> bool:
        return self.region.contains(space, x)


@dataclass(frozen=True)
class SolveConfig:
    tol: float = 1e-10
    max_iter: int = 10_000
    witnesses: Optional[WitnessSet] = None  # None picks the standard basis
    domain: Optional[Domain] = None
    cycle_window: int = 8

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.cycle_window < 2:
            raise ValueError(f"cycle_window must be at least 2, got {self.cycle_window}")


@dataclass(frozen=True)
class TraceRow:
    n: int
    x: SpaceElement
    step_residual: float        # max_z ||x_n - x_{n-1}, z||, 0 at n = 0
    fixed_residual: float       # max_z ||T x_n - x_n, z||
    apriori_bound: float        # d^n/(1-d) * ||x0 - x1||; nan when uncertified
    witness_steps: tuple[float, ...]  # per-witness ||x_n - x_{n-1}, z_j||


@dataclass(frozen=True)
class IterationTrace:
    rows: tuple[TraceRow, ...]


class SolveStatus(Enum):
    CONVERGED = "Converged"
    OSCILLATION = "OscillationDetected"
    MAX_ITER = "MaxIterExceeded"
    LEFT_DOMAIN = "LeftDomain"
    PRECONDITION_FAILED = "PreconditionFailed"
    DIVERGED = "Diverged"


@dataclass(frozen=True)
class SolveReport:
    status: SolveStatus
    x_star: Optional[SpaceElement]
    iterations: int
    certificate: Optional[EnrichedCertificate]
    trace: IterationTrace
    bound_violations: int
    period: Optional[int] = None
    epsilon: Optional[float] = None
    precondition: Optional[tuple[float, float]] = None  # (lhs, rhs) of the ball test
    warnings: tuple[str, ...] = ()


def apriori_bound(cert: EnrichedCertificate, n: int, base: float) -> float:
    """The tail bound ``d^n/(1-d) * base`` with base = ||x0 - x1|| residual."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if base < 0:
        raise ValueError(f"base must be nonnegative, got {base}")
    if cert.d >= 1.0:
        raise ValueError("certificate factor d must be below 1")
    return cert.d**n * base / (1.0 - cert.d)


def aposteriori_step_threshold(cert: EnrichedCertificate, tol: float) -> float:
    """Step size under which ``||x_n - x*|| <= tol`` is guaranteed.

    From the contraction of T_lam, ``||x_n - x*|| <= d/(1-d) ||x_n -
    x_{n-1}||``, so stopping at step <= tol (1-d)/d reaches the target. For
    vanishing d the threshold degenerates and is floored at tol itself (the
    averaged map is then constant and one application lands on the fixed
    point).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if cert.d >= 1.0:
        raise ValueError("certificate factor d must be below 1")
    if cert.d <= 1e-300:
        return tol
    return tol * (1.0 - cert.d) / cert.d


def detect_cycle(
    space: TwoNormSpace,
    witnesses: WitnessSet,
    trace: Union[IterationTrace, Sequence[SpaceElement]],
    window: int,
    eps: float,
) -> Optional[int]:
    """Smallest period p <= window matching the two most recent iterates.

    Returns p when ``x_n ~ x_{n-p}`` and ``x_{n-1} ~ x_{n-1-p}`` both hold
    within eps in witness residual, None otherwise. The two-index requirement
    avoids flagging a single accidental near-return.
    """
    if window < 2:
        raise ValueError(f"window must be at least 2, got {window}")
    xs = [r.x for r in trace.rows] if isinstance(trace, IterationTrace) else list(trace)
    n = len(xs) - 1
    for p in range(1, window + 1):
        if n - 1 - p < 0:
            break
        if (
            witness_residual(space, witnesses, xs[n], xs[n - p]) <= eps
            and witness_residual(space, witnesses, xs[n - 1], xs[n - 1 - p]) <= eps
        ):
            return p
    return None


def _witnesses_for(space: TwoNormSpace, cfg: SolveConfig) -> WitnessSet:
    w = cfg.witnesses if cfg.witnesses is not None else standard_basis(space.dimension)
    if w.dim != space.dimension:
        raise ValueError("witness set dimension does not match the space")
    return w


def _solve_core(
    T: SelfMap,
    cert: Optional[EnrichedCertificate],
    x0: SpaceElement,
    cfg: SolveConfig,
    space: TwoNormSpace,
    domain: Optional[Domain],
    detect_cycles: bool,
) -> SolveReport:
    if T.dimension != space.dimension or x0.dim != space.dimension:
        raise ValueError("map, start point and space must share one dimension")
    wset = _witnesses_for(space, cfg)
    lam = cert.lam if cert is not None else 1.0
    Tlam = averaged(T, lam)
    threshold = aposteriori_step_threshold(cert, cfg.tol) if cert is not None else cfg.tol

    warnings: list[str] = []
    period: Optional[int] = None
    # Row n of the trace is x_n with v_n = x_n - x_{n-1} and d_n = T x_n - x_n
    # (row 0 has no v_0 or d_0); the loop tests only the stopping rule, and
    # every column is evaluated after it in one witness_norm_rows call.
    xs: list[SpaceElement] = []
    vs: list[SpaceElement] = []
    ds: list[SpaceElement] = []
    f0 = math.nan
    x_star: Optional[SpaceElement] = None
    iterations = 0

    try:
        # T is evaluated once per point: T x_n feeds both the fixed-point
        # residual and x_{n+1} = Tlam.combine(x_n, T x_n), which is Tlam x_n.
        t_n = T.apply(x0)
        f0_lam = witness_residual(space, wset, Tlam.combine(x0, t_n), x0)
        f0 = witness_residual(space, wset, t_n, x0)
        if domain is not None and domain.bound_beta is not None and f0_lam > domain.bound_beta:
            warnings.append(
                f"bound_beta consistency check failed: ||x0 - T_lam x0|| = {f0_lam!r} "
                f"exceeds beta = {domain.bound_beta!r}"
            )
        xs.append(x0)

        if domain is not None and not domain.contains(space, x0):
            status = SolveStatus.LEFT_DOMAIN
        elif f0 <= cfg.tol and f0_lam <= cfg.tol:
            status = SolveStatus.CONVERGED
            x_star = x0
        else:
            status = SolveStatus.MAX_ITER
            x_n = x0
            for n in range(1, cfg.max_iter + 1):
                x_prev = x_n
                x_n = Tlam.combine(x_prev, t_n)
                v_n = x_n - x_prev
                t_n = T.apply(x_n)
                d_n = t_n - x_n
                xs.append(x_n)
                vs.append(v_n)
                ds.append(d_n)
                iterations = n

                if domain is not None and not domain.contains(space, x_n):
                    status = SolveStatus.LEFT_DOMAIN
                    break

                # witness_max_prefix stops at the first witness whose norm
                # lifts the running max past threshold, so step <= threshold
                # and step > threshold each hold exactly when they hold for
                # the full max. The cycle test below compares with cfg.tol,
                # which is exact too: only Picard detects cycles, and without
                # a certificate threshold == cfg.tol.
                step = witness_max_prefix(space, wset, v_n, threshold)
                if (cert is not None and cert.d == 0.0) or step <= threshold:
                    f_lam = witness_residual(space, wset, Tlam.combine(x_n, t_n), x_n)
                    fixed_n = max(witness_norms(space, wset, d_n))
                    if f_lam <= cfg.tol and fixed_n <= cfg.tol:
                        status = SolveStatus.CONVERGED
                        x_star = x_n
                        break

                if detect_cycles and step > cfg.tol:
                    period = detect_cycle(space, wset, xs, cfg.cycle_window, cfg.tol)
                    if period is not None:
                        status = SolveStatus.OSCILLATION
                        break
    except NonFiniteError:
        # A point overflowed: the iteration diverges, whatever the certificate
        # claimed. The trace keeps every iterate recorded before that.
        status = SolveStatus.DIVERGED

    # One pass over the trace: the step rows, the fixed-point rows and, for a
    # certified fixed point, each row's distance to it for the bound check.
    certified = status == SolveStatus.CONVERGED and cert is not None and x_star is not None
    gaps = [x - x_star for x in xs] if certified else []
    m = len(vs)
    norm_rows = witness_norm_rows(space, wset, vs + ds + gaps)
    zeros = tuple(0.0 for _ in wset.witnesses)
    witness_steps = [zeros] + norm_rows[:m]
    fixed = [f0] + [max(r) for r in norm_rows[m : 2 * m]]
    base = max(witness_steps[1]) if m else 0.0
    rows = tuple(
        TraceRow(
            n=i,
            x=x,
            step_residual=max(wsteps),
            fixed_residual=fixed_i,
            apriori_bound=apriori_bound(cert, i, base) if cert is not None else math.nan,
            witness_steps=wsteps,
        )
        for i, (x, wsteps, fixed_i) in enumerate(zip(xs, witness_steps, fixed))
    )

    bound_violations = 0
    if certified:
        # Post-hoc check of the tail bound against the returned fixed point.
        slack = 1e-12 * max(1.0, base)
        for row, gap in zip(rows, norm_rows[2 * m :]):
            if max(gap) > row.apriori_bound + slack:
                bound_violations += 1

    return SolveReport(
        status=status,
        x_star=x_star,
        iterations=iterations,
        certificate=cert,
        trace=IterationTrace(rows),
        bound_violations=bound_violations,
        period=period,
        warnings=tuple(warnings),
    )


def krasnoselskij_solve(
    T: SelfMap,
    cert: EnrichedCertificate,
    x0: SpaceElement,
    cfg: SolveConfig,
    space: TwoNormSpace,
) -> SolveReport:
    """Iterate the averaged map to the unique fixed point of T.

    Runs ``x_n = (1-lam) x_{n-1} + lam T x_{n-1}`` with lam from the
    certificate, stopping on the a posteriori rule; on success the returned
    point satisfies ``fixed_residual <= tol`` for both T and T_lam (the two
    share their fixed points). With d = 0 the averaged map is constant and the
    solve finishes after one application.
    """
    if cert is None:
        raise ValueError("krasnoselskij_solve needs a certificate")
    return _solve_core(T, cert, x0, cfg, space, cfg.domain, detect_cycles=False)


def picard_solve(
    T: SelfMap,
    x0: SpaceElement,
    cfg: SolveConfig,
    space: TwoNormSpace,
) -> SolveReport:
    """Plain Picard iteration (lam = 1), with cycle detection each step.

    No certificate is assumed: the loop stops when the step residual falls
    below tol and the fixed-point residual confirms, or when a periodic orbit
    shows up (the reflection map cycles with period 2 from any start off its
    fixed point). The a priori bound column is nan in the uncertified trace.
    """
    return _solve_core(T, None, x0, cfg, space, cfg.domain, detect_cycles=True)


def local_ball_solve(
    T: SelfMap,
    cert: EnrichedCertificate,
    x0: SpaceElement,
    u: SpaceElement,
    r: float,
    cfg: SolveConfig,
    space: TwoNormSpace,
) -> SolveReport:
    """Solve inside a two-norm ball after the displacement precondition.

    Requires ``||x0 - T x0, u|| < (b + 1 - theta) r``: the start must not be
    displaced too far relative to the ball. The solve is then confined to the
    closed ball of radius eps around x0, where eps is the midpoint of the
    admissible interval ``(||x0 - T x0, u|| / (b+1-theta), r)``; every iterate
    is checked for membership and an exit is reported as LeftDomain.
    """
    if not r > 0:
        raise ValueError(f"ball radius must be positive, got {r}")
    try:
        tx0 = T.apply(x0)
        lhs = two_norm(space, x0 - tx0, u)
    except NonFiniteError:
        return SolveReport(status=SolveStatus.DIVERGED, x_star=None, iterations=0,
                           certificate=cert, trace=IterationTrace(()), bound_violations=0)
    margin = cert.b + 1.0 - cert.theta
    rhs = margin * r
    if not lhs < rhs:
        wset = _witnesses_for(space, cfg)
        f0 = witness_residual(space, wset, tx0, x0)
        row0 = TraceRow(0, x0, 0.0, f0, apriori_bound(cert, 0, 0.0),
                        tuple(0.0 for _ in wset.witnesses))
        return SolveReport(
            status=SolveStatus.PRECONDITION_FAILED,
            x_star=None,
            iterations=0,
            certificate=cert,
            trace=IterationTrace((row0,)),
            bound_violations=0,
            precondition=(lhs, rhs),
        )
    eps_ball = 0.5 * (lhs / margin + r)
    ball = Domain(TwoNormBall(u=u, center=x0, radius=eps_ball, closed=True))
    report = _solve_core(T, cert, x0, cfg, space, ball, detect_cycles=False)
    return replace(report, epsilon=eps_ball, precondition=(lhs, rhs))


def asymptotic_solve(
    T: SelfMap,
    N: int,
    cert: EnrichedCertificate,
    x0: SpaceElement,
    cfg: SolveConfig,
    space: TwoNormSpace,
) -> SolveReport:
    """Solve via the N-th iterate of T, whose certificate is supplied.

    Runs the averaged iteration on T^N; its unique fixed point is also fixed
    by T (applying T to it yields another fixed point of T^N, which must be
    the same point), and the final T-residual is verified against tol. A
    failed verification downgrades the report to MaxIterExceeded with a
    diagnostic.
    """
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    TN = iterated(T, N)
    report = _solve_core(TN, cert, x0, cfg, space, cfg.domain, detect_cycles=False)
    if report.status == SolveStatus.CONVERGED and report.x_star is not None:
        wset = _witnesses_for(space, cfg)
        t_res = witness_residual(space, wset, T.apply(report.x_star), report.x_star)
        if t_res > cfg.tol:
            report = replace(
                report,
                status=SolveStatus.MAX_ITER,
                warnings=report.warnings
                + (
                    f"fixed point of the {N}-th iterate is not fixed by the map "
                    f"itself: residual {t_res!r} exceeds tol {cfg.tol!r}",
                ),
            )
    return report
