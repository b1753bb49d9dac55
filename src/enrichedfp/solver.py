"""Krasnoselskij iteration with certified stopping rules and error bounds.

Given a certificate (b, theta, lambda, d), the averaged map T_lam contracts
with factor d, so the iteration ``x_n = (1-lam) x_{n-1} + lam T x_{n-1}``
converges to the unique fixed point of T. The solver turns the geometric tail
of that proof into machinery:

* a posteriori stopping: ``||x_n - x*|| <= d/(1-d) ||x_n - x_{n-1}||``, so the
  loop halts once the step drops below ``tol (1-d)/d`` and then verifies the
  actual fixed-point residual;
* the a priori tail bound ``d^n/(1-d) ||x0 - x1||`` recorded per row and
  cross-checked post hoc against the final iterate; the column is formed
  after the loop in one pass, with d and 1 - d read once per run, and equals
  :func:`apriori_bound` on every row bit for bit;
* cycle detection for the plain Picard variant, which oscillates for maps
  like the reflection x -> w - x;
* a local variant confined to a closed two-norm ball (and to the configured
  domain, if any) and an asymptotic variant that iterates T^N and hands the
  fixed point back to T;
* confinement to the box of a certificate that holds only on a box;
* a Diverged status, with the trace so far, once a point overflows;
* a CertificateViolated status for a run that met tol but broke the a priori
  bound of its own certificate on some row.

One :class:`SolveConfig` holds every setting of a solve: tol, the iteration
budget, the witness set, and the domain region itself (a ``Box`` or a
``TwoNormBall``) with its boundedness constant beta.

All residuals are ``max_z ||., z||`` over the configured witness set. The
loop runs x0 as iteration 0 and each x_n through three kinds of test: the
region tests, the stopping test on ``x_n - x_{n-1}`` (x0 has none) and then
the fixed-point residuals of ``T`` and ``T_lam``, and the Picard cycle test
on ``x_n - x_{n-p}``. Each asks ``space`` whether a residual is past a bound,
and ``space`` alone decides how, exactly as the full residual would: every
residual through the pair test ``witness_gap_within``, and a region through
its own ``contains``. The step is asked once per iteration, and its one
answer drives both the convergence check and, for Picard, the cycle test: a
step whose norms are NaN is not within tol, so Picard looks for a cycle. The
loop never sees a screen and forms no coordinate difference. It keeps the
iterates and the coordinates of each ``T x_n``; a step ``x_n - x_{n-1}`` or a
fixed-point row ``T x_n - x_n`` that overflows ends the run Diverged before
x_n is recorded, as ``SpaceElement`` subtraction would. The pair test raises
on the step, and one float sum screens the fixed-point row, which
``space.difference`` forms only where that sum is not finite. The test that
ends the run, or the spent budget, sets the report's ``reason``: one sentence
saying why it stopped.

After the loop the step rows, the fixed-point rows ``T x_n - x_n`` and the
gaps to a certified fixed point are subtracted from the iterate arrays, the
same IEEE subtractions, and the trace columns and the post-hoc bound check
come from one ``space.witness_norm_rows`` pass over them, bit for bit what a
per-iteration evaluation gives.

The report's trace is a :class:`Trace`: the space's dimension and one
float64 table in trace-CSV column order, filled from those arrays by slice
assignment, whose first ``dim`` columns hold the iterates; the table is the
one copy of them the report keeps. A :class:`TraceRow` is built only when a
caller reads one; the CLI writes the CSV and the report from the table alone.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Union

import numpy as np

from .analyzer import EnrichedCertificate
from .mapping import SelfMap, averaged, iterated
from .space import (
    Box,
    NonFiniteError,
    SpaceElement,
    TwoNormBall,
    TwoNormSpace,
    WitnessSet,
    difference,
    standard_basis,
    two_norm,
    witness_gap_within,
    witness_norm_rows,
    witness_residual,
)

__all__ = [
    "TwoNormBall",
    "SolveConfig",
    "TraceRow",
    "Trace",
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
class SolveConfig:
    """The settings of one solve.

    ``witnesses`` None is the standard basis, resolved by :meth:`witness_set`
    alone. ``domain`` is the region every iterate must lie in, if any, and
    ``bound_beta`` its user-supplied boundedness constant: it is
    consistency-checked against ``||x0 - T_lam x0||`` and never computed, so
    it needs a domain.
    """

    tol: float = 1e-10
    max_iter: int = 10_000
    witnesses: Optional[WitnessSet] = None
    domain: Union[Box, TwoNormBall, None] = None
    bound_beta: Optional[float] = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.bound_beta is not None and self.domain is None:
            raise ValueError("bound_beta needs a domain")

    def witness_set(self, space: TwoNormSpace) -> WitnessSet:
        """``witnesses``, or the standard basis of ``space`` when it is None."""
        w = self.witnesses if self.witnesses is not None else standard_basis(space.dimension)
        if w.dim != space.dimension:
            raise ValueError("witness set dimension does not match the space")
        return w


@dataclass(frozen=True)
class TraceRow:
    n: int
    x: SpaceElement
    step_residual: float        # max_z ||x_n - x_{n-1}, z||, 0 at n = 0
    fixed_residual: float       # max_z ||T x_n - x_n, z||
    apriori_bound: float        # d^n/(1-d) * ||x0 - x1||; nan when uncertified
    witness_steps: tuple[float, ...]  # per-witness ||x_n - x_{n-1}, z_j||


@dataclass(frozen=True, eq=False)
class Trace(Sequence[TraceRow]):
    """The rows of a solve, held as one table; a :class:`TraceRow` is built per read.

    ``table`` is the read-only ``(N + 1, cells)`` float64 array in trace-CSV
    column order: the ``dim`` coordinates of x_n, the step and fixed-point
    residuals, the a priori bound, then one step residual per witness. Row n,
    read by index or by iteration, is the TraceRow with ``n``, ``x`` the point
    of the first ``dim`` cells of table row n and the Python floats of the
    rest; a slice is a tuple of rows. Two traces are equal when their ``dim``
    and tables are, NaN equal to NaN.
    """

    dim: int
    table: np.ndarray

    def __post_init__(self):
        if self.table.ndim != 2 or self.table.shape[1] < self.dim + 3:
            raise ValueError(f"a trace of {self.dim} coordinates needs a table of at least "
                             f"{self.dim + 3} columns, got shape {self.table.shape}")
        table = self.table.view()
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def _row(self, n: int) -> TraceRow:
        cells = self.table[n].tolist()
        d = self.dim
        return TraceRow(n, SpaceElement(cells[:d]), cells[d], cells[d + 1], cells[d + 2],
                        tuple(cells[d + 3 :]))

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i):
        picked = range(len(self.table))[i]
        return tuple(map(self._row, picked)) if isinstance(picked, range) else self._row(picked)

    def __iter__(self):
        return map(self._row, range(len(self.table)))

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.table, other.table, equal_nan=True)

    def __hash__(self) -> int:
        return hash((self.dim, self.table.shape))


class SolveStatus(Enum):
    CONVERGED = "Converged"
    OSCILLATION = "OscillationDetected"
    MAX_ITER = "MaxIterExceeded"
    LEFT_DOMAIN = "LeftDomain"
    PRECONDITION_FAILED = "PreconditionFailed"
    DIVERGED = "Diverged"
    CERTIFICATE_VIOLATED = "CertificateViolated"


@dataclass(frozen=True)
class SolveReport:
    """The outcome of one solve.

    * ``status``: how the run ended.
    * ``x_star``: the fixed point found; None unless the run converged.
    * ``iterations``: the index of the last recorded iterate; x0 is 0.
    * ``certificate``: None for Picard and for a failed certification.
    * ``trace``: one row per recorded iterate, x_0 first.
    * ``bound_violations``: the rows whose gap to ``x_star`` broke the
      certificate's a priori bound; counted only on a certified converged run.
    * ``period``: the orbit's period when Picard found a cycle.
    * ``epsilon``: the local ball's radius once the precondition passed.
    * ``precondition``: (lhs, rhs) of the local displacement test.
    * ``warnings``: diagnostics, in the order they arose.
    * ``reason``: one sentence saying why the run stopped, set where that was
      decided; the report's human block leads with it.
    """

    status: SolveStatus
    x_star: Optional[SpaceElement]
    iterations: int
    certificate: Optional[EnrichedCertificate]
    trace: Trace
    bound_violations: int
    period: Optional[int] = None
    epsilon: Optional[float] = None
    precondition: Optional[tuple[float, float]] = None
    warnings: tuple[str, ...] = ()
    reason: str = ""


def _unmet(iterations: int) -> str:
    return f"Stopped after {iterations} iteration(s) without meeting tol."


def apriori_bound(cert: EnrichedCertificate, n: int, base: float) -> float:
    """The tail bound ``d^n/(1-d) * base`` with base = ||x0 - x1|| residual."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if base < 0:
        raise ValueError(f"base must be nonnegative, got {base}")
    d = cert.d  # below 1: no certificate holds a larger d
    return d**n * base / (1.0 - d)


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
    d = cert.d
    if d <= 1e-300:
        return tol
    return tol * (1.0 - d) / d


# Longest period the Picard loop looks for.
_CYCLE_WINDOW = 8


def detect_cycle(
    space: TwoNormSpace,
    witnesses: WitnessSet,
    xs: Sequence[SpaceElement],
    window: int,
    eps: float,
) -> Optional[int]:
    """Smallest period p <= window matching the two most recent iterates.

    Returns p when ``x_n ~ x_{n-p}`` and ``x_{n-1} ~ x_{n-1-p}`` both hold
    within eps in witness residual, None otherwise. The two-index requirement
    avoids flagging a single accidental near-return. Each test is
    ``space.witness_gap_within``, which decides as ``witness_residual(...)
    <= eps`` does and raises ``NonFiniteError`` where it does.
    """
    if window < 2:
        raise ValueError(f"window must be at least 2, got {window}")
    n = len(xs) - 1
    for p in range(1, window + 1):
        if n - 1 - p < 0:
            break
        if (
            witness_gap_within(space, witnesses, xs[n].coords, xs[n - p].coords, eps)
            and witness_gap_within(space, witnesses, xs[n - 1].coords,
                                   xs[n - 1 - p].coords, eps)
        ):
            return p
    return None


def _solve_core(
    T: SelfMap,
    cert: Optional[EnrichedCertificate],
    x0: SpaceElement,
    cfg: SolveConfig,
    space: TwoNormSpace,
    local: Optional[tuple[SpaceElement, float]] = None,
) -> SolveReport:
    """The one solve loop; without a certificate it is Picard with cycle tests.

    Every iterate must lie in ``cfg.domain``, and in the box of a certificate
    that holds only on a box (``cert.provenance.box``); leaving that box adds
    a warning naming it. With ``local=(u, r)`` (and a certificate) the loop
    first tests ``||x0 - T x0, u|| < (b + 1 - theta) r`` on its own ``T x0``:
    a failure ends the run PreconditionFailed, before iteration 0's region
    test, and a pass confines every iterate to the closed ball of radius
    epsilon around x0 too.
    """
    if T.dimension != space.dimension or x0.dim != space.dimension:
        raise ValueError("map, start point and space must share one dimension")
    if cfg.domain is not None and cfg.domain.dimension != space.dimension:
        raise ValueError(f"domain dimension {cfg.domain.dimension} does not match "
                         f"the space ({space.dimension})")
    cert_box = cert.provenance.box if cert is not None else None
    if cert_box is not None and cert_box.dimension != space.dimension:
        raise ValueError(f"certificate box dimension {cert_box.dimension} does not match "
                         f"the space ({space.dimension})")
    wset = cfg.witness_set(space)
    lam = cert.lam if cert is not None else 1.0
    Tlam = averaged(T, lam)
    threshold = aposteriori_step_threshold(cert, cfg.tol) if cert is not None else cfg.tol
    regions: list[Union[Box, TwoNormBall]] = [cfg.domain] if cfg.domain is not None else []
    # A certificate that holds only on a box confines the run to that box.
    if cert_box is not None:
        regions.append(cert_box)

    warnings: list[str] = []
    period: Optional[int] = None
    epsilon: Optional[float] = None
    precondition: Optional[tuple[float, float]] = None
    status: Optional[SolveStatus] = None
    # Row n of the trace is x_n; the loop keeps x_n, for its cycle test, and
    # the coordinates of T x_n (n >= 1), and every column is evaluated after
    # it from those two arrays.
    xs: list[SpaceElement] = []
    ts: list[tuple[float, ...]] = []
    f0 = math.nan
    x_star: Optional[SpaceElement] = None
    iterations = 0

    try:
        # T is evaluated once per point: T x_n feeds both the fixed-point
        # residual and x_{n+1} = Tlam.combine(x_n, T x_n), which is Tlam x_n.
        t_n = T.apply(x0)
        f0_lam = witness_residual(space, wset, Tlam.combine(x0, t_n), x0)
        f0 = witness_residual(space, wset, t_n, x0)
        if cfg.bound_beta is not None and f0_lam > cfg.bound_beta:
            warnings.append(
                f"bound_beta consistency check failed: ||x0 - T_lam x0|| = {f0_lam!r} "
                f"exceeds beta = {cfg.bound_beta!r}"
            )
        if local is not None:
            u, r = local
            lhs = two_norm(space, x0 - t_n, u)
            margin = cert.b + 1.0 - cert.theta
            rhs = margin * r
            precondition = (lhs, rhs)
            if lhs < rhs:
                # The midpoint of the admissible radii (lhs / margin, r), or r
                # when it underflows to 0 (r = 5e-324): lhs < rhs keeps the
                # closed ball of radius r invariant under T_lam too.
                epsilon = 0.5 * (lhs / margin + r) or r
                regions.append(TwoNormBall(u=u, center=x0, radius=epsilon, closed=True))
            else:
                status = SolveStatus.PRECONDITION_FAILED
                reason = f"Rejected: displacement {lhs!r} is not below (b+1-theta)*r = {rhs!r}."
        xs.append(x0)

        if status is None:
            # With d = 0 the averaged map is constant: every step is checked.
            d_zero = cert is not None and cert.d == 0.0
            x_n = x0
            within = True  # x0 has no step: it goes straight to the residual tests
            for n in range(cfg.max_iter + 1):
                if n:
                    x_prev = x_n
                    x_n = Tlam.combine(x_prev, t_n)
                    # Whether the step is within threshold, as for the full
                    # max; a step that overflows raises here.
                    within = witness_gap_within(space, wset, x_n.coords, x_prev.coords,
                                                threshold)
                    t_n = T.apply(x_n)
                    # A difference of finite floats is never NaN, so a finite
                    # sum clears x_n's fixed-point row; difference raises on
                    # one that overflowed.
                    if not math.isfinite(sum(map(operator.sub, t_n.coords, x_n.coords))):
                        difference(t_n.coords, x_n.coords)
                    xs.append(x_n)
                    ts.append(t_n.coords)
                    iterations = n

                if regions and not all(r.contains(space, x_n) for r in regions):
                    status = SolveStatus.LEFT_DOMAIN
                    left = "configured domain"
                    if cert_box is not None and not cert_box.contains(space, x_n):
                        warnings.append(f"iterate {n} left the box lo={cert_box.lo} "
                                        f"hi={cert_box.hi}, the only region where the "
                                        "certificate holds")
                        if all(r.contains(space, x_n) for r in regions if r is not cert_box):
                            left = "box where the certificate holds"
                    reason = f"Iterate {n} left the {left}."
                    break

                # One answer for both tests: only Picard detects cycles, and
                # without a certificate threshold == cfg.tol, so "not within"
                # is a step past tol or one whose norms are NaN. Once the step
                # passes, the residuals of T_lam and of T at x_n against tol.
                if ((d_zero or within)
                        and witness_gap_within(space, wset, Tlam.combine(x_n, t_n).coords,
                                               x_n.coords, cfg.tol)
                        and witness_gap_within(space, wset, t_n.coords, x_n.coords,
                                               cfg.tol)):
                    status = SolveStatus.CONVERGED
                    x_star = x_n
                    reason = (f"Converged after {n} iteration(s) to "
                              f"({', '.join(map(repr, x_n.coords))}).")
                    break

                if cert is None and not within:
                    period = detect_cycle(space, wset, xs, _CYCLE_WINDOW, cfg.tol)
                    if period is not None:
                        status = SolveStatus.OSCILLATION
                        reason = (f"Picard iteration locked into a period-{period} orbit; "
                                  "the plain iteration does not converge for this map.")
                        break
            else:
                status = SolveStatus.MAX_ITER
                reason = _unmet(iterations)
    except NonFiniteError:
        # A point overflowed: the iteration diverges, whatever the certificate
        # claimed. The trace keeps every iterate recorded before that.
        status = SolveStatus.DIVERGED
        reason = f"Diverged: the iteration overflowed after {iterations} iteration(s)."
    # The trace's rows, each the IEEE subtraction of space.difference and
    # SpaceElement's: the steps x_n - x_{n-1} and D = T x_n - x_n (n >= 1),
    # finite since the loop tested them, and, for a certified fixed point, the
    # gaps x_n - x_star for the bound check (one that overflows becomes inf).
    X = np.array([x.coords for x in xs], dtype=float).reshape(-1, space.dimension)
    D = np.array(ts, dtype=float).reshape(-1, space.dimension) - X[1:]
    certified = status == SolveStatus.CONVERGED and cert is not None
    with np.errstate(over="ignore"):
        gaps = X - x_star.coords if certified else X[:0]

    m = len(D)
    dim = space.dimension
    norms = witness_norm_rows(space, wset, np.concatenate([X[1:] - X[:-1], D, gaps]))
    # The trace table, in CSV column order: x_n, step, fixed, bound, the
    # witness steps. Row 0 has zero steps and the fixed residual f0.
    table = np.zeros((len(xs), dim + 3 + len(wset.witnesses)))
    table[:, :dim] = X
    table[:1, dim + 1] = f0
    table[1:, dim + 3 :] = norms[:m]
    # Each step and fixed residual is its row's largest witness norm by Python
    # max's NaN rule: NaN when the first witness's norm is NaN, a later NaN
    # skipped.
    rows = norms[: 2 * m]
    top = np.where(np.isnan(rows[:, 0]), math.nan, np.fmax.reduce(rows, axis=1))
    table[1:, dim], table[1:, dim + 1] = top[:m], top[m:]
    base = table[1, dim].item() if m else 0.0
    # The a priori column is apriori_bound(cert, n, base) on every row, bit for
    # bit: the same expression, with d and 1 - d read once per run.
    if cert is not None:
        d = cert.d
        one_minus_d = 1.0 - d
        table[:, dim + 2] = [d**n * base / one_minus_d for n in range(len(xs))]
    else:
        table[:, dim + 2] = math.nan

    bound_violations = 0
    if certified:
        # Post-hoc check of the tail bound against the returned fixed point.
        # A row passes only when every witness gap is within bound + slack, so
        # a NaN gap (an overflowed x_n - x_star) or a NaN bound is a violation.
        limits = table[:, dim + 2] + 1e-12 * max(1.0, base)
        failed = ~(norms[2 * m :] <= limits[:, None]).all(axis=1)
        bound_violations = int(failed.sum())
        if bound_violations:
            status = SolveStatus.CERTIFICATE_VIOLATED
            reason = (f"Met tol after {iterations} iteration(s), but the trace broke the "
                      "certificate's a priori bound, so the certificate does not hold for "
                      "this run.")

    return SolveReport(
        status=status,
        x_star=x_star,
        iterations=iterations,
        certificate=cert,
        trace=Trace(dim, table),
        bound_violations=bound_violations,
        period=period,
        epsilon=epsilon,
        precondition=precondition,
        warnings=tuple(warnings),
        reason=reason,
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
    return _solve_core(T, cert, x0, cfg, space)


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
    return _solve_core(T, None, x0, cfg, space)


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
    admissible interval ``(||x0 - T x0, u|| / (b+1-theta), r)`` (r itself
    when that midpoint underflows to 0); every iterate is checked for
    membership in that ball and in ``cfg.domain``, and an exit from either is
    reported as LeftDomain. The precondition is tested inside the one solve
    loop, on the ``T x0`` it evaluates anyway.
    """
    if not r > 0:
        raise ValueError(f"ball radius must be positive, got {r}")
    return _solve_core(T, cert, x0, cfg, space, local=(u, r))


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
    diagnostic, no x_star and its own reason in place of the loop's.
    """
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    TN = iterated(T, N)
    report = _solve_core(TN, cert, x0, cfg, space)
    if report.status == SolveStatus.CONVERGED and report.x_star is not None:
        wset = cfg.witness_set(space)
        t_res = witness_residual(space, wset, T.apply(report.x_star), report.x_star)
        if t_res > cfg.tol:
            report = replace(
                report,
                status=SolveStatus.MAX_ITER,
                x_star=None,
                reason=_unmet(report.iterations),
                warnings=report.warnings
                + (
                    f"fixed point of the {N}-th iterate is not fixed by the map "
                    f"itself: residual {t_res!r} exceeds tol {cfg.tol!r}",
                ),
            )
    return report
