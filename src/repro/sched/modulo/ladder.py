"""The deadline-aware II search ladder.

Modulo scheduling's outer loop: starting at ``MII = max(ResMII,
RecMII)``, try successive initiation intervals until a kernel exists,
then materialize it and *prove it by execution*.  Every ladder has a
floor — this module never raises for a loop it cannot pipeline; it
reports a structured :class:`LoopPipelineOutcome` instead, mirroring
the §8 contract of the surrounding scheduler (``optimize`` stays
no-raise with SWP enabled).

The rungs, in degradation order:

1. **Modulo ILP** (:func:`modulo_schedule` over
   :mod:`repro.sched.modulo.formulation`): for each candidate II from
   MII upward the remaining ladder budget is split evenly over the
   remaining rungs, so an early II that is *almost* feasible cannot
   starve the rest of the climb; either backend solves the model.  The
   first feasible II is optimal, so one exact model per II is the whole
   search.
2. **Unpipelined**: the loop stays as the acyclic scheduler left it.

Materialization sits behind the ``swp.materialize`` fault site: any
injected kind fails the kernel's code generation, which must demote the
outcome to the floor — chaos runs assert the degradation.  Every
materialized routine must pass the kernel-vs-unrolled oracle
(:mod:`repro.sched.modulo.oracle`) before it is reported; an oracle
failure discards the routine and leaves the loop unpipelined.

Kernel schedules are cached in the serve store under a ``kind="loop"``
fingerprint (:func:`repro.serve.fingerprint.loop_fingerprint`): a hit
skips the ILP entirely — materialization and the oracle still run, so
a stale or corrupt entry degrades to a live solve, never to bad code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.ilp import solve_model
from repro.machine.itanium2 import ITANIUM2
from repro.obs import core as obs
from repro.sched.modulo.bounds import recurrence_mii, resource_mii
from repro.sched.modulo.formulation import ModuloIlp
from repro.sched.modulo.oracle import kernel_vs_unrolled
from repro.sched.swp import (
    ModuloSchedule,
    body_instructions,
    build_modulo_edges,
)
from repro.sched.swp_materialize import (
    materialize_counted_loop,
    recognize_counted_loop,
)
from repro.tools import faults
from repro.tools.deadline import Deadline

#: Minimum per-rung solver budget: below this a solve cannot even build
#: the matrix, so the split floors here instead of shaving to nothing.
_RUNG_FLOOR = 0.05


@dataclass
class LoopPipelineOutcome:
    """One loop's trip through the ladder (never an exception)."""

    loop_header: str
    status: str  # "pipelined" | "unpipelined"
    ii: int | None = None
    stages: int = 0
    mii_resource: int = 0
    mii_recurrence: int = 0
    oracle: object = None  # OracleReport when a kernel was executed
    cache: str = "off"  # "hit" | "miss" | "off"
    fallback_reason: str | None = None
    pipelined_fn: object = None  # materialized Function (None = unpipelined)
    solve_seconds: float = 0.0
    detail: dict = field(default_factory=dict)

    @property
    def mii(self):
        return max(self.mii_resource, self.mii_recurrence, 1)

    @property
    def pipelined(self):
        return self.pipelined_fn is not None

    def summary(self):
        """One report line, greppable by the smoke jobs."""
        if self.pipelined:
            oracle = "passed" if self.oracle and self.oracle.ok else "FAILED"
            return (
                f"swp {self.loop_header}: pipelined II={self.ii} "
                f"(ResMII {self.mii_resource}, RecMII {self.mii_recurrence}), "
                f"stages {self.stages}, oracle {oracle}"
            )
        return (
            f"swp {self.loop_header}: unpipelined "
            f"({self.fallback_reason or 'out of scope'})"
        )


def pipeline_loop(
    fn,
    cfg,
    ddg,
    loop,
    machine=ITANIUM2,
    backend="highs",
    deadline=None,
    max_ii=32,
    max_stages=4,
    time_limit=10.0,
    solve_extra=None,
    features=None,
    store=None,
    oracle_seeds=(0, 1, 2),
    trace=None,
):
    """Run the full ladder for one loop; returns a LoopPipelineOutcome.

    ``deadline`` is the routine's shared wall clock (the ladder only
    ever spends its *remaining* budget); ``time_limit`` additionally
    caps what this one loop may consume.  ``features`` + ``store``
    enable the ``kind="loop"`` cache; both optional.  ``solve_extra``
    passes backend kwargs (``heuristic_effort``) through to every rung-1
    solve.
    """
    deadline = deadline if deadline is not None else Deadline(None)
    outcome = LoopPipelineOutcome(loop_header=loop.header,
                                  status="unpipelined")
    started = deadline.elapsed()

    counted = recognize_counted_loop(fn, loop)
    if counted is None:
        return _finish(outcome, "not_counted", deadline, started)
    try:
        body = body_instructions(fn, loop)
    except SchedulingError as exc:
        outcome.detail["scope"] = str(exc)
        return _finish(outcome, "scope", deadline, started)

    # -- rung 0: the kind="loop" cache ---------------------------------------
    cache_key = None
    cached_starts = None
    if store is not None and features is not None:
        cache_key, cached_starts = _cache_probe(
            store, fn, loop, features, machine, body, outcome
        )

    if cached_starts is not None:
        edges = build_modulo_edges(fn, loop, body, ddg)
        _record_bounds(body, edges, machine, outcome)
        msched = _schedule(loop, outcome.ii, cached_starts, outcome)
        produced = _materialize_and_check(
            fn, cfg, ddg, loop, msched, counted, oracle_seeds, outcome, trace
        )
        if produced is not None:
            outcome.status = "pipelined"
            return _finish(outcome, None, deadline, started,
                           produced=produced)
        # A cached kernel that fails to materialize or execute is stale:
        # drop to a live solve (and republish on success).
        outcome.detail["cache_discarded"] = True
        outcome.oracle = None
        outcome.ii = None

    # -- rung 1: the modulo ILP ladder ---------------------------------------
    msched = modulo_schedule(
        fn, ddg, loop, machine=machine, backend=backend, max_ii=max_ii,
        max_stages=max_stages, time_limit=time_limit, deadline=deadline,
        solve_extra=solve_extra, trace=trace, outcome=outcome,
    )
    if msched is not None:
        produced = _materialize_and_check(
            fn, cfg, ddg, loop, msched, counted, oracle_seeds, outcome, trace
        )
        if produced is not None:
            outcome.status = "pipelined"
            if cache_key is not None:
                _cache_publish(store, cache_key, fn, loop, body, msched)
            return _finish(outcome, None, deadline, started,
                           produced=produced)

    # -- the floor: unpipelined ----------------------------------------------
    return _finish(outcome, "no_feasible_ii", deadline, started)


def modulo_schedule(
    fn,
    ddg,
    loop,
    machine=ITANIUM2,
    backend="highs",
    max_ii=32,
    max_stages=4,
    time_limit=10.0,
    deadline=None,
    solve_extra=None,
    trace=None,
    outcome=None,
):
    """Optimal modulo schedule of a single-block loop (the rung-1 search).

    Takes the loop body and its distance-annotated dependences, computes
    ``MII = max(ResMII, RecMII)``, then climbs II from MII to ``max_ii``
    with one :class:`ModuloIlp` per candidate; the first feasible II is
    optimal.  ``time_limit`` bounds the whole climb and ``deadline`` (a
    shared routine clock) may cut it shorter.

    Returns a :class:`ModuloSchedule`, or ``None`` when no II admits a
    kernel within ``max_stages`` stages or the budget ran out.  Raises
    :class:`SchedulingError` for loops outside the pipelining scope
    (:func:`repro.sched.swp.body_instructions`).  ``outcome``, a
    :class:`LoopPipelineOutcome`, receives the bounds, the per-II
    attempt log and the reason for a ``None``.
    """
    deadline = deadline if deadline is not None else Deadline(None)
    if outcome is None:
        outcome = LoopPipelineOutcome(loop_header=loop.header,
                                      status="unpipelined")
    body = body_instructions(fn, loop)
    edges = build_modulo_edges(fn, loop, body, ddg)
    _record_bounds(body, edges, machine, outcome)
    extra = solve_extra or {}
    ladder_clock = Deadline(time_limit)
    rungs = range(outcome.mii, max(max_ii, outcome.mii) + 1)
    attempts = outcome.detail["rungs"] = []
    with _span(trace, "swp.ladder", loop=loop.header, mii=outcome.mii):
        for at, ii in enumerate(rungs):
            budget = _rung_budget(deadline, ladder_clock, len(rungs) - at)
            if budget is not None and budget <= 0:
                outcome.fallback_reason = "deadline"
                attempts.append({"ii": ii, "status": "skipped",
                                 "reason": "deadline"})
                return None
            milp = ModuloIlp(body, edges, ii, machine=machine,
                             max_stages=max_stages)
            with _span(trace, "swp.solve_ii", ii=ii) as span:
                solution = solve_model(
                    milp.model,
                    backend=backend,
                    deadline=deadline,
                    time_limit=budget,
                    **extra,
                )
                if span is not None:
                    span.set_attr("status", solution.status.name)
            attempt = {
                "ii": ii,
                "status": solution.status.name,
                "seconds": round(solution.stats.time_seconds, 4),
                **milp.size,
            }
            attempts.append(attempt)
            if solution:
                starts = milp.start_times(solution)
                if starts is not None:
                    outcome.ii = ii
                    return _schedule(loop, ii, starts, outcome,
                                     solution.stats)
                attempt["status"] = "CORRUPT"
    outcome.fallback_reason = (
        "deadline" if deadline.expired or ladder_clock.expired
        else "no_feasible_ii"
    )
    return None


# -- ladder internals ---------------------------------------------------------
def _record_bounds(body, edges, machine, outcome):
    """ResMII, RecMII and the model's input sizes, onto ``outcome``."""
    outcome.mii_resource = resource_mii(body, machine)
    outcome.mii_recurrence = recurrence_mii(body, edges)
    outcome.detail["body_instructions"] = len(body)
    outcome.detail["edges"] = len(edges)


def _rung_budget(deadline, ladder_clock, rungs_left):
    """Even split of the tighter remaining budget over the rungs left."""
    remaining = [
        r for r in (deadline.remaining(), ladder_clock.remaining())
        if r is not None
    ]
    if not remaining:
        return None
    tightest = min(remaining)
    if tightest <= 0:
        return 0.0
    return max(tightest / max(rungs_left, 1), _RUNG_FLOOR)


def _schedule(loop, ii, starts, outcome, stats=None):
    stages = 1 + max((t // ii for t in starts.values()), default=0)
    return ModuloSchedule(
        loop_header=loop.header,
        ii=ii,
        start_times=starts,
        stages=stages,
        mii_resource=outcome.mii_resource,
        mii_recurrence=outcome.mii_recurrence,
        solver_stats=stats,
    )


def _materialize_and_check(fn, cfg, ddg, loop, msched, counted, oracle_seeds,
                           outcome, trace):
    """Materialize + oracle one kernel; None (and a reason) on failure."""
    outcome.ii = msched.ii
    outcome.stages = msched.stages
    injected = faults.fire("swp.materialize")
    if injected is not None:
        outcome.fallback_reason = "materialize"
        outcome.detail["materialize_fault"] = injected
        return None
    with _span(trace, "swp.materialize", loop=loop.header, ii=msched.ii):
        try:
            produced = materialize_counted_loop(
                fn, cfg, ddg, loop, msched, counted=counted
            )
        except Exception as exc:  # codegen must never escape the ladder
            outcome.fallback_reason = "materialize"
            outcome.detail["materialize_error"] = (
                f"{type(exc).__name__}: {exc}"
            )
            return None
    if produced is None:
        outcome.fallback_reason = (
            "no_overlap" if msched.stages < 2 else "materialize"
        )
        return None
    with _span(trace, "swp.oracle", loop=loop.header):
        report = kernel_vs_unrolled(fn, produced, seeds=oracle_seeds)
    outcome.oracle = report
    if obs.ENABLED:
        obs.counter("swp_oracle_total", 1,
                    result="pass" if report.ok else "fail")
    if not report.ok:
        outcome.fallback_reason = "oracle"
        outcome.detail["oracle_problems"] = report.problems[:4]
        return None
    return produced


# -- cache --------------------------------------------------------------------
def _cache_probe(store, fn, loop, features, machine, body, outcome):
    """Look up a cached kernel; returns (key, starts or None)."""
    from repro.serve.fingerprint import CODE_VERSION, loop_fingerprint

    try:
        key = loop_fingerprint(fn, loop.header, features, machine)
    except Exception:
        return None, None
    header = store.load_header(key)
    starts = None
    if (
        header
        and header.get("code_version") == CODE_VERSION
        and header.get("kind") == "loop"
    ):
        raw = header.get("starts")
        ii = header.get("ii")
        if (
            isinstance(raw, dict)
            and isinstance(ii, int)
            and ii >= 1
            and len(raw) == len(body)
        ):
            try:
                decoded = {
                    body[int(pos)]: int(start)
                    for pos, start in raw.items()
                }
            except (ValueError, IndexError, TypeError):
                decoded = None
            if decoded is not None and all(t >= 0 for t in decoded.values()):
                starts = decoded
                outcome.ii = ii
    outcome.cache = "hit" if starts is not None else "miss"
    if obs.ENABLED:
        if starts is not None:
            obs.counter("swp_cache_hits_total")
        else:
            obs.counter("swp_cache_misses_total")
    return key, starts


def _cache_publish(store, key, fn, loop, body, msched):
    """Publish a proven kernel under its kind="loop" fingerprint."""
    from repro.serve.fingerprint import CODE_VERSION

    position = {instr: at for at, instr in enumerate(body)}
    starts = {
        str(position[instr]): int(start)
        for instr, start in msched.start_times.items()
        if instr in position
    }
    meta = {
        "code_version": CODE_VERSION,
        "kind": "loop",
        "routine": fn.name,
        "loop": loop.header,
        "ii": msched.ii,
        "stages": msched.stages,
        "mii_resource": msched.mii_resource,
        "mii_recurrence": msched.mii_recurrence,
        "starts": starts,
    }
    payload = json.dumps({"ii": msched.ii, "starts": starts}).encode("utf-8")
    try:
        store.put(key, "", payload, meta=meta)
    except OSError:
        pass  # a failed cache fill is never a loop failure


# -- bookkeeping --------------------------------------------------------------
def _finish(outcome, reason, deadline, started, produced=None):
    if reason is not None and outcome.fallback_reason is None:
        outcome.fallback_reason = reason
    if produced is not None:
        outcome.pipelined_fn = produced
    outcome.solve_seconds = max(deadline.elapsed() - started, 0.0)
    if obs.ENABLED:
        obs.counter("swp_loops_total", 1, status=outcome.status)
        if not outcome.pipelined and outcome.fallback_reason:
            obs.counter("swp_fallbacks_total", 1,
                        reason=outcome.fallback_reason)
        if outcome.pipelined and outcome.ii:
            obs.histogram("swp_ii_over_mii", outcome.ii / outcome.mii)
            if outcome.ii == outcome.mii:
                obs.counter("swp_ii_at_mii_total")
    return outcome


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def _span(trace, name, **attrs):
    if trace is None:
        return _NullSpan()
    return trace.span(name, **attrs)
