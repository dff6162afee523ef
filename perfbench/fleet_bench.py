"""The fleet_mix workload: a ``tia-serve`` daemon driven closed-loop.

Set-up builds a store, pre-warms it in process with a fixed pool of
small generated routines (through the same ``ScheduleService`` the
daemon serves from), and starts ``tia-serve --listen --workers 2`` as a
child process.  Two ``FleetClient`` connections then send in lockstep,
each waiting for its reply before the next request (callers such as
build jobs wait too), a fixed number of cycles of a fixed mix of

* reads: byte-identical resubmissions of pool routines (exact hits),
* profile variants: a pool routine with only ``base_freq`` changed
  (family warm starts),
* writes: first-seen routines (misses: a cold solve and a store put).

The daemon is drained with SIGTERM at the end; it must exit 0 and
unlink its socket.  The pool's compile metrics come from the pre-warm.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from repro.ir.parser import parse_functions
from repro.ir.printer import format_function
from repro.obs import core as obs
from repro.obs.journal import read_records
from repro.sched.scheduler import ScheduleFeatures
from repro.serve.client import ClientError, FleetClient, RetryPolicy
from repro.serve.service import ScheduleService
from repro.serve.store import ScheduleStore
from repro.workloads.generator import RoutineSpec, generate_routine

import compile_bench
import spans

SERVE_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "serve_child.py")
WORKERS = 2
CLIENTS = 2  # one per core: all load comes from this process
SETUP_REPEATS = 3
POOL = tuple(
    RoutineSpec(
        name=f"pool{i}", instructions=16 + (5 * i) % 15, blocks=3 + i % 4,
        loops=i % 2, seed=500 + i,
    )
    for i in range(16)
)
# Both clients cycle through this fixed order in lockstep: 3/4 exact-hit
# reads, 1/8 profile variants, 1/8 first-seen writes.  Each request
# starts when the other client's request of the same step has been
# answered, so reads overlap reads and cold solves overlap cold solves
# in every run.  Free-running clients drift in and out of phase, and
# whether a read overlaps the other worker's cold solve (and waits for
# the interpreter lock) then moved the median latency by up to 40%
# between runs of the same code.
DECK = ("read", "read", "read", "variant", "read", "read", "read", "write")
# What ``tia-serve`` schedules with when started without feature flags;
# the pre-warm must use the same features or no read would hit.
FLEET_FEATURES = ScheduleFeatures(time_limit=120.0)
SIM_INVOCATIONS = 30
# Deck cycles per client per second of ``--seconds``: about the rate
# the two clients reach on the 2-core host the benchmark was written on.
CYCLES_PER_S = 0.9
READY_TIMEOUT_S = 60.0
# Longer than a client's read timeout, so a step breaks only when the
# other client is gone, never while its request is still being served.
STEP_TIMEOUT_S = RetryPolicy().read_timeout + 10.0
DRAIN_TIMEOUT_S = 60.0


class Daemon:
    """One ``tia-serve`` child process on a Unix socket in ``work``."""

    def __init__(self, work, tag, store_dir, traced):
        self.store_dir = store_dir
        self.sock = os.path.join(work, f"{tag}.sock")
        self.journal = os.path.join(work, f"{tag}.journal")
        self.spans_out = os.path.join(work, f"{tag}.spans.jsonl")
        self.metrics_out = os.path.join(work, f"{tag}.metrics.json")
        cmd = [
            sys.executable, SERVE_CHILD, self.spans_out,
            "--cache", store_dir, "--listen", self.sock,
            "--workers", str(WORKERS),
        ]
        env = dict(os.environ)
        if traced:
            # Telemetry only in the traced run: the timed run measures
            # the daemon with every observability switch off.
            cmd += ["--journal", self.journal, "--metrics", self.metrics_out]
            env["REPRO_OBS"] = "1"
        self._log = open(os.path.join(work, f"{tag}.log"), "wb")
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=self._log, stderr=self._log
        )
        self.client = FleetClient([self.sock], policy=RetryPolicy(max_rounds=1))

    def wait_ready(self):
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"tia-serve exited with {self.proc.returncode}")
            try:
                self.client.health(deadline_ms=500)
                return
            except ClientError:
                time.sleep(0.02)
        raise RuntimeError("tia-serve did not become ready")

    def stop(self):
        """SIGTERM, then reap; ``{"rc", "socket_unlinked", "peak_rss_mb"}``."""
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._log.close()
        return {
            "rc": self.proc.returncode,
            "socket_unlinked": not os.path.exists(self.sock),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }


def _prewarm(store_dir, texts):
    """Compile the pool into a fresh store; ``(wall, times, results)``."""
    service = ScheduleService(
        ScheduleStore(store_dir), default_features=FLEET_FEATURES
    )
    times, results = [], []
    started = time.perf_counter()
    for text in texts:
        fn = parse_functions(text)[0]
        t0 = time.perf_counter()
        results.append(service.request(fn).result)
        times.append(time.perf_counter() - t0)
    return time.perf_counter() - started, times, results


def _setup(work, tag, started):
    """Generate the pool, pre-warm a store and start a daemon on it."""
    t0 = time.perf_counter()
    with obs.span("bench.generate", workload="fleet_mix"):
        texts = [format_function(generate_routine(spec)) for spec in POOL]
    store_dir = os.path.join(work, f"{tag}.store")
    prewarm = _prewarm(store_dir, texts)
    daemon = Daemon(work, tag, store_dir, traced=False)
    started.append(daemon)
    daemon.wait_ready()
    return time.perf_counter() - t0, texts, prewarm, daemon


def _write_spec(index):
    """The index-th first-seen routine.  Every run sends the same write
    stream in the same order, because the cost of a cold solve varies
    from 0.1 s to several seconds between small routines: a seeded draw
    of writes would move throughput more than any bound could allow."""
    return RoutineSpec(
        name=f"write{index}", instructions=16 + (7 * index) % 15,
        blocks=3 + index % 4, loops=index % 2, seed=10_000 + index,
    )


def deck_cycles(seconds):
    """Deck cycles each client sends in a run of ``seconds``.  The count
    is fixed by ``seconds``, so every run sends the same requests in the
    same order and two runs differ only in how fast they were served."""
    return max(1, round(CYCLES_PER_S * seconds))


def _session(daemon, texts, seed, cycles, tag):
    """Closed-loop load, ``cycles`` deck cycles per client in lockstep:
    ``(started, samples)``, one sample dict per request."""
    pool_text = {spec.name: text for spec, text in zip(POOL, texts)}
    first_reply = {}
    samples = []
    errors = []
    lock = threading.Lock()
    step = threading.Barrier(CLIENTS)

    def next_text(op, index, rng, shuffled):
        # Each kind of request walks the pool in seeded shuffles, so the
        # seed changes the order of the pool routines, not how often each
        # one is sent.
        if not shuffled[op]:
            shuffled[op] = rng.sample(POOL, len(POOL))
        spec = shuffled[op].pop()
        if op == "read":
            return pool_text[spec.name]
        if op == "variant":
            # A base frequency no earlier request used keeps it first-seen.
            spec = dataclasses.replace(
                spec, base_freq=spec.base_freq + 0.5 * (index + 1)
            )
        else:
            spec = _write_spec(index)
        with obs.span("bench.generate", op=op):
            return format_function(generate_routine(spec))

    def send(client, op, text, request_id):
        sample = {"op": op, "id": request_id, "ok": False}
        t0 = time.perf_counter()
        try:
            with obs.span("bench.client_solve", op=op):
                reply = client.solve(text, request_id=request_id)
        except ClientError as exc:
            sample["error"] = str(exc)
        else:
            sample.update(
                ok=True,
                kind=reply.results[0]["kind"],
                coalesced=bool(reply.results[0].get("coalesced")),
            )
            with lock:
                first = first_reply.setdefault(text, reply.text)
            if first != reply.text:
                sample.update(
                    ok=False, error="reply differs from the first reply "
                    "for the same routine text",
                )
        sample["end"] = time.perf_counter()
        sample["latency_s"] = sample["end"] - t0
        return sample

    def client_loop(client_no):
        rng = random.Random(f"{seed}/{tag}/{client_no}")
        shuffled = {op: [] for op in DECK}
        client = FleetClient([daemon.sock], policy=RetryPolicy(max_rounds=1))
        try:
            for k in range(cycles * len(DECK)):
                op = DECK[k % len(DECK)]
                # Variant and write numbers interleave the clients, so
                # each client sends the same routines in every run.
                index = (k // len(DECK)) * CLIENTS + client_no
                text = next_text(op, index, rng, shuffled)
                step.wait(timeout=STEP_TIMEOUT_S)
                sample = send(client, op, text, f"{tag}-{client_no}-{k}")
                with lock:
                    samples.append(sample)
        except BaseException as exc:  # the other client must not wait on
            step.abort()  # a step this one will never reach
            if not isinstance(exc, threading.BrokenBarrierError):
                errors.append(exc)

    threads = [
        threading.Thread(target=client_loop, args=(c,)) for c in range(CLIENTS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors or step.broken:
        raise RuntimeError(f"fleet client stopped: {errors or 'step broken'}")
    return started, samples


def _load_metrics(samples, started):
    """Closed-loop throughput and latency over the whole session."""
    ok = [s for s in samples if s["ok"]]
    elapsed = max(s["end"] for s in samples) - started
    latencies = [s["latency_s"] for s in ok]
    latency_tail, tail_pct, count = spans.tail(latencies)
    return {
        "req_per_s": len(ok) / elapsed,
        "latency_p50_ms": 1000.0 * spans.median(latencies),
        "latency_tail_ms": 1000.0 * latency_tail,
    }, {"percentile": tail_pct, "samples": count}


def _latency_by_op(samples):
    """Latency quantiles (ms) per request kind, for the record."""
    by_op = {}
    for s in samples:
        if s["ok"]:
            by_op.setdefault(s["op"], []).append(1000.0 * s["latency_s"])
    return {
        op: {"n": len(v), "quartiles_ms": statistics.quantiles(v, n=4)}
        for op, v in by_op.items() if len(v) > 1
    }


def _ms_p50(values):
    return 1000.0 * spans.median(values)


def _serve_layers(samples, daemon, store_stats):
    """Per-layer serving metrics from replies, journal and span dump."""
    ok = [s for s in samples if s["ok"]]
    by_kind = {}
    for s in ok:
        by_kind.setdefault(s["kind"], []).append(s["latency_s"])
    journal = {
        r.get("request_id"): r.get("timings", {})
        for r in read_records(daemon.journal, kinds=["request"])
        if r.get("outcome") == "ok"
    }
    timings = [journal[s["id"]] for s in ok if s["id"] in journal]
    span_ms = {}
    if os.path.exists(daemon.spans_out):
        with open(daemon.spans_out) as handle:
            for line in handle:
                ev = json.loads(line)
                if ev.get("type") == "span":
                    span_ms.setdefault(ev["name"], []).append(ev["dur"])
    n = len(ok) or 1
    return {
        "serve.exact_frac": len(by_kind.get("exact", [])) / n,
        "serve.family_frac": len(by_kind.get("family", [])) / n,
        "serve.miss_frac": len(by_kind.get("miss", [])) / n,
        "serve.coalesced": sum(s["coalesced"] for s in ok),
        "serve.exact_ms_p50": _ms_p50(by_kind.get("exact", [])),
        "serve.family_ms_p50": _ms_p50(by_kind.get("family", [])),
        "serve.miss_ms_p50": _ms_p50(by_kind.get("miss", [])),
        "serve.fleet.queue_wait_ms_p50": _ms_p50(
            [t["queue_wait"] for t in timings]
        ),
        "serve.service.solve_ms_p50": _ms_p50([t["solve"] for t in timings]),
        "serve.fleet.overhead_ms_p50": _ms_p50(
            [t["total"] - t["solve"] - t["queue_wait"] for t in timings]
        ),
        "serve.protocol.client_overhead_ms_p50": _ms_p50([
            s["latency_s"] - journal[s["id"]]["total"]
            for s in ok if s["id"] in journal
        ]),
        "serve.lookup_ms": _ms_p50(span_ms.get("serve.lookup", [])),
        "serve.revalidate_ms": _ms_p50(span_ms.get("serve.revalidate", [])),
        "serve.store_ms": _ms_p50(span_ms.get("serve.store", [])),
        "serve.store.entries": store_stats.get("entries", 0),
        "serve.store.bytes": store_stats.get("bytes", 0),
    }


def _drain(daemon):
    """Stats probe, then SIGTERM; the daemon's side of the record."""
    stats = daemon.client.fleet_stats().get(daemon.sock) or {}
    shutdown = daemon.stop()
    return {**shutdown, "counters": stats.get("counters", {}),
            "store": stats.get("store", {})}


def _failures(samples):
    failures = {}
    for s in samples:
        if not s["ok"]:
            failures[s["id"]] = [f"{s['op']}: {s.get('error', 'failed')}"]
    return failures


def run(seed, seconds, trace, import_s):
    work = os.path.join(".bench_build", "perfbench", f"fleet-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    started = []
    try:
        return _run(work, seed, seconds, trace, import_s, started)
    finally:
        for daemon in started:  # only left running if the run failed
            if daemon.proc.poll() is None:
                daemon.proc.kill()
                daemon.proc.wait()
        shutil.rmtree(work, ignore_errors=True)


def _run(work, seed, seconds, trace, import_s, started):
    record = {"workload": "fleet_mix", "notes": []}
    shutdowns, setups, prewarms = [], [], []
    compile_bench.warm_up(FLEET_FEATURES)
    for k in range(1 if trace else SETUP_REPEATS):
        if k:
            shutdowns.append(_drain(daemon))  # the previous set-up's daemon
        elapsed, texts, prewarm, daemon = _setup(work, f"d{k}", started)
        setups.append(elapsed)
        prewarms.append(prewarm)
    if trace:
        # The traced session gets its own copy of the pre-warmed store,
        # so its writes are first-seen too.
        shutil.copytree(daemon.store_dir, os.path.join(work, "t.store"))
    cycles = deck_cycles(seconds)
    started_at, samples = _session(daemon, texts, seed, cycles, "u")
    untraced = _drain(daemon)
    shutdowns.append(untraced)
    load, tail_info = _load_metrics(samples, started_at)
    record["latency_by_op"] = _latency_by_op(samples)
    routines = [
        compile_bench.Routine(spec.name, None, spec.miss_rate) for spec in POOL
    ]
    rows, pool_failures, oracle_seeds = compile_bench.evaluate(
        routines, prewarms[-1][2], seed, SIM_INVOCATIONS
    )
    if trace:
        daemon = Daemon(work, "t", os.path.join(work, "t.store"), traced=True)
        started.append(daemon)
        daemon.wait_ready()
        obs.enable()
        try:
            t_started, t_samples = _session(daemon, texts, seed, cycles, "t")
            events = obs.snapshot()["events"]
        finally:
            obs.disable()
        traced = _drain(daemon)
        shutdowns.append(traced)
        with open(daemon.metrics_out) as handle:
            record["daemon_metrics"] = json.load(handle)["counters"]
        tree = spans.SpanTree(events)
        record["client_layers"] = tree.layer_table(
            [i for i in tree.spans if i not in tree.parent]
        )
        metrics = {
            **_serve_layers(t_samples, daemon, traced["store"]),
            **compile_bench.perf_layers(rows),
            "obs.overhead_ratio": load["req_per_s"]
            / _load_metrics(t_samples, t_started)[0]["req_per_s"],
        }
        samples = samples + t_samples
    else:
        compile_times = [t for p in prewarms for t in p[1]]
        routine_tail, _pct, _n = spans.tail(compile_times)
        metrics = {
            "setup_s": import_s + spans.median(setups),
            "compile_s": spans.median([p[0] for p in prewarms]),
            "routine_p50_s": spans.median(compile_times),
            "routine_tail_s": routine_tail,
            **compile_bench.quality_metrics(rows, len(POOL)),
            **load,
            "peak_rss_mb": untraced["peak_rss_mb"],
        }
        record.update(import_s=import_s, setup_runs_s=setups, tail=tail_info,
                      routine_times_s=[p[1] for p in prewarms])
    failures = {**pool_failures, **_failures(samples)}
    clean = all(d["rc"] == 0 and d["socket_unlinked"] for d in shutdowns)
    if not clean:
        record["notes"].append(f"daemon shutdown not clean: {shutdowns}")
    ops = {}
    for s in samples:
        ops[s["op"]] = ops.get(s["op"], 0) + 1
    record["notes"].append(
        f"requests {ops}; daemon peak RSS {untraced['peak_rss_mb']:.1f} MB; "
        f"daemon counters {untraced['counters']}; store {untraced['store']}"
    )
    record.update(
        metrics=metrics,
        correct=clean,
        features=compile_bench.features_record(FLEET_FEATURES),
        routines=rows,
        failures=failures,
        oracle_seeds=list(oracle_seeds),
        daemons=shutdowns,
        attempted=len(samples) + len(POOL),
        failed=len(failures),
    )
    return record
