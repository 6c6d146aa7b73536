"""The workloads: closed-loop replays and open-loop servers.

Everything here drives ``repro`` through its public API only
(``IVMEngine``, ``AsyncIVMServer``) with the defaults of
``python -m repro stats`` / ``python -m repro serve``: the planner picks
the plan, codegen is on, snapshot reads are automatic, and a
``MaintenanceStats`` recorder is attached the way the CLI attaches it.

A *replay* run repeats a fixed pass until ``--seconds`` are used up: a
fresh engine over the prefill (the set-up, timed), then the pass's update
stream through ``apply_batch`` in batches, point lookups after each batch
and, for Retailer, a full drain every few batches.  Every pass does
identical work, so a run is several samples of one thing.

A *serve* run sets the server up five times (the set-up sample), then
offers writes on a fixed schedule and point lookups at a fixed rate, both
as asyncio tasks of this one process, for ``--seconds``; every request is
timed from when it was due.  The writer builds each update when it is
due, so the run never holds its whole stream.

CPU-bound figures are scaled to a reference host speed with calibration
bursts taken on the working thread (see :class:`host.Calibrator`); the
open-loop serve latencies are plain wall-clock times.  A replay reports
the median over its passes of each pass's latency percentile.  Latencies
are reported at p50 and p90: their p99 rides on interpreter-lock
hand-offs and shard-worker wake-ups, and moved by up to 30% between two
sets of runs of the same code on a shared host, beyond any usable bound.
"""

from __future__ import annotations

import asyncio
import gc
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from . import gen
from .host import Calibrator, children_peak_mb, median, own_peak_mb, percentile
from .layers import attach_engine, attach_library, layer_metrics
from .trace import Tracer

_perf = time.perf_counter

#: Offered write rate of the serve workloads (updates per second).  It sits
#: above what the default path sustained when this benchmark was written
#: (about 3-7k upd/s on a 2-vCPU host, where every commit pays an
#: O(output) change diff) and well below what the same server sustains
#: without change tracking (40k upd/s offered is absorbed in full), so a fix
#: shows as time-to-visible collapsing from seconds to milliseconds.
SERVE_WRITE_RATE = 20_000
#: Open-loop point-lookup rate of the serve workloads (lookups per second).
#: A lookup costs about 23 us on the loop thread (traced
#: ``serve.lookup_us_p50``), so 1,000 a second take about 2% of a core, and
#: the writer wakes the loop 20k times a second anyway.  Offered from 250
#: to 4,000 lookups a second (three seeds each, 20 s runs, 2-vCPU Xeon
#: host), the median ``upd_s`` stayed within 2% and ``visible_ms_p50``
#: within its run-to-run spread; ``read_us_p50`` fell from 4.8 ms at 250/s
#: to a flat 3.3-3.4 ms from 1,000/s up.  1,000 is the lowest rate on that
#: flat stretch and gives 20k read samples per 20 s run.
SERVE_READ_RATE = 1_000
#: Server settings: the defaults of ``python -m repro serve``.
SERVE_SETTINGS = {"max_batch": 256, "max_delay": 0.002, "high_water": 4096}
#: Set-ups per serve run; the median is reported as ``setup_s``.
SERVE_SETUPS = 5
#: The commit thread takes a calibration burst (well under 1 ms, shorter
#: than the interpreter's 5 ms switch interval) at most this often.
CALIBRATE_EVERY_S = 0.05


@dataclass
class Workload:
    name: str
    kind: str  # "replay" or "serve"
    shape: dict  # generator parameters, echoed into every result
    make_inputs: object
    #: "naive" compares with repro.naive.evaluate, "rebuild" with a
    #: from-scratch IVMEngine (the naive Retailer join is far too slow).
    oracle: str = "naive"
    engine_kwargs: dict = field(default_factory=dict)
    batch: int = 1000
    batches_per_pass: int = 40
    drain_every: int = 0
    lookups_per_batch: int = 32
    #: Set-ups per replay pass (all but the last closed at once): more
    #: samples for the median ``setup_s`` where a set-up is short.
    setups_per_pass: int = 1
    feed: bool = False
    #: Op counts are only meaningful where one thread does all the work.
    single_threaded: bool = False


WORKLOADS = {
    "retailer-replay": Workload(
        "retailer-replay", "replay", gen.RETAILER_SHAPE, gen.retailer_inputs,
        oracle="rebuild", drain_every=4, single_threaded=True,
    ),
    "serve-fanout": Workload(
        "serve-fanout", "serve", gen.FANOUT_SHAPE, gen.fanout_inputs,
    ),
    "serve-feed": Workload(
        "serve-feed", "serve", gen.FANOUT_SHAPE, gen.fanout_inputs, feed=True,
    ),
    # The first few lookups after each apply_batch wait on the workers'
    # wake-up and run 2-3x slower than the rest.  At 8 lookups a batch the
    # first one alone is 12.5% of the samples, so read_us_p90 sat on the
    # edge between the two groups and jumped between runs; at 64 that
    # warm-up is a few percent and the p90 is the steady round trip's tail.
    "sharded-replay": Workload(
        "sharded-replay", "replay", gen.FANOUT_SHAPE, gen.fanout_inputs,
        engine_kwargs={"shards": 2, "shard_executor": "process"},
        batches_per_pass=60, lookups_per_batch=64, setups_per_pass=4,
    ),
}


@dataclass
class Outcome:
    """What a run hands back to the reporter."""

    end_to_end: dict
    per_layer: dict
    attempted: int
    failed: int
    errors: list
    tracer: Tracer | None = None
    notes: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _database(schemas, tables):
    """A ``Database`` holding ``tables`` (relation -> key list or dict)."""
    from repro import Database

    db = Database()
    for name, columns in schemas.items():
        relation = db.create(name, columns)
        rows = tables[name]
        items = rows.items() if isinstance(rows, dict) else ((k, 1) for k in rows)
        for key, payload in items:
            relation.add(key, payload)
    return db


def _freeze() -> None:
    """Move the generated inputs out of the collector's sight.

    A served process does not hold a load generator's inputs; left
    tracked, they would make every full collection (and so every pause of
    the system under test) longer than its own state warrants.
    """
    gc.collect()
    gc.freeze()


def _updates(inputs, count: int) -> list:
    """The first ``count`` updates as ``Update`` objects, frozen."""
    from repro import Update

    updates = [Update(*update) for update in inputs.stream(count)]
    _freeze()
    return updates


def _clear_codegen_cache(tracer: Tracer | None) -> None:
    """Drop generated kernels so each set-up pays codegen as a fresh
    process would; a traced run lists the helper if it is gone."""
    try:
        from repro.viewtree.codegen import clear_shape_cache
    except ImportError as exc:
        if tracer is not None:
            tracer.missing("repro.viewtree.codegen:clear_shape_cache",
                           "core.setup", str(exc))
        return
    clear_shape_cache()


def _close(engine) -> None:
    close = getattr(engine.backend, "close", None)
    if close is not None:
        close()


def _finish(workload: Workload, inputs, count: int, engine, errors: list,
            extra: dict | None = None) -> float:
    """Close ``engine``, check it against an independent oracle and return
    the run's peak resident memory (MiB), taken before the check.

    The expected base relations come from the generator, not the engine.
    ``extra`` maps a label to another copy of the output that must agree
    (the change-feed subscriber's state).
    """
    from repro import IVMEngine, parse_query

    peak = own_peak_mb()
    got = dict(engine.enumerate())
    base = {name: dict(engine.database[name].items()) for name in inputs.schemas}
    _close(engine)
    peak += children_peak_mb()
    final = inputs.final_after(count)
    for name, expected in final.items():
        if base[name] != expected:
            errors.append(f"base relation {name} differs from the generator's")
    query = parse_query(workload.shape["query"])
    oracle_db = _database(inputs.schemas, final)
    if workload.oracle == "naive":
        from repro.naive import evaluate

        expected = dict(evaluate(query, oracle_db).items())
    else:
        expected = dict(IVMEngine(query, oracle_db).enumerate())
    for label, state in {"output": got, **(extra or {})}.items():
        if state != expected:
            errors.append(
                f"{label} differs from the oracle "
                f"({len(state)} vs {len(expected)} tuples)"
            )
    return peak


# ----------------------------------------------------------------------
# Replay (closed loop over apply_batch)
# ----------------------------------------------------------------------


@dataclass
class PassResult:
    #: Set-up times, each scaled by the calibration bursts around it.
    setup_s: list
    apply_s: list = field(default_factory=list)
    read_s: list = field(default_factory=list)
    enum_tuples: int = 0
    ops: int = 0
    updates: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: Host speed during the pass over the reference speed.
    factor: float = 1.0
    #: Slice of the tracer's span list this pass recorded.
    spans: tuple = (0, 0)
    #: The engine's recorder, as ``to_dict()``.
    recorder: dict | None = None


def _replay_pass(workload: Workload, inputs, updates, tracer: Tracer | None):
    """One pass; returns it and its engine, still open."""
    from repro import IVMEngine, parse_query
    from repro.data.opcounter import counting

    query = parse_query(workload.shape["query"])
    first_span = len(tracer.spans) if tracer is not None else 0
    if tracer is not None:
        attach_library(tracer)
    count_ops = tracer is not None and workload.single_threaded
    speed = Calibrator()
    result = PassResult([])
    engine = None
    for _ in range(workload.setups_per_pass):
        if engine is not None:
            _close(engine)
            engine = None
        db = _database(inputs.schemas, inputs.prefill)
        _clear_codegen_cache(tracer)
        # Every set-up and pass starts from a collected heap, so the
        # collector's pauses fall at the same points of each of them.
        gc.collect()
        speed.burst()
        start = _perf()
        with tracer.span("core.setup") if tracer is not None else nullcontext():
            engine = IVMEngine(query, db, **workload.engine_kwargs)
            engine.attach_stats()
            engine.lookup(inputs.lookups[0])
        elapsed = _perf() - start
        speed.burst()
        result.setup_s.append(elapsed * speed.factor_near(start + elapsed / 2))
    if tracer is not None:
        attach_engine(tracer, engine)
    lookups = inputs.lookups
    probe = 0
    size = workload.batch
    try:
        for number, offset in enumerate(range(0, len(updates), size), 1):
            batch = updates[offset:offset + size]
            result.attempted += len(batch)
            begin = _perf()
            try:
                if count_ops:
                    with counting() as ops:
                        engine.apply_batch(batch)
                    result.ops += ops.total()
                else:
                    engine.apply_batch(batch)
            except Exception as exc:  # counted and reported; the run fails
                result.failed += len(batch)
                result.errors.append(f"apply_batch: {exc!r}")
                continue
            result.apply_s.append(_perf() - begin)
            result.updates += len(batch)
            for _ in range(workload.lookups_per_batch):
                key = lookups[probe % len(lookups)]
                probe += 1
                result.attempted += 1
                begin = _perf()
                try:
                    engine.lookup(key)
                except Exception as exc:
                    result.failed += 1
                    result.errors.append(f"lookup: {exc!r}")
                    continue
                result.read_s.append(_perf() - begin)
            if workload.drain_every and number % workload.drain_every == 0:
                result.attempted += 1
                with tracer.span("viewtree.enum") if tracer is not None else nullcontext() as span:
                    tuples = sum(1 for _ in engine.enumerate())
                    if span is not None:
                        span[6] = tuples
                result.enum_tuples += tuples
            speed.burst()
    finally:
        if tracer is not None:
            tracer.detach()
    result.factor = speed.factor()
    result.spans = (first_span, len(tracer.spans) if tracer is not None else 0)
    result.recorder = engine.stats.to_dict()
    return result, engine


def run_replay(workload: Workload, seed: int, seconds: float,
               trace: bool) -> Outcome:
    inputs = workload.make_inputs(seed)
    updates = _updates(inputs, workload.batch * workload.batches_per_pass)
    tracer = Tracer() if trace else None
    # Traced runs alternate plain and traced passes (two of each, fixed
    # work): the overhead ratio compares like with like, and the two
    # traced passes must repeat each other's counts exactly.
    modes = ["plain", "traced", "plain", "traced"] if trace else None
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    deadline = _perf() + seconds
    while True:
        step = len(plain) + len(traced)
        mode = modes[step] if modes else "plain"
        result, engine = _replay_pass(
            workload, inputs, updates, tracer if mode == "traced" else None,
        )
        (traced if mode == "traced" else plain).append(result)
        if step + 1 == len(modes) if modes else _perf() >= deadline:
            peak = _finish(workload, inputs, len(updates), engine, result.errors)
            break
        _close(engine)
        engine = None  # not resident while the next pass builds its own
    everything = plain + traced
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    errors = [error for p in everything for error in p.errors]
    notes = {"shape": workload.shape, "pass": {
        "batch": workload.batch, "batches": workload.batches_per_pass,
        "drain_every": workload.drain_every,
        "lookups_per_batch": workload.lookups_per_batch,
    }}

    # Each pass's times are scaled by its own speed factor.
    def throughput(group):
        busy = sum(sum(p.apply_s) * p.factor for p in group)
        return sum(p.updates for p in group) / busy if busy else 0.0

    # Latency percentiles are taken per pass and their median reported, so
    # a host stall during one pass moves one sample, not the run's tail.
    def per_pass(times, scale, q):
        return median([
            percentile([t * p.factor * scale for t in times(p)], q) for p in plain
        ])

    if not trace:
        e2e = {
            "setup_s": median([s for p in plain for s in p.setup_s]),
            "upd_s": throughput(plain),
            "visible_ms_p50": per_pass(lambda p: p.apply_s, 1e3, 50),
            "visible_ms_p90": per_pass(lambda p: p.apply_s, 1e3, 90),
            "read_us_p50": per_pass(lambda p: p.read_s, 1e6, 50),
            "read_us_p90": per_pass(lambda p: p.read_s, 1e6, 90),
            "peak_rss_mb": peak,
        }
        notes.update({
            "passes": len(plain),
            "batches": sum(len(p.apply_s) for p in plain),
            "lookups": sum(len(p.read_s) for p in plain),
            "speed_factors": [round(p.factor, 4) for p in plain],
        })
        return Outcome(e2e, {}, attempted, failed, errors, notes=notes)

    layers = layer_metrics(
        tracer, [p.recorder for p in traced],
        sum(p.ops for p in traced), sum(p.updates for p in traced),
    )
    untraced, traced_rate = throughput(plain), throughput(traced)
    layers.update({
        "trace.upd_s_untraced": untraced,
        "trace.upd_s_traced": traced_rate,
        "trace.overhead_ratio": traced_rate / untraced if untraced else 0.0,
    })
    if workload.single_threaded:
        counts = [_determinism_counts(tracer, p) for p in traced]
        notes["determinism"] = counts
        if counts[0] != counts[1]:
            errors.append(f"determinism self-check failed: {counts}")
    return Outcome({}, layers, attempted, failed, errors, tracer, notes)


def _determinism_counts(tracer: Tracer, result: PassResult) -> dict:
    """Counts of one traced pass that must repeat exactly for one seed."""
    window = tracer.spans[result.spans[0]:result.spans[1]]
    coalesce = [span[6] for span in window if span[1] == "data.coalesce"]
    return {
        "batches": sum(1 for span in window if span[1] == "core.apply_batch"),
        "data.coalesce_in": sum(c[0] for c in coalesce),
        "data.coalesce_out": sum(c[1] for c in coalesce),
        "ops": result.ops,
        "viewtree.enum_tuples": result.enum_tuples,
    }


# ----------------------------------------------------------------------
# Serve (open loop against AsyncIVMServer)
# ----------------------------------------------------------------------


class _CommitLog:
    """Logs every commit of the server under test.

    It wraps the server instance's ``_commit_batch``, the whole of one
    commit on the commit thread: apply, epoch publish, the change-stream
    read for subscribers and the hand-off to the feeds.  Each entry is
    ``(start, batch_size, end, epoch)``; the server commits FIFO, so entry
    ``k`` holds the updates after the first ``sum(sizes[:k])`` submitted
    ones.  If a refactor removes ``_commit_batch`` the run fails rather
    than time a smaller part of the commit under the same name.  Before
    a commit, at most every :data:`CALIBRATE_EVERY_S`, the commit thread
    takes a calibration burst (outside the logged interval).
    """

    def __init__(self, server):
        self.entries: list[tuple] = []
        self.speed = Calibrator()
        self._last_burst = 0.0
        commit = getattr(server, "_commit_batch", None)
        if not callable(commit):
            raise RuntimeError(
                "AsyncIVMServer._commit_batch is gone: serve workloads time "
                "whole commits there, so perfbench/workloads.py needs updating"
            )
        source = getattr(server.engine, "backend", server.engine)

        def logged(batch, *args, **kwargs):
            if _perf() - self._last_burst >= CALIBRATE_EVERY_S:
                self.speed.burst()
                self._last_burst = _perf()
            start = _perf()
            result = commit(batch, *args, **kwargs)
            self.entries.append(
                (start, len(batch), _perf(), getattr(source, "epoch", None))
            )
            return result

        server._commit_batch = logged


async def _setup_server(workload: Workload, inputs, tracer: Tracer | None):
    from repro import IVMEngine, parse_query
    from repro.serve import AsyncIVMServer

    query = parse_query(workload.shape["query"])
    db = _database(inputs.schemas, inputs.prefill)
    _clear_codegen_cache(tracer)
    start = _perf()
    with tracer.span("core.setup") if tracer is not None else nullcontext():
        engine = IVMEngine(query, db)
        server = AsyncIVMServer(engine, **SERVE_SETTINGS)
        server.attach_stats()
        await server.start()
    return engine, server, _perf() - start


@dataclass
class ServeResult:
    #: Set-up times, each scaled by the calibration bursts around it.
    setup_s: list
    t0: float = 0.0
    due: list = field(default_factory=list)
    submit_start: list = field(default_factory=list)
    submit_end: list = field(default_factory=list)
    read_s: list = field(default_factory=list)
    lookup_s: list = field(default_factory=list)
    commits: list = field(default_factory=list)
    #: epoch -> when the change-feed subscriber had applied its delta.
    feed_applied: dict = field(default_factory=dict)
    #: Calibration bursts taken by the commit thread during the run.
    speed: Calibrator = field(default_factory=Calibrator)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    recorder: dict | None = None
    peak_mb: float = 0.0


async def _serve_once(workload: Workload, inputs, seconds: float,
                      tracer: Tracer | None) -> ServeResult:
    from repro import Update

    try:
        from repro.viewtree.changes import EpochGapError
    except ImportError:  # the gap error subclasses RuntimeError
        EpochGapError = RuntimeError

    if tracer is not None:
        attach_library(tracer)
    try:
        setups = []
        setup_speed = Calibrator()
        engine = server = None
        for _ in range(SERVE_SETUPS):
            if server is not None:
                # Not resident while the next set-up builds its own.
                await server.stop()
                _close(engine)
                engine = server = None
            setup_speed.burst()
            start = _perf()
            engine, server, elapsed = await _setup_server(workload, inputs, tracer)
            setup_speed.burst()
            setups.append(elapsed * setup_speed.factor_near(start + elapsed / 2))
        result = ServeResult(setups)
        if tracer is not None:
            attach_engine(tracer, engine)
        log = _CommitLog(server)
        lookups = inputs.lookups
        feed_state: dict = {}
        gc.collect()  # start the run without the discarded set-ups' garbage
        t0 = result.t0 = _perf()

        async def writer():
            stream = inputs.stream(int(seconds * SERVE_WRITE_RATE) + 1)
            for index, update in enumerate(stream):
                update = Update(*update)
                due = index / SERVE_WRITE_RATE
                now = _perf() - t0
                if due >= seconds or now >= seconds:
                    return
                if due > now:
                    await asyncio.sleep(due - now)
                begin = _perf()
                result.attempted += 1
                try:
                    await server.submit(update)
                except Exception as exc:
                    result.failed += 1
                    result.errors.append(f"submit: {exc!r}")
                    return
                result.submit_start.append(begin)
                result.submit_end.append(_perf())
                result.due.append(t0 + due)

        async def reader():
            for index in range(int(seconds * SERVE_READ_RATE)):
                due = index / SERVE_READ_RATE
                now = _perf() - t0
                if due > now:
                    await asyncio.sleep(due - now)
                begin = _perf()
                result.attempted += 1
                try:
                    await server.lookup(lookups[index % len(lookups)])
                except Exception as exc:
                    result.failed += 1
                    result.errors.append(f"lookup: {exc!r}")
                    continue
                end = _perf()
                result.read_s.append(end - (t0 + due))
                result.lookup_s.append(end - begin)

        async def subscriber(feed):
            nonlocal feed_state
            feed_state = dict(await server.enumerate())
            while True:
                try:
                    delta = await feed.__anext__()
                except StopAsyncIteration:
                    return
                except EpochGapError:
                    feed_state = dict(await server.enumerate())
                    continue
                delta.apply_to(feed_state)
                result.feed_applied[delta.epoch_to] = _perf()

        tasks = [asyncio.ensure_future(writer()), asyncio.ensure_future(reader())]
        feed_task = None
        if workload.feed:
            feed_task = asyncio.ensure_future(subscriber(server.subscribe()))
        try:
            await asyncio.gather(*tasks)
            await server.drain()
        except Exception as exc:  # a failed commit surfaces here
            result.failed += 1
            result.errors.append(f"commit: {exc!r}")
        finally:
            try:
                await server.stop()
            except Exception as exc:
                result.failed += 1
                result.errors.append(f"commit: {exc!r}")
            if feed_task is not None:
                await feed_task
        if tracer is not None:
            tracer.detach()
        result.commits = log.entries
        result.speed = log.speed
        result.recorder = engine.stats.to_dict()
        result.peak_mb = _finish(
            workload, inputs, len(result.due), engine, result.errors,
            {"change-feed state": feed_state} if workload.feed else None,
        )
        return result
    finally:
        if tracer is not None:
            tracer.detach()


def _serve_metrics(result: ServeResult) -> tuple[dict, dict]:
    """End-to-end and serve-layer metrics of one serve run.

    ``upd_s`` is the commit capacity: updates made visible per second of
    commit time (all of ``_commit_batch``, including waits for the
    interpreter lock), each commit scaled to the reference host speed by
    the calibration bursts taken around it.  An update is
    visible when the commit that carries it returns.  While the server is
    behind the offered rate this equals the achieved rate; once it keeps
    up, the achieved rate pins at the offered rate and tells nothing,
    while capacity still does.  Latencies are open-loop wall-clock times
    from each request's due time; the serve-layer figures are wall-clock.
    """
    submitted = len(result.due)
    visible, queue_wait, feed_lag = [], [], []
    index = 0
    for start, size, end, epoch in result.commits:
        applied = result.feed_applied.get(epoch)
        for i in range(index, min(index + size, submitted)):
            visible.append((end - result.due[i]) * 1e3)
            queue_wait.append((start - result.submit_end[i]) * 1e3)
            if applied is not None:
                feed_lag.append((applied - result.due[i]) * 1e3)
        index += size
    if index != submitted:
        result.errors.append(f"{submitted} updates submitted but {index} committed")
    speed = result.speed
    busy = sum(
        (end - start) * speed.factor_near(start) for start, _, end, _ in result.commits
    )
    read_us = [s * 1e6 for s in result.read_s]
    e2e = {
        "setup_s": median(result.setup_s),
        "upd_s": index / busy if busy > 0 else 0.0,
        "visible_ms_p50": percentile(visible, 50),
        "visible_ms_p90": percentile(visible, 90),
        "read_us_p50": percentile(read_us, 50),
        "read_us_p90": percentile(read_us, 90),
        "peak_rss_mb": result.peak_mb,
    }
    commit_ms = [(end - start) * 1e3 for start, _, end, _ in result.commits]
    late = [(s - d) * 1e3 for s, d in zip(result.submit_start, result.due)]
    lookup_us = [s * 1e6 for s in result.lookup_s]
    serve = {
        "serve.queue_wait_ms_p50": percentile(queue_wait, 50),
        "serve.queue_wait_ms_p99": percentile(queue_wait, 99),
        "serve.submit_blocked_s": sum(
            e - s for s, e in zip(result.submit_start, result.submit_end)
        ),
        "serve.commit_ms_p50": percentile(commit_ms, 50),
        "serve.commit_ms_p99": percentile(commit_ms, 99),
        "serve.batch_mean": index / len(result.commits) if result.commits else 0.0,
        "serve.gen_late_ms_p99": percentile(late, 99),
        "serve.lookup_us_p50": percentile(lookup_us, 50),
        "serve.lookup_us_p99": percentile(lookup_us, 99),
        "serve.feed_lag_ms_p50": percentile(feed_lag, 50),
        "serve.feed_lag_ms_p99": percentile(feed_lag, 99),
    }
    return e2e, serve


def run_serve(workload: Workload, seed: int, seconds: float,
              trace: bool) -> Outcome:
    inputs = workload.make_inputs(seed)
    _freeze()
    notes = {"shape": workload.shape, "write_rate": SERVE_WRITE_RATE,
             "read_rate": SERVE_READ_RATE}
    if not trace:
        result = asyncio.run(_serve_once(workload, inputs, seconds, None))
        e2e, _ = _serve_metrics(result)
        notes.update({
            "commits": len(result.commits), "submitted": len(result.due),
            "lookups": len(result.read_s),
            "speed_factor": result.speed.factor(),
        })
        return Outcome(e2e, {}, result.attempted, result.failed, result.errors,
                       notes=notes)
    # Traced runs: a plain half and a traced half of equal length, so the
    # overhead ratio compares the same offered load.
    half = seconds / 2.0
    plain = asyncio.run(_serve_once(workload, inputs, half, None))
    tracer = Tracer()
    traced = asyncio.run(_serve_once(workload, inputs, half, tracer))
    plain_e2e, _ = _serve_metrics(plain)
    traced_e2e, serve = _serve_metrics(traced)
    layers = layer_metrics(tracer, [traced.recorder], 0, 0)
    layers.update(serve)
    commit_s = sum(end - start for start, _, end, _ in traced.commits)
    diff_s = sum(span[3] - span[2] for span in tracer.by_name("viewtree.diff"))
    layers["viewtree.diff_share_of_commit"] = diff_s / commit_s if commit_s else 0.0
    layers.update({
        "trace.upd_s_untraced": plain_e2e["upd_s"],
        "trace.upd_s_traced": traced_e2e["upd_s"],
        "trace.overhead_ratio": (
            traced_e2e["upd_s"] / plain_e2e["upd_s"] if plain_e2e["upd_s"] else 0.0
        ),
    })
    notes["commits"] = len(traced.commits)
    return Outcome(
        {}, layers, plain.attempted + traced.attempted,
        plain.failed + traced.failed, plain.errors + traced.errors, tracer, notes,
    )
