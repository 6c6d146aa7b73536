"""Which entry point of which layer the traced run wraps, and the per-layer
metrics read back from the spans.

Every hook names a public module function, class method or instance method
of ``repro``; the span names group them by layer module.  The metrics a
workload does not exercise read 0 (``retailer-replay`` has no publish, so
``viewtree.diff_ms_*`` is 0 there).
"""

from __future__ import annotations

from contextlib import nullcontext

from .host import percentile
from .trace import Tracer


def _count(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _coalesce_columnar_info(args, result, _ctx):
    return (_count(args[0]), sum(len(keys) for keys, _ in result.values()))


def _coalesce_info(args, result, _ctx):
    return (_count(args[0]), len(result))


def _diff_info(_args, result, ctx):
    if ctx is None:
        return (len(result), None)
    return (len(result), ctx.counts.get("enum", 0) + ctx.counts.get("lookup", 0))


def _refresh_info(args, _result, _ctx):
    view = args[0]
    return (id(view), getattr(view, "full_refreshes", 0))


class _SampledCounting:
    """Op-count every ``every``-th call only.

    Counting slows the counted code, so the diff's step count comes from
    a sample of commits and its timings from the rest.
    """

    def __init__(self, every: int = 4):
        self.every = every
        self.calls = 0

    def __call__(self):
        from repro.data.opcounter import counting

        self.calls += 1
        return counting() if self.calls % self.every == 1 else nullcontext()


def attach_library(tracer: Tracer) -> None:
    """Wrap module functions and class methods (engine-independent)."""
    hook = tracer.hook
    hook("repro.core.engine:plan_maintenance", "core.plan")
    hook("repro.viewtree.engine:coalesce_columnar", "data.coalesce",
         info=_coalesce_columnar_info)
    hook("repro.shard.engine:coalesce", "data.coalesce", info=_coalesce_info)
    hook("repro.data.relation:Relation.add_delta", "data.add_delta")
    hook("repro.viewtree.engine:ViewTreeEngine.apply_batch", "viewtree.apply_batch")
    hook("repro.viewtree.changes:ChangeTracker.on_publish", "viewtree.diff",
         info=_diff_info, around=_SampledCounting())
    hook("repro.viewtree.changes:MaterializedView.refresh", "viewtree.refresh",
         info=_refresh_info)
    hook("repro.shard.engine:ShardedEngine.apply_batch", "shard.apply_batch")
    hook("repro.shard.router:ShardRouter.split", "shard.split")
    hook("repro.shard.worker:ShardWorkerPool.round", "shard.round")
    try:
        from repro.obs.stats import MaintenanceStats
    except ImportError as exc:
        tracer.missing("repro.obs.stats:MaintenanceStats.record_*", "obs.record", str(exc))
    else:
        names = sorted(n for n in vars(MaintenanceStats) if n.startswith("record_"))
        if not names:
            tracer.missing("repro.obs.stats:MaintenanceStats.record_*",
                           "obs.record", "no record_* methods")
        for name in names:
            hook(f"repro.obs.stats:MaintenanceStats.{name}", "obs.record")
    tracer.watch_gc()


def attach_engine(tracer: Tracer, engine) -> None:
    """Wrap the entry points of the one ``IVMEngine`` instance under test.

    Instance attributes, not a proxy: the server's feature probes
    (``supports_snapshots``) and recorder sharing see the real engine.
    """
    hook = tracer.hook
    hook("apply_batch", "core.apply_batch", owner=engine, commit_root=True)
    hook("lookup", "core.lookup", owner=engine)
    if getattr(engine, "supports_snapshots", False):
        hook("publish_epoch", "viewtree.publish", owner=engine)
        hook("lookup_snapshot", "viewtree.lookup_snapshot", owner=engine)


PER_LAYER = (
    "serve.queue_wait_ms_p50", "serve.queue_wait_ms_p99",
    "serve.submit_blocked_s", "serve.commit_ms_p50", "serve.commit_ms_p99",
    "serve.batch_mean", "serve.gen_late_ms_p99", "serve.lookup_us_p50",
    "serve.lookup_us_p99", "serve.feed_lag_ms_p50", "serve.feed_lag_ms_p99",
    "core.plan_s", "core.build_s", "core.dispatch_self_s", "core.batches",
    "data.coalesce_s", "data.coalesce_in", "data.coalesce_out",
    "data.coalesce_keep", "data.add_delta_calls", "data.add_delta_s",
    "viewtree.apply_self_s", "viewtree.ops_per_update",
    "viewtree.publish_ms_p50", "viewtree.publish_ms_p99",
    "viewtree.diff_ms_p50", "viewtree.diff_ms_p99",
    "viewtree.diff_share_of_commit", "viewtree.diff_steps_per_commit",
    "viewtree.delta_tuples_per_commit", "viewtree.diff_yield",
    "viewtree.enum_s", "viewtree.enum_tuples",
    "viewtree.lookup_snapshot_us_p50", "viewtree.refresh_ms_p99",
    "viewtree.full_refreshes",
    "shard.split_s", "shard.rounds", "shard.round_ms_p50",
    "shard.round_ms_p99", "shard.coordinator_self_s",
    "shard.bytes_per_commit", "shard.merge_stats_s",
    "obs.record_calls", "obs.record_s",
    "runtime.gc_s", "runtime.gc_collections",
    "trace.upd_s_untraced", "trace.upd_s_traced", "trace.overhead_ratio",
    "trace.unattached",
)


def layer_metrics(tracer: Tracer, recorders: list[dict], ops: int,
                  updates: int) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric; the serve-loop and ``trace.*`` ones
    read 0 here and are filled in by the workload runner.

    ``recorders`` are the traced engines' ``MaintenanceStats.to_dict()``
    (for the shard ``ipc`` block); ``ops`` the op-counter total over
    ``updates`` applied updates on single-threaded paths (0 where
    counting is not meaningful).
    """
    covered = tracer.child_time()

    def durations(name):
        return [span[3] - span[2] for span in tracer.by_name(name)]

    def total(name):
        return sum(durations(name))

    m = dict.fromkeys(PER_LAYER, 0.0)
    setups = durations("core.setup")
    if setups:
        # Per set-up: planning, and everything else it took to be ready.
        m["core.plan_s"] = total("core.plan") / len(setups)
        m["core.build_s"] = sum(setups) / len(setups) - m["core.plan_s"]
    m["core.dispatch_self_s"] = tracer.self_time("core.apply_batch", covered)
    m["core.batches"] = len(tracer.by_name("core.apply_batch"))

    coalesce = tracer.by_name("data.coalesce")
    c_in = sum(span[6][0] for span in coalesce)
    c_out = sum(span[6][1] for span in coalesce)
    m["data.coalesce_s"] = sum(span[3] - span[2] for span in coalesce)
    m["data.coalesce_in"] = c_in
    m["data.coalesce_out"] = c_out
    m["data.coalesce_keep"] = c_out / c_in if c_in else 0.0
    m["data.add_delta_calls"] = len(tracer.by_name("data.add_delta"))
    m["data.add_delta_s"] = total("data.add_delta")

    m["viewtree.apply_self_s"] = tracer.self_time("viewtree.apply_batch", covered)
    m["viewtree.ops_per_update"] = ops / updates if updates else 0.0
    publish_self = [
        (span[3] - span[2] - covered.get(span[0], 0.0)) * 1e3
        for span in tracer.by_name("viewtree.publish")
    ]
    m["viewtree.publish_ms_p50"] = percentile(publish_self, 50)
    m["viewtree.publish_ms_p99"] = percentile(publish_self, 99)
    diffs = tracer.by_name("viewtree.diff")
    counted = [span[6] for span in diffs if span[6][1] is not None]
    diff_ms = [(s[3] - s[2]) * 1e3 for s in diffs if s[6][1] is None]
    m["viewtree.diff_ms_p50"] = percentile(diff_ms, 50)
    m["viewtree.diff_ms_p99"] = percentile(diff_ms, 99)
    tuples = sum(info[0] for info in counted)
    steps = sum(info[1] for info in counted)
    m["viewtree.diff_steps_per_commit"] = steps / len(counted) if counted else 0.0
    m["viewtree.delta_tuples_per_commit"] = (
        sum(span[6][0] for span in diffs) / len(diffs) if diffs else 0.0
    )
    m["viewtree.diff_yield"] = tuples / steps if steps else 0.0
    enums = tracer.by_name("viewtree.enum")
    m["viewtree.enum_s"] = sum(span[3] - span[2] for span in enums)
    m["viewtree.enum_tuples"] = sum(span[6] or 0 for span in enums)
    m["viewtree.lookup_snapshot_us_p50"] = percentile(
        [d * 1e6 for d in durations("viewtree.lookup_snapshot")], 50
    )
    m["viewtree.refresh_ms_p99"] = percentile(
        [d * 1e3 for d in durations("viewtree.refresh")], 99
    )
    refreshes: dict[int, int] = {}
    for span in tracer.by_name("viewtree.refresh"):
        view, count = span[6]
        refreshes[view] = max(refreshes.get(view, 0), count)
    m["viewtree.full_refreshes"] = sum(refreshes.values())

    m["shard.split_s"] = total("shard.split")
    rounds = durations("shard.round")
    m["shard.rounds"] = len(rounds)
    m["shard.round_ms_p50"] = percentile([d * 1e3 for d in rounds], 50)
    m["shard.round_ms_p99"] = percentile([d * 1e3 for d in rounds], 99)
    m["shard.coordinator_self_s"] = tracer.self_time("shard.apply_batch", covered)
    commits = commit_bytes = merge_s = 0.0
    for recorder in recorders:
        ipc = recorder.get("ipc", {})
        histogram = ipc.get("commit_bytes", {})
        commits += histogram.get("count", 0)
        commit_bytes += histogram.get("count", 0) * histogram.get("mean", 0.0)
        merge_s += ipc.get("stats_merge_s", 0.0)
    m["shard.bytes_per_commit"] = commit_bytes / commits if commits else 0.0
    m["shard.merge_stats_s"] = merge_s

    records = durations("obs.record")
    m["obs.record_calls"] = len(records)
    m["obs.record_s"] = sum(records)
    m["runtime.gc_s"] = tracer.gc_s
    m["runtime.gc_collections"] = tracer.gc_collections
    m["trace.unattached"] = len(tracer.unattached)
    return m
