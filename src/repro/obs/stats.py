"""The :class:`MaintenanceStats` recorder shared by all engines.

One recorder captures everything the experiment sections of the paper
plot:

* per-update and per-batch **latency histograms** (Fig. 4 throughput is a
  summary of these),
* per-view **delta sizes** in view trees (the "small changes beget small
  changes" premise, measurable),
* **enumeration delay** samples — the time between consecutive output
  tuples, the quantity bounded by the O(1)-delay theorems,
* heavy/light **rebalance events** from :mod:`repro.ivme.partition`
  (migrations and global repartitions, whose amortization Fig. 7 relies
  on),
* optional **elementary-operation** totals folded in from
  :func:`repro.obs.op_scope`.

Histograms are log2-bucketed over seconds: pure-Python wall-clock numbers
are noisy, but their order of magnitude is stable, which is exactly what
a bucketed histogram preserves.  Everything serializes via
:meth:`MaintenanceStats.to_dict` into plain JSON types.

Thread safety: one recorder may be shared across threads — the sharded
coordinator drains shard enumerations on a thread pool, and the serving
front-end (:mod:`repro.serve`) commits batches on an executor thread
while the event-loop thread records reads.  Every mutating ``record_*``
method and :meth:`MaintenanceStats.merge` therefore holds the recorder's
internal lock (unattached engines never pay for it — no recorder, no
call), and the :func:`~repro.obs.instrument.observed` reentrancy depth is
tracked per *thread*, so an observed call on one thread does not suppress
recording on another.  The lock and the thread-local are dropped on
pickling (process-pool shards ship recorders inside engines) and rebuilt
fresh on unpickling.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterable

#: Smallest latency bucket boundary (100 ns — below timer resolution).
_BASE = 1e-7

#: Shard-summary fields that add when the same label is merged twice.
_SUMMARY_COUNT_KEYS = frozenset(
    {
        "updates",
        "batches",
        "enumerations",
        "tuples_enumerated",
        "migrations",
        "repartitions",
        "ops",
        "batch_updates_raw",
        "batch_updates_coalesced",
        "sibling_probes",
        "sibling_probes_shared",
        "enum_compiled",
        "enum_guard_probes",
        "lazy_refreshes",
        "point_lookups",
        "lookup_shards_probed",
        "epochs_published",
        "cow_buckets_copied",
        "cow_tables_copied",
        "snapshot_reads",
        "output_delta_tuples",
        "deltas_emitted",
        "delta_tuples",
        "delta_bytes",
        "tuples_patched",
        "full_refresh_fallbacks",
        "kernels_generated",
        "shape_cache_hits",
        "codegen_fallbacks",
        "codegen_time_ms",
        "ipc_rounds",
        "ipc_commits",
        "ipc_bytes_sent",
        "ipc_bytes_received",
        "ipc_worker_failures",
        "ipc_workers_spawned",
    }
)


class RunningStat:
    """Count/total/min/max accumulator for a stream of numbers."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "RunningStat") -> None:
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def to_dict(self) -> dict:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": None, "max": None, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }

    def __repr__(self) -> str:
        return f"RunningStat(count={self.count}, mean={self.mean:.4g})"


class LatencyHistogram:
    """Log2-bucketed histogram of durations in seconds.

    Bucket ``i`` covers ``(_BASE * 2^(i-1), _BASE * 2^i]``; durations at
    or below ``_BASE`` land in bucket 0.  Percentiles are reported as the
    upper boundary of the bucket containing the requested rank, i.e. a
    conservative (over-)estimate within a factor of 2.
    """

    __slots__ = ("buckets", "stat")

    def __init__(self):
        self.buckets: dict[int, int] = {}
        self.stat = RunningStat()

    def record(self, seconds: float) -> None:
        if seconds < 0:
            seconds = 0.0
        self.stat.record(seconds)
        index = 0 if seconds <= _BASE else int(math.ceil(math.log2(seconds / _BASE)))
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def count(self) -> int:
        return self.stat.count

    def percentile(self, q: float) -> float:
        """Upper bucket boundary at quantile ``q`` in [0, 1]."""
        if not self.stat.count:
            return 0.0
        rank = max(1, math.ceil(q * self.stat.count))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return _BASE * (2.0 ** index)
        return self.stat.maximum

    def merge(self, other: "LatencyHistogram") -> None:
        self.stat.merge(other.stat)
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count

    def to_dict(self) -> dict:
        summary = self.stat.to_dict()
        if self.stat.count:
            summary["p50"] = self.percentile(0.50)
            summary["p95"] = self.percentile(0.95)
            summary["p99"] = self.percentile(0.99)
        summary["buckets"] = {
            f"<={_BASE * (2.0 ** index):.3g}s": self.buckets[index]
            for index in sorted(self.buckets)
        }
        return summary

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(count={self.stat.count}, "
            f"mean={self.stat.mean:.3g}s)"
        )


class CountHistogram:
    """Log2-bucketed histogram of non-negative integer counts.

    The integer twin of :class:`LatencyHistogram`, used for quantities
    like batch sizes and queue depths whose order of magnitude is the
    interesting part.  Bucket ``i`` covers ``[2^(i-1), 2^i - 1]`` (bucket
    0 holds exact zeros), so percentiles are conservative upper bounds
    within a factor of 2, same as the latency buckets.
    """

    __slots__ = ("buckets", "stat")

    def __init__(self):
        self.buckets: dict[int, int] = {}
        self.stat = RunningStat()

    def record(self, value: int) -> None:
        if value < 0:
            value = 0
        self.stat.record(value)
        index = int(value).bit_length()
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def count(self) -> int:
        return self.stat.count

    def percentile(self, q: float) -> float:
        """Upper bucket boundary at quantile ``q`` in [0, 1]."""
        if not self.stat.count:
            return 0.0
        rank = max(1, math.ceil(q * self.stat.count))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return 0.0 if index == 0 else float(2 ** index - 1)
        return self.stat.maximum

    def merge(self, other: "CountHistogram") -> None:
        self.stat.merge(other.stat)
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count

    def to_dict(self) -> dict:
        summary = self.stat.to_dict()
        if self.stat.count:
            summary["p50"] = self.percentile(0.50)
            summary["p95"] = self.percentile(0.95)
            summary["p99"] = self.percentile(0.99)
        summary["buckets"] = {
            ("0" if index == 0 else f"<={2 ** index - 1}"): self.buckets[index]
            for index in sorted(self.buckets)
        }
        return summary

    def __repr__(self) -> str:
        return (
            f"CountHistogram(count={self.stat.count}, "
            f"mean={self.stat.mean:.3g})"
        )


class MaintenanceStats:
    """Structured recorder for one engine's maintenance activity."""

    def __init__(self, engine: str = "engine"):
        self.engine = engine
        #: Top-level single-tuple updates observed.
        self.updates = 0
        #: Top-level batch calls observed.
        self.batches = 0
        self.update_latency = LatencyHistogram()
        self.batch_latency = LatencyHistogram()
        #: View name -> delta-size distribution (view-tree propagation).
        self.delta_sizes: dict[str, RunningStat] = {}
        #: Per-tuple enumeration delay samples.
        self.enum_delay = LatencyHistogram()
        self.enumerations = 0
        self.tuples_enumerated = 0
        #: Heavy/light partition events (repro.ivme.partition).
        self.migrations = 0
        self.tuples_migrated = 0
        self.repartitions = 0
        #: Elementary op totals folded in via record_ops / op_scope.
        self.ops: dict[str, int] = {}
        #: Batch-kernel accounting: updates entering the compiled batch
        #: path vs. the distinct deltas surviving ring-coalescing, and
        #: sibling probes issued vs. saved by cross-delta sharing.
        self.batch_updates_raw = 0
        self.batch_updates_coalesced = 0
        self.sibling_probes = 0
        self.sibling_probes_shared = 0
        #: Read-path kernel accounting: enumerations served by a compiled
        #: EnumPlan, guard probes the kernel issued (group lookups plus
        #: prebound point checks), and lazy-strategy on-demand recomputes
        #: triggered inside enumerate().
        self.enum_compiled = 0
        self.enum_guard_probes = 0
        self.lazy_refreshes = 0
        #: Memory accounting: samples of the engine's total view size
        #: (views + guards + leaves) taken periodically during maintenance.
        self.view_size = RunningStat()
        #: View/guard name -> size-sample distribution.
        self.view_sizes: dict[str, RunningStat] = {}
        #: Point-lookup accounting: fully-prebound key lookups served and
        #: how many shard engines each one probed (unsharded lookups
        #: count one) — the counters behind the sharded early-break fix.
        self.point_lookups = 0
        self.lookup_shards_probed = 0
        #: Serving accounting (repro.serve): group commits by trigger,
        #: per-commit latency / batch-size / queue-depth histograms,
        #: submit and backpressure counters, and read staleness samples.
        self.submits = 0
        self.commits = 0
        self.size_commits = 0
        self.deadline_commits = 0
        self.drain_commits = 0
        self.commit_latency = LatencyHistogram()
        self.commit_batch_size = CountHistogram()
        self.commit_queue_depth = CountHistogram()
        self.backpressure_waits = 0
        self.backpressure_wait = LatencyHistogram()
        self.serve_lookups = 0
        self.read_staleness = LatencyHistogram()
        #: Commits that raised out of the engine: counted apart so the
        #: commit latency/batch-size histograms hold successes only.
        self.commit_errors = 0
        #: Epoch snapshot accounting (repro.viewtree.epoch): epochs
        #: published, snapshot-mode reads served with their end-to-end
        #: latency (the read-tail histogram), and copy-on-write work the
        #: write path paid for snapshot isolation.
        self.epochs_published = 0
        self.snapshot_reads = 0
        self.snapshot_read_latency = LatencyHistogram()
        self.cow_buckets_copied = 0
        self.cow_tables_copied = 0
        #: Output delta tuples closed over by epoch publishes (the
        #: per-epoch output change size next to the COW copy work, so
        #: delta/state ratios are visible straight from ``stats``).
        self.output_delta_tuples = 0
        #: Output change-stream accounting (repro.viewtree.changes):
        #: per-epoch deltas emitted with their tuple and wire-byte
        #: volume, subscriber patch latency, tuples patched into
        #: subscriber materializations, full-drain fallbacks (ratio
        #: threshold or epoch gap), and the delta/state ratio
        #: distribution in percent.
        self.deltas_emitted = 0
        self.delta_tuples = 0
        self.delta_bytes = 0
        self.tuples_patched = 0
        self.patch_time = LatencyHistogram()
        self.full_refresh_fallbacks = 0
        self.delta_ratio = CountHistogram()
        #: Codegen accounting (repro.viewtree.codegen): kernels exec'd
        #: from generated source, wall-clock spent generating+compiling,
        #: plan shapes served from the process-wide factory cache, and
        #: plans that fell back to the interpreter.
        self.kernels_generated = 0
        self.codegen_time_ms = 0.0
        self.shape_cache_hits = 0
        self.codegen_fallbacks = 0
        #: Worker-IPC accounting (repro.shard.worker): command
        #: round-trips to persistent shard workers, bytes shipped over
        #: the pipes (both directions), per-commit byte histogram (the
        #: "cost scales with batch, not state" evidence), worker busy
        #: time vs. coordinator wall time (utilization), time spent
        #: merging stats pulled off the workers (``merged_stats`` only;
        #: commits ship no stats), worker crashes surfaced, and
        #: worker processes spawned (> shards means a pool rebuild).
        self.ipc_rounds = 0
        self.ipc_commits = 0
        self.ipc_bytes_sent = 0
        self.ipc_bytes_received = 0
        self.ipc_commit_bytes = CountHistogram()
        self.ipc_worker_busy_s = 0.0
        self.ipc_wall_s = 0.0
        self.ipc_workers = 0
        self.ipc_stats_merge_s = 0.0
        self.ipc_worker_failures = 0
        self.ipc_workers_spawned = 0
        #: Per-shard summaries recorded by labelled merges (sharded runs).
        self.shard_summaries: dict[str, dict] = {}
        # Recorders may be shared across threads (thread-pool shards,
        # the serve commit executor); every mutation holds this lock.
        self._lock = threading.RLock()
        # Reentrancy guard: engines stack (facade -> cascade -> view tree),
        # and only the outermost observed call should count the update.
        # Tracked per thread so concurrent observed calls on different
        # threads do not suppress each other's recording.
        self._local = threading.local()

    @property
    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    @_depth.setter
    def _depth(self, value: int) -> None:
        self._local.depth = value

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        state.pop("_local", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Recording API (called from instrumentation hooks)
    # ------------------------------------------------------------------

    def record_update(self, seconds: float, kind: str = "apply") -> None:
        """One top-level ``apply``/``update`` (or ``*_batch``) call."""
        with self._lock:
            if kind.endswith("batch"):
                self.batches += 1
                self.batch_latency.record(seconds)
            else:
                self.updates += 1
                self.update_latency.record(seconds)

    def record_delta(self, view: str, size: int) -> None:
        """Size of one delta propagated into ``view``."""
        with self._lock:
            stat = self.delta_sizes.get(view)
            if stat is None:
                stat = self.delta_sizes[view] = RunningStat()
            stat.record(size)

    def record_enumeration(self) -> None:
        with self._lock:
            self.enumerations += 1

    def record_enum_delay(self, seconds: float) -> None:
        with self._lock:
            self.enum_delay.record(seconds)
            self.tuples_enumerated += 1

    def record_view_sizes(
        self, total: int, per_view: dict[str, int] | None = None
    ) -> None:
        """One memory sample: total view size plus per-view sizes.

        Engines call this periodically during maintenance (see
        ``ViewTreeEngine.view_sample_interval``), turning the space side
        of the IVM trade-off into a recorded series.
        """
        with self._lock:
            self.view_size.record(total)
            for view, size in (per_view or {}).items():
                stat = self.view_sizes.get(view)
                if stat is None:
                    stat = self.view_sizes[view] = RunningStat()
                stat.record(size)

    def record_batch_coalesce(self, raw: int, coalesced: int) -> None:
        """One compiled-batch run: raw updates vs. surviving deltas."""
        with self._lock:
            self.batch_updates_raw += raw
            self.batch_updates_coalesced += coalesced

    def record_probe_sharing(self, issued: int, shared: int) -> None:
        """Sibling probes actually issued vs. saved by the probe cache."""
        with self._lock:
            self.sibling_probes += issued
            self.sibling_probes_shared += shared

    def record_compiled_enumeration(self) -> None:
        """One enumeration request served by a compiled EnumPlan."""
        with self._lock:
            self.enum_compiled += 1

    def record_enum_probes(self, count: int) -> None:
        """Guard probes issued by the enumeration kernel (bulk)."""
        with self._lock:
            self.enum_guard_probes += count

    def record_lazy_refresh(self) -> None:
        """One on-demand recompute inside a lazy strategy's enumerate()."""
        with self._lock:
            self.lazy_refreshes += 1

    def record_point_lookup(self, shards_probed: int = 1) -> None:
        """One fully-prebound point lookup, probing that many shards."""
        with self._lock:
            self.point_lookups += 1
            self.lookup_shards_probed += shards_probed

    def record_migration(self, moved: int, to_heavy: bool) -> None:
        with self._lock:
            self.migrations += 1
            self.tuples_migrated += moved

    def record_repartition(self, threshold: float) -> None:
        with self._lock:
            self.repartitions += 1

    def record_ops(self, counts: dict[str, int] | Iterable[tuple[str, int]]) -> None:
        items = counts.items() if isinstance(counts, dict) else counts
        with self._lock:
            for kind, amount in items:
                self.ops[kind] = self.ops.get(kind, 0) + amount

    # ------------------------------------------------------------------
    # Serving hooks (repro.serve)
    # ------------------------------------------------------------------

    def record_submit(self, count: int = 1) -> None:
        """Updates accepted into the serving queue."""
        with self._lock:
            self.submits += count

    def record_backpressure(self, seconds: float) -> None:
        """One submit blocked at the high-water mark for ``seconds``."""
        with self._lock:
            self.backpressure_waits += 1
            self.backpressure_wait.record(seconds)

    def record_commit(
        self,
        seconds: float,
        batch_size: int,
        queue_depth: int,
        trigger: str = "size",
    ) -> None:
        """One group commit: latency, batch size, queue depth at commit.

        ``trigger`` names what fired the commit — ``"size"`` (the batch
        reached the maximum size), ``"deadline"`` (the latency deadline
        expired on a partial batch), or ``"drain"`` (a shutdown/drain
        flush).
        """
        with self._lock:
            self.commits += 1
            if trigger == "deadline":
                self.deadline_commits += 1
            elif trigger == "drain":
                self.drain_commits += 1
            else:
                self.size_commits += 1
            self.commit_latency.record(seconds)
            self.commit_batch_size.record(batch_size)
            self.commit_queue_depth.record(queue_depth)

    def record_serve_read(self, staleness_seconds: float) -> None:
        """One lookup served between commits, with its read staleness.

        Staleness is the age of the oldest update submitted but not yet
        committed at the moment the read was served — 0 when the queue
        was empty (the read saw a fully fresh view).  In snapshot-read
        mode this is the published epoch's age relative to the stream:
        how long the oldest update invisible to the epoch has waited.
        """
        with self._lock:
            self.serve_lookups += 1
            self.read_staleness.record(staleness_seconds)

    def record_commit_error(self) -> None:
        """One group commit that raised out of the engine.

        Failed commits are excluded from ``commits`` and from the
        latency/batch-size/queue-depth histograms so serving percentiles
        describe successful work only.
        """
        with self._lock:
            self.commit_errors += 1

    def record_epoch_publish(
        self,
        buckets_copied: int = 0,
        tables_copied: int = 0,
        delta_tuples: int = 0,
    ) -> None:
        """One epoch publish, with the copy-on-write work it closed over.

        ``delta_tuples`` is the size of the output change delta the
        publish emitted (0 when change tracking is off), recorded next
        to the COW counters so delta/state ratios show up in ``stats``
        without running a bench.
        """
        with self._lock:
            self.epochs_published += 1
            self.cow_buckets_copied += buckets_copied
            self.cow_tables_copied += tables_copied
            self.output_delta_tuples += delta_tuples

    def record_snapshot_read(self, seconds: float) -> None:
        """One snapshot-mode read with its end-to-end latency."""
        with self._lock:
            self.snapshot_reads += 1
            self.snapshot_read_latency.record(seconds)

    def record_change_delta(self, tuples: int, bytes_: int = 0) -> None:
        """One per-epoch output delta emitted by the change tracker.

        ``bytes_`` is the columnar wire volume when the delta crossed a
        worker pipe (0 for in-process streams).
        """
        with self._lock:
            self.deltas_emitted += 1
            self.delta_tuples += tuples
            self.delta_bytes += bytes_

    def record_change_patch(
        self, seconds: float, tuples: int, ratio: float
    ) -> None:
        """One subscriber materialization patched in O(δ).

        ``ratio`` is delta size over materialization size; it lands in
        the percent-bucketed ``delta_ratio`` histogram.
        """
        with self._lock:
            self.tuples_patched += tuples
            self.patch_time.record(seconds)
            self.delta_ratio.record(int(ratio * 100))

    def record_full_refresh(self) -> None:
        """One subscriber full-drain fallback (ratio threshold or gap)."""
        with self._lock:
            self.full_refresh_fallbacks += 1

    def record_codegen(
        self,
        kernels: int,
        time_ms: float,
        cache_hits: int = 0,
        fallbacks: int = 0,
    ) -> None:
        """One engine's kernel-generation totals (recorded at attach)."""
        with self._lock:
            self.kernels_generated += kernels
            self.codegen_time_ms += time_ms
            self.shape_cache_hits += cache_hits
            self.codegen_fallbacks += fallbacks

    def record_ipc_round(
        self,
        round_trips: int,
        bytes_sent: int,
        bytes_received: int,
        busy_s: float = 0.0,
        wall_s: float = 0.0,
        workers: int = 0,
        commit: bool = False,
    ) -> None:
        """One coordinator operation against the shard-worker pool.

        ``round_trips`` counts per-worker command exchanges inside the
        operation (a broadcast over N workers is N round-trips but one
        call).  ``commit=True`` marks maintenance commits (``apply`` /
        ``apply_batch``) and feeds the per-commit byte histogram — the
        series that must stay flat as resident view state grows.
        """
        with self._lock:
            self.ipc_rounds += round_trips
            self.ipc_bytes_sent += bytes_sent
            self.ipc_bytes_received += bytes_received
            self.ipc_worker_busy_s += busy_s
            self.ipc_wall_s += wall_s
            if workers > self.ipc_workers:
                self.ipc_workers = workers
            if commit:
                self.ipc_commits += 1
                self.ipc_commit_bytes.record(bytes_sent + bytes_received)

    def record_ipc_stats_merge(self, seconds: float) -> None:
        """Time spent merging stats pulled off the shard workers."""
        with self._lock:
            self.ipc_stats_merge_s += seconds

    def record_ipc_worker_failure(self) -> None:
        """One worker crash (or dead pipe) surfaced to the coordinator."""
        with self._lock:
            self.ipc_worker_failures += 1

    def record_ipc_workers_spawned(self, count: int) -> None:
        """Worker processes spawned (pool build or rebuild)."""
        with self._lock:
            self.ipc_workers_spawned += count

    # ------------------------------------------------------------------
    # Aggregation and export
    # ------------------------------------------------------------------

    def merge(self, other: "MaintenanceStats", label: str | None = None) -> None:
        """Fold ``other`` into this recorder.

        With ``label`` (e.g. ``"shard3"``) the merge is *labelled*: the
        other recorder is summarized under that label in
        :attr:`shard_summaries`, its delta-size series are kept apart as
        ``"<label>/<view>"``, and its elementary ops roll up — but its
        update/batch counts and latency histograms do **not** add into
        the top-level series.  A shard coordinator already records every
        logical update once; adding each shard's count again would count
        broadcast updates once per shard.

        Unlabelled merges behave as before (associative recorder
        composition) and carry any shard summaries of ``other`` along.
        """
        with self._lock:
            self._merge_locked(other, label)

    def _merge_locked(self, other: "MaintenanceStats", label: str | None) -> None:
        if label is not None:
            self.shard_summaries[label] = {
                "engine": other.engine,
                "updates": other.updates,
                "batches": other.batches,
                "update_mean_s": other.update_latency.stat.mean,
                "batch_mean_s": other.batch_latency.stat.mean,
                "enumerations": other.enumerations,
                "tuples_enumerated": other.tuples_enumerated,
                "migrations": other.migrations,
                "repartitions": other.repartitions,
                "ops": sum(other.ops.values()),
                "peak_view_size": (
                    other.view_size.maximum if other.view_size.count else 0
                ),
                "batch_updates_raw": other.batch_updates_raw,
                "batch_updates_coalesced": other.batch_updates_coalesced,
                "sibling_probes": other.sibling_probes,
                "sibling_probes_shared": other.sibling_probes_shared,
                "enum_compiled": other.enum_compiled,
                "enum_guard_probes": other.enum_guard_probes,
                "lazy_refreshes": other.lazy_refreshes,
                "point_lookups": other.point_lookups,
                "lookup_shards_probed": other.lookup_shards_probed,
                "epochs_published": other.epochs_published,
                "cow_buckets_copied": other.cow_buckets_copied,
                "cow_tables_copied": other.cow_tables_copied,
                "snapshot_reads": other.snapshot_reads,
                "output_delta_tuples": other.output_delta_tuples,
                "deltas_emitted": other.deltas_emitted,
                "delta_tuples": other.delta_tuples,
                "delta_bytes": other.delta_bytes,
                "tuples_patched": other.tuples_patched,
                "full_refresh_fallbacks": other.full_refresh_fallbacks,
                "kernels_generated": other.kernels_generated,
                "codegen_time_ms": other.codegen_time_ms,
                "shape_cache_hits": other.shape_cache_hits,
                "codegen_fallbacks": other.codegen_fallbacks,
            }
            # Shard-level kernel work is real engine work; roll it
            # up into the coordinator totals like elementary ops.
            self.batch_updates_raw += other.batch_updates_raw
            self.batch_updates_coalesced += other.batch_updates_coalesced
            self.sibling_probes += other.sibling_probes
            self.sibling_probes_shared += other.sibling_probes_shared
            self.enum_compiled += other.enum_compiled
            self.enum_guard_probes += other.enum_guard_probes
            self.lazy_refreshes += other.lazy_refreshes
            self.point_lookups += other.point_lookups
            self.lookup_shards_probed += other.lookup_shards_probed
            self.epochs_published += other.epochs_published
            self.cow_buckets_copied += other.cow_buckets_copied
            self.cow_tables_copied += other.cow_tables_copied
            self.snapshot_reads += other.snapshot_reads
            self.snapshot_read_latency.merge(other.snapshot_read_latency)
            self.output_delta_tuples += other.output_delta_tuples
            self.deltas_emitted += other.deltas_emitted
            self.delta_tuples += other.delta_tuples
            self.delta_bytes += other.delta_bytes
            self.tuples_patched += other.tuples_patched
            self.patch_time.merge(other.patch_time)
            self.full_refresh_fallbacks += other.full_refresh_fallbacks
            self.delta_ratio.merge(other.delta_ratio)
            self.kernels_generated += other.kernels_generated
            self.codegen_time_ms += other.codegen_time_ms
            self.shape_cache_hits += other.shape_cache_hits
            self.codegen_fallbacks += other.codegen_fallbacks
            for view, stat in other.delta_sizes.items():
                mine = self.delta_sizes.get(f"{label}/{view}")
                if mine is None:
                    mine = self.delta_sizes[f"{label}/{view}"] = RunningStat()
                mine.merge(stat)
            for view, stat in other.view_sizes.items():
                mine = self.view_sizes.get(f"{label}/{view}")
                if mine is None:
                    mine = self.view_sizes[f"{label}/{view}"] = RunningStat()
                mine.merge(stat)
            self.view_size.merge(other.view_size)
            self.record_ops(other.ops)
            return
        self.updates += other.updates
        self.batches += other.batches
        self.update_latency.merge(other.update_latency)
        self.batch_latency.merge(other.batch_latency)
        for view, stat in other.delta_sizes.items():
            mine = self.delta_sizes.get(view)
            if mine is None:
                mine = self.delta_sizes[view] = RunningStat()
            mine.merge(stat)
        self.view_size.merge(other.view_size)
        for view, stat in other.view_sizes.items():
            mine = self.view_sizes.get(view)
            if mine is None:
                mine = self.view_sizes[view] = RunningStat()
            mine.merge(stat)
        self.enum_delay.merge(other.enum_delay)
        self.enumerations += other.enumerations
        self.tuples_enumerated += other.tuples_enumerated
        self.migrations += other.migrations
        self.tuples_migrated += other.tuples_migrated
        self.repartitions += other.repartitions
        self.batch_updates_raw += other.batch_updates_raw
        self.batch_updates_coalesced += other.batch_updates_coalesced
        self.sibling_probes += other.sibling_probes
        self.sibling_probes_shared += other.sibling_probes_shared
        self.enum_compiled += other.enum_compiled
        self.enum_guard_probes += other.enum_guard_probes
        self.lazy_refreshes += other.lazy_refreshes
        self.point_lookups += other.point_lookups
        self.lookup_shards_probed += other.lookup_shards_probed
        self.submits += other.submits
        self.commits += other.commits
        self.size_commits += other.size_commits
        self.deadline_commits += other.deadline_commits
        self.drain_commits += other.drain_commits
        self.commit_latency.merge(other.commit_latency)
        self.commit_batch_size.merge(other.commit_batch_size)
        self.commit_queue_depth.merge(other.commit_queue_depth)
        self.backpressure_waits += other.backpressure_waits
        self.backpressure_wait.merge(other.backpressure_wait)
        self.serve_lookups += other.serve_lookups
        self.read_staleness.merge(other.read_staleness)
        self.commit_errors += other.commit_errors
        self.epochs_published += other.epochs_published
        self.snapshot_reads += other.snapshot_reads
        self.snapshot_read_latency.merge(other.snapshot_read_latency)
        self.cow_buckets_copied += other.cow_buckets_copied
        self.cow_tables_copied += other.cow_tables_copied
        self.output_delta_tuples += other.output_delta_tuples
        self.deltas_emitted += other.deltas_emitted
        self.delta_tuples += other.delta_tuples
        self.delta_bytes += other.delta_bytes
        self.tuples_patched += other.tuples_patched
        self.patch_time.merge(other.patch_time)
        self.full_refresh_fallbacks += other.full_refresh_fallbacks
        self.delta_ratio.merge(other.delta_ratio)
        self.kernels_generated += other.kernels_generated
        self.codegen_time_ms += other.codegen_time_ms
        self.shape_cache_hits += other.shape_cache_hits
        self.codegen_fallbacks += other.codegen_fallbacks
        self.ipc_rounds += other.ipc_rounds
        self.ipc_commits += other.ipc_commits
        self.ipc_bytes_sent += other.ipc_bytes_sent
        self.ipc_bytes_received += other.ipc_bytes_received
        self.ipc_commit_bytes.merge(other.ipc_commit_bytes)
        self.ipc_worker_busy_s += other.ipc_worker_busy_s
        self.ipc_wall_s += other.ipc_wall_s
        if other.ipc_workers > self.ipc_workers:
            self.ipc_workers = other.ipc_workers
        self.ipc_stats_merge_s += other.ipc_stats_merge_s
        self.ipc_worker_failures += other.ipc_worker_failures
        self.ipc_workers_spawned += other.ipc_workers_spawned
        self.record_ops(other.ops)
        for shard_label, summary in other.shard_summaries.items():
            mine = self.shard_summaries.get(shard_label)
            if mine is None:
                self.shard_summaries[shard_label] = dict(summary)
            else:
                # Same label seen twice: counts add, means are recomputed
                # poorly at best — keep the counts exact and let the
                # latest merge win on the rest.
                for key, value in summary.items():
                    if key in _SUMMARY_COUNT_KEYS and key in mine:
                        mine[key] += value
                    else:
                        mine[key] = value

    def to_dict(self) -> dict:
        """Plain-JSON snapshot (the ``repro.obs/1`` stats payload)."""
        return {
            "engine": self.engine,
            "updates": self.updates,
            "batches": self.batches,
            "update_latency": self.update_latency.to_dict(),
            "batch_latency": self.batch_latency.to_dict(),
            "delta_sizes": {
                view: stat.to_dict()
                for view, stat in sorted(self.delta_sizes.items())
            },
            "enumerations": self.enumerations,
            "tuples_enumerated": self.tuples_enumerated,
            "enum_delay": self.enum_delay.to_dict(),
            "rebalance": {
                "migrations": self.migrations,
                "tuples_migrated": self.tuples_migrated,
                "repartitions": self.repartitions,
            },
            "ops": dict(sorted(self.ops.items())),
            "batch": {
                "raw_updates": self.batch_updates_raw,
                "coalesced_updates": self.batch_updates_coalesced,
                "sibling_probes": self.sibling_probes,
                "probes_shared": self.sibling_probes_shared,
            },
            "enumeration": {
                "compiled": self.enum_compiled,
                "guard_probes": self.enum_guard_probes,
                "lazy_refreshes": self.lazy_refreshes,
                "point_lookups": self.point_lookups,
                "lookup_shards_probed": self.lookup_shards_probed,
            },
            "serving": {
                "submits": self.submits,
                "commits": self.commits,
                "size_commits": self.size_commits,
                "deadline_commits": self.deadline_commits,
                "drain_commits": self.drain_commits,
                "commit_latency": self.commit_latency.to_dict(),
                "batch_size": self.commit_batch_size.to_dict(),
                "queue_depth": self.commit_queue_depth.to_dict(),
                "backpressure_waits": self.backpressure_waits,
                "backpressure_wait": self.backpressure_wait.to_dict(),
                "lookups": self.serve_lookups,
                "read_staleness": self.read_staleness.to_dict(),
                "commit_errors": self.commit_errors,
            },
            "codegen": {
                "kernels_generated": self.kernels_generated,
                "codegen_time_ms": self.codegen_time_ms,
                "shape_cache_hits": self.shape_cache_hits,
                "fallbacks": self.codegen_fallbacks,
            },
            "ipc": {
                "rounds": self.ipc_rounds,
                "commits": self.ipc_commits,
                "bytes_sent": self.ipc_bytes_sent,
                "bytes_received": self.ipc_bytes_received,
                "commit_bytes": self.ipc_commit_bytes.to_dict(),
                "worker_busy_s": self.ipc_worker_busy_s,
                "wall_s": self.ipc_wall_s,
                "workers": self.ipc_workers,
                "utilization": (
                    self.ipc_worker_busy_s
                    / (self.ipc_wall_s * self.ipc_workers)
                    if self.ipc_wall_s and self.ipc_workers
                    else 0.0
                ),
                "stats_merge_s": self.ipc_stats_merge_s,
                "worker_failures": self.ipc_worker_failures,
                "workers_spawned": self.ipc_workers_spawned,
            },
            "epochs": {
                "published": self.epochs_published,
                "snapshot_reads": self.snapshot_reads,
                "read_latency": self.snapshot_read_latency.to_dict(),
                "cow_buckets_copied": self.cow_buckets_copied,
                "cow_tables_copied": self.cow_tables_copied,
                "output_delta_tuples": self.output_delta_tuples,
            },
            "changes": {
                "deltas_emitted": self.deltas_emitted,
                "delta_tuples": self.delta_tuples,
                "delta_bytes": self.delta_bytes,
                "tuples_patched": self.tuples_patched,
                "patch_time": self.patch_time.to_dict(),
                "full_refresh_fallbacks": self.full_refresh_fallbacks,
                "delta_ratio_pct": self.delta_ratio.to_dict(),
            },
            "memory": {
                "total_view_size": self.view_size.to_dict(),
                "view_sizes": {
                    view: stat.to_dict()
                    for view, stat in sorted(self.view_sizes.items())
                },
            },
            "shards": {
                label: dict(summary)
                for label, summary in sorted(self.shard_summaries.items())
            },
        }

    def render(self) -> str:
        """Human-readable multi-line summary (CLI ``stats`` output)."""
        lines = [f"maintenance stats — {self.engine}"]
        lines.append("=" * len(lines[0]))

        def latency_line(label: str, histogram: LatencyHistogram) -> str:
            s = histogram.stat
            if not s.count:
                return f"{label}: none"
            return (
                f"{label}: n={s.count}  mean={s.mean:.3g}s  "
                f"p50<={histogram.percentile(0.5):.3g}s  "
                f"p95<={histogram.percentile(0.95):.3g}s  "
                f"max={s.maximum:.3g}s"
            )

        lines.append(f"updates:  {self.updates}  (batches: {self.batches})")
        lines.append("  " + latency_line("latency", self.update_latency))
        if self.batches:
            lines.append("  " + latency_line("batch latency", self.batch_latency))
        lines.append(
            f"enumerations: {self.enumerations}  "
            f"tuples: {self.tuples_enumerated}"
        )
        if self.tuples_enumerated:
            lines.append("  " + latency_line("delay", self.enum_delay))
        if self.enum_compiled or self.lazy_refreshes:
            lines.append(
                f"enum kernel: {self.enum_compiled} compiled runs, "
                f"{self.enum_guard_probes} guard probes; "
                f"{self.lazy_refreshes} lazy refreshes"
            )
        if self.point_lookups:
            lines.append(
                f"point lookups: {self.point_lookups}  "
                f"(shards probed: {self.lookup_shards_probed})"
            )
        if self.commits or self.submits or self.commit_errors:
            errors = (
                f", {self.commit_errors} failed" if self.commit_errors else ""
            )
            lines.append(
                f"serving: {self.submits} submits -> {self.commits} commits "
                f"({self.size_commits} size / {self.deadline_commits} "
                f"deadline / {self.drain_commits} drain{errors})"
            )
            lines.append(
                "  " + latency_line("commit latency", self.commit_latency)
            )
            if self.commit_batch_size.count:
                lines.append(
                    f"  batch size: mean={self.commit_batch_size.stat.mean:.3g}"
                    f"  p50<={self.commit_batch_size.percentile(0.5):g}"
                    f"  max={self.commit_batch_size.stat.maximum:g}"
                    f"  queue depth p50<="
                    f"{self.commit_queue_depth.percentile(0.5):g}"
                    f"  max={self.commit_queue_depth.stat.maximum:g}"
                )
            if self.backpressure_waits:
                lines.append(
                    f"  backpressure: {self.backpressure_waits} blocked "
                    f"submits, mean wait "
                    f"{self.backpressure_wait.stat.mean:.3g}s"
                )
            if self.serve_lookups:
                s = self.read_staleness
                lines.append(
                    f"  reads: {self.serve_lookups} lookups  "
                    f"staleness mean={s.stat.mean:.3g}s  "
                    f"p50<={s.percentile(0.5):.3g}s  "
                    f"p99<={s.percentile(0.99):.3g}s"
                )
        if self.kernels_generated or self.codegen_fallbacks:
            lines.append(
                f"codegen: {self.kernels_generated} kernels in "
                f"{self.codegen_time_ms:.3g}ms  "
                f"(shape-cache hits: {self.shape_cache_hits}, "
                f"fallbacks: {self.codegen_fallbacks})"
            )
        if self.ipc_rounds or self.ipc_workers_spawned:
            utilization = (
                self.ipc_worker_busy_s / (self.ipc_wall_s * self.ipc_workers)
                if self.ipc_wall_s and self.ipc_workers
                else 0.0
            )
            failures = (
                f"  failures: {self.ipc_worker_failures}"
                if self.ipc_worker_failures
                else ""
            )
            lines.append(
                f"worker ipc: {self.ipc_rounds} round-trips "
                f"({self.ipc_commits} commits)  "
                f"bytes: {self.ipc_bytes_sent} out / "
                f"{self.ipc_bytes_received} in  "
                f"utilization: {utilization:.0%}  "
                f"workers spawned: {self.ipc_workers_spawned}{failures}"
            )
            if self.ipc_commit_bytes.count:
                lines.append(
                    f"  commit bytes: "
                    f"mean={self.ipc_commit_bytes.stat.mean:.3g}"
                    f"  p50<={self.ipc_commit_bytes.percentile(0.5):g}"
                    f"  max={self.ipc_commit_bytes.stat.maximum:g}"
                    f"  stats-merge: {self.ipc_stats_merge_s:.3g}s"
                )
        if self.epochs_published or self.snapshot_reads:
            lines.append(
                f"epochs: {self.epochs_published} published  "
                f"snapshot reads: {self.snapshot_reads}  "
                f"cow: {self.cow_buckets_copied} buckets / "
                f"{self.cow_tables_copied} tables copied  "
                f"output delta tuples: {self.output_delta_tuples}"
            )
            if self.snapshot_reads:
                lines.append(
                    "  " + latency_line(
                        "snapshot read", self.snapshot_read_latency
                    )
                )
        if self.deltas_emitted or self.full_refresh_fallbacks:
            lines.append(
                f"changes: {self.deltas_emitted} deltas "
                f"({self.delta_tuples} tuples, {self.delta_bytes} wire "
                f"bytes)  patched: {self.tuples_patched} tuples  "
                f"full refreshes: {self.full_refresh_fallbacks}"
            )
            if self.patch_time.count:
                lines.append("  " + latency_line("patch", self.patch_time))
            if self.delta_ratio.count:
                lines.append(
                    f"  delta/state ratio: "
                    f"mean={self.delta_ratio.stat.mean:.3g}%  "
                    f"p50<={self.delta_ratio.percentile(0.5):g}%  "
                    f"max={self.delta_ratio.stat.maximum:g}%"
                )
        if self.delta_sizes:
            lines.append("delta sizes per view:")
            for view, stat in sorted(self.delta_sizes.items()):
                lines.append(
                    f"  {view}: n={stat.count}  mean={stat.mean:.3g}  "
                    f"max={stat.maximum:g}"
                )
        if self.view_size.count:
            lines.append(
                f"view size: samples={self.view_size.count}  "
                f"mean={self.view_size.mean:.3g}  "
                f"peak={self.view_size.maximum:g}"
            )
        if self.batch_updates_raw:
            cancelled = self.batch_updates_raw - self.batch_updates_coalesced
            lines.append(
                f"batch kernel: {self.batch_updates_raw} updates -> "
                f"{self.batch_updates_coalesced} coalesced deltas "
                f"({cancelled} cancelled); sibling probes "
                f"{self.sibling_probes} issued, "
                f"{self.sibling_probes_shared} shared"
            )
        if self.migrations or self.repartitions:
            lines.append(
                f"rebalancing: {self.migrations} migrations "
                f"({self.tuples_migrated} tuples), "
                f"{self.repartitions} repartitions"
            )
        if self.ops:
            total = sum(self.ops.values())
            detail = ", ".join(
                f"{kind}={count}" for kind, count in sorted(self.ops.items())
            )
            lines.append(f"elementary ops: {total}  ({detail})")
        if self.shard_summaries:
            lines.append("per-shard maintenance:")
            for label, summary in sorted(self.shard_summaries.items()):
                lines.append(
                    f"  {label}: updates={summary.get('updates', 0)}  "
                    f"batches={summary.get('batches', 0)}  "
                    f"mean={summary.get('update_mean_s', 0.0):.3g}s  "
                    f"ops={summary.get('ops', 0)}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"MaintenanceStats({self.engine!r}, updates={self.updates}, "
            f"enumerations={self.enumerations})"
        )


def merge_stats(stats: Iterable[MaintenanceStats], engine: str = "merged") -> MaintenanceStats:
    """Fold several recorders into one (multi-engine coordinators)."""
    merged = MaintenanceStats(engine=engine)
    for item in stats:
        merged.merge(item)
    return merged
