"""Persistent shard workers: delta-only IPC (`repro.shard.worker`).

The tentpole invariant under test: with ``executor="process"`` and the
default ``ipc="delta"``, the coordinator holds no engine replicas —
workers keep all view state resident and the pipe carries only each
shard's slice of the coalesced batch (as columns) out and read results
back; stats cross only when pulled.  Every
read path must stay bit-identical to the serial executor and to the
``ipc="pickle-engine"`` oracle (the old ship-the-engine path).
"""

import random

import pytest

from repro.data import Database, Update
from repro.data.columnar import coalesce_columnar
from repro.naive import evaluate, evaluate_scalar
from repro.query import parse_query
from repro.rings.standard import FloatRing, Z
from repro.serve import update_stream
from repro.shard import (
    ShardRouter,
    ShardWorkerError,
    ShardedEngine,
    decode_columns,
    encode_columns,
)
from tests.conftest import valid_stream

QUERY = parse_query("Q(B, A) = R(B, A) * S(B)")


def fresh_db(rng=None, rows=0, domain=8, ring=Z):
    db = Database(ring=ring)
    db.create("R", ("B", "A"))
    db.create("S", ("B",))
    if rng is not None:
        for _ in range(rows):
            db["R"].insert(rng.randrange(domain), rng.randrange(domain))
            db["S"].insert(rng.randrange(domain))
    return db


# ----------------------------------------------------------------------
# Columnar wire encoding
# ----------------------------------------------------------------------


class TestWireEncoding:
    def test_round_trip_integer_ring(self):
        batch = [
            Update("R", (1, 2), 3),
            Update("R", (1, 2), -1),  # coalesces with the first
            Update("S", (4,), 5),
            Update("R", (0, 0), 1),
        ]
        columns = coalesce_columnar(batch, Z)
        encoded = encode_columns(columns, Z)
        assert all(tag == "py" for _, (tag, _) in encoded.values())
        assert decode_columns(encoded, Z) == {
            "R": ([(1, 2), (0, 0)], [2, 1]),
            "S": ([(4,)], [5]),
        }

    def test_float_payloads_round_trip_bit_identically(self):
        ring = FloatRing()
        # Payloads chosen so any decimal re-parse would drift.
        payloads = [0.1, 1e-9, 3.141592653589793, -2.5000000000000004]
        columns = {"R": ([(i, 0) for i in range(len(payloads))], payloads)}
        encoded = encode_columns(columns, ring)
        assert encoded["R"][1][0] == "np"  # raw float64 bytes on the wire
        keys, got = decode_columns(encoded, ring)["R"]
        assert keys == columns["R"][0]
        for expected, decoded in zip(payloads, got):
            assert decoded == expected  # exact, not approx

    def test_cancelled_updates_never_hit_the_wire(self):
        batch = [Update("R", (7, 7), 1), Update("R", (7, 7), -1)]
        router = ShardRouter(QUERY, "B", 2)
        parts = router.split(coalesce_columnar(batch, Z))
        assert [encode_columns(part, Z) for part in parts] == [{}, {}]


# ----------------------------------------------------------------------
# Differential: delta protocol vs serial executor vs pickle-engine oracle
# ----------------------------------------------------------------------


class TestDeltaDifferential:
    def test_delta_matches_serial_and_pickle_engine(self):
        """Same stream through three coordinators — serial in-process,
        process+delta workers, process+pickle-engine (the old path, kept
        as the differential oracle) — must agree bit-for-bit on every
        read path."""
        stream = valid_stream(random.Random(5), {"R": 2, "S": 1}, 160)
        engines = {
            "serial": ShardedEngine(
                QUERY, fresh_db(random.Random(13), rows=20), shards=3,
                executor="serial",
            ),
            "delta": ShardedEngine(
                QUERY, fresh_db(random.Random(13), rows=20), shards=3,
                executor="process", ipc="delta",
            ),
            "oracle": ShardedEngine(
                QUERY, fresh_db(random.Random(13), rows=20), shards=3,
                executor="process", ipc="pickle-engine",
            ),
        }
        assert engines["delta"].engines == []  # no coordinator replicas
        assert engines["oracle"].engines  # the old path still has them
        try:
            for engine in engines.values():
                engine.apply_batch(stream[:100])
                engine.apply(Update("R", (1, 1), 2))  # inline single update
                engine.apply_batch(stream[100:])
            expected = dict(engines["serial"].enumerate())
            for name in ("delta", "oracle"):
                assert dict(engines[name].enumerate()) == expected
                assert (
                    engines[name].output_relation()
                    == engines["serial"].output_relation()
                )
            for key in list(expected)[:5] + [(99, 99)]:
                payloads = {
                    name: engine.lookup(key)
                    for name, engine in engines.items()
                }
                assert len(set(payloads.values())) == 1, payloads
            assert (
                engines["delta"].total_view_size()
                == engines["serial"].total_view_size()
            )
        finally:
            for engine in engines.values():
                engine.close()

    def test_boolean_scalar_via_workers(self):
        query = parse_query("Q() = R(B, A) * S(B)")
        db = fresh_db(random.Random(2), rows=25)
        with ShardedEngine(
            query, db, shards=2, executor="process", ipc="delta"
        ) as engine:
            assert engine.scalar() == evaluate_scalar(query, db)
            engine.apply(Update("S", (0,), 2))
            assert engine.scalar() == evaluate_scalar(query, db)
            assert dict(engine.enumerate()).get((), 0) == engine.scalar()

    def test_broadcast_apply_goes_through_workers(self):
        """Satellite: broadcast updates (relation without the shard
        variable) must ride the worker protocol — the old process path
        ran them serially against coordinator replicas that no longer
        exist in delta mode."""
        query = parse_query("Q(B, C) = R(B, A) * S(B) * T(C)")
        db = fresh_db(random.Random(4), rows=15)
        db.create("T", ("C",))
        for value in range(4):
            db["T"].insert(value)
        with ShardedEngine(
            query, db, shards=3, shard_variable="B",
            executor="process", ipc="delta",
        ) as engine:
            assert engine.output_relation() == evaluate(query, db)
            engine.apply(Update("T", (9,), 2))  # broadcast single update
            assert engine.output_relation() == evaluate(query, db)
            engine.apply_batch(
                [Update("T", (5,), 1), Update("R", (2, 2), 1)]
            )
            assert engine.output_relation() == evaluate(query, db)

    def test_merged_views_and_describe(self):
        db = fresh_db(random.Random(17), rows=40)
        serial = ShardedEngine(
            QUERY, db.copy(), shards=3, executor="serial"
        )
        with ShardedEngine(
            QUERY, db, shards=3, executor="process", ipc="delta"
        ) as engine:
            engine.apply_batch(
                valid_stream(random.Random(8), {"R": 2, "S": 1}, 60)
            )
            serial.apply_batch(
                valid_stream(random.Random(8), {"R": 2, "S": 1}, 60)
            )
            assert engine.merged_views() == serial.merged_views()
            text = engine.describe()
            assert "process/delta" in text
            assert "worker-resident" in text
        serial.close()


# ----------------------------------------------------------------------
# ipc observability: bytes per commit scale with the batch, not state
# ----------------------------------------------------------------------


class TestIpcObservability:
    def test_bytes_per_commit_flat_as_state_grows(self):
        """Ship 8 same-size batches of fresh keys; resident view state
        grows ~8x while the bytes crossing the pipe per commit stay
        flat.  Under pickle-engine semantics the last commit would ship
        ~8x the first one."""
        db = fresh_db()
        commits = 8
        with ShardedEngine(
            QUERY, db, shards=2, executor="process", ipc="delta"
        ) as engine:
            stats = engine.attach_stats()
            for round_no in range(commits):
                base = round_no * 1000  # disjoint keys: state only grows
                batch = [
                    Update("R", (base + i, i), 1) for i in range(100)
                ] + [Update("S", (base + i,), 1) for i in range(100)]
                engine.apply_batch(batch)
            assert engine.total_view_size() > 0
            assert stats.ipc_commits == commits
            assert stats.ipc_commit_bytes.count == commits
            low = stats.ipc_commit_bytes.stat.minimum
            high = stats.ipc_commit_bytes.stat.maximum
            assert low > 0
            # Identical batch shapes: per-commit wire size is flat (the
            # small wiggle is pickle framing), not proportional to the
            # 8x-grown view state.
            assert high <= 1.5 * low, (low, high)
            assert stats.ipc_workers_spawned == 2
            assert stats.ipc_rounds >= commits
            assert stats.ipc_bytes_sent > 0
            assert stats.ipc_bytes_received > 0

    def test_commit_reply_bytes_small_and_flat(self):
        """An ``apply_columns`` reply carries the worker's busy time and
        nothing else (stats are pulled, not shipped per commit): a few
        dozen bytes per worker, the same while view state grows 8x."""
        db = fresh_db()
        workers = 2
        with ShardedEngine(
            QUERY, db, shards=workers, executor="process", ipc="delta"
        ) as engine:
            stats = engine.attach_stats()
            per_worker = []
            for round_no in range(8):
                base = round_no * 1000  # disjoint keys: state only grows
                batch = [
                    Update("R", (base + i, i), 1) for i in range(100)
                ] + [Update("S", (base + i,), 1) for i in range(100)]
                before = stats.ipc_bytes_received
                engine.apply_batch(batch)
                per_worker.append(
                    (stats.ipc_bytes_received - before) / workers
                )
            assert stats.ipc_commits == 8
            assert engine.total_view_size() >= 8 * 100
            assert max(per_worker) <= 128, per_worker
            assert max(per_worker) - min(per_worker) <= 16, per_worker
            assert stats.ipc_stats_merge_s == 0.0  # nothing pulled yet

    def test_obs_schema_and_render(self):
        db = fresh_db()
        with ShardedEngine(
            QUERY, db, shards=2, executor="process", ipc="delta"
        ) as engine:
            stats = engine.attach_stats()
            engine.apply_batch(
                valid_stream(random.Random(3), {"R": 2, "S": 1}, 80)
            )
            list(engine.enumerate())
            merged = engine.merged_stats()
        payload = stats.to_dict()["ipc"]
        assert payload["commits"] == 1
        assert payload["rounds"] >= 1
        assert payload["bytes_sent"] > 0
        assert payload["bytes_received"] > 0
        assert payload["workers"] == 2
        assert payload["workers_spawned"] == 2
        assert payload["worker_failures"] == 0
        assert 0.0 <= payload["utilization"] <= 1.0
        assert payload["commit_bytes"]["count"] == 1
        assert "worker ipc:" in stats.render()
        # Worker-side maintenance stats delta made it back to the
        # per-shard recorders the merged view labels.
        assert set(merged.shard_summaries) == {"shard0", "shard1"}
        assert all(
            summary["batches"] >= 1
            for summary in merged.shard_summaries.values()
        )


def _deterministic_counters(merged):
    """The recorder counters that do not depend on timing."""
    summaries = {
        label: {
            key: summary[key]
            for key in (
                "batches",
                "batch_updates_raw",
                "batch_updates_coalesced",
                "sibling_probes",
            )
        }
        for label, summary in merged.shard_summaries.items()
    }
    delta_counts = {
        view: stat.count for view, stat in merged.delta_sizes.items()
    }
    return summaries, delta_counts


class TestPullOnlyStats:
    def test_process_counters_match_serial_before_and_after_close(self):
        """Workers ship stats only when pulled; the pulled totals must
        equal what serial shards record in-process — both for counters
        pulled by ``merged_stats`` and for those still unpulled when
        ``close`` shuts the workers down."""
        stream = valid_stream(random.Random(21), {"R": 2, "S": 1}, 300)
        batches = [stream[i:i + 50] for i in range(0, len(stream), 50)]
        engines = {
            executor: ShardedEngine(
                QUERY, fresh_db(random.Random(13), rows=20), shards=3,
                executor=executor,
            )
            for executor in ("serial", "process")
        }
        try:
            for engine in engines.values():
                engine.attach_stats()
                for batch in batches[:4]:
                    engine.apply_batch(batch)
            expected = _deterministic_counters(
                engines["serial"].merged_stats()
            )
            summaries, delta_counts = expected
            assert set(summaries) == {"shard0", "shard1", "shard2"}
            assert all(s["batches"] == 4 for s in summaries.values())
            assert sum(delta_counts.values()) > 0
            process = engines["process"]
            assert _deterministic_counters(process.merged_stats()) == expected
            # A second pull adds nothing already pulled.
            assert _deterministic_counters(process.merged_stats()) == expected

            # Commits after the last pull reach the coordinator through
            # the shutdown replies.
            for engine in engines.values():
                for batch in batches[4:]:
                    engine.apply_batch(batch)
            expected = _deterministic_counters(
                engines["serial"].merged_stats()
            )
            assert all(
                s["batches"] == len(batches) for s in expected[0].values()
            )
            process.close()
            assert _deterministic_counters(process.merged_stats()) == expected
        finally:
            for engine in engines.values():
                engine.close()


# ----------------------------------------------------------------------
# Worker crashes (satellite): clear error, counted, pool rebuilds
# ----------------------------------------------------------------------


class TestWorkerCrash:
    def test_crash_surfaces_counts_and_pool_rebuilds(self):
        db = fresh_db()
        serial = ShardedEngine(
            QUERY, fresh_db(), shards=3, executor="serial"
        )
        batches = [
            valid_stream(random.Random(seed), {"R": 2, "S": 1}, 60)
            for seed in (1, 2, 3)
        ]
        with ShardedEngine(
            QUERY, db, shards=3, executor="process", ipc="delta"
        ) as engine:
            stats = engine.attach_stats()
            engine.apply_batch(batches[0])
            first_pool = engine._worker_pool
            assert first_pool is not None and not first_pool.broken

            # Kill one worker out from under the pool, mid-life.
            first_pool.workers[1].process.kill()
            first_pool.workers[1].process.join(5.0)
            with pytest.raises(ShardWorkerError, match="shard worker 1"):
                engine.apply_batch(batches[1])
            assert first_pool.broken
            assert stats.ipc_worker_failures == 1
            assert stats.to_dict()["ipc"]["worker_failures"] == 1

            # The failed batch's base writes committed before the crash,
            # so the rebuilt workers (respawned from the authoritative
            # base database) include it — nothing is lost or doubled.
            engine.apply_batch(batches[2])
            assert engine._worker_pool is not first_pool
            assert not engine._worker_pool.broken
            assert stats.ipc_workers_spawned == 6  # 3 at birth + 3 rebuilt

            # Stats are pulled, not shipped per commit.  The surviving
            # workers handed theirs over at shutdown when the pool was
            # rebuilt (batches 0 and 1), then their successors added
            # batch 2.  The killed worker's counters since the last pull
            # (batch 0) died with it.
            summaries = engine.merged_stats().shard_summaries
            assert summaries["shard0"]["batches"] == 3
            assert summaries["shard2"]["batches"] == 3
            assert summaries["shard1"]["batches"] == 1

            for batch in batches:
                serial.apply_batch(batch)
            assert dict(engine.enumerate()) == dict(serial.enumerate())
            assert engine.output_relation() == evaluate(QUERY, db)
        serial.close()

    def test_remote_error_in_a_round_keeps_pipes_in_step(self):
        """A remote error from one worker of a round is raised only
        after every other worker's reply is read — a reply left in a
        pipe would answer that worker's next command."""
        db = fresh_db()
        with ShardedEngine(
            QUERY, db, shards=2, executor="process", ipc="delta"
        ) as engine:
            engine.apply_batch([Update("R", (1, 2), 3), Update("S", (1,), 5)])
            pool = engine._worker_pool
            with pytest.raises(ShardWorkerError, match="unknown worker"):
                pool.round([("no_such_command",), ("pull_stats",)])
            assert not pool.broken
            sizes = [
                pool.call(shard, ("total_view_size",)).payload
                for shard in range(2)
            ]
            assert sum(sizes) == engine.total_view_size() > 0

    def test_remote_error_does_not_break_the_pool(self):
        """An application-level error inside a worker (bad command)
        raises in the parent but leaves the pool healthy — only
        transport failures force a rebuild."""
        db = fresh_db()
        with ShardedEngine(
            QUERY, db, shards=2, executor="process", ipc="delta"
        ) as engine:
            stats = engine.attach_stats()
            engine.apply(Update("R", (1, 2), 3))
            pool = engine._worker_pool
            with pytest.raises(ShardWorkerError, match="unknown worker"):
                pool.call(0, ("no_such_command",))
            assert not pool.broken
            assert stats.ipc_worker_failures == 0
            engine.apply(Update("S", (1,), 5))  # same pool still serves
            assert engine._worker_pool is pool
            assert engine.lookup((1, 2)) == 15


# ----------------------------------------------------------------------
# Lifecycle (satellite): teardown, pickling, configuration
# ----------------------------------------------------------------------


class TestWorkerLifecycle:
    def test_close_terminates_workers_and_keeps_stats(self):
        db = fresh_db()
        engine = ShardedEngine(
            QUERY, db, shards=2, executor="process", ipc="delta"
        )
        engine.attach_stats()
        engine.apply_batch(valid_stream(random.Random(9), {"R": 2, "S": 1}, 40))
        processes = [w.process for w in engine._worker_pool.workers]
        assert all(p.is_alive() for p in processes)
        engine.close()
        assert engine._worker_pool is None
        for process in processes:
            process.join(5.0)
            assert not process.is_alive()
        # The shutdown replies shipped each worker's final stats delta.
        merged = engine.merged_stats()
        assert set(merged.shard_summaries) == {"shard0", "shard1"}
        engine.close()  # idempotent

    def test_context_manager_tears_down(self):
        db = fresh_db()
        with ShardedEngine(
            QUERY, db, shards=2, executor="process", ipc="delta"
        ) as engine:
            engine.apply(Update("R", (0, 0), 1))
            processes = [w.process for w in engine._worker_pool.workers]
        for process in processes:
            process.join(5.0)
            assert not process.is_alive()

    def test_coordinator_pickles_without_pool(self):
        import pickle

        db = fresh_db(random.Random(1), rows=10)
        with ShardedEngine(
            QUERY, db, shards=2, executor="process", ipc="delta"
        ) as engine:
            engine.attach_stats()
            engine.apply(Update("R", (3, 3), 2))
            blob = pickle.dumps(engine)
            expected = dict(engine.enumerate())
        clone = pickle.loads(blob)
        try:
            assert clone._worker_pool is None  # respawns lazily
            # Pickling pulled the workers' stats into the copy.
            summaries = clone.merged_stats().shard_summaries
            assert sum(s["updates"] for s in summaries.values()) == 1
            assert dict(clone.enumerate()) == expected
        finally:
            clone.close()

    def test_single_shard_stays_in_process(self):
        db = fresh_db()
        with ShardedEngine(
            QUERY, db, shards=1, executor="process", ipc="delta"
        ) as engine:
            assert not engine._delta_ipc
            assert len(engine.engines) == 1
            engine.apply(Update("R", (1, 1), 1))
            assert engine._worker_pool is None

    def test_invalid_ipc_mode_rejected(self):
        with pytest.raises(ValueError, match="ipc"):
            ShardedEngine(QUERY, fresh_db(), shards=2, ipc="carrier-pigeon")
