"""Sharded parallel view-tree maintenance: router, column splitter, engine."""

import pickle
import random

import pytest

from repro.data import Database, Update
from repro.naive import evaluate, evaluate_scalar
from repro.query import parse_query
from repro.shard import (
    ShardLeafFilter,
    ShardRouter,
    ShardedEngine,
    choose_shard_variable,
    stable_hash,
)
from repro.viewtree import ViewTreeEngine
from tests.conftest import valid_stream

QUERY = parse_query("Q(B, A) = R(B, A) * S(B)")


def fresh_db(rng=None, rows=0, domain=8):
    db = Database()
    db.create("R", ("B", "A"))
    db.create("S", ("B",))
    if rng is not None:
        for _ in range(rows):
            db["R"].insert(rng.randrange(domain), rng.randrange(domain))
            db["S"].insert(rng.randrange(domain))
    return db


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash((1, "x")) == stable_hash((1, "x"))
        assert stable_hash("a") != stable_hash("b")

    def test_matches_subprocess(self):
        # The whole point: routing must agree across processes, which
        # Python's seeded hash() does not guarantee.
        import subprocess
        import sys

        script = (
            "import sys; sys.path.insert(0, 'src'); "
            "from repro.shard import stable_hash; "
            "print(stable_hash('hot-key'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=__file__.rsplit("/tests/", 1)[0],
            env={"PYTHONHASHSEED": "12345"},
        )
        assert out.returncode == 0, out.stderr
        assert int(out.stdout.strip()) == stable_hash("hot-key")


class TestChooseShardVariable:
    def test_most_covering_wins(self):
        assert choose_shard_variable(QUERY) == "B"

    def test_tie_breaks_lexicographically(self):
        query = parse_query("Q(A, B) = R(A) * S(B)")
        assert choose_shard_variable(query) == "A"

    def test_no_variables_rejected(self):
        query = parse_query("Q() = R()")
        with pytest.raises(ValueError):
            choose_shard_variable(query)


class TestShardRouter:
    def test_positions_and_partitioning(self):
        router = ShardRouter(QUERY, "B", 4)
        assert router.positions == {"R": 0, "S": 0}
        assert router.is_partitioned("R") and router.is_partitioned("S")
        assert set(router.partitioned_relations()) == {"R", "S"}

    def test_relation_without_variable_broadcasts(self):
        query = parse_query("Q(A) = R(A, B) * T(C)")
        router = ShardRouter(query, "B", 2)
        assert router.positions == {"R": 1, "T": None}
        assert router.shard_of(Update("T", (7,), 1)) is None

    def test_inconsistent_self_join_broadcasts(self):
        query = parse_query("Q() = R(A, B) * R(B, C)")
        router = ShardRouter(query, "B", 2)
        assert router.positions == {"R": None}

    def test_consistent_self_join_partitions(self):
        query = parse_query("Q() = R(B, A) * R(B, C)")
        router = ShardRouter(query, "B", 2)
        assert router.positions == {"R": 0}

    def test_routing_is_stable_and_in_range(self):
        router = ShardRouter(QUERY, "B", 3)
        for value in range(50):
            owner = router.shard_of(Update("R", (value, 0), 1))
            assert owner == router.shard_of_key("S", (value,))
            assert 0 <= owner < 3

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter(QUERY, "Z", 2)
        with pytest.raises(ValueError):
            ShardRouter(QUERY, "B", 0)

    def test_leaf_filter_selects_one_slice(self):
        router = ShardRouter(QUERY, "B", 2)
        filters = [ShardLeafFilter(router, i) for i in range(2)]
        for value in range(20):
            kept = [f("R", (value, 0)) for f in filters]
            assert kept.count(True) == 1  # exactly one owner


class TestSplitBatch:
    """``ShardRouter.split``: the column splitter behind every commit."""

    QUERY_T = parse_query("Q(A) = R(A, B) * T(C)")

    def test_partitions_and_broadcasts(self):
        router = ShardRouter(self.QUERY_T, "A", 3)
        keys = [(i, 0) for i in range(6)]
        t_column = ([(9,)], [1])
        columns = {"R": (keys, [1] * 6), "T": t_column}
        parts = router.split(columns)
        assert len(parts) == 3
        owned = 0
        for index, part in enumerate(parts):
            r_keys, r_payloads = part.get("R", ([], []))
            assert all(
                router.shard_of_key("R", key) == index for key in r_keys
            )
            assert len(r_keys) == len(r_payloads)
            owned += len(r_keys)
            # the broadcast column reaches every shard, unchanged
            assert part["T"] is t_column
        assert owned == 6

    def test_preserves_order_within_shard(self):
        router = ShardRouter(QUERY, "B", 2)
        keys = [(0, i) for i in range(5)]
        parts = router.split({"R": (keys, list(range(5)))})
        owner = router.shard_of_key("R", (0, 0))
        assert parts[owner]["R"] == (keys, [0, 1, 2, 3, 4])
        assert parts[1 - owner] == {}

    def test_every_key_lands_on_one_shard_in_range(self):
        keys = [(value, 0) for value in range(40)]
        for shards in (2, 3, 5):
            router = ShardRouter(QUERY, "B", shards)
            parts = router.split({"R": (keys, [1] * len(keys))})
            assert len(parts) == shards
            landed = [key for part in parts for key in part.get("R", ([],))[0]]
            assert sorted(landed) == keys

    def test_single_shard_never_hashes(self, monkeypatch):
        import repro.shard.router as router_module

        def boom(value):
            raise AssertionError("hashed with one shard")

        monkeypatch.setattr(router_module, "stable_hash", boom)
        columns = {"R": ([(1, 2)], [1]), "S": ([(1,)], [1])}
        [part] = ShardRouter(QUERY, "B", 1).split(columns)
        assert part["R"] is columns["R"] and part["S"] is columns["S"]

    def test_each_value_hashed_once_per_commit(self, monkeypatch):
        import repro.shard.router as router_module

        calls = []
        real = router_module.stable_hash

        def counting_hash(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(router_module, "stable_hash", counting_hash)
        router = ShardRouter(QUERY, "B", 4)
        columns = {
            "R": ([(v % 3, i) for i, v in enumerate(range(30))], [1] * 30),
            "S": ([(0,), (1,), (2,), (True,)], [1] * 4),
        }
        router.split(columns)
        assert sorted(calls) == [0, 1, 2]


class TestShardedEngine:
    def run_stream(self, engine, db, rng, n=120):
        arities = {"R": 2, "S": 1}
        for update in valid_stream(rng, arities, n, domain=8):
            db_rel = db[update.relation]
            engine.apply(update)
            assert db_rel.get(update.key) is not None or True
        return engine

    def test_serial_matches_plain(self):
        rng = random.Random(3)
        db = fresh_db(rng, rows=30)
        plain = ViewTreeEngine(QUERY, fresh_db(random.Random(3), rows=30))
        with ShardedEngine(QUERY, db, shards=3, executor="serial") as engine:
            for update in valid_stream(random.Random(7), {"R": 2, "S": 1}, 80):
                engine.apply(update)
                plain.apply(update)
            assert dict(engine.enumerate()) == dict(plain.enumerate())
            assert engine.output_relation() == evaluate(QUERY, db)

    def test_thread_executor_batches(self):
        rng = random.Random(11)
        db = fresh_db(rng, rows=20)
        batch = valid_stream(random.Random(5), {"R": 2, "S": 1}, 200)
        with ShardedEngine(QUERY, db, shards=4, executor="thread") as engine:
            engine.apply_batch(batch)
            assert engine.output_relation() == evaluate(QUERY, db)

    def test_process_executor_batches(self):
        db = fresh_db(random.Random(13), rows=10)
        batch = valid_stream(random.Random(5), {"R": 2, "S": 1}, 60)
        with ShardedEngine(QUERY, db, shards=2, executor="process") as engine:
            engine.apply_batch(batch[:30])
            # interleave a single update between batches: the adopted
            # worker-side engines must keep accepting inline updates
            engine.apply(Update("R", (1, 1), 1))
            engine.apply_batch(batch[30:])
            engine.apply(Update("R", (1, 1), -1))
            assert engine.output_relation() == evaluate(QUERY, db)

    def test_engines_are_picklable(self):
        db = fresh_db(random.Random(1), rows=15)
        with ShardedEngine(QUERY, db, shards=2, executor="serial") as engine:
            for shard in engine.engines:
                clone = pickle.loads(pickle.dumps(shard))
                assert clone.output_relation() == shard.output_relation()

    def test_boolean_query_scalar(self):
        query = parse_query("Q() = R(B, A) * S(B)")
        db = fresh_db(random.Random(2), rows=25)
        with ShardedEngine(query, db, shards=3, executor="serial") as engine:
            assert engine.scalar() == evaluate_scalar(query, db)
            engine.apply(Update("S", (0,), 2))
            assert engine.scalar() == evaluate_scalar(query, db)
            assert dict(engine.enumerate()).get((), 0) == engine.scalar()

    def test_lookup(self):
        db = fresh_db()
        with ShardedEngine(QUERY, db, shards=2, executor="serial") as engine:
            engine.apply(Update("R", (1, 2), 3))
            engine.apply(Update("S", (1,), 5))
            assert engine.lookup((1, 2)) == 15
            assert engine.lookup((1, 9)) == 0
            with pytest.raises(ValueError):
                engine.lookup((1,))

    def test_merged_views_match_plain_engine(self):
        rng = random.Random(17)
        db = fresh_db(rng, rows=40)
        plain = ViewTreeEngine(QUERY, db.copy())
        with ShardedEngine(QUERY, db, shards=3, executor="serial") as engine:
            merged = engine.merged_views()
            for root in plain.roots:
                for node in root.walk():
                    assert merged[f"V_{node.variable}"] == node.view

    def test_broadcast_only_component(self):
        # T carries no B: its whole subtree replicates across shards and
        # must be merged by taking one copy, not summed N times.
        query = parse_query("Q(B, C) = R(B, A) * S(B) * T(C)")
        db = fresh_db(random.Random(4), rows=15)
        db.create("T", ("C",))
        for value in range(4):
            db["T"].insert(value)
        with ShardedEngine(
            query, db, shards=3, shard_variable="B", executor="serial"
        ) as engine:
            assert engine.output_relation() == evaluate(query, db)
            engine.apply(Update("T", (9,), 2))
            assert engine.output_relation() == evaluate(query, db)

    def test_merged_stats_labels(self):
        db = fresh_db(random.Random(6), rows=10)
        with ShardedEngine(QUERY, db, shards=2, executor="serial") as engine:
            engine.attach_stats()
            engine.apply_batch(valid_stream(random.Random(8), {"R": 2, "S": 1}, 40))
            list(engine.enumerate())
            stats = engine.merged_stats()
        assert set(stats.shard_summaries) == {"shard0", "shard1"}
        payload = stats.to_dict()
        assert set(payload["shards"]) == {"shard0", "shard1"}
        assert any(view.startswith("shard") for view in payload["delta_sizes"])
        # the coordinator counts each logical batch exactly once
        assert stats.batches == 1

    def test_invalid_configuration_rejected(self):
        db = fresh_db()
        with pytest.raises(ValueError):
            ShardedEngine(QUERY, db, shards=0)
        with pytest.raises(ValueError):
            ShardedEngine(QUERY, db, shards=2, executor="fibers")
        with pytest.raises(ValueError):
            ShardedEngine(QUERY, db, shards=2, shard_variable="Z")

    def test_describe_mentions_routing(self):
        db = fresh_db()
        with ShardedEngine(QUERY, db, shards=2, executor="serial") as engine:
            text = engine.describe()
        assert "shard" in text and "B" in text
