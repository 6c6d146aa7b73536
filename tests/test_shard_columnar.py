"""The columnar sharded commit, differential against a plain engine.

Every executor commits a batch through one pipeline: coalesce once,
write the base tables in bulk, split the columns by shard, and apply
each shard's slice with ``ViewTreeEngine.apply_column_batch``.  The
result must be exactly what a plain ``ViewTreeEngine`` reaches on the
same batches: same base tables, same merged views, same output.
"""

import json
import random
import sys

import pytest

from repro.cli import main
from repro.data import Database, Update
from repro.data.columnar import NUMPY_MIN_BATCH
from repro.naive import evaluate
from repro.query import parse_query
from repro.rings.standard import FloatRing, Z
from repro.shard import ShardedEngine, stable_hash
from repro.viewtree import ViewTreeEngine
from tests.conftest import valid_stream

EXECUTORS = ["serial", "thread", "process"]

#: name -> (query, schemas, shard variable)
CASES = {
    # R and S partition on B; T carries no B and broadcasts.
    "broadcast": (
        "Q(B, A, C) = R(B, A) * S(B) * T(C)",
        {"R": ("B", "A"), "S": ("B",), "T": ("C",)},
        "B",
    ),
    # The self-join binds B at column 1 and column 0 of R, so R
    # broadcasts while S partitions.
    "self_join": (
        "Q(A, B, C) = R(A, B) * R(B, C) * S(B)",
        {"R": ("A", "B"), "S": ("B",)},
        "B",
    ),
}


def seeded_db(schemas, seed, ring=Z, rows=12, domain=6):
    rng = random.Random(seed)
    db = Database(ring=ring)
    for name, schema in schemas.items():
        relation = db.create(name, schema)
        for _ in range(rows):
            key = tuple(rng.randrange(domain) for _ in schema)
            relation.add(key, ring.one)
    return db


def batches_with_cancellations(schemas, seed, count=4, size=60):
    """Valid batches, each also carrying updates that cancel inside it."""
    rng = random.Random(seed)
    arities = {name: len(schema) for name, schema in schemas.items()}
    stream = valid_stream(rng, arities, count * size, domain=6)
    batches = []
    for index in range(count):
        batch = stream[index * size:(index + 1) * size]
        for name, arity in arities.items():
            ghost = Update(name, tuple(100 + i for i in range(arity)), 1)
            batch = [ghost] + batch + [ghost.inverted(Z)]
        batches.append(batch)
    return batches


def assert_same_state(sharded, plain, sharded_db, plain_db):
    for name in plain_db.relations:
        assert sharded_db[name].data == plain_db[name].data, name
    output = sharded.output_relation()
    assert output.to_dict() == plain.output_relation().to_dict()
    assert output == evaluate(plain.query, plain_db)
    merged = sharded.merged_views()
    for root in plain.roots:
        for node in root.walk():
            assert merged[f"V_{node.variable}"] == node.view, node.variable


class TestColumnarCommitDifferential:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("rebuild_factor", [None, 0.2])
    def test_matches_plain_engine(self, executor, case, shards, rebuild_factor):
        text, schemas, variable = CASES[case]
        query = parse_query(text)
        plain_db = seeded_db(schemas, 7)
        sharded_db = seeded_db(schemas, 7)
        plain = ViewTreeEngine(query, plain_db)
        with ShardedEngine(
            query, sharded_db, shards=shards, shard_variable=variable,
            executor=executor,
        ) as sharded:
            for batch in batches_with_cancellations(schemas, 11):
                plain.apply_batch(batch, rebuild_factor=rebuild_factor)
                sharded.apply_batch(batch, rebuild_factor=rebuild_factor)
                assert_same_state(sharded, plain, sharded_db, plain_db)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_float_numpy_payloads_bit_identical(self, executor):
        """Batches large enough for the numpy coalesce path, payloads
        that drift under any re-parse: every float must match exactly."""
        text, schemas, variable = CASES["broadcast"]
        query = parse_query(text)
        ring = FloatRing()
        plain_db = seeded_db(schemas, 3, ring=ring)
        sharded_db = seeded_db(schemas, 3, ring=ring)
        plain = ViewTreeEngine(query, plain_db)
        rng = random.Random(5)
        weights = [0.1, 1e-3, 3.141592653589793, 2.5000000000000004]
        batches = []
        for _ in range(3):
            batch = []
            for _ in range(2 * NUMPY_MIN_BATCH):
                name = rng.choice(sorted(schemas))
                key = tuple(rng.randrange(6) for _ in schemas[name])
                batch.append(Update(name, key, rng.choice(weights)))
            batches.append(batch)
        with ShardedEngine(
            query, sharded_db, shards=2, shard_variable=variable,
            executor=executor,
        ) as sharded:
            for batch in batches:
                plain.apply_batch(batch)
                sharded.apply_batch(batch)
            for name in schemas:
                assert sharded_db[name].data == plain_db[name].data
            expected = dict(plain.enumerate())
            assert expected
            assert dict(sharded.enumerate()) == expected

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_uncompiled_shards_take_columns(self, executor):
        text, schemas, variable = CASES["broadcast"]
        query = parse_query(text)
        plain_db = seeded_db(schemas, 9)
        sharded_db = seeded_db(schemas, 9)
        plain = ViewTreeEngine(query, plain_db)
        with ShardedEngine(
            query, sharded_db, shards=2, shard_variable=variable,
            executor=executor, compile_plans=False, codegen=False,
        ) as sharded:
            for batch in batches_with_cancellations(schemas, 13, count=2):
                plain.apply_batch(batch)
                sharded.apply_batch(batch)
            assert_same_state(sharded, plain, sharded_db, plain_db)


    def test_thread_shards_share_broadcast_columns_under_switching(self):
        """Thread shards read the same broadcast column lists at once.
        More shards than cores and a tiny switch interval interleave
        them as often as possible; a shard that mutated or consumed a
        shared column would leave the others with wrong views."""
        text, schemas, variable = CASES["self_join"]
        query = parse_query(text)
        plain_db = seeded_db(schemas, 21)
        sharded_db = seeded_db(schemas, 21)
        plain = ViewTreeEngine(query, plain_db)
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ShardedEngine(
                query, sharded_db, shards=6, shard_variable=variable,
                executor="thread", max_workers=6,
            ) as sharded:
                for batch in batches_with_cancellations(schemas, 23, count=6):
                    plain.apply_batch(batch)
                    sharded.apply_batch(batch)
                    assert_same_state(sharded, plain, sharded_db, plain_db)
        finally:
            sys.setswitchinterval(old_interval)


class TestEqualKeysRouteTogether:
    QUERY = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")

    def test_equal_values_hash_alike(self):
        assert len({stable_hash(v) for v in (0, 0.0, -0.0, False)}) == 1
        assert len({stable_hash(v) for v in (1, 1.0, True)}) == 1
        assert stable_hash(1.5) != stable_hash(1)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_delete_by_equal_key_of_another_type(self, executor):
        db = Database()
        db.create("R", ("Y", "X"))
        db.create("S", ("Y", "Z"))
        with ShardedEngine(self.QUERY, db, shards=4, executor=executor) as engine:
            engine.apply_batch([Update("R", (1, 2), 1), Update("S", (1, 3), 1)])
            assert dict(engine.enumerate()) == {(1, 2, 3): 1}
            engine.apply_batch([Update("R", (True, 2), -1)])
            assert len(db["R"]) == 0
            rebuilt = ViewTreeEngine(self.QUERY, db).output_relation()
            assert engine.output_relation() == rebuilt
            assert dict(engine.enumerate()) == {}
            engine.apply_batch([Update("R", (1.0, 4), 1)])
            assert dict(engine.enumerate()) == {(1, 4, 3): 1}


class TestCoalesceCountsOnce:
    QUERY = "Q(Y,X,Z) = R(Y,X) * S(Y,Z)"

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_sharded_counts_match_plain(self, executor):
        query = parse_query(self.QUERY)
        schemas = {"R": ("Y", "X"), "S": ("Y", "Z")}
        plain = ViewTreeEngine(query, seeded_db(schemas, 1))
        plain_stats = plain.attach_stats()
        with ShardedEngine(
            query, seeded_db(schemas, 1), shards=4, executor=executor
        ) as sharded:
            sharded.attach_stats()
            for batch in batches_with_cancellations(schemas, 2, count=3):
                plain.apply_batch(batch)
                sharded.apply_batch(batch)
            merged = sharded.merged_stats()
        assert plain_stats.batch_updates_raw == 3 * (60 + 4)
        assert merged.batch_updates_raw == plain_stats.batch_updates_raw
        assert (
            merged.batch_updates_coalesced
            == plain_stats.batch_updates_coalesced
        )
        assert merged.batch_updates_coalesced < merged.batch_updates_raw

    def test_cli_stats_agree_with_and_without_shards(self, tmp_path, capsys):
        counts = []
        for shards in ("1", "4"):
            path = tmp_path / f"stats{shards}.json"
            code = main([
                "stats", self.QUERY, "--updates", "800", "--prefill", "20",
                "--workload", "sliding-window", "--window", "128",
                "--batch-size", "64", "--shards", shards, "--json", str(path),
            ])
            assert code == 0
            with open(path) as handle:
                batch = json.load(handle)["stats"]["batch"]
            counts.append((batch["raw_updates"], batch["coalesced_updates"]))
        capsys.readouterr()
        assert counts[0] == counts[1]
        assert counts[0][0] == 800 > counts[0][1]
