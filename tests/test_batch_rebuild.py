"""Batch application with the rebuild crossover (propagate vs recompute)."""

from repro.data import Database, Update, counting
from repro.naive import evaluate, evaluate_scalar
from repro.query import parse_query
from repro.viewtree import ViewTreeEngine
from tests.conftest import valid_stream

QUERY = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")


def fresh_engine(rng, rows=150, **kwargs):
    db = Database()
    r = db.create("R", ("Y", "X"))
    s = db.create("S", ("Y", "Z"))
    for _ in range(rows):
        r.insert(rng.randrange(12), rng.randrange(12))
        s.insert(rng.randrange(12), rng.randrange(12))
    return ViewTreeEngine(QUERY, db, **kwargs), db


class TestRebuild:
    def test_rebuild_preserves_state(self, rng):
        engine, db = fresh_engine(rng)
        before = engine.output_relation()
        engine.rebuild()
        assert engine.output_relation() == before

    def test_rebuild_after_direct_leaf_edits(self, rng):
        engine, db = fresh_engine(rng)
        # Emulate a bulk load straight into the leaves: the materialized
        # ones (both here: they sit at free nodes) and the base tables.
        for root in engine.roots:
            for node in root.walk():
                for atom, leaf in node.leaves:
                    assert leaf is not None
                    leaf.insert(0, 0)
                    db[atom.relation].insert(0, 0)
        engine.rebuild()
        assert engine.output_relation() == evaluate(QUERY, db)

    def test_rebuild_reads_base_table_leaves(self, rng):
        """Leaves at bound nodes are the base tables themselves: a bulk
        load into the base is all a rebuild needs."""
        query = parse_query("Q(Y) = R(Y, X) * S(Y, Z)")
        _, db = fresh_engine(rng)
        engine = ViewTreeEngine(query, db)
        for root in engine.roots:
            for node in root.walk():
                for atom, leaf in node.leaves:
                    assert leaf is None
                    db[atom.relation].insert(0, 0)
        engine.rebuild()
        assert engine.output_relation() == evaluate(query, db)


class TestBatchApplication:
    def test_small_batch_propagates(self, rng):
        engine, db = fresh_engine(rng)
        batch = valid_stream(rng, {"R": 2, "S": 2}, 10, domain=12)
        engine.apply_batch(batch, rebuild_factor=2.0)
        assert engine.output_relation() == evaluate(QUERY, db)

    def test_large_batch_rebuilds(self, rng):
        engine, db = fresh_engine(rng, rows=20)
        batch = valid_stream(rng, {"R": 2, "S": 2}, 500, domain=12)
        engine.apply_batch(batch, rebuild_factor=0.5)
        assert engine.output_relation() == evaluate(QUERY, db)

    def test_equivalence_across_modes(self, rng):
        batch = valid_stream(rng, {"R": 2, "S": 2}, 200, domain=10)
        import random

        outputs = []
        for factor in (None, 0.01, 100.0):
            local = random.Random(1)
            engine, _db = fresh_engine(local)
            engine.apply_batch(batch, rebuild_factor=factor)
            outputs.append(engine.output_relation().to_dict())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_rebuild_cheaper_for_database_sized_batches(self, rng):
        """The motivation from the paper's opening paragraph, inverted:
        when the change is NOT small, recomputation beats *per-tuple*
        propagation — and the compiled batch kernel, which coalesces the
        3000 updates down to the ~144 distinct keys they touch, beats
        per-tuple propagation by an even wider margin."""
        import random

        local = random.Random(2)
        engine, _db = fresh_engine(local, rows=50, compile_plans=False)
        big_batch = [
            Update("R", (local.randrange(12), local.randrange(12)), 1)
            for _ in range(3000)
        ]
        with counting() as ops:
            engine.apply_batch(list(big_batch), rebuild_factor=None)
        per_tuple_cost = ops.total()

        local = random.Random(2)
        engine2, _db2 = fresh_engine(local, rows=50)
        with counting() as ops:
            engine2.apply_batch(list(big_batch), rebuild_factor=0.5)
        rebuild_cost = ops.total()

        local = random.Random(2)
        engine3, _db3 = fresh_engine(local, rows=50)
        with counting() as ops:
            engine3.apply_batch(list(big_batch), rebuild_factor=None)
        batch_kernel_cost = ops.total()

        assert rebuild_cost < per_tuple_cost
        assert batch_kernel_cost < per_tuple_cost
        assert engine.output_relation() == engine2.output_relation()
        assert engine.output_relation() == engine3.output_relation()

    def test_crossover_counts_each_relation_once(self, rng):
        """Regression: the heuristic summed every anchored leaf copy, so
        a self-join double-counted its base relation and the crossover
        fired at twice the batch size ``rebuild_factor`` promised."""
        class CountingRebuilds(ViewTreeEngine):
            def rebuild(self):
                self.rebuild_calls = getattr(self, "rebuild_calls", 0) + 1
                super().rebuild()

        query = parse_query("Q() = R(A, B) * R(B, C)")
        db = Database()
        r = db.create("R", ("A", "B"))
        for _ in range(30):
            r.insert(rng.randrange(6), rng.randrange(6))
        engine = CountingRebuilds(query, db)
        n = len(r)
        assert n > 5
        before = getattr(engine, "rebuild_calls", 0)
        # n < |batch| < 2n: rebuilds iff the relation is counted once.
        batch = [
            Update("R", (rng.randrange(6), rng.randrange(6)), 1)
            for _ in range(n + 5)
        ]
        engine.apply_batch(list(batch), rebuild_factor=1.0)
        after = getattr(engine, "rebuild_calls", 0)
        assert after == before + 1, "batch propagated instead of rebuilding"
        assert engine.scalar() == evaluate_scalar(query, db)
