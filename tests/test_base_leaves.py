"""View-tree leaves served from the base table.

A leaf is materialized as a private copy only when something reads it:
at a free node (enumeration, guards and lookups walk it), next to
another source at its node (sibling deltas probe it), or under a shard
engine's leaf filter.  Every other leaf is the base relation itself, so
each committed tuple is written once.  These tests pin which leaves are
materialized, differential-test engines with base-table leaves against
``repro.naive`` over every apply, rebuild, snapshot and pickle path, and
check that the generated sinks' bulk index postings leave exactly the
index state per-tuple ``Relation.add`` leaves.  Also pinned: inline
``+`` in ``Relation.add_delta`` / ``coalesce_columnar``, and no group
index over a relation's whole schema.
"""

from __future__ import annotations

import itertools
import pickle
import random

import pytest

from repro.cascade import CascadeEngine
from repro.cli import main as cli_main
from repro.cqap import CQAPEngine
from repro.data import Database, Update, counting
from repro.data.columnar import coalesce_columnar
from repro.data.opcounter import COUNTER
from repro.data.relation import Relation
from repro.naive import evaluate
from repro.naive.algebra import join_pair
from repro.query import parse_query, search_order
from repro.rings import PROVENANCE, R, Z
from repro.rings.provenance import Polynomial
from repro.rings.standard import IntegerRing
from repro.shard import ShardedEngine
from repro.viewtree import ViewTreeEngine
from repro.workloads.retailer import (
    retailer_database,
    retailer_query,
    retailer_update_stream,
)

from tests.conftest import valid_stream

FANOUT = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
SHARED_NODE = parse_query("Q(A) = R(A, B) * S(A, B)")
SELF_JOIN = parse_query("Q(B) = E(A, B) * E(B, C)")
MIXED = parse_query("Q(A, C) = R(A, B) * S(A, C) * T(A, D)")
BOOLEAN = parse_query("Q() = R(A, B) * S(A, C)")


def seeded_db(query, rng, rows=40, domain=6, ring=Z):
    db = Database(ring=ring)
    for atom in query.atoms:
        if atom.relation in db:
            continue
        relation = db.create(atom.relation, atom.variables)
        for _ in range(rows):
            key = tuple(rng.randrange(domain) for _ in atom.variables)
            relation.add(key, ring.one)
    return db


def leaves(engine):
    """``{str(atom): materialized?}`` over the whole tree."""
    return {
        str(atom): leaf is not None
        for root in engine.roots
        for node in root.walk()
        for atom, leaf in node.leaves
    }


def stream_for(query, rng, count, domain=6):
    arities = {atom.relation: len(atom.variables) for atom in query.atoms}
    return valid_stream(rng, arities, count, domain=domain, delete_prob=0.4)


def retailer_stream(count, seed):
    """Retailer inserts with valid deletes: each retracts one live row."""
    rng = random.Random(seed)
    live: list = []
    stream = []
    for update in retailer_update_stream(count, seed=seed):
        stream.append(update)
        live.append(update)
        if rng.random() < 0.25:
            victim = live.pop(rng.randrange(len(live)))
            stream.append(Update(victim.relation, victim.key, -victim.payload))
    return stream


def expected(engine):
    query = engine.query
    truth = evaluate(query, engine.database)
    if query.head:
        return truth.to_dict()
    return truth.to_dict().get((), 0)


def output(engine):
    if engine.query.head:
        return engine.output_relation().to_dict()
    return engine.scalar()


# ----------------------------------------------------------------------
# Which leaves are materialized
# ----------------------------------------------------------------------


class TestWhichLeavesAreMaterialized:
    def test_retailer_serves_every_leaf_from_the_base_table(self):
        db = retailer_database(inventory_rows=300)
        engine = ViewTreeEngine(retailer_query(), db)
        assert list(leaves(engine).values()) == [False] * 5
        text = engine.describe()
        assert text.count(" base table") == 5
        assert "materialized" not in text
        # describe() reports the base table's size for such a leaf.
        assert f"size={len(db['Inventory'])} base table" in text
        # total_view_size counts materialized state only.
        views = sum(
            len(node.view) + (len(node.guard) if node.guard is not None else 0)
            for root in engine.roots
            for node in root.walk()
        )
        assert engine.total_view_size() == views

    def test_fanout_keeps_its_free_leaves(self):
        engine = ViewTreeEngine(FANOUT, seeded_db(FANOUT, random.Random(1)))
        assert leaves(engine) == {"R(Y, X)": True, "S(Y, Z)": True}
        assert engine.describe().count("materialized (free node)") == 2

    def test_leaves_sharing_a_bound_node_are_probed(self):
        engine = ViewTreeEngine(
            SHARED_NODE, seeded_db(SHARED_NODE, random.Random(2))
        )
        assert leaves(engine) == {"R(A, B)": True, "S(A, B)": True}
        assert engine.describe().count("materialized (sibling probe)") == 2

    def test_shard_engines_materialize_every_leaf(self):
        query = retailer_query()
        db = retailer_database(inventory_rows=300)
        with ShardedEngine(query, db, shards=2, executor="serial") as sharded:
            for engine in sharded.engines:
                assert all(leaves(engine).values())
                assert engine.describe().count("(shard filter)") == 5

    def test_self_join_anchors_both_read_the_base_table(self):
        engine = ViewTreeEngine(SELF_JOIN, seeded_db(SELF_JOIN, random.Random(3)))
        assert leaves(engine) == {"E(A, B)": False, "E(B, C)": False}
        anchors = engine._anchors["E"]
        assert [leaf for _atom, _node, leaf in anchors] == [None, None]
        assert [plan.leaf for plan in engine._plans["E"]] == [None, None]
        assert [plan.arity for plan in engine._plans["E"]] == [2, 2]

    def test_mixed_tree(self):
        engine = ViewTreeEngine(MIXED, seeded_db(MIXED, random.Random(4)))
        assert leaves(engine) == {
            "R(A, B)": False, "S(A, C)": True, "T(A, D)": False
        }

    def test_explain_prints_the_leaves(self, capsys):
        assert cli_main(["explain", str(retailer_query())]) == 0
        text = capsys.readouterr().out
        assert "-- view tree --" in text
        assert text.count(" base table") == 5


# ----------------------------------------------------------------------
# Differential checks against repro.naive
# ----------------------------------------------------------------------

QUERIES = [FANOUT, SHARED_NODE, SELF_JOIN, MIXED, BOOLEAN]
VARIANTS = [
    {},
    {"compile_plans": False},
    {"codegen": False},
]


def engine_for(query, seed, **kwargs):
    return ViewTreeEngine(query, seeded_db(query, random.Random(seed)), **kwargs)


@pytest.mark.parametrize("kwargs", VARIANTS, ids=["codegen", "generic", "interpreted"])
@pytest.mark.parametrize("query", QUERIES, ids=str)
class TestDifferential:
    def test_apply(self, query, kwargs):
        engine = engine_for(query, 10, **kwargs)
        for i, update in enumerate(stream_for(query, random.Random(11), 200)):
            engine.apply(update)
            if i % 50 == 49:
                assert output(engine) == expected(engine)

    def test_apply_batch(self, query, kwargs):
        engine = engine_for(query, 12, **kwargs)
        stream = stream_for(query, random.Random(13), 300)
        for start in range(0, len(stream), 37):
            engine.apply_batch(stream[start : start + 37])
            assert output(engine) == expected(engine)

    def test_rebuild_factor_and_rebuild(self, query, kwargs):
        engine = engine_for(query, 14, **kwargs)
        stream = stream_for(query, random.Random(15), 300)
        # A tiny factor rebuilds on every batch; a huge one never does.
        for start, factor in zip(range(0, 300, 60), itertools.cycle((0.01, 1e9))):
            engine.apply_batch(stream[start : start + 60], rebuild_factor=factor)
            assert output(engine) == expected(engine)
        before = output(engine)
        engine.rebuild()
        assert output(engine) == before == expected(engine)

    def test_snapshot_reads_hold_the_published_state(self, query, kwargs):
        engine = engine_for(query, 16, **kwargs)
        stream = stream_for(query, random.Random(17), 200)
        engine.apply_batch(stream[:100])
        published = expected(engine)
        snap = engine.publish_epoch()
        engine.apply_batch(stream[100:])
        if query.head:
            assert dict(engine.enumerate_snapshot(snap=snap)) == published
            for key, payload in list(published.items())[:10]:
                assert engine.lookup_snapshot(key, snap) == payload
        else:
            assert engine.scalar_snapshot(snap) == published
        assert output(engine) == expected(engine)

    def test_pickle_round_trip(self, query, kwargs):
        engine = engine_for(query, 18, **kwargs)
        stream = stream_for(query, random.Random(19), 200)
        engine.apply_batch(stream[:100])
        clone = pickle.loads(pickle.dumps(engine))
        assert output(clone) == expected(clone)
        for update in stream[100:150]:
            clone.apply(update)
        clone.apply_batch(stream[150:])
        assert output(clone) == expected(clone)
        clone.rebuild()
        assert output(clone) == expected(clone)


class TestUpdateBaseFalseCallers:
    """CQAP and cascade engines write the shared base tables themselves
    and apply with ``update_base=False``: their base-table leaves must
    see those writes, including on rebuild."""

    def test_cqap(self):
        query = parse_query("Q(A | B) = R(A, B, D) * T(B, C)")
        full = parse_query("F(A, B) = R(A, B, D) * T(B, C)")
        db = Database()
        db.create("R", ("X", "Y", "Z"))
        db.create("T", ("X", "Y"))
        engine = CQAPEngine(query, db)
        assert not any(
            materialized for tree in engine.engines
            for materialized in leaves(tree).values()
        )
        stream = valid_stream(random.Random(20), {"R": 3, "T": 2}, 300, domain=4)
        for start in range(0, len(stream), 50):
            chunk = stream[start : start + 50]
            if start % 100:
                engine.apply_batch(chunk)
            else:
                for update in chunk:
                    engine.apply(update)
            truth = evaluate(full, db).to_dict()
            for b in range(4):
                want = {(a,): p for (a, bb), p in truth.items() if bb == b}
                assert dict(engine.answer({"B": b})) == want
        for tree in engine.engines:
            tree.rebuild()
        truth = evaluate(full, db).to_dict()
        for b in range(4):
            want = {(a,): p for (a, bb), p in truth.items() if bb == b}
            assert dict(engine.answer({"B": b})) == want

    def test_cascade(self):
        q1 = parse_query("Q1(B) = R(A, B) * S(B, C) * T(B, D)")
        q2 = parse_query("Q2(B) = R(A, B) * S(B, C)")
        db = Database()
        for name in "RST":
            db.create(name, ("X", "Y"))
        engine = CascadeEngine(q1, q2, db)
        assert not any(leaves(engine.q2_engine).values())
        assert leaves(engine.q1_engine)["T(B, D)"] is False
        stream = valid_stream(random.Random(21), {"R": 2, "S": 2, "T": 2}, 300)
        for i, update in enumerate(stream):
            engine.apply(update)
            if i % 60 == 59:
                assert dict(engine.enumerate_q2()) == evaluate(q2, db).to_dict()
                assert dict(engine.enumerate_q1()) == evaluate(q1, db).to_dict()
        engine.q1_engine.rebuild()
        engine.q2_engine.rebuild()
        assert dict(engine.enumerate_q2()) == evaluate(q2, db).to_dict()
        assert dict(engine.enumerate_q1()) == evaluate(q1, db).to_dict()

    def test_retailer_stream(self):
        db = retailer_database(inventory_rows=500)
        engine = ViewTreeEngine(retailer_query(), db)
        stream = retailer_stream(1200, seed=5)
        for start in range(0, len(stream), 300):
            engine.apply_batch(stream[start : start + 300])
        assert output(engine) == expected(engine)
        engine.rebuild()
        assert output(engine) == expected(engine)


# ----------------------------------------------------------------------
# Generated sinks post index changes in bulk
# ----------------------------------------------------------------------


def _per_tuple_add_delta(self, entries):
    """``Relation.add_delta`` as one ``Relation.add`` per entry."""
    writes = 0
    for key, payload in entries:
        if not self.ring.is_zero(payload):
            self.add(key, payload)
            writes += 1
    return writes


def _state(engine):
    """Every view and guard: entries and index layout, in order."""
    state = {}
    for root in engine.roots:
        for node in root.walk():
            for relation in (node.view, node.guard):
                if relation is None:
                    continue
                state[relation.name] = (
                    list(relation.data.items()),
                    {
                        group_vars: [
                            (group, list(bucket))
                            for group, bucket in index.groups.items()
                        ]
                        for group_vars, index in relation._indexes.items()
                    },
                )
    return state


def _cow_copied(engine):
    return {
        (relation.name, group_vars): index._cow_copied
        for root in engine.roots
        for node in root.walk()
        for relation in (node.view, node.guard)
        if relation is not None
        for group_vars, index in relation._indexes.items()
    }


SINK_QUERIES = [
    (retailer_query(), None),
    (FANOUT, None),
    (MIXED, None),
    (parse_query("Q(A, B, C) = E(A, B) * E(B, C)"), "search"),
]


@pytest.mark.parametrize("query,order", SINK_QUERIES, ids=str)
def test_generated_sinks_match_per_tuple_add(query, order, monkeypatch):
    """Generated kernels (bulk postings) against interpreted plans whose
    view/guard writes are one ``Relation.add`` per entry: same entries,
    same group and bucket order, same bucket copy-on-write counts across
    a publish, same frozen snapshot."""
    if order == "search":
        order = search_order(query, require_free_top=True)
    if query is SINK_QUERIES[0][0]:
        def make_db():
            return retailer_database(inventory_rows=300)

        stream = retailer_stream(900, seed=7)
    else:
        # A wide domain, so keys keep entering and leaving the indexes.
        def make_db():
            return seeded_db(query, random.Random(22), rows=10, domain=30)

        stream = stream_for(query, random.Random(23), 900, domain=30)
    generated = ViewTreeEngine(query, make_db(), order)
    reference = ViewTreeEngine(query, make_db(), order, codegen=False)
    assert generated.codegen and not reference.codegen

    def run(engine, batch):
        with monkeypatch.context() as patch:
            if engine is reference:
                patch.setattr(Relation, "add_delta", _per_tuple_add_delta)
            engine.apply_batch(batch)

    copied = 0
    for number, start in enumerate(range(0, len(stream), 150)):
        batch = stream[start : start + 150]
        run(generated, batch)
        run(reference, batch)
        assert _state(generated) == _state(reference)
        if number == 2:
            snaps = (generated.publish_epoch(), reference.publish_epoch())
            frozen = _state(generated)
        if number == 4:
            assert _cow_copied(generated) == _cow_copied(reference)
            copied = sum(_cow_copied(generated).values())
    assert copied > 0  # the publish really made the sinks copy buckets
    if query.head:
        assert list(generated.enumerate_snapshot(snap=snaps[0])) == list(
            reference.enumerate_snapshot(snap=snaps[1])
        )
    assert frozen != _state(generated)


class _Boom(Exception):
    pass


class _TrippedZ(IntegerRing):
    """Integers whose addition raises when a sum reaches 1000.

    No ``add_operator``, so generated kernels call :meth:`add` — the test
    hook for a ring operation raising in the middle of a sink.
    """

    add_operator = None

    def add(self, a, b):
        if a + b == 1000:
            raise _Boom
        return a + b


def _indexes_agree(relation):
    for group_vars, index in relation._indexes.items():
        project = relation.schema.projector(group_vars)
        rebuilt: dict = {}
        for key in relation.data:
            rebuilt.setdefault(project(key), set()).add(key)
        assert {g: set(b) for g, b in index.groups.items()} == rebuilt


@pytest.mark.parametrize(
    "text,rows,keys,pays,target",
    [
        # Aggregating sink: V_C (indexed on A for enumeration) gains
        # (0, 5) and (0, 6), then (0, 1) sums to 1000.
        ("Q(A, B) = R(A, B, C)", {"R": {(0, 1, 1): 1}},
         [(0, 5, 1), (0, 6, 1), (0, 1, 2)], [1, 1, 999], "V_C"),
        # Fused guard write: G_Y (indexed on ()) gains (5,) and (6,),
        # then (0,) sums 500 + 500.
        ("Q(Y, X, Z) = R(Y, X) * S(Y, Z)",
         {"R": {(0, 0): 1, (1, 0): 1},
          "S": {(0, 0): 500, (1, 0): 1, (5, 0): 1, (6, 0): 1}},
         [(5, 1), (6, 1), (0, 1)], [1, 1, 1], "G_Y"),
    ],
    ids=["agg-sink", "fused-guard"],
)
def test_generated_sink_postings_survive_a_raising_ring_op(
    text, rows, keys, pays, target
):
    """Indexes stay in step with the entries a sink already wrote when
    a ring operation raises mid-sink (postings flushed in ``finally``)."""
    query = parse_query(text)
    db = Database(ring=_TrippedZ())
    for atom in query.atoms:
        relation = db.create(atom.relation, atom.variables)
        for key, payload in rows.get(atom.relation, {}).items():
            relation.add(key, payload)
    engine = ViewTreeEngine(query, db)
    assert engine.codegen
    kernel = engine._kernels["R"][0]
    written = {
        relation.name: relation
        for root in engine.roots
        for node in root.walk()
        for relation in (node.view, node.guard)
        if relation is not None
    }
    before = len(written[target])
    assert written[target]._indexes
    with pytest.raises(_Boom):
        kernel.push_batch(keys, pays)
    assert len(written[target]) == before + 2  # written before the raise
    for relation in written.values():
        _indexes_agree(relation)


# ----------------------------------------------------------------------
# Inline ``+`` folds and whole-schema groups
# ----------------------------------------------------------------------


RINGS = [
    (Z, lambda rng: rng.choice((-2, -1, 1, 2, 3))),
    (R, lambda rng: rng.choice((-1.5, -0.25, 0.25, 0.1, 2.0))),
    (PROVENANCE, lambda rng: Polynomial.variable(f"t{rng.randrange(4)}")),
]


@pytest.mark.parametrize("ring,payload", RINGS, ids=["Z", "R", "provenance"])
def test_add_delta_inline_plus_matches_per_tuple_add(ring, payload):
    rng = random.Random(31)
    for _ in range(3):
        fused = Database(ring=ring).create("T", ("A", "B"))
        loop = Database(ring=ring).create("T", ("A", "B"))
        for relation in (fused, loop):
            relation.index_on(("A",))
        for _ in range(4):
            batch = [
                ((rng.randrange(4), rng.randrange(4)), payload(rng))
                for _ in range(40)
            ]
            with counting() as fused_ops:
                fused.add_delta(batch)
            with counting() as loop_ops:
                for key, value in batch:
                    loop.add(key, value)
            assert fused_ops.counts == loop_ops.counts
            assert list(fused.data.items()) == list(loop.data.items())
            assert [
                (type(v), repr(v)) for v in fused.data.values()
            ] == [(type(v), repr(v)) for v in loop.data.values()]


@pytest.mark.parametrize("ring,payload", RINGS, ids=["Z", "R", "provenance"])
def test_coalesce_columnar_fold_matches_ring_add(ring, payload):
    rng = random.Random(32)
    # Below the numpy threshold, so the pure-Python fold runs.
    batch = [
        Update(rng.choice("PQ"), (rng.randrange(3),), payload(rng))
        for _ in range(40)
    ]
    folded: dict = {}
    for update in batch:
        deltas = folded.setdefault(update.relation, {})
        previous = deltas.get(update.key)
        deltas[update.key] = (
            update.payload if previous is None
            else ring.add(previous, update.payload)
        )
    want = {
        name: (
            [k for k, v in deltas.items() if not ring.is_zero(v)],
            [v for v in deltas.values() if not ring.is_zero(v)],
        )
        for name, deltas in folded.items()
    }
    want = {name: cols for name, cols in want.items() if cols[0]}
    got = coalesce_columnar(batch, ring)
    assert list(got) == list(want)
    for name in want:
        assert got[name][0] == want[name][0]
        assert [repr(v) for v in got[name][1]] == [repr(v) for v in want[name][1]]


class TestWholeSchemaGroups:
    def test_group_items_on_the_whole_schema_is_one_probe(self):
        rng = random.Random(33)
        relation = Database().create("T", ("A", "B", "C"))
        for _ in range(60):
            relation.insert(*(rng.randrange(4) for _ in range(3)))
        for variables in itertools.permutations(("A", "B", "C")):
            indexed = relation.copy()
            index = indexed.index_on(variables)
            for _ in range(20):
                group_key = tuple(rng.randrange(4) for _ in variables)
                with counting() as direct_ops:
                    direct = list(relation.group_items(variables, group_key))
                with counting() as index_ops:
                    # The index path and its accounting: one lookup,
                    # one enumeration step per member.
                    via_index = [
                        (key, indexed.data[key])
                        for key in index.keys_in_group(group_key)
                    ]
                    COUNTER.bump("lookup")
                    for _ in via_index:
                        COUNTER.bump("enum")
                assert direct == via_index
                assert direct_ops.counts == index_ops.counts
        assert not relation._indexes

    def test_join_pair_output_and_counts_unchanged(self):
        rng = random.Random(34)
        left = Database().create("L", ("A", "B", "C"))
        right = Database().create("R", ("B", "A"))
        for _ in range(50):
            left.insert(*(rng.randrange(4) for _ in range(3)))
        for _ in range(8):
            right.insert(rng.randrange(4), rng.randrange(4))
        indexed = right.copy()
        indexed.index_on(("B", "A"))  # what the build used to leave
        with counting() as ops:
            joined = join_pair(left, right, Z)
        assert not right._indexes
        assert list(joined.data.items()) == list(
            join_pair(left, indexed, Z).data.items()
        )
        assert ops.total() > 0

    @pytest.mark.parametrize("query", [retailer_query(), FANOUT], ids=str)
    def test_no_view_or_guard_indexes_its_whole_schema(self, query):
        if query is FANOUT:
            def make_db():
                return seeded_db(query, random.Random(35))

            stream = stream_for(query, random.Random(36), 400)
            keys = [(y, x, z) for y in range(3) for x in range(3) for z in range(3)]
        else:
            def make_db():
                return retailer_database(inventory_rows=500)

            stream = retailer_stream(400, seed=9)
            keys = [(l, d, k) for l in range(3) for d in range(3) for k in range(3)]
        engine = ViewTreeEngine(query, make_db())
        engine.apply_batch(stream)
        drained = list(engine.enumerate())
        for key in keys:
            engine.lookup(key)
        for root in engine.roots:
            for node in root.walk():
                for relation in (node.view, node.guard):
                    if relation is None:
                        continue
                    for group_vars in relation._indexes:
                        assert set(group_vars) != set(relation.schema.variables), (
                            relation.name, group_vars
                        )
        generic = ViewTreeEngine(query, make_db(), compile_enum=False)
        generic.apply_batch(stream)
        assert drained == list(generic.enumerate())
        assert dict(drained) == evaluate(query, engine.database).to_dict()
