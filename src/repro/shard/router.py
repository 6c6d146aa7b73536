"""Shard routing: hash-partitioning update streams by one join variable.

The view trees of Sections 3.2 and 4.1 maintain every view by
key-partitioned group updates: the delta for a tuple with join-key value
``v`` only ever touches view entries whose key agrees with ``v``.  Hash
shards of the join key therefore maintain *disjoint* slices of every
view, which makes view-tree maintenance embarrassingly parallel — the
F-IVM execution model run once per shard.

The router decides, per relation, where an update goes:

* if every atom over the relation binds the shard variable at the same
  column, the relation is **partitioned**: a tuple belongs to the shard
  hashing its value at that column;
* otherwise (the relation does not contain the shard variable, or a
  self-join binds it at inconsistent columns) the relation is
  **broadcast**: every shard keeps its full contents, and every update to
  it is replayed on every shard.

Hashing uses a content-stable hash (not Python's seeded ``hash``), so a
stream routes identically across processes and runs — differential
shard-invariance tests and the process-pool executor both rely on that.
Routing works on columns: :meth:`ShardRouter.split` partitions a
coalesced batch's per-relation key/payload lists in bulk, hashing each
distinct shard-variable value once per commit.
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional

from ..data.update import Update
from ..query.ast import Query

#: Per-relation parallel key/payload lists (``coalesce_columnar`` output).
Columns = dict[str, tuple[list, list]]


def stable_hash(value: Any) -> int:
    """A process-stable 64-bit hash of one attribute value.

    ``PYTHONHASHSEED`` randomizes ``hash`` per process; routing must not
    depend on it, so values are hashed through their ``repr`` instead.
    Values that compare equal must route together — they are the same
    dict key in every base relation and view — so ``bool`` and integral
    ``float`` values are normalized to ``int`` first (``True``, ``1.0``
    and ``1`` hash alike; so do ``0``, ``0.0``, ``-0.0`` and ``False``).
    """
    if isinstance(value, float):
        if value.is_integer():
            value = int(value)
    elif isinstance(value, bool):
        value = int(value)
    data = repr(value).encode("utf-8", "backslashreplace")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def choose_shard_variable(query: Query) -> str:
    """Default shard variable: the one covering the most atoms.

    The more atoms bind the shard variable, the more relations partition
    instead of broadcasting — ties break lexicographically so the choice
    is deterministic.
    """
    counts: dict[str, int] = {}
    for atom in query.atoms:
        for variable in set(atom.variables):
            counts[variable] = counts.get(variable, 0) + 1
    if not counts:
        raise ValueError(f"query {query.name} has no variables to shard on")
    return min(counts, key=lambda variable: (-counts[variable], variable))


class ShardRouter:
    """Routes updates and base tuples to hash shards of one variable."""

    __slots__ = ("shard_variable", "shards", "positions")

    def __init__(self, query: Query, shard_variable: str, shards: int):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if shard_variable not in query.variables():
            raise ValueError(
                f"shard variable {shard_variable!r} does not occur in "
                f"query {query.name}"
            )
        self.shard_variable = shard_variable
        self.shards = shards
        #: relation name -> column of the shard variable, or None (broadcast).
        self.positions: dict[str, Optional[int]] = {}
        for atom in query.atoms:
            if shard_variable in atom.variables:
                position: Optional[int] = atom.variables.index(shard_variable)
            else:
                position = None
            if atom.relation not in self.positions:
                self.positions[atom.relation] = position
            elif self.positions[atom.relation] != position:
                # Self-join binding the shard variable inconsistently:
                # partitioning by either column would starve the other
                # atom's leaf, so fall back to broadcasting.
                self.positions[atom.relation] = None

    def is_partitioned(self, relation: str) -> bool:
        """True when the relation hash-partitions (vs broadcasts)."""
        return self.positions.get(relation) is not None

    def partitioned_relations(self) -> tuple[str, ...]:
        return tuple(
            name for name, position in self.positions.items() if position is not None
        )

    def shard_of_key(self, relation: str, key: tuple) -> Optional[int]:
        """Owning shard of one base tuple; ``None`` means broadcast."""
        position = self.positions.get(relation)
        if position is None:
            return None
        return stable_hash(key[position]) % self.shards

    def shard_of(self, update: Update) -> Optional[int]:
        """Owning shard of one update; ``None`` means broadcast."""
        return self.shard_of_key(update.relation, update.key)

    def split(self, columns: Columns) -> list[Columns]:
        """Partition coalesced per-relation columns into per-shard columns.

        ``columns`` is ``{relation: (keys, payloads)}`` as produced by
        :func:`~repro.data.columnar.coalesce_columnar`.  A partitioned
        relation's entries go to the shard owning the value at its shard
        column, keeping their relative order; a broadcast relation's
        column pair is handed to every shard unchanged (the same list
        objects — consumers only read them).  Each distinct
        shard-variable value is hashed at most once per call, and a
        single shard takes everything without hashing at all.
        """
        shards = self.shards
        parts: list[Columns] = [{} for _ in range(shards)]
        owner_of: dict = {}
        for relation, column in columns.items():
            keys, payloads = column
            position = self.positions.get(relation)
            if position is None or shards == 1:
                for part in parts:
                    part[relation] = column
                continue
            split_keys: list[list] = [[] for _ in range(shards)]
            split_payloads: list[list] = [[] for _ in range(shards)]
            for key, payload in zip(keys, payloads):
                # Equal values share one memo slot (dict equality), and
                # stable_hash normalizes them to the same hash.
                value = key[position]
                owner = owner_of.get(value)
                if owner is None:
                    owner = owner_of[value] = stable_hash(value) % shards
                split_keys[owner].append(key)
                split_payloads[owner].append(payload)
            for part, owned_keys, owned_payloads in zip(
                parts, split_keys, split_payloads
            ):
                if owned_keys:
                    part[relation] = (owned_keys, owned_payloads)
        return parts

    def __repr__(self) -> str:
        return (
            f"ShardRouter(variable={self.shard_variable!r}, "
            f"shards={self.shards}, positions={self.positions!r})"
        )


class ShardLeafFilter:
    """``(relation, key) -> bool`` predicate selecting one shard's slice.

    Passed to :class:`~repro.viewtree.engine.ViewTreeEngine` as
    ``leaf_filter``; a named picklable class so whole engines can ship to
    process-pool workers.
    """

    __slots__ = ("router", "shard")

    def __init__(self, router: ShardRouter, shard: int):
        self.router = router
        self.shard = shard

    def __call__(self, relation: str, key: tuple) -> bool:
        owner = self.router.shard_of_key(relation, key)
        return owner is None or owner == self.shard
