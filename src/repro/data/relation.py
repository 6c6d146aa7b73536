"""Relations over rings: hash maps with group indexes.

Section 2's data-structure contract, implemented literally:

* a relation is a hash map from key tuples to non-zero ring payloads, with
  amortized O(1) lookup, insert, and delete, and constant-delay enumeration
  of its entries;
* for a subset ``S`` of the schema, a :class:`GroupIndex` enumerates with
  constant delay all tuples that agree on a given projection onto ``S``,
  with amortized O(1) index maintenance per relation update.

Entries whose payload becomes zero are removed, so ``len(relation)`` is
always the number of tuples with non-zero payload.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping

from ..rings.base import Semiring
from ..rings.standard import Z
from .opcounter import COUNTER
from .schema import Schema


class GroupIndex:
    """Secondary index grouping a relation's keys by a schema subset.

    Stores plain position tuples rather than a projection closure, so
    indexed relations stay picklable (process-pool sharding ships whole
    engines between processes).
    """

    __slots__ = ("group_vars", "_positions", "groups", "_cow", "_owned", "_cow_copied")

    def __init__(self, schema: Schema, group_vars: tuple[str, ...]):
        self.group_vars = group_vars
        self._positions = schema.positions(group_vars)
        # group key -> dict used as an insertion-ordered set of full keys
        self.groups: dict[tuple, dict[tuple, None]] = {}
        # Copy-on-write state for epoch snapshots (see share_version):
        # _cow marks the whole ``groups`` dict as shared with a published
        # snapshot; once privatized, _owned tracks which buckets have been
        # copied (None = not in bucket-COW mode at all).
        self._cow = False
        self._owned: set | None = None
        self._cow_copied = 0

    def _project(self, key: tuple) -> tuple:
        return tuple(key[i] for i in self._positions)

    def share_version(self) -> tuple[dict, int]:
        """Freeze ``groups`` for a snapshot; return ``(groups, buckets_copied)``.

        After this call the returned mapping (and every bucket in it) is
        never mutated in place: the next :meth:`add`/:meth:`remove` copies
        the top-level dict, and each touched bucket is copied once before
        its first post-publish write.  The counter reports buckets copied
        since the previous call (copy-on-write cost of the closing epoch)
        and resets.
        """
        copied = self._cow_copied
        self._cow_copied = 0
        self._cow = True
        self._owned = None
        return self.groups, copied

    def add(self, key: tuple) -> None:
        group_key = tuple(key[i] for i in self._positions)
        if self._cow:
            self.groups = dict(self.groups)
            self._cow = False
            self._owned = set()
        groups = self.groups
        owned = self._owned
        bucket = groups.get(group_key)
        if bucket is None:
            groups[group_key] = {key: None}
            if owned is not None:
                owned.add(group_key)
            return
        if owned is not None and group_key not in owned:
            bucket = dict(bucket)
            groups[group_key] = bucket
            owned.add(group_key)
            self._cow_copied += 1
        bucket[key] = None

    def remove(self, key: tuple) -> None:
        group_key = tuple(key[i] for i in self._positions)
        if self._cow:
            self.groups = dict(self.groups)
            self._cow = False
            self._owned = set()
        groups = self.groups
        bucket = groups.get(group_key)
        if bucket is None:
            return
        owned = self._owned
        if owned is not None and group_key not in owned:
            bucket = dict(bucket)
            groups[group_key] = bucket
            owned.add(group_key)
            self._cow_copied += 1
        bucket.pop(key, None)
        if not bucket:
            del groups[group_key]
            if owned is not None:
                owned.discard(group_key)

    def apply_postings(self, postings: list[tuple[tuple, bool]]) -> None:
        """Apply ordered ``(key, inserted)`` postings in one loop.

        Equivalent to :meth:`add` (``inserted``) or :meth:`remove` once
        per posting, in order — same bucket and group insertion order,
        same bucket-level copy-on-write and ``_cow_copied`` count — but
        the top-level COW check runs once per call, the hot locals bind
        once, and group keys are projected without a generator.  This is
        the index side of :meth:`Relation.add_delta`.
        """
        if not postings:
            return
        if self._cow:
            self.groups = dict(self.groups)
            self._cow = False
            self._owned = set()
        groups = self.groups
        get = groups.get
        owned = self._owned
        positions = self._positions
        if len(positions) == 1:
            position = positions[0]
            group_keys = [(key[position],) for key, _ in postings]
        elif positions:
            project = itemgetter(*positions)
            group_keys = [project(key) for key, _ in postings]
        else:
            group_keys = [()] * len(postings)
        copied = 0
        for group_key, (key, inserted) in zip(group_keys, postings):
            bucket = get(group_key)
            if bucket is None:
                if inserted:
                    groups[group_key] = {key: None}
                    if owned is not None:
                        owned.add(group_key)
                continue
            if owned is not None and group_key not in owned:
                bucket = dict(bucket)
                groups[group_key] = bucket
                owned.add(group_key)
                copied += 1
            if inserted:
                bucket[key] = None
                continue
            bucket.pop(key, None)
            if not bucket:
                del groups[group_key]
                if owned is not None:
                    owned.discard(group_key)
        self._cow_copied += copied

    def clear(self) -> None:
        if self._cow:
            self.groups = {}
            self._cow = False
            self._owned = set()
        else:
            self.groups.clear()

    def copy(self) -> "GroupIndex":
        """Structural copy sharing no mutable state with the original."""
        clone = object.__new__(GroupIndex)
        clone.group_vars = self.group_vars
        clone._positions = self._positions
        clone.groups = {
            group_key: dict(bucket) for group_key, bucket in self.groups.items()
        }
        clone._cow = False
        clone._owned = None
        clone._cow_copied = 0
        return clone

    def keys_in_group(self, group_key: tuple) -> Iterator[tuple]:
        bucket = self.groups.get(group_key)
        if bucket is not None:
            yield from bucket

    def group_size(self, group_key: tuple) -> int:
        bucket = self.groups.get(group_key)
        return len(bucket) if bucket is not None else 0

    def group_keys(self) -> Iterator[tuple]:
        """All distinct group keys with at least one member."""
        return iter(self.groups)

    def __len__(self) -> int:
        return len(self.groups)


class Relation:
    """A finite map from key tuples to non-zero ring payloads."""

    __slots__ = (
        "name",
        "schema",
        "ring",
        "data",
        "_indexes",
        "_cow",
        "_cow_copied",
        "_dirty",
    )

    def __init__(
        self,
        name: str,
        schema: Schema | Iterable[str],
        ring: Semiring = Z,
        data: Mapping[tuple, Any] | None = None,
    ):
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.name = name
        self.schema = schema
        self.ring = ring
        self.data: dict[tuple, Any] = {}
        self._indexes: dict[tuple[str, ...], GroupIndex] = {}
        # Copy-on-write state for epoch snapshots: _cow marks ``data`` as
        # shared with a published snapshot; the first mutation afterwards
        # copies the dict (counted in _cow_copied) before writing.
        self._cow = False
        self._cow_copied = 0
        # Opt-in write-time change oracle (see track_dirty): the set of
        # keys written since the last drain, or None when disabled so the
        # hot write paths pay only a None test.
        self._dirty: set | None = None
        if data:
            for key, payload in data.items():
                self.add(key, payload)

    # ------------------------------------------------------------------
    # Epoch snapshots (copy-on-write)
    # ------------------------------------------------------------------

    def _unshare(self) -> None:
        """Privatize the payload dict before the first post-publish write."""
        self.data = dict(self.data)
        self._cow = False
        self._cow_copied += 1

    def share_version(self) -> tuple[dict, dict, int, int]:
        """Freeze the current contents for an epoch snapshot.

        Returns ``(data, groups, buckets_copied, tables_copied)``:
        ``data`` is the live payload dict and ``groups`` maps each group
        index's variables to its bucket dict.  After this call the
        returned dicts are never mutated in place — the next write copies
        the payload dict (and each touched index bucket) first — so any
        holder of the returned references keeps seeing exactly the frozen
        state, including insertion order.  The trailing counters report
        copy-on-write work performed since the previous call (the cost of
        the epoch that just closed) and reset.
        """
        tables_copied = self._cow_copied
        self._cow_copied = 0
        self._cow = True
        groups: dict[tuple[str, ...], dict] = {}
        buckets_copied = 0
        for group_vars, index in self._indexes.items():
            shared, copied = index.share_version()
            groups[group_vars] = shared
            buckets_copied += copied
        return self.data, groups, buckets_copied, tables_copied

    # ------------------------------------------------------------------
    # Dirty-key tracking (output change streams)
    # ------------------------------------------------------------------

    def track_dirty(self) -> None:
        """Start recording the keys of every subsequent write.

        The COW machinery alone cannot serve as a change oracle at key
        granularity: an index bucket that empties is discarded from the
        owned set, and payload-only updates never touch the indexes at
        all.  Tracking is opt-in (``_dirty`` stays ``None`` otherwise) so
        untracked relations pay one ``None`` test per write.
        """
        if self._dirty is None:
            self._dirty = set()

    def drain_dirty(self) -> set:
        """Return the keys written since the last drain and reset the set.

        Only meaningful after :meth:`track_dirty`; raises otherwise so a
        missing enablement surfaces as a hard error, not an empty delta.
        """
        dirty = self._dirty
        if dirty is None:
            raise RuntimeError(
                f"relation {self.name!r} is not tracking dirty keys"
            )
        self._dirty = set()
        return dirty

    # ------------------------------------------------------------------
    # Lookups and enumeration
    # ------------------------------------------------------------------

    def get(self, key: tuple) -> Any:
        """Payload of ``key``; the ring zero when absent."""
        COUNTER.bump("lookup")
        return self.data.get(key, self.ring.zero)

    def __contains__(self, key: tuple) -> bool:
        COUNTER.bump("lookup")
        return key in self.data

    def items(self) -> Iterator[tuple[tuple, Any]]:
        """Enumerate (key, payload) entries with constant delay."""
        for entry in self.data.items():
            COUNTER.bump("enum")
            yield entry

    def keys(self) -> Iterator[tuple]:
        for key in self.data:
            COUNTER.bump("enum")
            yield key

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[tuple]:
        return self.keys()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add(self, key: tuple, payload: Any) -> Any:
        """Ring-add ``payload`` to the entry at ``key``; return new payload.

        Entries reaching the ring zero are removed, together with their
        index postings, in amortized constant time.
        """
        ring = self.ring
        if ring.is_zero(payload):
            return self.data.get(key, ring.zero)
        if self._cow:
            self._unshare()
        if self._dirty is not None:
            self._dirty.add(key)
        COUNTER.bump("write")
        old = self.data.get(key)
        if old is None:
            self.data[key] = payload
            for index in self._indexes.values():
                index.add(key)
            return payload
        new = ring.add(old, payload)
        if ring.is_zero(new):
            del self.data[key]
            for index in self._indexes.values():
                index.remove(key)
            return ring.zero
        self.data[key] = new
        return new

    def add_delta(self, entries: Iterable[tuple[tuple, Any]]) -> int:
        """Ring-add many ``(key, payload)`` pairs in one fused pass.

        Semantically identical to calling :meth:`add` once per pair —
        zero payloads are skipped, entries cancelling to the ring zero
        are removed together with their index postings — but the hot
        locals (data dict, ring ops) bind once for the whole delta, the
        write accounting is one bulk ``COUNTER`` bump, and the index
        postings (``(key, inserted)`` in write order) go to each
        :class:`GroupIndex` as one list (:meth:`GroupIndex.apply_postings`).
        This is the leaf/base/view sink of the compiled batch kernel.

        Returns the number of entries written (the op count bumped).
        """
        ring = self.ring
        is_zero = ring.is_zero
        ring_add = ring.add
        # Inline the zero test for exact-zero rings (see Semiring.exact_zero)
        # and the addition for rings whose ``add`` is Python ``+`` (see
        # Semiring.add_operator): one bytecode instead of a Python call
        # per entry.
        exact = ring.exact_zero
        plus = ring.add_operator == "+"
        zero = ring.zero
        if self._cow:
            self._unshare()
        data = self.data
        dirty = self._dirty
        postings: list | None = [] if self._indexes else None
        writes = 0
        try:
            for key, payload in entries:
                if (payload == zero) if exact else is_zero(payload):
                    continue
                writes += 1
                if dirty is not None:
                    dirty.add(key)
                old = data.get(key)
                if old is None:
                    data[key] = payload
                    if postings is not None:
                        postings.append((key, True))
                    continue
                new = (old + payload) if plus else ring_add(old, payload)
                if (new == zero) if exact else is_zero(new):
                    del data[key]
                    if postings is not None:
                        postings.append((key, False))
                else:
                    data[key] = new
        finally:
            # Post even when an entry raises mid-delta, so the indexes
            # always agree with the entries already written.
            if postings:
                for index in self._indexes.values():
                    index.apply_postings(postings)
        if writes:
            COUNTER.bump("write", writes)
        return writes

    def set(self, key: tuple, payload: Any) -> None:
        """Overwrite the payload at ``key`` (remove when zero).

        A zero payload on an absent key is a no-op and counts no write,
        so complexity assertions over ``COUNTER`` see only real work.
        """
        present = key in self.data
        if self.ring.is_zero(payload):
            if present:
                if self._cow:
                    self._unshare()
                if self._dirty is not None:
                    self._dirty.add(key)
                COUNTER.bump("write")
                del self.data[key]
                for index in self._indexes.values():
                    index.remove(key)
            return
        if self._cow:
            self._unshare()
        if self._dirty is not None:
            self._dirty.add(key)
        COUNTER.bump("write")
        self.data[key] = payload
        if not present:
            for index in self._indexes.values():
                index.add(key)

    def insert(self, *key, payload: Any = None) -> None:
        """Insert one tuple; payload defaults to the ring one."""
        self.add(tuple(key), self.ring.one if payload is None else payload)

    def delete(self, *key, payload: Any = None) -> None:
        """Delete one tuple: add the negated payload (requires a ring)."""
        value = self.ring.one if payload is None else payload
        self.add(tuple(key), self.ring.neg(value))

    def apply(self, delta: "Relation | Mapping[tuple, Any]") -> None:
        """Apply a delta relation: ``self := self (+) delta``.

        The delta's entries are materialized before any write, so the
        delta may alias ``self`` (``rel.apply(rel)`` doubles every
        payload) or be a view over it, without tripping over mutation
        during iteration.
        """
        for key, payload in list(delta.items()):
            self.add(key, payload)

    def clear(self) -> None:
        # Every present key is (over-)marked dirty: a clear-and-rebuild
        # cycle (see ViewTreeEngine.rebuild) may rewrite any of them, and
        # a dirty superset keeps the change oracle exact — unmatched keys
        # simply re-enumerate identically on both sides of the diff.
        if self._dirty is not None:
            self._dirty.update(self.data)
        if self._cow:
            self.data = {}
            self._cow = False
        else:
            self.data.clear()
        for index in self._indexes.values():
            index.clear()

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def index_on(self, variables: Iterable[str]) -> GroupIndex:
        """Create (or fetch) the group index on ``variables``.

        Building the index over an existing relation costs O(|relation|);
        afterwards it is maintained incrementally by :meth:`add`/:meth:`set`.
        """
        group_vars = tuple(variables)
        index = self._indexes.get(group_vars)
        if index is None:
            if not self.schema.covers(group_vars):
                raise KeyError(
                    f"index variables {group_vars!r} not in schema "
                    f"{self.schema.variables!r} of relation {self.name!r}"
                )
            index = GroupIndex(self.schema, group_vars)
            for key in self.data:
                index.add(key)
            self._indexes[group_vars] = index
        return index

    def group(self, variables: Iterable[str], group_key: tuple) -> Iterator[tuple]:
        """Enumerate keys agreeing with ``group_key`` on ``variables``."""
        index = self.index_on(variables)
        COUNTER.bump("lookup")
        for key in index.keys_in_group(group_key):
            COUNTER.bump("enum")
            yield key

    def group_items(
        self, variables: Iterable[str], group_key: tuple
    ) -> Iterator[tuple[tuple, Any]]:
        """Enumerate ``(key, payload)`` pairs agreeing with ``group_key``.

        Reads payloads straight from :attr:`data` — one index probe plus
        one enumeration step per match, with no per-match payload lookup.
        This is the probe the join operators and the compiled delta
        kernels use; :meth:`group` + :meth:`get` would count (and pay) an
        extra hash probe per matching pair.

        When ``variables`` cover the whole schema a group holds at most
        one key, so the group is one ``data`` probe (same op counts) and
        no index is built — such an index would only cost every later
        write a posting and every publish a frozen copy.
        """
        variables = tuple(variables)
        schema_vars = self.schema.variables
        if variables == schema_vars or (
            len(variables) == len(schema_vars)
            and set(variables) == self.schema.as_set()
        ):
            if variables != schema_vars:
                # Reorder the group key into schema order.
                group_key = tuple(
                    group_key[variables.index(v)] for v in schema_vars
                )
            COUNTER.bump("lookup")
            payload = self.data.get(group_key)
            if payload is not None:
                COUNTER.bump("enum")
                yield group_key, payload
            return
        index = self.index_on(variables)
        COUNTER.bump("lookup")
        data = self.data
        for key in index.keys_in_group(group_key):
            COUNTER.bump("enum")
            yield key, data[key]

    def group_size(self, variables: Iterable[str], group_key: tuple) -> int:
        """Number of keys agreeing with ``group_key`` on ``variables``."""
        COUNTER.bump("lookup")
        return self.index_on(variables).group_size(group_key)

    def distinct(self, variables: Iterable[str]) -> Iterator[tuple]:
        """Enumerate the distinct projections of the keys onto ``variables``."""
        index = self.index_on(variables)
        for group_key in index.group_keys():
            COUNTER.bump("enum")
            yield group_key

    # ------------------------------------------------------------------
    # Whole-relation helpers (used by the naive evaluator and tests)
    # ------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "Relation":
        """Copy the relation *including* its group indexes.

        Copying entries is real work — one write per tuple plus one index
        posting per (index, tuple) pair — and is counted as such, so
        ``COUNTER``-based complexity assertions see it.  Carrying the
        indexes over means a copy never repays the O(n) index builds the
        original already performed.
        """
        clone = Relation(name or self.name, self.schema, self.ring)
        COUNTER.bump("write", len(self.data))
        clone.data = dict(self.data)
        for group_vars, index in self._indexes.items():
            COUNTER.bump("write", len(self.data))
            clone._indexes[group_vars] = index.copy()
        return clone

    def project_onto(self, variables: Iterable[str], name: str | None = None) -> "Relation":
        """Sum payloads of keys agreeing on ``variables`` (marginalization
        with the trivial COUNT lifting on the dropped variables)."""
        variables = tuple(variables)
        out = Relation(name or f"pi_{self.name}", Schema(variables), self.ring)
        project = self.schema.projector(variables)
        for key, payload in self.data.items():
            out.add(project(key), payload)
        return out

    def scale(self, factor: Any, name: str | None = None) -> "Relation":
        """Multiply every payload by ``factor`` (used for delta weighting)."""
        out = Relation(name or self.name, self.schema, self.ring)
        for key, payload in self.data.items():
            out.add(key, self.ring.mul(payload, factor))
        return out

    def to_dict(self) -> dict[tuple, Any]:
        return dict(self.data)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Relation):
            return (
                self.schema == other.schema
                and self.ring == other.ring
                and self.data == other.data
            )
        return NotImplemented

    def __hash__(self) -> int:  # relations are mutable; identity hash
        return id(self)

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, schema={self.schema.variables!r}, "
            f"size={len(self.data)})"
        )

    def pretty(self, limit: int = 20) -> str:
        """Small fixed-width rendering, used by examples and docs.

        Keys are sorted with a type-tagged key, so relations mixing value
        types (ints and strings in the same column) render deterministically
        instead of raising ``TypeError`` from a cross-type comparison.
        """

        def tagged(item: tuple[tuple, Any]) -> tuple:
            return tuple((type(v).__name__, v) for v in item[0])

        try:
            entries = sorted(self.data.items(), key=tagged)
        except TypeError:
            # Same-type values that refuse ordering (complex, dicts, ...):
            # fall back to a repr ordering, still deterministic.
            entries = sorted(
                self.data.items(),
                key=lambda item: tuple(repr(v) for v in item[0]),
            )
        header = " ".join(self.schema.variables) + " | payload"
        lines = [header, "-" * len(header)]
        for i, (key, payload) in enumerate(entries):
            if i == limit:
                lines.append(f"... ({len(self.data) - limit} more)")
                break
            lines.append(" ".join(str(v) for v in key) + f" | {payload}")
        return "\n".join(lines)
