"""Compiled delta-propagation kernels for the view-tree hot path.

The generic maintenance path (:meth:`ViewTreeEngine._propagate`) is
already asymptotically optimal — for q-hierarchical queries under their
canonical order, a single-tuple update is a constant number of hash
operations (Theorem 4.1) — but it pays a large *constant* for that bound:
every update allocates a fresh delta :class:`~repro.data.relation.Relation`,
and every propagation step re-derives output schemas, projector closures,
join-key assembly plans, and sibling orders inside ``join_pair`` and
``marginalize``, all of which depend only on the *query*, never on the
update.

This module moves all of that work to engine construction.  For every
(base relation, anchor) pair, :func:`compile_delta_plans` walks the
leaf-to-root path once and records, per node:

* the sibling relations joined at the node (resolved object references,
  in the exact order the generic path would join them),
* for each sibling join, the probe mode and the precomputed position
  tuples — where the shared variables sit in the flowing delta key, how
  to assemble the output key from the delta key and a matching sibling
  key, and (when the sibling is probed through a group index) the
  resolved :class:`~repro.data.relation.GroupIndex` itself,
* the position plans projecting the joined delta onto the node's guard
  and view schemas,
* the resolved lifting callable (or ``None`` for trivial COUNT lifting)
  and the position of the marginalized variable,
* pre-bound ring operations.

:meth:`DeltaPlan.push` then propagates a single-tuple delta as a plain
``{key: payload}`` dict through straight-line probe/multiply/accumulate
loops: **zero Relation allocations and zero schema re-derivation** per
update.  Only the terminal accumulation into each view/guard goes through
:meth:`Relation.add`, which keeps zero-elimination, group-index
maintenance, and write accounting exactly as the generic path leaves
them.

Why this preserves Theorem 4.1's O(1) bound while cutting the constant:
the kernel executes the *same* probe sequence as the generic path — for a
q-hierarchical query under the canonical order, each sibling join is a
constant number of hash probes (the sibling's schema is contained in the
delta's, so the join is one ``dict.get``), and each marginalization
shrinks the delta key by one position.  Nothing about the asymptotics
changes; what disappears is the per-update interpretation overhead (on
the order of a dozen object allocations and closure constructions per
propagation step), which benchmarks show is worth >2x single-tuple apply
throughput (``benchmarks/bench_delta_kernel.py``).  For non-q-hierarchical
queries the kernel degrades exactly as the generic path does: group-index
probes enumerate the same matching sets, so update cost stays
proportional to the number of affected view entries.

Elementary-operation accounting: probes and per-match enumeration steps
are counted in bulk — one ``COUNTER.bump(kind, n)`` per push instead of
one call per operation — so COUNTER-based complexity assertions see the
same asymptotic shape at a fraction of the bookkeeping cost.

Batch execution: :meth:`DeltaPlan.push_batch` runs a whole *coalesced*
batch group (one ``{key: payload}`` delta per base relation, same-key
updates ring-summed and cancelled upstream) through the same compiled
path.  On top of the per-tuple kernel's savings it shares sibling probes
across the group — each sibling is probed once per distinct join key,
memoized in a per-join cache — and lands every step's aggregated delta
on its guard/view through one bulk
:meth:`~repro.data.relation.Relation.add_delta` write.
:meth:`ViewTreeEngine.apply_batch` routes batches here under its
three-way heuristic (compiled-batch / per-tuple / rebuild).

Everything stored here is positions, relation references, named
callables, and ring singletons, so compiled plans pickle with their
engine — the process-pool shard executor ships compiled engines whole,
and the pickle memo preserves the identity between a plan's relation
references and the view tree's own.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Optional

from ..data.opcounter import COUNTER
from ..data.relation import GroupIndex, Relation
from ..rings.base import Semiring

#: Sibling probe modes.
DIRECT = 0  #: sibling schema is contained in the delta schema: one dict.get
INDEXED = 1  #: probe the sibling's group index on the shared variables
CROSS = 2  #: no shared variables: cross product with every sibling entry

#: Probe-cache miss sentinel for :meth:`DeltaPlan.push_batch` — ``None``
#: is a legitimate cached result (an absent sibling entry/bucket).
_MISS = object()


def _tuple_getter(positions: tuple[int, ...]):
    """A ``key -> projected tuple`` callable for a position tuple.

    ``operator.itemgetter`` (C speed) for two or more positions; small
    closures for the one- and zero-position cases, where itemgetter
    would return a bare element instead of a tuple.  Getters are built
    per :meth:`DeltaPlan.push_batch` call and never stored on the plan,
    which must stay picklable for the process-pool shard executor.
    """
    if len(positions) >= 2:
        return itemgetter(*positions)
    if positions:
        index = positions[0]
        return lambda key: (key[index],)
    return lambda key: ()


class SiblingJoin:
    """One precompiled sibling join: probe plan + output-key assembly."""

    __slots__ = ("relation", "mode", "probe_positions", "extend_positions", "index")

    def __init__(
        self,
        relation: Relation,
        mode: int,
        probe_positions: tuple[int, ...],
        extend_positions: tuple[int, ...],
        index: Optional[GroupIndex],
    ):
        self.relation = relation
        self.mode = mode
        #: Positions in the flowing delta key holding the shared variables
        #: (in the sibling's schema order — the group index key order).
        self.probe_positions = probe_positions
        #: Positions in the sibling key holding its new variables, which
        #: extend the delta key on a match.
        self.extend_positions = extend_positions
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = ("direct", "indexed", "cross")[self.mode]
        return f"SiblingJoin({self.relation.name!r}, {mode})"


class PlanStep:
    """One node of the leaf-to-root path, fully resolved."""

    __slots__ = (
        "variable",
        "view_label",
        "siblings",
        "guard",
        "guard_positions",
        "view",
        "out_positions",
        "lift",
        "lift_position",
    )

    def __init__(
        self,
        variable: str,
        siblings: tuple[SiblingJoin, ...],
        guard: Optional[Relation],
        guard_positions: tuple[int, ...],
        view: Relation,
        out_positions: tuple[int, ...],
        lift,
        lift_position: int,
    ):
        self.variable = variable
        self.view_label = f"V_{variable}"
        self.siblings = siblings
        self.guard = guard
        self.guard_positions = guard_positions
        self.view = view
        #: Positions in the joined delta key for the view's schema order.
        self.out_positions = out_positions
        self.lift = lift
        self.lift_position = lift_position

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanStep({self.variable!r}, siblings={len(self.siblings)}, "
            f"guard={self.guard is not None})"
        )


class DeltaPlan:
    """The compiled leaf-to-root propagation path for one anchor.

    ``leaf`` is the anchor's materialized leaf, or ``None`` when the leaf
    is served from the base table; ``arity`` is the anchor atom's arity,
    the width of the delta keys the plan consumes.
    """

    __slots__ = ("relation_name", "leaf", "arity", "steps", "ring")

    def __init__(
        self,
        relation_name: str,
        leaf: Optional[Relation],
        arity: int,
        steps: tuple[PlanStep, ...],
        ring: Semiring,
    ):
        self.relation_name = relation_name
        self.leaf = leaf
        self.arity = arity
        self.steps = steps
        self.ring = ring

    def push(self, key: tuple, payload: Any, stats=None) -> None:
        """Propagate one single-tuple delta along the compiled path.

        Mirrors :meth:`ViewTreeEngine._propagate` exactly — same sibling
        order, same early exits, same per-view delta-size samples into
        ``stats`` — but runs on plain dicts and precomputed positions.
        """
        ring = self.ring
        if ring.is_zero(payload):
            return
        mul = ring.mul
        add = ring.add
        is_zero = ring.is_zero
        delta: dict[tuple, Any] = {key: payload}
        lookups = 0
        matches = 0
        try:
            for step in self.steps:
                for join in step.siblings:
                    if not delta:
                        break
                    data = join.relation.data
                    mode = join.mode
                    out: dict[tuple, Any] = {}
                    if mode == DIRECT:
                        positions = join.probe_positions
                        lookups += len(delta)
                        for dkey, dpayload in delta.items():
                            other = data.get(tuple(dkey[i] for i in positions))
                            if other is None:
                                continue
                            product = mul(dpayload, other)
                            if not is_zero(product):
                                out[dkey] = product
                    elif mode == INDEXED:
                        positions = join.probe_positions
                        extend = join.extend_positions
                        groups = join.index.groups
                        lookups += len(delta)
                        for dkey, dpayload in delta.items():
                            bucket = groups.get(
                                tuple(dkey[i] for i in positions)
                            )
                            if not bucket:
                                continue
                            matches += len(bucket)
                            for skey in bucket:
                                product = mul(dpayload, data[skey])
                                if is_zero(product):
                                    continue
                                out[
                                    dkey + tuple(skey[i] for i in extend)
                                ] = product
                    else:  # CROSS
                        extend = join.extend_positions
                        matches += len(data) * len(delta)
                        for dkey, dpayload in delta.items():
                            for skey, spayload in data.items():
                                product = mul(dpayload, spayload)
                                if is_zero(product):
                                    continue
                                out[
                                    dkey + tuple(skey[i] for i in extend)
                                ] = product
                    delta = out
                if not delta:
                    return
                guard = step.guard
                if guard is not None:
                    positions = step.guard_positions
                    for dkey, dpayload in delta.items():
                        guard.add(
                            tuple(dkey[i] for i in positions), dpayload
                        )
                # Marginalize the node variable: aggregate onto the view
                # schema, dropping entries that cancel to the ring zero.
                positions = step.out_positions
                lift = step.lift
                aggregated: dict[tuple, Any] = {}
                if lift is None:
                    for dkey, dpayload in delta.items():
                        okey = tuple(dkey[i] for i in positions)
                        previous = aggregated.get(okey)
                        aggregated[okey] = (
                            dpayload
                            if previous is None
                            else add(previous, dpayload)
                        )
                else:
                    lift_position = step.lift_position
                    for dkey, dpayload in delta.items():
                        okey = tuple(dkey[i] for i in positions)
                        lifted = mul(dpayload, lift(dkey[lift_position]))
                        previous = aggregated.get(okey)
                        aggregated[okey] = (
                            lifted
                            if previous is None
                            else add(previous, lifted)
                        )
                view = step.view
                delta = {}
                for okey, opayload in aggregated.items():
                    if is_zero(opayload):
                        continue
                    view.add(okey, opayload)
                    delta[okey] = opayload
                if stats is not None:
                    stats.record_delta(step.view_label, len(delta))
                if not delta:
                    return
        finally:
            if COUNTER.enabled:
                if lookups:
                    COUNTER.bump("lookup", lookups)
                if matches:
                    COUNTER.bump("enum", matches)

    def push_batch(self, delta: dict, stats=None) -> None:
        """Propagate one *coalesced* multi-tuple delta along the path.

        ``delta`` maps key tuples to non-zero ring payloads — the
        per-relation group a batch coalesces to (see
        :func:`repro.data.update.coalesce_grouped`).  The propagation is
        exactly :meth:`push` lifted to a dict of deltas, so the batch
        equals the telescoped sum of its per-tuple pushes, with two batch
        fusions on top:

        * **shared sibling probes** — each sibling is probed once per
          *distinct* join key across the whole delta, not once per
          update.  A probe cache per sibling join memoizes the payload
          (DIRECT) or the index bucket (INDEXED); repeated join keys —
          the common case under skew — hit the cache instead of the
          relation.  Cache hits are *not* counted as elementary lookups:
          ``COUNTER`` sees only the probes actually issued, which is the
          point (the saved probes are reported to ``stats`` instead).
        * **fused view writes** — each step's aggregated delta lands on
          the guard/view through one bulk
          :meth:`~repro.data.relation.Relation.add_delta` pass instead
          of one :meth:`~repro.data.relation.Relation.add` call per
          entry.

        Output keys never collide across the batch: every delta key has
        the step's full schema, so two distinct keys extend to distinct
        joined keys and the single-tuple assignment logic carries over;
        only the marginalization (which drops a position) aggregates.
        """
        if not delta:
            return
        ring = self.ring
        mul = ring.mul
        add = ring.add
        is_zero = ring.is_zero
        # Inline the zero test for exact-zero rings: ``!= zero`` is one
        # C-level comparison where ``is_zero`` is a Python call per
        # payload — on the integer ring that call dominates otherwise.
        exact = ring.exact_zero
        zero = ring.zero
        lookups = 0
        matches = 0
        shared = 0
        miss = _MISS
        try:
            for step in self.steps:
                for join in step.siblings:
                    if not delta:
                        break
                    data = join.relation.data
                    mode = join.mode
                    out: dict[tuple, Any] = {}
                    if mode == DIRECT:
                        probe_of = _tuple_getter(join.probe_positions)
                        cache: dict[tuple, Any] = {}
                        for dkey, dpayload in delta.items():
                            probe = probe_of(dkey)
                            other = cache.get(probe, miss)
                            if other is miss:
                                lookups += 1
                                other = data.get(probe)
                                cache[probe] = other
                            else:
                                shared += 1
                            if other is None:
                                continue
                            product = mul(dpayload, other)
                            if (
                                (product != zero)
                                if exact
                                else not is_zero(product)
                            ):
                                out[dkey] = product
                    elif mode == INDEXED:
                        probe_of = _tuple_getter(join.probe_positions)
                        extend_of = _tuple_getter(join.extend_positions)
                        groups = join.index.groups
                        cache = {}
                        for dkey, dpayload in delta.items():
                            probe = probe_of(dkey)
                            bucket = cache.get(probe, miss)
                            if bucket is miss:
                                lookups += 1
                                bucket = groups.get(probe)
                                cache[probe] = bucket
                            else:
                                shared += 1
                            if not bucket:
                                continue
                            matches += len(bucket)
                            for skey in bucket:
                                product = mul(dpayload, data[skey])
                                if (
                                    (product == zero)
                                    if exact
                                    else is_zero(product)
                                ):
                                    continue
                                out[dkey + extend_of(skey)] = product
                    else:  # CROSS
                        extend_of = _tuple_getter(join.extend_positions)
                        matches += len(data) * len(delta)
                        entries = list(data.items())
                        for dkey, dpayload in delta.items():
                            for skey, spayload in entries:
                                product = mul(dpayload, spayload)
                                if (
                                    (product == zero)
                                    if exact
                                    else is_zero(product)
                                ):
                                    continue
                                out[dkey + extend_of(skey)] = product
                    delta = out
                if not delta:
                    return
                guard = step.guard
                if guard is not None:
                    guard_of = _tuple_getter(step.guard_positions)
                    guard.add_delta(
                        (guard_of(dkey), dpayload)
                        for dkey, dpayload in delta.items()
                    )
                out_of = _tuple_getter(step.out_positions)
                lift = step.lift
                aggregated: dict[tuple, Any] = {}
                if lift is None:
                    for dkey, dpayload in delta.items():
                        okey = out_of(dkey)
                        previous = aggregated.get(okey)
                        aggregated[okey] = (
                            dpayload
                            if previous is None
                            else add(previous, dpayload)
                        )
                else:
                    lift_position = step.lift_position
                    for dkey, dpayload in delta.items():
                        okey = out_of(dkey)
                        lifted = mul(dpayload, lift(dkey[lift_position]))
                        previous = aggregated.get(okey)
                        aggregated[okey] = (
                            lifted
                            if previous is None
                            else add(previous, lifted)
                        )
                if exact:
                    delta = {
                        okey: opayload
                        for okey, opayload in aggregated.items()
                        if opayload != zero
                    }
                else:
                    delta = {
                        okey: opayload
                        for okey, opayload in aggregated.items()
                        if not is_zero(opayload)
                    }
                if delta:
                    step.view.add_delta(delta.items())
                if stats is not None:
                    stats.record_delta(step.view_label, len(delta))
                if not delta:
                    return
        finally:
            if COUNTER.enabled:
                if lookups:
                    COUNTER.bump("lookup", lookups)
                if matches:
                    COUNTER.bump("enum", matches)
            if stats is not None and (lookups or shared):
                stats.record_probe_sharing(lookups, shared)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaPlan({self.relation_name!r}, steps={len(self.steps)})"
        )


def _compile_sibling(
    in_vars: tuple[str, ...], sibling: Relation
) -> tuple[SiblingJoin, tuple[str, ...]]:
    """Compile one sibling join against a delta over ``in_vars``.

    Returns the join plus the delta's variable tuple after the join —
    ``in_vars`` followed by the sibling's new variables in its schema
    order, matching ``join_pair``'s ``left.union(right)`` output schema.
    """
    sibling_vars = sibling.schema.variables
    in_positions = {v: i for i, v in enumerate(in_vars)}
    shared = tuple(v for v in sibling_vars if v in in_positions)
    new_vars = tuple(v for v in sibling_vars if v not in in_positions)
    out_vars = in_vars + new_vars
    if not shared:
        extend = tuple(range(len(sibling_vars)))
        return SiblingJoin(sibling, CROSS, (), extend, None), out_vars
    probe_positions = tuple(in_positions[v] for v in shared)
    if not new_vars:
        return SiblingJoin(sibling, DIRECT, probe_positions, (), None), in_vars
    index = sibling.index_on(shared)
    extend = sibling.schema.positions(new_vars)
    return (
        SiblingJoin(sibling, INDEXED, probe_positions, extend, index),
        out_vars,
    )


def compile_anchor_plan(engine, atom, node, leaf) -> DeltaPlan:
    """Compile the full leaf-to-root path for one anchored atom."""
    ring = engine.ring
    lifting = engine.lifting
    steps: list[PlanStep] = []
    delta_vars: tuple[str, ...] = atom.variables
    # A leaf served from the base table (None) is alone at its node, so
    # the first step has no sibling to exclude.
    exclude: Optional[Relation] = leaf
    current = node
    while current is not None:
        siblings = []
        for source in current.sources():
            if source is exclude:
                continue
            join, delta_vars = _compile_sibling(delta_vars, source)
            siblings.append(join)
        delta_positions = {v: i for i, v in enumerate(delta_vars)}
        guard = current.guard
        guard_positions = (
            tuple(delta_positions[v] for v in guard.schema.variables)
            if guard is not None
            else ()
        )
        view = current.view
        out_positions = tuple(
            delta_positions[v] for v in view.schema.variables
        )
        lift = None
        if not current.is_free and not lifting.is_trivial(current.variable):
            lift = lifting.for_variable(current.variable)
        steps.append(
            PlanStep(
                current.variable,
                tuple(siblings),
                guard,
                guard_positions,
                view,
                out_positions,
                lift,
                delta_positions[current.variable],
            )
        )
        delta_vars = view.schema.variables
        exclude = view
        current = current.parent
    return DeltaPlan(
        atom.relation, leaf, len(atom.variables), tuple(steps), ring
    )


def compile_delta_plans(engine) -> dict[str, list[DeltaPlan]]:
    """Compile one :class:`DeltaPlan` per (base relation, anchor) pair.

    The result maps a base relation name to the plans of its anchors, in
    the same order as ``engine._anchors[name]`` — ``apply()`` zips the
    two, so an update's leaf insert and its compiled propagation stay in
    lock-step with the generic path's anchor loop.
    """
    plans: dict[str, list[DeltaPlan]] = {}
    for name, anchors in engine._anchors.items():
        plans[name] = [
            compile_anchor_plan(engine, atom, node, leaf)
            for atom, node, leaf in anchors
        ]
    return plans
