"""View trees: higher-order IVM with factorized views (Sections 3.2, 4.1).

A view tree materializes, for each node of a variable order, the aggregate
of the join of everything below the node.  Following F-IVM:

* each query atom becomes a *leaf* of the tree: the database relation
  under the atom's variables.  A leaf is materialized as a private copy
  only where something reads it — at a free node (enumeration and
  lookups walk it), next to another source (sibling deltas probe it),
  or under a shard's leaf filter.  Any other leaf sits alone at a bound
  node, where no delta plan, enumeration or lookup reads it, so it is
  served from the base table itself and each committed tuple is written
  once;
* the view at node ``X`` has schema ``dep(X)`` — the node's dependency
  set — and aggregates away ``X`` from the join of the node's children
  views and anchored leaves;
* when more than one source constrains ``X``, the node additionally
  materializes the pre-marginalization join (the *guard*), which is what
  enumeration iterates over.

On a single-tuple update, deltas propagate along the leaf-to-root path;
each step joins the delta with the sibling sources.  For q-hierarchical
queries under their canonical order, each such join is a constant number
of hash lookups, so updates take O(1) — Theorem 4.1's upper bound.
Enumeration walks the free-variable prefix of the order top-down and emits
output tuples with constant delay (Example 4.4).

Like the paper (end of Section 2), enumeration assumes *valid* update
batches: between enumeration requests, multiplicities may transiently go
negative, but at enumeration time all input tuples must have positive
multiplicities.  Otherwise an aggregate view entry can cancel to zero
while individual output tuples below it are non-zero, and the factorized
walk would skip them.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from ..data.database import Database
from ..data.relation import Relation
from ..data.schema import Schema
from ..data.update import Update
from ..naive.algebra import join_all, join_pair, marginalize, union_into
from ..obs import Observable, observed, observed_enumeration
from ..query.ast import Atom, Query
from ..query.variable_order import VariableOrder, VarOrderNode, order_for
from ..data.columnar import coalesce_columnar
from ..rings.lifting import LiftingMap
from .codegen import (
    DeltaKernel,
    EnumKernel,
    compile_delta_kernel,
    compile_enum_kernel,
    new_codegen_info,
)
from .changes import ChangeTracker, MaterializedView, OutputDelta
from .compile import DeltaPlan, compile_delta_plans
from .enumplan import EnumPlan, _flatten, compile_enum_plan
from .epoch import EpochSnapshot


class ViewNode:
    """One node of a view tree."""

    __slots__ = (
        "variable",
        "dependency",
        "is_free",
        "children",
        "parent",
        "leaves",
        "view",
        "guard",
    )

    def __init__(self, variable: str, dependency: tuple[str, ...], is_free: bool):
        self.variable = variable
        self.dependency = dependency
        self.is_free = is_free
        self.children: list[ViewNode] = []
        self.parent: Optional[ViewNode] = None
        #: (atom, leaf relation) pairs anchored at this node; the leaf is
        #: ``None`` when it is served from the base table (see
        #: ViewTreeEngine._make_leaf).
        self.leaves: list[tuple[Atom, Relation | None]] = []
        #: The node view V_X over dep(X) (X marginalized away).
        self.view: Relation | None = None
        #: Materialized pre-marginalization join, when >1 source exists.
        self.guard: Relation | None = None

    def sources(self) -> list[Relation]:
        """The materialized relations joined at this node.

        Anchored leaves plus child views.  A leaf served from the base
        table is left out: it sits alone at its node, so no sibling join
        or enumeration ever reads it (build and rebuild read it through
        :meth:`ViewTreeEngine._node_sources`).
        """
        result = [leaf for _, leaf in self.leaves if leaf is not None]
        result.extend(child.view for child in self.children)
        return result

    def guard_relation(self) -> Relation:
        """The relation enumerating candidate values for this variable."""
        if self.guard is not None:
            return self.guard
        for relation in self.sources():
            if self.variable in relation.schema:
                return relation
        raise RuntimeError(
            f"node {self.variable!r} has no source containing its variable"
        )

    def walk(self) -> Iterator["ViewNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"ViewNode({self.variable!r}, dep={self.dependency!r}, "
            f"view_size={len(self.view) if self.view is not None else None})"
        )


class ViewTreeEngine(Observable):
    """Eager factorized IVM over a variable order (the F-IVM engine)."""

    #: Sample view sizes into an attached recorder every N single-tuple
    #: updates (0 disables periodic memory sampling).
    view_sample_interval: int = 64

    #: Minimum batch size routed through the compiled batch kernel.
    #: Below it there is nothing to coalesce or share, so the per-tuple
    #: compiled path wins on plain call overhead.
    batch_compile_threshold: int = 2

    #: Engines exposing publish_epoch / *_snapshot reads (feature probe
    #: for the serving tier's snapshot-read mode).
    supports_snapshots: bool = True

    def __init__(
        self,
        query: Query,
        database: Database,
        order: VariableOrder | None = None,
        lifting: LiftingMap | None = None,
        stats=None,
        leaf_filter=None,
        compile_plans: bool = True,
        compile_enum: bool = True,
        codegen: bool = True,
    ):
        """Build the view tree over ``database``.

        ``stats`` injects a :class:`~repro.obs.MaintenanceStats` recorder
        at construction time (equivalent to calling :meth:`attach_stats`
        immediately) — shard coordinators use this to hand every shard
        its own labelled recorder.

        ``leaf_filter`` is an optional ``(relation_name, key) -> bool``
        predicate; when given, every leaf is materialized and holds only
        the base tuples it accepts.  Combined with ``apply(update,
        update_base=False)`` this lets several engines share one
        database, each maintaining a disjoint hash shard of it.  Without
        it, a leaf nothing reads is the base table itself, which the
        engine keeps current with ``update_base=True`` and a caller
        passing ``update_base=False`` must write before (or while) it
        applies.

        ``compile_plans`` pre-compiles one :class:`~repro.viewtree.compile.
        DeltaPlan` per (base relation, anchor) pair so single-tuple
        updates run through the allocation-free kernel; pass ``False``
        to force the generic interpretation path (the ``--no-compile``
        escape hatch).  Batch rebuilds always use the generic bottom-up
        rebuild regardless.

        ``compile_enum`` is the read-side twin: it pre-compiles one
        :class:`~repro.viewtree.enumplan.EnumPlan` from the free-top
        variable order so :meth:`enumerate` (including prebound CQAP
        lookups) runs through the flat slot-array kernel; pass ``False``
        (the ``--no-compile-enum`` escape hatch) for the generic
        recursive walk.  Empty-head queries and non-free-top orders
        always use the generic path.

        ``codegen`` takes the compiled plans one rung further: each
        :class:`DeltaPlan`/:class:`EnumPlan` is source-generated into an
        exec-compiled kernel (:mod:`repro.viewtree.codegen`) with the
        step loops unrolled and projections/ring ops inlined; batches
        run over columnar key/payload lists.  Pass ``False`` (the
        ``--no-codegen`` escape hatch) to run the interpreted plans —
        the bit-identical differential-testing oracle.  A plan whose
        generation fails falls back to interpretation (counted as
        ``fallbacks`` in the ``codegen`` obs block) without affecting
        the others.
        """
        self.query = query
        self.database = database
        self.ring = database.ring
        self.lifting = lifting if lifting is not None else LiftingMap(self.ring)
        self.order = order if order is not None else order_for(query)
        if self.order.query is not query and (
            self.order.query.atoms != query.atoms
            or self.order.query.head != query.head
        ):
            raise ValueError("variable order was built for a different query")
        self._leaf_filter = leaf_filter

        self.roots: list[ViewNode] = []
        #: relation name -> list of (atom, anchor ViewNode, leaf Relation)
        self._anchors: dict[str, list[tuple[Atom, ViewNode, Relation]]] = {}
        for var_root in self.order.roots:
            self.roots.append(self._build_node(var_root, None))
        #: relation name -> list of DeltaPlans, parallel to _anchors.
        self._plans: dict[str, list[DeltaPlan]] = {}
        self.compiled = False
        if compile_plans:
            self._plans = compile_delta_plans(self)
            self.compiled = True
        #: Compiled enumeration plan (None -> generic recursive walk).
        self._enum_plan: EnumPlan | None = (
            compile_enum_plan(self) if compile_enum else None
        )
        self.enum_compiled = self._enum_plan is not None
        #: Source-generated kernels: relation name -> list parallel to
        #: _plans (None entries fall back to the interpreted plan), plus
        #: the read-path kernel.  Built only when ``codegen`` is set.
        self._kernels: dict[str, list[DeltaKernel | None]] = {}
        self._enum_kernel: EnumKernel | None = None
        #: Generation counters, recorded into the first attached stats
        #: recorder (then cleared, so re-attachment never double-counts).
        self._codegen_info: dict | None = None
        self.codegen = False
        if codegen and (self.compiled or self._enum_plan is not None):
            info = new_codegen_info()
            for name, plans in self._plans.items():
                row: list[DeltaKernel | None] = []
                for plan in plans:
                    try:
                        row.append(compile_delta_kernel(plan, info))
                    except Exception:
                        info["fallbacks"] += 1
                        row.append(None)
                self._kernels[name] = row
            if self._enum_plan is not None:
                try:
                    self._enum_kernel = compile_enum_kernel(
                        self._enum_plan, info
                    )
                except Exception:
                    info["fallbacks"] += 1
            self.codegen = self._enum_kernel is not None or any(
                kernel is not None
                for row in self._kernels.values()
                for kernel in row
            )
            self._codegen_info = info
        #: Lazily-built flat schedule for the generic fallback walk.
        self._enum_schedule: list | None = None
        #: Last published epoch number and its frozen snapshot.
        self.epoch = 0
        self._epoch_snapshot: EpochSnapshot | None = None
        #: Lazily-created per-epoch output change tracker (track_changes).
        self._change_tracker: ChangeTracker | None = None
        self._updates_since_sample = 0
        if stats is not None:
            self.attach_stats(stats)

    def __getstate__(self):
        # Epoch snapshots are keyed by object identity, which does not
        # survive pickling (process-pool shards ship whole engines);
        # the receiving side republishes after adoption.  The change
        # tracker holds snapshots too, so it is likewise dropped — the
        # receiver re-enables tracking (subscribers see an epoch gap and
        # fall back to a full drain).
        state = self.__dict__.copy()
        state["_epoch_snapshot"] = None
        state["_change_tracker"] = None
        return state

    def _propagate_stats(self, stats) -> None:
        # Report kernel-generation counters to the first recorder that
        # attaches, then drop them: re-attachment (or attaching a fresh
        # recorder after a pickle round-trip) must not double-count
        # compilations that happened once.
        info = self._codegen_info
        if stats is not None and info is not None:
            stats.record_codegen(
                info["kernels"],
                info["time_ms"],
                info["cache_hits"],
                info["fallbacks"],
            )
            self._codegen_info = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_node(self, var_node: VarOrderNode, parent: Optional[ViewNode]) -> ViewNode:
        node = ViewNode(
            var_node.variable,
            var_node.dependency,
            var_node.variable in self.query.free_variables,
        )
        node.parent = parent
        materialize = self._leaf_reason(
            node.is_free, len(var_node.atoms) + len(var_node.children)
        ) is not None
        for atom in var_node.atoms:
            leaf = self._make_leaf(atom, materialize)
            node.leaves.append((atom, leaf))
            self._anchors.setdefault(atom.relation, []).append((atom, node, leaf))
        for child in var_node.children:
            node.children.append(self._build_node(child, node))

        sources = self._node_sources(node)
        joined = self._join_sources(node, sources)
        if len(sources) > 1:
            node.guard = joined
        lift = None
        if not node.is_free:
            if not self.lifting.is_trivial(node.variable):
                lift = self.lifting.for_variable(node.variable)
        node.view = marginalize(
            joined, node.variable, self.ring, lift, name=f"V_{node.variable}"
        )
        return node

    def _leaf_reason(self, is_free: bool, sources: int) -> str | None:
        """Why the leaves of a node are materialized, or ``None``.

        ``sources`` counts the node's anchored atoms plus its children.
        Enumeration, guards and lookups walk a free node's leaves; a
        sibling delta probes a leaf that shares its node with another
        source; a shard engine's leaves hold only its slice.  A leaf
        for none of these reasons is served from the base table.
        """
        if is_free:
            return "free node"
        if sources > 1:
            return "sibling probe"
        if self._leaf_filter is not None:
            return "shard filter"
        return None

    def _make_leaf(self, atom: Atom, materialize: bool) -> Relation | None:
        """The leaf of ``atom``: a private copy, or ``None``.

        A materialized leaf copies the database relation (the tuples the
        leaf filter accepts) under the atom's variables and is written
        by every apply.  Otherwise the leaf's content is exactly
        ``database[atom.relation]``, kept current by this engine
        (``update_base=True``) or by its caller, and build and rebuild
        read it through :meth:`_base_leaf`.
        """
        base = self.database[atom.relation]
        if len(atom.variables) != len(base.schema):
            raise ValueError(
                f"atom {atom} arity does not match relation "
                f"{base.schema.variables!r}"
            )
        if not materialize:
            return None
        leaf = Relation(f"leaf_{atom}", Schema(atom.variables), self.ring)
        if self._leaf_filter is None:
            leaf.data = dict(base.data)
        else:
            keep = self._leaf_filter
            leaf.data = {
                key: payload
                for key, payload in base.data.items()
                if keep(atom.relation, key)
            }
        return leaf

    def _base_leaf(self, atom: Atom) -> Relation:
        """``database[atom.relation]`` under the atom's variables, read-only.

        Shares the base relation's payload dict — no copy, no index — so
        it is only ever iterated (by build and rebuild), never written.
        """
        leaf = Relation(f"leaf_{atom}", Schema(atom.variables), self.ring)
        leaf.data = self.database[atom.relation].data
        return leaf

    def _node_sources(self, node: ViewNode) -> list[Relation]:
        """Every relation joined at ``node``, base-table leaves included."""
        sources = [
            leaf if leaf is not None else self._base_leaf(atom)
            for atom, leaf in node.leaves
        ]
        sources.extend(child.view for child in node.children)
        return sources

    def _join_sources(
        self, node: ViewNode, sources: list[Relation]
    ) -> Relation:
        """The pre-marginalization join of ``sources`` (never written).

        A lone source is its own join: only the marginalization reads it.
        """
        if len(sources) == 1:
            return sources[0]
        return join_all(sources, self.ring, name=f"G_{node.variable}")

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    @observed
    def apply(self, update: Update, update_base: bool = True) -> None:
        """Process one single-tuple update.

        ``update_base`` also applies the update to the database relation;
        pass ``False`` when a coordinator shares one database among
        several engines and applies base updates itself.

        With compiled plans (the default) the delta runs through the
        allocation-free :meth:`~repro.viewtree.compile.DeltaPlan.push`
        kernel; otherwise — or for a relation without a plan — it falls
        back to the generic :meth:`_propagate` interpretation.
        """
        relation, key, payload = update.relation, update.key, update.payload
        if update_base and relation in self.database:
            self.database[relation].add(key, payload)
        plans = self._plans.get(relation)
        if plans is not None:
            stats = self._maintenance_stats
            kernels = self._kernels.get(relation)
            if kernels is None:
                kernels = (None,) * len(plans)
            for (_atom, _node, leaf), plan, kernel in zip(
                self._anchors[relation], plans, kernels
            ):
                if leaf is not None:
                    leaf.add(key, payload)
                if kernel is not None:
                    kernel.push(key, payload, stats)
                else:
                    plan.push(key, payload, stats)
        else:
            self._apply_generic(relation, key, payload)
        if self._maintenance_stats is not None:
            self._maybe_sample_views()

    def _apply_generic(self, relation: str, key: tuple, payload: Any) -> None:
        """One tuple through the generic :meth:`_propagate` interpretation."""
        for atom, node, leaf in self._anchors.get(relation, ()):
            delta = Relation(f"d_{atom}", Schema(atom.variables), self.ring)
            delta.add(key, payload)
            if leaf is not None:
                leaf.add(key, payload)
            self._propagate(node, delta, exclude=leaf)

    @observed
    def apply_batch(
        self,
        batch,
        update_base: bool = True,
        rebuild_factor: float | None = None,
    ) -> None:
        """Apply a batch of single-tuple updates (three-way heuristic).

        The paper's opening observation cuts both ways: small changes are
        worth propagating, but a batch comparable to the database size is
        cheaper to *recompute*.  The heuristic, in order:

        1. **rebuild** — with ``rebuild_factor`` set, a batch larger than
           ``rebuild_factor * |leaves|`` skips propagation: updates land
           on the base tables and materialized leaves directly and all
           views are rebuilt bottom-up in one pass (see the batch-rebuild
           ablation bench for the crossover);
        2. **compiled batch** — with compiled plans and at least
           ``batch_compile_threshold`` updates, the batch is coalesced
           (same-key deltas ring-summed, cancellations dropped) and each
           per-relation group runs through
           :meth:`~repro.viewtree.compile.DeltaPlan.push_batch` — bulk
           leaf writes, sibling probes shared across the group;
        3. **per-tuple** — otherwise, one :meth:`apply` per update (the
           generic interpretation when plans are disabled).

        The first two coalesce with
        :func:`~repro.data.columnar.coalesce_columnar` and share their
        body with :meth:`apply_column_batch`.
        """
        batch = list(batch)
        rebuild = self._rebuild_due(len(batch), rebuild_factor)
        if not rebuild and not (
            self.compiled and len(batch) >= self.batch_compile_threshold
        ):
            for update in batch:
                self.apply(update, update_base)
            return
        columns = coalesce_columnar(batch, self.ring)
        stats = self._maintenance_stats
        if stats is not None:
            stats.record_batch_coalesce(
                len(batch), sum(len(keys) for keys, _ in columns.values())
            )
        self._apply_columns(columns, update_base, rebuild, len(batch))

    @observed
    def apply_column_batch(
        self,
        columns: dict[str, tuple[list, list]],
        rebuild_factor: float | None = None,
    ) -> None:
        """Apply an already-coalesced batch given as per-relation columns.

        ``columns`` is ``{relation: (keys, payloads)}`` with distinct keys
        per relation and no zero payloads — the output of
        :func:`~repro.data.columnar.coalesce_columnar`, or one shard's
        slice of it from :meth:`~repro.shard.router.ShardRouter.split`.
        The lists are only read, never mutated or retained.  This is the
        entry point of shard coordinators and workers, which coalesce
        once for all shards and write the shared base tables themselves:
        no base table is written and no coalescing is recorded here.

        ``rebuild_factor`` compares the number of column entries with the
        leaf size (see :meth:`apply_batch`).  Compiled engines push each
        relation's columns through its generated kernels (or interpreted
        plans); engines without compiled plans run the generic per-tuple
        interpretation over the entries.
        """
        count = sum(len(keys) for keys, _ in columns.values())
        rebuild = self._rebuild_due(count, rebuild_factor)
        self._apply_columns(columns, False, rebuild, count)

    def _rebuild_due(self, count: int, rebuild_factor: float | None) -> bool:
        """Whether a batch of ``count`` updates should rebuild the views."""
        if rebuild_factor is None:
            return False
        # Count each base relation once: a relation anchored at several
        # atoms contributes one leaf per atom, and summing every leaf
        # inflated the crossover against batches measured in distinct
        # database tuples.  A leaf served from the base table counts the
        # base table's size.
        leaf_size = 0
        for (atom, _node, leaf), *_ in self._anchors.values():
            leaf_size += len(
                leaf if leaf is not None else self.database[atom.relation]
            )
        return count >= rebuild_factor * max(leaf_size, 1)

    def _apply_columns(
        self, columns, update_base: bool, rebuild: bool, count: int
    ) -> None:
        """The shared batch body: base writes, leaf writes, delta pushes.

        Only materialized leaves are written here; a leaf served from
        the base table is current once the base write (this engine's
        with ``update_base``, or the caller's) has landed.

        Correctness rests on two facts.  Update batches over a ring
        commute, so ring-summing same-key deltas and regrouping by
        relation preserves the batch's cumulative effect.  And for each
        relation the anchor loop mirrors the per-tuple path at batch
        granularity — bulk leaf insert, then one ``push_batch`` — so by
        the telescoping identity ``Δ(L1·L2) = Δ·L2_old + L1_new·Δ`` the
        grouped pushes land exactly the summed per-tuple deltas
        (self-joins included: the anchor's own leaf is updated before
        its push and excluded from its first sibling join, while later
        anchors of the same relation see the earlier leaves' post-batch
        state, matching the per-tuple interleaving's sum).

        With ``rebuild`` set the columns only land on the base tables and
        materialized leaves, and every view is recomputed bottom-up
        afterwards.
        """
        stats = self._maintenance_stats
        database = self.database
        for name, (keys, pays) in columns.items():
            if update_base and name in database:
                database[name].add_delta(zip(keys, pays))
            anchors = self._anchors.get(name, ())
            plans = self._plans.get(name)
            if rebuild:
                for _atom, _node, leaf in anchors:
                    if leaf is not None:
                        leaf.add_delta(zip(keys, pays))
            elif plans is None:
                for key, payload in zip(keys, pays):
                    self._apply_generic(name, key, payload)
            else:
                kernels = self._kernels.get(name)
                if kernels is None:
                    kernels = (None,) * len(plans)
                deltas = None
                for (_atom, _node, leaf), plan, kernel in zip(
                    anchors, plans, kernels
                ):
                    if leaf is not None:
                        leaf.add_delta(zip(keys, pays))
                    if kernel is not None:
                        kernel.push_batch(keys, pays, stats)
                    else:
                        # Interpreted plans take the dict view, built
                        # once per relation on demand.
                        if deltas is None:
                            deltas = dict(zip(keys, pays))
                        plan.push_batch(deltas, stats)
        if rebuild:
            self.rebuild()
            if stats is not None:
                self.sample_view_sizes()
        elif stats is not None:
            self._maybe_sample_views(count)

    def rebuild(self) -> None:
        """Recompute every guard and view from the current leaves.

        Materialized leaves are read as they stand; every other leaf is
        read straight from its base table, which must therefore be
        current (see ``leaf_filter`` in the constructor).
        """
        for root in self.roots:
            self._rebuild_node(root)

    def _rebuild_node(self, node: ViewNode) -> None:
        for child in node.children:
            self._rebuild_node(child)
        joined = self._join_sources(node, self._node_sources(node))
        if node.guard is not None:
            node.guard.clear()
            union_into(node.guard, joined)
        lift = None
        if not node.is_free and not self.lifting.is_trivial(node.variable):
            lift = self.lifting.for_variable(node.variable)
        fresh = marginalize(
            joined, node.variable, self.ring, lift, name=f"V_{node.variable}"
        )
        node.view.clear()
        union_into(node.view, fresh)

    def _propagate(self, node: ViewNode, delta: Relation, exclude: Relation) -> None:
        """Propagate a delta from ``node`` to the root.

        ``exclude`` is the source whose change ``delta`` describes; it is
        left out of the sibling join at the first step (its new value is
        already reflected by the delta plus its pre-update contribution).
        """
        while node is not None:
            siblings = [s for s in node.sources() if s is not exclude]
            delta_guard = delta
            for sibling in siblings:
                if len(delta_guard) == 0:
                    break
                delta_guard = join_pair(delta_guard, sibling, self.ring)
            if len(delta_guard) == 0:
                return  # the change is absorbed; nothing above moves
            if node.guard is not None:
                union_into(node.guard, delta_guard)
            lift = None
            if not node.is_free and not self.lifting.is_trivial(node.variable):
                lift = self.lifting.for_variable(node.variable)
            delta_view = marginalize(delta_guard, node.variable, self.ring, lift)
            union_into(node.view, delta_view)
            stats = self._maintenance_stats
            if stats is not None:
                stats.record_delta(f"V_{node.variable}", len(delta_view))
            delta = delta_view
            exclude = node.view
            node = node.parent

    # ------------------------------------------------------------------
    # Epoch snapshots
    # ------------------------------------------------------------------

    def _snapshot_relations(self) -> Iterator[Relation]:
        """Every relation a read path can touch: views, guards, leaves.

        Leaves served from the base table are not among them: no read
        path touches them.
        """
        for root in self.roots:
            for node in root.walk():
                yield node.view
                if node.guard is not None:
                    yield node.guard
                for _, leaf in node.leaves:
                    if leaf is not None:
                        yield leaf

    def publish_epoch(self, record: bool = True) -> EpochSnapshot:
        """Freeze the current committed state as the next readable epoch.

        Readers started after this call (``enumerate_snapshot``,
        ``lookup_snapshot``, ``scalar_snapshot``) see exactly this state
        — bit-identical to a serialized read at this instant — no matter
        how maintenance mutates the live relations afterwards.  The swap
        is a single attribute assignment, atomic under the GIL, so a
        publish never blocks readers and readers never block maintenance;
        the cost is deferred to copy-on-write work on the write path.

        ``record`` feeds the attached recorder (``epochs_published``,
        ``cow_buckets_copied``); a shard coordinator passes ``False`` and
        records one aggregate publish itself.
        """
        if self._enum_plan is None and self.query.head and self.order.is_free_top():
            # The generic walk builds guard group-indexes lazily on first
            # enumeration; force them into existence so the snapshot
            # captures them (the snapshot path never mutates the engine).
            schedule = self._enum_schedule
            if schedule is None:
                schedule = self._enum_schedule = self._enum_schedule_specs()
            for spec in schedule:
                if spec[0]:
                    spec[2].index_on(spec[3])
        self.epoch += 1
        snap = EpochSnapshot.capture(self.epoch, self._snapshot_relations())
        self._epoch_snapshot = snap
        # The change tracker diffs against the previous snapshot on every
        # publish regardless of ``record`` — shard workers publish with
        # record=False but their subscribers still need the delta stream.
        tracker = self._change_tracker
        delta = tracker.on_publish(snap) if tracker is not None else None
        if record:
            stats = self._maintenance_stats
            if stats is not None:
                stats.record_epoch_publish(
                    snap.cow_buckets,
                    snap.cow_tables,
                    len(delta) if delta is not None else 0,
                )
                if delta is not None:
                    stats.record_change_delta(len(delta))
        return snap

    def snapshot(self) -> EpochSnapshot:
        """The last published epoch (publishing one first if none exists)."""
        snap = self._epoch_snapshot
        if snap is None:
            snap = self.publish_epoch()
        return snap

    # ------------------------------------------------------------------
    # Output change streams
    # ------------------------------------------------------------------

    @property
    def supports_changes(self) -> bool:
        """Whether per-epoch output deltas are available.

        Change extraction re-enumerates dirty patterns, so it needs the
        factorized enumeration — a free-top order — or an empty head
        (where the diff is one scalar comparison).
        """
        return not self.query.head or self.order.is_free_top()

    def track_changes(self) -> None:
        """Start emitting per-epoch output deltas (idempotent).

        Baselines at the current published snapshot (publishing one if
        none exists): ``changes_since`` answers from the next publish
        on, and anything older than the baseline is an epoch gap.
        """
        if self._change_tracker is None:
            if not self.supports_changes:
                raise TypeError(
                    f"query {self.query.name!r} has no free-top order; "
                    "output change streams are unavailable"
                )
            self._change_tracker = ChangeTracker(self)

    def changes_since(self, epoch: int) -> OutputDelta:
        """One composed output delta from ``epoch`` to the latest publish.

        Raises :class:`~repro.viewtree.changes.EpochGapError` when
        ``epoch`` predates the retained window (or tracking enablement)
        — never a silent partial delta.
        """
        self.track_changes()
        return self._change_tracker.changes_since(epoch)

    def subscribe(self, ratio_threshold: float = 0.5) -> MaterializedView:
        """Register a maintained dict materialization of the output.

        The returned :class:`~repro.viewtree.changes.MaterializedView`
        is primed with a full drain of the current epoch; each
        ``refresh()`` afterwards patches it forward in O(δ).
        """
        self.track_changes()
        return MaterializedView(self, ratio_threshold)

    def scalar_snapshot(self, snap: EpochSnapshot | None = None) -> Any:
        """:meth:`scalar` against the published epoch."""
        if self.query.head:
            raise ValueError("scalar() requires an empty-head query")
        if snap is None:
            snap = self.snapshot()
        ring = self.ring
        payload = ring.one
        for root in self.roots:
            value = snap.data_of(root.view).get((), ring.zero)
            payload = ring.mul(payload, value)
        return payload

    def enumerate_snapshot(
        self,
        prebound: dict[str, Any] | None = None,
        snap: EpochSnapshot | None = None,
    ) -> Iterator[tuple[tuple, Any]]:
        """:meth:`enumerate` against the published epoch.

        Safe to drive from any thread while maintenance runs: every probe
        resolves against the epoch's frozen dicts, never the live ones.
        """
        if snap is None:
            snap = self.snapshot()
        stats = self._maintenance_stats
        return observed_enumeration(
            stats, self._enumerate(prebound, stats, epoch=snap)
        )

    def lookup_snapshot(
        self, key: tuple, snap: EpochSnapshot | None = None
    ) -> Any:
        """:meth:`lookup` against the published epoch."""
        if snap is None:
            snap = self.snapshot()
        key = tuple(key)
        head = self.query.head
        if len(key) != len(head):
            raise ValueError(
                f"lookup key {key!r} does not match head {head!r}"
            )
        if not head:
            return self.scalar_snapshot(snap)
        stats = self._maintenance_stats
        prebound = dict(zip(head, key))
        result = self.ring.zero
        for found, payload in self._enumerate(prebound, stats, epoch=snap):
            if found == key:
                result = payload
                break
        if stats is not None:
            stats.record_point_lookup()
        return result

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    def scalar(self) -> Any:
        """The payload of a Boolean (empty-head) query."""
        if self.query.head:
            raise ValueError("scalar() requires an empty-head query")
        payload = self.ring.one
        for root in self.roots:
            key = tuple()
            payload = self.ring.mul(payload, root.view.get(key))
        return payload

    def enumerate(
        self, prebound: dict[str, Any] | None = None
    ) -> Iterator[tuple[tuple, Any]]:
        """Enumerate output tuples, sampling delay when stats are attached."""
        stats = self._maintenance_stats
        return observed_enumeration(stats, self._enumerate(prebound, stats))

    def lookup(self, key: tuple) -> Any:
        """Payload of one output tuple (ring zero when absent).

        Binds every head variable, so the enumeration degenerates into a
        chain of guard probes — at most one candidate per depth — and the
        iterator is abandoned after the first (unique) match.
        """
        key = tuple(key)
        head = self.query.head
        if len(key) != len(head):
            raise ValueError(
                f"lookup key {key!r} does not match head {head!r}"
            )
        if not head:
            return self.scalar()
        stats = self._maintenance_stats
        prebound = dict(zip(head, key))
        result = self.ring.zero
        for found, payload in self._enumerate(prebound, stats):
            if found == key:
                result = payload
                break
        if stats is not None:
            stats.record_point_lookup()
        return result

    def _enumerate(
        self,
        prebound: dict[str, Any] | None = None,
        stats=None,
        epoch: EpochSnapshot | None = None,
    ) -> Iterator[tuple[tuple, Any]]:
        """Dispatch to the compiled kernel or the generic recursive walk.

        ``stats`` feeds the kernel's structural read-path counters
        (``enum_compiled``, guard probes); internal materializations pass
        ``None`` so they leave no trace in an attached recorder.

        ``epoch`` redirects every probe to a published
        :class:`EpochSnapshot` instead of the live relations (the
        snapshot-read path).
        """
        kernel = self._enum_kernel
        if kernel is not None:
            return kernel.iterate(prebound, stats, epoch=epoch)
        plan = self._enum_plan
        if plan is not None:
            return plan.iterate(prebound, stats, epoch=epoch)
        return self._enumerate_generic(prebound, epoch=epoch)

    def _enum_schedule_specs(self) -> list[tuple]:
        """Flatten the enumeration walk for the generic fallback.

        The recursion's ``children + rest`` continuation is data
        independent, so the node sequence — with per-node guard,
        group-variable, and leaf specs — is computed once instead of per
        candidate (the schema position lookups and list concatenations
        dominated the old generic profile).
        """
        specs: list[tuple] = []
        for is_free, node in _flatten(self.roots):
            if not is_free:
                specs.append((False, node.view, node.view.schema.variables))
                continue
            guard = node.guard_relation()
            guard_vars = guard.schema.variables
            specs.append(
                (
                    True,
                    node.variable,
                    guard,
                    tuple(v for v in guard_vars if v != node.variable),
                    guard.schema.position(node.variable),
                    guard_vars,
                    tuple((leaf, atom.variables) for atom, leaf in node.leaves),
                )
            )
        return specs

    def _enumerate_generic(
        self,
        prebound: dict[str, Any] | None = None,
        epoch: EpochSnapshot | None = None,
    ) -> Iterator[tuple[tuple, Any]]:
        """Enumerate output tuples (key over the head, payload).

        Requires a free-top variable order; for q-hierarchical queries
        under the canonical order the delay between consecutive tuples is
        constant (Theorem 4.1, Example 4.4).

        ``prebound`` fixes values for some free variables — used for CQAP
        access requests (Section 4.3), where the input variables sit above
        the output variables in the order and arrive bound: instead of
        iterating a node's candidates, the engine checks the given value
        with one guard lookup.

        With ``epoch`` set, every probe reads the snapshot's frozen dicts
        (raw probes, no op accounting) instead of the live relations.
        """
        if not self.order.is_free_top():
            raise ValueError(
                f"variable order for {self.query.name} is not free-top; "
                "factorized enumeration is unavailable"
            )
        ring = self.ring
        zero = ring.zero
        head = self.query.head
        prebound = prebound or {}
        binding: dict[str, Any] = {}
        schedule = self._enum_schedule
        if schedule is None:
            schedule = self._enum_schedule = self._enum_schedule_specs()
        nsteps = len(schedule)
        # Per-step frozen dicts when reading an epoch, resolved up front
        # so a publish racing with this generator cannot mix epochs.
        resolved: list[tuple] | None = None
        if epoch is not None:
            resolved = []
            for spec in schedule:
                if not spec[0]:
                    resolved.append((epoch.data_of(spec[1]),))
                else:
                    guard, group_vars = spec[2], spec[3]
                    resolved.append(
                        (
                            epoch.data_of(guard),
                            epoch.groups_of(guard, group_vars),
                            tuple(
                                epoch.data_of(leaf) for leaf, _ in spec[6]
                            ),
                        )
                    )

        def rec(i: int, payload: Any) -> Iterator[tuple[tuple, Any]]:
            if ring.is_zero(payload):
                return
            if i == nsteps:
                yield tuple(binding[v] for v in head), payload
                return
            spec = schedule[i]
            if not spec[0]:
                # A fully-bound subtree contributes its view value.
                _, view, view_vars = spec
                key = tuple(binding[v] for v in view_vars)
                if resolved is None:
                    value = view.get(key)
                else:
                    value = resolved[i][0].get(key, zero)
                yield from rec(i + 1, ring.mul(payload, value))
                return
            _, variable, guard, group_vars, var_pos, guard_vars, leaf_specs = spec
            if variable in prebound:
                # Access-pattern lookup: verify the given value instead of
                # iterating candidates (one O(1) guard probe).
                binding[variable] = prebound[variable]
                probe = tuple(binding[v] for v in guard_vars)
                if resolved is None:
                    candidates = [] if ring.is_zero(guard.get(probe)) else [probe]
                else:
                    # Stored payloads are non-zero by construction, so
                    # membership alone decides the probe.
                    candidates = [probe] if probe in resolved[i][0] else []
            else:
                group_key = tuple(binding[v] for v in group_vars)
                if resolved is None:
                    candidates = guard.group(group_vars, group_key)
                else:
                    candidates = resolved[i][1].get(group_key, ())
            leaf_datas = resolved[i][2] if resolved is not None else None
            for key in candidates:
                binding[variable] = key[var_pos]
                factor = ring.one
                ok = True
                for j, (leaf, leaf_vars) in enumerate(leaf_specs):
                    if leaf_datas is None:
                        value = leaf.get(tuple(binding[v] for v in leaf_vars))
                    else:
                        value = leaf_datas[j].get(
                            tuple(binding[v] for v in leaf_vars), zero
                        )
                    if ring.is_zero(value):
                        ok = False
                        break
                    factor = ring.mul(factor, value)
                if ok:
                    yield from rec(i + 1, ring.mul(payload, factor))

        if not head:
            payload = (
                self.scalar() if epoch is None else self.scalar_snapshot(epoch)
            )
            if not ring.is_zero(payload):
                yield (), payload
            return
        yield from rec(0, ring.one)

    def output_relation(self, name: str | None = None) -> Relation:
        """Materialize the output (mainly for tests and small results).

        Runs through the *unobserved* internal iterator: materialization
        is not an enumeration request, so it must not inject phantom
        ``enum_delay`` samples into an attached recorder.
        """
        out = Relation(name or self.query.name, Schema(self.query.head), self.ring)
        for key, payload in self._enumerate():
            out.add(key, payload)
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def total_view_size(self) -> int:
        """Number of entries across all materialized views, guards and
        leaves (the engine's own state; base tables are not counted)."""
        total = 0
        for root in self.roots:
            for node in root.walk():
                total += len(node.view)
                if node.guard is not None:
                    total += len(node.guard)
                for _, leaf in node.leaves:
                    if leaf is not None:
                        total += len(leaf)
        return total

    def sample_view_sizes(self, stats=None) -> None:
        """Record one memory sample into ``stats`` (default: attached).

        Samples :meth:`total_view_size` plus the size of every node view
        and guard — the space side of the IVM trade-off, exported under
        ``memory`` in the ``repro.obs/1`` payload.  Like
        :meth:`total_view_size` it counts materialized state only.
        """
        stats = stats if stats is not None else self._maintenance_stats
        if stats is None:
            return
        per_view: dict[str, int] = {}
        total = 0
        for root in self.roots:
            for node in root.walk():
                size = len(node.view)
                per_view[f"V_{node.variable}"] = size
                total += size
                if node.guard is not None:
                    size = len(node.guard)
                    per_view[f"G_{node.variable}"] = size
                    total += size
                for _, leaf in node.leaves:
                    if leaf is not None:
                        total += len(leaf)
        stats.record_view_sizes(total, per_view)

    def _maybe_sample_views(self, count: int = 1) -> None:
        """Periodic memory sampling: every ``view_sample_interval`` updates.

        ``count`` credits several logical updates at once — the batch
        kernel samples once per batch, not per update.
        """
        interval = self.view_sample_interval
        if not interval:
            return
        self._updates_since_sample += count
        if self._updates_since_sample >= interval:
            self._updates_since_sample = 0
            self.sample_view_sizes()

    def describe(self) -> str:
        """ASCII rendering of the view tree with sizes.

        Each leaf line says whether the leaf is ``materialized`` (and
        why: ``free node``, ``sibling probe`` or ``shard filter``) or
        served from the ``base table``.
        """
        lines: list[str] = []

        def visit(node: ViewNode, depth: int) -> None:
            pad = "  " * depth
            dep = ", ".join(node.view.schema.variables)
            marker = "*" if node.is_free else ""
            lines.append(
                f"{pad}V_{node.variable}{marker}({dep}) size={len(node.view)}"
                + (f" guard={len(node.guard)}" if node.guard is not None else "")
            )
            reason = self._leaf_reason(
                node.is_free, len(node.leaves) + len(node.children)
            )
            for atom, leaf in node.leaves:
                if leaf is None:
                    size = len(self.database[atom.relation])
                    where = "base table"
                else:
                    size, where = len(leaf), f"materialized ({reason})"
                lines.append(f"{pad}  leaf {atom} size={size} {where}")
            for child in node.children:
                visit(child, depth + 1)

        for root in self.roots:
            visit(root, 0)
        return "\n".join(lines)
