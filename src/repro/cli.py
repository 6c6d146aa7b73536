"""Command-line interface: classify queries and explain maintenance plans.

Usage::

    python -m repro classify "Q(Y,X,Z) = R(Y,X) * S(Y,Z)"
    python -m repro classify "Q(Z,Y,X,W) = R(X,W) * S(X,Y) * T(Y,Z)" \
        --fd "X -> Y" --fd "Y -> Z"
    python -m repro demo
    python -m repro stats "Q(A) = R(A,B) * S(B)" --updates 2000 \
        --json stats.json
    python -m repro stats "Q(A) = R(A,B) * S(B)" \
        --workload sliding-window --window 128 --batch-size 64
    python -m repro benchplot benchmarks/results/BENCH_*.json -o plots/
    python -m repro benchdiff OLD.json NEW.json --band 0.2

``classify`` runs every syntactic classifier from the paper on the query
and prints the planner's chosen strategy with its complexity guarantees —
the Section 6 "effective guide" as a tool.

``stats`` replays a synthetic workload against the planner's chosen
engine with a :class:`repro.obs.MaintenanceStats` recorder attached and
prints (or dumps as JSON) per-update latency, enumeration delay, delta
sizes, memory, and rebalance events — the observability layer as a tool.
``--no-compile`` forces the generic interpreted delta path for A/B runs
against the compiled kernels; ``--no-compile-enum`` does the same for
the read path (generic recursive enumeration instead of the compiled
EnumPlan kernel); ``--no-codegen`` keeps the compiled plans but runs
them interpreted instead of as exec-generated source kernels.

``explain`` prints the chosen plan and, for view-tree plans, the view
tree with each leaf marked ``materialized`` (and why) or ``base table``;
with ``--kernel-source`` it also dumps the generated Python source of
every delta/enumeration kernel the plan would run — the ground truth
for what the codegen layer executes.

``benchplot`` renders ``repro.bench/1`` JSON records as grouped bar
charts — PNG when matplotlib is available, ASCII bar tables otherwise,
so the plotting layer works in the dependency-free CI container.

``benchdiff`` compares two ``repro.bench/1`` JSON records (the
``benchmarks/results/BENCH_*.json`` files) and exits non-zero when a
throughput or ops metric regresses beyond the noise band — the CI
regression gate.
"""

from __future__ import annotations

import argparse
import sys

from .constraints.fds import FunctionalDependency, sigma_reduct
from .core.planner import plan_maintenance
from .cqap.fracture import is_tractable_cqap
from .query.hypergraph import is_alpha_acyclic, is_free_connex
from .query.parser import parse_query
from .query.properties import is_hierarchical, is_q_hierarchical
from .staticdyn.analysis import is_static_dynamic_tractable


def _yesno(value: bool) -> str:
    return "yes" if value else "no"


def classify(text: str, fd_texts: list[str], insert_only: bool) -> int:
    query = parse_query(text)
    fds = tuple(FunctionalDependency.parse(t) for t in fd_texts)
    print(f"query: {query}")
    print()
    print(f"  self-join free:        {_yesno(query.is_self_join_free())}")
    print(f"  alpha-acyclic:         {_yesno(is_alpha_acyclic(query))}")
    print(f"  free-connex:           {_yesno(is_free_connex(query))}")
    print(f"  hierarchical:          {_yesno(is_hierarchical(query))}")
    print(f"  q-hierarchical:        {_yesno(is_q_hierarchical(query))}")
    if fds:
        reduct = sigma_reduct(query, fds)
        print(f"  Sigma-reduct:          {reduct}")
        print(f"  q-hier. under FDs:     {_yesno(is_q_hierarchical(reduct))}")
    if query.input_variables:
        print(f"  tractable CQAP:        {_yesno(is_tractable_cqap(query))}")
    if query.static_atoms:
        print(
            f"  static/dyn tractable:  "
            f"{_yesno(is_static_dynamic_tractable(query))}"
        )
    print()
    plan = plan_maintenance(query, fds, insert_only)
    print(f"plan: {plan.strategy}")
    print(f"  because:       {plan.reason}")
    print(f"  preprocessing: {plan.preprocessing_time}")
    print(f"  update time:   {plan.update_time}")
    print(f"  enum. delay:   {plan.enumeration_delay}")

    # Static per-relation analysis of the default view-tree order.
    try:
        from .query.analysis import analyse_order
        from .query.variable_order import order_for

        analysis = analyse_order(order_for(query))
    except Exception:  # cyclic orders etc. still work; be permissive here
        analysis = None
    if analysis is not None:
        print()
        print(analysis.render())
    return 0


def demo() -> int:
    """Replay the paper's Fig. 2 / Example 3.1 worked example."""
    from .data.database import Database
    from .data.update import Update
    from .delta.engine import DeltaQueryEngine

    db = Database()
    r = db.create("R", ("A", "B"))
    s = db.create("S", ("B", "C"))
    t = db.create("T", ("C", "A"))
    for relation, rows in (
        (r, {("a1", "b1"): 1, ("a2", "b1"): 3}),
        (s, {("b1", "c1"): 2, ("b1", "c2"): 1}),
        (t, {("c1", "a1"): 1, ("c2", "a2"): 2, ("c2", "a1"): 1}),
    ):
        for key, payload in rows.items():
            relation.add(key, payload)

    query = parse_query("Q() = R(A,B) * S(B,C) * T(C,A)")
    engine = DeltaQueryEngine(query, db)
    print("Fig. 2 -- the triangle count example")
    print()
    for relation in (r, s, t):
        print(relation.pretty())
        print()
    print(f"Q = {engine.scalar()}")
    print()
    print("update dR = {(a2, b1) -> -2}  (a delete of two copies)")
    engine.update(Update("R", ("a2", "b1"), -2))
    print(f"R(a2, b1) is now {r.get(('a2', 'b1'))}  (3 - 2 = 1)")
    print(f"Q = {engine.scalar()}  (was 9, delta = -4)")
    return 0


def _make_value_sampler(rng, domain: int, workload: str, zipf_s: float):
    """A ``() -> int`` attribute-value sampler for the chosen workload.

    Shared with the serving load generator — see
    :func:`repro.serve.loadgen.value_sampler` for the shapes.
    """
    from .serve.loadgen import value_sampler

    return value_sampler(rng, domain, workload, zipf_s)


def run_stats(
    text: str,
    fd_texts: list[str],
    insert_only: bool,
    updates: int,
    prefill: int,
    domain: int,
    seed: int,
    batch: int,
    enum_interval: int,
    json_path: str | None,
    shards: int = 1,
    shard_executor: str = "thread",
    shard_ipc: str = "delta",
    workload: str = "uniform",
    zipf_s: float = 1.2,
    compile_plans: bool = True,
    compile_enum: bool = True,
    codegen: bool = True,
    window: int = 256,
) -> int:
    """Replay a synthetic workload and print/dump the stats recorder."""
    import random
    import time
    from collections import deque

    from .constraints.fds import FunctionalDependency
    from .core.engine import IVMEngine
    from .data.database import Database
    from .data.update import Update
    from .obs import write_stats_json
    from .shard.engine import ShardedEngine

    query = parse_query(text)
    fds = tuple(FunctionalDependency.parse(t) for t in fd_texts)
    rng = random.Random(seed)
    value = _make_value_sampler(
        rng,
        domain,
        "uniform" if workload == "sliding-window" else workload,
        zipf_s,
    )

    db = Database()
    static_names = {atom.relation for atom in getattr(query, "static_atoms", ())}
    arities: dict[str, int] = {}
    dynamic: list[str] = []
    for atom in query.atoms:
        if atom.relation not in arities:
            db.create(atom.relation, atom.variables)
            arities[atom.relation] = len(atom.variables)
            if atom.relation not in static_names:
                dynamic.append(atom.relation)
    if not dynamic:
        print("query has no dynamic relations; nothing to replay")
        return 1

    def random_key(relation: str) -> tuple:
        return tuple(value() for _ in range(arities[relation]))

    for name in arities:
        for _ in range(prefill):
            db[name].add(random_key(name), 1)

    plan = plan_maintenance(
        query,
        fds,
        insert_only,
        shards=shards,
        compile_plans=compile_plans,
        compile_enum=compile_enum,
        codegen=codegen,
    )
    engine = IVMEngine(
        query,
        db,
        fds,
        insert_only,
        plan=plan,
        shards=shards,
        shard_executor=shard_executor,
        shard_ipc=shard_ipc,
        compile_plans=compile_plans,
        compile_enum=compile_enum,
        codegen=codegen,
    )
    stats = engine.attach_stats()
    deletes_ok = not insert_only and plan.strategy != "insert-only"
    can_enumerate = not query.input_variables
    sharded = isinstance(engine.backend, ShardedEngine)
    # Batches of ``--batch`` go through ``apply_batch``: the sharded
    # coordinator splits once and runs shards in parallel, the view-tree
    # family coalesces and runs the compiled batch kernel.  ``--batch 1``
    # forces the per-update path (except for sharded plans, where the
    # per-update path would serialize the coordinator).
    batched = sharded or batch > 1

    if workload == "sliding-window" and not deletes_ok:
        print("--workload sliding-window needs deletes (drop --insert-only)")
        return 1

    enum_seconds = 0.0

    def drain() -> None:
        nonlocal enum_seconds
        begin = time.perf_counter()
        for _ in engine.enumerate():
            pass
        enum_seconds += time.perf_counter() - begin

    # A valid update stream: deletes only retract still-live insertions,
    # so multiplicities stay non-negative and enumeration stays sound.
    # ``sliding-window`` keeps a FIFO of the last ``--window`` insertions
    # and emits the matching delete as each tuple falls out of the window
    # — the paired insert/delayed-delete shape that rewards batch
    # coalescing whenever the window wraps within one batch.
    live: dict[str, list[tuple]] = {name: [] for name in dynamic}
    fifo: deque[tuple[str, tuple]] = deque()
    pending: list[Update] = []
    start = time.perf_counter()
    try:
        for index in range(updates):
            relation = dynamic[rng.randrange(len(dynamic))]
            if workload == "sliding-window":
                if len(fifo) >= max(window, 1):
                    relation, key = fifo.popleft()
                    update = Update(relation, key, -1)
                else:
                    key = random_key(relation)
                    fifo.append((relation, key))
                    update = Update(relation, key, 1)
            else:
                keys = live[relation]
                if deletes_ok and keys and rng.random() < 0.25:
                    key = keys.pop(rng.randrange(len(keys)))
                    update = Update(relation, key, -1)
                else:
                    key = random_key(relation)
                    keys.append(key)
                    update = Update(relation, key, 1)
            if batched:
                pending.append(update)
                if len(pending) >= max(batch, 1):
                    engine.apply_batch(pending)
                    pending.clear()
            else:
                engine.apply(update)
            if (
                can_enumerate
                and enum_interval
                and (index + 1) % (max(batch, 1) * enum_interval) == 0
            ):
                if pending:
                    engine.apply_batch(pending)
                    pending.clear()
                drain()
        if pending:
            engine.apply_batch(pending)
            pending.clear()
        if can_enumerate:
            drain()
        seconds = time.perf_counter() - start
        if sharded:
            stats = engine.backend.merged_stats()
    finally:
        # Close unconditionally: an exception mid-replay must not leak
        # the sharded backend's process-pool workers.
        close = getattr(engine.backend, "close", None)
        if close is not None:
            close()

    print(f"query: {query}")
    print(f"plan:  {plan}")
    shape = ""
    if workload == "zipf":
        shape = f" (s={zipf_s})"
    elif workload == "sliding-window":
        shape = f" (window={window})"
    print(f"workload: {workload}{shape}")
    print()
    print(stats.render())
    print()
    # ``seconds`` includes the periodic drain() enumerations, so the
    # end-to-end rate undersells pure maintenance throughput; report
    # both so benchdiff compares like with like.
    maintenance_seconds = max(seconds - enum_seconds, 0.0)
    rate_maintenance = (
        updates / maintenance_seconds if maintenance_seconds > 0 else 0.0
    )
    rate_end_to_end = updates / seconds if seconds > 0 else 0.0
    print(
        f"replayed {updates} updates in {seconds:.3f}s "
        f"({rate_maintenance:,.0f} upd/s maintenance-only, "
        f"{rate_end_to_end:,.0f} upd/s end-to-end incl. "
        f"{enum_seconds:.3f}s enumeration)"
    )
    if json_path:
        written = write_stats_json(
            json_path,
            stats,
            meta={
                "query": str(query),
                "plan": plan.strategy,
                "updates": updates,
                "prefill": prefill,
                "domain": domain,
                "seed": seed,
                "seconds": seconds,
                "seconds_maintenance": maintenance_seconds,
                "seconds_enumeration": enum_seconds,
                "rate_maintenance": rate_maintenance,
                "rate_end_to_end": rate_end_to_end,
                "shards": shards,
                "shard_executor": shard_executor if shards > 1 else None,
                "shard_ipc": (
                    shard_ipc
                    if shards > 1 and shard_executor == "process"
                    else None
                ),
                "workload": workload,
                "zipf_s": zipf_s if workload == "zipf" else None,
                "window": window if workload == "sliding-window" else None,
                "batch": batch,
                "compiled": plan.compiled,
                "enum_compiled": plan.enum_kernel,
                "codegen": plan.codegen,
            },
        )
        print(f"stats written to {written}")
    return 0


def run_explain(
    text: str,
    fd_texts: list[str],
    insert_only: bool,
    kernel_source: bool,
) -> int:
    """Print the maintenance plan, optionally with generated kernel source.

    View-tree plans also print their view trees (built over empty
    relations), so which leaves are materialized shows without data.
    Kernel source is a pure function of the plan *shape* (step structure
    plus ring identity), so the dump over empty relations is exactly the
    code a populated engine of the same shape executes — deterministic
    output that tests pin.
    """
    from .constraints.fds import FunctionalDependency
    from .core.engine import IVMEngine
    from .cqap.engine import CQAPEngine
    from .data.database import Database
    from .shard.engine import ShardedEngine
    from .viewtree.engine import ViewTreeEngine

    query = parse_query(text)
    fds = tuple(FunctionalDependency.parse(t) for t in fd_texts)
    plan = plan_maintenance(query, fds, insert_only)
    print(f"query: {query}")
    print(f"plan:  {plan}")

    db = Database()
    for atom in query.atoms:
        if atom.relation not in db:
            db.create(atom.relation, atom.variables)
    engine = IVMEngine(query, db, fds, insert_only, plan=plan)
    backend = engine.backend
    # One tree is enough: shards and fracture components share kernel
    # shapes, so the first engine's source is the whole story.
    if isinstance(backend, ShardedEngine):
        trees = backend.engines[:1]
    elif isinstance(backend, CQAPEngine):
        trees = backend.engines
    elif isinstance(backend, ViewTreeEngine):
        trees = [backend]
    else:
        trees = []
    for index, tree in enumerate(trees):
        prefix = f"component {index} " if len(trees) > 1 else ""
        print()
        print(f"-- {prefix}view tree --")
        print(tree.describe())
    if not kernel_source:
        return 0
    if not plan.codegen:
        print()
        print("no generated kernels: the plan runs without codegen")
        return 0
    dumped = 0
    for index, tree in enumerate(trees):
        prefix = f"component {index} " if len(trees) > 1 else ""
        for name in sorted(tree._kernels):
            for anchor, kernel in enumerate(tree._kernels[name]):
                if kernel is None:
                    continue
                print()
                print(f"-- {prefix}delta kernel {name}[{anchor}] --")
                print(kernel.source.rstrip("\n"))
                dumped += 1
        if tree._enum_kernel is not None:
            print()
            print(f"-- {prefix}enum kernel --")
            print(tree._enum_kernel.source.rstrip("\n"))
            dumped += 1
    if not dumped:
        print()
        print("no generated kernels: every plan fell back to the interpreter")
    return 0


def run_serve(
    text: str,
    fd_texts: list[str],
    updates: int,
    writers: int,
    readers: int,
    prefill: int,
    domain: int,
    seed: int,
    max_batch: int,
    max_delay_ms: float,
    high_water: int,
    json_path: str | None,
    shards: int = 1,
    shard_executor: str = "thread",
    shard_ipc: str = "delta",
    workload: str = "uniform",
    zipf_s: float = 1.2,
    window: int = 256,
    per_update: bool = False,
    smoke: bool = False,
    snapshot_reads: bool | None = None,
    codegen: bool = True,
    change_feed: bool = False,
) -> int:
    """Closed-loop load test against the async serving front-end."""
    import asyncio

    from .constraints.fds import FunctionalDependency
    from .core.engine import IVMEngine
    from .data.database import Database
    from .obs import write_stats_json
    from .serve import AsyncIVMServer, run_load_test
    from .shard.engine import ShardedEngine

    query = parse_query(text)
    fds = tuple(FunctionalDependency.parse(t) for t in fd_texts)
    if query.input_variables:
        print("serve needs an enumerable query (no input variables)")
        return 1
    if smoke:
        updates = min(updates, 500)

    import random

    rng = random.Random(seed ^ 0xF111)
    value = _make_value_sampler(
        rng,
        domain,
        "uniform" if workload == "sliding-window" else workload,
        zipf_s,
    )
    db = Database()
    static_names = {atom.relation for atom in getattr(query, "static_atoms", ())}
    dynamic = []
    for atom in query.atoms:
        if atom.relation not in db:
            db.create(atom.relation, atom.variables)
            if atom.relation not in static_names:
                dynamic.append(atom.relation)
            for _ in range(prefill):
                db[atom.relation].add(
                    tuple(value() for _ in atom.variables), 1
                )
    if not dynamic:
        print("query has no dynamic relations; nothing to serve")
        return 1

    plan = plan_maintenance(query, fds, shards=shards, codegen=codegen)
    engine = IVMEngine(
        query,
        db,
        fds,
        plan=plan,
        shards=shards,
        shard_executor=shard_executor,
        shard_ipc=shard_ipc,
        codegen=codegen,
    )
    if per_update:
        max_batch, max_delay_ms = 1, 0.0
    server = AsyncIVMServer(
        engine,
        max_batch=max_batch,
        max_delay=max_delay_ms / 1000.0,
        high_water=high_water,
        snapshot_reads=snapshot_reads,
    )
    stats = server.attach_stats()

    async def run() -> dict:
        async with server:
            return await run_load_test(
                server,
                query,
                updates,
                writers=writers,
                readers=readers,
                domain=domain,
                seed=seed,
                workload=workload,
                zipf_s=zipf_s,
                window=window,
                deletes_ok=plan.strategy != "insert-only",
                change_feed=change_feed,
            )

    sharded = isinstance(engine.backend, ShardedEngine)
    try:
        summary = asyncio.run(run())
        if sharded:
            stats = engine.backend.merged_stats()
    finally:
        close = getattr(engine.backend, "close", None)
        if close is not None:
            close()

    print(f"query: {query}")
    print(f"plan:  {plan}")
    shape = ""
    if workload == "zipf":
        shape = f" (s={zipf_s})"
    elif workload == "sliding-window":
        shape = f" (window={window})"
    print(f"workload: {workload}{shape}")
    reads_mode = "epoch snapshots" if server.snapshot_reads else "commit lock"
    print(
        f"serving:  {writers} writers + {readers} readers, "
        f"max_batch={max_batch} max_delay={max_delay_ms:g}ms "
        f"high_water={high_water} reads={reads_mode}"
    )
    print()
    print(stats.render())
    print()
    print(
        f"served {updates} updates in {summary['seconds']:.3f}s "
        f"({summary['rate_maintenance']:,.0f} upd/s maintenance-only, "
        f"{summary['rate_end_to_end']:,.0f} upd/s end-to-end)"
    )
    print(
        f"commit latency p50<={summary['commit_p50']:.2g}s "
        f"p99<={summary['commit_p99']:.2g}s; "
        f"read staleness p50<={summary['staleness_p50']:.2g}s "
        f"p99<={summary['staleness_p99']:.2g}s "
        f"over {summary['reads']} reads"
    )
    if "feed_deltas" in summary:
        verdict = "identical" if summary["maintained_ok"] else "MISMATCH"
        print(
            f"change feed: {summary['feed_deltas']} deltas "
            f"({summary['feed_tuples']} tuples, "
            f"{summary['feed_gaps']} gaps); maintained state of "
            f"{summary['maintained_entries']} entries {verdict} "
            f"to a fresh drain"
        )
        if not summary["maintained_ok"]:
            return 1
    if json_path:
        written = write_stats_json(
            json_path,
            stats,
            meta={
                "mode": "serve",
                "query": str(query),
                "plan": plan.strategy,
                "shards": shards,
                "shard_executor": shard_executor if shards > 1 else None,
                "shard_ipc": (
                    shard_ipc
                    if shards > 1 and shard_executor == "process"
                    else None
                ),
                "workload": workload,
                "zipf_s": zipf_s if workload == "zipf" else None,
                "window": window if workload == "sliding-window" else None,
                "prefill": prefill,
                "domain": domain,
                "seed": seed,
                "max_batch": max_batch,
                "max_delay_ms": max_delay_ms,
                "high_water": high_water,
                "per_update": per_update,
                "snapshot_reads": server.snapshot_reads,
                "codegen": plan.codegen,
                **summary,
            },
        )
        print(f"stats written to {written}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IVM query classification and maintenance planning",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    classify_parser = subparsers.add_parser(
        "classify", help="classify a query and print its maintenance plan"
    )
    classify_parser.add_argument("query", help='e.g. "Q(A) = R(A,B) * S(B)"')
    classify_parser.add_argument(
        "--fd",
        action="append",
        default=[],
        metavar="'X -> Y'",
        help="functional dependency (repeatable)",
    )
    classify_parser.add_argument(
        "--insert-only",
        action="store_true",
        help="assume an insert-only update stream (Section 4.6)",
    )

    subparsers.add_parser("demo", help="replay the Fig. 2 worked example")

    stats_parser = subparsers.add_parser(
        "stats",
        help="replay a synthetic workload and report maintenance statistics",
    )
    stats_parser.add_argument("query", help='e.g. "Q(A) = R(A,B) * S(B)"')
    stats_parser.add_argument(
        "--fd", action="append", default=[], metavar="'X -> Y'",
        help="functional dependency (repeatable)",
    )
    stats_parser.add_argument(
        "--insert-only", action="store_true",
        help="generate an insert-only update stream",
    )
    stats_parser.add_argument(
        "--updates", type=int, default=2000, help="stream length (default 2000)"
    )
    stats_parser.add_argument(
        "--prefill", type=int, default=50,
        help="tuples preloaded per relation before planning (default 50)",
    )
    stats_parser.add_argument(
        "--domain", type=int, default=10,
        help="attribute value domain size (default 10)",
    )
    stats_parser.add_argument("--seed", type=int, default=0)
    stats_parser.add_argument(
        "--batch", "--batch-size", dest="batch", type=int, default=100,
        help="batch size routed through apply_batch; 1 forces the "
        "per-update path (default 100)",
    )
    stats_parser.add_argument(
        "--enum-interval", type=int, default=4,
        help="full enumeration every N batches; 0 disables (default 4)",
    )
    stats_parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also dump the recorder as repro.obs/1 JSON",
    )
    stats_parser.add_argument(
        "--shards", type=int, default=1,
        help="hash-partition view-tree maintenance across N shards "
        "(default 1 = unsharded)",
    )
    stats_parser.add_argument(
        "--shard-executor",
        choices=("serial", "thread", "process"),
        default="thread",
        help="shard executor: in-process serial/thread pools, or "
        "persistent worker processes (default thread)",
    )
    stats_parser.add_argument(
        "--ipc",
        choices=("delta", "pickle-engine"),
        default="delta",
        help="process-executor wire protocol: delta-only persistent "
        "workers, or the legacy ship-the-engine-per-batch oracle "
        "(default delta)",
    )
    stats_parser.add_argument(
        "--workload",
        choices=("uniform", "zipf", "sliding-window"),
        default="uniform",
        help="stream shape: uniform / zipf value distributions, or "
        "sliding-window insert+delayed-delete pairs (default uniform)",
    )
    stats_parser.add_argument(
        "--zipf-s", type=float, default=1.2,
        help="Zipf skew exponent for --workload zipf (default 1.2)",
    )
    stats_parser.add_argument(
        "--window", type=int, default=256,
        help="tuples kept live by --workload sliding-window (default 256)",
    )
    stats_parser.add_argument(
        "--no-compile", action="store_true",
        help="disable the compiled delta-plan fast path (A/B against the "
        "generic interpreter)",
    )
    stats_parser.add_argument(
        "--no-compile-enum", action="store_true",
        help="disable the compiled enumeration kernel (A/B against the "
        "generic recursive walk)",
    )
    stats_parser.add_argument(
        "--no-codegen", action="store_true",
        help="run the compiled plans interpreted instead of as "
        "exec-generated source kernels (A/B against codegen)",
    )

    explain_parser = subparsers.add_parser(
        "explain",
        help="print the maintenance plan; --kernel-source dumps the "
        "generated kernel code",
    )
    explain_parser.add_argument("query", help='e.g. "Q(A) = R(A,B) * S(B)"')
    explain_parser.add_argument(
        "--fd", action="append", default=[], metavar="'X -> Y'",
        help="functional dependency (repeatable)",
    )
    explain_parser.add_argument(
        "--insert-only", action="store_true",
        help="assume an insert-only update stream (Section 4.6)",
    )
    explain_parser.add_argument(
        "--kernel-source", action="store_true",
        help="dump the generated Python source of every delta/enum kernel",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="closed-loop load test of the async group-commit serving "
        "front-end (concurrent writers + readers)",
    )
    serve_parser.add_argument("query", help='e.g. "Q(A) = R(A,B) * S(B)"')
    serve_parser.add_argument(
        "--fd", action="append", default=[], metavar="'X -> Y'",
        help="functional dependency (repeatable)",
    )
    serve_parser.add_argument(
        "--updates", type=int, default=5000,
        help="total updates across all writers (default 5000)",
    )
    serve_parser.add_argument(
        "--writers", type=int, default=4,
        help="concurrent writer tasks (default 4)",
    )
    serve_parser.add_argument(
        "--readers", type=int, default=2,
        help="concurrent point-lookup reader tasks (default 2)",
    )
    serve_parser.add_argument(
        "--prefill", type=int, default=50,
        help="tuples preloaded per relation (default 50)",
    )
    serve_parser.add_argument(
        "--domain", type=int, default=16,
        help="attribute value domain size (default 16)",
    )
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--max-batch", type=int, default=256,
        help="group-commit size trigger (default 256)",
    )
    serve_parser.add_argument(
        "--max-delay", type=float, default=2.0, metavar="MS",
        help="group-commit latency trigger in milliseconds (default 2)",
    )
    serve_parser.add_argument(
        "--high-water", type=int, default=4096,
        help="queue depth at which submit() blocks (default 4096)",
    )
    serve_parser.add_argument(
        "--shards", type=int, default=1,
        help="hash-partition maintenance across N shards (default 1)",
    )
    serve_parser.add_argument(
        "--shard-executor",
        choices=("serial", "thread", "process"),
        default="thread",
        help="shard executor: in-process serial/thread pools, or "
        "persistent worker processes (default thread)",
    )
    serve_parser.add_argument(
        "--ipc",
        choices=("delta", "pickle-engine"),
        default="delta",
        help="process-executor wire protocol: delta-only persistent "
        "workers, or the legacy ship-the-engine-per-batch oracle "
        "(default delta)",
    )
    serve_parser.add_argument(
        "--workload",
        choices=("uniform", "zipf", "sliding-window"),
        default="uniform",
        help="stream shape (default uniform)",
    )
    serve_parser.add_argument("--zipf-s", type=float, default=1.2)
    serve_parser.add_argument("--window", type=int, default=256)
    serve_parser.add_argument(
        "--per-update", action="store_true",
        help="commit every update individually (max_batch=1, no "
        "deadline) — the group-commit A/B baseline",
    )
    serve_parser.add_argument(
        "--no-codegen", action="store_true",
        help="run the compiled plans interpreted instead of as "
        "exec-generated source kernels (A/B against codegen)",
    )
    serve_parser.add_argument(
        "--no-snapshot-reads", action="store_true",
        help="serialize reads against commits instead of answering from "
        "the last published epoch (the pre-epoch read model)",
    )
    serve_parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="dump the recorder (with the serving block) as repro.obs/1 "
        "JSON",
    )
    serve_parser.add_argument(
        "--smoke", action="store_true",
        help="clamp to a short CI-sized run (at most 500 updates)",
    )
    serve_parser.add_argument(
        "--change-feed", action="store_true",
        help="attach a change-feed subscriber that applies every "
        "per-epoch output delta and verifies the maintained state "
        "against a fresh drain (exit 1 on mismatch)",
    )

    plot_parser = subparsers.add_parser(
        "benchplot",
        help="render repro.bench/1 JSON records as charts (PNG, or ASCII "
        "when matplotlib is unavailable)",
    )
    plot_parser.add_argument(
        "records", nargs="+", metavar="BENCH.json",
        help="one or more repro.bench/1 JSON records",
    )
    plot_parser.add_argument(
        "-o", "--out", default="plots",
        help="output directory (default plots/)",
    )
    plot_parser.add_argument(
        "--ascii", action="store_true",
        help="force the ASCII renderer even when matplotlib is installed",
    )

    diff_parser = subparsers.add_parser(
        "benchdiff",
        help="diff two repro.bench/1 JSON records; exit 1 on regressions",
    )
    diff_parser.add_argument("old", help="baseline BENCH_*.json")
    diff_parser.add_argument("new", help="candidate BENCH_*.json")
    diff_parser.add_argument(
        "--band", type=float, default=0.2,
        help="relative noise band before a bad move counts as a "
        "regression (default 0.2 = ±20%%)",
    )

    args = parser.parse_args(argv)
    if args.command == "classify":
        return classify(args.query, args.fd, args.insert_only)
    if args.command == "demo":
        return demo()
    if args.command == "stats":
        return run_stats(
            args.query,
            args.fd,
            args.insert_only,
            args.updates,
            args.prefill,
            args.domain,
            args.seed,
            args.batch,
            args.enum_interval,
            args.json,
            args.shards,
            args.shard_executor,
            args.ipc,
            args.workload,
            args.zipf_s,
            compile_plans=not args.no_compile,
            compile_enum=not args.no_compile_enum,
            codegen=not args.no_codegen,
            window=args.window,
        )
    if args.command == "explain":
        return run_explain(
            args.query, args.fd, args.insert_only, args.kernel_source
        )
    if args.command == "serve":
        return run_serve(
            args.query,
            args.fd,
            args.updates,
            args.writers,
            args.readers,
            args.prefill,
            args.domain,
            args.seed,
            args.max_batch,
            args.max_delay,
            args.high_water,
            args.json,
            args.shards,
            args.shard_executor,
            args.ipc,
            args.workload,
            args.zipf_s,
            args.window,
            per_update=args.per_update,
            smoke=args.smoke,
            snapshot_reads=False if args.no_snapshot_reads else None,
            codegen=not args.no_codegen,
            change_feed=args.change_feed,
        )
    if args.command == "benchplot":
        from .bench.plot import benchplot

        return benchplot(args.records, args.out, ascii_only=args.ascii)
    if args.command == "benchdiff":
        from .bench.diff import benchdiff

        return benchdiff(args.old, args.new, band=args.band)
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
