"""Seeded input generators for the benchmark workloads.

The benchmark makes its own inputs instead of using ``repro.workloads`` or
``repro.serve.loadgen``, so that a change to those modules cannot silently
change what is measured.  Every generator is a pure function of its shape
parameters and a ``random.Random`` seeded from ``--seed``; the program under
test only ever receives the generated updates.

:meth:`Inputs.final_after` computes the expected base relations (plain
dicts of key -> multiplicity) without the library, so the correctness gate
builds its oracle from them rather than from the engine's own database.
"""

from __future__ import annotations

import random
from collections import deque

#: Shape of the Retailer workload (the paper's Fig. 4 join).  About 20k
#: prefilled Inventory rows; an Inventory-heavy stream with ~20% deletes.
RETAILER_SHAPE = {
    "query": (
        "Retailer(locn, dateid, ksn) = Inventory(locn, dateid, ksn, units)"
        " * Weather(locn, dateid, temp) * Location(locn, zip)"
        " * Census(locn, population) * Demographics(locn, income)"
    ),
    "locations": 50,
    "dates": 40,
    "items": 120,
    "inventory_rows": 20_000,
    "weather_density": 0.8,
    "delete_fraction": 0.2,
    # Cumulative mix of the insert stream (Fig. 4 is Inventory-heavy).
    "mix": (("Inventory", 0.80), ("Weather", 0.90), ("Census", 0.95),
            ("Demographics", 1.0)),
}

#: Shape of the high-fan-out join ``Q(Y,X,Z) = R(Y,X) * S(Y,Z)``.  A sliding
#: window of ``window`` live tuples per relation keeps the output steady at
#: about 64 * 24 * 24 ~ 36k tuples, far larger than any commit's delta.
FANOUT_SHAPE = {
    "query": "Q(Y, X, Z) = R(Y, X) * S(Y, Z)",
    "y_domain": 64,
    "xz_domain": 1024,
    "window": 1536,
}

RETAILER_SCHEMAS = {
    "Inventory": ("locn", "dateid", "ksn", "units"),
    "Weather": ("locn", "dateid", "temp"),
    "Location": ("locn", "zip"),
    "Census": ("locn", "population"),
    "Demographics": ("locn", "income"),
}

FANOUT_SCHEMAS = {"R": ("Y", "X"), "S": ("Y", "Z")}


def _bump(table: dict, key: tuple, payload: int) -> None:
    value = table.get(key, 0) + payload
    if value:
        table[key] = value
    else:
        del table[key]


class Inputs:
    """Generated inputs of one workload.

    ``prefill`` maps relation -> list of keys inserted before set-up (each
    with multiplicity 1) and ``lookups`` is a list of output keys to probe.
    The update stream is not held: :meth:`stream` regenerates it, so a
    long open-loop run does not keep its whole stream resident.
    """

    def __init__(self, schemas, prefill, stream, lookups):
        self.schemas = schemas
        self.prefill = prefill
        self._stream = stream
        self.lookups = lookups

    def stream(self, count: int):
        """The first ``count`` updates as ``(relation, key, payload)``."""
        return self._stream(count)

    def final_after(self, count: int) -> dict[str, dict[tuple, int]]:
        """Base relations after the prefill and the first ``count`` updates."""
        final = {name: {} for name in self.schemas}
        for name, keys in self.prefill.items():
            for key in keys:
                _bump(final[name], key, 1)
        for name, key, payload in self.stream(count):
            _bump(final[name], key, payload)
        return final


def _resume(state) -> random.Random:
    rng = random.Random()
    rng.setstate(state)
    return rng


def retailer_inputs(seed: int) -> Inputs:
    """Prefill, update stream and lookups of the Retailer workload."""
    shape = RETAILER_SHAPE
    rng = random.Random(f"retailer/{seed}")
    locations, dates, items = (
        shape["locations"], shape["dates"], shape["items"]
    )
    prefill: dict[str, list[tuple]] = {name: [] for name in RETAILER_SCHEMAS}
    for locn in range(locations):
        prefill["Location"].append((locn, 10_000 + locn // 3))
        prefill["Census"].append((locn, rng.randrange(1_000, 100_000)))
        prefill["Demographics"].append((locn, rng.randrange(20_000, 120_000)))
        for dateid in range(dates):
            if rng.random() < shape["weather_density"]:
                prefill["Weather"].append((locn, dateid, rng.randrange(-10, 35)))
    for _ in range(shape["inventory_rows"]):
        prefill["Inventory"].append((
            rng.randrange(locations), rng.randrange(dates),
            rng.randrange(items), rng.randrange(1, 50),
        ))
    after_prefill = rng.getstate()
    inventory = prefill["Inventory"]

    def stream(count: int):
        # Deletes retract a live row (prefilled Inventory or streamed), so
        # multiplicities never go negative.  Swap-remove keeps picks O(1).
        rng = _resume(after_prefill)
        live = [("Inventory", key) for key in inventory]
        mix = shape["mix"]
        for _ in range(count):
            if rng.random() < shape["delete_fraction"]:
                index = rng.randrange(len(live))
                live[index], live[-1] = live[-1], live[index]
                name, key = live.pop()
                yield name, key, -1
                continue
            roll = rng.random()
            name = next(rel for rel, bound in mix if roll < bound)
            locn = rng.randrange(locations)
            if name == "Inventory":
                key = (locn, rng.randrange(dates), rng.randrange(items),
                       rng.randrange(1, 50))
            elif name == "Weather":
                key = (locn, rng.randrange(dates), rng.randrange(-10, 35))
            elif name == "Census":
                key = (locn, rng.randrange(1_000, 100_000))
            else:
                key = (locn, rng.randrange(20_000, 120_000))
            yield name, key, 1
            live.append((name, key))

    # Half the probes name an Inventory row's output key (mostly hits),
    # half a uniform key (mostly misses).
    rng = random.Random(f"retailer-lookups/{seed}")
    lookups = []
    for i in range(4096):
        if i % 2:
            lookups.append(inventory[rng.randrange(len(inventory))][:3])
        else:
            lookups.append((rng.randrange(locations), rng.randrange(dates),
                            rng.randrange(items)))
    return Inputs(RETAILER_SCHEMAS, prefill, stream, lookups)


def fanout_inputs(seed: int) -> Inputs:
    """Sliding-window insert/delete stream over ``R(Y,X)`` and ``S(Y,Z)``.

    Each step inserts a fresh tuple into R or S and then deletes that
    relation's oldest live tuple, so state and output stay steady.
    """
    shape = FANOUT_SHAPE
    rng = random.Random(f"fanout/{seed}")
    ys, xzs, window = shape["y_domain"], shape["xz_domain"], shape["window"]
    prefill = {
        name: [(rng.randrange(ys), rng.randrange(xzs)) for _ in range(window)]
        for name in FANOUT_SCHEMAS
    }
    after_prefill = rng.getstate()

    def stream(count: int):
        rng = _resume(after_prefill)
        fifo = {name: deque(keys) for name, keys in prefill.items()}
        for index in range(0, count, 2):
            name = "R" if rng.random() < 0.5 else "S"
            key = (rng.randrange(ys), rng.randrange(xzs))
            fifo[name].append(key)
            yield name, key, 1
            if index + 1 < count:
                yield name, fifo[name].popleft(), -1

    # Probes pair an R and an S tuple of the same Y from the prefill, so
    # they hit until the window slides past them.
    rng = random.Random(f"fanout-lookups/{seed}")
    s_by_y: dict[int, list] = {}
    for y, z in prefill["S"]:
        s_by_y.setdefault(y, []).append(z)
    lookups = []
    while len(lookups) < 4096:
        y, x = prefill["R"][rng.randrange(window)]
        zs = s_by_y.get(y)
        if zs:
            lookups.append((y, x, zs[rng.randrange(len(zs))]))
    return Inputs(FANOUT_SCHEMAS, prefill, stream, lookups)
