"""Columnar batch coalescing: parallel key/payload lists for kernels.

The generated batch kernels (:mod:`repro.viewtree.codegen`) flow deltas
through parallel ``(keys, payloads)`` lists instead of the
dict-of-tuples of :func:`repro.data.update.coalesce_grouped` — a
coalesced delta's keys are distinct, so the dict bought nothing on the
hot path while charging a hash per entry at every stage.
:func:`coalesce_columnar` produces that representation directly, with
exactly ``coalesce_grouped``'s semantics: same surviving entries, same
first-occurrence order for relations and keys, relations whose deltas
cancel entirely absent.

For rings that declare :attr:`~repro.rings.base.Semiring.numeric_dtype`
(e.g. the float ring backing SUM-style aggregates) large batches take a
numpy fast path: payloads of each relation accumulate into a dense
float64 array via ``numpy.bincount`` over first-occurrence slot ids.
``bincount`` folds weights in input order, so repeated-key accumulation
performs the same left-to-right float additions as the dict path —
bit-identical totals — and the zero filter still goes through the
ring's own ``is_zero`` (tolerance band included).  numpy is optional:
absent numpy, small batches, and non-numeric rings all use the pure
Python path.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..rings.base import Semiring
from ..rings.standard import Z
from .update import Update

try:  # pragma: no cover - exercised indirectly via coalesce_columnar
    import numpy as _np
except Exception:  # pragma: no cover - numpy is baked into CI images
    _np = None

#: Below this many updates the numpy path's array setup costs more than
#: the Python-level accumulation it replaces.
NUMPY_MIN_BATCH = 64


def coalesce_columnar(
    batch: Iterable[Update], ring: Semiring = Z
) -> dict[str, tuple[list, list]]:
    """Coalesce a batch into per-relation parallel key/payload lists.

    Returns ``{relation: (keys, payloads)}`` with the content and order
    of :func:`repro.data.update.coalesce_grouped` — the columnar twin
    the generated kernels and bulk leaf writes consume.
    """
    if (
        _np is not None
        and ring.numeric_dtype is not None
        and isinstance(batch, (list, tuple))
        and len(batch) >= NUMPY_MIN_BATCH
    ):
        return _coalesce_numeric(batch, ring)
    grouped: dict[str, dict[tuple, Any]] = {}
    add = ring.add
    # Rings whose ``add`` is Python ``+`` fold inline (see
    # Semiring.add_operator): one bytecode instead of a call per repeat.
    plus = ring.add_operator == "+"
    for update in batch:
        deltas = grouped.get(update.relation)
        if deltas is None:
            deltas = grouped[update.relation] = {}
        previous = deltas.get(update.key)
        if previous is None:
            deltas[update.key] = update.payload
        elif plus:
            deltas[update.key] = previous + update.payload
        else:
            deltas[update.key] = add(previous, update.payload)
    is_zero = ring.is_zero
    exact = ring.exact_zero
    zero = ring.zero
    result: dict[str, tuple[list, list]] = {}
    for relation, deltas in grouped.items():
        keys: list = []
        payloads: list = []
        for key, payload in deltas.items():
            if (payload != zero) if exact else not is_zero(payload):
                keys.append(key)
                payloads.append(payload)
        if keys:
            result[relation] = (keys, payloads)
    return result


def _coalesce_numeric(
    batch: Iterable[Update], ring: Semiring
) -> dict[str, tuple[list, list]]:
    """The numpy fast path: dense per-relation accumulation arrays."""
    # Gather: one slot per first occurrence of (relation, key), plus the
    # flat (slot, payload) stream in batch order.
    slot_of: dict[str, dict[tuple, int]] = {}
    keys_of: dict[str, list] = {}
    slots_of: dict[str, list[int]] = {}
    values_of: dict[str, list] = {}
    for update in batch:
        relation = update.relation
        slots = slot_of.get(relation)
        if slots is None:
            slots = slot_of[relation] = {}
            keys_of[relation] = []
            slots_of[relation] = []
            values_of[relation] = []
        key = update.key
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(slots)
            keys_of[relation].append(key)
        slots_of[relation].append(slot)
        values_of[relation].append(update.payload)
    dtype = ring.numeric_dtype
    is_zero = ring.is_zero
    exact = ring.exact_zero
    zero = ring.zero
    result: dict[str, tuple[list, list]] = {}
    for relation, keys in keys_of.items():
        # bincount accumulates weights in input order: the per-slot fold
        # is the same left-to-right ring.add sequence as the dict path.
        totals = _np.bincount(
            _np.asarray(slots_of[relation], dtype=_np.intp),
            weights=_np.asarray(values_of[relation], dtype=dtype),
            minlength=len(keys),
        ).tolist()
        out_keys: list = []
        out_payloads: list = []
        for key, payload in zip(keys, totals):
            if (payload != zero) if exact else not is_zero(payload):
                out_keys.append(key)
                out_payloads.append(payload)
        if out_keys:
            result[relation] = (out_keys, out_payloads)
    return result
