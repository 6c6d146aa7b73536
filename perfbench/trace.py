"""Span tracer that wraps the library's public entry points from outside.

Nothing under ``src/`` is changed: :class:`Tracer` replaces an attribute
(a module function, a class method or one instance's bound method) with a
timing wrapper and puts the original back on :meth:`Tracer.detach`.  Each
call records a span ``[id, name, start, end, parent, commit, info]``;
``parent`` is the innermost open span on the same thread and ``commit``
the id of the commit in progress when it started.  Spans stay in memory
and are written out once, at exit.

Hooks are attached by dotted path.  When a target is missing (a refactor
renamed or deleted it) the hook is listed in :attr:`Tracer.unattached`
with the reason, and the metrics fed by it read 0; the traced run never
crashes on it and never drops it silently.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        #: hook path -> "span name: reason" for targets that were missing.
        self.unattached: dict[str, str] = {}
        self.commit = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list = []
        self._gc_start = None

    # -- span bookkeeping ---------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, info=None):
        """Record a span around the benchmark's own call into a layer."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        record = [sid, name, _perf(), 0.0, parent, self.commit, info]
        stack.append(sid)
        try:
            yield record
        finally:
            stack.pop()
            record[3] = _perf()
            self.spans.append(record)

    def _wrapper(self, original, name, info, around, commit_root):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if commit_root and not stack:
                tracer.commit += 1
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            commit = tracer.commit
            stack.append(sid)
            start = _perf()
            try:
                if around is None:
                    result = original(*args, **kwargs)
                    context = None
                else:
                    with around() as context:
                        result = original(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
            extra = info(args, result, context) if info is not None else None
            tracer.spans.append([sid, name, start, end, parent, commit, extra])
            return result

        traced.__wrapped__ = original
        return traced

    # -- attaching ----------------------------------------------------

    def hook(self, path: str, name: str, *, owner=None, info=None,
             around=None, commit_root=False) -> bool:
        """Wrap the callable at ``path`` and record its calls as ``name``.

        ``path`` is ``"module:attr"`` or ``"module:Class.attr"``; with
        ``owner`` given it is just the attribute name on that object (an
        instance hook).  ``info(args, result, context)`` extracts a
        per-call payload; ``around`` is a context-manager factory entered
        around the call (its value is passed to ``info`` as context).
        """
        try:
            if owner is None:
                module_name, _, dotted = path.partition(":")
                target = importlib.import_module(module_name)
                *parents, attr = dotted.split(".")
                for part in parents:
                    target = getattr(target, part)
            else:
                target, attr = owner, path
            original = getattr(target, attr)
        except (ImportError, AttributeError) as exc:
            return self.missing(path, name, str(exc))
        if not callable(original):
            return self.missing(path, name, "not callable")
        own = getattr(target, "__dict__", {}).get(attr, _MISSING)
        if isinstance(own, (staticmethod, classmethod)):
            return self.missing(path, name, "static or class method")
        wrapper = self._wrapper(original, name, info, around, commit_root)
        try:
            setattr(target, attr, wrapper)
        except (AttributeError, TypeError) as exc:
            return self.missing(path, name, str(exc))
        self._restore.append((target, attr, own))
        return True

    def missing(self, path: str, name: str, reason: str) -> bool:
        """List ``path`` (feeding span ``name``) as unattached."""
        self.unattached[path] = f"{name}: {reason}"
        return False

    def detach(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            target, attr, own = self._restore.pop()
            if own is _MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, own)
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def watch_gc(self) -> None:
        gc.callbacks.append(self._gc_callback)

    def _gc_callback(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = _perf()
        elif self._gc_start is not None:
            self.gc_s += _perf() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- reading spans ------------------------------------------------

    def by_name(self, name: str) -> list[list]:
        return [span for span in self.spans if span[1] == name]

    def child_time(self) -> dict[int, float]:
        """Span id -> summed duration of its direct children."""
        covered: dict[int, float] = {}
        for span in self.spans:
            parent = span[4]
            if parent:
                covered[parent] = covered.get(parent, 0.0) + span[3] - span[2]
        return covered

    def self_time(self, name: str, covered: dict[int, float] | None = None) -> float:
        """Total self time (duration minus direct children) of ``name``."""
        if covered is None:
            covered = self.child_time()
        return sum(
            span[3] - span[2] - covered.get(span[0], 0.0)
            for span in self.spans
            if span[1] == name
        )

    def write(self, path: str, header: dict) -> None:
        """Dump every span as JSON lines after a header line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for sid, name, start, end, parent, commit, info in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "commit": commit,
                    "info": info,
                }) + "\n")


_MISSING = object()
