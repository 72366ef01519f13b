"""Aggregated call tracing around the program's public functions.

A :class:`LayerTracer` replaces a class attribute or module function
with a wrapper that times each call.  It keeps one record per
``(parent, name)`` pair instead of one span per call, so wrapping the
per-probe functions of a 136k-trace campaign costs a few seconds and
not gigabytes.  A record holds calls, busy seconds, the part of that
covered by wrapped children, and an optional unit count (bytes,
addresses, hops) returned by a per-wrapper hook.  Self time is busy
time minus child time.

The wrappers live here, not in the program: :meth:`LayerTracer.uninstall`
puts every original attribute back.
"""

from __future__ import annotations

import importlib
import time


class CallRecord:
    """Calls, busy seconds, child seconds and units for one (parent, name)."""

    __slots__ = ("calls", "busy", "child", "units")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.child = 0.0
        self.units = 0

    @property
    def self_time(self) -> float:
        return self.busy - self.child


class LayerTracer:
    """Wraps named callables and aggregates their timing by parent.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with a fake clock.  ``samples`` names the wrapped callables whose
    individual durations are also kept, for percentiles.
    """

    def __init__(self, clock=time.perf_counter, samples=()) -> None:
        self.clock = clock
        self.records: "dict[tuple[str, str], CallRecord]" = {}
        self.samples: "dict[str, list[float]]" = {name: [] for name in samples}
        self._stack: "list[list]" = []
        self._patched: "list[tuple[object, str, object]]" = []

    def wrap(self, name, fn, units=None):
        """Return *fn* wrapped; *name* is a string or ``f(args, kwargs)``.

        ``units(args, kwargs, result)`` returns a count added to the
        record, e.g. bytes written.
        """
        records = self.records
        stack = self._stack
        clock = self.clock
        samples = self.samples

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            parent = stack[-1][0] if stack else ""
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = records.get((parent, label))
                if record is None:
                    record = records[(parent, label)] = CallRecord()
                record.calls += 1
                record.busy += elapsed
                record.child += frame[1]
                if units is not None and result is not None:
                    record.units += units(args, kwargs, result)
                sink = samples.get(label)
                if sink is not None:
                    sink.append(elapsed)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attribute: str, name, units=None) -> bool:
        """Wrap ``owner.attribute`` in place; False when it does not exist.

        A class method stays a class method, so ``TraceCorpus.from_traces``
        still binds to the class.
        """
        raw = owner.__dict__.get(attribute) if isinstance(owner, type) else None
        if raw is None:
            raw = getattr(owner, attribute, None)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__, units))
        else:
            replacement = self.wrap(name, raw, units)
        self._patched.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)
        return True

    def patch_path(self, dotted: str, name=None, units=None) -> bool:
        """Patch ``module:attr`` or ``module:Class.attr`` by import path;
        False when the module or attribute does not exist."""
        module_name, _, attr_path = dotted.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *outer, attribute = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        return self.patch(owner, attribute, name or attr_path, units)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attribute, raw = self._patched.pop()
            setattr(owner, attribute, raw)

    def reset(self) -> None:
        """Forget the records (wrappers stay installed)."""
        self.records.clear()
        for sink in self.samples.values():
            sink.clear()
