"""The layer ledger: spans around the program's layer boundaries.

The tracer patches the functions listed in :func:`install_boundaries` at the
places their callers look them up, records one span per outermost call of a
layer (name, start, end, parent) in memory, and computes each layer's *self
time* afterwards: a span's duration minus the durations of its direct
children.  A layer that re-enters itself (``query`` calling ``execute``)
stays one span, so self times never double count.

Every patch is undone by :meth:`LayerTracer.restore`; use
:meth:`LayerTracer.installed` so that happens even when the run fails.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter

#: The layers of the ledger, in pipeline order.
LAYERS = (
    "ris",
    "translator",
    "scheduler",
    "network",
    "shell",
    "trace.record",
    "trace.flush",
    "guarantees",
    "validate",
    "lint",
    "runtime",
)


class LayerTracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        #: One ``[layer, start_ns, end_ns, parent_index]`` per span; the
        #: parent is ``-1`` for a span opened with no span open.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, layer: str):
        """Open a span of ``layer``, or return ``None`` when not recording
        or when ``layer`` is already the innermost open span."""
        stack = self._stack
        spans = self.spans
        if not self.active or (stack and spans[stack[-1]][0] == layer):
            return None
        span = [layer, 0, 0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        span = self._open(layer)
        if span is None:
            return fn(*args, **kwargs)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    @contextlib.contextmanager
    def span(self, layer: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(layer)
        try:
            yield
        finally:
            if span is not None:
                self._close(span)

    def count(self, name: str, amount: int = 1) -> None:
        if self.active:
            self.counts[name] += amount

    # -- patching -------------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, count: str | None = None):
        """Replace ``owner.attr`` by a spanned wrapper; remember the original."""
        original = _own_attribute(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if count is not None and tracer.active:
                tracer.counts[count] += 1
            return tracer.call(layer, original, *args, **kwargs)

        self.patch(owner, attr, wrapper)
        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        """Install ``replacement`` as ``owner.attr``; remember the original."""
        self._patches.append((owner, attr, _own_attribute(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.active = False

    @property
    def patched(self) -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, __ in self._patches]

    @contextlib.contextmanager
    def installed(self):
        """Install every layer boundary for the block, then restore them."""
        try:
            install_boundaries(self)
            yield self
        finally:
            self.restore()

    # -- results --------------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def write_spans(self, path) -> None:
        """Write the recorded spans out, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")


def _own_attribute(owner, attr: str):
    """``owner.attr`` as stored on ``owner`` itself: a class must define the
    method it is asked to wrap, so restoring it never shadows a base class."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def self_times(spans) -> dict[str, tuple[int, int]]:
    """Per layer: (calls, self time in ns) from ``(name, start, end, parent)``.

    Self time is a span's duration minus the durations of its direct
    children; summed over all spans it equals the time covered by the
    outermost spans.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    result: dict[str, list[int]] = {}
    for index, (name, start, end, __) in enumerate(spans):
        entry = result.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += end - start - child_ns[index]
    return {name: (calls, ns) for name, (calls, ns) in result.items()}


def install_boundaries(tracer: LayerTracer) -> None:
    """Wrap every layer boundary of the ledger.

    Each function is patched where its callers look it up: methods on their
    class (instances resolve them per call), module functions in the module
    that calls them.  Bound methods captured at construction time (a shell's
    network handler, the wire gateway's frame dispatch) pick up the wrapper
    only for scenarios built after this call.
    """
    import repro.analysis
    import repro.core.trace
    import repro.runtime.gateway
    from repro.cm.shell import CMShell
    from repro.cm.translator import CMTranslator
    from repro.core.guarantees.base import Guarantee
    from repro.core.trace import ExecutionTrace
    from repro.ris.relational.database import RelationalDatabase
    from repro.runtime.gateway import WireNetwork
    from repro.sim.network import Network
    from repro.sim.scheduler import Simulator

    wrap = tracer.wrap
    wrap(RelationalDatabase, "execute", "ris")
    wrap(RelationalDatabase, "query", "ris")

    wrap(CMTranslator, "request_write", "translator", "translator.writes")
    wrap(CMTranslator, "request_read", "translator", "translator.reads")
    wrap(CMTranslator, "apply_spontaneous_write", "translator")
    schedule_op = CMTranslator.__dict__["_schedule_op"]

    def spanned_schedule_op(self, operation, fn):
        # The completion of every translator operation — native write,
        # native read, notify delivery — runs later from the clock; give it
        # its own translator span.
        counter = "translator.notifications" if operation == "notify" else None

        def completion():
            if counter is not None:
                tracer.count(counter)
            return tracer.call("translator", fn)

        return schedule_op(self, operation, completion)

    tracer.patch(CMTranslator, "_schedule_op", spanned_schedule_op)

    wrap(Simulator, "run", "scheduler")
    wrap(Network, "send", "network", "network.messages")
    wrap(Network, "_deliver", "network")

    wrap(CMShell, "deliver_local_event", "shell")
    wrap(CMShell, "deliver_local_events", "shell")
    wrap(CMShell, "ingest_batch", "shell")
    wrap(CMShell, "_on_message", "shell")

    wrap(ExecutionTrace, "record", "trace.record")
    wrap(ExecutionTrace, "record_batch", "trace.record")
    wrap(ExecutionTrace, "_flush_pending", "trace.flush")

    for cls in [Guarantee, *_subclasses(Guarantee)]:
        if "check" in cls.__dict__:
            wrap(cls, "check", "guarantees")

    validate = wrap(repro.core.trace, "validate_trace", "validate")
    # ``repro.cm.verify`` the attribute is the function; patch the module.
    verify_module = importlib.import_module("repro.cm.verify")
    tracer.patch(verify_module, "validate_trace", validate)
    wrap(repro.analysis, "lint_manager", "lint")

    wrap(repro.runtime.gateway, "encode_payload", "runtime")
    wrap(repro.runtime.gateway, "decode_payload", "runtime")
    wrap(WireNetwork, "send", "runtime")
    wrap(WireNetwork, "_on_frame", "runtime")
    wrap(WireNetwork, "_on_frame_batch", "runtime")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
