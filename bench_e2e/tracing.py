"""Span tracing for the traced repeats, from the benchmark's own files.

The :class:`Tracer` wraps *public callables on the object graph a workload
built* -- ``sim.run`` / ``schedule`` / ``schedule_at``, each device's
``receive``, each ``Port.enqueue``, ``tcpu.execute`` / ``execute_batch``,
the endpoint's ``send`` / ``wrap`` / ``send_tpp`` and the callbacks given
to them, handlers registered through ``Host.on_ethertype`` /
``on_udp_port``, endpoint taps -- by shadowing them with instance
attributes, so nothing under ``src/`` changes and an untraced repeat runs
the unmodified program.  Every scheduled event callback becomes a span
labelled by the package of the object that owns it.

A span is ``(id, name, start_ns, end_ns, parent_id, op)``; ``op`` is the
uid of the frame that caused it (an echo keeps its request's uid), so the
spans of one packet's round trip share an identifier.  Spans stay in
memory and are written out when the benchmark ends.  A span's self time is
its duration minus its children's; a layer is the first dotted component
of the span name, i.e. one of this repo's packages.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

#: This repo's packages, as they appear in span names.
LAYERS = ("sim", "net", "asic", "core", "endhost", "control", "apps",
          "telemetry", "analysis")

#: Module-level names that library code calls directly (so an instance
#: shadow cannot reach them): ``(module, attribute, span name)``.  A patch
#: point that no longer exists is skipped; the self-test notices.
PATCH_POINTS = (
    ("repro.apps.rcp", "assemble", "core.assemble"),
    ("repro.telemetry.programs", "assemble", "core.assemble"),
    ("repro.telemetry.programs", "verify_program", "core.verify"),
    ("repro.endhost.client", "verify_program", "core.verify"),
)


class NoTrace:
    """The hooks of an untraced repeat: nothing is wrapped."""

    def network(self, net) -> None:
        pass

    def endpoint(self, endpoint) -> None:
        pass

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def callback(self, callback: Callable) -> Callable:
        return callback


class Tracer:
    """Records spans around the layer boundaries of one repeat."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        # [next span id, current span id, current op]: a list so the
        # wrappers mutate it without attribute lookups.
        self._state = [0, -1, -1]
        self._alias: Dict[int, int] = {}
        self._labels: Dict[tuple, str] = {}
        self._callbacks: Dict[tuple, Callable] = {}
        self._patched: List[tuple] = []
        self.nets: List = []
        self.endpoints: List = []
        self._span = self._make_span()
        for module_name, attr, name in PATCH_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is not None:
                setattr(module, attr, self.wrap(name, original))
                self._patched.append((module, attr, original))

    def close(self) -> None:
        """Undo the module-level patches (instance shadows die with the
        repeat's object graph)."""
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------ #
    # Span recording
    # ------------------------------------------------------------------ #

    def _make_span(self) -> Callable:
        state, spans, alias = self._state, self.spans, self._alias
        clock = perf_counter_ns

        def span(name, fn, args, kwargs):
            span_id = state[0]
            state[0] = span_id + 1
            parent, outer_op = state[1], state[2]
            op = outer_op
            if args:
                uid = getattr(args[0], "uid", None)
                if uid is not None:
                    if outer_op == -1:
                        op = alias.get(uid, uid)
                    elif uid != outer_op:
                        # A frame born while another is being handled (an
                        # echo) belongs to the same operation.
                        alias[uid] = outer_op
            state[1], state[2] = span_id, op
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                state[1], state[2] = parent, outer_op
                spans.append((span_id, name, start, end, parent, op))

        return span

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span called ``name`` around every call."""
        span = self._span

        def traced(*args, **kwargs):
            return span(name, fn, args, kwargs)

        traced.traced_as = name
        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span (for the benchmark's own call sites)."""
        return self._span(name, fn, args, kwargs)

    def _label(self, callback: Callable) -> Optional[str]:
        """Span name for a callback: ``<package>.<qualname>`` of its
        owner, or ``None`` when it is already one of our wrappers."""
        if hasattr(callback, "traced_as"):
            return None
        owner = getattr(callback, "__self__", None)
        # sim.timers fire on behalf of whoever armed them: attribute the
        # event to that owner.  This reads the timers' one non-public
        # attribute, only to label; without it the span is labelled "sim".
        inner = getattr(owner, "_callback", None)
        if callable(inner):
            label = self._label(inner)
            return label if label is not None else "sim.timer"
        func = getattr(callback, "__func__", callback)
        key = (func, type(owner))
        label = self._labels.get(key)
        if label is None:
            module = (type(owner).__module__ if owner is not None
                      else getattr(func, "__module__", None) or "")
            parts = module.split(".")
            layer = (parts[1] if parts[0] == "repro" and len(parts) > 1
                     else "bench")
            qualname = getattr(func, "__qualname__", type(func).__name__)
            label = self._labels[key] = f"{layer}.{qualname}"
        return label

    def callback(self, callback: Callable) -> Callable:
        """A traced version of a handler / response callback, labelled by
        the package of its owner."""
        label = self._label(callback)
        if label is None:
            return callback
        key = (getattr(callback, "__func__", callback),
               id(getattr(callback, "__self__", None)))
        cached = self._callbacks.get(key)
        if cached is None:
            # The wrapper keeps the owner alive, so its id stays unique.
            cached = self._callbacks[key] = self.wrap(label, callback)
        return cached

    # ------------------------------------------------------------------ #
    # Instrumenting the object graph
    # ------------------------------------------------------------------ #

    def network(self, net) -> None:
        """Shadow the layer-boundary callables of a freshly built network.
        Call it before anything is scheduled or registered on ``net``."""
        self.nets.append(net)
        sim = net.sim
        sim.run = self.wrap("sim.run", sim.run)
        sim.schedule = self._scheduler(sim.schedule)
        sim.schedule_at = self._scheduler(sim.schedule_at)
        for device in net.all_devices():
            layer = type(device).__module__.split(".")[1]
            device.receive = self.wrap(f"{layer}.receive", device.receive)
            for port in device.ports:
                port.enqueue = self.wrap("net.enqueue", port.enqueue)
            tcpu = getattr(device, "tcpu", None)
            if tcpu is not None:
                tcpu.execute = self.wrap("core.execute", tcpu.execute)
                tcpu.execute_batch = self.wrap("core.execute_batch",
                                               tcpu.execute_batch)
            for registrar in ("on_ethertype", "on_udp_port"):
                if hasattr(device, registrar):
                    setattr(device, registrar, self._registrar(
                        getattr(device, registrar)))

    def endpoint(self, endpoint) -> None:
        """Shadow a TPP endpoint's send side and tap registration."""
        self.endpoints.append(endpoint)
        endpoint.send = self._sender("endhost.send", endpoint.send)
        endpoint.wrap = self._sender("endhost.wrap", endpoint.wrap)
        endpoint.send_tpp = self.wrap("endhost.send_tpp", endpoint.send_tpp)
        add_tap = endpoint.add_tap
        endpoint.add_tap = lambda tap: add_tap(self.callback(tap))

    def _scheduler(self, schedule: Callable) -> Callable:
        """``sim.schedule`` / ``schedule_at`` that times the heap push and
        makes the scheduled callback a labelled span when it fires."""
        state, spans, span = self._state, self.spans, self._span
        clock = perf_counter_ns
        label = self._label

        def run_event(name, callback, *args):
            span(name, callback, args, {})

        def traced_schedule(when_ns, callback, *args):
            span_id = state[0]
            state[0] = span_id + 1
            name = label(callback)
            start = clock()
            if name is None:
                event = schedule(when_ns, callback, *args)
            else:
                event = schedule(when_ns, run_event, name, callback, *args)
            spans.append((span_id, "sim.schedule", start, clock(),
                          state[1], state[2]))
            return event

        return traced_schedule

    def _registrar(self, register: Callable) -> Callable:
        def traced_register(key, handler):
            register(key, self.callback(handler))
        return traced_register

    def _sender(self, name: str, send: Callable) -> Callable:
        """``endpoint.send`` / ``wrap`` whose ``on_response`` /
        ``on_timeout`` keyword callbacks become spans too."""
        traced = self.wrap(name, send)

        def traced_send(*args, **kwargs):
            for key in ("on_response", "on_timeout"):
                callback = kwargs.get(key)
                if callback is not None:
                    kwargs[key] = self.callback(callback)
            return traced(*args, **kwargs)

        return traced_send

    # ------------------------------------------------------------------ #
    # Reading the spans back
    # ------------------------------------------------------------------ #

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans, self._state[0])

    def write_jsonl(self, path) -> None:
        origin = min((span[2] for span in self.spans), default=0)
        with open(path, "w") as out:
            for span_id, name, start, end, parent, op in sorted(self.spans):
                out.write(json.dumps(
                    {"id": span_id, "name": name, "start_ns": start - origin,
                     "end_ns": end - origin, "parent": parent, "op": op},
                    separators=(",", ":")) + "\n")


class SpanSummary:
    """Per-name counts, inclusive and self times of one repeat's spans,
    split by the phase (``bench.setup`` / ``bench.run`` / ``bench.finish``)
    each span fell in."""

    def __init__(self, spans: List[tuple], n_ids: int) -> None:
        duration = [0] * n_ids
        children = [0] * n_ids
        name_of: List[Optional[str]] = [None] * n_ids
        for span_id, name, start, end, parent, _ in spans:
            duration[span_id] = end - start
            name_of[span_id] = name
            if parent >= 0:
                children[parent] += end - start
        phases = sorted((start, end, name) for _, name, start, end, parent, _
                        in spans if parent == -1)
        self.count: Dict[tuple, int] = defaultdict(int)
        self.total_ns: Dict[tuple, int] = defaultdict(int)
        self.self_ns: Dict[tuple, int] = defaultdict(int)
        #: ``(phase, child name, parent name) -> count``.
        self.edges: Dict[tuple, int] = defaultdict(int)
        self.phase_ns = {name: end - start for start, end, name in phases}
        for span_id, name, start, end, parent, _ in spans:
            phase = next((p for s, e, p in phases if s <= start <= e), "")
            key = (phase, name)
            self.count[key] += 1
            self.total_ns[key] += duration[span_id]
            self.self_ns[key] += duration[span_id] - children[span_id]
            if parent >= 0:
                self.edges[(phase, name, name_of[parent])] += 1

    def layer_self_ns(self, phase: str) -> Dict[str, int]:
        """Self time per layer inside one phase."""
        result: Dict[str, int] = defaultdict(int)
        for (span_phase, name), value in self.self_ns.items():
            if span_phase == phase:
                result[name.split(".", 1)[0]] += value
        return result

    def matching(self, table: Dict[tuple, int], phase: Optional[str],
                 *names: str) -> int:
        """Sum of ``table`` over the named spans; a name ending in ``.``
        matches as a prefix and ``phase=None`` means every phase."""
        prefixes = tuple(name for name in names if name.endswith("."))
        return sum(value for (span_phase, name), value in table.items()
                   if (phase is None or span_phase == phase)
                   and (name in names or name.startswith(prefixes)))
