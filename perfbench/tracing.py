"""Host self time per layer, measured from outside the program.

:class:`LayerTracer` wraps the public entry points of every
``repro.<layer>`` package — each public function and each public method
of each class the package defines — and records one span per call:
layer, name, parent span, request id, start, end and self time (the
span's own time minus the time of the spans nested inside it).

Most entry points are DES generators.  Creating a generator runs none of
its code, so a generator span times each *resume* (each ``send`` or
``throw`` the simulator or a delegating caller makes) and accumulates
them; the wrapper is itself a generator, because callers such as
``SecureMonitor.smc`` dispatch on ``inspect.isgenerator``.  Process
bodies that are not entry points (private helpers spawned with
``Simulator.process``) are wrapped at spawn time and take the layer of
the module that defines them.  ``Simulator.run`` and ``run_until`` are
the ``sim`` layer's spans: whatever the event loop spends outside every
other span is the simulator's own time.

Wrapping only forwards values and exceptions; it creates no events, so
the simulated schedule — and every simulated number — is unchanged.
Spans stay in memory and :meth:`LayerTracer.write` stores them at the
end of a run: one JSON header line (layer and entry-point names, span
count, column names and array typecodes, byte order), then each column
as a raw array in header order.
"""

from __future__ import annotations

import contextlib
import dis
import importlib
import inspect
import json
import pkgutil
import sys
import types
from array import array
from time import perf_counter
from typing import Dict, List, Optional

LAYERS = (
    "sim", "hw", "ree", "tee", "crypto", "llm", "core", "serve", "fleet", "obs",
    "workloads",
)
#: packages whose public entry points are wrapped (``sim`` is handled
#: separately: its spans are the event loop itself).
WRAPPED = LAYERS[1:]
#: layer of generators spawned by code outside ``repro`` — the
#: benchmark's own arrival process.
ARRIVALS_LAYER = "workloads"


def calls_anything(fn) -> bool:
    """Whether ``fn``'s body makes any call.  Leaf accessors (address
    arithmetic, flag reads) are not entry points: their time counts
    toward the calling span."""
    return any(ins.opname.startswith("CALL") for ins in dis.get_instructions(fn))


def layer_of(module: Optional[str]) -> Optional[str]:
    """``repro.core.pipeline`` -> ``core``; None outside the layers."""
    if not module or not module.startswith("repro."):
        return None
    name = module.split(".")[1]
    return name if name in LAYERS else None


class LayerTracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.calls = array("q")
        #: bumped by :meth:`reset`; a generator opened in an older epoch
        #: opens a fresh span on its next resume.
        self.epoch = 0
        self.current_request = -1
        self._stack: List[list] = []
        self._new_columns()

    def _new_columns(self) -> None:
        self.span_layer = array("B")
        self.span_name = array("I")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.layer_self = [0.0] * len(LAYERS)

    def _columns(self) -> List[array]:
        return [
            self.span_layer, self.span_name, self.span_parent, self.span_request,
            self.span_start, self.span_end, self.span_self,
        ]

    @contextlib.contextmanager
    def excluded(self):
        """Forget the spans, self time and calls of the enclosed code: a
        check run between measured requests, outside every span."""
        if self._stack:
            raise RuntimeError("excluded() inside an open span")
        spans = len(self.span_layer)
        layer_self = list(self.layer_self)
        calls = array("q", self.calls)
        try:
            yield
        finally:
            for column in self._columns():
                del column[spans:]
            self.layer_self[:] = layer_self
            self.calls[: len(calls)] = calls
            for index in range(len(calls), len(self.calls)):
                self.calls[index] = 0

    def reset(self) -> None:
        """Drop everything recorded so far (call at the start of the
        measured phase)."""
        self.epoch += 1
        self._new_columns()
        for i in range(len(self.calls)):
            self.calls[i] = 0

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _name(self, qualname: str) -> int:
        index = self._name_index.get(qualname)
        if index is None:
            index = self._name_index[qualname] = len(self.names)
            self.names.append(qualname)
            self.calls.append(0)
        return index

    def _open(self, layer: int, name: int, request: int, start: float) -> int:
        stack = self._stack
        if stack:
            parent = stack[-1][0]
            if request < 0:
                request = self.span_request[parent]
        else:
            parent = -1
        if request < 0:
            request = self.current_request
        span = len(self.span_layer)
        self.span_layer.append(layer)
        self.span_name.append(name)
        self.span_parent.append(parent)
        self.span_request.append(request)
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_self.append(0.0)
        return span

    def _close(self, span: int, layer: int, start: float, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        elapsed = end - start
        own = elapsed - frame[1]
        self.layer_self[layer] += own
        self.span_self[span] += own
        self.span_end[span] = end
        if stack:
            stack[-1][1] += elapsed

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def trace_generator(self, inner, layer: int, name: int, request: int = -1):
        """Drive ``inner`` exactly as ``yield from`` would, timing each
        resume as part of one span."""
        span = -1
        epoch = -1
        value = None
        error = None
        stack = self._stack
        while True:
            start = perf_counter()
            if epoch != self.epoch:
                epoch = self.epoch
                span = self._open(layer, name, request, start)
            frame = [span, 0.0]
            stack.append(frame)
            try:
                if error is None:
                    target = inner.send(value)
                else:
                    target, error = inner.throw(error), None
            except StopIteration as stop:
                self._close(span, layer, start, frame)
                return stop.value
            except BaseException:
                self._close(span, layer, start, frame)
                raise
            self._close(span, layer, start, frame)
            try:
                value = yield target
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:
                value, error = None, exc

    def _wrap_function(self, fn, layer_name: str, qualname: str):
        tracer = self
        layer = LAYERS.index(layer_name)
        name = self._name(qualname)
        calls = self.calls
        stack = self._stack
        traced_code = LayerTracer.trace_generator.__code__

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                ctx = kwargs.get("ctx")
                request = getattr(ctx, "request_id", -1) if ctx is not None else -1
                return tracer.trace_generator(fn(*args, **kwargs), layer, name, request)
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                start = perf_counter()
                span = tracer._open(layer, name, -1, start)
                frame = [span, 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(span, layer, start, frame)
                if type(result) is types.GeneratorType and result.gi_code is not traced_code:
                    result = tracer.trace_generator(result, layer, name)
                return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__module__ = fn.__module__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> int:
        """Wrap every public entry point of the layer packages and the
        simulator's loop and spawn calls.  Returns the number wrapped."""
        from repro.sim import Simulator

        modules = []
        for layer in WRAPPED:
            package = importlib.import_module("repro." + layer)
            modules.append(package)
            for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
                modules.append(importlib.import_module(info.name))
        replaced: Dict[int, object] = {}
        for module in modules:
            layer = layer_of(module.__name__)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                    and self._entry_point(value)
                ):
                    replaced[id(value)] = self._wrap_function(
                        value, layer, "%s.%s" % (module.__name__, value.__qualname__)
                    )
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    self._wrap_class(value, layer)
        # ``from x import f`` copies the reference: rebind every alias.
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and wrapper is not value:
                    setattr(module, attr, wrapper)
        self._wrap_simulator(Simulator)
        return len(self.names)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qualname = "%s.%s.%s" % (cls.__module__, cls.__qualname__, attr)
            kind = type(value)
            fn = value.__func__ if kind in (staticmethod, classmethod) else value
            if not isinstance(fn, types.FunctionType) or not self._entry_point(fn):
                continue
            wrapped = self._wrap_function(fn, layer, qualname)
            if kind in (staticmethod, classmethod):
                wrapped = kind(wrapped)
            try:
                setattr(cls, attr, wrapped)
            except (AttributeError, TypeError):
                continue  # immutable type: its calls count toward the caller

    @staticmethod
    def _entry_point(fn) -> bool:
        return inspect.isgeneratorfunction(fn) or calls_anything(fn)

    def _wrap_simulator(self, simulator: type) -> None:
        tracer = self
        sim_layer = LAYERS.index("sim")
        traced_code = LayerTracer.trace_generator.__code__
        for attr in ("run", "run_until"):
            original = getattr(simulator, attr)
            name = self._name("repro.sim.core.Simulator.%s" % attr)
            setattr(simulator, attr, self._loop_wrapper(original, sim_layer, name))
        spawn = simulator.process
        names: Dict[object, int] = {}

        def process(sim, generator, name=""):
            name = name or getattr(generator, "__name__", "process")
            if getattr(generator, "gi_code", None) is not traced_code and hasattr(generator, "gi_frame"):
                code = generator.gi_code
                index = names.get(code)
                if index is None:
                    module = generator.gi_frame.f_globals.get("__name__", "")
                    label = layer_of(module) or ARRIVALS_LAYER
                    index = names[code] = (
                        LAYERS.index(label),
                        tracer._name(
                            "%s.%s" % (module, getattr(code, "co_qualname", code.co_name))
                        ),
                    )
                layer, span_name = index
                tracer.calls[span_name] += 1
                generator = tracer.trace_generator(generator, layer, span_name)
            return spawn(sim, generator, name=name)

        process.__wrapped__ = spawn
        simulator.process = process

    def _loop_wrapper(self, original, layer: int, name: int):
        tracer = self
        stack = self._stack

        def loop(*args, **kwargs):
            tracer.calls[name] += 1
            start = perf_counter()
            span = tracer._open(layer, name, -1, start)
            frame = [span, 0.0]
            stack.append(frame)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(span, layer, start, frame)

        loop.__wrapped__ = original
        return loop

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def summary(self) -> "TraceSummary":
        """Freeze the totals (take it right after the measured phase,
        before checks add spans of their own)."""
        return TraceSummary(
            dict(zip(LAYERS, self.layer_self)),
            dict(zip(self.names, self.calls)),
            len(self.span_layer),
        )

    def write(self, path: str, spans: int) -> None:
        """Store the first ``spans`` spans: one JSON header line, then
        the columns as raw arrays in header order."""
        columns = [
            (name, column[:spans])
            for name, column in zip(
                ("layer", "name", "parent", "request", "start", "end", "self"),
                self._columns(),
            )
        ]
        header = {
            "layers": list(LAYERS),
            "names": self.names,
            "spans": spans,
            "columns": [[name, column.typecode] for name, column in columns],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _name, column in columns:
                column.tofile(fh)


class TraceSummary:
    """Self seconds per layer and call counts per entry point."""

    def __init__(self, self_seconds: Dict[str, float], calls: Dict[str, int], spans: int):
        self.self_seconds = self_seconds
        self.calls = calls
        self.spans = spans

    def call_count(self, *qualnames: str) -> int:
        return sum(self.calls.get(name, 0) for name in qualnames)

    def calls_matching(self, prefix: str) -> int:
        return sum(count for name, count in self.calls.items() if name.startswith(prefix))

