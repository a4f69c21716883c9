"""Per-layer attribution of host time, measured from outside ``repro``.

The traced run wraps every function and method defined in the modules of
:data:`LAYER_MAP` (and every callback handed to the event engine or to a
``Completion``) in a thin timer.  A wrapper whose layer equals the caller's
calls straight through; a wrapper that crosses a layer boundary charges the
time since the last boundary to the layer that was running and switches to
its own.  Each layer's ``self_s`` is therefore its host time minus the time
of the other layers it called, and the ``self_s`` of all layers, including
``bench`` (this benchmark and anything outside ``repro``), add up to the
traced wall time.  Library code (NumPy, pickle, heapq) counts towards the
layer that called it.

Nothing under ``src/`` changes: :meth:`LayerTracer.install` patches class
attributes and module globals, and :meth:`LayerTracer.uninstall` puts the
originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from enum import Enum
from typing import Any, Callable, Optional

#: module -> layer, for every ``repro`` module the workloads execute.
#: Layer names follow the module that does the work.
LAYER_MAP = {
    "repro.simtime": "simtime",
    "repro.simtime.engine": "simtime",
    "repro.simtime.rng": "simtime",
    "repro.mprog": "mprog",
    "repro.mprog.ast": "mprog",
    "repro.mprog.interp": "mprog",
    "repro.runtime": "runtime",
    "repro.runtime.api": "runtime",
    "repro.runtime.driver": "runtime",
    "repro.runtime.native": "runtime",
    "repro.mana": "mana.job",
    "repro.mana.job": "mana.job",
    "repro.mana.wrappers": "mana.wrappers",
    "repro.mana.rank_runtime": "mana.rank_runtime",
    "repro.mana.split_process": "mana.rank_runtime",
    "repro.mana.protocol": "mana.rank_runtime",
    "repro.mana.virtualize": "mana.virtualize",
    "repro.mana.coordinator": "mana.coordinator",
    "repro.mana.protocol_engine": "mana.coordinator",
    "repro.mana.autockpt": "mana.coordinator",
    "repro.mana.checkpoint_image": "mana.checkpoint_image",
    "repro.mana.storage": "mana.checkpoint_image",
    "repro.mana.record_replay": "mana.record_replay",
    "repro.mana.log_compaction": "mana.log_compaction",
    "repro.mpilib": "mpilib",
    "repro.mpilib.collectives": "mpilib",
    "repro.mpilib.comm": "mpilib",
    "repro.mpilib.datatypes": "mpilib",
    "repro.mpilib.impls": "mpilib",
    "repro.mpilib.io": "mpilib",
    "repro.mpilib.launcher": "mpilib",
    "repro.mpilib.ops": "mpilib",
    "repro.mpilib.topology": "mpilib",
    "repro.mpilib.world": "mpilib",
    "repro.net": "net",
    "repro.net.base": "net",
    "repro.net.fabrics": "net",
    "repro.hardware": "hardware",
    "repro.hardware.cluster": "hardware",
    "repro.hardware.filesystem": "hardware",
    "repro.hardware.kernelmodel": "hardware",
    "repro.hardware.node": "hardware",
    "repro.hardware.storage": "hardware.storage",
    "repro.memory": "memory",
    "repro.memory.address_space": "memory",
    "repro.memory.allocator": "memory",
    "repro.memory.region": "memory",
    "repro.obs": "obs",
    "repro.obs.events": "obs",
    "repro.obs.export": "obs",
    "repro.obs.metrics": "obs",
    "repro.obs.tracer": "obs",
    "repro.apps": "apps",
    "repro.apps.base": "apps",
    "repro.apps.commchurn": "apps",
    "repro.apps.hpcg": "apps",
    "repro.apps.osu": "apps",
    "repro.conformance": "conformance",
    "repro.conformance.oracles": "conformance",
}

#: time outside every mapped module: the benchmark's own code
BENCH_LAYER = "bench"

LAYERS = tuple(dict.fromkeys([*LAYER_MAP.values(), BENCH_LAYER]))

#: the benchmark's modules that import ``repro`` functions by name; those
#: names are repointed at the wrappers too
BENCH_MODULES = ("adapter", "workloads")

#: functions whose calls feed per-layer counters or inclusive timers:
#: (module, qualified name) -> probe name, see ``LayerTracer._probe``
PROBES = {
    ("repro.simtime.engine", "Completion.__init__"): "completion",
    ("repro.simtime.engine", "Completion.cancel"): "cancel",
    ("repro.mprog.interp", "Interpreter.leaf_done"): "leaf",
    ("repro.mana.record_replay", "RecordLog.record"): "record",
    ("repro.mana.checkpoint_image", "CheckpointImage.capture"): "capture",
    ("repro.mana.checkpoint_image", "CheckpointImage.restore_state"): "restore",
    ("repro.mana.log_compaction", "compact_log"): "compact",
    ("repro.hardware.storage", "LustreModel.burst"): "burst",
}


class LayerTracer:
    """Attributes host time to layers while installed and started."""

    def __init__(self) -> None:
        self._ids = {name: i for i, name in enumerate(LAYERS)}
        self._bench = self._ids[BENCH_LAYER]
        self._undo: list[tuple[Any, str, Any]] = []
        self.reset()

    # ------------------------------------------------------------ counters

    def reset(self) -> None:
        """Zero every counter; the clock restarts in the ``bench`` layer."""
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.counts = dict.fromkeys(
            ("events", "completions", "cancelled", "leaves", "recorded"), 0)
        self.timers = dict.fromkeys(("capture_s", "restore_s", "compact_s"), 0.0)
        self.sim = dict.fromkeys(("storage_write_s", "storage_read_s"), 0.0)
        self.current = self._bench
        self.mark = time.perf_counter()

    def stop(self) -> None:
        """Charge the time since the last boundary to the running layer."""
        now = time.perf_counter()
        self.self_s[self.current] += now - self.mark
        self.mark = now

    def layer_self_s(self) -> dict[str, float]:
        """Host seconds per layer since :meth:`reset`."""
        return dict(zip(LAYERS, self.self_s))

    def layer_calls(self) -> dict[str, int]:
        """Calls per layer that crossed into it from another layer."""
        return dict(zip(LAYERS, self.calls))

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn: Callable, layer: int, count: bool = True,
              probe: Optional[str] = None) -> Callable:
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            prev = tracer.current
            if prev == layer:
                return fn(*args, **kwargs)
            now = perf()
            tracer.self_s[prev] += now - tracer.mark
            tracer.mark = now
            tracer.current = layer
            if count:
                tracer.calls[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                now = perf()
                tracer.self_s[layer] += now - tracer.mark
                tracer.mark = now
                tracer.current = prev

        if probe is not None:
            wrapper = self._probe(wrapper, probe)
        functools.update_wrapper(wrapper, fn)
        wrapper.__bench_layer__ = layer
        return wrapper

    def _probe(self, inner: Callable, kind: str) -> Callable:
        """Wrap ``inner`` so its calls feed the counter or timer ``kind``."""
        tracer = self
        perf = time.perf_counter

        if kind in ("completion", "leaf", "record"):
            key = {"completion": "completions", "leaf": "leaves",
                   "record": "recorded"}[kind]

            def probe(*args, **kwargs):
                tracer.counts[key] += 1
                return inner(*args, **kwargs)
        elif kind == "cancel":
            def probe(completion):
                live = not (completion.done or completion.cancelled)
                inner(completion)
                if live:
                    tracer.counts["cancelled"] += 1
        elif kind == "burst":
            def probe(*args, **kwargs):
                report = inner(*args, **kwargs)
                key = "storage_read_s" if kwargs.get("read") else "storage_write_s"
                tracer.sim[key] += report.max_time
                return report
        else:
            key = f"{kind}_s"

            def probe(*args, **kwargs):
                t0 = perf()
                try:
                    return inner(*args, **kwargs)
                finally:
                    tracer.timers[key] += perf() - t0
        return probe

    def _callback(self, fn: Callable, event: bool) -> Callable:
        """Wrap a callback handed to the engine or a Completion so its body
        is charged to the layer that defined it (engine events are also
        counted)."""
        layer = getattr(fn, "__bench_layer__", None)
        if layer is None:
            name = LAYER_MAP.get(getattr(fn, "__module__", None))
            if name is not None:
                fn = self._wrap(fn, self._ids[name], count=False)
        if not event:
            return fn
        tracer = self

        def fire(*args, **kwargs):
            tracer.counts["events"] += 1
            return fn(*args, **kwargs)

        return fire

    # ---------------------------------------------------------- installing

    def install(self) -> None:
        """Wrap every function of every mapped module (idempotent)."""
        if self._undo:
            return
        replaced: dict[int, Callable] = {}
        for modname, layer_name in LAYER_MAP.items():
            module = importlib.import_module(modname)
            layer = self._ids[layer_name]
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == modname:
                    wrapped = self._wrap(obj, layer,
                                         probe=PROBES.get((modname, name)))
                    replaced[id(obj)] = wrapped
                    self._set(module, name, wrapped)
                elif (inspect.isclass(obj) and obj.__module__ == modname
                      and not issubclass(obj, (Enum, BaseException))):
                    self._wrap_class(obj, modname, layer)
        self._patch_engine()
        # names imported with ``from module import function`` still point
        # at the originals: repoint them too
        for module in list(sys.modules.values()):
            modname = getattr(module, "__name__", "")
            if not (modname.startswith("repro") or modname in BENCH_MODULES):
                continue
            for name, obj in list(vars(module).items()):
                wrapped = replaced.get(id(obj))
                if wrapped is not None and wrapped is not obj:
                    self._set(module, name, wrapped)

    def _wrap_class(self, cls: type, modname: str, layer: int) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name != "__init__":
                continue
            probe = PROBES.get((modname, f"{cls.__name__}.{name}"))
            if isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(attr.__func__, layer, probe=probe))
            elif isinstance(attr, classmethod):
                new = classmethod(self._wrap(attr.__func__, layer, probe=probe))
            elif inspect.isfunction(attr):
                new = self._wrap(attr, layer, probe=probe)
            else:
                continue
            self._set(cls, name, new)

    def _patch_engine(self) -> None:
        """Route engine events and Completion callbacks through
        :meth:`_callback` so closures are charged to their own layer."""
        from repro.simtime.engine import Completion, Engine

        call_at, on_done = Engine.call_at, Completion.on_done
        tracer = self

        def traced_call_at(engine, when, fn, *args, **kwargs):
            return call_at(engine, when, tracer._callback(fn, True),
                           *args, **kwargs)

        def traced_on_done(completion, cb):
            return on_done(completion, tracer._callback(cb, False))

        self._set(Engine, "call_at", traced_call_at)
        self._set(Completion, "on_done", traced_on_done)

    def _set(self, target: Any, name: str, value: Any) -> None:
        self._undo.append((target, name, vars(target)[name]))
        setattr(target, name, value)

    def uninstall(self) -> None:
        """Put every original back (reverse order, so repeated patches of one
        attribute unwind to the first original)."""
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)


def unmapped_modules(modules) -> list[str]:
    """``repro`` modules in ``modules`` that map to no layer."""
    return sorted(m for m in modules
                  if m.split(".")[0] == "repro" and m not in LAYER_MAP)
