"""Outside-in span recording for the traced benchmark passes.

The benchmark never edits the program.  Before a traced process builds
anything, :func:`install` replaces the public functions of each layer
(class attributes and module globals) with wrappers that record one
span per call: name, start, end, parent span, op id, and for a few
functions a per-call count (batch rows, events processed).  Spans are
appended to flat typed arrays, stay in memory, and are written to an
``.npz`` file when the process ends; :class:`Spans` reads that file
back with each span's self time for the per-layer metrics.

Garbage collections are recorded the same way through ``gc.callbacks``
(``install_gc``), so a collection that lands inside a layer's span is
subtracted from that layer's self time and reported on its own.
"""

from __future__ import annotations

import array
import functools
import gc
import importlib
import json
import time
import types

import numpy as np

GC_SPAN = "py.gc"
OP_SPAN = "op"

#: Layer of a span: the longest of these prefixes its name starts
#: with.  Spans matching none (the op root, the sweep task) are
#: structural: their self time is the trace's unattributed time.
LAYERS = (
    "serve.http", "serve.dispatch", "serve.tenants", "core.executor",
    "core.compiled", "core.training", "nn", "wsn.network", "wsn.topology",
    "wsn.spatial", "wsn.routing", "faults.runtime", "faults.links",
    "faults.trace", "sim", "obs", "par", "py",
)


class SpanLog:
    """In-memory span arrays plus the wrappers that fill them.

    A span is stored as its name id, start, end and parent index; the
    few spans that carry a count keep it in :attr:`values`.  Op ids are
    not stored per call: :meth:`save` assigns each span the op whose
    span (see :meth:`open`) encloses its start.
    """

    def __init__(self) -> None:
        self.names = []
        self._ids = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.values = {}
        self.stack = []
        self.gc_start = array.array("d")
        self.gc_end = array.array("d")
        self.gc_parent = array.array("i")

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str, value: float = 0.0) -> int:
        """Open a span by hand (the benchmark's op spans, whose value
        is the op id)."""
        i = len(self.start)
        self.name_id.append(self.intern(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.values[i] = value
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, post=None, pre=None):
        """``fn`` recording one ``name`` span per call.  ``post(args,
        result, pre_value)`` returns the span's count, with
        ``pre(args)`` evaluated before the call for it."""
        nid = self.intern(name)
        name_id, start, end = self.name_id, self.start, self.end
        parent, stack = self.parent, self.stack
        clock = time.perf_counter

        # Two bodies rather than one with branches: the plain wrapper
        # runs on hot paths, where each extra step shows up in
        # ``trace.overhead_pct`` and in the parent's self time.
        if post is None:
            def wrapper(*args, **kwargs):
                i = len(start)
                name_id.append(nid)
                parent.append(stack[-1] if stack else -1)
                end.append(0.0)
                stack.append(i)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()
        else:
            values = self.values

            def wrapper(*args, **kwargs):
                before = pre(args) if pre is not None else None
                i = len(start)
                name_id.append(nid)
                parent.append(stack[-1] if stack else -1)
                end.append(0.0)
                stack.append(i)
                start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()
                values[i] = post(args, result, before)
                return result

        return functools.wraps(fn)(wrapper)

    def install_gc(self) -> None:
        """Record every collection as a ``py.gc`` span."""
        start, end, parent = self.gc_start, self.gc_end, self.gc_parent
        stack = self.stack
        clock = time.perf_counter

        def callback(phase, info):
            if phase == "start":
                parent.append(stack[-1] if stack else -1)
                end.append(0.0)
                start.append(clock())
            else:
                end[len(end) - 1] = clock()

        gc.callbacks.append(callback)

    def save(self, path: str) -> None:
        """Write every span, GC spans appended, with its op id."""
        self.intern(GC_SPAN)
        k = len(self.gc_start)
        name_id = np.concatenate([
            np.frombuffer(self.name_id, dtype=np.int32),
            np.full(k, self._ids[GC_SPAN], dtype=np.int32)])
        start = np.concatenate([np.frombuffer(self.start),
                                np.frombuffer(self.gc_start)])
        end = np.concatenate([np.frombuffer(self.end),
                              np.frombuffer(self.gc_end)])
        parent = np.concatenate([
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.gc_parent, dtype=np.int32)])
        value = np.zeros(len(start))
        if self.values:
            value[list(self.values)] = list(self.values.values())
        op = np.full(len(start), -1, dtype=np.int64)
        if OP_SPAN in self._ids:
            ops = np.flatnonzero(name_id == self._ids[OP_SPAN])
            ops = ops[np.argsort(start[ops])]
            at = np.searchsorted(start[ops], start, side="right") - 1
            inside = (at >= 0) & (start <= end[ops][np.maximum(at, 0)])
            op[inside] = value[ops][at[inside]]
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name_id=name_id, start=start, end=end, parent=parent,
                 op=op, value=value)


# -- what gets wrapped --------------------------------------------------------
def _rows(args, result, before):
    return float(args[1].shape[0])


def _events_pre(args):
    return args[0].processed


def _events_post(args, result, before):
    return float(args[0].processed - before)


#: ``(span name, module, attribute path, pre, post)``.  Class methods
#: are patched on the class that defines them, so instances built later
#: pick the wrapper up through normal attribute lookup.
TARGETS = (
    ("serve.dispatch.submit", "repro.serve.dispatch", "Dispatcher.submit",
     None, None),
    ("serve.tenants.infer", "repro.serve.tenants", "Tenant.infer",
     None, _rows),
    ("core.compiled.run", "repro.core.compiled.plan", "CompiledPlan.run",
     None, None),
    ("core.executor.forward_hooked", "repro.core.executor",
     "DistributedExecutor.forward_hooked", None, None),
    ("core.training.fit", "repro.core.training", "MicroDeepTrainer.fit",
     None, None),
    ("nn.conv.forward", "repro.nn.layers.conv", "Conv2D.forward", None, None),
    ("nn.conv.backward_nodes", "repro.nn.layers.conv",
     "Conv2D.backward_nodes", None, None),
    ("nn.pool.forward", "repro.nn.layers.pool", "MaxPool2D.forward",
     None, None),
    ("nn.pool.forward", "repro.nn.layers.pool", "AvgPool2D.forward",
     None, None),
    ("nn.pool.backward_nodes", "repro.nn.layers.pool",
     "MaxPool2D.backward_nodes", None, None),
    ("nn.pool.backward_nodes", "repro.nn.layers.pool",
     "AvgPool2D.backward_nodes", None, None),
    ("nn.dense.forward", "repro.nn.layers.dense", "Dense.forward",
     None, None),
    ("nn.dense.backward_nodes", "repro.nn.layers.dense",
     "Dense.backward_nodes", None, None),
    ("nn.act.forward", "repro.nn.layers.activations", "ReLU.forward",
     None, None),
    ("nn.act.forward", "repro.nn.layers.activations", "Sigmoid.forward",
     None, None),
    ("nn.act.forward", "repro.nn.layers.activations", "Tanh.forward",
     None, None),
    ("nn.loss", "repro.nn.losses", "CrossEntropyLoss.forward", None, None),
    ("nn.loss", "repro.nn.losses", "CrossEntropyLoss.backward", None, None),
    ("nn.optim.step", "repro.nn.optimizers", "Optimizer.step", None, None),
    ("wsn.network.unicast", "repro.wsn.network", "Network.unicast",
     None, None),
    ("wsn.network.account", "repro.wsn.network", "Network.account_compiled",
     None, None),
    ("wsn.routing.route", "repro.wsn.routing", "shortest_path_route",
     None, None),
    ("wsn.topology.graph", "repro.wsn.topology", "Topology.cached_graph",
     None, None),
    ("wsn.topology.soa", "repro.wsn.topology", "Topology.alive_nodes",
     None, None),
    ("wsn.topology.soa", "repro.wsn.topology", "Topology.positions_view",
     None, None),
    ("wsn.spatial.index", "repro.wsn.topology", "Topology.spatial_index",
     None, None),
    ("wsn.spatial.adjacency", "repro.wsn.topology",
     "Topology.sparse_adjacency", None, None),
    ("faults.runtime.infer", "repro.faults.runtime", "ResilientExecutor.infer",
     None, None),
    ("faults.links.verdict", "repro.faults.links",
     "LinkFaultModel.hop_verdict", None, None),
    ("faults.trace.record", "repro.faults.trace", "FaultTrace.record",
     None, None),
    ("faults.trace.digest", "repro.faults.trace", "FaultTrace.digest",
     None, None),
    ("sim.run", "repro.sim.engine", "Simulator.run", _events_pre,
     _events_post),
    ("par.run_sweep", "repro.par.sweep", "run_sweep", None, None),
    ("par.run_point", "repro.par.worker", "run_point", None, None),
    ("task", "repro.faults.sweeps", "chaos_cell_point", None, None),
    ("obs.span", "repro.obs.trace", "Tracer.span", None, None),
    ("obs.span", "repro.obs.trace", "_OpenSpan.__exit__", None, None),
    ("obs.span", "repro.obs.trace", "Tracer.instant", None, None),
    ("obs.digest", "repro.obs.trace", "Tracer.digest", None, None),
    ("obs.lookup", "repro.obs.metrics", "MetricsRegistry.counter", None, None),
    ("obs.lookup", "repro.obs.metrics", "MetricsRegistry.gauge", None, None),
    ("obs.lookup", "repro.obs.metrics", "MetricsRegistry.histogram",
     None, None),
    ("obs.update", "repro.obs.metrics", "Counter.inc", None, None),
    ("obs.update", "repro.obs.metrics", "Gauge.set", None, None),
    ("obs.update", "repro.obs.metrics", "Histogram.observe", None, None),
    ("obs.snapshot", "repro.obs.metrics", "MetricsRegistry.snapshot",
     None, None),
    ("obs.sample", "repro.obs.timeline", "FlightRecorder.sample", None, None),
)

#: Modules that import a wrapped function by name at module scope:
#: ``(module, name, defining module)``.  Their global is re-pointed at
#: the wrapper too, so calls through that name are recorded.
ALIASES = (
    ("repro.wsn.network", "shortest_path_route", "repro.wsn.routing"),
    ("repro.wsn", "shortest_path_route", "repro.wsn.routing"),
    ("repro.par", "run_sweep", "repro.par.sweep"),
)


def hooks(level: int):
    """The span log of a process run at trace ``level``: None at 0, GC
    spans at 1, and at 2 also every :data:`TARGETS` function wrapped
    (call before the program builds anything)."""
    if level < 1:
        return None
    log = SpanLog()
    log.install_gc()
    if level >= 2:
        install(log)
    return log


def install(log: SpanLog) -> None:
    """Wrap every :data:`TARGETS` function and the serve layer's JSON
    codec; call before the program builds any object."""
    for name, module_name, path, pre, post in TARGETS:
        owner = importlib.import_module(module_name)
        owner_path, __, attr = path.rpartition(".")
        if owner_path:
            owner = getattr(owner, owner_path)
        setattr(owner, attr, log.wrap(name, getattr(owner, attr), post, pre))
    for module_name, attr, source in ALIASES:
        setattr(importlib.import_module(module_name), attr,
                getattr(importlib.import_module(source), attr))
    http = importlib.import_module("repro.serve.http")
    codec = http.json
    http.json = types.SimpleNamespace(
        loads=log.wrap("serve.http.json", codec.loads),
        dumps=log.wrap("serve.http.json", codec.dumps),
        JSONDecodeError=codec.JSONDecodeError,
    )


# -- reading a span file ------------------------------------------------------
class Spans:
    """A saved span file as numpy arrays, with self times."""

    def __init__(self, path: str) -> None:
        with np.load(path) as data:
            self.names = json.loads(str(data["names"]))
            self.name_id = data["name_id"]
            self.start = data["start"]
            self.end = data["end"]
            self.parent = data["parent"]
            self.op = data["op"]
            self.value = data["value"]
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent],
            minlength=len(self.dur),
        )
        self.self_time = self.dur - covered
        #: spans that enclose another wrapped call (not just a GC)
        calls = has_parent & ~self.mask(GC_SPAN)
        self.has_child = np.bincount(
            self.parent[calls], minlength=len(self.dur)) > 0
        self.layer = np.array(
            [_layer_of(n) for n in self.names], dtype=object
        )[self.name_id]

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name_id == self.names.index(name)


def _layer_of(name: str) -> str:
    best = ""
    for layer in LAYERS:
        if (name == layer or name.startswith(layer + ".")) and \
                len(layer) > len(best):
            best = layer
    return best
