"""Lint: telemetry must stay lazy, and no module creates process
pools.

No module outside ``src/repro/obs/`` may import ``repro.obs`` at module
scope — instrumented subsystems resolve :func:`repro.obs.current`
inside function bodies instead, so importing (say) ``repro.wsn`` never
pays for the telemetry layer and the disabled path stays a single
``telemetry.enabled`` attribute check.

Likewise, no module under ``src/repro/`` — the sweep engine in
``repro.par`` included — may import ``multiprocessing``/
``concurrent.futures`` at module scope or create worker pools at all:
sweeps run serially through :func:`repro.par.run_sweep` (at the sweep
sizes the repo runs, a process pool measured slower than the serial
engine), and a pool anywhere would bypass the engine's determinism
contract (index-keyed seed substreams, canonical merge).

And ``repro.serve`` (outside its clock shim, ``serve/clock.py``) may
not touch raw timing primitives — no ``time`` imports, no
``asyncio.sleep`` with a literal delay — so the fake-clock test
harness stays authoritative over every batching turn.

Placement reads (``node_of``, ``input_node``, ``unit_node``) belong to
the placement, its :class:`~repro.core.PlacementIndex`, the one
transfer derivation, and ``*_reference`` oracles: every other consumer
reads the index, so owner maps cannot be rebuilt on the side again.

In ``repro.core``, ``repro.serve`` and ``repro.faults`` the CNN's
arithmetic runs through one layer loop,
:meth:`~repro.core.DistributedExecutor.forward_hooked`: no other
function there loops over layers calling their ``forward``.

Training has one mini-batch loop, :class:`repro.nn.Trainer`'s: it makes
the only ``<…>.optimizer.step(`` call in ``src/repro`` (a subclass
such as :class:`~repro.core.MicroDeepTrainer` overrides its backward,
not the loop).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def iter_source_files():
    for path in sorted(SRC.rglob("*.py")):
        if "obs" in path.relative_to(SRC).parts[:1]:
            continue
        yield path


def module_scope_obs_imports(tree):
    """Import statements touching repro.obs outside function bodies.

    Walks module, class, and control-flow bodies but does not descend
    into function definitions — imports there are the sanctioned lazy
    form.
    """
    offenders = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            if any(a.name == "repro.obs" or a.name.startswith("repro.obs.")
                   for a in node.names):
                offenders.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if mod == "repro.obs" or mod.startswith("repro.obs."):
                offenders.append(node.lineno)
            elif mod == "repro" and any(a.name == "obs" for a in node.names):
                offenders.append(node.lineno)
        else:
            stack.extend(ast.iter_child_nodes(node))
    return offenders


def test_no_module_scope_obs_imports():
    offenders = []
    for path in iter_source_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno in module_scope_obs_imports(tree):
            offenders.append(f"{path.relative_to(SRC.parent)}:{lineno}")
    assert offenders == [], (
        "repro.obs imported at module scope (must be lazy, inside a "
        f"function body): {offenders}"
    )


def test_lint_covers_the_instrumented_modules():
    """The sweep actually visits the files the telemetry layer hooks."""
    names = {p.relative_to(SRC).as_posix() for p in iter_source_files()}
    for expected in (
        "sim/engine.py", "wsn/network.py", "wsn/mac.py",
        "backscatter/mac.py", "core/executor.py", "energy/manager.py",
        "faults/runtime.py", "cli.py",
    ):
        assert expected in names
    assert not any(name.startswith("obs/") for name in names)


#: Modules whose import at module scope is banned.
_MP_MODULES = ("multiprocessing", "concurrent.futures")
#: Pool constructors banned at any depth.
_POOL_NAMES = {"Pool", "ThreadPool", "ProcessPoolExecutor",
               "ThreadPoolExecutor"}


def iter_non_par_source_files():
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[:1] == ("par",):
            continue
        yield path


def module_scope_mp_usage(tree):
    """Multiprocessing imports at module scope, and pool construction
    anywhere, as ``(lineno, reason)`` pairs.

    Imports inside function bodies are tolerated (they cost nothing
    until the function runs, e.g. a ``cpu_count`` query); pool
    creation is flagged at any depth.
    """
    offenders = []
    stack = [(node, False) for node in tree.body]
    while stack:
        node, in_function = stack.pop()
        if isinstance(node, ast.Import):
            if not in_function and any(
                a.name in _MP_MODULES
                or a.name.startswith(tuple(m + "." for m in _MP_MODULES))
                for a in node.names
            ):
                offenders.append((node.lineno, "module-scope mp import"))
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if not in_function and (
                mod in _MP_MODULES
                or mod.startswith(tuple(m + "." for m in _MP_MODULES))
                or (mod == "concurrent"
                    and any(a.name == "futures" for a in node.names))
            ):
                offenders.append((node.lineno, "module-scope mp import"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            if name in _POOL_NAMES:
                offenders.append((node.lineno, f"pool creation ({name})"))
        entering = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        )
        stack.extend(
            (child, entering) for child in ast.iter_child_nodes(node)
        )
    return offenders


def mp_offenders(paths):
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, reason in module_scope_mp_usage(tree):
            offenders.append(
                f"{path.relative_to(SRC.parent)}:{lineno} ({reason})"
            )
    return offenders


def test_no_mp_usage_outside_par():
    offenders = mp_offenders(iter_non_par_source_files())
    assert offenders == [], (
        "process pools are banned; sweeps run serially through "
        f"repro.par.run_sweep; found: {offenders}"
    )


def test_no_mp_usage_in_par():
    """The sweep engine itself runs serially: the pool lint covers
    ``repro.par`` too."""
    paths = sorted((SRC / "par").rglob("*.py"))
    assert SRC / "par" / "sweep.py" in paths
    offenders = mp_offenders(paths)
    assert offenders == [], (
        "the sweep engine runs serially; found process-pool use: "
        f"{offenders}"
    )


def test_mp_lint_detects_violations():
    """The detector flags each banned spelling, and only those."""
    for src in (
        "import multiprocessing\n",
        "import multiprocessing.pool\n",
        "from multiprocessing import Pool\n",
        "from concurrent.futures import ProcessPoolExecutor\n",
        "from concurrent import futures\n",
        "def f():\n    import multiprocessing as mp\n    mp.Pool(2)\n",
        "def f():\n    from concurrent.futures import "
        "ProcessPoolExecutor\n    ProcessPoolExecutor()\n",
    ):
        assert module_scope_mp_usage(ast.parse(src)), src
    for src in (
        "def f():\n    import multiprocessing\n",
        "def f():\n    from concurrent.futures import as_completed\n",
        "import os\n",
        "from repro.par import run_sweep\n",
    ):
        assert not module_scope_mp_usage(ast.parse(src)), src


def test_lint_detects_a_violation():
    """The detector itself works on all three import spellings."""
    for src in (
        "import repro.obs\n",
        "from repro.obs import current\n",
        "from repro import obs\n",
        "if True:\n    from repro.obs.trace import Tracer\n",
    ):
        assert module_scope_obs_imports(ast.parse(src)), src
    for src in (
        "def f():\n    from repro.obs import current\n",
        "from repro.wsn import Network\n",
        "import repro.observatory\n",
    ):
        assert not module_scope_obs_imports(ast.parse(src)), src


def sim_imports_any_scope(tree):
    """Every import statement touching ``repro.sim``, at any depth —
    function bodies included.  The compiled-plan package's whole value
    is that its hot path can never re-enter the event loop, so even
    the lazy-import escape hatch is banned there."""
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "repro.sim" or a.name.startswith("repro.sim.")
                   for a in node.names):
                offenders.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if mod == "repro.sim" or mod.startswith("repro.sim."):
                offenders.append(node.lineno)
            elif mod == "repro" and any(a.name == "sim" for a in node.names):
                offenders.append(node.lineno)
    return offenders


def test_compiled_package_never_imports_sim():
    compiled = SRC / "core" / "compiled"
    files = sorted(compiled.rglob("*.py"))
    assert files, "repro.core.compiled package is missing"
    offenders = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno in sim_imports_any_scope(tree):
            offenders.append(f"{path.relative_to(SRC.parent)}:{lineno}")
    assert offenders == [], (
        "repro.core.compiled must never import repro.sim (the compiled "
        f"hot path may not re-enter the event loop): {offenders}"
    )


def serve_timing_usage(tree):
    """Raw timing primitives in serving code, at any depth, as
    ``(lineno, reason)`` pairs.

    Everything in ``repro.serve`` must take time from the clock shim
    (``clock.now()`` / ``clock.call_later``) so the fake-clock harness
    stays authoritative: any ``time`` import (``time.time`` /
    ``monotonic`` / ``perf_counter`` / ``sleep`` ride in on it) or an
    ``asyncio.sleep`` with a literal delay is a hidden dependence on
    real time that would make batching untestable without
    real sleeps.
    """
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "time" or a.name.startswith("time.")
                   for a in node.names):
                offenders.append((node.lineno, "time import"))
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if mod == "time" or mod.startswith("time."):
                offenders.append((node.lineno, "time import"))
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "sleep"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "asyncio"
                    and any(isinstance(a, ast.Constant)
                            for a in node.args)):
                offenders.append(
                    (node.lineno, "asyncio.sleep with literal delay")
                )
    return offenders


def test_serve_package_timing_goes_through_the_clock_shim():
    """Only ``repro/serve/clock.py`` may touch timing primitives."""
    serve = SRC / "serve"
    files = sorted(serve.rglob("*.py"))
    assert files, "repro.serve package is missing"
    names = {p.name for p in files}
    for expected in ("clock.py", "dispatch.py", "http.py", "tenants.py",
                     "testing.py", "loadgen.py"):
        assert expected in names
    offenders = []
    for path in files:
        if path.name == "clock.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, reason in serve_timing_usage(tree):
            offenders.append(
                f"{path.relative_to(SRC.parent)}:{lineno} ({reason})"
            )
    assert offenders == [], (
        "repro.serve must take time from the clock shim "
        f"(repro/serve/clock.py), not raw primitives: {offenders}"
    )


def test_serve_timing_lint_detects_violations():
    for src in (
        "import time\n",
        "import time as t\n",
        "from time import monotonic\n",
        "from time import perf_counter as pc\n",
        "def f():\n    import time\n    return time.time()\n",
        "import asyncio\nasync def f():\n    await asyncio.sleep(0.01)\n",
        "import asyncio\nasync def f():\n    await asyncio.sleep(0)\n",
    ):
        assert serve_timing_usage(ast.parse(src)), src
    for src in (
        "import asyncio\n",
        "async def f(clock):\n    return clock.now()\n",
        "def f(clock, cb):\n    return clock.call_later(0.01, cb)\n",
        "import asyncio\nasync def f(d):\n    await asyncio.sleep(d)\n",
        "import timeit\n",
        "from timeit import timeit\n",
    ):
        assert not serve_timing_usage(ast.parse(src)), src


def timeline_forbidden_imports(tree):
    """Imports of ``time`` or ``repro.sim`` at any depth, as
    ``(lineno, reason)`` pairs.

    The flight recorder and watchdog exist to make long-running
    behaviour *deterministically* observable: time reaches them only
    through the pluggable clock they are handed, and they must never
    be able to re-enter the event loop.  Even the lazy-import escape
    hatch is banned in ``repro.obs.timeline`` / ``repro.obs.watch``.
    """
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time" or alias.name.startswith("time."):
                    offenders.append((node.lineno, "time import"))
                elif (alias.name == "repro.sim"
                        or alias.name.startswith("repro.sim.")):
                    offenders.append((node.lineno, "repro.sim import"))
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if mod == "time" or mod.startswith("time."):
                offenders.append((node.lineno, "time import"))
            elif mod == "repro.sim" or mod.startswith("repro.sim."):
                offenders.append((node.lineno, "repro.sim import"))
            elif mod == "repro" and any(a.name == "sim" for a in node.names):
                offenders.append((node.lineno, "repro.sim import"))
    return offenders


def test_timeline_and_watch_never_import_time_or_sim():
    offenders = []
    for name in ("timeline.py", "watch.py"):
        path = SRC / "obs" / name
        assert path.is_file(), f"repro/obs/{name} is missing"
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, reason in timeline_forbidden_imports(tree):
            offenders.append(
                f"{path.relative_to(SRC.parent)}:{lineno} ({reason})"
            )
    assert offenders == [], (
        "the flight recorder / watchdog see time only through their "
        f"pluggable clock, never wall time or the sim: {offenders}"
    )


def test_timeline_lint_detects_violations():
    for src in (
        "import time\n",
        "import time as t\n",
        "from time import monotonic\n",
        "import repro.sim\n",
        "from repro.sim import Simulator\n",
        "from repro.sim.engine import Simulator\n",
        "from repro import sim\n",
        "def f():\n    import time\n",                    # lazy too
        "def f():\n    from repro.sim import Simulator\n",
    ):
        assert timeline_forbidden_imports(ast.parse(src)), src
    for src in (
        "import timeit\n",
        "from timeit import timeit\n",
        "import repro.simulation\n",
        "from repro.obs.trace import canonical_value\n",
        "def f(clock):\n    return clock()\n",
    ):
        assert not timeline_forbidden_imports(ast.parse(src)), src


def networkx_imports_any_scope(tree):
    """Every import statement touching ``networkx``, at any depth —
    function bodies included.

    The spatial layer's whole value is that city-scale neighborhood
    queries and adjacency construction run on flat ndarrays; a
    ``networkx`` import in a hot query path would mean per-query graph
    objects sneaking back in.  Graphs are built by the topology layer
    *from* the sparse arrays, never the other way around, so even the
    lazy-import escape hatch is banned in these files.
    """
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "networkx" or a.name.startswith("networkx.")
                   for a in node.names):
                offenders.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if mod == "networkx" or mod.startswith("networkx."):
                offenders.append(node.lineno)
    return offenders


#: The wsn hot query paths: spatial index + CSR adjacency, the node
#: model (distance kernel), the generator suite, the accounting-heavy
#: network layer, and the Choco round.  ``topology.py`` still builds
#: the nx graphs of ``graph()``/``cached_graph()`` and ``routing.py``
#: keeps the nx reference router and ``sink_tree``, so those two files
#: are linted function by function instead (:data:`_ROUTING_HOT_PATH`).
_NX_BANNED_WSN_FILES = (
    "spatial.py", "node.py", "generators.py", "network.py", "choco.py",
)


def test_wsn_hot_paths_never_import_networkx():
    offenders = []
    for name in _NX_BANNED_WSN_FILES:
        path = SRC / "wsn" / name
        assert path.is_file(), f"repro/wsn/{name} is missing"
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno in networkx_imports_any_scope(tree):
            offenders.append(f"{path.relative_to(SRC.parent)}:{lineno}")
    assert offenders == [], (
        "networkx must stay out of the wsn hot query paths (graphs are "
        f"built from the sparse arrays, not vice versa): {offenders}"
    )


#: The routing hot path, by file and function (``Class.method`` for a
#: method): routes come from the BFS over the CSR adjacency, so these
#: never touch networkx or an nx graph builder.
_ROUTING_HOT_PATH = {
    "wsn/routing.py": ("shortest_path_route",),
    "wsn/topology.py": (
        "Topology.route", "Topology._bfs_route", "Topology._csr_rows",
    ),
}
#: What the routing hot path may not reference: the networkx module
#: and the topology methods that build nx graphs.
_NX_NAMES = {"nx", "networkx"}
_NX_GRAPH_BUILDERS = {
    "cached_graph", "graph", "_build_graph", "graph_reference",
}


def networkx_references(tree, qualnames):
    """``qualname -> lines`` referencing networkx or an nx graph
    builder inside each named top-level function or ``Class.method``
    of ``tree`` (nested functions included); a name the module does
    not define maps to None."""
    functions = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions[f"{node.name}.{item.name}"] = item
    out = {}
    for qualname in qualnames:
        function = functions.get(qualname)
        if function is None:
            out[qualname] = None
            continue
        lines = networkx_imports_any_scope(function)
        for node in ast.walk(function):
            if (isinstance(node, ast.Name) and node.id in _NX_NAMES) or (
                isinstance(node, ast.Attribute)
                and node.attr in _NX_GRAPH_BUILDERS
            ):
                lines.append(node.lineno)
        out[qualname] = sorted(lines)
    return out


def test_routing_hot_path_never_touches_networkx():
    offenders = []
    for name, qualnames in _ROUTING_HOT_PATH.items():
        path = SRC / name
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, lines in networkx_references(tree, qualnames).items():
            if lines is None:
                offenders.append(f"{name}: {qualname} is missing")
            else:
                offenders.extend(f"{name}:{line} in {qualname}"
                                 for line in lines)
    assert offenders == [], (
        "routes must come from the BFS over the CSR adjacency, not from "
        f"networkx or an nx graph: {offenders}"
    )


def test_routing_lint_detects_violations():
    names = ("route", "Topology.route")
    for src in (
        "def route(t, s, d):\n    return nx.shortest_path(t, s, d)\n",
        "def route(t, s, d):\n    return t.cached_graph()\n",
        "def route(t, s, d):\n    import networkx\n",
        "class Topology:\n    def route(self, s, d):\n"
        "        def walk():\n            return self._build_graph()\n"
        "        return walk()\n",
        "class Topology:\n    def route(self, s, d):\n"
        "        return networkx.shortest_path(self.graph(), s, d)\n",
    ):
        found = networkx_references(ast.parse(src), names)
        assert any(found.values()), src
    clean = (
        "import networkx as nx\n"
        "def route(t, s, d):\n    return t._bfs_route(s, d)\n"
        "def sink_tree(t, s):\n    return nx.bfs_tree(t.cached_graph(), s)\n"
        "class Topology:\n    def route(self, s, d):\n"
        "        return self.routes.get((s, d))\n"
    )
    assert networkx_references(ast.parse(clean), names) == {
        "route": [], "Topology.route": [],
    }
    assert networkx_references(ast.parse("x = 1\n"), names) == {
        "route": None, "Topology.route": None,
    }


def test_networkx_lint_detects_violations():
    for src in (
        "import networkx\n",
        "import networkx as nx\n",
        "import networkx.algorithms\n",
        "from networkx import Graph\n",
        "from networkx.algorithms import shortest_path\n",
        "def f():\n    import networkx as nx\n    return nx.Graph()\n",
        "class C:\n    def m(self):\n        from networkx import Graph\n",
    ):
        assert networkx_imports_any_scope(ast.parse(src)), src
    for src in (
        "import numpy as np\n",
        "from repro.wsn.spatial import GridHashIndex\n",
        "import networkx_compat\n",
        "from networkx_compat import thing\n",
        "def f(g):\n    return g.number_of_edges()\n",
    ):
        assert not networkx_imports_any_scope(ast.parse(src)), src


def test_sim_lint_detects_violations():
    for src in (
        "import repro.sim\n",
        "import repro.sim.engine\n",
        "from repro.sim import Simulator\n",
        "from repro.sim.engine import Simulator\n",
        "from repro import sim\n",
        "def f():\n    from repro.sim import Simulator\n",  # lazy too
        "class C:\n    def m(self):\n        import repro.sim\n",
    ):
        assert sim_imports_any_scope(ast.parse(src)), src
    for src in (
        "from repro.wsn import Network\n",
        "import repro.simulation\n",
        "from repro.core.compiled.plan import CompiledPlan\n",
    ):
        assert not sim_imports_any_scope(ast.parse(src)), src


def test_compiled_package_never_imports_networkx():
    """Compiled plans route through the network's own router, so the
    plan and the event-driven path cannot disagree on a path."""
    offenders = []
    for path in sorted((SRC / "core" / "compiled").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno in networkx_imports_any_scope(tree):
            offenders.append(f"{path.relative_to(SRC.parent)}:{lineno}")
    assert offenders == [], (
        "repro.core.compiled must route through Network.router, not "
        f"networkx: {offenders}"
    )


#: Placement attributes only the placement's owners may read.
_PLACEMENT_READS = {"node_of", "node_of_input", "input_node", "unit_node"}
#: Files that own the placement: the mapping itself and its index.
_PLACEMENT_FILES = ("core/assignment.py", "core/placement_index.py")
#: The one transfer derivation, by file and function name.
_TRANSFER_DERIVATION = {
    "core/costmodel.py": frozenset({"_input_groups", "_layer_transfers"}),
}


def placement_reads(tree, allowed=frozenset()):
    """Line numbers reading a placement attribute outside functions
    named ``*_reference`` or listed in ``allowed`` (nested functions
    inherit the exemption)."""
    offenders = []
    stack = [(node, False) for node in tree.body]
    while stack:
        node, exempt = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            exempt = (exempt or node.name.endswith("_reference")
                      or node.name in allowed)
        elif (isinstance(node, ast.Attribute)
              and node.attr in _PLACEMENT_READS and not exempt):
            offenders.append(node.lineno)
        stack.extend((child, exempt) for child in ast.iter_child_nodes(node))
    return offenders


def test_placement_read_only_through_the_index():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        if name in _PLACEMENT_FILES:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = _TRANSFER_DERIVATION.get(name, frozenset())
        for lineno in placement_reads(tree, allowed):
            offenders.append(f"{path.relative_to(SRC.parent)}:{lineno}")
    assert offenders == [], (
        "read placement owners through PlacementIndex, not the "
        f"placement dicts: {offenders}"
    )


def test_placement_lint_detects_violations():
    for src in (
        "p.node_of(0, (0, 0))\n",
        "def f(p):\n    return p.input_node\n",
        "def f(p):\n    return p.unit_node[(1, 0)]\n",
        "class A:\n    def g(self):\n"
        "        return self.placement.node_of_input((0, 0))\n",
        "def reference(p):\n    return p.node_of(0, 0)\n",
    ):
        assert placement_reads(ast.parse(src)), src
    for src in (
        "def forward_reference(p):\n    return p.node_of(0, 0)\n",
        "def run_reference(p):\n    def hook():\n"
        "        return p.input_node\n    return hook\n",
        "def f(index):\n    return index.layers[0].owner\n",
        "def f(p):\n    return p.nodes\n",
    ):
        assert not placement_reads(ast.parse(src)), src
    derivation = "def _layer_transfers(p):\n    return p.node_of(0, 0)\n"
    assert placement_reads(ast.parse(derivation))
    assert not placement_reads(
        ast.parse(derivation), frozenset({"_layer_transfers"})
    )


#: Packages whose arithmetic runs through the executor's one loop.
_LAYER_LOOP_PACKAGES = ("core", "serve", "faults")
#: The one function there that loops over layers calling ``forward``.
_LAYER_LOOP = ("core/executor.py", "forward_hooked")
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound_names(target):
    return {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}


def _root_name(expr):
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _runs_layer_forward(call, loop_names):
    """``v.forward(...)``/``v.layer.forward(...)`` on a loop variable,
    or a loop variable called with ``training=`` (a bound forward)."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "forward":
        return _root_name(func.value) in loop_names
    return (isinstance(func, ast.Name) and func.id in loop_names
            and any(kw.arg == "training" for kw in call.keywords))


def layer_forward_loops(tree):
    """``(function, lineno)`` of every call that runs a layer forward
    per iteration of a loop or comprehension, attributed to the
    innermost enclosing function."""
    found = {}
    # ast.walk is breadth-first: nested functions come after their
    # parents and overwrite the attribution.
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for loop in ast.walk(func):
            if isinstance(loop, (ast.For, ast.AsyncFor)):
                names, scope = _bound_names(loop.target), loop.body
            elif isinstance(loop, _COMPREHENSIONS):
                names = set().union(
                    *(_bound_names(gen.target) for gen in loop.generators)
                )
                scope = [loop]
            else:
                continue
            for part in scope:
                for node in ast.walk(part):
                    if (isinstance(node, ast.Call)
                            and _runs_layer_forward(node, names)):
                        found[node.lineno] = func.name
    return sorted((name, line) for line, name in found.items())


def test_one_layer_loop():
    """``forward_hooked`` is the only layer loop, and the lint sees it."""
    loops = []
    for package in _LAYER_LOOP_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            name = path.relative_to(SRC).as_posix()
            loops += [(name, func) for func, __ in layer_forward_loops(tree)]
    assert loops == [_LAYER_LOOP], (
        "run the layers through DistributedExecutor.forward_hooked, not "
        f"a second loop: {loops}"
    )


def test_layer_loop_lint_detects_violations():
    for src in (
        "def f(layers, x):\n    for layer in layers:\n"
        "        x = layer.forward(x)\n",
        "def f(graph, x):\n    for entry in graph.layers:\n"
        "        with span():\n"
        "            x = entry.layer.forward(x, training=False)\n",
        "class P:\n    def run(self, x):\n        for op in self._ops:\n"
        "            x = op(x, training=False)\n        return x\n",
        "def f(layers, x):\n    return [l.forward(x) for l in layers]\n",
    ):
        assert layer_forward_loops(ast.parse(src)), src
    for src in (
        "def fit(model, batches):\n    for xb in batches:\n"
        "        model.forward(xb, training=True)\n",
        "def f(callbacks):\n    for cb in callbacks:\n        cb()\n",
        "def f(model, x):\n    return model.forward(x, training=False)\n",
    ):
        assert not layer_forward_loops(ast.parse(src)), src
    nested = (
        "def outer(layers):\n    def inner(x):\n"
        "        for layer in layers:\n            x = layer.forward(x)\n"
        "        return x\n    return inner\n"
    )
    assert layer_forward_loops(ast.parse(nested)) == [("inner", 4)]


def optimizer_steps(tree):
    """Line numbers of every ``<…>.optimizer.step(...)`` call."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "step"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "optimizer"
    )


def test_one_optimizer_step():
    """``repro.nn.Trainer`` owns the one training loop, and the lint
    sees its update."""
    steps = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        name = path.relative_to(SRC).as_posix()
        steps += [name for __ in optimizer_steps(tree)]
    assert steps == ["nn/training.py"], (
        "train through repro.nn.Trainer (override _backward), not a "
        f"second mini-batch loop: {steps}"
    )


def test_optimizer_step_lint_detects_violations():
    for src in (
        "def f(self, slots):\n    self.optimizer.step(slots)\n",
        "def f(trainer, slots):\n    trainer.optimizer.step(slots)\n",
        "class T:\n    def fit(self, batches):\n        for b in batches:\n"
        "            self.inner.optimizer.step(b)\n",
    ):
        assert len(optimizer_steps(ast.parse(src))) == 1, src
    for src in (
        "def f(opt, slots):\n    opt.step(slots)\n",
        "def f(sim):\n    sim.step()\n",
        "def f(self):\n    return self.optimizer.lr\n",
    ):
        assert optimizer_steps(ast.parse(src)) == [], src
