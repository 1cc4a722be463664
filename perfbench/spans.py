"""In-memory span recorder and the per-layer view of one traced ionjc run.

``install`` wraps the public functions of the ionjc layers from outside the
package: it rebinds every ionjc module attribute that refers to a wrapped
function, so ``from .fock import embed_factors`` call sites are traced too.
Nothing under ``src/`` is edited.  Spans stay in memory until ``to_doc``.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# module attribute -> span name; the span name is the layer of the metric names
FUNCTIONS = {
    ("ionjc.fock", "embed_factors"): "fock.embed_factors",
    ("ionjc.fock", "displacement_product"): "fock.displacement_product",
    ("ionjc.fock", "guarded_infidelity"): "fock.guarded_infidelity",
    ("ionjc.hamiltonians", "rotating_frame_hamiltonian"): "hamiltonians.rotating_frame_hamiltonian",
    ("ionjc.hamiltonians", "balanced_hamiltonian"): "hamiltonians.balanced_hamiltonian",
    ("ionjc.transforms", "balanced_transform"): "transforms.balanced_transform",
    ("ionjc.transforms", "rotating_frame_diagonal"): "transforms.rotating_frame_diagonal",
    ("ionjc.propagators", "exact_propagator"): "propagators.exact_propagator",
    ("ionjc.propagators", "pipeline_propagator"): "propagators.pipeline_propagator",
    ("ionjc.propagators", "standard_rwa_propagator"): "propagators.standard_rwa_propagator",
    ("ionjc.propagators", "rwa_jc_propagator_multi"): "propagators.rwa_jc_propagator_multi",
    ("ionjc.config", "parse_config"): "config.parse_config",
    ("ionjc.experiments", "run_experiment"): "experiments.run_experiment",
    ("ionjc.experiments", "write_table"): "experiments.write_table",
}
GENERATOR = ("ionjc.propagators", "evolve_states")
OPERATOR_MATRIX = "fock.OperatorMatrix"
EIGH = "linalg.eigh"

# (layer, metric, unit) in the order the benchmark prints them
LAYER_METRICS = (
    [("fock.embed_factors", m, u) for m, u in (("calls", "count"), ("self_s", "s"), ("dense_mb", "MiB"))]
    + [("fock.displacement_product", m, u) for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(OPERATOR_MATRIX, m, u) for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("fock.guarded_infidelity", "self_s", "s")]
    + [(layer, m, u)
       for layer in ("hamiltonians.rotating_frame_hamiltonian", "hamiltonians.balanced_hamiltonian",
                     "transforms.balanced_transform", "transforms.rotating_frame_diagonal")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("propagators.evolve_states", m, "s") for m in ("first_s", "point_s", "self_s")]
    + [(f"propagators.{p}", m, u)
       for p in ("exact_propagator", "pipeline_propagator", "standard_rwa_propagator",
                 "rwa_jc_propagator_multi")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(EIGH, m, u) for m, u in (("calls", "count"), ("full_calls", "count"), ("self_s", "s"),
                                 ("n3", "count"))]
    + [(layer, "self_s", "s") for layer in ("config.parse_config", "experiments.run_experiment",
                                             "experiments.write_table")]
    + [("trace", "overhead_s", "s"), ("trace", "coverage", "frac")]
)


class SpanRecorder:
    """Spans (id, parent, name, start, end) kept in memory.

    Each thread keeps its own stack of open spans; a thread pool worker starts
    its stack from the span that was open when its task was submitted, so the
    spans of sweep workers nest under the span that waits for them.
    """

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counters: dict[str, int | float] = {}
        self.generators: list[dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self) -> tuple[int, int | None, float]:
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def end(self, name: str, opened: tuple[int, int | None, float]) -> None:
        stop = time.perf_counter()
        sid, parent, start = opened
        self._stack().pop()
        with self._lock:
            self.spans.append((sid, parent, name, start, stop))

    def count(self, key: str, amount: int | float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def adopt(self, fn, parent: int | None):
        """Run ``fn`` in another thread as if called under span ``parent``."""

        def run(*args, **kwargs):
            stack = self._stack()
            base = len(stack)
            if parent is not None:
                stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                del stack[base:]

        return run

    def to_doc(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "counters": dict(self.counters),
                "generators": list(self.generators)}


def _wrap(rec: SpanRecorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        opened = rec.begin()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(name, opened)
        if after is not None:
            after(args, result)
        return result

    return traced


def _wrap_generator(rec: SpanRecorder, name: str, fn):
    """Time each next() of the generator; record call-to-first-state and later gaps."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        called = time.perf_counter()
        inner = fn(*args, **kwargs)
        delivered: list[float] = []
        try:
            while True:
                opened = rec.begin()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec.end(name, opened)
                delivered.append(time.perf_counter())
                yield item
        finally:
            rec.generators.append({"name": name, "called": called, "delivered": delivered})

    return traced


def install(rec: SpanRecorder, dim: int):
    """Patch the ionjc layers (imported beforehand) and numpy's eigh; return an undo function."""
    import numpy as np
    from ionjc.fock import OperatorMatrix

    wrapped = {}  # id of the original function -> its traced version
    for (module, attr), name in FUNCTIONS.items():
        fn = getattr(sys.modules[module], attr)
        after = None
        if name == "fock.embed_factors":
            def after(args, result):
                rec.count("fock.embed_factors.dense_mb", result.shape[0] ** 2 * 16 / 2**20)
        wrapped[id(fn)] = _wrap(rec, name, fn, after)
    gen_fn = getattr(sys.modules[GENERATOR[0]], GENERATOR[1])
    wrapped[id(gen_fn)] = _wrap_generator(rec, "propagators.evolve_states", gen_fn)

    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for mod_name, module in list(sys.modules.items()):
        if mod_name == "ionjc" or mod_name.startswith("ionjc."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    rebind(module, attr, wrapped[id(value)])

    def after_eigh(args, result):
        n = args[0].shape[-1]
        rec.count(f"{EIGH}.n3", n**3)
        rec.count(f"{EIGH}.full_calls", int(n == dim))

    rebind(np.linalg, "eigh", _wrap(rec, EIGH, np.linalg.eigh, after_eigh))
    rebind(OperatorMatrix, "__init__", _wrap(rec, OPERATOR_MATRIX, OperatorMatrix.__init__))

    submit = ThreadPoolExecutor.submit

    def traced_submit(pool, fn, /, *args, **kwargs):
        return submit(pool, rec.adopt(fn, rec.current()), *args, **kwargs)

    rebind(ThreadPoolExecutor, "submit", traced_submit)

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall


def covered(intervals: list[tuple[float, float]], start: float, stop: float) -> float:
    """Length of [start, stop] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, stop)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children of one span may overlap when they ran in different threads, so
    the covered time is the length of the union of their intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, _name, start, stop in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, stop))
    return {sid: (stop - start) - covered(children.get(sid, []), start, stop)
            for sid, _parent, _name, start, stop in spans}


def layer_metrics(doc: dict, untraced_run_s: float, traced_run_s: float) -> dict[str, float]:
    """Every per-layer metric of LAYER_METRICS from one traced run's document.

    ``doc`` also holds ``main_start``/``main_stop``, the wall interval of
    ``ionjc.cli.main`` after import; coverage is the share of it that the
    top-level spans of the main thread account for.
    """
    spans = [tuple(s) for s in doc["spans"]]
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for sid, _parent, name, _start, _stop in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[sid]
    values = dict(doc["counters"])
    for layer, metric, _unit in LAYER_METRICS:
        if metric == "calls":
            values[f"{layer}.calls"] = calls.get(layer, 0)
        elif metric == "self_s":
            values[f"{layer}.self_s"] = self_s.get(layer, 0.0)

    first, gaps = 0.0, []
    for gen in doc["generators"]:
        delivered = gen["delivered"]
        if delivered:
            first += delivered[0] - gen["called"]
            gaps += [b - a for a, b in zip(delivered, delivered[1:])]
    values["propagators.evolve_states.first_s"] = first
    values["propagators.evolve_states.point_s"] = statistics.median(gaps) if gaps else 0.0

    wall = doc["main_stop"] - doc["main_start"]
    top = [(start, stop) for _sid, parent, _name, start, stop in spans if parent is None]
    values["trace.coverage"] = covered(top, doc["main_start"], doc["main_stop"]) / wall
    values["trace.overhead_s"] = traced_run_s - untraced_run_s
    return {f"{layer}.{metric}": values.get(f"{layer}.{metric}", 0 if unit == "count" else 0.0)
            for layer, metric, unit in LAYER_METRICS}
