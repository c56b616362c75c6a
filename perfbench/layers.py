"""Outside-in layer spans for the traced benchmark run.

The program has no layer timer of its own yet, so the traced run measures
layers from the outside: :class:`LayerTracer` rebinds the names the calling
modules import (``repro.parallel.driver.run_spmd``,
``repro.scalapack.pdgemm.gemm_update``, ...) to wrappers that open a
``perf_counter`` span around each call, and puts the originals back on
:meth:`LayerTracer.uninstall`.  The untraced run never installs anything.

Rank programs are generators stepped by the coroutine engine, so a span
around the call that *creates* a generator would time nothing.  Generator
layers (``pdlaswp``, ``pdtrsv``, the matmul backend hooks) are wrapped so
that every resumption is one span step: the span covers the time the rank
code itself runs and leaves the scheduling between steps to the engine.
Under the coroutine engine all rank code runs on one host thread, so spans
nest properly and never overlap.

Each instant inside a span is charged to the innermost open span's layer
(``exclusive``), and each span name also keeps its outermost inclusive time
(``inclusive``), so recursive kernels are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span sites: (owner, attribute, span name, layer, kind).  ``owner`` is a
#: module path, ``module:Class`` or ``module:DICT``; ``kind`` is ``call`` (a
#: plain function), ``gen`` (a function returning a generator) or
#: ``program`` (an ``SpmdProgram`` used through ``.co``).  Sites are applied
#: in order, so a later site on the same name wraps the earlier one.
SITES: List[Tuple[str, str, str, str, str]] = [
    # parallel: the host-side factor and solve drivers
    ("repro.parallel.psolve", "pcalu_factor", "parallel.factor", "parallel", "call"),
    ("repro.harness.factor_cache", "pcalu_factor", "parallel.factor", "parallel", "call"),
    ("repro.parallel.psolve", "pdgesv_solve", "parallel.solve", "parallel", "call"),
    ("repro.harness.serving", "pdgesv_solve", "parallel.solve", "parallel", "call"),
    # harness: serving sweeps and the factor cache
    ("repro.harness.serving", "pdgesv_solve", "serving.sweep", "harness", "call"),
    ("repro.harness.factor_cache:FactorCache", "fetch_or_factor", "factor_cache.fetch", "harness", "call"),
    ("repro.harness.factor_cache:FactorCache", "load", "factor_cache.load", "harness", "call"),
    ("repro.harness.factor_cache:FactorCache", "save", "factor_cache.save", "harness", "call"),
    # layouts: block-cyclic scatter and gather
    ("repro.layouts.block_cyclic:BlockCyclic2D", "scatter", "layouts.scatter_gather", "layouts", "call"),
    ("repro.layouts.block_cyclic:BlockCyclic2D", "gather", "layouts.scatter_gather", "layouts", "call"),
    # distsim: the SPMD runs (engine, collectives, cost accounting)
    ("repro.parallel.driver", "run_spmd", "distsim.run_spmd", "distsim", "call"),
    ("repro.parallel.psolve", "run_spmd", "distsim.run_spmd", "distsim", "call"),
    # scalapack: distributed row swaps and triangular sweeps (rank code)
    ("repro.parallel.driver", "pdlaswp", "scalapack.pdlaswp", "scalapack", "program"),
    ("repro.parallel.pcalu", "pdlaswp", "scalapack.pdlaswp", "scalapack", "program"),
    ("repro.parallel.psolve", "pdtrsv_lower_unit", "scalapack.pdtrsv", "scalapack", "program"),
    ("repro.parallel.psolve", "pdtrsv_upper", "scalapack.pdtrsv", "scalapack", "program"),
    # matmul: panel broadcast and trailing update of the LU driver
    ("repro.matmul.base:MatmulBackend", "share_panel", "matmul.share_panel", "matmul", "gen"),
    ("repro.matmul.base:MatmulBackend", "update_trailing", "matmul.update", "matmul", "gen"),
    # core: tournament leaves and merges
    ("repro.parallel.ptslu", "local_candidates", "core.tournament", "core", "call"),
    ("repro.parallel.ptslu", "merge_candidates", "core.tournament", "core", "call"),
    # kernels: rank-local arithmetic
    ("repro.core.tournament:LOCAL_KERNELS", "getf2", "kernels.getf2", "kernels", "call"),
    ("repro.core.tournament:LOCAL_KERNELS", "rgetf2", "kernels.getf2", "kernels", "call"),
    ("repro.core.tournament", "getf2", "kernels.getf2", "kernels", "call"),
    ("repro.kernels.getf2", "getf2", "kernels.getf2", "kernels", "call"),
    ("repro.kernels.getf2", "getf2_nopivot", "kernels.getf2", "kernels", "call"),
    ("repro.core.tournament", "getf2_batched", "kernels.batched", "kernels", "call"),
    ("repro.parallel.ptslu", "getf2_batched", "kernels.batched", "kernels", "call"),
    ("repro.parallel.pcalu", "trsm_right_upper", "kernels.trsm", "kernels", "call"),
    ("repro.parallel.ptslu", "trsm_right_upper", "kernels.trsm", "kernels", "call"),
    ("repro.scalapack.pdtrsm", "trsm_lower_unit", "kernels.trsm", "kernels", "call"),
    ("repro.scalapack.pdtrsv", "trsm_lower_unit", "kernels.trsm", "kernels", "call"),
    ("repro.scalapack.pdtrsv", "trsm_upper", "kernels.trsm", "kernels", "call"),
    ("repro.scalapack.pdgemm", "gemm_update", "kernels.gemm", "kernels", "call"),
]


#: Span names whose individual calls are kept (the serving layer needs
#: each sweep's start time for the queue wait).
RECORDED = ("serving.sweep",)


def _owner(path: str) -> Any:
    module, _, member = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, member) if member else obj


def _get(owner: Any, attr: str) -> Any:
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def _set(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class LayerTracer:
    """Span accumulator plus the rebinding of the program's layer entry points.

    Attributes
    ----------
    inclusive:
        Span name -> seconds inside its outermost spans.
    exclusive:
        Layer -> seconds in which that layer's span was the innermost one.
    calls:
        Span name -> number of calls (a generator counts once).
    starts, durations:
        Span name -> start times and durations of each call, kept only for
        the names in :data:`RECORDED`.
    messages, flops:
        Simulated messages and flops of every traced ``run_spmd``.
    """

    def __init__(self) -> None:
        self._patches: List[Tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every accumulated span (the rebinding stays installed)."""
        self._stack: List[list] = []
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.exclusive: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.starts: Dict[str, List[float]] = defaultdict(list)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.messages = 0
        self.flops = 0.0

    # ------------------------------------------------------------------ spans
    def _enter(self, name: str, layer: str) -> None:
        self._stack.append([name, layer, time.perf_counter(), 0.0])

    def _exit(self) -> float:
        now = time.perf_counter()
        name, layer, start, child = self._stack.pop()
        duration = now - start
        self.exclusive[layer] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if all(frame[0] != name for frame in self._stack):
            self.inclusive[name] += duration
        return duration

    def _call_span(self, name: str, layer: str, fn: Callable) -> Callable:
        recorded = name in RECORDED
        spmd = name == "distsim.run_spmd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            start = time.perf_counter()
            self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._exit()
            if recorded:
                self.starts[name].append(start)
                self.durations[name].append(duration)
            if spmd:
                self.messages += result.total_messages
                self.flops += result.total_flops
            return result

        return wrapper

    def _gen_span(self, name: str, layer: str, gen_fn: Callable) -> Callable:
        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return self._stepped(name, layer, gen_fn(*args, **kwargs))

        return wrapper

    def _stepped(self, name: str, layer: str, gen):
        """Delegate to ``gen`` like ``yield from``, one span per resumption."""
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            self._enter(name, layer)
            try:
                request = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._exit()
            try:
                value, error = (yield request), None
            except BaseException as exc:  # noqa: BLE001 - re-raised inside gen
                value, error = None, exc

    # -------------------------------------------------------------- rebinding
    def install(self) -> None:
        """Rebind every site in :data:`SITES` to its span wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for path, attr, name, layer, kind in SITES:
            owner = _owner(path)
            original = _get(owner, attr)
            if kind == "call":
                wrapped: Any = self._call_span(name, layer, original)
            elif kind == "gen":
                wrapped = self._gen_span(name, layer, original)
            else:
                wrapped = types.SimpleNamespace(
                    co=self._gen_span(name, layer, original.co)
                )
            self._patches.append((owner, attr, original))
            _set(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original back, newest rebinding first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            _set(owner, attr, original)
