"""Workloads of the repo benchmark.

Imported by ``run.py`` only after the host setting is pinned (BLAS threads,
no ambient ``REPRO_*`` variables).  Every workload drives the program through
its public entry points (``pdgesv``, ``pdgesv_solve``,
``FactorCache.fetch_or_factor``, ``SolveService``) with every knob passed
explicitly through one :class:`~repro.core.options.SolveConfig`, checks every
output, and returns ``(tally, metrics, info)``: the operations attempted and
failed, the metric values by name, and sample counts for the log line.

See ``README.md`` next to this file for the definition of every metric.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import gc
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from layers import LayerTracer
from repro.core.options import SolveConfig
from repro.harness import FactorCache, SolveService
from repro.parallel import pdgesv, pdgesv_solve

#: Knobs every workload pins (the library default engine is ``threaded``).
KNOBS = {
    "pivoting": "ca",
    "engine": "coroutine",
    "kernel_tier": "auto",
    "matmul": "summa",
    "machine": "ibm_power5",
}

#: An operation fails when its componentwise backward error exceeds this.
BACKWARD_ERROR_BOUND = 1e-13
#: Residual SLO: largest allowed max-abs residual of one right-hand side.
RESIDUAL_SLO = 1e-10
#: An open-loop request fails when it completes later than this after it was due.
LATENCY_LIMIT_S = 2.0
#: The tail latency is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
#: Set-up is repeated this many times; ``setup_s`` reports the median.
SETUP_REPEATS = 3

#: serve_open_loop traffic: coalescing window, Poisson arrival rate, share of
#: the run spent in the open loop, full-window burst batches per second of
#: run, and the number of open-loop/burst rounds the run alternates between.
#: The rate is about a third of the saturated capacity at window 8 (35-45
#: req/s on a shared 2-core host): at half capacity a stretch of slow host
#: pushed the queue near saturation and the latency spread between runs
#: beyond 25%.
WINDOW = 8
RATE_PER_S = 12.0
OPEN_SHARE = 0.6
BURST_BATCHES_PER_S = 1.5
CYCLES = 3


@dataclass(frozen=True)
class Workload:
    kind: str  # "solve" (closed loop of cold pdgesv) or "serve"
    n: int
    grid: Tuple[int, int]
    b: int

    def config(self) -> SolveConfig:
        return SolveConfig.resolve(grid=self.grid, b=self.b, **KNOBS)


WORKLOADS = {
    "wide_grid_solve": Workload("solve", 256, (32, 16), 4),
    "few_rank_solve": Workload("solve", 3072, (2, 2), 128),
    "serve_open_loop": Workload("serve", 512, (8, 8), 16),
}

#: Same code paths at sizes that run in about a second (the benchmark's tests).
TINY = {
    "wide_grid_solve": Workload("solve", 32, (8, 4), 2),
    "few_rank_solve": Workload("solve", 96, (2, 2), 16),
    "serve_open_loop": Workload("serve", 48, (4, 4), 8),
}


# --------------------------------------------------------------------- checks
def backward_error(A: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """Componentwise backward error ``max_i |b - A x|_i / (|A| |x| + |b|)_i``."""
    r = b - A @ x
    return float(np.max(np.abs(r) / (np.abs(A) @ np.abs(x) + np.abs(b))))


def solution_ok(A, x, b, reported_be: float, residual: float) -> bool:
    """Both the program's and our own backward error within bound, SLO met."""
    own_residual = float(np.max(np.abs(b - A @ x)))
    return (
        reported_be <= BACKWARD_ERROR_BOUND
        and backward_error(A, x, b) <= BACKWARD_ERROR_BOUND
        and residual <= RESIDUAL_SLO
        and own_residual <= RESIDUAL_SLO
    )


def phase_counts(trace) -> Dict[str, float]:
    return {
        "msgs_max": trace.max_messages,
        "msgs_total": trace.total_messages,
        "words_max": trace.max_words,
        "words_total": trace.total_words,
        "flops_max": trace.max_flops,
        "msgs_row": trace.messages_by_channel("row"),
        "msgs_col": trace.messages_by_channel("col"),
        "words_row": trace.words_by_channel("row"),
        "words_col": trace.words_by_channel("col"),
        "time_s": trace.critical_path_time,
    }


def ledger(factor_trace, solve_trace) -> Dict[str, float]:
    """The exact simulated-cost counts (``trace.*``) of one factor + solve."""
    out: Dict[str, float] = {}
    for phase, trace in (("factor", factor_trace), ("solve", solve_trace)):
        out.update({f"trace.{phase}.{k}": v for k, v in phase_counts(trace).items()})
    both = (factor_trace, solve_trace)
    out["trace.group_collectives"] = sum(t.total_group_collectives for t in both)
    out["trace.zero_copy_sends"] = sum(r.zero_copy_sends for t in both for r in t.ranks)
    return out


def tail(values: List[float]) -> float:
    """Highest percentile with TAIL_BEYOND samples above it.

    With TAIL_BEYOND samples or fewer no such percentile exists, and the
    maximum of a handful of samples is mostly host noise, so the upper
    quartile stands in.
    """
    s = sorted(values)
    if len(s) > TAIL_BEYOND:
        return s[-TAIL_BEYOND - 1]
    return statistics.quantiles(s, n=4, method="inclusive")[2] if len(s) > 1 else s[0]


def tail_percentile(count: int) -> float:
    return 100.0 * (count - TAIL_BEYOND) / count if count > TAIL_BEYOND else 75.0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@functools.lru_cache(maxsize=1)
def _malloc_trim():
    """glibc's ``malloc_trim``, or ``None`` where the C library has none."""
    try:
        trim = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6").malloc_trim
    except (OSError, AttributeError):  # not glibc: nothing to trim
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def release_heap() -> None:
    """Free the previous solve's garbage and hand the pages back to the OS.

    Without it, how much of the earlier solves' memory stays resident depends
    on when the cycle collector last ran and how the allocator reuses freed
    pages, and the peak memory of few_rank_solve varied by 9% between runs.
    """
    gc.collect()
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _warn(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)


# ------------------------------------------------------------ layer summaries
def layer_metrics(tr: LayerTracer, ops: int) -> Dict[str, float]:
    """Per-layer seconds and calls per operation of a traced pass."""
    inc, exc = tr.inclusive, tr.exclusive
    engine_self = exc["distsim"] + exc["scalapack"]
    kernel_calls = sum(c for name, c in tr.calls.items() if name.startswith("kernels."))
    per = 1.0 / ops
    return {
        "distsim.run_spmd_s": inc["distsim.run_spmd"] * per,
        "distsim.run_spmd_calls": tr.calls["distsim.run_spmd"] * per,
        "distsim.self_s": engine_self * per,
        "distsim.host_us_per_msg": 1e6 * engine_self / tr.messages if tr.messages else 0.0,
        "kernels.s": exc["kernels"] * per,
        "kernels.calls": kernel_calls * per,
        "kernels.getf2_s": inc["kernels.getf2"] * per,
        "kernels.gemm_s": inc["kernels.gemm"] * per,
        "kernels.trsm_s": inc["kernels.trsm"] * per,
        "kernels.batched_s": inc["kernels.batched"] * per,
        "kernels.flops_per_s": tr.flops / exc["kernels"] if exc["kernels"] else 0.0,
        "core.tournament_s": inc["core.tournament"] * per,
        "matmul.update_s": inc["matmul.update"] * per,
        "matmul.update_calls": tr.calls["matmul.update"] * per,
        "matmul.share_panel_s": inc["matmul.share_panel"] * per,
        "scalapack.pdtrsv_s": inc["scalapack.pdtrsv"] * per,
        "scalapack.pdlaswp_s": inc["scalapack.pdlaswp"] * per,
        "layouts.scatter_gather_s": inc["layouts.scatter_gather"] * per,
        "parallel.factor_s": inc["parallel.factor"] * per,
        "parallel.solve_s": inc["parallel.solve"] * per,
        "parallel.self_s": exc["parallel"] * per,
    }


FACTOR_CACHE_ZERO = {
    "factor_cache.fetch_s": 0.0,
    "factor_cache.load_s": 0.0,
    "factor_cache.save_s": 0.0,
    "factor_cache.hit_ratio": 0.0,
    "factor_cache.bytes": 0,
}

SERVING_ZERO = {
    "serving.sweep_s": 0.0,
    "serving.queue_wait_p50_s": 0.0,
    "serving.batch_fill": 0.0,
    "serving.batches": 0,
    "serving.sweeps_per_batch": 0.0,
    "serving.refinements": 0,
    "serving.generator_lag_s": 0.0,
}


@dataclass
class Tally:
    """Operations attempted and failed, and checks of the run as a whole."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            _warn(f"failed operation: {what}")

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            _warn(f"check failed: {what}")


# ------------------------------------------------------------- solve workloads
def _solve_pass(cfg, A, b, seconds: float, tally: Tally) -> Tuple[List[float], List[dict]]:
    """Closed loop of cold ``pdgesv`` calls, one after another, for ``seconds``.

    Another solve starts only while it is expected to end within the budget,
    so the pass takes about ``seconds``; at least one solve always runs.
    """
    walls: List[float] = []
    ledgers: List[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        try:
            res = pdgesv(A, b, config=cfg)
        except Exception as exc:  # noqa: BLE001 - counted as a failed solve
            res = None
            _warn(f"pdgesv raised {exc!r}")
        wall = time.perf_counter() - t0
        walls.append(wall)
        ok = False
        if res is not None:
            ok = solution_ok(A, res.x, b, res.backward_errors[-1], res.residual_norms[-1])
            ledgers.append(ledger(res.factorization.trace, res.trace))
            # Release the factors now, so the next solve's peak memory is its own.
            res = None
        release_heap()
        tally.op(ok, "pdgesv")
        if time.perf_counter() + wall > deadline:
            return walls, ledgers


def warm_up() -> float:
    """One tiny solve on the pinned knobs, so lazy imports are paid in set-up."""
    t0 = time.perf_counter()
    cfg = Workload("solve", 8, (2, 2), 2).config()
    pdgesv(np.eye(8) + np.tri(8), np.ones(8), config=cfg)
    return time.perf_counter() - t0


def run_solve(w: Workload, seed: int, seconds: float, trace: bool, startup_s: float):
    cfg = w.config()
    startup_s += warm_up()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((w.n, w.n))
        b = rng.standard_normal(w.n)
        setups.append(time.perf_counter() - t0)
    tally = Tally()
    if not trace:
        walls, ledgers = _solve_pass(cfg, A, b, seconds, tally)
        tally.check(all(l == ledgers[0] for l in ledgers), "trace counts repeat across solves")
        return tally, {
            "setup_s": startup_s + statistics.median(setups),
            "solve_s": statistics.median(walls),
            "sim_time_s": ledgers[0]["trace.factor.time_s"] + ledgers[0]["trace.solve.time_s"],
            "latency_p50_s": statistics.median(walls),
            "latency_tail_s": tail(walls),
            "serve_rps": len(walls) / sum(walls),
            "peak_rss_mib": peak_rss_mib(),
        }, {"solves": len(walls), "tail_percentile": tail_percentile(len(walls))}

    plain, plain_ledgers = _solve_pass(cfg, A, b, seconds / 2, tally)
    tracer = LayerTracer()
    tracer.install()
    try:
        traced, traced_ledgers = _solve_pass(cfg, A, b, seconds / 2, tally)
    finally:
        tracer.uninstall()
    every = plain_ledgers + traced_ledgers
    tally.check(all(l == every[0] for l in every), "trace counts equal traced and untraced")
    metrics = layer_metrics(tracer, len(traced))
    metrics.update(FACTOR_CACHE_ZERO)
    metrics.update(SERVING_ZERO)
    metrics.update(every[0])
    metrics["bench.trace_overhead"] = statistics.median(traced) / statistics.median(plain) - 1
    return tally, metrics, {"solves": len(plain) + len(traced)}


# ---------------------------------------------------------------- serve workload
@dataclass
class Traffic:
    """Seeded inputs of one serve pass: open-loop arrivals and RHS, burst RHS."""

    gaps: np.ndarray
    open_rhs: np.ndarray
    burst_rhs: np.ndarray
    check_rhs: np.ndarray

    @classmethod
    def generate(cls, seed: int, n: int, seconds: float) -> "Traffic":
        count = max(CYCLES, round(RATE_PER_S * OPEN_SHARE * seconds))
        burst = WINDOW * max(CYCLES, round(BURST_BATCHES_PER_S * seconds))
        return cls(
            gaps=np.random.default_rng([seed, 1]).exponential(1.0 / RATE_PER_S, count),
            open_rhs=np.random.default_rng([seed, 2]).standard_normal((count, n)),
            burst_rhs=np.random.default_rng([seed, 3]).standard_normal((burst, n)),
            check_rhs=np.random.default_rng([seed, 4]).standard_normal(n),
        )


def _serve_setup(cfg, n: int, seed: int, root: Path, tally: Tally):
    """Cold factor + cache save on a fresh root, then a load hit."""
    cache = FactorCache(root=root)
    miss = cache.fetch_or_factor(kind="randn", n=n, seed=seed, config=cfg)
    hit = cache.fetch_or_factor(kind="randn", n=n, seed=seed, config=cfg)
    tally.check(not miss.cached and hit.cached, "fresh cache root: miss then hit")
    tally.check(
        np.array_equal(miss.factor.packed, hit.factor.packed)
        and np.array_equal(miss.factor.permuted, hit.factor.permuted)
        and np.array_equal(miss.factor.perm, hit.factor.perm),
        "cache round trip is bit-identical",
    )
    return miss, hit


def _done_clock(done: np.ndarray, i: int):
    def record(_future) -> None:
        done[i] = time.perf_counter()

    return record


def _results(futures, what: str) -> list:
    outcomes = []
    for fut in futures:
        try:
            outcomes.append(fut.result(timeout=60.0))
        except Exception as exc:  # noqa: BLE001 - counted as a failed request
            _warn(f"{what} raised {exc!r}")
            outcomes.append(None)
    return outcomes


def _open_loop(factor, cfg, gaps: np.ndarray, rhs: np.ndarray):
    """One generator thread submits at seeded Poisson due times, open loop."""
    count = len(gaps)
    due = time.perf_counter() + 0.05 + np.cumsum(gaps)
    sent = np.zeros(count)
    done = np.full(count, np.nan)
    futures = []
    service = SolveService(factor, window=WINDOW, config=cfg, default_slo=RESIDUAL_SLO)

    def generate() -> None:
        for i in range(count):
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[i] = time.perf_counter()
            futures.append(service.submit(rhs[i]))
            futures[-1].add_done_callback(_done_clock(done, i))

    generator = threading.Thread(target=generate, name="perfbench-generator")
    try:
        generator.start()
        generator.join(timeout=float(gaps.sum()) + 60.0)
        if generator.is_alive():
            raise RuntimeError("open-loop generator did not finish")
        outcomes = _results(futures, "open-loop request")
        outcomes += [None] * (count - len(outcomes))  # never submitted: failed
    finally:
        service.close(timeout=60.0)
    return outcomes, due, sent, done - due, service.stats


def _burst(factor, cfg, rhs: np.ndarray):
    """A saturated burst drained synchronously: deterministic full batches."""
    service = SolveService(
        factor, window=WINDOW, config=cfg, default_slo=RESIDUAL_SLO, start=False
    )
    futures = [service.submit(b) for b in rhs]
    t0 = time.perf_counter()
    sweeps = service.drain()
    elapsed = time.perf_counter() - t0
    service.close()
    return _results(futures, "burst request"), elapsed, sweeps


def _serve_pass(factor, cfg, A, traffic: Traffic, tally: Tally, tracer=None):
    """CYCLES rounds of an open-loop segment then a burst segment.

    Alternating spreads both measurements over the whole pass, so a slow
    stretch of the host weighs on latency and throughput alike.
    """
    latencies, waits, lags, open_sweeps = [], [], [], []
    burst_s = 0.0
    burst_sweeps = requests = 0
    totals = {"batches": 0, "batched_rhs": 0, "sweeps": 0, "refinements": 0}
    opens = np.array_split(np.arange(len(traffic.gaps)), CYCLES)
    bursts = np.array_split(np.arange(len(traffic.burst_rhs)).reshape(-1, WINDOW), CYCLES)
    for open_idx, burst_batches in zip(opens, bursts):
        first = len(tracer.starts["serving.sweep"]) if tracer is not None else 0
        outcomes, due, sent, lat, stats = _open_loop(
            factor, cfg, traffic.gaps[open_idx], traffic.open_rhs[open_idx]
        )
        if tracer is not None:
            starts = tracer.starts["serving.sweep"][first:]
            open_sweeps += tracer.durations["serving.sweep"][first:]
            waits += [
                starts[out.batch_id - 1] - due[i]
                for i, out in enumerate(outcomes)
                if out is not None and out.batch_id <= len(starts)
            ]
        for key in totals:
            totals[key] += getattr(stats, key)
        lags.append(float(np.max(sent - due)))
        latencies += lat.tolist()
        burst_idx = burst_batches.ravel()
        burst_outcomes, elapsed, sweeps = _burst(factor, cfg, traffic.burst_rhs[burst_idx])
        burst_s += elapsed
        burst_sweeps += sweeps
        for j, (i, out) in enumerate(zip(open_idx, outcomes)):
            tally.op(
                out is not None
                and out.met_slo
                and solution_ok(A, out.x, traffic.open_rhs[i], 0.0, out.residual)
                and lat[j] <= LATENCY_LIMIT_S,
                f"open-loop request {i}",
            )
        for i, out in zip(burst_idx, burst_outcomes):
            tally.op(
                out is not None
                and out.met_slo
                and solution_ok(A, out.x, traffic.burst_rhs[i], 0.0, out.residual),
                f"burst request {i}",
            )
        requests += len(outcomes) + len(burst_outcomes)
    result = {
        "latencies": [x for x in latencies if np.isfinite(x)],
        "serve_rps": len(traffic.burst_rhs) / burst_s,
        # Mean, not median: a sweep refines once or twice, and the median
        # jumped between those two modes from run to run.
        "sweep_s": burst_s / burst_sweeps,
        "requests": requests,
    }
    if tracer is not None:
        result["serving"] = {
            "serving.sweep_s": statistics.median(open_sweeps),
            "serving.queue_wait_p50_s": statistics.median(waits),
            "serving.batch_fill": totals["batched_rhs"] / (totals["batches"] * WINDOW),
            "serving.batches": totals["batches"],
            "serving.sweeps_per_batch": totals["sweeps"] / totals["batches"],
            "serving.refinements": totals["refinements"],
            "serving.generator_lag_s": max(lags),
        }
    return result


def _check_solve(factor, cfg, A, traffic: Traffic, tally: Tally):
    """One single-RHS solve after the timed phases: its trace prices a request."""
    res = pdgesv_solve(factor, traffic.check_rhs, config=cfg)
    tally.op(
        solution_ok(A, res.x, traffic.check_rhs, res.backward_errors[-1], res.residual_norms[-1]),
        "check solve",
    )
    return res.trace


def _factor_cache_metrics(tracer: LayerTracer, miss, hit) -> Dict[str, float]:
    inc = tracer.inclusive
    return {
        "factor_cache.fetch_s": inc["factor_cache.fetch"],
        "factor_cache.load_s": inc["factor_cache.load"],
        "factor_cache.save_s": inc["factor_cache.save"],
        "factor_cache.hit_ratio": (int(miss.cached) + int(hit.cached)) / 2,
        "factor_cache.bytes": hit.path.stat().st_size,
    }


def run_serve(w: Workload, seed: int, seconds: float, trace: bool, startup_s: float, tmp: Path):
    cfg = w.config()
    startup_s += warm_up()
    tally = Tally()
    tracer = LayerTracer()
    setups, factor_traces = [], []
    for rep in range(SETUP_REPEATS):
        traced_rep = trace and rep == SETUP_REPEATS - 1
        if traced_rep:
            tracer.install()
        try:
            t0 = time.perf_counter()
            A = np.random.default_rng(seed).standard_normal((w.n, w.n))
            traffic = Traffic.generate(seed, w.n, seconds / 2 if trace else seconds)
            miss, hit = _serve_setup(cfg, w.n, seed, tmp / f"factors-{rep}", tally)
            setups.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        factor_traces.append(phase_counts(miss.factor.source.trace))
    tally.check(all(f == factor_traces[0] for f in factor_traces), "factor trace repeats")
    factor = hit.factor
    tally.check(np.array_equal(factor.permuted, A[factor.perm]), "factor belongs to A")
    factor_trace = miss.factor.source.trace

    if not trace:
        served = _serve_pass(factor, cfg, A, traffic, tally)
        solve_trace = _check_solve(factor, cfg, A, traffic, tally)
        lat = served["latencies"]
        return tally, {
            "setup_s": startup_s + statistics.median(setups),
            "solve_s": served["sweep_s"],
            "sim_time_s": factor_trace.critical_path_time + solve_trace.critical_path_time,
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": tail(lat),
            "serve_rps": served["serve_rps"],
            "peak_rss_mib": peak_rss_mib(),
        }, {"requests": served["requests"], "tail_percentile": tail_percentile(len(lat))}

    fc_metrics = _factor_cache_metrics(tracer, miss, hit)
    plain = _serve_pass(factor, cfg, A, traffic, tally)
    plain_ledger = ledger(factor_trace, _check_solve(factor, cfg, A, traffic, tally))
    tracer.reset()
    tracer.install()
    try:
        traced = _serve_pass(factor, cfg, A, traffic, tally, tracer=tracer)
        metrics = layer_metrics(tracer, traced["requests"])
        traced_ledger = ledger(factor_trace, _check_solve(factor, cfg, A, traffic, tally))
    finally:
        tracer.uninstall()
    tally.check(plain_ledger == traced_ledger, "trace counts equal traced and untraced")
    metrics.update(fc_metrics)
    metrics.update(traced["serving"])
    metrics.update(plain_ledger)
    metrics["bench.trace_overhead"] = (
        statistics.median(traced["latencies"]) / statistics.median(plain["latencies"]) - 1
    )
    return tally, metrics, {"requests": plain["requests"] + traced["requests"]}
