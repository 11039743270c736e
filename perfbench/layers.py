"""Per-layer attribution for the traced run, recorded from outside ``src/``.

:func:`install` replaces the public entry point of each layer with a timing
wrapper — the name each caller actually resolves, e.g.
``repro.core.fused.merge_batch`` rather than ``repro.core.updates
.merge_batch``. A :class:`Recorder` keeps one aggregate per span name in
memory: total time, the part of it covered by child spans, calls, and the
first start. Self time is total minus children. Under the shm engine the
patched functions reach the workers through ``fork``; each worker writes
its recorder to a JSON file when its loop returns, and the traced unit
merges those files after the run.

:func:`layer_metrics` turns the aggregates into the per-layer metrics listed
in ``BENCHMARK.json`` and checks that they reconcile with the loop wall time.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Dict, List, Optional

#: Largest share of the loop wall time the spans may leave unexplained.
RECONCILE_TOLERANCE = 0.05


class Recorder:
    """In-memory span aggregates with self time (total minus children)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.child: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.first: Dict[str, float] = {}
        self.last_end: Dict[str, float] = {}
        self._stack: List[float] = []

    def wrap(self, name: str, fn):
        """``fn`` timed as span ``name``; nested spans count as its children."""
        rec = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            # Read through ``rec`` on every call: reset() swaps the stack.
            stack = rec._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                covered = stack.pop()
                dt = t1 - t0
                rec.total[name] += dt
                rec.child[name] += covered
                rec.calls[name] += 1
                rec.first.setdefault(name, t0)
                rec.last_end[name] = t1
                if stack:
                    stack[-1] += dt
        return timed

    def to_dict(self) -> dict:
        return {"total": dict(self.total), "child": dict(self.child),
                "calls": dict(self.calls), "first": dict(self.first),
                "last_end": dict(self.last_end)}


def install(recorder: Recorder, worker_dir: Optional[str] = None) -> None:
    """Wrap every layer entry point the fused (and shm) layout path calls.

    Process-wide and irreversible: call it only in the traced unit's own
    process. ``worker_dir`` receives one JSON file per shm worker.
    """
    from repro.backend.numpy_backend import NumpyBackend
    from repro.core import fused, updates
    from repro.core.selection import PairSampler
    from repro.parallel import shm
    from repro.parallel.supervise import WorkerSupervisor
    from repro.prng.xoshiro import Xoshiro256Plus

    wrap = recorder.wrap
    Xoshiro256Plus.next_double_block = wrap(
        "draw", Xoshiro256Plus.next_double_block)
    NumpyBackend.run_iteration = wrap("dispatch", NumpyBackend.run_iteration)
    fused.iteration_draws = wrap("relay", fused.iteration_draws)
    PairSampler.select_from_uniforms = wrap(
        "selection", PairSampler.select_from_uniforms)
    fused.merge_batch = wrap("merge", fused.merge_batch)
    updates.compute_displacements = wrap(
        "displace", updates.compute_displacements)
    NumpyBackend.compact_points = wrap("compact", NumpyBackend.compact_points)
    NumpyBackend.merge_scatter = wrap("scatter", NumpyBackend.merge_scatter)
    WorkerSupervisor.start = wrap("spawn", WorkerSupervisor.start)
    WorkerSupervisor.await_ready = wrap("ready", WorkerSupervisor.await_ready)
    WorkerSupervisor.send_iter = wrap("send", WorkerSupervisor.send_iter)
    WorkerSupervisor.collect = wrap("barrier", WorkerSupervisor.collect)
    if worker_dir is None:
        return
    worker_main = shm._worker_main

    @functools.wraps(worker_main)
    def traced_worker(worker_id, *args, **kwargs):
        # Forked from the traced parent mid-span: start from empty state.
        recorder.reset()
        try:
            return worker_main(worker_id, *args, **kwargs)
        finally:
            path = os.path.join(worker_dir,
                                f"worker-{worker_id}-{os.getpid()}.json")
            with open(path, "w") as fh:
                json.dump(recorder.to_dict(), fh)

    shm._worker_main = traced_worker


def load_worker_aggregates(worker_dir: str) -> List[dict]:
    aggs = []
    for name in sorted(os.listdir(worker_dir)):
        with open(os.path.join(worker_dir, name)) as fh:
            aggs.append(json.load(fh))
    return aggs


def _sum(aggs: List[dict], kind: str, name: str) -> float:
    return sum(a[kind].get(name, 0) for a in aggs)


def layer_metrics(rec: dict, workers: List[dict], run_start: float,
                  stamps: List[float], paused_s: float, terms: int,
                  iterations: int, collisions: float) -> dict:
    """Per-layer metrics of one traced run, plus the reconciliation facts.

    ``rec`` is the traced process's recorder, ``workers`` the shm workers'
    recorders (empty for a single-process run), ``run_start`` the time of
    the ``run()`` call, ``stamps`` the ``on_progress`` times and
    ``paused_s`` the time the loop spent in the benchmark's own
    ``on_progress`` work (the host gauge), which is not the program's. Returns
    ``{"metrics": {...}, "counts": {...}, "problems": [...]}``.
    """
    problems: List[str] = []
    parallel = bool(workers)
    # Where the per-term work happened: this process, or the workers.
    work = workers if parallel else [rec]
    if parallel:
        loop_start = rec["last_end"]["ready"]
        attributed = rec["total"].get("send", 0.0) + rec["total"].get(
            "barrier", 0.0)
    else:
        loop_start = rec["first"]["draw"]
        attributed = rec["total"]["draw"] + rec["total"]["dispatch"]
    loop_s = stamps[-1] - loop_start - paused_s
    unattributed = loop_s - attributed
    share = unattributed / loop_s
    if abs(share) > RECONCILE_TOLERANCE:
        problems.append(
            f"layer times leave {share:.1%} of the loop unattributed "
            f"(tolerance {RECONCILE_TOLERANCE:.0%})")
    # Worker time available to per-term work: the loop on every worker.
    capacity = loop_s * len(work)

    def total(name):
        return _sum(work, "total", name)

    def self_t(name):
        return total(name) - _sum(work, "child", name)

    for name in ("draw", "dispatch", "relay", "selection", "merge",
                 "displace", "compact", "scatter"):
        if self_t(name) < -1e-9:
            problems.append(f"span {name} has negative self time")
    merge_calls = int(_sum(work, "calls", "merge"))
    dispatch_calls = int(_sum(work, "calls", "dispatch"))
    per_term = 1e9 / terms
    busy = [a["total"].get("draw", 0.0) + a["total"].get("dispatch", 0.0)
            for a in work]
    mean_busy = sum(busy) / len(busy)
    metrics = {
        "prng.draw_ns_per_term": (total("draw") * per_term, "ns"),
        "prng.draw_share": (total("draw") / capacity, "ratio"),
        "fused.relay_ns_per_term": (total("relay") * per_term, "ns"),
        "fused.chunks_per_iter": (dispatch_calls / iterations, "count"),
        "selection.ns_per_term": (total("selection") * per_term, "ns"),
        "selection.share": (total("selection") / capacity, "ratio"),
        "updates.merge_ns_per_term": (total("merge") * per_term, "ns"),
        "updates.merge_share": (total("merge") / capacity, "ratio"),
        "updates.merge_calls_per_kterm": (merge_calls * 1e3 / terms, "count"),
        "updates.merge_us_per_call": (total("merge") * 1e6 / merge_calls,
                                      "us"),
        "updates.displace_ns_per_term": (total("displace") * per_term, "ns"),
        "updates.compact_ns_per_term": (total("compact") * per_term, "ns"),
        "updates.scatter_ns_per_term": (total("scatter") * per_term, "ns"),
        "updates.merge_self_ns_per_term": (self_t("merge") * per_term, "ns"),
        "updates.collisions_per_kterm": (collisions * 1e3 / terms, "count"),
        "backend.dispatch_self_ns_per_term": (self_t("dispatch") * per_term,
                                              "ns"),
        "base.iter_ms": (loop_s * 1e3 / iterations, "ms"),
        "base.unattributed_share": (share, "ratio"),
    }
    if parallel:
        spawn_s = rec["total"]["spawn"] + rec["total"]["ready"]
        barrier_s = rec["total"]["barrier"]
    else:
        # One in-process worker: no spawn and no barrier. What stands in
        # their place is run()'s own set-up before the first draw, and the
        # loop time outside draw and dispatch.
        spawn_s = loop_start - run_start
        barrier_s = unattributed
    metrics.update({
        "parallel.spawn_ms": (spawn_s * 1e3, "ms"),
        "parallel.barrier_ms_per_iter": (barrier_s * 1e3 / iterations, "ms"),
        "parallel.worker_busy_ms_per_iter": (mean_busy * 1e3 / iterations,
                                             "ms"),
        "parallel.wait_share": (1.0 - mean_busy / loop_s, "ratio"),
        "parallel.imbalance": (max(busy) / mean_busy, "ratio"),
        "parallel.collisions_per_kterm": (collisions * 1e3 / terms, "count"),
    })
    out = {key: {"value": value, "unit": unit}
           for key, (value, unit) in metrics.items()}
    return {"metrics": out,
            "counts": {"merge_calls": merge_calls,
                       "dispatch_calls": dispatch_calls},
            "problems": problems}
