"""One measured unit of a workload, in a fresh process.

    python3 perfbench/unit.py --workload NAME --seed N [--traced] [--work-dir DIR]

Builds the workload's graph, times its set-up ``setup_reps`` times
(``make_engine`` and ``initialize_layout``; the last pair is the one that
runs), then runs the layout once with ``run(initial=...)``, stamping the end
of every iteration. Untraced units time the set-up ``setup_reps`` times more
at the end. Every timed set-up and every iteration is followed by a
reading of the host gauge (``calibrate.py``), so each interval has a gauge
reading on either side; the gauge's own time is outside every interval. The peak resident set is reset just before the run
and read just after it, before the quality evaluation, so neither graph
construction nor ``tail_pair_stress`` can hide the run's own peak. With
``--traced`` the layer entry points are wrapped first (see ``layers.py``)
and the per-layer metrics are reported; the gauge's time is taken out of
the loop time they reconcile against.

Prints one JSON object as the last line of standard output. Exits 1 after
printing ``{"error": ...}`` when the unit raises.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from calibrate import HostGauge  # noqa: E402
from workloads import WORKLOADS, derive_seed  # noqa: E402

#: Extra one-iteration shm runs per unit that sample the parallel set-up.
PARALLEL_SETUP_PROBES = 12


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current RSS (Linux ``clear_refs``).

    Where the reset is refused the peak also covers the set-up before it.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb(workers: int) -> float:
    """Peak RSS since the last reset, plus the shm workers' peaks.

    Each worker is counted at the largest reaped worker's peak (the kernel
    reports the maximum over children, not each one); pages a worker shares
    with its parent are counted in both, so the shm figure is an upper bound.
    """
    with open("/proc/self/status") as fh:
        own_kib = next(int(line.split()[1]) for line in fh
                       if line.startswith("VmHWM:"))
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kib + workers * child_kib) / 1024.0


def run_unit(name: str, seed: int, traced: bool, work_dir: str) -> dict:
    import numpy as np

    from repro.core.api import make_engine
    from repro.core.layout import initialize_layout
    from repro.metrics.sampled_stress import tail_pair_stress

    workload = WORKLOADS[name]
    graph = workload.build_graph()
    params = workload.layout_params(seed)
    gauge = HostGauge()
    engine_s, init_s, setup_slowdown = [], [], []
    last_ref = [gauge.sample()]

    def slowdown_since_last_reading():
        """Host slowdown over the interval that ends now: the mean of the
        gauge readings on either side of it."""
        ref = gauge.sample()
        mean = 0.5 * (last_ref[0] + ref)
        last_ref[0] = ref
        return gauge.slowdown(mean)

    def set_up():
        t0 = time.perf_counter()
        engine = make_engine(graph, workload.engine, params)
        t1 = time.perf_counter()
        initial = initialize_layout(graph, seed=params.seed,
                                    data_layout=engine.data_layout())
        t2 = time.perf_counter()
        engine_s.append(t1 - t0)
        init_s.append(t2 - t1)
        setup_slowdown.append(slowdown_since_last_reading())
        return engine, initial

    for _ in range(workload.setup_reps):
        engine, initial = set_up()
    plan = engine.batch_plan(params.steps_per_iteration(graph.total_steps))
    out = {
        "workload": name,
        "seed": seed,
        "engine_ms": min(engine_s) * 1e3,
        "init_layout_ms": min(init_s) * 1e3,
        "planned_terms": params.iter_max * sum(plan),
        "planned_segments": params.iter_max * len(plan),
        "iterations": params.iter_max,
    }
    recorder = None
    # Iteration i runs from starts[i] to stamps[i]; the gauge is read in
    # between.
    starts, stamps, iter_terms, iter_slowdown = [], [], [], []
    worker_dir = None

    def on_progress(done, total, stats):
        stamps.append(time.perf_counter())
        iter_terms.append(stats["terms"])
        iter_slowdown.append(slowdown_since_last_reading())
        starts.append(time.perf_counter())

    engine.on_progress = on_progress
    if traced:
        recorder = layers.Recorder()
        if workload.parallel:
            worker_dir = os.path.join(work_dir, f"workers-{os.getpid()}")
            os.makedirs(worker_dir)
        layers.install(recorder, worker_dir)
    else:
        reset_peak_rss()
    last_ref[0] = gauge.sample()
    pre_run_slowdown = gauge.slowdown(last_ref[0])
    t0 = time.perf_counter()
    result = engine.run(initial=initial)
    wall = time.perf_counter() - t0
    summary = result.summary()
    if not traced:
        out["peak_rss_mb"] = peak_rss_mb(summary["effective_workers"]
                                         if workload.parallel else 0)
    parallel_setup = result.counters.get("parallel_setup_s", 0.0)
    pauses = [b - a for a, b in zip(stamps, starts)]
    # The first iteration starts at the end of the shm workers' set-up, or
    # at the run() call.
    starts = [t0 + parallel_setup] + starts[:-1]
    coords = result.layout.coords
    out.update({
        "parallel_setup_samples": [(parallel_setup, pre_run_slowdown)],
        "iter_s": [b - a for a, b in zip(starts, stamps)],
        "iter_terms": iter_terms,
        "iter_slowdown": iter_slowdown,
        "wall_terms_per_s": result.total_terms
        / (wall - parallel_setup - sum(pauses)),
        "total_terms": result.total_terms,
        "finite": bool(np.isfinite(coords).all()),
        "digest": hashlib.sha256(coords.tobytes()).hexdigest(),
        "collisions": int(summary["point_collisions"]),
        "fused_chunks": int(summary["fused_chunks"]),
        "worker_failures": summary["worker_failures"],
        "degraded": summary["degraded"],
    })
    quality_graph = workload.quality_graph(graph, seed)
    out["tail_stress"] = tail_pair_stress(
        result.layout, quality_graph,
        samples_per_step=workload.quality_samples_per_step,
        seed=derive_seed(seed, "quality-pairs"))
    if not traced:
        # As many set-up samples again at the end of the unit, after the
        # peak has been read: the host's slow spells last seconds, so
        # samples far apart in time are less likely all to fall in one.
        last_ref[0] = gauge.sample()
        for _ in range(workload.setup_reps):
            set_up()
        if workload.parallel:
            # More samples of the workers' spawn-to-ready time: the same
            # plan on one-iteration runs.
            probe_params = replace(params, iter_max=1)
            for _ in range(PARALLEL_SETUP_PROBES):
                probe = make_engine(graph, workload.engine, probe_params)
                probe_run = probe.run(initial=initial)
                out["parallel_setup_samples"].append(
                    (probe_run.counters["parallel_setup_s"],
                     slowdown_since_last_reading()))
    out["setup_samples"] = [(a + b, k) for a, b, k
                            in zip(engine_s, init_s, setup_slowdown)]
    if traced:
        workers = []
        if worker_dir:
            workers = layers.load_worker_aggregates(worker_dir)
            shutil.rmtree(worker_dir)
            if not workers:
                raise RuntimeError("no shm worker wrote its span file")
        out["layers"] = layers.layer_metrics(
            recorder.to_dict(), workers, t0, stamps, sum(pauses[:-1]),
            result.total_terms, params.iter_max, summary["point_collisions"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--work-dir", default=".")
    args = parser.parse_args(argv)
    try:
        out = run_unit(args.workload, args.seed, args.traced, args.work_dir)
    except Exception as exc:  # reported to the orchestrator as a failed unit
        traceback.print_exc()
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
