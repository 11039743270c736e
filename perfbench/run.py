"""Layer-attributed layout benchmark: entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. ``--trace 0`` runs measured units
(``unit.py``, each in a fresh process) until ``--seconds`` have passed, and
reports the end-to-end metrics over all of them.
``--trace 1`` runs one untraced and one traced unit of the same seed and
reports the per-layer metrics, including the cost of the tracing itself.

Every unit's output is checked; a unit that raises or fails a check counts
as a failed operation. Byte-identity and exact counts are also checked across
invocations: the first run of a (workload, seed, source tree) records them
under ``.perfbench/`` in the checkout, and later runs must match.

Set-up and iteration times are reported at the nominal host speed: each
is scaled by readings of a reference kernel taken around it (calibrate.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without the program
source (``src/repro``) the benchmark exits 2 and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: Whole-invocation budget; the contract allows 180 s.
BUDGET_S = 170.0


def source_digest() -> str:
    """Hash of everything a recorded fact depends on: the program source,
    the benchmark's own files and the NumPy version. Recorded digests and
    counts never outlive any of them."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    try:
        h.update(importlib.metadata.version("numpy").encode())
    except importlib.metadata.PackageNotFoundError:
        h.update(b"numpy?")
    return h.hexdigest()[:16]


def host_rate(units: list, sensitivity: float) -> float:
    """Median over the units' iterations of terms per second, each scaled to
    the nominal host speed by the gauge readings around it (calibrate.py).

    Every iteration of one workload does the same planned work. The median
    ignores iterations during which the host changed state or stalled.
    """
    return statistics.median(
        n / s * k ** sensitivity for u in units
        for n, s, k in zip(u["iter_terms"], u["iter_s"], u["iter_slowdown"]))


def host_time(samples: list, sensitivity: float) -> float:
    """Median of timed samples, each scaled to the nominal host speed."""
    return statistics.median(s / k ** sensitivity for s, k in samples)


def run_unit(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One ``unit.py`` process; its last stdout line is its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "unit.py"),
           "--workload", workload, "--seed", str(seed),
           "--work-dir", STATE_DIR]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"unit timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"error": f"unit exited {proc.returncode} without a result"}
    if "error" in out:
        sys.stderr.write(proc.stderr)
    return out


def unit_problems(unit: dict) -> list:
    """Output checks every measured unit must pass."""
    if "error" in unit:
        return [unit["error"]]
    workload = WORKLOADS[unit["workload"]]
    problems = []
    if not unit["finite"]:
        problems.append("non-finite coordinates")
    if unit["total_terms"] != unit["planned_terms"]:
        problems.append(f"total_terms {unit['total_terms']} != planned "
                        f"{unit['planned_terms']}")
    lo, hi = workload.stress_band
    if not lo <= unit["tail_stress"] <= hi:
        problems.append(f"tail_stress {unit['tail_stress']:.5g} outside "
                        f"[{lo}, {hi}]")
    if workload.parallel:
        if unit["worker_failures"] or unit["degraded"]:
            problems.append("shm run lost a worker or degraded")
    return problems


class RepeatLedger:
    """Exact facts recorded per (workload, seed, source), checked on repeat."""

    def __init__(self) -> None:
        self.path = os.path.join(STATE_DIR, "ledger.json")
        self.source = source_digest()
        try:
            with open(self.path) as fh:
                self.entries = json.load(fh)
        except (OSError, json.JSONDecodeError):
            self.entries = {}

    def check(self, workload: str, seed: int, facts: dict) -> list:
        key = f"{workload}|{seed}|{self.source}"
        known = self.entries.setdefault(key, {})
        problems = []
        for name, value in facts.items():
            # The first record stands: a mismatch fails every later run too.
            first = known.setdefault(name, value)
            if first != value:
                problems.append(f"{name} {value!r} differs from an earlier "
                                f"run's {first!r}")
        return problems

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.entries, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def exact_facts(unit: dict, parallel: bool) -> dict:
    """What must repeat exactly for one seed: chunk counts always; on a
    single process also the collision count and the layout bytes."""
    facts = {"fused_chunks": unit["fused_chunks"]}
    if not parallel:
        facts.update(collisions=unit["collisions"], digest=unit["digest"])
    return facts


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, ledger) -> dict:
    parallel = WORKLOADS[workload].parallel
    sensitivity = WORKLOADS[workload].host_sensitivity
    min_units = WORKLOADS[workload].min_units
    start = time.perf_counter()
    attempted = failed = 0
    units = []  # every unit with finite output, failed checks included
    while True:
        elapsed = time.perf_counter() - start
        unit = run_unit(workload, seed, False, BUDGET_S - elapsed)
        attempted += 1
        problems = unit_problems(unit)
        if "error" not in unit and unit["finite"]:
            units.append(unit)
            problems += ledger.check(workload, seed,
                                     exact_facts(unit, parallel))
        if problems:
            failed += 1
            sys.stderr.write(f"{workload} seed {seed}: {problems}\n")
        elapsed = time.perf_counter() - start
        out_of_budget = elapsed + 1.5 * elapsed / attempted > BUDGET_S
        enough = elapsed >= seconds and attempted >= min_units
        if enough or out_of_budget:
            break
    if not units:
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}

    def med(key):
        return statistics.median(u[key] for u in units)

    def pooled(key):
        return [sample for u in units for sample in u[key]]

    setup_s = host_time(pooled("setup_samples"), sensitivity)
    if parallel:
        setup_s += host_time(pooled("parallel_setup_samples"), sensitivity)
    slowdown = statistics.median(pooled("iter_slowdown"))
    sys.stderr.write(f"{workload} seed {seed}: {len(units)} units, wall "
                     f"terms_per_s median {med('wall_terms_per_s'):.6g}, "
                     f"host slowdown median {slowdown:.4g}\n")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "terms_per_s": metric(host_rate(units, sensitivity), "1/s"),
            "setup_s": metric(setup_s, "s"),
            "tail_stress": metric(med("tail_stress"), "ratio"),
            "peak_rss_mb": metric(med("peak_rss_mb"), "MiB"),
        },
    }


def trace(workload: str, seed: int, ledger) -> dict:
    parallel = WORKLOADS[workload].parallel
    sensitivity = WORKLOADS[workload].host_sensitivity
    start = time.perf_counter()
    plain = run_unit(workload, seed, False, BUDGET_S / 2)
    traced = run_unit(workload, seed, True,
                      BUDGET_S - (time.perf_counter() - start))
    plain_problems = unit_problems(plain)
    if "error" not in plain:
        plain_problems += ledger.check(workload, seed,
                                       exact_facts(plain, parallel))
    problems = unit_problems(traced)
    if "error" not in traced:
        counts = traced["layers"]["counts"]
        problems += traced["layers"]["problems"]
        if counts["merge_calls"] != traced["planned_segments"]:
            problems.append(f"{counts['merge_calls']} merge calls, planned "
                            f"{traced['planned_segments']} segments")
        if counts["dispatch_calls"] != (traced["fused_chunks"]
                                        * traced["iterations"]):
            problems.append(f"{counts['dispatch_calls']} dispatches, "
                            f"fused_chunks counter {traced['fused_chunks']}")
        # Against the untraced unit of this seed, and earlier invocations.
        facts = exact_facts(traced, parallel)
        facts["merge_calls"] = counts["merge_calls"]
        problems += ledger.check(workload, seed, facts)
    failed = bool(plain_problems) + bool(problems)
    if failed:
        sys.stderr.write(f"{workload} seed {seed} traced: "
                         f"{plain_problems + problems}\n")
    metrics = {}
    if "error" not in plain and "error" not in traced:
        metrics = dict(traced["layers"]["metrics"])
        metrics["setup.engine_ms"] = metric(traced["engine_ms"], "ms")
        metrics["setup.init_layout_ms"] = metric(traced["init_layout_ms"],
                                                 "ms")
        metrics["obs.trace_overhead"] = metric(
            1.0 - host_rate([traced], sensitivity)
            / host_rate([plain], sensitivity),
            "ratio")
    return {"correct": failed == 0, "attempted": 2, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="layout benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(WORKLOADS)}\n")
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write("no program source at src/repro: run from the root "
                         "of a source checkout\n")
        return 2
    os.makedirs(STATE_DIR, exist_ok=True)
    ledger = RepeatLedger()
    if args.trace:
        result = trace(args.workload, args.seed, ledger)
    else:
        result = measure(args.workload, args.seed, args.seconds, ledger)
    ledger.save()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
