"""The benchmark's workloads: one graph, one engine and one parameter set each.

Every workload takes the benchmark seed and derives the layout seed and the
quality-evaluation sample from it; the graphs are fixed dataset identities
from ``repro.synth``, so counts that depend only on the plan (segments,
chunks, merge calls) are identical across seeds. All four run the NumPy
backend on the fused path. README.md in this directory records why each
workload exists and what it is predicted to show.

This module imports nothing from ``repro`` at import time, so the
orchestrator (``run.py``) can read the workload table without loading the
program.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Tuple

MIB = 1024 * 1024


def derive_seed(seed: int, tag: str) -> int:
    """A 31-bit seed derived from the benchmark seed and a purpose tag."""
    digest = hashlib.sha256(f"{int(seed)}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str
    """``chr1`` (``chr1_like(scale=0.1)``) or ``scale`` (``scale_graph()``)."""
    engine: str
    params: Dict[str, object] = field(default_factory=dict)
    """``LayoutParams`` overrides on top of the defaults (seed excluded)."""
    host_sensitivity: float = 1.0
    """Exponent of the host gauge's slowdown that this workload's work feels
    (``calibrate.py``), measured on the reference box from its iterations in
    the host's fast and slow states (README.md, "Host normalisation")."""
    setup_reps: int = 3
    """Set-up constructions per unit before the run, and as many again after
    it; ``setup_s`` takes their median at nominal host speed."""
    min_units: int = 1
    """Units a measured run makes even when ``--seconds`` have passed."""
    quality_paths: int = 0
    """Paths in the seed-derived evaluation subset (0 = the whole graph)."""
    quality_samples_per_step: int = 10
    stress_band: Tuple[float, float] = (0.0, float("inf"))
    """Accepted ``tail_stress`` range; outside it the unit fails."""

    @property
    def parallel(self) -> bool:
        return self.engine == "shm"

    def layout_params(self, seed: int):
        from repro.core.params import LayoutParams

        return LayoutParams(seed=derive_seed(seed, "layout"), **self.params)

    def build_graph(self):
        from repro.synth import chr1_like, scale_graph

        if self.graph == "chr1":
            return chr1_like(scale=0.1)
        if self.graph == "scale":
            return scale_graph()
        raise ValueError(f"unknown graph {self.graph!r}")

    def quality_graph(self, graph, seed: int):
        """The graph ``tail_stress`` is evaluated on: all of it, or a fixed
        seed-derived path subset (node ids are kept, so the layout applies)."""
        if not self.quality_paths:
            return graph
        import numpy as np

        rng = np.random.default_rng(derive_seed(seed, "quality-paths"))
        picked = rng.choice(graph.n_paths, size=self.quality_paths,
                            replace=False)
        return graph.subset_paths(sorted(int(p) for p in picked))


_SCALE = {"steps_per_step_unit": 0.2, "memory_budget": 64 * MIB}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("chr1-default", "chr1", "cpu", {}, setup_reps=30,
             stress_band=(0.008, 0.03)),
    # Runs by hand only: its spread is too wide to gate (README.md).
    Workload("scale-r64", "scale", "cpu", dict(_SCALE, iter_max=2),
             quality_paths=1, quality_samples_per_step=2,
             stress_band=(0.0015, 0.007)),
    Workload("scale-wide", "scale", "cpu",
             dict(_SCALE, iter_max=8, simulated_threads=64),
             host_sensitivity=0.5, min_units=3, setup_reps=2,
             quality_paths=1, quality_samples_per_step=2,
             stress_band=(0.0003, 0.0012)),
    Workload("chr1-shm2", "chr1", "shm", {"workers": 2}, setup_reps=30,
             stress_band=(0.008, 0.03)),
)}
