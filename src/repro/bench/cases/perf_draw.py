"""CI smoke case gating the jump-ahead megablock fill.

``perf_draw_block`` fills one Chr.1-like default-params iteration's uniform
megablock (64 streams × 31,432 calls) twice from the same state: with
:meth:`~repro.prng.xoshiro.Xoshiro256Plus.next_double_block`, which jumps
lanes of the streams ahead and steps them side by side, and with the
stepwise reference fill. It gates three things:

* **byte-identity** — the output block and the final state of both fills
  are equal, asserted before anything is recorded.
* **sequential steps** — ``draw_sequential_steps_per_kcall`` counts the
  Python-level state steps per 1,000 calls (lane length + jumps + tail,
  derived from :func:`~repro.prng.xoshiro.lane_split`). It is deterministic and
  machine-independent: a fill that falls back to stepping reads 1,000 and
  fails the gate on every machine.
* **wall-time ratio** — blocked over stepwise fill time, floored at
  :data:`_RATIO_FLOOR` like the other ``*_guard`` metrics, so noise around
  the healthy value never moves the gated number while losing the speed-up
  trips it everywhere (dimensionless, so never downgraded across machines).
"""
from __future__ import annotations

import time

import numpy as np

from ...prng.xoshiro import Xoshiro256Plus, lane_split, stepwise_double_block
from ..registry import CaseResult, bench_case
from ..tables import format_table

#: One Chr.1-like (``chr1_like(scale=0.1)``) iteration at default params:
#: 3,929 segments × 8 calls of the engine's 64 streams.
_STREAMS = 64
_CALLS = 31_432

#: Floor of the gated blocked/stepwise ratio. Healthy fills measure
#: 0.08-0.10x (2-core Xeon, NumPy 2.4); the 10% compare threshold trips
#: past 0.33x, i.e. once the blocked fill is less than 3x cheaper than
#: stepping.
_RATIO_FLOOR = 0.3

#: Timed repeats per fill; the minimum is kept.
_REPEATS = 3


def _sequential_steps(n_streams: int, n_calls: int) -> int:
    """Sequential steps of one fill: ``n_calls`` stepwise; with lanes, the
    lane length plus one vectorised jump per doubling plus the stepwise tail."""
    lanes, lane_calls = lane_split(n_streams, n_calls)
    if lanes == 1:
        return n_calls
    return lane_calls + (lanes - 1).bit_length() + n_calls - lanes * lane_calls


def _best_s(fill) -> float:
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        fill()
        best = min(best, time.perf_counter() - t0)
    return best


@bench_case("perf_draw_block", source="Sec. V coalesced random states (draw layer)",
            suites=("smoke",))
def run_draw_block(ctx) -> CaseResult:
    """The blocked megablock fill must equal stepping, in far fewer steps."""
    seed = ctx.seed_for("perf_draw_block/stream")
    blocked = Xoshiro256Plus(seed, n_streams=_STREAMS)
    stepped = Xoshiro256Plus(seed, n_streams=_STREAMS)
    # Byte-identity first; this call also builds the jump maps, so the
    # timed blocked fills below run warm, as every iteration after the
    # first does.
    assert (blocked.next_double_block(_CALLS).tobytes()
            == stepwise_double_block(stepped, _CALLS).tobytes())
    assert np.array_equal(blocked.state, stepped.state)

    blocked_s = _best_s(lambda: blocked.next_double_block(_CALLS))
    stepwise_s = _best_s(lambda: stepwise_double_block(stepped, _CALLS))
    lanes, lane_calls = lane_split(_STREAMS, _CALLS)
    steps = _sequential_steps(_STREAMS, _CALLS)
    ratio = blocked_s / max(stepwise_s, 1e-12)

    out = CaseResult()
    out.add("draw_sequential_steps_per_kcall", steps * 1e3 / _CALLS,
            direction="lower")
    out.add("draw_lanes", float(lanes), direction="info")
    out.add("blocked_fill_ms", blocked_s * 1e3, unit="ms", direction="lower",
            deterministic=False)
    out.add("stepwise_fill_ms", stepwise_s * 1e3, unit="ms",
            direction="lower", deterministic=False)
    out.add("blocked_to_stepwise_ratio", ratio, unit="x", direction="info",
            deterministic=False)
    out.add("draw_block_guard", max(ratio, _RATIO_FLOOR), unit="x",
            direction="lower", deterministic=False)
    out.tables.append(format_table(
        ["Fill", "Sequential steps", "Wall (ms)"],
        [["stepwise", f"{_CALLS}", f"{stepwise_s * 1e3:.1f}"],
         [f"blocked ({lanes} lanes x {lane_calls})",
          f"{steps}", f"{blocked_s * 1e3:.1f}"]],
        title=f"Smoke: {_STREAMS} x {_CALLS} uniform megablock fill",
    ))
    return out
