"""Vectorised Xoshiro256+ pseudo-random number generator.

``odgi-layout`` (the paper's CPU baseline) uses Xoshiro256+ (Blackman & Vigna,
2021), a linear-feedback-shift-register generator chosen for its very low
computational cost — a property the paper identifies as contributing to the
memory-bound nature of the layout workload (Sec. III-B): generating a random
number is far cheaper than the memory traffic it triggers.

This module implements Xoshiro256+ over an arbitrary number of parallel
streams (one per simulated CPU thread or GPU thread), with outputs identical
to the reference C implementation for any given state.

**Jump-ahead.** The state transition uses only xor, shift and rotate, all
linear over GF(2); the ``+`` touches the output, never the state. So the
state after ``k`` steps is ``A^k·s`` for one fixed 256×256 bit matrix ``A``
(built once by stepping the 256 unit states, see :mod:`repro.prng.gf2`).
:meth:`Xoshiro256Plus.next_double_block` uses this to fill narrow blocks
wide, the way the paper's GPU kernel gives every thread its own state
(coalesced random states, Sec. V): it jumps copies of the streams
``L, 2L, 3L, ...`` steps ahead and steps all of them together, which
yields exactly the words the sequential loop would. The jump maps
``A^(L·2^k)`` depend only on ``L`` and are cached per process on first use.
"""
from __future__ import annotations

import mmap
from collections import OrderedDict
from typing import Tuple

import numpy as np

from . import gf2
from .splitmix import seed_streams

__all__ = ["Xoshiro256Plus", "rotl64", "lane_split", "jump_map",
           "stepwise_double_block"]

_U64 = np.uint64


def rotl64(x: np.ndarray, k: int) -> np.ndarray:
    """Rotate ``uint64`` values left by ``k`` bits (vectorised)."""
    k = int(k) % 64
    if k == 0:
        return np.asarray(x, dtype=np.uint64).copy()
    x = np.asarray(x, dtype=np.uint64)
    return (x << _U64(k)) | (x >> _U64(64 - k))


class Xoshiro256Plus:
    """Xoshiro256+ with ``n`` independent streams.

    Parameters
    ----------
    seed:
        Scalar seed expanded with SplitMix64, or a ``(n, 4)`` uint64 state
        array to resume from.
    n_streams:
        Number of independent streams when ``seed`` is scalar.

    Notes
    -----
    The state is stored as a ``(n, 4)`` array, i.e. an array-of-structs layout
    equivalent to one generator object per thread. The SoA/AoS distinction
    that matters for the paper's *coalesced random states* optimisation is
    modelled at the memory-layout level in :mod:`repro.prng.xorshift` and
    :mod:`repro.gpusim`; this class is the functional reference generator.
    """

    STATE_WORDS = 4

    def __init__(self, seed: int | np.ndarray = 0, n_streams: int = 1):
        if np.isscalar(seed):
            self.state = seed_streams(int(seed), n_streams, self.STATE_WORDS)
        else:
            arr = np.asarray(seed, dtype=np.uint64)
            if arr.ndim != 2 or arr.shape[1] != self.STATE_WORDS:
                raise ValueError("state array must have shape (n, 4)")
            if np.any(np.all(arr == 0, axis=1)):
                raise ValueError("xoshiro256+ state must not be all zero")
            self.state = arr.copy()

    @property
    def n_streams(self) -> int:
        """Number of independent streams."""
        return int(self.state.shape[0])

    def copy(self) -> "Xoshiro256Plus":
        """Return an independent copy (same state, separate evolution)."""
        return Xoshiro256Plus(self.state)

    def next_uint64(self) -> np.ndarray:
        """Advance every stream one step and return the 64-bit outputs."""
        s = self.state
        with np.errstate(over="ignore"):
            result = s[:, 0] + s[:, 3]
            t = s[:, 1] << _U64(17)
            s[:, 2] ^= s[:, 0]
            s[:, 3] ^= s[:, 1]
            s[:, 1] ^= s[:, 2]
            s[:, 0] ^= s[:, 3]
            s[:, 2] ^= t
            s[:, 3] = rotl64(s[:, 3], 45)
        return result

    def next_double(self) -> np.ndarray:
        """One double in [0, 1) per stream (53-bit mantissa, like the C code)."""
        return (self.next_uint64() >> _U64(11)).astype(np.float64) * (2.0 ** -53)

    def next_double_block(self, n_calls: int) -> np.ndarray:
        """``n_calls`` consecutive :meth:`next_double` outputs as one block.

        Returns a ``(n_calls, n_streams)`` float64 array whose row ``c`` is
        byte-identical to the ``c``-th :meth:`next_double` call, and advances
        every stream exactly ``n_calls`` times — the bulk draw and the
        call-at-a-time draw are interchangeable mid-stream. This is the
        megablock fill of the fused iteration path and the backing store of
        the sampler's bulk uniforms.

        Narrow blocks are filled wide by jump-ahead (see the module notes):
        :func:`lane_split` cuts the calls into ``S`` lanes of ``L``; lane
        ``j`` starts from ``A^(jL)·s``, built by doubling from the cached
        jump maps; then all ``S · n_streams`` lane-streams step together
        ``L`` times, each step written straight into the output viewed as
        ``(S, L, n_streams)``. The ``n_calls - S·L < S`` calls left over
        continue stepwise from the last lane, whose end state is the final
        state. Wide or short blocks (``S == 1``) take the stepwise loop
        alone. Either way the output words and the final state are those of
        ``n_calls`` single steps.
        """
        n_calls = int(n_calls)
        if n_calls < 0:
            raise ValueError("n_calls must be >= 0")
        n = self.n_streams
        lanes, lane_calls = lane_split(n, n_calls)
        if lanes == 1:
            return stepwise_double_block(self, n_calls)
        # Fetch (the first time, build) the jump maps before the fill
        # allocates anything, so the build's transient tables are freed
        # back into an otherwise untouched heap.
        jumps = _lane_jumps(lane_calls, (lanes - 1).bit_length())
        out = np.empty((n_calls, n), dtype=np.float64)
        spread = lanes * lane_calls
        words = _lane_starts(self.state, lanes, jumps)
        _step_fill(words, out[:spread].reshape(lanes, lane_calls, n)
                   .transpose(1, 0, 2))
        self.state[:] = words[-n:]
        _step_fill(self.state, out[spread:])
        out *= 2.0 ** -53
        return out

    def next_bool(self) -> np.ndarray:
        """One boolean coin flip per stream (top bit of the output)."""
        return (self.next_uint64() >> _U64(63)).astype(bool)

    def next_below(self, bound: int | np.ndarray) -> np.ndarray:
        """One integer in [0, bound) per stream.

        Uses the multiply-shift reduction (Lemire) which is what fast layout
        codes use in practice; bias is negligible for the bounds involved
        (graph/path sizes far below 2^32).
        """
        bound_arr = np.asarray(bound, dtype=np.uint64)
        if np.any(bound_arr == 0):
            raise ValueError("bound must be positive")
        x = self.next_uint64() >> _U64(32)
        with np.errstate(over="ignore"):
            return ((x * bound_arr) >> _U64(32)).astype(np.int64)

    def jump_streams(self, n_extra: int, seed: int = 1) -> "Xoshiro256Plus":
        """Return a generator with ``n_extra`` additional decorrelated streams."""
        extra = seed_streams(seed, n_extra, self.STATE_WORDS)
        return Xoshiro256Plus(np.vstack([self.state, extra]))


#: Lane-streams the jump-ahead fill steps at once: the fastest of 1,024 to
#: 16,384 on the Chr.1-like megablock (64 streams; 2-core Xeon, 25.6 ms
#: against 28-33 ms for the others).
LANE_WIDTH_TARGET = 2048

#: Shortest lane worth jumping to: below it the doubling jumps (and, the
#: first time a lane length is seen, its jump maps) cost more than the
#: sequential steps they save.
MIN_LANE_CALLS = 256

#: Lane lengths whose jump maps stay cached (least recently used evicted).
_LANE_CACHE_SIZE = 4

# Per-process cache of seed-free constants, filled on first use: lane length
# ``L`` -> read-only ``(levels, 256, 4)`` array of ``A^L, A^(2L), A^(4L), ...``
# (8 KiB per map). Each entry is a pure function of its key, so sharing it
# between generators cannot change a result. Entries live in their own
# anonymous mappings, outside the malloc heap, and are built before the
# fill allocates anything: built on the heap, between the fill's own
# arrays, they pinned freed heap above them, and each shm worker's peak
# RSS rose by 5-7 MiB.
_LANE_JUMPS: "OrderedDict[int, np.ndarray]" = OrderedDict()


def lane_split(n_streams: int, n_calls: int) -> Tuple[int, int]:
    """``(lanes, lane_calls)`` for a ``next_double_block`` fill.

    ``lanes`` is how many jumped copies of the streams step side by side
    (enough to reach :data:`LANE_WIDTH_TARGET` lane-streams, never a lane
    shorter than :data:`MIN_LANE_CALLS`) and ``lane_calls = n_calls //
    lanes``. ``lanes == 1`` means the plain stepwise fill.
    """
    lanes = min(LANE_WIDTH_TARGET // max(int(n_streams), 1),
                int(n_calls) // MIN_LANE_CALLS)
    if lanes < 2:
        return 1, int(n_calls)
    return lanes, int(n_calls) // lanes


def stepwise_double_block(gen: Xoshiro256Plus, n_calls: int) -> np.ndarray:
    """``gen.next_double_block(n_calls)`` without jump-ahead: one sequential
    step per call at the generator's own width. It is the fill for a single
    lane, and the reference the blocked fill is checked and timed against."""
    out = np.empty((int(n_calls), gen.n_streams), dtype=np.float64)
    _step_fill(gen.state, out)
    out *= 2.0 ** -53
    return out


def jump_map(n_steps: int) -> np.ndarray:
    """The packed map ``A^n_steps``: ``n_steps`` generator steps at once.

    ``A`` comes from stepping the 256 unit states once; the power is taken
    by square-and-multiply. ``jump_map(0)`` is the identity.
    """
    n_steps = int(n_steps)
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    result = gf2.unit_states()
    power = Xoshiro256Plus(gf2.unit_states())
    power.next_uint64()
    power = power.state
    for i in range(n_steps.bit_length()):
        if i:
            power = gf2.apply(power, power)
        if n_steps >> i & 1:
            result = gf2.apply(power, result)
    return result


def _lane_jumps(lane_calls: int, levels: int) -> np.ndarray:
    """``[A^L, A^(2L), ..., A^(2^(levels-1)·L)]`` for ``L = lane_calls``."""
    jumps = _LANE_JUMPS.pop(lane_calls, None)
    if jumps is None or len(jumps) < levels:
        while len(_LANE_JUMPS) >= _LANE_CACHE_SIZE:
            _LANE_JUMPS.popitem(last=False)
        jumps = np.frombuffer(mmap.mmap(-1, levels * gf2.STATE_BITS * 32),
                              dtype=np.uint64).reshape(levels, gf2.STATE_BITS, 4)
        jumps[0] = jump_map(lane_calls)
        for k in range(1, levels):
            gf2.apply(jumps[k - 1], jumps[k - 1], out=jumps[k])
        jumps.flags.writeable = False
    _LANE_JUMPS[lane_calls] = jumps
    return jumps


def _lane_starts(state: np.ndarray, lanes: int, jumps: np.ndarray) -> np.ndarray:
    """``(lanes · n, 4)`` start states: rows ``[j·n, (j+1)·n)`` hold
    ``A^(j·L)·state``, built by doubling (lanes ``[h, 2h)`` are ``A^(h·L)``
    applied to lanes ``[0, h)``) from ``jumps = _lane_jumps(L, ...)``."""
    n = state.shape[0]
    starts = np.empty((lanes, n, 4), dtype=np.uint64)
    starts[0] = state
    h = 1
    for jump in jumps:
        if h >= lanes:
            break
        m = min(h, lanes - h)
        gf2.apply(jump, starts[:m].reshape(m * n, 4),
                  out=starts[h:h + m].reshape(m * n, 4))
        h *= 2
    return starts.reshape(lanes * n, 4)


def _step_fill(state: np.ndarray, dest: np.ndarray) -> None:
    """Step the ``(w, 4)`` ``state`` in place ``len(dest)`` times, writing
    step ``c``'s output ``>> 11`` (as float64, unscaled) into ``dest[c]``.

    ``dest[c]`` holds ``w`` values in any shape (a row of the block, or one
    row of every lane). The loop works on contiguous per-word columns with
    two preallocated temporaries and ``out=`` ufunc calls throughout, so its
    body allocates nothing and never steps a strided view.
    """
    n_steps = dest.shape[0]
    if n_steps == 0:
        return
    s0 = np.ascontiguousarray(state[:, 0])
    s1 = np.ascontiguousarray(state[:, 1])
    s2 = np.ascontiguousarray(state[:, 2])
    s3 = np.ascontiguousarray(state[:, 3])
    t = np.empty_like(s0)
    r = np.empty_like(s0)
    src = r.reshape(dest.shape[1:])
    k11, k17, k45, k19 = _U64(11), _U64(17), _U64(45), _U64(19)
    with np.errstate(over="ignore"):
        for c in range(n_steps):
            np.add(s0, s3, out=r)
            np.right_shift(r, k11, out=r)
            np.copyto(dest[c], src)  # uint64 -> float64, same as astype
            np.left_shift(s1, k17, out=t)
            np.bitwise_xor(s2, s0, out=s2)
            np.bitwise_xor(s3, s1, out=s3)
            np.bitwise_xor(s1, s2, out=s1)
            np.bitwise_xor(s0, s3, out=s0)
            np.bitwise_xor(s2, t, out=s2)
            # rotl64(s3, 45) inlined: << 45 | >> (64 - 45).
            np.left_shift(s3, k45, out=r)
            np.right_shift(s3, k19, out=s3)
            np.bitwise_or(r, s3, out=s3)
    state[:, 0] = s0
    state[:, 1] = s1
    state[:, 2] = s2
    state[:, 3] = s3


def reference_scalar_next(state: np.ndarray) -> tuple[np.ndarray, int]:
    """Scalar reference step used by the test-suite to cross-check vectorisation.

    Takes a length-4 uint64 state, returns (new_state, output).
    """
    s = np.asarray(state, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):
        result = int(s[0] + s[3])
        t = np.uint64(int(s[1]) << 17 & 0xFFFFFFFFFFFFFFFF)
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl64(s[3:4], 45)[0]
    return s, result & 0xFFFFFFFFFFFFFFFF
