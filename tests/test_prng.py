"""Tests for the PRNG substrate (SplitMix64, Xoshiro256+, XORWOW)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.prng import (
    AOS,
    SOA,
    SplitMix64,
    Xoshiro256Plus,
    XorwowState,
    rotl64,
    seed_streams,
    splitmix64_next,
    state_addresses,
)
from repro.prng import gf2, xoshiro
from repro.prng.xoshiro import (
    MIN_LANE_CALLS,
    jump_map,
    lane_split,
    reference_scalar_next,
)


class TestSplitMix64:
    def test_known_first_output(self):
        # Reference value for seed 0 from the SplitMix64 reference code.
        sm = SplitMix64(0, 1)
        assert int(sm.next_uint64()[0]) == 0xE220A8397B1DCDAF

    def test_streams_are_distinct(self):
        sm = SplitMix64(42, 8)
        out = sm.next_uint64()
        assert len(np.unique(out)) == 8

    def test_next_double_in_unit_interval(self):
        sm = SplitMix64(7, 100)
        for _ in range(10):
            d = sm.next_double()
            assert np.all(d >= 0.0) and np.all(d < 1.0)

    def test_state_array_constructor_rejects_mismatched_n(self):
        with pytest.raises(ValueError):
            SplitMix64(np.arange(4, dtype=np.uint64), n=8)

    def test_splitmix64_next_does_not_mutate_input(self):
        state = np.array([5], dtype=np.uint64)
        before = state.copy()
        splitmix64_next(state)
        assert np.array_equal(state, before)


class TestSeedStreams:
    def test_shape_and_no_zero_words(self):
        words = seed_streams(0, 16, 4)
        assert words.shape == (16, 4)
        assert not np.any(words == 0)

    def test_deterministic(self):
        assert np.array_equal(seed_streams(9, 4), seed_streams(9, 4))

    def test_different_seeds_differ(self):
        assert not np.array_equal(seed_streams(1, 4), seed_streams(2, 4))

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_nonpositive_stream_count(self, bad):
        with pytest.raises(ValueError):
            seed_streams(0, bad)


class TestRotl:
    def test_rotl_matches_python(self):
        x = np.array([0x0123456789ABCDEF], dtype=np.uint64)
        k = 13
        expected = ((0x0123456789ABCDEF << k) | (0x0123456789ABCDEF >> (64 - k))) & (2**64 - 1)
        assert int(rotl64(x, k)[0]) == expected

    def test_rotl_zero_is_identity(self):
        x = np.array([12345], dtype=np.uint64)
        assert int(rotl64(x, 0)[0]) == 12345

    def test_rotl_64_is_identity(self):
        x = np.array([987654321], dtype=np.uint64)
        assert int(rotl64(x, 64)[0]) == 987654321


class TestXoshiro256Plus:
    def test_vectorised_matches_scalar_reference(self):
        gen = Xoshiro256Plus(3, n_streams=5)
        states_before = gen.state.copy()
        outputs = gen.next_uint64()
        for s in range(5):
            new_state, out = reference_scalar_next(states_before[s])
            assert int(outputs[s]) == out
            assert np.array_equal(gen.state[s], new_state)

    def test_streams_decorrelated(self):
        gen = Xoshiro256Plus(0, n_streams=64)
        draws = np.stack([gen.next_double() for _ in range(50)])
        # Correlation between adjacent streams should be small.
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) < 0.5

    def test_next_double_bounds(self):
        gen = Xoshiro256Plus(11, n_streams=128)
        for _ in range(20):
            d = gen.next_double()
            assert np.all((d >= 0.0) & (d < 1.0))

    def test_next_below_respects_bound(self):
        gen = Xoshiro256Plus(5, n_streams=256)
        vals = gen.next_below(17)
        assert np.all((vals >= 0) & (vals < 17))

    def test_next_below_rejects_zero_bound(self):
        gen = Xoshiro256Plus(5, n_streams=4)
        with pytest.raises(ValueError):
            gen.next_below(0)

    def test_next_double_block_matches_repeated_calls(self):
        # The bulk fill is byte-identical to stacking next_double() outputs
        # and leaves the state exactly n_calls steps ahead — the fused
        # megabatch draw and the per-call draw are interchangeable.
        for n_streams in (1, 3, 64):
            bulk = Xoshiro256Plus(99, n_streams=n_streams)
            loop = Xoshiro256Plus(99, n_streams=n_streams)
            block = bulk.next_double_block(23)
            assert block.shape == (23, n_streams)
            expected = np.vstack([loop.next_double() for _ in range(23)])
            np.testing.assert_array_equal(block, expected)
            np.testing.assert_array_equal(bulk.state, loop.state)

    def test_next_double_block_resumes_mid_stream(self):
        bulk = Xoshiro256Plus(5, n_streams=8)
        loop = Xoshiro256Plus(5, n_streams=8)
        bulk.next_double_block(3)
        for _ in range(3):
            loop.next_double()
        np.testing.assert_array_equal(bulk.next_double(), loop.next_double())

    def test_next_double_block_edge_sizes(self):
        rng = Xoshiro256Plus(1, n_streams=4)
        before = rng.state.copy()
        assert rng.next_double_block(0).shape == (0, 4)
        np.testing.assert_array_equal(rng.state, before)
        with pytest.raises(ValueError):
            rng.next_double_block(-1)

    def test_copy_is_independent(self):
        gen = Xoshiro256Plus(2, n_streams=3)
        clone = gen.copy()
        a = gen.next_uint64()
        b = clone.next_uint64()
        assert np.array_equal(a, b)
        gen.next_uint64()
        assert not np.array_equal(gen.state, clone.state)

    def test_rejects_all_zero_state(self):
        with pytest.raises(ValueError):
            Xoshiro256Plus(np.zeros((1, 4), dtype=np.uint64))

    def test_jump_streams_extends(self):
        gen = Xoshiro256Plus(0, n_streams=2)
        bigger = gen.jump_streams(3)
        assert bigger.n_streams == 5

    def test_deterministic_given_seed(self):
        a = Xoshiro256Plus(99, n_streams=8)
        b = Xoshiro256Plus(99, n_streams=8)
        assert np.array_equal(a.next_uint64(), b.next_uint64())

    def test_coin_flip_balanced(self):
        gen = Xoshiro256Plus(1, n_streams=2048)
        flips = gen.next_bool()
        frac = flips.mean()
        assert 0.4 < frac < 0.6


def _stacked_doubles(seed, n_streams, n_calls):
    """The call-at-a-time reference: ``n_calls`` stacked next_double() rows."""
    gen = Xoshiro256Plus(seed, n_streams=n_streams)
    rows = [gen.next_double() for _ in range(n_calls)]
    block = (np.vstack(rows) if rows
             else np.empty((0, n_streams), dtype=np.float64))
    return block, gen.state


#: Call counts around the lane split: no split just below 2·MIN_LANE_CALLS,
#: two exact lanes at it, a one-call tail just above, primes in between.
_LANE_CALLS = (0, 1, 2 * MIN_LANE_CALLS - 1, 2 * MIN_LANE_CALLS,
               2 * MIN_LANE_CALLS + 1, 1021, 2053)


class TestJumpAheadFill:
    @pytest.mark.parametrize("n_streams", (1, 3, 64, 4096))
    @pytest.mark.parametrize("n_calls", _LANE_CALLS)
    def test_fill_equals_stacked_calls(self, n_streams, n_calls):
        expected, end_state = _stacked_doubles(17, n_streams, n_calls)
        gen = Xoshiro256Plus(17, n_streams=n_streams)
        block = gen.next_double_block(n_calls)
        assert block.shape == (n_calls, n_streams)
        assert block.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(gen.state, end_state)

    @pytest.mark.parametrize("n_streams", (1, 64))
    @pytest.mark.parametrize("a,b", [(1, 600), (2 * MIN_LANE_CALLS - 1, 513),
                                     (700, 1), (1021, 2053)])
    def test_mid_stream_split_equals_one_block(self, n_streams, a, b):
        split = Xoshiro256Plus(23, n_streams=n_streams)
        parts = np.vstack([split.next_double_block(a),
                           split.next_double_block(b)])
        whole = Xoshiro256Plus(23, n_streams=n_streams)
        assert parts.tobytes() == whole.next_double_block(a + b).tobytes()
        np.testing.assert_array_equal(split.state, whole.state)
        expected, end_state = _stacked_doubles(23, n_streams, a + b)
        assert parts.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(split.state, end_state)

    def test_chr1_sized_megablock_is_byte_identical(self):
        # One Chr.1-like default-params iteration: 64 streams x 31,432 calls.
        assert lane_split(64, 31_432) == (32, 982)
        expected, end_state = _stacked_doubles(5, 64, 31_432)
        gen = Xoshiro256Plus(5, n_streams=64)
        assert gen.next_double_block(31_432).tobytes() == expected.tobytes()
        np.testing.assert_array_equal(gen.state, end_state)

    def test_lane_split_keeps_wide_and_short_blocks_stepwise(self):
        assert lane_split(4096, 344) == (1, 344)  # already wide
        assert lane_split(2048, 10_000) == (1, 10_000)
        assert lane_split(64, 2 * MIN_LANE_CALLS - 1) == (1, 511)  # too short
        assert lane_split(64, 7) == (1, 7)
        lanes, lane_calls = lane_split(1, 5_000)
        assert lanes >= 2 and lane_calls >= MIN_LANE_CALLS
        assert lanes * lane_calls <= 5_000 < lanes * (lane_calls + 1)

    def test_transition_map_matches_scalar_reference(self):
        states = Xoshiro256Plus(41, n_streams=33).state
        stepped = gf2.apply(jump_map(1), states)
        for row, state in zip(stepped, states):
            np.testing.assert_array_equal(row, reference_scalar_next(state)[0])

    def test_jump_map_equals_repeated_steps(self):
        gen = Xoshiro256Plus(8, n_streams=5)
        start = gen.state.copy()
        for _ in range(300):
            gen.next_uint64()
        np.testing.assert_array_equal(gf2.apply(jump_map(300), start),
                                      gen.state)

    @pytest.mark.parametrize("a,b", [(0, 7), (3, 5), (982, 982),
                                     (1000, 24), (12_345, 678)])
    def test_jump_maps_compose(self, a, b):
        np.testing.assert_array_equal(gf2.apply(jump_map(a), jump_map(b)),
                                      jump_map(a + b))

    def test_jump_map_zero_is_identity(self):
        np.testing.assert_array_equal(jump_map(0), gf2.unit_states())
        with pytest.raises(ValueError):
            jump_map(-1)

    def test_transient_memory_bounded(self):
        import tracemalloc

        # Cold caches: the bound covers building the jump maps too.
        xoshiro._LANE_JUMPS.clear()
        gen = Xoshiro256Plus(3, n_streams=64)
        tracemalloc.start()
        try:
            for _ in range(2):  # cold, then warm
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                block = gen.next_double_block(31_432)
                peak = tracemalloc.get_traced_memory()[1]
                assert peak - base - block.nbytes <= 1 << 20
                del block
        finally:
            tracemalloc.stop()


class TestXorwow:
    def test_layouts_produce_identical_outputs(self):
        aos = XorwowState(seed=4, n_streams=64, layout=AOS)
        soa = XorwowState(seed=4, n_streams=64, layout=SOA)
        for _ in range(5):
            assert np.array_equal(aos.next_uint32(), soa.next_uint32())

    def test_next_float_bounds(self):
        gen = XorwowState(seed=1, n_streams=32)
        f = gen.next_float()
        assert np.all((f >= 0.0) & (f < 1.0))

    def test_next_below(self):
        gen = XorwowState(seed=1, n_streams=128)
        v = gen.next_below(10)
        assert np.all((v >= 0) & (v < 10))

    def test_as_layout_round_trip(self):
        gen = XorwowState(seed=3, n_streams=16, layout=AOS)
        converted = gen.as_layout(SOA)
        assert converted.layout == SOA
        assert np.array_equal(gen.next_uint32(), converted.next_uint32())

    def test_invalid_layout_rejected(self):
        with pytest.raises(ValueError):
            XorwowState(seed=0, n_streams=2, layout="bogus")

    def test_state_bytes(self):
        gen = XorwowState(seed=0, n_streams=100)
        assert gen.state_bytes == 100 * 6 * 4

    def test_output_not_constant(self):
        gen = XorwowState(seed=0, n_streams=4)
        outs = [gen.next_uint32() for _ in range(4)]
        assert len({int(o[0]) for o in outs}) > 1


class TestStateAddresses:
    def test_aos_addresses_are_strided(self):
        addrs = state_addresses(32, field=1, layout=AOS)
        assert np.all(np.diff(addrs) == 24)

    def test_soa_addresses_are_contiguous(self):
        addrs = state_addresses(32, field=1, layout=SOA)
        assert np.all(np.diff(addrs) == 4)

    def test_soa_fewer_sectors_than_aos(self):
        from repro.gpusim import sectors_for_request

        aos = sectors_for_request(state_addresses(32, 0, AOS), access_bytes=4)
        soa = sectors_for_request(state_addresses(32, 0, SOA), access_bytes=4)
        assert soa < aos
        assert soa == 4  # 32 threads x 4 bytes / 32-byte sectors

    def test_field_out_of_range(self):
        with pytest.raises(ValueError):
            state_addresses(32, field=6)

    def test_invalid_layout(self):
        with pytest.raises(ValueError):
            state_addresses(32, field=0, layout="xxx")
