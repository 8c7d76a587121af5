import numpy as np
import pytest

from crspectrum.channel import (
    ChannelParams,
    SuLocation,
    generate_multi,
    generate_trace,
    neighbors,
    place_users,
)


class TestChannelParams:
    def test_rejects_fractional_mean_interarrival(self):
        with pytest.raises(ValueError):
            ChannelParams(mean_interarrival=0.5, mean_holding=2.0)

    def test_rejects_nonpositive_holding(self):
        with pytest.raises(ValueError):
            ChannelParams(mean_interarrival=10.0, mean_holding=0.0)

    def test_always_idle_skips_mean_checks(self):
        p = ChannelParams.idle()
        assert p.always_idle


class TestGenerateTrace:
    def test_always_idle_all_zero(self):
        tr = generate_trace(ChannelParams.idle(), 5, seed=1234)
        np.testing.assert_array_equal(tr, [0, 0, 0, 0, 0])

    def test_zero_length(self):
        tr = generate_trace(ChannelParams(10.0, 10.0), 0, seed=7)
        assert tr.shape == (0,)

    def test_binary_values_and_length(self):
        tr = generate_trace(ChannelParams(3.0, 7.0), 2000, seed=42)
        assert tr.shape == (2000,) and tr.dtype == np.uint8
        assert set(np.unique(tr)) <= {0, 1}

    def test_determinism(self):
        p = ChannelParams(10.0, 10.0)
        a = generate_trace(p, 5000, seed=99)
        b = generate_trace(p, 5000, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_busy_fraction_balanced_load(self):
        # equal means -> steady state busy fraction 1/2; each of 100 seeds
        # must land within 0.5 +/- 0.05 at n=10000
        p = ChannelParams(10.0, 10.0)
        for seed in range(100):
            frac = generate_trace(p, 10000, seed=seed).mean()
            assert abs(frac - 0.5) < 0.05, f"seed {seed}: busy fraction {frac}"

    def test_busy_fraction_long_run(self):
        # occupancy mean_holding/(mean_holding+mean_interarrival) within 5%
        p = ChannelParams(mean_interarrival=4.0, mean_holding=12.0)
        frac = generate_trace(p, 200000, seed=5).mean()
        expect = 12.0 / 16.0
        assert abs(frac - expect) / expect < 0.05

    def test_mean_busy_run_length(self):
        # geometric holding: mean run length within 5% of mean_holding
        p = ChannelParams(mean_interarrival=10.0, mean_holding=6.0)
        states = generate_trace(p, 300000, seed=11)
        padded = np.concatenate([[0], states, [0]]).astype(np.int8)
        diffs = np.diff(padded)
        starts = np.flatnonzero(diffs == 1)
        ends = np.flatnonzero(diffs == -1)
        runs = ends - starts
        assert len(runs) > 1000
        assert abs(runs.mean() - 6.0) / 6.0 < 0.05


class TestGenerateMulti:
    def test_two_idle_channels(self):
        traces = generate_multi([ChannelParams.idle()] * 2, 3, seed=0)
        np.testing.assert_array_equal(traces, [[0, 0, 0], [0, 0, 0]])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            generate_multi([], 10, seed=0)

    def test_ten_channels_last_idle(self):
        params = [ChannelParams(10.0, 5.0) for _ in range(9)]
        params.append(ChannelParams.idle())
        traces = generate_multi(params, 1000, seed=3)
        assert traces.shape == (10, 1000) and traces.dtype == np.uint8
        assert traces[-1].sum() == 0
        assert all(traces[:9].sum(axis=1) > 0)

    def test_determinism(self):
        params = [ChannelParams(8.0, 4.0), ChannelParams(3.0, 9.0)]
        a = generate_multi(params, 2000, seed=77)
        b = generate_multi(params, 2000, seed=77)
        np.testing.assert_array_equal(a, b)

    def test_channels_independent_of_list_growth(self):
        # adding a channel must not perturb earlier channels' traces
        p = ChannelParams(6.0, 6.0)
        short = generate_multi([p, p], 500, seed=21)
        longer = generate_multi([p, p, p], 500, seed=21)
        np.testing.assert_array_equal(short, longer[:2])


class TestPlaceUsers:
    def test_empty(self):
        assert place_users(0, 40.0, 5.0, seed=1) == []

    def test_inside_arena(self):
        locs = place_users(30, 40.0, 5.0, seed=2)
        assert len(locs) == 30
        for loc in locs:
            assert 0.0 <= loc.x <= 40.0
            assert 0.0 <= loc.y <= 40.0
            assert loc.comm_radius == 5.0

    def test_quadrant_balance(self):
        # uniform placement: each quadrant of the square holds 250 +/- 50
        # of 1000 points (binomial n=1000 p=0.25, ~3.6 sigma slack)
        locs = place_users(1000, 40.0, 5.0, seed=9)
        counts = [0, 0, 0, 0]
        for loc in locs:
            q = (1 if loc.x >= 20.0 else 0) + (2 if loc.y >= 20.0 else 0)
            counts[q] += 1
        for c in counts:
            assert 200 <= c <= 300, counts

    def test_determinism(self):
        a = place_users(10, 40.0, 5.0, seed=4)
        b = place_users(10, 40.0, 5.0, seed=4)
        assert a == b

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            place_users(5, 40.0, -1.0, seed=0)


class TestNeighbors:
    def test_coincident_users(self):
        locs = [SuLocation(1.0, 1.0, 5.0), SuLocation(1.0, 1.0, 5.0)]
        assert neighbors(locs, 0) == {1}
        assert neighbors(locs, 1) == {0}

    def test_boundary_inclusive(self):
        locs = [SuLocation(0.0, 0.0, 5.0), SuLocation(5.0, 0.0, 5.0)]
        assert neighbors(locs, 0) == {1}
        assert neighbors(locs, 1) == {0}

    def test_just_outside(self):
        locs = [SuLocation(0.0, 0.0, 5.0), SuLocation(5.01, 0.0, 5.0)]
        assert neighbors(locs, 0) == set()
        assert neighbors(locs, 1) == set()

    def test_symmetric_irreflexive(self):
        locs = place_users(25, 40.0, 5.0, seed=13)
        for i in range(25):
            ns = neighbors(locs, i)
            assert i not in ns
            for j in ns:
                assert i in neighbors(locs, j)
