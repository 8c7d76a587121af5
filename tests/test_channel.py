import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crspectrum.channel import (
    ChannelParams,
    generate_multi,
    generate_trace,
    links,
    place_users,
)
from crspectrum.config import default_config
from crspectrum.harness import _TAG_LOCATIONS
from crspectrum.seeding import derive_seed


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
        assert place_users(0, 40.0, seed=1).shape == (0, 2)

    def test_inside_arena(self):
        coords = place_users(30, 40.0, seed=2)
        assert coords.shape == (30, 2)
        assert ((coords >= 0.0) & (coords <= 40.0)).all()

    def test_quadrant_balance(self):
        # uniform placement: each quadrant of the square holds 250 +/- 50
        # of 1000 points (binomial n=1000 p=0.25, ~3.6 sigma slack)
        coords = place_users(1000, 40.0, seed=9)
        quadrant = (coords[:, 0] >= 20.0) + 2 * (coords[:, 1] >= 20.0)
        counts = np.bincount(quadrant, minlength=4)
        assert ((200 <= counts) & (counts <= 300)).all(), counts

    def test_determinism(self):
        a = place_users(10, 40.0, seed=4)
        b = place_users(10, 40.0, seed=4)
        np.testing.assert_array_equal(a, b)


class TestNeighbors:
    def test_coincident_users(self):
        partners, weights = links([(1.0, 1.0), (1.0, 1.0)], 5.0)
        assert partners == [[1], [0]]
        assert weights == [[1.0, 1.0], [1.0, 1.0]]

    def test_boundary_inclusive(self):
        partners, weights = links([(0.0, 0.0), (5.0, 0.0)], 5.0)
        assert partners == [[1], [0]]
        assert weights[0][1] == weights[1][0] == math.exp(-5.0)

    def test_just_outside(self):
        partners, _ = links([(0.0, 0.0), (5.01, 0.0)], 5.0)
        assert partners == [[], []]

    def test_symmetric_irreflexive(self):
        partners, weights = links(place_users(25, 40.0, seed=13), 5.0)
        for i, ns in enumerate(partners):
            assert i not in ns
            assert ns == sorted(ns)
            for j in ns:
                assert i in partners[j]
            for j in range(25):
                assert weights[i][j] == weights[j][i]

    def test_bad_radius(self):
        for radius in (0.0, -1.0):
            with pytest.raises(ValueError, match="radius"):
                links([(0.0, 0.0)], radius)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(0.0, 12.0), st.floats(0.0, 12.0)), max_size=12),
        st.sampled_from([0.5, 2.0, 5.0]),
    )
    def test_match_brute_force_per_ordered_pair(self, points, radius):
        partners, weights = links(points, radius)
        n = len(points)
        for u, (xu, yu) in enumerate(points):
            assert weights[u][u] == 1.0
            want = []
            for v, (xv, yv) in enumerate(points):
                d = math.hypot(xu - xv, yu - yv)
                if v != u and d <= radius:
                    want.append(v)
                assert weights[u][v] == math.exp(-d)
            assert partners[u] == want
        assert len(partners) == len(weights) == n


class TestDefaultGeometryPinned:
    def test_decision_2_geometry_at_master_seeds_0_and_1(self):
        # partner lists and float.hex of every weight, at every repetition
        # of the default decision-2 config, recorded from the per-user
        # location objects this function replaced
        cfg = default_config("decision-2")
        h = hashlib.sha256()
        for master in (0, 1):
            for rep in range(cfg.reps):
                seed = derive_seed(derive_seed(master, rep), _TAG_LOCATIONS)
                coords = place_users(cfg.n_su, cfg.arena_side, seed)
                partners, weights = links(coords, cfg.comm_radius)
                h.update(repr(partners).encode())
                h.update(" ".join(w.hex() for row in weights for w in row).encode())
        assert (cfg.reps, cfg.n_su, cfg.arena_side, cfg.comm_radius) == (5, 30, 40.0, 5.0)
        assert h.hexdigest() == (
            "37b687883504e00747f933b20d02a7a12071165e8eb54d8568730e4138cc76a0"
        )
