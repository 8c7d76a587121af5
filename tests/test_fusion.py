import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crspectrum.channel import ChannelParams, generate_trace
from crspectrum.fusion import (
    decode_state,
    encode_state,
    m_out_of_n,
    noisy_local_predictions,
    soft_fuse,
    train_fusion,
)
from crspectrum.seeding import make_rng


class TestEncodeState:
    def test_examples(self):
        assert encode_state([1, 0, 1]) == 5
        assert encode_state([0, 0, 0]) == 0
        assert encode_state([1, 1, 1]) == 7
        assert encode_state([0] * 10) == 0
        assert encode_state([1] + [0] * 9) == 1
        assert encode_state([1] * 10) == 1023

    def test_bijective_exhaustive(self):
        # brute-force oracle: binary string with user 0 least significant
        for n in range(1, 11):
            seen = set()
            for code in range(1 << n):
                bits = [(code >> i) & 1 for i in range(n)]
                oracle = int("".join(str(b) for b in reversed(bits)), 2)
                assert oracle == code
                got = encode_state(bits)
                assert got == code
                seen.add(got)
                np.testing.assert_array_equal(decode_state(got, n), bits)
            assert len(seen) == 1 << n

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            encode_state([0, 2, 1])
        with pytest.raises(ValueError):
            encode_state([0, 3])
        with pytest.raises(ValueError):
            encode_state([[0, 1], [1, 2]])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: encode_state([0.9, 1.0]),
            lambda: encode_state(np.array([[0.0, 1.0], [1.0, 0.5]])),
            lambda: m_out_of_n([0.5, 1, 1], 2),
            lambda: train_fusion(np.array([[0.0], [0.9], [1.0]]), [0, 1, 1], seed=0),
        ],
        ids=["encode-1d", "encode-2d", "m_out_of_n", "train_fusion"],
    )
    def test_rejects_fractional_bits(self, call):
        with pytest.raises(ValueError, match="0 or 1"):
            call()

    def test_reads_whole_float_and_bool_bits(self):
        assert encode_state([1.0, 0.0, 1.0]) == 5
        assert encode_state(np.array([True, True])) == 3
        assert encode_state(np.array([[1, 0], [0, 1]], dtype=np.uint8)).tolist() == [1, 2]

    def test_rows_of_a_2d_array(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 20):
            bits = rng.integers(0, 2, size=(50, n))
            codes = encode_state(bits)
            assert codes.dtype == np.int64
            assert codes.tolist() == [encode_state(row) for row in bits]

    def test_rejects_empty_input(self):
        for bits in ([], np.zeros((0, 3)), np.zeros((3, 0))):
            with pytest.raises(ValueError):
                encode_state(bits)

    def test_at_most_20_bits(self):
        assert encode_state([1] * 20) == (1 << 20) - 1
        for bits in ([0] * 21, np.zeros((2, 21), dtype=np.int64)):
            with pytest.raises(ValueError):
                encode_state(bits)


class TestMOutOfN:
    def test_examples(self):
        assert m_out_of_n([1, 1, 0], 2) == 1
        assert m_out_of_n([1, 0, 0], 1) == 1
        assert m_out_of_n([1, 1, 0], 3) == 0

    def test_monotone_in_bits(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            bits = rng.integers(0, 2, size=n)
            m = int(rng.integers(1, n + 1))
            base = m_out_of_n(bits, m)
            for i in np.flatnonzero(bits == 0):
                raised = bits.copy()
                raised[i] = 1
                assert m_out_of_n(raised, m) >= base

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            m_out_of_n([1, 0], 3)
        with pytest.raises(ValueError):
            m_out_of_n([1, 0], 0)


class TestSoftFuse:
    def test_examples(self):
        assert soft_fuse([0.9, 0.8, 0.6], [0.1, 0.2, 0.4]) == 0
        assert soft_fuse([0.1, 0.2, 0.3], [0.9, 0.8, 0.7]) == 1
        assert soft_fuse([0.5, 0.5], [0.5, 0.5]) == 0  # exact zero reads idle

    def test_scale_invariant_per_term(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            p0 = rng.uniform(0.01, 1.0, size=n)
            p1 = rng.uniform(0.01, 1.0, size=n)
            base = soft_fuse(p0, p1)
            i = int(rng.integers(0, n))
            c = float(rng.uniform(0.1, 10.0))
            q0, q1 = p0.copy(), p1.copy()
            q0[i] *= c
            q1[i] *= c
            assert soft_fuse(q0, q1) == base

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            soft_fuse([0.0, 0.5], [0.0, 0.5])


def _m_out_of_n_reference(preds, m):
    # the one-vector vote the library made before it worked along rows
    bits = np.asarray(preds, dtype=np.int64)
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("prediction bits must be 0 or 1")
    if not 1 <= m <= len(bits):
        raise ValueError(f"m must be in [1, {len(bits)}], got {m}")
    return 1 if int(bits.sum()) >= m else 0


def _soft_fuse_reference(p0, p1):
    # the one-vector combining the library made before it worked along rows
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    if p0.shape != p1.shape or p0.ndim != 1 or len(p0) == 0:
        raise ValueError("p0 and p1 must be equal-length nonempty vectors")
    denom = p0 + p1
    if np.any(denom <= 0):
        raise ValueError("each p0_i + p1_i must be positive")
    score = float(np.sum((p0 - p1) / denom))
    return 0 if score >= 0 else 1


@st.composite
def _vote_rows(draw):
    """(bits, m): r x n votes and a threshold in [1, n]."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 20)))
    bits = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 1)))
    return bits, draw(st.integers(1, shape[1]))


# a coarse grid makes equal probabilities, and so exactly zero soft
# scores, common
_prob = st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.floats(1e-3, 1.0))


@st.composite
def _soft_rows(draw):
    """(p0, p1, tied): r x n probabilities; tied rows have p0 == p1."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 20)))
    p0 = draw(hnp.arrays(np.float64, shape, elements=_prob))
    p1 = draw(hnp.arrays(np.float64, shape, elements=_prob))
    tied = draw(hnp.arrays(np.bool_, shape[0]))
    p1[tied] = p0[tied]
    return p0, p1, tied


class TestBatchEqualsRows:
    @settings(max_examples=200, deadline=None)
    @given(_vote_rows())
    def test_votes(self, case):
        bits, m = case
        fused = m_out_of_n(bits, m)
        assert fused.dtype == np.int64
        assert fused.tolist() == [_m_out_of_n_reference(b, m) for b in bits]
        assert [m_out_of_n(b, m) for b in bits] == fused.tolist()

    @settings(max_examples=150, deadline=None)
    @given(_soft_rows())
    def test_soft(self, case):
        p0, p1, tied = case
        fused = soft_fuse(p0, p1)
        assert fused.dtype == np.int64
        assert fused.tolist() == [_soft_fuse_reference(a, b) for a, b in zip(p0, p1)]
        assert [soft_fuse(a, b) for a, b in zip(p0, p1)] == fused.tolist()
        # an exactly zero score reads idle
        assert not fused[tied].any()
        # the batched call rests on numpy's row sums giving the 1-d sums' bits
        terms = (p0 - p1) / (p0 + p1)
        assert np.sum(terms, axis=-1).tolist() == [float(np.sum(t)) for t in terms]

    def test_fusion_scenario_inputs(self):
        # the three-user inputs the fusion scenario builds
        rates = np.array([0.1, 0.15, 0.2])
        states = generate_trace(ChannelParams(10.0, 10.0), 3000, seed=8)
        bits = noisy_local_predictions(states, rates, seed=9)
        for m in (1, 2, 3):
            assert m_out_of_n(bits, m).tolist() == [
                _m_out_of_n_reference(b, m) for b in bits
            ]
        p1 = np.where(bits == 1, 1.0 - rates[None, :], rates[None, :])
        assert soft_fuse(1.0 - p1, p1).tolist() == [
            _soft_fuse_reference(1.0 - p, p) for p in p1
        ]


class TestBaselineInputChecks:
    def test_soft_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                soft_fuse([0.5, bad], [0.5, 0.5])
            with pytest.raises(ValueError, match="finite"):
                soft_fuse([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [bad, 0.5]])

    def test_vote_rejects_zero_rows(self):
        with pytest.raises(ValueError, match="nonempty"):
            m_out_of_n(np.zeros((0, 3), dtype=np.int64), 2)

    def test_soft_rejects_zero_rows(self):
        with pytest.raises(ValueError, match="nonempty"):
            soft_fuse(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_three_dimensions_rejected(self):
        with pytest.raises(ValueError):
            m_out_of_n(np.zeros((2, 2, 2), dtype=np.int64), 1)
        with pytest.raises(ValueError):
            soft_fuse(np.ones((2, 2, 2)), np.ones((2, 2, 2)))


def _bayes_actions(error_rates, p_busy):
    """Per-state likelihood-optimal fused call, enumerated from the rates."""
    n = len(error_rates)
    best = np.zeros(1 << n, dtype=np.int64)
    for code in range(1 << n):
        bits = decode_state(code, n)
        like1 = p_busy
        like0 = 1.0 - p_busy
        for b, e in zip(bits, error_rates):
            like1 *= (1.0 - e) if b == 1 else e
            like0 *= e if b == 1 else (1.0 - e)
        best[code] = 1 if like1 > like0 else 0
    return best


class TestTrainFusion:
    def test_converges_to_bayes_rule(self):
        rates = [0.1, 0.15, 0.2]
        states = generate_trace(ChannelParams(10.0, 10.0), 10000, seed=30)
        bits = noisy_local_predictions(states, rates, seed=31)
        values = train_fusion(bits, states, seed=32)
        policy = np.argmax(values, axis=1)
        oracle = _bayes_actions(rates, p_busy=float(np.mean(states)))
        assert np.sum(policy == oracle) >= 7

    def test_determinism(self):
        states = generate_trace(ChannelParams(10.0, 10.0), 2000, seed=33)
        bits = noisy_local_predictions(states, [0.1, 0.2], seed=34)
        a = train_fusion(bits, states, seed=35)
        b = train_fusion(bits, states, seed=35)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [40, 41])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("n_users", [1, 2, 3, 4])
    def test_matches_inline_loop_bit_for_bit(self, n_users, epsilon, seed):
        states = generate_trace(ChannelParams(6.0, 4.0), 1500, seed=seed)
        rates = [0.1, 0.3, 0.2, 0.45][:n_users]
        bits = noisy_local_predictions(states, rates, seed=seed + 100)
        kw = dict(gamma=0.7, r_p=2.0, r_n=-0.5, epsilon=epsilon)
        got = train_fusion(bits, states, seed + 200, **kw)
        want = _reference_train_fusion(bits, states, seed + 200, **kw)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_tied_rows_match_inline_loop(self, gamma, epsilon):
        # rewards 1 and 0 at a 1/visits rate make each value a running mean
        # of 0/1 rewards (plus lookahead), so rows tie after their first
        # visit too: 40 greedy lookups read such a tie at gamma 0, epsilon 0
        states = generate_trace(ChannelParams(6.0, 4.0), 1500, seed=42)
        bits = noisy_local_predictions(states, [0.1, 0.3], seed=43)
        kw = dict(gamma=gamma, r_p=1.0, r_n=0.0, epsilon=epsilon)
        got = train_fusion(bits, states, 44, **kw)
        want = _reference_train_fusion(bits, states, 44, **kw)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("T", [2, 3, 1501])
    def test_odd_length_full_exploration_matches_inline_loop(self, T):
        # exploration ends exactly at slot (T - 1) / 2 when T is odd
        states = generate_trace(ChannelParams(6.0, 4.0), T, seed=45)
        bits = noisy_local_predictions(states, [0.1, 0.3, 0.2], seed=46)
        kw = dict(gamma=0.7, r_p=2.0, r_n=-0.5, epsilon=1.0)
        got = train_fusion(bits, states, 47, **kw)
        want = _reference_train_fusion(bits, states, 47, **kw)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_visit_count_learning_rates(self):
        # one user that always reports idle, no exploration, gamma 0: both
        # steps pick idle in state 0, learning at 1 (Q = r_p = 4) and then
        # at 1/2 toward the mismatch reward (Q = 4 + (2 - 4) / 2 = 3)
        bits = np.zeros((3, 1), dtype=np.int64)
        values = train_fusion(
            bits, [0, 1, 0], seed=0, gamma=0.0, r_p=4.0, r_n=2.0, epsilon=0.0
        )
        assert values.tolist() == [[3.0, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize(
        "n_users, kw, message",
        [
            (21, {}, "n_users"),
            (2, dict(gamma=1.0), "gamma"),
            (2, dict(gamma=-0.1), "gamma"),
            (2, dict(epsilon=1.5), "epsilon"),
            (2, dict(epsilon=-0.1), "epsilon"),
        ],
        ids=["21-users", "gamma-1", "gamma-negative", "epsilon-above-1",
             "epsilon-negative"],
    )
    def test_rejects_out_of_range_settings(self, n_users, kw, message):
        bits = np.zeros((4, n_users), dtype=np.int64)
        with pytest.raises(ValueError, match=message):
            train_fusion(bits, [0, 1, 0, 1], seed=0, **kw)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["r_p", "r_n"])
    def test_rejects_non_finite_rewards(self, name, value):
        bits = np.zeros((6, 1), dtype=np.int64)
        with pytest.raises(ValueError, match="finite"):
            train_fusion(bits, [0, 1, 0, 1, 1, 0], seed=0, **{name: value})


def _reference_train_fusion(local_bits, actual, seed, gamma, r_p, r_n, epsilon):
    # train_fusion's loop as first written, on a numpy table with np.argmax
    # and np.max, and with its own state packing
    local_bits = np.asarray(local_bits, dtype=np.int64)
    actual = np.asarray(actual, dtype=np.int64)
    T, n_users = local_bits.shape
    values = np.zeros((1 << n_users, 2))
    rng = make_rng(seed)
    codes = local_bits @ (1 << np.arange(n_users, dtype=np.int64))
    visits = np.zeros(values.shape, dtype=np.int64)
    half = (T - 1) / 2.0
    for t in range(T - 1):
        eps_t = epsilon * max(0.0, 1.0 - t / half)
        s, s_next = int(codes[t]), int(codes[t + 1])
        if eps_t > 0 and rng.random() < eps_t:
            action = int(rng.integers(0, 2))
        else:
            action = int(np.argmax(values[s]))
        visits[s, action] += 1
        lr = 1.0 / visits[s, action]
        r = r_p if action == actual[t] else r_n
        target = r + gamma * float(np.max(values[s_next]))
        values[s, action] += lr * (target - values[s, action])
    return values


class TestNoisyLocalPredictions:
    def test_error_rates_realized(self):
        states = generate_trace(ChannelParams(10.0, 10.0), 20000, seed=36)
        rates = [0.1, 0.15, 0.2]
        bits = noisy_local_predictions(states, rates, seed=37)
        for i, e in enumerate(rates):
            observed = np.mean(bits[:, i] != states)
            assert abs(observed - e) < 0.01

    def test_zero_error_is_truth(self):
        states = generate_trace(ChannelParams(5.0, 5.0), 1000, seed=38)
        bits = noisy_local_predictions(states, [0.0], seed=39)
        np.testing.assert_array_equal(bits[:, 0], states)

