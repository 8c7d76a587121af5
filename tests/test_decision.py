import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crspectrum.decision import (
    arbitrate,
    new_decision_table,
    q_update,
    random_access,
    reward,
    select_action,
    value_iteration,
)
from crspectrum.seeding import make_rng


class TestReward:
    def test_paper_values(self):
        assert reward(False, 0, 1) == 300.0
        assert reward(True, 1, 0) == -100.0
        assert reward(False, 1, 1) == 200.0
        assert reward(False, 0, 0) == 200.0
        assert reward(False, 1, 0) == 100.0

    def test_collision_negates(self):
        for a in (0, 1):
            for b in (0, 1):
                good = reward(False, a, b)
                bad = reward(True, a, b)
                assert bad == -good


class TestSelectAction:
    def test_greedy_argmax(self):
        table = new_decision_table(4)
        table.values[3, :3] = [5.0, 1.0, 2.0]
        got = select_action(table, 3, [0, 1, 2], epsilon=0.0, rng=make_rng(0))
        assert got == 0

    def test_singleton(self):
        table = new_decision_table(3)
        assert select_action(table, 1, [2], epsilon=0.5, rng=make_rng(1)) == 2

    def test_tie_takes_lowest_index(self):
        table = new_decision_table(3)
        table.values[5, :] = [1.0, 1.0, 1.0]
        assert select_action(table, 5, [1, 2], epsilon=0.0, rng=make_rng(3)) == 1

    def test_affine_rescale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            table = new_decision_table(4)
            table.values[:] = rng.normal(size=table.values.shape)
            state = int(rng.integers(0, table.values.shape[0]))
            cands = sorted(
                rng.choice(4, size=int(rng.integers(1, 5)), replace=False).tolist()
            )
            base = select_action(table, state, cands, epsilon=0.0, rng=make_rng(5))
            scale = float(rng.uniform(0.1, 10.0))
            shift = float(rng.normal())
            table.values[state] = table.values[state] * scale + shift
            again = select_action(table, state, cands, epsilon=0.0, rng=make_rng(6))
            assert again == base

    def test_exploration_stays_in_candidates(self):
        table = new_decision_table(8)
        rng = make_rng(7)
        for _ in range(200):
            got = select_action(table, 0, [3, 7], epsilon=1.0, rng=rng)
            assert got in (3, 7)

    @settings(max_examples=200, deadline=None)
    @given(
        cands=st.lists(st.integers(0, 7), min_size=1, max_size=6, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exploration_draws_as_random_access(self, cands, seed):
        cands = sorted(cands)
        table = new_decision_table(8)
        rng_ref, rng = make_rng(seed), make_rng(seed)
        rng_ref.random()  # the epsilon coin; at epsilon 1 it always explores
        want = random_access(cands, rng_ref)
        assert select_action(table, 0, cands, epsilon=1.0, rng=rng) == want
        assert rng.bit_generator.state == rng_ref.bit_generator.state


class TestQUpdate:
    def test_hand_single_step(self):
        table = new_decision_table(3, alpha=0.5, gamma=0.5)
        q_update(table, s=2, a=1, r=100.0, s_next=4)
        assert table.values[2, 1] == pytest.approx(50.0)

    def test_zero_alpha_is_noop(self):
        table = new_decision_table(2, alpha=1.0)
        table.alpha = 0.0
        table.values[1, 0] = 7.0
        q_update(table, 1, 0, r=1000.0, s_next=0)
        assert table.values[1, 0] == 7.0

    def test_bellman_fixed_point(self):
        gamma = 0.5
        r = 100.0
        table = new_decision_table(2, alpha=0.5, gamma=gamma)
        table.values[0, 0] = r / (1 - gamma)
        table.values[0, 1] = 0.0
        q_update(table, 0, 0, r=r, s_next=0)
        assert table.values[0, 0] == pytest.approx(r / (1 - gamma), abs=1e-12)


class TestValueIteration:
    def test_two_state_identity(self):
        V, policy = value_iteration(np.eye(2), np.array([1.0, 0.0]), 0.5, tol=1e-9)
        np.testing.assert_allclose(V, [2.0, 0.0], atol=1e-6)

    def test_gamma_zero_is_max_reward(self):
        R = np.array([[1.0, 5.0], [2.0, 0.0]])
        V, policy = value_iteration(np.eye(2), R, 0.0)
        np.testing.assert_allclose(V, [5.0, 2.0])
        np.testing.assert_array_equal(policy, [1, 0])

    def test_bellman_residual_random_mdps(self):
        # optimality residual below tol/(1-gamma) on random models
        rng = np.random.default_rng(9)
        for _ in range(50):
            S = int(rng.integers(2, 9))
            A = int(rng.integers(1, 5))
            P = rng.uniform(size=(S, A, S))
            P /= P.sum(axis=2, keepdims=True)
            R = rng.normal(size=(S, A))
            gamma = float(rng.uniform(0.0, 0.95))
            tol = 1e-8
            V, policy = value_iteration(P, R, gamma, tol=tol)
            Q = R + gamma * (P @ V)
            residual = np.max(np.abs(Q.max(axis=1) - V))
            assert residual < tol / (1.0 - gamma)
            np.testing.assert_array_equal(policy, np.argmax(Q, axis=1))

    def test_contraction_of_sweeps(self):
        rng = np.random.default_rng(10)
        P = rng.uniform(size=(4, 3, 4))
        P /= P.sum(axis=2, keepdims=True)
        R = rng.normal(size=(4, 3))
        gamma = 0.8
        V = np.zeros(4)
        prev_delta = None
        for _ in range(30):
            Q = R + gamma * (P @ V)
            V_new = Q.max(axis=1)
            delta = np.max(np.abs(V_new - V))
            if prev_delta is not None:
                assert delta <= gamma * prev_delta + 1e-12
            prev_delta = delta
            V = V_new

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            value_iteration(np.eye(2), np.zeros(2), 1.0)


_N_SU = 31


class TestArbitrate:
    def test_single_request(self):
        assert arbitrate([4], make_rng(0)) == [4]

    def test_deterministic_per_seed(self):
        a = arbitrate([0, 1, 2, 3, 4], make_rng(5))
        b = arbitrate([0, 1, 2, 3, 4], make_rng(5))
        assert a == b

    def test_is_permutation(self):
        rng = make_rng(6)
        for _ in range(20):
            order = arbitrate(list(range(8)), rng)
            assert sorted(order) == list(range(8))

    @settings(max_examples=300, deadline=None)
    @given(
        requests=st.lists(st.integers(0, _N_SU - 1), unique=True).map(sorted),
        busy=st.sets(st.integers(0, _N_SU - 1), max_size=20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_match_inline_engine_code(self, requests, busy, seed):
        rng_ref, rng = make_rng(seed), make_rng(seed)
        want = _engine_arbitration(requests, busy, rng_ref)
        # the engine leaves busy users out before it arbitrates
        assert arbitrate([u for u in requests if u not in busy], rng) == want
        # the whole state: a spare 32-bit half buffered by one side only
        # would not show in a double, which never reads that buffer
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize(
        "requests", [[1, 4, 6, 9], [0, 1], [7, 30], list(range(12))]
    )
    def test_leaves_its_argument_unchanged(self, requests):
        before = list(requests)
        for seed in range(10):
            assert sorted(arbitrate(requests, make_rng(seed))) == before
            assert requests == before


def _engine_arbitration(requests, busy, rng):
    # the slot engine's own code before it called arbitrate: walk the user
    # indices in order, keep the idle requesters, and permute them only when
    # any are left
    asked = set(requests)
    requesting = [u for u in range(_N_SU) if u in asked and u not in busy]
    if requesting:
        return [requesting[i] for i in rng.permutation(len(requesting))]
    return []


class TestRandomAccess:
    def test_singleton(self):
        assert random_access([3], make_rng(0)) == 3

    def test_uniform_over_two(self):
        rng = make_rng(1)
        draws = np.array([random_access([0, 1], rng) for _ in range(100000)])
        assert abs(np.mean(draws) - 0.5) < 0.01


class TestDrawsThatDrawNothing:
    """numpy makes no draw for a choice with one outcome: arbitrate relies
    on that for shuffles of under two users, random_access skips the call
    (so select_action's exploration can share it), and both must leave the
    stream as it was."""

    def test_numpy_one_outcome_leaves_the_state(self):
        rng = make_rng(7)
        before = rng.bit_generator.state
        assert rng.permutation(1).tolist() == [0]
        assert int(rng.integers(0, 1)) == 0
        empty, one = [], [3]
        rng.shuffle(empty)
        rng.shuffle(one)
        assert (empty, one) == ([], [3])
        assert rng.bit_generator.state == before
        rng.permutation(2)
        assert rng.bit_generator.state != before

    @pytest.mark.parametrize("requests", [[], [3], [0], [_N_SU - 1]])
    def test_arbitrate_under_two_requesters(self, requests):
        rng = make_rng(8)
        before = rng.bit_generator.state
        assert arbitrate(requests, rng) == requests
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("cands", [[4], [0], [9]])
    def test_random_access_one_candidate(self, cands):
        rng = make_rng(9)
        before = rng.bit_generator.state
        assert random_access(cands, rng) == cands[0]
        assert rng.bit_generator.state == before


class TestCandidateContract:
    """Candidates come as the slot engine builds them, a nonempty increasing
    list; a channel outside the table is rejected wherever it sits."""

    def test_out_of_range_rejected_in_any_order(self):
        table = new_decision_table(3)
        for cands in ([1, 3], [3, 1], [-1, 2], [2, -1, 2]):
            with pytest.raises(ValueError):
                select_action(table, 0, cands, 0.0, make_rng(0))
