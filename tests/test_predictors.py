import functools
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crspectrum.channel import ChannelParams, generate_trace
from crspectrum.predictors import (
    BpModel,
    _distinct_rows,
    _pinv_solve,
    _sigmoid,
    bp_gradients,
    bp_loss,
    bp_predict_many,
    bp_train,
    elm_predict_many,
    elm_train,
    eval_prediction,
    hmm_fit,
    hmm_predict,
    HmmModel,
    make_training_set,
    transition_error_fraction,
)
from crspectrum.seeding import make_rng


class TestMakeTrainingSet:
    def test_sliding_window(self):
        inputs, targets = make_training_set(np.array([0, 1, 0, 1]), 2)
        np.testing.assert_array_equal(inputs, [[0, 1], [1, 0]])
        np.testing.assert_array_equal(targets, [0, 1])

    def test_sample_count(self):
        tr = generate_trace(ChannelParams(10.0, 10.0), 10000, seed=0)
        inputs, targets = make_training_set(tr, 10)
        assert inputs.shape == (9990, 10)
        assert targets.shape == (9990,)

    def test_too_short(self):
        with pytest.raises(ValueError):
            make_training_set(np.zeros(5, dtype=np.uint8), 10)


class TestPinvSolve:
    def test_identity(self):
        beta = _pinv_solve(np.eye(2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(beta, [1.0, 2.0], atol=1e-12)

    def test_overdetermined_column(self):
        # normal equations by hand: (H'H)^-1 H'T = 4/2 = 2
        beta = _pinv_solve(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
        np.testing.assert_allclose(beta, [2.0], atol=1e-12)

    def test_diagonal(self):
        beta = _pinv_solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        np.testing.assert_allclose(beta, [1.0, 2.0], atol=1e-12)

    def test_normal_equations_residual(self):
        # H'H beta = H'T within 1e-8 relative, including rank-deficient H
        rng = np.random.default_rng(17)
        for trial in range(20):
            S = int(rng.integers(3, 40))
            L = int(rng.integers(1, 30))
            H = rng.normal(size=(S, L))
            if trial % 3 == 0 and L >= 2:
                H[:, -1] = H[:, 0]  # force exact rank deficiency
            T = rng.normal(size=S)
            beta = _pinv_solve(H, T)
            lhs = H.T @ H @ beta
            rhs = H.T @ T
            scale = max(np.linalg.norm(rhs), 1.0)
            assert np.linalg.norm(lhs - rhs) / scale < 1e-8

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            _pinv_solve(np.array([[np.nan, 1.0]]), np.array([1.0]))


class TestElm:
    def test_determinism(self):
        tr = generate_trace(ChannelParams(10.0, 10.0), 500, seed=1)
        data = make_training_set(tr, 10)
        a = elm_train(*data, 30, seed=42)
        b = elm_train(*data, 30, seed=42)
        np.testing.assert_array_equal(a.input_weights, b.input_weights)
        np.testing.assert_array_equal(a.biases, b.biases)
        np.testing.assert_allclose(a.output_weights, b.output_weights, atol=1e-12)

    def test_exact_interpolation(self):
        # square full-rank hidden matrix: training error vanishes
        rng = np.random.default_rng(3)
        S = 100
        X = rng.uniform(0, 1, size=(S, 10))
        T = rng.uniform(0, 1, size=S)
        model = elm_train(X, T, hidden_count=S, seed=5)
        raw = elm_predict_many(model, X)
        assert np.mean((raw - T) ** 2) < 1e-10
        for i in range(0, S, 17):
            one = elm_predict_many(model, X[i: i + 1])
            assert one.shape == (1,)
            assert abs(one[0] - T[i]) < 1e-6

    def test_init_range(self):
        tr = generate_trace(ChannelParams(10.0, 10.0), 500, seed=2)
        model = elm_train(*make_training_set(tr, 10), 30, seed=9)
        assert model.input_weights.shape == (30, 10)
        assert np.all(np.abs(model.input_weights) <= 1.0)
        assert np.all(np.abs(model.biases) <= 1.0)

    def test_zero_beta_predicts_zero(self):
        model = elm_train(
            np.array([[0.0, 1.0]]), np.array([0.0]), hidden_count=3, seed=0
        )
        model.output_weights = np.zeros(3)
        assert elm_predict_many(model, [[1, 0]]).tolist() == [0.0]

    def test_closed_form_single_unit(self):
        from crspectrum.predictors import ElmModel

        model = ElmModel(
            input_weights=np.zeros((1, 2)),
            biases=np.array([np.pi / 2]),
            output_weights=np.array([1.0]),
        )
        assert elm_predict_many(model, [[0, 0]])[0] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        tr = generate_trace(ChannelParams(10.0, 10.0), 500, seed=2)
        model = elm_train(*make_training_set(tr, 10), 30, seed=9)
        with pytest.raises(ValueError):
            elm_predict_many(model, [[0, 1, 0]])
        with pytest.raises(ValueError):
            elm_predict_many(model, np.zeros(10))  # one window needs a 1 x n row

    def test_training_and_prediction_leave_inputs_alone(self):
        # both build their sine features in place, in a fresh product
        tr = generate_trace(ChannelParams(10.0, 10.0), 500, seed=2)
        X, T = make_training_set(tr, 10)
        X_before, T_before = X.copy(), T.copy()
        model = elm_train(X, T, 30, seed=9)
        elm_predict_many(model, X)
        np.testing.assert_array_equal(_bits(X), _bits(X_before))
        np.testing.assert_array_equal(_bits(T), _bits(T_before))


def _fd_gradients(model, X, T, h=1e-6):
    """Central finite differences of bp_loss over every parameter."""
    grads = []
    for arr in (model.w_hidden, model.b_hidden, model.w_out):
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = bp_loss(model, X, T)
            flat[i] = orig - h
            down = bp_loss(model, X, T)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    orig = model.b_out
    model.b_out = orig + h
    up = bp_loss(model, X, T)
    model.b_out = orig - h
    down = bp_loss(model, X, T)
    model.b_out = orig
    grads.append((up - down) / (2 * h))
    return grads


def _random_bp(rng, n, L):
    return BpModel(
        w_hidden=rng.uniform(-0.5, 0.5, size=(L, n)),
        b_hidden=rng.uniform(-0.5, 0.5, size=L),
        w_out=rng.uniform(-0.5, 0.5, size=L),
        b_out=float(rng.uniform(-0.5, 0.5)),
    )


class TestBp:
    def test_gradient_check(self):
        # analytic gradients vs central differences on random small nets
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            L = int(rng.integers(2, 8))
            S = int(rng.integers(3, 12))
            model = _random_bp(rng, n, L)
            X = rng.integers(0, 2, size=(S, n)).astype(float)
            T = rng.integers(0, 2, size=S).astype(float)
            analytic = bp_gradients(model, X, T)
            fd = _fd_gradients(model, X, T)
            for a, f in zip(analytic, fd):
                a = np.atleast_1d(np.asarray(a, dtype=float))
                f = np.atleast_1d(np.asarray(f, dtype=float))
                denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
                assert np.max(np.abs(a - f) / denom) < 1e-4

    def test_constant_target_reaches_goal(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 2, size=(40, 5)).astype(float)
        model = bp_train(X, np.zeros(40), hidden_count=50, max_epochs=2000, seed=3)
        assert model.epochs_run < 2000  # goal-triggered early stop
        y = bp_predict_many(model, X)
        assert np.mean(y**2) <= 1e-4

    def test_zero_weight_net_outputs_sigmoid_bias(self):
        model = _random_bp(np.random.default_rng(0), 4, 6)
        model.w_hidden[:] = 0.0
        model.b_hidden[:] = 0.0
        model.w_out[:] = 0.0
        model.b_out = 0.3
        expect = 1.0 / (1.0 + np.exp(-0.3))
        (got,) = bp_predict_many(model, [[0, 1, 0, 1]])
        assert got == pytest.approx(expect, abs=1e-12)

    def test_dimension_mismatch(self):
        model = _random_bp(np.random.default_rng(0), 4, 6)
        with pytest.raises(ValueError):
            bp_predict_many(model, [[0, 1]])

    def test_learns_alternating_trace(self):
        # strict alternation is linearly separable from the last bit
        states = np.tile([0, 1], 200)
        X, T = make_training_set(states, 4)
        model = bp_train(X, T, hidden_count=10, max_epochs=200, seed=2)
        raw = bp_predict_many(model, X)
        acc = np.mean((raw >= 0.5).astype(int) == T)
        assert acc > 0.5

    def test_determinism(self):
        tr = generate_trace(ChannelParams(10.0, 10.0), 300, seed=4)
        data = make_training_set(tr, 10)
        a = bp_train(*data, hidden_count=8, max_epochs=20, seed=7)
        b = bp_train(*data, hidden_count=8, max_epochs=20, seed=7)
        np.testing.assert_array_equal(a.w_hidden, b.w_hidden)
        assert a.b_out == b.b_out


def _sigmoid_reference(z):
    # the masked two-branch form the library used before its in-place one
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _bp_train_reference(
    inputs, targets, hidden_count, learning_rate, max_epochs, goal_mse, seed, distinct=True
):
    """Two forward passes per epoch (gradients, then the stop check).

    distinct=True trains on the distinct (window, target) rows, each weighted
    by count / S, as bp_train does; distinct=False is the per-sample
    full-batch loop bp_train ran before, with 2 / S as the gradient scale.
    """

    def forward(w1, b1, w2, b2, X):
        h = _sigmoid_reference(X @ w1.T + b1)
        return h, _sigmoid_reference(h @ w2 + b2)

    rng = make_rng(seed)
    S, n = inputs.shape
    w1 = rng.uniform(-0.5, 0.5, size=(hidden_count, n))
    b1 = rng.uniform(-0.5, 0.5, size=hidden_count)
    w2 = rng.uniform(-0.5, 0.5, size=hidden_count)
    b2 = float(rng.uniform(-0.5, 0.5))
    if distinct:
        rows, counts = np.unique(
            np.column_stack([inputs, targets]), axis=0, return_counts=True
        )
        X, T, weights = rows[:, :-1], rows[:, -1], counts / S
        scale = 2.0 * weights
    else:
        X, T = inputs, targets
        scale = 2.0 / S
    epochs_run = 0
    for _ in range(max_epochs):
        h, y = forward(w1, b1, w2, b2, X)
        g_out = scale * (y - T) * y * (1.0 - y)
        gw2 = h.T @ g_out
        gb2 = float(np.sum(g_out))
        g_hidden = np.outer(g_out, w2) * h * (1.0 - h)
        gw1 = g_hidden.T @ X
        gb1 = g_hidden.sum(axis=0)
        w1 -= learning_rate * gw1
        b1 -= learning_rate * gb1
        w2 -= learning_rate * gw2
        b2 -= learning_rate * gb2
        epochs_run += 1
        _, y = forward(w1, b1, w2, b2, X)
        sq = (y - T) ** 2
        if float(np.dot(weights, sq) if distinct else np.mean(sq)) <= goal_mse:
            break
    return w1, b1, w2, b2, epochs_run


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _row_arrays():
    shapes = st.tuples(st.integers(1, 60), st.integers(1, 6))
    zero_one = st.integers(0, 1)
    small = st.sampled_from([-1.5, -1.0, 0.0, 0.25, 0.5, 1.0, 2.0])
    return st.one_of(
        hnp.arrays(np.int64, shapes, elements=zero_one),
        hnp.arrays(np.float64, shapes, elements=zero_one.map(float)),
        hnp.arrays(np.float64, shapes, elements=small),
    )


class TestDistinctRows:
    @settings(max_examples=300, deadline=None)
    @given(_row_arrays())
    def test_matches_numpy_unique(self, a):
        rows, inverse, counts = _distinct_rows(a)
        want_rows, want_inverse, want_counts = np.unique(
            a, axis=0, return_inverse=True, return_counts=True
        )
        assert rows.dtype == a.dtype
        np.testing.assert_array_equal(_bits(rows), _bits(want_rows))
        assert inverse.tolist() == want_inverse.ravel().tolist()
        assert counts.tolist() == want_counts.tolist()
        np.testing.assert_array_equal(_bits(rows[inverse]), _bits(a))

    def test_training_windows_of_a_trace(self):
        tr = generate_trace(ChannelParams(10.0, 10.0), 5000, seed=7)
        samples = np.column_stack(make_training_set(tr, 10))
        rows, inverse, counts = _distinct_rows(samples)
        want_rows, want_counts = np.unique(samples, axis=0, return_counts=True)
        np.testing.assert_array_equal(_bits(rows), _bits(want_rows))
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_array_equal(rows[inverse], samples)


class TestBpBitExact:
    """The in-place sigmoid and one-pass training give the reference bits exactly."""

    EDGES = [0.0, 5e-324, 1e-310, 36.7, 709.8, 745.2, 1e3, np.inf]

    def test_sigmoid_edges(self):
        z = np.array(self.EDGES + [-v for v in self.EDGES])
        assert np.signbit(z[len(self.EDGES)])  # -0.0 is in the set
        np.testing.assert_array_equal(
            _bits(_sigmoid(z.copy())), _bits(_sigmoid_reference(z))
        )

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0, 800.0])
    def test_sigmoid_random(self, scale):
        z = np.random.default_rng(int(scale * 10)).normal(scale=scale, size=(499, 50))
        np.testing.assert_array_equal(
            _bits(_sigmoid(z.copy())), _bits(_sigmoid_reference(z))
        )

    def test_sigmoid_nan(self):
        assert np.all(np.isnan(_sigmoid(np.array([np.nan, -np.nan]))))

    @pytest.mark.parametrize(
        "goal_mse, max_epochs, expect_epochs",
        [(1e-4, 60, 60), (0.2, 200, 32), (1e-4, 1, 1)],
        ids=["to-max-epochs", "goal-stops-early", "one-epoch"],
    )
    def test_bp_train_matches_two_pass_reference(
        self, goal_mse, max_epochs, expect_epochs
    ):
        tr = generate_trace(ChannelParams(10.0, 10.0), 1000, seed=5)
        data = make_training_set(tr, 10)
        model = bp_train(
            *data, hidden_count=50, learning_rate=0.2, max_epochs=max_epochs,
            goal_mse=goal_mse, seed=5,
        )
        w1, b1, w2, b2, epochs_run = _bp_train_reference(
            *data, 50, 0.2, max_epochs, goal_mse, 5
        )
        assert model.epochs_run == epochs_run == expect_epochs
        np.testing.assert_array_equal(_bits(model.w_hidden), _bits(w1))
        np.testing.assert_array_equal(_bits(model.b_hidden), _bits(b1))
        np.testing.assert_array_equal(_bits(model.w_out), _bits(w2))
        assert _bits(model.b_out) == _bits(b2)


class TestBpDistinctRowsMatchFullBatch:
    """Summing over distinct rows moves outputs by rounding only."""

    def _assert_close(self, X, T, **kw):
        model = bp_train(X, T, **kw)
        w1, b1, w2, b2, epochs_run = _bp_train_reference(
            X, T, kw["hidden_count"], kw["learning_rate"], kw["max_epochs"],
            kw["goal_mse"], kw["seed"], distinct=False,
        )
        assert model.epochs_run == epochs_run
        old = BpModel(w_hidden=w1, b_hidden=b1, w_out=w2, b_out=b2)
        np.testing.assert_allclose(
            bp_predict_many(model, X), bp_predict_many(old, X),
            rtol=0, atol=1e-12,
        )
        return model

    @pytest.mark.parametrize(
        "goal_mse, stops_early", [(1e-4, False), (0.2, True)],
        ids=["to-max-epochs", "goal-stops-early"],
    )
    def test_duplicate_heavy_trace(self, goal_mse, stops_early):
        tr = generate_trace(ChannelParams(10.0, 10.0), 1500, seed=8)
        X, T = make_training_set(tr, 6)
        assert len(np.unique(X, axis=0)) <= 64 < len(X)
        model = self._assert_close(
            X, T, hidden_count=50, learning_rate=0.2, max_epochs=200,
            goal_mse=goal_mse, seed=8,
        )
        assert (model.epochs_run < 200) == stops_early

    def test_continuous_data(self):
        # criterion 4's shapes: real-valued inputs and targets, no repeats
        rng = make_rng(404)
        for rep in range(20):
            n = int(rng.integers(2, 6))
            s = int(rng.integers(4, 9))
            X, T = rng.random((s, n)), rng.random(s)
            self._assert_close(
                X, T, hidden_count=int(rng.integers(2, 7)), learning_rate=0.1,
                max_epochs=50, goal_mse=1e-12, seed=rep,
            )


class TestBpRejectsBadData:
    def _data(self):
        rng = np.random.default_rng(5)
        return rng.integers(0, 2, size=(12, 3)).astype(float), rng.random(12)

    def test_nan_input(self):
        X, T = self._data()
        X[4, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            bp_train(X, T, hidden_count=4)

    def test_infinite_target(self):
        X, T = self._data()
        T[0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            bp_train(X, T, hidden_count=4)

    @pytest.mark.parametrize("n_targets", [11, 13])
    def test_target_count_mismatch(self, n_targets):
        X, _ = self._data()
        with pytest.raises(ValueError, match="one target per input row"):
            bp_train(X, np.zeros(n_targets), hidden_count=4)


@pytest.mark.parametrize(
    "train",
    [
        lambda X, T: elm_train(X, T, hidden_count=4, seed=0),
        lambda X, T: bp_train(X, T, hidden_count=4),
    ],
    ids=["elm_train", "bp_train"],
)
@pytest.mark.parametrize(
    "X, T, message",
    [
        (np.zeros(12), np.zeros(12), "S x n"),
        (np.zeros((0, 3)), np.zeros(0), "nonempty"),
        (np.zeros((12, 3)), np.zeros(11), "one target per input row"),
        (np.zeros((12, 3)), np.zeros((12, 1)), "one target per input row"),
    ],
    ids=["1-d-inputs", "no-rows", "short-targets", "column-targets"],
)
def test_trainers_reject_malformed_arrays(train, X, T, message):
    with pytest.raises(ValueError, match=message):
        train(X, T)


class TestBpLeavesInputsAlone:
    """_sigmoid writes into its argument; no public call may expose that."""

    def _setup(self):
        rng = np.random.default_rng(31)
        model = _random_bp(rng, 6, 9)
        X = rng.integers(0, 2, size=(40, 6)).astype(float)
        T = rng.integers(0, 2, size=40).astype(float)
        snapshot = [a.copy() for a in self._arrays(model, X, T)]
        return model, X, T, snapshot + [model.b_out]

    @staticmethod
    def _arrays(model, X, T):
        return model.w_hidden, model.b_hidden, model.w_out, X, T

    def _assert_unchanged(self, model, X, T, snapshot):
        for now, before in zip(self._arrays(model, X, T), snapshot):
            np.testing.assert_array_equal(now, before)
        assert model.b_out == snapshot[-1]

    @pytest.mark.parametrize(
        "call",
        [
            lambda m, X, T: bp_predict_many(m, X),
            lambda m, X, T: bp_loss(m, X, T),
            lambda m, X, T: bp_gradients(m, X, T),
        ],
        ids=["bp_predict_many", "bp_loss", "bp_gradients"],
    )
    def test_call_is_pure(self, call):
        model, X, T, snapshot = self._setup()
        first = call(model, X, T)
        self._assert_unchanged(model, X, T, snapshot)
        second = call(model, X, T)
        self._assert_unchanged(model, X, T, snapshot)
        if not isinstance(first, tuple):
            first, second = (first,), (second,)
        for a, b in zip(first, second, strict=True):
            np.testing.assert_array_equal(_bits(a), _bits(b))


class TestHmm:
    def test_alternating_transitions(self):
        states = np.tile([0, 1], 500)
        model = hmm_fit(states)
        np.testing.assert_allclose(model.A, [[0, 1], [1, 0]], atol=1e-4)

    def test_all_idle(self):
        model = hmm_fit(np.zeros(100, dtype=np.uint8))
        assert model.A[0, 0] > 0.999
        # unobserved busy row falls back to uniform under smoothing
        np.testing.assert_allclose(model.A[1], [0.5, 0.5], atol=1e-9)

    def test_rows_stochastic(self):
        tr = generate_trace(ChannelParams(7.0, 3.0), 5000, seed=6)
        model = hmm_fit(tr)
        assert abs(model.pi.sum() - 1.0) < 1e-9
        np.testing.assert_allclose(model.A.sum(axis=1), [1.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(model.B.sum(axis=1), [1.0, 1.0], atol=1e-9)
        assert np.all(model.A >= 0) and np.all(model.B >= 0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            hmm_fit(np.array([1]))

    def test_predict_alternating(self):
        states = np.tile([0, 1], 500)
        model = hmm_fit(states)
        assert hmm_predict(model, [[1, 0], [0, 1]]).tolist() == [1, 0]

    def test_predict_persistent(self):
        eye = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = HmmModel(pi=np.array([0.5, 0.5]), A=eye, B=eye)
        assert hmm_predict(model, [[1, 1, 1]]).tolist() == [1]
        assert hmm_predict(model, [[1]]).tolist() == [1]

    def test_single_observation(self):
        states = np.tile([0, 1], 500)
        model = hmm_fit(states)
        assert hmm_predict(model, [[0]]).tolist() == [1]

    def test_bad_observation(self):
        model = hmm_fit(np.tile([0, 1], 50))
        with pytest.raises(ValueError):
            hmm_predict(model, [[0, 2]])
        with pytest.raises(ValueError):
            hmm_predict(model, [[0, 1], [1, -1]])

    def test_rejects_empty_windows(self):
        model = hmm_fit(np.tile([0, 1], 50))
        for obs in ([], np.zeros((0, 10), dtype=np.int64), np.zeros((3, 0))):
            with pytest.raises(ValueError, match="nonempty"):
                hmm_predict(model, obs)
        with pytest.raises(ValueError):
            hmm_predict(model, np.zeros((2, 2, 2), dtype=np.int64))

    def test_rejects_a_1d_window(self):
        model = hmm_fit(np.tile([0, 1], 50))
        with pytest.raises(ValueError, match="S x n"):
            hmm_predict(model, [0, 1, 0])


def _hmm_predict_reference(model, observations):
    # the numpy Viterbi the library used before its plain-float one
    obs = np.asarray(observations, dtype=np.int64)
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.pi)
        log_A = np.log(model.A)
        log_B = np.log(model.B)
    delta = log_pi + log_B[:, obs[0]]
    for o in obs[1:]:
        delta = np.max(delta[:, None] + log_A, axis=0) + log_B[:, o]
    q_last = int(np.argmax(delta))
    return int(np.argmax(model.A[q_last]))


def _hmm_predict_plain_float(model, observations):
    # the per-window plain-float Viterbi the library used before it decoded
    # all windows at once
    obs = np.asarray(observations, dtype=np.int64).tolist()
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.pi).tolist()
        log_A_cols = np.log(model.A).T.tolist()
        log_B_obs = np.log(model.B).T.tolist()
    delta = list(map(add, log_pi, log_B_obs[obs[0]]))
    for o in obs[1:]:
        delta = [
            max(map(add, delta, col)) + b for col, b in zip(log_A_cols, log_B_obs[o])
        ]
    q_last = max(range(len(delta)), key=delta.__getitem__)
    row = model.A[q_last].tolist()
    return max(range(len(row)), key=row.__getitem__)


@functools.cache  # one strategy per shape: building one costs more than a draw
def _stochastic(n_rows, n_cols):
    # one array draw of small integer weights, so zero entries (log -inf)
    # and exact ties are common; an all-zero row becomes all ones rather
    # than a rejected example, so no draw is thrown away
    def normalise(w):
        w = w.astype(np.float64)
        w[~w.any(axis=1)] = 1.0
        return w / w.sum(axis=1, keepdims=True)

    weights = hnp.arrays(np.int64, (n_rows, n_cols), elements=st.integers(0, 6))
    return weights.map(normalise)


@st.composite
def _hmm_and_window(draw):
    n, n_obs = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    model = HmmModel(
        pi=draw(_stochastic(1, n))[0],
        A=draw(_stochastic(n, n)),
        B=draw(_stochastic(n, n_obs)),
    )
    window = draw(st.lists(st.integers(0, n_obs - 1), min_size=1, max_size=15))
    return model, window


@st.composite
def _hmm_and_windows(draw):
    model, first = draw(_hmm_and_window())
    shape = (draw(st.integers(0, 20)), len(first))
    symbols = st.integers(0, model.B.shape[1] - 1)
    rest = draw(hnp.arrays(np.int64, shape, elements=symbols))
    return model, np.vstack([first, rest])


class TestHmmMatchesNumpyViterbi:
    @settings(max_examples=300, deadline=None)
    @given(_hmm_and_window())
    def test_same_prediction(self, case):
        model, window = case
        assert hmm_predict(model, [window]).tolist() == [
            _hmm_predict_reference(model, window)
        ]

    @settings(max_examples=200, deadline=None)
    @given(_hmm_and_windows())
    def test_batch_equals_per_window_loop(self, case):
        model, windows = case
        pred = hmm_predict(model, windows)
        assert pred.dtype == np.int64
        assert pred.tolist() == [_hmm_predict_plain_float(model, w) for w in windows]
        assert pred.tolist() == [hmm_predict(model, w[None])[0] for w in windows]

    def test_shuffled_duplicate_heavy_batch(self):
        # each distinct window is decoded once and its result gathered back
        # to every row that holds it
        tr = generate_trace(ChannelParams(7.0, 3.0), 3000, seed=13)
        model = hmm_fit(tr)
        windows = make_training_set(tr, 6)[0].astype(np.int64)
        windows = windows[make_rng(14).permutation(len(windows))]
        assert len(np.unique(windows, axis=0)) <= 64 < len(windows)
        assert hmm_predict(model, windows).tolist() == [
            _hmm_predict_reference(model, w) for w in windows
        ]

    def test_fitted_model_on_trace_windows(self):
        tr = generate_trace(ChannelParams(7.0, 3.0), 3000, seed=12)
        model = hmm_fit(tr)
        windows = make_training_set(tr, 10)[0].astype(np.int64)
        assert hmm_predict(model, windows).tolist() == [
            _hmm_predict_reference(model, w) for w in windows
        ]


class TestEvalPrediction:
    def test_perfect(self):
        m = eval_prediction([1, 0, 1, 0], [1, 0, 1, 0])
        assert m["p_d"] == 1.0
        assert m["p_fa"] == 0.0
        assert m["accuracy"] == 1.0

    def test_total_mismatch(self):
        m = eval_prediction([1, 0], [0, 1])
        assert m["p_d"] == 0.0
        assert m["p_fa"] == 1.0
        assert m["accuracy"] == 0.0

    def test_undefined_metrics_are_none(self):
        m = eval_prediction([0, 0], [0, 0])
        assert m["p_d"] is None  # no busy slots to detect
        assert m["p_fa"] == 0.0
        m2 = eval_prediction([1, 1], [1, 1])
        assert m2["p_fa"] is None
        assert m2["p_d"] == 1.0

    def test_mse_from_raw(self):
        m = eval_prediction([1, 0], [1, 1], raw=[0.9, 0.4])
        assert m["mse"] == pytest.approx((0.1**2 + 0.6**2) / 2, abs=1e-12)
        assert eval_prediction([1, 0], [1, 1])["mse"] is None

    def test_keys_follow_the_csv_columns(self):
        m = eval_prediction([1, 0], [1, 1], raw=[0.9, 0.4])
        assert list(m) == ["p_d", "p_fa", "accuracy", "mse", "tp", "tn", "fp", "fn"]

    @pytest.mark.parametrize(
        "predicted, actual",
        [([1, 0], [2, 0]), ([2, 0], [1, 0]), ([1, -1], [1, 0]), ([1, 0], [1, 3])],
        ids=["actual-2", "predicted-2", "predicted-negative", "actual-3"],
    )
    def test_rejects_states_other_than_0_or_1(self, predicted, actual):
        # a 2 is neither busy nor idle, so the four counts would miss its slot
        with pytest.raises(ValueError, match="0 or 1"):
            eval_prediction(predicted, actual)

    def test_identity_from_confusion_counts(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 50))
            pred = rng.integers(0, 2, size=n)
            act = rng.integers(0, 2, size=n)
            m = eval_prediction(pred, act)
            assert m["tp"] == np.sum((pred == 1) & (act == 1))
            assert m["tn"] == np.sum((pred == 0) & (act == 0))
            assert m["fp"] == np.sum((pred == 1) & (act == 0))
            assert m["tp"] + m["tn"] + m["fp"] + m["fn"] == n
            assert m["accuracy"] == (m["tp"] + m["tn"]) / n
            busy, idle = m["tp"] + m["fn"], m["tn"] + m["fp"]
            assert m["p_d"] == (m["tp"] / busy if busy else None)
            assert m["p_fa"] == (1 - m["tn"] / idle if idle else None)


class TestTransitionErrorFraction:
    def test_no_errors(self):
        assert transition_error_fraction([0, 1], [0, 1]) is None

    def test_error_at_change_point(self):
        actual = [0, 0, 0, 1, 1, 1]
        pred = [0, 0, 0, 0, 1, 1]  # miss exactly at the flip
        assert transition_error_fraction(pred, actual) == 1.0

    def test_error_far_from_change(self):
        actual = [0, 0, 0, 0, 0, 0, 0, 1]
        pred = [1, 0, 0, 0, 0, 0, 0, 1]  # error 6 slots before the flip
        assert transition_error_fraction(pred, actual) == 0.0

    @pytest.mark.parametrize(
        "actual, pred",
        [
            ([0, 1, 1, 1, 1, 1], [1, 0, 0, 1, 0, 1]),  # change at slot 1
            ([0, 0, 0, 0, 0, 1], [1, 0, 1, 1, 0, 0]),  # change at slot T-1
            ([1, 1, 1, 1, 1, 1], [0, 1, 1, 1, 1, 0]),  # no change, edge errors
            ([0, 1], [1, 0]),
            ([1], [0]),
        ],
        ids=["change-at-1", "change-at-T-1", "no-change", "two-slots", "one-slot"],
    )
    def test_edges_match_slice_loop(self, actual, pred):
        got = transition_error_fraction(pred, actual)
        assert got == _transition_error_fraction_reference(pred, actual)

    def test_random_traces_match_slice_loop(self):
        rng = make_rng(61)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            actual = generate_trace(ChannelParams(3.0, 2.0), n, seed=int(rng.integers(1 << 30)))
            pred = np.where(rng.random(n) < 0.3, 1 - actual, actual)
            got = transition_error_fraction(pred, actual)
            assert got == _transition_error_fraction_reference(pred, actual)


def _transition_error_fraction_reference(predicted, actual):
    # the loop of slices the library used before one search over the changes
    pred = np.asarray(predicted, dtype=np.int64)
    act = np.asarray(actual, dtype=np.int64)
    errors = np.flatnonzero(pred != act)
    if len(errors) == 0:
        return None
    change = np.flatnonzero(np.diff(act) != 0) + 1
    if len(change) == 0:
        return 0.0
    near = np.zeros(len(act), dtype=bool)
    for t in change:
        near[max(0, t - 2):min(len(act), t + 2)] = True
    return float(np.mean(near[errors]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: hmm_predict(hmm_fit(np.tile([0, 1], 50)), [[0.5, 1.0]]),
        lambda: hmm_fit([0.0, 1.0, 0.5]),
        lambda: eval_prediction([0.7], [1]),
        lambda: eval_prediction([1], [0.7]),
        lambda: transition_error_fraction([0.4, 1.0], [0, 1]),
        pytest.param(
            lambda: transition_error_fraction([0, 1], [np.nan, 1.0]),
            marks=pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning"),
        ),
    ],
    ids=["hmm_predict", "hmm_fit", "eval-predicted", "eval-actual",
         "transition-predicted", "transition-nan"],
)
def test_fractional_states_are_refused(call):
    with pytest.raises(ValueError, match="whole numbers"):
        call()


def test_whole_floats_read_as_their_integers():
    model = hmm_fit(np.tile([0, 1], 50))
    assert hmm_predict(model, [[0.0, 1.0]]).tolist() == hmm_predict(model, [[0, 1]]).tolist()
    assert eval_prediction([1.0, 0.0], [1, 1]) == eval_prediction([1, 0], [1, 1])
    assert transition_error_fraction([1.0, 0.0], [0.0, 0.0]) == 0.0
