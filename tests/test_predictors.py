import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crspectrum.channel import ChannelParams, generate_trace
from crspectrum.predictors import (
    BpModel,
    TrainingSet,
    _sigmoid,
    bp_gradients,
    bp_loss,
    bp_predict,
    bp_predict_many,
    bp_train,
    elm_predict,
    elm_predict_many,
    elm_train,
    eval_prediction,
    hmm_fit,
    hmm_predict,
    HmmModel,
    make_training_set,
    model_from_json,
    model_to_json,
    pinv_solve,
    threshold,
    transition_error_fraction,
)
from crspectrum.seeding import make_rng


class TestMakeTrainingSet:
    def test_sliding_window(self):
        data = make_training_set(np.array([0, 1, 0, 1]), 2)
        np.testing.assert_array_equal(data.inputs, [[0, 1], [1, 0]])
        np.testing.assert_array_equal(data.targets, [0, 1])

    def test_sample_count(self):
        tr = generate_trace(ChannelParams(10.0, 10.0), 10000, seed=0)
        data = make_training_set(tr, 10)
        assert data.n_samples == 9990
        assert data.window == 10

    def test_too_short(self):
        with pytest.raises(ValueError):
            make_training_set(np.zeros(5, dtype=np.uint8), 10)


class TestPinvSolve:
    def test_identity(self):
        beta = pinv_solve(np.eye(2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(beta, [1.0, 2.0], atol=1e-12)

    def test_overdetermined_column(self):
        # normal equations by hand: (H'H)^-1 H'T = 4/2 = 2
        beta = pinv_solve(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
        np.testing.assert_allclose(beta, [2.0], atol=1e-12)

    def test_diagonal(self):
        beta = pinv_solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
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
            beta = pinv_solve(H, T)
            lhs = H.T @ H @ beta
            rhs = H.T @ T
            scale = max(np.linalg.norm(rhs), 1.0)
            assert np.linalg.norm(lhs - rhs) / scale < 1e-8

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            pinv_solve(np.array([[np.nan, 1.0]]), np.array([1.0]))


class TestElm:
    def test_determinism(self):
        tr = generate_trace(ChannelParams(10.0, 10.0), 500, seed=1)
        data = make_training_set(tr, 10)
        a = elm_train(data, 30, seed=42)
        b = elm_train(data, 30, seed=42)
        np.testing.assert_array_equal(a.input_weights, b.input_weights)
        np.testing.assert_array_equal(a.biases, b.biases)
        np.testing.assert_allclose(a.output_weights, b.output_weights, atol=1e-12)

    def test_exact_interpolation(self):
        # square full-rank hidden matrix: training error vanishes
        rng = np.random.default_rng(3)
        S = 100
        data = TrainingSet(
            inputs=rng.uniform(0, 1, size=(S, 10)),
            targets=rng.uniform(0, 1, size=S),
        )
        model = elm_train(data, hidden_count=S, seed=5)
        raw = elm_predict_many(model, data.inputs)
        assert np.mean((raw - data.targets) ** 2) < 1e-10
        for i in range(0, S, 17):
            assert abs(elm_predict(model, data.inputs[i]) - data.targets[i]) < 1e-6

    def test_init_range(self):
        tr = generate_trace(ChannelParams(10.0, 10.0), 500, seed=2)
        model = elm_train(make_training_set(tr, 10), 30, seed=9)
        assert model.input_weights.shape == (30, 10)
        assert np.all(np.abs(model.input_weights) <= 1.0)
        assert np.all(np.abs(model.biases) <= 1.0)

    def test_zero_beta_predicts_zero(self):
        model = elm_train(
            TrainingSet(inputs=np.array([[0.0, 1.0]]), targets=np.array([0.0])),
            hidden_count=3,
            seed=0,
        )
        model.output_weights = np.zeros(3)
        assert elm_predict(model, [1, 0]) == 0.0

    def test_closed_form_single_unit(self):
        from crspectrum.predictors import ElmModel

        model = ElmModel(
            input_dim=2,
            hidden_count=1,
            input_weights=np.zeros((1, 2)),
            biases=np.array([np.pi / 2]),
            output_weights=np.array([1.0]),
            seed=0,
        )
        assert elm_predict(model, [0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        tr = generate_trace(ChannelParams(10.0, 10.0), 500, seed=2)
        model = elm_train(make_training_set(tr, 10), 30, seed=9)
        with pytest.raises(ValueError):
            elm_predict(model, [0, 1, 0])


class TestThreshold:
    def test_above(self):
        assert threshold(0.7, 0.5) == 1

    def test_below(self):
        assert threshold(0.3, 0.5) == 0

    def test_tie_reads_busy(self):
        assert threshold(0.5, 0.5) == 1

    def test_always_binary(self):
        rng = np.random.default_rng(0)
        for raw in rng.normal(scale=3.0, size=200):
            assert threshold(float(raw)) in (0, 1)


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
        input_dim=n,
        hidden_count=L,
        w_hidden=rng.uniform(-0.5, 0.5, size=(L, n)),
        b_hidden=rng.uniform(-0.5, 0.5, size=L),
        w_out=rng.uniform(-0.5, 0.5, size=L),
        b_out=float(rng.uniform(-0.5, 0.5)),
        learning_rate=0.2,
        max_epochs=200,
        goal_mse=1e-4,
        seed=0,
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
        data = TrainingSet(
            inputs=rng.integers(0, 2, size=(40, 5)).astype(float),
            targets=np.zeros(40),
        )
        model = bp_train(data, hidden_count=50, max_epochs=2000, seed=3)
        assert model.epochs_run < 2000  # goal-triggered early stop
        y = bp_predict_many(model, data.inputs)
        assert np.mean(y**2) <= 1e-4

    def test_zero_weight_net_outputs_sigmoid_bias(self):
        model = _random_bp(np.random.default_rng(0), 4, 6)
        model.w_hidden[:] = 0.0
        model.b_hidden[:] = 0.0
        model.w_out[:] = 0.0
        model.b_out = 0.3
        expect = 1.0 / (1.0 + np.exp(-0.3))
        assert bp_predict(model, [0, 1, 0, 1]) == pytest.approx(expect, abs=1e-12)

    def test_dimension_mismatch(self):
        model = _random_bp(np.random.default_rng(0), 4, 6)
        with pytest.raises(ValueError):
            bp_predict(model, [0, 1])

    def test_learns_alternating_trace(self):
        # strict alternation is linearly separable from the last bit
        states = np.tile([0, 1], 200)
        data = make_training_set(states, 4)
        model = bp_train(data, hidden_count=10, max_epochs=200, seed=2)
        raw = bp_predict_many(model, data.inputs)
        acc = np.mean((raw >= 0.5).astype(int) == data.targets)
        assert acc > 0.5

    def test_determinism(self):
        tr = generate_trace(ChannelParams(10.0, 10.0), 300, seed=4)
        data = make_training_set(tr, 10)
        a = bp_train(data, hidden_count=8, max_epochs=20, seed=7)
        b = bp_train(data, hidden_count=8, max_epochs=20, seed=7)
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


def _bp_train_reference(data, hidden_count, learning_rate, max_epochs, goal_mse, seed):
    """Two forward passes per epoch (gradients, then the stop check)."""

    def forward(w1, b1, w2, b2, X):
        h = _sigmoid_reference(X @ w1.T + b1)
        return h, _sigmoid_reference(h @ w2 + b2)

    rng = make_rng(seed)
    n = data.window
    w1 = rng.uniform(-0.5, 0.5, size=(hidden_count, n))
    b1 = rng.uniform(-0.5, 0.5, size=hidden_count)
    w2 = rng.uniform(-0.5, 0.5, size=hidden_count)
    b2 = float(rng.uniform(-0.5, 0.5))
    X, T = data.inputs, data.targets
    S = X.shape[0]
    epochs_run = 0
    for _ in range(max_epochs):
        h, y = forward(w1, b1, w2, b2, X)
        g_out = (2.0 / S) * (y - T) * y * (1.0 - y)
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
        if float(np.mean((y - T) ** 2)) <= goal_mse:
            break
    return w1, b1, w2, b2, epochs_run


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestBpBitExact:
    """The in-place sigmoid and one-pass training give the old bits exactly."""

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
            data, hidden_count=50, learning_rate=0.2, max_epochs=max_epochs,
            goal_mse=goal_mse, seed=5,
        )
        w1, b1, w2, b2, epochs_run = _bp_train_reference(
            data, 50, 0.2, max_epochs, goal_mse, 5
        )
        assert model.epochs_run == epochs_run == expect_epochs
        np.testing.assert_array_equal(_bits(model.w_hidden), _bits(w1))
        np.testing.assert_array_equal(_bits(model.b_hidden), _bits(b1))
        np.testing.assert_array_equal(_bits(model.w_out), _bits(w2))
        assert _bits(model.b_out) == _bits(b2)


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
            lambda m, X, T: bp_predict(m, X[0]),
            lambda m, X, T: bp_predict_many(m, X),
            lambda m, X, T: bp_loss(m, X, T),
            lambda m, X, T: bp_gradients(m, X, T),
        ],
        ids=["bp_predict", "bp_predict_many", "bp_loss", "bp_gradients"],
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
        assert hmm_predict(model, [1, 0]) == 1
        assert hmm_predict(model, [0, 1]) == 0

    def test_predict_persistent(self):
        eye = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = HmmModel(pi=np.array([0.5, 0.5]), A=eye, B=eye)
        assert hmm_predict(model, [1, 1, 1]) == 1
        assert hmm_predict(model, [1]) == 1

    def test_single_observation(self):
        states = np.tile([0, 1], 500)
        model = hmm_fit(states)
        assert hmm_predict(model, [0]) == 1

    def test_bad_observation(self):
        model = hmm_fit(np.tile([0, 1], 50))
        with pytest.raises(ValueError):
            hmm_predict(model, [0, 2])


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


# small integer weights make zero entries (log -inf) and exact ties common
_weight = st.one_of(st.integers(0, 3).map(float), st.floats(1e-3, 1.0))


def _stochastic(n_rows, n_cols):
    rows = st.lists(
        st.lists(_weight, min_size=n_cols, max_size=n_cols).filter(any),
        min_size=n_rows, max_size=n_rows,
    )
    return rows.map(lambda r: np.array(r) / np.array(r).sum(axis=1, keepdims=True))


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


class TestHmmMatchesNumpyViterbi:
    @settings(max_examples=300, deadline=None)
    @given(_hmm_and_window())
    def test_same_prediction(self, case):
        model, window = case
        assert hmm_predict(model, window) == _hmm_predict_reference(model, window)

    def test_fitted_model_on_trace_windows(self):
        tr = generate_trace(ChannelParams(7.0, 3.0), 3000, seed=12)
        model = hmm_fit(tr)
        for w in make_training_set(tr, 10).inputs.astype(np.int64):
            assert hmm_predict(model, w) == _hmm_predict_reference(model, w)


class TestEvalPrediction:
    def test_perfect(self):
        m = eval_prediction([1, 0, 1, 0], [1, 0, 1, 0])
        assert m.p_d == 1.0
        assert m.p_fa == 0.0
        assert m.accuracy == 1.0

    def test_total_mismatch(self):
        m = eval_prediction([1, 0], [0, 1])
        assert m.p_d == 0.0
        assert m.p_fa == 1.0
        assert m.accuracy == 0.0

    def test_speedup_matches_reported_values(self):
        m = eval_prediction([1], [1], train_times=(0.0486, 4.4631))
        assert m.i_speed == pytest.approx(98.92, abs=0.01)
        assert m.d_time == pytest.approx(0.0486 / 4.4631, rel=1e-12)
        assert m.train_time == 0.0486

    def test_undefined_metrics_are_none(self):
        m = eval_prediction([0, 0], [0, 0])
        assert m.p_d is None  # no busy slots to detect
        assert m.p_fa == 0.0
        m2 = eval_prediction([1, 1], [1, 1])
        assert m2.p_fa is None
        assert m2.p_d == 1.0

    def test_mse_from_raw(self):
        m = eval_prediction([1, 0], [1, 1], raw=[0.9, 0.4])
        assert m.mse == pytest.approx((0.1**2 + 0.6**2) / 2, abs=1e-12)
        assert eval_prediction([1, 0], [1, 1]).mse is None

    def test_identity_from_confusion_counts(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 50))
            pred = rng.integers(0, 2, size=n)
            act = rng.integers(0, 2, size=n)
            m = eval_prediction(pred, act)
            tp = np.sum((pred == 1) & (act == 1))
            tn = np.sum((pred == 0) & (act == 0))
            assert m.accuracy == (tp + tn) / n
            if m.p_d is not None:
                assert m.p_d == tp / np.sum(act == 1)
            if m.p_fa is not None:
                assert m.p_fa == 1 - tn / np.sum(act == 0)


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


class TestJsonRoundTrip:
    def test_elm(self):
        tr = generate_trace(ChannelParams(10.0, 10.0), 400, seed=8)
        data = make_training_set(tr, 10)
        model = elm_train(data, 20, seed=1)
        back = model_from_json(model_to_json(model))
        a = elm_predict_many(model, data.inputs[:50])
        b = elm_predict_many(back, data.inputs[:50])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_bp(self):
        tr = generate_trace(ChannelParams(10.0, 10.0), 300, seed=9)
        data = make_training_set(tr, 10)
        model = bp_train(data, hidden_count=6, max_epochs=10, seed=4)
        back = model_from_json(model_to_json(model))
        a = bp_predict_many(model, data.inputs[:50])
        b = bp_predict_many(back, data.inputs[:50])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_hmm(self):
        tr = generate_trace(ChannelParams(5.0, 5.0), 2000, seed=10)
        model = hmm_fit(tr)
        back = model_from_json(model_to_json(model))
        obs = list(tr.states[:30])
        assert hmm_predict(model, obs) == hmm_predict(back, obs)

    def test_canonical_key_order(self):
        tr = generate_trace(ChannelParams(5.0, 5.0), 200, seed=3)
        model = hmm_fit(tr)
        assert model_to_json(model) == model_to_json(model)
