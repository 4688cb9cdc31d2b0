"""The from-scratch bidirectional LSTM: shapes, gradients, training behavior."""
import tracemalloc

import numpy as np
import pytest

from cardiosleep import blstm
from cardiosleep.errors import (EmptyDataset, ManifestMismatch, NonFiniteInput,
                                NonFiniteLoss, ShapeMismatch)

DIM = 10


def _random_batch(rng, n_seqs=3, t=8, dim=DIM, classes=4):
    return [(rng.normal(size=(t, dim)), rng.integers(0, classes, t))
            for _ in range(n_seqs)]


class TestInit:
    def test_parameter_count_closed_form(self):
        p = blstm.init_params(0, input_dim=152, hidden=16, layers=2, classes=4)
        h, d0, d1, c = 16, 152, 32, 4
        expected = (2 * (4 * h * d0 + 4 * h * h + 4 * h)       # layer 0, both dirs
                    + 2 * (4 * h * d1 + 4 * h * h + 4 * h)     # layer 1
                    + c * 2 * h + c)                           # output head
        assert sum(w.size for w in p.weights.values()) == expected

    def test_deterministic_per_seed(self):
        a = blstm.init_params(7, input_dim=DIM)
        b = blstm.init_params(7, input_dim=DIM)
        c = blstm.init_params(8, input_dim=DIM)
        for k in a.weights:
            assert np.array_equal(a.weights[k], b.weights[k])
        assert any(not np.array_equal(a.weights[k], c.weights[k])
                   for k in a.weights)

    def test_forget_bias_one(self):
        p = blstm.init_params(0, input_dim=DIM, hidden=16)
        b = p.weights["l0f_b"]
        assert np.all(b[16:32] == 1.0)
        assert np.all(b[:16] == 0.0)

    def test_unidirectional_variant(self):
        p = blstm.init_params(0, input_dim=DIM, bidirectional=False)
        assert p.directions == ("f",)
        assert "l0b_W" not in p.weights


class TestForward:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(0)
        p = blstm.init_params(0, input_dim=DIM)
        probs = blstm.forward(p, rng.normal(size=(12, DIM)))
        assert probs.shape == (12, 4)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs > 0)

    def test_zero_output_weights_give_uniform(self):
        rng = np.random.default_rng(1)
        p = blstm.init_params(0, input_dim=DIM)
        p.weights["out_W"][:] = 0.0
        p.weights["out_b"][:] = 0.0
        probs = blstm.forward(p, rng.normal(size=(5, DIM)))
        assert np.allclose(probs, 0.25)

    def test_bidirectional_output_is_time_reversal_covariant(self):
        """Swapping the forward and backward weight blocks and reversing the
        input reverses the output of a single bidirectional layer stack."""
        rng = np.random.default_rng(2)
        p = blstm.init_params(3, input_dim=DIM)
        q = p.copy()
        h = p.hidden

        def swap_halves(w):
            return np.concatenate([w[:, h:], w[:, :h]], axis=1)

        for l in range(p.layers):
            for part in ("W", "U", "b"):
                q.weights[f"l{l}f_{part}"] = p.weights[f"l{l}b_{part}"].copy()
                q.weights[f"l{l}b_{part}"] = p.weights[f"l{l}f_{part}"].copy()
            if l > 0:
                # deeper layers consume [forward, backward] concatenations,
                # whose halves also swap under time reversal
                q.weights[f"l{l}f_W"] = swap_halves(q.weights[f"l{l}f_W"])
                q.weights[f"l{l}b_W"] = swap_halves(q.weights[f"l{l}b_W"])
        q.weights["out_W"] = swap_halves(p.weights["out_W"])
        X = rng.normal(size=(9, DIM))
        assert np.allclose(blstm.forward(q, X[::-1])[::-1],
                           blstm.forward(p, X), atol=1e-12)

    def test_shape_errors(self):
        p = blstm.init_params(0, input_dim=DIM)
        with pytest.raises(ShapeMismatch):
            blstm.forward(p, np.zeros((3, DIM + 1)))
        with pytest.raises(ShapeMismatch):
            blstm.forward(p, np.zeros((0, DIM)))

    def test_non_finite_input_rejected(self):
        p = blstm.init_params(0, input_dim=DIM)
        X = np.zeros((4, DIM))
        X[1, 2] = np.nan
        with pytest.raises(NonFiniteInput):
            blstm.forward(p, X)

    def test_predict_matches_forward_argmax(self):
        rng = np.random.default_rng(4)
        p = blstm.init_params(1, input_dim=DIM)
        X = rng.normal(size=(15, DIM))
        hyp = blstm.predict(p, X)
        assert np.array_equal(hyp.indices(),
                              np.argmax(blstm.forward(p, X), axis=1))


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        p = blstm.init_params(0, input_dim=DIM, hidden=5, layers=2)
        batch = _random_batch(rng, n_seqs=2, t=6)
        cw = np.array([1.0, 2.0, 0.5, 1.5])
        loss, grads = blstm.loss_and_gradients(p, batch, cw)
        # 1e-4 keeps finite-difference roundoff below truncation error for
        # coordinates whose gradient is itself tiny
        eps = 1e-4
        worst = 0.0
        keys = list(p.weights)
        for _ in range(60):
            k = keys[rng.integers(len(keys))]
            idx = tuple(rng.integers(s) for s in p.weights[k].shape)
            orig = p.weights[k][idx]
            p.weights[k][idx] = orig + eps
            lp, _ = blstm.loss_and_gradients(p, batch, cw)
            p.weights[k][idx] = orig - eps
            lm, _ = blstm.loss_and_gradients(p, batch, cw)
            p.weights[k][idx] = orig
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(grads[k][idx]), 1e-8)
            worst = max(worst, abs(fd - grads[k][idx]) / denom)
        assert worst < 1e-5

    def test_weighted_loss_closed_form_uniform_model(self):
        # zeroed output head -> uniform probabilities -> loss = ln 4
        p = blstm.init_params(0, input_dim=DIM)
        p.weights["out_W"][:] = 0.0
        p.weights["out_b"][:] = 0.0
        rng = np.random.default_rng(6)
        batch = _random_batch(rng, n_seqs=1, t=10)
        loss, _ = blstm.loss_and_gradients(p, batch,
                                           np.array([1.0, 3.0, 0.5, 2.0]))
        assert loss == pytest.approx(np.log(4.0), abs=1e-12)

    def test_empty_batch_rejected(self):
        p = blstm.init_params(0, input_dim=DIM)
        with pytest.raises(EmptyDataset):
            blstm.loss_and_gradients(p, [])


# --- per-timestep reference ------------------------------------------------
# The original loop formulation of one direction: it walks time backwards
# for the backward direction and does the input projection and the weight
# gradient updates inside the loop. The vectorised implementation must match
# it within float64 round-off.

def _ref_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_run_direction(W, U, b, X, reverse):
    T = X.shape[0]
    H = U.shape[1]
    hs = np.zeros((T, H))
    cache = [None] * T
    h = np.zeros(H)
    c = np.zeros(H)
    order = range(T - 1, -1, -1) if reverse else range(T)
    for t in order:
        z = W @ X[t] + U @ h + b
        i = _ref_sigmoid(z[:H])
        f = _ref_sigmoid(z[H:2 * H])
        g = np.tanh(z[2 * H:3 * H])
        o = _ref_sigmoid(z[3 * H:])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        cache[t] = (i, f, g, o, c, h, tc, X[t])
        h = o * tc
        c = c_new
        hs[t] = h
    return hs, cache


def _ref_backward_direction(W, U, dH, cache, reverse):
    T = len(cache)
    H = U.shape[1]
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros(4 * H)
    dX = np.zeros((T, W.shape[1]))
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    order = range(T) if reverse else range(T - 1, -1, -1)
    for t in order:
        i, f, g, o, c_prev, h_prev, tc, x = cache[t]
        dh = dH[t] + dh_next
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dc_next = dc * f
        dz = np.concatenate([di * i * (1 - i), df * f * (1 - f),
                             dg * (1 - g * g), do * o * (1 - o)])
        dW += np.outer(dz, x)
        dU += np.outer(dz, h_prev)
        db += dz
        dX[t] = W.T @ dz
        dh_next = U.T @ dz
    return dW, dU, db, dX


def _ref_forward(p, X):
    layer_in, layers = X, []
    for l in range(p.layers):
        outs, caches = [], {}
        for d in p.directions:
            hs, caches[d] = _ref_run_direction(
                p.weights[f"l{l}{d}_W"], p.weights[f"l{l}{d}_U"],
                p.weights[f"l{l}{d}_b"], layer_in, reverse=(d == "b"))
            outs.append(hs)
        layers.append(caches)
        layer_in = np.concatenate(outs, axis=1)
    logits = layer_in @ p.weights["out_W"].T + p.weights["out_b"]
    expz = np.exp(logits - logits.max(axis=1, keepdims=True))
    return expz / expz.sum(axis=1, keepdims=True), layer_in, layers


def _ref_loss_and_gradients(p, batch, cw):
    grads = {k: np.zeros_like(v) for k, v in p.weights.items()}
    runs = [(_ref_forward(p, X), y) for X, y in batch]
    total_w = sum(float(np.sum(cw[y])) for _, y in batch)
    loss = sum(float(np.sum(-cw[y] * np.log(probs[np.arange(len(y)), y])))
               for (probs, _, _), y in runs) / total_w
    H = p.hidden
    for (probs, hcat, layers), y in runs:
        dlogits = probs.copy()
        dlogits[np.arange(len(y)), y] -= 1.0
        dlogits *= (cw[y] / total_w)[:, None]
        grads["out_W"] += dlogits.T @ hcat
        grads["out_b"] += dlogits.sum(axis=0)
        dlayer = dlogits @ p.weights["out_W"]
        for l in range(p.layers - 1, -1, -1):
            dX_total = 0.0
            for k, d in enumerate(p.directions):
                dW, dU, db, dX = _ref_backward_direction(
                    p.weights[f"l{l}{d}_W"], p.weights[f"l{l}{d}_U"],
                    dlayer[:, k * H:(k + 1) * H], layers[l][d],
                    reverse=(d == "b"))
                grads[f"l{l}{d}_W"] += dW
                grads[f"l{l}{d}_U"] += dU
                grads[f"l{l}{d}_b"] += db
                dX_total = dX_total + dX
            dlayer = dX_total
    return loss, grads


def _assert_round_off_close(actual, expected):
    # float64 round-off: relative 1e-12, absolute 1e-12 of the array's scale
    scale = float(np.max(np.abs(expected)))
    np.testing.assert_allclose(actual, expected, rtol=1e-12,
                               atol=1e-12 * scale)


def _perturbed_params(rng, bidirectional):
    p = blstm.init_params(2, input_dim=DIM, layers=2,
                          bidirectional=bidirectional)
    for k in p.weights:  # non-zero biases exercise every term
        p.weights[k] += rng.normal(0, 0.3, p.weights[k].shape)
    return p


def _ragged(rng, lengths):
    return [(rng.normal(0, 2.0, (t, DIM)), rng.integers(0, 4, t))
            for t in lengths]


class TestMatchesPerTimestepReference:
    @pytest.mark.parametrize("bidirectional", [True, False],
                             ids=["bidirectional", "unidirectional"])
    @pytest.mark.parametrize("t", [1, 120])
    def test_forward_and_gradients(self, bidirectional, t):
        rng = np.random.default_rng(11)
        p = blstm.init_params(2, input_dim=DIM, layers=2,
                              bidirectional=bidirectional)
        for k in p.weights:  # non-zero biases exercise every term
            p.weights[k] += rng.normal(0, 0.3, p.weights[k].shape)
        batch = [(rng.normal(0, 2.0, (t, DIM)), rng.integers(0, 4, t)),
                 (rng.normal(0, 2.0, (t + 3, DIM)), rng.integers(0, 4, t + 3))]
        cw = np.array([1.0, 2.0, 0.5, 1.5])
        for X, _ in batch:
            _assert_round_off_close(blstm.forward(p, X), _ref_forward(p, X)[0])
        loss, grads = blstm.loss_and_gradients(p, batch, cw)
        ref_loss, ref_grads = _ref_loss_and_gradients(p, batch, cw)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert grads.keys() == ref_grads.keys()
        for k in grads:
            _assert_round_off_close(grads[k], ref_grads[k])

    @pytest.mark.parametrize("bidirectional", [True, False],
                             ids=["bidirectional", "unidirectional"])
    def test_ragged_batch(self, bidirectional):
        # one padded batch: the shorter sequences end long before the longest
        rng = np.random.default_rng(12)
        p = _perturbed_params(rng, bidirectional)
        batch = _ragged(rng, (1, 120, 37))
        cw = np.array([1.0, 2.0, 0.5, 1.5])
        loss, grads = blstm.loss_and_gradients(p, batch, cw)
        ref_loss, ref_grads = _ref_loss_and_gradients(p, batch, cw)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for k in ref_grads:
            _assert_round_off_close(grads[k], ref_grads[k])


class TestPaddingIsolation:
    def test_batched_evaluation_matches_each_sequence_alone(self):
        rng = np.random.default_rng(13)
        p = _perturbed_params(rng, True)
        data = _ragged(rng, (1, 120, 37, 5))
        cw = np.array([1.0, 2.0, 0.5, 1.5])
        loss = weight = 0.0
        correct = 0
        for X, y in data:
            probs = _ref_forward(p, X)[0]
            loss -= float(np.sum(cw[y] * np.log(probs[np.arange(len(y)), y])))
            weight += float(np.sum(cw[y]))
            correct += int(np.sum(np.argmax(probs, axis=1) == y))
        got_loss, got_acc = blstm.evaluate_loss(p, data, cw)
        assert got_loss == pytest.approx(loss / weight, rel=1e-12)
        assert got_acc == correct / sum(len(y) for _, y in data)
        for probs, (X, _) in zip(blstm.forward_batch(p, [X for X, _ in data]),
                                 data):
            _assert_round_off_close(probs, _ref_forward(p, X)[0])

    def test_grouped_prediction_matches_each_sequence_alone(self,
                                                            monkeypatch):
        rng = np.random.default_rng(16)
        p = _perturbed_params(rng, True)
        lengths = (120, 37, 5, 200, 1, 400, 90, 60)
        seqs = [X for X, _ in _ragged(rng, lengths)]
        monkeypatch.setattr(blstm, "BATCH_STEPS", 300)
        groups = list(blstm._groups(np.array(lengths)))
        # consecutive, covering, within the bound or one sequence alone
        assert [a for a, _ in groups] == [0] + [b for _, b in groups[:-1]]
        assert groups[-1][1] == len(lengths)
        assert len(groups) > 2
        for a, b in groups:
            assert b - a == 1 or max(lengths[a:b]) * (b - a) <= 300
        got = blstm.forward_batch(p, seqs)
        assert len(got) == len(seqs)
        for probs, X in zip(got, seqs):
            assert probs.shape == (len(X), 4)
            _assert_round_off_close(probs, blstm.forward(p, X))

    def test_short_cohort_is_one_group(self):
        assert list(blstm._groups(np.full(10, 120))) == [(0, 10)]

    def test_grouping_bounds_the_peak_of_long_nights(self):
        rng = np.random.default_rng(17)
        p = blstm.init_params(0, input_dim=DIM)
        seqs = [rng.normal(size=(int(t), DIM)) for t in rng.integers(900, 1000, 30)]
        inputs, lengths = blstm._check(p, seqs)

        def traced_peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        whole = traced_peak(lambda: blstm._forward_full(p, inputs, lengths))
        grouped = traced_peak(lambda: blstm.forward_batch(p, seqs))
        assert grouped < whole / 2

    @pytest.mark.parametrize("bad, error", [
        (np.zeros((0, DIM)), ShapeMismatch),
        (np.zeros((6, DIM + 1)), ShapeMismatch),
        (np.full((6, DIM), np.nan), NonFiniteInput),
    ], ids=["empty", "wrong-width", "non-finite"])
    def test_one_bad_sequence_fails_the_batch_as_it_fails_alone(self, bad,
                                                                error):
        rng = np.random.default_rng(14)
        p = blstm.init_params(0, input_dim=DIM)
        good = _ragged(rng, (8, 3))
        with pytest.raises(error):
            blstm.forward(p, bad)
        with pytest.raises(error):
            blstm.forward_batch(p, [good[0][0], bad, good[1][0]])
        labeled = [good[0], (bad, np.zeros(len(bad), dtype=int)), good[1]]
        with pytest.raises(error):
            blstm.evaluate_loss(p, labeled, np.ones(4))
        with pytest.raises(error):
            blstm.loss_and_gradients(p, labeled)

    def test_label_length_mismatch_rejected(self):
        rng = np.random.default_rng(15)
        p = blstm.init_params(0, input_dim=DIM)
        X, y = _ragged(rng, (8,))[0]
        for batch in ([(X, y[:-1])], _ragged(rng, (3,)) + [(X, y[:-1])]):
            with pytest.raises(ShapeMismatch):
                blstm.loss_and_gradients(p, batch)
            with pytest.raises(ShapeMismatch):
                blstm.evaluate_loss(p, batch, np.ones(4))


class TestTraining:
    def test_zero_learning_rate_is_a_no_op(self):
        rng = np.random.default_rng(7)
        data = _random_batch(rng, n_seqs=2, t=6)
        cfg = blstm.TrainConfig(learning_rate=0.0, max_epochs=2, seed=0,
                                patience=99)
        params, _ = blstm.train(cfg, data)
        fresh = blstm.init_params(0, input_dim=DIM)
        for k in fresh.weights:
            assert np.allclose(params.weights[k], fresh.weights[k])

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(8)
        data = _random_batch(rng, n_seqs=4, t=6)
        cfg = blstm.TrainConfig(max_epochs=3, seed=5)
        a, ha = blstm.train(cfg, data)
        b, hb = blstm.train(cfg, data)
        assert ha == hb
        for k in a.weights:
            assert np.array_equal(a.weights[k], b.weights[k])

    def test_loss_decreases_on_learnable_data(self):
        rng = np.random.default_rng(9)
        # class mean encoded directly in the features
        data = []
        for _ in range(4):
            y = rng.integers(0, 4, 12)
            X = np.eye(4)[y] @ np.eye(4, DIM) * 3 + rng.normal(0, 0.1, (12, DIM))
            data.append((X, y))
        cfg = blstm.TrainConfig(learning_rate=0.02, max_epochs=50,
                                batch_size=1, seed=0, patience=50)
        _, history = blstm.train(cfg, data)
        assert history["train_loss"][-1] < history["train_loss"][0] * 0.5
        assert history["train_acc"][-1] > 0.9

    def test_early_stopping_restores_best_params(self):
        rng = np.random.default_rng(10)
        train_data = _random_batch(rng, n_seqs=3, t=8)
        val_data = _random_batch(rng, n_seqs=2, t=8)
        cfg = blstm.TrainConfig(max_epochs=40, patience=3, seed=1)
        params, history = blstm.train(cfg, train_data, val_data)
        best_epoch = int(np.argmin(history["val_loss"]))
        assert len(history["val_loss"]) <= best_epoch + 1 + cfg.patience + 1
        cw = blstm.default_class_weights([y for _, y in train_data])
        loss, _ = blstm.evaluate_loss(params, val_data, cw)
        assert loss == pytest.approx(min(history["val_loss"]), abs=1e-9)

    def test_empty_training_set_rejected(self):
        with pytest.raises(EmptyDataset):
            blstm.train(blstm.TrainConfig(), [])


class TestClassWeights:
    def test_inverse_frequency_mean_normalized(self):
        y = [np.array([0, 0, 0, 1])]
        w = blstm.default_class_weights(y, classes=2)
        # frequencies 0.75 / 0.25 -> raw 4/3, 4 -> mean-normalized 0.5, 1.5
        assert w == pytest.approx([0.5, 1.5])

    def test_floor_clamp(self):
        # frequencies 0.99 / 0.01 -> mean-normalized 0.02, 1.98; the common
        # class hits the 0.25 floor
        y = [np.array([0] * 99 + [1])]
        w = blstm.default_class_weights(y, classes=2)
        assert w[0] == 0.25
        assert w[1] == pytest.approx(1.98)

    def test_ceiling_clamp(self):
        w = blstm.default_class_weights([np.array([0] * 99 + [1])], classes=2,
                                        clamp=(0.25, 1.5))
        assert w[1] == 1.5

    def test_absent_class_gets_neutral_weight(self):
        y = [np.array([0, 1, 0, 1])]
        w = blstm.default_class_weights(y, classes=4)
        assert w[0] == w[1]
        assert np.all(w >= 0.25)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        p = blstm.init_params(0, input_dim=DIM)
        path = tmp_path / "model.npz"
        blstm.save_checkpoint(p, path, "hash123", {"seed": 0})
        q, meta = blstm.load_checkpoint(path, "hash123")
        assert meta["manifest_hash"] == "hash123"
        assert q.input_dim == DIM and q.bidirectional
        for k in p.weights:
            assert np.array_equal(p.weights[k], q.weights[k])
        X = np.random.default_rng(0).normal(size=(6, DIM))
        assert np.array_equal(blstm.forward(p, X), blstm.forward(q, X))

    def test_manifest_hash_mismatch_refused(self, tmp_path):
        p = blstm.init_params(0, input_dim=DIM)
        path = tmp_path / "model.npz"
        blstm.save_checkpoint(p, path, "hash123")
        with pytest.raises(ManifestMismatch):
            blstm.load_checkpoint(path, "otherhash")

    def test_load_without_expectation_skips_check(self, tmp_path):
        p = blstm.init_params(0, input_dim=DIM)
        path = tmp_path / "model.npz"
        blstm.save_checkpoint(p, path, "hash123")
        q, _ = blstm.load_checkpoint(path)
        assert all(np.array_equal(q.weights[k], p.weights[k]) for k in p.weights)
