import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubplan import nn
from hubplan.maze.raster import OBS_SIZE
from hubplan.nn import tensor as T

from conftest import traced_peak_bytes
from gradient_reference import finite_diff_check, sigmoid
from lowlevel_reference import unfused_linear


def make_gru(rng, n_in, n_h):
    return nn.GruCellParams.create(rng, n_in, n_h, "gru")


def zero_gru(n_in, n_h):
    p = nn.GruCellParams.create(np.random.default_rng(0), n_in, n_h, "gru")
    for t in p.tensors().values():
        t.data = np.zeros_like(t.data)
    return p


def scalar_gru_reference(params, x, h):
    """Hand-rolled scalar-loop gated recurrent step; the oracle for gru_step."""
    n_h = params.hidden_size
    n_in = params.input_size
    w_u, u_u, b_u = params.w_update.data, params.u_update.data, params.b_update.data
    w_r, u_r, b_r = params.w_reset.data, params.u_reset.data, params.b_reset.data
    w_c, u_c, b_c = params.w_cand.data, params.u_cand.data, params.b_cand.data
    out = np.zeros(n_h)
    for j in range(n_h):
        au = br = ac = 0.0
        au = sum(x[i] * w_u[i, j] for i in range(n_in)) + sum(h[k] * u_u[k, j] for k in range(n_h)) + b_u[j]
        ar = sum(x[i] * w_r[i, j] for i in range(n_in)) + sum(h[k] * u_r[k, j] for k in range(n_h)) + b_r[j]
        u = 1.0 / (1.0 + math.exp(-au))
        r = 1.0 / (1.0 + math.exp(-ar))
        # candidate needs the full reset-scaled hidden vector
        ac = sum(x[i] * w_c[i, j] for i in range(n_in)) + b_c[j]
        for k in range(n_h):
            rk = 1.0 / (1.0 + math.exp(-(
                sum(x[i] * w_r[i, k] for i in range(n_in))
                + sum(h[m] * u_r[m, k] for m in range(n_h)) + b_r[k])))
            ac += rk * h[k] * u_c[k, j]
        c = math.tanh(ac)
        out[j] = (1.0 - u) * h[j] + u * c
    return out


class TestGruStep:
    def test_zero_params_halves_hidden(self):
        p = zero_gru(3, 4)
        v = np.array([0.3, -1.2, 0.5, 2.0])
        h = nn.gru_step(p, np.zeros(3), v)
        np.testing.assert_allclose(h.data[0], 0.5 * v, rtol=0, atol=0)

    def test_zero_history_zero_params(self):
        p = zero_gru(2, 3)
        h = nn.gru_step(p, np.array([1.0, -1.0]), np.zeros(3))
        np.testing.assert_array_equal(h.data[0], np.zeros(3))

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        p = make_gru(rng, 5, 6)
        for _ in range(10):
            x = rng.normal(size=5)
            h = rng.normal(size=6)
            got = nn.gru_step(p, x, h).data[0]
            want = scalar_gru_reference(p, x, h)
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_shape_mismatch_rejected(self):
        p = make_gru(np.random.default_rng(0), 3, 4)
        with pytest.raises(nn.ShapeError):
            nn.gru_step(p, np.zeros(5), np.zeros(4))
        with pytest.raises(nn.ShapeError):
            nn.gru_step(p, np.zeros(3), np.zeros(7))


class TestBackprop:
    def test_square_gradient(self):
        x = nn.parameter(np.array([[3.0]]), "x")
        with nn.Tape() as tape:
            loss = nn.sum_all(T.mul(x, x))
        grads = nn.backprop(tape, loss)
        assert grads[x][0, 0] == pytest.approx(6.0, abs=1e-15)

    def test_perfect_predictor_zero_grads(self):
        w = nn.parameter(np.array([[2.0]]), "w")
        x = np.array([[1.0], [2.0], [3.0]])
        y = 2.0 * x
        with nn.Tape() as tape:
            pred = nn.matmul(nn.Tensor(x), w)
            diff = T.sub(pred, y)
            loss = T.scale(nn.sum_all(T.mul(diff, diff)), 1.0 / 3.0)
        grads = nn.backprop(tape, loss)
        np.testing.assert_allclose(grads[w], 0.0, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = nn.parameter(np.ones((2, 2)), "x")
        with nn.Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(nn.ShapeError):
            nn.backprop(tape, y)

    def test_two_layer_network_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        w1 = nn.init_weight(rng, 4, 5, "w1")
        b1 = nn.init_bias(5, "b1")
        w2 = nn.init_weight(rng, 5, 3, "w2")
        b2 = nn.init_bias(3, "b2")
        x = rng.normal(size=(6, 4))
        tgt = rng.integers(0, 3, size=6)

        def f():
            h = nn.relu(T.add(nn.matmul(nn.Tensor(x), w1), b1))
            logits = T.add(nn.matmul(h, w2), b2)
            return nn.softmax_cross_entropy(logits, tgt)

        err = finite_diff_check(f, [w1, b1, w2, b2], h=1e-5)
        assert err < 1e-4

    def test_gradient_dropped_once_its_node_has_run(self):
        x = nn.parameter(np.array([[0.3, -0.2]]), "x")
        with nn.Tape() as tape:
            y1 = nn.tanh(x)
            y2 = nn.tanh(y1)
            loss = nn.sum_all(T.mul(y2, y2))
        seen = []
        backward = y1._backward

        def spy(g):
            seen.append((y1.grad, y2.grad, loss.grad))
            backward(g)

        y1._backward = spy
        grads = nn.backprop(tape, loss)
        assert seen == [(None, None, None)]
        assert all(node.grad is None for node in tape.nodes)
        assert set(grads) == {x}

    def test_forward_twice_is_bit_identical(self):
        rng = np.random.default_rng(3)
        w = nn.init_weight(rng, 3, 3, "w")
        p = make_gru(rng, 3, 4)
        x = rng.normal(size=(2, 3))

        def forward():
            with nn.Tape() as tape:
                h = nn.tanh(nn.matmul(nn.Tensor(x), w))
                h = nn.gru_step(p, h, nn.Tensor(np.ones((2, 4))))
                nn.sum_all(T.mul(h, h))
            return [node.data for node in tape.nodes]

        first, second = forward(), forward()
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


def unfused_gru_step(p, x, h):
    """The gated recurrent step composed from primitive tape ops: the
    reference the fused node must match bit for bit."""
    u = sigmoid(T.add(T.add(nn.matmul(x, p.w_update), nn.matmul(h, p.u_update)), p.b_update))
    r = sigmoid(T.add(T.add(nn.matmul(x, p.w_reset), nn.matmul(h, p.u_reset)), p.b_reset))
    c = nn.tanh(T.add(T.add(nn.matmul(x, p.w_cand), nn.matmul(T.mul(r, h), p.u_cand)), p.b_cand))
    return T.add(T.mul(T.sub(1.0, u), h), T.mul(u, c))


class TestFusedGru:
    """Gradients through the one-node `gru_step` equal the primitive composition's exactly."""

    def assert_same_grads(self, loss_fn, params):
        results = []
        for step in (nn.gru_step, unfused_gru_step):
            with nn.Tape() as tape:
                loss = loss_fn(step)
            results.append((loss.data, nn.backprop(tape, loss)))
        (fused_loss, fused), (ref_loss, ref) = results
        assert np.array_equal(fused_loss, ref_loss)
        assert set(fused) == set(ref) == set(params)
        for q in params:
            assert np.array_equal(fused[q], ref[q]), q.name

    def test_one_node_per_step(self):
        p = make_gru(np.random.default_rng(0), 3, 4)
        with nn.Tape() as tape:
            nn.gru_step(p, np.ones(3), np.ones(4))
        assert len(tape.nodes) == 1

    def test_chain_holds_four_arrays_per_step(self):
        """Each step of a tape of steps adds the memory, the two gates and
        the candidate: four (batch, hidden) arrays and the node itself,
        under five arrays. (A node that keeps the whole `GruCache` adds six.)"""
        rng = np.random.default_rng(34)
        p = make_gru(rng, 16, 32)
        x = nn.Tensor(rng.normal(size=(64, 16)))
        one_array = 64 * 32 * 8

        def chain(steps):
            with nn.Tape() as tape:
                h = nn.Tensor(np.zeros((64, 32)))
                for _ in range(steps):
                    h = nn.gru_step(p, x, h)
            return tape

        (tape, short), (_, long) = traced_peak_bytes(chain, 40), traced_peak_bytes(chain, 80)
        assert len(tape.nodes) == 40
        per_step = (long - short) / 40 / one_array
        assert per_step < 5, per_step

    def test_hidden_feeds_head(self):
        # policy and hub wiring: an encoded input per step, a head on every h_t
        rng = np.random.default_rng(31)
        p = make_gru(rng, 6, 5)
        enc_w = nn.init_weight(rng, 8, 6, "enc_w")
        enc_b = nn.parameter(rng.normal(size=6), "enc_b")
        head_w = nn.init_weight(rng, 5, 4, "head_w")
        xs = rng.normal(size=(5, 3, 8))
        tgt = rng.integers(0, 4, size=(5, 3))
        weights = rng.uniform(0.0, 1.0, size=(5, 3))

        def loss_fn(step):
            h = nn.Tensor(np.zeros((3, 5)))
            loss = None
            for t in range(5):
                enc = nn.relu(T.add(nn.matmul(nn.Tensor(xs[t]), enc_w), enc_b))
                h = step(p, enc, h)
                ce = nn.softmax_cross_entropy(nn.matmul(h, head_w), tgt[t],
                                              sample_weight=weights[t], label_smoothing=0.05)
                term = T.scale(ce, 0.3 + 0.1 * t)
                loss = term if loss is None else T.add(loss, term)
            return loss

        self.assert_same_grads(loss_fn, [enc_w, enc_b, head_w, *p.tensors().values()])

    def test_input_also_feeds_later_add(self):
        # low-level wiring: z = imm + corr(h_t) after the step consumes imm
        rng = np.random.default_rng(32)
        p = make_gru(rng, 4, 4)
        w1 = nn.init_weight(rng, 7, 4, "w1")
        corr = nn.init_weight(rng, 4, 4, "corr")
        obs = rng.normal(size=(4, 2, 7))

        def loss_fn(step):
            h = nn.Tensor(np.zeros((2, 4)))
            loss = None
            for t in range(4):
                imm = nn.tanh(nn.matmul(nn.Tensor(obs[t]), w1))
                h = step(p, imm, h)
                z = T.add(imm, nn.matmul(h, corr))
                term = nn.sum_all(T.mul(z, z))
                loss = term if loss is None else T.add(loss, term)
            return loss

        self.assert_same_grads(loss_fn, [w1, corr, *p.tensors().values()])

    def test_constant_previous_hidden(self):
        # step 0: h_prev is data, not a node, and receives no gradient
        rng = np.random.default_rng(33)
        p = make_gru(rng, 3, 5)
        x = nn.parameter(rng.normal(size=(2, 3)), "x")
        h0 = nn.Tensor(rng.normal(size=(2, 5)))

        def loss_fn(step):
            h = step(p, x, h0)
            return nn.sum_all(T.mul(h, h))

        self.assert_same_grads(loss_fn, [x, *p.tensors().values()])
        assert h0.grad is None


class TestFusedLinear:
    """`linear` is one tape node whose value and gradients equal `matmul`
    then `add` exactly."""

    def assert_same(self, loss_fn, params):
        results = []
        for lin in (nn.linear, unfused_linear):
            with nn.Tape() as tape:
                loss = loss_fn(lin)
            results.append((loss.data, nn.backprop(tape, loss)))
        (loss, grads), (ref_loss, ref) = results
        assert np.array_equal(loss, ref_loss)
        assert set(grads) == set(ref) == set(params)
        for q in params:
            assert np.array_equal(grads[q], ref[q]), q.name

    def test_one_node(self):
        rng = np.random.default_rng(0)
        with nn.Tape() as tape:
            out = nn.linear(rng.normal(size=(3, 4)), nn.init_weight(rng, 4, 2, "w"),
                            nn.init_bias(2, "b"))
        assert len(tape.nodes) == 1 and out.data.shape == (3, 2)
        with pytest.raises(nn.ShapeError):
            nn.linear(np.ones((3, 5)), np.ones((4, 2)), np.ones(2))

    def test_input_feeds_later_nodes(self):
        # an MLP whose hidden layer also feeds a later add, as the encoder's
        # summary does; the input is data and receives no gradient
        rng = np.random.default_rng(1)
        w1, b1 = nn.init_weight(rng, 6, 5, "w1"), nn.parameter(rng.normal(size=5), "b1")
        w2, b2 = nn.init_weight(rng, 5, 5, "w2"), nn.parameter(rng.normal(size=5), "b2")
        w3, b3 = nn.init_weight(rng, 5, 3, "w3"), nn.parameter(rng.normal(size=3), "b3")
        x = rng.normal(size=(4, 6))
        tgt = rng.integers(0, 3, size=4)

        def loss_fn(lin):
            h = nn.tanh(lin(nn.Tensor(x), w1, b1))
            z = T.add(h, lin(h, w2, b2))
            return nn.softmax_cross_entropy(lin(nn.relu(z), w3, b3), tgt)

        self.assert_same(loss_fn, [w1, b1, w2, b2, w3, b3])

    def test_only_input_needs_gradient(self):
        rng = np.random.default_rng(2)
        x = nn.parameter(rng.normal(size=(3, 4)), "x")
        w, b = rng.normal(size=(4, 2)), rng.normal(size=2)

        def loss_fn(lin):
            y = lin(x, w, b)
            return nn.sum_all(T.mul(y, y))

        self.assert_same(loss_fn, [x])

    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        x = nn.parameter(rng.normal(size=(3, 4)), "x")
        w, b = nn.init_weight(rng, 4, 2, "w"), nn.parameter(rng.normal(size=2), "b")

        def f():
            return nn.sum_all(nn.tanh(nn.linear(x, w, b)))

        assert finite_diff_check(f, [x, w, b]) < 1e-4


class TestFusedHeadLoss:
    """`linear_softmax_cross_entropy` is one tape node whose loss and
    gradients equal `linear` then `softmax_cross_entropy` bit for bit."""

    @pytest.mark.parametrize("bias_shape", [(7,), (5, 7)], ids=["row_bias", "full_bias"])
    def test_matches_linear_then_loss_bitwise(self, bias_shape):
        rng = np.random.default_rng(41)
        x = nn.parameter(rng.normal(size=(5, 4)), "x")
        w = nn.init_weight(rng, 4, 7, "w")
        b = nn.parameter(rng.normal(size=bias_shape), "b")
        tgt = np.array([2, 0, 6, 4, 1])
        mask = np.where(rng.random((5, 7)) < 0.5, -np.inf, 0.0)
        mask[np.arange(5), tgt] = 0.0
        mask[0] = -np.inf   # row 0: one allowed class, as at a hub with one out-edge
        mask[0, 2] = 0.0
        mask[3] = 0.0       # row 3: padded, with weight 0 and a neutral mask
        weight = np.array([1.0, 0.5, 2.0, 0.0, 1.0])

        results = []
        for fused in (True, False):
            with nn.Tape() as tape:
                if fused:
                    ce = nn.linear_softmax_cross_entropy(x, w, b, tgt, additive_mask=mask,
                                                         sample_weight=weight)
                else:
                    ce = nn.softmax_cross_entropy(nn.linear(x, w, b), tgt, additive_mask=mask,
                                                  sample_weight=weight)
                loss = T.scale(ce, 0.7)
            results.append((len(tape.nodes), loss.data, nn.backprop(tape, loss)))
        (nodes, loss, grads), (ref_nodes, ref_loss, ref) = results
        assert (nodes, ref_nodes) == (2, 3)
        assert loss.tobytes() == ref_loss.tobytes()
        assert set(grads) == set(ref) == {x, w, b}
        for q in (x, w, b):
            assert grads[q].tobytes() == ref[q].tobytes(), q.name
        if bias_shape == (5, 7):
            # a full bias's gradient is the loss gradient itself: the padded
            # row's target entry is a -0.0, every other entry of it and of
            # the one-edge row an exact +0.0
            dl = grads[b]
            assert dl[3, 4] == 0.0 and np.signbit(dl[3, 4])
            rest = np.delete(dl[3], 4)
            assert not rest.any() and not np.signbit(rest).any()
            assert not dl[0].any() and not np.signbit(dl[0]).any()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(nn.ShapeError):
            nn.linear_softmax_cross_entropy(np.ones((3, 5)), np.ones((4, 2)), np.ones(2),
                                            np.zeros(3, dtype=int))


class TestFiniteDiffCheck:
    def test_quadratic_is_machine_exact(self):
        x = nn.parameter(np.array([[1.5, -0.5]]), "x")

        def f():
            return nn.sum_all(T.mul(x, x))

        assert finite_diff_check(f, [x]) < 1e-8

    def test_gru_sequence_cross_entropy(self):
        rng = np.random.default_rng(5)
        p = make_gru(rng, 3, 4)
        head = nn.init_weight(rng, 4, 2, "head")
        xs = rng.normal(size=(4, 2, 3))
        tgt = rng.integers(0, 2, size=2)

        def f():
            h = nn.Tensor(np.zeros((2, 4)))
            for t in range(4):
                h = nn.gru_step(p, nn.Tensor(xs[t]), h)
            logits = nn.matmul(h, head)
            return nn.softmax_cross_entropy(logits, tgt)

        params = list(p.tensors().values()) + [head]
        assert finite_diff_check(f, params) < 1e-4

    def test_constant_function_zero_error(self):
        x = nn.parameter(np.array([[2.0]]), "x")

        def f():
            return nn.sum_all(T.mul(nn.Tensor(np.zeros((1, 1))), x))

        assert finite_diff_check(f, [x]) == 0.0


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        for k in (2, 5, 11):
            logits = nn.Tensor(np.zeros((3, k)))
            loss = nn.softmax_cross_entropy(logits, np.zeros(3, dtype=int))
            assert abs(float(loss.data) - math.log(k)) < 1e-10

    def test_masked_classes_get_exact_zero(self):
        logits = np.array([[1.0, 2.0, 3.0, 4.0]])
        mask = np.array([[0.0, -np.inf, 0.0, -np.inf]])
        probs = nn.softmax_np(logits, mask)
        assert probs[0, 1] == 0.0 and probs[0, 3] == 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("special", [None, -np.inf, np.inf, np.nan])
    def test_softmax_np_masks_only_rows_that_need_it(self, special):
        """`softmax_np` masks non-finite entries only when a row's max is
        infinite or NaN; its probabilities are bitwise those of masking
        every row, with some rows holding -inf, +inf or NaN entries."""
        def always_masked(x):
            shifted = x - x.max(axis=-1, keepdims=True)
            shifted[~np.isfinite(x)] = -np.inf
            e = np.exp(shifted)
            return e / e.sum(axis=-1, keepdims=True)

        rng = np.random.default_rng(3)
        with np.errstate(invalid="ignore", divide="ignore"):
            for trial in range(200):
                x = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(int(rng.integers(1, 4)), 6))
                x[0, rng.integers(6)] = x[0, rng.integers(6)]
                if special is not None:
                    x[rng.integers(len(x)), rng.integers(6)] = special
                x[rng.integers(len(x)), rng.integers(6)] = -np.inf
                got, want = nn.softmax_np(x), always_masked(x)
                assert got.tobytes() == want.tobytes(), (special, trial)

    def test_label_smoothing_floor(self):
        # confident correct prediction still pays the smoothing floor
        logits = nn.Tensor(np.array([[30.0, 0.0, 0.0]]))
        loss = nn.softmax_cross_entropy(logits, np.array([0]), label_smoothing=0.05)
        assert float(loss.data) > 0.1

    def test_sample_weights_drop_rows(self):
        logits = nn.parameter(np.array([[1.0, 0.0], [5.0, -5.0]]), "l")
        w = np.array([1.0, 0.0])
        with nn.Tape() as tape:
            loss = nn.softmax_cross_entropy(logits, np.array([0, 1]), sample_weight=w)
        grads = nn.backprop(tape, loss)
        np.testing.assert_array_equal(grads[logits][1], 0.0)

    def test_all_zero_weights_rejected(self):
        # a batch with no real row has no mean: the trainers stop before one
        logits = np.array([[1.0, 0.0], [5.0, -5.0]])
        targets = np.array([0, 1])
        with pytest.raises(ValueError, match="positive total sample weight"):
            nn.softmax_cross_entropy_np(logits, targets, sample_weight=np.zeros(2))
        with pytest.raises(ValueError, match="positive total sample weight"):
            nn.softmax_cross_entropy(nn.Tensor(logits), targets, sample_weight=np.zeros(2))
        with pytest.raises(ValueError, match="positive total sample weight"):
            nn.softmax_cross_entropy_np(np.stack([logits, logits]), np.stack([targets, targets]),
                                        sample_weight=np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="positive total sample weight"):
            nn.bce_with_logits(nn.Tensor(logits), np.zeros((2, 2)), sample_weight=np.zeros(2))

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_stack_matches_per_batch_calls(self, n):
        rng = np.random.default_rng(n)
        logits = rng.normal(size=(5, n, 6))
        targets = rng.integers(0, 6, size=(5, n))
        weights = (rng.uniform(size=(5, n)) < 0.7).astype(float)
        weights[:, 0] = 1.0
        loss, dlogits = nn.softmax_cross_entropy_np(logits, targets, sample_weight=weights,
                                                    label_smoothing=0.05)
        assert loss.shape == (5,)
        for t in range(5):
            want, dwant = nn.softmax_cross_entropy_np(logits[t], targets[t],
                                                      sample_weight=weights[t],
                                                      label_smoothing=0.05)
            assert loss[t] == want
            assert np.array_equal(dlogits[t], dwant)


STACKED_BLAS_BROKEN = (
    "numpy/BLAS no longer computes a {} bit-identically to the per-step form; "
    "the edge-policy trainer's stacked backpropagation through time relies on it, "
    "so policy banks would change bytes")


LEARNED_ENCODE_BROKEN = (
    "numpy/BLAS no longer computes a {} stack as per-slice GEMMs; the learned "
    "encoder's stacked encode relies on it, so learned latents, and with them "
    "the learned run's topology.txt, would change bytes")


ALIGNMENT_BROKEN = (
    "numpy/BLAS no longer computes a {} bit-identically whatever the weight's "
    "offset mod 64; `nn.load_params` and `nn.init_weight` move every weight to a "
    "64-byte boundary (`nn.io.aligned_copy`), which is only free while the offset "
    "does not change a bit, so loaded and trained models would change bytes")


def weight_at(w: np.ndarray, offset: int) -> np.ndarray:
    """A copy of `w` whose data starts `offset` bytes past a 64-byte boundary."""
    buf = np.empty(w.size + 16)
    start = (-buf.ctypes.data % 64 + offset) // 8
    out = buf[start:start + w.size].reshape(w.shape)
    out[...] = w
    assert out.ctypes.data % 64 == offset
    return out


class TestStackedNumpyFacts:
    """The numpy facts that let policy training move non-recurrent ops out of
    its step loop without changing a bit, at the trainer's shapes."""

    @pytest.mark.parametrize("steps", [1, 7, 40])
    def test_stacked_matmul_is_per_slice_gemm(self, steps):
        rng = np.random.default_rng(steps)
        w = rng.normal(size=(622, 128))
        for n in range(1, 9):
            xs = rng.normal(size=(n, steps, 622))       # batch-major, as the trainer pads
            stack = xs.swapaxes(0, 1)
            got = stack @ w
            rows = np.ascontiguousarray(stack[:, :1]) @ w  # (T, 1, 622), one-row steps
            for t in range(steps):
                assert np.array_equal(got[t], xs[:, t] @ w), STACKED_BLAS_BROKEN.format(
                    f"({steps}, {n}, 622) @ (622, 128) stack")
                assert np.array_equal(rows[t], stack[t, :1].copy() @ w), \
                    STACKED_BLAS_BROKEN.format(f"({steps}, 1, 622) @ (622, 128) stack")
            a, d = rng.normal(size=(steps, n, 64)), rng.normal(size=(steps, n, 6))
            got = a.swapaxes(-1, -2) @ d
            for t in range(steps):
                assert np.array_equal(got[t], a[t].T @ d[t]), STACKED_BLAS_BROKEN.format(
                    "transposed-operand stack")

    @pytest.mark.parametrize("steps", [1, 2, 225])
    def test_one_row_stacks_at_learned_encoder_shapes(self, steps):
        """The encoder MLP, the GRU input projections and the correction head
        of `LearnedEncoder.encode`, on a (T, 1, width) stack of one-row steps."""
        rng = np.random.default_rng(steps)
        for k, m in ((OBS_SIZE, 128), (128, 64), (64, 64)):
            w = rng.normal(size=(k, m))
            stack = rng.normal(size=(steps, 1, k))
            got = stack @ w
            for t in range(steps):
                assert np.array_equal(got[t], stack[t] @ w), LEARNED_ENCODE_BROKEN.format(
                    f"({steps}, 1, {k}) @ ({k}, {m})")

    @pytest.mark.parametrize("x_shape", [(1, 622), (130, 1, 590), (28, 4, 622)])
    def test_products_ignore_weight_alignment(self, x_shape):
        """A policy's one-row step, the learned encoder's stacked encode and a
        policy training batch, against their weight at 0, 16, 32 and 48 mod 64."""
        rng = np.random.default_rng(x_shape[0])
        w = rng.normal(size=(x_shape[-1], 128))
        x = rng.normal(size=x_shape)
        want = x @ weight_at(w, 0)
        for offset in (16, 32, 48):
            assert np.array_equal(x @ weight_at(w, offset), want), ALIGNMENT_BROKEN.format(
                f"{x_shape} @ {w.shape} product")

    @pytest.mark.parametrize("shape", [(40, 64, 6), (40, 128), (1, 64, 6)])
    def test_reversed_reduce_is_sequential_fold(self, shape):
        per_step = np.random.default_rng(0).normal(size=shape)
        acc = per_step[-1].copy()
        for t in reversed(range(shape[0] - 1)):
            acc += per_step[t]
        assert np.array_equal(np.add.reduce(per_step[::-1], axis=0), acc), \
            STACKED_BLAS_BROKEN.format("reversed np.add.reduce over time")

    @pytest.mark.parametrize("rows", [5, 76, 230])
    def test_strided_row_view_is_its_copy(self, rows):
        """A (138, 590) slice at one step of a (138, rows, 590) batch gives
        the same products as its contiguous copy: the low-level trainer packs
        one window's rows (76 at the default window, 5 in the seed-0 last
        window) where it packed every trajectory's 230."""
        rng = np.random.default_rng(rows)
        batch = rng.uniform(size=(138, rows, OBS_SIZE))
        w = rng.normal(size=(OBS_SIZE, 128))
        g = rng.normal(size=(138, 128))
        for t in (0, rows - 1):
            view = batch[:, t]
            copy = np.ascontiguousarray(view)
            msg = (f"numpy/BLAS no longer multiplies a (138, {OBS_SIZE}) row view of a "
                   f"(138, {rows}, {OBS_SIZE}) batch as its contiguous copy; the low-level "
                   "trainer's per-window packing relies on it, so lowlevel.bin would change "
                   "bytes")
            assert np.array_equal(view @ w, copy @ w), msg
            assert np.array_equal(view.T @ g, copy.T @ g), msg

    @pytest.mark.parametrize("shape", [(1, 588), (7, 588), (100, 588), (3, 5)])
    def test_scaled_standard_normal_is_normal(self, shape):
        """`Generator.normal(0.0, s)` equals `s` times `standard_normal` drawn
        into a scratch block, bitwise, and leaves the stream at the same point."""
        for seed in range(20):
            for s in (0.01, 0.3, 2.0):
                rngs = [np.random.default_rng(seed), np.random.default_rng(seed)]
                want = rngs[0].normal(0.0, s, size=shape)
                block = np.empty((shape[0] + 3, shape[1]))
                got = rngs[1].standard_normal(out=block[:shape[0]])
                got *= s
                msg = ("numpy's Generator.normal(0.0, s) is no longer s * standard_normal "
                       f"from the same stream at {shape}; the policy batch fill "
                       "(`edge_policies._fill_batch`) draws its observation noise that way, and "
                       "policy banks would change bytes")
                assert want.tobytes() == got.tobytes(), msg
                assert rngs[0].random() == rngs[1].random(), msg

    def test_stacked_sums_are_per_step_sums(self):
        rng = np.random.default_rng(1)
        for n in (1, 5, 8, 13):
            stack = rng.normal(size=(7, n, 128))
            rows = rng.normal(size=(n, 7))
            by_step = np.ascontiguousarray(rows.T).sum(axis=1)
            for t in range(7):
                assert np.array_equal(stack.sum(axis=1)[t], stack[t].sum(axis=0)), \
                    STACKED_BLAS_BROKEN.format("column sum of a stack")
                assert by_step[t] == rows[:, t].sum(), \
                    STACKED_BLAS_BROKEN.format("row sum of a stack")


def saturate(p: nn.GruCellParams, rng) -> np.ndarray:
    """Zero the cell's weights and set its gate biases to +-1000, so that
    every update and reset pre-activation is exactly +1000 or -1000. Returns
    the units whose update gate is 1 (their reset gate is 0)."""
    for t in p.tensors().values():
        t.data[...] = 0.0
    on = np.arange(p.hidden_size) % 2 == 0
    p.b_update.data[:] = np.where(on, 1000.0, -1000.0)
    p.b_reset.data[:] = -p.b_update.data
    p.b_cand.data[:] = rng.normal(size=p.hidden_size)
    return on


class TestSaturatedGates:
    """Gate pre-activations of +-1000 give gates of exactly 0 and 1, and the
    overflow of exp(1000) warns nowhere: every loop that calls the bare
    sigmoid runs inside `np.errstate(over="ignore")`. An updated unit takes
    the candidate tanh(b_cand), a kept one keeps its memory."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_unroll_and_act(self):
        from hubplan.edge_policies import EdgePolicy

        rng = np.random.default_rng(0)
        policy = EdgePolicy(rng, emb_dim=4)
        on = saturate(policy.gru, rng)
        h0 = rng.normal(size=(2, policy.gru_hidden))
        want = np.where(on, np.tanh(policy.gru.b_cand.data), h0)
        hs, caches = nn.gru_unroll(policy.gru, rng.normal(size=(3, 2, policy.gru.input_size)), h0)
        for cache in caches:
            assert np.array_equal(cache.u, np.broadcast_to(on, cache.u.shape).astype(float))
            assert np.array_equal(cache.r, np.broadcast_to(~on, cache.r.shape).astype(float))
        assert np.array_equal(hs[-1], want)
        obs, emb = rng.uniform(size=OBS_SIZE), rng.normal(size=4)
        with np.errstate(over="ignore"):
            _probs, h = policy.act(obs, emb, h0[:1])
        assert np.array_equal(h, want[:1])
        # `act` leaves the error state to its caller, as `gru_cell` does
        with pytest.raises(RuntimeWarning, match="overflow"):
            policy.act(obs, emb, h0[:1])

    def test_learned_encode(self):
        from hubplan.latent import LearnedEncoder, LowLevelModel

        rng = np.random.default_rng(1)
        model = LowLevelModel(rng)
        on = saturate(model.gru, rng)
        enc = LearnedEncoder(model)
        h0 = rng.normal(size=(1, model.latent_dim))
        enc.hidden = h0
        enc.encode(rng.uniform(size=(3, OBS_SIZE)))
        assert np.array_equal(enc.hidden, np.where(on, np.tanh(model.gru.b_cand.data), h0))

    def test_advance(self):
        from hubplan.hub_dynamics import HubDynamicsModel

        rng = np.random.default_rng(2)
        model = HubDynamicsModel(rng, 5)
        on = saturate(model.gru, rng)
        h0 = rng.normal(size=(1, model.hidden))
        assert np.array_equal(model.advance(h0, 3),
                              np.where(on, np.tanh(model.gru.b_cand.data), h0))

    def test_tape_nodes(self):
        rng = np.random.default_rng(3)
        p = make_gru(rng, 3, 4)
        on = saturate(p, rng)
        h0 = rng.normal(size=(1, 4))
        h = nn.gru_step(p, rng.normal(size=(1, 3)), h0)
        assert np.array_equal(h.data, np.where(on, np.tanh(p.b_cand.data), h0))
        x = nn.Tensor(np.array([[-1000.0, 1000.0]]))
        assert np.array_equal(sigmoid(x).data, [[0.0, 1.0]])
        assert float(nn.bce_with_logits(x, np.array([[0.0, 1.0]])).data) == 0.0


def textbook_adam_step(p, m, v, g, t, lr):
    """One Adam update in its textbook form, with fresh temporaries: the
    reference `nn.Adam.step` must match bit for bit."""
    from hubplan.nn.optim import BETA1, BETA2, EPS

    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * (g * g)
    p -= lr * (m / (1.0 - BETA1 ** t)) / (np.sqrt(v / (1.0 - BETA2 ** t)) + EPS)


class TestAdam:
    def test_matches_textbook_update(self):
        rng = np.random.default_rng(4)
        shapes = [(622, 128), (128,), (3, 1), ()]
        params = [nn.parameter(rng.normal(size=s), f"p{i}") for i, s in enumerate(shapes)]
        ref = [(p.data.copy(), np.zeros(p.data.shape), np.zeros(p.data.shape)) for p in params]
        opt = nn.Adam(params, lr=3e-3)
        for t in range(1, 201):
            scale = 10.0 ** rng.uniform(-6, 1)
            grads = {p: scale * rng.normal(size=p.data.shape) for p in params}
            opt.step(grads)
            for p, (rp, rm, rv) in zip(params, ref):
                textbook_adam_step(rp, rm, rv, grads[p], t, 3e-3)
        for i, (p, (rp, rm, rv)) in enumerate(zip(params, ref)):
            assert np.array_equal(p.data, rp), p.name
            assert np.array_equal(opt.m[i], rm) and np.array_equal(opt.v[i], rv), p.name

    def test_zero_gradient_fixed_point(self):
        p = nn.parameter(np.array([1.0, -2.0]), "p")
        before = p.data.copy()
        opt = nn.Adam([p], lr=0.1)
        opt.step({p: np.zeros(2)})
        np.testing.assert_array_equal(p.data, before)

    def test_moves_against_gradient_sign(self):
        p = nn.parameter(np.array([0.0]), "p")
        opt = nn.Adam([p], lr=0.01)
        for _ in range(5):
            opt.step({p: np.array([1.0])})
        assert p.data[0] < 0.0
        p2 = nn.parameter(np.array([0.0]), "p2")
        opt2 = nn.Adam([p2], lr=0.01)
        last = 0.0
        for _ in range(5):
            opt2.step({p2: np.array([-1.0])})
            assert p2.data[0] > last
            last = p2.data[0]

    def test_quadratic_converges(self):
        # f(x) = (x - 2)^2 from 0 with lr 0.1; the update rule is its own oracle
        x = nn.parameter(np.array([0.0]), "x")
        opt = nn.Adam([x], lr=0.1)
        for _ in range(100):
            opt.step({x: 2.0 * (x.data - 2.0)})
        assert abs(x.data[0] - 2.0) < 0.1

    def test_nan_gradient_rejected_with_name(self):
        p = nn.parameter(np.array([1.0]), "badparam")
        opt = nn.Adam([p], lr=0.1)
        with pytest.raises(nn.NonFiniteError, match="badparam"):
            opt.step({p: np.array([np.nan])})

    def test_deterministic(self):
        def run():
            rng = np.random.default_rng(9)
            p = nn.parameter(rng.normal(size=(3, 3)), "p")
            opt = nn.Adam([p], lr=0.05)
            for i in range(20):
                g = np.full((3, 3), 0.1 * ((i % 3) - 1))
                opt.step({p: g})
            return p.data

        np.testing.assert_array_equal(run(), run())


class TestTruncation:
    def test_clip_window_equals_full_bptt_for_short_sequences(self):
        """Gradients with history clip L match full BPTT when seq len <= L."""
        rng = np.random.default_rng(21)
        p = make_gru(rng, 2, 3)
        head = nn.init_weight(rng, 3, 2, "head")
        xs = rng.normal(size=(6, 1, 2))
        tgt = np.array([1])
        params = list(p.tensors().values()) + [head]

        def run(window):
            with nn.Tape() as tape:
                h = nn.Tensor(np.zeros((1, 3)))
                for t in range(6):
                    if t % window == 0 and t > 0:
                        h = nn.Tensor(h.data.copy())  # detach across window boundary
                    h = nn.gru_step(p, nn.Tensor(xs[t]), h)
                loss = nn.softmax_cross_entropy(nn.matmul(h, head), tgt)
            return nn.backprop(tape, loss)

        full = run(75)
        clipped = run(6)
        for q in params:
            np.testing.assert_array_equal(full[q], clipped[q])


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        tensors = {
            "enc.w": rng.normal(size=(4, 7)),
            "enc.b": rng.normal(size=7),
            "scalarish": rng.normal(size=(1,)),
        }
        path = tmp_path / "m.bin"
        nn.save_params(path, "lowlevel", tensors)
        kind, back = nn.load_params(path)
        assert kind == "lowlevel"
        assert set(back) == set(tensors)
        for k in tensors:
            np.testing.assert_array_equal(back[k], tensors[k])

    def test_loaded_tensors_own_separate_writable_memory(self, tmp_path, monkeypatch):
        path = tmp_path / "m.bin"
        tensors = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4), "c": np.zeros((0, 2)),
                   "d": np.array(2.5)}
        nn.save_params(path, "policy", tensors)
        bodies = []
        read = nn.io.read_checksummed
        monkeypatch.setattr(nn.io, "read_checksummed", lambda p: bodies.append(read(p)) or bodies[-1])
        _kind, back = nn.load_params(path)
        file_bytes = np.frombuffer(bodies[0], dtype=np.uint8)
        arrays = list(back.values())
        for arr in arrays:
            assert arr.flags.writeable and arr.flags.c_contiguous
            assert arr.ctypes.data % 64 == 0 or arr.size == 0   # an empty one has no data
            assert not np.shares_memory(arr, file_bytes)
        for i, x in enumerate(arrays):
            for y in arrays[i + 1:]:
                assert not np.shares_memory(x, y)
        for arr in arrays:
            arr[...] = -1.0
        _kind, again = nn.load_params(path)
        for k in tensors:
            np.testing.assert_array_equal(again[k], tensors[k])

    def test_drawn_weights_are_aligned(self):
        rng = np.random.default_rng(0)
        want = np.random.default_rng(0).uniform(-1 / np.sqrt(622), 1 / np.sqrt(622), size=(622, 128))
        w = nn.init_weight(rng, 622, 128, "w").data
        assert w.ctypes.data % 64 == 0 and w.flags.writeable and w.flags.c_contiguous
        assert w.tobytes() == want.tobytes()

    def test_file_bytes_pinned(self, tmp_path):
        # every tensor is written as contiguous little-endian float64, whatever
        # its layout, byte order or dtype; a 0-d tensor is written as shape (1,)
        tensors = {"w": np.arange(12.0).reshape(3, 4), "w.T": np.arange(12.0).reshape(3, 4).T,
                   "be": np.array([0.5, -1.25], dtype=">f8"), "int": np.arange(3),
                   "scalar": np.array(2.5)}
        path = tmp_path / "m.bin"
        nn.save_params(path, "policy", tensors)
        blob = path.read_bytes()
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == \
            (350, "4e1e9db5d29c709f3f5a723ef58c3f8e9df0d911801ce4813dc3861335372cda")

    def test_kind_check(self, tmp_path):
        path = tmp_path / "m.bin"
        nn.save_params(path, "policy", {"w": np.ones(2)})
        with pytest.raises(nn.ArtifactError, match="kind"):
            nn.load_params(path, expect_kind="highlevel")

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "m.bin"
        nn.save_params(path, "policy", {"w": np.arange(16.0)})
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(nn.ArtifactError, match="checksum"):
            nn.load_params(path)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_gru_reference_property(n_in, n_h, seed):
    rng = np.random.default_rng(seed)
    p = nn.GruCellParams.create(rng, n_in, n_h, "g")
    x = rng.normal(size=n_in)
    h = rng.normal(size=n_h)
    got = nn.gru_step(p, x, h).data[0]
    want = scalar_gru_reference(p, x, h)
    np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)
