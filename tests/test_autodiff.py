"""Tests for the reverse-mode engine: hand-checked values, forward oracles,
central finite-difference gradient checks, and optimizer arithmetic."""

import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from vocalsim import autodiff
from vocalsim import workers as pool
from vocalsim.autodiff import (
    Constant,
    Conv1dLayer,
    DenseLayer,
    RMSProp,
    Tensor,
    concat,
    conv1d,
    dense,
    dropout,
    euclidean_distance,
    flatten,
    gather,
    gather_dense,
    relu,
    rmse_loss,
    sigmoid,
    tanh,
    unsqueeze,
    weighted_sum,
)

EPS = 1e-3
TOL = 1e-4


def numeric_grad(f, arrays, index):
    """Central finite differences of scalar f w.r.t. arrays[index]."""
    grad = np.zeros_like(arrays[index])
    it = np.nditer(grad, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        plus = [a.copy() for a in arrays]
        minus = [a.copy() for a in arrays]
        plus[index][idx] += EPS
        minus[index][idx] -= EPS
        grad[idx] = (f(plus) - f(minus)) / (2.0 * EPS)
    return grad


def check_gradients(build, arrays, probe_seed=0):
    """Compare backward grads against finite differences for every input.

    build(tensors) -> output Tensor; the output is scalarized through a fixed
    random linear probe so one backward covers every output element.
    """
    out_shape = build([Tensor(a) for a in arrays]).data.shape
    probe = np.random.default_rng(probe_seed).normal(size=out_shape)

    def scalar(values):
        return float(np.sum(probe * build([Tensor(v) for v in values]).data))

    tensors = [Tensor(a.copy()) for a in arrays]
    loss = weighted_sum(build(tensors), probe)
    loss.backward()
    for i, t in enumerate(tensors):
        want = numeric_grad(scalar, [a.copy() for a in arrays], i)
        scale = max(float(np.max(np.abs(want))), 1.0)
        err = float(np.max(np.abs(t.grad - want))) / scale
        assert err < TOL, f"input {i}: rel err {err:.2e}"


class TestHandValues:
    def test_conv_hand_example(self):
        x = Tensor([[[1.0, 2.0, 3.0, 4.0]]])
        w = Tensor([[[1.0, 0.0, -1.0]]])
        b = Tensor([0.0])
        out = conv1d(x, w, b)
        np.testing.assert_array_equal(out.data, [[[-2.0, -2.0]]])

    def test_conv_zero_kernels_broadcast_bias(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 10)))
        w = Tensor(np.zeros((3, 2, 3)))
        b = Tensor([1.0, -2.0, 0.5])
        out = conv1d(x, w, b)
        np.testing.assert_array_equal(out.data, np.tile([[1.0], [-2.0], [0.5]], (1, 1, 8)))

    def test_conv_stride_two_length(self):
        x = Tensor(np.zeros((1, 1, 9)))
        out = conv1d(x, Tensor(np.zeros((1, 1, 3))), Tensor([0.0]), stride=2)
        assert out.data.shape == (1, 1, 4)

    def test_dense_identity_and_zero(self):
        x = Tensor([[1.0, -2.0, 3.0]])
        eye = Tensor(np.eye(3))
        zero_b = Tensor(np.zeros(3))
        np.testing.assert_array_equal(dense(x, eye, zero_b).data, x.data)
        w0 = Tensor(np.zeros((2, 3)))
        b = Tensor([5.0, -1.0])
        np.testing.assert_array_equal(dense(x, w0, b).data, [b.data])

    def test_activation_values(self):
        x = Tensor([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(relu(x).data, [0.0, 0.0, 2.0])
        np.testing.assert_allclose(sigmoid(Tensor([0.0])).data, [0.5])
        np.testing.assert_allclose(tanh(Tensor([0.0])).data, [0.0])

    def test_euclidean_values(self):
        a = Tensor([1.0, 2.0])
        np.testing.assert_array_equal(euclidean_distance(a, Tensor([1.0, 2.0])).data, 0.0)
        d = euclidean_distance(Tensor([0.0, 0.0]), Tensor([3.0, 4.0]))
        assert float(d.data) == pytest.approx(5.0)

    def test_euclidean_zero_distance_zero_grad(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([1.0, 2.0])
        euclidean_distance(a, b).backward()
        np.testing.assert_array_equal(a.grad, np.zeros(2))
        np.testing.assert_array_equal(b.grad, np.zeros(2))

    def test_rmse_values(self):
        p = Tensor([0.0, 0.0])
        assert float(rmse_loss(p, Tensor([1.0, 1.0])).data) == pytest.approx(1.0)
        assert float(rmse_loss(p, Tensor([0.0, 0.0])).data) == 0.0

    def test_rmse_zero_loss_zero_grad(self):
        p = Tensor([2.0, 3.0])
        rmse_loss(p, Tensor([2.0, 3.0])).backward()
        np.testing.assert_array_equal(p.grad, np.zeros(2))

    def test_batched_euclidean(self):
        a = Tensor([[0.0, 0.0], [1.0, 1.0]])
        b = Tensor([[3.0, 4.0], [1.0, 1.0]])
        np.testing.assert_allclose(euclidean_distance(a, b).data, [5.0, 0.0])


class TestForwardOracles:
    def test_conv_matches_triple_loop(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4, 11))
        w = rng.normal(size=(5, 4, 3))
        b = rng.normal(size=5)
        for stride in (1, 2):
            out = conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride).data
            T = (11 - 3) // stride + 1
            want = np.zeros((3, 5, T))
            for bi in range(3):
                for f in range(5):
                    for t in range(T):
                        acc = b[f]
                        for c in range(4):
                            for k in range(3):
                                acc += w[f, c, k] * x[bi, c, t * stride + k]
                        want[bi, f, t] = acc
            np.testing.assert_allclose(out, want, rtol=1e-12)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 2, 9))
        w = Tensor(rng.normal(size=(3, 2, 3)))
        b = Tensor(rng.normal(size=3))
        batched = conv1d(Tensor(x), w, b).data
        for i in range(4):
            single = conv1d(Tensor(x[i : i + 1]), w, b).data
            np.testing.assert_allclose(batched[i : i + 1], single, rtol=1e-12)

    def test_dense_batched_matches_rows(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 7))
        w = Tensor(rng.normal(size=(4, 7)))
        b = Tensor(rng.normal(size=4))
        batched = dense(Tensor(x), w, b).data
        for i in range(5):
            single = dense(Tensor(x[i : i + 1]), w, b).data
            np.testing.assert_allclose(batched[i : i + 1], single, rtol=1e-12)


class TestShapes:
    def test_flatten_unbatched_and_batched(self):
        # the first axis is always the batch
        assert flatten(Tensor(np.zeros((4, 6)))).data.shape == (4, 6)
        assert flatten(Tensor(np.zeros((2, 4, 6)))).data.shape == (2, 24)
        assert flatten(Tensor(np.zeros(9))).data.shape == (9, 1)

    def test_concat_last_axis(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.zeros((2, 5)))
        assert concat([a, b]).data.shape == (2, 8)
        assert concat([Tensor(np.ones(3)), Tensor(np.ones(2))]).data.shape == (5,)

    def test_unsqueeze(self):
        assert unsqueeze(Tensor(1.5)).data.shape == (1,)
        assert unsqueeze(Tensor(np.zeros(4))).data.shape == (4, 1)

    def test_errors(self):
        with pytest.raises(ValueError):
            conv1d(Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros(1)))
        with pytest.raises(ValueError):
            conv1d(Tensor(np.zeros((1, 2, 5))), Tensor(np.zeros((1, 3, 3))), Tensor(np.zeros(1)))
        with pytest.raises(ValueError):
            conv1d(Tensor(np.zeros((1, 1, 5))), Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros(1)), stride=0)
        with pytest.raises(ValueError, match="batch"):
            conv1d(Tensor(np.zeros((1, 5))), Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros(1)))
        with pytest.raises(ValueError):
            dense(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))
        with pytest.raises(ValueError, match="rows"):
            dense(Tensor(np.zeros(4)), Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))
        with pytest.raises(ValueError):
            euclidean_distance(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
        with pytest.raises(ValueError):
            rmse_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
        with pytest.raises(ValueError):
            concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))])
        with pytest.raises(ValueError):
            dropout(Tensor(np.zeros(3)), 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            Tensor(np.zeros(3)).backward()


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=100))
        out = dropout(x, 0.0, np.random.default_rng(1))
        np.testing.assert_array_equal(out.data, x.data)

    def test_inference_is_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=100))
        out = dropout(x, 0.9, np.random.default_rng(1), training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_half_rate_zeroes_about_half(self):
        n = 100_000
        x = Tensor(np.ones(n))
        out = dropout(x, 0.5, np.random.default_rng(7))
        zero_fraction = float(np.mean(out.data == 0.0))
        assert abs(zero_fraction - 0.5) <= 0.01
        survivors = out.data[out.data != 0.0]
        np.testing.assert_allclose(survivors, 2.0)

    def test_mask_reproducible_under_seed(self):
        x = Tensor(np.ones(1000))
        a = dropout(x, 0.3, np.random.default_rng(42)).data
        b = dropout(x, 0.3, np.random.default_rng(42)).data
        np.testing.assert_array_equal(a, b)


class TestFiniteDifferences:
    def test_conv1d(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            C = int(rng.integers(1, 4))
            K = int(rng.integers(1, 4))
            L = int(rng.integers(K, K + 8))
            F = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 3))
            shape = (1, C, L) if seed % 2 else (int(rng.integers(1, 4)), C, L)
            arrays = [
                rng.normal(size=shape),
                rng.normal(size=(F, C, K)),
                rng.normal(size=F),
            ]
            check_gradients(
                lambda ts, s=stride: conv1d(ts[0], ts[1], ts[2], stride=s), arrays, seed
            )

    def test_conv1d_fused_relu(self):
        checked = 0
        for seed in range(40):
            rng = np.random.default_rng(900 + seed)
            C, K, F = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
            L = int(rng.integers(K, K + 8))
            stride = int(rng.integers(1, 3))
            shape = (1, C, L) if seed % 2 else (int(rng.integers(1, 4)), C, L)
            arrays = [rng.normal(size=shape), rng.normal(size=(F, C, K)), rng.normal(size=F)]
            pre = conv1d(*[Tensor(a) for a in arrays], stride=stride).data
            if np.min(np.abs(pre)) < 0.02:  # a finite difference would cross the kink
                continue
            check_gradients(
                lambda ts, s=stride: conv1d(ts[0], ts[1], ts[2], stride=s, relu=True),
                arrays,
                seed,
            )
            checked += 1
        assert checked >= 10

    def test_dense(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 7))
            shape = (1, n) if seed % 2 else (int(rng.integers(1, 5)), n)
            arrays = [rng.normal(size=shape), rng.normal(size=(m, n)), rng.normal(size=m)]
            check_gradients(lambda ts: dense(ts[0], ts[1], ts[2]), arrays, seed)

    def test_activations(self):
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 6)))
            # keep relu inputs away from its kink at zero
            safe = rng.uniform(0.05, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
            check_gradients(lambda ts: relu(ts[0]), [safe], seed)
            smooth = rng.normal(size=shape)
            check_gradients(lambda ts: tanh(ts[0]), [smooth], seed)
            check_gradients(lambda ts: sigmoid(ts[0]), [smooth], seed)

    def test_dropout(self):
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            arrays = [rng.normal(size=(3, 7))]
            check_gradients(
                lambda ts, s=seed: dropout(ts[0], 0.3, np.random.default_rng(1000 + s)),
                arrays,
                seed,
            )

    def test_euclidean_distance(self):
        for seed in range(20):
            rng = np.random.default_rng(400 + seed)
            n = int(rng.integers(2, 8))
            shape = (n,) if seed % 2 else (int(rng.integers(1, 4)), n)
            a = rng.normal(size=shape)
            b = a + rng.uniform(0.5, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)
            check_gradients(lambda ts: euclidean_distance(ts[0], ts[1]), [a, b], seed)

    def test_rmse_loss(self):
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            shape = (int(rng.integers(1, 4)), int(rng.integers(2, 6)))
            p = rng.normal(size=shape)
            t = p + rng.uniform(0.5, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
            check_gradients(lambda ts: rmse_loss(ts[0], ts[1]), [p, t], seed)

    def test_flatten_concat_unsqueeze(self):
        for seed in range(20):
            rng = np.random.default_rng(600 + seed)
            arrays = [rng.normal(size=(2, 3, 4))]
            check_gradients(lambda ts: flatten(ts[0]), arrays, seed)
            pair = [rng.normal(size=(2, 3)), rng.normal(size=(2, 5))]
            check_gradients(lambda ts: concat([ts[0], ts[1]]), pair, seed)
            check_gradients(lambda ts: unsqueeze(ts[0]), [rng.normal(size=4)], seed)

    def test_shared_parameters_accumulate(self):
        # the twin-branch pattern: one weight used by two forward paths
        for seed in range(5):
            rng = np.random.default_rng(700 + seed)
            arrays = [
                rng.normal(size=(2, 4)),
                rng.normal(size=(2, 4)),
                rng.normal(size=(3, 4)),
                rng.normal(size=3),
            ]

            def build(ts):
                left = dense(ts[0], ts[2], ts[3])
                right = dense(ts[1], ts[2], ts[3])
                return concat([left, right])

            check_gradients(build, arrays, seed)

    def test_composed_chain(self):
        for seed in range(5):
            rng = np.random.default_rng(800 + seed)
            arrays = [
                rng.normal(size=(2, 2, 8)),
                rng.normal(size=(3, 2, 3)),
                rng.normal(size=3),
                rng.normal(size=(4, 18)),
                rng.normal(size=4),
            ]

            def build(ts):
                h = tanh(conv1d(ts[0], ts[1], ts[2]))
                return dense(flatten(h), ts[3], ts[4])

            check_gradients(build, arrays, seed)


class TestFusedConvRelu:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("batched", [True, False])
    def test_equals_relu_of_conv_exactly(self, stride, batched):
        rng = np.random.default_rng(stride)
        # batched=False is a batch of one row
        x = rng.normal(size=(3, 4, 13) if batched else (1, 4, 13))
        w, b = rng.normal(size=(5, 4, 3)), rng.normal(size=5)
        probe = None
        results = []
        for fused in (True, False):
            ts = [Tensor(x), Tensor(w), Tensor(b)]
            out = conv1d(*ts, stride=stride, relu=True) if fused else relu(conv1d(*ts, stride=stride))
            if probe is None:
                probe = rng.normal(size=out.data.shape)
            weighted_sum(out, probe).backward()
            results.append([out.data] + [t.grad for t in ts])
        assert np.any(results[1][0] == 0.0) and np.any(results[1][0] > 0.0)
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_constant_input_gets_no_grad(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 9))
        w, b = rng.normal(size=(4, 3, 3)), rng.normal(size=4)
        grads = []
        for leaf in (Tensor, Constant):
            ts = [leaf(x), Tensor(w), Tensor(b)]
            weighted_sum(conv1d(*ts, relu=True), np.ones((2, 4, 7))).backward()
            grads.append([t.grad for t in ts])
        np.testing.assert_array_equal(grads[1][0], np.zeros_like(x))
        assert np.any(grads[0][0] != 0.0)
        np.testing.assert_array_equal(grads[1][1], grads[0][1])
        np.testing.assert_array_equal(grads[1][2], grads[0][2])

    @pytest.mark.parametrize("stride", [1, 2])
    def test_channels_last_view_gives_the_same_bits(self, stride):
        """The (B, C, L) view of a (B, L, C) array, the layout stack_inputs
        and a conv output give, and a C-contiguous copy of that view give
        the same output and grads."""
        rng = np.random.default_rng(6)
        channels_last = rng.normal(size=(3, 13, 4))
        w, b = rng.normal(size=(5, 4, 3)), rng.normal(size=5)
        probe = rng.normal(size=(3, 5, (13 - 3) // stride + 1))
        view = channels_last.transpose(0, 2, 1)
        results = []
        for x in (view, np.ascontiguousarray(view)):
            ts = [Tensor(x), Tensor(w), Tensor(b)]
            out = conv1d(*ts, stride=stride, relu=True)
            weighted_sum(out, probe).backward()
            results.append([out.data] + [t.grad for t in ts])
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)


class TestGather:
    # repeats row 2, skips row 1, and takes rows out of order
    INDEX = [2, 0, 2, 3, 2]

    def test_finite_differences_through_conv_output(self):
        # gather's input is conv1d's output: a (B, F, T) view of a (B, T, F)
        # buffer, as in the model's conv branches
        rng = np.random.default_rng(21)
        arrays = [rng.normal(size=(4, 3, 8)), rng.normal(size=(5, 3, 3)), rng.normal(size=5)]
        check_gradients(lambda ts: gather(conv1d(ts[0], ts[1], ts[2]), self.INDEX), arrays, 21)

    def test_finite_differences_2d(self):
        rng = np.random.default_rng(22)
        check_gradients(lambda ts: gather(ts[0], self.INDEX), [rng.normal(size=(4, 6))], 22)

    def test_forward_and_backward_equal_add_at(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(6, 4, 7)).transpose(0, 2, 1))
        index = rng.integers(0, 6, size=40)
        probe = rng.normal(size=(40, 7, 4))
        out = gather(x, index)
        np.testing.assert_array_equal(out.data, x.data[index])
        weighted_sum(out, probe).backward()
        want = np.zeros(x.data.shape)
        np.add.at(want, index, probe)
        np.testing.assert_array_equal(x.grad, want)

    def test_constant_input_gets_no_grad(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(4, 3))
        w, b = Tensor(rng.normal(size=(2, 3))), Tensor(np.zeros(2))
        for leaf in (Tensor, Constant):
            source = leaf(x)
            weighted_sum(dense(gather(source, self.INDEX), w, b), np.ones((5, 2))).backward()
            assert np.any(source.grad != 0.0) == (leaf is Tensor)

    def test_index_must_be_1d(self):
        with pytest.raises(ValueError, match="1-d"):
            gather(Tensor(np.zeros((3, 2))), [[0, 1]])


class TestGatherDense:
    # repeats row 2, skips row 1, and takes rows out of order
    INDEX = [2, 0, 2, 3, 2]
    # row 3 loses two entries; rows 0 and 2, both of sample 2, lose column 1
    DROPPED = ([0, 2, 3, 3], [1, 1, 0, 4])
    # dropout's 1/(1-rate) on the first four columns, the last two unscaled
    SCALE = np.array([1.25, 1.25, 1.25, 1.25, 1.0, 1.0])

    @pytest.mark.parametrize("dropped", [DROPPED, None])
    def test_finite_differences(self, dropped):
        rng = np.random.default_rng(25)
        arrays = [rng.normal(size=(4, 6)), rng.normal(size=(3, 6)), rng.normal(size=3)]
        check_gradients(
            lambda ts: gather_dense(ts[0], self.INDEX, ts[1], ts[2], dropped, self.SCALE),
            arrays,
            25,
        )

    def test_equals_masked_dense_of_gathered_rows(self):
        rng = np.random.default_rng(26)
        x, w, b = rng.normal(size=(4, 6)), rng.normal(size=(3, 6)), rng.normal(size=3)
        y = (x * self.SCALE)[self.INDEX]
        y[self.DROPPED] = 0.0
        out = gather_dense(Tensor(x), self.INDEX, Tensor(w), Tensor(b), self.DROPPED, self.SCALE)
        # the forward runs over x's rows and subtracts the dropped terms:
        # the composition's values up to rounding
        np.testing.assert_allclose(out.data, y @ w.T + b, rtol=0, atol=1e-12)

    def test_constant_input_gets_no_grad(self):
        rng = np.random.default_rng(27)
        x, w, b = rng.normal(size=(4, 6)), rng.normal(size=(3, 6)), rng.normal(size=3)
        probe = rng.normal(size=(5, 3))
        grads = []
        for leaf in (Tensor, Constant):
            source, weight, bias = leaf(x), Tensor(w), Tensor(b)
            out = gather_dense(source, self.INDEX, weight, bias, self.DROPPED, self.SCALE)
            weighted_sum(out, probe).backward()
            assert np.any(source.grad != 0.0) == (leaf is Tensor)
            grads.append((weight.grad, bias.grad))
        np.testing.assert_array_equal(grads[1][0], grads[0][0])
        np.testing.assert_array_equal(grads[1][1], grads[0][1])

    @pytest.mark.parametrize("rate", [0.3, 0.0001])
    def test_matches_gather_dropout_flatten_dense(self, rate):
        # x is a conv output, a (U, F, T) view of a (U, T, F) buffer, as in
        # the model's conv branches; repeated, unused and reordered rows
        rng = np.random.default_rng(28)
        index = rng.integers(1, 6, size=40)
        x = rng.normal(size=(6, 50, 8)).transpose(0, 2, 1)
        w, b = rng.normal(size=(7, 400)), rng.normal(size=7)
        probe = rng.normal(size=(40, 7))

        def run(build):
            source, weight, bias = Tensor(x), Tensor(w), Tensor(b)
            out = build(source, weight, bias, np.random.default_rng(29))
            weighted_sum(out, probe).backward()
            return out.data, source.grad, weight.grad, bias.grad

        def composed(source, weight, bias, mask_rng):
            return dense(flatten(dropout(gather(source, index), rate, mask_rng)), weight, bias)

        def fused(source, weight, bias, mask_rng):
            dropped = np.nonzero(mask_rng.random((len(index), 400)) < rate)
            scale = 1.0 / (1.0 - rate)
            return gather_dense(flatten(source), index, weight, bias, dropped, scale)

        want, got = run(composed), run(fused)
        for g, w_ in zip(got, want):
            np.testing.assert_allclose(g, w_, rtol=0, atol=1e-12)

    def test_forward_matches_composition_at_dense1_width(self):
        """At dense1's input width and the paper's batch (10 distinct rows,
        200 pair rows, rate 1e-4; 128 outputs keep the weight small), the
        forward over the 10 rows matches the 200-row product of the masked
        rows within 1e-12."""
        rng = np.random.default_rng(30)
        n_out, n_in, rate = 128, 23936, 1e-4
        x, w, b = rng.normal(size=(10, n_in)), rng.normal(size=(n_out, n_in)), rng.normal(size=n_out)
        index = np.concatenate([np.repeat(np.arange(10), 10), np.tile(np.arange(10), 10)])
        dropped = np.nonzero(rng.random((200, n_in)) < rate)
        scale = 1.0 / (1.0 - rate)
        y = (x * scale)[index]
        y[dropped] = 0.0
        got = gather_dense(Tensor(x), index, Tensor(w), Tensor(b), dropped, scale).data
        np.testing.assert_allclose(got, y @ w.T + b, rtol=0, atol=1e-12)

    def test_shape_checks(self):
        x, w, b = Tensor(np.zeros((4, 6))), Tensor(np.zeros((3, 6))), Tensor(np.zeros(3))
        with pytest.raises(ValueError, match="1-d"):
            gather_dense(x, [[0, 1]], w, b)
        with pytest.raises(ValueError, match="input"):
            gather_dense(Tensor(np.zeros((4, 5))), [0], w, b)


class TestBackwardMechanics:
    def test_unset_grad_reads_zeros(self):
        x = Tensor(np.ones((2, 3)))
        np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))
        out = relu(x)
        np.testing.assert_array_equal(out.grad, np.zeros((2, 3)))

    def test_grads_accumulate_through_views(self):
        # flatten, concat and identity dropout hand views of their grad to
        # their inputs; a later backward must still add, not overwrite
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        w = Tensor(rng.normal(size=(5, 3, 3)))
        b = Tensor(rng.normal(size=5))
        probe = rng.normal(size=(2, 20))

        def loss():
            h = flatten(dropout(conv1d(x, w, b), 0.5, None, training=False))
            return weighted_sum(concat([h, h]), probe)

        loss().backward()
        first = [t.grad.copy() for t in (x, w, b)]
        loss().backward()
        for t, g in zip((x, w, b), first):
            np.testing.assert_array_equal(t.grad, 2.0 * g)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([1.0, 2.0])
        loss = weighted_sum(relu(x), np.ones(2))
        loss.backward()
        first = x.grad.copy()
        loss2 = weighted_sum(relu(x), np.ones(2))
        loss2.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * first)

    def test_diamond_graph_single_visit(self):
        x = Tensor([0.5, -0.5])
        h = tanh(x)
        out = concat([h, h])
        weighted_sum(out, np.array([1.0, 1.0, 1.0, 1.0])).backward()
        expected = 2.0 * (1.0 - np.tanh(x.data) ** 2)
        np.testing.assert_allclose(x.grad, expected, rtol=1e-12)


class TestRMSProp:
    def test_zero_grad_keeps_params(self):
        p = Tensor([1.0, -1.0])
        opt = RMSProp([p], lr=1e-3)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -1.0])

    def test_first_step_matches_update_rule(self):
        p = Tensor(0.0)
        opt = RMSProp([p], lr=1e-5, decay=1e-6)
        p.grad = np.asarray(1.0)
        opt.step()
        expected = -1e-5 / (np.sqrt((1.0 - 0.9) * 1.0) + 1e-8)
        assert float(p.data) == pytest.approx(expected, rel=1e-12)

    def test_learning_rate_decays_inverse_time(self):
        p = Tensor(0.0)
        opt = RMSProp([p], lr=1e-5, decay=0.5)
        rates = []
        for _ in range(4):
            rates.append(opt.current_lr())
            p.grad = np.asarray(1.0)
            opt.step()
        assert rates[0] == 1e-5
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert rates[2] == pytest.approx(1e-5 / 2.0)

    def test_zero_grad_clears(self):
        p = Tensor([1.0])
        p.grad = np.asarray([3.0])
        opt = RMSProp([p])
        opt.zero_grad()
        np.testing.assert_array_equal(p.grad, [0.0])

    @pytest.mark.parametrize("shape", [(int(2.5 * autodiff._STEP_BLOCK),), ()])
    def test_blocked_step_equals_closed_form(self, shape):
        # 2.5 blocks: two full blocks and a partial one; () is a 0-d parameter
        rng = np.random.default_rng(3)
        start = rng.normal(size=shape)
        p = Tensor(start.copy())
        opt = RMSProp([p], lr=1e-3, decay=0.1)
        want, cache = start.copy(), np.zeros(shape)
        for step in range(3):
            g = rng.normal(size=shape)
            lr_t = 1e-3 / (1.0 + 0.1 * step)
            cache = 0.9 * cache + (1.0 - 0.9) * g * g
            want = want - lr_t * g / (np.sqrt(cache) + 1e-8)
            p.grad = g
            opt.step()
            np.testing.assert_array_equal(p.data, want)
            np.testing.assert_array_equal(opt.cache[0], cache)

    def test_step_makes_no_parameter_sized_temporary(self):
        size = 8 * autodiff._STEP_BLOCK
        p = Tensor(np.ones(size))
        opt = RMSProp([p])
        p.grad = np.full(size, 0.5)
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * autodiff._STEP_BLOCK  # room for the two scratch blocks only

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            RMSProp([Tensor([1.0])], lr=0.0)


class TestFactoredGrad:
    """gather_dense leaves its weight's grad factored at any input width,
    and RMSProp expands it band by band with every bit of the step over the
    dense grad."""

    # six _BAND_ROWS bands and an 8-row one; a 32-row band of 1280 columns
    # is walked in two _STEP_BLOCK blocks
    N_OUT, N_IN = 200, 1280

    @staticmethod
    def backward(u, n_out, n_in, dropped_rate, seed, weight=None):
        """One gather_dense backward over u distinct rows; returns the
        weight, the output grad, and the op's inputs."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(u, n_in))
        index = np.concatenate([np.arange(u), rng.integers(0, u, size=u)])
        dropped = np.nonzero(rng.random((len(index), n_in)) < dropped_rate)
        probe = rng.normal(size=(len(index), n_out))
        if weight is None:
            weight = Tensor(rng.normal(size=(n_out, n_in)))
        out = gather_dense(Tensor(x), index, weight, Tensor(np.zeros(n_out)), dropped, 1.25)
        weighted_sum(out, probe).backward()
        return weight, probe, x, index, dropped

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("rate", [0.0, 0.01])
    @pytest.mark.parametrize("u", [1, 2, 10, 200])
    def test_step_equals_dense_step(self, workers, u, rate, width):
        workers(width)
        start = np.random.default_rng(u).normal(size=(self.N_OUT, self.N_IN))
        tiled, dense_ = Tensor(start.copy()), Tensor(start.copy())
        opts = [RMSProp([p], lr=1e-3, decay=0.1) for p in (tiled, dense_)]
        for step in range(2):
            for opt, p in zip(opts, (tiled, dense_)):
                opt.zero_grad()
                self.backward(u, self.N_OUT, self.N_IN, rate, 10 * u + step, p)
            assert isinstance(tiled._grad, autodiff._FactoredGrad)
            dense_.grad  # read: the dense grad, stepped the flat way
            assert isinstance(dense_._grad, np.ndarray)
            for opt in opts:
                opt.step()
            np.testing.assert_array_equal(tiled.data, dense_.data)
            np.testing.assert_array_equal(opts[0].cache[0], opts[1].cache[0])

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("u", [1, 2, 10, 200])
    @pytest.mark.parametrize(
        "n_out, n_in",
        [
            (193, 1280),  # 193 = 6 * 32 + 1: the last band is one row
            (128, 23936),  # dense1's input width
            (16, 1300),  # an input width off the 64-column forward grid
        ],
    )
    def test_band_step_equals_dense_step(self, workers, n_out, n_in, u, width):
        """Bands and shares that end off a multiple of _BAND_ROWS, and
        input widths off the forward grid, still give the dense step's bits,
        on any number of workers."""
        workers(width)
        start = np.random.default_rng(u).normal(size=(n_out, n_in))
        banded, dense_ = Tensor(start.copy()), Tensor(start.copy())
        opts = [RMSProp([p], lr=1e-3, decay=0.1) for p in (banded, dense_)]
        for step in range(2):
            for opt, p in zip(opts, (banded, dense_)):
                opt.zero_grad()
                self.backward(u, n_out, n_in, 0.01, 10 * u + step, p)
            assert isinstance(banded._grad, autodiff._FactoredGrad)
            dense_.grad  # read: the dense grad, stepped the flat way
            for opt in opts:
                opt.step()
            np.testing.assert_array_equal(banded.data, dense_.data)
            np.testing.assert_array_equal(opts[0].cache[0], opts[1].cache[0])

    def test_grad_reads_dense(self):
        weight, probe, x, index, (rows, cols) = self.backward(10, self.N_OUT, self.N_IN, 0.01, 3)
        assert isinstance(weight._grad, autodiff._FactoredGrad)
        xs = x * 1.25
        g = np.zeros((len(x), self.N_OUT))
        for row, src in enumerate(index):
            g[src] += probe[row]
        touched, at = np.unique(cols, return_inverse=True)
        dropped_y = np.zeros((len(index), len(touched)))
        dropped_y[rows, at] = xs[index[rows], cols]
        want = g.T @ xs
        want[:, touched] -= probe.T @ dropped_y
        got = weight.grad
        np.testing.assert_array_equal(got, want)
        assert weight.grad is got  # made once, then kept

    @pytest.mark.parametrize("factored_first", [True, False])
    def test_contributions_add(self, factored_first):
        rng = np.random.default_rng(4)
        x2, probe2 = rng.normal(size=(3, self.N_IN)), rng.normal(size=(3, self.N_OUT))
        start = rng.normal(size=(self.N_OUT, self.N_IN))

        def factored(weight):
            self.backward(10, self.N_OUT, self.N_IN, 0.01, 5, weight)

        def plain(weight):
            weighted_sum(dense(Tensor(x2), weight, Tensor(np.zeros(self.N_OUT))), probe2).backward()

        alone = []
        for contribute in (factored, plain):
            weight = Tensor(start.copy())
            contribute(weight)
            alone.append(weight.grad)
        both = Tensor(start.copy())
        for contribute in (factored, plain) if factored_first else (plain, factored):
            contribute(both)
        first, second = alone if factored_first else alone[::-1]
        np.testing.assert_array_equal(both.grad, first + second)

    def test_zero_grad_drops_factored_grad(self):
        weight, *_ = self.backward(10, self.N_OUT, self.N_IN, 0.01, 6)
        RMSProp([weight]).zero_grad()
        assert weight._grad is None

    @pytest.mark.parametrize("n_in", [23936, 25116])  # dense1's, the fusion layer's
    def test_backward_and_step_make_no_weight_sized_array(self, workers, n_in):
        """At dense1's and the fusion layer's input widths (fewer outputs to
        keep the test small), backward plus step allocate less than the
        weight."""
        workers(2)
        n_out = 128
        rng = np.random.default_rng(8)
        weight = Tensor(rng.normal(size=(n_out, n_in)))
        x = Tensor(rng.normal(size=(10, n_in)))
        index = np.concatenate([np.arange(10), rng.integers(0, 10, size=190)])
        dropped = np.nonzero(rng.random((200, n_in)) < 1e-4)
        opt = RMSProp([weight])
        out = gather_dense(x, index, weight, Tensor(np.zeros(n_out)), dropped, 1.0 / (1 - 1e-4))
        loss = weighted_sum(out, rng.normal(size=(200, n_out)))
        tracemalloc.start()
        try:
            loss.backward()
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < weight.data.nbytes

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_step_scratch_is_one_band_per_worker(self, workers, width):
        """At dense1's input width, a step on a factored grad allocates one
        band of at most _BAND_ROWS + 1 rows and one _STEP_BLOCK per share,
        besides the step's two flat scratch blocks."""
        workers(width)
        n_out, n_in = 128, 23936
        weight, *_ = self.backward(10, n_out, n_in, 1e-4, 8)
        opt = RMSProp([weight])
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_share = ((autodiff._BAND_ROWS + 1) * n_in + autodiff._STEP_BLOCK) * 8
        assert peak < width * per_share + 2 * autodiff._STEP_BLOCK * 8 + (1 << 16)

    def test_band_scratch_fits_the_budget_at_32_cpus(self):
        """With 32 CPUs, a step on a factored grad at dense1's input width
        takes only as many shares as fit their bands in _BAND_BUDGET, and
        its shares, each run here on the calling thread, give the bits of
        the dense grad's step. At 2 CPUs dense1 takes its 2 shares."""
        n_out, n_in = 128, 23936
        assert min(autodiff._band_shares(1024, n_in), 2) == 2
        parts = min(autodiff._band_shares(n_out, n_in), 32)
        assert 2 <= parts < 32
        start = np.random.default_rng(9).normal(size=(n_out, n_in))
        banded, dense_ = Tensor(start.copy()), Tensor(start.copy())
        opts = [RMSProp([p], lr=1e-3) for p in (banded, dense_)]
        for p in (banded, dense_):
            self.backward(10, n_out, n_in, 1e-4, 9, p)
        grad = banded._grad
        assert isinstance(grad, autodiff._FactoredGrad)
        dense_.grad  # read: the dense grad, stepped the flat way
        opts[1].step()
        data, cache = banded.data.reshape(-1), opts[0].cache[0].reshape(-1)
        peaks = []
        for i in range(parts):
            tracemalloc.start()
            try:
                opts[0]._band_share(data, cache, grad, opts[0].current_lr(), i, parts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert parts * max(peaks) <= autodiff._BAND_BUDGET
        np.testing.assert_array_equal(banded.data, dense_.data)
        np.testing.assert_array_equal(opts[0].cache[0], opts[1].cache[0])


class TestSplitWork:
    """With the split forced, every result equals the one-thread result bit
    for bit, and the pool survives errors and forks."""

    @staticmethod
    def dense_run(x, w, b, probe, limits):
        """dense's output and grads, and how many split jobs its forward
        added to limits (count_splits' list)."""
        xs, ws, bs = Tensor(x), Tensor(w), Tensor(b)
        out = dense(xs, ws, bs)
        forward = len(limits)
        weighted_sum(out, probe).backward()
        return (out.data, xs.grad, ws.grad, bs.grad), forward

    @pytest.mark.parametrize(
        "rows, n_in, n_out",
        [
            (32, 2048, 512),  # every product split
            (32, 2048, 193),  # one block of outputs: the forward stays whole
            (32, 1 << 16, 1),  # one output column: only the grads split
            (1, 2048, 1024),  # one row: every product split
        ],
    )
    def test_dense_equals_one_thread(self, workers, count_splits, rows, n_in, n_out):
        rng = np.random.default_rng(40)
        x, w = rng.normal(size=(rows, n_in)), rng.normal(size=(n_out, n_in))
        b, probe = rng.normal(size=n_out), rng.normal(size=(rows, n_out))
        workers(1)
        want, _ = self.dense_run(x, w, b, probe, [])
        workers(2)
        limits = count_splits()
        got, forward = self.dense_run(x, w, b, probe, limits)
        # the forward splits when its outputs span two blocks or more; the
        # weight grad and the input grad split in every case
        assert forward == (n_out > autodiff._BLOCK_COLUMNS)
        assert len(limits) == forward + 2 and min(limits) >= 2
        for g, w_ in zip(got, want):
            np.testing.assert_array_equal(g, w_)

    @pytest.mark.parametrize("dropped", [([0, 5, 5, 39], [3, 3, 4000, 64]), None])
    def test_gather_dense_equals_one_thread(self, workers, count_splits, dropped):
        rng = np.random.default_rng(41)
        index = rng.integers(0, 6, size=40)
        x, w = rng.normal(size=(6, 4096)), rng.normal(size=(512, 4096))
        b, probe = rng.normal(size=512), rng.normal(size=(40, 512))

        def run():
            xs, ws, bs = Tensor(x), Tensor(w), Tensor(b)
            out = gather_dense(xs, index, ws, bs, dropped, 1.25)
            weighted_sum(out, probe).backward()
            return out.data, xs.grad, ws.grad, bs.grad

        workers(1)
        want = run()
        workers(2)
        limits = count_splits()
        got = run()
        # the forward and the input grad; the weight grad is factored, and
        # the band step expands it (TestFactoredGrad)
        assert sum(limit >= 2 for limit in limits) == 2
        for g, w_ in zip(got, want):
            np.testing.assert_array_equal(g, w_)

    def test_paper_fusion_forward_splits_into_even_shares(self, workers, count_splits, monkeypatch):
        # the paper fusion layer's 540 outputs are two whole blocks and a
        # partial one: two shares of whole blocks, their column counts at
        # most one block apart, with the one-share bits
        rng = np.random.default_rng(49)
        x, w, b = (rng.normal(size=shape).astype(np.float32) for shape in [(10, 2048), (540, 2048), 540])
        workers(1)
        want = dense(Tensor(x), Tensor(w), Tensor(b)).data
        workers(2)
        limits, spans, cut = count_splits(), [], autodiff._cut

        def spy(n, i, parts):
            spans.append(cut(n, i, parts))
            return spans[-1]

        monkeypatch.setattr(autodiff, "_cut", spy)
        got = dense(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_array_equal(got, want)
        block = autodiff._BLOCK_COLUMNS
        assert limits == [3] and 540 % block
        widths = [min(s.stop * block, 540) - s.start * block for s in spans]
        assert len(widths) == 2 and sum(widths) == 540
        assert max(widths) - min(widths) <= block

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_transposed_operands(self, workers, order):
        # the backward passes transposed views: gy.T, g.T and w.T
        rng = np.random.default_rng(42)
        a = np.asarray(rng.normal(size=(700, 48)), order=order).T
        b = np.asarray(rng.normal(size=(320, 700)), order=order).T
        workers(2)
        np.testing.assert_array_equal(autodiff._matmul(a, b), a @ b)

    @pytest.mark.parametrize("n, parts", [(10, 3), (7, 7), (640, 3), (1, 1)])
    def test_shares_partition_the_range(self, n, parts):
        cuts = [pool._cut(n, i, parts) for i in range(parts)]
        assert [c.start for c in cuts[1:]] == [c.stop for c in cuts[:-1]]
        assert cuts[0].start == 0 and cuts[-1].stop == n
        assert all(c.stop > c.start for c in cuts)

    def test_small_product_submits_nothing(self, workers, count_splits):
        workers(2)
        limits = count_splits()
        rng = np.random.default_rng(43)
        x, w, b = rng.normal(size=(8, 64)), rng.normal(size=(128, 64)), rng.normal(size=128)
        weighted_sum(dense(Tensor(x), Tensor(w), Tensor(b)), np.ones((8, 128))).backward()
        assert limits == []
        assert pool._workers_now is None  # no pool was even made

    def test_one_cpu_makes_no_pool(self):
        assert pool._Workers(1)._pool is None

    def test_chunk_error_reaches_caller_and_pool_survives(self, workers, count_splits):
        workers(2)
        limits = count_splits()
        rng = np.random.default_rng(44)
        a, b = rng.normal(size=(32, 512)), rng.normal(size=(500, 512))
        with pytest.raises(ValueError):
            autodiff._matmul(a, b)  # split by a's shape, so the shares fail
        b = rng.normal(size=(512, 512))
        np.testing.assert_array_equal(autodiff._matmul(a, b), a @ b)
        assert limits == [2, 2]

    def test_worker_error_raised_after_every_share(self, workers):
        workers(2)
        finished = []
        released = threading.Event()

        def task(i, parts):
            if i == 0:
                released.wait(5.0)
                finished.append(i)
            else:
                released.set()
                raise KeyError("share 1")

        with pytest.raises(KeyError, match="share 1"):
            pool._workers().run(task, 2)
        assert finished == [0]

        def slow_worker(i, parts):
            if i == 0:
                raise KeyError("share 0")
            time.sleep(0.2)
            finished.append(i)

        with pytest.raises(KeyError, match="share 0"):
            pool._workers().run(slow_worker, 2)
        assert finished == [0, 1]  # share 1 ended before the error was raised

    def test_concurrent_callers_share_one_pool(self, workers, monkeypatch, count_splits):
        # more calling threads than workers, switching often: each gets its
        # own exact product, split in two, and the first use makes exactly
        # one pool
        workers(2)
        limits = count_splits()
        made = []
        init = pool._Workers.__init__

        def counting_init(self, width):
            made.append(width)
            init(self, width)

        monkeypatch.setattr(pool._Workers, "__init__", counting_init)
        rng = np.random.default_rng(47)
        a = [rng.normal(size=(32, 512)) for _ in range(6)]
        b = rng.normal(size=(512, 512))
        results = [None] * len(a)
        start = threading.Barrier(len(a))

        def call(k):
            start.wait()
            for _ in range(5):
                results[k] = autodiff._matmul(a[k], b)

        threads = [threading.Thread(target=call, args=(k,)) for k in range(len(a))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert made == [2]
        assert limits == [2] * (5 * len(a))
        for k in range(len(a)):
            np.testing.assert_array_equal(results[k], a[k] @ b)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_splits_a_product(self, workers, count_splits):
        workers(2)
        limits = count_splits()
        rng = np.random.default_rng(45)
        a, b = rng.normal(size=(32, 512)), rng.normal(size=(512, 512))
        want = a @ b
        autodiff._matmul(a, b)  # the parent's pool now has a thread
        assert limits == [2]
        parent_workers = pool._workers_now
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                same = np.array_equal(autodiff._matmul(a, b), want)
                split = limits == [2, 2]  # the child's copy of the list
                code = 0 if same and split and pool._workers_now is not parent_workers else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung on a split product")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    @pytest.mark.parametrize("shape", [(20,), (5, 7), ()])
    @pytest.mark.parametrize("strided", [False, True])
    def test_step_equals_one_thread(self, workers, monkeypatch, count_splits, shape, strided):
        # 8-element blocks: 20 elements are two full blocks and a partial one
        monkeypatch.setattr(autodiff, "_STEP_BLOCK", 8)
        rng = np.random.default_rng(46)
        start = rng.normal(size=shape)
        grads = [rng.normal(size=shape) for _ in range(3)]

        def place(a):
            # every other element of a buffer when strided, else a copy
            if not strided:
                return a.copy()
            buffer = np.zeros(a.shape + (2,))
            buffer[..., 0] = a
            return buffer[..., 0]

        def run():
            p = Tensor(place(start))
            opt = RMSProp([p], lr=1e-3, decay=0.1)
            for g in grads:
                p.grad = place(g)
                opt.step()
            return p.data, opt.cache[0]

        workers(1)
        want = run()
        workers(2)
        limits = count_splits()
        got = run()
        assert limits == []  # a plain grad is walked on the calling thread
        for g, w_ in zip(got, want):
            np.testing.assert_array_equal(g, w_)


# a float32 weight's products, against the same products over its float64
# copy, the input rounded once: at most 5.2e-7 (forward), 8.4e-7 (input
# grad) and 6.1e-7 (weight grad) of their largest entry under the SkylakeX
# and Haswell OpenBLAS kernels, at 1 to 200 rows
FLOAT32_PRODUCT_TOL = 2e-6
# conv1d's float32 forward and grads against its float64 copies' at
# TestFloat32Contracts' shape: at most 4.7e-7 of their largest entry (the
# bias grad, a float32 sum over every output step; the rest 2.1e-7) under
# both kernels
FLOAT32_CONV_TOL = 1e-6


def assert_float32_product(got, want, tol=FLOAT32_PRODUCT_TOL):
    """got, a float32 weight's result, is within tol of the largest entry
    of want, the same op's over the float64 copy."""
    assert got.dtype == np.float32 and want.dtype == np.float64
    err = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
    assert err <= tol, f"error {err:.2e} of the largest entry"


@pytest.fixture(scope="class")
def mapped_shape_weight():
    """A read-only float32 weight as wide as dense1 of a 64-filter MFCC
    branch, with its float64 copy. Its 384 outputs are a block and a half
    of _BLOCK_COLUMNS, so a split forward has two blocks, the last one
    partial."""
    rng = np.random.default_rng(47)
    w32 = rng.normal(size=(384, 23936)).astype(np.float32)
    w32.flags.writeable = False
    return w32, w32.astype(np.float64), rng.normal(size=384)


class TestFloat32Weights:
    """A float32 weight, as every layer holds, is multiplied in float32:
    within float32 rounding of the product over its float64 copy, and with
    the same bits on any number of CPUs and for an unaligned weight, as a
    mapped one may be, and an aligned one alike."""

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 8, 11, 14, 100, 200])
    def test_dense_equals_float64_weight(self, workers, mapped_shape_weight, rows, width):
        w32, w64, b = mapped_shape_weight
        x = np.random.default_rng(rows).normal(size=(rows, w32.shape[1]))
        workers(1)
        one = dense(Tensor(x), Tensor(w32), Tensor(b)).data
        want = dense(Tensor(x), Tensor(w64), Tensor(b)).data
        workers(width)
        weight = Tensor(w32)
        assert weight.data is w32
        got = dense(Tensor(x), weight, Tensor(b)).data
        np.testing.assert_array_equal(got, one)
        assert_float32_product(got, want)

    def test_gather_dense_equals_float64_weight(self, mapped_shape_weight):
        w32, w64, b = mapped_shape_weight
        rng = np.random.default_rng(48)
        x, index = rng.normal(size=(6, w32.shape[1])), rng.integers(0, 6, size=14)
        dropped = ([0, 3, 13], [5, 7000, 23935])
        got = gather_dense(Tensor(x), index, Tensor(w32), Tensor(b), dropped, 1.25).data
        want = gather_dense(Tensor(x), index, Tensor(w64), Tensor(b), dropped, 1.25).data
        assert_float32_product(got, want)

    def test_unaligned_weight_gives_the_aligned_bits(self, mapped_shape_weight):
        """dense takes any float32 array: a weight 3 bytes off alignment
        gives the bits of an aligned copy in the forward and the input grad,
        because the products run on the same block grid. read_container
        copies such a tensor of a version-1 file at load, so a checkpoint
        never hands one over; a caller's own array may be one."""
        w32, _, b = mapped_shape_weight
        raw = np.zeros(w32.nbytes + 3, np.uint8)
        unaligned = np.frombuffer(raw, np.float32, w32.size, offset=3).reshape(w32.shape)
        unaligned[...] = w32
        assert not unaligned.flags.aligned and w32.flags.aligned
        rng = np.random.default_rng(56)
        x, probe = rng.normal(size=(12, w32.shape[1])), rng.normal(size=(12, w32.shape[0]))
        runs = []
        for w in (unaligned, w32):
            xs = Tensor(x)
            out = dense(xs, Tensor(w), Tensor(b))
            weighted_sum(out, probe).backward()
            runs.append((out.data, xs.grad))
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rows", [1, 14])
    def test_dense_makes_no_float64_copy_of_the_weight(self, workers, rows):
        workers(2)  # two shares at most
        w32 = np.ones((512, 1 << 14), dtype=np.float32)
        x = np.ones((rows, 1 << 14))
        weight = Tensor(w32)
        tracemalloc.start()
        try:
            out = dense(Tensor(x), weight, Tensor(np.zeros(512)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(out.data == 1 << 14)
        assert peak < w32.nbytes  # half the float64 copy


class TestFloat32Training:
    """Every weight stays float32 through training: drawn into float32,
    multiplied in float32 by every product that reads it, given a float32
    grad, and stepped by RMSProp in float32 with a float32 cache."""

    def test_row_block_draw_equals_whole_draw_rounded(self):
        shape = (128, 1 << 14)
        got_rng, want_rng = np.random.default_rng(51), np.random.default_rng(51)
        got = autodiff.glorot_float32(got_rng, shape, shape[1], shape[0])
        whole = autodiff.glorot_uniform(want_rng, shape, shape[1], shape[0])
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, whole.astype(np.float32))
        # the stream is left where the whole draw leaves it, so the layers
        # drawn after this one get the same weights
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("in_dim, out_dim", [(1 << 14, 64), ((1 << 14) - 1, 64), (1 << 14, 100)])
    def test_dense_layer_draws_castable_weights_into_float32(self, in_dim, out_dim):
        # every weight, whatever its shape, is the whole draw rounded
        layer = DenseLayer(in_dim, out_dim, np.random.default_rng(52))
        whole = autodiff.glorot_uniform(
            np.random.default_rng(52), (out_dim, in_dim), in_dim, out_dim
        )
        assert layer.weight.data.dtype == layer.bias.data.dtype == np.float32
        np.testing.assert_array_equal(layer.weight.data, whole.astype(np.float32))

    @pytest.mark.parametrize("rows", [2, 10, 200])
    def test_input_grad_product_has_the_same_bits_at_any_cpu_count(
        self, workers, count_splits, mapped_shape_weight, rows
    ):
        """g @ W over a C-ordered float32 W, as an input grad reads the
        weight, is multiplied in float32 one _BLOCK_COLUMNS block at a time:
        1 share and 2 give the same bits, within float32 rounding of the
        product over W's float64 copy. 23,936 columns end in a partial
        block."""
        w32, w64, _ = mapped_shape_weight
        g = np.random.default_rng(rows).normal(size=(rows, w32.shape[0]))
        g32 = g.astype(np.float32)
        workers(1)
        one = autodiff._matmul(g32, w32)
        workers(2)
        limits = count_splits()
        two = autodiff._matmul(g32, w32)
        assert limits and limits[0] >= 2
        np.testing.assert_array_equal(two, one)
        assert_float32_product(one, g @ w64)

    def test_dense_weight_grad_is_a_float32_product(self):
        """dense's weight grad for a float32 weight is the float32 product
        of the rounded operands, which RMSProp's flat walk steps in float32."""
        rng = np.random.default_rng(57)
        w32 = rng.normal(size=(64, 1 << 14)).astype(np.float32)
        x, probe = rng.normal(size=(3, 1 << 14)), rng.normal(size=(3, 64))
        weight = Tensor(w32.copy())
        weighted_sum(dense(Tensor(x), weight, Tensor(np.zeros(64))), probe).backward()
        want = probe.T.astype(np.float32) @ x.astype(np.float32)
        assert weight.grad.dtype == np.float32
        np.testing.assert_array_equal(weight.grad, want)
        opt = RMSProp([weight], lr=1e-3)
        opt.step()
        cache = want * (1.0 - 0.9) * want
        np.testing.assert_array_equal(opt.cache[0], cache)
        np.testing.assert_array_equal(weight.data, w32 - want * 1e-3 / (np.sqrt(cache) + 1e-8))

    def test_training_step_makes_no_float64_copy_of_the_weight(self, workers):
        """At dense1's input width, a gather_dense backward and an RMSProp
        step over a float32 weight allocate less than a float64 array of
        the weight's size, and the weight and its cache stay float32."""
        workers(2)
        n_out, n_in = 128, 23936
        rng = np.random.default_rng(53)
        weight = Tensor(rng.normal(size=(n_out, n_in)).astype(np.float32))
        x = Tensor(rng.normal(size=(10, n_in)))
        index = np.concatenate([np.arange(10), rng.integers(0, 10, size=190)])
        dropped = np.nonzero(rng.random((200, n_in)) < 1e-4)
        opt = RMSProp([weight])
        out = gather_dense(x, index, weight, Tensor(np.zeros(n_out)), dropped, 1.0 / (1 - 1e-4))
        loss = weighted_sum(out, rng.normal(size=(200, n_out)))
        tracemalloc.start()
        try:
            loss.backward()
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * weight.data.nbytes
        assert weight.data.dtype == opt.cache[0].dtype == np.float32
        assert np.any(weight.data != 0.0) and np.any(opt.cache[0] != 0.0)

    @pytest.mark.parametrize("width", [1, 2])
    def test_band_and_flat_steps_round_the_grad_to_float32(self, workers, width):
        """A float32 weight's step on its factored grad and on the same
        grad made dense give the bits of the update chain run in float32
        over the float32 grad."""
        workers(width)
        n_out, n_in = 128, 23936
        start = np.random.default_rng(54).normal(size=(n_out, n_in)).astype(np.float32)
        banded, flat = Tensor(start.copy()), Tensor(start.copy())
        opts = [RMSProp([p], lr=1e-3, decay=0.1) for p in (banded, flat)]
        want, cache = start.copy(), np.zeros_like(start)
        for step in range(2):
            for opt, p in zip(opts, (banded, flat)):
                opt.zero_grad()
                TestFactoredGrad.backward(10, n_out, n_in, 1e-4, 55 + step, p)
            assert isinstance(banded._grad, autodiff._FactoredGrad)
            g = flat.grad  # read: flat steps the dense grad
            assert g.dtype == np.float32
            lr_t = 1e-3 / (1.0 + 0.1 * step)
            cache = cache * 0.9 + g * (1.0 - 0.9) * g
            want = want - g * lr_t / (np.sqrt(cache) + 1e-8)
            for opt in opts:
                opt.step()
            for p, opt in zip((banded, flat), opts):
                assert p.data.dtype == np.float32
                np.testing.assert_array_equal(p.data, want)
                np.testing.assert_array_equal(opt.cache[0], cache)

    def test_rmsprop_copies_a_read_only_float32_weight_once(self):
        # a read-only parameter of any shape, as load_checkpoint maps each,
        # is copied once in its dtype; a writable one is kept as it is
        mapped = [np.ones((64, 1 << 14), dtype=np.float32), np.arange(6, dtype=np.float32).reshape(2, 3)]
        for w32 in mapped:
            w32.flags.writeable = False
        params = [Tensor(w32) for w32 in mapped] + [Tensor(np.ones(3))]
        kept = params[-1].data
        opt = RMSProp(params)
        for p, w32 in zip(params, mapped):
            assert p.data.dtype == np.float32 and p.data.flags.writeable
            assert p.data is not w32
            np.testing.assert_array_equal(p.data, w32)
        assert params[-1].data is kept
        assert [c.dtype for c in opt.cache] == [np.float32, np.float32, np.float64]


class TestFloat32Contracts:
    """One float32 contract per op with a weight: over float32 weights the
    forward and every grad are within a stated tolerance of the same op's
    over float64 copies, relative to their largest entry, and have the same
    bits at 1 and 2 worker shares."""

    @staticmethod
    def run(op, x, params, probe):
        """op's output and the grads of x and of each parameter, through
        one backward of weighted_sum(op(x, *params), probe)."""
        xs, ps = Tensor(x), [Tensor(p) for p in params]
        out = op(xs, *ps)
        weighted_sum(out, probe).backward()
        return [out.data, xs.grad] + [p.grad for p in ps]

    def check(self, workers, count_splits, op, x, params, probe, tol):
        """Returns the limit of each job the float32 run at 2 shares handed
        to the workers."""
        workers(1)
        one = self.run(op, x, params, probe)
        workers(2)
        limits = count_splits()
        two = self.run(op, x, params, probe)
        splits = limits.copy()
        want = self.run(op, x.astype(np.float64), [p.astype(np.float64) for p in params], probe)
        for got, same, wide in zip(one, two, want):
            np.testing.assert_array_equal(same, got)
            assert_float32_product(got, wide, tol)
        return splits

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv1d(self, workers, count_splits, stride, relu):
        rng = np.random.default_rng(61 + stride)
        # the channels-last layout a stacked input and a conv output have
        x = rng.normal(size=(20, 50, 16)).astype(np.float32).transpose(0, 2, 1)
        params = [rng.normal(size=(8, 16, 3)).astype(np.float32), rng.normal(size=8).astype(np.float32)]
        probe = rng.normal(size=(20, 8, (50 - 3) // stride + 1))

        def op(xs, w, b):
            return conv1d(xs, w, b, stride, relu)

        self.check(workers, count_splits, op, x, params, probe, FLOAT32_CONV_TOL)

    @pytest.mark.parametrize("rows", [2, 14])
    def test_dense(self, workers, count_splits, mapped_shape_weight, rows):
        w32, _, b = mapped_shape_weight
        rng = np.random.default_rng(62 + rows)
        x = rng.normal(size=(rows, w32.shape[1])).astype(np.float32)
        splits = self.check(workers, count_splits, dense, x, [w32, b.astype(np.float32)],
                            rng.normal(size=(rows, w32.shape[0])), FLOAT32_PRODUCT_TOL)
        assert len(splits) == 3 and min(splits) >= 2  # forward, weight grad, input grad

    def test_gather_dense(self, workers, count_splits, mapped_shape_weight):
        w32, _, b = mapped_shape_weight
        rng = np.random.default_rng(64)
        x, index = rng.normal(size=(6, w32.shape[1])).astype(np.float32), rng.integers(0, 6, size=14)
        dropped = ([0, 3, 13], [5, 7000, 23935])

        def op(xs, w, bias):
            return gather_dense(xs, index, w, bias, dropped, 1.25)

        splits = self.check(workers, count_splits, op, x, [w32, b.astype(np.float32)],
                            rng.normal(size=(14, w32.shape[0])), FLOAT32_PRODUCT_TOL)
        assert len(splits) == 2 and min(splits) >= 2  # forward, input grad

    def test_paper_conv1_makes_no_tap_matrix(self):
        """conv1's forward and backward at its paper shape (200 samples of
        60 channels by 378 steps, 64 filters, kernel 3) peak well under the
        108 MB a float64 (B*T, C*K) tap matrix alone takes: beside the
        19 MB output and the 18 MB input grad, only a few samples' scratch."""
        rng = np.random.default_rng(65)
        x = Tensor(rng.normal(size=(200, 378, 60)).astype(np.float32).transpose(0, 2, 1))
        layer = Conv1dLayer(60, 64, 3, rng=rng)
        grad = rng.normal(size=(200, 64, 376)).astype(np.float32)
        tracemalloc.start()
        try:
            out = layer(x, relu=True)
            out._backward(grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.shape and np.any(layer.weight.grad != 0.0)
        assert peak < 200 * 376 * 60 * 3 * 8 / 2


class TestToyConvergence:
    def test_two_layer_net_fits_separable_points(self):
        rng = np.random.default_rng(9)
        x = Tensor(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]))
        target = np.array([[0.0], [0.0], [1.0], [1.0]])
        hidden = DenseLayer(2, 8, rng)
        head = DenseLayer(8, 1, rng)
        opt = RMSProp(hidden.params() + head.params(), lr=0.05, decay=0.0)
        loss_value = None
        for _ in range(200):
            opt.zero_grad()
            loss = rmse_loss(head(tanh(hidden(x))), target)
            loss.backward()
            opt.step()
            loss_value = float(loss.data)
        assert loss_value < 0.1

    def test_layer_helpers_expose_params(self):
        conv = Conv1dLayer(2, filters=4, kernel=3, rng=np.random.default_rng(0))
        assert conv.out_length(10) == 8
        assert [p.data.shape for p in conv.params()] == [(4, 2, 3), (4,)]
        d = DenseLayer(3, 5, np.random.default_rng(0))
        assert [p.data.shape for p in d.params()] == [(5, 3), (5,)]
