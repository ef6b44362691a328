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
        x = Tensor([[1.0, 2.0, 3.0, 4.0]])
        w = Tensor([[[1.0, 0.0, -1.0]]])
        b = Tensor([0.0])
        out = conv1d(x, w, b)
        np.testing.assert_array_equal(out.data, [[-2.0, -2.0]])

    def test_conv_zero_kernels_broadcast_bias(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 10)))
        w = Tensor(np.zeros((3, 2, 3)))
        b = Tensor([1.0, -2.0, 0.5])
        out = conv1d(x, w, b)
        np.testing.assert_array_equal(out.data, np.tile([[1.0], [-2.0], [0.5]], (1, 8)))

    def test_conv_stride_two_length(self):
        x = Tensor(np.zeros((1, 9)))
        out = conv1d(x, Tensor(np.zeros((1, 1, 3))), Tensor([0.0]), stride=2)
        assert out.data.shape == (1, 4)

    def test_dense_identity_and_zero(self):
        x = Tensor([1.0, -2.0, 3.0])
        eye = Tensor(np.eye(3))
        zero_b = Tensor(np.zeros(3))
        np.testing.assert_array_equal(dense(x, eye, zero_b).data, x.data)
        w0 = Tensor(np.zeros((2, 3)))
        b = Tensor([5.0, -1.0])
        np.testing.assert_array_equal(dense(x, w0, b).data, b.data)

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
            single = conv1d(Tensor(x[i]), w, b).data
            np.testing.assert_allclose(batched[i], single, rtol=1e-12)

    def test_dense_batched_matches_rows(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 7))
        w = Tensor(rng.normal(size=(4, 7)))
        b = Tensor(rng.normal(size=4))
        batched = dense(Tensor(x), w, b).data
        for i in range(5):
            np.testing.assert_allclose(batched[i], dense(Tensor(x[i]), w, b).data, rtol=1e-12)


class TestShapes:
    def test_flatten_unbatched_and_batched(self):
        assert flatten(Tensor(np.zeros((4, 6)))).data.shape == (24,)
        assert flatten(Tensor(np.zeros((2, 4, 6)))).data.shape == (2, 24)
        assert flatten(Tensor(np.zeros(9))).data.shape == (9,)

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
            conv1d(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros(1)))
        with pytest.raises(ValueError):
            conv1d(Tensor(np.zeros((2, 5))), Tensor(np.zeros((1, 3, 3))), Tensor(np.zeros(1)))
        with pytest.raises(ValueError):
            conv1d(Tensor(np.zeros((1, 5))), Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros(1)), stride=0)
        with pytest.raises(ValueError):
            dense(Tensor(np.zeros(3)), Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))
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
            shape = (C, L) if seed % 2 else (int(rng.integers(1, 4)), C, L)
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
            shape = (C, L) if seed % 2 else (int(rng.integers(1, 4)), C, L)
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
            shape = (n,) if seed % 2 else (int(rng.integers(1, 5)), n)
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
        x = rng.normal(size=(3, 4, 13) if batched else (4, 13))
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
        with pytest.raises(ValueError):
            RMSProp([Tensor([1.0])], rho=1.0)


class TestFactoredGrad:
    """gather_dense leaves the grad of a weight whose input dim is whole
    _SPLIT_COLUMNS blocks factored, and RMSProp expands it band by band
    with every bit of the step over the dense grad."""

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
            (193, 1280),  # 193 = 24 * 8 + 1: the last band would be one row
            (128, 23936),  # dense1's input width
        ],
    )
    def test_band_step_equals_dense_step(self, workers, n_out, n_in, u, width):
        """Bands and shares that end off a multiple of _BAND_ROWS still give
        the dense step's bits, on any number of workers."""
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

    @pytest.mark.parametrize("n_in", [1300, 25116])  # the fusion layer's 25,116
    def test_input_dim_off_the_blocks_keeps_dense_grad(self, n_in):
        weight, *_ = self.backward(10, 8, n_in, 0.01, 7)
        assert isinstance(weight._grad, np.ndarray)

    def test_backward_and_step_make_no_weight_sized_array(self, workers):
        """At dense1's input width (23,936 columns, fewer outputs to keep the
        test small), backward plus step allocate less than the weight."""
        workers(2)
        n_out, n_in = 128, 23936
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
    def dense_run(x, w, b, probe):
        xs, ws, bs = Tensor(x), Tensor(w), Tensor(b)
        out = dense(xs, ws, bs)
        weighted_sum(out, probe).backward()
        return out.data, xs.grad, ws.grad, bs.grad

    @pytest.mark.parametrize(
        "rows, n_in, n_out",
        [
            (32, 2048, 192),  # every product split
            (32, 2048, 193),  # odd output count: the forward stays whole
            (32, 1 << 16, 1),  # one output column: only the grads split
            (1, 2048, 1024),  # one row
        ],
    )
    def test_dense_equals_one_thread(self, workers, count_splits, rows, n_in, n_out):
        rng = np.random.default_rng(40)
        x, w = rng.normal(size=(rows, n_in)), rng.normal(size=(n_out, n_in))
        b, probe = rng.normal(size=n_out), rng.normal(size=(rows, n_out))
        workers(1)
        want = self.dense_run(x, w, b, probe)
        workers(2)
        limits = count_splits()
        got = self.dense_run(x, w, b, probe)
        assert any(limit >= 2 for limit in limits)
        for g, w_ in zip(got, want):
            np.testing.assert_array_equal(g, w_)

    @pytest.mark.parametrize("dropped", [([0, 5, 5, 39], [3, 3, 4000, 64]), None])
    def test_gather_dense_equals_one_thread(self, workers, count_splits, dropped):
        rng = np.random.default_rng(41)
        index = rng.integers(0, 6, size=40)
        x, w = rng.normal(size=(6, 4096)), rng.normal(size=(192, 4096))
        b, probe = rng.normal(size=192), rng.normal(size=(40, 192))

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
        assert sum(limit >= 2 for limit in limits) >= 3  # forward, weight grad, input grad
        for g, w_ in zip(got, want):
            np.testing.assert_array_equal(g, w_)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_transposed_operands(self, workers, order):
        # the backward passes transposed views: gy.T, g.T and w.T
        rng = np.random.default_rng(42)
        a = np.asarray(rng.normal(size=(700, 48)), order=order).T
        b = np.asarray(rng.normal(size=(320, 700)), order=order).T
        workers(2)
        np.testing.assert_array_equal(autodiff._matmul(a, b), a @ b)

    @pytest.mark.parametrize("n, parts, unit", [(10, 3, 1), (7, 7, 1), (640, 3, 64), (1, 1, 1)])
    def test_shares_partition_the_range(self, n, parts, unit):
        cuts = [pool._cut(n, i, parts, unit) for i in range(parts)]
        assert [c.start for c in cuts[1:]] == [c.stop for c in cuts[:-1]]
        assert cuts[0].start == 0 and cuts[-1].stop == n
        assert all(c.start % unit == 0 and c.stop > c.start for c in cuts)

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

    def test_chunk_error_reaches_caller_and_pool_survives(self, workers):
        workers(2)
        rng = np.random.default_rng(44)
        a, b = rng.normal(size=(32, 512)), rng.normal(size=(500, 256))
        with pytest.raises(ValueError):
            autodiff._matmul(a, b)  # split by a's shape, so the shares fail
        b = rng.normal(size=(512, 256))
        np.testing.assert_array_equal(autodiff._matmul(a, b), a @ b)

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

    def test_concurrent_callers_share_one_pool(self, workers, monkeypatch):
        # more calling threads than workers, switching often: each gets its
        # own exact product, and the first use makes exactly one pool
        workers(2)
        made = []
        init = pool._Workers.__init__

        def counting_init(self, width):
            made.append(width)
            init(self, width)

        monkeypatch.setattr(pool._Workers, "__init__", counting_init)
        rng = np.random.default_rng(47)
        a = [rng.normal(size=(32, 512)) for _ in range(6)]
        b = rng.normal(size=(512, 256))
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
        for k in range(len(a)):
            np.testing.assert_array_equal(results[k], a[k] @ b)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_splits_a_product(self, workers):
        workers(2)
        rng = np.random.default_rng(45)
        a, b = rng.normal(size=(32, 512)), rng.normal(size=(512, 256))
        want = a @ b
        autodiff._matmul(a, b)  # the parent's pool now has a thread
        parent_workers = pool._workers_now
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                same = np.array_equal(autodiff._matmul(a, b), want)
                code = 0 if same and pool._workers_now is not parent_workers else 1
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
        assert (max(limits, default=0) >= 2) == (start.size >= 16)
        for g, w_ in zip(got, want):
            np.testing.assert_array_equal(g, w_)


@pytest.fixture(scope="class")
def mapped_shape_weight():
    """A read-only float32 weight of the smallest in-dim casts_in_blocks
    accepts for dense1 of a 64-filter MFCC branch, 4 blocks wide, with its
    float64 copy."""
    rng = np.random.default_rng(47)
    w32 = rng.normal(size=(256, 23936)).astype(np.float32)
    w32.flags.writeable = False
    return w32, w32.astype(np.float64), rng.normal(size=256)


class TestFloat32Weights:
    """A float32 weight, as a mapped checkpoint holds, gives every bit of the
    product over its float64 copy."""

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 8, 11, 14, 100, 200])
    def test_dense_equals_float64_weight(self, workers, mapped_shape_weight, rows, width):
        w32, w64, b = mapped_shape_weight
        x = np.random.default_rng(rows).normal(size=(rows, w32.shape[1]))
        workers(1)
        want = dense(Tensor(x), Tensor(w64), Tensor(b)).data
        workers(width)
        weight = Tensor(w64)
        weight.data = w32
        np.testing.assert_array_equal(dense(Tensor(x), weight, Tensor(b)).data, want)

    def test_gather_dense_equals_float64_weight(self, mapped_shape_weight):
        w32, w64, b = mapped_shape_weight
        rng = np.random.default_rng(48)
        x, index = rng.normal(size=(6, w32.shape[1])), rng.integers(0, 6, size=14)
        dropped = ([0, 3, 13], [5, 7000, 23935])
        weight = Tensor(w64)
        weight.data = w32
        got = gather_dense(Tensor(x), index, weight, Tensor(b), dropped, 1.25).data
        want = gather_dense(Tensor(x), index, Tensor(w64), Tensor(b), dropped, 1.25).data
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rows", [1, 14])
    def test_dense_makes_no_float64_copy_of_the_weight(self, workers, rows):
        workers(2)  # two shares at most, each with one 64-column block buffer
        w32 = np.ones((512, 1 << 14), dtype=np.float32)
        x = np.ones((rows, 1 << 14))
        weight = Tensor(np.zeros(1))
        weight.data = w32
        tracemalloc.start()
        try:
            out = dense(Tensor(x), weight, Tensor(np.zeros(512)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(out.data == 1 << 14)
        assert peak < w32.nbytes  # half the float64 copy

    @pytest.mark.parametrize(
        "shape, blocked",
        [
            ((1024, 23936), True),  # dense1 of the paper MFCC model
            ((64, 1 << 14), True),
            ((64, (1 << 14) - 1), False),
            ((1024, 1024), False),  # dense2: 2-7 row blocks change bits
            ((540, 25116), False),  # the fusion layer: 540 is not whole blocks
            ((1000, 23936), False),
            ((64, 3, 1 << 14), False),
        ],
    )
    def test_shape_rule(self, shape, blocked):
        assert autodiff.casts_in_blocks(shape) == blocked

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_rejected_shape_is_cast_whole(self, rows):
        rng = np.random.default_rng(49)
        w64 = rng.normal(size=(1024, 1024)).astype(np.float32).astype(np.float64)
        x, b = rng.normal(size=(rows, 1024)), rng.normal(size=1024)
        weight = Tensor(w64)
        weight.data = w64.astype(np.float32)
        got = dense(Tensor(x), weight, Tensor(b)).data
        np.testing.assert_array_equal(got, dense(Tensor(x), Tensor(w64), Tensor(b)).data)

    def test_c_ordered_operand_is_cast_whole(self, monkeypatch):
        """Only the transpose of a C-ordered weight, as the forward pass
        reads it, is cast in blocks; a C-ordered float32 right operand of a
        shape the rule accepts, as an input grad reads the weight, is cast
        whole."""

        def refuse(*args, **kwargs):
            raise AssertionError("a C-ordered operand was cast in blocks")

        monkeypatch.setattr(autodiff, "_cast_matmul", refuse)
        rng = np.random.default_rng(50)
        b = rng.normal(size=(1 << 14, 64)).astype(np.float32)
        assert autodiff.casts_in_blocks(b.T.shape) and b.flags.c_contiguous
        for rows in (1, 2, 14):
            a = rng.normal(size=(rows, 1 << 14))
            got = autodiff._matmul(a, b)
            np.testing.assert_array_equal(got, a @ b.astype(np.float64))

    def test_rmsprop_casts_float32_params_once(self):
        w32 = np.arange(6, dtype=np.float32).reshape(2, 3)
        w32.flags.writeable = False
        p, q = Tensor(np.zeros(1)), Tensor(np.ones(3))
        p.data = w32
        kept = q.data
        RMSProp([p, q])
        assert p.data.dtype == np.float64 and p.data.flags.writeable
        np.testing.assert_array_equal(p.data, w32)
        assert q.data is kept


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
