"""Per-op autodiff cost at paper sizes, beside the bare NumPy of the same shapes.

Each op runs through the public API only: op -> weighted_sum ->
Tensor.backward. The probe's own cost (weighted_sum's backward on a leaf of
the output's shape) is measured the same way and subtracted from the
backward time. Sizes are those of one paper training step: 100 pairs, so
200 encoder rows of 60x378 MFCC input, 64 filters, kernel 3, dense width
1024; concat uses the fusion widths.

The floor of an op is the bare NumPy its forward and backward need on the
same shapes: the three GEMMs (forward, weight grad, input grad) for conv1d
and dense, and the element-wise expressions for the other ops. Flops and
bytes are computed from array sizes, not measured.
"""

import statistics
import time

import numpy as np

from vocalsim import autodiff as ad

ROWS = 200  # encoder inputs of a 100-pair batch
PAIRS = 100
CHANNELS, LENGTH = 60, 378
FILTERS, KERNEL = 64, 3
WIDTH = 1024
T1 = LENGTH - KERNEL + 1  # 376
T2 = T1 - KERNEL + 1  # 374
FLAT = FILTERS * T2  # 23936
FUSION_PARTS = (FLAT, FILTERS * (14 - 2 * (KERNEL - 1)), 540)
RATE = 1e-4
OPS = (
    "conv1d",
    "dense",
    "relu",
    "tanh",
    "sigmoid",
    "dropout",
    "flatten",
    "euclidean_distance",
    "rmse_loss",
    "concat",
)
F8 = 8  # bytes per float64


def _clock(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _channels_first(rng, batch, channels, length):
    """Same memory layout as a conv1d output: a (B, T, F) buffer viewed as
    (B, F, T), so relu, dropout and flatten see what they see in the model."""
    return rng.standard_normal((batch, length, channels)).transpose(0, 2, 1)


def _through_backward(op, arrays, params, rng, weights: dict):
    """One forward and backward of `op`; returns (fwd_s, bwd_s) with the
    probe's own backward subtracted. The probe weights are drawn on the
    first call and kept in `weights`."""
    leaves = [ad.Tensor(a) for a in arrays]
    fwd_s, out = _clock(lambda: op(*leaves, *params))
    if "w" not in weights:
        weights["w"] = rng.standard_normal(out.data.shape)
    total = ad.weighted_sum(out, weights["w"])
    bwd_s, _ = _clock(total.backward)
    bare = ad.weighted_sum(ad.Tensor(out.data), weights["w"])
    probe_s, _ = _clock(bare.backward)
    return fwd_s, bwd_s - probe_s


def _gemm(rng, x, w) -> tuple:
    """Floor, flops and bytes of the three products a layer with input rows
    x (m,k) and weight w (n,k) does per step: forward, weight grad, input
    grad."""
    (m, k), n = x.shape, w.shape[0]
    g = rng.standard_normal((m, n))

    def floor():
        return x @ w.T, g.T @ x, g @ w

    return floor, 3 * 2 * m * k * n, F8 * 3 * (m * k + n * k + m * n)


def _elementwise(rng, kind, arrays) -> tuple:
    """Floor, flops and bytes of the bare NumPy forward and backward."""
    x = arrays[0]
    n = x.size
    g = rng.standard_normal(x.shape)
    if kind == "relu":

        def floor():
            return np.maximum(x, 0.0), g * (x > 0.0)

        return floor, 3 * n, F8 * 5 * n
    if kind == "tanh":

        def floor():
            y = np.tanh(x)
            return g * (1.0 - y * y)

        return floor, 4 * n, F8 * 4 * n
    if kind == "sigmoid":

        def floor():
            y = 1.0 / (1.0 + np.exp(-x))
            return g * y * (1.0 - y)

        return floor, 7 * n, F8 * 4 * n
    if kind == "dropout":

        def floor():
            scale = (rng.random(x.shape) >= RATE) / (1.0 - RATE)
            return x * scale, g * scale

        return floor, 4 * n, F8 * 6 * n
    if kind == "flatten":

        def floor():
            return x.reshape(x.shape[0], -1), g.reshape(x.shape[0], -1)

        return floor, 0, F8 * 2 * n
    if kind == "euclidean_distance":
        b = arrays[1]

        def floor():
            diff = x - b
            dist = np.sqrt(np.sum(diff * diff, axis=-1))
            return diff * (1.0 / dist)[:, None]

        return floor, 5 * n, F8 * 5 * n
    if kind == "rmse_loss":

        def floor():
            diff = x - 1.0
            loss = np.sqrt(np.mean(diff * diff))
            return diff / (diff.size * loss)

        return floor, 5 * n, F8 * 3 * n
    total = sum(a.size for a in arrays)  # concat

    def floor():
        return np.concatenate(arrays, axis=-1)

    return floor, 0, F8 * 2 * total


def _concat(*parts):
    return ad.concat(list(parts))


def _conv(rng, c_in, length):
    t = length - KERNEL + 1
    if c_in == CHANNELS:
        x = rng.standard_normal((ROWS, c_in, length))
    else:
        x = _channels_first(rng, ROWS, c_in, length)
    layer = ad.Conv1dLayer(c_in, FILTERS, KERNEL, 1, rng)
    taps = rng.standard_normal((ROWS * t, c_in * KERNEL))
    floor = _gemm(rng, taps, layer.weight.data.reshape(FILTERS, -1))
    return (ad.conv1d, [x], layer.params(), *floor)


def _dense(rng, rows, d_in, d_out):
    layer = ad.DenseLayer(d_in, d_out, rng)
    x = rng.standard_normal((rows, d_in))
    return (ad.dense, [x], layer.params(), *_gemm(rng, x, layer.weight.data))


def _pointwise(rng, op, name, arrays, params=()):
    return (op, arrays, list(params), *_elementwise(rng, name, arrays))


def _instances():
    """(op name, make) per paper-size instance. `make(rng)` returns
    (op, inputs, params, floor, flops, bytes); building one at a time keeps
    only one instance's arrays alive."""
    target = np.zeros((PAIRS, 2))
    target[:, 0] = 1.0
    cf = _channels_first
    return (
        ("conv1d", lambda r: _conv(r, CHANNELS, LENGTH)),
        ("conv1d", lambda r: _conv(r, FILTERS, T1)),
        ("dense", lambda r: _dense(r, ROWS, FLAT, WIDTH)),
        ("dense", lambda r: _dense(r, ROWS, WIDTH, WIDTH)),
        ("dense", lambda r: _dense(r, PAIRS, 1, 2)),
        ("relu", lambda r: _pointwise(r, ad.relu, "relu", [cf(r, ROWS, FILTERS, T1)])),
        ("relu", lambda r: _pointwise(r, ad.relu, "relu", [cf(r, ROWS, FILTERS, T2)])),
        ("tanh", lambda r: _pointwise(r, ad.tanh, "tanh", [r.standard_normal((ROWS, WIDTH))])),
        ("tanh", lambda r: _pointwise(r, ad.tanh, "tanh", [r.standard_normal((ROWS, WIDTH))])),
        ("sigmoid", lambda r: _pointwise(r, ad.sigmoid, "sigmoid", [r.standard_normal((PAIRS, 2))])),
        (
            "dropout",
            lambda r: _pointwise(r, ad.dropout, "dropout", [cf(r, ROWS, FILTERS, T2)], (RATE, r, True)),
        ),
        ("flatten", lambda r: _pointwise(r, ad.flatten, "flatten", [cf(r, ROWS, FILTERS, T2)])),
        (
            "euclidean_distance",
            lambda r: _pointwise(
                r,
                ad.euclidean_distance,
                "euclidean_distance",
                [r.standard_normal((PAIRS, WIDTH)), r.standard_normal((PAIRS, WIDTH))],
            ),
        ),
        ("rmse_loss", lambda r: _pointwise(r, ad.rmse_loss, "rmse_loss", [r.random((PAIRS, 2))], (target,))),
        (
            "concat",
            lambda r: _pointwise(r, _concat, "concat", [r.standard_normal((ROWS, w)) for w in FUSION_PARTS]),
        ),
    )


def probe(reps: int = 3, seed: int = 0) -> dict:
    """Every op's paper-size cost, summed over the op's instances, each
    instance timed as the median of `reps`:
    {op: {fwd_s, bwd_s, gemm_floor_s, flops, bytes}}."""
    rng = np.random.default_rng(seed)
    table = {op: dict.fromkeys(("fwd_s", "bwd_s", "gemm_floor_s", "flops", "bytes"), 0.0) for op in OPS}
    for name, make in _instances():
        fn, arrays, params, floor, flops, moved = make(rng)
        weights: dict = {}
        fwd, bwd, floors = [], [], []
        for _ in range(reps):
            f, b = _through_backward(fn, arrays, params, rng, weights)
            fwd.append(f)
            bwd.append(b)
            floors.append(_clock(floor)[0])
        entry = table[name]
        entry["fwd_s"] += statistics.median(fwd)
        entry["bwd_s"] += statistics.median(bwd)
        entry["gemm_floor_s"] += statistics.median(floors)
        entry["flops"] += flops
        entry["bytes"] += moved
        del fn, arrays, params, floor
    return table
