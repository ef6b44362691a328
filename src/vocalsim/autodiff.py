"""Minimal reverse-mode differentiation engine.

Tensors wrap float64 numpy arrays and record the graph; ops are fused at
array granularity (one backward closure per op, not per scalar). Exactly the
layer set the similarity networks need is provided: valid 1-D convolution,
dense, relu/tanh/sigmoid, inverted dropout, a row gather, a dense layer over
gathered rows with dropout (gather_dense), flatten, concat, Euclidean
distance, and an RMSE loss, plus an RMSProp optimizer with
inverse-time learning-rate decay.

gather_dense runs its products over the distinct source rows only: its
forward equals dense(flatten(dropout(gather(...)))) under the same mask up
to rounding (within 1e-12 absolute in the tests), not bit for bit. The
model hands it the mask as the dropped entries alone, drawn by their
positions (models.SiameseModel._dropout_mask): each entry is dropped
independently with probability rate, the law of dropout's mask, but from
another RNG stream than dropout's one uniform per entry.

Batching convention: every op accepts its natural unbatched shape or the same
shape with one leading batch axis (conv1d: (C,L) or (B,C,L); dense and the
vector ops: (n,) or (B,n)). flatten collapses everything after the first axis
when the input is 3-D or deeper, and the whole tensor when it is 1- or 2-D.

Graph ownership: a node holds its parents and its backward closure; a
closure holds the op's inputs and saved arrays and receives the node's grad
as its argument, never the node itself. The graph therefore has no
reference cycles, and dropping the loss frees every intermediate at once.

CPUs: each product in dense and gather_dense (forward, weight grad, input
grad) and the RMSProp update of each large parameter is cut into one share
per CPU and run on the package's workers (see workers.py). Products below
two shares of _SPLIT_MADDS multiply-adds, and parameters below two
_STEP_BLOCKs, run on the calling thread alone. A split changes no bit of
any result: a product is split by output column, so every output element
is the same dot product computed by the same BLAS kernel, and the update is
elementwise. conv1d's products stay on one thread.

float32 weights: a dense or gather_dense weight may be a read-only float32
array, such as a view of a mapped checkpoint. A weight of the shape
casts_in_blocks() accepts is cast block by block inside each forward share,
with the bits of its float64 copy; any other is cast whole in each product
that reads it. Inference never copies such a weight to float64; RMSProp,
which writes its parameters, gives each an owned float64 copy once.

Factored weight grads: gather_dense leaves the grad of a weight whose input
dim is a multiple of _SPLIT_COLUMNS as its factors (_FactoredGrad), never as
a weight-sized array. RMSProp.step expands it one band of whole rows at a
time into scratch and updates those rows of the weight and its cache, which
are contiguous in memory. Each band starts on a multiple of _BAND_ALIGN rows
and is never a single row, so every element is the same dot product by the
same BLAS kernel as in the whole product, and the step has the bits of the
dense grad's. The step takes only as many shares as fit their bands in
_BAND_BUDGET, so its scratch does not grow with the CPU count. Reading
.grad, or a second contribution to the same weight, makes the dense array.
"""

import functools

import numpy as np

from .workers import _cut, _in_shares

_STEP_BLOCK = 32768  # RMSProp update block: 256 KB per float64 operand
# least multiply-adds per share of a split product: the smallest power of two
# at which a two-way split of a 200-row product measured faster than one thread
_SPLIT_MADDS = 1 << 24
# a split product's shares start on multiples of this many output columns,
# and only products whose column count is a multiple of it are split: the
# BLAS computes a share's trailing columns with a narrower kernel whose sums
# can differ in the last bit, so every share must end on a kernel boundary
_SPLIT_COLUMNS = 64
# a float32 right operand of _matmul is cast in blocks only when its inner
# dimension is at least this: a 2-row product of one _SPLIT_COLUMNS block
# then holds 2^21 multiply-adds, above the size (measured near 2^20) below
# which the BLAS takes a small-matrix kernel whose sums can differ in the
# last bit from those of the whole product
_CAST_INNER = 1 << 14
# RMSProp expands a factored grad in bands of this many whole rows of the
# weight (the last band of a share may be shorter, or one row longer)
_BAND_ROWS = 32
# bands, and the worker shares that hold them, start on multiples of this
# many rows, and none is a single row. A band's product then has the bits
# of the whole product's rows at every shape measured (OpenBLAS, one and
# two threads); a 1-row band, a matrix-vector call, did not, nor did bands
# of 2 or 4 rows cut on their own grid at 1,021 x 2,560, of 3 rows at
# 1,024 x 23,936, or of 7 rows at 64 x 2,560
_BAND_ALIGN = 8
# the most band scratch of one factored step, over all its shares, in
# bytes: five shares' bands at dense1's 23,936 columns, however many CPUs
# there are
_BAND_BUDGET = 1 << 25


class Tensor:
    """Array node in the computation graph.

    The grad buffer is created by the first backward contribution and
    accumulates the later ones, also across backward passes; an unset grad
    reads as zeros. A first contribution may be a _FactoredGrad, which
    stays factored until .grad is read or a second contribution arrives,
    and is then made dense. Parameter grads must be cleared between steps
    (RMSProp.zero_grad drops them).
    """

    __slots__ = ("data", "_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self._grad = None
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            return np.zeros_like(self.data)
        self._grad = _dense(self._grad)
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad = value

    def _accumulate(self, g) -> None:
        """Add one backward contribution. The first becomes the grad buffer
        itself and later ones are added into it in place, so a contribution
        must be an array (or a _FactoredGrad) that nothing reads afterwards."""
        if self._grad is None:
            self._grad = g
        else:
            self.grad += _dense(g)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    def backward(self) -> None:
        """Propagate d(self)/d(node) into every ancestor's grad slot.

        self must be a scalar (0-d) tensor, typically a loss.
        """
        if self.data.ndim != 0:
            raise ValueError("backward requires a scalar tensor")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self.grad = self.grad + 1.0
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


class Constant(Tensor):
    """A leaf whose grad nobody reads, such as a batch of model inputs:
    contributions to it are dropped, and conv1d skips computing them."""

    __slots__ = ()

    def _accumulate(self, g: np.ndarray) -> None:
        pass


def casts_in_blocks(shape) -> bool:
    """Whether dense and gather_dense can take an (out, in) weight as
    float32 and cast it to float64 one block of _SPLIT_COLUMNS output
    columns at a time, with every bit of the product over its float64 copy:
    out must be a whole number of blocks and in at least _CAST_INNER."""
    return len(shape) == 2 and shape[0] % _SPLIT_COLUMNS == 0 and shape[1] >= _CAST_INNER


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-d float64 a and 2-d b, split by output column when every
    share carries at least _SPLIT_MADDS multiply-adds: np.matmul writes each
    share's columns of the output, with the bits of a @ b.

    A float32 b is cast to float64 whole, or, when it is the transpose of a
    C-ordered weight that casts_in_blocks accepts (as in the forward pass
    over a weight mapped from a checkpoint), block by block inside each
    share (see _cast_matmul), so that no float64 copy of b is made."""
    rows, inner = a.shape
    cols = b.shape[1]
    blocked = (
        b.dtype != np.float64 and b.flags.f_contiguous and casts_in_blocks((cols, inner))
    )
    if not blocked:
        b = b.astype(np.float64, copy=False)  # keeps b's memory order
    limit = 1
    unit_madds = rows * inner * _SPLIT_COLUMNS
    if cols % _SPLIT_COLUMNS == 0 and unit_madds:
        # each share holds at least this many whole units of columns
        least = -(-_SPLIT_MADDS // unit_madds)
        limit = cols // _SPLIT_COLUMNS // least
    if limit < 2 and not blocked:
        return a @ b
    out = np.empty((rows, cols))
    product = _cast_matmul if blocked else np.matmul

    def share(i, parts):
        cut = _cut(cols, i, parts, _SPLIT_COLUMNS)
        product(a, b[:, cut], out=out[:, cut])

    _in_shares(share, limit)
    return out


def _cast_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a @ b for a float32 b of whole _SPLIT_COLUMNS blocks of columns
    and at least _CAST_INNER rows: each block is cast into one reused
    float64 buffer, laid out as the transpose of a C-ordered weight, and
    multiplied into its columns of out. A block of 2 rows or more is whole
    kernel blocks above the small-matrix cut-off, and a 1-row product is
    one dot product per column, so every bit is that of the product with
    b.astype(float64)."""
    buf = np.empty((_SPLIT_COLUMNS, b.shape[0]))
    for start in range(0, b.shape[1], _SPLIT_COLUMNS):
        cols = slice(start, start + _SPLIT_COLUMNS)
        buf[...] = b[:, cols].T
        np.matmul(a, buf.T, out=out[:, cols])


class _FactoredGrad:
    """The (m, n) weight grad G.T @ xs, less `correction` on its `touched`
    columns, kept as those factors: g is (U, m), xs (U, n), touched the
    sorted distinct columns and correction (m, len(touched)). RMSProp
    expands it one band of whole rows at a time (rows())."""

    __slots__ = ("g", "xs", "touched", "correction")

    def __init__(self, g, xs, touched, correction):
        self.g, self.xs, self.touched, self.correction = g, xs, touched, correction

    def dense(self) -> np.ndarray:
        gw = _matmul(self.g.T, self.xs)
        gw[:, self.touched] -= self.correction
        return gw

    def rows(self, band: slice, out: np.ndarray) -> None:
        """Write rows band of the grad, with the bits of dense()'s, into the
        (rows, n) array out. band must start on a multiple of _BAND_ALIGN,
        end on one or at m, and hold more than one row unless m is 1. The
        correction comes whole from gather_dense: its product over a band's
        rows could fall below the BLAS's small-matrix cut-off and change
        bits."""
        np.matmul(self.g.T[band], self.xs, out=out)
        out[:, self.touched] -= self.correction[band]


def _dense(grad) -> np.ndarray:
    return grad.dense() if isinstance(grad, _FactoredGrad) else grad


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _split_batch(data: np.ndarray, core_ndim: int) -> tuple[np.ndarray, bool]:
    """Promote to exactly core_ndim+1 dims by prepending a singleton batch."""
    if data.ndim == core_ndim:
        return data[None], False
    if data.ndim == core_ndim + 1:
        return data, True
    raise ValueError(f"expected {core_ndim}- or {core_ndim + 1}-d input, got {data.ndim}-d")


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, relu: bool = False) -> Tensor:
    """Valid (no padding) cross-correlation, optionally followed by relu.

    x: (C, L) or (B, C, L); weight: (F, C, K); bias: (F,).
    Output length is (L - K)//stride + 1. The output is a (B, F, T) view of a
    (B, T, F) buffer. relu=True rectifies that buffer in place, which equals
    relu(conv1d(...)) without a second output-sized array. The input is read
    fastest as such a view, the (B, C, L) transpose of a C-contiguous
    (B, L, C) array; any layout gives the same bits.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    w, b = weight.data, bias.data
    if w.ndim != 3 or b.shape != (w.shape[0],):
        raise ValueError("weight must be (filters, channels, kernel), bias (filters,)")
    xb, batched = _split_batch(x.data, 2)
    B, C, L = xb.shape
    F, Cw, K = w.shape
    if C != Cw:
        raise ValueError(f"input has {C} channels, kernels expect {Cw}")
    if L < K:
        raise ValueError(f"input length {L} shorter than kernel {K}")
    T = (L - K) // stride + 1
    # im2col once: the (B*T, C*K) tap matrix feeds the forward GEMM and,
    # kept by the closure, the weight-grad GEMM. Tap k of every (row, time)
    # is one slab copy of channel runs from the channels-last (B, L, C)
    # layout, which a stacked input and a conv output both have
    x_blc = xb.transpose(0, 2, 1)
    taps_mat = np.empty((B * T, C * K))
    taps = taps_mat.reshape(B, T, C, K)
    for k in range(K):
        taps[:, :, :, k] = x_blc[:, k : k + stride * T : stride, :]
    w_mat = w.reshape(F, C * K)
    out = taps_mat @ w_mat.T
    out += b
    if relu:
        np.maximum(out, 0.0, out=out)
    y = out.reshape(B, T, F).transpose(0, 2, 1)

    def backward(grad):
        gy = grad if batched else grad[None]
        # the output grad in the output buffer's (B*T, F) layout; relu's mask
        # is read back from the rectified output (out > 0 iff its input > 0)
        gy_mat = np.empty((B * T, F))
        gy_btf = gy_mat.reshape(B, T, F)
        if relu:
            np.multiply(gy.transpose(0, 2, 1), out.reshape(B, T, F) > 0.0, out=gy_btf)
        else:
            gy_btf[...] = gy.transpose(0, 2, 1)
        weight._accumulate((gy_mat.T @ taps_mat).reshape(F, C, K))
        bias._accumulate(gy_mat.sum(axis=0))
        if isinstance(x, Constant):
            return
        # input grad: one GEMM gives every tap's grad, then each tap k adds
        # into the input positions t*stride + k, in the order k = 0..K-1
        g_taps = (gy_mat @ w_mat).reshape(B, T, C, K)
        gx = np.zeros((B, L, C))
        for k in range(K):
            gx[:, k : k + stride * T : stride, :] += g_taps[:, :, :, k]
        gx = gx.transpose(0, 2, 1)
        x._accumulate(gx if batched else gx[0])

    return Tensor(y if batched else y[0], parents=(x, weight, bias), backward=backward)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map y = W x + b. x: (n,) or (B, n); weight: (m, n); bias: (m,)."""
    w, b = weight.data, bias.data
    if w.ndim != 2 or b.shape != (w.shape[0],):
        raise ValueError("weight must be (out, in), bias (out,)")
    xb, batched = _split_batch(x.data, 1)
    if xb.shape[1] != w.shape[1]:
        raise ValueError(f"input dim {xb.shape[1]} does not match weight dim {w.shape[1]}")
    out = _matmul(xb, w.T)
    out += b

    def backward(grad):
        gy = grad if batched else grad[None]
        weight._accumulate(_matmul(gy.T, xb))
        bias._accumulate(gy.sum(axis=0))
        gx = _matmul(gy, w)
        x._accumulate(gx if batched else gx[0])

    return Tensor(out if batched else out[0], parents=(x, weight, bias), backward=backward)


def relu(x: Tensor) -> Tensor:
    def backward(grad):
        x._accumulate(grad * (x.data > 0.0))

    return Tensor(np.maximum(x.data, 0.0), parents=(x,), backward=backward)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def backward(grad):
        x._accumulate(grad * (1.0 - y * y))

    return Tensor(y, parents=(x,), backward=backward)


def sigmoid(x: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-x.data))

    def backward(grad):
        x._accumulate(grad * y * (1.0 - y))

    return Tensor(y, parents=(x,), backward=backward)


def dropout(x: Tensor, rate: float, rng, training: bool = True) -> Tensor:
    """Inverted dropout: zero with probability rate, scale survivors by
    1/(1-rate). Identity outside training or at rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if not training or rate == 0.0:
        return Tensor(x.data.copy(), parents=(x,), backward=x._accumulate)
    scale = (rng.random(x.data.shape) >= rate) / (1.0 - rate)

    def backward(grad):
        x._accumulate(grad * scale)

    return Tensor(x.data * scale, parents=(x,), backward=backward)


def gather(x: Tensor, index) -> Tensor:
    """Rows of x along the first axis: y[i] = x[index[i]].

    index may repeat rows, skip rows and take them in any order. The backward
    adds each output row's grad into its source row in output-row order, the
    same sums in the same order as np.add.at, without its per-element cost.
    """
    index = np.asarray(index, dtype=np.intp)
    if index.ndim != 1:
        raise ValueError(f"gather index must be 1-d, got {index.ndim}-d")

    def backward(grad):
        if not isinstance(x, Constant):
            x._accumulate(_sum_rows(grad, index, x.data.shape[0]))

    return Tensor(x.data[index], parents=(x,), backward=backward)


def _sum_rows(rows: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """(n, ...) sums out[index[i]] += rows[i], added in row order: the same
    sums in the same order as np.add.at, without its per-element cost."""
    out = np.zeros((n,) + rows.shape[1:])
    for row, dst in enumerate(index):
        out[dst] += rows[row]
    return out


def gather_dense(x: Tensor, index, weight: Tensor, bias: Tensor, dropped=None,
                 scale=1.0) -> Tensor:
    """dense(y) for the rows y[i] = scale * x[index[i]] with the entries
    dropped = (rows, cols) of y set to 0: dense(flatten(dropout(gather(x,
    index)))) for the mask that zeroes those entries, from x's own rows.

    x: (U, n); index: (R,), which may repeat, skip and reorder rows of x;
    weight: (m, n); bias: (m,); scale: a float or an (n,) factor per column,
    inverted dropout's 1/(1-rate) on the columns it covers; dropped: row and
    column index arrays of distinct entries of y, such as a dropout mask's
    hits, each entry dropped independently with probability rate.

    Every big product runs over the U rows of xs = scale * x, and the
    dropped entries' terms are subtracted as products over the touched
    columns only, which at a low rate are a small share of n. The forward
    gathers xs @ W.T to the R rows, adds b and subtracts dropped_y @
    W[:, touched].T, with dropped_y the (R, touched) matrix of the dropped
    entries' values: the composition's values up to rounding (the tests
    hold it to 1e-12 absolute), not its bits. The backward, with G the sum
    of each source row's output grads, takes the weight grad G.T @ xs and
    the input grad scale * (G @ W), less the same entries' terms. When n is
    a multiple of _SPLIT_COLUMNS the weight grad is left as those factors
    (a _FactoredGrad) for RMSProp to expand band by band; the correction is
    computed here, whole.
    """
    w, b = weight.data, bias.data
    if w.ndim != 2 or b.shape != (w.shape[0],):
        raise ValueError("weight must be (out, in), bias (out,)")
    if x.data.ndim != 2 or x.data.shape[1] != w.shape[1]:
        raise ValueError(f"input must be (rows, {w.shape[1]}), got {x.data.shape}")
    index = np.asarray(index, dtype=np.intp)
    if index.ndim != 1:
        raise ValueError(f"gather index must be 1-d, got {index.ndim}-d")
    rows, cols = (np.asarray(a, dtype=np.intp) for a in (dropped or ([], [])))
    xs = x.data * scale
    touched, at = np.unique(cols, return_inverse=True)
    # the dropped entries of the R rows as an (R, touched) matrix: the
    # products over xs count them, the composition does not
    dropped_y = np.zeros((len(index), len(touched)))
    dropped_y[rows, at] = xs[index[rows], cols]
    out = _matmul(xs, w.T)[index]
    out += b
    out -= _matmul(dropped_y, w[:, touched].T)

    def backward(grad):
        g = _sum_rows(grad, index, len(xs))
        gw = _FactoredGrad(g, xs, touched, _matmul(grad.T, dropped_y))
        weight._accumulate(gw if w.shape[1] % _SPLIT_COLUMNS == 0 else gw.dense())
        bias._accumulate(grad.sum(axis=0))
        if isinstance(x, Constant):
            return
        # and the same entries of the output grad pulled back through W
        pulled = _matmul(grad, w[:, touched])
        dropped_g = np.zeros_like(pulled)
        dropped_g[rows, at] = pulled[rows, at]
        gx = _matmul(g, w)
        gx[:, touched] -= _sum_rows(dropped_g, index, len(xs))
        gx *= scale
        x._accumulate(gx)

    return Tensor(out, parents=(x, weight, bias), backward=backward)


def flatten(x: Tensor) -> Tensor:
    """Collapse to a vector, or to (B, n) when the input has 3+ dims."""
    if x.data.ndim >= 3:
        shape = (x.data.shape[0], -1)
    else:
        shape = (-1,)

    def backward(grad):
        x._accumulate(grad.reshape(x.data.shape))

    return Tensor(x.data.reshape(shape), parents=(x,), backward=backward)


def concat(parts: list[Tensor]) -> Tensor:
    """Join along the last axis; all leading axes must agree."""
    if not parts:
        raise ValueError("concat needs at least one tensor")
    datas = [p.data for p in parts]
    lead = datas[0].shape[:-1]
    if any(d.shape[:-1] != lead for d in datas):
        raise ValueError("concat inputs disagree on leading dimensions")

    def backward(grad):
        offset = 0
        for p in parts:
            width = p.data.shape[-1]
            p._accumulate(grad[..., offset : offset + width])
            offset += width

    return Tensor(np.concatenate(datas, axis=-1), parents=tuple(parts), backward=backward)


def unsqueeze(x: Tensor) -> Tensor:
    """Append a trailing axis of size 1: () -> (1,), (B,) -> (B, 1)."""

    def backward(grad):
        x._accumulate(grad[..., 0])

    return Tensor(x.data[..., None], parents=(x,), backward=backward)


def euclidean_distance(a: Tensor, b: Tensor) -> Tensor:
    """sqrt(sum((a-b)^2)) over the last axis; (n,)->scalar, (B,n)->(B,).

    At a == b the gradient is the zero subgradient.
    """
    if a.data.shape != b.data.shape:
        raise ValueError(f"shape mismatch {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    dist = np.sqrt(np.sum(diff * diff, axis=-1))

    def backward(grad):
        safe = np.where(dist > 0.0, dist, 1.0)
        scale = (grad / safe) * (dist > 0.0)
        g = diff * scale[..., None]
        a._accumulate(g)
        b._accumulate(-g)

    return Tensor(dist, parents=(a, b), backward=backward)


def rmse_loss(pred: Tensor, target) -> Tensor:
    """sqrt(mean((pred-target)^2)) over every element; zero loss has zero grad."""
    target = as_tensor(target)
    if pred.data.shape != target.data.shape:
        raise ValueError(f"shape mismatch {pred.data.shape} vs {target.data.shape}")
    diff = pred.data - target.data
    loss = float(np.sqrt(np.mean(diff * diff)))

    def backward(grad):
        if loss > 0.0:
            g = grad * diff / (diff.size * loss)
            pred._accumulate(g)
            target._accumulate(-g)

    return Tensor(loss, parents=(pred, target), backward=backward)


def weighted_sum(x: Tensor, weights) -> Tensor:
    """Scalarizing reduction sum(w * x); the linear probe used by gradient checks."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != x.data.shape:
        raise ValueError("weights must match tensor shape")

    def backward(grad):
        x._accumulate(grad * w)

    return Tensor(float(np.sum(w * x.data)), parents=(x,), backward=backward)


def glorot_uniform(rng, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Conv1dLayer:
    """Parameter holder for a valid 1-D convolution (defaults: 64 filters,
    kernel 3, stride 1)."""

    def __init__(self, in_channels: int, filters: int = 64, kernel: int = 3,
                 stride: int = 1, rng=None):
        rng = rng or np.random.default_rng(0)
        fan_in, fan_out = in_channels * kernel, filters * kernel
        self.weight = Tensor(glorot_uniform(rng, (filters, in_channels, kernel), fan_in, fan_out))
        self.bias = Tensor(np.zeros(filters))
        self.stride = stride

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return conv1d(x, self.weight, self.bias, self.stride, relu)

    def params(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def out_length(self, in_length: int) -> int:
        return (in_length - self.weight.data.shape[2]) // self.stride + 1


class DenseLayer:
    """Parameter holder for an affine layer; weight (out, in), zero bias."""

    def __init__(self, in_dim: int, out_dim: int, rng=None):
        rng = rng or np.random.default_rng(0)
        self.weight = Tensor(glorot_uniform(rng, (out_dim, in_dim), in_dim, out_dim))
        self.bias = Tensor(np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        return dense(x, self.weight, self.bias)

    def params(self) -> list[Tensor]:
        return [self.weight, self.bias]


def _band_shares(m: int, n: int) -> int:
    """The most shares RMSProp.step cuts an (m, n) weight with a factored
    grad into: each takes at least _STEP_BLOCK elements and _BAND_ALIGN
    rows, and their scratch, one band of at most _BAND_ROWS + 1 rows and
    one _STEP_BLOCK each, fits in _BAND_BUDGET. Below two, one share runs,
    so a weight too wide for one band to fit still steps."""
    per_share = ((_BAND_ROWS + 1) * n + _STEP_BLOCK) * 8
    return min(m * n // _STEP_BLOCK, m // _BAND_ALIGN, _BAND_BUDGET // per_share)


class RMSProp:
    """Running square-gradient scaling with inverse-time learning-rate decay.

    lr_t = lr / (1 + decay * t) with t counting completed steps, so the first
    step uses the initial rate. cache <- rho*cache + (1-rho)*g^2;
    theta <- theta - lr_t * g / (sqrt(cache) + epsilon).

    step() walks each parameter in blocks of _STEP_BLOCK elements and
    updates cache and parameter in place, so no parameter-sized temporary is
    made and each block's operands are still in cache for the next pass. A
    parameter of at least two blocks is cut into one contiguous share per
    worker (see the module docstring), each walked in blocks of its own slice
    of the two _STEP_BLOCK scratch buffers; the update is elementwise, so the
    bits are those of one walk.

    A parameter whose grad is factored (gather_dense's weight) is walked in
    bands of whole rows instead: each band of the grad is expanded into a
    flat scratch buffer, and the band's rows of cache and parameter, which
    are contiguous, are walked in the same _STEP_BLOCK blocks with the same
    expression chain, so the dense grad is never made. Its workers take
    shares of whole rows, few enough that their bands fit in _BAND_BUDGET
    (see _band_shares); bands and shares start on multiples of
    _BAND_ALIGN rows and none is a single row, which keeps every grad
    element the bits of the whole product (see _BAND_ALIGN).
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-5, decay: float = 1e-6,
                 rho: float = 0.9, epsilon: float = 1e-8):
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= rho < 1.0:
            raise ValueError("rho must be in [0, 1)")
        self.params = list(params)
        for p in self.params:
            # a weight mapped from a checkpoint is read-only float32; the
            # update writes an owned float64 copy
            if p.data.dtype != np.float64:
                p.data = p.data.astype(np.float64)
        self.lr = lr
        self.decay = decay
        self.rho = rho
        self.epsilon = epsilon
        self.cache = [np.zeros(p.data.shape) for p in self.params]
        self.step_count = 0

    def current_lr(self) -> float:
        return self.lr / (1.0 + self.decay * self.step_count)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        lr_t = self.current_lr()
        scratch = np.empty((2, _STEP_BLOCK))
        for p, cache in zip(self.params, self.cache):
            if not p.data.flags.c_contiguous:
                p.data = np.ascontiguousarray(p.data)
            # flat views of data and cache
            data, cache = p.data.reshape(-1), cache.reshape(-1)
            if isinstance(p._grad, _FactoredGrad):
                task = functools.partial(self._band_share, data, cache, p._grad, lr_t)
                limit = _band_shares(*p.data.shape)
            else:
                # grad is copied only if strided
                task = functools.partial(self._update_share, data, cache, p.grad.reshape(-1), scratch, lr_t)
                limit = data.size // _STEP_BLOCK
            _in_shares(task, limit)
        self.step_count += 1

    def _update_share(self, data, cache, grad, scratch, lr_t: float, i: int, parts: int) -> None:
        """Update share i of parts of the flat data and cache in place, in
        blocks as wide as the share's slice of the scratch buffers."""
        size = scratch.shape[1] // parts
        span = _cut(data.size, i, parts)
        self._walk(data[span], cache[span], grad[span], scratch[:, i * size : (i + 1) * size], lr_t)

    def _band_share(self, data, cache, grad: _FactoredGrad, lr_t: float, i: int, parts: int) -> None:
        """Update share i of parts of the flat (m, n) data and cache in
        place, one band of whole rows at a time: each band of the factored
        grad is expanded into scratch and walked like a flat grad. Shares
        start on multiples of _BAND_ALIGN rows and the last one ends at m;
        a share's bands are _BAND_ROWS long, and a last row that would be a
        band of its own joins the band before it. Each share walks in
        whole _STEP_BLOCK blocks of its own scratch, since the band scratch
        outweighs it."""
        n = grad.xs.shape[1]
        m = data.size // n
        span = _cut(m, i, parts, _BAND_ALIGN)
        stop = m if i == parts - 1 else span.stop
        band = np.empty(min(_BAND_ROWS + 1, stop - span.start) * n)
        scratch = np.empty((1, _STEP_BLOCK))
        start = span.start
        while start < stop:
            end = min(start + _BAND_ROWS, stop)
            if stop - end == 1:
                end = stop
            g = band[: (end - start) * n]
            grad.rows(slice(start, end), g.reshape(end - start, n))
            # g is scratch, so it takes lr_t * g in place
            self._walk(data[start * n : end * n], cache[start * n : end * n], g, scratch, lr_t)
            start = end

    def _walk(self, data, cache, grad, scratch, lr_t: float) -> None:
        """Update the flat data and cache in place from the flat grad, in
        blocks as wide as the scratch rows: with two rows the grad is only
        read, with one it is scratch too and takes lr_t * grad in place."""
        size = scratch.shape[1]
        for start in range(0, data.size, size):
            block = slice(start, start + size)
            g = grad[block]
            s = scratch[0, : g.size]
            t = scratch[1, : g.size] if len(scratch) > 1 else g
            self._update(data[block], cache[block], g, s, t, lr_t)

    def _update(self, d, c, g, s, t, lr_t: float) -> None:
        """The update of one block in place: s and t are scratch of g's
        shape, and t may be g itself. The same expression chain, and so the
        same bits, as
        cache = rho*cache + (1-rho)*g*g;  data -= lr_t*g / (sqrt(cache) + eps)."""
        c *= self.rho
        np.multiply(g, 1.0 - self.rho, out=s)
        s *= g
        c += s
        np.sqrt(c, out=s)
        s += self.epsilon
        np.multiply(g, lr_t, out=t)
        t /= s
        d -= t
