"""Minimal reverse-mode differentiation engine.

Tensors wrap float32 or float64 numpy arrays (anything else is taken as
float64) and record the graph; ops are fused at array granularity (one
backward closure per op, not per scalar). Exactly the layer set the
similarity networks need is provided: valid 1-D convolution,
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

Shapes: the first axis is the batch, as the model passes it. conv1d takes
(B, C, L), dense (B, n), and flatten maps (B, ...) to (B, n).

Graph ownership: a node holds its parents and its backward closure; a
closure holds the op's inputs and saved arrays and receives the node's grad
as its argument, never the node itself. The graph therefore has no
reference cycles, and dropping the loss frees every intermediate at once.

dtypes: every layer's parameters are float32 (DenseLayer and Conv1dLayer
draw them so, a checkpoint maps them, and RMSProp keeps them and their
cache so), the mixed precision of Micikevicius et al. 2018, "Mixed
Precision Training", with float32 products. An op with a weight (conv1d,
dense, gather_dense) runs in its weight's dtype: a float64 input is
rounded once. Every other op runs in its inputs' dtype, so the model runs
in float32 from its stacked inputs to the head, and the RMSE loss widens
to float64 against its float64 targets. A grad has its tensor's dtype
(Tensor._accumulate casts a contribution once). Tensors built from float64
arrays, as the finite-difference checks build them, run in float64 from
start to finish. So float32 results agree with the same ops over float64
copies within float32 rounding (about 1e-6 of their largest entry), not
bit for bit.

CPUs: only work that pays for a second CPU is split, and it runs in one
share per CPU on the package's workers (see workers.py). That is two
jobs: each product in dense and gather_dense (forward, weight grad, input
grad) of at least two shares of _SPLIT_MADDS multiply-adds, and RMSProp's
band step over a factored grad. At paper size on 2 CPUs with one BLAS
thread, dense1's products ran 1.4-2.4x faster on 2 workers than on one,
and its band step 1.5-2.2x, at 10 and at 200 distinct samples.
Everything else runs on the calling thread: smaller products, conv1d's
products, and the RMSProp walk of a plain grad, which is memory-bound and
was slower split (40-42 ms on 2 workers against 35-39 ms on one, at 16 M
float32 elements). A split changes no bit of any result: every split
product is multiplied one block of _BLOCK_COLUMNS columns at a time, on a
grid from column 0 that shares never cut, so every output element is the
same product computed by the same BLAS kernel at any CPU count, and under
OpenBLAS's Haswell kernel too; the band step's shares take whole bands of
one grid. A weight is multiplied where it lies: a mapped one is as
aligned as an owned one (the container aligns every tensor it returns).

Factored weight grads: gather_dense leaves its weight's grad as its factors
(_FactoredGrad), never as a weight-sized array, at any input width.
RMSProp.step expands it one band of whole rows at a time into scratch and
updates those rows of the weight and its cache, which are contiguous in
memory. The bands lie on one grid of _BAND_ROWS rows from row 0 whatever
the CPU count, and the dense grad is made band by band on the same grid,
so the step has the bits of the dense grad's under any BLAS kernel. The
factors have the weight's dtype, and so do the bands. The step takes only
as many shares as fit their bands in _BAND_BUDGET, so its scratch does not
grow with the CPU count. Reading .grad, or a second contribution to the
same weight, makes the dense array.
"""

import functools

import numpy as np

from .workers import _cut, _in_shares

_STEP_BLOCK = 32768  # RMSProp update block: 128 KB per float32 operand
# least multiply-adds per share of a split product: the smallest power of two
# at which a two-way split of a 200-row product measured faster than one thread
_SPLIT_MADDS = 1 << 24
# a split product (a forward x @ W.T, an input grad g @ W, a weight grad
# g.T @ x) is multiplied in blocks of this many columns of its right
# operand, on a grid from column 0 that worker shares never cut: the BLAS
# computes a product's trailing columns with a narrower kernel whose sums
# can differ in the last bit, so a block's bits must not depend on the
# share that holds it. Medians in ms of dense1 (1,024 x 23,936) and the
# fusion layer (540 x 25,116) in float32, 2 workers, one BLAS thread, at
# 10 / 14 / 200 rows, in blocks of 64, 256 and 512 columns:
#                   64               256              512
#   dense1 fwd      17.7/18.4/60.3   13.8/15.7/51.6   13.2/14.9/48.6
#   dense1 in-grad  13.0/16.8/58.8   13.3/14.4/49.8   12.2/13.9/50.7
#   fusion fwd       9.1/10.3/33.6    7.8/ 8.4/29.8   12.4/13.3/43.3
#   fusion in-grad   6.9/ 8.7/35.0    6.4/ 6.8/29.3    5.9/ 6.8/24.7
# 512 cuts the fusion layer's 540 outputs 512 + 28, so one share does
# nearly all of its forward; 256 suits both layers
_BLOCK_COLUMNS = 256
# conv1d works through a batch this many samples at a time: at conv1's
# paper size a chunk's output grad is 1.5 MB in float32
_CONV_SAMPLES = 16
# a layer draws its float32 weight this many rows at a time
_INIT_ROWS = 32
# a factored grad is expanded in bands of this many whole rows of the
# weight, on a grid from row 0 (the last band may be shorter)
_BAND_ROWS = 32
# the most band scratch of one factored step, over all its shares, in
# bytes: five shares' bands at dense1's 23,936 columns, however many CPUs
# there are
_BAND_BUDGET = 1 << 25
# RMSProp's decay of its running square gradient, and the term that keeps
# its denominator off zero: the standard settings, which the paper keeps
RHO = 0.9
EPSILON = 1e-8


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
        data = np.asarray(data)
        if data.dtype != np.float32:
            data = data.astype(np.float64, copy=False)
        self.data = data
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
        must be an array (or a _FactoredGrad) that nothing reads afterwards.
        A grad has its tensor's dtype: an array of another dtype is cast to
        it once, here."""
        if isinstance(g, np.ndarray):
            g = g.astype(self.data.dtype, copy=False)
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


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-d a and b of one dtype. A product of at least two shares
    of _SPLIT_MADDS multiply-adds is cut into blocks of _BLOCK_COLUMNS
    columns of b on a grid from column 0 (the last block may be narrower),
    one product per block where it lies, and shares of whole blocks run on
    the workers; a smaller one is one product. A block's product does not
    depend on the share that holds it, so the bits do not depend on the CPU
    count."""
    rows, inner = a.shape
    cols = b.shape[1]
    blocks = -(-cols // _BLOCK_COLUMNS)
    # each share holds at least this many whole blocks
    least = -(-_SPLIT_MADDS // max(rows * inner * _BLOCK_COLUMNS, 1))
    limit = blocks // least
    if limit < 2:
        return a @ b
    out = np.empty((rows, cols), a.dtype)

    def share(i, parts):
        span = _cut(blocks, i, parts)
        stop = min(span.stop * _BLOCK_COLUMNS, cols)
        for start in range(span.start * _BLOCK_COLUMNS, stop, _BLOCK_COLUMNS):
            block = slice(start, start + _BLOCK_COLUMNS)
            np.matmul(a, b[:, block], out=out[:, block])

    _in_shares(share, limit)
    return out


class _FactoredGrad:
    """The (m, n) weight grad G.T @ xs, less `correction` on its `touched`
    columns, kept as those factors: g is (U, m), xs (U, n), touched the
    sorted distinct columns and correction (m, len(touched)), all of the
    grad's dtype. RMSProp expands it one band of whole rows at a time
    (rows())."""

    __slots__ = ("g", "xs", "touched", "correction")

    def __init__(self, g, xs, touched, correction):
        self.g, self.xs, self.touched, self.correction = g, xs, touched, correction

    def dense(self) -> np.ndarray:
        """The whole grad, made on the calling thread band by band, on the
        grid RMSProp expands it on, so each row has the bits a step expands."""
        gw = np.empty((self.g.shape[1], self.xs.shape[1]), self.xs.dtype)
        for band in self.bands(0, 1):
            self.rows(band, gw[band])
        return gw

    def bands(self, i: int, parts: int) -> list[slice]:
        """The bands of share i of parts: whole bands of one grid of
        _BAND_ROWS rows from row 0 (the last may be shorter), the same
        grid at any share count. A band's bits depend on the band as well
        as on the factors, so the grad is only ever expanded on this
        grid."""
        m = self.g.shape[1]
        span = _cut(-(-m // _BAND_ROWS), i, parts)
        starts = range(span.start * _BAND_ROWS, min(span.stop * _BAND_ROWS, m), _BAND_ROWS)
        return [slice(start, min(start + _BAND_ROWS, m)) for start in starts]

    def rows(self, band: slice, out: np.ndarray) -> None:
        """Write rows band of the grad, one of bands(), into the (rows, n)
        array out of the factors' dtype."""
        np.matmul(self.g.T[band], self.xs, out=out)
        out[:, self.touched] -= self.correction[band]


def _dense(grad) -> np.ndarray:
    return grad.dense() if isinstance(grad, _FactoredGrad) else grad


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, relu: bool = False) -> Tensor:
    """Valid (no padding) cross-correlation, optionally followed by relu,
    in the weight's dtype.

    x: (B, C, L); weight: (F, C, K); bias: (F,).
    Output length is (L - K)//stride + 1. The output is a (B, F, T) view of a
    (B, T, F) buffer. relu=True rectifies that buffer in place, which equals
    relu(conv1d(...)) without a second output-sized array. The input is read
    fastest as such a view, the (B, C, L) transpose of a C-contiguous
    (B, L, C) array of the weight's dtype; any layout gives the same bits.

    No tap matrix is made (kn2row, Vasudevan, Anderson and Gregg 2017): with
    X the channels-last (B, L, C) input and W_k the (F, C) weights of tap k,
    y = sum_k X[:, k + stride*t] W_k^T, each term a product of every sample
    on its own, summed k = 0..K-1. The weight grad and the input grad are K
    such products each. The batch is worked through _CONV_SAMPLES samples
    at a time, so the scratch beside the output and the input grad stays a
    few MB however large the batch, and a sample's output does not depend
    on the other samples.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    w, b = weight.data, bias.data
    if w.ndim != 3 or b.shape != (w.shape[0],):
        raise ValueError("weight must be (filters, channels, kernel), bias (filters,)")
    if x.data.ndim != 3:
        raise ValueError(f"input must be (batch, channels, length), got {x.data.shape}")
    B, C, L = x.data.shape
    F, Cw, K = w.shape
    if C != Cw:
        raise ValueError(f"input has {C} channels, kernels expect {Cw}")
    if L < K:
        raise ValueError(f"input length {L} shorter than kernel {K}")
    T = (L - K) // stride + 1
    # channels-last and in the weight's dtype, as a stacked input and a conv
    # output already are (then nothing is copied); a float64 input is
    # rounded once. Tap k of every output step is the strided view taps[k]
    xs = np.ascontiguousarray(x.data.transpose(0, 2, 1), dtype=w.dtype)
    taps = [xs[:, k : k + stride * T : stride] for k in range(K)]
    w_taps = np.ascontiguousarray(w.transpose(2, 1, 0))  # (K, C, F): W_k^T
    chunks = [slice(start, start + _CONV_SAMPLES) for start in range(0, B, _CONV_SAMPLES)]
    out = np.empty((B, T, F), w.dtype)
    for chunk in chunks:
        o = out[chunk]
        np.matmul(taps[0][chunk], w_taps[0], out=o)
        for k in range(1, K):
            o += taps[k][chunk] @ w_taps[k]
        o += b
        if relu:
            np.maximum(o, 0.0, out=o)
    y = out.transpose(0, 2, 1)

    def backward(grad):
        # each chunk's output grad in the output buffer's (samples, T, F)
        # layout; relu's mask is read back from the rectified output (out > 0
        # iff its input > 0)
        gy_all = np.empty((min(B, _CONV_SAMPLES), T, F), w.dtype)
        gw = np.zeros((K, F, C), w.dtype)
        gb = np.zeros(F, w.dtype)
        gx = None if isinstance(x, Constant) else np.zeros((B, L, C), w.dtype)
        for chunk in chunks:
            gy = gy_all[: len(out[chunk])]
            if relu:
                np.multiply(grad[chunk].transpose(0, 2, 1), out[chunk] > 0.0, out=gy)
            else:
                gy[...] = grad[chunk].transpose(0, 2, 1)
            gb += gy.sum(axis=(0, 1))
            for k in range(K):
                gw[k] += (gy.transpose(0, 2, 1) @ taps[k][chunk]).sum(axis=0)
                if gx is not None:
                    # tap k's grad adds into the input steps stride*t + k
                    gx[chunk, k : k + stride * T : stride] += gy @ w_taps[k].T
        weight._accumulate(np.ascontiguousarray(gw.transpose(1, 2, 0)))
        bias._accumulate(gb)
        if gx is not None:
            x._accumulate(gx.transpose(0, 2, 1))

    return Tensor(y, parents=(x, weight, bias), backward=backward)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map y = x W.T + b of each row, in the weight's dtype.
    x: (B, n); weight: (m, n); bias: (m,)."""
    w, b = weight.data, bias.data
    if w.ndim != 2 or b.shape != (w.shape[0],):
        raise ValueError("weight must be (out, in), bias (out,)")
    if x.data.ndim != 2 or x.data.shape[1] != w.shape[1]:
        raise ValueError(f"input must be (rows, {w.shape[1]}), got {x.data.shape}")
    xs = x.data.astype(w.dtype, copy=False)  # a float64 input is rounded once
    out = _matmul(xs, w.T)
    out += b

    def backward(grad):
        weight._accumulate(_matmul(grad.T, xs))
        bias._accumulate(grad.sum(axis=0))
        x._accumulate(_matmul(grad, w))

    return Tensor(out, parents=(x, weight, bias), backward=backward)


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
    scale = ((rng.random(x.data.shape) >= rate) / (1.0 - rate)).astype(x.data.dtype, copy=False)

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
    out = np.zeros((n,) + rows.shape[1:], rows.dtype)
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
    the input grad scale * (G @ W), less the same entries' terms. The
    weight grad is left as those factors (a _FactoredGrad), whatever n, for
    RMSProp to expand band by band; the correction is computed here, whole.
    Everything runs in the weight's dtype.
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
    # in the weight's dtype, the product rounded once
    xs = x.data.astype(w.dtype)
    xs *= scale
    touched, at = np.unique(cols, return_inverse=True)
    # the dropped entries of the R rows as an (R, touched) matrix: the
    # products over xs count them, the composition does not
    dropped_y = np.zeros((len(index), len(touched)), w.dtype)
    dropped_y[rows, at] = xs[index[rows], cols]
    w_touched = w[:, touched]  # gathered once for the forward and the backward
    out = _matmul(xs, w.T)[index]
    out += b
    out -= _matmul(dropped_y, w_touched.T)

    def backward(grad):
        g = _sum_rows(grad, index, len(xs))
        weight._accumulate(_FactoredGrad(g, xs, touched, _matmul(grad.T, dropped_y)))
        bias._accumulate(grad.sum(axis=0))
        if isinstance(x, Constant):
            return
        # and the same entries of the output grad pulled back through W
        pulled = _matmul(grad, w_touched)
        dropped_g = np.zeros_like(pulled)
        dropped_g[rows, at] = pulled[rows, at]
        gx = _matmul(g, w)
        gx[:, touched] -= _sum_rows(dropped_g, index, len(xs))
        gx *= scale
        x._accumulate(gx)

    return Tensor(out, parents=(x, weight, bias), backward=backward)


def flatten(x: Tensor) -> Tensor:
    """Collapse every axis after the batch axis: (B, ...) -> (B, n)."""

    def backward(grad):
        x._accumulate(grad.reshape(x.data.shape))

    return Tensor(x.data.reshape(len(x.data), -1), parents=(x,), backward=backward)


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


def glorot_float32(rng, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    """glorot_uniform(rng, shape, fan_in, fan_out).astype(np.float32), every
    layer's weight, without its float64 array: the rows (the first axis)
    are drawn _INIT_ROWS at a time, and
    rng.uniform takes its draws in order, so each block has the bits of
    its rows of the whole draw. An rng with a glorot_float32 method of its
    own makes the array itself: models._Unfilled hands out an unwritten
    one, never filled, for a weight that a stored tensor replaces."""
    own = getattr(rng, "glorot_float32", None)
    if own is not None:
        return own(shape)
    out = np.empty(shape, np.float32)
    for start in range(0, shape[0], _INIT_ROWS):
        rows = out[start : start + _INIT_ROWS]
        rows[...] = glorot_uniform(rng, rows.shape, fan_in, fan_out)
    return out


class Conv1dLayer:
    """Parameter holder for a valid 1-D convolution (defaults: 64 filters,
    kernel 3, stride 1); zero bias."""

    def __init__(self, in_channels: int, filters: int = 64, kernel: int = 3,
                 stride: int = 1, rng=None):
        rng = rng or np.random.default_rng(0)
        fan_in, fan_out = in_channels * kernel, filters * kernel
        self.weight = Tensor(glorot_float32(rng, (filters, in_channels, kernel), fan_in, fan_out))
        self.bias = Tensor(np.zeros(filters, np.float32))
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
        self.weight = Tensor(glorot_float32(rng, (out_dim, in_dim), in_dim, out_dim))
        self.bias = Tensor(np.zeros(out_dim, np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return dense(x, self.weight, self.bias)

    def params(self) -> list[Tensor]:
        return [self.weight, self.bias]


def _band_shares(m: int, n: int) -> int:
    """The most shares RMSProp.step cuts an (m, n) weight with a factored
    grad into: each takes at least _STEP_BLOCK elements and one band, and
    their scratch, one band of at most _BAND_ROWS rows and one _STEP_BLOCK
    each, at 8 bytes per element (a float32 weight's take half that), fits
    in _BAND_BUDGET. Below two, one share runs, so a weight too wide for one
    band to fit still steps."""
    per_share = (_BAND_ROWS * n + _STEP_BLOCK) * 8
    return min(m * n // _STEP_BLOCK, -(-m // _BAND_ROWS), _BAND_BUDGET // per_share)


class RMSProp:
    """Running square-gradient scaling with inverse-time learning-rate decay.

    lr_t = lr / (1 + decay * t) with t counting completed steps, so the first
    step uses the initial rate. cache <- RHO*cache + (1-RHO)*g^2;
    theta <- theta - lr_t * g / (sqrt(cache) + EPSILON), with the module's
    RHO = 0.9 and EPSILON = 1e-8.

    Each parameter keeps its dtype, and its cache has it: a read-only one
    (mapped from a checkpoint) is copied once. A parameter's grad has its
    dtype too (see Tensor._accumulate), and the update runs in that dtype.

    step() walks each parameter with a plain grad on the calling thread, in
    blocks of _STEP_BLOCK elements, and updates cache and parameter in
    place, so no parameter-sized temporary is made and each block's
    operands are still in cache for the next pass. The walk is memory-bound
    and was slower split (see the module docstring).

    A parameter whose grad is factored (gather_dense's weight) is walked in
    bands of whole rows instead: each band of the grad is expanded in its
    dtype into a flat scratch buffer, and the band's rows of cache and
    parameter, which are contiguous, are walked in the same _STEP_BLOCK
    blocks with the same expression chain, so the dense grad is never made.
    The expansion is a product, so the workers take shares of whole bands,
    few enough that their bands fit in _BAND_BUDGET (see _band_shares); the
    bands lie on one grid whatever the share count, the grid the dense grad
    is made on, which keeps every grad element the bits of the dense grad's
    (see _FactoredGrad.dense).
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-5, decay: float = 1e-6):
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        for p in self.params:
            # a parameter mapped from a checkpoint is read-only; the update
            # writes an owned copy
            if not p.data.flags.writeable:
                p.data = p.data.copy()
        self.lr = lr
        self.decay = decay
        self.cache = [np.zeros(p.data.shape, p.data.dtype) for p in self.params]
        self.step_count = 0

    def current_lr(self) -> float:
        return self.lr / (1.0 + self.decay * self.step_count)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        lr_t = self.current_lr()
        for p, cache in zip(self.params, self.cache):
            if not p.data.flags.c_contiguous:
                p.data = np.ascontiguousarray(p.data)
            # flat views of data and cache
            data, cache = p.data.reshape(-1), cache.reshape(-1)
            if isinstance(p._grad, _FactoredGrad):
                task = functools.partial(self._band_share, data, cache, p._grad, lr_t)
                _in_shares(task, _band_shares(*p.data.shape))
            else:
                scratch = np.empty((2, _STEP_BLOCK), data.dtype)
                # grad is copied only if strided
                self._walk(data, cache, p.grad.reshape(-1), scratch, lr_t)
        self.step_count += 1

    def _band_share(self, data, cache, grad: _FactoredGrad, lr_t: float, i: int, parts: int) -> None:
        """Update share i of parts of the flat (m, n) data and cache in
        place, one band of whole rows at a time (grad.bands): each band of
        the factored grad is expanded in data's dtype into scratch and
        walked like a flat grad. Each share walks in whole _STEP_BLOCK
        blocks of one scratch row of its own, since the band scratch
        outweighs it; the band takes lr_t * g in place."""
        n = grad.xs.shape[1]
        band = np.empty(min(_BAND_ROWS * n, data.size), data.dtype)
        scratch = np.empty((1, _STEP_BLOCK), data.dtype)
        for rows in grad.bands(i, parts):
            g = band[: (rows.stop - rows.start) * n]
            grad.rows(rows, g.reshape(-1, n))
            flat = slice(rows.start * n, rows.stop * n)
            self._walk(data[flat], cache[flat], g, scratch, lr_t)

    def _walk(self, data, cache, grad, scratch, lr_t: float) -> None:
        """Update the flat data and cache in place from the flat grad, all of
        one dtype, in blocks as wide as the scratch rows: with two rows the
        grad is only read, with one it is scratch too and takes lr_t * grad
        in place."""
        size = scratch.shape[1]
        for start in range(0, data.size, size):
            block = slice(start, start + size)
            g = grad[block]
            s = scratch[0, : g.size]
            t = scratch[1, : g.size] if len(scratch) > 1 else g
            self._update(data[block], cache[block], g, s, t, lr_t)

    def _update(self, d, c, g, s, t, lr_t: float) -> None:
        """The update of one block in place, in the dtype of d, c and g: s
        and t are scratch of g's shape and dtype, and t may be g itself. The
        same expression chain, and so the same bits, as
        cache = RHO*cache + (1-RHO)*g*g;  data -= lr_t*g / (sqrt(cache) + EPSILON)
        over arrays of that dtype, each Python float taken in it."""
        c *= RHO
        np.multiply(g, 1.0 - RHO, out=s)
        s *= g
        c += s
        np.sqrt(c, out=s)
        s += EPSILON
        np.multiply(g, lr_t, out=t)
        t /= s
        d -= t
