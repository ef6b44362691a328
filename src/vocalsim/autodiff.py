"""Minimal reverse-mode differentiation engine.

Tensors wrap float64 numpy arrays and record the graph; ops are fused at
array granularity (one backward closure per op, not per scalar). Exactly the
layer set the similarity networks need is provided: valid 1-D convolution,
dense, relu/tanh/sigmoid, inverted dropout, a row gather, a dense layer over
gathered rows with dropout (gather_dense), flatten, concat, Euclidean
distance, and an RMSE loss, plus an RMSProp optimizer with
inverse-time learning-rate decay.

Batching convention: every op accepts its natural unbatched shape or the same
shape with one leading batch axis (conv1d: (C,L) or (B,C,L); dense and the
vector ops: (n,) or (B,n)). flatten collapses everything after the first axis
when the input is 3-D or deeper, and the whole tensor when it is 1- or 2-D.

Graph ownership: a node holds its parents and its backward closure; a
closure holds the op's inputs and saved arrays and receives the node's grad
as its argument, never the node itself. The graph therefore has no
reference cycles, and dropping the loss frees every intermediate at once.
"""

import numpy as np

_STEP_BLOCK = 32768  # RMSProp update block: 256 KB per float64 operand


class Tensor:
    """Array node in the computation graph.

    The grad buffer is created by the first backward contribution and
    accumulates the later ones, also across backward passes; an unset grad
    reads as zeros. Parameter grads must be cleared between steps
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
        return np.zeros_like(self.data) if self._grad is None else self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad = value

    def _accumulate(self, g: np.ndarray) -> None:
        """Add one backward contribution. The first becomes the grad buffer
        itself and later ones are added into it in place, so a contribution
        must be an array that nothing reads afterwards."""
        if self._grad is None:
            self._grad = g
        else:
            self._grad += g

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
    relu(conv1d(...)) without a second output-sized array.
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
    taps = np.lib.stride_tricks.sliding_window_view(xb, K, axis=2)[:, :, ::stride, :]
    # im2col once: the (B*T, C*K) tap matrix feeds the forward GEMM and,
    # kept by the closure, the weight-grad GEMM
    taps_mat = taps.transpose(0, 2, 1, 3).reshape(B * T, C * K)
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
    out = xb @ w.T + b

    def backward(grad):
        gy = grad if batched else grad[None]
        weight._accumulate(gy.T @ xb)
        bias._accumulate(gy.sum(axis=0))
        gx = gy @ w
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
    column index arrays of distinct entries of y.

    The forward builds the R rows and runs one GEMM, so it has the bits of
    the composition. The backward takes both big products over the U rows
    of x: with G the sum of each source row's output grads, the weight grad
    is G.T @ (scale * x) and the input grad scale * (G @ W). The dropped
    entries' terms are then subtracted as products over the touched columns
    only, which at a low rate are a small share of n.
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
    y = xs[index]
    y[rows, cols] = 0.0
    out = y @ w.T + b

    def backward(grad):
        g = _sum_rows(grad, index, len(xs))
        touched, at = np.unique(cols, return_inverse=True)
        # the dropped entries of y as an (R, touched) matrix: G.T @ xs counts
        # them, the composition does not
        dropped_y = np.zeros((len(index), len(touched)))
        dropped_y[rows, at] = xs[index[rows], cols]
        gw = g.T @ xs
        gw[:, touched] -= grad.T @ dropped_y
        weight._accumulate(gw)
        bias._accumulate(grad.sum(axis=0))
        if isinstance(x, Constant):
            return
        # and the same entries of the output grad pulled back through W
        pulled = grad @ w[:, touched]
        dropped_g = np.zeros_like(pulled)
        dropped_g[rows, at] = pulled[rows, at]
        gx = g @ w
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


class RMSProp:
    """Running square-gradient scaling with inverse-time learning-rate decay.

    lr_t = lr / (1 + decay * t) with t counting completed steps, so the first
    step uses the initial rate. cache <- rho*cache + (1-rho)*g^2;
    theta <- theta - lr_t * g / (sqrt(cache) + epsilon).

    step() walks each parameter in blocks of _STEP_BLOCK elements and
    updates cache and parameter in place, so no parameter-sized temporary is
    made and each block's operands are still in cache for the next pass.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-5, decay: float = 1e-6,
                 rho: float = 0.9, epsilon: float = 1e-8):
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= rho < 1.0:
            raise ValueError("rho must be in [0, 1)")
        self.params = list(params)
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
        rho, eps = self.rho, self.epsilon
        scratch = np.empty(_STEP_BLOCK), np.empty(_STEP_BLOCK)
        for p, cache in zip(self.params, self.cache):
            if not p.data.flags.c_contiguous:
                p.data = np.ascontiguousarray(p.data)
            # flat views of data and cache; grad is copied only if strided
            data, cache, grad = p.data.reshape(-1), cache.reshape(-1), p.grad.reshape(-1)
            for start in range(0, data.size, _STEP_BLOCK):
                block = slice(start, start + _STEP_BLOCK)
                d, c, g = data[block], cache[block], grad[block]
                s, t = scratch[0][: g.size], scratch[1][: g.size]
                # the same expression chain, and so the same bits, as
                # cache = rho*cache + (1-rho)*g*g;  data -= lr_t*g / (sqrt(cache) + eps)
                c *= rho
                np.multiply(g, 1.0 - rho, out=s)
                s *= g
                c += s
                np.sqrt(c, out=s)
                s += eps
                np.multiply(g, lr_t, out=t)
                t /= s
                d -= t
        self.step_count += 1
