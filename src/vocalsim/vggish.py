"""Log-mel front-end, 96-frame patching, loadable embedding network, and PCA
post-processing. A 7.6 s segment becomes a 14x128 embedding matrix.

One call runs on the calling thread: the corpus is featurized in shares of
whole variants (see `pipeline.py`), so neither the frames nor the patches of
a segment are cut into shares. Every row keeps its bits however the rows
are cut.

The front end takes the magnitude spectra of the 758 frames from
`dsp.magnitude_blocks` into one (758, 257) array and projects them onto the
mel bank as one product over all frames. Every row is then a row of that
one product, whatever `dsp.FRAME_BLOCK` is and whichever BLAS kernel runs
it; a product per block of frames would give a row bits that depend on its
block's row count.

`embed` runs the whole patch stack through each layer as one stacked pass,
as the VGGish reference runs its [examples, 96, 64] batch. A conv layer is
one `np.matmul` of the (F, C*K) weight matrix with a C-contiguous
(P, C*K, T) tap stack, and a dense layer one `np.matmul` of the weight
matrix with a (P, n, 1) stack of column vectors. Each stack item is the
`dgemm` or `dgemv` call that `np.tensordot` or `w @ x` makes for a single
patch, on operands of the same layout, so every embedding keeps the bits
of the per-patch loop (a single matrix-matrix product over all patches
would round differently)."""

import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import glorot_float32
from .container import LayerDesc, read_container, write_container
from .dsp import LOG_FLOOR, SEGMENT_SAMPLES, Signal, magnitude_blocks, mel_filterbank
from .errors import DataError

FRAME_LENGTH = 400  # 25 ms
HOP_LENGTH = 160  # 10 ms
N_FFT = 512
NUM_BANDS = 64
NUM_FRAMES = 1 + (SEGMENT_SAMPLES - FRAME_LENGTH) // HOP_LENGTH  # 758
PATCH_LENGTH = 96
PATCH_HOP = 48
NUM_PATCHES = 1 + (NUM_FRAMES - PATCH_LENGTH) // PATCH_HOP  # 14
EMBED_DIM = 128


def periodic_hann(length: int) -> np.ndarray:
    """Hann window with period-length normalization (denominator N, not N-1)."""
    if length < 1:
        raise ValueError("window length must be positive")
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


@functools.cache
def _front_end_tables() -> tuple[np.ndarray, np.ndarray]:
    return periodic_hann(FRAME_LENGTH), mel_filterbank(NUM_BANDS, N_FFT)


def log_mel_spectrogram(segment: Signal) -> np.ndarray:
    """Return the (758, 64) log mel magnitude matrix for one 7.6 s segment.

    Unlike the cepstral path this operates on magnitudes, not power, and uses
    the natural log with the shared 1e-10 floor.
    """
    window, weights = _front_end_tables()
    magnitudes = np.empty((NUM_FRAMES, N_FFT // 2 + 1))
    for rows, block in magnitude_blocks(segment, window, HOP_LENGTH, N_FFT):
        magnitudes[rows] = block
    return np.log(np.maximum(magnitudes @ weights.T, LOG_FLOOR))


def patchify(logmel: np.ndarray) -> np.ndarray:
    """Slice the frame matrix into 50%-overlapping patches of PATCH_LENGTH rows.

    Patch i covers rows [PATCH_HOP*i, PATCH_HOP*i + PATCH_LENGTH); trailing
    rows that do not fill a patch are dropped. Returns (num_patches, 96, bands).
    """
    if logmel.ndim != 2:
        raise ValueError("expected a 2-D frame matrix")
    if logmel.shape[0] < PATCH_LENGTH:
        raise ValueError(
            f"need at least {PATCH_LENGTH} frames to form a patch, got {logmel.shape[0]}"
        )
    count = 1 + (logmel.shape[0] - PATCH_LENGTH) // PATCH_HOP
    return np.stack(
        [logmel[i * PATCH_HOP : i * PATCH_HOP + PATCH_LENGTH] for i in range(count)]
    )


def _float64(layer: LayerDesc) -> tuple[np.ndarray, np.ndarray]:
    # float32 -> float64 is exact, so casting once per call gives the
    # operands each per-patch product would have cast for itself
    return np.asarray(layer.weight, dtype=np.float64), np.asarray(layer.bias, dtype=np.float64)


def embed(patches: np.ndarray, weights: list[LayerDesc]) -> np.ndarray:
    """Run a (P, 96, 64) stack of patches through the embedding network: (P, 128).

    Each patch enters as channels x length (bands become channels). Conv layers
    are valid, stride 1; dense weights are (out, in). The output must be a
    128-vector per patch; any dimension mismatch names the offending layer.
    Every layer is one stacked pass over the patches whose items are the
    BLAS calls a single patch makes, so each row has the bits of a one-patch
    call (see the module docstring).
    """
    x = np.asarray(patches, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected a stack of patches, got shape {x.shape}")
    x = x.transpose(0, 2, 1)
    count = x.shape[0]
    for i, layer in enumerate(weights):
        try:
            if layer.kind == "conv1d":
                w, b = _float64(layer)
                out_ch, in_ch, k = w.shape
                if x.ndim != 3 or x.shape[1] != in_ch:
                    raise ValueError(
                        f"conv expects {in_ch} channels, got input shape {x.shape[1:]}"
                    )
                if x.shape[2] < k:
                    raise ValueError(f"input length {x.shape[2]} shorter than kernel")
                # (P, C, K, T) windows, copied into a C-contiguous (P, C*K, T)
                # tap stack whose rows are in the (channel, tap) order of w's
                # columns; the copy lives only for the product
                windows = np.lib.stride_tricks.sliding_window_view(x, k, axis=2)
                windows = windows.transpose(0, 1, 3, 2)
                x = np.matmul(w.reshape(out_ch, in_ch * k), windows.reshape(count, in_ch * k, -1))
                x += b[:, None]
            elif layer.kind == "dense":
                w, b = _float64(layer)
                if x.ndim != 2 or x.shape[1] != w.shape[1]:
                    raise ValueError(
                        f"dense expects a flat {w.shape[1]}-vector, got shape {x.shape[1:]}"
                    )
                x = np.matmul(w, x[:, :, None])[:, :, 0] + b
            elif layer.kind == "relu":
                x = np.maximum(x, 0.0)
            elif layer.kind == "flatten":
                x = x.reshape(count, -1)
            else:
                raise ValueError(f"unsupported kind {layer.kind!r}")
        except (ValueError, IndexError) as exc:
            raise DataError(f"embedding network layer {i} ({layer.kind}): {exc}") from exc
    if x.shape != (count, EMBED_DIM):
        raise DataError(
            f"embedding network must end in a {EMBED_DIM}-vector, got shape {x.shape[1:]}"
        )
    return x


@dataclass
class PcaParams:
    """Mean vector and square projection matrix applied after embedding."""

    mean: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("projection matrix must be square")
        if self.mean.shape[0] != self.matrix.shape[0]:
            raise ValueError("mean length must match matrix size")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.matrix))):
            raise ValueError("PCA parameters must be finite")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def identity_pca(dim: int = EMBED_DIM) -> PcaParams:
    return PcaParams(np.zeros(dim), np.eye(dim))


def pca_postprocess(embeddings: np.ndarray, pca: PcaParams) -> np.ndarray:
    """Mean-subtract each row and premultiply it by the projection matrix."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[1] != pca.dim:
        raise ValueError(
            f"expected rows of length {pca.dim}, got shape {embeddings.shape}"
        )
    return (embeddings - pca.mean) @ pca.matrix.T


def extract_vggish(
    segment: Signal, weights: list[LayerDesc], pca: PcaParams
) -> np.ndarray:
    """Full chain: log mel -> patches -> embedding of the patch stack -> PCA, (14, 128)."""
    return pca_postprocess(embed(patchify(log_mel_spectrogram(segment)), weights), pca)


def make_test_network(seed: int = 1202) -> list[LayerDesc]:
    """Small stand-in embedding net: two valid conv blocks then a dense head.

    64ch x 96 -> conv(32,k3) -> relu -> conv(16,k3) -> relu -> flatten(1472)
    -> dense -> 128. Deterministic in the seed; weights stored as float32 so a
    container round trip is exact.
    """
    rng = np.random.default_rng(seed)
    flat = 16 * (PATCH_LENGTH - 4)  # two k=3 valid convs shave 4 frames
    conv1 = glorot_float32(rng, (32, 64, 3), 64 * 3, 32 * 3)
    conv2 = glorot_float32(rng, (16, 32, 3), 32 * 3, 16 * 3)
    dense = glorot_float32(rng, (EMBED_DIM, flat), flat, EMBED_DIM)
    return [
        LayerDesc("conv1d", [conv1, np.zeros(32, dtype=np.float32)]),
        LayerDesc("relu"),
        LayerDesc("conv1d", [conv2, np.zeros(16, dtype=np.float32)]),
        LayerDesc("relu"),
        LayerDesc("flatten"),
        LayerDesc("dense", [dense, np.zeros(EMBED_DIM, dtype=np.float32)]),
    ]


def save_embedding_file(path, weights: list[LayerDesc], pca: PcaParams) -> None:
    """Write network layers plus pca_mean / pca_matrix into one container."""
    write_container(path, weights, {"pca_mean": pca.mean, "pca_matrix": pca.matrix})


def load_embedding_file(path) -> tuple[list[LayerDesc], PcaParams]:
    layers, named = read_container(path)
    if "pca_mean" not in named or "pca_matrix" not in named:
        raise DataError(f"{path}: missing pca_mean / pca_matrix tensors")
    if not layers:
        raise DataError(f"{path}: container holds no network layers")
    for i, layer in enumerate(layers):
        if not all(np.all(np.isfinite(t)) for t in layer.tensors):
            raise DataError(
                f"{path}: embedding network layer {i} ({layer.kind}) holds non-finite values"
            )
    try:
        return layers, PcaParams(named["pca_mean"], named["pca_matrix"])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
