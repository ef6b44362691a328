"""Log-mel front-end, 96-frame patching, loadable embedding network, and PCA
post-processing. A 7.6 s segment becomes a 14x128 embedding matrix."""

from dataclasses import dataclass

import numpy as np

from .autodiff import glorot_uniform
from .container import LayerDesc, read_container, write_container
from .dsp import LOG_FLOOR, SAMPLE_RATE, SEGMENT_SAMPLES, Signal, frame_signal, mel_filterbank
from .errors import DataError

FRAME_LENGTH = 400  # 25 ms
HOP_LENGTH = 160  # 10 ms
N_FFT = 512
NUM_BANDS = 64
NUM_FRAMES = 1 + (SEGMENT_SAMPLES - FRAME_LENGTH) // HOP_LENGTH  # 758
PATCH_LENGTH = 96
PATCH_HOP = 48
EMBED_DIM = 128

_tables: tuple[np.ndarray, np.ndarray] | None = None


def periodic_hann(length: int) -> np.ndarray:
    """Hann window with period-length normalization (denominator N, not N-1)."""
    if length < 1:
        raise ValueError("window length must be positive")
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


def _front_end_tables() -> tuple[np.ndarray, np.ndarray]:
    global _tables
    if _tables is None:
        window = periodic_hann(FRAME_LENGTH)
        bank = mel_filterbank(NUM_BANDS, N_FFT, SAMPLE_RATE)
        _tables = (window, bank.weights)
    return _tables


def log_mel_spectrogram(segment: Signal) -> np.ndarray:
    """Return the (758, 64) log mel magnitude matrix for one 7.6 s segment.

    Unlike the cepstral path this operates on magnitudes, not power, and uses
    the natural log with the shared 1e-10 floor.
    """
    if segment.sample_rate != SAMPLE_RATE:
        raise ValueError(f"expected {SAMPLE_RATE} Hz audio, got {segment.sample_rate}")
    if len(segment) != SEGMENT_SAMPLES:
        raise ValueError(
            f"expected a segment of {SEGMENT_SAMPLES} samples, got {len(segment)}"
        )
    window, weights = _front_end_tables()
    frames = frame_signal(segment, FRAME_LENGTH, HOP_LENGTH)
    magnitudes = np.abs(np.fft.rfft(frames * window, n=N_FFT, axis=1))
    mel = magnitudes @ weights.T
    return np.log(np.maximum(mel, LOG_FLOOR))


def patchify(
    logmel: np.ndarray, patch_len: int = PATCH_LENGTH, patch_hop: int = PATCH_HOP
) -> np.ndarray:
    """Slice the frame matrix into 50%-overlapping patches of patch_len rows.

    Patch i covers rows [patch_hop*i, patch_hop*i + patch_len); trailing rows
    that do not fill a patch are dropped. Returns (num_patches, patch_len, bands).
    """
    if logmel.ndim != 2:
        raise ValueError("expected a 2-D frame matrix")
    if logmel.shape[0] < patch_len:
        raise ValueError(
            f"need at least {patch_len} frames to form a patch, got {logmel.shape[0]}"
        )
    count = 1 + (logmel.shape[0] - patch_len) // patch_hop
    return np.stack(
        [logmel[i * patch_hop : i * patch_hop + patch_len] for i in range(count)]
    )


def embed(patch: np.ndarray, weights: list[LayerDesc]) -> np.ndarray:
    """Run one (96, 64) patch through the embedding network.

    The patch enters as channels x length (bands become channels). Conv layers
    are valid, stride 1; dense weights are (out, in). Output must be a
    128-vector; any dimension mismatch names the offending layer.
    """
    x = np.asarray(patch, dtype=np.float64).T
    for i, layer in enumerate(weights):
        try:
            if layer.kind == "conv1d":
                w, b = layer.weight, layer.bias
                if x.ndim != 2 or x.shape[0] != w.shape[1]:
                    raise ValueError(
                        f"conv expects {w.shape[1]} channels, got input shape {x.shape}"
                    )
                if x.shape[1] < w.shape[2]:
                    raise ValueError(f"input length {x.shape[1]} shorter than kernel")
                taps = np.lib.stride_tricks.sliding_window_view(x, w.shape[2], axis=1)
                x = np.tensordot(w, taps, axes=[(1, 2), (0, 2)]) + b[:, None]
            elif layer.kind == "dense":
                w, b = layer.weight, layer.bias
                if x.ndim != 1 or x.shape[0] != w.shape[1]:
                    raise ValueError(
                        f"dense expects a flat {w.shape[1]}-vector, got shape {x.shape}"
                    )
                x = w @ x + b
            elif layer.kind == "relu":
                x = np.maximum(x, 0.0)
            elif layer.kind == "flatten":
                x = x.ravel()
            else:
                raise ValueError(f"unsupported kind {layer.kind!r}")
        except (ValueError, IndexError) as exc:
            raise DataError(f"embedding network layer {i} ({layer.kind}): {exc}") from exc
    if x.shape != (EMBED_DIM,):
        raise DataError(
            f"embedding network must end in a {EMBED_DIM}-vector, got shape {x.shape}"
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
    """Full chain: log mel -> patches -> per-patch embedding -> PCA, (14, 128)."""
    patches = patchify(log_mel_spectrogram(segment))
    embeddings = np.stack([embed(p, weights) for p in patches])
    return pca_postprocess(embeddings, pca)


def make_test_network(seed: int = 1202) -> list[LayerDesc]:
    """Small stand-in embedding net: two valid conv blocks then a dense head.

    64ch x 96 -> conv(32,k3) -> relu -> conv(16,k3) -> relu -> flatten(1472)
    -> dense -> 128. Deterministic in the seed; weights stored as float32 so a
    container round trip is exact.
    """
    rng = np.random.default_rng(seed)
    flat = 16 * (PATCH_LENGTH - 4)  # two k=3 valid convs shave 4 frames
    conv1 = glorot_uniform(rng, (32, 64, 3), 64 * 3, 32 * 3)
    conv2 = glorot_uniform(rng, (16, 32, 3), 32 * 3, 16 * 3)
    dense = glorot_uniform(rng, (EMBED_DIM, flat), flat, EMBED_DIM)
    return [
        LayerDesc("conv1d", [conv1.astype(np.float32), np.zeros(32, dtype=np.float32)]),
        LayerDesc("relu"),
        LayerDesc("conv1d", [conv2.astype(np.float32), np.zeros(16, dtype=np.float32)]),
        LayerDesc("relu"),
        LayerDesc("flatten"),
        LayerDesc("dense", [dense.astype(np.float32), np.zeros(EMBED_DIM, dtype=np.float32)]),
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
    return layers, PcaParams(named["pca_mean"], named["pca_matrix"])
