"""Shared DSP primitives: framing, windowing, magnitude spectra, mel filter
banks and log-DCT cepstra.

All functions are pure and operate on plain numpy arrays (float64). The
Hamming window has the standard coefficients, and every mel filter bank
spans 0 Hz to the Nyquist frequency of SAMPLE_RATE, the one rate the
feature extractors read. `magnitude_blocks` is the one walk that checks,
frames, windows and transforms a segment for both front ends (MFCC and
log-mel); `dft_magnitude` is its per-frame reference.
"""

from dataclasses import dataclass

import numpy as np

HAMMING_ALPHA = 0.54
HAMMING_BETA = 0.46
LOG_FLOOR = 1e-10  # floor under mel energies before taking logs
# every feature extractor reads fixed 7.6 s segments of 16 kHz audio
SAMPLE_RATE = 16000
SEGMENT_SECONDS = 7.6
SEGMENT_SAMPLES = int(round(SEGMENT_SECONDS * SAMPLE_RATE))  # 121600
# rows per block of magnitude_blocks: each windowed buffer and spectrum then
# stays near a megabyte. It bounds memory only: no feature bit depends on it
FRAME_BLOCK = 128


@dataclass
class Signal:
    """Mono PCM samples plus their sample rate.

    Samples are dimensionless amplitudes, nominally in [-1, 1].
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("signal samples must be one-dimensional")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("signal contains non-finite samples")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def frame_signal(signal: Signal, frame_len: int, hop: int) -> np.ndarray:
    """Slice a signal into overlapping frames of frame_len samples every hop samples.

    Returns a read-only (n_frames, frame_len) strided view of the samples,
    with n_frames = floor((len - frame_len)/hop) + 1; any trailing partial
    frame is dropped. Raises ValueError if the signal is shorter than one
    frame.
    """
    if hop < 1:
        raise ValueError("hop must be >= 1")
    n = len(signal)
    if n < frame_len:
        raise ValueError(f"signal of {n} samples is shorter than one frame ({frame_len})")
    return np.lib.stride_tricks.sliding_window_view(signal.samples, frame_len)[::hop]


def magnitude_blocks(segment: Signal, window: np.ndarray, hop: int, n_fft: int):
    """Walk a segment's frames: yield (rows, magnitudes) one FRAME_BLOCK of
    frames at a time, in order, where rows is the slice of frame indices
    and magnitudes the (rows, n_fft//2 + 1) array of |rfft(frame * window,
    n=n_fft)| for those frames of window.size samples every hop samples.

    The first step raises ValueError unless `segment` holds SEGMENT_SAMPLES
    samples at SAMPLE_RATE, the one input the feature extractors read. Each
    block multiplies its rows of the strided frame view by the window
    straight into a zero-padded buffer and takes one batched real FFT of
    it, so no frame is copied or padded twice, and each row has the bits of
    dft_magnitude(frame * window, n_fft). FFT rows are independent, so
    FRAME_BLOCK bounds the buffer's memory and moves no bit.
    """
    if segment.sample_rate != SAMPLE_RATE:
        raise ValueError(f"expected {SAMPLE_RATE} Hz audio, got {segment.sample_rate}")
    if len(segment) != SEGMENT_SAMPLES:
        raise ValueError(
            f"expected a segment of {SEGMENT_SAMPLES} samples, got {len(segment)}"
        )
    frames = frame_signal(segment, window.size, hop)
    for start in range(0, len(frames), FRAME_BLOCK):
        block = frames[start : start + FRAME_BLOCK]
        magnitudes = np.abs(np.fft.rfft(_padded(block, window, n_fft), axis=1))
        yield slice(start, start + len(block)), magnitudes


def _padded(block: np.ndarray, window: np.ndarray, n_fft: int) -> np.ndarray:
    """Each frame of `block` times the window, zero-padded to n_fft columns.
    Only the FFT call holds it, so it is freed before abs allocates: kept in
    the walk's frame across the yield, it raised each call's peak by half a
    megabyte and slowed two threads extracting at once."""
    out = np.zeros((len(block), n_fft))
    np.multiply(block, window, out=out[:, : window.size])
    return out


def hamming_window(length: int) -> np.ndarray:
    """Window weights w[n] = 0.54 - 0.46*cos(2*pi*n/(N-1)), n = 0..N-1, N >= 2.

    The second half mirrors the first so w[n] == w[N-1-n] holds bit-exactly.
    """
    if length < 2:
        raise ValueError("window length must be at least 2")
    n = np.arange((length + 1) // 2, dtype=np.float64)
    half = HAMMING_ALPHA - HAMMING_BETA * np.cos(2.0 * np.pi * n / (length - 1))
    w = np.empty(length)
    w[: half.size] = half
    w[length - half.size :] = half[::-1]
    return w


def dft_magnitude(frame: np.ndarray, n_fft: int) -> np.ndarray:
    """One-sided magnitude spectrum |X[k]|, k = 0..n_fft/2, of a zero-padded frame.

    n_fft must be a power of two and at least the frame length; frames longer
    than n_fft are rejected rather than silently truncated.
    """
    if n_fft < 2 or n_fft & (n_fft - 1):
        raise ValueError("n_fft must be a power of two")
    frame = np.asarray(frame, dtype=np.float64)
    if frame.size > n_fft:
        raise ValueError(f"frame of {frame.size} samples exceeds n_fft={n_fft}")
    return np.abs(np.fft.rfft(frame, n=n_fft))


def hz_to_mel(f):
    """Perceptual mel scale, mel(f) = 2595*log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(num_filters: int, n_fft: int) -> np.ndarray:
    """The (num_filters, n_fft//2+1) weight matrix of triangular,
    peak-normalized filters whose peaks are equally spaced on the mel scale
    from 0 Hz to SAMPLE_RATE/2.

    Each row rises linearly over FFT bins from the previous center to 1.0 at
    its own center bin and falls back to 0 at the next center. Raises
    ValueError when the requested filter count is too dense for the FFT
    resolution (two adjacent band edges land on the same bin).
    """
    if num_filters < 1:
        raise ValueError("num_filters must be >= 1")
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(SAMPLE_RATE / 2.0), num_filters + 2)
    hz_points = mel_to_hz(mel_points)
    bins = np.round(hz_points * n_fft / SAMPLE_RATE).astype(int)
    if np.any(np.diff(bins) < 1):
        raise ValueError(
            f"{num_filters} filters are too many for n_fft={n_fft} at {SAMPLE_RATE} Hz: "
            "adjacent band edges share an FFT bin"
        )

    weights = np.zeros((num_filters, n_fft // 2 + 1))
    for m in range(num_filters):
        lo, center, hi = bins[m], bins[m + 1], bins[m + 2]
        for k in range(lo, center):
            weights[m, k] = (k - lo) / (center - lo)
        for k in range(center, hi):
            weights[m, k] = (hi - k) / (hi - center)
    return weights


def apply_filterbank(spectrum: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted band sums Y[m] = sum_k W[m, k] * spectrum[k] for a
    mel_filterbank weight matrix W.

    The spectrum must be non-negative: a power spectrum |X|^2 for cepstral
    features, or a plain magnitude spectrum for log-mel features.
    """
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if spectrum.shape != weights.shape[1:]:
        raise ValueError(
            f"spectrum length {spectrum.shape} does not match filterbank bins ({weights.shape[1]})"
        )
    return weights @ spectrum


def log_dct(mel_energies: np.ndarray, num_coeffs: int) -> np.ndarray:
    """Cepstral coefficients c[n] = sum_m log10(max(Y[m], eps)) * cos(n*(m-0.5)*pi/M).

    The floor eps = LOG_FLOOR keeps the log total on silent input.
    """
    y = np.asarray(mel_energies, dtype=np.float64)
    m_total = y.size
    if num_coeffs > m_total:
        raise ValueError("num_coeffs cannot exceed the number of mel energies")
    logs = np.log10(np.maximum(y, LOG_FLOOR))
    return dct_basis(num_coeffs, m_total) @ logs


def dct_basis(num_coeffs: int, num_bands: int) -> np.ndarray:
    """Cosine basis B[n, m] = cos(n*(m-0.5)*pi/M) for the cepstral transform."""
    n = np.arange(num_coeffs)[:, None]
    m = np.arange(num_bands)[None, :]
    return np.cos(n * (m - 0.5) * np.pi / num_bands)
