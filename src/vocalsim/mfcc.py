"""Per-segment MFCC extraction: 60 ms Hamming frames at a 20 ms hop, 1024-point
magnitude spectra, 60 mel power bands, log10 + cosine transform, 60
coefficients. A 7.6 s segment at 16 kHz yields a 378x60 matrix.

The window multiplies the strided frame view straight into a zero-padded
(378, 1024) buffer (`dsp.windowed_frames`), so no frame is copied and the
FFT pads nothing; the buffer holds the bits that `rfft(frame * window,
n=1024)` would pad each frame to. All 378 frames go through
one batched real FFT. The filter bank and the cosine transform are then
one stacked `np.matmul` each, matrix times a (378, n, 1) stack of column
vectors. Each stack item is the same BLAS matrix-vector call (`dgemv`)
that `bank.weights @ spectrum` makes for one frame, so every row stays
bit-identical to the per-frame dft_magnitude -> apply_filterbank -> log_dct
chain of `dsp` (a single matrix-matrix product rounds differently)."""

import numpy as np

from .dsp import (
    LOG_FLOOR,
    SAMPLE_RATE,
    SEGMENT_SAMPLES,
    MelFilterBank,
    Signal,
    WindowSpec,
    dct_basis,
    hamming_window,
    mel_filterbank,
    windowed_frames,
)

FRAME_LENGTH = 960  # 60 ms
HOP_LENGTH = 320  # 20 ms
N_FFT = 1024
NUM_FILTERS = 60
NUM_COEFFS = 60
NUM_FRAMES = 1 + (SEGMENT_SAMPLES - FRAME_LENGTH) // HOP_LENGTH  # 378

_tables: tuple[np.ndarray, MelFilterBank, np.ndarray] | None = None


def _analysis_tables() -> tuple[np.ndarray, MelFilterBank, np.ndarray]:
    global _tables
    if _tables is None:
        _tables = (
            hamming_window(WindowSpec(FRAME_LENGTH)),
            mel_filterbank(NUM_FILTERS, N_FFT, SAMPLE_RATE),
            dct_basis(NUM_COEFFS, NUM_FILTERS),
        )
    return _tables


def extract_mfcc(segment: Signal) -> np.ndarray:
    """Return the (378, 60) coefficient matrix for one 7.6 s segment.

    Rows are frames in time order. Each row is the log10 mel power vector of
    a windowed frame projected onto the cosine basis; the mel energies use the
    squared magnitude spectrum.
    """
    if segment.sample_rate != SAMPLE_RATE:
        raise ValueError(f"expected {SAMPLE_RATE} Hz audio, got {segment.sample_rate}")
    if len(segment) != SEGMENT_SAMPLES:
        raise ValueError(
            f"expected a segment of {SEGMENT_SAMPLES} samples, got {len(segment)}"
        )
    window, bank, basis = _analysis_tables()
    power = np.abs(np.fft.rfft(windowed_frames(segment, window, HOP_LENGTH, N_FFT), axis=1))
    power *= power
    energies = np.matmul(bank.weights, power[:, :, None])[:, :, 0]
    logs = np.log10(np.maximum(energies, LOG_FLOOR))
    return np.matmul(basis, logs[:, :, None])[:, :, 0]
