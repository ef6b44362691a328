"""Per-segment MFCC extraction: 60 ms Hamming frames at a 20 ms hop, 1024-point
magnitude spectra, 60 mel power bands, log10 + cosine transform, 60
coefficients. A 7.6 s segment at 16 kHz yields a 378x60 matrix.

One call runs on the calling thread: the corpus is featurized in shares of
whole variants (see `pipeline.py`), so a segment's frames are not cut. The
magnitude spectra come from `dsp.magnitude_blocks` one block of frames at a
time. For each block the filter bank and the cosine transform are one
stacked `np.matmul` each, matrix times a (rows, n, 1) stack of column
vectors, and the block writes its rows of the output. Each stack item is
the BLAS matrix-vector call (`dgemv`) that `weights @ spectrum` makes for
one frame, on the same operands however the frames are cut, so every row
stays bit-identical to the per-frame dft_magnitude -> apply_filterbank ->
log_dct chain of `dsp` (a single matrix-matrix product rounds
differently)."""

import functools

import numpy as np

from .dsp import (
    LOG_FLOOR,
    SEGMENT_SAMPLES,
    Signal,
    dct_basis,
    hamming_window,
    magnitude_blocks,
    mel_filterbank,
)

FRAME_LENGTH = 960  # 60 ms
HOP_LENGTH = 320  # 20 ms
N_FFT = 1024
NUM_FILTERS = 60
NUM_COEFFS = 60
NUM_FRAMES = 1 + (SEGMENT_SAMPLES - FRAME_LENGTH) // HOP_LENGTH  # 378


@functools.cache
def _analysis_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (
        hamming_window(FRAME_LENGTH),
        mel_filterbank(NUM_FILTERS, N_FFT),
        dct_basis(NUM_COEFFS, NUM_FILTERS),
    )


def extract_mfcc(segment: Signal) -> np.ndarray:
    """Return the (378, 60) coefficient matrix for one 7.6 s segment.

    Rows are frames in time order. Each row is the log10 mel power vector of
    a windowed frame projected onto the cosine basis; the mel energies use the
    squared magnitude spectrum.
    """
    window, weights, basis = _analysis_tables()
    out = np.empty((NUM_FRAMES, NUM_COEFFS))
    for rows, power in magnitude_blocks(segment, window, HOP_LENGTH, N_FFT):
        power *= power
        energies = np.matmul(weights, power[:, :, None])[:, :, 0]
        logs = np.log10(np.maximum(energies, LOG_FLOOR))
        out[rows] = np.matmul(basis, logs[:, :, None])[:, :, 0]
    return out
