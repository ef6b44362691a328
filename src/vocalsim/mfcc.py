"""Per-segment MFCC extraction: 60 ms Hamming frames at a 20 ms hop, 1024-point
magnitude spectra, 60 mel power bands, log10 + cosine transform, 60
coefficients. A 7.6 s segment at 16 kHz yields a 378x60 matrix.

One call runs on the calling thread: the corpus is featurized in shares of
whole variants (see `pipeline.py`), so a segment's frames are not cut. The
378 frames are walked in blocks of `dsp.FRAME_BLOCK` rows. A block
multiplies its rows of the strided frame view by the window straight into
a zero-padded (rows, 1024) buffer (`dsp.windowed_frames`), so no frame is
copied and the FFT pads nothing; the buffer holds the bits that
`rfft(frame * window, n=1024)` would pad each frame to. The block's frames
go through one batched real FFT. The filter bank and the cosine transform
are then one stacked `np.matmul` each, matrix times a (rows, n, 1) stack of
column vectors, and the block writes its rows of the output. Each FFT row
and each stack item is the same call, on the same operands, however the
frames are cut: the stack item is the BLAS matrix-vector call (`dgemv`)
that `bank.weights @ spectrum` makes for one frame, so every row stays
bit-identical to the per-frame dft_magnitude -> apply_filterbank -> log_dct
chain of `dsp` (a single matrix-matrix product rounds differently)."""

import functools

import numpy as np

from .dsp import (
    FRAME_BLOCK,
    LOG_FLOOR,
    SAMPLE_RATE,
    SEGMENT_SAMPLES,
    MelFilterBank,
    Signal,
    WindowSpec,
    check_segment,
    dct_basis,
    frame_signal,
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


@functools.cache
def _analysis_tables() -> tuple[np.ndarray, MelFilterBank, np.ndarray]:
    return (
        hamming_window(WindowSpec(FRAME_LENGTH)),
        mel_filterbank(NUM_FILTERS, N_FFT, SAMPLE_RATE),
        dct_basis(NUM_COEFFS, NUM_FILTERS),
    )


def extract_mfcc(segment: Signal) -> np.ndarray:
    """Return the (378, 60) coefficient matrix for one 7.6 s segment.

    Rows are frames in time order. Each row is the log10 mel power vector of
    a windowed frame projected onto the cosine basis; the mel energies use the
    squared magnitude spectrum.
    """
    check_segment(segment)
    window, bank, basis = _analysis_tables()
    frames = frame_signal(segment, FRAME_LENGTH, HOP_LENGTH)
    out = np.empty((len(frames), NUM_COEFFS))
    for start in range(0, len(frames), FRAME_BLOCK):
        rows = slice(start, start + FRAME_BLOCK)
        power = np.abs(np.fft.rfft(windowed_frames(frames[rows], window, N_FFT), axis=1))
        power *= power
        energies = np.matmul(bank.weights, power[:, :, None])[:, :, 0]
        logs = np.log10(np.maximum(energies, LOG_FLOOR))
        out[rows] = np.matmul(basis, logs[:, :, None])[:, :, 0]
    return out
