"""Tests for segment-level MFCC extraction."""

import threading

import numpy as np
import pytest

from vocalsim import dsp, mfcc
from vocalsim import workers as pool
from vocalsim.dsp import (
    LOG_FLOOR,
    SAMPLE_RATE,
    Signal,
    apply_filterbank,
    dft_magnitude,
    hamming_window,
    log_dct,
    mel_filterbank,
)
from vocalsim.mfcc import (
    FRAME_LENGTH,
    HOP_LENGTH,
    N_FFT,
    NUM_COEFFS,
    NUM_FILTERS,
    NUM_FRAMES,
    SEGMENT_SAMPLES,
    extract_mfcc,
)


def make_segment(x: np.ndarray) -> Signal:
    assert x.size == SEGMENT_SAMPLES
    return Signal(x, SAMPLE_RATE)


def test_frame_grid_constants():
    assert SEGMENT_SAMPLES == 121600
    assert FRAME_LENGTH == 960 and HOP_LENGTH == 320
    assert NUM_FRAMES == 378


def test_shape_on_valid_segment():
    rng = np.random.default_rng(0)
    mat = extract_mfcc(make_segment(rng.normal(size=SEGMENT_SAMPLES)))
    assert mat.shape == (378, 60)
    assert np.all(np.isfinite(mat))


def test_wrong_length_rejected():
    with pytest.raises(ValueError):
        extract_mfcc(Signal(np.zeros(SEGMENT_SAMPLES - 1), SAMPLE_RATE))
    with pytest.raises(ValueError):
        extract_mfcc(Signal(np.zeros(SEGMENT_SAMPLES + 1), SAMPLE_RATE))


def test_wrong_sample_rate_rejected():
    with pytest.raises(ValueError):
        extract_mfcc(Signal(np.zeros(SEGMENT_SAMPLES), 8000))


def test_all_zero_segment_rows():
    # Every mel energy is floored to 1e-10, so each row is the cosine basis
    # applied to a constant -10 vector: c[0] = -600, even coefficients vanish,
    # odd ones follow the geometric-sum closed form -20*cos(n*pi/120).
    mat = extract_mfcc(make_segment(np.zeros(SEGMENT_SAMPLES)))
    n = np.arange(NUM_COEFFS)
    expected_row = np.where(
        n == 0,
        -600.0,
        np.where(n % 2 == 0, 0.0, -20.0 * np.cos(n * np.pi / (2 * NUM_FILTERS))),
    )
    for t in range(0, NUM_FRAMES, 37):
        np.testing.assert_allclose(mat[t], expected_row, atol=1e-8)
    np.testing.assert_allclose(mat, np.broadcast_to(expected_row, mat.shape), atol=1e-8)


def test_tone_column_zero_stationary_within_one_percent():
    t = np.arange(SEGMENT_SAMPLES) / SAMPLE_RATE
    mat = extract_mfcc(make_segment(np.sin(2.0 * np.pi * 1000.0 * t)))
    col = mat[:, 0]
    spread = col.max() - col.min()
    assert spread <= 0.01 * abs(np.mean(col))


def test_hop_shift_moves_rows_by_one():
    rng = np.random.default_rng(5)
    x = rng.normal(size=SEGMENT_SAMPLES + HOP_LENGTH)
    a = extract_mfcc(make_segment(x[:SEGMENT_SAMPLES]))
    b = extract_mfcc(make_segment(x[HOP_LENGTH:]))
    np.testing.assert_allclose(a[1:], b[:-1], atol=1e-6)


def near_silent_segment() -> np.ndarray:
    """Faint noise after a quarter of digital silence: the silent frames
    floor every mel energy, and the faint ones floor some of them."""
    x = 3e-7 * np.random.default_rng(4).normal(size=SEGMENT_SAMPLES)
    x[: SEGMENT_SAMPLES // 4] = 0.0
    return x


def check_rows_bit_for_bit(x: np.ndarray) -> list[int]:
    """Compare every row with the per-frame dsp chain; return how many mel
    energies of each row fell under the log floor."""
    mat = extract_mfcc(make_segment(x))
    window = hamming_window(FRAME_LENGTH)
    weights = mel_filterbank(NUM_FILTERS, N_FFT)
    floored = []
    for t in range(NUM_FRAMES):
        frame = x[t * HOP_LENGTH : t * HOP_LENGTH + FRAME_LENGTH]
        energies = apply_filterbank(dft_magnitude(frame * window, N_FFT) ** 2, weights)
        floored.append(int(np.sum(energies < LOG_FLOOR)))
        np.testing.assert_array_equal(mat[t], log_dct(energies, NUM_COEFFS))
    return floored


def test_matches_composed_operations_bit_for_bit():
    floored = check_rows_bit_for_bit(np.random.default_rng(9).normal(size=SEGMENT_SAMPLES))
    assert not any(floored)


def test_near_silent_rows_match_composed_operations_bit_for_bit():
    floored = check_rows_bit_for_bit(near_silent_segment())
    # whole rows and parts of others reach the floor
    assert NUM_FILTERS in floored and any(0 < n < NUM_FILTERS for n in floored)


@pytest.mark.parametrize("block", [1, 7, 100, 1000])
@pytest.mark.parametrize("kind", ["noise", "near-silent"])
def test_rows_do_not_depend_on_frame_block(monkeypatch, kind, block):
    """dsp.FRAME_BLOCK bounds memory only: every row keeps its bits at any
    block size."""
    x = np.random.default_rng(9).normal(size=SEGMENT_SAMPLES) if kind == "noise" else near_silent_segment()
    want = extract_mfcc(make_segment(x))
    # a front end that imported the name would read its own copy of it
    for module in (dsp, mfcc):
        monkeypatch.setattr(module, "FRAME_BLOCK", block, raising=False)
    np.testing.assert_array_equal(extract_mfcc(make_segment(x)), want)


def test_augmented_variants_keep_shape():
    from vocalsim.preprocess import Segment, augment_corpus

    t = np.arange(SEGMENT_SAMPLES) / SAMPLE_RATE
    seg = Segment(make_segment(0.5 * np.sin(2.0 * np.pi * 220.0 * t)))
    for variant in augment_corpus([seg], seed=3):
        assert extract_mfcc(variant.signal).shape == (378, 60)


def noise_segment(seed: int = 21) -> Signal:
    return make_segment(np.random.default_rng(seed).normal(size=SEGMENT_SAMPLES))


@pytest.mark.parametrize("width", [2, 3])
def test_frame_shares_equal_one_worker_bit_for_bit(workers, count_splits, width):
    """Any worker count gives the one-worker bits, and the segment's frames
    are extracted inline: no share is submitted."""
    seg = noise_segment()
    workers(1)
    want = extract_mfcc(seg)
    workers(width)
    limits = count_splits()
    got = extract_mfcc(seg)
    assert limits == []
    np.testing.assert_array_equal(got, want)


def test_frames_below_two_shares_submit_nothing(workers, count_splits):
    """A segment's frames are not cut into shares: the corpus is cut into
    whole variants instead (see test_pipeline.py's TestCorpusShares)."""
    workers(2)
    limits = count_splits()
    extract_mfcc(noise_segment())
    assert limits == []
    assert pool._workers_now is None  # no pool was even made


def test_extraction_inside_a_share_runs_inline(workers, monkeypatch):
    """A share that extracts MFCC does not split again: with one pool thread
    a nested split would wait forever on work queued behind its own share,
    so the spy raises instead of running one."""
    workers(2)
    seg = noise_segment()
    want = extract_mfcc(seg)
    run = pool._Workers.run
    running = []

    def run_once(self, task, limit):
        if running:
            raise AssertionError("a share submitted work")
        running.append(limit)
        try:
            run(self, task, limit)
        finally:
            running.pop()

    monkeypatch.setattr(pool._Workers, "run", run_once)
    got = [None, None]

    def task(i, parts):
        got[i] = extract_mfcc(seg)

    thread = threading.Thread(target=pool._in_shares, args=(task, 2), daemon=True)
    thread.start()
    thread.join(timeout=30.0)
    assert not thread.is_alive(), "a share that extracts MFCC hung"
    for g in got:
        np.testing.assert_array_equal(g, want)
