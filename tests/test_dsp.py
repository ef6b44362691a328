import numpy as np
import numpy.testing as npt
import pytest

from vocalsim import dsp, mfcc, vggish
from vocalsim.dsp import (
    LOG_FLOOR,
    SAMPLE_RATE,
    SEGMENT_SAMPLES,
    Signal,
    apply_filterbank,
    dft_magnitude,
    frame_signal,
    hamming_window,
    hz_to_mel,
    log_dct,
    magnitude_blocks,
    mel_filterbank,
)

# each front end's (window, hop, n_fft)
FRONT_ENDS = {
    "mfcc": (hamming_window(mfcc.FRAME_LENGTH), mfcc.HOP_LENGTH, mfcc.N_FFT),
    "log-mel": (vggish.periodic_hann(vggish.FRAME_LENGTH), vggish.HOP_LENGTH, vggish.N_FFT),
}


def naive_dft_magnitude(frame, n_fft):
    """O(N^2) one-sided DFT magnitude straight from the transform definition."""
    x = np.zeros(n_fft)
    x[: len(frame)] = frame
    k = np.arange(n_fft // 2 + 1)[:, None]
    n = np.arange(n_fft)[None, :]
    basis = np.exp(-2j * np.pi * k * n / n_fft)
    return np.abs(basis @ x)


def naive_frames(samples, frame_len, hop):
    out = []
    start = 0
    while start + frame_len <= len(samples):
        out.append(samples[start : start + frame_len])
        start += hop
    return np.array(out)


def naive_log_dct(energies, num_coeffs):
    m_total = len(energies)
    out = np.zeros(num_coeffs)
    for n in range(num_coeffs):
        acc = 0.0
        for m in range(m_total):
            acc += np.log10(max(energies[m], LOG_FLOOR)) * np.cos(n * (m - 0.5) * np.pi / m_total)
        out[n] = acc
    return out


class TestSignal:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Signal(np.array([0.0, np.nan]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Signal(np.zeros(4), 0)

    def test_duration(self):
        assert Signal(np.zeros(16000), 16000).duration == 1.0


class TestFraming:
    def test_segment_frame_count(self):
        sig = Signal(np.zeros(121600), 16000)
        frames = frame_signal(sig, 960, 320)
        assert frames.shape == (378, 960)

    def test_exact_fit(self):
        frames = frame_signal(Signal(np.zeros(960), 16000), 960, 320)
        assert frames.shape == (1, 960)

    def test_trailing_samples_dropped(self):
        frames = frame_signal(Signal(np.zeros(1000), 16000), 960, 320)
        assert frames.shape == (1, 960)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            frame_signal(Signal(np.zeros(10), 16000), 960, 320)

    def test_matches_naive_slicer_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(32, 4000))
            frame_len = int(rng.integers(2, n + 1))
            hop = int(rng.integers(1, frame_len + 4))
            x = rng.standard_normal(n)
            got = frame_signal(Signal(x, 16000), frame_len, hop)
            want = naive_frames(x, frame_len, hop)
            assert got.shape[0] == (n - frame_len) // hop + 1
            npt.assert_array_equal(got, want)

    def test_frame_offsets(self):
        x = np.arange(100, dtype=float)
        frames = frame_signal(Signal(x, 16000), 10, 7)
        for i, frame in enumerate(frames):
            npt.assert_array_equal(frame, x[i * 7 : i * 7 + 10])


class TestMagnitudeBlocks:
    @pytest.mark.parametrize("block", [7, 128, 1000])
    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_rows_match_per_frame_oracle_bit_for_bit(self, monkeypatch, front_end, block):
        """The blocks cover the frames once each, in order, FRAME_BLOCK rows
        at a time, and every row has the bits of dft_magnitude of its
        windowed frame."""
        monkeypatch.setattr(dsp, "FRAME_BLOCK", block)
        window, hop, n_fft = FRONT_ENDS[front_end]
        x = np.random.default_rng(31).normal(size=SEGMENT_SAMPLES)
        n_frames = (SEGMENT_SAMPLES - window.size) // hop + 1
        covered = 0
        for rows, magnitudes in magnitude_blocks(Signal(x, SAMPLE_RATE), window, hop, n_fft):
            assert rows == slice(covered, min(covered + block, n_frames))
            assert magnitudes.shape == (rows.stop - rows.start, n_fft // 2 + 1)
            for t, row in zip(range(rows.start, rows.stop), magnitudes):
                frame = x[t * hop : t * hop + window.size]
                np.testing.assert_array_equal(row, dft_magnitude(frame * window, n_fft))
            covered = rows.stop
        assert covered == n_frames

    @pytest.mark.parametrize(
        "samples, rate, message",
        [
            (SEGMENT_SAMPLES - 1, SAMPLE_RATE, "segment of 121600 samples, got 121599"),
            (SEGMENT_SAMPLES + 1, SAMPLE_RATE, "segment of 121600 samples, got 121601"),
            (SEGMENT_SAMPLES, 8000, "16000 Hz audio, got 8000"),
        ],
    )
    def test_wrong_rate_or_length_rejected(self, samples, rate, message):
        window, hop, n_fft = FRONT_ENDS["mfcc"]
        with pytest.raises(ValueError, match=message):
            next(magnitude_blocks(Signal(np.zeros(samples), rate), window, hop, n_fft))


class TestHammingWindow:
    def test_n5_closed_form(self):
        w = hamming_window(5)
        npt.assert_allclose(w, [0.08, 0.54, 1.00, 0.54, 0.08], atol=1e-12)

    def test_n2_endpoints(self):
        npt.assert_allclose(hamming_window(2), [0.08, 0.08], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 16, 960])
    def test_first_sample_and_symmetry(self, n):
        w = hamming_window(n)
        assert w[0] == pytest.approx(0.08, abs=1e-15)
        npt.assert_array_equal(w, w[::-1])

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            hamming_window(1)


class TestDftMagnitude:
    def test_dc_signal(self):
        npt.assert_allclose(dft_magnitude([1, 1, 1, 1], 4), [4, 0, 0], atol=1e-12)

    def test_impulse(self):
        npt.assert_allclose(dft_magnitude([1, 0, 0, 0], 4), [1, 1, 1], atol=1e-12)

    def test_alternating_vs_oracle(self):
        got = dft_magnitude([0, 1, 0, -1], 4)
        npt.assert_allclose(got, naive_dft_magnitude([0, 1, 0, -1], 4), atol=1e-12)
        npt.assert_allclose(got, [0, 2, 0], atol=1e-12)

    @pytest.mark.parametrize("n_fft", [4, 8, 16, 32, 64, 128, 256, 512])
    def test_matches_naive_oracle(self, n_fft):
        rng = np.random.default_rng(n_fft)
        for _ in range(20):
            frame = rng.uniform(-1, 1, size=int(rng.integers(1, n_fft + 1)))
            got = dft_magnitude(frame, n_fft)
            want = naive_dft_magnitude(frame, n_fft)
            rel = np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
            assert rel < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(11)
        for n_fft in (8, 64, 512):
            x = rng.uniform(-1, 1, n_fft)
            mag = dft_magnitude(x, n_fft)
            two_sided = mag[0] ** 2 + 2 * np.sum(mag[1:-1] ** 2) + mag[-1] ** 2
            assert two_sided == pytest.approx(n_fft * np.sum(x**2), rel=1e-6)

    def test_frame_longer_than_nfft_rejected(self):
        with pytest.raises(ValueError):
            dft_magnitude(np.zeros(10), 8)

    def test_nfft_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            dft_magnitude(np.zeros(4), 6)


class TestMelFilterbank:
    def test_mel_formula(self):
        assert hz_to_mel(0.0) == 0.0
        assert hz_to_mel(700.0) == pytest.approx(2595 * np.log10(2), rel=1e-12)
        assert float(hz_to_mel(700.0)) == pytest.approx(781.17, abs=0.005)

    @pytest.mark.parametrize("m,n_fft", [(60, 1024), (64, 512), (26, 512)])
    def test_rows_peak_at_one(self, m, n_fft):
        weights = mel_filterbank(m, n_fft)
        assert weights.shape == (m, n_fft // 2 + 1)
        npt.assert_array_equal(weights.max(axis=1), np.ones(m))
        assert weights.min() >= 0.0
        assert weights.max() <= 1.0

    @pytest.mark.parametrize("m,n_fft", [(60, 1024), (64, 512)])
    def test_single_peak_per_row(self, m, n_fft):
        for row in mel_filterbank(m, n_fft):
            peaks = np.flatnonzero(row == 1.0)
            assert peaks.size == 1

    def test_adjacent_rows_overlap(self):
        weights = mel_filterbank(40, 1024)
        for m in range(39):
            both = (weights[m] > 0) & (weights[m + 1] > 0)
            assert both.any()

    def test_too_many_filters_rejected(self):
        with pytest.raises(ValueError):
            mel_filterbank(200, 64)


class TestApplyFilterbank:
    def test_zero_spectrum(self):
        weights = mel_filterbank(20, 256)
        npt.assert_array_equal(apply_filterbank(np.zeros(129), weights), np.zeros(20))

    def test_one_hot_selects_column(self):
        weights = mel_filterbank(20, 256)
        for k in (3, 40, 100):
            spectrum = np.zeros(129)
            spectrum[k] = 1.0
            npt.assert_allclose(apply_filterbank(spectrum, weights), weights[:, k])

    def test_matches_dense_product(self):
        rng = np.random.default_rng(3)
        weights = mel_filterbank(20, 256)
        spectrum = rng.uniform(0, 2, 129)
        want = np.array([np.sum(weights[m] * spectrum) for m in range(20)])
        npt.assert_allclose(apply_filterbank(spectrum, weights), want, rtol=1e-12)

    def test_dimension_mismatch(self):
        weights = mel_filterbank(20, 256)
        with pytest.raises(ValueError):
            apply_filterbank(np.zeros(100), weights)


class TestLogDct:
    def test_unit_energies_all_zero(self):
        npt.assert_allclose(log_dct(np.ones(60), 60), np.zeros(60), atol=1e-9)

    def test_floored_energies(self):
        # All-zero energies hit the log floor: c[0] = 60*log10(eps) = -600,
        # even coefficients vanish, odd ones follow 2*log10(eps)*cos(n*pi/120).
        c = log_dct(np.zeros(60), 60)
        assert c[0] == pytest.approx(-600.0, abs=1e-9)
        npt.assert_allclose(c[2::2], 0.0, atol=1e-9)
        assert c[1] == pytest.approx(-19.99314649951114, abs=1e-9)
        npt.assert_allclose(c, naive_log_dct(np.zeros(60), 60), atol=1e-9)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(17)
        energies = rng.uniform(0, 5, 24)
        npt.assert_allclose(log_dct(energies, 24), naive_log_dct(energies, 24), atol=1e-9)
        npt.assert_allclose(log_dct(energies, 13), naive_log_dct(energies, 13), atol=1e-9)

    def test_too_many_coeffs(self):
        with pytest.raises(ValueError):
            log_dct(np.ones(10), 11)
