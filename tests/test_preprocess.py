"""Tests for voiced-speech stripping, segmentation, and augmentation."""

import numpy as np
import pytest

from vocalsim.dsp import Signal
from vocalsim.preprocess import (
    NOISE_ALPHAS,
    PITCH_SEMITONES,
    Segment,
    augment_corpus,
    inject_noise,
    pitch_shift,
    segment,
    segment_seeds,
    segment_units,
    strip_unvoiced,
    variant_units,
)

SR = 16000
SEG_SAMPLES = 121600  # 7.6 s at 16 kHz


def tone(freq_hz: float, num_samples: int, sr: int = SR, amp: float = 1.0) -> Signal:
    t = np.arange(num_samples) / sr
    return Signal(amp * np.sin(2.0 * np.pi * freq_hz * t), sr)


def spectral_peak_hz(signal: Signal) -> float:
    """Independent peak locator: argmax of the one-sided DFT magnitude."""
    mag = np.abs(np.fft.rfft(signal.samples))
    return np.argmax(mag) * signal.sample_rate / len(signal)


class FakeHalfRng:
    """Stub generator whose every uniform draw is exactly 0.5."""

    def random(self, n):
        return np.full(n, 0.5)


class TestStripUnvoiced:
    def test_all_zero_gives_empty_with_warning(self):
        sig = Signal(np.zeros(SR), SR)
        with pytest.warns(UserWarning):
            out = strip_unvoiced(sig)
        assert len(out) == 0

    def test_constant_tone_passes_through(self):
        sig = tone(440.0, SR)
        out = strip_unvoiced(sig)
        np.testing.assert_array_equal(out.samples, sig.samples)

    def test_alternating_tone_silence_keeps_voiced_windows(self):
        # 5 cycles of (3 windows tone, 2 windows silence), window = 400 samples.
        window = 400
        mask = np.zeros(5 * 5 * window, dtype=bool)
        for c in range(5):
            start = c * 5 * window
            mask[start : start + 3 * window] = True
        t = np.arange(mask.size) / SR
        x = np.where(mask, np.sin(2.0 * np.pi * 440.0 * t), 0.0)
        out = strip_unvoiced(Signal(x, SR), energy_threshold=0.1, window_ms=25.0)
        assert len(out) == int(mask.sum())

    def test_misaligned_voiced_blocks_within_one_window(self):
        # Same layout shifted 200 samples so block edges straddle windows.
        window = 400
        mask = np.zeros(5 * 5 * window, dtype=bool)
        for c in range(5):
            start = c * 5 * window + 200
            mask[start : start + 3 * window] = True
        t = np.arange(mask.size) / SR
        x = np.where(mask, np.sin(2.0 * np.pi * 440.0 * t), 0.0)
        out = strip_unvoiced(Signal(x, SR), energy_threshold=0.1, window_ms=25.0)
        # Oracle: a window passes when it holds enough tone samples for its
        # RMS to clear 0.1 * global RMS; count those from the layout mask.
        global_rms = np.sqrt(np.mean(x**2))
        passing = 0
        for start in range(0, mask.size, window):
            chunk_rms = np.sqrt(np.mean(x[start : start + window] ** 2))
            passing += chunk_rms >= 0.1 * global_rms
        assert len(out) == passing * window
        # Each of the 5 voiced blocks straddles two window boundaries, so the
        # kept length may exceed the voiced span by at most one window per edge.
        assert mask.sum() <= len(out) <= mask.sum() + 2 * 5 * window

    def test_threshold_range_enforced(self):
        with pytest.raises(ValueError):
            strip_unvoiced(tone(440.0, SR), energy_threshold=1.5)

    def test_order_preserved(self):
        # Two voiced blocks with distinct amplitudes, order must survive.
        window = 400
        a = 0.9 * np.ones(window * 2)
        silence = np.zeros(window * 3)
        b = 0.4 * np.ones(window * 2)
        x = np.concatenate([a, silence, b])
        out = strip_unvoiced(Signal(x, SR), energy_threshold=0.1, window_ms=25.0)
        np.testing.assert_array_equal(out.samples, np.concatenate([a, b]))


def strip_oracle(signal: Signal, energy_threshold: float, window_ms: float):
    """The per-window gate as a plain loop: one mean per window, the
    trailing partial window included. Returns the kept samples, or None
    when no window passes."""
    x = signal.samples
    window = max(1, int(round(window_ms * signal.sample_rate / 1000.0)))
    global_rms = np.sqrt(np.mean(x**2))
    kept = []
    for start in range(0, x.size, window):
        chunk = x[start : start + window]
        if np.sqrt(np.mean(chunk**2)) >= energy_threshold * global_rms:
            kept.append(chunk)
    return np.concatenate(kept) if kept else None


def gated_noise(seed: int, num_samples: int) -> Signal:
    """Noise under a piecewise envelope: loud, quiet and silent stretches
    of random lengths that do not line up with the strip windows."""
    rng = np.random.default_rng(seed)
    edges = np.sort(rng.integers(0, num_samples, size=12))
    levels = rng.choice([0.0, 0.01, 0.05, 0.3, 1.0], size=13)
    envelope = levels[np.searchsorted(edges, np.arange(num_samples), side="right")]
    return Signal(envelope * rng.normal(size=num_samples), SR)


class TestStripMatchesWindowLoop:
    """strip_unvoiced gates every full window in one vectorized pass; the
    kept samples must equal the per-window loop's exactly."""

    def check(self, sig: Signal, energy_threshold: float, window_ms: float = 25.0):
        expected = strip_oracle(sig, energy_threshold, window_ms)
        assert expected is not None
        out = strip_unvoiced(sig, energy_threshold=energy_threshold, window_ms=window_ms)
        np.testing.assert_array_equal(out.samples, expected)
        return out

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_gated_signals(self, seed):
        rng = np.random.default_rng(100 + seed)
        sig = gated_noise(seed, int(rng.integers(2_000, 40_000)))
        self.check(sig, float(rng.choice([0.05, 0.1, 0.3, 0.6])), float(rng.choice([5.0, 25.0, 31.3])))

    def test_trailing_partial_window_that_passes(self):
        # 3 full windows of silence-then-tone plus a loud 150-sample tail
        x = np.concatenate([np.zeros(400), 0.5 * np.ones(800), np.ones(150)])
        out = self.check(Signal(x, SR), 0.1)
        assert len(out) == 800 + 150

    def test_trailing_partial_window_that_fails(self):
        x = np.concatenate([np.ones(1200), 1e-4 * np.ones(150)])
        out = self.check(Signal(x, SR), 0.1)
        assert len(out) == 1200

    def test_window_longer_than_signal(self):
        # 25 ms is a 400-sample window; 1e300 ms gates as 1e12 ms does
        sig = gated_noise(7, 300)
        for window_ms in (25.0, 1e12, 1e300):
            out = self.check(sig, 0.5, window_ms=window_ms)
            np.testing.assert_array_equal(out.samples, sig.samples)

    def test_window_of_one_sample(self):
        # 0.04 ms at 16 kHz rounds to one sample: each sample is gated alone
        sig = gated_noise(3, 5_000)
        out = self.check(sig, 0.2, window_ms=0.04)
        rms = np.sqrt(np.mean(sig.samples**2))
        assert len(out) == int(np.sum(np.abs(sig.samples) >= 0.2 * rms))

    def test_tail_counts_toward_global_rms(self):
        # RMS 0.3 in the full window against a global RMS of 0.63 over the
        # whole signal, loud tail included: the window fails the 0.5 gate
        x = np.concatenate([0.3 * np.ones(400), np.ones(200)])
        out = self.check(Signal(x, SR), 0.5)
        assert len(out) == 200

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_threshold_bounds(self, threshold):
        # a silent 150-sample tail: threshold 0 keeps even that
        sig = Signal(np.concatenate([gated_noise(5, 10_000).samples, np.zeros(150)]), SR)
        out = self.check(sig, threshold)
        if threshold == 0.0:
            np.testing.assert_array_equal(out.samples, sig.samples)

    def test_no_window_passed_warns(self):
        # A constant 0.1 over 10 windows: at threshold 1 every window's RMS
        # rounds just below the global RMS, so the loop keeps nothing.
        sig = Signal(np.full(4000, 0.1), SR)
        assert strip_oracle(sig, 1.0, 25.0) is None
        with pytest.warns(UserWarning, match="no window passed"):
            out = strip_unvoiced(sig, energy_threshold=1.0)
        assert len(out) == 0


class TestSegment:
    def test_fifteen_minutes_gives_118_segments(self):
        n = 15 * 60 * SR
        assert n == 14_400_000
        segs = segment(Signal(np.zeros(n), SR))
        assert len(segs) == n // SEG_SAMPLES == 118

    def test_exact_length_gives_one_segment(self):
        segs = segment(Signal(np.zeros(SEG_SAMPLES), SR))
        assert len(segs) == 1
        assert len(segs[0].signal) == SEG_SAMPLES

    def test_one_sample_short_gives_empty_with_warning(self):
        with pytest.warns(UserWarning):
            segs = segment(Signal(np.zeros(SEG_SAMPLES - 1), SR))
        assert segs == []

    def test_segments_are_consecutive_and_uniform(self):
        x = np.arange(3 * SEG_SAMPLES + 500, dtype=np.float64)
        segs = segment(Signal(x, SR))
        assert len(segs) == 3
        for i, seg in enumerate(segs):
            assert len(seg.signal) == SEG_SAMPLES
            assert seg.provenance == "original"
            np.testing.assert_array_equal(
                seg.signal.samples, x[i * SEG_SAMPLES : (i + 1) * SEG_SAMPLES]
            )

    def test_segment_length_rounding(self):
        # round(7.6 * 8000) samples at 8 kHz
        segs = segment(Signal(np.arange(2 * 60800 + 1, dtype=np.float64), 8000))
        assert [len(seg.signal) for seg in segs] == [60800, 60800]
        assert segs[1].signal.samples[0] == 60800

    def test_strip_then_segment_only_full_length(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=SEG_SAMPLES * 2 + 12345)
        x[::7] = 0.0
        stripped = strip_unvoiced(Signal(x, SR))
        for seg in segment(stripped):
            assert len(seg.signal) == SEG_SAMPLES


class TestInjectNoise:
    def test_alpha_zero_is_identity(self):
        sig = tone(440.0, 4000)
        out = inject_noise(sig, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.samples, sig.samples)

    def test_mocked_rng_shifts_by_half_alpha(self):
        sig = tone(440.0, 4000)
        out = inject_noise(sig, 0.02, FakeHalfRng())
        np.testing.assert_allclose(out.samples, sig.samples - 0.01, rtol=0, atol=1e-15)

    def test_perturbation_bounded_by_alpha(self):
        rng = np.random.default_rng(3)
        sig = Signal(rng.normal(size=10000), SR)
        out = inject_noise(sig, 0.03, np.random.default_rng(4))
        delta = sig.samples - out.samples
        assert np.all(delta >= 0.0)
        assert np.all(delta <= 0.03)

    @pytest.mark.parametrize("alpha", [0.0, 0.01, 0.03, 0.7])
    def test_equals_subtracting_the_scaled_draws_bit_for_bit(self, alpha):
        x = np.random.default_rng(5).normal(size=20000)
        want = x - alpha * np.random.default_rng(6).random(x.size)
        got = inject_noise(Signal(x, SR), alpha, np.random.default_rng(6))
        np.testing.assert_array_equal(got.samples, want)

    def test_bit_deterministic_under_seed(self):
        sig = tone(200.0, 5000)
        a = inject_noise(sig, 0.02, np.random.default_rng(99))
        b = inject_noise(sig, 0.02, np.random.default_rng(99))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_mean_square_perturbation_increases_with_alpha(self):
        sig = tone(330.0, 8000)
        mses = []
        for alpha in (0.01, 0.02, 0.03):
            out = inject_noise(sig, alpha, np.random.default_rng(7))
            mses.append(np.mean((sig.samples - out.samples) ** 2))
        assert mses[0] < mses[1] < mses[2]

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            inject_noise(tone(440.0, 100), -0.01, np.random.default_rng(0))


class TestPitchShift:
    def test_zero_shift_is_identity(self):
        sig = tone(440.0, SEG_SAMPLES)
        out = pitch_shift(sig, 0.0)
        np.testing.assert_allclose(out.samples, sig.samples, atol=1e-6)

    def test_lower_two_semitones_moves_peak_to_392(self):
        out = pitch_shift(tone(440.0, SEG_SAMPLES), 2.0)
        assert len(out) == SEG_SAMPLES
        assert abs(spectral_peak_hz(out) - 392.0) <= 2.0

    def test_lower_half_semitone_moves_peak_to_427_5(self):
        out = pitch_shift(tone(440.0, SEG_SAMPLES), 0.5)
        assert abs(spectral_peak_hz(out) - 427.5) <= 2.0

    def test_lower_2_5_semitones_matches_ratio(self):
        expected = 440.0 * 2.0 ** (-2.5 / 12.0)
        out = pitch_shift(tone(440.0, SEG_SAMPLES), 2.5)
        assert abs(spectral_peak_hz(out) - expected) <= 2.0

    def test_raise_two_semitones_moves_peak_up(self):
        expected = 440.0 * 2.0 ** (2.0 / 12.0)
        out = pitch_shift(tone(440.0, SEG_SAMPLES), -2.0)
        assert abs(spectral_peak_hz(out) - expected) <= 2.0

    def test_energy_within_twenty_percent(self):
        sig = tone(440.0, SEG_SAMPLES)
        for semis in PITCH_SEMITONES:
            out = pitch_shift(sig, semis)
            ratio = np.sum(out.samples**2) / np.sum(sig.samples**2)
            assert 0.8 <= ratio <= 1.2

    def test_shift_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pitch_shift(tone(440.0, 100), 13.0)

    @pytest.mark.parametrize("n", [1, 2, 1001, SEG_SAMPLES])
    @pytest.mark.parametrize("semis", [-12.0, -3.0, -0.5, -1e-9, 1e-9, 0.5, 2.5, 12.0])
    def test_matches_wrapped_interpolation_bit_for_bit(self, n, semis):
        x = np.random.default_rng(n).normal(size=n)
        ratio = 2.0 ** (-semis / 12.0)
        base = np.arange(n, dtype=np.float64)
        want = np.interp(np.mod(base * ratio, n), base, x)
        np.testing.assert_array_equal(pitch_shift(Signal(x, SR), semis).samples, want)

    def test_length_and_rate_preserved_on_odd_sizes(self):
        sig = tone(123.0, 54321)
        out = pitch_shift(sig, 2.5)
        assert len(out) == 54321
        assert out.sample_rate == sig.sample_rate


class TestAugmentCorpus:
    def test_one_segment_gives_seven(self):
        segs = [Segment(tone(440.0, 2000))]
        out = augment_corpus(segs, seed=5)
        assert len(out) == 7
        tags = [s.provenance for s in out]
        assert tags == [
            "original",
            "noise-0.01",
            "noise-0.02",
            "noise-0.03",
            "pitch-0.5",
            "pitch-2",
            "pitch-2.5",
        ]

    def test_118_segments_give_826(self):
        segs = [Segment(tone(100.0 + i, 800)) for i in range(118)]
        out = augment_corpus(segs, seed=1)
        assert len(out) == 118 * 7

    def test_lengths_and_rates_unchanged(self):
        segs = [Segment(tone(440.0, SEG_SAMPLES))]
        out = augment_corpus(segs, seed=2)
        for var in out:
            assert len(var.signal) == SEG_SAMPLES
            assert var.signal.sample_rate == SR

    def test_deterministic_under_seed(self):
        segs = [Segment(tone(440.0, 3000)), Segment(tone(220.0, 3000))]
        a = augment_corpus(segs, seed=42)
        b = augment_corpus(segs, seed=42)
        for va, vb in zip(a, b):
            np.testing.assert_array_equal(va.signal.samples, vb.signal.samples)
            assert va.provenance == vb.provenance

    def test_seed_changes_noise_draws(self):
        segs = [Segment(tone(440.0, 3000))]
        a = augment_corpus(segs, seed=1)
        b = augment_corpus(segs, seed=2)
        assert not np.array_equal(a[1].signal.samples, b[1].signal.samples)

    def test_noise_stream_depends_on_position_not_neighbours(self):
        first = Segment(tone(440.0, 3000))
        a = augment_corpus([first, Segment(tone(220.0, 3000))], seed=9)
        b = augment_corpus([first, Segment(tone(110.0, 3000))], seed=9)
        for i in range(7):
            np.testing.assert_array_equal(a[i].signal.samples, b[i].signal.samples)

    def test_original_is_first_and_untouched(self):
        seg = Segment(tone(440.0, 2000))
        out = augment_corpus([seg], seed=0)
        assert out[0] is seg

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            augment_corpus([], seed=0)


class TestVariantUnits:
    """augment_corpus is the segments' variant units, built in order."""

    @staticmethod
    def segments():
        return [Segment(tone(300.0 + 50 * i, 3000)) for i in range(3)]

    def test_units_of_a_segment(self):
        seg = self.segments()[0]
        units = variant_units(seg, segment_seeds(4, 1)[0])
        # original, the noise variants as one unit, then one per pitch shift
        assert [len(list(unit())) for unit in units] == [1, len(NOISE_ALPHAS), 1, 1, 1]
        assert len(units) == 2 + len(PITCH_SEMITONES)

    def test_no_child_gives_the_original_alone(self):
        seg = self.segments()[0]
        (only,) = variant_units(seg, None)
        assert list(only()) == [seg]

    @pytest.mark.parametrize("seed", [11, None])
    def test_segment_units_are_augment_corpus_by_segment(self, seed):
        segs = self.segments()
        out = augment_corpus(segs, seed)
        grouped = [
            [variant for unit in units for variant in unit()]
            for units in segment_units(segs, seed)
        ]
        per = len(out) // len(segs)
        assert per == (1 if seed is None else 1 + len(NOISE_ALPHAS) + len(PITCH_SEMITONES))
        for i, group in enumerate(grouped):
            want = out[i * per : (i + 1) * per]
            assert [v.provenance for v in group] == [v.provenance for v in want]
            for got, expected in zip(group, want):
                np.testing.assert_array_equal(got.signal.samples, expected.signal.samples)

    def test_augment_corpus_is_the_units_in_order(self):
        segs = self.segments()
        out = augment_corpus(segs, seed=11)
        built = [
            variant
            for seg, child in zip(segs, segment_seeds(11, len(segs)))
            for unit in variant_units(seg, child)
            for variant in unit()
        ]
        assert [v.provenance for v in built] == [v.provenance for v in out]
        for got, want in zip(built, out):
            np.testing.assert_array_equal(got.signal.samples, want.signal.samples)

    def test_noise_unit_made_alone_equals_augment_corpus(self):
        segs = self.segments()
        out = augment_corpus(segs, seed=11)
        per = 1 + len(NOISE_ALPHAS) + len(PITCH_SEMITONES)
        seeds = segment_seeds(11, len(segs))
        for i in reversed(range(len(segs))):  # made alone, last segment first
            noise = list(variant_units(segs[i], seeds[i])[1]())
            want = out[i * per + 1 : i * per + 1 + len(NOISE_ALPHAS)]
            assert [v.provenance for v in noise] == [v.provenance for v in want]
            for got, expected in zip(noise, want):
                np.testing.assert_array_equal(got.signal.samples, expected.signal.samples)
