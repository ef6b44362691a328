"""Voiced-speech extraction, fixed-length segmentation, and the two audio
augmentation transforms (additive uniform noise, pitch lowering)."""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .dsp import SEGMENT_SECONDS, Signal

NOISE_ALPHAS = (0.01, 0.02, 0.03)
PITCH_SEMITONES = (0.5, 2.0, 2.5)
STRIP_THRESHOLD = 0.1  # fraction of the global RMS a window must reach
STRIP_WINDOW_MS = 25.0


@dataclass
class Segment:
    """A fixed-length speech segment tagged with how it was produced."""

    signal: Signal
    provenance: str = "original"


def strip_unvoiced(
    signal: Signal,
    energy_threshold: float = STRIP_THRESHOLD,
    window_ms: float = STRIP_WINDOW_MS,
) -> Signal:
    """Keep only short-time windows whose RMS reaches energy_threshold times
    the global RMS, preserving order.

    An entirely silent input yields an empty signal (with a warning) rather
    than an error.
    """
    if not 0.0 <= energy_threshold <= 1.0:
        raise ValueError("energy_threshold must be in [0, 1]")
    x = signal.samples
    # any window longer than the signal gates it as its tail alone, so the
    # cap keeps every decision and a huge window stays a small int
    window = max(1, int(round(min(window_ms * signal.sample_rate / 1000.0, x.size + 1))))
    power = x**2
    global_rms = np.sqrt(np.mean(power)) if x.size else 0.0
    if global_rms == 0.0:
        warnings.warn("strip_unvoiced: input is silent, returning empty signal")
        return Signal(np.empty(0), signal.sample_rate)

    # One mean per row reduces each full window exactly as a mean of that
    # window alone would, so the gate decisions match a per-window loop.
    gate = energy_threshold * global_rms
    full = x.size - x.size % window
    kept = np.flatnonzero(np.sqrt(np.mean(power[:full].reshape(-1, window), axis=1)) >= gate)
    tail = x.size - full if full < x.size and np.sqrt(np.mean(power[full:])) >= gate else 0
    del power  # every decision is made: the kept windows are gathered without it
    out = np.empty(kept.size * window + tail)
    windows = out[: kept.size * window].reshape(-1, window)
    # every index is in range; "clip" writes out directly, "raise" buffers it
    np.take(x[:full].reshape(-1, window), kept, axis=0, out=windows, mode="clip")
    if tail:
        out[-tail:] = x[full:]
    if not out.size:
        warnings.warn("strip_unvoiced: no window passed the energy gate")
    return Signal(out, signal.sample_rate)


def segment(signal: Signal) -> list[Segment]:
    """Split into consecutive non-overlapping segments of SEGMENT_SECONDS
    seconds, round(SEGMENT_SECONDS * rate) samples at the signal's rate.

    The trailing remainder shorter than one segment is dropped; an input
    shorter than one segment yields an empty list with a warning.
    """
    seg_len = int(round(SEGMENT_SECONDS * signal.sample_rate))
    count = len(signal) // seg_len
    if count == 0:
        warnings.warn(
            f"signal of {signal.duration:.2f}s is shorter than one {SEGMENT_SECONDS}s segment"
        )
        return []
    return [
        Segment(Signal(signal.samples[i * seg_len : (i + 1) * seg_len], signal.sample_rate))
        for i in range(count)
    ]


def inject_noise(signal: Signal, alpha: float, rng) -> Signal:
    """Perturb each sample by -alpha times a Uniform[0,1) draw from rng.

    The draws are scaled and added in place, in one array: -alpha * u + x
    is exactly x - alpha * u, as negation and addition order round alike.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    noisy = rng.random(len(signal))
    np.multiply(noisy, -alpha, out=noisy)
    noisy += signal.samples
    return Signal(noisy, signal.sample_rate)


def pitch_shift(signal: Signal, semitones: float) -> Signal:
    """Lower (positive semitones) or raise the pitch by resampling, keeping length.

    Every output sample is read from position i * 2^(-semitones/12) of the
    input (linear interpolation, wrapped periodically), so a pure tone at f
    moves to f * 2^(-semitones/12) and the output length equals the input
    length. Only a raised pitch reads past the end: when the ratio is at
    most 1, the rounded product i * ratio is at most i < n and the wrap
    would return it unchanged, so it is skipped.
    """
    if abs(semitones) > 12:
        raise ValueError("semitone shift must be within +/-12")
    n = len(signal)
    if n == 0 or semitones == 0:
        return Signal(signal.samples.copy(), signal.sample_rate)
    ratio = 2.0 ** (-semitones / 12.0)
    base = np.arange(n, dtype=np.float64)
    positions = base * ratio
    if ratio > 1.0:
        np.mod(positions, n, out=positions)
    shifted = np.interp(positions, base, signal.samples)
    return Signal(shifted, signal.sample_rate)


def segment_seeds(seed: int, count: int) -> list:
    """The noise seed of each of `count` segments: child i of the int `seed`
    for segment i, so a segment's noise draws depend on its position alone,
    not on processing order or on its neighbours."""
    return np.random.SeedSequence(seed).spawn(count)


def variant_units(seg: Segment, child) -> list:
    """The variants of one segment, cut into units that can be built apart:
    functions of no arguments that yield their Segments one at a time, so a
    unit holds one variant signal at a time. The units are the original; the
    noise variants, as one unit, because they draw in order from the one
    stream seeded by `child`; then each pitch variant. With `child` None the
    original is the only unit."""

    def original():
        yield seg

    if child is None:
        return [original]

    def noise():
        rng = np.random.default_rng(child)
        for alpha in NOISE_ALPHAS:
            yield Segment(inject_noise(seg.signal, alpha, rng), f"noise-{alpha:g}")

    def pitch(semis):
        yield Segment(pitch_shift(seg.signal, semis), f"pitch-{semis:g}")

    return [original, noise] + [functools.partial(pitch, semis) for semis in PITCH_SEMITONES]


def segment_units(segments: list[Segment], seed=None) -> list[list]:
    """Each segment's variant units (variant_units): segment i gets child i
    of `seed` (segment_seeds), or keeps its original alone when `seed` is
    None."""
    children = [None] * len(segments) if seed is None else segment_seeds(seed, len(segments))
    return [variant_units(seg, child) for seg, child in zip(segments, children)]


def augment_corpus(segments: list[Segment], seed) -> list[Segment]:
    """Each segment's original, then its noise and pitch variants: the units
    of segment_units(segments, seed), built in order."""
    if not segments:
        raise ValueError("augment_corpus requires at least one segment")
    out = []
    for units in segment_units(segments, seed):
        for unit in units:
            out.extend(unit())
    return out
