"""Seeded synthetic corpus owned by the benchmark.

Every property below is there for a measured reason:

- Two classes of voiced "speakers" (a low and a high fundamental with
  different harmonic tilt), so pairing has same-class and cross-class
  partners and the Siamese network sees inputs that differ by class.
- Recordings of varied length: each recording holds a fixed number of 7.6 s
  voiced segments plus a seeded remainder that `segment` drops, so segments
  per recording vary inside a corpus while the total work per corpus stays
  the same for every seed.
- Silence gaps between voiced runs, so `strip_unvoiced` removes real
  windows. Voiced runs and gaps start and end on the 25 ms strip window
  grid, which makes the voiced sample count, and so the segment count,
  known exactly from the layout.
- Timed transcripts whose participant utterances cover the voiced runs and
  whose interviewer utterances sit in the longer gaps, so text alignment
  has words from both speakers.
- A generated 300-d lexicon plus a synonym file. Transcript words are mostly
  lexicon words, some are reachable only through a synonym and a few are
  unknown, so `extract_text` does real lookups instead of returning zeros.

The same seed gives byte-identical files.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vocalsim import write_wav
from vocalsim.dsp import Signal

RATE = 16000
WINDOW = 400  # strip_unvoiced's default 25 ms window at 16 kHz
SEGMENT = 121600  # one 7.6 s segment
VECTOR_DIM = 300
LEXICON_WORDS = 160
SYNONYM_WORDS = 40
UNKNOWN_WORDS = 12

# fundamental range (Hz) and harmonic tilt per class
_VOICES = {0: ((100.0, 135.0), 1.1), 1: ((205.0, 260.0), 0.7)}
_SYLLABLES = (
    "ba be bi bo bu da de di do ka ke ki ko la le li lo ma me mi mo "
    "na ne ni no ra re ri ro sa se si so ta te ti to va ve vi vo"
).split()


@dataclass(frozen=True)
class Subject:
    """Layout of one recording: whose voice, which split, how many segments."""

    subject_id: str
    label: int  # phq_binary, which also picks the voice class
    split: str
    segments: int


@dataclass
class Recording:
    subject: Subject
    score: int  # phq_score, consistent with the label
    audio: Path
    transcript: Path


@dataclass
class Corpus:
    manifest: Path
    lexicon: Path
    synonyms: Path
    recordings: list


def _windows(rng, low_s: float, high_s: float) -> int:
    """A duration drawn in [low_s, high_s) seconds, in whole strip windows."""
    low, high = int(low_s * RATE / WINDOW), int(high_s * RATE / WINDOW)
    return int(rng.integers(low, high)) * WINDOW


def _voiced(rng, n: int, label: int) -> np.ndarray:
    """n samples of a harmonic voice with vibrato and a syllable envelope.

    The envelope never drops below 0.35 of the peak, so every 25 ms window of
    a voiced run stays far above the strip threshold.
    """
    (f_low, f_high), tilt = _VOICES[label]
    t = np.arange(n) / RATE
    f0 = rng.uniform(f_low, f_high) * (1.0 + 0.02 * np.sin(2 * np.pi * 5.0 * t))
    phase = 2 * np.pi * np.cumsum(f0) / RATE
    wave = np.zeros(n)
    for h in range(1, 9):
        wave += np.sin(h * phase + rng.uniform(0, 2 * np.pi)) / h**tilt
    envelope = 0.675 + 0.325 * np.sin(
        2 * np.pi * rng.uniform(3.0, 5.0) * t + rng.uniform(0, 2 * np.pi)
    )
    wave *= envelope / np.max(np.abs(wave))
    return rng.uniform(0.25, 0.45) * wave + 0.004 * rng.standard_normal(n)


def _silence(rng, n: int) -> np.ndarray:
    return 0.0005 * rng.standard_normal(n)


def _vocabulary(rng) -> tuple:
    words: list[str] = []
    seen = set()
    while len(words) < LEXICON_WORDS + SYNONYM_WORDS + UNKNOWN_WORDS:
        word = "".join(rng.choice(_SYLLABLES, size=int(rng.integers(2, 4))))
        if word not in seen:
            seen.add(word)
            words.append(word)
    known = words[:LEXICON_WORDS]
    synonyms = words[LEXICON_WORDS : LEXICON_WORDS + SYNONYM_WORDS]
    unknown = words[LEXICON_WORDS + SYNONYM_WORDS :]
    return known, synonyms, unknown


def _utterance(rng, seconds: float, known, synonyms, unknown) -> str:
    words = []
    for _ in range(max(1, int(round(seconds * 2.5)))):
        pick = rng.random()
        pool = known if pick < 0.8 else synonyms if pick < 0.95 else unknown
        word = str(pool[int(rng.integers(len(pool)))])
        if rng.random() < 0.1:
            word = word.capitalize()
        if rng.random() < 0.08:
            word += ","
        words.append(word)
    return " ".join(words) + "."


def _write_recording(rng, subject: Subject, root: Path, vocab) -> tuple:
    """Write the WAV and its transcript. The voiced total is `segments` whole
    segments plus a remainder shorter than one segment."""
    voiced_total = subject.segments * SEGMENT + _windows(rng, 0.1, 6.0)
    pieces = [_silence(rng, _windows(rng, 0.2, 0.6))]
    clock = len(pieces[0])
    lines = ["start_time\tstop_time\tspeaker\tvalue"]
    remaining = voiced_total
    while remaining > 0:
        run = min(remaining, _windows(rng, 1.0, 3.0))
        pieces.append(_voiced(rng, run, subject.label))
        start, stop = clock / RATE, (clock + run) / RATE
        lines.append(
            f"{start:.3f}\t{stop:.3f}\tParticipant\t"
            + _utterance(rng, stop - start, *vocab)
        )
        clock += run
        remaining -= run
        gap = _windows(rng, 0.2, 1.2)
        pieces.append(_silence(rng, gap))
        if gap >= 0.6 * RATE:
            mid = (clock + gap / 2) / RATE
            lines.append(
                f"{mid - 0.2:.3f}\t{mid + 0.2:.3f}\tEllie\t"
                + _utterance(rng, 0.4, *vocab)
            )
        clock += gap
    audio = root / f"{subject.subject_id}.wav"
    transcript = root / f"{subject.subject_id}.tsv"
    write_wav(audio, Signal(np.concatenate(pieces), RATE))
    transcript.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return audio, transcript


def write_corpus(root, seed: int, subjects) -> Corpus:
    """Write recordings, transcripts, manifest, lexicon and synonyms under
    `root` for the given subject layout."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    known, synonyms, unknown = _vocabulary(rng)

    lexicon = root / "lexicon.vec"
    vectors = rng.normal(0.0, 0.3, size=(len(known), VECTOR_DIM))
    rows = [f"{len(known)} {VECTOR_DIM}"]
    rows += [w + " " + " ".join(f"{v:.4f}" for v in vec) for w, vec in zip(known, vectors)]
    lexicon.write_text("\n".join(rows) + "\n", encoding="utf-8")
    synonym_file = root / "synonyms.tsv"
    synonym_file.write_text(
        "".join(f"{w}\t{known[int(rng.integers(len(known)))]}\n" for w in synonyms),
        encoding="utf-8",
    )

    recordings = []
    manifest_rows = ["subject_id,audio_path,transcript_path,phq_binary,phq_score,split"]
    for subject in subjects:
        score = int(rng.integers(0, 10) if subject.label == 0 else rng.integers(10, 25))
        audio, transcript = _write_recording(rng, subject, root, (known, synonyms, unknown))
        recordings.append(Recording(subject, score, audio, transcript))
        manifest_rows.append(
            f"{subject.subject_id},{audio.name},{transcript.name},"
            f"{subject.label},{score},{subject.split}"
        )
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(manifest_rows) + "\n", encoding="utf-8")
    return Corpus(manifest, lexicon, synonym_file, recordings)
