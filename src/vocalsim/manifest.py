"""Corpus manifest loading, automatic split assignment, and WAV file IO.

A manifest is a CSV with header
`subject_id,audio_path,transcript_path,phq_binary,phq_score,split`; paths are
resolved relative to the manifest's directory. Rows may fix their split or
say "auto", in which case the auto rows are shuffled under a seed and dealt
10% to validation, 10% to test, and the rest to training.
"""

import csv
import io
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import SAMPLE_RATE, Signal
from .errors import DataError, is_file, read_text

MANIFEST_FIELDS = (
    "subject_id",
    "audio_path",
    "transcript_path",
    "phq_binary",
    "phq_score",
    "split",
)
SPLITS = ("train", "val", "test")
VAL_FRACTION = 0.1
TEST_FRACTION = 0.1
SPLIT_SEED = 13  # seeds the shuffle that deals the auto rows
PCM16_SCALE = 32768.0


@dataclass(frozen=True)
class SubjectRecord:
    subject_id: str
    audio_path: Path
    transcript_path: Path
    phq_binary: int
    phq_score: int
    split: str  # resolved, never "auto"

    def __post_init__(self):
        if self.phq_binary not in (0, 1):
            raise ValueError(f"phq_binary must be 0 or 1, got {self.phq_binary}")
        if not 0 <= self.phq_score <= 24:
            raise ValueError(f"phq_score must be in 0..24, got {self.phq_score}")
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")


def _parse_int(value: str, name: str, path, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise DataError(f"{path}:{line}: {name} must be an integer, got {value!r}") from None


def assign_auto_splits(n: int, split_seed: int) -> list:
    """Deal n auto rows into splits: 10% val, 10% test (floored), rest train."""
    n_val = int(n * VAL_FRACTION)
    n_test = int(n * TEST_FRACTION)
    order = np.random.default_rng(split_seed).permutation(n)
    splits = ["train"] * n
    for i in order[:n_val]:
        splits[i] = "val"
    for i in order[n_val : n_val + n_test]:
        splits[i] = "test"
    return splits


def load_manifest(path, split_seed: int = SPLIT_SEED, check_audio: bool = True) -> list:
    """Read a manifest CSV into SubjectRecords with resolved splits.

    `check_audio` verifies each WAV header is PCM 16-bit mono (rate checked
    later, at read time, so a resampling run can still ingest).
    """
    path = Path(path)
    if not is_file(path, "manifest"):
        raise DataError(f"manifest not found: {path}")
    base = path.parent
    rows = []
    reader = csv.reader(io.StringIO(read_text(path, "manifest"), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty manifest") from None
    if tuple(h.strip() for h in header) != MANIFEST_FIELDS:
        raise DataError(
            f"{path}:1: header must be {','.join(MANIFEST_FIELDS)}, "
            f"got {','.join(header)}"
        )
    for line, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(MANIFEST_FIELDS):
            raise DataError(
                f"{path}:{line}: expected {len(MANIFEST_FIELDS)} fields, got {len(row)}"
            )
        rows.append((line, [field.strip() for field in row]))
    if not rows:
        raise DataError(f"{path}: manifest has no data rows")

    seen = {}
    parsed = []
    for line, row in rows:
        subject_id, audio, transcript, binary, score, split = row
        if not subject_id:
            raise DataError(f"{path}:{line}: empty subject_id")
        if subject_id in seen:
            raise DataError(
                f"{path}:{line}: duplicate subject_id {subject_id!r} "
                f"(first seen on line {seen[subject_id]})"
            )
        seen[subject_id] = line
        if split not in SPLITS and split != "auto":
            raise DataError(
                f"{path}:{line}: split must be one of train,val,test,auto, got {split!r}"
            )
        parsed.append(
            {
                "line": line,
                "subject_id": subject_id,
                "audio_path": base / audio,
                "transcript_path": base / transcript,
                "phq_binary": _parse_int(binary, "phq_binary", path, line),
                "phq_score": _parse_int(score, "phq_score", path, line),
                "split": split,
            }
        )

    auto_rows = [r for r in parsed if r["split"] == "auto"]
    for row, split in zip(auto_rows, assign_auto_splits(len(auto_rows), split_seed)):
        row["split"] = split

    records = []
    for row in parsed:
        line = row.pop("line")
        for key in ("audio_path", "transcript_path"):
            what = key.replace("_", " ")
            if not is_file(row[key], f"{path}:{line}: {what}"):
                raise DataError(f"{path}:{line}: {what} not found: {row[key]}")
        if check_audio:
            _check_wav_header(row["audio_path"], line, path)
        try:
            records.append(SubjectRecord(**row))
        except ValueError as exc:
            raise DataError(f"{path}:{line}: {exc}") from None
    return records


def _check_wav_header(audio_path, line, manifest_path) -> None:
    try:
        with wave.open(str(audio_path), "rb") as handle:
            channels = handle.getnchannels()
            width = handle.getsampwidth()
    except (wave.Error, EOFError) as exc:
        raise DataError(f"{manifest_path}:{line}: {audio_path}: not a WAV file ({exc})") from None
    if channels != 1 or width != 2:
        raise DataError(
            f"{manifest_path}:{line}: {audio_path}: need PCM 16-bit mono, "
            f"got {width * 8}-bit {channels}-channel"
        )


def read_wav(path, expected_rate: int = SAMPLE_RATE, resample: bool = False) -> Signal:
    """Load a PCM 16-bit mono WAV as float samples in [-1, 1).

    A rate other than `expected_rate` is an error unless `resample` is set,
    in which case the samples are linearly interpolated to the expected rate.
    """
    path = Path(path)
    if not is_file(path, "audio file"):
        raise DataError(f"audio file not found: {path}")
    try:
        with wave.open(str(path), "rb") as handle:
            channels = handle.getnchannels()
            width = handle.getsampwidth()
            rate = handle.getframerate()
            frames = handle.readframes(handle.getnframes())
    except (wave.Error, EOFError) as exc:
        raise DataError(f"{path}: not a WAV file ({exc})") from None
    if channels != 1 or width != 2:
        raise DataError(
            f"{path}: need PCM 16-bit mono, got {width * 8}-bit {channels}-channel"
        )
    samples = np.frombuffer(frames, dtype="<i2").astype(np.float64) / PCM16_SCALE
    if rate != expected_rate:
        if not resample:
            raise DataError(
                f"{path}: sample rate {rate} Hz, expected {expected_rate} Hz "
                "(enable resampling to convert)"
            )
        samples = _resample(samples, rate, expected_rate)
    return Signal(samples, expected_rate)


def _resample(samples: np.ndarray, rate_in: int, rate_out: int) -> np.ndarray:
    if samples.size == 0:
        return samples
    n_out = int(round(samples.size * rate_out / rate_in))
    positions = np.arange(n_out) * (rate_in / rate_out)
    return np.interp(positions, np.arange(samples.size), samples)


def write_wav(path, signal: Signal) -> None:
    """Store a signal as PCM 16-bit mono, clipping to the representable range."""
    scaled = np.clip(np.round(signal.samples * PCM16_SCALE), -32768, 32767)
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(signal.sample_rate)
        handle.writeframes(scaled.astype("<i2").tobytes())
