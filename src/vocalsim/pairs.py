"""Pair generation for similarity training.

Samples are per-segment feature references carrying their subject's labels.
Each sample of a split anchors a fixed number of pairs, half with its own
class and half with the other class(es); train anchors draw partners from the
train split, while val and test anchors are paired only with train samples,
so every val/test pair has exactly one non-train member. A sample is never
paired with itself.
"""

import csv
import io
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, read_text, replace_file
from .manifest import PHQ_MAX, SPLITS

PAIRS_PER_SAMPLE = 8
# each pair mode's label classes: similar or not, or a score difference
MODE_CLASSES = {"binary": 2, "score25": PHQ_MAX + 1}


@dataclass(frozen=True)
class SampleRef:
    """One pairable sample: a segment variant plus its subject's labels."""

    sample_id: str
    subject_id: str
    phq_binary: int
    phq_score: int
    split: str

    def __post_init__(self):
        if self.phq_binary not in (0, 1):
            raise ValueError(f"phq_binary must be 0 or 1, got {self.phq_binary}")
        if not 0 <= self.phq_score <= PHQ_MAX:
            raise ValueError(f"phq_score must be in 0..{PHQ_MAX}, got {self.phq_score}")
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")


@dataclass(frozen=True)
class PairRecord:
    left_id: str
    right_id: str
    similar: bool
    label_score: int  # |score(left) - score(right)|, the 25-way class
    split: str


@dataclass
class PairSet:
    train: list[PairRecord] = field(default_factory=list)
    val: list[PairRecord] = field(default_factory=list)
    test: list[PairRecord] = field(default_factory=list)

    def for_split(self, split: str) -> list[PairRecord]:
        return getattr(self, split)

    def all_pairs(self) -> list[PairRecord]:
        return self.train + self.val + self.test


def pair_class(sample: SampleRef, mode: str) -> int:
    """The class identity pairing balances on: binary label or 0..PHQ_MAX score."""
    if mode not in MODE_CLASSES:
        raise ValueError(f"unknown pair mode {mode!r}")
    return sample.phq_binary if mode == "binary" else sample.phq_score


def _make_record(anchor: SampleRef, partner: SampleRef, mode: str) -> PairRecord:
    return PairRecord(
        left_id=anchor.sample_id,
        right_id=partner.sample_id,
        similar=pair_class(anchor, mode) == pair_class(partner, mode),
        label_score=abs(anchor.phq_score - partner.phq_score),
        split=anchor.split,
    )


def make_pairs(
    samples: list[SampleRef],
    mode: str = "binary",
    pairs_per_sample: int = PAIRS_PER_SAMPLE,
    rng=None,
) -> PairSet:
    """Build balanced similar / non-similar pairs for every split.

    rng may be a seed or a numpy Generator; results are deterministic given
    the seed and the sample list order. A class with fewer than two train
    samples cannot form same-class train pairs and falls back to cross-class
    partners (with a warning).
    """
    if pairs_per_sample < 1:
        raise ValueError("pairs_per_sample must be positive")
    if mode not in MODE_CLASSES:
        raise ValueError(f"unknown pair mode {mode!r}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    ids = [s.sample_id for s in samples]
    if len(set(ids)) != len(ids):
        raise ValueError("sample_ids must be unique")

    train_samples = sorted(
        (s for s in samples if s.split == "train"), key=lambda s: s.sample_id
    )
    by_class: dict[int, list[SampleRef]] = {}
    for s in train_samples:
        by_class.setdefault(pair_class(s, mode), []).append(s)

    warned: set[int] = set()
    parity: dict[tuple[str, int], int] = {}
    out = PairSet()
    for anchor in samples:
        cls = pair_class(anchor, mode)
        same_pool = [s for s in by_class.get(cls, []) if s.sample_id != anchor.sample_id]
        cross_pool = [
            s for c, members in sorted(by_class.items()) if c != cls for s in members
        ]
        want_same = pairs_per_sample // 2
        want_cross = pairs_per_sample - want_same
        if want_same != want_cross:
            # odd count: alternate which side takes the extra pair so the
            # per-class totals stay within one pair of an even split
            key = (anchor.split, cls)
            if parity.get(key, 0) % 2:
                want_same, want_cross = want_cross, want_same
            parity[key] = parity.get(key, 0) + 1
        if not same_pool:
            if anchor.split == "train" and cls not in warned:
                warned.add(cls)
                warnings.warn(
                    f"class {cls} has no same-class train partners; "
                    "emitting cross-class pairs only"
                )
            want_cross += want_same
            want_same = 0
        if not cross_pool:
            want_same += want_cross
            want_cross = 0
            if not same_pool:
                continue
        records = out.for_split(anchor.split)
        for pool, count in ((same_pool, want_same), (cross_pool, want_cross)):
            if count == 0:
                continue
            picks = rng.choice(len(pool), size=count, replace=count > len(pool))
            for idx in picks:
                records.append(_make_record(anchor, pool[int(idx)], mode))
    return out


def write_pairs_csv(pairs: PairSet, path) -> None:
    with replace_file(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["left_id", "right_id", "label_binary", "label_score", "split"])
        for record in pairs.all_pairs():
            writer.writerow(
                [
                    record.left_id,
                    record.right_id,
                    "similar" if record.similar else "non-similar",
                    record.label_score,
                    record.split,
                ]
            )


def read_pairs_csv(path) -> PairSet:
    rows = list(csv.reader(io.StringIO(read_text(path, "pair list"), newline="")))
    if not rows or rows[0] != ["left_id", "right_id", "label_binary", "label_score", "split"]:
        raise DataError(f"{path}: missing or malformed pair CSV header")
    out = PairSet()
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 5:
            raise DataError(f"{path}:{lineno}: expected 5 fields")
        left, right, binary, score, split = row
        if binary not in ("similar", "non-similar"):
            raise DataError(f"{path}:{lineno}: bad label_binary {binary!r}")
        if split not in SPLITS:
            raise DataError(f"{path}:{lineno}: bad split {split!r}")
        try:
            label_score = int(score)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad label_score: {exc}") from exc
        if not 0 <= label_score <= PHQ_MAX:
            raise DataError(f"{path}:{lineno}: label_score out of range")
        out.for_split(split).append(
            PairRecord(left, right, binary == "similar", label_score, split)
        )
    return out
