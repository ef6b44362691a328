"""Tests for balanced pair generation and the pair CSV round trip."""

import numpy as np
import pytest

from vocalsim.errors import DataError
from vocalsim.pairs import (
    PairRecord,
    PairSet,
    SampleRef,
    make_pairs,
    pair_class,
    read_pairs_csv,
    write_pairs_csv,
)


def corpus(n_per_class: int, split: str = "train", start: int = 0) -> list[SampleRef]:
    out = []
    for i in range(n_per_class):
        out.append(
            SampleRef(f"{split}-dep-{start + i}", f"s{start + i}", 1, 15, split)
        )
        out.append(
            SampleRef(f"{split}-non-{start + i}", f"t{start + i}", 0, 3, split)
        )
    return out


def same_cross_counts(records: list[PairRecord]) -> tuple[int, int]:
    same = sum(1 for r in records if r.similar)
    return same, len(records) - same


class TestMakePairs:
    def test_half_same_half_cross_per_class(self):
        samples = corpus(4)
        pairs = make_pairs(samples, rng=0)
        assert len(pairs.train) == 8 * 8
        for cls in (0, 1):
            anchored = [
                r
                for r in pairs.train
                if next(s for s in samples if s.sample_id == r.left_id).phq_binary == cls
            ]
            same, cross = same_cross_counts(anchored)
            assert same == cross

    def test_no_self_pairs(self):
        pairs = make_pairs(corpus(5), rng=1)
        assert all(r.left_id != r.right_id for r in pairs.all_pairs())

    def test_single_sample_yields_nothing(self):
        lone = [SampleRef("only", "s", 1, 10, "train")]
        with pytest.warns(UserWarning):
            pairs = make_pairs(lone, rng=0)
        assert pairs.all_pairs() == []

    def test_val_and_test_partners_come_from_train(self):
        samples = corpus(4) + corpus(2, "val", 100) + corpus(2, "test", 200)
        train_ids = {s.sample_id for s in samples if s.split == "train"}
        pairs = make_pairs(samples, rng=2)
        for record in pairs.val + pairs.test:
            assert record.left_id not in train_ids
            assert record.right_id in train_ids
        assert len(pairs.val) == 4 * 8
        assert len(pairs.test) == 4 * 8

    def test_deterministic_under_seed(self):
        samples = corpus(6) + corpus(2, "val", 50)
        a = make_pairs(samples, rng=42)
        b = make_pairs(samples, rng=42)
        c = make_pairs(samples, rng=43)
        assert a.all_pairs() == b.all_pairs()
        assert a.all_pairs() != c.all_pairs()

    def test_class_without_partners_warns_and_goes_cross(self):
        samples = corpus(3) + [SampleRef("rare", "r", 1, 24, "train")]
        with pytest.warns(UserWarning, match="24"):
            pairs = make_pairs(samples, mode="score25", rng=3)
        anchored = [r for r in pairs.train if r.left_id == "rare"]
        assert len(anchored) == 8
        assert all(not r.similar for r in anchored)

    def test_score25_labels_are_absolute_differences(self):
        samples = [
            SampleRef("a", "a", 1, 20, "train"),
            SampleRef("b", "b", 1, 20, "train"),
            SampleRef("c", "c", 0, 5, "train"),
            SampleRef("d", "d", 0, 5, "train"),
        ]
        pairs = make_pairs(samples, mode="score25", rng=4)
        for record in pairs.train:
            assert record.label_score in (0, 15)
            assert record.similar == (record.label_score == 0)

    def test_binary_similarity_follows_binary_label(self):
        pairs = make_pairs(corpus(4), rng=5)
        samples = {s.sample_id: s for s in corpus(4)}
        for r in pairs.train:
            expected = samples[r.left_id].phq_binary == samples[r.right_id].phq_binary
            assert r.similar == expected

    def test_odd_pairs_per_sample_stays_within_one(self):
        samples = corpus(6)
        pairs = make_pairs(samples, pairs_per_sample=5, rng=6)
        lookup = {s.sample_id: s for s in samples}
        for cls in (0, 1):
            anchored = [r for r in pairs.train if lookup[r.left_id].phq_binary == cls]
            same, cross = same_cross_counts(anchored)
            assert abs(same - cross) <= 1

    def test_duplicate_sample_ids_rejected(self):
        twice = [SampleRef("x", "a", 1, 9, "train"), SampleRef("x", "b", 0, 1, "train")]
        with pytest.raises(ValueError, match="unique"):
            make_pairs(twice, rng=0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            make_pairs(corpus(2), mode="triplet", rng=0)
        with pytest.raises(ValueError):
            pair_class(corpus(1)[0], "nope")

    def test_sample_ref_validation(self):
        with pytest.raises(ValueError):
            SampleRef("a", "a", 2, 5, "train")
        with pytest.raises(ValueError):
            SampleRef("a", "a", 1, 25, "train")
        with pytest.raises(ValueError):
            SampleRef("a", "a", 1, 5, "holdout")


class TestPairCsv:
    def test_roundtrip(self, tmp_path):
        samples = corpus(4) + corpus(2, "val", 10) + corpus(2, "test", 20)
        pairs = make_pairs(samples, rng=7)
        path = tmp_path / "pairs.csv"
        write_pairs_csv(pairs, path)
        back = read_pairs_csv(path)
        assert back.train == pairs.train
        assert back.val == pairs.val
        assert back.test == pairs.test

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("a,b,similar,0,train\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            read_pairs_csv(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text(
            "left_id,right_id,label_binary,label_score,split\na,b,kinda,0,train\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=":2"):
            read_pairs_csv(path)

    def test_bad_score_rejected(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text(
            "left_id,right_id,label_binary,label_score,split\na,b,similar,40,train\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="range"):
            read_pairs_csv(path)

    def test_for_split_accessor(self):
        ps = PairSet()
        record = PairRecord("a", "b", True, 0, "val")
        ps.for_split("val").append(record)
        assert ps.val == [record]
        assert ps.all_pairs() == [record]


class _FailingScore:
    """A label score whose serialization fails, after checking that earlier
    rows already reached the temporary file: the write fails midway."""

    def __init__(self, directory):
        self.directory = directory

    def __str__(self):
        temps = [p for p in self.directory.iterdir() if p.name.endswith(".tmp")]
        assert len(temps) == 1 and temps[0].stat().st_size > 0
        raise RuntimeError("serializer failed")


def test_failed_csv_write_keeps_previous_file(tmp_path):
    path = tmp_path / "pairs.csv"
    write_pairs_csv(PairSet(train=[PairRecord("a", "b", True, 0, "train")]), path)
    before = path.read_bytes()
    rows = [PairRecord(f"left{i}", f"right{i}", False, 3, "train") for i in range(2000)]
    rows.append(PairRecord("x", "y", True, _FailingScore(tmp_path), "train"))
    with pytest.raises(RuntimeError, match="serializer failed"):
        write_pairs_csv(PairSet(train=rows), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.csv"]
