"""Tests for metric arithmetic and the confusion-matrix rendering."""

import json

import numpy as np
import pytest

from vocalsim.autodiff import Tensor
from vocalsim.errors import DataError
from vocalsim.metrics import (
    EvalReport,
    accuracy_from_confusion,
    confusion_matrix,
    evaluate,
    pearson_cc,
    render_confusion,
    rmse,
)
from vocalsim.models import FeatureSet, ModelSpec, build_model
from vocalsim.pairs import PairRecord


class ScriptedModel:
    """Stands in for a trained network; emits pre-set output rows in order."""

    def __init__(self, outputs, head="binary"):
        self.outputs = np.asarray(outputs, dtype=np.float64)
        self.spec = ModelSpec(head=head)
        self._cursor = 0

    def score_pairs(self, pairs, features, training=False, rng=None):
        rows = self.outputs[self._cursor : self._cursor + len(pairs)]
        self._cursor += len(pairs)
        return Tensor(rows)


def binary_pairs(labels):
    return [
        PairRecord(f"l{i}", f"r{i}", bool(lab), 0 if lab else 5, "test")
        for i, lab in enumerate(labels)
    ]


def score_pairs(scores):
    return [
        PairRecord(f"l{i}", f"r{i}", s == 0, int(s), "test") for i, s in enumerate(scores)
    ]


class DummyFeatures(dict):
    def __getitem__(self, key):
        return None


class TestScalars:
    def test_pearson_perfect(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson_cc(x, x) == pytest.approx(1.0)
        assert pearson_cc(x, -x) == pytest.approx(-1.0)
        assert pearson_cc(x, 2 * x + 7) == pytest.approx(1.0)

    def test_pearson_zero_variance_guard(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson_cc(np.full(3, 5.0), x) == 0.0
        assert pearson_cc(x, np.zeros(3)) == 0.0

    def test_rmse_values(self):
        assert rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
        assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
            np.sqrt(12.5)
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            pearson_cc(np.zeros(2), np.zeros(3))


class TestConfusion:
    def test_reported_accuracy_matches_published_counts(self):
        counts = np.array([[404, 158], [128, 374]])
        assert accuracy_from_confusion(counts) == pytest.approx(73.12, abs=0.005)

    def test_trace_over_total(self):
        counts = confusion_matrix(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 1]), 2)
        np.testing.assert_array_equal(counts, [[1, 1], [1, 1]])
        assert accuracy_from_confusion(counts) == pytest.approx(50.0)

    def test_render_margins(self):
        report = EvalReport(
            mode="binary",
            total=1064,
            accuracy=accuracy_from_confusion(np.array([[404, 158], [128, 374]])),
            rmse=0.0,
            pearson_cc=0.0,
            confusion=np.array([[404, 158], [128, 374]]),
            class_names=("NS", "S"),
        )
        text = render_confusion(report)
        for token in (
            "404 (37.97)",
            "158 (14.85)",
            "128 (12.03)",
            "374 (35.15)",
            "71.89 / 28.11",
            "74.50 / 25.50",
            "75.94 / 24.06",
            "70.30 / 29.70",
        ):
            assert token in text
        assert text.splitlines()[0].startswith("predicted \\ actual")

    def test_render_empty_column_margin(self):
        report = EvalReport(
            mode="binary",
            total=2,
            accuracy=100.0,
            rmse=0.0,
            pearson_cc=0.0,
            confusion=np.array([[2, 0], [0, 0]]),
            class_names=("NS", "S"),
        )
        assert "-" in render_confusion(report)

    def test_empty_confusion_rejected(self):
        with pytest.raises(ValueError):
            accuracy_from_confusion(np.zeros((2, 2), dtype=int))


class TestEvaluate:
    def test_perfect_binary_predictions(self):
        pairs = binary_pairs([1, 0, 1, 0])
        outputs = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        report = evaluate(ScriptedModel(outputs), pairs, DummyFeatures(), batch_size=3)
        assert report.accuracy == pytest.approx(100.0)
        assert report.rmse == 0.0
        assert report.pearson_cc == pytest.approx(1.0)
        assert report.normalized_rmse is None
        assert report.mode == "binary"
        np.testing.assert_array_equal(report.confusion, [[2, 0], [0, 2]])

    def test_binary_confusion_orientation(self):
        # one pair: actually similar, predicted non-similar
        pairs = binary_pairs([1])
        report = evaluate(ScriptedModel([[0.2, 0.8]]), pairs, DummyFeatures())
        np.testing.assert_array_equal(report.confusion, [[0, 1], [0, 0]])

    def test_accuracy_equals_confusion_trace(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 2, size=37)
        outputs = rng.random((37, 2))
        report = evaluate(
            ScriptedModel(outputs), binary_pairs(labels), DummyFeatures(), batch_size=10
        )
        assert report.accuracy == accuracy_from_confusion(report.confusion)
        assert report.confusion.sum() == report.total == 37

    def test_score25_normalization(self):
        scores = [0, 5, 10, 24]
        outputs = np.zeros((4, 25))
        outputs[0, 0] = 1.0  # exact
        outputs[1, 9] = 1.0  # off by 4
        outputs[2, 10] = 1.0  # exact
        outputs[3, 17] = 1.0  # off by 7
        report = evaluate(
            ScriptedModel(outputs, head="score25"), score_pairs(scores), DummyFeatures()
        )
        expected = float(np.sqrt((16 + 49) / 4))
        assert report.rmse == pytest.approx(expected)
        assert report.normalized_rmse == pytest.approx(expected / 25)
        assert report.mode == "score25"
        assert report.confusion.shape == (25, 25)
        assert report.accuracy == pytest.approx(50.0)

    def test_published_normalized_rmse_ratio(self):
        assert 4.025 / 25 == pytest.approx(0.161)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            evaluate(ScriptedModel([[1.0, 0.0]]), [], DummyFeatures())

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            evaluate(ScriptedModel([[1.0, 0.0]]), binary_pairs([1]), DummyFeatures(), batch_size)

    def test_pair_without_features_is_data_error(self):
        model = build_model(ModelSpec(filters=4, dense_width=16))
        features = {"present": FeatureSet(mfcc=np.zeros((378, 60)))}
        pairs = [PairRecord("present", "absent-sample", True, 0, "test")]
        with pytest.raises(DataError, match="absent-sample"):
            evaluate(model, pairs, features)

    def test_json_round_trips_and_sorted(self):
        pairs = binary_pairs([1, 0])
        report = evaluate(
            ScriptedModel([[0.9, 0.1], [0.3, 0.7]]), pairs, DummyFeatures()
        )
        payload = json.loads(report.to_json())
        assert payload["total"] == 2
        assert payload["confusion"] == report.confusion.tolist()
        keys = list(json.loads(report.to_json(), object_pairs_hook=dict).keys())
        assert keys == sorted(keys)


class TestReportFile:
    """EvalReport.from_json reads back what to_json wrote."""

    def write(self, tmp_path, report):
        path = tmp_path / "report.json"
        path.write_text(report.to_json() + "\n", encoding="utf-8")
        return path

    def assert_same(self, back, report):
        assert back.to_json() == report.to_json()
        assert back.class_names == report.class_names
        assert back.confusion.dtype == np.int64
        np.testing.assert_array_equal(back.confusion, report.confusion)

    def test_binary_round_trip(self, tmp_path):
        report = evaluate(
            ScriptedModel([[0.9, 0.1], [0.3, 0.7], [0.2, 0.8]]),
            binary_pairs([1, 0, 1]),
            DummyFeatures(),
        )
        assert report.normalized_rmse is None
        back = EvalReport.from_json(self.write(tmp_path, report))
        self.assert_same(back, report)
        assert back.normalized_rmse is None

    def test_score25_round_trip(self, tmp_path):
        outputs = np.zeros((3, 25))
        outputs[0, 0] = outputs[1, 9] = outputs[2, 24] = 1.0
        report = evaluate(
            ScriptedModel(outputs, head="score25"), score_pairs([0, 5, 24]), DummyFeatures()
        )
        back = EvalReport.from_json(self.write(tmp_path, report))
        self.assert_same(back, report)
        assert back.normalized_rmse == report.normalized_rmse
        assert back.confusion.shape == (25, 25)

    def test_truncated_json_is_data_error(self, tmp_path):
        report = evaluate(ScriptedModel([[0.9, 0.1]]), binary_pairs([1]), DummyFeatures())
        path = self.write(tmp_path, report)
        path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")
        with pytest.raises(DataError, match=r"report\.json: unreadable report"):
            EvalReport.from_json(path)

    @pytest.mark.parametrize("key", ["mode", "confusion", "normalized_rmse"])
    def test_missing_key_is_data_error(self, tmp_path, key):
        report = evaluate(ScriptedModel([[0.9, 0.1]]), binary_pairs([1]), DummyFeatures())
        payload = json.loads(report.to_json())
        del payload[key]
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match=rf"report\.json: unreadable report .*{key}"):
            EvalReport.from_json(path)

    @pytest.mark.parametrize(
        "confusion, why",
        [
            ([[1.5, 2.0]], "float64 of shape"),  # once truncated to [[1, 2]]
            ([[1.0, 0.0], [0.0, 0.0]], "float64 of shape"),
            ([1, 0], r"shape \(2,\)"),  # a 1-d confusion
            ([[1, 0, 0], [0, 0, 0]], r"shape \(2, 3\)"),
            ([[1]], r"shape \(1, 1\)"),
            ([[2, 0], [0, -1]], "matrix of counts"),
            ([[1, 0], [0, 1]], "counts 2 pairs, total is 1"),
            ([[1, 0], [0]], "inhomogeneous"),
        ],
    )
    def test_malformed_confusion_is_data_error(self, tmp_path, confusion, why):
        report = evaluate(ScriptedModel([[0.9, 0.1]]), binary_pairs([1]), DummyFeatures())
        payload = json.loads(report.to_json())
        payload["confusion"] = confusion
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match=rf"report\.json: unreadable report .*{why}"):
            EvalReport.from_json(path)
