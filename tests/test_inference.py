"""Tests for the one inference path: each distinct sample of a split is
encoded once through SiameseModel.encode_sets, in chunks of 2 to
ENCODE_BATCH rows, and the pairs are scored by index."""

import numpy as np
import pytest

from vocalsim import models
from vocalsim.autodiff import Constant, gather, rmse_loss
from vocalsim.errors import DataError
from vocalsim.metrics import evaluate
from vocalsim.models import ENCODE_BATCH, FeatureSet, ModelSpec, SiameseModel, build_model
from vocalsim.pairs import PairRecord
from vocalsim.training import _target_matrix, evaluate_loss


def feature_bank(n, seed=0):
    rng = np.random.default_rng(seed)
    return {
        f"s{i}": FeatureSet(
            mfcc=rng.normal(size=(378, 60)),
            vggish=rng.normal(size=(14, 128)),
            text=rng.normal(size=(60, 9)),
        )
        for i in range(n)
    }


def split_over(n, count, seed=1, head="binary"):
    """count random pairs over samples s0..s{n-1}, then one pair per sample
    so that every sample appears; no pair has the same sample twice."""
    rng = np.random.default_rng(seed)
    ids = []
    while len(ids) < count:
        a, b = rng.integers(0, n, 2)
        if a != b:
            ids.append((a, b))
    ids += [(i, (i + 1) % n) for i in range(n)]
    scores = rng.integers(0, 25 if head == "score25" else 1, len(ids))
    return [
        PairRecord(f"s{a}", f"s{b}", bool(k % 2), int(s), "test")
        for k, ((a, b), s) in enumerate(zip(ids, scores))
    ]


def per_batch_scores(model, pairs, features, batch_size):
    """The reference: the pairs cut into batches, each batch stacking and
    encoding its own distinct samples (first-seen order, left ids then right
    ids) with dropout off, as evaluation did before it encoded a split once."""
    out = []
    for start in range(0, len(pairs), batch_size):
        batch = pairs[start : start + batch_size]
        rows: dict = {}
        index = [rows.setdefault(p.left_id, len(rows)) for p in batch]
        index += [rows.setdefault(p.right_id, len(rows)) for p in batch]
        inputs = model.stack_inputs([features[sample_id] for sample_id in rows])
        enc = model.encode(inputs, index=index)
        left = np.arange(len(batch))
        out.append(model.score(gather(enc, left), gather(enc, left + len(batch))).data)
    return np.concatenate(out)


def per_batch_loss(model, pairs, scores, batch_size):
    targets = _target_matrix(pairs, model.spec.head_size)
    total = 0.0
    for start in range(0, len(pairs), batch_size):
        rows = slice(start, start + batch_size)
        total += float(rmse_loss(Constant(scores[rows]), targets[rows]).data) * len(pairs[rows])
    return total / len(pairs)


class _Fixed:
    """A model whose pair_scores are given: evaluate's report of them."""

    def __init__(self, spec, scores):
        self.spec, self.scores = spec, scores

    def pair_scores(self, pairs, features):
        return self.scores


@pytest.fixture
def stacked(monkeypatch):
    """The feature sets of each stack_inputs call, and the rows of each
    encode call, as the model makes them."""
    calls = {"sets": [], "rows": []}
    stack, encode = SiameseModel.stack_inputs, SiameseModel.encode

    def counting_stack(self, feature_sets):
        calls["sets"].append(list(feature_sets))
        return stack(self, feature_sets)

    def counting_encode(self, inputs, *args, **kwargs):
        out = encode(self, inputs, *args, **kwargs)
        calls["rows"].append(out.data.shape[0])
        return out

    monkeypatch.setattr(SiameseModel, "stack_inputs", counting_stack)
    monkeypatch.setattr(SiameseModel, "encode", counting_encode)
    return calls


def small_model(head="binary"):
    return build_model(ModelSpec(head=head, filters=4, dense_width=16, init_seed=3))


class TestEncodeOnce:
    @pytest.mark.parametrize("head", ["binary", "score25"])
    def test_each_distinct_sample_is_encoded_once(self, stacked, monkeypatch, head):
        # 130 pairs over 30 samples: scored batch by batch, at 100 or at 7
        # pairs, some samples would be stacked more than once
        monkeypatch.setattr(models, "ENCODE_BATCH", 8)
        features = feature_bank(30)
        pairs = split_over(30, 100, head=head)
        model = small_model(head)
        first_seen = list(dict.fromkeys([p.left_id for p in pairs] + [p.right_id for p in pairs]))
        want = [id(features[sample_id]) for sample_id in first_seen]
        for run in (lambda: evaluate(model, pairs, features),
                    lambda: evaluate_loss(model, pairs, features, 100),
                    lambda: evaluate_loss(model, pairs, features, 7)):
            stacked["sets"].clear()
            run()
            assert [id(fs) for sets in stacked["sets"] for fs in sets] == want

    @pytest.mark.parametrize("count", [1, 2, 5, 8, 9, 17])
    def test_chunks_hold_two_to_encode_batch_rows(self, stacked, monkeypatch, count):
        monkeypatch.setattr(models, "ENCODE_BATCH", 4)
        model = small_model()
        sets = list(feature_bank(count).values())
        encodings = model.encode_sets(sets)
        assert encodings.shape == (count, 16)
        assert sum(stacked["rows"]) == count + (count % 4 == 1)
        assert all(2 <= rows <= 4 for rows in stacked["rows"])

    def test_evaluate_and_loss_take_the_pairs_in_one_pass(self, stacked, monkeypatch):
        monkeypatch.setattr(models, "ENCODE_BATCH", 4)
        features = feature_bank(9)
        pairs = split_over(9, 20)
        model = small_model()
        evaluate(model, pairs, features)
        evaluate_loss(model, pairs, features, 3)
        assert stacked["rows"] == [4, 4, 2] * 2

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_pair_without_features_is_data_error(self, side):
        features = feature_bank(3)
        ids = ("absent-sample", "s0") if side == "left" else ("s0", "absent-sample")
        pairs = [PairRecord("s1", "s2", True, 0, "test"), PairRecord(*ids, False, 5, "test")]
        model = small_model()
        with pytest.raises(DataError, match="no features for sample absent-sample"):
            evaluate(model, pairs, features)
        with pytest.raises(DataError, match="no features for sample absent-sample"):
            evaluate_loss(model, pairs, features, 1)


@pytest.fixture(scope="module")
def paper_model():
    """A paper-size MFCC model: 64 filters, kernel 3, dense 1024."""
    return build_model(ModelSpec(variant="mfcc", init_seed=5))


class TestPaperSizeBits:
    """At paper size a sample's encoding does not depend on the other rows of
    a chunk of 2 or more, so the one path gives every bit of scoring batch
    by batch. A 1-row chunk would move bits by up to about 1e-6, through
    dense1's float32 product."""

    @pytest.mark.parametrize("count", [101, 150])  # 101: a 1-row last chunk
    def test_encodings_equal_one_encode_call(self, paper_model, count):
        sets = list(feature_bank(count, seed=count).values())
        want = paper_model.encode(paper_model.stack_inputs(sets)).data
        np.testing.assert_array_equal(paper_model.encode_sets(sets), want)

    @pytest.mark.parametrize(
        "distinct, count, batch_size",
        # 101 samples in a ring of 101 pairs: a 1-row last chunk
        [(50, 70, 100), (50, 70, 37), (101, 0, 100)],
    )
    def test_reports_and_losses_equal_per_batch_scoring(
        self, paper_model, distinct, count, batch_size
    ):
        features = feature_bank(distinct, seed=distinct)
        pairs = split_over(distinct, count)
        want = per_batch_scores(paper_model, pairs, features, batch_size)
        report = evaluate(paper_model, pairs, features)
        assert report.to_json() == evaluate(_Fixed(paper_model.spec, want), pairs, {}).to_json()
        loss = evaluate_loss(paper_model, pairs, features, batch_size)
        assert loss == per_batch_loss(paper_model, pairs, want, batch_size)

    def test_similarities_of_101_sets_equal_one_encode_call(self, paper_model):
        # N + M = 101: the last set is a chunk of its own, padded
        assert ENCODE_BATCH == 100
        sets = list(feature_bank(101, seed=4).values())
        n, m = 3, 98
        scores = paper_model.similarities(sets[:n], sets[n:])
        encodings = paper_model.encode(paper_model.stack_inputs(sets)).data
        left = np.repeat(np.arange(n), m)
        right = n + np.tile(np.arange(m), n)
        want = paper_model.score(Constant(encodings[left]), Constant(encodings[right]))
        np.testing.assert_array_equal(scores, want.data[:, 0].reshape(n, m))
