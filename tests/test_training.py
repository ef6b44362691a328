"""Tests for the training loop: early stopping, best-weights restore,
failure guards, and learnability on a separable toy problem."""

import gc

import numpy as np
import pytest

from vocalsim import autodiff
from vocalsim.autodiff import rmse_loss
from vocalsim.errors import DataError, NumericError
from vocalsim.models import FeatureSet, ModelSpec, build_model
from vocalsim.pairs import PairRecord
from vocalsim.training import EarlyStopper, TrainConfig, TrainResult, evaluate_loss, train


def tiny_model(head="binary", seed=3):
    return build_model(
        ModelSpec(variant="mfcc", head=head, filters=4, dense_width=16, init_seed=seed)
    )


def toy_problem(n_per_class=12, noise=0.3, seed=0):
    """Two feature clusters; same-cluster pairs are similar."""
    rng = np.random.default_rng(seed)
    features = {}
    ids = {0: [], 1: []}
    base = {0: rng.normal(size=(378, 60)), 1: rng.normal(size=(378, 60))}
    for cls in (0, 1):
        for i in range(n_per_class):
            sample_id = f"s{cls}-{i}"
            features[sample_id] = FeatureSet(
                mfcc=base[cls] + noise * rng.normal(size=(378, 60))
            )
            ids[cls].append(sample_id)

    def pair(a, b, split):
        similar = a[1] == b[1]
        return PairRecord(a[0], b[0], similar, 0 if similar else 12, split)

    tagged = [(sid, cls) for cls in (0, 1) for sid in ids[cls]]
    pairs = []
    for i, a in enumerate(tagged):
        for b in tagged[i + 1 :]:
            pairs.append(pair(a, b, "train"))
    rng.shuffle(pairs)
    same = [p for p in pairs if p.similar]
    diff = [p for p in pairs if not p.similar]
    k = min(len(same), len(diff))
    balanced = [p for ab in zip(same[:k], diff[:k]) for p in ab]
    return features, balanced


def pair_accuracy(model, pairs, features):
    hits = 0
    for p in pairs:
        score = model.predict_similarity(features[p.left_id], features[p.right_id])
        hits += (score >= 0.5) == p.similar
    return hits / len(pairs)


class TestEarlyStopper:
    def test_constant_values_stop_after_patience(self):
        stopper = EarlyStopper(10)
        outcomes = [stopper.update(0.5) for _ in range(11)]
        assert outcomes == [False] * 10 + [True]
        assert stopper.best_index == 0

    def test_strict_decrease_never_stops(self):
        stopper = EarlyStopper(10)
        assert not any(stopper.update(1.0 - 0.01 * i) for i in range(50))
        assert stopper.best_index == 49

    def test_plateau_after_improvement(self):
        stopper = EarlyStopper(3)
        values = [1.0, 0.8, 0.9, 0.9, 0.9]
        outcomes = [stopper.update(v) for v in values]
        assert outcomes == [False, False, False, False, True]
        assert stopper.best_index == 1

    def test_equal_value_is_not_improvement(self):
        stopper = EarlyStopper(2)
        assert [stopper.update(v) for v in [0.5, 0.5, 0.5]] == [False, False, True]


class TestTrainLoop:
    def test_batch_graph_is_freed_before_the_step(self, monkeypatch):
        """RMSProp.step allocates its scratch with the batch's graph and its
        saved arrays already freed: when it runs, no Tensor but the
        parameters is alive, in the first epoch or after a validation."""
        features, pairs = toy_problem(n_per_class=3)
        model = tiny_model()
        params = {id(p) for p in model.params()}
        alive = []
        step = autodiff.RMSProp.step

        def counting_step(self):
            tensors = [o for o in gc.get_objects() if isinstance(o, autodiff.Tensor)]
            alive.append(sum(id(t) not in params for t in tensors))
            step(self)

        gc.collect()
        monkeypatch.setattr(autodiff.RMSProp, "step", counting_step)
        train(model, pairs[:8], pairs[8:12], features, TrainConfig(batch_size=4, epochs=2))
        assert alive == [0, 0, 0, 0]

    def test_negligible_lr_stops_after_patience_epochs(self):
        features, pairs = toy_problem(n_per_class=3)
        model = tiny_model()
        # updates below float64 resolution leave the weights bit-identical,
        # so the validation loss never strictly improves after epoch 0
        config = TrainConfig(batch_size=4, epochs=300, lr=1e-30, patience=10)
        result = train(model, pairs[:8], pairs[8:12], features, config)
        assert result.stopped_early
        assert len(result.val_losses) == 11
        assert len(result.train_losses) == 11
        assert result.best_epoch == 0

    def test_epoch_cap_respected(self):
        features, pairs = toy_problem(n_per_class=3)
        model = tiny_model()
        config = TrainConfig(batch_size=4, epochs=3, lr=1e-4, patience=10)
        result = train(model, pairs[:8], pairs[8:12], features, config)
        assert not result.stopped_early
        assert len(result.train_losses) == 3
        assert len(result.val_losses) == 3

    def test_best_weights_restored(self):
        features, pairs = toy_problem(n_per_class=4)
        model = tiny_model()
        config = TrainConfig(batch_size=4, epochs=12, lr=3e-3, patience=12)
        result = train(model, pairs[:12], pairs[12:18], features, config)
        restored = evaluate_loss(model, pairs[12:18], features, config.batch_size)
        assert restored == min(result.val_losses)
        assert result.val_losses[result.best_epoch] == restored

    @pytest.mark.parametrize("epochs", [3, 4])
    def test_best_weights_restored_bit_exactly(self, epochs):
        # lr 4e-3 and seed 5 give val losses 0.6074, 0.6059, 0.6063, 0.6010:
        # the best epoch of 3 is epoch 1 (a copy is restored), of 4 the last
        # (the weights in place are kept, after an earlier copy was made)
        features, pairs = toy_problem(n_per_class=4)

        def fit(n):
            model = tiny_model()
            config = TrainConfig(batch_size=4, epochs=n, lr=4e-3, patience=n)
            result = train(
                model, pairs[:12], pairs[12:18], features, config, np.random.default_rng(5)
            )
            return model, result

        model, result = fit(epochs)
        assert result.best_epoch == {3: 1, 4: 3}[epochs]
        reference, ref_result = fit(result.best_epoch + 1)
        assert ref_result.best_epoch == result.best_epoch
        for got, want in zip(model.params(), reference.params()):
            np.testing.assert_array_equal(got.data, want.data)
        restored = evaluate_loss(model, pairs[12:18], features, 4)
        assert restored == result.val_losses[result.best_epoch]

    def test_same_seed_same_history(self):
        features, pairs = toy_problem(n_per_class=3)
        config = TrainConfig(batch_size=4, epochs=3, lr=1e-4, patience=10)
        histories = []
        for _ in range(2):
            model = tiny_model(seed=5)
            result = train(
                model, pairs[:8], pairs[8:12], features, config, np.random.default_rng(11)
            )
            histories.append((result.train_losses, result.val_losses))
        assert histories[0] == histories[1]

    def test_nan_parameter_raises_numeric_error(self):
        features, pairs = toy_problem(n_per_class=3)
        model = tiny_model()
        model.params()[0].data[0] = np.nan
        with pytest.raises(NumericError, match="epoch 0"):
            train(model, pairs[:8], pairs[8:12], features, TrainConfig(batch_size=4))

    def test_missing_features_raise_data_error(self):
        features, pairs = toy_problem(n_per_class=3)
        del features[pairs[0].left_id]
        with pytest.raises(DataError, match=pairs[0].left_id):
            train(tiny_model(), pairs[:8], pairs[8:12], features, TrainConfig(batch_size=4))

    def test_empty_pairs_rejected(self):
        features, pairs = toy_problem(n_per_class=3)
        with pytest.raises(ValueError):
            train(tiny_model(), [], pairs[:4], features)
        with pytest.raises(ValueError):
            train(tiny_model(), pairs[:4], [], features)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_evaluate_loss_batch_size_below_one_rejected(self, batch_size):
        features, pairs = toy_problem(n_per_class=3)
        with pytest.raises(ValueError, match="batch_size"):
            evaluate_loss(tiny_model(), pairs[:4], features, batch_size)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("batch_size", 0, "batch_size must be positive, got 0"),
            ("epochs", -1, "epochs must be positive, got -1"),
            ("lr", 0.0, "lr must be positive, got 0.0"),
            ("patience", 0, "patience must be positive, got 0"),
            ("decay", -1e-6, "decay must be >= 0, got -1e-06"),
        ],
    )
    def test_each_check_names_its_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    def test_score25_targets_use_label_score(self):
        features, pairs = toy_problem(n_per_class=3)
        model = tiny_model(head="score25")
        config = TrainConfig(batch_size=4, epochs=2, lr=1e-4, patience=10)
        result = train(model, pairs[:8], pairs[8:12], features, config)
        assert len(result.train_losses) == 2

    def test_separable_problem_learned(self):
        features, pairs = toy_problem(n_per_class=10, noise=0.2, seed=4)
        train_pairs, val_pairs = pairs[:60], pairs[60:80]
        model = tiny_model(seed=9)
        config = TrainConfig(batch_size=16, epochs=40, lr=2e-3, patience=40)
        result = train(
            model, train_pairs, val_pairs, features, config, np.random.default_rng(2)
        )
        assert result.train_losses[-1] < result.train_losses[0]
        assert pair_accuracy(model, train_pairs, features) > 0.9


def feature_bank(n, seed=0):
    rng = np.random.default_rng(seed)
    return {
        f"x{i}": FeatureSet(
            mfcc=rng.normal(size=(378, 60)),
            vggish=rng.normal(size=(14, 128)),
            text=rng.normal(size=(60, 9)),
        )
        for i in range(n)
    }


def id_pairs(left_ids, right_ids):
    return [
        PairRecord(a, b, i % 2 == 0, 0, "train")
        for i, (a, b) in enumerate(zip(left_ids, right_ids))
    ]


class TestDedupedBatch:
    """A training batch encodes each distinct sample once; its loss and
    every parameter grad must match encoding each pair row on its own."""

    REPEATED = (["x0", "x1", "x0", "x2", "x1", "x0"], ["x1", "x2", "x2", "x0", "x1", "x3"])
    DISTINCT = (["x0", "x1", "x2"], ["x3", "x4", "x5"])

    @staticmethod
    def model(variant, dropout):
        return build_model(
            ModelSpec(
                variant=variant, filters=4, dense_width=16, fusion_width=8,
                dropout=dropout, init_seed=3,
            )
        )

    @staticmethod
    def targets(pairs):
        return np.array([[1.0, 0.0] if p.similar else [0.0, 1.0] for p in pairs])

    def deduped(self, model, pairs, features, seed):
        out = model.score_pairs(pairs, features, rng=np.random.default_rng(seed))
        return rmse_loss(out, self.targets(pairs))

    def two_twin(self, model, pairs, features, seed):
        """The pairwise reference: left and right encoded as two batches of
        B rows, every pair row stacked from its own feature set."""
        rng = np.random.default_rng(seed)
        left = model.stack_inputs([features[p.left_id] for p in pairs])
        right = model.stack_inputs([features[p.right_id] for p in pairs])
        out = model.score(model.encode(left, True, rng), model.encode(right, True, rng))
        return rmse_loss(out, self.targets(pairs))

    def one_batch(self, model, pairs, features, seed):
        """Every pair row stacked on its own, as one batch of 2B rows: the
        reference whose dropout masks come in the deduped batch's order for
        every variant."""
        sets = [features[p.left_id] for p in pairs] + [features[p.right_id] for p in pairs]
        enc = model.encode(model.stack_inputs(sets), True, np.random.default_rng(seed))
        rows = np.arange(len(pairs))
        out = model.score(autodiff.gather(enc, rows), autodiff.gather(enc, rows + len(pairs)))
        return rmse_loss(out, self.targets(pairs))

    def grads(self, model, loss_fn, pairs, features, seed=5):
        for p in model.params():
            p.grad = None
        loss = loss_fn(model, pairs, features, seed)
        loss.backward()
        return float(loss.data), [p.grad.copy() for p in model.params()]

    @pytest.mark.parametrize("ids", ["REPEATED", "DISTINCT"])
    @pytest.mark.parametrize(
        "variant, dropout, reference",
        [
            ("fusion", 0.0, "two_twin"),
            # a mask drawn by its hits over 2B rows is not two B-row masks
            # side by side, so with dropout on only one batch of 2B rows
            # draws the deduped batch's mask
            ("mfcc", 0.5, "one_batch"),
            ("fusion", 0.5, "one_batch"),
        ],
    )
    def test_matches_pairwise_reference(self, variant, dropout, reference, ids):
        features = feature_bank(6)
        pairs = id_pairs(*getattr(self, ids))
        model = self.model(variant, dropout)
        got_loss, got = self.grads(model, self.deduped, pairs, features)
        want_loss, want = self.grads(model, getattr(self, reference), pairs, features)
        assert got_loss == pytest.approx(want_loss, rel=1e-12)
        for g, w in zip(got, want):
            assert np.any(w != 0.0)
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    def test_conv_runs_over_distinct_samples(self, monkeypatch):
        rows = []
        conv1d = autodiff.conv1d

        def recording(x, *args, **kwargs):
            rows.append(x.data.shape[0])
            return conv1d(x, *args, **kwargs)

        monkeypatch.setattr(autodiff, "conv1d", recording)
        features = feature_bank(10)
        ids = [f"x{i}" for i in range(10)]
        pairs = id_pairs([a for a in ids for _ in ids], [b for _ in ids for b in ids])
        assert len(pairs) == 100
        config = TrainConfig(batch_size=100, epochs=1, patience=1)
        train(self.model("mfcc", 0.0001), pairs, pairs[:20], features, config)
        # conv1 and conv2 of the training step, then of validation; 20 pairs
        # of samples 0 and 1 against samples 0-9 also hold 10 distinct ones
        assert rows == [10, 10, 10, 10]

    def test_dense_runs_over_distinct_samples(self, monkeypatch):
        model = self.model("mfcc", 0.0001)
        names = {id(model.dense1.weight): "dense1", id(model.dense2.weight): "dense2"}
        dense_rows, gathered, products = [], [], []

        class Traced(np.ndarray):
            """An array that logs the operand shapes of every matrix product
            it takes part in and passes the trace on to the arrays computed
            from it."""

            def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
                plain = [np.asarray(a) for a in inputs]
                if out is not None:
                    kwargs["out"] = tuple(np.asarray(o) for o in out)
                result = getattr(ufunc, method)(*plain, **kwargs)
                if ufunc is np.matmul:
                    products.append(tuple(a.shape for a in plain))
                if out is not None:
                    return out[0]
                return result.view(Traced)

        def traced(node):
            """An identity node over node whose data is Traced."""
            copy = autodiff.Tensor(node.data, parents=(node,), backward=node._accumulate)
            copy.data = node.data.view(Traced)
            return copy

        dense, gather_dense = autodiff.dense, autodiff.gather_dense

        def recording_dense(x, weight, bias):
            if id(weight) in names:
                dense_rows.append((names[id(weight)], x.data.shape[0]))
            return dense(x, weight, bias)

        def recording_gather_dense(x, index, weight, bias, *args):
            assert weight is model.dense1.weight
            gathered.append((x.data.shape[0], len(index)))
            return gather_dense(traced(x), index, traced(weight), bias, *args)

        monkeypatch.setattr(autodiff, "dense", recording_dense)
        monkeypatch.setattr(autodiff, "gather_dense", recording_gather_dense)
        features = feature_bank(10)
        ids = [f"x{i}" for i in range(10)]
        pairs = id_pairs([a for a in ids for _ in ids], [b for _ in ids for b in ids])
        config = TrainConfig(batch_size=100, epochs=1, patience=1)
        train(model, pairs, pairs[:20], features, config)
        # training: dense1 reads the 10 samples' rows and writes 200 pair
        # rows, one per side of each pair, which dense2 then reads
        assert gathered == [(10, 200)]
        w = model.dense1.weight.data.shape
        forward_rows = [a[0] for a, b in products if b == w[::-1]]
        weight_grad_rows = [a[1] for a, b in products if (a[0], b[1]) == w]
        input_grad_rows = [a[0] for a, b in products if b == w]
        # no product over the whole weight reads the 200 pair rows: only the
        # dropped entries' correction does, over the weight's touched columns
        assert forward_rows == [10]
        assert weight_grad_rows == [10] and input_grad_rows == [10]
        # validation: both dense layers run over the 10 distinct samples
        assert dense_rows == [("dense2", 200), ("dense1", 10), ("dense2", 10)]
