"""Tests for the twin-encoder models, checkpointing, and the relapse rule."""

import gc
import hashlib

import numpy as np
import pytest

from vocalsim.autodiff import RMSProp, Tensor, rmse_loss
from vocalsim.errors import DataError
from vocalsim.models import (
    FeatureSet,
    ModelSpec,
    RelapseDecision,
    SiameseModel,
    build_model,
    detect_relapse,
    load_checkpoint,
    save_checkpoint,
)


def small_spec(variant="mfcc", head="binary"):
    return ModelSpec(variant=variant, head=head, filters=4, dense_width=16, init_seed=3)


def features(seed=0) -> FeatureSet:
    rng = np.random.default_rng(seed)
    return FeatureSet(
        mfcc=rng.normal(size=(378, 60)),
        vggish=rng.normal(size=(14, 128)),
        text=rng.normal(size=(60, 9)),
    )


class TestSpec:
    def test_head_sizes(self):
        assert ModelSpec(head="binary").head_size == 2
        assert ModelSpec(head="score25").head_size == 25

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(variant="wavenet")
        with pytest.raises(ValueError):
            ModelSpec(head="regress")
        with pytest.raises(ValueError):
            ModelSpec(dropout=1.0)
        with pytest.raises(ValueError):
            ModelSpec(filters=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("filters", 0, "filters must be positive, got 0"),
            ("kernel", 0, "kernel must be positive, got 0"),
            ("stride", -1, "stride must be positive, got -1"),
            ("dense_width", 0, "dense_width must be positive, got 0"),
            ("fusion_width", 0, "fusion_width must be positive, got 0"),
            ("dropout", 1.0, "dropout must be in \\[0, 1\\), got 1.0"),
        ],
    )
    def test_each_check_names_its_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ModelSpec(**{field: value})

    def test_default_hyperparameters(self):
        spec = ModelSpec()
        assert (spec.filters, spec.kernel, spec.stride) == (64, 3, 1)
        assert spec.dropout == pytest.approx(0.0001)
        assert spec.dense_width == 1024
        assert spec.fusion_width == 540


class TestArchitecture:
    def test_fusion_projects_to_540(self):
        model = build_model(ModelSpec(variant="fusion", filters=64, dense_width=32))
        concat_dim = 64 * 374 + 64 * 10 + 540
        assert model.fusion.weight.data.shape == (540, concat_dim)

    def test_branch_flat_dims(self):
        model = build_model(small_spec("fusion"))
        assert model.mfcc_branch.flat_dim == 4 * 374
        assert model.vggish_branch.flat_dim == 4 * 10

    def test_binary_head_range_and_shape(self):
        model = build_model(small_spec())
        fs = [features(1), features(2)]
        out = model.forward(model.stack_inputs(fs), model.stack_inputs([features(3), features(4)]))
        assert out.data.shape == (2, 2)
        assert np.all((out.data > 0.0) & (out.data < 1.0))

    def test_score_head_shape(self):
        model = build_model(small_spec(head="score25"))
        out = model.forward(
            model.stack_inputs([features(1)]), model.stack_inputs([features(2)])
        )
        assert out.data.shape == (1, 25)

    def test_twins_share_parameters(self):
        model = build_model(small_spec())
        left = model.stack_inputs([features(5)])
        right = model.stack_inputs([features(6)])
        opt = RMSProp(model.params(), lr=1e-2)
        opt.zero_grad()
        loss = rmse_loss(model.forward(left, right, training=False), np.array([[1.0, 0.0]]))
        loss.backward()
        opt.step()
        # same layer objects serve both twins, so identical inputs still
        # encode identically after the update
        e1 = model.encode_sets([features(7)])
        e2 = model.encode_sets([features(7)])
        np.testing.assert_array_equal(e1, e2)

    @pytest.mark.parametrize("variant", ["mfcc", "fusion"])
    def test_training_graph_is_freed_without_the_cycle_collector(self, variant):
        model = build_model(small_spec(variant))
        left = model.stack_inputs([features(1), features(2)])
        right = model.stack_inputs([features(3), features(4)])
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)  # what the collector frees lands in gc.garbage
        try:
            out = model.forward(left, right, training=True, rng=np.random.default_rng(0))
            loss = rmse_loss(out, np.array([[1.0, 0.0], [0.0, 1.0]]))
            loss.backward()
            del out, loss
            gc.collect()
            leaked = [obj for obj in gc.garbage if isinstance(obj, Tensor)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []
        assert np.any(model.dense1.weight.grad != 0.0)

    def test_identical_inputs_have_zero_encoding_distance(self):
        model = build_model(small_spec())
        fs = features(8)
        enc = model.encode_sets([fs, fs])
        assert float(np.linalg.norm(enc[0] - enc[1])) == 0.0

    def test_similarity_symmetric_and_bounded(self):
        model = build_model(small_spec())
        a, b = features(9), features(10)
        s_ab = model.predict_similarity(a, b)
        s_ba = model.predict_similarity(b, a)
        assert s_ab == s_ba
        assert 0.0 < s_ab < 1.0

    def test_similarity_requires_binary_head(self):
        model = build_model(small_spec(head="score25"))
        with pytest.raises(ValueError, match="binary"):
            model.predict_similarity(features(1), features(2))

    def test_missing_feature_field_rejected(self):
        model = build_model(small_spec())
        with pytest.raises(DataError, match="mfcc"):
            model.stack_inputs([FeatureSet(vggish=np.zeros((14, 128)))])

    def test_wrong_feature_shape_rejected(self):
        model = build_model(small_spec())
        with pytest.raises(DataError, match="mfcc"):
            model.stack_inputs([FeatureSet(mfcc=np.zeros((60, 378)))])

    def test_vggish_variant_uses_only_vggish(self):
        model = build_model(small_spec("vggish"))
        out = model.forward(
            model.stack_inputs([FeatureSet(vggish=np.zeros((14, 128)))]),
            model.stack_inputs([FeatureSet(vggish=np.ones((14, 128)))]),
        )
        assert out.data.shape == (1, 2)

    def test_dropout_only_active_in_training(self):
        spec = ModelSpec(variant="mfcc", filters=4, dense_width=16, dropout=0.5)
        model = build_model(spec)
        inputs = model.stack_inputs([features(11)])
        a = model.encode(inputs, training=False).data
        b = model.encode(inputs, training=False).data
        np.testing.assert_array_equal(a, b)
        c = model.encode(inputs, training=True, rng=np.random.default_rng(0)).data
        d = model.encode(inputs, training=True, rng=np.random.default_rng(1)).data
        assert not np.array_equal(c, d)


class TestCheckpoint:
    def test_roundtrip_preserves_behavior(self, tmp_path):
        model = build_model(small_spec())
        opt = RMSProp(model.params(), lr=1e-3)
        opt.zero_grad()
        loss = rmse_loss(
            model.forward(
                model.stack_inputs([features(1)]), model.stack_inputs([features(2)])
            ),
            np.array([[1.0, 0.0]]),
        )
        loss.backward()
        opt.step()
        path = tmp_path / "model.oswt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.spec == model.spec
        for p, q in zip(model.params(), loaded.params()):
            np.testing.assert_array_equal(q.data, p.data.astype(np.float32).astype(np.float64))
        a = loaded.predict_similarity(features(3), features(4))
        b = loaded.predict_similarity(features(3), features(4))
        assert a == b

    def test_format_is_pinned(self, tmp_path):
        # every ModelSpec field stored, in this order, with these bytes; a
        # checkpoint written before the spec tensors came from the dataclass
        # fields had this sha256
        from vocalsim.container import read_container

        spec = ModelSpec(
            variant="fusion",
            head="score25",
            filters=2,
            kernel=3,
            stride=2,
            dropout=0.25,
            dense_width=4,
            fusion_width=3,
            init_seed=5,
        )
        path = tmp_path / "model.oswt"
        save_checkpoint(path, build_model(spec))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "fe1e46af4fb4278df870090a3c928fc680c3c09c93e28315e609e576542681a8"
        _, named = read_container(path)
        params = [f"param/{i}" for i in (0, 1, *range(10, 16), *range(2, 10))]
        spec_fields = ["dense_width", "dropout", "filters", "fusion_width", "head"]
        spec_fields += ["init_seed", "kernel", "stride", "variant"]
        assert list(named) == params + [f"spec/{name}" for name in spec_fields]
        assert load_checkpoint(path).spec == spec

    def test_missing_param_tensor_rejected(self, tmp_path):
        from vocalsim.container import read_container, write_container

        model = build_model(small_spec())
        path = tmp_path / "model.oswt"
        save_checkpoint(path, model)
        _, named = read_container(path)
        del named["param/0"]
        write_container(path, [], named)
        with pytest.raises(DataError, match="param/0"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("filters", np.inf, "filters must be an integer"),
            ("filters", np.nan, "filters must be an integer"),
            ("filters", 2.5, "filters must be an integer"),
            ("init_seed", -np.inf, "init_seed must be an integer"),
            ("variant", -1, "variant must index one of"),
            ("variant", 3, "variant must index one of"),
            ("head", 0.5, "head must be an integer"),
            ("head", 2, "head must index one of"),
        ],
    )
    def test_bad_spec_scalar_rejected(self, tmp_path, name, value, message):
        from vocalsim.container import read_container, write_container
        from vocalsim.models import _pack_scalar

        path = tmp_path / "model.oswt"
        save_checkpoint(path, build_model(small_spec()))
        _, named = read_container(path)
        named[f"spec/{name}"] = _pack_scalar(value)
        write_container(path, [], named)
        with pytest.raises(DataError, match=f"model.oswt: checkpoint spec {message}"):
            load_checkpoint(path)

    def test_non_checkpoint_rejected(self, tmp_path):
        from vocalsim.container import write_container

        path = tmp_path / "odd.oswt"
        write_container(path, [], {"something": np.zeros(3)})
        with pytest.raises(DataError, match="spec"):
            load_checkpoint(path)


class _ScriptedModel:
    """Stands in for SiameseModel.similarities: the scripted scores, cycled,
    in row-major (segment, reference) order."""

    def __init__(self, scores):
        self.scores = list(scores)

    def similarities(self, left_sets, right_sets):
        n, m = len(left_sets), len(right_sets)
        cycled = [self.scores[k % len(self.scores)] for k in range(n * m)]
        return np.array(cycled).reshape(n, m)


class TestRelapse:
    def test_mean_above_threshold_flags_relapse(self):
        model = _ScriptedModel([0.4, 0.8])
        decision = detect_relapse(model, [features(1), features(2)], [features(3)])
        assert decision == RelapseDecision(True, pytest.approx(0.6), 2)

    def test_all_zero_scores_no_relapse(self):
        model = _ScriptedModel([0.0])
        decision = detect_relapse(model, [features(1)], [features(2), features(3)])
        assert not decision.relapse
        assert decision.mean_similarity == 0.0
        assert decision.num_pairs == 2

    def test_all_one_scores_relapse(self):
        model = _ScriptedModel([1.0])
        decision = detect_relapse(model, [features(1)], [features(2)])
        assert decision.relapse and decision.mean_similarity == 1.0

    def test_threshold_boundary_inclusive(self):
        model = _ScriptedModel([0.5])
        assert detect_relapse(model, [features(1)], [features(2)]).relapse

    def test_empty_inputs_rejected(self):
        model = _ScriptedModel([0.5])
        with pytest.raises(ValueError):
            detect_relapse(model, [], [features(1)])
        with pytest.raises(ValueError):
            detect_relapse(model, [features(1)], [])

    @pytest.mark.parametrize("variant", ["mfcc", "vggish", "fusion"])
    def test_encode_once_matches_pairwise_scores(self, variant):
        model = build_model(small_spec(variant))
        subject = [features(20 + i) for i in range(3)]
        references = [features(30 + j) for j in range(4)]
        pairwise = [model.predict_similarity(s, r) for s in subject for r in references]
        decision = detect_relapse(model, subject, references)
        assert decision.num_pairs == 12
        assert decision.mean_similarity == pytest.approx(np.mean(pairwise), abs=1e-12)
        np.testing.assert_allclose(
            model.similarities(subject, references),
            np.reshape(pairwise, (3, 4)),
            rtol=0,
            atol=1e-12,
        )

    def test_each_set_encoded_once_in_bounded_batches(self, monkeypatch):
        from vocalsim import models

        # 3 + 6 sets at 4 rows per encode call: ceil(9 / 4) calls, 9 rows
        model = build_model(small_spec())
        rows = []
        encode = SiameseModel.encode

        def counting_encode(self, inputs, *args, **kwargs):
            out = encode(self, inputs, *args, **kwargs)
            rows.append(out.data.shape[0])
            return out

        monkeypatch.setattr(SiameseModel, "encode", counting_encode)
        monkeypatch.setattr(models, "ENCODE_BATCH", 4)
        subject = [features(i) for i in range(3)]
        references = [features(i) for i in range(3, 9)]
        scores = model.similarities(subject, references)
        assert scores.shape == (3, 6)
        assert rows == [4, 4, 1]
