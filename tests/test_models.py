"""Tests for the twin-encoder models, checkpointing, and the relapse rule."""

import gc
import hashlib

import numpy as np
import pytest

from vocalsim.autodiff import RMSProp, Tensor, rmse_loss
from vocalsim.container import read_container
from vocalsim.errors import DataError, NumericError
from vocalsim.metrics import evaluate
from vocalsim.models import (
    ENCODE_BATCH,
    FeatureSet,
    ModelSpec,
    RelapseDecision,
    SiameseModel,
    build_model,
    detect_relapse,
    load_checkpoint,
    save_checkpoint,
)
from vocalsim.pairs import PairRecord
from vocalsim.training import evaluate_loss


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

    def test_inputs_are_channels_last_views(self):
        """A conv branch input is the (B, C, L) view of the (B, L, C) stack
        of the matrices as they are, the layout conv1d reads fastest; text
        is each matrix flattened."""
        model = build_model(small_spec("fusion"))
        sets = [features(1), features(2)]
        inputs = model.stack_inputs(sets)
        for name in ("mfcc", "vggish"):
            data = inputs[name].data
            np.testing.assert_array_equal(data, np.stack([getattr(fs, name).T for fs in sets]))
            assert data.transpose(0, 2, 1).flags.c_contiguous
        np.testing.assert_array_equal(inputs["text"].data, np.stack([fs.text.ravel() for fs in sets]))

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

    def test_dropout_mask_is_the_nonzero_indices(self):
        """The mask of a two-branch fusion model: each branch's entries are
        the np.nonzero indices of a boolean mask over its rows x flat_dim
        entries (so distinct, in range and in row-major order), branch by
        branch, offset by the branches before it; branch columns are scaled
        and the text columns are not."""
        spec = ModelSpec(variant="fusion", filters=4, dense_width=16, dropout=0.05)
        model = build_model(spec)
        widths = [branch.flat_dim for _, branch in model._branches()]
        assert len(widths) == 2
        width = model.fusion.weight.data.shape[1]  # the branches and the text columns
        (rows, cols), scale = model._dropout_mask(7, width, np.random.default_rng(9))
        assert rows.dtype == np.intp and cols.dtype == np.intp
        want_rows, want_cols, offset = [], [], 0
        for w in widths:
            mine = (cols >= offset) & (cols < offset + w)
            assert mine.any()  # both branches drop entries
            mask = np.zeros((7, w), dtype=bool)
            mask[rows[mine], cols[mine] - offset] = True
            r, c = np.nonzero(mask)
            want_rows.append(r)
            want_cols.append(c + offset)
            offset += w
        np.testing.assert_array_equal(rows, np.concatenate(want_rows))
        np.testing.assert_array_equal(cols, np.concatenate(want_cols))
        assert rows.min() >= 0
        np.testing.assert_array_equal(scale[:offset], 1.0 / 0.95)
        np.testing.assert_array_equal(scale[offset:], 1.0)

    @pytest.mark.parametrize("rate", [0.01, 0.5])
    def test_dropout_mask_law(self, rate):
        """Each entry is dropped with probability rate, independently: over
        200 fixed-seed draws of 10 rows, the total hit count is within 5
        sigma of its Binomial mean, and the counts per row and per column
        pass a chi-square test of evenness within 5 sigma of its mean."""
        model = build_model(ModelSpec(variant="mfcc", filters=4, dense_width=16, dropout=rate))
        n_rows, flat = 10, model.mfcc_branch.flat_dim
        draws = 200
        rng = np.random.default_rng(12)
        per_row, per_col = np.zeros(n_rows), np.zeros(flat)
        for _ in range(draws):
            (rows, cols), _ = model._dropout_mask(n_rows, flat, rng)
            per_row += np.bincount(rows, minlength=n_rows)
            per_col += np.bincount(cols, minlength=flat)
        trials = draws * n_rows * flat
        sigma = np.sqrt(trials * rate * (1.0 - rate))
        assert abs(per_row.sum() - trials * rate) < 5.0 * sigma
        for counts in (per_row, per_col):
            expected = counts.sum() / len(counts)
            # each count is Binomial: its variance is expected * (1 - rate)
            chi2 = np.sum((counts - expected) ** 2) / (expected * (1.0 - rate))
            dof = len(counts) - 1
            assert abs(chi2 - dof) < 5.0 * np.sqrt(2.0 * dof)

    def test_dropout_mask_may_hit_nothing(self):
        model = build_model(ModelSpec(variant="mfcc", filters=4, dense_width=16, dropout=1e-9))
        flat = model.mfcc_branch.flat_dim
        (rows, cols), scale = model._dropout_mask(3, flat, np.random.default_rng(0))
        assert rows.shape == cols.shape == (0,)
        assert rows.dtype == np.intp and cols.dtype == np.intp
        np.testing.assert_array_equal(scale, 1.0 / (1.0 - 1e-9))


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


def mapped_spec(seed=3):
    """The smallest MFCC model whose dense1 load_checkpoint keeps mapped:
    64 filters make the branch 23,936 wide, and dense_width 64 is one
    block of output columns."""
    return ModelSpec(filters=64, dense_width=64, init_seed=seed)


@pytest.fixture(scope="module")
def mapped_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("mapped") / "model.oswt"
    save_checkpoint(path, build_model(mapped_spec()))
    return path


def float64_copies(path) -> SiameseModel:
    """The checkpoint's model with every parameter read_container's owned
    float64 copy, as load_checkpoint gave it before weights were mapped."""
    model = load_checkpoint(path)
    _, named = read_container(path)
    for i, p in enumerate(model.params()):
        p.data = named[f"param/{i}"]
    return model


class TestMappedCheckpoint:
    """load_checkpoint keeps dense1 of a model like the paper's as a
    read-only float32 view of the file, with every output bit unchanged."""

    def test_dense1_is_a_read_only_float32_view(self, mapped_checkpoint):
        model = load_checkpoint(mapped_checkpoint)
        w = model.dense1.weight.data
        assert w.shape == (64, 23936) and w.dtype == np.float32
        assert not w.flags.writeable and not w.flags.owndata
        others = [p.data for p in model.params() if p is not model.dense1.weight]
        assert all(d.dtype == np.float64 and d.flags.writeable for d in others)

    def test_writing_a_mapped_weight_raises(self, mapped_checkpoint):
        before = mapped_checkpoint.read_bytes()
        model = load_checkpoint(mapped_checkpoint)
        with pytest.raises(ValueError, match="read-only"):
            model.dense1.weight.data[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            model.dense1.weight.data *= 2.0
        assert mapped_checkpoint.read_bytes() == before

    @pytest.mark.parametrize(
        "spec, shape",
        [
            (ModelSpec(variant="vggish", init_seed=3), (1024, 1024)),  # dense2
            (ModelSpec(variant="fusion", dense_width=64, init_seed=3), (540, 25116)),
        ],
    )
    def test_rejected_shapes_load_as_float64(self, tmp_path, spec, shape):
        path = tmp_path / "model.oswt"
        save_checkpoint(path, build_model(spec))
        params = load_checkpoint(path).params()
        assert shape in [p.data.shape for p in params]
        assert all(p.data.dtype == np.float64 and p.data.flags.writeable for p in params)

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 10), (2, 10), (4, 10), (60, 60)])
    def test_scores_equal_float64_copies(self, mapped_checkpoint, n, m):
        sets = [features(seed) for seed in range(n + m)]
        model = load_checkpoint(mapped_checkpoint)
        want = float64_copies(mapped_checkpoint)
        np.testing.assert_array_equal(
            model.similarities(sets[:n], sets[n:]), want.similarities(sets[:n], sets[n:])
        )
        if n + m <= ENCODE_BATCH:
            np.testing.assert_array_equal(model.encode_sets(sets), want.encode_sets(sets))
        # scoring, in one encode call or in several, never copies dense1
        assert model.dense1.weight.data.dtype == np.float32

    @pytest.mark.parametrize("batch_size", [3, 2, 1])
    def test_evaluation_equals_float64_copies(self, mapped_checkpoint, batch_size):
        feats = {f"s{i}": features(i) for i in range(4)}
        pairs = [
            PairRecord("s0", "s1", True, 0, "test"),
            PairRecord("s2", "s3", False, 5, "test"),
            PairRecord("s1", "s2", True, 0, "test"),
        ]
        model = load_checkpoint(mapped_checkpoint)
        want = float64_copies(mapped_checkpoint)
        report = evaluate(model, pairs, feats)
        assert report.to_json() == evaluate(want, pairs, feats).to_json()
        loss = evaluate_loss(model, pairs, feats, batch_size)
        assert loss == evaluate_loss(want, pairs, feats, batch_size)
        # evaluation, in one batch or in several, never copies dense1
        assert model.dense1.weight.data.dtype == np.float32

    def test_training_step_equals_float64_copies(self, mapped_checkpoint):
        before = mapped_checkpoint.read_bytes()

        def step(model):
            opt = RMSProp(model.params(), lr=1e-3)
            opt.zero_grad()
            out = model.forward(
                model.stack_inputs([features(1), features(2)]),
                model.stack_inputs([features(3), features(1)]),
                training=True,
                rng=np.random.default_rng(5),
            )
            loss = rmse_loss(out, np.array([[1.0, 0.0], [0.0, 1.0]]))
            loss.backward()
            opt.step()
            return float(loss.data), model.params()

        loss, params = step(load_checkpoint(mapped_checkpoint))
        want_loss, want_params = step(float64_copies(mapped_checkpoint))
        assert loss == want_loss
        for p, q in zip(params, want_params):
            assert p.data.dtype == np.float64
            np.testing.assert_array_equal(p.data, q.data)
        assert mapped_checkpoint.read_bytes() == before

    def test_scores_survive_checkpoint_replacement(self, tmp_path, mapped_checkpoint):
        path = tmp_path / "model.oswt"
        path.write_bytes(mapped_checkpoint.read_bytes())
        model = load_checkpoint(path)
        left, right = [features(1)], [features(2), features(3)]
        before = model.similarities(left, right)
        save_checkpoint(path, build_model(mapped_spec(seed=4)))  # a new file, renamed over
        replaced = load_checkpoint(path).similarities(left, right)
        path.unlink()
        gc.collect()
        np.testing.assert_array_equal(model.similarities(left, right), before)
        assert not np.array_equal(replaced, before)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_is_numeric_error(self, bad):
        model = _ScriptedModel([0.9, bad, 0.2])
        with pytest.raises(NumericError, match="2 of 6 similarity scores are not finite"):
            detect_relapse(model, [features(1), features(2)], [features(3)] * 3)

    def test_nan_weight_is_numeric_error(self):
        model = build_model(small_spec())
        model.dense2.weight.data[0, 0] = np.nan
        with pytest.raises(NumericError, match="2 of 2 similarity scores"):
            detect_relapse(model, [features(1)], [features(2), features(3)])

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

        # 3 + 6 sets at 4 rows per encode call: ceil(9 / 4) calls, the lone
        # last set encoded as two copies of itself
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
        assert rows == [4, 4, 2]
