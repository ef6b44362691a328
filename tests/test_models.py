"""Tests for the twin-encoder models, checkpointing, and the relapse rule."""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from vocalsim import container
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
        of the matrices as they are, rounded to float32, the layout and
        dtype conv1d reads fastest; text is each matrix flattened."""
        model = build_model(small_spec("fusion"))
        sets = [features(1), features(2)]
        inputs = model.stack_inputs(sets)
        for name in ("mfcc", "vggish"):
            data = inputs[name].data
            want = np.stack([getattr(fs, name).T for fs in sets]).astype(np.float32)
            np.testing.assert_array_equal(data, want)
            assert data.dtype == np.float32 and data.transpose(0, 2, 1).flags.c_contiguous
        want = np.stack([fs.text.ravel() for fs in sets]).astype(np.float32)
        np.testing.assert_array_equal(inputs["text"].data, want)
        assert inputs["text"].data.dtype == np.float32

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

    def test_format_is_pinned(self, tmp_path, monkeypatch):
        # every ModelSpec field stored, in this order, with these bytes; the
        # version-1 file, without the pad before tensor data, still has the
        # sha256 of a checkpoint written before the spec tensors came from
        # the dataclass fields, and loads to the same spec
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
        digests = {
            2: "f2c7813c2d2bb422a099eb592dc71fd1b5d9b1d9098962e736b6e6e5dddc32cf",
            1: "fe1e46af4fb4278df870090a3c928fc680c3c09c93e28315e609e576542681a8",
        }
        params = [f"param/{i}" for i in (0, 1, *range(10, 16), *range(2, 10))]
        spec_fields = ["dense_width", "dropout", "filters", "fusion_width", "head"]
        spec_fields += ["init_seed", "kernel", "stride", "variant"]
        for version, want in digests.items():
            monkeypatch.setattr(container, "VERSION", version)
            path = tmp_path / f"model-v{version}.oswt"
            save_checkpoint(path, build_model(spec))
            assert hashlib.sha256(path.read_bytes()).hexdigest() == want
            _, named = read_container(path)
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
    """A small MFCC model with the paper's dense1 input width: 64 filters
    make the branch 23,936 wide, and dense_width 64 is one block of output
    columns."""
    return ModelSpec(filters=64, dense_width=64, init_seed=seed)


@pytest.fixture(scope="module")
def mapped_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("mapped") / "model.oswt"
    save_checkpoint(path, build_model(mapped_spec()))
    return path


@pytest.fixture(scope="module")
def paper_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("paper") / "model.oswt"
    save_checkpoint(path, build_model(ModelSpec(init_seed=3)))
    return path


def float64_copies(path) -> SiameseModel:
    """The checkpoint's model with every parameter a float64 copy of the
    float32 tensor read_container gives: every op then runs in float64, on
    the float32 inputs stack_inputs gives."""
    model = load_checkpoint(path)
    _, named = read_container(path)
    for i, p in enumerate(model.params()):
        p.data = named[f"param/{i}"].astype(np.float64)
    assert all(p.data.dtype == np.float64 for p in model.params())
    return model


def float32_copy(path) -> SiameseModel:
    """The checkpoint's model with dense1 an owned, aligned float32 copy of
    the mapped view."""
    model = load_checkpoint(path)
    model.dense1.weight.data = model.dense1.weight.data.copy()
    assert model.dense1.weight.data.flags.aligned
    return model


def assert_encodes_as_an_owned_copy(model, path) -> None:
    """model, mapped from a paper checkpoint, encodes 12 sets with the bits
    of an owned float32 copy of the checkpoint at path, and allocates under
    half its dense1 doing so."""
    sets = [features(seed) for seed in range(12)]
    want = float32_copy(path).encode_sets(sets)
    tracemalloc.start()
    try:
        got = model.encode_sets(sets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, want)
    assert peak < model.dense1.weight.data.nbytes / 2


# a mapped model's outputs, computed in float32, against the float64
# copies': encodings within 1.5e-6 of their largest entry, similarities
# within 3e-7, losses and RMSEs within 6e-8, and the Pearson coefficient of
# 3 pairs within 2e-6. Measured at most 7.6e-7, 1.6e-7, 3.1e-8 and 9.3e-7
# under the SkylakeX and Haswell OpenBLAS kernels
ENCODING_TOL, SCORE_TOL, LOSS_TOL, PEARSON_TOL = 1.5e-6, 3e-7, 6e-8, 2e-6


class TestMappedCheckpoint:
    """load_checkpoint keeps every parameter of a model like the paper's as
    a read-only float32 view of the file, multiplied in float32: every
    output has the bits of an owned float32 copy's, and is within float32
    rounding of the float64 copies'."""

    def test_dense1_is_a_read_only_float32_view(self, mapped_checkpoint):
        model = load_checkpoint(mapped_checkpoint)
        w = model.dense1.weight.data
        assert w.shape == (64, 23936)
        for p in model.params():
            assert p.data.dtype == np.float32
            assert not p.data.flags.writeable and not p.data.flags.owndata

    def test_writing_a_mapped_weight_raises(self, mapped_checkpoint):
        before = mapped_checkpoint.read_bytes()
        model = load_checkpoint(mapped_checkpoint)
        with pytest.raises(ValueError, match="read-only"):
            model.dense1.weight.data[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            model.dense1.weight.data *= 2.0
        assert mapped_checkpoint.read_bytes() == before

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 10), (2, 10), (4, 10), (60, 60)])
    def test_scores_equal_float64_copies(self, mapped_checkpoint, n, m):
        sets = [features(seed) for seed in range(n + m)]
        model = load_checkpoint(mapped_checkpoint)
        owned, wide = float32_copy(mapped_checkpoint), float64_copies(mapped_checkpoint)
        scores = model.similarities(sets[:n], sets[n:])
        np.testing.assert_array_equal(scores, owned.similarities(sets[:n], sets[n:]))
        want = wide.similarities(sets[:n], sets[n:])
        np.testing.assert_allclose(scores, want, rtol=0, atol=SCORE_TOL)
        if n + m <= ENCODE_BATCH:
            encodings, want = model.encode_sets(sets), wide.encode_sets(sets)
            np.testing.assert_array_equal(encodings, owned.encode_sets(sets))
            atol = ENCODING_TOL * np.max(np.abs(want))
            np.testing.assert_allclose(encodings, want, rtol=0, atol=atol)
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
        owned, wide = float32_copy(mapped_checkpoint), float64_copies(mapped_checkpoint)
        report = evaluate(model, pairs, feats)
        assert report.to_json() == evaluate(owned, pairs, feats).to_json()
        want = evaluate(wide, pairs, feats)
        assert report.accuracy == want.accuracy
        np.testing.assert_array_equal(report.confusion, want.confusion)
        assert report.rmse == pytest.approx(want.rmse, rel=0, abs=LOSS_TOL)
        assert report.pearson_cc == pytest.approx(want.pearson_cc, rel=0, abs=PEARSON_TOL)
        loss = evaluate_loss(model, pairs, feats, batch_size)
        assert loss == evaluate_loss(owned, pairs, feats, batch_size)
        want = evaluate_loss(wide, pairs, feats, batch_size)
        assert loss == pytest.approx(want, rel=0, abs=LOSS_TOL)
        # evaluation, in one batch or in several, never copies dense1
        assert model.dense1.weight.data.dtype == np.float32

    def test_training_step_equals_float32_copies(self, mapped_checkpoint):
        """A step on the mapped checkpoint equals a step on an owned float32
        copy of dense1, and dense1 stays float32, now owned and writable.
        The loss is within float32 rounding of the float64 copies'."""
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
            return float(loss.data), model

        loss, model = step(load_checkpoint(mapped_checkpoint))
        want_loss, want = step(float32_copy(mapped_checkpoint))
        assert loss == want_loss
        wide_loss, _ = step(float64_copies(mapped_checkpoint))
        assert loss == pytest.approx(wide_loss, rel=0, abs=LOSS_TOL)
        for p, q in zip(model.params(), want.params()):
            assert p.data.dtype == q.data.dtype
            np.testing.assert_array_equal(p.data, q.data)
        w = model.dense1.weight.data
        assert w.dtype == np.float32 and w.flags.writeable and w.flags.owndata
        assert mapped_checkpoint.read_bytes() == before

    def test_loading_a_paper_checkpoint_allocates_no_dense1(self, tmp_path):
        """load_checkpoint builds the model unfilled and maps dense1: it
        allocates well under dense1's 98 MB, nothing of its size."""
        path = tmp_path / "paper.oswt"
        save_checkpoint(path, build_model(ModelSpec(init_seed=3)))
        tracemalloc.start()
        try:
            model = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        w = model.dense1.weight.data
        assert w.shape == (1024, 23936) and not w.flags.owndata
        assert peak < w.nbytes / 4

    def test_paper_dense1_is_mapped_aligned(self, paper_checkpoint):
        """The container puts a paper checkpoint's dense1 on a 64-byte
        boundary, so the mapped view goes to the BLAS where it lies: 12
        sets encode with the bits of an owned float32 copy, and allocate
        well under the weight."""
        model = load_checkpoint(paper_checkpoint)
        w = model.dense1.weight.data
        assert w.shape == (1024, 23936) and w.ctypes.data % 64 == 0
        assert not w.flags.owndata
        assert_encodes_as_an_owned_copy(model, paper_checkpoint)

    def test_unaligned_paper_dense1_encodes_as_an_aligned_copy(
        self, tmp_path, monkeypatch, paper_checkpoint
    ):
        """A version-1 file, written without the pad, leaves dense1 off
        alignment; read_container copies it once, at load, to an owned,
        aligned, read-only array, and allocates no more than those copies
        (plus the unfilled model). The copy then encodes with the bits of
        an owned float32 copy, under the same memory bound as a view."""
        path = tmp_path / "paper-v1.oswt"
        monkeypatch.setattr(container, "VERSION", 1)
        container.write_container(path, *container.read_container(paper_checkpoint))
        monkeypatch.undo()
        tracemalloc.start()
        try:
            model = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        w = model.dense1.weight.data
        assert w.shape == (1024, 23936) and w.flags.aligned and w.flags.owndata
        assert not w.flags.writeable
        copied = sum(p.data.nbytes for p in model.params() if p.data.flags.owndata)
        assert peak <= copied + (1 << 20)
        assert_encodes_as_an_owned_copy(model, paper_checkpoint)

    def test_lone_set_is_its_row_of_a_two_set_chunk(self, paper_checkpoint):
        """encode_sets pads a lone set to two rows: a 1-row product takes
        the matrix-vector path, whose float32 dense1 sums differ in the last
        bits from a 2-row chunk's. Padded, a lone set's encoding is its row
        of a 2-set chunk, bit for bit."""
        model = load_checkpoint(paper_checkpoint)
        lone, other = features(1), features(2)
        np.testing.assert_array_equal(
            model.encode_sets([lone])[0], model.encode_sets([lone, other])[0]
        )

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
        # a float32 encoding's bits depend on how many rows its products
        # have: within 6e-8 under the SkylakeX and Haswell OpenBLAS kernels
        assert decision.mean_similarity == pytest.approx(np.mean(pairwise), abs=1.2e-7)
        np.testing.assert_allclose(
            model.similarities(subject, references),
            np.reshape(pairwise, (3, 4)),
            rtol=0,
            atol=1.2e-7,
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
