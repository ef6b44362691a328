"""Tests for the log-mel front end, patching, embedding forward pass, and PCA."""

import numpy as np
import pytest

from vocalsim import workers as pool
from vocalsim.container import LayerDesc, write_container
from vocalsim.dsp import LOG_FLOOR, Signal, dft_magnitude, mel_filterbank
from vocalsim.errors import DataError
from vocalsim.vggish import (
    EMBED_DIM,
    FRAME_LENGTH,
    HOP_LENGTH,
    N_FFT,
    NUM_BANDS,
    NUM_FRAMES,
    SEGMENT_SAMPLES,
    PcaParams,
    embed,
    extract_vggish,
    identity_pca,
    load_embedding_file,
    log_mel_spectrogram,
    make_test_network,
    patchify,
    pca_postprocess,
    periodic_hann,
    save_embedding_file,
)

SR = 16000


def make_segment(x: np.ndarray) -> Signal:
    return Signal(x, SR)


def naive_forward(patch: np.ndarray, weights: list[LayerDesc]) -> np.ndarray:
    """Straight-line loop oracle for the embedding forward pass."""
    x = patch.T.astype(np.float64)
    for layer in weights:
        if layer.kind == "conv1d":
            w, b = layer.weight, layer.bias
            out_ch, in_ch, k = w.shape
            length = x.shape[1] - k + 1
            y = np.zeros((out_ch, length))
            for o in range(out_ch):
                for t in range(length):
                    acc = b[o]
                    for c in range(in_ch):
                        for j in range(k):
                            acc += w[o, c, j] * x[c, t + j]
                    y[o, t] = acc
            x = y
        elif layer.kind == "dense":
            w, b = layer.weight, layer.bias
            y = np.zeros(w.shape[0])
            for o in range(w.shape[0]):
                acc = b[o]
                for i in range(w.shape[1]):
                    acc += w[o, i] * x[i]
                y[o] = acc
            x = y
        elif layer.kind == "relu":
            x = np.where(x > 0.0, x, 0.0)
        elif layer.kind == "flatten":
            x = x.reshape(-1)
    return x


def per_patch_embed(patch: np.ndarray, weights: list[LayerDesc]) -> np.ndarray:
    """One patch through the network with the products a per-patch loop
    makes: `np.tensordot` for a conv layer and `w @ x` for a dense one."""
    x = np.asarray(patch, dtype=np.float64).T
    for layer in weights:
        if layer.kind == "conv1d":
            w, b = layer.weight, layer.bias
            taps = np.lib.stride_tricks.sliding_window_view(x, w.shape[2], axis=1)
            x = np.tensordot(w, taps, axes=[(1, 2), (0, 2)]) + b[:, None]
        elif layer.kind == "dense":
            x = layer.weight @ x + layer.bias
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0)
        elif layer.kind == "flatten":
            x = x.ravel()
    return x


def flatten_dense_network(seed: int = 3) -> list[LayerDesc]:
    rng = np.random.default_rng(seed)
    return [
        LayerDesc("flatten"),
        LayerDesc("dense", [rng.normal(size=(64, 96 * 64)) / 80, rng.normal(size=64)]),
        LayerDesc("relu"),
        LayerDesc("dense", [rng.normal(size=(EMBED_DIM, 64)) / 8, rng.normal(size=EMBED_DIM)]),
    ]


def one_conv_network(seed: int = 4) -> list[LayerDesc]:
    rng = np.random.default_rng(seed)
    conv = rng.normal(size=(2, 64, 5)).astype(np.float32)
    flat = 2 * (96 - 5 + 1)
    return [
        LayerDesc("conv1d", [conv, rng.normal(size=2).astype(np.float32)]),
        LayerDesc("flatten"),
        LayerDesc("dense", [rng.normal(size=(EMBED_DIM, flat)) / 14, np.zeros(EMBED_DIM)]),
    ]


def near_silent_segment() -> np.ndarray:
    """Faint noise after a quarter of digital silence: the silent frames
    floor every band, and the faint ones floor some of them."""
    x = 1e-11 * np.random.default_rng(4).normal(size=SEGMENT_SAMPLES)
    x[: SEGMENT_SAMPLES // 4] = 0.0
    return x


class TestLogMel:
    def test_periodic_hann_endpoints(self):
        w = periodic_hann(4)
        np.testing.assert_allclose(w, [0.0, 0.5, 1.0, 0.5], atol=1e-15)

    def test_frame_and_band_counts(self):
        assert NUM_FRAMES == (121600 - 400) // 160 + 1 == 758
        rng = np.random.default_rng(0)
        out = log_mel_spectrogram(make_segment(rng.normal(size=SEGMENT_SAMPLES)))
        assert out.shape == (758, 64)
        assert NUM_BANDS == 64

    def test_zero_segment_hits_log_floor(self):
        out = log_mel_spectrogram(make_segment(np.zeros(SEGMENT_SAMPLES)))
        np.testing.assert_array_equal(out, np.full((758, 64), np.log(LOG_FLOOR)))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            log_mel_spectrogram(make_segment(np.zeros(SEGMENT_SAMPLES - 160)))

    @pytest.mark.parametrize("kind", ["noise", "near-silent"])
    def test_rows_match_composed_operations_bit_for_bit(self, kind):
        if kind == "noise":
            x = np.random.default_rng(9).normal(size=SEGMENT_SAMPLES)
        else:
            x = near_silent_segment()
        window = periodic_hann(FRAME_LENGTH)
        spectra = np.stack(
            [
                dft_magnitude(x[t * HOP_LENGTH : t * HOP_LENGTH + FRAME_LENGTH] * window, N_FFT)
                for t in range(NUM_FRAMES)
            ]
        )
        mel = spectra @ mel_filterbank(NUM_BANDS, N_FFT, SR).weights.T
        got = log_mel_spectrogram(make_segment(x))
        np.testing.assert_array_equal(got, np.log(np.maximum(mel, LOG_FLOOR)))
        floored = np.sum(mel < LOG_FLOOR, axis=1)
        if kind == "noise":
            assert not floored.any()
        else:
            # whole rows and parts of others reach the floor
            assert NUM_BANDS in floored and np.any((floored > 0) & (floored < NUM_BANDS))

    def test_wrong_rate_rejected(self):
        with pytest.raises(ValueError):
            log_mel_spectrogram(Signal(np.zeros(SEGMENT_SAMPLES), 8000))


class TestPatchify:
    def test_758_frames_give_14_patches(self):
        patches = patchify(np.zeros((758, 64)))
        assert patches.shape == (14, 96, 64)

    def test_exactly_one_patch(self):
        patches = patchify(np.arange(96 * 64, dtype=np.float64).reshape(96, 64))
        assert patches.shape == (1, 96, 64)

    def test_rows_map_to_half_overlap(self):
        rng = np.random.default_rng(1)
        logmel = rng.normal(size=(758, 64))
        patches = patchify(logmel)
        for i in range(14):
            np.testing.assert_array_equal(patches[i], logmel[48 * i : 48 * i + 96])
        for i in range(13):
            np.testing.assert_array_equal(patches[i][48:], patches[i + 1][:48])

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            patchify(np.zeros((95, 64)))


class TestEmbed:
    def test_zero_dense_gives_zero_vector(self):
        layers = [
            LayerDesc("flatten"),
            LayerDesc("dense", [np.zeros((128, 96 * 64)), np.zeros(128)]),
        ]
        out = embed(np.ones((96, 64)), layers)
        np.testing.assert_array_equal(out, np.zeros(128))

    def test_identity_dense_copies_first_inputs(self):
        w = np.zeros((128, 96 * 64))
        w[:, :128] = np.eye(128)
        layers = [LayerDesc("flatten"), LayerDesc("dense", [w, np.zeros(128)])]
        patch = np.arange(96 * 64, dtype=np.float64).reshape(96, 64)
        out = embed(patch, layers)
        np.testing.assert_array_equal(out, patch.T.ravel()[:128])

    def test_matches_naive_oracle_on_small_stack(self):
        rng = np.random.default_rng(7)
        patch = rng.normal(size=(8, 5))  # 5 channels x 8 frames after transpose
        w1 = rng.normal(size=(4, 5, 3))
        b1 = rng.normal(size=4)
        flat = 4 * (8 - 3 + 1)
        w2 = rng.normal(size=(128, flat))
        b2 = rng.normal(size=128)
        layers = [
            LayerDesc("conv1d", [w1, b1]),
            LayerDesc("relu"),
            LayerDesc("flatten"),
            LayerDesc("dense", [w2, b2]),
        ]
        got = embed(patch, layers)
        want = naive_forward(patch, layers)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    @pytest.mark.parametrize(
        "network", [make_test_network, flatten_dense_network, one_conv_network]
    )
    def test_stack_matches_per_patch_products_bit_for_bit(self, network):
        layers = network()
        rng = np.random.default_rng(10)
        for amplitude in (1.0, 1e-3, 30.0):
            patches = amplitude * rng.normal(size=(14, 96, 64))
            got = embed(patches, layers)
            assert got.shape == (14, EMBED_DIM)
            want = np.stack([per_patch_embed(p, layers) for p in patches])
            np.testing.assert_array_equal(got, want)

    def test_segment_patches_match_per_patch_products_bit_for_bit(self):
        layers = make_test_network()
        seg = make_segment(np.random.default_rng(11).normal(size=SEGMENT_SAMPLES))
        patches = patchify(log_mel_spectrogram(seg))
        want = np.stack([per_patch_embed(p, layers) for p in patches])
        np.testing.assert_array_equal(embed(patches, layers), want)
        np.testing.assert_array_equal(extract_vggish(seg, layers, identity_pca()), want)

    def test_single_patch_is_a_stack_of_one(self):
        layers = make_test_network()
        patch = np.random.default_rng(12).normal(size=(96, 64))
        single = embed(patch, layers)
        assert single.shape == (EMBED_DIM,)
        np.testing.assert_array_equal(single, embed(patch[None], layers)[0])

    def test_patch_of_wrong_rank_rejected(self):
        with pytest.raises(ValueError, match="stack of patches"):
            embed(np.ones(96 * 64), make_test_network())

    def test_dim_mismatch_names_layer_index(self):
        layers = [
            LayerDesc("flatten"),
            LayerDesc("dense", [np.zeros((128, 10)), np.zeros(128)]),
        ]
        with pytest.raises(DataError, match="layer 1"):
            embed(np.ones((96, 64)), layers)

    def test_wrong_final_dim_rejected(self):
        layers = [
            LayerDesc("flatten"),
            LayerDesc("dense", [np.zeros((64, 96 * 64)), np.zeros(64)]),
        ]
        with pytest.raises(DataError, match="128"):
            embed(np.ones((96, 64)), layers)

    def test_conv_kernel_longer_than_input_rejected(self):
        layers = [LayerDesc("conv1d", [np.zeros((4, 64, 97)), np.zeros(4)])]
        with pytest.raises(DataError, match="layer 0"):
            embed(np.ones((96, 64)), layers)


class TestPca:
    def test_identity_is_noop(self):
        rng = np.random.default_rng(2)
        e = rng.normal(size=(14, 128))
        np.testing.assert_array_equal(pca_postprocess(e, identity_pca()), e)

    def test_mean_equal_to_rows_gives_zero(self):
        row = np.linspace(-1.0, 1.0, 128)
        e = np.tile(row, (14, 1))
        pca = PcaParams(row, np.random.default_rng(3).normal(size=(128, 128)))
        np.testing.assert_allclose(pca_postprocess(e, pca), np.zeros((14, 128)), atol=1e-12)

    def test_small_case_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        e = rng.normal(size=(3, 5))
        mean = rng.normal(size=5)
        mat = rng.normal(size=(5, 5))
        got = pca_postprocess(e, PcaParams(mean, mat))
        want = np.zeros((3, 5))
        for r in range(3):
            for o in range(5):
                want[r, o] = np.sum(mat[o] * (e[r] - mean))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_affine_property(self):
        rng = np.random.default_rng(5)
        pca = PcaParams(rng.normal(size=6), rng.normal(size=(6, 6)))
        a = rng.normal(size=(2, 6))
        b = rng.normal(size=(2, 6))
        lhs = pca_postprocess(a + b, pca) - pca_postprocess(b, pca)
        rhs = pca_postprocess(a, pca) - pca_postprocess(np.zeros((2, 6)), pca)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PcaParams(np.zeros(3), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            PcaParams(np.zeros(4), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            pca_postprocess(np.zeros((2, 7)), identity_pca(6))


class TestExtract:
    def test_shape_and_determinism(self):
        rng = np.random.default_rng(6)
        seg = make_segment(rng.normal(size=SEGMENT_SAMPLES))
        net = make_test_network()
        a = extract_vggish(seg, net, identity_pca())
        b = extract_vggish(seg, net, identity_pca())
        assert a.shape == (14, EMBED_DIM)
        np.testing.assert_array_equal(a, b)

    def test_zero_segment_zero_net_identity_pca_gives_zero(self):
        layers = [
            LayerDesc("flatten"),
            LayerDesc("dense", [np.zeros((128, 96 * 64)), np.zeros(128)]),
        ]
        out = extract_vggish(make_segment(np.zeros(SEGMENT_SAMPLES)), layers, identity_pca())
        np.testing.assert_array_equal(out, np.zeros((14, 128)))

    def test_test_network_is_seed_deterministic(self):
        a = make_test_network(seed=11)
        b = make_test_network(seed=11)
        c = make_test_network(seed=12)
        for la, lb in zip(a, b):
            for ta, tb in zip(la.tensors, lb.tensors):
                np.testing.assert_array_equal(ta, tb)
        assert not np.array_equal(a[0].weight, c[0].weight)

    def test_embedding_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        net = make_test_network()
        pca = PcaParams(
            rng.normal(size=128).astype(np.float32),
            rng.normal(size=(128, 128)).astype(np.float32),
        )
        path = tmp_path / "embed.oswt"
        save_embedding_file(path, net, pca)
        net2, pca2 = load_embedding_file(path)
        seg = make_segment(rng.normal(size=SEGMENT_SAMPLES))
        np.testing.assert_array_equal(
            extract_vggish(seg, net, pca), extract_vggish(seg, net2, pca2)
        )

    @pytest.mark.parametrize("layer, bad", [(0, np.nan), (2, np.inf), (5, -np.inf)])
    def test_embedding_file_rejects_non_finite_layer(self, tmp_path, layer, bad):
        net = make_test_network()
        net[layer].weight.flat[7] = bad
        path = tmp_path / "bad.oswt"
        save_embedding_file(path, net, identity_pca())
        with pytest.raises(DataError, match=rf"bad\.oswt: embedding network layer {layer} "):
            load_embedding_file(path)

    def test_embedding_file_rejects_non_finite_pca(self, tmp_path):
        path = tmp_path / "badpca.oswt"
        write_container(
            path, make_test_network(), {"pca_mean": np.full(128, np.nan), "pca_matrix": np.eye(128)}
        )
        with pytest.raises(DataError, match="badpca.oswt: PCA parameters must be finite"):
            load_embedding_file(path)

    def test_embedding_file_requires_pca(self, tmp_path):
        path = tmp_path / "nopca.oswt"
        write_container(path, make_test_network(), {"pca_mean": np.zeros(128)})
        with pytest.raises(DataError, match="pca"):
            load_embedding_file(path)


class TestShares:
    """Every worker count gives the one-worker bits, and an extractor call
    submits no work: the corpus is cut into whole variants instead (see
    test_pipeline.py's TestCorpusShares)."""

    @pytest.mark.parametrize("width", [2, 3])
    def test_front_end_equals_one_worker(self, workers, count_splits, width):
        # 3 divides neither 758 frames nor 14 patches
        seg = make_segment(np.random.default_rng(20).normal(size=SEGMENT_SAMPLES))
        layers = make_test_network()
        workers(1)
        logmel = log_mel_spectrogram(seg)
        embedded = embed(patchify(logmel), layers)
        features = extract_vggish(seg, layers, identity_pca())
        workers(width)
        limits = count_splits()
        np.testing.assert_array_equal(log_mel_spectrogram(seg), logmel)
        np.testing.assert_array_equal(embed(patchify(logmel), layers), embedded)
        np.testing.assert_array_equal(extract_vggish(seg, layers, identity_pca()), features)
        assert limits == []

    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("network", [flatten_dense_network, one_conv_network])
    def test_patch_shares_equal_one_worker(self, workers, width, network):
        layers = network()
        patches = np.random.default_rng(21).normal(size=(14, 96, 64))
        workers(1)
        want = embed(patches, layers)
        workers(width)
        np.testing.assert_array_equal(embed(patches, layers), want)

    @pytest.mark.parametrize("count", [1, 7])
    def test_stack_below_two_shares_submits_nothing(self, workers, count_splits, count):
        workers(2)
        limits = count_splits()
        patches = np.random.default_rng(22).normal(size=(count, 96, 64))
        assert embed(patches, make_test_network()).shape == (count, EMBED_DIM)
        seg = make_segment(np.random.default_rng(20).normal(size=SEGMENT_SAMPLES))
        assert extract_vggish(seg, make_test_network(), identity_pca()).shape == (14, EMBED_DIM)
        assert limits == []
        assert pool._workers_now is None  # no pool was even made

    def test_pool_survives_shares_that_raise(self, workers):
        patches = np.random.default_rng(23).normal(size=(14, 96, 64))
        workers(1)
        want = embed(patches, make_test_network())
        workers(2)
        bad = make_test_network()
        bad[2] = LayerDesc("conv1d", [np.ones((16, 31, 3)), np.zeros(16)])
        with pytest.raises(DataError, match="layer 2"):
            embed(patches, bad)
        np.testing.assert_array_equal(embed(patches, make_test_network()), want)
