"""Tests for the staged pipeline: caching, idempotence, and seed scoping."""

import dataclasses
import hashlib
import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from vocalsim import pipeline
from vocalsim import workers as pool
from vocalsim.config import ExperimentConfig
from vocalsim.container import LayerDesc
from vocalsim.errors import DataError, replace_file, replace_text
from vocalsim.manifest import load_manifest, read_wav, write_wav
from vocalsim.dsp import Signal
from vocalsim.mfcc import extract_mfcc
from vocalsim.metrics import evaluate
from vocalsim.models import VARIANT_FIELDS, FeatureSet, build_model
from vocalsim.pairs import read_pairs_csv
from vocalsim.preprocess import (
    STRIP_THRESHOLD,
    STRIP_WINDOW_MS,
    augment_corpus,
    segment,
    strip_unvoiced,
)
from vocalsim.textfeat import extract_text, load_transcript
from vocalsim.training import train
from vocalsim.vggish import extract_vggish, identity_pca, make_test_network, save_embedding_file
from vocalsim.pipeline import (
    extract_corpus_features,
    features_from_cache,
    load_feature_table,
    run_pipeline,
)

RATE = 16000


def tone_wav(path, freq, seconds=16.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * RATE)) / RATE
    wave = 0.4 * np.sin(2 * np.pi * freq * t) + 0.05 * rng.standard_normal(t.size)
    write_wav(path, Signal(wave, RATE))


def build_corpus(tmp_path, subjects=8, seconds=16.0):
    """Half the subjects hum at 220 Hz (class 0), half at 880 Hz (class 1)."""
    lines = ["subject_id,audio_path,transcript_path,phq_binary,phq_score,split\n"]
    for i in range(subjects):
        cls = i % 2
        split = ("train", "train", "train", "train", "train", "train", "val", "test")[
            i % 8
        ]
        wav = tmp_path / f"s{i}.wav"
        tone_wav(wav, 220 if cls == 0 else 880, seconds, seed=i)
        tsv = tmp_path / f"s{i}.tsv"
        tsv.write_text(
            "start_time\tstop_time\tspeaker\tvalue\n"
            "0.0\t8.0\tparticipant\tfeeling steady today\n"
            "8.0\t16.0\tparticipant\tslept fine thanks\n",
            encoding="utf-8",
        )
        score = 2 if cls == 0 else 18
        lines.append(f"s{i},{wav.name},{tsv.name},{cls},{score},{split}\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("".join(lines), encoding="utf-8")
    return manifest


def fast_config(manifest, workdir, **overrides) -> ExperimentConfig:
    config = ExperimentConfig(
        manifest=str(manifest),
        workdir=str(workdir),
        augment=False,
        variant="mfcc",
        pairs_per_sample=4,
        filters=4,
        dense_width=16,
        batch_size=8,
        epochs=2,
        lr=1e-4,
        patience=10,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestFeatureExtraction:
    def test_augment_train_only(self, tmp_path):
        manifest = build_corpus(tmp_path, subjects=8, seconds=8.0)
        config = fast_config(manifest, tmp_path / "run", augment=True)
        from vocalsim.manifest import load_manifest

        records = load_manifest(manifest)
        tensors = extract_corpus_features(config, records)
        train_keys = [k for k in tensors if k.startswith("s0/")]
        val_keys = [k for k in tensors if k.startswith("s6/")]
        test_keys = [k for k in tensors if k.startswith("s7/")]
        assert len(train_keys) == 7  # original + 3 noise + 3 pitch
        assert len(val_keys) == 1 and "original" in val_keys[0]
        assert len(test_keys) == 1

    def test_fusion_fields_per_sample(self, tmp_path):
        manifest = build_corpus(tmp_path, subjects=8, seconds=8.0)
        config = fast_config(manifest, tmp_path / "run", variant="fusion")
        from vocalsim.manifest import load_manifest

        tensors = extract_corpus_features(config, load_manifest(manifest))
        assert tensors["s0/00000/original/mfcc"].shape == (378, 60)
        assert tensors["s0/00000/original/vggish"].shape == (14, 128)
        assert tensors["s0/00000/original/text"].shape == (60, 9)


def serial_features(config, records) -> dict:
    """The per-recording loop that corpus featurization must equal: in
    manifest order, each recording is read, stripped, cut and augmented
    whole (augment_corpus), then featurized variant by variant."""
    fields = VARIANT_FIELDS[config.variant]
    embed_net, pca, lexicon = pipeline.feature_tools(config)
    tensors = {}
    for record in records:
        signal = read_wav(record.audio_path)
        segments = segment(strip_unvoiced(signal, STRIP_THRESHOLD, STRIP_WINDOW_MS))
        if not segments:
            continue
        groups = [[seg] for seg in segments]
        if config.augment and record.split == "train":
            variants = augment_corpus(segments, config.augment_seed)
            per = len(variants) // len(segments)
            groups = [variants[i * per : (i + 1) * per] for i in range(len(segments))]
        words = load_transcript(record.transcript_path) if "text" in fields else None
        for index, group in enumerate(groups):
            text = None
            if words is not None:
                text = extract_text(words, index, lexicon)
            for variant in group:
                sample_id = f"{record.subject_id}/{index:05d}/{variant.provenance}"
                if "mfcc" in fields:
                    tensors[f"{sample_id}/mfcc"] = extract_mfcc(variant.signal)
                if "vggish" in fields:
                    tensors[f"{sample_id}/vggish"] = extract_vggish(variant.signal, embed_net, pca)
                if text is not None:
                    tensors[f"{sample_id}/text"] = text
    if not tensors:
        raise DataError("no segments long enough to extract features from")
    return tensors


def assert_same_tensors(got: dict, want: dict) -> None:
    """The same names in the same order, each with the same bytes."""
    assert list(got) == list(want)
    for name, tensor in want.items():
        assert got[name].shape == tensor.shape and got[name].dtype == tensor.dtype, name
        assert got[name].tobytes() == tensor.tobytes(), name


def tensors_digest(tensors: dict) -> str:
    h = hashlib.sha256()
    for name, tensor in tensors.items():
        h.update(name.encode("utf-8"))
        h.update(tensor.tobytes())
    return h.hexdigest()


# (subject, split, seconds): two segments, a recording too short for one
# segment, and unaugmented val and test recordings
CORPUS_LAYOUT = (
    ("s0", "train", 16.0),
    ("s1", "val", 8.0),
    ("s2", "train", 5.0),
    ("s3", "train", 8.0),
    ("s4", "test", 8.0),
)


def write_unit_corpus(tmp_path, layout=CORPUS_LAYOUT):
    """A fusion corpus with a three-word lexicon, so text lookups hit."""
    lines = ["subject_id,audio_path,transcript_path,phq_binary,phq_score,split\n"]
    for i, (subject, split, seconds) in enumerate(layout):
        cls = i % 2
        tone_wav(tmp_path / f"{subject}.wav", 220 if cls == 0 else 880, seconds, seed=i)
        (tmp_path / f"{subject}.tsv").write_text(
            "start_time\tstop_time\tspeaker\tvalue\n"
            "0.0\t8.0\tparticipant\tfeeling steady today\n"
            "8.0\t16.0\tparticipant\tslept fine thanks\n",
            encoding="utf-8",
        )
        lines.append(f"{subject},{subject}.wav,{subject}.tsv,{cls},{2 + 16 * cls},{split}\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("".join(lines), encoding="utf-8")
    rng = np.random.default_rng(3)
    lexicon = tmp_path / "lexicon.vec"
    lexicon.write_text(
        "".join(
            word + " " + " ".join(f"{v:.5f}" for v in rng.normal(size=300)) + "\n"
            for word in ("feeling", "steady", "slept")
        ),
        encoding="utf-8",
    )
    config = fast_config(
        manifest, tmp_path / "run", variant="fusion", augment=True, lexicon=str(lexicon)
    )
    return config, load_manifest(manifest)


@pytest.mark.filterwarnings("ignore:signal of .* is shorter than one")
class TestCorpusShares:
    """Corpus featurization runs each recording's variant units in shares,
    and gives what the loop over whole augmented recordings gives."""

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_equals_the_serial_loop(self, tmp_path, workers, count_splits, width):
        config, records = write_unit_corpus(tmp_path)
        want = serial_features(config, records)
        assert any(np.any(t != 0) for n, t in want.items() if n.endswith("/text"))
        workers(width)  # 4: more workers than this machine may have CPUs
        limits = count_splits()
        assert_same_tensors(extract_corpus_features(config, records), want)
        # a job per recording over its units: s0, s1, s3 and s4 have 10, 1, 5
        # and 1, and a job of one unit runs on the calling thread
        assert limits == [10, 5]

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_reads_a_recording_after_the_last_ones_units_ran(
        self, tmp_path, workers, monkeypatch, width
    ):
        """A recording is read only once every unit of the recordings before
        it has run, so one recording's audio is held at a time, however
        large the corpus."""
        layout = tuple((f"s{i}", "train", 8.0) for i in range(6))
        config, records = write_unit_corpus(tmp_path, layout)
        want = serial_features(config, records)
        recording_units, featurize_unit = pipeline._recording_units, pipeline._featurize_unit
        lock = threading.Lock()
        order = []  # ("read", subject) and ("ran", subject of the unit), as they happen

        def read(config, audio, strip, augment):
            with lock:
                order.append(("read", Path(audio).stem))
            return recording_units(config, audio, strip, augment)

        def run(fields, tools, unit):
            tensors = featurize_unit(fields, tools, unit)
            with lock:
                order.append(("ran", unit[0].split("/")[0]))
            return tensors

        monkeypatch.setattr(pipeline, "_recording_units", read)
        monkeypatch.setattr(pipeline, "_featurize_unit", run)
        workers(width)
        assert_same_tensors(extract_corpus_features(config, records), want)
        reads = [i for i, event in enumerate(order) if event[0] == "read"]
        assert [order[i][1] for i in reads] == [subject for subject, _, _ in layout]
        ran = [(i, subject) for i, (what, subject) in enumerate(order) if what == "ran"]
        assert len(ran) == 5 * len(layout)  # one segment, five units each
        for i, subject in ran:
            read_at = order.index(("read", subject))
            assert not any(read_at < r < i for r in reads), f"{subject} ran after a later read"

    @pytest.mark.parametrize("width", [1, 2, 4])
    @pytest.mark.parametrize(
        "faults",
        [("audio cut short", "empty transcript"), ("empty transcript", "audio cut short")],
    )
    def test_first_bad_recording_raises_the_loops_error(self, tmp_path, workers, width, faults):
        config, records = write_unit_corpus(tmp_path)
        for subject, fault in zip(("s1", "s3"), faults):
            if fault == "audio cut short":
                wav = tmp_path / f"{subject}.wav"
                wav.write_bytes(wav.read_bytes()[:-1])  # stops inside a sample
            else:
                (tmp_path / f"{subject}.tsv").write_text("", encoding="utf-8")
        with pytest.raises(DataError) as loop:
            serial_features(config, records)
        assert "s1." in str(loop.value)
        workers(width)
        with pytest.raises(DataError) as scheduled:
            extract_corpus_features(config, records)
        assert str(scheduled.value) == str(loop.value)

    @pytest.mark.parametrize("width", [1, 2])
    def test_a_units_error_comes_before_a_later_recordings(self, tmp_path, workers, width):
        """An earlier recording's unit raises before a later recording that
        cannot be read, as the loop would."""
        config, records = write_unit_corpus(tmp_path)
        bad = make_test_network()
        bad[2] = LayerDesc("conv1d", [np.ones((16, 31, 3), np.float32), np.zeros(16, np.float32)])
        config.vggish_weights = str(tmp_path / "bad.oswt")
        save_embedding_file(config.vggish_weights, bad, identity_pca())
        wav = tmp_path / "s3.wav"
        wav.write_bytes(wav.read_bytes()[:-1])
        workers(width)
        with pytest.raises(DataError, match="embedding network layer 2"):
            serial_features(config, records)
        with pytest.raises(DataError, match="embedding network layer 2"):
            extract_corpus_features(config, records)

    def test_featurizing_inside_a_share_runs_inline(self, tmp_path, workers, monkeypatch):
        """A share that featurizes a corpus does not split again: with one
        pool thread a nested split would wait forever on work queued behind
        its own share, so the spy raises instead of running one."""
        config, records = write_unit_corpus(tmp_path, CORPUS_LAYOUT[:2])
        workers(2)
        want = extract_corpus_features(config, records)
        run = pool._Workers.run
        running = []

        def run_once(self, task, limit):
            if running:
                raise AssertionError("a share submitted work")
            running.append(limit)
            try:
                run(self, task, limit)
            finally:
                running.pop()

        monkeypatch.setattr(pool._Workers, "run", run_once)
        got = [None, None]

        def task(i, parts):
            got[i] = extract_corpus_features(config, records)

        thread = threading.Thread(target=pool._in_shares, args=(task, 2), daemon=True)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "a share that featurizes a corpus hung"
        for g in got:
            assert_same_tensors(g, want)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_featurizes_a_corpus_with_a_fresh_pool(self, tmp_path, workers):
        config, records = write_unit_corpus(tmp_path, CORPUS_LAYOUT[:2])
        workers(2)
        want = tensors_digest(extract_corpus_features(config, records))
        parent_workers = pool._workers_now  # the parent's pool now has a thread
        assert parent_workers is not None
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                same = tensors_digest(extract_corpus_features(config, records)) == want
                made = pool._workers_now
                code = 0 if same and made is not None and made is not parent_workers else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung featurizing a corpus")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0


class TestPipeline:
    def test_full_run_produces_artifacts(self, tmp_path):
        manifest = build_corpus(tmp_path)
        workdir = tmp_path / "run"
        result = run_pipeline(fast_config(manifest, workdir))
        assert result.paths["cache"].is_file()
        assert result.paths["pairs"].is_file()
        assert result.paths["checkpoint"].is_file()
        assert result.paths["history"].is_file()
        assert result.paths["report"].is_file()
        assert result.paths["confusion"].is_file()
        assert result.report.total == result.pair_counts["test"]
        payload = json.loads(result.paths["report"].read_text())
        assert payload["mode"] == "binary"
        history = json.loads(result.paths["history"].read_text())
        assert len(history["train_losses"]) == 2

    def test_second_run_skips_and_matches_bytes(self, tmp_path):
        manifest = build_corpus(tmp_path)
        workdir = tmp_path / "run"
        config = fast_config(manifest, workdir)
        first = run_pipeline(config)
        hashes = {name: file_hash(path) for name, path in first.paths.items()}
        messages = []
        second = run_pipeline(fast_config(manifest, workdir), log=messages.append)
        assert any("up to date" in m for m in messages)
        assert second.train_result is None  # training was skipped
        for name, path in second.paths.items():
            assert file_hash(path) == hashes[name], name
        assert second.report.accuracy == first.report.accuracy

    def test_cache_rebuild_is_byte_identical(self, tmp_path):
        manifest = build_corpus(tmp_path)
        workdir = tmp_path / "run"
        config = fast_config(manifest, workdir, augment=True)
        first = run_pipeline(config)
        cache_hash = file_hash(first.paths["cache"])
        first.paths["cache"].unlink()
        second = run_pipeline(fast_config(manifest, workdir, augment=True))
        assert file_hash(second.paths["cache"]) == cache_hash

    def test_seed_change_keeps_cache_changes_pairs(self, tmp_path):
        manifest = build_corpus(tmp_path)
        workdir = tmp_path / "run"
        first = run_pipeline(fast_config(manifest, workdir))
        cache_hash = file_hash(first.paths["cache"])
        pairs_before = first.paths["pairs"].read_text()
        cache_mtime = first.paths["cache"].stat().st_mtime_ns

        second = run_pipeline(fast_config(manifest, workdir, seed=8))
        assert file_hash(second.paths["cache"]) == cache_hash
        assert second.paths["cache"].stat().st_mtime_ns == cache_mtime  # untouched
        assert second.paths["pairs"].read_text() != pairs_before

    def test_variant_change_reextracts(self, tmp_path):
        manifest = build_corpus(tmp_path)
        workdir = tmp_path / "run"
        run_pipeline(fast_config(manifest, workdir))
        result = run_pipeline(fast_config(manifest, workdir, variant="vggish"))
        assert result.paths["cache"].name == "features-vggish.oswt"
        assert result.paths["cache"].is_file()

    def test_stage_digests_and_log_lines_are_pinned(self, tmp_path):
        """Each stage's hash covers the same inputs in the same order, and
        each stage logs the same line, run after run of the code."""
        manifest = build_corpus(tmp_path, seconds=8.0)
        workdir = tmp_path / "run"
        cold, warm = [], []
        run_pipeline(fast_config(manifest, workdir), log=cold.append)
        run_pipeline(fast_config(manifest, workdir), log=warm.append)
        state = json.loads((workdir / pipeline.STATE_FILE).read_text(encoding="utf-8"))
        assert {name: entry["hash"] for name, entry in state.items()} == {
            "features": "ab00998513ebaa2ed4bfff168cf8fc349bbb1e2f29a4d83866001b872601edb9",
            "pairs": "acea54dc05e22d328c878d7ba057178dc46bebeaaa0bbd74e684dcde94c1bf7c",
            "train": "4042691749fe54b82d2bf70e500f6badb58f637e029a9fbb8fca198362a838c8",
            "eval": "eb360fbc4b4aa2951c20792769c4df7628da7b975bf9e78f7462878cc0d1d105",
        }
        assert cold == [
            "ingest: 8 subjects",
            "features: cached 8 tensors",
            "pairs: train/val/test = 24/4/4",
            "train: 2 epochs, best val loss 0.5978 at epoch 0",
            "eval: accuracy 50.00% on 4 pairs",
        ]
        assert warm == [
            "ingest: 8 subjects",
            "features: cache up to date",
            "pairs: list up to date",
            "train: checkpoint up to date",
            "eval: report up to date",
        ]

    def test_every_config_key_reaches_a_stage_digest(self, tmp_path):
        """Another valid value of any key but the two that name no stage
        input moves the features, pairs or train digest: workdir is where
        the stages write, and relapse_threshold is read by predict-relapse
        alone."""
        manifest = build_corpus(tmp_path, subjects=2, seconds=8.0)
        header, *rows = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        reordered = tmp_path / "reordered.csv"
        reordered.write_text("".join([header, *rows[::-1]]), encoding="utf-8")
        weights = tmp_path / "vggish.oswt"
        save_embedding_file(weights, make_test_network(), identity_pca())
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("steady " + " ".join(["0.5"] * 300) + "\n", encoding="utf-8")
        synonyms = tmp_path / "synonyms.tsv"
        synonyms.write_text("calm\tsteady\n", encoding="utf-8")
        others = {
            "manifest": str(reordered),
            "workdir": str(tmp_path / "elsewhere"),
            "resample": True,
            "augment": False,
            "augment_seed": 99,
            "variant": "vggish",
            "pair_mode": "score25",
            "pairs_per_sample": 3,
            "seed": 8,
            "split_seed": 5,
            "vggish_weights": str(weights),
            "lexicon": str(lexicon),
            "synonyms": str(synonyms),
            "batch_size": 7,
            "epochs": 2,
            "lr": 1e-3,
            "decay": 0.0,
            "patience": 3,
            "dropout": 0.0,
            "filters": 8,
            "kernel": 2,
            "stride": 2,
            "dense_width": 16,
            "fusion_width": 32,
            "relapse_threshold": 0.7,
        }
        assert set(others) == {f.name for f in dataclasses.fields(ExperimentConfig)}

        def digests(config):
            records = load_manifest(config.manifest, config.split_seed, check_audio=False)
            features = pipeline._digest(pipeline._feature_parts(config, records))
            pairs = pipeline._digest(pipeline._pair_parts(config, features))
            return features, pairs, pipeline._digest(pipeline._train_parts(config, pairs))

        base = ExperimentConfig(manifest=str(manifest))
        before = digests(base)
        moved = set()
        for key, value in others.items():
            assert getattr(base, key) != value, key
            changed = dataclasses.replace(base, **{key: value}).validate()
            if digests(changed) != before:
                moved.add(key)
        assert set(others) - moved == {"workdir", "relapse_threshold"}

    def test_warm_rerun_reads_no_tensor_and_no_checkpoint(self, tmp_path, monkeypatch):
        manifest = build_corpus(tmp_path, seconds=8.0)
        workdir = tmp_path / "run"
        cold = run_pipeline(fast_config(manifest, workdir))

        def refuse(*args, **kwargs):
            raise AssertionError("a skipped stage read tensor data")

        monkeypatch.setattr(pipeline, "read_container", refuse)
        monkeypatch.setattr(pipeline, "load_checkpoint", refuse)
        warm = run_pipeline(fast_config(manifest, workdir))
        assert warm.sample_count == cold.sample_count
        assert warm.report.to_json() == cold.report.to_json()

    def test_eval_rebuild_after_skipped_train_reads_both(self, tmp_path, monkeypatch):
        manifest = build_corpus(tmp_path, seconds=8.0)
        workdir = tmp_path / "run"
        cold = run_pipeline(fast_config(manifest, workdir))
        cold.paths["report"].unlink()
        calls = []
        for name in ("read_container", "load_checkpoint"):
            real = getattr(pipeline, name)
            monkeypatch.setattr(
                pipeline, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a)
            )
        log = []
        run_pipeline(fast_config(manifest, workdir), log=log.append)
        assert log[3:] == ["train: checkpoint up to date", "eval: accuracy 50.00% on 4 pairs"]
        assert sorted(calls) == ["load_checkpoint", "read_container"]
        assert cold.paths["report"].is_file()

    def test_cold_report_equals_eval_rebuild_and_cli_eval(self, tmp_path):
        """The report scores the checkpoint as saved, so it is a function of
        the eval digest: the cold run's report, an eval-only rebuild's and
        `vocalsim eval`'s on the checkpoint are the same bytes."""
        from vocalsim.cli import main

        manifest = build_corpus(tmp_path, seconds=8.0)
        workdir = tmp_path / "run"
        paths = run_pipeline(fast_config(manifest, workdir)).paths
        outputs = [paths["report"], paths["confusion"]]
        cold = [path.read_bytes() for path in outputs]
        paths["report"].unlink()
        log = []
        run_pipeline(fast_config(manifest, workdir), log=log.append)
        assert log[3] == "train: checkpoint up to date"
        assert log[4].startswith("eval: accuracy")
        assert [path.read_bytes() for path in outputs] == cold
        cli_outputs = [tmp_path / "cli-report.json", tmp_path / "cli-confusion.txt"]
        argv = ["eval", "--model", str(paths["checkpoint"]), "--cache", str(paths["cache"])]
        argv += ["--pairs", str(paths["pairs"]), "--report", str(cli_outputs[0])]
        assert main(argv + ["--confusion", str(cli_outputs[1])]) == 0
        assert [path.read_bytes() for path in cli_outputs] == cold

    def test_digest_streams_files_in_chunks(self, tmp_path, monkeypatch):
        path = tmp_path / "part.bin"
        path.write_bytes(bytes(range(256)) * 5)
        want = hashlib.sha256(b"a\x1f" + path.read_bytes() + b"\x1f").hexdigest()
        assert pipeline._digest(["a", path]) == want
        monkeypatch.setattr(pipeline, "_DIGEST_CHUNK", 7)  # many reads, a partial last one
        assert pipeline._digest(["a", path]) == want

    def test_missing_manifest_is_stage_error(self, tmp_path):
        config = fast_config(tmp_path / "none.csv", tmp_path / "run")
        with pytest.raises(DataError, match="stage ingest"):
            run_pipeline(config)

    def test_unset_manifest_rejected(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            run_pipeline(fast_config("", tmp_path / "run"))


class TestCrashSafety:
    """A run of config B that dies between writing a stage's outputs and
    recording its hash must not leave them to be served under config A."""

    @pytest.mark.parametrize(
        "stage, outputs, override",
        [
            ("features", ["cache"], {"augment": True}),
            ("pairs", ["pairs"], {"pairs_per_sample": 2}),
            ("train", ["checkpoint", "history"], {"epochs": 1}),
            ("eval", ["report", "confusion"], {"seed": 8}),
        ],
    )
    def test_crash_before_mark_is_not_served_to_previous_config(
        self, tmp_path, monkeypatch, stage, outputs, override
    ):
        manifest = build_corpus(tmp_path, seconds=8.0)
        workdir = tmp_path / "run"
        first = run_pipeline(fast_config(manifest, workdir))
        hashes = {name: file_hash(first.paths[name]) for name in outputs}

        mark = pipeline._mark_stage

        def crash_at_stage(workdir, state, name, digest, outs):
            if name == stage:
                raise RuntimeError(f"crash before marking {name}")
            mark(workdir, state, name, digest, outs)

        monkeypatch.setattr(pipeline, "_mark_stage", crash_at_stage)
        with pytest.raises(RuntimeError, match="crash"):
            run_pipeline(fast_config(manifest, workdir, **override))
        monkeypatch.undo()
        assert any(file_hash(first.paths[n]) != hashes[n] for n in outputs)

        messages = []
        run_pipeline(fast_config(manifest, workdir), log=messages.append)
        assert not any(m.startswith(f"{stage}:") and "up to date" in m for m in messages)
        for name in outputs:
            assert file_hash(first.paths[name]) == hashes[name], name

    def test_failed_build_forgets_previous_entry(self, tmp_path, monkeypatch):
        manifest = build_corpus(tmp_path, seconds=8.0)
        workdir = tmp_path / "run"
        first = run_pipeline(fast_config(manifest, workdir))
        cache_hash = file_hash(first.paths["cache"])

        def fail(config, records):
            raise DataError("extractor failed")

        monkeypatch.setattr(pipeline, "extract_corpus_features", fail)
        with pytest.raises(DataError, match="stage features: extractor failed"):
            run_pipeline(fast_config(manifest, workdir, augment=True))
        monkeypatch.undo()
        state = json.loads((workdir / pipeline.STATE_FILE).read_text(encoding="utf-8"))
        assert "features" not in state

        messages = []
        run_pipeline(fast_config(manifest, workdir), log=messages.append)
        assert messages[1] == "features: cached 8 tensors"
        assert file_hash(first.paths["cache"]) == cache_hash

    def test_undecodable_state_file_reruns_stages(self, tmp_path):
        manifest = build_corpus(tmp_path, seconds=8.0)
        workdir = tmp_path / "run"
        first = run_pipeline(fast_config(manifest, workdir))
        (workdir / pipeline.STATE_FILE).write_bytes(b"\xff{}")
        second = run_pipeline(fast_config(manifest, workdir))
        assert second.train_result is not None  # the stages ran again
        assert file_hash(second.paths["report"]) == file_hash(first.paths["report"])

    @pytest.mark.parametrize("outputs", [5, [7]])
    def test_stage_outputs_of_another_shape_rerun_the_stage(self, tmp_path, outputs):
        manifest = build_corpus(tmp_path, seconds=8.0)
        workdir = tmp_path / "run"
        first = run_pipeline(fast_config(manifest, workdir))
        state_path = workdir / pipeline.STATE_FILE
        state = json.loads(state_path.read_text(encoding="utf-8"))
        state["features"]["outputs"] = outputs  # the hash still matches
        state_path.write_text(json.dumps(state), encoding="utf-8")
        messages = []
        second = run_pipeline(fast_config(manifest, workdir), log=messages.append)
        assert not any(m.startswith("features:") and "up to date" in m for m in messages)
        assert file_hash(second.paths["report"]) == file_hash(first.paths["report"])

    @pytest.mark.parametrize("text", ["[]", '{"features": 1}', '{"pairs": [], "eval": "x"}'])
    def test_state_file_of_another_shape_reruns_stages(self, tmp_path, text):
        manifest = build_corpus(tmp_path, seconds=8.0)
        workdir = tmp_path / "run"
        first = run_pipeline(fast_config(manifest, workdir))
        (workdir / pipeline.STATE_FILE).write_text(text, encoding="utf-8")
        second = run_pipeline(fast_config(manifest, workdir))
        assert second.train_result is not None  # the stages ran again
        assert file_hash(second.paths["report"]) == file_hash(first.paths["report"])


class TestCacheReload:
    def test_round_trip_features_and_refs(self, tmp_path):
        manifest = build_corpus(tmp_path)
        workdir = tmp_path / "run"
        result = run_pipeline(fast_config(manifest, workdir))
        from vocalsim.manifest import load_manifest

        records = load_manifest(manifest)
        features, refs = load_feature_table(result.paths["cache"], records)
        assert len(features) == len(refs) == result.sample_count
        ref = refs[0]
        assert ref.sample_id in features
        assert features[ref.sample_id].mfcc.shape == (378, 60)
        splits = {r.split for r in refs}
        assert splits == {"train", "val", "test"}

    def test_cache_subject_missing_from_manifest(self, tmp_path):
        manifest = build_corpus(tmp_path)
        workdir = tmp_path / "run"
        result = run_pipeline(fast_config(manifest, workdir))
        from vocalsim.manifest import load_manifest

        records = [r for r in load_manifest(manifest) if r.subject_id != "s0"]
        with pytest.raises(DataError, match="s0"):
            load_feature_table(result.paths["cache"], records)

    def test_cached_features_are_read_only_views_that_train_as_copies(self, tmp_path):
        """features_from_cache hands out read-only float32 views of the
        mapped cache. train() and evaluate() on them give the loss, weight
        and report bits of the same calls on writable owned copies, so
        nothing writes into the cached features."""
        manifest = build_corpus(tmp_path, subjects=8, seconds=8.0)
        config = fast_config(manifest, tmp_path / "run", variant="fusion")
        result = run_pipeline(config)
        views = features_from_cache(result.paths["cache"])
        fields = VARIANT_FIELDS["fusion"]
        for fs in views.values():
            for name in fields:
                matrix = getattr(fs, name)
                assert matrix.dtype == np.float32 and not matrix.flags.writeable
        copies = {
            sid: FeatureSet(**{name: np.array(getattr(fs, name)) for name in fields})
            for sid, fs in views.items()
        }
        pair_set = read_pairs_csv(result.paths["pairs"])
        assert pair_set.train and pair_set.val and pair_set.test

        def run(features):
            model = build_model(config.model_spec())
            history = train(
                model,
                pair_set.train,
                pair_set.val,
                features,
                config.train_config(),
                np.random.default_rng(config.seed),
            )
            report = evaluate(model, pair_set.test, features)
            losses = [loss.hex() for loss in history.train_losses + history.val_losses]
            return losses, [p.data.tobytes() for p in model.params()], report.to_json()

        assert run(views) == run(copies)

    def test_foreign_tensor_name_rejected(self, tmp_path):
        from vocalsim.container import write_container

        path = tmp_path / "bad.oswt"
        write_container(path, [], {"junk": np.zeros(3)})
        with pytest.raises(DataError, match="junk"):
            features_from_cache(path)


class TestReplaceFile:
    """Every artifact is written through errors.replace_file."""

    @pytest.mark.parametrize("mode", ["w", "wb"])
    def test_block_that_raises_keeps_previous_file(self, tmp_path, mode):
        path = tmp_path / "report.json"
        replace_text(path, "old\n")
        part = "x" * 100_000  # past the write buffer, so it reaches the file
        with pytest.raises(RuntimeError, match="serializer failed"):
            with replace_file(path, mode) as fh:
                fh.write(part if mode == "w" else part.encode())
                fh.flush()
                (temp,) = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
                assert temp.stat().st_size == len(part)
                raise RuntimeError("serializer failed")
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_replaces_by_rename(self, tmp_path):
        path = tmp_path / "stage_state.json"
        replace_text(path, "{}")
        inode = path.stat().st_ino
        replace_text(path, "{\"a\": 1}")
        assert path.read_text(encoding="utf-8") == "{\"a\": 1}"
        assert path.stat().st_ino != inode
        assert [p.name for p in tmp_path.iterdir()] == ["stage_state.json"]

    def test_run_writes_text_artifacts_through_it(self, tmp_path, monkeypatch):
        written = []

        def spy(path, text):
            written.append(Path(path).name)
            replace_text(path, text)

        monkeypatch.setattr(pipeline, "replace_text", spy)
        manifest = build_corpus(tmp_path)
        run_pipeline(fast_config(manifest, tmp_path / "run"))
        for name in ("stage_state.json", "history.json", "report.json", "confusion.txt"):
            assert name in written
