"""Tests for the staged pipeline: caching, idempotence, and seed scoping."""

import hashlib
import json

import numpy as np
import pytest

from vocalsim import pipeline
from vocalsim.config import ExperimentConfig
from vocalsim.errors import DataError
from vocalsim.manifest import write_wav
from vocalsim.dsp import Signal
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

    def test_undecodable_state_file_reruns_stages(self, tmp_path):
        manifest = build_corpus(tmp_path, seconds=8.0)
        workdir = tmp_path / "run"
        first = run_pipeline(fast_config(manifest, workdir))
        (workdir / pipeline.STATE_FILE).write_bytes(b"\xff{}")
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

    def test_foreign_tensor_name_rejected(self, tmp_path):
        from vocalsim.container import write_container

        path = tmp_path / "bad.oswt"
        write_container(path, [], {"junk": np.zeros(3)})
        with pytest.raises(DataError, match="junk"):
            features_from_cache(path)
