"""End-to-end command-line tests driving main() in-process."""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest

import vocalsim
from vocalsim.cli import main
from vocalsim.config import ExperimentConfig
from vocalsim.container import read_container, write_container
from vocalsim.dsp import Signal
from vocalsim.manifest import load_manifest, read_wav, write_wav
from vocalsim.models import ModelSpec, build_model, save_checkpoint
from vocalsim.pipeline import extract_corpus_features
from vocalsim.preprocess import augment_corpus, recording_seed, segment

RATE = 16000


def tone_wav(path, freq=440.0, seconds=7.6, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(round(seconds * RATE))) / RATE
    samples = 0.4 * np.sin(2 * np.pi * freq * t) + 0.05 * rng.standard_normal(t.size)
    write_wav(path, Signal(samples, RATE))


def build_corpus(root, subjects=8):
    lines = ["subject_id,audio_path,transcript_path,phq_binary,phq_score,split\n"]
    splits = ("train", "train", "train", "train", "train", "train", "val", "test")
    for i in range(subjects):
        cls = i % 2
        wav = root / f"s{i}.wav"
        tone_wav(wav, 220 if cls == 0 else 880, seconds=16.0, seed=i)
        tsv = root / f"s{i}.tsv"
        tsv.write_text(
            "start_time\tstop_time\tspeaker\tvalue\n"
            "0.0\t16.0\tparticipant\tquiet day mostly reading\n",
            encoding="utf-8",
        )
        lines.append(f"s{i},{wav.name},{tsv.name},{cls},{2 if cls == 0 else 18},{splits[i % 8]}\n")
    manifest = root / "manifest.csv"
    manifest.write_text("".join(lines), encoding="utf-8")
    return manifest


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny corpus taken through extract-all, pair, and train."""
    root = tmp_path_factory.mktemp("cli-corpus")
    manifest = build_corpus(root)
    cache = root / "features.oswt"
    config = root / "run.cfg"
    config.write_text(
        "\n".join(
            [
                f"manifest = {manifest}",
                f"workdir = {root / 'run'}",
                "augment = false",
                "variant = mfcc",
                "pairs_per_sample = 4",
                "filters = 4",
                "dense_width = 16",
                "batch_size = 8",
                "epochs = 2",
                "lr = 1e-4",
            ]
        ),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config)]) == 0
    workdir = root / "run"
    return {
        "root": root,
        "manifest": manifest,
        "cache": workdir / "cache" / "features-mfcc.oswt",
        "pairs": workdir / "pairs.csv",
        "checkpoint": workdir / "checkpoint.oswt",
        "workdir": workdir,
    }


class TestExtract:
    def test_single_segment_wav_yields_one_entry(self, tmp_path, capsys):
        wav = tmp_path / "one.wav"
        tone_wav(wav, seconds=7.6)
        out = tmp_path / "cache.oswt"
        assert main(["extract", "--audio", str(wav), "--out", str(out)]) == 0
        _, named = read_container(out)
        assert list(named) == ["one/00000/original/mfcc"]
        assert named["one/00000/original/mfcc"].shape == (378, 60)
        assert "1 tensors" in capsys.readouterr().out

    def test_augment_flag_yields_seven_entries(self, tmp_path):
        wav = tmp_path / "one.wav"
        tone_wav(wav, seconds=7.6)
        out = tmp_path / "cache.oswt"
        assert main(["extract", "--audio", str(wav), "--out", str(out), "--augment"]) == 0
        _, named = read_container(out)
        assert len(named) == 7
        provenances = {name.split("/")[2] for name in named}
        assert "original" in provenances
        assert any(p.startswith("noise-") for p in provenances)
        assert any(p.startswith("pitch-") for p in provenances)

    @pytest.mark.parametrize(
        "augment, printed",
        [([], "2 tensors for 2 segments in"), (["--augment"], "14 tensors for 2 segments (14 samples) in")],
    )
    def test_counts_segments_not_samples(self, tmp_path, capsys, augment, printed):
        wav = tmp_path / "two.wav"
        tone_wav(wav, seconds=16.0)
        out = tmp_path / "cache.oswt"
        assert main(["extract", "--audio", str(wav), "--out", str(out), *augment]) == 0
        assert f"cached {printed} {out}" in capsys.readouterr().out

    def test_fusion_without_transcript_is_usage_error(self, tmp_path):
        wav = tmp_path / "one.wav"
        tone_wav(wav, seconds=7.6)
        code = main(
            ["extract", "--audio", str(wav), "--out", str(tmp_path / "c.oswt"),
             "--variant", "fusion"]
        )
        assert code == 2

    def test_short_wav_is_data_error(self, tmp_path):
        wav = tmp_path / "short.wav"
        tone_wav(wav, seconds=2.0)
        with pytest.warns(UserWarning, match="shorter than one 7.6s segment"):
            code = main(["extract", "--audio", str(wav), "--out", str(tmp_path / "c.oswt")])
        assert code == 3

    def test_matches_pipeline_featurization(self, tmp_path):
        # one featurization path: the CLI writes what run_pipeline caches
        manifest = build_corpus(tmp_path)
        out = tmp_path / "cli.oswt"
        code = main(
            ["extract", "--audio", str(tmp_path / "s0.wav"), "--out", str(out),
             "--variant", "fusion", "--augment", "--strip",
             "--transcript", str(tmp_path / "s0.tsv")]
        )
        assert code == 0
        record = load_manifest(manifest)[0]
        assert (record.subject_id, record.split) == ("s0", "train")
        config = ExperimentConfig(manifest=str(manifest), variant="fusion", augment=True)
        expected = tmp_path / "pipeline.oswt"
        write_container(expected, [], extract_corpus_features(config, [record]))
        _, named = read_container(out)
        assert len(named) == 2 * 7 * 3  # segments x variants x fields
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("command", ["extract", "run"])
    def test_wav_cut_mid_sample_is_data_error(self, tmp_path, capsys, command):
        manifest = build_corpus(tmp_path, subjects=2)
        wav = tmp_path / "s0.wav"
        wav.write_bytes(wav.read_bytes()[:-1])
        if command == "extract":
            argv = ["extract", "--audio", str(wav), "--out", str(tmp_path / "c.oswt")]
        else:
            argv = ["run", "--set", f"manifest={manifest}", "--set", f"workdir={tmp_path / 'w'}"]
        assert main(argv) == 3
        assert "s0.wav" in capsys.readouterr().err

    def test_missing_wav_is_data_error(self, tmp_path):
        assert (
            main(["extract", "--audio", str(tmp_path / "no.wav"), "--out", str(tmp_path / "c")])
            == 3
        )

    def test_out_in_missing_directory_is_data_error(self, tmp_path, capsys):
        # the error names the path given, not the temporary file beside it
        wav = tmp_path / "one.wav"
        tone_wav(wav, seconds=7.6)
        out = tmp_path / "missing" / "c.oswt"
        assert main(["extract", "--audio", str(wav), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"data error: cannot write {out}: " in err and ".tmp" not in err
        assert not out.parent.exists()


class TestPreprocess:
    def test_writes_segment_wavs(self, tmp_path, capsys):
        wav = tmp_path / "long.wav"
        tone_wav(wav, seconds=16.0)
        out_dir = tmp_path / "segs"
        assert main(["preprocess", "--audio", str(wav), "--out-dir", str(out_dir)]) == 0
        files = sorted(p.name for p in out_dir.glob("*.wav"))
        assert files == ["long-00000-original.wav", "long-00001-original.wav"]
        with wave.open(str(out_dir / files[0]), "rb") as handle:
            assert handle.getnframes() == 121600

    def test_augmented_names_carry_provenance(self, tmp_path):
        wav = tmp_path / "long.wav"
        tone_wav(wav, seconds=8.0)
        out_dir = tmp_path / "segs"
        assert (
            main(["preprocess", "--audio", str(wav), "--out-dir", str(out_dir), "--augment"])
            == 0
        )
        names = sorted(p.name for p in out_dir.glob("*.wav"))
        assert len(names) == 7
        assert "long-00000-noise-0.01.wav" in names
        assert "long-00000-pitch-2.5.wav" in names

    def test_augmented_files_are_the_variants_of_each_segment(self, tmp_path):
        wav = tmp_path / "long.wav"
        tone_wav(wav, seconds=16.5, seed=3)
        out_dir = tmp_path / "segs"
        argv = ["preprocess", "--audio", str(wav), "--out-dir", str(out_dir), "--augment"]
        assert main(argv) == 0
        config = ExperimentConfig()
        seed = recording_seed(config.augment_seed, "long")  # the audio stem
        variants = augment_corpus(segment(read_wav(wav)), seed)
        assert len(variants) == 14
        for i, seg in enumerate(variants):
            want = tmp_path / "want.wav"
            write_wav(want, seg.signal)
            got = out_dir / f"long-{i // 7:05d}-{seg.provenance}.wav"
            assert got.read_bytes() == want.read_bytes(), got.name
        assert len(list(out_dir.glob("*.wav"))) == 14

    def test_augment_holds_one_variant_at_a_time(self, tmp_path):
        """--augment writes each variant as its unit builds it: what it
        allocates beyond the decoded recording does not grow with the
        recording's length."""
        beyond = []
        for segments in (1, 4):
            wav = tmp_path / f"r{segments}.wav"
            tone_wav(wav, seconds=7.6 * segments)
            out_dir = tmp_path / f"segs{segments}"
            argv = ["preprocess", "--audio", str(wav), "--out-dir", str(out_dir), "--augment",
                    "--no-strip"]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(list(out_dir.glob("*.wav"))) == 7 * segments
            beyond.append(peak - read_wav(wav).samples.nbytes)
        assert beyond[1] < 1.5 * beyond[0]

    def test_out_dir_under_a_file_is_data_error(self, tmp_path, capsys):
        wav = tmp_path / "long.wav"
        tone_wav(wav, seconds=8.0)
        out_dir = wav / "segs"
        assert main(["preprocess", "--audio", str(wav), "--out-dir", str(out_dir)]) == 3
        assert f"data error: cannot make directory {out_dir}: " in capsys.readouterr().err


class TestPair:
    def test_same_seed_same_csv(self, trained, tmp_path):
        args = [
            "pair",
            "--manifest", str(trained["manifest"]),
            "--cache", str(trained["cache"]),
            "--mode", "binary",
            "--seed", "7",
        ]
        out1 = tmp_path / "p1.csv"
        out2 = tmp_path / "p2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seed_different_csv(self, trained, tmp_path):
        args = [
            "pair",
            "--manifest", str(trained["manifest"]),
            "--cache", str(trained["cache"]),
        ]
        out1 = tmp_path / "p1.csv"
        out2 = tmp_path / "p2.csv"
        assert main(args + ["--seed", "7", "--out", str(out1)]) == 0
        assert main(args + ["--seed", "8", "--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()


class TestTrainEval:
    def test_train_then_eval(self, trained, tmp_path, capsys):
        ckpt = tmp_path / "model.oswt"
        history = tmp_path / "history.json"
        code = main(
            [
                "train",
                "--cache", str(trained["cache"]),
                "--pairs", str(trained["pairs"]),
                "--out", str(ckpt),
                "--history", str(history),
                "--filters", "4",
                "--dense-width", "16",
                "--epochs", "2",
                "--batch-size", "8",
                "--lr", "1e-4",
            ]
        )
        assert code == 0
        assert ckpt.is_file()
        assert len(json.loads(history.read_text())["val_losses"]) == 2
        capsys.readouterr()

        report = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--model", str(ckpt),
                "--cache", str(trained["cache"]),
                "--pairs", str(trained["pairs"]),
                "--split", "test",
                "--report", str(report),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "predicted \\ actual" in out
        assert json.loads(report.read_text())["mode"] == "binary"

    def test_eval_missing_model_is_data_error(self, trained, tmp_path):
        code = main(
            [
                "eval",
                "--model", str(tmp_path / "none.oswt"),
                "--cache", str(trained["cache"]),
                "--pairs", str(trained["pairs"]),
            ]
        )
        assert code == 3


    def test_eval_pair_without_features_is_data_error(self, trained, tmp_path, capsys):
        lines = trained["pairs"].read_text(encoding="utf-8").splitlines(keepends=True)
        test_row = next(i for i, line in enumerate(lines) if line.rstrip().endswith(",test"))
        lines[test_row] = "absent-sample," + lines[test_row].split(",", 1)[1]
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("".join(lines), encoding="utf-8")
        code = main(
            [
                "eval",
                "--model", str(trained["checkpoint"]),
                "--cache", str(trained["cache"]),
                "--pairs", str(pairs),
                "--split", "test",
            ]
        )
        assert code == 3
        assert "absent-sample" in capsys.readouterr().err


class TestPredictRelapse:
    def test_zero_references_is_usage_error(self, trained, tmp_path):
        wav = tmp_path / "probe.wav"
        tone_wav(wav, 880, seconds=7.6)
        code = main(
            [
                "predict-relapse",
                "--model", str(trained["checkpoint"]),
                "--audio", str(wav),
            ]
        )
        assert code == 2

    def test_prints_decision_and_mean(self, trained, tmp_path, capsys):
        probe = tmp_path / "probe.wav"
        reference = tmp_path / "ref.wav"
        tone_wav(probe, 880, seconds=7.6, seed=31)
        tone_wav(reference, 880, seconds=7.6, seed=32)
        code = main(
            [
                "predict-relapse",
                "--model", str(trained["checkpoint"]),
                "--audio", str(probe),
                "--reference-audio", str(reference),
                "--no-strip",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean similarity" in out
        assert "relapse" in out

    def test_missing_reference_file_is_data_error(self, trained, tmp_path):
        probe = tmp_path / "probe.wav"
        tone_wav(probe, 880, seconds=7.6)
        code = main(
            [
                "predict-relapse",
                "--model", str(trained["checkpoint"]),
                "--audio", str(probe),
                "--reference-audio", str(tmp_path / "gone.wav"),
            ]
        )
        assert code == 3

    def test_fusion_with_reference_transcripts(self, tmp_path, capsys):
        build_corpus(tmp_path, subjects=3)
        checkpoint = tmp_path / "fusion.oswt"
        spec = ModelSpec(variant="fusion", filters=4, dense_width=16, fusion_width=8)
        save_checkpoint(checkpoint, build_model(spec))
        code = main(
            [
                "predict-relapse",
                "--model", str(checkpoint),
                "--audio", str(tmp_path / "s0.wav"),
                "--transcript", str(tmp_path / "s0.tsv"),
                "--reference-audio", str(tmp_path / "s1.wav"),
                "--reference-transcript", str(tmp_path / "s1.tsv"),
                "--reference-audio", str(tmp_path / "s2.wav"),
                "--reference-transcript", str(tmp_path / "s2.tsv"),
            ]
        )
        assert code == 0
        # 16 s recordings: 2 segments each, so 2 x (2 + 2) pairs
        assert "over 8 pairs (threshold 0.5)" in capsys.readouterr().out

    def test_nan_weight_is_numeric_error(self, tmp_path, capsys):
        checkpoint = tmp_path / "nan.oswt"
        model = build_model(ModelSpec(variant="mfcc", filters=4, dense_width=16))
        model.dense2.weight.data[0, 0] = np.nan
        save_checkpoint(checkpoint, model)
        probe = tmp_path / "probe.wav"
        reference = tmp_path / "ref.wav"
        tone_wav(probe, 880, seconds=7.6, seed=31)
        tone_wav(reference, 880, seconds=7.6, seed=32)
        code = main(
            [
                "predict-relapse",
                "--model", str(checkpoint),
                "--audio", str(probe),
                "--reference-audio", str(reference),
                "--no-strip",
            ]
        )
        assert code == 4
        captured = capsys.readouterr()
        assert "1 of 1 similarity scores are not finite" in captured.err
        assert "relapse" not in captured.out

    def test_score25_checkpoint_is_usage_error(self, tmp_path):
        checkpoint = tmp_path / "score25.oswt"
        spec = ModelSpec(variant="mfcc", head="score25", filters=4, dense_width=16)
        save_checkpoint(checkpoint, build_model(spec))
        probe = tmp_path / "probe.wav"
        reference = tmp_path / "ref.wav"
        tone_wav(probe, 880, seconds=7.6, seed=31)
        tone_wav(reference, 880, seconds=7.6, seed=32)
        code = main(
            [
                "predict-relapse",
                "--model", str(checkpoint),
                "--audio", str(probe),
                "--reference-audio", str(reference),
                "--no-strip",
            ]
        )
        assert code == 2


    @staticmethod
    def relapse_argv(checkpoint, audio, references) -> list:
        argv = ["predict-relapse", "--model", str(checkpoint), "--audio", str(audio)]
        for reference in references:
            argv += ["--reference-audio", str(reference)]
        return argv

    def test_same_output_on_one_and_two_cpus(
        self, trained, tmp_path, capsys, workers, count_splits
    ):
        recordings = [tmp_path / f"r{i}.wav" for i in range(4)]
        for i, wav in enumerate(recordings):
            tone_wav(wav, 880 if i % 2 else 220, seconds=16.0, seed=40 + i)
        argv = self.relapse_argv(trained["checkpoint"], recordings[0], recordings[1:])
        workers(1)
        assert main(argv) == 0
        one_cpu = capsys.readouterr().out
        workers(2)
        limits = count_splits()
        assert main(argv) == 0
        assert capsys.readouterr().out == one_cpu
        assert limits[0] == 4  # the subject and three references, a share each
        assert "over 12 pairs" in one_cpu  # 2 segments against 3 x 2

    @pytest.mark.parametrize("cut_first", [True, False])
    def test_earliest_bad_recording_is_reported(
        self, trained, tmp_path, capsys, workers, cut_first
    ):
        good = tmp_path / "good.wav"
        tone_wav(good, 880, seconds=16.0, seed=41)
        cut = tmp_path / "cut.wav"
        tone_wav(cut, 880, seconds=16.0, seed=42)
        cut.write_bytes(cut.read_bytes()[:-1])
        missing = tmp_path / "missing.wav"
        first, second = (cut, missing) if cut_first else (missing, cut)
        workers(1)
        assert main(self.relapse_argv(trained["checkpoint"], good, [good])) == 0
        want = capsys.readouterr().out
        workers(2)
        for _ in range(10):
            # the two bad recordings race in the two shares
            assert main(self.relapse_argv(trained["checkpoint"], first, [second, good])) == 3
            err = capsys.readouterr().err
            assert first.name in err and second.name not in err
        # the pool still serves a request after featurization shares raised
        assert main(self.relapse_argv(trained["checkpoint"], good, [good])) == 0
        assert capsys.readouterr().out == want


class TestRun:
    def test_run_emits_report_and_confusion(self, trained, capsys):
        # second run over the same workdir: everything cached
        config = trained["root"] / "run.cfg"
        assert main(["run", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "up to date" in out
        assert "report written to" in out

    def test_set_override_changes_workdir(self, trained, tmp_path, capsys):
        config = trained["root"] / "run.cfg"
        new_workdir = tmp_path / "other"
        code = main(
            ["run", "--config", str(config), "--set", f"workdir={new_workdir}"]
        )
        assert code == 0
        assert (new_workdir / "report.json").is_file()

    def test_malformed_stored_report_is_data_error(self, trained, tmp_path, capsys):
        # a copy of the workdir whose every stage is current, but whose
        # report holds a 1-d confusion
        workdir = tmp_path / "run"
        shutil.copytree(trained["workdir"], workdir)
        report = workdir / "report.json"
        payload = json.loads(report.read_text(encoding="utf-8"))
        payload["confusion"] = payload["confusion"][0]
        report.write_text(json.dumps(payload), encoding="utf-8")
        config = trained["root"] / "run.cfg"
        assert main(["run", "--config", str(config), "--set", f"workdir={workdir}"]) == 3
        err = capsys.readouterr().err
        assert f"{report}: unreadable report" in err and "Traceback" not in err

    def test_workdir_that_is_a_file_is_data_error(self, trained, tmp_path, capsys):
        workdir = tmp_path / "run"
        workdir.write_text("not a directory\n", encoding="utf-8")
        config = trained["root"] / "run.cfg"
        assert main(["run", "--config", str(config), "--set", f"workdir={workdir}"]) == 3
        assert f"data error: cannot make directory {workdir}" in capsys.readouterr().err
        assert workdir.read_text(encoding="utf-8") == "not a directory\n"

    def test_bad_override_is_data_error(self, trained):
        config = trained["root"] / "run.cfg"
        assert main(["run", "--config", str(config), "--set", "epoch=3"]) == 3

    @pytest.mark.parametrize(
        "overrides, key",
        [
            # the silence gate and the augmentation factors are constants:
            # their old keys are unknown, whatever the value
            ("strip_window_ms=inf", "strip_window_ms"),
            ("strip_window_ms=nan", "strip_window_ms"),
            ("strip_threshold=1.5", "strip_threshold"),
            ("strip_threshold=nan", "strip_threshold"),
            ("noise_alphas=0.01,-0.1", "noise_alphas"),
            ("noise_alphas=nan", "noise_alphas"),
            ("noise_alphas=inf", "noise_alphas"),
            ("pitch_semitones=13", "pitch_semitones"),
            ("pitch_semitones=nan", "pitch_semitones"),
            ("variant=vggish kernel=8", "kernel"),
            ("variant=fusion stride=6", "stride"),
            ("kernel=200", "kernel"),
            ("lr=nan", "lr"),
            ("lr=inf", "lr"),
            ("decay=nan", "decay"),
            ("decay=inf", "decay"),
            ("seed=-1", "seed must be non-negative"),
            ("split_seed=-1", "split_seed"),
            # run.cfg turns augmentation off: a negative seed fails either way
            ("augment_seed=-1", "augment_seed"),
            ("augment=true augment_seed=-1", "augment_seed"),
        ],
    )
    def test_bad_value_fails_before_any_stage(self, trained, tmp_path, capsys, overrides, key):
        # a DataError naming the key, raised before the workdir is made
        workdir = tmp_path / "run"
        argv = ["run", "--config", str(trained["root"] / "run.cfg"), "--set", f"workdir={workdir}"]
        for item in overrides.split():
            argv += ["--set", item]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and key in err
        assert not workdir.exists()

    def test_other_segment_length_is_data_error(self, trained, tmp_path, capsys):
        config = trained["root"] / "run.cfg"
        code = main(
            ["run", "--config", str(config), "--set", "segment_seconds=5",
             "--set", f"workdir={tmp_path / 'run'}"]
        )
        assert code == 3
        assert "segment_seconds" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["extract", "--out", "x.oswt"])
        assert info.value.code == 2


def _single_recording_argv(command, tmp_path, variant="mfcc"):
    """argv of a single-recording subcommand that succeeds as given."""
    wav = tmp_path / "one.wav"
    tone_wav(wav, seconds=7.6)
    if command == "extract":
        return ["extract", "--audio", str(wav), "--out", str(tmp_path / "c.oswt"),
                "--variant", variant]
    if command == "preprocess":
        return ["preprocess", "--audio", str(wav), "--out-dir", str(tmp_path / "segs")]
    checkpoint = tmp_path / f"{variant}.oswt"
    save_checkpoint(checkpoint, build_model(ModelSpec(variant=variant, filters=4, dense_width=16)))
    reference = tmp_path / "ref.wav"
    tone_wav(reference, 880, seconds=7.6, seed=32)
    return ["predict-relapse", "--model", str(checkpoint), "--audio", str(wav),
            "--reference-audio", str(reference)]


class TestFlagValidation:
    """Single-recording subcommands check their flags as `run --set` does."""

    @pytest.mark.parametrize(
        "command, flag, value, key",
        [
            (command, *row)
            for command in ("extract", "preprocess", "predict-relapse")
            for row in (
                ("--segment-seconds", "5", "segment_seconds"),
                ("--sample-rate", "8000", "sample_rate"),
                ("--text-resize", "truncate", "text_resize"),
                ("--text-resize", "meanpool", "text_resize"),
                ("--strip-threshold", "0.1", "strip_threshold"),
                ("--strip-window-ms", "25.0", "strip_window_ms"),
            )
        ]
        # only the commands that could augment had the factor flags
        + [
            (command, *row)
            for command in ("extract", "preprocess")
            for row in (
                ("--noise-alphas", "0.01,0.02,0.03", "noise_alphas"),
                ("--pitch-semitones", "0.5,2,2.5", "pitch_semitones"),
            )
        ],
    )
    def test_segment_format_flag_is_data_error(self, tmp_path, capsys, command, flag, value, key):
        # the segment format, the silence gate, the augmentation factors and
        # the text truncation are fixed and have no key or flag, so the flag
        # is argparse's usage error, even at its old default
        assert not hasattr(ExperimentConfig(), key)
        argv = _single_recording_argv(command, tmp_path)
        with pytest.raises(SystemExit) as info:
            main(argv + [flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["100", "0", "-3"])
    def test_eval_batch_size_flag_is_usage_error(self, trained, capsys, value):
        # eval scores each distinct sample once and no batch cut moves its
        # report, so it has no batch size flag: an old one is argparse's
        # usage error
        argv = [
            "eval",
            "--model", str(trained["checkpoint"]),
            "--cache", str(trained["cache"]),
            "--pairs", str(trained["pairs"]),
            "--batch-size", value,
        ]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: --batch-size {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_pair_pairs_per_sample_below_one_is_data_error(self, trained, tmp_path, capsys, value):
        argv = [
            "pair",
            "--manifest", str(trained["manifest"]),
            "--cache", str(trained["cache"]),
            "--out", str(tmp_path / "pairs.csv"),
            "--pairs-per-sample", value,
        ]
        assert main(argv) == 3
        assert "pairs_per_sample" in capsys.readouterr().err
        assert not (tmp_path / "pairs.csv").exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("extract", "--augment-seed"),
            ("preprocess", "--augment-seed"),
            ("pair", "--seed"),
            ("pair", "--split-seed"),
            ("train", "--seed"),
        ],
    )
    def test_negative_seed_is_data_error(self, trained, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        if command == "pair":
            argv = ["pair", "--manifest", str(trained["manifest"]),
                    "--cache", str(trained["cache"]), "--out", str(out)]
        elif command == "train":
            argv = ["train", "--cache", str(trained["cache"]),
                    "--pairs", str(trained["pairs"]), "--out", str(out)]
        else:
            argv = _single_recording_argv(command, tmp_path)
        assert main(argv + [flag, "-1"]) == 3
        key = flag[2:].replace("-", "_")
        assert f"data error: {key} must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "c.oswt").exists()

    @pytest.mark.parametrize("variant", ["mfcc", "vggish"])
    def test_extract_transcript_without_text_variant_is_usage_error(self, tmp_path, capsys, variant):
        argv = _single_recording_argv("extract", tmp_path, variant)
        assert main(argv + ["--transcript", str(tmp_path / "missing.tsv")]) == 2
        err = capsys.readouterr().err
        assert "--transcript" in err and variant in err

    @pytest.mark.parametrize("flag", ["--transcript", "--reference-transcript"])
    @pytest.mark.parametrize("variant", ["mfcc", "vggish"])
    def test_predict_relapse_transcript_without_text_model_is_usage_error(
        self, tmp_path, capsys, variant, flag
    ):
        argv = _single_recording_argv("predict-relapse", tmp_path, variant)
        assert main(argv + [flag, str(tmp_path / "missing.tsv")]) == 2
        err = capsys.readouterr().err
        assert flag in err and variant in err


class TestModuleEntryPoint:
    """`python3 -m vocalsim.cli`, as README documents it, exits with
    main's code."""

    @pytest.mark.parametrize(
        "args, code",
        [
            (["--help"], 0),
            (["predict-relapse", "--model", "m.oswt", "--audio", "a.wav"], 2),
            (["extract", "--audio", "missing.wav", "--out", "c.oswt"], 3),
        ],
    )
    def test_exit_code(self, tmp_path, args, code):
        src = str(Path(vocalsim.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "vocalsim.cli", *args],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
