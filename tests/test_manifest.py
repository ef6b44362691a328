"""Tests for manifest loading, auto splits, and WAV round trips."""

import errno
import re
import wave
from pathlib import Path

import numpy as np
import pytest

from vocalsim.dsp import Signal
from vocalsim.errors import DataError
from vocalsim.manifest import (
    SubjectRecord,
    assign_auto_splits,
    load_manifest,
    read_wav,
    write_wav,
)

HEADER = "subject_id,audio_path,transcript_path,phq_binary,phq_score,split\n"


def make_wav(path, n=1600, rate=16000, channels=1, width=2):
    rng = np.random.default_rng(0)
    data = (rng.random(n * channels) * 2000 - 1000).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(channels)
        handle.setsampwidth(width)
        handle.setframerate(rate)
        handle.writeframes(data.tobytes())


def make_corpus(tmp_path, rows):
    lines = [HEADER]
    for i, (subject, binary, score, split) in enumerate(rows):
        wav = tmp_path / f"a{i}.wav"
        tsv = tmp_path / f"t{i}.tsv"
        make_wav(wav)
        tsv.write_text("start_time\tstop_time\tspeaker\tvalue\n", encoding="utf-8")
        lines.append(f"{subject},{wav.name},{tsv.name},{binary},{score},{split}\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("".join(lines), encoding="utf-8")
    return manifest


class TestAutoSplit:
    def test_published_corpus_size_splits_146_18_18(self):
        splits = assign_auto_splits(182, split_seed=13)
        assert splits.count("train") == 146
        assert splits.count("val") == 18
        assert splits.count("test") == 18

    def test_deterministic_and_seed_sensitive(self):
        assert assign_auto_splits(50, 7) == assign_auto_splits(50, 7)
        assert assign_auto_splits(50, 7) != assign_auto_splits(50, 8)

    def test_tiny_corpus_all_train(self):
        assert assign_auto_splits(5, 0) == ["train"] * 5


class TestLoadManifest:
    def test_loads_fixed_and_auto_rows(self, tmp_path):
        manifest = make_corpus(
            tmp_path,
            [("s1", 0, 3, "train"), ("s2", 1, 20, "auto"), ("s3", 0, 0, "test")],
        )
        records = load_manifest(manifest, split_seed=13)
        assert [r.subject_id for r in records] == ["s1", "s2", "s3"]
        assert records[0].split == "train"
        assert records[1].split in ("train", "val", "test")
        assert records[2].split == "test"
        assert records[0].audio_path.is_file()

    def test_duplicate_subject_named(self, tmp_path):
        manifest = make_corpus(tmp_path, [("dup", 0, 3, "train"), ("dup", 1, 5, "train")])
        with pytest.raises(DataError, match="dup"):
            load_manifest(manifest)

    def test_missing_audio_file(self, tmp_path):
        manifest = make_corpus(tmp_path, [("s1", 0, 3, "train")])
        (tmp_path / "a0.wav").unlink()
        with pytest.raises(DataError, match="audio path not found"):
            load_manifest(manifest)

    def test_bad_header(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("id,audio\nx,y\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            load_manifest(manifest)

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text(HEADER, encoding="utf-8")
        with pytest.raises(DataError, match="no data rows"):
            load_manifest(manifest)

    def test_label_out_of_range_has_line_number(self, tmp_path):
        manifest = make_corpus(tmp_path, [("s1", 0, 25, "train")])
        with pytest.raises(DataError, match="m.*:2"):
            load_manifest(manifest)

    def test_non_integer_label(self, tmp_path):
        manifest = make_corpus(tmp_path, [("s1", 0, 3, "train")])
        text = manifest.read_text(encoding="utf-8").replace(",0,3,", ",no,3,")
        manifest.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match="phq_binary"):
            load_manifest(manifest)

    def test_bad_split_value(self, tmp_path):
        manifest = make_corpus(tmp_path, [("s1", 0, 3, "dev")])
        with pytest.raises(DataError, match="split"):
            load_manifest(manifest)

    def test_stereo_audio_rejected(self, tmp_path):
        manifest = make_corpus(tmp_path, [("s1", 0, 3, "train")])
        make_wav(tmp_path / "a0.wav", channels=2)
        with pytest.raises(DataError, match="mono"):
            load_manifest(manifest)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_manifest(tmp_path / "nope.csv")

    @pytest.mark.parametrize("column", [1, 2])
    def test_path_component_too_long_names_the_line(self, tmp_path, column):
        # a name over the file system's 255-byte limit fails the lookup itself
        manifest = make_corpus(tmp_path, [("s1", 0, 3, "train"), ("s2", 1, 5, "train")])
        lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[2].split(",")
        fields[column] = "x" * 300 + ".wav"
        lines[2] = ",".join(fields)
        manifest.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(DataError, match=r"manifest\.csv:3: .*cannot look up"):
            load_manifest(manifest)

    def test_manifest_name_too_long(self, tmp_path):
        with pytest.raises(DataError, match="manifest: cannot look up"):
            load_manifest(tmp_path / ("m" * 300 + ".csv"))


class TestWavIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        signal = Signal(rng.uniform(-0.5, 0.5, 4000), 16000)
        path = tmp_path / "x.wav"
        write_wav(path, signal)
        back = read_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_allclose(back.samples, signal.samples, atol=1 / 32768)

    def test_wrong_rate_rejected_without_resample(self, tmp_path):
        path = tmp_path / "x.wav"
        make_wav(path, rate=44100)
        with pytest.raises(DataError, match="44100"):
            read_wav(path)

    def test_resample_halves_length(self, tmp_path):
        path = tmp_path / "x.wav"
        write_wav(path, Signal(np.sin(np.arange(32000) * 0.01), 32000))
        signal = read_wav(path, resample=True)
        assert signal.sample_rate == 16000
        assert signal.samples.size == 16000

    def test_resample_preserves_tone(self, tmp_path):
        rate_in = 8000
        t = np.arange(rate_in) / rate_in
        tone = 0.5 * np.sin(2 * np.pi * 440 * t)
        path = tmp_path / "tone.wav"
        write_wav(path, Signal(tone, rate_in))
        signal = read_wav(path, resample=True)
        spectrum = np.abs(np.fft.rfft(signal.samples))
        peak_hz = np.argmax(spectrum) * 16000 / signal.samples.size
        assert abs(peak_hz - 440) < 2

    def test_clipping_bounds(self, tmp_path):
        path = tmp_path / "x.wav"
        write_wav(path, Signal(np.array([2.0, -2.0, 0.0]), 16000))
        back = read_wav(path)
        assert back.samples.max() <= 1.0
        assert back.samples.min() >= -1.0

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "x.wav"
        write_wav(path, Signal(np.full(16000, 0.25), 16000))
        before = path.read_bytes()
        writeframes = wave.Wave_write.writeframes

        def half_then_fail(self, data):
            writeframes(self, data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(wave.Wave_write, "writeframes", half_then_fail)
        with pytest.raises(DataError, match=re.escape(f"cannot write {path}: No space")):
            write_wav(path, Signal(np.full(16000, -0.5), 16000))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.wav"]

    def test_name_too_long(self, tmp_path):
        path = tmp_path / ("a" * 300 + ".wav")
        with pytest.raises(DataError, match="audio file: cannot look up"):
            read_wav(path)

    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"not audio at all")
        with pytest.raises(DataError, match="WAV"):
            read_wav(path)

    def test_data_cut_mid_sample_is_data_error(self, tmp_path):
        path = tmp_path / "odd.wav"
        write_wav(path, Signal(np.zeros(1000), 16000))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(DataError, match=r"odd\.wav.*1999 bytes.*whole number of 16-bit"):
            read_wav(path)

    def test_record_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SubjectRecord("s", Path("a"), Path("t"), 2, 0, "train")
        with pytest.raises(ValueError):
            SubjectRecord("s", Path("a"), Path("t"), 0, 0, "auto")
