"""Tests for transcript parsing, alignment, and text-matrix construction."""

import numpy as np
import pytest

from vocalsim.errors import DataError
from vocalsim.textfeat import (
    Lexicon,
    TranscriptUtterance,
    align_transcript,
    embed_words,
    extract_text,
    load_lexicon,
    load_synonyms,
    load_transcript,
    resize_text_matrix,
    tokenize,
)


def utt(start, stop, text, speaker="participant"):
    return TranscriptUtterance(start, stop, speaker, tuple(tokenize(text)))


def vec(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=300)


def write_lexicon(path, entries: dict[str, np.ndarray], header: bool = False):
    lines = []
    if header:
        lines.append(f"{len(entries)} 300")
    for word, v in entries.items():
        lines.append(word + " " + " ".join(f"{x:.6f}" for x in v))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestTokenize:
    def test_case_folds_and_strips_punctuation(self):
        assert tokenize("Well, you KNOW...") == ["well", "you", "know"]

    def test_drops_pure_punctuation_tokens(self):
        assert tokenize("yes ... ok !") == ["yes", "ok"]

    def test_empty_text(self):
        assert tokenize("   ") == []


class TestTranscriptIO:
    HEADER = "start_time\tstop_time\tspeaker\tvalue\n"

    def test_parses_and_sorts(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text(
            self.HEADER
            + "8.0\t9.5\tinterviewer\tHow are you?\n"
            + "0.5\t3.0\tparticipant\tI am fine.\n",
            encoding="utf-8",
        )
        utts = load_transcript(p)
        assert [u.speaker for u in utts] == ["participant", "interviewer"]
        assert utts[0].words == ("i", "am", "fine")
        assert utts[1].words == ("how", "are", "you")

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("0.5\t3.0\tparticipant\thello\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            load_transcript(p)

    def test_bad_timestamp_names_line(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text(self.HEADER + "abc\t3.0\tparticipant\thello\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            load_transcript(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_timestamp_names_line(self, tmp_path, bad, column):
        times = ["0.0", "3.0"]
        times[column] = bad
        p = tmp_path / "t.tsv"
        p.write_text(
            self.HEADER + "0.0\t1.0\tparticipant\tfine\n"
            + "\t".join(times) + "\tparticipant\thello\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=r"t\.tsv:3: timestamps must be finite"):
            load_transcript(p)

    def test_start_after_stop_rejected(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text(self.HEADER + "5.0\t3.0\tparticipant\thello\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            load_transcript(p)

    def test_empty_value_allowed(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text(self.HEADER + "1.0\t2.0\tparticipant\t\n", encoding="utf-8")
        assert load_transcript(p)[0].words == ()

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_transcript(tmp_path / "absent.tsv")


class TestAlign:
    def test_single_utterance_in_first_segment(self):
        assert align_transcript([utt(0.0, 3.0, "i am fine")], 0) == ["i", "am", "fine"]

    def test_boundary_utterance_lands_in_both_segments(self):
        utts = [utt(7.0, 8.0, "still here")]
        assert align_transcript(utts, 0) == ["still", "here"]
        assert align_transcript(utts, 1) == ["still", "here"]
        assert align_transcript(utts, 2) == []

    def test_empty_window(self):
        assert align_transcript([utt(0.0, 3.0, "hello")], 5) == []

    def test_half_open_window_edges(self):
        # Ending exactly at a window start does not leak into that window;
        # starting exactly at a window start belongs to it.
        utts = [utt(5.0, 7.6, "before"), utt(7.6, 9.0, "after")]
        assert align_transcript(utts, 0) == ["before"]
        assert align_transcript(utts, 1) == ["after"]

    def test_both_speakers_in_order(self):
        utts = [
            utt(0.0, 2.0, "how are you", speaker="interviewer"),
            utt(2.5, 4.0, "pretty good", speaker="participant"),
        ]
        assert align_transcript(utts, 0) == ["how", "are", "you", "pretty", "good"]

    def test_covered_utterances_survive_across_segments(self):
        rng = np.random.default_rng(0)
        utts = []
        for _ in range(40):
            start = float(rng.uniform(0, 70))
            utts.append(utt(start, start + float(rng.uniform(0, 5)), "w x y"))
        utts.sort(key=lambda u: u.start)
        pooled = []
        for i in range(10):
            pooled.extend(align_transcript(utts, i))
        fully_covered = [u for u in utts if u.stop <= 76.0]
        assert len(pooled) >= sum(len(u.words) for u in fully_covered)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            align_transcript([], -1)


class TestLexiconIO:
    def test_load_with_and_without_header(self, tmp_path):
        entries = {"hello": vec(1), "world": vec(2)}
        plain, headed = tmp_path / "a.vec", tmp_path / "b.vec"
        write_lexicon(plain, entries)
        write_lexicon(headed, entries, header=True)
        for path in (plain, headed):
            lex = load_lexicon(path)
            assert set(lex.vectors) == {"hello", "world"}
            np.testing.assert_allclose(lex.vectors["hello"], entries["hello"], atol=1e-6)

    def test_wrong_dimension_rejected(self, tmp_path):
        p = tmp_path / "bad.vec"
        p.write_text("hello " + " ".join(["0.1"] * 299) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="300"):
            load_lexicon(p)

    def test_bad_component_rejected(self, tmp_path):
        p = tmp_path / "bad.vec"
        p.write_text("hello " + " ".join(["0.1"] * 299 + ["x"]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1"):
            load_lexicon(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_component_rejected(self, tmp_path, bad):
        p = tmp_path / "bad.vec"
        good = "calm " + " ".join(["0.1"] * 300)
        p.write_text(good + "\nquiet " + " ".join(["0.1"] * 299 + [bad]) + "\n", encoding="utf-8")
        message = (
            r"bad\.vec:2: 1 of 300 vector components are not finite, "
            rf"the first at position 300 \({bad}\)"
        )
        with pytest.raises(DataError, match=message):
            load_lexicon(p)

    def test_empty_lexicon_rejected(self, tmp_path):
        p = tmp_path / "empty.vec"
        p.write_text("\n", encoding="utf-8")
        with pytest.raises(DataError, match="no vectors"):
            load_lexicon(p)

    def test_synonym_file(self, tmp_path):
        p = tmp_path / "syn.tsv"
        p.write_text("Unwell\tsick\nglad\thappy\n", encoding="utf-8")
        assert load_synonyms(p) == {"unwell": "sick", "glad": "happy"}

    def test_bad_synonym_line(self, tmp_path):
        p = tmp_path / "syn.tsv"
        p.write_text("only-one-field\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1"):
            load_synonyms(p)

    def test_lexicon_rejects_short_vector(self):
        with pytest.raises(ValueError):
            Lexicon({"w": np.zeros(10)})


class TestEmbedWords:
    def make_lexicon(self):
        return Lexicon(
            {"happy": vec(3), "sad": vec(4)},
            synonyms={"glad": "happy", "down": "melancholy"},
        )

    def test_known_words_stack_in_order(self):
        lex = self.make_lexicon()
        out = embed_words(["sad", "happy"], lex)
        np.testing.assert_array_equal(out[0], lex.vectors["sad"])
        np.testing.assert_array_equal(out[1], lex.vectors["happy"])

    def test_synonym_fallback(self):
        lex = self.make_lexicon()
        out = embed_words(["glad"], lex)
        np.testing.assert_array_equal(out[0], lex.vectors["happy"])

    def test_unknown_and_dead_synonym_are_zero(self):
        lex = self.make_lexicon()
        out = embed_words(["mystery", "down"], lex)
        np.testing.assert_array_equal(out, np.zeros((2, 300)))

    def test_empty_word_list(self):
        assert embed_words([], self.make_lexicon()).shape == (0, 300)


class TestResize:
    def test_nine_words_map_to_columns(self):
        rng = np.random.default_rng(5)
        E = rng.normal(size=(9, 300))
        out = resize_text_matrix(E)
        assert out.shape == (60, 9)
        for j in range(9):
            np.testing.assert_array_equal(out[:, j], E[j, :60])

    def test_empty_gives_zero_matrix(self):
        np.testing.assert_array_equal(
            resize_text_matrix(np.zeros((0, 300))), np.zeros((60, 9))
        )

    def test_overflow_words_discarded(self):
        rng = np.random.default_rng(6)
        E = rng.normal(size=(20, 300))
        out = resize_text_matrix(E)
        np.testing.assert_array_equal(out, resize_text_matrix(E[:9]))

    def test_short_list_pads_zero_columns(self):
        rng = np.random.default_rng(7)
        E = rng.normal(size=(5, 300))
        out = resize_text_matrix(E)
        np.testing.assert_array_equal(out[:, 5:], np.zeros((60, 4)))
        assert np.any(out[:, 4] != 0.0)



class TestExtract:
    def test_full_chain_deterministic(self):
        lex = Lexicon({"fine": vec(9), "i": vec(10), "am": vec(11)})
        utts = [utt(0.0, 3.0, "I am fine.")]
        a = extract_text(utts, 0, lex)
        b = extract_text(utts, 0, lex)
        assert a.shape == (60, 9)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a[:, 0], lex.vectors["i"][:60])
        np.testing.assert_array_equal(a[:, 3:], np.zeros((60, 6)))
