"""Transcript alignment and word-embedding features: the words of both
speakers that overlap a 7.6 s segment become a 60x9 matrix (first 9 words,
words as columns). The matrix is a truncation: each word keeps the first 60
components of its 300-d vector."""

import math
import string
from dataclasses import dataclass, field

import numpy as np

from .dsp import SEGMENT_SECONDS
from .errors import DataError, read_text

VECTOR_DIM = 300
NUM_DIMS = 60
NUM_WORDS = 9

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def tokenize(text: str) -> list[str]:
    """Case-fold, split on whitespace, drop punctuation characters."""
    words = []
    for token in text.lower().split():
        cleaned = token.translate(_PUNCT_TABLE)
        if cleaned:
            words.append(cleaned)
    return words


@dataclass
class TranscriptUtterance:
    start: float
    stop: float
    speaker: str
    words: tuple[str, ...]

    def __post_init__(self):
        if self.start > self.stop:
            raise ValueError(f"utterance start {self.start} after stop {self.stop}")
        if not self.speaker:
            raise ValueError("utterance speaker must be non-empty")


@dataclass
class Lexicon:
    """Immutable word-vector table plus a single-hop synonym map."""

    vectors: dict[str, np.ndarray]
    synonyms: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for word, vec in self.vectors.items():
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (VECTOR_DIM,):
                raise ValueError(f"vector for {word!r} has shape {vec.shape}")
            self.vectors[word] = vec

    def lookup(self, word: str) -> np.ndarray | None:
        vec = self.vectors.get(word)
        if vec is None:
            synonym = self.synonyms.get(word)
            if synonym is not None:
                vec = self.vectors.get(synonym)
        return vec


def load_transcript(path) -> list[TranscriptUtterance]:
    """Parse a tab-separated transcript: start_time, stop_time, speaker, value.

    The header row is required. Utterances come back sorted by start time.
    A timestamp that is not a finite number is a DataError naming the file
    and line.
    """
    lines = read_text(path, "transcript").splitlines()
    if not lines:
        raise DataError(f"{path}: empty transcript")
    header = [h.strip().lower() for h in lines[0].split("\t")]
    if header[:4] != ["start_time", "stop_time", "speaker", "value"]:
        raise DataError(f"{path}: expected header start_time/stop_time/speaker/value")
    utterances = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t", 3)
        if len(parts) < 3:
            raise DataError(f"{path}:{lineno}: expected 4 tab-separated fields")
        text = parts[3] if len(parts) == 4 else ""
        try:
            start, stop = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad timestamp: {exc}") from exc
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise DataError(f"{path}:{lineno}: timestamps must be finite, got {parts[0]!r}, {parts[1]!r}")
        try:
            utterances.append(
                TranscriptUtterance(start, stop, parts[2].strip(), tuple(tokenize(text)))
            )
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    utterances.sort(key=lambda u: (u.start, u.stop))
    return utterances


def load_lexicon(path, synonyms: dict[str, str] | None = None) -> Lexicon:
    """Parse a text-format vector file: one "word v1 ... v300" line per entry.

    An optional first line "count dim" (two integers) is skipped. A line
    with a wrong field count or a component that is not a finite number is
    a DataError naming the file and line.
    """
    lines = read_text(path, "lexicon").splitlines()
    start = 0
    if lines:
        head = lines[0].split()
        if len(head) == 2 and all(t.lstrip("-").isdigit() for t in head):
            start = 1
    vectors: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.rstrip().split(" ")
        if len(parts) != VECTOR_DIM + 1:
            raise DataError(
                f"{path}:{lineno}: expected a word and {VECTOR_DIM} values, got {len(parts)} fields"
            )
        try:
            vec = np.array([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad vector component: {exc}") from exc
        bad = np.flatnonzero(~np.isfinite(vec))
        if bad.size:
            raise DataError(
                f"{path}:{lineno}: {bad.size} of {VECTOR_DIM} vector components are not finite, "
                f"the first at position {bad[0] + 1} ({parts[bad[0] + 1]})"
            )
        vectors[parts[0]] = vec
    if not vectors:
        raise DataError(f"{path}: lexicon holds no vectors")
    return Lexicon(vectors, dict(synonyms or {}))


def load_synonyms(path) -> dict[str, str]:
    """Parse "word<TAB>synonym" lines into a lookup map."""
    lines = read_text(path, "synonym file").splitlines()
    table = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise DataError(f"{path}:{lineno}: expected word<TAB>synonym")
        table[parts[0].strip().lower()] = parts[1].strip().lower()
    return table


def align_transcript(utterances: list[TranscriptUtterance], segment_index: int) -> list[str]:
    """Words of every utterance (both speakers) overlapping the half-open
    window [SEGMENT_SECONDS*i, SEGMENT_SECONDS*(i+1)), in transcript order.

    An utterance crossing a boundary contributes to every window it touches.
    """
    if segment_index < 0:
        raise ValueError("segment_index must be non-negative")
    win_start = SEGMENT_SECONDS * segment_index
    win_stop = SEGMENT_SECONDS * (segment_index + 1)
    words: list[str] = []
    for utt in utterances:
        if utt.start < win_stop and utt.stop > win_start:
            words.extend(utt.words)
        elif utt.start == utt.stop and win_start <= utt.start < win_stop:
            words.extend(utt.words)
    return words


def embed_words(words: list[str], lexicon: Lexicon) -> np.ndarray:
    """Stack one 300-vector per word; unknown words fall back to their synonym
    and then to a zero row."""
    out = np.zeros((len(words), VECTOR_DIM))
    for k, word in enumerate(words):
        vec = lexicon.lookup(word)
        if vec is not None:
            out[k] = vec
    return out


def resize_text_matrix(embeddings: np.ndarray) -> np.ndarray:
    """Reduce an nw x 300 stack to the fixed 60x9 matrix (column j = word j):
    each word keeps its first 60 components. Missing words pad with zero
    columns; words beyond the ninth are discarded.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 and embeddings.size:
        raise ValueError("expected an nw x 300 matrix")
    out = np.zeros((NUM_DIMS, NUM_WORDS))
    count = min(embeddings.shape[0] if embeddings.size else 0, NUM_WORDS)
    if count == 0:
        return out
    if embeddings.shape[1] != VECTOR_DIM:
        raise ValueError(f"expected {VECTOR_DIM}-dim word vectors")
    out[:, :count] = embeddings[:count, :NUM_DIMS].T
    return out


def extract_text(
    utterances: list[TranscriptUtterance], segment_index: int, lexicon: Lexicon
) -> np.ndarray:
    """Full chain for one segment: align -> embed -> resize, (60, 9)."""
    words = align_transcript(utterances, segment_index)
    return resize_text_matrix(embed_words(words, lexicon))
