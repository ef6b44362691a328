"""Twin-encoder similarity networks over the three feature variants, plus
checkpointing and the relapse decision rule.

Each variant encodes a feature set into a 1024-vector through shared weights;
the Euclidean distance between the two encodings feeds a small output layer:
2 sigmoid units for the similar / non-similar head (index 0 = similar) or 25
linear units for the score-difference head.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Constant, Conv1dLayer, DenseLayer, Tensor
from .container import map_container, write_container
from .errors import DataError, NumericError
from .mfcc import NUM_COEFFS, NUM_FRAMES
from .textfeat import NUM_DIMS, NUM_WORDS
from .vggish import EMBED_DIM, NUM_PATCHES

# the FeatureSet fields each model variant reads, in feature-cache order
VARIANT_FIELDS = {
    "mfcc": ("mfcc",),
    "vggish": ("vggish",),
    "fusion": ("mfcc", "vggish", "text"),
}
VARIANTS = tuple(VARIANT_FIELDS)
HEADS = {"binary": 2, "score25": 25}
# the (rows, columns) of each FeatureSet matrix, as its extractor returns it
FEATURE_SHAPES = {
    "mfcc": (NUM_FRAMES, NUM_COEFFS),  # frames x coefficients
    "vggish": (NUM_PATCHES, EMBED_DIM),  # patches x embedding dims
    "text": (NUM_DIMS, NUM_WORDS),  # dims x words
}
SIMILAR_INDEX = 0
RELAPSE_THRESHOLD = 0.5  # mean similarity at which detect_relapse flags relapse
ENCODE_BATCH = 100  # most rows per encode call of the inference encoder


@dataclass
class FeatureSet:
    """Per-segment feature matrices, shaped as FEATURE_SHAPES gives; only
    the fields a variant needs must be present."""

    mfcc: np.ndarray | None = None
    vggish: np.ndarray | None = None
    text: np.ndarray | None = None


@dataclass
class ModelSpec:
    variant: str = "mfcc"
    head: str = "binary"
    filters: int = 64
    kernel: int = 3
    stride: int = 1
    dropout: float = 0.0001
    dense_width: int = 1024
    fusion_width: int = 540
    init_seed: int = 7

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {tuple(HEADS)}, got {self.head!r}")
        for name in ("filters", "kernel", "stride", "dense_width", "fusion_width"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def head_size(self) -> int:
        return HEADS[self.head]


class _ConvBranch:
    """conv -> relu -> conv -> relu -> flatten, shared by twins. It reads its
    feature matrix transposed: the columns are its channels."""

    def __init__(self, spec: ModelSpec, field: str, rng):
        in_length, in_channels = FEATURE_SHAPES[field]
        self.conv1 = Conv1dLayer(in_channels, spec.filters, spec.kernel, spec.stride, rng)
        self.conv2 = Conv1dLayer(spec.filters, spec.filters, spec.kernel, spec.stride, rng)
        self.flat_dim = spec.filters * self.conv2.out_length(self.conv1.out_length(in_length))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.flatten(self.conv2(self.conv1(x, relu=True), relu=True))

    def params(self) -> list[Tensor]:
        return self.conv1.params() + self.conv2.params()


class SiameseModel:
    """Shared-weight encoder pair with a distance head.

    Both inputs of forward() run through the same layer objects, so one
    optimizer step moves both twins identically. Weights are Glorot draws
    from rng, which defaults to one seeded by spec.init_seed.
    """

    def __init__(self, spec: ModelSpec, rng=None):
        self.spec = spec
        if rng is None:
            rng = np.random.default_rng(spec.init_seed)
        self.mfcc_branch = None
        self.vggish_branch = None
        fields = VARIANT_FIELDS[spec.variant]
        if "mfcc" in fields:
            self.mfcc_branch = _ConvBranch(spec, "mfcc", rng)
        if "vggish" in fields:
            self.vggish_branch = _ConvBranch(spec, "vggish", rng)
        if "text" in fields:
            text_dim = math.prod(FEATURE_SHAPES["text"])
            concat_dim = self.mfcc_branch.flat_dim + self.vggish_branch.flat_dim + text_dim
            self.fusion = DenseLayer(concat_dim, spec.fusion_width, rng)
            encoder_in = spec.fusion_width
        else:
            self.fusion = None
            branch = self.mfcc_branch or self.vggish_branch
            encoder_in = branch.flat_dim
        self.dense1 = DenseLayer(encoder_in, spec.dense_width, rng)
        self.dense2 = DenseLayer(spec.dense_width, spec.dense_width, rng)
        self.head = DenseLayer(1, spec.head_size, rng)

    def params(self) -> list[Tensor]:
        out: list[Tensor] = []
        for _, branch in self._branches():
            out.extend(branch.params())
        if self.fusion is not None:
            out.extend(self.fusion.params())
        out.extend(self.dense1.params() + self.dense2.params() + self.head.params())
        return out

    # ---- input staging -------------------------------------------------

    def stack_inputs(self, feature_sets: list[FeatureSet]) -> dict[str, Tensor]:
        """Batch feature sets into the tensors the model reads, as Constant
        leaves: no grad is computed for them. A conv branch reads each matrix
        as channels x length, its transpose: the (B, C, L) view of the
        (B, L, C) stack of the matrices as they are, the layout conv1d reads
        fastest. The fusion layer reads the text matrix flattened. Raises
        DataError when a needed field is missing or misshaped."""
        if not feature_sets:
            raise ValueError("need at least one feature set")
        tensors: dict[str, Tensor] = {}
        for name in VARIANT_FIELDS[self.spec.variant]:
            stacked = np.stack([self._field(fs, name) for fs in feature_sets])
            if name == "text":
                tensors[name] = Constant(stacked.reshape(len(feature_sets), -1))
            else:
                tensors[name] = Constant(stacked.transpose(0, 2, 1))
        return tensors

    @staticmethod
    def _field(fs: FeatureSet, name: str) -> np.ndarray:
        value = getattr(fs, name)
        if value is None:
            raise DataError(f"feature set lacks the {name} matrix")
        value = np.asarray(value, dtype=np.float64)
        if value.shape != FEATURE_SHAPES[name]:
            raise DataError(f"{name} matrix must be {FEATURE_SHAPES[name]}, got {value.shape}")
        return value

    # ---- forward passes ------------------------------------------------

    def _branches(self) -> list[tuple[str, _ConvBranch]]:
        """(input name, branch) of each conv branch, mfcc before vggish."""
        branches = (("mfcc", self.mfcc_branch), ("vggish", self.vggish_branch))
        return [(name, branch) for name, branch in branches if branch is not None]

    def encode(
        self, inputs: dict[str, Tensor], training: bool = False, rng=None, index=None
    ) -> Tensor:
        """One encoding per stacked input row, or with index, one per entry
        of index: row i encodes input row index[i].

        The conv branches run once per input row. With dropout on, the first
        dense layer (fusion, else dense1) expands them to one row per index
        entry, each with its own mask, through gather_dense, and the layers
        after it run over all output rows. With dropout off, every layer
        runs once per input row and the encodings are gathered at the end."""
        rng = rng or np.random.default_rng(0)
        parts = [branch(inputs[name]) for name, branch in self._branches()]
        if self.fusion is not None:
            parts.append(inputs["text"])
            layers = [self.fusion, self.dense1, self.dense2]
        else:
            layers = [self.dense1, self.dense2]
        h = parts[0] if len(parts) == 1 else ad.concat(parts)
        first, *rest = layers
        if training and self.spec.dropout > 0.0:
            if index is None:
                index = np.arange(h.shape[0])
            dropped, scale = self._dropout_mask(len(index), h.shape[1], rng)
            h = ad.gather_dense(h, index, first.weight, first.bias, dropped, scale)
            index = None
        else:
            h = first(h)
        for layer in rest:
            h = layer(ad.tanh(h))
        h = ad.tanh(h)
        return h if index is None else ad.gather(h, index)

    def _dropout_mask(self, rows: int, width: int, rng):
        """The (rows, cols) entries of the first dense layer's (rows, width)
        input that dropout zeroes, as np.intp arrays, and the factor of each
        column: branch columns are scaled by 1/(1-rate), text columns neither
        dropped nor scaled.

        Each conv branch output entry of each row is dropped independently
        with probability rate, the Bernoulli(rate) law of inverted dropout.
        Only the hits are drawn, branch by branch: a Binomial(rows x
        flat_dim, rate) count, then that many distinct entries of the
        branch, uniform given the count, which is the same law. Each
        branch's entries come in row-major order, their columns offset by
        the branches before it."""
        rate = self.spec.dropout
        hit_rows, hit_cols, offset = [], [], 0
        for _, branch in self._branches():
            total = rows * branch.flat_dim
            hits = rng.choice(total, rng.binomial(total, rate), replace=False)
            r, c = np.divmod(np.sort(hits).astype(np.intp, copy=False), branch.flat_dim)
            hit_rows.append(r)
            hit_cols.append(c + offset)
            offset += branch.flat_dim
        scale = np.ones(width)
        scale[:offset] = 1.0 / (1.0 - rate)
        return (np.concatenate(hit_rows), np.concatenate(hit_cols)), scale

    def score(self, left_enc: Tensor, right_enc: Tensor) -> Tensor:
        """Head output for paired encodings: the Euclidean distance of each
        row pair through the head, so (B, 2) sigmoid probabilities or (B, 25)."""
        distance = ad.unsqueeze(ad.euclidean_distance(left_enc, right_enc))
        out = self.head(distance)
        if self.spec.head == "binary":
            out = ad.sigmoid(out)
        return out

    def forward(
        self,
        left: dict[str, Tensor],
        right: dict[str, Tensor],
        training: bool = False,
        rng=None,
    ) -> Tensor:
        """Head output for a batch: (B, 2) sigmoid probabilities or (B, 25).

        left and right are stack_inputs() batches of B rows each; both run
        through the encoder as one batch of 2B rows."""
        n, m = (next(iter(side.values())).data.shape[0] for side in (left, right))
        if n != m:
            raise ValueError(f"left has {n} rows, right has {m}")
        both = {
            name: Constant(np.concatenate([left[name].data, right[name].data]))
            for name in left
        }
        return self._score_halves(self.encode(both, training, rng), n)

    def score_pairs(self, pairs, features, rng=None) -> Tensor:
        """Head output for each pair of sample ids (any objects with left_id
        and right_id) in training, dropout on: (B, 2) sigmoid probabilities
        or (B, 25). Each distinct sample is stacked once (see _pair_samples)
        and its conv branch output shared by every pair row it appears in."""
        sets, index = _pair_samples(pairs, features)
        encodings = self.encode(self.stack_inputs(sets), True, rng, index.ravel())
        return self._score_halves(encodings, len(pairs))

    def _score_halves(self, encodings: Tensor, n: int) -> Tensor:
        """score() of encoding rows 0..n-1 against rows n..2n-1."""
        left = np.arange(n)
        return self.score(ad.gather(encodings, left), ad.gather(encodings, left + n))

    def encode_sets(self, feature_sets: list[FeatureSet]) -> np.ndarray:
        """One encoding row per feature set, dropout off: the one inference
        encoder. Sets are encoded in chunks of at most ENCODE_BATCH, a lone
        set as two copies of itself: a 1-row product takes BLAS's
        matrix-vector path, whose bits differ (by up to about 2e-15) from
        the same row's in a larger chunk."""
        encodings = []
        for start in range(0, len(feature_sets), ENCODE_BATCH):
            chunk = feature_sets[start : start + ENCODE_BATCH]
            padded = chunk * 2 if len(chunk) == 1 else chunk
            encodings.append(self.encode(self.stack_inputs(padded)).data[: len(chunk)])
        return np.concatenate(encodings)

    def pair_scores(self, pairs, features) -> np.ndarray:
        """Head output for each pair of sample ids, dropout off: (B, 2)
        sigmoid probabilities or (B, 25). Each distinct sample is encoded
        once through encode_sets (see _pair_samples) and the pairs are scored
        by index, so a pair's row does not depend on the other pairs."""
        sets, (left, right) = _pair_samples(pairs, features)
        encodings = self.encode_sets(sets)
        return self.score(Constant(encodings[left]), Constant(encodings[right])).data

    def similarities(
        self, left_sets: list[FeatureSet], right_sets: list[FeatureSet]
    ) -> np.ndarray:
        """(N, M) probabilities that left set i and right set j belong to the
        same class.

        The N+M sets are encoded once through encode_sets, and all N*M pairs
        are scored by index. Binary head only; dropout is off, so the scores
        are deterministic.
        """
        if self.spec.head != "binary":
            raise ValueError("similarity scores require the binary head")
        if not left_sets or not right_sets:
            raise ValueError("need at least one feature set on each side")
        n, m = len(left_sets), len(right_sets)
        encodings = self.encode_sets([*left_sets, *right_sets])
        left, right = np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)
        out = self.score(Constant(encodings[left]), Constant(encodings[right]))
        return out.data[:, SIMILAR_INDEX].reshape(n, m)

    def predict_similarity(self, left: FeatureSet, right: FeatureSet) -> float:
        """Probability that the two feature sets belong to the same class: the
        1x1 case of similarities(), symmetric in its arguments."""
        return float(self.similarities([left], [right])[0, 0])


def _pair_samples(pairs, features) -> tuple[list[FeatureSet], np.ndarray]:
    """The FeatureSet of each distinct sample of pairs, first seen over all
    left ids then all right ids, and the (2, B) index of pair k's rows.
    Raises DataError naming a sample with no features."""
    rows: dict = {}
    index = [rows.setdefault(p.left_id, len(rows)) for p in pairs]
    index += [rows.setdefault(p.right_id, len(rows)) for p in pairs]
    sets = []
    for sample_id in rows:
        try:
            sets.append(features[sample_id])
        except KeyError:
            raise DataError(f"no features for sample {sample_id}") from None
    return sets, np.array(index, dtype=np.intp).reshape(2, len(pairs))


def build_model(spec: ModelSpec) -> SiameseModel:
    return SiameseModel(spec)


@dataclass
class RelapseDecision:
    relapse: bool
    mean_similarity: float
    num_pairs: int


def detect_relapse(
    model: SiameseModel,
    subject_segments: list[FeatureSet],
    references: list[FeatureSet],
    threshold: float = RELAPSE_THRESHOLD,
) -> RelapseDecision:
    """Average the similarity of every (segment, depressed reference) pair and
    flag relapse when the mean reaches the threshold.

    Each segment and reference is encoded once; the N*M pairs share those
    encodings. A score that is not finite (a NaN or infinite weight or
    feature) is a NumericError rather than a verdict."""
    if not subject_segments:
        raise ValueError("subject has no segments to score")
    if not references:
        raise ValueError("need at least one depressed reference segment")
    scores = model.similarities(subject_segments, references)
    bad = int(np.count_nonzero(~np.isfinite(scores)))
    if bad:
        raise NumericError(
            f"{bad} of {scores.size} similarity scores are not finite; "
            "the model or the features hold NaN or infinite values"
        )
    mean = float(np.mean(scores))
    return RelapseDecision(mean >= threshold, mean, int(scores.size))


# ---- checkpoint io -----------------------------------------------------

# spec fields stored as an index into their tuple of choices
_SPEC_CHOICES = {"variant": VARIANTS, "head": tuple(HEADS)}


def _pack_scalar(value) -> np.ndarray:
    # the container stores float32 tensors; stashing the float64 bit pattern
    # in a pair of float32 words keeps spec scalars exact across a roundtrip
    return np.frombuffer(np.float64(value).tobytes(), dtype="<f4").copy()


def _unpack_scalar(tensor: np.ndarray) -> float:
    raw = np.asarray(tensor, dtype="<f4")
    if raw.shape != (2,):
        raise ValueError(f"spec scalar has shape {raw.shape}, expected (2,)")
    return float(np.frombuffer(raw.tobytes(), dtype="<f8")[0])


def save_checkpoint(path, model: SiameseModel) -> None:
    """Store the spec and the parameters as named float32 tensors."""
    named: dict[str, np.ndarray] = {}
    for spec_field in dataclasses.fields(ModelSpec):
        value = getattr(model.spec, spec_field.name)
        if spec_field.name in _SPEC_CHOICES:
            value = _SPEC_CHOICES[spec_field.name].index(value)
        named[f"spec/{spec_field.name}"] = _pack_scalar(value)
    for i, p in enumerate(model.params()):
        named[f"param/{i}"] = p.data
    write_container(path, [], named)


class _Unfilled:
    """Init rng for a model whose weights are about to be replaced by stored
    tensors: hands out uninitialised arrays instead of drawing them."""

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size)


def _spec_value(path, named: dict, name: str, kind: type):
    """The spec field `name` stored in a checkpoint's tensors: an int field
    and a choice index must hold an integral value, and an index must fall
    inside its tuple of choices. A DataError names the file and the field."""
    key = f"spec/{name}"
    if key not in named:
        raise DataError(f"{path}: checkpoint lacks spec tensor {key!r}")
    try:
        value = _unpack_scalar(named[key])
    except ValueError as exc:
        raise DataError(f"{path}: invalid checkpoint spec {name}: {exc}") from exc
    choices = _SPEC_CHOICES.get(name)
    if choices is None and kind is not int:
        return kind(value)
    if not value.is_integer():
        raise DataError(f"{path}: checkpoint spec {name} must be an integer, got {value!r}")
    if choices is None:
        return int(value)
    if not 0 <= value < len(choices):
        raise DataError(
            f"{path}: checkpoint spec {name} must index one of {choices}, got {int(value)}"
        )
    return choices[int(value)]


def load_checkpoint(path) -> SiameseModel:
    """The model a checkpoint holds. The file is mapped: a dense weight that
    ad.casts_in_blocks() accepts (in the paper MFCC model, dense1) stays a
    read-only float32 view of it, which keeps the file's pages mapped while
    the model lives; every other tensor is cast to float64 here.

    While the model lives, replace its file only by renaming a new file over
    it, as save_checkpoint does: the view keeps the old file's contents.
    Rewriting the file in place (copying over it, or opening it for writing)
    changes the weights the model scores with, and truncating it kills the
    process with SIGBUS when the model next reads a page past the end."""
    _, named = map_container(path)
    values = {
        field.name: _spec_value(path, named, field.name, field.type)
        for field in dataclasses.fields(ModelSpec)
    }
    try:
        spec = ModelSpec(**values)
    except ValueError as exc:
        raise DataError(f"{path}: invalid checkpoint spec: {exc}") from exc
    model = SiameseModel(spec, rng=_Unfilled())
    for i, p in enumerate(model.params()):
        key = f"param/{i}"
        if key not in named:
            raise DataError(f"{path}: checkpoint lacks tensor {key}")
        stored = named[key]
        if stored.shape != p.data.shape:
            raise DataError(
                f"{path}: tensor {key} has shape {stored.shape}, expected {p.data.shape}"
            )
        p.data = stored if ad.casts_in_blocks(stored.shape) else stored.astype(np.float64)
    return model
