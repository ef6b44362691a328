"""Experiment configuration: a flat key = value text format over one
dataclass of defaults, plus command-line overrides.

Seed scoping: `seed` drives model initialization, pairing, and training
shuffles; `split_seed` only the automatic manifest split; `augment_seed` only
the augmentation noise, which each recording draws from its own seed of
`augment_seed` and its id (preprocess.recording_seed). Feature caches
therefore survive a `seed` change.
"""

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import DataError, is_file, read_text
from .manifest import SPLIT_SEED
from .models import HEADS, RELAPSE_THRESHOLD, ModelSpec
from .pairs import PAIRS_PER_SAMPLE
from .training import TrainConfig

PAIR_MODES = tuple(HEADS)

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}

# ModelSpec fields whose config key has another name
_SPEC_KEYS = {"head": "pair_mode", "init_seed": "seed"}


@dataclass
class ExperimentConfig:
    """Model and training keys default to ModelSpec's and TrainConfig's
    values, the rest to the constants of the module that reads them."""

    manifest: str = ""
    workdir: str = "runs"
    resample: bool = False

    augment: bool = True
    augment_seed: int = 1234

    variant: str = ModelSpec.variant
    pair_mode: str = ModelSpec.head
    pairs_per_sample: int = PAIRS_PER_SAMPLE
    seed: int = ModelSpec.init_seed
    split_seed: int = SPLIT_SEED

    vggish_weights: str = ""
    lexicon: str = ""
    synonyms: str = ""

    batch_size: int = TrainConfig.batch_size
    epochs: int = TrainConfig.epochs
    lr: float = TrainConfig.lr
    decay: float = TrainConfig.decay
    patience: int = TrainConfig.patience

    dropout: float = ModelSpec.dropout
    filters: int = ModelSpec.filters
    kernel: int = ModelSpec.kernel
    stride: int = ModelSpec.stride
    dense_width: int = ModelSpec.dense_width
    fusion_width: int = ModelSpec.fusion_width

    relapse_threshold: float = RELAPSE_THRESHOLD

    def model_spec(self) -> ModelSpec:
        """The spec of the model this config trains; `seed` seeds its init."""
        return ModelSpec(
            **{f.name: getattr(self, _SPEC_KEYS.get(f.name, f.name)) for f in fields(ModelSpec)}
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})

    def validate(self) -> "ExperimentConfig":
        """A bad value is a DataError naming its key. ModelSpec and
        TrainConfig check their own fields; pair_mode is checked first, or
        it would be reported as the spec's `head`."""
        if self.pair_mode not in PAIR_MODES:
            raise DataError(f"pair_mode must be one of {PAIR_MODES}, got {self.pair_mode!r}")
        try:
            self.model_spec()
            self.train_config()
        except ValueError as exc:
            raise DataError(str(exc)) from None
        if self.pairs_per_sample <= 0:
            raise DataError(f"pairs_per_sample must be positive, got {self.pairs_per_sample}")
        for key in ("seed", "split_seed", "augment_seed"):
            if getattr(self, key) < 0:
                raise DataError(f"{key} must be non-negative, got {getattr(self, key)}")
        if not 0.0 <= self.relapse_threshold <= 1.0:
            raise DataError(
                f"relapse_threshold must be in [0, 1], got {self.relapse_threshold}"
            )
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _coerce(key: str, raw: str, where: str):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in _TRUE:
                return True
            if lowered in _FALSE:
                return False
            raise ValueError(f"expected a boolean, got {raw!r}")
        if kind is int or kind is float:
            return kind(raw)
        return raw
    except ValueError as exc:
        raise DataError(f"{where}: {key}: {exc}") from None


def _assign(config: ExperimentConfig, item: str, line: str | None, malformed: str) -> None:
    """Set the key of one `key=value` item: a config file line, where
    `line` is its `source:number` and a `#` starts a comment in the value,
    or a --set override (line None). `malformed` is the error for an item
    with no key or no `=`."""
    key, sep, value = item.partition("=")
    key = key.strip()
    if not sep or not key:
        raise DataError(malformed)
    if key not in _FIELD_TYPES:
        prefix = f"{line}: " if line else ""
        raise DataError(f"{prefix}unknown config key {key!r}")
    if line:
        value = value.split("#", 1)[0]
    setattr(config, key, _coerce(key, value, line or f"--set {key}"))


def apply_overrides(config: ExperimentConfig, overrides) -> ExperimentConfig:
    """Apply `key=value` strings, as given by repeated --set flags."""
    for item in overrides:
        _assign(config, item, None, f"override must look like key=value, got {item!r}")
    return config


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    config = ExperimentConfig()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{source}:{line_no}"
        _assign(config, stripped, where, f"{where}: expected key = value, got {stripped!r}")
    return config


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not is_file(path, "config file"):
        raise DataError(f"config file not found: {path}")
    return parse_config_text(read_text(path, "config file"), str(path))
