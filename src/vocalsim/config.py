"""Experiment configuration: a flat key = value text format over one
dataclass of defaults, plus command-line overrides.

Seed scoping: `seed` drives model initialization, pairing, and training
shuffles; `split_seed` only the automatic manifest split; `augment_seed` only
the augmentation noise. Feature caches therefore survive a `seed` change.
"""

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import DataError, is_file, read_text
from .manifest import SPLIT_SEED
from .models import HEADS, RELAPSE_THRESHOLD, ModelSpec
from .pairs import PAIRS_PER_SAMPLE
from .preprocess import NOISE_ALPHAS, PITCH_SEMITONES, STRIP_THRESHOLD, STRIP_WINDOW_MS
from .training import TrainConfig

PAIR_MODES = tuple(HEADS)
TEXT_RESIZE_MODES = ("truncate", "meanpool")

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

    strip_threshold: float = STRIP_THRESHOLD
    strip_window_ms: float = STRIP_WINDOW_MS

    augment: bool = True
    augment_train_only: bool = True
    augment_seed: int = 1234
    noise_alphas: str = ",".join(f"{a:g}" for a in NOISE_ALPHAS)
    pitch_semitones: str = ",".join(f"{s:g}" for s in PITCH_SEMITONES)

    variant: str = ModelSpec.variant
    pair_mode: str = ModelSpec.head
    pairs_per_sample: int = PAIRS_PER_SAMPLE
    seed: int = ModelSpec.init_seed
    split_seed: int = SPLIT_SEED

    text_resize: str = "truncate"
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

    def noise_alpha_values(self) -> tuple:
        return _parse_float_list(self.noise_alphas, "noise_alphas")

    def pitch_semitone_values(self) -> tuple:
        return _parse_float_list(self.pitch_semitones, "pitch_semitones")

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
        if self.text_resize not in TEXT_RESIZE_MODES:
            raise DataError(
                f"text_resize must be one of {TEXT_RESIZE_MODES}, got {self.text_resize!r}"
            )
        for name in ("strip_window_ms", "pairs_per_sample"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive, got {getattr(self, name)}")
        if self.strip_threshold < 0:
            raise DataError(f"strip_threshold must be >= 0, got {self.strip_threshold}")
        if not 0.0 <= self.relapse_threshold <= 1.0:
            raise DataError(
                f"relapse_threshold must be in [0, 1], got {self.relapse_threshold}"
            )
        self.noise_alpha_values()
        self.pitch_semitone_values()
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_float_list(text: str, name: str) -> tuple:
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(float(part))
        except ValueError:
            raise DataError(f"{name}: {part!r} is not a number") from None
    return tuple(values)


def _coerce(key: str, raw: str, where: str):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "bool" or kind is bool:
            lowered = raw.lower()
            if lowered in _TRUE:
                return True
            if lowered in _FALSE:
                return False
            raise ValueError(f"expected a boolean, got {raw!r}")
        if kind == "int" or kind is int:
            return int(raw)
        if kind == "float" or kind is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise DataError(f"{where}: {key}: {exc}") from None


def apply_overrides(config: ExperimentConfig, overrides) -> ExperimentConfig:
    """Apply `key=value` strings, as given by repeated --set flags."""
    for item in overrides:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise DataError(f"override must look like key=value, got {item!r}")
        if key not in _FIELD_TYPES:
            raise DataError(f"unknown config key {key!r}")
        setattr(config, key, _coerce(key, value, f"--set {key}"))
    return config


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    config = ExperimentConfig()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if not sep or not key:
            raise DataError(f"{source}:{line_no}: expected key = value, got {stripped!r}")
        if key not in _FIELD_TYPES:
            raise DataError(f"{source}:{line_no}: unknown config key {key!r}")
        setattr(config, key, _coerce(key, value.split("#", 1)[0], f"{source}:{line_no}"))
    return config


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not is_file(path, "config file"):
        raise DataError(f"config file not found: {path}")
    return parse_config_text(read_text(path, "config file"), str(path))
