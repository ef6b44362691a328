"""Experiment configuration: a flat key = value text format over one
dataclass of defaults, plus command-line overrides.

Seed scoping: `seed` drives model initialization, pairing, and training
shuffles; `split_seed` only the automatic manifest split; `augment_seed` only
the augmentation noise. Feature caches therefore survive a `seed` change.
"""

from dataclasses import dataclass, fields
from pathlib import Path

from .dsp import SAMPLE_RATE, SEGMENT_SECONDS
from .errors import DataError
from .models import HEADS, VARIANTS

PAIR_MODES = tuple(HEADS)
TEXT_RESIZE_MODES = ("truncate", "meanpool")

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


@dataclass
class ExperimentConfig:
    manifest: str = ""
    workdir: str = "runs"
    sample_rate: int = SAMPLE_RATE
    resample: bool = False

    strip_threshold: float = 0.1
    strip_window_ms: float = 25.0
    segment_seconds: float = SEGMENT_SECONDS

    augment: bool = True
    augment_train_only: bool = True
    augment_seed: int = 1234
    noise_alphas: str = "0.01,0.02,0.03"
    pitch_semitones: str = "0.5,2,2.5"

    variant: str = "mfcc"
    pair_mode: str = "binary"
    pairs_per_sample: int = 8
    seed: int = 7
    split_seed: int = 13

    text_resize: str = "truncate"
    vggish_weights: str = ""
    lexicon: str = ""
    synonyms: str = ""

    batch_size: int = 100
    epochs: int = 300
    lr: float = 1e-5
    decay: float = 1e-6
    patience: int = 10

    dropout: float = 0.0001
    filters: int = 64
    kernel: int = 3
    stride: int = 1
    dense_width: int = 1024
    fusion_width: int = 540

    relapse_threshold: float = 0.5

    def noise_alpha_values(self) -> tuple:
        return _parse_float_list(self.noise_alphas, "noise_alphas")

    def pitch_semitone_values(self) -> tuple:
        return _parse_float_list(self.pitch_semitones, "pitch_semitones")

    def validate(self) -> "ExperimentConfig":
        if self.variant not in VARIANTS:
            raise DataError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.pair_mode not in PAIR_MODES:
            raise DataError(f"pair_mode must be one of {PAIR_MODES}, got {self.pair_mode!r}")
        if self.text_resize not in TEXT_RESIZE_MODES:
            raise DataError(
                f"text_resize must be one of {TEXT_RESIZE_MODES}, got {self.text_resize!r}"
            )
        # the extractors read only fixed-length segments at one rate
        if self.sample_rate != SAMPLE_RATE:
            raise DataError(f"sample_rate must be {SAMPLE_RATE}, got {self.sample_rate}")
        if self.segment_seconds != SEGMENT_SECONDS:
            raise DataError(
                f"segment_seconds must be {SEGMENT_SECONDS}, got {self.segment_seconds}"
            )
        positive = (
            "strip_window_ms",
            "pairs_per_sample",
            "batch_size",
            "epochs",
            "lr",
            "patience",
            "filters",
            "kernel",
            "stride",
            "dense_width",
            "fusion_width",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("strip_threshold", "decay"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise DataError(f"dropout must be in [0, 1), got {self.dropout}")
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
    if not path.is_file():
        raise DataError(f"config file not found: {path}")
    return parse_config_text(path.read_text(encoding="utf-8"), str(path))
