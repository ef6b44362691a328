"""Tests for config parsing, overrides, and validation."""

import pytest

from vocalsim.config import (
    ExperimentConfig,
    apply_overrides,
    load_config,
    parse_config_text,
)
from vocalsim.errors import DataError
from vocalsim.models import ModelSpec
from vocalsim.training import TrainConfig


class TestDefaults:
    def test_training_defaults(self):
        config = ExperimentConfig()
        assert config.batch_size == 100
        assert config.epochs == 300
        assert config.lr == pytest.approx(1e-5)
        assert config.decay == pytest.approx(1e-6)
        assert config.patience == 10

    def test_augmentation_defaults(self):
        assert ExperimentConfig().augment

    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_model_and_training_defaults_are_the_library_defaults(self):
        config = ExperimentConfig()
        assert config.model_spec() == ModelSpec()
        assert config.train_config() == TrainConfig()


class TestBuilders:
    # a value other than the default for every key that feeds ModelSpec or
    # TrainConfig
    VALUES = {
        "variant": "fusion",
        "pair_mode": "score25",
        "filters": 5,
        "kernel": 4,
        "stride": 2,
        "dropout": 0.3,
        "dense_width": 9,
        "fusion_width": 11,
        "seed": 99,
        "batch_size": 7,
        "epochs": 3,
        "lr": 0.5,
        "decay": 0.25,
        "patience": 2,
    }
    KEYS = {"head": "pair_mode", "init_seed": "seed"}  # spec field -> config key

    def test_every_field_is_carried(self):
        defaults = ExperimentConfig()
        assert all(getattr(defaults, key) != value for key, value in self.VALUES.items())
        config = ExperimentConfig(**self.VALUES).validate()
        built = {**vars(config.model_spec()), **vars(config.train_config())}
        assert {self.KEYS.get(name, name) for name in built} == set(self.VALUES)
        for name, value in built.items():
            assert value == self.VALUES[self.KEYS.get(name, name)], name


class TestParsing:
    def test_basic_file(self):
        config = parse_config_text(
            "\n".join(
                [
                    "# experiment",
                    "manifest = corpus/manifest.csv",
                    "variant = fusion",
                    "epochs = 40",
                    "lr = 1e-3",
                    "augment = false",
                    "",
                    "pairs_per_sample=4  # denser later",
                ]
            )
        )
        assert config.manifest == "corpus/manifest.csv"
        assert config.variant == "fusion"
        assert config.epochs == 40
        assert config.lr == pytest.approx(1e-3)
        assert config.augment is False
        assert config.pairs_per_sample == 4

    def test_unknown_key_with_line(self):
        with pytest.raises(DataError, match=":2: unknown config key 'leraning_rate'"):
            parse_config_text("epochs = 3\nleraning_rate = 1\n")

    def test_bad_int(self):
        with pytest.raises(DataError, match="epochs"):
            parse_config_text("epochs = soon\n")

    def test_bad_bool(self):
        with pytest.raises(DataError, match="boolean"):
            parse_config_text("augment = perhaps\n")

    def test_missing_equals(self):
        with pytest.raises(DataError, match="key = value"):
            parse_config_text("epochs 3\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 99\n", encoding="utf-8")
        assert load_config(path).seed == 99

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_config(tmp_path / "none.cfg")


class TestOverrides:
    def test_set_overrides_file_values(self):
        config = parse_config_text("epochs = 10\n")
        apply_overrides(config, ["epochs=20", "variant=vggish"])
        assert config.epochs == 20
        assert config.variant == "vggish"

    def test_unknown_override(self):
        with pytest.raises(DataError, match="unknown config key"):
            apply_overrides(ExperimentConfig(), ["epoch=3"])

    def test_malformed_override(self):
        with pytest.raises(DataError, match="key=value"):
            apply_overrides(ExperimentConfig(), ["epochs"])


class TestValidation:
    def test_bad_variant(self):
        config = ExperimentConfig(variant="wavelet")
        with pytest.raises(DataError, match="variant"):
            config.validate()

    def test_bad_pair_mode(self):
        with pytest.raises(DataError, match="pair_mode"):
            ExperimentConfig(pair_mode="triplet").validate()

    def test_nonpositive_values(self):
        with pytest.raises(DataError, match="epochs"):
            ExperimentConfig(epochs=0).validate()
        with pytest.raises(DataError, match="lr"):
            ExperimentConfig(lr=-1.0).validate()
        with pytest.raises(DataError, match="dense_width must be positive, got 0"):
            ExperimentConfig(dense_width=0).validate()
        with pytest.raises(DataError, match="decay must be >= 0"):
            ExperimentConfig(decay=-1e-3).validate()

    def test_dropout_range(self):
        with pytest.raises(DataError, match="dropout"):
            ExperimentConfig(dropout=1.0).validate()

    def test_threshold_range(self):
        with pytest.raises(DataError, match="relapse_threshold"):
            ExperimentConfig(relapse_threshold=1.5).validate()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("segment_seconds", 5.0),
            ("segment_seconds", 0.0),
            ("segment_seconds", 7.6),
            ("sample_rate", 8000),
            ("sample_rate", 16000),
            ("text_resize", "truncate"),
            ("text_resize", "meanpool"),
            ("strip_threshold", "0.1"),
            ("strip_window_ms", "25.0"),
            ("augment_train_only", "true"),
            ("noise_alphas", "0.01,0.02,0.03"),
            ("pitch_semitones", "0.5,2,2.5"),
        ],
    )
    def test_segment_format_is_fixed(self, key, value):
        # the segment format is fixed in dsp, the silence gate and the
        # augmentation factors in preprocess, and the text matrix is always
        # the truncation: no such key exists, even at its old default
        with pytest.raises(DataError, match=f"<config>:1: unknown config key '{key}'"):
            parse_config_text(f"{key} = {value}\n")
