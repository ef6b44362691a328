"""End-to-end experiment runner: ingest, feature extraction with caching,
pair generation, training, and evaluation.

This module alone decides how a recording becomes feature tensors
(`featurize_recording`), how samples are paired (`pair_samples`) and how a
model is trained and saved (`train_and_save`); the command line calls the
same functions.

Every stage hashes its inputs (files plus the config fields it depends on)
into `stage_state.json` under the working directory; a stage whose hash
matches and whose outputs still exist is skipped, so re-running a finished
experiment touches nothing and changing one knob re-runs only the stages
downstream of it. A stage drops its entry before it rewrites its outputs, so
outputs left by a crashed run are never served under an older hash. Every
output and the state file are written under a temporary name and renamed
into place (`errors.replace_file`), so none is ever left half-written.
"""

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .container import read_container, write_container
from .errors import DataError, NumericError, replace_text
from .manifest import load_manifest, read_wav
from .metrics import EvalReport, evaluate, render_confusion
from .mfcc import extract_mfcc
from .models import (
    VARIANT_FIELDS,
    FeatureSet,
    SiameseModel,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from .pairs import PairSet, SampleRef, make_pairs, read_pairs_csv, write_pairs_csv
from .preprocess import Segment, augment_corpus, segment, strip_unvoiced
from .textfeat import Lexicon, extract_text, load_lexicon, load_synonyms, load_transcript
from .training import TrainResult, train
from .vggish import extract_vggish, identity_pca, load_embedding_file, make_test_network

STATE_FILE = "stage_state.json"


@dataclass
class PipelineResult:
    workdir: Path
    report: EvalReport
    paths: dict = field(default_factory=dict)  # stage outputs by name
    sample_count: int = 0
    pair_counts: dict = field(default_factory=dict)
    train_result: TrainResult | None = None


@contextmanager
def _stage(name: str):
    try:
        yield
    except DataError as exc:
        raise DataError(f"stage {name}: {exc}") from exc
    except NumericError as exc:
        raise NumericError(f"stage {name}: {exc}") from exc


def _say(log, message: str) -> None:
    if log is not None:
        log(message)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, Path):
            h.update(part.read_bytes())
        else:
            h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()


def _load_state(workdir: Path) -> dict:
    path = workdir / STATE_FILE
    if not path.is_file():
        return {}
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return {}
    # valid JSON of another shape is no state either: every stage re-runs
    return state if isinstance(state, dict) else {}


def _store_state(workdir: Path, state: dict) -> None:
    replace_text(workdir / STATE_FILE, json.dumps(state, sort_keys=True, indent=2))


def _stage_current(workdir: Path, state: dict, name: str, digest: str) -> bool:
    entry = state.get(name)
    if not isinstance(entry, dict) or entry.get("hash") != digest:
        return False
    outputs = entry.get("outputs", [])
    if not isinstance(outputs, list) or not all(isinstance(out, str) for out in outputs):
        return False
    return all((workdir / out).is_file() for out in outputs)


def _drop_stage(workdir: Path, state: dict, name: str) -> None:
    """Forget a stage's hash before the stage rewrites its outputs."""
    if state.pop(name, None) is not None:
        _store_state(workdir, state)


def _mark_stage(workdir: Path, state: dict, name: str, digest: str, outputs) -> None:
    state[name] = {"hash": digest, "outputs": [str(o) for o in outputs]}
    _store_state(workdir, state)


def feature_tools(config: ExperimentConfig) -> tuple:
    """(embed_net, pca, lexicon) for featurize_recording, loaded once per
    corpus or request; None where `config.variant` does not use one."""
    fields = VARIANT_FIELDS[config.variant]
    embed_net = pca = lexicon = None
    if "vggish" in fields:
        if config.vggish_weights:
            embed_net, pca = load_embedding_file(config.vggish_weights)
        else:
            embed_net, pca = make_test_network(), identity_pca()
    if "text" in fields:
        synonyms = load_synonyms(config.synonyms) if config.synonyms else {}
        if config.lexicon:
            lexicon = load_lexicon(config.lexicon, synonyms)
        else:
            lexicon = Lexicon({}, synonyms)
    return embed_net, pca, lexicon


def recording_segments(
    config: ExperimentConfig, audio, strip: bool = True, augment: bool = False
) -> list[list[Segment]]:
    """Read one recording, drop its unvoiced windows (when `strip`), and cut
    it into segments. Returns one group per segment: the original, then its
    noise and pitch variants when `augment` is set. Empty when the recording
    is shorter than one segment."""
    signal = read_wav(audio, config.sample_rate, config.resample)
    if strip:
        signal = strip_unvoiced(signal, config.strip_threshold, config.strip_window_ms)
    segments = segment(signal, config.segment_seconds)
    if not (augment and segments):
        return [[seg] for seg in segments]
    alphas = config.noise_alpha_values()
    semitones = config.pitch_semitone_values()
    per_segment = 1 + len(alphas) + len(semitones)
    expanded = augment_corpus(segments, config.augment_seed, alphas, semitones)
    return [
        expanded[i * per_segment : (i + 1) * per_segment] for i in range(len(segments))
    ]


def featurize_recording(
    config: ExperimentConfig,
    prefix: str,
    audio,
    transcript,
    tools: tuple,
    strip: bool = True,
    augment: bool = False,
) -> dict:
    """Feature tensors of one recording for `config.variant`, keyed
    `prefix/segment/provenance/field` in segment order. The text of a
    segment is shared by its variants. Empty when the recording is shorter
    than one segment; a fusion recording needs a transcript."""
    fields = VARIANT_FIELDS[config.variant]
    embed_net, pca, lexicon = tools
    groups = recording_segments(config, audio, strip, augment)
    words = None
    if groups and "text" in fields:
        if not transcript:
            raise ValueError("fusion variant needs a transcript for each recording")
        words = load_transcript(transcript)
    tensors: dict[str, np.ndarray] = {}
    for seg_index, group in enumerate(groups):
        text = None
        if words is not None:
            text = extract_text(words, seg_index, lexicon, config.text_resize)
        for variant_seg in group:
            sample_id = f"{prefix}/{seg_index:05d}/{variant_seg.provenance}"
            if "mfcc" in fields:
                tensors[f"{sample_id}/mfcc"] = extract_mfcc(variant_seg.signal)
            if "vggish" in fields:
                tensors[f"{sample_id}/vggish"] = extract_vggish(
                    variant_seg.signal, embed_net, pca
                )
            if text is not None:
                tensors[f"{sample_id}/text"] = text
    return tensors


def extract_corpus_features(config: ExperimentConfig, records) -> dict:
    """Compute every sample's feature tensors, keyed
    `subject/segment/provenance/field`. Augmented variants are produced for
    the train split (or for all splits when augment_train_only is off)."""
    tools = feature_tools(config)
    tensors: dict[str, np.ndarray] = {}
    for record in records:
        augment = config.augment and (
            record.split == "train" or not config.augment_train_only
        )
        tensors.update(
            featurize_recording(
                config,
                record.subject_id,
                record.audio_path,
                record.transcript_path,
                tools,
                augment=augment,
            )
        )
    if not tensors:
        raise DataError("no segments long enough to extract features from")
    return tensors


def feature_sets(named: dict, source) -> dict:
    """Group `sample/field` tensors into FeatureSets keyed by sample id, in
    the order the samples first appear."""
    grouped: dict[str, dict] = {}
    for name, tensor in named.items():
        sample_id, _, field_name = name.rpartition("/")
        if not sample_id or field_name not in FeatureSet.__dataclass_fields__:
            raise DataError(f"{source}: unexpected tensor name {name!r}")
        grouped.setdefault(sample_id, {})[field_name] = tensor
    return {sid: FeatureSet(**parts) for sid, parts in grouped.items()}


def features_from_cache(cache_path) -> dict:
    """Read a feature cache back into FeatureSets keyed by sample id."""
    _, named = read_container(cache_path)
    features = feature_sets(named, cache_path)
    if not features:
        raise DataError(f"{cache_path}: empty feature cache")
    return features


def load_feature_table(cache_path, records) -> tuple:
    """Read a feature cache back into FeatureSets plus pairing SampleRefs."""
    features = features_from_cache(cache_path)
    by_subject = {r.subject_id: r for r in records}
    refs = []
    for sample_id in sorted(features):
        subject = sample_id.rsplit("/", 2)[0]
        record = by_subject.get(subject)
        if record is None:
            raise DataError(
                f"{cache_path}: cached subject {subject!r} is not in the manifest"
            )
        refs.append(
            SampleRef(
                sample_id, subject, record.phq_binary, record.phq_score, record.split
            )
        )
    return features, refs


def pair_samples(config: ExperimentConfig, refs) -> PairSet:
    """The config's balanced pairs over `refs`, drawn under `config.seed`."""
    return make_pairs(
        refs, config.pair_mode, config.pairs_per_sample, np.random.default_rng(config.seed)
    )


def train_and_save(
    config: ExperimentConfig, pair_set: PairSet, features: dict, checkpoint, history=None
) -> tuple[SiameseModel, TrainResult]:
    """Build the config's model, train it on the train and val pairs, and
    save the checkpoint; with a `history` path, also write the loss history
    as JSON."""
    model = build_model(config.model_spec())
    result = train(
        model,
        pair_set.train,
        pair_set.val,
        features,
        config.train_config(),
        np.random.default_rng(config.seed),
    )
    save_checkpoint(checkpoint, model)
    if history:
        payload = {
            "train_losses": result.train_losses,
            "val_losses": result.val_losses,
            "best_epoch": result.best_epoch,
            "stopped_early": result.stopped_early,
        }
        replace_text(history, json.dumps(payload, sort_keys=True, indent=2))
    return model, result


def _feature_digest(config: ExperimentConfig, records) -> str:
    parts = [
        "features",
        config.variant,
        config.sample_rate,
        config.resample,
        config.strip_threshold,
        config.strip_window_ms,
        config.segment_seconds,
        config.augment,
        config.augment_train_only,
        config.augment_seed,
        config.noise_alphas,
        config.pitch_semitones,
        config.text_resize,
        config.split_seed,
        Path(config.manifest),
    ]
    for record in records:
        parts.append(record.subject_id)
        parts.append(record.split)
        parts.append(record.audio_path)
        parts.append(record.transcript_path)
    for optional in (config.vggish_weights, config.lexicon, config.synonyms):
        if optional:
            parts.append(Path(optional))
    return _digest(parts)


def run_pipeline(config: ExperimentConfig, log=None) -> PipelineResult:
    """Run every stage, reusing cached stage outputs whose inputs are
    unchanged. Returns the evaluation report and the artifact paths."""
    config.validate()
    if not config.manifest:
        raise DataError("config.manifest is not set")
    workdir = Path(config.workdir)
    (workdir / "cache").mkdir(parents=True, exist_ok=True)
    state = _load_state(workdir)
    paths = {
        "cache": workdir / "cache" / f"features-{config.variant}.oswt",
        "pairs": workdir / "pairs.csv",
        "checkpoint": workdir / "checkpoint.oswt",
        "history": workdir / "history.json",
        "report": workdir / "report.json",
        "confusion": workdir / "confusion.txt",
    }
    relative = {name: path.relative_to(workdir) for name, path in paths.items()}

    with _stage("ingest"):
        records = load_manifest(config.manifest, config.split_seed)
    _say(log, f"ingest: {len(records)} subjects")

    with _stage("features"):
        digest = _feature_digest(config, records)
        if _stage_current(workdir, state, "features", digest):
            _say(log, "features: cache up to date")
        else:
            tensors = extract_corpus_features(config, records)
            _drop_stage(workdir, state, "features")
            write_container(paths["cache"], [], tensors)
            _mark_stage(workdir, state, "features", digest, [relative["cache"]])
            _say(log, f"features: cached {len(tensors)} tensors")
        features, refs = load_feature_table(paths["cache"], records)

    with _stage("pairs"):
        digest = _digest(
            [
                "pairs",
                state["features"]["hash"],
                config.pair_mode,
                config.pairs_per_sample,
                config.seed,
            ]
        )
        if _stage_current(workdir, state, "pairs", digest):
            pair_set = read_pairs_csv(paths["pairs"])
            _say(log, "pairs: list up to date")
        else:
            pair_set = pair_samples(config, refs)
            _drop_stage(workdir, state, "pairs")
            write_pairs_csv(pair_set, paths["pairs"])
            _mark_stage(workdir, state, "pairs", digest, [relative["pairs"]])
            _say(
                log,
                "pairs: train/val/test = "
                f"{len(pair_set.train)}/{len(pair_set.val)}/{len(pair_set.test)}",
            )
        if not pair_set.train:
            raise DataError("pairing produced no train pairs; check the train split")
        if not pair_set.val:
            raise DataError("pairing produced no val pairs; check the val split")
        if not pair_set.test:
            raise DataError("pairing produced no test pairs; check the test split")

    with _stage("train"):
        digest = _digest(
            [
                "train",
                state["pairs"]["hash"],
                config.seed,
                config.batch_size,
                config.epochs,
                config.lr,
                config.decay,
                config.patience,
                config.dropout,
                config.filters,
                config.kernel,
                config.stride,
                config.dense_width,
                config.fusion_width,
            ]
        )
        train_result = None
        if _stage_current(workdir, state, "train", digest):
            model = load_checkpoint(paths["checkpoint"])
            _say(log, "train: checkpoint up to date")
        else:
            _drop_stage(workdir, state, "train")
            model, train_result = train_and_save(
                config, pair_set, features, paths["checkpoint"], paths["history"]
            )
            _mark_stage(
                workdir,
                state,
                "train",
                digest,
                [relative["checkpoint"], relative["history"]],
            )
            _say(
                log,
                f"train: {len(train_result.val_losses)} epochs, "
                f"best val loss {min(train_result.val_losses):.4f} "
                f"at epoch {train_result.best_epoch}",
            )

    with _stage("eval"):
        digest = _digest(["eval", state["train"]["hash"]])
        if _stage_current(workdir, state, "eval", digest):
            report = _read_report(paths["report"])
            _say(log, "eval: report up to date")
        else:
            report = evaluate(model, pair_set.test, features, config.batch_size)
            _drop_stage(workdir, state, "eval")
            replace_text(paths["report"], report.to_json() + "\n")
            replace_text(paths["confusion"], render_confusion(report))
            _mark_stage(
                workdir,
                state,
                "eval",
                digest,
                [relative["report"], relative["confusion"]],
            )
            _say(log, f"eval: accuracy {report.accuracy:.2f}% on {report.total} pairs")

    return PipelineResult(
        workdir=workdir,
        report=report,
        paths=paths,
        sample_count=len(features),
        pair_counts={
            "train": len(pair_set.train),
            "val": len(pair_set.val),
            "test": len(pair_set.test),
        },
        train_result=train_result,
    )


def _read_report(path) -> EvalReport:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return EvalReport(
            mode=payload["mode"],
            total=payload["total"],
            accuracy=payload["accuracy"],
            rmse=payload["rmse"],
            pearson_cc=payload["pearson_cc"],
            confusion=np.asarray(payload["confusion"], dtype=np.int64),
            class_names=tuple(payload["class_names"]),
            normalized_rmse=payload["normalized_rmse"],
        )
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: unreadable report ({exc})") from exc
