"""End-to-end experiment runner: ingest, feature extraction with caching,
pair generation, training, and evaluation.

This module alone decides how a recording becomes feature tensors
(`featurize_recording`), how samples are paired (`pair_samples`) and how a
model is trained and saved (`train_and_save`); the command line calls the
same functions.

Featurization is cut at one level, the variant units of a segment
(`preprocess.segment_units`): its original, its noise variants as one unit,
and each pitch variant. Recordings are featurized one at a time in
manifest order. The calling thread reads, strips and cuts a recording and
makes each segment's text; the recording's units then run in shares on the
package's workers (`workers._map_in_shares`), each building its variants
from the original segment one at a time and running the extractors on
them, and their tensors merge in unit order. The extractors themselves cut
nothing, so every tensor, its name and its order are those of featurizing
every variant in turn on one thread.

Every cached stage (features, pairs, train, eval) runs through one rule,
`_cached_stage`. A stage whose input hash (files plus the config fields it
depends on) matches its entry in `stage_state.json` under the working
directory, and whose outputs still exist, loads those outputs, so re-running
a finished experiment touches nothing and changing one knob re-runs only the
stages downstream of it. Any other stage drops its entry, builds and writes
its outputs, then records its new entry: outputs of a crashed or failed build
are never served under any hash, and a failed build costs at most a rebuild.
Every output and the state file are written under a temporary name and
renamed into place (`errors.replace_file`), so none is ever left half-written.
A skipped stage reads only what a later stage uses: the features stage yields
the sample refs from the cache's tensor names, the feature tensors are read
only when train or eval rebuilds, and the checkpoint only when eval does.
"""

import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import cache, partial
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .container import read_container, tensor_names, write_container
from .dsp import SAMPLE_RATE, SEGMENT_SECONDS
from .errors import DataError, NumericError, make_dir, replace_text
from .manifest import SPLITS, load_manifest, read_wav
from .metrics import EvalReport, evaluate, render_confusion
from .mfcc import extract_mfcc
from .models import (
    VARIANT_FIELDS,
    FeatureSet,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from .pairs import PairSet, SampleRef, make_pairs, read_pairs_csv, write_pairs_csv
from .preprocess import (
    NOISE_ALPHAS,
    PITCH_SEMITONES,
    STRIP_THRESHOLD,
    STRIP_WINDOW_MS,
    segment,
    segment_units,
    strip_unvoiced,
)
from .textfeat import Lexicon, extract_text, load_lexicon, load_synonyms, load_transcript
from .training import TrainResult, train
from .vggish import extract_vggish, identity_pca, load_embedding_file, make_test_network
from .workers import _map_in_shares

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


_DIGEST_CHUNK = 1 << 20  # a file is hashed in reads of this many bytes


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, Path):
            with open(part, "rb") as fh:
                for chunk in iter(partial(fh.read, _DIGEST_CHUNK), b""):
                    h.update(chunk)
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


def _recording_units(config: ExperimentConfig, audio, strip: bool, augment: bool) -> list:
    """Read one recording, drop its unvoiced windows (when `strip`), and cut
    it into segments: each segment's variant units, with its noise and pitch
    variants, seeded by the augment seed, only when `augment` is set."""
    signal = read_wav(audio, config.resample)
    if strip:
        signal = strip_unvoiced(signal)
    return segment_units(segment(signal), config.augment_seed if augment else None)


def _featurize_unit(fields, tools: tuple, unit: tuple) -> dict:
    """The feature tensors of one (sample id prefix, variant unit, text)
    unit, keyed `prefix/segment/provenance/field`, its variants built one at
    a time."""
    sample_prefix, variants, text = unit
    embed_net, pca, _ = tools
    tensors: dict[str, np.ndarray] = {}
    for variant in variants():
        sample_id = f"{sample_prefix}/{variant.provenance}"
        if "mfcc" in fields:
            tensors[f"{sample_id}/mfcc"] = extract_mfcc(variant.signal)
        if "vggish" in fields:
            tensors[f"{sample_id}/vggish"] = extract_vggish(variant.signal, embed_net, pca)
        if text is not None:
            tensors[f"{sample_id}/text"] = text
    return tensors


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
    than one segment; a fusion recording needs a transcript.

    The recording is read, stripped and cut, and each segment's text made,
    on the calling thread; then the segments' variant units run in shares
    (workers._map_in_shares) and their tensors merge in unit order. Inside
    a share, such as one recording of a predict-relapse request, the units
    run inline."""
    fields = VARIANT_FIELDS[config.variant]
    by_segment = _recording_units(config, audio, strip, augment)
    words = None
    if by_segment and "text" in fields:
        if not transcript:
            raise ValueError("fusion variant needs a transcript for each recording")
        words = load_transcript(transcript)
    units = []
    for seg_index, seg_units in enumerate(by_segment):
        text = None
        if words is not None:
            text = extract_text(words, seg_index, tools[2])
        units += [(f"{prefix}/{seg_index:05d}", unit, text) for unit in seg_units]
    tensors: dict[str, np.ndarray] = {}
    for part in _map_in_shares(partial(_featurize_unit, fields, tools), units):
        tensors.update(part)
    return tensors


def extract_corpus_features(config: ExperimentConfig, records) -> dict:
    """Compute every sample's feature tensors, keyed
    `subject/segment/provenance/field`. Augmented variants are produced for
    the train split alone. Recordings are featurized one at a time, in
    manifest order, so one recording's audio is held at a time."""
    tools = feature_tools(config)
    tensors: dict[str, np.ndarray] = {}
    for record in records:
        augment = config.augment and record.split == "train"
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


def _sample_field(name: str, source) -> tuple[str, str]:
    """The (sample id, FeatureSet field) a `sample/field` tensor name holds."""
    sample_id, _, field_name = name.rpartition("/")
    if not sample_id or field_name not in FeatureSet.__dataclass_fields__:
        raise DataError(f"{source}: unexpected tensor name {name!r}")
    return sample_id, field_name


def feature_sets(named: dict, source) -> dict:
    """Group `sample/field` tensors into FeatureSets keyed by sample id, in
    the order the samples first appear."""
    grouped: dict[str, dict] = {}
    for name, tensor in named.items():
        sample_id, field_name = _sample_field(name, source)
        grouped.setdefault(sample_id, {})[field_name] = tensor
    return {sid: FeatureSet(**parts) for sid, parts in grouped.items()}


def features_from_cache(cache_path) -> dict:
    """Read a feature cache back into FeatureSets keyed by sample id, each
    matrix a read-only float32 view of the mapped cache (read_container)."""
    _, named = read_container(cache_path)
    features = feature_sets(named, cache_path)
    if not features:
        raise DataError(f"{cache_path}: empty feature cache")
    return features


def load_feature_table(cache_path, records) -> tuple:
    """Read a feature cache back into FeatureSets plus pairing SampleRefs."""
    features = features_from_cache(cache_path)
    return features, _sample_refs(features, records, cache_path)


def cache_refs(cache_path, records) -> list[SampleRef]:
    """load_feature_table's SampleRefs from the cache's tensor names alone:
    no tensor data is read."""
    ids = {_sample_field(name, cache_path)[0] for name in tensor_names(cache_path)}
    if not ids:
        raise DataError(f"{cache_path}: empty feature cache")
    return _sample_refs(ids, records, cache_path)


def _sample_refs(sample_ids, records, cache_path) -> list[SampleRef]:
    """The pairing SampleRef of each sample id, in sorted id order."""
    by_subject = {r.subject_id: r for r in records}
    refs = []
    for sample_id in sorted(sample_ids):
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
    return refs


def pair_samples(config: ExperimentConfig, refs) -> PairSet:
    """The config's balanced pairs over `refs`, drawn under `config.seed`."""
    return make_pairs(
        refs, config.pair_mode, config.pairs_per_sample, np.random.default_rng(config.seed)
    )


def train_and_save(
    config: ExperimentConfig, pair_set: PairSet, features: dict, checkpoint, history=None
) -> TrainResult:
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
        replace_text(history, json.dumps(asdict(result), sort_keys=True, indent=2))
    return result


def _feature_parts(config: ExperimentConfig, records) -> list:
    # the fixed segment format, gate, augmentation and text truncation are
    # hashed where their removed keys were, as the keys' defaults printed,
    # so caches made while those keys existed still match
    parts = [
        "features",
        config.variant,
        SAMPLE_RATE,
        config.resample,
        STRIP_THRESHOLD,
        STRIP_WINDOW_MS,
        SEGMENT_SECONDS,
        config.augment,
        True,
        config.augment_seed,
        ",".join(f"{a:g}" for a in NOISE_ALPHAS),
        ",".join(f"{s:g}" for s in PITCH_SEMITONES),
        "truncate",
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
    return parts


def _pair_parts(config: ExperimentConfig, features_hash: str) -> list:
    return ["pairs", features_hash, config.pair_mode, config.pairs_per_sample, config.seed]


def _train_parts(config: ExperimentConfig, pairs_hash: str) -> list:
    return [
        "train",
        pairs_hash,
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


def _cached_stage(workdir, state, log, name, what, parts, outputs, build, load):
    """Run one cached stage and return its value. When the digest of `parts`
    matches the stage's entry and its `outputs` exist, the value is
    `load(outputs[0])` and the log says `<name>: <what> up to date`.
    Otherwise the entry is dropped, `build()` writes the outputs and returns
    the value with its log line, and the new entry is recorded."""
    with _stage(name):
        digest = _digest(parts)
        if _stage_current(workdir, state, name, digest):
            value = load(outputs[0])
            log(f"{name}: {what} up to date")
            return value
        if state.pop(name, None) is not None:
            _store_state(workdir, state)
        value, line = build()
        _mark_stage(workdir, state, name, digest, [o.relative_to(workdir) for o in outputs])
        log(line)
        return value


def run_pipeline(config: ExperimentConfig, log=None) -> PipelineResult:
    """Run every stage, reusing cached stage outputs whose inputs are
    unchanged. Returns the evaluation report and the artifact paths."""
    config.validate()
    if not config.manifest:
        raise DataError("config.manifest is not set")
    log = log or (lambda message: None)
    workdir = Path(config.workdir)
    make_dir(workdir / "cache")
    state = _load_state(workdir)
    paths = {
        "cache": workdir / "cache" / f"features-{config.variant}.oswt",
        "pairs": workdir / "pairs.csv",
        "checkpoint": workdir / "checkpoint.oswt",
        "history": workdir / "history.json",
        "report": workdir / "report.json",
        "confusion": workdir / "confusion.txt",
    }
    stage = partial(_cached_stage, workdir, state, log)

    with _stage("ingest"):
        records = load_manifest(config.manifest, config.split_seed)
    log(f"ingest: {len(records)} subjects")

    load_refs = partial(cache_refs, records=records)
    # read once, when train or eval rebuilds: the float32 values the cache
    # holds, whether this run wrote it or a previous one did
    features = cache(partial(features_from_cache, paths["cache"]))

    def build_features():
        tensors = extract_corpus_features(config, records)
        write_container(paths["cache"], [], tensors)
        return load_refs(paths["cache"]), f"features: cached {len(tensors)} tensors"

    feature_parts = _feature_parts(config, records)
    refs = stage(
        "features", "cache", feature_parts, [paths["cache"]], build_features, load_refs
    )

    def build_pairs():
        pair_set = pair_samples(config, refs)
        write_pairs_csv(pair_set, paths["pairs"])
        counts = "/".join(str(len(getattr(pair_set, split))) for split in SPLITS)
        return pair_set, f"pairs: train/val/test = {counts}"

    pair_set = stage(
        "pairs", "list", _pair_parts(config, state["features"]["hash"]), [paths["pairs"]],
        build_pairs, read_pairs_csv,
    )
    with _stage("pairs"):
        for split in SPLITS:
            if not getattr(pair_set, split):
                raise DataError(f"pairing produced no {split} pairs; check the {split} split")

    def build_model():
        result = train_and_save(
            config, pair_set, features(), paths["checkpoint"], paths["history"]
        )
        line = (
            f"train: {len(result.val_losses)} epochs, "
            f"best val loss {min(result.val_losses):.4f} at epoch {result.best_epoch}"
        )
        return result, line

    train_result = stage(
        "train", "checkpoint", _train_parts(config, state["pairs"]["hash"]),
        [paths["checkpoint"], paths["history"]], build_model, lambda checkpoint: None,
    )

    def build_report():
        # the weights as saved, whether this run trained them or not, so that
        # the report is a function of the eval stage's digest
        model = load_checkpoint(paths["checkpoint"])
        report = evaluate(model, pair_set.test, features())
        replace_text(paths["report"], report.to_json() + "\n")
        replace_text(paths["confusion"], render_confusion(report))
        return report, f"eval: accuracy {report.accuracy:.2f}% on {report.total} pairs"

    report = stage(
        "eval", "report", ["eval", state["train"]["hash"]],
        [paths["report"], paths["confusion"]], build_report, EvalReport.from_json,
    )

    return PipelineResult(
        workdir=workdir,
        report=report,
        paths=paths,
        sample_count=len(refs),
        pair_counts={split: len(getattr(pair_set, split)) for split in SPLITS},
        train_result=train_result,
    )
