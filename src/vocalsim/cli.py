"""Command-line interface: a thin layer over `ExperimentConfig` and the
pipeline.

Subcommands mirror the library stages: `preprocess` (strip + segment +
optional augmentation to WAV files), `extract` (feature cache from one WAV),
`pair`, `train`, `eval`, `predict-relapse`, and `run` for the whole pipeline.
A flag named after an `ExperimentConfig` key takes that key's type and
default (`--mode` sets `pair_mode`, `--threshold` sets `relapse_threshold`),
and each handler turns its flags into a config, so a recording is featurized
and a model trained exactly as `run_pipeline` does it.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import PAIR_MODES, ExperimentConfig, apply_overrides, load_config
from .container import write_container
from .errors import DataError, NumericError, make_dir, replace_text
from .manifest import SPLITS, load_manifest, write_wav
from .metrics import evaluate, render_confusion
from .models import VARIANT_FIELDS, VARIANTS, detect_relapse, load_checkpoint
from .pairs import read_pairs_csv, write_pairs_csv
from .pipeline import (
    _recording_units,
    cache_refs,
    feature_sets,
    feature_tools,
    features_from_cache,
    featurize_recording,
    pair_samples,
    run_pipeline,
    train_and_save,
)
from .workers import _map_in_shares

_DEFAULTS = ExperimentConfig()


def _config_flag(parser, flag, key=None, **kwargs):
    """Add `--flag` for the config key `key` (the flag name with dashes as
    underscores unless given), typed and defaulted from ExperimentConfig()."""
    key = key or flag.replace("-", "_")
    default = getattr(_DEFAULTS, key)
    if not isinstance(default, bool):
        kwargs.setdefault("type", type(default))
    parser.add_argument(f"--{flag}", dest=key, default=default, **kwargs)


def _config(args) -> ExperimentConfig:
    """The validated config the parsed flags describe; keys without a flag
    keep their defaults. A bad value is a DataError naming its key, as for
    `run --set`."""
    given = vars(args)
    keys = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name in given]
    return ExperimentConfig(**{key: given[key] for key in keys}).validate()


def _reject_transcripts(variant: str, **flags) -> None:
    """Usage error for transcript flags given to a variant that reads no text."""
    given = [f"--{name.replace('_', '-')}" for name, value in flags.items() if value]
    if given and "text" not in VARIANT_FIELDS[variant]:
        raise ValueError(
            f"{' and '.join(given)} given, but the {variant} variant reads no transcript"
        )


def _add_augment_flags(parser):
    # unlike the config key `augment`, off unless asked for
    parser.add_argument(
        "--augment",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="also emit noise and pitch variants",
    )
    _config_flag(parser, "augment-seed")


def _add_model_flags(parser):
    _config_flag(parser, "variant", choices=VARIANTS)
    _config_flag(parser, "mode", "pair_mode", choices=PAIR_MODES)
    for flag in ("filters", "kernel", "stride", "dropout", "dense-width", "fusion-width"):
        _config_flag(parser, flag)


def _add_text_flags(parser):
    _config_flag(parser, "lexicon", help="word-vector file in fastText text format")
    _config_flag(parser, "synonyms", help="TSV word-to-synonym fallbacks")


def _recording_sets(config, audio, transcript, tools, strip) -> list:
    """FeatureSets of one recording's original segments, in segment order."""
    tensors = featurize_recording(config, Path(audio).stem, audio, transcript, tools, strip)
    if not tensors:
        raise DataError(f"{audio}: no segment is long enough to analyze")
    return list(feature_sets(tensors, audio).values())


# ---- subcommand handlers -------------------------------------------------


def _cmd_preprocess(args) -> int:
    out_dir = Path(args.out_dir)
    make_dir(out_dir)
    stem = Path(args.audio).stem
    by_segment = _recording_units(_config(args), stem, args.audio, args.strip, args.augment)
    if not by_segment:
        raise DataError(f"{args.audio}: no segment is long enough to write")
    count = 0
    # each variant is written as its unit builds it, so one is held at a time
    for index, units in enumerate(by_segment):
        for unit in units:
            for seg in unit():
                write_wav(out_dir / f"{stem}-{index:05d}-{seg.provenance}.wav", seg.signal)
                count += 1
    print(f"wrote {count} segment files to {out_dir}")
    return 0


def _cmd_extract(args) -> int:
    config = _config(args)
    _reject_transcripts(config.variant, transcript=args.transcript)
    tensors = featurize_recording(
        config,
        Path(args.audio).stem,
        args.audio,
        args.transcript,
        feature_tools(config),
        args.strip,
        args.augment,
    )
    if not tensors:
        raise DataError(f"{args.audio}: no segment is long enough to analyze")
    write_container(args.out, [], tensors)
    # a sample id is segment/provenance: --augment makes several per segment
    samples = feature_sets(tensors, args.audio)
    segments = len({sample_id.rpartition("/")[0] for sample_id in samples})
    detail = f" ({len(samples)} samples)" if len(samples) != segments else ""
    print(f"cached {len(tensors)} tensors for {segments} segments{detail} in {args.out}")
    return 0


def _cmd_pair(args) -> int:
    config = _config(args)
    records = load_manifest(config.manifest, config.split_seed, check_audio=False)
    refs = cache_refs(args.cache, records)
    pair_set = pair_samples(config, refs)
    write_pairs_csv(pair_set, args.out)
    print(
        f"wrote {args.out}: train/val/test = "
        f"{len(pair_set.train)}/{len(pair_set.val)}/{len(pair_set.test)}"
    )
    return 0


def _cmd_train(args) -> int:
    features = features_from_cache(args.cache)
    pair_set = read_pairs_csv(args.pairs)
    if not pair_set.train or not pair_set.val:
        raise DataError(f"{args.pairs}: needs both train and val pairs")
    result = train_and_save(_config(args), pair_set, features, args.out, args.history)
    print(
        f"trained {len(result.val_losses)} epochs "
        f"(best val loss {min(result.val_losses):.4f} at epoch {result.best_epoch}); "
        f"saved {args.out}"
    )
    return 0


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.model)
    features = features_from_cache(args.cache)
    pair_set = read_pairs_csv(args.pairs)
    pairs = pair_set.for_split(args.split)
    if not pairs:
        raise DataError(f"{args.pairs}: no pairs in split {args.split!r}")
    report = evaluate(model, pairs, features)
    if args.report:
        replace_text(args.report, report.to_json() + "\n")
    if args.confusion:
        replace_text(args.confusion, render_confusion(report))
    print(render_confusion(report))
    print(
        f"accuracy {report.accuracy:.2f}%  rmse {report.rmse:.4f}  "
        f"cc {report.pearson_cc:.4f}"
        + (
            f"  normalized rmse {report.normalized_rmse:.4f}"
            if report.normalized_rmse is not None
            else ""
        )
    )
    return 0


def _cmd_predict_relapse(args) -> int:
    if len(args.reference_audio) == 0:
        raise ValueError("at least one --reference-audio is required")
    config = _config(args)
    model = load_checkpoint(args.model)
    config.variant = model.spec.variant
    _reject_transcripts(
        config.variant,
        transcript=args.transcript,
        reference_transcript=args.reference_transcript,
    )
    if config.variant == "fusion":
        refs_t = args.reference_transcript or []
        if len(refs_t) != len(args.reference_audio):
            raise ValueError(
                "fusion variant needs one --reference-transcript per --reference-audio"
            )
    else:
        refs_t = [None] * len(args.reference_audio)
    tools = feature_tools(config)
    # the subject recording, then each reference: each is featurized in a
    # share of its own, and a bad one is reported as the loop in argument
    # order would report it
    recordings = [(args.audio, args.transcript), *zip(args.reference_audio, refs_t)]
    subject_sets, *reference_groups = _map_in_shares(
        lambda rec: _recording_sets(config, *rec, tools, args.strip), recordings
    )
    reference_sets = [fs for group in reference_groups for fs in group]
    decision = detect_relapse(model, subject_sets, reference_sets, config.relapse_threshold)
    verdict = "relapse" if decision.relapse else "no relapse"
    print(
        f"{verdict}: mean similarity {decision.mean_similarity:.4f} over "
        f"{decision.num_pairs} pairs (threshold {config.relapse_threshold})"
    )
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config) if args.config else ExperimentConfig()
    apply_overrides(config, args.set or [])
    result = run_pipeline(config, log=print)
    print(render_confusion(result.report))
    print(f"report written to {result.paths['report']}")
    return 0


# ---- parser wiring -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vocalsim",
        description="Speech-similarity experiments for depression-relapse detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_flags(p, strip_default=True):
        _config_flag(p, "resample", action="store_true")
        p.add_argument(
            "--strip",
            action=argparse.BooleanOptionalAction,
            default=strip_default,
            help="drop low-energy windows before segmenting",
        )

    p = sub.add_parser("preprocess", help="strip, segment, and augment one recording")
    p.add_argument("--audio", required=True)
    p.add_argument("--out-dir", required=True)
    add_io_flags(p)
    _add_augment_flags(p)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("extract", help="write a feature cache for one recording")
    p.add_argument("--audio", required=True)
    p.add_argument("--out", required=True)
    _config_flag(p, "variant", choices=VARIANTS)
    _config_flag(p, "vggish-weights")
    # extract expects prepared segments, so it does not strip by default
    add_io_flags(p, strip_default=False)
    _add_augment_flags(p)
    p.add_argument("--transcript", help="TSV transcript (fusion variant)")
    _add_text_flags(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("pair", help="build train/val/test pairs from a feature cache")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--out", required=True)
    _config_flag(p, "mode", "pair_mode", choices=PAIR_MODES)
    for flag in ("pairs-per-sample", "seed", "split-seed"):
        _config_flag(p, flag)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("train", help="train a similarity model on cached features")
    p.add_argument("--cache", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--history")
    _add_model_flags(p)
    for flag in ("batch-size", "epochs", "lr", "decay", "patience", "seed"):
        _config_flag(p, flag)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a pair split with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--report")
    p.add_argument("--confusion")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "predict-relapse",
        help="compare a recording against reference depressed recordings",
    )
    p.add_argument("--model", required=True)
    p.add_argument("--audio", required=True)
    p.add_argument("--transcript")
    p.add_argument(
        "--reference-audio",
        action="append",
        default=[],
        help="repeatable; recordings of diagnosed subjects",
    )
    p.add_argument("--reference-transcript", action="append", default=[])
    _config_flag(p, "threshold", "relapse_threshold", metavar="THRESHOLD")
    _config_flag(p, "vggish-weights")
    _add_text_flags(p)
    add_io_flags(p)
    p.set_defaults(func=_cmd_predict_relapse)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="repeatable config override",
    )
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
