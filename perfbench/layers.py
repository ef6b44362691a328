"""Per-layer metrics from the spans of a traced run.

Unless a name says otherwise, a `_s` metric is the mean inclusive duration
of one call, over every call in the traced phase; a count or byte metric is
per job, where the job is a cold pipeline run, a `train()` call or a
`predict-relapse` request (the workload's `job`). Spans are grouped by
request id: one per relapse request, and one per training batch inside
`train()`. Self time is a span's duration minus its children's.
A layer the workload does not reach reads 0.
"""

from collections import defaultdict

import probe
from tracing import roots, self_seconds

STAGES = {
    "ingest": ("manifest.load_manifest",),
    "features": (
        "pipeline.extract_corpus_features",
        "container.write_container",
        "pipeline.load_feature_table",
    ),
    "pairs": ("pairs.make_pairs", "pairs.write_pairs_csv", "pairs.read_pairs_csv"),
    "train": (
        "models.build_model",
        "training.train",
        "models.save_checkpoint",
        "models.load_checkpoint",
    ),
    "eval": ("metrics.evaluate", "metrics.render_confusion"),
}
_CALL_TIMES = (
    "manifest.read_wav",
    "manifest.load_manifest",
    "preprocess.strip_unvoiced",
    "preprocess.segment",
    "preprocess.augment_corpus",
    "vggish.log_mel_spectrogram",
    "vggish.embed",
    "textfeat.load_transcript",
    "textfeat.extract_text",
    "container.write_container",
    "container.read_container",
    "pairs.make_pairs",
    "models.load_checkpoint",
    "models.stack_inputs",
    "models.encode",
    "models.detect_relapse",
    "autodiff.backward",
    "autodiff.rmsprop_step",
    "autodiff.zero_grad",
    "training.evaluate_loss",
    "training.train",
    "metrics.evaluate",
    "cli.main",
)
_PROBE_UNITS = {"fwd_s": "s", "bwd_s": "s", "gemm_floor_s": "s", "flops": "flop", "bytes": "B"}

# name -> (unit, better); the order is the order of the printed table
PER_LAYER = {f"{name}_s": ("s", "lower") for name in _CALL_TIMES}
PER_LAYER.update(
    {
        "preprocess.segments": ("count", "higher"),
        "mfcc.extract_mfcc_s_per_segment": ("s", "lower"),
        "mfcc.extract_mfcc_calls": ("count", "lower"),
        "dsp.dft_magnitude_calls_per_segment": ("count", "lower"),
        "vggish.extract_vggish_s_per_segment": ("s", "lower"),
        "vggish.embed_calls_per_segment": ("count", "lower"),
        "container.bytes_written": ("B", "lower"),
        "container.bytes_read": ("B", "lower"),
        "pairs.count.train": ("count", "higher"),
        "pairs.count.val": ("count", "higher"),
        "pairs.count.test": ("count", "higher"),
        **{f"pipeline.stage.{stage}_s": ("s", "lower") for stage in STAGES},
        "pipeline.stages_skipped": ("count", "higher"),
        "pipeline.warm_self_s": ("s", "lower"),
        "models.encode_calls": ("count", "lower"),
        "models.encode_rows": ("count", "lower"),
        "models.encode_unique_ratio": ("share", "higher"),
        **{
            f"autodiff.{op}.{key}": (unit, "lower")
            for op in probe.OPS
            for key, unit in _PROBE_UNITS.items()
        },
        "training.step_s": ("s", "lower"),
        "training.step_forward_s": ("s", "lower"),
        "training.step_backward_s": ("s", "lower"),
        "training.step_optimizer_s": ("s", "lower"),
        "training.pairs": ("count", "higher"),
        "training.loss_final": ("rmse", "lower"),
        "metrics.evaluate_pairs_per_s": ("1/s", "higher"),
        "cli.self_s": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
        "trace.overhead_share": ("share", "lower"),
    }
)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer, job: str, probe_table: dict, overhead_s: float, untraced_s: float) -> dict:
    spans = tracer.spans
    own = self_seconds(spans)
    top = roots(spans)
    by_name, kids = defaultdict(list), defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span.name].append(index)
        if span.parent >= 0:
            kids[span.parent].append(index)
    jobs = set(by_name[f"op.{job}"])
    n_jobs = max(1, len(jobs))

    def durations(name):
        return [spans[i].seconds for i in by_name[name]]

    def in_jobs(name):
        return [i for i in by_name[name] if top[i] in jobs]

    def per_job(name, key=None):
        picked = in_jobs(name)
        if key is None:
            return len(picked) / n_jobs
        return sum(spans[i].info.get(key, 0) for i in picked) / n_jobs

    def children(index, names):
        return sum(spans[c].seconds for c in kids[index] if spans[c].name in names)

    out = {f"{name}_s": _mean(durations(name)) for name in _CALL_TIMES}
    mfcc_calls = len(by_name["mfcc.extract_mfcc"])
    vggish_calls = len(by_name["vggish.extract_vggish"])
    out["preprocess.segments"] = per_job("preprocess.segment", "segments")
    out["mfcc.extract_mfcc_s_per_segment"] = _mean(durations("mfcc.extract_mfcc"))
    out["mfcc.extract_mfcc_calls"] = per_job("mfcc.extract_mfcc")
    out["dsp.dft_magnitude_calls_per_segment"] = (
        tracer.counts.get("dsp.dft_magnitude", 0) / mfcc_calls if mfcc_calls else 0.0
    )
    out["vggish.extract_vggish_s_per_segment"] = _mean(durations("vggish.extract_vggish"))
    out["vggish.embed_calls_per_segment"] = (
        len(by_name["vggish.embed"]) / vggish_calls if vggish_calls else 0.0
    )
    out["container.bytes_written"] = per_job("container.write_container", "bytes")
    out["container.bytes_read"] = per_job("container.read_container", "bytes")
    for split in ("train", "val", "test"):
        out[f"pairs.count.{split}"] = _mean(spans[i].info[split] for i in by_name["pairs.make_pairs"])

    # the stage callees, timed where run_pipeline calls them
    cold_runs = [i for i in by_name["pipeline.run_pipeline"] if top[i] in jobs]
    for stage, names in STAGES.items():
        out[f"pipeline.stage.{stage}_s"] = _mean(children(i, names) for i in cold_runs)
    warm_ops = by_name["op.warm"]
    out["pipeline.stages_skipped"] = _mean(spans[i].info.get("skipped", 0) for i in warm_ops)
    warm_ids = set(warm_ops)
    out["pipeline.warm_self_s"] = _mean(
        own[i] for i in by_name["pipeline.run_pipeline"] if top[i] in warm_ids
    )

    out["models.encode_calls"] = per_job("models.encode")
    out["models.encode_rows"] = per_job("models.encode", "rows")
    distinct, rows = defaultdict(set), defaultdict(int)
    for i in in_jobs("models.stack_inputs"):
        distinct[spans[i].request].update(spans[i].info["ids"])
    for i in in_jobs("models.encode"):
        rows[spans[i].request] += spans[i].info["rows"]
    total_rows = sum(rows.values())
    out["models.encode_unique_ratio"] = (
        sum(len(distinct[r]) for r in rows) / total_rows if total_rows else 0.0
    )

    for op, entry in probe_table.items():
        for key, value in entry.items():
            out[f"autodiff.{op}.{key}"] = value

    batches = by_name["training.batch"]
    backward = [children(i, ("autodiff.backward",)) for i in batches]
    optimizer = [children(i, ("autodiff.rmsprop_step", "autodiff.zero_grad")) for i in batches]
    out["training.step_s"] = _mean(durations("training.batch"))
    out["training.step_backward_s"] = _mean(backward)
    out["training.step_optimizer_s"] = _mean(optimizer)
    out["training.step_forward_s"] = _mean(
        spans[i].seconds - b - o for i, b, o in zip(batches, backward, optimizer)
    )
    out["training.pairs"] = per_job("training.train", "pairs")
    out["training.loss_final"] = _mean(
        spans[i].info["loss_final"] for i in by_name["training.train"]
    )

    evaluated = by_name["metrics.evaluate"]
    busy = sum(spans[i].seconds for i in evaluated)
    out["metrics.evaluate_pairs_per_s"] = (
        sum(spans[i].info["pairs"] for i in evaluated) / busy if busy else 0.0
    )
    out["cli.self_s"] = _mean(own[i] for i in by_name["cli.main"])
    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_share"] = overhead_s / untraced_s if untraced_s else 0.0
    return {name: (out[name], unit) for name, (unit, _) in PER_LAYER.items()}
