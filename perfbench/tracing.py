"""Spans recorded from outside the package.

`instrument` swaps the package's public functions and methods for wrappers
that record one span per call: name, start, end, parent span and request
id. A function imported by name into other modules (`from .mfcc import
extract_mfcc`) is swapped in every module that holds it, so each call site
is timed. Spans stay in memory; `Tracer.write` stores them as JSON lines at
the end of the run. Nothing inside `src/` changes.

Training batches have no function of their own, so the wrapper of
`RMSProp.zero_grad` opens a `training.batch` span with its own request id
and the wrapper of `RMSProp.step` closes it.
"""

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

import vocalsim.cli  # noqa: F401  (its by-name imports must be swapped too)
from vocalsim import autodiff, models


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into Tracer.spans, -1 for a root
    request: str
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """Span store. A disabled tracer records nothing, so workload code can
    open its operation spans the same way in untraced runs; `pause` keeps
    the benchmark's own checks out of the trace."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.paused = False
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._batch: int | None = None
        self._batches = 0

    @contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def open(self, name: str, request: str | None = None) -> int:
        if not self.enabled:
            return -1
        parent = self._stack[-1] if self._stack else -1
        if request is None:
            request = self.spans[parent].request if parent >= 0 else ""
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, request))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        if index < 0:
            return
        now = time.perf_counter_ns()
        # a span left open by an exception is closed with its parent
        while self._stack:
            top = self._stack.pop()
            self.spans[top].end = now
            if top == index:
                return

    @contextmanager
    def span(self, name: str, request: str | None = None):
        """Yields the span's info dict (a scratch dict when disabled)."""
        index = self.open(name, request)
        try:
            yield self.spans[index].info if index >= 0 else {}
        finally:
            self.close(index)

    def open_batch(self) -> None:
        if self._batch is not None:
            self.close(self._batch)
        parent = self.spans[self._stack[-1]].request if self._stack else ""
        self._batch = self.open("training.batch", f"{parent}/batch{self._batches}")
        self._batches += 1

    def close_batch(self) -> None:
        if self._batch is not None:
            self.close(self._batch)
            self._batch = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(span)}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")


def _tensor_bytes(arrays) -> int:
    """Bytes the container stores for these tensors: 4 per float32 value."""
    return sum(4 * int(np.asarray(a).size) for a in arrays)


def _container_written(args, kwargs, result) -> dict:
    layers = args[1] if len(args) > 1 else kwargs.get("layers", ())
    named = args[2] if len(args) > 2 else kwargs.get("named") or {}
    tensors = [t for layer in layers for t in layer.tensors] + list(named.values())
    return {"bytes": _tensor_bytes(tensors)}


def _container_read(args, kwargs, result) -> dict:
    layers, named = result
    return {"bytes": _tensor_bytes([t for layer in layers for t in layer.tensors] + list(named.values()))}


def _pair_counts(args, kwargs, result) -> dict:
    return {split: len(result.for_split(split)) for split in ("train", "val", "test")}


def _stacked_ids(args, kwargs, result) -> dict:
    return {"ids": [id(fs) for fs in args[1]]}


def _encoded_rows(args, kwargs, result) -> dict:
    return {"rows": int(result.data.shape[0])}


def _evaluated_pairs(args, kwargs, result) -> dict:
    return {"pairs": len(args[1])}


def _trained(args, kwargs, result) -> dict:
    return {
        "pairs": len(args[1]) * len(result.train_losses),
        "loss_final": result.train_losses[-1],
    }


def _segments(args, kwargs, result) -> dict:
    return {"segments": len(result)}


# (module, function, span name, annotation of the finished call)
FUNCTIONS = (
    ("manifest", "read_wav", "manifest.read_wav", None),
    ("manifest", "load_manifest", "manifest.load_manifest", None),
    ("preprocess", "strip_unvoiced", "preprocess.strip_unvoiced", None),
    ("preprocess", "segment", "preprocess.segment", _segments),
    ("preprocess", "augment_corpus", "preprocess.augment_corpus", None),
    ("mfcc", "extract_mfcc", "mfcc.extract_mfcc", None),
    ("vggish", "extract_vggish", "vggish.extract_vggish", None),
    ("vggish", "log_mel_spectrogram", "vggish.log_mel_spectrogram", None),
    ("vggish", "embed", "vggish.embed", None),
    ("vggish", "make_test_network", "vggish.make_test_network", None),
    ("textfeat", "load_transcript", "textfeat.load_transcript", None),
    ("textfeat", "load_lexicon", "textfeat.load_lexicon", None),
    ("textfeat", "load_synonyms", "textfeat.load_synonyms", None),
    ("textfeat", "extract_text", "textfeat.extract_text", None),
    ("container", "write_container", "container.write_container", _container_written),
    ("container", "read_container", "container.read_container", _container_read),
    ("pairs", "make_pairs", "pairs.make_pairs", _pair_counts),
    ("pairs", "write_pairs_csv", "pairs.write_pairs_csv", None),
    ("pairs", "read_pairs_csv", "pairs.read_pairs_csv", None),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("pipeline", "extract_corpus_features", "pipeline.extract_corpus_features", None),
    ("pipeline", "load_feature_table", "pipeline.load_feature_table", None),
    ("pipeline", "features_from_cache", "pipeline.features_from_cache", None),
    ("models", "build_model", "models.build_model", None),
    ("models", "load_checkpoint", "models.load_checkpoint", None),
    ("models", "save_checkpoint", "models.save_checkpoint", None),
    ("models", "detect_relapse", "models.detect_relapse", None),
    ("training", "train", "training.train", _trained),
    ("training", "evaluate_loss", "training.evaluate_loss", None),
    ("metrics", "evaluate", "metrics.evaluate", _evaluated_pairs),
    ("metrics", "render_confusion", "metrics.render_confusion", None),
    ("cli", "main", "cli.main", None),
)

# (class, method, span name, annotation)
METHODS = (
    (models.SiameseModel, "stack_inputs", "models.stack_inputs", _stacked_ids),
    (models.SiameseModel, "encode", "models.encode", _encoded_rows),
    (models.SiameseModel, "forward", "models.forward", None),
    (models.SiameseModel, "predict_similarity", "models.predict_similarity", None),
    (autodiff.Tensor, "backward", "autodiff.backward", None),
)

# called hundreds of times per segment: counted, not spanned
COUNTED = (("dsp", "dft_magnitude", "dsp.dft_magnitude"),)


def _spanned(tracer: Tracer, fn, name: str, annotate):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if annotate is not None:
            tracer.spans[index].info.update(annotate(args, kwargs, result))
        return result

    return traced


def _counted(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if not tracer.paused:
            tracer.counts[name] = tracer.counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    return counted


def _package_modules(package) -> list:
    """The package and its loaded submodules; callers outside the package
    must reach the wrapped names through these modules."""
    prefix = package.__name__ + "."
    return [package] + [
        m for n, m in sorted(sys.modules.items()) if n.startswith(prefix) and m
    ]


@contextmanager
def instrument(tracer: Tracer, package):
    """Install the wrappers for the duration of the block, then restore."""
    undo = []

    def swap_everywhere(module_name, attr, wrapper_for):
        original = getattr(getattr(package, module_name), attr)
        wrapper = wrapper_for(original)
        for module in _package_modules(package):
            if getattr(module, attr, None) is original:
                undo.append((module, attr, original))
                setattr(module, attr, wrapper)

    def swap_method(cls, attr, wrapper):
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    for module_name, attr, name, annotate in FUNCTIONS:
        swap_everywhere(module_name, attr, lambda fn, n=name, a=annotate: _spanned(tracer, fn, n, a))
    for module_name, attr, name in COUNTED:
        swap_everywhere(module_name, attr, lambda fn, n=name: _counted(tracer, fn, n))
    for cls, attr, name, annotate in METHODS:
        swap_method(cls, attr, _spanned(tracer, cls.__dict__[attr], name, annotate))

    zero_grad = _spanned(tracer, autodiff.RMSProp.zero_grad, "autodiff.zero_grad", None)
    step = _spanned(tracer, autodiff.RMSProp.step, "autodiff.rmsprop_step", None)

    def batch_start(self):
        if not tracer.paused:
            tracer.open_batch()
        zero_grad(self)

    def batch_end(self):
        step(self)
        if not tracer.paused:
            tracer.close_batch()

    swap_method(autodiff.RMSProp, "zero_grad", batch_start)
    swap_method(autodiff.RMSProp, "step", batch_end)
    try:
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children cover."""
    covered = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [max(0, s.end - s.start - c) / 1e9 for s, c in zip(spans, covered)]


def roots(spans: list[Span]) -> list[int]:
    """Index of each span's outermost ancestor (parents precede children)."""
    out = []
    for index, span in enumerate(spans):
        out.append(index if span.parent < 0 else out[span.parent])
    return out
