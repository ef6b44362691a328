"""The three workloads: set-up, one measured cycle, and the output checks.

Operations call the package through module attributes (`vs.run_pipeline`,
`cli.main`), so the wrappers `tracing.instrument` installs see them. Checks
run under `tracer.pause()` and stay out of the trace.
"""

import contextlib
import gc
import hashlib
import io
import re
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vocalsim as vs
from vocalsim import cli, pipeline
from corpus import Subject, write_corpus

VARIANTS_PER_SEGMENT = 7  # original + 3 noise + 3 pitch (the config defaults)
FEATURE_SHAPES = {"mfcc": (378, 60), "vggish": (14, 128), "text": (60, 9)}


@dataclass
class Op:
    kind: str  # cold | warm | train | request
    seconds: float
    work: int = 0  # samples, train pairs or scored pairs done by the op
    failures: list = field(default_factory=list)


def _timed(tracer, kind: str, index: int, call):
    """Run `call` inside an op span; return (seconds, result, span info).

    The autodiff graph holds reference cycles, so an op's garbage outlives it
    until the cycle collector runs. Collecting before each op gives every op
    the fresh heap a separate CLI process would have, and keeps the peak RSS
    from growing with the number of ops a run fits in.
    """
    gc.collect()
    with tracer.span(f"op.{kind}", f"{kind}{index}") as info:
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
    return seconds, result, info


def _failed(kind: str, exc: Exception) -> Op:
    traceback.print_exception(exc)
    return Op(kind, float("nan"), failures=[f"{type(exc).__name__}: {exc}"])


def _file_hashes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _featurize(audio) -> list:
    """Reference featurization of one recording for the checks."""
    segments = vs.segment(vs.strip_unvoiced(vs.read_wav(audio)))
    return [vs.FeatureSet(mfcc=vs.extract_mfcc(s.signal)) for s in segments]


class PipelineFusion:
    """Cold `run_pipeline` on a fresh workdir, then warm reruns that skip
    every stage. The fusion model is tiny, so feature extraction, the stage
    cache and evaluation do most of the work."""

    name = "pipeline-fusion"
    job = "cold"  # the op per-layer counts are normalised by
    timed = "warm"  # the op behind op_p50_s / op_tail_s
    warm_reruns = 5
    pairs_per_sample = 4
    # small, so a run fits about ten cold runs: the cold median is noisy
    layout = (
        Subject("tr0", 0, "train", 1),
        Subject("tr1", 1, "train", 2),
        Subject("va0", 1, "val", 1),
        Subject("te0", 0, "test", 1),
        Subject("te1", 1, "test", 2),
    )

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.cycles = 0
        self.reference_hashes = None
        samples = {}
        for s in self.layout:
            per = VARIANTS_PER_SEGMENT if s.split == "train" else 1
            samples[s.split] = samples.get(s.split, 0) + per * s.segments
        self.expected_samples = sum(samples.values())
        self.expected_pairs = {k: self.pairs_per_sample * v for k, v in samples.items()}

    def sizes(self) -> dict:
        return {
            "subjects": len(self.layout),
            "segments": sum(s.segments for s in self.layout),
            "samples": self.expected_samples,
            "pairs": self.expected_pairs,
            "model": "fusion, filters 4, dense 16, fusion 16, 1 epoch, batch 32",
        }

    def setup(self, root: Path) -> None:
        self.corpus = write_corpus(root / "corpus", self.seed, self.layout)

    def prepare(self) -> None:
        pass

    def _config(self, workdir: Path):
        return vs.ExperimentConfig(
            manifest=str(self.corpus.manifest),
            workdir=str(workdir),
            variant="fusion",
            augment=True,
            augment_seed=self.seed,
            lexicon=str(self.corpus.lexicon),
            synonyms=str(self.corpus.synonyms),
            pairs_per_sample=self.pairs_per_sample,
            seed=self.seed,
            filters=4,
            dense_width=16,
            fusion_width=16,
            batch_size=32,
            epochs=1,
            patience=1,
            lr=1e-4,
        )

    def cycle(self, tracer) -> list:
        workdir = self.work / f"pipeline{self.cycles}"
        self.cycles += 1
        log: list[str] = []
        try:
            seconds, cold, _ = _timed(
                tracer, "cold", self.cycles,
                lambda: vs.run_pipeline(self._config(workdir), log=log.append),
            )
        except Exception as exc:  # a failed op is counted, the run goes on
            shutil.rmtree(workdir, ignore_errors=True)
            return [_failed("cold", exc)]
        with tracer.pause():
            hashes = _file_hashes(workdir)
            ops = [Op("cold", seconds, cold.sample_count, self._check_cold(cold, log, hashes))]
        report = cold.report.to_json()
        for rerun in range(self.warm_reruns):
            log = []
            try:
                seconds, warm, info = _timed(
                    tracer, "warm", self.cycles * 100 + rerun,
                    lambda: vs.run_pipeline(self._config(workdir), log=log.append),
                )
            except Exception as exc:
                ops.append(_failed("warm", exc))
                continue
            skipped = sum(line.endswith("up to date") for line in log)
            info["skipped"] = skipped
            with tracer.pause():
                failures = []
                if warm.report.to_json() != report:
                    failures.append("warm rerun report differs from the cold run")
                if _file_hashes(workdir) != hashes:
                    failures.append("warm rerun changed an artifact")
                if skipped != 4:
                    failures.append(f"warm rerun skipped {skipped} of 4 cached stages")
            ops.append(Op("warm", seconds, 0, failures))
        shutil.rmtree(workdir)
        return ops

    def warm_up(self, tracer) -> list:
        return self.cycle(tracer)

    def _check_cold(self, result, log, hashes) -> list:
        failures = []
        if any(line.endswith("up to date") for line in log):
            failures.append("cold run skipped a stage")
        if result.sample_count != self.expected_samples:
            failures.append(f"{result.sample_count} samples, expected {self.expected_samples}")
        if result.pair_counts != self.expected_pairs:
            failures.append(f"pair counts {result.pair_counts}, expected {self.expected_pairs}")
        if result.report.total != self.expected_pairs["test"]:
            failures.append(f"report covers {result.report.total} test pairs")
        features = pipeline.features_from_cache(result.paths["cache"])
        if len(features) != self.expected_samples:
            failures.append(f"cache holds {len(features)} samples")
        for sample_id, fs in features.items():
            for name, shape in FEATURE_SHAPES.items():
                value = getattr(fs, name)
                if value is None or value.shape != shape or not np.all(np.isfinite(value)):
                    failures.append(f"{sample_id}: {name} is not a finite {shape} matrix")
        if not any(np.any(fs.text != 0) for fs in features.values()):
            failures.append("every text matrix is zero: no lexicon lookup hit")
        # fresh workdirs on the same corpus and config must give identical bytes
        if self.reference_hashes is None:
            self.reference_hashes = hashes
        elif hashes != self.reference_hashes:
            failures.append("artifacts differ from the first cold run")
        return failures

    def work_per_s(self, ops) -> float:
        """Samples featurized per second of cold run (median over runs)."""
        return float(np.median([op.work / op.seconds for op in ops if op.kind == "cold" and not op.failures]))


class TrainMfccPaper:
    """`train()` at paper sizes on MFCC features precomputed in set-up."""

    name = "train-mfcc-paper"
    job = "train"
    timed = "train"
    epochs = 1
    pairs_per_sample = 10  # 10 train samples -> exactly one 100-pair batch
    layout = (
        Subject("tr0", 0, "train", 3),
        Subject("tr1", 1, "train", 2),
        Subject("tr2", 0, "train", 2),
        Subject("tr3", 1, "train", 3),
        Subject("va0", 0, "val", 1),
        Subject("va1", 1, "val", 1),
    )

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.cycles = 0
        self.first_loss = None
        self.model = None
        self.train_config = vs.TrainConfig(
            batch_size=100, epochs=self.epochs, lr=1e-5, decay=1e-6, patience=self.epochs
        )

    def sizes(self) -> dict:
        return {
            "input": "60x378 MFCC",
            "model": "mfcc, filters 64, kernel 3, dense 1024, dropout 1e-4",
            "batch_pairs": 100,
            "train_pairs": 100,
            "val_pairs": 20,
            "epochs": self.epochs,
        }

    def setup(self, root: Path) -> None:
        corpus = write_corpus(root / "corpus", self.seed, self.layout)
        self.features, refs = {}, []
        for rec in corpus.recordings:
            s = rec.subject
            for index, fs in enumerate(_featurize(rec.audio)):
                sample_id = f"{s.subject_id}/{index:05d}/original"
                self.features[sample_id] = fs
                refs.append(vs.SampleRef(sample_id, s.subject_id, s.label, rec.score, s.split))
        self.pairs = vs.make_pairs(
            refs, "binary", self.pairs_per_sample, np.random.default_rng(self.seed)
        )

    def prepare(self) -> None:
        counts = (len(self.pairs.train), len(self.pairs.val))
        if counts != (100, 20):
            raise RuntimeError(f"set-up made {counts} train/val pairs, expected (100, 20)")

    def cycle(self, tracer) -> list:
        self.cycles += 1
        self.model = None  # free the last paper-size model before building one
        with tracer.pause():
            self.model = vs.build_model(vs.ModelSpec(variant="mfcc", init_seed=self.seed))
        try:
            seconds, result, _ = _timed(
                tracer, "train", self.cycles,
                lambda: vs.train(
                    self.model, self.pairs.train, self.pairs.val, self.features,
                    self.train_config, np.random.default_rng(self.seed),
                ),
            )
        except Exception as exc:
            return [_failed("train", exc)]
        failures = []
        histories = (result.train_losses, result.val_losses)
        if any(len(h) != self.epochs for h in histories) or result.stopped_early:
            failures.append(f"loss histories have lengths {[len(h) for h in histories]}")
        if not all(np.isfinite(v) for h in histories for v in h):
            failures.append("non-finite loss")
        if self.first_loss is None:
            self.first_loss = result.train_losses[-1]
        elif result.train_losses[-1] != self.first_loss:
            failures.append(f"final loss {result.train_losses[-1]!r} != first call's {self.first_loss!r}")
        return [Op("train", seconds, len(self.pairs.train) * self.epochs, failures)]

    def warm_up(self, tracer) -> list:
        return self.cycle(tracer)

    def work_per_s(self, ops) -> float:
        """Train pairs per second through train(), validation included."""
        return float(np.median([op.work / op.seconds for op in ops if op.kind == "train" and not op.failures]))


_VERDICT = re.compile(r"mean similarity ([0-9.]+) over (\d+) pairs")


class RelapseScreen:
    """Closed loop, one client: sequential in-process `predict-relapse`
    requests against a paper-size MFCC checkpoint written in set-up. Each
    block of four requests holds one new recording of each length 1-4
    segments, in a seeded order.

    The reference bank holds 10 segments (5 recordings of 2), the M of the
    10x10 `detect_relapse` case that ROADMAP item 3 (encode once, score
    many) is sized against. A request of N segments then runs 2*N*10
    batch-1 encodes and featurizes 10 reference segments, so
    `detect_relapse` and MFCC are most of the request, not the checkpoint
    read, and item 3 can move op_p50_s by more than its bound."""

    name = "relapse-screen"
    job = "request"
    timed = "request"
    blocks = 2  # distinct request recordings = 4 * blocks, reused in turn
    tolerance = 1e-4  # the CLI prints the mean similarity to 4 decimals
    references = tuple(Subject(f"ref{i}", 1, "train", 2) for i in range(5))

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.cycles = 0

    def sizes(self) -> dict:
        return {
            "model": "mfcc, filters 64, kernel 3, dense 1024 (paper checkpoint)",
            "reference_segments": sum(s.segments for s in self.references),
            "request_segments": [1, 2, 3, 4],
            "distinct_requests": 4 * self.blocks,
        }

    def setup(self, root: Path) -> None:
        rng = np.random.default_rng(self.seed)
        requests = [
            Subject(f"new{b}-{size}", int(rng.integers(2)), "test", int(size))
            for b in range(self.blocks)
            for size in rng.permutation([1, 2, 3, 4])
        ]
        corpus = write_corpus(root / "corpus", self.seed, self.references + tuple(requests))
        self.reference_audio = [r.audio for r in corpus.recordings[: len(self.references)]]
        self.requests = corpus.recordings[len(self.references) :]
        self.checkpoint = root / "checkpoint.oswt"
        vs.save_checkpoint(
            self.checkpoint, vs.build_model(vs.ModelSpec(variant="mfcc", init_seed=self.seed))
        )

    def prepare(self) -> None:
        """Expected pair counts and pairwise predict_similarity means, one
        per request recording, computed without the CLI."""
        model = vs.load_checkpoint(self.checkpoint)
        references = [fs for audio in self.reference_audio for fs in _featurize(audio)]
        self.expected = {}
        for rec in self.requests:
            sets = _featurize(rec.audio)
            if len(sets) != rec.subject.segments:
                raise RuntimeError(f"{rec.audio}: {len(sets)} segments, expected {rec.subject.segments}")
            scores = [model.predict_similarity(s, r) for s in sets for r in references]
            self.expected[rec.audio] = (len(scores), float(np.mean(scores)))

    def cycle(self, tracer) -> list:
        block = self.cycles % self.blocks
        self.cycles += 1
        return [
            self._request(tracer, rec, 4 * self.cycles + i)
            for i, rec in enumerate(self.requests[4 * block : 4 * block + 4])
        ]

    def warm_up(self, tracer) -> list:
        return [self._request(tracer, self.requests[0], 0)]

    def _request(self, tracer, rec, index: int) -> Op:
        argv = ["predict-relapse", "--model", str(self.checkpoint), "--audio", str(rec.audio)]
        for audio in self.reference_audio:
            argv += ["--reference-audio", str(audio)]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                seconds, code, _ = _timed(tracer, "request", index, lambda: cli.main(argv))
        except Exception as exc:
            return _failed("request", exc)
        pairs, mean = self.expected[rec.audio]
        failures = []
        found = _VERDICT.search(out.getvalue())
        if code != 0 or found is None:
            failures.append(f"exit code {code}, output {out.getvalue()!r}")
        else:
            got_mean, got_pairs = float(found.group(1)), int(found.group(2))
            if got_pairs != pairs:
                failures.append(f"{got_pairs} pairs scored, expected {pairs}")
            if not 0.0 <= got_mean <= 1.0 or abs(got_mean - mean) > self.tolerance:
                failures.append(f"mean similarity {got_mean}, expected {mean:.6f}")
        return Op("request", seconds, pairs, failures)

    def work_per_s(self, ops) -> float:
        """Scored (segment, reference) pairs per second of request time."""
        done = [op for op in ops if op.kind == "request" and not op.failures]
        return sum(op.work for op in done) / sum(op.seconds for op in done)


WORKLOADS = {w.name: w for w in (PipelineFusion, TrainMfccPaper, RelapseScreen)}
