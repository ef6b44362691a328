"""vocalsim benchmark: three workloads timed end to end, or traced per module.

    python3 perfbench/run.py --workload pipeline-fusion --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's `src/`, never from an installed copy, and the run exits with
code 2 and no result when `src/` is missing. All files go to `.perfbench/`
in the checkout; the run's scratch directory is removed at exit.

`--trace 0` prints every end-to-end metric. Set-up (corpus generation,
feature precompute, checkpoint writing) runs in a child process at least
three times and until three seconds have passed, and `setup_s` is the
median. The timed phase then repeats whole workload cycles until
`--seconds` have passed, after one untimed warm-up cycle (a single request
on relapse-screen):

- op_p50_s / op_tail_s: median and tail latency of the workload's timed op:
  a warm `run_pipeline` rerun (pipeline-fusion), one `train()` call
  (train-mfcc-paper), one `predict-relapse` request (relapse-screen). The
  tail is the highest percentile with at least ten samples beyond it; with
  fewer than 21 samples no percentile above the median has that, and the
  interpolated p90 is reported instead. The printed table names which.
- work_per_s: samples featurized per second of cold `run_pipeline`, train
  pairs per second through `train()` (validation included), or scored
  (segment, reference) pairs per second of request time.
- peak_rss_mb: peak resident memory of this process, which runs the warm-up
  and the timed ops; set-up runs in a child process.

Failed operations and failed output checks count in the result line's
`failed` and in the printed failed_share.

`--trace 1` spends the first half of `--seconds` untraced and the second
half with every public function of the package wrapped (see tracing.py),
then runs the per-op autodiff probe (probe.py) and prints the per-layer
metrics (layers.py), including the tracing overhead of the workload's job.
"""

import argparse
import concurrent.futures
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"  # one thread measured as fast as two on 2 CPUs, and steadier
SETUP_REPEATS = 3  # at least; a cheap set-up repeats until SETUP_SECONDS
SETUP_SECONDS = 3.0

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "work_per_s": "1/s",
}


def _import_package():
    """Import vocalsim from this checkout's src/, or return None."""
    init = ROOT / "src" / "vocalsim" / "__init__.py"
    if not init.is_file():
        return None
    sys.path.insert(0, str(ROOT / "src"))
    import vocalsim

    if Path(vocalsim.__file__).resolve() != init.resolve():
        return None
    return vocalsim


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args, workload) -> dict:
    import numpy as np

    return {
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes(),
    }


def _set_up_here(workload) -> tuple:
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        repeat = len(setup_times)
        shutil.rmtree(workload.work / f"setup{repeat - 1}", ignore_errors=True)
        start = time.perf_counter()
        workload.setup(workload.work / f"setup{repeat}")
        setup_times.append(time.perf_counter() - start)
    workload.prepare()
    return setup_times, vars(workload)


def set_up(workload) -> list:
    """Set up repeatedly and prepare() in a child process, so that
    their memory stays out of this process's peak_rss_mb. The child's state
    (corpus paths, features, expected values) is copied back; returns the
    set-up times."""
    fork = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=fork) as child:
        setup_times, state = child.submit(_set_up_here, workload).result()
    vars(workload).update(state)
    return setup_times


def timed_loop(workload, seconds: float, tracer) -> list:
    """Whole workload cycles until `seconds` have passed."""
    ops = []
    start = time.perf_counter()
    while True:
        ops += workload.cycle(tracer)
        if time.perf_counter() - start >= seconds:
            return ops


def _tail(values) -> tuple:
    ordered = sorted(values)
    n = len(ordered)
    if n >= 21:
        index = n - 11  # ten samples beyond it
        return ordered[index], f"p{100 * (index + 1) // n} of {n}"
    if n == 1:
        return ordered[0], "the only sample"
    p90 = statistics.quantiles(ordered, n=10, method="inclusive")[-1]
    return p90, f"p90 of {n} (too few for ten beyond)"


def end_to_end(workload, ops, setup_times) -> tuple:
    latencies = [op.seconds for op in ops if op.kind == workload.timed and not op.failures]
    if not latencies:
        return {name: (0.0, unit) for name, unit in END_TO_END.items()}, {}
    tail, tail_label = _tail(latencies)
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "work_per_s": workload.work_per_s(ops),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "op_p50_s": f"median of {len(latencies)} {workload.timed} ops",
        "op_tail_s": tail_label,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}, notes


def traced_metrics(workload, package, ops_untraced, seconds):
    import layers
    import probe
    from tracing import Tracer, instrument

    tracer = Tracer()
    with instrument(tracer, package):
        ops_traced = timed_loop(workload, seconds, tracer)

    def job_median(ops):
        times = [op.seconds for op in ops if op.kind == workload.job and not op.failures]
        return statistics.median(times) if times else 0.0

    untraced = job_median(ops_untraced)
    overhead = job_median(ops_traced) - untraced
    metrics = layers.layer_metrics(tracer, workload.job, probe.probe(), overhead, untraced)
    return metrics, ops_traced, tracer


def _check_names(metrics: dict, trace: int) -> str:
    """Compare the metrics with BENCHMARK.json; return a complaint or ''."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if listed != produced:
        return f"metrics do not match BENCHMARK.json: {sorted(set(listed) ^ set(produced))}"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = _import_package()
    if package is None:
        print(f"error: no vocalsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work)
    try:
        setup_times = set_up(workload)
        # first ops in a process run on a cold heap and cold caches: untimed
        warm_up = workload.warm_up(Tracer(enabled=False))
        for op in warm_up:
            op.kind = "warm-up"
        if args.trace:
            ops = timed_loop(workload, args.seconds / 2, Tracer(enabled=False))
            metrics, traced_ops, tracer = traced_metrics(workload, package, ops, args.seconds / 2)
            ops += traced_ops
            notes = {}
            (out_dir / "traces").mkdir(parents=True, exist_ok=True)
            tracer.write(out_dir / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            ops = timed_loop(workload, args.seconds, Tracer(enabled=False))
            metrics, notes = end_to_end(workload, ops, setup_times)
        ops = warm_up + ops
    finally:
        shutil.rmtree(work, ignore_errors=True)

    complaint = _check_names(metrics, args.trace)
    if complaint:
        print(f"error: {complaint}", file=sys.stderr)
        return 3
    failed = sum(1 for op in ops if op.failures)
    for op in ops:
        for failure in op.failures:
            print(f"FAILED {op.kind}: {failure}", file=sys.stderr)
    env = environment(args, workload)
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    print(f"{'failed_share':40s} {failed / len(ops):14.6g} share  {failed} of {len(ops)} ops")
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    record = {
        "environment": env,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "setup_s": setup_times,
        "ops": [[op.kind, op.seconds, op.work, op.failures] for op in ops],
    }
    result_file = out_dir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1), encoding="utf-8")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
