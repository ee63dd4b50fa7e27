"""popgcn benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload cv_wide --seed 1 --seconds 34 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Every input is generated from ``--seed``. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. ``--workload all`` runs every workload, each in its
own process, and prints one table. See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import machine
import spans

ROOT = Path(__file__).resolve().parent.parent
# The workloads BENCHMARK.json lists; ``--workload all`` runs these.
WORKLOAD_NAMES = ("cv_wide", "graph_large", "compare_small")
SETUP_REPEATS = 9
MIN_OPS = 2
END_TO_END = {"setup_s": "s", "op_s": "s", "epoch_ms": "ms", "fold_s": "s",
              "cpu_s": "s", "peak_rss_mb": "MB", "mean_acc": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("cv_small", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="directory for the full record (and spans)")
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import popgcn from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "popgcn" / "__init__.py").is_file():
        raise SystemExit(f"error: no popgcn sources under {src}")
    sys.path.insert(0, str(src))
    import popgcn
    if Path(popgcn.__file__).resolve().parent != src / "popgcn":
        raise SystemExit(f"error: popgcn imported from {popgcn.__file__}")
    import workloads
    return workloads


def probe_setup(args, tmp: Path) -> list[float]:
    """Wall time of fresh processes that only import and set up."""
    times = []
    for i in range(SETUP_REPEATS):
        probe_dir = tmp / f"probe{i}"
        probe_dir.mkdir()
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe", str(probe_dir)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=120, check=False)
        times.append(time.perf_counter() - started)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
    return times


def set_up(workload, seed: int, tmp: Path) -> list:
    """Inputs of each of the workload's cohorts, all made from ``seed``."""
    count = workload.cohorts
    states = []
    for j in range(count):
        cohort_dir = tmp / f"cohort{j}"
        cohort_dir.mkdir()
        states.append(workload.setup(seed * count + j, cohort_dir))
    return states


def run_op(workload, state, tracer):
    """One timed op; returns its sample, including failures."""
    sample = {"traced": tracer is not None, "problems": []}
    try:
        if tracer is None:
            started, cpu = time.perf_counter(), time.process_time()
            output = workload.op(state)
        else:
            with tracer.install():
                started, cpu = time.perf_counter(), time.process_time()
                output = workload.op(state)
        sample["op_s"] = time.perf_counter() - started
        sample["cpu_s"] = time.process_time() - cpu
        sample.update(workload.summarize(state, output))
    except Exception:  # an op that raises is a failed op; keep measuring
        sample["problems"].append(traceback.format_exc().strip())
    return sample


def measure(workload, states, seconds: float, tracer):
    """One warm-up op, then timed ops until a typical one would overrun
    ``seconds``.

    The warm-up op runs untraced on the first cohort. Its output is checked
    like any other, but its times are left out of every metric: it pays for
    first-call costs (lazy imports, allocator growth, cold caches) that the
    later ops do not. Untraced ops cycle through the cohorts, and every
    cohort runs at least once. In a traced run ops alternate untraced,
    traced, so both kinds see the same machine conditions, and all use the
    first cohort, so counts repeat exactly and the two kinds time the same
    input.
    """
    cohorts = 1 if tracer is not None else len(states)
    warmup = run_op(workload, states[0], None)
    warmup.update(cohort=0, warmup=True)
    samples = []
    started = time.perf_counter()
    while True:
        index = len(samples)
        traced = tracer is not None and index % 2 == 1
        sample = run_op(workload, states[index % cohorts],
                        tracer if traced else None)
        sample["cohort"] = index % cohorts
        if traced:
            sample["spans"] = tracer.spans
            sample["counts"] = dict(tracer.counts)
        samples.append(sample)
        typical = statistics.median(s.get("op_s", 0.0) for s in samples)
        elapsed = time.perf_counter() - started
        if (len(samples) >= max(MIN_OPS, cohorts)
                and elapsed + typical > seconds):
            return [warmup] + samples


def mark_failures(samples) -> None:
    """Fail ops whose digest differs from the first successful op's on the
    same cohort."""
    reference = {}
    for sample in samples:
        if sample["problems"]:
            continue
        first = reference.setdefault(sample["cohort"], sample["digest"])
        if sample["digest"] != first:
            sample["problems"].append(
                f"digest {sample['digest'][:16]} != first op {first[:16]}")


def _median(samples, key):
    """Median over each cohort's successful ops, then mean over cohorts.

    Each cohort weighs the same however many ops it got, so a value does
    not depend on how many ops fitted into the run.
    """
    by_cohort = {}
    for sample in samples:
        if (key in sample and not sample["problems"]
                and "warmup" not in sample):
            by_cohort.setdefault(sample["cohort"], []).append(sample[key])
    if not by_cohort:
        return None
    return statistics.fmean(statistics.median(values)
                            for values in by_cohort.values())


def end_to_end_metrics(samples, setup_times) -> dict:
    values = {key: _median(samples, key)
              for key in ("op_s", "epoch_ms", "fold_s", "cpu_s", "mean_acc")}
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(samples, setup_spans) -> dict:
    traced = [s for s in samples if s["traced"] and not s["problems"]]
    layers = [spans.per_layer_metrics(s["spans"], s["counts"])
              for s in traced]
    values = {name: statistics.median(layer[name] for layer in layers)
              for name in layers[0]} if layers else {}
    values["data.synth_s"] = sum(end - start
                                 for name, start, end, _ in setup_spans
                                 if name == "data.synth")
    plain = _median([s for s in samples if not s["traced"]], "op_s")
    with_trace = _median(traced, "op_s")
    values["trace.untraced_op_s"] = plain
    values["trace.traced_op_s"] = with_trace
    if None not in (plain, with_trace):
        values["trace.overhead_s"] = with_trace - plain
    return {name: {"value": values.get(name), "unit": unit}
            for name, unit in spans.PER_LAYER.items()}


def run_workload(args) -> int:
    workloads = import_package()
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe is not None:
        set_up(workload, args.seed, args.setup_probe)
        return 0
    bench_tmp = ROOT / ".bench_tmp"
    bench_tmp.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=bench_tmp))
    try:
        setup_times, setup_spans, tracer = [], [], None
        if args.trace:
            tracer = spans.Tracer()
            with tracer.install():
                states = set_up(workload, args.seed, tmp)
            setup_spans = tracer.spans
        else:
            setup_times = probe_setup(args, tmp)
            states = set_up(workload, args.seed, tmp)
        samples = measure(workload, states, args.seconds, tracer)
        mark_failures(samples)
        metrics = (per_layer(samples, setup_spans) if args.trace
                   else end_to_end_metrics(samples, setup_times))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            bench_tmp.rmdir()
        except OSError:
            pass  # another run still uses it
    failed = sum(1 for s in samples if s["problems"])
    result = {"correct": failed == 0, "attempted": len(samples),
              "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine.machine_record(ROOT),
              "setup_times_s": setup_times,
              "samples": [{k: v for k, v in s.items()
                           if k not in ("spans", "counts")} for s in samples],
              "result": result}
    report(record)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1))
        if args.trace:
            spans.write_spans(args.out / f"{stem}.spans.jsonl",
                              [s["spans"] for s in samples if "spans" in s])
    print(json.dumps(result))
    return 0


def report(record) -> None:
    """Human-readable lines: machine, every sample, every metric."""
    result = record["result"]
    print("machine: " + json.dumps(record["machine"]))
    for i, sample in enumerate(record["samples"]):
        state = "ok" if not sample["problems"] else "FAILED"
        timing = (f"{sample['op_s']:.3f} s" if "op_s" in sample else "-")
        kind = ("warm-up" if "warmup" in sample
                else "traced" if sample["traced"] else "untraced")
        print(f"op {i} cohort {sample['cohort']} {kind} "
              f"{timing} {state} {sample.get('digest', '')[:16]}")
        for problem in sample["problems"]:
            print("  " + problem.replace("\n", "\n  "))
    print(f"{record['workload']} seed={record['seed']} "
          f"trace={record['trace']}: {result['attempted']} ops, "
          f"{result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:26s} {metric['value']!s:>24} {metric['unit']}")
    error_rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':26s} {error_rate!s:>24} ratio")


def run_all(args) -> int:
    """Every workload in its own process, then one table of all metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out is not None:
            command += ["--out", str(args.out)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=600, check=False)
        if done.returncode != 0:
            print(f"error: workload {name} exited {done.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    metric_names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':26s} {'unit':6s}" + "".join(
        f"{name:>16s}" for name in results))
    for metric in metric_names + ["error_rate"]:
        unit = (results[WORKLOAD_NAMES[0]]["metrics"][metric]["unit"]
                if metric != "error_rate" else "ratio")
        cells = []
        for result in results.values():
            value = (result["failed"] / result["attempted"]
                     if metric == "error_rate"
                     else result["metrics"][metric]["value"])
            cells.append(f"{value:>16.6g}" if value is not None
                         else f"{'-':>16s}")
        print(f"{metric:26s} {unit:6s}" + "".join(cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, result in results.items()
                    for metric, value in result["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    machine.pin_blas_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
