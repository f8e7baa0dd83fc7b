"""nefkit benchmark: one workload per call, end-to-end or per-layer metrics.

    python3 bench/run.py --workload sweep|routes|cones|cli --seed N
                         --seconds S --trace 0|1

Run from the root of a checkout that holds BENCHMARK.json and src/nefkit.
Standard library only. Each workload runs in fresh interpreters
(bench/child.py), one at a time and pinned with this runner to one CPU.

--trace 0 reports the end-to-end metrics: work units per second, median and
tail operation latency, set-up time (median over eleven fresh processes) and
peak RSS. --trace 1 reports the per-layer metrics: an untraced and a traced
pass of S/2 seconds each, whose ratio is the tracing overhead, plus direct
timings of each layer's public functions.

Times are reported at a reference host speed: every measured time is
rescaled by a speed probe taken beside it (bench/speed.py), because the
shared host's speed drifts by a quarter within a minute. The record in
.bench_out/ keeps the raw times as well.

Every output is checked against bench/reference.py. The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it repeat the metrics by name and unit with the environment and
failed_frac. Any failed or mismatched operation makes the exit status 1; a
checkout without nefkit sources gives exit status 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import reference
import speed
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 10
CHILD_TIMEOUT_S = 100

# Metric names and units come from the benchmark's contract at the checkout root.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
UNITS = {**END_TO_END, **PER_LAYER}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_child(mode: str, args: argparse.Namespace, seconds: float = 0.0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(CHILD), mode, args.workload, str(args.seed), str(seconds)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.PIPE, text=True, timeout=seconds + CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process ({mode}) exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def warm_up(args: argparse.Namespace) -> None:
    """Discarded runs, so that bytecode caches exist before anything is timed."""
    run_child("setup", args)
    if args.workload == "cli":
        subprocess.run(
            [sys.executable, "-m", "nefkit", "--format", "json", "table", "delpezzo"],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, timeout=CHILD_TIMEOUT_S,
        )


def check_pass(workload: str, pool: list, result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, first mismatches) of one pass, against the references."""
    check = reference.CHECKS[workload]
    bad = set()
    problems = [f"pool item {index}: raised {text}" for index, text in result["errors"]]
    for out_id, (index, text) in enumerate(result["distinct"]):
        try:
            problem = check(pool[index], json.loads(text))
        except Exception as exc:  # a malformed output is a mismatch too
            problem = f"pool item {index}: checking raised {exc!r}"
        if problem:
            bad.add(out_id)
            problems.append(problem)
    outputs = result["outputs"]
    failed = sum(1 for out_id in outputs if out_id < 0 or out_id in bad)
    return len(outputs), failed, problems[:10]


def nearest_rank(sorted_values: list[float], percentile: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def pass_metrics(workload: str, result: dict) -> tuple[dict, dict]:
    """End-to-end metrics of one pass at reference speed, and sample counts.

    Work per second is taken over the summed operation times, which is the
    timed pass without the probes and the output bookkeeping between
    operations.
    """
    factors = speed.block_factors(result["probes_ns"])
    latencies = sorted(ms * factors[b] for ms, b in zip(result["latencies_ms"], result["blocks"]))
    percentile = wl.TAIL_PERCENTILE[workload]
    tail, beyond = nearest_rank(latencies, percentile)
    metrics = {
        "cases_per_s": result["units"] / (sum(latencies) / 1e3),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw = sorted(result["latencies_ms"])
    samples = {
        "ops": len(latencies), "tail_percentile": percentile, "tail_beyond": beyond,
        "units": result["units"], "elapsed_s": result["elapsed_s"],
        "speed_probes": len(result["probes_ns"]),
        "speed_factor_median": statistics.median(factors),
        "raw_cases_per_s": result["units"] / (sum(raw) / 1e3),
        "raw_op_p50_ms": statistics.median(raw),
        "raw_op_tail_ms": nearest_rank(raw, percentile)[0],
    }
    return metrics, samples


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
    }


def measure(args: argparse.Namespace) -> dict:
    pool = wl.inputs(args.workload, args.seed)
    warm_up(args)
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace}
    if args.trace == 0:
        setups = [run_child("setup", args) for _ in range(SETUP_SAMPLES)]
        result = run_child("pass", args, args.seconds)
        setups.append(result)
        metrics, samples = pass_metrics(args.workload, result)
        metrics["setup_s"] = statistics.median(
            r["setup_s"] * speed.CAL_REF_NS / r["setup_probe_ns"] for r in setups)
        samples["setup_runs"] = len(setups)
        samples["raw_setup_s"] = statistics.median(r["setup_s"] for r in setups)
        attempted, failed, problems = check_pass(args.workload, pool, result)
        metrics = {name: metrics[name] for name in END_TO_END}
        record["samples"] = samples
    else:
        plain = run_child("pass", args, args.seconds / 2)
        traced = run_child("trace", args, args.seconds / 2)
        layers = run_child("layers", args)
        metrics = {
            name: value if PER_LAYER[name] == "count"
            else value * speed.CAL_REF_NS / layers["probes_ns"][name]
            for name, value in layers["metrics"].items()
        }
        plain_rate = pass_metrics(args.workload, plain)[0]["cases_per_s"]
        traced_rate = pass_metrics(args.workload, traced)[0]["cases_per_s"]
        metrics["trace.overhead_pct"] = 100 * (plain_rate / traced_rate - 1)
        metrics = {name: metrics[name] for name in PER_LAYER}
        attempted = failed = 0
        problems = []
        for result in (plain, traced):
            a, f, p = check_pass(args.workload, pool, result)
            attempted, failed, problems = attempted + a, failed + f, problems + p
        record["spans"] = traced["spans"]
        record["samples"] = {"plain_ops": len(plain["outputs"]),
                             "traced_ops": len(traced["outputs"])}
    record.update(environment=environment(), metrics=metrics, attempted=attempted,
                  failed=failed, failed_frac=failed / attempted if attempted else 1.0,
                  problems=problems)
    return record


def report(record: dict) -> None:
    env = record["environment"]
    samples = record["samples"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']:g}  trace {record['trace']}")
    print(f"environment: python {env['python']}  nproc {env['nproc']}  "
          f"pinned to cpu {env['pinned_cpus']}  platform {env['platform']}  "
          f"commit {env['commit']}")
    for name, value in record["metrics"].items():
        unit = UNITS[name]
        note = ""
        if name == "op_p50_ms":
            note = f"  (median of {samples['ops']} operations)"
        elif name == "op_tail_ms":
            note = (f"  (p{samples['tail_percentile']}, {samples['tail_beyond']} of "
                    f"{samples['ops']} operations beyond)")
        elif name == "setup_s":
            note = f"  (median of {samples['setup_runs']} fresh processes)"
        print(f"{name:36s} {value:14.6g} {unit}{note}")
    print(f"{'failed_frac':36s} {record['failed_frac']:14.6g} ratio"
          f"  ({record['failed']} failed of {record['attempted']} attempted)")
    for name, (count, total_ms, self_ms) in sorted(record.get("spans", {}).items()):
        print(f"span {name:31s} {count:8d} calls {total_ms:12.3f} ms total {self_ms:12.3f} ms self")
    for problem in record["problems"]:
        print(f"mismatch: {problem}")


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the speed
    probes run on the core that does the work. Touches only our processes."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    if not (ROOT / "src" / "nefkit" / "__init__.py").is_file():
        print(f"bench: no nefkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    report(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in record["metrics"].items()
        },
    }))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
