"""The freeword benchmark.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

prints every end-to-end metric of the workload (--trace 0), or every
per-layer metric from a traced run (--trace 1), with its unit, then the
inputs and the environment, and as its last line one JSON object with
the keys correct, attempted, failed and metrics.  The whole record also
goes to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

# Set-up is timed this many times per run; setup_s is the median.
SETUP_REPEATS = 5
# Probe rounds sampled before and after each set-up (see speed.py).
PROBE_ROUNDS = 3 * speed.EDGE_ROUNDS

# Seconds one untraced round took on the 2-core Xeon the benchmark was
# defined on.  A traced run does a fixed number of rounds, so that its
# counts repeat exactly for a seed: a quarter of --seconds' worth, run
# once untraced and once traced (which is up to twice as slow).
ROUND_SECONDS = {"sweep": 3.6, "graph-large": 4.0, "library-long": 0.6}

# Every worker of one run.py call must be done by then: a run has to
# end within 180 s.
WORKER_TIMEOUT = 170


class WorkerFailed(Exception):
    pass


def wait_ready(proc: subprocess.Popen, deadline: float) -> None:
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
    if not ready or proc.stdout.readline().strip() != "ready":
        raise WorkerFailed("worker did not finish its set-up")


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a fresh interpreter on worker.py; return its set-up time,
    as seen from here, and its JSON record (None for --setup-only)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        wait_ready(proc, deadline)
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except (WorkerFailed, subprocess.TimeoutExpired) as err:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(str(err)) from err
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = ROOT / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else text[5:]
    return text


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "note": "each measurement starts a fresh interpreter: cold enumeration cache",
    }


def units(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def timed_setup(common: list[str], deadline: float) -> tuple[float, float]:
    """Set up once in a fresh interpreter; return the raw set-up time
    and the time at the speed probe's reference speed."""
    before = speed.sample(PROBE_ROUNDS)
    setup, _ = run_worker(common + ["--setup-only"], deadline)
    after = speed.sample(PROBE_ROUNDS)
    return setup, speed.scale(setup, [before, after])


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", workload, "--seed", str(seed)]
    raw, scaled = zip(*(timed_setup(common, deadline) for _ in range(SETUP_REPEATS)))
    _, record = run_worker(common + ["--seconds", str(seconds)], deadline)
    record["setup_samples_s"] = scaled
    record["raw_setup_samples_s"] = raw
    record["setup_s"] = statistics.median(scaled)
    record["raw_setup_s"] = statistics.median(raw)
    return {name: {"value": record[name], "unit": unit}
            for name, unit in units("end_to_end").items()}, record


def measure_traced(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    rounds = max(1, round(seconds / 4 / ROUND_SECONDS[workload]))
    # no probe inside a request, so none inside a span; both runs alike
    common = ["--workload", workload, "--seed", str(seed), "--rounds", str(rounds),
              "--no-inner-probe"]
    _, plain = run_worker(common, deadline)
    stem = OUT / workload  # one span dump per workload: a sweep's is ~100 MB
    _, record = run_worker(common + ["--trace", str(stem)], deadline)
    layers = record["layers"]
    layers["trace.overhead_ratio"] = record["total_s"] / plain["total_s"]
    record["untraced_total_s"] = plain["total_s"]
    record["attempted"] += plain["attempted"]
    record["failed"] += plain["failed"]
    return {name: {"value": layers.get(name, 0), "unit": unit}
            for name, unit in units("per_layer").items()}, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the freeword benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "freeword" / "__init__.py").is_file():
        print(f"error: no freeword sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + WORKER_TIMEOUT
    measure_fn = measure_traced if args.trace else measure
    try:
        metrics, record = measure_fn(args.workload, args.seed, args.seconds, deadline)
    except (WorkerFailed, KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted, failed = record["attempted"], record["failed"]
    fail_frac = failed / attempted
    for name, metric in metrics.items():
        print(f"{name:36} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'fail_frac':36} {fail_frac:>14.6g} ratio  ({failed} of {attempted})")
    inputs = record["inputs"]
    print(f"inputs: seed {inputs['seed']}, {inputs['items']} items in {inputs['rounds']} rounds, "
          f"sha256 {inputs['sha256']}")
    env = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    if record.get("first_error"):
        print(record["first_error"], file=sys.stderr)

    record.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                  environment=env, metrics=metrics, fail_frac=fail_frac)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
