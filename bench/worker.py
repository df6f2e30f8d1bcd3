"""One benchmark process: set up, run one workload, check, report.

run.py starts a fresh interpreter on this file for every measurement,
so freeword is imported anew and its enumeration cache starts cold, as
in a user's ``freeword check``.  The worker prints ``ready`` once
freeword is imported and the inputs exist, then, unless --setup-only,
one JSON record as its last line.

A single caller drives the workload in a closed loop: each request is
issued after the previous one returned.  Only the requests are timed,
and each is scaled by the speed probe sampled around and during it (see
speed.py).  Each result is checked right after its request, outside the
timer.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_freeword():
    sys.path.insert(0, str(SRC))
    import freeword
    import freeword.cli
    import freeword.oracle

    if Path(freeword.__file__).resolve().parent != SRC / "freeword":
        raise SystemExit(f"freeword imported from {freeword.__file__}, not from {SRC}")
    return freeword


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def drive(workload, fw, rounds, seconds=None, round_count=None, inner_probe=True) -> dict:
    """Issue requests round after round until the timed total reaches
    seconds, or until round_count rounds are done.

    Each request's time is scaled to the probe's reference speed (see
    speed.py); inner_probe=False samples the probe only between
    requests, so that no probe time lands in a traced span.  The
    figures are taken per template slot: its median scaled latency over
    the rounds.  Throughput is one round's requests over the sum of the
    slot medians; the latency percentiles are taken over the slot
    medians.  The raw figures are kept beside them."""
    slot_times: list[list[float]] = [[] for _ in rounds[0]]
    slot_raw: list[list[float]] = [[] for _ in rounds[0]]
    failed = 0
    first_error = None
    timed = 0.0
    done = 0
    clock = time.perf_counter
    meter = speed.Meter(inner=inner_probe)
    before = speed.sample()
    while round_count is None or done < round_count:
        batch = rounds[done % len(rounds)]
        for times, raw, item in zip(slot_times, slot_raw, batch):
            with meter:
                t0 = clock()
                try:
                    result = workload.request(fw, item)
                    ok = True
                except Exception:
                    ok = False
                    first_error = first_error or traceback.format_exc()
                elapsed = clock() - t0 - meter.paused_s
            after = speed.sample()
            if ok:
                try:
                    ok = workload.check(item, result)
                except Exception:
                    ok = False
                    first_error = first_error or traceback.format_exc()
            failed += not ok
            raw.append(elapsed)
            times.append(speed.scale(elapsed, [before, *meter.samples, after]))
            before = after
            timed += elapsed
            if seconds is not None and timed >= seconds:
                break
        else:
            done += 1
            continue
        break
    attempted = sum(map(len, slot_times))
    return {
        "attempted": attempted,
        "failed": failed,
        "first_error": first_error,
        "timed_s": timed,
        "rounds_completed": done,
        **summarise(slot_times, done),
        **{f"raw_{k}": v for k, v in summarise(slot_raw, done).items()},
        "slot_times_s": slot_times,
        "raw_slot_times_s": slot_raw,
    }


def summarise(slot_times: list[list[float]], rounds_completed: int) -> dict:
    if rounds_completed:
        medians = [statistics.median(times) for times in slot_times]
    else:  # not one whole round: take every request as it came
        medians = [t for times in slot_times for t in times]
    return {
        "throughput_per_s": len(medians) / sum(medians),
        "latency_p50_ms": statistics.median(medians) * 1e3,
        "latency_p99_ms": percentile(medians, 99) * 1e3,
        "total_s": sum(map(sum, slot_times)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--rounds", type=int, help="run exactly this many rounds")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", help="record spans; write them to this path stem")
    parser.add_argument("--no-inner-probe", action="store_true",
                        help="sample the speed probe only between requests")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    t0 = time.perf_counter()
    fw = import_freeword()
    t1 = time.perf_counter()
    rounds = workload.inputs(args.seed, workload.pool_rounds)
    t2 = time.perf_counter()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(fw)
        tracer.install()
    record = drive(workload, fw, rounds, seconds=args.seconds, round_count=args.rounds,
                   inner_probe=not args.no_inner_probe)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["import_s"] = t1 - t0
    record["generate_s"] = t2 - t1
    record["inputs"] = {
        "seed": args.seed,
        "sha256": workloads.digest(rounds),
        "rounds": len(rounds),
        "items": sum(map(len, rounds)),
        "items_per_round": len(rounds[0]),
    }
    if tracer is not None:
        record["layers"] = tracer.totals()
        record["spans"] = len(tracer.span_start)
        record["untraced_functions"] = tracer.missing
        tracer.write_spans(Path(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
