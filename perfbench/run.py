"""Repository benchmark: one workload, one seed, every metric, every check.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ladder_cold --seed 0 --seconds 30 --trace 0

Workloads are described in ``perfbench/workloads.py``.  A run first times
set-up in fresh interpreters (``setup_s`` is the median of three, from
interpreter start to inputs ready), builds the inputs once more itself, then
runs passes over the workload's job set until ``--seconds`` have elapsed
(at least two passes).  With ``--trace 1`` the passes alternate between
untraced and traced; the traced ones attribute time to layers (see
``perfbench/layers.py``) and the run prints the per-layer metrics instead of
the end-to-end ones.  Every reported time is scaled to a reference CPU speed
by calibration loops run next to the timed work (``perfbench/clock.py``).

End-to-end metrics (``--trace 0``), each computed over the untraced passes:

* ``setup_s`` — median set-up time;
* ``jobs_per_s`` — jobs completed per second of pass time;
* ``job_geomean_ms`` — geometric mean over distinct jobs of each job's median
  latency, so every row weighs the same;
* ``job_p50_ms`` / ``job_p99_ms`` — percentiles over every call latency on
  ``service_replay`` (>= 1000 calls a pass).  ``ladder_cold`` and
  ``device_verify`` run a dozen distinct jobs a few times each, so there the
  percentiles are taken over the per-job medians, every job weighing the
  same: p99 is then the slowest job's median;
* ``cnot_advanced_total`` — advanced CNOTs summed over distinct jobs: Table I
  counts on ``ladder_cold``, steered-routed counts on ``device_verify``,
  served counts of the advanced requests on ``service_replay``;
* ``cnot_vs_baseline`` — geometric mean of advanced/baseline per distinct
  job (routed counts on ``device_verify``, baseline compiled after the
  measured window);
* ``peak_rss_mb`` — peak resident set of the measuring process during the
  first pass (Linux; elsewhere since process start).  One pass is a fixed
  amount of work; the peak over a whole run would grow with the number of
  passes that fit in it, because cyclic garbage from the compiles piles up
  between full collections.

The checks (golden cases, counts repeating across passes, per-workload
proofs) run in every mode.  A failed job or check counts in ``failed`` and
``failed_frac`` and makes the command exit 1.  The last line of standard
output is one JSON object; a full record, stamped with the commit, Python and
numpy versions, ``nproc`` and a CPU calibration time, goes to ``--out``, and
a traced run also writes its spans as a trace document for
``tools/trace_report.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from clock import (
    CALIBRATION_ITERATIONS,
    REFERENCE_CALIBRATION_S,
    SpeedClock,
    calibration_loop,
    scale_factor,
)

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3
MIN_PASSES = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=ROOT / ".perfbench_out", help="result records"
    )
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="build the inputs, print 'ready' and two calibration times, exit",
    )
    return parser.parse_args(argv)


def build_workload(name: str, seed: int, tracer):
    from workloads import WORKLOADS, ServiceReplay

    if name == ServiceReplay.name:
        scratch = ROOT / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        return ServiceReplay(seed, tracer, scratch)
    return WORKLOADS[name](seed, tracer)


def probe_setup(args) -> float:
    """Scaled seconds from spawning a fresh interpreter to its inputs being ready.

    The probe calibrates its own CPU speed before and after building the
    inputs, because it may run on another core than this process; the two
    calibration loops are not counted as set-up.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    start = perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
        child.stdout.read()
        child.wait(timeout=60)
    fields = line.split()
    if len(fields) != 3 or fields[0] != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    before, after = float(fields[1]), float(fields[2])
    return (elapsed - before - after) * scale_factor(before, after)


def stamp(clock) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
        if completed.returncode == 0:
            commit = completed.stdout.strip()
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "calibration_iterations": CALIBRATION_ITERATIONS,
        "calibration_s": statistics.median(clock.samples),
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
    }


def measure(workload, clock, tracer, instrumentation, seconds: float, trace: bool):
    """Passes until ``seconds`` have elapsed; traced and untraced alternate.

    ``scaled_s`` is the pass time at the reference CPU speed (see
    ``clock.SpeedClock``) and ``raw_s`` the same stretches in wall time;
    every reported time uses the scaled figures.
    """
    passes = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(passes) < MIN_PASSES:
        traced = trace and len(passes) % 2 == 1
        tracer.enabled = traced
        if not passes:
            reset_peak_rss()
        with instrumentation.applied() if traced else nullcontext():
            pass_start = perf_counter()
            records, scaled, raw = workload.run_pass(clock)
            wall = perf_counter() - pass_start
        tracer.enabled = False
        passes.append(
            {
                "traced": traced,
                "wall_s": wall,
                "scaled_s": scaled,
                "raw_s": raw,
                "records": records,
            }
        )
        if len(passes) == 1:
            passes[0]["peak_rss_mb"] = peak_rss_mb()
    return passes


def throughput(passes) -> float:
    jobs = sum(len(p["records"]) for p in passes)
    return jobs / sum(p["scaled_s"] for p in passes)


def job_medians(passes) -> dict:
    latencies = defaultdict(list)
    for p in passes:
        for record in p["records"]:
            latencies[record.key].append(record.latency_s)
    return {key: statistics.median(values) for key, values in latencies.items()}


def consistency_failures(passes) -> dict:
    """Jobs whose counts differ between passes (traced or not) of this run."""
    seen = {}
    failures = {}
    for p in passes:
        for record in p["records"]:
            if record.counts is None:
                continue
            expected = seen.setdefault(record.key, record.counts)
            if record.counts != expected:
                failures[record.key] = f"counts {record.counts} != {expected}"
    return failures


def layer_metrics(workload, tracer, passes, quality, failed_frac) -> dict:
    from layers import LAYER_SPANS, VERIFY_ENGINES, layer_totals

    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    totals = layer_totals(tracer.roots)
    n = len(traced)
    # Span times are raw; quote them per pass at the reference CPU speed, with
    # the scale factor the traced passes applied to their timed stretches.
    per_pass = sum(p["scaled_s"] for p in traced) / sum(p["raw_s"] for p in traced) / n
    busy, calls = totals["busy"], totals["calls"]
    metrics = {name + ".busy_s": (busy.get(name, 0.0) * per_pass, "s") for name in LAYER_SPANS}
    for engine in VERIFY_ENGINES:
        name = f"verify.engine.{engine}"
        metrics[name + ".busy_s"] = (busy.get(name, 0.0) * per_pass, "s")
        metrics[name + ".calls"] = (calls.get(name, 0) / n, "count")
    for name in ("chemistry.run_rhf", "verify.check_equivalence"):
        metrics[name + ".calls"] = (calls.get(name, 0) / n, "count")
    metrics["hardware.route_circuit.swaps"] = (totals["swaps"] / n, "SWAPs")
    metrics["api.unattributed_s"] = (totals["unattributed_s"] * per_pass, "s")
    metrics["bench.traced_job_s"] = (totals["job_s"] * per_pass, "s")
    metrics["bench.trace_overhead"] = (throughput(traced) / throughput(untraced), "ratio")
    for name in ("core.cnot.bosonic", "core.cnot.hybrid", "core.cnot.fermionic"):
        metrics[name] = (quality[name], "CNOTs")
    metrics["core.degraded"] = (quality["core.degraded"], "count")
    metrics["rows_adv_worse"] = (quality["rows_adv_worse"], "rows")
    metrics["swaps_total"] = (quality["swaps_total"], "SWAPs")
    metrics["failed_frac"] = (failed_frac, "fraction")
    service = workload.service_stats() if hasattr(workload, "service_stats") else {}
    for tier in ("memory", "disk", "compute", "dedup"):
        name = f"service.tier.{tier}"
        metrics[name] = (service.get(name, 0), "count")
    metrics["service.cache_hit_rate"] = (service.get("service.cache_hit_rate", 0.0), "fraction")
    metrics["service.wait_p50_ms"] = (service.get("service.wait_p50_ms", 0.0), "ms")
    metrics["service.compute_p50_ms"] = (service.get("service.compute_p50_ms", 0.0), "ms")
    metrics["service.queue_depth_peak"] = (service.get("service.queue_depth_peak", 0), "count")
    metrics["service.failures"] = (service.get("service.failures", 0), "count")
    return metrics, totals


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count, so set-up garbage does not count."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # not Linux, or not allowed: peak_rss_mb then includes set-up


def peak_rss_mb() -> float:
    """Peak resident set since :func:`reset_peak_rss`, in MB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(workload, passes, setup_times, quality, peak_mb) -> dict:
    medians = job_medians(passes)
    if workload.per_call_percentiles:
        latencies = [r.latency_s for p in passes for r in p["records"]]
    else:
        latencies = list(medians.values())
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_s": (throughput(passes), "1/s"),
        "job_geomean_ms": (
            1e3 * statistics.geometric_mean(medians.values()), "ms"
        ),
        "job_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "job_p99_ms": (
            1e3 * statistics.quantiles(latencies, n=100, method="inclusive")[98], "ms"
        ),
        "cnot_advanced_total": (quality["cnot_advanced_total"], "CNOTs"),
        "cnot_vs_baseline": (quality["cnot_vs_baseline"], "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # A set-up probe measures its own speed before it imports the program.
    before = calibration_loop() if args.setup_probe else None
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from repro.obs import Tracer, disable_tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    disable_tracing()  # no span inside the program fires
    tracer = Tracer(enabled=False)

    if args.setup_probe:
        build_workload(args.workload, args.seed, tracer)
        after = calibration_loop()
        print(f"ready {before!r} {after!r}", flush=True)
        return 0

    # setup_s is an end-to-end metric; the traced run does not report it.
    setup_times = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    clock = SpeedClock()
    workload = build_workload(args.workload, args.seed, tracer)
    instrumentation = None
    if args.trace:
        from layers import Instrumentation

        instrumentation = Instrumentation(tracer)

    clock.scale()  # bracket the first job against the speed after set-up
    passes = measure(
        workload, clock, tracer, instrumentation, args.seconds, bool(args.trace)
    )

    # Untimed checks.
    from workloads import golden_failures

    failures = consistency_failures(passes)
    failures.update(workload.verify())
    golden, golden_cases = golden_failures(ROOT)
    quality = workload.quality()
    records = [r for p in passes for r in p["records"]]
    attempted = len(records) + golden_cases
    failed = len(golden) + sum(
        1 for r in records if not r.ok or r.key in failures
    )
    failures.update(golden)
    failures.update({r.key: r.error for r in records if not r.ok})

    untraced = [p for p in passes if not p["traced"]]
    medians = job_medians(untraced)
    for line in workload.table(medians):
        print(line)
    latencies = sum(len(p["records"]) for p in untraced)
    print(
        f"{args.workload} seed={args.seed}: {len(passes)} passes "
        f"({sum(p['traced'] for p in passes)} traced), {latencies} untraced job latencies"
    )
    for key, reason in sorted(failures.items()):
        print(f"FAILED {key}: {reason}")

    if args.trace:
        metrics, totals = layer_metrics(
            workload, tracer, passes, quality, failed / attempted
        )
        if totals["overlap_s"] < -1e-6 or totals["unattributed_s"] < -1e-6:
            failed += 1
            metrics["failed_frac"] = (failed / attempted, "fraction")
            print("FAILED layer spans overlap: self times do not add up to the job time")
    else:
        metrics = end_to_end_metrics(
            workload, untraced, setup_times, quality, passes[0]["peak_rss_mb"]
        )

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "stamp": stamp(clock),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_scaled_s": [p["scaled_s"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "setup_samples_s": setup_times,
        "job_median_ms": {key: 1e3 * value for key, value in medians.items()},
        "service_phase_tiers": (
            workload.phase_tiers() if hasattr(workload, "phase_tiers") else None
        ),
        "failures": failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        from repro.obs import trace_document, write_trace

        write_trace(
            args.out / f"{args.workload}-seed{args.seed}.trace.json",
            trace_document(tracer, label=f"perfbench {args.workload} seed {args.seed}"),
        )
    scratch = ROOT / ".perfbench_tmp"
    if scratch.is_dir() and not any(scratch.iterdir()):
        scratch.rmdir()

    print(json.dumps(record["stamp"]))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
