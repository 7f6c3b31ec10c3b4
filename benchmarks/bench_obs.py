"""Observability benchmark: tracing overhead ceiling + trace schema checks.

The :mod:`repro.obs` tracer promises two things this harness enforces:

* **Disabled is free (enough).**  A compile with the tracer disabled must
  not slow down against the same compile before the instrumentation
  existed; we bound the *enabled* path instead, which dominates it: the
  median traced LiH compile must stay within ``OVERHEAD_CEILING`` times the
  median untraced compile.  The disabled path is additionally checked to
  collect exactly zero spans.
* **Enabled traces are well-formed.**  The traced compile must produce a
  span tree covering all six advanced-pipeline stages, and its Chrome
  trace-event export must pass :func:`repro.obs.validate_chrome_trace`.

Results go to ``BENCH_obs.json``; the native and Chrome traces of the last
traced compile are written next to it (``trace_obs.json`` /
``trace_obs.chrome.json``) and uploaded as CI artifacts by the ``obs`` entry
of the ``bench`` CI job matrix.  Violated floors exit non-zero and fail it.

Usage:
    PYTHONPATH=src python benchmarks/bench_obs.py [--output BENCH_obs.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import CompileRequest, CompilerConfig, get_backend  # noqa: E402
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf  # noqa: E402
from repro.obs import (  # noqa: E402
    chrome_trace,
    get_metrics,
    trace_document,
    tracing,
    validate_chrome_trace,
    write_trace,
)
from repro.vqe import hmp2_ranked_terms  # noqa: E402

#: Median traced compile must stay within this factor of the untraced one.
OVERHEAD_CEILING = 1.5

#: The Fig. 2 stages every traced advanced compile must cover.
PIPELINE_STAGES = (
    "pipeline.classify",
    "pipeline.schedule_hybrid",
    "pipeline.gamma_search",
    "pipeline.transform",
    "pipeline.sort",
    "pipeline.account",
)


def build_request(n_terms: int) -> CompileRequest:
    scf = run_rhf(make_molecule("LiH"))
    hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=1)
    terms = hmp2_ranked_terms(hamiltonian)[:n_terms]
    return CompileRequest(
        terms=tuple(terms),
        n_qubits=hamiltonian.n_spin_orbitals,
        config=CompilerConfig(gamma_steps=20, seed=0),
    )


def span_names(spans) -> set:
    names = set()
    stack = list(spans)
    while stack:
        span = stack.pop()
        names.add(span["name"])
        stack.extend(span.get("children", []))
    return names


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None, help="report JSON path")
    parser.add_argument("--n-terms", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    request = build_request(args.n_terms)
    backend = get_backend("advanced")
    backend.compile(request)  # one unmeasured warmup for both arms

    untraced_ms = []
    disabled_span_count = 0
    for _ in range(args.repeats):
        with tracing(enabled=False) as tracer:
            start = time.perf_counter()
            backend.compile(request)
            untraced_ms.append((time.perf_counter() - start) * 1e3)
            disabled_span_count += len(tracer.export())

    traced_ms = []
    last_tracer = None
    for _ in range(args.repeats):
        with tracing() as tracer:
            start = time.perf_counter()
            backend.compile(request)
            traced_ms.append((time.perf_counter() - start) * 1e3)
            last_tracer = tracer

    spans = last_tracer.export()
    names = span_names(spans)
    missing_stages = [stage for stage in PIPELINE_STAGES if stage not in names]
    chrome = chrome_trace(spans, process_name="bench_obs")
    n_events = validate_chrome_trace(chrome)

    untraced = statistics.median(untraced_ms)
    traced = statistics.median(traced_ms)
    overhead = traced / untraced if untraced > 0 else float("inf")

    output = Path(args.output) if args.output else REPO_ROOT / "BENCH_obs.json"
    write_trace(
        output.parent / "trace_obs.json",
        trace_document(spans, metrics=get_metrics(), label="bench_obs"),
    )
    write_trace(output.parent / "trace_obs.chrome.json", chrome)

    report = {
        "workload": {"molecule": "LiH", "n_terms": args.n_terms, "repeats": args.repeats},
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "untraced_ms": untraced_ms,
        "traced_ms": traced_ms,
        "untraced_median_ms": untraced,
        "traced_median_ms": traced,
        "overhead_factor": overhead,
        "overhead_ceiling": OVERHEAD_CEILING,
        "disabled_span_count": disabled_span_count,
        "chrome_trace_events": n_events,
        "missing_stages": missing_stages,
    }
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"untraced compile : {untraced:9.3f} ms (median of {args.repeats})")
    print(f"traced compile   : {traced:9.3f} ms (median of {args.repeats})")
    print(f"overhead         : {overhead:9.2f}x (ceiling {OVERHEAD_CEILING:.1f}x)")
    print(f"disabled spans   : {disabled_span_count} (must be 0)")
    print(f"chrome events    : {n_events} (schema valid)")
    print(f"stage coverage   : {len(PIPELINE_STAGES) - len(missing_stages)}"
          f"/{len(PIPELINE_STAGES)}")
    print(f"wrote {output}")

    ok = (
        overhead <= OVERHEAD_CEILING
        and disabled_span_count == 0
        and not missing_stages
        and n_events > 0
    )
    print(f"obs floors: {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
