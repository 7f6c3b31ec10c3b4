"""The three benchmark workloads: set-up, one measured pass, and their checks.

Each workload builds its inputs from the workload seed in its constructor
(that is the set-up ``setup_s`` times).  :meth:`run_pass` runs one pass over
its job set and returns one :class:`JobRecord` per job, the pass time scaled
to the reference CPU speed by a :class:`SpeedClock`, and the raw seconds of
the same timed stretches.  A job's ``counts`` are the exact CNOT/SWAP figures
that must repeat in every pass of a run, traced or not.  Checks that cost time beyond the job itself run in
:meth:`verify` and :meth:`quality` after the measured window.

* ``ladder_cold`` — the paper's Table I, cold: chemistry, Γ search and GTSP
  sorting do nearly all the work.
* ``device_verify`` — compile for a line or ring device, route and prove the
  result: hardware synthesis, SABRE routing and equivalence checking
  dominate, chemistry runs in set-up only.
* ``service_replay`` — a Zipf-weighted stream of compile calls, drawn anew
  for every pass from popularity ranks the seed fixes, against a
  ``CompileService`` that restarts halfway onto a warm disk cache: memory and
  disk lookups, in-flight dedup and write-through dominate.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import tempfile
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
import repro.circuits as circuits
import repro.hardware as hardware
import repro.verify as verify
from repro.api import (
    CompileCache,
    CompileRequest,
    CompilerConfig,
    compile_batch,
    compiled_rotation_sequence,
    get_backend,
)
from repro.chemistry import (
    build_molecular_hamiltonian,
    clear_integral_caches,
    clear_scf_cache,
    make_molecule,
    run_rhf,
)
from repro.obs import Tracer
from repro.service import CompileService, PersistentCompileCache
from repro.vqe import select_ansatz_terms

from clock import SpeedClock
from layers import JOB_SPAN


@dataclass
class JobRecord:
    """One executed job: its label, latency and the counts that must repeat."""

    key: str
    latency_s: float
    counts: Optional[tuple]
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


def run_jobs(jobs, clock: SpeedClock, tracer: Tracer):
    """Run ``(label, prepare, job)`` triples; ``job()`` returns the counts.

    ``prepare`` (cache clearing) runs outside the job's latency but inside the
    pass time.  Returns the records, the scaled pass time and its raw time;
    the calibration loops are in neither.
    """
    records = []
    elapsed = raw = 0.0
    unscaled: List[JobRecord] = []
    unscaled_s = 0.0
    for index, (label, prepare, job) in enumerate(jobs):
        segment_start = perf_counter()
        if prepare is not None:
            prepare()
        start = perf_counter()
        counts, error = None, ""
        try:
            with tracer.span(JOB_SPAN):
                counts = job()
        except Exception as exc:  # a failed job or proof is counted, not fatal
            error = repr(exc)
        end = perf_counter()
        unscaled.append(JobRecord(label, end - start, counts, error))
        unscaled_s += end - segment_start
        if clock.due() or index == len(jobs) - 1:
            scale = clock.scale()
            for record in unscaled:
                record.latency_s *= scale
            elapsed += unscaled_s * scale
            raw += unscaled_s
            records.extend(unscaled)
            unscaled, unscaled_s = [], 0.0
    return records, elapsed, raw


def clear_chemistry_caches() -> None:
    clear_scf_cache()
    clear_integral_caches()


def ranked_terms(molecule: str) -> Tuple[list, int]:
    """HMP2-ranked excitation terms and qubit count, frozen core as in Table I."""
    scf = run_rhf(make_molecule(molecule))
    frozen = 0 if molecule == "H2" else 1
    hamiltonian = build_molecular_hamiltonian(scf, n_frozen_spatial_orbitals=frozen)
    return select_ansatz_terms(hamiltonian), hamiltonian.n_spin_orbitals


def advanced_breakdown_totals(results) -> Dict[str, float]:
    """``core.cnot.*`` sums and the ``core.degraded`` count over advanced results."""
    totals = {"core.cnot.bosonic": 0, "core.cnot.hybrid": 0, "core.cnot.fermionic": 0}
    degraded = 0
    for result in results:
        for segment in ("bosonic", "hybrid", "fermionic"):
            totals[f"core.cnot.{segment}"] += result.breakdown[segment]
        degraded += bool(result.degraded)
    totals["core.degraded"] = degraded
    return totals


# ----------------------------------------------------------------------
# ladder_cold
# ----------------------------------------------------------------------
#: Table I rows.  H2 has only 3 excitation terms, so it enters once.
LADDER_ROWS = tuple(
    (molecule, n_terms)
    for molecule in ("H2", "LiH", "HF", "BeH2", "H2O", "NH3")
    for n_terms in (12, 20)
    if (molecule, n_terms) != ("H2", 20)
)


class LadderCold:
    """One ``compile_molecule_ansatz`` per Table I row, every cache cold."""

    name = "ladder_cold"
    per_call_percentiles = False

    def __init__(self, seed: int, tracer: Tracer):
        self.config = CompilerConfig(seed=seed)
        self.tracer = tracer
        #: label -> (CompilationReport, advanced CompileResult) of the first pass.
        self.first: Dict[str, tuple] = {}

    def _row(self, molecule: str, n_terms: int) -> tuple:
        cache = CompileCache()
        report = repro.compile_molecule_ansatz(
            molecule, n_terms, config=self.config, cache=cache
        )
        request = CompileRequest(
            terms=tuple(report.terms), n_qubits=report.n_qubits, config=self.config
        )
        advanced = cache.peek(CompileCache.key(request, "advanced"))
        self.first.setdefault(f"{molecule}/{n_terms}", (report, advanced))
        return (
            report.jordan_wigner_cnot_count,
            report.bravyi_kitaev_cnot_count,
            report.baseline_cnot_count,
            report.advanced_cnot_count,
            tuple(sorted(advanced.breakdown.items())),
        )

    def run_pass(self, clock: SpeedClock):
        jobs = [
            (
                f"{molecule}/{n_terms}",
                clear_chemistry_caches,
                partial(self._row, molecule, n_terms),
            )
            for molecule, n_terms in LADDER_ROWS
        ]
        return run_jobs(jobs, clock, self.tracer)

    def verify(self) -> Dict[str, str]:
        """Each advanced fermionic circuit implements its compiled sequence."""
        failures = {}
        for label, (report, advanced) in self.first.items():
            sequence = compiled_rotation_sequence(advanced, report.terms)
            try:
                verify.assert_implements_rotations(
                    advanced.details.fermionic_circuit(),
                    [(string, angle) for string, angle, _ in sequence],
                )
            except AssertionError as exc:
                failures[label] = str(exc)
        return failures

    def quality(self) -> Dict[str, float]:
        reports = [report for report, _ in self.first.values()]
        quality = {
            "cnot_advanced_total": sum(r.advanced_cnot_count for r in reports),
            "cnot_vs_baseline": statistics.geometric_mean(
                r.advanced_cnot_count / r.baseline_cnot_count for r in reports
            ),
            "rows_adv_worse": sum(
                r.advanced_cnot_count > r.baseline_cnot_count for r in reports
            ),
            "swaps_total": 0,
        }
        quality.update(advanced_breakdown_totals(a for _, a in self.first.values()))
        return quality

    def table(self, medians: Dict[str, float]) -> List[str]:
        lines = [
            f"{'row':<10}{'qubits':>7}{'jw':>6}{'bk':>6}{'gt':>6}{'adv':>6}"
            f"{'adv/gt':>8}{'median ms':>11}"
        ]
        for label, (report, _) in self.first.items():
            adv, gt = report.advanced_cnot_count, report.baseline_cnot_count
            lines.append(
                f"{label:<10}{report.n_qubits:>7}{report.jordan_wigner_cnot_count:>6}"
                f"{report.bravyi_kitaev_cnot_count:>6}{gt:>6}{adv:>6}"
                f"{adv / gt:>8.3f}{medians[label] * 1e3:>11.1f}"
                + ("  advanced loses" if adv > gt else "")
            )
        return lines


# ----------------------------------------------------------------------
# device_verify
# ----------------------------------------------------------------------
#: (molecule, n_terms, topology).  LiH/HF at 4 terms compress completely and
#: leave nothing to route.  The two 10-qubit jobs prove on the dense engine
#: (~1-2 s each proof) and are kept to two so a pass stays ~10 s; the H2O jobs
#: (12 qubits) prove by Pauli propagation and are the only ones that run Γ.
DEVICE_JOBS = (
    ("H2", 3, "line"),
    ("H2", 3, "ring"),
    ("LiH", 4, "line"),
    ("LiH", 4, "ring"),
    ("HF", 4, "line"),
    ("HF", 4, "ring"),
    ("LiH", 8, "line"),
    ("HF", 8, "ring"),
    ("H2O", 4, "line"),
    ("H2O", 4, "ring"),
    ("H2O", 8, "line"),
    ("H2O", 8, "ring"),
    ("H2O", 12, "line"),
    ("H2O", 12, "ring"),
)


@dataclass
class DeviceOutcome:
    terms: tuple
    n_qubits: int
    topology: object
    advanced: object
    steered_cnots: int = 0
    swaps: int = 0
    sabre_cnots: int = 0
    engines: Tuple[str, ...] = ()

    @property
    def routable(self) -> bool:
        return bool(self.engines)


class DeviceVerify:
    """Compile for a device, rebuild and SABRE-route the circuit, prove both."""

    name = "device_verify"
    per_call_percentiles = False

    def __init__(self, seed: int, tracer: Tracer):
        self.seed = seed
        self.tracer = tracer
        self.terms = {
            molecule: ranked_terms(molecule) for molecule in ("H2", "LiH", "HF", "H2O")
        }
        self.first: Dict[str, DeviceOutcome] = {}

    @staticmethod
    def label(molecule: str, n_terms: int, kind: str) -> str:
        return f"{molecule}/{n_terms}/{kind}"

    def _job(self, molecule: str, n_terms: int, kind: str) -> DeviceOutcome:
        ranked, n_qubits = self.terms[molecule]
        terms = tuple(ranked[:n_terms])
        topology = hardware.topology_for(kind, n_qubits)
        request = CompileRequest(
            terms=terms,
            n_qubits=n_qubits,
            config=CompilerConfig(seed=self.seed, topology=topology),
        )
        advanced = get_backend("advanced").compile(request)
        outcome = DeviceOutcome(terms, n_qubits, topology, advanced)
        sequence = compiled_rotation_sequence(advanced, terms)
        if not sequence:
            return outcome  # fully compressed: nothing to route
        steered = circuits.optimize_circuit(
            hardware.routed_exponential_sequence_circuit(sequence, topology)
        )
        unrouted = circuits.exponential_sequence_circuit(sequence, n_qubits=n_qubits)
        routed = hardware.route_circuit(unrouted, topology, seed=self.seed)
        undone = routed.circuit.compose(routed.undo_permutation_circuit())
        reports = (
            verify.check_equivalence(steered, unrouted),
            verify.check_equivalence(undone, unrouted),
        )
        if not all(report.equivalent for report in reports):
            raise AssertionError(f"verdicts {reports}")
        if steered.cnot_count != advanced.routing.cnot_count:
            raise AssertionError(
                f"rebuilt steered circuit has {steered.cnot_count} CNOTs, "
                f"the compile reported {advanced.routing.cnot_count}"
            )
        outcome.steered_cnots = steered.cnot_count
        outcome.swaps = routed.n_swaps
        outcome.sabre_cnots = routed.routed_cnot_count
        outcome.engines = tuple(report.engine for report in reports)
        return outcome

    def _counts(self, molecule: str, n_terms: int, kind: str) -> tuple:
        outcome = self._job(molecule, n_terms, kind)
        self.first.setdefault(self.label(molecule, n_terms, kind), outcome)
        return (
            outcome.advanced.cnot_count,
            outcome.steered_cnots,
            outcome.swaps,
            outcome.sabre_cnots,
        )

    def run_pass(self, clock: SpeedClock):
        jobs = [
            (self.label(*job), None, partial(self._counts, *job)) for job in DEVICE_JOBS
        ]
        return run_jobs(jobs, clock, self.tracer)

    def verify(self) -> Dict[str, str]:
        return {}  # every job proves its own circuits inside the pass

    def quality(self) -> Dict[str, float]:
        routable = [o for o in self.first.values() if o.routable]
        ratios = []
        for outcome in routable:
            request = CompileRequest(
                terms=outcome.terms,
                n_qubits=outcome.n_qubits,
                config=CompilerConfig(seed=self.seed, topology=outcome.topology),
            )
            baseline = get_backend("baseline").compile(request)
            ratios.append(outcome.steered_cnots / baseline.routing.cnot_count)
        quality = {
            "cnot_advanced_total": sum(o.steered_cnots for o in routable),
            "cnot_vs_baseline": statistics.geometric_mean(ratios),
            "rows_adv_worse": sum(ratio > 1 for ratio in ratios),
            "swaps_total": sum(o.swaps for o in routable),
        }
        quality.update(advanced_breakdown_totals(o.advanced for o in self.first.values()))
        return quality

    def table(self, medians: Dict[str, float]) -> List[str]:
        lines = [
            f"{'job':<16}{'qubits':>7}{'adv':>6}{'steered':>9}{'swaps':>7}"
            f"{'sabre':>7}  {'engines':<13}{'median ms':>10}"
        ]
        for label, outcome in self.first.items():
            if outcome.routable:
                detail = (
                    f"{outcome.steered_cnots:>9}{outcome.swaps:>7}"
                    f"{outcome.sabre_cnots:>7}  {'/'.join(outcome.engines):<13}"
                )
            else:
                detail = f"{'nothing to route':>38}"
            lines.append(
                f"{label:<16}{outcome.n_qubits:>7}{outcome.advanced.cnot_count:>6}"
                f"{detail}{medians[label] * 1e3:>10.1f}"
            )
        return lines


# ----------------------------------------------------------------------
# service_replay
# ----------------------------------------------------------------------
SERVICE_MOLECULES = ("H2", "LiH", "HF")
SERVICE_TERM_COUNTS = (4, 8, 12)
SERVICE_BACKENDS = ("baseline", "advanced")
#: Calls per pass; >= 1000 so the p99 has ten samples above it.
STREAM_CALLS = 1200
#: Chosen so that the first 600 calls of a stream split, on average over
#: seeds, into about 552 memory hits, 28 computes and 20 dedup joins, and the
#: 600 calls after the restart reach all 28 requests through the disk tier:
#: the tier mix this service was measured at with a 600-call stream.
ZIPF_EXPONENT = 1.1
SERVICE_TIERS = ("memory", "disk", "compute", "dedup")


def result_fingerprint(result, terms) -> tuple:
    """What a served result must share with a direct compile of its request."""
    sequence = compiled_rotation_sequence(result, terms)
    return (
        result.backend,
        result.cnot_count,
        result.n_qubits,
        tuple(sorted(result.breakdown.items())),
        tuple((repr(string), round(angle, 12), target) for string, angle, target in sequence),
    )


class ServiceReplay:
    """Two closed-loop clients replay a Zipf stream; the service restarts halfway."""

    name = "service_replay"
    per_call_percentiles = True

    def __init__(self, seed: int, tracer: Tracer, scratch: Path):
        self.tracer = tracer
        self.scratch = scratch
        rng = np.random.default_rng(seed)
        config_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=2)]
        pool: Dict[tuple, tuple] = {}
        for molecule in SERVICE_MOLECULES:
            ranked, n_qubits = ranked_terms(molecule)
            for n_terms in SERVICE_TERM_COUNTS:
                terms = tuple(ranked[:n_terms])  # H2 has 3 terms: one request
                for index, config_seed in enumerate(config_seeds):
                    request = CompileRequest(
                        terms=terms,
                        n_qubits=n_qubits,
                        config=CompilerConfig(seed=config_seed),
                    )
                    for backend in SERVICE_BACKENDS:
                        label = f"{molecule}/{len(terms)}/s{index}/{backend}"
                        pool.setdefault(
                            CompileCache.key(request, backend), (label, request, backend)
                        )
        self.pool = list(pool.values())
        self.references = [
            get_backend(backend).compile(request) for _, request, backend in self.pool
        ]
        self.reference_prints = [
            result_fingerprint(result, request.terms)
            for result, (_, request, _) in zip(self.references, self.pool)
        ]
        # The seed ranks the requests by popularity once; each pass draws a
        # fresh stream from that ranking.  One stream replayed in every pass
        # makes job_p99_ms a property of that draw (which slow computes and
        # dedup waits it happens to hold): its spread over five seeds was
        # 0.67 of the median, against 0.13 with a fresh stream per pass.
        popularity = rng.permutation(len(self.pool))
        weights = 1.0 / (popularity + 1.0) ** ZIPF_EXPONENT
        self.weights = weights / weights.sum()
        self.rng = rng
        self.snapshots: List[dict] = []
        self.calls: Counter = Counter()
        self.passes = 0

    def _draw_stream(self) -> List[int]:
        draws = self.rng.choice(len(self.pool), size=STREAM_CALLS, p=self.weights)
        return [int(index) for index in draws]

    async def _phase(self, calls: List[int], disk_dir: str, records, served) -> None:
        service = CompileService(
            disk_cache=PersistentCompileCache(disk_dir), n_workers=2
        )
        await service.start()
        pending = iter(calls)

        async def client() -> None:
            for index in pending:
                label, request, backend = self.pool[index]
                start = perf_counter()
                try:
                    with self.tracer.span(JOB_SPAN):
                        result = await service.compile(request, backend)
                except Exception as exc:  # refused or failed calls are counted
                    records.append(JobRecord(label, perf_counter() - start, None, repr(exc)))
                    continue
                records.append(JobRecord(label, perf_counter() - start, (result.cnot_count,)))
                served.append((records[-1], index, result))

        try:
            await asyncio.gather(client(), client())
        finally:
            await service.shutdown()
            self.snapshots.append(service.snapshot())

    def run_pass(self, clock: SpeedClock):
        """Replay a fresh stream: half on a cold service, half after a restart.

        Each half runs on its own event loop; the second service shares only
        the disk directory with the first.
        """
        stream = self._draw_stream()
        self.calls.update(self.pool[index][0] for index in stream)
        self.passes += 1
        half = len(stream) // 2
        records: List[JobRecord] = []
        served: List[tuple] = []
        elapsed = raw = 0.0
        with tempfile.TemporaryDirectory(dir=self.scratch) as disk_dir:
            for calls in (stream[:half], stream[half:]):
                first = len(records)
                start = perf_counter()
                asyncio.run(self._phase(calls, disk_dir, records, served))
                wall = perf_counter() - start
                scale = clock.scale()
                for record in records[first:]:
                    record.latency_s *= scale
                elapsed += wall * scale
                raw += wall
        # Every served answer must equal the direct compile made in set-up.
        checked: Dict[int, bool] = {}
        for record, index, result in served:
            if id(result) not in checked:
                label, request, _ = self.pool[index]
                checked[id(result)] = (
                    result_fingerprint(result, request.terms) == self.reference_prints[index]
                )
            if not checked[id(result)]:
                record.error = "served result differs from a direct compile"
        return records, elapsed, raw

    def verify(self) -> Dict[str, str]:
        return {}  # every call is checked against its reference in the pass

    def quality(self) -> Dict[str, float]:
        """CNOT figures of the pool; every served result was checked equal to these."""
        cnots = {
            label: result.cnot_count
            for (label, _, _), result in zip(self.pool, self.references)
        }
        advanced = [r for r in self.references if r.backend == "advanced"]
        ratios = [
            cnots[label] / cnots[label.replace("/advanced", "/baseline")]
            for label, _, backend in self.pool
            if backend == "advanced"
        ]
        quality = {
            "cnot_advanced_total": sum(r.cnot_count for r in advanced),
            "cnot_vs_baseline": statistics.geometric_mean(ratios),
            "rows_adv_worse": sum(ratio > 1 for ratio in ratios),
            "swaps_total": 0,
        }
        quality.update(advanced_breakdown_totals(advanced))
        return quality

    def service_stats(self) -> Dict[str, float]:
        """``service.*`` per-layer figures from every phase's snapshot."""
        metrics = [snapshot["metrics"] for snapshot in self.snapshots]
        n_passes = len(metrics) // 2
        tiers = {
            tier: sum(m["tiers"][tier] for m in metrics) / n_passes
            for tier in SERVICE_TIERS
        }
        served = sum(tiers.values())
        compute_p50 = [
            m["latency"]["compute"]["p50_ms"]
            for m in metrics
            if m["latency"]["compute"]["count"]
        ]
        stats = {f"service.tier.{tier}": value for tier, value in tiers.items()}
        stats.update(
            {
                "service.cache_hit_rate": (served - tiers["compute"]) / served,
                "service.wait_p50_ms": statistics.median(
                    m["latency"]["wait"]["p50_ms"] for m in metrics
                ),
                "service.compute_p50_ms": statistics.median(compute_p50),
                "service.queue_depth_peak": max(m["queue_depth_peak"] for m in metrics),
                "service.failures": sum(m["failures"] for m in metrics),
            }
        )
        return stats

    def phase_tiers(self) -> Dict[str, Dict[str, float]]:
        """Mean calls per tier in the cold phase and in the restart phase."""
        phases = {}
        for phase, snapshots in (
            ("cold", self.snapshots[0::2]), ("restart", self.snapshots[1::2])
        ):
            phases[phase] = {
                tier: statistics.mean(s["metrics"]["tiers"][tier] for s in snapshots)
                for tier in SERVICE_TIERS
            }
        return phases

    def table(self, medians: Dict[str, float]) -> List[str]:
        lines = [f"{'request':<24}{'cnots':>7}{'calls/pass':>12}{'median ms':>11}"]
        for (label, _, _), result in zip(self.pool, self.references):
            median = f"{medians[label] * 1e3:>11.3f}" if label in medians else f"{'-':>11}"
            lines.append(
                f"{label:<24}{result.cnot_count:>7}"
                f"{self.calls[label] / self.passes:>12.1f}{median}"
            )
        for phase, tiers in self.phase_tiers().items():
            mix = ", ".join(f"{tiers[tier]:.1f} {tier}" for tier in SERVICE_TIERS)
            lines.append(f"{phase} phase, calls per pass: {mix}")
        return lines


WORKLOADS = {
    LadderCold.name: LadderCold,
    DeviceVerify.name: DeviceVerify,
    ServiceReplay.name: ServiceReplay,
}


def golden_failures(root: Path) -> Tuple[Dict[str, str], int]:
    """The golden cases (H2 and HMP2-small) reproduce under their pinned config.

    Returns the failures and the number of cases checked.
    """
    golden = json.loads((root / "tests" / "golden" / "table1_fast.json").read_text())
    config = CompilerConfig(**golden["config"])
    failures = {}
    for case, expected in golden["cases"].items():
        scf = run_rhf(make_molecule(expected["molecule"]))
        hamiltonian = build_molecular_hamiltonian(
            scf, n_frozen_spatial_orbitals=expected["n_frozen_spatial_orbitals"]
        )
        terms = select_ansatz_terms(hamiltonian, expected["n_terms"])
        request = CompileRequest(
            terms=tuple(terms), n_qubits=hamiltonian.n_spin_orbitals, config=config
        )
        row = compile_batch([request], backends=tuple(expected["cnot_counts"])).results[0]
        counts = {name: row[name].cnot_count for name in expected["cnot_counts"]}
        breakdown = dict(row["advanced"].breakdown)
        if counts != expected["cnot_counts"] or breakdown != expected["advanced_breakdown"]:
            failures[f"golden:{case}"] = f"got {counts} {breakdown}"
    return failures, len(golden["cases"])
