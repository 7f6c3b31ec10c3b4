"""Per-layer attribution for the traced run, done entirely from outside ``src/``.

The program's own tracer stays off.  The benchmark owns a separate
``repro.obs.Tracer(enabled=True)`` and, for the duration of a traced pass,
replaces a fixed set of public entry points with span-opening wrappers at the
module attribute the caller looks them up through.  Nothing changes inside
the wrapped functions, so a traced pass computes exactly what an untraced pass
computes, and :meth:`Instrumentation.applied` puts every original back when
the pass ends.

A layer's self time is its span's duration minus the time its child spans
cover.  The part of the ``bench.job`` time that no layer claims is reported
as ``api.unattributed_s``.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import repro
import repro.api.backends as api_backends
import repro.circuits as circuits
import repro.hardware as hardware
import repro.verify as verify
from repro.api import get_backend
from repro.core.pipeline import DEFAULT_STAGES, AdvancedPipeline
from repro.obs import Tracer

#: Root span around one benchmark job (one client call on ``service_replay``).
JOB_SPAN = "bench.job"

#: Span names the traced run can produce, each reported as ``<name>.busy_s``.
LAYER_SPANS = (
    "chemistry.run_rhf",
    "chemistry.build_molecular_hamiltonian",
    "vqe.select_ansatz_terms",
    *(f"core.{name}" for name, _ in DEFAULT_STAGES),
    "transforms.jordan-wigner",
    "transforms.bravyi-kitaev",
    "baselines.baseline",
    "hardware.steered_synthesis",
    "circuits.optimize_circuit",
    "hardware.route_circuit",
    "verify.check_equivalence",
)

VERIFY_ENGINES = ("dense", "pauli", "tableau", "sparse")


def _set_engine(span, report) -> None:
    span.set_attribute("engine", report.engine)


def _set_swaps(span, result) -> None:
    span.set_attribute("swaps", result.n_swaps)


class Instrumentation:
    """Span wrappers around public entry points, applied one pass at a time."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        stages = tuple(
            (name, self._traced(stage, f"core.{name}")) for name, stage in DEFAULT_STAGES
        )

        def traced_pipeline(config=None):
            return AdvancedPipeline(config, stages=stages)

        # (owner, attribute, replacement).  Module attributes are patched where
        # the caller resolves them: compile_molecule_ansatz looks its chemistry
        # up on ``repro``, AdvancedBackend builds its pipeline and its routing
        # metrics through names imported into ``repro.api.backends``, and the
        # benchmark's own calls go through ``repro.hardware`` /
        # ``repro.circuits`` / ``repro.verify``.  Backends are patched on the
        # registered instance that get_backend hands to compile_batch and to
        # the service's executor threads.
        self._patches: List[Tuple[Any, str, Any]] = [
            (api_backends, "AdvancedPipeline", traced_pipeline),
        ]
        steered = "routed_exponential_sequence_circuit"
        for owner, attr, span_name, on_result in (
            (repro, "run_rhf", "chemistry.run_rhf", None),
            (repro, "build_molecular_hamiltonian", "chemistry.build_molecular_hamiltonian", None),
            (repro, "select_ansatz_terms", "vqe.select_ansatz_terms", None),
            (api_backends, steered, "hardware.steered_synthesis", None),
            (api_backends, "optimize_circuit", "circuits.optimize_circuit", None),
            (hardware, steered, "hardware.steered_synthesis", None),
            (circuits, "optimize_circuit", "circuits.optimize_circuit", None),
            (hardware, "route_circuit", "hardware.route_circuit", _set_swaps),
            (verify, "check_equivalence", "verify.check_equivalence", _set_engine),
        ):
            self._patches.append(
                (owner, attr, self._traced(getattr(owner, attr), span_name, on_result))
            )
        for backend_name, span_name in (
            ("jordan-wigner", "transforms.jordan-wigner"),
            ("bravyi-kitaev", "transforms.bravyi-kitaev"),
            ("baseline", "baselines.baseline"),
        ):
            backend = get_backend(backend_name)
            self._patches.append(
                (backend, "compile", self._traced(backend.compile, span_name))
            )

    def _traced(
        self, function: Callable, span_name: str, on_result: Optional[Callable] = None
    ) -> Callable:
        tracer = self.tracer

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with tracer.span(span_name) as span:
                result = function(*args, **kwargs)
                if on_result is not None:
                    on_result(span, result)
            return result

        return traced

    @contextmanager
    def applied(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        for owner, attr, replacement in self._patches:
            saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, replacement)
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)


_MISSING = object()


def _self_time(span) -> float:
    return span.duration_s - sum(child.duration_s for child in span.children)


def layer_totals(roots: Iterable) -> Dict[str, Any]:
    """Self seconds and calls per span name over a span forest.

    Returns ``busy`` / ``calls`` per layer span name, with
    ``verify.engine.<e>`` split out of ``verify.check_equivalence`` by the
    report's engine; ``swaps`` (SABRE SWAPs over every traced
    ``route_circuit``); ``job_s`` (summed ``bench.job`` durations);
    ``unattributed_s`` (``job_s`` minus every layer's self time) and
    ``overlap_s`` (summed negative self times, which is zero unless a child
    span outlives its parent).

    Within a job tree the layer self times and the job span's own self time
    add up to the job's duration.  A service runs compiles on executor
    threads whose spans have no parent; each lies inside the interval its
    waiting client spends in ``bench.job``, so subtracting their self time
    from ``job_s`` still leaves the client time no layer accounts for.
    """
    busy: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    swaps = 0
    job_s = 0.0
    overlap_s = 0.0
    for root in roots:
        if root.name == JOB_SPAN:
            job_s += root.duration_s
        for span in root.walk():
            if span.name == JOB_SPAN:
                continue
            if span.name not in LAYER_SPANS:
                raise ValueError(f"traced run produced an unknown span {span.name!r}")
            own = _self_time(span)
            overlap_s += min(own, 0.0)
            busy[span.name] += own
            calls[span.name] += 1
            if span.name == "verify.check_equivalence":
                engine = f"verify.engine.{span.attributes.get('engine')}"
                busy[engine] += own
                calls[engine] += 1
            swaps += span.attributes.get("swaps", 0)
    layers_s = sum(busy[name] for name in LAYER_SPANS if name in busy)
    return {
        "busy": dict(busy),
        "calls": dict(calls),
        "swaps": swaps,
        "job_s": job_s,
        "unattributed_s": job_s - layers_s,
        "overlap_s": overlap_s,
    }
