"""Observability for the compile service: tier hit rates and latency tails.

:class:`ServiceMetrics` is the single metrics object a
:class:`~repro.service.CompileService` instance owns.  It tracks

* **tier counters** — how many finished jobs were served by each tier of the
  lookup path (``memory`` → ``disk`` → ``compute``) plus ``dedup`` joins
  (submits that attached to an identical in-flight compilation), and the
  failure/cancellation/backpressure-rejection counts;
* **queue pressure** — current and peak queue depth;
* **resilience counters** — deadline timeouts, retries consumed, abandoned
  compilations, pool-worker crashes, backend-fallback completions, disk
  faults observed and lookups that
  skipped the disk tier while its circuit breaker was open, plus the
  breaker's open/close transition counts and current state code;
* **latency histograms** — ``wait`` (submit → worker pickup), ``compute``
  (backend compile only) and ``total`` (submit → result) with p50/p95/p99.

Every field is one of the shared :mod:`repro.obs.metrics` primitives, held
as a public attribute: counters are :class:`~repro.obs.metrics.Counter`
(write ``.inc()``, read ``.value``), the queue depth and breaker state are
:class:`~repro.obs.metrics.Gauge` (write ``.set()``, read ``.value`` and
``.peak``), and the latency histograms are bounded
:class:`~repro.obs.metrics.Histogram` objects (reservoir-sampled, see
``DEFAULT_MAX_SAMPLES``), so a long-running service keeps sample memory
bounded.  The service's :class:`~repro.api.execute.Tiers` chain counts disk
faults and breaker skips straight into ``disk_faults`` / ``disk_degraded``.

Everything is plain-Python and JSON-serializable via :meth:`snapshot`, which
is what ``benchmarks/bench_service.py`` dumps into ``BENCH_service.json``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import Counter, MetricsRegistry

__all__ = ["TIERS", "ServiceMetrics"]

#: The lookup tiers a finished job can be served from.
TIERS = ("memory", "disk", "compute", "dedup")


class ServiceMetrics:
    """Counters, gauges and histograms of one :class:`CompileService`.

    A private :class:`~repro.obs.metrics.MetricsRegistry` backs every field,
    so each service instance snapshots independently; pass ``registry`` to
    aggregate several services into one registry instead.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        counter, gauge = self.registry.counter, self.registry.gauge
        self._tier_counters: Dict[str, Counter] = {
            tier: counter(f"service.tier.{tier}") for tier in TIERS
        }
        self.submitted = counter("service.submitted")
        self.failures = counter("service.failures")
        self.cancellations = counter("service.cancellations")
        self.rejections = counter("service.rejections")
        self.timeouts = counter("service.timeouts")
        self.retries = counter("service.retries")
        self.abandonments = counter("service.abandonments")
        self.worker_crashes = counter("service.worker_crashes")
        #: Jobs completed by a fallback backend after their own failed.
        self.fallbacks = counter("service.fallbacks")
        self.disk_faults = counter("service.disk_faults")
        self.disk_degraded = counter("service.disk_degraded")
        self.breaker_opens = counter("service.breaker.opens")
        self.breaker_closes = counter("service.breaker.closes")
        #: Disk-breaker state code: 0 closed, 1 half-open, 2 open.
        self.breaker_state = gauge("service.breaker.state")
        self.queue_depth = gauge("service.queue_depth")
        self.wait = self.registry.histogram("service.latency.wait")
        self.compute = self.registry.histogram("service.latency.compute")
        self.total = self.registry.histogram("service.latency.total")

    @property
    def tier_counts(self) -> Dict[str, int]:
        return {tier: counter.value for tier, counter in self._tier_counters.items()}

    def count_tier(self, tier: str) -> None:
        counter = self._tier_counters.get(tier)
        if counter is None:
            raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")
        counter.inc()

    # ------------------------------------------------------------------
    # Derived rates
    # ------------------------------------------------------------------
    @property
    def served(self) -> int:
        """Jobs that finished successfully (every tier, dedup included)."""
        return sum(counter.value for counter in self._tier_counters.values())

    def hit_rate(self, tier: str) -> float:
        """Fraction of served jobs answered by ``tier`` (0.0 when idle)."""
        counter = self._tier_counters.get(tier)
        if counter is None:
            raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")
        if self.served == 0:
            return 0.0
        return counter.value / self.served

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of served jobs that avoided a compile entirely."""
        if self.served == 0:
            return 0.0
        avoided = self.served - self._tier_counters["compute"].value
        return avoided / self.served

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """One JSON-serializable dict of everything above."""
        return {
            "submitted": self.submitted.value,
            "served": self.served,
            "tiers": self.tier_counts,
            "hit_rates": {
                tier: round(self.hit_rate(tier), 6) for tier in TIERS
            },
            "cache_hit_rate": round(self.cache_hit_rate, 6),
            "failures": self.failures.value,
            "cancellations": self.cancellations.value,
            "rejections": self.rejections.value,
            "queue_depth": self.queue_depth.value,
            "queue_depth_peak": self.queue_depth.peak,
            "resilience": {
                "timeouts": self.timeouts.value,
                "retries": self.retries.value,
                "abandonments": self.abandonments.value,
                "worker_crashes": self.worker_crashes.value,
                "fallbacks": self.fallbacks.value,
                "disk_faults": self.disk_faults.value,
                "disk_degraded": self.disk_degraded.value,
                "breaker_opens": self.breaker_opens.value,
                "breaker_closes": self.breaker_closes.value,
                "breaker_state": self.breaker_state.value,
            },
            "latency": {
                "wait": self.wait.summary(),
                "compute": self.compute.summary(),
                "total": self.total.summary(),
            },
        }
