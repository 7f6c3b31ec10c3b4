"""The job-execution core shared by :func:`compile_batch` and ``CompileService``.

Both front ends serve a compile job the same way: look it up in the tier
chain memory (:class:`CompileCache`) → journal → disk, compute it on a miss,
walk a backend fallback chain when the compute fails, and store the result.
This module holds the synchronous parts of that:

* the worker entry points :func:`compile_job` / :func:`compile_job_traced`;
* the one retry rule: :data:`TRANSIENT` failures earn another attempt on the
  same backend (the ``RetryPolicy`` default), :data:`FALLBACK_RETRYABLE`
  failures one on the next backend of a fallback chain;
* :class:`Tiers`, whose :meth:`Tiers.store` enforces the one cache-entry
  contract.  Memory and disk hold a result only under its *own* backend's
  key, so a fallback never poisons the failed primary's entry.  The journal
  ("this job is done") holds it under the job's *primary* key, so a resumed
  batch serves the same result instead of retrying the failed backend.
  A result that is not :func:`shareable` (a draw under ``seed=None``) is
  filed in no tier, deduplicated within no batch and joined by no submit.

Journal and disk are both :class:`~repro.service.PersistentCompileCache`
instances; a batch fills in memory and journal, the service memory and disk.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, Optional, Tuple

from repro import faults
from repro.api.backend import CompileRequest, CompileResult, get_backend
from repro.core.pipeline import StageFailure
from repro.obs.metrics import Counter, get_metrics
from repro.obs.tracer import tracing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.cache import PersistentCompileCache
    from repro.service.resilience import CircuitBreaker


class WorkerCrashed(RuntimeError):
    """A process-pool worker died mid-compile (e.g. OOM-killed).

    Raised in place of the executor's ``BrokenProcessPool`` so the failure is
    (a) scoped to the job that hit it rather than poisoning the service and
    (b) classified as retryable — the pool is replenished and the retry (or a
    dedup joiner awaiting the same future) gets the recomputed result.
    """


#: Transient infrastructure failures, worth another attempt on the same
#: backend: I/O errors (``ConnectionError`` and injected faults included),
#: broken executors and died pool workers.
TRANSIENT: Tuple[type, ...] = (OSError, BrokenExecutor, WorkerCrashed)

#: Failures a backend-fallback chain retries on: the transient ones plus
#: typed pipeline stage failures.  Input-validation errors (ValueError,
#: TypeError) are deliberately excluded — a request every backend would
#: reject should fail, not burn the chain.
FALLBACK_RETRYABLE: Tuple[type, ...] = TRANSIENT + (StageFailure,)

#: Journal writes that failed and were swallowed, in the global obs registry.
_JOURNAL_ERRORS = get_metrics().counter("batch.checkpoint.errors")

#: A memoization key: (request fingerprint, canonical backend name).
CacheKey = Tuple[Hashable, str]


def cache_key_digest(key: CacheKey) -> str:
    """Stable SHA-256 content address of a memoization key (hex).

    A :data:`CacheKey` is a nest of primitives — ints, floats, strings,
    booleans, ``None`` and tuples (nested dataclasses such as
    :class:`~repro.hardware.topology.Topology` are flattened by the config
    fingerprint's ``dataclasses.astuple``) — so its ``repr`` is deterministic
    across processes and interpreter restarts.  The persistent on-disk cache
    (:class:`repro.service.PersistentCompileCache`) uses this digest to shard
    and address entries.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


@dataclass
class CompileCache:
    """In-memory memoization of compile results with hit/miss accounting.

    ``max_entries`` bounds the cache: when set, inserting beyond the bound
    evicts the least-recently-used entry (a :meth:`get` hit refreshes an
    entry's recency, :meth:`peek` does not) and increments ``evictions``,
    mirroring the bounded-cache convention of the SCF/integral caches.
    ``None`` (the default) keeps the historical unbounded behavior.
    """

    _store: Dict[CacheKey, CompileResult] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    max_entries: Optional[int] = None
    evictions: int = 0

    def __post_init__(self):
        if self.max_entries is not None and self.max_entries < 1:
            raise ValueError("max_entries must be None or at least 1")

    @staticmethod
    def key(request: CompileRequest, backend_name: str) -> CacheKey:
        """Memoization key; config is mostly excluded for config-blind backends.

        A backend declaring ``uses_config = False`` (the naive JW/BK flows)
        compiles identically under every config, so sweeps over pipeline
        knobs share its cache entries.  The one exception is the device
        ``topology``: even the naive flows route against it, so it stays in
        the key.  Either way the key ends with the canonical backend name.
        """
        backend = get_backend(backend_name)
        if getattr(backend, "uses_config", True):
            return (request.fingerprint, backend.name)
        return (request.input_fingerprint, request.config.topology, backend.name)

    def get(self, key: CacheKey) -> Optional[CompileResult]:
        result = self._store.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
            if self.max_entries is not None:  # refresh LRU recency
                self._store[key] = self._store.pop(key)
        return result

    def peek(self, key: CacheKey) -> Optional[CompileResult]:
        """Like :meth:`get` but without touching counters or LRU recency."""
        return self._store.get(key)

    def put(self, key: CacheKey, result: CompileResult) -> None:
        self._store.pop(key, None)  # re-insert at the most-recent position
        self._store[key] = result
        if self.max_entries is not None:
            while len(self._store) > self.max_entries:
                del self._store[next(iter(self._store))]
                self.evictions += 1

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._store


def shareable(request: CompileRequest, backend_name: str) -> bool:
    """Whether ``backend_name``'s result for ``request`` may serve another job.

    Not when a config-reading backend (``uses_config``, the default) compiled
    under ``seed=None``: the next compile may draw another answer.
    """
    if request.config.seed is not None:
        return True
    return not getattr(get_backend(backend_name), "uses_config", True)


def compile_job(job: Tuple[str, CompileRequest]) -> CompileResult:
    """Worker entry point: resolve the backend by name and compile.

    Fault sites (no-ops without an active plan): ``pool.worker``, where a
    ``kill`` rule takes down a pool process, and ``compute``.  Pool workers
    inherit a plan by fork or from the ``REPRO_FAULTS`` environment variable.
    """
    backend_name, request = job
    faults.fire("pool.worker", backend=backend_name)
    faults.fire("compute", backend=backend_name)
    return get_backend(backend_name).compile(request)


def compile_job_traced(job: Tuple[str, CompileRequest]):
    """:func:`compile_job` under a fresh tracer, returning ``(result, spans)``.

    Executor paths use it while the parent's tracer is on; the picklable
    spans are rebased by :meth:`~repro.obs.tracer.Tracer.adopt` in the parent.
    """
    with tracing() as tracer:
        result = compile_job(job)
        return result, tracer.export()


@dataclass
class Tiers:
    """The lookup chain memory → journal → disk, and its one write path.

    Every tier is optional, and no tier failure fails a job.  A failed
    journal write is counted (``batch.checkpoint.errors``) and only costs a
    recompile on resume.  Disk calls are skipped while ``breaker`` is open
    (``disk_skipped``); one that raises or invalidates an entry counts in
    ``disk_faults``, as a breaker failure, and degrades to a miss.
    """

    memory: Optional[CompileCache] = None
    journal: Optional["PersistentCompileCache"] = None
    disk: Optional["PersistentCompileCache"] = None
    breaker: Optional["CircuitBreaker"] = None
    disk_faults: Counter = field(default_factory=lambda: Counter("disk_faults"))
    disk_skipped: Counter = field(default_factory=lambda: Counter("disk_skipped"))

    def lookup(self, key: CacheKey) -> Tuple[Optional[CompileResult], Optional[str]]:
        """``(result, tier)`` of the first tier holding ``key``, else ``(None, None)``.

        A journal or disk hit that ``key``'s own backend produced is
        promoted into memory.
        """
        if self.memory is not None:
            result = self.memory.get(key)
            if result is not None:
                return result, "memory"
        result = None
        if self.journal is not None:
            result, tier = self.journal.get(key), "journal"
        if result is None and self.disk is not None:
            result, tier = self._disk_call(self.disk.get, key), "disk"
        if result is None:
            return None, None
        if self.memory is not None and result.backend == key[-1]:
            self.memory.put(key, result)
        return result, tier

    def store(self, key: CacheKey, request: CompileRequest, result: CompileResult) -> None:
        """Write ``result`` of the job keyed ``key`` to every tier.

        Memory and disk file it under the key of the backend that produced it
        (``result.backend``); the journal under ``key`` itself.  A result
        that is not :func:`shareable` is filed nowhere.
        """
        if not shareable(request, result.backend):
            return
        own_key = key
        if result.backend != key[-1]:
            own_key = CompileCache.key(request, result.backend)
        if self.memory is not None:
            self.memory.put(own_key, result)
        if self.journal is not None:
            try:
                faults.fire("checkpoint.write", digest=cache_key_digest(key))
                self.journal.put(key, result)
            except OSError:
                _JOURNAL_ERRORS.inc()
        if self.disk is not None:
            self._disk_call(self.disk.put, own_key, result)

    def _disk_call(self, operation, *args):
        """One disk operation behind the breaker; ``None`` if skipped or failed."""
        if self.breaker is not None and not self.breaker.allow():
            self.disk_skipped.inc()
            return None
        before = self.disk.fault_events
        try:
            outcome = operation(*args)
        except OSError:
            outcome, failed = None, True
        else:
            failed = self.disk.fault_events != before
        if failed:
            self.disk_faults.inc()
        if self.breaker is not None:
            if failed:
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
        return outcome
