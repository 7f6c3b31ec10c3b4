"""Batch compilation service: memoized, optionally parallel, multi-backend.

:func:`compile_batch` runs many :class:`~repro.api.backend.CompileRequest`
jobs across one or more backends in a single call.  Identical jobs — same
terms fingerprint, backend and config — are compiled once and served from a
:class:`CompileCache`, which can be kept across calls so warm batches skip
recompilation entirely.  With ``workers > 1`` the outstanding jobs fan out
over a process pool (every flow is CPU-bound pure Python, so threads would
not help).

>>> from repro.api import CompileRequest, CompileCache, compile_batch
>>> cache = CompileCache()
>>> batch = compile_batch(requests, backends=("baseline", "advanced"), cache=cache)
>>> batch.results[0]["advanced"].cnot_count
>>> compile_batch(requests, backends="advanced", cache=cache).cache_hits  # warm
len(requests)

Batches are resumable (``checkpoint_dir=``, a crash-safe journal a killed
run resumes from), degradable (``fallback=``, a backend chain for failed
jobs) and failure-isolating (``on_error="collect"``); see
:func:`compile_batch`.  Lookup, the journal and cache writes go through the
job-execution core :mod:`repro.api.execute`, shared with the compile service.

Worker processes resolve backends by name from their own registry.  The four
default backends are always available there; custom backends reach workers
only on platforms whose process start method is ``fork`` (Linux), because a
``spawn``-ed worker imports just :mod:`repro.api` and never the module that
registered the custom backend.  :func:`compile_batch` refuses that
combination eagerly (see :func:`_check_worker_backends`) instead of letting
workers fail with an opaque ``KeyError`` mid-batch.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import Executor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.api.backend import CompileRequest, CompileResult, canonical_backend_name
from repro.api.execute import (
    FALLBACK_RETRYABLE,
    CacheKey,
    CompileCache,
    Tiers,
    cache_key_digest,
    compile_job,
    compile_job_traced,
    shareable,
)
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer

#: Batch-robustness traffic, in the global obs registry.
_BATCH_FALLBACKS = get_metrics().counter("batch.fallbacks")
_BATCH_SKIPPED = get_metrics().counter("batch.checkpoint.skipped")
_BATCH_FAILURES = get_metrics().counter("batch.failures")


class BackendResults(Dict[str, CompileResult]):
    """One request's results, keyed by canonical backend name.

    Lookup also accepts registered aliases, so ``row["jw"]`` and
    ``row["jordan-wigner"]`` return the same result.
    """

    def __missing__(self, key: str) -> CompileResult:
        canonical = canonical_backend_name(key)
        if canonical == key:
            raise KeyError(key)
        return self[canonical]

    def __contains__(self, key: object) -> bool:
        if super().__contains__(key):
            return True
        try:
            return super().__contains__(canonical_backend_name(str(key)))
        except KeyError:
            return False

    def get(self, key: str, default=None):
        try:
            return self[key]
        except KeyError:
            return default


@dataclass(frozen=True)
class JobFailure:
    """One batch job that failed after exhausting its fallback chain.

    ``attempts`` lists every ``(backend, error repr)`` tried, the job's
    primary backend first; ``error`` repeats the primary backend's error.
    """

    digest: str
    backend: str
    error: str
    attempts: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class FallbackRecord:
    """One batch job completed by a fallback backend after failures.

    ``failed`` names the backends that raised, in the order tried (the job's
    primary backend first); ``succeeded`` is the backend whose result the
    job's row carries.
    """

    digest: str
    failed: Tuple[str, ...]
    succeeded: str


@dataclass
class BatchReport:
    """Per-job accounting of one :func:`compile_batch` run.

    All jobs are identified by their :func:`cache_key_digest`.  ``compiled``
    are the jobs executed this run (including fallback completions);
    ``skipped`` were served from the checkpoint journal of a previous run;
    ``failed`` exhausted every backend (only populated under
    ``on_error="collect"``); ``fallbacks`` details each backend
    substitution.  Jobs served by the in-memory cache appear in none of
    these — they cost nothing and are visible in ``BatchResult.cache_hits``.
    """

    compiled: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    failed: List[JobFailure] = field(default_factory=list)
    fallbacks: List[FallbackRecord] = field(default_factory=list)

    @property
    def failed_digests(self) -> Tuple[str, ...]:
        return tuple(failure.digest for failure in self.failed)


@dataclass
class BatchResult:
    """Outcome of one :func:`compile_batch` call.

    ``results`` holds one mapping per input request, keyed by canonical
    backend name (alias lookup works too), in request order.  A job that
    failed under ``on_error="collect"`` is *absent* from its row (lookup
    raises ``KeyError``, ``row.get(name)`` returns ``None``); consult
    ``report.failed`` for the error.  A job completed by a fallback backend
    carries that backend's result (``result.backend`` names it) under the
    requested backend's row key.
    """

    results: List[BackendResults]
    backends: Tuple[str, ...]
    cache_hits: int
    cache_misses: int
    wall_time_s: float
    report: BatchReport = field(default_factory=BatchReport)

    def cnot_counts(self, backend: str) -> List[int]:
        """The per-request CNOT counts of one backend, in request order."""
        canonical = canonical_backend_name(backend)
        return [row[canonical].cnot_count for row in self.results]


def _run_jobs_incremental(
    executor: Executor,
    jobs: Sequence[Tuple[Hashable, Tuple[CacheKey, str, CompileRequest]]],
    tracer,
    complete: Callable[[Hashable, CompileResult], None],
    settle_failure: Callable[[Hashable, BaseException], None],
) -> None:
    """Submit every job and handle each outcome *as it completes*.

    Results reach ``complete`` (cache put + journal record) the moment their
    future resolves, so a batch killed mid-run keeps every job finished
    before the kill.  With the
    tracer enabled, jobs go through :func:`compile_job_traced` and each
    worker's span forest is adopted under the current span.  A broken pool
    fails only the unfinished jobs (each reaches ``settle_failure`` with the
    ``BrokenExecutor`` error); already-resolved futures keep their results.
    """
    fn = compile_job_traced if tracer.enabled else compile_job
    futures = {
        executor.submit(fn, (name, request)): slot
        for slot, (_, name, request) in jobs
    }
    for future in as_completed(futures):
        slot = futures[future]
        try:
            outcome = future.result()
        except Exception as exc:
            settle_failure(slot, exc)
            continue
        if tracer.enabled:
            result, spans = outcome
            tracer.adopt(spans)
        else:
            result = outcome
        complete(slot, result)


def _check_worker_backends(canonical_names: Sequence[str]) -> None:
    """Refuse custom backends on process pools whose start method isn't fork.

    A ``spawn``-ed (or ``forkserver``-ed) worker imports :mod:`repro.api`
    fresh and never runs the module that registered a custom backend, so the
    worker's registry lookup would fail with a bare ``KeyError`` deep inside
    the pool.  Raise eagerly, before any job runs, with the offending names.
    """
    from repro.api.backends import DEFAULT_BACKEND_NAMES  # late: avoids cycle

    custom = [name for name in canonical_names if name not in DEFAULT_BACKEND_NAMES]
    start_method = multiprocessing.get_start_method()
    if custom and start_method != "fork":
        raise RuntimeError(
            f"custom backend(s) {custom} cannot reach worker processes under "
            f"the {start_method!r} start method: spawned workers import only "
            "repro.api and never the module that registered them. "
            "Run with workers=1, or use only the default backends "
            f"{sorted(DEFAULT_BACKEND_NAMES)} in parallel batches."
        )


def compile_batch(
    requests: Sequence[CompileRequest],
    backends: Union[str, Sequence[str]] = "advanced",
    workers: int = 1,
    cache: Optional[CompileCache] = None,
    executor: Optional[Executor] = None,
    checkpoint_dir=None,
    fallback: Union[str, Sequence[str]] = (),
    on_error: str = "raise",
) -> BatchResult:
    """Compile every request with every backend, memoized and deduplicated.

    Parameters
    ----------
    requests:
        The compilation jobs; each carries its own terms and config.
    backends:
        One backend name/alias or a sequence of them; every request is
        compiled by each.
    workers:
        Process-pool width for the jobs the cache cannot serve; ``1`` (the
        default) stays in-process.
    cache:
        A :class:`CompileCache` reused across calls.  Omitted, a private
        cache still deduplicates identical jobs inside this batch.
    executor:
        A caller-owned :class:`concurrent.futures.Executor` to run the jobs
        on instead of a per-call pool, so many small batches (e.g. one per
        Table-I row) amortize one pool's startup cost.  Overrides ``workers``;
        the caller shuts it down.
    checkpoint_dir:
        Directory of a crash-safe journal (a version-stamped
        :class:`~repro.service.PersistentCompileCache`) that records each job
        under its own key the moment it finishes, fallbacks included.  A rerun
        over it serves journaled jobs verbatim (``report.skipped``) and
        recompiles only the rest, so a killed batch resumes bit-identically.
    fallback:
        Backend name(s) to retry a job on when its backend fails with a
        :data:`FALLBACK_RETRYABLE` error (typed stage failure, I/O error,
        broken worker pool).  Tried in order, in-process, each backend's
        cached result first; the first success fills the job's row (under the originally requested backend's key)
        and is recorded in ``report.fallbacks``.
    on_error:
        ``"raise"`` (default): the first failure that survives the fallback
        chain propagates — jobs already completed are journaled and cached
        first, and any pool is shut down.  ``"collect"``: per-job isolation —
        the batch finishes, failed jobs land in ``report.failed`` and are
        absent from their result rows.
    """
    requests = list(requests)
    if isinstance(backends, str):
        backends = (backends,)
    canonical_names = tuple(canonical_backend_name(name) for name in backends)
    if len(set(canonical_names)) != len(canonical_names):
        raise ValueError(f"duplicate backends requested: {canonical_names}")
    if isinstance(fallback, str):
        fallback = (fallback,)
    fallback_chain = tuple(canonical_backend_name(name) for name in fallback)
    if on_error not in ("raise", "collect"):
        raise ValueError("on_error must be 'raise' or 'collect'")
    if workers > 1 and executor is None:
        _check_worker_backends(canonical_names)
    cache = cache if cache is not None else CompileCache()
    journal = None
    if checkpoint_dir is not None:
        from repro.service.cache import PersistentCompileCache  # late: cycle

        journal = PersistentCompileCache(checkpoint_dir)
    tiers = Tiers(memory=cache, journal=journal)

    start = time.perf_counter()
    hits_before, misses_before = cache.hits, cache.misses
    report = BatchReport()
    #: Every slot's final result, whatever produced it (cache, journal,
    #: compile, fallback); rows are assembled from here, never from the
    #: shared cache, which only holds honest per-backend entries.
    resolved: Dict[Hashable, CompileResult] = {}

    # One lookup per (request, backend) pair.  Pairs whose result is
    # shareable share the slot of their cache key, so each distinct job is
    # compiled at most once; an unshareable pair gets its own slot.  A pair
    # counts as a miss only when it triggers a compilation; duplicates
    # inside the batch are hits, they cost nothing.
    slots: List[List[Hashable]] = []
    pending: Dict[Hashable, Tuple[CacheKey, str, CompileRequest]] = {}
    for row, request in enumerate(requests):
        slots.append([])
        for column, name in enumerate(canonical_names):
            key = CompileCache.key(request, name)
            slot = key if shareable(request, name) else (key, row, column)
            slots[row].append(slot)
            if slot in pending or slot in resolved:
                cache.hits += 1  # deduplicated within this batch, costs nothing
                continue
            cached, tier = tiers.lookup(key)  # the memory tier counts hit/miss
            if cached is None:
                pending[slot] = (key, name, request)
                continue
            resolved[slot] = cached
            if tier == "journal":
                # A previous (possibly killed) run finished this job; its
                # result is served verbatim so resume is bit-identical.
                report.skipped.append(cache_key_digest(key))
                _BATCH_SKIPPED.inc()

    jobs = list(pending.items())
    tracer = get_tracer()

    def complete(slot, result):
        """Cache, journal and record one finished job — called incrementally."""
        key, _, request = pending[slot]
        resolved[slot] = result
        tiers.store(key, request, result)
        report.compiled.append(cache_key_digest(key))

    def settle_failure(slot, exc):
        """Walk the fallback chain; collect or re-raise an unrecovered failure."""
        key, name, request = pending[slot]
        digest = cache_key_digest(key)
        attempts = [(name, repr(exc))]
        if isinstance(exc, FALLBACK_RETRYABLE):
            for fb_name in fallback_chain:
                if fb_name == name:
                    continue
                try:
                    # In-process (never on a possibly-broken pool); obs spans
                    # nest under batch.compile_batch naturally.
                    with tracer.span("batch.fallback", digest=digest, backend=fb_name):
                        result, _ = tiers.lookup(CompileCache.key(request, fb_name))
                        if result is None:
                            result = compile_job((fb_name, request))
                except Exception as fb_exc:
                    attempts.append((fb_name, repr(fb_exc)))
                    continue
                complete(slot, result)
                report.fallbacks.append(
                    FallbackRecord(
                        digest=digest,
                        failed=tuple(attempt_name for attempt_name, _ in attempts),
                        succeeded=fb_name,
                    )
                )
                _BATCH_FALLBACKS.inc()
                return
        _BATCH_FAILURES.inc()
        if on_error == "raise":
            raise exc
        report.failed.append(
            JobFailure(
                digest=digest, backend=name, error=repr(exc), attempts=tuple(attempts)
            )
        )

    with tracer.span(
        "batch.compile_batch",
        n_requests=len(requests),
        n_jobs=len(jobs),
        backends=",".join(canonical_names),
    ) as batch_span:
        if executor is not None and len(jobs) > 1:
            _run_jobs_incremental(executor, jobs, tracer, complete, settle_failure)
        elif workers > 1 and len(jobs) > 1:
            pool = ProcessPoolExecutor(max_workers=workers)
            try:
                _run_jobs_incremental(pool, jobs, tracer, complete, settle_failure)
            finally:
                # Always executed — job failure, on_error="raise" propagation,
                # KeyboardInterrupt: pending jobs are cancelled, running ones
                # joined, and no worker process is leaked.
                pool.shutdown(wait=True, cancel_futures=True)
        else:
            # In-process: spans from each backend nest under this one naturally.
            for slot, (_, name, request) in jobs:
                try:
                    result = compile_job((name, request))
                except Exception as exc:
                    settle_failure(slot, exc)
                else:
                    complete(slot, result)
        if report.skipped:
            batch_span.set_attribute("n_skipped", len(report.skipped))
        if report.fallbacks:
            batch_span.set_attribute("n_fallbacks", len(report.fallbacks))
        if report.failed:
            batch_span.set_attribute("n_failed", len(report.failed))

    results: List[BackendResults] = [
        BackendResults(
            (name, resolved[slot])
            for slot, name in zip(request_slots, canonical_names)
            if slot in resolved
        )
        for request_slots in slots
    ]

    return BatchResult(
        results=results,
        backends=canonical_names,
        cache_hits=cache.hits - hits_before,
        cache_misses=cache.misses - misses_before,
        wall_time_s=time.perf_counter() - start,
        report=report,
    )
