"""Asyncio compile-as-a-service front end over the batch compilation layer.

:class:`CompileService` turns the per-call :func:`repro.api.compile_batch`
machinery into a long-lived service with a job API:

* ``submit(request, backend, priority, deadline_s)`` → job id (backpressure:
  a bounded priority queue; a full queue rejects with
  :class:`ServiceOverloadedError` carrying a computed ``retry_after_s`` hint
  instead of buffering unboundedly);
* ``status(job_id)`` → :class:`JobStatus` snapshot;
* ``result(job_id)`` → awaits and returns the :class:`~repro.api.CompileResult`;
* ``cancel(job_id)`` → cancellation of queued *and* in-flight submitters.

Identical in-flight requests — same memoization key as the in-memory
:class:`~repro.api.CompileCache` — are **deduplicated**: N submitters share
one compilation and N-1 of them are served from the ``dedup`` tier, while
each keeps its *own* result future so per-submitter deadlines, cancellation
and timeouts compose with dedup.  Worker tasks serve each job through the
execution core :mod:`repro.api.execute` that :func:`~repro.api.compile_batch`
uses too: its :class:`~repro.api.execute.Tiers` chain

    memory (CompileCache) → disk (PersistentCompileCache) → compute

and its worker entry point :func:`~repro.api.execute.compile_job`, run on a
caller-supplied executor — pass a ``ProcessPoolExecutor`` (or better,
``executor_factory=`` so the service can replenish a crashed pool) for real
parallelism, or leave the default to run compilations on the event loop's
thread pool.  This module adds only the asynchronous parts: queueing, dedup,
deadlines, backoff, abandonment and drain.

The resilience layer is built from the :mod:`repro.service.resilience`
primitives (see :class:`CompileService` for the knobs):

* **Deadlines** — a missed deadline fails that submitter with
  :class:`JobTimedOut`, queued or computing; a shared (deduplicated)
  compilation keeps running for the submitters that still have time.
* **Retries** — :class:`RetryPolicy` retries transient compute failures with
  exponential backoff and deterministic jitter, traced as ``service.retry``.
* **Worker-crash recovery** — a died pool worker surfaces as
  :class:`WorkerCrashed` on the job that hit it; an owned pool
  (``executor_factory``) is replaced before the retry.
* **Disk circuit breaker** — consecutive disk faults open a
  :class:`CircuitBreaker` and lookups degrade to memory → compute until
  half-open probes re-admit the tier; transitions are traced as
  ``service.breaker``.
* **Backend fallback chains** — ``fallback=("gt", "jw")`` serves a job whose
  backend failed (after the retries) from the next backend in the chain,
  cached or computed, traced as ``service.fallback``.
* **Graceful shutdown** — ``shutdown(drain=True, timeout_s=...)`` finishes
  queued and in-flight work before closing.

Every tier transition and resilience event is recorded in
:class:`~repro.service.metrics.ServiceMetrics`; the chaos suite
(``tests/service/test_chaos.py``) and ``benchmarks/bench_chaos.py`` drive
the whole layer under :mod:`repro.faults` injection.  Usage is in
:mod:`repro.service`.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import BrokenExecutor, Executor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import faults
from repro.api.backend import CompileRequest, CompileResult, canonical_backend_name
from repro.api.execute import (
    FALLBACK_RETRYABLE,
    CacheKey,
    CompileCache,
    Tiers,
    cache_key_digest,
    compile_job,
    compile_job_traced,
)
from repro.obs.tracer import get_tracer
from repro.service.cache import PersistentCompileCache
from repro.service.metrics import ServiceMetrics
from repro.service.resilience import (
    BREAKER_CLOSED,
    BREAKER_OPEN,
    CircuitBreaker,
    JobTimedOut,
    RetryPolicy,
    WorkerCrashed,
)

class ServiceOverloadedError(RuntimeError):
    """The job queue is full; the submitter should back off and retry.

    ``retry_after_s`` is the service's own estimate of when a slot should
    free up — current queue depth times the recent median compute time,
    spread over the worker count — so clients can back off proportionally
    to the actual overload instead of guessing.
    """

    def __init__(self, message: str, retry_after_s: Optional[float] = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServiceDrainingError(RuntimeError):
    """The service is shutting down and no longer accepts submissions."""


class UnknownJobError(KeyError):
    """The job id was never issued by this service instance."""


class JobCancelledError(RuntimeError):
    """The awaited job was cancelled before producing a result."""


class JobState(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMED_OUT = "timed_out"


@dataclass(frozen=True)
class JobStatus:
    """Point-in-time snapshot of one submitted job."""

    job_id: str
    state: JobState
    backend: str
    priority: int
    tier: Optional[str]
    error: Optional[str]
    deduplicated: bool
    total_s: Optional[float]


#: Sentinel: the compute was abandoned because every submitter gave up.
_ABANDONED = object()


class _Job:
    """Internal per-submit record; deduplicated submits share the *work*.

    Every submitter owns its own result future (so deadlines, cancellation
    and timeouts are per-submitter), while ``link`` ties joiners to the
    primary job that actually occupies a queue slot and computes.
    """

    __slots__ = (
        "job_id", "request", "backend", "key", "priority", "future",
        "deadline_s", "deadline_handle", "submitted_at", "started_at",
        "finished_at", "tier", "error", "cancelled", "link", "joiners",
        "exec_future", "abandon_requested",
    )

    def __init__(self, job_id, request, backend, key, priority, future,
                 deadline_s=None, link=None):
        self.job_id = job_id
        self.request = request
        self.backend = backend
        self.key = key
        self.priority = priority
        self.future = future
        self.deadline_s: Optional[float] = deadline_s
        self.deadline_handle: Optional[asyncio.TimerHandle] = None
        self.submitted_at = time.perf_counter()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.tier: Optional[str] = None
        self.error: Optional[str] = None
        self.cancelled = False
        self.link: Optional[_Job] = link  # primary job, for deduplicated submits
        self.joiners: List[_Job] = []
        self.exec_future: Optional[asyncio.Future] = None
        self.abandon_requested = False

    @property
    def primary(self) -> "_Job":
        return self.link if self.link is not None else self

    @property
    def group(self) -> List["_Job"]:
        """Every submitter sharing this compilation (primary first)."""
        primary = self.primary
        return [primary] + primary.joiners

    @property
    def abandoned(self) -> bool:
        """No submitter of this compilation is still waiting for it."""
        return all(job.future.done() for job in self.group)

    @property
    def state(self) -> JobState:
        if self.cancelled or self.future.cancelled():
            return JobState.CANCELLED
        if self.future.done():
            exc = self.future.exception()
            if exc is None:
                return JobState.DONE
            if isinstance(exc, JobTimedOut):
                return JobState.TIMED_OUT
            return JobState.FAILED
        if self.primary.started_at is not None:
            return JobState.RUNNING
        return JobState.QUEUED

    def status(self) -> JobStatus:
        finished = self.finished_at
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            backend=self.backend,
            priority=self.priority,
            tier=self.tier,
            error=self.error if self.error is not None else self.primary.error,
            deduplicated=self.link is not None,
            total_s=None if finished is None else finished - self.submitted_at,
        )


class CompileService:
    """Async compile service: bounded priority queue, dedup, tiered caching,
    deadlines, retries, worker-crash recovery and disk circuit breaking.

    Parameters
    ----------
    disk_cache:
        Optional :class:`PersistentCompileCache` shared across processes.
    memory_cache:
        In-memory :class:`~repro.api.CompileCache`; a fresh private one is
        created unless ``use_memory_cache=False`` disables the tier.
    executor:
        Where compilations run.  ``None`` uses the event loop's default
        thread pool; pass a ``ProcessPoolExecutor`` for CPU parallelism
        (the caller owns and shuts it down — and eats crashed pools).
    executor_factory:
        Alternative to ``executor``: a zero-argument callable the service
        uses to create (and own) its executor, and to **replenish** it when
        a pool worker dies — the only mode in which :class:`WorkerCrashed`
        recovery can replace the broken pool.  Mutually exclusive with
        ``executor``.
    n_workers:
        Concurrent worker tasks draining the queue.
    max_queue:
        Queue bound; a full queue makes :meth:`submit` raise
        :class:`ServiceOverloadedError` (the backpressure signal).
    retry_policy:
        :class:`RetryPolicy` for transient compute failures; defaults to
        3 attempts of exponential backoff.  ``RetryPolicy(max_attempts=1)``
        disables retries.
    breaker:
        :class:`CircuitBreaker` guarding the disk tier.  Defaults to a
        5-consecutive-failure breaker whenever ``disk_cache`` is present.
    default_deadline_s:
        Deadline applied to submits that don't pass their own (``None`` =
        no deadline).
    fallback:
        Backend name(s) to serve a job from, in order, when its own backend
        fails with a :data:`~repro.api.FALLBACK_RETRYABLE` error after the
        retry policy is exhausted; each is looked up in the tiers, then
        computed once.  A success serves every submitter.

    Lower ``priority`` values run earlier; ties are FIFO.
    """

    def __init__(
        self,
        disk_cache: Optional[PersistentCompileCache] = None,
        memory_cache: Optional[CompileCache] = None,
        executor: Optional[Executor] = None,
        executor_factory: Optional[Callable[[], Executor]] = None,
        n_workers: int = 2,
        max_queue: int = 64,
        use_memory_cache: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        default_deadline_s: Optional[float] = None,
        fallback: Union[str, Sequence[str]] = (),
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if executor is not None and executor_factory is not None:
            raise ValueError("pass either executor or executor_factory, not both")
        if default_deadline_s is not None and default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be None or positive")
        if memory_cache is None and use_memory_cache:
            memory_cache = CompileCache()
        self.disk_cache = disk_cache
        self.memory_cache = memory_cache if use_memory_cache else None
        self.metrics = ServiceMetrics()
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.breaker = breaker
        if self.breaker is None and disk_cache is not None:
            self.breaker = CircuitBreaker()
        if self.breaker is not None:
            self._chain_breaker_callback(self.breaker)
            self.metrics.record_breaker_state(self.breaker.state_code)
        self.tiers = Tiers(
            memory=self.memory_cache,
            disk=disk_cache,
            breaker=self.breaker,
            disk_faults=self.metrics.registry.counter("service.disk_faults"),
            disk_skipped=self.metrics.registry.counter("service.disk_degraded"),
        )
        self.default_deadline_s = default_deadline_s
        if isinstance(fallback, str):
            fallback = (fallback,)
        self.fallback_chain: Tuple[str, ...] = tuple(
            canonical_backend_name(name) for name in fallback
        )
        self._executor = executor
        self._executor_factory = executor_factory
        self._n_workers = n_workers
        self._max_queue = max_queue
        self._queue: Optional[asyncio.PriorityQueue] = None
        self._workers: List[asyncio.Task] = []
        self._jobs: Dict[str, _Job] = {}
        self._inflight: Dict[CacheKey, _Job] = {}
        self._seq = itertools.count()
        self._order = itertools.count()  # FIFO tiebreak inside one priority
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "CompileService":
        if self._queue is not None:
            raise RuntimeError("service already started")
        self._draining = False
        if self._executor_factory is not None and self._executor is None:
            self._executor = self._executor_factory()
        self._queue = asyncio.PriorityQueue(maxsize=self._max_queue)
        self._workers = [
            asyncio.create_task(self._worker(), name=f"compile-worker-{i}")
            for i in range(self._n_workers)
        ]
        return self

    async def close(self) -> None:
        """Stop the workers; unfinished job futures are cancelled."""
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        self._queue = None
        self._draining = False
        for job in self._jobs.values():
            self._cancel_deadline(job)
            if not job.future.done():
                job.future.cancel()
        self._inflight.clear()
        if self._executor_factory is not None and self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    async def shutdown(self, drain: bool = True, timeout_s: Optional[float] = None) -> None:
        """Stop accepting work; optionally finish what's already in.

        With ``drain=True`` (the default) the service refuses new submits
        (:class:`ServiceDrainingError`), waits up to ``timeout_s`` seconds
        (``None`` = forever) for every queued and in-flight job to complete,
        then closes.  Work that doesn't finish inside the window — and
        everything, when ``drain=False`` — is cancelled by :meth:`close`.
        """
        self._require_started()
        self._draining = True
        if drain:
            try:
                await asyncio.wait_for(self._queue.join(), timeout_s)
            except asyncio.TimeoutError:
                pass  # the drain window expired; close() cancels the rest
        await self.close()

    async def __aenter__(self) -> "CompileService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def join(self) -> None:
        """Wait until every queued job has been processed."""
        self._require_started()
        await self._queue.join()

    # ------------------------------------------------------------------
    # Job API
    # ------------------------------------------------------------------
    async def submit(
        self,
        request: CompileRequest,
        backend: str = "advanced",
        priority: int = 0,
        deadline_s: Optional[float] = None,
    ) -> str:
        """Enqueue one compilation; returns the job id.

        An identical in-flight request (same memoization key) is joined, not
        re-queued: the new job shares the existing compilation without a
        queue slot, while keeping its own future (and deadline).  A full
        queue raises :class:`ServiceOverloadedError` with a
        ``retry_after_s`` hint and counts a rejection.  ``deadline_s``
        (falling back to the service's ``default_deadline_s``) bounds the
        submit→result time; a missed deadline fails this submitter's future
        with :class:`JobTimedOut` whether the job is queued or in flight.
        """
        self._require_started()
        if self._draining:
            raise ServiceDrainingError(
                "service is draining (shutdown in progress); submission refused"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be None or positive")
        faults.fire("queue")
        canonical = canonical_backend_name(backend)
        key = CompileCache.key(request, canonical)
        job_id = f"job-{next(self._seq)}"
        loop = asyncio.get_running_loop()

        primary = self._inflight.get(key)
        if primary is not None:
            job = _Job(job_id, request, canonical, key, priority,
                       loop.create_future(), deadline_s, link=primary)
            primary.joiners.append(job)
            self._register(job, loop)
            return job_id

        job = _Job(job_id, request, canonical, key, priority,
                   loop.create_future(), deadline_s)
        try:
            self._queue.put_nowait((priority, next(self._order), job))
        except asyncio.QueueFull:
            self.metrics.rejections += 1
            raise ServiceOverloadedError(
                f"compile queue is full ({self._max_queue} jobs); "
                "retry after in-flight work drains",
                retry_after_s=self._retry_after_hint(),
            ) from None
        self._inflight[key] = job
        self._register(job, loop)
        self.metrics.record_queue_depth(self._queue.qsize())
        return job_id

    def _register(self, job: _Job, loop: asyncio.AbstractEventLoop) -> None:
        """Track a new submitter: bookkeeping, warning sink, deadline."""
        self._jobs[job.job_id] = job
        # Mark the future's eventual exception as observed so a never-awaited
        # submitter (cancelled, timed out, abandoned) doesn't trigger the
        # "exception was never retrieved" warning; result() still re-raises.
        job.future.add_done_callback(
            lambda f: None if f.cancelled() else f.exception()
        )
        self.metrics.submitted += 1
        deadline = job.deadline_s if job.deadline_s is not None else self.default_deadline_s
        if deadline is not None:
            job.deadline_s = deadline
            job.deadline_handle = loop.call_later(deadline, self._expire, job)

    def status(self, job_id: str) -> JobStatus:
        return self._job(job_id).status()

    async def result(self, job_id: str) -> CompileResult:
        """Await and return the job's result; re-raises compile failures."""
        job = self._job(job_id)
        if job.cancelled:
            raise JobCancelledError(job_id)
        try:
            return await asyncio.shield(job.future)
        except asyncio.CancelledError:
            if job.future.cancelled():
                raise JobCancelledError(job_id) from None
            raise  # the awaiting task itself was cancelled

    def cancel(self, job_id: str) -> bool:
        """Cancel one submitter; returns ``False`` only for finished jobs.

        Cancelling one of several deduplicated submitters only detaches that
        submitter; the shared compilation proceeds for the rest.  When the
        *last* waiting submitter cancels (or times out) mid-compute, the
        abandonment is propagated to the executor future where possible —
        queued executor work is cancelled outright, a running compile has
        its result discarded — and counted in ``metrics.abandonments``.
        """
        job = self._job(job_id)
        if job.cancelled:
            return True
        if job.future.done():
            return False
        job.cancelled = True
        job.finished_at = time.perf_counter()
        self._cancel_deadline(job)
        job.future.cancel()
        self.metrics.cancellations += 1
        self._maybe_abandon(job.primary)
        return True

    async def compile(
        self,
        request: CompileRequest,
        backend: str = "advanced",
        priority: int = 0,
        deadline_s: Optional[float] = None,
    ) -> CompileResult:
        """Submit-and-await convenience for request/response callers."""
        return await self.result(
            await self.submit(request, backend, priority, deadline_s=deadline_s)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Service metrics plus per-tier cache counters, JSON-ready."""
        data = {
            "metrics": self.metrics.snapshot(),
            "retry_policy": {
                "max_attempts": self.retry_policy.max_attempts,
                "budget": self.retry_policy.budget,
                "budget_remaining": self._retry_budget_remaining(),
            },
        }
        if self.breaker is not None:
            data["breaker"] = {
                "state": self.breaker.state,
                "failure_threshold": self.breaker.failure_threshold,
                "reset_timeout_s": self.breaker.reset_timeout_s,
                "consecutive_failures": self.breaker.consecutive_failures,
            }
        if self.memory_cache is not None:
            data["memory_cache"] = {
                "entries": len(self.memory_cache),
                "hits": self.memory_cache.hits,
                "misses": self.memory_cache.misses,
                "evictions": self.memory_cache.evictions,
                "max_entries": self.memory_cache.max_entries,
            }
        if self.disk_cache is not None:
            data["disk_cache"] = {
                "version": self.disk_cache.version,
                "hits": self.disk_cache.hits,
                "misses": self.disk_cache.misses,
                "stale_invalidations": self.disk_cache.stale_invalidations,
                "corrupt_invalidations": self.disk_cache.corrupt_invalidations,
                "io_errors": self.disk_cache.io_errors,
                "evictions": self.disk_cache.evictions,
            }
        return data

    # ------------------------------------------------------------------
    # Deadlines / cancellation plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _cancel_deadline(job: _Job) -> None:
        if job.deadline_handle is not None:
            job.deadline_handle.cancel()
            job.deadline_handle = None

    def _expire(self, job: _Job) -> None:
        """Deadline watchdog: fail this submitter's future with JobTimedOut."""
        job.deadline_handle = None
        if job.future.done():
            return
        exc = JobTimedOut(job.job_id, job.deadline_s)
        job.error = repr(exc)
        job.finished_at = time.perf_counter()
        job.future.set_exception(exc)
        self.metrics.timeouts += 1
        self.metrics.total.record(job.finished_at - job.submitted_at)
        self._maybe_abandon(job.primary)

    def _maybe_abandon(self, primary: _Job) -> None:
        """If nobody is waiting anymore, pull the plug on in-flight compute."""
        if not primary.abandoned:
            return
        exec_future = primary.exec_future
        if exec_future is not None and not exec_future.done():
            primary.abandon_requested = True
            exec_future.cancel()
            self.metrics.abandonments += 1
        # A still-queued group is skipped (and counted) at dequeue time.

    # ------------------------------------------------------------------
    # Worker path
    # ------------------------------------------------------------------
    def _require_started(self) -> None:
        if self._queue is None:
            raise RuntimeError(
                "service not started; use 'async with CompileService(...)' "
                "or await service.start()"
            )

    def _job(self, job_id: str) -> _Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(job_id) from None

    def _retry_after_hint(self) -> float:
        """Backoff estimate: queue depth × median compute time / workers."""
        depth = self._queue.qsize() if self._queue is not None else self._max_queue
        median_s = self.metrics.compute.percentile(50)
        if median_s is None:
            median_s = 0.1  # no compute samples yet; a token backoff
        return round(max(0.05, (depth + 1) * median_s / self._n_workers), 3)

    def _retry_budget_remaining(self) -> Optional[int]:
        budget = self.retry_policy.budget
        if budget is None:
            return None
        return max(0, budget - self.metrics.retries)

    # ------------------------------------------------------------------
    # Disk circuit breaker telemetry
    # ------------------------------------------------------------------
    def _chain_breaker_callback(self, breaker: CircuitBreaker) -> None:
        existing = breaker.on_transition

        def on_transition(old_state: str, new_state: str) -> None:
            self.metrics.record_breaker_state(breaker.state_code)
            if new_state == BREAKER_OPEN:
                self.metrics.breaker_opens += 1
            elif new_state == BREAKER_CLOSED:
                self.metrics.breaker_closes += 1
            # Zero-length marker span: transitions are events, not intervals.
            with get_tracer().span(
                "service.breaker", from_state=old_state, to_state=new_state
            ):
                pass
            if existing is not None:
                existing(old_state, new_state)

        breaker.on_transition = on_transition

    # ------------------------------------------------------------------
    # Compute with crash translation and retries
    # ------------------------------------------------------------------
    @staticmethod
    def _task_cancelling() -> bool:
        """Whether the *worker task itself* is being cancelled (shutdown)."""
        task = asyncio.current_task()
        cancelling = getattr(task, "cancelling", None)  # 3.11+
        return bool(cancelling is not None and cancelling())

    def _replenish_executor(self, broken: Optional[Executor]) -> None:
        """Replace a crashed pool when the service owns one (factory mode)."""
        if self._executor_factory is None or self._executor is not broken:
            return  # caller-owned executor, or already replaced by a peer
        self._executor = self._executor_factory()
        if broken is not None:
            broken.shutdown(wait=False)

    async def _run_compute_once(self, job: _Job, backend: Optional[str] = None):
        """One timed executor round-trip, with worker-crash translation.

        ``backend`` overrides the job's own backend for fallback-chain
        attempts; everything else (executor, crash translation, span
        adoption, the compute-latency sample) is identical.
        """
        backend = backend if backend is not None else job.backend
        compute_start = time.perf_counter()
        loop = asyncio.get_running_loop()
        tracer = get_tracer()
        executor = self._executor
        # Executor workers do not inherit the tracing contextvar; with the
        # tracer on they ship their span forest back, rebased at compute start.
        entry = compile_job_traced if tracer.enabled else compile_job
        exec_future = loop.run_in_executor(executor, entry, (backend, job.request))
        job.exec_future = exec_future
        try:
            raw = await exec_future
        except BrokenExecutor as exc:
            self.metrics.worker_crashes += 1
            self._replenish_executor(executor)
            raise WorkerCrashed(
                f"executor worker died while compiling job {job.job_id}"
            ) from exc
        finally:
            job.exec_future = None
        result = raw
        if tracer.enabled:
            result, spans = raw
            tracer.adopt(spans, at=compute_start)
        self.metrics.compute.record(time.perf_counter() - compute_start)
        return result

    async def _compute_with_retries(self, job: _Job):
        """Drive the compute step under the retry policy.

        Returns the result, the ``_ABANDONED`` sentinel when every submitter
        gave up mid-compute, or raises the final (non-retryable or
        exhausted) failure.
        """
        tracer = get_tracer()
        policy = self.retry_policy
        token = cache_key_digest(job.key)
        attempt = 0
        while True:
            try:
                with tracer.span("service.compute", attempt=attempt):
                    return await self._run_compute_once(job)
            except asyncio.CancelledError:
                if job.abandon_requested and not self._task_cancelling():
                    return _ABANDONED
                raise
            except Exception as exc:
                attempt += 1
                budget_left = policy.budget is None or self.metrics.retries < policy.budget
                if (
                    not policy.is_retryable(exc)
                    or not budget_left
                    or attempt >= policy.max_attempts
                    or job.abandoned
                ):
                    raise
                delay = policy.delay_s(attempt - 1, token)
                self.metrics.retries += 1
                with tracer.span(
                    "service.retry",
                    job_id=job.job_id,
                    attempt=attempt,
                    delay_s=round(delay, 4),
                    error=type(exc).__name__,
                ):
                    await asyncio.sleep(delay)

    async def _compute_with_fallback(self, job: _Job):
        """Compute under the retry policy, then walk the backend fallback chain.

        Returns ``(result, tier, fallback_backend)``: ``tier`` is
        ``"compute"`` unless a fallback backend's result came from a cache
        tier, and ``fallback_backend`` is ``None`` when the job's own backend
        produced the result.  Re-raises the original failure when the chain
        is empty, ineligible, or exhausted — fallback-attempt errors are
        subordinate to the primary error the submitters should see.
        """
        tracer = get_tracer()
        try:
            return await self._compute_with_retries(job), "compute", None
        except asyncio.CancelledError:
            raise
        except FALLBACK_RETRYABLE as exc:
            for fb_name in self.fallback_chain:
                if fb_name == job.backend:
                    continue
                with tracer.span(
                    "service.fallback", job_id=job.job_id, backend=fb_name
                ) as fb_span:
                    result, tier = self.tiers.lookup(
                        CompileCache.key(job.request, fb_name)
                    )
                    if result is None:
                        tier = "compute"
                        try:
                            result = await self._run_compute_once(job, fb_name)
                        except asyncio.CancelledError:
                            raise
                        except Exception as fb_exc:
                            fb_span.set_attribute("error", type(fb_exc).__name__)
                            continue
                self.metrics.fallbacks += 1
                return result, tier, fb_name
            raise exc

    async def _worker(self) -> None:
        while True:
            _, _, job = await self._queue.get()
            try:
                await self._process(job)
            finally:
                self._queue.task_done()
                self.metrics.record_queue_depth(self._queue.qsize())

    async def _process(self, job: _Job) -> None:
        if job.abandoned:
            # Every submitter cancelled or timed out while the job was still
            # queued; skip the compilation entirely.
            self._inflight.pop(job.key, None)
            finished = time.perf_counter()
            for submitter in job.group:
                if submitter.finished_at is None:
                    submitter.finished_at = finished
            self.metrics.abandonments += 1
            return
        job.started_at = time.perf_counter()
        self.metrics.wait.record(job.started_at - job.submitted_at)
        tracer = get_tracer()
        try:
            with tracer.span(
                "service.job", backend=job.backend, job_id=job.job_id
            ) as job_span:
                with tracer.span("service.lookup"):
                    result, tier = self.tiers.lookup(job.key)
                if result is None:
                    result, tier, fallback = await self._compute_with_fallback(job)
                    if result is _ABANDONED:
                        self._inflight.pop(job.key, None)
                        return
                    if fallback is not None:
                        job_span.set_attribute("fallback", fallback)
                    if tier == "compute":
                        self.tiers.store(job.key, job.request, result)
                job_span.set_attribute("tier", tier)
        except asyncio.CancelledError:
            for submitter in job.group:
                if not submitter.future.done():
                    submitter.future.cancel()  # service shutdown mid-compile
            raise
        except Exception as exc:
            self._finish(job, error=exc)
            return
        job.tier = tier
        self._finish(job, result=result)

    def _finish(self, job: _Job, result=None, error=None) -> None:
        finished = time.perf_counter()
        self._inflight.pop(job.key, None)
        for submitter in job.group:
            self._cancel_deadline(submitter)
            if submitter.finished_at is None:
                submitter.finished_at = finished
            if submitter.future.done():
                continue  # cancelled or timed out; already settled
            self.metrics.total.record(finished - submitter.submitted_at)
            if error is None:
                tier = job.tier if submitter is job else "dedup"
                submitter.tier = tier
                self.metrics.count_tier(tier)
                submitter.future.set_result(result)
            else:
                submitter.error = repr(error)
                submitter.future.set_exception(error)
        if error is not None:
            if job.error is None:
                job.error = repr(error)
            self.metrics.failures += 1
