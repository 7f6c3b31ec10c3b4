"""The job-execution core: one retry rule, one tier chain, one entry contract."""

import asyncio
import dataclasses
from concurrent.futures import BrokenExecutor

import pytest

from repro.api import (
    FALLBACK_RETRYABLE,
    TRANSIENT,
    CompileCache,
    CompileRequest,
    CompileResult,
    CompilerConfig,
    StageFailure,
    compile_batch,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.api import batch as batch_module
from repro.api import execute
from repro.api.execute import Tiers
from repro.faults import deactivate, inject
from repro.service import (
    CircuitBreaker,
    CompileService,
    PersistentCompileCache,
    RetryPolicy,
    WorkerCrashed,
)
from repro.service import service as service_module
from repro.vqe import ExcitationTerm

FAST = CompilerConfig(gamma_steps=5, sorting_population=8, sorting_generations=5, seed=0)
UNSEEDED = dataclasses.replace(FAST, seed=None)


def make_request(shift=0):
    return CompileRequest(
        terms=(
            ExcitationTerm(creation=(4, 5 + shift), annihilation=(0, 1)),
            ExcitationTerm(creation=(6,), annihilation=(0,)),
        ),
        n_qubits=8 + shift,
        config=FAST,
    )


def make_result(backend, cnot=7):
    return CompileResult(
        backend=backend, cnot_count=cnot, n_qubits=8, breakdown={"total": cnot}
    )


class BrokenBackend:
    """Primary backend whose pipeline always breaks with a typed stage failure."""

    name = "core-broken"

    def compile(self, request):
        raise StageFailure("sort", RuntimeError("synthetic stage break"))


@pytest.fixture
def broken():
    backend = BrokenBackend()
    register_backend(backend)
    yield backend
    unregister_backend(backend.name)


async def serve_twice(request, disk_dir):
    """Submit ``request`` twice, the second after the first finished; the tiers."""
    tiers = []
    async with CompileService(disk_cache=PersistentCompileCache(disk_dir)) as service:
        for _ in range(2):
            job_id = await service.submit(request, backend="advanced")
            await service.result(job_id)
            tiers.append(service.status(job_id).tier)
    return tiers


async def serve_concurrently(request, backend, n=2):
    """Submit ``request`` ``n`` times before any compile starts; the tiers."""
    async with CompileService() as service:
        job_ids = [await service.submit(request, backend=backend) for _ in range(n)]
        for job_id in job_ids:
            await service.result(job_id)
        return [service.status(job_id).tier for job_id in job_ids]


class TestRetryRule:
    def test_transient_failures(self):
        assert issubclass(ConnectionError, TRANSIENT)
        assert WorkerCrashed in TRANSIENT
        assert StageFailure not in TRANSIENT

    def test_fallback_chain_adds_stage_failures_only(self):
        assert FALLBACK_RETRYABLE == TRANSIENT + (StageFailure,)
        assert not issubclass(ValueError, FALLBACK_RETRYABLE)

    def test_retry_policy_default_is_the_core_rule(self):
        assert RetryPolicy().retryable is TRANSIENT
        assert RetryPolicy().is_retryable(WorkerCrashed())
        assert RetryPolicy().is_retryable(BrokenExecutor())

    def test_both_fallback_chains_read_the_core_tuple(self):
        assert batch_module.FALLBACK_RETRYABLE is execute.FALLBACK_RETRYABLE
        assert service_module.FALLBACK_RETRYABLE is execute.FALLBACK_RETRYABLE


class TestEntryContract:
    def test_primary_result_filed_under_the_job_key(self, tmp_path):
        tiers = Tiers(
            memory=CompileCache(),
            journal=PersistentCompileCache(tmp_path / "journal"),
            disk=PersistentCompileCache(tmp_path / "disk"),
        )
        key = CompileCache.key(make_request(), "advanced")
        result = make_result("advanced")
        tiers.store(key, make_request(), result)
        assert tiers.memory.peek(key) == result
        assert tiers.journal.peek(key) == result
        assert tiers.disk.peek(key) == result

    def test_fallback_result_filed_under_its_own_backend_key(self, tmp_path):
        tiers = Tiers(
            memory=CompileCache(),
            journal=PersistentCompileCache(tmp_path / "journal"),
            disk=PersistentCompileCache(tmp_path / "disk"),
        )
        request = make_request()
        primary = CompileCache.key(request, "advanced")
        own = CompileCache.key(request, "baseline")
        result = make_result("baseline")
        tiers.store(primary, request, result)
        assert primary not in tiers.memory and primary not in tiers.disk
        assert tiers.memory.peek(own) == result
        assert tiers.disk.peek(own) == result
        # The journal records "this job is done" under the job's own key.
        assert tiers.journal.peek(primary) == result
        assert own not in tiers.journal

    def test_lookup_walks_memory_journal_disk(self, tmp_path):
        request = make_request()
        key = CompileCache.key(request, "advanced")
        journal = PersistentCompileCache(tmp_path / "journal")
        disk = PersistentCompileCache(tmp_path / "disk")
        assert Tiers(journal=journal, disk=disk).lookup(key) == (None, None)
        disk.put(key, make_result("advanced", 3))
        assert Tiers(journal=journal, disk=disk).lookup(key)[1] == "disk"
        journal.put(key, make_result("advanced", 5))
        result, tier = Tiers(journal=journal, disk=disk).lookup(key)
        assert (result.cnot_count, tier) == (5, "journal")

    def test_lower_tier_hits_promote_into_memory_only_when_honest(self, tmp_path):
        request = make_request()
        primary = CompileCache.key(request, "advanced")
        journal = PersistentCompileCache(tmp_path)
        journal.put(primary, make_result("baseline"))  # a journaled fallback
        tiers = Tiers(memory=CompileCache(), journal=journal)
        result, tier = tiers.lookup(primary)
        assert (result.backend, tier) == ("baseline", "journal")
        assert len(tiers.memory) == 0

        other = CompileCache.key(make_request(shift=1), "advanced")
        journal.put(other, make_result("advanced"))
        tiers.lookup(other)
        result, tier = tiers.lookup(other)
        assert (result.backend, tier) == ("advanced", "memory")

    def test_failed_journal_write_is_counted_and_swallowed(self, tmp_path):
        tiers = Tiers(memory=CompileCache(), journal=PersistentCompileCache(tmp_path))
        key = CompileCache.key(make_request(), "advanced")
        counter = execute._JOURNAL_ERRORS
        before = counter.value
        try:
            with inject("checkpoint.write=error:1.0") as plan:
                tiers.store(key, make_request(), make_result("advanced"))
        finally:
            deactivate()
        assert plan.fired_total("checkpoint.write") == 1
        assert counter.value == before + 1
        # The fault fires before the write: nothing half-journaled, while
        # the memory tier still got the result.
        assert key not in tiers.journal
        assert key in tiers.memory


class TestUnseededResultsAreNotCached:
    """``seed=None`` makes a compile a random draw: no tier may serve the
    first draw in place of the next one."""

    def test_batch_with_a_shared_cache_compiles_twice(self, tmp_path):
        request = dataclasses.replace(make_request(), config=UNSEEDED)
        cache = CompileCache()
        for _ in range(2):
            batch = compile_batch(
                [request], backends="advanced", cache=cache, checkpoint_dir=tmp_path
            )
            assert len(batch.report.compiled) == 1
            assert batch.report.skipped == []
        assert len(cache) == 0
        assert len(PersistentCompileCache(tmp_path)) == 0

    def test_service_second_submit_is_computed(self, tmp_path):
        request = dataclasses.replace(make_request(), config=UNSEEDED)
        tiers = asyncio.run(serve_twice(request, tmp_path))
        assert tiers == ["compute", "compute"]
        assert len(PersistentCompileCache(tmp_path)) == 0

    def test_seeded_results_are_still_cached(self, tmp_path):
        request = make_request()
        assert request.config.seed == 0
        cache = CompileCache()
        compile_batch([request], backends="advanced", cache=cache)
        again = compile_batch([request], backends="advanced", cache=cache)
        assert again.report.compiled == []
        assert again.cache_hits == 1

        tiers = asyncio.run(serve_twice(request, tmp_path))
        assert tiers == ["compute", "memory"]
        assert len(PersistentCompileCache(tmp_path)) == 1

    def test_config_blind_backend_caches_unseeded_requests(self):
        request = dataclasses.replace(make_request(), config=UNSEEDED)
        cache = CompileCache()
        compile_batch([request], backends="jordan-wigner", cache=cache)
        again = compile_batch([request], backends="jordan-wigner", cache=cache)
        assert again.report.compiled == []


class TestUnseededJobsAreNotDeduplicated:
    """Two identical unseeded jobs are two draws: neither batch dedup nor the
    service's in-flight join may hand one job's draw to the other."""

    def test_shareable_predicate(self):
        unseeded = dataclasses.replace(make_request(), config=UNSEEDED)
        assert execute.shareable(make_request(), "advanced")
        assert not execute.shareable(unseeded, "advanced")
        assert not execute.shareable(unseeded, "baseline")
        assert execute.shareable(unseeded, "jordan-wigner")

    def test_batch_compiles_each_unseeded_pair(self):
        request = dataclasses.replace(make_request(), config=UNSEEDED)
        batch = compile_batch([request, request], backends="advanced")
        assert len(batch.report.compiled) == 2
        assert batch.cache_hits == 0
        first, second = (row["advanced"] for row in batch.results)
        assert first is not second

    def test_service_compiles_each_unseeded_submit(self):
        request = dataclasses.replace(make_request(), config=UNSEEDED)
        assert asyncio.run(serve_concurrently(request, "advanced")) == [
            "compute",
            "compute",
        ]

    def test_seeded_duplicates_still_dedup(self):
        request = make_request()
        batch = compile_batch([request, request], backends="advanced")
        assert len(batch.report.compiled) == 1
        assert batch.results[0]["advanced"] is batch.results[1]["advanced"]
        assert asyncio.run(serve_concurrently(request, "advanced")) == [
            "compute",
            "dedup",
        ]

    def test_config_blind_unseeded_duplicates_still_dedup(self):
        request = dataclasses.replace(make_request(), config=UNSEEDED)
        batch = compile_batch([request, request], backends="jordan-wigner")
        assert len(batch.report.compiled) == 1
        assert asyncio.run(serve_concurrently(request, "jordan-wigner")) == [
            "compute",
            "dedup",
        ]


class TestDiskBehindTheBreaker:
    def test_open_breaker_skips_the_disk(self, tmp_path):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=60.0)
        disk = PersistentCompileCache(tmp_path)
        tiers = Tiers(disk=disk, breaker=breaker)
        key = CompileCache.key(make_request(), "advanced")
        disk.put(key, make_result("advanced"))
        breaker.record_failure()  # open
        assert tiers.lookup(key) == (None, None)
        tiers.store(key, make_request(), make_result("advanced"))
        assert tiers.disk_skipped.value == 2
        assert tiers.disk_faults.value == 0

    def test_disk_faults_count_and_trip_the_breaker(self, tmp_path):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=60.0)
        tiers = Tiers(disk=PersistentCompileCache(tmp_path), breaker=breaker)
        key = CompileCache.key(make_request(), "advanced")
        try:
            with inject("disk.write=error:1.0;disk.read=error:1.0"):
                tiers.store(key, make_request(), make_result("advanced"))
                assert tiers.lookup(key) == (None, None)
        finally:
            deactivate()
        assert tiers.disk_faults.value == 2
        assert breaker.state == "open"


class TestBatchServiceDifferential:
    """One failing-primary request through both front ends: same answer,
    same memory-cache entries."""

    def test_same_result_and_cache_entries(self, broken, tmp_path):
        request = make_request()
        primary = CompileCache.key(request, "core-broken")
        own = CompileCache.key(request, "baseline")

        batch_cache = CompileCache()
        batch = compile_batch(
            [request],
            backends="core-broken",
            cache=batch_cache,
            fallback=("baseline",),
            checkpoint_dir=tmp_path,
        )
        via_batch = batch.results[0]["core-broken"]

        async def serve():
            async with CompileService(
                fallback=("baseline",), retry_policy=RetryPolicy(max_attempts=1)
            ) as service:
                result = await service.compile(request, backend="core-broken")
                return result, service.memory_cache

        via_service, service_cache = asyncio.run(serve())

        assert via_batch == via_service
        assert via_batch.backend == "baseline"
        for cache in (batch_cache, service_cache):
            assert len(cache) == 1
            assert primary not in cache
            assert cache.peek(own) == via_batch
        journal = PersistentCompileCache(tmp_path)
        assert len(journal) == 1
        assert journal.peek(primary) == via_batch

    def test_service_disk_holds_only_the_fallback_key(self, broken, tmp_path):
        request = make_request()

        async def serve():
            async with CompileService(
                disk_cache=PersistentCompileCache(tmp_path),
                fallback=("baseline",),
                retry_policy=RetryPolicy(max_attempts=1),
            ) as service:
                return await service.compile(request, backend="core-broken")

        result = asyncio.run(serve())
        disk = PersistentCompileCache(tmp_path)
        assert len(disk) == 1
        assert CompileCache.key(request, "core-broken") not in disk
        assert disk.peek(CompileCache.key(request, "baseline")) == result


class TestJournalTier:
    """The batch journal is a plain persistent tier of the core; these are the
    behaviours the old checkpoint wrapper promised, exercised through it."""

    def test_journaled_result_survives_a_fresh_tiers_instance(self, tmp_path):
        request = make_request()
        key = CompileCache.key(request, "advanced")
        Tiers(journal=PersistentCompileCache(tmp_path)).store(
            key, request, make_result("advanced", 9)
        )
        result, tier = Tiers(journal=PersistentCompileCache(tmp_path)).lookup(key)
        assert (result.cnot_count, tier) == (9, "journal")

    def test_stale_version_journal_is_a_miss(self, tmp_path):
        request = make_request()
        key = CompileCache.key(request, "advanced")
        Tiers(journal=PersistentCompileCache(tmp_path, version="old")).store(
            key, request, make_result("advanced")
        )
        tiers = Tiers(journal=PersistentCompileCache(tmp_path, version="new"))
        assert tiers.lookup(key) == (None, None)
        assert tiers.journal.stale_invalidations == 1

    def test_journal_store_leaves_no_temporary_files(self, tmp_path):
        tiers = Tiers(journal=PersistentCompileCache(tmp_path))
        for shift in range(3):
            request = make_request(shift)
            tiers.store(CompileCache.key(request, "advanced"), request, make_result("advanced"))
        assert len(tiers.journal) == 3
        assert not list(tmp_path.rglob("*.tmp"))

    def test_cleared_journal_misses(self, tmp_path):
        tiers = Tiers(journal=PersistentCompileCache(tmp_path))
        keys = []
        for shift in range(2):
            request = make_request(shift)
            keys.append(CompileCache.key(request, "advanced"))
            tiers.store(keys[-1], request, make_result("advanced"))
        assert tiers.journal.clear() == 2
        assert all(tiers.lookup(key) == (None, None) for key in keys)

    def test_failed_journal_write_spares_the_disk_tier(self, tmp_path):
        tiers = Tiers(
            journal=PersistentCompileCache(tmp_path / "journal"),
            disk=PersistentCompileCache(tmp_path / "disk"),
        )
        key = CompileCache.key(make_request(), "advanced")
        try:
            with inject("checkpoint.write=error:1.0"):
                tiers.store(key, make_request(), make_result("advanced"))
        finally:
            deactivate()
        assert key not in tiers.journal
        assert key in tiers.disk
        assert tiers.disk_faults.value == 0

    def test_journal_hit_does_not_touch_the_disk(self, tmp_path):
        request = make_request()
        key = CompileCache.key(request, "advanced")
        journal = PersistentCompileCache(tmp_path / "journal")
        disk = PersistentCompileCache(tmp_path / "disk")
        journal.put(key, make_result("advanced"))
        assert Tiers(journal=journal, disk=disk).lookup(key)[1] == "journal"
        assert (disk.hits, disk.misses) == (0, 0)


class TestTierEdges:
    def test_no_tiers_configured(self):
        tiers = Tiers()
        key = CompileCache.key(make_request(), "advanced")
        tiers.store(key, make_request(), make_result("advanced"))
        assert tiers.lookup(key) == (None, None)

    def test_memory_hit_short_circuits_lower_tiers(self, tmp_path):
        request = make_request()
        key = CompileCache.key(request, "advanced")
        tiers = Tiers(
            memory=CompileCache(),
            journal=PersistentCompileCache(tmp_path / "journal"),
            disk=PersistentCompileCache(tmp_path / "disk"),
        )
        tiers.memory.put(key, make_result("advanced"))
        assert tiers.lookup(key)[1] == "memory"
        assert (tiers.journal.hits, tiers.journal.misses) == (0, 0)
        assert (tiers.disk.hits, tiers.disk.misses) == (0, 0)

    def test_disk_oserror_degrades_to_a_miss(self, tmp_path, monkeypatch):
        breaker = CircuitBreaker(failure_threshold=5, reset_timeout_s=60.0)
        tiers = Tiers(disk=PersistentCompileCache(tmp_path), breaker=breaker)

        def unreadable(key):
            raise PermissionError("disk tier unreadable")

        monkeypatch.setattr(tiers.disk, "get", unreadable)
        key = CompileCache.key(make_request(), "advanced")
        assert tiers.lookup(key) == (None, None)
        assert tiers.disk_faults.value == 1
        assert breaker.consecutive_failures == 1

    def test_successful_disk_call_resets_the_failure_streak(self, tmp_path):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=60.0)
        tiers = Tiers(disk=PersistentCompileCache(tmp_path), breaker=breaker)
        key = CompileCache.key(make_request(), "advanced")
        breaker.record_failure()
        tiers.store(key, make_request(), make_result("advanced"))
        assert breaker.consecutive_failures == 0
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_breaker_closes_after_probe_successes(self, tmp_path):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, probe_successes=2,
            clock=lambda: now[0],
        )
        disk = PersistentCompileCache(tmp_path)
        tiers = Tiers(disk=disk, breaker=breaker)
        key = CompileCache.key(make_request(), "advanced")
        disk.put(key, make_result("advanced"))
        breaker.record_failure()
        assert tiers.lookup(key) == (None, None)  # open: skipped
        now[0] = 2.0
        assert tiers.lookup(key)[1] == "disk"  # half-open probe
        assert breaker.state == "half_open"
        assert tiers.lookup(key)[1] == "disk"
        assert breaker.state == "closed"
        assert tiers.disk_skipped.value == 1


class TestWorkerEntryPoints:
    def test_compile_job_matches_the_backend(self):
        request = make_request()
        assert execute.compile_job(("jw", request)) == get_backend("jw").compile(request)

    def test_compute_fault_site_fires_before_compiling(self):
        try:
            with inject("compute=error:1.0") as plan:
                with pytest.raises(TRANSIENT):
                    execute.compile_job(("jw", make_request()))
        finally:
            deactivate()
        assert plan.fired_total("compute") == 1

    def test_traced_job_returns_the_result_and_its_spans(self):
        request = make_request()
        result, spans = execute.compile_job_traced(("jordan-wigner", request))
        assert result == execute.compile_job(("jordan-wigner", request))
        assert [span["name"] for span in spans] == ["compile.jordan-wigner"]

    def test_cache_key_digest_is_stable_hex(self):
        key = CompileCache.key(make_request(), "advanced")
        digest = execute.cache_key_digest(key)
        assert digest == execute.cache_key_digest(CompileCache.key(make_request(), "advanced"))
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert digest != execute.cache_key_digest(CompileCache.key(make_request(1), "advanced"))
