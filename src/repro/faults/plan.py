"""Deterministic fault injection: seeded plans over named injection sites.

A :class:`FaultPlan` is a seeded set of :class:`FaultRule` entries, each bound
to one *injection site* — a named point in the codebase that asks the plan
whether to misbehave.  The registered sites are

====================  =========================================================
``disk.read``         :meth:`PersistentCompileCache.get` reading an entry file
``disk.write``        :meth:`PersistentCompileCache.put` writing an entry file
``compute``           the backend compile in ``repro.api.execute.compile_job``
``pool.worker``       the same entry point, *process-pool children only*
``queue``             :meth:`CompileService.submit` enqueueing a job
``scf``               :func:`repro.chemistry.run_rhf` entering an SCF solve
``stage.gamma``       the pipeline's ``gamma_search`` stage starting its search
``stage.sort``        the pipeline's ``sort`` stage starting the GTSP solve
``checkpoint.write``  :meth:`Tiers.store` journaling a finished batch job
====================  =========================================================

and the available actions are

``error``    raise :class:`InjectedFault` (an ``OSError`` subclass, so the
             disk sites surface exactly like a real I/O failure);
``corrupt``  mangle the bytes flowing through the site (flip the leading byte
             and truncate, so a corrupted cache entry can never deserialize
             into a plausible-but-wrong result);
``delay``    sleep ``delay_s`` seconds before proceeding;
``kill``     terminate the *current process* via ``os._exit`` — suppressed
             everywhere except multiprocessing children, so only pool workers
             ever die (the parent survives to observe the broken pool).

Determinism: every site draws from its own ``random.Random`` stream seeded by
``(plan seed, site name)``, so the draw sequence at one site is an exact
function of the plan seed, independent of how often other sites fire.  With
a single-threaded caller (e.g. a 1-worker
:class:`~repro.service.CompileService`) the per-site schedules replay
exactly — ``benchmarks/bench_chaos.py`` pins its seed on this; only
wall-clock-dependent consumers (the disk breaker's reset window) can shift
which *operation* a given draw lands on.

Activation mirrors the ``repro.obs`` contract: **zero work when disabled**.
Call sites go through the module-level :func:`fire` / :func:`mangle` hooks,
which are a single global-``None`` check when no plan is active (the
disabled-path ceiling is enforced by ``bench_chaos.py``).  Activate a plan
process-wide with :func:`activate`, scoped with the :class:`inject` context
manager, or via the ``REPRO_FAULTS`` environment variable::

    REPRO_FAULTS="seed=7;disk.read=error:0.2;compute=delay:0.3:0.05"

Clauses are ``;``-separated; ``seed=N`` sets the plan seed and every other
clause is ``site=action:probability[:delay_seconds]``.  The env form is read
at import time, so spawned/forked pool workers inherit the plan through
their environment even when they never see the parent's Python state.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "ACTIONS",
    "SITES",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "activate",
    "active_plan",
    "deactivate",
    "fire",
    "inject",
    "mangle",
    "plan_from_env",
]

#: Environment variable holding a fault-plan spec (parsed at import time).
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: The registered injection sites (see the module docstring for placement).
SITES = (
    "disk.read",
    "disk.write",
    "compute",
    "pool.worker",
    "queue",
    "scf",
    "stage.gamma",
    "stage.sort",
    "checkpoint.write",
)

#: The actions a rule may take when its probability draw fires.
ACTIONS = ("error", "corrupt", "delay", "kill")

#: Exit code of a ``kill``-action worker death (distinctive in pool logs).
KILL_EXIT_CODE = 87


class InjectedFault(OSError):
    """A fault raised by an active :class:`FaultPlan`.

    Subclasses ``OSError`` so the disk sites surface indistinguishably from
    real I/O failures (full disk, permission flip) to the layers above —
    which is the point: the resilience machinery must not special-case
    injected faults.  Classified as retryable by the default
    :class:`~repro.service.RetryPolicy`.
    """

    def __init__(self, site: str, message: Optional[str] = None):
        super().__init__(message or f"injected fault at site {site!r}")
        self.site = site


@dataclass(frozen=True)
class FaultRule:
    """One (site, action) behavior with a firing probability.

    ``delay_s`` only applies to the ``delay`` action; ``max_fires`` caps how
    many times the rule fires over the plan's lifetime (``None`` = unlimited).
    """

    site: str
    action: str
    probability: float
    delay_s: float = 0.0
    max_fires: Optional[int] = None

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; expected one of {SITES}")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; expected one of {ACTIONS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be non-negative, got {self.delay_s}")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError("max_fires must be None or at least 1")


def _in_pool_child() -> bool:
    """True only inside a multiprocessing child (where ``kill`` may act)."""
    import multiprocessing

    return multiprocessing.parent_process() is not None


class FaultPlan:
    """A seeded, introspectable set of fault rules.

    ``fired`` counts actual fault activations per ``(site, action)``;
    ``evaluations`` counts probability draws per site — both are what tests
    and ``bench_chaos.py`` assert against.  Counters are guarded by a lock
    because the ``compute`` site fires from executor threads.
    """

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0):
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = int(seed)
        # Per-site streams: the draw sequence at one site is independent of
        # traffic at every other site.
        self._rngs: Dict[str, Random] = {
            site: Random(zlib.crc32(f"{self.seed}:{site}".encode("utf-8")))
            for site in SITES
        }
        self._by_site: Dict[str, List[FaultRule]] = {site: [] for site in SITES}
        for rule in self.rules:
            self._by_site[rule.site].append(rule)
        self._lock = threading.Lock()
        self.fired: Dict[Tuple[str, str], int] = {}
        self.evaluations: Dict[str, int] = {site: 0 for site in SITES}

    # ------------------------------------------------------------------
    # Rule evaluation
    # ------------------------------------------------------------------
    def _should_fire(self, rule: FaultRule) -> bool:
        with self._lock:
            self.evaluations[rule.site] += 1
            draw = self._rngs[rule.site].random()
            if draw >= rule.probability:
                return False
            count_key = (rule.site, rule.action)
            if rule.max_fires is not None and self.fired.get(count_key, 0) >= rule.max_fires:
                return False
            self.fired[count_key] = self.fired.get(count_key, 0) + 1
            return True

    def fire(self, site: str, **context) -> None:
        """Evaluate the non-``corrupt`` rules of ``site``; may raise/sleep/kill."""
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r}; expected one of {SITES}")
        for rule in self._by_site[site]:
            if rule.action == "corrupt" or not self._should_fire(rule):
                continue
            if rule.action == "delay":
                time.sleep(rule.delay_s)
            elif rule.action == "kill":
                if _in_pool_child():
                    os._exit(KILL_EXIT_CODE)
                # In the main process a kill would take the service (and the
                # test runner) down with it; record the suppression instead.
                with self._lock:
                    key = (site, "kill-suppressed")
                    self.fired[key] = self.fired.get(key, 0) + 1
            else:  # error
                raise InjectedFault(site)

    def mangle(self, site: str, data: bytes) -> bytes:
        """Evaluate the ``corrupt`` rules of ``site`` against ``data``.

        A fired rule flips the leading byte and truncates to half length, so
        a corrupted pickle always fails to deserialize (never a silent wrong
        payload) while still being a genuine byte-level corruption.
        """
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r}; expected one of {SITES}")
        for rule in self._by_site[site]:
            if rule.action != "corrupt" or not self._should_fire(rule):
                continue
            if not data:
                continue
            head = bytes([data[0] ^ 0xFF])
            data = head + data[1 : max(1, len(data) // 2)]
        return data

    def fired_total(self, site: Optional[str] = None) -> int:
        """Total fault activations, optionally restricted to one site."""
        with self._lock:
            return sum(
                count
                for (rule_site, _), count in self.fired.items()
                if site is None or rule_site == site
            )

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, rules={len(self.rules)}, fired={self.fired_total()})"


# ----------------------------------------------------------------------
# Spec parsing (REPRO_FAULTS / inject("..."))
# ----------------------------------------------------------------------
def parse_plan(spec: str, seed: int = 0) -> FaultPlan:
    """Build a plan from a spec string (see the module docstring grammar)."""
    rules: List[FaultRule] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ValueError(f"bad fault clause {clause!r}: expected 'site=action:p' or 'seed=N'")
        left, right = (part.strip() for part in clause.split("=", 1))
        if left == "seed":
            seed = int(right)
            continue
        parts = right.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"bad fault clause {clause!r}: expected 'site=action:probability[:delay_s]'"
            )
        delay_s = float(parts[2]) if len(parts) == 3 else 0.0
        rules.append(
            FaultRule(site=left, action=parts[0], probability=float(parts[1]), delay_s=delay_s)
        )
    return FaultPlan(rules, seed=seed)


def plan_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[FaultPlan]:
    """The plan described by ``REPRO_FAULTS``, or ``None`` when unset/empty."""
    value = (environ if environ is not None else os.environ).get(FAULTS_ENV_VAR, "")
    if not value.strip():
        return None
    return parse_plan(value)


# ----------------------------------------------------------------------
# Activation: one global slot, checked by the zero-overhead hooks below
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultPlan] = plan_from_env()


def active_plan() -> Optional[FaultPlan]:
    """The currently active plan, or ``None`` (faults disabled)."""
    return _ACTIVE


def activate(plan: FaultPlan) -> Optional[FaultPlan]:
    """Activate ``plan`` process-wide; returns the previously active plan."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    return previous


def deactivate() -> Optional[FaultPlan]:
    """Disable fault injection; returns the previously active plan."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


def fire(site: str, **context) -> None:
    """Injection hook: a single ``None`` check when faults are disabled."""
    plan = _ACTIVE
    if plan is not None:
        plan.fire(site, **context)


def mangle(site: str, data: bytes) -> bytes:
    """Byte-mangling hook: the identity when faults are disabled."""
    plan = _ACTIVE
    if plan is None:
        return data
    return plan.mangle(site, data)


class inject:
    """Scope a fault plan: ``with inject("disk.read=error:0.5", seed=7): ...``.

    Accepts a ready :class:`FaultPlan` or a spec string (parsed with
    :func:`parse_plan`).  The previously active plan — usually none — is
    restored on exit, so tests compose without leaking faults.
    """

    def __init__(self, plan: Union[FaultPlan, str], seed: int = 0):
        self.plan = parse_plan(plan, seed=seed) if isinstance(plan, str) else plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        self._previous = activate(self.plan)
        return self.plan

    def __exit__(self, *exc_info) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        return False
