"""Worker-fleet supervision for the shard fabric.

:class:`~repro.serve.shard.ShardRouter` owns the mechanics — spawn,
consistent-hash routing, persist-then-ack, heal — while
:class:`ShardSupervisor` owns the *policy*: detect dead workers between
rounds (not just when a submit trips over one), respawn and rehydrate
them, scale the fleet up or down with minimal migration, and run the
``kill -9`` chaos drill that the recovery guarantees are gated on.

The split mirrors ``jobs``' executor/manager pairing: the router is a
correct but passive fabric, the supervisor is the loop an operator (or
the CLI) actually drives.
"""

from __future__ import annotations

import os
import signal

from .. import obs
from .shard import ShardRouter, WorkerSpec
from .stores import StoreProvider

__all__ = ["ShardSupervisor"]


class ShardSupervisor:
    """Drives a :class:`ShardRouter`: health checks, scaling, chaos.

    Usage::

        with ShardSupervisor(spec, workers=4, store=store) as sup:
            for round_items in feed:
                alerts = sup.submit(round_items)
        # chaos drill:
        sup.kill_worker(sup.router.workers[0])   # SIGKILL, no warning
        sup.check()                              # detect + heal

    ``submit`` delegates to the router (whose ``auto_heal`` already
    covers mid-round deaths); :meth:`check` covers deaths that happen
    *between* rounds — a worker that died idle is respawned and
    rehydrated before it is ever asked to score again.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        workers: int = 4,
        store: StoreProvider | None = None,
    ) -> None:
        self.router = ShardRouter(spec, workers=workers, store=store)
        self.heals = 0

    # -- serving ---------------------------------------------------------
    def submit(self, items):
        """One scoring round through a health-checked fleet."""
        self.check()
        return self.router.submit(items)

    def check(self) -> list[str]:
        """Detect dead workers and heal them; returns the healed names."""
        healed = []
        for name in self.router.workers:
            if not self.router._workers[name].alive():
                self.router._mark_dead(name)
                self.router.heal_worker(name)
                self.heals += 1
                healed.append(name)
        return healed

    # -- scaling ---------------------------------------------------------
    def scale_to(self, target: int) -> dict:
        """Grow or shrink the fleet; returns the migration summary.

        Consistent hashing keeps each join/leave to ~1/N of the
        streams; the summary reports exactly which moved.
        """
        if target < 1:
            raise ValueError("target must be >= 1")
        moved: dict[str, list[str]] = {}
        current = self.router.workers
        index = 0
        while len(self.router.workers) < target:
            while f"w{index}" in self.router._workers:
                index += 1
            name = f"w{index}"
            moved[f"+{name}"] = self.router.add_worker(name)
        while len(self.router.workers) > target:
            name = self.router.workers[-1]
            moved[f"-{name}"] = self.router.remove_worker(name)
        if moved:
            obs.event(
                "serve.shard.scaled",
                workers=len(self.router.workers),
                moved=sum(len(ids) for ids in moved.values()),
            )
        return {"workers": self.router.workers, "moved": moved, "was": current}

    # -- chaos -----------------------------------------------------------
    def kill_worker(self, name: str) -> int:
        """``kill -9`` a worker (the chaos drill) and reap it; returns its
        old pid.

        The next :meth:`check` or :meth:`submit` heals it: drain the
        pipe, respawn, rehydrate from the store, replay unacked batches.
        """
        pid = self.router.worker_pid(name)
        os.kill(pid, signal.SIGKILL)
        self.router._workers[name].process.join(timeout=5.0)
        obs.event("serve.shard.chaos_kill", worker=name, pid=pid)
        return pid

    # -- lifecycle -------------------------------------------------------
    def report(self) -> dict:
        report = self.router.report()
        report["heals"] = self.heals
        return report

    def close(self) -> None:
        self.router.close()

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
