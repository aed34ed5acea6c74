"""The background scrubber and the serving supervisor.

Durability is not just surviving crashes — it is *noticing* latent damage
before a query does.  The scrubber walks the disk and the cross-structure
invariants continuously while the system serves traffic:

* **Checksum sweep** — every page's stored checksum is re-verified via
  :meth:`SimulatedDisk.peek`-level access: zero counted I/O, no fault-plan
  consultation, so scrubbing never perturbs benchmark counters or trips
  injected read faults meant for queries.  A failure is double-checked
  once (the simulator's writers re-seal in place; a read racing a write is
  not damage) before it becomes a finding.
* **Invariant sweep** — the shared audit core
  (:mod:`repro.core.integrity`) re-derives every cell's signature from a
  *pinned epoch snapshot* and compares it with the stored one, exactly
  like ``verify_consistency()`` but incremental, throttled and concurrent with
  both readers and the maintenance writer.
* **Self-healing** — damage to a signature page (or a failed cell
  invariant) quarantines the owning cell, and every pass that finds a
  quarantined cell — its own finding or a query's — rebuilds them all via
  :meth:`~repro.system.PCubeSystem.repair_quarantined`, which publishes a
  fresh epoch so concurrent readers flip to the healed pages atomically.
  Damage outside the signature store (heap, R-tree, B+-tree pages) has no
  online rebuild hook yet; it is reported for the operator.

The :class:`Supervisor` aggregates the scrubber's findings with the two
liveness hazards a serving deployment must watch: queries running past
their expected horizon (hung) and a WAL operation pending longer than any
healthy maintenance step should take (stalled).  ``python -m repro.serve
--health`` surfaces its report.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core import integrity
from repro.storage.counters import Tally
from repro.storage.errors import CorruptPageError

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.executor import QueryExecutor
    from repro.system import PCubeSystem


class ScrubStats(Tally):
    """Lifetime tallies of one scrubber instance."""

    ZEROS = dict(
        passes=0,
        pages_scanned=0,
        cells_verified=0,
        checksum_faults=0,
        invariant_faults=0,
        cells_repaired=0,
        last_pass_seconds=0.0,
    )

    def note_pass(self, repaired: int, seconds: float) -> None:
        with self._lock:
            self._counts["passes"] += 1
            self._counts["cells_repaired"] += repaired
            self._counts["last_pass_seconds"] = seconds


@dataclass(frozen=True)
class Finding:
    """One piece of damage a scrub pass surfaced."""

    kind: str  # "checksum" | "invariant"
    subject: str  # page tag or cell id
    detail: str
    repaired: bool


class Scrubber:
    """A throttled, epoch-pinned damage detector with self-healing.

    Args:
        system: The live system (epochs are used when enabled — required
            for scrubbing concurrently with maintenance).
        pages_per_tick / cells_per_tick: Work quantum between throttle
            sleeps; the rate knob that keeps scrub overhead low.
        interval: Seconds slept between work quanta (and between passes).

    Damaged signature cells are always quarantined, and every pass
    rebuilds every quarantined cell.
    """

    def __init__(
        self,
        system: "PCubeSystem",
        pages_per_tick: int = 256,
        cells_per_tick: int = 16,
        interval: float = 0.005,
    ) -> None:
        self.system = system
        self.pages_per_tick = max(1, pages_per_tick)
        self.cells_per_tick = max(1, cells_per_tick)
        self.interval = interval
        self.stats = ScrubStats()
        self.findings: list[Finding] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # one pass
    # ------------------------------------------------------------------ #

    def run_pass(self, throttle: bool = False) -> list[Finding]:
        """One full scrub pass; returns its findings.

        Synchronous (tests and the health CLI call it directly); the
        background thread runs it with ``throttle=True``.
        """
        started = time.perf_counter()
        findings: list[Finding] = []
        damaged_cells = self._sweep_checksums(findings, throttle)
        damaged_cells |= self._sweep_invariants(findings, throttle)
        repaired = self._heal(damaged_cells, findings)
        self.stats.note_pass(repaired, time.perf_counter() - started)
        with self._lock:
            self.findings.extend(findings)
            del self.findings[:-200]  # keep a bounded tail for health()
        return findings

    def _sweep_checksums(
        self, findings: list[Finding], throttle: bool
    ) -> set[str]:
        """Verify every page checksum; returns damaged cell ids (pages
        owned by the signature store), recording findings for the rest."""
        disk = self.system.disk
        sig_owner = self._sig_page_owners()
        damaged_cells: set[str] = set()
        scanned = 0
        for page in disk.pages(""):
            scanned += 1
            if throttle and scanned % self.pages_per_tick == 0:
                self._nap()
            try:
                page.verify()
                continue
            except CorruptPageError:
                pass
            # Double-check: in-place writers re-seal after mutating, so one
            # racy read can see a half-updated seal.  Damage is damage only
            # if it verifies bad twice.
            try:
                page.verify()
                continue
            except CorruptPageError as exc:
                owner = sig_owner.get(page.page_id)
                if owner is not None:
                    damaged_cells.add(owner)
                findings.append(
                    Finding(
                        kind="checksum",
                        subject=page.tag,
                        detail=f"page {page.page_id}: {exc}",
                        repaired=owner is not None,
                    )
                )
        self.stats.bump(
            pages_scanned=scanned,
            checksum_faults=sum(1 for f in findings if f.kind == "checksum"),
        )
        return damaged_cells

    def _sweep_invariants(
        self, findings: list[Finding], throttle: bool
    ) -> set[str]:
        """Re-derive per-cell signatures under a pinned epoch snapshot."""
        epochs = self.system.epochs
        snapshot = epochs.pin()
        try:
            return self._check_cells(
                snapshot.relation,
                snapshot.rtree.all_paths(),
                snapshot.store.load_full_signature,
                findings,
                throttle,
            )
        finally:
            epochs.unpin(snapshot)

    def _check_cells(
        self,
        relation,
        paths,
        load_signature,
        findings: list[Finding],
        throttle: bool,
    ) -> set[str]:
        damaged: set[str] = set()
        verified = 0
        for cell, problems in integrity.iter_cell_checks(
            relation,
            paths,
            self.system.pcube.cuboids,
            self.system.pcube.fanout,
            load_signature,
        ):
            verified += 1
            if throttle and verified % self.cells_per_tick == 0:
                self._nap()
            if not problems:
                continue
            damaged.add(cell.cell_id)
            for problem in problems:
                findings.append(
                    Finding(
                        kind="invariant",
                        subject=cell.cell_id,
                        detail=problem,
                        repaired=True,
                    )
                )
        self.stats.bump(
            cells_verified=verified,
            invariant_faults=sum(1 for f in findings if f.kind == "invariant"),
        )
        return damaged

    def _heal(self, damaged_cells: set[str], findings: list[Finding]) -> int:
        """Quarantine the damaged cells, then rebuild every quarantined
        cell — those a query's fault quarantined since the last pass too —
        on the single-writer path."""
        system = self.system
        if not damaged_cells and not system.pcube.store.quarantined_cells():
            return 0
        by_id = {
            cell.cell_id: cell
            for cuboid in system.pcube.cuboids
            for cell in cuboid.group(system.relation, include_tombstoned=True)
        }
        for cell_id in sorted(damaged_cells):
            cell = by_id.get(cell_id)
            if cell is None:  # a store-side ghost; nothing to rebuild from
                findings.append(
                    Finding(
                        kind="invariant",
                        subject=cell_id,
                        detail="damaged cell not derivable from the relation",
                        repaired=False,
                    )
                )
                continue
            system.pcube.store.quarantine(cell, "scrubber finding")
        return len(system.repair_quarantined())

    def _sig_page_owners(self) -> dict[int, str]:
        """page_id → owning cell id for every directory-referenced page."""
        return {
            page_id: cell_id
            for (cell_id, _sid), page_id in (
                self.system.pcube.store.directory_entries()
            )
        }

    def _nap(self) -> None:
        if self.interval > 0:
            self._stop.wait(self.interval)

    # ------------------------------------------------------------------ #
    # the background thread
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="scrubber", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.run_pass(throttle=True)
            self._stop.wait(self.interval)

    def report(self) -> dict[str, Any]:
        with self._lock:
            return {
                "running": self.running,
                **self.stats.snapshot(),
                "recent_findings": [
                    {
                        "kind": f.kind,
                        "subject": f.subject,
                        "detail": f.detail,
                        "repaired": f.repaired,
                    }
                    for f in self.findings[-10:]
                ],
            }


@dataclass
class Supervisor:
    """Watches the serving deployment's three liveness hazards.

    * **Hung queries** — in-flight longer than ``hung_after`` seconds
      (deadlines bound *admitted* time; a query wedged inside storage
      retries still holds a worker and its epoch pin).
    * **Stalled maintenance** — a WAL operation pending longer than
      ``stalled_after`` seconds: the single writer died mid-operation, and
      no new maintenance can start until recovery runs.
    * **Scrubber damage** — unrepaired findings from the scrub passes.
    """

    system: "PCubeSystem"
    executor: "QueryExecutor | None" = None
    scrubber: Scrubber | None = None
    hung_after: float = 5.0
    stalled_after: float = 5.0

    def report(self) -> dict[str, Any]:
        now = time.monotonic()
        hung: list[dict[str, Any]] = []
        if self.executor is not None:
            for entry in self.executor.inflight():
                if entry["running_seconds"] > self.hung_after:
                    hung.append(entry)
        pending_since = self.system.wal.pending_since
        pending_age = (
            now - pending_since if pending_since is not None else None
        )
        stalled = pending_age is not None and pending_age > self.stalled_after
        scrub = self.scrubber.report() if self.scrubber is not None else None
        unrepaired = (
            sum(1 for f in scrub["recent_findings"] if not f["repaired"])
            if scrub is not None
            else 0
        )
        quarantined = [
            cell.cell_id
            for cell in self.system.pcube.store.quarantined_cells()
        ]
        return {
            "ok": not hung and not stalled and not unrepaired
            and not quarantined,
            "hung_queries": hung,
            "maintenance": {
                "wal_pending": pending_since is not None,
                "pending_age_seconds": pending_age,
                "stalled": stalled,
            },
            "scrubber": scrub,
            "unrepaired_findings": unrepaired,
            "quarantined_cells": quarantined,
        }


__all__ = ["Finding", "ScrubStats", "Scrubber", "Supervisor"]
