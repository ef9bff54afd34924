"""Write-ahead sweep journal: crash-safe, resumable sweeps.

The :class:`SweepJournal` is an append-only JSONL file recording every
cell a sweep resolves, written *as it happens* with an fsync per line.
Because each line is complete-or-absent, any prefix of the file is a
valid journal: a sweep killed at an arbitrary point — SIGINT, SIGTERM,
an OOM-killed worker, a machine reboot — leaves behind exactly the
cells that finished, and ``repro sweep --resume <journal>`` replays
them and re-runs only the rest.

File format (one JSON object per line)::

    {"type": "sweep", "digest": <spec digest>, "name": ..., "kind": ...,
     "cells": N, "version": <substrate tag>}
    {"type": "cell", "digest": <spec digest>, "index": i,
     "key": <cell digest>, "status": "ok"|"failed", "result": {...}}

Safety properties:

* **spec-scoped** — cell lines carry the digest of the expanded spec
  (kind + every cell's canonical params + substrate version), so one
  journal file can hold multiple sweep sections (fig7 runs two specs)
  and a replay never crosses specs;
* **content-verified** — each cell line also carries the cell's own
  content digest; replay re-derives it from the spec being resumed and
  skips entries that no longer match (edited spec, changed substrate);
* **corruption-tolerant** — a torn or tampered line fails to parse and
  is skipped, counted in :attr:`corrupt_lines_skipped` (surfaced as
  ``repro_runner_journal_corrupt_total``), never propagated;
* **failures are not replayed** — only ``status == "ok"`` entries
  resume; failed cells get a fresh chance on every resume.

For tests and the CI recovery job, ``REPRO_SWEEP_KILL_AFTER=N`` makes
the journal hard-kill the process (``os._exit(137)``) immediately after
the N-th cell line is durably appended — a deterministic mid-sweep
crash with exactly N completed cells on disk.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .cache import cell_digest
from .spec import SweepCell, SweepSpec, canonical_json

#: Env flag: hard-exit after this many durable cell appends (testing).
KILL_AFTER_ENV = "REPRO_SWEEP_KILL_AFTER"


def spec_digest(cells: Sequence[SweepCell], version_tag: str) -> str:
    """Identity of an expanded sweep: kinds+params+substrate version.

    The spec *name* is deliberately excluded (it is display-only, like
    in the cache); two specs expanding to the same cells on the same
    substrate are the same sweep for resumption purposes.
    """
    payload = canonical_json(
        {
            "cells": [c.canonical() for c in cells],
            "version": version_tag,
        }
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class SweepJournal:
    """Append-only JSONL write-ahead log for sweep execution."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        #: Malformed lines skipped by the most recent read.
        self.corrupt_lines_skipped = 0
        self._cell_appends = 0
        self._kill_after = self._read_kill_after()

    @staticmethod
    def _read_kill_after() -> Optional[int]:
        raw = os.environ.get(KILL_AFTER_ENV)
        if not raw:
            return None
        try:
            value = int(raw)
        except ValueError:
            return None
        return value if value > 0 else None

    # -- writing -------------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        """Durably append one line: write, flush, fsync."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = canonical_json(record)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def begin(
        self, spec: SweepSpec, cells: Sequence[SweepCell], version_tag: str
    ) -> str:
        """Open (or re-open) a sweep section; returns its digest.

        Idempotent: resuming an existing journal for the same expanded
        spec does not write a second header.
        """
        digest = spec_digest(cells, version_tag)
        for entry in self._read_entries():
            if entry.get("type") == "sweep" and entry.get("digest") == digest:
                return digest
        self._append(
            {
                "type": "sweep",
                "digest": digest,
                "name": spec.name,
                "kind": spec.kind,
                "cells": len(cells),
                "version": version_tag,
            }
        )
        return digest

    def record_cell(
        self,
        digest: str,
        cell: SweepCell,
        version_tag: str,
        status: str,
        result: Dict[str, Any],
    ) -> None:
        """Durably journal one resolved cell (then maybe die, for tests)."""
        self._append(
            {
                "type": "cell",
                "digest": digest,
                "index": cell.index,
                "key": cell_digest(cell, version_tag),
                "status": status,
                "result": result,
            }
        )
        self._cell_appends += 1
        if self._kill_after is not None and self._cell_appends >= self._kill_after:
            # Deterministic mid-sweep crash for the recovery tests/CI:
            # exactly `kill_after` complete cell lines are on disk.
            os._exit(137)

    # -- reading -------------------------------------------------------------

    def _read_entries(self) -> List[Dict[str, Any]]:
        """Parse every journal line, skipping (and counting) corrupt ones."""
        self.corrupt_lines_skipped = 0
        entries: List[Dict[str, Any]] = []
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            return entries
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                self.corrupt_lines_skipped += 1
                continue
            if not isinstance(entry, dict):
                self.corrupt_lines_skipped += 1
                continue
            entries.append(entry)
        return entries

    def replay(
        self, cells: Sequence[SweepCell], version_tag: str
    ) -> Dict[int, Dict[str, Any]]:
        """Completed results for the given expanded spec, by cell index.

        Only ``status == "ok"`` entries whose spec digest *and* per-cell
        content digest both match are returned; everything else (other
        sweeps, stale substrate versions, failures, tampered lines) is
        ignored.  Later entries win, so a re-run cell supersedes its
        earlier journal line.
        """
        digest = spec_digest(cells, version_tag)
        keys = {c.index: cell_digest(c, version_tag) for c in cells}
        out: Dict[int, Dict[str, Any]] = {}
        for entry in self._read_entries():
            if entry.get("type") != "cell" or entry.get("digest") != digest:
                continue
            if entry.get("status") != "ok":
                continue
            index = entry.get("index")
            if not isinstance(index, int) or index not in keys:
                continue
            if entry.get("key") != keys[index]:
                continue
            result = entry.get("result")
            if isinstance(result, dict):
                out[index] = result
        return out

    def __len__(self) -> int:
        return sum(
            1 for e in self._read_entries() if e.get("type") == "cell"
        )
