"""Benchmark arithmetic: percentiles, the tail rule, failure tallies.

Kept free of the program under test so the rules can be tested on their
own (``perfbench/tests``).
"""

from __future__ import annotations

import hashlib
import math
import os
import platform as host_platform
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: A tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def median(values: list[float]) -> float:
    """The 50th percentile."""
    return float(np.percentile(values, 50.0))


#: Each request's time in :func:`best_pace` is this percentile of its
#: repeats: low enough to skip the host's slow spells, high enough that a
#: single unusually fast repeat does not set it.
PACE_PERCENTILE = 10.0


def best_pace(rounds: list[tuple[int, int, float]]) -> float:
    """Cells per second at the fast end of each request's repeat times.

    Each round is ``(key, cells, seconds)``; rounds with the same key run
    the same inputs and so do the same work.  The time of a fixed piece
    of work is its cost plus whatever the host takes away, so the low
    end of each key's times estimates its cost.  The pace is the cells
    of one round per key over the sum of each key's
    :data:`PACE_PERCENTILE` time.  On a shared host a slow spell
    lengthens some rounds but not the fast end, which is why this
    figure holds steady where a mean or median drifts.
    """
    by_key: dict[int, tuple[list[float], int]] = {}
    for key, cells, seconds in rounds:
        by_key.setdefault(key, ([], cells))[0].append(seconds)
    total_s = sum(
        float(np.percentile(times, PACE_PERCENTILE)) for times, _ in by_key.values()
    )
    return sum(cells for _, cells in by_key.values()) / total_s


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it.

    With ``n`` sorted samples, percentile ``q`` sits at rank
    ``r = q/100 * (n-1)`` and the samples strictly beyond it are those of
    index above ``r``.  Ten of them remain exactly when ``r <= n - 11``,
    so the answer is ``100 * (n-11) / (n-1)``: p90 at 101 samples, p99 at
    1001.  Below 21 samples that rank falls under the median; a tail
    cannot be resolved there and the median is reported instead.
    """
    if n < 2 * TAIL_SAMPLES_BEYOND + 1:
        return 50.0
    return 100.0 * (n - TAIL_SAMPLES_BEYOND - 1) / (n - 1)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above percentile ``q``'s rank.

    A rank between two samples counts only those above the upper one, so
    the count is exact whatever the interpolated value.
    """
    rank = q / 100.0 * (n - 1)
    return n - 1 - math.ceil(rank - 1e-9)


@dataclass
class LatencySummary:
    """Median and tail of a latency sample, with the tail's definition."""

    p50: float
    tail: float
    tail_percentile: float
    samples: int

    @classmethod
    def of(cls, values: list[float]) -> "LatencySummary":
        q = tail_percentile(len(values))
        return cls(
            p50=median(values),
            tail=float(np.percentile(values, q)),
            tail_percentile=q,
            samples=len(values),
        )


@dataclass
class Tally:
    """Operations attempted and failed, by failure kind.

    A failure is an operation that raised, was refused by the service
    (HTTP 429) or returned output the oracle rejected; each counts once
    against the number attempted.
    """

    attempted: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)

    KINDS = ("raised", "refused", "wrong")

    def ok(self, n: int = 1) -> None:
        """Record `n` operations that succeeded."""
        self.attempted += n

    def fail(self, kind: str, message: str) -> None:
        """Record one failed operation of `kind`."""
        if kind not in self.KINDS:
            raise ValueError(f"unknown failure kind {kind!r}")
        self.attempted += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if len(self.messages) < 20:
            self.messages.append(f"{kind}: {message}")

    def reject(self, message: str) -> None:
        """Turn one operation already counted as a success into ``wrong``.

        Outputs are checked after the timed region, so the oracle
        re-classifies operations the run already counted.
        """
        if self.attempted <= self.failed:
            raise ValueError("no successful operation left to reject")
        self.failures["wrong"] = self.failures.get("wrong", 0) + 1
        if len(self.messages) < 20:
            self.messages.append(f"wrong: {message}")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def failure_kind(exc: BaseException) -> str:
    """``refused`` for an HTTP 429 from the service, else ``raised``."""
    return "refused" if getattr(exc, "status", None) == 429 else "raised"


def store_hit_ratio(get_spans: list[tuple[bool, bool]]) -> float:
    """Replays over lookups for outcome-store ``get`` calls.

    Each entry is ``(hit, inside_put)``.  A ``put`` re-reads its key to
    detect duplicates; those nested gets are store bookkeeping, not
    lookups, so they are left out of both numerator and base.
    """
    lookups = [hit for hit, inside_put in get_spans if not inside_put]
    if not lookups:
        return 0.0
    return sum(lookups) / len(lookups)


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src: Path) -> str:
    """Content hash of every ``.py`` file under `src` (path + bytes).

    Identifies the code under test where no git metadata exists, as in an
    exported checkout.
    """
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path) -> dict:
    """Git SHA (when available), source hash and environment fingerprint."""
    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        usable_cpus = os.cpu_count()
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root / "src"),
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus,
        "machine": host_platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
