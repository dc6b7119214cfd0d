"""Phase-1 frequency table (paper Figure 4) and its run-time lookup.

Phase 1 sweeps a grid of (starting temperature, target average frequency)
design points, solving the Pro-Temp program at each; the results are stored
in a :class:`FrequencyTable`.  At run time (paper section 3.3) the thermal
management unit:

1. measures the maximum core temperature and rounds it **up** to the next
   grid row (safe by trajectory monotonicity — see
   `repro.thermal.model.ThermalModel.is_monotone`).  A measurement within
   :data:`GRID_SNAP_TOLERANCE` Celsius *above* a grid row is treated as
   sitting on that row (sensor/float noise must not force the next-hotter
   row's more conservative cell);
2. rounds the required average frequency **up** to the next grid column
   (serving at least the demanded performance), with the same snap rule
   applied *relatively* (``GRID_SNAP_TOLERANCE * max(1, |f|)``, since
   frequencies live on a ~1e9 Hz scale where an absolute 1e-9 would never
   trigger).  A demand above the top column is served *at* the top column
   — less than demanded — and the result carries ``demand_clamped=True``
   so the caller can see the shortfall;
3. if that cell is infeasible, walks **down** the frequency columns until a
   feasible cell is found ("the unit chooses the next lower frequency point
   in the table that can support the temperature constraints");
4. if no column is feasible — or the temperature exceeds the top grid row
   by more than the snap tolerance — the cores are shut down for the
   window (zero frequency), the maximally safe fallback.

**Sweeps.**  :func:`build_frequency_table` runs one of two sweeps,
named in :data:`SWEEPS`.  Both first solve each row's feasibility boundary
(one convex solve per row) and mark cells above it infeasible without
running the full optimization.

``gen2`` is the default wherever tables are built.  It has four parts:

* *within-row warm starts* — each row is walked from the highest
  frequency column downward and every cell warm-starts from its feasible
  right-neighbor's raw solver vector.  Sound because lowering
  ``f_target`` only loosens the sqrt average-frequency constraint, so the
  neighbor's (strictly interior) optimum stays strictly feasible and both
  phase I and the per-cell boundary pre-solve are skipped;
* *cross-row warm starts* — rows are walked hottest first and a row's
  first feasible cell warm-starts from the hotter row's same-column
  optimum.  Thermal monotonicity makes that start strictly feasible for
  every temperature row (a colder start lowers every offset); only the
  pairwise-gradient offsets can move the other way, which the optimizer
  repairs by lifting the ``t_grad`` component (see
  `repro.core.protemp.ProTempOptimizer.solve`);
* *sparse constraint pruning* — cells solve against only the linear rows
  seen near-active at previous optima (most thermal step rows never are),
  then the full stack re-checks the result: any violation grows the
  active set and falls back to the exact path, and accepted solutions
  are polished on the full stack at the cold schedule's final barrier
  weight and certified there by their KKT stationarity residual, so
  agreement with unpruned solves is preserved to Newton tolerance;
* *warm barrier schedules* — warm-started cells begin the barrier
  schedule at ``m / (estimated duality gap)`` instead of ``t_initial``,
  skipping centering stages a near-optimal start does not need (the
  start weight is snapped to the cold schedule's geometric grid so both
  paths finish at the same analytic center).

``cold`` solves every cell from scratch, rows coldest first; with
``ProTempOptimizer(accelerated=False)`` it is the per-cell oracle gen2 is
checked against.  perfbench's ``table-sweep`` workload measures gen2
against that oracle.
"""

from __future__ import annotations

import json
import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import TableError, did_you_mean
from repro.core.protemp import FrequencyAssignment, ProTempOptimizer
from repro.solver.newton import NewtonOptions
from repro.thermal.constants import PAPER_DFS_PERIOD

#: Measurements this close to a grid line count as *on* it.  Absolute
#: (Celsius) for temperature rows; scaled by ``max(1, |f|)`` for frequency
#: columns (relative on the Hz scale).  See the module docstring.
GRID_SNAP_TOLERANCE = 1e-9

#: The Phase-1 sweeps (see the module docstring): ``gen2``, the default,
#: and ``cold``, the per-cell oracle.
SWEEPS = ("gen2", "cold")


class TableProvenanceWarning(UserWarning):
    """A loaded table's provenance does not match the requesting context.

    Raised as a *warning* (not an error) because a mismatched table is
    still structurally valid — but its frequency vectors were optimized
    for a different platform, so its thermal guarantee does not transfer.
    """


@dataclass(frozen=True)
class TableEntry:
    """One cell of the Phase-1 table.

    Attributes:
        t_start: grid starting temperature (Celsius).
        f_target: grid average-frequency requirement (Hz).
        feasible: whether the convex program was feasible.
        frequencies: per-core frequency vector (Hz); zeros when infeasible.
        total_power: sum of core powers (W).
        predicted_peak: model-predicted peak temperature (Celsius).
        predicted_gradient: model-predicted max core gradient (Celsius).
    """

    t_start: float
    f_target: float
    feasible: bool
    frequencies: tuple[float, ...]
    total_power: float
    predicted_peak: float
    predicted_gradient: float

    @classmethod
    def from_assignment(cls, assignment: FrequencyAssignment) -> "TableEntry":
        """Build a table entry from an optimizer result."""
        return cls(
            t_start=assignment.t_start,
            f_target=assignment.f_target,
            feasible=assignment.feasible,
            frequencies=tuple(float(f) for f in assignment.frequencies),
            total_power=float(np.sum(assignment.core_power)),
            predicted_peak=float(assignment.predicted_peak),
            predicted_gradient=float(assignment.predicted_gradient),
        )


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a run-time table lookup.

    Attributes:
        frequencies: per-core frequencies to apply (Hz); zeros mean a
            shutdown window.
        entry: the table cell used (None for the shutdown fallback).
        satisfied_target: the grid frequency actually served (Hz); may be
            below the requested one when the controller had to back off.
        shutdown: True when the fallback (all cores off) was taken.
        demand_clamped: True when `f_required` exceeded the table's top
            frequency column (beyond the snap tolerance), i.e. the served
            performance is below the demand even before any thermal
            backoff.
    """

    frequencies: np.ndarray
    entry: TableEntry | None
    satisfied_target: float
    shutdown: bool
    demand_clamped: bool = False


class FrequencyTable:
    """The Phase-1 output: feasible frequency vectors over a design grid.

    Args:
        t_grid: strictly increasing starting temperatures (Celsius).
        f_grid: strictly increasing average-frequency targets (Hz).
        entries: mapping ``(t_index, f_index) -> TableEntry`` covering the
            full grid.
        n_cores: number of cores the vectors apply to.
        metadata: free-form provenance (platform name, horizon, mode...).

    Raises:
        TableError: on malformed grids, missing cells, or any NaN in an
            entry's numeric fields (NaN has no JSON representation and no
            meaningful lookup semantics, so it is rejected at build time).
    """

    def __init__(
        self,
        t_grid: list[float],
        f_grid: list[float],
        entries: dict[tuple[int, int], TableEntry],
        n_cores: int,
        metadata: dict | None = None,
    ) -> None:
        if sorted(t_grid) != list(t_grid) or len(set(t_grid)) != len(t_grid):
            raise TableError("t_grid must be strictly increasing")
        if sorted(f_grid) != list(f_grid) or len(set(f_grid)) != len(f_grid):
            raise TableError("f_grid must be strictly increasing")
        for ti in range(len(t_grid)):
            for fi in range(len(f_grid)):
                if (ti, fi) not in entries:
                    raise TableError(f"missing table entry ({ti}, {fi})")
        for key, entry in entries.items():
            fields = (
                entry.t_start,
                entry.f_target,
                entry.total_power,
                entry.predicted_peak,
                entry.predicted_gradient,
                *entry.frequencies,
            )
            if any(math.isnan(float(v)) for v in fields):
                raise TableError(f"table entry {key} contains NaN")
        self.t_grid = [float(t) for t in t_grid]
        self.f_grid = [float(f) for f in f_grid]
        self.entries = dict(entries)
        self.n_cores = int(n_cores)
        self.metadata = dict(metadata or {})

    # -- lookup -----------------------------------------------------------

    def _row_index(self, t_current: float) -> int | None:
        """Grid row covering `t_current` (rounded up), or None when above
        the top row by more than the snap tolerance."""
        ti = bisect_left(self.t_grid, t_current - GRID_SNAP_TOLERANCE)
        return ti if ti < len(self.t_grid) else None

    def _column_index(self, f_required: float) -> tuple[int, bool]:
        """Grid column covering `f_required` (rounded up) and whether the
        demand had to be clamped to the top column."""
        tolerance = GRID_SNAP_TOLERANCE * max(1.0, abs(f_required))
        fi = bisect_left(self.f_grid, f_required - tolerance)
        if fi >= len(self.f_grid):
            return len(self.f_grid) - 1, True
        return fi, False

    def lookup(self, t_current: float, f_required: float) -> LookupResult:
        """Run-time lookup (see module docstring for the exact semantics).

        Args:
            t_current: current maximum core temperature (Celsius).
            f_required: required average frequency (Hz).

        Returns:
            A :class:`LookupResult`; `shutdown` is True when no feasible
            cell exists for this temperature, `demand_clamped` when the
            demand exceeded the table's top frequency column.
        """
        fi, demand_clamped = self._column_index(f_required)
        ti = self._row_index(t_current)
        if ti is None:
            return self._shutdown(demand_clamped)
        while fi >= 0:
            entry = self.entries[(ti, fi)]
            if entry.feasible:
                return LookupResult(
                    frequencies=np.array(entry.frequencies),
                    entry=entry,
                    satisfied_target=self.f_grid[fi],
                    shutdown=False,
                    demand_clamped=demand_clamped,
                )
            fi -= 1
        return self._shutdown(demand_clamped)

    def _shutdown(self, demand_clamped: bool = False) -> LookupResult:
        return LookupResult(
            frequencies=np.zeros(self.n_cores),
            entry=None,
            satisfied_target=0.0,
            shutdown=True,
            demand_clamped=demand_clamped,
        )

    # -- views ------------------------------------------------------------------

    def max_feasible_target(self, t_start: float) -> float:
        """Highest feasible grid frequency at the row covering `t_start`.

        Returns 0.0 when no column is feasible (shutdown row).
        """
        ti = self._row_index(t_start)
        if ti is None:
            return 0.0
        for fi in reversed(range(len(self.f_grid))):
            if self.entries[(ti, fi)].feasible:
                return self.f_grid[fi]
        return 0.0

    def feasibility_matrix(self) -> np.ndarray:
        """Boolean matrix (len(t_grid), len(f_grid)) of cell feasibility."""
        out = np.zeros((len(self.t_grid), len(self.f_grid)), dtype=bool)
        for (ti, fi), entry in self.entries.items():
            out[ti, fi] = entry.feasible
        return out

    def format(self) -> str:
        """Figure 4-style ASCII rendering."""
        lines = ["Starting temp (C) | target (MHz) -> per-core MHz"]
        for ti, t in enumerate(self.t_grid):
            for fi, f in enumerate(self.f_grid):
                entry = self.entries[(ti, fi)]
                if entry.feasible:
                    freqs = ", ".join(
                        f"{v / 1e6:.0f}" for v in entry.frequencies
                    )
                    lines.append(f"  <= {t:5.1f} | {f / 1e6:6.0f} -> {freqs}")
                else:
                    lines.append(f"  <= {t:5.1f} | {f / 1e6:6.0f} -> infeasible")
        return "\n".join(lines)

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data (JSON-compatible) representation."""
        return {
            "t_grid": self.t_grid,
            "f_grid": self.f_grid,
            "n_cores": self.n_cores,
            "metadata": self.metadata,
            "entries": [
                {
                    "ti": ti,
                    "fi": fi,
                    "t_start": e.t_start,
                    "f_target": e.f_target,
                    "feasible": e.feasible,
                    "frequencies": list(e.frequencies),
                    "total_power": e.total_power,
                    "predicted_peak": _json_float(e.predicted_peak),
                    "predicted_gradient": _json_float(e.predicted_gradient),
                }
                for (ti, fi), e in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_dict(
        cls, data: dict, *, expected_platform_hash: str | None = None
    ) -> "FrequencyTable":
        """Inverse of :meth:`to_dict`.

        Args:
            data: a :meth:`to_dict` payload.
            expected_platform_hash: when given, compared against the
                table's recorded ``platform_spec_hash`` metadata; a
                mismatch (or a table with no recorded hash) emits a
                :class:`TableProvenanceWarning` — the table's thermal
                guarantee only holds for the platform it was built for.
        """
        try:
            entries = {
                (item["ti"], item["fi"]): TableEntry(
                    t_start=item["t_start"],
                    f_target=item["f_target"],
                    feasible=item["feasible"],
                    frequencies=tuple(item["frequencies"]),
                    total_power=item["total_power"],
                    predicted_peak=_parse_float(item["predicted_peak"]),
                    predicted_gradient=_parse_float(
                        item["predicted_gradient"]
                    ),
                )
                for item in data["entries"]
            }
            table = cls(
                t_grid=data["t_grid"],
                f_grid=data["f_grid"],
                entries=entries,
                n_cores=data["n_cores"],
                metadata=data.get("metadata", {}),
            )
        except (KeyError, TypeError) as exc:
            raise TableError(f"malformed table data: {exc}") from exc
        if expected_platform_hash is not None:
            recorded = table.metadata.get("platform_spec_hash")
            if recorded is None:
                warnings.warn(
                    "table has no recorded platform_spec_hash; cannot "
                    f"verify it was built for platform {expected_platform_hash}",
                    TableProvenanceWarning,
                    stacklevel=2,
                )
            elif recorded != expected_platform_hash:
                warnings.warn(
                    f"table was built for platform {recorded}, not "
                    f"{expected_platform_hash}; its thermal guarantee does "
                    "not transfer",
                    TableProvenanceWarning,
                    stacklevel=2,
                )
        return table

    def save_json(self, path: str | Path) -> None:
        """Write the table to a JSON file (strict standard JSON).

        ``allow_nan=False`` guards against the non-standard ``NaN`` /
        ``Infinity`` literals `json.dumps` would otherwise emit: every
        non-finite value must have gone through :func:`_json_float`.
        """
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=1, allow_nan=False)
        )

    @classmethod
    def load_json(
        cls, path: str | Path, *, expected_platform_hash: str | None = None
    ) -> "FrequencyTable":
        """Read a table written by :meth:`save_json`.

        Args:
            path: the JSON file.
            expected_platform_hash: optional provenance check — see
                :meth:`from_dict`.
        """
        return cls.from_dict(
            json.loads(Path(path).read_text()),
            expected_platform_hash=expected_platform_hash,
        )


def quantize_table(
    table: FrequencyTable,
    ladder: "FrequencyLadder",
    *,
    platform: "Platform | None" = None,
) -> FrequencyTable:
    """Snap every stored frequency down to a discrete hardware ladder.

    Real DVFS hardware supports a finite set of operating points; the
    continuous optimizer output must be quantized.  Rounding **down** keeps
    the table's guarantee intact: lower frequency means lower power (Eq. 2)
    and, by the thermal model's monotonicity, lower temperatures everywhere.

    The stored metrics are made to match the stored (quantized)
    frequencies rather than copied from the continuous entry:

    * ``total_power`` is recomputed from the quantized vector via Eq. 2 —
      exactly, through the platform's power model when `platform` is
      given, otherwise by the quadratic rescale
      ``total * sum(f_q^2) / sum(f_c^2)`` (equivalent under Eq. 2);
    * with `platform`, ``predicted_peak`` and ``predicted_gradient`` are
      re-simulated over the table's horizon from the quantized powers
      (every step, so the peak is at least as tight as the optimizer's
      subsampled prediction) and the metadata records
      ``"quantized_metrics": "resimulated"``;
    * without `platform`, the continuous peak is carried as a valid
      **upper bound** (all powers only decreased) and the metadata records
      ``"quantized_metrics": "carried_upper_bound"``.  The carried
      gradient is only approximate — per-core flooring can widen pairwise
      differences — so pass `platform` when exact gradients matter.

    Cells whose quantized vector would be all-zero (every frequency below
    the lowest ladder level and the ladder's floor clamps upward) are kept
    feasible only if the *clamped-up* lowest level still satisfies — we do
    not re-solve here, so such cells are conservatively marked infeasible.

    Args:
        table: a Phase-1 table with continuous frequencies.
        ladder: the hardware's discrete frequency levels.
        platform: optional platform for exact metric recomputation.

    Returns:
        A new :class:`FrequencyTable`; grids and metadata are preserved
        (with ``"quantized"`` / ``"quantized_metrics"`` markers added).
    """
    from repro.power.dvfs import FrequencyLadder  # local: avoid cycle

    if not isinstance(ladder, FrequencyLadder):
        raise TableError("quantize_table needs a FrequencyLadder")
    entries: dict[tuple[int, int], TableEntry] = {}
    for key, entry in table.entries.items():
        if not entry.feasible:
            entries[key] = entry
            continue
        quantized = []
        feasible = True
        for f in entry.frequencies:
            if f < ladder.f_min * (1 - 1e-12):
                # floor() would clamp *up* to f_min, which could violate
                # the thermal guarantee; treat as unachievable.
                feasible = False
                break
            quantized.append(ladder.floor(f))
        if not feasible:
            entries[key] = TableEntry(
                t_start=entry.t_start,
                f_target=entry.f_target,
                feasible=False,
                frequencies=tuple(0.0 for _ in entry.frequencies),
                total_power=0.0,
                predicted_peak=np.inf,
                predicted_gradient=np.inf,
            )
            continue
        quantized_f = np.asarray(quantized, dtype=float)
        if platform is not None:
            core_power = np.asarray(
                platform.power.scaling.power(quantized_f), dtype=float
            )
            total_power = float(core_power.sum())
            peak, gradient = _simulated_metrics(
                platform, table, entry.t_start, core_power
            )
        else:
            continuous_f = np.asarray(entry.frequencies, dtype=float)
            # Eq. 2 makes per-core power quadratic in frequency, so the
            # quantized total is the continuous one rescaled by the
            # frequency-square ratio — no power model needed.
            total_power = entry.total_power * float(
                np.sum(quantized_f**2) / np.sum(continuous_f**2)
            )
            peak, gradient = entry.predicted_peak, entry.predicted_gradient
        entries[key] = TableEntry(
            t_start=entry.t_start,
            f_target=entry.f_target,
            feasible=True,
            frequencies=tuple(float(f) for f in quantized_f),
            total_power=total_power,
            predicted_peak=peak,
            predicted_gradient=gradient,
        )
    metadata = dict(table.metadata)
    metadata["quantized"] = [float(level) for level in ladder.levels]
    metadata["quantized_metrics"] = (
        "resimulated" if platform is not None else "carried_upper_bound"
    )
    return FrequencyTable(
        t_grid=table.t_grid,
        f_grid=table.f_grid,
        entries=entries,
        n_cores=table.n_cores,
        metadata=metadata,
    )


def _simulated_metrics(
    platform: "Platform",
    table: FrequencyTable,
    t_start: float,
    core_power: np.ndarray,
) -> tuple[float, float]:
    """Peak and max pairwise core gradient over the table's window."""
    horizon = float(table.metadata.get("horizon_s", PAPER_DFS_PERIOD))
    node_power = platform.power.injection_matrix() @ core_power
    n_steps = max(int(round(horizon / platform.thermal.dt)), 1)
    trajectory = platform.thermal.simulate(t_start, node_power, n_steps)
    steps = trajectory[1:]
    core_temps = steps[:, platform.core_indices]
    gradient = float(
        np.max(core_temps.max(axis=1) - core_temps.min(axis=1))
    )
    return float(steps.max()), gradient


def _json_float(value: float) -> float | str:
    """JSON encoding of a float: finite as-is, ``±inf`` as signed strings.

    NaN is rejected — it has no standard JSON representation
    (``json.dumps`` would emit the non-standard ``NaN`` literal) and the
    table constructor already refuses it, so reaching one here is a bug.
    """
    value = float(value)
    if math.isnan(value):
        raise TableError("NaN is not representable in a frequency table")
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _parse_float(value: float | str) -> float:
    """Inverse of :func:`_json_float` (strict: rejects NaN and unknown
    string encodings instead of letting them leak into lookups)."""
    if isinstance(value, str):
        if value == "inf":
            return np.inf
        if value == "-inf":
            return -np.inf
        raise TableError(f"unrecognized float encoding {value!r}")
    result = float(value)
    if math.isnan(result):
        raise TableError("NaN is not allowed in a frequency table")
    return result


def _infeasible_entry(
    t_start: float, f_target: float, n_cores: int
) -> TableEntry:
    return TableEntry(
        t_start=float(t_start),
        f_target=float(f_target),
        feasible=False,
        frequencies=tuple([0.0] * n_cores),
        total_power=0.0,
        predicted_peak=np.inf,
        predicted_gradient=np.inf,
    )


def _build_row(
    optimizer: ProTempOptimizer,
    t_start: float,
    f_grid: list[float],
    gen2: bool,
    hotter_row: dict[int, FrequencyAssignment] | None = None,
    on_cell: Callable[[], None] | None = None,
) -> tuple[dict[int, TableEntry], dict[int, FrequencyAssignment]]:
    """Solve one temperature row, walking frequency columns high to low.

    Cells above the row's feasibility boundary are marked infeasible
    without a solve.  ``cold`` solves every other cell from scratch.
    ``gen2`` warm-starts each cell from its right-neighbor's optimum; a
    cell without a feasible right-neighbor (the row's leading feasible
    column) falls back to the hotter row's same-column optimum.  Returns
    the row's assignments alongside its entries so the next (colder) row
    can warm-start from them.
    """
    n_cores = optimizer.platform.n_cores
    row: dict[int, TableEntry] = {}
    assignments: dict[int, FrequencyAssignment] = {}
    boundary = optimizer.max_feasible_target(t_start)
    prev: FrequencyAssignment | None = None
    for fi in reversed(range(len(f_grid))):
        f_target = f_grid[fi]
        if f_target > boundary:
            row[fi] = _infeasible_entry(t_start, f_target, n_cores)
        else:
            warm = prev
            if (warm is None or not warm.feasible) and hotter_row is not None:
                hotter = hotter_row.get(fi)
                if hotter is not None and hotter.feasible:
                    warm = hotter
            assignment = optimizer.solve(
                t_start,
                f_target,
                warm_from=warm,
                prune=gen2,
                warm_schedule=gen2,
            )
            row[fi] = TableEntry.from_assignment(assignment)
            assignments[fi] = assignment
            prev = assignment if gen2 else None
        if on_cell is not None:
            on_cell()
    return row, assignments


def build_frequency_table(
    optimizer: ProTempOptimizer,
    t_grid: list[float],
    f_grid: list[float],
    *,
    strategy: str | None = None,
    progress: Callable[[int, int], None] | None = None,
    provenance: dict | None = None,
    warm_start: bool | None = None,
) -> FrequencyTable:
    """Run Phase 1: solve every grid point and assemble the table.

    Args:
        optimizer: configured :class:`ProTempOptimizer`.
        t_grid: starting temperatures (Celsius), strictly increasing.
        f_grid: average-frequency targets (Hz), strictly increasing.
        strategy: the sweep, ``"gen2"`` (the default) or ``"cold"`` (see
            the module docstring).
        progress: optional callback ``(done, total)``, called per cell.
        provenance: caller-supplied metadata merged into the table's
            metadata — the scenario runner records the platform spec
            hash and a build timestamp here (the build itself never
            reads the clock, keeping sweeps deterministic).
        warm_start: legacy flag: ``False`` spells ``"cold"``, ``True``
            the default ``"gen2"``; only valid when `strategy` is None.

    Returns:
        The assembled :class:`FrequencyTable`.

    Raises:
        TableError: for an unknown sweep, or when both `strategy` and
            `warm_start` are given (the flag would be silently ignored
            otherwise).
    """
    if warm_start is not None:
        if strategy is not None:
            raise TableError(
                "pass the sweep either via `strategy` or via the legacy "
                "`warm_start` keyword, not both"
            )
        strategy = "gen2" if warm_start else "cold"
    if strategy is None:
        strategy = "gen2"
    if strategy not in SWEEPS:
        raise TableError(
            f"unknown sweep strategy {strategy!r}; choose from {list(SWEEPS)}"
            + did_you_mean(strategy, SWEEPS)
        )
    gen2 = strategy == "gen2"
    entries: dict[tuple[int, int], TableEntry] = {}
    total = len(t_grid) * len(f_grid)
    done = 0

    def tick() -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total)

    # gen2 walks rows hottest first so each row can warm-start from the
    # hotter one; cold keeps the grid order.
    order = range(len(t_grid))
    hotter: dict[int, FrequencyAssignment] | None = None
    for ti in reversed(order) if gen2 else order:
        row, assignments = _build_row(
            optimizer,
            t_grid[ti],
            list(f_grid),
            gen2,
            hotter_row=hotter,
            on_cell=tick,
        )
        for fi, entry in row.items():
            entries[(ti, fi)] = entry
        if gen2:
            hotter = assignments
    platform = optimizer.platform
    barrier = optimizer.barrier_options
    newton = barrier.newton or NewtonOptions()
    metadata = {
        "platform": platform.name,
        "mode": optimizer.mode,
        "horizon_s": optimizer.response.horizon,
        "t_max": platform.t_max,
        "f_max": platform.f_max,
        "p_max": platform.power.p_max,
        "sweep_strategy": strategy,
        "solver_gap_tol": barrier.gap_tol,
        "solver_newton_tol": newton.tol,
        "step_subsample": optimizer.response.step_subsample,
    }
    if provenance:
        metadata.update(provenance)
    return FrequencyTable(
        t_grid=list(t_grid),
        f_grid=list(f_grid),
        entries=entries,
        n_cores=platform.n_cores,
        metadata=metadata,
    )
