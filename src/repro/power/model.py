"""Platform power model: core frequencies -> per-node power injection.

The paper's platform facts (section 5): each of the 8 Niagara cores burns
4 W at its 1 GHz maximum, and "the power consumption of the other cores on
the system is around 30% of the power consumption of the processing cores".

This module maps a vector of core frequencies (plus busy/idle state) to the
power injected into every thermal node:

* busy core i:  ``p_i = p_max (f_i / f_max)^2``  (Eq. 2),
* idle core i:  ``idle_fraction * p_i`` (clock/static floor),
* non-core blocks: ``other_power_ratio`` times the instantaneous total core
  power, distributed over the non-core blocks proportionally to area.

Crucially, the mapping is **affine in the core power vector**, so the convex
optimizer can account for non-core heating exactly: see
:meth:`PlatformPowerModel.injection_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import PowerModelError
from repro.floorplan.floorplan import Floorplan
from repro.power.dvfs import QuadraticScaling
from repro.power.leakage import LeakageModel
from repro.units import ghz


@dataclass
class PlatformPowerModel:
    """Power model for a multi-core floorplan.

    Attributes:
        floorplan: the platform floorplan (defines node order).
        scaling: per-core frequency-to-power law (shared by all cores,
            as on Niagara where all cores are identical).
        other_power_ratio: non-core aggregate power as a fraction of the
            instantaneous aggregate core power (paper: ~0.3).
        idle_fraction: fraction of the frequency-determined power a core
            burns while idle at that frequency setting.
        leakage: optional temperature-dependent leakage added *per core
            node* by the simulator (extension; None disables it).
    """

    floorplan: Floorplan
    scaling: QuadraticScaling = field(
        default_factory=lambda: QuadraticScaling(f_max=ghz(1.0), p_max=4.0)
    )
    other_power_ratio: float = 0.3
    idle_fraction: float = 0.1
    leakage: LeakageModel | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.other_power_ratio:
            raise PowerModelError("other_power_ratio must be >= 0")
        if not 0 <= self.idle_fraction <= 1:
            raise PowerModelError("idle_fraction must lie in [0, 1]")
        if self.floorplan.n_cores == 0:
            raise PowerModelError("floorplan has no CORE blocks")
        self._core_indices = np.array(self.floorplan.core_indices)
        cores = set(self.floorplan.core_indices)
        noncore = [i for i in range(len(self.floorplan)) if i not in cores]
        self._noncore_indices = np.array(noncore, dtype=int)
        if len(noncore) > 0:
            areas = np.array(
                [self.floorplan.blocks[i].area for i in noncore]
            )
            self._noncore_share = areas / areas.sum()
        else:
            self._noncore_share = np.zeros(0)

    # -- sizes -----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of thermal nodes (floorplan blocks)."""
        return len(self.floorplan)

    @property
    def n_cores(self) -> int:
        """Number of controllable cores."""
        return len(self._core_indices)

    @property
    def f_max(self) -> float:
        """Core maximum frequency (Hz)."""
        return self.scaling.f_max

    @property
    def p_max(self) -> float:
        """Core power at `f_max` (W)."""
        return self.scaling.p_max

    # -- power evaluation ---------------------------------------------------

    def core_power(
        self,
        frequencies: np.ndarray,
        busy: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-core power for the given frequencies.

        Args:
            frequencies: shape (n_cores,), Hz.
            busy: optional boolean mask, shape (n_cores,); idle cores burn
                `idle_fraction` of the frequency-determined power.  None
                means all busy.

        Returns:
            Core power vector, shape (n_cores,), W.
        """
        freqs = np.asarray(frequencies, dtype=float)
        if freqs.shape != (self.n_cores,):
            raise PowerModelError(
                f"frequencies must have shape ({self.n_cores},)"
            )
        power = np.asarray(self.scaling.power(freqs), dtype=float)
        if busy is not None:
            busy = np.asarray(busy, dtype=bool)
            if busy.shape != (self.n_cores,):
                raise PowerModelError(f"busy must have shape ({self.n_cores},)")
            power = np.where(busy, power, self.idle_fraction * power)
        return power

    def node_power_from_core_power(self, core_power: np.ndarray) -> np.ndarray:
        """Distribute core powers onto all thermal nodes.

        Non-core blocks receive ``other_power_ratio * sum(core_power)``
        split by area.

        Args:
            core_power: shape (n_cores,), W.

        Returns:
            Node power vector, shape (n_nodes,), W.
        """
        core_power = np.asarray(core_power, dtype=float)
        if core_power.shape != (self.n_cores,):
            raise PowerModelError(
                f"core_power must have shape ({self.n_cores},)"
            )
        node_power = np.zeros(self.n_nodes)
        node_power[self._core_indices] = core_power
        if len(self._noncore_indices) > 0:
            total_other = self.other_power_ratio * core_power.sum()
            node_power[self._noncore_indices] = (
                total_other * self._noncore_share
            )
        return node_power

    def node_power(
        self,
        frequencies: np.ndarray,
        busy: np.ndarray | None = None,
        temperatures: np.ndarray | None = None,
    ) -> np.ndarray:
        """Full node power vector for given core frequencies.

        Args:
            frequencies: per-core frequencies, shape (n_cores,).
            busy: optional busy mask (see :meth:`core_power`).
            temperatures: optional per-node temperatures; when the model has
                a leakage component, core nodes additionally burn
                ``leakage.power(T)``.

        Returns:
            Node power vector, shape (n_nodes,), W.
        """
        node_power = self.node_power_from_core_power(
            self.core_power(frequencies, busy)
        )
        if self.leakage is not None and temperatures is not None:
            temps = np.asarray(temperatures, dtype=float)
            if temps.shape != (self.n_nodes,):
                raise PowerModelError(
                    f"temperatures must have shape ({self.n_nodes},)"
                )
            node_power[self._core_indices] += self.leakage.power(
                temps[self._core_indices]
            )
        return node_power

    # -- affine structure for the optimizer -----------------------------------

    def injection_matrix(self) -> np.ndarray:
        """Matrix ``E`` with ``node_power = E @ core_power``.

        Shape (n_nodes, n_cores).  Core rows are unit vectors; each non-core
        row is ``other_power_ratio * area_share * 1^T``.  The Pro-Temp
        formulation composes this with the thermal response so the
        optimization accounts for non-core heating exactly (it stays linear
        in the core power variables).
        """
        e = np.zeros((self.n_nodes, self.n_cores))
        for col, node in enumerate(self._core_indices):
            e[node, col] = 1.0
        for row, node in enumerate(self._noncore_indices):
            e[node, :] = self.other_power_ratio * self._noncore_share[row]
        return e

    def max_node_power(self) -> np.ndarray:
        """Node power when every core runs busy at `f_max` (worst case)."""
        freqs = np.full(self.n_cores, self.f_max)
        return self.node_power(freqs)
