"""Phase 1 end-to-end: build, inspect and persist a frequency table.

This is the paper's Figure 3 design-time flow: sweep starting temperatures
and target frequencies, solve the convex program at each point, and store
the resulting per-core frequency vectors (Figure 4) for the run-time
controller.

Run:  python examples/design_time_table.py [out.json]
"""

import sys
import time
from pathlib import Path

from repro import Platform
from repro.core import ProTempOptimizer, build_frequency_table
from repro.units import mhz, to_mhz


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "examples/.cache/table.json"
    platform = Platform.niagara8()
    optimizer = ProTempOptimizer(platform, step_subsample=5)

    t_grid = [60.0, 70.0, 80.0, 85.0, 90.0, 95.0, 97.5, 100.0]
    f_grid = [mhz(f) for f in range(100, 1001, 100)]

    def progress(done: int, total: int) -> None:
        if done % 20 == 0 or done == total:
            print(f"  {done}/{total} design points solved")

    start = time.time()
    table = build_frequency_table(
        optimizer, t_grid, f_grid, progress=progress
    )
    elapsed = time.time() - start
    print(f"Phase 1 finished in {elapsed:.1f}s "
          f"({len(t_grid) * len(f_grid)} design points)")
    print()

    # The feasibility boundary per row (the paper's Figure 9 y-values).
    print("max feasible average frequency per starting temperature:")
    for t in t_grid:
        f = table.max_feasible_target(t)
        print(f"  start {t:6.1f} C -> {to_mhz(f):6.0f} MHz")
    print()

    # A slice of the table around the interesting region.
    lookup = table.lookup(93.0, mhz(800))
    print(
        f"lookup(93 C, 800 MHz) -> serves {to_mhz(lookup.satisfied_target):.0f} MHz: "
        f"{[f'{to_mhz(f):.0f}' for f in lookup.frequencies]}"
    )

    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    table.save_json(out_path)
    print(f"table written to {out_path}")


if __name__ == "__main__":
    main()
