"""Layered benchmark harness for the Pro-Temp reproduction.

``perfbench/run.py`` is the entry point; this package holds its parts:

* :mod:`harness.stats` — percentiles, the tail rule, failure tallies and
  the provenance fingerprint;
* :mod:`harness.tracing` — in-memory spans with parents and self time;
* :mod:`harness.layers` — the wrappers that time each layer's public call
  and the per-layer metrics derived from their spans;
* :mod:`harness.oracle` — the reference stepwise engine and the row/table
  comparisons every workload checks its outputs with;
* :mod:`harness.workloads` — the four workloads;
* ``harness/serve_launcher.py`` — starts ``protemp serve`` with the layer
  wrappers installed, for the traced ``service-mix`` run.
"""
