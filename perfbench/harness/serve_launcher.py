"""Start ``protemp serve``, optionally with the layer wrappers installed.

Usage (from a checkout root)::

    python3 perfbench/harness/serve_launcher.py [--cpus 1,2] [--trace-out SPANS.json] serve ARGS...

Everything after the launcher's own options goes to the ``protemp`` CLI
unchanged.  ``--cpus`` pins the server (and so every thread it starts)
to those CPUs.  With ``--trace-out``, every layer call the server makes
is recorded as a span and the spans are written to the file once the
server has drained (on SIGTERM).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--cpus"]:
        os.sched_setaffinity(0, {int(cpu) for cpu in argv[1].split(",")})
        argv = argv[2:]
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    sys.path.insert(0, str(HERE.parent))
    from repro.cli import main as cli_main

    if trace_out is None:
        return cli_main(argv)

    from harness.layers import installed
    from harness.tracing import Tracer

    tracer = Tracer()
    with installed(tracer):
        code = cli_main(argv)
    trace_out.write_text(json.dumps(tracer.export()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
