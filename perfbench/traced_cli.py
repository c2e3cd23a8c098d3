"""Run one rbgroups CLI command under the span tracer or the kernel counter.

    python3 perfbench/traced_cli.py {spans|count} TRACE_JSON -- CLI_ARGS...

stdout and the exit code are the command's own.  The trace summary is
written to TRACE_JSON when the command ends.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import tracer  # noqa: E402
from rbgroups import cli  # noqa: E402


def main(argv: list[str]) -> int:
    mode, out_path, sep, *cli_args = argv
    if sep != "--" or mode not in ("spans", "count"):
        raise SystemExit("usage: traced_cli.py {spans|count} TRACE_JSON -- CLI_ARGS...")
    t = tracer.Tracer() if mode == "spans" else tracer.Counter()
    t.install()
    t0 = time.perf_counter()
    try:
        rc = cli.main(cli_args)
    finally:
        wall = time.perf_counter() - t0
        t.uninstall()
        sys.stdout.flush()
    result = t.summary() if mode == "spans" else {"counts": t.counts}
    result["job_s"] = wall
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
