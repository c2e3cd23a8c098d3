"""Record golden.json: each job's exit code and normalised stdout digest.

    python3 perfbench/record_golden.py

Run it at a commit whose outputs are known to be right; the benchmark then
counts any job whose exit code or stdout differs as failed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def main() -> int:
    golden = {}
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        for name in run.WORKLOADS:
            golden[name] = {}
            for i, job in enumerate(run.make_jobs(name, 0, workdir)):
                out = os.path.join(workdir, f"job{i}.out")
                ex = run.spawn(run.cli_argv(job.args), out)
                if ex.rc is None:
                    raise SystemExit(f"{job.key}: timed out")
                golden[name][job.key] = {"rc": ex.rc, "sha256": run.digest(out)}
                if job.save:
                    shutil.copyfile(out, os.path.join(workdir, job.save))
                print(f"{name}: {job.key}: rc={ex.rc} {ex.seconds:.2f}s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
