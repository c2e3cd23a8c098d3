"""Benchmark of the rbgroups command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of CLI jobs.  The benchmark is a closed loop
with one client: every job runs in a fresh child process, and the next job
starts only after the previous one has exited.  A pass runs the list once.

--trace 0 runs a warm-up pass and then timed passes, about S seconds in all
(at least two timed), and reports the end-to-end metrics: the pass time
(each job's median, summed), the set-up time (the median time of a fresh
``import rbgroups.cli``), and the largest child resident set.  Times are
scaled to a reference speed with perfbench/reference.py, which runs next to
every job (see plain_metrics).

--trace 1 runs a warm-up pass, one plain pass, one pass under the span
tracer (perfbench/tracer.py), one pass that counts kernel calls, and the
permutation-kernel microbenchmark, and reports the per-layer metrics,
unscaled.

Every job's exit code and stdout are checked against golden.json (only the
printed ``seed=`` field is normalised).  The seed reaches the program only as
``--seed`` on the sampled commands, and seeds the microbenchmark's inputs.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
REFERENCE = os.path.join(HERE, "reference.py")

JOB_TIMEOUT_S = 60
RUN_BUDGET_S = 150       # stop starting measured passes after this
MIN_PASSES = 2
SETUP_PER_PASS = 3
# The reference job's time on the machine the benchmark was written on, at a
# quiet moment.  End-to-end times are reported at this speed (see
# plain_metrics).
REFERENCE_S = 0.20
COMMANDS = ("classify", "enumerate", "construct", "verify", "descendent",
            "build-an", "sharply2")

# A job is a CLI argument string.  "{seed}" is replaced by a seed drawn from
# the workload seed; "@name" is a file in the run's work directory, and a
# job with "> name" after it saves its stdout there.  Why each list exists
# is written down in perfbench/NOTES.md.
WORKLOADS = {
    "search": {
        "degree": 12,
        "jobs": [
            "classify D:16",
            "classify --family quaternion --n-from 2 --n-to 6",
            "enumerate A:4 --up-to-equivalence",
            "enumerate D:16",
        ],
    },
    "tables": {
        "degree": 72,
        "jobs": [
            "construct --example d2n_klein(72) --dump > d72.txt",
            "verify @d72.txt",
            "descendent --file @d72.txt",
            "construct --example q60 --dump > q60.txt",
            "verify @q60.txt",
            "descendent --file @q60.txt",
        ],
    },
    "an": {
        "degree": 9,
        "jobs": [
            "--seed {seed} build-an --n 9 --variant S1 --verify-samples 30000",
            "descendent --n 9",
            "sharply2 --m 2 --q 7 --t 1",
        ],
    },
}


@dataclass
class Job:
    key: str            # the job as written in WORKLOADS; keys golden.json
    args: list[str]
    save: str | None
    command: str


def make_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for key in WORKLOADS[workload]["jobs"]:
        text, _, save = key.partition(" > ")
        args = []
        for tok in text.split():
            if tok == "{seed}":
                tok = str(rng.randrange(1, 2**31))
            elif tok.startswith("@"):
                tok = os.path.join(workdir, tok[1:])
            args.append(tok)
        command = next(a for a in args if a in COMMANDS)
        jobs.append(Job(key, args, save or None, command))
    return jobs


# -- child processes ---------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class Exit:
    rc: int | None      # None when the child was killed at the timeout
    seconds: float      # spawn to exit
    maxrss_kb: int


def spawn(argv: list[str], stdout_path: str) -> Exit:
    """Run argv to completion; time it from spawn to exit and read its
    resource usage from wait4."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                stdin=subprocess.DEVNULL, cwd=ROOT, env=child_env())
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(JOB_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted (SIGTERM, Ctrl-C): leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(None if killed.is_set() else proc.returncode, seconds, usage.ru_maxrss)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "rbgroups.cli", *args]


def traced_argv(mode: str, trace_path: str, args: list[str]) -> list[str]:
    return [sys.executable, os.path.join(HERE, "traced_cli.py"), mode, trace_path, "--", *args]


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(re.sub(rb"seed=\S+", b"seed=*", data)).hexdigest()


# -- passes ------------------------------------------------------------------


@dataclass
class Pass:
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    maxrss_kb: int = 0
    job_s: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)    # reference job around the jobs
    command_s: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def run_pass(jobs: list[Job], workdir: str, golden: dict, mode: str = "plain",
             scaled: bool = False) -> Pass:
    """Run every job once, in order.  mode: plain, spans or count.  When
    scaled, the reference job also runs before the first job and after each
    job (`ref_s` has one entry more than `job_s`)."""
    result = Pass()
    t0 = time.perf_counter()
    if scaled:
        result.ref_s.append(reference_seconds(workdir))
    for i, job in enumerate(jobs):
        out = os.path.join(workdir, f"job{i}.out")
        trace_path = os.path.join(workdir, f"job{i}.trace.json")
        if mode == "plain":
            argv = cli_argv(job.args)
        else:
            argv = traced_argv(mode, trace_path, job.args)
        ex = spawn(argv, out)
        result.attempted += 1
        result.maxrss_kb = max(result.maxrss_kb, ex.maxrss_kb)
        result.job_s.append(ex.seconds)
        result.command_s[job.command] = result.command_s.get(job.command, 0.0) + ex.seconds
        want = golden.get(job.key)
        problem = None
        if ex.rc is None:
            problem = "timeout"
        elif want is None:
            problem = "no golden output"
        elif ex.rc != want["rc"]:
            problem = f"exit code {ex.rc}, want {want['rc']}"
        elif digest(out) != want["sha256"]:
            problem = "stdout differs from golden"
        elif mode != "plain":
            with open(trace_path) as fh:
                trace = json.load(fh)
            if mode == "spans":
                problem = check_layers_add_up(trace)
            result.traces.append(trace)
        if problem:
            result.failed += 1
            result.problems.append(f"{job.key}: {problem}")
        if job.save:
            shutil.copyfile(out, os.path.join(workdir, job.save))
        if scaled:
            result.ref_s.append(reference_seconds(workdir))
    result.wall = time.perf_counter() - t0
    return result


def check_layers_add_up(trace: dict) -> str | None:
    """Layer self times must account for the traced job time."""
    total = sum(trace["layers"].values())
    if abs(total - trace["job_s"]) > 0.01 * trace["job_s"] + 1e-3:
        return f"layer self times sum to {total:.4f} s, job took {trace['job_s']:.4f} s"
    return None


def reference_seconds(workdir: str) -> float:
    """Spawn-to-exit time of the reference job (perfbench/reference.py)."""
    ex = spawn([sys.executable, REFERENCE], os.path.join(workdir, "reference.out"))
    if ex.rc != 0:
        raise SystemExit("benchmark: the reference job failed")
    return ex.seconds


def setup_times(workdir: str, repeats: int) -> list[float]:
    """Spawn-to-exit times of a fresh ``import rbgroups.cli``."""
    out = os.path.join(workdir, "setup.out")
    times = []
    for _ in range(repeats):
        ex = spawn([sys.executable, "-c", "import rbgroups.cli"], out)
        if ex.rc != 0:
            raise SystemExit("benchmark: `import rbgroups.cli` failed")
        times.append(ex.seconds)
    return times


def check_source(workdir: str) -> None:
    """The children must import rbgroups from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "rbgroups", "cli.py")):
        raise SystemExit(f"benchmark: no rbgroups sources under {SRC}")
    out = os.path.join(workdir, "where.out")
    ex = spawn([sys.executable, "-c", "import rbgroups; print(rbgroups.__file__)"], out)
    with open(out) as fh:
        where = fh.read().strip()
    if ex.rc != 0 or not os.path.abspath(where).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: rbgroups imports from {where!r}, not {SRC}")


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


# -- metrics -----------------------------------------------------------------


def pass_time(passes: list[Pass], scaled: bool) -> float:
    """Each job's median time over `passes`, summed, so a slow spell that
    hits one job in one pass does not move the figure.  Scaled, a job's time
    is multiplied by REFERENCE_S over the mean of the reference runs just
    before and just after it."""
    total = 0.0
    for i in range(len(passes[0].job_s)):
        total += statistics.median(
            p.job_s[i] * (REFERENCE_S * 2 / (p.ref_s[i] + p.ref_s[i + 1]) if scaled else 1)
            for p in passes)
    return total


def plain_metrics(jobs, workdir, golden, seconds, t_start) -> tuple[dict, list[Pass]]:
    """A warm-up pass, then timed passes while the next one is predicted to
    end within `seconds` of the first (at least MIN_PASSES timed).

    The speed of the host this runs on changes by tens of percent within a
    minute, and the CPU time of a job changes with it.  So every time is
    scaled to the reference speed: it is multiplied by REFERENCE_S over the
    mean time of the reference job run just before and just after it.  A
    change to rbgroups does not change the reference job.  Set-up spawns run
    before every pass, so their samples are spread over the run."""
    setup: list[float] = []
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while True:
        before = reference_seconds(workdir)
        times = setup_times(workdir, SETUP_PER_PASS)
        p = run_pass(jobs, workdir, golden, scaled=True)
        setup += [t * REFERENCE_S * 2 / (before + p.ref_s[0]) for t in times]
        passes.append(p)
        if len(passes) > MIN_PASSES and (
            time.perf_counter() - t0 + p.wall > seconds
            or time.perf_counter() - t_start + p.wall > RUN_BUDGET_S
        ):
            break
    timed = passes[1:]

    print(json.dumps({"unscaled": {
        "wall_s": pass_time(timed, scaled=False),
        "reference_s": statistics.median(r for p in timed for r in p.ref_s),
    }}), flush=True)
    metrics = {
        "wall_s": (pass_time(timed, scaled=True), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(p.maxrss_kb for p in timed) / 1024, "MB"),
    }
    return metrics, passes


# Spans whose own self time is reported, besides each layer's.
SELF_SPANS = (
    "classify.enumerate_rb", "classify.equivalence_classes",
    "perm.automorphism_group", "perm.closure",
    "rbop.verify", "rbop.images", "rbop.descendent_group",
    "transitive.build_an_operator", "transitive.verify_an_operator",
    "transitive.descendent_structure", "transitive.sharply2",
)


def _sum(dicts) -> dict:
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


def layer_metrics(jobs, workdir, golden, degree, seed) -> tuple[dict, list[Pass]]:
    warm = run_pass(jobs, workdir, golden)
    plain = run_pass(jobs, workdir, golden)
    traced = run_pass(jobs, workdir, golden, mode="spans")
    counted = run_pass(jobs, workdir, golden, mode="count")
    kernel, kernel_pass = microbench(degree, seed, workdir)

    layers = _sum(t["layers"] for t in traced.traces)
    measures = _sum(t["measures"] for t in traced.traces)
    counts = _sum(t["counts"] for t in counted.traces)
    spans = {name: _sum(t["spans"].get(name, {}) for t in traced.traces)
             for name in SELF_SPANS + ("labels.iso_label",)}

    m = {f"{x}.self_s": (layers.get(x, 0.0), "s") for x in tracer.MODULES}
    m.update({f"{x}.self_s": (spans[x].get("self_s", 0.0), "s") for x in SELF_SPANS})
    m.update({k: (measures.get(k, 0), "B" if k == "serialize.bytes" else "count")
              for k, _ in tracer.MEASURES.values()})
    for x in ("rbop.verify", "transitive.verify_an_operator"):
        total = spans[x].get("total_s", 0.0)
        m[f"{x}.pairs_per_s"] = (measures.get(f"{x}.pairs", 0) / total if total else 0.0, "1/s")
    m["labels.iso_label.total_s"] = (spans["labels.iso_label"].get("total_s", 0.0), "s")
    m["labels.iso_label.calls"] = (spans["labels.iso_label"].get("calls", 0), "count")
    for k in ("mul", "inverse"):
        m[f"perm.{k}.calls"] = (counts.get(f"perm.{k}", 0), "count")
    for k in ("mul", "inverse", "hash"):
        m[f"perm.{k}_ns"] = (kernel[f"{k}_ns"], "ns")
    m["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    for cmd in COMMANDS:
        m[f"cmd.{cmd.replace('-', '_')}_s"] = (plain.command_s.get(cmd, 0.0), "s")
    return m, [warm, plain, traced, counted, kernel_pass]


def microbench(degree: int, seed: int, workdir: str) -> tuple[dict, Pass]:
    out = os.path.join(workdir, "kernel.out")
    ex = spawn([sys.executable, os.path.join(HERE, "kernel.py"),
                "--degree", str(degree), "--seed", str(seed)], out)
    result = Pass(attempted=1)
    if ex.rc != 0:
        result.failed = 1
        result.problems.append(f"kernel microbenchmark exited with {ex.rc}")
        return {"mul_ns": 0.0, "inverse_ns": 0.0, "hash_ns": 0.0}, result
    with open(out) as fh:
        kernel = json.loads(fh.read())
    if kernel["mismatches"]:
        result.failed = 1
        result.problems.append(
            f"kernel: {kernel['mismatches']} of {kernel['checked']} results differ "
            "from the tuple reference")
    return kernel, result


def declared_metrics(trace: int) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rbgroups CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and the
    # work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(GOLDEN):
        raise SystemExit(f"benchmark: missing {GOLDEN}")
    with open(GOLDEN) as fh:
        golden = json.load(fh)[args.workload]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        check_source(workdir)
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "machine": machine_record()}), flush=True)
        jobs = make_jobs(args.workload, args.seed, workdir)
        if args.trace:
            metrics, passes = layer_metrics(
                jobs, workdir, golden, WORKLOADS[args.workload]["degree"], args.seed)
        else:
            metrics, passes = plain_metrics(jobs, workdir, golden, args.seconds, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = declared_metrics(args.trace)
    if set(metrics) != declared:
        raise SystemExit(f"benchmark: metrics {sorted(set(metrics) ^ declared)} "
                         "do not match BENCHMARK.json")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for problem in p.problems:
            print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
