"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import kernel  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from rbgroups import build, cli, rbop  # noqa: E402
from rbgroups.perm import Perm  # noqa: E402


def _traced(fn):
    t = tracer.Tracer()
    t.install()
    try:
        ret = fn()
    finally:
        t.uninstall()
    return t, ret


def test_span_through_name_imported_alias():
    original = cli.verify
    B = build.catalog_operator("s3")
    # cli binds verify with `from .rbop import verify`; patching rbop alone
    # would leave this call untraced
    t, verdict = _traced(lambda: cli.verify(B))
    spans = t.summary()["spans"]
    assert verdict.ok
    assert spans["rbop.verify"]["calls"] == 1
    assert t.summary()["measures"]["rbop.verify.pairs"] == 36
    assert cli.verify is original and rbop.verify is original


def test_self_time_of_synthetic_nested_spans():
    # (name, parent, start, end, kernel_s)
    records = [
        ("cli.main", -1, 0.0, 10.0, 0.0),
        ("rbop.verify", 0, 1.0, 4.0, 0.5),
        ("perm.closure", 1, 2.0, 3.0, 0.0),
        ("rbop.verify", 0, 5.0, 9.0, 0.0),
        ("rbop.verify", 3, 6.0, 7.0, 0.0),  # recursion: not counted twice
    ]
    assert tracer.self_times(records) == [3.0, 1.5, 1.0, 3.0, 1.0]
    s = tracer.summarize(records, kernel_top=0.25)
    assert s["spans"]["rbop.verify"] == {"calls": 3, "total_s": 7.0, "self_s": 5.5}
    assert s["layers"] == {"cli": 3.0, "rbop": 5.5, "perm": 1.0 + 0.5 + 0.25}
    assert sum(s["layers"].values()) == s["top_s"] == 10.25


def test_layers_add_up_to_traced_job_and_stdout_is_unchanged():
    argv = ["construct", "--example", "d16", "--dump"]
    plain = io.StringIO()
    assert cli.main(argv, out=plain) == 0
    traced = io.StringIO()
    t, rc = _traced(lambda: cli.main(argv, out=traced))
    assert rc == 0 and traced.getvalue() == plain.getvalue()
    s = t.summary()
    root = [r for r in t.records() if r[1] < 0]
    assert [r[0] for r in root] == ["cli.main"]
    job_s = root[0][3] - root[0][2]
    assert abs(sum(s["layers"].values()) - job_s) < 1e-6
    assert run.check_layers_add_up({"layers": s["layers"], "job_s": job_s}) is None
    assert s["layers"]["perm"] > 0 and s["layers"]["cli"] > 0
    # the dump is counted once, not again for the group block inside it
    assert s["measures"]["serialize.bytes"] == len(traced.getvalue().split("operator:")[0])


def test_counter_counts_kernel_calls_only():
    p = Perm([1, 2, 0])
    c = tracer.Counter()
    c.install()
    try:
        p * p * p
        p.inverse()
        p.order()
    finally:
        c.uninstall()
    # order() of a 3-cycle takes two products
    assert c.counts == {"perm.mul": 4, "perm.inverse": 1}
    assert "wrapper" not in Perm.__mul__.__qualname__


def test_kernel_microbenchmark_checks_results():
    result = kernel.run(degree=7, seed=3)
    assert result["mismatches"] == 0 and result["checked"] == 3 * kernel.POOL
    assert result["mul_ns"] > 0 and result["hash_ns"] > 0


def test_seed_reaches_only_sampled_commands(tmp_path):
    for name, spec in run.WORKLOADS.items():
        a = run.make_jobs(name, 1, str(tmp_path))
        b = run.make_jobs(name, 1, str(tmp_path))
        c = run.make_jobs(name, 2, str(tmp_path))
        assert [j.args for j in a] == [j.args for j in b]
        for ja, jc in zip(a, c):
            diff = [i for i, (x, y) in enumerate(zip(ja.args, jc.args)) if x != y]
            assert all(ja.args[i - 1] == "--seed" for i in diff)
        assert len(a) == len(spec["jobs"])


def test_pass_time_scales_each_job_by_the_reference_runs_around_it():
    passes = [
        run.Pass(job_s=[1.0, 2.0], ref_s=[0.2, 0.2, 0.4]),
        run.Pass(job_s=[3.0, 2.0], ref_s=[0.2, 0.2, 0.2]),
        run.Pass(job_s=[1.0, 6.0], ref_s=[0.1, 0.1, 0.1]),
    ]
    assert run.REFERENCE_S == 0.20
    assert run.pass_time(passes, scaled=False) == 1.0 + 2.0
    # job 0 scaled: 1.0, 3.0, 2.0 -> 2.0; job 1: 4/3, 2.0, 12.0 -> 2.0
    assert abs(run.pass_time(passes, scaled=True) - 4.0) < 1e-12


def test_wrong_stdout_or_exit_code_counts_as_failed(tmp_path):
    job = run.Job(key="admissible --n 10", args=["admissible", "--n", "10"],
                  save=None, command="admissible")
    out = tmp_path / "ref.out"
    out.write_bytes(b"yes case=b q=3 m=2 s=1\n")
    right = {"rc": 0, "sha256": run.digest(str(out))}
    ok = run.run_pass([job], str(tmp_path), {job.key: right})
    assert (ok.attempted, ok.failed) == (1, 0)
    for wrong in ({"rc": 1, "sha256": right["sha256"]}, {"rc": 0, "sha256": "0" * 64}):
        bad = run.run_pass([job], str(tmp_path), {job.key: wrong})
        assert (bad.attempted, bad.failed) == (1, 1)
