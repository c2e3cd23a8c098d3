import io
import os
import subprocess
import sys
from types import SimpleNamespace

from rbgroups import cli
from rbgroups.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_classify_d6():
    code, text = run(["classify", "D:6"])
    assert code == 0
    assert "non_splitting: 0" in text


def test_enumerate_s3_up_to_equivalence():
    code, text = run(["enumerate", "S:3", "--up-to-equivalence"])
    assert code == 0
    assert "splitting=yes" in text
    assert "splitting=no" not in text


def test_admissible_lines():
    code, text = run(["admissible", "--n", "10"])
    assert code == 0
    assert "yes case=b q=3 m=2 s=1" in text
    code, text = run(["admissible", "--n", "11"])
    assert code == 0
    assert text.strip() == "no"


def test_construct_example_verifies():
    code, text = run(["construct", "--example", "s3"])
    assert code == 0
    assert "verify: pass" in text


def test_dump_roundtrips_through_verify(tmp_path):
    code, text = run(["construct", "--example", "q60", "--dump"])
    assert code == 0
    path = tmp_path / "q60.op"
    block = text[: text.index("operator:")]
    path.write_text(block)
    code2, text2 = run(["verify", str(path)])
    assert code2 == 0
    assert "verify: pass" in text2


def test_descendent_example():
    code, text = run(["descendent", "--example", "s3"])
    assert code == 0
    assert "Z6" in text


def test_descendent_n_passes_the_seed(monkeypatch):
    seeds = []

    def fake(B, seed):
        seeds.append(seed)
        return SimpleNamespace(ok=True, s_pairs=0, k_samples=0, twist_samples=0)

    monkeypatch.setattr(cli, "build_an_operator", lambda n: None)
    monkeypatch.setattr(cli, "descendent_structure", fake)
    assert run(["--seed", "3", "descendent", "--n", "9"])[0] == 0
    assert seeds == [3]


def test_determinism():
    a = run(["enumerate", "D:8", "--up-to-equivalence"])
    b = run(["enumerate", "D:8", "--up-to-equivalence"])
    assert a == b
    c = run(["sharply2", "--m", "2", "--q", "3", "--t", "1", "--dump"])
    d = run(["sharply2", "--m", "2", "--q", "3", "--t", "1", "--dump"])
    assert c == d


def test_stdout_does_not_depend_on_hash_seed():
    """Perm hashes are salted per process, so only a fresh process per
    PYTHONHASHSEED can catch set-iteration order leaking into stdout."""
    pythonpath = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    for argv in (
        ["enumerate", "A:4", "--up-to-equivalence"],
        ["construct", "--example", "q60", "--dump"],
    ):
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
            proc = subprocess.run(
                [sys.executable, "-m", "rbgroups.cli", *argv],
                env=env, capture_output=True, check=True,
            )
            outs.append(proc.stdout)
        assert outs[0] and outs[0] == outs[1], argv


def test_threads_flag_does_not_change_bytes():
    a = run(["--threads", "1", "classify", "D:8"])
    b = run(["--threads", "4", "classify", "D:8"])
    assert a == b


def test_usage_errors_exit_64():
    for argv in (["frobnicate"], ["classify", "--no-such-flag", "D:6"], []):
        code, _ = run(argv)
        assert code == 64


def test_precondition_errors_exit_1():
    for argv in (
        ["sharply2", "--m", "3", "--q", "3", "--t", "1"],
        ["build-an", "--n", "25"],
        ["construct", "--example", "nope"],
        ["classify", "D:7"],
    ):
        code, _ = run(argv)
        assert code == 1


def test_verification_failure_exits_2(tmp_path):
    # corrupt a serialized operator table: swap two image indices
    code, text = run(["construct", "--example", "s3", "--dump"])
    block = text[: text.index("operator:")]
    lines = block.splitlines()
    for pos, line in enumerate(lines):
        if line.startswith("op:"):
            idx = line.split()[1:]
            j = next(k for k in range(1, len(idx)) if idx[k] != idx[0])
            idx[0], idx[j] = idx[j], idx[0]
            lines[pos] = "op: " + " ".join(idx)
    path = tmp_path / "bad.op"
    path.write_text("\n".join(lines) + "\n")
    code2, text2 = run(["verify", str(path)])
    assert code2 == 2
    assert "fail" in text2
