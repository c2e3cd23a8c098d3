import gc
import hashlib
import io
import os
import random
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from rbgroups import classify, cli, transitive
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

    monkeypatch.setattr(transitive, "build_an_operator", lambda n: None)
    monkeypatch.setattr(transitive, "descendent_structure", fake)
    assert run(["--seed", "3", "descendent", "--n", "9"])[0] == 0
    assert seeds == [3]


def test_descendent_counts_n_0_as_given(tmp_path, capsys):
    """--n 0 is an option given, not one left out: next to --file it is a
    usage error, and alone it is the build-an precondition error."""
    path = tmp_path / "s3.op"
    path.write_text(run(["construct", "--example", "s3", "--dump"])[1].split("operator:")[0])
    assert run(["descendent", "--file", str(path), "--n", "0"]) == (64, "")
    capsys.readouterr()
    assert run(["descendent", "--n", "0"]) == (1, "")
    assert run(["build-an", "--n", "0"]) == (1, "")
    err = capsys.readouterr().err.splitlines()
    assert err[0] == err[1] and "admissibility is defined for n >= 5" in err[0]


def test_parser_defaults_are_the_library_defaults():
    args = cli._build_parser().parse_args(["classify", "D:8"])
    assert args.seed == transitive.DEFAULT_SEED
    assert args.max_order == classify.ENUMERATE_GUARANTEED
    args = cli._build_parser().parse_args(["build-an", "--n", "9"])
    assert args.verify_samples == transitive.DEFAULT_SAMPLES


def _modules_after(argv):
    """The rbgroups modules a fresh interpreter holds after importing the
    CLI and, unless argv is None, running one command in-process."""
    code = "import io, sys\nfrom rbgroups import cli\nrc = 0\n"
    if argv is not None:
        code += f"rc = cli.main({argv!r}, out=io.StringIO())\n"
    code += (
        "print(' '.join(m for m in sys.modules if m.startswith('rbgroups.')))\n"
        "sys.exit(rc)\n"
    )
    pythonpath = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True, text=True, check=True,
    )
    return {m.removeprefix("rbgroups.") for m in proc.stdout.split()}


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    dump = tmp_path / "d16.op"
    dump.write_text(run(["construct", "--example", "d16", "--dump"])[1].split("operator:")[0])
    for argv, loaded, absent in (
        (None, {"cli", "perm", "rbop"},
         {"classify", "transitive", "gf", "build", "serialize", "labels", "families"}),
        (["verify", str(dump)], {"serialize"},
         {"transitive", "gf", "classify", "build", "labels", "families"}),
        (["descendent", "--n", "9"], {"transitive", "gf", "build"},
         {"classify", "serialize", "labels"}),
        (["classify", "D:8"], {"classify", "build"}, {"transitive", "gf", "serialize"}),
        (["classify", "D:6"], {"classify"}, {"build", "transitive", "gf", "serialize"}),
        (["sharply2", "--m", "1", "--q", "5", "--t", "1"], {"transitive", "gf"},
         {"classify", "serialize"}),
    ):
        modules = _modules_after(argv)
        assert loaded <= modules and not absent & modules, (argv, sorted(modules))


def test_no_module_loads_dataclasses_or_inspect():
    """A fresh interpreter that imports the CLI and every rbgroups module
    holds neither dataclasses nor inspect (which dataclasses imports):
    no command needs them, and loading them cost each job about 14 ms."""
    names = sorted(
        f.removesuffix(".py") for f in os.listdir(os.path.join(SRC, "rbgroups"))
        if f.endswith(".py") and f != "__init__.py"
    )
    code = "import sys\nimport rbgroups.cli\n" + "".join(f"import rbgroups.{n}\n" for n in names)
    code += "print(' '.join(sys.modules))\n"
    pythonpath = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True, text=True, check=True,
    )
    loaded = set(proc.stdout.split())
    assert {f"rbgroups.{n}" for n in names} <= loaded and len(names) == 10
    assert "dataclasses" not in loaded and "inspect" not in loaded


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


def test_usage_errors_exit_64():
    for argv in (
        ["frobnicate"],
        ["classify", "--no-such-flag", "D:6"],
        [],
        ["--format", "records", "classify", "D:6"],
        ["--threads", "4", "classify", "D:8"],
        ["enumerate", "D:8", "--max-square-order", "64"],
    ):
        code, _ = run(argv)
        assert code == 64


def test_precondition_errors_exit_1():
    for argv in (
        ["sharply2", "--m", "3", "--q", "3", "--t", "1"],
        ["build-an", "--n", "25"],
        ["construct", "--example", "nope"],
        ["classify", "D:7"],
        ["sharply3", "--q", "25"],  # M(25) does not lie in A_26
    ):
        code, _ = run(argv)
        assert code == 1


def test_run_freezes_the_collector_and_main_does_not(monkeypatch, capsys):
    """run(), the process entry, freezes every tracked object once the
    command has returned, so the collections at interpreter exit skip
    them; main() leaves the collector as it found it."""
    assert gc.get_freeze_count() == 0
    assert main(["admissible", "--n", "10"], out=io.StringIO()) == 0
    assert gc.get_freeze_count() == 0
    monkeypatch.setattr(sys, "argv", ["rbgroups", "admissible", "--n", "10"])
    try:
        assert cli.run() == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out == "yes case=b q=3 m=2 s=1\n"


def test_module_entry_prints_and_exits_as_main(tmp_path):
    """python -m rbgroups.cli, which goes through run(), writes the stdout
    bytes and returns the exit code of main() in process, for one command
    per exit code."""
    pythonpath = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    for argv, want in (
        (["admissible", "--n", "10"], 0),
        (["classify", "D:7"], 1),
        (["verify", str(_corrupt_s3_dump(tmp_path))], 2),
        (["frobnicate"], 64),
    ):
        code, text = run(argv)
        proc = subprocess.run(
            [sys.executable, "-m", "rbgroups.cli", *argv],
            env=dict(os.environ, PYTHONPATH=pythonpath), capture_output=True,
        )
        assert code == want and (proc.returncode, proc.stdout) == (code, text.encode()), argv


CLASSIFY_A5 = """\
group: A5
operators: 62
splitting: 62
non_splitting: 0
classes: 2
class 0: size=2 splitting=yes R=Z1 kernels=A5,Z1 descendent=A5
class 1: size=60 splitting=yes R=Z1 kernels=A4,Z5 descendent=G[order=60,abelian=False,spectrum=1:1,2:3,3:8,5:4,10:12,15:32]
"""


def test_classify_a5_is_pinned():
    """The paper's boundary case: A5 is classified."""
    assert run(["classify", "A:5", "--max-order", "60"]) == (0, CLASSIFY_A5)


# sha256 of the stdout of classify.  D:48 and S:5 (--max-order 120) were
# recorded before equivalence_classes grew its orbits from generator moves;
# D:32 (--max-order 120) and the dihedral (n = 2..12) and quaternion
# (n = 2..6) families before classify read its report off the classes.
CLASSIFY_DIGESTS = {
    "D:48": "6eb428d552f55eb35ed07303a0074e321064dff88bf6deb3cee55450bb0e829e",
    "S:5": "b98b8efe7b78ec113b7cb35606933a766b4cc4a64325e5a09b99649f4d057d50",
    "D:32": "4c6ddd0a694e40bbdd0d0db9ef52e2734a7da6a92d2babfbe318b4f9c3f97ab1",
    "dihedral": "543413863bc9139afff9607cb0536cb342527811891c5f993690b2a3b069c416",
    "quaternion": "afdc1bb8a9a666fb98ba9f5d6c35f61b49e7273a992b4573c624e7f8f663e6bc",
}


def test_classify_d48_is_pinned():
    """About 0.5 s; it took 3.3 s with every automorphism and every
    conjugation as a move, and 0.8 s with the conformance flags read on
    every operator."""
    code, text = run(["classify", "D:48", "--max-order", "120"])
    assert (code, _sha(text)) == (0, CLASSIFY_DIGESTS["D:48"])


@pytest.mark.slow
def test_classify_s5_is_pinned():
    """Budget 10 s; 0.7 to 1.0 s measured, 7 s with every automorphism and
    every conjugation as a move."""
    start = time.perf_counter()
    code, text = run(["classify", "S:5", "--max-order", "120"])
    assert time.perf_counter() - start < 10
    assert (code, _sha(text)) == (0, CLASSIFY_DIGESTS["S:5"])


@pytest.mark.slow
def test_classify_d256_is_pinned():
    """Budget 10.2 s: twice the 5.1 s median of five spawned runs on a
    2-core machine.  The stdout was recorded when enumerate_rb grew each
    graph on the pair index of G x G, and a spawn took 8.4 to 11.5 s."""
    start = time.perf_counter()
    code, text = run(["classify", "D:256", "--max-order", "256"])
    assert time.perf_counter() - start < 10.2
    assert (code, _sha(text)) == (
        0, "03827846133927c48409b6f25ea11bc32ba258f6ac749a9e5240242e229c5386"
    )


def test_classify_d32_is_pinned():
    code, text = run(["classify", "D:32", "--max-order", "120"])
    assert (code, _sha(text)) == (0, CLASSIFY_DIGESTS["D:32"])


@pytest.mark.parametrize("family, n_to", [("dihedral", 12), ("quaternion", 6)])
def test_classify_family_is_pinned(family, n_to):
    """Every conformance flag of the family, on n = 2..n_to: the dihedral
    run covers the odd and the even flags on 11 groups."""
    code, text = run(["classify", "--family", family, "--n-from", "2", "--n-to", str(n_to)])
    assert (code, _sha(text)) == (0, CLASSIFY_DIGESTS[family])


def test_classify_d32_conforms():
    """--max-order is the one cap: classify reaches D32 (264 operators,
    10 classes), and every conformance flag is yes."""
    code, text = run(["classify", "D:32", "--max-order", "32"])
    flags = [line for line in text.splitlines() if line.startswith("conformant[")]
    assert code == 0 and "operators: 264" in text and "classes: 10" in text
    assert flags and all(line.endswith(": yes") for line in flags)


@pytest.mark.parametrize("op", ["0 -1 -2", "0 1 3"])
@pytest.mark.parametrize("command", [["verify"], ["descendent", "--file"]])
def test_op_index_outside_the_group_exits_1(tmp_path, capsys, command, op):
    """An op: index outside 0..|G|-1 is a format error: on Z3, 0 -1 -2 is
    not read as 0 2 1 (the operator g -> g^-1), and 3 is not an
    IndexError."""
    path = tmp_path / "bad.op"
    path.write_text(f"domain: 3\ngen: 1 2 0\nop: {op}\n")
    assert run(command + [str(path)]) == (1, "")
    assert "error: op line has an index outside 0..2" in capsys.readouterr().err


def test_proc_line_without_n_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.op"
    path.write_text("domain: 9\norder: 181440\ngen: 1 2 0 3 4 5 6 7 8\nproc: an variant=S1\n")
    assert run(["verify", str(path)]) == (1, "")
    assert "error: proc line needs n= and variant=" in capsys.readouterr().err


def test_order_line_exits_1_by_name(tmp_path, capsys):
    """A group block read from a file is enumerated, so an order: line is
    refused by name; the 3-cycle once parsed as a group of order 7."""
    path = tmp_path / "bad.op"
    path.write_text("domain: 3\norder: 7\ngen: 1 2 0\nop: 0 0 0\n")
    assert run(["verify", str(path)]) == (1, "")
    assert "'order: 7'" in capsys.readouterr().err


def test_negative_domain_exits_1(tmp_path, capsys):
    """verify once passed domain: -3 as a degree-0 group with exit 0."""
    path = tmp_path / "bad.op"
    path.write_text("domain: -3\nop: 0\n")
    assert run(["verify", str(path)]) == (1, "")
    assert "'domain: -3'" in capsys.readouterr().err


def test_negative_sample_count_exits_1(tmp_path, capsys):
    """A negative --verify-samples is an error, for build-an and for verify
    on a proc: or a table dump; it was subtracted from the exhaustive
    pairs, so build-an --n 9 --verify-samples -5 printed pairs=5179 and
    passed, and verify on a table dump ignored it and passed."""
    paths = []
    for name, argv in (("a9.op", ["build-an", "--n", "9", "--verify-samples", "0"]),
                       ("d16.op", ["construct", "--example", "d16"])):
        text = run(argv + ["--dump"])[1]
        paths.append(tmp_path / name)
        paths[-1].write_text(text[: text.index("operator:")])
    capsys.readouterr()
    for argv in (["build-an", "--n", "9"], *(["verify", str(p)] for p in paths)):
        assert run(argv + ["--verify-samples", "-5"]) == (1, ""), argv
        assert "error: sample count must be >= 0, got -5" in capsys.readouterr().err


def _corrupt_s3_dump(tmp_path):
    """A serialized s3 operator table with two image indices swapped."""
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
    return path


def test_verification_failure_exits_2(tmp_path):
    code2, text2 = run(["verify", str(_corrupt_s3_dump(tmp_path))])
    assert code2 == 2
    assert "fail" in text2


# sha256 of the stdout of each README CLI example (build-an with fewer
# samples), recorded before the index-2 construction was merged.
README_DIGESTS = {
    "classify D:16": "bef241a57def3b389d4ad70ba64ed227fb40104d5acaf5a0c61f5c42b2ff2d0b",
    "enumerate S:3 --up-to-equivalence": "f7f2ffa6c30860f063a88238836732bdfeca83afd199ea6cfa7001c8945dfd2f",
    "construct --example q60 --dump": "d985b71d7a0c1547abfa037d1fa28657d534b331961724cb713f20ae4f279ee6",
    "admissible --n 10": "5db9a12744deec58f86052d2163e2ea44204a1e30f31af942021cbc4d9bf82dd",
    "build-an --n 9 --variant S1 --verify-samples 2000 --dump": "78ffea76b3098c122f5ffd6341d2d250c6dd5e3cbe194e447bfd2144fe0d36b6",
    "sharply2 --m 2 --q 3 --t 1 --dump": "2b4c308b5d32eccb53a496fa9dc1f67e3552000ec3e4727e2903a356614f8e92",
    "sharply3 --q 9": "0269c069c3268dcd16f15c7301a77b154501f474e641d8dde8d1b8c3abcfbfe7",
    "descendent --example s3": "8e64e58fc5d1be3c9ebdea3e2a165cd825a5954ae3cc50095a390652cdcc47e2",
}

# the same for `verify` on the operator block each --dump printed
VERIFY_DIGESTS = {
    "construct --example q60 --dump": "bfb585f0db2413199310075f06938c4bcf3cffcf943c3d3382899064ba9e1f4a",
    "build-an --n 9 --variant S1 --verify-samples 2000 --dump": "4204eceaf404635bb52cead02dad16bc82a5d92e5891fcce6d477b6a2344acd1",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", list(README_DIGESTS))
def test_readme_output_is_pinned(command):
    code, text = run(command.split())
    assert (code, _sha(text)) == (0, README_DIGESTS[command])


@pytest.mark.parametrize("command", list(VERIFY_DIGESTS))
def test_readme_verify_output_is_pinned(command, tmp_path):
    text = run(command.split())[1]
    path = tmp_path / "operator.txt"
    path.write_text(text[: text.index("operator:")])
    code, out = run(["verify", str(path), "--verify-samples", "2000"])
    assert (code, _sha(out)) == (0, VERIFY_DIGESTS[command])


# sha256 of the stdout of commands that no other tier-1 test pins, recorded
# before the shape test became build.reconstruct: the op: line of every
# operator of D16 and of A4, and the splitting operator of S3 = <(0 1 2)> *
# <(0 1)> built by construct --split.  The catalog dumps, recorded before
# the catalog was built by build.construction, pin each example's table and
# its operator: provenance line.
CLI_DIGESTS = {
    "enumerate D:16": "378439909c16ea27c903d2eaa550eafdde99b203e5cef01bfbced3ea54029505",
    "enumerate A:4": "26ecb25e9d3810b6dde63e245832f5264a3321092cc364221cf57f9c8e45868b",
    "construct --split S:3 1,2,0 1,0,2": "264eb48909ed0f324fa5fb1fb916060de7cf827bcfa1772843a57bc3dd3d0305",
    "construct --example s3 --dump": "3ceb9d3c3a9ed884187d56f693d108a30d37a63fd39c021d0a351b11c812672f",
    "construct --example a4_b1 --dump": "8e42a5aa47f69271dd806d2e5e2659959ca6a3833434e698e5a03f359ffa2578",
    "construct --example a4_b2 --dump": "4e3bb30dc3ee1b308d285f6323700eafcab6ea77039b4c14813fdb030167f01e",
    "construct --example d16 --dump": "5c94c00878e39f77e6a2d2b576d902deb0ca2f68ffa90870dcd4fac72be6731d",
    "construct --example d60 --dump": "960fd21708e06321c3fec9e594d9c1e567b002e6062e69250bcb93fae986bccf",
    "construct --example d2n_klein(8) --dump": "2c1660febc73afa24872be8113e356e1d7f8736885fd79c9b756e30277558741",
}


# sha256 of the stdout of the perfbench an jobs, recorded before element
# orders came from one order table per group.  sharply2's FS1-FS3 labels
# are invariant strings built from the element-order spectrum.
AN_DIGESTS = {
    "sharply2 --m 2 --q 7 --t 1": "6876ee78b0147f3e86887380bdc73c37edf815110d9c3bb820c89bb5503bc78d",
    "--seed 5 build-an --n 9 --variant S1 --verify-samples 30000": "44465735894a17e040e3ae09f9ec4e3383920883b097bc8cedf462de85fd8b80",
    "descendent --n 9": "6b309969a41e17e08d75960fedfaae3e81d0ad2cc974d15fca92064f74527e18",
}


# sha256 of the stdout of the A_n commands that read the operator's
# construction data (its kernels and R, its S x S walk, its dump), recorded
# before the operator became a record of that data; the last key is
# `verify` on the operator block of `build-an --n 10 --dump`.
AN_RECORD_DIGESTS = {
    "build-an --n 10 --verify-samples 2000": "61649b829177c2dbb4f6dcb46ba1e10b24b2f73df2d6ae5e9be8861febba14dc",
    "build-an --n 9 --variant S3 --verify-samples 2000": "71ee22b4036ffe8953efda5c12f6c57d8e698fa2cffec2e3c166af7e701fa446",
    "descendent --n 10": "0c4ebb3630fd2926f8e258fa48a16d6a4384d8b73f705bc89843f4f9a7221a66",
    "verify of build-an --n 10 --dump": "a7474c1f8d155b651f4ff1245b4be9a8706963c79629ee66d645148ea61fb1a5",
}


@pytest.mark.parametrize("command", list(AN_RECORD_DIGESTS))
def test_an_record_output_is_pinned(command, tmp_path):
    if command.startswith("verify of "):
        text = run(command[len("verify of "):].split())[1]
        path = tmp_path / "an10.op"
        path.write_text(text[: text.index("operator:")])
        code, text = run(["verify", str(path)])
    else:
        code, text = run(command.split())
    assert (code, _sha(text)) == (0, AN_RECORD_DIGESTS[command])


@pytest.mark.parametrize("command", list(CLI_DIGESTS))
def test_cli_output_is_pinned(command):
    code, text = run(command.split())
    assert (code, _sha(text)) == (0, CLI_DIGESTS[command])


@pytest.mark.parametrize("command", list(AN_DIGESTS))
def test_an_output_is_pinned(command):
    code, text = run(command.split())
    assert (code, _sha(text)) == (0, AN_DIGESTS[command])


def test_construct_split_refuses_an_inexact_factorization(capsys):
    """H = L = <(0 1)> does not factor S3: exit 1, nothing on stdout."""
    assert run(["construct", "--split", "S:3", "1,0,2", "1,0,2"]) == (1, "")
    assert capsys.readouterr().err == "error: factorization is not exact\n"


def test_construct_split_names_a_token_that_is_not_an_integer(capsys):
    """The token is quoted, exit 1; the int() error raised while the Perm
    read its images once came out as 'Perm images must lie in 0..255'."""
    assert run(["construct", "--split", "S:3", "x", "0,1,2"]) == (1, "")
    err = capsys.readouterr().err
    assert err == "error: invalid literal for int() with base 10: 'x'\n"


def test_negative_seed_is_a_usage_error(capsys):
    """Random(-7) draws what Random(7) draws, so --seed -7 once printed
    seed=-7 over the stream of seed 7.  A seed below 0 exits 64, naming
    --seed, whatever the command; --seed 0 runs."""
    assert random.Random(-7).getrandbits(64) == random.Random(7).getrandbits(64)
    for argv in (["build-an", "--n", "9"], ["descendent", "--n", "9"], ["classify", "D:6"]):
        assert run(["--seed", "-7", *argv]) == (64, ""), argv
        assert "usage error: --seed must be >= 0, got -7\n" in capsys.readouterr().err
    code, text = run(["--seed", "0", "build-an", "--n", "9", "--verify-samples", "100"])
    assert code == 0 and text.endswith("verify: pass pairs=5284 seed=0\n")


def test_max_order_below_1_is_a_usage_error(capsys):
    """--max-order -1 once exited 1 with '|G| = 8 exceeds enumeration cap
    -1'.  A cap below 1 exits 64, naming --max-order, on enumerate and
    classify; --max-order 1 runs."""
    for argv in (
        ["enumerate", "Z:2", "--max-order", "-1"],
        ["classify", "D:8", "--max-order", "-1"],
        ["classify", "--family", "dihedral", "--max-order", "0"],
    ):
        assert run(argv) == (64, ""), argv
        value = argv[-1]
        assert f"usage error: --max-order must be >= 1, got {value}\n" in capsys.readouterr().err
    assert run(["enumerate", "Z:1", "--max-order", "1"]) == (
        0, "group: Z1 operators: 1\nop: 0 | splitting=yes R=Z1\n"
    )


def test_empty_family_range_is_a_usage_error(capsys):
    """--n-from above --n-to once exited 0 with nothing printed."""
    argv = ["classify", "--family", "dihedral", "--n-from", "5", "--n-to", "2"]
    assert run(argv) == (64, "")
    assert "usage error: empty family range: --n-from 5 > --n-to 2\n" in capsys.readouterr().err


def test_sharply2_m_below_1_is_named(capsys):
    """m = 0 was blamed on 4 | m, and m = -2 on the field degree."""
    for m in ("0", "-2"):
        assert run(["sharply2", "--m", m, "--q", "7", "--t", "1"]) == (1, "")
        assert capsys.readouterr().err == f"error: m must be >= 1, got {m}\n"


@pytest.mark.slow
def test_build_an_10_output_is_pinned():
    """Budget 60 s; recorded before subgroups carried small generating sets."""
    start = time.perf_counter()
    code, text = run(["--seed", "5", "build-an", "--n", "10", "--verify-samples", "2000"])
    assert time.perf_counter() - start < 60
    assert code == 0 and text.endswith("verify: pass pairs=520400 seed=5\n")
    assert _sha(text) == "4fd19f8abe0ffbffb38b006a692b83583ef063360e96d15f2e9f3620f343e980"


@pytest.mark.slow
def test_build_an_50_is_refused_by_name(capsys):
    """Budget 60 s; layer 2 of n = 50 would need the Cayley table of
    L = M(49), |L|^2 = 1.38e10 entries, so verify_an_operator refuses it."""
    start = time.perf_counter()
    assert run(["build-an", "--n", "50"]) == (1, "")
    assert time.perf_counter() - start < 60
    assert capsys.readouterr().err == (
        "error: |L| = 117600 exceeds the enumeration cap 5000:"
        " layer 2 needs the Cayley table of L\n"
    )


@pytest.mark.slow
def test_sharply3_q49_finishes():
    """Budget 60 s; |M(q)| = q(q^2 - 1) = 117,600 for q = 49."""
    start = time.perf_counter()
    code, text = run(["sharply3", "--q", "49"])
    assert time.perf_counter() - start < 60
    assert code == 0
    assert text.splitlines()[0] == "group: M(49) degree=50 order=117600 psl_index=2"


@pytest.mark.parametrize("n,s_pairs", [(49, 1176**2), (50, 58800**2)])
@pytest.mark.slow
def test_descendent_n_output_is_pinned(n, s_pairs):
    """Budget 60 s each.  S x S is checked through the generators of S, so
    n = 50 (|S| = |PSL(2,49)| = 58,800, 3.46e9 pairs) finishes; it takes
    about 4 s, and n = 49 about 1 s."""
    start = time.perf_counter()
    code, text = run(["descendent", "--n", str(n)])
    assert time.perf_counter() - start < 60
    assert (code, text) == (
        0, f"descendent: pass s_pairs={s_pairs} k_samples=10000 twist_samples=10000\n"
    )


def test_construct_verifies_its_operator_once(monkeypatch):
    """construct --example q60 computes verify once, for its verify:
    line: build.construction proves the identity, so building the
    operator verifies nothing (it verified the homomorphism operator on
    Q20 and the q60 operator when the catalog went through from_table)."""
    from rbgroups import rbop

    verified = []
    compute = rbop.verify.__wrapped__

    def counted(B):
        verified.append(B.table)
        return compute(B)

    monkeypatch.setattr(rbop.verify, "__wrapped__", counted)
    code, text = run(["construct", "--example", "q60"])
    assert code == 0 and text.endswith("verify: pass pairs=3600 seed=-\n")
    assert sorted(map(len, verified)) == [60]
