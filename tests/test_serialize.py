import io

import pytest

from rbgroups import build, cli, families, transitive
from rbgroups.serialize import (
    FormatError,
    format_group,
    format_operator,
    parse_group,
    parse_operator,
)


def test_group_roundtrip():
    G = families.parse_group_spec("D:8").group
    text = format_group(G)
    H = parse_group(text)
    assert set(H.elements) == set(G.elements)
    assert format_group(H) == text  # canonical form is a fixed point


def test_generator_only_group_roundtrip():
    A9 = families.alternating(9).group
    text = format_group(A9)
    H = parse_group(text)
    assert not H.enumerated
    assert H.order() == A9.order()
    assert H.generators == A9.generators


@pytest.mark.parametrize(
    "text,line",
    [
        ("domain: nine\nop: 0\n", "domain: nine"),
        ("domain: 3\norder: x\ngen: 1 2 0\n", "order: x"),
        ("domain: -3\nop: 0\n", "domain: -3"),
    ],
    ids=["domain-word", "order-word", "domain-negative"],
)
def test_group_counts_are_non_negative_integers(text, line):
    """A domain: or order: line that is not one non-negative integer is a
    FormatError that quotes the line.  A negative domain once parsed as a
    degree-0 group that re-dumped as domain: 0."""
    with pytest.raises(FormatError, match=repr(line)):
        parse_group(text)


def test_table_operator_roundtrip():
    for name in ("s3", "a4_b2", "d16", "q60"):
        B = build.catalog_operator(name)
        text = format_operator(B)
        C = parse_operator(text)
        assert C.table == B.table
        assert format_operator(C) == text


def test_procedural_operator_roundtrip():
    B = transitive.build_an_operator(9)
    text = format_operator(B)
    C = parse_operator(text)
    assert C.structural["r"] == B.structural["r"]
    assert C.structural["t"] == B.structural["t"]
    assert C.structural["distinguished"] == B.structural["distinguished"]
    for g in B.group.generators:
        assert C(g) == B(g)
    assert format_operator(C) == text


def test_parse_operator_rejects_garbage():
    with pytest.raises(FormatError):
        parse_operator("not a real block")


# (old, new): one line of the build-an --n 9 dump broken, or a line added;
# every line of the block is checked against the build
TAMPERED = {
    "r": ("r: 3 5 4", "r: 5 3 4"),  # another permutation
    "t": ("t: 0 4", "t: x 4"),
    "distinguished": ("distinguished: 7 8", "distinguished: 8 7"),
    "unknown": ("t: ", "extra: 1\nt: "),
    "gen": ("gen: 1 2 0 3", "gen: 2 0 1 3"),  # another 3-cycle
    "order": ("order: 181440", "order: 7"),
    "case": ("case=a", "case=zz"),
    "proc": ("proc: an", "proc: xx"),
    "short": ("\nt: 0 4 8 7 2 3 5 6 1", ""),  # the block ends before t:
    "token": ("case=a", "case"),  # a proc: token without =
    "n": ("n=9", "n=nine"),
}


@pytest.fixture(scope="module")
def an9_stdout():
    out = io.StringIO()
    assert cli.main(["build-an", "--n", "9", "--dump"], out=out) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def an9_dump(an9_stdout):
    return an9_stdout.split("operator:")[0]


def test_build_an_dump_stdout_verifies(an9_stdout, tmp_path):
    """verify reads the block of the build-an --dump stdout up to its t:
    line and no further, as it reads a table dump up to its op: line, so
    the stdout with its operator: and verify: lines verifies."""
    assert "\noperator: " in an9_stdout
    path = tmp_path / "an9.out"
    path.write_text(an9_stdout)
    assert cli.main(["verify", str(path)], out=io.StringIO()) == 0


@pytest.mark.parametrize("case", TAMPERED)
def test_tampered_proc_dump_is_refused(case, an9_dump, tmp_path):
    """parse_operator raises FormatError and verify on the file exits 1."""
    old, new = TAMPERED[case]
    assert old in an9_dump
    text = an9_dump.replace(old, new)
    with pytest.raises(FormatError):
        parse_operator(text)
    path = tmp_path / "an9.op"
    path.write_text(text)
    assert cli.main(["verify", str(path)], out=io.StringIO()) == 1
