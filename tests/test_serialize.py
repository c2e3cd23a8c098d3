import io
import re

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


@pytest.mark.parametrize(
    "text,message",
    [
        ("domain: nine\nop: 0\n", "bad token in 'domain: nine'"),
        ("domain: 3\norder: x\ngen: 1 2 0\n", "unexpected group line 'order: x'"),
        ("domain: -3\nop: 0\n", "domain needs one non-negative integer, got 'domain: -3'"),
    ],
    ids=["domain-word", "order-word", "domain-negative"],
)
def test_group_counts_are_non_negative_integers(text, message):
    """A domain: line that is not one non-negative integer is a
    FormatError that quotes the line, and so is any order: line: a parsed
    group is enumerated, so its order is counted, never read.  A negative
    domain once parsed as a degree-0 group that re-dumped as domain: 0."""
    with pytest.raises(FormatError, match=re.escape(message)):
        parse_group(text)


@pytest.mark.parametrize(
    "text,line",
    [
        ("domain: +3\ngen: 1 2 0\nop: 0 0 0\n", "domain: +3"),
        ("domain: 3\ngen: 1 02 0\nop: 0 0 0\n", "gen: 1 02 0"),
        ("domain: 3\ngen: 1 2 0\nop: 0 0 0_0\n", "op: 0 0 0_0"),
        ("domain: 3\ngen: 1 2 \u0660\nop: 0 0 0\n", "gen: 1 2 \u0660"),
    ],
    ids=["plus-sign", "leading-zero", "underscore", "non-ascii-digit"],
)
def test_integers_are_read_only_as_they_are_written(text, line):
    """An integer token is read only in the spelling format_group and
    format_operator write, str(int): int() takes the others too, and a
    block read through them re-dumped as other bytes."""
    with pytest.raises(FormatError, match=re.escape(f"bad token in {line!r}")):
        parse_operator(text)


@pytest.mark.parametrize(
    "text,line",
    [
        ("domain:3\ngen: 1 2 0\nop: 0 0 0\n", "domain:3"),
        ("domain: 3\ngen: 1\t2 0\nop: 0 0 0\n", "gen: 1\t2 0"),
        ("domain: 3\ngen: 1  2 0\nop: 0 0 0\n", "gen: 1  2 0"),
        ("domain: 3\n gen: 1 2 0\nop: 0 0 0\n", " gen: 1 2 0"),
        ("domain: 3\ngen: 1 2 0\nop: 0 0 0 \n", "op: 0 0 0 "),
        ("domain: 3\n\ngen: 1 2 0\nop: 0 0 0\n", ""),
    ],
    ids=["no-space", "tab", "two-spaces", "leading-space", "trailing-space", "blank-line"],
)
def test_whitespace_is_read_only_as_it_is_written(text, line):
    """Spaces are read only as format_group and format_operator write
    them: one after each colon, one between values, none at either end of
    a line, and no blank line inside a block.  Before, every other
    spelling here parsed and re-dumped as other bytes."""
    with pytest.raises(FormatError, match=re.escape(repr(line))):
        parse_operator(text)


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
    assert (C.r, C.t, C.distinguished) == (B.r, B.t, B.distinguished)
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
