import pytest

from rbgroups import build, families, serialize, transitive
from rbgroups.perm import Perm
from rbgroups.serialize import (
    FormatError,
    format_group,
    format_operator,
    format_perm,
    parse_group,
    parse_operator,
    parse_perm,
)


def test_perm_roundtrip():
    p = Perm.from_cycles(5, [(0, 3), (1, 4, 2)])
    assert parse_perm(format_perm(p)) == p


def test_perm_parse_rejects_non_bijection():
    with pytest.raises(FormatError):
        parse_perm("perm: 0 0 1")


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
