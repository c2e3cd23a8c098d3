import pytest

from invariants import assert_invariants
from rbgroups import build, families, rbop
from rbgroups.classify import enumerate_rb
from rbgroups.labels import iso_label
from rbgroups.perm import FiniteGroup, Perm, PermError
from rbgroups.rbop import (
    InvalidOperator,
    circ,
    descendent_group,
    from_graph,
    from_table,
    graph,
    images,
    is_splitting,
    kernel_invariant,
    tilde,
    trivial_e,
    trivial_inv,
    verify,
)


def s3():
    return families.parse_group_spec("S:3").group


def s3_example():
    return build.catalog_operator("s3")


def test_trivial_operators_verify():
    G = s3()
    for B in (trivial_e(G), trivial_inv(G)):
        assert verify(B).ok


def test_constant_nonidentity_map_fails():
    G = s3()
    c = Perm.from_cycles(3, [(0, 1, 2)])
    with pytest.raises(InvalidOperator):
        from_table(G, tuple(c for _ in G.elements))
    B = from_table(G, tuple(c for _ in G.elements), check=False)
    v = verify(B)
    assert not v.ok and v.witness is not None


def test_sampled_verify_is_deterministic():
    B = trivial_inv(s3())
    a = verify(B, mode="sampled", count=100, seed=3)
    b = verify(B, mode="sampled", count=100, seed=3)
    assert a == b
    assert a.line() == "verify: pass pairs=100 seed=3"


def test_s3_example_images_and_descendent():
    B = s3_example()
    # transpositions all map to (12) on points {1,2}
    t01 = Perm.from_cycles(3, [(0, 1)])
    t12 = Perm.from_cycles(3, [(1, 2)])
    assert B(t01) == t12
    _, label = descendent_group(B)
    assert label == "Z6"
    data = images(B)
    assert sorted(g.order() for g in data.ker.elements) == [1, 3, 3]
    assert sorted(g.order() for g in data.ker_tilde.elements) == [1, 2]
    assert kernel_invariant(B) == ("Z2", "Z3")
    assert is_splitting(B)


def test_tilde_is_involution_and_swaps_trivials():
    G = s3()
    assert tilde(trivial_e(G)).images == trivial_inv(G).images
    B = s3_example()
    assert tilde(tilde(B)).images == B.images


def test_descendent_of_trivial_is_the_group():
    G = s3()
    D, label = descendent_group(trivial_e(G))
    assert D.order() == 6 and label == "S3"


def _regular_descendent_label(B) -> str:
    """Exhaustive oracle for descendent_group: the right-regular
    representation of (G, o) on |G| points, with associativity checked
    over all triples and the homomorphism property over all pairs."""
    elems = B.group.elements
    n = len(elems)
    idx = {e: i for i, e in enumerate(elems)}
    table = [[idx[g * B(g) * h * B(g).inverse()] for h in elems] for g in elems]
    ident = idx[B.group.identity]
    assert all(table[i][ident] == i == table[ident][i] for i in range(n))
    assert all(sorted(row) == list(range(n)) for row in table)
    # perms[i] maps j to j o i; they compose like the elements iff o is associative
    perms = [Perm(table[j][i] for j in range(n)) for i in range(n)]
    for a in range(n):
        for b in range(n):
            assert perms[a] * perms[b] == perms[table[a][b]]
            assert B(elems[table[a][b]]) == B(elems[a]) * B(elems[b])
    return iso_label(FiniteGroup.from_elements(perms))


@pytest.mark.parametrize("spec", ["S:3", "A:4", "D:8", "Q:8"])
def test_descendent_group_matches_regular_representation_oracle(spec):
    G = families.parse_group_spec(spec).group
    ops = enumerate_rb(G)
    assert ops
    for B in ops:
        D, label = descendent_group(B)
        assert D.degree == 2 * G.degree and D.order() == G.order()
        assert label == _regular_descendent_label(B)


def test_descendent_group_degree_limit():
    G = families.cyclic(129).group
    with pytest.raises(PermError, match="128"):
        descendent_group(trivial_e(G))


def test_circ_collapses_for_trivial_e():
    G = s3()
    B = trivial_e(G)
    for a in G.elements:
        for b in G.elements:
            assert circ(B, a, b) == a * b


def test_images_of_trivials():
    G = s3()
    d = images(trivial_e(G))
    assert d.im.order() == 1 and d.im_tilde.order() == 6 and d.R.order() == 1
    d = images(trivial_inv(G))
    assert d.im.order() == 6 and d.R.order() == 1
    assert is_splitting(trivial_inv(G))


def test_graph_roundtrip():
    for B in (trivial_e(s3()), trivial_inv(s3()), s3_example()):
        H = graph(B)
        assert len(H.pairs) == 6
        B2 = from_graph(B.group, H.pairs)
        assert B2.images == B.images


def test_graph_of_trivials():
    G = s3()
    idx = {g: G.index(g) for g in G.elements}
    e = idx[G.identity]
    assert graph(trivial_e(G)).pairs == frozenset((e, i) for i in range(6))
    assert graph(trivial_inv(G)).pairs == frozenset((i, e) for i in range(6))


def test_diagonal_subgroup_is_not_a_graph():
    G = s3()
    diag = frozenset((i, i) for i in range(6))
    with pytest.raises(InvalidOperator):
        from_graph(G, diag)


def test_property_suite_on_s3_operators():
    for B in (trivial_e(s3()), trivial_inv(s3()), s3_example()):
        assert_invariants(B)


def test_a4_descendent_products_by_hand():
    # A4 = V4 . <c>: the catalog retraction B(v c^k) = c^k is non-splitting
    # with descendent A4; the inverse retraction B(v c^k) = c^-k is splitting
    # with descendent Z6xZ2.
    B = build.catalog_operator("a4_b2")
    G = B.group
    c = Perm.from_cycles(4, [(1, 2, 3)])
    cp = [G.identity, c, c * c]
    V = [g for g in G.elements if g.order() in (1, 2)]
    assert len(V) == 4
    Binv = build.from_homomorphism(
        G, {v * cp[k]: cp[-k % 3] for v in V for k in range(3)}, G.subgroup([c])
    )
    for v in V:
        for k in range(3):
            assert B(v * cp[k]) == cp[k]
            for w in V:
                for j in range(3):
                    g, h = v * cp[k], w * cp[j]
                    conj = cp[2 * k % 3] * w * cp[-2 * k % 3]
                    assert circ(B, g, h) == v * conj * cp[(k + j) % 3]
                    assert circ(Binv, g, h) == v * w * cp[(j + k) % 3]
    assert not is_splitting(B)
    assert descendent_group(B)[1] == "A4"
    assert is_splitting(Binv)
    assert descendent_group(Binv)[1] == "Z6xZ2"
