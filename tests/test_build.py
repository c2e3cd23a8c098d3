import pytest

from invariants import assert_invariants
from oracles import index2_body, index2_construction
from rbgroups import build, classify, families, rbop
from rbgroups.build import ConstructionError
from rbgroups.perm import Perm, exact_factorization
from rbgroups.rbop import descendent_group, images, is_splitting, kernel_invariant, verify


def _splitting(w):
    """The construction with phi = e on w: G = K L."""
    e = w.group.identity
    return build.construction(w, lambda l: e, w.right.subgroup([e]))


def test_from_factorization_splitting():
    """With phi = e the construction is the splitting operator k l -> l^-1,
    with kernel K and companion kernel L."""
    G = families.parse_group_spec("S:3").group
    H = G.subgroup([Perm.from_cycles(3, [(0, 1, 2)])])
    L = G.subgroup([Perm.from_cycles(3, [(0, 1)])])
    B = _splitting(exact_factorization(G, H, L))
    assert verify(B).ok and is_splitting(B)
    d = images(B)
    assert set(d.ker.elements) == set(H.elements)
    assert set(d.ker_tilde.elements) == set(L.elements)


def test_from_factorization_rejects_inexact():
    G = families.parse_group_spec("S:3").group
    L = G.subgroup([Perm.from_cycles(3, [(0, 1)])])
    with pytest.raises(ConstructionError, match="^factorization is not exact$"):
        _splitting(exact_factorization(G, L, L))


def test_from_homomorphism_retraction_on_a4():
    B = build.catalog_operator("a4_b2")
    assert verify(B).ok
    assert not is_splitting(B)
    d = images(B)
    assert d.R.order() == 3
    _, label = descendent_group(B)
    assert label == "A4"


def test_from_homomorphism_rejects_nonabelian_target():
    """phi = id into R = G on G = 1 * S3: R is not abelian."""
    G = families.parse_group_spec("S:3").group
    w = exact_factorization(G, G.subgroup([G.identity]), G)
    with pytest.raises(ConstructionError, match="R is not abelian"):
        build.construction(w, lambda g: g, G)


def test_d2n_klein_family():
    for n in (4, 6, 8):
        B = build.d2n_klein(n)
        assert verify(B).ok
        assert not is_splitting(B)
        from rbgroups.labels import iso_label
        assert iso_label(images(B).R) in ("Z2", "Z2xZ2")


def test_d16_example_values():
    B = build.catalog_operator("d16")
    G = B.group
    r = next(g for g in G.elements if g.order() == 8)
    Bt = rbop.tilde(B)
    assert B(Bt(r)) == r * r * r * r
    assert Bt(B(r)).is_identity()


def test_index2_rejects_r_outside_s():
    # Q12 = <a> . <b> with a of order 3: r = the generator of order 6 lies
    # outside S = <b^2>, and outside L = <b> too, so R = {e, r} does not
    # lie in L and the construction refuses it.
    built = families.generalized_quaternion(3)
    G = built.group
    a = built.r * built.r  # order 3
    K = G.subgroup([a], label="K")
    L = G.subgroup([built.s], label="L")  # Z4
    S = G.subgroup([built.s * built.s], label="S")  # Z2 inside L
    bad_r = built.r  # not an involution and not in S
    assert bad_r not in S and bad_r not in L
    with pytest.raises(ConstructionError, match="^R does not lie in L$"):
        index2_construction(G, K, L, S, bad_r)


def _d16_index2_data():
    built = families.dihedral(8)
    G, r, s = built.group, built.r, built.s
    r2 = r * r
    r4 = r2 * r2
    K = G.subgroup([s], label="K")
    L = G.subgroup([r2, r * s], label="L")
    subgroups = {
        "<r^2>": L.subgroup([r2]),
        "<r^4,rs>": L.subgroup([r4, r * s]),
        "<r^4,r^3s>": L.subgroup([r4, r2 * r * s]),
    }
    return G, K, L, subgroups, r4


@pytest.mark.parametrize("name", ["<r^2>", "<r^4,rs>", "<r^4,r^3s>"])
def test_index2_construction_on_d16(name):
    # D16 = <s> * <r^2, rs> is exact, r^4 is a central involution lying in
    # each of the three index-2 subgroups S of L = <r^2, rs> ~ D8
    G, K, L, subgroups, r4 = _d16_index2_data()
    S = subgroups[name]
    assert 2 * S.order() == L.order() and r4 in S
    B = index2_construction(G, K, L, S, r4)
    body = index2_body(L, S, r4)
    assert all(B(k * l) == body[l] for k in K.elements for l in L.elements)
    assert verify(B).ok
    assert not is_splitting(B)
    assert images(B).R.order() == 2
    assert B.table in {A.table for A in classify.enumerate_rb(G)}


def test_q60_catalog():
    B = build.catalog_operator("q60")
    assert B.group.order() == 60
    assert verify(B).ok
    assert not is_splitting(B)
    assert images(B).R.order() == 2
    assert kernel_invariant(B) == ("Z10", "Z3")


def test_d60_catalog():
    B = build.catalog_operator("d60")
    assert verify(B).ok and not is_splitting(B)
    assert kernel_invariant(B) == ("Z3", "Z5")


def _concrete_catalog():
    for name in build.catalog_names():
        yield name.replace("d2n_klein(n)", "d2n_klein(4)")


def test_catalog_names_all_buildable():
    for name in _concrete_catalog():
        B = build.catalog_operator(name)
        assert verify(B).ok, name


def test_property_suite_on_catalog():
    for name in _concrete_catalog():
        assert_invariants(build.catalog_operator(name))


def test_from_homomorphism_checks_every_pair_through_generators():
    """All 64 maps phi: S3 -> <(0 1)> on G = 1 * S3: exactly the two
    homomorphisms (trivial and sign) are accepted, as the check on every
    pair says, and each operator built verifies."""
    import itertools

    G = families.parse_group_spec("S:3").group
    A = G.subgroup([Perm.from_cycles(3, [(0, 1)])])
    w = exact_factorization(G, G.subgroup([G.identity]), G)
    accepted = 0
    for values in itertools.product(A.elements, repeat=G.order()):
        phi = dict(zip(G.elements, values))
        hom = all(phi[g * h] == phi[g] * phi[h] for g in G.elements for h in G.elements)
        try:
            B = build.construction(w, phi.__getitem__, A)
            accepted += 1
            assert hom and verify(B).ok
        except ConstructionError:
            assert not hom
    assert accepted == 2


@pytest.mark.parametrize("spec, h_gens, l_gens, expected", [
    ("S:3", [[(0, 1)]], [[(0, 1, 2)]], {True, False}),
    ("S:3", [[(0, 1, 2)]], [[(0, 1)]], {True}),
    ("A:4", [[(0, 1), (2, 3)], [(0, 2), (1, 3)]], [[(1, 2, 3)]], {True}),
    ("A:4", [[(1, 2, 3)]], [[(0, 1), (2, 3)], [(0, 2), (1, 3)]], {True, False}),
    ("S:4", [[(0, 1)], [(0, 1, 2)]], [[(0, 1), (2, 3)], [(0, 2), (1, 3)]], {True, False}),
])
def test_extend_over_factorization_normality_matches_exhaustive(spec, h_gens, l_gens, expected):
    """For each operator C on the abelian L, phi = C~ is a homomorphism
    into R = L, and the construction over G = H L (which maps h l to C(l))
    succeeds iff Im(C~) normalizes H element by element (H normal in G in
    the middle two cases); each operator it builds verifies."""
    from oracles import normal_in
    from rbgroups.classify import enumerate_rb

    G = families.parse_group_spec(spec).group
    n = G.degree
    H = G.subgroup([Perm.from_cycles(n, c) for c in h_gens])
    L = G.subgroup([Perm.from_cycles(n, c) for c in l_gens])
    assert L.is_abelian()
    w = exact_factorization(G, H, L)
    outcomes = set()
    for C in enumerate_rb(L):
        Ct = rbop.tilde(C)
        normalizes = normal_in(H.elements, {Ct(l) for l in L.elements})
        try:
            B = build.construction(w, Ct, L)
            assert normalizes and verify(B).ok
            assert all(B(h * l) == C(l) for h in H.elements for l in L.elements)
        except ConstructionError:
            assert not normalizes
        outcomes.add(normalizes)
    assert outcomes == expected
