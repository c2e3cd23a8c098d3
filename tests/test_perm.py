import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbgroups.perm import (
    FiniteGroup,
    Perm,
    PermError,
    automorphism_group,
    closure,
    grow,
    exact_factorization,
    is_isomorphic,
)
from rbgroups.rbop import _normal_in
from test_classify import PINNED


def test_composition_is_left_to_right():
    p = Perm.from_cycles(3, [(0, 1)])
    q = Perm.from_cycles(3, [(1, 2)])
    # (p*q)(i) = q(p(i)): 0 -> 1 -> 2
    assert (p * q)[0] == 2


def test_inverse_and_order():
    c = Perm.from_cycles(5, [(0, 1, 2, 3, 4)])
    assert c * c.inverse() == Perm(range(5))
    assert c.order() == 5
    assert c.inverse() == c * c * c * c


def test_conjugation_convention():
    p = Perm.from_cycles(4, [(0, 1)])
    g = Perm.from_cycles(4, [(1, 2)])
    # relabelling (01) by g gives (02)
    assert p.conj(g) == Perm.from_cycles(4, [(0, 2)])


def test_parity():
    assert not Perm.from_cycles(4, [(0, 1)]).is_even()
    assert Perm.from_cycles(4, [(0, 1, 2)]).is_even()


def test_from_cycles_rejects_repeats():
    with pytest.raises(PermError):
        Perm.from_cycles(4, [(0, 1), (1, 2)])


def test_closure_s3():
    gens = [Perm.from_cycles(3, [(0, 1, 2)]), Perm.from_cycles(3, [(0, 1)])]
    assert len(closure(gens)) == 6


def test_group_basics():
    G = FiniteGroup.from_generators([Perm.from_cycles(3, [(0, 1, 2)])])
    assert G.order() == 3
    assert G.is_abelian()
    assert G.identity in G


def test_subgroup_and_normality():
    s3 = FiniteGroup.from_generators([Perm.from_cycles(3, [(0, 1, 2)]), Perm.from_cycles(3, [(0, 1)])]
    )
    rot = FiniteGroup.from_elements(s3.subgroup([Perm.from_cycles(3, [(0, 1, 2)])]).elements)
    ref = FiniteGroup.from_elements(s3.subgroup([Perm.from_cycles(3, [(0, 1)])]).elements)
    assert _normal_in(rot, s3)
    assert not _normal_in(ref, s3)


def test_exact_factorization_s3():
    s3 = FiniteGroup.from_generators([Perm.from_cycles(3, [(0, 1, 2)]), Perm.from_cycles(3, [(0, 1)])]
    )
    H = s3.subgroup([Perm.from_cycles(3, [(0, 1, 2)])])
    L = s3.subgroup([Perm.from_cycles(3, [(0, 1)])])
    w = exact_factorization(s3, H, L)
    assert w.exact
    for h in H.elements:
        for l in L.elements:
            assert w.part(h * l) == l


def test_inexact_factorization_flagged():
    s3 = FiniteGroup.from_generators([Perm.from_cycles(3, [(0, 1, 2)]), Perm.from_cycles(3, [(0, 1)])]
    )
    H = s3.subgroup([Perm.from_cycles(3, [(0, 1)])])
    w = exact_factorization(s3, H, H)
    assert not w.exact


@pytest.mark.parametrize("spec", ["A:4", "S:4", "D:16"])
def test_exact_factorization_matches_brute_force(spec):
    """On every pair (H, L) of subgroups (each generated by two elements,
    as every subgroup of these groups is), the witness is exact iff
    |H| |L| = |G| and H meets L in e alone, and then part(h l) = l."""
    from rbgroups.families import parse_group_spec

    G = parse_group_spec(spec).group
    subgroups = {}
    for a in G.elements:
        for b in G.elements:
            H = G.subgroup([a, b])
            subgroups.setdefault(H.elements, H)
    exact = 0
    for H in subgroups.values():
        for L in subgroups.values():
            w = exact_factorization(G, H, L)
            meet = set(H.elements) & set(L.elements)
            brute = H.order() * L.order() == G.order() and meet == {G.identity}
            assert w.exact == brute, (H.elements, L.elements)
            if brute:
                exact += 1
                assert all(w.part(h * l) == l for h in H.elements for l in L.elements)
    assert exact > 2  # beyond G = 1 G and G = G 1


def test_isomorphism_testing():
    z6 = FiniteGroup.from_generators([Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
    z6b = FiniteGroup.from_generators([Perm.from_cycles(5, [(0, 1), (2, 3, 4)])]
    )
    s3 = FiniteGroup.from_generators([Perm.from_cycles(3, [(0, 1, 2)]), Perm.from_cycles(3, [(0, 1)])]
    )
    assert is_isomorphic(z6, z6b)
    assert not is_isomorphic(z6, s3)


@pytest.mark.parametrize("spec", list(PINNED) + ["A:5"])
def test_automorphism_group_matches_dict_search(spec):
    """The Cayley-table search finds the same automorphisms as the search
    by Perm products on element dicts, sorted and each once."""
    from oracles import dict_automorphism_tables

    from rbgroups.families import parse_group_spec

    G = parse_group_spec(spec).group
    auts = automorphism_group(G)
    assert auts == sorted(dict_automorphism_tables(G))


@pytest.mark.slow
def test_automorphism_group_of_d256_within_budget():
    """Aut(D_256) has 128 phi(128) = 8,192 elements.  Budget 5 s; about
    1 s on a 2-core host."""
    import time

    from rbgroups.families import parse_group_spec

    G = parse_group_spec("D:256").group
    start = time.perf_counter()
    auts = automorphism_group(G)
    elapsed = time.perf_counter() - start
    assert len(set(auts)) == 8192 and all(len(set(f)) == 256 for f in auts)
    assert elapsed < 5, elapsed


@pytest.mark.slow
def test_automorphism_group_of_a6_within_budget():
    """Aut(A6) = PGammaL(2,9) has 1,440 elements.  A6 is generated by a
    pair, so the search tries at most 144^2 image pairs, against 144^3
    triples for greedy's three elements of order 5.  Budget 10 s; about
    0.6 s on a 2-core host (30.6 s with the triple)."""
    import time

    from rbgroups.families import parse_group_spec

    G = parse_group_spec("A:6").group
    start = time.perf_counter()
    auts = automorphism_group(G)
    elapsed = time.perf_counter() - start
    assert len(set(auts)) == 1440 and all(len(set(f)) == 360 for f in auts)
    assert elapsed < 10, elapsed


def test_degree_above_256_raises_perm_error():
    from rbgroups import families
    from rbgroups.cli import main

    for make in (
        lambda: Perm(range(257)),
        lambda: Perm.identity(257),
        lambda: Perm.checked([0, 300, 1]),
        lambda: families.cyclic(300),
    ):
        with pytest.raises(PermError, match="256"):
            make()
    assert Perm.identity(256).is_identity()
    assert main(["classify", "Z:300"], out=io.StringIO()) == 1


# -- the bytes kernel against a plain-tuple reference ----------------------


def _ref_mul(p: tuple, q: tuple) -> tuple:
    return tuple(q[v] for v in p)


def _ref_inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _ref_cycles(p: tuple) -> list:
    seen, out = set(), []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


@st.composite
def _perm_triples(draw):
    n = draw(st.integers(min_value=1, max_value=256))
    return tuple(tuple(draw(st.permutations(range(n)))) for _ in range(3))


@settings(max_examples=200, deadline=None)
@given(_perm_triples())
def test_bytes_kernel_matches_tuple_reference(triple):
    a, b, c = triple
    p, q, r = (Perm(t) for t in triple)
    assert tuple(p) == a and len(p) == len(a)
    assert tuple(p * q) == _ref_mul(a, b)
    assert tuple(p.inverse()) == _ref_inverse(a)
    assert tuple(p.conj(q)) == _ref_mul(_ref_mul(_ref_inverse(b), a), b)
    assert p.is_identity() == (a == tuple(range(len(a))))
    assert (p * p.inverse()).is_identity()
    ref_order = math.lcm(*(len(cyc) for cyc in _ref_cycles(a)))
    if ref_order <= 5000:  # order() takes ref_order - 1 products
        assert p.order() == ref_order
    assert isinstance(p * q, Perm) and isinstance(p.inverse(), Perm)
    # sort order is tuple order; equality and hashing agree
    assert sorted([p, q, r]) == [Perm(t) for t in sorted(triple)]
    assert (p < q) == (a < b) and (p == q) == (a == b)
    assert Perm(list(a)) == p and hash(Perm(list(a))) == hash(p)
    assert len({p, q, r, Perm(a)}) == len({a, b, c})


@st.composite
def _bounded_order_perms(draw):
    """A relabelled product of disjoint cycles of length <= 8 on 1..256 points."""
    n = draw(st.integers(min_value=1, max_value=256))
    lengths = draw(st.lists(st.integers(min_value=1, max_value=8), max_size=n))
    images, start = list(range(n)), 0
    for length in lengths:
        if start + length > n:
            break
        for i in range(start, start + length):
            images[i] = start + (i - start + 1) % length
        start += length
    relabel = tuple(draw(st.permutations(range(n))))
    # conjugate by relabel: i -> relabel[images[relabel^-1[i]]]
    inv = _ref_inverse(relabel)
    return tuple(relabel[images[inv[i]]] for i in range(n))


@settings(max_examples=100, deadline=None)
@given(_bounded_order_perms())
def test_order_matches_cycle_lengths(a):
    p = Perm(a)
    assert p.order() == math.lcm(*(len(cyc) for cyc in _ref_cycles(a)))


# -- the generating-set grower against exhaustive oracles -------------------


@pytest.mark.parametrize("spec", ["S:3", "D:8"])
def test_subgroup_tests_match_pairwise_oracles(spec):
    """Every subset containing e: 32 of S3, 128 of D8."""
    from oracles import exhaustive_normal, pairwise_subgroup, subsets_with_identity
    from rbgroups import families

    G = families.parse_group_spec(spec).group
    subgroups = 0
    for S in subsets_with_identity(G):
        is_sub = pairwise_subgroup(S)
        T = grow(sorted(S), G.identity, S)
        assert (T is not None) == is_sub
        if is_sub:
            subgroups += 1
            H = FiniteGroup.from_elements(S)
            assert closure(T) == H.elements and H.generators == T
            assert _normal_in(H, G) == exhaustive_normal(G, S)
        else:
            assert not exhaustive_normal(G, S)
            with pytest.raises(PermError, match="is not a subgroup"):
                FiniteGroup.from_elements(S)
    assert subgroups == {"S:3": 6, "D:8": 10}[spec]


def test_is_subgroup_needs_the_identity():
    G = FiniteGroup.from_generators([Perm.from_cycles(3, [(0, 1, 2)])])
    S = set(G.elements) - {G.identity}
    assert grow(sorted(S), G.identity, S) is None
    assert grow([], G.identity, set()) is None
    for S in (S, {Perm.from_cycles(3, [(0, 1)])}, set()):
        with pytest.raises(PermError, match="R is not a subgroup"):
            FiniteGroup.from_elements(S, label="R")


def test_from_elements_refuses_a_non_subgroup():
    """{e, (0 1), (0 2)} of S3 is closed under inverses but not products."""
    S = [Perm.identity(3), Perm.from_cycles(3, [(0, 1)]), Perm.from_cycles(3, [(0, 2)])]
    with pytest.raises(PermError, match="the set is not a subgroup"):
        FiniteGroup.from_elements(S)
    trusted = FiniteGroup.from_elements(S, generators=S[1:])
    assert trusted.order() == 3


def test_exact_factorization_runs_no_grow(monkeypatch):
    """Its factors are groups already, so it tests only that they lie in G."""
    from rbgroups import perm

    s3 = FiniteGroup.from_generators([Perm.from_cycles(3, [(0, 1, 2)]), Perm.from_cycles(3, [(0, 1)])])
    H = s3.subgroup([Perm.from_cycles(3, [(0, 1, 2)])])
    L = s3.subgroup([Perm.from_cycles(3, [(0, 1)])])
    calls = []
    monkeypatch.setattr(perm, "grow", lambda *a: calls.append(a) or grow(*a))
    assert exact_factorization(s3, H, L).exact
    assert calls == []
    outside = FiniteGroup.from_generators([Perm.from_cycles(3, [(0, 1)])], label="Z2")
    with pytest.raises(PermError, match="Z2 is not a subgroup of G"):
        exact_factorization(FiniteGroup.from_generators([Perm.from_cycles(3, [(0, 1, 2)])]), H, outside)


def _count_products(monkeypatch):
    calls = [0]
    mul = Perm.__mul__

    def counted(p, q):
        calls[0] += 1
        return mul(p, q)

    monkeypatch.setattr(Perm, "__mul__", counted)
    return calls


def test_subgroup_tests_take_linear_products(monkeypatch):
    """At most 8 |S| products: the pairwise test takes |S|^2 (6.35M on A7)."""
    from rbgroups import families, transitive

    A7 = families.alternating(7).group
    psl = transitive.sharply3(9).psl
    calls = _count_products(monkeypatch)
    assert grow(A7.elements, A7.identity, A7._element_set()) is not None
    assert calls[0] <= 8 * 2520
    calls[0] = 0
    H = FiniteGroup.from_elements(psl.elements)
    assert calls[0] <= 8 * 360
    assert closure(H.generators) == psl.elements


# -- the order table against the lcm of cycle lengths ----------------------


def _assert_orders_match_cycles(G):
    table = G.order_table()
    assert table.keys() == set(G.elements)
    for g in G.elements:
        assert table[g] == math.lcm(*(len(cyc) for cyc in _ref_cycles(tuple(g))))
    assert G.element_orders() == tuple(sorted(table.values()))


@pytest.mark.parametrize("spec", list(PINNED))
def test_order_table_matches_cycle_lengths(spec):
    from rbgroups import families

    _assert_orders_match_cycles(families.parse_group_spec(spec).group)


def test_order_table_matches_cycle_lengths_on_the_an_groups():
    """L(2,7,1), its N and FS1-FS3 (the groups sharply2 --m 2 --q 7 --t 1
    labels), and the descendent group of d2n_klein(72)."""
    from rbgroups import build, rbop, transitive

    st = transitive.sharply2(2, 7, 1)
    for G in (st.group, st.n_part, st.s1, st.s2, st.s3):
        _assert_orders_match_cycles(G)
    _assert_orders_match_cycles(rbop.descendent_group(build.catalog_operator("d2n_klein(72)"))[0])


def test_order_table_takes_one_walk_per_cyclic_subgroup(monkeypatch):
    """Each FS_i of L(2,7,1) gets its table in at most 2|S| = 2,352
    products; taking each element's order by Perm.order takes the sum of
    the element orders, 9,549 to 15,037 products there."""
    from rbgroups import transitive

    st = transitive.sharply2(2, 7, 1)
    calls = _count_products(monkeypatch)
    for S in (st.s1, st.s2, st.s3):
        calls[0] = 0
        S.order_table()
        assert calls[0] <= 2 * S.order()
