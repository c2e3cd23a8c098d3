import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbgroups.perm import (
    FiniteGroup,
    Perm,
    PermError,
    closure,
    grow,
    exact_factorization,
    is_isomorphic,
)


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
    rot = s3.subgroup([Perm.from_cycles(3, [(0, 1, 2)])])
    ref = s3.subgroup([Perm.from_cycles(3, [(0, 1)])])
    assert s3.is_normal(rot.elements)
    assert not s3.is_normal(ref.elements)


def test_exact_factorization_s3():
    s3 = FiniteGroup.from_generators([Perm.from_cycles(3, [(0, 1, 2)]), Perm.from_cycles(3, [(0, 1)])]
    )
    H = s3.subgroup([Perm.from_cycles(3, [(0, 1, 2)])])
    L = s3.subgroup([Perm.from_cycles(3, [(0, 1)])])
    w = exact_factorization(s3, H, L)
    assert w.exact
    for x in s3.elements:
        h, l = w.table[x]
        assert h * l == x and h in H and l in L


def test_inexact_factorization_flagged():
    s3 = FiniteGroup.from_generators([Perm.from_cycles(3, [(0, 1, 2)]), Perm.from_cycles(3, [(0, 1)])]
    )
    H = s3.subgroup([Perm.from_cycles(3, [(0, 1)])])
    w = exact_factorization(s3, H, H)
    assert not w.exact


def test_isomorphism_testing():
    z6 = FiniteGroup.from_generators([Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
    z6b = FiniteGroup.from_generators([Perm.from_cycles(5, [(0, 1), (2, 3, 4)])]
    )
    s3 = FiniteGroup.from_generators([Perm.from_cycles(3, [(0, 1, 2)]), Perm.from_cycles(3, [(0, 1)])]
    )
    assert is_isomorphic(z6, z6b)
    assert not is_isomorphic(z6, s3)


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
        assert G.is_subgroup(S) == is_sub
        assert G.is_normal(S) == exhaustive_normal(G, S)
        T = grow(sorted(S), G.identity, S)
        assert (T is not None) == is_sub
        H = FiniteGroup.from_elements(S)
        if is_sub:
            subgroups += 1
            assert closure(T) == H.elements and H.generators == T
        else:
            assert H.generators == H.elements
    assert subgroups == {"S:3": 6, "D:8": 10}[spec]


def test_is_subgroup_needs_the_identity():
    G = FiniteGroup.from_generators([Perm.from_cycles(3, [(0, 1, 2)])])
    assert not G.is_subgroup(set(G.elements) - {G.identity})
    assert not G.is_subgroup(set())
    with pytest.raises(PermError):
        G.is_subgroup({Perm.from_cycles(3, [(0, 1)])})


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
    assert A7.is_subgroup(A7.elements)
    assert calls[0] <= 8 * 2520
    calls[0] = 0
    H = FiniteGroup.from_elements(psl.elements)
    assert calls[0] <= 8 * 360
    assert closure(H.generators) == psl.elements
