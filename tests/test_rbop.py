import copy
import pickle
import random

import pytest

from invariants import assert_invariants
from oracles import digit_sampler, perm_check_pair, perm_circ, rebuilt
from rbgroups import build, families, rbop, serialize, transitive
from rbgroups.classify import enumerate_rb
from rbgroups.labels import iso_label
from rbgroups.perm import FiniteGroup, Perm, PermError, exact_factorization
from rbgroups.rbop import (
    InvalidOperator,
    check_pair,
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
    B = rbop.RBOperator(group=G, table=(G.index(c),) * G.order())
    v = verify(B)
    assert not v.ok and v.witness is not None


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
    assert tilde(trivial_e(G)).table == trivial_inv(G).table
    B = s3_example()
    assert tilde(tilde(B)).table == B.table


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
        assert len(H) == 6
        B2 = from_graph(B.group, H)
        assert B2.table == B.table


def test_graph_of_trivials():
    G = s3()
    idx = {g: G.index(g) for g in G.elements}
    e = idx[G.identity]
    assert graph(trivial_e(G)) == frozenset((e, i) for i in range(6))
    assert graph(trivial_inv(G)) == frozenset((i, e) for i in range(6))


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
    # with descendent A4; the inverse retraction B(v c^k) = c^-k, the
    # splitting operator of that factorization, has descendent Z6xZ2.
    B = build.catalog_operator("a4_b2")
    G = B.group
    c = Perm.from_cycles(4, [(1, 2, 3)])
    cp = [G.identity, c, c * c]
    V = [g for g in G.elements if g.order() in (1, 2)]
    assert len(V) == 4
    w = exact_factorization(G, G.subgroup(V), G.subgroup([c]))
    Binv = build.construction(w, lambda l: G.identity, G.subgroup([G.identity]))
    assert verify(Binv).ok
    assert all(Binv(v * cp[k]) == cp[-k % 3] for v in V for k in range(3))
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


SMALL_SPECS = (
    [f"Z:{n}" for n in range(1, 13)]
    + [f"D:{n}" for n in range(2, 13, 2)]
    + ["Q:8", "Q:12", "S:3", "A:4"]
)


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_images_match_exhaustive_oracles(spec):
    """The five image sets of every operator on a group of order <= 12:
    each is a subgroup by the |S|^2 test and its generators generate exactly
    it; _normal_in and the product formula agree with the exhaustive checks
    on every ordered pair of the five."""
    from oracles import normal_in, pairwise_subgroup, product_set
    from rbgroups.perm import closure
    from rbgroups.rbop import _normal_in

    G = families.parse_group_spec(spec).group
    for B in enumerate_rb(G):
        data = images(B)
        Bt = tilde(B)
        assert set(data.im.elements) == {B(g) for g in G.elements}
        assert set(data.ker_tilde.elements) == {g for g in G.elements if Bt(g).is_identity()}
        five = (data.im, data.ker, data.im_tilde, data.ker_tilde, data.R)
        for X in five:
            assert pairwise_subgroup(X.elements)
            assert closure(X.generators) == X.elements
        assert product_set(data.im_tilde.elements, data.im.elements) == set(G.elements)
        for X in five:
            for Y in five:
                assert _normal_in(X, Y) == normal_in(X.elements, Y.elements)
                meet = set(X.elements) & set(Y.elements)
                by_formula = X.order() * Y.order() == G.order() * len(meet)
                assert by_formula == (product_set(X.elements, Y.elements) == set(G.elements))


def _oracle_images_verdict(B):
    """The first check of images() that fails on B, by exhaustive oracles;
    "ok" when all hold."""
    from oracles import normal_in, pairwise_subgroup, product_set

    G, Bt = B.group, tilde(B)
    im = {B(g) for g in G.elements}
    ker = {g for g in G.elements if B(g).is_identity()}
    im_t = {Bt(g) for g in G.elements}
    ker_t = {g for g in G.elements if Bt(g).is_identity()}
    R = im & im_t
    for name, S in (("Im(B)", im), ("ker(B)", ker), ("Im(B~)", im_t), ("ker(B~)", ker_t)):
        if not pairwise_subgroup(S):
            return f"{name} is not a subgroup"
    if not normal_in(ker_t, im):
        return "ker(B~) is not normal in Im(B)"
    if not normal_in(ker, im_t):
        return "ker(B) is not normal in Im(B~)"
    if product_set(im_t, im) != set(G.elements):
        return "G != Im(B~) Im(B)"
    if len(R) * len(ker_t) != len(im):
        return "|R| != |Im(B):ker(B~)|"
    if len(R) * len(ker) != len(im_t):
        return "|R| != |Im(B~):ker(B)|"
    return "ok"


@pytest.mark.parametrize("spec", ["D:4", "S:3"])
def test_images_verdicts_on_arbitrary_tables(spec):
    """images() on every table with B(e) = e (256 on the Klein group, 7,776
    on S3), operators or not, fails exactly where the exhaustive checks do."""
    import collections
    import itertools

    G = families.parse_group_spec(spec).group
    rest = [g for g in G.elements if not g.is_identity()]
    verdicts = collections.Counter()
    for values in itertools.product(G.elements, repeat=len(rest)):
        table = dict(zip(rest, values))
        table[G.identity] = G.identity
        B = rbop.RBOperator(group=G, table=tuple(G.index(table[g]) for g in G.elements))
        try:
            images(B)
            got = "ok"
        except InvalidOperator as exc:
            got = str(exc)
        assert got == _oracle_images_verdict(B)
        verdicts[got] += 1
    assert verdicts["ok"] == len(enumerate_rb(G))


def _pairwise_verdict(B):
    """Oracle for full verification: check_pair on every pair in canonical
    order, stopping at the first failure."""
    elems = B.group.elements
    pairs = len(elems) ** 2
    for g in elems:
        for h in elems:
            if not check_pair(B, g, h):
                detail = f"B(g)B(h)={B(g) * B(h)!r} != B(gB(g)hB(g)^-1)={B(circ(B, g, h))!r}"
                return rbop.Verdict(ok=False, pairs=pairs, witness=(g, h), detail=detail)
    return rbop.Verdict(ok=True, pairs=pairs)


def _small_pinned_specs():
    from test_classify import PINNED

    return [s for s in PINNED if families.parse_group_spec(s).group.order() <= 12]


@pytest.mark.parametrize("spec", _small_pinned_specs())
def test_row_verify_matches_pairwise_oracle(spec):
    for B in enumerate_rb(families.parse_group_spec(spec).group):
        assert verify(B) == _pairwise_verdict(B) == rbop.Verdict(ok=True, pairs=B.group.order() ** 2)


@pytest.mark.parametrize("spec", _small_pinned_specs())
def test_table_forms_match_perm_formulas(spec):
    """tilde, graph and is_splitting, read off the index table, agree with
    their Perm definitions on every operator."""
    G = families.parse_group_spec(spec).group
    for B in enumerate_rb(G):
        Bt = tilde(B)
        assert all(Bt(g) == g.inverse() * B(g.inverse()) for g in G.elements)
        assert graph(B) == frozenset((G.index(B(g)), G.index(g * B(g))) for g in G.elements)
        # splitting: Im(B~ B) is trivial, with B~ by its formula
        split = all((b.inverse() * B(b.inverse())).is_identity() for b in map(B, G.elements))
        assert is_splitting(B) == split


def _corruptions(n):
    """Every table that differs from d2n_klein(n) in exactly one entry."""
    B = build.d2n_klein(n)
    for i, old in enumerate(B.table):
        for v in range(len(B.table)):
            if v != old:
                table = B.table[:i] + (v,) + B.table[i + 1 :]
                yield rbop.RBOperator(group=B.group, table=table)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_table_checks_match_oracles_on_corruptions(n):
    """Row verify gives the pairwise verdict, witness and detail, and
    descendent_group raises exactly when the regular-representation
    oracle fails, on every single-entry corruption of d2n_klein(n)."""
    failures = 0
    for B in _corruptions(n):
        v = verify(B)
        assert v == _pairwise_verdict(B)
        try:
            descendent_group(B)
            raised = False
        except InvalidOperator:
            raised = True
        try:
            _regular_descendent_label(B)
            oracle_failed = False
        except AssertionError:
            oracle_failed = True
        assert raised == oracle_failed == (not v.ok)
        failures += not v.ok
    assert failures == 2 * n * (2 * n - 1)  # no corruption is an operator


def test_table_checks_take_few_products(monkeypatch):
    """On d2n_klein(72), each time on a fresh copy of the operator and its
    group, so that nothing is read from a kept table or verdict: full
    verify takes at most 4 |gens| |G| products and descendent_group at
    most 5,000 (pair by pair they took 62,352 and 65,416)."""
    from test_perm import _count_products

    B = build.d2n_klein(72)
    G = B.group

    def fresh():
        return rbop.RBOperator(group=rebuilt(G), table=B.table)

    calls = _count_products(monkeypatch)
    assert verify(fresh()).ok
    assert calls[0] <= 4 * len(G.generators) * G.order()
    calls[0] = 0
    descendent_group(fresh())
    assert calls[0] <= 5000


@pytest.mark.parametrize("name", ["d16", "q60", "d2n_klein(72)"])
def test_circ_rows_are_the_descendent_product(name):
    """_circ_rows, built from rows of the Cayley table and inverses only,
    gives the index of g o h = g B(g) h B(g)^-1 by Perm products."""
    B = build.catalog_operator(name)
    G = B.group
    rows = list(rbop._circ_rows(G, B.table))
    assert rows == [[G.index(circ(B, g, h)) for h in G.elements] for g in G.elements]


def _kernel_matches_the_perm_oracle(B, pairs):
    """circ, check_pair and one bound circ_kernel against the products
    and the identity by Perm products, pair by pair; the number of pairs
    where the identity fails.  circ returns a Perm, the kernel g o h as
    plain image bytes."""
    kernel = rbop.circ_kernel(B, B.group.degree)
    fails = 0
    for g, h in pairs:
        gh, (b, raw) = circ(B, g, h), kernel(g, h)
        assert type(gh) is Perm and type(raw) is bytes
        assert (B(g), gh) == (b, raw) and gh == perm_circ(B, g, h)
        ok = perm_check_pair(B, g, h)
        assert check_pair(B, g, h) == ok
        fails += not ok
    return fails


def _scrambled(B, seed):
    """B with its table shuffled: not an operator, so the identity fails
    at some pairs and holds at others."""
    table = list(B.table)
    random.Random(seed).shuffle(table)
    return rbop.RBOperator(group=B.group, table=tuple(table))


@pytest.mark.parametrize("spec", ["D:16", "A:4"])
def test_circ_kernel_matches_perm_products_on_every_pair(spec):
    """Every pair of G, on every operator of G and on a shuffled table."""
    G = families.parse_group_spec(spec).group
    pairs = [(g, h) for g in G.elements for h in G.elements]
    ops = enumerate_rb(G)
    assert all(_kernel_matches_the_perm_oracle(B, pairs) == 0 for B in ops)
    assert _kernel_matches_the_perm_oracle(_scrambled(ops[-1], 1), pairs) > 0


def test_circ_kernel_matches_perm_products_on_q60():
    B = build.catalog_operator("q60")
    pairs = [(g, h) for g in B.group.elements for h in B.group.elements]
    assert _kernel_matches_the_perm_oracle(B, pairs) == 0
    assert _kernel_matches_the_perm_oracle(_scrambled(B, 1), pairs) > 0


@pytest.mark.parametrize("n", [9, 10])
def test_circ_kernel_matches_perm_products_on_an(n):
    """2,000 seeded pairs of A_n, drawn by the per-digit decoder, on the
    A_n operator and on it with B(g) r for g of order 7 (the pairs
    where that breaks the identity are counted)."""
    B = transitive.build_an_operator(n)
    r = B.r
    bad = B._replace(proc=lambda g: B.proc(g) * r if Perm(g).order() == 7 else B.proc(g))
    draw, rng = digit_sampler(n), random.Random(n)
    pairs = [(draw(rng), draw(rng)) for _ in range(2000)]
    assert _kernel_matches_the_perm_oracle(B, pairs) == 0
    assert _kernel_matches_the_perm_oracle(bad, pairs) > 0


def test_circ_kernel_refuses_a_mismatched_degree():
    B = build.catalog_operator("s3")
    g = B.group.elements[1]
    for other in (Perm.identity(2), Perm.identity(4)):
        for pair in ((g, other), (other, g)):
            with pytest.raises(PermError, match="domain size mismatch"):
                circ(B, *pair)
            with pytest.raises(PermError, match="domain size mismatch"):
                check_pair(B, *pair)


def test_kept_results_do_not_change_the_operator():
    """images, tilde and verify keep their results on the operator, and
    it still compares equal, hashes the same and dumps the same bytes."""
    G = families.parse_group_spec("D:16").group
    table = build.catalog_operator("d16").table
    B = rbop.RBOperator(group=G, table=table)
    twin = rbop.RBOperator(group=G, table=table)
    before = (hash(B), serialize.format_operator(B), repr(B))
    assert not B._cache
    images(B), tilde(B), verify(B)
    assert len(B._cache) == 3 and not twin._cache
    assert B == twin and (hash(B), serialize.format_operator(B), repr(B)) == before
    assert hash(B) == hash(twin)


def test_groups_operators_and_records_compare_by_value():
    """A FiniteGroup equals and hashes as the tuple of its five constructor
    fields; what it keeps is neither compared nor shared.  Table operators
    are equal on an equal group and table, whatever their provenance, and
    hash as (degree, table).  Neither class takes an attribute assignment or deletion, and copy and
    pickle rebuild both through the constructor, with nothing kept.  The
    records compare and hash by value."""
    G = s3()
    H = FiniteGroup(degree=3, generators=G.generators, elements=G.elements, label="S3",
                    known_order=6)
    G.mult_table()
    assert G == H and hash(G) == hash(H) == hash((3, G.generators, G.elements, "S3", 6))
    assert G._cache and not H._cache and rebuilt(G)._cache is not rebuilt(G)._cache
    assert G != rebuilt(G, label="") and G != rebuilt(G, known_order=None)
    assert repr(H) == (
        f"FiniteGroup(degree=3, generators={G.generators!r}, elements={G.elements!r},"
        " label='S3', known_order=6)"
    )
    B = trivial_inv(G)
    twin = rbop.RBOperator(group=H, table=B.table, provenance="other")
    assert B == twin and hash(B) == hash(twin) == hash((3, B.table)) and B != trivial_e(G)
    assert repr(B) == f"RBOperator(group={G!r}, table={B.table!r}, provenance='B_inv')"
    for obj, attr in ((G, "label"), (G, "_cache"), (B, "table"), (B, "provenance"), (B, "x")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    assert verify(B) == verify(twin) == rbop.Verdict(ok=True, pairs=36)
    assert verify(B) is not verify(twin) and hash(verify(B)) == hash(verify(twin))
    for obj in (G, B):
        for copied in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert copied == obj and copied is not obj and obj._cache and not copied._cache
    assert families.dihedral(4) == families.dihedral(4) != families.dihedral(5)
    assert transitive.admissible(10) == transitive.admissible(10) != transitive.admissible(11)


def test_companion_of_the_companion_is_the_operator(monkeypatch):
    """tilde keeps B on its result, so tilde(tilde(B)) is B without a second
    computation."""
    d16 = build.catalog_operator("d16")
    calls = []
    compute = rbop.tilde.__wrapped__
    monkeypatch.setattr(rbop.tilde, "__wrapped__", lambda B: calls.append(B) or compute(B))
    B = rbop.RBOperator(group=d16.group, table=d16.table)
    assert tilde(tilde(B)) is B and calls == [B]


def test_replace_starts_with_nothing_kept():
    """An operator rebuilt through the constructor from B's fields, some
    changed, has none of B's kept images, companion or verdict."""
    B = build.catalog_operator("d16")
    assert verify(B).ok and images(B) and tilde(B)
    bad = rebuilt(B, table=(B.table[1],) + B.table[1:])
    assert not bad._cache and not verify(bad).ok
