import time

import pytest

from rbgroups import families, gf, transitive
from rbgroups.labels import _is_perfect, direct_product, iso_label
from rbgroups.perm import FiniteGroup, Perm, is_isomorphic


def test_is_perfect_takes_the_normal_closure():
    """The commutators of the two 3-cycles alone generate a proper subgroup
    of A5; their normal closure is A5."""
    a5 = FiniteGroup.from_generators(
        [Perm.from_cycles(5, [(0, 1, 2)]), Perm.from_cycles(5, [(2, 3, 4)])]
    )
    assert a5.order() == 60 and _is_perfect(a5)
    assert _is_perfect(families.alternating(7).group)
    psl = transitive.sharply3(9).psl
    assert psl.order() == 360 and _is_perfect(psl)
    assert not _is_perfect(families.symmetric(4).group)
    assert iso_label(FiniteGroup.from_elements(psl.elements)) == "PSL(2,9)"


def test_a5_is_the_perfect_group_of_order_60():
    from rbgroups import build

    a5 = families.alternating(5).group
    assert iso_label(a5) == "A5"
    # A5 acting on the six points of the projective line over GF(5)
    psl25 = FiniteGroup.from_generators(
        [Perm.from_cycles(6, [(0, 1, 2, 3, 4)]), Perm.from_cycles(6, [(0, 5), (1, 4)])]
    )
    assert psl25.order() == 60 and iso_label(psl25) == "A5"
    for G in (build.catalog_operator("q60").group, families.dihedral(30).group):
        assert G.order() == 60 and iso_label(G) != "A5"


def test_each_group_has_its_invariant_computed_once(monkeypatch):
    """invariant_tuple is kept on its group: labelling groups of order 8
    and 16 twice computes each catalog reference's invariant, and each
    labelled group's, once.  The catalog is rebuilt, so its references
    start with nothing kept."""
    from rbgroups import labels

    computed = []
    compute = labels.invariant_tuple.__wrapped__

    def counted(G):
        computed.append(G)
        return compute(G)

    labels._references.cache_clear()
    monkeypatch.setattr(labels.invariant_tuple, "__wrapped__", counted)
    try:
        groups = [families.parse_group_spec(s).group for s in ("D:8", "Q:8", "Z:8", "D:16", "Q:16")]
        first = [iso_label(G) for G in groups]
        assert first == ["D8", "Q8", "Z8", "D16", "Q16"]
        refs = [R for order in (8, 16) for _, R in labels._references(order)]
        assert [iso_label(G) for G in groups] == first
        assert len(computed) == len({id(G) for G in computed}) == len(refs) + len(groups)
        assert {id(G) for G in computed} == {id(G) for G in refs + groups}
    finally:
        labels._references.cache_clear()


def test_labelling_builds_only_the_references_of_its_order(monkeypatch):
    """Labelling A5 (order 60, no reference) builds no reference;
    labelling D8 builds Z8 and the four other references of order 8 only,
    with the cyclic factors of the products.  The catalog is rebuilt, with
    each builder and each cyclic group recorded."""
    from rbgroups import labels

    built, cyclic = [], labels._cyclic

    def counted(label, build):
        return lambda: built.append(label) or build()

    monkeypatch.setattr(labels, "_cyclic", lambda n: built.append(f"Z{n}") or cyclic(n))
    catalog = {o: tuple((x, counted(x, b)) for x, b in refs) for o, refs in labels._CATALOG.items()}
    monkeypatch.setattr(labels, "_CATALOG", catalog)
    labels._references.cache_clear()
    try:
        a5, d8 = families.alternating(5).group, families.dihedral(4).group
        assert (iso_label(a5), built) == ("A5", [])
        assert iso_label(d8) == "D8"
        assert built == ["Z8", "Z2xZ4", "Z2", "Z4", "Z2xZ2xZ2", "Z2", "D8", "Q8"]
    finally:
        labels._references.cache_clear()


def _psl28() -> FiniteGroup:
    """PSL(2,8) on the projective line over GF(8), points 0..7 the field
    elements and 8 the point at infinity, generated by x -> x + 1,
    x -> w x and x -> 1/x."""
    F = gf.make_field(2, 3)
    inf = F.size

    def on_line(f):
        return Perm(tuple(f(x) for x in range(F.size)) + (inf,))

    flip = [inf] + [F.inv(x) for x in range(1, F.size)] + [0]
    return FiniteGroup.from_generators(
        [on_line(lambda x: F.add(x, 1)), on_line(lambda x: F.mul(F.w, x)), Perm(tuple(flip))]
    )


@pytest.mark.slow
def test_perfect_order_is_not_a_name():
    """PSL(2,8) x A6 is perfect of order 181,440 = |A9| and is not A9, so
    it gets the invariant string.  Budget 30 s; about 5 s."""
    start = time.perf_counter()
    psl = _psl28()
    assert psl.order() == 504 and _is_perfect(psl)
    G = direct_product(psl, families.alternating(6).group)
    assert G.order() == 181440 and _is_perfect(G)
    assert iso_label(G).startswith("G[order=181440,abelian=False,spectrum=")
    assert time.perf_counter() - start < 30


def _groups_of_order_36_and_72():
    c, d, q = families.cyclic, families.dihedral, families.generalized_quaternion
    s3, a4 = families.symmetric(3).group, families.alternating(4).group
    sg = transitive.sharply2(2, 3, 1)
    x = direct_product
    return {
        "D36": d(18).group, "D72": d(36).group, "Q36": q(9).group, "Q72": q(18).group,
        "L(2,3,1)": sg.group, "FS1": sg.s1, "FS2": sg.s2, "FS3": sg.s3,
        "S3xS3": x(s3, s3), "A4xZ3": x(a4, c(3).group), "Z3xQ12": x(c(3).group, q(3).group),
        "S3xZ6": x(s3, c(6).group), "Z9xQ8": x(c(9).group, q(2).group),
        "Z3xZ3xQ8": x(x(c(3).group, c(3).group), q(2).group), "S3xA4": x(s3, a4),
        "S3xS3xZ2": x(x(s3, s3), c(2).group), "A4xZ6": x(a4, c(6).group),
        "S4xZ3": x(families.symmetric(4).group, c(3).group), "Z9xD8": x(c(9).group, d(4).group),
    }


def test_shape_names_are_proved():
    """On 19 groups of order 36 and 72, nine of them with a normal Sylow
    3-subgroup, exactly FS1, FS2 and FS3 are (Z3xZ3):Z4 and exactly
    L(2,3,1) is (Z3xZ3):Q8.  Z3xQ12 and Z3xZ3xQ8 also have a normal Z3xZ3
    and elements of order 4, and Z3xZ3xQ8 a Q8, yet they are not those
    groups, so they keep their invariant strings."""
    from oracles import exhaustive_normal

    groups = _groups_of_order_36_and_72()
    threes = {n: [e for e in G.elements if 3 % e.order() == 0] for n, G in groups.items()}
    normal = [n for n, G in groups.items() if len(threes[n]) == 9 and exhaustive_normal(G, threes[n])]
    assert len(groups) == 19 and len(normal) == 9
    assert all(G.order() in (36, 72) and not G.is_abelian() for G in groups.values())
    names = {name: iso_label(G) for name, G in groups.items()}
    assert sorted(n for n, label in names.items() if label == "(Z3xZ3):Z4") == ["FS1", "FS2", "FS3"]
    assert [n for n, label in names.items() if label == "(Z3xZ3):Q8"] == ["L(2,3,1)"]
    assert names["Z3xQ12"] == "G[order=36,abelian=False,spectrum=1:1,2:1,3:8,4:6,6:8,12:12]"
    assert names["Z3xZ3xQ8"] == "G[order=72,abelian=False,spectrum=1:1,2:1,3:8,4:6,6:8,12:48]"


def test_order_16_catalog_is_complete():
    """The catalog's 14 groups of order 16 are pairwise non-isomorphic, so
    they are all 14 groups of that order, and each is named by its own
    entry.  (Z2xZ2):Z4 and Z4oD8 share their invariant tuple; each is also
    named when built another way: Z4oD8 as Q8 in its right regular
    representation with left multiplication by an element of order 4,
    and (Z2xZ2):Z4 on 8 points, c swapping the factors on 0..3 and
    cycling 4..7."""
    from rbgroups import labels

    refs = labels._references(16)
    assert len(refs) == 14
    for i, (name, R) in enumerate(refs):
        assert iso_label(R) == name
        assert not any(is_isomorphic(R, S) for _, S in refs[i + 1 :]), name
    Q = families.generalized_quaternion(2).group
    T, a = Q.mult_table(), Q.index(Q.generators[0])
    right = [Perm(T[x][Q.index(g)] for x in range(8)) for g in Q.generators]
    pauli = FiniteGroup.from_generators(right + [Perm(T[a][x] for x in range(8))])
    flip, swap = Perm([1, 0, 3, 2, 4, 5, 6, 7]), Perm([0, 2, 1, 3, 5, 6, 7, 4])
    klein_z4 = FiniteGroup.from_generators([flip, swap])
    assert labels.invariant_tuple(pauli) == labels.invariant_tuple(klein_z4)
    assert (iso_label(pauli), iso_label(klein_z4)) == ("Z4oD8", "(Z2xZ2):Z4")


def test_is_isomorphic_agrees_with_the_dict_search():
    """is_isomorphic on Cayley tables agrees with the search by Perm
    products on element dicts on every pair of the order-16 catalog and of
    the 19 groups of order 36 and 72."""
    from oracles import dict_is_isomorphic

    from rbgroups import labels

    order16 = [R for _, R in labels._references(16)]
    for groups in (order16, list(_groups_of_order_36_and_72().values())):
        for i, G in enumerate(groups):
            for H in groups[i:]:
                assert is_isomorphic(G, H) == dict_is_isomorphic(G, H)


def test_a_name_is_an_isomorphism_type():
    """Two groups with the same name that is not an invariant string are
    isomorphic: over the catalog, the 19 groups of order 36 and 72, and
    the five images groups and the descendent group of every operator on
    the PINNED groups (each group compared with the first of its name)."""
    from test_classify import PINNED

    from rbgroups import labels
    from rbgroups.classify import enumerate_rb
    from rbgroups.rbop import descendent_group, images

    orders = sorted({*range(1, 17), *labels._CATALOG})
    groups = [R for order in orders for _, R in labels._references(order)]
    groups += _groups_of_order_36_and_72().values()
    for spec in PINNED:
        for B in enumerate_rb(families.parse_group_spec(spec).group):
            groups += [*images(B), descendent_group(B)[0]]
    first, seen = {}, set()
    for G in groups:
        name = iso_label(G)
        if name.startswith("G[") or (G.degree, G.elements) in seen:
            continue
        seen.add((G.degree, G.elements))
        assert is_isomorphic(G, first.setdefault(name, G)), name
    assert len(first) > 40
