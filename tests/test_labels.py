import time

import pytest

from rbgroups import families, gf, transitive
from rbgroups.labels import _is_perfect, direct_product, iso_label
from rbgroups.perm import FiniteGroup, Perm


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

    labels._reference_catalog.cache_clear()
    monkeypatch.setattr(labels.invariant_tuple, "__wrapped__", counted)
    try:
        groups = [families.parse_group_spec(s).group for s in ("D:8", "Q:8", "Z:8", "D:16", "Q:16")]
        first = [iso_label(G) for G in groups]
        assert first == ["D8", "Q8", "Z8", "D16", "Q16"]
        refs = [R for order in (8, 16) for _, R in labels._reference_catalog()[order]]
        assert [iso_label(G) for G in groups] == first
        assert len(computed) == len({id(G) for G in computed}) == len(refs) + len(groups)
        assert {id(G) for G in computed} == {id(G) for G in refs + groups}
    finally:
        labels._reference_catalog.cache_clear()


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


def test_normal_sylow3_reads_the_spectrum():
    """The spectrum test agrees with growing the elements of order 1 or 3
    and testing them for normality by every element of G, on 19 groups of
    order 36 and 72 where both answers occur."""
    from oracles import exhaustive_normal

    from rbgroups.labels import _normal_sylow3

    verdicts = {}
    for name, G in _groups_of_order_36_and_72().items():
        assert G.order() in (36, 72) and not G.is_abelian(), name
        E = [e for e in G.elements if 3 % e.order() == 0]
        verdicts[name] = len(E) == 9 and exhaustive_normal(G, E)
        assert _normal_sylow3(G) == verdicts[name], name
    assert sum(verdicts.values()) == 9 and len(verdicts) == 19
