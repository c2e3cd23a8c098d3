from rbgroups import families, transitive
from rbgroups.labels import _is_perfect, iso_label
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
