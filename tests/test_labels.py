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
