import functools
import hashlib
import time

import pytest

from oracles import (
    ORACLE_CAP,
    all_moves_classes,
    lattice_graph_masks,
    lemma3_shape,
    oracle_enumerate,
    per_operator_report,
    rebuilt,
)
from rbgroups import build, classify, families, rbop, transitive
from rbgroups.labels import direct_product, iso_label
from rbgroups.perm import closure, grow, small_generating_tuple
from rbgroups.rbop import descendent_group, graph, is_splitting, tilde


def _by_graph(ops):
    return {B.table for B in ops}


ORACLE_SPECS = (
    [f"Z:{n}" for n in range(1, ORACLE_CAP + 1)]
    + [f"D:{n}" for n in range(2, ORACLE_CAP + 1, 2)]
    + ["Q:8", "S:3"]
)

# Operator count and sha256 of repr(sorted(table keys)) for every D/Q/Z/S/A
# group of order <= 24, recorded with the element-by-element closure search
# that the coset search replaced.
PINNED = {
    "Z:1": (1, "78fce9491f4b0e3b895728f3c6efe71e16e4ae77f5f6db9148e6e0584bc5fd42"),
    "Z:2": (2, "6eb681965c5b82a90cca16c8bdf17656f2924a055ac074ea7f4c45a594d0b76a"),
    "Z:3": (3, "bc0ae902c5f82a60c0897cd2552ebf30bea58ecfc15412c3bed1a709c3bf7dee"),
    "Z:4": (4, "431f0b32eeb093056125fe5fce0494c96202fc6e630c1184ca81a7bbe5893420"),
    "Z:5": (5, "9c204860cddbda2dc03b9d8be5a73015f0e1ffd076e0f0ecc610782c38a5610b"),
    "Z:6": (6, "441868969c292b41fea2a99130a7d56ec94cb1bc8fe00677c070ad17d9734a32"),
    "Z:7": (7, "913764d077c439ac6726dddb46e7018c0d5c5e0508f53bd780fd2c9a31d4873a"),
    "Z:8": (8, "bd19bf31e9ea70b12a6a4795c99369fdb8725ec91650203dc7b9272d7b29027f"),
    "Z:9": (9, "8d01059569b5fbaac965b76d95d0fc3c72b64b078c34c5472e0ddfe734f2a3f6"),
    "Z:10": (10, "5779bd75689ef10138762f3ad89a8fae472bdd3bfe6934bcc92e8be458175704"),
    "Z:11": (11, "5c3e5824c8eec2d13fa7e474fd13de52bd4fcec88d803e5ab958d3be81a1ed4f"),
    "Z:12": (12, "bdddcc0f5f55ac0c8aac74767fafadcb76b8651549c6f598fe269658a51ff6ab"),
    "Z:13": (13, "b314b67c39736c6c15163011e46d27e908e346e18d46de9b1ed2e514c4f3705e"),
    "Z:14": (14, "6163044bd4d341df00270f752622a40758752cbc698724242e522bf7000ce0fe"),
    "Z:15": (15, "d73ae503337ae58748bd09a803a7c4978e8da161c8204afea954aca5d1aa3b2c"),
    "Z:16": (16, "79724e6b548cd6d412e461e765ef3e97fd1d28ca65c17064a28821988d6325df"),
    "Z:17": (17, "2f3499db6025451134d6f1b74a215457da903870b852bc3f1d90e5c0afefd21a"),
    "Z:18": (18, "3b79ce32db6f9f2c9a5d324464494aecdbb0cd04804073c090abff3a71a063a5"),
    "Z:19": (19, "4407b1678af5ac9bfb1aa4c19e0e97fa2b7f5756005ced48e6ec846ea2b7e285"),
    "Z:20": (20, "6ede3e6d2f55903760a855e409e4179a98e4a6d940d14c7515c17fb4645661e9"),
    "Z:21": (21, "0dad41bc16bbf31d937f0177a4e9e37ebfd1ad5d3017d9a804b1175871ed9e71"),
    "Z:22": (22, "a2eb9c8b3ed813e1a2eb7e1f80e93fe0d4db6e9108e322b9d2f890f81793a6af"),
    "Z:23": (23, "5ef881278605b071060776ce5acd48226354c56a3c18fa0fd0cf470828b96621"),
    "Z:24": (24, "f1e9d38fa183dd46a2fb54c4dedd7172ddd077f3663e99ad4941634d8c62ebda"),
    "D:2": (2, "6eb681965c5b82a90cca16c8bdf17656f2924a055ac074ea7f4c45a594d0b76a"),
    "D:4": (16, "7d0bec6bf8ba1865bbfdac37bfc8fc0107173c811e27afc96a20f502d98e1fed"),
    "D:6": (8, "f41bcab8b6b8457475cf9051dbf990d4a5a607473af6daaf72998cc957f90c11"),
    "D:8": (56, "61100d44507010a174abec9984ea103866e9527a68294c233ed728ca51b0fce4"),
    "D:10": (12, "4e1983443e793b091318731264a000c7e60caa51424cca7056b574225ac64ffe"),
    "D:12": (80, "d937f12b03d6c836ccdb9ca6eefb89d86d50537649c4a405d8d17f52cc5df0ff"),
    "D:14": (16, "81216e9e216c7ede0e2bd4af6c090c5ab7fd0fd71d4f7066aa2317d66a64233d"),
    "D:16": (136, "e1ad6808a0e1da802ec18b7b5d1854dad3c3b1e2ed1cdf58766a8b6c998d7d7b"),
    "D:18": (20, "6afef230b194af3fb47a0aee0b89cd605a0bde9817aa51a0c040d141e2e161a4"),
    "D:20": (128, "021243d977f98c7966f285aff49da569ab53de71760d7f30fe7e7cf2d6599f57"),
    "D:22": (24, "af58426df2b66ffdc2314fce2ee831db84e3b0e68712cb5a0a811cf23b1bad3a"),
    "D:24": (288, "8e44a96596884879acc1285de1361a318e07c6dd3d7983ffe324628a7c12d085"),
    "Q:8": (8, "bd3ef66c09806482f3ec52eb189cdf1b7a0cb127a7b728d0cfaa208e17a0cc8d"),
    "Q:12": (16, "6ef082bb0cadb8a29fa150ae1637d492e3d1d87899b5bbeb3e57f3d33e561462"),
    "Q:16": (8, "370d0f30ec35c55d1898cf322857e16c009ba180377d6bc23a08cb166b0d5b7e"),
    "Q:20": (24, "2586c8973079f4c54359c15bf5f12939254f71114865b18c54038d10d8001fad"),
    "Q:24": (32, "1f7c3df0998e9611b531bf0b5aa26768cda4b8b4164471b9fc7e84d543817a85"),
    "S:3": (8, "f41bcab8b6b8457475cf9051dbf990d4a5a607473af6daaf72998cc957f90c11"),
    "S:4": (100, "6b65fe1204620c2eceead75fb5fb70d15267643dfaeadd53d111966c7038fe40"),
    "A:4": (18, "25249c57a5d32c3552a288d317bbebb2fe64259901cd9841a2e2bbb2dde98248"),
}


# small_generating_tuple of each pinned group, as canonical element indices,
# recorded with the repeated breadth-first closures that grow() replaced.
SMALL_GENERATING_TUPLES = {
    "Z:1": (0,),
    "Z:2": (1,),
    "Z:3": (1,),
    "Z:4": (1,),
    "Z:5": (1,),
    "Z:6": (1,),
    "Z:7": (1,),
    "Z:8": (1,),
    "Z:9": (1,),
    "Z:10": (1,),
    "Z:11": (1,),
    "Z:12": (1,),
    "Z:13": (1,),
    "Z:14": (1,),
    "Z:15": (1,),
    "Z:16": (1,),
    "Z:17": (1,),
    "Z:18": (1,),
    "Z:19": (1,),
    "Z:20": (1,),
    "Z:21": (1,),
    "Z:22": (1,),
    "Z:23": (1,),
    "Z:24": (1,),
    "D:2": (1,),
    "D:4": (1, 2),
    "D:6": (3, 1),
    "D:8": (3, 1),
    "D:10": (3, 1),
    "D:12": (3, 1),
    "D:14": (3, 1),
    "D:16": (3, 1),
    "D:18": (3, 1),
    "D:20": (3, 1),
    "D:22": (3, 1),
    "D:24": (3, 1),
    "Q:8": (1, 4),
    "Q:12": (1, 6),
    "Q:16": (1, 8),
    "Q:20": (1, 10),
    "Q:24": (1, 12),
    "S:3": (3, 1),
    "S:4": (9, 10),
    "A:4": (1, 4),
}


@pytest.mark.parametrize("spec", list(SMALL_GENERATING_TUPLES))
def test_small_generating_tuple_is_pinned(spec):
    G = families.parse_group_spec(spec).group
    gens = small_generating_tuple(G)
    assert tuple(G.index(g) for g in gens) == SMALL_GENERATING_TUPLES[spec]
    assert closure(gens) == G.elements


@pytest.mark.parametrize("spec", list(PINNED) + ["A:5", "S:5", "D:48"])
def test_small_generating_tuple_is_greedy_up_to_two(spec):
    """Where grow() over the elements by decreasing order takes at most two
    elements, as on each of these groups, its tuple is kept."""
    G = families.parse_group_spec(spec).group
    orders = G.order_table()
    greedy = grow(sorted(G.elements, key=lambda e: (-orders[e], e)), G.identity, G._element_set())
    assert len(greedy) <= 2
    assert small_generating_tuple(G) == greedy


def test_small_generating_tuple_takes_a_pair_past_two():
    """Greedy takes three elements of order 5 on A6; the first pair from
    the first of them that generates A6 is taken instead.  Z2 x Z2 x Z2
    has no generating pair and keeps greedy's three elements."""
    from rbgroups.labels import direct_product

    a6 = families.parse_group_spec("A:6").group
    a, x = small_generating_tuple(a6)
    assert a.order() == 5 and closure([a, x]) == a6.elements
    klein = families.klein().group
    z2cubed = direct_product(families.cyclic(2).group, klein)
    assert len(small_generating_tuple(z2cubed)) == 3


def _pairwise_table(G):
    idx = {e: i for i, e in enumerate(G.elements)}
    return [[idx[a * b] for b in G.elements] for a in G.elements]


@pytest.mark.parametrize("spec", list(PINNED) + ["d2n_klein(72)", "q60"])
def test_grown_mult_table_matches_pairwise_table(spec):
    """mult_table, grown from the generators, is the table filled pair by
    pair.  A catalog operator's group has its table from the operator's
    check, so the table is grown afresh on a copy of the group."""
    if spec in PINNED:
        G = families.parse_group_spec(spec).group
    else:
        G = rebuilt(build.catalog_operator(spec).group)
    assert G.mult_table() == _pairwise_table(G)


@pytest.mark.parametrize("spec", list(PINNED))
def test_inverses_match_perm_inverses(spec):
    G = families.parse_group_spec(spec).group
    assert G.inverses() == [G.index(g.inverse()) for g in G.elements]


def test_mult_table_needs_generating_generators():
    from rbgroups.perm import FiniteGroup, PermError

    D8 = families.dihedral(4)
    G = FiniteGroup(degree=4, generators=(D8.r,), elements=D8.group.elements)
    with pytest.raises(PermError, match="do not generate"):
        G.mult_table()


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_lattice_matches_oracle(spec):
    G = families.parse_group_spec(spec).group
    fast = classify.enumerate_rb(G)
    slow = oracle_enumerate(G)
    assert _by_graph(fast) == _by_graph(slow)


@pytest.mark.parametrize("spec", list(PINNED))
def test_enumeration_is_pinned(spec):
    ops = classify.enumerate_rb(families.parse_group_spec(spec).group)
    digest = hashlib.sha256(repr(sorted(B.table for B in ops)).encode()).hexdigest()
    assert (len(ops), digest) == PINNED[spec]


# The same digest for groups above the default cap, enumerated with the cap
# raised to |G|: operator count, sha256 and number of splitting operators.
PINNED_ABOVE_CAP = {
    "A:5": (62, "2d79a8a18399dcec37709ba40d0eef133ed580f89ed19b588a9a18449fce278b", 62),
    "D:32": (264, "a1f1cbce39c94f1cfe7ae966cf188762bc4b6f99331346286813cf8791bfc10f", 66),
    "D:48": (736, "1f7d121d36764509d9eac728a13b277eefaf2e8b3b2055b70193c641e0646734", 168),
    "S:5": (652, "bec44995d9af55c3684d4e86a226cde5cad659b2eed643ad0bc656f3eeb97c78", 322),
}


@pytest.mark.parametrize("spec", [
    "A:5", "D:32", "D:48", pytest.param("S:5", marks=pytest.mark.slow),
])
def test_enumeration_above_the_cap_is_pinned(spec):
    G = families.parse_group_spec(spec).group
    ops = classify.enumerate_rb(G, cap=G.order())
    digest = hashlib.sha256(repr(sorted(B.table for B in ops)).encode()).hexdigest()
    split = sum(is_splitting(B) for B in ops)
    assert (len(ops), digest, split) == PINNED_ABOVE_CAP[spec]


@pytest.mark.parametrize("spec", list(PINNED))
def test_section_search_matches_lattice_search(spec):
    """The graphs enumerate_rb finds from sections of G's subgroup lattice
    are the ones a subgroup search in G x G finds."""
    G = families.parse_group_spec(spec).group
    n = G.order()
    masks = sorted(
        sum(1 << (a * n + b) for a, b in graph(B)) for B in classify.enumerate_rb(G)
    )
    assert masks == lattice_graph_masks(G)


# Operator count and sha256 of repr(sorted(table keys)) for direct products,
# folded left by labels.direct_product: on these the quotients A/A0 have many
# cosets of each order, so each generator has many candidate images.
# Recorded with the search that grew each graph on the pair index of G x G.
# The first five run in tier-1, the last two in the slow suite.
PRODUCTS = {
    ("Z:4", "Z:4"): (256, "d38a9f4d374bf897c921eee5894625b2efee1075a925a36deac20fe5127e6d3b"),
    ("Z:2", "Z:8"): (64, "1e9db65d9279396c517618a4f78e383bc01bf39c121599206ee77fe3d87476a6"),
    ("Z:2", "Z:2", "Z:2"): (512, "6cf81cd6f137a0be7cd3efa283e04a532928954e20c5052aad7cd82cc6d4daa3"),
    ("Z:3", "Z:3"): (81, "d505d601c71f465cac7929581707e6e58d6292d591e23671ebfc86bad2573207"),
    ("S:3", "Z:2"): (80, "71f21e0ed02dc4527bebc71c7dbefa95ed9b0bb01bd46a78ee6662b86fe108a6"),
    ("Z:2",) * 4: (65536, "5f626c5257f45e69fede7af556ddd203e3767917fe663ae6620643e18c362a6b"),
    ("Z:3",) * 3: (19683, "733fce72e54a12a654f8fd87c874fd6ab929b9a70eb76cb3aa8a978adc517c53"),
}


def _product(specs):
    return functools.reduce(direct_product, [families.parse_group_spec(s).group for s in specs])


def _digest(ops):
    return hashlib.sha256(repr(sorted(B.table for B in ops)).encode()).hexdigest()


@pytest.mark.parametrize("specs", list(PRODUCTS)[:5], ids=" x ".join)
def test_products_are_pinned(specs):
    """The pinned operators, and the graphs a subgroup search in G x G
    finds."""
    G = _product(specs)
    n = G.order()
    ops = classify.enumerate_rb(G)
    assert (len(ops), _digest(ops)) == PRODUCTS[specs]
    masks = sorted(sum(1 << (a * n + b) for a, b in graph(B)) for B in ops)
    assert masks == lattice_graph_masks(G)


@pytest.mark.slow
@pytest.mark.parametrize("specs,budget", [(("Z:2",) * 4, 4.4), (("Z:3",) * 3, 1.3)],
                         ids=["Z2^4", "Z3^3"])
def test_large_products_are_pinned(specs, budget):
    """Budgets 4.4 s and 1.3 s: twice the median enumerate_rb times of 10
    runs on a 2-core machine, 2.22 s for Z2^4 and 0.64 s for Z3^3 (4.13 s
    and 0.94 s, alternating with them, for the search that grew each
    graph on the pair index of G x G)."""
    G = _product(specs)
    start = time.perf_counter()
    ops = classify.enumerate_rb(G, cap=G.order())
    assert time.perf_counter() - start < budget
    assert (len(ops), _digest(ops)) == PRODUCTS[specs]


def test_enumeration_takes_few_walks(monkeypatch):
    """At most 620 homomorphism walks for D:24: the search makes 561.
    With A's own generators in place of a generating tuple of A/A0 taken
    by decreasing order it made 941 (1,051 when it also walked candidate
    images already taken), and the search that grew each graph on the
    pair index of G x G made 1,591 Grower.add calls."""
    calls = [0]
    walk = classify.extend_homomorphism

    def counted(*args):
        calls[0] += 1
        return walk(*args)

    monkeypatch.setattr(classify, "extend_homomorphism", counted)
    assert len(classify.enumerate_rb(families.parse_group_spec("D:24").group)) == 288
    assert calls[0] <= 620


@pytest.mark.parametrize("spec,graphs", [("D:16", 136), ("S:4", 100), ("D:24", 288)])
def test_each_graph_is_kept_once(monkeypatch, spec, graphs):
    """enumerate_rb keeps a closure only under its own section pair, so
    the closures it keeps are the graphs, with no repeats; from_graph is
    called once per kept closure.  Before the three prunes, D:24 kept 821
    closures for its 288 graphs."""
    made = []
    make = classify.from_graph

    def counted(G, pairs):
        made.append(pairs)
        return make(G, pairs)

    monkeypatch.setattr(classify, "from_graph", counted)
    ops = classify.enumerate_rb(families.parse_group_spec(spec).group)
    assert len(made) == len(set(made)) == len(ops) == graphs


def test_a5_operators_all_split():
    """A_5 has 62 operators, all splitting (R trivial), and 5 is not an
    admissible degree: the non-splitting construction does not reach A_5."""
    G = families.parse_group_spec("A:5").group
    ops = classify.enumerate_rb(G, cap=60)
    assert len(ops) == 62
    assert all(rbop.images(B).R.order() == 1 for B in ops)
    assert not transitive.admissible(5).admissible


@pytest.mark.slow
def test_a6_operators_are_the_two_trivial_ones():
    """Budget 16 s: twice the 8 s measured on a 2-core machine, whose
    speed swings up to 2x (26 s before the product-formula and coset-order
    prunes).  A_6 has exactly 2 operators, g -> e and g -> g^-1, both
    splitting, and 6 is not an admissible degree."""
    start = time.perf_counter()
    G = families.parse_group_spec("A:6").group
    ops = classify.enumerate_rb(G, cap=360)
    assert time.perf_counter() - start < 16
    assert _by_graph(ops) == {rbop.trivial_e(G).table, rbop.trivial_inv(G).table}
    assert all(is_splitting(B) for B in ops)
    assert not transitive.admissible(6).admissible


def test_s3_enumeration():
    G = families.parse_group_spec("S:3").group
    ops = classify.enumerate_rb(G)
    # the two trivial operators plus one splitting operator per ordered
    # exact factorization Z3 * Z2 (three reflections, both orders)
    assert len(ops) == 8
    assert all(is_splitting(B) for B in ops)
    assert build.catalog_operator("s3").table in _by_graph(ops)


def test_z2_operators():
    G = families.parse_group_spec("Z:2").group
    ops = classify.enumerate_rb(G)
    # only B_e and B_inv = identity-as-table: on Z2, g^-1 = g so both
    # trivial operators plus the identity map g -> g
    keys = _by_graph(ops)
    assert rbop.trivial_e(G).table in keys
    assert rbop.trivial_inv(G).table in keys


# The groups on which the facts classify reads off one representative per
# class are checked on every operator: A:4, the D and Q groups of PINNED,
# and D:32.
CLASS_FACT_SPECS = ["A:4"] + [s for s in PINNED if s[0] in "DQ"] + ["D:32"]


def test_equivalence_preserves_invariants():
    """Every fact classify reads off a class representative is the same on
    every member of the class, on each group of CLASS_FACT_SPECS (about
    1.8 s in all)."""
    for spec in CLASS_FACT_SPECS:
        G = families.parse_group_spec(spec).group
        ops = classify.enumerate_rb(G, cap=G.order())
        for cls in classify.equivalence_classes(G, ops):
            facts = {
                (
                    is_splitting(B),
                    descendent_group(B)[1],
                    rbop.kernel_invariant(B),
                    iso_label(rbop.images(B).R),
                    rbop.images(B).R.order(),
                    build.reconstruct(B) is not None,
                )
                for B in cls
            }
            assert len(facts) == 1, spec


@pytest.mark.parametrize("spec", CLASS_FACT_SPECS)
def test_classify_matches_the_per_operator_report(spec):
    """classify's totals and conformance flags, read off its classes, are
    those computed on every operator."""
    G = families.parse_group_spec(spec).group
    report = classify.classify(G, cap=G.order())
    expected = per_operator_report(G, classify.enumerate_rb(G, cap=G.order()))
    assert (report.total, report.splitting, report.non_splitting, report.conformance) == expected


def test_a4_class_structure():
    G = families.parse_group_spec("A:4").group
    ops = classify.enumerate_rb(G)
    assert len(ops) == 18
    classes = classify.equivalence_classes(G, ops)
    assert len(classes) == 3
    trivial_keys = {rbop.trivial_e(G).table, rbop.trivial_inv(G).table}
    nontrivial = [c for c in classes if not trivial_keys & _by_graph(c)]
    assert len(nontrivial) == 2
    split = [c for c in nontrivial if is_splitting(c[0])]
    nonsplit = [c for c in nontrivial if not is_splitting(c[0])]
    assert len(split) == 1 and len(nonsplit) == 1
    assert iso_label(rbop.images(nonsplit[0][0]).R) == "Z3"


@pytest.mark.parametrize("spec", list(PINNED) + [
    "A:5", "D:32", pytest.param("D:48", marks=pytest.mark.slow),
    pytest.param("S:5", marks=pytest.mark.slow),
])
def test_generator_moves_match_all_moves(spec):
    """equivalence_classes, grown from generators of Aut(G) and the swap
    alone, partitions the operators as the closure under all
    |Aut(G)| + |G| + 1 moves does, class by class and in the same order."""
    G = families.parse_group_spec(spec).group
    ops = classify.enumerate_rb(G, cap=G.order())

    def tables(classes):
        return [[B.table for B in cls] for cls in classes]

    assert tables(classify.equivalence_classes(G, ops)) == tables(all_moves_classes(G, ops))


@pytest.mark.parametrize("drop", range(8))
def test_equivalence_classes_detect_a_missing_operator(drop):
    G = families.parse_group_spec("S:3").group
    ops = classify.enumerate_rb(G)
    assert len(ops) == 8
    with pytest.raises(AssertionError, match="outside the enumerated operators"):
        classify.equivalence_classes(G, ops[:drop] + ops[drop + 1 :])


def test_tilde_stays_within_class():
    G = families.parse_group_spec("S:3").group
    ops = classify.enumerate_rb(G)
    classes = classify.equivalence_classes(G, ops)
    for cls in classes:
        keys = _by_graph(cls)
        for B in cls:
            assert tilde(B).table in keys


def test_classify_report_d6():
    report = classify.classify(families.parse_group_spec("D:6").group)
    assert report.non_splitting == 0
    assert report.splitting == report.total
    assert "non_splitting: 0" in "\n".join(report.lines())


def test_classify_report_conformance_d8():
    report = classify.classify(families.parse_group_spec("D:8").group)
    assert report.total == 56
    for cls in report.classes:
        if not cls.splitting:
            assert cls.r_label in ("Z2", "Z2xZ2")
    assert all(report.conformance.values())


def test_reconstruct_rebuilds_the_d16_example():
    B = build.catalog_operator("d16")
    rebuilt = build.reconstruct(B)
    assert lemma3_shape(B) and rebuilt == B and rebuilt is not B


def _lemma3_shape_without_meet(B):
    """lemma3_shape with its ker meet Im = {e} test left out, each branch
    read off images(C) and tilde(C) for C = B and C = B~ directly, and the
    homomorphism test made on every pair."""
    for C in (B, tilde(B)):
        im, Ct = rbop.images(C), tilde(C)
        rset = set(im.R.elements)
        if (
            im.R.is_abelian()
            and im.ker.order() * im.im.order() == B.group.order()
            and all(Ct(y) in rset for y in im.im.elements)
            and all(Ct(y * z) == Ct(y) * Ct(z) for y in im.im.elements for z in im.im.elements)
        ):
            return True
    return False


def test_reconstruct_needs_an_exact_factorization_on_z4_x_z4():
    """On Z4 x Z4 the exactness of G = ker C * Im C decides: of the 256
    operators, reconstruct rebuilds 232, and the other 24 fail only
    because ker meets Im in more than e in both branches."""
    C4 = families.cyclic(4).group
    G = direct_product(C4, C4)
    ops = classify.enumerate_rb(G)
    rebuilt = [build.reconstruct(B) for B in ops]
    rest = [B for B, C in zip(ops, rebuilt) if C is None]
    assert (len(ops), len(ops) - len(rest)) == (256, 232)
    assert all(C is None or C == B for B, C in zip(ops, rebuilt))
    assert [C is not None for C in rebuilt] == [lemma3_shape(B) for B in ops]
    assert all(_lemma3_shape_without_meet(B) for B in rest)
    for B in rest:
        for C in (B, tilde(B)):
            im = rbop.images(C)
            assert len(set(im.ker.elements) & set(im.im.elements)) > 1
    example = (0, 2, 0, 2, 4, 6, 4, 6, 8, 10, 8, 10, 12, 14, 12, 14)
    (B,) = [B for B in rest if B.table == example]
    im = rbop.images(B)
    assert (im.ker.order(), im.im.order()) == (2, 8)
    assert set(im.ker.elements) <= set(im.im.elements)


# The groups on which build.reconstruct is compared with the oracle shape
# test: every operator of the D and Q groups of PINNED, A:4, S:4 and Z:8,
# and the class representatives of D:32 and D:48.
RECONSTRUCT_SPECS = [s for s in PINNED if s[0] in "DQ"] + ["A:4", "S:4", "Z:8", "D:32", "D:48"]


@pytest.mark.parametrize("spec", RECONSTRUCT_SPECS)
def test_reconstruct_matches_the_oracle_shape_test(spec):
    """reconstruct(B) is table-equal to B exactly where the oracle
    recognizer lemma3_shape holds, and None elsewhere.  Above order 24
    only the class representatives are rebuilt; the shape is the same on
    every member of a class (classify's docstring)."""
    G = families.parse_group_spec(spec).group
    ops = classify.enumerate_rb(G, cap=G.order())
    if G.order() > classify.ENUMERATE_GUARANTEED:
        ops = [cls[0] for cls in classify.equivalence_classes(G, ops)]
    for B in ops:
        C = build.reconstruct(B)
        assert (C is not None) == lemma3_shape(B), B.table
        assert C is None or C.table == B.table


def test_reconstructions_are_not_only_the_index2_case():
    """The rebuilt non-splitting operators have R = Z2 and Z2xZ2 on D8 and
    R = Z3 on A4, so the index-2 construction (R = Z2) alone would not
    cover them."""
    labels = {}
    for spec in ("D:8", "A:4"):
        ops = classify.enumerate_rb(families.parse_group_spec(spec).group)
        rebuilt = [build.reconstruct(B) for B in ops if not is_splitting(B)]
        labels[spec] = {iso_label(rbop.images(C).R) for C in rebuilt}
    assert labels == {"D:8": {"Z2", "Z2xZ2"}, "A:4": {"Z3"}}


@pytest.mark.slow
@pytest.mark.parametrize("spec, classes, operators, r_labels", [
    ("D:32", 7, 198, {"Z2", "Z2xZ2"}),
    ("D:48", 14, 568, {"Z2", "Z2xZ2"}),
    ("S:5", 4, 330, {"Z2"}),
])
def test_every_nonsplitting_operator_reconstructs(spec, classes, operators, r_labels):
    """Every non-splitting operator, not only the class representatives,
    is rebuilt by the general construction (S:5 about 3 s).  S5 lies
    outside the paper's dihedral and alternating claims."""
    G = families.parse_group_spec(spec).group
    nonsplit = [B for B in classify.enumerate_rb(G, cap=G.order()) if not is_splitting(B)]
    found = classify.equivalence_classes(G, nonsplit)
    assert (len(found), len(nonsplit)) == (classes, operators)
    assert {iso_label(rbop.images(B).R) for B in nonsplit} == r_labels
    for B in nonsplit:
        C = build.reconstruct(B)
        assert C is not None and C.table == B.table


def test_classify_computes_images_once_per_class(monkeypatch):
    """classify computes images on one table per equivalence class, its
    representative's.  The computation (images.__wrapped__, run only when
    B has no kept images) is counted, not the calls to images.  Reading
    the dihedral R check and lemma3_shape on every non-splitting operator,
    D:16 took 105 computations over these 10."""
    tables = []
    compute = rbop.images.__wrapped__

    def counted(B):
        tables.append(B.table)
        return compute(B)

    monkeypatch.setattr(rbop.images, "__wrapped__", counted)
    report = classify.classify(families.parse_group_spec("D:16").group)
    assert all(report.conformance.values())
    assert len(tables) == len(set(tables)) == len(report.classes) == 10
    assert set(tables) == {c.representative.table for c in report.classes}


def test_classify_tests_the_shape_once_per_nonsplitting_class(monkeypatch):
    """classify runs build.reconstruct on the representative of each
    non-splitting class alone; on every non-splitting operator, D:16
    took 102 runs over these 7."""
    tables = []
    shape = build.reconstruct

    def counted(B):
        tables.append(B.table)
        return shape(B)

    monkeypatch.setattr(build, "reconstruct", counted)
    report = classify.classify(families.parse_group_spec("D:16").group)
    nonsplit = [c.representative.table for c in report.classes if not c.splitting]
    assert report.conformance["dihedral-even-shape"]
    assert tables == nonsplit and len(tables) == 7


def _d16_nonsplitting_representatives():
    G = families.parse_group_spec("D:16").group
    ops = classify.enumerate_rb(G)
    return [c[0] for c in classify.equivalence_classes(G, ops) if not is_splitting(c[0])]


def test_reconstruct_tests_exactness_before_building(monkeypatch):
    """On the 7 non-splitting class representatives of D:16, reconstruct
    tries 12 branches: C = B, then C = B~ where that fails.  The 5 whose
    K L is not exact make no construction call, so it builds 7 operators,
    one per representative (12 when the homomorphism operator was built
    before exactness was tested)."""
    reps = _d16_nonsplitting_representatives()
    exact, built = [], []
    factor, construction = build.exact_factorization, build.construction
    monkeypatch.setattr(
        build, "exact_factorization", lambda *a: exact.append(factor(*a)) or exact[-1]
    )
    monkeypatch.setattr(build, "construction", lambda *a: built.append(a) or construction(*a))
    results = [build.reconstruct(B) for B in reps]
    assert all(C == B for B, C in zip(reps, results))
    assert len(reps) == 7 and len(exact) == 12
    assert sum(not w.exact for w in exact) == 5 and len(built) == 7


def test_reconstruct_does_not_verify(monkeypatch):
    """reconstruct rebuilds D:16's 7 non-splitting class representatives
    without computing verify: build.construction proves the identity, and
    the table comparison with C is the check.  Verifying every operator
    it built took 14 computations over 3,008 pairs."""
    reps = _d16_nonsplitting_representatives()
    computed = []
    compute = rbop.verify.__wrapped__
    monkeypatch.setattr(rbop.verify, "__wrapped__", lambda B: computed.append(B) or compute(B))
    assert all(build.reconstruct(B) == B for B in reps)
    assert len(reps) == 7 and computed == []


def test_classify_builds_each_companion_once(monkeypatch):
    """classify computes tilde at most once per enumerated operator, each
    time on a different table; the computation (tilde.__wrapped__) on the
    operators enumerate_rb returned is counted, not on those that
    build.reconstruct builds.  With is_splitting, the equivalence-class
    check, images and the shape test each computing it, D:16 took 479
    computations over its 136 operators."""
    tables, enumerated = [], []
    compute, enumerate_rb = rbop.tilde.__wrapped__, classify.enumerate_rb

    def counted(B):
        if any(B is A for A in enumerated):
            tables.append(B.table)
        return compute(B)

    def recorded(G, cap):
        enumerated.extend(enumerate_rb(G, cap))
        return enumerated

    monkeypatch.setattr(rbop.tilde, "__wrapped__", counted)
    monkeypatch.setattr(classify, "enumerate_rb", recorded)
    G = families.parse_group_spec("D:16").group
    report = classify.classify(G)
    assert report.total == len(enumerated) == 136 and all(report.conformance.values())
    assert len(tables) == len(set(tables)) <= report.total


@pytest.mark.parametrize("spec", ["S:3", "D:8", "Q:8", "D:12"])
def test_companion_images_are_the_swapped_images(spec):
    """build.reconstruct reads images(B~) off images(B) with the roles of
    B and B~ swapped."""
    def sets(d):
        return [set(X.elements) for X in (d.im, d.ker, d.im_tilde, d.ker_tilde, d.R)]

    for B in classify.enumerate_rb(families.parse_group_spec(spec).group):
        im, ker, im_t, ker_t, R = sets(rbop.images(B))
        assert sets(rbop.images(tilde(B))) == [im_t, ker_t, im, ker, R]


def test_cap_guard():
    G = families.parse_group_spec("A:5").group
    with pytest.raises(classify.EnumerationCapExceeded):
        classify.enumerate_rb(G, cap=20)
