import dataclasses
import functools

import pytest

from invariants import check_invariants_sampled
from rbgroups import rbop, transitive
from rbgroups.perm import FiniteGroup, Perm
from rbgroups.labels import iso_label
from rbgroups.transitive import (
    TransitiveError,
    admissible,
    build_an_operator,
    descendent_structure,
    sharply2,
    sharply3,
    verify_an_operator,
)


def test_admissible_small_cases():
    for n, case, q, m in ((9, "a", 3, 2), (10, "b", 3, 2), (49, "a", 7, 2), (50, "b", 7, 2)):
        v = admissible(n)
        assert v.admissible and v.case == case and v.q == q and v.m == m


def test_admissible_negative_cases():
    for n in (5, 6, 7, 8, 11, 25, 27, 100):
        assert not admissible(n).admissible


def test_admissible_matches_brute_force_fixture():
    import pathlib

    fixture = pathlib.Path(__file__).parent / "fixtures" / "admissible_1000.txt"
    expected = {}
    for line in fixture.read_text().splitlines():
        parts = line.split()
        expected[int(parts[0])] = (
            parts[1],
            int(parts[2].split("=")[1]),
            int(parts[3].split("=")[1]),
        )
    for n in range(5, 1001):
        v = admissible(n)
        if n in expected:
            assert v.admissible, n
            assert (v.case, v.q, v.m) == expected[n], n
        else:
            assert not v.admissible, n


def test_sharply2_gf9():
    sg = sharply2(2, 3, 1)
    assert sg.group.order() == 72
    assert sg.transitivity_degree == 2
    assert all(g.is_even() for g in sg.group.elements)
    assert iso_label(sg.n_part) == "Q8"


def test_sharply2_rejects_bad_parameters():
    with pytest.raises(TransitiveError):
        sharply2(2, 4, 1)  # q - 1 = 3 not divisible by 2
    with pytest.raises(TransitiveError):
        sharply2(3, 3, 1)  # 3 does not divide q - 1 = 2
    with pytest.raises(TransitiveError):
        sharply2(2, 3, 2)  # gcd(m, t) != 1


def test_sharply2_index2_subgroups():
    sg = sharply2(2, 3, 1)
    for S in (sg.s1, sg.s2, sg.s3):
        assert S.order() == 36
        assert sg.group.is_subgroup(set(S.elements))
    assert iso_label(sg.s1) == "(Z3xZ3):Z4"


def test_sharply3_gf9():
    sg = sharply3(9)
    assert sg.group.order() == 720
    assert sg.transitivity_degree == 3
    assert sg.psl.order() == 360
    assert all(g.is_even() for g in sg.group.generators)


def test_sharply3_rejects_odd_exponent():
    with pytest.raises(TransitiveError):
        sharply3(3)
    with pytest.raises(TransitiveError):
        sharply3(8)


def test_build_rejects_inadmissible_degree():
    with pytest.raises(TransitiveError):
        build_an_operator(25)


def test_a9_operator_layers():
    B = build_an_operator(9)
    v = verify_an_operator(B, sample_count=2000, seed=7)
    assert v.ok, v.detail
    st = B.structural
    assert st["ker"].order() == 2520  # A7
    assert st["ker_tilde"].order() == 36
    assert iso_label(st["ker_tilde"]) == "(Z3xZ3):Z4"
    assert st["R"].order() == 2
    assert not rbop.is_splitting(B)
    assert rbop.kernel_invariant(B) == ("(Z3xZ3):Z4", "A7")


def test_a9_variants_are_valid():
    for variant in ("S1", "S2", "S3"):
        B = build_an_operator(9, variant=variant)
        assert verify_an_operator(B, sample_count=500, seed=7).ok


def test_a9_descendent_identities():
    B = build_an_operator(9)
    rep = descendent_structure(B, k_samples=500, twist_samples=200, seed=7)
    assert rep.ok, rep.detail


def test_a9_property_suite_sampled():
    B = build_an_operator(9)
    failed = [n for n, ok in check_invariants_sampled(B) if not ok]
    assert not failed, failed


def test_verification_catches_a_corrupted_operator():
    B = build_an_operator(9)
    r = B.structural["r"]
    bad = rbop.RBOperator(
        group=B.group,
        proc=lambda g: B.proc(g) * r if g.order() == 7 else B.proc(g),
        provenance="corrupted",
        structural=B.structural,
    )
    v = transitive.verify_an_operator(bad, sample_count=2000, seed=7)
    assert not v.ok


@functools.lru_cache(maxsize=None)
def _an(n, variant="default"):
    return build_an_operator(n, variant=variant)


@pytest.mark.parametrize("n,variant", [(9, "S1"), (9, "S2"), (9, "S3"), (10, "default")])
def test_coset_indicator_is_a_homomorphism(n, variant):
    """Exhaustive oracle for the shortcut in build.check_index2: the
    S-coset indicator d on L satisfies d(l1 l2) = d(l1) + d(l2) mod 2."""
    st = _an(n, variant).structural
    L, sset = st["im"], st["ker_tilde"]._element_set()
    d = {l: 0 if l in sset else 1 for l in L.elements}
    for l1 in L.elements:
        for l2 in L.elements:
            assert d[l1 * l2] == (d[l1] + d[l2]) % 2, (l1, l2)


@pytest.mark.parametrize("n,variant", [(9, "S1"), (10, "default")])
def test_structural_groups_are_generated_by_their_generators(n, variant):
    """For n = 10, L = M(9) and S = PSL(2,9) are relabelled into the A_10
    numbering together with their generators."""
    from rbgroups.perm import closure

    st = _an(n, variant).structural
    for X in (st["im"], st["ker_tilde"]):
        assert closure(X.generators, cap=X.order()) == X.elements


def _tampered(field):
    B = _an(9)
    st = B.structural
    S = st["ker_tilde"]
    if field == "t in S":
        change = {"t": B.group.identity}
    elif field == "r not an involution":
        change = {"r": next(g for g in S.elements if g.order() == 3)}
    elif field == "r not in S":
        r = Perm.from_cycles(9, [(0, 1), (2, 3)])
        assert r not in S
        change = {"r": r}
    elif field == "<r> does not normalize K":
        change = {"r": next(
            g for g in S.elements if g.order() == 2 and {g[7], g[8]} != {7, 8}
        )}
    elif field == "S not a subgroup":
        # half of L with e, r and not t, but one element of S swapped for
        # another element of L outside S
        L, t, r = st["im"], st["t"], st["r"]
        s0 = next(g for g in S.elements if g not in (B.group.identity, r))
        t1 = next(g for g in L.elements if g not in S and g != t)
        swapped = [g for g in S.elements if g != s0] + [t1]
        change = {"ker_tilde": FiniteGroup.from_elements(swapped)}
    elif field == "S not of index 2":
        change = {"ker_tilde": FiniteGroup.from_elements([B.group.identity, st["r"]])}
    else:  # "K meets L": K taken as the stabilizer of one point only
        change = {"distinguished": (8,)}
    return dataclasses.replace(B, structural={**st, **change})


@pytest.mark.parametrize("field,message", [
    ("t in S", "t must lie in L outside S"),
    ("r not an involution", "r is not an involution"),
    ("r not in S", "r must lie in S"),
    ("<r> does not normalize K", "<r> does not normalize K"),
    ("S not a subgroup", "S is not a subgroup of L"),
    ("S not of index 2", "S does not have index 2 in L"),
    ("K meets L", "K meets L"),
])
def test_layer1_names_the_broken_precondition(field, message):
    v = verify_an_operator(_tampered(field), sample_count=10, seed=7)
    assert (v.ok, v.layer) == (False, 1)
    assert message in v.detail


@pytest.mark.slow
def test_a10_operator_layers():
    B = build_an_operator(10)
    v = verify_an_operator(B, sample_count=2000, seed=7)
    assert v.ok, v.detail
    assert B.structural["ker"].order() == 2520
    assert B.structural["ker_tilde"].order() == 360


@pytest.mark.slow
def test_n49_variants_inequivalent():
    b1 = build_an_operator(49, variant="S1")
    b2 = build_an_operator(49, variant="S2")
    assert verify_an_operator(b1, sample_count=200, seed=7).ok
    assert verify_an_operator(b2, sample_count=200, seed=7).ok
    assert rbop.kernel_invariant(b1) != rbop.kernel_invariant(b2)
    sg = sharply2(2, 7, 1)
    spectra = []
    for S in (sg.s1, sg.s2):
        spectra.append(sorted(g.order() for g in S.elements))
    assert spectra[0] != spectra[1]
