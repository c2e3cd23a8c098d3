import collections
import errno
import functools
import gc
import hashlib
import itertools
import math
import os
import random
import sys
import time

import pytest

from invariants import check_invariants_sampled
from oracles import (
    digit_sampler,
    index2_body,
    pairwise_identity,
    pairwise_opposite_product,
    perm_descendent_loops,
)
from rbgroups import families, rbop, serialize, transitive
from rbgroups.gf import make_field, prime_power
from rbgroups.perm import ENUMERATION_CAP, FiniteGroup, Grower, Perm, closure
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
    assert len({g[:2] for g in sg.group.elements}) == 72  # sharply 2-transitive
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
        assert S._element_set() < sg.group._element_set()
        assert closure(S.generators) == S.elements
    assert iso_label(sg.s1) == "(Z3xZ3):Z4"


def test_sharply3_gf9():
    sg = sharply3(9)
    assert sg.group.order() == 720
    assert len({g[7:] for g in sg.group.elements}) == 720  # sharply 3-transitive
    assert sg.psl.order() == 360
    assert all(g.is_even() for g in sg.group.generators)


def test_sharply3_is_the_l_of_build_an():
    """M(9) comes out on the A_10 numbering that build_an_operator uses."""
    assert sharply3(9).group.elements == _an(10).im.elements


def _check_twist_screen(q):
    """transitive._doubles(PSL2(q), tau) against the closure oracle
    |<PSL2 gens, tau>| = 2|PSL2|, for tau: x -> c x^(p^e) at every c and
    for two controls: an element of PSL2 (closure of order |PSL2|) and
    the involution (0 1)(2 3), which fixes too many points to normalize
    PSL2 (closure past 2|PSL2|).  Everything is rebuilt from gf on the
    plain numbering, field element x at point x and infinity at q.

    The oracle runs closure(gens + [tau])'s Dimino steps: the steps for
    gens, which close PSL2 and do not depend on tau, run once, and each
    tau is added to a copy of their result."""
    p, k = prime_power(q)
    F = make_field(p, k)

    def proj(images):
        return Perm(list(images) + [q])

    def semi(x):
        for _ in range(k // 2):
            x = F.pow(x, F.p)
        return x

    gens = [
        proj(F.add(x, 1) for x in range(q)),
        proj(F.mul(F.pow(F.w, 2), x) for x in range(q)),
        Perm([F.neg(F.inv(x)) if x else q for x in range(q)] + [0]),
    ]
    target = q * (q * q - 1)  # 2|PSL2|
    base = Grower(Perm.identity(q + 1), cap=target)
    for g in gens:
        assert g in base.members or base.add(g)
    psl = FiniteGroup.from_elements(base.elements, generators=gens)
    assert 2 * psl.order() == target
    taus = [proj(F.mul(c, semi(x)) for x in range(q)) for c in range(1, q)]
    taus += [gens[0] * gens[2], Perm.from_cycles(q + 1, [(0, 1), (2, 3)])]
    verdicts = []
    for tau in taus:
        grown = Grower(base.elements[0], cap=target)
        grown.elements, grown.members = list(base.elements), set(base.members)
        grown.gens = list(base.gens)
        closed = tau in grown.members or grown.add(tau)
        doubles = closed and len(grown.elements) == target
        assert transitive._doubles(psl, tau) == doubles, tau
        verdicts.append(doubles)
    assert verdicts[-2:] == [False, False]


@pytest.mark.parametrize("q", [9, 25])
def test_twist_screen_matches_closure_oracle(q):
    _check_twist_screen(q)


@pytest.mark.slow
def test_twist_screen_matches_closure_oracle_q49():
    _check_twist_screen(49)


def test_sharpness_check_rejects_two_transporters():
    S4 = families.symmetric(4).group
    with pytest.raises(TransitiveError, match="two transporters"):
        transitive.check_sharpness(S4, (0, 1))


def test_sharpness_check_rejects_too_few_keys():
    """PSL2(9) moves no triple twice but reaches only 360 of 720."""
    with pytest.raises(TransitiveError, match="covers 360 of 720"):
        transitive.check_sharpness(sharply3(9).psl, (7, 8, 9))
    assert transitive.check_sharpness(sharply3(9).group, (7, 8, 9)) is None


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
    assert B.ker.order() == 2520  # A7
    assert B.ker_tilde.order() == 36
    assert iso_label(B.ker_tilde) == "(Z3xZ3):Z4"
    assert B.R.order() == 2  # non-splitting
    assert sorted((iso_label(B.ker), iso_label(B.ker_tilde))) == ["(Z3xZ3):Z4", "A7"]


def test_a9_variants_are_valid():
    for variant in ("S1", "S2", "S3"):
        B = build_an_operator(9, variant=variant)
        assert verify_an_operator(B, sample_count=500, seed=7).ok


def test_a9_descendent_identities():
    B = build_an_operator(9)
    rep = descendent_structure(B, seed=7)
    assert rep.ok, rep.detail


def test_a9_property_suite_sampled():
    B = build_an_operator(9)
    failed = [n for n, ok in check_invariants_sampled(B) if not ok]
    assert not failed, failed


def test_verification_catches_a_corrupted_operator():
    B = build_an_operator(9)
    r = B.r
    bad = B._replace(proc=lambda g: B.proc(g) * r if g.order() == 7 else B.proc(g))
    v = transitive.verify_an_operator(bad, sample_count=2000, seed=7)
    assert not v.ok


@functools.lru_cache(maxsize=None)
def _an(n, variant="default"):
    return build_an_operator(n, variant=variant)


@pytest.mark.parametrize("n,variant", [(9, "S1"), (9, "S2"), (9, "S3"), (10, "default")])
def test_coset_indicator_is_a_homomorphism(n, variant):
    """Exhaustive oracle for the homomorphism check of build.construction
    on L's generators: the S-coset indicator d on L satisfies
    d(l1 l2) = d(l1) + d(l2) mod 2 on all of L x L."""
    B = _an(n, variant)
    L, sset = B.im, B.ker_tilde._element_set()
    d = {l: 0 if l in sset else 1 for l in L.elements}
    for l1 in L.elements:
        for l2 in L.elements:
            assert d[l1 * l2] == (d[l1] + d[l2]) % 2, (l1, l2)


@pytest.mark.parametrize("n,variant", [(9, "S1"), (9, "S2"), (9, "S3"), (9, "default"), (10, "default")])
def test_an_body_matches_the_reference_on_cosets(n, variant):
    """build.construction's body is the reference l -> l^-1 r^d(l) on all
    of L, and B is constant on the right cosets K l: B(k l) = B(l) for
    seeded k in K."""
    B = _an(n, variant)
    L, body = B.im, index2_body(B.im, B.ker_tilde, B.r)
    assert all(B(l) == body[l] for l in L.elements)
    rng = random.Random(7)
    random_k = digit_sampler(n, [i for i in range(n) if i not in B.distinguished])
    for _ in range(2000):
        k, l = random_k(rng), rng.choice(L.elements)
        assert B(k * l) == body[l], (k, l)


@pytest.mark.parametrize("n,variant", [(9, "S1"), (10, "default")])
def test_structural_groups_are_generated_by_their_generators(n, variant):
    """For n = 10, L = M(9) and S = PSL(2,9) are built directly on the
    A_10 numbering, generators included."""
    from rbgroups.perm import closure

    B = _an(n, variant)
    for X in (B.im, B.ker_tilde):
        assert closure(X.generators, cap=X.order()) == X.elements


# sha256 of serialize.format_operator(build_an_operator(n)), recorded while
# case b still conjugated M(q) and PSL2(q) into the A_n numbering
AN_DUMP_DIGESTS = {
    10: "b9f2a43d203b55b0c0c629c05e8b23d7dabd700a3cc7b19e45ec9924e2d79282",
    50: "07ab1a2b2c945fafc61e1c3174cfb74db13057c853f64811273746d7c1b4f3f1",
}


def _dump_digest(n):
    dump = serialize.format_operator(build_an_operator(n))
    return hashlib.sha256(dump.encode()).hexdigest()


def test_build_an_10_dump_is_pinned():
    assert _dump_digest(10) == AN_DUMP_DIGESTS[10]


@pytest.mark.slow
def test_build_an_50_dump_is_pinned():
    """Budget 60 s."""
    start = time.perf_counter()
    assert _dump_digest(50) == AN_DUMP_DIGESTS[50]
    assert time.perf_counter() - start < 60


def _tampered(field):
    B = _an(9)
    S = B.ker_tilde
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
        L, t, r = B.im, B.t, B.r
        s0 = next(g for g in S.elements if g not in (B.group.identity, r))
        t1 = next(g for g in L.elements if g not in S and g != t)
        swapped = tuple(sorted([g for g in S.elements if g != s0] + [t1]))
        change = {"ker_tilde": FiniteGroup(9, swapped, swapped)}  # no group: the raw constructor
    elif field == "S not of index 2":
        change = {"ker_tilde": FiniteGroup.from_elements([B.group.identity, B.r])}
    else:  # "K meets L": K taken as the stabilizer of one point only
        change = {"distinguished": (8,)}
    return B._replace(**change)


@pytest.mark.parametrize("field,message", [
    ("t in S", "t must lie in L outside S"),
    ("r not an involution", "r is not an involution"),
    ("r not in S", "r must lie in S"),
    ("<r> does not normalize K", "does not normalize K at"),
    ("S not a subgroup", "phi is not a homomorphism at"),
    ("S not of index 2", "phi is not a homomorphism at"),
    ("K meets L", "factorization is not exact"),
])
def test_layer1_names_the_broken_precondition(field, message):
    v = verify_an_operator(_tampered(field), sample_count=10, seed=7)
    assert (v.ok, v.layer) == (False, 1)
    assert message in v.detail


@pytest.mark.parametrize("n,variant", [
    (9, "S1"), (9, "S2"), (9, "S3"), (9, "default"),
    pytest.param(10, "default", marks=pytest.mark.slow),
])
def test_layer2_matches_the_pairwise_oracle(n, variant):
    B = _an(n, variant)
    L = B.im
    v = verify_an_operator(B, sample_count=0)
    assert pairwise_identity(B, L.elements) == (None, L.order() ** 2)
    assert (v.ok, v.pairs_exhaustive) == (True, L.order() ** 2)


def test_layer2_names_the_pairwise_oracles_first_failure(monkeypatch):
    """Two images of the body swapped on L, in B and in the operator layer
    1 compares it with: layer 1 passes, and layer 2 fails at the first pair
    of L x L, in canonical order, at which the identity fails."""
    B = _an(9)
    L, S, r = B.im, B.ker_tilde, B.r
    image = index2_body(L, S, r)
    a, b = L.elements[5], L.elements[40]
    image[a], image[b] = image[b], image[a]
    bad = B._replace(proc=lambda x: image[x] if x in image else B.proc(x))
    monkeypatch.setattr(transitive, "construction", lambda *args: bad)
    pair, _ = pairwise_identity(bad, L.elements)
    assert pair is not None
    v = verify_an_operator(bad, sample_count=0)
    assert (v.ok, v.layer) == (False, 2)
    assert v.detail == "identity fails at L-pair ({!r}, {!r})".format(*pair)


def test_an_l_above_the_enumeration_cap_is_refused():
    """An L too large for its Cayley table is refused by name, before
    layer 1 runs (the construction would fail on this L)."""
    B = _an(9)
    big = FiniteGroup.generator_only(9, B.im.generators, order=ENUMERATION_CAP + 1)
    huge = B._replace(im=big)
    with pytest.raises(TransitiveError, match=f"[|]L[|] = {ENUMERATION_CAP + 1} exceeds "
                                              f"the enumeration cap {ENUMERATION_CAP}"):
        verify_an_operator(huge, sample_count=0)


class _Ranks:
    """A stub rng whose randrange(N) returns 0, 1, ..., N-1 in turn."""

    def __init__(self):
        self.next = 0

    def randrange(self, total):
        assert self.next < total
        self.next += 1
        return self.next - 1


def _even_perms(n, points):
    """Every even permutation of `points` fixing the other points of 0..n-1."""
    out = set()
    for imgs in itertools.permutations(points):
        p = list(range(n))
        for x, y in zip(points, imgs):
            p[x] = y
        if Perm(p).is_even():
            out.add(Perm(p))
    return out


@pytest.mark.parametrize("points", [tuple(range(k)) for k in range(7)] + [(1, 3, 4, 6)])
def test_even_sampler_hits_each_even_permutation_equally(points):
    """All k! ranks in turn: each even permutation of the points comes out
    twice for k >= 2 (once for k <= 1), and nothing else comes out."""
    k = len(points)
    for n in range(max(points, default=0) + 1, 9):
        decode = transitive.even_decoder(n, None if points == tuple(range(n)) else points)
        counts = collections.Counter(map(decode, range(math.factorial(k))))
        assert set(counts) == _even_perms(n, points), (n, points)
        assert set(counts.values()) == {2 if k >= 2 else 1}, (n, points)


SAMPLER_CASES = [
    (9, None), (9, range(7)), (10, None), (49, None), (50, range(47)), (12, range(1, 12, 2)),
    (50, None),
]


@pytest.mark.parametrize("n,points", SAMPLER_CASES)
def test_even_sampler_matches_the_digit_decoder_on_seeded_ranks(n, points):
    """The table decode of the rank stream is the per-digit Fisher-Yates
    decode of randrange, rank for rank, so every seeded sample stream is
    unchanged."""
    decode, digits = transitive.even_decoder(n, points), digit_sampler(n, points)
    r1, r2 = random.Random(11), random.Random(11)
    stream = transitive.ranks(r1, math.factorial(n if points is None else len(points)))
    for x in itertools.islice(stream, 3000):
        p = decode(x)
        assert type(p) is Perm and p == digits(r2), (n, points)


@pytest.mark.parametrize(
    "points",
    [tuple(range(k)) for k in range(8)]
    + [(5, 0, 2), (6, 1, 3, 4, 0), (7, 2, 5, 0, 3, 6, 1), tuple(range(8))],
)
def test_even_sampler_matches_the_digit_decoder_on_every_rank(points):
    """k <= 7 is listed: every rank is decoded once when the decoder is
    made, by one chunk (k <= 6) or two (k = 7: 7*6*5*4 and 3*2).  k = 8
    decodes each rank by two chunks (8*7*6*5 and 4*3*2), so every way two
    chunks compose is compared on both paths."""
    decode, digits = transitive.even_decoder(8, points), digit_sampler(8, points)
    rng = _Ranks()
    for x in range(math.factorial(len(points))):
        assert decode(x) == digits(rng), points


@pytest.mark.parametrize("k,listed", [(6, True), (7, True), (8, False)])
def test_even_sampler_lists_the_draws_of_small_alternating_groups(k, listed):
    """A decoder of Alt(k points) with k!/2 <= ENUMERATION_CAP (k <= 7)
    hands back one stored Perm per rank, the same object each time the
    rank is decoded; at k = 8 (20,160 even permutations) each decode
    makes a new one."""
    assert (math.factorial(k) // 2 <= ENUMERATION_CAP) == listed
    decode = transitive.even_decoder(9, range(k))
    for x in range(50):
        p, q = decode(x), decode(x)
        assert type(p) is Perm and p == q and (p is q) == listed


def test_descendent_k_samples_lie_in_k(monkeypatch):
    """Every K-sample is even and fixes the distinguished points, and the
    samples are not one element over and over: 30,000 uniform draws from
    |K| = 2,520 leave about 2,520 e^(-30000/2520) = 0.017 elements
    undrawn, and seed 7 draws all of K."""
    drawn = []
    decoder = transitive.even_decoder

    def recording(n, points=None):
        decode = decoder(n, points)

        def rec(x):
            drawn.append(decode(x))
            return drawn[-1]

        return rec

    monkeypatch.setattr(transitive, "even_decoder", recording)
    B = _an(9)
    assert descendent_structure(B, seed=7).ok
    assert len(drawn) == 2 * transitive.DESCENDENT_K_SAMPLES + transitive.DESCENDENT_TWIST_SAMPLES
    assert all(p.is_even() and p[7] == 7 and p[8] == 8 for p in drawn)
    assert len(set(drawn)) == 2520


@pytest.mark.parametrize("n,variant", [(9, "S1"), (9, "S2"), (9, "S3"), (9, "default"), (10, "default")])
def test_s_check_matches_the_pairwise_oracle(n, variant):
    B = _an(n, variant)
    S = B.ker_tilde
    rep = descendent_structure(B)
    assert pairwise_opposite_product(B, S) == (None, S.order() ** 2)
    assert (rep.ok, rep.s_pairs) == (True, S.order() ** 2)


@pytest.mark.parametrize("k", [1, 17, 35])
def test_s_check_names_the_pairwise_oracles_first_failure(k):
    """B'(s) = s^-1 y at one element s of S, for y = r and for each
    generator y of S: then s B'(s) = y, which commutes with y but not with
    all of S, so a check that skipped a generator would pass.  The check
    fails at the oracle's first failing pair, with its pair count."""
    B = _an(9)
    S = B.ker_tilde
    s = S.elements[k]
    for y in (B.r, *S.generators):
        bad = B._replace(proc=lambda g, y=y: s.inverse() * y if g == s else B.proc(g))
        (s1, s2), pairs = pairwise_opposite_product(bad, S)
        rep = descendent_structure(bad)
        assert s1 == s and pairs > k * S.order() + 1
        assert (rep.ok, rep.s_pairs, rep.k_samples, rep.twist_samples) == (False, pairs, 0, 0)
        assert rep.detail == f"s o s' != s' s at ({s1!r}, {s2!r})"


def test_descendent_catches_an_operator_corrupted_only_on_k():
    """B'(k) = r for k in K of order 7.  S and L have no element of order
    7, so only the K-sample loop can see the corruption; the first failing
    sample is the first pair (h, h') with h of order 7 and r h' r != h',
    the one the loops by Perm products name.  K is Alt(7 points), drawn
    from its listed ranks, at n = 9 and at n = 10."""
    for n in (9, 10):
        B = _an(n)
        r, points = B.r, B.distinguished
        assert all(g.order() != 7 for g in B.im.elements)

        def corrupted(g):
            in_k = all(g[i] == i for i in points)
            return r if in_k and g.order() == 7 else B.proc(g)

        bad = B._replace(proc=corrupted)
        one = descendent_structure(bad, seed=7)
        rng = random.Random(7)
        draw = digit_sampler(n, [i for i in range(n) if i not in points])
        for i in range(transitive.DESCENDENT_K_SAMPLES):
            h1, h2 = draw(rng), draw(rng)
            if h1.order() == 7 and r * h2 * r != h2:
                break
        assert perm_descendent_loops(bad, transitive.DESCENDENT_K_SAMPLES, 0, 7) == ("k", i)
        assert not one.ok, n
        assert one.detail == f"h o h' != h h' at sample {i}"
        s_pairs = {9: 36, 10: 360}[n] ** 2
        assert (one.s_pairs, one.k_samples, one.twist_samples) == (s_pairs, i + 1, 0)


def test_layer3_names_the_sample_the_digit_decoder_predicts():
    """B'(g) = B(g) r for g of order 7.  L has no element of order 7, so
    layers 1 and 2 pass, and layer 3 fails at the first pair, drawn by the
    per-digit decoder, at which the identity fails."""
    B = _an(9)
    r = B.r
    bad = B._replace(proc=lambda g: B.proc(g) * r if g.order() == 7 else B.proc(g))
    v = verify_an_operator(bad, sample_count=2000, seed=7)
    rng = random.Random(7)
    draw = digit_sampler(9)
    for i in range(2000):
        g, h = draw(rng), draw(rng)
        if not rbop.check_pair(bad, g, h):
            break
    assert i > 0
    assert (v.ok, v.layer, v.pairs_sampled) == (False, 3, i + 1)
    assert v.detail == f"identity fails at sample {i}: ({g!r}, {h!r})"


def test_twist_loop_names_the_sample_the_perm_product_loop_predicts():
    """B'(l) = B(l) r at one element l of L outside S.  The S x S check
    and the K loop never evaluate B' there, so only the twist loop can
    fail, and it fails at the sample that the loop by Perm products, drawn
    with the per-digit decoder, names first: at n = 9 and at n = 10."""
    counts = transitive.DESCENDENT_K_SAMPLES, transitive.DESCENDENT_TWIST_SAMPLES
    for n in (9, 10):
        B = _an(n)
        r, sset = B.r, B.ker_tilde._element_set()
        l0 = max(l for l in B.im.elements if l not in sset)
        bad = B._replace(proc=lambda g: B.proc(g) * r if g == l0 else B.proc(g))
        assert perm_descendent_loops(B, *counts, 7) is None
        kind, i = perm_descendent_loops(bad, *counts, 7)
        one = descendent_structure(bad, seed=7)
        assert kind == "twist" and i > 0, n
        s_pairs = {9: 36, 10: 360}[n] ** 2
        assert (one.ok, one.s_pairs, one.k_samples, one.twist_samples) == (False, s_pairs, counts[0], i + 1)
        assert one.detail == f"l o h != h^(r^d) o l at sample {i}"


def test_twist_loop_draws_l_before_h_on_several_seeds():
    """The operator of the test above on seeds 1 to 4: the twist loop
    names the oracle's failing sample on each.  At seed 7 a loop that drew
    h before l would name the same sample, 21; at seeds 2 and 3 it names
    3 and 142 where the oracle names 59 and 138."""
    B = _an(9)
    r, sset = B.r, B.ker_tilde._element_set()
    l0 = max(l for l in B.im.elements if l not in sset)
    bad = B._replace(proc=lambda g: B.proc(g) * r if g == l0 else B.proc(g))
    counts = transitive.DESCENDENT_K_SAMPLES, transitive.DESCENDENT_TWIST_SAMPLES
    for seed in (1, 2, 3, 4):
        kind, i = perm_descendent_loops(bad, *counts, seed)
        rep = descendent_structure(bad, seed=seed)
        assert kind == "twist" and rep.twist_samples == i + 1, seed


@pytest.mark.parametrize("kwargs", [{"sample_count": -1}])
def test_negative_sample_counts_raise(kwargs):
    with pytest.raises(TransitiveError, match="must be >= 0"):
        verify_an_operator(_an(9), **kwargs)


def test_descendent_structure_takes_few_products(monkeypatch):
    """At most 1,410 Perm.__mul__ calls, building the operator included,
    at the default 10,000 + 10,000 samples: twice the 705 counted with
    both sample loops on rbop.circ_kernel's bytes (100,715 by Perm
    products, and 475,561 with a K-element built as a word of 12
    generators).  Only Perm.__mul__ is counted: the raw bytes.translate
    work of rbop.circ_kernel, even_decoder and
    perm.homomorphism_failure is not, so this bounds Perm products, not
    all permutation work."""
    from test_perm import _count_products

    calls = _count_products(monkeypatch)
    assert descendent_structure(build_an_operator(9)).ok
    assert calls[0] <= 1_410


def test_layer3_takes_few_products(monkeypatch):
    """At most 1,700 Perm.__mul__ calls, building the operator included,
    at 30,000 layer-3 samples: twice the 850 counted with layer 3 on
    rbop.circ_kernel's bytes (120,850 by Perm products).  Only
    Perm.__mul__ is counted: the raw bytes.translate work of
    rbop.circ_kernel, even_decoder and perm.homomorphism_failure is not,
    so this bounds Perm products, not all permutation work."""
    from test_perm import _count_products

    calls = _count_products(monkeypatch)
    v = verify_an_operator(build_an_operator(9), sample_count=30_000)
    assert v.ok and v.pairs_sampled == 30_000
    assert calls[0] <= 1_700


def test_layer3_evaluates_b_three_times_per_pair():
    """Layer 3 evaluates B once each at g, h and g o h: circ_kernel hands
    back the B(g) it used for g o h.  With proc wrapped by a counter,
    1,000 more samples make 3,000 more calls (4,000 when B(g) was
    evaluated again for the left side)."""
    B = _an(9)
    calls = [0]

    def counted(g):
        calls[0] += 1
        return B.proc(g)

    totals = []
    for samples in (0, 1000):
        calls[0] = 0
        v = verify_an_operator(B._replace(proc=counted), sample_count=samples)
        assert v.ok and v.pairs_sampled == samples
        totals.append(calls[0])
    assert totals[1] - totals[0] == 3 * 1000


def test_verify_evaluates_b_once_on_each_element_of_l():
    """Layer 1 hands its images B(l) to layer 2's table, so a verify with
    0 samples calls a counted procedure |L| = 72 times at n = 9 (144 when
    layer 2 evaluated B on L again)."""
    B = _an(9)
    calls = [0]

    def counted(g):
        calls[0] += 1
        return B.proc(g)

    v = verify_an_operator(B._replace(proc=counted), sample_count=0)
    assert v.ok and v.pairs_exhaustive == 72 * 72
    assert calls[0] == B.im.order() == 72


def test_descendent_structure_evaluates_b_once_per_element_used():
    """descendent_structure evaluates B once per element of S (for
    s B(s)), once per K pair (B(h) in h o h') and twice per twist pair
    (l o h and h^(r^d) o l): |S| + DESCENDENT_K_SAMPLES +
    2 DESCENDENT_TWIST_SAMPLES calls of a counted procedure, 30,036 at
    n = 9."""
    B = _an(9)
    calls = [0]

    def counted(g):
        calls[0] += 1
        return B.proc(g)

    assert descendent_structure(B._replace(proc=counted)).ok
    S = B.ker_tilde
    expected = (
        S.order() + transitive.DESCENDENT_K_SAMPLES + 2 * transitive.DESCENDENT_TWIST_SAMPLES
    )
    assert calls[0] == expected == 30_036


@pytest.mark.parametrize("n", [9, 10])
def test_b_is_handed_only_perms(n):
    """rbop.circ_kernel returns g o h as plain bytes; layer 3 wraps it
    before evaluating B there, and the K and twist loops, which only
    compare products, hand B only their draws, elements of L and
    h^(r^d).  A procedure that asserts it gets a Perm passes both
    checks."""
    B = _an(n)

    def perms_only(g):
        assert type(g) is Perm, type(g)
        return B.proc(g)

    checked = B._replace(proc=perms_only)
    assert verify_an_operator(checked, sample_count=3_000).ok
    assert descendent_structure(checked).ok


@pytest.mark.parametrize("collecting", [True, False])
def test_build_an_operator_pauses_and_restores_the_collector(monkeypatch, collecting):
    """The groups are built with the cyclic collector paused, and the
    caller's gc.isenabled() comes back after the call, whether the
    collector was on or off and whether the call returns or raises."""
    seen, build = [], transitive.sharply3

    def recording(q):
        seen.append(gc.isenabled())
        return build(q)

    monkeypatch.setattr(transitive, "sharply3", recording)
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        assert build_an_operator(10).case == "b"
        assert gc.isenabled() is collecting
        with pytest.raises(TransitiveError, match="variants apply only"):
            build_an_operator(10, "S1")
        assert gc.isenabled() is collecting
        monkeypatch.setattr(families, "alternating", lambda n: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            build_an_operator(10)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


def test_sharply2_takes_few_products(monkeypatch):
    """sharply2 --m 2 --q 7 --t 1 makes at most 13,000 Perm products,
    labels included: 12,062 with one order table per group, 37,886 when
    each element order was taken by Perm.order."""
    from test_cli import run
    from test_perm import _count_products

    calls = _count_products(monkeypatch)
    assert run(["sharply2", "--m", "2", "--q", "7", "--t", "1"])[0] == 0
    assert calls[0] <= 13_000


def test_layer3_draws_one_rank_per_element(monkeypatch):
    """Layer 3 with 1,000 samples makes exactly as many getrandbits calls
    as 2,000 randrange(9!) calls on Random(7): one rank per element, each
    drawn as randrange draws it (more than 2,000 calls, as a value of 19
    bits is 9! or more with probability about 0.31 and is drawn again)."""
    B = _an(9)
    calls = [0]
    getrandbits = random.Random.getrandbits

    def counted(self, k):
        calls[0] += 1
        return getrandbits(self, k)

    monkeypatch.setattr(random.Random, "getrandbits", counted)
    rng = random.Random(7)
    for _ in range(2 * 1000):
        rng.randrange(math.factorial(9))
    expected, calls[0] = calls[0], 0
    v = verify_an_operator(B, sample_count=1000, seed=7)
    assert v.ok and v.pairs_sampled == 1000
    assert calls[0] == expected > 2 * 1000


def test_descendent_draws_one_rank_per_element(monkeypatch):
    """descendent_structure makes exactly the getrandbits calls, bit width
    for bit width, of its seeded stream on Random(7): the K loop's 20,000
    randrange(7!) calls, then the twist loop's 10,000 pairs of
    randrange(72) (its l) and randrange(7!) (its h) on the same rng, with
    no K-rank drawn twice.  One rank per element, each drawn as randrange
    draws it."""
    B = _an(9)
    calls = []
    getrandbits = random.Random.getrandbits

    def counted(self, k):
        calls.append(k)
        return getrandbits(self, k)

    monkeypatch.setattr(random.Random, "getrandbits", counted)
    rng, k_total = random.Random(7), math.factorial(7)
    for _ in range(2 * transitive.DESCENDENT_K_SAMPLES):
        rng.randrange(k_total)
    k_loop = len(calls)
    for _ in range(transitive.DESCENDENT_TWIST_SAMPLES):
        rng.randrange(len(B.im.elements))
        rng.randrange(k_total)
    expected, calls[:] = calls[:], []
    assert len(B.im.elements) == 72
    assert descendent_structure(B, seed=7).ok
    assert calls == expected and k_loop > 2 * transitive.DESCENDENT_K_SAMPLES


def _changed_at(B, x, value):
    """B with B(x) replaced by value(B(x))."""
    return B._replace(proc=lambda g: value(B.proc(g)) if g == x else B.proc(g))


def _layer3_g(sample, seed=4):
    """The g layer 3 draws at `sample` on `seed`: the decode of item
    2 sample of the rank stream."""
    stream = transitive.ranks(random.Random(seed), math.factorial(9))
    return transitive.even_decoder(9)(next(itertools.islice(stream, 2 * sample, None)))


@pytest.mark.parametrize("sample,fails_at", [(0, 0), (14_999, 282), (15_000, 15_000), (29_999, 29_999)])
def test_layer3_verdict_is_the_same_in_two_ranges(sample, fails_at):
    """B(g) r in place of B(g) at the g drawn at one sample of seed 4: the
    verdict of 30,000 samples fails at the first pair that evaluates B at
    g (for the g of sample 14,999, at sample 282).  The samples are the
    first and last of each half of the loop, where the sample ranges that
    once split it began and ended; the id is kept for these pins."""
    B = _an(9, "S1")
    r = B.r
    bad = _changed_at(B, _layer3_g(sample), lambda b: b * r)
    v = verify_an_operator(bad, sample_count=30_000, seed=4)
    assert (v.ok, v.layer, v.pairs_sampled) == (False, 3, fails_at + 1)


def test_descendent_report_is_the_same_in_two_ranges():
    """B(x) = r at one x in K, where B(x) = e.  The K loop evaluates B at
    the first element h of its pairs only, the twist loop at l and
    h^(r^d) only, and neither at an element of K before; so the report
    fails where B is first evaluated at x: in the K loop when r h' r != h',
    in the twist loop when r l r != l.  x is the h of the last K sample
    that draws a new h (9,939 on seed 4), and the h^(r^d) of the first and
    the last twist sample that evaluates B at an element for the first
    time, with r l r != l (36 and 6,689).  The report names that sample.
    The samples lie in both halves of each loop, which sample ranges once
    ran apart; the id is kept for these pins."""
    B = _an(9, "S1")
    L, r, sset = B.im, B.r, B.ker_tilde._element_set()
    rng, draw = random.Random(4), digit_sampler(9, range(7))
    k_pairs = [(draw(rng), draw(rng)) for _ in range(transitive.DESCENDENT_K_SAMPLES)]
    first = {}
    for i, (h, _) in enumerate(k_pairs):
        first.setdefault(h, i)
    i_k = max(first.values())
    twist = []
    for i in range(transitive.DESCENDENT_TWIST_SAMPLES):
        l, h = rng.choice(L.elements), draw(rng)
        x = h if l in sset else r * h * r
        if x not in first:
            first[x] = i
            if r * l * r != l:
                twist.append((i, x))
    h1, h2 = k_pairs[i_k]
    assert r * h2 * r != h2
    cases = [(i_k, h1, "h o h' != h h'"), *[(i, x, "l o h != h^(r^d) o l") for i, x in (twist[0], twist[-1])]]
    assert [i for i, _, _ in cases] == [9_939, 36, 6_689]
    for i, x, message in cases:
        rep = descendent_structure(_changed_at(B, x, lambda b: r), seed=4)
        assert not rep.ok and rep.detail == f"{message} at sample {i}"


def test_sampled_checks_run_in_the_calling_process(monkeypatch):
    """With os.fork replaced by a function that raises, and never called:
    verify_an_operator at n = 9 with 30,000 samples and
    descendent_structure at n = 9 pass with their counts, and a procedure
    that raises ValueError at the g of layer-3 sample 29,999 (seed 4),
    first evaluated there, makes verify raise it after 72 evaluations on
    L, three per earlier sample and one at g."""
    forks = []

    def fork():
        forks.append(None)
        raise OSError(errno.EAGAIN, "no fork")

    monkeypatch.setattr(os, "fork", fork)
    B = _an(9, "S1")
    v = verify_an_operator(B, sample_count=30_000, seed=4)
    assert (v.ok, v.pairs_exhaustive, v.pairs_sampled) == (True, 72 * 72, 30_000)
    rep = descendent_structure(B, seed=4)
    assert (rep.ok, rep.s_pairs, rep.k_samples, rep.twist_samples) == (True, 36 * 36, 10_000, 10_000)

    g, calls = _layer3_g(29_999), [0]

    def proc(x):
        calls[0] += 1
        if x == g:
            raise ValueError("B at sample 29999")
        return B.proc(x)

    with pytest.raises(ValueError, match="B at sample 29999"):
        verify_an_operator(B._replace(proc=proc), sample_count=30_000, seed=4)
    assert calls[0] == 72 + 3 * 29_999 + 1
    assert forks == []


@pytest.mark.parametrize(
    "total",
    [1, 2, 72] + [math.factorial(k) for k in (6, 7, 9, 47, 49)],
    ids=["1", "2", "72", "6!", "7!", "9!", "47!", "49!"],
)
def test_rank_stream_is_randrange(total):
    """transitive.ranks gives the values of randrange(N) and of
    choice(range(N)) (where len(range(N)) fits a machine int) and leaves
    the rng in the same state, also with other draws interleaved.  It
    repeats the loop of CPython's Random._randbelow_with_getrandbits, so
    a CPython that draws randrange otherwise fails here."""
    for seed in (1, 7, 2024):
        r1, r2, r3 = (random.Random(seed) for _ in range(3))
        got = list(itertools.islice(transitive.ranks(r1, total), 200))
        assert got == [r2.randrange(total) for _ in range(200)], (total, seed)
        assert r1.getstate() == r2.getstate(), (total, seed)
        if total <= sys.maxsize:
            assert got == [r3.choice(range(total)) for _ in range(200)], (total, seed)
            assert r1.getstate() == r3.getstate(), (total, seed)
        stream = transitive.ranks(r1, total)
        mixed = [(next(stream), r1.random()) for _ in range(50)]
        assert mixed == [(r2.randrange(total), r2.random()) for _ in range(50)], (total, seed)
        assert r1.getstate() == r2.getstate(), (total, seed)


@pytest.mark.parametrize("k", [1, 2, 6, 7, 9, 47, 49])
def test_even_sampler_leaves_the_rng_as_randrange_does(k):
    """The pairs a sampled loop draws (_pairs) are the per-digit draws of
    randrange(k!) on Random(k), g before h, and a rank iterator the pairs
    stop taking from, taken on, continues the rng's draws: after 37
    pairs, it gives the per-digit draws after 74 randrange calls."""
    decode, digits, total = transitive.even_decoder(k), digit_sampler(k), math.factorial(k)
    rng = random.Random(k)
    want = [(digits(rng), digits(rng)) for _ in range(87)]
    rk = transitive.ranks(random.Random(k), total)
    got = list(itertools.islice(transitive._pairs(decode, rk), 37))
    got += list(itertools.islice(transitive._pairs(decode, rk), 50))
    assert got == want, k


@pytest.mark.slow
def test_even_sampler_draws_at_n50_within_budget():
    """200,000 draws of even permutations of 50 points (32 chunk tables
    per draw), each the decode of one rank of the stream, table building
    included, within 10 s; about 2.9 s measured.  The draws must not get
    slower at high degree."""
    start = time.perf_counter()
    decode = transitive.even_decoder(50)
    stream = transitive.ranks(random.Random(50), math.factorial(50))
    for x in itertools.islice(stream, 200_000):
        decode(x)
    assert time.perf_counter() - start < 10


@pytest.mark.slow
def test_a10_operator_layers():
    B = build_an_operator(10)
    v = verify_an_operator(B, sample_count=2000, seed=7)
    assert v.ok, v.detail
    assert B.ker.order() == 2520
    assert B.ker_tilde.order() == 360


@pytest.mark.slow
def test_n49_variants_inequivalent():
    b1 = build_an_operator(49, variant="S1")
    b2 = build_an_operator(49, variant="S2")
    assert verify_an_operator(b1, sample_count=200, seed=7).ok
    assert verify_an_operator(b2, sample_count=200, seed=7).ok
    assert {iso_label(b1.ker), iso_label(b1.ker_tilde)} != {iso_label(b2.ker), iso_label(b2.ker_tilde)}
    sg = sharply2(2, 7, 1)
    spectra = []
    for S in (sg.s1, sg.s2):
        spectra.append(sorted(g.order() for g in S.elements))
    assert spectra[0] != spectra[1]
