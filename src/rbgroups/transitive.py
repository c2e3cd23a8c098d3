"""Sharply 2- and 3-transitive permutation groups on finite fields, the
admissibility test for degrees, and the non-splitting operators on large
alternating groups built from them, each a record of its construction."""

from __future__ import annotations

import gc
import math
import operator
import random
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import families
from .build import ConstructionError, construction
from .gf import FiniteField, make_field, prime_factors, prime_power
from .perm import _ID, ENUMERATION_CAP, FactorizationWitness, FiniteGroup, Perm, _new
from .rbop import DEFAULT_SAMPLES, DEFAULT_SEED, RBOperator, circ_kernel, verify

SUPPORTED_DEGREES = (9, 10, 49, 50)

# Seeded samples of descendent_structure's K loop and twist loop.
DESCENDENT_K_SAMPLES = 10_000
DESCENDENT_TWIST_SAMPLES = 10_000

# Largest radix product of one chunk of Fisher-Yates steps in even_decoder:
# the size of that chunk's decode table.  At 2,500 the top steps at n = 49
# and 50 pair up (49 * 48 = 2,352, 50 * 49 = 2,450), one table for two
# steps; the chunks at n = 9 (504 | 720) and n = 10 (720 | 840 | 6) are
# those of any bound from 840 to 2,519.
SAMPLER_CHUNK = 2500


class TransitiveError(ValueError):
    """A precondition or validation of the transitive-group builders failed."""


# -- sharply 2-transitive groups L(m, q, t) --------------------------------


class SharplyTransitiveGroup(NamedTuple):
    degree: int
    group: FiniteGroup
    n_part: Optional[FiniteGroup] = None  # <a, b>
    s1: Optional[FiniteGroup] = None  # F.<a, b^2>, index 2 in L
    s2: Optional[FiniteGroup] = None  # F.<a^2, b>
    s3: Optional[FiniteGroup] = None  # F.<a^2, ab>
    psl: Optional[FiniteGroup] = None  # index-2 subgroup, degree-3 case


def _translation(F: FiniteField, c: int) -> Perm:
    return Perm(F.add(x, c) for x in range(F.size))


def _scale(F: FiniteField, c: int) -> Perm:
    return Perm(F.mul(c, x) for x in range(F.size))


def check_sharpness(L: FiniteGroup, points: tuple[int, ...]) -> None:
    """TransitiveError unless L is sharply k-transitive, k = len(points):
    each ordered k-tuple of distinct points is the image of the distinct
    `points` (read by operator.itemgetter(*points)) under exactly one l,
    that is, the images are distinct and there are n!/(n-k)! of them."""
    if len(set(points)) != len(points):
        raise TransitiveError("a transporter table needs distinct points")
    key = operator.itemgetter(*points)
    seen = set()
    for l in L.elements:
        k = key(l)
        if k in seen:
            raise TransitiveError(f"two transporters for {k}: sharpness fails")
        seen.add(k)
    need = math.perm(L.degree, len(points))
    if len(seen) != need:
        raise TransitiveError(f"transporter table covers {len(seen)} of {need} tuples")


def sharply2(m: int, q: int, t: int) -> SharplyTransitiveGroup:
    """The group on GF(q^m) generated by all translations plus
    a: x -> w^m x and b: x -> w^t x^q; sharply 2-transitive of order
    q^m (q^m - 1)."""
    if m < 1:
        raise TransitiveError(f"m must be >= 1, got {m}")
    pp = prime_power(q)
    if pp is None:
        raise TransitiveError(f"q = {q} is not a prime power")
    p, j = pp
    for d in prime_factors(m):
        if (q - 1) % d:
            raise TransitiveError(f"prime {d} of m = {m} does not divide q-1 = {q-1}")
    if m % 4 == 0 and (q - 1) % 4:
        raise TransitiveError("4 | m requires 4 | q-1")
    if math.gcd(m, t) != 1:
        raise TransitiveError(f"t = {t} is not coprime to m = {m}")

    F = make_field(p, j * m)
    n = F.size
    w = F.w

    a = _scale(F, F.pow(w, m))
    b = Perm(F.mul(F.pow(w, t), F.pow(x, q)) for x in range(n))
    # translations by an additive basis of GF(p^(j m))
    basis = [_translation(F, p**i) for i in range(j * m)]
    L = FiniteGroup.from_generators(
        basis + [a, b],
        cap=n * (n - 1),
        label=f"L({m},{q},{t})",
    )
    if L.order() != n * (n - 1):
        raise TransitiveError(
            f"|L| = {L.order()}, expected n(n-1) = {n*(n-1)}: field defect"
        )
    check_sharpness(L, (0, 1))
    # Frobenius twist relation b^-1 a b = a^q
    apow = L.identity
    for _ in range(q):
        apow = apow * a
    if b.inverse() * a * b != apow:
        raise TransitiveError("relation b^-1 a b = a^q fails")

    n_part = L.subgroup([a, b], label=f"N({m},{q},{t})")
    s1 = s2 = s3 = None
    if q % 4 == 3 and m % 4 == 2:
        for g in (a, b):
            if not g.is_even():
                raise TransitiveError("generator is an odd permutation")
        f1 = _translation(F, 1)
        s1 = L.subgroup([f1, a, b * b], label="FS1")
        s2 = L.subgroup([f1, a * a, b], label="FS2")
        s3 = L.subgroup([f1, a * a, a * b], label="FS3")
        for i, S in enumerate((s1, s2, s3), start=1):
            if 2 * S.order() != L.order():
                raise TransitiveError(f"F.S{i} does not have index 2 in L")
    return SharplyTransitiveGroup(degree=n, group=L, n_part=n_part, s1=s1, s2=s2, s3=s3)


# -- sharply 3-transitive groups M(q) --------------------------------------


def sharply3(q: int) -> SharplyTransitiveGroup:
    """M(q) = PSL2(q).2 on the projective line over GF(q), q = p^(2e)
    with p odd, numbered as the points of A_(q+1): field element x is
    point (x - 2) mod q and infinity is point q, so (0, 1, infinity) are
    the largest three points.  The twisting generator tau: x -> c x^(p^e)
    is searched and validated, never assumed.

    PSL2(q) is closed once.  A candidate tau is kept when every generator
    is even, tau is not in PSL2, tau^2 is in PSL2 and tau^-1 g tau is in
    PSL2 for each generator g of PSL2; then M(q) = PSL2 u PSL2 tau, and
    it must be sharply 3-transitive.  These tests keep exactly the tau
    whose closure <PSL2, tau> has order 2|PSL2| = q(q^2 - 1).  If the
    conjugates of the generators lie in PSL2, conjugation by tau maps PSL2
    into itself, hence onto it, so tau normalizes PSL2 and <PSL2, tau> is
    the union of the cosets PSL2 tau^i; with tau^2 in PSL2 that is
    PSL2 u PSL2 tau, disjoint as tau is not in PSL2, of order 2|PSL2|.
    Conversely, a group of order 2|PSL2| containing PSL2 and tau has PSL2
    of index 2: PSL2 is normal in it, tau is outside PSL2 (else the group
    is PSL2), and the quotient is Z2, so tau^2 lies in PSL2.  So, walking
    c in the same order, these tests pick the same tau as closing
    <PSL2, tau> for each candidate and testing its order would."""
    pp = prime_power(q)
    if pp is None:
        raise TransitiveError(f"q = {q} is not a prime power")
    p, k = pp
    if p == 2:
        raise TransitiveError("q must be a power of an odd prime")
    if k % 2:
        raise TransitiveError(f"exponent {k} of q = {q} is not even")
    e = k // 2

    F = make_field(p, k)
    n = q + 1
    INF = q  # infinity after the q field elements
    point = [(x - 2) % q for x in range(q)] + [INF]

    def proj(fmap: Sequence[int]) -> Perm:
        """x -> fmap[x] on the field elements, fixing infinity, on the
        A_(q+1) points."""
        imgs = [INF] * n
        for x, y in enumerate(fmap):
            imgs[point[x]] = point[y]
        return Perm(imgs)

    add1 = proj([F.add(x, F.one) for x in range(q)])
    w2 = F.pow(F.w, 2)
    scale2 = proj([F.mul(w2, x) for x in range(q)])
    neginv = proj([F.neg(F.inv(x)) if x != F.zero else INF for x in range(q)] + [F.zero])
    psl_gens = [add1, scale2, neginv]
    psl_order = q * (q * q - 1) // 2
    psl = FiniteGroup.from_generators(psl_gens, cap=psl_order, label=f"PSL2({q})")
    if psl.order() != psl_order:
        raise TransitiveError(f"|PSL2({q})| = {psl.order()}, expected {psl_order}")

    failures = []
    for c in range(1, q):
        tau = proj([F.mul(c, F.pow(x, p**e)) for x in range(q)])
        name = f"c={F.format_element(c)}"
        if not all(g.is_even() for g in psl_gens + [tau]):
            failures.append(f"{name}: odd generator")
            continue
        if not _doubles(psl, tau):
            failures.append(f"{name}: <PSL2, tau> does not have order 2|PSL2|")
            continue
        L = FiniteGroup.from_elements(
            psl.elements + tuple(g * tau for g in psl.elements),
            generators=psl_gens + [tau],
            label=f"M({q})",
        )
        try:
            check_sharpness(L, (n - 3, n - 2, n - 1))
        except TransitiveError as exc:
            failures.append(f"{name}: {exc}")
            continue
        return SharplyTransitiveGroup(degree=n, group=L, psl=psl)
    raise TransitiveError(
        "no twisting candidate validates: " + "; ".join(failures)
    )


def _doubles(psl: FiniteGroup, tau: Perm) -> bool:
    """Whether <psl, tau> = psl u psl tau with psl of index 2: tau is
    outside psl, tau^2 is inside, and tau conjugates each generator of psl
    into psl.  Equivalent to |<psl, tau>| = 2|psl| (proof in sharply3)."""
    return (
        tau not in psl
        and tau * tau in psl
        and all(g.conj(tau) in psl for g in psl.generators)
    )


# -- admissible degrees ----------------------------------------------------


class AdmissibilityVerdict(NamedTuple):
    admissible: bool
    case: str  # "a", "b", or "none"
    q: Optional[int] = None
    m: Optional[int] = None
    s: Optional[int] = None


def _qm_decomposition(n: int) -> Optional[tuple[int, int]]:
    """A decomposition n = q^m meeting: q a prime power, every prime of m
    divides q-1, q = 3 (mod 4) and m = 2 (mod 4)."""
    pp = prime_power(n)
    if pp is None:
        return None
    p, k = pp
    for m in range(2, k + 1):
        if k % m or m % 4 != 2:
            continue
        q = p ** (k // m)
        if q % 4 != 3:
            continue
        if all((q - 1) % d == 0 for d in prime_factors(m)):
            return q, m
    return None


def admissible(n: int) -> AdmissibilityVerdict:
    """Whether a non-splitting operator on A_n arises from a sharply 2- or
    3-transitive factor: n = q^m (case a) or n - 1 = q^m (case b)."""
    if n < 5:
        raise TransitiveError("admissibility is defined for n >= 5")
    qa = _qm_decomposition(n)
    if qa is not None:
        q, m = qa
        s = 3 if n in (49, 529) else (1 if n == 9 else 2)
        return AdmissibilityVerdict(admissible=True, case="a", q=q, m=m, s=s)
    qb = _qm_decomposition(n - 1)
    if qb is not None:
        q, m = qb
        return AdmissibilityVerdict(admissible=True, case="b", q=q, m=m, s=1)
    return AdmissibilityVerdict(admissible=False, case="none")


# -- the operators on A_n -------------------------------------------------

VARIANTS = ("S1", "S2", "S3", "default")


class AnOperator(NamedTuple):
    """The non-splitting operator on A_n that build_an_operator makes, as
    the data of its construction: the exact factorization A_n = K L
    (K = ker B, L = Im B), S = ker B~ of index 2 in L, R = {e, r} with r
    an involution of S, t in L outside S, and the distinguished points
    whose pointwise stabilizer is K.  Calling it calls proc, the lookup
    build.construction makes; the provenance is an[n,variant].  proc
    takes the image bytes of a degree-n element, a Perm or plain bytes,
    and returns a Perm: the lookup reads only bytes."""

    group: FiniteGroup
    proc: Callable[[bytes], Perm]
    ker: FiniteGroup
    im: FiniteGroup
    ker_tilde: FiniteGroup
    R: FiniteGroup
    r: Perm
    t: Perm
    distinguished: tuple[int, ...]
    variant: str
    case: str

    def __call__(self, g: bytes) -> Perm:
        return self.proc(g)

    @property
    def provenance(self) -> str:
        return f"an[{self.group.degree},{self.variant}]"


def _involution_stabilizing(S: FiniteGroup, points: tuple[int, ...]) -> Optional[Perm]:
    """The least involution of S that maps `points` onto themselves (the
    first in the sorted S.elements), or None."""
    pset = set(points)
    involutions = (g for g in S.elements if not g.is_identity() and (g * g).is_identity())
    return next((g for g in involutions if {g[x] for x in pset} == pset), None)


def build_an_operator(n: int, variant: str = "default") -> AnOperator:
    """The non-splitting operator on A_n from the exact factorization
    A_n = K L with L sharply 2- or 3-transitive: B(k t^d y) = l^-1 r^d.

    The distinguished points are the largest two (case a) or three
    (case b) point indices.  sharply3 builds M(q) on the A_n numbering
    with (0, 1, infinity) on those three points, so past the choice of
    L, S and the distinguished points both cases run the same code.  r is
    the least involution of S = ker(B~) stabilizing the distinguished set,
    and t the least element of L outside S.  B is build.construction over
    A_n = K L, K the pointwise stabilizer of the distinguished points,
    with phi(l) = r^d(l) onto R = {e, r} (_twist).

    One lookup evaluates B: the construction's part is key = the images
    of the distinguished points, and it names the right cosets of K:
    key(k x) = key(x), as (k x)(i) = x(k(i)) = x(i) there, and key(x) =
    key(y) puts x y^-1 in A_n fixing every distinguished point, that is in
    K, so K x = K y."""
    if variant not in VARIANTS:
        raise TransitiveError(f"variant must be one of {VARIANTS}")
    v = admissible(n)
    if not v.admissible:
        raise TransitiveError(f"n = {n} is not admissible")
    if n not in SUPPORTED_DEGREES:
        raise TransitiveError(
            f"degree {n} not configured (supported: {SUPPORTED_DEGREES})"
        )

    # The cyclic collector is paused while the groups are built.  Every
    # Perm is tracked by it, yet holds no references and so is in no
    # cycle; at n = 50 the collections walking the Perms took about a third
    # of the build.  On every exit, freeze() then unfreeze() moves what the
    # build made into the oldest generation without walking it, so the
    # young collections after the pause do not walk it either (at n = 50
    # the two that did, of generations 0 and 1, took about 0.2 s); the move
    # is skipped when the caller has frozen objects, as unfreeze() would
    # thaw them too.  Then the caller's setting is restored.
    frozen = gc.get_freeze_count()
    collecting = gc.isenabled()
    try:
        gc.disable()
        if v.case == "a":
            st = sharply2(v.m, v.q, 1)
            S = {"S1": st.s1, "S2": st.s2, "S3": st.s3, "default": st.s1}[variant]
            distinguished = (n - 2, n - 1)
        else:
            if variant != "default":
                raise TransitiveError("variants apply only to the q^m case")
            st = sharply3(v.q ** v.m)
            S = st.psl
            distinguished = (n - 3, n - 2, n - 1)
        L = st.group

        sset = S._element_set()
        r = _involution_stabilizing(S, distinguished)
        if r is None:
            raise TransitiveError("no involution of S stabilizes the distinguished points")
        t = min(g for g in L.elements if g not in sset)

        kpoints = [i for i in range(n) if i not in distinguished]
        K = families.alternating_on_points(n, kpoints)
        G = families.alternating(n).group
        R = FiniteGroup.from_elements([G.identity, r], label="R")
        proc = _twist(G, K, L, S, R, distinguished)
    finally:
        if not frozen:
            gc.freeze()
            gc.unfreeze()
        if collecting:
            gc.enable()
    return AnOperator(G, proc, K, L, S, R, r, t, distinguished, variant, v.case)


def _twist(
    G: FiniteGroup, K: FiniteGroup, L: FiniteGroup, S: FiniteGroup, R: FiniteGroup, points: tuple
) -> Callable[[bytes], Perm]:
    """build.construction over G = K L, the right cosets of K named by the
    images of the distinguished `points`, with phi(l) = r^d(l) onto
    R = {e, r} (r an involution), d the S-coset indicator on L (0 on S,
    1 off S)."""
    (e, r), sset = R.elements, S._element_set()
    w = FactorizationWitness(G, K, L, operator.itemgetter(*points))
    return construction(w, lambda l: e if l in sset else r, R)


# -- verification layers ---------------------------------------------------


class LayeredVerdict(NamedTuple):
    ok: bool
    layer: int  # 0 = all passed; else the first failing layer
    detail: str
    pairs_exhaustive: int
    pairs_sampled: int
    seed: int

    def line(self) -> str:
        status = "pass" if self.ok else f"fail layer={self.layer}"
        return (
            f"verify: {status} pairs={self.pairs_exhaustive + self.pairs_sampled}"
            f" seed={self.seed}"
        )


def ranks(rng: random.Random, total: int) -> Iterator[int]:
    """The ranks rng.randrange(total) gives, total >= 1, one per item taken,
    drawn as CPython's Random._randbelow_with_getrandbits draws them:
    getrandbits(k), k = total.bit_length(), until the value is below
    total.  So the ranks are the same and rng is left in the same state;
    rng.choice(seq) is seq[rank] with total = len(seq).  The generator
    reads no value ahead, so draws interleaved with it on one rng keep
    their order.  Every seeded rank of the package is drawn here."""
    bits, getrandbits = total.bit_length(), rng.getrandbits
    while True:
        x = getrandbits(bits)
        if x < total:
            yield x


def _transposition(n: int, a: int, b: int) -> bytes:
    """Image bytes of the transposition (a b) on n points; the identity
    when a = b."""
    imgs = bytearray(_ID[:n])
    imgs[a], imgs[b] = b, a
    return bytes(imgs)


def even_decoder(
    n: int, points: Optional[Sequence[int]] = None
) -> Callable[[Iterable[int]], Iterator[bytes]]:
    """draws(rk): the even permutations of `points` (default: all n points)
    fixing every other point, one for each rank x in [0, k!), k =
    len(points), that the iterator rk gives, each as its image bytes, plain
    bytes of length n; uniform on a uniform rank.  A sampled loop draws its
    elements as draws(ranks(rng, k!)).

    The rank x is read as mixed-radix digits, least significant first:
    x = d_{k-1} + k (d_{k-2} + (k-1) (d_{k-3} + ...)) with 0 <= d_i <= i.
    Digit d_i drives step i of a Fisher-Yates pass, i = k-1 down to 1:
    swap the images of points[i] and points[d_i].

    Uniformity.  The map from a rank in [0, k!) to its digit tuple is a
    bijection onto [0, k-1] x ... x [0, 1] (mixed-radix representation), so
    a uniform rank gives independent uniform digits.  Fisher-Yates maps
    digit tuples bijectively onto Sym(points): step i fixes the image of
    points[i] to one of the i+1 values still unplaced, and distinct digit
    tuples first differ at some step, where they place different values.
    So the decode is a bijection from [0, k!) onto Sym(points).  Each swap
    of two distinct positions multiplies by a transposition and flips the
    parity, so the parity is the number of swaps with d_i != i, and no
    is_even pass is needed.  An odd result has the images of points[0] and
    points[1] swapped; that is composition with a fixed transposition, a
    bijection from the odd permutations onto the even ones.  For k >= 2
    each even permutation is therefore hit by exactly two ranks (itself
    and its odd partner), so a uniform rank decodes to a uniform element
    of Alt(points); for k <= 1 the only permutation is the identity.

    Table decode.  The steps are cut, in order, into chunks, each as long
    as keeps its radix product R (the i+1 of its steps i) at most
    SAMPLER_CHUNK.  A chunk's digits are one digit c = x mod R, read
    before x = x div R: the same mixed-radix digits, read in groups, so
    the same bijection.  The chunk's table holds, for each c, the
    permutation P[c] its swaps make from the identity and the parity of
    their number.  Swapping the images at positions a and b turns the
    image tuple of q into that of tau q, tau = (a b), as
    (tau q)(p) = q(tau(p)) in the package's left-to-right product.  So
    later swaps multiply on the left.  A chunk's table is built step by
    step from [identity]: with R' the radix product of the steps before
    step i, entry c + R' j of the next table is tau_j P[c], tau_j =
    (points[i] points[j]), that is tau_j.translate(P[c] + pad), and its
    parity flips when j != i.  The pass is P_m ... P_2 P_1 with P_1 the
    least significant chunk, and acc -> P[c] acc is
    P[c].translate(acc) + pad, which keeps acc padded to 256 bytes from
    the first chunk's table, stored padded.  The last digit is what is
    left of x, and the last table folds in the parities: entry 2 c + p
    is s^(p xor parity(P[c])) P[c], s the fixed transposition, for p the
    parity of the earlier chunks.  The tables are built per call, not at
    import: at k = 9 the chunks are 9*8*7 and 6*5*4*3*2, 504 + 2 * 720
    entries, and a draw is one divmod and one translate.

    Listed ranks.  When |Alt(points)| = k!/2 is at most ENUMERATION_CAP
    (k <= 7), every rank is decoded once into a list, and draws(rk) is
    map(listed.__getitem__, rk): entry x is the table decode of rank x,
    so both give the same permutation of each rank, and a listed rank
    gives the stored object, the same each time.  At k = 7 the list holds
    5,040 permutations, made in about 4 ms."""
    pts = list(range(n)) if points is None else list(points)
    total = math.factorial(len(pts))
    pad = _ID[n:]
    swap = _transposition(n, pts[0], pts[1]) if len(pts) >= 2 else _ID[:n]

    chunks = []  # (R, P, parity) for each chunk, least significant first
    steps = [(i + 1, pts[i]) for i in range(len(pts) - 1, 0, -1)]
    while steps:
        size, radix = 1, steps[0][0]
        while size < len(steps) and radix * steps[size][0] <= SAMPLER_CHUNK:
            radix *= steps[size][0]
            size += 1
        chunk, steps = steps[:size], steps[size:]
        perms, parity = [_ID[:n]], [0]
        for step_radix, a in chunk:
            taus = [_transposition(n, a, b) for b in pts[:step_radix]]
            padded = [P + pad for P in perms]
            perms = [tau.translate(P) for tau in taus for P in padded]
            parity = [o ^ (a != b) for b in pts[:step_radix] for o in parity]
        chunks.append((radix, perms, parity))
    # one chunk (k <= 6) or none (k <= 1): the first is the identity
    _, perms, parity = chunks.pop() if chunks else (1, [_ID[:n]], [0])
    last = [swap.translate(P + pad) if p ^ o else P for P, o in zip(perms, parity) for p in (0, 1)]
    (radix1, perms1, parity1), *rest = chunks or [(1, [_ID[:n]], [0])]
    perms1 = [P + pad for P in perms1]

    def draws(rk: Iterable[int]) -> Iterator[bytes]:
        for x in rk:
            x, c = divmod(x, radix1)
            acc, odd = perms1[c], parity1[c]
            for radix, perms, parity in rest:
                x, c = divmod(x, radix)
                acc = perms[c].translate(acc) + pad
                odd ^= parity[c]
            yield last[2 * x + odd].translate(acc)

    if total // 2 > ENUMERATION_CAP:
        return draws
    listed = list(draws(range(total)))
    return lambda rk: map(listed.__getitem__, rk)


def _pairs(draws: Callable[..., Iterator[bytes]], rk: Iterator[int]) -> Iterator[tuple[bytes, bytes]]:
    """The pairs (g, h) of a seeded loop of two draws per sample: one
    draws(rk) zipped with itself, g before h.  A loop zips range(count)
    first, so it draws no rank past its last sample."""
    drawn = draws(rk)
    return zip(drawn, drawn)


def verify_an_operator(
    B: AnOperator,
    sample_count: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> LayeredVerdict:
    """Three layers: the structure of the construction and agreement with
    its body on L, the defining identity on L x L, and seeded random pairs
    from A_n.

    Layer 1 checks the index-2 facts the dump records (t in L outside S,
    r an involution in S), then rebuilds B by build.construction, which
    names the first of its preconditions that fails, and compares the two
    on L.  With r an involution, phi = r^d is a homomorphism iff d, the
    S-coset indicator, is one L -> Z2, with kernel S of index 2.  B is
    evaluated once on each element of L, and layer 2 reuses those images.

    Layer 2 is rbop.verify on B restricted to L, a table operator on L's
    Cayley table, and follows from layer 1; it runs as a check of it.
    For g, h in L, a = d(g), b = d(h), layer 1 gives B(g) = g^-1 r^a in L,
    with r an involution of S and d a homomorphism L -> Z2.  So
    g o h = g g^-1 r^a h r^-a g = r^a h r^a g lies in L with d = a + b,
    as d(r) = 0, and B(g o h) = g^-1 r^a h^-1 r^a r^(a+b) = B(g) B(h): the
    restriction satisfies the identity exactly where B does on L x L.  An
    L of more than ENUMERATION_CAP elements (M(49), at n = 50) is refused
    with TransitiveError before any layer runs: its table would hold
    |L|^2 entries.

    Layer 3 draws g and h uniformly from A_n, the even_decoder draws of
    ranks(Random(seed), n!), the ranks of rng.randrange(n!), and evaluates
    B once each at g, h and g o h by calling B's procedure directly, as
    rbop.circ_kernel does, on their plain image bytes of degree n (so the
    kernel's pairs need no degree check).  The verdict line prints only
    the pair counts and the seed; a failing verdict's detail names the
    sample index and the pair, as Perms."""
    if sample_count < 0:
        raise TransitiveError(f"sample count must be >= 0, got {sample_count}")
    K, L, S, r, t = B.ker, B.im, B.ker_tilde, B.r, B.t
    if L.order() > ENUMERATION_CAP:
        raise TransitiveError(
            f"|L| = {L.order()} exceeds the enumeration cap {ENUMERATION_CAP}:"
            " layer 2 needs the Cayley table of L"
        )

    def fail(layer: int, detail: str) -> LayeredVerdict:
        return LayeredVerdict(False, layer, detail, 0, 0, seed)

    # layer 1: the index-2 facts, then the construction
    if t not in L or t in S:
        return fail(1, "t must lie in L outside S")
    if r.is_identity() or not (r * r).is_identity():
        return fail(1, "r is not an involution")
    if r not in S:
        return fail(1, "r must lie in S")
    try:
        R = FiniteGroup.from_elements([B.group.identity, r])
        C = _twist(B.group, K, L, S, R, B.distinguished)
    except ConstructionError as exc:
        return fail(1, str(exc))
    images = list(map(B, L.elements))
    for l, b in zip(L.elements, images):
        if b != C(l):
            return fail(1, f"B(l) != l^-1 r^d(l) at {l!r}")

    # layer 2: the identity on L x L, as B restricted to L
    v = verify(RBOperator(group=L, table=tuple(map(L.index, images))))
    if not v.ok:
        return fail(2, "identity fails at L-pair ({!r}, {!r})".format(*v.witness))
    exhaustive = v.pairs

    # layer 3: seeded random pairs from the whole group
    n, f = B.group.degree, B.proc
    circ, pad = circ_kernel(f, n), _ID[n:]
    pairs = _pairs(even_decoder(n), ranks(random.Random(seed), math.factorial(n)))
    for i, (g, h) in zip(range(sample_count), pairs):
        b, gh = circ(g, h)
        if b.translate(f(h) + pad) != f(gh):
            detail = f"identity fails at sample {i}: ({_new(Perm, g)!r}, {_new(Perm, h)!r})"
            return LayeredVerdict(False, 3, detail, exhaustive, i + 1, seed)
    return LayeredVerdict(True, 0, "", exhaustive, sample_count, seed)


# -- descendent structure --------------------------------------------------


class DescendentReport(NamedTuple):
    ok: bool
    detail: str
    s_pairs: int
    k_samples: int
    twist_samples: int


def descendent_structure(B: AnOperator, seed: int = DEFAULT_SEED) -> DescendentReport:
    """The product g o h = g B(g) h B(g)^-1 restricted to the parts of the
    construction: opposite product on S, plain product on K, and the
    twisted commutation l o h = h^(r^d) o l across parts.

    S x S is checked through the generators of S.  With x = s B(s),
    s o s' = x s' B(s)^-1 and s' s = s' x B(s)^-1, so s o s' = s' s iff
    x s' = s' x.  That holds for all s' in S iff x commutes with each of
    S.generators, as the centralizer of x is a subgroup and S is the
    closure of its generators.  Only a failing s scans S.elements, for
    the first s' that does not commute with x: the first failing pair of
    the pairwise walk in canonical order.  s_pairs counts that walk's
    pairs: |S|^2 on a pass, i |S| + j + 1 at (S.elements[i], S.elements[j]).

    The K loop takes DESCENDENT_K_SAMPLES pairs and then the twist loop
    DESCENDENT_TWIST_SAMPLES, both from one rng = Random(seed).  The
    K-elements are drawn uniformly from K = Alt(the k points outside the
    distinguished ones), the even_decoder draws of ranks(rng, k!) (at
    n = 9 and 10, K is Alt(7 points), whose ranks are listed), and l is
    L.elements[j] for a rank j of ranks(rng, |L|), the l that
    rng.choice(L.elements) gives.  The twist loop draws, per sample, an
    L-rank and then a K-rank, the latter from the K loop's own rank
    iterator, which stands after the K loop's last draw.  Both loops
    compare the image bytes of products from rbop.circ_kernel as the
    kernel returns them, with no Perm made: the draws and the h^(r^d)
    stay plain bytes, handed to B as they are, and the elements of L are
    Perms, all of degree n, so the kernel's pairs need no degree check."""
    S, r, L = B.ker_tilde, B.r, B.im
    sset = S._element_set()

    selems = S.elements
    for i, s1 in enumerate(selems):
        x = s1 * B(s1)
        if any(x * s != s * x for s in S.generators):
            j, s2 = next((j, s2) for j, s2 in enumerate(selems) if x * s2 != s2 * x)
            detail = f"s o s' != s' s at ({s1!r}, {s2!r})"
            return DescendentReport(False, detail, i * len(selems) + j + 1, 0, 0)
    s_pairs = len(selems) ** 2

    n = B.group.degree
    kpoints = [i for i in range(n) if i not in B.distinguished]
    circ, pad = circ_kernel(B.proc, n), _ID[n:]
    lelems, rpad = L.elements, r + pad

    k_draws, rng = even_decoder(n, kpoints), random.Random(seed)
    k_ranks = ranks(rng, math.factorial(len(kpoints)))
    for i, (h1, h2) in zip(range(DESCENDENT_K_SAMPLES), _pairs(k_draws, k_ranks)):
        if circ(h1, h2)[1] != h1.translate(h2 + pad):
            return DescendentReport(False, f"h o h' != h h' at sample {i}", s_pairs, i + 1, 0)

    # l, then h: the order of the seeded stream
    drawn = zip(map(lelems.__getitem__, ranks(rng, len(lelems))), k_draws(k_ranks))
    for i, (l, h) in zip(range(DESCENDENT_TWIST_SAMPLES), drawn):
        h_tw = h if l in sset else r.translate(h + pad).translate(rpad)
        if circ(l, h)[1] != circ(h_tw, l)[1]:
            detail = f"l o h != h^(r^d) o l at sample {i}"
            return DescendentReport(False, detail, s_pairs, DESCENDENT_K_SAMPLES, i + 1)
    return DescendentReport(True, "", s_pairs, DESCENDENT_K_SAMPLES, DESCENDENT_TWIST_SAMPLES)
