"""The ten structural properties every operator must satisfy.

Shared between the unit tests and the acceptance suite.  The checks for
table operators are exhaustive up to order 200 and pair-sampled beyond;
the A_n operators (transitive.AnOperator) get a sampled variant driven by
a seeded RNG.
"""

from __future__ import annotations

import math
import random

from rbgroups import rbop
from rbgroups.perm import Perm
from rbgroups.rbop import RBOperator, circ, tilde
from rbgroups.transitive import DEFAULT_SEED, AnOperator

EXHAUSTIVE_MAX_ORDER = 200


def _prop5(B: RBOperator, a: Perm, kmax: int) -> bool:
    """Prop 5 for -kmax <= k <= kmax: the k-th descendent power of a equals
    B_+(a)^k B(a)^-k.  Each side is built one factor at a time from k = 0
    outwards, so the cost is linear in kmax."""
    ident = B.group.identity
    ba = B(a)
    bpa = a * ba  # B_+(a)
    a_bar = ba.inverse() * a.inverse() * ba  # descendent inverse of a
    # k >= 0 steps by (a, B_+(a), B(a)^-1); k <= 0 by (a_bar, B_+(a)^-1, B(a))
    for step, left, right in ((a, bpa, ba.inverse()), (a_bar, bpa.inverse(), ba)):
        power, lpow, rpow = ident, ident, ident
        for _ in range(kmax + 1):
            if power != lpow * rpow:
                return False
            power, lpow, rpow = circ(B, power, step), lpow * left, rpow * right
    return True


def check_invariants(B: RBOperator) -> list[tuple[str, bool]]:
    """Run all ten properties on a table operator; returns (name, ok) pairs."""
    G = B.group
    elems = G.elements
    n = len(elems)
    if n <= EXHAUSTIVE_MAX_ORDER:
        pairs = [(g, h) for g in elems for h in elems]
        singles = list(elems)
    else:
        rng = random.Random(DEFAULT_SEED)
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(2000)]
        singles = [rng.choice(elems) for _ in range(200)]

    results = []
    Bt = tilde(B)

    results.append(("eq2", all(rbop.check_pair(B, g, h) for g, h in pairs)))
    results.append((
        "prop1c",
        all(B(g).inverse() == B(B(g).inverse() * g.inverse() * B(g)) for g in singles),
    ))
    ker = [g for g in elems if B(g).is_identity()]
    results.append((
        "prop1d",
        all(B(g * h) == B(h) for g in ker for h in singles),
    ))
    # B B_+ = B_+ B as maps: B(g B(g)) = B(g) B(B(g))
    results.append(("prop4", all(B(g * B(g)) == B(g) * B(B(g)) for g in singles)))
    kmax = min(n, 24)
    results.append(("prop5", all(_prop5(B, a, kmax) for a in singles)))

    data = rbop.images(B)
    im_bbt = {B(Bt(g)) for g in elems}
    im_btb = {Bt(B(g)) for g in elems}
    results.append(("lemma1", im_bbt == im_btb == set(data.R.elements)))

    split = len(im_btb) == 1
    matches = False
    from rbgroups import build, perm

    try:
        w = perm.exact_factorization(G, data.ker, data.ker_tilde)
        e = G.identity
        matches = build.construction(w, lambda l: e, w.right.subgroup([e])).table == B.table
    except (perm.PermError, build.ConstructionError):
        matches = False
    results.append(("prop7", split == matches))

    center = [z for z in elems if all(z * g == g * z for g in G.generators)]
    results.append((
        "lemma2b",
        all(c.order() % B(c).order() == 0 for c in center),
    ))
    results.append(("tilde_involution", tilde(Bt).table == B.table))
    results.append(("prop6d_eq8", True))  # asserted inside images(); raising = failure
    return results


def _companion(f):
    """B~ of the operator f, as a map: g -> g^-1 f(g^-1)."""
    return lambda g: g.inverse() * f(g.inverse())


def check_invariants_sampled(B: AnOperator, seed: int = 7, samples: int = 50) -> list[tuple[str, bool]]:
    """Sampled variant of the ten properties for an A_n operator, read
    against the data of its construction (K = ker B, S = ker B~, L = Im B,
    R = {e, r}), with B~ built as g -> g^-1 B(g^-1)."""
    from rbgroups.transitive import even_decoder, ranks

    G = B.group
    decode, stream = even_decoder(G.degree), ranks(random.Random(seed), math.factorial(G.degree))
    singles = [decode(next(stream)) for _ in range(samples)]
    pairs = [(a, b) for a in singles[:20] for b in singles[:20]]

    results = []
    Bt = _companion(B)
    results.append(("eq2", all(rbop.check_pair(B, g, h) for g, h in pairs)))
    results.append((
        "prop1c",
        all(B(g).inverse() == B(B(g).inverse() * g.inverse() * B(g)) for g in singles),
    ))
    ker_gens = B.ker.generators
    results.append((
        "prop1d",
        all(B(g * h) == B(h) for g in ker_gens for h in singles),
    ))
    results.append(("prop4", all(B(g * B(g)) == B(g) * B(B(g)) for g in singles)))
    results.append(("prop5", all(_prop5(B, a, 8) for a in singles[:10])))
    R = set(B.R.elements)
    results.append((
        "lemma1",
        all(B(Bt(g)) in R and Bt(B(g)) in R for g in singles),
    ))
    results.append(("prop7", R != {G.identity}))  # non-splitting by construction
    results.append(("lemma2b", True))  # center of A_n (n >= 5) is trivial
    results.append((
        "tilde_involution",
        all(_companion(Bt)(g) == B(g) for g in singles),
    ))

    # |R| = |Im(B):ker(B~)|, and Im(B~) = K u K r: B~(g), or B~(g) r,
    # fixes every distinguished point, as K is their pointwise stabilizer
    def in_k(x):
        return all(x[i] == i for i in B.distinguished)

    ok10 = B.R.order() * B.ker_tilde.order() == B.im.order()
    ok10 &= all(in_k(x) or in_k(x * B.r) for x in map(Bt, singles))
    results.append(("prop6d_eq8", ok10))
    return results


def assert_invariants(B: RBOperator) -> None:
    failed = [name for name, ok in check_invariants(B) if not ok]
    assert not failed, f"properties failed on {B.provenance or 'operator'}: {failed}"
