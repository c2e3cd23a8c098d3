"""Isomorphism labels for small groups.

Named labels are guaranteed for order <= 16 via a reference catalog
(order + abelian flag + element-order spectrum, with a brute-force
isomorphism search as tie-breaker).  A few larger groups that show up
as structural invariants get targeted recognitions; everything else
falls back to a deterministic invariant-tuple string.
"""

from __future__ import annotations

from functools import lru_cache

from . import families
from .perm import FiniteGroup, Grower, Perm, _kept, closure, is_isomorphic


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    """A x B acting on the disjoint union of the two domains."""
    dA, dB = A.degree, B.degree
    gens = []
    for g in A.generators:
        gens.append(Perm(tuple(g) + tuple(dA + i for i in range(dB))))
    for g in B.generators:
        gens.append(Perm(tuple(range(dA)) + tuple(dA + v for v in g)))
    return FiniteGroup.from_generators(gens, cap=A.order() * B.order())


def _semidihedral16() -> FiniteGroup:
    r = Perm(tuple((i + 1) % 8 for i in range(8)))
    s = Perm(tuple(3 * i % 8 for i in range(8)))
    return FiniteGroup.from_generators([r, s], cap=16, label="SD16")


def _modular16() -> FiniteGroup:
    r = Perm(tuple((i + 1) % 8 for i in range(8)))
    s = Perm(tuple(5 * i % 8 for i in range(8)))
    return FiniteGroup.from_generators([r, s], cap=16, label="M16")


def _z4_semi_z4() -> FiniteGroup:
    # <a, b | a^4 = b^4 = e, a^b = a^-1>, regular representation
    def mult(x: int, y: int) -> int:
        i, j = x % 4, x // 4
        k, l = y % 4, y // 4
        return (i + (k if j % 2 == 0 else -k)) % 4 + 4 * ((j + l) % 4)

    gens = [Perm(mult(x, 1) for x in range(16)), Perm(mult(x, 4) for x in range(16))]
    return FiniteGroup.from_generators(gens, cap=16, label="Z4:Z4")


@lru_cache(maxsize=1)
def _reference_catalog() -> dict[int, list[tuple[str, FiniteGroup]]]:
    refs: list[tuple[str, FiniteGroup]] = []
    for n in range(1, 17):
        refs.append((f"Z{n}", families.cyclic(n).group))
    c = families.cyclic
    d = families.dihedral
    q = families.generalized_quaternion
    refs += [
        ("Z2xZ2", families.klein().group),
        ("Z2xZ4", direct_product(c(2).group, c(4).group)),
        ("Z2xZ2xZ2", direct_product(c(2).group, families.klein().group)),
        ("Z3xZ3", direct_product(c(3).group, c(3).group)),
        ("Z6xZ2", direct_product(c(6).group, c(2).group)),
        ("Z2xZ8", direct_product(c(2).group, c(8).group)),
        ("Z4xZ4", direct_product(c(4).group, c(4).group)),
        ("Z2xZ2xZ4", direct_product(families.klein().group, c(4).group)),
        ("Z2xZ2xZ2xZ2", direct_product(families.klein().group, families.klein().group)),
        ("S3", d(3).group),
        ("D8", d(4).group),
        ("D10", d(5).group),
        ("D12", d(6).group),
        ("D14", d(7).group),
        ("D16", d(8).group),
        ("Q8", q(2).group),
        ("Q12", q(3).group),
        ("Q16", q(4).group),
        ("A4", families.alternating(4).group),
        ("SD16", _semidihedral16()),
        ("M16", _modular16()),
        ("D8xZ2", direct_product(d(4).group, c(2).group)),
        ("Q8xZ2", direct_product(q(2).group, c(2).group)),
        ("Z4:Z4", _z4_semi_z4()),
    ]
    # duplicates by isomorphism type keep the first label (Z6xZ2 aliases Z2xZ6)
    by_order: dict[int, list[tuple[str, FiniteGroup]]] = {}
    for label, G in refs:
        by_order.setdefault(G.order(), []).append((label, G))
    return by_order


@_kept
def invariant_tuple(G: FiniteGroup) -> tuple:
    """(order, abelian flag, element-order multiset); cheap iso invariant,
    kept on G, so each catalog reference's is computed once per process."""
    spectrum: dict[int, int] = {}
    for k in G.element_orders():
        spectrum[k] = spectrum.get(k, 0) + 1
    return (G.order(), G.is_abelian(), tuple(sorted(spectrum.items())))


def _fallback_label(G: FiniteGroup) -> str:
    order, abelian, spectrum = invariant_tuple(G)
    spec = ",".join(f"{k}:{v}" for k, v in spectrum)
    return f"G[order={order},abelian={abelian},spectrum={spec}]"


def _normal_sylow3(G: FiniteGroup) -> bool:
    """Whether the elements of order 1 or 3 of G, |G| = 36 or 72, form a
    normal subgroup E of order 9, read off the spectrum: there are 9 of
    them and no element has order 9.

    |G|_3 = 9, so with no element of order 9 every Sylow 3-subgroup is
    Z3xZ3.  Two different Sylow 3-subgroups meet in at most 3 elements,
    so together they would have at least 15 elements of order 1 or 3.
    So exactly 9 such elements means there is one Sylow 3-subgroup; it is
    normal, and it is E.  Conversely, a normal E of order 9 is the only
    Sylow 3-subgroup, so it holds every element of 3-power order, and
    none has order 9."""
    spectrum = dict(invariant_tuple(G)[2])
    return spectrum[1] + spectrum.get(3, 0) == 9 and 9 not in spectrum


def _recognize_large(G: FiniteGroup) -> str | None:
    order = G.order()
    if order in (36, 72) and not G.is_abelian() and _normal_sylow3(G):
        # (Z3xZ3)-by-2-group shapes from the sharply 2-transitive world
        if order == 36 and 4 in dict(invariant_tuple(G)[2]):
            return "(Z3xZ3):Z4"
        if order == 72:
            orders = G.order_table()
            fours = [e for e in G.elements if orders[e] == 4]
            for x in fours:
                for y in fours:
                    if x != y and x * x == y * y:
                        Q = closure([x, y], cap=order)
                        if len(Q) == 8 and sorted(p.order() for p in Q) == [1, 2, 4, 4, 4, 4, 4, 4]:
                            return "(Z3xZ3):Q8"
    # A perfect group G of order 60 is A5.  A proper nontrivial normal
    # subgroup N would give a perfect quotient G/N of order between 2 and
    # 59; every group of order < 60 is solvable, and a solvable perfect
    # group is trivial.  So G is simple, and A5 is the only simple group
    # of order 60.
    # A perfect G of order 360 is PSL(2,9) = A6, and of order 2520 is A7.
    # Take a maximal normal subgroup M.  G/M is simple and perfect, so
    # non-abelian simple of order dividing |G|: A5 or A6 for 360, and
    # A5, PSL(2,7), A6, PSL(2,8) or A7 for 2520 (PSL(2,11), PSL(2,13)
    # and PSL(2,17) are the others below 2520, and their orders do not
    # divide it).  So |M| is 6 or 1 for 360, and 42, 15, 7, 5 or 1 for
    # 2520.  Let Z be M, or for |M| = 42 the Sylow 7-subgroup of M, which
    # is normal in M by Sylow's theorem, so characteristic in M and normal
    # in G.  A nontrivial Z has order 6, 7, 5 or 15, so Aut(Z) is solvable
    # (Z2 or S3, Z6, Z4, Z2xZ4), and the image of the perfect G in it is
    # trivial: G centralizes Z, and Z is central and abelian.  For a
    # perfect G, a central Z is a quotient of the Schur multiplier of
    # G/Z: Z2 for A5 (|Z| = 6 in 360) and PSL(2,7) (|Z| = 15), Z6 for A6
    # (|Z| = 7, and for |M| = 42 G/Z is perfect of order 360, so A6 by
    # the first case), 1 for PSL(2,8) (|Z| = 5).  No |Z| divides its
    # multiplier, so M = 1 and G is simple; A6 and A7 are the only simple
    # groups of orders 360 and 2520.
    if order in (60, 360, 2520) and _is_perfect(G):
        return {60: "A5", 360: "PSL(2,9)", 2520: "A7"}[order]
    return None


def _is_perfect(G: FiniteGroup) -> bool:
    """Whether [G, G] = G.  [G, G] is the normal closure N of the
    commutators of the generators: G/N is generated by commuting images,
    so it is abelian and [G, G] lies in N; N lies in [G, G], which is
    normal and contains them.  N is grown from those commutators; each
    element that joins its generators queues its conjugates by the
    generators of G, so at the end every generator of N has its conjugates
    in N, and N is normal (as in rbop._normal_in)."""
    gens = G.generators
    N = Grower(G.identity)
    queue = [a.inverse() * b.inverse() * a * b for a in gens for b in gens]
    for x in queue:
        if x not in N.members:
            N.add(x)
            queue += [x.conj(g) for g in gens]
    return len(N.elements) == G.order()


def iso_label(G: FiniteGroup) -> str:
    """Isomorphism label: a name for order <= 16 (plus a few targeted
    recognitions), otherwise a deterministic invariant-tuple string."""
    if not G.enumerated:
        return G.label or f"G[order={G.known_order}]"
    order = G.order()
    if order <= 16:
        inv = invariant_tuple(G)
        matches = [
            (label, R)
            for label, R in _reference_catalog().get(order, [])
            if invariant_tuple(R) == inv
        ]
        if len(matches) == 1:
            return matches[0][0]
        for label, R in matches:
            if is_isomorphic(G, R):
                return label
        return _fallback_label(G)
    special = _recognize_large(G)
    if special is not None:
        return special
    # cyclic groups of any size
    if G.is_abelian() and order in G.order_table().values():
        return f"Z{order}"
    return _fallback_label(G)
