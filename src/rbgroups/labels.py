"""Isomorphism labels for small groups; every name has a proof.

The reference catalog lists every group of order <= 16, where a unique
match of the invariant tuple names G and perm.is_isomorphic tells apart
references that share it, and two affine groups of order 36 and 72,
whose names G gets only when is_isomorphic proves them.  A5, PSL(2,9)
and A7 are the perfect groups of their orders.  Everything else falls
back to a deterministic invariant string, which is not a type.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from . import families
from .perm import FiniteGroup, Grower, Perm, _kept, is_isomorphic


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    """A x B acting on the disjoint union of the two domains."""
    dA, dB = A.degree, B.degree
    gens = []
    for g in A.generators:
        gens.append(Perm(tuple(g) + tuple(dA + i for i in range(dB))))
    for g in B.generators:
        gens.append(Perm(tuple(range(dA)) + tuple(dA + v for v in g)))
    return FiniteGroup.from_generators(gens, cap=A.order() * B.order())


def _z8_semi_z2(k: int) -> FiniteGroup:
    """Z8 : Z2 on Z8, by x -> x + 1 and x -> k x (SD16 for k = 3, M16 for 5)."""
    r, s = Perm((i + 1) % 8 for i in range(8)), Perm(k * i % 8 for i in range(8))
    return FiniteGroup.from_generators([r, s], cap=16)


def _z4_semi_z4(x: int, y: int) -> int:
    """<a, b | a^4 = b^4 = e, a^b = a^-1>, a^i b^j at i + 4 j."""
    i, j, k, l = x % 4, x // 4, y % 4, y // 4
    return (i + (-k if j % 2 else k)) % 4 + 4 * ((j + l) % 4)


def _klein_semi_z4(x: int, y: int) -> int:
    """(Z2 x Z2) : <c>, c of order 4 swapping the factors; (u, v) c^j at
    u + 2 v + 4 j."""
    i, j, k, l = x % 4, x // 4, y % 4, y // 4
    if j % 2:
        k = (k & 1) << 1 | k >> 1
    return (i ^ k) + 4 * ((j + l) % 4)


def _pauli(x: int, y: int) -> int:
    """Z4 o D8, the Pauli group: i^k X^a Z^b at k + 4 a + 8 b; Z X = -X Z."""
    k, a, b, l, c, d = x % 4, x // 4 % 2, x // 8, y % 4, y // 4 % 2, y // 8
    return (k + l + 2 * b * c) % 4 + 4 * (a ^ c) + 8 * (b ^ d)


def _affine9(*linear: Callable[[int, int], tuple[int, int]]) -> FiniteGroup:
    """The affine maps of GF(3)^2, (x, y) at point x + 3 y, with linear
    parts generated by `linear`."""
    maps = [lambda x, y: (x + 1, y), lambda x, y: (x, y + 1), *linear]
    perms = [Perm(a % 3 + b % 3 * 3 for a, b in (f(p % 3, p // 3) for p in range(9))) for f in maps]
    return FiniteGroup.from_generators(perms, cap=72)


def _cyclic(n: int) -> FiniteGroup:
    return families.cyclic(n).group


# The references of each order past Zn, in the order iso_label tries
# them; each is built only when a group of its order is labelled.
_CATALOG: dict[int, tuple[tuple[str, Callable[[], FiniteGroup]], ...]] = {
    4: (("Z2xZ2", lambda: families.klein().group),),
    6: (("S3", lambda: families.dihedral(3).group),),
    8: (
        ("Z2xZ4", lambda: direct_product(_cyclic(2), _cyclic(4))),
        ("Z2xZ2xZ2", lambda: direct_product(_cyclic(2), families.klein().group)),
        ("D8", lambda: families.dihedral(4).group),
        ("Q8", lambda: families.generalized_quaternion(2).group),
    ),
    9: (("Z3xZ3", lambda: direct_product(_cyclic(3), _cyclic(3))),),
    10: (("D10", lambda: families.dihedral(5).group),),
    12: (
        ("Z6xZ2", lambda: direct_product(_cyclic(6), _cyclic(2))),
        ("D12", lambda: families.dihedral(6).group),
        ("Q12", lambda: families.generalized_quaternion(3).group),
        ("A4", lambda: families.alternating(4).group),
    ),
    14: (("D14", lambda: families.dihedral(7).group),),
    16: (
        ("Z2xZ8", lambda: direct_product(_cyclic(2), _cyclic(8))),
        ("Z4xZ4", lambda: direct_product(_cyclic(4), _cyclic(4))),
        ("Z2xZ2xZ4", lambda: direct_product(families.klein().group, _cyclic(4))),
        ("Z2xZ2xZ2xZ2", lambda: direct_product(families.klein().group, families.klein().group)),
        ("D16", lambda: families.dihedral(8).group),
        ("Q16", lambda: families.generalized_quaternion(4).group),
        ("SD16", lambda: _z8_semi_z2(3)),
        ("M16", lambda: _z8_semi_z2(5)),
        ("D8xZ2", lambda: direct_product(families.dihedral(4).group, _cyclic(2))),
        ("Q8xZ2", lambda: direct_product(families.generalized_quaternion(2).group, _cyclic(2))),
        ("Z4:Z4", lambda: families._regular_representation(16, _z4_semi_z4, [1, 4], "Z4:Z4")[0]),
        ("(Z2xZ2):Z4",
         lambda: families._regular_representation(16, _klein_semi_z4, [1, 4], "(Z2xZ2):Z4")[0]),
        ("Z4oD8", lambda: families._regular_representation(16, _pauli, [1, 4, 8], "Z4oD8")[0]),
    ),
    # fixed-point-free on GF(3)^2: Z4 = <J>, Q8 = <J, K>
    36: (("(Z3xZ3):Z4", lambda: _affine9(lambda x, y: (-y, x))),),
    72: (("(Z3xZ3):Q8", lambda: _affine9(lambda x, y: (-y, x), lambda x, y: (x + y, x - y))),),
}


@lru_cache(maxsize=None)
def _references(order: int) -> list[tuple[str, FiniteGroup]]:
    """The catalog's references of one order, built on the first call for
    that order: Zn first for n <= 16, then _CATALOG's."""
    refs = [(f"Z{order}", _cyclic(order))] if order <= 16 else []
    return refs + [(label, build()) for label, build in _CATALOG.get(order, ())]


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
    """Isomorphism label: a catalog name, a perfect or cyclic group's
    name, or else a deterministic invariant-tuple string."""
    if not G.enumerated:
        return G.label or f"G[order={G.known_order}]"
    order = G.order()
    refs = _references(order)
    matches = [(label, R) for label, R in refs if invariant_tuple(R) == invariant_tuple(G)]
    if order <= 16 and len(matches) == 1:  # the catalog lists every group of this order
        return matches[0][0]
    for label, R in matches:
        if is_isomorphic(G, R):
            return label
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
    # cyclic groups of any size
    if G.is_abelian() and order in G.order_table().values():
        return f"Z{order}"
    return _fallback_label(G)
