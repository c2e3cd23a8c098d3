"""Operator constructions: the general construction over an exact
factorization with a homomorphism into an abelian subgroup, which builds
a table operator, or on a generator-only group the lookup that evaluates
the operator, and a catalog of named example operators."""

from __future__ import annotations

from typing import Callable

from . import families
from .perm import (
    FactorizationWitness,
    FiniteGroup,
    Perm,
    exact_factorization,
    extend_homomorphism,
    homomorphism_failure,
)
from .rbop import RBOperator, images, tilde


class ConstructionError(ValueError):
    """A named precondition of a builder failed."""


def construction(
    w: FactorizationWitness,
    phi: Callable[[Perm], Perm],
    R: FiniteGroup,
    provenance: str = "construction",
) -> RBOperator | Callable[[Perm], Perm]:
    """The operator B(k l) = l^-1 phi(l^-1) on the group of an exact
    factorization w: G = K L, for a homomorphism phi: L -> R into an
    abelian subgroup R of L whose image normalizes K; phi = e gives the
    splitting operator k l -> l^-1.  ConstructionError names the first
    precondition that fails: w is exact (w.exact); R is abelian and lies
    in L; phi is a homomorphism on L (perm.homomorphism_failure); phi(s)
    lies in R and normalizes K for each generator s of L, checked on K's
    generators (conjugation is an automorphism, and the phi(s) generate
    phi(L)), with x in K iff w.part(x) = w.part(e).

    B(x) is the image (phi(l) l)^-1 of the l with w.part(l) = w.part(x):
    a table operator when G is enumerated, else the lookup
    x -> body[w.part(x)] itself.  Nothing verifies the result: the
    preconditions prove the identity.  With x = k l, y = k' l' and
    B(x) = l^-1 phi(l)^-1,

        x o y = x B(x) y B(x)^-1 = k (phi(l)^-1 k' phi(l)) m,
        m = phi(l)^-1 l' phi(l) l,

    where the middle factor lies in K (phi(l) normalizes K) and m in L
    (phi(l) lies in R <= L), so m is the L-part of x o y.  The four
    factors of phi(m) lie in the abelian R, so phi(m) = phi(l') phi(l), and
    B(x o y) = m^-1 phi(m)^-1 = l^-1 phi(l)^-1 l'^-1 phi(l')^-1 = B(x) B(y).
    """
    if not w.exact:
        raise ConstructionError("factorization is not exact")
    G, K, L, part = w.group, w.left, w.right, w.part
    if not R.is_abelian():
        raise ConstructionError("R is not abelian")
    rset = R._element_set()
    if not rset <= L._element_set():
        raise ConstructionError("R does not lie in L")
    on_l = {l: phi(l) for l in L.elements}
    bad = homomorphism_failure(on_l.__getitem__, L)
    if bad is not None:
        raise ConstructionError(f"phi is not a homomorphism at ({bad[0]!r}, {bad[1]!r})")
    coset_k = part(G.identity)
    for s in L.generators:
        z = on_l[s]
        if z not in rset:
            raise ConstructionError(f"phi({s!r}) = {z!r} lies outside R")
        for k in K.generators:
            if part(k.conj(z)) != coset_k:
                raise ConstructionError(f"phi({s!r}) does not normalize K at {k!r}")
    body = {part(l): (z * l).inverse() for l, z in on_l.items()}
    if not G.enumerated:
        return lambda x: body[part(x)]
    index = {p: G.index(b) for p, b in body.items()}
    table = tuple(index[part(x)] for x in G.elements)
    return RBOperator(group=G, table=table, provenance=provenance)


def reconstruct(B: RBOperator) -> RBOperator | None:
    """B rebuilt by the general construction, or None when it has no
    such shape.  For C = B, then C = B~, with K = ker C, L = Im C and
    R = Im C meet Im C~ read off images(B) (with the roles swapped for
    B~), it builds construction(G = K L, C~, R) and returns it, or for
    C = B~ its companion, once that is table-equal to C.

    Proof that the result is C whenever no ConstructionError is raised:
    it maps k l to l^-1 C~(l^-1) = l^-1 l C(l) = C(l), and C(k l) =
    C(k o l) = C(k) C(l) = C(l) for k in ker C.  The preconditions hold
    exactly when G = ker C * Im C is exact (from orders and the meet), R
    is abelian and C~ is a homomorphism from Im C into R.  The others hold
    for every operator: R <= Im C, and C~(Im C) <= R <= Im C~ normalizes
    ker C (images asserts it)."""
    data = images(B)
    for C, K, L in ((B, data.ker, data.im), (tilde(B), data.ker_tilde, data.im_tilde)):
        w = exact_factorization(B.group, K, L)
        if not w.exact:  # construction would refuse it
            continue
        try:
            built = construction(w, tilde(C), data.R)
        except ConstructionError:
            continue
        if built == C:
            return built if C is B else tilde(built)
    return None


# -- catalog of named example operators ------------------------------------
#
# Each example is the general construction on an exact G = K L, or its
# companion; the provenance is what construct's operator: line prints.


def _split(G: FiniteGroup, K: FiniteGroup, L: FiniteGroup) -> RBOperator:
    """The splitting operator k l -> l^-1: the construction with phi = e."""
    e = G.identity
    w = exact_factorization(G, K, L)
    return construction(w, lambda l: e, L.subgroup([e]), f"split[{K.label}*{L.label}]")


def _s3_operator() -> RBOperator:
    G = families.symmetric(3).group
    K = G.subgroup([Perm.from_cycles(3, [(0, 1, 2)])], label="Z3")
    return _split(G, K, G.subgroup([Perm.from_cycles(3, [(1, 2)])], label="Z2"))


def _a4() -> tuple[FiniteGroup, FiniteGroup, FiniteGroup]:
    """A4 with its subgroups Z3 = <(1 2 3)> and V4."""
    G = families.alternating(4).group
    V = [Perm.from_cycles(4, [(0, 1), (2, 3)]), Perm.from_cycles(4, [(0, 2), (1, 3)])]
    return G, G.subgroup([Perm.from_cycles(4, [(1, 2, 3)])], label="Z3"), G.subgroup(V, label="V4")


def _a4_b1() -> RBOperator:
    return _split(*_a4())


def _a4_b2() -> RBOperator:
    """The retraction v a -> a of A4 = V4 . <(1 2 3)> onto the 3-cycle
    part: phi = id on L = <(1 2 3)>, as a^-1 a^-1 = a in Z3."""
    G, L, V = _a4()
    return construction(exact_factorization(G, V, L), lambda l: l, L, "homomorphism")


def _homomorphism(L: FiniteGroup, gens: tuple, images: tuple, A: FiniteGroup) -> Callable:
    """gens -> images extended to L -> A (perm.extend_homomorphism), as
    the map on elements that construction takes."""
    TL, TA = L.mult_table(), A.mult_table()
    f = extend_homomorphism(TL, [L.index(g) for g in gens], [A.index(t) for t in images], TA)
    return lambda l: A.elements[f[L.index(l)]]


def _pow(p: Perm, e: int) -> Perm:
    """p^e for e >= 1."""
    out = p
    for _ in range(e - 1):
        out = out * p
    return out


def d2n_klein(n: int) -> RBOperator:
    """The invertible operator on D_2n whose companion is the homomorphism
    r -> r^(n/2) s, s -> r^(n/2) onto the Klein four-subgroup
    <r^(n/2), s>; n even, n >= 4.  It is the construction on
    D_2n = 1 * D_2n, l -> l^-1 phi(l^-1)."""
    if n < 4 or n % 2:
        raise ConstructionError("the Klein-image operator needs even n >= 4")
    built = families.dihedral(n)
    G, r, s = built.group, built.r, built.s
    rh = _pow(r, n // 2)
    A = G.subgroup([rh, s], label="Z2xZ2")
    phi = _homomorphism(G, (r, s), (rh * s, rh), A)
    w = exact_factorization(G, G.subgroup([G.identity]), G)
    return construction(w, phi, A, "tilde(homomorphism)")


def _d16_operator() -> RBOperator:
    """Index-2-shaped operator on D16: the companion of the construction
    on D16 = <s> * <r^2, rs> with phi: r^2 -> r^4, rs -> e onto <r^4>."""
    built = families.dihedral(8)
    G, r, s = built.group, built.r, built.s
    r2, r4 = _pow(r, 2), _pow(r, 4)
    K = G.subgroup([s], label="Z2")
    L = G.subgroup([r2, r * s], label="L")
    phi = _homomorphism(L, (r2, r * s), (r4, G.identity), L)
    w = exact_factorization(G, K, L)
    return tilde(construction(w, phi, L.subgroup([r4]), "extend[tilde(homomorphism)]"))


def _d60_operator() -> RBOperator:
    """The construction on D60 = <r^10> * <r^3, s> with the Klein-image
    homomorphism r^3 -> r^15 s, s -> r^15 of L ~= D20."""
    built = families.dihedral(30)
    G, r, s = built.group, built.r, built.s
    r3, r15 = _pow(r, 3), _pow(r, 15)
    K = G.subgroup([_pow(r, 10)], label="Z3")
    L = G.subgroup([r3, s], label="D20")
    A = L.subgroup([r15, s], label="Z2xZ2")
    phi = _homomorphism(L, (r3, s), (r15 * s, r15), A)
    w = exact_factorization(G, K, L)
    return construction(w, phi, A, "extend[tilde(homomorphism)]")


def _q60_operator() -> RBOperator:
    """The construction on Q60 = <r^10> * <r^3, s> with phi: r^3 -> e,
    s -> r^15 onto <r^15>."""
    built = families.generalized_quaternion(15)
    G, r, s = built.group, built.r, built.s
    r3, r15 = _pow(r, 3), _pow(r, 15)
    K = G.subgroup([_pow(r, 10)], label="Z3")
    L = G.subgroup([r3, s], label="Q20")
    phi = _homomorphism(L, (r3, s), (G.identity, r15), L)
    w = exact_factorization(G, K, L)
    return construction(w, phi, L.subgroup([r15]), "extend[tilde(homomorphism)]")


_CATALOG: dict[str, Callable[[], RBOperator]] = {
    "s3": _s3_operator,
    "a4_b1": _a4_b1,
    "a4_b2": _a4_b2,
    "d16": _d16_operator,
    "d60": _d60_operator,
    "q60": _q60_operator,
}


def catalog_names() -> list[str]:
    return sorted(_CATALOG) + ["d2n_klein(n)"]


def catalog_operator(name: str) -> RBOperator:
    """Named example operators; d2n_klein(n) takes the even parameter n."""
    if name.startswith("d2n_klein(") and name.endswith(")"):
        return d2n_klein(int(name[len("d2n_klein(") : -1]))
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise ConstructionError(
            f"unknown example {name!r}; known: {', '.join(catalog_names())}"
        ) from None
    return builder()
