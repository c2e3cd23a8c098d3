"""Operator constructions: the general construction over an exact
factorization with a homomorphism into an abelian subgroup, the index-2
twist, and a catalog of named example operators."""

from __future__ import annotations

from typing import Callable

from . import families
from .perm import (
    FactorizationWitness,
    FiniteGroup,
    Perm,
    exact_factorization,
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
) -> RBOperator:
    """The operator B(k l) = l^-1 phi(l^-1) on the group of an exact
    factorization w: G = K L, for a homomorphism phi: L -> R into an
    abelian subgroup R of L whose image normalizes K; phi = e gives the
    splitting operator k l -> l^-1.  ConstructionError names the first
    precondition that fails: w is exact; R is abelian and lies in L; phi is
    a homomorphism on L (perm.homomorphism_failure); phi(s) lies in R and
    normalizes K for each generator s of L, checked on K's generators
    (conjugation is an automorphism, and the phi(s) generate phi(L)).

    Nothing verifies the result: the preconditions prove the identity.
    With x = k l, y = k' l' and B(x) = l^-1 phi(l)^-1,

        x o y = x B(x) y B(x)^-1 = k (phi(l)^-1 k' phi(l)) m,
        m = phi(l)^-1 l' phi(l) l,

    where the middle factor lies in K (phi(l) normalizes K) and m in L
    (phi(l) lies in R <= L), so m is the L-part of x o y.  The four
    factors of phi(m) lie in the abelian R, so phi(m) = phi(l') phi(l), and
    B(x o y) = m^-1 phi(m)^-1 = l^-1 phi(l)^-1 l'^-1 phi(l')^-1 = B(x) B(y).
    """
    if not w.exact:
        raise ConstructionError("factorization is not exact")
    G, K, L = w.group, w.left, w.right
    if not R.is_abelian():
        raise ConstructionError("R is not abelian")
    rset = R._element_set()
    if not rset <= L._element_set():
        raise ConstructionError("R does not lie in L")
    on_l = {l: phi(l) for l in L.elements}
    bad = homomorphism_failure(on_l.__getitem__, L)
    if bad is not None:
        raise ConstructionError(f"phi is not a homomorphism at ({bad[0]!r}, {bad[1]!r})")
    kset = K._element_set()
    for s in L.generators:
        z = on_l[s]
        if z not in rset:
            raise ConstructionError(f"phi({s!r}) = {z!r} lies outside R")
        for k in K.generators:
            if k.conj(z) not in kset:
                raise ConstructionError(f"phi({s!r}) does not normalize K at {k!r}")
    image = {l: G.index(l.inverse() * z.inverse()) for l, z in on_l.items()}
    table = tuple(image[w.table[x][1]] for x in G.elements)
    return RBOperator(group=G, table=table, provenance=provenance)


def check_index2(
    G: FiniteGroup,
    K: FiniteGroup,
    in_k: Callable[[Perm], bool],
    L: FiniteGroup,
    S: FiniteGroup,
    t: Perm,
    r: Perm,
) -> None:
    """Raise ConstructionError naming the first failed precondition of the
    index-2 construction over G = K * L; `in_k` is the membership test for K.

    - G = K * L is exact: |K| |L| = |G| and K meets L trivially (as
      |K L| = |K| |L| / |K meet L|).
    - S is a subgroup of index 2 in L, and t lies in L outside S.  This is
      all that d, the S-coset indicator on L, needs: a subgroup of index 2
      is normal (its one other left coset and its one other right coset are
      both L - S), so d is the quotient map L -> L/S = Z2, a homomorphism.
      As r^2 = e, l -> r^d(l) is then a homomorphism L -> <r>.
      tests/test_transitive.py checks d on all of L x L for n = 9 and 10.
    - r is an involution of S (an involution outside S degenerates to the
      splitting operator of G = <K, r> * S).
    - <r> normalizes K, checked on K.generators: conjugation by r is an
      automorphism, so r K r^-1 is generated by the conjugates of those
      generators and lies in K when they do; <r> = {e, r}.
    """
    if K.order() * L.order() != G.order():
        raise ConstructionError("G = K*L is not exact: |K| |L| != |G|")
    for l in L.elements:
        if in_k(l) and not l.is_identity():
            raise ConstructionError(f"G = K*L is not exact: K meets L at {l!r}")
    if 2 * S.order() != L.order():
        raise ConstructionError("S does not have index 2 in L")
    sset, lset = S._element_set(), L._element_set()
    if not (sset <= lset and L.is_subgroup(sset)):
        raise ConstructionError("S is not a subgroup of L")
    if t not in lset or t in sset:
        raise ConstructionError("t must lie in L outside S")
    if r.is_identity() or not (r * r).is_identity():
        raise ConstructionError("r is not an involution")
    if r not in sset:
        raise ConstructionError("r must lie in S")
    for k in K.generators:
        if not in_k(k.conj(r)):
            raise ConstructionError(f"<r> does not normalize K at {k!r}")


def index2_body(L: FiniteGroup, S: FiniteGroup, r: Perm) -> dict[Perm, Perm]:
    """The |L| images l -> l^-1 r^d(l) of the index-2 operator, d(l) = 0 on
    S and 1 off S: the operator maps x = k l to the image of its L-part l."""
    sset = S._element_set()
    return {l: l.inverse() if l in sset else l.inverse() * r for l in L.elements}


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


def _pow(p: Perm, e: int) -> Perm:
    """p^e for e >= 1."""
    out = p
    for _ in range(e - 1):
        out = out * p
    return out


def _klein_homomorphism(
    G: FiniteGroup, r: Perm, s: Perm, n: int
) -> tuple[dict[Perm, Perm], FiniteGroup]:
    """The homomorphism of G = <r, s> = D_2n (n even >= 4) onto a Klein
    four-subgroup, r^2k -> e, r^2k+1 -> r^(n/2) s, r^2k s -> r^(n/2),
    r^2k+1 s -> s, and that subgroup."""
    rh = _pow(r, n // 2)
    phi = {}
    x = G.identity
    for i in range(n):
        phi[x] = G.identity if i % 2 == 0 else rh * s
        phi[x * s] = rh if i % 2 == 0 else s
        x = x * r
    return phi, G.subgroup(sorted(set(phi.values())), label="Z2xZ2")


def d2n_klein(n: int) -> RBOperator:
    """The invertible operator on D_2n whose companion is the homomorphism
    onto a Klein four-subgroup; n even, n >= 4.  It is the construction on
    D_2n = 1 * D_2n, l -> l^-1 phi(l^-1)."""
    if n < 4 or n % 2:
        raise ConstructionError("the Klein-image operator needs even n >= 4")
    built = families.dihedral(n)
    G = built.group
    phi, A = _klein_homomorphism(G, built.r, built.s, n)
    w = exact_factorization(G, G.subgroup([G.identity]), G)
    return construction(w, phi.__getitem__, A, "tilde(homomorphism)")


def _d16_operator() -> RBOperator:
    """Index-2-shaped operator on D16: the companion of the construction
    on D16 = <s> * <r^2, rs> with phi onto <r^4> whose kernel is
    <r^4, rs>."""
    built = families.dihedral(8)
    G, r, s = built.group, built.r, built.s
    r4 = _pow(r, 4)
    K = G.subgroup([s], label="Z2")
    L = G.subgroup([_pow(r, 2), r * s], label="L")
    ker = L.subgroup([r4, r * s])
    phi = {l: (G.identity if l in ker else r4) for l in L.elements}
    w = exact_factorization(G, K, L)
    return tilde(construction(w, phi.__getitem__, L.subgroup([r4]), "extend[tilde(homomorphism)]"))


def _d60_operator() -> RBOperator:
    """The construction on D60 = <r^10> * <r^3, s> with the Klein-image
    homomorphism of L ~= D20."""
    built = families.dihedral(30)
    G, r, s = built.group, built.r, built.s
    K = G.subgroup([_pow(r, 10)], label="Z3")
    L = G.subgroup([_pow(r, 3), s], label="D20")
    phi, A = _klein_homomorphism(L, _pow(r, 3), s, 10)
    w = exact_factorization(G, K, L)
    return construction(w, phi.__getitem__, A, "extend[tilde(homomorphism)]")


def _q60_operator() -> RBOperator:
    """The construction on Q60 = <r^10> * <r^3, s> with phi onto <r^15>
    whose kernel is <r^3>."""
    built = families.generalized_quaternion(15)
    G, r, s = built.group, built.r, built.s
    K = G.subgroup([_pow(r, 10)], label="Z3")
    L = G.subgroup([_pow(r, 3), s], label="Q20")
    r15 = _pow(r, 15)
    ker = L.subgroup([_pow(r, 3)])
    phi = {l: (G.identity if l in ker else r15) for l in L.elements}
    w = exact_factorization(G, K, L)
    return construction(w, phi.__getitem__, L.subgroup([r15]), "extend[tilde(homomorphism)]")


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
