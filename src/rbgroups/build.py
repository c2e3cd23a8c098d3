"""Operator constructions: splitting operators from exact factorizations,
homomorphisms into abelian subgroups, extensions over factorizations,
the index-2 twist, and a catalog of named example operators."""

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
from .rbop import RBOperator, from_table, images, tilde


class ConstructionError(ValueError):
    """A named precondition of a builder failed."""


def from_factorization(w: FactorizationWitness) -> RBOperator:
    """The splitting operator B(hl) = l^-1 of an exact factorization."""
    if not w.exact:
        raise ConstructionError("factorization is not exact")
    G = w.group
    images = {x: hl[1].inverse() for x, hl in w.table.items()}
    return from_table(
        G, images, provenance=f"split[{w.left.label or 'H'}*{w.right.label or 'L'}]"
    )


def from_homomorphism(
    G: FiniteGroup,
    phi: dict[Perm, Perm] | Callable[[Perm], Perm],
    A: FiniteGroup,
) -> RBOperator:
    """A homomorphism G -> A with A an abelian subgroup of G is an
    operator.  Both the homomorphism property (on generators, see
    perm.homomorphism_failure) and abelianness are checked."""
    if not A.is_abelian():
        raise ConstructionError("target subgroup is not abelian")
    if not G.is_subgroup(set(A.elements)):
        raise ConstructionError("target is not a subgroup of G")
    get = phi.__getitem__ if isinstance(phi, dict) else phi
    table = {g: get(g) for g in G.elements}
    aset = set(A.elements)
    for g, v in table.items():
        if v not in aset:
            raise ConstructionError(f"phi({g!r}) = {v!r} lies outside the target")
    bad = homomorphism_failure(table.__getitem__, G)
    if bad is not None:
        raise ConstructionError(f"phi is not a homomorphism at ({bad[0]!r}, {bad[1]!r})")
    return from_table(G, table, provenance="homomorphism")


def extend_over_factorization(w: FactorizationWitness, C: RBOperator) -> RBOperator:
    """B(hl) = C(l) over an exact G = HL, valid when Im(C~) normalizes H.
    That is checked on H.generators, as in check_index2."""
    if not w.exact:
        raise ConstructionError("factorization is not exact")
    if C.group.elements != w.right.elements:
        raise ConstructionError("C is not an operator on the right factor")
    Ct = tilde(C)
    im_ct = {Ct(l) for l in w.right.elements}
    hset = set(w.left.elements)
    for z in im_ct:
        for h in w.left.generators:
            if h.conj(z) not in hset:
                raise ConstructionError(
                    f"Im(C~) does not normalize H: conjugating {h!r} by {z!r} leaves H"
                )
    images = {x: C(hl[1]) for x, hl in w.table.items()}
    return from_table(w.group, images, provenance=f"extend[{C.provenance}]")


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
    B~), the construction is D = tilde(from_homomorphism(L, C~, R)) and
    extend_over_factorization(G = K L, D): the operator k l -> D(l).  It
    returns the result, or for C = B~ its companion, once that is
    table-equal to C.

    Proof that the result is C whenever no ConstructionError is raised:
    D(l) = l^-1 C~(l^-1) = l^-1 l C(l) = C(l), and C(k l) = C(k o l)
    = C(k) C(l) = C(l) for k in ker C.  The preconditions hold exactly when
    G = ker C * Im C is exact (from orders and the meet), R is abelian and
    C~ is a homomorphism from Im C into R.  The others hold for every
    operator: R <= Im C, and Im D~ <= R <= Im C~ normalizes ker C (images
    asserts it; D~ is the homomorphism, as tilde is an involution)."""
    data = images(B)
    for C, K, L in ((B, data.ker, data.im), (tilde(B), data.ker_tilde, data.im_tilde)):
        w = exact_factorization(B.group, K, L)
        if not w.exact:  # extend_over_factorization would refuse it
            continue
        try:
            built = extend_over_factorization(w, tilde(from_homomorphism(L, tilde(C), data.R)))
        except ConstructionError:
            continue
        if built == C:
            return built if C is B else tilde(built)
    return None


# -- catalog of named example operators ------------------------------------


def _s3_operator() -> RBOperator:
    G = families.symmetric(3).group
    H = G.subgroup([Perm.from_cycles(3, [(0, 1, 2)])], label="Z3")
    L = G.subgroup([Perm.from_cycles(3, [(1, 2)])], label="Z2")
    return from_factorization(exact_factorization(G, H, L))


def _a4_b1() -> RBOperator:
    G = families.alternating(4).group
    H = G.subgroup([Perm.from_cycles(4, [(1, 2, 3)])], label="Z3")
    V = G.subgroup(
        [Perm.from_cycles(4, [(0, 1), (2, 3)]), Perm.from_cycles(4, [(0, 2), (1, 3)])],
        label="V4",
    )
    return from_factorization(exact_factorization(G, H, V))


def _a4_b2() -> RBOperator:
    """The retraction of A4 = V4 . <(1 2 3)> onto the 3-cycle part."""
    G = families.alternating(4).group
    z = Perm.from_cycles(4, [(1, 2, 3)])
    A = G.subgroup([z], label="Z3")
    V = {e for e in G.elements if e.order() in (1, 2)}
    phi = {}
    for v in V:
        for a in A.elements:
            phi[v * a] = a
    return from_homomorphism(G, phi, A)


def _pow(p: Perm, e: int, G: FiniteGroup) -> Perm:
    out = G.identity
    step = p if e >= 0 else p.inverse()
    for _ in range(abs(e)):
        out = out * step
    return out


def _klein_operator(G: FiniteGroup, r: Perm, s: Perm, n: int) -> RBOperator:
    """The companion of the order-4-image homomorphism on G = <r, s> = D_2n
    (n even >= 4): r^2k -> e, r^2k+1 -> r^(n/2) s, r^2k s -> r^(n/2),
    r^2k+1 s -> s."""
    rh = _pow(r, n // 2, G)
    table = {}
    x = G.identity
    for i in range(n):
        table[x] = G.identity if i % 2 == 0 else rh * s
        table[x * s] = rh if i % 2 == 0 else s
        x = x * r
    A = G.subgroup(sorted(set(table.values())), label="Z2xZ2")
    return tilde(from_homomorphism(G, table, A))


def d2n_klein(n: int) -> RBOperator:
    """The invertible operator on D_2n whose companion is the homomorphism
    onto a Klein four-subgroup; n even, n >= 4."""
    if n < 4 or n % 2:
        raise ConstructionError("the Klein-image operator needs even n >= 4")
    built = families.dihedral(n)
    return _klein_operator(built.group, built.r, built.s, n)


def _d16_operator() -> RBOperator:
    """Index-2-shaped operator on D16 built compositionally: extend the
    companion of the L-homomorphism over D16 = {e, s} * L, then flip."""
    built = families.dihedral(8)
    G, r, s = built.group, built.r, built.s
    H = G.subgroup([s], label="Z2")
    lelems = [G.identity, _pow(r, 2, G), _pow(r, 4, G), _pow(r, 6, G),
              r * s, _pow(r, 3, G) * s, _pow(r, 5, G) * s, _pow(r, 7, G) * s]
    L = G.subgroup(lelems, label="L")
    r4 = _pow(r, 4, G)
    A = L.subgroup([r4], label="Z2")
    kerC = set(L.subgroup([r4, r * s], label="kerC").elements)
    phi = {l: (G.identity if l in kerC else r4) for l in L.elements}
    C = from_homomorphism(L, phi, A)
    Ct = tilde(C)
    D = extend_over_factorization(exact_factorization(G, H, L), Ct)
    return tilde(D)


def _d60_operator() -> RBOperator:
    built = families.dihedral(30)
    G, r, s = built.group, built.r, built.s
    H = G.subgroup([_pow(r, 10, G)], label="Z3")
    L = G.subgroup([_pow(r, 3, G), s], label="D20")
    # the Klein-image operator on L ~= D20, generated by r^3 and s
    C = _klein_operator(L, _pow(r, 3, G), s, 10)
    return extend_over_factorization(exact_factorization(G, H, L), C)


def _q60_operator() -> RBOperator:
    built = families.generalized_quaternion(15)
    G, r, s = built.group, built.r, built.s
    H = G.subgroup([_pow(r, 10, G)], label="Z3")
    L = G.subgroup([_pow(r, 3, G), s], label="Q20")
    r15 = _pow(r, 15, G)
    A = L.subgroup([r15], label="Z2")
    r3set = set(L.subgroup([_pow(r, 3, G)], label="Z10").elements)
    phi = {l: (r15 if l not in r3set else G.identity) for l in L.elements}
    Ct = from_homomorphism(L, phi, A)
    C = tilde(Ct)
    return extend_over_factorization(exact_factorization(G, H, L), C)


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
