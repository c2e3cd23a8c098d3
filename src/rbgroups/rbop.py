"""The Rota-Baxter operator core.

An operator B on a group G satisfies, for all g, h:

    B(g) B(h) = B(g B(g) h B(g)^-1)

with the package-wide left-to-right composition convention.  An
RBOperator is a table on an enumerated group: the index of the image of
each canonical element.  The operators on large alternating groups are
not tables: transitive.AnOperator records their construction and
evaluates them by a procedure, and the pair kernels here (circ_kernel,
circ, check_pair) take either.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .perm import (
    _ID,
    MAX_DEGREE,
    FiniteGroup,
    Perm,
    PermError,
    _Frozen,
    _kept,
    _new,
    _set,
)

# Defaults shared with the command line, kept here so that parsing it loads
# neither `classify` nor `transitive`: the largest order `enumerate_rb` is
# guaranteed on, and the sample count and seed of the sampled checks.
ENUMERATE_GUARANTEED = 24
DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 7


class InvalidOperator(ValueError):
    """The defining identity or one of its consequences failed."""


class Verdict(NamedTuple):
    ok: bool
    pairs: int
    witness: Optional[tuple] = None
    detail: str = ""

    def line(self) -> str:
        return f"verify: {'pass' if self.ok else 'fail'} pairs={self.pairs} seed=-"


class RBOperator(_Frozen):
    """A Rota-Baxter operator on an enumerated finite group, as a table:
    table[i] is the index of B(elements[i]) in the canonical element
    order, as the op: line prints it.  `images`, `tilde` and `verify`
    keep their results in `_cache` (perm._kept); the constructor does not
    take it, so an operator rebuilt by calling RBOperator with B's fields
    starts with none kept.
    """

    __slots__ = ("group", "table", "provenance", "_cache")

    def __init__(self, group: FiniteGroup, table: tuple[int, ...], provenance: str = ""):
        _set(self, "group", group)
        _set(self, "table", table)
        _set(self, "provenance", provenance)
        _set(self, "_cache", {})

    def __call__(self, g: Perm) -> Perm:
        G = self.group
        return G.elements[self.table[G.index(g)]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RBOperator):
            return NotImplemented
        if self.group is not other.group and self.group != other.group:
            return False
        return self.table == other.table

    def __hash__(self):
        return hash((self.group.degree, self.table))


def from_table(
    G: FiniteGroup,
    images: dict[Perm, Perm] | tuple[Perm, ...],
    provenance: str = "",
) -> RBOperator:
    """The table operator with the given image of each element (a dict,
    or a tuple in canonical element order), checked by verify;
    InvalidOperator when the identity fails."""
    if not G.enumerated:
        raise PermError("table operators need an enumerated group")
    if isinstance(images, dict):
        images = map(images.__getitem__, G.elements)
    B = RBOperator(group=G, table=tuple(map(G.index, images)), provenance=provenance)
    v = verify(B)
    if not v.ok:
        raise InvalidOperator(f"defining identity fails at {v.witness}: {v.detail}")
    return B


def trivial_e(G: FiniteGroup) -> RBOperator:
    """g -> e."""
    return RBOperator(group=G, table=(G.index(G.identity),) * G.order(), provenance="B_e")


def trivial_inv(G: FiniteGroup) -> RBOperator:
    """g -> g^-1."""
    return RBOperator(group=G, table=tuple(G.inverses()), provenance="B_inv")


def check_pair(B: RBOperator, g: Perm, h: Perm) -> bool:
    """The defining identity B(g) B(h) = B(g o h) at the pair (g, h)."""
    _check_degree(B, g, h)
    b, gh = circ_kernel(B, B.group.degree)(g, h)
    return b * B(h) == B(_new(Perm, gh))


@_kept
def verify(B: RBOperator) -> Verdict:
    """Check the defining identity of a table operator on all pairs.

    The check runs one row g at a time on G's Cayley table T (see
    _circ_rows): the row holds iff [B(g) B(h) for h] == [B(g o h) for h]
    as lists of element indices.  The witness is the first h where the
    two lists of the first failing row differ, so the witness and detail
    are those of a pair-by-pair walk in canonical order.  The verdict is
    kept on B."""
    G = B.group
    T = G.mult_table()
    Bt = B.table
    pairs = len(Bt) ** 2
    for g, row in enumerate(_circ_rows(G, Bt)):
        lhs = list(map(T[Bt[g]].__getitem__, Bt))
        rhs = list(map(Bt.__getitem__, row))
        if lhs != rhs:
            h = next(h for h, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            elems = G.elements
            return Verdict(
                ok=False,
                pairs=pairs,
                witness=(elems[g], elems[h]),
                detail=f"B(g)B(h)={elems[lhs[h]]!r} != B(gB(g)hB(g)^-1)={elems[rhs[h]]!r}",
            )
    return Verdict(ok=True, pairs=pairs)


def _circ_rows(G: FiniteGroup, Bt: Sequence[int]) -> Iterator[list[int]]:
    """Row g of the descendent product on element indices, for each g of
    G in canonical order, where Bt[g] is the index of B(g): row[h] is the
    index of g o h.  With T = G.mult_table(), b = B(g) and x = g b,
    g o h = x h b^-1 = (b (x h)^-1)^-1, so row = [inv[T[b][inv[T[x][h]]]]
    for h]: rows of T and inverses only, with no transpose of T and no
    Perm product."""
    T = G.mult_table()
    inv = G.inverses().__getitem__
    for g, b in enumerate(Bt):
        yield list(map(inv, map(T[b].__getitem__, map(inv, T[T[g][b]]))))


# -- derived operators -----------------------------------------------------


@_kept
def tilde(B: RBOperator) -> RBOperator:
    """The companion operator g -> g^-1 B(g^-1); an involution.  On a
    table, with j the index of g^-1, that is T[j][B.table[j]].  The
    companion is kept on B, and B on it, so tilde(tilde(B)) is B."""
    G = B.group
    T = G.mult_table()
    table = tuple(T[j][B.table[j]] for j in G.inverses())
    C = RBOperator(group=G, table=table, provenance=f"tilde({B.provenance})")
    C._cache[tilde] = B
    return C


def circ_kernel(f: Callable[[bytes], Perm], n: int) -> Callable[[bytes, bytes], tuple[Perm, bytes]]:
    """(g, h) -> (B(g), g o h), g o h = g B(g) h B(g)^-1, for the operator
    B = f on perms of degree n: a table operator itself, or an A_n
    operator's procedure, called directly.  B is evaluated once per pair:
    the identity's left side B(g) B(h) reuses b = B(g).  g b h is
    translate by b + pad, then by h + pad (pad = _ID[n:]), and b^-1 the
    256-byte table bytes.maketrans(b, _ID[:n]).  The two tables of each distinct image b
    are made on its first use and kept, keyed by b, for the kernel's
    lifetime: B takes few values in a loop (72 images at n = 9), and B is
    still evaluated at every g.

    g, h and f's argument are image bytes, Perms or plain (Perm compares
    and hashes as its bytes); g o h comes back plain.  circ and check_pair
    wrap it (_new(Perm, ...)), and the sampled loops of transitive hand it
    to f as it is.

    The kernel does not test the degrees of g and h: a caller passes
    elements of degree n.  circ and check_pair, which take perms from
    their callers, test them first (_check_degree, PermError on a
    mismatch); the sampled loops of transitive pass only sampler draws,
    elements of L and products of these, all of degree n."""
    pad, ident, maketrans = _ID[n:], _ID[:n], bytes.maketrans
    tables: dict[Perm, tuple[bytes, bytes]] = {}

    def kernel(g: bytes, h: bytes) -> tuple[Perm, bytes]:
        b = f(g)
        try:
            right, inverse = tables[b]
        except KeyError:
            right, inverse = tables[b] = b + pad, maketrans(b, ident)
        return b, g.translate(right).translate(h + pad).translate(inverse)

    return kernel


def _check_degree(B: RBOperator, g: Perm, h: Perm) -> None:
    """PermError unless g and h both have the degree of B's group."""
    n = B.group.degree
    if len(g) != n or len(h) != n:
        raise PermError(f"domain size mismatch: {len(g)}, {len(h)} vs {n}")


def circ(B: RBOperator, g: Perm, h: Perm) -> Perm:
    """The descendent product g o h = g B(g) h B(g)^-1."""
    _check_degree(B, g, h)
    return _new(Perm, circ_kernel(B, B.group.degree)(g, h)[1])


def descendent_group(B: RBOperator) -> tuple[FiniteGroup, str]:
    """The group (G, o) and its iso label.

    (G, o) is represented on 2 deg(G) points by the graph embedding
    phi(g) = (B(g), B_+(g)), B_+(g) = g B(g): B(g) acts on the points
    0..d-1 and B_+(g) on d..2d-1, so d = deg(G) <= MAX_DEGREE / 2.  The
    one check is verify(B), the defining identity B(a o b) = B(a) B(b)
    for all a, b; InvalidOperator when it fails.  It proves that (G, o)
    is a group, with identity e, isomorphic to phi(G):

    - The identity implies phi(a o b) = phi(a) phi(b).  phi(a) phi(b)
      acts blockwise, as B(a) B(b) on 0..d-1 and as B_+(a) B_+(b) on
      d..2d-1, and the second block follows from the first:
      B_+(a o b) = (a o b) B(a) B(b) = a B(a) b B(b) = B_+(a) B_+(b).
    - phi is injective, since g = B_+(g) B(g)^-1 is read off phi(g).
    - o is associative: phi((a o b) o c) = phi(a) phi(b) phi(c)
      = phi(a o (b o c)), and phi is injective.
    - phi(G) is a finite subset of Sym(2d) closed under products, hence a
      subgroup, and phi is a bijection (G, o) -> phi(G) that respects the
      products; so (G, o) is a group isomorphic to phi(G).  Every row
      h -> g o h of a group is a bijection.
    - Its identity is e: B(e) B(e) = B(e o e) = B(e B(e) e B(e)^-1) = B(e)
      gives B(e) = e, so phi(e) is the identity of Sym(2d).

    The regular representation needs |G| points and an O(|G|^3)
    associativity loop; the tests keep it as an exhaustive oracle.
    """
    from .labels import iso_label

    G = B.group
    if not G.enumerated:
        raise PermError("descendent group needs an enumerated group")
    d = G.degree
    if 2 * d > MAX_DEGREE:
        raise PermError(
            f"descendent group needs degree <= {MAX_DEGREE // 2}, got {d}"
        )
    v = verify(B)
    if not v.ok:
        raise InvalidOperator(f"B is not a homomorphism from the descendent product: {v.detail}")
    elems = G.elements
    T = G.mult_table()
    # phi(g) = (B(g), B_+(g)), with T[g][b] the index of B_+(g) = g B(g)
    phi = [Perm(elems[b] + bytes(d + v for v in elems[T[g][b]])) for g, b in enumerate(B.table)]
    D = FiniteGroup.from_elements(phi, label=f"{G.label}^o")
    return D, iso_label(D)


# -- images, kernels, splitting --------------------------------------------


class OperatorImages(NamedTuple):
    im: FiniteGroup
    ker: FiniteGroup
    im_tilde: FiniteGroup
    ker_tilde: FiniteGroup
    R: FiniteGroup  # im & im_tilde


@_kept
def images(B: RBOperator) -> OperatorImages:
    """The five subgroups Im(B), ker(B), Im(B~), ker(B~) and R, with the
    consequences of the defining identity asserted (normality,
    factorization, index identity).

    Each set is made a group by FiniteGroup.from_elements, whose one
    grow() pass also tests that it is a subgroup.  G = Im(B~) Im(B) is
    checked by the product formula |XY| = |X| |Y| / |X meet Y| for
    subgroups X, Y, with X meet Y = R: XY is a subset of G, so XY = G iff
    |Im(B~)| |Im(B)| = |G| |R|.
    The companion's sets are read off B: B~(g) = g^-1 B(g^-1), so
    Im(B~) = {x B(x)} (x = g^-1) and B~(g) = e iff B(g^-1) = g.  On the
    table, with T = G.mult_table() and inv = G.inverses(), these are
    {T[g][b]} and {g : table[inv[g]] = g}.  The result is kept on B."""
    G = B.group
    elems, Bt = G.elements, B.table
    T, inv = G.mult_table(), G.inverses()
    e = G.index(G.identity)
    im = _subgroup({elems[b] for b in set(Bt)}, "Im(B)")
    ker = _subgroup({elems[g] for g, b in enumerate(Bt) if b == e}, "ker(B)")
    im_t = _subgroup({elems[T[g][b]] for g, b in enumerate(Bt)}, "Im(B~)")
    ker_t = _subgroup({elems[g] for g, j in enumerate(inv) if Bt[j] == g}, "ker(B~)")
    R = image_meet(B)

    if not _normal_in(ker_t, im):
        raise InvalidOperator("ker(B~) is not normal in Im(B)")
    if not _normal_in(ker, im_t):
        raise InvalidOperator("ker(B) is not normal in Im(B~)")
    # G = Im(B~) Im(B) iff |Im(B~) Im(B)| = |Im(B~)| |Im(B)| / |R| is |G|
    if im_t.order() * im.order() != G.order() * R.order():
        raise InvalidOperator("G != Im(B~) Im(B)")
    # |R| = |Im(B):ker(B~)| = |Im(B~):ker(B)|
    if R.order() * ker_t.order() != im.order():
        raise InvalidOperator("|R| != |Im(B):ker(B~)|")
    if R.order() * ker.order() != im_t.order():
        raise InvalidOperator("|R| != |Im(B~):ker(B)|")
    return OperatorImages(im=im, ker=ker, im_tilde=im_t, ker_tilde=ker_t, R=R)


def image_meet(B: RBOperator) -> FiniteGroup:
    """R = Im(B) meet Im(B~) of a table operator, read off the table as in
    images (Im(B) = {b}, Im(B~) = {g b} for b = B(g)) and made a group as
    there; images takes its R from here."""
    G, Bt = B.group, B.table
    T, elems = G.mult_table(), G.elements
    im_t = {T[g][b] for g, b in enumerate(Bt)}
    return _subgroup({elems[b] for b in set(Bt) if b in im_t}, "R")


def _subgroup(S: set, label: str) -> FiniteGroup:
    """S as a group (FiniteGroup.from_elements); InvalidOperator when S
    is not a subgroup."""
    try:
        return FiniteGroup.from_elements(S, label=label)
    except PermError as exc:
        raise InvalidOperator(str(exc)) from None


def _normal_in(S: FiniteGroup, T: FiniteGroup) -> bool:
    """S normal in T, checked on generators of both: for t in T,
    conjugation by t is an automorphism, so t^-1 S t is generated by the
    conjugates of S's generators and lies in S when they do; and if that
    holds for each generator of T it holds for every product of them."""
    selems = S._element_set()
    return all(s.conj(t) in selems for s in S.generators for t in T.generators)


def is_splitting(B: RBOperator) -> bool:
    """True iff Im(B~ B) is trivial, iff R is trivial.  For b = B(g),
    B~(b) = b^-1 B(b^-1) is e iff B(b^-1) = b."""
    Bt, inv = B.table, B.group.inverses()
    return all(Bt[inv[b]] == b for b in set(Bt))


def kernel_invariant(B: RBOperator) -> tuple[str, str]:
    """Unordered pair {label(ker B), label(ker B~)} as a sorted tuple."""
    from .labels import iso_label

    data = images(B)
    return tuple(sorted((iso_label(data.ker), iso_label(data.ker_tilde))))


# -- graph correspondence with subgroups of G x G --------------------------


def graph(B: RBOperator) -> frozenset[tuple[int, int]]:
    """H_B = {(B(g), g B(g))} as a frozenset of element-index pairs."""
    T = B.group.mult_table()
    return frozenset((b, T[g][b]) for g, b in enumerate(B.table))


def from_graph(G: FiniteGroup, pairs: frozenset[tuple[int, int]]) -> RBOperator:
    """The operator with graph `pairs`: B(g) = a for the unique (a, b)
    with b a^-1 = g.  Requires |H| = |G| and trivial diagonal meet; then
    the |G| quotients b a^-1 cover G as soon as they are distinct."""
    n = G.order()
    if len(pairs) != n:
        raise InvalidOperator(f"graph has {len(pairs)} pairs, need |G| = {n}")
    ident = G.index(G.identity)
    T, inv = G.mult_table(), G.inverses()
    table: list[Optional[int]] = [None] * n
    for a, b in pairs:
        if a == b and a != ident:
            raise InvalidOperator("graph meets the diagonal nontrivially")
        g = T[b][inv[a]]
        if table[g] is not None:
            raise InvalidOperator("graph pairs do not separate quotients b a^-1")
        table[g] = a
    return RBOperator(group=G, table=tuple(table), provenance="from_graph")
