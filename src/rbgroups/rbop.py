"""The Rota-Baxter operator core.

An operator B on a group G satisfies, for all g, h:

    B(g) B(h) = B(g B(g) h B(g)^-1)

with the package-wide left-to-right composition convention.  Table
operators store one image per canonical element; procedural operators
(used on large alternating groups) carry an evaluation closure plus
structural facts from their construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from .labels import iso_label
from .perm import (
    MAX_DEGREE,
    FiniteGroup,
    Perm,
    PermError,
    grow,
)


class InvalidOperator(ValueError):
    """The defining identity or a structural consequence of it failed."""


DEFAULT_SEED = 7
FULL_VERIFY_MAX_ORDER = 1024


@dataclass(frozen=True)
class Verdict:
    ok: bool
    pairs: int
    seed: Optional[int] = None
    witness: Optional[tuple] = None
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.ok else "fail"
        seed = "-" if self.seed is None else str(self.seed)
        return f"verify: {status} pairs={self.pairs} seed={seed}"


@dataclass(frozen=True)
class RBOperator:
    """A Rota-Baxter operator on a finite group.

    Exactly one of `images` (table body, aligned with group.elements)
    and `proc` (procedural body) is set.  `structural` carries
    construction-provided subgroup data for procedural operators.
    """

    group: FiniteGroup
    images: Optional[tuple[Perm, ...]] = None
    proc: Optional[Callable[[Perm], Perm]] = None
    provenance: str = ""
    structural: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if (self.images is None) == (self.proc is None):
            raise PermError("operator needs exactly one of a table or a procedure")

    @property
    def is_table(self) -> bool:
        return self.images is not None

    def __call__(self, g: Perm) -> Perm:
        if self.images is not None:
            return self.images[self.group.index(g)]
        return self.proc(g)

    def table_key(self) -> tuple[int, ...]:
        """Canonical key: image indices in canonical element order."""
        if self.images is None:
            raise PermError("procedural operator has no table key")
        return tuple(self.group.index(p) for p in self.images)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RBOperator):
            return NotImplemented
        if self.group is not other.group and self.group != other.group:
            return False
        if self.is_table and other.is_table:
            return self.images == other.images
        return self is other

    def __hash__(self):
        if self.images is not None:
            return hash((self.group.degree, self.images))
        return id(self)


def from_table(
    G: FiniteGroup,
    images: dict[Perm, Perm] | tuple[Perm, ...],
    provenance: str = "",
    check: bool = True,
) -> RBOperator:
    """Table operator; verifies the defining identity on all pairs unless
    the group is too large (then sampled) or check=False."""
    if not G.enumerated:
        raise PermError("table operators need an enumerated group")
    if isinstance(images, dict):
        images = tuple(images[e] for e in G.elements)
    B = RBOperator(group=G, images=tuple(images), provenance=provenance)
    if check:
        if G.order() <= FULL_VERIFY_MAX_ORDER:
            v = verify(B, mode="full")
        else:
            v = verify(B, mode="sampled", count=10_000, seed=DEFAULT_SEED)
        if not v.ok:
            raise InvalidOperator(
                f"defining identity fails at {v.witness}: {v.detail}"
            )
    return B


def trivial_e(G: FiniteGroup) -> RBOperator:
    """g -> e."""
    return from_table(G, tuple(G.identity for _ in G.elements), provenance="B_e", check=False)


def trivial_inv(G: FiniteGroup) -> RBOperator:
    """g -> g^-1."""
    return from_table(G, tuple(e.inverse() for e in G.elements), provenance="B_inv", check=False)


def check_pair(
    B: RBOperator, g: Perm, h: Perm, row: Optional[tuple[Perm, Perm, Perm]] = None
) -> bool:
    """The defining identity B(g) B(h) = B(g o h) at the pair (g, h); a
    caller that checks a whole row g passes row = circ_row(B, g) once."""
    row = row or circ_row(B, g)
    return row[0] * B(h) == B(circ(B, g, h, row))


def verify(
    B: RBOperator,
    mode: str = "full",
    count: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> Verdict:
    """Check the defining identity on all pairs (full) or seeded random
    pairs (sampled).  Deterministic for a fixed seed.

    Full verification takes a table operator and runs one row g at a time
    on G's Cayley table (see _circ_rows): the row holds iff
    [B(g o h) for h] == [B(g) B(h) for h] as lists of element indices.
    The first failing row is searched for its first failing h with
    check_pair, so the witness and detail are those of the pairwise
    walk.  Sampled pairs go through check_pair one by one."""
    if mode not in ("full", "sampled"):
        raise PermError(f"unknown verify mode {mode!r}")
    if not B.group.enumerated:
        raise PermError(f"{mode} verification needs an enumerated group")
    if mode == "full":
        if not B.is_table:
            raise PermError("full verification needs a table operator")
        return _verify_rows(B)
    rng = random.Random(seed)
    elems = B.group.elements
    for _ in range(count):
        g, h = rng.choice(elems), rng.choice(elems)
        if not check_pair(B, g, h):
            return _failure(B, g, h, count, seed)
    return Verdict(ok=True, pairs=count, seed=seed)


def _failure(B: RBOperator, g: Perm, h: Perm, pairs: int, seed: Optional[int]) -> Verdict:
    return Verdict(
        ok=False,
        pairs=pairs,
        seed=seed,
        witness=(g, h),
        detail=f"B(g)B(h)={B(g) * B(h)!r} != B(gB(g)hB(g)^-1)={B(circ(B, g, h))!r}",
    )


def _verify_rows(B: RBOperator) -> Verdict:
    G = B.group
    T = G.mult_table()
    Bi = B.table_key()
    pairs = len(Bi) ** 2
    for g, row in enumerate(_circ_rows(G, Bi)):
        if not _respects(Bi, T, g, row):
            g = G.elements[g]
            crow = circ_row(B, g)
            h = next(h for h in G.elements if not check_pair(B, g, h, crow))
            return _failure(B, g, h, pairs, None)
    return Verdict(ok=True, pairs=pairs)


def _circ_rows(G: FiniteGroup, Bi: Sequence[int]) -> Iterator[list[int]]:
    """Row g of the descendent product on element indices, for each g of
    G in canonical order, where Bi[g] is the index of B(g): row[h] is the
    index of g o h.  With T = G.mult_table(), x = g B(g) and
    y = B(g)^-1, g o h = x h y, so row = [T[T[x][h]][y] for h]: column y
    of T read along row x.  No Perm product is taken."""
    T = G.mult_table()
    cols = list(zip(*T))  # cols[y][v] = index of v*y
    e = G.index(G.identity)
    for g, b in enumerate(Bi):
        yield list(map(cols[T[b].index(e)].__getitem__, T[T[g][b]]))


def _respects(f: Sequence[int], T: list[list[int]], g: int, row: list[int]) -> bool:
    """f(g o h) = f(g) f(h) for every h, on element indices: f lists the
    index of f(v) for each v, T is G's table and row is row g of o.  With
    f = B this is the defining identity on row g."""
    return list(map(f.__getitem__, row)) == list(map(T[f[g]].__getitem__, f))


# -- derived operators -----------------------------------------------------


def tilde(B: RBOperator) -> RBOperator:
    """The companion operator g -> g^-1 B(g^-1); an involution."""
    if B.images is not None:
        G = B.group
        images = tuple(e.inverse() * B(e.inverse()) for e in G.elements)
        return RBOperator(group=G, images=images, provenance=f"tilde({B.provenance})")
    proc = B.proc
    structural = {}
    for a, b in (("ker", "ker_tilde"), ("im", "im_tilde"), ("R", "R")):
        if b in B.structural:
            structural[a] = B.structural[b]
        if a in B.structural:
            structural[b] = B.structural[a]
    return RBOperator(
        group=B.group,
        proc=lambda g: g.inverse() * proc(g.inverse()),
        provenance=f"tilde({B.provenance})",
        structural=structural,
    )


def bplus(B: RBOperator) -> Callable[[Perm], Perm]:
    """The plain map g -> g B(g) (not itself a Rota-Baxter operator)."""
    return lambda g: g * B(g)


def circ_row(B: RBOperator, g: Perm) -> tuple[Perm, Perm, Perm]:
    """(B(g), g B(g), B(g)^-1): what g o h and the identity at (g, h) need
    of g, the same for every h."""
    bg = B(g)
    return bg, g * bg, bg.inverse()


def circ(
    B: RBOperator, g: Perm, h: Perm, row: Optional[tuple[Perm, Perm, Perm]] = None
) -> Perm:
    """The descendent product g o h = g B(g) h B(g)^-1; a caller that
    already holds circ_row(B, g) passes it as row."""
    _, gbg, bgi = row or circ_row(B, g)
    return gbg * h * bgi


def descendent_group(B: RBOperator) -> tuple[FiniteGroup, str]:
    """The group (G, o) and its iso label.

    (G, o) is represented on 2 deg(G) points by the graph embedding
    phi(g) = (B(g), B_+(g)), B_+(g) = g B(g): B(g) acts on the points
    0..d-1 and B_+(g) on d..2d-1, so d = deg(G) <= MAX_DEGREE / 2.  The
    checks are that e is a two-sided identity for o, that every row
    h -> g o h is a bijection, and, for all pairs, phi(a o b) = phi(a) phi(b).
    The last check alone proves that (G, o) is a group and that B is a
    homomorphism from it to G:

    - phi is injective, since g = B_+(g) B(g)^-1 is read off phi(g).
    - o is associative: phi((a o b) o c) = phi(a) phi(b) phi(c)
      = phi(a o (b o c)), and phi is injective.
    - phi(G) is a finite subset of Sym(2d) closed under products, hence a
      subgroup, and phi is a bijection (G, o) -> phi(G) that respects the
      products; so (G, o) is a group isomorphic to phi(G).
    - Products of phi-images act blockwise, so the first block of the
      identity reads B(a o b) = B(a) B(b): B is a homomorphism
      (G, o) -> G.  The second block says the same of B_+.

    Only the first block is checked: it implies the second, since then
    B_+(a o b) = (a o b) B(a) B(b) = a B(a) b B(b) = B_+(a) B_+(b).  As
    phi(a) phi(b) acts as B(a) B(b) on 0..d-1 and as B_+(a) B_+(b) on
    d..2d-1, B(a o b) = B(a) B(b) for all a, b is the same as
    phi(a o b) = phi(a) phi(b).  The check runs one row a at a time on
    G's Cayley table T, on element indices, with the rows of o from
    _circ_rows: it is the defining identity of B, read row by row as in
    verify.

    The regular representation needs |G| points and an O(|G|^3)
    associativity loop; the tests keep it as an exhaustive oracle.
    """
    G = B.group
    if not G.enumerated:
        raise PermError("descendent group needs an enumerated group")
    d = G.degree
    if 2 * d > MAX_DEGREE:
        raise PermError(
            f"descendent group needs degree <= {MAX_DEGREE // 2}, got {d}"
        )
    elems = G.elements
    n = len(elems)
    T = G.mult_table()
    Bi = tuple(G.index(B(g)) for g in elems)
    table = list(_circ_rows(G, Bi))

    ident = G.index(G.identity)
    for i in range(n):
        if table[i][ident] != i or table[ident][i] != i:
            raise InvalidOperator("descendent product has no identity")
    for i in range(n):
        if sorted(table[i]) != list(range(n)):
            raise InvalidOperator("descendent product rows are not bijections")
    for a, row in enumerate(table):
        if not _respects(Bi, T, a, row):
            raise InvalidOperator("B is not a homomorphism from the descendent product")
    # phi(g) = (B(g), B_+(g)), with T[g][b] the index of B_+(g) = g B(g)
    phi = [Perm(elems[b] + bytes(d + v for v in elems[T[g][b]])) for g, b in enumerate(Bi)]
    D = FiniteGroup.from_elements(phi, label=f"{G.label}^o")
    return D, iso_label(D)


# -- images, kernels, splitting --------------------------------------------


@dataclass(frozen=True)
class OperatorImages:
    im: FiniteGroup
    ker: FiniteGroup
    im_tilde: FiniteGroup
    ker_tilde: FiniteGroup
    R: FiniteGroup  # im & im_tilde


def images(B: RBOperator) -> OperatorImages:
    """The five structural subgroups, with the consequences of the
    defining identity asserted (normality, factorization, index identity).

    Each set is made a group by one grow() pass, which also tests that it
    is a subgroup.  G = Im(B~) Im(B) is checked by the product formula
    |XY| = |X| |Y| / |X meet Y| for subgroups X, Y, with X meet Y = R:
    XY is a subset of G, so XY = G iff |Im(B~)| |Im(B)| = |G| |R|.
    The companion's sets are read off B: B~(g) = g^-1 B(g^-1), so
    Im(B~) = {x B(x)} (x = g^-1) and B~(g) = e iff B(g^-1) = g."""
    G = B.group
    if not G.enumerated:
        st = B.structural
        if {"ker", "im", "ker_tilde", "im_tilde", "R"} <= st.keys():
            return OperatorImages(
                im=st["im"], ker=st["ker"],
                im_tilde=st["im_tilde"], ker_tilde=st["ker_tilde"], R=st["R"],
            )
        raise PermError("images of a procedural operator need structural data")
    im = _subgroup(G, {B(g) for g in G.elements}, "Im(B)")
    ker = _subgroup(G, {g for g in G.elements if B(g).is_identity()}, "ker(B)")
    im_t = _subgroup(G, {g * B(g) for g in G.elements}, "Im(B~)")
    ker_t = _subgroup(G, {g for g in G.elements if B(g.inverse()) == g}, "ker(B~)")
    R = _subgroup(G, im._element_set() & im_t._element_set(), "R")

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


def _subgroup(G: FiniteGroup, S: set, label: str) -> FiniteGroup:
    """S as a group with the generators grow() picks; InvalidOperator
    when S is not a subgroup."""
    elems = sorted(S)
    gens = grow(elems, G.identity, S)
    if gens is None:
        raise InvalidOperator(f"{label} is not a subgroup")
    return FiniteGroup.from_elements(elems, generators=gens, label=label)


def _normal_in(S: FiniteGroup, T: FiniteGroup) -> bool:
    """S normal in T, checked on generators of both (as FiniteGroup.is_normal)."""
    selems = S._element_set()
    return all(s.conj(t) in selems for s in S.generators for t in T.generators)


def is_splitting(B: RBOperator) -> bool:
    """True iff Im(B~ B) is trivial, iff R is trivial.  For b = B(g),
    B~(b) = b^-1 B(b^-1) is e iff B(b^-1) = b."""
    if not B.group.enumerated:
        return images(B).R.order() == 1
    return all(B(b.inverse()) == b for b in {B(g) for g in B.group.elements})


def kernel_invariant(
    B: RBOperator, data: Optional[OperatorImages] = None
) -> tuple[str, str]:
    """Unordered pair {label(ker B), label(ker B~)} as a sorted tuple; a
    caller that already holds images(B) passes it as data."""
    if data is None:
        data = images(B)
    return tuple(sorted((iso_label(data.ker), iso_label(data.ker_tilde))))


# -- graph correspondence with subgroups of G x G --------------------------


@dataclass(frozen=True)
class GraphSubgroup:
    """H_B = {(B(g), g B(g))} as a frozenset of element-index pairs."""

    group: FiniteGroup
    pairs: frozenset[tuple[int, int]]


def graph(B: RBOperator) -> GraphSubgroup:
    G = B.group
    pairs = frozenset(
        (G.index(B(g)), G.index(g * B(g))) for g in G.elements
    )
    return GraphSubgroup(group=G, pairs=pairs)


def from_graph(G: FiniteGroup, pairs: frozenset[tuple[int, int]]) -> RBOperator:
    """The operator with graph `pairs`: B(g) = a for the unique (a, b)
    with b a^-1 = g.  Requires |H| = |G| and trivial diagonal meet."""
    if len(pairs) != G.order():
        raise InvalidOperator(f"graph has {len(pairs)} pairs, need |G| = {G.order()}")
    ident = G.index(G.identity)
    for a, b in pairs:
        if a == b and a != ident:
            raise InvalidOperator("graph meets the diagonal nontrivially")
    elems = G.elements
    images: dict[Perm, Perm] = {}
    for a, b in pairs:
        g = elems[b] * elems[a].inverse()
        if g in images:
            raise InvalidOperator("graph pairs do not separate quotients b a^-1")
        images[g] = elems[a]
    if len(images) != G.order():
        raise InvalidOperator("graph quotients b a^-1 do not cover G")
    return from_table(G, images, provenance="from_graph", check=False)
