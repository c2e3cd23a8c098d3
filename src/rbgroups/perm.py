"""Permutations and enumerated finite permutation groups.

Composition is left-to-right (right action): ``(p * q)(i) = q(p(i))``.
All cycle products elsewhere in the package rely on this convention.
Elements are kept in a canonical sorted order (lexicographic on image
tuples) so that equal groups serialize identically.

A permutation is stored as the bytes of its image tuple, so its degree is
at most ``MAX_DEGREE`` = 256.  Byte order equals tuple order, products and
inverses are single ``bytes.translate``/``bytes.maketrans`` calls, and
CPython caches a bytes object's hash.

A homomorphism G -> H is an index table f read off the two Cayley
tables: element i of G goes to element f[i] of H.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import AbstractSet, Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence


class PermError(ValueError):
    pass


class ClosureCapExceeded(RuntimeError):
    """Raised when a generated group grows past the enumeration cap."""


ENUMERATION_CAP = 5000
MAX_DEGREE = 256

_ID = bytes(range(MAX_DEGREE))
_new = bytes.__new__  # builds a Perm from known-good bytes, skipping Perm.__new__


class Perm(bytes):
    """A permutation of {0, ..., n-1} stored as its image bytes."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]):
        try:
            self = _new(cls, images)
            if len(self) <= MAX_DEGREE:
                return self
        except ValueError:  # an image outside 0..255
            pass
        raise PermError(
            f"Perm images must lie in 0..{MAX_DEGREE - 1}: degree is limited to {MAX_DEGREE}"
        )

    @classmethod
    def checked(cls, images: Iterable[int]) -> "Perm":
        p = cls(images)
        if sorted(p) != list(range(len(p))):
            raise PermError(f"not a bijection of 0..{len(p) - 1}: {list(p)}")
        return p

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles: Sequence[Sequence[int]]) -> "Perm":
        """Build from 0-based disjoint cycles, e.g. [(0, 1, 2)]."""
        images = list(range(n))
        for cyc in cycles:
            for i, pt in enumerate(cyc):
                images[pt] = cyc[(i + 1) % len(cyc)]
        return cls.checked(images)

    def __mul__(self, other: "Perm") -> "Perm":  # type: ignore[override]
        n = len(self)
        if n != len(other):
            raise PermError(f"domain size mismatch: {n} vs {len(other)}")
        return _new(Perm, self.translate(other + _ID[n:]))

    def inverse(self) -> "Perm":
        n = len(self)
        return _new(Perm, bytes.maketrans(self, _ID[:n])[:n])

    def conj(self, other: "Perm") -> "Perm":
        """self ** other = other^-1 * self * other."""
        return other.inverse() * self * other

    def is_identity(self) -> bool:
        return self == _ID[: len(self)]

    def is_even(self) -> bool:
        seen = [False] * len(self)
        parity = 0
        for i in range(len(self)):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = self[j]
                length += 1
            parity ^= (length - 1) & 1
        return parity == 0

    def order(self) -> int:
        k, p = 1, self
        while not p.is_identity():
            p = p * self
            k += 1
        return k

    def __repr__(self) -> str:
        return f"Perm{tuple(self)}"

    __str__ = __repr__  # bytes.__str__ would print b'...'


def _times(xs: Sequence[Perm], y: Perm) -> list[Perm]:
    return [x * y for x in xs]


class Grower:
    """The subgroup <gens>, grown one generator at a time by Dimino's
    method: `elements` lists it as a union of right cosets, `members` is
    the same as a set.

    add(x) replaces K = <gens> by <gens, x> (x not in K).  For each coset
    representative r, starting from e, and each generator s, if r*s is not
    yet in the set, the whole coset K*(r*s) is added and r*s becomes a
    representative; the representatives are taken in rounds, each round
    multiplying the last round's new ones by one generator at a time.
    Proof that this gives <gens, x>: the set is always a union of right
    cosets of the group K, so a coset is added whole or not at all.  Once every representative is processed, the set is closed
    under right multiplication by each generator s: an element k*r goes to
    k*(r*s), and r*s lies in a coset K*r' already there, so k*(r*s) does
    too.  A finite set that contains e and is closed under right
    multiplication by the generators contains every positive word in
    them, which in a finite group is the whole generated subgroup; every
    element added is such a word.  This costs |<gens, x>| - |K| products
    for the cosets and |gens| per representative, against |gens| per
    element for a breadth-first closure.

    add returns False, leaving the set part-built, as soon as a coset
    meets an element outside `inside` or the set grows past `cap`
    (None: no bound); extended(x) grows a copy and keeps this one.

    `times(xs, y)` lists x*y for x in xs.  By default the elements are
    Perms; a group given by a Cayley table on indices passes a table
    lookup instead, as classify does for G, its quotients A/A0 and Aut(G).
    """

    __slots__ = ("elements", "members", "gens", "inside", "cap", "times")

    def __init__(
        self,
        identity: Any,
        inside: Optional[AbstractSet] = None,
        cap: Optional[int] = None,
        times: Callable[[Sequence, Any], list] = _times,
    ):
        self.elements = [identity]
        self.members = {identity}
        self.gens: list = []
        self.inside = inside
        self.cap = cap
        self.times = times

    def add(self, x: Any) -> bool:
        closed = self.elements[:]
        members, inside, times = self.members, self.inside, self.times
        self.gens.append(x)
        reps = [closed[0]]
        while reps:
            fresh = []
            for s in self.gens:
                for rs in times(reps, s):
                    if rs in members:
                        continue
                    coset = times(closed, rs)
                    if inside is not None and not inside.issuperset(coset):
                        return False
                    members.update(coset)
                    self.elements += coset
                    if self.cap is not None and len(self.elements) > self.cap:
                        return False
                    fresh.append(rs)
            reps = fresh
        return True

    def extended(self, x: Any) -> Optional["Grower"]:
        """A new Grower for <gens, x>, or None where add(x) fails; this
        one is left as it is."""
        g = Grower(None, self.inside, self.cap, self.times)
        g.elements, g.members, g.gens = self.elements[:], set(self.members), self.gens[:]
        return g if g.add(x) else None


def grow(
    order: Iterable[Perm], identity: Perm, inside: AbstractSet[Perm]
) -> Optional[tuple[Perm, ...]]:
    """A generating tuple T of the set `inside`, or None when it is not a
    subgroup.

    Greedy: each element of `order` that <T> does not yet cover is
    appended to T and <T> is grown by Grower.add; the walk stops once <T>
    covers `inside`.  None as soon as <T> leaves `inside` (as <T> contains
    e, also when e is not in `inside`).  The trivial group gets (e,).

    Proof, for `order` listing all of a set S = `inside`: if S is a
    subgroup, <T> lies in S for any T drawn from S, so the walk never
    leaves S.  If the walk completes, <T> lies in S (every element added
    was checked), and <T> covers S (each element of S was covered or
    added to T); hence S = <T>, a subgroup generated by T.
    This takes about |S| products, where testing every product of two
    elements of S takes |S|^2.
    """
    if identity not in inside:
        return None
    g = Grower(identity, inside)
    for x in order:
        if len(g.members) == len(inside):
            break
        if x not in g.members and not g.add(x):
            return None
    return tuple(g.gens) or (identity,)


def closure(generators: Sequence[Perm], cap: int = ENUMERATION_CAP) -> tuple[Perm, ...]:
    """All products of the generators, canonically sorted.

    Raises ClosureCapExceeded once more than `cap` elements are found.
    """
    if not generators:
        raise PermError("closure needs at least one generator")
    n = len(generators[0])
    for g in generators:
        if len(g) != n:
            raise PermError("generators have mixed domain sizes")
    g = Grower(Perm.identity(n), cap=cap)
    for x in generators:
        if x not in g.members and not g.add(Perm(x)):
            raise ClosureCapExceeded(f"closure exceeds cap of {cap} elements")
    return tuple(sorted(g.elements))


def _kept(f: Callable) -> Callable:
    """Decorator: f(obj) is computed once and kept in obj's `_cache` dict,
    so no caller computes it twice or hands it to another.  A miss calls
    the decorated function's `__wrapped__` (f, or a test's counter)."""

    @functools.wraps(f)
    def kept(obj):
        try:
            return obj._cache[kept]
        except KeyError:
            value = obj._cache[kept] = kept.__wrapped__(obj)
            return value

    return kept


_set = object.__setattr__


class _Frozen:
    """Base of the slotted value classes FiniteGroup and rbop.RBOperator.
    __init__ sets each slot once, through object.__setattr__; assignment
    afterwards raises AttributeError.  The last slot is `_cache`, where
    _kept keeps results: a fresh dict per instance, neither compared nor
    shown by repr, so an object rebuilt from the constructor fields (as
    copy and pickle do, through __reduce__) starts with nothing kept."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__[:-1])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__[:-1])


class FiniteGroup(_Frozen):
    """A finite permutation group.

    Its elements form a group: from_generators and subgroup close the
    generators, and from_elements refuses a set that is not a subgroup
    (unless it is given generators, which it trusts to generate the
    set).  `elements` is the canonical sorted element tuple when the
    group has been enumerated, else None (generator-only handle;
    `known_order` then carries the order, which generator_only requires:
    each caller knows it from the construction).  Equality and hash are
    by the five constructor fields.
    """

    __slots__ = ("degree", "generators", "elements", "label", "known_order", "_cache")

    def __init__(
        self,
        degree: int,
        generators: tuple[Perm, ...],
        elements: Optional[tuple[Perm, ...]] = None,
        label: str = "",
        known_order: Optional[int] = None,
    ):
        _set(self, "degree", degree)
        _set(self, "generators", generators)
        _set(self, "elements", elements)
        _set(self, "label", label)
        _set(self, "known_order", known_order)
        _set(self, "_cache", {})

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.degree, self.generators, self.elements, self.label, self.known_order) == (
            other.degree, other.generators, other.elements, other.label, other.known_order
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.generators, self.elements, self.label, self.known_order))

    @classmethod
    def from_generators(
        cls,
        generators: Sequence[Perm],
        cap: int = ENUMERATION_CAP,
        label: str = "",
    ) -> "FiniteGroup":
        elems = closure(generators, cap=cap)
        return cls(
            degree=len(generators[0]),
            generators=tuple(Perm(g) for g in generators),
            elements=elems,
            label=label,
            known_order=len(elems),
        )

    @classmethod
    def from_elements(
        cls,
        elements: Iterable[Perm],
        generators: Optional[Sequence[Perm]] = None,
        label: str = "",
    ) -> "FiniteGroup":
        """The group on a set of elements.  Without `generators`, grow()
        picks them from the canonical order and PermError is raised when
        the set is not a subgroup; given `generators` are trusted to
        generate the set."""
        elems = tuple(sorted(Perm(e) for e in set(elements)))
        if generators is None:
            generators = elems and grow(elems, Perm.identity(len(elems[0])), frozenset(elems))
            if not generators:
                raise PermError(f"{label or 'the set'} is not a subgroup")
        return cls(
            degree=len(elems[0]),
            generators=tuple(generators),
            elements=elems,
            label=label,
            known_order=len(elems),
        )

    @classmethod
    def generator_only(
        cls,
        degree: int,
        generators: Sequence[Perm],
        order: int,
        label: str = "",
    ) -> "FiniteGroup":
        return cls(
            degree=degree,
            generators=tuple(Perm(g) for g in generators),
            elements=None,
            label=label,
            known_order=order,
        )

    # -- basic structure ---------------------------------------------------

    @property
    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    @property
    def enumerated(self) -> bool:
        return self.elements is not None

    def order(self) -> int:
        if self.elements is not None:
            return len(self.elements)
        return self.known_order

    def __contains__(self, p: Perm) -> bool:
        if self.elements is None:
            raise PermError("membership test needs an enumerated group")
        return p in self._element_set()

    @_kept
    def _element_set(self) -> frozenset:
        return frozenset(self.elements)

    @_kept
    def _indices(self) -> dict[Perm, int]:
        return {e: i for i, e in enumerate(self.elements)}

    def index(self, p: Perm) -> int:
        """Index of p in the canonical element order."""
        return self._indices()[p]

    @_kept
    def mult_table(self) -> list[list[int]]:
        """Cayley table T on canonical element indices, T[a][b] = index
        of a*b (left-to-right), grown from the generators.

        The row of each generator s takes |G| products.  Every other row
        is read off rows already known: walking the Cayley graph
        breadth-first from the generators, T[p*s] = [T[p][v] for v in
        T[s]], since (p*s)*b = p*(s*b).  In a finite group every element,
        e included, is a positive word in the generators, so the walk
        reaches it.  The table takes |gens| |G| products where filling it
        pair by pair takes |G|^2.  Raises PermError when the walk misses
        an element, that is, when the generators do not generate the
        elements."""
        elems = self.elements
        idx = self._indices()
        gens = list(dict.fromkeys(idx[s] for s in self.generators))
        table = [None] * len(elems)
        for s in gens:
            a = elems[s]
            table[s] = [idx[a * b] for b in elems]
        frontier = gens
        while frontier:
            fresh = []
            for p in frontier:
                row = table[p]
                for s in gens:
                    ps = row[s]
                    if table[ps] is None:
                        table[ps] = list(map(row.__getitem__, table[s]))
                        fresh.append(ps)
            frontier = fresh
        if None in table:
            raise PermError(
                f"the generators of {self.label or 'G'} do not generate its elements"
            )
        return table

    @_kept
    def inverses(self) -> list[int]:
        """inverses()[a] is the index of the inverse of element a: the
        column of e in row a of mult_table()."""
        e = self.index(self.identity)
        return [row.index(e) for row in self.mult_table()]

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for a in gens for b in gens)

    @_kept
    def order_table(self) -> dict[Perm, int]:
        """The order of each element, from one walk per cyclic subgroup.

        Each element g not yet in the table is walked through <g>:
        g, g^2, ..., g^m = e, which takes m - 1 products, where m is the
        first exponent with g^m = e.  Then m is the order of g, and each
        power g^j (1 <= j <= m) gets order m / gcd(j, m).

        Proof: (g^j)^k = e iff m divides jk, iff m / gcd(j, m) divides
        k, since m / gcd(j, m) and j / gcd(j, m) are coprime; so the
        least such k > 0 is m / gcd(j, m).  Every element is covered: the
        walk visits each element in canonical order, and one that is not
        yet in the table is walked itself, which enters it (as g^1).  An
        element entered twice gets the same, correct, order both times.
        The table takes ord(g) - 1 products for each walked g, where
        Perm.order on every element takes ord(x) - 1 for every x."""
        orders: dict[Perm, int] = {}
        e = self.identity
        for g in self.elements:
            if g in orders:
                continue
            powers, p = [g], g
            while p != e:
                p = p * g
                powers.append(p)
            m = len(powers)
            for j, x in enumerate(powers, start=1):
                orders[x] = m // math.gcd(j, m)
        return orders

    def element_orders(self) -> tuple[int, ...]:
        """Sorted multiset of element orders."""
        return tuple(sorted(self.order_table().values()))

    # -- subgroup machinery ------------------------------------------------

    def subgroup(self, generators: Sequence[Perm], label: str = "") -> "FiniteGroup":
        for g in generators:
            if g not in self:
                raise PermError(f"{g!r} is not an element of {self.label or 'G'}")
        return FiniteGroup.from_generators(generators, cap=self.order(), label=label)


# -- homomorphism extension and automorphisms ------------------------------


def small_generating_tuple(G: FiniteGroup) -> tuple[Perm, ...]:
    """A short generating tuple: grow() over the elements by decreasing
    order, ties broken by the canonical order.  Where that takes three or
    more elements, the first pair (a, x) that generates G, a the first of
    them and x walked in the same order, if there is one: _isomorphisms
    tries every image of the same order for each generator, so one fewer
    generator divides its candidate tuples by the images of the one
    dropped (144 for the third element of order 5 in A6)."""
    orders = G.order_table()
    best = sorted(G.elements, key=lambda e: (-orders[e], e))
    inside = G._element_set()
    gens = grow(best, G.identity, inside)
    if len(gens) >= 3:
        a = Grower(G.identity, inside)
        a.add(gens[0])
        for x in best:
            if x not in a.members and len(a.extended(x).elements) == len(inside):
                return gens[0], x
    return gens


def homomorphism_failure(
    f: Callable[[Perm], Perm], H: FiniteGroup
) -> Optional[tuple[Perm, Perm]]:
    """The first (y, s), y in H and s among H.generators, with
    f(y s) != f(y) f(s); None when f is a homomorphism on H.  f(y) f(s)
    is multiplied once for each distinct (f(y), s), and y s is one
    translate by s padded to 256 bytes.

    Checking generators is enough: every z in H is a positive word
    s1...sk in them, so by induction on k, f(y z) = f(y) f(s1)...f(sk);
    with y = e, where f(s) = f(e) f(s) gives f(e) = e, that reads
    f(z) = f(s1)...f(sk), so f(y z) = f(y) f(z)."""
    pad = _ID[H.degree :]
    gens = [(s, s + pad, f(s), {}) for s in H.generators]
    for y in H.elements:
        fy = f(y)
        for s, padded, fs, products in gens:
            p = products.get(fy)
            if p is None:
                p = products[fy] = fy * fs
            if f(_new(Perm, y.translate(padded))) != p:
                return y, s
    return None


def extend_homomorphism(
    TG: Sequence[Sequence[int]],
    gens: Sequence[int],
    images: Sequence[int],
    TH: Sequence[Sequence[int]],
    f: Optional[list] = None,
) -> Optional[list]:
    """The homomorphism <gens> -> H sending gens[i] to images[i], as an
    index table f on G's indices (None off <gens>), or None when there is
    none.  TG and TH are Cayley tables on indices with e at 0 (canonical
    order puts e first; classify numbers A0 as coset 0).  f, when given,
    is the table returned for a prefix of gens and images, and the walk
    goes on from a copy of it.

    A breadth-first walk from every element f maps (from e alone, with
    f(e) = e, when f is not given) sets f(x s) = f(x) t on each edge
    x -> x s (t the image of s), read off the two tables, and returns
    None when an element already set gets another value.

    Proof: the walk starts inside <gens> and from e, so it reaches all of
    <gens> (each element is a positive word in the gens) and nothing
    else, and it checks each edge of each element it reaches:
    f(x s) = f(x) f(s) for all x in <gens> and gens s, and by induction
    on the length of z, f(x z) = f(x) f(z).  A homomorphism extending
    gens -> images satisfies the same edge equations from f(e) = e, as
    did the values f held at the start, so it is f; a conflict means
    there is none."""
    f = [0] + [None] * (len(TG) - 1) if f is None else f[:]
    pairs = list(zip(gens, images))
    frontier = [x for x, fx in enumerate(f) if fx is not None]
    while frontier:
        fresh = []
        for x in frontier:
            row, image_row = TG[x], TH[f[x]]
            for s, t in pairs:
                y, fy = row[s], image_row[t]
                old = f[y]
                if old is None:
                    f[y] = fy
                    fresh.append(y)
                elif old != fy:
                    return None
        frontier = fresh
    return f


def _isomorphisms(G: FiniteGroup, H: FiniteGroup) -> Iterator[tuple[int, ...]]:
    """Every isomorphism G -> H, as an index table: the images of a small
    generating tuple of G are searched among the elements of H of the
    same orders, and each choice that extends to a bijective
    homomorphism is yielded.  A homomorphism is fixed by the images of
    the generators, so none is yielded twice."""
    gens = [G.index(g) for g in small_generating_tuple(G)]
    by_order: dict[int, list[int]] = {}
    h_orders = H.order_table()
    for i, x in enumerate(H.elements):
        by_order.setdefault(h_orders[x], []).append(i)
    g_orders = G.order_table()
    candidates = [by_order.get(g_orders[G.elements[g]], []) for g in gens]
    n, TG, TH = G.order(), G.mult_table(), H.mult_table()
    for images in itertools.product(*candidates):
        f = extend_homomorphism(TG, gens, images, TH)
        if f is not None and len(set(f)) == n:
            yield tuple(f)


def automorphism_group(G: FiniteGroup) -> list[tuple[int, ...]]:
    """All automorphisms of G as element-index tables, sorted.

    Each entry `phi` satisfies elements[phi[i]] = image of elements[i].
    """
    if not G.enumerated:
        raise PermError("automorphism search needs an enumerated group")
    return sorted(_isomorphisms(G, G))


def is_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    """Whether G and H are isomorphic: equal orders and element-order
    multisets, then the generator-image search of _isomorphisms."""
    if G.order() != H.order():
        return False
    if G.element_orders() != H.element_orders():
        return False
    return next(_isomorphisms(G, H), None) is not None


# -- exact factorizations --------------------------------------------------


class FactorizationWitness(NamedTuple):
    """G = H L, with part naming the right coset H x of each x of H L:
    part(h x) = part(x) for h in H, and part(x) = part(y) only when
    H x = H y."""

    group: FiniteGroup
    left: FiniteGroup
    right: FiniteGroup
    part: Callable[[Perm], Any]

    @property
    def exact(self) -> bool:
        """Whether G = H L is exact: |H| |L| = |G| and part tells the
        elements of L apart.  l1, l2 in L share a coset iff l1 l2^-1 lies
        in H meet L, so the second holds iff H meets L in e alone, and
        then |H L| = |H| |L| = |G|."""
        L = self.right
        return (
            self.left.order() * L.order() == self.group.order()
            and len(set(map(self.part, L.elements))) == L.order()
        )


def exact_factorization(
    G: FiniteGroup, H: FiniteGroup, L: FiniteGroup
) -> FactorizationWitness:
    """The witness for G = H L, for subgroups H and L of the enumerated G.
    H and L are groups (see FiniteGroup), so each is a subgroup of G once
    its elements lie in G.  part(x) is the last l of L.elements with x in
    H l, read off G.mult_table(): those l are the elements of L in the
    coset H x, so part names the cosets; when G = H L is exact,
    part(h l) = l."""
    for S in (H, L):
        if not S._element_set() <= G._element_set():
            raise PermError(f"{S.label or 'factor'} is not a subgroup of G")
    T, elems = G.mult_table(), G.elements
    rows = [T[G.index(h)] for h in H.elements]
    cols = [(l, G.index(l)) for l in L.elements]
    part = {elems[row[j]]: l for l, j in cols for row in rows}
    return FactorizationWitness(group=G, left=H, right=L, part=part.__getitem__)
