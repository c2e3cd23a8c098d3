"""Permutations and enumerated finite permutation groups.

Composition is left-to-right (right action): ``(p * q)(i) = q(p(i))``.
All cycle products elsewhere in the package rely on this convention.
Elements are kept in a canonical sorted order (lexicographic on image
tuples) so that equal groups serialize identically.

A permutation is stored as the bytes of its image tuple, so its degree is
at most ``MAX_DEGREE`` = 256.  Byte order equals tuple order, products and
inverses are single ``bytes.translate``/``bytes.maketrans`` calls, and
CPython caches a bytes object's hash.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence


class PermError(ValueError):
    pass


class ClosureCapExceeded(RuntimeError):
    """Raised when a generated group grows past the enumeration cap."""


ENUMERATION_CAP = 5000
AUTOMORPHISM_CAP = 48
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

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point."""
        seen = [False] * len(self)
        out = []
        for i in range(len(self)):
            if seen[i] or self[i] == i:
                seen[i] = True
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self[j]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(pt) for pt in cyc) + ")" for cyc in cycs)

    def __repr__(self) -> str:
        return f"Perm{tuple(self)}"

    __str__ = __repr__  # bytes.__str__ would print b'...'


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
    gens = [Perm(g) for g in generators]
    seen = {Perm.identity(n)}
    frontier = [Perm.identity(n)]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q not in seen:
                    seen.add(q)
                    new.append(q)
                    if len(seen) > cap:
                        raise ClosureCapExceeded(
                            f"closure exceeds cap of {cap} elements"
                        )
        frontier = new
    return tuple(sorted(seen))


@dataclass(frozen=True)
class FiniteGroup:
    """A finite permutation group.

    `elements` is the canonical sorted element tuple when the group has
    been enumerated, else None (generator-only handle; `known_order`
    then carries the order if it is known by construction).
    """

    degree: int
    generators: tuple[Perm, ...]
    elements: Optional[tuple[Perm, ...]] = None
    label: str = ""
    known_order: Optional[int] = None
    _index: dict = field(default_factory=dict, repr=False, compare=False)

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
        elems = tuple(sorted(Perm(e) for e in set(elements)))
        gens = tuple(generators) if generators is not None else elems
        return cls(
            degree=len(elems[0]),
            generators=gens,
            elements=elems,
            label=label,
            known_order=len(elems),
        )

    @classmethod
    def generator_only(
        cls,
        degree: int,
        generators: Sequence[Perm],
        order: Optional[int] = None,
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
        if self.known_order is not None:
            return self.known_order
        raise PermError(f"order of generator-only group {self.label!r} unknown")

    def __contains__(self, p: Perm) -> bool:
        if self.elements is None:
            raise PermError("membership test needs an enumerated group")
        return p in self._element_set()

    def _element_set(self) -> frozenset:
        cached = self._index.get("set")
        if cached is None:
            cached = frozenset(self.elements)
            self._index["set"] = cached
        return cached

    def index(self, p: Perm) -> int:
        """Index of p in the canonical element order."""
        table = self._index.get("idx")
        if table is None:
            table = {e: i for i, e in enumerate(self.elements)}
            self._index["idx"] = table
        return table[p]

    def mult_table(self) -> list[list[int]]:
        """Cayley table on canonical element indices (left-to-right)."""
        cached = self._index.get("table")
        if cached is None:
            elems = self.elements
            idx = {e: i for i, e in enumerate(elems)}
            cached = [[idx[a * b] for b in elems] for a in elems]
            self._index["table"] = cached
        return cached

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for a in gens for b in gens)

    def element_orders(self) -> tuple[int, ...]:
        """Sorted multiset of element orders."""
        return tuple(sorted(e.order() for e in self.elements))

    # -- subgroup machinery ------------------------------------------------

    def subgroup(self, generators: Sequence[Perm], label: str = "") -> "FiniteGroup":
        for g in generators:
            if g not in self:
                raise PermError(f"{g!r} is not an element of {self.label or 'G'}")
        return FiniteGroup.from_generators(generators, cap=self.order(), label=label)

    def is_subgroup(self, S: Iterable[Perm]) -> bool:
        S = set(S)
        if not S <= self._element_set():
            raise PermError("S is not a subset of the group")
        if self.identity not in S:
            return False
        return all(a * b in S for a in S for b in S)

    def is_normal(self, S: Iterable[Perm]) -> bool:
        S = set(S)
        if not self.is_subgroup(S):
            return False
        return all(s.conj(g) in S for s in S for g in self.generators)

    def center(self) -> "FiniteGroup":
        gens = self.generators
        central = [z for z in self.elements if all(z * g == g * z for g in gens)]
        return FiniteGroup.from_elements(central, label=f"Z({self.label})")


# -- homomorphism extension and automorphisms ------------------------------


def small_generating_tuple(G: FiniteGroup) -> tuple[Perm, ...]:
    """A short generating tuple, greedily grown from high-order elements."""
    best = sorted(G.elements, key=lambda e: (-e.order(), e))
    gens: list[Perm] = []
    covered = {G.identity}
    for e in best:
        if e in covered:
            continue
        gens.append(e)
        covered = set(closure(gens, cap=G.order()))
        if len(covered) == G.order():
            return tuple(gens)
    return tuple(gens) if gens else (G.identity,)


def extend_homomorphism(
    G: FiniteGroup,
    gens: Sequence[Perm],
    images: Sequence[Perm],
    H: FiniteGroup,
) -> Optional[dict[Perm, Perm]]:
    """Extend gens -> images to a homomorphism G -> H, or None on conflict.

    Works by closing the partial map under products; total on G when the
    gens generate G.
    """
    mapping: dict[Perm, Perm] = {G.identity: H.identity}
    frontier = [G.identity]
    pairs = list(zip(gens, images))
    while frontier:
        new = []
        for x in frontier:
            fx = mapping[x]
            for g, fg in pairs:
                y = x * g
                fy = fx * fg
                old = mapping.get(y)
                if old is None:
                    mapping[y] = fy
                    new.append(y)
                elif old != fy:
                    return None
        frontier = new
    return mapping


def automorphism_group(G: FiniteGroup, cap: int = AUTOMORPHISM_CAP) -> list[tuple[int, ...]]:
    """All automorphisms of G as element-index tables.

    Each entry `phi` satisfies elements[phi[i]] = image of elements[i].
    Searches images of a small generating tuple, pruned by element order.
    """
    if not G.enumerated:
        raise PermError("automorphism search needs an enumerated group")
    if G.order() > cap:
        raise ClosureCapExceeded(f"|G| = {G.order()} exceeds automorphism cap {cap}")
    gens = small_generating_tuple(G)
    by_order: dict[int, list[Perm]] = {}
    for e in G.elements:
        by_order.setdefault(e.order(), []).append(e)
    candidates = [by_order[g.order()] for g in gens]

    autos = []
    for images in itertools.product(*candidates):
        mapping = extend_homomorphism(G, gens, images, G)
        if mapping is None or len(mapping) != G.order():
            continue
        if len(set(mapping.values())) != G.order():
            continue
        autos.append(tuple(G.index(mapping[e]) for e in G.elements))
    return sorted(set(autos))


def is_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    """Brute-force isomorphism test via generator-image search."""
    if G.order() != H.order():
        return False
    if G.element_orders() != H.element_orders():
        return False
    gens = small_generating_tuple(G)
    by_order: dict[int, list[Perm]] = {}
    for e in H.elements:
        by_order.setdefault(e.order(), []).append(e)
    candidates = [by_order.get(g.order(), []) for g in gens]
    for images in itertools.product(*candidates):
        mapping = extend_homomorphism(G, gens, images, H)
        if mapping is None or len(mapping) != G.order():
            continue
        if len(set(mapping.values())) == G.order():
            return True
    return False


# -- exact factorizations --------------------------------------------------


@dataclass(frozen=True)
class FactorizationWitness:
    """G = HL with the decomposition table x -> (h, l) when exact."""

    group: FiniteGroup
    left: FiniteGroup
    right: FiniteGroup
    exact: bool
    table: Optional[dict[Perm, tuple[Perm, Perm]]] = None


def exact_factorization(
    G: FiniteGroup, H: FiniteGroup, L: FiniteGroup
) -> FactorizationWitness:
    """Check G = H * L with trivial intersection; build x -> (h, l) table."""
    for S in (H, L):
        if not G.is_subgroup(S.elements):
            raise PermError(f"{S.label or 'factor'} is not a subgroup of G")
    inter = set(H.elements) & set(L.elements)
    exact = (H.order() * L.order() == G.order()) and inter == {G.identity}
    table = None
    if exact:
        table = {}
        for h in H.elements:
            for l in L.elements:
                table[h * l] = (h, l)
        assert len(table) == G.order()
    return FactorizationWitness(group=G, left=H, right=L, exact=exact, table=table)


def decompose(w: FactorizationWitness, x: Perm) -> tuple[Perm, Perm]:
    """The unique (h, l) with x = h * l."""
    if not w.exact:
        raise PermError("decompose requires an exact factorization")
    try:
        return w.table[x]
    except KeyError:
        raise PermError(f"{x!r} is not an element of the factored group") from None
