"""Constructors for the named group families: Z_n, D_2n, Q_4n, S_n, A_n.

Dihedral groups of order >= 6 act on the n-gon; generalized quaternion
groups (no small faithful action) and degenerate dihedral cases use the
regular representation built from the r^i s^j normal form.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Optional

from .perm import ENUMERATION_CAP, FiniteGroup, Perm, PermError


class BuiltGroup(NamedTuple):
    group: FiniteGroup
    r: Optional[Perm] = None
    s: Optional[Perm] = None


def _regular_representation(
    size: int, mult: Callable[[int, int], int], gen_ids: list[int], label: str
) -> tuple[FiniteGroup, list[Perm]]:
    """Right-regular action: id x maps to x*g, a homomorphism under the
    left-to-right composition convention."""
    perms = [Perm(mult(x, g) for x in range(size)) for g in gen_ids]
    G = FiniteGroup.from_generators(perms, cap=size, label=label)
    return G, perms


def cyclic(n: int) -> BuiltGroup:
    if n < 1:
        raise PermError("cyclic group needs n >= 1")
    if n == 1:
        G = FiniteGroup.from_elements([Perm((0,))], label="Z1")
        return BuiltGroup(group=G, r=G.identity)
    r = Perm(tuple((i + 1) % n for i in range(n)))
    return BuiltGroup(group=FiniteGroup.from_generators([r], cap=n, label=f"Z{n}"), r=r)


def klein() -> BuiltGroup:
    a = Perm.from_cycles(4, [(0, 1), (2, 3)])
    b = Perm.from_cycles(4, [(0, 2), (1, 3)])
    return BuiltGroup(group=FiniteGroup.from_generators([a, b], cap=4, label="Z2xZ2"), r=a, s=b)


def dihedral(n: int) -> BuiltGroup:
    """D_2n = <r, s | r^n = s^2 = e, r^s = r^-1>, order 2n."""
    if n < 1:
        raise PermError("dihedral group needs n >= 1")
    if n >= 3:
        r = Perm(tuple((i + 1) % n for i in range(n)))
        s = Perm(tuple((n - i) % n for i in range(n)))
        G = FiniteGroup.from_generators([r, s], cap=2 * n, label=f"D{2 * n}")
        return BuiltGroup(group=G, r=r, s=s)

    # n <= 2: the polygon action is unfaithful; use the regular representation
    # on elements r^i s^j with index i + n * j.
    def mult(x: int, y: int) -> int:
        i, j = x % n, x // n
        k, l = y % n, y // n
        return (i + (k if j == 0 else -k)) % n + n * ((j + l) % 2)

    G, (r, s) = _regular_representation(2 * n, mult, [1 % (2 * n), n], f"D{2 * n}")
    if n == 1:
        r = G.identity
    return BuiltGroup(group=G, r=r, s=s)


def generalized_quaternion(n: int) -> BuiltGroup:
    """Q_4n = <r, s | r^2n = e, s^2 = r^n, r^s = r^-1>, order 4n.

    Regular representation on elements r^i s^j with index i + 2n * j.
    """
    if n < 2:
        raise PermError("generalized quaternion group needs n >= 2")
    m = 2 * n

    def mult(x: int, y: int) -> int:
        i, j = x % m, x // m
        k, l = y % m, y // m
        i2 = (i + (k if j == 0 else -k)) % m
        if j + l == 2:
            return (i2 + n) % m  # s^2 = r^n
        return i2 + m * (j + l)

    G, (r, s) = _regular_representation(4 * n, mult, [1, m], f"Q{4 * n}")
    return BuiltGroup(group=G, r=r, s=s)


def symmetric(n: int) -> BuiltGroup:
    if n < 1:
        raise PermError("symmetric group needs n >= 1")
    if n == 1:
        return BuiltGroup(group=FiniteGroup.from_elements([Perm((0,))], label="S1"))
    t = Perm.from_cycles(n, [(0, 1)])
    c = Perm(tuple((i + 1) % n for i in range(n)))
    G = FiniteGroup.from_generators([t, c], cap=math.factorial(n), label=f"S{n}")
    return BuiltGroup(group=G)


def alternating_generators(n: int) -> list[Perm]:
    """Standard generators of A_n on n points (n >= 3)."""
    c3 = Perm.from_cycles(n, [(0, 1, 2)])
    if n == 3:
        return [c3]
    if n % 2 == 1:
        big = Perm(tuple((i + 1) % n for i in range(n)))
    else:
        big = Perm.from_cycles(n, [tuple(range(1, n))])
    return [c3, big]


def alternating(n: int) -> BuiltGroup:
    """A_n, the group alternating_on_points gives on all n points;
    enumerated when n!/2 fits under ENUMERATION_CAP, generator-only
    beyond."""
    if n < 3:
        raise PermError("alternating group needs n >= 3")
    G = alternating_on_points(n, range(n))
    if G.order() <= ENUMERATION_CAP:
        G = FiniteGroup.from_generators(G.generators, cap=G.order(), label=G.label)
    return BuiltGroup(group=G)


def alternating_on_points(degree: int, points: Iterable[int]) -> FiniteGroup:
    """Alt(points) as a generator-only subgroup of S_degree (the trivial
    group, enumerated, on fewer than three points)."""
    pts = sorted(points)
    k = len(pts)
    if k < 3:
        if k < 1:
            raise PermError("need at least one point")
        return FiniteGroup.from_elements([Perm.identity(degree)], label="1")
    order = math.factorial(k) // 2
    base_gens = alternating_generators(k)
    gens = []
    for g in base_gens:
        images = list(range(degree))
        for i, pt in enumerate(pts):
            images[pt] = pts[g[i]]
        gens.append(Perm(images))
    return FiniteGroup.generator_only(degree, gens, order=order, label=f"A{k}")


def parse_group_spec(text: str) -> BuiltGroup:
    """CLI group specifiers: D:2n, Q:4n, S:n, A:n, Z:n (orders for D and Q)."""
    try:
        family, raw = text.split(":", 1)
        value = int(raw)
    except ValueError:
        raise PermError(f"bad group specifier {text!r}; expected e.g. D:16 or A:4") from None
    family = family.upper()
    if family == "D":
        if value % 2:
            raise PermError(f"dihedral order must be even, got {value}")
        return dihedral(value // 2)
    if family == "Q":
        if value % 4:
            raise PermError(f"generalized quaternion order must be divisible by 4, got {value}")
        return generalized_quaternion(value // 4)
    if family == "S":
        return symmetric(value)
    if family == "A":
        return alternating(value)
    if family == "Z":
        return cyclic(value)
    raise PermError(f"unknown family {family!r} in specifier {text!r}")
