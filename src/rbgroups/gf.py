"""GF(p^k) arithmetic with an element <-> point-index bijection.

Elements are coefficient tuples (c0, ..., c_{k-1}) over GF(p), reduced
modulo a fixed monic irreducible modulus.  The index of an element is
its base-p encoding sum(c_i * p^i), so 0 maps to the zero element.
The modulus and the primitive element are the lexicographically
smallest valid choices, making every field construction deterministic.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple


class FieldError(ValueError):
    pass


SIZE_CAP = 2**20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k, or None."""
    if n < 2:
        return None
    ps = prime_factors(n)
    if len(ps) != 1:
        return None
    p = ps[0]
    k = 0
    while n > 1:
        n //= p
        k += 1
    return (p, k)


# -- polynomial helpers over GF(p); coefficient lists, low degree first ----


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a mod m; m monic."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _is_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg(m)/2."""
    deg = len(m) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            divisor = tuple(low) + (1,)
            if not _poly_mod(m, divisor, p):
                return False
    return True


class FiniteField(NamedTuple):
    """GF(p^k) with fixed modulus and primitive element.

    An element is its index in {0, ..., p^k - 1} (base-p coefficient
    encoding); all operations work on indices.
    """

    p: int
    k: int
    modulus: tuple[int, ...]  # monic, degree k
    w: int  # primitive element index
    size: int

    # -- element encoding --

    def coeffs(self, x: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def encode(self, coeffs: tuple[int, ...]) -> int:
        x = 0
        for c in reversed(coeffs):
            x = x * self.p + (c % self.p)
        return x

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    # -- arithmetic --

    def add(self, x: int, y: int) -> int:
        cx, cy = self.coeffs(x), self.coeffs(y)
        return self.encode(tuple((a + b) % self.p for a, b in zip(cx, cy)))

    def neg(self, x: int) -> int:
        return self.encode(tuple((-a) % self.p for a in self.coeffs(x)))

    def mul(self, x: int, y: int) -> int:
        cx = tuple(self.coeffs(x))
        cy = tuple(self.coeffs(y))
        prod = _poly_mul(cx, cy, self.p)
        red = _poly_mod(prod, self.modulus, self.p)
        return self.encode(red + (0,) * (self.k - len(red)))

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(x), -e)
        out, base = 1, x
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, x: int) -> int:
        if x == 0:
            raise FieldError("inverse of zero")
        return self.pow(x, self.size - 2)

    def element_order(self, x: int) -> int:
        if x == 0:
            raise FieldError("order of zero undefined")
        n = self.size - 1
        order = n
        for q in prime_factors(n):
            while order % q == 0 and self.pow(x, order // q) == 1:
                order //= q
        return order

    def format_element(self, x: int) -> str:
        return ",".join(str(c) for c in self.coeffs(x))


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FiniteField:
    """GF(p^k) with the lexicographically smallest monic irreducible
    modulus and the smallest-index primitive element."""
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if k < 1:
        raise FieldError("degree must be >= 1")
    size = p**k
    if size > SIZE_CAP:
        raise FieldError(f"field size {size} exceeds cap {SIZE_CAP}")

    if k == 1:
        modulus: tuple[int, ...] = (0, 1)  # placeholder; reduction is mod p
    else:
        modulus = None  # type: ignore[assignment]
        for low in itertools.product(range(p), repeat=k):
            cand = tuple(low) + (1,)
            if _is_irreducible(cand, p):
                modulus = cand
                break
        assert modulus is not None

    field = FiniteField(p=p, k=k, modulus=modulus, w=0, size=size)
    n = size - 1
    w = None
    for x in range(1, size):
        if field.element_order(x) == n:
            w = x
            break
    assert w is not None
    return FiniteField(p=p, k=k, modulus=modulus, w=w, size=size)
