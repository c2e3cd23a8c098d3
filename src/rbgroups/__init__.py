"""Rota-Baxter operators of weight 1 on finite groups.

Construction, verification, exhaustive enumeration, equivalence
classification, and the sharply-transitive constructions on alternating
groups.
"""

from .perm import FiniteGroup, Perm, exact_factorization
from .rbop import (
    RBOperator,
    check_pair,
    circ,
    descendent_group,
    from_table,
    images,
    is_splitting,
    kernel_invariant,
    tilde,
    trivial_e,
    trivial_inv,
    verify,
)

__all__ = [
    "FiniteGroup",
    "Perm",
    "RBOperator",
    "check_pair",
    "circ",
    "descendent_group",
    "exact_factorization",
    "from_table",
    "images",
    "is_splitting",
    "kernel_invariant",
    "tilde",
    "trivial_e",
    "trivial_inv",
    "verify",
]
