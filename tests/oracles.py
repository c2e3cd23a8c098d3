"""Exhaustive test-side oracles for the generator-based shortcuts in
rbgroups: the |S|^2 closure test, normality on every element pair, and
the explicit product set of two subgroups."""

import itertools


def pairwise_subgroup(S) -> bool:
    """S contains e and every product of two of its elements."""
    S = set(S)
    return any(s.is_identity() for s in S) and all(a * b in S for a in S for b in S)


def exhaustive_normal(G, S) -> bool:
    """S is a subgroup of G and g^-1 s g lies in S for every s in S, g in G."""
    S = set(S)
    return pairwise_subgroup(S) and all(s.conj(g) in S for s in S for g in G.elements)


def normal_in(S, T) -> bool:
    """S is normalized by every element of T (both subgroups)."""
    sset = set(S)
    return all(s.conj(t) in sset for s in S for t in T)


def product_set(X, Y) -> set:
    return {x * y for x, y in itertools.product(X, Y)}


def subsets_with_identity(G):
    """Every subset of G's elements that contains the identity."""
    rest = [g for g in G.elements if not g.is_identity()]
    for k in range(len(rest) + 1):
        for chosen in itertools.combinations(rest, k):
            yield {G.identity, *chosen}
