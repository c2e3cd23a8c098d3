"""Exhaustive enumeration of operators on small groups, equivalence
classes under the graph action, and classification reports."""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .labels import iso_label
from .perm import FiniteGroup, Grower, PermError, automorphism_group, extend_homomorphism
from .rbop import (
    ENUMERATE_GUARANTEED,
    RBOperator,
    from_graph,
    graph,
    images,
    kernel_invariant,
    descendent_group,
    tilde,
)


class EnumerationCapExceeded(PermError):
    pass


# -- operator enumeration via sections of the subgroup lattice -------------


def _subgroups(identity: int, n: int, times) -> list[tuple[int, Grower]]:
    """Every subgroup of the group on the indices 0..n-1 with product
    `times`, as (element mask, Grower), by cyclic extension from the
    trivial subgroup.

    Each subgroup H found is extended by one candidate x at a time.  For
    every h in H, <H, h*x> = <H, x>: h*x lies in <H, x>, and
    x = h^-1*(h*x) lies in <H, h*x>.  So one closure serves the whole
    right coset H*x, and any later candidate in it is skipped.  Every
    subgroup <x1, ..., xk> is reached, by induction on i: once
    <x1, ..., x(i-1)> is found, its extension by xi (or by another element
    of the same coset) gives <x1, ..., xi>."""
    first = Grower(identity, times=times)
    found = {1 << identity: first}
    layer = [first]
    while layer:
        nxt = []
        for H in layer:
            done = set(H.members)
            for x in range(n):
                if x in done:
                    continue
                done.update(times(H.elements, x))
                K = H.extended(x)
                mask = sum(1 << z for z in K.elements)
                if mask not in found:
                    found[mask] = K
                    nxt.append(K)
        layer = nxt
    return list(found.items())


def enumerate_rb(G: FiniteGroup, cap: int = ENUMERATE_GUARANTEED) -> list[RBOperator]:
    """All operators on G, as the order-|G| subgroups of GxG meeting the
    diagonal D trivially (their graphs, see rbop.from_graph).  Canonical
    order: by sorted graph pairs.

    The search runs over sections of G's own subgroup lattice (Goursat's
    lemma).  A subgroup H of GxG has the projections A = pi1(H) and
    C = pi2(H) and meets Gx1 in A0 x 1 and 1xG in 1 x C0, with A0 normal
    in A, C0 normal in C, and H = {(a, c) : c C0 = theta(a A0)} for the
    isomorphism theta: A/A0 -> C/C0, a A0 -> c C0 for (a, c) in H.  All
    subgroups of G are found by cyclic extension (_subgroups).  A section
    (A, A0) is kept when A0 lies in A and is normalized by A's
    generators; its cosets are numbered (A0 is 0), and the Cayley table of
    A/A0 on them, the order of each coset and a generating tuple
    g_1, g_2, ... of A/A0, taken greedily by decreasing order (so g_i is
    not in <g_1, ..., g_(i-1)>), are read off G's table once.  A pair of
    sections is tried when |A||C0| = |G|, |A/A0| = |C/C0|, A0 meets C0
    only in e, and (a) |A||C| = |G||A meet C|, with A meet C counted on
    the masks.  The search sends each g_i in turn (b) to each coset of
    C/C0 of its order that is not yet an image, and
    perm.extend_homomorphism walks <g_1, ..., g_i> in A/A0.  A branch
    stops when the walk conflicts, when theta is not injective (a coset
    other than A0 goes to C0), or (c) when a coset x A0 it reaches, with
    x != e in A meet C, goes to x C0.  A complete theta gives the graph
    H(theta) = {(a, c) : c C0 = theta(a A0)}.

    Soundness: a complete theta is a homomorphism on <g_1, ...> = A/A0,
    so H(theta), the preimage of its graph under (a, c) -> (a A0, c C0),
    is a subgroup of GxG with |C0| pairs for each a in A, |A||C0| = |G| in
    all.  A pair (x, x) in it has x in A meet C and theta(x A0) = x C0,
    so by (c) x = e, and H(theta) is an operator graph.

    Completeness: let H be the graph of B, so pi1(H) = Im B,
    H meet (Gx1) = ker B~ x 1, pi2(H) = Im B~ and H meet (1xG) = 1 x ker B.
    Its sections are kept (A0 is normal in A, C0 in C) and pass the tests:
    |A||C0| = |H| = |G|; A/A0 and C/C0 are isomorphic; an x in A0 meet C0
    puts (x, x) in H meet D, so x = e; and (a) G = Im(B~) Im(B) = CA
    (images asserts it), so by the product formula
    |G| = |CA| = |C||A| / |A meet C|.  Its theta keeps orders and is
    injective, so (b) theta(g_i) is tried: it is not the image of an
    element of <g_1, ..., g_(i-1)>, which g_i lies outside.  Along that
    branch each walk returns theta on <g_1, ..., g_i> (the one
    homomorphism there with these generator images), which is injective
    and, as H meets D only in e, passes (c).  So the branch ends in theta.

    Each graph is kept exactly once.  A kept theta is injective between
    quotients of one order, so bijective: H(theta) projects onto A and C
    and meets Gx1 in A0 x 1 and 1xG in 1 x C0, so it is kept under its own
    sections only.  There theta is read back from H(theta), and a
    homomorphism is fixed by its generator images, so no two branches
    end in one graph."""
    n = G.order()
    if n > cap:
        raise EnumerationCapExceeded(f"|G| = {n} exceeds enumeration cap {cap}")
    table = G.mult_table()
    e = G.index(G.identity)
    cols = [[table[x][y] for x in range(n)] for y in range(n)]  # cols[y][x] = x*y

    def g_times(xs, y):
        col = cols[y]
        return [col[x] for x in xs]

    inv = G.inverses()
    subgroups = _subgroups(e, n, g_times)
    # (|A|, |A0|) -> [(mask of A, mask of A0, {a: coset id}, [sorted coset],
    # table of A/A0, generating tuple of A/A0, [coset order], {order: [coset ids]})]
    sections: dict[tuple[int, int], list] = {}
    for amask, A in subgroups:
        for a0mask, A0 in subgroups:
            if a0mask & ~amask or not all(
                table[table[inv[a]][t]][a] in A0.members for a in A.gens for t in A0.gens
            ):
                continue
            coset_of, cosets = {}, []
            for a in A.elements:
                if a not in coset_of:
                    coset = g_times(A0.elements, a)
                    coset_of.update(dict.fromkeys(coset, len(cosets)))
                    cosets.append(sorted(coset))
            quotient = [[coset_of[table[x[0]][y[0]]] for y in cosets] for x in cosets]
            orders, by_order = [], {}
            for x in range(len(cosets)):
                k, y = 1, x
                while y:
                    k, y = k + 1, quotient[y][x]
                orders.append(k)
                by_order.setdefault(k, []).append(x)
            span = Grower(0, times=lambda xs, y: [quotient[x][y] for x in xs])
            for x in sorted(range(len(cosets)), key=orders.__getitem__, reverse=True):
                if x not in span.members:
                    span.add(x)
            sections.setdefault((len(A.elements), len(A0.elements)), []).append(
                (amask, a0mask, coset_of, cosets, quotient, span.gens, orders, by_order)
            )

    graphs = []
    for (na, na0), lefts in sections.items():
        nc0 = n // na
        nc = nc0 * na // na0
        rights = sections.get((nc, nc0), ())
        for amask, a0mask, a_coset, _, QA, gens, orders, _ in lefts:
            labelled = sorted(a_coset.items())
            for cmask, c0mask, c_coset, c_cosets, QC, _, _, by_order in rights:
                if a0mask & c0mask != 1 << e or na * nc != n * (amask & cmask).bit_count():
                    continue
                diagonal = {(a_coset[x], c_coset[x]) for x in a_coset if x in c_coset and x != e}
                # (images of gens[:i], theta on <gens[:i]>)
                stack = [([], [0] + [None] * (len(QA) - 1))]
                while stack:
                    images, theta = stack.pop()
                    i = len(images)
                    if i == len(gens):
                        graphs.append([(a, c) for a, x in labelled for c in c_cosets[theta[x]]])
                        continue
                    for c in by_order.get(orders[gens[i]], ()):
                        if c in theta:  # gens[i] and a reached coset would share an image
                            continue
                        f = extend_homomorphism(QA, gens[: i + 1], images + [c], QC, theta)
                        if f and f.count(0) == 1 and all(f[x] != y for x, y in diagonal):
                            stack.append((images + [c], f))
    # graph(from_graph(G, pairs)) is pairs, so this is the sort by graph pairs
    return [from_graph(G, frozenset(pairs)) for pairs in sorted(graphs)]


# -- equivalence under the graph action ------------------------------------


def equivalence_classes(G: FiniteGroup, ops: list[RBOperator]) -> list[list[RBOperator]]:
    """Partition ops into orbits of their graphs under pair automorphisms
    (phi, phi), conjugation twists (id, alpha_x), and the swap tau.

    Every move maps an operator graph K (order |G|, K meets the diagonal D
    only in e) to another one.  Each move is an automorphism of GxG, so
    |K| is kept; (phi, phi) and tau map D to itself; and (id, alpha_x) maps
    K to (1,x)^-1 K (1,x).  As |K||D| = |G|^2 and K meets D trivially,
    GxG = K*D, so (1,x) = k*(y,y) with k in K, y in G, and
    (1,x)^-1 K (1,x) = (y,y)^-1 K (y,y) = (alpha_y, alpha_y)(K).  That
    graph meets D in (y,y)^-1 (K meet D) (y,y) = {e}, so when ops is the
    complete enumeration every orbit stays inside it, and an orbit that
    reaches a graph outside ops raises: the enumeration missed an
    operator.  As Inn(G) <= Aut(G), a twist takes each graph where a pair
    automorphism also takes it, so the twists add nothing to the orbits
    and are not run.

    The orbits are grown from generator moves only: (phi, phi) for phi in
    a generating set of Aut(G) (picked by one Grower pass over
    automorphism_group(G), composing index tables), and tau.  These moves
    generate a finite group Gamma acting on the subgroups of GxG, and an
    orbit of a finite group is the closure of one point under any
    generating set of it: s^-1 = s^(k-1) for s of order k, so every
    element of Gamma is a positive word in the generators.  phi ->
    (phi, phi) is a homomorphism, so the generators of Aut(G) give all
    pair automorphisms.  So the orbits, the partition and the completeness
    check are those of all |Aut(G)| + |G| + 1 moves."""
    n = G.order()

    def compose(phis, psi):
        return [tuple(map(psi.__getitem__, phi)) for phi in phis]

    aut = Grower(tuple(range(n)), times=compose)
    for phi in automorphism_group(G):
        if phi not in aut.members:
            aut.add(phi)
    moves: list[Callable[[frozenset], frozenset]] = []
    for phi in aut.gens:
        moves.append(lambda P, phi=phi: frozenset((phi[a], phi[b]) for a, b in P))
    moves.append(lambda P: frozenset((b, a) for a, b in P))

    graphs = [graph(B) for B in ops]
    index_of = {g: i for i, g in enumerate(graphs)}

    # tau must realize the companion operator
    for B, P in zip(ops, graphs):
        if frozenset((b, a) for a, b in P) != graph(tilde(B)):
            raise AssertionError("swap move does not realize the companion operator")

    assigned = [-1] * len(ops)
    classes: list[list[RBOperator]] = []
    for i in range(len(ops)):
        if assigned[i] >= 0:
            continue
        cid = len(classes)
        orbit = [graphs[i]]
        seen = {graphs[i]}
        members = []
        while orbit:
            P = orbit.pop()
            j = index_of.get(P)
            if j is None:
                raise AssertionError("orbit reaches a graph outside the enumerated operators")
            if assigned[j] < 0:
                assigned[j] = cid
                members.append(j)
            for mv in moves:
                Q = mv(P)
                if Q not in seen:
                    seen.add(Q)
                    orbit.append(Q)
        classes.append([ops[j] for j in sorted(members)])
    return classes


# -- classification reports ------------------------------------------------


class ClassSummary(NamedTuple):
    representative: RBOperator
    size: int
    splitting: bool
    r_label: str
    kernel_labels: tuple[str, str]
    descendent_label: str

    def line(self, head: str) -> str:
        return (
            f"{head}: size={self.size} splitting={'yes' if self.splitting else 'no'}"
            f" R={self.r_label} kernels={self.kernel_labels[0]},{self.kernel_labels[1]}"
            f" descendent={self.descendent_label}"
        )


def summarize(members: list[RBOperator]) -> ClassSummary:
    """The summary of one equivalence class, read off its first member.
    The operator is splitting iff R is trivial (see rbop.is_splitting)."""
    rep = members[0]
    im = images(rep)
    return ClassSummary(
        representative=rep,
        size=len(members),
        splitting=im.R.order() == 1,
        r_label=iso_label(im.R),
        kernel_labels=kernel_invariant(rep),
        descendent_label=descendent_group(rep)[1],
    )


class ClassificationReport(NamedTuple):
    group_label: str
    total: int
    splitting: int
    non_splitting: int
    classes: list[ClassSummary]
    conformance: dict[str, bool]

    def lines(self) -> list[str]:
        out = [
            f"group: {self.group_label}",
            f"operators: {self.total}",
            f"splitting: {self.splitting}",
            f"non_splitting: {self.non_splitting}",
            f"classes: {len(self.classes)}",
        ]
        for i, c in enumerate(self.classes):
            out.append(c.line(f"class {i}"))
        for name in sorted(self.conformance):
            out.append(f"conformant[{name}]: {'yes' if self.conformance[name] else 'no'}")
        return out


_DIHEDRAL = re.compile(r"D(\d+)$")
_QUATERNION = re.compile(r"Q(\d+)$")


def classify(G: FiniteGroup, cap: int = ENUMERATE_GUARANTEED) -> ClassificationReport:
    """The report on G, read off its class summaries: the splitting count
    sums the sizes of the splitting classes, and the conformance flags are
    decided on the representatives of the non-splitting classes.

    Each fact used is constant on a class, an orbit of the moves of
    equivalence_classes.  A move (phi, phi) maps the graph of B to that of
    B' = phi B phi^-1, with companion phi B~ phi^-1, so phi maps each
    images subgroup of B onto that of B', keeping orders, meets, normality
    and isomorphism types.  So B' splits iff B does, the two R have one
    iso_label (it reads isomorphism invariants only), and each assertion
    of images and precondition of build.reconstruct holds for B' iff for
    B (C~ phi = phi C~ carries its homomorphism test).  The swap tau maps
    B to B~, whose images are B's with B and B~ swapped and the same R:
    images asserts the same facts of both, and reconstruct tries both."""
    ops = enumerate_rb(G, cap=cap)
    summaries = [summarize(members) for members in equivalence_classes(G, ops)]
    nonsplit = [c for c in summaries if not c.splitting]
    splitting = sum(c.size for c in summaries if c.splitting)
    flags: dict[str, bool] = {}
    m = _DIHEDRAL.match(G.label or "")
    if m and int(m.group(1)) // 2 % 2:
        flags["dihedral-odd-no-nonsplitting"] = not nonsplit
    elif m:
        flags["dihedral-even-R-small"] = all(c.r_label in ("Z2", "Z2xZ2") for c in nonsplit)
        from .build import reconstruct

        flags["dihedral-even-shape"] = all(reconstruct(c.representative) for c in nonsplit)
    m = _QUATERNION.match(G.label or "")
    if m and int(m.group(1)) // 4 % 2:
        flags["quaternion-odd-R-order-2"] = all(
            images(c.representative).R.order() == 2 for c in nonsplit
        )
    return ClassificationReport(
        group_label=G.label or f"G{G.order()}", total=len(ops), splitting=splitting,
        non_splitting=len(ops) - splitting, classes=summaries, conformance=flags,
    )
