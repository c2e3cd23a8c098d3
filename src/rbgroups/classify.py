"""Exhaustive enumeration of operators on small groups, equivalence
classes under the graph action, and classification reports."""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .labels import iso_label
from .perm import FiniteGroup, Grower, PermError, automorphism_group
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
    C = pi2(H), and H meets Gx1 in A0 x 1 and 1xG in 1 x C0, with A0
    normal in A, C0 normal in C, A/A0 isomorphic to C/C0 and
    |H| = |A||C0|.  All subgroups of G are found by cyclic extension
    (_subgroups); a section (A, A0) is kept when A0 lies in A and is
    normalized by A's generators; and a pair of sections is tried when
    |A||C0| = |G|, |A/A0| = |C/C0|, A0 meets C0 only in e, and
    (a) |A||C| = |G||A meet C|, with A meet C counted on the masks.  For
    such a pair the search starts from N = A0 x C0 and, for each generator
    a_i of A in turn, tries each c_i of a transversal T of C0 in C (b)
    whose coset c_i C0 has the order in C/C0 that a_i A0 has in A/A0,
    growing <N, (a_1, c_1), ..., (a_i, c_i)> in GxG by Dimino's method
    (perm.Grower on the pair index a*n + b, with (a, b)(c, d) = (ac, bd)
    read off G's table).  A branch stops as soon as the closure grows past
    |G| or meets D; a closure that takes all the generators is kept (c)
    when its second projection is all of C.  A generator a_i that the
    closure already projects onto is passed over: the closure holds some
    (a_i, c), and with 1 x C0 in N it holds (a_i, c') for every c' in
    c C0.

    Soundness: a kept closure K contains 1 x C0 and projects onto
    <A0, a_1, a_2, ...> = A, so |K| >= |A||C0| = |G|; it did not grow past
    |G|, so |K| = |G|, and it meets D only in e.  So K is an operator graph.

    Completeness: let H be the graph of B, so pi1(H) = Im B,
    H meet (Gx1) = ker B~ x 1, pi2(H) = Im B~ and H meet (1xG) = 1 x ker B.
    Its sections are kept (A0 is normal in A, C0 in C) and pass the tests:
    |A||C0| = |H| = |G|; A/A0 and C/C0 are isomorphic; an x in A0 meet C0
    puts (x, x) in H meet D, so x = e; and (a) G = Im(B~) Im(B) = CA
    (images asserts it), so by the product formula
    |G| = |CA| = |C||A| / |A meet C|.  N lies in H.  Each a_i has partners
    c with (a_i, c) in H, and they form one coset c C0 (two of them, c and
    c', put (e, c^-1 c') in H); as C0 is normal in C, T holds exactly one
    of them, c_i.  (b) The map A/A0 -> C/C0, a A0 -> c C0 for (a, c) in H,
    is the isomorphism of Goursat's lemma, so a_i A0 and c_i C0 have the
    same order, and c_i is tried.  With these choices every closure lies
    in H (a closure in H that projects onto a_i already holds (a_i, c_i)),
    so it neither grows past |G| nor meets D, and the last one, of order
    >= |A||C0| = |H|, is H; (c) its second projection is C.

    Each graph is kept exactly once.  A kept K has pi1(K) = A and, by (c),
    pi2(K) = C, so K meets Gx1 in a group of order |K|/|C| = |A||C0|/|C|
    = |A0| that contains A0 x 1, and 1xG in one of order |K|/|A| = |C0|
    that contains 1 x C0: (A, A0, C, C0) are K's own sections, and K is
    kept under no other pair.  Within the pair, two branches that first
    differ at a_i, with c != c' from T, cannot both end in K: (a_i, c) and
    (a_i, c') in K put (e, c^-1 c') in K meet (1xG) = 1 x C0, while T holds
    one element of each coset of C0."""
    n = G.order()
    if n > cap:
        raise EnumerationCapExceeded(f"|G| = {n} exceeds enumeration cap {cap}")
    table = G.mult_table()
    e = G.index(G.identity)
    cols = [[table[x][y] for x in range(n)] for y in range(n)]  # cols[y][x] = x*y
    ncols = [[v * n for v in col] for col in cols]  # the a*c part of (a*c)*n + b*d
    pi1 = [p // n for p in range(n * n)]
    pi2 = [p % n for p in range(n * n)]

    def g_times(xs, y):
        col = cols[y]
        return [col[x] for x in xs]

    def pair_times(xs, y):
        ca, cb = ncols[pi1[y]], cols[pi2[y]]
        return [ca[pi1[x]] + cb[pi2[x]] for x in xs]

    def coset_order(a, members):
        """The order of a*A0 in A/A0, for A0 with the element set `members`."""
        k, x = 1, a
        while x not in members:
            k, x = k + 1, table[x][a]
        return k

    inv = G.inverses()
    subgroups = _subgroups(e, n, g_times)
    # (|A|, |A0|) -> [(A, A0, mask of A, mask of A0, coset orders of A's
    # generators, {coset order: the transversal of A0 in A with that order})]
    sections: dict[tuple[int, int], list] = {}
    for amask, A in subgroups:
        for a0mask, A0 in subgroups:
            if a0mask & ~amask or not all(
                table[table[inv[a]][t]][a] in A0.members for a in A.gens for t in A0.gens
            ):
                continue
            transversal, covered = {}, set()
            for a in A.elements:
                if a not in covered:
                    transversal.setdefault(coset_order(a, A0.members), []).append(a)
                    covered.update(g_times(A0.elements, a))
            gen_orders = [coset_order(a, A0.members) for a in A.gens]
            key = (len(A.elements), len(A0.elements))
            sections.setdefault(key, []).append((A, A0, amask, a0mask, gen_orders, transversal))

    off_diagonal = frozenset(range(n * n)) - {i * n + i for i in range(n) if i != e}
    kernels: dict[tuple[int, int], Grower] = {}  # A0 x C0 by the masks of A0, C0
    graphs = []
    for (na, na0), lefts in sections.items():
        nc0 = n // na
        nc = nc0 * na // na0
        rights = sections.get((nc, nc0), ())
        for A, A0, amask, a0mask, gen_orders, _ in lefts:
            for _, C0, cmask, c0mask, _, transversal in rights:
                if a0mask & c0mask != 1 << e or na * nc != n * (amask & cmask).bit_count():
                    continue
                N = kernels.get((a0mask, c0mask))
                if N is None:
                    N = Grower(e * n + e, off_diagonal, n, pair_times)
                    for a in A0.gens:
                        N.add(a * n + e)
                    for c in C0.gens:
                        N.add(e * n + c)
                    kernels[a0mask, c0mask] = N
                stack = [(N, 0)]
                while stack:
                    K, i = stack.pop()
                    if i == len(A.gens):
                        if len({pi2[x] for x in K.elements}) == nc:
                            graphs.append(K.elements)
                        continue
                    a = A.gens[i]
                    if any(pi1[x] == a for x in K.elements):
                        stack.append((K, i + 1))
                        continue
                    for c in transversal.get(gen_orders[i], ()):
                        grown = K.extended(a * n + c)
                        if grown is not None:
                            stack.append((grown, i + 1))
    # graph(from_graph(G, pairs)) is pairs, so this is the sort by graph pairs
    return [from_graph(G, frozenset(pairs)) for pairs in sorted(
        sorted(divmod(p, n) for p in H) for H in graphs
    )]


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
