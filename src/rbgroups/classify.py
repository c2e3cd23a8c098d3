"""Exhaustive enumeration of operators on small groups, equivalence
classes under the graph action, and classification reports."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from .labels import iso_label
from .perm import FiniteGroup, PermError, automorphism_group
from .rbop import (
    OperatorImages,
    RBOperator,
    from_graph,
    from_table,
    graph,
    images,
    is_splitting,
    kernel_invariant,
    descendent_group,
    tilde,
)

ENUMERATE_GUARANTEED = 24
ORACLE_CAP = 10


class EnumerationCapExceeded(PermError):
    pass


# -- generic bottom-up subgroup search -------------------------------------


def _extend(
    h_mask: int,
    h_elems: list[int],
    h_gens: list[int],
    x: int,
    cols: list[list[int]],
    max_size: int,
    forbidden: frozenset[int],
) -> Optional[tuple[int, list[int], list[int]]]:
    """K = <H, x> for a subgroup H = <h_gens>, as (mask, elems, gens); None
    once K grows past max_size or touches a forbidden element.  cols[y][x]
    is the index of the product x*y.

    Dimino's method: K is built as a union of right cosets H*r, starting
    from H = H*e.  For each coset representative r and each generator s of
    K, if r*s is not yet in the set, the whole coset H*(r*s) is added and
    r*s becomes a representative.  Proof that the result is K: the set is
    always a union of right cosets of H, so a coset is added whole or not at
    all, and each addition is disjoint from what is there.  Once every
    representative is processed, the set is closed under right
    multiplication by every generator s, because for an element h*r,
    (h*r)*s = h*(r*s) and r*s lies in some coset H*r' already in the set,
    so h*(r*s) lies in H*r' too.  A finite set that contains e and is closed
    under right multiplication by the generators contains every positive
    word in them, which in a finite group is all of <gens> = K; and every
    element added is such a word.  This costs |K| products for the cosets
    plus (|K|/|H|)*|gens| for the representatives, against |K|*|H| for
    closing H u {x} as if every element were a generator."""
    gens = h_gens + [x]
    members = set(h_elems)
    elems = list(h_elems)
    limit = max_size - len(h_elems)
    reps = [h_elems[0]]  # every elems list starts with the identity
    for r in reps:
        for s in gens:
            rs = cols[s][r]
            if rs in members:
                continue
            if len(elems) > limit:
                return None
            col = cols[rs]
            coset = [col[h] for h in h_elems]
            if not forbidden.isdisjoint(coset):
                return None
            members.update(coset)
            elems += coset
            reps.append(rs)
    mask = h_mask
    for z in elems[len(h_elems):]:
        mask |= 1 << z
    return mask, elems, gens


def _subgroup_masks(
    cols: list[list[int]],
    identity: int,
    target: int,
    forbidden: frozenset[int],
    orders: list[int],
) -> list[int]:
    """All subgroup element-masks of order exactly target avoiding the
    forbidden set, by cyclic extension from the trivial subgroup.

    Each subgroup H of a layer is extended by one candidate x at a time.
    For every h in H, <H, h*x> = <H, x>: h*x lies in <H, x>, and
    x = h^-1*(h*x) lies in <H, h*x>.  So one closure serves the whole right
    coset H*x: before closing x the coset is marked done, and any later
    candidate in it is skipped, whatever the closure gave (a new subgroup,
    one already seen, or None)."""
    candidates = [
        i
        for i in range(len(cols))
        if i != identity and i not in forbidden and target % orders[i] == 0
    ]
    seen = {1 << identity}
    layer = [(1 << identity, [identity], [])]
    found: list[int] = []
    while layer:
        nxt = []
        for mask, elems, gens in layer:
            if len(elems) == target:
                found.append(mask)
                continue
            done = set(elems)
            for x in candidates:
                if x in done:
                    continue
                col = cols[x]
                done.update([col[h] for h in elems])
                closed = _extend(mask, elems, gens, x, cols, target, forbidden)
                if closed is None:
                    continue
                cmask, celems, _ = closed
                if target % len(celems) or cmask in seen:
                    continue
                seen.add(cmask)
                nxt.append(closed)
        layer = nxt
    return sorted(found)


# -- operator enumeration via the product-group lattice --------------------


def enumerate_rb(G: FiniteGroup, cap: int = ENUMERATE_GUARANTEED) -> list[RBOperator]:
    """All operators on G, as the order-|G| subgroups of GxG meeting the
    diagonal trivially.  Canonical order: by sorted graph pairs.

    The subgroups are found by cyclic extension from the trivial subgroup:
    each subgroup H of order dividing |G| is extended to <H, x> by one
    closure per right coset H*x (every element of that coset gives the same
    subgroup), and each closure is built by Dimino's method as a union of
    right cosets of H, stopping as soon as it meets the diagonal or outgrows
    |G|.  See _subgroup_masks and _extend for the proofs."""
    n = G.order()
    if n > cap:
        raise EnumerationCapExceeded(f"|G| = {n} exceeds enumeration cap {cap}")
    table = G.mult_table()
    nn = n * n
    # product index (a, b) -> a*n + b; cols[y][x] = x*y in GxG
    g_cols = [[table[a][c] for a in range(n)] for c in range(n)]
    cols = []
    for a2 in range(n):
        left = [v * n for v in g_cols[a2]]
        for b2 in range(n):
            right = g_cols[b2]
            cols.append([u + v for u in left for v in right])
    e = G.index(G.identity)
    eid = e * n + e
    forbidden = frozenset(i * n + i for i in range(n) if i != e)
    g_orders = [g.order() for g in G.elements]
    orders = [math.lcm(oa, ob) for oa in g_orders for ob in g_orders]
    masks = _subgroup_masks(cols, eid, n, forbidden, orders)
    ops = []
    for mask in masks:
        pairs = frozenset(
            divmod(i, n) for i in range(nn) if (mask >> i) & 1
        )
        ops.append(from_graph(G, pairs))
    ops.sort(key=lambda B: sorted(graph(B).pairs))
    return ops


def oracle_enumerate(G: FiniteGroup) -> list[RBOperator]:
    """Independent brute-force enumeration: depth-first assignment of the
    operator table with incremental constraint propagation of the axiom."""
    n = G.order()
    if n > ORACLE_CAP:
        raise EnumerationCapExceeded(f"|G| = {n} exceeds oracle cap {ORACLE_CAP}")
    table = G.mult_table()
    inv = [0] * n
    e = G.index(G.identity)
    for i in range(n):
        for j in range(n):
            if table[i][j] == e:
                inv[i] = j
    results: list[dict[int, int]] = []

    def propagate(assign: dict[int, int]) -> Optional[dict[int, int]]:
        assign = dict(assign)
        changed = True
        while changed:
            changed = False
            known = list(assign.items())
            for g, bg in known:
                for h, bh in known:
                    # B(g)B(h) = B(g B(g) h B(g)^-1)
                    arg = table[table[table[g][bg]][h]][inv[bg]]
                    val = table[bg][bh]
                    if arg in assign:
                        if assign[arg] != val:
                            return None
                    else:
                        assign[arg] = val
                        changed = True
        return assign

    def search(assign: dict[int, int]) -> None:
        if len(assign) == n:
            results.append(assign)
            return
        g = min(i for i in range(n) if i not in assign)
        for v in range(n):
            trial = dict(assign)
            trial[g] = v
            full = propagate(trial)
            if full is not None:
                search(full)

    base = propagate({e: e})
    assert base is not None
    search(base)
    ops = []
    for assign in results:
        imgs = {G.elements[g]: G.elements[v] for g, v in assign.items()}
        ops.append(from_table(G, imgs, provenance="oracle"))
    ops.sort(key=lambda B: sorted(graph(B).pairs))
    return ops


# -- equivalence under the graph action ------------------------------------


def equivalence_classes(
    G: FiniteGroup, ops: list[RBOperator]
) -> list[list[RBOperator]]:
    """Partition ops into orbits of their graphs under pair automorphisms
    (phi, phi), conjugation twists (id, alpha_x), and the swap tau.

    Every move maps an operator graph K (order |G|, K meets the diagonal D
    only in e) to another one.  Each move is an automorphism of GxG, so
    |K| is kept; (phi, phi) and tau map D to itself; and (id, alpha_x) maps
    K to (1,x)^-1 K (1,x).  As |K||D| = |G|^2 and K meets D trivially,
    GxG = K*D, so (1,x) = k*d with k in K, d in D, and
    (1,x)^-1 K (1,x) = d^-1 K d meets D in d^-1 (K meet D) d = {e}.  So when
    ops is the complete enumeration every orbit stays inside it, and an
    orbit that reaches a graph outside ops raises: the enumeration missed
    an operator."""
    n = G.order()
    auts = automorphism_group(G)
    conj = []
    for x in G.elements:
        xi = x.inverse()
        conj.append(tuple(G.index(xi * G.elements[i] * x) for i in range(n)))

    moves: list[Callable[[frozenset], frozenset]] = []
    for phi in auts:
        moves.append(lambda P, phi=phi: frozenset((phi[a], phi[b]) for a, b in P))
    for c in conj:
        moves.append(lambda P, c=c: frozenset((a, c[b]) for a, b in P))
    moves.append(lambda P: frozenset((b, a) for a, b in P))

    graphs = [graph(B).pairs for B in ops]
    index_of = {g: i for i, g in enumerate(graphs)}

    # tau must realize the companion operator
    for B, P in zip(ops, graphs):
        swapped = frozenset((b, a) for a, b in P)
        tg = graph(tilde(B)).pairs
        if swapped != tg:
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


@dataclass
class ClassSummary:
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


def summarize(
    members: list[RBOperator], im: Optional[OperatorImages] = None
) -> ClassSummary:
    """The summary of one equivalence class, read off its first member.
    A caller that already holds images(members[0]) passes it as im.  The
    operator is splitting iff R is trivial (see rbop.is_splitting)."""
    rep = members[0]
    if im is None:
        im = images(rep)
    _, dlabel = descendent_group(rep)
    return ClassSummary(
        representative=rep,
        size=len(members),
        splitting=im.R.order() == 1,
        r_label=iso_label(im.R),
        kernel_labels=kernel_invariant(rep, im),
        descendent_label=dlabel,
    )


@dataclass
class ClassificationReport:
    group_label: str
    total: int
    splitting: int
    non_splitting: int
    classes: list[ClassSummary]
    conformance: dict[str, bool] = field(default_factory=dict)

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


def lemma3_shape(B: RBOperator, data: Optional[OperatorImages] = None) -> bool:
    """Whether B (or its companion) factors as G = ker(B)*Im(B) exactly
    with the companion restricting to a homomorphism onto R on Im(B).  A
    caller that already holds images(B) passes it as data; the companion's
    images are the same five groups with the roles of B and B~ swapped,
    and its companion is B, since B -> B~ is an involution."""
    from .perm import exact_factorization, homomorphism_failure

    if data is None:
        data = images(B)
    Bt = tilde(B)
    swapped = OperatorImages(
        im=data.im_tilde, ker=data.ker_tilde,
        im_tilde=data.im, ker_tilde=data.ker, R=data.R,
    )
    for Ct, im in ((Bt, data), (B, swapped)):  # C = B, then C = B~; Ct its companion
        if not im.R.is_abelian():
            continue
        w = exact_factorization(B.group, im.ker, im.im)
        if not w.exact:
            continue
        rset = im.R._element_set()
        if all(Ct(y) in rset for y in im.im.elements) and (
            homomorphism_failure(Ct, im.im) is None
        ):
            return True
    return False


_DIHEDRAL = re.compile(r"D(\d+)$")
_QUATERNION = re.compile(r"Q(\d+)$")


def classify(G: FiniteGroup, cap: int = ENUMERATE_GUARANTEED) -> ClassificationReport:
    ops = enumerate_rb(G, cap=cap)
    split_flags = [is_splitting(B) for B in ops]
    classes = equivalence_classes(G, ops)
    computed: dict[tuple, OperatorImages] = {}

    def images_of(B: RBOperator) -> OperatorImages:
        """images(B), computed once per operator table."""
        if B.images not in computed:
            computed[B.images] = images(B)
        return computed[B.images]

    summaries = [summarize(members, images_of(members[0])) for members in classes]
    report = ClassificationReport(
        group_label=G.label or f"G{G.order()}",
        total=len(ops),
        splitting=sum(split_flags),
        non_splitting=len(ops) - sum(split_flags),
        classes=summaries,
    )

    nonsplit = [B for B, s in zip(ops, split_flags) if not s]
    m = _DIHEDRAL.match(G.label or "")
    if m:
        n = int(m.group(1)) // 2
        if n % 2:
            report.conformance["dihedral-odd-no-nonsplitting"] = not nonsplit
        else:
            ok_r = all(
                iso_label(images_of(B).R) in ("Z2", "Z2xZ2") for B in nonsplit
            )
            ok_shape = all(lemma3_shape(B, images_of(B)) for B in nonsplit)
            report.conformance["dihedral-even-R-small"] = ok_r
            report.conformance["dihedral-even-shape"] = ok_shape
    m = _QUATERNION.match(G.label or "")
    if m:
        n = int(m.group(1)) // 4
        if n % 2:
            report.conformance["quaternion-odd-R-order-2"] = all(
                images_of(B).R.order() == 2 for B in nonsplit
            )
    return report
