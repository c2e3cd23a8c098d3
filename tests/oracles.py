"""Exhaustive test-side oracles for the shortcuts in rbgroups: the |S|^2
closure test, normality on every element pair, the explicit product set
of two subgroups, the operator graphs found by a subgroup search in
G x G itself, the equivalence classes under every move, the defining
identity pair by pair on L x L, the opposite product on S x S pair by
pair, the descendent product by Perm products, with the K and twist
loops of transitive.descendent_structure built on it, the classify
totals and conformance flags computed operator by operator, the
shape test that build.reconstruct replaced, a copy of a group or
operator rebuilt through its constructor, every operator on a group of
order at most ORACLE_CAP by backtracking over its table, and the index-2
twist's body and the twist as a table operator."""

import itertools
import math
import random
import re

from rbgroups.build import construction
from rbgroups.classify import EnumerationCapExceeded
from rbgroups.labels import iso_label
from rbgroups.perm import (
    Perm,
    automorphism_group,
    exact_factorization,
    homomorphism_failure,
    small_generating_tuple,
)
from rbgroups.rbop import from_table, graph, images, is_splitting, tilde

ORACLE_CAP = 10


def rebuilt(x, **changes):
    """A new FiniteGroup or RBOperator from x's constructor fields, with
    `changes` applied.  The fields are the slots before `_cache`, so the
    copy starts with nothing kept."""
    return type(x)(**{**{f: getattr(x, f) for f in type(x).__slots__[:-1]}, **changes})


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


def _extend(h_mask, h_elems, h_gens, x, cols, max_size, forbidden):
    """K = <H, x> for a subgroup H = <h_gens>, as (mask, elems, gens); None
    once K grows past max_size or touches a forbidden element.  cols[y][x]
    is the index of the product x*y.  Dimino's method: K is built as a
    union of right cosets of H (see rbgroups.perm.Grower for the proof)."""
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


def _subgroup_masks(cols, identity, target, forbidden, orders):
    """All subgroup element-masks of order exactly target avoiding the
    forbidden set, by cyclic extension from the trivial subgroup, one
    closure per right coset H*x (as <H, h*x> = <H, x>)."""
    candidates = [
        i
        for i in range(len(cols))
        if i != identity and i not in forbidden and target % orders[i] == 0
    ]
    seen = {1 << identity}
    layer = [(1 << identity, [identity], [])]
    found = []
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


def lattice_graph_masks(G):
    """The order-|G| subgroups of G x G meeting the diagonal trivially (the
    operator graphs), as masks over the pair index a*n + b, found by
    cyclic extension in G x G on its n^4 product table."""
    n = G.order()
    table = G.mult_table()
    # product index (a, b) -> a*n + b; cols[y][x] = x*y in GxG
    g_cols = [[table[a][c] for a in range(n)] for c in range(n)]
    cols = []
    for a2 in range(n):
        left = [v * n for v in g_cols[a2]]
        for b2 in range(n):
            right = g_cols[b2]
            cols.append([u + v for u in left for v in right])
    e = G.index(G.identity)
    forbidden = frozenset(i * n + i for i in range(n) if i != e)
    g_orders = [g.order() for g in G.elements]
    orders = [math.lcm(oa, ob) for oa in g_orders for ob in g_orders]
    return _subgroup_masks(cols, e * n + e, n, forbidden, orders)


def all_moves_classes(G, ops):
    """The partition of ops into orbits of their graphs under every move:
    (phi, phi) for each of the |Aut(G)| automorphisms, (id, alpha_x) for
    each of the |G| elements x, and the swap tau; the reference for
    classify.equivalence_classes, which grows the orbits from generator
    moves.  An orbit that reaches a graph outside ops raises, as there."""
    n = G.order()
    T, inv = G.mult_table(), G.inverses()
    conj = [tuple(T[T[inv[x]][i]][x] for i in range(n)) for x in range(n)]  # x^-1 i x
    moves = [lambda P, phi=phi: frozenset((phi[a], phi[b]) for a, b in P)
             for phi in automorphism_group(G)]
    moves += [lambda P, c=c: frozenset((a, c[b]) for a, b in P) for c in conj]
    moves.append(lambda P: frozenset((b, a) for a, b in P))

    graphs = [graph(B) for B in ops]
    index_of = {g: i for i, g in enumerate(graphs)}
    assigned = [-1] * len(ops)
    classes = []
    for i in range(len(ops)):
        if assigned[i] >= 0:
            continue
        orbit, seen, members = [graphs[i]], {graphs[i]}, []
        while orbit:
            P = orbit.pop()
            j = index_of.get(P)
            if j is None:
                raise AssertionError("orbit reaches a graph outside the enumerated operators")
            if assigned[j] < 0:
                assigned[j] = len(classes)
                members.append(j)
            for mv in moves:
                Q = mv(P)
                if Q not in seen:
                    seen.add(Q)
                    orbit.append(Q)
        classes.append([ops[j] for j in sorted(members)])
    return classes


def digit_sampler(n, points=None):
    """The per-digit decoder that transitive.even_decoder's tables replace:
    one randrange(k!) read as Fisher-Yates digits, least significant
    first, one divmod and swap per step, then the images of points[0] and
    points[1] swapped when the number of swaps is odd."""
    pts = list(range(n)) if points is None else list(points)
    total = math.factorial(len(pts))

    def draw(rng):
        x = rng.randrange(total)
        imgs = list(range(n))
        odd = False
        for i in range(len(pts) - 1, 0, -1):
            x, j = divmod(x, i + 1)
            if j != i:
                a, b = pts[i], pts[j]
                imgs[a], imgs[b] = imgs[b], imgs[a]
                odd = not odd
        if odd:
            a, b = pts[0], pts[1]
            imgs[a], imgs[b] = imgs[b], imgs[a]
        return Perm(imgs)

    return draw


def circ_row(B, g):
    """(B(g), g B(g), B(g)^-1): what g o h and the identity at (g, h) need
    of g, the same for every h."""
    bg = B(g)
    return bg, g * bg, bg.inverse()


def perm_circ(B, g, h, row=None):
    """g o h = g B(g) h B(g)^-1 by Perm products; a caller that already
    holds circ_row(B, g) passes it as row.  The reference for
    rbop.circ_kernel, which works on image bytes."""
    _, gbg, bgi = row or circ_row(B, g)
    return gbg * h * bgi


def perm_check_pair(B, g, h):
    """The defining identity B(g) B(h) = B(g o h) by Perm products."""
    row = circ_row(B, g)
    return row[0] * B(h) == B(perm_circ(B, g, h, row))


def pairwise_identity(B, elements):
    """The defining identity of B by perm_check_pair on every pair of
    `elements`, in order, stopping at the first failure: (the failing pair
    or None, pairs checked).  The reference for layer 2 of
    transitive.verify_an_operator, which is rbop.verify on L's table."""
    pairs = 0
    for g in elements:
        for h in elements:
            pairs += 1
            if not perm_check_pair(B, g, h):
                return (g, h), pairs
    return None, pairs


def pairwise_opposite_product(B, S):
    """s o s' = s' s checked by perm_circ on every pair of S.elements, in
    order, stopping at the first failure: (the failing pair or None, pairs
    checked).  The reference for the S x S check of
    transitive.descendent_structure, which tests s B(s) against the
    generators of S."""
    pairs = 0
    for s1 in S.elements:
        row = circ_row(B, s1)
        for s2 in S.elements:
            pairs += 1
            if perm_circ(B, s1, s2, row) != s2 * s1:
                return (s1, s2), pairs
    return None, pairs


def perm_descendent_loops(B, k_samples, twist_samples, seed):
    """The K loop and the twist loop of transitive.descendent_structure by
    Perm products, drawing from one random.Random(seed) as it does, with
    digit_sampler for the K-elements and circ_row kept for each l once
    drawn: ("k", i) or ("twist", i) for the first failing sample i, or
    None when both loops pass."""
    st = B.structural
    L, r, sset = st["im"], st["r"], set(st["ker_tilde"].elements)
    n = B.group.degree
    rng = random.Random(seed)
    random_k = digit_sampler(n, [i for i in range(n) if i not in st["distinguished"]])
    for i in range(k_samples):
        h1, h2 = random_k(rng), random_k(rng)
        if perm_circ(B, h1, h2) != h1 * h2:
            return "k", i
    rows = {}
    for i in range(twist_samples):
        l = rng.choice(L.elements)
        h = random_k(rng)
        h_tw = h if l in sset else r * h * r
        if l not in rows:
            rows[l] = circ_row(B, l)
        if perm_circ(B, l, h, rows[l]) != perm_circ(B, h_tw, l):
            return "twist", i
    return None


def lemma3_shape(B) -> bool:
    """Whether B (or its companion) factors as G = ker(B)*Im(B) exactly
    with the companion restricting to a homomorphism onto R on Im(B),
    tested by hand on images(B), with the roles of B and B~ swapped for
    the companion.  G = ker*Im is exact iff |ker| |Im| = |G| and ker meets
    Im in e alone.  The reference for build.reconstruct, which holds
    exactly where this does."""
    data = images(B)
    for Ct, ker, im in ((tilde(B), data.ker, data.im), (B, data.ker_tilde, data.im_tilde)):
        if not data.R.is_abelian():
            continue
        exact = ker.order() * im.order() == B.group.order()
        if not (exact and len(set(ker.elements) & set(im.elements)) == 1):
            continue
        rset = set(data.R.elements)
        if all(Ct(y) in rset for y in im.elements) and homomorphism_failure(Ct, im) is None:
            return True
    return False


def per_operator_report(G, ops):
    """(total, splitting, non_splitting, conformance) of the classify
    report on G, computed operator by operator: is_splitting on every
    operator, and the iso_label and order of R and lemma3_shape on every
    non-splitting one.  The reference for classify, which reads these
    off one representative per equivalence class."""
    nonsplit = [B for B in ops if not is_splitting(B)]
    conformance = {}
    m = re.match(r"D(\d+)$", G.label or "")
    if m and int(m.group(1)) // 2 % 2:
        conformance["dihedral-odd-no-nonsplitting"] = not nonsplit
    elif m:
        conformance["dihedral-even-R-small"] = all(
            iso_label(images(B).R) in ("Z2", "Z2xZ2") for B in nonsplit
        )
        conformance["dihedral-even-shape"] = all(lemma3_shape(B) for B in nonsplit)
    m = re.match(r"Q(\d+)$", G.label or "")
    if m and int(m.group(1)) // 4 % 2:
        conformance["quaternion-odd-R-order-2"] = all(
            images(B).R.order() == 2 for B in nonsplit
        )
    return len(ops), len(ops) - len(nonsplit), len(nonsplit), conformance


def oracle_enumerate(G):
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
    results = []

    def propagate(assign):
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

    def search(assign):
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
    ops.sort(key=lambda B: sorted(graph(B)))
    return ops


def index2_body(L, S, r):
    """The reference body of the index-2 twist: l -> l^-1 r^d(l) on L,
    with d(l) = 0 on S and 1 off S."""
    sset = set(S.elements)
    return {l: l.inverse() if l in sset else l.inverse() * r for l in L.elements}


def index2_construction(G, K, L, S, r):
    """The index-2 twist B(k l) = l^-1 r^d(l) as a table operator:
    build.construction over G = K L with phi(l) = r^d(l) onto
    R = <r>, which is {e, r} for an involution r."""
    phi = {l: G.identity if l in S else r for l in L.elements}
    R = G.subgroup([r])
    return construction(exact_factorization(G, K, L), phi.__getitem__, R)


def dict_homomorphism(G, gens, images, H):
    """gens -> images extended to a homomorphism G -> H as a dict on
    elements, or None on conflict, by closing the partial map under
    products: two Perm products per Cayley edge."""
    mapping = {G.identity: H.identity}
    frontier = [G.identity]
    pairs = list(zip(gens, images))
    while frontier:
        new = []
        for x in frontier:
            fx = mapping[x]
            for g, fg in pairs:
                y, fy = x * g, fx * fg
                old = mapping.get(y)
                if old is None:
                    mapping[y] = fy
                    new.append(y)
                elif old != fy:
                    return None
        frontier = new
    return mapping


def dict_isomorphisms(G, H):
    """Every isomorphism G -> H as a dict on elements: the images of
    small_generating_tuple(G) range over the elements of H of the same
    orders (Perm.order per element), each extended by dict_homomorphism."""
    gens = small_generating_tuple(G)
    candidates = [[h for h in H.elements if h.order() == g.order()] for g in gens]
    for images in itertools.product(*candidates):
        mapping = dict_homomorphism(G, gens, images, H)
        if mapping is not None and len(mapping) == G.order() == len(set(mapping.values())):
            yield mapping


def dict_automorphism_tables(G):
    """Aut(G) as the set of element-index tables of dict_isomorphisms(G, G)."""
    return {tuple(G.index(m[e]) for e in G.elements) for m in dict_isomorphisms(G, G)}


def dict_is_isomorphic(G, H):
    """Equal orders and sorted element orders, then dict_isomorphisms."""
    if G.order() != H.order():
        return False
    if sorted(g.order() for g in G.elements) != sorted(h.order() for h in H.elements):
        return False
    return next(dict_isomorphisms(G, H), None) is not None
