"""Acceptance suite: one test per criterion, one live pass/fail line each.

Runtime budgets from the build contract are asserted alongside the
mathematical content; expensive artifacts are shared via cached helpers.
"""

import functools
import pathlib
import time

import pytest

from invariants import check_invariants, check_invariants_sampled
from oracles import oracle_enumerate
from rbgroups import build, classify, families, rbop, transitive
from rbgroups.labels import iso_label
from rbgroups.perm import Perm
from rbgroups.rbop import descendent_group, images, is_splitting, kernel_invariant, tilde, verify

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@functools.lru_cache(maxsize=None)
def group(spec):
    return families.parse_group_spec(spec).group


@functools.lru_cache(maxsize=None)
def enumerated(spec):
    return tuple(classify.enumerate_rb(group(spec)))


@functools.lru_cache(maxsize=None)
def a9_operator():
    return transitive.build_an_operator(9)


def test_criterion_01_s3_classification(emit):
    start = time.time()
    ops = enumerated("S:3")
    ok = all(is_splitting(B) for B in ops)
    example = build.catalog_operator("s3")
    ok &= example.table in {B.table for B in ops}
    ok &= descendent_group(example)[1] == "Z6"
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    emit(1, ok, f"S3: {len(ops)} operators, all splitting, example descendent Z6 ({elapsed:.2f}s)")


def test_criterion_02_a4_classification(emit):
    start = time.time()
    G = group("A:4")
    ops = enumerated("A:4")
    classes = classify.equivalence_classes(G, list(ops))
    trivial_keys = {rbop.trivial_e(G).table, rbop.trivial_inv(G).table}
    nontrivial = [c for c in classes if not trivial_keys & {B.table for B in c}]
    ok = len(nontrivial) == 2
    detail = f"{len(nontrivial)} nontrivial classes"
    split = [c for c in nontrivial if is_splitting(c[0])]
    nonsplit = [c for c in nontrivial if not is_splitting(c[0])]
    ok &= len(split) == 1 and len(nonsplit) == 1
    if split:
        keys = {B.table for B in split[0]}
        ok &= build.catalog_operator("a4_b1").table in keys
        detail += "; splitting class carries the <(234)>.V4 factorization"
    if nonsplit:
        r_label = iso_label(images(nonsplit[0][0]).R)
        desc_label = descendent_group(nonsplit[0][0])[1]
        ok &= r_label == "Z3"
        ok &= desc_label == "Z6xZ2"
        detail += f"; non-splitting R={r_label} descendent={desc_label} (required Z6xZ2)"
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    emit(2, ok, detail + f" ({elapsed:.1f}s)")


def test_criterion_03_dihedral_odd(emit):
    start = time.time()
    counts = {}
    for n in (3, 5, 7, 9):
        report = classify.classify(group(f"D:{2 * n}"))
        counts[2 * n] = report.non_splitting
    ok = all(v == 0 for v in counts.values())
    elapsed = time.time() - start
    ok &= elapsed < 120.0
    emit(3, ok, f"D6/D10/D14/D18 non-splitting counts {counts} ({elapsed:.1f}s)")


# operator counts are regression baselines derived from this implementation
DIHEDRAL_EVEN_BASELINE = {4: (16, 8), 8: (56, 38), 12: (80, 44), 16: (136, 102)}


def test_criterion_04_dihedral_even(emit):
    start = time.time()
    ok = True
    details = []
    for n in (2, 4, 6, 8):
        report = classify.classify(group(f"D:{2 * n}"))
        ok &= (report.total, report.non_splitting) == DIHEDRAL_EVEN_BASELINE[2 * n]
        for cls in report.classes:
            if not cls.splitting:
                ok &= cls.r_label in ("Z2", "Z2xZ2")
        ok &= all(report.conformance.values())
        details.append(f"D{2 * n}:{report.total}/{report.non_splitting}")
    elapsed = time.time() - start
    ok &= elapsed < 600.0
    emit(4, ok, f"total/non-splitting {' '.join(details)}, R in {{Z2, Z2xZ2}}, shape conformant ({elapsed:.1f}s)")


def test_criterion_05_quaternion(emit):
    start = time.time()
    ok = True
    counts = {}
    for spec in ("Q:12", "Q:20"):
        ops = enumerated(spec)
        nonsplit = [B for B in ops if not is_splitting(B)]
        counts[spec] = len(nonsplit)
        ok &= all(images(B).R.order() == 2 for B in nonsplit)
    q60 = build.catalog_operator("q60")
    ok &= verify(q60).ok
    elapsed = time.time() - start
    emit(5, ok, f"Q12/Q20 non-splitting all |R|=2 {counts}; Q60 example fully verified ({elapsed:.1f}s)")


def test_criterion_06_d16_example(emit):
    start = time.time()
    B = build.catalog_operator("d16")
    G = B.group
    r = min(g for g in G.elements if g.order() == 8)
    Bt = tilde(B)
    r4 = r * r * r * r
    ok = B(Bt(r)) == r4 and Bt(B(r)).is_identity() and B(Bt(r)) != Bt(B(r))
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    emit(6, ok, f"D16: BB~(r) = r^4, B~B(r) = e, maps differ ({elapsed:.2f}s)")


def test_criterion_07_zassenhaus(emit):
    start = time.time()
    sg = transitive.sharply2(2, 3, 1)
    ok = sg.group.order() == 72
    ok &= len({g[:2] for g in sg.group.elements}) == 72  # sharply 2-transitive
    ok &= all(g.is_even() for g in sg.group.elements)
    ok &= iso_label(sg.n_part) == "Q8"
    big = transitive.sharply2(2, 7, 1)
    ok &= big.group.order() == 2352
    spectra = [sorted(g.order() for g in S.elements) for S in (big.s1, big.s2)]
    ok &= spectra[0] != spectra[1]
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    emit(7, ok, f"L(2,3,1) order 72 in A9 with N=Q8; L(2,7,1) order 2352, S1 != S2 by spectra ({elapsed:.1f}s)")


def test_criterion_08_a9_operator(emit):
    start = time.time()
    B = a9_operator()
    v = transitive.verify_an_operator(B, sample_count=100_000, seed=7)
    ok = v.ok
    st = B.structural
    ok &= st["ker"].order() == 2520 and iso_label(st["ker"]) == "A7"
    ok &= st["ker_tilde"].order() == 36
    ok &= iso_label(st["ker_tilde"]) == "(Z3xZ3):Z4"
    ok &= st["R"].order() == 2
    ok &= not rbop.is_splitting(B)
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    emit(8, ok, f"A9: exhaustive L pairs + 10^5 samples, ker=A7, ker~=(Z3xZ3):Z4 order 36, R=Z2, non-splitting ({elapsed:.1f}s)")


def test_criterion_09_a10_operator(emit):
    start = time.time()
    sg = transitive.sharply3(9)
    ok = sg.group.order() == 720
    ok &= len({g[7:] for g in sg.group.elements}) == 720  # sharply 3-transitive
    ok &= sg.psl.order() == 360
    ok &= all(g.is_even() for g in sg.group.generators)
    B = transitive.build_an_operator(10)
    v = transitive.verify_an_operator(B, sample_count=10_000, seed=7)
    ok &= v.ok
    elapsed = time.time() - start
    ok &= elapsed < 120.0
    emit(9, ok, f"M(9) order 720 over PSL2(9) in A10; A10 operator passes all layers ({elapsed:.1f}s)")


def test_criterion_10_a9_descendent(emit):
    start = time.time()
    rep = transitive.descendent_structure(a9_operator(), seed=7)
    ok = rep.ok
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    emit(10, ok, f"A9 descendent: S x S commutes (36^2 pairs), product on K unchanged (10^4 samples) ({elapsed:.1f}s)")


def test_criterion_11_admissibility(emit):
    start = time.time()
    expected = set()
    for line in (FIXTURES / "admissible_1000.txt").read_text().splitlines():
        expected.add(int(line.split()[0]))
    got = {n for n in range(5, 1001) if transitive.admissible(n).admissible}
    ok = got == expected
    ok &= {9, 10, 49, 50, 529, 530} <= got and not {25, 27} & got
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    emit(11, ok, f"admissible n <= 1000 matches brute-force fixture: {sorted(got)} ({elapsed:.2f}s)")


ORACLE_SPECS = (
    "Z:2", "Z:3", "Z:4", "V:4", "Z:5", "Z:6", "S:3", "Z:7", "Z:8",
    "Z4xZ2", "Z2^3", "D:8", "Q:8",
)


@functools.lru_cache(maxsize=None)
def oracle_group(spec):
    if spec == "V:4":
        return families.klein().group
    if spec == "Z4xZ2":
        gens = [
            Perm.from_cycles(6, [(0, 1, 2, 3)]),
            Perm.from_cycles(6, [(4, 5)]),
        ]
        return families.FiniteGroup.from_generators(gens, label="Z4xZ2")
    if spec == "Z2^3":
        gens = [Perm.from_cycles(6, [(2 * i, 2 * i + 1)]) for i in range(3)]
        return families.FiniteGroup.from_generators(gens, label="Z2^3")
    return group(spec)


def test_criterion_12_oracle_equivalence(emit):
    start = time.time()
    ok = True
    counts = []
    for spec in ORACLE_SPECS:
        G = oracle_group(spec)
        fast = {B.table for B in classify.enumerate_rb(G)}
        slow = {B.table for B in oracle_enumerate(G)}
        ok &= fast == slow
        counts.append(f"{spec}:{len(fast)}")
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    emit(12, ok, f"lattice = oracle on all 13 groups of order <= 8 ({' '.join(counts)}) ({elapsed:.1f}s)")


def test_criterion_13_property_suite(emit):
    start = time.time()
    population = []
    for spec in ORACLE_SPECS:
        population.extend(classify.enumerate_rb(oracle_group(spec)))
    for spec in ("A:4", "D:16", "Q:12"):
        population.extend(enumerated(spec))
    for name in build.catalog_names():
        population.append(build.catalog_operator(name.replace("d2n_klein(n)", "d2n_klein(4)")))
    for spec in ("S:4", "D:10", "Q:20"):
        G = group(spec)
        population.extend((rbop.trivial_e(G), rbop.trivial_inv(G)))
    failed = []
    for B in population:
        bad = [name for name, okay in check_invariants(B) if not okay]
        if bad:
            failed.append((B.provenance or "table", bad))
    bad9 = [name for name, okay in check_invariants_sampled(a9_operator()) if not okay]
    if bad9:
        failed.append(("a9", bad9))
    ok = not failed
    elapsed = time.time() - start
    emit(13, ok, f"ten properties on {len(population)} table operators + sampled A9: failures {failed or 'none'} ({elapsed:.1f}s)")
