"""Microbenchmark of the permutation kernel: product, inverse and hash.

    python3 perfbench/kernel.py --degree N --seed S

Prints one JSON object: ns per operation for each kernel and the number of
results that disagree with a plain-tuple reference (a broken kernel is a
failure, not a speed-up).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from rbgroups.perm import Perm  # noqa: E402

POOL = 256      # distinct permutations per run
ROUNDS = 40     # passes over the pool per repeat
REPEATS = 9     # timed repeats; the median is reported
WARMUP_S = 0.5  # the first repeats run slow until the interpreter and CPU settle


def _ref_mul(p, q) -> tuple:
    return tuple(q[v] for v in p)


def _ref_inverse(p) -> tuple:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _time_ns(fn, ops: int) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - t0) / ops)
    return statistics.median(samples)


def run(degree: int, seed: int) -> dict:
    rng = random.Random(seed)
    raw = [rng.sample(range(degree), degree) for _ in range(POOL)]
    perms = [Perm(r) for r in raw]
    pairs = list(zip(perms, perms[1:] + perms[:1]))
    raw_pairs = list(zip(raw, raw[1:] + raw[:1]))

    mismatches = 0
    for (p, q), (rp, rq) in zip(pairs, raw_pairs):
        mismatches += tuple(p * q) != _ref_mul(rp, rq)
    for p, rp in zip(perms, raw):
        mismatches += tuple(p.inverse()) != _ref_inverse(rp)
    # hashing must agree with equality: a rebuilt copy is found in a set
    members = set(perms)
    for rp in raw:
        mismatches += Perm(tuple(rp)) not in members

    def mul():
        for _ in range(ROUNDS):
            for p, q in pairs:
                p * q

    def inverse():
        for _ in range(ROUNDS):
            for p in perms:
                p.inverse()

    def hash_():
        for _ in range(ROUNDS):
            for p in perms:
                hash(p)

    t_end = time.perf_counter() + WARMUP_S
    while time.perf_counter() < t_end:
        mul()
        inverse()
        hash_()
    ops = ROUNDS * POOL
    return {
        "degree": degree,
        "mul_ns": _time_ns(mul, ops),
        "inverse_ns": _time_ns(inverse, ops),
        "hash_ns": _time_ns(hash_, ops),
        "checked": 3 * POOL,
        "mismatches": mismatches,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--degree", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    print(json.dumps(run(args.degree, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
