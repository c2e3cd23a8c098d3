"""Reference job: a fixed amount of pure-Python work, the yardstick for the
machine's speed at the moment it runs.

It composes permutations stored as tuples and hashes them into a set and a
dict, the operations that dominate rbgroups, but it imports nothing from
rbgroups, so a change to the package never changes its time.  run.py runs it
between jobs and scales each job's time by how fast it ran nearby.
"""

import random

rng = random.Random(1)
perms = [tuple(rng.sample(range(24), 24)) for _ in range(200)]
index = {p: i for i, p in enumerate(perms)}
total = 0
for _ in range(6):
    seen = set()
    for a in perms:
        for b in perms[:60]:
            c = tuple(b[v] for v in a)
            seen.add(c)
            total += index.get(c, 0)
print(total, len(seen))
