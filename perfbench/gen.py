"""Seeded op lists for the three workloads.

Each op is the argv list of one `qwebs` command.  A block is named by its
shape (N, l) and its content: the multiset of nonzero entries of the weight.
The block size n (the number of semistandard tableaux of that type) depends
only on the content, so the content fixes the stratum; the seed picks which
orderings of the content are run, and in which order.

Orderings are taken with their zeros trailing.  Moving a zero to the front
of the weight lengthens every ladder and changed the cost of one (4,2) block
from 1.2 s to 11.7 s; with random zero positions the run total followed the
seed rather than the program.  Within one content the orderings are sampled
systematically (evenly spaced over the sorted orbit, random offset), so every
seed runs a spread of cheap and dear orderings and the totals stay close.
"""

from __future__ import annotations

import itertools
import random

# (N, l, content, ops per pass), cheapest first; n is the block size.  The
# median and the p90 op must not depend on the seed, so the classes at those
# ranks run their whole orbit (count = orbit size, marked "all"): every seed
# then has the same ops there, and the cheaper and dearer classes around
# them, whose orderings the seed picks, only shift ranks within them.
CARTAN_CLASSES = (
    (3, 2, (2, 2, 1, 1), 4),  # n=2
    (3, 3, (3, 2, 2, 1, 1), 4),  # n=2
    (2, 5, (2, 2, 2, 1, 1, 1, 1), 4),  # n=2
    (4, 2, (3, 3, 1, 1), 4),  # n=2
    (4, 2, (3, 2, 2, 1), 4),  # n=2
    (3, 2, (2, 1, 1, 1, 1), 5),  # n=3, all: the median
    (3, 3, (2, 2, 2, 2, 1), 5),  # n=3, all: the median
    (3, 3, (3, 2, 1, 1, 1, 1), 3),  # n=3
    (4, 2, (2, 2, 2, 2), 1),  # n=3, all
    (4, 2, (3, 2, 1, 1, 1), 3),  # n=3
    (2, 5, (2, 2, 1, 1, 1, 1, 1, 1), 3),  # n=5
    (3, 2, (1, 1, 1, 1, 1, 1), 1),  # n=5, all
    (3, 3, (3, 1, 1, 1, 1, 1, 1), 7),  # n=5, all: p90
    (4, 2, (3, 1, 1, 1, 1, 1), 6),  # n=4, all: p90
    (3, 3, (2, 2, 2, 1, 1, 1), 2),  # n=6
)

DUAL_CLASSES = (
    (4, 2, (3, 3, 1, 1), 2),  # n=2
    (4, 2, (3, 2, 2, 1), 2),  # n=2
    (3, 3, (3, 2, 2, 1, 1), 3),  # n=2
    (4, 2, (2, 2, 2, 2), 1),  # n=3, all
    (3, 3, (2, 2, 2, 2, 1), 3),  # n=3
    (2, 5, (2, 2, 2, 1, 1, 1, 1), 3),  # n=2
    (3, 3, (3, 2, 1, 1, 1, 1), 3),  # n=3
    (4, 2, (3, 2, 1, 1, 1), 2),  # n=3
    (3, 3, (2, 2, 2, 1, 1, 1), 3),  # n=6
    (4, 2, (2, 2, 2, 1, 1), 2),  # n=4
    (2, 5, (2, 2, 1, 1, 1, 1, 1, 1), 4),  # n=5: the median, orderings cost alike
    (3, 3, (3, 1, 1, 1, 1, 1, 1), 7),  # n=5, all: the median
    (4, 2, (3, 1, 1, 1, 1, 1), 4),  # n=4
    (3, 3, (2, 2, 1, 1, 1, 1, 1), 4),  # n=11
    (2, 5, (2, 1, 1, 1, 1, 1, 1, 1, 1), 9),  # n=14, all: p90
    (4, 2, (2, 2, 1, 1, 1, 1), 1),  # n=6
    (4, 2, (2, 1, 1, 1, 1, 1, 1), 1),  # n=9
    (4, 2, (1, 1, 1, 1, 1, 1, 1, 1), 1),  # n=14, all
)

WORKLOADS = ("cartan", "dual", "verify")


def orbit(N: int, l: int, content: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All weights of length N*l with this content, zeros trailing, sorted."""
    pad = (0,) * (N * l - len(content))
    return [p + pad for p in sorted(set(itertools.permutations(content)))]


def sample_orbit(weights: list, count: int, rng: random.Random) -> list:
    """`count` evenly spaced members from a random offset; all if too few."""
    if count >= len(weights):
        return list(weights)
    step = len(weights) / count
    offset = rng.random() * step
    return [weights[int(offset + i * step)] for i in range(count)]


def _weight_arg(k: tuple[int, ...]) -> str:
    return ",".join(map(str, k))


def op_list(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass of `workload`; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    ops: list[list[str]] = []
    if workload == "verify":
        return [["verify", "--all", "--seed", str(rng.randrange(1, 10**6)), "--format", "json"]]
    if workload == "cartan":
        for N, l, content, count in CARTAN_CLASSES:
            for k in sample_orbit(orbit(N, l, content), count, rng):
                ops.append(["cartan", "--N", str(N), "--k", _weight_arg(k)])
    elif workload == "dual":
        for N, l, content, count in DUAL_CLASSES:
            for k in sample_orbit(orbit(N, l, content), count, rng):
                ops.append(["dual-canonical", "--N", str(N), "--l", str(l),
                            "--type", _weight_arg(k)])
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(ops)
    return ops
