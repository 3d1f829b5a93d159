"""Shared fixture tables for the test suite.

Rank tables are bitmask-indexed: entry S is the rank of the subset with
characteristic mask S.
"""

import sys
from functools import lru_cache
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

P1 = [0, 2]                      # one element of rank 2
P2 = [0, 1, 2, 2]                # lift is U_{2,3}
P3 = [0, 2, 2, 3]                # lift is U_{3,4}
P4 = [0, 2, 2, 4]                # (0,2) + (0,2), rank 4
U34 = [min(bin(S).count("1"), 3) for S in range(16)]
U34_MIN_BUILDING = [1, 2, 4, 8, 15]          # singletons and the ground set
B111_MIN_BUILDING = [1, 2, 4, 7]

BOOLEAN_FIBERS = [(1, 1), (2,), (1, 2), (1, 1, 1), (2, 2), (1, 1, 2)]


def all_partitions_m6():
    """The fibre shapes with m <= 6: every partition of 1, ..., 6."""
    out = []
    for m in range(1, 7):
        def parts(remaining, maximum):
            if remaining == 0:
                yield ()
                return
            for first in range(min(remaining, maximum), 0, -1):
                for rest in parts(remaining - first, first):
                    yield (first,) + rest
        out.extend(parts(m, m))
    return out


def building_of(table, members=None):
    """The building set with the given members of the polymatroid with the
    given rank table; its maximal building set when members is None."""
    import polychow as pc
    P = pc.Polymatroid(table)
    return pc.maximal_building_set(P) if members is None else pc.BuildingSet(P, members)


def boolean_table(fibers):
    import polychow as pc
    return list(pc.boolean_polymatroid(pc.ProjectionMap(fibers)).rank_table)


@lru_cache(maxsize=None)
def small_family():
    """All loopless polymatroids with n <= 3, singleton ranks <= 2, total
    rank <= 4, so the lift has at most 6 elements (the family of criteria
    1 and 2)."""
    import polychow as pc
    out = []
    for n in (1, 2, 3):
        singles = [1 << i for i in range(n)]
        masks = sorted(range(1, 1 << n), key=lambda S: (bin(S).count("1"), S))
        ranges = []
        for S in masks:
            if S in singles:
                ranges.append(range(1, 3))
            else:
                ranges.append(range(0, 5))
        for values in product(*ranges):
            table = [0] * (1 << n)
            for S, v in zip(masks, values):
                table[S] = v
            if table[-1] > 4:
                continue
            try:
                P = pc.Polymatroid(table)
            except pc.PolymatroidError:
                continue
            if sum(P.rank(1 << i) for i in range(n)) <= 6:
                out.append(P)
    return tuple(out)
