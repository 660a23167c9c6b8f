"""Workload definitions for the midsolve benchmark.

Every solve workload draws its instances from frozen pools.  A pool is a
fixed list of generator seeds for one instance family; ``expected.json``
holds, for every pool member, the result the solver gave when the pool was
frozen.  The run's ``--seed`` picks one instance from each stratum of a pool
sorted by its frozen node count, and by the frozen count of Python function
calls where nodes tie, then shuffles the picks.  Where a workload picks
fewer instances than its pool holds, different seeds thus solve different
instances while the total work of a pass stays close to the same; every
picked instance has a frozen answer to check against.

The weight-optimize workload has a single input, the packaged recurrence
catalog; its seed permutes the catalog records.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: search-marked fails loudly when the drawn instances keep a smaller share
#: of marked vertices than this (mark_random unmarks vertices that would
#: break the input contract, so the share asked for is not the share kept).
MARKED_SHARE_FLOOR = 0.05

#: Bound on the optimized weights' worst-case factor (acceptance criterion 3).
OPTIMIZED_FACTOR_MAX = 1.3569


@dataclass(frozen=True)
class Family:
    """A seeded instance generator and the seeds frozen for it."""

    name: str
    build: Callable  # (modules, generator seed) -> MarkedGraph
    pool: tuple

    def instance_id(self, gen_seed: int) -> str:
        return f"{self.name}/{gen_seed}"


@dataclass(frozen=True)
class Draw:
    """``picks`` instances of a family, one per stratum of its pool;
    ``feasible`` restricts the pool to frozen feasible or infeasible ones."""

    family: Family
    picks: int
    feasible: Optional[bool] = None


def clique_union(mods, k: int, marked: int, seed: int):
    """Marked graph whose free part is k disjoint 3- or 4-cliques.

    Each marked vertex gets 3 or 4 free neighbors, one in each of as many
    distinct cliques, so the solver goes straight to the CSP endgame.
    """
    rng = random.Random(seed)
    edges = []
    cliques = []
    v = 1
    for _ in range(k):
        size = 3 + int(rng.random() * 2)
        clique = list(range(v, v + size))
        v += size
        cliques.append(clique)
        edges += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
    free = range(1, v)
    marks = []
    for _ in range(marked):
        touched = _sample(rng, k, 3 + int(rng.random() * 2))
        for c in touched:
            clique = cliques[c]
            edges.append((clique[int(rng.random() * len(clique))], v))
        marks.append(v)
        v += 1
    return mods.graph.MarkedGraph(free, marks, edges)


def _sample(rng: random.Random, n: int, r: int) -> list:
    """r distinct integers from range(n), using only rng.random()."""
    items = list(range(n))
    for i in range(r):
        j = i + int(rng.random() * (n - i))
        items[i], items[j] = items[j], items[i]
    return items[:r]


def _shuffle(rng: random.Random, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]


PLAIN_40 = Family(
    "plain-n40-p0.2",
    lambda m, s: m.instances.gen_random(40, 0.2, s),
    tuple(range(24)))
LOWER_BOUND_16 = Family(
    "lower-bound-l16",
    lambda m, s: m.instances.gen_lower_bound(16),
    (0,))
MARKED_40 = Family(
    "marked-n40-p0.15-f0.2",
    lambda m, s: m.instances.mark_random(m.instances.gen_random(40, 0.15, s), 0.2, s),
    tuple(range(40)))
CLIQUES_12 = Family(
    "cliques-k12-m36",
    lambda m, s: clique_union(m, 12, 36, s),
    tuple(range(24)))

FAMILIES = (PLAIN_40, LOWER_BOUND_16, MARKED_40, CLIQUES_12)

SOLVE_WORKLOADS = {
    "search-plain": (Draw(PLAIN_40, 8), Draw(LOWER_BOUND_16, 1)),
    "search-marked": (Draw(MARKED_40, len(MARKED_40.pool)),),
    "clique-endgame": (Draw(CLIQUES_12, 4, feasible=True),
                       Draw(CLIQUES_12, 8, feasible=False)),
}
WEIGHT_OPTIMIZE = "weight-optimize"
WORKLOADS = (*SOLVE_WORKLOADS, WEIGHT_OPTIMIZE)


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def select(draws, seed: int, expected: dict) -> list:
    """Seeded (family, generator seed) picks for one pass, in run order."""
    rng = random.Random(seed)
    chosen = []
    for d in draws:
        frozen = expected["instances"]
        pool = [s for s in d.family.pool
                if d.feasible is None
                or (frozen[d.family.instance_id(s)]["size"] is not None) == d.feasible]
        pool.sort(key=lambda s: (frozen[d.family.instance_id(s)]["nodes"],
                                 frozen[d.family.instance_id(s)]["calls"], s))
        for i in range(d.picks):
            stratum = pool[i * len(pool) // d.picks:(i + 1) * len(pool) // d.picks]
            chosen.append((d.family, stratum[int(rng.random() * len(stratum))]))
    _shuffle(rng, chosen)
    return chosen


class CountingCatalog(list):
    """Recurrence catalog that counts full passes over it.

    ``audit_weights`` iterates the catalog once per weight vector it
    audits, so the count is the number of weight vectors the optimizer's
    grid search evaluates: its search nodes.
    """

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def permuted_catalog(mods, seed: int) -> CountingCatalog:
    records = mods.analysis.recurrence_catalog()
    _shuffle(random.Random(seed), records)
    return CountingCatalog(records)
