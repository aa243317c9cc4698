"""Seeded, stdlib-only instance generators for the benchmark.

Every generator takes the workload seed and returns plain data, so the same
seed always gives the same instances.  Seed 0 means "canonical" wherever a
canonical form exists: ``relabel`` returns the graph unchanged and
``grid_sample`` returns an evenly spaced stride through each family.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def rng_for(seed: int, tag: str) -> random.Random:
    """Independent stream per (seed, purpose); string seeds hash stably."""
    return random.Random(f"{seed}:{tag}")


@dataclass(frozen=True)
class GridItem:
    """One instance of the constructor soundness grid, not yet built.

    ``ctor`` and ``args``/``kwargs`` name the constructor call; ``family``
    and ``params`` give the FamilySpec of the graph that call builds.
    """

    group: str
    ctor: str
    args: tuple
    kwargs: tuple
    family: str
    params: tuple


def grid_items() -> dict[str, list[GridItem]]:
    """The criterion-1 constructor grid (22,200 instances), by family group.

    Same families and ranges as ``grid_instances`` in the acceptance tests.
    """
    groups: dict[str, list[GridItem]] = {}

    def add(group, ctor, args, family, params, kwargs=()):
        groups.setdefault(group, []).append(
            GridItem(group, ctor, args, kwargs, family, params)
        )

    for n in range(3, 201):
        add("helm", "helm", (n,), "helm", (("n", n),))
    for n in range(4, 201):
        for k in range(3, n):
            add("cycle_chord", "cycle_with_chord", (n, k), "cycle_chord", (("n", n), ("k", k)))
    for k in range(3, 13):
        for n in range(2, 13):
            add("snake", "snake", (k, n), "snake", (("k", k), ("n", n)))
    for k in range(3, 12):
        for n in range(3, 12):
            add("book", "book", (k, n), "book", (("k", k), ("n", n)))
    for n in range(4, 61):
        add("complete", "complete", (n,), "complete", (("n", n),))
    for n in range(4, 41):
        add("windmill_pair", "windmill", (n, 2), "windmill", (("n", n), ("m", 2)),
            (("scheme", "pair"),))
    for n in (4, 5, 6):
        for m in range(2, 41):
            add("windmill_fixed", "windmill", (n, m), "windmill", (("n", n), ("m", m)))
    for n in range(3, 301):
        add("prism", "prism", (n,), "prism", (("n", n),))
    for n in range(2, 201):
        add("stacked_rect_prism", "stacked_rect_prism", (n,), "stacked_prism",
            (("m", 4), ("n", n)))
    for m in range(1, 41):
        for n in range(1, 41):
            add("bistar", "bistar", (m, n), "bistar", (("m", m), ("n", n)))
    return groups


def grid_sample(seed: int, count: int) -> list[GridItem]:
    """About ``count`` grid instances with the grid's family mix preserved.

    Each family contributes in proportion to its share of the full grid (at
    least one instance).  Seed 0 takes an evenly spaced stride through each
    family; other seeds sample without replacement.  The result is shuffled
    so families interleave.
    """
    groups = grid_items()
    total = sum(len(items) for items in groups.values())
    rng = rng_for(seed, "grid")
    out: list[GridItem] = []
    for items in groups.values():
        want = max(1, round(count * len(items) / total))
        if seed == 0:
            step = len(items) / want
            out += [items[int(i * step)] for i in range(want)]
        else:
            out += rng.sample(items, want)
    rng.shuffle(out)
    return out


def prufer_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Edges of a uniformly random labelled tree on ``n >= 2`` vertices."""
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [w for w in range(n) if degree[w] == 1]
    edges.append((u, v))
    return edges


def relabel(tp, g, seed: int, tag: str):
    """Isomorphic copy of ``g`` with its vertices renamed by a permutation
    drawn for (seed, tag).  Roles are dropped: searches do not read them.
    Seed 0 returns ``g`` itself.
    """
    if seed == 0:
        return g
    perm = list(range(g.n))
    rng_for(seed, tag).shuffle(perm)
    return tp.make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
