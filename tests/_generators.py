"""Seeded random instances for the tests.

Everything takes an explicit random.Random so runs are reproducible from
a seed alone; nothing here touches global RNG state.
"""

from __future__ import annotations

import random
from typing import List

import numpy as np

from staged_orders.family import removals_from_horizon
from staged_orders.kernel import Snapshot, apply_permutation, close_matrix


def random_permutation(rng: random.Random, n: int) -> List[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_linear_order(rng: random.Random, n: int) -> Snapshot:
    rank = random_permutation(rng, n)
    matrix = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            matrix[i, j] = rank[i] <= rank[j]
    return Snapshot(n, 0, matrix)


def random_poset(rng: random.Random, n: int, p: float = 0.3) -> Snapshot:
    """Closed random DAG, relabeled so element ids carry no height hints."""
    matrix = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                matrix[i, j] = True
    close_matrix(matrix)
    return apply_permutation(Snapshot(n, 0, matrix), random_permutation(rng, n))


def random_total_preorder(rng: random.Random, n: int, max_classes: int) -> Snapshot:
    k = max(1, min(max_classes, n)) if n else 1
    level = [rng.randrange(k) for _ in range(n)]
    matrix = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            matrix[i, j] = level[i] <= level[j]
    return Snapshot(n, 0, matrix)


def random_preorder(rng: random.Random, n: int, p: float = 0.3) -> Snapshot:
    matrix = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                matrix[i, j] = True
    close_matrix(matrix)
    return Snapshot(n, 0, matrix)


def random_coce_preorder_config(
    rng: random.Random, n: int, p: float = 0.4, horizon: int = 8
) -> dict:
    base = random_preorder(rng, n, p)
    limit_pairs = [[i, j] for i, j in sorted(base.pairs) if i != j]
    return {
        "n": n,
        "limit_pairs": limit_pairs,
        "removals": removals_from_horizon(rng, n, limit_pairs, horizon),
    }


def random_sigma2_config(rng: random.Random, index_count: int) -> dict:
    """Index mix sized so runs settle quickly: small witnesses, early
    defeats, per-witness defeat stages that grow at most linearly."""
    entries = []
    for i in range(index_count):
        if rng.random() < 0.5:
            witness = rng.randrange(0, 4)
            entries.append(
                {
                    "i": i,
                    "member": True,
                    "witness": witness,
                    "defeats": [rng.randrange(0, 12) for _ in range(witness)],
                }
            )
        else:
            entries.append(
                {
                    "i": i,
                    "member": False,
                    "defeat_rule": {
                        "offset": rng.randrange(0, 6),
                        "step": rng.choice([0, 1]),
                    },
                }
            )
    return {"indices": entries}


def random_schedule_config(
    rng: random.Random, n: int, max_entries: int, stages: int
) -> dict:
    count = rng.randrange(0, max_entries + 1)
    elements = rng.sample(range(n), k=min(count, n)) if n else []
    entries = sorted([e, rng.randrange(0, stages + 1)] for e in elements)
    return {"entries": entries, "n": n, "stages": stages}


def random_limit_graph_config(
    rng: random.Random,
    n: int,
    p_edge: float = 0.5,
    p_flip: float = 0.5,
    max_flips: int = 3,
) -> dict:
    edges = []
    flips = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                edges.append([i, j])
            if rng.random() < p_flip:
                count = rng.randrange(1, max_flips + 1)
                flips[f"{i},{j}"] = sorted(rng.sample(range(1, 4), k=min(count, 3)))
    return {"n": n, "edges": edges, "flips": flips}
