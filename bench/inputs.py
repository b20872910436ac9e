"""Seeded inputs for the benchmark workloads.

Every input the program receives is made here, from the workload seed,
with the benchmark's own code: nothing calls the program's generators,
so two commits are measured on identical files. Sizes and shapes are
fixed per workload; the seed only draws the contents. That keeps the
cost of a pass nearly the same from seed to seed, so the spread between
seeds measures the program and not the luck of the draw.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Tuple

import numpy as np

# Copy of the family config shipped in src/staged_orders/configs/family.json,
# kept here so that editing the shipped file cannot change the benchmark.
FAMILY_CONFIG = {
    "construction": "family",
    "limit_pairs": [[0, 1], [0, 2], [1, 2], [2, 1], [3, 4]],
    "n": 6,
    "removals": [
        [0, 3, 10], [0, 4, 1], [0, 5, 0], [1, 0, 11], [1, 3, 4], [1, 4, 3],
        [1, 5, 3], [2, 0, 2], [2, 3, 11], [2, 4, 1], [2, 5, 10], [3, 0, 11],
        [3, 1, 8], [3, 2, 1], [3, 5, 9], [4, 0, 6], [4, 1, 0], [4, 2, 0],
        [4, 3, 1], [4, 5, 3], [5, 0, 3], [5, 1, 8], [5, 2, 9], [5, 3, 0],
        [5, 4, 8],
    ],
    "stages": 16,
}


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def jump_config(rng: random.Random, construction: str, n: int, entries: int) -> dict:
    """Enumeration schedule whose entry windows stay short.

    Element e enters at stage e + w with w drawn from [4, 16], so each
    entry touches at most w(w-1)/2 pairs. The number of live pairs per
    stage then hardly depends on the seed, and neither does the cost.
    """
    elements = sorted(rng.sample(range(n - 17), entries))
    pairs = [[e, e + rng.randint(4, 16)] for e in elements]
    return {"construction": construction, "entries": pairs, "n": n, "stages": n}


def sigma2_config(rng: random.Random, index_count: int) -> dict:
    """Half members, half nonmembers, in seeded positions; the first
    nonmember marches through every witness so the stage count is set by
    the window, not by the draw."""
    member_flags = [i < index_count // 2 for i in range(index_count)]
    rng.shuffle(member_flags)
    entries = []
    first_nonmember = True
    for i, member in enumerate(member_flags):
        if member:
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
            step = 1 if first_nonmember else rng.choice([0, 1])
            first_nonmember = False
            entries.append(
                {
                    "i": i,
                    "member": False,
                    "defeat_rule": {"offset": rng.randrange(0, 6), "step": step},
                }
            )
    return {"construction": "sigma2", "indices": entries}


def limit_graph(
    rng: random.Random, vertices: int, p_edge: float = 0.5, p_flip: float = 0.5
) -> Tuple[List[List[int]], Dict[str, List[int]]]:
    edges = []
    flips = {}
    for i in range(vertices):
        for j in range(i + 1, vertices):
            if rng.random() < p_edge:
                edges.append([i, j])
            if rng.random() < p_flip:
                flips[f"{i},{j}"] = sorted(rng.sample(range(1, 4), rng.randint(1, 3)))
    return edges, flips


def spectrum_domain(vertices: int, max_flips: int = 3) -> int:
    """Least domain that fits every graph on `vertices` vertices whose
    pairs flip at stages up to `max_flips`: the last gadget rung of the
    last pair. A fixed domain fixes the stage count too, so the cost of a
    build does not depend on which pairs the seed made flip."""
    last_pair = vertices * (vertices - 1) // 2 - 1
    w = last_pair + max_flips
    return 4 + 2 * (w * (w + 1) // 2 + max_flips) + 2


def spectrum_config(construction: str, vertices: int, edges, flips) -> dict:
    return {"construction": construction, "n": vertices, "edges": edges, "flips": flips,
            "domain_bound": spectrum_domain(vertices)}


def close(matrix: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure by repeated squaring with an exact
    float product (counts stay far below 2**24 at these sizes)."""
    m = matrix | np.eye(matrix.shape[0], dtype=bool)
    while True:
        f = m.astype(np.float32)
        nxt = (f @ f) > 0
        if np.array_equal(nxt, m):
            return m
        m = nxt


def relabel(matrix: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """New relation holds at (perm[i], perm[j]) iff old at (i, j)."""
    out = np.zeros_like(matrix)
    out[np.ix_(perm, perm)] = matrix
    return out


def random_poset(gen: np.random.Generator, n: int, p: float) -> np.ndarray:
    upper = np.triu(gen.random((n, n)) < p, k=1)
    return relabel(close(upper), gen.permutation(n))


def random_linear_order(gen: np.random.Generator, n: int) -> np.ndarray:
    rank = gen.permutation(n)
    return rank[:, None] <= rank[None, :]


def random_total_preorder(gen: np.random.Generator, n: int, classes: int) -> np.ndarray:
    """Exactly `classes` levels of equal size, shuffled over the domain."""
    level = gen.permutation(np.arange(n) % classes)
    return level[:, None] <= level[None, :]


def snapshot_obj(matrix: np.ndarray, kind: str = "ce") -> dict:
    strict = matrix.copy()
    np.fill_diagonal(strict, False)
    return {
        "domain_size": int(matrix.shape[0]),
        "kind": kind,
        "pairs": np.argwhere(strict).tolist(),
        "stage": 0,
    }
