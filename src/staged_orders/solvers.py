"""Finite-scale chain/antichain and ascending/descending extraction.

solve_ads works on total orders, solve_cac on arbitrary partial orders,
and solve_ads_preorder on total preorders via the condensation quotient.
Outputs always validate against the input relation; the sqrt(n) size
floors come with the algorithms (Erdos-Szekeres for sequences, height
layering for chains/antichains).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .kernel import (
    Record,
    Snapshot,
    StagedOrderError,
    _first_pair,
    _strict,
    check_partial_order,
    check_preorder,
)


class NotTotal(StagedOrderError):
    def __init__(self, i: int, j: int):
        super().__init__(f"not a total order: {i} and {j} are incomparable")
        self.i = i
        self.j = j


class NotPartialOrder(StagedOrderError):
    pass


class NotTotalPreorder(StagedOrderError):
    pass


class AdsSolution(NamedTuple):
    direction: str  # "ascending" | "descending"
    elements: Tuple[int, ...]


class CacSolution(NamedTuple):
    kind: str  # "chain" | "antichain"
    elements: Tuple[int, ...]


def ceil_sqrt(n: int) -> int:
    if n <= 0:
        return 0
    return math.isqrt(n - 1) + 1


def _require_partial_order(snapshot: Snapshot) -> None:
    report = check_partial_order(snapshot)
    if not report.passed:
        raise NotPartialOrder(f"input is not a partial order: {report}")


def _incomparable_witness(matrix: np.ndarray) -> Optional[Tuple[int, int]]:
    return _first_pair(np.triu(~(matrix | matrix.T), 1))


def _longest_monotone(values: Sequence[int]) -> List[int]:
    # patience sorting; returns positions of one longest strictly
    # increasing subsequence of the (distinct) values
    tails: List[int] = []  # value of the best tail per length
    tail_pos: List[int] = []
    prev = [-1] * len(values)
    for pos, v in enumerate(values):
        k = bisect_left(tails, v)
        if k == len(tails):
            tails.append(v)
            tail_pos.append(pos)
        else:
            tails[k] = v
            tail_pos[k] = pos
        prev[pos] = tail_pos[k - 1] if k > 0 else -1
    out: List[int] = []
    cur = tail_pos[-1] if tail_pos else -1
    while cur != -1:
        out.append(cur)
        cur = prev[cur]
    out.reverse()
    return out


def _ranks(matrix: np.ndarray) -> List[int]:
    return [int(x) for x in matrix.sum(axis=0)]


def solve_ads(lin: Snapshot) -> AdsSolution:
    """Longest ascending or descending subset of a total order.

    The order is ranked (rank i = size of i's downset), and the longer of
    the longest increasing/decreasing subsequences of the rank permutation
    is returned as positions; ties go to ascending.
    """
    _require_partial_order(lin)
    witness = _incomparable_witness(lin.matrix)
    if witness is not None:
        raise NotTotal(*witness)
    ranks = _ranks(lin.matrix)
    asc = _longest_monotone(ranks)
    desc = _longest_monotone([-r for r in ranks])
    if len(asc) >= len(desc):
        return AdsSolution("ascending", tuple(asc))
    return AdsSolution("descending", tuple(desc))


def _heights(strict: np.ndarray) -> List[int]:
    """Height of each element (1 for minimal ones) in a strict order."""
    h = [1] * strict.shape[0]
    for x in np.argsort(strict.sum(axis=0), kind="stable").tolist():
        below = np.nonzero(strict[:, x])[0]
        if below.size:
            h[x] = 1 + max(h[int(y)] for y in below)
    return h


def _chain(strict: np.ndarray, h: List[int]) -> Tuple[int, ...]:
    """Down from the least highest element, one height at a time."""
    top = min(x for x in range(len(h)) if h[x] == max(h))
    chain = [top]
    while h[chain[-1]] > 1:
        want = h[chain[-1]] - 1
        below = np.nonzero(strict[:, chain[-1]])[0]
        chain.append(min(int(y) for y in below if h[int(y)] == want))
    return tuple(reversed(chain))


def longest_chain(snapshot: Snapshot) -> Tuple[int, ...]:
    """One longest chain of a partial order, listed bottom to top."""
    _require_partial_order(snapshot)
    if snapshot.domain_size == 0:
        return ()
    strict = _strict(snapshot.matrix)
    return _chain(strict, _heights(strict))


def solve_cac(snapshot: Snapshot) -> CacSolution:
    """A chain of maximum length if that reaches ceil(sqrt(n)), else the
    largest height layer, which is then an antichain of at least that size."""
    _require_partial_order(snapshot)
    n = snapshot.domain_size
    if n == 0:
        return CacSolution("antichain", ())
    strict = _strict(snapshot.matrix)
    h = _heights(strict)
    maxh = max(h)
    if maxh >= ceil_sqrt(n):
        return CacSolution("chain", _chain(strict, h))
    best = max(range(1, maxh + 1), key=lambda level: (sum(1 for x in h if x == level), -level))
    layer = tuple(x for x in range(n) if h[x] == best)
    return CacSolution("antichain", layer)


class CondensationResult(Record):
    classes: Tuple[Tuple[int, ...], ...]
    representatives: Tuple[int, ...]
    induced: Snapshot


def condense(pre: Snapshot) -> CondensationResult:
    """Quotient a total preorder by mutual comparability.

    Representatives are chosen greedily least-first; the induced relation
    compares representatives and is a linear order on class indices.
    """
    report = check_preorder(pre)
    if not report.passed:
        raise NotTotalPreorder(f"input is not a preorder: {report}")
    witness = _incomparable_witness(pre.matrix)
    if witness is not None:
        raise NotTotalPreorder(
            f"not total: {witness[0]} and {witness[1]} are incomparable"
        )
    m = pre.matrix
    n = pre.domain_size
    reps: List[int] = []
    for x in range(n):
        if not any(m[x, r] and m[r, x] for r in reps):
            reps.append(x)
    classes = tuple(
        tuple(x for x in range(n) if m[x, r] and m[r, x]) for r in reps
    )
    induced = m[np.ix_(reps, reps)]
    return CondensationResult(classes, tuple(reps), Snapshot(len(reps), pre.stage, induced))


def pigeonhole_extract(pre: Snapshot, classes: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Largest class (least index on ties): ascending and descending at once.
    An empty preorder has no class, and the empty sequence answers it."""
    if not classes:
        return ()
    best = max(range(len(classes)), key=lambda t: (len(classes[t]), -t))
    return tuple(classes[best])


def solve_ads_preorder(pre: Snapshot, threshold: Optional[int] = None) -> AdsSolution:
    """Case split on the number of condensation classes: few classes means
    the largest class already works; otherwise solve the induced linear
    order and pull the answer back through the representatives."""
    cond = condense(pre)
    if threshold is None:
        threshold = ceil_sqrt(pre.domain_size)
    if len(cond.classes) <= threshold:
        return AdsSolution("ascending", pigeonhole_extract(pre, cond.classes))
    inner = solve_ads(cond.induced)
    return AdsSolution(
        inner.direction, tuple(cond.representatives[t] for t in inner.elements)
    )
