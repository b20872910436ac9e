"""Independent reference implementations the tests compare against.

Deliberately dumb: pure Python, no numpy, different algorithms than the
package (bitmask Floyd-Warshall vs incremental closure, quadratic DP vs
patience sorting) so agreement actually means something.
"""

from typing import List, Sequence, Set, Tuple


def fw_close(pairs, n: int) -> Set[Tuple[int, int]]:
    """Reflexive-transitive closure; rows kept as int bitmasks."""
    rows = [1 << i for i in range(n)]
    for i, j in pairs:
        rows[i] |= 1 << j
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
    return {(i, j) for i in range(n) for j in range(n) if rows[i] >> j & 1}


def is_transitive(rel: Set[Tuple[int, int]], n: int) -> bool:
    for i, j in rel:
        for k in range(n):
            if (j, k) in rel and (i, k) not in rel:
                return False
    return True


def is_antisymmetric(rel: Set[Tuple[int, int]]) -> bool:
    return all(not (i != j and (j, i) in rel) for i, j in rel)


def chain_valid(snapshot, elements: Sequence[int]) -> bool:
    m = snapshot.matrix
    return all(
        m[x, y] or m[y, x] for t, x in enumerate(elements) for y in elements[t + 1 :]
    )


def antichain_valid(snapshot, elements: Sequence[int]) -> bool:
    m = snapshot.matrix
    return all(
        not m[x, y] and not m[y, x]
        for t, x in enumerate(elements)
        for y in elements[t + 1 :]
    )


def sequence_valid(snapshot, direction: str, elements: Sequence[int]) -> bool:
    """On the set, the order must agree with the natural order (ascending)
    or its reverse (descending): x < y in N forces the matching relation."""
    if list(elements) != sorted(set(elements)):
        return False
    m = snapshot.matrix
    for t, x in enumerate(elements):
        for y in elements[t + 1 :]:
            if direction == "ascending" and not m[x, y]:
                return False
            if direction == "descending" and not m[y, x]:
                return False
    return True


def lis_length(seq: Sequence[int]) -> int:
    """Longest strictly increasing subsequence, O(n^2)."""
    best: List[int] = []
    for t in range(len(seq)):
        best.append(1 + max((best[u] for u in range(t) if seq[u] < seq[t]), default=0))
    return max(best, default=0)


def lds_length(seq: Sequence[int]) -> int:
    return lis_length([-x for x in seq])


def longest_chain_length(holds, n: int) -> int:
    """Longest chain in a finite poset given its 'holds(i, j)' relation,
    O(n^2) DP over a topological order by number of strict predecessors."""
    below = {
        i: sum(1 for j in range(n) if j != i and holds(j, i)) for i in range(n)
    }
    order = sorted(range(n), key=lambda i: below[i])
    best = {}
    for i in order:
        best[i] = 1 + max(
            (best[j] for j in order if j in best and j != i and holds(j, i)),
            default=0,
        )
    return max(best.values(), default=0)


def largest_antichain_floor(holds, n: int) -> int:
    """Greedy antichain size by repeatedly taking a minimal untaken element
    incomparable to the picks; a lower bound, enough for floor checks."""
    picked: List[int] = []
    for x in range(n):
        if all(not holds(x, y) and not holds(y, x) for y in picked if y != x):
            picked.append(x)
    return len(picked)


def snapshot_relation(pairs, n: int):
    """The snapshot loader's per-pair rules, pair by pair in file order:
    (relation, None) with the reflexive pairs added, or (None, message)
    for the first pair that is not two ints inside 0..n-1."""
    for p in pairs:
        if not (isinstance(p, list) and len(p) == 2 and type(p[0]) is int and type(p[1]) is int):
            return None, f"malformed pair {p!r}"
        if not (0 <= p[0] < n and 0 <= p[1] < n):
            return None, f"pair {p!r} outside domain"
    return {(i, i) for i in range(n)} | {(i, j) for i, j in pairs}, None


def add_pairs_reference(rows: List[int], pairs, n: int):
    """StagedOrder.add_pairs' per-pair rules on a closed order whose rows
    are int bitmasks (bit j of rows[i] for i <= j). Returns (rows, None)
    with the pairs closed in one at a time, or (None, (error name, text))
    for the first pair that breaks a rule: one outside the domain, one
    whose reverse is held, or one whose closure makes a 2-cycle, named by
    the lexicographically least pair of the cycle."""
    rows = list(rows)
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            return None, ("DomainTooSmall", f"pair ({u}, {v}) outside domain of size {n}")
        if rows[u] >> v & 1:
            continue
        if rows[v] >> u & 1:
            return None, _antisymmetry(min(u, v), max(u, v))
        below_u = [x for x in range(n) if rows[x] >> u & 1]
        above_v = rows[v]
        for x in below_u:  # x <= u and v <= y: is y <= x already?
            for y in range(n):
                if y != x and above_v >> y & 1 and rows[y] >> x & 1:
                    return None, _antisymmetry(min(x, y), max(x, y))
        for x in below_u:
            rows[x] |= above_v
    return rows, None


def _antisymmetry(i: int, j: int):
    return "AntisymmetryViolation", f"antisymmetry violated: {i} <= {j} and {j} <= {i} with {i} != {j}"
