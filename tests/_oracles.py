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


def spectrum_batches_reference(grows: bool, graph, windows, stages: int, flags):
    """spectrum.build_spectrum_run's stage loop as first written, one list
    of pairs per stage 1..stages: every rung up to s of every pair with
    j <= s, the active rung marked against the flag its value keeps
    (growing) or drops (shrinking), every other rung against both flags.
    `windows` maps each pair to its (rung, code) list, `flags` is (r0, r1)."""
    r0, r1 = flags
    for s in range(1, stages + 1):
        touched = []
        for (i, j), rungs in windows.items():
            if j > min(s, graph.n - 1):
                continue
            active = graph.active_index(i, j, s)
            fval = graph.value(i, j, s)
            keep = r1 if fval else r0
            drop = r0 if fval else r1
            for k, code in rungs:
                if k == active:
                    touched.append((code, keep if grows else drop))
                elif k <= s:
                    touched.append((code, r0))
                    touched.append((code, r1))
        yield touched


def required_stages_reference(graph, windows) -> int:
    """spectrum.required_stages as first written: the last vertex, the
    last flip or the last in-window rung of any pair, whichever is latest.
    `windows` maps each pair to its (rung, code) list."""
    need = max(graph.n - 1, graph.max_modulus, 0)
    return max([need] + [rungs[-1][0] for rungs in windows.values() if rungs])


def sigma2_regions_reference(rows, consts):
    """sigma2's region split, element by element over `rows`, a matrix's
    tolist(): B below b, A below a but not b, C below c but neither a nor
    b, each constant not counted below itself. Three sorted lists."""
    a_elems, b_elems, c_elems = [], [], []
    for x, row in enumerate(rows):
        if row[consts.b] and x != consts.b:
            b_elems.append(x)
        elif row[consts.a] and x != consts.a:
            a_elems.append(x)
        elif row[consts.c] and x != consts.c:
            c_elems.append(x)
    return a_elems, b_elems, c_elems


def sigma2_row_reference(matrix, consts, i: int):
    """sigma2.locate_sequence as first written, element by element over a
    list-of-lists matrix: (row, None), or (None, the NotFound text).

    Regions: B below b, A below a but not B, C below c but neither; each
    constant left out of its own region. Two A-elements are linked when a
    C-element sits above both; a row walks links from an A-element below
    f to one below l, starts and links tried in ascending order."""
    n = len(matrix)
    if i < 0:
        return None, "row index must be a natural"
    a, b, c, f, l = consts

    def below(x, y):
        return x != y and matrix[x][y]

    b_set = [x for x in range(n) if below(x, b)]
    a_set = [x for x in range(n) if below(x, a) and not below(x, b)]
    c_set = [x for x in range(n) if below(x, c) and not below(x, a) and not below(x, b)]
    if not a_set:
        return None, f"no A-elements in a domain of {n}"
    links = {
        x: [y for y in a_set if y != x and any(matrix[x][z] and matrix[y][z] for z in c_set)]
        for x in a_set
    }
    for x, ys in links.items():
        if len(ys) > 2:
            return None, f"A-element {x} has {len(ys)} links; scaffold rows are paths"
    for x0 in (x for x in a_set if matrix[x][f]):
        for row in [[x0, y] for y in links[x0]] if i else [[x0]]:
            while len(row) <= i:
                step = [y for y in links[row[-1]] if y not in row]
                if not step:
                    break
                row.append(step[0])
            if len(row) == i + 1 and matrix[row[-1]][l]:
                return tuple(row), None
    return None, f"no row of length {i + 1} in a domain of {n}"


def sigma2_member_reference(matrix, consts, i: int):
    """sigma2.membership_query as first written: (some B-element below
    every element of the located row, None), or (None, the NotFound text)."""
    row, error = sigma2_row_reference(matrix, consts, i)
    if error is not None:
        return None, error
    b = consts[1]
    b_set = [x for x in range(len(matrix)) if x != b and matrix[x][b]]
    return any(all(matrix[y][x] for x in row) for y in b_set), None


def order_checks_reference(rows, antisymmetric: bool):
    """check_partial_order (antisymmetric=True) or check_preorder as first
    written, over `rows`, a matrix's tolist(): one (axiom, passed, witness)
    triple per axiom. The reflexivity witness is the first element off the
    diagonal; the antisymmetry witness the first pair i < j held both
    ways; the transitivity witness the first pair (i, k) that a two-step
    path reaches and the relation lacks, with its least middle j. Rows are
    int bitmasks, so no numpy is involved."""
    n = len(rows)
    bits = [sum(1 << j for j, held in enumerate(row) if held) for row in rows]
    rw = next(((i,) for i in range(n) if not rows[i][i]), None)
    aw = None
    if antisymmetric:
        aw = next(((i, j) for i in range(n) for j in range(i + 1, n)
                   if rows[i][j] and rows[j][i]), None)
    tw = None
    for i in range(n):
        reach = 0
        for j in range(n):
            if bits[i] >> j & 1:
                reach |= bits[j]
        missing = reach & ~bits[i]
        if missing:
            k = (missing & -missing).bit_length() - 1
            tw = (i, next(j for j in range(n) if rows[i][j] and rows[j][k]), k)
            break
    return [("reflexive", rw is None, rw), ("antisymmetric", aw is None, aw),
            ("transitive", tw is None, tw)]


def remove_pairs_reference(rows: List[int], pairs, n: int):
    """StagedOrder.remove_pairs' per-pair rules on a closed order whose
    rows are int bitmasks. Returns (rows, None) with the held pairs
    removed, or (None, (error name, text)) for the first pair, in the
    order given, that is not two ints inside 0..n-1 or is reflexive, or
    else for the first held pair, in that order, whose removal leaves a
    path i <= j <= k around it, named with its least j."""
    gone = []
    for u, v in pairs:
        if not (type(u) is int and type(v) is int):
            return None, ("StagedOrderError", f"pair ({u!r}, {v!r}) must hold two integers")
        if not (0 <= u < n and 0 <= v < n):
            return None, ("DomainTooSmall", f"pair ({u}, {v}) outside domain of size {n}")
        if u == v:
            return None, ("StagedOrderError", f"cannot remove reflexive pair ({u}, {u})")
        if rows[u] >> v & 1:
            gone.append((u, v))
    rows = list(rows)
    for u, v in gone:
        rows[u] &= ~(1 << v)
    for u, v in gone:
        for j in range(n):
            if rows[u] >> j & 1 and rows[j] >> v & 1:
                return None, ("TransitivityViolation",
                              f"transitivity violated: {u} <= {j} and {j} <= {v} but not {u} <= {v}")
    return rows, None


def jump_batches_reference(entries, n: int, stages: int):
    """jump's stage loop as first written, one list of pairs per stage
    1..stages: at stage s, every pair strictly inside the window (least
    element entering at s, min(s, n-1)], none if no element enters.
    `entries` are the schedule's (element, stage) pairs."""
    for s in range(1, stages + 1):
        entering = [e for e, stage in entries if stage == s]
        if not entering:
            yield []
            continue
        lo, hi = min(entering) + 1, min(s, n - 1)
        yield [(j, k) for j in range(lo, hi + 1) for k in range(j + 1, hi + 1)]


def sigma2_witness_walk_reference(pred):
    """sigma2's witness dynamics as first written, one stage at a time:
    for stages 1, 2, ..., the (i, x) pairs defeated at that stage and the
    witnesses after it. Index i is eligible once s >= i; its witness x is
    defeated at s when its defeat stage is at or before s, and moves at
    most once a stage."""
    witnesses = [0] * pred.bound
    s = 0
    while True:
        s += 1
        defeated = []
        for i in range(min(s, pred.bound - 1) + 1):
            x = witnesses[i]
            d = pred.defeat_stage(i, x)
            if d is not None and d <= s:
                defeated.append((i, x))
                witnesses[i] = x + 1
        yield defeated, tuple(witnesses)


def sigma2_stabilization_reference(pred, targets) -> int:
    """sigma2.stabilization_stage as first written: the first stage, from
    0, after which every index's witness has reached its target (`targets`,
    one per index), walked one stage at a time."""
    if all(t == 0 for t in targets):
        return 0
    for s, (_, witnesses) in enumerate(sigma2_witness_walk_reference(pred), 1):
        if all(w >= t for w, t in zip(witnesses, targets)):
            return s


def sigma2_batches_reference(pred, n: int, stages: int, a_code, b_code):
    """sigma2.build_run's stage loop as first written: one list of pairs
    per stage 1..stages, a defeat of witness x of index i removing
    (b_x, a_{i,k}) for every k <= i that fits the window, by index; and
    the witnesses after the last stage. `a_code(i, k)` and `b_code(x)` are
    the role codes."""
    batches, witnesses = [], (0,) * pred.bound
    walk = sigma2_witness_walk_reference(pred)
    for _ in range(stages):
        defeated, witnesses = next(walk)
        gone = []
        for i, x in defeated:
            if b_code(x) < n:
                gone += [(b_code(x), a_code(i, k)) for k in range(i + 1) if a_code(i, k) < n]
        batches.append(gone)
    return batches, witnesses


def poset_suite_reference(stages):
    """verify --suite poset as first written: the full check of every
    stage, one line per failing axiom or one "ok" line. `stages` are
    (stage, rows) pairs, rows a matrix's tolist(). Returns the lines and
    the verdict."""
    lines, ok = [], True
    for stage, rows in stages:
        failed = [(axiom, witness) for axiom, passed, witness in order_checks_reference(rows, True)
                  if not passed]
        ok = ok and not failed
        lines += [f"stage {stage}: {axiom} fails at {witness}" for axiom, witness in failed]
        if not failed:
            lines.append(f"stage {stage}: ok")
    return lines, ok


def monotone_suite_reference(stages, grows: bool):
    """verify --suite monotone as first written: each stage compared with
    the whole stage before it, naming every pair it lost (grows) or gained
    in row-major order. `stages` are (stage, rows) pairs. Returns the lines
    and the verdict."""
    lines = []
    for (_, before), (stage, now) in zip(stages, stages[1:]):
        for i, (was, row) in enumerate(zip(before, now)):
            for j, (held, holds) in enumerate(zip(was, row)):
                if (held and not holds) if grows else (holds and not held):
                    lines.append(f"stage {stage}: pair ({i}, {j}) moved the wrong way")
    ok = not lines
    return lines + [f"direction {'ce' if grows else 'coce'} over {len(stages)} snapshots"], ok


def _probe_error(rows, probe, cochain: bool):
    """decode_chain's (cochain) or decode_antichain's refusal of the whole
    probe as (error name, text), or None."""
    if cochain:
        for t, (u, v) in enumerate(zip(probe, probe[1:])):
            if u == v or not rows[u][v]:
                return "InvalidChain", f"positions {t},{t + 1} are not strictly related"
        return None
    if any(x >= y for x, y in zip(probe, probe[1:])):
        return "InvalidAntichain", "elements must increase"
    for a, x in enumerate(probe):
        for y in probe[a + 1:]:
            if rows[x][y] or rows[y][x]:
                return "InvalidAntichain", f"{x} and {y} are comparable"
    return None


def jump_decode_reference(rows, probe, entries, cochain: bool):
    """The jump decode suite as first written: for each width i of the
    probe, decode_chain (cochain) or decode_antichain checks the whole
    probe and reads the bits of K below i at stage probe[i + 1], which
    are compared with K's. `rows` is the last stage's matrix as lists and
    `entries` the schedule's (element, stage) pairs. Returns (lines,
    verdict, None), or (None, None, (error name, text)) for the first
    refusal."""
    if len(probe) < 2:
        return None, None, ("ConfigError", "run too small to carry any bits")

    def bits(stage, i):
        return "".join("1" if any(e == x and s <= stage for x, s in entries) else "0" for e in range(i))

    lines, ok = [], True
    last = max((s for _, s in entries), default=0)
    for i in range(len(probe) - 1):
        error = _probe_error(rows, probe, cochain)
        if error is not None:
            return None, None, error
        got, want = bits(probe[i + 1], i), bits(last, i)
        ok = ok and got == want
        lines.append(f"prefix {i}: {got}" + ("" if got == want else f" expected {want}"))
    return lines, ok, None


def family_view_reference(pre, s: int):
    """CoCEPreorder.view as first written, as a matrix's tolist(): the
    limit, plus every pair whose removal stage lies after s, found by a
    walk over every removal entry."""
    rows = pre.limit.matrix.tolist()
    for (i, j), stage in pre.removal_stage:
        if stage > s:
            rows[i][j] = True
    return rows


def _window_transitive(view, window: int) -> bool:
    return order_checks_reference([row[:window] for row in view[:window]], False)[2][1]


def family_speedup_reference(pre, s: int) -> int:
    """family.speedup as first written: stage by stage from s, the first
    stage whose view, restricted to the window {0..s+1}, is transitive.
    Rows are int bitmasks, so no numpy is involved."""
    n = pre.n
    window = min(s + 1, n - 1) + 1 if n else 0
    t = s
    while not _window_transitive(family_view_reference(pre, t), window):
        t += 1
    return t


def family_build_reference(pre, stages: int):
    """family.build_family as first written: a fresh element for every
    witnessed non-relation (i, j) at every stage, with the speedup
    stepping to the least removal stage past the current one by a walk
    over every entry. Returns the rows, as frozensets of elements, and
    the (stage, index i) each element was made for."""
    n = pre.n

    def speedup(s):
        window = min(s + 1, n - 1) + 1 if n else 0
        t = s
        while not _window_transitive(family_view_reference(pre, t), window):
            t = min(stage for _, stage in pre.removal_stage if stage > t)
        return t

    rows: List[Set[int]] = [set() for _ in range(n)]
    made: List[Tuple[int, int]] = []
    for s in range(stages):
        view = family_view_reference(pre, speedup(s))
        w = min(s, n - 1)
        if n and s <= n - 1:
            for i in range(s + 1):
                if view[i][s]:
                    rows[s] |= rows[i]
        for i in range(w + 1):
            for j in range(w + 1):
                if i != j and not view[i][j]:
                    for k in range(w + 1):
                        if view[i][k]:
                            rows[k].add(len(made))
                    made.append((s, i))
    return tuple(frozenset(row) for row in rows), made
