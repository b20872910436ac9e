"""Coding a graph into the comparability structure of a staged order.

Vertex i is the element a_i, kept below the apex a. Every vertex pair
(i, j) owns a ladder of gadget elements sitting below a_i, a_j and the
apex g. Edge membership may flip finitely often on a declared schedule;
at each stage the currently active gadget is marked against exactly one
of the flag constants r0/r1 while stale gadgets are neutralized. In the
growing variant neutral means "below both flags", in the shrinking
variant "below neither", so the surviving marked gadget and the flag it
keeps name the final edge bit. Everything is readable from the bare
comparability graph once the four constants are pointed out.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import numpy as np

from .kernel import (
    ConfigError,
    Construction,
    DomainTooSmall,
    Kind,
    Snapshot,
    StagedOrder,
    StagedOrderError,
    _first_pair,
    stage_batches,
)
from .roles import _spectrum_labels, spectrum_gadget_code, spectrum_vertex_code
from .serialize import is_natural


class NoWitness(StagedOrderError):
    pass


class MultipleWitnesses(StagedOrderError):
    pass


class InsufficientStages(StagedOrderError):
    pass


class SpectrumConsts(NamedTuple):
    a: int
    g: int
    r0: int
    r1: int


DEFAULT_SPECTRUM_CONSTS = SpectrumConsts(0, 1, 2, 3)


class LimitGraph:
    """A finite graph together with a finite flip schedule per pair.

    The stage-s approximation contains pair (i, j) iff the declared
    membership, corrected by the parity of flips still to come after s,
    is 1. All flips happen at stages >= 1, so the limit value is reached
    once every flip for the pair has passed.
    """

    def __init__(
        self,
        n: int,
        edges,
        flips: Optional[Dict[Tuple[int, int], Tuple[int, ...]]] = None,
    ):
        if not is_natural(n):
            raise ConfigError("vertex count must be a natural")
        self.n = n
        edges = [tuple(e) for e in edges]
        for i, j in edges:  # in list order, so the first bad edge is named
            if not (is_natural(i) and is_natural(j) and i < j < n):
                raise ConfigError(f"bad edge ({i!r}, {j!r})")
        self.edges = frozenset(edges)
        self.flips = {}
        for pair, stages in (flips or {}).items():
            i, j = pair
            if not (0 <= i < j < n):
                raise ConfigError(f"flip schedule for non-pair {pair!r}")
            stages = tuple(stages)
            if not all(is_natural(s) and s >= 1 for s in stages):
                raise ConfigError(f"flip stages for {pair!r} must be >= 1")
            if list(stages) != sorted(set(stages)):
                raise ConfigError(f"flip stages for {pair!r} must be sorted and distinct")
            if stages:
                self.flips[(i, j)] = stages

    def target(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

    def flips_for(self, i: int, j: int) -> Tuple[int, ...]:
        return self.flips.get((i, j), ())

    def value(self, i: int, j: int, s: int) -> int:
        """Pair membership as believed at stage s."""
        fl = self.flips_for(i, j)
        start = int(self.target(i, j)) ^ (len(fl) % 2)
        return start ^ (bisect_right(fl, s) % 2)  # flips so far: fl is sorted

    def modulus(self, i: int, j: int) -> int:
        """First stage from which the pair's value no longer moves."""
        fl = self.flips_for(i, j)
        return fl[-1] if fl else 0

    def active_index(self, i: int, j: int, s: int) -> int:
        """Gadget rung carrying the pair's mark at stage s: its last flip
        at or before s, or 0."""
        fl = self.flips_for(i, j)
        k = bisect_right(fl, s)
        return fl[k - 1] if k else 0

    @property
    def max_modulus(self) -> int:
        return max((self.modulus(i, j) for i, j in self._pairs()), default=0)

    def _pairs(self):
        return ((i, j) for i in range(self.n) for j in range(i + 1, self.n))


def graph_from_config(blob: dict) -> LimitGraph:
    n = blob.get("n")
    edges = blob.get("edges", [])
    raw_flips = blob.get("flips", {})
    if not isinstance(edges, list) or not isinstance(raw_flips, dict):
        raise ConfigError("config needs 'edges' list and 'flips' object")
    parsed_edges = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2):
            raise ConfigError(f"malformed edge {e!r}")
        parsed_edges.append((e[0], e[1]))
    flips = {}
    for key, stages in raw_flips.items():
        # one spelling per pair, so no two keys can name the same pair
        if not re.fullmatch(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)", key):
            raise ConfigError(f"flip key {key!r} is not 'i,j' in plain decimal")
        i, j = (int(part) for part in key.split(","))
        if not isinstance(stages, list):
            raise ConfigError(f"flip stages for {key!r} must be a list")
        flips[(i, j)] = tuple(stages)
    return LimitGraph(n, parsed_edges, flips)


def element_to_vertex(code: int) -> int:
    """Inverse of the vertex coding a_i = 4 + 2i."""
    if code < 4 or (code - 4) % 2:
        raise ConfigError(f"element {code} does not code a vertex")
    return (code - 4) // 2


def required_domain_bound(graph: LimitGraph) -> int:
    """One past the largest code the run needs: the last vertex, and each
    pair's gadget at its modulus. A pair with no flips needs rung 0, and
    rung 0 codes grow with the pair's rank, so of those only the last pair
    counts."""
    bound = 4
    if graph.n:
        bound = max(bound, spectrum_vertex_code(graph.n - 1) + 1)
    if graph.n >= 2:
        bound = max(bound, spectrum_gadget_code(graph.n - 2, graph.n - 1, 0) + 1)
    for (i, j), stages in graph.flips.items():
        bound = max(bound, spectrum_gadget_code(i, j, stages[-1]) + 1)
    return bound


Windows = Dict[Tuple[int, int], List[Tuple[int, int]]]


def _window(i: int, j: int, domain_bound: int) -> List[Tuple[int, int]]:
    """Pair (i, j)'s gadget rungs that fit under the domain bound, as
    (rung, element code) in rung order."""
    rungs = []
    code = spectrum_gadget_code(i, j, 0)
    while code < domain_bound:
        rungs.append((len(rungs), code))
        code = spectrum_gadget_code(i, j, len(rungs))
    return rungs


def _windows(graph: LimitGraph, domain_bound: int) -> Windows:
    """Each vertex pair's window, pairs in lexicographic order."""
    return {(i, j): _window(i, j, domain_bound) for i, j in graph._pairs()}


def _stages_needed(graph: LimitGraph, first_window: List[Tuple[int, int]]) -> int:
    """The stage count, given pair (0, 1)'s window. For a fixed rung a
    gadget's code grows with its pair's rank, and a window is the rungs
    below the first that does not fit, so pair (0, 1), of rank 0, has
    the longest window: no other pair has a later rung to reach."""
    need = max(graph.n - 1, graph.max_modulus, 0)
    return max(need, first_window[-1][0]) if first_window else need


def required_stages(graph: LimitGraph, domain_bound: int) -> int:
    """Stages needed so every pair is processed, every flip has passed,
    and every in-window gadget rung has been marked or neutralized."""
    return _stages_needed(graph, _window(0, 1, domain_bound) if graph.n >= 2 else [])


def build_spectrum_initial(
    kind: Kind, graph: LimitGraph, domain_bound: int, windows: Windows
) -> Snapshot:
    """Stage 0: every vertex below a; every in-window gadget below g, its
    two vertices and a, and below both flags when shrinking. `windows` is
    _windows(graph, domain_bound).

    The relation is written closed: a gadget's only two-step path runs
    through one of its vertices to a, so no closure pass follows, and the
    full check in StagedOrder's constructor verifies it."""
    required = required_domain_bound(graph)
    if domain_bound < required:
        raise DomainTooSmall(f"domain {domain_bound} below required {required}")
    a, g, r0, r1 = DEFAULT_SPECTRUM_CONSTS
    flags = [r0, r1] if kind is Kind.COCE else []
    matrix = np.eye(domain_bound, dtype=bool)
    matrix[[spectrum_vertex_code(i) for i in range(graph.n)], a] = True
    below, above = [], []  # every window's pairs, set in one assignment
    for (i, j), rungs in windows.items():
        tops = [a, g, spectrum_vertex_code(i), spectrum_vertex_code(j)] + flags
        for _, code in rungs:
            below += [code] * len(tops)
            above += tops
    matrix[below, above] = True
    return Snapshot(domain_bound, 0, matrix, _spectrum_labels(domain_bound))


def build_spectrum_run(
    kind: Kind, graph: LimitGraph, domain_bound: int, stages: int
) -> StagedOrder:
    """The run through `stages` stages. Stage s marks each processed pair's
    active rung against the flag its current value keeps (growing) or
    drops (shrinking), and neutralizes its other rungs up to s.

    Pair (i, j) is processed from stage j on. Its first stage touches
    every rung up to j. A later stage s can move only two rungs: rung s,
    now in reach, and, after a flip at s, the rung active at s-1, which
    loses the mark to rung s. Between flips the active rung and its flag
    stay put, so every other rung's touch would re-assert a pair the
    order already holds (growing) or already lacks (shrinking), and the
    kernel would drop it. So each pair's touches are scheduled from its
    own events: stage j, the stages at which its later rungs come in
    reach, and its flips after j, all within the stage count. The stages
    are applied in one call, each stage's pairs in pair order."""
    windows = _windows(graph, domain_bound)
    need = _stages_needed(graph, windows.get((0, 1), []))
    if stages < need:
        raise InsufficientStages(f"stages {stages} below required {need}")
    order = StagedOrder(kind, build_spectrum_initial(kind, graph, domain_bound, windows))
    _, _, r0, r1 = DEFAULT_SPECTRUM_CONSTS
    marks = (r0, r1) if kind is Kind.CE else (r1, r0)  # the flag a mark keeps, by value
    touches: Dict[int, List[Tuple[int, int]]] = {}  # stage -> its pairs, by vertex pair
    for (i, j), rungs in windows.items():
        flips = graph.flips_for(i, j)
        active, value = graph.active_index(i, j, j), graph.value(i, j, j)
        later = sorted({f for f in flips if f > j}.union(range(j + 1, len(rungs))))
        for s in [j, *later]:
            # rungs[k] is rung k, and a slice past the window is empty
            if s == j:
                moved = rungs[: j + 1]
            elif s in flips:  # the mark moves from the active rung to rung s
                moved = rungs[active : active + 1] + rungs[s : s + 1]
                active, value = s, value ^ 1
            else:
                moved = rungs[s : s + 1]
            touched = touches.setdefault(s, [])
            for k, code in moved:
                if k == active:
                    touched.append((code, marks[value]))
                else:
                    touched += [(code, r0), (code, r1)]
    batches = stage_batches(touches, stages)
    if kind is Kind.CE:
        order.add_stages(batches)
    else:
        order.remove_stages(batches)
    return order


def decode_graph(
    snapshot: Snapshot,
    kind: Kind,
    consts: Optional[SpectrumConsts] = None,
) -> FrozenSet[Tuple[int, int]]:
    """Recover the coded graph as pairs of vertex elements. Only the four
    constants need to be named; everything else is read off the order.

    Vertices sit below a but not g; pool gadgets below both. Growing, a
    pool gadget is marked unless it sits below both flags; shrinking, when
    it sits below either. Each vertex pair needs exactly one marked gadget
    below both its vertices, and is an edge when that gadget sits below r1."""
    consts = consts or DEFAULT_SPECTRUM_CONSTS
    a, g, r0, r1 = consts
    m = snapshot.matrix
    vertex = m[:, a] & ~m[:, g]
    vertex[a] = False
    pool = m[:, a] & m[:, g]
    pool[a] = pool[g] = False
    below_r0, below_r1 = m[:, r0], m[:, r1]
    distinguished = ~(below_r0 & below_r1) if kind is Kind.CE else below_r0 | below_r1
    marked = (pool & distinguished).nonzero()[0]
    vertices = vertex.nonzero()[0]
    below = m.take(marked, 0).take(vertices, 1).astype(np.float32)
    # counts of at most the domain size, so exact in float32, and symmetric
    witnesses = below.T @ below
    bad = witnesses != 1
    bad.reshape(-1)[:: len(vertices) + 1] = False
    # bad is symmetric, so its first pair in row order has ai < aj: a pair
    # (ai, aj) with aj < ai would put (aj, ai) in an earlier row
    first = _first_pair(bad)
    if first is not None:
        ai, aj = first
        x, y = vertices[ai].item(), vertices[aj].item()
        found = marked[(below[:, ai] > 0) & (below[:, aj] > 0)].tolist()
        if not found:
            raise NoWitness(f"no marked gadget for vertex pair ({x}, {y})")
        raise MultipleWitnesses(f"gadgets {found} all marked for vertex pair ({x}, {y})")
    edge_witnesses = (below * below_r1.take(marked)[:, None]).T @ below
    ai, aj = (edge_witnesses > 0).nonzero()
    upper = ai < aj
    return frozenset(zip(vertices[ai[upper]].tolist(), vertices[aj[upper]].tolist()))


def comparability_graph(snapshot: Snapshot) -> np.ndarray:
    """Forget direction: the pairs x < y related one way or the other, as a
    sorted int64 (k, 2) array. Each held strict pair is folded to (min, max)
    in one flat mask, which reads the matrix once and never transposes it."""
    n = snapshot.domain_size
    x, y = np.divmod(np.flatnonzero(snapshot.matrix), n)
    strict = x != y
    folded = np.zeros(n * n, dtype=bool)
    folded[np.minimum(x, y)[strict] * n + np.maximum(x, y)[strict]] = True
    return np.column_stack(np.divmod(np.flatnonzero(folded), n))


def decode_from_comparability(
    edges: np.ndarray,
    kind: Kind,
    consts: Optional[SpectrumConsts] = None,
) -> FrozenSet[Tuple[int, int]]:
    """Same readout using only comparability. Neutral gadgets touch both
    flags or neither, so "adjacent to exactly one flag" is the marked
    test in both variants."""
    consts = consts or DEFAULT_SPECTRUM_CONSTS
    a, g, r0, r1 = consts
    lows, highs = edges[:, 0], edges[:, 1]

    def nbr(v: int) -> set:
        """v's neighbours, added to the set in ascending order (the pairs
        are sorted, so those below v come first), as a map of every
        element's neighbours built pair by pair adds them: the sets
        iterate in the same order, and so do the gadgets an error names."""
        return set(np.concatenate((lows[highs == v], highs[lows == v])).tolist())

    na, ng, n0, n1 = nbr(a), nbr(g), nbr(r0), nbr(r1)
    vertices = sorted(na - ng - {g})
    flagged = [w for w in (na & ng) - {a, g} if (w in n0) != (w in n1)]
    near = {x: nbr(x) for x in vertices}
    out = set()
    for ai, x in enumerate(vertices):
        near_x = [w for w in flagged if w in near[x]]
        for y in vertices[ai + 1 :]:
            marked = [w for w in near_x if w in near[y]]
            if not marked:
                raise NoWitness(f"no marked gadget for vertex pair ({x}, {y})")
            if len(marked) > 1:
                raise MultipleWitnesses(
                    f"gadgets {marked} all marked for vertex pair ({x}, {y})"
                )
            if marked[0] in n1:
                out.add((x, y))
    return frozenset(out)


class SpectrumConstruction(Construction):
    """One graph coding, as the command line drives it. Decoding needs the
    snapshot and the four constants, never the run's config."""

    consts = tuple(DEFAULT_SPECTRUM_CONSTS)
    checks_kind = True

    def build(self, plan):
        graph = graph_from_config(plan.payload)
        plan.domain = plan.domain_or(required_domain_bound(graph))
        stages = plan.stages_or(lambda: required_stages(graph, plan.domain))
        return build_spectrum_run(self.kind, graph, plan.domain, stages).history, None

    def _read(self, snap, kind, consts, original=None):
        """The decoded element pairs, and the same as sorted vertex pairs;
        `original` maps a relabeled snapshot's elements back first."""
        pairs = decode_graph(snap, kind, SpectrumConsts(*consts))
        named = pairs if original is None else [(original[x], original[y]) for x, y in pairs]
        edges = {tuple(sorted((element_to_vertex(x), element_to_vertex(y)))) for x, y in named}
        return pairs, sorted(edges)

    def readout(self, snap, kind, consts, config, original) -> dict:
        _, edges = self._read(snap, kind, consts, original)
        return {"construction": self.name, "edges": [list(e) for e in edges]}

    def decode(self, run):
        """The order readout against the config, then against the
        comparability readout, which is independent code on purpose."""
        final = run.final
        want = sorted(tuple(e) for e in graph_from_config(run.config).edges)
        pairs, decoded = self._read(final, run.kind, self.consts)
        ok = decoded == want
        lines = [f"decoded edges {decoded}"] + ([] if ok else [f"expected edges {want}"])
        if decode_from_comparability(comparability_graph(final), run.kind) != pairs:
            ok = False
            lines.append("comparability readout disagrees with order readout")
        return lines, ok


SPECTRUM_CE = SpectrumConstruction("spectrum-ce", Kind.CE)
SPECTRUM_COCE = SpectrumConstruction("spectrum-coce", Kind.COCE)
