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
)
from .roles import spectrum_gadget_code, spectrum_label, spectrum_vertex_code
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
        self.edges = frozenset(tuple(e) for e in edges)
        for i, j in self.edges:
            if not (is_natural(i) and is_natural(j) and i < j < n):
                raise ConfigError(f"bad edge ({i!r}, {j!r})")
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


def _windows(graph: LimitGraph, domain_bound: int) -> Windows:
    """Each vertex pair's gadget rungs that fit under the domain bound, as
    (rung, element code) in rung order, pairs in lexicographic order."""
    out = {}
    for i, j in graph._pairs():
        rungs = []
        code = spectrum_gadget_code(i, j, 0)
        while code < domain_bound:
            rungs.append((len(rungs), code))
            code = spectrum_gadget_code(i, j, len(rungs))
        out[(i, j)] = rungs
    return out


def _stages_needed(graph: LimitGraph, windows: Windows) -> int:
    need = max(graph.n - 1, graph.max_modulus, 0)
    return max([need] + [rungs[-1][0] for rungs in windows.values() if rungs])


def required_stages(graph: LimitGraph, domain_bound: int) -> int:
    """Stages needed so every pair is processed, every flip has passed,
    and every in-window gadget rung has been marked or neutralized."""
    return _stages_needed(graph, _windows(graph, domain_bound))


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
    for (i, j), rungs in windows.items():
        above = [a, g, spectrum_vertex_code(i), spectrum_vertex_code(j)] + flags
        matrix[np.ix_([code for _, code in rungs], above)] = True
    labels = {x: spectrum_label(x) for x in range(domain_bound)}
    return Snapshot(domain_bound, 0, matrix, labels)


def build_spectrum_run(
    kind: Kind, graph: LimitGraph, domain_bound: int, stages: int
) -> StagedOrder:
    """The run through `stages` stages. Stage s marks each processed pair's
    active rung against the flag its current value keeps (growing) or
    drops (shrinking), and neutralizes its other rungs up to s."""
    windows = _windows(graph, domain_bound)
    need = _stages_needed(graph, windows)
    if stages < need:
        raise InsufficientStages(f"stages {stages} below required {need}")
    order = StagedOrder(kind, build_spectrum_initial(kind, graph, domain_bound, windows))
    _, _, r0, r1 = DEFAULT_SPECTRUM_CONSTS
    for s in range(1, stages + 1):
        touched: List[Tuple[int, int]] = []
        for (i, j), rungs in windows.items():
            if j > min(s, graph.n - 1):
                continue
            active = graph.active_index(i, j, s)
            fval = graph.value(i, j, s)
            keep = r1 if fval else r0
            drop = r0 if fval else r1
            for k, code in rungs:
                if k == active:
                    touched.append((code, keep if kind is Kind.CE else drop))
                elif k <= s:
                    touched.append((code, r0))
                    touched.append((code, r1))
        if kind is Kind.CE:
            order.add_pairs(touched)
        else:
            order.remove_pairs(touched)
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
    pool[[a, g]] = False
    below_r0, below_r1 = m[:, r0], m[:, r1]
    distinguished = ~(below_r0 & below_r1) if kind is Kind.CE else below_r0 | below_r1
    marked = np.flatnonzero(pool & distinguished)
    vertices = np.flatnonzero(vertex)
    below = m[np.ix_(marked, vertices)].astype(np.float32)
    # counts of at most the domain size, so exact in float32
    witnesses = below.T @ below
    bad = np.argwhere(np.triu(witnesses != 1, 1))
    if bad.size:
        ai, aj = bad[0]
        x, y = vertices[ai].item(), vertices[aj].item()
        found = marked[(below[:, ai] > 0) & (below[:, aj] > 0)].tolist()
        if not found:
            raise NoWitness(f"no marked gadget for vertex pair ({x}, {y})")
        raise MultipleWitnesses(f"gadgets {found} all marked for vertex pair ({x}, {y})")
    edge_witnesses = (below * below_r1[marked, None]).T @ below
    edges = np.argwhere(np.triu(edge_witnesses > 0, 1))
    return frozenset(zip(vertices[edges[:, 0]].tolist(), vertices[edges[:, 1]].tolist()))


def comparability_graph(snapshot: Snapshot) -> np.ndarray:
    """Forget direction: the pairs x < y related one way or the other, as a
    sorted int64 (k, 2) array."""
    return np.argwhere(np.triu(snapshot.matrix | snapshot.matrix.T, 1))


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
    nbr: Dict[int, set] = {}
    for x, y in edges.tolist():
        nbr.setdefault(x, set()).add(y)
        nbr.setdefault(y, set()).add(x)
    na = nbr.get(a, set())
    ng = nbr.get(g, set())
    n0, n1 = nbr.get(r0, set()), nbr.get(r1, set())
    vertices = sorted(na - ng - {g})
    flagged = [w for w in (na & ng) - {a, g} if (w in n0) != (w in n1)]
    out = set()
    for ai, x in enumerate(vertices):
        near_x = [w for w in flagged if w in nbr[x]]
        for y in vertices[ai + 1 :]:
            marked = [w for w in near_x if w in nbr[y]]
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
        stages = plan.stages_or(required_stages(graph, plan.domain))
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
