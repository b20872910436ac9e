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

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .kernel import (
    ConfigError,
    Construction,
    DomainTooSmall,
    Kind,
    Snapshot,
    StagedOrder,
    StagedOrderError,
    close_matrix,
)
from .roles import SpectrumA, SpectrumG, spectrum_encode, spectrum_label


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
        if not isinstance(n, int) or n < 0:
            raise ConfigError("vertex count must be a natural")
        self.n = n
        self.edges = frozenset(tuple(e) for e in edges)
        for i, j in self.edges:
            if not (isinstance(i, int) and isinstance(j, int) and 0 <= i < j < n):
                raise ConfigError(f"bad edge ({i!r}, {j!r})")
        self.flips = {}
        for pair, stages in (flips or {}).items():
            i, j = pair
            if not (0 <= i < j < n):
                raise ConfigError(f"flip schedule for non-pair {pair!r}")
            stages = tuple(stages)
            if any(not isinstance(s, int) or s < 1 for s in stages):
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
        return start ^ (sum(1 for t in fl if t <= s) % 2)

    def modulus(self, i: int, j: int) -> int:
        """First stage from which the pair's value no longer moves."""
        fl = self.flips_for(i, j)
        return fl[-1] if fl else 0

    def active_index(self, i: int, j: int, s: int) -> int:
        """Gadget rung carrying the pair's mark at stage s."""
        best = 0
        for t in self.flips_for(i, j):
            if t <= s:
                best = t
        return best

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
        try:
            i, j = (int(part) for part in key.split(","))
        except ValueError:
            raise ConfigError(f"flip key {key!r} is not 'i,j'")
        if not isinstance(stages, list):
            raise ConfigError(f"flip stages for {key!r} must be a list")
        flips[(i, j)] = tuple(stages)
    return LimitGraph(n, parsed_edges, flips)


def graph_to_config(graph: LimitGraph) -> dict:
    return {
        "n": graph.n,
        "edges": [list(e) for e in sorted(graph.edges)],
        "flips": {
            f"{i},{j}": list(stages) for (i, j), stages in sorted(graph.flips.items())
        },
    }


def _gadget_code(i: int, j: int, k: int) -> int:
    return spectrum_encode(SpectrumG(i, j, k))


def _vertex_code(i: int) -> int:
    return spectrum_encode(SpectrumA(i))


def element_to_vertex(code: int) -> int:
    """Inverse of the vertex coding a_i = 4 + 2i."""
    if code < 4 or (code - 4) % 2:
        raise ConfigError(f"element {code} does not code a vertex")
    return (code - 4) // 2


def required_domain_bound(graph: LimitGraph) -> int:
    bound = 4
    if graph.n:
        bound = max(bound, _vertex_code(graph.n - 1) + 1)
    for i, j in graph._pairs():
        bound = max(bound, _gadget_code(i, j, graph.modulus(i, j)) + 1)
    return bound


def _window_gadgets(graph: LimitGraph, i: int, j: int, domain_bound: int) -> List[int]:
    """Gadget rungs of the pair that fit under the domain bound."""
    out = []
    k = 0
    while _gadget_code(i, j, k) < domain_bound:
        out.append(k)
        k += 1
    return out


def required_stages(graph: LimitGraph, domain_bound: int) -> int:
    """Stages needed so every pair is processed, every flip has passed,
    and every in-window gadget rung has been marked or neutralized."""
    need = max(graph.n - 1, graph.max_modulus, 0)
    for i, j in graph._pairs():
        rungs = _window_gadgets(graph, i, j, domain_bound)
        if rungs:
            need = max(need, rungs[-1])
    return need


def build_spectrum_initial(kind: Kind, graph: LimitGraph, domain_bound: int) -> Snapshot:
    if domain_bound < required_domain_bound(graph):
        raise DomainTooSmall(
            f"domain {domain_bound} below required {required_domain_bound(graph)}"
        )
    a, g, r0, r1 = DEFAULT_SPECTRUM_CONSTS
    matrix = np.eye(domain_bound, dtype=bool)
    for i in range(graph.n):
        matrix[_vertex_code(i), a] = True
    for i, j in graph._pairs():
        for k in _window_gadgets(graph, i, j, domain_bound):
            code = _gadget_code(i, j, k)
            matrix[code, g] = True
            matrix[code, _vertex_code(i)] = True
            matrix[code, _vertex_code(j)] = True
            if kind is Kind.COCE:
                matrix[code, r0] = True
                matrix[code, r1] = True
    close_matrix(matrix)
    labels = {x: spectrum_label(x) for x in range(domain_bound)}
    return Snapshot(domain_bound, 0, matrix, labels)


def run_spectrum_stage(order: StagedOrder, graph: LimitGraph, s: int) -> Snapshot:
    if s != order.current.stage + 1:
        raise StagedOrderError(f"expected stage {order.current.stage + 1}, got {s}")
    _, _, r0, r1 = DEFAULT_SPECTRUM_CONSTS
    bound = order.domain_size
    touched: List[Tuple[int, int]] = []
    for i, j in graph._pairs():
        if j > min(s, graph.n - 1):
            continue
        active = graph.active_index(i, j, s)
        fval = graph.value(i, j, s)
        keep = r1 if fval else r0
        drop = r0 if fval else r1
        for k in _window_gadgets(graph, i, j, bound):
            code = _gadget_code(i, j, k)
            if k == active:
                touched.append((code, keep if order.kind is Kind.CE else drop))
            elif k <= s:
                touched.append((code, r0))
                touched.append((code, r1))
    if order.kind is Kind.CE:
        return order.add_pairs(touched)
    return order.remove_pairs(touched)


def build_spectrum_run(
    kind: Kind, graph: LimitGraph, domain_bound: int, stages: int
) -> StagedOrder:
    need = required_stages(graph, domain_bound)
    if stages < need:
        raise InsufficientStages(f"stages {stages} below required {need}")
    order = StagedOrder(kind, build_spectrum_initial(kind, graph, domain_bound))
    for s in range(1, stages + 1):
        run_spectrum_stage(order, graph, s)
    return order


def _distinguished(
    below_r0: bool, below_r1: bool, kind: Kind
) -> bool:
    if kind is Kind.CE:
        return not (below_r0 and below_r1)
    return below_r0 or below_r1


def decode_graph(
    snapshot: Snapshot,
    kind: Kind,
    consts: Optional[SpectrumConsts] = None,
) -> FrozenSet[Tuple[int, int]]:
    """Recover the coded graph as pairs of vertex elements. Only the four
    constants need to be named; everything else is read off the order."""
    consts = consts or DEFAULT_SPECTRUM_CONSTS
    a, g, r0, r1 = consts
    m = snapshot.matrix
    n = snapshot.domain_size
    vertices = [
        x for x in range(n) if x != a and m[x, a] and not m[x, g]
    ]
    pool = [
        x for x in range(n) if x not in (a, g) and m[x, a] and m[x, g]
    ]
    edges = set()
    for ai in range(len(vertices)):
        for aj in range(ai + 1, len(vertices)):
            x, y = vertices[ai], vertices[aj]
            marked = [
                w
                for w in pool
                if m[w, x] and m[w, y] and _distinguished(m[w, r0], m[w, r1], kind)
            ]
            if not marked:
                raise NoWitness(f"no marked gadget for vertex pair ({x}, {y})")
            if len(marked) > 1:
                raise MultipleWitnesses(
                    f"gadgets {marked} all marked for vertex pair ({x}, {y})"
                )
            if m[marked[0], r1]:
                edges.add((x, y))
    return frozenset(edges)


def comparability_graph(snapshot: Snapshot) -> FrozenSet[Tuple[int, int]]:
    """Forget direction: unordered pairs related one way or the other."""
    m = snapshot.matrix
    sym = m | m.T
    out = set()
    for x, y in np.argwhere(sym):
        if x < y:
            out.add((int(x), int(y)))
    return frozenset(out)


def decode_from_comparability(
    edges: FrozenSet[Tuple[int, int]],
    kind: Kind,
    consts: Optional[SpectrumConsts] = None,
) -> FrozenSet[Tuple[int, int]]:
    """Same readout using only comparability. Neutral gadgets touch both
    flags or neither, so "adjacent to exactly one flag" is the marked
    test in both variants."""
    consts = consts or DEFAULT_SPECTRUM_CONSTS
    a, g, r0, r1 = consts
    nbr: Dict[int, set] = {}
    for x, y in edges:
        nbr.setdefault(x, set()).add(y)
        nbr.setdefault(y, set()).add(x)
    na = nbr.get(a, set())
    ng = nbr.get(g, set())
    vertices = sorted(na - ng - {g})
    pool = (na & ng) - {a, g}
    out = set()
    for ai in range(len(vertices)):
        for aj in range(ai + 1, len(vertices)):
            x, y = vertices[ai], vertices[aj]
            marked = [
                w
                for w in pool
                if w in nbr.get(x, set())
                and w in nbr.get(y, set())
                and ((w in nbr.get(r0, set())) != (w in nbr.get(r1, set())))
            ]
            if not marked:
                raise NoWitness(f"no marked gadget for vertex pair ({x}, {y})")
            if len(marked) > 1:
                raise MultipleWitnesses(
                    f"gadgets {marked} all marked for vertex pair ({x}, {y})"
                )
            if marked[0] in nbr.get(r1, set()):
                out.add((x, y))
    return frozenset(out)


class SpectrumConstruction(Construction):
    """One graph coding, as the command line drives it. Decoding needs the
    snapshot and the four constants, never the run's config."""

    consts = tuple(DEFAULT_SPECTRUM_CONSTS)
    checks_kind = True

    def build(self, plan):
        graph = graph_from_config(plan.payload)
        if plan.domain is None:
            plan.domain = required_domain_bound(graph)
        stages = plan.stages_or(required_stages(graph, plan.domain))
        return build_spectrum_run(self.kind, graph, plan.domain, stages).snapshots, None

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
