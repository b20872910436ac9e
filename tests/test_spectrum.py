import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from staged_orders.kernel import (
    ConfigError,
    DomainTooSmall,
    Kind,
    Snapshot,
    StagedOrder,
    apply_permutation,
    check_monotone,
    check_partial_order,
    close_matrix,
)
from staged_orders.roles import spectrum_gadget_code, spectrum_vertex_code
from staged_orders.spectrum import (
    DEFAULT_SPECTRUM_CONSTS,
    InsufficientStages,
    LimitGraph,
    MultipleWitnesses,
    NoWitness,
    SpectrumConsts,
    _windows,
    build_spectrum_initial,
    build_spectrum_run,
    comparability_graph,
    decode_from_comparability,
    decode_graph,
    element_to_vertex,
    graph_from_config,
    required_domain_bound,
    required_stages,
)

from _generators import random_limit_graph_config, random_permutation
from _oracles import required_stages_reference, spectrum_batches_reference


def test_value_follows_the_flip_schedule():
    g = LimitGraph(2, [(0, 1)], {(0, 1): (2, 4)})
    # two flips still ahead leave the start at the target
    assert [g.value(0, 1, s) for s in range(6)] == [1, 1, 0, 0, 1, 1]
    assert g.modulus(0, 1) == 4
    assert [g.active_index(0, 1, s) for s in range(6)] == [0, 0, 2, 2, 4, 4]

    h = LimitGraph(2, [], {(0, 1): (1,)})
    assert [h.value(0, 1, s) for s in range(3)] == [1, 0, 0]


def test_value_and_active_index_match_a_scan_of_the_schedule():
    """Both bisect the sorted schedule; a scan of every flip is the reference."""
    rng = random.Random(11)
    for _ in range(300):
        fl = tuple(sorted(rng.sample(range(1, 30), rng.randint(0, 8))))
        target = rng.random() < 0.5
        g = LimitGraph(2, [(0, 1)] if target else [], {(0, 1): fl})
        for s in range(32):
            passed = [t for t in fl if t <= s]
            assert g.value(0, 1, s) == int(target) ^ (len(fl) % 2) ^ (len(passed) % 2)
            assert g.active_index(0, 1, s) == (passed[-1] if passed else 0)


def test_graph_validation():
    with pytest.raises(ConfigError):
        LimitGraph(2, [(1, 0)])
    with pytest.raises(ConfigError):
        LimitGraph(3, [], {(0, 1): (0,)})  # flips start at stage 1
    with pytest.raises(ConfigError):
        LimitGraph(3, [], {(0, 1): (2, 2)})
    with pytest.raises(ConfigError):
        graph_from_config({"n": 2, "edges": [], "flips": {"zero": [1]}})


def test_single_flip_trace():
    g = LimitGraph(2, [(0, 1)], {(0, 1): (2,)})
    dom = required_domain_bound(g)
    stages = required_stages(g, dom)
    ce = build_spectrum_run(Kind.CE, g, dom, stages).current
    m = ce.matrix
    r0, r1 = DEFAULT_SPECTRUM_CONSTS.r0, DEFAULT_SPECTRUM_CONSTS.r1
    # rung 0 carried "non-edge" before the flip, then got neutralized
    assert m[spectrum_gadget_code(0, 1, 0), r0] and m[spectrum_gadget_code(0, 1, 0), r1]
    # rung 2 carries the final "edge" mark
    assert m[spectrum_gadget_code(0, 1, 2), r1] and not m[spectrum_gadget_code(0, 1, 2), r0]

    coce = build_spectrum_run(Kind.COCE, g, dom, stages).current
    mc = coce.matrix
    assert not mc[spectrum_gadget_code(0, 1, 0), r0] and not mc[spectrum_gadget_code(0, 1, 0), r1]
    assert mc[spectrum_gadget_code(0, 1, 2), r1] and not mc[spectrum_gadget_code(0, 1, 2), r0]


def test_bounds_are_enforced():
    g = LimitGraph(3, [(0, 1)], {(1, 2): (3,)})
    dom = required_domain_bound(g)
    with pytest.raises(DomainTooSmall):
        build_spectrum_run(Kind.CE, g, dom - 1, 20)
    with pytest.raises(InsufficientStages):
        build_spectrum_run(Kind.CE, g, dom, required_stages(g, dom) - 1)


def test_domain_bound_holds_every_vertex_and_every_pair_at_its_modulus():
    rng = random.Random(17)
    for _ in range(300):
        g = graph_from_config(random_limit_graph_config(rng, rng.randrange(0, 9), p_flip=0.2))
        codes = [spectrum_vertex_code(i) for i in range(g.n)] + [
            spectrum_gadget_code(i, j, g.modulus(i, j))
            for i, j in itertools.combinations(range(g.n), 2)
        ]
        assert required_domain_bound(g) == max([3] + codes) + 1


def test_histories_are_clean_posets():
    g = LimitGraph(3, [(0, 2)], {(0, 1): (1, 3), (1, 2): (2,)})
    dom = required_domain_bound(g)
    stages = required_stages(g, dom)
    for kind in (Kind.CE, Kind.COCE):
        order = build_spectrum_run(kind, g, dom, stages)
        assert check_monotone(order.history, order.kind).passed
        for snap in order.history:
            assert check_partial_order(snap).passed


@st.composite
def spectrum_runs(draw):
    """A kind, a graph of 2-6 vertices with flips, a domain (the required
    one or larger) and a stage count (the required one or more)."""
    n = draw(st.integers(2, 6))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for p in pairs if draw(st.booleans())]
    flips = {}
    for p in pairs:
        stages = draw(st.lists(st.integers(1, 6), max_size=3, unique=True))
        if stages:
            flips[p] = tuple(sorted(stages))
    graph = LimitGraph(n, edges, flips)
    domain = required_domain_bound(graph) + draw(st.sampled_from([0, 0, 1, 9, 40]))
    stages = required_stages(graph, domain) + draw(st.integers(0, 3))
    return draw(st.sampled_from([Kind.CE, Kind.COCE])), graph, domain, stages


@given(spectrum_runs())
@example((Kind.CE, LimitGraph(2, [(0, 1)], {(0, 1): (1, 2, 3)}), 40, 12))  # a flip every stage
@example((Kind.COCE, LimitGraph(3, [(0, 2)], {(0, 1): (2, 5), (1, 2): (4,)}), 60, 20))
@settings(max_examples=150, deadline=None)
def test_stage_loop_matches_the_every_rung_loop(case):
    """Stage by stage, the run is the one that re-touches every rung of
    every processed pair: the same first stage, the same added and
    removed pairs at each stage, the same last stage."""
    kind, graph, domain, stages = case
    got = build_spectrum_run(kind, graph, domain, stages).history
    windows = _windows(graph, domain)
    order = StagedOrder(kind, build_spectrum_initial(kind, graph, domain, windows))
    flags = DEFAULT_SPECTRUM_CONSTS.r0, DEFAULT_SPECTRUM_CONSTS.r1
    mutate = order.add_pairs if kind is Kind.CE else order.remove_pairs
    for batch in spectrum_batches_reference(kind is Kind.CE, graph, windows, stages, flags):
        mutate(batch)
    want = order.history
    assert got.first == want.first and got.last == want.last
    assert len(got.deltas) == len(want.deltas) == stages
    for (g_added, g_removed, g_labels), (w_added, w_removed, w_labels) in zip(got.deltas, want.deltas):
        assert np.array_equal(g_added, w_added) and np.array_equal(g_removed, w_removed)
        assert g_labels == w_labels


@st.composite
def graphs_and_domains(draw):
    """A graph of 0-8 vertices with flips, and a domain from 0 to well
    past the required one."""
    n = draw(st.integers(0, 8))
    flips = {}
    for p in itertools.combinations(range(n), 2):
        stages = draw(st.lists(st.integers(1, 40), max_size=3, unique=True))
        if stages:
            flips[p] = tuple(sorted(stages))
    graph = LimitGraph(n, [], flips)
    return graph, draw(st.integers(0, required_domain_bound(graph) + 2000))


@given(graphs_and_domains())
@settings(max_examples=200, deadline=None)
def test_required_stages_matches_the_every_window_maximum(case):
    """Pair (0, 1)'s window alone gives the stage count that the last
    rung of every pair's window gives."""
    graph, domain = case
    assert required_stages(graph, domain) == required_stages_reference(graph, _windows(graph, domain))


def test_initial_snapshot_is_written_closed():
    rng = random.Random(23)
    for n in range(7):
        for _ in range(3):
            g = graph_from_config(random_limit_graph_config(rng, n))
            required = required_domain_bound(g)
            for dom in (required, required + rng.randrange(1, 160)):
                for kind in (Kind.CE, Kind.COCE):
                    m = build_spectrum_initial(kind, g, dom, _windows(g, dom)).matrix
                    assert (close_matrix(m.copy()) == m).all(), (n, dom, kind)


def test_exhaustive_small_graphs_decode_exactly():
    rng = random.Random(7)
    for n in range(4):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[t] for t in range(len(pairs)) if mask >> t & 1]
            flips = {
                p: tuple(sorted(rng.sample(range(1, 4), rng.randrange(1, 3))))
                for p in pairs
                if rng.random() < 0.5
            }
            g = LimitGraph(n, edges, flips)
            dom = required_domain_bound(g)
            stages = required_stages(g, dom)
            want = frozenset((spectrum_vertex_code(i), spectrum_vertex_code(j)) for i, j in edges)
            for kind in (Kind.CE, Kind.COCE):
                snap = build_spectrum_run(kind, g, dom, stages).current
                assert decode_graph(snap, kind) == want
                comp = comparability_graph(snap)
                assert decode_from_comparability(comp, kind) == want


def test_decode_survives_relabeling():
    g = LimitGraph(4, [(0, 1), (2, 3)], {(0, 1): (2,), (1, 3): (1, 2)})
    dom = required_domain_bound(g)
    stages = required_stages(g, dom)
    rng = random.Random(19)
    for kind in (Kind.CE, Kind.COCE):
        snap = build_spectrum_run(kind, g, dom, stages).current
        base = decode_graph(snap, kind)
        for _ in range(4):
            perm = random_permutation(rng, dom)
            moved = apply_permutation(snap, perm)
            consts = SpectrumConsts(*(perm[c] for c in DEFAULT_SPECTRUM_CONSTS))
            got = decode_graph(moved, kind, consts)
            assert got == frozenset(
                tuple(sorted((perm[x], perm[y]))) for x, y in base
            )


def test_vertex_mapping():
    assert element_to_vertex(spectrum_vertex_code(0)) == 0
    assert element_to_vertex(spectrum_vertex_code(7)) == 7
    with pytest.raises(ConfigError):
        element_to_vertex(5)  # a gadget element, not a vertex


def test_decoder_flags_missing_and_duplicate_marks():
    g = LimitGraph(2, [(0, 1)], {})
    dom = spectrum_gadget_code(0, 1, 1) + 1  # room for a second rung on the pair
    stages = required_stages(g, dom)
    order = build_spectrum_run(Kind.CE, g, dom, stages)
    early = tuple(order.history)[0]
    # before any stage no rung touches a flag: nothing looks marked to the
    # shrinking reading, everything does to the growing one
    with pytest.raises(NoWitness):
        decode_graph(early, Kind.COCE)
    with pytest.raises(MultipleWitnesses):
        decode_graph(early, Kind.CE)
    edge = (spectrum_vertex_code(0), spectrum_vertex_code(1))
    assert decode_graph(order.current, Kind.CE) == frozenset({edge})


def test_config_round_trip():
    written = {"n": 4, "edges": [[0, 2], [1, 3]], "flips": {"0,1": [2], "1,3": [1, 4]}}
    g = graph_from_config(written)
    assert (g.n, g.edges) == (4, {(0, 2), (1, 3)})
    assert g.flips == {(0, 1): (2,), (1, 3): (1, 4)}


def _set_mark(m, w, kind, marked):
    """Make gadget w marked (below exactly one flag) or neutral (below
    both flags when growing, neither when shrinking)."""
    r0, r1 = DEFAULT_SPECTRUM_CONSTS.r0, DEFAULT_SPECTRUM_CONSTS.r1
    if kind is Kind.CE:
        m[w, r0], m[w, r1] = not marked, True
    else:
        m[w, r0], m[w, r1] = False, marked


# two more rungs of (1, 2) marked beside the live one
EXTRA_MARKS = [(spectrum_gadget_code(1, 2, 1), True), (spectrum_gadget_code(1, 2, 2), True)]
# the live rung of (0, 2) neutralized
LIVE_NEUTRALIZED = [(spectrum_gadget_code(0, 2, 0), False)]
# both at once
BOTH = EXTRA_MARKS[:1] + LIVE_NEUTRALIZED


def _spoiler(kind, reverse):
    """The final snapshot of a 3-vertex graph with three rungs a pair, under
    the identity or the reversing relabeling: returns the relabeling, the
    constants under it, and a function from defects to the relabeled
    snapshot with those gadgets marked or neutralized."""
    g = LimitGraph(3, [(0, 1)], {})
    dom = max(spectrum_gadget_code(i, j, 2) for i, j in itertools.combinations(range(3), 2)) + 1
    final = build_spectrum_run(kind, g, dom, required_stages(g, dom)).current
    perm = list(range(dom))[::-1] if reverse else list(range(dom))
    consts = SpectrumConsts(*(perm[c] for c in DEFAULT_SPECTRUM_CONSTS))

    def spoil(defects):
        m = final.matrix.copy()
        for w, marked in defects:
            _set_mark(m, w, kind, marked)
        return apply_permutation(Snapshot(dom, final.stage, m), perm)

    return perm, consts, spoil


@pytest.mark.parametrize("kind", [Kind.CE, Kind.COCE])
@pytest.mark.parametrize("reverse", [False, True])
def test_decoder_names_the_first_bad_pair_and_its_gadgets(kind, reverse):
    perm, consts, spoil = _spoiler(kind, reverse)

    def decode(defects):
        return decode_graph(spoil(defects), kind, consts)

    def pair(i, j):
        return tuple(sorted((perm[spectrum_vertex_code(i)], perm[spectrum_vertex_code(j)])))

    assert decode([]) == frozenset({pair(0, 1)})
    # the extra marks are listed ascending
    with pytest.raises(MultipleWitnesses) as caught:
        decode(EXTRA_MARKS)
    gadgets = sorted(perm[spectrum_gadget_code(1, 2, k)] for k in range(3))
    assert str(caught.value) == f"gadgets {gadgets} all marked for vertex pair {pair(1, 2)}"
    with pytest.raises(NoWitness) as caught:
        decode(LIVE_NEUTRALIZED)
    assert str(caught.value) == f"no marked gadget for vertex pair {pair(0, 2)}"
    # the pair first in ascending vertex order is named
    first = min(pair(0, 2), pair(1, 2))
    error = NoWitness if first == pair(0, 2) else MultipleWitnesses
    with pytest.raises(error) as caught:
        decode(BOTH)
    assert f"for vertex pair {first}" in str(caught.value)


def _named(error):
    """The vertex pair and the set of gadgets a decoder error names."""
    text = str(error)
    gadgets = re.match(r"gadgets \[([0-9, ]*)\]", text)
    found = {int(w) for w in gadgets.group(1).split(",")} if gadgets else set()
    return type(error), re.search(r"vertex pair (\(.*\))$", text).group(1), found


@pytest.mark.parametrize("kind", [Kind.CE, Kind.COCE])
@pytest.mark.parametrize("reverse", [False, True])
def test_comparability_decoder_names_the_same_pair_and_gadgets(kind, reverse):
    _, consts, spoil = _spoiler(kind, reverse)
    for defects in (EXTRA_MARKS, LIVE_NEUTRALIZED, BOTH):
        snap = spoil(defects)
        with pytest.raises((NoWitness, MultipleWitnesses)) as by_order:
            decode_graph(snap, kind, consts)
        with pytest.raises((NoWitness, MultipleWitnesses)) as by_comparability:
            decode_from_comparability(comparability_graph(snap), kind, consts)
        assert _named(by_comparability.value) == _named(by_order.value)
