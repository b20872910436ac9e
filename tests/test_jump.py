import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from staged_orders.jump import (
    EnumerationSchedule,
    InvalidAntichain,
    InvalidChain,
    WitnessReport,
    build_antichain_order,
    build_cochain_order,
    decode_antichain,
    decode_chain,
    finite_chain_witness,
    greedy_antichain,
    no_infinite_antichain_witness,
    schedule_from_config,
)
from staged_orders.kernel import (
    ConfigError,
    Kind,
    Snapshot,
    StagedOrder,
    check_monotone,
    check_partial_order,
)
from staged_orders.solvers import longest_chain

from _generators import random_schedule_config
from _oracles import jump_batches_reference, longest_chain_length


def test_schedule_bookkeeping():
    sched = EnumerationSchedule(((0, 2), (3, 5)))
    assert sched.members(1) == frozenset()
    assert sched.members(2) == {0}
    assert sched.members(5) == {0, 3}
    assert sched.prefix(2, 4) == (1, 0, 0, 0)
    assert sched.prefix(5, 4) == (1, 0, 0, 1)
    assert sched.t(1) == 2 and sched.t(0) == 0 and sched.t(4) == 5
    assert sched.max_entry_stage == 5
    assert sched.true_prefix(2) == (1, 0)
    with pytest.raises(ConfigError):
        EnumerationSchedule(((0, 1), (0, 2)))


def test_single_entry_example():
    sched = EnumerationSchedule(((0, 2),))
    order = build_cochain_order(sched, 4, 5)
    final = order.current
    # the stage-2 window (0, 2] loses its interior comparability
    assert not final.holds(1, 2)
    for pair in ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3)):
        assert final.holds(*pair)
    # stage bound: snapshots at stages 0..5, removal happened entering stage 2
    assert tuple(order.history)[1].holds(1, 2)
    assert not tuple(order.history)[2].holds(1, 2)


def test_budget_must_reach_the_last_entry():
    sched = EnumerationSchedule(((0, 9),))
    with pytest.raises(ConfigError):
        build_cochain_order(sched, 4, 5)
    with pytest.raises(ConfigError):
        build_antichain_order(sched, 4, 5)


def test_histories_are_clean():
    cfg = {"entries": [[0, 3], [2, 6], [1, 9]]}
    sched = schedule_from_config(cfg)
    for build in (build_cochain_order, build_antichain_order):
        order = build(sched, 12, 10)
        assert check_monotone(order.history, order.kind).passed
        for snap in order.history:
            assert check_partial_order(snap).passed


@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_builds_match_the_stage_by_stage_loop(seed, n, stages):
    """Each order, its stages scheduled from the entries and applied in one
    call, is the order of one kernel call per stage of the loop that scans
    every entry at every stage: the same stages and deltas."""
    sched = schedule_from_config(random_schedule_config(random.Random(seed), n, 6, stages))
    for kind, build in ((Kind.COCE, build_cochain_order), (Kind.CE, build_antichain_order)):
        got = build(sched, n, stages).history
        loop = StagedOrder(kind, got.first)
        step = loop.add_pairs if kind is Kind.CE else loop.remove_pairs
        for batch in jump_batches_reference(sched.entries, n, stages):
            step(batch)
        want = loop.history
        assert got.last == want.last and len(got) == len(want) == stages + 1
        for (g_added, g_removed, _), (w_added, w_removed, _) in zip(got.middle, want.middle):
            assert np.array_equal(g_added, w_added) and np.array_equal(g_removed, w_removed)


def test_decode_chain_on_the_single_entry_example():
    sched = EnumerationSchedule(((0, 2),))
    snap = build_cochain_order(sched, 4, 5).current
    assert decode_chain(snap, (0, 1, 3), sched, 1) == (1,)
    assert decode_chain(snap, (0, 2, 3), sched, 1) == (1,)
    with pytest.raises(InvalidChain):
        decode_chain(snap, (0, 1), sched, 1)  # too short
    with pytest.raises(InvalidChain):
        decode_chain(snap, (1, 2, 3), sched, 1)  # 1 and 2 are incomparable


def test_decode_antichain_on_the_dual():
    sched = EnumerationSchedule(((0, 2),))
    snap = build_antichain_order(sched, 4, 5).current
    assert snap.holds(1, 2)
    assert decode_antichain(snap, (0, 1, 3), sched, 1) == (1,)
    with pytest.raises(InvalidAntichain):
        decode_antichain(snap, (0, 1, 2), sched, 1)  # 1, 2 comparable
    with pytest.raises(InvalidAntichain):
        decode_antichain(snap, (1, 0, 3), sched, 1)  # not increasing


def _all_chains(snap, cap_len):
    n = snap.domain_size
    out = []

    def extend(chain):
        if len(chain) >= 2:
            out.append(tuple(chain))
        if len(chain) == cap_len:
            return
        start = chain[-1] + 1 if chain else 0
        for x in range(start, n):
            if not chain or snap.holds(chain[-1], x):
                chain.append(x)
                extend(chain)
                chain.pop()

    extend([])
    return out


def test_every_chain_and_antichain_decodes_exactly():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(4, 12)
        stages = rng.randrange(1, 15)
        cfg = random_schedule_config(rng, n, 3, stages)
        sched = schedule_from_config(cfg)
        co = build_cochain_order(sched, n, stages).current
        ce = build_antichain_order(sched, n, stages).current
        for chain in _all_chains(co, 5):
            for i in range(len(chain) - 1):
                assert decode_chain(co, chain, sched, i) == sched.prefix(stages, i)
        for size in (2, 3, 4):
            for ac in itertools.combinations(range(n), size):
                if all(
                    not ce.holds(x, y) and not ce.holds(y, x)
                    for x, y in itertools.combinations(ac, 2)
                ):
                    for i in range(size - 1):
                        assert decode_antichain(ce, ac, sched, i) == sched.prefix(
                            stages, i
                        )


def test_witness_reports():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(3, 30)
        stages = rng.randrange(1, 40)
        sched = schedule_from_config(random_schedule_config(rng, n, 4, stages))
        co = build_cochain_order(sched, n, stages)
        assert no_infinite_antichain_witness(co.current, sched).passed
        ce = build_antichain_order(sched, n, stages)
        report = finite_chain_witness(ce.current, sched, stages)
        assert report.passed
        # cross-check the chain length claim against a dumb DP
        snap = ce.current
        assert len(longest_chain(snap)) == longest_chain_length(snap.holds, n)


def test_witness_reports_name_what_breaks_them():
    flat = Snapshot.from_pairs(3, [])
    # entry (0, 1): t(0) = 0 and t(1) = t(2) = 1, so 0 must be below 1 and 2, and 1 below 2
    sched = EnumerationSchedule(((0, 1),))
    assert no_infinite_antichain_witness(flat, sched) == WitnessReport(
        False, ((0, 1), (0, 2), (1, 2)))
    # no entry opens a window, so the longest chain is predicted to be one element
    line = Snapshot.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
    assert finite_chain_witness(line, EnumerationSchedule(()), 4) == WitnessReport(False, ((3, 1),))
    assert finite_chain_witness(Snapshot.from_pairs(0, []), sched, 4) == WitnessReport(True, ())


def test_greedy_antichain_is_an_antichain():
    sched = EnumerationSchedule(((0, 4), (1, 6)))
    snap = build_antichain_order(sched, 10, 8).current
    picks = greedy_antichain(snap)
    assert len(picks) >= 2
    for x, y in itertools.combinations(picks, 2):
        assert not snap.holds(x, y) and not snap.holds(y, x)


def test_config_round_trip():
    sched = EnumerationSchedule(((0, 7), (4, 2)))
    assert schedule_from_config({"entries": [[0, 7], [4, 2]]}) == sched
