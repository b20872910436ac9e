import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from staged_orders.kernel import (
    ConfigError,
    DomainTooSmall,
    Kind,
    Snapshot,
    StagedOrder,
    apply_permutation,
    check_monotone,
    check_partial_order,
)
from staged_orders.roles import sigma2_a_code, sigma2_b_code, sigma2_c_code, sigma2_decode
from staged_orders.sigma2 import (
    DEFAULT_CONSTS,
    MemberIndex,
    NonmemberIndex,
    NotFound,
    Sigma2Consts,
    SyntheticSigma2Predicate,
    _regions,
    build_initial,
    build_run,
    b_count,
    locate_sequence,
    membership_query,
    predicate_from_config,
    required_domain_bound,
    stabilization_stage,
    validate_predicate,
)

from _generators import random_permutation, random_sigma2_config
from _oracles import (
    sigma2_batches_reference,
    sigma2_member_reference,
    sigma2_regions_reference,
    sigma2_row_reference,
    sigma2_stabilization_reference,
)


def _mixed_pred():
    return SyntheticSigma2Predicate(
        (
            MemberIndex(0, ()),
            NonmemberIndex(1, 1),
            MemberIndex(2, (3, 1)),
            NonmemberIndex(2, 0),
        )
    )


def test_defeat_stages_and_truth():
    pred = _mixed_pred()
    assert pred.membership() == (True, False, True, False)
    assert pred.defeat_stage(0, 0) is None  # witness 0 defeats nothing
    assert pred.defeat_stage(2, 0) == 3 and pred.defeat_stage(2, 1) == 1
    assert pred.defeat_stage(2, 2) is None  # the surviving witness
    assert pred.defeat_stage(1, 5) == 6
    assert pred.holds(1, 5, 5) and not pred.holds(1, 5, 6)


def test_config_round_trip():
    written = {
        "indices": [
            {"i": 0, "member": True, "witness": 0, "defeats": []},
            {"i": 1, "member": False, "defeat_rule": {"offset": 1, "step": 1}},
            {"i": 2, "member": True, "witness": 2, "defeats": [3, 1]},
            {"i": 3, "member": False, "defeat_rule": {"offset": 2, "step": 0}},
        ]
    }
    assert predicate_from_config(written) == _mixed_pred()
    with pytest.raises(ConfigError):
        predicate_from_config({"indices": [{"i": 1, "member": True}]})
    with pytest.raises(ConfigError):
        predicate_from_config({"indices": [{"i": 0, "member": False}]})


def test_domain_and_horizon_validation():
    pred = _mixed_pred()
    with pytest.raises(DomainTooSmall):
        build_run(pred, required_domain_bound(pred) - 1, 5)
    narrow = SyntheticSigma2Predicate((NonmemberIndex(0, 1, horizon=2),))
    bound = required_domain_bound(narrow) + 30  # window holds > 2 b-elements
    assert b_count(bound) > 2
    with pytest.raises(ConfigError):
        validate_predicate(narrow, bound)


def test_run_is_a_shrinking_poset_history():
    pred = _mixed_pred()
    bound = required_domain_bound(pred)
    stages = stabilization_stage(pred, bound) + 2
    order, witnesses = build_run(pred, bound, stages)
    assert check_monotone(order.history, order.kind).passed
    for snap in order.history:
        assert check_partial_order(snap).passed
    assert witnesses[0] == 0
    assert witnesses[2] == 2  # two defeats, then rest


def test_membership_matches_predicate_on_shipped_style_run():
    pred = _mixed_pred()
    bound = required_domain_bound(pred)
    stages = stabilization_stage(pred, bound) + 1
    order, _ = build_run(pred, bound, stages)
    final = order.current
    got = [membership_query(final, DEFAULT_CONSTS, i) for i in range(pred.bound)]
    assert tuple(got) == pred.membership()


def test_snapshots_freeze_after_stabilization():
    pred = _mixed_pred()
    bound = required_domain_bound(pred)
    stab = stabilization_stage(pred, bound)
    order, _ = build_run(pred, bound, stab + 4)
    tail = tuple(order.history)[stab:]
    assert all(s.pairs == tail[0].pairs for s in tail)


def test_regions_partition_the_scaffolding():
    pred = _mixed_pred()
    bound = required_domain_bound(pred)
    order, _ = build_run(pred, bound, 3)
    a_set, b_set, c_set = (set(r.tolist()) for r in _regions(order.current.matrix, DEFAULT_CONSTS))
    assert sigma2_a_code(0, 0) in a_set
    assert sigma2_b_code(0) in b_set
    assert not (a_set & b_set) and not (a_set & c_set) and not (b_set & c_set)
    assert all(x > 4 for x in a_set | b_set | c_set)


def test_locate_sequence_finds_each_row():
    pred = _mixed_pred()
    bound = required_domain_bound(pred)
    stages = stabilization_stage(pred, bound) + 1
    order, _ = build_run(pred, bound, stages)
    for i in range(pred.bound):
        row = locate_sequence(order.current, DEFAULT_CONSTS, i)
        assert row == tuple(sigma2_a_code(i, k) for k in range(i + 1))
    with pytest.raises(NotFound):
        locate_sequence(order.current, DEFAULT_CONSTS, pred.bound)


def test_membership_survives_relabeling():
    pred = _mixed_pred()
    bound = required_domain_bound(pred)
    stages = stabilization_stage(pred, bound) + 1
    order, _ = build_run(pred, bound, stages)
    rng = random.Random(13)
    for _ in range(3):
        perm = random_permutation(rng, bound)
        moved = apply_permutation(order.current, perm)
        consts = Sigma2Consts(*(perm[c] for c in DEFAULT_CONSTS))
        got = [membership_query(moved, consts, i) for i in range(pred.bound)]
        assert tuple(got) == pred.membership()


def test_random_configs_decode_exactly():
    rng = random.Random(99)
    for _ in range(12):
        blob = random_sigma2_config(rng, rng.randrange(1, 6))
        pred = predicate_from_config(blob)
        bound = required_domain_bound(pred)
        stab = stabilization_stage(pred, bound)
        assert stab <= 50
        order, _ = build_run(pred, bound, stab + 1)
        got = [
            membership_query(order.current, DEFAULT_CONSTS, i)
            for i in range(pred.bound)
        ]
        assert tuple(got) == pred.membership()


@st.composite
def sigma2_budgets(draw):
    """A random predicate of one to five indices, a window from the
    required one to well past it, and a stage count from 0 to past
    stabilization."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pred = predicate_from_config(random_sigma2_config(rng, rng.randrange(1, 6)))
    bound = required_domain_bound(pred) + draw(st.sampled_from([0, 0, 1, 9, 40]))
    stages = draw(st.integers(0, stabilization_stage(pred, bound) + 3))
    return pred, bound, stages


@given(sigma2_budgets())
@settings(max_examples=200, deadline=None)
def test_stabilization_stage_matches_the_stage_by_stage_walk(case):
    """One step per defeat gives the stage that walking the witness
    dynamics one stage at a time gives."""
    pred, bound, _ = case
    count = b_count(bound)
    targets = [spec.witness if isinstance(spec, MemberIndex) else count for spec in pred.indices]
    assert stabilization_stage(pred, bound) == sigma2_stabilization_reference(pred, targets)


@given(sigma2_budgets())
@settings(max_examples=200, deadline=None)
def test_build_run_matches_the_stage_by_stage_loop(case):
    """The run scheduled from each index's defeats, in one call, is the
    run of one remove_pairs call per stage of the stage-by-stage walk:
    the same stages, deltas and last witnesses."""
    pred, bound, stages = case
    order, witnesses = build_run(pred, bound, stages)
    batches, want_witnesses = sigma2_batches_reference(pred, bound, stages, sigma2_a_code, sigma2_b_code)
    loop = StagedOrder(Kind.COCE, build_initial(bound, pred))
    for batch in batches:
        loop.remove_pairs(batch)
    assert witnesses == want_witnesses
    got, want = order.history, loop.history
    assert got.first == want.first and got.last == want.last and len(got) == len(want) == stages + 1
    for (g_added, g_removed, _), (w_added, w_removed, _) in zip(got.middle, want.middle):
        assert np.array_equal(g_added, w_added) and np.array_equal(g_removed, w_removed)


def test_stabilization_costs_defeats_not_stages():
    """A defeat at stage 2**70 is one step: the walk took one per stage."""
    member = SyntheticSigma2Predicate((MemberIndex(1, (2**70,)),))
    assert stabilization_stage(member, required_domain_bound(member)) == 2**70
    nonmember = SyntheticSigma2Predicate((NonmemberIndex(2**69, 0),))
    assert b_count(14) == 3 and stabilization_stage(nonmember, 14) == 2**69 + 2


def _outcome(call):
    """What a decoder call gives: (its value, None) or (None, the NotFound text)."""
    try:
        return call(), None
    except NotFound as exc:
        return None, str(exc)


@st.composite
def sigma2_stages(draw):
    """A stage of a random sigma2 run, maybe damaged, maybe relabeled;
    its constants; and its index count. Damage clears everything below a,
    puts A-elements below a C-element (extra links), cuts a row's link,
    or flips a few entries."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pred = predicate_from_config(random_sigma2_config(rng, rng.randrange(1, 6)))
    bound = required_domain_bound(pred) + draw(st.sampled_from([0, 0, 8]))
    order, _ = build_run(pred, bound, draw(st.integers(0, stabilization_stage(pred, bound) + 1)))
    m = order.current.matrix.copy()
    roles = {x: sigma2_decode(x)[0] for x in range(5, bound)}
    a_elems = [x for x, role in roles.items() if role == "a"]
    c_elems = [x for x, role in roles.items() if role == "c"]
    damage = draw(st.sampled_from(["none", "no A", "links", "cut", "flips"]))
    if damage == "no A":
        m[:, DEFAULT_CONSTS.a] = False
        m[DEFAULT_CONSTS.a, DEFAULT_CONSTS.a] = True
    elif damage == "links" and c_elems:
        z = draw(st.sampled_from(c_elems))
        m[draw(st.lists(st.sampled_from(a_elems), min_size=1, max_size=5)), z] = True
    elif damage == "cut" and c_elems:
        m[draw(st.sampled_from(a_elems)), draw(st.sampled_from(c_elems))] = False
    elif damage == "flips":
        for _ in range(draw(st.integers(1, 6))):
            x, y = draw(st.integers(0, bound - 1)), draw(st.integers(0, bound - 1))
            m[x, y] = not m[x, y]
    snap, consts = Snapshot(bound, 0, m), DEFAULT_CONSTS
    if draw(st.booleans()):
        perm = random_permutation(rng, bound)
        snap = apply_permutation(snap, perm)
        consts = Sigma2Consts(*(perm[c] for c in consts))
    return snap, consts, pred.bound


@given(sigma2_stages())
@settings(max_examples=200, deadline=None)
def test_row_search_and_membership_match_the_element_by_element_reference(case):
    snap, consts, count = case
    rows = snap.matrix.tolist()
    assert tuple(r.tolist() for r in _regions(snap.matrix, consts)) == sigma2_regions_reference(rows, consts)
    for i in range(-1, count + 2):
        assert _outcome(lambda: locate_sequence(snap, consts, i)) == sigma2_row_reference(rows, consts, i)
        assert _outcome(lambda: membership_query(snap, consts, i)) == sigma2_member_reference(rows, consts, i)


def test_each_refusal_names_what_is_missing():
    pred = _mixed_pred()
    bound = required_domain_bound(pred)
    final = build_run(pred, bound, stabilization_stage(pred, bound) + 1)[0].current
    no_a = final.matrix.copy()
    no_a[:, DEFAULT_CONSTS.a] = False
    no_a[DEFAULT_CONSTS.a, DEFAULT_CONSTS.a] = True
    crowded = final.matrix.copy()
    crowded[[sigma2_a_code(3, k) for k in range(4)], sigma2_c_code(3, 0)] = True
    cases = [
        (no_a, 0, f"no A-elements in a domain of {bound}"),
        (crowded, 0, f"A-element {sigma2_a_code(3, 0)} has 3 links; scaffold rows are paths"),
        (final.matrix, pred.bound, f"no row of length {pred.bound + 1} in a domain of {bound}"),
    ]
    for matrix, i, text in cases:
        snap = Snapshot(bound, 0, matrix)
        for call in (locate_sequence, membership_query):
            assert _outcome(lambda: call(snap, DEFAULT_CONSTS, i)) == (None, text)
        assert sigma2_row_reference(matrix.tolist(), DEFAULT_CONSTS, i) == (None, text)


def test_row_memo_answers_each_snapshot_and_constants_for_themselves():
    """A decode reads every row of one snapshot, so the scaffold read is
    kept for the last snapshot and constants asked for. Interleaving two
    stages, two distinct but equal snapshots, two sets of constants and
    snapshots the decoder refuses must give every call its own answer."""
    rng = random.Random(11)
    pred = predicate_from_config(random_sigma2_config(rng, 4))
    bound = required_domain_bound(pred)
    stages = list(build_run(pred, bound, stabilization_stage(pred, bound) + 1)[0].history)
    first, last = stages[0], stages[-1]
    twin = Snapshot(bound, last.stage, last.matrix.copy())
    perm = random_permutation(rng, bound)
    moved = apply_permutation(last, perm)
    moved_consts = Sigma2Consts(*(perm[c] for c in DEFAULT_CONSTS))
    no_a = last.matrix.copy()
    no_a[:, DEFAULT_CONSTS.a] = False
    no_a[DEFAULT_CONSTS.a, DEFAULT_CONSTS.a] = True
    refused = Snapshot(bound, 0, no_a)
    cases = [(first, DEFAULT_CONSTS), (last, DEFAULT_CONSTS), (refused, DEFAULT_CONSTS),
             (twin, DEFAULT_CONSTS), (moved, moved_consts), (moved, DEFAULT_CONSTS),
             (last, moved_consts), (refused, DEFAULT_CONSTS)]
    answers = set()
    for i in range(-1, pred.bound + 1):
        for snap, consts in cases + cases[::-1]:
            rows = snap.matrix.tolist()
            row = _outcome(lambda: locate_sequence(snap, consts, i))
            assert row == sigma2_row_reference(rows, consts, i)
            member = _outcome(lambda: membership_query(snap, consts, i))
            assert member == sigma2_member_reference(rows, consts, i)
            answers.add(member)
    # the cases differ: a kept answer given to the wrong call would show
    assert {(True, None), (False, None)} <= answers
    assert (None, f"no A-elements in a domain of {bound}") in answers
