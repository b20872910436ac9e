import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from staged_orders import kernel
from staged_orders.kernel import (
    AntisymmetryViolation,
    AxiomCheck,
    BadPermutation,
    DomainLimitExceeded,
    DomainTooSmall,
    Kind,
    PosetReport,
    Replay,
    Snapshot,
    StagedOrder,
    StagedOrderError,
    TransitivityViolation,
    _compose,
    _find_transitivity_witness,
    _matrix_of,
    _strict_pairs,
    apply_permutation,
    check_monotone,
    check_partial_order,
    check_preorder,
    close_matrix,
    max_domain,
    transitive_reduction,
)

from _oracles import (
    add_pairs_reference,
    fw_close,
    is_antisymmetric,
    is_transitive,
    order_checks_reference,
    remove_pairs_reference,
)


def _matrix(pairs, n):
    m = np.eye(n, dtype=bool)
    for i, j in pairs:
        m[i, j] = True
    close_matrix(m)
    return m


def _pair_set(pairs):
    """An int (k, 2) pair array as a set of tuples."""
    return set(map(tuple, pairs.tolist()))


def _fan(with_top_pair):
    """0 below 1..256 and all of those below 257: (0, 257) has 256
    intermediates, a count that a uint8 product wraps to zero."""
    m = np.eye(258, dtype=bool)
    m[0, 1:257] = m[1:257, 257] = True
    m[0, 257] = with_top_pair
    return Snapshot(258, 0, m)


def pair_lists(max_n=8, acyclic=False):
    def pairs_for(n):
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        if acyclic:
            pair = pair.map(lambda p: (min(p), max(p))).filter(lambda p: p[0] != p[1])
        return st.tuples(st.just(n), st.lists(pair, max_size=12))

    return st.integers(min_value=2, max_value=max_n).flatmap(pairs_for)


def _closed_pairs(pairs, n):
    """The pairs of close_matrix's closure of `pairs` on n elements."""
    return {(int(i), int(j)) for i, j in np.argwhere(close_matrix(_matrix_of(pairs, n)))}


@given(pair_lists(acyclic=True))
@settings(max_examples=200, deadline=None)
def test_close_matrix_matches_reference(case):
    n, pairs = case
    assert _closed_pairs(pairs, n) == fw_close(pairs, n)


@given(pair_lists())
@settings(max_examples=200, deadline=None)
def test_close_matrix_matches_reference_with_cycles(case):
    n, pairs = case
    m = np.eye(n, dtype=bool)
    for i, j in pairs:
        m[i, j] = True
    close_matrix(m)
    closed = {(int(i), int(j)) for i, j in np.argwhere(m)}
    assert closed == fw_close(pairs, n)


@given(pair_lists(acyclic=True))
@settings(max_examples=100, deadline=None)
def test_closure_idempotent(case):
    n, pairs = case
    once = _closed_pairs(pairs, n)
    assert _closed_pairs(once, n) == once


def test_closed_cycle_fails_antisymmetry():
    closed = Snapshot(2, 0, close_matrix(_matrix_of([(0, 1), (1, 0)], 2)))
    assert check_partial_order(closed).antisymmetric.witness == (0, 1)
    with pytest.raises(AntisymmetryViolation):
        StagedOrder(Kind.CE, closed)


@pytest.mark.parametrize(
    "matrix, error, text",
    [
        (_matrix_of([(0, 1), (1, 2)], 3), TransitivityViolation,
         "transitivity violated: 0 <= 1 and 1 <= 2 but not 0 <= 2"),
        (np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=bool), StagedOrderError,
         "initial snapshot not reflexive at (0,)"),
    ],
    ids=["not transitive", "not reflexive"],
)
def test_staged_order_refuses_an_initial_snapshot_that_is_no_order(matrix, error, text):
    with pytest.raises(StagedOrderError) as caught:
        StagedOrder(Kind.COCE, Snapshot(3, 0, matrix))
    assert type(caught.value) is error and str(caught.value) == text


def test_snapshot_from_pairs_and_properties():
    snap = Snapshot.from_pairs(4, [(0, 1), (1, 2)])
    assert snap.holds(0, 1) and snap.holds(1, 2)
    assert not snap.holds(0, 2)  # from_pairs stores, it does not close
    strict = _pair_set(_strict_pairs(snap.matrix))
    assert (0, 0) in snap.pairs and (0, 1) in strict
    assert (0, 0) not in strict
    with pytest.raises(ValueError):
        snap.matrix[0, 2] = True


def test_snapshot_equality_and_stage():
    a = Snapshot.from_pairs(3, [(0, 1)])
    b = Snapshot.from_pairs(3, [(0, 1)])
    assert a == b and hash(a) == hash(b)
    later = Snapshot(3, 5, a.matrix)
    assert later.stage == 5
    assert a != later


def test_snapshot_copies_a_read_only_view_of_a_writable_array():
    """A read-only view was taken uncopied, so writing through its base
    changed an order after its constructor had checked it."""
    m = np.eye(3, dtype=bool)
    view = m[:]
    view.setflags(write=False)
    order = StagedOrder(Kind.CE, Snapshot(3, 0, view))
    m[0, 1] = m[1, 0] = True
    assert check_partial_order(order.current).passed
    frozen = np.eye(3, dtype=bool)
    frozen.setflags(write=False)
    assert Snapshot(3, 0, frozen).matrix is frozen  # owned and read-only: kept


def test_a_stage_that_changes_nothing_shares_its_matrix():
    ce = StagedOrder(Kind.CE, Snapshot.from_pairs(3, []))
    grown = ce.add_pairs([(0, 1)])
    # held and reflexive pairs; numpy ints take the pair-by-pair path
    for batch in ([], [(0, 1)], [(2, 2)], [(np.int64(0), np.int64(1))]):
        assert ce.add_pairs(batch).matrix is grown.matrix
    coce = StagedOrder(Kind.COCE, Snapshot(3, 0, close_matrix(_matrix_of([(0, 1)], 3))))
    start = coce.current
    for batch in ([], [(1, 0)], [(0, 2)]):
        assert coce.remove_pairs(batch).matrix is start.matrix
    # a history holds the delta of every stage after its first
    deltas = ce.history.deltas + coce.history.deltas
    assert [len(a) + len(r) for a, r, _ in deltas] == [1, 0, 0, 0, 0, 0, 0, 0]
    assert _changed(ce) + _changed(coce) == [1, 0, 0, 0, 0, 0, 0, 0]
    ce.add_pairs([(np.int64(1), np.int64(2))])  # grown on the pair-by-pair path
    coce.remove_pairs([(0, 1)])
    # a caller writing into a delta would change what a walk and write_run give
    deltas = ce.history.deltas + coce.history.deltas
    assert not any(a.flags.writeable or r.flags.writeable for a, r, _ in deltas)


def _changed(order):
    """The number of pairs each stage after the first added or removed."""
    stages = tuple(order.history)
    return [int((before.matrix ^ now.matrix).sum()) for before, now in zip(stages, stages[1:])]


def test_check_partial_order_witnesses():
    m = np.eye(3, dtype=bool)
    m[0, 1] = m[1, 2] = True
    report = check_partial_order(Snapshot(3, 0, m))
    assert not report.passed
    axioms = {c.axiom: c for c in report.checks()}
    assert not axioms["transitive"].passed
    assert axioms["transitive"].witness == (0, 1, 2)

    m2 = np.eye(2, dtype=bool)
    m2[0, 1] = m2[1, 0] = True
    report2 = check_partial_order(Snapshot(2, 0, m2))
    axioms2 = {c.axiom: c for c in report2.checks()}
    assert not axioms2["antisymmetric"].passed
    assert check_preorder(Snapshot(2, 0, m2)).passed

    fan = _fan(with_top_pair=False)
    assert check_partial_order(fan).transitive.witness == (0, 1, 257)
    assert not check_preorder(fan).passed


def test_reflexivity_required():
    m = np.zeros((2, 2), dtype=bool)
    report = check_preorder(Snapshot(2, 0, m))
    axioms = {c.axiom: c for c in report.checks()}
    assert not axioms["reflexive"].passed


def test_staged_order_grows_and_stages_increment():
    order = StagedOrder(Kind.CE, Snapshot.from_pairs(4, []))
    order.add_pairs([(0, 1)])
    order.add_pairs([(1, 2)])
    assert order.current.stage == 2
    assert order.current.holds(0, 2)  # added pairs are closed in
    assert [s.stage for s in order.history] == [0, 1, 2]


def test_staged_order_rejects_cycles():
    order = StagedOrder(Kind.CE, Snapshot.from_pairs(3, []))
    order.add_pairs([(0, 1), (1, 2)])
    with pytest.raises(AntisymmetryViolation):
        order.add_pairs([(2, 0)])
    # the failed call must not have committed anything
    assert order.current.stage == 1


def test_remove_pairs_catches_broken_transitivity():
    base = Snapshot(3, 0, _matrix([(0, 1), (1, 2)], 3))
    order = StagedOrder(Kind.COCE, base)
    with pytest.raises(TransitivityViolation):
        order.remove_pairs([(0, 2)])
    assert order.current.stage == 0
    removed = order.remove_pairs([(1, 2), (0, 2)])
    assert removed.stage == 1 and not removed.holds(0, 2)


def test_wrong_direction_is_rejected():
    ce = StagedOrder(Kind.CE, Snapshot.from_pairs(2, []))
    with pytest.raises(StagedOrderError):
        ce.remove_pairs([(0, 1)])
    coce = StagedOrder(Kind.COCE, Snapshot.from_pairs(2, []))
    with pytest.raises(StagedOrderError):
        coce.add_pairs([(0, 1)])


@st.composite
def add_histories(draw):
    """A domain size and up to six batches for add_pairs. Batches come as
    tuples or lists; one in four carries a pair outside the domain
    (negative, or n and beyond) at a random place."""
    n = draw(st.integers(1, 9))
    inside = st.integers(0, n - 1)
    outside = st.sampled_from([-1, -3, n, n + 2])
    history = []
    for _ in range(draw(st.integers(1, 6))):
        batch = draw(st.lists(st.tuples(inside, inside), max_size=8))
        if draw(st.integers(0, 3)) == 0:
            bad = draw(st.tuples(inside | outside, outside))
            bad = bad[::-1] if draw(st.booleans()) else bad
            batch.insert(draw(st.integers(0, len(batch))), bad)
        history.append([list(p) for p in batch] if draw(st.booleans()) else batch)
    return n, history


def _rows(matrix):
    return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in matrix]


@given(add_histories())
@example((3, [[], [(0, 1), (0, 1), (1, 1), (0, 0)], [(0, 1)], []]))  # empty, duplicate, reflexive, held
@example((4, [[(0, 1), (1, 2), (2, 0), (-1, 0)]]))  # 2-cycle mid-batch, then a negative pair
@example((4, [[[0, 1], [2, 3], [3, 0], [1, 2], [0, 4]]]))  # 2-cycle through the closure, then n
@example((4, [[(0, 1)], [(1, 2), (2, 3)], [(2, 0)]]))  # reverses a pair held through closure
@settings(max_examples=400, deadline=None)
def test_add_pairs_matches_per_pair_rules(case):
    n, history = case
    order = StagedOrder(Kind.CE, Snapshot.from_pairs(n, []))
    rows = _rows(order.current.matrix)
    for batch in history:
        before = tuple(order.history)
        want, error = add_pairs_reference(rows, batch, n)
        if error is None:
            snap = order.add_pairs(batch)
            assert _rows(snap.matrix) == want
            assert snap.stage == before[-1].stage + 1 and order.current is snap
            rows = want
        else:
            with pytest.raises(StagedOrderError) as caught:
                order.add_pairs(batch)
            assert (type(caught.value).__name__, str(caught.value)) == error
            assert tuple(order.history) == before  # a failed batch appends nothing


@st.composite
def remove_histories(draw):
    """A closed order on up to 9 elements and up to six batches for
    remove_pairs: held, missing, repeated and reflexive pairs, and in one
    batch in four a pair outside the domain or with a bool or float entry,
    at a random place."""
    n = draw(st.integers(1, 9))
    inside = st.integers(0, n - 1)
    start = close_matrix(_matrix_of(draw(st.lists(st.tuples(inside, inside).filter(
        lambda p: p[0] < p[1]), max_size=20)), n))
    held = [tuple(p) for p in np.argwhere(start & ~np.eye(n, dtype=bool)).tolist()]
    pair = st.sampled_from(held) | st.tuples(inside, inside) if held else st.tuples(inside, inside)
    outside = st.sampled_from([-1, n, n + 3, True, 1.0])
    history = []
    for _ in range(draw(st.integers(1, 6))):
        batch = draw(st.lists(pair, max_size=8))
        if draw(st.integers(0, 3)) == 0:
            bad = draw(st.tuples(inside | outside, outside))
            bad = bad[::-1] if draw(st.booleans()) else bad
            batch.insert(draw(st.integers(0, len(batch))), bad)
        history.append([list(p) for p in batch] if draw(st.booleans()) else batch)
    return n, start, history


@given(remove_histories())
@example((3, np.triu(np.ones((3, 3), bool)), [[(0, 1), (1, 1), (0, 5)], [(0, 2), (0, 1)]]))
@settings(max_examples=300, deadline=None)
def test_remove_pairs_matches_per_pair_rules(case):
    n, start, history = case
    order = StagedOrder(Kind.COCE, Snapshot(n, 0, start))
    rows = _rows(start)
    for batch in history:
        before = tuple(order.history)
        want, error = remove_pairs_reference(rows, batch, n)
        if error is None:
            snap = order.remove_pairs(batch)
            assert _rows(snap.matrix) == want
            assert snap.stage == before[-1].stage + 1 and order.current is snap
            rows = want
        else:
            with pytest.raises(StagedOrderError) as caught:
                order.remove_pairs(batch)
            assert (type(caught.value).__name__, str(caught.value)) == error
            assert tuple(order.history) == before  # a failed batch appends nothing


def _run_outcome(order, batches, one_call):
    """Apply `batches` to `order`: in one add_stages or remove_stages call,
    or in one add_pairs or remove_pairs call per batch, stopping at the
    first error. Returns the error's type and text, or None."""
    ce = order.kind is Kind.CE
    try:
        if one_call:
            (order.add_stages if ce else order.remove_stages)(batches)
        else:
            for batch in batches:
                (order.add_pairs if ce else order.remove_pairs)(batch)
    except StagedOrderError as exc:
        return type(exc), str(exc)
    return None


def _same_runs(start, batches, kind):
    """One call over every stage against one call per stage, from `start`:
    the same error, current matrix and stage, deltas and stages."""
    batched, looped = StagedOrder(kind, start), StagedOrder(kind, start)
    assert _run_outcome(batched, batches, True) == _run_outcome(looped, batches, False)
    assert np.array_equal(batched.current.matrix, looped.current.matrix)
    assert batched.current.stage == looped.current.stage
    got, want = batched.history, looped.history
    assert len(got.deltas) == len(want.deltas)
    for (g_added, g_removed, _), (w_added, w_removed, _) in zip(got.deltas, want.deltas):
        assert np.array_equal(g_added, w_added) and np.array_equal(g_removed, w_removed)
        assert g_added.dtype == g_removed.dtype == np.int64
    assert tuple(got) == tuple(want)


@given(add_histories())
@example((3, [[(np.int64(0), np.int64(1))], [(1, 2)], [(np.int64(2), 0)]]))  # numpy integers
@example((4, [[(0, 1)], [], [(1, 2), (2, 3)], [(3, 0), (0, 9)], [(0, 3)]]))  # a cycle over stages
@settings(max_examples=300, deadline=None)
def test_add_stages_matches_a_loop_of_add_pairs(case):
    n, history = case
    _same_runs(Snapshot.from_pairs(n, []), history, Kind.CE)


@given(remove_histories())
@example((3, np.triu(np.ones((3, 3), bool)), [[(0, 1)], [(np.int64(1), 2)], [], [(0, 2), (0, 0)]]))
@example((4, np.triu(np.ones((4, 4), bool)), [[(0, 2)], [(1, 3), (0, 3)], [(0, 1)]]))
@settings(max_examples=300, deadline=None)
def test_remove_stages_matches_a_loop_of_remove_pairs(case):
    n, start, history = case
    _same_runs(Snapshot(n, 0, start), history, Kind.COCE)


def test_a_run_of_stages_needs_labels_wider_than_a_byte():
    """300 stages that each add a pair, and a 2-cycle at the last: the
    labels take 16 bits, and every stage before the refused one lands."""
    n = 302
    batches = [[(k, k + 1)] for k in range(n - 2)] + [[(n - 2, 0)]]
    order = StagedOrder(Kind.CE, Snapshot.from_pairs(n, []))
    with pytest.raises(AntisymmetryViolation, match=r"^antisymmetry violated: 0 <= 300 and 300 <= 0"):
        order.add_stages(batches)
    assert order.current.stage == n - 2 and order.current.holds(0, n - 2)
    assert [len(added) for added, _, _ in order.history.deltas] == list(range(1, n - 1))
    _same_runs(Snapshot.from_pairs(n, []), batches, Kind.CE)


def _batch_outcome(monkeypatch, start, batch, n):
    """add_pairs on the closure of `start`, against add_pairs_reference:
    the outcome must agree, and a batch the kernel takes must record
    exactly the pairs it adds, sorted and unique, as its stage's delta.
    Returns whether the batch took the direct path (no label closure)."""
    order = StagedOrder(Kind.CE, Snapshot(n, 0, _matrix(start, n)))
    before = order.current.matrix
    want, error = add_pairs_reference(_rows(before), batch, n)
    pivots = []
    real = kernel._close_labels
    monkeypatch.setattr(kernel, "_close_labels", lambda m, ks, top: pivots.append(1) or real(m, ks, top))
    if error is not None:
        with pytest.raises(StagedOrderError) as caught:
            order.add_pairs(batch)
        assert (type(caught.value).__name__, str(caught.value)) == error
        return not pivots
    after = order.add_pairs(batch).matrix
    assert _rows(after) == want
    [(added, removed, _)] = order.history.deltas
    assert np.array_equal(added, np.argwhere(after & ~before)) and not removed.size
    return not pivots


@pytest.mark.parametrize(
    "start, batch, direct",
    [
        ([], [(0, 3), (1, 3), (0, 4), (0, 3)], True),  # repeated pair
        ([(0, 1), (2, 1)], [(0, 1), (0, 5), (3, 5), (3, 4)], True),  # a held pair
        ([(0, 1), (0, 2)], [(3, 1), (3, 2), (4, 5)], True),  # heads with other tails below
        ([], [(0, 1), (1, 2)], False),  # a chain: head 1 is a tail
        ([(0, 1)], [(1, 2)], False),  # tail 1 has a strict predecessor
        ([(1, 2)], [(0, 1)], False),  # head 1 has a strict successor
        ([(2, 3)], [(4, 5), (3, 4), (5, 2)], False),  # closes a 2-cycle
        ([], [(0, 1), (2, 3), (1, 0)], False),  # a 2-cycle inside the batch
    ],
)
def test_add_pairs_direct_path_only_on_closed_batches(monkeypatch, start, batch, direct):
    assert _batch_outcome(monkeypatch, start, batch, 6) is direct


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_add_pairs_direct_path_matches_per_pair_rules(data):
    """Random closed orders and batches from minimal to maximal elements,
    no head a tail: the per-pair result, by the direct path."""
    n = data.draw(st.integers(2, 9))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    start = data.draw(st.lists(pair.filter(lambda p: p[0] < p[1]), max_size=8))
    m = _matrix(start, n)
    minimal = np.flatnonzero(m.sum(axis=0) == 1).tolist()
    tails = data.draw(st.lists(st.sampled_from(minimal), min_size=1, max_size=4))
    heads = [h for h in np.flatnonzero(m.sum(axis=1) == 1).tolist() if h not in tails]
    assume(heads)
    batch = [(t, data.draw(st.sampled_from(heads))) for t in tails]
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert _batch_outcome(monkeypatch, start, batch, n)


def test_check_monotone_flags_backsliding():
    order = StagedOrder(Kind.CE, Snapshot.from_pairs(3, []))
    order.add_pairs([(0, 1), (0, 2)])
    assert check_monotone(order.history, order.kind).passed
    first = order.history.first
    # a delta written by hand may repeat and reorder the pairs it moves
    lost = np.array([[0, 2], [0, 1], [0, 2]])
    backslid = (np.empty((0, 2), np.int64), lost, {})
    history = Replay(first, [*order.history.deltas, backslid], first._next(first.matrix, {}, 2))
    bad = check_monotone(history, Kind.CE)
    assert not bad.passed
    assert bad.failures == ((2, (0, 1)), (2, (0, 2)))
    assert check_monotone(Replay(None, (), None), Kind.CE).passed


def test_random_histories_are_monotone_and_posets():
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randrange(2, 9)
        order = StagedOrder(Kind.CE, Snapshot.from_pairs(n, []))
        for _ in range(6):
            u, v = rng.randrange(n), rng.randrange(n)
            try:
                order.add_pairs([(u, v)])
            except StagedOrderError:
                pass
        for snap in order.history:
            rel = snap.pairs
            assert is_transitive(rel, n) and is_antisymmetric(rel)
        assert check_monotone(order.history, order.kind).passed


@pytest.mark.parametrize(
    "bad", [(True, 2), (2, False), (0.0, 1), (1, 2.0), ("0", 1), (np.bool_(True), 1), (None, 0)]
)
def test_pair_entries_must_be_integers(bad):
    """A bool entry was read as a mask: (True, 2) put all of column 2 into a
    snapshot, and add_pairs and remove_pairs raised numpy's ambiguous truth
    ValueError. A float entry raised IndexError and a string TypeError.
    Pairs are checked in the order given, so the first bad one is named."""
    text = f"pair ({bad[0]!r}, {bad[1]!r}) must hold two integers"
    coce = StagedOrder(Kind.COCE, Snapshot(3, 0, close_matrix(_matrix_of([(0, 1), (1, 2)], 3))))
    ce = StagedOrder(Kind.CE, Snapshot.from_pairs(3, []))
    for make in (lambda pairs: Snapshot.from_pairs(3, pairs), ce.add_pairs, coce.remove_pairs):
        with pytest.raises(StagedOrderError) as caught:
            make([(1, 2), bad, (0, 3)])
        assert type(caught.value) is StagedOrderError and str(caught.value) == text
        with pytest.raises(DomainTooSmall, match=r"^pair \(0, 3\) outside domain of size 3$"):
            make([(1, 2), (0, 3), bad])
    assert ce.current.stage == coce.current.stage == 0
    assert coce.remove_pairs([(np.int64(1), 2)]).stage == 1  # numpy integers are integers


def test_apply_permutation_relabels():
    snap = Snapshot.from_pairs(3, [(0, 1), (0, 2), (1, 2)], stage=4, labels={0: "x"})
    moved = apply_permutation(snap, [2, 0, 1])
    assert moved.holds(2, 0) and moved.holds(0, 1) and moved.holds(2, 1)
    assert moved.labels[2] == "x"
    assert moved.stage == snap.stage
    back = apply_permutation(moved, [1, 2, 0])
    assert back == snap
    assert apply_permutation(snap, np.array([2, 0, 1])) == moved


@pytest.mark.parametrize("perm", [[True, False, 2], [0.0, 2.0, 1.0], [0, 1], [0, 1, 1]])
def test_apply_permutation_refuses_what_is_not_a_permutation_of_integers(perm):
    snap = Snapshot.from_pairs(3, [(0, 1)], labels={0: "x"})
    with pytest.raises(BadPermutation):
        apply_permutation(snap, perm)


@pytest.mark.parametrize(
    "perm",
    [
        [0, 0, 1],
        [0, -1, 2],
        [0, 1, 3],
        [0, 1],
        [0, 1, 2, 3],
        [True, False, 2],
        [0, 1.0, 2],
        [0, 1, 2**70],
        [-(2**70), 0, 1],
        np.array([0, 0, 1]),
        np.array([0.0, 2.0, 1.0]),
        np.array([True, False, True]),
    ],
    ids=["duplicate", "negative", "out of range", "short", "long", "bool", "float",
         "beyond int64", "below int64", "array duplicate", "float array", "bool array"],
)
def test_apply_permutation_refusals_keep_their_text(perm):
    snap = Snapshot.from_pairs(3, [(0, 1)], labels={0: "x"})
    with pytest.raises(BadPermutation) as caught:
        apply_permutation(snap, perm)
    assert str(caught.value) == "not a permutation of 0..2"


def test_transitive_reduction_covers():
    snap = Snapshot(4, 0, _matrix([(0, 1), (1, 2), (2, 3)], 4))
    assert _pair_set(transitive_reduction(snap)) == {(0, 1), (1, 2), (2, 3)}
    covers = {(0, i) for i in range(1, 257)} | {(i, 257) for i in range(1, 257)}
    assert _pair_set(transitive_reduction(_fan(with_top_pair=True))) == covers


def test_max_domain_env(monkeypatch):
    monkeypatch.setenv("STAGED_ORDERS_MAX_DOMAIN", "10")
    assert max_domain() == 10
    with pytest.raises(DomainLimitExceeded):
        Snapshot.from_pairs(11, [])
    monkeypatch.setenv("STAGED_ORDERS_MAX_DOMAIN", "banana")
    with pytest.raises(DomainLimitExceeded):
        max_domain()


@pytest.mark.parametrize(
    "pairs, culprit",
    [
        ([(0, 1), (-1, 2), (0, 5)], "(-1, 2)"),
        ([(0, 1), (1, 3), (-1, 2)], "(1, 3)"),
        ([[2, 0], [0, -5]], "(0, -5)"),
        ([[0, 2], [0, 2**63], [3, 0]], "(0, 9223372036854775808)"),
        ([[-(2**63) - 1, 0]], "(-9223372036854775809, 0)"),
    ],
)
def test_matrix_of_names_the_first_pair_outside_the_domain(pairs, culprit):
    message = f"pair {culprit} outside domain of size 3"
    for build in (
        lambda: _matrix_of(iter(pairs), 3),
        lambda: Snapshot.from_pairs(3, pairs),
    ):
        with pytest.raises(DomainTooSmall) as caught:
            build()
        assert str(caught.value) == message


def test_matrix_of_empty_and_irreflexive():
    assert np.array_equal(_matrix_of([], 3), np.eye(3, dtype=bool))
    assert _matrix_of([], 0).shape == (0, 0)
    snap = Snapshot.from_pairs(3, [(2, 0), (0, 1), (2, 0), (1, 1)])
    assert snap.pairs == {(0, 0), (0, 1), (1, 1), (2, 0), (2, 2)}


def test_matrix_of_checks_the_cap_before_allocating(monkeypatch):
    def untouched():
        raise AssertionError("the pairs were read")
        yield

    def allocate(*args, **kwargs):
        raise AssertionError("a matrix was allocated")

    monkeypatch.setenv("STAGED_ORDERS_MAX_DOMAIN", "10")
    monkeypatch.setattr(np, "zeros", allocate)
    with pytest.raises(DomainLimitExceeded):
        _matrix_of(untouched(), 11)
    with pytest.raises(DomainLimitExceeded):
        Snapshot.from_pairs(11, untouched())


def _witness_reference(m):
    """The first missing pair of the full product m.m, and its least middle."""
    missing = np.argwhere(_compose(m, m) & ~m)
    if not missing.size:
        return None
    i, k = missing[0].tolist()
    return (i, int(np.flatnonzero(m[i] & m[:, k])[0]), k)


def _reduction_reference(m):
    strict = m & ~np.eye(len(m), dtype=bool)
    return frozenset(map(tuple, np.argwhere(strict & ~_compose(strict, strict)).tolist()))


@st.composite
def relations(draw, order=False):
    """A random relation on up to 40 elements, drawn from a seed: any
    density, acyclic or not, with planted 2-cycles, any diagonal, closed
    and then broken at a few pairs. With order=True, a closed partial order."""
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.03, 0.1, 0.3, 0.7]))
    if order or draw(st.booleans()):  # acyclic: pairs only go up a random ranking
        rank = rng.permutation(n)
        m &= rank[:, None] < rank[None, :]
    for _ in range(0 if order or n < 2 else draw(st.integers(0, 2))):
        i, j = rng.choice(n, 2, replace=False)
        m[i, j] = m[j, i] = True
    diagonal = "reflexive" if order else draw(st.sampled_from(["reflexive", "irreflexive", "random"]))
    if diagonal != "random":
        np.fill_diagonal(m, diagonal == "reflexive")
    if order or draw(st.booleans()):
        close_matrix(m)
        for _ in range(0 if order else draw(st.integers(0, 3))):
            held = np.argwhere(m & ~np.eye(n, dtype=bool))
            if len(held):
                i, j = held[rng.integers(len(held))]
                m[i, j] = False
    return m


@given(relations(), st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_transitivity_witness_matches_the_full_product(m, window):
    assert _find_transitivity_witness(m) == _witness_reference(m)
    view = m[:window, :window]  # a strided window, as the family speedup passes it
    assert _find_transitivity_witness(view) == _witness_reference(view.copy())
    snap = Snapshot(len(m), 0, m)
    if check_partial_order(snap).passed:
        assert _pair_set(transitive_reduction(snap)) == _reduction_reference(m)
    else:
        with pytest.raises(StagedOrderError):
            transitive_reduction(snap)


@given(relations(order=True))
@settings(max_examples=200, deadline=None)
def test_transitive_reduction_matches_the_full_product(m):
    assert _pair_set(transitive_reduction(Snapshot(len(m), 0, m))) == _reduction_reference(m)


def test_compositions_on_a_sparse_300_element_order():
    rng = np.random.default_rng(300)
    m = np.triu(rng.random((300, 300)) < 0.004, 1) | np.eye(300, dtype=bool)
    close_matrix(m)
    covers = transitive_reduction(Snapshot(300, 0, m))
    assert _pair_set(covers) == _reduction_reference(m)
    assert _find_transitivity_witness(m) is None
    implied = np.argwhere(m & ~np.eye(300, dtype=bool) & ~_matrix_of(covers, 300))
    assert len(implied)
    for i, k in implied[:: max(1, len(implied) // 5)].tolist():
        broken = m.copy()
        broken[i, k] = False
        assert _find_transitivity_witness(broken) == _witness_reference(broken)
        for window in (1, 37, 150, 299):
            view = broken[:window, :window]
            assert _find_transitivity_witness(view) == _witness_reference(view.copy())


def _expected_report(m, antisymmetric):
    return PosetReport(*(AxiomCheck(*check) for check in order_checks_reference(m.tolist(), antisymmetric)))


def _assert_checks_match_the_reference(m):
    """Both checks give the reference's report, field for field; repr
    also tells a numpy integer in a witness from a Python one."""
    snap = Snapshot(len(m), 0, m)
    assert repr(check_partial_order(snap)) == repr(_expected_report(m, True))
    assert repr(check_preorder(snap)) == repr(_expected_report(m, False))


@given(relations())
@settings(max_examples=300, deadline=None)
def test_order_checks_match_the_pure_python_reference(m):
    _assert_checks_match_the_reference(m)


def _large_relations():
    """Relations above 256 elements, where a uint8 count would wrap: the
    fan with and without its top pair, a sparse order, and that order
    with a 2-cycle, a broken pair and a missing diagonal entry."""
    rng = np.random.default_rng(257)
    order = np.triu(rng.random((300, 300)) < 0.01, 1) | np.eye(300, dtype=bool)
    close_matrix(order)
    cycle, broken, unreflexive = order.copy(), order.copy(), order.copy()
    i, k = np.argwhere(order & ~np.eye(300, dtype=bool) & ~_matrix_of(transitive_reduction(
        Snapshot(300, 0, order)), 300))[7]
    cycle[k, i] = True
    broken[i, k] = False
    unreflexive[299, 299] = False
    return [_fan(False).matrix, _fan(True).matrix, order, cycle, broken, unreflexive]


@pytest.mark.parametrize("index", range(6))
def test_order_checks_match_the_pure_python_reference_above_256(index):
    _assert_checks_match_the_reference(_large_relations()[index])


def _stage_orders():
    """StagedOrders of every construction that builds one, and two driven
    by hand through empty, held, fresh and pair-by-pair batches."""
    from staged_orders import jump, sigma2, spectrum

    from _generators import random_sigma2_config

    graph = spectrum.LimitGraph(4, [(0, 1), (1, 3)], {(0, 2): (1, 3), (1, 3): (2,)})
    domain = spectrum.required_domain_bound(graph)
    stages = spectrum.required_stages(graph, domain)
    orders = [spectrum.build_spectrum_run(kind, graph, domain, stages) for kind in Kind]
    pred = sigma2.predicate_from_config(random_sigma2_config(random.Random(3), 4))
    bound = sigma2.required_domain_bound(pred)
    orders.append(sigma2.build_run(pred, bound, sigma2.stabilization_stage(pred, bound) + 1)[0])
    sched = jump.EnumerationSchedule(((3, 4), (1, 6), (7, 9)))
    orders += [jump.build_cochain_order(sched, 12, 10), jump.build_antichain_order(sched, 12, 10)]
    ce = StagedOrder(Kind.CE, Snapshot.from_pairs(5, [], labels={0: "x"}))
    for batch in ([], [(0, 1)], [(0, 1)], [(np.int64(1), np.int64(2))], [(3, 4), (2, 3)], []):
        ce.add_pairs(batch)
    coce = StagedOrder(Kind.COCE, Snapshot(5, 0, np.triu(np.ones((5, 5), bool)), {4: "y"}))
    for batch in ([], [(3, 4), (2, 4), (1, 4), (0, 4)], [(1, 0)], [(0, 2), (0, 1), (0, 3)], []):
        coce.remove_pairs(batch)
    return orders + [ce, coce]


def test_stage_snapshots_are_frozen_owned_and_hold_their_own_labels():
    """Every stage an order appends, and every stage a walk of its history
    gives: a read-only matrix that owns its data, or the stage before's
    own matrix when the stage changed nothing; equal to the same stage
    built through the public constructor; labels in a dict of its own."""
    for order in _stage_orders():
        walks = [list(order.history), list(order.history)]
        appended = [walks[0][0]]
        replayed = StagedOrder(order.kind, walks[0][0])
        for before, after in zip(walks[0], walks[0][1:]):
            changed = np.argwhere(before.matrix ^ after.matrix).tolist()
            if order.kind is Kind.CE:
                appended.append(replayed.add_pairs(changed))
            else:
                appended.append(replayed.remove_pairs(changed))
        for stages in walks + [appended]:
            assert len(stages) == len(order.history)
            for before, snap in zip([None] + stages, stages):
                m = snap.matrix
                assert not m.flags.writeable
                assert m.flags.owndata or (before is not None and m is before.matrix)
                assert snap == Snapshot(snap.domain_size, snap.stage, m, snap.labels)
                if before is not None:
                    assert snap.labels is not before.labels
                    assert snap.labels == before.labels
                    before.labels[-1] = "changed"
                    assert -1 not in snap.labels
                    del before.labels[-1]
        assert walks[0][-1] == order.current  # rebuilt from its delta, as every stage is
