import random

import numpy as np
import pytest

from staged_orders import solvers
from staged_orders.kernel import Snapshot, check_partial_order, close_matrix
from staged_orders.solvers import (
    NotPartialOrder,
    NotTotal,
    NotTotalPreorder,
    ceil_sqrt,
    condense,
    longest_chain,
    pigeonhole_extract,
    solve_ads,
    solve_ads_preorder,
    solve_cac,
)

from _generators import (
    random_linear_order,
    random_poset,
    random_preorder,
    random_total_preorder,
)
from _oracles import (
    antichain_valid,
    chain_valid,
    lds_length,
    lis_length,
    longest_chain_length,
    sequence_valid,
)


def _linear_from_ranks(ranks):
    n = len(ranks)
    m = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            m[i, j] = ranks[i] <= ranks[j]
    return Snapshot(n, 0, m)


def test_ceil_sqrt_values():
    assert [ceil_sqrt(n) for n in (0, 1, 2, 4, 5, 9, 10, 16, 17)] == [
        0, 1, 2, 2, 3, 3, 4, 4, 5,
    ]


def test_ads_on_a_known_permutation():
    lin = _linear_from_ranks([2, 0, 3, 1, 4])
    sol = solve_ads(lin)
    assert sol.direction == "ascending"
    assert len(sol.elements) == 3
    assert sequence_valid(lin, sol.direction, sol.elements)


def test_ads_prefers_the_longer_direction():
    lin = _linear_from_ranks([4, 3, 2, 1, 0])
    sol = solve_ads(lin)
    assert sol.direction == "descending"
    assert len(sol.elements) == 5
    assert sequence_valid(lin, "descending", sol.elements)


def test_ads_rejects_partial_inputs():
    m = np.eye(3, dtype=bool)
    m[0, 1] = True
    with pytest.raises(NotTotal) as exc:
        solve_ads(Snapshot(3, 0, m))
    assert (exc.value.i, exc.value.j) in ((0, 2), (1, 2))


def test_ads_matches_dp_oracle_on_random_orders():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randrange(1, 30)
        lin = random_linear_order(rng, n)
        ranks = list(np.sum(lin.matrix, axis=0) - 1)
        sol = solve_ads(lin)
        best = max(lis_length(ranks), lds_length(ranks))
        assert len(sol.elements) == best
        assert len(sol.elements) >= ceil_sqrt(n)
        assert sequence_valid(lin, sol.direction, sol.elements)


def test_sequence_valid_catches_lies():
    lin = _linear_from_ranks([2, 0, 3, 1, 4])
    assert not sequence_valid(lin, "ascending", (1, 0))  # not naturally sorted
    assert not sequence_valid(lin, "ascending", (0, 3))  # 0 is above 3
    assert sequence_valid(lin, "descending", (0, 3))


def test_longest_chain_matches_dp():
    rng = random.Random(29)
    for _ in range(80):
        n = rng.randrange(1, 22)
        poset = random_poset(rng, n, p=rng.choice([0.1, 0.3, 0.6]))
        chain = longest_chain(poset)
        assert chain_valid(poset, chain)
        assert len(set(chain)) == len(chain)
        assert len(chain) == longest_chain_length(poset.holds, n)


def test_cac_meets_the_sqrt_floor():
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randrange(1, 26)
        poset = random_poset(rng, n, p=rng.choice([0.05, 0.2, 0.5, 0.9]))
        sol = solve_cac(poset)
        assert len(sol.elements) >= ceil_sqrt(n)
        if sol.kind == "chain":
            assert chain_valid(poset, sol.elements)
        else:
            assert sol.kind == "antichain"
            assert antichain_valid(poset, sol.elements)


def test_cac_rejects_non_posets():
    m = np.eye(2, dtype=bool)
    m[0, 1] = m[1, 0] = True
    with pytest.raises(NotPartialOrder):
        solve_cac(Snapshot(2, 0, m))


def test_condense_quotients_a_total_preorder():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randrange(1, 20)
        pre = random_total_preorder(rng, n, max_classes=5)
        cond = condense(pre)
        flat = sorted(x for cls in cond.classes for x in cls)
        assert flat == list(range(n))
        for rep, cls in zip(cond.representatives, cond.classes):
            assert rep == min(cls)
            for x in cls:
                assert pre.holds(rep, x) and pre.holds(x, rep)
        induced = cond.induced
        k = induced.domain_size
        assert k == len(cond.classes)
        for a in range(k):
            for b in range(k):
                assert induced.holds(a, b) == pre.holds(
                    cond.representatives[a], cond.representatives[b]
                )


def test_condense_rejects_partial_preorders():
    m = np.eye(3, dtype=bool)
    m[0, 1] = True
    with pytest.raises(NotTotalPreorder):
        condense(Snapshot(3, 0, m))


def test_pigeonhole_takes_largest_earliest():
    classes = [(0, 1), (2, 3), (4,)]
    assert pigeonhole_extract(None, classes) == (0, 1)
    classes = [(0,), (1, 2, 3), (4, 5, 6)]
    assert pigeonhole_extract(None, classes) == (1, 2, 3)


def test_ads_preorder_both_branches():
    rng = random.Random(61)
    for _ in range(80):
        n = rng.randrange(1, 24)
        pre = random_total_preorder(rng, n, max_classes=rng.choice([2, 3, 8, 12]))
        classes = condense(pre).classes
        sol = solve_ads_preorder(pre)
        assert sequence_valid(pre, sol.direction, sol.elements)
        if len(classes) <= ceil_sqrt(n):
            # pigeonhole branch: the largest class comes back whole
            assert sol.direction == "ascending"
            assert len(sol.elements) == max(len(c) for c in classes)
        # explicit threshold: forcing the condensed branch must still verify
        sol2 = solve_ads_preorder(pre, threshold=0)
        assert sequence_valid(pre, sol2.direction, sol2.elements)
        assert len(sol2.elements) >= ceil_sqrt(len(classes))


def test_ads_preorder_rejects_incomparability():
    m = np.eye(2, dtype=bool)
    with pytest.raises(NotTotalPreorder):
        solve_ads_preorder(Snapshot(2, 0, m))


@pytest.mark.parametrize("n, pairs", [(9, [(i, i + 1) for i in range(8)]), (9, [])])
def test_solve_cac_checks_its_input_once(monkeypatch, n, pairs):
    """Once on the chain branch (a 9-chain) and on the antichain branch."""
    calls = []
    monkeypatch.setattr(
        solvers, "check_partial_order", lambda snap: calls.append(snap) or check_partial_order(snap)
    )
    snap = Snapshot(n, 0, close_matrix(Snapshot.from_pairs(n, pairs).matrix.copy()))
    assert solve_cac(snap).kind == ("chain" if pairs else "antichain")
    assert len(calls) == 1
