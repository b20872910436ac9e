import random

import numpy as np
import pytest

from staged_orders.family import (
    CoCEPreorder,
    SetFamily,
    build_family,
    preorder_from_config,
    speedup,
    sufficient_stages,
    verify_isomorphism,
)
from staged_orders.kernel import ConfigError, Snapshot

from _generators import random_coce_preorder_config


def _staggered():
    """Equality limit on three points; the non-pairs go away at different
    times, leaving a stretch of intransitive views."""
    return preorder_from_config(
        {
            "n": 3,
            "limit_pairs": [],
            "removals": [[0, 2, 1], [0, 1, 3], [1, 2, 4], [2, 0, 0], [1, 0, 0], [2, 1, 0]],
        }
    )


def test_views_shrink_toward_the_limit():
    pre = _staggered()
    assert pre.view(0)[0, 1] and pre.view(0)[1, 2] and pre.view(0)[0, 2]
    assert not pre.view(1)[0, 2]  # removed at stage 1
    assert pre.view(1)[0, 1]
    final = pre.view(pre.max_removal_stage)
    assert np.array_equal(final, pre.limit.matrix)


def test_speedup_skips_intransitive_views():
    pre = _staggered()
    # at stage 1 the window {0,1,2} still holds 0<=1<=2 without 0<=2
    assert speedup(pre, 1) == 3
    assert speedup(pre, 0) == 0  # the window {0,1} is transitive already
    assert speedup(pre, 4) == 4

    # n=258: at stage 256 the window is everything, and it still holds 0
    # below 1..256 below 257 without 0 below 257 (256 intermediates)
    fan = {(0, i) for i in range(1, 257)} | {(i, 257) for i in range(1, 257)}
    removals = [
        [i, j, 257 if (i, j) in fan else 0] for i in range(258) for j in range(258) if i != j
    ]
    wide = preorder_from_config({"n": 258, "limit_pairs": [], "removals": removals})
    assert speedup(wide, 256) == 257


def test_schedule_must_cover_exactly_the_complement():
    with pytest.raises(ConfigError):
        preorder_from_config({"n": 2, "limit_pairs": [], "removals": [[0, 1, 0]]})
    with pytest.raises(ConfigError):
        preorder_from_config(
            {
                "n": 2,
                "limit_pairs": [[0, 1]],
                "removals": [[0, 1, 2], [1, 0, 0]],  # (0,1) is in the limit
            }
        )


def test_family_mirrors_the_staggered_limit():
    pre = _staggered()
    fam = build_family(pre, sufficient_stages(pre))
    report = verify_isomorphism(pre, fam)
    assert report.passed
    # equality limit: three pairwise incomparable sets
    assert not fam.included(0, 1) and not fam.included(1, 0)


def test_family_handles_equivalences():
    pre = preorder_from_config(
        {
            "n": 4,
            "limit_pairs": [[0, 1], [1, 0], [1, 2], [0, 2]],
            "removals": [
                [0, 3, 2], [1, 3, 1], [2, 3, 0], [3, 0, 4], [3, 1, 0],
                [3, 2, 1], [2, 0, 3], [2, 1, 2],
            ],
        }
    )
    fam = build_family(pre, sufficient_stages(pre))
    assert verify_isomorphism(pre, fam).passed
    assert fam.rows[0] == fam.rows[1]  # equivalent indices get equal sets
    assert fam.rows[0] < fam.rows[2]


def test_isomorphism_report_names_offending_pairs():
    pre = _staggered()
    fam = build_family(pre, sufficient_stages(pre))
    forged = SetFamily(fam.n, fam.element_count, tuple(
        frozenset() if i == 1 else row for i, row in enumerate(fam.rows)
    ))
    report = verify_isomorphism(pre, forged)
    assert not report.passed
    assert (1, 0) in report.mismatches and (1, 2) in report.mismatches
    assert all(
        bool(pre.limit.matrix[i, j]) != forged.included(i, j)
        for i, j in report.mismatches
    )


def test_family_obj_round_trip():
    pre = _staggered()
    fam = build_family(pre, sufficient_stages(pre))
    assert SetFamily.from_obj(fam.to_obj()) == fam
    with pytest.raises(ConfigError):
        SetFamily.from_obj({"n": 2, "elements": 1, "membership": [[1]]})


def test_config_round_trip():
    removals = (((0, 2), 1), ((0, 1), 3), ((1, 2), 4), ((2, 0), 0), ((1, 0), 0), ((2, 1), 0))
    assert _staggered() == CoCEPreorder(3, Snapshot.from_pairs(3, []), removals)


def test_random_preorders_are_mirrored():
    rng = random.Random(5)
    for _ in range(25):
        cfg = random_coce_preorder_config(rng, rng.randrange(1, 8), horizon=6)
        pre = preorder_from_config(cfg)
        fam = build_family(pre, sufficient_stages(pre))
        report = verify_isomorphism(pre, fam)
        assert report.passed, (cfg, report.mismatches)


def test_more_stages_never_break_the_mirror():
    pre = _staggered()
    for extra in range(4):
        fam = build_family(pre, sufficient_stages(pre) + extra)
        assert verify_isomorphism(pre, fam).passed
