"""The verify suites against their per-stage references, on written runs
with damaged stages: the same lines and the same exit code."""

import json
import os
import tempfile

import numpy as np
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from staged_orders.cli import main
from staged_orders.jump import (
    build_antichain_order, build_cochain_order, greedy_antichain, schedule_from_config,
)
from staged_orders.kernel import Kind, Snapshot, StagedOrderError, apply_permutation, close_matrix
from staged_orders.serialize import config_hash, load_run, save_json, snapshot_to_obj, write_run
from staged_orders.solvers import longest_chain

from _generators import random_permutation, random_schedule_config
from _oracles import jump_decode_reference, monotone_suite_reference, poset_suite_reference


def _verify(run, suite):
    """verify's output lines and exit code, or its JSON error and exit 2."""
    result = CliRunner().invoke(main, ["verify", "--dir", run, "--suite", suite])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    if result.exit_code == 2:
        return json.loads(result.stderr), 2
    return result.output.splitlines(), result.exit_code


def _expected(lines, ok):
    return lines + ["PASS" if ok else "FAIL"], 0 if ok else 1


@st.composite
def _damaged_stages(draw):
    """A kind and 1 to 7 stages on 0 to 6 elements: a closed order, then
    each stage either the one before (often, so a failing stage is often
    followed by stages that change nothing) or the one before with random
    pairs set and cleared, so cycles, broken transitivity and steps the
    wrong way all occur. Each later stage is written as a full file or as
    a delta whose pairs are shuffled and repeated, as a hand-written one
    may be."""
    kind = draw(st.sampled_from([Kind.CE, Kind.COCE]))
    n = draw(st.integers(0, 6))
    element = st.integers(0, max(n - 1, 0))
    pairs = st.lists(st.tuples(element, element), max_size=8 if n else 0)
    matrix = np.eye(n, dtype=bool)
    for i, j in draw(pairs):
        matrix[min(i, j), max(i, j)] = True
    stages = [close_matrix(matrix)]
    for _ in range(draw(st.integers(0, 6))):
        matrix = stages[-1].copy()
        if draw(st.booleans()):
            for i, j in draw(pairs):
                matrix[i, j] = i == j or not matrix[i, j]
        stages.append(matrix)
    return kind, stages, [draw(st.booleans()) for _ in stages], draw(st.randoms())


def _write_stages(out, kind, stages, full, rng):
    """A run directory holding `stages`, a list of matrices; stage s > 0
    is a full file if full[s], else a delta against stage s - 1."""
    n = len(stages[0])
    names = [f"snapshot_{s:03d}.json" for s in range(len(stages))]
    for s, (name, matrix) in enumerate(zip(names, stages)):
        if s == 0 or full[s]:
            obj = snapshot_to_obj(Snapshot(n, s, matrix), kind)
        else:
            before = stages[s - 1]
            obj = {"domain_size": n, "stage": s, "kind": kind.value, "base": names[s - 1]}
            for key, moved in (("added", matrix & ~before), ("removed", before & ~matrix)):
                listed = np.argwhere(moved).tolist()
                listed += rng.sample(listed, rng.randint(0, len(listed)))  # some pairs twice
                rng.shuffle(listed)
                obj[key] = listed
        save_json(os.path.join(out, name), obj)
    save_json(os.path.join(out, "config.json"), {})
    save_json(os.path.join(out, "manifest.json"), {
        "construction": "demo", "config_hash": config_hash({}), "kind": kind.value,
        "domain_size": n, "stages": len(stages) - 1, "snapshot_count": len(stages), "seed": None,
    })


@given(_damaged_stages())
@settings(max_examples=200, deadline=None)
def test_poset_and_monotone_suites_match_a_full_check_of_every_stage(case):
    """The poset suite checks each distinct stage once and the monotone
    suite reads the deltas; both print what a full check and a whole-matrix
    comparison of every stage print."""
    kind, stages, full, rng = case
    rows = [(s, matrix.tolist()) for s, matrix in enumerate(stages)]
    with tempfile.TemporaryDirectory() as out:
        _write_stages(out, kind, stages, full, rng)
        assert _verify(out, "poset") == _expected(*poset_suite_reference(rows))
        assert _verify(out, "monotone") == _expected(*monotone_suite_reference(rows, kind is Kind.CE))


@given(st.randoms(), st.integers(2, 24), st.integers(0, 8), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_jump_decode_suite_matches_the_per_width_loop(rng, n, damage, relabel, cochain):
    """The decode suite checks its probe once and reads every narrower
    width off it; it prints what a check and a decode per width printed,
    or refuses as the first width did, on jump runs whose last stage is
    relabeled or has pairs set and cleared."""
    kind = Kind.COCE if cochain else Kind.CE
    config = random_schedule_config(rng, n, 6, n)
    sched = schedule_from_config(config)
    history = (build_cochain_order if cochain else build_antichain_order)(sched, n, n).history
    with tempfile.TemporaryDirectory() as out:
        write_run(out, "jump-cochain" if cochain else "jump-antichain", config, kind, history, n)
        last = history.last
        if relabel:
            last = apply_permutation(last, random_permutation(rng, n))
        matrix = last.matrix.copy()
        for _ in range(damage):
            i, j = rng.randrange(n), rng.randrange(n)
            matrix[i, j] = i == j or not matrix[i, j]
        save_json(os.path.join(out, f"snapshot_{n:03d}.json"), snapshot_to_obj(Snapshot(n, n, matrix), kind))
        final = load_run(out)[2].last
        try:  # the probe's own search refuses a last stage that is no partial order
            probe = list(longest_chain(final) if cochain else greedy_antichain(final))
        except StagedOrderError as exc:
            lines, ok, error = None, None, (type(exc).__name__, str(exc))
        else:
            lines, ok, error = jump_decode_reference(matrix.tolist(), probe, sched.entries, cochain)
        got = _verify(out, "decode")
    if error is None:
        assert got == _expected(lines, ok)
    else:
        assert got == ({"error": error[0], "message": error[1]}, 2)
