"""Outside input that is wrong must end in a JSON error with exit 2:
never a traceback, never a silent PASS. Input that is right gets an
exact answer at every domain size."""

import copy
import functools
import json
import operator
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import staged_orders
from staged_orders.cli import RunPlan, main
from staged_orders.kernel import (
    MAX_STAGES, ConfigError, DomainLimitExceeded, Kind, Snapshot, _strict_pairs,
)
from staged_orders.serialize import (
    canonical_dumps,
    load_json,
    load_run,
    load_snapshot,
    snapshot_from_obj,
    snapshot_to_obj,
)

from conftest import SHIPPED, run_snapshot_paths, shipped_config_path


def _invoke(*args):
    return CliRunner().invoke(main, list(args))


def _write(path, obj):
    with open(path, "w") as fh:
        fh.write(canonical_dumps(obj))
    return str(path)


def _config_error(result, needle=""):
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 2, (result.output, result.stderr)
    err = json.loads(result.stderr)
    assert err["error"] == "ConfigError", err
    assert needle in err["message"], err


def _copy_run(shipped_runs, name, tmp_path):
    target = str(tmp_path / name)
    shutil.copytree(shipped_runs[name], target)
    return target


@pytest.mark.parametrize(
    "run_name, construction, consts",
    [
        ("sigma2", "sigma2", "0,1,2,3,99999"),
        ("spectrum_coce", "spectrum-coce", "0,1,2,99999"),
        ("spectrum_coce", "spectrum-coce", "0,1,2,-1"),
        ("sigma2", "sigma2", "-1,1,2,3,4"),
    ],
)
@pytest.mark.parametrize("with_perm", [False, True])
def test_decode_consts_outside_the_domain(shipped_runs, tmp_path, run_name, construction, consts, with_perm):
    snap_path = run_snapshot_paths(shipped_runs[run_name])[-1]
    args = ["decode", "--snapshot", snap_path, "--construction", construction, "--consts", consts]
    if with_perm:
        n = load_json(snap_path)["domain_size"]
        args += ["--perm", _write(tmp_path / "perm.json", list(range(n)))]
    _config_error(_invoke(*args), "--consts")


@pytest.mark.parametrize(
    "run_name, construction, consts",
    [
        ("spectrum_ce", "spectrum-ce", "0,0,2,3"),
        ("spectrum_coce", "spectrum-coce", "0,1,3,3"),
        ("sigma2", "sigma2", "0,0,2,3,4"),
        ("sigma2", "sigma2", "0,1,2,3,0"),
    ],
)
@pytest.mark.parametrize("with_perm", [False, True])
def test_decode_consts_must_be_distinct(shipped_runs, tmp_path, run_name, construction, consts, with_perm):
    """A repeated element names one element for two roles. spectrum-ce
    read 0,0,2,3 as no edges with exit 0, and sigma2 refused 0,0,2,3,4
    with a misleading "no A-elements"."""
    snap_path = run_snapshot_paths(shipped_runs[run_name])[-1]
    args = ["decode", "--snapshot", snap_path, "--construction", construction, "--consts", consts]
    if with_perm:
        n = load_json(snap_path)["domain_size"]
        perm = list(range(n))
        random.Random(5).shuffle(perm)
        args += ["--perm", _write(tmp_path / "perm.json", perm)]
    _config_error(_invoke(*args), "--consts must name distinct elements")


@pytest.mark.parametrize("construction", ["sigma2", "spectrum-coce"])
def test_decode_default_consts_outside_a_small_domain(tmp_path, construction):
    """sigma2's five default constants, or spectrum's four, do not fit a
    3-element snapshot: a ConfigError, not an IndexError or empty edges."""
    snap = {"domain_size": 3, "stage": 0, "kind": "coce", "pairs": [[2, 0]], "labels": {}}
    path = _write(tmp_path / "snapshot_000.json", snap)
    _write(tmp_path / "config.json", {"construction": "sigma2", "indices": [{"i": 0, "member": True}]})
    result = _invoke("decode", "--snapshot", path, "--construction", construction)
    _config_error(result, "default constants")


def test_sigma2_decode_refuses_a_non_scaffold(tmp_path):
    """Four A-elements all linked through one C-element, all below f and
    l: scaffold rows are paths, so this is no sigma2 order. The old
    recursive row search read membership bits out of it."""
    a, b, c, f, l = range(5)
    pairs = [[x, y] for x in range(5, 9) for y in (a, c, f, l, 9)] + [[9, c]]
    snap = {"domain_size": 10, "stage": 0, "kind": "coce", "pairs": pairs, "labels": {}}
    path = _write(tmp_path / "snapshot_000.json", snap)
    _write(tmp_path / "config.json", {"indices": [{"i": i, "member": True} for i in range(4)]})
    result = _invoke("decode", "--snapshot", path, "--construction", "sigma2")
    assert result.exit_code == 2, (result.output, result.exception)
    err = json.loads(result.stderr)
    assert err["error"] == "NotFound" and "links" in err["message"], err


@pytest.mark.parametrize("head", [["a", 1], [True, False]])
def test_decode_perm_must_hold_integers(shipped_runs, tmp_path, head):
    snap_path = run_snapshot_paths(shipped_runs["sigma2"])[-1]
    n = load_json(snap_path)["domain_size"]
    perm = _write(tmp_path / "perm.json", head + list(range(2, n)))
    result = _invoke("decode", "--snapshot", snap_path, "--construction", "sigma2", "--perm", perm)
    _config_error(result, "--perm")


def test_snapshot_booleans_are_not_naturals(tmp_path):
    obj = {"domain_size": True, "stage": 0, "kind": "ce", "pairs": []}
    with pytest.raises(ConfigError):
        snapshot_from_obj(obj)
    with pytest.raises(ConfigError):
        snapshot_from_obj(dict(obj, domain_size=2, pairs=[[0, True]]))
    path = _write(tmp_path / "snap.json", obj)
    _config_error(_invoke("solve", "--order", path, "--principle", "cac"), "domain_size")


@pytest.mark.parametrize("key", ["stages", "domain_bound"])
def test_build_rejects_boolean_budgets(tmp_path, key):
    cfg = {"construction": "jump-cochain", "entries": [[0, 1]], "n": 5, key: True}
    result = _invoke("build", "--config", _write(tmp_path / "cfg.json", cfg), "--out", str(tmp_path / "run"))
    _config_error(result, key)


def test_run_missing_a_snapshot_does_not_pass(shipped_runs, tmp_path):
    run = _copy_run(shipped_runs, "spectrum_coce", tmp_path)
    os.remove(os.path.join(run, "snapshot_008.json"))
    for suite in ("poset", "monotone", "decode"):
        _config_error(_invoke("verify", "--dir", run, "--suite", suite), "manifest")


def test_emptied_run_does_not_pass(shipped_runs, tmp_path):
    run = _copy_run(shipped_runs, "jump_cochain", tmp_path)
    for path in run_snapshot_paths(run):
        os.remove(path)
    for suite in ("poset", "monotone", "decode", "witness"):
        _config_error(_invoke("verify", "--dir", run, "--suite", suite), "manifest")


def test_run_with_a_moved_stage_does_not_pass(shipped_runs, tmp_path):
    run = _copy_run(shipped_runs, "jump_cochain", tmp_path)
    victim = run_snapshot_paths(run)[3]
    _write(victim, dict(load_json(victim), stage=30))
    _config_error(_invoke("verify", "--dir", run, "--suite", "poset"), "stage")


def test_run_with_a_resized_snapshot_does_not_pass(shipped_runs, tmp_path):
    run = _copy_run(shipped_runs, "jump_cochain", tmp_path)
    victim = run_snapshot_paths(run)[-1]
    obj = load_json(victim)
    _write(victim, dict(obj, domain_size=obj["domain_size"] + 1))
    _config_error(_invoke("verify", "--dir", run, "--suite", "poset"), "domain size")


def test_middle_snapshot_alone_names_its_base(shipped_runs, tmp_path):
    victim = run_snapshot_paths(shipped_runs["jump_cochain"])[5]
    base = load_json(victim)["base"]
    copy = shutil.copy(victim, tmp_path)
    for argv in (
        ["decode", "--snapshot", copy, "--construction", "jump-cochain"],
        ["solve", "--order", copy, "--principle", "cac"],
        ["export-dot", "--snapshot", copy],
    ):
        _config_error(_invoke(*argv), base)


def _spoil_delta(obj, base, edit):
    """A delta object edited so that it no longer matches `base`."""
    held = tuple(_strict_pairs(base.matrix)[0].tolist())
    absent = held[::-1]  # an order holds no pair both ways
    if edit == "held added":
        obj["added"].append(list(held))
    elif edit == "absent removed":
        obj["removed"].append(list(absent))
    elif edit == "reflexive":
        obj["added"].append([0, 0])
    elif edit == "stage":
        obj["stage"] += 1
    elif edit == "domain":
        obj["domain_size"] += 1
    elif edit == "loop":
        obj["base"] = f"snapshot_{obj['stage']:03d}.json"
    elif edit == "escape":
        obj["base"] = "../" + obj["base"]
    return obj


@pytest.mark.parametrize(
    "edit, needle",
    [
        ("held added", "already held by the base"),
        ("absent removed", "not held by the base"),
        ("reflexive", "reflexive"),
        ("stage", "stage"),
        ("domain", "domain_size"),
        ("loop", "loops"),
        ("escape", "same directory"),
    ],
)
def test_delta_that_does_not_match_its_base_is_refused(shipped_runs, tmp_path, edit, needle):
    run = _copy_run(shipped_runs, "jump_cochain", tmp_path)
    paths = run_snapshot_paths(run)
    victim = paths[5]
    base, _ = load_snapshot(paths[4])
    _write(victim, _spoil_delta(load_json(victim), base, edit))
    _config_error(_invoke("verify", "--dir", run, "--suite", "poset"))
    result = _invoke("export-dot", "--snapshot", victim)
    _config_error(result, needle)
    assert os.path.basename(victim) in json.loads(result.stderr)["message"]


def test_a_domain_size_beyond_int64_is_refused_before_its_pairs(shipped_runs, tmp_path):
    """A pair past int64, inside a domain_size larger still, raised an
    OverflowError traceback with exit 1, the code of a FAIL verdict. The
    cap is checked before any pair is read: exit 2, DomainLimitExceeded."""
    huge, far = 10**20, [2**63, 0]
    path = _write(tmp_path / "huge.json", {"domain_size": huge, "stage": 0, "kind": "ce",
                                           "pairs": [far]})
    run = _copy_run(shipped_runs, "jump_cochain", tmp_path)
    victim = run_snapshot_paths(run)[3]
    _write(victim, dict(load_json(victim), domain_size=huge, added=[far]))
    for argv in (["export-dot", "--snapshot", path], ["verify", "--dir", run, "--suite", "poset"]):
        result = _invoke(*argv)
        assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2, (result.output, result.stderr)
        err = json.loads(result.stderr)
        assert err["error"] == "DomainLimitExceeded" and str(huge) in err["message"], err


def test_cycle_added_by_a_delta_fails_the_poset_suite(shipped_runs, tmp_path):
    run = _copy_run(shipped_runs, "jump_cochain", tmp_path)
    paths = run_snapshot_paths(run)
    base, _ = load_snapshot(paths[4])
    i, j = _strict_pairs(base.matrix)[0].tolist()
    obj = load_json(paths[5])
    obj["added"].append([j, i])
    _write(paths[5], obj)
    result = _invoke("verify", "--dir", run, "--suite", "poset")
    assert result.exit_code == 1, result.output
    assert "stage 5: antisymmetric fails" in result.output and "FAIL" in result.output


@pytest.mark.parametrize(
    "run_name, suite",
    [
        ("jump_cochain", "decode"),
        ("spectrum_ce", "decode"),
        ("jump_cochain", "witness"),
        ("family", "isomorphism"),
    ],
)
def test_run_config_must_be_an_object(shipped_runs, tmp_path, run_name, suite):
    run = _copy_run(shipped_runs, run_name, tmp_path)
    _write(os.path.join(run, "config.json"), [1, 2])
    _config_error(_invoke("verify", "--dir", run, "--suite", suite), "config.json")


@pytest.mark.parametrize("bad", [True, "1", 2, "row"])
def test_family_json_bits_are_exactly_0_or_1(shipped_runs, tmp_path, bad):
    """A truthy stand-in for a 1 made the isomorphism suite PASS; a row
    that is not a list raised a TypeError."""
    run = _copy_run(shipped_runs, "family", tmp_path)
    path = os.path.join(run, "family.json")
    family = load_json(path)
    rows = family["membership"]
    at = next(i for i, row in enumerate(rows) if 1 in row)
    if bad == "row":
        rows[at] = 7
    else:
        rows[at][rows[at].index(1)] = bad
    _write(path, family)
    _config_error(_invoke("verify", "--dir", run, "--suite", "isomorphism"), "membership")


@pytest.mark.parametrize("rows", ["fewer", "none", "more"])
def test_family_json_size_must_be_the_preorders(shipped_runs, tmp_path, rows):
    """Fewer sets than the preorder has indices raised an IndexError with
    exit 1, the code of a FAIL verdict; an extra all-zero set passed."""
    run = _copy_run(shipped_runs, "family", tmp_path)
    path = os.path.join(run, "family.json")
    family = load_json(path)
    n, membership = family["n"], family["membership"]
    if rows == "fewer":
        membership.pop()
    elif rows == "none":
        membership.clear()
    else:
        membership.append([0] * family["elements"])
    family["n"] = len(membership)
    _write(path, family)
    _config_error(_invoke("verify", "--dir", run, "--suite", "isomorphism"),
                  f"family has {len(membership)} sets but the preorder has {n} indices")


@pytest.mark.parametrize(
    "family, needle",
    [([1], "family JSON must be an object"),
     ({"n": 6, "elements": 3}, "family JSON needs n, elements, membership")],
)
def test_family_json_must_be_an_object_with_its_keys(shipped_runs, tmp_path, family, needle):
    run = _copy_run(shipped_runs, "family", tmp_path)
    _write(os.path.join(run, "family.json"), family)
    _config_error(_invoke("verify", "--dir", run, "--suite", "isomorphism"), needle)


def test_run_with_no_snapshots_has_nothing_to_decode(shipped_runs, tmp_path):
    run = _copy_run(shipped_runs, "jump_cochain", tmp_path)
    for path in run_snapshot_paths(run):
        os.remove(path)
    manifest = os.path.join(run, "manifest.json")
    _write(manifest, dict(load_json(manifest), snapshot_count=0, stages=0))
    for suite in ("decode", "witness"):
        _config_error(_invoke("verify", "--dir", run, "--suite", suite),
                      "run has no snapshots to decode")


def test_spectrum_decode_suite_compares_its_two_readouts(shipped_runs, tmp_path):
    """g below vertex 4 leaves the order readout as it was, but in the
    comparability graph 4 now touches g and is no vertex."""
    run = _copy_run(shipped_runs, "spectrum_ce", tmp_path)
    last = run_snapshot_paths(run)[-1]
    obj = load_json(last)
    obj["pairs"].append([1, 4])
    _write(last, obj)
    result = _invoke("verify", "--dir", run, "--suite", "decode")
    assert result.exit_code == 1, result.output
    lines = result.output.splitlines()
    assert "comparability readout disagrees with order readout" in lines, lines
    assert not any(line.startswith("expected edges") for line in lines), lines


@pytest.mark.parametrize("key, value", [("stages", "x"), ("stages", 1000000), ("kind", None)])
def test_manifest_stages_and_kind_are_checked(shipped_runs, tmp_path, key, value):
    """A string stage count raised a TypeError; a wrong one, or no kind
    (read as ce), passed the witness suite. None deletes the key."""
    run = _copy_run(shipped_runs, "jump_antichain", tmp_path)
    path = os.path.join(run, "manifest.json")
    manifest = load_json(path)
    if value is None:
        del manifest[key]
    else:
        manifest[key] = value
    _write(path, manifest)
    _config_error(_invoke("verify", "--dir", run, "--suite", "witness"), key)


@pytest.mark.parametrize("value", [["jump-cochain"], {"name": "jump-cochain"}, 7, "nope"])
def test_manifest_construction_of_another_type_is_a_misfit(shipped_runs, tmp_path, value):
    """A list or dict name must not reach the registry as a key (TypeError)."""
    run = _copy_run(shipped_runs, "jump_cochain", tmp_path)
    path = os.path.join(run, "manifest.json")
    _write(path, dict(load_json(path), construction=value))
    _config_error(_invoke("verify", "--dir", run, "--suite", "decode"), "no decode suite")


def test_decode_config_must_be_an_object(shipped_runs, tmp_path):
    run = _copy_run(shipped_runs, "jump_cochain", tmp_path)
    _write(os.path.join(run, "config.json"), [1, 2])
    snap_path = run_snapshot_paths(run)[-1]
    result = _invoke("decode", "--snapshot", snap_path, "--construction", "jump-cochain")
    _config_error(result, "config.json")


def _build(tmp_path, cfg):
    path = _write(tmp_path / "cfg.json", cfg)
    return _invoke("build", "--config", path, "--out", str(tmp_path / "run"))


_MEMBER = {"i": 0, "member": True}


@pytest.mark.parametrize(
    "indices, needle",
    [
        ([{"i": 0, "member": True, "witness": "1"}], "witness"),
        ([{"i": 0, "member": True, "witness": True, "defeats": [1]}], "witness"),
        ([{"i": 0, "member": True, "witness": 1, "defeats": ["a"]}], "defeat stages"),
        ([{"i": 0, "member": True, "witness": 1, "defeats": "a"}], "defeats"),
        ([{"i": 0, "member": False, "defeat_rule": {"offset": "x", "step": 1}}], "defeat rule"),
        ([{"i": 0, "member": False, "defeat_rule": {"offset": True, "step": 1.5}}], "defeat rule"),
        ([{"i": 0, "member": False, "defeat_rule": {"offset": 0, "step": 1}, "defeat_horizon": "2"}],
         "defeat_horizon"),
        ([_MEMBER, {"i": "1", "member": True}], "index entry"),
        ([_MEMBER, {"i": True, "member": True}], "index entry"),
        ([{"i": 0, "member": "no", "witness": 0}], "'member'"),
        ([{"i": 0, "member": 1, "defeat_rule": {"offset": 0, "step": 1}}], "'member'"),
        ([_MEMBER, _MEMBER], "duplicate index 0"),
    ],
)
def test_sigma2_config_fields_are_checked(tmp_path, indices, needle):
    _config_error(_build(tmp_path, {"construction": "sigma2", "indices": indices}), needle)


def test_sigma2_window_too_small_for_its_witness_is_named(tmp_path):
    """A window too small for a member's resting witness is DomainTooSmall.
    The stabilisation walk had a budget that ran out first, and the build
    ended in 'witness dynamics failed to stabilize' instead."""
    member = {"i": 0, "member": True, "witness": 6, "defeats": [0, 0, 0, 0, 0, 0]}
    path = _write(tmp_path / "cfg.json", {"construction": "sigma2", "indices": [member]})
    result = _invoke("build", "--config", path, "--domain", "8", "--out", str(tmp_path / "run"))
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr) == {
        "error": "DomainTooSmall", "message": "domain bound 8 too small; need 24 for 1 indices"}


# four bad edges: a set of them yields them in an order PYTHONHASHSEED sets
_SPREAD_BAD_EDGES = {"construction": "spectrum-ce", "n": 3,
                     "edges": [[0, "a"], [1, "b"], [2, "c"], [0, "d"]]}


def _child_env():
    """The environment for a CLI child that imports this tree's package."""
    src = os.path.dirname(os.path.dirname(staged_orders.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


@pytest.mark.parametrize(
    "cfg, needle",
    [
        ({"construction": "jump-cochain", "entries": [[True, 2]], "n": 5}, "malformed entry"),
        ({"construction": "jump-antichain", "entries": [[0, 2]], "n": True}, "natural 'n'"),
        ({"construction": "spectrum-ce", "n": True, "edges": []}, "vertex count"),
        ({"construction": "spectrum-coce", "n": 2, "edges": [[False, True]]}, "bad edge"),
        ({"construction": "spectrum-ce", "n": 2, "edges": [], "flips": {"0,1": [True]}}, "flip stages"),
        ({"construction": "jump-cochain", "entries": [[0]], "n": 5}, "malformed entry [0]"),
        ({"construction": "spectrum-ce", "n": 2, "edges": {}}, "'edges' list and 'flips' object"),
        ({"construction": "spectrum-ce", "n": 2, "flips": []}, "'edges' list and 'flips' object"),
        ({"construction": "spectrum-ce", "n": 2, "edges": [[0, 1, 2]]}, "malformed edge [0, 1, 2]"),
        ({"construction": "spectrum-ce", "n": 2, "flips": {"0,1": 2}}, "flip stages for '0,1'"),
        ({"construction": "spectrum-ce", "n": 2, "flips": {"1,0": [2]}}, "non-pair (1, 0)"),
        ({"construction": "spectrum-ce", "n": 2, "edges": [[0, [1]]]}, "bad edge (0, [1])"),
        (_SPREAD_BAD_EDGES, "bad edge (0, 'a')"),
    ],
)
def test_jump_and_spectrum_configs_reject_booleans(tmp_path, cfg, needle):
    _config_error(_build(tmp_path, cfg), needle)


def test_spectrum_names_the_first_bad_edge_under_any_hash_seed(tmp_path):
    """Edges were checked in the order of the set built from them, so which
    bad edge an error named depended on PYTHONHASHSEED."""
    config = _write(tmp_path / "cfg.json", _SPREAD_BAD_EDGES)
    argv = [sys.executable, "-m", "staged_orders.cli", "build", "--config", config,
            "--out", str(tmp_path / "run")]
    errors = set()
    for seed in ("1", "2"):
        proc = subprocess.run(argv, env=dict(_child_env(), PYTHONHASHSEED=seed),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        errors.add(proc.stderr)
    assert len(errors) == 1, errors


@pytest.mark.parametrize("flips", [{" 0,+1": [2]}, {"0,1": [2], "00,1": [3]}])
def test_spectrum_flip_keys_are_canonical(tmp_path, flips):
    """Keys were read with int(), so a padded or signed key built, and a
    second spelling of a pair silently replaced its schedule."""
    cfg = {"construction": "spectrum-ce", "n": 2, "edges": [], "flips": flips}
    _config_error(_build(tmp_path, cfg), "flip key")


@pytest.mark.parametrize("seed", ["x", True, 1.5])
def test_config_seed_must_be_an_integer(tmp_path, seed):
    cfg = {"construction": "jump-cochain", "entries": [[0, 1]], "n": 5, "seed": seed}
    _config_error(_build(tmp_path, cfg), "seed")
    assert not os.path.exists(tmp_path / "run")


# A chain 0 < 1 < 2: the removals must cover exactly (1, 0), (2, 0), (2, 1).
_LIMIT = {"limit_pairs": [[0, 1], [0, 2], [1, 2]]}


@pytest.mark.parametrize(
    "change, needle",
    [
        ({"limit_pairs": [[0, 99]]}, "limit pair"),
        ({"limit_pairs": [["a", 1]]}, "limit pair"),
        ({"limit_pairs": [["a", 1]], "removals": []}, "limit pair"),
        ({"removal_horizon": "3"}, "removal_horizon"),
        ({"removal_horizon": -1}, "removal_horizon"),
        ({"n": True}, "natural 'n'"),
        (_LIMIT | {"removals": [[1, 0, 1], [2, 0, 1], [2, 1, True]]}, "malformed removal"),
        (_LIMIT | {"removals": [[True, 0, 11], [2, 0, 1], [2, 1, 1]]}, "malformed removal"),
        ({"limit_pairs": {}}, "config needs 'limit_pairs' and 'removals' lists"),
        ({"removals": "x"}, "config needs 'limit_pairs' and 'removals' lists"),
        ({"removal_horizon": None}, "family config needs 'removals' or 'removal_horizon'"),
    ],
)
def test_family_config_is_checked(tmp_path, change, needle):
    cfg = dict({"construction": "family", "n": 3, "limit_pairs": [], "removal_horizon": 3}, **change)
    path = _write(tmp_path / "cfg.json", cfg)
    result = _invoke("build", "--config", path, "--seed", "1", "--out", str(tmp_path / "run"))
    _config_error(result, needle)


def test_family_horizon_checks_the_cap_before_drawing(tmp_path, monkeypatch):
    def draw(*args):
        raise AssertionError("a removal stage was drawn")

    monkeypatch.setenv("STAGED_ORDERS_MAX_DOMAIN", "100")
    monkeypatch.setattr(random.Random, "randint", draw)
    cfg = {"construction": "family", "n": 1500, "limit_pairs": [], "removal_horizon": 3}
    path = _write(tmp_path / "cfg.json", cfg)
    result = _invoke("build", "--config", path, "--seed", "1", "--out", str(tmp_path / "run"))
    assert result.exit_code == 2 and result.exception is not None, result.exception
    assert json.loads(result.stderr)["error"] == "DomainLimitExceeded"


@pytest.mark.parametrize(
    "cfg, flags",
    [
        ({"construction": "jump-cochain", "entries": [[0, 1]], "n": 8}, ["--domain", "200000"]),
        ({"construction": "spectrum-ce", "n": 3, "edges": [[0, 1]]}, ["--domain", "200000"]),
        ({"construction": "sigma2", "indices": [{"i": 0, "member": True}]}, ["--domain", "200000"]),
        ({"construction": "jump-cochain", "entries": [[0, 1]], "n": 200000}, []),
        ({"construction": "spectrum-ce", "n": 200, "edges": []}, []),
        ({"construction": "spectrum-ce", "n": 20000, "edges": []}, []),
    ],
    ids=["jump-flag", "spectrum-flag", "sigma2-flag", "jump-n", "spectrum-200", "spectrum-20000"],
)
def test_build_checks_the_cap_before_building(tmp_path, cfg, flags):
    """A domain over the cap, named or implied, ends in a JSON error before
    any matrix is allocated or gadget rung enumerated. A fresh interpreter
    with a timeout, so a build that hangs fails instead."""
    env = _child_env()
    env.pop("STAGED_ORDERS_MAX_DOMAIN", None)
    config = _write(tmp_path / "cfg.json", cfg)
    argv = ["build", "--config", config, *flags, "--out", str(tmp_path / "run")]
    proc = subprocess.run([sys.executable, "-m", "staged_orders.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    assert json.loads(proc.stderr)["error"] == "DomainLimitExceeded"


def test_a_sigma2_stage_budget_is_built_without_walking_to_stabilization(tmp_path):
    """A sigma2 config that sets `stages` still walked the witness dynamics
    to stabilization, one stage at a time, for the default it did not use:
    with a defeat at stage 2**70 the build never ended. A fresh
    interpreter with a timeout, so a build that hangs fails instead."""
    cfg = {"construction": "sigma2", "stages": 5,
           "indices": [{"i": 0, "member": True, "witness": 1, "defeats": [2**70]}]}
    config = _write(tmp_path / "cfg.json", cfg)
    argv = ["build", "--config", config, "--out", str(tmp_path / "run")]
    proc = subprocess.run([sys.executable, "-m", "staged_orders.cli", *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["stages"] == 5


def _cap_address_space():
    """Run in a CLI child before it starts: a build that allocates per stage
    fails at 3 GiB of address space instead of filling the machine."""
    resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))


@pytest.mark.parametrize(
    "cfg, budget",
    [
        ({"construction": "family", "n": 2, "limit_pairs": [], "removals": [[0, 1, 2**70], [1, 0, 0]]},
         2**70 + 1),
        ({"construction": "jump-cochain", "entries": [[0, 2**70]], "n": 5}, 2**70),
        ("sigma2", 2**40),
    ],
    ids=["family-removal", "jump-entry", "sigma2-stages"],
)
def test_a_stage_budget_over_the_cap_is_refused_before_building(tmp_path, cfg, budget):
    """A stage budget over kernel.MAX_STAGES, defaulted (a removal or entry
    at stage 2**70) or given (the shipped sigma2 config with 2**40 stages),
    is a JSON error with exit 2 before anything is built. The family build
    never ended, the jump build raised OverflowError and the sigma2 build
    MemoryError. A fresh interpreter with a timeout and a capped address
    space, so a build that hangs or grows fails instead."""
    if cfg == "sigma2":
        cfg = dict(load_json(shipped_config_path("sigma2")), stages=budget)
    config = _write(tmp_path / "cfg.json", cfg)
    argv = ["build", "--config", config, "--out", str(tmp_path / "run")]
    proc = subprocess.run([sys.executable, "-m", "staged_orders.cli", *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=20, preexec_fn=_cap_address_space)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    assert json.loads(proc.stderr) == {
        "error": "ConfigError", "message": f"stage budget {budget} exceeds cap {MAX_STAGES}"}


def test_the_stage_cap_holds_for_given_and_default_budgets():
    """kernel.MAX_STAGES itself is a budget a build may take; one more is
    refused, whether given or the construction's default."""
    plan = RunPlan({}, "jump-cochain", MAX_STAGES, None, None)
    assert plan.stages_or(lambda: 0) == MAX_STAGES
    assert RunPlan({}, "jump-cochain", None, None, None).stages_or(lambda: MAX_STAGES) == MAX_STAGES
    for stages, need in ((MAX_STAGES + 1, None), (None, lambda: MAX_STAGES + 1)):
        with pytest.raises(ConfigError, match=f"^stage budget {MAX_STAGES + 1} exceeds cap {MAX_STAGES}$"):
            RunPlan({}, "jump-cochain", stages, None, None).stages_or(need)


def test_export_dot_reduction_past_256_intermediates(tmp_path):
    """(0, 257) has 256 intermediates, so it is no covering pair."""
    m = np.eye(258, dtype=bool)
    m[0, 1:] = m[1:257, 257] = True
    path = _write(tmp_path / "fan.json", snapshot_to_obj(Snapshot(258, 0, m), Kind.CE))
    result = _invoke("export-dot", "--snapshot", path, "--reduction")
    assert result.exit_code == 0, result.stderr
    assert '"0" -> "1";' in result.output and '"256" -> "257";' in result.output
    assert '"0" -> "257"' not in result.output


def test_export_dot_writes_every_strict_pair_in_order_across_blocks(tmp_path):
    """A linear order on 400 elements has 79,800 strict pairs, more than
    one block of edge lines; each is written once, in row-major order."""
    m = np.triu(np.ones((400, 400), dtype=bool))
    path = _write(tmp_path / "line.json", snapshot_to_obj(Snapshot(400, 0, m), Kind.CE))
    result = _invoke("export-dot", "--snapshot", path)
    assert result.exit_code == 0, result.stderr
    lines = result.output.splitlines()
    assert lines[0] == "digraph order {" and lines[-1] == "}" and result.output.endswith("}\n")
    edges = [line for line in lines if " -> " in line]
    want = np.argwhere(m & ~np.eye(400, dtype=bool))
    assert len(want) == 79_800
    assert edges == [f'  "{u}" -> "{v}";' for u, v in want.tolist()]
    assert len(lines) == 1 + 400 + len(want) + 1


@pytest.mark.parametrize("principle", ["ads", "cac", "ads-preorder"])
def test_solve_on_an_empty_order_returns_an_empty_solution(tmp_path, principle):
    empty = snapshot_to_obj(Snapshot(0, 0, np.eye(0, dtype=bool)), Kind.CE)
    path = _write(tmp_path / "empty.json", empty)
    result = _invoke("solve", "--order", path, "--principle", principle)
    assert result.exit_code == 0, result.stderr
    assert json.loads(result.output)["elements"] == []


_DEEP = "[" * 100_000 + "]" * 100_000  # json.loads raises RecursionError on it


@pytest.mark.parametrize("where", ["snapshot", "delta", "manifest", "config", "perm"])
def test_deeply_nested_json_is_a_json_error(shipped_runs, tmp_path, where):
    """Every JSON loader turns nesting too deep for json into exit 2; it
    was a RecursionError traceback with exit 1."""
    run = _copy_run(shipped_runs, "jump_cochain", tmp_path)
    if where == "snapshot":
        path = str(tmp_path / "deep.json")
        with open(path, "w") as fh:
            fh.write('{"domain_size":2,"kind":"ce","pairs":' + _DEEP + ',"stage":0}\n')
        argv = ["solve", "--order", path, "--principle", "cac"]
    elif where in ("delta", "manifest"):
        path = run_snapshot_paths(run)[3] if where == "delta" else os.path.join(run, "manifest.json")
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace('{"', '{"deep":' + _DEEP + ',"', 1))
        argv = ["verify", "--dir", run, "--suite", "poset"]
    elif where == "config":
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            fh.write('{"construction":"jump-cochain","deep":' + _DEEP + "}")
        argv = ["build", "--config", path, "--out", str(tmp_path / "out")]
    else:
        path = str(tmp_path / "perm.json")
        with open(path, "w") as fh:
            fh.write(_DEEP)
        argv = ["decode", "--snapshot", run_snapshot_paths(run)[-1],
                "--construction", "jump-cochain", "--perm", path]
    _config_error(_invoke(*argv), f"invalid JSON in {path}")


# Small runs for the fuzz below: a coce run with labels, a ce one and a
# jump run, whose witness suite reads the config too.
_FUZZ_CONFIGS = {
    "spectrum-coce": {"construction": "spectrum-coce", "n": 3, "edges": [[0, 2]],
                      "flips": {"0,1": [2]}, "stages": 8},
    "spectrum-ce": {"construction": "spectrum-ce", "n": 3, "edges": [[0, 1]],
                    "flips": {"1,2": [2]}, "stages": 6},
    "jump-cochain": {"construction": "jump-cochain", "entries": [[0, 2], [1, 3]], "n": 5,
                     "stages": 5},
}
# What a JSON token of a run file may be replaced with: other naturals,
# one past the domain cap, numbers that are not naturals, other types.
_FUZZ_VALUES = ["0", "1", "2", "7", "-1", "4097", "1000000", "1.5", "1e999", "NaN", "true",
                "null", '""', '"ce"', '"coce"', '"snapshot_000.json"', '"../x.json"', "[]",
                "[[0,1]]", "[[1,0]]", "[[0,0]]", "{}", '{"0":"a"}']
_TOKEN = re.compile(r'-?[0-9]+|"(?:[^"\\]|\\.)*"|true|false|null')


@pytest.fixture(scope="module")
def fuzz_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    runs = {}
    for name, config in _FUZZ_CONFIGS.items():
        cfg = _write(root / f"{name}.json", config)
        runs[name] = str(root / name)
        assert _invoke("build", "--config", cfg, "--out", runs[name]).exit_code == 0
    return runs


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_damaged_run_is_refused_or_judged_never_crashes(fuzz_runs, data):
    """One file of a small written run truncated, spliced with text from a
    file of the run, one JSON token in it replaced, or the file deleted:
    load_run raises a ConfigError or loads, and verify exits 0, 1 or 2 with
    no traceback. A domain size over the cap is refused before anything is
    allocated, as DomainLimitExceeded (exit 2)."""
    draw = data.draw
    with tempfile.TemporaryDirectory() as tmp:
        run = shutil.copytree(fuzz_runs[draw(st.sampled_from(sorted(fuzz_runs)))],
                              os.path.join(tmp, "run"))
        names = sorted(os.listdir(run))
        victim = os.path.join(run, draw(st.sampled_from(names)))
        with open(victim, encoding="utf-8") as fh:
            text = fh.read()
        how = draw(st.sampled_from(["truncate", "splice", "value", "delete"]))
        if how == "delete":
            os.remove(victim)
        else:
            if how == "truncate":
                text = text[:draw(st.integers(0, len(text) - 1))]
            elif how == "splice":
                with open(os.path.join(run, draw(st.sampled_from(names))), encoding="utf-8") as fh:
                    donor = fh.read()
                cut = sorted(draw(st.lists(st.integers(0, len(text)), min_size=2, max_size=2)))
                part = sorted(draw(st.lists(st.integers(0, len(donor)), min_size=2, max_size=2)))
                text = text[:cut[0]] + donor[part[0]:part[1]] + text[cut[1]:]
            else:
                token = draw(st.sampled_from(list(_TOKEN.finditer(text))))
                text = text[:token.start()] + draw(st.sampled_from(_FUZZ_VALUES)) + text[token.end():]
            with open(victim, "w", encoding="utf-8") as fh:
                fh.write(text)
        try:
            load_run(run)
        except (ConfigError, DomainLimitExceeded):
            pass
        suite = draw(st.sampled_from(["poset", "monotone", "decode", "witness"]))
        result = _invoke("verify", "--dir", run, "--suite", suite)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 1, 2), result.output


_CONFIG_VALUES = [None, False, True, -1, 0, 1, 2.5, "x", "1", [], {}, [1], [[1]], [[-1, 0]],
                  [[0, 2**70]], 2**70, {"a": 1}]


def _places(value, path=()):
    """The path to every value inside a JSON object or list, depth first."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _places(child, path + (key,))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_mutated_build_config_is_refused_or_built_never_crashes(data):
    """A shipped config with up to three of its values replaced, deleted or
    nested in a list, built with or without --stages or --domain: the build
    exits 0, or exits 2 with one JSON object on stderr, and never raises."""
    draw = data.draw
    cfg = load_json(shipped_config_path(draw(st.sampled_from(SHIPPED))))
    for _ in range(draw(st.integers(1, 3))):
        *path, key = draw(st.sampled_from(list(_places(cfg))))
        parent = functools.reduce(operator.getitem, path, cfg)
        how = draw(st.sampled_from(["replace", "delete", "nest"]))
        if how == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(_CONFIG_VALUES)))
        elif how == "delete":
            del parent[key]
        else:
            parent[key] = [parent[key]]
    flag = draw(st.sampled_from([None, "--stages", "--domain"]))
    flags = [flag, str(draw(st.sampled_from([0, 1, 5])))] if flag else []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setenv("STAGED_ORDERS_MAX_DOMAIN", "200")
        config = _write(os.path.join(tmp, "cfg.json"), cfg)
        result = _invoke("build", "--config", config, *flags, "--out", os.path.join(tmp, "run"))
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 2), result.output
    if result.exit_code == 2:
        assert isinstance(json.loads(result.stderr), dict), result.stderr
