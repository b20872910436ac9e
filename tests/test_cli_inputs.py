"""Outside input that is wrong must end in a JSON error with exit 2:
never a traceback, never a silent PASS."""

import json
import os
import shutil

import pytest
from click.testing import CliRunner

from staged_orders.cli import main
from staged_orders.kernel import ConfigError
from staged_orders.serialize import canonical_dumps, load_json, snapshot_from_obj

from conftest import run_snapshot_paths


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
