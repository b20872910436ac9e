import json
import os

import pytest
from click.testing import CliRunner

from staged_orders.cli import main
from staged_orders.serialize import canonical_dumps, load_json

from conftest import run_snapshot_paths, shipped_config_path


def _invoke(*args):
    return CliRunner().invoke(main, list(args))


def _write(path, obj):
    with open(path, "w") as fh:
        fh.write(canonical_dumps(obj))
    return str(path)


TINY_SPECTRUM = {
    "construction": "spectrum-coce",
    "n": 3,
    "edges": [[0, 2]],
    "flips": {"0,1": [2]},
    "stages": 8,
}

TINY_FAMILY_HORIZON = {
    "construction": "family",
    "n": 3,
    "limit_pairs": [[0, 1]],
    "removal_horizon": 4,
}

TINY_JUMP = {
    "construction": "jump-cochain",
    "entries": [[0, 2]],
    "n": 5,
    "stages": 4,
}


def test_build_writes_run_and_manifest(tmp_path):
    cfg = _write(tmp_path / "cfg.json", TINY_SPECTRUM)
    out = str(tmp_path / "run")
    result = _invoke("build", "--config", cfg, "--out", out)
    assert result.exit_code == 0, result.output
    manifest = json.loads(result.output)
    assert manifest["construction"] == "spectrum-coce"
    assert manifest["snapshot_count"] == 9
    assert os.path.exists(os.path.join(out, "config.json"))
    assert len(run_snapshot_paths(out)) == 9


def test_rebuild_is_byte_identical(tmp_path):
    cfg = _write(tmp_path / "cfg.json", TINY_SPECTRUM)
    outs = []
    for tag in ("one", "two"):
        out = str(tmp_path / tag)
        assert _invoke("build", "--config", cfg, "--out", out).exit_code == 0
        outs.append(out)
    for name in sorted(os.listdir(outs[0])):
        with open(os.path.join(outs[0], name), "rb") as a:
            with open(os.path.join(outs[1], name), "rb") as b:
                assert a.read() == b.read(), name


def test_flags_override_file_keys(tmp_path):
    cfg = _write(tmp_path / "cfg.json", dict(TINY_SPECTRUM, stages=8))
    out = str(tmp_path / "run")
    result = _invoke("build", "--config", cfg, "--stages", "10", "--out", out)
    assert result.exit_code == 0
    assert json.loads(result.output)["stages"] == 10
    assert load_json(os.path.join(out, "config.json"))["stages"] == 10


def test_nested_config_key_accepted(tmp_path):
    nested = {
        "construction": "jump-cochain",
        "stages": 4,
        "config": {"entries": [[0, 2]], "n": 5},
    }
    cfg = _write(tmp_path / "cfg.json", nested)
    out = str(tmp_path / "run")
    result = _invoke("build", "--config", cfg, "--out", out)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["snapshot_count"] == 5


def test_family_build_draws_removals_from_seed(tmp_path):
    cfg = _write(tmp_path / "cfg.json", TINY_FAMILY_HORIZON)
    out1, out2, out3 = (str(tmp_path / t) for t in ("a", "b", "c"))
    assert _invoke("build", "--config", cfg, "--seed", "5", "--out", out1).exit_code == 0
    assert _invoke("build", "--config", cfg, "--seed", "5", "--out", out2).exit_code == 0
    assert _invoke("build", "--config", cfg, "--seed", "6", "--out", out3).exit_code == 0
    r1 = load_json(os.path.join(out1, "config.json"))["removals"]
    r2 = load_json(os.path.join(out2, "config.json"))["removals"]
    r3 = load_json(os.path.join(out3, "config.json"))["removals"]
    assert r1 == r2
    assert r1 != r3  # different seed, different schedule
    # drawn removals are inlined: the resolved config rebuilds without a seed
    assert "removal_horizon" not in load_json(os.path.join(out1, "config.json"))
    missing_seed = _invoke("build", "--config", cfg, "--out", str(tmp_path / "d"))
    assert missing_seed.exit_code == 2


def test_build_errors_are_json_on_stderr(tmp_path):
    result = _invoke(
        "build", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x")
    )
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"] == "ConfigError"
    assert "absent.json" in err["message"]


def test_verify_suites_pass_on_shipped_runs(shipped_runs):
    for name, run in shipped_runs.items():
        for suite in ("poset", "monotone"):
            result = _invoke("verify", "--dir", run, "--suite", suite)
            assert result.exit_code == 0, (name, suite, result.output)
            assert result.output.strip().endswith("PASS")
    assert _invoke("verify", "--dir", shipped_runs["sigma2"], "--suite", "decode").exit_code == 0
    assert _invoke("verify", "--dir", shipped_runs["family"], "--suite", "isomorphism").exit_code == 0
    assert _invoke("verify", "--dir", shipped_runs["jump_cochain"], "--suite", "witness").exit_code == 0
    assert _invoke("verify", "--dir", shipped_runs["jump_antichain"], "--suite", "witness").exit_code == 0


def test_verify_flags_a_corrupted_snapshot(tmp_path):
    cfg = _write(tmp_path / "cfg.json", TINY_JUMP)
    out = str(tmp_path / "run")
    assert _invoke("build", "--config", cfg, "--out", out).exit_code == 0
    victim = run_snapshot_paths(out)[-1]
    obj = load_json(victim)
    obj["pairs"] = [p for p in obj["pairs"] if p != [0, 2]] + [[2, 0]]
    _write(victim, obj)
    result = _invoke("verify", "--dir", out, "--suite", "poset")
    assert result.exit_code == 1
    assert "FAIL" in result.output
    assert "antisymmetric" in result.output or "transitive" in result.output
    # and the tampered history is no longer monotone either
    assert _invoke("verify", "--dir", out, "--suite", "monotone").exit_code == 1


def test_verify_rejects_inapplicable_suites(shipped_runs):
    result = _invoke("verify", "--dir", shipped_runs["sigma2"], "--suite", "witness")
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "ConfigError"
    result = _invoke("verify", "--dir", shipped_runs["family"], "--suite", "decode")
    assert result.exit_code == 2
    result = _invoke(
        "verify", "--dir", shipped_runs["jump_cochain"], "--suite", "isomorphism"
    )
    assert result.exit_code == 2


def test_decode_sigma2_and_permutation_invariance(shipped_runs, tmp_path):
    run = shipped_runs["sigma2"]
    snap_path = run_snapshot_paths(run)[-1]
    plain = _invoke("decode", "--snapshot", snap_path, "--construction", "sigma2")
    assert plain.exit_code == 0
    bits = json.loads(plain.output)
    assert bits == {"construction": "sigma2", "membership": [1, 0, 1, 0]}

    domain = load_json(snap_path)["domain_size"]
    perm = list(reversed(range(domain)))
    perm_path = _write(tmp_path / "perm.json", perm)
    moved = _invoke(
        "decode", "--snapshot", snap_path, "--construction", "sigma2",
        "--perm", perm_path,
    )
    assert moved.exit_code == 0
    assert json.loads(moved.output) == bits


def test_decode_spectrum_matches_config_both_ways(shipped_runs, tmp_path):
    for name in ("spectrum_ce", "spectrum_coce"):
        run = shipped_runs[name]
        snap_path = run_snapshot_paths(run)[-1]
        construction = name.replace("_", "-")
        plain = _invoke("decode", "--snapshot", snap_path, "--construction", construction)
        assert plain.exit_code == 0, plain.stderr
        decoded = json.loads(plain.output)
        want = sorted(load_json(shipped_config_path(name))["edges"])
        assert decoded["edges"] == want

        domain = load_json(snap_path)["domain_size"]
        perm = [(x + 11) % domain for x in range(domain)]
        perm_path = _write(tmp_path / f"{name}_perm.json", perm)
        moved = _invoke(
            "decode", "--snapshot", snap_path, "--construction", construction,
            "--perm", perm_path,
        )
        assert moved.exit_code == 0, moved.stderr
        assert json.loads(moved.output)["edges"] == want


def test_decode_spectrum_rejects_kind_mismatch(shipped_runs):
    snap_path = run_snapshot_paths(shipped_runs["spectrum_ce"])[-1]
    result = _invoke("decode", "--snapshot", snap_path, "--construction", "spectrum-coce")
    assert result.exit_code == 2


def test_decode_jump_reads_prefix_and_refuses_perm(shipped_runs, tmp_path):
    for name in ("jump_cochain", "jump_antichain"):
        run = shipped_runs[name]
        snap_path = run_snapshot_paths(run)[-1]
        construction = name.replace("_", "-")
        result = _invoke("decode", "--snapshot", snap_path, "--construction", construction)
        assert result.exit_code == 0, result.stderr
        payload = json.loads(result.output)
        # schedule: 0,1,2,3,6,10 enter by stage 48
        want = [1 if e in (0, 1, 2, 3, 6, 10) else 0 for e in range(payload["i"])]
        assert payload["bits"] == want

        domain = load_json(snap_path)["domain_size"]
        perm_path = _write(tmp_path / f"{name}_perm.json", list(range(domain)))
        refused = _invoke(
            "decode", "--snapshot", snap_path, "--construction", construction,
            "--perm", perm_path,
        )
        assert refused.exit_code == 2


def test_solve_command_outputs(shipped_runs, tmp_path):
    snap_path = run_snapshot_paths(shipped_runs["jump_cochain"])[-1]
    result = _invoke("solve", "--order", snap_path, "--principle", "cac")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["principle"] == "cac" and payload["kind"] in ("chain", "antichain")
    assert len(payload["elements"]) >= 1

    from _generators import random_linear_order
    import random as random_mod

    lin = random_linear_order(random_mod.Random(3), 9)
    from staged_orders.serialize import snapshot_to_obj
    from staged_orders.kernel import Kind

    path = _write(tmp_path / "lin.json", snapshot_to_obj(lin, Kind.CE))
    result = _invoke("solve", "--order", path, "--principle", "ads")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["direction"] in ("ascending", "descending")
    assert len(payload["elements"]) >= 3  # ceil(sqrt(9))

    result = _invoke("solve", "--order", path, "--principle", "ads-preorder")
    assert result.exit_code == 0

    not_total = _invoke("solve", "--order", path, "--principle", "ads", "--threshold", "1")
    assert not_total.exit_code == 0  # threshold ignored for plain ads


def test_solve_rejects_unsuitable_orders(shipped_runs):
    snap_path = run_snapshot_paths(shipped_runs["jump_cochain"])[-1]
    result = _invoke("solve", "--order", snap_path, "--principle", "ads")
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "NotTotal"


def test_export_dot_shape(tmp_path):
    cfg = _write(tmp_path / "cfg.json", TINY_JUMP)
    out = str(tmp_path / "run")
    assert _invoke("build", "--config", cfg, "--out", out).exit_code == 0
    snap_path = run_snapshot_paths(out)[0]
    result = _invoke("export-dot", "--snapshot", snap_path)
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "digraph order {" and lines[-1] == "}"
    assert '  "0" -> "1";' in lines
    assert '  "0" -> "4";' in lines

    reduced = _invoke("export-dot", "--snapshot", snap_path, "--reduction")
    assert reduced.exit_code == 0
    rlines = reduced.output.strip().splitlines()
    assert '  "0" -> "1";' in rlines
    assert '  "0" -> "4";' not in rlines  # implied through 1, 2, 3
    assert len(rlines) < len(lines)


def test_export_dot_escapes_quotes_and_backslashes_in_labels(tmp_path):
    from staged_orders.kernel import Kind, Snapshot
    from staged_orders.serialize import snapshot_to_obj

    labels = {0: 'x"y', 1: "a\\b", 2: 'q\\"'}
    snap = Snapshot.from_pairs(3, [(0, 1)], labels=labels)
    path = _write(tmp_path / "labels.json", snapshot_to_obj(snap, Kind.CE))
    result = _invoke("export-dot", "--snapshot", path)
    assert result.exit_code == 0
    assert result.output.splitlines()[1:4] == [
        '  "0" [label="0: x\\"y"];',
        '  "1" [label="1: a\\\\b"];',
        '  "2" [label="2: q\\\\\\""];',
    ]


def test_rebuild_over_a_longer_run_leaves_no_stale_files(tmp_path):
    """Snapshots of the longer run were left behind, so verify refused
    the new run for holding more snapshots than its manifest lists."""
    cfg = _write(tmp_path / "cfg.json", TINY_JUMP)
    out = tmp_path / "run"
    assert _invoke("build", "--config", cfg, "--stages", "12", "--out", str(out)).exit_code == 0
    (out / "notes.txt").write_text("kept")
    assert _invoke("build", "--config", cfg, "--out", str(out)).exit_code == 0
    assert len(run_snapshot_paths(str(out))) == TINY_JUMP["stages"] + 1
    assert (out / "notes.txt").read_text() == "kept"
    for suite in ("poset", "monotone", "witness"):
        assert _invoke("verify", "--dir", str(out), "--suite", suite).exit_code == 0

    family = _write(tmp_path / "family_cfg.json", TINY_FAMILY_HORIZON)
    assert _invoke("build", "--config", family, "--seed", "5", "--out", str(out)).exit_code == 0
    assert run_snapshot_paths(str(out)) == []
    assert _invoke("verify", "--dir", str(out), "--suite", "isomorphism").exit_code == 0
    assert _invoke("build", "--config", cfg, "--out", str(out)).exit_code == 0
    assert not (out / "family.json").exists()
    assert _invoke("verify", "--dir", str(out), "--suite", "witness").exit_code == 0


def test_long_run_stores_its_middle_stages_as_deltas(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {
        "construction": "jump-cochain", "n": 512, "stages": 512,
        "entries": [[31 * e, 31 * e + 4 + e % 13] for e in range(16)],
    })
    out = str(tmp_path / "run")
    assert _invoke("build", "--config", cfg, "--out", out).exit_code == 0
    paths = run_snapshot_paths(out)
    assert len(paths) == 513
    assert "pairs" in load_json(paths[0]) and "pairs" in load_json(paths[-1])
    assert not any("pairs" in load_json(path) for path in paths[1:-1])
    assert sum(os.path.getsize(os.path.join(out, name)) for name in os.listdir(out)) < 10**7
