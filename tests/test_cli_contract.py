"""The command line contract, pinned byte for byte.

A fixed matrix of commands is replayed through the CLI: help texts,
builds of every shipped config, every suite on every run, decode under
every construction name with and without relabeling, --consts variants,
solve, export-dot and the build error paths. For each command the
sha256 of (exit code, stdout, stderr) is compared with the checked-in
record, and so is the sha256 of every file the builds write. Temporary
paths are normalised first.

Commands that ended in a traceback when the record was made are left
out of it; the record names everything else.

Regenerate the record (only when the contract is meant to change):

    PYTHONPATH=src python tests/test_cli_contract.py
"""

import hashlib
import json
import os
import shutil
import sys
import tempfile

from click.testing import CliRunner

from staged_orders.cli import main

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_contract.json")
CONFIGS = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "src", "staged_orders", "configs")
)
SHIPPED = ("sigma2", "family", "jump_cochain", "jump_antichain", "spectrum_ce", "spectrum_coce")
NAMES = ("sigma2", "family", "jump-cochain", "jump-antichain", "spectrum-ce", "spectrum-coce")
SUITES = ("poset", "monotone", "decode", "isomorphism", "witness")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _final(run):
    names = sorted(n for n in os.listdir(run) if n.startswith("snapshot_"))
    return os.path.join(run, names[-1])


def _matrix(tmp):
    """Yield argv lists in order; files the later commands need are
    written between the yields."""
    yield ["--help"]
    for command in ("build", "verify", "decode", "solve", "export-dot"):
        yield [command, "--help"]

    runs = {}
    for name in SHIPPED:
        runs[name] = os.path.join(tmp, "runs", name)
        yield ["build", "--config", os.path.join(CONFIGS, f"{name}.json"), "--out", runs[name]]

    horizon = _write(os.path.join(tmp, "horizon.json"), {
        "construction": "family", "n": 3, "limit_pairs": [[0, 1]], "removal_horizon": 4,
    })
    runs["family_horizon"] = os.path.join(tmp, "runs", "family_horizon")
    yield ["build", "--config", horizon, "--seed", "5", "--out", runs["family_horizon"]]
    yield ["build", "--config", horizon, "--out", os.path.join(tmp, "runs", "no_seed")]
    nested = _write(os.path.join(tmp, "nested.json"), {
        "construction": "jump-cochain", "stages": 4, "config": {"entries": [[0, 2]], "n": 5},
    })
    runs["nested"] = os.path.join(tmp, "runs", "nested")
    yield ["build", "--config", nested, "--out", runs["nested"]]

    def shipped(name):
        return os.path.join(CONFIGS, f"{name}.json")

    bad = os.path.join(tmp, "runs", "bad")
    yield ["build", "--config", shipped("jump_cochain"), "--stages", "3", "--out", bad]
    yield ["build", "--config", shipped("spectrum_ce"), "--stages", "1", "--out", bad]
    yield ["build", "--config", shipped("spectrum_coce"), "--stages", "-1", "--out", bad]
    yield ["build", "--config", shipped("sigma2"), "--domain", "10", "--out", bad]
    yield ["build", "--config", shipped("spectrum_ce"), "--domain", "10", "--out", bad]
    yield ["build", "--config", shipped("sigma2"), "--construction", "bogus", "--out", bad]
    wrong = _write(os.path.join(tmp, "wrong.json"), {"construction": "bogus", "n": 3})
    yield ["build", "--config", wrong, "--out", bad]
    no_n = _write(os.path.join(tmp, "no_n.json"), {"construction": "jump-cochain", "entries": [[0, 2]]})
    yield ["build", "--config", no_n, "--out", bad]
    listed = _write(os.path.join(tmp, "listed.json"), [1, 2])
    yield ["build", "--config", listed, "--out", bad]
    yield ["build", "--config", os.path.join(tmp, "absent.json"), "--out", bad]

    for run in runs.values():
        for suite in SUITES:
            yield ["verify", "--dir", run, "--suite", suite]
    yield ["verify", "--dir", os.path.join(tmp, "absent"), "--suite", "poset"]

    finals = {name: _final(runs[name]) for name in SHIPPED if name != "family"}
    for name, final in finals.items():
        with open(final) as fh:
            n = json.load(fh)["domain_size"]
        perms = {
            "identity": list(range(n)),
            "rotated": [(x + 11) % n for x in range(n)],
            "reversed": list(reversed(range(n))),
        }
        paths = {tag: _write(os.path.join(tmp, f"{name}_{tag}.json"), p) for tag, p in perms.items()}
        for construction in NAMES:
            decode = ["decode", "--snapshot", final, "--construction", construction]
            yield decode
            for tag in perms:
                yield decode + ["--perm", paths[tag]]

    sigma2 = ["decode", "--snapshot", finals["sigma2"], "--construction", "sigma2"]
    for consts in ("0,1,2,3,4", "0,1,2", "a,b,c,d,e"):
        yield sigma2 + ["--consts", consts]
    yield sigma2 + ["--consts", "0,1,2,3,4", "--perm", os.path.join(tmp, "sigma2_reversed.json")]
    for name in ("spectrum_ce", "spectrum_coce"):
        spectrum = ["decode", "--snapshot", finals[name], "--construction", name.replace("_", "-")]
        for consts in ("0,1,2,3", "0,1", "x,1,2,3"):
            yield spectrum + ["--consts", consts]
        yield spectrum + ["--consts", "0,1,2,3", "--perm", os.path.join(tmp, f"{name}_rotated.json")]
    yield ["decode", "--snapshot", finals["jump_cochain"], "--construction", "jump-cochain",
           "--consts", "1,2"]
    not_perm = _write(os.path.join(tmp, "not_perm.json"), [0, 0, 1])
    yield sigma2 + ["--perm", not_perm]
    yield sigma2 + ["--perm", os.path.join(tmp, "absent.json")]

    alone = os.path.join(tmp, "alone")
    os.makedirs(alone)
    for name in ("spectrum_ce", "spectrum_coce"):
        copy = os.path.join(alone, f"{name}.json")
        shutil.copyfile(finals[name], copy)
        for construction in ("spectrum-ce", "spectrum-coce", "sigma2", "jump-cochain"):
            yield ["decode", "--snapshot", copy, "--construction", construction]

    linear = _write(os.path.join(tmp, "linear.json"), {
        "domain_size": 5, "stage": 0, "kind": "ce",
        "pairs": [[i, j] for i in range(5) for j in range(5) if i < j],
    })
    for target in list(finals.values()) + [linear]:
        for principle in ("ads", "cac", "ads-preorder"):
            yield ["solve", "--order", target, "--principle", principle]
        yield ["export-dot", "--snapshot", target]
        yield ["export-dot", "--snapshot", target, "--reduction"]
    yield ["solve", "--order", linear, "--principle", "ads-preorder", "--threshold", "1"]


def replay():
    """Run the matrix; return {command: sha}, {file: sha} and the commands
    that ended in a traceback."""
    tmp = tempfile.mkdtemp(prefix="cli-contract-")
    try:
        runner = CliRunner()
        commands, files, tracebacks = {}, {}, []

        def norm(text):
            return text.replace(tmp, "<TMP>").replace(CONFIGS, "<CONFIGS>")

        for argv in _matrix(tmp):
            key = norm(" ".join(argv))
            result = runner.invoke(main, argv, terminal_width=80)
            if result.exception is not None and not isinstance(result.exception, SystemExit):
                tracebacks.append(key)
                continue
            blob = json.dumps([result.exit_code, norm(result.stdout), norm(result.stderr)])
            commands[key] = _sha(blob.encode("utf-8"))
        for root, _, names in os.walk(os.path.join(tmp, "runs")):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    files[norm(path)] = _sha(fh.read())
        return commands, files, tracebacks
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_cli_contract_matches_the_record():
    with open(RECORD) as fh:
        record = json.load(fh)
    commands, files, _ = replay()
    missing = sorted(set(record["commands"]) - set(commands))
    changed = sorted(k for k in record["commands"] if k in commands and commands[k] != record["commands"][k])
    assert not missing, f"commands no longer exit cleanly: {missing}"
    assert not changed, f"commands whose exit code or output changed: {changed}"
    assert files == record["files"]


if __name__ == "__main__":
    commands, files, tracebacks = replay()
    with open(RECORD, "w") as fh:
        json.dump({"commands": commands, "files": files}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(commands)} commands, {len(files)} files; left out {len(tracebacks)} tracebacks:")
    for key in tracebacks:
        print("  " + key)
    sys.exit(0)
