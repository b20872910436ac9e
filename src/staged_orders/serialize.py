"""JSON interchange for snapshots and run directories.

Snapshot schema:
  {"domain_size": n, "stage": s, "kind": "ce"|"coce",
   "pairs": [[i,j], ...],          # sorted lexicographically, reflexive omitted
   "labels": {"5": "b_0", ...}}    # optional

All files are emitted with sorted keys, compact separators and a trailing
newline so reruns are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import List, Optional, Tuple

from .kernel import ConfigError, Kind, Snapshot

MANIFEST_NAME = "manifest.json"
CONFIG_NAME = "config.json"
FAMILY_NAME = "family.json"


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def config_hash(config_obj) -> str:
    return hashlib.sha256(canonical_dumps(config_obj).encode("utf-8")).hexdigest()


def snapshot_to_obj(snapshot: Snapshot, kind: Kind) -> dict:
    pairs = sorted(p for p in snapshot.pairs if p[0] != p[1])
    obj = {
        "domain_size": snapshot.domain_size,
        "stage": snapshot.stage,
        "kind": kind.value,
        "pairs": [list(p) for p in pairs],
    }
    if snapshot.labels:
        obj["labels"] = {str(k): v for k, v in snapshot.labels.items()}
    return obj


def is_natural(value) -> bool:
    """A JSON natural number; true and false do not count."""
    return type(value) is int and value >= 0


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def snapshot_from_obj(obj) -> Tuple[Snapshot, Kind]:
    _expect(isinstance(obj, dict), "snapshot JSON must be an object")
    n = obj.get("domain_size")
    stage = obj.get("stage")
    kind_raw = obj.get("kind")
    pairs = obj.get("pairs")
    _expect(is_natural(n), "domain_size must be a natural number")
    _expect(is_natural(stage), "stage must be a natural number")
    _expect(kind_raw in ("ce", "coce"), "kind must be 'ce' or 'coce'")
    _expect(isinstance(pairs, list), "pairs must be a list")
    for p in pairs:
        _expect(
            isinstance(p, list) and len(p) == 2 and type(p[0]) is int and type(p[1]) is int,
            f"malformed pair {p!r}",
        )
        _expect(0 <= p[0] < n and 0 <= p[1] < n, f"pair {p!r} outside domain")
    labels = {}
    raw_labels = obj.get("labels", {})
    _expect(isinstance(raw_labels, dict), "labels must be an object")
    for k, v in raw_labels.items():
        _expect(isinstance(v, str), f"label for {k!r} must be a string")
        try:
            idx = int(k)
        except ValueError:
            raise ConfigError(f"label key {k!r} is not a decimal element index")
        _expect(0 <= idx < n, f"label key {k!r} outside domain")
        labels[idx] = v
    snapshot = Snapshot.from_pairs(n, [tuple(p) for p in pairs], stage, labels or None)
    return snapshot, Kind(kind_raw)


def save_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(obj))


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}")


def load_snapshot(path: str) -> Tuple[Snapshot, Kind]:
    return snapshot_from_obj(load_json(path))


def _snapshot_name(stage: int, last_stage: int) -> str:
    width = max(3, len(str(last_stage)))
    return f"snapshot_{stage:0{width}d}.json"


def write_run(
    out_dir: str,
    construction: str,
    config_obj,
    kind: Kind,
    snapshots: List[Snapshot],
    stages: int,
    seed: Optional[int] = None,
    family: Optional[dict] = None,
) -> dict:
    """Write config, snapshots (or, for a set family, family.json) and the
    manifest; return the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    save_json(os.path.join(out_dir, CONFIG_NAME), config_obj)
    if family is not None:
        save_json(os.path.join(out_dir, FAMILY_NAME), family)
        domain_size = family["n"]
    else:
        domain_size = snapshots[0].domain_size if snapshots else 0
    last = snapshots[-1].stage if snapshots else 0
    for snapshot in snapshots:
        path = os.path.join(out_dir, _snapshot_name(snapshot.stage, last))
        save_json(path, snapshot_to_obj(snapshot, kind))
    manifest = {
        "construction": construction,
        "config_hash": config_hash(config_obj),
        "kind": kind.value,
        "domain_size": domain_size,
        "stages": stages,
        "snapshot_count": len(snapshots),
        "seed": seed,
    }
    save_json(os.path.join(out_dir, MANIFEST_NAME), manifest)
    return manifest


def load_run(run_dir: str) -> Tuple[dict, dict, List[Snapshot], Kind]:
    manifest = load_json(os.path.join(run_dir, MANIFEST_NAME))
    _expect(isinstance(manifest, dict), "manifest must be an object")
    config = load_json(os.path.join(run_dir, CONFIG_NAME))
    names = sorted(
        name
        for name in os.listdir(run_dir)
        if name.startswith("snapshot_") and name.endswith(".json")
    )
    snapshots = []
    kind = Kind(manifest.get("kind", "ce"))
    for name in names:
        snapshot, snap_kind = load_snapshot(os.path.join(run_dir, name))
        _expect(snap_kind is kind, f"{name} kind disagrees with manifest")
        snapshots.append(snapshot)
    snapshots.sort(key=lambda s: s.stage)
    # Files lost, spliced in or edited must not pass as a shorter run.
    count = manifest.get("snapshot_count")
    _expect(
        is_natural(count) and count == len(snapshots),
        f"run holds {len(snapshots)} snapshots but the manifest lists {count!r}",
    )
    _expect([s.stage for s in snapshots] == list(range(count)), "snapshot stages have gaps")
    _expect(
        all(s.domain_size == manifest.get("domain_size") for s in snapshots),
        "a snapshot's domain size disagrees with the manifest",
    )
    return manifest, config, snapshots, kind
