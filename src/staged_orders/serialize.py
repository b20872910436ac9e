"""JSON interchange for snapshots and run directories.

A run stores its first and last stage as full snapshots and every stage in
between as a delta against the stage before it.

Full snapshot:
  {"domain_size": n, "stage": s, "kind": "ce"|"coce",
   "pairs": [[i,j], ...],          # sorted lexicographically, reflexive omitted
   "labels": {"5": "b_0", ...}}    # optional

Delta (a middle stage of a run):
  {"domain_size": n, "stage": s, "kind": "ce"|"coce",
   "base": "snapshot_004.json",    # the previous stage's file, same directory
   "added": [[i,j], ...],          # strict pairs the base lacks, sorted
   "removed": [[i,j], ...],        # strict pairs the base holds, sorted
   "labels": {"5": "b_0", ...}}    # optional; all of this stage's labels

A middle file given alone loads as long as its bases sit beside it: its
chain of bases is followed back to a full file. A run directory is read
by load_run in one pass over its files: each file is parsed and checked
on its own, then the files against the manifest. Both then go through
the same fold, in stage order: each delta's base must be the file before
it, and the delta is checked against that stage and applied to one
working matrix. A delta is refused unless its stage is the base's stage
+ 1, its domain size and kind are the base's, every added pair is absent
from the base, every removed pair is held by it and no pair in either
list is reflexive; the refusal names the delta's file. A full file is
accepted at any stage. A domain size over the cap (kernel.max_domain) is
refused before any pair is read.

The fold gives a kernel.Replay: the first and last snapshots and, for
every later stage, its checked added and removed pairs and its labels,
equal labels shared (a full file is kept as its delta). A lone file is
the last snapshot of its chain's fold. A stage is rebuilt only when the
replay is walked, so a walk holds two matrices at a time, however many
stages the run has.

All files are emitted with sorted keys, compact separators and a trailing
newline so reruns are byte-identical.

Writers emit the strict pairs, sorted. Readers also accept pairs in any
order and duplicate pairs, and reflexive pairs in `pairs`. Every other
pair list is rejected with a ConfigError (exit 2 on the command line): a
pair that is not a list of two ints (JSON true and false are not ints) or
that lies outside 0..n-1. The first bad pair in file order is named. A
label key must be an element index in plain decimal (no sign, space or
leading zero).

Stage files are read without a Python object per pair: a pair list written
compactly, as the writers write it ([[i,j],...], no whitespace, plain
decimals of at most 9 digits), is checked against that grammar in
whole-text passes, then numpy's text parser reads its numbers; the other
values of the object are read by json's own scanner. Any other text,
valid JSON or not, goes to json.loads whole, with the same checks and
error texts. Configs, manifests, family.json and permutation files are
plain JSON, read by load_json.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .kernel import (
    ConfigError, Delta, DomainLimitExceeded, Kind, Replay, Snapshot, _check_domain_size,
    _pair_array, _strict_pairs,
)

MANIFEST_NAME = "manifest.json"
CONFIG_NAME = "config.json"
FAMILY_NAME = "family.json"


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_dumps(obj) -> str:
    """`obj` as JSON with sorted keys, compact separators and a trailing
    newline. A value of a top-level object may be an int (k, 2) array: it
    is written as its list of pairs, with no Python object per pair."""
    if not (isinstance(obj, dict) and any(isinstance(v, np.ndarray) for v in obj.values())):
        return _dumps(obj) + "\n"
    items = []
    for key in sorted(obj):
        value = obj[key]
        text = _pairs_text(value) if isinstance(value, np.ndarray) else _dumps(value)
        items.append(f"{json.dumps(key)}:{text}")
    return "{" + ",".join(items) + "}\n"


def _pairs_text(pairs: np.ndarray) -> str:
    """_dumps(pairs.tolist()) for an int (k, 2) array of naturals, built one
    run of pairs with the same first element at a time."""
    if not len(pairs):
        return "[]"
    starts = np.flatnonzero(np.diff(pairs[:, 0])) + 1
    runs = (
        f"[{i}," + f"],[{i},".join(map(str, seconds.tolist())) + "]"
        for i, seconds in zip(pairs[np.r_[0, starts], 0].tolist(), np.split(pairs[:, 1], starts))
    )
    return "[" + ",".join(runs) + "]"


def config_hash(config_obj) -> str:
    # sha256 from the interpreter's own module, as the standard library's
    # random takes sha512: hashlib would load OpenSSL, 3.5 MB for one digest
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(canonical_dumps(config_obj).encode("utf-8")).hexdigest()


def _stage_obj(n: int, stage: int, kind: Kind, labels: Mapping[int, str], **relation) -> dict:
    """A stage file's object: its header, `relation`, its pair lists as
    int (k, 2) arrays, and `labels`."""
    obj = {"domain_size": n, "stage": stage, "kind": kind.value}
    obj.update(relation)
    if labels:
        obj["labels"] = {str(k): v for k, v in labels.items()}
    return obj


def snapshot_to_obj(snapshot: Snapshot, kind: Kind) -> dict:
    """A full stage file's object, its pairs an int64 (k, 2) array: written
    by canonical_dumps as their list."""
    pairs = _strict_pairs(snapshot.matrix)
    return _stage_obj(snapshot.domain_size, snapshot.stage, kind, snapshot.labels, pairs=pairs)


def is_natural(value) -> bool:
    """A JSON natural number; true and false do not count."""
    return type(value) is int and value >= 0


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _header(obj) -> Tuple[int, int, Kind]:
    """Domain size, stage and kind of a full or delta object; a domain size
    over the cap is refused here, before any pair is read."""
    _expect(isinstance(obj, dict), "snapshot JSON must be an object")
    n = obj.get("domain_size")
    stage = obj.get("stage")
    kind_raw = obj.get("kind")
    _expect(is_natural(n), "domain_size must be a natural number")
    _expect(is_natural(stage), "stage must be a natural number")
    _expect(kind_raw in ("ce", "coce"), "kind must be 'ce' or 'coce'")
    _check_domain_size(n)
    return n, stage, Kind(kind_raw)


def _pair_list(obj: dict, key: str, n: int) -> np.ndarray:
    """obj[key] as an int64 (k, 2) array of pairs inside 0..n-1, n within
    the cap. The value is a JSON list, or such an array as `_load_stage`
    parses it."""
    pairs = obj.get(key)
    if isinstance(pairs, np.ndarray) and pairs.dtype == np.int64 and pairs.shape[1:] == (2,):
        if _pair_array(pairs, n) is None:
            _refuse_first(pairs, ((pairs < 0) | (pairs >= n)).any(axis=1), "pair {} outside domain")
        return pairs
    _expect(isinstance(pairs, list), f"{key} must be a list")
    # JSON gives pairs as lists; a tuple pair is refused like any other shape
    checked = _pair_array(pairs, n) if set(map(type, pairs)) <= {list} else None
    if checked is None:  # some pair is bad: name the first, in file order
        for p in pairs:
            _expect(
                isinstance(p, list) and len(p) == 2 and type(p[0]) is int and type(p[1]) is int,
                f"malformed pair {p!r}",
            )
            _expect(0 <= p[0] < n and 0 <= p[1] < n, f"pair {p!r} outside domain")
    return checked


_ELEMENT_KEY = re.compile(r"0|[1-9][0-9]*")


def _labels(obj: dict, n: int) -> Dict[int, str]:
    labels = {}
    raw_labels = obj.get("labels", {})
    _expect(isinstance(raw_labels, dict), "labels must be an object")
    for k, v in raw_labels.items():  # messages built only on failure: every file has labels
        if not isinstance(v, str):
            raise ConfigError(f"label for {k!r} must be a string")
        # one spelling per element, so no two keys can name the same element
        if not (isinstance(k, str) and _ELEMENT_KEY.fullmatch(k)):
            raise ConfigError(f"label key {k!r} is not a decimal element index")
        idx = int(k)
        if idx >= n:
            raise ConfigError(f"label key {k!r} outside domain")
        labels[idx] = v
    return labels


def snapshot_from_obj(obj) -> Tuple[Snapshot, Kind]:
    n, stage, kind = _header(obj)
    pairs = _pair_list(obj, "pairs", n)
    return Snapshot.from_pairs(n, pairs, stage, _labels(obj, n) or None), kind


def _refuse_first(pairs: np.ndarray, bad: np.ndarray, message: str) -> None:
    if bad.any():
        raise ConfigError(message.format(pairs[bad.argmax()].tolist()))


def _apply_delta(
    name: str, obj: dict, matrix: np.ndarray, base_stage: int, base_kind: Kind
) -> Delta:
    """Check the delta object of the file `name` against the stage before
    it, stage `base_stage` of kind `base_kind` held in the writable
    `matrix`, and apply it to `matrix` in place. The header comes first,
    then the pair lists and labels, then the pairs against the matrix: no
    reflexive pair, no added pair it holds, no removed pair it lacks; the
    first bad pair in file order is named. Every refusal names the file.
    Returns the delta's added and removed pairs and its labels."""
    n = matrix.shape[0]
    try:
        size, stage, kind = _header(obj)
        _expect(size == n, f"domain_size {size} is not the base's {n}")
        _expect(kind is base_kind, f"kind {kind.value} is not the base's {base_kind.value}")
        _expect(stage == base_stage + 1, f"stage {stage} is not the base's stage {base_stage} + 1")
        added, removed = _pair_list(obj, "added", n), _pair_list(obj, "removed", n)
        labels = _labels(obj, n)
        for key, pairs, held in (("added", added, False), ("removed", removed, True)):
            _refuse_first(pairs, pairs[:, 0] == pairs[:, 1], key + " pair {} is reflexive")
            verb = "is not" if held else "is already"
            _refuse_first(pairs, matrix[pairs[:, 0], pairs[:, 1]] != held,
                          f"{key} pair {{}} {verb} held by the base")
    except (ConfigError, DomainLimitExceeded) as exc:
        raise type(exc)(f"{name}: {exc}") from None
    matrix[added[:, 0], added[:, 1]] = True
    matrix[removed[:, 0], removed[:, 1]] = False
    return added, removed, labels


def _is_delta(obj) -> bool:
    return isinstance(obj, dict) and "base" in obj


def _base_name(name: str, base) -> str:
    """A delta's "base" value, which must name a file beside it."""
    _expect(
        isinstance(base, str) and base == os.path.basename(base) and base not in ("", ".", ".."),
        f"{name}: base must name a file in the same directory, not {base!r}",
    )
    return base


def save_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(obj))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}")


def _decode(path: str, text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep for json
        raise ConfigError(f"invalid JSON in {path}: {exc}")


def load_json(path: str):
    return _decode(path, _read_text(path))


_PAIR_KEYS = ("pairs", "added", "removed")
_scan_value = json.JSONDecoder().scan_once  # one JSON value at an index, as json.loads reads it
_BLANKS = bytes.maketrans(b"[],", b"   ")  # a pair list's brackets and commas to spaces


def _compact_pairs(text: str, i: int) -> Optional[Tuple[np.ndarray, int]]:
    """The pair list opened at text[i] and the index after it, if it is
    written compactly: [[i,j],...], no whitespace, each number a plain
    decimal (no sign or leading zero) of at most 9 digits. Once the
    brackets and commas are checked, numpy's text parser reads the
    numbers into an int64 (k, 2) array; None for any other text."""
    if text.startswith("[]", i):
        return np.empty((0, 2), np.int64), i + 2
    end = text.find("]]", i) + 2  # a compact list ends at its first "]]"
    if end == 1:
        return None
    raw = text[i:end].encode("ascii")
    # Brackets and commas must spell [[,],[,],...,[,]] for k pairs. With
    # "[[" at the start and every one of the k-1 "],[" literal, digits can
    # sit only in the 2k numbers' places.
    skeleton = raw.translate(None, b"0123456789")
    k = (len(skeleton) - 1) // 4
    if (skeleton != b"[" + b"[,]," * (k - 1) + b"[,]]" or not raw.startswith(b"[[")
            or raw.count(b"],[") != k - 1):
        return None
    digits = len(raw) - len(skeleton)
    blanked = raw.translate(_BLANKS)
    del raw, skeleton  # so that only the copy numpy reads is held while it parses
    values = np.fromstring(blanked, np.int64, sep=" ")
    # numpy reads a blank text as one 0, saturates past int64 and reads
    # "01" as 1: so 2k values below 10^9, with no digit more than they need
    if len(values) != 2 * k or values.max() >= 10**9:
        return None
    reached = range(1, len(str(values.max())))  # the powers of ten some value reaches
    if len(values) + sum(np.count_nonzero(values >= 10**j) for j in reached) != digits:
        return None
    return values.reshape(-1, 2), end


def _scan_stage(text: str) -> Optional[dict]:
    """json.loads(text) for an object written with no whitespace but a
    final newline, with each compact pair list under a `_PAIR_KEYS` key as
    an array; None for any other text."""
    if not text.startswith("{"):
        return None
    obj, i = {}, 1
    while text.startswith('"', i):
        key, i = json.decoder.scanstring(text, i + 1)
        if not text.startswith(":", i):
            return None
        if key in _PAIR_KEYS and text.startswith("[", i + 1):
            found = _compact_pairs(text, i + 1)
            if found is None:
                return None
        else:
            found = _scan_value(text, i + 1)
        obj[key], i = found
        if text.startswith("}", i):
            return obj if text[i + 1:] in ("", "\n") else None
        if not text.startswith(",", i):
            return None
        i += 1
    return None


def _load_stage(path: str):
    """A full or delta stage file, as load_json reads it but with compact
    pair lists as arrays (see `_compact_pairs`). Any other text goes to
    json.loads whole, so every result and error text is json's."""
    text = _read_text(path)
    try:
        obj = _scan_stage(text)
    except (ValueError, StopIteration, RecursionError):  # json's errors, or a non-ASCII list
        obj = None
    return _decode(path, text) if obj is None else obj


def load_config(run_dir: str) -> dict:
    """The config.json of a run directory; it must hold a JSON object."""
    config = load_json(os.path.join(run_dir, CONFIG_NAME))
    _expect(isinstance(config, dict), f"{CONFIG_NAME} must hold a JSON object")
    return config


def load_snapshot(path: str) -> Tuple[Snapshot, Kind]:
    """One snapshot file. A delta is rebuilt from the full file its chain
    of bases reaches in the same directory."""
    chain = {}  # each file's name to its object, from the file asked for back
    obj = _load_stage(path)
    while _is_delta(obj):
        name = os.path.basename(path)
        chain[name] = obj
        base = _base_name(name, obj["base"])
        _expect(base not in chain, f"{name}: its chain of bases loops")
        path = os.path.join(os.path.dirname(path), base)
        _expect(os.path.isfile(path), f"{name}: its base {path} is missing")
        obj = _load_stage(path)
    chain[os.path.basename(path)], kind = snapshot_from_obj(obj)
    return _fold(list(reversed(chain.items())), kind).last, kind


def _snapshot_name(stage: int, last_stage: int) -> str:
    width = max(3, len(str(last_stage)))
    return f"snapshot_{stage:0{width}d}.json"


def _is_snapshot_name(name: str) -> bool:
    return name.startswith("snapshot_") and name.endswith(".json")


def write_run(
    out_dir: str,
    construction: str,
    config_obj,
    kind: Kind,
    history: Optional[Replay],
    stages: int,
    seed: Optional[int] = None,
    family: Optional[dict] = None,
) -> dict:
    """Write config, the history's stages (or, for a set family, whose
    history is None, family.json) and the manifest; return the manifest.
    The first and last stages are written as full files and each between
    as its delta, with its own labels. Snapshot and family files an
    earlier run left in `out_dir` are deleted; nothing else is."""
    os.makedirs(out_dir, exist_ok=True)
    if history is None:
        history = Replay(None, (), None)
    count = len(history)
    first = history.first.stage if count else 0
    names = [_snapshot_name(first + i, first + count - 1) for i in range(count)]
    keep = set(names) | ({FAMILY_NAME} if family is not None else set())
    for name in os.listdir(out_dir):
        if (_is_snapshot_name(name) or name == FAMILY_NAME) and name not in keep:
            os.remove(os.path.join(out_dir, name))
    save_json(os.path.join(out_dir, CONFIG_NAME), config_obj)
    if family is not None:
        save_json(os.path.join(out_dir, FAMILY_NAME), family)
        domain_size = family["n"]
    else:
        domain_size = history.first.domain_size if count else 0
    if count:
        save_json(os.path.join(out_dir, names[0]), snapshot_to_obj(history.first, kind))
    for i, (added, removed, labels) in enumerate(history.deltas[:-1], 1):
        obj = _stage_obj(domain_size, first + i, kind, labels, base=names[i - 1],
                         added=added, removed=removed)
        save_json(os.path.join(out_dir, names[i]), obj)
    if count > 1:
        save_json(os.path.join(out_dir, names[-1]), snapshot_to_obj(history.last, kind))
    manifest = {
        "construction": construction,
        "config_hash": config_hash(config_obj),
        "kind": kind.value,
        "domain_size": domain_size,
        "stages": stages,
        "snapshot_count": count,
        "seed": seed,
    }
    save_json(os.path.join(out_dir, MANIFEST_NAME), manifest)
    return manifest


def load_run(run_dir: str) -> Tuple[dict, dict, Replay, Kind]:
    """A run directory's manifest, config, stages (see the module
    docstring) and kind."""
    manifest = load_json(os.path.join(run_dir, MANIFEST_NAME))
    _expect(isinstance(manifest, dict), "manifest must be an object")
    config = load_config(run_dir)
    names = sorted(filter(_is_snapshot_name, os.listdir(run_dir)))
    _expect(manifest.get("kind") in ("ce", "coce"), "manifest kind must be 'ce' or 'coce'")
    kind = Kind(manifest["kind"])
    files = []  # (stage, domain size, name, snapshot or delta object)
    raw_labels = None  # the last delta's labels as read, shared by every equal one
    for name in names:
        entry = _load_stage(os.path.join(run_dir, name))
        if _is_delta(entry):  # checked against its base once the run is known to be whole
            n, stage, snap_kind = _header(entry)
            if "labels" in entry:  # a long run then holds one copy until its deltas are read
                if entry["labels"] == raw_labels:
                    entry["labels"] = raw_labels
                raw_labels = entry["labels"]
        else:
            entry, snap_kind = snapshot_from_obj(entry)
            n, stage = entry.domain_size, entry.stage
        _expect(snap_kind is kind, f"{name} kind disagrees with manifest")
        files.append((stage, n, name, entry))
    files.sort(key=lambda f: f[0])
    # Files lost, spliced in or edited must not pass as a shorter run.
    count = manifest.get("snapshot_count")
    _expect(
        is_natural(count) and count == len(files),
        f"run holds {len(files)} snapshots but the manifest lists {count!r}",
    )
    _expect([f[0] for f in files] == list(range(count)), "snapshot stages have gaps")
    stages = manifest.get("stages")
    _expect(is_natural(stages), f"manifest stages must be a natural, not {stages!r}")
    _expect(
        not count or stages == count - 1,
        f"manifest lists {stages} stages but the run holds {count} snapshots",
    )
    _expect(
        all(f[1] == manifest.get("domain_size") for f in files),
        "a snapshot's domain size disagrees with the manifest",
    )
    return manifest, config, _fold([f[2:] for f in files], kind), kind


def _moved(before: np.ndarray, after: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs `after` adds to `before` and removes from it, as sorted
    int64 (k, 2) arrays, from one search of where the two differ."""
    at = (before ^ after).reshape(-1).nonzero()[0]  # flat nonzero: 2-d is many times slower
    up = after.reshape(-1)[at]
    return tuple(np.stack(np.divmod(moved, len(before)), 1) for moved in (at[up], at[~up]))


def _fold(files, kind: Kind) -> Replay:
    """The stages of `files`, (file name, Snapshot or delta object) pairs
    in stage order, as a Replay. Each delta's base must be the file before
    it; the delta is then checked against that stage and applied to one
    working matrix, copied only when a delta first writes to it. A full
    file after the first is kept as its delta against that matrix, and
    equal labels are shared between stages."""
    first = entry = matrix = previous = None
    deltas, labels = [], {}
    for name, entry in files:
        if isinstance(entry, Snapshot):
            if first is not None:
                (added, removed), own = _moved(matrix, entry.matrix), entry.labels
            matrix = entry.matrix
        else:
            _expect(
                _base_name(name, entry["base"]) == previous,
                f"{name}: base {entry['base']!r} is not the previous stage's file {previous}",
            )
            if not matrix.flags.writeable:
                matrix = matrix.copy()
            added, removed, own = _apply_delta(name, entry, matrix, first.stage + len(deltas), kind)
        if first is None:
            first = entry
        else:
            labels = labels if own == labels else own
            deltas.append((added, removed, labels))
        previous = name
    if isinstance(entry, dict):  # the last stage was written as a delta
        matrix.setflags(write=False)
        entry = Snapshot(len(matrix), first.stage + len(deltas), matrix, own)
    return Replay(first, deltas, entry)
