import hashlib
import json
import os
import re
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from staged_orders.kernel import (
    ConfigError,
    Kind,
    Snapshot,
    StagedOrder,
    StagedOrderError,
    check_monotone,
    close_matrix,
)
from staged_orders.jump import build_cochain_order, schedule_from_config
from staged_orders.serialize import (
    canonical_dumps,
    config_hash,
    load_json,
    load_run,
    load_snapshot,
    save_json,
    snapshot_from_obj,
    snapshot_to_obj,
    write_run,
)

from _oracles import snapshot_relation
from conftest import SHIPPED, run_snapshot_paths, shipped_config_path


def _order():
    order = StagedOrder(Kind.CE, Snapshot.from_pairs(4, [], labels={0: "zero"}))
    order.add_pairs([(0, 1)])
    order.add_pairs([(1, 2)])
    return order


def test_snapshot_obj_round_trip():
    snap = _order().current
    obj = snapshot_to_obj(snap, Kind.CE)
    back, kind = snapshot_from_obj(obj)
    assert kind is Kind.CE
    assert back == snap
    assert back.labels == snap.labels


def test_snapshot_obj_shape():
    snap = _order().current
    obj = snapshot_to_obj(snap, Kind.CE)
    obj["pairs"] = obj["pairs"].tolist()
    assert obj["domain_size"] == 4 and obj["stage"] == 2 and obj["kind"] == "ce"
    assert [0, 0] not in obj["pairs"]  # reflexive pairs stay implicit
    assert obj["pairs"] == sorted(obj["pairs"])
    assert obj["labels"] == {"0": "zero"}


def test_canonical_dumps_is_stable_and_compact():
    text = canonical_dumps({"b": 1, "a": [1, 2]})
    assert text == '{"a":[1,2],"b":1}\n'
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


_CONFIGS = [
    {},
    {"a": 1, "b": 2},
    {"b": 2, "a": 1},
    {"construction": "sigma2", "stages": 0, "seed": -3, "domain_bound": 10**30},
    {"nested": {"z": [1, [2, [3]]], "a": None}, "flags": [True, False], "x": 0.5},
    {"label": "é ü \u2603 \"quoted\" \\ \n", "ключ": "значение", "": ""},
    {"pairs": [[i, i + 1] for i in range(300)], "empty": [], "obj": {}},
    [1, "two", None],
    "a bare string",
]


@pytest.mark.parametrize("blocked", [(), ("_sha2",), ("_sha2", "_sha256")],
                         ids=["builtin", "no _sha2", "hashlib"])
def test_config_hash_is_the_sha256_of_the_canonical_text(monkeypatch, blocked):
    """With the interpreter's own sha256 module (_sha2 from Python 3.12,
    _sha256 before) and, where neither imports, with hashlib's."""
    for name in blocked:
        monkeypatch.setitem(sys.modules, name, None)  # import then raises ImportError
    configs = _CONFIGS + [load_json(shipped_config_path(name)) for name in SHIPPED]
    for config in configs:
        want = hashlib.sha256(canonical_dumps(config).encode("utf-8")).hexdigest()
        assert config_hash(config) == want


@given(st.lists(st.tuples(st.integers(0, 1100), st.integers(0, 1100)), max_size=40), st.booleans())
def test_canonical_dumps_writes_pair_arrays_as_their_lists(pairs, ordered):
    pairs = sorted(pairs) if ordered else pairs
    array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    obj = {"stage": 1, "added": array, "labels": {"10": "x", "9": "y"}, "removed": array[:1]}
    lists = dict(obj, added=array.tolist(), removed=array[:1].tolist())
    assert canonical_dumps(obj) == canonical_dumps(lists)


def test_snapshot_from_obj_rejects_garbage():
    snap = _order().current
    good = snapshot_to_obj(snap, Kind.CE)
    for breakage in (
        {"kind": "xx"},
        {"pairs": [[0]]},
        {"pairs": [[0, 9]]},
        {"pairs": [(0, 1)]},
        {"domain_size": -1},
        {"stage": "one"},
    ):
        obj = dict(good, **breakage)
        with pytest.raises(ConfigError):
            snapshot_from_obj(obj)


@st.composite
def _spoiled_pair_lists(draw):
    """A domain size and a list of good pairs with a few bad entries put in
    at random places: as a whole pair or as one element of a pair."""
    n = draw(st.integers(0, 6))
    good = st.lists(st.integers(0, max(n - 1, 0)), min_size=2, max_size=2)
    pairs = draw(st.lists(good, max_size=10 if n else 0))
    bad = st.sampled_from(
        [True, False, 1.0, "1", None, [[0]], [0], [0, 1, 2], -1, n, 2**63, -(2**63) - 1, 2**64]
    )
    for value in draw(st.lists(bad, max_size=3)):
        at = draw(st.integers(0, len(pairs)))
        slot = draw(st.sampled_from(["pair", 0, 1]))
        if slot == "pair":
            entry = value
        else:
            entry = [0, 0]
            entry[slot] = value
        pairs.insert(at, entry)
    return n, pairs


@given(_spoiled_pair_lists())
@settings(max_examples=400, deadline=None)
def test_snapshot_loader_matches_per_pair_rules(case):
    n, pairs = case
    obj = json.loads(canonical_dumps({"domain_size": n, "stage": 0, "kind": "ce", "pairs": pairs}))
    relation, message = snapshot_relation(obj["pairs"], n)
    if message is not None:
        with pytest.raises(ConfigError) as caught:
            snapshot_from_obj(obj)
        assert str(caught.value) == message
    else:
        snap, _ = snapshot_from_obj(obj)
        expected = np.zeros((n, n), dtype=bool)
        for i, j in relation:
            expected[i, j] = True
        assert np.array_equal(snap.matrix, expected)


def test_load_json_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_json(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_json(str(bad))


def test_write_and_load_run(tmp_path):
    order = _order()
    out = str(tmp_path / "run")
    manifest = write_run(out, "demo", {"x": 1}, Kind.CE, order.history, 2, seed=7)
    assert manifest["snapshot_count"] == 3
    assert manifest["config_hash"] == config_hash({"x": 1})
    names = sorted(os.listdir(out))
    assert "snapshot_000.json" in names and "snapshot_002.json" in names

    loaded_manifest, config, stages, kind = load_run(out)
    snapshots = list(stages)
    assert loaded_manifest == manifest
    assert config == {"x": 1}
    assert kind is Kind.CE
    assert [s.stage for s in snapshots] == [0, 1, 2]
    assert snapshots[-1] == order.current


@st.composite
def _histories(draw, monotone=True):
    """A ce history that only grows or a coce history that only shrinks:
    1 to 5 reflexive snapshots, not orders, some stages changing nothing,
    each with its own labels. Unless `monotone`, a stage may also move the
    other way."""
    kind = draw(st.sampled_from([Kind.CE, Kind.COCE]))
    n = draw(st.integers(0, 6))
    bits = st.lists(st.booleans(), min_size=n * n, max_size=n * n)
    labels = st.dictionaries(st.integers(0, n - 1), st.text(max_size=3), max_size=n) if n else st.just({})
    matrix = np.array(draw(bits), dtype=bool).reshape(n, n)
    snapshots = []
    for stage in range(draw(st.integers(1, 5))):
        if stage and not draw(st.booleans()):  # else this stage changes nothing
            step = np.array(draw(bits), dtype=bool).reshape(n, n)
            grow = kind is Kind.CE if monotone else draw(st.booleans())
            matrix = matrix | step if grow else matrix & ~step
        np.fill_diagonal(matrix, True)
        snapshots.append(Snapshot(n, stage, matrix, draw(labels)))
    return kind, snapshots


def delta_to_obj(snapshot, base, base_name, kind):
    """`snapshot` as a delta file's object: the strict pairs it adds to and
    removes from `base`, the stage before it, which is stored in the file
    `base_name`. write_run writes deltas only from an order's history."""
    obj = snapshot_to_obj(snapshot, kind)
    del obj["pairs"]
    off = ~np.eye(snapshot.domain_size, dtype=bool)
    now, before = snapshot.matrix & off, base.matrix & off
    obj.update(base=base_name, added=np.argwhere(now & ~before), removed=np.argwhere(before & ~now))
    return obj


def _write_history(out, kind, snapshots, full=(), last_delta=False):
    """A run laid out as write_run lays one out, but from any snapshots:
    the middle ones written by delta_to_obj, so their labels may change
    from stage to stage, which no order's do, except the indices in
    `full`, written as full files. If `last_delta`, a last stage after the
    first is written as a delta too."""
    names = [f"snapshot_{snapshot.stage:03d}.json" for snapshot in snapshots]
    for i, (name, snapshot) in enumerate(zip(names, snapshots)):
        if 0 < i and i not in full and (i < len(snapshots) - 1 or last_delta):
            obj = delta_to_obj(snapshot, snapshots[i - 1], names[i - 1], kind)
        else:
            obj = snapshot_to_obj(snapshot, kind)
        save_json(os.path.join(out, name), obj)
    save_json(os.path.join(out, "config.json"), {})
    save_json(os.path.join(out, "manifest.json"), {
        "construction": "demo", "config_hash": config_hash({}), "kind": kind.value,
        "domain_size": snapshots[0].domain_size, "stages": len(snapshots) - 1,
        "snapshot_count": len(snapshots), "seed": None,
    })


@given(_histories())
@settings(max_examples=150, deadline=None)
def test_written_run_loads_back_stage_by_stage(case):
    kind, snapshots = case
    with tempfile.TemporaryDirectory() as out:
        _write_history(out, kind, snapshots)
        _, _, stages, loaded_kind = load_run(out)
        loaded = list(stages)
        assert loaded_kind is kind
        assert loaded == snapshots
        paths = run_snapshot_paths(out)
        assert len(paths) == len(snapshots)
        for path, snapshot in zip(paths, loaded):
            assert load_snapshot(path) == (snapshot, kind)


@given(_histories(monotone=False), st.sets(st.integers(1, 3)), st.booleans())
@settings(max_examples=100, deadline=None)
def test_replayed_stages_are_their_files_loaded_alone(case, full, last_delta):
    """Each stage load_run replays is what load_snapshot gives for its
    file, which follows the chain of bases on its own; a middle stage
    written as a full file is kept as its delta, and a last stage may be
    written as a delta. check_monotone reports the same failures, in the
    same order, for the replay, a list and a tuple of its stages, and they
    are the pairs each stage lost."""
    kind, snapshots = case
    with tempfile.TemporaryDirectory() as out:
        _write_history(out, kind, snapshots, full, last_delta)
        _, _, stages, _ = load_run(out)
        paths = run_snapshot_paths(out)
        assert len(stages) == len(paths) == len(snapshots)
        for path, stage in zip(paths, stages):
            assert load_snapshot(path) == (stage, kind)
    assert list(stages) == snapshots  # and a second walk rebuilds them again
    report = check_monotone(stages, kind)
    assert report == check_monotone(list(stages), kind) == check_monotone(tuple(stages), kind)
    lost = []
    for before, now in zip(snapshots, snapshots[1:]):
        gone = before.matrix & ~now.matrix if kind is Kind.CE else now.matrix & ~before.matrix
        lost += [(now.stage, tuple(p)) for p in np.argwhere(gone).tolist()]
    assert report.failures == tuple(lost) and report.passed == (not lost)


@st.composite
def _order_histories(draw):
    """A kind, a closed start of 0 to 8 elements, perhaps labelled, and 0
    to 8 batches of 0 to 6 random pairs, some of which the order refuses."""
    kind = draw(st.sampled_from([Kind.CE, Kind.COCE]))
    n = draw(st.integers(0, 8))
    element = st.integers(0, max(n - 1, 0))
    pair = st.tuples(element, element)
    start = np.eye(n, dtype=bool)
    for i, j in draw(st.lists(pair, max_size=12 if n else 0)):
        start[min(i, j), max(i, j)] = True  # upward only, so no cycle
    close_matrix(start)
    labels = draw(st.dictionaries(element, st.text(max_size=2), max_size=n)) if n else {}
    batches = draw(st.lists(st.lists(pair, max_size=6 if n else 0), max_size=8))
    return kind, Snapshot(n, 0, start, labels), batches


@given(_order_histories())
@settings(max_examples=200, deadline=None)
def test_order_history_is_written_as_its_deltas(case):
    """The snapshots an order replays are those it held, a middle file
    holds the sorted strict pairs its stage added and removed, and the
    run loads back as the recorded history."""
    kind, start, batches = case
    order = StagedOrder(kind, start)
    mutate = order.add_pairs if kind is Kind.CE else order.remove_pairs
    recorded = [order.current]
    for batch in batches:
        try:
            mutate(batch)
        except StagedOrderError:
            continue
        recorded.append(order.current)
    assert tuple(order.history) == tuple(recorded)
    with tempfile.TemporaryDirectory() as out:
        write_run(out, "demo", {}, kind, order.history, len(recorded) - 1)
        paths = run_snapshot_paths(out)
        assert len(paths) == len(recorded)
        for path, before, now in zip(paths[1:-1], recorded, recorded[1:]):
            obj = load_json(path)
            off = ~np.eye(start.domain_size, dtype=bool)
            old, new = before.matrix & off, now.matrix & off
            assert obj["added"] == np.argwhere(new & ~old).tolist()
            assert obj["removed"] == np.argwhere(old & ~new).tolist()
        _, _, loaded, loaded_kind = load_run(out)
        assert loaded_kind is kind and list(loaded) == recorded


# Replacements for numbers of a pair list: all but the last two lie outside
# the compact grammar of a stage file (plain decimals of at most 9 digits,
# no sign, point, exponent or leading zero). 2**32 wraps to 0 in 32 bits.
_ODD_NUMBERS = ["", "01", "00", "-1", "-0", "1.0", "1e0", "true", "null", "1234567890",
                "4294967296", "999999999", "0"]


@st.composite
def _stage_texts(draw):
    """A full or a delta stage file written canonically, then perhaps
    mutated: (base snapshot and kind or None for a full file, text)."""
    n = draw(st.integers(0, 12)) + 1000 * draw(st.sampled_from([0, 0, 0, 1]))  # 4 digits
    kind = draw(st.sampled_from([Kind.CE, Kind.COCE]))
    element = st.integers(0, max(n - 1, 0))
    label = st.one_of(st.sampled_from(["b_0", "]]", "[[0,1]]", '"pairs":[]']),
                      st.text(alphabet='[],"\\0a é', max_size=4))

    def snapshot(stage):
        pairs = draw(st.lists(st.tuples(element, element), max_size=12 if n else 0))
        labels = draw(st.dictionaries(element, label, max_size=3)) if n else {}
        return Snapshot.from_pairs(n, pairs, stage, labels)

    if draw(st.booleans()):
        base, key = None, "pairs"
        text = canonical_dumps(snapshot_to_obj(snapshot(draw(st.integers(0, 3))), kind))
    else:
        base, key = (snapshot(0), kind), draw(st.sampled_from(["added", "removed"]))
        text = canonical_dumps(delta_to_obj(snapshot(1), base[0], "base.json", kind))
    start = text.index(f'"{key}":') + len(key) + 3  # the pair list: text[start:end]
    end = text.index("]]", start) + 2 if text[start + 1] == "[" else start + 2
    mutation = draw(st.sampled_from(
        ["none", "space", "bracket", "numbers", "duplicate", "escaped", "truncate", "trailing",
         "bom"]
    ))
    if mutation == "space":
        at = draw(st.integers(0, len(text)))
        name = text.find('"base.json"')  # a space in it would name another file
        at = name if name < at < name + 11 else at
        text = text[:at] + draw(st.sampled_from([" ", "\n", "\t", " \n "])) + text[at:]
    elif mutation == "bracket":  # a bracket or comma of the list replaced
        marks = [m.start() for m in re.finditer(r"[][,]", text[start:end])]
        at = start + draw(st.sampled_from(marks))
        text = text[:at] + draw(st.sampled_from(list("[],;{} "))) + text[at + 1:]
    elif mutation == "numbers":  # 1 to 3 edits: a number replaced, or digits put in
        for _ in range(draw(st.integers(1, 3))):
            numbers = list(re.finditer(r"[0-9]+", text[start:end]))
            if numbers and draw(st.booleans()):
                hit = draw(st.sampled_from(numbers))
                at, to = start + hit.start(), start + hit.end()
                value = draw(st.sampled_from(_ODD_NUMBERS + [str(n), str(n + 1)]))
            else:
                at = to = draw(st.integers(start + 1, end - 1))
                value = draw(st.sampled_from(["7", "[7,0]"]))
            text = text[:at] + value + text[to:]
            end += len(value) - (to - at)
    elif mutation == "duplicate":
        other = f'"{key}":' + draw(st.sampled_from(["[]", "[[0,0]]", "[[1,0]]", "[[0, 1]]"]))
        if draw(st.booleans()):  # before the real key, which then wins
            text = "{" + other + "," + text[1:]
        else:
            text = text[:-2] + "," + other + "}\n"
    elif mutation == "escaped":
        escaped = f'"{key[0]}\\u{ord(key[1]):04x}{key[2:]}":'
        text = text.replace(f'"{key}":', escaped, 1)
    elif mutation == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif mutation == "trailing":
        text += draw(st.sampled_from(["x", "{}", " ", "\n\n", "0", "]"]))
    elif mutation == "bom":
        text = "\ufeff" + text
    return base, text


def _outcome(load):
    """A load's snapshot fields and kind, or its exception's type and text."""
    try:
        snapshot, kind = load()
    except Exception as exc:
        return type(exc), str(exc)
    return snapshot.domain_size, snapshot.stage, snapshot.matrix.tobytes(), snapshot.labels, kind


def _load_outcomes(out_dir, text, base=None):
    """`text` written as a stage file in `out_dir`: the outcome of
    load_snapshot, and of json.loads then snapshot_from_obj, or for a
    delta on `base` (a snapshot and kind) the same object written with
    whitespace and loaded, which takes the json.loads path."""
    name = "delta.json" if base else "full.json"
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    if base:
        save_json(os.path.join(out_dir, "base.json"), snapshot_to_obj(*base))
    got = _outcome(lambda: load_snapshot(path))

    def expected():
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}")
        if not (isinstance(obj, dict) and "base" in obj):
            return snapshot_from_obj(obj)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1)
        return load_snapshot(path)

    return got, _outcome(expected)


@pytest.fixture(scope="module")
def stage_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("stage"))


@given(case=_stage_texts())
@settings(max_examples=150, deadline=None)
def test_stage_file_loads_as_json_reads_it(stage_dir, case):
    """load_snapshot gives what json.loads and snapshot_from_obj (or
    delta_from_obj on the base) give: the same snapshot or the same error."""
    got, want = _load_outcomes(stage_dir, *reversed(case))
    assert got == want


@pytest.mark.parametrize("pairs", [
    "[[1,2]5,[,4]]", "[[1,2]5,[3,4]6,[7,8]]", "[5[1,2],[3,4]]", "[[,1]]", "[[1,]]",
    "[[1,2],[3]]", "[[1,2,3]]", "[[01,2]]", "[[4294967296,0]]", "[[9999999999,1]]",
    "[[1,2],[3,4],]", '[[1,2],["]]"]]', "[[1,2]]]", "[[١,2]]", "[[1,2],[3,4]",
    "[[1;2]]", "[[1,2].[3,4]]", "[[1,2]3,4[,],[5,6]]", "[[1,2],[,]]", "[1[,2]]",
    "[[1,2],[3,10]]",
])
def test_odd_pair_lists_load_as_json_reads_them(tmp_path, pairs):
    """Lists that come close to the compact grammar, some with two faults
    that keep the count of numbers even."""
    text = '{"domain_size":10,"kind":"ce","pairs":' + pairs + ',"stage":0}\n'
    got, want = _load_outcomes(str(tmp_path), text)
    assert got == want


def test_load_run_rejects_kind_mismatch(tmp_path):
    order = _order()
    out = str(tmp_path / "run")
    write_run(out, "demo", {}, Kind.CE, order.history, 2)
    victim = os.path.join(out, "snapshot_001.json")
    obj = json.load(open(victim))
    obj["kind"] = "coce"
    save_json(victim, obj)
    with pytest.raises(ConfigError):
        load_run(out)


def test_a_long_run_is_built_and_written_in_a_few_matrices_of_memory(tmp_path):
    """An n=512 jump-cochain run of 512 stages, built and written, peaks
    below 32 n^2 bytes: a matrix per stage took 128 MiB to build. Loaded
    and walked by check_monotone it peaks below 128 n^2 bytes: a matrix
    per loaded stage took 129 MiB."""
    n = 512
    config = {"construction": "jump-cochain", "n": n, "stages": n,
              "entries": [[31 * e, 31 * e + 4 + e % 13] for e in range(16)]}
    schedule = schedule_from_config(config)
    out = str(tmp_path / "run")
    tracemalloc.start()
    try:
        order = build_cochain_order(schedule, n, n)
        write_run(out, "jump-cochain", config, Kind.COCE, order.history, n)
        peak = tracemalloc.get_traced_memory()[1]
        del order
        tracemalloc.reset_peak()
        _, _, stages, kind = load_run(out)
        report = check_monotone(stages, kind)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(os.listdir(tmp_path / "run")) == n + 3
    assert peak < 32 * n * n
    assert report.passed and len(stages) == n + 1
    assert load_peak < 128 * n * n


def test_snapshot_name_width_grows(tmp_path):
    order = StagedOrder(Kind.CE, Snapshot(2, 2500, np.eye(2, dtype=bool)))
    for _ in range(4):
        order.add_pairs([])
    out = str(tmp_path / "wide")
    write_run(out, "demo", {}, Kind.CE, order.history, 2504)
    assert "snapshot_2500.json" in os.listdir(out)
    snap, _ = load_snapshot(os.path.join(out, "snapshot_2500.json"))
    assert snap.stage == 2500


@pytest.mark.parametrize(
    "labels",
    [{"1": "x", " 01": "y"}, {"+2": "z"}, {"01": "y"}, {"-0": "a"}, {"1 ": "b"}, {"١": "c"},
     {"4": "d"}],
)
def test_label_keys_must_be_plain_decimal(tmp_path, labels):
    """Keys were read with int(), so " 01" silently replaced element 1's
    label. Full files and deltas are checked alike."""
    obj = {"domain_size": 3, "stage": 0, "kind": "ce", "pairs": [], "labels": labels}
    with pytest.raises(ConfigError, match="label key"):
        snapshot_from_obj(obj)
    out = str(tmp_path / "run")
    write_run(out, "demo", {}, Kind.CE, _order().history, 2)
    delta = os.path.join(out, "snapshot_001.json")
    save_json(delta, dict(load_json(delta), labels=labels))
    with pytest.raises(ConfigError, match="label key"):
        load_run(out)
