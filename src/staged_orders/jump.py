"""Coding an enumeration into order approximations, two dual ways.

Fix a finite enumeration schedule for a set K. The cochain order starts
as the natural linear order and, whenever some e enters K at stage s,
deletes every comparability strictly inside the window (e, s]. The
antichain order starts as pure equality and inserts exactly those
comparabilities. In both, a long enough chain (respectively antichain)
pins down a stage past the last entry below i, so its elements encode
the first i bits of K.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .kernel import (
    ConfigError,
    Construction,
    Kind,
    Record,
    Snapshot,
    StagedOrder,
    StagedOrderError,
    stage_batches,
)
from .serialize import is_natural
from .solvers import longest_chain


class InvalidChain(StagedOrderError):
    pass


class InvalidAntichain(StagedOrderError):
    pass


class EnumerationSchedule(Record):
    entries: Tuple[Tuple[int, int], ...]  # (element, entry stage)

    def __post_init__(self):
        seen = set()
        for e, s in self.entries:
            if not (is_natural(e) and is_natural(s)):
                raise ConfigError(f"malformed entry ({e!r}, {s!r})")
            if e in seen:
                raise ConfigError(f"element {e} enumerated twice")
            seen.add(e)

    @property
    def max_entry_stage(self) -> int:
        return max((s for _, s in self.entries), default=0)

    def members(self, s: int) -> frozenset:
        """K as seen at stage s (entries at stage s included)."""
        return frozenset(e for e, stage in self.entries if stage <= s)

    def prefix(self, s: int, i: int) -> Tuple[int, ...]:
        """Characteristic string of the stage-s set on {0..i-1}."""
        k = self.members(s)
        return tuple(1 if e in k else 0 for e in range(i))

    def t(self, i: int) -> int:
        """Last stage at which some element below i enters; 0 if none do."""
        return max((s for e, s in self.entries if e < i), default=0)

    def true_prefix(self, i: int) -> Tuple[int, ...]:
        return self.prefix(self.max_entry_stage, i)


def schedule_from_config(blob: dict) -> EnumerationSchedule:
    entries = blob.get("entries")
    if not isinstance(entries, list):
        raise ConfigError("config needs an 'entries' list")
    parsed = []
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ConfigError(f"malformed entry {entry!r}")
        parsed.append((entry[0], entry[1]))
    return EnumerationSchedule(tuple(parsed))


def _entry_windows(sched: EnumerationSchedule, n: int) -> Dict[int, Tuple[int, int]]:
    """For each stage s >= 1 at which elements enter, the window it
    triggers: (least entering element + 1, min(s, n-1)), in stage order."""
    least: Dict[int, int] = {}
    for e, s in sched.entries:
        if s >= 1:
            least[s] = min(least.get(s, e), e)
    return {s: (least[s] + 1, min(s, n - 1)) for s in sorted(least)}


def _stage_blocks(sched: EnumerationSchedule, n: int, stages: int) -> List[List[Tuple[int, int]]]:
    """The pairs each stage 1..stages touches: everything strictly between
    two points of its window, none at a stage no element enters."""
    windows = _entry_windows(sched, n).items()
    blocks = {s: [(j, k) for j in range(lo, hi + 1) for k in range(j + 1, hi + 1)]
              for s, (lo, hi) in windows}
    return stage_batches(blocks, stages)


def _check_budget(sched: EnumerationSchedule, stages: int) -> None:
    if stages < sched.max_entry_stage:
        raise ConfigError(
            f"stages={stages} ends before the last entry at {sched.max_entry_stage}"
        )


def build_cochain_order(sched: EnumerationSchedule, n: int, stages: int) -> StagedOrder:
    _check_budget(sched, stages)
    matrix = np.triu(np.ones((n, n), dtype=bool))
    order = StagedOrder(Kind.COCE, Snapshot(n, 0, matrix))
    order.remove_stages(_stage_blocks(sched, n, stages))
    return order


def build_antichain_order(sched: EnumerationSchedule, n: int, stages: int) -> StagedOrder:
    _check_budget(sched, stages)
    order = StagedOrder(Kind.CE, Snapshot(n, 0, np.eye(n, dtype=bool)))
    order.add_stages(_stage_blocks(sched, n, stages))
    return order


def decode_chain(
    snap: Snapshot,
    chain: Sequence[int],
    sched: EnumerationSchedule,
    i: int,
) -> Tuple[int, ...]:
    """Read the first i bits of K off a chain of length i+2 in the cochain
    order: the element at position i+1 bounds every entry stage that could
    still disturb those bits."""
    chain = list(chain)
    if len(chain) < i + 2:
        raise InvalidChain(f"need at least {i + 2} elements, got {len(chain)}")
    for t in range(len(chain) - 1):
        u, v = chain[t], chain[t + 1]
        if u == v or not snap.holds(u, v):
            raise InvalidChain(f"positions {t},{t + 1} are not strictly related")
    return sched.prefix(chain[i + 1], i)


def decode_antichain(
    snap: Snapshot,
    antichain: Sequence[int],
    sched: EnumerationSchedule,
    i: int,
) -> Tuple[int, ...]:
    """Same readout from an antichain of the dual order."""
    ac = list(antichain)
    if len(ac) < i + 2:
        raise InvalidAntichain(f"need at least {i + 2} elements, got {len(ac)}")
    for t in range(len(ac) - 1):
        if ac[t] >= ac[t + 1]:
            raise InvalidAntichain("elements must increase")
    rows = snap.matrix.tolist()  # lists index faster than numpy
    for a in range(len(ac)):
        for b in range(a + 1, len(ac)):
            x, y = ac[a], ac[b]
            if rows[x][y] or rows[y][x]:
                raise InvalidAntichain(f"{x} and {y} are comparable")
    return sched.prefix(ac[i + 1], i)


class WitnessReport(Record):
    passed: bool
    failures: Tuple[Tuple[int, int], ...]


def no_infinite_antichain_witness(
    snap: Snapshot, sched: EnumerationSchedule
) -> WitnessReport:
    """In the cochain order every element i stays below all of
    {max(t(i), i)+1, ...}: any antichain through i is trapped below that
    bound, so none is infinite in the limit."""
    n = snap.domain_size
    rows = snap.matrix.tolist()  # lists index faster than numpy
    bad = []
    for i in range(n):
        for j in range(max(sched.t(i), i) + 1, n):
            if not rows[i][j]:
                bad.append((i, j))
    return WitnessReport(not bad, tuple(bad))


def _merged_blocks(sched: EnumerationSchedule, n: int, stages: int) -> List[Tuple[int, int]]:
    windows = _entry_windows(sched, n).items()
    raw = sorted((lo, hi) for s, (lo, hi) in windows if s <= stages and lo < hi)
    merged: List[Tuple[int, int]] = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def finite_chain_witness(
    snap: Snapshot,
    sched: EnumerationSchedule,
    stages: int,
) -> WitnessReport:
    """The antichain order only ever links elements inside entry windows,
    so its longest chain is the widest merged window. Checks the built
    order against that prediction."""
    n = snap.domain_size
    if n == 0:
        return WitnessReport(True, ())
    merged = _merged_blocks(sched, n, stages)
    expected = max((hi - lo + 1 for lo, hi in merged), default=1)
    actual = len(longest_chain(snap))
    if actual == expected:
        return WitnessReport(True, ())
    return WitnessReport(False, ((actual, expected),))


def greedy_antichain(snap: Snapshot) -> Tuple[int, ...]:
    """First-fit antichain in natural element order."""
    rows = snap.matrix.tolist()  # lists index faster than numpy
    picked: List[int] = []
    for x in range(snap.domain_size):
        if all(not rows[x][y] and not rows[y][x] for y in picked):
            picked.append(x)
    return tuple(picked)


class JumpConstruction(Construction):
    """One enumeration coding, as the command line drives it: the cochain
    order is read along a chain, the antichain order along an antichain."""

    suites = ("decode", "witness")

    def build(self, plan):
        sched = schedule_from_config(plan.payload)
        n = plan.payload.get("n")
        if plan.domain is None and not is_natural(n):
            raise ConfigError("jump configs need a natural 'n' (or --domain)")
        n = plan.domain_or(n)
        plan.payload.setdefault("n", n)
        stages = plan.stages_or(lambda: sched.max_entry_stage)
        builder = build_cochain_order if self.kind is Kind.COCE else build_antichain_order
        return builder(sched, n, stages).history, None

    def _prefixes(self, snap, sched, holder: str, every: bool):
        """(i, bits) read off the probe: the widest prefix, or all of them."""
        cochain = self.kind is Kind.COCE
        probe = longest_chain(snap) if cochain else greedy_antichain(snap)
        read = decode_chain if cochain else decode_antichain
        if len(probe) < 2:
            raise ConfigError(f"{holder} too small to carry any bits")
        widths = range(len(probe) - 1) if every else (len(probe) - 2,)
        return [(i, read(snap, probe, sched, i)) for i in widths]

    def readout(self, snap, kind, consts, config, original) -> dict:
        if original is not None:
            raise ConfigError(
                "jump decoding reads stage bounds off element names; it does not survive relabeling"
            )
        [(i, bits)] = self._prefixes(snap, schedule_from_config(config()), "snapshot", False)
        return {"construction": self.name, "i": i, "bits": list(bits)}

    def decode(self, run):
        final = run.final
        sched = schedule_from_config(run.config)
        lines, ok = [], True
        for i, got in self._prefixes(final, sched, "run", True):
            want = sched.true_prefix(i)
            ok = ok and got == want
            lines.append(
                f"prefix {i}: {''.join(map(str, got))}"
                + ("" if got == want else f" expected {''.join(map(str, want))}")
            )
        return lines, ok

    def witness(self, run):
        sched = schedule_from_config(run.config)
        if self.kind is Kind.COCE:
            report = no_infinite_antichain_witness(run.final, sched)
            lines = [f"pair {pair} escapes its bound" for pair in report.failures]
            kept = "kept: every element is below all late elements"
        else:
            report = finite_chain_witness(run.final, sched, run.manifest.get("stages", 0))
            lines = [f"longest chain {got}, predicted {want}" for got, want in report.failures]
            kept = "kept: chains stay inside merged entry windows"
        return lines + [kept], report.passed


JUMP_COCHAIN = JumpConstruction("jump-cochain", Kind.COCE)
JUMP_ANTICHAIN = JumpConstruction("jump-antichain", Kind.CE)
