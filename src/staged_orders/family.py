"""From a shrinking preorder approximation to a computable set family.

A co-c.e. preorder is given by its limit plus a removal stage for every
pair outside the limit; the stage-s view contains the limit and every
pair not yet removed. The construction allocates one fresh element per
witnessed non-relation per stage and the inclusion order of the grown
family reproduces the limit: i is below j exactly when A_i is a subset
of A_j.
"""

from __future__ import annotations

import os
import random
from itertools import pairwise
from typing import List, Tuple

import numpy as np

from .kernel import (
    ConfigError,
    Construction,
    Kind,
    Record,
    Snapshot,
    _is_transitive,
    _matrix_of,
    _pair_array,
    check_preorder,
    close_matrix,
)
from .serialize import FAMILY_NAME, is_natural, load_json


class CoCEPreorder(Record):
    n: int
    limit: Snapshot  # reflexive and transitive
    removal_stage: Tuple[Tuple[Tuple[int, int], int], ...]  # ((i,j), stage) per non-pair

    def __post_init__(self):
        report = check_preorder(self.limit)
        if self.limit.domain_size != self.n or not report.passed:
            raise ConfigError("limit must be a preorder on the declared domain")
        covered = sorted(pair for pair, _ in self.removal_stage)
        if any(p == q for p, q in pairwise(covered)):
            raise ConfigError("duplicate removal entries")
        # no pair twice, so the schedule covers the complement iff it has
        # the complement's size and lies inside it
        idx, outside = _pair_array(covered, self.n), ~self.limit.matrix
        if (idx is None or len(idx) != np.count_nonzero(outside)
                or not outside[idx[:, 0], idx[:, 1]].all()):
            raise ConfigError(
                "removal schedule must cover exactly the pairs outside the limit"
            )
        if any(stage < 0 for _, stage in self.removal_stage):
            raise ConfigError("removal stages are naturals")

    @property
    def max_removal_stage(self) -> int:
        return max((stage for _, stage in self.removal_stage), default=0)

    def view(self, s: int) -> np.ndarray:
        """Pairs held at stage s: the limit plus pairs removed later."""
        matrix = self.limit.matrix.copy()
        for (i, j), stage in self.removal_stage:
            if stage > s:
                matrix[i, j] = True
        return matrix


def _limit_pairs(blob: dict) -> Tuple[int, list]:
    """The config's n and limit pairs, each pair checked against n."""
    n = blob.get("n")
    if not is_natural(n):
        raise ConfigError("config needs a natural 'n'")
    limit_pairs = blob.get("limit_pairs", [])
    if not isinstance(limit_pairs, list):
        raise ConfigError("config needs 'limit_pairs' and 'removals' lists")
    for p in limit_pairs:
        if not (isinstance(p, list) and len(p) == 2 and all(is_natural(v) and v < n for v in p)):
            raise ConfigError(f"malformed limit pair {p!r}")
    return n, limit_pairs


def preorder_from_config(blob: dict) -> CoCEPreorder:
    n, limit_pairs = _limit_pairs(blob)
    removals = blob.get("removals")
    if not isinstance(removals, list):
        raise ConfigError("config needs 'limit_pairs' and 'removals' lists")
    matrix = close_matrix(_matrix_of(limit_pairs, n))
    schedule = []
    for entry in removals:
        if not (
            isinstance(entry, list)
            and len(entry) == 3
            and all(is_natural(v) for v in entry)
        ):
            raise ConfigError(f"malformed removal {entry!r}")
        i, j, stage = entry
        schedule.append(((i, j), stage))
    return CoCEPreorder(n, Snapshot(n, 0, matrix), tuple(schedule))


def speedup(pre: CoCEPreorder, s: int) -> int:
    """Least stage s' >= s whose view is transitive on the working window
    {0..s+1}. The enumeration is fast-forwarded, never edited. The search
    stops by the last removal stage: from there on the view is the limit,
    which CoCEPreorder has checked is a preorder."""
    window = min(s + 1, pre.n - 1) + 1 if pre.n else 0
    t = s
    while not _is_transitive(pre.view(t)[:window, :window]):
        t += 1
    return t


class SetFamily(Record):
    n: int
    element_count: int
    rows: Tuple[frozenset, ...]  # rows[i] = A_i as a set of allocated elements

    def included(self, i: int, j: int) -> bool:
        return self.rows[i] <= self.rows[j]

    def to_obj(self) -> dict:
        membership = [
            [1 if e in self.rows[i] else 0 for e in range(self.element_count)]
            for i in range(self.n)
        ]
        return {"n": self.n, "elements": self.element_count, "membership": membership}

    @classmethod
    def from_obj(cls, obj) -> "SetFamily":
        if not isinstance(obj, dict):
            raise ConfigError("family JSON must be an object")
        n = obj.get("n")
        count = obj.get("elements")
        membership = obj.get("membership")
        if not (is_natural(n) and is_natural(count) and isinstance(membership, list)):
            raise ConfigError("family JSON needs n, elements, membership")
        if len(membership) != n or not all(
            isinstance(row, list)
            and len(row) == count
            and all(type(bit) is int and bit in (0, 1) for bit in row)
            for row in membership
        ):
            raise ConfigError("membership must be n rows of 'elements' bits, each 0 or 1")
        rows = tuple(
            frozenset(e for e in range(count) if membership[i][e]) for i in range(n)
        )
        return cls(n, count, rows)


def sufficient_stages(pre: CoCEPreorder) -> int:
    """Stages after which the family provably mirrors the limit: every
    index has had its stage and a full post-stabilization sweep ran."""
    return max(pre.n, pre.max_removal_stage) + 1


def build_family(pre: CoCEPreorder, stages: int) -> SetFamily:
    """Stage s: first fold A_i into A_s for each i held below s by the
    sped-up view; then every witnessed non-relation i /<= j gets a fresh
    element placed in exactly the A_k the view puts above i."""
    rows: List[set] = [set() for _ in range(pre.n)]
    fresh = 0
    for s in range(stages):
        view = pre.view(speedup(pre, s)).tolist()  # lists index faster than numpy
        w = min(s, pre.n - 1)
        if pre.n and s <= pre.n - 1:
            for i in range(s + 1):
                if view[i][s]:
                    rows[s] |= rows[i]
        for i in range(w + 1):
            for j in range(w + 1):
                if i != j and not view[i][j]:
                    e = fresh
                    fresh += 1
                    for k in range(w + 1):
                        if view[i][k]:
                            rows[k].add(e)
    return SetFamily(pre.n, fresh, tuple(frozenset(r) for r in rows))


class IsomorphismReport(Record):
    passed: bool
    mismatches: Tuple[Tuple[int, int], ...]  # (i, j) where i<=j and A_i<=A_j disagree


def verify_isomorphism(pre: CoCEPreorder, fam: SetFamily) -> IsomorphismReport:
    """The map i -> A_i must carry the limit order to inclusion exactly."""
    if fam.n != pre.n:
        raise ConfigError(f"family has {fam.n} sets but the preorder has {pre.n} indices")
    bad = []
    for i in range(pre.n):
        for j in range(pre.n):
            if bool(pre.limit.matrix[i, j]) != fam.included(i, j):
                bad.append((i, j))
    return IsomorphismReport(not bad, tuple(bad))


def removals_from_horizon(
    rng: random.Random, n: int, limit_pairs, horizon: int
) -> List[List[int]]:
    """One removal stage per pair outside the closed limit, drawn uniformly
    from [0, horizon] in lexicographic pair order."""
    matrix = close_matrix(_matrix_of(limit_pairs, n))
    return [[i, j, rng.randint(0, horizon)] for i, j in np.argwhere(~matrix).tolist()]


class FamilyConstruction(Construction):
    """The set family, as the command line drives it. Its run holds
    family.json instead of snapshots, so there is nothing to decode."""

    suites = ("decode", "isomorphism")

    def build(self, plan):
        """A `removal_horizon` in place of `removals` is drawn from the
        seed, and the drawn list replaces it in the resolved config."""
        payload = plan.payload = dict(plan.payload)
        horizon = payload.pop("removal_horizon", None)
        if "removals" not in payload:
            if horizon is None:
                raise ConfigError("family config needs 'removals' or 'removal_horizon'")
            if plan.seed is None:
                raise ConfigError("drawing removals from a horizon needs --seed")
            if not is_natural(horizon):
                raise ConfigError("removal_horizon must be a natural")
            n, limit_pairs = _limit_pairs(payload)
            payload["removals"] = removals_from_horizon(
                random.Random(plan.seed), n, limit_pairs, horizon
            )
        pre = preorder_from_config(payload)
        stages = plan.stages_or(lambda: sufficient_stages(pre))
        return None, build_family(pre, stages).to_obj()

    def readout(self, snap, kind, consts, config, original) -> dict:
        raise ConfigError("family runs decode via 'verify --suite isomorphism'")

    def decode(self, run):
        raise ConfigError("family runs are verified with --suite isomorphism")

    def isomorphism(self, run):
        pre = preorder_from_config(run.config)
        fam = SetFamily.from_obj(load_json(os.path.join(run.dir, FAMILY_NAME)))
        report = verify_isomorphism(pre, fam)
        lines = [f"pair ({i}, {j}): order and inclusion disagree" for i, j in report.mismatches]
        lines.append(f"{pre.n} indices against {fam.element_count} elements")
        return lines, report.passed


FAMILY = FamilyConstruction("family", Kind.COCE)
