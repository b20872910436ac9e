"""Staged partial orders over a fixed finite domain.

A construction runs in stages. At each stage it either adds pairs (a
c.e. approximation, the relation only grows) or removes pairs (a co-c.e.
approximation, the relation only shrinks). Every stage must leave the
relation reflexive and transitively closed; additions must also keep it
antisymmetric. The kernel stores each stage as an immutable boolean
matrix and enforces those invariants at mutation time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

DEFAULT_MAX_DOMAIN = 4096


class StagedOrderError(Exception):
    """Base class for all errors raised by this package."""


class AntisymmetryViolation(StagedOrderError):
    def __init__(self, i: int, j: int):
        super().__init__(f"antisymmetry violated: {i} <= {j} and {j} <= {i} with {i} != {j}")
        self.i = i
        self.j = j


class TransitivityViolation(StagedOrderError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(
            f"transitivity violated: {i} <= {j} and {j} <= {k} but not {i} <= {k}"
        )
        self.i = i
        self.j = j
        self.k = k


class BadPermutation(StagedOrderError):
    pass


class ConfigError(StagedOrderError):
    pass


class DomainTooSmall(StagedOrderError):
    pass


class DomainLimitExceeded(StagedOrderError):
    pass


def max_domain() -> int:
    """Current domain-size cap, read from STAGED_ORDERS_MAX_DOMAIN each call."""
    raw = os.environ.get("STAGED_ORDERS_MAX_DOMAIN")
    if raw is None:
        return DEFAULT_MAX_DOMAIN
    try:
        value = int(raw)
    except ValueError:
        raise DomainLimitExceeded(f"STAGED_ORDERS_MAX_DOMAIN is not an integer: {raw!r}")
    if value <= 0:
        raise DomainLimitExceeded(f"STAGED_ORDERS_MAX_DOMAIN must be positive, got {value}")
    return value


def _check_domain_size(domain_size: int) -> None:
    if domain_size < 0:
        raise DomainTooSmall(f"domain size must be nonnegative, got {domain_size}")
    cap = max_domain()
    if domain_size > cap:
        raise DomainLimitExceeded(f"domain size {domain_size} exceeds cap {cap}")


class Kind(Enum):
    CE = "ce"
    COCE = "coce"


def _close_in_place(matrix: np.ndarray) -> None:
    # Warshall, vectorized one pivot at a time. Rows that reach k inherit row k.
    n = matrix.shape[0]
    for k in range(n):
        rows = np.nonzero(matrix[:, k])[0]
        if rows.size:
            matrix[rows] |= matrix[k]


def _find_antisymmetry_witness(matrix: np.ndarray) -> Optional[Tuple[int, int]]:
    bad = matrix & matrix.T
    np.fill_diagonal(bad, False)
    idx = np.argwhere(bad)
    if idx.size == 0:
        return None
    # lexicographically least witness, reported with i < j
    i, j = idx[np.lexsort((idx[:, 1], idx[:, 0]))][0]
    return (int(i), int(j)) if i < j else (int(j), int(i))


def _find_transitivity_witness(matrix: np.ndarray) -> Optional[Tuple[int, int, int]]:
    reach2 = (matrix.astype(np.uint8) @ matrix.astype(np.uint8)) > 0
    missing = reach2 & ~matrix
    idx = np.argwhere(missing)
    if idx.size == 0:
        return None
    i, k = idx[np.lexsort((idx[:, 1], idx[:, 0]))][0]
    js = np.nonzero(matrix[i] & matrix[:, k])[0]
    return (int(i), int(js[0]), int(k))


def close_matrix(matrix: np.ndarray) -> np.ndarray:
    """Transitively close a boolean relation matrix in place and return it."""
    _close_in_place(matrix)
    return matrix


def transitive_close(
    pairs: Iterable[Tuple[int, int]], domain_size: int
) -> frozenset:
    """Reflexive-transitive closure of `pairs` on {0..domain_size-1}.

    Raises AntisymmetryViolation if the closure contains a 2-cycle, and
    DomainTooSmall if a pair mentions an element outside the domain.
    """
    _check_domain_size(domain_size)
    matrix = np.eye(domain_size, dtype=bool)
    for i, j in pairs:
        if not (0 <= i < domain_size and 0 <= j < domain_size):
            raise DomainTooSmall(f"pair ({i}, {j}) outside domain of size {domain_size}")
        matrix[i, j] = True
    _close_in_place(matrix)
    witness = _find_antisymmetry_witness(matrix)
    if witness is not None:
        raise AntisymmetryViolation(*witness)
    return frozenset((int(i), int(j)) for i, j in np.argwhere(matrix))


class Snapshot:
    """One stage of a staged order: an immutable reflexive relation."""

    __slots__ = ("domain_size", "stage", "matrix", "labels")

    def __init__(
        self,
        domain_size: int,
        stage: int,
        matrix: np.ndarray,
        labels: Optional[Mapping[int, str]] = None,
    ):
        _check_domain_size(domain_size)
        if matrix.shape != (domain_size, domain_size) or matrix.dtype != np.bool_:
            raise StagedOrderError("matrix must be a boolean square of the domain size")
        if not matrix.flags.writeable:
            frozen = matrix
        else:
            frozen = matrix.copy()
            frozen.setflags(write=False)
        object.__setattr__(self, "domain_size", domain_size)
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "matrix", frozen)
        object.__setattr__(self, "labels", dict(labels) if labels else {})

    def __setattr__(self, name, value):
        raise AttributeError("Snapshot is immutable")

    @classmethod
    def from_pairs(
        cls,
        domain_size: int,
        pairs: Iterable[Tuple[int, int]],
        stage: int = 0,
        labels: Optional[Mapping[int, str]] = None,
        reflexive: bool = True,
    ) -> "Snapshot":
        _check_domain_size(domain_size)
        matrix = np.eye(domain_size, dtype=bool) if reflexive else np.zeros(
            (domain_size, domain_size), dtype=bool
        )
        for i, j in pairs:
            if not (0 <= i < domain_size and 0 <= j < domain_size):
                raise DomainTooSmall(
                    f"pair ({i}, {j}) outside domain of size {domain_size}"
                )
            matrix[i, j] = True
        return cls(domain_size, stage, matrix, labels)

    def holds(self, i: int, j: int) -> bool:
        return bool(self.matrix[i, j])

    @property
    def pairs(self) -> frozenset:
        return frozenset((int(i), int(j)) for i, j in np.argwhere(self.matrix))

    @property
    def strict(self) -> frozenset:
        off_diag = self.matrix.copy()
        np.fill_diagonal(off_diag, False)
        return frozenset((int(i), int(j)) for i, j in np.argwhere(off_diag))

    def with_stage(self, stage: int) -> "Snapshot":
        return Snapshot(self.domain_size, stage, self.matrix, self.labels)

    def __eq__(self, other):
        if not isinstance(other, Snapshot):
            return NotImplemented
        return (
            self.domain_size == other.domain_size
            and self.stage == other.stage
            and bool(np.array_equal(self.matrix, other.matrix))
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.domain_size, self.stage, self.matrix.tobytes()))

    def __repr__(self):
        return (
            f"Snapshot(domain_size={self.domain_size}, stage={self.stage}, "
            f"pairs={int(self.matrix.sum())})"
        )


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    passed: bool
    witness: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class PosetReport:
    reflexive: AxiomCheck
    antisymmetric: AxiomCheck
    transitive: AxiomCheck

    @property
    def passed(self) -> bool:
        return self.reflexive.passed and self.antisymmetric.passed and self.transitive.passed

    def checks(self) -> Tuple[AxiomCheck, ...]:
        return (self.reflexive, self.antisymmetric, self.transitive)


def _reflexive_check(matrix: np.ndarray) -> AxiomCheck:
    diag = np.diagonal(matrix)
    missing = np.nonzero(~diag)[0]
    if missing.size:
        i = int(missing[0])
        return AxiomCheck("reflexive", False, (i,))
    return AxiomCheck("reflexive", True)


def check_preorder(snapshot: Snapshot) -> PosetReport:
    """Reflexivity and transitivity only; antisymmetry reported vacuously true."""
    matrix = snapshot.matrix
    refl = _reflexive_check(matrix)
    tw = _find_transitivity_witness(matrix)
    trans = AxiomCheck("transitive", tw is None, tw)
    return PosetReport(refl, AxiomCheck("antisymmetric", True), trans)


def check_partial_order(snapshot: Snapshot) -> PosetReport:
    matrix = snapshot.matrix
    refl = _reflexive_check(matrix)
    aw = _find_antisymmetry_witness(matrix)
    anti = AxiomCheck("antisymmetric", aw is None, aw)
    tw = _find_transitivity_witness(matrix)
    trans = AxiomCheck("transitive", tw is None, tw)
    return PosetReport(refl, anti, trans)


@dataclass(frozen=True)
class MonotoneReport:
    kind: Kind
    passed: bool
    failures: Tuple[Tuple[int, Tuple[int, int]], ...]


def check_monotone(order, kind: Optional[Kind] = None) -> MonotoneReport:
    """Check the history only moves one way: CE grows, COCE shrinks.

    Accepts a StagedOrder, or a snapshot sequence plus an explicit kind.
    """
    if isinstance(order, StagedOrder):
        snapshots, kind = order.snapshots, order.kind
    else:
        snapshots = list(order)
        if kind is None:
            raise StagedOrderError("kind is required when passing raw snapshots")
    failures = []
    for prev, cur in zip(snapshots, snapshots[1:]):
        if prev.domain_size != cur.domain_size:
            raise StagedOrderError("snapshots disagree on domain size")
        if kind is Kind.CE:
            lost = prev.matrix & ~cur.matrix
        else:
            lost = cur.matrix & ~prev.matrix
        for i, j in np.argwhere(lost):
            failures.append((cur.stage, (int(i), int(j))))
    return MonotoneReport(kind, not failures, tuple(failures))


class StagedOrder:
    """Append-only history of snapshots, mutated via add_pairs/remove_pairs.

    Every snapshot in the history is a reflexive, antisymmetric,
    transitively closed relation; each mutation appends one snapshot with
    the stage incremented by 1. Mutations are atomic: on error nothing is
    appended.
    """

    def __init__(self, kind: Kind, initial: Snapshot):
        report = check_partial_order(initial)
        for check in report.checks():
            if not check.passed:
                if check.axiom == "antisymmetric":
                    raise AntisymmetryViolation(*check.witness)
                if check.axiom == "transitive":
                    raise TransitivityViolation(*check.witness)
                raise StagedOrderError(f"initial snapshot not reflexive at {check.witness}")
        self.kind = kind
        self.domain_size = initial.domain_size
        self._snapshots = [initial]

    @property
    def snapshots(self) -> Tuple[Snapshot, ...]:
        return tuple(self._snapshots)

    @property
    def current(self) -> Snapshot:
        return self._snapshots[-1]

    def add_pairs(self, pairs: Iterable[Tuple[int, int]]) -> Snapshot:
        if self.kind is not Kind.CE:
            raise StagedOrderError("add_pairs is only valid on a growing (ce) order")
        matrix = self.current.matrix.copy()
        n = self.domain_size
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise DomainTooSmall(f"pair ({u}, {v}) outside domain of size {n}")
            if matrix[u, v]:
                continue
            if matrix[v, u]:
                raise AntisymmetryViolation(min(u, v), max(u, v))
            # x <= u and v <= y gives x <= y; includes (u,v) itself.
            new = np.logical_and.outer(matrix[:, u], matrix[v, :])
            cycle = new & matrix.T
            np.fill_diagonal(cycle, False)
            bad = np.argwhere(cycle)
            if bad.size:
                i, j = bad[0]
                raise AntisymmetryViolation(int(min(i, j)), int(max(i, j)))
            matrix |= new
        snapshot = Snapshot(n, self.current.stage + 1, matrix, self.current.labels)
        self._snapshots.append(snapshot)
        return snapshot

    def remove_pairs(self, pairs: Iterable[Tuple[int, int]]) -> Snapshot:
        if self.kind is not Kind.COCE:
            raise StagedOrderError("remove_pairs is only valid on a shrinking (coce) order")
        matrix = self.current.matrix.copy()
        n = self.domain_size
        removed = []
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise DomainTooSmall(f"pair ({u}, {v}) outside domain of size {n}")
            if u == v:
                raise StagedOrderError(f"cannot remove reflexive pair ({u}, {u})")
            if matrix[u, v]:
                matrix[u, v] = False
                removed.append((u, v))
        # Removing pairs from a closed relation can only break transitivity
        # at a removed pair, so checking those is exact.
        for u, v in removed:
            mid = np.nonzero(matrix[u] & matrix[:, v])[0]
            if mid.size:
                raise TransitivityViolation(u, int(mid[0]), v)
        snapshot = Snapshot(n, self.current.stage + 1, matrix, self.current.labels)
        self._snapshots.append(snapshot)
        return snapshot


def apply_permutation(snapshot: Snapshot, perm: Sequence[int]) -> Snapshot:
    """Relabel elements: new relation holds at (p[i], p[j]) iff old at (i, j)."""
    n = snapshot.domain_size
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise BadPermutation(f"not a permutation of 0..{n - 1}")
    inverse = [0] * n
    for i, p in enumerate(perm):
        inverse[p] = i
    matrix = snapshot.matrix[np.ix_(inverse, inverse)].copy()
    labels = {perm[i]: lab for i, lab in snapshot.labels.items()}
    return Snapshot(n, snapshot.stage, matrix, labels)


def transitive_reduction(snapshot: Snapshot) -> frozenset:
    """Covering pairs of a partial order (minimal strict pairs)."""
    report = check_partial_order(snapshot)
    if not report.passed:
        for check in report.checks():
            if not check.passed:
                raise StagedOrderError(
                    f"transitive reduction needs a partial order; "
                    f"{check.axiom} fails at {check.witness}"
                )
    strict = snapshot.matrix.copy()
    np.fill_diagonal(strict, False)
    via = (strict.astype(np.uint8) @ strict.astype(np.uint8)) > 0
    reduced = strict & ~via
    return frozenset((int(i), int(j)) for i, j in np.argwhere(reduced))


class Construction:
    """One construction as the command line drives it: cli.CONSTRUCTIONS
    holds one instance per name, each defined beside its construction.

    name, kind   the --construction name and the kind of run it builds
    suites       verify suites beyond poset and monotone; each is a method
                 taking the loaded run and returning (lines, passed)
    consts       default constants for decode --consts; None if it takes none
    checks_kind  whether decode refuses snapshots of the other kind
    build(plan)  fill in the plan's defaults; return (snapshots, family
                 object or None) for serialize.write_run
    readout(snapshot, kind, consts, config, original)
                 the object decode prints; config() loads the sibling
                 config.json, original maps relabeled elements back
    """

    suites: Tuple[str, ...] = ("decode",)
    consts: Optional[Tuple[int, ...]] = None
    checks_kind = False

    def __init__(self, name: str, kind: Kind):
        self.name = name
        self.kind = kind
