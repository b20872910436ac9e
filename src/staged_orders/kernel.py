"""Staged partial orders over a fixed finite domain.

A construction runs in stages. At each stage it either adds pairs (a
c.e. approximation, the relation only grows) or removes pairs (a co-c.e.
approximation, the relation only shrinks). Every stage must leave the
relation reflexive and transitively closed; additions must also keep it
antisymmetric. The kernel enforces those invariants at mutation time.

A pair enters or leaves at one stage and never moves back, so a run of
stages is one matrix of stage labels: the stage at which each pair is
first held (ce) or first lacking (coce). `StagedOrder` takes every stage
of a run in one call and checks them all from that matrix: for removals,
a test at the removed pairs; for additions, a min-max closure of the
labels. A one-stage mutation is the same call with one stage.

An order check that passes returns after a few whole-matrix passes,
without a witness search; only a relation that fails is searched for its
first witness. The domain cap is checked wherever a matrix of a new size
is made, so a stage made from a checked stage, by a mutation or by a
walk of a history, is not checked against it again.

A history takes one shape wherever it goes, from build through the run
files to verify: a `Replay`, which holds two immutable boolean matrices,
its first stage and its last, and for every stage between only the
strict pairs that stage added and removed and its labels. Its memory
grows with the pairs that change, not with the number of stages, and it
rebuilds its stages one at a time when walked. `StagedOrder.history`
gives an order's history so far in that shape.

`Record` is the base of the package's small immutable value classes
(axiom and monotonicity reports, predicate specs, schedules). Its fields
come from the class annotations, and defining a record class generates
no code, where a frozen dataclass compiles several methods per class
at import.
"""

from __future__ import annotations

import os
from enum import Enum
from itertools import chain, pairwise
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

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
    """Current domain-size cap, read from STAGED_ORDERS_MAX_DOMAIN each call.
    It is called wherever a matrix of a new size is made; a stage made from
    a checked stage has that stage's size, and is not checked again."""
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


class Record:
    """An immutable record. Its fields are the names its class annotates,
    in order; a class attribute of the same name is a field's default.
    A record equals only records of its own class with equal fields, and
    hashes and prints by field as a frozen dataclass does. Assigning or
    deleting an attribute raises AttributeError. `__post_init__` runs
    once the fields are set, to validate them."""

    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = cls._fields + tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._arguments(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> tuple:
        """One value per field: the positional ones, then keywords or defaults."""
        rest = cls._fields[len(args):]
        if len(args) > len(cls._fields) or not set(kwargs) <= set(rest):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(cls._fields)}")
        missing = [name for name in rest if name not in kwargs and not hasattr(cls, name)]
        if missing:
            raise TypeError(f"{cls.__name__} is missing {', '.join(missing)}")
        return args + tuple(kwargs[name] if name in kwargs else getattr(cls, name) for name in rest)

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Kind(Enum):
    CE = "ce"
    COCE = "coce"


def _close_in_place(matrix: np.ndarray, pivots: Iterable[int]) -> None:
    """Warshall over the given pivots, vectorized one pivot at a time: rows
    that reach k inherit row k. Afterwards the matrix holds every path
    whose inner elements are all pivots; over range(n) that is the closure."""
    for k in pivots:
        rows = np.nonzero(matrix[:, k])[0]
        if rows.size:
            matrix[rows] |= matrix[k]


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Relation composition: [i, k] holds iff a[i, j] and b[j, k] for some j.
    Read as > 0 the float32 product is exact at every size: a float sum of
    non-negative terms that includes a 1 never rounds to 0."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def _strict(matrix: np.ndarray) -> np.ndarray:
    """The relation without its diagonal, as a new matrix."""
    strict = matrix.copy()  # C-ordered, so its flat view steps n + 1 along the diagonal
    strict.reshape(-1)[:: strict.shape[0] + 1] = False
    return strict


def _strict_pairs(matrix: np.ndarray) -> np.ndarray:
    """The pairs (i, j), i != j, a relation matrix holds, as a sorted int64
    (k, 2) array: the one shape a set of pairs takes in this package."""
    return np.argwhere(_strict(matrix))


def _first_pair(matrix: np.ndarray) -> Optional[Tuple[int, int]]:
    """The lexicographically least pair a relation matrix holds, or None."""
    if not matrix.any():
        return None
    # argmax of a bool matrix is its first True in row-major order
    return divmod(int(matrix.argmax()), matrix.shape[1])


def _pair_array(pairs, n: int) -> Optional[np.ndarray]:
    """`pairs` as an int64 (k, 2) array if every pair is a list or tuple of
    two ints inside 0..n-1, else None; an int64 (k, 2) array is only
    range-checked. Whole-list passes only. Entries must be ints, because
    numpy would read True, 1.0 or "1" as 1."""
    if not isinstance(pairs, np.ndarray):
        if not (set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) <= {2}):
            return None
        entries = list(chain.from_iterable(pairs))
        if not set(map(type, entries)) <= {int}:
            return None
        try:
            pairs = np.fromiter(entries, np.int64, len(entries)).reshape(-1, 2)
        except OverflowError:  # beyond int64, so outside every domain
            return None
    if pairs.size and (np.minimum.reduce(pairs, None) < 0 or np.maximum.reduce(pairs, None) >= n):
        return None
    return pairs


def _checked_pair(pair, n: int) -> Tuple[int, int]:
    """A pair given to the kernel, checked on its own: two Python or numpy
    integers inside 0..n-1. numpy would read True as a mask and 0.0 or "0"
    not at all, so any other entry is refused."""
    u, v = pair
    if not ((type(u) is int or isinstance(u, np.integer))
            and (type(v) is int or isinstance(v, np.integer))):
        raise StagedOrderError(f"pair ({u!r}, {v!r}) must hold two integers")
    if not (0 <= u < n and 0 <= v < n):
        raise DomainTooSmall(f"pair ({u}, {v}) outside domain of size {n}")
    return u, v


def _matrix_of(pairs: Iterable[Tuple[int, int]], n: int) -> np.ndarray:
    """A reflexive relation matrix holding `pairs`, an iterable of pairs or
    an array from `_pair_array`. The cap is checked before anything is
    allocated, and every pair must pass `_checked_pair`."""
    _check_domain_size(n)
    matrix = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(matrix, True)
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    idx = _pair_array(pairs, n)
    if idx is not None:
        matrix[idx[:, 0], idx[:, 1]] = True
        return matrix
    # Numpy ints or a bad pair: go pair by pair, as the error must name the
    # first bad pair.
    for pair in pairs:
        matrix[_checked_pair(pair, n)] = True
    return matrix


def _find_antisymmetry_witness(matrix: np.ndarray) -> Optional[Tuple[int, int]]:
    return _first_pair(np.triu(matrix & matrix.T, 1))


def _middles(strict: np.ndarray) -> np.ndarray:
    """The elements with both a predecessor and a successor in a relation
    S without diagonal: no other element can be the middle of a path."""
    # the ufunc's own reduce: ndarray.any goes through a Python wrapper
    return (np.logical_or.reduce(strict, 0) & np.logical_or.reduce(strict, 1)).nonzero()[0]


def _strict_square(strict: np.ndarray) -> np.ndarray:
    """S.S for a relation S without diagonal, composed only through its
    middles, so exactly, at n*n*|middles| cost instead of n**3."""
    middle = _middles(strict)
    return _compose(strict.take(middle, 1), strict.take(middle, 0))


def _is_transitive(matrix: np.ndarray) -> bool:
    """Whether R.R lies inside R; see _find_transitivity_witness."""
    return not (_strict_square(_strict(matrix)) > matrix).any()  # > on bools: and-not


def _find_transitivity_witness(matrix: np.ndarray) -> Optional[Tuple[int, int, int]]:
    """The first pair (i, k) that R.R holds and R does not, with its least
    middle j. A path through j = i or j = k only reaches a pair R holds,
    so the missing pairs of R.R are those of S.S, S the strict part of R."""
    missing = _first_pair(_strict_square(_strict(matrix)) & ~matrix)
    if missing is None:
        return None
    i, k = missing
    return (i, int(np.flatnonzero(matrix[i] & matrix[:, k])[0]), k)


def close_matrix(matrix: np.ndarray) -> np.ndarray:
    """Transitively close a boolean relation matrix in place and return it.
    Only the middles are pivots: an element with no predecessor, or no
    successor, has none after closing either, so it is inside no path."""
    _close_in_place(matrix, _middles(_strict(matrix)))
    return matrix


class Snapshot:
    """One stage of a staged order: an immutable reflexive relation. The
    matrix is taken uncopied only if it owns its data and is read-only;
    any other array, a read-only view of a writable one included, is
    copied, so nothing outside can change a snapshot once it is checked."""

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
        if matrix.flags.owndata and not matrix.flags.writeable:
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

    def _next(self, matrix: np.ndarray, labels: Mapping[int, str], stages: int = 1) -> "Snapshot":
        """The stage `stages` after this one, holding `matrix`: a fresh
        read-only matrix that owns its data, or this stage's own when the
        stages between change nothing. Nothing is checked again: the domain
        size passed the cap when this stage was made, and the matrix has
        its shape. The labels are copied, so no two stages share a dict."""
        after = object.__new__(Snapshot)
        object.__setattr__(after, "domain_size", self.domain_size)
        object.__setattr__(after, "stage", self.stage + stages)
        object.__setattr__(after, "matrix", matrix)
        object.__setattr__(after, "labels", dict(labels))
        return after

    @classmethod
    def from_pairs(
        cls,
        domain_size: int,
        pairs: Iterable[Tuple[int, int]],
        stage: int = 0,
        labels: Optional[Mapping[int, str]] = None,
    ) -> "Snapshot":
        matrix = _matrix_of(pairs, domain_size)
        matrix.setflags(write=False)  # fresh, so the snapshot takes it uncopied
        return cls(domain_size, stage, matrix, labels)

    def holds(self, i: int, j: int) -> bool:
        return bool(self.matrix[i, j])

    @property
    def pairs(self) -> frozenset:
        # kept only for bench/tracing.py, which wraps it by name
        return frozenset(map(tuple, np.argwhere(self.matrix).tolist()))

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


class AxiomCheck(Record):
    axiom: str
    passed: bool
    witness: Optional[Tuple[int, ...]] = None


class PosetReport(Record):
    reflexive: AxiomCheck
    antisymmetric: AxiomCheck
    transitive: AxiomCheck

    @property
    def passed(self) -> bool:
        return self.reflexive.passed and self.antisymmetric.passed and self.transitive.passed

    def checks(self) -> Tuple[AxiomCheck, ...]:
        return (self.reflexive, self.antisymmetric, self.transitive)


_PASSED = PosetReport(
    AxiomCheck("reflexive", True), AxiomCheck("antisymmetric", True), AxiomCheck("transitive", True)
)


def _report(matrix: np.ndarray, antisymmetric: bool) -> PosetReport:
    """The axioms' report. A relation that passes is told apart in a few
    whole-matrix passes: reflexive, then, for a reflexive relation,
    antisymmetric iff R & R^T is the diagonal alone, then transitive. Only
    a relation that fails runs the witness searches below."""
    n = matrix.shape[0]
    if (
        np.count_nonzero(matrix.diagonal()) == n
        and (not antisymmetric or np.count_nonzero(matrix & matrix.T) == n)
        and _is_transitive(matrix)
    ):
        return _PASSED
    unreflexive = np.flatnonzero(~np.diagonal(matrix))
    rw = (int(unreflexive[0]),) if unreflexive.size else None
    aw = _find_antisymmetry_witness(matrix) if antisymmetric else None
    tw = _find_transitivity_witness(matrix)
    return PosetReport(
        AxiomCheck("reflexive", rw is None, rw),
        AxiomCheck("antisymmetric", aw is None, aw),
        AxiomCheck("transitive", tw is None, tw),
    )


def check_preorder(snapshot: Snapshot) -> PosetReport:
    """Reflexivity and transitivity only; antisymmetry reported vacuously true."""
    return _report(snapshot.matrix, antisymmetric=False)


def check_partial_order(snapshot: Snapshot) -> PosetReport:
    return _report(snapshot.matrix, antisymmetric=True)


def _require(report: PosetReport, error) -> None:
    """Raise error(check) for the first axiom the report fails, if any."""
    for check in report.checks():
        if not check.passed:
            raise error(check)


def _violation(check: AxiomCheck) -> StagedOrderError:
    """What StagedOrder raises for an initial snapshot that fails `check`."""
    if check.axiom == "antisymmetric":
        return AntisymmetryViolation(*check.witness)
    if check.axiom == "transitive":
        return TransitivityViolation(*check.witness)
    return StagedOrderError(f"initial snapshot not reflexive at {check.witness}")


class MonotoneReport(Record):
    kind: Kind
    passed: bool
    failures: Tuple[Tuple[int, Tuple[int, int]], ...]


def check_monotone(snapshots: Iterable[Snapshot], kind: Kind) -> MonotoneReport:
    """Check the history only moves one way: CE grows, COCE shrinks. Each
    stage is compared with the one before it in a single pass, so a
    `Replay` is walked once, two stages at a time."""
    failures = []
    for prev, cur in pairwise(snapshots):
        if prev.domain_size != cur.domain_size:
            raise StagedOrderError("snapshots disagree on domain size")
        if prev.matrix is cur.matrix:  # a stage that changed nothing
            continue
        if kind is Kind.CE:
            lost = prev.matrix & ~cur.matrix
        else:
            lost = cur.matrix & ~prev.matrix
        if lost.any():
            failures += [(cur.stage, tuple(p)) for p in np.argwhere(lost).tolist()]
    return MonotoneReport(kind, not failures, tuple(failures))


Delta = Tuple[np.ndarray, np.ndarray, Mapping[int, str]]


class Replay:
    """A history held as its first and last snapshots and, for each stage
    between, the strict pairs it added and removed and its labels
    (`Delta`s: sorted int (k, 2) arrays and a dict). Iterating rebuilds the
    stages in order, each from the one before by setting `added` and
    clearing `removed`, then gives the last; len() counts them. A stage
    that changes nothing shares the matrix before it; any other gets a
    fresh read-only one, so a walk that keeps no stage holds two matrices
    at a time. An empty history has neither first nor last snapshot, and
    in a history of one stage they are the same."""

    __slots__ = ("first", "middle", "last")

    def __init__(self, first: Optional[Snapshot], middle: Sequence[Delta], last: Optional[Snapshot]):
        self.first = first
        self.middle = tuple(middle)
        self.last = last

    def __len__(self) -> int:
        if self.first is None:
            return 0
        return len(self.middle) + (1 if self.last is self.first else 2)

    def __iter__(self) -> Iterator[Snapshot]:
        if self.first is None:
            return
        snapshot = self.first
        yield snapshot
        for added, removed, labels in self.middle:
            matrix = snapshot.matrix
            if added.size or removed.size:
                matrix = matrix.copy()
                matrix[added[:, 0], added[:, 1]] = True
                matrix[removed[:, 0], removed[:, 1]] = False
                matrix.setflags(write=False)
            snapshot = snapshot._next(matrix, labels)
            yield snapshot
        if self.last is not self.first:
            yield self.last


_NO_PAIRS = np.empty((0, 2), dtype=np.int64)
_NO_PAIRS.setflags(write=False)


def _checked_stages(batches: List[list], n: int) -> Tuple[int, np.ndarray]:
    """The number of leading stages whose every pair passes `_checked_pair`,
    and their pairs as an int64 (k, 2) array. This is the walk for stages
    that `_pair_array` refuses as a whole: numpy integers, or a bad pair.
    The first stage with a bad pair is refused, and its own walk raises
    the error again."""
    pairs: List[Tuple[int, int]] = []
    for t, batch in enumerate(batches):
        try:
            pairs += [tuple(map(int, _checked_pair(pair, n))) for pair in batch]
        except (StagedOrderError, TypeError, ValueError):  # a bad pair, or no pair to unpack
            return t, np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return len(batches), np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _close_labels(labels: np.ndarray, pivots: np.ndarray, top) -> None:
    """Bottleneck Warshall over the given pivots: afterwards labels[i, j] is
    the least, over paths from i to j whose inner elements are pivots, of
    the largest label on the path; `top` is no path."""
    for k in pivots.tolist():
        col = labels[:, k]
        rows = (col != top).nonzero()[0]
        labels[rows] = np.minimum(labels[rows], np.maximum(col[rows, None], labels[k]))


def _staged(labels: np.ndarray, top) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs a label matrix gives a stage, neither 0 nor `top`, as flat
    indices sorted by label and, within a label, by index; and their
    labels."""
    flat = labels.reshape(-1)
    at = ((flat != 0) & (flat != top)).nonzero()[0]  # flat nonzero: 2-d is many times slower
    order = flat[at].argsort(kind="stable")
    return at[order], flat[at[order]]


def _grown(labels: np.ndarray, before: np.ndarray, top, pairs: np.ndarray):
    """Close the labels of additions to the closed order `before`: 0 where
    `before` holds a pair, an added pair's first stage, `top` elsewhere.
    `pairs` are the pairs added, an int64 (k, 2) array. Returns `_staged`
    of the closed labels and the first label whose stage closes a 2-cycle,
    `top` if none.

    A pair is first held at the stage of the least, over paths, of the
    largest label on the path. Pairs of `before` are closed, so a path can
    leave out every element that is not the tail or head of an added pair,
    and every element with no predecessor or no successor in the union:
    the pivots that remain are tails and heads that are middles. With none,
    every tail is minimal, every head maximal and no head a tail, so no
    path holds two added pairs, and the labels are closed as they stand.
    A 2-cycle runs through the tail of an added pair, which is then a
    pivot, so only the pivots' rows and columns are searched for one."""
    n = before.shape[0]
    fresh = pairs[~before[pairs[:, 0], pairs[:, 1]]]
    tails, heads = fresh[:, 0], fresh[:, 1]
    is_tail = np.zeros(n, dtype=bool)
    is_tail[tails] = True
    is_head = np.zeros(n, dtype=bool)
    is_head[heads] = True
    tails, heads = is_tail.nonzero()[0], is_head.nonzero()[0]
    # a tail has a successor and a head a predecessor; each may have the other
    middle = np.zeros(n, dtype=bool)
    middle[tails] = is_head[tails] | (np.count_nonzero(before.take(tails, 1), 0) > 1)
    middle[heads] |= is_tail[heads] | (np.count_nonzero(before.take(heads, 0), 1) > 1)
    pivots = middle.nonzero()[0]
    if not pivots.size:
        return (*_staged(labels, top), top)
    _close_labels(labels, pivots, top)
    cycles = np.maximum(labels.take(pivots, 0), labels.take(pivots, 1).T)
    cycles[np.arange(pivots.size), pivots] = top
    return (*_staged(labels, top), np.minimum.reduce(cycles, None))


def _shrunk(labels: np.ndarray, top):
    """Check the labels of removals from a closed order: 0 where the order
    lacks a pair, a removed pair's first stage, `top` elsewhere. Returns
    `_staged` of the labels and the first label whose stage breaks
    transitivity, `top` if none.

    Stage t holds the pairs labelled above t. Removing pairs from a closed
    relation can break transitivity only at a removed pair, so stage t is
    refused iff a pair (u, v) labelled t has some w with
    min(labels[u, w], labels[w, v]) > t. The test runs over every removed
    pair in whole-array passes, a slice at a time to bound the (pairs, n)
    temporary, in label order, so the first broken slice holds the least
    broken label."""
    flat, staged = _staged(labels, top)
    tails, heads = np.divmod(flat, labels.shape[0])
    for lo in range(0, flat.size, 256):
        part = slice(lo, lo + 256)
        paths = np.minimum(labels.take(tails[part], 0), labels.take(heads[part], 1).T)
        broken = np.logical_or.reduce(paths > staged[part, None], 1).nonzero()[0]
        if broken.size:
            return flat, staged, staged[lo + broken[0]]
    return flat, staged, top


def _refuse_additions(matrix: np.ndarray, pairs, n: int) -> None:
    """Add a refused stage's pairs to a copy of the closed order `matrix`
    one at a time, raising for the first one outside the domain or making
    a 2-cycle."""
    matrix = matrix.copy()
    for pair in pairs:
        u, v = _checked_pair(pair, n)
        if matrix[u, v]:
            continue
        if matrix[v, u]:
            raise AntisymmetryViolation(min(u, v), max(u, v))
        # x <= u and v <= y gives x <= y; includes (u,v) itself. No such
        # pair reverses a held one: y <= x would close to v <= u.
        matrix |= np.logical_and.outer(matrix[:, u], matrix[v, :])


def _refuse_removals(matrix: np.ndarray, pairs, n: int) -> None:
    """Walk a refused stage's removals from the closed order `matrix` to
    raise its first error: a pair, in the order given, that is not two
    integers inside the domain or is reflexive; else the first held pair,
    in that order, that the stage's other removals leave a middle for,
    named with its least middle."""
    removed = {}  # the held pairs, each once, in the order first given
    for pair in pairs:
        u, v = _checked_pair(pair, n)
        if u == v:
            raise StagedOrderError(f"cannot remove reflexive pair ({u}, {u})")
        if matrix[u, v]:
            removed[u, v] = None
    matrix = matrix.copy()
    for u, v in removed:
        matrix[u, v] = False
    for u, v in removed:
        mid = np.flatnonzero(matrix[u] & matrix[:, v])
        if mid.size:
            raise TransitivityViolation(u, int(mid[0]), v)


def stage_batches(pairs_at: Mapping[int, list], stages: int) -> List[list]:
    """One batch per stage 1..stages, for StagedOrder.add_stages or
    remove_stages: the pairs `pairs_at` maps a stage to, or else one empty
    list that every stage with no pairs shares, so each such stage costs
    a pointer, and a stage count too large to hold fails at once."""
    batches = [[]] * stages
    for s, pairs in pairs_at.items():
        batches[s - 1] = pairs
    return batches


_ORDER_WORDS = {Kind.CE: "a growing (ce)", Kind.COCE: "a shrinking (coce)"}


class StagedOrder:
    """Append-only history of a staged order, mutated a stage or a run of
    stages at a time: add_stages and remove_stages take one list of pairs
    per stage, and add_pairs and remove_pairs are their one-stage case.

    Every stage is a reflexive, antisymmetric, transitively closed
    relation; each stage is numbered one past the stage before it. A stage
    is atomic: a call appends every stage before the first one it refuses,
    as a loop of one-stage calls would, and then raises that stage's first
    error, so a one-stage call that fails appends nothing.

    A pair enters (ce) or leaves (coce) at one stage and never moves back,
    so a call's whole run is one matrix of labels: the stage at which each
    pair is first held (ce) or first lacking (coce). Each stage's delta,
    the first refused stage and the last matrix are read off it in
    whole-array passes (`_grown`, `_shrunk`). The labels are numbered over
    the stages that carry pairs, in the smallest unsigned dtype that holds
    them. Pairs are walked one at a time only for the refused stage, to
    name its first error (`_refuse_additions`, `_refuse_removals`).

    The history is held as the first and `current` snapshots and, for
    each later stage, the strict pairs it added and removed: sorted int64
    (k, 2) arrays. No other stage's matrix is kept; `history` gives them
    as a `Replay`. A stage that changes nothing shares the matrix before
    it.
    """

    def __init__(self, kind: Kind, initial: Snapshot):
        _require(check_partial_order(initial), _violation)
        self.kind = kind
        self.domain_size = initial.domain_size
        self._initial = self._current = initial
        self._deltas: List[Tuple[np.ndarray, np.ndarray]] = []

    @property
    def current(self) -> Snapshot:
        return self._current

    @property
    def history(self) -> Replay:
        """Every stage so far: the first and current snapshots and the delta
        of each stage between, all with the first's labels."""
        labels = self._initial.labels  # every stage keeps the first's labels
        middle = [(added, removed, labels) for added, removed in self._deltas[:-1]]
        return Replay(self._initial, middle, self._current)

    def add_pairs(self, pairs: Iterable[Tuple[int, int]]) -> Snapshot:
        return self._stages([pairs], Kind.CE, "add_pairs")

    def remove_pairs(self, pairs: Iterable[Tuple[int, int]]) -> Snapshot:
        return self._stages([pairs], Kind.COCE, "remove_pairs")

    def add_stages(self, batches: Iterable[Iterable[Tuple[int, int]]]) -> Snapshot:
        """Append one stage per batch, each adding its batch's pairs, and
        return the last stage (the current one if there are no batches)."""
        return self._stages(batches, Kind.CE, "add_stages")

    def remove_stages(self, batches: Iterable[Iterable[Tuple[int, int]]]) -> Snapshot:
        """Append one stage per batch, each removing its batch's pairs, and
        return the last stage (the current one if there are no batches)."""
        return self._stages(batches, Kind.COCE, "remove_stages")

    def _stages(self, batches, kind: Kind, name: str) -> Snapshot:
        if self.kind is not kind:
            raise StagedOrderError(f"{name} is only valid on {_ORDER_WORDS[kind]} order")
        grow = kind is Kind.CE
        n = self.domain_size
        batches = [batch if type(batch) is list else list(batch) for batch in batches]
        sizes = list(map(len, batches))
        stop = len(batches)  # the first stage refused, or one past the last
        idx = _pair_array(list(chain.from_iterable(batches)), n)
        if idx is None:
            stop, idx = _checked_stages(batches, n)
        if not grow:  # a reflexive pair refuses its stage
            loops = (idx[:, 0] == idx[:, 1]).nonzero()[0]
            if loops.size:
                stop = min(stop, int(np.searchsorted(np.cumsum(sizes), loops[0], "right")))
        live = [t for t in range(stop) if sizes[t]]  # the stages with pairs, labelled from 1
        top = np.min_scalar_type(len(live) + 1).type(len(live) + 1)
        idx = idx[: sum(sizes[:stop])]
        before = self._current.matrix
        zero = top.dtype.type(0)
        # a pair no stage can move (held when growing, lacking when shrinking)
        # is labelled 0; any other starts at top and takes its first stage
        stage_of = np.where(before, zero, top) if grow else np.where(before, top, zero)
        np.minimum.at(stage_of.reshape(-1), idx[:, 0] * n + idx[:, 1],
                      np.arange(1, top, dtype=top.dtype).repeat([sizes[t] for t in live]))
        if grow:
            flat, labels, refused = _grown(stage_of, before, top, idx)
        else:
            flat, labels, refused = _shrunk(stage_of, top)
        if refused != top:
            stop = live[refused - 1]
            cut = labels.searchsorted(refused)
            flat, labels = flat[:cut], labels[:cut]
        pairs = np.empty((flat.size, 2), dtype=np.int64)
        pairs[:, 0], pairs[:, 1] = np.divmod(flat, n)
        pairs.setflags(write=False)  # its slices are the deltas, read-only too
        starts = labels.searchsorted(np.arange(1, len(live) + 2)).tolist()
        deltas = [(_NO_PAIRS, _NO_PAIRS)] * stop
        for t, lo, hi in zip(live, starts, starts[1:]):
            if lo < hi:
                deltas[t] = (pairs[lo:hi], _NO_PAIRS) if grow else (_NO_PAIRS, pairs[lo:hi])
        if stop:
            matrix = before
            if flat.size:
                matrix = before.copy()
                matrix.reshape(-1)[flat] = grow
                matrix.setflags(write=False)  # fresh, so the snapshot takes it uncopied
            self._deltas += deltas
            self._current = self._current._next(matrix, self._current.labels, stop)
        if stop < len(batches):  # the walk raises the refused stage's first error
            refuse = _refuse_additions if grow else _refuse_removals
            refuse(self._current.matrix, batches[stop], n)
            raise AssertionError(f"a refused stage's walk found no error in {batches[stop]!r}")
        return self._current


def apply_permutation(snapshot: Snapshot, perm: Sequence[int]) -> Snapshot:
    """Relabel elements: new relation holds at (p[i], p[j]) iff old at (i, j)."""
    n = snapshot.domain_size
    perm = list(perm)
    refused = BadPermutation(f"not a permutation of 0..{n - 1}")
    # bools and floats index like integers; refuse them before they become labels
    if len(perm) != n or not all(t is int or issubclass(t, np.integer) for t in set(map(type, perm))):
        raise refused
    try:
        entries = np.fromiter(perm, np.int64, n)
    except OverflowError:  # beyond int64, so outside every domain
        raise refused from None
    if n and (np.minimum.reduce(entries) < 0 or np.maximum.reduce(entries) >= n):
        raise refused
    seen = np.zeros(n, dtype=bool)
    seen[entries] = True
    if np.count_nonzero(seen) != n:  # n entries that miss a value repeat another
        raise refused
    inverse = np.empty(n, dtype=np.int64)
    inverse[entries] = np.arange(n)
    matrix = np.take(np.take(snapshot.matrix, inverse, axis=0), inverse, axis=1)
    labels = {perm[i]: lab for i, lab in snapshot.labels.items()}
    return Snapshot(n, snapshot.stage, matrix, labels)


def transitive_reduction(snapshot: Snapshot) -> np.ndarray:
    """Covering pairs of a partial order (minimal strict pairs), sorted, as
    an int64 (k, 2) array."""
    _require(
        check_partial_order(snapshot),
        lambda check: StagedOrderError(
            f"transitive reduction needs a partial order; "
            f"{check.axiom} fails at {check.witness}"
        ),
    )
    strict = _strict(snapshot.matrix)
    return np.argwhere(strict & ~_strict_square(strict))


class Construction:
    """One construction as the command line drives it: each instance is
    defined beside its construction, and cli.CONSTRUCTIONS names the module
    and attribute that hold it.

    name, kind   the --construction name and the kind of run it builds
    suites       verify suites beyond poset and monotone; each is a method
                 taking the loaded run and returning (lines, passed)
    consts       default constants for decode --consts; None if it takes none
    checks_kind  whether decode refuses snapshots of the other kind
    build(plan)  fill in the plan's defaults; return (history, family) for
                 serialize.write_run: the built order's history (a Replay),
                 or None for a set family, and the family object, or None
                 for an order
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
