"""Staged partial orders over a fixed finite domain.

A construction runs in stages. At each stage it either adds pairs (a
c.e. approximation, the relation only grows) or removes pairs (a co-c.e.
approximation, the relation only shrinks). Every stage must leave the
relation reflexive and transitively closed; additions must also keep it
antisymmetric. The kernel enforces those invariants at mutation time.

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

    def _next(self, matrix: np.ndarray, labels: Mapping[int, str]) -> "Snapshot":
        """The stage after this one, holding `matrix`: a fresh read-only
        matrix that owns its data, or this stage's own when the stage
        changes nothing. Nothing is checked again: the domain size passed
        the cap when this stage was made, and the matrix has its shape.
        The labels are copied, so no two stages share a dict."""
        after = object.__new__(Snapshot)
        object.__setattr__(after, "domain_size", self.domain_size)
        object.__setattr__(after, "stage", self.stage + 1)
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


def _close_batch(
    matrix: np.ndarray, idx: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The closure of the closed order `matrix` with the pairs of the int64
    (k, 2) array `idx` added, and the sorted pairs the closure added; None
    if that closure has a 2-cycle. If nothing is added, `matrix` itself.

    Let R be the order and B the pairs R does not hold yet. R is reflexive
    and transitive, so every path in R and B is a run of "R-step, then a
    B-pair" segments and one last R-step, and each segment ends on a head
    of B. Hence R | R.B, closed over B's heads only, is the closure; R.B
    needs R's columns at B's tails only, and fills columns at heads only.
    A 2-cycle in the closure uses a B-pair, so it puts that pair's head on
    a 2-cycle too: checking the heads' rows is enough. A row that gains a
    pair newly reaches a head: on a path to that pair with the fewest
    B-pairs, the row did not reach the first B-pair's head in R. So only
    those rows are compared with R.

    A batch is already closed, and needs none of that, when every tail is
    minimal in R (its column holds only the diagonal), every head is
    maximal in R (its row holds only the diagonal) and no head is a tail.
    Then an R-step into a tail or out of a head stays put, and a B-pair
    cannot follow another, as the R-step between them would make a head
    a tail. So a path holds at most one B-pair and reaches nothing beyond
    R | B, which is therefore closed. It has no 2-cycle: for (t, h) in B,
    h <= t in R would make h = t, as h is maximal, and (h, t) in B would
    make h a tail. So the closure adds exactly the fresh pairs, and only
    the tails' rows change. The head-is-a-tail test runs first: it is the
    cheapest, and it is what fails on chains."""
    fresh = idx[~matrix[idx[:, 0], idx[:, 1]]]
    if not fresh.size:
        return matrix, _NO_PAIRS
    fresh_tails, fresh_heads = fresh[:, 0], fresh[:, 1]
    is_tail = np.zeros(matrix.shape[0], dtype=bool)
    is_tail[fresh_tails] = True
    closed = matrix.copy()
    if (
        not is_tail[fresh_heads].any()
        and np.count_nonzero(matrix.take(fresh_tails, 1)) == len(fresh)
        and np.count_nonzero(matrix.take(fresh_heads, 0)) == len(fresh)
    ):
        closed[fresh_tails, fresh_heads] = True
        rows = is_tail.nonzero()[0]
    else:
        is_head = np.zeros(matrix.shape[0], dtype=bool)
        is_head[fresh_heads] = True
        tails, heads = is_tail.nonzero()[0], is_head.nonzero()[0]
        # an element's place among the tails (heads) is the count up to it, less one
        batch = np.zeros((tails.size, heads.size), dtype=bool)
        batch[np.cumsum(is_tail)[fresh_tails] - 1, np.cumsum(is_head)[fresh_heads] - 1] = True
        closed[:, heads] |= _compose(matrix.take(tails, 1), batch)
        _close_in_place(closed, heads)
        reach = closed[:, heads]
        # reflexive, so a head is on no 2-cycle iff it meets the transpose only at itself
        if np.count_nonzero(closed[heads] & reach.T) != heads.size:
            return None
        rows = np.logical_or.reduce(reach != matrix.take(heads, 1), 1).nonzero()[0]
    # flat indices: nonzero over a 2-d array is many times slower
    which, cols = np.divmod((closed.take(rows, 0) != matrix.take(rows, 0)).ravel().nonzero()[0],
                            matrix.shape[1])
    added = np.empty((cols.size, 2), dtype=np.int64)
    added[:, 0], added[:, 1] = rows[which], cols
    return closed, added


def _add_pair_by_pair(matrix: np.ndarray, pairs, n: int) -> np.ndarray:
    """Add the pairs to a closed order one at a time, raising for the first
    one outside the domain or making a 2-cycle; that first error is what
    add_pairs reports. Changes and returns `matrix`."""
    for pair in pairs:
        u, v = _checked_pair(pair, n)
        if matrix[u, v]:
            continue
        if matrix[v, u]:
            raise AntisymmetryViolation(min(u, v), max(u, v))
        # x <= u and v <= y gives x <= y; includes (u,v) itself. No such
        # pair reverses a held one: y <= x would close to v <= u.
        matrix |= np.logical_and.outer(matrix[:, u], matrix[v, :])
    return matrix


class StagedOrder:
    """Append-only history of a staged order, mutated via add_pairs and
    remove_pairs.

    Every stage is a reflexive, antisymmetric, transitively closed
    relation; each mutation appends one stage, numbered one past the last.
    Mutations are atomic: on error nothing is appended.

    The history is held as the first and `current` snapshots and, for
    each later stage, the strict pairs it added and removed: sorted int64
    (k, 2) arrays. No other stage's matrix is kept; `history` gives them
    as a `Replay`. A stage that changes nothing shares the matrix before
    it.

    A ce stage is closed in one pass over its batch's heads
    (`_close_batch`) and checked for antisymmetry once. A batch whose
    tails are minimal, whose heads are maximal and whose heads are no
    tails is already closed, and is set as it is; an empty batch appends
    the current matrix at once. The pairs are walked one at a time only
    when the pass refuses the batch, to name the first error
    (`_add_pair_by_pair`).
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

    def _append(self, matrix: np.ndarray, added: np.ndarray, removed: np.ndarray) -> Snapshot:
        """Make `matrix`, read-only and owning its data, the next stage, and
        record its delta: fresh arrays, made read-only here, not copied."""
        added.setflags(write=False)
        removed.setflags(write=False)
        self._current = self._current._next(matrix, self._current.labels)
        self._deltas.append((added, removed))
        return self._current

    def add_pairs(self, pairs: Iterable[Tuple[int, int]]) -> Snapshot:
        if self.kind is not Kind.CE:
            raise StagedOrderError("add_pairs is only valid on a growing (ce) order")
        pairs = list(pairs)
        n = self.domain_size
        before = self._current.matrix
        if not pairs:
            return self._append(before, _NO_PAIRS, _NO_PAIRS)
        idx = _pair_array(pairs, n)
        closed = None if idx is None else _close_batch(before, idx)
        if closed is None:
            matrix = _add_pair_by_pair(before.copy(), pairs, n)
            added = np.argwhere(matrix & ~before)
            closed = (matrix, added) if added.size else (before, _NO_PAIRS)
        matrix, added = closed
        matrix.setflags(write=False)  # fresh or the current one: no copy needed
        return self._append(matrix, added, _NO_PAIRS)

    def remove_pairs(self, pairs: Iterable[Tuple[int, int]]) -> Snapshot:
        if self.kind is not Kind.COCE:
            raise StagedOrderError("remove_pairs is only valid on a shrinking (coce) order")
        before = self._current.matrix
        n = self.domain_size
        removed = {}  # the held pairs, each once, in the order first given
        for pair in pairs:
            u, v = _checked_pair(pair, n)
            if u == v:
                raise StagedOrderError(f"cannot remove reflexive pair ({u}, {u})")
            if before[u, v]:
                removed[u, v] = None
        if not removed:
            return self._append(before, _NO_PAIRS, _NO_PAIRS)
        idx = np.array(sorted(removed), dtype=np.int64)
        matrix = before.copy()
        matrix[idx[:, 0], idx[:, 1]] = False
        # Removing pairs from a closed relation can only break transitivity
        # at a removed pair, so checking those is exact. They are checked
        # in whole-array passes, a slice at a time to bound the (pairs, n)
        # temporary; only a broken batch is walked pair by pair, in the
        # order given, to name its first broken pair.
        slices = (idx[lo:lo + 256] for lo in range(0, len(idx), 256))
        if any((matrix.take(part[:, 0], 0) & matrix.take(part[:, 1], 1).T).any() for part in slices):
            for u, v in removed:
                mid = np.flatnonzero(matrix[u] & matrix[:, v])
                if mid.size:
                    raise TransitivityViolation(u, int(mid[0]), v)
        matrix.setflags(write=False)  # fresh, so the snapshot takes it uncopied
        return self._append(matrix, _NO_PAIRS, idx)


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
