"""Co-c.e. partial order coding a two-quantifier membership predicate.

The coded set is U = {i : (exists x)(forall y) R(i,x,y)}. A genuine
such predicate is not desk-realizable, so instances are synthetic: each
index i is declared a member (its least stable witness w_i and the
finite defeat stages of the witnesses below it) or a nonmember (a total
rule giving the defeat stage of every witness). R(i,x,y) is then
"y < defeat_stage(i,x)", with the stage never arriving for stable
witnesses.

The order starts from a fixed scaffold over role-coded elements and only
ever removes pairs (b_x, a_{i,k}) when witness x of index i is defeated,
so membership of i survives in the limit exactly as "some B-element
below the whole row a_{i,0..i}".

Finite windows: the construction is the restriction of the infinite one
to {0..domain_bound-1}. Witness counters follow the schedule regardless
of the window; removals that mention a b_x beyond the window are
vacuous. Rows for indices beyond the simulated bound that happen to fit
in the window are built but never mutated.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Optional, Tuple, Union

import numpy as np

from .kernel import (
    ConfigError,
    Construction,
    DomainTooSmall,
    Kind,
    Record,
    Snapshot,
    StagedOrder,
    StagedOrderError,
    _compose,
    close_matrix,
    stage_batches,
)
from .roles import _sigma2_labels, _sigma2_roles, sigma2_a_code, sigma2_b_code, sigma2_c_code
from .serialize import is_natural


class NotFound(StagedOrderError):
    """The decoder could not locate the requested row in the snapshot."""


class Sigma2Consts(NamedTuple):
    a: int
    b: int
    c: int
    f: int
    l: int


DEFAULT_CONSTS = Sigma2Consts(0, 1, 2, 3, 4)


class MemberIndex(Record):
    witness: int
    defeats: Tuple[int, ...]  # defeat stage of x, for each x < witness

    def __post_init__(self):
        if not is_natural(self.witness):
            raise ConfigError("witness is a natural")
        if len(self.defeats) != self.witness:
            raise ConfigError("member index needs one defeat stage per witness below it")
        if not all(is_natural(d) for d in self.defeats):
            raise ConfigError("defeat stages are naturals")


class NonmemberIndex(Record):
    offset: int
    step: int
    horizon: Optional[int] = None  # declared coverage of the rule, in witnesses

    def __post_init__(self):
        if not (is_natural(self.offset) and is_natural(self.step)):
            raise ConfigError("defeat rule coefficients are naturals")
        if self.horizon is not None and not is_natural(self.horizon):
            raise ConfigError("defeat_horizon is a natural")


IndexSpec = Union[MemberIndex, NonmemberIndex]


class SyntheticSigma2Predicate(Record):
    indices: Tuple[IndexSpec, ...]

    @property
    def bound(self) -> int:
        return len(self.indices)

    def defeat_stage(self, i: int, x: int) -> Optional[int]:
        spec = self.indices[i]
        if isinstance(spec, MemberIndex):
            return spec.defeats[x] if x < spec.witness else None
        return spec.offset + spec.step * x

    def holds(self, i: int, x: int, y: int) -> bool:
        d = self.defeat_stage(i, x)
        return d is None or y < d

    def membership(self) -> Tuple[bool, ...]:
        return tuple(isinstance(spec, MemberIndex) for spec in self.indices)


def predicate_from_config(blob: dict) -> SyntheticSigma2Predicate:
    raw = blob.get("indices")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("config needs a nonempty 'indices' list")
    by_i = {}
    for entry in raw:
        if not isinstance(entry, dict) or not is_natural(entry.get("i")):
            raise ConfigError(f"malformed index entry {entry!r}")
        i = entry["i"]
        if i in by_i:
            raise ConfigError(f"duplicate index {i}")
        member = entry.get("member", False)
        if type(member) is not bool:
            raise ConfigError(f"index {i}: 'member' must be true or false")
        if member:
            defeats = entry.get("defeats", [])
            if not isinstance(defeats, list):
                raise ConfigError(f"member index {i} needs a 'defeats' list")
            by_i[i] = MemberIndex(witness=entry.get("witness", 0), defeats=tuple(defeats))
        else:
            rule = entry.get("defeat_rule")
            if not isinstance(rule, dict):
                raise ConfigError(f"nonmember index {i} needs a defeat_rule")
            by_i[i] = NonmemberIndex(
                offset=rule.get("offset", 0),
                step=rule.get("step", 0),
                horizon=entry.get("defeat_horizon"),
            )
    if sorted(by_i) != list(range(len(by_i))):
        raise ConfigError("index entries must cover 0..I-1 exactly")
    return SyntheticSigma2Predicate(tuple(by_i[i] for i in range(len(by_i))))


def b_count(domain_bound: int) -> int:
    # b_x has code 5 + 3x
    if domain_bound <= 5:
        return 0
    return (domain_bound - 6) // 3 + 1


def required_domain_bound(pred: SyntheticSigma2Predicate) -> int:
    """Least window holding every role the simulation must mutate or read.

    Rows a_{i,k}, c_{i,k} for every simulated i, plus b_{w_i} for members
    (the surviving witness the decoder needs present).
    """
    need = 5
    for i, spec in enumerate(pred.indices):
        need = max(need, sigma2_a_code(i, i) + 1)
        if i >= 1:
            need = max(need, sigma2_c_code(i, i - 1) + 1)
        if isinstance(spec, MemberIndex):
            need = max(need, sigma2_b_code(spec.witness) + 1)
    return need


def validate_predicate(pred: SyntheticSigma2Predicate, domain_bound: int) -> None:
    required = required_domain_bound(pred)
    if domain_bound < required:
        raise DomainTooSmall(
            f"domain bound {domain_bound} too small; need {required} "
            f"for {pred.bound} indices"
        )
    window_b = b_count(domain_bound)
    for i, spec in enumerate(pred.indices):
        if isinstance(spec, NonmemberIndex) and spec.horizon is not None:
            if window_b > spec.horizon:
                raise ConfigError(
                    f"index {i}: window holds {window_b} b-elements but the "
                    f"defeat rule is declared for {spec.horizon}"
                )


def _defeats(pred: SyntheticSigma2Predicate, i: int, count: int) -> Iterator[int]:
    """The stages at which index i's first `count` witnesses are defeated,
    in order; fewer for a member whose resting witness comes first, as it
    has no defeat stage.

    Index i is eligible once s >= i, and moves at most one witness per
    stage, so witness x, whose defeat stage is d, is defeated at
    max(d, t + 1, i), t being the stage at which witness x - 1 was (0 for
    x = 0, as no stage comes before 1)."""
    t = 0
    for x in range(count):
        d = pred.defeat_stage(i, x)
        if d is None:
            return
        t = max(d, t + 1, i)
        yield t


def stabilization_stage(pred: SyntheticSigma2Predicate, domain_bound: int) -> int:
    """First stage after which no removal can touch the window again.

    Members are stable once the witness reaches its resting value;
    nonmembers once the witness has marched past every b-element the
    window contains. So this is the last stage at which a witness below
    those targets is defeated, found in one step per such defeat: a
    member has a finite defeat stage for every witness below its resting
    one, and a nonmember's rule gives one for every witness.
    """
    count = b_count(domain_bound)
    targets = [spec.witness if isinstance(spec, MemberIndex) else count for spec in pred.indices]
    return max((max(_defeats(pred, i, target), default=0) for i, target in enumerate(targets)),
               default=0)


def build_initial(domain_bound: int, pred: SyntheticSigma2Predicate) -> Snapshot:
    """Scaffold before any removals: the closure of the fixed conditions.

    Conditions: every A-element below a, every B-element below b, every
    C-element below c, all of B below all of A, a_{i,0} below f, a_{i,i}
    below l, and a_{i,k}, a_{i,k+1} below c_{i,k}. Only conditions whose
    endpoints both fit the window apply.
    """
    validate_predicate(pred, domain_bound)
    n = domain_bound
    matrix = np.eye(n, dtype=bool)
    a_codes = []
    b_codes = []
    consts = DEFAULT_CONSTS
    below, above = [], []  # the pairs to put, set in one assignment

    for code, role in enumerate(_sigma2_roles(n)[5:], 5):
        if role[0] == "a":
            _, i, k = role
            a_codes.append(code)
            tops = [consts.a] + [consts.f] * (k == 0) + [consts.l] * (k == i)
            below += [code] * len(tops)
            above += tops
        elif role[0] == "b":
            b_codes.append(code)
            below.append(code)
            above.append(consts.b)
        else:
            _, i, k = role
            bottoms = [x for x in (sigma2_a_code(i, k), sigma2_a_code(i, k + 1)) if x < n]
            below += [code] + bottoms
            above += [consts.c] + [code] * len(bottoms)
    matrix[below, above] = True
    matrix[np.ix_(b_codes, a_codes)] = True
    close_matrix(matrix)
    return Snapshot(n, 0, matrix, _sigma2_labels(n))


def build_run(
    pred: SyntheticSigma2Predicate, domain_bound: int, stages: int
) -> Tuple[StagedOrder, Tuple[int, ...]]:
    """The run through `stages` stages, and the witnesses after the last.

    A defeat of witness x of index i removes (b_x, a_{i,k}) for every
    k <= i that fits the window; a stage's pairs go by index, then by k.
    Index i can be defeated at most once a stage from stage 1 on, so no
    more than `stages` of its defeats come by the last stage.
    """
    n = domain_bound
    order = StagedOrder(Kind.COCE, build_initial(n, pred))
    removals = {}  # stage -> its pairs, by index
    witnesses = []
    for i in range(pred.bound):
        defeats = list(itertools.takewhile(lambda t: t <= stages, _defeats(pred, i, stages)))
        witnesses.append(len(defeats))
        # a_{i,0}..a_{i,i} are every third code from a_{i,0} on
        a_row = range(sigma2_a_code(i, 0), min(sigma2_a_code(i, i) + 1, n), 3)
        for x, t in enumerate(defeats):
            b = sigma2_b_code(x)
            if b >= n:  # so are the codes of every later witness
                break
            removals.setdefault(t, []).extend((b, a) for a in a_row)
    order.remove_stages(stage_batches(removals, stages))
    return order, tuple(witnesses)


def _regions(m: np.ndarray, consts: Sigma2Consts) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The A, B and C elements of a relation matrix, as sorted int arrays."""
    below_a, below_b, below_c = m[:, [consts.a, consts.b, consts.c]].T  # a gathered copy
    below_a[consts.a] = below_b[consts.b] = below_c[consts.c] = False
    return (
        np.flatnonzero(below_a & ~below_b),
        np.flatnonzero(below_b),
        np.flatnonzero(below_c & ~below_a & ~below_b),
    )


_SCAFFOLD: list = [None, None, None]  # the last snapshot and constants read, and what was read


def _scaffold(snapshot: Snapshot, consts: Sigma2Consts):
    """The links of each A-element, ascending, the A-elements below the
    f-image and the set of those below the l-image; NotFound if there are
    no A-elements or one has more than two links. Kept for the last
    snapshot and constants asked for, as a decode asks for every row of
    one snapshot. A Snapshot is immutable, so it is known by identity; a
    NotFound is not kept."""
    if _SCAFFOLD[0] is snapshot and _SCAFFOLD[1] == consts:
        return _SCAFFOLD[2]
    m = snapshot.matrix
    a_elems, _, c_elems = _regions(m, consts)
    if not a_elems.size:
        raise NotFound(f"no A-elements in a domain of {snapshot.domain_size}")
    above = m.take(a_elems, 0).take(c_elems, 1)
    linked = _compose(above, above.T)
    np.fill_diagonal(linked, False)
    counts = np.count_nonzero(linked, axis=1)
    crowded = np.flatnonzero(counts > 2)
    if crowded.size:
        x, count = a_elems[crowded[0]].item(), counts[crowded[0]].item()
        raise NotFound(f"A-element {x} has {count} links; scaffold rows are paths")
    links = {x: [] for x in a_elems.tolist()}
    # nonzero runs row by row, so each element's links come out ascending
    for x, y in zip(*(a_elems[t].tolist() for t in np.nonzero(linked))):
        links[x].append(y)
    starts = a_elems[m[a_elems, consts.f]].tolist()
    ends = set(a_elems[m[a_elems, consts.l]].tolist())
    _SCAFFOLD[:] = snapshot, consts, (links, starts, ends)
    return links, starts, ends


def locate_sequence(
    snapshot: Snapshot, consts: Sigma2Consts, i: int
) -> Tuple[int, ...]:
    """Find the i+1 elements playing a_{i,0}..a_{i,i} in a (possibly
    permuted) copy.

    Two A-elements are linked when some C-element sits above both. The
    scaffold links a_{i,k} only to a_{i,k-1} and a_{i,k+1}, so each row is
    a path; an A-element with more than two links is refused. The row of
    index i is the walk of i+1 elements from an A-element below the
    f-image to one below the l-image; starts and their links are tried in
    sorted order.
    """
    if i < 0:
        raise NotFound("row index must be a natural")
    links, starts, ends = _scaffold(snapshot, consts)
    for x0 in starts:
        for row in [[x0, y] for y in links[x0]] if i else [[x0]]:
            while len(row) <= i:
                step = [y for y in links[row[-1]] if y not in row]
                if not step:
                    break
                row.append(step[0])
            if len(row) == i + 1 and row[-1] in ends:
                return tuple(row)
    raise NotFound(f"no row of length {i + 1} in a domain of {snapshot.domain_size}")


def membership_query(
    snapshot: Snapshot, consts: Sigma2Consts, i: int
) -> bool:
    """Decide i's membership from the snapshot: some B-element below the
    whole located row. Exact once the stage has passed stabilization."""
    row = locate_sequence(snapshot, consts, i)
    # the elements below b and below every element of the row, but b itself
    hits = snapshot.matrix.take([consts.b, *row], axis=1).all(axis=1)
    hits[consts.b] = False
    return bool(hits.any())


class Sigma2Construction(Construction):
    """The membership coding, as the command line drives it."""

    consts = tuple(DEFAULT_CONSTS)

    def build(self, plan):
        pred = predicate_from_config(plan.payload)
        plan.domain = plan.domain_or(required_domain_bound(pred))
        stages = plan.stages_or(lambda: stabilization_stage(pred, plan.domain))
        return build_run(pred, plan.domain, stages)[0].history, None

    def readout(self, snap, kind, consts, config, original) -> dict:
        pred = predicate_from_config(config())
        cs = Sigma2Consts(*consts)
        bits = [1 if membership_query(snap, cs, i) else 0 for i in range(pred.bound)]
        return {"construction": self.name, "membership": bits}

    def decode(self, run):
        final = run.final
        truth = predicate_from_config(run.config).membership()
        bits = self.readout(final, run.kind, self.consts, lambda: run.config, None)["membership"]
        word = ("nonmember", "member")
        lines = [
            f"index {i}: decoded {word[got]}" + ("" if got == want else f", expected {word[want]}")
            for i, (got, want) in enumerate(zip(bits, truth))
        ]
        return lines, bits == [int(want) for want in truth]


SIGMA2 = Sigma2Construction("sigma2", Kind.COCE)
