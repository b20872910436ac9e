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
from typing import NamedTuple, Optional, Tuple, Union

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
)
from .roles import (
    Sigma2A,
    Sigma2B,
    Sigma2C,
    Sigma2Const,
    sigma2_a_code,
    sigma2_b_code,
    sigma2_c_code,
    sigma2_decode,
    sigma2_encode,
    sigma2_label,
)
from .serialize import is_natural


class NotFound(StagedOrderError):
    """The decoder could not locate the requested row in the snapshot."""


class Sigma2Consts(NamedTuple):
    a: int
    b: int
    c: int
    f: int
    l: int


DEFAULT_CONSTS = Sigma2Consts(*(sigma2_encode(Sigma2Const(n)) for n in ("a", "b", "c", "f", "l")))


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


def predicate_to_config(pred: SyntheticSigma2Predicate) -> dict:
    entries = []
    for i, spec in enumerate(pred.indices):
        if isinstance(spec, MemberIndex):
            entries.append(
                {"i": i, "member": True, "witness": spec.witness, "defeats": list(spec.defeats)}
            )
        else:
            entry = {
                "i": i,
                "member": False,
                "defeat_rule": {"offset": spec.offset, "step": spec.step},
            }
            if spec.horizon is not None:
                entry["defeat_horizon"] = spec.horizon
            entries.append(entry)
    return {"indices": entries}


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


def _witness_stages(pred: SyntheticSigma2Predicate):
    """The witness dynamics: for stages 1, 2, ..., yield the (i, x) pairs
    defeated at that stage and the witnesses after it.

    Index i is eligible once s >= i. Witness x of index i is defeated at s
    when its defeat stage is at or before s; the witness then advances to
    x+1. Each index moves at most one witness per stage.
    """
    witnesses = [0] * pred.bound
    for s in itertools.count(1):
        defeated = []
        for i in range(min(s, pred.bound - 1) + 1):
            x = witnesses[i]
            d = pred.defeat_stage(i, x)
            if d is not None and d <= s:
                defeated.append((i, x))
                witnesses[i] = x + 1
        yield defeated, tuple(witnesses)


def stabilization_stage(pred: SyntheticSigma2Predicate, domain_bound: int) -> int:
    """First stage after which no removal can touch the window again.

    Members are stable once the witness reaches its resting value;
    nonmembers once the witness has marched past every b-element the
    window contains.
    """
    count = b_count(domain_bound)
    targets = [
        spec.witness if isinstance(spec, MemberIndex) else count
        for spec in pred.indices
    ]
    relevant = [0]
    for spec in pred.indices:
        if isinstance(spec, MemberIndex):
            relevant.extend(spec.defeats)
        else:
            relevant.append(spec.offset + spec.step * max(count - 1, 0))
    cap = max(relevant) + count + pred.bound + 2
    witnesses = (0,) * pred.bound
    stages = _witness_stages(pred)
    for s in range(cap + 1):
        if all(w >= t for w, t in zip(witnesses, targets)):
            return s
        _, witnesses = next(stages)
    raise StagedOrderError("witness dynamics failed to stabilize")


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
    roles = [sigma2_decode(code) for code in range(n)]
    consts = DEFAULT_CONSTS

    def put(u, v):
        if u < n and v < n:
            matrix[u, v] = True

    for code, role in enumerate(roles):
        if isinstance(role, Sigma2A):
            a_codes.append(code)
            put(code, consts.a)
            if role.k == 0:
                put(code, consts.f)
            if role.k == role.i:
                put(code, consts.l)
        elif isinstance(role, Sigma2B):
            b_codes.append(code)
            put(code, consts.b)
        elif isinstance(role, Sigma2C):
            put(code, consts.c)
            put(sigma2_a_code(role.i, role.k), code)
            put(sigma2_a_code(role.i, role.k + 1), code)
    for b in b_codes:
        for a in a_codes:
            matrix[b, a] = True
    close_matrix(matrix)
    labels = {code: sigma2_label(role) for code, role in enumerate(roles)}
    return Snapshot(n, 0, matrix, labels)


def build_run(
    pred: SyntheticSigma2Predicate, domain_bound: int, stages: int
) -> Tuple[StagedOrder, Tuple[int, ...]]:
    """The run through `stages` stages, and the witnesses after the last.

    A defeat of witness x of index i removes (b_x, a_{i,k}) for every
    k <= i that fits the window.
    """
    n = domain_bound
    order = StagedOrder(Kind.COCE, build_initial(n, pred))
    witnesses = (0,) * pred.bound
    for _, (defeated, witnesses) in zip(range(stages), _witness_stages(pred)):
        gone = []
        for i, x in defeated:
            b = sigma2_b_code(x)
            if b < n:
                a_row = (sigma2_a_code(i, k) for k in range(i + 1))
                gone.extend((b, a) for a in a_row if a < n)
        order.remove_pairs(gone)
    return order, witnesses


def identify_regions(
    snapshot: Snapshot, consts: Sigma2Consts = DEFAULT_CONSTS
) -> Tuple[frozenset, frozenset, frozenset]:
    """Split the domain by the constants: B below b, A below a but not b,
    C below c but neither a nor b."""
    m = snapshot.matrix
    below_a = m[:, consts.a].copy()
    below_a[consts.a] = False
    below_b = m[:, consts.b].copy()
    below_b[consts.b] = False
    below_c = m[:, consts.c].copy()
    below_c[consts.c] = False
    b_set = frozenset(int(x) for x in np.nonzero(below_b)[0])
    a_set = frozenset(int(x) for x in np.nonzero(below_a & ~below_b)[0])
    c_set = frozenset(int(x) for x in np.nonzero(below_c & ~below_a & ~below_b)[0])
    return a_set, b_set, c_set


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
    m = snapshot.matrix
    a_set, _, c_set = identify_regions(snapshot, consts)
    a_elems = sorted(a_set)
    if not a_elems:
        raise NotFound(f"no A-elements in a domain of {snapshot.domain_size}")
    above = m[np.ix_(a_elems, sorted(c_set))]
    linked = _compose(above, above.T)
    np.fill_diagonal(linked, False)
    links = {x: [a_elems[t] for t in np.flatnonzero(row)] for x, row in zip(a_elems, linked)}
    for x, ys in links.items():
        if len(ys) > 2:
            raise NotFound(f"A-element {x} has {len(ys)} links; scaffold rows are paths")
    starts = [x for x in a_elems if m[x, consts.f]]
    ends = {x for x in a_elems if m[x, consts.l]}
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
    m = snapshot.matrix
    _, b_set, _ = identify_regions(snapshot, consts)
    return any(all(m[b, x] for x in row) for b in sorted(b_set))


class Sigma2Construction(Construction):
    """The membership coding, as the command line drives it."""

    consts = tuple(DEFAULT_CONSTS)

    def build(self, plan):
        pred = predicate_from_config(plan.payload)
        if plan.domain is None:
            plan.domain = required_domain_bound(pred)
        stages = plan.stages_or(stabilization_stage(pred, plan.domain))
        return build_run(pred, plan.domain, stages)[0].snapshots, None

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
