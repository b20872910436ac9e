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

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .kernel import (
    ConfigError,
    Construction,
    DomainTooSmall,
    Kind,
    Snapshot,
    StagedOrder,
    StagedOrderError,
    close_matrix,
)
from .roles import (
    Sigma2A,
    Sigma2B,
    Sigma2C,
    Sigma2Const,
    sigma2_decode,
    sigma2_encode,
    sigma2_label,
)


class NotFound(StagedOrderError):
    """The decoder could not locate the requested row in the snapshot."""


class Sigma2Consts(NamedTuple):
    a: int
    b: int
    c: int
    f: int
    l: int


DEFAULT_CONSTS = Sigma2Consts(*(sigma2_encode(Sigma2Const(n)) for n in ("a", "b", "c", "f", "l")))


@dataclass(frozen=True)
class MemberIndex:
    witness: int
    defeats: Tuple[int, ...]  # defeat stage of x, for each x < witness

    def __post_init__(self):
        if self.witness < 0 or len(self.defeats) != self.witness:
            raise ConfigError("member index needs one defeat stage per witness below it")
        if any(d < 0 for d in self.defeats):
            raise ConfigError("defeat stages are naturals")


@dataclass(frozen=True)
class NonmemberIndex:
    offset: int
    step: int
    horizon: Optional[int] = None  # declared coverage of the rule, in witnesses

    def __post_init__(self):
        if self.offset < 0 or self.step < 0:
            raise ConfigError("defeat rule coefficients are naturals")
        if self.horizon is not None and self.horizon < 0:
            raise ConfigError("defeat_horizon is a natural")


IndexSpec = Union[MemberIndex, NonmemberIndex]


@dataclass(frozen=True)
class SyntheticSigma2Predicate:
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


@dataclass(frozen=True)
class WitnessTable:
    witnesses: Tuple[int, ...]

    @classmethod
    def initial(cls, count: int) -> "WitnessTable":
        return cls((0,) * count)


def predicate_from_config(blob: dict) -> SyntheticSigma2Predicate:
    raw = blob.get("indices")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("config needs a nonempty 'indices' list")
    by_i = {}
    for entry in raw:
        if not isinstance(entry, dict) or "i" not in entry:
            raise ConfigError(f"malformed index entry {entry!r}")
        i = entry["i"]
        if i in by_i:
            raise ConfigError(f"duplicate index {i}")
        if entry.get("member"):
            by_i[i] = MemberIndex(
                witness=entry.get("witness", 0),
                defeats=tuple(entry.get("defeats", ())),
            )
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
        need = max(need, sigma2_encode(Sigma2A(i, i)) + 1)
        if i >= 1:
            need = max(need, sigma2_encode(Sigma2C(i, i - 1)) + 1)
        if isinstance(spec, MemberIndex):
            need = max(need, sigma2_encode(Sigma2B(spec.witness)) + 1)
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
    witnesses = [0] * pred.bound
    relevant = [0]
    for i, spec in enumerate(pred.indices):
        if isinstance(spec, MemberIndex):
            relevant.extend(spec.defeats)
        else:
            relevant.append(spec.offset + spec.step * max(count - 1, 0))
    cap = max(relevant) + count + pred.bound + 2
    s = 0
    while any(w < t for w, t in zip(witnesses, targets)):
        s += 1
        if s > cap:
            raise StagedOrderError("witness dynamics failed to stabilize")
        for i in range(min(s, pred.bound - 1) + 1):
            x = witnesses[i]
            d = pred.defeat_stage(i, x)
            if d is not None and d <= s:
                witnesses[i] = x + 1
    return s


def build_initial(domain_bound: int, pred: Optional[SyntheticSigma2Predicate] = None) -> Snapshot:
    """Scaffold before any removals: the closure of the fixed conditions.

    Conditions: every A-element below a, every B-element below b, every
    C-element below c, all of B below all of A, a_{i,0} below f, a_{i,i}
    below l, and a_{i,k}, a_{i,k+1} below c_{i,k}. Only conditions whose
    endpoints both fit the window apply.
    """
    if pred is not None:
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
            put(sigma2_encode(Sigma2A(role.i, role.k)), code)
            put(sigma2_encode(Sigma2A(role.i, role.k + 1)), code)
    for b in b_codes:
        for a in a_codes:
            matrix[b, a] = True
    close_matrix(matrix)
    labels = {code: sigma2_label(role) for code, role in enumerate(roles)}
    return Snapshot(n, 0, matrix, labels)


def run_stage(
    order: StagedOrder,
    witnesses: WitnessTable,
    pred: SyntheticSigma2Predicate,
    s: int,
) -> Tuple[StagedOrder, WitnessTable]:
    """One stage: defeated witnesses lose their row and advance by one.

    Index i is eligible once s >= i. A defeat of witness x at or before s
    removes (b_x, a_{i,k}) for every k <= i that fits the window and bumps
    the witness to x+1; each index moves at most one witness per stage.
    """
    if s < 1 or s != order.current.stage + 1:
        raise StagedOrderError(f"stages must be applied in order; expected {order.current.stage + 1}")
    n = order.domain_size
    gone = []
    new_witnesses = list(witnesses.witnesses)
    for i in range(min(s, pred.bound - 1) + 1):
        x = new_witnesses[i]
        d = pred.defeat_stage(i, x)
        if d is not None and d <= s:
            b = sigma2_encode(Sigma2B(x))
            if b < n:
                for k in range(i + 1):
                    a = sigma2_encode(Sigma2A(i, k))
                    if a < n:
                        gone.append((b, a))
            new_witnesses[i] = x + 1
    order.remove_pairs(gone)
    return order, WitnessTable(tuple(new_witnesses))


def build_run(
    pred: SyntheticSigma2Predicate, domain_bound: int, stages: int
) -> Tuple[StagedOrder, WitnessTable]:
    initial = build_initial(domain_bound, pred)
    order = StagedOrder(Kind.COCE, initial)
    witnesses = WitnessTable.initial(pred.bound)
    for s in range(1, stages + 1):
        order, witnesses = run_stage(order, witnesses, pred, s)
    return order, witnesses


def identify_regions(
    snapshot: Snapshot, consts: Sigma2Consts = DEFAULT_CONSTS
) -> Tuple[frozenset, frozenset, frozenset]:
    """Split the domain by the constants: B below b, A below a but not b,
    C below c but neither a nor b."""
    m = snapshot.matrix
    n = snapshot.domain_size
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

    Search: distinct A-elements x_0..x_i, x_0 below the f-image, x_i
    below the l-image, with some C-element above each consecutive pair.
    The scaffold makes the row of index i the only solution.
    """
    if i < 0:
        raise NotFound("row index must be a natural")
    m = snapshot.matrix
    a_set, _, c_set = identify_regions(snapshot, consts)
    a_elems = sorted(a_set)
    c_elems = sorted(c_set)
    if not a_elems:
        raise NotFound(f"no A-elements in a domain of {snapshot.domain_size}")
    above = m[np.ix_(a_elems, c_elems)] if c_elems else np.zeros((len(a_elems), 0), dtype=bool)
    index_of = {x: t for t, x in enumerate(a_elems)}
    starts = [x for x in a_elems if m[x, consts.f]]
    ends = {x for x in a_elems if m[x, consts.l]}

    def linked(x: int, y: int) -> bool:
        return bool((above[index_of[x]] & above[index_of[y]]).any())

    def extend(path: List[int]) -> Optional[List[int]]:
        if len(path) == i + 1:
            return path if path[-1] in ends else None
        for y in a_elems:
            if y not in path and linked(path[-1], y):
                found = extend(path + [y])
                if found is not None:
                    return found
        return None

    for x0 in starts:
        found = extend([x0])
        if found is not None:
            return tuple(found)
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
