"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with -s (or read the -v test lines) to see the per-criterion report.
Budgets are deliberately above the floor the package promises, never below.
"""

import itertools
import os
import random
import time

from staged_orders import family, jump, sigma2, spectrum
from staged_orders.kernel import (
    Kind,
    Snapshot,
    StagedOrder,
    StagedOrderError,
    apply_permutation,
    check_monotone,
    check_partial_order,
)
from staged_orders.roles import spectrum_vertex_code
from staged_orders.serialize import load_run
from staged_orders.solvers import ceil_sqrt, longest_chain, solve_ads, solve_cac
from staged_orders.spectrum import (
    DEFAULT_SPECTRUM_CONSTS,
    LimitGraph,
    SpectrumConsts,
    build_spectrum_run,
    comparability_graph,
    decode_from_comparability,
    decode_graph,
    required_domain_bound,
    required_stages,
)

import numpy as np

from _generators import (
    random_coce_preorder_config,
    random_limit_graph_config,
    random_linear_order,
    random_permutation,
    random_poset,
    random_schedule_config,
    random_sigma2_config,
)
from _oracles import (
    antichain_valid,
    chain_valid,
    fw_close,
    lds_length,
    lis_length,
    sequence_valid,
)
from conftest import SHIPPED, build_run as cli_build_run


def _report(label, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}: {label}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_01_poset_axioms_hold_on_every_shipped_snapshot(shipped_runs):
    histories = {name: load_run(run_dir) for name, run_dir in shipped_runs.items()}
    t0 = time.perf_counter()
    checked = 0
    bad = []
    for name, (_, _, snapshots, _) in histories.items():
        for snap in snapshots:
            checked += 1
            report = check_partial_order(snap)
            if not report.passed:
                bad.append((name, snap.stage))
    elapsed = time.perf_counter() - t0
    _report(
        "poset axioms on all shipped snapshots",
        not bad and elapsed < 10.0,
        f"{checked} snapshots, {elapsed:.2f}s" + (f", failures {bad}" if bad else ""),
    )


def test_02_shipped_histories_move_one_way_only(shipped_runs):
    violations = []
    covered = 0
    for name, run_dir in shipped_runs.items():
        _, _, snapshots, kind = load_run(run_dir)
        if not snapshots:
            continue  # family runs carry set rows, not order snapshots
        covered += 1
        report = check_monotone(snapshots, kind)
        if not report.passed:
            violations.append((name, report.failures[:3]))
    _report(
        "histories monotone for their kind",
        covered >= 5 and not violations,
        f"{covered} snapshot histories, violations {violations or 'none'}",
    )


def test_03_incremental_closure_matches_floyd_warshall():
    rng = random.Random(207)
    sequences = 0
    for _ in range(120):  # growing side
        n = rng.randrange(2, 41)
        order = StagedOrder(Kind.CE, Snapshot.from_pairs(n, []))
        base = set()
        for _ in range(8):
            batch = [
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randrange(1, 4))
            ]
            try:
                order.add_pairs(batch)
            except StagedOrderError:
                continue  # rejected batches must leave the closure untouched
            base.update(batch)
            assert order.current.pairs == fw_close(base, n)
        assert order.current.pairs == fw_close(base, n)
        sequences += 1
    for _ in range(100):  # shrinking side: stays a Floyd-Warshall fixed point
        n = rng.randrange(2, 41)
        lin = random_linear_order(rng, n)
        order = StagedOrder(Kind.COCE, lin)
        for _ in range(8):
            batch = [
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randrange(1, 4))
            ]
            before = order.current.pairs
            try:
                order.remove_pairs([(i, j) for i, j in batch if i != j])
            except StagedOrderError:
                assert order.current.pairs == before
                continue
            assert order.current.pairs == before - {
                (i, j) for i, j in batch if i != j
            }
            assert order.current.pairs == fw_close(order.current.pairs, n)
        sequences += 1
    _report(
        "incremental closure equals Floyd-Warshall",
        sequences >= 200,
        f"{sequences} mutation sequences, n up to 40",
    )


def test_04_synthetic_sigma2_membership_reads_back_exactly():
    rng = random.Random(311)
    checked = 0
    for _ in range(24):
        pred = sigma2.predicate_from_config(
            random_sigma2_config(rng, rng.randrange(1, 9))
        )
        bound = sigma2.required_domain_bound(pred)
        stab = sigma2.stabilization_stage(pred, bound)
        assert stab <= 50, f"stabilization {stab} blew the budget"
        order, _ = sigma2.build_run(pred, bound, stab + 3)
        want = pred.membership()
        for snap in tuple(order.history)[stab:]:
            got = tuple(
                sigma2.membership_query(snap, sigma2.DEFAULT_CONSTS, i)
                for i in range(pred.bound)
            )
            assert got == want, (snap.stage, got, want)
        checked += 1
    _report(
        "membership exact at every post-stabilization stage",
        checked >= 20,
        f"{checked} random index sets, up to 8 indices each",
    )


def test_05_family_inclusion_mirrors_the_limit_preorder():
    rng = random.Random(405)
    checked = 0
    for _ in range(24):
        cfg = random_coce_preorder_config(rng, 11, p=rng.choice([0.2, 0.4, 0.7]))
        pre = family.preorder_from_config(cfg)
        fam = family.build_family(pre, family.sufficient_stages(pre))
        report = family.verify_isomorphism(pre, fam)
        assert report.passed, (cfg, report.mismatches)
        checked += 1
    _report(
        "set inclusion mirrors the limit preorder on {0..10}",
        checked >= 20,
        f"{checked} random shrinking preorders",
    )


def _exhaustive_chains(snap, cap_len):
    n = snap.domain_size
    out = []

    def extend(chain):
        if len(chain) >= 2:
            out.append(tuple(chain))
        if len(chain) == cap_len:
            return
        for x in range(chain[-1] + 1 if chain else 0, n):
            if not chain or snap.holds(chain[-1], x):
                chain.append(x)
                extend(chain)
                chain.pop()

    extend([])
    return out


def _walked_chains(rng, snap, want, max_len):
    n = snap.domain_size
    chains = set()
    starts = list(range(n))
    rng.shuffle(starts)
    for s0 in starts:
        if len(chains) >= want:
            break
        for _ in range(4):
            cur = [s0]
            while len(cur) < max_len:
                nxt = [x for x in range(cur[-1] + 1, n) if snap.holds(cur[-1], x)]
                if not nxt:
                    break
                cur.append(rng.choice(nxt))
                chains.add(tuple(cur))
    return chains


def _antichains(rng, snap, exhaustive):
    n = snap.domain_size
    found = set()
    if exhaustive:
        for size in (2, 3):
            for combo in itertools.combinations(range(n), size):
                if all(
                    not snap.holds(x, y) and not snap.holds(y, x)
                    for x, y in itertools.combinations(combo, 2)
                ):
                    found.add(combo)
    else:
        for _ in range(150):
            size = rng.choice((2, 3, 4))
            combo = tuple(sorted(rng.sample(range(n), size)))
            if all(
                not snap.holds(x, y) and not snap.holds(y, x)
                for x, y in itertools.combinations(combo, 2)
            ):
                found.add(combo)
    return found


def test_06_jump_prefixes_decode_from_chains_and_antichains():
    rng = random.Random(619)
    schedules = 0
    chains_checked = 0
    antichains_checked = 0
    for trial in range(22):
        small = trial < 12
        n = rng.randrange(5, 13) if small else rng.randrange(20, 61)
        stages = rng.randrange(2, 20) if small else rng.randrange(10, 50)
        sched = jump.schedule_from_config(random_schedule_config(rng, n, 8, stages))
        co = jump.build_cochain_order(sched, n, stages)
        ce = jump.build_antichain_order(sched, n, stages)
        co_snap, ce_snap = co.current, ce.current

        chains = (
            set(_exhaustive_chains(co_snap, 5))
            if small
            else _walked_chains(rng, co_snap, 250, 6)
        )
        top = longest_chain(co_snap)
        if len(top) >= 2:
            chains.add(tuple(top))
        for chain in chains:
            for i in range(len(chain) - 1):
                got = jump.decode_chain(co_snap, chain, sched, i)
                assert got == sched.prefix(stages, i), (chain, i)
            chains_checked += 1

        acs = _antichains(rng, ce_snap, exhaustive=small)
        greedy = jump.greedy_antichain(ce_snap)
        if len(greedy) >= 2:
            acs.add(tuple(sorted(greedy)))
        for ac in acs:
            for i in range(len(ac) - 1):
                got = jump.decode_antichain(ce_snap, ac, sched, i)
                assert got == sched.prefix(stages, i), (ac, i)
            antichains_checked += 1

        assert jump.no_infinite_antichain_witness(co.current, sched).passed
        assert jump.finite_chain_witness(ce.current, sched, stages).passed
        schedules += 1
    _report(
        "chains/antichains decode enumeration prefixes, witnesses hold",
        schedules >= 20 and chains_checked > 500 and antichains_checked > 100,
        f"{schedules} schedules, {chains_checked} chains, "
        f"{antichains_checked} antichains",
    )


def _graph_from_config(cfg):
    return LimitGraph(
        cfg["n"],
        [tuple(e) for e in cfg["edges"]],
        {
            tuple(int(t) for t in key.split(",")): tuple(val)
            for key, val in cfg["flips"].items()
        },
    )


def _spectrum_case(rng, g, perms_per_instance):
    """Build both codings, decode exactly, re-decode under permutations.

    decode_graph raising on a missing or duplicated mark is what enforces
    the exactly-one-distinguished-gadget invariant for every vertex pair,
    so a clean decode doubles as that check.
    """
    dom = required_domain_bound(g)
    stages = required_stages(g, dom)
    want = frozenset((spectrum_vertex_code(i), spectrum_vertex_code(j)) for i, j in g.edges)
    for kind in (Kind.CE, Kind.COCE):
        snap = build_spectrum_run(kind, g, dom, stages).current
        base = decode_graph(snap, kind)
        assert base == want, (kind, base, want)
        for _ in range(perms_per_instance):
            perm = random_permutation(rng, dom)
            moved = apply_permutation(snap, perm)
            consts = SpectrumConsts(*(perm[c] for c in DEFAULT_SPECTRUM_CONSTS))
            got = decode_graph(moved, kind, consts)
            assert got == frozenset(
                tuple(sorted((perm[x], perm[y]))) for x, y in base
            )


def test_07_spectrum_codings_round_trip_all_small_graphs():
    rng = random.Random(713)
    instances = 0
    for n in range(6):  # exhaustive through 5 vertices
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[t] for t in range(len(pairs)) if mask >> t & 1]
            flips = {
                p: tuple(sorted(rng.sample(range(1, 4), rng.randrange(1, 4))))
                for p in pairs
                if rng.random() < 0.5
            }
            _spectrum_case(rng, LimitGraph(n, edges, flips), 10)
            instances += 1
    for _ in range(40):  # sampled at 6 vertices
        g = _graph_from_config(random_limit_graph_config(rng, 6))
        _spectrum_case(rng, g, 10)
        instances += 1
    _report(
        "graph round trip, both codings, 10 relabelings each",
        instances == 1100 + 40,
        f"{instances} graphs (exhaustive through n=5, 40 sampled at n=6)",
    )


def test_08_comparability_alone_recovers_every_tiny_graph():
    rng = random.Random(808)
    instances = 0
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[t] for t in range(len(pairs)) if mask >> t & 1]
            flips = {
                p: (rng.randrange(1, 4),) for p in pairs if rng.random() < 0.5
            }
            g = LimitGraph(n, edges, flips)
            dom = required_domain_bound(g)
            stages = required_stages(g, dom)
            want = frozenset(
                (spectrum_vertex_code(i), spectrum_vertex_code(j)) for i, j in g.edges
            )
            for kind in (Kind.CE, Kind.COCE):
                snap = build_spectrum_run(kind, g, dom, stages).current
                comp = comparability_graph(snap)
                assert decode_from_comparability(comp, kind) == want
            instances += 1
    _report(
        "undirected comparability decodes every graph through n=4",
        instances == 76,
        f"{instances} graphs, both codings",
    )


def test_09_solver_outputs_validate_and_meet_the_sqrt_floor():
    rng = random.Random(911)
    ads_runs = 0
    for _ in range(520):
        n = rng.randrange(1, 65)
        lin = random_linear_order(rng, n)
        ranks = list(np.sum(lin.matrix, axis=0) - 1)
        sol = solve_ads(lin)
        assert sequence_valid(lin, sol.direction, sol.elements)
        assert len(sol.elements) == max(lis_length(ranks), lds_length(ranks))
        assert len(sol.elements) >= ceil_sqrt(n)
        ads_runs += 1
    cac_runs = 0
    for _ in range(520):
        n = rng.randrange(1, 40)
        poset = random_poset(rng, n, p=rng.choice([0.05, 0.2, 0.5, 0.9]))
        sol = solve_cac(poset)
        assert len(sol.elements) >= ceil_sqrt(n)
        if sol.kind == "chain":
            assert chain_valid(poset, sol.elements)
        else:
            assert sol.kind == "antichain"
            assert antichain_valid(poset, sol.elements)
        cac_runs += 1
    _report(
        "solver outputs validate with ceil(sqrt(n)) floors",
        ads_runs >= 500 and cac_runs >= 500,
        f"{ads_runs} linear orders, {cac_runs} posets",
    )


def test_10_rebuilding_any_shipped_config_is_byte_identical(
    shipped_runs, tmp_path
):
    mismatched = []
    for name in SHIPPED:
        again = str(tmp_path / name)
        cli_build_run(name, again)
        first = shipped_runs[name]
        names1 = sorted(os.listdir(first))
        if names1 != sorted(os.listdir(again)):
            mismatched.append((name, "file sets differ"))
            continue
        for fname in names1:
            with open(os.path.join(first, fname), "rb") as fh1:
                with open(os.path.join(again, fname), "rb") as fh2:
                    if fh1.read() != fh2.read():
                        mismatched.append((name, fname))
    _report(
        "shipped configs rebuild byte-identically",
        not mismatched,
        f"{len(SHIPPED)} configs" + (f", diffs {mismatched}" if mismatched else ""),
    )
