"""The three workloads: their seeded inputs, the operations of one pass,
and the check that each operation's output is right.

A pass is the unit of timed work. CLI workloads replay a fixed list of
CLI commands; library-sweep runs a fixed list of small in-process
instances. Load is one closed-loop client: the next operation starts
only after the previous one has finished, so at most one CLI child is
alive at any time.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

import checks
import inputs
from checks import Failure

# Result of one operation as the client sees it: exit code (None when it
# died with a traceback), standard output and standard error.
Outcome = Tuple[Optional[int], str, str]


class CliOp(NamedTuple):
    stage: str  # build | verify | decode | solve | export
    argv: Tuple[str, ...]  # "{final}" stands for the run's last snapshot
    run_dir: Optional[str]
    check: Callable[[str, str], Optional[Failure]]  # (stdout, final path)


def final_snapshot(run_dir: str) -> str:
    names = sorted(n for n in os.listdir(run_dir) if n.startswith("snapshot_"))
    return os.path.join(run_dir, names[-1]) if names else ""


def bits_of(members, i: int) -> List[int]:
    return [1 if e in members else 0 for e in range(i)]


def vertex_edges(pairs) -> List[List[int]]:
    """Vertex a_i is coded as element 4 + 2i."""
    return sorted(sorted(((x - 4) // 2, (y - 4) // 2)) for x, y in pairs)


# ---- checks on CLI output -------------------------------------------------


def expect_manifest(construction: str, run_dir: str):
    def check(out: str, final: str) -> Optional[Failure]:
        manifest = json.loads(out)
        files = [n for n in os.listdir(run_dir) if n.startswith("snapshot_")]
        if manifest.get("construction") != construction:
            return Failure(f"manifest names {manifest.get('construction')}")
        if manifest.get("snapshot_count") != len(files):
            return Failure("manifest snapshot_count disagrees with the files")
        return None

    return check


def expect_pass(out: str, final: str) -> Optional[Failure]:
    lines = out.strip().splitlines()
    return None if lines and lines[-1] == "PASS" else Failure("verify did not PASS")


def expect_json(key: str, want):
    def check(out: str, final: str) -> Optional[Failure]:
        got = json.loads(out).get(key)
        return None if got == want else Failure(f"{key} {got} != {want}")

    return check


def expect_prefix(members):
    def check(out: str, final: str) -> Optional[Failure]:
        obj = json.loads(out)
        i = obj.get("i", -1)
        if i < 0 or obj.get("bits") != bits_of(members, i):
            return Failure(f"prefix {obj.get('bits')} is not K restricted to {i}")
        return None

    return check


def expect_solution(principle: str, path: Optional[str] = None):
    def check(out: str, final: str) -> Optional[Failure]:
        matrix = checks.read_matrix(path or final)
        return checks.check_solution(json.loads(out), principle, matrix)

    return check


def expect_reduction(path: Optional[str] = None):
    def check(out: str, final: str) -> Optional[Failure]:
        return checks.check_reduction(out, checks.read_matrix(path or final))

    return check


def judge(outcome: Outcome, op: CliOp, final: str) -> Optional[Failure]:
    code, out, err = outcome
    if code is None or "Traceback" in err:
        return Failure(f"traceback: {err.strip().splitlines()[-1:]}")
    if code != 0:
        return Failure(f"exit {code}: {err.strip()[:200]}")
    try:
        return op.check(out, final)
    except (ValueError, KeyError, TypeError) as exc:
        return Failure(f"unreadable output: {exc}")


# ---- CLI workloads --------------------------------------------------------


class CliWorkload:
    """Builds runs with the CLI and reads them back with every command."""

    name = ""

    def __init__(self, work: str):
        self.inputs = os.path.join(work, "inputs")
        self.runs = os.path.join(work, "runs")

    def clear_runs(self) -> None:
        shutil.rmtree(self.runs, ignore_errors=True)
        os.makedirs(self.runs)

    def disk_bytes(self) -> int:
        total = 0
        for dirpath, _, names in os.walk(self.runs):
            total += sum(os.stat(os.path.join(dirpath, n)).st_size for n in names)
        return total

    def path(self, name: str) -> str:
        return os.path.join(self.inputs, name)

    def setup(self, seed: int) -> List[CliOp]:
        shutil.rmtree(self.inputs, ignore_errors=True)
        os.makedirs(self.inputs)
        return self.make_inputs(seed)

    def make_inputs(self, seed: int) -> List[CliOp]:
        raise NotImplementedError

    def pipeline(
        self,
        construction: str,
        config: dict,
        suites: Sequence[str],
        decode_check,
        perm: Optional[str] = None,
        perm_check=None,
    ) -> List[CliOp]:
        """build, verify per suite, decode the last snapshot (also through
        a permutation when given), solve cac, export the reduction."""
        cfg = self.path(f"{construction}.json")
        inputs.write_json(cfg, config)
        run = os.path.join(self.runs, construction)
        ops = [CliOp("build", ("build", "--config", cfg, "--out", run), run,
                     expect_manifest(construction, run))]
        if construction == "family":
            return ops + [CliOp("verify", ("verify", "--dir", run, "--suite", "isomorphism"),
                                run, expect_pass)]
        ops += [CliOp("verify", ("verify", "--dir", run, "--suite", s), run, expect_pass)
                for s in suites]
        decode = ("decode", "--snapshot", "{final}", "--construction", construction)
        ops.append(CliOp("decode", decode, run, decode_check))
        if perm is not None:
            ops.append(CliOp("decode", decode + ("--perm", perm), run, perm_check))
        ops.append(CliOp("solve", ("solve", "--order", "{final}", "--principle", "cac"),
                         run, expect_solution("cac")))
        ops.append(CliOp("export", ("export-dot", "--snapshot", "{final}", "--reduction"),
                         run, expect_reduction()))
        return ops


class CliDenseRuns(CliWorkload):
    """Every snapshot stores its full closed pair list and every verify
    reloads the whole run: serialisation dominates, writes beside
    repeated reads."""

    name = "cli-dense-runs"
    JUMP_N = 96
    JUMP_ENTRIES = 16
    SIGMA2_INDICES = 10

    def make_inputs(self, seed: int) -> List[CliOp]:
        rng = random.Random(seed)
        ops: List[CliOp] = []
        jump_suites = ("poset", "monotone", "decode", "witness")
        for construction in ("jump-cochain", "jump-antichain"):
            cfg = inputs.jump_config(rng, construction, self.JUMP_N, self.JUMP_ENTRIES)
            members = {e for e, _ in cfg["entries"]}
            ops += self.pipeline(construction, cfg, jump_suites, expect_prefix(members))
        cfg = inputs.sigma2_config(rng, self.SIGMA2_INDICES)
        truth = [1 if entry["member"] else 0 for entry in cfg["indices"]]
        ops += self.pipeline("sigma2", cfg, ("poset", "monotone", "decode"),
                             expect_json("membership", truth))
        ops += self.pipeline("family", inputs.FAMILY_CONFIG, (), None)
        return ops


class CliWideOrders(CliWorkload):
    """Small files over large domains: the uint8 composition in the kernel
    and the solvers dominate, serialisation does little."""

    name = "cli-wide-orders"
    VERTICES = 7
    DOMAIN = inputs.spectrum_domain(VERTICES)  # 564, 22 stages on every seed
    ORDER_N = 768  # above 256, where the uint8 product can wrap
    POSET_P = 0.05
    PREORDER_CLASSES = 24  # few classes, so the largest one meets ceil(sqrt(n))

    def make_inputs(self, seed: int) -> List[CliOp]:
        rng = random.Random(seed)
        gen = np.random.default_rng(seed)
        edges, flips = inputs.limit_graph(rng, self.VERTICES)
        want = sorted(edges)
        perm = self.path("perm.json")
        inputs.write_json(perm, gen.permutation(self.DOMAIN).tolist())
        ops: List[CliOp] = []
        for construction in ("spectrum-ce", "spectrum-coce"):
            cfg = inputs.spectrum_config(construction, self.VERTICES, edges, flips)
            ops += self.pipeline(construction, cfg, ("poset", "monotone", "decode"),
                                 expect_json("edges", want), perm,
                                 expect_json("edges", want))
        orders = {
            "poset": inputs.random_poset(gen, self.ORDER_N, self.POSET_P),
            "linear": inputs.random_linear_order(gen, self.ORDER_N),
            "preorder": inputs.random_total_preorder(gen, self.ORDER_N,
                                                     self.PREORDER_CLASSES),
        }
        for name, matrix in orders.items():
            inputs.write_json(self.path(f"{name}.json"), inputs.snapshot_obj(matrix))
        for name, principle in (("poset", "cac"), ("linear", "ads"),
                                ("preorder", "ads-preorder")):
            path = self.path(f"{name}.json")
            ops.append(CliOp("solve", ("solve", "--order", path, "--principle", principle),
                             None, expect_solution(principle, path)))
        poset = self.path("poset.json")
        ops.append(CliOp("export", ("export-dot", "--snapshot", poset, "--reduction"),
                         None, expect_reduction(poset)))
        return ops


# ---- library-sweep --------------------------------------------------------


class Instance(NamedTuple):
    kind: str
    config: dict
    perm_seed: int
    truth: object


class LibraryResult(NamedTuple):
    phases: Dict[str, float]  # stage -> seconds
    failure: Optional[Failure]


class LibrarySweep:
    """Small instances of all six constructions, built and read back
    in-process: Python construction loops, role coding and decoders."""

    name = "library-sweep"
    # (construction, size, every): a pass runs ROUNDS rounds, and a shape
    # joins every `every`-th round. Six-vertex spectrum instances cost
    # 50-200 ms each, ten times a five-vertex one, so they come less often
    # lest they fill the pass on their own.
    SHAPES = (
        ("spectrum-ce", 3, 1), ("spectrum-coce", 3, 1), ("spectrum-ce", 4, 1),
        ("spectrum-coce", 4, 1), ("spectrum-ce", 5, 1), ("spectrum-coce", 5, 1),
        ("spectrum-ce", 6, 4), ("spectrum-coce", 6, 4),
        ("sigma2", 3, 1), ("sigma2", 5, 1), ("sigma2", 7, 1),
        ("jump-cochain", 24, 1), ("jump-cochain", 40, 1),
        ("jump-antichain", 24, 1), ("jump-antichain", 40, 1),
        ("family", 4, 1), ("family", 5, 1), ("family", 6, 1),
    )
    ROUNDS = 20
    WARM_UP = 36  # instances run during set-up, before anything is timed

    def __init__(self, work: str):
        from staged_orders import family, jump, kernel, sigma2, solvers, spectrum

        self.family, self.jump, self.kernel = family, jump, kernel
        self.sigma2, self.solvers, self.spectrum = sigma2, solvers, spectrum

    def setup(self, seed: int) -> List[Instance]:
        rng = random.Random(seed)
        instances = []
        for round_no in range(self.ROUNDS):
            for kind, size, every in self.SHAPES:
                if round_no % every == 0:
                    instances.append(self.make_instance(rng, kind, size))
        for inst in instances[: self.WARM_UP]:
            self.run(inst)
        return instances

    @staticmethod
    def make_instance(rng: random.Random, kind: str, size: int) -> Instance:
        if kind.startswith("spectrum"):
            edges, flips = inputs.limit_graph(rng, size)
            cfg = inputs.spectrum_config(kind, size, edges, flips)
            return Instance(kind, cfg, rng.randrange(2**31), sorted(edges))
        if kind == "sigma2":
            cfg = inputs.sigma2_config(rng, size)
            truth = [bool(entry["member"]) for entry in cfg["indices"]]
            return Instance(kind, cfg, 0, truth)
        if kind.startswith("jump"):
            cfg = inputs.jump_config(rng, kind, size, size // 8)
            return Instance(kind, cfg, 0, {e for e, _ in cfg["entries"]})
        return Instance(kind, family_config(rng, size), 0, True)

    def run(self, inst: Instance) -> LibraryResult:
        """Build and read back one instance; only program calls are timed."""
        phases: Dict[str, float] = {}
        try:
            runner = getattr(self, "run_" + inst.kind.split("-")[0])
            failure = runner(inst, phases)
        except Exception as exc:  # an operation that raises is a failed operation
            failure = Failure(f"{type(exc).__name__}: {exc}")
        return LibraryResult(phases, failure)

    def run_spectrum(self, inst: Instance, phases) -> Optional[Failure]:
        sp, kernel = self.spectrum, self.kernel
        kind = kernel.Kind.CE if inst.kind == "spectrum-ce" else kernel.Kind.COCE
        t0 = time.perf_counter()
        graph = sp.graph_from_config(inst.config)
        domain = inst.config["domain_bound"]
        order = sp.build_spectrum_run(kind, graph, domain, sp.required_stages(graph, domain))
        final = order.current
        t1 = time.perf_counter()
        plain = sp.decode_graph(final, kind)
        via_comparability = sp.decode_from_comparability(sp.comparability_graph(final), kind)
        t2 = time.perf_counter()
        perm = list(range(domain))
        random.Random(inst.perm_seed).shuffle(perm)
        consts = sp.SpectrumConsts(*(perm[c] for c in sp.DEFAULT_SPECTRUM_CONSTS))
        t3 = time.perf_counter()
        relabeled = sp.decode_graph(kernel.apply_permutation(final, perm), kind, consts)
        t4 = time.perf_counter()
        phases["build"] = t1 - t0
        phases["decode"] = (t2 - t1) + (t4 - t3)
        inverse = {p: x for x, p in enumerate(perm)}
        readouts = {
            "order": vertex_edges(plain),
            "comparability": vertex_edges(via_comparability),
            "relabeled": vertex_edges((inverse[x], inverse[y]) for x, y in relabeled),
        }
        for name, got in readouts.items():
            if got != inst.truth:
                return Failure(f"{name} readout {got} != {inst.truth}")
        return None

    def run_sigma2(self, inst: Instance, phases) -> Optional[Failure]:
        s2 = self.sigma2
        t0 = time.perf_counter()
        pred = s2.predicate_from_config(inst.config)
        domain = s2.required_domain_bound(pred)
        order, _ = s2.build_run(pred, domain, s2.stabilization_stage(pred, domain))
        t1 = time.perf_counter()
        got = [s2.membership_query(order.current, s2.DEFAULT_CONSTS, i)
               for i in range(pred.bound)]
        t2 = time.perf_counter()
        phases["build"] = t1 - t0
        phases["decode"] = t2 - t1
        return None if got == inst.truth else Failure(f"membership {got} != {inst.truth}")

    def run_jump(self, inst: Instance, phases) -> Optional[Failure]:
        jp, solvers = self.jump, self.solvers
        n, stages = inst.config["n"], inst.config["stages"]
        cochain = inst.kind == "jump-cochain"
        t0 = time.perf_counter()
        sched = jp.schedule_from_config(inst.config)
        build = jp.build_cochain_order if cochain else jp.build_antichain_order
        final = build(sched, n, stages).current
        t1 = time.perf_counter()
        if cochain:
            probe = solvers.longest_chain(final)
            bits = jp.decode_chain(final, probe, sched, len(probe) - 2)
        else:
            probe = jp.greedy_antichain(final)
            bits = jp.decode_antichain(final, probe, sched, len(probe) - 2)
        t2 = time.perf_counter()
        if cochain:
            report = jp.no_infinite_antichain_witness(final, sched)
        else:
            report = jp.finite_chain_witness(final, sched, stages)
        t3 = time.perf_counter()
        phases["build"] = t1 - t0
        phases["decode"] = t2 - t1
        phases["verify"] = t3 - t2
        want = bits_of(inst.truth, len(probe) - 2)
        if list(bits) != want:
            return Failure(f"prefix {list(bits)} != {want}")
        return None if report.passed else Failure(f"witness failed: {report.failures[:3]}")

    def run_family(self, inst: Instance, phases) -> Optional[Failure]:
        fm = self.family
        t0 = time.perf_counter()
        pre = fm.preorder_from_config(inst.config)
        fam = fm.build_family(pre, fm.sufficient_stages(pre))
        t1 = time.perf_counter()
        report = fm.verify_isomorphism(pre, fam)
        t2 = time.perf_counter()
        phases["build"] = t1 - t0
        phases["verify"] = t2 - t1
        return None if report.passed else Failure(f"isomorphism fails at {report.mismatches[:3]}")


def family_config(rng: random.Random, n: int, p: float = 0.4, horizon: int = 8) -> dict:
    """A shrinking preorder: a random closed limit plus one removal stage
    for every pair outside it."""
    limit = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                limit[i, j] = True
    for k in range(n):
        limit |= np.outer(limit[:, k], limit[k, :])
    pairs = [[i, j] for i in range(n) for j in range(n) if i != j and limit[i, j]]
    removals = [[i, j, rng.randint(0, horizon)]
                for i in range(n) for j in range(n) if i != j and not limit[i, j]]
    return {"n": n, "limit_pairs": pairs, "removals": removals}


WORKLOADS = {w.name: w for w in (CliDenseRuns, CliWideOrders, LibrarySweep)}
