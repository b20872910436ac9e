#!/usr/bin/env python3
"""Benchmark of the staged-orders pipeline: build -> verify -> decode -> solve.

    python3 bench/run.py --workload cli-dense-runs --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds src/staged_orders. Inputs
come from --seed alone. With --trace 0 every CLI command runs in a child
process, timed from outside, and the last line of output is a JSON
object with the end-to-end metrics. With --trace 1 the same pass runs
in-process, alternately bare and with spans around every public
function of the package, and the JSON holds the per-layer metrics.
Every operation's output is checked; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BOOT = "import sys; from staged_orders.cli import main; sys.exit(main())"
SETUPS = 3  # set-up runs per run; setup_s is their median
IMPORT_SAMPLES = 5  # fresh interpreters timed for cli.import_s
OP_TIMEOUT = 150
CACHE_NOTE = ("note: inputs and runs are re-read right after they are written, so reads are "
              "likely served from the OS page cache; timings describe this machine's memory "
              "and CPU, not a storage device")

# Gated in BENCHMARK.json: present on every workload, never zero, and as
# steady from run to run as this machine allows.
END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
# Printed by name and unit where they apply, not gated. solve_s, export_s
# and disk_bytes are absent from library-sweep and error_rate is zero on
# two workloads. The stage sums rest on a few commands each on the CLI
# workloads, and the latency percentiles fall between commands of very
# different cost, so they spread up to 20 % between runs.
REPORTED = {
    "build_s": "s", "verify_s": "s", "decode_s": "s", "solve_s": "s", "export_s": "s",
    "op_p50_ms": "ms", "op_tail_ms": "ms", "disk_bytes": "B", "error_rate": "ratio",
}

SELF_TIMES = (
    "serialize.write_run", "serialize.snapshot_to_obj", "serialize.save_json",
    "serialize.load_run", "serialize.load_json", "serialize.snapshot_from_obj",
    "kernel.check_partial_order", "kernel.check_preorder", "kernel.transitive_reduction",
    "kernel.add_pairs", "kernel.remove_pairs", "kernel.close_matrix",
    "kernel.apply_permutation", "kernel.check_monotone", "kernel.Snapshot.pairs",
    "roles.spectrum_encode",
    "spectrum.build_spectrum_run", "spectrum.required_stages", "spectrum.decode_graph",
    "spectrum.comparability_graph", "spectrum.decode_from_comparability",
    "sigma2.build_run", "sigma2.stabilization_stage", "sigma2.membership_query",
    "jump.build_cochain_order", "jump.build_antichain_order", "jump.decode_chain",
    "jump.decode_antichain", "jump.greedy_antichain", "jump.no_infinite_antichain_witness",
    "jump.finite_chain_witness",
    "family.build_family", "family.verify_isomorphism",
    "solvers.solve_cac", "solvers.solve_ads", "solvers.solve_ads_preorder",
    "solvers.longest_chain", "solvers.condense",
)
CALLS = ("kernel.check_partial_order", "kernel.add_pairs", "kernel.remove_pairs",
         "roles.spectrum_encode", "roles.sigma2_encode", "roles.sigma2_decode",
         "family.speedup")
LAYERS = ("cli", "serialize", "kernel", "roles", "spectrum", "sigma2", "jump", "family",
          "solvers")


def per_layer_units() -> Dict[str, str]:
    units = {"cli.import_s": "s", "cli.commands": "count"}
    units.update({f"{name}.self_s": "s" for name in SELF_TIMES})
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({
        "serialize.bytes_written": "B", "serialize.pairs_written": "count",
        "serialize.bytes_read": "B", "serialize.pairs_read": "count",
        "serialize.snapshot_loads_per_snapshot": "ratio",
        "kernel.check_partial_order.repeat_ratio": "ratio",
        "kernel.compose_ops": "computed_ops",
        "kernel.add_pairs.pairs": "count", "kernel.remove_pairs.pairs": "count",
        "kernel.delta_share": "ratio",
        "roles.spectrum_encode.calls_per_distinct": "ratio",
    })
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_s": "s", "trace.spans": "count"})
    return units


class PassResult(NamedTuple):
    wall: float  # sum of operation latencies
    stage_s: Dict[str, float]
    latencies: List[float]
    failures: list  # (operation label, Failure)
    disk_bytes: int


# ---- executing operations ------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env):
    """One CLI command in a fresh interpreter; the closed loop waits for it."""
    try:
        proc = subprocess.run([sys.executable, "-c", BOOT, *argv], capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, "", f"Traceback: timed out after {OP_TIMEOUT} s"
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(argv):
    """One CLI command through the click entry point, in this process."""
    from staged_orders.cli import main

    out, err = io.StringIO(), io.StringIO()
    code: Optional[int] = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=list(argv), prog_name="staged-orders")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a traceback is a failed operation, not a crash of the run
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def cli_pass(workload, ops, execute, tracer=None) -> PassResult:
    from workloads import final_snapshot, judge

    workload.clear_runs()
    stage_s: Dict[str, float] = defaultdict(float)
    latencies, failures = [], []
    for op_id, op in enumerate(ops):
        final = ""
        if "{final}" in op.argv and os.path.isdir(op.run_dir):
            final = final_snapshot(op.run_dir)
        argv = tuple(final if a == "{final}" else a for a in op.argv)
        t0 = time.perf_counter()
        if tracer is None:
            outcome = execute(argv)
        else:
            outcome = tracer.root(op_id, f"cli.{argv[0]}", execute, argv)
        elapsed = time.perf_counter() - t0
        stage_s[op.stage] += elapsed
        latencies.append(elapsed)
        failure = judge(outcome, op, final)
        if failure is not None:
            failures.append((" ".join(argv[:2]), failure))
    return PassResult(sum(latencies), stage_s, latencies, failures, workload.disk_bytes())


def library_pass(workload, instances, tracer=None) -> PassResult:
    stage_s: Dict[str, float] = defaultdict(float)
    latencies, failures = [], []
    for op_id, inst in enumerate(instances):
        if tracer is None:
            result = workload.run(inst)
        else:
            result = tracer.root(op_id, f"sweep.{inst.kind}", workload.run, inst)
        for stage, seconds in result.phases.items():
            stage_s[stage] += seconds
        latencies.append(sum(result.phases.values()))
        if result.failure is not None:
            failures.append((f"{inst.kind} #{op_id}", result.failure))
    return PassResult(sum(latencies), stage_s, latencies, failures, 0)


def pass_runner(workload, plan, execute):
    """One pass of the workload; `execute` runs a CLI command (None for
    the in-process library workload)."""
    if execute is None:
        return functools.partial(library_pass, workload, plan)
    return functools.partial(cli_pass, workload, plan, execute)


# ---- the two kinds of run -------------------------------------------------


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile with at least ten operations of one pass
    beyond it; fixed per workload, so it does not move with the number of
    passes that fit in a run."""
    return max(50, int(100 * (1 - 10 / ops_per_pass)))


def fits(start: float, passes: List[PassResult], seconds: float) -> bool:
    """Start another pass only if it should end inside the run length."""
    return time.perf_counter() - start + max(p.wall for p in passes) <= seconds


def timed_run(workload, seed: int, seconds: float, is_cli: bool):
    env = child_env()
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        plan = workload.setup(seed)
        if is_cli:
            run_child(("--help",), env)  # warm-up: byte-compile and page in the package
        setups.append(time.perf_counter() - t0)
    do_pass = pass_runner(workload, plan, (lambda argv: run_child(argv, env)) if is_cli else None)
    passes: List[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(do_pass())
        if not fits(start, passes, seconds):
            break
    latencies = [t for p in passes for t in p.latencies]
    pct = tail_percentile(len(plan))
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    median = statistics.median
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(p.wall for p in passes),
        "ops_per_s": len(latencies) / sum(p.wall for p in passes),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    failures = [f for p in passes for f in p.failures]
    reported = {
        "build_s": median(p.stage_s["build"] for p in passes),
        "verify_s": median(p.stage_s["verify"] for p in passes),
        "decode_s": median(p.stage_s["decode"] for p in passes),
        "op_p50_ms": 1000 * median(latencies),
        "op_tail_ms": 1000 * statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1],
        "error_rate": len(failures) / len(latencies),
    }
    if is_cli:
        reported["solve_s"] = median(p.stage_s["solve"] for p in passes)
        reported["export_s"] = median(p.stage_s["export"] for p in passes)
        reported["disk_bytes"] = passes[-1].disk_bytes
    lines = [f"{name} {value:.6g} {END_TO_END[name]}" for name, value in metrics.items()]
    lines += [f"{name} {value:.6g} {REPORTED[name]}" for name, value in reported.items()]
    lines.append(f"op_tail_ms is p{pct} over {len(latencies)} operations in {len(passes)} "
                 f"passes of {len(plan)}; setup_s is the median of {SETUPS} set-ups")
    if is_cli:
        lines.append(CACHE_NOTE)
    return metrics, failures, len(latencies), lines


def fresh_import_seconds(env) -> float:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import staged_orders.cli"], env=env, cwd=ROOT,
                       check=True, timeout=OP_TIMEOUT)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def layer_metrics(tracer, commands: int) -> Dict[str, float]:
    calls, count, self_s = tracer.calls, tracer.count, tracer.self_s
    m: Dict[str, float] = {"cli.commands": commands}
    m.update({f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMES})
    m.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
    for key in ("serialize.bytes_written", "serialize.pairs_written", "serialize.bytes_read",
                "serialize.pairs_read", "kernel.compose_ops", "kernel.add_pairs.pairs",
                "kernel.remove_pairs.pairs"):
        m[key] = count.get(key, 0)
    loads = tracer.snapshot_loads
    m["serialize.snapshot_loads_per_snapshot"] = ratio(sum(loads.values()), len(loads))
    m["kernel.check_partial_order.repeat_ratio"] = ratio(
        calls.get("kernel.check_partial_order", 0), len(tracer.relations))
    m["kernel.delta_share"] = ratio(count.get("delta.changed", 0), count.get("delta.live", 0))
    m["roles.spectrum_encode.calls_per_distinct"] = ratio(
        calls.get("roles.spectrum_encode", 0), len(tracer.roles))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    m["trace.spans"] = len(tracer.spans)
    return m


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


TIMES = {name for name, unit in per_layer_units().items() if unit == "s"}


def traced_run(workload, seed: int, seconds: float, is_cli: bool, label: str):
    from tracing import Tracer

    env = child_env()
    plan = workload.setup(seed)
    import_s = fresh_import_seconds(env)
    do_pass = pass_runner(workload, plan, run_in_process if is_cli else None)
    bare: List[PassResult] = []
    traced: List[PassResult] = []
    layers: List[Dict[str, float]] = []
    start = time.perf_counter()
    while True:
        bare.append(do_pass())
        tracer = Tracer()
        with tracer.installed():
            traced.append(do_pass(tracer))
        layers.append(layer_metrics(tracer, len(plan) if is_cli else 0))
        if len(layers) == 1:
            tracer.write(os.path.join(OUT, f"spans-{label}.tsv.gz"))
        pair = bare[-1].wall + traced[-1].wall
        if time.perf_counter() - start + pair > seconds:
            break
    metrics = {}
    exact_repeats = True
    for name in layers[0]:
        values = [m[name] for m in layers]
        if name in TIMES:
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            exact_repeats &= all(v == values[0] for v in values)
    metrics["cli.import_s"] = import_s
    metrics["trace.wall_s"] = statistics.median(p.wall for p in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(p.wall for p in bare)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    failures = [f for p in bare + traced for f in p.failures]
    if not exact_repeats:
        from checks import Failure

        failures.append(("counters", Failure("exact counters differ between traced passes")))
    units = per_layer_units()
    wall = metrics["trace.wall_s"]
    lines = [f"{name} {metrics[name]:.6g} {units[name]}" for name in units]
    lines.append("layer shares of the traced pass (self time / trace.wall_s): " + ", ".join(
        f"{layer} {metrics[f'{layer}.self_s'] / wall:.1%}" for layer in LAYERS))
    lines.append(f"tracing overhead {metrics['trace.overhead_s']:.3f} s over "
                 f"{len(traced)} traced and {len(bare)} bare in-process passes; "
                 f"spans in .bench_out/spans-{label}.tsv.gz")
    ops = sum(len(p.latencies) for p in bare + traced)
    return {name: metrics[name] for name in units}, failures, ops, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "staged_orders", "cli.py")):
        print(f"bench: no program to measure: {SRC}/staged_orders is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, CliWorkload

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = os.path.join(OUT, f"work-{os.getpid()}")  # concurrent runs must not share it
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload = WORKLOADS[args.workload](work)
        is_cli = isinstance(workload, CliWorkload)
        if args.trace:
            label = f"{args.workload}-seed{args.seed}"
            metrics, failures, attempted, lines = traced_run(
                workload, args.seed, args.seconds, is_cli, label)
            units = per_layer_units()
        else:
            metrics, failures, attempted, lines = timed_run(
                workload, args.seed, args.seconds, is_cli)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for label, failure in failures:
        known = f" [known defect: {failure.known_defect}]" if failure.known_defect else ""
        lines.append(f"FAILED {label}: {failure.reason}{known}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("\n".join(lines))
    result = {
        # Failures the benchmark can pin exactly on a named defect are counted
        # in "failed" but do not make the output incorrect; any other does.
        "correct": all(f.known_defect for _, f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
