"""Command line front end: build runs, verify them, decode, solve, export.

All machine output is canonical JSON (sorted keys, no spaces, trailing
newline) so reruns can be compared byte for byte. Failures of the tool
itself are one JSON object on stderr and exit code 2; verification
verdicts use exit code 1.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

import click

if TYPE_CHECKING:
    from .kernel import Construction, Kind, Replay, Snapshot

# Every construction by name: the module and attribute of its
# kernel.Construction.
CONSTRUCTIONS = {
    "sigma2": ("sigma2", "SIGMA2"),
    "family": ("family", "FAMILY"),
    "jump-cochain": ("jump", "JUMP_COCHAIN"),
    "jump-antichain": ("jump", "JUMP_ANTICHAIN"),
    "spectrum-ce": ("spectrum", "SPECTRUM_CE"),
    "spectrum-coce": ("spectrum", "SPECTRUM_COCE"),
}
NAMES = tuple(CONSTRUCTIONS)

# What a command that does work loads, all at once, before it runs. Only the
# front end (--help, usage errors, shell completion) starts without numpy.
# Loading just the construction a command names would save about 20 ms of
# a 250 ms command, and a caller that runs commands in-process, such as
# bench/tracing.py, expects every module loaded once one command has run.
COMMAND_MODULES = ("kernel", "serialize", "solvers", *sorted({m for m, _ in CONSTRUCTIONS.values()}))


def _construction(name: str) -> Construction:
    """The named construction."""
    module, attr = CONSTRUCTIONS[name]
    return getattr(importlib.import_module(f".{module}", __package__), attr)


RESERVED_KEYS = ("construction", "stages", "domain_bound", "seed")


def _tool_errors(f):
    """Load COMMAND_MODULES, then run the command. Failures of the tool:
    one JSON object on stderr, exit code 2."""

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        for module in COMMAND_MODULES:
            importlib.import_module(f".{module}", __package__)
        from .kernel import StagedOrderError
        from .serialize import canonical_dumps

        try:
            return f(*args, **kwargs)
        except (StagedOrderError, OSError, ValueError, KeyError) as exc:
            sys.stderr.write(canonical_dumps({"error": type(exc).__name__, "message": str(exc)}))
            sys.exit(2)

    return wrapper


def _emit(obj) -> None:
    from .serialize import canonical_dumps

    click.echo(canonical_dumps(obj), nl=False)


class RunPlan:
    """Build inputs after merging the config file with the flags.

    The file may carry the reserved keys construction/stages/domain_bound/
    seed next to the payload, or keep the payload under a nested "config"
    key; explicit flags always win. The construction fills in the rest.
    """

    def __init__(self, blob: dict, construction, stages, domain, seed):
        from .kernel import ConfigError
        from .serialize import is_natural

        if not isinstance(blob, dict):
            raise ConfigError("config file must hold a JSON object")
        nested = blob.get("config")
        if isinstance(nested, dict):
            self.payload = dict(nested)
        else:
            self.payload = {k: v for k, v in blob.items() if k not in RESERVED_KEYS}
        self.construction = construction or blob.get("construction")
        if self.construction not in NAMES:
            raise ConfigError(f"construction must be one of {', '.join(NAMES)}")
        self.stages = stages if stages is not None else blob.get("stages")
        self.domain = domain if domain is not None else blob.get("domain_bound")
        self.seed = seed if seed is not None else blob.get("seed")
        for name, value in (("stages", self.stages), ("domain_bound", self.domain)):
            if value is not None and not is_natural(value):
                raise ConfigError(f"{name} must be a natural")
        if self.seed is not None and type(self.seed) is not int:
            raise ConfigError("seed must be an integer")

    def stages_or(self, need) -> int:
        """The stage budget, defaulting to need(), what the construction
        needs; need is called only when no budget is given."""
        if self.stages is None:
            self.stages = need()
        return self.stages

    def domain_or(self, default: int) -> int:
        """The domain bound, defaulting to what the construction needs,
        checked against the domain cap before anything is built on it."""
        from .kernel import _check_domain_size

        domain = self.domain if self.domain is not None else default
        _check_domain_size(domain)
        return domain

    def resolved(self) -> dict:
        """The config written beside the snapshots: payload plus run keys."""
        out = dict(self.payload, construction=self.construction, stages=self.stages)
        for key, value in (("domain_bound", self.domain), ("seed", self.seed)):
            if value is not None:
                out[key] = value
        return out


@click.group()
def main():
    """Stagewise order constructions: build, verify, decode, solve."""


@main.command()
@click.option("--construction", type=click.Choice(NAMES), default=None)
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--stages", type=int, default=None)
@click.option("--domain", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", required=True, type=click.Path())
@_tool_errors
def build(construction, config_path, stages, domain, seed, out_dir):
    """Run a construction and write snapshots plus a manifest."""
    from .serialize import load_json, write_run

    plan = RunPlan(load_json(config_path), construction, stages, domain, seed)
    con = _construction(plan.construction)
    history, family = con.build(plan)
    _emit(write_run(
        out_dir, con.name, plan.resolved(), con.kind, history, plan.stages,
        plan.seed, family,
    ))


class Run(NamedTuple):
    """A loaded run directory, as the verify suites read it: its stages
    are a replay, rebuilt one at a time by each walk over them."""

    dir: str
    manifest: dict
    config: dict
    snapshots: Replay
    kind: Kind

    @property
    def final(self) -> Snapshot:
        from .kernel import ConfigError

        if not self.snapshots:
            raise ConfigError("run has no snapshots to decode")
        return self.snapshots.last


def _suite_poset(run: Run) -> Tuple[List[str], bool]:
    from .kernel import check_partial_order

    lines, ok = [], True
    for snap in run.snapshots:
        failed = [c for c in check_partial_order(snap).checks() if not c.passed]
        ok = ok and not failed
        lines += [f"stage {snap.stage}: {c.axiom} fails at {c.witness}" for c in failed]
        if not failed:
            lines.append(f"stage {snap.stage}: ok")
    return lines, ok


def _suite_monotone(run: Run) -> Tuple[List[str], bool]:
    from .kernel import check_monotone

    report = check_monotone(run.snapshots, run.kind)
    lines = [
        f"stage {stage}: pair {pair} moved the wrong way"
        for stage, pair in report.failures
    ]
    lines.append(f"direction {run.kind.value} over {len(run.snapshots)} snapshots")
    return lines, report.passed


GENERIC_SUITES = {"poset": _suite_poset, "monotone": _suite_monotone}
MISFITS = {
    "decode": "no decode suite for construction {!r}",
    "isomorphism": "--suite isomorphism only applies to family runs",
    "witness": "--suite witness only applies to jump runs",
}


@main.command()
@click.option("--dir", "run_dir", required=True, type=click.Path())
@click.option(
    "--suite",
    required=True,
    type=click.Choice(("poset", "monotone", "decode", "isomorphism", "witness")),
)
@_tool_errors
def verify(run_dir, suite):
    """Check a built run; exit 0 on PASS, 1 on FAIL."""
    from .kernel import ConfigError
    from .serialize import load_run

    run = Run(run_dir, *load_run(run_dir))
    if suite in GENERIC_SUITES and not run.snapshots:
        lines, ok = ["no snapshots in run (set family); nothing to check"], True
    elif suite in GENERIC_SUITES:
        lines, ok = GENERIC_SUITES[suite](run)
    else:
        name = run.manifest.get("construction")
        known = isinstance(name, str) and name in CONSTRUCTIONS
        con = _construction(name) if known else None
        if con is None or suite not in con.suites:
            raise ConfigError(MISFITS[suite].format(name))
        lines, ok = getattr(con, suite)(run)
    click.echo("\n".join(lines + ["PASS" if ok else "FAIL"]))
    sys.exit(0 if ok else 1)


def _parse_consts(text: Optional[str], default: Tuple[int, ...], n: int) -> Tuple[int, ...]:
    """The --consts values, or the defaults; either way distinct elements
    of 0..n-1, one per role."""
    from .kernel import ConfigError

    if text is None:
        if not all(0 <= value < n for value in default):
            raise ConfigError(
                f"default constants {list(default)} are not all elements of 0..{n - 1}; "
                "name them with --consts"
            )
        return default
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"--consts must be {len(default)} comma-separated integers")
    if len(values) != len(default):
        raise ConfigError(f"--consts must name exactly {len(default)} elements")
    if not all(0 <= value < n for value in values):
        raise ConfigError(f"--consts must name elements of 0..{n - 1}")
    if len(set(values)) != len(values):
        raise ConfigError("--consts must name distinct elements")
    return values


def _load_perm(path: Optional[str], n: int) -> Optional[List[int]]:
    from .kernel import ConfigError
    from .serialize import load_json

    if path is None:
        return None
    perm = load_json(path)
    integers = isinstance(perm, list) and all(type(x) is int for x in perm)
    if not integers or sorted(perm) != list(range(n)):
        raise ConfigError(f"--perm file must hold a permutation of 0..{n - 1}")
    return perm


@main.command()
@click.option("--snapshot", "snapshot_path", required=True, type=click.Path())
@click.option("--construction", required=True, type=click.Choice(NAMES))
@click.option("--consts", default=None, help="comma-separated constants, canonical order")
@click.option("--perm", "perm_path", default=None, type=click.Path())
@_tool_errors
def decode(snapshot_path, construction, consts, perm_path):
    """Read the coded content back out of one snapshot."""
    from .kernel import ConfigError, apply_permutation
    from .serialize import load_config, load_snapshot

    snap, kind = load_snapshot(snapshot_path)
    perm = _load_perm(perm_path, snap.domain_size)
    con = _construction(construction)
    if con.checks_kind and kind is not con.kind:
        raise ConfigError(f"snapshot is a {kind.value} run, not {con.kind.value}")
    base = None if con.consts is None else _parse_consts(consts, con.consts, snap.domain_size)
    original = None
    if perm is not None:
        snap = apply_permutation(snap, perm)
        if base is not None:
            base = tuple(perm[c] for c in base)
        original = {p: x for x, p in enumerate(perm)}
    config = functools.partial(load_config, os.path.dirname(snapshot_path))
    _emit(con.readout(snap, kind, base, config, original))


@main.command()
@click.option("--order", "order_path", required=True, type=click.Path())
@click.option(
    "--principle", required=True, type=click.Choice(("ads", "cac", "ads-preorder"))
)
@click.option("--threshold", type=int, default=None)
@_tool_errors
def solve(order_path, principle, threshold):
    """Extract the combinatorial object a principle promises."""
    from .serialize import load_snapshot
    from .solvers import solve_ads, solve_ads_preorder, solve_cac

    snap, _ = load_snapshot(order_path)
    if principle == "cac":
        sol = solve_cac(snap)
        shape = {"kind": sol.kind}
    else:
        sol = solve_ads(snap) if principle == "ads" else solve_ads_preorder(snap, threshold)
        shape = {"direction": sol.direction}
    _emit(dict(shape, principle=principle, elements=list(sol.elements)))


_DOT_BLOCK = 1 << 16  # edge lines export-dot formats and writes at once


@main.command("export-dot")
@click.option("--snapshot", "snapshot_path", required=True, type=click.Path())
@click.option("--reduction", is_flag=True, default=False)
@_tool_errors
def export_dot(snapshot_path, reduction):
    """Print the strict relation (optionally its transitive reduction) as DOT."""
    from .kernel import _strict_pairs, transitive_reduction
    from .serialize import load_snapshot

    snap, _ = load_snapshot(snapshot_path)
    edges = transitive_reduction(snap) if reduction else _strict_pairs(snap.matrix)
    out = ["digraph order {"]
    for x in range(snap.domain_size):
        label = snap.labels.get(x)
        text = f"{x}: {label}" if label else str(x)
        text = text.replace("\\", "\\\\").replace('"', '\\"')  # a DOT quoted string
        out.append(f'  "{x}" [label="{text}"];')
    click.echo("\n".join(out))
    # a block of edges at a time: at the domain cap there are 8.4M
    edge = '  "{}" -> "{}";'.format
    for lo in range(0, len(edges), _DOT_BLOCK):
        block = edges[lo:lo + _DOT_BLOCK]
        click.echo("\n".join(map(edge, block[:, 0].tolist(), block[:, 1].tolist())))
    click.echo("}")


if __name__ == "__main__":
    main()
