"""Spans and exact counters around the program's public functions.

The wrappers live here, in the benchmark, and are installed into every
staged_orders namespace that holds a wrapped function (check_partial_order
is defined in kernel but imported by cli and solvers too), then removed
again. Each call records a span (id, name, start, end, parent span,
operation id); spans stay in memory until the run writes them out.
A span's self time is its duration minus the time its child spans cover.

Counters are taken at the same boundaries, outside the timed interval.
compose_ops is computed, not measured: n**3 for every uint8 relation
product the program makes at this commit (one per transitivity check,
one more per transitive_reduction, window**3 per family transitivity
test).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import hashlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

MODULES = ("serialize", "kernel", "roles", "spectrum", "sigma2", "jump", "family", "solvers")


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.count: Counter = Counter()  # exact counters
        self.snapshot_loads: Counter = Counter()  # path -> loads
        self.relations: set = set()  # distinct relations checked
        self.roles: set = set()  # distinct spectrum roles encoded
        self._stack: List[list] = []  # [span id, child seconds]
        self._next_id = 0
        self.op_id: Optional[int] = None

    # ---- spans ----

    def call(self, name: str, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            duration = t1 - t0
            self.self_s[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[name] += 1
            self.spans.append((span_id, name, t0, t1, parent, self.op_id))

    def root(self, op_id: int, name: str, fn, *args):
        """Root span of one operation: a CLI command or a library instance."""
        self.op_id = op_id
        return self.call(name, fn, args, {})

    def write(self, path: str) -> None:
        """Spans as gzipped tab-separated lines: id, name, start, end,
        parent id and operation id ("-" for none), in end order."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            fh.writelines(
                f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{'-' if p is None else p}\t"
                f"{'-' if op is None else op}\n"
                for i, name, t0, t1, p, op in self.spans
            )

    # ---- installation ----

    @contextlib.contextmanager
    def installed(self):
        """Swap wrappers into every staged_orders namespace; restore on exit."""
        from staged_orders import kernel

        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"staged_orders.{short}"]
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    if not name.startswith("_"):
                        wrappers[fn] = self._wrap(f"{short}.{name}", fn)
        family = sys.modules["staged_orders.family"]
        if hasattr(family, "_transitive_on"):
            fn = family._transitive_on
            wrappers[fn] = self._wrap("family._transitive_on", fn)
        saved = []
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "staged_orders" or n.startswith("staged_orders."))]
        for module in namespaces:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    saved.append((module, name, value))
                    setattr(module, name, wrappers[value])
        for cls, name in ((kernel.StagedOrder, "add_pairs"), (kernel.StagedOrder, "remove_pairs")):
            saved.append((cls, name, vars(cls)[name]))
            setattr(cls, name, self._wrap_mutation(f"kernel.{name}", vars(cls)[name]))
        prop = vars(kernel.Snapshot)["pairs"]
        saved.append((kernel.Snapshot, "pairs", prop))
        kernel.Snapshot.pairs = property(self._wrap("kernel.Snapshot.pairs", prop.fget))
        try:
            yield self
        finally:
            for owner, name, value in reversed(saved):
                setattr(owner, name, value)

    def _wrap(self, name: str, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _wrap_mutation(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(order, pairs):
            pairs = list(pairs)
            before = order.current.matrix
            result = self.call(name, fn, (order, pairs), {})
            after = result.matrix
            self.count[name + ".pairs"] += len(pairs)
            self.count["delta.changed"] += int((before ^ after).sum())
            self.count["delta.live"] += int(after.sum()) - after.shape[0]
            return result

        return wrapper

    # ---- counters, taken after the call returns ----

    def _after_serialize_save_json(self, result, path, obj):
        self.count["serialize.bytes_written"] += os.stat(path).st_size

    def _after_serialize_snapshot_to_obj(self, result, *args):
        self.count["serialize.pairs_written"] += len(result["pairs"])

    def _after_serialize_load_json(self, result, path):
        self.count["serialize.bytes_read"] += os.stat(path).st_size

    def _after_serialize_snapshot_from_obj(self, result, obj):
        self.count["serialize.pairs_read"] += len(obj["pairs"])

    def _after_serialize_load_snapshot(self, result, path):
        self.snapshot_loads[os.path.abspath(path)] += 1

    def _after_kernel_check_partial_order(self, result, snapshot):
        m = snapshot.matrix
        self.relations.add((m.shape, hashlib.blake2b(m.tobytes(), digest_size=16).digest()))
        self.count["kernel.compose_ops"] += m.shape[0] ** 3

    def _after_kernel_check_preorder(self, result, snapshot):
        self.count["kernel.compose_ops"] += snapshot.domain_size ** 3

    def _after_kernel_transitive_reduction(self, result, snapshot):
        self.count["kernel.compose_ops"] += snapshot.domain_size ** 3

    def _after_family__transitive_on(self, result, matrix, bound):
        self.count["kernel.compose_ops"] += min(bound, matrix.shape[0]) ** 3

    def _after_roles_spectrum_encode(self, result, role):
        self.roles.add(role)
