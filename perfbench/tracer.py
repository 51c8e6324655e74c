"""Spans around the public functions of each turanstab module.

The tracer replaces a function by a wrapper everywhere the function is
bound inside the ``turanstab`` package: in its defining module, in every
module that imported it by name, and on the class for ``Poly`` methods.
Each call records a span (name, start, end, parent) in memory; the spans
are aggregated, and optionally written out, after the traced pass.

A target that no longer exists is left out with a note, so the benchmark
keeps running against a program whose functions were renamed or removed.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute path) of each traced function; the metric names are
# "<module>.<attribute path>.<stat>"
TARGETS = (
    ("sequences", "generate"),
    ("expressions", "extended_turan"),
    ("polycore", "Poly.__mul__"),
    ("polycore", "Poly.compose_linear"),
    ("polycore", "Poly.__call__"),
    ("polycore", "clear_denominators"),
    ("polycore", "int_pseudo_rem"),
    ("polycore", "int_primitive"),
    ("polycore", "gcd"),
    ("stability", "rotate"),
    ("stability", "is_weakly_hurwitz"),
    ("stability", "all_roots_real"),
    ("stability", "isolate_extreme_roots"),
    ("stability", "nonvanishing_halfplane"),
    ("stability", "interlace_check"),
    ("harness", "run_campaign"),
    ("harness", "emit_reports"),
)

STATS = (("calls", "count"), ("self_s", "s"), ("total_s", "s"))

# metrics computed from the results of traced calls:
# name -> (unit, the traced function they are taken from)
DERIVED = {
    "polycore.int_pseudo_rem.max_bits": ("bits", "polycore.int_pseudo_rem"),
    "polycore.int_primitive.strip_ratio": ("ratio", "polycore.int_primitive"),
    "polycore.int_primitive.bits_removed": ("bits", "polycore.int_primitive"),
    "stability.prs_steps_per_verdict": ("count", "polycore.int_pseudo_rem"),
    "stability.chain_length_max": ("count", "stability.is_weakly_hurwitz"),
    "stability.gcd_degree_max": ("count", "stability.is_weakly_hurwitz"),
    "harness.emit_reports.bytes": ("B", "harness.emit_reports"),
    "harness.cell_ms_max": ("ms", "harness.run_campaign"),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a stable order."""
    units = {}
    for module, attr in TARGETS:
        for stat, unit in STATS:
            units[f"{module}.{attr}.{stat}"] = unit
    units.update((name, unit) for name, (unit, _) in DERIVED.items())
    units["trace.overhead_frac"] = "ratio"
    return units


def _bits(coeffs) -> int:
    return max((abs(c).bit_length() for c in coeffs), default=0)


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self.notes: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        # Time spent in the observers below, which take counts from call
        # results; span times leave it out, so it does not inflate the
        # self time of the caller.
        self._lost = 0.0
        self._undo: list[tuple[object, str, object]] = []
        self.verdicts: list[dict] = []  # one per outermost verdict call
        self._verdict_depth = 0
        self.pseudo_rem_bits = 0  # largest pseudo-remainder coefficient
        self._cell_bits = 0  # largest chain coefficient in the current verdict
        self.primitive_calls = 0
        self.primitive_stripped = 0
        self.bits_removed = 0
        self.report_bytes = 0
        self.cell_ms: list[float] = []

    # -- installing wrappers ------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "turanstab" or name.startswith("turanstab."))
        }
        for module, attr in TARGETS:
            self._install(modules, module, attr)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _install(self, modules: dict, module: str, attr: str) -> None:
        name = f"{module}.{attr}"
        mod = modules.get(f"turanstab.{module}")
        owner_path, _, leaf = attr.rpartition(".")
        owner = mod
        for part in owner_path.split(".") if owner_path else ():
            owner = getattr(owner, part, None)
        original = (
            vars(owner).get(leaf) if owner is not None and hasattr(owner, "__dict__") else None
        )
        if not callable(original):
            self.notes.append(f"{name}: not found, metrics omitted")
            return
        wrapper = self._wrap(name, original)
        if owner is not mod:  # a method: bound on its class only
            self._rebind(owner, leaf, wrapper)
            return
        for other in modules.values():
            for alias, value in list(vars(other).items()):
                if value is original:
                    self._rebind(other, alias, wrapper)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = getattr(self, "_observe_" + name.rpartition(".")[2], None)
        is_verdict = name == "stability.is_weakly_hurwitz"
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            if is_verdict:
                self._verdict_depth += 1
                outer_bits, self._cell_bits = self._cell_bits, 0
            t0 = clock() - self._lost
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1 - self._lost
                if is_verdict:
                    self._verdict_depth -= 1
            if is_verdict:
                self._observe_verdict(result, outer_bits)
            elif observe is not None:
                observe(args, result)
            self._lost += clock() - t1
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- counts taken from call results -------------------------------

    def _observe_verdict(self, cert, outer_bits: int) -> None:
        bits = self._cell_bits
        self._cell_bits = max(outer_bits, bits)
        if self._verdict_depth == 0:
            self.verdicts.append({
                "degree": cert.degree,
                "chain_length": cert.chain_length,
                "gcd_degree": cert.gcd_degree,
                "chain_bits": bits,
            })

    def _observe_int_pseudo_rem(self, args, result) -> None:
        self.pseudo_rem_bits = max(self.pseudo_rem_bits, _bits(result[0]))

    def _observe_int_primitive(self, args, result) -> None:
        (f,) = args
        self._cell_bits = max(self._cell_bits, _bits(result))
        self.primitive_calls += 1
        if f and result != list(f):
            self.primitive_stripped += 1
            self.bits_removed += sum(abs(c).bit_length() for c in f) - sum(
                abs(c).bit_length() for c in result
            )

    def _observe_emit_reports(self, args, result) -> None:
        with open(args[1], "rb") as fh:
            self.report_bytes += len(fh.read())

    def _observe_run_campaign(self, args, result) -> None:
        self.cell_ms.extend(rec.elapsed_ms for rec in result)

    # -- aggregation --------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            total_s[name] += dur
            self_s[name] += dur - child[i]
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total_s[name]
        traced = set(self.names)
        verdicts = calls["stability.is_weakly_hurwitz"]
        derived = {
            "polycore.int_pseudo_rem.max_bits": self.pseudo_rem_bits,
            "polycore.int_primitive.strip_ratio": (
                self.primitive_stripped / self.primitive_calls if self.primitive_calls else 0.0
            ),
            "polycore.int_primitive.bits_removed": self.bits_removed,
            "stability.prs_steps_per_verdict": (
                calls["polycore.int_pseudo_rem"] / verdicts if verdicts else 0.0
            ),
            "stability.chain_length_max": max(
                (v["chain_length"] for v in self.verdicts), default=0
            ),
            "stability.gcd_degree_max": max(
                (v["gcd_degree"] for v in self.verdicts), default=0
            ),
            "harness.emit_reports.bytes": self.report_bytes,
            "harness.cell_ms_max": max(self.cell_ms, default=0.0),
        }
        for metric, value in derived.items():
            if DERIVED[metric][1] in traced:
                out[metric] = value
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]!r}\t"
                    f"{self.end[i]!r}\t{self.parent[i]}\n"
                )
