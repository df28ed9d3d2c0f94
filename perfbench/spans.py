"""Spans around the public functions of every vqesim module, from outside it.

`Tracer.install()` replaces each traced function at every import site (the
defining module, the package namespace and every module that imported the
name), so `vqesim.driver.estimate_energy` and `vqesim.estimation.estimate_energy`
both record. Spans (name, start, end, parent, operation) stay in memory as
flat arrays and are written out by `dump()` at the end of a run.

Per-gate and per-term helpers are left unwrapped: a span on every Rz or
basis lookup would cost more than the work it times. Their time stays in
the self time of the traced function that called them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = (
    "pauli", "statevector", "estimation", "optimize", "driver",
    "fermion", "analysis", "formats", "synthetic", "cli",
)

# Called once per gate, term or prepared state; see the module docstring.
HELPERS = {
    "pauli": {"parse_pauli", "identity_string", "pauli_matrix", "basis_action"},
    "statevector": {"ry", "rz", "apply_gate", "apply_cnot", "init_zero", "basis_state", "exact_expectation"},
    "estimation": {"measurement_probabilities"},
}
# Counted on every call but given no span.
COUNTED = {"pauli": {"multiply"}}
OBJECTIVE = "driver.objective"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.counts: Counter = Counter()  # (op, name) -> calls, for COUNTED
        self.shots: Counter = Counter()  # op -> sum of EnergyEstimate.total_shots
        self.restarts: Counter = Counter()  # op -> sum of OptimizerResult.restarts

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        stack, now = self._stack, time.perf_counter
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(index)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = now()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[self.current_op, name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _wrapper(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        if name in COUNTED.get(layer, ()):
            return self.counter(full, fn)
        if full == "estimation.estimate_energy":
            def add_shots(result):
                self.shots[self.current_op] += result.total_shots
            return self.span(full, fn, add_shots)
        if full in ("optimize.nelder_mead", "optimize.gradient_descent"):
            # The objective is a closure inside run_vqe, so it is wrapped
            # where it enters the optimizer.
            def add_restarts(result):
                self.restarts[self.current_op] += result.restarts

            def optimizer(objective, *args, **kwargs):
                return fn(self.span(OBJECTIVE, objective), *args, **kwargs)

            return self.span(full, optimizer, add_restarts)
        return self.span(full, fn)

    def install(self) -> None:
        """Wrap every traced public function of vqesim at every import site."""
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"vqesim.{layer}")
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                    and name not in HELPERS.get(layer, ())
                ):
                    replacements[fn] = self._wrapper(layer, name, fn)
        for module_name, module in list(sys.modules.items()):
            if module_name == "vqesim" or module_name.startswith("vqesim."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in replacements:
                        setattr(module, attr, replacements[value])

    def dump(self, path: Path) -> None:
        payload = {
            "names": self.names,
            "columns": ["name", "parent", "op", "start", "end"],
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))

    def op_profile(self, ops) -> dict:
        """Per-layer figures over the spans of the given operations."""
        ops = set(ops)
        count: Counter = Counter()
        total: Counter = Counter()
        self_time: Counter = Counter()
        diagnostics = 0.0
        formats_top = 0.0
        names = self.names
        objective = self._ids.get(OBJECTIVE, -1)
        estimate = self._ids.get("estimation.estimate_energy", -1)
        child = {}
        selected = [i for i, op in enumerate(self.op) if op in ops]
        for i in selected:
            duration = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] = child.get(p, 0.0) + duration
        for i in selected:
            duration = self.end[i] - self.start[i]
            name = names[self.name[i]]
            count[name] += 1
            total[name] += duration
            self_time[name.split(".", 1)[0]] += duration - child.get(i, 0.0)
            self_time[name] += duration - child.get(i, 0.0)
            p = self.parent[i]
            if p >= 0 and self.name[p] == objective and self.name[i] != estimate:
                diagnostics += duration
            if name.startswith("formats.") and (p < 0 or not names[self.name[p]].startswith("formats.")):
                formats_top += duration
        multiply = sum(n for (op, name), n in self.counts.items() if op in ops and name == "pauli.multiply")
        evaluations = count[OBJECTIVE]
        shots = sum(self.shots[op] for op in ops)
        estimate_s = total["estimation.estimate_energy"]
        return {
            "statevector.prepare_calls": count["statevector.prepare"],
            "statevector.prepare_s": total["statevector.prepare"],
            "statevector.prepares_per_eval": count["statevector.prepare"] / evaluations if evaluations else 0.0,
            "estimation.estimate_calls": count["estimation.estimate_energy"],
            "estimation.estimate_self_s": self_time["estimation.estimate_energy"],
            "estimation.sample_calls": count["estimation.sample_pauli"],
            "estimation.sample_s": total["estimation.sample_pauli"],
            "estimation.rng_s": total["estimation.derived_generator"],
            "estimation.shots": shots,
            "estimation.shots_per_eval": shots / evaluations if evaluations else 0.0,
            "estimation.shots_per_s": shots / estimate_s if estimate_s else 0.0,
            "optimize.evaluations": evaluations,
            "optimize.restarts": sum(self.restarts[op] for op in ops),
            "optimize.self_s": self_time["optimize"],
            "driver.diagnostics_s": diagnostics,
            "driver.self_s": self_time["driver"],
            "analysis.spectrum_calls": count["analysis.exact_spectrum"],
            "analysis.spectrum_s": total["analysis.exact_spectrum"],
            "analysis.fit_s": total["analysis.fit_quadratic_minimum"] + total["analysis.monte_carlo_minimum_uncertainty"],
            "fermion.prepare_calls": count["fermion.ucc_prepare"],
            "fermion.prepare_s": total["fermion.ucc_prepare"],
            "fermion.jw_s": total["fermion.jordan_wigner"],
            "pauli.multiply_calls": multiply,
            "pauli.fold_s": total["pauli.shift_and_square"],
            "pauli.reconstruct_s": total["pauli.reconstruct"],
            "formats.load_s": formats_top,
            "cli.self_s": self_time["cli"],
        }


COUNT_METRICS = {
    "statevector.prepare_calls", "estimation.estimate_calls", "estimation.sample_calls",
    "estimation.shots", "optimize.evaluations", "optimize.restarts", "analysis.spectrum_calls",
    "fermion.prepare_calls", "pauli.multiply_calls",
}


def unit(metric: str) -> str:
    if metric in COUNT_METRICS:
        return "count"
    return {
        "statevector.prepares_per_eval": "count/eval",
        "estimation.shots_per_eval": "count/eval",
        "estimation.shots_per_s": "1/s",
        "cli.bytes_written": "bytes",
    }.get(metric, "s")


def median_profile(profiles: list[dict]) -> dict:
    """Counts from the first round (they repeat exactly); times as the median over rounds."""
    return {
        key: profiles[0][key] if key in COUNT_METRICS else statistics.median(p[key] for p in profiles)
        for key in profiles[0]
    }
