"""Span tracing from outside the package, for the per-layer metrics.

`Tracer.install` wraps each function in LAYERS and rebinds the wrapper under
every name that refers to the original in the package's modules, including
values of module-level dicts (resonance._DISPATCH).  Calls through any of
those names then open a span.  `uninstall` puts the originals back.  The
untraced run never imports this module.

A span is (id, name, start, end, parent id).  Self time is a span's duration
minus the time covered by its child spans.  All spans share one stack, which
is right as long as no two threads run traced code at the same time; the
traced `cli` pass pins BSL_THREADS=1 for that reason, and `pop` raises if
spans interleave.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "bloch_siegert_lab"

# module -> functions wrapped, one layer per module
LAYERS: Dict[str, Tuple[str, ...]] = {
    "numerics": (
        "bessel_j",
        "bessel_j_sequence",
        "bessel_j0_minus_1",
        "find_root_bracketed",
        "minimize_scalar_bracketed",
        "first_bessel_j0_zero",
    ),
    "chrw": ("solve_xi", "build_frame"),
    "floquet": (
        "solve_floquet",
        "build_floquet_matrix",
        "propagator_samples",
        "monodromy_quasienergies",
        "monodromy_gap",
        "branch_gap",
    ),
    "resonance": (
        "bs_floquet_numeric",
        "bs_chrw",
        "bs_shirley_iterative",
        "bs_perturbative6",
        "bs_asymptotic",
        "resonance_shift",
    ),
    "dissipative": (
        "truncation_order",
        "fourier_coefficients",
        "fourier_f",
        "x_coefficients",
        "lindblad_tensor",
        "rates",
        "steady_state",
        "bloch_generator",
        "population_avg",
        "oracle_lindblad",
    ),
    "spectrum": ("spectrum", "laplace_g", "initial_conditions", "asymmetry_metric"),
    "cli": ("cmd_shift_sweep", "cmd_population", "cmd_spectrum", "cmd_validate"),
}

ROOT = "bench.pass"


def _floquet_dim(args, kwargs, result) -> float:
    return 2.0 * (2 * result.n_trunc + 1)


def _harmonics(args, kwargs, result) -> float:
    return float(result)


def _sidebands(args, kwargs, result) -> float:
    return float((result.n_max + 1) // 2)


# span name -> (observation name, value taken from arguments and result)
OBSERVERS: Dict[str, Tuple[str, Callable]] = {
    "floquet.solve_floquet": ("floquet.matrix_dim", _floquet_dim),
    "dissipative.truncation_order": ("dissipative.harmonics", _harmonics),
    "spectrum.spectrum": ("spectrum.sidebands", _sidebands),
}

# (outer, inner): count inner calls made while outer is open
NESTED = (("chrw.solve_xi", "numerics.bessel_j"),)


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.obs_sum: Dict[str, float] = defaultdict(float)
        self.obs_n: Dict[str, int] = defaultdict(int)
        self.nested: Dict[Tuple[str, str], int] = defaultdict(int)
        self.open: Dict[str, int] = defaultdict(int)
        self.stack: List[list] = []
        self.spans: List[Tuple[int, int, float, float, int]] = []
        self.next_id = 0
        self._saved: List[Tuple[object, object, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def push(self, name_id: int) -> list:
        parent = self.stack[-1][1] if self.stack else -1
        frame = [name_id, self.next_id, parent, 0.0, time.perf_counter()]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = time.perf_counter()
        if self.stack.pop() is not frame:
            raise RuntimeError("spans interleaved: traced code ran on two threads at once")
        name_id, span_id, parent, child_s, start = frame
        duration = end - start
        name = self.names[name_id]
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][3] += duration
        self.spans.append((span_id, name_id, start, end, parent))

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_id(name)
        observer = OBSERVERS.get(name)
        inside = [outer for outer, inner in NESTED if inner == name]
        counted = any(outer == name for outer, _ in NESTED)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for outer in inside:
                if tracer.open[outer]:
                    tracer.nested[(outer, name)] += 1
            if counted:
                tracer.open[name] += 1
            frame = tracer.push(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop(frame)
                if counted:
                    tracer.open[name] -= 1
            if observer is not None:
                tracer.obs_sum[observer[0]] += observer[1](args, kwargs, result)
                tracer.obs_n[observer[0]] += 1
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, attr, wrapper)
                        elif isinstance(value, dict) and not attr.startswith("__"):
                            for k, v in list(value.items()):
                                if v is original:
                                    self._rebind(value, k, wrapper)

    def _rebind(self, holder, key, wrapper) -> None:
        if isinstance(holder, dict):
            self._saved.append((holder, key, holder[key], True))
            holder[key] = wrapper
        else:
            self._saved.append((holder, key, getattr(holder, key), False))
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, is_dict in reversed(self._saved):
            if is_dict:
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._saved.clear()

    # -- one traced pass ---------------------------------------------------

    def run_pass(self, body: Callable[[], None]) -> float:
        """Run body under a root span; keep only this pass's spans."""
        self.spans = []
        root = self.push(self._root_id())
        try:
            body()
        finally:
            self.pop(root)
        return self.spans[-1][3] - self.spans[-1][2]

    def _root_id(self) -> int:
        if ROOT not in self.names:
            return self._name_id(ROOT)
        return self.names.index(ROOT)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for span_id, name_id, start, end, parent in self.spans:
                fh.write(f"{span_id},{self.names[name_id]},{start:.9f},{end:.9f},{parent}\n")


def layer_of(name: str) -> Optional[str]:
    return None if name == ROOT else name.split(".", 1)[0]
