"""The three benchmark workloads: inputs from a seed, operations, checks.

A workload builds its inputs from the seed alone (no package import, so
set-up time is interpreter start, package import and this).  `ops` turns
them into a fixed list of operations, each a call into the package's public
functions, or for `cli` a fresh `bsl` process.  Operations look functions up
on the package at call time, so the tracer's rebinding reaches them.
`check` judges one pass of results against bench/checks.py.

Every pass runs the same operations, so the share of failed operations is
fixed by the inputs.  The only operations allowed to fail are listed in
`known_faults`, on inputs that do not depend on the seed.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import checks

OMEGA0 = 1.0
KAPPA = 2e-3


@dataclass(frozen=True)
class Op:
    key: str
    part: str
    call: Callable[[], object]


@dataclass
class Verdict:
    """Outcome of the checks: failed operations, and problems no single operation owns."""

    failed: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def fail(self, key: str, why: str) -> None:
        self.failed.setdefault(key, why)

    def require(self, ok: bool, why: str) -> None:
        if not ok:
            self.problems.append(why)


def _raised(value: object) -> bool:
    return isinstance(value, BaseException)


# ---------------------------------------------------------------------------
# shift-sweep


WEAK_BAND = (1e-3, 1e-2)
TABULATED = tuple(checks.PAPER_TABLE)
STRONG_BAND = (50.0, 100.0)
SHIRLEY_MAX_A = 21.0
SHIFT_METHODS = ("floquet", "chrw", "shirley", "pert6", "asymptotic")
_SHIFT_FUNCS = {
    "floquet": "bs_floquet_numeric",
    "chrw": "bs_chrw",
    "shirley": "bs_shirley_iterative",
    "pert6": "bs_perturbative6",
    "asymptotic": "bs_asymptotic",
}


def shift_key(method: str, amplitude: float) -> str:
    return f"{method} A={amplitude:.12g}"


def stratified(rng: random.Random, lo: float, hi: float, n: int) -> List[float]:
    """One uniform draw in each of n equal slices of [lo, hi].

    Keeps the work of a pass nearly the same for every seed, since the cost
    of a point depends on where it falls.
    """
    width = (hi - lo) / n
    return [round(lo + width * (i + rng.random()), 6) for i in range(n)]


class ShiftSweep:
    """All five shift methods over a weak, an intermediate and a strong band.

    Weak: fixed A in [1e-3, 1e-2], where the Floquet golden-section search
    misses the series (its only known fault).  Intermediate: A = 0.1, the
    nine tabulated amplitudes and three seeded amplitudes, one in each third
    of [0.5, 21].  Strong: A = 50, 100, without Shirley, which is outside its
    domain there.  The grid holds A = 0.1, 1, 6, 21, 100 for the per-point
    figures.  It is kept this small on purpose: every operation is timed
    once per pass, and a short pass lets every operation meet the host's
    fast phases (see README.md).
    """

    name = "shift-sweep"

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        weak = WEAK_BAND[:1] if tiny else WEAK_BAND
        fixed = (0.1, 6.0) if tiny else (0.1,) + TABULATED
        strong = STRONG_BAND[:1] if tiny else STRONG_BAND
        drawn = [a if a not in fixed else a + 1e-6 for a in stratified(rng, 0.5, 21.0, 1 if tiny else 3)]
        mid = sorted(fixed + tuple(drawn))
        self.amplitudes = list(weak) + mid + list(strong)
        self.known_faults = {shift_key("floquet", a) for a in weak}

    def ops(self, pkg) -> List[Op]:
        out = []
        for a in self.amplitudes:
            for method in SHIFT_METHODS:
                if method == "shirley" and a > SHIRLEY_MAX_A:
                    continue
                fname = _SHIFT_FUNCS[method]
                out.append(Op(shift_key(method, a), "shifts", lambda f=fname, a=a: getattr(pkg, f)(OMEGA0, a)))
        return out

    def check(self, results: Dict[str, object], first: Dict[str, object], pkg) -> Verdict:
        v = Verdict()
        _check_repeatable(v, results, first)
        for key, res in results.items():
            if _raised(res):
                v.fail(key, f"raised {type(res).__name__}: {res}")
        shift = {k: r.shift for k, r in results.items() if not _raised(r)}
        for a in self.amplitudes:
            get = {m: shift.get(shift_key(m, a)) for m in SHIFT_METHODS}
            series = checks.series_shift(a)
            if get["pert6"] is not None and abs(get["pert6"] - series) > 4.0 * math.ulp(series):
                v.fail(shift_key("pert6", a), f"{get['pert6']!r} != series {series!r}")
            asym = a / checks.j01() - OMEGA0
            if get["asymptotic"] is not None and abs(get["asymptotic"] - asym) > 1e-12 * max(1.0, a):
                v.fail(shift_key("asymptotic", a), f"{get['asymptotic']!r} != A/j01 - 1 = {asym!r}")
            if a <= WEAK_BAND[-1]:
                self._check_weak(v, a, get, series)
            elif a <= SHIRLEY_MAX_A:
                self._check_intermediate(v, a, get, results)
            else:
                self._check_strong(v, a, get)
        return v

    @staticmethod
    def _check_weak(v: Verdict, a: float, get, series: float) -> None:
        for method in ("floquet", "shirley"):
            if get[method] is not None and abs(get[method] - series) > checks.series_tolerance(a):
                v.fail(shift_key(method, a), f"off the series by {get[method] - series:.3e}")
        if get["chrw"] is not None and abs(get["chrw"] - series) > checks.chrw_weak_tolerance(a):
            v.fail(shift_key("chrw", a), f"off the series by {get['chrw'] - series:.3e}")

    @staticmethod
    def _check_intermediate(v: Verdict, a: float, get, results) -> None:
        ref = get["floquet"]
        if ref is None:
            return
        offset = checks.trace_stationary_offset(a, results[shift_key("floquet", a)].omega_res)
        if abs(offset) > checks.STATIONARY_TOL:
            v.fail(shift_key("floquet", a), f"Re tr U(T) extremum {offset:.2e} from omega0")
        if a in checks.PAPER_TABLE:
            for method, tab in zip(("floquet", "chrw", "shirley", "asymptotic"), checks.PAPER_TABLE[a]):
                if tab is not None and get[method] is not None and abs(get[method] - tab) > checks.TABLE_TOL:
                    v.fail(shift_key(method, a), f"{get[method]:.7f} vs table {tab}")
        for method, tol in (("chrw", checks.chrw_relative_tolerance(a)), ("shirley", 0.01)):
            if get[method] is not None and abs(get[method] - ref) > tol * ref:
                v.fail(shift_key(method, a), f"{abs(get[method] - ref) / ref:.2e} from Floquet (tol {tol})")

    @staticmethod
    def _check_strong(v: Verdict, a: float, get) -> None:
        limit = a / checks.j01()
        for method in ("floquet", "chrw"):
            if get[method] is not None and abs(OMEGA0 + get[method] - limit) > 0.01 * limit:
                v.fail(shift_key(method, a), f"omega_res {OMEGA0 + get[method]:.6f} vs A/j01 {limit:.6f}")


# ---------------------------------------------------------------------------
# dissipative


WEAK_A = 0.1
POP_STEP = 1e-4
STRONG_BANDS = ((7.2, 9.9), (13.5, 16.2))
SPECTRUM_AMPLITUDES = (0.05, 0.1, 0.2, 0.4)
PROBE_POINTS = 20001


def _population(pkg, amplitude: float, omega: float) -> float:
    params = pkg.ModelParams(omega0=OMEGA0, amplitude=amplitude, omega=omega, kappa=KAPPA)
    frame = pkg.build_frame(params)
    return pkg.population_avg(frame, params, pkg.rates(frame, params))


def _spectrum(pkg, amplitude: float, pump: float, nus, rwa: bool = False):
    params = pkg.ModelParams(omega0=OMEGA0, amplitude=amplitude, omega=pump, kappa=KAPPA)
    mode = pkg.FrameMode.RWA if rwa else pkg.FrameMode.CHRW
    return pkg.spectrum(params, nus, mode=mode)


def _spectrum_and_asymmetry(pkg, amplitude: float, pump: float, nus, rwa: bool):
    trace = _spectrum(pkg, amplitude, pump, nus, rwa)
    return trace.values, pkg.asymmetry_metric(trace, pump)


def same(a: object, b: object) -> bool:
    """Bitwise equality of two results, arrays and tuples included."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if hasattr(a, "shape") or hasattr(b, "shape"):
        import numpy as np

        return np.array_equal(a, b)
    if _raised(a) or _raised(b):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def _check_repeatable(v: Verdict, results: Dict[str, object], first: Dict[str, object]) -> None:
    for key, res in results.items():
        if not same(res, first[key]):
            v.fail(key, "result differs between passes")


class Dissipative:
    """Population curves plus a probe-spectrum panel.

    Curve 1 is the paper's condition: A = 0.1, kappa = 2e-3, pump step 1e-4
    around the shifted resonance, grid offset drawn from the seed.  The
    other points pump at omega0 with A drawn in [7.2, 9.9] and [13.5, 16.2],
    where the frame's xi fixed point exists (z = 7-16, L = 29-45), one draw
    in each of `per_band` slices of each band.  The panel pumps at omega0
    (= resonance - shift), at resonance and one shift above it, plus an RWA
    trace at omega0, for each A in SPECTRUM_AMPLITUDES, on probe grids of
    PROBE_POINTS points whose width is drawn from the seed.
    """

    name = "dissipative"
    known_faults: frozenset = frozenset()

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        half = 5 if tiny else 50
        center = OMEGA0 + checks.series_shift(WEAK_A)
        phase = rng.uniform(-0.5, 0.5)
        self.weak_grid = [center + (k + phase) * POP_STEP for k in range(-half, half + 1)]
        self.exact_points = (0, half, 2 * half)
        per_band = 1 if tiny else 16
        self.strong = [a for lo, hi in STRONG_BANDS for a in stratified(rng, lo, hi, per_band)]
        self.panel = []
        for a in SPECTRUM_AMPLITUDES[:2] if tiny else SPECTRUM_AMPLITUDES:
            shift = checks.series_shift(a)
            width = rng.uniform(2.0, 2.4) * 0.5 * a
            m = 400 if tiny else PROBE_POINTS // 2
            offsets = [width * j / m for j in range(-m, m + 1)]
            for label, pump, rwa in (
                ("below", OMEGA0, False),
                ("res", OMEGA0 + shift, False),
                ("above", OMEGA0 + 2.0 * shift, False),
                ("rwa", OMEGA0, True),
            ):
                self.panel.append((a, label, pump, rwa, [pump + d for d in offsets]))

    def ops(self, pkg) -> List[Op]:
        import numpy as np

        out = [Op(f"pop A=0.1 i={i}", "populations", lambda w=w: _population(pkg, WEAK_A, w))
               for i, w in enumerate(self.weak_grid)]
        out += [Op(f"pop A={a:.6f} w=1", "populations", lambda a=a: _population(pkg, a, OMEGA0))
                for a in self.strong]
        for a, label, pump, rwa, nus in self.panel:
            grid = np.array(nus)
            out.append(Op(f"spectrum A={a} {label}", "spectra",
                          lambda a=a, p=pump, g=grid, r=rwa: _spectrum_and_asymmetry(pkg, a, p, g, r)))
        return out

    def check(self, results: Dict[str, object], first: Dict[str, object], pkg) -> Verdict:
        import numpy as np

        v = Verdict()
        _check_repeatable(v, results, first)
        for key, res in results.items():
            if _raised(res):
                v.fail(key, f"raised {type(res).__name__}: {res}")
        for key, res in results.items():
            if key.startswith("pop") and not _raised(res) and not (0.0 <= res < 0.5):
                v.fail(key, f"population {res!r} outside [0, 1/2)")
        curve = [results[f"pop A=0.1 i={i}"] for i in range(len(self.weak_grid))]
        if not any(_raised(p) for p in curve):
            peak = self.weak_grid[int(np.argmax(curve))]
            res_w = OMEGA0 + checks.series_shift(WEAK_A)
            v.require(abs(peak - res_w) <= POP_STEP, f"A=0.1 curve peaks at {peak:.7f}, resonance {res_w:.7f}")
            for i in self.exact_points:
                exact = checks.exact_population(WEAK_A, self.weak_grid[i], KAPPA)
                gap = abs(curve[i] - exact) / exact
                if gap > checks.POPULATION_GAP_TOL:
                    v.fail(f"pop A=0.1 i={i}", f"{curve[i]:.6f} vs exact {exact:.6f} (rel {gap:.1e})")
        self._check_panel(v, results)
        return v

    def _check_panel(self, v: Verdict, results) -> None:
        import numpy as np

        by = {}
        for a, label, pump, rwa, nus in self.panel:
            key = f"spectrum A={a} {label}"
            res = results[key]
            if _raised(res):
                continue
            values, metric = res
            if not (np.all(np.isfinite(values)) and abs(np.max(np.abs(values)) - 1.0) < 1e-12):
                v.fail(key, "trace is not finite with unit peak")
                continue
            rabi = math.hypot(OMEGA0 + checks.series_shift(a) - pump, 0.5 * a)
            by[(a, label)] = (metric, checks.mirror_asymmetry(np.array(nus), values, pump, rabi))
        for a in {p[0] for p in self.panel}:
            got = [by.get((a, label)) for label in ("below", "res", "above", "rwa")]
            if None in got:
                continue
            below, res, above, rwa = got
            for i, kind in enumerate(("package", "mirror")):
                v.require(res[i] < 0.1 * min(below[i], above[i]),
                          f"A={a}: {kind} asymmetry at resonance {res[i]:.2e} not below 1/10 of "
                          f"off-resonance {min(below[i], above[i]):.2e}")
                v.require(rwa[i] < 1e-3, f"A={a}: RWA {kind} asymmetry {rwa[i]:.2e} >= 1e-3")
        amps = sorted(a for a in {p[0] for p in self.panel} if (a, "below") in by)
        for i, kind in enumerate(("package", "mirror")):
            rising = [by[(a, "below")][i] for a in amps]
            v.require(all(x < y for x, y in zip(rising, rising[1:])),
                      f"{kind} asymmetry at omega0 does not rise with A: {rising}")


# ---------------------------------------------------------------------------
# cli


def spawn(argv: Sequence[str], env: Dict[str, str], stdout: Path, stderr: Path):
    """Run argv to completion; return (exit code, peak RSS in KiB).

    posix_spawn plus wait4, so the child's own peak RSS is read without
    mixing in other children.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    pid = os.posix_spawn(argv[0], list(argv), env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


CLI_COMMANDS = ("shift-sweep", "population", "spectrum", "validate")


class Cli:
    """Fresh `bsl` processes: shift-sweep, population, spectrum, validate.

    `bsl` is run as `python -m bloch_siegert_lab.cli` against the checkout's
    src/, at the package's default worker count.  Population and spectrum
    amplitudes, and the sweep rows whose Floquet resonance is checked against
    the propagator, are drawn from the seed.
    """

    name = "cli"
    known_faults: frozenset = frozenset()

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.sweep_range = "0.5:1.5:0.5" if tiny else "0.5:21:0.5"
        self.pop_a = round(rng.uniform(0.05, 0.2), 6)
        self.spec_a = round(rng.uniform(0.05, 0.4), 6)
        self.spec_pump = OMEGA0 + checks.series_shift(self.spec_a)
        rows = 3 if tiny else 42
        self.stationary_rows = sorted(rng.sample(range(rows), 1 if tiny else 3))
        self.quick = tiny

    def argv(self, command: str) -> List[str]:
        args = {
            "shift-sweep": ["--A-range", self.sweep_range],
            "population": ["--A", repr(self.pop_a)],
            "spectrum": ["--A", repr(self.spec_a), "--omega", repr(self.spec_pump)],
            "validate": ["--quick"] if self.quick else [],
        }[command]
        return [command, *args]

    def ops(self, run) -> List[Op]:
        """One operation per command; run(command, argv, round) -> (exit code, output path)."""
        rounds = {c: 0 for c in CLI_COMMANDS}

        def call(command: str):
            rounds[command] += 1
            return run(command, self.argv(command), rounds[command])

        return [Op(f"cmd {c}", f"cmd_s.{c}", lambda c=c: call(c)) for c in CLI_COMMANDS]

    def check(self, results: Dict[str, object], first: Dict[str, object], pkg) -> Verdict:
        v = Verdict()
        for command in CLI_COMMANDS:
            key = f"cmd {command}"
            code, path = results[key]
            if code != 0:
                err = path.with_suffix(".stderr")
                tail = err.read_text(errors="replace").strip()[-300:] if err.exists() else ""
                v.fail(key, f"exit {code}: {tail}")
                continue
            text = path.read_text()
            if path != first[key][1] and text != first[key][1].read_text():
                v.fail(key, "output differs between rounds")
                continue
            why = getattr(self, "_check_" + command.replace("-", "_"))(text, pkg)
            if why:
                v.fail(key, why)
        return v

    @staticmethod
    def _rows(text: str) -> List[Dict[str, str]]:
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        head = lines[0].split(",")
        return [dict(zip(head, ln.split(","))) for ln in lines[1:]]

    def _check_shift_sweep(self, text: str, pkg) -> str:
        rows = self._rows(text)
        if len(rows) != (3 if self.quick else 42):
            return f"{len(rows)} rows"
        for i, row in enumerate(rows):
            a = float(row["a_over_omega0"])
            if row["diagnostics"]:
                return f"A={a}: {row['diagnostics']}"
            fl = float(row["shift_floquet"])
            got = {m: float(row[f"shift_{m}"]) for m in ("chrw", "shirley", "pert6")}
            if abs(got["chrw"] - fl) > checks.chrw_relative_tolerance(a) * fl:
                return f"A={a}: CHRW {got['chrw']} vs Floquet {fl}"
            if abs(got["shirley"] - fl) > 0.01 * fl:
                return f"A={a}: Shirley {got['shirley']} vs Floquet {fl}"
            if abs(got["pert6"] - checks.series_shift(a)) > 1e-8 * max(1.0, abs(got["pert6"])):
                return f"A={a}: pert6 {got['pert6']} vs series"
            asym = a / checks.j01() - OMEGA0
            if asym > 0 and abs(float(row["shift_asymptotic"]) - asym) > 1e-8 * max(1.0, asym):
                return f"A={a}: asymptotic {row['shift_asymptotic']} vs A/j01 - 1"
            if a in checks.PAPER_TABLE:
                tab = checks.PAPER_TABLE[a]
                for value, ref in zip((fl, got["chrw"], got["shirley"]), tab):
                    if abs(value - ref) > checks.TABLE_TOL:
                        return f"A={a}: {value} vs table {ref}"
            if i in self.stationary_rows:
                offset = checks.trace_stationary_offset(a, OMEGA0 + fl)
                if abs(offset) > checks.STATIONARY_TOL:
                    return f"A={a}: Re tr U(T) extremum {offset:.2e} from omega0"
        return ""

    def _check_population(self, text: str, pkg) -> str:
        rows = self._rows(text)
        omegas = [float(r["omega"]) for r in rows]
        pops = [float(r["population"]) for r in rows]
        if any(r["diagnostics"] for r in rows) or not all(0.0 <= p < 0.5 for p in pops):
            return "population missing or outside [0, 1/2)"
        peak = omegas[pops.index(max(pops))]
        res_w = OMEGA0 + checks.series_shift(self.pop_a)
        if abs(peak - res_w) > POP_STEP * (1.0 + 1e-6):
            return f"peak at {peak}, resonance {res_w:.7f}"
        return ""

    def _check_spectrum(self, text: str, pkg) -> str:
        import numpy as np

        rows = self._rows(text)
        nu = np.array([float(r["nu"]) for r in rows])
        s = np.array([float(r["S"]) for r in rows])
        if not (np.all(np.isfinite(s)) and abs(np.max(np.abs(s)) - 1.0) < 1e-8):
            return "trace is not finite with unit peak"
        footer = [ln for ln in text.splitlines() if ln.startswith("# asymmetry_metric(")]
        if not footer:
            return "no asymmetry footer"
        metric = float(footer[0].rsplit("=", 1)[1])
        # the off-resonance reference: the same grid, pumped one shift below
        # and above, computed in process
        shift = checks.series_shift(self.spec_a)
        half = 0.5 * (nu[-1] - nu[0])
        off = []
        for pump in (self.spec_pump - shift, self.spec_pump + shift):
            grid = np.linspace(pump - half, pump + half, nu.size)
            values = _spectrum(pkg, self.spec_a, pump, grid).values
            off.append(checks.mirror_asymmetry(grid, values, pump, math.hypot(shift, 0.5 * self.spec_a)))
        mine = checks.mirror_asymmetry(nu, s, self.spec_pump, 0.5 * self.spec_a)
        if not (max(mine, metric) < 0.1 * min(off)):
            return f"asymmetry at resonance {mine:.2e} (footer {metric:.2e}) vs off-resonance {min(off):.2e}"
        return ""

    def _check_validate(self, text: str, pkg) -> str:
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        checks_run = lines[:-1]
        if not checks_run:
            return "no checks reported"
        if not all(ln.startswith("PASS ") for ln in checks_run):
            return "; ".join(ln for ln in checks_run if not ln.startswith("PASS "))
        if lines[-1] != f"{len(checks_run)}/{len(checks_run)} checks passed":
            return lines[-1]
        return ""


WORKLOADS = {w.name: w for w in (ShiftSweep, Dissipative, Cli)}
