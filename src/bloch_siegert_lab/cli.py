"""Command-line front end: tables, sweeps, traces, and a validation suite.

Every command writes one delimited text block (CSV by default, TSV on
request) whose first line names the package version, the command, and the
parameters, and states that all quantities are in units of omega0.  Inputs
given with a different omega0 are rescaled internally so the outputs stay
in those units.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, validation
from .chrw import FrameMode, ModelParams, build_frame
from .dissipative import population_avg, rates
from .errors import BslError
from .resonance import Method, resonance_shift
from .spectrum import asymmetry_metric, default_probe_grid, spectrum

TABLE_GRID = tuple(validation.PAPER_TABLE)

# largest grid a range flag may ask for
MAX_GRID_POINTS = 1_000_000

_METHOD_ORDER = (
    Method.FLOQUET,
    Method.CHRW,
    Method.SHIRLEY,
    Method.ASYMPTOTIC,
    Method.PERT6,
)


class ConfigError(ValueError):
    """A flag value does not parse or make sense."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one command invocation needs, already validated and
    rescaled to omega0 = 1 units."""

    command: str
    omega0: float = 1.0
    amplitude: float = 0.1
    amplitudes: Optional[np.ndarray] = None
    omega: float = 1.0
    omegas: Optional[np.ndarray] = None
    kappa: float = 2e-3
    methods: Tuple[Method, ...] = _METHOD_ORDER
    mode: FrameMode = FrameMode.CHRW
    nus: Optional[np.ndarray] = None
    n_max: Optional[int] = None
    out: Optional[str] = None
    fmt: str = "csv"
    quick: bool = False
    floquet_n: Optional[int] = None

    @property
    def sep(self) -> str:
        return "\t" if self.fmt == "tsv" else ","


def _num(x: float) -> str:
    return f"{x:.9g}"


def _parse_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"range {text!r} has non-numeric parts") from exc
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ConfigError(f"range {text!r} must be finite")
    if step <= 0.0 or hi < lo:
        raise ConfigError(f"range {text!r} needs step > 0 and hi >= lo")
    span = (hi - lo) / step
    if not span < MAX_GRID_POINTS:
        # also an overflowed span; refuse before allocating the grid
        raise ConfigError(f"range {text!r} has more than {MAX_GRID_POINTS} points")
    count = int(math.floor(span + 1e-9)) + 1
    return lo + step * np.arange(count)


def _table(
    config: RunConfig, detail: str, columns: List[str], rows: List[List[str]], footer: Sequence[str] = ()
) -> str:
    """One command's output: header line, column line, rows, footer lines."""
    lines = [
        f"# bloch-siegert-lab v{__version__}, {config.command}, "
        f"omega0={_num(config.omega0)}, {detail}, units of omega0",
        config.sep.join(columns),
    ]
    lines.extend(config.sep.join(cells) for cells in rows)
    lines.extend(footer)
    return "\n".join(lines) + "\n"


def _grid_note(grid: np.ndarray) -> str:
    if grid.size == 1:
        return _num(float(grid[0]))
    step = float(grid[1] - grid[0])
    return f"{_num(float(grid[0]))}:{_num(float(grid[-1]))}:{_num(step)}"


def _shift_or_blank(method: Method, amp: float, notes: List[str]) -> Optional[float]:
    """Shift by one method at amp, or None where its cells stay blank.

    A BslError blanks the cells and adds a note for the diagnostics column.
    An asymptotic shift <= 0 is blank without a note: below the crossover
    the strong-drive branch has not opened yet, as the blank in the
    paper's table shows.
    """
    try:
        shift = resonance_shift(method, 1.0, amp).shift
    except BslError as exc:
        notes.append(f"{method.value}: {exc}")
        return None
    if method is Method.ASYMPTOTIC and shift <= 0.0:
        return None
    return shift


def cmd_shift_table(config: RunConfig) -> str:
    """Resonance shifts by all methods over a drive-amplitude grid."""
    amps = config.amplitudes if config.amplitudes is not None else np.array(TABLE_GRID)

    def row(amp: float) -> List[str]:
        cells = [_num(amp)]
        notes: List[str] = []
        for method in _METHOD_ORDER:
            shift = _shift_or_blank(method, amp, notes)
            cells.append("" if shift is None else _num(shift))
        cells.append("; ".join(notes))
        return cells

    return _table(
        config,
        f"A-grid={_grid_note(np.asarray(amps))}",
        ["a_over_omega0", "floquet", "chrw", "shirley", "asymptotic", "perturbative", "diagnostics"],
        [row(float(a)) for a in amps],
    )


def cmd_shift_sweep(config: RunConfig) -> str:
    """Dense shift curves with per-method deviation from the numerical result."""
    amps = config.amplitudes if config.amplitudes is not None else _parse_range("0.1:21:0.1")
    methods = [m for m in _METHOD_ORDER if m in config.methods and m is not Method.FLOQUET]

    def row(amp: float) -> List[str]:
        cells = [_num(amp)]
        notes: List[str] = []
        reference = _shift_or_blank(Method.FLOQUET, amp, notes)
        cells.append("" if reference is None else _num(reference))
        for method in methods:
            shift = _shift_or_blank(method, amp, notes)
            if shift is None:
                cells.extend(["", ""])
            elif reference is None or reference == 0.0:
                cells.extend([_num(shift), ""])
            else:
                cells.extend([_num(shift), _num(abs(shift - reference) / reference)])
        cells.append("; ".join(notes))
        return cells

    columns = ["a_over_omega0", "shift_floquet"]
    for method in methods:
        columns.extend([f"shift_{method.value}", f"dev_{method.value}"])
    columns.append("diagnostics")
    return _table(
        config, f"A-grid={_grid_note(np.asarray(amps))}", columns, [row(float(a)) for a in amps]
    )


def cmd_population(config: RunConfig) -> str:
    """Time-averaged excited population against pump frequency."""
    omegas = config.omegas if config.omegas is not None else _parse_range("0.995:1.005:0.0001")
    amp = config.amplitude

    def row(w: float) -> List[str]:
        if amp == 0.0:
            # no drive: the atom relaxes to the ground state and the dressed
            # reduction (which needs a finite splitting) is not consulted
            return [_num(w), _num(0.0), ""]
        try:
            params = ModelParams(omega0=1.0, amplitude=amp, omega=w, kappa=config.kappa)
            frame = build_frame(params, mode=config.mode)
            value = population_avg(frame, params, rates(frame, params))
            return [_num(w), _num(value), ""]
        except BslError as exc:
            return [_num(w), "", str(exc)]

    return _table(
        config,
        f"A={_num(amp)}, kappa={_num(config.kappa)}, mode={config.mode.value}, "
        f"omega-grid={_grid_note(np.asarray(omegas))}",
        ["omega", "population", "diagnostics"],
        [row(float(w)) for w in omegas],
    )


def cmd_spectrum(config: RunConfig) -> str:
    """Probe absorption trace for one pump setting, asymmetry in the footer."""
    params = ModelParams(
        omega0=1.0, amplitude=config.amplitude, omega=config.omega, kappa=config.kappa
    )
    if config.nus is not None:
        nus = config.nus
    else:
        frame = build_frame(params, mode=config.mode)
        nus = default_probe_grid(config.omega, frame.rabi_tilde, 1101)
        if not np.all(np.diff(nus) > 0.0):
            raise ConfigError(
                f"the default probe window, pump +- 2.2 dressed splittings, is empty "
                f"(splitting {_num(frame.rabi_tilde)}); give the probe grid with --nu-range"
            )
    trace = spectrum(params, nus, mode=config.mode, n_max=config.n_max)
    try:
        metric = asymmetry_metric(trace, config.omega)
        footer = f"# asymmetry_metric(center={_num(config.omega)}) = {_num(metric)}"
    except BslError as exc:
        footer = f"# asymmetry_metric unavailable: {exc}"
    return _table(
        config,
        f"A={_num(config.amplitude)}, omega={_num(config.omega)}, "
        f"kappa={_num(config.kappa)}, mode={config.mode.value}, "
        f"n_max={trace.n_max}, normalization=peak_unit, "
        f"nu-grid={_grid_note(np.asarray(nus))}",
        ["nu", "S"],
        [[_num(float(nu)), _num(float(val))] for nu, val in zip(trace.nu_grid, trace.values)],
        [footer],
    )


def cmd_validate(config: RunConfig) -> Tuple[str, int]:
    """Run the check registry; report pass/fail per check."""
    checks = validation.checks(config.quick, config.floquet_n)
    lines = [f"# bloch-siegert-lab v{__version__}, validate, quick={config.quick}"]
    failures = 0
    for name, run in checks:
        try:
            result = run()
            ok, detail = result.ok, result.report()
        except BslError as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    lines.append(f"{len(checks) - failures}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n", 0 if failures == 0 else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--omega0", type=float, default=1.0, help="unit frequency (outputs are in these units)")
    parser.add_argument("--out", type=str, default=None, help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "tsv"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsl",
        description="Bloch-Siegert shifts, populations, and probe spectra of the driven two-level system.",
    )
    parser.add_argument("--version", action="version", version=f"bloch-siegert-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shift-table", help="resonance shifts by all methods on an amplitude grid")
    _add_common(p)
    p.add_argument("--A", type=float, default=None, help="single drive amplitude")
    p.add_argument("--A-range", type=str, default=None, help="amplitude grid lo:hi:step")

    p = sub.add_parser("shift-sweep", help="dense shift and deviation curves")
    _add_common(p)
    p.add_argument("--A", type=float, default=None)
    p.add_argument("--A-range", type=str, default=None)
    p.add_argument(
        "--method",
        choices=[m.value for m in _METHOD_ORDER] + ["all"],
        default="all",
        help="analytic method(s) to compare against the numerical shift",
    )

    p = sub.add_parser("population", help="time-averaged excited population vs pump frequency")
    _add_common(p)
    p.add_argument("--A", type=float, default=0.1)
    p.add_argument("--kappa", type=float, default=2e-3)
    p.add_argument("--omega-range", type=str, default=None, help="pump grid lo:hi:step")
    p.add_argument("--mode", choices=("chrw", "rwa"), default="chrw")

    p = sub.add_parser("spectrum", help="probe absorption trace at one pump setting")
    _add_common(p)
    p.add_argument("--A", type=float, default=0.1)
    p.add_argument("--omega", type=float, default=1.0, help="pump frequency")
    p.add_argument("--kappa", type=float, default=2e-3)
    p.add_argument("--nu-range", type=str, default=None, help="probe grid lo:hi:step")
    p.add_argument("--n-max", type=int, default=None, help="highest odd sideband family")
    p.add_argument("--mode", choices=("chrw", "rwa"), default="chrw")

    p = sub.add_parser("validate", help="run the oracle cross-checks and regression table")
    _add_common(p)
    p.add_argument("--quick", action="store_true",
                   help="run only table-regression, floquet-convergence and "
                        "spectrum-vs-resolvent, at reduced size")
    p.add_argument("--floquet-N", type=int, default=None, dest="floquet_n",
                   help="override the Floquet truncation in the convergence check")

    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    omega0 = args.omega0
    if not (math.isfinite(omega0) and omega0 > 0.0):
        raise ConfigError(f"omega0 must be positive and finite, got {omega0}")

    def scaled_grid(single: Optional[float], rng: Optional[str]) -> Optional[np.ndarray]:
        if single is not None and rng is not None:
            raise ConfigError("give either a single value or a range, not both")
        if single is not None:
            return np.array([single / omega0])
        if rng is not None:
            return _parse_range(rng) / omega0
        return None

    for flag in ("A", "kappa", "omega"):
        value = getattr(args, flag, None)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"--{flag} must be finite, got {value}")

    kwargs = dict(command=args.command, omega0=omega0, out=args.out, fmt=args.format)
    if args.command in ("shift-table", "shift-sweep"):
        amplitudes = scaled_grid(args.A, args.A_range)
        if amplitudes is not None and np.any(amplitudes < 0.0):
            raise ConfigError("A must be non-negative")
        kwargs["amplitudes"] = amplitudes
        if args.command == "shift-sweep":
            if args.method == "all":
                kwargs["methods"] = _METHOD_ORDER
            else:
                kwargs["methods"] = (Method(args.method),)
    elif args.command == "population":
        if args.A < 0.0 or args.kappa < 0.0:
            raise ConfigError("A and kappa must be non-negative")
        kwargs["amplitude"] = args.A / omega0
        kwargs["kappa"] = args.kappa / omega0
        kwargs["omegas"] = scaled_grid(None, args.omega_range)
        kwargs["mode"] = FrameMode(args.mode)
    elif args.command == "spectrum":
        if args.A < 0.0 or args.kappa <= 0.0 or args.omega <= 0.0:
            raise ConfigError("spectrum needs A >= 0, kappa > 0 and omega > 0")
        kwargs["amplitude"] = args.A / omega0
        kwargs["kappa"] = args.kappa / omega0
        kwargs["omega"] = args.omega / omega0
        kwargs["nus"] = scaled_grid(None, args.nu_range)
        if args.n_max is not None and (args.n_max < 1 or args.n_max % 2 == 0):
            raise ConfigError(f"--n-max must be positive and odd, got {args.n_max}")
        kwargs["n_max"] = args.n_max
        kwargs["mode"] = FrameMode(args.mode)
    elif args.command == "validate":
        if args.floquet_n is not None and args.floquet_n < 0:
            raise ConfigError(f"--floquet-N must be non-negative, got {args.floquet_n}")
        kwargs["quick"] = args.quick
        kwargs["floquet_n"] = args.floquet_n
    return RunConfig(**kwargs)


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from(args)
        if config.command == "shift-table":
            _write(cmd_shift_table(config), config.out)
        elif config.command == "shift-sweep":
            _write(cmd_shift_sweep(config), config.out)
        elif config.command == "population":
            _write(cmd_population(config), config.out)
        elif config.command == "spectrum":
            _write(cmd_spectrum(config), config.out)
        elif config.command == "validate":
            text, code = cmd_validate(config)
            _write(text, config.out)
            return code
    except ConfigError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (BslError, ValueError) as exc:
        sys.stderr.write(f"{parser.prog}: numerical failure: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
