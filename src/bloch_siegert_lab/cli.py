"""Command-line front end: tables, sweeps, traces, and a validation suite.

Every command writes one delimited text block (CSV by default, TSV on
request) whose first line names the package version, the command, and the
parameters, and states that all quantities are in units of omega0.

The command line is parsed in one step: each flag's `type=` converter
checks its value, and each subcommand binds its `cmd_*` function, which
reads the parsed namespace and returns its text and exit code.  Defaults
are in units of omega0; an amplitude, rate or frequency given on the
command line is divided by `--omega0` in one place, after parsing, so
`--omega0` alone changes only the header.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, validation
from .chrw import FrameMode, ModelParams, build_frame
from .dissipative import population_avg, rates
from .errors import BslError, ValidityWarning
from .resonance import Method, resonance_shift
from .spectrum import asymmetry_metric, default_probe_grid, spectrum

TABLE_GRID = tuple(validation.PAPER_TABLE)

# largest grid a range flag may ask for
MAX_GRID_POINTS = 1_000_000


class ConfigError(argparse.ArgumentTypeError):
    """A flag value does not parse or make sense: exit code 2, with the flag named by argparse
    when a `type=` converter raises it."""


def _num(x: float) -> str:
    return f"{x:.9g}"


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"must be finite, got {text}")
    return value


def _non_negative(text: str) -> float:
    value = _finite(text)
    if value < 0.0:
        raise ConfigError(f"must be non-negative, got {text}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0.0:
        raise ConfigError(f"must be positive, got {text}")
    return value


def _odd_positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise ConfigError(f"not an integer: {text!r}") from exc
    if value < 1 or value % 2 == 0:
        raise ConfigError(f"must be positive and odd, got {value}")
    return value


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


def _amplitude(text: str) -> np.ndarray:
    return np.array([_non_negative(text)])


def _amplitude_range(text: str) -> np.ndarray:
    grid = _parse_range(text)
    if grid[0] < 0.0:
        raise ConfigError(f"range {text!r} must be non-negative")
    return grid


def _positive_range(text: str) -> np.ndarray:
    grid = _parse_range(text)
    if not grid[0] > 0.0:
        raise ConfigError(f"range {text!r} must be positive")
    return grid


class _Given(argparse.Action):
    """Store the value and note its action, so that `main` divides it by --omega0."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = {**getattr(namespace, "given", {}), self.dest: self}


def _divide_by_omega0(args: argparse.Namespace) -> None:
    """Divide each given value by --omega0, the one place the CLI rescales.

    Defaults are already in units of omega0.  The quotient must keep its
    flag's rule: finite, and positive where the flag needs that; a
    quotient that overflows or underflows to 0 is a ConfigError naming the
    flag.
    """
    for dest, action in getattr(args, "given", {}).items():
        with np.errstate(over="ignore"):
            value = getattr(args, dest) / args.omega0
        rule = "positive" if action.type in (_positive, _positive_range) else "finite"
        if not np.all(np.isfinite(value)) or rule == "positive" and not np.all(value > 0.0):
            raise ConfigError(
                f"argument {'/'.join(action.option_strings)}: must be {rule} "
                f"once divided by --omega0={_num(args.omega0)}"
            )
        setattr(args, dest, value)


def _table(
    args: argparse.Namespace, detail: str, columns: List[str], rows: List[List[str]], footer: Sequence[str] = ()
) -> Tuple[str, int]:
    """One command's output (header line, column line, rows, footer lines) and exit code 0."""
    sep = "\t" if args.format == "tsv" else ","
    lines = [
        f"# bloch-siegert-lab v{__version__}, {args.command}, "
        f"omega0={_num(args.omega0)}, {detail}, units of omega0",
        sep.join(columns),
    ]
    lines.extend(sep.join(cells) for cells in rows)
    lines.extend(footer)
    return "\n".join(lines) + "\n", 0


def _grid_note(grid: np.ndarray) -> str:
    if grid.size == 1:
        return _num(float(grid[0]))
    step = float(grid[1] - grid[0])
    return f"{_num(float(grid[0]))}:{_num(float(grid[-1]))}:{_num(step)}"


def _shift_row(amp: float, methods: Sequence[Method]) -> Tuple[List[Optional[float]], str]:
    """The Floquet reference and each method's shift at amp, then the
    diagnostics column; None where a shift's cells stay blank.

    A BslError blanks the cells and adds a note, Floquet's first.  An
    asymptotic shift <= 0 is blank without a note: below the crossover the
    strong-drive branch has not opened yet, as the blank in the paper's
    table shows.
    """
    shifts: List[Optional[float]] = []
    notes: List[str] = []
    for method in (Method.FLOQUET, *methods):
        try:
            shift = resonance_shift(method, 1.0, amp).shift
        except BslError as exc:
            notes.append(f"{method.value}: {exc}")
            shift = None
        if method is Method.ASYMPTOTIC and shift is not None and shift <= 0.0:
            shift = None
        shifts.append(shift)
    return shifts, "; ".join(notes)


def _cell(shift: Optional[float]) -> str:
    return "" if shift is None else _num(shift)


def cmd_shift_table(args: argparse.Namespace) -> Tuple[str, int]:
    """Resonance shifts by all methods over a drive-amplitude grid."""
    amps = np.array(TABLE_GRID) if args.amps is None else args.amps
    rows = []
    for amp in map(float, amps):
        shifts, notes = _shift_row(amp, tuple(Method)[1:])
        rows.append([_num(amp), *map(_cell, shifts), notes])
    return _table(
        args,
        f"A-grid={_grid_note(amps)}",
        ["a_over_omega0", "floquet", "chrw", "shirley", "asymptotic", "perturbative", "diagnostics"],
        rows,
    )


def cmd_shift_sweep(args: argparse.Namespace) -> Tuple[str, int]:
    """Dense shift curves with per-method deviation from the numerical result."""
    amps = _parse_range("0.1:21:0.1") if args.amps is None else args.amps
    methods = [m for m in tuple(Method)[1:] if args.method in ("all", m.value)]
    rows = []
    for amp in map(float, amps):
        (reference, *shifts), notes = _shift_row(amp, methods)
        cells = [_num(amp), _cell(reference)]
        for shift in shifts:
            blank = shift is None or reference is None or reference == 0.0
            cells.extend([_cell(shift), "" if blank else _num(abs(shift - reference) / reference)])
        rows.append(cells + [notes])
    columns = ["a_over_omega0", "shift_floquet"]
    for method in methods:
        columns.extend([f"shift_{method.value}", f"dev_{method.value}"])
    columns.append("diagnostics")
    return _table(args, f"A-grid={_grid_note(amps)}", columns, rows)


def cmd_population(args: argparse.Namespace) -> Tuple[str, int]:
    """Time-averaged excited population against pump frequency."""
    amp, mode = args.A, FrameMode(args.mode)

    def row(w: float) -> List[str]:
        try:
            params = ModelParams(omega0=1.0, amplitude=amp, omega=w, kappa=args.kappa)
            frame = build_frame(params, mode=mode)
            value = population_avg(frame, params, rates(frame, params))
            return [_num(w), _num(value), ""]
        except BslError as exc:
            return [_num(w), "", str(exc)]

    return _table(
        args,
        f"A={_num(amp)}, kappa={_num(args.kappa)}, mode={mode.value}, "
        f"omega-grid={_grid_note(args.omegas)}",
        ["omega", "population", "diagnostics"],
        [row(float(w)) for w in args.omegas],
    )


def cmd_spectrum(args: argparse.Namespace) -> Tuple[str, int]:
    """Probe absorption trace for one pump setting, asymmetry in the footer."""
    mode = FrameMode(args.mode)
    params = ModelParams(omega0=1.0, amplitude=args.A, omega=args.omega, kappa=args.kappa)
    nus = args.nus
    if nus is None:
        frame = build_frame(params, mode=mode)
        nus = default_probe_grid(args.omega, frame.rabi_tilde, 1101)
        if not np.all(np.diff(nus) > 0.0):
            raise ConfigError(
                f"the default probe window, pump +- 2.2 dressed splittings, is empty "
                f"(splitting {_num(frame.rabi_tilde)}); give the probe grid with --nu-range"
            )
    # a warning is part of the output, as a footer line, not Python's report on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ValidityWarning)
        trace = spectrum(params, nus, mode=mode, n_max=args.n_max)
    footer = [f"# warning: {w.message}" for w in caught]
    try:
        metric = asymmetry_metric(trace, args.omega)
        footer.append(f"# asymmetry_metric(center={_num(args.omega)}) = {_num(metric)}")
    except BslError as exc:
        footer.append(f"# asymmetry_metric unavailable: {exc}")
    return _table(
        args,
        f"A={_num(args.A)}, omega={_num(args.omega)}, "
        f"kappa={_num(args.kappa)}, mode={mode.value}, "
        f"n_max={trace.n_max}, normalization=peak_unit, "
        f"nu-grid={_grid_note(nus)}",
        ["nu", "S"],
        [[_num(float(nu)), _num(float(val))] for nu, val in zip(trace.nu_grid, trace.values)],
        footer,
    )


def cmd_validate(args: argparse.Namespace) -> Tuple[str, int]:
    """Run the check registry; report pass/fail per check, exit code 1 on any failure."""
    checks = validation.checks(args.quick)
    lines = [f"# bloch-siegert-lab v{__version__}, validate, quick={args.quick}"]
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


def build_parser() -> argparse.ArgumentParser:
    # flags shared by several commands, defined once and inherited through parents=
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--omega0", type=_positive, default=1.0,
                        help="unit frequency: given amplitudes, rates and frequencies are "
                             "divided by it, outputs are in units of omega0 (default 1)")
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "tsv"), default="csv",
                        help="comma- or tab-separated output (default csv)")

    grid = argparse.ArgumentParser(add_help=False)
    one = grid.add_mutually_exclusive_group()
    one.add_argument("--A", dest="amps", type=_amplitude, action=_Given, metavar="A",
                     help="single drive amplitude, instead of a grid")
    one.add_argument("--A-range", dest="amps", type=_amplitude_range, action=_Given,
                     metavar="LO:HI:STEP", help="drive-amplitude grid, both ends included")

    drive = argparse.ArgumentParser(add_help=False)
    drive.add_argument("--A", type=_non_negative, default=0.1, action=_Given,
                       help="drive amplitude (default 0.1)")
    drive.add_argument("--mode", choices=("chrw", "rwa"), default="chrw",
                       help="chrw frame, or rwa with xi = 0 (default chrw)")
    drive.add_argument("--kappa", type=_positive, default=2e-3, action=_Given,
                       help="bare decay rate of the excited state, > 0 (default 2e-3)")

    parser = argparse.ArgumentParser(
        prog="bsl",
        description="Bloch-Siegert shifts, populations, and probe spectra of the driven two-level system.",
    )
    parser.add_argument("--version", action="version", version=f"bloch-siegert-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shift-table", parents=[common, grid],
                       help="resonance shifts by all methods on an amplitude grid")
    p.set_defaults(run=cmd_shift_table)

    p = sub.add_parser("shift-sweep", parents=[common, grid], help="dense shift and deviation curves")
    p.add_argument(
        "--method",
        choices=[m.value for m in Method] + ["all"],
        default="all",
        help="analytic method(s) to compare against the numerical shift",
    )
    p.set_defaults(run=cmd_shift_sweep)

    p = sub.add_parser("population", parents=[common, drive],
                       help="time-averaged excited population vs pump frequency")
    p.add_argument("--omega-range", dest="omegas", type=_positive_range, default="0.995:1.005:0.0001",
                   action=_Given, metavar="LO:HI:STEP", help="pump grid (default %(default)s)")
    p.set_defaults(run=cmd_population)

    p = sub.add_parser("spectrum", parents=[common, drive], help="probe absorption trace at one pump setting")
    p.add_argument("--omega", type=_positive, default=1.0, action=_Given, help="pump frequency (default 1)")
    p.add_argument("--nu-range", dest="nus", type=_positive_range, action=_Given, metavar="LO:HI:STEP",
                   help="probe grid (default: 1101 points over the pump +- 2.2 dressed splittings)")
    p.add_argument("--n-max", type=_odd_positive,
                   help="highest odd sideband family (default: the smallest covering the probe grid)")
    p.set_defaults(run=cmd_spectrum)

    p = sub.add_parser("validate", parents=[common],
                       help="run the oracle cross-checks and regression table")
    p.add_argument("--quick", action="store_true",
                   help="run only table-regression, floquet-convergence and "
                        "spectrum-vs-resolvent, at reduced size")
    p.set_defaults(run=cmd_validate)

    return parser


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _divide_by_omega0(args)
        text, code = args.run(args)
        _write(text, args.out)
    except ConfigError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (BslError, ValueError) as exc:
        sys.stderr.write(f"{parser.prog}: numerical failure: {exc}\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
