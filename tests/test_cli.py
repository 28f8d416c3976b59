"""Command-line surface: parsing, formats, rescaling, determinism, exit codes."""

import argparse
import re
from pathlib import Path

import numpy as np
import pytest

from bloch_siegert_lab import __version__, floquet
from bloch_siegert_lab.cli import (
    TABLE_GRID,
    ConfigError,
    _parse_range,
    build_parser,
    cmd_shift_table,
    main,
)
from bloch_siegert_lab.validation import PAPER_TABLE


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestParseRange:
    def test_inclusive_endpoints(self):
        np.testing.assert_allclose(_parse_range("0.5:2:0.5"), [0.5, 1.0, 1.5, 2.0])

    def test_single_point(self):
        np.testing.assert_allclose(_parse_range("1.5:1.5:1"), [1.5])

    def test_endpoint_survives_float_noise(self):
        # 0.1 steps accumulate rounding; the count must still include 2.0
        grid = _parse_range("1:2:0.1")
        assert len(grid) == 11
        assert grid[-1] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "text",
        [
            "1:2", "1:2:0", "2:1:0.5", "a:b:c", "1:2:-0.1", "",
            "nan:1:0.5", "0:inf:0.5", "1:1.1:nan",
            # too many points, the first by overflow: rejected before allocating
            "0:1e300:1e-300", "0:1:1e-7",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ConfigError):
            _parse_range(text)


class TestShiftTable:
    def test_reference_row(self, capsys):
        code, out = _run(capsys, ["shift-table", "--A", "1"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# bloch-siegert-lab v")
        assert lines[0].endswith("units of omega0")
        assert lines[1] == (
            "a_over_omega0,floquet,chrw,shirley,asymptotic,perturbative,diagnostics"
        )
        # the strong-drive branch has not opened at A = omega0, so that
        # cell stays empty
        assert lines[2] == "1,0.0632237237,0.0632679904,0.0632278503,,0.0632095337,"

    def test_zero_amplitude(self, capsys):
        code, out = _run(capsys, ["shift-table", "--A", "0"])
        assert code == 0
        assert out.strip().split("\n")[2] == "0,0,0,0,,0,"

    @pytest.mark.parametrize("omega0", ["1e-9", "2", "1e12"])
    @pytest.mark.parametrize(
        "command, given",
        [
            ("shift-table", [("--A", "1")]),
            # the last of repeated values counts, divided once
            ("shift-table", [("--A", "7"), ("--A", "1")]),
            ("shift-sweep", [("--A-range", "0.5:2:0.5")]),
            ("population", [("--A", "0.1"), ("--kappa", "0.002"), ("--omega-range", "0.999:1.001:0.0005")]),
            ("spectrum", [("--A", "0.1"), ("--omega", "1.0006250974"), ("--kappa", "0.002"),
                          ("--nu-range", "0.99:1.01:0.001")]),
        ],
        ids=["shift-table", "repeated-flag", "shift-sweep", "population", "spectrum"],
    )
    def test_omega0_rescaling(self, capsys, command, given, omega0):
        # defaults are in units of omega0, so --omega0 alone changes only
        # the header; inputs given in any unit system produce the same table
        # in units of omega0.  Only the header records the original scale
        def lines(argv):
            code, out = _run(capsys, argv)
            assert code == 0
            return out.split("\n")

        def scaled(value):
            return ":".join(repr(float(part) * float(omega0)) for part in value.split(":"))

        native = [command] + [item for flag, value in given for item in (flag, value)]
        rescaled = [command] + [item for flag, value in given for item in (flag, scaled(value))]
        for plain, other in (([command], [command, "--omega0", omega0]),
                             (native, rescaled + ["--omega0", omega0])):
            expected, got = lines(plain), lines(other)
            assert got[0] == expected[0].replace("omega0=1,", f"omega0={float(omega0):.9g},")
            assert got[1:] == expected[1:]

    def test_tsv_format(self, capsys):
        code, out = _run(capsys, ["shift-table", "--A", "1", "--format", "tsv"])
        assert code == 0
        assert "\t" in out.split("\n")[1]
        assert "," not in out.split("\n")[2]

    def test_default_grid_matches_reference_amplitudes(self):
        assert TABLE_GRID == tuple(sorted(PAPER_TABLE))
        args = build_parser().parse_args(["shift-table"])
        table, _ = cmd_shift_table(args)
        rows = table.strip().split("\n")[2:]
        assert len(rows) == len(TABLE_GRID)
        # every reference row must carry a numeric cell for the first three
        # methods; asymptotic is empty exactly when the reference is
        for row, amp in zip(rows, TABLE_GRID):
            cells = row.split(",")
            assert cells[0] == f"{amp:.9g}"
            assert all(cells[i] for i in (1, 2, 3))
            assert bool(cells[4]) == (PAPER_TABLE[amp][3] is not None)

    def test_strong_drive_shirley_cells(self, capsys):
        # the crossing condition has one root on every shift bracket, so
        # the shirley cells are filled at strong drive too, with no note
        code, out = _run(capsys, ["shift-table", "--A-range", "80:120:20"])
        assert code == 0
        assert "shirley:" not in out
        assert out.strip().split("\n")[2:] == [
            "80,32.277354,32.2751985,32.2041883,32.2664462,-69959600,",
            "100,40.5917837,40.5900038,40.55198,40.5830577,-266930527,",
            "120,48.9069408,48.9054268,48.9045444,48.8996693,-797140350,",
        ]


    def test_printed_cells_pinned(self, capsys):
        # the whole default table, frozen at nine digits
        code, out = _run(capsys, ["shift-table"])
        assert code == 0
        assert out.split("\n") == [
            f"# bloch-siegert-lab v{__version__}, shift-table, omega0=1, "
            "A-grid=1:21:2.5, units of omega0",
            "a_over_omega0,floquet,chrw,shirley,asymptotic,perturbative,diagnostics",
            "1,0.0632237237,0.0632679904,0.0632278503,,0.0632095337,",
            "3.5,0.707959029,0.716199657,0.712319893,0.455407021,0.42130053,",
            "6,1.64180855,1.64992379,1.65048212,1.49498346,-8.94287109,",
            "8.5,2.63778677,2.6400751,2.63925531,2.53455991,-91.0964435,",
            "11,3.65373977,3.65235128,3.64137333,3.57413635,-451.197472,",
            "13.5,4.67850247,4.67527052,4.65038395,4.61371279,-1572.61703,",
            "16,5.70791917,5.7038252,5.66460198,5.65328924,-4400,",
            "18.5,6.74009309,6.73563687,6.68319039,6.69286568,-10569.2644,",
            "21,7.77403527,7.76947387,7.70549193,7.73244212,-22684.5398,",
            "",
        ]


class TestShiftSweep:
    def test_columns_and_small_drive_deviations(self, capsys):
        code, out = _run(capsys, ["shift-sweep", "--A", "0.001"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1].split(",") == [
            "a_over_omega0",
            "shift_floquet",
            "shift_chrw",
            "dev_chrw",
            "shift_shirley",
            "dev_shirley",
            "shift_asymptotic",
            "dev_asymptotic",
            "shift_pert6",
            "dev_pert6",
            "diagnostics",
        ]
        cells = lines[2].split(",")
        # at a thousandth of the splitting every perturbative route agrees
        # with the numerical one to the reference's own noise floor (the
        # shift itself is ~2.5e-7, resolved to ~1e-11 absolute); the
        # strong-drive branch is blank this far below its crossover
        assert float(cells[3]) < 1e-4
        assert float(cells[5]) < 1e-4
        assert cells[6] == "" and cells[7] == ""
        assert float(cells[9]) < 1e-4

    def test_printed_cells_pinned(self, capsys):
        # the default sweep's first four rows and its last, frozen at nine
        # digits; the dev_* cells of the first four rows divide differences
        # of 8e-11 to 2e-5 relative by the Floquet shift, so their ninth
        # digits read its last bits (a change of 1e-14 relative in the
        # shift moves them)
        code, out = _run(capsys, ["shift-sweep"])
        assert code == 0
        body = out.strip().split("\n")[2:]
        assert len(body) == 210
        assert body[:4] == [
            "0.1,0.000625097389,0.000625097441,8.26114544e-08,0.000625097389,"
            "8.93661406e-11,,,0.000625097389,1.96797478e-10,",
            "0.2,0.00250154544,0.00250154873,1.31576887e-06,0.00250154546,"
            "5.66607797e-09,,,0.00250154541,1.26599758e-08,",
            "0.3,0.00563271631,0.00563275354,6.61017419e-06,0.00563271667,"
            "6.35378839e-08,,,0.00563271549,1.45419035e-07,",
            "0.4,0.0100239145,0.0100241217,2.06652286e-05,0.010023918,"
            "3.49240805e-07,,,0.0100239063,8.26387547e-07,",
        ]
        assert body[-1] == (
            "21,7.77403527,7.76947387,0.000586747008,7.70549193,0.00881695718,"
            "7.73244212,0.00535026413,-22684.5398,2918.98776,"
        )

    def test_shift_cells_match_shift_table(self, capsys):
        # both commands print the same shift cells and diagnostics for one
        # amplitude, blanks included: every root-found route fails at
        # 1e-300, the asymptotic branch is closed at 0.5, shirley and pert6
        # overflow at 9.5e51
        for amp in ("1e-300", "0.5", "6", "9.5e51"):
            _, table = _run(capsys, ["shift-table", "--A", amp])
            _, sweep = _run(capsys, ["shift-sweep", "--A", amp])
            t = table.strip().split("\n")[2].split(",")
            s = sweep.strip().split("\n")[2].split(",")
            # the sweep follows each method's shift with its deviation
            assert t == s[:2] + s[2:10:2] + s[10:]

    def test_single_method_selection(self, capsys):
        code, out = _run(capsys, ["shift-sweep", "--A", "1", "--method", "chrw"])
        assert code == 0
        header = out.strip().split("\n")[1]
        assert header == "a_over_omega0,shift_floquet,shift_chrw,dev_chrw,diagnostics"


class TestPopulation:
    def test_peak_sits_above_bare_resonance(self, capsys):
        code, out = _run(
            capsys,
            ["population", "--A", "0.1", "--kappa", "0.002",
             "--omega-range", "0.999:1.002:0.0001"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "omega,population,diagnostics"
        data = [line.split(",") for line in lines[2:]]
        omegas = np.array([float(r[0]) for r in data])
        pops = np.array([float(r[1]) for r in data])
        peak_omega = omegas[int(np.argmax(pops))]
        assert peak_omega == pytest.approx(1.0006, abs=1e-9)
        assert np.max(pops) < 0.5

    def test_printed_cells_pinned(self, capsys):
        # the default weak-drive sweep (first, peak at row 56 of 101, last)
        # and the strong-drive sweep (peak, last), frozen at nine digits
        code, out = _run(capsys, ["population", "--A", "0.1"])
        assert code == 0
        body = out.strip().split("\n")[2:]
        assert len(body) == 101
        assert body[0] == "0.995,0.487661476,"
        assert body[56] == "1.0006,0.499999752,"
        assert body[-1] == "1.005,0.492461862,"
        code, out = _run(capsys, ["population", "--A", "8.5", "--omega-range", "0.9:1.1:0.01"])
        assert code == 0
        body = out.strip().split("\n")[2:]
        assert len(body) == 21
        assert body[9] == "0.99,0.499980699,"
        assert body[-1] == "1.1,0.467163909,"

    def test_zero_drive_populations_vanish(self, capsys):
        code, out = _run(
            capsys, ["population", "--A", "0", "--omega-range", "0.99:1.01:0.01"]
        )
        assert code == 0
        for line in out.strip().split("\n")[2:]:
            assert line.split(",")[1] == "0"

    def test_below_secular_ratio_is_blank_with_diagnostic(self, capsys):
        # A = 0.001 on resonance: the dressed splitting is kappa / 4
        code, out = _run(capsys, ["population", "--A", "0.001", "--omega-range", "1:1:1"])
        assert code == 0
        assert out.strip().split("\n")[2] == "1,,dressed splitting 0.0005 is below 10 kappa"


class TestSpectrum:
    def test_trace_with_metric_footer(self, capsys):
        code, out = _run(capsys, ["spectrum", "--A", "0.1", "--omega", "1.0006250974"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "nu,S"
        assert lines[-1].startswith("# asymmetry_metric(center=")
        metric = float(lines[-1].split("=")[-1])
        assert metric < 1e-3
        body = [line.split(",") for line in lines[2:-1]]
        assert len(body) == 1101
        values = np.array([float(r[1]) for r in body])
        assert np.max(np.abs(values)) == pytest.approx(1.0, abs=1e-9)

    def test_footer_matches_readme(self, capsys):
        # README pins this footer at nine digits
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        pinned = readme.split("$ bsl spectrum --A 0.1 --omega 1.0006250974 | tail -1\n", 1)[1]
        code, out = _run(capsys, ["spectrum", "--A", "0.1", "--omega", "1.0006250974"])
        assert code == 0
        assert out.strip().split("\n")[-1] == pinned.split("\n", 1)[0]

    def test_strong_drive_default_grid_stays_positive(self, capsys):
        # 2.2 dressed splittings below the pump would reach nu <= 0 at A = 1
        code, out = _run(capsys, ["spectrum", "--A", "1"])
        assert code == 0
        body = [line.split(",") for line in out.strip().split("\n")[2:-1]]
        assert len(body) == 1101
        nu = np.array([float(r[0]) for r in body])
        values = np.array([float(r[1]) for r in body])
        assert nu[0] > 0.0
        assert np.all(np.isfinite(values))

    def test_printed_cells_pinned(self, capsys):
        # four printed cells of the strong-drive trace at omega0, frozen at
        # nine digits: first, peak (row 800 of 1101), last, and the footer
        code, out = _run(capsys, ["spectrum", "--A", "0.4"])
        assert code == 0
        lines = out.strip().split("\n")
        body = lines[2:-1]
        assert len(body) == 1101
        assert body[0] == "0.560552652,0.00031853957"
        assert body[800] == "1.19974879,1"
        assert body[-1] == "1.43944735,0.000395456407"
        assert lines[-1] == "# asymmetry_metric(center=1) = 0.933022532"

    @pytest.mark.parametrize(
        "amp, metric", [("1e-5", "0.999967411"), ("1e-6", "0.968452739"), ("1e-7", "0.0280550234")]
    )
    def test_weak_drive_default_grid_is_scored(self, capsys, amp, metric):
        # the default grid's step is about 2e-8 near nu = 1, so linspace's
        # rounding there outweighs 1e-9 of a step; the grid is still uniform.
        # At A = 1e-7 the 50-digit trace of the same closed forms gives
        # 0.0280550233915
        code, out = _run(capsys, ["spectrum", "--A", amp, "--kappa", "1e-12"])
        assert code == 0
        assert out.strip().split("\n")[-1] == f"# asymmetry_metric(center=1) = {metric}"

    def test_validity_warning_is_a_footer_line(self, capsys):
        # below 10 kappa the sideband decomposition degrades: the note is a
        # footer line above the metric, and stderr stays empty
        code = main(["spectrum", "--A", "1e-3"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out.strip().split("\n")[-2] == (
            "# warning: dressed splitting 0.0005 is not large against kappa = 0.002; "
            "the sideband decomposition degrades here"
        )

    def test_explicit_grid_without_center_reports_reason(self, capsys):
        # a probe grid that misses the pump frequency cannot be scored; the
        # footer must say why instead of failing the whole trace
        code, out = _run(
            capsys,
            ["spectrum", "--A", "0.1", "--omega", "1.0", "--nu-range", "1.01:1.06:0.001"],
        )
        assert code == 0
        assert out.strip().split("\n")[-1].startswith("# asymmetry_metric unavailable:")


class TestValidate:
    def test_quick_suite_passes(self, capsys):
        code, out = _run(capsys, ["validate", "--quick"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[-1] == "3/3 checks passed"
        assert all(line.startswith("PASS") for line in lines[1:-1])

    def test_full_suite_matches_readme(self, capsys):
        # the `$ bsl validate` block of README is the command's output
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("$ bsl validate\n", 1)[1].split("```", 1)[0]
        code, out = _run(capsys, ["validate"])
        assert code == 0
        assert out.split("\n") == block.split("\n")

    def test_readme_documents_every_option(self):
        # each option string of bsl and of every subcommand appears in
        # README as a whole word, so a new flag cannot ship undocumented
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        parser = build_parser()
        parsers = [parser]
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
        assert len(parsers) == 6
        options = {opt for p in parsers for a in p._actions for opt in a.option_strings}
        assert {"--kappa", "--mode", "--omega0", "--format"} <= options
        missing = sorted(o for o in options if not re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", readme))
        assert missing == []
        # and `bsl <command> --help` explains each of them
        unexplained = sorted(o for p in parsers for a in p._actions if not a.help for o in a.option_strings)
        assert unexplained == []

    def test_injected_bad_truncation_fails(self, capsys, monkeypatch):
        # a chain cut far below A/omega + 10 must fail floquet-convergence;
        # the resonance routes keep their own reference to the rule, so
        # table-regression still passes
        for n in (1, 2):
            monkeypatch.setattr(floquet, "default_truncation", lambda amplitude, omega, n=n: n)
            code, out = _run(capsys, ["validate", "--quick"])
            assert code == 1
            assert "FAIL floquet-convergence" in out
            assert "2/3 checks passed" in out


class TestIO:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code = main(["shift-table", "--A", "1", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        content = target.read_text(encoding="utf-8")
        assert content.endswith("\n")
        assert "0.0632237237" in content

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        # a missing directory is a bad argument: one error line, no traceback
        target = tmp_path / "missing" / "table.csv"
        with pytest.raises(SystemExit) as exc:
            main(["shift-table", "--A", "1", "--out", str(target)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bsl: error: ")
        assert captured.err.count("\n") == 1
        assert not target.parent.exists()


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["shift-table", "--A-range", "nonsense"],
            ["shift-table", "--A", "1", "--A-range", "1:2:0.5"],
            ["shift-table", "--A", "1", "--omega0", "0"],
            ["population", "--A", "-0.1"],
            ["spectrum", "--A", "0.1", "--kappa", "0"],
            ["spectrum", "--n-max", "2"],
            ["spectrum", "--n-max", "0"],
            # the default window of 2.2 dressed splittings is empty here
            ["spectrum", "--A", "0"],
            ["shift-table", "--A-range", "nan:1:0.5"],
            ["shift-table", "--A-range", "0:inf:0.5"],
            ["shift-table", "--A-range", "0:1e300:1e-300"],
            ["population", "--omega-range", "1:1.1:nan"],
            ["shift-table", "--A", "nan"],
            ["population", "--A", "nan"],
            ["spectrum", "--A", "nan"],
            ["population", "--kappa", "inf"],
            ["spectrum", "--kappa", "inf"],
            ["spectrum", "--omega", "nan"],
            ["spectrum", "--omega", "0"],
            ["spectrum", "--omega", "-1"],
            # no flag sets the Floquet truncation
            ["validate", "--floquet-N", "-1"],
            ["shift-table", "--A", "-1"],
            # "=" keeps argparse from reading the negative range as a flag
            ["shift-sweep", "--A-range=-2:-1:1"],
            # pump and probe frequencies must be positive
            ["population", "--omega-range=-1:1:1"],
            ["spectrum", "--nu-range=0:1:0.5"],
            # a given value divided by --omega0 must keep its flag's rule
            ["spectrum", "--omega", "1e-300", "--omega0", "1e300"],
            ["population", "--A", "1e300", "--omega0", "1e-300", "--omega-range", "1e-300:1e-300:1"],
            # the steady state needs decay, as the spectrum does
            ["population", "--kappa", "0"],
        ],
    )
    def test_bad_arguments_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["spectrum", "--omega", "1e-300", "--omega0", "1e300"], "--omega"),
            (["spectrum", "--kappa", "1e-300", "--omega0", "1e300"], "--kappa"),
            (["spectrum", "--nu-range", "1e-300:2e-300:1e-300", "--omega0", "1e300"], "--nu-range"),
            (["population", "--omega-range", "1e-300:1e-300:1", "--omega0", "1e300"], "--omega-range"),
            (["population", "--A", "1e300", "--omega0", "1e-300"], "--A"),
            (["shift-table", "--A-range", "0:1e300:1e299", "--omega0", "1e-300"], "--A-range"),
        ],
    )
    def test_omega0_quotient_names_its_flag(self, argv, flag, capsys):
        # the quotient overflows, or underflows to 0 for a flag that must
        # be positive
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: argument {flag}: must be " in capsys.readouterr().err

    def test_omega0_quotient_may_reach_zero_drive(self, capsys):
        # --A needs only >= 0, so an amplitude that underflows is no drive
        code, out = _run(capsys, ["shift-table", "--A", "1e-320", "--omega0", "1e10"])
        assert code == 0
        assert out.split("\n")[2] == "0,0,0,0,,0,"

    def test_float_overflow_becomes_diagnostic(self, capsys):
        code, out = _run(capsys, ["shift-table", "--A", "1e52"])
        assert code == 0
        assert out.strip().split("\n")[2] == (
            "1e+52,4.15830577e+51,4.15830577e+51,,4.15830577e+51,,"
            "shirley: float overflow at A=1e+52; pert6: float overflow at A=1e+52"
        )

    def test_non_finite_shift_becomes_diagnostic(self, capsys):
        code, out = _run(capsys, ["shift-table", "--A", "9.5e51"])
        assert code == 0
        assert out.strip().split("\n")[2] == (
            "9.5e+51,3.95039048e+51,3.95039048e+51,,3.95039048e+51,,"
            "shirley: float overflow at A=9.5e+51; pert6: float overflow at A=9.5e+51: shift -inf"
        )

    def test_unresolved_floquet_shift_becomes_diagnostic(self, capsys):
        # below A = 1e-8 omega0 the Floquet cell is blank with a note, not 0
        code, out = _run(capsys, ["shift-table", "--A-range", "1e-10:1e-9:3e-10"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[2:]]
        assert len(rows) == 4
        for cells in rows:
            assert cells[1] == ""
            assert cells[-1] == f"floquet: Floquet shift unresolved at A/omega0={cells[0]} < 1e-08"

    def test_underflowing_bracket_tolerance_keeps_the_table(self, capsys):
        # at A = 1e-300 the shift of chrw and shirley is no normal float;
        # the row stays, their cells are blank, and the diagnostics say why
        code, out = _run(capsys, ["shift-table", "--A", "1e-300"])
        assert code == 0
        cells = out.strip().split("\n")[2].split(",")
        assert cells[0] == "1e-300" and cells[2:4] == ["", ""]
        notes = cells[-1].split("; ")
        assert [n.split(":")[0] for n in notes] == ["floquet", "chrw", "shirley"]
        assert all("not a normal float" in n for n in notes[1:])

    @pytest.mark.parametrize("amp, omega", [("1e19", "1"), ("1.2", "1e-8")])
    def test_oversized_xi_scan_becomes_diagnostic(self, capsys, monkeypatch, amp, omega):
        # the second point would scan 9.3e8 samples; any arange of more than
        # a million fails the test instead
        arange = np.arange

        def bounded(*args, **kwargs):
            assert len(args) < 2 or args[1] - args[0] <= 1_000_000, "xi scan allocated"
            return arange(*args, **kwargs)

        monkeypatch.setattr(np, "arange", bounded)
        code, out = _run(capsys, ["population", "--A", amp, "--omega-range", f"{omega}:{omega}:1"])
        assert code == 0
        cells = out.strip().split("\n")[2].split(",", maxsplit=2)
        assert cells[1] == ""
        assert cells[2].startswith("xi ")

    def test_empty_default_window_asks_for_probe_grid(self, capsys):
        with pytest.raises(SystemExit):
            main(["spectrum", "--A", "0"])
        assert "--nu-range" in capsys.readouterr().err

    def test_per_point_failure_becomes_diagnostic(self, capsys):
        # drive inside a band where the frame fixed point does not exist:
        # the affected row keeps its frequency, loses its value, and carries
        # the explanation, without failing the whole sweep
        code = main(
            ["population", "--A", "5", "--omega-range", "1:1:1", "--kappa", "0.002"]
        )
        assert code == 0
        row = capsys.readouterr().out.strip().split("\n")[2]
        cells = row.split(",", maxsplit=2)
        assert cells[0] == "1"
        assert cells[1] == ""
        assert cells[2] != ""
