"""End-to-end acceptance checks.

Each test pins one headline result: the nine-row shift comparison, the
deviation envelope of the analytic methods, the strong- and weak-drive
limits, self-consistency of the two Floquet routes, the resonance
diagnostics of the driven-damped system, and the two spectroscopic
symmetry claims.  Tolerances are fixed here, except that criteria 1, 8
and 10 run the checks of bloch_siegert_lab.validation, the registry that
`bsl validate` runs too, at full size with the bounds fixed there; a
failure means the package no longer reproduces the result, not that the
test is flaky.  Each test prints a single pass line (visible under pytest -s)
with its runtime against the budget it asserts.
"""

import dataclasses
import math
import time

import numpy as np

from bloch_siegert_lab import validation
from bloch_siegert_lab.chrw import FrameMode, ModelParams, build_frame
from bloch_siegert_lab.dissipative import population_avg, rates
from bloch_siegert_lab.floquet import (
    branch_gap,
    circle_gap,
    fold_to_zone,
    monodromy_quasienergies,
    solve_floquet,
)
from bloch_siegert_lab.numerics import first_bessel_j0_zero
from bloch_siegert_lab.resonance import (
    Method,
    bs_chrw,
    bs_perturbative6,
    resonance_shift,
)
from bloch_siegert_lab.spectrum import asymmetry_metric, spectrum

KAPPA = 2e-3


def _stamp(n, label, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {n:2d} ({label}): PASS [{elapsed:.1f}s / {budget}s]")


def test_criterion_01_shift_table():
    t0 = time.perf_counter()
    result = validation.table_regression()
    assert result.ok, result.report()
    _stamp(1, f"shift table to {result.bound:g}", t0, 30.0)


def test_criterion_02_deviation_envelope():
    t0 = time.perf_counter()
    for amp in np.arange(0.5, 21.0 + 1e-9, 0.5):
        amp = float(amp)
        numeric = resonance_shift(Method.FLOQUET, 1.0, amp).shift
        analytic = bs_chrw(1.0, amp).shift
        dev = abs(analytic - numeric) / numeric
        bound = 0.012 if 2.5 < amp < 4.5 else 0.01
        assert dev < bound, f"A={amp}: deviation {dev:.4f} exceeds {bound}"
    _stamp(2, "deviation envelope", t0, 120.0)


def test_criterion_03_strong_drive_asymptote():
    t0 = time.perf_counter()
    omega_res = 1.0 + resonance_shift(Method.FLOQUET, 1.0, 100.0).shift
    limit = 100.0 / first_bessel_j0_zero()
    assert abs(omega_res - limit) / omega_res <= 1e-2
    _stamp(3, "strong-drive limit at A=100", t0, 30.0)


def test_criterion_04_weak_drive_order():
    t0 = time.perf_counter()
    amps = np.logspace(math.log10(0.01), math.log10(0.1), 5)
    rels = []
    for amp in amps:
        chrw = bs_chrw(1.0, float(amp)).shift
        pert = bs_perturbative6(1.0, float(amp)).shift
        rels.append(abs(chrw - pert) / pert)
    slope = float(np.polyfit(np.log(amps), np.log(rels), 1)[0])
    # the two expansions share everything through the shown orders, so
    # their relative difference must vanish like the fourth power
    assert slope >= 3.8, f"log-log slope {slope:.3f}"
    _stamp(4, f"weak-drive slope {slope:.3f}", t0, 10.0)


def test_criterion_05_floquet_self_consistency():
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_q = 0.0
    for amp in (0.5, 2.5, 5.0, 7.5, 10.0):
        for w in (0.7, 1.0, 1.5, 2.2, 3.0):
            params = ModelParams(omega0=1.0, amplitude=amp, omega=w)
            sol = solve_floquet(params)
            mono = monodromy_quasienergies(params)
            worst_gap = max(worst_gap, abs(branch_gap(params) - circle_gap(*mono, w)))
            folded = fold_to_zone(sol.quasienergy, w)
            worst_q = max(
                worst_q,
                min(circle_gap(folded, mono[0], w), circle_gap(folded, mono[1], w)),
            )
    assert worst_gap < 1e-8
    assert worst_q < 1e-8
    # eigenvalue derivative against a central difference of chain
    # eigenvalue N, whose index is fixed, so no branch is tracked
    worst_hf = 0.0
    for amp, w in [(2.0, 1.0), (6.0, 1.5), (10.0, 2.5)]:
        params = ModelParams(omega0=1.0, amplitude=amp, omega=w)
        base = solve_floquet(params)
        h = 1e-5
        up = solve_floquet(dataclasses.replace(params, omega0=1.0 + h))
        dn = solve_floquet(dataclasses.replace(params, omega0=1.0 - h))
        assert up.n_trunc == dn.n_trunc == base.n_trunc
        fd = (up.quasienergy - dn.quasienergy) / (2.0 * h)
        worst_hf = max(worst_hf, abs(base.dq_domega0 - fd))
    assert worst_hf < 1e-6
    _stamp(5, "chain vs monodromy vs derivative", t0, 60.0)


def test_criterion_06_resonance_maximizes_pbar():
    t0 = time.perf_counter()
    for amp in validation.PAPER_TABLE:
        omega_res = 1.0 + resonance_shift(Method.FLOQUET, 1.0, amp).shift
        value = solve_floquet(ModelParams(omega0=1.0, amplitude=amp, omega=omega_res)).pbar
        assert value >= 0.5 - 1e-8, f"A={amp}: pbar {value}"
    _stamp(6, "pbar saturates at resonance", t0, 30.0)


def test_criterion_07_population_peak_location():
    t0 = time.perf_counter()
    omegas = np.arange(0.999, 1.002 + 1e-12, 1e-4)
    pops = []
    for w in omegas:
        params = ModelParams(omega0=1.0, amplitude=0.1, omega=float(w), kappa=KAPPA)
        frame = build_frame(params)
        pops.append(population_avg(frame, params, rates(frame, params)))
    pops = np.array(pops)
    peak_idx = int(np.argmax(pops))
    assert abs(omegas[peak_idx] - 1.000625) <= 1e-4 + 1e-12
    assert pops[peak_idx] < 0.5
    assert 0 < peak_idx < len(omegas) - 1, "peak must be interior to the sweep"
    _stamp(7, "population peaks at the shifted resonance", t0, 30.0)


def test_criterion_08_oracle_population_agreement():
    t0 = time.perf_counter()
    result = validation.lindblad_oracle()
    assert result.ok, result.report()
    _stamp(8, f"exact periodic steady state within {result.bound:g}", t0, 10.0)


def test_criterion_09_spectrum_symmetry_trichotomy():
    t0 = time.perf_counter()

    def metric_at(amp, w, mode=FrameMode.CHRW):
        params = ModelParams(omega0=1.0, amplitude=amp, omega=w, kappa=KAPPA)
        frame = build_frame(params, mode=mode)
        half = 2.2 * frame.rabi_tilde
        grid = np.linspace(w - half, w + half, 1201)
        return asymmetry_metric(spectrum(params, grid, mode=mode), w)

    omega_res = bs_chrw(1.0, 0.1).omega_res
    delta = omega_res - 1.0
    at_res = metric_at(0.1, omega_res)
    below = metric_at(0.1, omega_res - delta)
    above = metric_at(0.1, omega_res + delta)
    assert at_res < 0.1 * below
    assert at_res < 0.1 * above
    assert metric_at(0.1, 1.0, mode=FrameMode.RWA) < 1e-3
    scan = [metric_at(amp, 1.0) for amp in (0.05, 0.1, 0.2, 0.4)]
    assert all(b > a for a, b in zip(scan, scan[1:])), scan
    _stamp(9, "spectrum symmetry trichotomy", t0, 60.0)


def test_criterion_10_spectrum_vs_resolvent():
    t0 = time.perf_counter()
    result = validation.spectrum_vs_resolvent()
    assert result.ok, result.report()
    _stamp(10, f"spectrum vs exact resolvent to {result.bound:g}", t0, 10.0)
