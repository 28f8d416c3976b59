"""Cross-checks of the package against its references and oracles.

One registry serves both `bsl validate` and the acceptance tests.  Each
check measures one number, compares it with a bound fixed here from the
measured error, and reports a CheckResult; it passes when value < bound, so
a NaN fails.  The package's __init__ does not import this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, List, Tuple

import numpy as np

from .chrw import FrameMode, ModelParams, build_frame
from .dissipative import (
    RateSet,
    bloch_generator,
    fourier_f,
    lindblad_tensor,
    population_avg,
    rates,
    steady_state,
)
from .floquet import branch_gap, monodromy_gap, periodic_steady_state
from .resonance import Method, bs_chrw, resonance_shift
from .spectrum import default_probe_grid, initial_conditions, spectrum

# The paper's six-digit shift table: (numerical, transformed-frame,
# iterated-perturbative, strong-drive) per A/omega0.  The strong-drive
# column is blank at A = omega0, where that branch has not opened yet.
PAPER_TABLE = {
    1.0: (0.063224, 0.063268, 0.063228, None),
    3.5: (0.707959, 0.716200, 0.712320, 0.455407),
    6.0: (1.641809, 1.649924, 1.650482, 1.494983),
    8.5: (2.637787, 2.640075, 2.639255, 2.534559),
    11.0: (3.653740, 3.652351, 3.641373, 3.574136),
    13.5: (4.678502, 4.675271, 4.650384, 4.613712),
    16.0: (5.707919, 5.703825, 5.664602, 5.653289),
    18.5: (6.740093, 6.735637, 6.683190, 6.692864),
    21.0: (7.774035, 7.769474, 7.705492, 7.732441),
}
TABLE_METHODS = (Method.FLOQUET, Method.CHRW, Method.SHIRLEY, Method.ASYMPTOTIC)
# measured worst |shift - table| is 1.68e-6 (strong-drive column at
# A = 18.5); the other three columns stay below 4.8e-7, the rounding of
# six digits
TABLE_TOL = 3.3e-6

# |matrix gap - monodromy gap| of floquet-convergence and monodromy-vs-matrix;
# measured 1.31e-12 and 1.65e-12
MONODROMY_TOL = 3.3e-12

# drive amplitudes of the population check, each pumped at its CHRW
# resonance with this decay; measured relative gaps between the closed
# form and the exact periodic steady state are 8.0e-4 (A = 0.1) and
# 3.2e-5 (A = 0.5)
POPULATION_AMPLITUDES = (0.1, 0.5)
POPULATION_KAPPA = 2e-3
POPULATION_TOL = 1.6e-3

# drive amplitudes of the rates check, each at omega = omega0 and at its
# CHRW resonance, with the population check's decay; the measured worst
# |closed form - tensor| is 4.5e-16 kappa (A = 15 at omega0, where the
# table runs to L = 43)
RATES_AMPLITUDES = (0.1, 1.0, 8.5, 15.0)
RATES_TOL = 9e-16

# drive amplitudes of the resolvent check, each pumped at its CHRW
# resonance with the population check's decay, in both frames; the
# measured worst is 3.9e-14 of the peak (A = 2, CHRW), rounding where
# c1 - w^2 cancels next to the dressed lines, so it moves with the pump
RESOLVENT_CASES = tuple((amp, mode) for amp in (0.1, 0.4, 2.0, 10.0) for mode in FrameMode)
RESOLVENT_QUICK = ((0.1, FrameMode.CHRW), (10.0, FrameMode.RWA))
RESOLVENT_TOL = 6.6e-14


@dataclass(frozen=True)
class CheckResult:
    """One measured number against its bound; detail names what was measured."""

    value: float
    bound: float
    detail: str

    @property
    def ok(self) -> bool:
        return self.value < self.bound

    def report(self) -> str:
        return f"{self.detail} = {self.value:.3e} (tol {self.bound:.2g})"


def _pumped(amp: float) -> ModelParams:
    """Drive amp at omega0 = 1, pumped at its CHRW resonance, decay POPULATION_KAPPA."""
    return ModelParams(omega0=1.0, amplitude=amp, omega=bs_chrw(1.0, amp).omega_res, kappa=POPULATION_KAPPA)


def _worst(errs: List[float]) -> float:
    """Largest error; np.max, unlike max(), lets one NaN through to fail the check."""
    return float(np.max(errs))


def table_regression(quick: bool = False) -> CheckResult:
    """Worst |shift - table| over the paper's table, or two rows of it."""
    amps = (1.0, 6.0) if quick else tuple(PAPER_TABLE)
    errs = [
        abs(resonance_shift(method, 1.0, amp).shift - ref)
        for amp in amps
        for method, ref in zip(TABLE_METHODS, PAPER_TABLE[amp])
        if ref is not None
    ]
    return CheckResult(_worst(errs), TABLE_TOL, "worst |shift - reference|")


def _gap_check(points: Tuple[Tuple[float, float], ...], detail: str) -> CheckResult:
    """Worst |parity-chain gap - monodromy gap| over (A, omega) points."""
    params = [ModelParams(omega0=1.0, amplitude=amp, omega=w) for amp, w in points]
    errs = [abs(branch_gap(p) - monodromy_gap(p)) for p in params]
    return CheckResult(_worst(errs), MONODROMY_TOL, detail)


def floquet_convergence() -> CheckResult:
    """Truncated parity-chain gap against the monodromy gap at A = 10."""
    return _gap_check(((10.0, 1.0),), "default truncation: |matrix gap - monodromy gap|")


def monodromy_vs_matrix() -> CheckResult:
    """Parity-chain gap against the monodromy gap at three drive points."""
    return _gap_check(((1.0, 1.0), (4.0, 1.5), (8.0, 2.0)), "worst |matrix gap - monodromy gap|")


def spectrum_vs_resolvent(quick: bool = False) -> CheckResult:
    """Peak-unit traces against the exact resolvent of the dressed generator.

    The Laplace transform of the homogeneous trajectory e^{Mt} y0 is
    (p - M)^{-1} y0, so each sideband family is one batched linear solve at
    p = i(n omega - nu) over the default 1101-point probe grid, summed as
    0.25 Re(f . g).  Nothing there touches the trace's rational
    coefficients.  All RESOLVENT_CASES, or the two quick ones.
    """
    errs = []
    for amp, mode in RESOLVENT_QUICK if quick else RESOLVENT_CASES:
        params = _pumped(amp)
        frame = build_frame(params, mode=mode)
        nu = default_probe_grid(params.omega, frame.rabi_tilde, 1101)
        trace = spectrum(params, nu, mode=mode)
        rate_set = rates(frame, params)
        steady = steady_state(rate_set, frame.rabi_tilde)
        generator, _ = bloch_generator(rate_set, frame.rabi_tilde)
        exact = np.zeros_like(nu)
        for n in range(1, trace.n_max + 1, 2):
            p = 1j * (n * params.omega - nu)
            seed = np.array(initial_conditions(frame, steady, n))
            g = np.linalg.solve(p[:, None, None] * np.eye(3) - generator, seed[:, None])
            f_p, f_m, f_z = fourier_f(frame, n)
            exact += 0.25 * (g[:, :, 0] @ np.array([f_m, f_p, f_z])).real
        errs.append(np.max(np.abs(trace.values - exact / np.max(np.abs(exact)))))
    return CheckResult(_worst(errs), RESOLVENT_TOL, "worst |trace - resolvent| / peak")


def lindblad_oracle() -> CheckResult:
    """Closed-form averaged population against the exact periodic steady state.

    The closed form is a weak-damping expansion, so each point must keep
    rabi_tilde / kappa >= 20; a point that does not fails the check.
    """
    errs = []
    for amp in POPULATION_AMPLITUDES:
        params = _pumped(amp)
        frame = build_frame(params)
        if not frame.rabi_tilde / params.kappa >= 20.0:
            return CheckResult(math.inf, POPULATION_TOL, f"A = {amp:g}: rabi_tilde / kappa below 20")
        closed = population_avg(frame, params, rates(frame, params))
        exact = periodic_steady_state(params)
        errs.append(abs(closed - exact) / exact)
    return CheckResult(_worst(errs), POPULATION_TOL, "averaged population, worst rel |closed - exact|")


def rates_vs_tensor() -> CheckResult:
    """Closed-form rates against the full dissipator tensor they reduce.

    The tensor sums the truncated harmonic table term by term, so it shares
    neither the addition theorem nor the Cephes Bessel values with rates.
    The error is in units of kappa.
    """
    errs = []
    for amp in RATES_AMPLITUDES:
        pumped = _pumped(amp)
        for params in (replace(pumped, omega=1.0), pumped):
            frame = build_frame(params)
            closed = rates(frame, params)
            tensor = RateSet.from_tensor(lindblad_tensor(frame, params))
            errs.extend(
                abs(getattr(closed, f.name) - getattr(tensor, f.name)) / params.kappa
                for f in fields(RateSet)
            )
    return CheckResult(_worst(errs), RATES_TOL, "worst |closed rate - tensor rate| / kappa")


def checks(quick: bool = False) -> List[Tuple[str, Callable[[], CheckResult]]]:
    """The registry in report order: all six checks, or the three quick ones."""
    table = ("table-regression", lambda: table_regression(quick))
    convergence = ("floquet-convergence", floquet_convergence)
    resolvent = ("spectrum-vs-resolvent", lambda: spectrum_vs_resolvent(quick))
    if quick:
        return [table, convergence, resolvent]
    return [
        table,
        convergence,
        ("monodromy-vs-matrix", monodromy_vs_matrix),
        resolvent,
        ("lindblad-oracle", lindblad_oracle),
        ("rates-vs-tensor", rates_vs_tensor),
    ]
