"""Check registry: report order, the quick subset, and that each tightened
bound catches the defect it is there for."""

import dataclasses
import math

import numpy as np

from bloch_siegert_lab import validation
from bloch_siegert_lab.chrw import build_frame
from bloch_siegert_lab.dissipative import fourier_f, rates, steady_state
from bloch_siegert_lab.spectrum import initial_conditions, laplace_g
from bloch_siegert_lab.validation import CheckResult


def test_registry_order_and_quick_subset():
    full = [name for name, _ in validation.checks()]
    assert full == [
        "table-regression",
        "floquet-convergence",
        "monodromy-vs-matrix",
        "spectrum-vs-resolvent",
        "lindblad-oracle",
        "rates-vs-tensor",
    ]
    quick = [name for name, _ in validation.checks(quick=True)]
    assert quick == ["table-regression", "floquet-convergence", "spectrum-vs-resolvent"]


def test_nan_fails():
    assert not CheckResult(math.nan, 1.0, "x").ok


def test_population_off_by_half_percent_fails(monkeypatch):
    # the measured gap is 8.0e-4; the former 2e-2 bound let this through
    closed_form = validation.population_avg
    monkeypatch.setattr(
        validation, "population_avg", lambda *args: closed_form(*args) * (1.0 + 5e-3)
    )
    result = validation.lindblad_oracle()
    assert not result.ok
    assert result.value < 2e-2


def test_shift_moved_by_1e5_fails(monkeypatch):
    # the measured worst is 1.68e-6; the former 2e-5 bound let this through
    shift_of = validation.resonance_shift

    def moved(*args):
        result = shift_of(*args)
        return dataclasses.replace(result, shift=result.shift + 1e-5)

    monkeypatch.setattr(validation, "resonance_shift", moved)
    result = validation.table_regression()
    assert not result.ok
    assert result.value < 2e-5


def test_nan_shift_in_one_cell_fails(monkeypatch):
    shift_of = validation.resonance_shift

    def nan_at_six(method, omega0, amp):
        result = shift_of(method, omega0, amp)
        return dataclasses.replace(result, shift=math.nan) if amp == 6.0 else result

    monkeypatch.setattr(validation, "resonance_shift", nan_at_six)
    assert not validation.table_regression(quick=True).ok


def test_nan_population_fails(monkeypatch):
    closed_form = validation.population_avg

    def nan_at_weak(frame, params, rate_set):
        return math.nan if params.amplitude == 0.1 else closed_form(frame, params, rate_set)

    monkeypatch.setattr(validation, "population_avg", nan_at_weak)
    assert not validation.lindblad_oracle().ok


def test_population_outside_weak_damping_fails(monkeypatch):
    # kappa = 0.1 puts rabi_tilde / kappa near 0.5 at A = 0.1, far below 20
    monkeypatch.setattr(validation, "POPULATION_KAPPA", 0.1)
    result = validation.lindblad_oracle()
    assert not result.ok
    assert "rabi_tilde / kappa" in result.detail


def test_monodromy_gap_off_by_ten_tolerances_fails(monkeypatch):
    # both monodromy checks read the one gap function, so one defect of
    # ten times the bound must fail each of them
    gap_of = validation.monodromy_gap
    monkeypatch.setattr(
        validation, "monodromy_gap", lambda params: gap_of(params) + 10.0 * validation.MONODROMY_TOL
    )
    assert not validation.floquet_convergence().ok
    assert not validation.monodromy_vs_matrix().ok


def test_rate_off_by_2e15_kappa_fails(monkeypatch):
    # the measured worst is 4.5e-16 kappa; a closed form off by a few
    # roundings in one rate must not pass
    closed_form = validation.rates

    def shifted(frame, params):
        result = closed_form(frame, params)
        return dataclasses.replace(result, gamma_1=result.gamma_1 + 2e-15 * params.kappa)

    monkeypatch.setattr(validation, "rates", shifted)
    result = validation.rates_vs_tensor()
    assert not result.ok
    assert result.value < 3e-15


def test_trace_tilted_by_5_percent_fails(monkeypatch):
    # the measured worst is 3.3e-14 of the peak; a trace tilted by 5 %
    # across its probe window must not pass
    trace_of = validation.spectrum

    def tilted(params, nu, mode):
        trace = trace_of(params, nu, mode=mode)
        tilt = 1.0 + 0.05 * (nu - params.omega) / (nu[-1] - params.omega)
        return dataclasses.replace(trace, values=trace.values * tilt)

    monkeypatch.setattr(validation, "spectrum", tilted)
    result = validation.spectrum_vs_resolvent()
    assert not result.ok
    assert not validation.spectrum_vs_resolvent(quick=True).ok


def test_trace_at_conjugated_probe_fails(monkeypatch):
    # the trace summed from the laplace_g kernels at p = i(nu - n omega),
    # the conjugate of the p the resolvent is solved at
    trace_of = validation.spectrum

    def conjugated(params, nu, mode):
        trace = trace_of(params, nu, mode=mode)
        frame = build_frame(params, mode=mode)
        rate_set = rates(frame, params)
        steady = steady_state(rate_set, frame.rabi_tilde)
        values = np.zeros_like(nu)
        for n in range(1, trace.n_max + 1, 2):
            f_p, f_m, f_z = fourier_f(frame, n)
            init = initial_conditions(frame, steady, n)
            g_plus, g_minus, g_z = laplace_g(
                rate_set, frame.rabi_tilde, init, 1j * (nu - n * params.omega)
            )
            values += np.real(f_m * g_plus + f_p * g_minus + f_z * g_z)
        return dataclasses.replace(trace, values=values / np.max(np.abs(values)))

    monkeypatch.setattr(validation, "spectrum", conjugated)
    assert not validation.spectrum_vs_resolvent().ok
    assert not validation.spectrum_vs_resolvent(quick=True).ok
