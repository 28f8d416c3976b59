"""Check registry: report order, the quick subset, and that each tightened
bound catches the defect it is there for."""

import dataclasses
import math

from bloch_siegert_lab import validation
from bloch_siegert_lab.validation import CheckResult


def test_registry_order_and_quick_subset():
    full = [name for name, _ in validation.checks()]
    assert full == [
        "table-regression",
        "floquet-convergence",
        "monodromy-vs-matrix",
        "laplace-vs-quadrature",
        "lindblad-oracle",
        "rates-vs-tensor",
    ]
    quick = [name for name, _ in validation.checks(quick=True)]
    assert quick == ["table-regression", "floquet-convergence", "laplace-vs-quadrature"]


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
