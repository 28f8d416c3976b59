"""The model has one frequency scale: with omega0, A, omega and kappa all
multiplied by the same factor, every frequency scales with it and every
ratio stays put.  Each output at omega0 = k, divided by k where it is a
frequency, is checked against omega0 = 1.  Each bound is about twice the
worst deviation measured on these grids.  A solver that carries omega0 in
a fixed tolerance, or in a power that leaves the float range, fails them:
by an error, or by a deviation of 1e-3 and up at omega0 = 1e-12.
"""

import numpy as np
import pytest

from bloch_siegert_lab.chrw import ModelParams, build_frame
from bloch_siegert_lab.dissipative import population_avg, rates
from bloch_siegert_lab.floquet import solve_floquet
from bloch_siegert_lab.resonance import Method, resonance_shift
from bloch_siegert_lab.spectrum import default_probe_grid, spectrum

OMEGA0 = [1e-12, 1e-9, 1e-6, 1e-3, 0.3, 7.0, 1e3, 1e9, 3.1e10, 1e15]
ROUTE_A = [1e-6, 1e-3, 0.1, 1.0, 3.5, 6.0, 21.0, 100.0]
# (A, omega, kappa) in units of omega0
POINTS = [(0.5, 1.02, 2e-3), (4.0, 3.0, 1e-2), (0.1, 1.0, 1e-3), (10.0, 4.0, 2e-3)]


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def _scaled(point, omega0: float) -> ModelParams:
    a, w, k = point
    return ModelParams(omega0=omega0, amplitude=a * omega0, omega=w * omega0, kappa=k * omega0)


# worst measured over both route tests: chrw 6.7e-16, floquet 6.9e-15,
# shirley 4.7e-16, pert6 1.2e-15, asymptotic 4.9e-16
ROUTE_BOUND = {
    Method.CHRW: 1.3e-15,
    Method.FLOQUET: 1.4e-14,
    Method.SHIRLEY: 9e-16,
    Method.PERT6: 2.4e-15,
    Method.ASYMPTOTIC: 9e-16,
}


@pytest.mark.parametrize("method", list(Method))
def test_route_shift_in_units_of_omega0(method):
    # every route is solved in units of omega0, also at scales where an
    # unscaled omega0**5 or 1/omega0**5 leaves the float range
    for a in ROUTE_A:
        ref = resonance_shift(method, 1.0, a).shift
        for omega0 in OMEGA0 + [1e-200, 1e200]:
            got = resonance_shift(method, omega0, a * omega0).shift
            assert _rel(got / omega0, ref) <= ROUTE_BOUND[method], (omega0, a)


@pytest.mark.parametrize("method", list(Method))
def test_route_across_float_range(method):
    # A/omega0 = 6 from omega0 = 1e-300 to 1e300: no error of any kind, and
    # the same shift in units of omega0
    ref = resonance_shift(method, 1.0, 6.0).shift
    for omega0 in np.geomspace(1e-300, 1e300, 61):
        omega0 = float(omega0)
        got = resonance_shift(method, omega0, 6.0 * omega0).shift
        assert _rel(got / omega0, ref) <= ROUTE_BOUND[method], omega0


@pytest.mark.parametrize("point", POINTS)
def test_build_frame(point):
    # worst measured: xi 2.2e-16, rabi_tilde 3.3e-16, a_tilde 3.4e-16,
    # delta_tilde 2.8e-15, cos_2theta 2.7e-15 (it follows delta_tilde),
    # sin_2theta 4.1e-16
    unit = build_frame(_scaled(point, 1.0))
    for omega0 in OMEGA0:
        fr = build_frame(_scaled(point, omega0))
        assert _rel(fr.xi, unit.xi) <= 4.4e-16
        assert _rel(fr.rabi_tilde / omega0, unit.rabi_tilde) <= 6.6e-16
        assert _rel(fr.a_tilde / omega0, unit.a_tilde) <= 6.8e-16
        assert _rel(fr.delta_tilde / omega0, unit.delta_tilde) <= 5.5e-15
        assert _rel(fr.cos_2theta, unit.cos_2theta) <= 5.5e-15
        assert _rel(fr.sin_2theta, unit.sin_2theta) <= 8.2e-16


@pytest.mark.parametrize("point", POINTS)
def test_population_avg(point):
    # worst measured: 9.5e-16 relative
    p = _scaled(point, 1.0)
    fr = build_frame(p)
    unit = population_avg(fr, p, rates(fr, p))
    for omega0 in OMEGA0:
        p = _scaled(point, omega0)
        fr = build_frame(p)
        assert _rel(population_avg(fr, p, rates(fr, p)), unit) <= 1.9e-15


@pytest.mark.parametrize("point", POINTS)
def test_spectrum_on_scaled_grid(point):
    # the trace is scaled to a peak of one; worst measured 1.1e-13 of the
    # peak, at A = 0.1 omega0
    p = _scaled(point, 1.0)
    nu = default_probe_grid(p.omega, build_frame(p).rabi_tilde, 201)
    unit = spectrum(p, nu).values
    for omega0 in OMEGA0:
        got = spectrum(_scaled(point, omega0), nu * omega0).values
        assert np.max(np.abs(got - unit)) <= 2.2e-13, omega0


@pytest.mark.parametrize("point", POINTS)
def test_solve_floquet(point):
    # worst measured: quasienergy 1.2e-13 relative, slope 3.3e-16
    unit = solve_floquet(_scaled(point, 1.0))
    for omega0 in OMEGA0:
        sol = solve_floquet(_scaled(point, omega0))
        assert sol.n_trunc == unit.n_trunc
        assert _rel(sol.quasienergy / omega0, unit.quasienergy) <= 2.3e-13
        assert abs(sol.dq_domega0 - unit.dq_domega0) <= 6.6e-16
