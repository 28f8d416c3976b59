"""Probe response: Laplace kernels, sideband traces, and the asymmetry metric."""

import importlib
import math

import numpy as np
import pytest
from scipy.linalg import expm

from bloch_siegert_lab.chrw import FrameMode, ModelParams, build_frame
from bloch_siegert_lab.dissipative import (
    RateSet,
    SteadyState,
    _truncation_rule,
    bloch_generator,
    fourier_f,
    rates,
    steady_state,
    truncation_order,
)
from bloch_siegert_lab.errors import GridError, PoleError, ValidityWarning
from bloch_siegert_lab.numerics import bessel_j_sequence
from bloch_siegert_lab.resonance import bs_chrw
from bloch_siegert_lab.spectrum import (
    SpectrumTrace,
    _check_axis_poles,
    _pole_bound,
    _response_coefficients,
    asymmetry_metric,
    default_probe_grid,
    default_sideband_count,
    initial_conditions,
    laplace_g,
    spectrum,
)

# the package re-exports the function `spectrum` under the module's name
spectrum_module = importlib.import_module("bloch_siegert_lab.spectrum")


def _resonant_point(amplitude=0.1, kappa=2e-3):
    res = bs_chrw(1.0, amplitude)
    p = ModelParams(omega0=1.0, amplitude=amplitude, omega=res.omega_res, kappa=kappa)
    fr = build_frame(p)
    rs = rates(fr, p)
    ss = steady_state(rs, fr.rabi_tilde)
    return p, fr, rs, ss


def _kernel_sum(params, mode, grid, n_max):
    # the unnormalised trace as the sum over sideband families of the
    # separate laplace_g kernels, weighted as the trace weights them
    fr = build_frame(params, mode=mode)
    rs = rates(fr, params)
    ss = steady_state(rs, fr.rabi_tilde)
    total = np.zeros_like(grid)
    for n in range(1, n_max + 1, 2):
        f_p, f_m, f_z = fourier_f(fr, n)
        init = initial_conditions(fr, ss, n)
        g_plus, g_minus, g_z = laplace_g(rs, fr.rabi_tilde, init, -1j * (grid - n * params.omega))
        total += 0.25 * np.real(f_p * g_minus + f_m * g_plus + f_z * g_z)
    return total


def _trace_grid(center, rabi, n=1201):
    # odd count keeps the pump frequency exactly on the grid, which the
    # asymmetry metric requires
    return np.linspace(center - 2.2 * rabi, center + 2.2 * rabi, n)


class TestChatCoefficients:
    def test_rwa_fundamental(self):
        p = ModelParams(omega0=1.0, amplitude=0.3, omega=1.1, kappa=1e-3)
        fr = build_frame(p, mode=FrameMode.RWA)
        th = 0.5 * math.atan2(fr.sin_2theta, fr.cos_2theta)
        np.testing.assert_allclose(
            fourier_f(fr, 1),
            (-2.0 * math.cos(th) ** 2, 2.0 * math.sin(th) ** 2, math.sin(2 * th)),
            atol=1e-15,
        )
        np.testing.assert_allclose(fourier_f(fr, 3), (0.0, 0.0, 0.0), atol=1e-15)


class TestInitialConditions:
    def test_commutator_oracle(self):
        # rebuild the seed as an explicit 2x2 commutator of the harmonic
        # operator with the steady density matrix and read off the same
        # three components as matrix elements
        p, fr, rs, ss = _resonant_point()
        for n in (1, 3):
            f_p, f_m, f_z = fourier_f(fr, n)
            c_hat = np.array([[f_z, f_p], [f_m, -f_z]], dtype=complex)
            rho = np.array(
                [
                    [0.5 * (1.0 + ss.sz_ss), ss.sminus_ss],
                    [ss.splus_ss, 0.5 * (1.0 - ss.sz_ss)],
                ],
                dtype=complex,
            )
            k = c_hat @ rho - rho @ c_hat
            x0, y0, z0 = initial_conditions(fr, ss, n)
            assert x0 == pytest.approx(k[1, 0], abs=1e-14)
            assert y0 == pytest.approx(k[0, 1], abs=1e-14)
            assert z0 == pytest.approx(k[0, 0] - k[1, 1], abs=1e-14)

    def test_frozen_pins_at_resonance(self):
        p, fr, rs, ss = _resonant_point()
        x0, y0, z0 = initial_conditions(fr, ss, 1)
        assert x0 == pytest.approx(0.0008072818107224809 + 0.03995552917574686j, abs=1e-12)
        assert y0 == pytest.approx(-0.0007916882539772084 + 0.03995552917574686j, abs=1e-12)
        assert z0 == pytest.approx(0.0015989699950172001 - 6.239147974235193e-07j, abs=1e-12)

    def test_index_must_be_integral(self):
        p, fr, rs, ss = _resonant_point()
        assert initial_conditions(fr, ss, 3.0) == initial_conditions(fr, ss, 3)
        with pytest.raises(ValueError):
            initial_conditions(fr, ss, 1.5)

    def test_saturated_state_gives_no_seed(self):
        p, fr, rs, ss = _resonant_point()
        flat = type(ss)(sz_ss=0.0, splus_ss=0.0 + 0.0j)
        assert initial_conditions(fr, flat, 1) == (0.0, 0.0, 0.0)


class TestResponseDenominator:
    def test_matches_characteristic_polynomial(self):
        p, fr, rs, ss = _resonant_point()
        m, _ = bloch_generator(rs, fr.rabi_tilde)
        den, _ = _response_coefficients(rs, fr.rabi_tilde, (0j, 0j, 0j))
        rng = np.random.default_rng(11)
        for _ in range(10):
            pv = complex(rng.normal(scale=0.1), rng.normal(scale=0.5))
            det = np.linalg.det(pv * np.eye(3) - m)
            assert np.polyval(den, pv) == pytest.approx(det, rel=1e-12)

    def test_constant_term_is_steady_state_denominator(self):
        # det(-M) is the denominator steady_state divides by, written out
        # here from the rates
        for amp in (0.1, 2.0, 10.0):
            p, fr, rs, ss = _resonant_point(amp)
            den, _ = _response_coefficients(rs, fr.rabi_tilde, (0j, 0j, 0j))
            g1, gm, gp, gz = rs.gamma_1, rs.gamma_minus, rs.gamma_plus, rs.gamma_z
            steady_denom = 4.0 * g1 * g1 * (gm - gp) + gz * (fr.rabi_tilde**2 + gp * gp - gm * gm)
            assert den[3] == pytest.approx(steady_denom, rel=1e-15)

    def test_generator_is_stable(self):
        # with kappa > 0 every mode of the dressed generator decays, which
        # is what lets the one-sided transform converge on the imaginary axis
        p, fr, rs, ss = _resonant_point()
        m, _ = bloch_generator(rs, fr.rabi_tilde)
        assert np.max(np.linalg.eigvals(m).real) < 0.0


class TestLaplaceG:
    def test_against_linear_solve(self):
        p, fr, rs, ss = _resonant_point()
        m, _ = bloch_generator(rs, fr.rabi_tilde)
        init = initial_conditions(fr, ss, 1)
        rng = np.random.default_rng(42)
        for _ in range(30):
            pv = complex(rng.normal(scale=0.1), rng.normal(scale=0.5))
            g = np.array(laplace_g(rs, fr.rabi_tilde, init, pv))
            direct = np.linalg.solve(pv * np.eye(3) - m, np.array(init))
            np.testing.assert_allclose(g, direct, rtol=1e-11, atol=1e-14)

    def test_vectorized_matches_scalar(self):
        p, fr, rs, ss = _resonant_point()
        init = initial_conditions(fr, ss, 1)
        ps = np.array([0.01 + 0.3j, 0.02 - 0.1j, 0.005 + 0.0j])
        gv = laplace_g(rs, fr.rabi_tilde, init, ps)
        for i, pv in enumerate(ps):
            gs = laplace_g(rs, fr.rabi_tilde, init, complex(pv))
            for comp in range(3):
                assert gv[comp][i] == pytest.approx(gs[comp], rel=1e-14)

    def test_initial_value_theorem(self):
        # p g(p) -> y(0) as p -> infinity along the real axis
        p, fr, rs, ss = _resonant_point()
        init = initial_conditions(fr, ss, 1)
        big = 1e8 + 0.0j
        g = np.array(laplace_g(rs, fr.rabi_tilde, init, big))
        np.testing.assert_allclose(big * g, np.array(init), rtol=1e-6)

    def test_free_precession_pole_form(self):
        free = RateSet(0j, 0j, 0j, 0j, 0j, 0j)
        g_plus, g_minus, g_z = laplace_g(free, 0.5, (1.0 + 0j, 0j, 0j), 0.3 + 0j)
        assert g_plus == pytest.approx(1.0 / (0.3 - 0.5j), rel=1e-14)
        assert g_minus == pytest.approx(0.0, abs=1e-16)
        assert g_z == pytest.approx(0.0, abs=1e-16)

    def test_undamped_pole_raises(self):
        free = RateSet(0j, 0j, 0j, 0j, 0j, 0j)
        with pytest.raises(PoleError):
            laplace_g(free, 0.5, (1.0 + 0j, 0j, 0j), 0.5j)


class TestQuadratureOracle:
    def test_transform_matches_time_integration(self):
        # Simpson's rule over the homogeneous trajectory y(t) = expm(M t) y0
        # out to 25 decay times, against laplace_g at p = -i offset, with
        # offsets on both dressed lines and between them.  g_+ peaks on one
        # line and g_- on the other, so a conjugated p swaps them and misses
        # by about 100 %: this pins the sign of p between the time and the
        # Laplace domain.  The trajectory is y(k dt) = E^k y0 with
        # E = expm(M dt), built in blocks so that no power is a chain of
        # more than 2 sqrt(steps) products.  Measured: 3.3e-11 of the peak
        # on the lines, 2.1e-10 between them
        p, fr, rs, ss = _resonant_point()
        init = initial_conditions(fr, ss, 1)
        m, _ = bloch_generator(rs, fr.rabi_tilde)
        dt = 0.25
        steps = 2 * math.ceil(12.5 / (dt * min(rs.gamma_plus.real, rs.gamma_z.real)))
        block = math.isqrt(steps) + 1
        step = expm(m * dt)
        powers = [np.eye(3)]
        for _ in range(block - 1):
            powers.append(step @ powers[-1])
        jump = step @ powers[-1]
        starts = [np.array(init)]
        for _ in range(steps // block):
            starts.append(jump @ starts[-1])
        traj = np.einsum("kij,bj->bki", np.array(powers), np.array(starts)).reshape(-1, 3)
        traj = traj[: steps + 1]
        ts = dt * np.arange(steps + 1)
        simpson = np.ones(steps + 1)
        simpson[1:-1:2] = 4.0
        simpson[2:-1:2] = 2.0
        for offset in (-fr.rabi_tilde, 0.3 * fr.rabi_tilde, fr.rabi_tilde):
            pv = -1j * offset
            quad = (dt / 3.0) * (simpson * np.exp(-pv * ts)) @ traj
            closed = np.array(laplace_g(rs, fr.rabi_tilde, init, pv))
            rel = np.max(np.abs(quad - closed)) / np.max(np.abs(closed))
            assert rel < 4e-10, (offset, rel)


# (amplitude, pump, frame, n_max) of the extended-precision test
MP_CASES = {
    "A10-chrw-pump-omega0-n1": (10.0, lambda: 1.0, FrameMode.CHRW, 1),
    "A10-rwa-resonance": (10.0, lambda: bs_chrw(1.0, 10.0).omega_res, FrameMode.RWA, None),
    "A2-rwa-two-shifts": (2.0, lambda: 1.0 + 2.0 * bs_chrw(1.0, 2.0).shift, FrameMode.RWA, None),
}


class TestExtendedPrecision:
    @pytest.mark.parametrize("case", list(MP_CASES))
    def test_trace_against_40_digit_solve(self, case):
        # the trace against a 40-digit solve of (p - M) g = y0 with the
        # trace's own double rates, seeds and weights, on every 20th point
        # of a 2001-point default grid and at the trace's peak, which scales
        # the reference.  Measured worst 1.7e-15 of the peak (A = 10, CHRW,
        # and A = 2, RWA); power-sum coefficients read 7.1e-12 on the first
        # case and 1.2e-11 on the second
        mp = pytest.importorskip("mpmath")
        amp, pump, mode, n_max = MP_CASES[case]
        p = ModelParams(omega0=1.0, amplitude=amp, omega=pump(), kappa=2e-3)
        fr = build_frame(p, mode=mode)
        grid = default_probe_grid(p.omega, fr.rabi_tilde, 2001)
        tr = spectrum(p, grid, mode=mode, n_max=n_max)
        top = int(np.argmax(np.abs(tr.values)))
        idx = sorted({*range(0, grid.size, 20), top})
        rs = rates(fr, p)
        ss = steady_state(rs, fr.rabi_tilde)
        m, _ = bloch_generator(rs, fr.rabi_tilde)
        families = [
            (n, fourier_f(fr, n), initial_conditions(fr, ss, n))
            for n in range(1, tr.n_max + 1, 2)
        ]
        with mp.workdps(40):
            gen = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in m])
            ref = {}
            for i in idx:
                total = mp.mpf(0)
                for n, (f_p, f_m, f_z), init in families:
                    pv = mp.mpc(0, n * mp.mpf(p.omega) - mp.mpf(grid[i]))
                    g = mp.lu_solve(pv * mp.eye(3) - gen, mp.matrix(list(init)))
                    total += mp.re(f_m * g[0] + f_p * g[1] + f_z * g[2]) / 4
                ref[i] = total
            peak = abs(ref[top])
            err = max(abs(tr.values[i] - ref[i] / peak) for i in idx)
        assert err < 3.3e-15, float(err)


class TestSpectrum:
    def test_rejects_undamped(self):
        p = ModelParams(omega0=1.0, amplitude=0.1, omega=1.0, kappa=0.0)
        with pytest.raises(ValueError, match="kappa"):
            spectrum(p, np.linspace(0.9, 1.1, 21))

    def test_rejects_bad_grids(self):
        p = ModelParams(omega0=1.0, amplitude=0.1, omega=1.0, kappa=2e-3)
        with pytest.raises(ValueError):
            spectrum(p, np.array([]))
        with pytest.raises(ValueError):
            spectrum(p, np.array([-0.5, 0.5, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n_max", [None, 1])
    def test_rejects_non_finite_grid(self, bad, n_max):
        # a NaN used to fail in the sideband count, or with n_max given to
        # come back as a NaN point in a trace left unscaled
        p = ModelParams(omega0=1.0, amplitude=0.1, omega=1.0, kappa=2e-3)
        with pytest.raises(ValueError, match="nu_grid must be finite"):
            spectrum(p, np.array([1.0, bad, 1.1]), n_max=n_max)

    def test_rejects_bad_sideband_count(self):
        p = ModelParams(omega0=1.0, amplitude=0.1, omega=1.0, kappa=2e-3)
        grid = np.linspace(0.9, 1.1, 21)
        with pytest.raises(ValueError):
            spectrum(p, grid, n_max=2)
        with pytest.raises(ValueError, match="coverage"):
            spectrum(p, np.linspace(0.9, 4.0, 21), n_max=1)

    def test_integral_float_sideband_count(self):
        p = ModelParams(omega0=1.0, amplitude=0.1, omega=1.0, kappa=2e-3)
        grid = np.linspace(0.9, 1.1, 21)
        got, want = spectrum(p, grid, n_max=3.0), spectrum(p, grid, n_max=3)
        assert got.n_max == want.n_max == 3 and type(got.n_max) is int
        assert got.values.tobytes() == want.values.tobytes()
        for bad in (2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="odd integer"):
                spectrum(p, grid, n_max=bad)

    @pytest.mark.parametrize("n_points", [0, -3])
    def test_probe_grid_needs_a_point(self, n_points):
        with pytest.raises(ValueError, match="n_points"):
            default_probe_grid(1.0, 0.05, n_points)

    def test_warns_when_splitting_small(self):
        p = ModelParams(omega0=1.0, amplitude=1e-3, omega=1.0, kappa=2e-3)
        with pytest.warns(ValidityWarning):
            spectrum(p, np.linspace(0.999, 1.001, 41))

    def test_peak_normalization(self):
        p, fr, rs, ss = _resonant_point()
        grid = _trace_grid(p.omega, fr.rabi_tilde)
        tr = spectrum(p, grid)
        assert np.max(np.abs(tr.values)) == pytest.approx(1.0, abs=1e-12)
        raw = _kernel_sum(p, FrameMode.CHRW, grid, tr.n_max)
        np.testing.assert_allclose(tr.values, raw / np.max(np.abs(raw)), rtol=1e-12)

    def test_sidebands_sit_at_dressed_splitting(self):
        # on resonance the trace is dominated by the two sideband peaks,
        # one dressed splitting away from the pump on either side
        p, fr, rs, ss = _resonant_point()
        grid = _trace_grid(p.omega, fr.rabi_tilde)
        tr = spectrum(p, grid)
        peak_nu = grid[int(np.argmax(np.abs(tr.values)))]
        dist = min(
            abs(peak_nu - (p.omega + fr.rabi_tilde)),
            abs(peak_nu - (p.omega - fr.rabi_tilde)),
        )
        assert dist < 5.0 * p.kappa

    def test_asymmetry_trichotomy(self):
        # pump exactly on the shifted resonance: mirror-symmetric sidebands;
        # detune by the shift either way and the symmetry visibly breaks
        res = bs_chrw(1.0, 0.1)
        delta = res.omega_res - 1.0
        metrics = {}
        for label, w in [
            ("res", res.omega_res),
            ("below", res.omega_res - delta),
            ("above", res.omega_res + delta),
        ]:
            p = ModelParams(omega0=1.0, amplitude=0.1, omega=w, kappa=2e-3)
            fr = build_frame(p)
            grid = _trace_grid(w, fr.rabi_tilde)
            metrics[label] = asymmetry_metric(spectrum(p, grid), w)
        assert metrics["res"] < 1e-3
        assert metrics["below"] > 0.05 and metrics["above"] > 0.05
        assert metrics["res"] < 0.1 * metrics["below"]
        assert metrics["res"] < 0.1 * metrics["above"]

    def test_no_kick_trace_is_symmetric_at_bare_resonance(self):
        # without the counter-rotating kick nothing distinguishes the two
        # sidebands when pumping at the bare splitting
        p = ModelParams(omega0=1.0, amplitude=0.1, omega=1.0, kappa=2e-3)
        fr = build_frame(p, mode=FrameMode.RWA)
        grid = _trace_grid(1.0, fr.rabi_tilde)
        tr = spectrum(p, grid, mode=FrameMode.RWA)
        assert asymmetry_metric(tr, 1.0) < 1e-3

    def test_asymmetry_grows_with_drive(self):
        metrics = []
        for amp in (0.05, 0.1, 0.2, 0.4):
            p = ModelParams(omega0=1.0, amplitude=amp, omega=1.0, kappa=2e-3)
            fr = build_frame(p)
            grid = _trace_grid(1.0, fr.rabi_tilde)
            metrics.append(asymmetry_metric(spectrum(p, grid), 1.0))
        assert all(b > a for a, b in zip(metrics, metrics[1:]))

    def test_asymmetry_bounded_where_trace_changes_sign(self):
        # at A = 0.4 pumped at omega0 the trace dips below zero; the metric
        # must still read between 0 and 1
        p = ModelParams(omega0=1.0, amplitude=0.4, omega=1.0, kappa=2e-3)
        fr = build_frame(p)
        tr = spectrum(p, _trace_grid(1.0, fr.rabi_tilde))
        assert np.min(tr.values) < 0.0
        assert 0.0 <= asymmetry_metric(tr, 1.0) <= 1.0

    def test_sideband_count_converged(self):
        p = ModelParams(omega0=1.0, amplitude=0.3, omega=1.0, kappa=2e-3)
        fr = build_frame(p)
        grid = _trace_grid(1.0, fr.rabi_tilde)
        tr1 = spectrum(p, grid)
        tr2 = spectrum(p, grid, n_max=tr1.n_max + 4)
        assert np.max(np.abs(tr1.values - tr2.values)) < 1e-8

    @pytest.mark.parametrize("mode", [FrameMode.CHRW, FrameMode.RWA])
    @pytest.mark.parametrize("amp", [0.05, 0.1, 0.2, 0.4, 1.0, 2.0])
    def test_raw_trace_is_sum_of_laplace_kernels(self, amp, mode):
        # the trace contracts each sideband's three rationals into one and
        # evaluates it in real arithmetic; the sum of the separate kernels
        # per sideband, written out here and scaled to its own peak, must
        # agree.  kappa = A/400 and kappa = 0.05 rabi_tilde add the narrow
        # and the broad lines, where the trace's c1 - w^2 cancels hardest;
        # the worst measured gap is 1.1e-15 of the peak (A = 0.05, RWA,
        # kappa = A/400)
        shift = bs_chrw(1.0, amp).shift
        for pump in (1.0, 1.0 + shift, 1.0 + 2.0 * shift):
            rabi = build_frame(
                ModelParams(omega0=1.0, amplitude=amp, omega=pump, kappa=2e-3), mode=mode
            ).rabi_tilde
            for kappa in (2e-3, amp / 400.0, 0.05 * rabi):
                p = ModelParams(omega0=1.0, amplitude=amp, omega=pump, kappa=kappa)
                fr = build_frame(p, mode=mode)
                half = min(2.2 * fr.rabi_tilde, 0.9 * pump)
                grid = np.linspace(pump - half, pump + half, 801)
                tr = spectrum(p, grid, mode=mode)
                expected = _kernel_sum(p, mode, grid, tr.n_max)
                expected /= np.max(np.abs(expected))
                assert np.max(np.abs(tr.values - expected)) <= 4e-14

    def test_sideband_cap_is_truncation_rule(self):
        # the cap is truncation_order's three-orders rule, the one routine
        # that also returns the Bessel values the trace needs anyway; it
        # binds at small z (truncation order 3 near z = 0) and at
        # TRUNCATION_CAP for z = 50
        for z in np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 61)]):
            full = bessel_j_sequence(70, z)
            for n in (*range(1, 66, 2), 99):
                n_max, j = _truncation_rule(z, n)
                assert n_max == min(n, truncation_order(z)), (z, n)
                assert np.array_equal(j, full[: j.size]) and j.size >= n_max + 2
        p = ModelParams(omega0=1.0, amplitude=0.3, omega=1.0, kappa=2e-3)
        z = build_frame(p).z
        grid = _trace_grid(1.0, build_frame(p).rabi_tilde)
        for n in (1, 3, 51):
            assert spectrum(p, grid, n_max=n).n_max == min(n, truncation_order(z))

    def test_leaves_grid_alone_and_returns_fresh_values(self):
        p, fr, rs, ss = _resonant_point()
        grid = _trace_grid(p.omega, fr.rabi_tilde)
        before = grid.copy()
        first = spectrum(p, grid)
        second = spectrum(p, grid)
        assert grid.tobytes() == before.tobytes()
        assert np.array_equal(first.values, second.values)
        assert not np.shares_memory(first.values, second.values)
        assert not np.shares_memory(first.values, grid)

    def test_undamped_probe_on_pole_raises(self, monkeypatch):
        # a free generator has det(p - M) = p (p^2 + rabi^2): probing at
        # w = n omega - nu = rabi hits the free-precession pole, and the
        # trace's check must reach it through the bound laplace_g uses
        p, fr, rs, ss = _resonant_point()
        free = RateSet(0j, 0j, 0j, 0j, 0j, 0j)
        monkeypatch.setattr(spectrum_module, "rates", lambda frame, params: free)
        monkeypatch.setattr(
            spectrum_module, "steady_state", lambda r, w: SteadyState(-1.0, 0.0j)
        )
        seen = []

        def recorded(rate_set, rabi_tilde, p_abs):
            seen.append(rate_set)
            return _pole_bound(rate_set, rabi_tilde, p_abs)

        monkeypatch.setattr(spectrum_module, "_pole_bound", recorded)
        grid = np.array([p.omega - 2.0 * fr.rabi_tilde, p.omega - fr.rabi_tilde, p.omega + 0.01])
        with pytest.raises(PoleError):
            spectrum(p, grid, n_max=1)
        assert seen and all(r is free for r in seen)
        with pytest.raises(PoleError):
            laplace_g(free, fr.rabi_tilde, (1.0 + 0j, 0j, 0j), 1j * fr.rabi_tilde)

    def test_one_reduction_matches_pointwise_check(self):
        # the bound grows with |w|: a grid reaching far from the pole and
        # passing close to it fails the single comparison at its far end,
        # and the point-by-point check must then give the plain verdict
        free = RateSet(0j, 0j, 0j, 0j, 0j, 0j)
        rabi = 0.5
        den, _ = _response_coefficients(free, rabi, (0j, 0j, 0j))
        den = den.real
        cases = {
            "near pole": np.linspace(rabi + 1e-12, 5.0, 2001),
            "on pole": np.linspace(rabi, 5.0, 2001),
            "far from pole": np.linspace(2.0, 5.0, 2001),
        }
        for label, w in cases.items():
            d = np.polyval(den, 1j * w)
            d2 = d.real**2 + d.imag**2
            w_far = float(np.max(np.abs(w)))
            pointwise = bool(np.any(d2 < _pole_bound(free, rabi, np.abs(w)) ** 2))
            one_pass = d2.min() >= _pole_bound(free, rabi, w_far) ** 2
            if label == "near pole":
                assert not one_pass and not pointwise
            try:
                _check_axis_poles(d2, w, w_far, free, rabi)
                raised = False
            except PoleError:
                raised = True
            assert raised == pointwise, label
            assert raised == (label == "on pole"), label

    def test_default_sideband_count(self):
        assert default_sideband_count(1.2, 1.0) == 3
        assert default_sideband_count(4.5, 1.0) == 7
        # uncapped here: spectrum caps it (test_sideband_cap_is_truncation_rule)
        assert default_sideband_count(50.0, 1.0) == 51


class TestAsymmetryMetric:
    @staticmethod
    def _synthetic(values, nu, params=None):
        if params is None:
            res = bs_chrw(1.0, 0.1)
            params = ModelParams(
                omega0=1.0, amplitude=0.1, omega=res.omega_res, kappa=2e-3
            )
        return SpectrumTrace(
            nu_grid=nu,
            values=values,
            rabi_tilde=build_frame(params, mode=FrameMode.CHRW).rabi_tilde,
            n_max=1,
        )

    @staticmethod
    def _lorentzian(x, width=2e-3):
        return width**2 / (x**2 + width**2)

    def test_symmetric_pair_scores_zero(self):
        c = 1.0
        nu = c + np.arange(-180, 181) * 5e-4
        rabi = 0.0499921919767973
        vals = self._lorentzian(nu - c - rabi) + self._lorentzian(nu - c + rabi)
        assert asymmetry_metric(self._synthetic(vals, nu), c) < 1e-12

    def test_single_sided_scores_near_one(self):
        c = 1.0
        nu = c + np.arange(-180, 181) * 5e-4
        rabi = 0.0499921919767973
        vals = self._lorentzian(nu - c - rabi)
        assert asymmetry_metric(self._synthetic(vals, nu), c) > 0.9

    def test_scale_invariant(self):
        c = 1.0
        nu = c + np.arange(-180, 181) * 5e-4
        rabi = 0.0499921919767973
        vals = self._lorentzian(nu - c - rabi) + 0.3 * self._lorentzian(nu - c + rabi)
        a = asymmetry_metric(self._synthetic(vals, nu), c)
        b = asymmetry_metric(self._synthetic(7.3 * vals, nu), c)
        assert a == pytest.approx(b, rel=1e-12)
        assert 0.0 < a < 1.0

    def test_one_pass_sums_match_trapezoid(self):
        # sum minus half the end points, against np.trapezoid on the same
        # window, over random uniform grids and traces of either sign
        rng = np.random.default_rng(20)
        worst = 0.0
        for _ in range(200):
            params = ModelParams(
                omega0=1.0, amplitude=rng.uniform(0.05, 0.4), omega=1.0, kappa=2e-3
            )
            rabi = build_frame(params).rabi_tilde
            h = rabi * 10.0 ** rng.uniform(-3.5, -0.5)
            c = rng.uniform(0.5, 2.0)
            m = math.ceil(1.5 * rabi / h) + int(rng.integers(1, 50))
            nu = c + np.arange(-m, m + 1) * h
            vals = rng.normal(size=nu.size) + rng.uniform(-1.0, 1.0)
            got = asymmetry_metric(self._synthetic(vals, nu, params), c)
            k_lo = math.ceil(0.5 * rabi / h - 1e-12)
            k_hi = math.floor(1.5 * rabi / h + 1e-12)
            upper = vals[m + k_lo : m + k_hi + 1]
            lower = vals[m - k_hi : m - k_lo + 1][::-1]
            expected = np.trapezoid(np.abs(upper - lower), dx=h) / np.trapezoid(
                np.abs(upper) + np.abs(lower), dx=h
            )
            worst = max(worst, abs(got - expected) / expected)
        assert worst <= 1e-15

    def test_grid_too_short(self):
        nu = 1.0 + np.arange(-2, 2) * 5e-4
        with pytest.raises(GridError, match="short"):
            asymmetry_metric(self._synthetic(np.ones_like(nu), nu), 1.0)

    def test_nonuniform_grid(self):
        nu = 1.0 + np.arange(-180, 181) * 5e-4
        nu[10] += 1e-5
        with pytest.raises(GridError, match="uniform"):
            asymmetry_metric(self._synthetic(np.ones_like(nu), nu), 1.0)

    def test_center_off_grid(self):
        nu = 1.0 + np.arange(-180, 181) * 5e-4
        with pytest.raises(GridError, match="grid point"):
            asymmetry_metric(self._synthetic(np.ones_like(nu), nu), 1.0 + 2e-4)

    def test_center_half_step_off_grid(self):
        nu = 1.0 + np.arange(-180, 181) * 5e-4
        with pytest.raises(GridError, match="grid point"):
            asymmetry_metric(self._synthetic(np.ones_like(nu), nu), 1.0 + 0.5 * 5e-4)

    def test_center_beyond_grid_end(self):
        nu = 1.0 + np.arange(-180, 181) * 5e-4
        with pytest.raises(GridError, match="grid point"):
            asymmetry_metric(self._synthetic(np.ones_like(nu), nu), nu[-1] + 5e-4)

    def test_one_step_off_by_two_parts_per_billion(self):
        h = 5e-4
        nu = 1.0 + np.arange(-180, 181) * h
        nu[200:] += 2e-9 * h
        with pytest.raises(GridError, match="uniform"):
            asymmetry_metric(self._synthetic(np.ones_like(nu), nu), 1.0)

    def test_window_off_edge(self):
        # grid spans less than 1.5 dressed splittings either side
        nu = 1.0 + np.arange(-80, 81) * 5e-4
        with pytest.raises(GridError, match="edge"):
            asymmetry_metric(self._synthetic(np.ones_like(nu), nu), 1.0)

    def test_window_unresolvable(self):
        nu = 1.0 + np.arange(-4, 5) * 0.06
        with pytest.raises(GridError, match="resolve"):
            asymmetry_metric(self._synthetic(np.ones_like(nu), nu), 1.0)
