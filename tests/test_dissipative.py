"""Transformed-frame dissipator: harmonics, rates, steady state, lab-frame oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from bloch_siegert_lab import dissipative
from bloch_siegert_lab.chrw import (
    FrameMode,
    ModelParams,
    bessel_argument,
    build_frame,
)
from bloch_siegert_lab.dissipative import (
    TRUNCATION_CAP,
    RateSet,
    bloch_generator,
    fourier_coefficients,
    fourier_f,
    lindblad_tensor,
    oracle_lindblad,
    population_avg,
    rates,
    steady_state,
    truncation_order,
    x_coefficients,
)
from bloch_siegert_lab.errors import DegenerateInputError, NoSignChangeError
from bloch_siegert_lab.floquet import periodic_steady_state
from bloch_siegert_lab.numerics import bessel_j
from bloch_siegert_lab.resonance import bs_chrw

# a moderately strong working point used for most frozen pins: drive as large
# as the splitting, frequency near the shifted resonance for this amplitude
P_STRONG = ModelParams(omega0=1.0, amplitude=1.0, omega=1.063268, kappa=2e-3)

# a much stronger drive pumped at omega0: Bessel argument z ~ 14.6 and
# truncation L = 43, where every harmonic table column carries weight
P_STRONGEST = ModelParams(omega0=1.0, amplitude=15.0, omega=1.0, kappa=2e-3)

SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _dressed_kets(frame):
    """Dressed kets (|+~>, |-~>) in the bare {|+>, |->} basis, from the
    dressing angle: |+~> = cos(theta)|+> + sin(theta)|->, |-~> =
    sin(theta)|+> - cos(theta)|->."""
    c, s = math.cos(frame.theta), math.sin(frame.theta)
    return np.array([c, s]), np.array([s, -c])


def _frame_unitary(params, frame, t):
    """Rotation-times-kick unitary taking lab states to the transformed
    frame at time t; the identity at t = 0."""
    phi = 0.5 * bessel_argument(params, frame) * math.sin(params.omega * t)
    half = 0.5 * params.omega * t
    rot = np.diag([np.exp(1j * half), np.exp(-1j * half)])
    kick = np.array(
        [[math.cos(phi), 1j * math.sin(phi)], [1j * math.sin(phi), math.cos(phi)]]
    )
    return rot @ kick


def _transformed_operator(params, frame, t):
    """Dressed-basis matrix of the raising operator after the frame change.

    Built from scratch: explicit rotation-times-kick unitary, conjugation,
    projection onto the dressed pair.  Shares nothing with the module's
    harmonic bookkeeping, which is the point.
    """
    u = _frame_unitary(params, frame, t)
    up, dn = _dressed_kets(frame)
    v = np.column_stack([up, dn])
    return v.conj().T @ (u @ SIGMA_PLUS @ u.conj().T) @ v


def _operator_samples(params, frame, samples=4096):
    """The transformed raising operator on a uniform grid over one period."""
    period = 2.0 * math.pi / params.omega
    ts = np.arange(samples) * (period / samples)
    return ts, np.array([_transformed_operator(params, frame, t) for t in ts])


def _harmonic_integral(params, ts, ops, n):
    """n-th Fourier coefficient of the sampled transformed raising operator.

    Plain mean over one period; for a periodic integrand the uniform-grid
    mean converges spectrally, so 4096 samples land at machine precision.
    """
    return np.einsum("t,tij->ij", np.exp(-1j * n * params.omega * ts), ops) / len(ts)


class TestTruncationOrder:
    def test_zero_argument(self):
        # J_2, J_3, J_4 all vanish at the origin, so the first window that
        # clears the threshold is l = 3
        assert truncation_order(0.0) == 3

    def test_grows_with_argument(self):
        orders = [truncation_order(z) for z in (0.1, 0.5, 2.0, 5.0)]
        assert orders == sorted(orders)
        assert all(o % 2 == 1 for o in orders)

    def test_cap(self):
        assert truncation_order(100.0) == TRUNCATION_CAP

    def test_tail_actually_small(self):
        z = 1.7
        l = truncation_order(z)
        assert max(abs(bessel_j(k, z)) for k in (l - 1, l, l + 1)) < 1e-14


class TestFourierF:
    def test_frozen_pins_strong_drive(self):
        fr = build_frame(P_STRONG)
        got = fourier_f(fr, P_STRONG, 1, 1)
        want = (-0.9778363153632563, 0.9922331609316308, 0.9847082911771802)
        np.testing.assert_allclose(got, want, atol=1e-13)
        got = fourier_f(fr, P_STRONG, 1, -1)
        want = (0.22716120328066086, 0.2570917269857733, -0.016288392442662315)
        np.testing.assert_allclose(got, want, atol=1e-13)
        got = fourier_f(fr, P_STRONG, 3, 1)
        want = (-0.013578699090366393, 0.016200702294192848, 0.014882307321283284)
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_table_shape(self):
        fr = build_frame(P_STRONG)
        table = fourier_coefficients(fr, P_STRONG)
        assert table.max_order == 13
        assert bessel_argument(P_STRONG, fr) == pytest.approx(0.4918022766296485, abs=1e-12)
        # rows: signature +1, -1; columns: l = 1, 3, ..., 13
        for weights in (table.f_plus, table.f_minus, table.f_z):
            assert weights.shape == (2, 7)

    def test_table_matches_single_harmonics_at_strong_drive(self):
        fr = build_frame(P_STRONGEST)
        table = fourier_coefficients(fr, P_STRONGEST)
        assert table.max_order == 43
        assert bessel_argument(P_STRONGEST, fr) == pytest.approx(14.6, abs=1e-3)
        for l in range(1, table.max_order + 1, 2):
            for row, sign in enumerate((1, -1)):
                k = (l - 1) // 2
                want = (table.f_plus[row, k], table.f_minus[row, k], table.f_z[row, k])
                assert fourier_f(fr, P_STRONGEST, l, sign) == want, (l, sign)

    @pytest.mark.parametrize("l,sign", [(0, 1), (2, 1), (-1, 1), (1, 0), (1, 2)])
    def test_rejects_bad_indices(self, l, sign):
        fr = build_frame(P_STRONG)
        with pytest.raises(ValueError):
            fourier_f(fr, P_STRONG, l, sign)

    def test_sign_flip_is_negation_above_one(self):
        # the Kronecker delta only enters at l = 1; beyond it the two
        # signatures are exact negatives of each other
        fr = build_frame(P_STRONG)
        for l in (3, 5, 7):
            plus = np.array(fourier_f(fr, P_STRONG, l, 1))
            minus = np.array(fourier_f(fr, P_STRONG, l, -1))
            np.testing.assert_allclose(minus, -plus, atol=1e-16)

    def test_rwa_limit(self):
        # no kick (z = 0): only the l = 1, sign = +1 triple survives and
        # reduces to the textbook dressed-operator weights
        p = ModelParams(omega0=1.0, amplitude=0.3, omega=1.1, kappa=1e-3)
        fr = build_frame(p, mode=FrameMode.RWA)
        th = fr.theta
        np.testing.assert_allclose(
            fourier_f(fr, p, 1, 1),
            (-2.0 * math.cos(th) ** 2, 2.0 * math.sin(th) ** 2, math.sin(2 * th)),
            atol=1e-15,
        )
        np.testing.assert_allclose(fourier_f(fr, p, 1, -1), (0.0, 0.0, 0.0), atol=1e-15)


class TestXCoefficients:
    def test_against_harmonic_integral(self):
        # the analytic blocks against a brute-force Fourier integral of the
        # conjugated operator, every relevant index class: positive,
        # negative, beyond-leading, and the even ones that must vanish; at
        # the strongest drive also high harmonics up to the truncation
        low = (1, -1, 3, -3, 5, 0, 2, -4)
        for params, harmonics in (
            (P_STRONG, low),
            (P_STRONGEST, low + (15, -15, 21, -29, 43, -43)),
        ):
            fr = build_frame(params)
            ts, ops = _operator_samples(params, fr)
            for n in harmonics:
                block = x_coefficients(fr, params, n)
                oracle = _harmonic_integral(params, ts, ops, n)
                np.testing.assert_allclose(block, oracle, atol=1e-10, err_msg=f"n={n}")

    def test_completeness(self):
        # summing the harmonic series back up must reproduce the operator
        # pointwise in time, including well outside the first period
        fr = build_frame(P_STRONG)
        table = fourier_coefficients(fr, P_STRONG)
        period = 2.0 * math.pi / P_STRONG.omega
        rng = np.random.default_rng(7)
        for t in rng.uniform(0.0, 3.0 * period, 6):
            total = np.zeros((2, 2), dtype=complex)
            for n in range(-table.max_order, table.max_order + 1):
                if n % 2 != 0:
                    total += x_coefficients(fr, P_STRONG, n, table=table) * np.exp(
                        1j * n * P_STRONG.omega * t
                    )
            np.testing.assert_allclose(total, _transformed_operator(P_STRONG, fr, t), atol=1e-8)

    def test_even_and_out_of_range_blocks_vanish(self):
        fr = build_frame(P_STRONG)
        table = fourier_coefficients(fr, P_STRONG)
        for n in (0, 2, -6, table.max_order + 2, -(table.max_order + 2)):
            assert np.all(x_coefficients(fr, P_STRONG, n, table=table) == 0.0)

    def test_rwa_single_block(self):
        p = ModelParams(omega0=1.0, amplitude=0.3, omega=1.1, kappa=1e-3)
        fr = build_frame(p, mode=FrameMode.RWA)
        th = fr.theta
        want = np.array(
            [
                [0.5 * math.sin(2 * th), -math.cos(th) ** 2],
                [math.sin(th) ** 2, -0.5 * math.sin(2 * th)],
            ]
        )
        np.testing.assert_allclose(x_coefficients(fr, p, 1), want, atol=1e-15)
        assert np.all(x_coefficients(fr, p, -1) == 0.0)
        assert np.all(x_coefficients(fr, p, 3) == 0.0)


class TestLindbladTensor:
    def test_zero_without_decay(self):
        p = dataclasses.replace(P_STRONG, kappa=0.0)
        fr = build_frame(p)
        assert np.all(lindblad_tensor(fr, p) == 0.0)

    def test_linear_in_kappa(self):
        fr = build_frame(P_STRONG)
        doubled = dataclasses.replace(P_STRONG, kappa=2.0 * P_STRONG.kappa)
        np.testing.assert_allclose(
            lindblad_tensor(fr, doubled), 2.0 * lindblad_tensor(fr, P_STRONG), atol=1e-20
        )

    def test_trace_preservation(self):
        # the population rows must sum to zero column by column, or the
        # reduced equation would leak probability
        fr = build_frame(P_STRONG)
        tensor = lindblad_tensor(fr, P_STRONG)
        np.testing.assert_allclose(tensor[0, 0] + tensor[1, 1], 0.0, atol=1e-18)

    def test_closure_identities(self):
        # with real harmonic weights the tensor has two internal symmetries
        # that the six-rate reduction silently relies on
        fr = build_frame(P_STRONG)
        t = lindblad_tensor(fr, P_STRONG)
        assert abs(t[0, 0, 1, 0] - t[0, 0, 0, 1]) < 1e-18
        assert abs(0.5 * (t[1, 0, 0, 0] - t[1, 0, 1, 1]) - t[0, 0, 0, 1]) < 1e-18

    def test_entries_real(self):
        fr = build_frame(P_STRONG)
        tensor = lindblad_tensor(fr, P_STRONG)
        assert np.max(np.abs(tensor.imag)) < 1e-19 * P_STRONG.kappa


class TestRates:
    def test_rwa_closed_forms(self):
        # in the no-kick limit all six rates collapse to elementary
        # trigonometric expressions in the mixing angle; derived by hand
        # from the single surviving harmonic block
        p = ModelParams(omega0=1.0, amplitude=0.4, omega=1.25, kappa=3e-3)
        fr = build_frame(p, mode=FrameMode.RWA)
        rs = rates(fr, p)
        th, k = fr.theta, p.kappa
        assert rs.gamma_0 == pytest.approx(k * math.cos(2 * th), abs=1e-15)
        assert rs.gamma_z == pytest.approx(
            k * (math.cos(th) ** 4 + math.sin(th) ** 4), abs=1e-15
        )
        assert rs.gamma_1 == pytest.approx(k / 8 * math.sin(4 * th), abs=1e-15)
        assert rs.gamma_2 == pytest.approx(k / 2 * math.sin(2 * th), abs=1e-15)
        assert rs.gamma_minus == pytest.approx(k / 4 * math.sin(2 * th) ** 2, abs=1e-15)
        assert rs.gamma_plus == pytest.approx(
            k / 2 * (1 + 0.5 * math.sin(2 * th) ** 2), abs=1e-15
        )

    def test_gamma0_tracks_projector_bracket(self):
        # the population source is the decay rate times the same Bessel
        # bracket that maps dressed inversion to lab population; the exact
        # tensor keeps them aligned to a small fraction of kappa
        for w in (1.0, 1.0006, 1.002):
            p = ModelParams(omega0=1.0, amplitude=0.1, omega=w, kappa=2e-3)
            fr = build_frame(p)
            rs = rates(fr, p)
            z = bessel_argument(p, fr)
            bracket = fr.cos_2theta * bessel_j(0, z) + fr.sin_2theta * bessel_j(1, z)
            assert abs(rs.gamma_0.real - p.kappa * bracket) < 1e-3 * p.kappa

    def test_gamma0_changes_sign_at_resonance(self):
        # the population source crosses zero exactly where the shifted
        # resonance sits; that crossing is what makes the steady population
        # peak there
        res = bs_chrw(1.0, 0.1)
        vals = []
        for w in (res.omega_res - 2e-5, res.omega_res + 2e-5):
            p = ModelParams(omega0=1.0, amplitude=0.1, omega=w, kappa=2e-3)
            fr = build_frame(p)
            vals.append(rates(fr, p).gamma_0.real)
        assert vals[0] * vals[1] < 0.0

    @pytest.mark.parametrize("mode", [FrameMode.CHRW, FrameMode.RWA])
    @pytest.mark.parametrize(
        "p",
        [ModelParams(omega0=1.0, amplitude=0.1, omega=1.0, kappa=2e-3), P_STRONG, P_STRONGEST],
        ids=["A0.1", "A1", "A15"],
    )
    def test_closed_sums_match_tensor(self, p, mode):
        # the closed-form rates against the full rank-4 dissipator, which sums
        # the truncated harmonic table term by term; A = 15 at omega0 runs
        # every harmonic up to L = 43
        fr = build_frame(p, mode=mode)
        got = rates(fr, p)
        want = RateSet.from_tensor(lindblad_tensor(fr, p))
        tol = 1e-15 * abs(want.gamma_z)
        for name in ("gamma_z", "gamma_0", "gamma_1", "gamma_2", "gamma_minus", "gamma_plus"):
            assert abs(getattr(got, name) - getattr(want, name)) <= tol, name

    @pytest.mark.parametrize("mode", [FrameMode.CHRW, FrameMode.RWA])
    @pytest.mark.parametrize("omega0", [0.3, 1.0, 7.0])
    def test_closed_sums_match_tensor_on_grid(self, omega0, mode):
        # the same comparison over A/omega0 in [1e-4, 16] (up to L = 43),
        # below, at and above resonance, with the same bound.  gamma_z
        # lies between kappa/2 and kappa, so the bound is at most 1e-15
        # kappa; the measured worst is 6.8e-16 kappa (8.7e-16 gamma_z)
        checked = 0
        for amp in omega0 * np.geomspace(1e-4, 16.0, 30):
            res = bs_chrw(omega0, amp).omega_res
            for w in (0.9 * omega0, omega0, res, 1.1 * omega0):
                p = ModelParams(omega0=omega0, amplitude=amp, omega=w, kappa=2e-3)
                try:
                    fr = build_frame(p, mode=mode)
                except NoSignChangeError:
                    continue  # inside a negative lobe of J1 the frame does not exist
                got = rates(fr, p)
                want = RateSet.from_tensor(lindblad_tensor(fr, p))
                tol = 1e-15 * abs(want.gamma_z)
                for name in ("gamma_z", "gamma_0", "gamma_1", "gamma_2", "gamma_minus", "gamma_plus"):
                    assert abs(getattr(got, name) - getattr(want, name)) <= tol, (amp, w, name)
                checked += 1
        assert checked >= 110

    def test_closed_form_builds_no_harmonic_table(self, monkeypatch):
        # rates needs J_0, J_1, J_2 at z and 2z only: no truncation order
        # and no Bessel sequence
        def forbidden(*args):
            raise AssertionError("rates built the harmonic table")

        monkeypatch.setattr(dissipative, "truncation_order", forbidden)
        monkeypatch.setattr(dissipative, "bessel_j_sequence", forbidden)
        for p in (P_STRONG, P_STRONGEST):
            for mode in (FrameMode.CHRW, FrameMode.RWA):
                fr = build_frame(p, mode=mode)
                assert rates(fr, p).gamma_z.real > 0.0

    def test_closed_sums_vanish_without_decay(self):
        for amp in (0.1, 15.0):
            p = ModelParams(omega0=1.0, amplitude=amp, omega=1.0, kappa=0.0)
            rs = rates(build_frame(p), p)
            assert all(
                getattr(rs, name) == 0.0
                for name in ("gamma_z", "gamma_0", "gamma_1", "gamma_2", "gamma_minus", "gamma_plus")
            )

    def test_from_tensor_roundtrip(self):
        fr = build_frame(P_STRONG)
        tensor = lindblad_tensor(fr, P_STRONG)
        rs = RateSet.from_tensor(tensor)
        assert rs.gamma_z == tensor[0, 0, 0, 0] - tensor[0, 0, 1, 1]
        assert rs.gamma_plus == tensor[1, 0, 1, 0]


class TestSteadyState:
    def test_frozen_pin_half_drive(self):
        p = ModelParams(omega0=1.0, amplitude=0.5, omega=1.02, kappa=2e-3)
        fr = build_frame(p)
        ss = steady_state(rates(fr, p), fr.rabi_tilde)
        assert ss.sz_ss == pytest.approx(0.03533170871307479, abs=1e-13)
        assert abs(ss.splus_ss) == pytest.approx(0.003981869898197063, abs=1e-13)
        assert ss.sminus_ss == ss.splus_ss.conjugate()

    def test_frozen_pin_at_resonance(self):
        res = bs_chrw(1.0, 0.1)
        p = ModelParams(omega0=1.0, amplitude=0.1, omega=res.omega_res, kappa=2e-3)
        fr = build_frame(p)
        assert fr.rabi_tilde == pytest.approx(0.0499921919767973, abs=1e-12)
        ss = steady_state(rates(fr, p), fr.rabi_tilde)
        assert ss.sz_ss == pytest.approx(7.797996301774225e-06, abs=1e-15)
        assert ss.splus_ss.real == pytest.approx(-0.0003998049422423231, abs=1e-13)
        assert ss.splus_ss.imag == pytest.approx(-0.019980885950722893, abs=1e-13)

    def test_is_fixed_point(self):
        p = ModelParams(omega0=1.0, amplitude=0.5, omega=1.02, kappa=2e-3)
        fr = build_frame(p)
        rs = rates(fr, p)
        ss = steady_state(rs, fr.rabi_tilde)
        m, b = bloch_generator(rs, fr.rabi_tilde)
        y = np.array([ss.splus_ss, ss.sminus_ss, ss.sz_ss])
        assert np.max(np.abs(m @ y + b)) < 1e-15

    def test_weak_decay_ratio(self):
        # to leading order in kappa / rabi the inversion is -gamma_0/gamma_z
        p = ModelParams(omega0=1.0, amplitude=0.5, omega=1.02, kappa=2e-3)
        fr = build_frame(p)
        rs = rates(fr, p)
        ss = steady_state(rs, fr.rabi_tilde)
        assert ss.sz_ss == pytest.approx(-(rs.gamma_0 / rs.gamma_z).real, rel=1e-3)

    def test_degenerate_rates_raise(self):
        zero = RateSet(0j, 0j, 0j, 0j, 0j, 0j)
        with pytest.raises(DegenerateInputError):
            steady_state(zero, 0.5)


class TestPopulation:
    def test_frozen_average_pin(self):
        p = ModelParams(omega0=1.0, amplitude=0.5, omega=1.02, kappa=2e-3)
        fr = build_frame(p)
        assert population_avg(fr, p, rates(fr, p)) == pytest.approx(
            0.499685418376324, abs=1e-12
        )

    def test_intermediate_drive_against_exact_steady_state(self):
        # A = 4 pumped at its CHRW resonance with kappa = 1e-2 rabi_tilde,
        # where the closed form is least accurate: measured relative error
        # 2.31e-3 against the exact periodic steady state, bound twice that
        w = bs_chrw(1.0, 4.0).omega_res
        rabi = build_frame(ModelParams(omega0=1.0, amplitude=4.0, omega=w)).rabi_tilde
        p = ModelParams(omega0=1.0, amplitude=4.0, omega=w, kappa=1e-2 * rabi)
        fr = build_frame(p)
        closed = population_avg(fr, p, rates(fr, p))
        exact = periodic_steady_state(p)
        assert abs(closed - exact) / exact < 4.6e-3

    def test_average_bounded_by_half(self):
        # the steady inversion always opposes the projector bracket, so the
        # saturated value 1/2 is an upper bound approached at resonance
        for w in np.linspace(0.99, 1.01, 11):
            p = ModelParams(omega0=1.0, amplitude=0.1, omega=float(w), kappa=2e-3)
            fr = build_frame(p)
            avg = population_avg(fr, p, rates(fr, p))
            assert 0.0 < avg <= 0.5 + 1e-12


class TestOracleLindblad:
    def test_undriven_decay(self):
        p = ModelParams(omega0=1.0, amplitude=0.0, omega=1.0, kappa=5e-2)
        t = np.linspace(0.0, 60.0, 121)
        excited = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        rhos = oracle_lindblad(p, excited, t)
        np.testing.assert_allclose(rhos[:, 0, 0].real, np.exp(-p.kappa * t), atol=1e-9)
        traces = np.einsum("tii->t", rhos)
        np.testing.assert_allclose(traces, 1.0, atol=1e-14)

    def test_unitary_limit_preserves_purity(self):
        p = ModelParams(omega0=1.0, amplitude=1.0, omega=1.1, kappa=0.0)
        excited = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        rhos = oracle_lindblad(p, excited, np.linspace(0.0, 50.0, 101))
        purity = np.einsum("tij,tji->t", rhos, rhos).real
        np.testing.assert_allclose(purity, 1.0, atol=1e-8)

    def test_rejects_bad_initial_states(self):
        p = ModelParams(omega0=1.0, amplitude=0.1, omega=1.0, kappa=1e-3)
        t = np.linspace(0.0, 1.0, 3)
        with pytest.raises(ValueError, match="Hermitian"):
            oracle_lindblad(p, np.array([[1.0, 0.5], [0.0, 0.0]]), t)
        with pytest.raises(ValueError, match="trace"):
            oracle_lindblad(p, np.array([[0.9, 0.0], [0.0, 0.0]]), t)
        with pytest.raises(ValueError, match="positive"):
            oracle_lindblad(p, np.array([[1.5, 0.0], [0.0, -0.5]]), t)

    def test_rejects_bad_grids(self):
        p = ModelParams(omega0=1.0, amplitude=0.1, omega=1.0, kappa=1e-3)
        ground = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            oracle_lindblad(p, ground, np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            oracle_lindblad(p, ground, np.array([-1.0, 0.5]))


class TestAgainstOracle:
    def test_transient_trajectory(self):
        # ground-state start, drive at the shifted resonance: the dressed
        # Bloch equations, propagated exactly and mapped back to lab
        # populations, must track the direct lab-frame integration through
        # the full initial transient.  Measured worst 1.4e-5, bound twice that
        res = bs_chrw(1.0, 0.1)
        p = ModelParams(omega0=1.0, amplitude=0.1, omega=res.omega_res, kappa=2e-3)
        fr = build_frame(p)
        rs = rates(fr, p)
        ground = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        t = np.linspace(0.0, 400.0, 801)
        reference = oracle_lindblad(p, ground, t)[:, 0, 0].real
        # the frame unitary is the identity at t = 0, so the dressed state
        # is a plain projection onto the dressed pair; y = (s+, s-, sz, 1)
        up, dn = _dressed_kets(fr)
        coherence = dn @ ground @ up
        y0 = np.array([coherence, coherence.conjugate(), up @ ground @ up - dn @ ground @ dn, 1.0])
        m, b = bloch_generator(rs, fr.rabi_tilde)
        generator = np.zeros((4, 4), dtype=complex)
        generator[:3, :3], generator[:3, 3] = m, b
        sp, sm, sz, _ = (expm(t[:, None, None] * generator) @ y0).T
        # dressed-basis density matrices, then rho_lab = U^H rho U
        rho = (
            np.multiply.outer(0.5 * (1.0 + sz), np.outer(up, up))
            + np.multiply.outer(0.5 * (1.0 - sz), np.outer(dn, dn))
            + np.multiply.outer(sm, np.outer(up, dn))
            + np.multiply.outer(sp, np.outer(dn, up))
        )
        column = np.array([_frame_unitary(p, fr, ti)[:, 0] for ti in t])
        mapped = np.einsum("tj,tjk,tk->t", column.conj(), rho, column).real
        assert np.max(np.abs(mapped - reference)) < 2.8e-5
        assert np.all(mapped > -5e-3) and np.all(mapped < 1.0 + 5e-3)


class TestRandomScan:
    @given(
        st.floats(min_value=0.02, max_value=3.3),
        st.floats(min_value=0.8, max_value=2.5),
        st.floats(min_value=1e-5, max_value=1e-2),
    )
    @settings(max_examples=60, deadline=None)
    def test_rates_and_steady_state_physical(self, ratio, omega, kappa):
        # drive kept inside the first Bessel lobe where the frame always
        # exists; rates must come out real with positive damping and the
        # steady state must stay inside the Bloch ball
        p = ModelParams(omega0=1.0, amplitude=ratio * omega, omega=omega, kappa=kappa)
        fr = build_frame(p)
        rs = rates(fr, p)
        for g in (rs.gamma_z, rs.gamma_0, rs.gamma_1, rs.gamma_2, rs.gamma_minus,
                  rs.gamma_plus):
            assert abs(g.imag) < 1e-12 * kappa
        assert rs.gamma_z.real > 0.0
        assert rs.gamma_plus.real > 0.0
        ss = steady_state(rs, fr.rabi_tilde)
        length = math.sqrt(ss.sz_ss**2 + 4.0 * abs(ss.splus_ss) ** 2)
        assert length <= 1.0 + 1e-9
        m, b = bloch_generator(rs, fr.rabi_tilde)
        y = np.array([ss.splus_ss, ss.sminus_ss, ss.sz_ss])
        assert np.max(np.abs(m @ y + b)) < 1e-10 * kappa
