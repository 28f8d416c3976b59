"""Floquet machinery: parity-chain route, monodromy route, and their agreement.

The two quasienergy routes are kept deliberately independent (eigenproblem
of one parity chain of the extended-zone matrix vs eigenphases of the
one-period propagator) so each one can serve as the other's oracle.  The
chain is also checked against the full extended-zone matrix, built here.
"""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from bloch_siegert_lab.chrw import ModelParams, build_frame
from bloch_siegert_lab.resonance import bs_chrw, bs_floquet_numeric
from bloch_siegert_lab import floquet
from bloch_siegert_lab.errors import (
    ConvergenceError,
    DegenerateInputError,
    NonUnitaryError,
    TruncationWarning,
)
from bloch_siegert_lab.floquet import (
    branch_gap,
    build_floquet_matrix,
    circle_gap,
    default_truncation,
    fold_to_zone,
    monodromy_gap,
    monodromy_quasienergies,
    periodic_steady_state,
    propagator_samples,
    solve_floquet,
)


def _folded_abs(x: float, omega: float) -> float:
    r = x % omega
    return min(r, omega - r)


class TestZoneFolding:
    @pytest.mark.parametrize(
        "q, omega, want",
        [
            (0.0, 1.0, 0.0),
            (0.5, 1.0, 0.5),       # upper edge is included
            (-0.5, 1.0, 0.5),      # lower edge maps to the upper one
            (0.7, 1.0, -0.3),
            (-0.7, 1.0, 0.3),
            (12.3, 1.0, 0.3),
            (3.25, 1.3, 0.65),
        ],
    )
    def test_values(self, q, omega, want):
        assert fold_to_zone(q, omega) == pytest.approx(want, abs=1e-12)

    @given(st.floats(min_value=-50.0, max_value=50.0), st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=200, deadline=None)
    def test_fold_is_mod_omega(self, q, omega):
        f = fold_to_zone(q, omega)
        assert -0.5 * omega < f <= 0.5 * omega + 1e-12
        # f and q differ by an integer number of omega
        k = (q - f) / omega
        assert abs(k - round(k)) < 1e-9

    def test_circle_gap(self):
        assert circle_gap(0.45, -0.45, 1.0) == pytest.approx(0.1, abs=1e-12)
        assert circle_gap(0.1, 0.3, 1.0) == pytest.approx(0.2, abs=1e-12)
        assert circle_gap(0.3, 0.1, 1.0) == pytest.approx(0.2, abs=1e-12)
        assert circle_gap(7.3, 0.1, 1.0) == pytest.approx(0.2, abs=1e-12)


class TestMatrixStructure:
    def test_minimal_block_is_diagonal(self):
        # with no photon sidebands there is nothing for the drive to couple:
        # the drive enters only through the l -> l +- 1 couplings, and the
        # chain is the single site |up, 0> at 0 (diagonal shifted by -omega0/2)
        p = ModelParams(omega0=1.0, amplitude=1.0, omega=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            diag, off = build_floquet_matrix(p, n_trunc=0)
        np.testing.assert_array_equal(diag, [0.0])
        assert off.shape == (0,)

    def test_one_sideband_structure(self):
        # sites |down,-1>, |up,0>, |down,1>: l*omega - omega0/2 on down
        # sites and l*omega + omega0/2 on up sites, all shifted by -omega0/2
        p = ModelParams(omega0=0.8, amplitude=1.2, omega=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            diag, off = build_floquet_matrix(p, n_trunc=1)
        np.testing.assert_allclose(diag, [-2.3, 0.0, 0.7], atol=1e-15)
        np.testing.assert_array_equal(off, [0.3, 0.3])  # A/4

    def test_low_truncation_warns(self):
        p = ModelParams(omega0=1.0, amplitude=20.0, omega=1.0)
        with pytest.warns(TruncationWarning):
            build_floquet_matrix(p, n_trunc=int(math.ceil(20.0)) + 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_floquet_matrix(p, n_trunc=int(math.ceil(20.0)) + 10)

    def test_default_truncation_scales_with_drive(self):
        assert default_truncation(ModelParams(omega0=1.0, amplitude=0.1, omega=1.0)) == 25
        assert default_truncation(ModelParams(omega0=1.0, amplitude=40.0, omega=2.0)) == 40


class TestBrillouinReplication:
    def test_truncation_convergence(self):
        p = ModelParams(omega0=1.0, amplitude=6.0, omega=2.2)
        n = default_truncation(p)
        a = solve_floquet(p, n_trunc=n)
        b = solve_floquet(p, n_trunc=n + 10)
        assert abs(a.quasienergy - b.quasienergy) < 1e-10
        assert abs(a.dq_domega0 - b.dq_domega0) < 1e-10


class TestSolveFloquet:
    def test_frozen_point(self):
        # observables at one interior point, frozen from the cross-checked
        # implementation (monodromy and matrix agree here)
        sol = solve_floquet(ModelParams(omega0=1.0, amplitude=2.0, omega=1.3))
        assert sol.pbar == pytest.approx(0.49867206828780447, abs=1e-12)
        assert sol.dq_domega0 == pytest.approx(0.025767534924741264, abs=1e-12)

    def test_frozen_unit_point(self):
        sol = solve_floquet(ModelParams(omega0=1.0, amplitude=1.0, omega=1.0))
        assert sol.pbar == pytest.approx(0.49181465184149936, abs=1e-12)
        # the chain's lower branch: the mirror branch has slope +0.0639...
        assert sol.dq_domega0 == pytest.approx(-0.06397401096734756, abs=1e-12)
        # the (1 - 4 dq^2)/2 diagnostic never exceeds 1/2
        assert sol.pbar <= 0.5

    def test_undriven_limit(self):
        sol = solve_floquet(ModelParams(omega0=1.0, amplitude=0.0, omega=1.3))
        assert sol.dq_domega0 == pytest.approx(0.5, abs=1e-14)
        assert sol.pbar == pytest.approx(0.0, abs=1e-14)
        assert branch_gap(ModelParams(omega0=1.0, amplitude=0.0, omega=1.3)) == pytest.approx(
            0.3, abs=1e-12
        )

    def test_solution_is_frozen(self):
        sol = solve_floquet(ModelParams(omega0=1.0, amplitude=2.0, omega=1.3))
        with pytest.raises(AttributeError):
            sol.quasienergy = 0.0


class TestMonodromy:
    def test_agrees_with_matrix_route(self):
        worst = 0.0
        for a, w in [(0.3, 0.7), (2.0, 1.0), (6.5, 1.8), (10.0, 1.3)]:
            p = ModelParams(omega0=1.0, amplitude=a, omega=w)
            worst = max(worst, abs(monodromy_gap(p) - branch_gap(p)))
        assert worst < 1e-8

    def test_quasienergy_pair_symmetry(self):
        # sigma_y H sigma_y = -H for this model, so quasienergies come in
        # +-q pairs exactly (away from the fold edge)
        q1, q2 = monodromy_quasienergies(ModelParams(omega0=1.0, amplitude=2.0, omega=1.3))
        assert q1 == pytest.approx(-q2, abs=1e-12)

    def test_frozen_gap_matches_matrix(self):
        p = ModelParams(omega0=1.0, amplitude=2.0, omega=1.3)
        assert monodromy_gap(p) == pytest.approx(0.3437222803458882, abs=5e-9)

    def test_propagator_stays_unitary(self):
        # every sample, and an odd step count for the odd-length products
        p = ModelParams(omega0=1.0, amplitude=8.0, omega=1.1)
        for steps in (2000, 1001):
            ts, us = propagator_samples(p, steps_per_period=steps)
            assert len(ts) == len(us) == steps + 1
            defect = np.max(np.abs(us.conj().transpose(0, 2, 1) @ us - np.eye(2)))
            assert defect < 1e-12

    def test_samples_match_adaptive_integration(self):
        # U(t_k) against an adaptive solve of i dU/dt = H(t) U written out
        # here, so the oracle shares no code with the package
        from scipy.integrate import solve_ivp

        p = ModelParams(omega0=1.0, amplitude=8.0, omega=1.1)
        ts, us = propagator_samples(p, steps_per_period=2000)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        sz = np.diag([1.0, -1.0])

        def rhs(t, flat):
            h = 0.5 * p.omega0 * sz + 0.5 * p.amplitude * math.cos(p.omega * t) * sx
            return (-1j * h @ flat.reshape(2, 2)).ravel()

        state, t = np.eye(2, dtype=complex).ravel(), 0.0
        for k in (500, 1000, 2000):
            sol = solve_ivp(rhs, (t, ts[k]), state, method="DOP853", rtol=1e-13, atol=1e-15)
            assert sol.success, sol.message
            state, t = sol.y[:, -1], ts[k]
            assert np.max(np.abs(us[k] - state.reshape(2, 2))) < 5e-10

    def test_strong_drive_refuses_or_agrees(self):
        # a step too coarse for the drive leaves a unitarity defect that
        # the single projection cannot hide: the oracle raises rather than
        # return a gap off by more than twice its worst measured 1.61e-6
        for w, a in itertools.product((0.3, 0.7, 1.0), (10.0, 20.0, 30.0, 50.0, 100.0)):
            p = ModelParams(omega0=1.0, amplitude=a, omega=w)
            try:
                gap = monodromy_gap(p)
            except NonUnitaryError:
                assert a > 10.0, "the A = 10 points must return a gap"
                continue
            assert abs(gap - branch_gap(p)) < 3.3e-6

    def test_step_floor_enforced(self):
        with pytest.raises(ValueError):
            propagator_samples(ModelParams(omega0=1.0, amplitude=1.0, omega=1.0), steps_per_period=500)


class TestHellmannFeynmanSlope:
    def test_matches_finite_difference(self):
        # dq/domega0 from eigenvector weights vs a centered difference of
        # chain eigenvalue N, whose index is fixed, so nothing is tracked
        h = 1e-6
        for a, w in [(0.5, 1.0), (3.5, 1.7), (8.0, 3.0)]:
            p = ModelParams(omega0=1.0, amplitude=a, omega=w)
            sol = solve_floquet(p)
            up = solve_floquet(dataclasses.replace(p, omega0=1.0 + h), n_trunc=sol.n_trunc)
            dn = solve_floquet(dataclasses.replace(p, omega0=1.0 - h), n_trunc=sol.n_trunc)
            fd = (up.quasienergy - dn.quasienergy) / (2.0 * h)
            assert sol.dq_domega0 == pytest.approx(fd, abs=1e-6)


def _dense_floquet_matrix(params: ModelParams, n: int) -> np.ndarray:
    # the full 2(2n+1)-square Floquet matrix, index 2(l + n) + gamma with
    # gamma = 0 (up) or 1 (down): diagonal l*omega +- omega0/2 and A/4
    # between |up,l> and |down,l+-1>; written out here so the oracle shares
    # no code with the package
    ls = np.arange(-n, n + 1)
    h = np.diag((ls[:, None] * params.omega + [0.5 * params.omega0, -0.5 * params.omega0]).ravel())
    ups = 2 * np.arange(2 * n)
    for i, j in ((ups, ups + 3), (ups + 1, ups + 2)):
        h[i, j] = h[j, i] = 0.25 * params.amplitude
    return h


def _dense_solve(params: ModelParams, n: int) -> tuple[np.ndarray, float, float]:
    # spectrum of the full matrix, the zone-circle gap between its two
    # eigenvectors of largest weight on the l = 0 block, and the slope
    # (upper-level weight - 1/2) of the strongest one
    vals, vecs = np.linalg.eigh(_dense_floquet_matrix(params, n))
    w_l0 = (vecs[2 * n : 2 * n + 2] ** 2).sum(axis=0)
    i2, i1 = np.argsort(w_l0)[-2:]
    gap = circle_gap(float(vals[i1]), float(vals[i2]), params.omega)
    return vals, gap, float((vecs[0::2, i1] ** 2).sum()) - 0.5


CRITERION5_GRID = [(a, w) for a in (0.5, 2.5, 5.0, 7.5, 10.0) for w in (0.7, 1.0, 1.5, 2.2, 3.0)]


class TestChainIsBlockOfFloquetMatrix:
    @pytest.mark.parametrize("a, w", CRITERION5_GRID)
    def test_pair_and_gap_match_full_matrix(self, a, w):
        p = ModelParams(omega0=1.0, amplitude=a, omega=w)
        sol = solve_floquet(p)
        vals, gap, _ = _dense_solve(p, sol.n_trunc)
        assert np.min(np.abs(vals - sol.quasienergy)) < 1e-12
        assert np.min(np.abs(vals + sol.quasienergy)) < 1e-12
        assert branch_gap(p) == pytest.approx(gap, rel=0.0, abs=1e-12)

    def test_zero_truncation(self):
        # one site per chain: q = omega0/2 against the 2 x 2 matrix
        p = ModelParams(omega0=1.0, amplitude=10.0, omega=1.0)
        with pytest.warns(TruncationWarning):
            sol = solve_floquet(p, n_trunc=0)
        vals, gap, _ = _dense_solve(p, 0)
        assert sol.quasienergy == 0.5
        assert np.min(np.abs(vals - sol.quasienergy)) == 0.0
        assert sol.dq_domega0 == 0.5
        assert sol.gap == gap

    @pytest.mark.parametrize("w", [0.7, 1.3, 1.9])
    def test_undriven_limit(self, w):
        # A = 0: eigenvalue N is the lower bare site of the resonant pair,
        # |up,0> (q = omega0/2) above resonance or |down,1> (q = omega -
        # omega0/2) below it
        p = ModelParams(omega0=1.0, amplitude=0.0, omega=w)
        sol = solve_floquet(p)
        vals, gap, _ = _dense_solve(p, sol.n_trunc)
        assert sol.quasienergy == pytest.approx(0.5 if w > 1.0 else w - 0.5, abs=1e-15)
        assert np.min(np.abs(vals - sol.quasienergy)) < 1e-12
        assert sol.dq_domega0 == math.copysign(0.5, w - 1.0)
        assert sol.gap == pytest.approx(abs(w - 1.0), rel=0.0, abs=1e-12)
        assert sol.gap == pytest.approx(gap, rel=0.0, abs=1e-12)


class TestParityChain:
    @pytest.mark.parametrize("a, w", [(0.5, 1.0), (0.5, 1.02), (3.5, 1.7), (8.0, 3.0), (6.0, 2.5)])
    def test_slope_matches_dense_matrix(self, a, w):
        # the full matrix's strongest-l0 branch may sit on either chain, so
        # only the magnitude of the slope is shared; the root finder's slope
        # and solve_floquet read the same eigenpair
        p = ModelParams(omega0=1.0, amplitude=a, omega=w)
        n = default_truncation(p)
        slope = floquet._chain_slope_fn(1.0, a, n)(w - 1.0)
        assert abs(slope) == pytest.approx(abs(_dense_solve(p, n)[2]), abs=1e-12)
        assert slope == pytest.approx(solve_floquet(p, n).dq_domega0, abs=1e-12)

    def test_slope_changes_sign_at_resonance(self):
        # frozen Floquet shift at A = 6
        s_res = 1.6418085520328152
        n = default_truncation(ModelParams(omega0=1.0, amplitude=6.0, omega=1.0 + s_res))
        slope = floquet._chain_slope_fn(1.0, 6.0, n)
        assert slope(s_res - 1e-3) < 0.0 < slope(s_res + 1e-3)
        assert abs(slope(s_res)) < 1e-8

    @pytest.mark.parametrize("n", [25, 45, 120])
    @pytest.mark.parametrize(
        "a, s", [(0.1, 0.0), (0.1, 1e-3), (6.0, 1.6), (6.0, 1.7), (21.0, 7.0), (21.0, 8.5)]
    )
    def test_slope_equals_eigh_tridiagonal(self, n, a, s):
        # the direct LAPACK calls are the ones eigh_tridiagonal(select='i')
        # makes, so the slope must match it bit for bit on both sides of
        # resonance
        omega = 1.0 + s
        ls = np.arange(-n, n + 1)
        up = ls % 2 == 0
        diag = np.where(up, ls * omega, (ls - 1) * omega + s)
        off = np.full(2 * n, 0.25 * a)
        _, vec = eigh_tridiagonal(diag, off, select="i", select_range=(n, n))
        assert floquet._chain_slope_fn(1.0, a, n)(s) == float(np.sum(vec[up, 0] ** 2)) - 0.5

    @pytest.mark.parametrize("a, s", [(0.0, 0.0), (0.5, 0.02), (6.0, 1.6)])
    def test_single_site_chain(self, a, s):
        # N = 0 leaves only the uncoupled site |up,0>: the bare level, with
        # quasienergy omega0/2 and slope 1/2
        p = ModelParams(omega0=1.0, amplitude=a, omega=1.0 + s)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            diag, off = build_floquet_matrix(p, 0)
            sol = solve_floquet(p, n_trunc=0)
        assert diag.tolist() == [0.0] and off.size == 0
        assert sol.quasienergy == 0.5
        assert sol.dq_domega0 == 0.5

    def test_negative_truncation_rejected(self):
        p = ModelParams(omega0=1.0, amplitude=6.0, omega=2.6)
        with pytest.raises(ValueError, match="truncation must be >= 0, got -1"):
            build_floquet_matrix(p, -1)
        with pytest.raises(ValueError, match="truncation must be >= 0, got -1"):
            solve_floquet(p, n_trunc=-1)

    @pytest.mark.parametrize("routine", ["dstebz", "dstein"])
    def test_lapack_failure_raises_convergence_error(self, monkeypatch, routine):
        real = getattr(floquet, routine)

        def failing(*args):
            *out, _ = real(*args)
            return (*out, 1)

        monkeypatch.setattr(floquet, routine, failing)
        with pytest.raises(ConvergenceError, match=routine):
            floquet._chain_slope_fn(1.0, 6.0, 25)(1.6)


def _solve_ivp_population(params: ModelParams) -> float:
    # period map of the lab-frame Bloch equation from the fundamental matrix
    # of (x, y, z, 1) and the running integral of z, by an adaptive
    # integrator; then the fixed point and the mean of z over the period
    from scipy.integrate import solve_ivp

    w0, amp, omega, kappa = params.omega0, params.amplitude, params.omega, params.kappa
    period = 2.0 * math.pi / omega

    def rhs(t, flat):
        y = flat.reshape(5, 4)
        a = amp * math.cos(omega * t)
        x, yy, z, one = y[0], y[1], y[2], y[3]
        return np.stack([
            -0.5 * kappa * x - w0 * yy,
            w0 * x - 0.5 * kappa * yy - a * z,
            a * yy - kappa * z - kappa * one,
            np.zeros(4),
            z,
        ]).ravel()

    start = np.vstack([np.eye(4), np.zeros((1, 4))]).ravel()
    sol = solve_ivp(rhs, (0.0, period), start, method="DOP853", rtol=1e-13, atol=1e-15)
    assert sol.success, sol.message
    phi = sol.y[:, -1].reshape(5, 4)
    r0 = np.linalg.solve(np.eye(3) - phi[:3, :3], phi[:3, 3])
    return 0.5 * (1.0 + (phi[4, :3] @ r0 + phi[4, 3]) / period)


class TestPeriodicSteadyState:
    @pytest.mark.parametrize("amp", [0.1, 0.5, 2.0, 8.5])
    def test_matches_adaptive_period_map(self, amp):
        params = ModelParams(omega0=1.0, amplitude=amp, omega=bs_chrw(1.0, amp).omega_res, kappa=2e-3)
        assert periodic_steady_state(params) == pytest.approx(_solve_ivp_population(params), rel=0.0, abs=1e-12)

    def test_population_peaks_at_floquet_resonance(self):
        # the paper's population signature with no transformed frame: the
        # exact steady population, scanned in 1e-5 steps, peaks within one
        # step of 1 + the Floquet shift (about 1.000625 at A = 0.1)
        omega_res = 1.0 + bs_floquet_numeric(1.0, 0.1).shift
        omegas = 1.0005 + 1e-5 * np.arange(25)
        pops = [
            periodic_steady_state(ModelParams(omega0=1.0, amplitude=0.1, omega=w, kappa=2e-3))
            for w in omegas
        ]
        peak = int(np.argmax(pops))
        assert 0 < peak < len(omegas) - 1
        assert abs(omegas[peak] - omega_res) <= 1e-5

    def test_needs_decay(self):
        with pytest.raises(DegenerateInputError):
            periodic_steady_state(ModelParams(omega0=1.0, amplitude=0.1, omega=1.0, kappa=0.0))


def _direct_transition_average(params: ModelParams) -> float:
    # Hann-windowed mean of |<up|U(t)|down>|^2 over 200 drive periods: U(t)
    # at 2000 points of one period from an adaptive integrator, then U(t +
    # kT) = U(t) U(T)^k; the window suppresses the leakage of the slow Rabi
    # beat
    from scipy.integrate import solve_ivp

    periods, samples = 200, 2000
    w0, amp, omega = params.omega0, params.amplitude, params.omega
    period = 2.0 * math.pi / omega

    def rhs(t, flat):
        drive = 0.5 * amp * math.cos(omega * t)
        h = np.array([[0.5 * w0, drive], [drive, -0.5 * w0]])
        return (-1j * h @ flat.reshape(2, 2)).ravel()

    ts = np.arange(samples + 1) * (period / samples)
    start = np.eye(2, dtype=complex).ravel()
    sol = solve_ivp(rhs, (0.0, period), start, method="DOP853", t_eval=ts, rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    us = sol.y.T.reshape(-1, 2, 2)
    powers = [np.eye(2, dtype=complex)]
    for _ in range(periods - 1):
        powers.append(us[-1] @ powers[-1])
    powers = np.array(powers)
    # <up|U(t_j) U(T)^k|down> in row k, column j, for t_j < T
    amps = np.outer(powers[:, 0, 1], us[:-1, 0, 0]) + np.outer(powers[:, 1, 1], us[:-1, 0, 1])
    weights = 0.5 * (1.0 - np.cos(2.0 * math.pi * (np.arange(amps.size) + 0.5) / amps.size))
    return float(np.abs(amps.ravel()) ** 2 @ weights) / float(weights.sum())


class TestAverages:
    def test_diagnostic_equals_half_at_resonance(self):
        # at the A = 3.5 resonance (frozen from the shift table) both the
        # diagnostic and the true mean hit 1/2
        p = ModelParams(omega0=1.0, amplitude=3.5, omega=1.707959)
        sol = solve_floquet(p)
        assert 0.5 - sol.pbar < 1e-8
        assert sol.pbar <= 0.5
        direct = _direct_transition_average(p)
        assert abs(direct - 0.5) < 1e-6


class TestChrwGapAgreement:
    def test_two_percent_in_design_regime(self):
        # the dressed splitting, folded into the first zone, tracks the
        # exact branch gap to 2% for A/omega <= 2.5 (measured worst 1.14%)
        worst = 0.0
        for w in [0.9, 1.1, 1.5, 2.0]:
            for ratio in np.linspace(0.2, 2.5, 8):
                p = ModelParams(omega0=1.0, amplitude=float(ratio * w), omega=w)
                fr = build_frame(p)
                gap = branch_gap(p)
                dev = abs(_folded_abs(fr.rabi_tilde, w) - gap) / max(fr.rabi_tilde, gap)
                worst = max(worst, dev)
        assert worst < 0.02

    def test_degrades_near_lobe_edge(self):
        # at A/omega = 3.33 the frame construction is close to giving out
        # and the splitting error grows past the design-regime bound
        p = ModelParams(omega0=1.0, amplitude=3.0, omega=0.9)
        fr = build_frame(p)
        gap = branch_gap(p)
        dev = abs(_folded_abs(fr.rabi_tilde, p.omega) - gap) / max(fr.rabi_tilde, gap)
        assert 0.02 < dev < 0.08


class TestDrivingInducedCrossings:
    def test_crossing_location_at_resonant_drive(self):
        # the branch gap closes at an isolated amplitude; at omega = omega0
        # the first closure sits 13% below the j01 estimate
        w = 1.0

        def gap_of(a: float) -> float:
            return branch_gap(ModelParams(omega0=1.0, amplitude=a, omega=w))

        a_c = _golden_min(gap_of, 1.9, 2.3)
        assert a_c == pytest.approx(2.091363, abs=1e-3)
        assert gap_of(a_c) < 1e-8
        assert a_c / w < 2.404825557695773

    def test_crossing_approaches_bessel_zero_at_high_frequency(self):
        w = 5.0

        def gap_of(a: float) -> float:
            return branch_gap(ModelParams(omega0=1.0, amplitude=a, omega=w))

        a_c = _golden_min(gap_of, 2.30 * w, 2.45 * w)
        assert a_c / w == pytest.approx(2.393160, abs=1e-3)
        assert gap_of(a_c) < 1e-8
        # closer to j01 than the resonant-drive case, from below
        assert 2.393 / 2.404825557695773 > 2.0913 / 2.404825557695773


def _golden_min(f, lo: float, hi: float) -> float:
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(70):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    return 0.5 * (a + b)
