"""Floquet machinery: parity-chain route, monodromy route, and their agreement.

The two quasienergy routes are kept deliberately independent (eigenproblem
of one parity chain of the extended-zone matrix vs eigenphases of the
one-period propagator) so each one can serve as the other's oracle.  The
chain is also checked against the full extended-zone matrix, built here.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, lapack

from bloch_siegert_lab.chrw import ModelParams, build_frame
from bloch_siegert_lab.resonance import bs_chrw, bs_floquet_numeric
from bloch_siegert_lab import floquet, resonance
from bloch_siegert_lab.errors import ConvergenceError, DegenerateInputError, DomainError
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
    def test_one_sideband_structure(self):
        # the chain has 2N + 1 sites, N = ceil(A/omega) + 10 = 11; its
        # middle sites |down,-1>, |up,0>, |down,1> read l*omega - omega0/2
        # on down sites and l*omega + omega0/2 on up sites, all shifted by
        # -omega0/2
        p = ModelParams(omega0=0.8, amplitude=1.2, omega=1.5)
        diag, off = build_floquet_matrix(p)
        assert diag.shape == (23,)
        np.testing.assert_allclose(diag[10:13], [-2.3, 0.0, 0.7], atol=1e-15)
        np.testing.assert_array_equal(off, np.full(22, 0.3))  # A/4

    def test_default_truncation_scales_with_drive(self):
        assert default_truncation(0.1, 1.0) == 11
        assert default_truncation(40.0, 2.0) == 30


class TestBrillouinReplication:
    @pytest.mark.parametrize("w_rel", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("a_rel", [0.01, 1.0, 6.0, 21.0, 50.0])
    @pytest.mark.parametrize("omega0", [0.3, 1.0, 7.0])
    def test_truncation_convergence(self, omega0, a_rel, w_rel):
        # the default chain against one 30 blocks longer, built here and
        # solved by eigh_tridiagonal; the worst over this grid is 5.4e-14
        # omega0 in q and 5.6e-16 in the slope
        p = ModelParams(omega0=omega0, amplitude=a_rel * omega0, omega=w_rel * omega0)
        a = solve_floquet(p)
        n = a.n_trunc + 30
        ls = np.arange(-n, n + 1)
        up = ls % 2 == 0
        diag = np.where(up, ls * p.omega, (ls - 1) * p.omega + (p.omega - omega0))
        off = np.full(2 * n, 0.25 * p.amplitude)
        e, vec = eigh_tridiagonal(diag, off, select="i", select_range=(n, n))
        assert abs(a.quasienergy - (e[0] + 0.5 * omega0)) <= 1e-13 * omega0
        assert abs(a.dq_domega0 - (float(np.sum(vec[up, 0] ** 2)) - 0.5)) <= 1.1e-15

    @pytest.mark.parametrize("a_rel", [0.1, 1.0, 3.2, 6.0, 21.0, 100.0, 1000.0])
    @pytest.mark.parametrize("omega0", [0.3, 1.0, 7.0])
    def test_shift_converged_on_default_chain(self, omega0, a_rel, monkeypatch):
        # bs_floquet_numeric's seeded Brent root on the chain sized at the
        # bracket bottom, against the same root on a chain 10 blocks longer.
        # There A/omega <= j01/0.9, so the chain has at most 27 sites.
        # Worst relative difference: 1.1e-14 below A/omega0 = 3.2 (rounding
        # and the Brent stop), 3.5e-16 from there up
        amp = a_rel * omega0
        a = amp / omega0
        lo, hi = resonance._shift_bracket(a)
        n = default_truncation(a, 1.0 + lo)
        assert 2 * n + 1 <= 27
        sizes = []

        def longer(amplitude, omega):
            sizes.append(default_truncation(amplitude, omega) + 10)
            return sizes[-1]

        shift = bs_floquet_numeric(omega0, amp).shift
        monkeypatch.setattr(resonance, "default_truncation", longer)
        longer_shift = bs_floquet_numeric(omega0, amp).shift
        assert sizes == [n + 10]
        bound = 2e-14 if a_rel < 3.2 else 2e-15
        assert abs(shift - longer_shift) <= bound * shift


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
        # every sample of the sequential product, at an even and an odd
        # step count.  Each Magnus step is unitary to rounding, and the
        # measured worst defect is 1.22e-14 (A = 8.5)
        for amp, steps in ((8.0, 2182), (8.5, 2319)):
            p = ModelParams(omega0=1.0, amplitude=amp, omega=1.1)
            ts, us = propagator_samples(p)
            assert len(ts) == len(us) == floquet.period_steps(p) + 1 == steps + 1
            defect = np.max(np.abs(us.conj().transpose(0, 2, 1) @ us - np.eye(2)))
            assert defect < 7.2e-14

    @pytest.mark.parametrize("w", [0.7, 1.3, 1.9])
    def test_undriven_period_map_is_exact(self, w):
        # at A = 0 every step is exp(-i omega0 dt sigma_z / 2) in closed
        # form, so U(T) is exp(-i omega0 T sigma_z / 2) up to the rounding
        # of 2000 products; measured worst 2.06e-14 (omega = 1.9)
        ts, us = propagator_samples(ModelParams(omega0=1.0, amplitude=0.0, omega=w))
        phase = np.exp(-0.5j * ts[-1])
        assert np.max(np.abs(us[-1] - np.diag([phase, phase.conjugate()]))) < 1e-13

    def test_halving_matches_sequential_product(self):
        # U(T) by pairwise halving against the last of the sequential
        # samples, at an odd step count so an odd last step is carried;
        # measured 1.09e-14
        p = ModelParams(omega0=1.0, amplitude=8.5, omega=1.1)
        assert floquet.period_steps(p) == 2319
        assert np.max(np.abs(floquet._period_map(p) - propagator_samples(p)[1][-1])) < 2.2e-14

    def test_samples_match_adaptive_integration(self):
        # U(t) at the samples nearest a quarter, half and whole period
        # against an adaptive solve of i dU/dt = H(t) U written out here, so
        # the oracle shares no code with the package; measured 6.86e-12 at
        # the whole period (2182 steps)
        from scipy.integrate import solve_ivp

        p = ModelParams(omega0=1.0, amplitude=8.0, omega=1.1)
        ts, us = propagator_samples(p)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        sz = np.diag([1.0, -1.0])

        def rhs(t, flat):
            h = 0.5 * p.omega0 * sz + 0.5 * p.amplitude * math.cos(p.omega * t) * sx
            return (-1j * h @ flat.reshape(2, 2)).ravel()

        state, t = np.eye(2, dtype=complex).ravel(), 0.0
        for k in np.searchsorted(ts, ts[-1] * np.array([0.25, 0.5, 1.0])):
            sol = solve_ivp(rhs, (t, ts[k]), state, method="DOP853", rtol=1e-13, atol=1e-15)
            assert sol.success, sol.message
            state, t = sol.y[:, -1], ts[k]
            assert np.max(np.abs(us[k] - state.reshape(2, 2))) < 1.3e-11

    def test_strong_drive_agrees_with_chain(self):
        # with the step sized by the drive every point returns, within
        # twice the worst measured 1.31e-12 (at A = 10, omega = 1)
        for w, a in itertools.product((0.3, 0.7, 1.0), (10.0, 20.0, 30.0, 50.0, 100.0)):
            p = ModelParams(omega0=1.0, amplitude=a, omega=w)
            assert abs(monodromy_gap(p) - branch_gap(p)) < 2.6e-12

    def test_returns_at_thousand_times_omega0(self):
        # 300,000 steps, under the cap; measured 1.36e-13 from the chain
        p = ModelParams(omega0=1.0, amplitude=1000.0, omega=1.0)
        assert floquet.period_steps(p) == 300000
        assert abs(monodromy_gap(p) - branch_gap(p)) < 2.6e-12


class TestPeriodSteps:
    @pytest.mark.parametrize(
        "amp, omega, steps",
        [
            (0.1, 1.0, 2000),
            (8.0, 2.0, 2000),
            (10.0, 1.0, 3000),
            (10.0, 0.7, 4286),
            (0.1, 0.1, 3000),  # omega0 h, not A h, sets the step here
            (100.0, 0.3, 100000),
        ],
    )
    def test_rule(self, amp, omega, steps):
        assert floquet.period_steps(ModelParams(omega0=1.0, amplitude=amp, omega=omega)) == steps

    @pytest.mark.parametrize("oracle", [propagator_samples, monodromy_gap])
    def test_oversized_map_refused_before_allocating(self, monkeypatch, oracle):
        # A = 1000 at omega = 0.1 would need 3e6 steps, over the 2**19 cap
        def refuse(*args, **kwargs):
            raise AssertionError("the period map was allocated")

        monkeypatch.setattr(np, "arange", refuse)
        with pytest.raises(DomainError, match="above the cap"):
            oracle(ModelParams(omega0=1.0, amplitude=1000.0, omega=0.1, kappa=2e-3))

    @pytest.mark.parametrize(
        "amp, omega", [(0.1, 0.15), (4.0, 1.0), (21.0, 3.0), (50.0, 5.0), (100.0, 10.0)]
    )
    def test_converged_against_eight_times_the_steps(self, monkeypatch, amp, omega):
        # the monodromy gap within twice the worst measured 3.26e-12
        # (A = 21, omega = 3)
        p = ModelParams(omega0=1.0, amplitude=amp, omega=omega)
        gap = monodromy_gap(p)
        rule = floquet.period_steps
        monkeypatch.setattr(floquet, "period_steps", lambda params: 8 * rule(params))
        assert abs(monodromy_gap(p) - gap) < 6.5e-12


class TestHellmannFeynmanSlope:
    def test_matches_finite_difference(self):
        # dq/domega0 from eigenvector weights vs a centered difference of
        # chain eigenvalue N, whose index is fixed, so nothing is tracked;
        # N depends on A/omega only, so omega0 +- h keeps it
        h = 1e-6
        for a, w in [(0.5, 1.0), (3.5, 1.7), (8.0, 3.0)]:
            p = ModelParams(omega0=1.0, amplitude=a, omega=w)
            sol = solve_floquet(p)
            up = solve_floquet(dataclasses.replace(p, omega0=1.0 + h))
            dn = solve_floquet(dataclasses.replace(p, omega0=1.0 - h))
            assert up.n_trunc == dn.n_trunc == sol.n_trunc
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
        # only the magnitude of the slope is shared; the shift route's call
        # and solve_floquet run the same chain, so they read the same bits
        p = ModelParams(omega0=1.0, amplitude=a, omega=w)
        n = default_truncation(p.amplitude, p.omega)
        s = w - 1.0
        slope = floquet._chain(a, n)(1.0 + s, s)[1]
        assert abs(slope) == pytest.approx(abs(_dense_solve(p, n)[2]), abs=1e-12)
        assert slope == solve_floquet(p).dq_domega0

    def test_slope_changes_sign_at_resonance(self):
        # frozen Floquet shift at A = 6
        s_res = 1.6418085520328152
        n = default_truncation(6.0, 1.0 + s_res)
        solve = floquet._chain(6.0, n)

        def slope(s):
            return solve(1.0 + s, s)[1]

        assert slope(s_res - 1e-3) < 0.0 < slope(s_res + 1e-3)
        assert abs(slope(s_res)) < 1e-8

    @pytest.mark.parametrize("a, n", [(0.1, 11), (6.0, 17), (21.0, 45)])
    def test_reused_buffer_carries_no_state(self, a, n):
        # one closure overwrites its diagonal buffer on every call; called at
        # interleaved shifts, with one eigenvalue and with the pair, bisected
        # to the last ulp and stopped early, it must return bitwise what a
        # fresh closure returns at each of them
        solve = floquet._chain(a, n)
        tol = 1e-7 * a
        calls = [
            (0.3 * a, 1, 0.0),
            (1e-3, 2, 0.0),
            (0.3 * a, 1, tol),
            (0.3 * a, 2, 0.0),
            (0.0, 1, tol),
            (1e-3, 1, 0.0),
            (1e-3, 1, tol),
            (0.0, 2, 1e3 * tol),
            (0.3 * a, 1, 0.0),
        ]
        for s, count, abstol in calls:
            w, slope = solve(1.0 + s, s, count, abstol)
            fresh_w, fresh_slope = floquet._chain(a, n)(1.0 + s, s, count, abstol)
            assert (list(w[:count]), slope) == (list(fresh_w[:count]), fresh_slope)

    @pytest.mark.parametrize(
        "a, s",
        [(0.1, 0.0), (0.1, 1e-3), (1.0, 0.06), (6.0, 1.6), (6.0, 1.7), (21.0, 7.0), (21.0, 8.5), (100.0, 40.0)],
    )
    def test_abstol_stops_bisection_early(self, a, s):
        # at abstol = 1e-7 of the pair's gap, eigenvalue N moves off its
        # full bisection by less than abstol, and the slope from its
        # eigenvector by rounding only: at most 3.3e-16 here
        n = default_truncation(a, 1.0 + s)
        solve = floquet._chain(a, n)
        w, slope = solve(1.0 + s, s, 2)
        e0, abstol = float(w[0]), 1e-7 * float(w[1] - w[0])
        w, coarse = solve(1.0 + s, s, 1, abstol)
        assert 0.0 < abs(float(w[0]) - e0) <= abstol
        assert coarse == pytest.approx(slope, rel=0.0, abs=6.6e-16)

    @pytest.mark.parametrize("n", [11, 13, 25, 45, 120])
    @pytest.mark.parametrize(
        "a, s", [(0.1, 0.0), (0.1, 1e-3), (6.0, 1.6), (6.0, 1.7), (21.0, 7.0), (21.0, 8.5)]
    )
    def test_slope_equals_eigh_tridiagonal(self, n, a, s):
        # the direct LAPACK calls are the ones eigh_tridiagonal(select='i')
        # makes, so the eigenvector is bitwise the same, and its up-site
        # weight, summed by the same BLAS dot over the same stride, must
        # match bit for bit on both sides of resonance
        omega = 1.0 + s
        ls = np.arange(-n, n + 1)
        up = ls % 2 == 0
        diag = np.where(up, ls * omega, (ls - 1) * omega + s)
        off = np.full(2 * n, 0.25 * a)
        _, vec = eigh_tridiagonal(diag, off, select="i", select_range=(n, n))
        v = vec[n % 2 :: 2, 0]
        assert floquet._chain(a, n)(omega, s)[1] == float(v @ v) - 0.5

    @pytest.mark.parametrize("routine", ["dstebz", "dstein"])
    def test_lapack_failure_raises_convergence_error(self, monkeypatch, routine):
        # the chain looks its routines up in scipy.linalg.lapack when it is
        # built, and solve_floquet and the shift share its one check
        real = getattr(lapack, routine)

        def failing(*args):
            *out, _ = real(*args)
            return (*out, 1)

        monkeypatch.setattr(lapack, routine, failing)
        callers = [
            lambda: floquet._chain(6.0, 25)(2.6, 1.6),
            lambda: solve_floquet(ModelParams(omega0=1.0, amplitude=6.0, omega=2.6)),
            lambda: bs_floquet_numeric(1.0, 6.0),
        ]
        for caller in callers:
            with pytest.raises(ConvergenceError, match=routine):
                caller()


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
        # measured worst 5.55e-17 (A = 0.1 and 0.5), one ulp just below 0.5
        params = ModelParams(omega0=1.0, amplitude=amp, omega=bs_chrw(1.0, amp).omega_res, kappa=2e-3)
        assert abs(periodic_steady_state(params) - _solve_ivp_population(params)) < 1.1e-16

    @pytest.mark.parametrize(
        "amp, omega", [(0.1, 0.15), (4.0, 1.0), (21.0, 3.0), (50.0, 5.0), (100.0, 10.0)]
    )
    def test_converged_in_the_cutoff(self, monkeypatch, amp, omega):
        # 40 more Fourier blocks move P-bar by nothing at these points
        # (measured 0.0), and by at most 2.8e-16 on omega0 in {0.3, 1, 7}
        # x omega in [0.1, 10] x A in [0.1, 1000], A/omega <= 1000
        p = ModelParams(omega0=1.0, amplitude=amp, omega=omega, kappa=2e-3)
        pbar = periodic_steady_state(p)
        cutoff = floquet._harmonic_cutoff
        monkeypatch.setattr(floquet, "_harmonic_cutoff", lambda a, w: cutoff(a, w) + 40)
        assert abs(periodic_steady_state(p) - pbar) <= 1e-14

    @pytest.mark.parametrize("omega", [1.0, 0.3])
    def test_returns_beyond_the_step_cap(self, omega):
        # period_steps refuses A/omega above 1747; the continued fraction's
        # cost grows with its cutoff and its memory does not, so it has no
        # cap.  A drive this strong leaves the population near saturation
        pbar = periodic_steady_state(ModelParams(omega0=1.0, amplitude=1000.0, omega=omega, kappa=2e-3))
        assert 0.499 < pbar < 0.5

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
