"""Frame construction: fixed point, angles, and the lab population map."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j1, jn_zeros, jnp_zeros

from bloch_siegert_lab import chrw
from bloch_siegert_lab.chrw import (
    _J1_MAX,
    _LANDAU,
    FrameMode,
    ModelParams,
    build_frame,
    solve_xi,
    xi_fixed_point_residual,
)
from bloch_siegert_lab.errors import DegenerateInputError, DomainError, NoSignChangeError
from bloch_siegert_lab.numerics import bessel_j, find_root_bracketed


def _full_scan_xi(p: ModelParams) -> float:
    """Reference xi: the J1 residual on all of np.linspace(0, 1, n + 1),
    the first upward crossing after xi = 0, then the Brent polish at
    solve_xi's abs_tol = rel_tol = 1e-12."""
    a, w = p.amplitude, p.omega
    n = max(128, int(8.0 * a / w) + 128)
    grid = np.linspace(0.0, 1.0, n + 1)
    residual = p.omega0 * j1(a * grid / w) - 0.5 * a * (1.0 - grid)
    up = np.flatnonzero(residual[1:] >= 0.0)
    if up.size == 0:
        raise NoSignChangeError(
            f"xi fixed point not bracketed in [0, 1] for A={a}, omega={w} (residual stays negative)"
        )
    i = int(up[0]) + 1
    if residual[i] == 0.0:
        return float(grid[i])
    return find_root_bracketed(
        lambda xi: xi_fixed_point_residual(p, xi), float(grid[i - 1]), float(grid[i]), 1e-12, 1e-12
    )


def _xi_or_message(p: ModelParams, solver) -> str:
    try:
        return solver(p).hex()
    except NoSignChangeError as exc:
        return f"NoSignChangeError: {exc}"


class TestModelParams:
    def test_replace(self):
        p = ModelParams(omega0=1.0, amplitude=2.0, omega=1.5)
        q = dataclasses.replace(p, omega=1.7)
        assert q.omega == 1.7 and q.amplitude == 2.0 and p.omega == 1.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega0": 0.0, "amplitude": 1.0, "omega": 1.0},
            {"omega0": -1.0, "amplitude": 1.0, "omega": 1.0},
            {"omega0": 1.0, "amplitude": -0.1, "omega": 1.0},
            {"omega0": 1.0, "amplitude": 1.0, "omega": 0.0},
            {"omega0": 1.0, "amplitude": math.nan, "omega": 1.0},
            {"omega0": 1.0, "amplitude": 1.0, "omega": 1.0, "kappa": -1e-3},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestSolveXi:
    @pytest.mark.parametrize("a", np.logspace(-6, 3, 37))
    def test_bitwise_equal_to_full_scan(self, a):
        # the scan starts just below the larger of xi* = omega/(omega +
        # omega0) and 1 - 2 max|J1| omega0/A instead of at 0; the root, or
        # the error message, must not change by one bit.  The second bound
        # scales with omega0/A, so omega0 varies too
        for w0 in (0.3, 1.0, 7.0):
            for w in (0.3, 0.9, 1.0, 1.0 + a * a / 16.0, 1.0 + a):
                p = ModelParams(omega0=w0, amplitude=float(a), omega=w)
                assert _xi_or_message(p, solve_xi) == _xi_or_message(p, _full_scan_xi)

    @pytest.mark.parametrize("a", np.logspace(-6, 3, 37))
    def test_array_residual_is_bitwise_scalar(self, a):
        # solve_xi scans its tail with the residual over an array and walks
        # and polishes with it on numbers; on every sample of the scan grid
        # k/n (the last one 1.0) of test_bitwise_equal_to_full_scan's points
        # the two must agree to the bit, or the bracket could move
        for w0 in (0.3, 1.0, 7.0):
            for w in (0.3, 0.9, 1.0, 1.0 + a * a / 16.0, 1.0 + a):
                p = ModelParams(omega0=w0, amplitude=float(a), omega=w)
                n = max(128, int(8.0 * a / w) + 128)
                grid = np.arange(n + 1) * (1.0 / n)
                grid[-1] = 1.0
                values = xi_fixed_point_residual(p, grid)
                scalars = [float(xi_fixed_point_residual(p, xi)) for xi in grid.tolist()]
                assert values.tolist() == scalars

    def test_strong_drive_scan_starts_above_xi_star(self, monkeypatch):
        # at A = 8, omega = omega0 the J1 bound 1 - 2 max|J1|/A = 0.85 lies
        # above xi* = 1/2, and Landau's bound at its argument x = 8 * 0.85,
        # 1 - 2 _LANDAU x^(-1/3)/A = 0.897, above that, so the bitwise test
        # above exercises both: the first sample taken sits just below
        # Landau's bound, below the root
        p = ModelParams(omega0=1.0, amplitude=8.0, omega=1.0)
        seen = []

        def recorded(params, xi):
            seen.append(xi)
            return xi_fixed_point_residual(params, xi)

        monkeypatch.setattr(chrw, "xi_fixed_point_residual", recorded)
        xi = solve_xi(p)
        bound = 1.0 - 2.0 * _J1_MAX / 8.0
        landau = 1.0 - 2.0 * _LANDAU / 8.0 / (8.0 * bound) ** (1.0 / 3.0)
        assert 0.5 < bound < landau - 2.0 / 192 < seen[0] < landau < xi
        monkeypatch.undo()
        assert xi.hex() == _full_scan_xi(p).hex()

    def test_j1_bound_constant(self):
        # max |J1| = J1(1.8412...) = 0.5818652243; the constant must lie
        # above it, and above |J1| on a dense grid, by little
        peak = float(j1(jnp_zeros(1, 1)[0]))
        assert peak == pytest.approx(0.5818652243, abs=1e-10)
        x = np.linspace(0.0, 200.0, 2_000_001)
        assert float(np.max(np.abs(j1(x)))) <= peak < _J1_MAX < peak + 1e-5

    def test_landau_bound_constant(self):
        # x^(1/3) |J1(x)| peaks at 0.72801 near x = 2.07, under Landau's
        # 0.7857468704 for every order; the walk's start relies on the bound
        x = np.linspace(0.0, 2000.0, 4_000_001)
        assert float(np.max(np.abs(j1(x)) * np.cbrt(x))) < 0.7281 < _LANDAU

    @pytest.mark.parametrize(
        "a, evaluations", [(7.2, 20), (8.0, 17), (9.9, 16), (13.5, 16), (15.0, 10), (16.2, 14)]
    )
    def test_strong_drive_walk_is_short(self, monkeypatch, a, evaluations):
        # scalar residual evaluations of one solve at omega = omega0, walk
        # and Brent polish together; from the J1 bound alone they were 27,
        # 25, 25, 25, 19 and 22.  A tail scan is one more call, on an array
        p = ModelParams(omega0=1.0, amplitude=a, omega=1.0)
        seen = []

        def recorded(params, xi):
            if np.ndim(xi) == 0:
                seen.append(xi)
            return xi_fixed_point_residual(params, xi)

        monkeypatch.setattr(chrw, "xi_fixed_point_residual", recorded)
        xi = solve_xi(p)
        assert len(seen) == evaluations
        monkeypatch.undo()
        assert xi.hex() == _full_scan_xi(p).hex()

    @pytest.mark.parametrize("w, min_steps", [(0.3, 20000), (1.0, 4000)])
    def test_far_crossing_bitwise_equal(self, w, min_steps):
        # at A = 1000 the crossing lies thousands of grid steps above xi*
        p = ModelParams(omega0=1.0, amplitude=1000.0, omega=w)
        xi = solve_xi(p)
        n = int(8.0 * 1000.0 / w) + 128
        assert (xi - w / (w + 1.0)) * n > min_steps
        assert xi.hex() == _full_scan_xi(p).hex()

    @pytest.mark.parametrize("eps", [1e-9, 1e-6])
    def test_crossing_in_last_interval_bitwise_equal(self, eps):
        # A/omega just above the 24th zero of J1: the line outweighs J1 up to
        # xi = 1, where J1 turns positive.  n = 737 and 737*(1/737) != 1.0,
        # so the bracket needs the grid's last point to be exactly 1.0
        w = 1000.0 / (float(jn_zeros(1, 24)[23]) * (1.0 + eps))
        p = ModelParams(omega0=1.0, amplitude=1000.0, omega=w)
        n = int(8.0 * 1000.0 / w) + 128
        assert n * (1.0 / n) != 1.0
        xi = solve_xi(p)
        assert xi > (n - 1) / n
        assert xi.hex() == _full_scan_xi(p).hex()

    @pytest.mark.parametrize(
        "a, w, message",
        [
            # 8 A/omega = 8e19 grid steps: past 2**53 the grid indices stop
            # being exact, and past 2**63 np.arange returns objects
            (1e19, 1.0, "too fine"),
            # 9.6e8 grid steps, nearly all above the scan's start
            (1.2, 1e-8, "exceeds 16777216"),
        ],
    )
    def test_oversized_scan_refused_before_allocating(self, monkeypatch, a, w, message):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_xi allocated its scan")

        monkeypatch.setattr(np, "arange", refuse)
        with pytest.raises(DomainError, match=message):
            solve_xi(ModelParams(omega0=1.0, amplitude=a, omega=w))

    @pytest.mark.parametrize("a", [5.0, 200.0])
    def test_no_sign_change_message_unchanged(self, a):
        p = ModelParams(omega0=1.0, amplitude=a, omega=1.0)
        with pytest.raises(NoSignChangeError) as exc:
            solve_xi(p)
        assert str(exc.value) == (
            f"xi fixed point not bracketed in [0, 1] for A={a}, omega=1.0 (residual stays negative)"
        )
        assert _xi_or_message(p, _full_scan_xi) == f"NoSignChangeError: {exc.value}"

    def test_frozen_weak_drive_pin(self):
        # omega = omega0, A = 0.1: the fixed point sits just above 1/2,
        # xi = 1/2 + A^2/128 + O(A^4); value frozen from a 60-digit solve
        p = ModelParams(omega0=1.0, amplitude=0.1, omega=1.0)
        assert solve_xi(p) == pytest.approx(0.5000781534962193, abs=1e-13)

    def test_residual_is_tiny(self):
        p = ModelParams(omega0=1.0, amplitude=0.1, omega=1.0)
        assert abs(xi_fixed_point_residual(p, solve_xi(p))) < 1e-15

    def test_strong_drive_limits(self):
        # far above resonance xi approaches omega/(omega + omega0) scale
        # behaviour; at extreme drive it crowds toward 1
        p = ModelParams(omega0=1.0, amplitude=4000.0, omega=2000.0)
        xi = solve_xi(p)
        assert abs(xi_fixed_point_residual(p, xi)) < 1e-12
        assert xi == pytest.approx(0.9997116190370248, abs=1e-10)
        p2 = ModelParams(omega0=1.0, amplitude=1e4, omega=1e4 / 2.404826)
        assert 1.0 - solve_xi(p2) == pytest.approx(1.038e-4, rel=1e-2)

    def test_zero_amplitude_raises(self):
        with pytest.raises(DegenerateInputError):
            solve_xi(ModelParams(omega0=1.0, amplitude=0.0, omega=1.0))

    def test_weak_drive_approaches_rwa_partition(self):
        # xi(A) -> omega/(omega + omega0) as A -> 0, quadratically
        w, w0 = 1.3, 1.0
        base = w / (w + w0)
        devs = []
        for a in [0.04, 0.02, 0.01]:
            xi = solve_xi(ModelParams(omega0=w0, amplitude=a, omega=w))
            devs.append(abs(xi - base))
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.05)
        assert devs[1] / devs[2] == pytest.approx(4.0, rel=0.05)

    @given(
        st.floats(min_value=0.01, max_value=3.3),
        st.floats(min_value=0.5, max_value=50.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_residual_invariant(self, ratio, omega):
        # restricted to A/omega inside the first J1 lobe, where the fixed
        # point always exists (see test_existence_is_lobed below)
        p = ModelParams(omega0=1.0, amplitude=ratio * omega, omega=omega)
        xi = solve_xi(p)
        assert 0.0 < xi <= 1.0
        scale = max(1.0, 0.5 * p.amplitude)
        assert abs(xi_fixed_point_residual(p, xi)) < 1e-11 * scale

    def test_existence_is_lobed(self):
        # the fixed point omega0 J1(A xi/omega) = (A/2)(1-xi) requires the
        # J1 lobe reachable at xi <= 1 to outgrow the line; for A/omega in
        # J1's negative lobes (3.83, 7.02), (10.17, 13.32), ... there is no
        # solution and the solver must say so rather than return junk
        with pytest.raises(NoSignChangeError):
            solve_xi(ModelParams(omega0=1.0, amplitude=5.0, omega=1.0))
        with pytest.raises(NoSignChangeError):
            solve_xi(ModelParams(omega0=1.0, amplitude=12.0, omega=1.0))
        # between those bands a solution reappears
        p = ModelParams(omega0=1.0, amplitude=8.0, omega=1.0)
        assert abs(xi_fixed_point_residual(p, solve_xi(p))) < 1e-11


class TestBuildFrame:
    def test_bessel_argument_stored_on_frame(self):
        # z is A xi / omega bitwise, and 0.0 where xi is pinned (RWA) or A = 0
        for mode in FrameMode:
            for a, w in [(0.0, 1.0), (0.0, 0.7), (0.3, 1.0), (2.0, 1.4), (8.0, 3.3)]:
                p = ModelParams(omega0=1.0, amplitude=a, omega=w)
                fr = build_frame(p, mode=mode)
                assert fr.z.hex() == (a * fr.xi / w).hex()

    def test_frozen_frame_at_unit_point(self):
        # omega0 = A = omega = 1, values frozen from the dev solve
        fr = build_frame(ModelParams(omega0=1.0, amplitude=1.0, omega=1.0))
        assert fr.xi == pytest.approx(0.5081111872862253, abs=1e-12)
        assert fr.a_tilde == pytest.approx(0.9837776254275494, abs=1e-12)
        assert fr.delta_tilde == pytest.approx(-0.06351019385953659, abs=1e-12)
        assert fr.rabi_tilde == pytest.approx(0.49597192339591445, abs=1e-12)
        theta = 0.5 * math.atan2(fr.sin_2theta, fr.cos_2theta)
        assert theta == pytest.approx(0.8496004400736183, abs=1e-12)

    def test_renormalized_amplitude_dual_form(self):
        # 2 A (1 - xi) must equal 4 omega0 J1(A xi / omega): the fixed
        # point makes the two expressions for the dressed coupling agree
        for a, w in [(0.3, 1.0), (2.0, 1.4), (8.0, 3.3)]:
            p = ModelParams(omega0=1.0, amplitude=a, omega=w)
            fr = build_frame(p)
            z = fr.z
            assert fr.a_tilde == pytest.approx(4.0 * bessel_j(1, z), rel=1e-11)

    def test_angle_identities(self):
        for a, w in [(0.5, 0.9), (3.5, 1.7), (12.0, 5.0)]:
            p = ModelParams(omega0=1.0, amplitude=a, omega=w)
            fr = build_frame(p)
            assert fr.cos_2theta == pytest.approx(fr.delta_tilde / fr.rabi_tilde, abs=1e-12)
            assert fr.sin_2theta == pytest.approx(
                0.5 * fr.a_tilde / fr.rabi_tilde, abs=1e-12
            )
            # tan(theta) = sin 2theta / (1 + cos 2theta), the defining ratio
            assert fr.sin_2theta / (1.0 + fr.cos_2theta) == pytest.approx(
                (fr.rabi_tilde - fr.delta_tilde) / (0.5 * fr.a_tilde), rel=1e-12
            )

    def test_angle_pair_against_extended_precision(self):
        # cos 2theta = delta/rabi and sin 2theta = (a/2)/rabi at 50 digits,
        # from the frame's own delta_tilde and a_tilde; exact where the
        # reference is 0 (RWA on resonance).  Worst measured 1.4e-16
        # relative, at CHRW A = 1e-3, omega = 1 (35 frames; CHRW at A = 6
        # has none).  From an atan2 angle, below resonance at weak drive
        # rabi - delta cancels: 4.0e-7 at CHRW A = 1e-5, omega = 0.53
        mp = pytest.importorskip("mpmath")
        checked = 0
        with mp.workdps(50):
            for mode in FrameMode:
                for a in (1e-5, 1e-3, 0.1, 6.0):
                    for w in (0.53, 0.9, 1.0, 1.1, 1.5):
                        try:
                            fr = build_frame(ModelParams(omega0=1.0, amplitude=a, omega=w), mode=mode)
                        except NoSignChangeError:
                            continue
                        delta, half_a = mp.mpf(fr.delta_tilde), mp.mpf(fr.a_tilde) / 2
                        rabi = mp.sqrt(delta * delta + half_a * half_a)
                        for got, want in ((fr.cos_2theta, delta / rabi), (fr.sin_2theta, half_a / rabi)):
                            if want == 0:
                                assert got == 0.0, (mode, a, w)
                            else:
                                assert abs((got - want) / want) <= 2.7e-16, (mode, a, w)
                        checked += 1
        assert checked == 35

    def test_rwa_mode_is_textbook(self):
        p = ModelParams(omega0=1.0, amplitude=0.4, omega=1.25)
        fr = build_frame(p, mode=FrameMode.RWA)
        assert fr.xi == 0.0
        assert fr.delta_tilde == pytest.approx(-0.25, abs=1e-15)
        assert fr.a_tilde == 0.4
        assert fr.rabi_tilde == pytest.approx(math.hypot(0.25, 0.2), abs=1e-15)

    def test_zero_amplitude_frame(self):
        fr = build_frame(ModelParams(omega0=1.0, amplitude=0.0, omega=1.3))
        assert fr.a_tilde == 0.0
        assert fr.delta_tilde == pytest.approx(-0.3, abs=1e-15)
        # pure detuning, delta < 0: theta = pi/2, exactly
        assert (fr.cos_2theta, fr.sin_2theta) == (-1.0, 0.0)

    @pytest.mark.parametrize(
        "omega, pair", [(0.7, (1.0, 0.0)), (1.0, (0.0, 1.0))]
    )
    def test_undriven_angle_limits(self, omega, pair):
        # delta > 0: theta = 0; on resonance, rabi_tilde = 0: the limit pi/4
        for mode in FrameMode:
            fr = build_frame(ModelParams(omega0=1.0, amplitude=0.0, omega=omega), mode=mode)
            assert (fr.cos_2theta, fr.sin_2theta) == pair

    def test_near_resonance_detuning_free_of_cancellation(self):
        # at omega = omega0(1 + 1e-8) with weak drive the detuning is
        # dominated by (J0 - 1) omega0 ~ -6e-7; a naive J0*omega0 - omega
        # evaluation would be rounded at the 1e-16 level of omega0.
        # Reference value from the 60-digit route.
        p = ModelParams(omega0=1.0, amplitude=0.05, omega=1.0 + 1e-8)
        fr = build_frame(p)
        z = fr.z
        want = (-z * z / 4.0) * (1.0 - z * z / 16.0) - 1e-8
        assert fr.delta_tilde == pytest.approx(want, rel=1e-9)

    @given(
        st.floats(min_value=0.01, max_value=3.3),
        st.floats(min_value=0.5, max_value=20.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_frame_internal_consistency(self, ratio, omega):
        p = ModelParams(omega0=1.0, amplitude=ratio * omega, omega=omega)
        fr = build_frame(p)
        assert fr.rabi_tilde == pytest.approx(
            math.hypot(fr.delta_tilde, 0.5 * fr.a_tilde), rel=1e-12
        )
        # theta in [0, pi/2]; the pair is a unit vector, worst measured
        # 2.2e-16 off on 56,000 frames of both modes
        assert fr.sin_2theta >= 0.0 and -1.0 <= fr.cos_2theta <= 1.0
        assert math.hypot(fr.cos_2theta, fr.sin_2theta) == pytest.approx(1.0, abs=4.5e-16)
        assert fr.a_tilde >= 0.0


class TestDressedStates:
    def test_orthonormal_and_diagonalizing(self):
        # the dressed kets follow from the dressing angle alone:
        # |+~> = cos(theta)|+> + sin(theta)|->, |-~> = sin(theta)|+> - cos(theta)|->
        p = ModelParams(omega0=1.0, amplitude=2.0, omega=1.3)
        fr = build_frame(p)
        theta = 0.5 * math.atan2(fr.sin_2theta, fr.cos_2theta)
        c, s = math.cos(theta), math.sin(theta)
        up, dn = np.array([c, s]), np.array([s, -c])
        assert np.vdot(up, up) == pytest.approx(1.0, abs=1e-14)
        assert np.vdot(dn, dn) == pytest.approx(1.0, abs=1e-14)
        assert abs(np.vdot(up, dn)) < 1e-14
        # the static frame Hamiltonian (delta/2) sz + (a/4) sx has the
        # dressed pair as eigenvectors with eigenvalues +-rabi/2
        h = 0.5 * fr.delta_tilde * np.array([[1.0, 0.0], [0.0, -1.0]]) + 0.25 * fr.a_tilde * np.array(
            [[0.0, 1.0], [1.0, 0.0]]
        )
        np.testing.assert_allclose(h @ up, 0.5 * fr.rabi_tilde * up, atol=1e-12)
        np.testing.assert_allclose(h @ dn, -0.5 * fr.rabi_tilde * dn, atol=1e-12)
