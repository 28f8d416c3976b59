"""Shift extraction: five routes, frozen cross-checked values, dispatch."""

import math

import numpy as np
import pytest

from bloch_siegert_lab import resonance
from bloch_siegert_lab.errors import DomainError
from bloch_siegert_lab.numerics import first_bessel_j0_zero
from bloch_siegert_lab.resonance import (
    Method,
    ShiftResult,
    bs_asymptotic,
    bs_chrw,
    bs_floquet_numeric,
    bs_perturbative6,
    bs_shirley_iterative,
    resonance_shift,
)

# one row per table amplitude: (A, floquet, chrw, shirley, asymptotic).
# Frozen from the implementation after the floquet column was verified
# against an independent monodromy solve and the columns were verified
# against each other at the percent level.
SHIFT_TABLE = [
    (1.0, 0.06322372370711205, 0.06326799039042291, 0.06322785032109457, -0.5841694226843763),
    (3.5, 0.707959029458106, 0.7161996572978351, 0.7123198932197092, 0.45540702060468297),
    (6.0, 1.6418085520328152, 1.6499237876137913, 1.6504821228482558, 1.4949834638937425),
    (8.5, 2.637786768883715, 2.6400751009745655, 2.639255307082245, 2.5345599071828016),
    (11.0, 3.653739766630732, 3.652351276608821, 3.64137332547707, 3.5741363504718606),
    (13.5, 4.6785024677789515, 4.675270524830445, 4.650383951314492, 4.61371279376092),
    (16.0, 5.7079191676937535, 5.703825196728453, 5.664601976513379, 5.65328923704998),
    (18.5, 6.740093092435891, 6.735636870353876, 6.6831903922562015, 6.692865680339039),
    (21.0, 7.774035265640546, 7.769473873711136, 7.705491929626756, 7.732442123628099),
]


class TestShiftResult:
    def test_omega_res_is_derived(self):
        r = ShiftResult(
            method=Method.CHRW, omega0=2.0, amplitude=1.0, shift=0.25, residual=0.0, iterations=3
        )
        assert r.omega_res == 2.25

    def test_weak_shift_survives_round_trip(self):
        # the whole reason shift is the stored field: a ~6e-6 shift must not
        # be quantized to ulp(omega0) by storing omega_res and subtracting
        r = bs_chrw(1.0, 0.01)
        assert 0.0 < r.shift < 1e-5
        assert r.omega_res - r.omega0 == pytest.approx(r.shift, rel=1e-10, abs=0.0)


class TestChrw:
    @pytest.mark.parametrize("a, want", [(a, chrw) for a, _, chrw, _, _ in SHIFT_TABLE])
    def test_frozen_column(self, a, want):
        assert bs_chrw(1.0, a).shift == pytest.approx(want, rel=1e-11)

    def test_scales_homogeneously(self):
        # the model has one scale: shift(k*omega0, k*A) = k*shift(omega0, A)
        base = bs_chrw(1.0, 3.5).shift
        scaled = bs_chrw(2.0, 7.0).shift
        assert scaled == pytest.approx(2.0 * base, rel=1e-10)

    def test_weak_drive_leading_order(self):
        # shift -> (A/4)^2/omega0 as A -> 0
        a = 0.01
        assert bs_chrw(1.0, a).shift == pytest.approx((a / 4.0) ** 2, rel=1e-3)

    def test_residual_reported_small(self):
        r = bs_chrw(1.0, 6.0)
        assert abs(r.residual) < 1e-9
        assert r.iterations > 0

    def test_whole_drive_range(self):
        # every A from weak to strong drive finds its root on the first
        # bracket, at three level splittings.  At weak drive the CHRW shift
        # and the series differ by O((A/4)^4) relative, below 1e-15; what
        # remains is rounding, measured at up to 1.9e-15 relative
        for omega0 in (1.0, 0.3, 7.0):
            for ratio in np.logspace(-6.0, 3.0, 300):
                a = float(ratio) * omega0
                shift = bs_chrw(omega0, a).shift
                assert math.isfinite(shift) and shift > -omega0
                if ratio <= 1e-3:
                    want = bs_perturbative6(omega0, a).shift
                    assert shift == pytest.approx(want, rel=3.8e-15, abs=0.0)

    def test_off_branch_point_raises_typed_error(self, monkeypatch):
        # omega + omega0 (J0 - J2) > 0 holds on the whole bracket; a point
        # that breaks it must surface as a DomainError, not as a wrong root
        bessel_j = resonance.bessel_j
        monkeypatch.setattr(
            resonance, "bessel_j", lambda n, x: 5.0 if n == 2 else bessel_j(n, x)
        )
        with pytest.raises(DomainError, match="first-root branch"):
            bs_chrw(1.0, 1.0)

    @pytest.mark.parametrize("omega0", [0.3, 1.0, 7.0])
    @pytest.mark.parametrize("ratio", [1e-9, 1e-8, 1e-7])
    def test_very_weak_drive(self, omega0, ratio):
        # the residual is of order A^2 on the whole bracket here, so only a
        # stopping rule relative to the root resolves a shift of A^2/16
        a = ratio * omega0
        want = bs_perturbative6(omega0, a).shift
        assert bs_chrw(omega0, a).shift == pytest.approx(want, rel=1e-14, abs=0.0)


class TestFloquetNumeric:
    @pytest.mark.parametrize("a, want", [(a, fl) for a, fl, _, _, _ in SHIFT_TABLE])
    def test_frozen_column(self, a, want):
        assert bs_floquet_numeric(1.0, a).shift == pytest.approx(want, abs=1e-9)

    def test_monotone_in_amplitude(self):
        shifts = [fl for _, fl, _, _, _ in SHIFT_TABLE]
        assert all(b > a for a, b in zip(shifts, shifts[1:]))

    @pytest.mark.parametrize("a", [1e-4, 1e-3, 1e-2])
    def test_weak_drive_matches_series(self, a):
        # the series is off by O((A/4)^8) here, far below the bound
        want = bs_perturbative6(1.0, a).shift
        assert bs_floquet_numeric(1.0, a).shift == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_independent_of_chrw(self, monkeypatch):
        # the reference must not lean on the method it judges
        def fail(*args, **kwargs):
            raise AssertionError("bs_floquet_numeric called bs_chrw")

        monkeypatch.setattr(resonance, "bs_chrw", fail)
        assert bs_floquet_numeric(1.0, 6.0).shift == pytest.approx(SHIFT_TABLE[2][1], abs=1e-9)

    @pytest.mark.parametrize("a", [0.1, 1.0, 6.0, 21.0, 100.0])
    def test_few_evaluations(self, a):
        r = bs_floquet_numeric(1.0, a)
        assert 0 < r.iterations <= 20
        assert r.residual < 1e-9


class TestShirley:
    @pytest.mark.parametrize("a, want", [(a, sh) for a, _, _, sh, _ in SHIFT_TABLE])
    def test_frozen_column(self, a, want):
        assert bs_shirley_iterative(1.0, a).shift == pytest.approx(want, rel=1e-10)

    def test_iteration_count_reported(self):
        r = bs_shirley_iterative(1.0, 11.0)
        assert r.iterations > 0

    @pytest.mark.parametrize("a", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    def test_weak_drive_matches_series(self, a):
        # both are sixth order in A/4, so they differ by O((A/4)^8): below
        # rounding here.  The bound is twice the worst measured on ten
        # points per decade, 2.2e-15, and catches a stop on |f| rather than
        # relative to the shift (3.2e-11 at omega0 = 0.3, A = 3.8e-4)
        for omega0 in (0.3, 1.0, 7.0):
            want = bs_perturbative6(omega0, a * omega0).shift
            got = bs_shirley_iterative(omega0, a * omega0).shift
            assert got == pytest.approx(want, rel=5e-15, abs=0.0)

    def test_whole_drive_range(self):
        # the crossing condition has one root on every shift bracket, so
        # every A from weak to strong drive returns a shift.  The bound is
        # twice the worst measured against Floquet, 8.75e-3 at omega0 = 7,
        # A/omega0 = 20.3
        for omega0 in (0.3, 1.0, 7.0):
            for ratio in np.logspace(-3.0, 3.0, 40):
                a = float(ratio) * omega0
                want = bs_floquet_numeric(omega0, a).shift
                got = bs_shirley_iterative(omega0, a).shift
                assert got == pytest.approx(want, rel=1.75e-2, abs=0.0)


class TestEvaluationCounts:
    """Each root-found shift evaluates its function once per distinct point
    of its variable: the bracket ends and the residual at the root are
    reused, and iterations counts the distinct evaluations."""

    @pytest.mark.parametrize("a", [1e-3, 0.1, 1.0, 6.0, 21.0, 100.0])
    def test_chrw(self, monkeypatch, a):
        points, xi_calls, xi_calls_at_point = [], [], []
        stationarity, solve_xi = resonance._chrw_stationarity, resonance.solve_xi

        def recording_stationarity(omega0, amplitude):
            f = stationarity(omega0, amplitude)

            def g(t):
                points.append(t)
                xi_calls_at_point.append(len(xi_calls))
                return f(t)

            return g

        def counting_solve_xi(*args, **kwargs):
            xi_calls.append(args)
            return solve_xi(*args, **kwargs)

        monkeypatch.setattr(resonance, "_chrw_stationarity", recording_stationarity)
        monkeypatch.setattr(resonance, "solve_xi", counting_solve_xi)
        r = bs_chrw(1.0, a)
        assert len(set(points)) == len(points) == r.iterations
        # the fixed point is closed-form along the root search: one xi
        # solve for the bracket, none per evaluation or for the residual
        assert len(xi_calls) <= 1
        assert len(set(xi_calls_at_point)) == 1

    @pytest.mark.parametrize("a", [1e-3, 0.1, 1.0, 6.0, 21.0, 100.0])
    def test_floquet(self, monkeypatch, a):
        points = []
        slope_fn = resonance._chain_slope_fn

        def counting_slope_fn(*args):
            slope = slope_fn(*args)

            def g(s):
                points.append(s)
                return slope(s)

            return g

        monkeypatch.setattr(resonance, "_chain_slope_fn", counting_slope_fn)
        r = bs_floquet_numeric(1.0, a)
        assert len(set(points)) == len(points) == r.iterations
        assert r.residual < 1e-9

    @pytest.mark.parametrize("a", [1e-6, 0.1, 1.0, 6.0, 21.0, 100.0])
    def test_shirley(self, monkeypatch, a):
        points = []
        rhs = resonance._shirley_shift_rhs

        def recording_rhs(omega0, amplitude, shift):
            points.append(shift)
            return rhs(omega0, amplitude, shift)

        monkeypatch.setattr(resonance, "_shirley_shift_rhs", recording_rhs)
        r = bs_shirley_iterative(1.0, a)
        assert len(set(points)) == len(points) == r.iterations
        assert 0 < r.iterations <= 10


class TestPerturbative6:
    def test_exact_rational_values(self):
        # closed form delta = x^2 + x^4/4 - 35 x^6/32 at omega0 = 1, x = A/4;
        # both pins evaluate exactly in binary arithmetic
        assert bs_perturbative6(1.0, 1.0).shift == pytest.approx(0.06320953369140625, abs=1e-17)
        assert bs_perturbative6(1.0, 0.1).shift == pytest.approx(
            0.00062509738922119141, abs=1e-18
        )

    def test_tracks_chrw_at_weak_drive(self):
        for a in [0.05, 0.2, 0.5]:
            p6 = bs_perturbative6(1.0, a).shift
            ch = bs_chrw(1.0, a).shift
            assert p6 == pytest.approx(ch, rel=5e-4)


class TestAsymptotic:
    @pytest.mark.parametrize("a, want", [(a, asy) for a, _, _, _, asy in SHIFT_TABLE])
    def test_frozen_column(self, a, want):
        assert bs_asymptotic(1.0, a).shift == pytest.approx(want, rel=1e-12)

    def test_zero_crossing_at_bessel_zero(self):
        # omega_res = A/j01 crosses omega0 exactly when A = j01*omega0
        j01 = first_bessel_j0_zero()
        assert bs_asymptotic(1.0, j01).shift == pytest.approx(0.0, abs=1e-15)
        assert bs_asymptotic(1.0, 1.0).shift < 0.0

    def test_closes_on_floquet_at_extreme_drive(self):
        fl = bs_floquet_numeric(1.0, 100.0).shift
        asy = bs_asymptotic(1.0, 100.0).shift
        assert abs(fl - asy) / fl < 1e-2


class TestTrivialAndDispatch:
    @pytest.mark.parametrize("method", list(Method))
    def test_zero_amplitude_gives_zero_shift(self, method):
        r = resonance_shift(method, 1.3, 0.0)
        assert r.shift == 0.0
        assert r.omega_res == 1.3
        assert r.method is method

    def test_dispatch_matches_direct_call(self):
        a = resonance_shift(Method.CHRW, 1.0, 3.5)
        b = bs_chrw(1.0, 3.5)
        assert a.shift == b.shift

    def test_method_from_string(self):
        assert Method("chrw") is Method.CHRW
        assert Method("pert6") is Method.PERT6
        with pytest.raises(ValueError):
            Method("euler")

    @pytest.mark.parametrize(
        "omega0, amplitude",
        [
            (0.0, 1.0),
            (-1.0, 1.0),
            (math.nan, 1.0),
            (1.0, -0.5),
            (1.0, math.nan),
            (1.0, math.inf),
            # zero drive does not excuse a bad omega0
            (-1.0, 0.0),
            (math.nan, 0.0),
        ],
    )
    def test_bad_inputs_rejected(self, omega0, amplitude):
        # every route, called directly and by method tag, stops at the
        # input check rather than failing somewhere inside
        contract = r"must be (positive|non-negative) and finite"
        for method, route in resonance._DISPATCH.items():
            with pytest.raises(ValueError, match=contract):
                route(omega0, amplitude)
            with pytest.raises(ValueError, match=contract):
                resonance_shift(method, omega0, amplitude)
