"""Shift extraction: five routes, frozen cross-checked values, dispatch."""

import functools
import math

import numpy as np
import pytest

from bloch_siegert_lab import chrw, resonance
from bloch_siegert_lab.errors import DomainError
from bloch_siegert_lab.floquet import default_truncation
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

# the 17 amplitudes of one pass of the benchmark's shift-sweep workload (seed 803)
SWEEP_AMPLITUDES = [1e-3, 1e-2, 0.1] + [row[0] for row in SHIFT_TABLE]
SWEEP_AMPLITUDES += [1.245997, 10.670036, 16.946573, 50.0, 100.0]


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
    @pytest.mark.parametrize("ratio", [1e-9, 1e-8, 1e-7, 1e-20, 1e-40, 1e-100, 1e-150])
    def test_very_weak_drive(self, omega0, ratio):
        # the residual is of order A^2 on the whole bracket here, so only a
        # stopping rule relative to the root resolves a shift of A^2/16;
        # with a stop |f| <= eps^2 A the bracket bottom, 0, came back below
        # A/omega0 ~ 8e-31
        a = ratio * omega0
        want = bs_perturbative6(omega0, a).shift
        assert bs_chrw(omega0, a).shift == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_just_above_the_normal_shift_floor(self):
        # AMOS jv(2, z) is 0 under z = 1.77e-152, which leaves the residual at
        # the bracket bottom (z = A/2omega0) as rounding noise: with jv, 26 of
        # these 12,000 points raise NoSignChangeError.  bessel_j's leading
        # term keeps every point on pert6; measured worst 9.8e-16 relative
        floor = resonance._NORMAL_SHIFT_MIN_A
        for omega0 in (0.3, 1.0, 7.0):
            for ratio in np.geomspace(floor, 3.54e-152, 4000):
                a = float(ratio) * omega0
                want = bs_perturbative6(omega0, a).shift
                assert bs_chrw(omega0, a).shift == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_residual_changes_sign_on_the_shift_bracket(self):
        # the root in t = a/z - 2 is bracketed by the shift bracket itself.
        # At the top, s(t) >= t; at the bottom the root keeps at least
        # 0.43 % of the bracket, least near a = 7.88, so a denser patch
        # there.  Moving _shift_bracket's 0.9 to 0.91 breaks the bracket
        for a in np.concatenate([np.geomspace(1e-9, 1e3, 400), np.linspace(7.8, 8.0, 201)]):
            a = float(a)
            lo, hi = resonance._shift_bracket(a)
            f = resonance._chrw_stationarity(a)
            assert (f(lo)[0] > 0.0) != (f(hi)[0] > 0.0), a

    def test_evaluation_budget(self):
        # on the shared shift bracket the mean over the benchmark's sweep is
        # 7.18; on a bracket from one xi solve it was 7.41, and no amplitude
        # may take more than it took there
        before = [5, 5, 6, 7, 8, 8, 8, 8, 8, 8, 8, 8, 7, 8, 8, 8, 8]
        counts = [bs_chrw(1.0, a).iterations for a in SWEEP_AMPLITUDES]
        assert len(counts) == 17 and sum(counts) / len(counts) <= 7.2
        assert all(got <= was for got, was in zip(counts, before))


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

    @pytest.mark.parametrize("omega0", [1e-6, 0.3, 7.0, 1e3])
    @pytest.mark.parametrize("a", [1e-6, 1e-3, 1.0, 6.0])
    def test_solved_in_units_of_omega0(self, omega0, a):
        # the same root and the same evaluations as at omega0 = 1, scaled;
        # with an absolute stop, omega0 = 1e3 at A = 1 took 16 evaluations
        # and omega0 = 1e-6 returned 0 at A = 1e-12
        amp = a * omega0
        got, unit = bs_floquet_numeric(omega0, amp), bs_floquet_numeric(1.0, amp / omega0)
        assert got.shift == omega0 * unit.shift
        assert got.iterations == unit.iterations

    @pytest.mark.parametrize("omega0", [1e-6, 0.3, 1.0, 7.0, 1e3])
    def test_weak_drive_floor(self, omega0):
        # below A = 1e-8 omega0 the shift is under the solver's stop and the
        # route refuses; above it the worst error against the series on a
        # 661-point grid of A/omega0 in [1e-14, 1e-3] was 2.3e-7 relative
        for a in np.geomspace(1e-14, 1e-3, 45):
            amp = float(a) * omega0
            if amp / omega0 < 1e-8:
                with pytest.raises(DomainError, match="unresolved at"):
                    bs_floquet_numeric(omega0, amp)
                continue
            want = bs_perturbative6(omega0, amp).shift
            assert bs_floquet_numeric(omega0, amp).shift == pytest.approx(want, rel=4.7e-7, abs=0.0)

    @staticmethod
    def _root_on_full_bisection(a):
        # bs_floquet_numeric's seeded root in units of omega0, built here on
        # the same chain with every solve bisected to the last ulp (abstol 0)
        lo, hi = resonance._shift_bracket(a)
        solve = resonance._chain(a, default_truncation(a, 1.0 + lo))
        w, slope = solve(1.0 + lo, lo, 2)
        seed = (slope, lo), lo - 2.0 * slope * float(w[1] - w[0])
        return resonance._bracketed_root(
            lambda s: (solve(1.0 + s, s)[1], s), lo, hi, resonance._SHIFT_ABS_TOL, seed
        )[0]

    def test_early_stopped_bisection_keeps_the_root(self):
        # the Brent-step solves stop bisecting at _CHAIN_ABSTOL_GAP (1e-7) of
        # the pair's gap.  Against the root on full bisection the worst here
        # is 7.6e-15 relative, within the Brent stop of 1e-14; at 1e-4 of
        # the gap it read 1.3e-11
        for omega0 in (0.3, 1.0, 7.0):
            for a in np.geomspace(0.5, 1e3, 40):
                a = float(a)
                want = omega0 * self._root_on_full_bisection(a)
                got = bs_floquet_numeric(omega0, a * omega0).shift
                assert got == pytest.approx(want, rel=1.5e-14, abs=0.0)

    def test_early_stopped_bisection_keeps_the_series(self):
        # below a = 1e-2 the series is exact to rounding, and the shift sits
        # on the slope's rounding floor.  Worst here 2.9e-12 relative, as on
        # full bisection; stopping at 1e-6 of the gap read 5.7e-12, at 1e-5
        # 9.5e-12
        for omega0 in (0.3, 1.0, 7.0):
            for a in np.geomspace(1e-3, 1e-2, 40):
                amp = float(a) * omega0
                want = bs_perturbative6(omega0, amp).shift
                got = bs_floquet_numeric(omega0, amp).shift
                assert got == pytest.approx(want, rel=3.6e-12, abs=0.0)


class TestShirley:
    @pytest.mark.parametrize("a, want", [(a, sh) for a, _, _, sh, _ in SHIFT_TABLE])
    def test_frozen_column(self, a, want):
        assert bs_shirley_iterative(1.0, a).shift == pytest.approx(want, rel=1e-10)

    def test_iteration_count_reported(self):
        r = bs_shirley_iterative(1.0, 11.0)
        assert r.iterations > 0

    @pytest.mark.parametrize(
        "a", [1e-150, 1e-100, 1e-40, 1e-20, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
    )
    def test_weak_drive_matches_series(self, a):
        # both are sixth order in A/4, so they differ by O((A/4)^8): below
        # rounding here.  The bound is twice the worst measured on ten
        # points per decade, 2.2e-15, and catches a stop on |f| rather than
        # relative to the shift (3.2e-11 at omega0 = 0.3, A = 3.8e-4) or one
        # that does not scale with the defect (0 below A/omega0 ~ 8e-31)
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


# upper edges of the decade bands of A/omega0 in TestAccuracyEnvelope
_ENVELOPE_EDGES = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3)


@functools.lru_cache(maxsize=None)
def _envelope_references():
    # (omega0, A/omega0, band index, reference shift) on 40 log-spaced
    # A/omega0 in [1e-6, 1e3]: pert6 in the first band, where the Floquet
    # root sits on its rounding floor (2.9e-12 relative at 1e-3), Floquet
    # above
    points = []
    for omega0 in (0.3, 1.0, 7.0):
        for ratio in np.geomspace(1e-6, 1e3, 40):
            ratio = float(ratio)
            band = int(np.searchsorted(_ENVELOPE_EDGES, ratio * (1.0 - 1e-12)))
            reference = bs_perturbative6 if band == 0 else bs_floquet_numeric
            points.append((omega0, ratio, band, reference(omega0, ratio * omega0).shift))
    return tuple(points)


class TestAccuracyEnvelope:
    """Each method's relative error against the reference, band by band of
    A/omega0, from its domain's lower end up.  Each bound is twice the
    worst measured on its band, cut to two digits; None marks a band the
    method does not reach."""

    @pytest.mark.parametrize(
        "method, lowest, bounds",
        [
            (bs_chrw, 0.0, (3.8e-15, 7.9e-12, 4.0e-8, 1.4e-3, 2.1e-2, 1.4e-3, 6.2e-5)),
            # pert6 is the reference in the first band
            (bs_perturbative6, 0.0, (None, 2.8e-12, 4.6e-11, 4.4e-4, 66.0, 2.2e6, 1.2e12)),
            # the strong-drive branch opens at the crossover A = j01 omega0
            (bs_asymptotic, first_bessel_j0_zero(), (None,) * 4 + (1.1, 2.4e-2, 3.0e-4)),
        ],
    )
    def test_band(self, method, lowest, bounds):
        for omega0, ratio, band, want in _envelope_references():
            if ratio <= lowest or bounds[band] is None:
                continue
            got = method(omega0, ratio * omega0).shift
            assert got == pytest.approx(want, rel=bounds[band], abs=0.0), (omega0, ratio)

    def test_asymptotic_blank_below_its_crossover(self):
        # the strong-drive branch opens at A = j01 omega0: below it the
        # route returns a shift <= 0, which the CLI leaves blank
        j01 = first_bessel_j0_zero()
        for omega0, ratio, _, _ in _envelope_references():
            assert (bs_asymptotic(omega0, ratio * omega0).shift > 0.0) == (ratio > j01)


class TestEvaluationCounts:
    """Each root-found shift evaluates its function once per distinct point
    of its variable: the bracket ends and the residual at the root are
    reused, and iterations counts the distinct evaluations."""

    @pytest.mark.parametrize("a", [1e-3, 0.1, 1.0, 6.0, 21.0, 100.0])
    def test_chrw(self, monkeypatch, a):
        points, xi_calls = [], []
        stationarity, solve_xi = resonance._chrw_stationarity, chrw.solve_xi

        def recording_stationarity(a):
            f = stationarity(a)

            def g(t):
                points.append(t)
                return f(t)

            return g

        def counting_solve_xi(*args, **kwargs):
            xi_calls.append(args)
            return solve_xi(*args, **kwargs)

        monkeypatch.setattr(resonance, "_chrw_stationarity", recording_stationarity)
        monkeypatch.setattr(chrw, "solve_xi", counting_solve_xi)
        r = bs_chrw(1.0, a)
        assert len(set(points)) == len(points) == r.iterations
        # the fixed point is closed-form along the root search and the
        # bracket is the shift bracket: no xi solve at all
        assert xi_calls == []
        assert not hasattr(resonance, "solve_xi")

    @pytest.mark.parametrize("a", [1e-3, 0.1, 1.0, 6.0, 21.0, 100.0])
    def test_floquet(self, monkeypatch, a):
        # the seed solve takes the pair at abstol 0, and every later solve
        # one eigenvalue at _CHAIN_ABSTOL_GAP times the pair's gap there
        points, calls = [], []
        chain = resonance._chain

        def counting_chain(*args):
            solve = chain(*args)

            def g(omega, s, count=1, abstol=0.0):
                points.append(s)
                w, slope = solve(omega, s, count, abstol)
                calls.append((count, abstol, list(w[:count])))
                return w, slope

            return g

        monkeypatch.setattr(resonance, "_chain", counting_chain)
        r = bs_floquet_numeric(1.0, a)
        assert len(set(points)) == len(points) == r.iterations
        assert r.residual < 1e-9
        (count, abstol, (e0, e1)), rest = calls[0], calls[1:]
        assert (count, abstol) == (2, 0.0)
        want = (1, resonance._CHAIN_ABSTOL_GAP * (e1 - e0))
        assert rest and all((c, t) == want and want[1] > 0.0 for c, t, _ in rest)

    @pytest.mark.parametrize("a", [1e-6, 0.1, 1.0, 6.0, 21.0, 100.0])
    def test_shirley(self, monkeypatch, a):
        points = []
        rhs = resonance._shirley_shift_rhs

        def recording_rhs(a, shift):
            points.append(shift)
            return rhs(a, shift)

        monkeypatch.setattr(resonance, "_shirley_shift_rhs", recording_rhs)
        r = bs_shirley_iterative(1.0, a)
        assert len(set(points)) == len(points) == r.iterations
        assert 0 < r.iterations <= 10


class TestSeededRoot:
    """The bracket seeded by one model step at its bottom: the same root as
    plain Brent, each distinct point evaluated once."""


    def _root(self, x1=None):
        # exp(x) - 2 on [0, 2], root ln 2; the seed is the value at the
        # bottom and the trial point x1
        calls = []

        def point(x):
            calls.append(x)
            return math.exp(x) - 2.0, x

        seed = None if x1 is None else (point(0.0), x1)
        found = resonance._bracketed_root(point, 0.0, 2.0, 1e-18, seed)
        return found, calls

    def test_plain_root(self):
        (root, residual, iterations), calls = self._root()
        assert root == pytest.approx(math.log(2.0), rel=1e-14, abs=0.0)
        assert residual == abs(math.exp(root) - 2.0)
        assert len(set(calls)) == len(calls) == iterations

    @pytest.mark.parametrize("x1", [0.6, 0.7, 1.0])
    def test_seed_on_either_side(self, x1):
        (root, _, iterations), calls = self._root(x1)
        assert root == pytest.approx(self._root()[0][0], rel=2e-14, abs=0.0)
        assert calls[:2] == [0.0, x1]
        assert len(set(calls)) == len(calls) == iterations

    @pytest.mark.parametrize("x1", [-0.5, 2.0, 3.0, 1e-15, 0.0])
    def test_refused_seed_leaves_the_bracket(self, x1):
        # outside (0, 2), or under the floor guard of 1e-14: Brent runs
        # exactly as unseeded, on the same points in the same order
        found, calls = self._root(x1)
        assert (found, calls) == self._root()
        assert len(set(calls)) == len(calls) == found[2]


class TestSeededRoutes:
    """bs_floquet_numeric and bs_shirley_iterative against plain Brent on
    the same residual, and their evaluations on the benchmark's sweep."""

    @pytest.mark.parametrize("omega0", [0.3, 1.0, 7.0])
    def test_same_root_as_unseeded(self, omega0):
        # worst measured on this grid: Floquet 91 eps/a below a = 1 (the
        # slope's rounding floor) and 8.5 eps from there up, Shirley 10.3 eps
        eps = np.finfo(float).eps
        for a in np.geomspace(1e-6, 1e3, 40):
            a = float(a)
            lo, hi = resonance._shift_bracket(a)
            solve = resonance._chain(a, default_truncation(a, 1.0 + lo))
            plain = resonance._bracketed_root(
                lambda s: (solve(1.0 + s, s)[1], s), lo, hi, resonance._SHIFT_ABS_TOL
            )
            got = bs_floquet_numeric(omega0, a * omega0).shift
            bound = 180.0 * eps / a if a < 1.0 else 15.0 * eps
            assert got == pytest.approx(omega0 * plain[0], rel=bound, abs=0.0)

            def defect(s):
                return resonance._shirley_shift_rhs(a, s) - s, s

            plain = resonance._bracketed_root(defect, lo, hi, resonance._relative_tol(lo, hi))
            got = bs_shirley_iterative(omega0, a * omega0).shift
            assert got == pytest.approx(omega0 * plain[0], rel=20.0 * eps, abs=0.0)

    def test_evaluation_budget(self):
        # seeded, the means are 6.41 (Floquet; 6.53 with every solve bisected
        # to the last ulp) and 6.07 (Shirley, which the sweep runs up to
        # A = 21); unseeded they were 8.18 and 6.93
        floquet = [bs_floquet_numeric(1.0, a).iterations for a in SWEEP_AMPLITUDES]
        shirley = [bs_shirley_iterative(1.0, a).iterations for a in SWEEP_AMPLITUDES if a <= 21.0]
        assert len(floquet) == 17 and len(shirley) == 15
        assert sum(floquet) / len(floquet) <= 6.6
        assert sum(shirley) / len(shirley) <= 6.5


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

    def test_dispatch_takes_the_value_string(self):
        assert resonance_shift("chrw", 1.0, 1.0) == resonance_shift(Method.CHRW, 1.0, 1.0)
        with pytest.raises(ValueError):
            resonance_shift("euler", 1.0, 1.0)

    def test_method_report_order(self):
        # shift-table's columns and shift-sweep's choices follow this order
        assert [m.value for m in Method] == ["floquet", "chrw", "shirley", "asymptotic", "pert6"]

    def test_method_from_string(self):
        assert Method("chrw") is Method.CHRW
        assert Method("pert6") is Method.PERT6
        with pytest.raises(ValueError):
            Method("euler")

    def test_float_overflow_raises_domain_error(self):
        # x**6 of pert6 and a2**3 of the shirley map overflow Python floats
        # past A ~ 9.5e51 and 2.4e51; the bracketed and closed-form routes
        # that stay finite still return
        for route in (bs_perturbative6, bs_shirley_iterative):
            with pytest.raises(DomainError, match="float overflow at A=1e\\+52"):
                route(1.0, 1e52)
        for route in (bs_floquet_numeric, bs_chrw, bs_asymptotic):
            assert route(1.0, 1e52).shift == pytest.approx(1e52 / first_bessel_j0_zero() - 1.0)

    def test_non_finite_shift_raises_domain_error(self):
        # 35 x**6 overflows to inf without raising while x**6 is finite
        with pytest.raises(DomainError, match="float overflow at A=9.5e\\+51"):
            bs_perturbative6(1.0, 9.5e51)

    @pytest.mark.parametrize("omega0, amplitude", [(1e-300, 1e300), (1e300, 1e-300)])
    def test_ratio_outside_float_range_raises_domain_error(self, omega0, amplitude):
        # every route works on a = A/omega0; one that overflows to inf or
        # underflows to 0 is refused before any body sees it
        for route in resonance._DISPATCH.values():
            with pytest.raises(DomainError, match="leaves the float range"):
                route(omega0, amplitude)

    def test_bracket_tolerance_never_underflows(self):
        # abs_tol = eps^2 w min(1, w) for the bracket width w, a plain
        # product: below w ~ 1e-146 it is 0 and the relative stop alone
        # ends the search.  No route reaches a zero abs_tol with an
        # underflowed shift: below A/omega0 = 4 sqrt(float min) ~ 5.967e-154
        # the shift (A/4)^2/omega0 is not a normal float, and the bracketed
        # routes raise DomainError
        for width in (1e-300, 1e-290, 1e-150, 1e-147):
            assert resonance._relative_tol(0.0, width) == 0.0
        for width in (1e-145, 1e-140, 1e-20, 0.5):
            tol = resonance._relative_tol(-width, 0.0)
            assert tol == resonance._BRACKET_ABS_SCALE * width * width > 0.0
        for width in (1.0, 1e300):
            assert resonance._relative_tol(-width, 0.0) == resonance._BRACKET_ABS_SCALE * width
        for route in (bs_chrw, bs_shirley_iterative):
            with pytest.raises(DomainError, match="not a normal float"):
                route(1.0, 1e-300)

    def test_weak_drive_floor(self):
        # below the floor chrw's residual at the bracket bottom rounds to a
        # few subnormals of either sign and shirley's shift underflows, so
        # both must refuse every point; at the floor both return pert6's shift
        floor = resonance._NORMAL_SHIFT_MIN_A
        assert floor == pytest.approx(5.967e-154, rel=1e-4)
        for a in np.geomspace(1e-162, 5.96e-154, 1000):
            for route in (bs_chrw, bs_shirley_iterative):
                with pytest.raises(DomainError, match="not a normal float"):
                    route(1.0, float(a))
        for omega0 in (0.3, 1.0, 7.0):
            want = bs_perturbative6(omega0, floor * omega0).shift
            for route in (bs_chrw, bs_shirley_iterative):
                assert route(omega0, floor * omega0).shift == pytest.approx(want, rel=1e-15)

    def test_strong_drive_ceiling(self):
        # above _BRACKETED_MAX_A the bracketed routes' chains and residuals
        # leave the float range (Floquet's first nan at A/omega0 = 1.31e147),
        # so each refuses it by name; below it chrw and floquet track the
        # asymptote and shirley's sixth-order powers overflow (past 2.4e51).
        # A numpy warning on the way fails the test
        ceiling = resonance._BRACKETED_MAX_A
        grid = [*np.geomspace(1e100, 1e308, 400), ceiling, math.nextafter(ceiling, math.inf)]
        for a in map(float, grid):
            want = bs_asymptotic(1.0, a).shift
            for route in (bs_chrw, bs_floquet_numeric, bs_shirley_iterative):
                if a > ceiling:
                    with pytest.raises(DomainError, match="unresolved at A/omega0=.* > 1e\\+145"):
                        route(1.0, a)
                elif route is bs_shirley_iterative:
                    with pytest.raises(DomainError, match="float overflow"):
                        route(1.0, a)
                else:
                    assert route(1.0, a).shift == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("method", list(Method))
    def test_numpy_scalar_takes_the_float_path(self, method):
        # numpy scalars overflow with a RuntimeWarning where floats raise
        # OverflowError, so the routes convert their inputs first
        def outcome(omega0, amplitude):
            try:
                return resonance_shift(method, omega0, amplitude)
            except DomainError as exc:
                return type(exc), str(exc)

        for a in (0.1, 6.0, 1e70, 1e308):
            assert outcome(np.float64(1.0), np.float64(a)) == outcome(1.0, a)

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
