"""Special functions and scalar solvers against scipy and frozen values."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from bloch_siegert_lab import numerics
from bloch_siegert_lab.errors import (
    ConvergenceError,
    DomainError,
    NoSignChangeError,
)
from bloch_siegert_lab.numerics import (
    bessel_j,
    bessel_j0_minus_1,
    bessel_j_sequence,
    find_root_bracketed,
    first_bessel_j0_zero,
    minimize_scalar_bracketed,
)


class TestTolerance:
    """find_root_bracketed's abs_tol and rel_tol: plain floats, checked on
    entry."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": math.inf},
            {"abs_tol": -1e-9},
            {"rel_tol": 0.0},
            {"abs_tol": math.nan},
            {"rel_tol": math.inf},
            {"rel_tol": -1e-9},
            {"rel_tol": math.nan},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        calls = []

        def f(x):
            calls.append(x)
            return x * x - 2.0

        tol = {"abs_tol": 1e-12, "rel_tol": 1e-12, **kwargs}
        with pytest.raises(ValueError):
            find_root_bracketed(f, 0.0, 2.0, **tol)
        assert calls == []

    def test_zero_abs_tol_is_accepted(self):
        # only the relative stop is left, and it still reaches the root
        root = find_root_bracketed(lambda x: x * x - 2.0, 0.0, 2.0, 0.0, 1e-15)
        assert root == pytest.approx(math.sqrt(2.0), rel=4e-15, abs=0.0)


class TestBesselJ:
    def test_frozen_j1_at_one(self):
        # classic tabulated value
        assert bessel_j(1, 1.0) == pytest.approx(0.4400505857449335, abs=1e-15)

    def test_negative_argument_parity(self):
        for n in range(5):
            assert bessel_j(n, -3.2) == pytest.approx(
                (-1.0) ** n * bessel_j(n, 3.2), abs=1e-15
            )

    def test_rejects_bad_order_and_argument(self):
        with pytest.raises(DomainError):
            bessel_j(-1, 1.0)
        with pytest.raises(DomainError):
            bessel_j(2, math.nan)
        with pytest.raises(DomainError):
            bessel_j(2, math.inf)

    def test_order_must_be_integral(self):
        # an integral float is taken as an int; any other value is refused
        assert bessel_j(2.0, 1.3) == bessel_j(2, 1.3)
        assert bessel_j_sequence(2.0, 1.3).tolist() == bessel_j_sequence(2, 1.3).tolist()
        for bad in (2.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                bessel_j(bad, 1.0)
            with pytest.raises(DomainError):
                bessel_j_sequence(bad, 1.0)

    def test_leading_term_at_tiny_argument_against_mpmath(self):
        # below |x| = 2**-26 J_n is its leading term (x/2)^n / n!; AMOS
        # jv(2, x) is 0 under 1.77e-152.  1 ulp(1) relative where J_n is
        # a normal float, 2 ulp(0) absolute where it is subnormal; measured
        # worst 0.69 ulp(1) and 1 ulp(0) on this grid
        mp = pytest.importorskip("mpmath")
        xs = np.geomspace(1e-300, 0.999 * 2.0**-26, 400)
        xs = [*xs, *(-xs[::7])]
        with mp.workdps(40):
            for n in range(4):
                for x in xs:
                    got = bessel_j(n, float(x))
                    want = mp.besselj(n, mp.mpf(float(x)))
                    if abs(want) >= sys.float_info.min:
                        assert abs((got - want) / want) <= math.ulp(1.0), (n, x)
                    else:
                        assert abs(got - want) <= 2.0 * math.ulp(0.0), (n, x)
        assert bessel_j(2, 1e-160) > 0.0

    @given(st.floats(min_value=1e-8, max_value=50.0), st.integers(min_value=1, max_value=15))
    @settings(max_examples=200, deadline=None)
    def test_recurrence_invariant(self, x, n):
        # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x)
        lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
        rhs = (2.0 * n / x) * bessel_j(n, x)
        assert lhs == pytest.approx(rhs, abs=5e-13, rel=5e-11)

    @given(st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_normalization_invariant(self, x):
        # J_0^2 + 2 sum_{k>=1} J_k^2 = 1
        seq = bessel_j_sequence(max(40, int(x) + 25), x)
        total = seq[0] ** 2 + 2.0 * float((seq[1:] ** 2).sum())
        assert total == pytest.approx(1.0, abs=1e-12)


class TestBesselJ0Minus1:
    def test_matches_direct_subtraction_moderate(self):
        for x in [0.5, 1.0, 2.5, 7.0, 12.0]:
            assert bessel_j0_minus_1(x) == pytest.approx(
                special.jv(0, x) - 1.0, abs=1e-15, rel=1e-12
            )

    def test_small_argument_no_cancellation(self):
        # at x = 1e-6 the direct subtraction loses ten digits; the series
        # keeps full relative precision: J0(x) - 1 = -x^2/4 (1 - x^2/16 ...)
        x = 1e-6
        want = -x * x / 4.0 * (1.0 - x * x / 16.0)
        assert bessel_j0_minus_1(x) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_even_in_x(self):
        assert bessel_j0_minus_1(-0.37) == bessel_j0_minus_1(0.37)

    def test_cephes_branch_calls_no_amos(self, monkeypatch):
        # on 1 <= |x| <= 5 J0 comes from Cephes j0 alone, both ends included
        def no_jv(*args):
            raise AssertionError("jv called")

        monkeypatch.setattr(numerics, "jv", no_jv)
        for x in [1.0, 1.5, 2.4048255576957728, 2.672, 4.0, 5.0, -1.0, -3.3, -5.0]:
            assert bessel_j0_minus_1(x) == float(special.j0(abs(x))) - 1.0
        with pytest.raises(AssertionError, match="jv called"):
            bessel_j0_minus_1(5.000000000000001)

    def test_against_40_digit_mpmath(self):
        # 2 ulp(1) absolute from |x| = 1 up (Cephes to 5, AMOS above), 2 ulp
        # relative below (the series); measured worst 0.89 ulp (Cephes), 1.30
        # ulp (AMOS) and 1.29 ulp relative (series) on this grid
        mp = pytest.importorskip("mpmath")
        ulp = math.ulp(1.0)
        xs = [*np.logspace(-8.0, 3.0, 221), *special.jn_zeros(0, 3)]
        with mp.workdps(40):
            for x in xs:
                want = mp.besselj(0, mp.mpf(float(x))) - 1
                got = bessel_j0_minus_1(float(x))
                if x >= 1.0:
                    assert abs(got - want) <= 2.0 * ulp, x
                else:
                    assert abs((got - want) / want) <= 2.0 * ulp, x

    @pytest.mark.parametrize("edge", [1.0, 5.0])
    def test_branches_join(self, edge):
        # the edge and its two float neighbours, on both branches, and the
        # step across the edge all lie within 2 ulp(1) of a 40-digit J0 - 1;
        # measured worst 0.49 ulp at a point and 0.62 ulp on the step
        mp = pytest.importorskip("mpmath")
        bound = 2.0 * math.ulp(1.0)
        xs = (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))
        got = [bessel_j0_minus_1(x) for x in xs]
        with mp.workdps(40):
            want = [mp.besselj(0, mp.mpf(x)) - 1 for x in xs]
            assert all(abs(g - w) <= bound for g, w in zip(got, want))
            assert abs((got[2] - got[0]) - (want[2] - want[0])) <= bound


class TestFirstBesselJ0Zero:
    def test_frozen_value(self):
        assert first_bessel_j0_zero() == pytest.approx(2.404825557695773, abs=1e-12)

    def test_is_a_zero(self):
        assert abs(special.jv(0, first_bessel_j0_zero())) < 5e-13


class TestFindRootBracketed:
    def test_simple_root(self):
        root = find_root_bracketed(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12, 1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_seeded_random_cubics(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            r = sorted(rng.uniform(-3.0, 3.0, size=3))
            scale = rng.uniform(0.2, 5.0)
            f = lambda x, r=r, s=scale: s * (x - r[0]) * (x - r[1]) * (x - r[2])
            lo = r[2] - rng.uniform(0.05, 0.5) * (r[2] - r[1] + 0.1)
            lo = max(lo, 0.5 * (r[1] + r[2]))
            hi = r[2] + rng.uniform(0.1, 2.0)
            if f(lo) == 0.0 or f(hi) == 0.0:
                continue
            root = find_root_bracketed(f, lo, hi, 1e-14, 1e-14)
            assert abs(f(root)) <= 1e-10

    def test_exact_endpoint_root(self):
        assert find_root_bracketed(lambda x: x - 1.0, 1.0, 3.0, 1e-12, 1e-12) == 1.0

    def test_endpoints_are_evaluated_first(self):
        # a caller holding the end values memoises f (chrw.solve_xi does)
        calls = []

        def f(x):
            calls.append(x)
            return x * x - 2.0

        find_root_bracketed(f, 0.0, 2.0, 1e-12, 1e-12)
        assert calls[:2] == [0.0, 2.0]

    def test_no_sign_change_raises(self):
        with pytest.raises(NoSignChangeError):
            find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-12)

    def test_non_finite_endpoint_raises(self):
        with pytest.raises(DomainError):
            find_root_bracketed(
                lambda x: math.inf if x >= 0.0 else -1.0, -1.0, 1.0, 1e-12, 1e-12
            )

    def test_max_iter_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_ITER", 3)
        with pytest.raises(ConvergenceError, match="in 3 iterations"):
            find_root_bracketed(
                lambda x: math.tanh(50.0 * (x - 0.123456789)), 0.0, 1.0, 1e-15, 1e-15
            )

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_root_inside_bracket(self, center, width):
        f = lambda x: math.atan(x - center)
        root = find_root_bracketed(f, center - width, center + width, 1e-12, 1e-12)
        assert center - width <= root <= center + width
        assert root == pytest.approx(center, abs=1e-10 + 1e-10 * abs(center))


class TestMinimizeScalarBracketed:
    def test_quadratic(self):
        xmin = minimize_scalar_bracketed(lambda x: (x - 0.7) ** 2, -1.0, 2.0, 1e-12, 1e-12)
        assert xmin == pytest.approx(0.7, abs=1e-7)

    def test_quartic_offset(self):
        xmin = minimize_scalar_bracketed(
            lambda x: (x - 2.0) ** 4 + 3.0, 0.0, 5.0, 1e-10, 1e-10
        )
        assert xmin == pytest.approx(2.0, abs=1e-2)  # quartic floor is flat

    def test_cosine_well(self):
        xmin = minimize_scalar_bracketed(math.cos, 2.0, 4.5, 1e-12, 1e-12)
        assert xmin == pytest.approx(math.pi, abs=1e-7)

    def test_bad_bracket_raises(self):
        with pytest.raises(DomainError):
            minimize_scalar_bracketed(lambda x: x * x, 2.0, -1.0, 1e-12, 1e-12)
