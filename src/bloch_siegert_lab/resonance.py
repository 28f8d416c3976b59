"""Resonance location and Bloch-Siegert shift by five independent routes.

The shift is omega_res - omega0, where omega_res maximizes the
time-averaged transition probability at fixed drive amplitude.  Routes:

* chrw        -- stationarity of the squared counter-rotating hybridized
                 Rabi frequency with respect to omega0,
* floquet     -- sign change of d q / d omega0 on the resonant branch of one
                 tridiagonal parity chain of the Floquet matrix,
* shirley     -- bracketed root of the sixth-order quasienergy crossing
                 condition,
* pert6       -- closed sixth-order series in A/4,
* asymptotic  -- strong-drive limit omega_res = A / j01 with j01 the first
                 zero of J0.

All five agree on the leading (A/4)^2/omega0 behaviour; they differ in
range of validity, which is the point of keeping all of them.  All five
reject bad inputs with ValueError and give the zero shift at A = 0 in one
place; chrw, floquet and shirley share one memoised Brent driver.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

from scipy.special import j1 as bessel_j1

from .chrw import ModelParams, solve_xi
from .errors import DomainError
from .floquet import _chain_slope_fn, default_truncation
from .numerics import (
    Tolerance,
    bessel_j,
    bessel_j0_minus_1,
    find_root_bracketed,
    first_bessel_j0_zero,
)


class Method(enum.Enum):
    CHRW = "chrw"
    FLOQUET = "floquet"
    SHIRLEY = "shirley"
    PERT6 = "pert6"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class ShiftResult:
    """Resonance location for one (omega0, A) point by one method.

    The shift is the stored quantity; omega_res = omega0 + shift is
    derived.  Storing omega_res instead would quantize weak-drive shifts
    (~1e-6 omega0) to the ulp of omega0 on the round trip.  iterations
    counts the distinct points at which the method evaluated its function,
    each evaluated once; pert6 and asymptotic evaluate none.  The three
    root-found methods take residual from the value at the root at no cost.
    """

    method: Method
    omega0: float
    amplitude: float
    shift: float
    residual: float
    iterations: int

    @property
    def omega_res(self) -> float:
        return self.omega0 + self.shift


# tight scalar tolerances: the roots are smooth and cheap, so run the
# bracketing solver to machine width.  The floquet root in the shift
# variable also stops once |slope| <= abs_tol; without that stop its root
# at A = 1e-3 takes 14 evaluations instead of 6.  The chrw root in
# t = A/z - 2 omega0 and the shirley root in the shift keep rel_tol but
# scale abs_tol with their bracket (_relative_tol): at the chrw root t lies
# between s/2 and s, so the relative rule alone gives the shift to 1e-14
# from A = 1e-9 omega0 up, where the root is 3e-11 of the bracket, far
# above that floor.  A fixed |f| stop would not do: the chrw residual is of
# order A^2 everywhere on the bracket, and |f| <= 1e-18 leaves the shirley
# shift 3.2e-11 off at omega0 = 0.3, A = 3.8e-4.
_SHIFT_TOL = Tolerance(abs_tol=1e-18, rel_tol=1e-14, max_iter=300)
_BRACKET_ABS_SCALE = math.ulp(1.0) ** 2
_XI_TOL = Tolerance(abs_tol=1e-22, rel_tol=2e-16, max_iter=200)


def _relative_tol(lo: float, hi: float) -> Tolerance:
    """_SHIFT_TOL with abs_tol scaled to the bracket [lo, hi], so that the
    stop is relative to the root."""
    return Tolerance(
        abs_tol=_BRACKET_ABS_SCALE * abs(hi - lo),
        rel_tol=_SHIFT_TOL.rel_tol,
        max_iter=_SHIFT_TOL.max_iter,
    )


def _bracketed_root(
    point: Callable[[float], tuple[float, float]], lo: float, hi: float, tol: Tolerance
) -> tuple[float, float, int]:
    """Root of the residual of point(x) -> (residual, shift) on [lo, hi].

    Returns (shift, |residual|, iterations) at the root.  point is
    memoised, so the value at the root costs no second evaluation and
    iterations counts distinct points.
    """
    point = functools.cache(point)
    root = find_root_bracketed(lambda x: point(x)[0], lo, hi, tol)
    residual, shift = point(root)
    return shift, abs(residual), point.cache_info().misses


def _shift_route(method: Method):
    """Decorator: the public ShiftResult function of method around a body.

    Bad inputs raise ValueError here and A = 0 is the zero shift, so the
    body sees finite omega0 > 0 and A > 0 only.  It returns its closed-form
    shift or the (shift, residual, iterations) of _bracketed_root.
    """

    def decorate(body):
        @functools.wraps(body)
        def route(omega0: float, amplitude: float) -> ShiftResult:
            if not (math.isfinite(omega0) and omega0 > 0.0):
                raise ValueError(f"omega0 must be positive and finite, got {omega0}")
            if not (math.isfinite(amplitude) and amplitude >= 0.0):
                raise ValueError(f"amplitude must be non-negative and finite, got {amplitude}")
            found = 0.0 if amplitude == 0.0 else body(omega0, amplitude)
            shift, residual, iterations = found if isinstance(found, tuple) else (found, 0.0, 0)
            return ShiftResult(method, omega0, amplitude, shift, residual, iterations)

        return route

    return decorate


def _shift_bracket(omega0: float, amplitude: float) -> tuple[float, float]:
    # s = omega - omega0 runs from just below the strong-drive asymptote
    # (never below the bare resonance) up to A
    return max(0.0, 0.9 * amplitude / first_bessel_j0_zero() - omega0), amplitude


def _chrw_stationarity(omega0: float, amplitude: float) -> Callable[[float], tuple[float, float]]:
    """Residual of d(Rabi^2)/d omega0 = 0 and the shift s = omega - omega0,
    both as functions of t = A/z - 2 omega0.

    z = A xi/omega parametrises the xi fixed point: with 2 J1 = z (J0 + J2)
    it reads omega = A/z - omega0 (J0 + J2), so an evaluation needs no xi
    solve.  Taking t as the variable leaves z = A/(2 omega0 + t), the shift
    s = t - omega0 ((J0 - 1) + J2) and the detuning (J0 - 1) omega0 - s free
    of subtractive error, so the root is resolved to machine precision even
    at A = 1e-9 omega0, where the shift is ~6e-20 omega0.  J1 comes from
    Cephes j1, as in the xi equation.  Every point must lie on the fixed
    point's first-root branch, where omega + omega0 (J0 - J2) > 0 and omega
    falls as z grows; DomainError otherwise.
    """

    def f(t: float) -> tuple[float, float]:
        z = amplitude / (2.0 * omega0 + t)
        j0m1 = bessel_j0_minus_1(z)
        j0 = 1.0 + j0m1
        j1 = float(bessel_j1(z))
        j2 = bessel_j(2, z)
        s = t - omega0 * (j0m1 + j2)
        omega = omega0 + s
        slope = omega + omega0 * (j0 - j2)
        if not slope > 0.0:
            raise DomainError(
                f"xi fixed point left its first-root branch at z={z:.6g}, omega={omega:.6g}"
            )
        xi = z * omega / amplitude
        delta = j0m1 * omega0 - s
        dxi = -2.0 * omega * j1 / (amplitude * slope)
        ddelta = j0 - omega0 * (amplitude / omega) * j1 * dxi
        return 2.0 * delta * ddelta - 2.0 * amplitude * amplitude * (1.0 - xi) * dxi, s

    return f


def _chrw_bracket(omega0: float, amplitude: float) -> tuple[float, float]:
    """Bracket [t_lo, t_hi] of the chrw root in t = A/z - 2 omega0.

    t_hi = A is explicit: J1(z) <= z/2 gives s >= t, so the shift there is
    at or above A, the top of the shift bracket.  t_lo is the point at the
    bottom of the shift bracket, from one xi solve.
    """
    s_lo, _ = _shift_bracket(omega0, amplitude)
    params = ModelParams(omega0=omega0, amplitude=amplitude, omega=omega0 + s_lo)
    z = amplitude * solve_xi(params, tol=_XI_TOL) / params.omega
    return s_lo + omega0 * (bessel_j0_minus_1(z) + bessel_j(2, z)), amplitude


@_shift_route(Method.CHRW)
def bs_chrw(omega0: float, amplitude: float) -> tuple[float, float, int]:
    """Resonance from the counter-rotating hybridized rotating frame.

    The stationarity residual changes sign on the t bracket from the
    weakest to the strongest drive, so it is one Brent root there.
    """
    t_lo, t_hi = _chrw_bracket(omega0, amplitude)
    return _bracketed_root(
        _chrw_stationarity(omega0, amplitude), t_lo, t_hi, _relative_tol(t_lo, t_hi)
    )


@_shift_route(Method.PERT6)
def bs_perturbative6(omega0: float, amplitude: float) -> float:
    """Sixth-order weak-drive series for the resonance frequency."""
    x = 0.25 * amplitude
    return (
        x * x / omega0
        + x**4 / (4.0 * omega0**3)
        - 35.0 * x**6 / (32.0 * omega0**5)
    )


@_shift_route(Method.ASYMPTOTIC)
def bs_asymptotic(omega0: float, amplitude: float) -> float:
    """Strong-drive limit: the resonance tracks the first zero of J0.

    omega_res = A / j01 holds on the strong-drive branch only.  A shift
    <= 0 (A <= j01 omega0) means that branch has not opened yet, not a
    resonance at or below omega0; `bsl shift-table` and `bsl shift-sweep`
    leave such cells blank.
    """
    return amplitude / first_bessel_j0_zero() - omega0


def _shirley_shift_rhs(omega0: float, amplitude: float, shift: float) -> float:
    """Right-hand side of the crossing condition minus omega0, at
    omega = omega0 + shift; its fixed point is the shift itself."""
    omega = omega0 + shift
    a2 = amplitude * amplitude
    s = omega + omega0
    term2 = omega * a2 / (4.0 * s * s)
    term4 = (2.0 * omega0 - omega) * a2 * a2 / (64.0 * s**4)
    poly = (
        9.0 * omega**5
        - 126.0 * omega**4 * omega0
        + 82.0 * omega**3 * omega0**2
        + 42.0 * omega**2 * omega0**3
        - 23.0 * omega * omega0**4
        - 8.0 * omega0**5
    )
    term6 = poly * a2**3 / (256.0 * s**6 * (9.0 * omega * omega - omega0 * omega0) ** 2)
    return term2 + term4 + term6


@_shift_route(Method.SHIRLEY)
def bs_shirley_iterative(omega0: float, amplitude: float) -> tuple[float, float, int]:
    """Self-consistent solution of the sixth-order crossing condition.

    The shift s = omega - omega0 solves s = rhs(s), the crossing condition
    of _shirley_shift_rhs, so it is one Brent root of rhs(s) - s on the
    shift bracket.  The map's only pole, at omega = omega0/3, lies below
    the bracket, where omega >= omega0.  Working in the shift rather than
    omega keeps a weak drive's shift (~A^2/16) off the ulp of omega0, and
    the stop is relative to the shift, as for chrw.
    """
    s_lo, s_hi = _shift_bracket(omega0, amplitude)

    def defect(shift: float) -> tuple[float, float]:
        return _shirley_shift_rhs(omega0, amplitude, shift) - shift, shift

    return _bracketed_root(defect, s_lo, s_hi, _relative_tol(s_lo, s_hi))


@_shift_route(Method.FLOQUET)
def bs_floquet_numeric(omega0: float, amplitude: float) -> tuple[float, float, int]:
    """Resonance from the Floquet spectrum: the root of dq/domega0.

    At resonance the resonant quasienergy branch is stationary in omega0.
    Its slope, taken from eigenvector weights on one parity chain of the
    Floquet matrix, changes sign there, so the shift s = omega - omega0 is
    one Brent root on the shift bracket, with the truncation frozen at its
    lower end so the slope stays smooth.
    """
    s_lo, s_hi = _shift_bracket(omega0, amplitude)
    n_trunc = default_truncation(
        ModelParams(omega0=omega0, amplitude=amplitude, omega=omega0 + s_lo)
    )
    slope = _chain_slope_fn(omega0, amplitude, n_trunc)
    return _bracketed_root(lambda s: (slope(s), s), s_lo, s_hi, _SHIFT_TOL)


_DISPATCH = {
    Method.CHRW: bs_chrw,
    Method.FLOQUET: bs_floquet_numeric,
    Method.SHIRLEY: bs_shirley_iterative,
    Method.PERT6: bs_perturbative6,
    Method.ASYMPTOTIC: bs_asymptotic,
}


def resonance_shift(method: Method, omega0: float, amplitude: float) -> ShiftResult:
    """Dispatch a single shift computation by method tag."""
    return _DISPATCH[method](omega0, amplitude)
