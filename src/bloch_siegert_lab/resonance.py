"""Resonance location and Bloch-Siegert shift by five independent routes.

The shift is omega_res - omega0, where omega_res maximizes the
time-averaged transition probability at fixed drive amplitude.  Routes:

* chrw        -- stationarity of the squared counter-rotating hybridized
                 Rabi frequency with respect to omega0,
* floquet     -- sign change of d q / d omega0 on the resonant branch of
                 solve_floquet's tridiagonal parity chain (floquet._chain),
* shirley     -- bracketed root of the sixth-order quasienergy crossing
                 condition,
* pert6       -- closed sixth-order series in A/4,
* asymptotic  -- strong-drive limit omega_res = A / j01 with j01 the first
                 zero of J0.

All five agree on the leading (A/4)^2/omega0 behaviour; they differ in
range of validity, which is the point of keeping all of them.  All five
reject bad inputs with ValueError, give the zero shift at A = 0 and are
solved in units of omega0, as functions of A/omega0 alone, in one place
(_shift_route); chrw, floquet and shirley share one bracket, refused
outside A/omega0 in [_NORMAL_SHIFT_MIN_A, _BRACKETED_MAX_A], and one
memoised Brent driver (_bracketed_root), and none solves the xi fixed
point.  floquet and shirley hand it a seed, the value at the bracket
bottom and one model step from there (the resonant pair's two-level root,
one step of the crossing condition's fixed-point map), whose sign closes
the bracket before Brent starts; chrw runs it on the plain bracket.
floquet sizes its chain by floquet.default_truncation at the bracket
bottom; its Brent steps bisect only to _CHAIN_ABSTOL_GAP of the pair gap,
its seed solve to the last ulp.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from scipy.special import j1 as bessel_j1

from .errors import DomainError
from .floquet import _chain, default_truncation
from .numerics import (
    bessel_j,
    bessel_j0_minus_1,
    find_root_bracketed,
    first_bessel_j0_zero,
)

__all__ = ["Method", "ShiftResult", "bs_asymptotic", "bs_chrw", "bs_floquet_numeric",
    "bs_perturbative6", "bs_shirley_iterative", "resonance_shift"]


class Method(enum.Enum):
    """The five routes, in report order: the numerical reference first."""

    FLOQUET = "floquet"
    CHRW = "chrw"
    SHIRLEY = "shirley"
    ASYMPTOTIC = "asymptotic"
    PERT6 = "pert6"


@dataclass(frozen=True)
class ShiftResult:
    """Resonance location for one (omega0, A) point by one method.

    The shift is the stored quantity; omega_res = omega0 + shift is
    derived.  Storing omega_res instead would quantize weak-drive shifts
    (~1e-6 omega0) to the ulp of omega0 on the round trip.  iterations
    counts the distinct points at which the method evaluated its function,
    each evaluated once; pert6 and asymptotic evaluate none.  The three
    root-found methods take residual from the value at the root at no cost;
    like the root, it is in units of omega0.
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


# tight scalar tolerances, in units of omega0 like every route body: the
# roots are smooth and cheap, so run the bracketing solver to machine
# width, rel_tol = 1e-14 on every route.  The floquet root in the shift
# variable also stops once |slope| <= _SHIFT_ABS_TOL; without that stop its
# root at a = 1e-3 takes 14 evaluations instead of 6.  The chrw root in
# t = a/z - 2 and the shirley root in the shift scale abs_tol with their
# bracket instead (_relative_tol): at the chrw root t lies between s/2 and
# s, so the relative rule alone gives the shift to 1e-14 relative.  A fixed
# |f| stop would not do: the chrw residual is of order a^2 everywhere on
# the bracket, and |f| <= 1e-18 leaves the shirley shift up to 1.5e-11 off
# (at a = 9.9e-4, of 400 points on [1e-6, 0.1]).
_SHIFT_ABS_TOL = 1e-18
_BRACKET_ABS_SCALE = math.ulp(1.0) ** 2
_FLOQUET_MIN_A = 1e-8
# below this a the weak-drive shift (a/4)^2 is not a normal float, which the
# bracketed routes cannot resolve, so _shift_bracket refuses it
_NORMAL_SHIFT_MIN_A = 4.0 * math.sqrt(sys.float_info.min)
# above this a the chains and residuals of the bracketed routes leave the
# float range: on log scans of [1e100, 1e308] Floquet's first nan falls at
# a = 1.31e147 and CHRW's at 9.7e153, so _shift_bracket refuses a above it
_BRACKETED_MAX_A = 1e145
# a seed closer than this to the bracket bottom is not used: at the Floquet
# floor the seeded bracket would lie within a few decades of the 1e-18 stop
_SEED_MIN_STEP = 1e-14
# the Floquet root's Brent steps read only the slope, so they bisect
# eigenvalue N to this fraction of the pair's gap, not to the last ulp.  The
# root keeps within 7.6e-15 of full bisection on A/omega0 in [0.5, 1e3] and
# 2.9e-12 of pert6 on [1e-3, 1e-2], as full bisection does (1e-6: 5.7e-12)
_CHAIN_ABSTOL_GAP = 1e-7


def _relative_tol(lo: float, hi: float) -> float:
    """abs_tol = eps^2 w min(1, w) for the bracket width w, so that both
    stops, on the bracket and on |f|, scale with a weak drive's root (~ w)
    and residual (~ w^2); below w ~ 1e-146 it is 0, and the relative stop
    alone ends the search."""
    width = abs(hi - lo)
    return _BRACKET_ABS_SCALE * width * min(1.0, width)


def _bracketed_root(
    point: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    abs_tol: float,
    seed: Optional[tuple[tuple[float, float], float]] = None,
) -> tuple[float, float, int]:
    """Root of the residual of point(x) -> (residual, shift) on [lo, hi].

    Returns (shift, |residual|, iterations) at the root.  point is
    memoised, so no point is evaluated twice, the value at the root costs
    nothing, and iterations counts distinct points.  seed, when given, is
    (point(lo), x1): the value at lo and a trial point x1 from one model
    step at lo.  If x1 lies in (lo + _SEED_MIN_STEP, hi), the sign of the
    residual there closes the bracket as [lo, x1] or [x1, hi] before Brent
    starts.
    """
    memo: dict[float, tuple[float, float]] = {}

    def residual(x: float) -> float:
        if x not in memo:
            memo[x] = point(x)
        return memo[x][0]

    if seed is not None:
        memo[lo], x1 = seed
        if lo + _SEED_MIN_STEP < x1 < hi:
            if (residual(x1) > 0.0) == (memo[lo][0] > 0.0):
                lo = x1
            else:
                hi = x1
    root = find_root_bracketed(residual, lo, hi, abs_tol, 1e-14)
    value, shift = memo[root]
    return shift, abs(value), len(memo)


def _shift_route(method: Method):
    """Decorator: the public ShiftResult function of method around a body.

    omega0 and A are taken as Python floats first, so a numpy scalar
    overflows as a float does.  Bad inputs raise ValueError here and A = 0
    is the zero shift.  The body works in units of omega0: it takes
    a = A/omega0 and returns its closed-form shift/omega0 or the
    (shift/omega0, residual, iterations) of _bracketed_root, and the shift
    is multiplied back by omega0 here.  At omega0 = 1 both scalings are
    exact.  An a that overflows to inf or underflows to 0, a float power
    that overflows in the body (pert6 and shirley past a ~ 1e51) or a
    non-finite shift raises DomainError.
    """

    def decorate(body):
        def route(omega0: float, amplitude: float) -> ShiftResult:
            omega0, amplitude = float(omega0), float(amplitude)
            if not (math.isfinite(omega0) and omega0 > 0.0):
                raise ValueError(f"omega0 must be positive and finite, got {omega0}")
            if not (math.isfinite(amplitude) and amplitude >= 0.0):
                raise ValueError(f"amplitude must be non-negative and finite, got {amplitude}")
            if amplitude == 0.0:
                return ShiftResult(method, omega0, amplitude, 0.0, 0.0, 0)
            a = amplitude / omega0
            if not (math.isfinite(a) and a > 0.0):
                raise DomainError(f"A/omega0 = {amplitude:g}/{omega0:g} leaves the float range")
            try:
                found = body(a)
            except OverflowError as exc:
                raise DomainError(f"float overflow at A={amplitude:g}") from exc
            shift, residual, iterations = found if isinstance(found, tuple) else (found, 0.0, 0)
            shift *= omega0
            if not math.isfinite(shift):
                raise DomainError(f"float overflow at A={amplitude:g}: shift {shift}")
            return ShiftResult(method, omega0, amplitude, shift, residual, iterations)

        # the name and docstring of the body, but the signature of route
        route.__name__, route.__qualname__ = body.__name__, body.__qualname__
        route.__doc__ = body.__doc__
        return route

    return decorate


def _shift_bracket(a: float) -> tuple[float, float]:
    # s = omega - 1 runs from just below the strong-drive asymptote (never
    # below the bare resonance) up to a
    if a < _NORMAL_SHIFT_MIN_A:
        raise DomainError(
            f"shift/omega0 ~ (A/4omega0)^2 is not a normal float at A/omega0={a:.3g}"
            f" < {_NORMAL_SHIFT_MIN_A:.4g}"
        )
    if a > _BRACKETED_MAX_A:
        raise DomainError(f"bracketed shift unresolved at A/omega0={a:.3g} > {_BRACKETED_MAX_A:g}")
    return max(0.0, 0.9 * a / first_bessel_j0_zero() - 1.0), a


def _chrw_stationarity(a: float) -> Callable[[float], tuple[float, float]]:
    """Residual of d(Rabi^2)/d omega0 = 0 and the shift s = omega - 1,
    both as functions of t = a/z - 2, in units of omega0.

    z = a xi/omega parametrises the xi fixed point: with 2 J1 = z (J0 + J2)
    it reads omega = a/z - (J0 + J2), so an evaluation needs no xi solve.
    Taking t as the variable leaves z = a/(2 + t), the shift
    s = t - ((J0 - 1) + J2) and the detuning (J0 - 1) - s free of
    subtractive error, so the root is resolved to machine precision even at
    a = 1e-9, where the shift is ~6e-20.  J1 comes from Cephes j1, as in
    the xi equation.  Every point must lie on the fixed point's first-root
    branch, where omega + (J0 - J2) > 0 and omega falls as z grows;
    DomainError otherwise.
    """

    def f(t: float) -> tuple[float, float]:
        z = a / (2.0 + t)
        j0m1 = bessel_j0_minus_1(z)
        j0 = 1.0 + j0m1
        j1 = float(bessel_j1(z))
        j2 = bessel_j(2, z)
        s = t - (j0m1 + j2)
        omega = 1.0 + s
        slope = omega + (j0 - j2)
        if not slope > 0.0:
            raise DomainError(
                f"xi fixed point left its first-root branch at z={z:.6g}, omega={omega:.6g}"
            )
        xi = z * omega / a
        delta = j0m1 - s
        dxi = -2.0 * omega * j1 / (a * slope)
        ddelta = j0 - (a / omega) * j1 * dxi
        return 2.0 * delta * ddelta - 2.0 * a * a * (1.0 - xi) * dxi, s

    return f


@_shift_route(Method.CHRW)
def bs_chrw(a: float) -> tuple[float, float, int]:
    """Resonance from the counter-rotating hybridized rotating frame.

    The stationarity residual changes sign on the shift bracket [s_lo, a]
    itself, taken in t = a/z - 2, so it is one Brent root there: the shift
    s(t) = t + (1 - 2 J1(z)/z) >= t is at or above a at t = a, and the
    root lies at t ~ a^2/32 > 0 = s_lo at weak drive and at least 0.43 %
    of the bracket above s_lo at strong drive (least near a = 7.88).
    """
    lo, hi = _shift_bracket(a)
    return _bracketed_root(_chrw_stationarity(a), lo, hi, _relative_tol(lo, hi))


@_shift_route(Method.PERT6)
def bs_perturbative6(a: float) -> float:
    """Sixth-order weak-drive series for the resonance frequency."""
    x = 0.25 * a
    return x * x + x**4 / 4.0 - 35.0 * x**6 / 32.0


@_shift_route(Method.ASYMPTOTIC)
def bs_asymptotic(a: float) -> float:
    """Strong-drive limit: the resonance tracks the first zero of J0.

    omega_res = A / j01 holds on the strong-drive branch only.  A shift
    <= 0 (A <= j01 omega0) means that branch has not opened yet, not a
    resonance at or below omega0; `bsl shift-table` and `bsl shift-sweep`
    leave such cells blank.
    """
    return a / first_bessel_j0_zero() - 1.0


def _shirley_shift_rhs(a: float, shift: float) -> float:
    """Right-hand side of the crossing condition minus 1, at omega =
    1 + shift, in units of omega0; its fixed point is the shift itself."""
    omega = 1.0 + shift
    a2 = a * a
    s = omega + 1.0
    term2 = omega * a2 / (4.0 * s * s)
    term4 = (2.0 - omega) * a2 * a2 / (64.0 * s**4)
    poly = (
        9.0 * omega**5 - 126.0 * omega**4 + 82.0 * omega**3 + 42.0 * omega**2 - 23.0 * omega - 8.0
    )
    term6 = poly * a2**3 / (256.0 * s**6 * (9.0 * omega * omega - 1.0) ** 2)
    return term2 + term4 + term6


@_shift_route(Method.SHIRLEY)
def bs_shirley_iterative(a: float) -> tuple[float, float, int]:
    """Self-consistent solution of the sixth-order crossing condition.

    The shift s = omega - 1 solves s = rhs(s), the crossing condition of
    _shirley_shift_rhs, so it is one Brent root of rhs(s) - s on the
    shift bracket, seeded by one step of the map, s1 = rhs(s_lo).  The
    map's only pole, at omega = 1/3, lies below the bracket, where
    omega >= 1.  Working in the shift rather than omega keeps a weak
    drive's shift (~a^2/16) off the ulp of 1, and the stop is relative to
    the shift, as for chrw.
    """
    s_lo, s_hi = _shift_bracket(a)

    def defect(shift: float) -> tuple[float, float]:
        return _shirley_shift_rhs(a, shift) - shift, shift

    s1 = _shirley_shift_rhs(a, s_lo)
    seed = (s1 - s_lo, s_lo), s1
    return _bracketed_root(defect, s_lo, s_hi, _relative_tol(s_lo, s_hi), seed)


@_shift_route(Method.FLOQUET)
def bs_floquet_numeric(a: float) -> tuple[float, float, int]:
    """Resonance from the Floquet spectrum: the root of dq/domega0.

    At resonance the resonant quasienergy branch is stationary in omega0.
    Its slope, taken from eigenvector weights on solve_floquet's parity
    chain at omega0 = 1 (floquet._chain), changes sign there, so the shift
    s = omega - 1 is one Brent root of the slope of solve(1 + s, s) on the
    shift bracket, with the truncation frozen at its lower end so the slope
    stays smooth.  Below a = 1e-8 (_FLOQUET_MIN_A) the shift (a/4)^2 nears
    the stop, which returns 0 from 1.8e-9 down, so DomainError is raised
    there.

    The first solve, at the bracket bottom, takes count = 2 and bisects to
    the last ulp, so it also gives the gap E_{N+1} - E_N of the resonant
    pair.  An isolated pair with coupling a/4 and detuning s - s* has slope
    (s - s*)/(2 gap) on its lower branch, so s1 = s - 2 slope gap, its exact
    root, seeds the bracket: about 7 chain solves per shift instead of 9.
    Every later solve reads only the slope, so it bisects eigenvalue N only
    to _CHAIN_ABSTOL_GAP times that gap.  The seed comes from the chain
    alone, not from the methods it judges.
    """
    if a < _FLOQUET_MIN_A:
        raise DomainError(f"Floquet shift unresolved at A/omega0={a:.3g} < {_FLOQUET_MIN_A:g}")
    s_lo, s_hi = _shift_bracket(a)
    solve = _chain(a, default_truncation(a, 1.0 + s_lo))
    w, slope = solve(1.0 + s_lo, s_lo, 2)
    gap = float(w[1] - w[0])
    seed = (slope, s_lo), s_lo - 2.0 * slope * gap
    abstol = _CHAIN_ABSTOL_GAP * gap
    return _bracketed_root(lambda s: (solve(1.0 + s, s, 1, abstol)[1], s), s_lo, s_hi, _SHIFT_ABS_TOL, seed)


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
