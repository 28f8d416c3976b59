"""Bessel functions and bracketed scalar solvers.

Every J_n in the package comes from scipy.special, through bessel_j and
bessel_j_sequence here (bessel_j below 2**-26 excepted) or through
scipy.special.jv over an array.  Four places take J_0 and J_1 from the
Cephes scipy.special.j0 and j1 instead, an order of magnitude cheaper than
the AMOS jv for one argument: the CHRW xi equation in chrw, whose grid
scan and residual both use j1 so the two agree on every sign, the chrw
stationarity residual in resonance, the closed-form rates in dissipative,
and bessel_j0_minus_1, the one value scipy does not offer, whose series
keeps J_0 - 1 free of cancellation below 1.  The root finder is a plain
Brent's method: scipy.optimize would do the same work but costs a
noticeable import on every start-up.  Both bracketed solvers take their
stop rules as two floats, abs_tol and rel_tol, and share one iteration cap.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import j0, jn_zeros, jv

from .errors import ConvergenceError, DomainError, NoSignChangeError

__all__ = ["bessel_j", "bessel_j0_minus_1", "bessel_j_sequence", "find_root_bracketed",
    "first_bessel_j0_zero"]

_EPS = float(np.finfo(float).eps)
_MAX_ITER = 300  # iteration cap of both bracketed solvers; no package solve nears it


def bessel_j_sequence(n_max: int, x: float) -> np.ndarray:
    """Return ``array([J_0(x), ..., J_{n_max}(x)])`` in one pass; n_max
    must be integral, as bessel_j's order, and is taken as an int."""
    if not float(n_max).is_integer() or n_max < 0:
        raise DomainError(f"order must be a nonnegative integer, got {n_max}")
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x}")
    return jv(np.arange(int(n_max) + 1), x)


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x) for integral n >= 0, taken
    as an int (2.0 is order 2; 2.5, nan and inf raise DomainError).

    Below |x| = 2**-26, where AMOS jv(2, x) falls to 0 under 1.77e-152,
    the series' leading term (x/2)^n / n! is exact to rounding."""
    if not float(n).is_integer() or n < 0:
        raise DomainError(f"order must be a nonnegative integer, got {n}")
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x}")
    if abs(x) < 2.0**-26:
        return (0.5 * x) ** int(n) / math.factorial(int(n))
    return float(jv(int(n), x))


def bessel_j0_minus_1(x: float) -> float:
    """J_0(x) - 1 without cancellation for small |x|.

    The renormalized detuning subtracts quantities that agree to O(x^2);
    evaluating J0 - 1 by its own series keeps the difference accurate to
    machine precision relative to itself rather than to 1.  J0 is Cephes
    j0 (a rational form) on 1 <= |x| <= 5 and AMOS jv above, where Cephes'
    asymptotic form drifts to 4.1e-14 by 1e6 and jv stays within 2e-17.
    """
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x}")
    ax = abs(x)
    if ax >= 1.0:
        return (float(j0(ax)) if ax <= 5.0 else bessel_j(0, ax)) - 1.0
    q = 0.25 * ax * ax
    term = total = -q
    for k in range(1, 60):
        term *= -q / ((k + 1.0) * (k + 1.0))
        total += term
        if abs(term) <= 1e-18 * abs(total):
            break
    return total


@lru_cache(maxsize=1)
def first_bessel_j0_zero() -> float:
    """Smallest positive zero of J_0."""
    return float(jn_zeros(0, 1)[0])


def find_root_bracketed(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float,
    rel_tol: float,
) -> float:
    """Brent's method on a sign-changing bracket [a, b].

    Combines inverse quadratic interpolation and secant steps with a
    bisection fallback, so convergence is guaranteed for any continuous f
    with f(a)*f(b) <= 0.  Stops once |f| <= abs_tol or the bracket is no
    wider than rel_tol*|x| + abs_tol + 4 eps|x|; abs_tol may be 0, rel_tol
    must be positive, both finite (ValueError otherwise).  f is called
    once at each end first; a caller that already holds those values
    memoises f.
    """
    if not (0.0 <= abs_tol < math.inf and 0.0 < rel_tol < math.inf):
        raise ValueError(f"need finite abs_tol >= 0 and rel_tol > 0, got {abs_tol}, {rel_tol}")
    fa, fb = f(a), f(b)
    if not (math.isfinite(fa) and math.isfinite(fb)):
        raise DomainError(f"f is not finite at the bracket endpoints: f({a})={fa}, f({b})={fb}")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoSignChangeError(f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}")

    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_ITER):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * (rel_tol * abs(b) + abs_tol)
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0 or abs(fb) <= abs_tol:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                # secant step
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                # inverse quadratic interpolation
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += tol1 if xm > 0.0 else -tol1
        fb = f(b)
        if not math.isfinite(fb):
            raise DomainError(f"f returned a non-finite value at {b}")
    raise ConvergenceError(f"root search did not converge in {_MAX_ITER} iterations")


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_scalar_bracketed(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float,
    rel_tol: float,
) -> float:
    """Golden-section minimum of f on [a, b].

    Assumes f is unimodal on the bracket; used where a derivative has no
    clean sign change and only the minimum position is meaningful.  Stops
    once the bracket is no wider than rel_tol*|midpoint| + abs_tol.
    """
    if not (b > a):
        raise DomainError(f"invalid bracket [{a}, {b}]")
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    if not (math.isfinite(f1) and math.isfinite(f2)):
        raise DomainError("f is not finite inside the bracket")
    for _ in range(_MAX_ITER):
        mid = 0.5 * (a + b)
        if (b - a) <= rel_tol * abs(mid) + abs_tol:
            return mid
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    raise ConvergenceError(f"minimization did not converge in {_MAX_ITER} iterations")
