"""Probe absorption spectrum of the driven, damped two-level system.

A weak probe reads out the steady state prepared by the strong pump.  To
linear order its absorption is the Fourier transform of a steady-state
two-time commutator, and the regression theorem turns that into the same
dressed Bloch equations that give the populations, now with commutator
initial data and no source term.  The Laplace-domain solution is a trio of
rational functions g_+/g_-/g_z sharing one cubic denominator, their
coefficients read off the adjugate of the dressed generator; the spectrum
sums their weighted real parts over the odd sideband families, the n-th
family centered at n times the pump frequency, up to the cap that
dissipative's truncation routine puts on them; the same call returns the
Bessel values their weights read.  Each family's weights are
applied to the numerator coefficients first, so a trace evaluates one
rational per family.  Its probe points sit on the imaginary axis, p = iw,
where the real cubic splits into (c0 - c2 w^2) + i w (c1 - w^2) and the
numerator into two real quadratics in w: a trace is evaluated in real
arithmetic, in place in a fixed set of buffers.  laplace_g evaluates the
same rationals at general complex p and is the trace's reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .chrw import ChrwFrame, FrameMode, ModelParams, build_frame
from .dissipative import (
    SECULAR_RATIO,
    RateSet,
    SteadyState,
    _harmonic_weights,
    _truncation_rule,
    bloch_generator,
    fourier_f,
    rates,
    steady_state,
)
from .errors import GridError, PoleError, ValidityWarning

__all__ = ["SpectrumTrace", "asymmetry_metric", "default_probe_grid", "default_sideband_count",
    "initial_conditions", "spectrum"]


@dataclass(frozen=True)
class SpectrumTrace:
    """One absorption trace: S over nu_grid, with the dressed splitting
    rabi_tilde of the frame it was built in (asymmetry_metric's window) and
    the sideband cap n_max it was summed to.
    """

    nu_grid: np.ndarray
    values: np.ndarray
    rabi_tilde: float
    n_max: int


def initial_conditions(frame: ChrwFrame, steady: SteadyState, n: int) -> Tuple[complex, complex, complex]:
    """(x0, y0, z0) seeding the n-th sideband response of frame in its
    steady state.

    Encodes the commutator of the n-th harmonic operator with the steady
    state: a saturated steady state (all components zero) gives zero weight
    and the sideband family disappears.  The harmonic's weights are the
    positive-signature ones of the transformed raising operator.
    """
    return tuple(complex(v) for v in _commutator_seed(fourier_f(frame, n), steady))


def _commutator_seed(weights: Tuple, steady: SteadyState) -> Tuple:
    # elementwise, so each weight may be an array over sideband families
    f_p, f_m, f_z = weights
    sz = steady.sz_ss
    sp = steady.splus_ss
    sm = steady.sminus_ss
    x0 = f_m * sz - 2.0 * f_z * sp
    y0 = -f_p * sz + 2.0 * f_z * sm
    z0 = 2.0 * f_p * sp - 2.0 * f_m * sm
    return x0, y0, z0


# cyclic index pairs: the (i, j) cofactor of a 3x3 matrix B, sign
# included, is B[r_i, r_j] B[s_i, s_j] - B[r_i, s_j] B[s_i, r_j]
_RS = ((1, 2), (2, 0), (0, 1))


def _matvec(m, y) -> Tuple:
    return tuple(r0 * y[0] + r1 * y[1] + r2 * y[2] for r0, r1, r2 in m)


def _response_coefficients(rate_set: RateSet, rabi_tilde: float, *seeds: Tuple) -> Tuple:
    """Coefficients of the response rationals, highest power of p first.

    (g_+, g_-, g_z) = adj(p - M) y0 / det(p - M) for the dressed Bloch
    generator M.  With B = -M, det(p + B) = p^3 + tr B p^2 + tr adj B p +
    det B and adj(p + B) = p^2 + (tr B - B) p + adj B, with adj B taken
    from its 2x2 cofactors: every coefficient is a sum of 2x2 minors, and
    none cancels the dressed splitting against itself.  Each seed is one
    y0 triple; returns the four denominator coefficients as an array and,
    per seed, the numerators indexed [power][component].  The 3x3 algebra
    runs on Python scalars: at this size numpy's per-call cost is all
    there is.
    """
    b = (-bloch_generator(rate_set, rabi_tilde)[0]).tolist()
    adj = [[b[rj][ri] * b[sj][si] - b[rj][si] * b[sj][ri] for rj, sj in _RS] for ri, si in _RS]
    trace = b[0][0] + b[1][1] + b[2][2]
    det = b[0][0] * adj[0][0] + b[0][1] * adj[1][0] + b[0][2] * adj[2][0]
    den = np.array([1.0, trace, adj[0][0] + adj[1][1] + adj[2][2], det])
    nums = []
    for y0 in seeds:
        b_y0 = _matvec(b, y0)
        nums.append((y0, tuple(trace * y - by for y, by in zip(y0, b_y0)), _matvec(adj, y0)))
    return den, nums


def _horner(coeffs: np.ndarray, p: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # in place: on long probe grids fresh temporaries cost more than the arithmetic
    acc = np.multiply(coeffs[0], p, out=out)
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= p
        acc += c
    return acc


def _pole_bound(rate_set: RateSet, rabi_tilde: float, p_abs):
    """Where |det(p - M)| falls below 1e-14 (|p| + scale)^3, p counts as a pole.

    The scale is the dressed splitting plus the rates; p_abs is |p|, a number
    or an array.  Every pole sits strictly in the left half-plane once
    kappa > 0, so only an undamped system probed exactly on its
    free-precession pole can fall below the bound.
    """
    scale = (
        abs(rabi_tilde)
        + abs(rate_set.gamma_1)
        + abs(rate_set.gamma_minus)
        + abs(rate_set.gamma_plus)
        + abs(rate_set.gamma_z)
    )
    # cube by multiplication: an array ** 3 goes through pow() point by point
    base = p_abs + scale
    return base * (base * base) * 1e-14


def _check_axis_poles(
    d2: np.ndarray, w: np.ndarray, w_far: float, rate_set: RateSet, rabi_tilde: float
) -> None:
    """PoleError where |D(iw)|^2 = d2 falls below the squared pole bound.

    The bound grows with |w|, so one min against its value at w_far, the
    largest |w| on the grid, clears every point; only if that fails is the
    bound taken point by point.
    """
    if d2.min() >= _pole_bound(rate_set, rabi_tilde, w_far) ** 2:
        return
    bad = d2 < _pole_bound(rate_set, rabi_tilde, np.abs(w)) ** 2
    if np.any(bad):
        raise PoleError(f"response denominator vanishes at p = {complex(0.0, w[bad][0])}")


def laplace_g(
    rate_set: RateSet,
    rabi_tilde: float,
    init: Tuple[complex, complex, complex],
    p: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Laplace-domain homogeneous Bloch response (g_+, g_-, g_z) at p.

    Three quadratics over the shared cubic denominator, each evaluated by
    Horner's rule in complex arithmetic; vectorized over p.  Raises
    PoleError only for an undamped system probed exactly on its
    free-precession pole.
    """
    p = np.asarray(p, dtype=np.complex128)
    den, (num,) = _response_coefficients(rate_set, rabi_tilde, init)
    denom = _horner(den, p)
    bad = np.abs(denom) < _pole_bound(rate_set, rabi_tilde, np.abs(p))
    if np.any(bad):
        raise PoleError(f"response denominator vanishes at p = {p[bad][0]}")
    g_plus, g_minus, g_z = (_horner(row, p) / denom for row in zip(*num))
    return g_plus, g_minus, g_z


def default_sideband_count(nu_max: float, omega: float) -> int:
    """Smallest odd harmonic count whose families cover frequencies up to
    nu_max; spectrum caps it by truncation_order's rule."""
    need = nu_max / omega + 1.0
    n = max(1, math.ceil(need))
    if n % 2 == 0:
        n += 1
    return n


def default_probe_grid(pump: float, rabi_tilde: float, n_points: int) -> np.ndarray:
    """Probe grid of n_points over pump +- 2.2 dressed splittings.

    Past a splitting of pump/2.2 the window is narrowed so that its lowest
    point stays at nu = pump/n_points > 0, where spectrum is defined.  A
    zero splitting gives an empty window: every point sits at the pump.
    n_points < 1 raises ValueError.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    half = min(2.2 * rabi_tilde, pump * (n_points - 1) / n_points)
    return np.linspace(pump - half, pump + half, n_points)


def spectrum(
    params: ModelParams,
    nu_grid: np.ndarray,
    mode: FrameMode = FrameMode.CHRW,
    n_max: Optional[int] = None,
) -> SpectrumTrace:
    """Absorption trace S over nu_grid for a pump at params.omega.

    Sums the odd sideband families n = 1, 3, ... n_max, each evaluated at
    p = iw with w = n*omega - nu, in real arithmetic: 0.25 Re(N/D) as
    (Re N Re D + Im N Im D) / |D|^2.  n_max, a positive odd integer (3.0
    is taken as 3), is capped by truncation_order's rule.  Only positive
    probe frequencies are meaningful here; the counter-propagating terms
    matter only for nu < 0 and are not summed.
    The largest magnitude is scaled to one, since the overall response is
    defined up to the probe strength anyway.
    """
    if params.kappa <= 0.0:
        raise ValueError("spectrum needs kappa > 0; undamped response has no linewidth")
    nu = np.asarray(nu_grid, dtype=float)
    if nu.ndim != 1 or nu.size == 0:
        raise ValueError("nu_grid must be a non-empty 1-d array")
    nu_lo, nu_hi = float(nu.min()), float(nu.max())
    # a NaN anywhere reaches both extremes
    if not (math.isfinite(nu_lo) and math.isfinite(nu_hi)):
        raise ValueError("nu_grid must be finite")
    if nu_lo <= 0.0:
        raise ValueError("nu_grid must be strictly positive")
    frame = build_frame(params, mode=mode)
    if frame.rabi_tilde < SECULAR_RATIO * params.kappa:
        warnings.warn(
            f"dressed splitting {frame.rabi_tilde:.3g} is not large against "
            f"kappa = {params.kappa:.3g}; the sideband decomposition degrades here",
            ValidityWarning,
            stacklevel=2,
        )
    if n_max is None:
        n_max = default_sideband_count(nu_hi, params.omega)
    elif not float(n_max).is_integer() or n_max < 1 or n_max % 2 == 0:
        raise ValueError(f"n_max must be a positive odd integer, got {n_max}")
    n_max, j = _truncation_rule(frame.z, int(n_max))
    if nu_hi > (n_max + 2) * params.omega:
        raise ValueError(
            f"nu_grid extends to {nu_hi:.4g}, beyond the coverage "
            f"(n_max + 2) * omega = {(n_max + 2) * params.omega:.4g}"
        )
    rate_set = rates(frame, params)
    steady = steady_state(rate_set, frame.rabi_tilde)
    # positive-signature weights of the summed harmonics, as initial_conditions takes them
    harmonics = range(1, n_max + 1, 2)
    j = j.tolist()
    weights = [_harmonic_weights(frame, n, j, 1.0) for n in harmonics]
    den, nums = _response_coefficients(
        rate_set, frame.rabi_tilde, *(_commutator_seed(f, steady) for f in weights)
    )
    # the rates are real, so det(p - M) has real coefficients up to rounding
    c2, c1, c0 = den.real[1:]
    values = np.empty_like(nu)
    w, re_d, im_d, d2, acc = np.empty((5, nu.size))
    for n, (f_p, f_m, f_z), num in zip(harmonics, weights, nums):
        # f_p g_- + f_m g_+ + f_z g_z is one rational per family: contract the
        # numerators first, with the trace's factor 1/4 folded in
        a0, a1, a2 = (0.25 * (f_m * gp + f_p * gm + f_z * gz) for gp, gm, gz in num)
        # the first family writes the trace itself, the others add to it
        out = acc if n > 1 else values
        # p = i w; D(iw) = (c0 - c2 w^2) + i w (c1 - w^2), kept factored:
        # c1 - w^2 is where the dressed lines cancel
        np.subtract(n * params.omega, nu, out=w)
        np.multiply(w, w, out=im_d)
        np.multiply(im_d, -c2, out=re_d)
        re_d += c0
        np.subtract(c1, im_d, out=im_d)
        im_d *= w
        np.multiply(re_d, re_d, out=d2)
        np.multiply(im_d, im_d, out=out)
        d2 += out
        w_far = max(abs(n * params.omega - nu_lo), abs(n * params.omega - nu_hi))
        _check_axis_poles(d2, w, w_far, rate_set, frame.rabi_tilde)
        # N(iw) = (a2 - a0 w^2) + i a1 w, so Re N and Im N are real quadratics
        # in w, and Re(N/D) = (Re N Re D + Im N Im D) / |D|^2
        _horner((-a0.real, -a1.imag, a2.real), w, out=out)
        out *= re_d
        _horner((-a0.imag, a1.real, a2.imag), w, out=re_d)
        re_d *= im_d
        out += re_d
        out /= d2
        if out is acc:
            values += acc
    peak = max(float(values.max()), -float(values.min()))
    if peak > 0.0:
        values /= peak
    return SpectrumTrace(nu_grid=nu, values=values, rabi_tilde=frame.rabi_tilde, n_max=n_max)


def asymmetry_metric(trace: SpectrumTrace, center: float) -> float:
    """Mirror asymmetry of a trace about center, over the sideband window.

    Integrates |S(center+d) - S(center-d)| against |S(center+d)| + |S(center-d)|
    for offsets d between half and one-and-a-half dressed splittings: the
    band where the sidebands live, excluding the central feature.  Zero for
    a perfectly mirror-symmetric trace, one for a single-sided one, and
    never outside [0, 1], also where S changes sign.
    """
    nu = np.asarray(trace.nu_grid, dtype=float)
    s = np.asarray(trace.values, dtype=float)
    if nu.size < 5:
        raise GridError("grid too short to window the sidebands")
    steps = np.diff(nu)
    h = float(nu[-1] - nu[0]) / (nu.size - 1)
    # a grid point is rounded to within an ulp of the largest |nu|, at an
    # end of a uniform grid, which outweighs 1e-9 h on a fine grid: allow a
    # few of those ulp as well
    tol = 1e-9 * h + 4.0 * math.ulp(max(abs(float(nu[0])), abs(float(nu[-1]))))
    if h <= 0.0 or steps.max() - h > tol or h - steps.min() > tol:
        raise GridError("nu_grid must be uniformly spaced")
    offset = (center - nu[0]) / h
    idx_center = round(offset) if math.isfinite(offset) else -1
    if not 0 <= idx_center < nu.size or abs(nu[idx_center] - center) > tol:
        raise GridError(f"center {center} is not a grid point")
    lo = 0.5 * trace.rabi_tilde
    hi = 1.5 * trace.rabi_tilde
    k_lo = math.ceil(lo / h - 1e-12)
    k_hi = math.floor(hi / h + 1e-12)
    if k_hi <= k_lo:
        raise GridError(
            f"grid step {h:.3g} cannot resolve the sideband window [{lo:.3g}, {hi:.3g}]"
        )
    if idx_center - k_hi < 0 or idx_center + k_hi >= nu.size:
        raise GridError("sideband window falls off the edge of nu_grid")
    upper = s[idx_center + k_lo : idx_center + k_hi + 1]
    lower = s[idx_center - k_hi : idx_center - k_lo + 1][::-1]
    # trapezoid sums, the end points at half weight; the step cancels
    gap = np.abs(upper - lower)
    num = float(gap.sum()) - 0.5 * float(gap[0] + gap[-1])
    mass = np.abs(upper)
    mass += np.abs(lower)
    den = float(mass.sum()) - 0.5 * float(mass[0] + mass[-1])
    if den <= 0.0:
        return 0.0
    return num / den
