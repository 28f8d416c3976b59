"""Probe absorption spectrum of the driven, damped two-level system.

A weak probe reads out the steady state prepared by the strong pump.  To
linear order its absorption is the Fourier transform of a steady-state
two-time commutator, and the regression theorem turns that into the same
dressed Bloch equations that give the populations, now with commutator
initial data and no source term.  The Laplace-domain solution is a trio of
rational functions g_+/g_-/g_z sharing one cubic denominator; the spectrum
sums their real parts over the odd sideband families, the n-th family
centered at n times the pump frequency.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .chrw import ChrwFrame, FrameMode, ModelParams, build_frame
from .dissipative import (
    RateSet,
    SteadyState,
    fourier_coefficients,
    fourier_f,
    rates,
    steady_state,
)
from .errors import GridError, PoleError, ValidityWarning


class Normalization(Enum):
    RAW = "raw"
    PEAK_UNIT = "peak_unit"


@dataclass(frozen=True)
class SpectrumTrace:
    """One absorption trace: S over nu_grid, with the context that made it."""

    nu_grid: np.ndarray
    values: np.ndarray
    params: ModelParams
    mode: FrameMode
    n_max: int
    normalization: Normalization


def chat_coefficients(
    frame: ChrwFrame, params: ModelParams, n: int
) -> Tuple[float, float, float]:
    """Coefficients of the dressed operators in the n-th probe harmonic.

    These are the positive-signature weights of the transformed raising
    operator; the commutator that seeds the response is built from them.
    """
    return fourier_f(frame, params, n, 1)


def initial_conditions(
    frame: ChrwFrame, params: ModelParams, steady: SteadyState, n: int
) -> Tuple[complex, complex, complex]:
    """(x0, y0, z0) seeding the n-th sideband response.

    Encodes the commutator of the n-th harmonic operator with the steady
    state: a saturated steady state (all components zero) gives zero weight
    and the sideband family disappears.
    """
    return _commutator_seed(chat_coefficients(frame, params, n), steady)


def _commutator_seed(
    weights: Tuple[float, float, float], steady: SteadyState
) -> Tuple[complex, complex, complex]:
    f_p, f_m, f_z = weights
    sz = steady.sz_ss
    sp = steady.splus_ss
    sm = steady.sminus_ss
    x0 = f_m * sz - 2.0 * f_z * sp
    y0 = -f_p * sz + 2.0 * f_z * sm
    z0 = 2.0 * f_p * sp - 2.0 * f_m * sm
    return complex(x0), complex(y0), complex(z0)


def response_denominator(rate_set: RateSet, rabi_tilde: float, p: np.ndarray) -> np.ndarray:
    """Cubic characteristic polynomial of the dressed Bloch generator at p."""
    g1 = rate_set.gamma_1
    gm = rate_set.gamma_minus
    gp = rate_set.gamma_plus
    gz = rate_set.gamma_z
    r2 = rabi_tilde * rabi_tilde
    p = np.asarray(p, dtype=np.complex128)
    return (
        p**3
        + p**2 * (gz + 2.0 * gp)
        + p * (r2 - 4.0 * g1 * g1 - gm * gm + gp * gp + 2.0 * gp * gz)
        + 4.0 * g1 * g1 * (gm - gp)
        + (r2 - gm * gm + gp * gp) * gz
    )


def laplace_g(
    rate_set: RateSet,
    rabi_tilde: float,
    init: Tuple[complex, complex, complex],
    p: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Laplace-domain homogeneous Bloch response (g_+, g_-, g_z) at p.

    Closed-form rationals over the shared cubic denominator; vectorized over
    p.  Every pole sits strictly in the left half-plane once kappa > 0, so a
    PoleError can only be tripped by probing an undamped system exactly on
    its free-precession pole.
    """
    x0, y0, z0 = init
    g1 = rate_set.gamma_1
    gm = rate_set.gamma_minus
    gp = rate_set.gamma_plus
    gz = rate_set.gamma_z
    p = np.asarray(p, dtype=np.complex128)
    denom = response_denominator(rate_set, rabi_tilde, p)
    rate_scale = abs(g1) + abs(gm) + abs(gp) + abs(gz)
    scale = (np.abs(p) + abs(rabi_tilde) + rate_scale) ** 3
    bad = np.abs(denom) < 1e-14 * scale
    if np.any(bad):
        where = p[bad].ravel()[0] if np.ndim(p) else p
        raise PoleError(f"response denominator vanishes at p = {where}")
    iw = 1j * rabi_tilde
    num_plus = (
        x0 * ((p + gp + iw) * (p + gz) - 2.0 * g1 * g1)
        + y0 * (2.0 * g1 * g1 - gm * (p + gz))
        - g1 * z0 * (p + iw - gm + gp)
    )
    num_minus = (
        y0 * ((p + gp - iw) * (p + gz) - 2.0 * g1 * g1)
        + x0 * (2.0 * g1 * g1 - gm * (p + gz))
        - g1 * z0 * (p - iw - gm + gp)
    )
    num_z = (
        z0 * ((p + gp) ** 2 + rabi_tilde * rabi_tilde - gm * gm)
        - 2.0 * g1 * x0 * (p + iw - gm + gp)
        - 2.0 * g1 * y0 * (p - iw - gm + gp)
    )
    return num_plus / denom, num_minus / denom, num_z / denom


def default_sideband_count(nu_max: float, omega: float, l_max: int) -> int:
    """Smallest odd harmonic count whose families cover frequencies up to nu_max."""
    need = nu_max / omega + 1.0
    n = max(1, math.ceil(need))
    if n % 2 == 0:
        n += 1
    return min(n, l_max)


def spectrum(
    params: ModelParams,
    nu_grid: np.ndarray,
    mode: FrameMode = FrameMode.CHRW,
    n_max: Optional[int] = None,
    normalization: Normalization = Normalization.PEAK_UNIT,
) -> SpectrumTrace:
    """Absorption trace S over nu_grid for a pump at params.omega.

    Sums the odd sideband families n = 1, 3, ... n_max, each evaluated at
    p = -i(nu - n*omega).  Only positive probe frequencies are meaningful
    here; the counter-propagating terms matter only for nu < 0 and are not
    summed.  PEAK_UNIT scales the largest magnitude to one, since the
    overall response is defined up to the probe strength anyway.
    """
    if params.kappa <= 0.0:
        raise ValueError("spectrum needs kappa > 0; undamped response has no linewidth")
    nu = np.asarray(nu_grid, dtype=float)
    if nu.ndim != 1 or nu.size == 0:
        raise ValueError("nu_grid must be a non-empty 1-d array")
    if np.min(nu) <= 0.0:
        raise ValueError("nu_grid must be strictly positive")
    frame = build_frame(params, mode=mode)
    if frame.rabi_tilde < 10.0 * params.kappa:
        warnings.warn(
            f"dressed splitting {frame.rabi_tilde:.3g} is not large against "
            f"kappa = {params.kappa:.3g}; the sideband decomposition degrades here",
            ValidityWarning,
            stacklevel=2,
        )
    table = fourier_coefficients(frame, params)
    if n_max is None:
        n_max = default_sideband_count(float(np.max(nu)), params.omega, table.max_order)
    else:
        if n_max < 1 or n_max % 2 == 0:
            raise ValueError(f"n_max must be positive odd, got {n_max}")
        n_max = min(n_max, table.max_order)
    if np.max(nu) > (n_max + 2) * params.omega:
        raise ValueError(
            f"nu_grid extends to {np.max(nu):.4g}, beyond the coverage "
            f"(n_max + 2) * omega = {(n_max + 2) * params.omega:.4g}"
        )
    rate_set = rates(frame, params)
    steady = steady_state(rate_set, frame.rabi_tilde)
    values = np.zeros_like(nu)
    for k, n in enumerate(range(1, n_max + 1, 2)):
        # positive-signature weights of harmonic n, as chat_coefficients gives them
        f_p, f_m, f_z = table.f_plus[0, k], table.f_minus[0, k], table.f_z[0, k]
        init = _commutator_seed((f_p, f_m, f_z), steady)
        p = -1j * (nu - n * params.omega)
        g_plus, g_minus, g_z = laplace_g(rate_set, frame.rabi_tilde, init, p)
        values += 0.25 * np.real(f_p * g_minus + f_m * g_plus + f_z * g_z)
    if normalization is Normalization.PEAK_UNIT:
        peak = float(np.max(np.abs(values)))
        if peak > 0.0:
            values = values / peak
    return SpectrumTrace(
        nu_grid=nu,
        values=values,
        params=params,
        mode=mode,
        n_max=n_max,
        normalization=normalization,
    )


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
    h = float(np.mean(steps))
    if h <= 0.0 or np.max(np.abs(steps - h)) > 1e-9 * h:
        raise GridError("nu_grid must be uniformly spaced")
    idx_center = int(np.argmin(np.abs(nu - center)))
    if abs(nu[idx_center] - center) > 1e-9 * h:
        raise GridError(f"center {center} is not a grid point")
    frame = build_frame(trace.params, mode=trace.mode)
    lo = 0.5 * frame.rabi_tilde
    hi = 1.5 * frame.rabi_tilde
    k_lo = math.ceil(lo / h - 1e-12)
    k_hi = math.floor(hi / h + 1e-12)
    if k_hi <= k_lo:
        raise GridError(
            f"grid step {h:.3g} cannot resolve the sideband window [{lo:.3g}, {hi:.3g}]"
        )
    if idx_center - k_hi < 0 or idx_center + k_hi >= nu.size:
        raise GridError("sideband window falls off the edge of nu_grid")
    k = np.arange(k_lo, k_hi + 1)
    upper = s[idx_center + k]
    lower = s[idx_center - k]
    num = np.trapezoid(np.abs(upper - lower), dx=h)
    den = np.trapezoid(np.abs(upper) + np.abs(lower), dx=h)
    if den <= 0.0:
        return 0.0
    return float(num / den)
