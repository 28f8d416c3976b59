"""Counter-rotating hybridized rotating wave (CHRW) frame for the driven
two-level system H(t) = (omega0/2) sigma_z + (A/2) cos(omega t) sigma_x.

A unitary exp(S) with S = i (A/2 omega) xi sin(omega t) sigma_x, followed by
the rotation exp(i omega t sigma_z / 2), maps the model onto a static
Hamiltonian (delta_tilde/2) sigma_z + (a_tilde/4) sigma_x once xi solves the
fixed point

    omega0 * J1(A xi / omega) = (A/2) (1 - xi).

xi = 0 recovers the plain rotating wave approximation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j1

from .errors import DomainError, NoSignChangeError
from .numerics import bessel_j0_minus_1, find_root_bracketed

__all__ = ["ChrwFrame", "FrameMode", "ModelParams", "build_frame", "solve_xi",
    "xi_fixed_point_residual"]


class FrameMode(enum.Enum):
    CHRW = "chrw"
    RWA = "rwa"


@dataclass(frozen=True)
class ModelParams:
    """Model inputs in units of omega0 (any consistent unit system works).

    Every output in units of omega0 (shifts, frames, populations, spectra,
    quasienergies) stays within 1.2e-13 relative of its value at omega0 = 1
    for omega0 from 1e-12 to 1e15; the five shift routes do so within
    1.4e-14 at 1e-200 and 1e200 as well, and at A = 6 omega0 from 1e-300
    to 1e300 (tests/test_scale_invariance.py).

    omega0: level splitting, > 0
    amplitude: drive amplitude A, >= 0
    omega: drive frequency, > 0
    kappa: bare decay rate of the excited state, >= 0
    """

    omega0: float
    amplitude: float
    omega: float
    kappa: float = 0.0

    def __post_init__(self):
        for name in ("omega0", "amplitude", "omega", "kappa"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.omega0 <= 0.0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")
        if self.omega <= 0.0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")


@dataclass(frozen=True)
class ChrwFrame:
    """Static transformed-frame quantities.

    z = A xi/omega is the argument of every Bessel factor of the frame (0
    in the RWA and at A = 0), delta_tilde = omega0 J0(z) - omega, a_tilde =
    2A(1-xi) and rabi_tilde = sqrt(delta_tilde^2 + a_tilde^2/4).  The
    dressing angle theta in [0, pi/2], tan(theta) = (rabi_tilde -
    delta_tilde)/(a_tilde/2), is held as cos_2theta = delta_tilde/rabi_tilde
    and sin_2theta = (a_tilde/2)/rabi_tilde; at rabi_tilde = 0 they are
    (0, 1), the resonant limit theta = pi/4.
    """

    xi: float
    z: float
    a_tilde: float
    delta_tilde: float
    rabi_tilde: float
    cos_2theta: float
    sin_2theta: float
    mode: FrameMode


def xi_fixed_point_residual(params: ModelParams, xi):
    """Residual J1(A xi/omega) - (A/2 omega0)(1 - xi) of the xi equation,
    in units of omega0, so that solve_xi's stop |f| <= abs_tol does not
    depend on the unit of frequency.  Elementwise: xi may be a number or
    an array, and each array value is bitwise the number's."""
    a = params.amplitude
    return j1(a * xi / params.omega) - 0.5 * (a / params.omega0) * (1.0 - xi)


# grid samples solve_xi takes one by one before it scans the rest as an array
_SCALAR_SAMPLES = 24
# just above max |J1(x)| = 0.5818652..., reached at x = 1.8412
_J1_MAX = 0.58187
# Landau's bound |J_nu(x)| <= _LANDAU x^(-1/3) for nu > 0, x > 0
# (J. London Math. Soc. 61 (2000) 197)
_LANDAU = 0.7857468704
# solve_xi refuses a grid finer than float64 counts exactly, and an array
# scan longer than this many samples (128 MB of float64)
_MAX_GRID = 2.0**53
_MAX_TAIL = 2**24


def solve_xi(params: ModelParams) -> float:
    """Solve the CHRW fixed point for xi on [0, 1].

    Returns the smallest root, which continues the weak-drive solution
    xi = omega/(omega + omega0); at A = 0, where every xi solves the
    equation, it returns that limit.

    Raises
    ------
    NoSignChangeError
        if no root can be bracketed inside [0, 1].
    DomainError
        if the grid or its array scan is too large (A/omega past 1e15, or
        a small omega at moderate A).
    """
    a, w, w0 = params.amplitude, params.omega, params.omega0
    if a == 0.0:
        return w / (w + w0)

    # J1(A xi / omega) oscillates in xi with period 2*pi*omega/A; sample it
    # on the grid np.linspace(0, 1, n + 1), k*(1/n) with the last point 1.0,
    # well enough that the first upward crossing cannot be stepped over.
    # The residual starts at -A/2 omega0, so the first non-negative sample
    # closes the bracket.  No root lies below xi* = omega/(omega + omega0):
    # there |J1(x)| <= x/2 bounds the residual by (A/2 omega0)(xi/xi* - 1)
    # < 0.  Nor below 1 - 2 max|J1| omega0/A, where the line alone outweighs J1;
    # past A = 2 max|J1| (omega + omega0) that bound is the higher.  The scan
    # starts one step below floor(n * bound) for the larger bound, a margin
    # of order A/n.  The array scan evaluates the same residual, so an array
    # sample is bitwise the scalar one, and the residual's memo hands both
    # bracket-end values to the polish
    span = 8.0 * a / w
    if not span < _MAX_GRID:
        raise DomainError(f"xi grid of 8 A/omega = {span:.3g} steps is too fine at A={a}, omega={w}")
    n = max(128, int(span) + 128)
    step = 1.0 / n

    memo: dict[float, float] = {}

    def residual(xi: float) -> float:
        if xi not in memo:
            memo[xi] = float(xi_fixed_point_residual(params, xi))
        return memo[xi]

    # the crossing is usually a few steps above the start: walk the first
    # samples one by one, then scan the rest of the grid, which ends at 1.0,
    # as one array; each sample is evaluated once.  A root lies above lower,
    # so its J1 argument is at least x = A lower/omega; where Landau's bound
    # _LANDAU x^(-1/3) is below max|J1|, it puts the root above
    # 1 - 2 _LANDAU (omega0/A) x^(-1/3) too, and the walk starts one step
    # below that.  The array scan and its size check keep head
    lower = max(w / (w + w0), 1.0 - 2.0 * _J1_MAX * w0 / a)
    i = max(int(n * lower) - 1, 1)
    head = min(i + _SCALAR_SAMPLES, n)
    x = a * lower / w
    if x > (_LANDAU / _J1_MAX) ** 3:
        landau = 1.0 - 2.0 * _LANDAU * (w0 / a) / x ** (1.0 / 3.0)
        i = min(max(i, int(n * landau) - 1), head - 1)
    r = residual(i * step)
    while r < 0.0 and i + 1 < head:
        i += 1
        r = residual(i * step)
    if r < 0.0:
        if n + 1 - head > _MAX_TAIL:
            raise DomainError(
                f"xi scan of {n + 1 - head} samples exceeds {_MAX_TAIL} at A={a}, omega={w}"
            )
        tail = np.arange(head, n + 1) * step
        tail[-1] = 1.0
        values = xi_fixed_point_residual(params, tail)
        j = int(np.argmax(values >= 0.0))
        if values[j] < 0.0:
            raise NoSignChangeError(
                f"xi fixed point not bracketed in [0, 1] for A={a}, omega={w} (residual stays negative)"
            )
        # the sample below the crossing is the walk's last when j = 0
        ends = slice(max(j - 1, 0), j + 1)
        memo.update(zip(tail[ends].tolist(), values[ends].tolist()))
        i = head + j
    hi = i * step if i < n else 1.0
    # the Brent polish runs to abs_tol = rel_tol = 1e-12; it returns hi
    # itself where the sample there is an exact root
    return find_root_bracketed(residual, (i - 1) * step, hi, 1e-12, 1e-12)


def build_frame(params: ModelParams, mode: FrameMode = FrameMode.CHRW) -> ChrwFrame:
    """Construct the static transformed frame in the requested mode.

    CHRW solves the xi fixed point (at A = 0 solve_xi gives the analytic
    limit xi = omega/(omega+omega0), and z = a_tilde = 0); RWA pins xi = 0
    so that delta_tilde = omega0 - omega and a_tilde = A.
    """
    w0, a, w = params.omega0, params.amplitude, params.omega
    # the RWA values, which the CHRW frame replaces
    xi = z = 0.0
    delta = w0 - w
    a_tilde = a
    if mode is FrameMode.CHRW:
        xi = solve_xi(params)
        z = a * xi / w
        # J0(z)*omega0 - omega, with the J0-1 series keeping the near-
        # resonant cancellation at full precision
        delta = bessel_j0_minus_1(z) * w0 + (w0 - w)
        a_tilde = 2.0 * a * (1.0 - xi)
    half_a = 0.5 * a_tilde
    rabi = math.hypot(delta, half_a)
    cos_2t, sin_2t = (delta / rabi, half_a / rabi) if rabi > 0.0 else (0.0, 1.0)
    return ChrwFrame(
        xi=xi, z=z, a_tilde=a_tilde, delta_tilde=delta, rabi_tilde=rabi,
        cos_2theta=cos_2t, sin_2theta=sin_2t, mode=mode,
    )

