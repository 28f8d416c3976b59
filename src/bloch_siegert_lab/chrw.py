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

from .errors import DegenerateInputError, NoSignChangeError
from .numerics import DEFAULT_TOL, Tolerance, bessel_j0_minus_1, find_root_bracketed


class FrameMode(enum.Enum):
    CHRW = "chrw"
    RWA = "rwa"


@dataclass(frozen=True)
class ModelParams:
    """Model inputs in units of omega0 (any consistent unit system works).

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

    delta_tilde = omega0 J0(A xi/omega) - omega, a_tilde = 2A(1-xi),
    rabi_tilde = sqrt(delta_tilde^2 + a_tilde^2/4), and theta the dressing
    angle with tan(theta) = (rabi_tilde - delta_tilde)/(a_tilde/2).
    """

    xi: float
    a_tilde: float
    delta_tilde: float
    rabi_tilde: float
    theta: float
    mode: FrameMode

    @property
    def cos_2theta(self) -> float:
        return math.cos(2.0 * self.theta)

    @property
    def sin_2theta(self) -> float:
        return math.sin(2.0 * self.theta)


def xi_fixed_point_residual(params: ModelParams, xi: float) -> float:
    """Residual omega0*J1(A xi/omega) - (A/2)(1 - xi) of the xi equation."""
    return params.omega0 * float(j1(params.amplitude * xi / params.omega)) - 0.5 * params.amplitude * (1.0 - xi)


# grid samples solve_xi takes one by one before it scans the rest as an array
_SCALAR_SAMPLES = 24


def solve_xi(params: ModelParams, tol: Tolerance = DEFAULT_TOL) -> float:
    """Solve the CHRW fixed point for xi on [0, 1].

    Returns the smallest root, which continues the weak-drive solution
    xi = omega/(omega + omega0); for A = 0 that limit must be applied by
    the caller (build_frame does) and a degenerate-input error is raised.

    Raises
    ------
    DegenerateInputError
        if amplitude is zero.
    NoSignChangeError
        if no root can be bracketed inside [0, 1].
    """
    a, w, w0 = params.amplitude, params.omega, params.omega0
    if a == 0.0:
        raise DegenerateInputError("xi fixed point is undefined at A=0; use xi = omega/(omega+omega0)")

    # J1(A xi / omega) oscillates in xi with period 2*pi*omega/A; sample it
    # on the grid np.linspace(0, 1, n + 1), k*(1/n) with the last point 1.0,
    # well enough that the first upward crossing cannot be stepped over.
    # The residual starts at -A/2, so the first non-negative sample closes
    # the bracket.  No root lies below xi* = omega/(omega + omega0): there
    # |J1(x)| <= x/2 bounds the residual by (A/2)(xi/xi* - 1) < 0, so the
    # scan starts one step below floor(xi* n), a margin of order A/n.  The
    # scan uses j1, as the residual does, so an array sample is bitwise the
    # scalar one and the polish can take both bracket-end values from it
    n = max(128, int(8.0 * a / w) + 128)
    step = 1.0 / n

    def residual(xi: float) -> float:
        return xi_fixed_point_residual(params, xi)

    # the crossing is usually a few steps above xi*: walk the first samples
    # one by one, then scan the rest of the grid, which ends at 1.0, as one
    # array; each sample is evaluated once
    i = max(int(n * (w / (w + w0))) - 1, 1)
    head = min(i + _SCALAR_SAMPLES, n)
    r_lo, r = None, residual(i * step)
    while r < 0.0 and i + 1 < head:
        i += 1
        r_lo, r = r, residual(i * step)
    if r < 0.0:
        tail = np.arange(head, n + 1) * step
        tail[-1] = 1.0
        values = w0 * j1(a * tail / w) - 0.5 * a * (1.0 - tail)
        j = int(np.argmax(values >= 0.0))
        if values[j] < 0.0:
            raise NoSignChangeError(
                f"xi fixed point not bracketed in [0, 1] for A={a}, omega={w} (residual stays negative)"
            )
        r_lo = float(values[j - 1]) if j else r
        i, r = head + j, float(values[j])
    hi = i * step if i < n else 1.0
    if r == 0.0:
        return hi
    return find_root_bracketed(residual, (i - 1) * step, hi, tol, fa=r_lo, fb=r)


def _theta_from(delta: float, half_a: float) -> float:
    if half_a > 0.0:
        rabi = math.hypot(delta, half_a)
        return math.atan2(rabi - delta, half_a)
    # a_tilde = 0: dressing collapses onto the poles; resonant limit is pi/4
    if delta > 0.0:
        return 0.0
    if delta < 0.0:
        return 0.5 * math.pi
    return 0.25 * math.pi


def build_frame(params: ModelParams, mode: FrameMode = FrameMode.CHRW) -> ChrwFrame:
    """Construct the static transformed frame in the requested mode.

    CHRW solves the xi fixed point (A=0 falls back to the analytic limit
    xi = omega/(omega+omega0), where a_tilde = 0); RWA pins xi = 0 so that
    delta_tilde = omega0 - omega and a_tilde = A.
    """
    w0, a, w = params.omega0, params.amplitude, params.omega
    if mode is FrameMode.RWA:
        xi = 0.0
        delta = w0 - w
        a_tilde = a
    else:
        if a == 0.0:
            xi = w / (w + w0)
            delta = w0 - w
            a_tilde = 0.0
        else:
            xi = solve_xi(params)
            z = a * xi / w
            # J0(z)*omega0 - omega, with the J0-1 series keeping the near-
            # resonant cancellation at full precision
            delta = bessel_j0_minus_1(z) * w0 + (w0 - w)
            a_tilde = 2.0 * a * (1.0 - xi)
    half_a = 0.5 * a_tilde
    rabi = math.hypot(delta, half_a)
    theta = _theta_from(delta, half_a)
    return ChrwFrame(
        xi=xi, a_tilde=a_tilde, delta_tilde=delta, rabi_tilde=rabi, theta=theta, mode=mode
    )


def bessel_argument(params: ModelParams, frame: ChrwFrame) -> float:
    """Argument A*xi/omega entering every Bessel factor of the frame."""
    return params.amplitude * frame.xi / params.omega

