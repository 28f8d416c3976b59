"""Dissipation in the transformed frame, reduced to six rate constants.

The lab-frame master equation has a time-dependent Hamiltonian and a static
dissipator.  After the counter-rotating-hybridized transformation the roles
swap: the Hamiltonian is static (the dressed splitting rabi_tilde) and the
dissipator becomes time-dependent through the transformed lowering operator.
Expanding that operator in drive harmonics and keeping only the co-rotating
(n + n' = 0) pairs leaves a constant-coefficient master equation whose whole
content is a real rank-4 tensor over the dressed indices, and ultimately
six real rates.  The harmonics have one form, fourier_coefficients' stack
of 2x2 blocks for n = -L, ..., L, cut by the one three-orders truncation
routine that spectrum's sideband cap also calls.  Neumann's addition
theorem sums the harmonic products exactly, so rates gives the six in
closed form from J_0, J_1 and J_2 at the Bessel argument z and at 2z;
lindblad_tensor contracts the truncated block stack term by term and is
their independent reference.  Validity requires the dressed splitting to
dominate the decay (rabi_tilde >> kappa); population_avg refuses
rabi_tilde < SECULAR_RATIO kappa.  steady_state solves the dressed Bloch
equations for their fixed point, and population_avg turns it into the
time-averaged lab-frame excited population, the paper's population
signature.  Only bloch_generator (through +-i rabi_tilde) and the steady
coherence are complex.

oracle_lindblad integrates the untransformed lab-frame equation directly and
shares no code with the rate construction; it is the ground truth for
transients.  The steady-state ground truth is floquet.periodic_steady_state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.special import j0, j1

from .chrw import ChrwFrame, ModelParams
from .errors import ConvergenceError, DegenerateInputError, DomainError
from .numerics import bessel_j, bessel_j0_minus_1, bessel_j_sequence

__all__ = ["RateSet", "SteadyState", "bloch_generator", "fourier_coefficients", "fourier_f",
    "lindblad_tensor", "population_avg", "rates", "steady_state"]

TRUNCATION_EPS = 1e-14
TRUNCATION_CAP = 61
# the co-rotating reduction needs rabi_tilde >> kappa: population_avg
# refuses a dressed splitting below this many kappa, spectrum warns there
SECULAR_RATIO = 10.0


def truncation_order(z: float) -> int:
    """Smallest odd order L with |J_{L-1}|, |J_L|, |J_{L+1}| all below
    TRUNCATION_EPS at z, at most TRUNCATION_CAP.

    Bessel functions of order beyond their argument decay super-exponentially,
    so the harmonic expansion of the transformed lowering operator can be cut
    once three consecutive orders are negligible.  Capped because arguments
    this large (z ~ 50) sit far outside the frame's validity anyway.
    """
    return _truncation_rule(abs(z), TRUNCATION_CAP)[0]


def _truncation_rule(z: float, n: int) -> Tuple[int, np.ndarray]:
    """truncation_order's rule on the odd orders up to c = min(n, TRUNCATION_CAP)
    for odd n: the smallest odd L <= c with |J_{L-1}|, |J_L|, |J_{L+1}| all
    below TRUNCATION_EPS, else c, and j = [J_0(z), ..., J_{c+1}(z)], the
    Bessel values every harmonic weight up to c reads."""
    cap = min(n, TRUNCATION_CAP)
    j = bessel_j_sequence(cap + 1, z)
    a = np.abs(j).tolist()
    for order in range(1, cap, 2):
        if max(a[order - 1], a[order], a[order + 1]) < TRUNCATION_EPS:
            return order, j
    return cap, j


def _harmonic_weights(frame: ChrwFrame, l, j, s) -> Tuple:
    # (f_plus, f_minus, f_z) of odd harmonic l and signature s = +-1, from
    # j = [J_0(z), J_1(z), ...] reaching order l + 1; elementwise, so l may
    # be an array of harmonics and s an array of signatures
    delta_l1 = (l == 1) * 1.0
    j_lm1 = j[l - 1]
    j_l = j[l]
    j_lp1 = j[l + 1]
    cos_2t, sin_2t = frame.cos_2theta, frame.sin_2theta
    # cos^2 theta and sin^2 theta
    cos2 = 0.5 * (1.0 + cos_2t)
    sin2 = 0.5 * (1.0 - cos_2t)
    f_p = -(delta_l1 + s * j_lm1) * cos2 - s * j_lp1 * sin2 - s * j_l * sin_2t
    f_m = (delta_l1 + s * j_lm1) * sin2 + s * j_lp1 * cos2 - s * j_l * sin_2t
    f_z = 0.5 * (delta_l1 + s * j_lm1 - s * j_lp1) * sin_2t - s * j_l * cos_2t
    return f_p, f_m, f_z


def fourier_f(frame: ChrwFrame, l: int) -> Tuple[float, float, float]:
    """(f_plus, f_minus, f_z) for one odd harmonic l > 0 at frame.z.

    The three numbers are the weights of the dressed raising, lowering, and
    population operators in the l-th harmonic of the transformed sigma_+;
    fourier_coefficients holds them, and those of -l, as its blocks.  l
    must be integral and is taken as an int (ValueError otherwise).
    """
    if not float(l).is_integer() or l < 1 or l % 2 == 0:
        raise ValueError(f"harmonic index must be a positive odd integer, got {l}")
    j = bessel_j_sequence(l + 1, frame.z).tolist()
    return _harmonic_weights(frame, int(l), j, 1.0)


def fourier_coefficients(frame: ChrwFrame) -> np.ndarray:
    """The 2x2 harmonic blocks [[f_z, upper], [lower, -f_z]] / 2 of the
    transformed sigma_+ for n = -L, -L+2, ..., L, in that order, with L =
    truncation_order(frame.z): every harmonic beyond L contributes below
    TRUNCATION_EPS.

    Harmonic n has signature sign(n) at l = |n|; n > 0 puts the lowering
    weight f_minus in the lower corner, n < 0 trades raising and lowering
    places.  The weights are real, so the stack is float64.
    """
    l_max, j = _truncation_rule(frame.z, TRUNCATION_CAP)
    n = np.arange(-l_max, l_max + 1, 2)
    positive = n > 0
    f_p, f_m, f_z = _harmonic_weights(frame, np.abs(n), j, np.where(positive, 1.0, -1.0))
    stack = np.empty((n.size, 2, 2))
    stack[:, 0, 0] = 0.5 * f_z
    stack[:, 0, 1] = 0.5 * np.where(positive, f_p, f_m)
    stack[:, 1, 0] = 0.5 * np.where(positive, f_m, f_p)
    stack[:, 1, 1] = -0.5 * f_z
    return stack


def x_coefficients(frame: ChrwFrame, n: int) -> np.ndarray:
    """2x2 block of the n-th harmonic of the transformed sigma_+.

    Index order is dressed (+, -).  Even n and |n| beyond the truncation
    give the zero block; n must be integral and is taken as an int
    (ValueError otherwise).  The harmonic weights are real, so the block
    is float64.
    """
    if not float(n).is_integer():
        raise ValueError(f"harmonic index must be an integer, got {n}")
    stack = fourier_coefficients(frame)
    l_max = len(stack) - 1
    if n % 2 == 0 or abs(n) > l_max:
        return np.zeros((2, 2))
    return stack[(int(n) + l_max) // 2]


def lindblad_tensor(frame: ChrwFrame, params: ModelParams) -> np.ndarray:
    """Rank-4 dissipator tensor over dressed indices, co-rotating pairs only.

    Element [alpha, beta, mu, nu] multiplies rho_{mu nu} in the equation for
    rho_{alpha beta}.  Real, linear in kappa, zero without decay (the kappa
    factor zeroes the contracted stack).
    """
    stack = fourier_coefficients(frame)
    # with real harmonics the sigma_- blocks are transposes, so the three
    # dissipator contractions reduce to two reusable sums over harmonics
    gram = np.einsum("kal,kml->am", stack, stack)
    cross = np.einsum("kma,knb->manb", stack, stack)
    delta = np.eye(2)
    tensor = (
        np.einsum("am,nb->abmn", gram, delta)
        + np.einsum("nb,ma->abmn", gram, delta)
        - 2.0 * np.einsum("manb->abmn", cross)
    )
    return 0.5 * params.kappa * tensor


@dataclass(frozen=True)
class RateSet:
    """The six scalars that fully parametrize the transformed dissipator.

    gamma_z damps the dressed population difference, gamma_0 sources it,
    gamma_1 couples population to coherence, gamma_2 sources coherence,
    gamma_minus mixes the two coherences, gamma_plus damps them.  All real;
    gamma_0 / kappa is the projector bracket population_avg needs.
    """

    gamma_z: float
    gamma_0: float
    gamma_1: float
    gamma_2: float
    gamma_minus: float
    gamma_plus: float

    @classmethod
    def from_tensor(cls, tensor: np.ndarray) -> "RateSet":
        # dressed index order: 0 = +, 1 = -
        return cls(
            gamma_z=tensor[0, 0, 0, 0] - tensor[0, 0, 1, 1],
            gamma_0=tensor[0, 0, 0, 0] + tensor[0, 0, 1, 1],
            gamma_1=tensor[0, 0, 0, 1],
            gamma_2=0.5 * (tensor[1, 0, 0, 0] + tensor[1, 0, 1, 1]),
            gamma_minus=tensor[1, 0, 0, 1],
            gamma_plus=tensor[1, 0, 1, 0],
        )


def rates(frame: ChrwFrame, params: ModelParams) -> RateSet:
    """Rate constants of the transformed master equation, in closed form.

    Neumann's addition theorem sums the harmonic products exactly,
    sum_{n odd} J_{n+j}(z) J_{n+k}(z) = [delta_jk - (-1)^j J_{k-j}(2z)] / 2,
    so no harmonic table is built.  lindblad_tensor sums the truncated table
    term by term and is the reference this is checked against.
    """
    z = frame.z
    kappa, s, c = params.kappa, frame.sin_2theta, frame.cos_2theta
    # The rates are kappa times gamma_z = pp + qq, gamma_0 = pp - qq,
    # gamma_1 = -(up + uq) / 2, gamma_2 = uq - up, gamma_minus = -pq and
    # gamma_plus = 2 uu + (pp + qq) / 2, where xy sums x y over odd n of the
    # block entries (u, p, q).  With s, c = sin 2theta, cos 2theta, they
    # combine into
    #   u             = [s (J_{n-1} - J_{n+1}) - 2c J_n] / 4 + s/4 [n = +-1]
    #   sigma = p + q = -[c (J_{n-1} - J_{n+1}) + 2s J_n] / 2 - c/2 [n = +-1]
    #   delta = q - p = (J_{n-1} + J_{n+1}) / 2 +- 1/2 [n = +-1]
    # so that pp + qq = (sigma sigma + delta delta) / 2, pp - qq = -sigma
    # delta, and so on.  The identity sums each product, with m = 1 - J_0(2z)
    # from the cancellation-free series; only the [n = +-1] terms pair delta
    # with u or sigma, which leaves J_0 and J_1 at z in gamma_0 and gamma_2.
    m = -bessel_j0_minus_1(2.0 * z)
    y1, y2 = float(j1(2.0 * z)), bessel_j(2, 2.0 * z)
    big = 4.0 - m - y2  # 3 + J_0(2z) - J_2(2z)
    uu = (s * s * big + 2.0 * c * c * m - 4.0 * s * c * y1) / 16.0
    u_sigma = (2.0 * (c * c - s * s) * y1 - s * c * (big - 2.0 * m)) / 8.0
    sigma_sigma = (c * c * big + 2.0 * s * s * m + 4.0 * s * c * y1) / 4.0
    delta_delta = (4.0 - m + y2) / 4.0
    x0, x1 = float(j0(z)), float(j1(z))
    return RateSet(
        gamma_z=0.5 * kappa * (sigma_sigma + delta_delta),
        gamma_0=kappa * (c * x0 + s * x1),
        gamma_1=-0.5 * kappa * u_sigma,
        gamma_2=0.5 * kappa * (s * x0 - c * x1),
        gamma_minus=0.25 * kappa * (delta_delta - sigma_sigma),
        gamma_plus=kappa * (2.0 * uu + 0.25 * (sigma_sigma + delta_delta)),
    )


def bloch_generator(rate_set: RateSet, rabi_tilde: float) -> Tuple[np.ndarray, np.ndarray]:
    """Affine generator dy/dt = M y + b for y = (s_plus, s_minus, s_z)."""
    g1 = rate_set.gamma_1
    gm = rate_set.gamma_minus
    gp = rate_set.gamma_plus
    m = np.array(
        [
            [1j * rabi_tilde - gp, -gm, -g1],
            [-gm, -1j * rabi_tilde - gp, -g1],
            [-2.0 * g1, -2.0 * g1, -rate_set.gamma_z],
        ],
        dtype=np.complex128,
    )
    b = np.array([-rate_set.gamma_2, -rate_set.gamma_2, -rate_set.gamma_0], dtype=np.complex128)
    return m, b


@dataclass(frozen=True)
class SteadyState:
    """Long-time dressed Bloch vector."""

    sz_ss: float
    splus_ss: complex

    @property
    def sminus_ss(self) -> complex:
        return self.splus_ss.conjugate()


def steady_state(rate_set: RateSet, rabi_tilde: float) -> SteadyState:
    """Closed-form fixed point of the dressed Bloch equations; refuses a
    vanishing denominator (DegenerateInputError), as at kappa = 0."""
    g0 = rate_set.gamma_0
    g1 = rate_set.gamma_1
    g2 = rate_set.gamma_2
    gm = rate_set.gamma_minus
    gp = rate_set.gamma_plus
    gz = rate_set.gamma_z
    r2 = rabi_tilde * rabi_tilde
    denom = 4.0 * g1 * g1 * (gm - gp) + (r2 - gm * gm + gp * gp) * gz
    # the size of denom's terms, in its own units, so the test is unit-free
    m1, mm, mp = abs(g1), abs(gm), abs(gp)
    scale = 4.0 * m1 * m1 * (mm + mp) + (r2 + mm * mm + mp * mp) * abs(gz)
    if not abs(denom) > 1e-14 * scale:
        raise DegenerateInputError(
            "steady-state denominator vanished; dressed relaxation does not "
            "single out a fixed point at these rates"
        )
    sz = (-r2 * g0 - 4.0 * g1 * g2 * (gm - gp) + g0 * (gm * gm - gp * gp)) / denom
    splus = (1j * rabi_tilde - gm + gp) * (g0 * g1 - g2 * gz) / denom
    return SteadyState(sz_ss=float(sz), splus_ss=complex(splus))


def population_avg(frame: ChrwFrame, params: ModelParams, rate_set: RateSet) -> float:
    """Time-averaged lab-frame excited population in steady state.

    Only the zeroth harmonic of the projector map survives the average; its
    bracket cos 2theta J_0(z) + sin 2theta J_1(z) is gamma_0 / kappa, read
    from the rates after steady_state has refused kappa = 0.  Undriven (A =
    0) the atom relaxes to its ground state and the result is exactly 0.

    The closed form drops terms of order (kappa / rabi_tilde)^2: at the CHRW
    resonance it reads 1/2 whatever the drive, a relative error of
    (kappa / rabi_tilde)^2 / 2 against the exact periodic steady state.  A
    dressed splitting below SECULAR_RATIO kappa raises DomainError.
    """
    if params.amplitude == 0.0:
        return 0.0
    if frame.rabi_tilde < SECULAR_RATIO * params.kappa:
        raise DomainError(f"dressed splitting {frame.rabi_tilde:.3g} is below {SECULAR_RATIO:g} kappa")
    ss = steady_state(rate_set, frame.rabi_tilde)
    return 0.5 * (1.0 + ss.sz_ss * (rate_set.gamma_0 / params.kappa))


# DOP853 tolerances of oracle_lindblad; its Bloch-ball check allows 2e-10
_ORACLE_RTOL = 1e-10
_ORACLE_ATOL = 1e-12


def oracle_lindblad(params: ModelParams, rho0: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Direct lab-frame integration of the driven, damped two-level system.

    Ground truth for everything above: no frame, no harmonic expansion, no
    co-rotating reduction.  Internally propagates the Bloch vector, which
    keeps the trace and Hermiticity exact by construction; positivity is
    checked on output.  Returns density matrices, shape (len(t_grid), 2, 2).
    """
    rho0 = np.asarray(rho0, dtype=np.complex128)
    if rho0.shape != (2, 2):
        raise ValueError(f"rho0 must be 2x2, got {rho0.shape}")
    if np.max(np.abs(rho0 - rho0.conj().T)) > 1e-12:
        raise ValueError("rho0 must be Hermitian")
    if abs(np.trace(rho0).real - 1.0) > 1e-12:
        raise ValueError("rho0 must have unit trace")
    if np.min(np.linalg.eigvalsh(rho0)) < -1e-12:
        raise ValueError("rho0 must be positive semidefinite")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0 or np.any(np.diff(t) <= 0.0) or t[0] < 0.0:
        raise ValueError("t_grid must be strictly increasing and non-negative")

    from scipy.integrate import solve_ivp  # the only user; keeps it out of the package import

    omega0, amp, omega, kappa = params.omega0, params.amplitude, params.omega, params.kappa
    v0 = np.array(
        [2.0 * rho0[0, 1].real, -2.0 * rho0[0, 1].imag, (rho0[0, 0] - rho0[1, 1]).real]
    )

    def rhs(time: float, v: np.ndarray) -> np.ndarray:
        drive = amp * math.cos(omega * time)
        x, y, z = v
        return np.array(
            [
                -omega0 * y - 0.5 * kappa * x,
                omega0 * x - drive * z - 0.5 * kappa * y,
                drive * y - kappa * (z + 1.0),
            ]
        )

    sol = solve_ivp(
        rhs,
        (0.0, float(t[-1])),
        v0,
        method="DOP853",
        t_eval=t,
        rtol=_ORACLE_RTOL,
        atol=_ORACLE_ATOL,
        dense_output=False,
    )
    if not sol.success:
        raise ConvergenceError(f"lab-frame integration failed: {sol.message}")
    v = sol.y.T
    norms = np.linalg.norm(v, axis=1)
    worst = float(np.max(norms))
    if worst > 1.0 + 2e-10:
        raise ConvergenceError(
            f"integrated state left the Bloch ball by {worst - 1.0:.2e}; tighten tolerances"
        )
    out = np.empty((t.size, 2, 2), dtype=np.complex128)
    out[:, 0, 0] = 0.5 * (1.0 + v[:, 2])
    out[:, 1, 1] = 0.5 * (1.0 - v[:, 2])
    out[:, 0, 1] = 0.5 * (v[:, 0] - 1j * v[:, 1])
    out[:, 1, 0] = 0.5 * (v[:, 0] + 1j * v[:, 1])
    return out
