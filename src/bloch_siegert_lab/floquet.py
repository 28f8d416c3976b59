"""Floquet treatment of the driven two-level system.

The time-periodic Hamiltonian H(t) = (omega0/2) sigma_z + (A/2) cos(omega t)
sigma_x is mapped onto the static block-tridiagonal Floquet matrix in the
basis |gamma, l> (gamma the bare level, l the Fourier index): diagonal blocks
(omega0/2) sigma_z + l*omega*I, off-diagonal blocks (A/4) sigma_x between
adjacent l.  Quasienergies, their omega0-derivative (which encodes the
time-averaged transition probability), the same derivative on one
tridiagonal parity chain, and a one-period propagator oracle all live here,
together with the period map of the damped lab-frame Bloch equation, which
gives the exact periodic steady state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dstebz, dstein

from .chrw import ModelParams
from .errors import (
    BranchAmbiguityError,
    ConvergenceError,
    DegenerateInputError,
    NonUnitaryError,
    TruncationWarning,
)

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# two top-l0 candidates closer than this in weight count as tied
_TIE_TOL = 1e-9
# tied candidates whose |dq| differ by more than this are truly ambiguous
_DQ_SPLIT_TOL = 1e-6


def default_truncation(params: ModelParams) -> int:
    """Fourier cutoff N = max(ceil(A/omega) + 20, 25)."""
    return max(int(math.ceil(params.amplitude / params.omega)) + 20, 25)


def fold_to_zone(q: float, omega: float) -> float:
    """Fold a quasienergy into the first Brillouin zone (-omega/2, omega/2]."""
    return 0.5 * omega - (0.5 * omega - q) % omega


def circle_gap(q1: float, q2: float, omega: float) -> float:
    """Distance between two quasienergies on the zone circle of size omega."""
    d = math.fmod(abs(q1 - q2), omega)
    return min(d, omega - d)


def build_floquet_matrix(params: ModelParams, n_trunc: int) -> np.ndarray:
    """Real symmetric Floquet matrix of size 2*(2*n_trunc + 1).

    Basis index 2*(l + n_trunc) + s with s = 0 for the upper level and
    s = 1 for the lower one, l in [-n_trunc, n_trunc].
    """
    if n_trunc < 0:
        raise ValueError(f"truncation must be >= 0, got {n_trunc}")
    needed = int(math.ceil(params.amplitude / params.omega)) + 10
    if n_trunc < needed and params.amplitude > 0.0:
        warnings.warn(
            f"Floquet truncation N={n_trunc} below A/omega + 10 = {needed}; "
            "quasienergies may not be converged",
            TruncationWarning,
            stacklevel=2,
        )
    nblock = 2 * n_trunc + 1
    size = 2 * nblock
    h = np.zeros((size, size))
    ls = np.arange(-n_trunc, n_trunc + 1, dtype=float)
    diag = np.empty(size)
    diag[0::2] = ls * params.omega + 0.5 * params.omega0
    diag[1::2] = ls * params.omega - 0.5 * params.omega0
    np.fill_diagonal(h, diag)
    v = 0.25 * params.amplitude
    for b in range(nblock - 1):
        i, j = 2 * b, 2 * (b + 1)
        h[i, j + 1] = v
        h[i + 1, j] = v
        h[j + 1, i] = v
        h[j, i + 1] = v
    return h


@dataclass
class FloquetSolution:
    """Diagonalized Floquet problem plus the tracked resonant branch."""

    params: ModelParams
    n_trunc: int
    eigenvalues: np.ndarray  # raw, ascending
    quasienergies: np.ndarray  # folded into (-omega/2, omega/2]
    eigenvectors: np.ndarray  # columns align with eigenvalues
    branch_index: int
    dq_domega0: float
    pbar: float

    @property
    def branch_eigenvalue(self) -> float:
        return float(self.eigenvalues[self.branch_index])

    @property
    def branch_vector(self) -> np.ndarray:
        return self.eigenvectors[:, self.branch_index]

    @property
    def pbar_coherent(self) -> float:
        """Exact infinite-time average of the transition probability.

        Weights each physical branch by the coherent Fourier sum
        |sum_l <gamma l|v>|^2 of its lower-level components, which keeps
        the cross terms between zone copies that the (1 - 4 dq^2)/2 form
        drops.  The two agree exactly at resonance and differ at first
        order in A/omega away from it.
        """
        n = self.n_trunc
        resh = self.eigenvectors.reshape(2 * n + 1, 2, self.eigenvectors.shape[1])
        w_l0 = (resh[n] ** 2).sum(axis=0)
        order = np.argsort(w_l0)
        total = 0.0
        for i in (int(order[-1]), int(order[-2])):
            v = resh[:, :, i]
            total += float(v[:, 1].sum()) ** 2 * float((v[:, 0] ** 2).sum())
        return total


def _weights(vecs: np.ndarray, n_trunc: int) -> tuple[np.ndarray, np.ndarray]:
    # returns (weight on the l=0 block, weight on the upper bare level)
    nvec = vecs.shape[1]
    resh = (vecs * vecs).reshape(2 * n_trunc + 1, 2, nvec)
    w_l0 = resh[n_trunc].sum(axis=0)
    w_up = resh[:, 0, :].sum(axis=0)
    return w_l0, w_up


def solve_floquet(
    params: ModelParams,
    n_trunc: Optional[int] = None,
    reference: Optional[np.ndarray] = None,
) -> FloquetSolution:
    """Diagonalize the Floquet matrix and track the resonant branch.

    The branch is the eigenvector with maximal weight on the l=0 Fourier
    block; a reference vector (from a neighbouring parameter point)
    overrides that choice by maximal overlap, which keeps the branch
    identity stable across closely spaced sweeps.  dq_domega0 is the
    sandwich sum_gamma,l a_gamma |<gamma l|v>|^2 with a = +1/2 (-1/2) on
    the upper (lower) level, and pbar = (1 - 4 dq^2)/2.
    """
    if n_trunc is None:
        n_trunc = default_truncation(params)
    h = build_floquet_matrix(params, n_trunc)
    vals, vecs = np.linalg.eigh(h)
    w_l0, w_up = _weights(vecs, n_trunc)
    dq_all = w_up - 0.5

    if reference is not None:
        idx = int(np.argmax(np.abs(reference @ vecs)))
    else:
        order = np.argsort(w_l0)
        i1, i2 = int(order[-1]), int(order[-2])
        if w_l0[i1] - w_l0[i2] <= _TIE_TOL:
            d1, d2 = float(dq_all[i1]), float(dq_all[i2])
            if abs(abs(d1) - abs(d2)) > _DQ_SPLIT_TOL:
                raise BranchAmbiguityError(
                    f"two Floquet branches share the l=0 weight ({w_l0[i1]:.12f}) "
                    f"but disagree on dq/domega0: {d1:.3e} vs {d2:.3e}"
                )
            idx = i1 if d1 >= d2 else i2
        else:
            idx = i1
    dq = float(dq_all[idx])
    folded = np.array([fold_to_zone(float(q), params.omega) for q in vals])
    return FloquetSolution(
        params=params,
        n_trunc=n_trunc,
        eigenvalues=vals,
        quasienergies=folded,
        eigenvectors=vecs,
        branch_index=idx,
        dq_domega0=dq,
        pbar=0.5 * (1.0 - 4.0 * dq * dq),
    )


def dq_domega0(
    params: ModelParams,
    n_trunc: Optional[int] = None,
    reference: Optional[np.ndarray] = None,
) -> float:
    """Quasienergy derivative with respect to omega0 on the tracked branch."""
    return solve_floquet(params, n_trunc, reference).dq_domega0


def pbar(params: ModelParams, n_trunc: Optional[int] = None) -> float:
    """Transition-probability average in the form (1 - 4 (dq/domega0)^2)/2.

    This is the standard resonance diagnostic: it peaks at exactly 1/2
    when the drive hits the shifted resonance.  Away from resonance it
    keeps only the incoherent part of the average; the exact infinite-time
    mean is FloquetSolution.pbar_coherent.
    """
    return solve_floquet(params, n_trunc).pbar


def _chain_eigenpair(diag: np.ndarray, off: np.ndarray, index: int) -> tuple[float, np.ndarray]:
    """Eigenvalue number index (ascending, from 0) of a symmetric tridiagonal
    matrix and its unit eigenvector.

    Calls the two LAPACK routines eigh_tridiagonal(select='i') runs, dstebz
    bisection (range 'I', block order, abstol 0) then dstein inverse
    iteration, with the same arguments, so the results are bitwise the
    same without its argument checks and driver lookup.
    """
    m, w, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 1.0, index + 1, index + 1, 0.0, "B")
    if info != 0:
        raise ConvergenceError(f"dstebz bisection for eigenvalue {index} failed (info={info})")
    vecs, info = dstein(diag, off, w[:m], iblock, isplit)
    if info != 0:
        raise ConvergenceError(f"dstein inverse iteration for eigenvalue {index} failed (info={info})")
    return float(w[0]), vecs[:, 0]


def _chain_slope_fn(omega0: float, amplitude: float, n_trunc: int) -> Callable[[float], float]:
    """chain_slope as a function of s, with the parts that do not depend on
    s built once."""
    # site i holds l = i - n_trunc: up sites (even l) start at i = n_trunc % 2
    up = n_trunc % 2
    down = 1 - up
    base = np.arange(-n_trunc, n_trunc + 1, dtype=float)
    base[down::2] -= 1.0
    off = np.full(2 * n_trunc, 0.25 * amplitude)

    def slope(s: float) -> float:
        diag = base * (omega0 + s)
        diag[down::2] += s
        _, vec = _chain_eigenpair(diag, off, n_trunc)
        return float(np.sum(vec[up::2] ** 2)) - 0.5

    return slope


def chain_slope(omega0: float, amplitude: float, s: float, n_trunc: int) -> float:
    """dq/domega0 of the lower resonant branch at drive omega = omega0 + s.

    The Floquet matrix couples |up,l> only to |down,l+-1>, so the sites
    |up, even l>, |down, odd l> (l in [-n_trunc, n_trunc]) form an exact
    tridiagonal block; the other parity chain has the negated spectrum.
    With the diagonal shifted by -omega0/2 it reads l*omega on up sites and
    (l-1)*omega + s on down sites, so the resonant pair |up,0>, |down,1>
    is detuned by exactly s.  A tridiagonal matrix with nonzero
    off-diagonals has no crossings, so eigenvalue n_trunc is always the
    lower member of that pair and its slope changes sign at resonance.
    That one eigenpair comes from LAPACK dstebz bisection and dstein
    inverse iteration; a failure of either raises ConvergenceError.
    """
    return _chain_slope_fn(omega0, amplitude, n_trunc)(s)


def branch_gap(params: ModelParams, n_trunc: Optional[int] = None) -> float:
    """Zone-circle distance between the two strongest-l0 branches."""
    sol = solve_floquet(params, n_trunc)
    w_l0, _ = _weights(sol.eigenvectors, sol.n_trunc)
    order = np.argsort(w_l0)
    q1 = float(sol.eigenvalues[int(order[-1])])
    q2 = float(sol.eigenvalues[int(order[-2])])
    return circle_gap(q1, q2, params.omega)


# ---------------------------------------------------------------------------
# one-period propagators: the coherent monodromy oracle and the damped
# period map


def _rk4_step_propagators(
    generator: Callable[[np.ndarray], np.ndarray], period: float, n_steps: int
) -> np.ndarray:
    """Batch of one-step RK4 maps for dY/dt = G(t) Y over one period.

    generator maps an array of times to the stack of matrices G(t) there;
    row k of the result advances the state from t_k = k*period/n_steps to
    t_{k+1}.
    """
    h = period / n_steps
    t0 = np.arange(n_steps) * h
    b1 = generator(t0)
    b2 = generator(t0 + 0.5 * h)
    b4 = generator(t0 + h)
    eye = np.broadcast_to(np.eye(b1.shape[-1], dtype=b1.dtype), b1.shape)
    k1 = b1
    k2 = b2 @ (eye + 0.5 * h * k1)
    k3 = b2 @ (eye + 0.5 * h * k2)
    k4 = b4 @ (eye + h * k3)
    return np.asarray(eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def propagator_samples(
    params: ModelParams, steps_per_period: int = 2000
) -> tuple[np.ndarray, np.ndarray]:
    """Times and propagators U(t_k) on one drive period, t_k = k*T/steps.

    Fixed-step RK4 for the linear flow, re-unitarized each step with one
    Newton-Schulz polar projection U <- U (3I - U^H U)/2.
    """
    if steps_per_period < 1000:
        raise ValueError(f"steps_per_period must be >= 1000, got {steps_per_period}")
    period = 2.0 * math.pi / params.omega
    h0 = 0.5 * params.omega0 * _SIGMA_Z
    v = 0.5 * params.amplitude * _SIGMA_X

    def minus_i_h(ts: np.ndarray) -> np.ndarray:
        return -1j * (h0[None, :, :] + np.cos(params.omega * ts)[:, None, None] * v[None, :, :])

    steps = _rk4_step_propagators(minus_i_h, period, steps_per_period)
    us = np.empty((steps_per_period + 1, 2, 2), dtype=complex)
    u = np.eye(2, dtype=complex)
    us[0] = u
    eye3 = 3.0 * np.eye(2, dtype=complex)
    for k in range(steps_per_period):
        u = steps[k] @ u
        u = u @ (0.5 * (eye3 - u.conj().T @ u))
        us[k + 1] = u
    ts = np.linspace(0.0, period, steps_per_period + 1)
    return ts, us


def monodromy_quasienergies(
    params: ModelParams, steps_per_period: int = 2000
) -> tuple[float, float]:
    """Quasienergy pair from the eigenphases of the one-period propagator.

    U(T) eigenvalues exp(-i q T) give q = -arg(lambda)/T, folded into the
    first zone.  Raises if the integrated propagator is measurably
    non-unitary.
    """
    _, us = propagator_samples(params, steps_per_period)
    u_t = us[-1]
    defect = float(np.max(np.abs(u_t.conj().T @ u_t - np.eye(2))))
    if defect > 1e-10:
        raise NonUnitaryError(f"one-period propagator unitarity defect {defect:.3e} > 1e-10")
    period = 2.0 * math.pi / params.omega
    lam = np.linalg.eigvals(u_t)
    qs = sorted(fold_to_zone(float(-np.angle(x) / period), params.omega) for x in lam)
    return qs[0], qs[1]


def monodromy_gap(params: ModelParams, steps_per_period: int = 2000) -> float:
    """Zone-circle gap between the two monodromy quasienergies."""
    q1, q2 = monodromy_quasienergies(params, steps_per_period)
    return circle_gap(q1, q2, params.omega)


def average_transition_probability(
    params: ModelParams,
    periods: int = 200,
    steps_per_period: int = 2000,
    window: str = "hann",
) -> float:
    """Direct time average of |<up|U(t)|down>|^2 over many periods.

    Independent cross-check of pbar: samples the transition probability on
    a dense grid built from one-period propagator samples and powers of the
    monodromy matrix.  A Hann window suppresses the finite-span leakage of
    the slow Rabi beat; window="flat" gives the plain mean.
    """
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    _, us = propagator_samples(params, steps_per_period)
    u_period = us[-1]
    base = us[:-1]  # drop duplicate endpoint
    n = steps_per_period
    total = periods * n
    if window == "hann":
        j = np.arange(total)
        weights = 0.5 * (1.0 - np.cos(2.0 * math.pi * (j + 0.5) / total))
    elif window == "flat":
        weights = np.ones(total)
    else:
        raise ValueError(f"unknown window {window!r}")
    acc = 0.0
    uk = np.eye(2, dtype=complex)
    for k in range(periods):
        block = base @ uk
        p = np.abs(block[:, 0, 1]) ** 2
        acc += float(p @ weights[k * n : (k + 1) * n])
        uk = u_period @ uk
    return acc / float(weights.sum())


def periodic_steady_state(params: ModelParams) -> float:
    """Period-averaged excited population of the exact periodic steady state.

    Lab-frame Bloch equation of the driven, decaying atom: the Bloch vector
    r = (x, y, z) precesses about (A cos(omega t), 0, omega0) and relaxes
    at kappa/2 (x, y) and kappa (z, towards -1).  Appending a constant 1 and
    q with dq/dt = z makes it linear in (r, 1, q), so one period map Phi of
    that 5x5 equation holds everything: its fixed point (I - Phi_rr) r0 =
    Phi_r1 is the periodic steady state, and q(T)/T is the period average
    of z.  Phi is the ordered product of the RK4 step maps, taken pairwise.
    No frame, no harmonic expansion and no settling time enter, so this is
    the ground truth for population_avg.

    The 2000 steps per period were checked against an adaptive period map
    (to 1e-12) only near resonance for A <= 8.5 omega0, where omega runs
    from omega0 up to about A / j01 and both A h and omega0 h stay below
    1e-2 for the step h = T / 2000.  Longer periods (small omega) or
    stronger drive raise the step error unchecked.
    """
    if params.kappa <= 0.0:
        raise DegenerateInputError("a periodic steady state needs kappa > 0")
    omega0, amp, omega, kappa = params.omega0, params.amplitude, params.omega, params.kappa
    period = 2.0 * math.pi / omega
    fixed = np.zeros((5, 5))
    fixed[0, :2] = (-0.5 * kappa, -omega0)
    fixed[1, :2] = (omega0, -0.5 * kappa)
    fixed[2, 2:4] = (-kappa, -kappa)
    fixed[4, 2] = 1.0

    def generator(ts: np.ndarray) -> np.ndarray:
        g = np.broadcast_to(fixed, (ts.size, 5, 5)).copy()
        drive = amp * np.cos(omega * ts)
        g[:, 1, 2] = -drive
        g[:, 2, 1] = drive
        return g

    maps = _rk4_step_propagators(generator, period, 2000)
    while len(maps) > 1:
        # later steps act on the left; an odd last step waits a round
        paired = maps[1::2] @ maps[:-1:2]
        maps = np.concatenate([paired, maps[-1:]]) if len(maps) % 2 else paired
    phi = maps[0]
    r0 = np.linalg.solve(np.eye(3) - phi[:3, :3], phi[:3, 3])
    mean_z = (phi[4, :3] @ r0 + phi[4, 3]) / period
    return float(0.5 * (1.0 + mean_z))
