"""Floquet treatment of the driven two-level system.

The time-periodic Hamiltonian H(t) = (omega0/2) sigma_z + (A/2) cos(omega t)
sigma_x is mapped onto the static block-tridiagonal Floquet matrix in the
basis |gamma, l> (gamma the bare level, l the Fourier index): diagonal blocks
(omega0/2) sigma_z + l*omega*I, off-diagonal blocks (A/4) sigma_x between
adjacent l.  That matrix splits into two tridiagonal parity chains with
mirrored spectra; one of them, solved by _chain for solve_floquet and the
Floquet shift alike, is the only Floquet eigensolver here: it gives the
resonant quasienergy pair, their omega0-derivative (which gives the
time-averaged transition probability FloquetSolution.pbar) and their gap.
The eigenphases of the one-period propagator are the independent oracle for the quasienergies, and the period map of the damped lab-frame
Bloch equation gives the exact periodic steady state; both take the RK4
prefix products of _period_maps with period_steps(params) steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chrw import ModelParams
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    DomainError,
    NonUnitaryError,
)

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def default_truncation(params: ModelParams) -> int:
    """The Fourier cutoff _truncation(A, omega) of a chain at params."""
    return _truncation(params.amplitude, params.omega)


def _truncation(amplitude: float, omega: float) -> int:
    """Fourier cutoff N = ceil(A/omega) + 10.  Floquet components fall off
    like J_l(A/2omega), so N leaves at least A/2omega + 10 blocks of tail;
    against N + 30 (omega/omega0 in [0.1, 10], A/omega0 <= 50) q moved by
    at most 5.4e-14 omega0 and its slope by 1.1e-15."""
    return int(math.ceil(amplitude / omega)) + 10


def fold_to_zone(q: float, omega: float) -> float:
    """Fold a quasienergy into the first Brillouin zone (-omega/2, omega/2]."""
    return 0.5 * omega - (0.5 * omega - q) % omega


def circle_gap(q1: float, q2: float, omega: float) -> float:
    """Distance between two quasienergies on the zone circle of size omega."""
    d = math.fmod(abs(q1 - q2), omega)
    return min(d, omega - d)


def _chain_layout(n_trunc: int) -> tuple[np.ndarray, int]:
    """Site map of the parity chain {|up, even l>, |down, odd l>}.

    Site i holds l = i - n_trunc, and the up sites are [up::2] with up =
    n_trunc % 2.  base is l on up sites and l - 1 on down sites, so the
    shifted diagonal at drive omega = omega0 + s is base*omega, plus s on
    the down sites.
    """
    up = n_trunc % 2
    base = np.arange(-n_trunc, n_trunc + 1, dtype=float)
    base[1 - up :: 2] -= 1.0
    return base, up


def build_floquet_matrix(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the parity chain, 2N + 1 sites with
    N = default_truncation(params).

    The Floquet matrix in the basis |gamma, l> has diagonal
    (omega0/2) sigma_z + l*omega and couples |up,l> only to |down,l+-1>
    with A/4, so the sites |up, even l>, |down, odd l> (l in [-N, N]) form
    an exact tridiagonal block; the other parity chain has the negated
    spectrum.  With the diagonal shifted by -omega0/2 it reads l*omega on
    up sites and (l-1)*omega + s on down sites, s = omega - omega0, so the
    resonant pair |up,0>, |down,1> is detuned by exactly s.
    """
    n_trunc = default_truncation(params)
    base, up = _chain_layout(n_trunc)
    diag = base * params.omega
    diag[1 - up :: 2] += params.omega - params.omega0
    return diag, np.full(2 * n_trunc, 0.25 * params.amplitude)


@dataclass(frozen=True)
class FloquetSolution:
    """The lower resonant branch of the parity chain.

    quasienergy is q = e_N + omega0/2 from chain eigenvalue N (ascending,
    from 0), the lower member of the resonant pair; the mirror chain holds
    -q.  dq_domega0 = sum over up sites of |v|^2 - 1/2 is its slope in
    omega0 at fixed omega.
    """

    params: ModelParams
    n_trunc: int
    quasienergy: float
    dq_domega0: float

    @property
    def pbar(self) -> float:
        """Transition-probability average in the form (1 - 4 (dq/domega0)^2)/2.

        This is the standard resonance diagnostic: it peaks at exactly 1/2
        when the drive hits the shifted resonance.  Away from resonance it
        keeps only the incoherent part of the time average.
        """
        return 0.5 * (1.0 - 4.0 * self.dq_domega0 * self.dq_domega0)

    @property
    def gap(self) -> float:
        """Zone-circle distance between the branch pair q and -q."""
        return circle_gap(self.quasienergy, -self.quasienergy, self.params.omega)


def solve_floquet(params: ModelParams) -> FloquetSolution:
    """Eigenpair N of the parity chain cut at N = default_truncation(params):
    the quasienergy and its slope.

    A tridiagonal matrix with nonzero off-diagonals has no crossings, so
    eigenvalue N is always the lower member of the resonant pair and needs
    no tracking.
    """
    n_trunc = default_truncation(params)
    w, slope = _chain(params.amplitude, n_trunc)(params.omega, params.omega - params.omega0)
    return FloquetSolution(params, n_trunc, float(w[0]) + 0.5 * params.omega0, slope)


def _chain(amplitude: float, n_trunc: int) -> Callable[..., tuple[np.ndarray, float]]:
    """The parity-chain eigensolver: solve(omega, s, count=1) -> (w, slope)
    on the chain of 2 n_trunc + 1 sites (n_trunc >= 1) at drive amplitude
    A, diagonal base*omega plus s = omega - omega0 on the down sites.  w is
    unsliced: w[:count] are eigenvalues N .. N + count - 1 (ascending, from
    0), and slope, the up-site weight minus 1/2 by one BLAS dot, is
    dq/domega0 of eigenvalue N.

    dstebz bisection (range 'I', block order, abstol 0) then dstein inverse
    iteration are the calls eigh_tridiagonal(select='i') makes, so at
    count = 1 the eigenpair is bitwise its own; a LAPACK failure raises
    ConvergenceError.  The routines, off-diagonal and diagonal buffer are
    set up once per chain, here, so importing the package does not load
    scipy.linalg.
    """
    from scipy.linalg.lapack import dstebz, dstein

    base, up = _chain_layout(n_trunc)
    off = np.full(2 * n_trunc, 0.25 * amplitude)
    diag = np.empty_like(base)
    down = diag[1 - up :: 2]

    def solve(omega: float, s: float, count: int = 1) -> tuple[np.ndarray, float]:
        np.multiply(base, omega, out=diag)
        np.add(down, s, out=down)
        _, w, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 1.0, n_trunc + 1, n_trunc + count, 0.0, "B")
        if info != 0:
            raise ConvergenceError(f"dstebz bisection for eigenvalue {n_trunc} failed (info={info})")
        vecs, info = dstein(diag, off, w[:1], iblock, isplit)
        if info != 0:
            raise ConvergenceError(f"dstein inverse iteration for eigenvalue {n_trunc} failed (info={info})")
        v = vecs[up::2, 0]
        return w, float(v @ v) - 0.5

    return solve


def branch_gap(params: ModelParams) -> float:
    """Zone-circle distance between the two resonant branches q and -q."""
    return solve_floquet(params).gap


# ---------------------------------------------------------------------------
# one-period propagators: the coherent monodromy oracle and the damped
# period map, both RK4 with period_steps(params) steps per drive period
def period_steps(params: ModelParams) -> int:
    """RK4 steps per drive period, n = max(2000, ceil(300 max(A, omega0)/omega)),
    so A h and omega0 h stay <= 2 pi/300 for the step h = T/n.  Above 2**17
    steps (about 250 MB for the 5 x 5 map) it raises DomainError before
    anything is allocated."""
    steps = 300.0 * max(params.amplitude, params.omega0) / params.omega
    if steps > 2**17:
        raise DomainError(f"period map needs {steps:.3g} RK4 steps, above the cap of 2**17")
    return max(2000, math.ceil(steps))


def _period_maps(g0: np.ndarray, g1: np.ndarray, omega: float, n_steps: int) -> np.ndarray:
    """RK4 prefix products for dY/dt = (g0 + cos(omega t) g1) Y over one
    period T = 2 pi/omega: row k advances Y from t = 0 to (k + 1) T/n_steps,
    so the last row is the period map.  The step maps are built as one batch.
    """
    h = 2.0 * math.pi / omega / n_steps
    t0 = np.arange(n_steps) * h
    b1, b2, b4 = (g0 + np.cos(omega * ts)[:, None, None] * g1 for ts in (t0, t0 + 0.5 * h, t0 + h))
    eye = np.broadcast_to(np.eye(b1.shape[-1], dtype=b1.dtype), b1.shape)
    k2 = b2 @ (eye + 0.5 * h * b1)
    k3 = b2 @ (eye + 0.5 * h * k2)
    k4 = b4 @ (eye + h * k3)
    return _ordered_products(eye + (h / 6.0) * (b1 + 2.0 * k2 + 2.0 * k3 + k4))


def _ordered_products(maps: np.ndarray) -> np.ndarray:
    """Prefix products out[k] = maps[k] @ ... @ maps[0] of a stack of any
    length: pair neighbours, recurse on the half-length stack, then fill in
    the even entries with one batched product (about 2n products in all).
    """
    if len(maps) == 1:
        return maps
    out = maps.copy()
    out[1::2] = _ordered_products(maps[1::2] @ maps[:-1:2])
    out[2::2] = maps[2::2] @ out[1:-1:2]
    return out


def _propagators(params: ModelParams) -> np.ndarray:
    """RK4 propagators U(t_1) .. U(T) of the coherent flow, not projected."""
    g0, g1 = -0.5j * params.omega0 * _SIGMA_Z, -0.5j * params.amplitude * _SIGMA_X
    return _period_maps(g0, g1, params.omega, period_steps(params))


def _polar_step(us: np.ndarray) -> np.ndarray:
    """One Newton-Schulz polar projection U <- U (3I - U^H U)/2 of one U or a
    stack, which squares the defect the RK4 steps accumulate."""
    return us @ (1.5 * np.eye(2) - 0.5 * (np.swapaxes(us.conj(), -1, -2) @ us))


def propagator_samples(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Times and propagators U(t_k) on one drive period, t_k = k*T/period_steps,
    prefix products of the RK4 step maps, all projected at once."""
    us = _polar_step(np.concatenate([np.eye(2, dtype=complex)[None], _propagators(params)]))
    ts = np.linspace(0.0, 2.0 * math.pi / params.omega, len(us))
    return ts, us


def monodromy_quasienergies(params: ModelParams) -> tuple[float, float]:
    """Quasienergy pair from the eigenphases of the one-period propagator.

    U(T) eigenvalues exp(-i q T) give q = -arg(lambda)/T, folded into the
    first zone.  A step too coarse for the drive would leave a unitarity
    defect that one projection cannot hide: above 1e-10 it raises
    NonUnitaryError rather than return a poor gap.
    """
    u_t = _polar_step(_propagators(params)[-1])
    defect = float(np.max(np.abs(u_t.conj().T @ u_t - np.eye(2))))
    if defect > 1e-10:
        raise NonUnitaryError(f"one-period propagator unitarity defect {defect:.3e} > 1e-10")
    period = 2.0 * math.pi / params.omega
    lam = np.linalg.eigvals(u_t)
    qs = sorted(fold_to_zone(float(-np.angle(x) / period), params.omega) for x in lam)
    return qs[0], qs[1]


def monodromy_gap(params: ModelParams) -> float:
    """Zone-circle gap between the two monodromy quasienergies."""
    q1, q2 = monodromy_quasienergies(params)
    return circle_gap(q1, q2, params.omega)


def periodic_steady_state(params: ModelParams) -> float:
    """Period-averaged excited population of the exact periodic steady state.

    Lab-frame Bloch equation of the driven, decaying atom: the Bloch vector
    r = (x, y, z) precesses about (A cos(omega t), 0, omega0) and relaxes
    at kappa/2 (x, y) and kappa (z, towards -1).  Appending a constant 1 and
    q with dq/dt = z makes it linear in (r, 1, q), so one period map Phi of
    that 5x5 equation holds everything: its fixed point (I - Phi_rr) r0 =
    Phi_r1 is the periodic steady state, and q(T)/T is the period average
    of z.  Phi is the last prefix product of the RK4 step maps.
    No frame, no harmonic expansion and no settling time enter, so this is
    the ground truth for population_avg.

    With period_steps steps it moves by at most 2.2e-8 against 8 times as
    many on omega in [0.1, 10] x A in [0.1, 1000] (omega0 = 1, kappa = 2e-3).
    """
    if params.kappa <= 0.0:
        raise DegenerateInputError("a periodic steady state needs kappa > 0")
    omega0, amp, kappa = params.omega0, params.amplitude, params.kappa
    fixed = np.zeros((5, 5))
    fixed[0, :2] = (-0.5 * kappa, -omega0)
    fixed[1, :2] = (omega0, -0.5 * kappa)
    fixed[2, 2:4] = (-kappa, -kappa)
    fixed[4, 2] = 1.0
    drive = np.zeros((5, 5))
    drive[1, 2], drive[2, 1] = -amp, amp
    phi = _period_maps(fixed, drive, params.omega, period_steps(params))[-1]
    r0 = np.linalg.solve(np.eye(3) - phi[:3, :3], phi[:3, 3])
    mean_z = (phi[4, :3] @ r0 + phi[4, 3]) / (2.0 * math.pi / params.omega)
    return float(0.5 * (1.0 + mean_z))
