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
The eigenphases of the one-period propagator, a product of closed-form
SU(2) Magnus steps, are the independent oracle for the quasienergies, and a
matrix continued fraction over the Fourier blocks of the damped lab-frame
Bloch equation gives its exact periodic steady state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chrw import ModelParams
from .errors import ConvergenceError, DegenerateInputError, DomainError

__all__ = ["FloquetSolution", "branch_gap", "circle_gap", "default_truncation", "fold_to_zone",
    "monodromy_gap", "monodromy_quasienergies", "periodic_steady_state", "solve_floquet"]


def default_truncation(amplitude: float, omega: float) -> int:
    """Fourier cutoff N = ceil(A/omega) + 10 of the parity chain at drive
    amplitude A and frequency omega.  Floquet components fall off like
    J_l(A/2omega), so N leaves at least A/2omega + 10 blocks of tail;
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
    """Diagonal and off-diagonal of the parity chain at params, 2N + 1
    sites with N = default_truncation(A, omega).

    The Floquet matrix in the basis |gamma, l> has diagonal
    (omega0/2) sigma_z + l*omega and couples |up,l> only to |down,l+-1>
    with A/4, so the sites |up, even l>, |down, odd l> (l in [-N, N]) form
    an exact tridiagonal block; the other parity chain has the negated
    spectrum.  With the diagonal shifted by -omega0/2 it reads l*omega on
    up sites and (l-1)*omega + s on down sites, s = omega - omega0, so the
    resonant pair |up,0>, |down,1> is detuned by exactly s.
    """
    n_trunc = default_truncation(params.amplitude, params.omega)
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
    """Eigenpair N of the parity chain cut at N = default_truncation(A, omega):
    the quasienergy and its slope.

    A tridiagonal matrix with nonzero off-diagonals has no crossings, so
    eigenvalue N is always the lower member of the resonant pair and needs
    no tracking.
    """
    n_trunc = default_truncation(params.amplitude, params.omega)
    w, slope = _chain(params.amplitude, n_trunc)(params.omega, params.omega - params.omega0)
    return FloquetSolution(params, n_trunc, float(w[0]) + 0.5 * params.omega0, slope)


def _chain(amplitude: float, n_trunc: int) -> Callable[..., tuple[np.ndarray, float]]:
    """The parity-chain eigensolver: solve(omega, s, count=1, abstol=0.0) ->
    (w, slope) on the chain of 2 n_trunc + 1 sites (n_trunc >= 1) at drive
    amplitude A, diagonal base*omega plus s = omega - omega0 on the down
    sites.  w is unsliced: w[:count] are eigenvalues N .. N + count - 1
    (ascending, from 0), and slope, the up-site weight minus 1/2 by one
    BLAS dot, is dq/domega0 of eigenvalue N.

    dstebz bisection (range 'I', block order, abstol) then dstein inverse
    iteration are the calls eigh_tridiagonal(select='i') makes, so at
    count = 1 and abstol 0 (to the last ulp) the eigenpair is bitwise its
    own.  abstol > 0 stops bisecting at that width, for a caller that reads
    only the slope: the vector's error falls like (abstol/gap)^k over k
    inverse iterations.  A LAPACK failure raises ConvergenceError.  The
    routines, off-diagonal and diagonal buffer are set up once per chain,
    here, so importing the package does not load scipy.linalg.
    """
    from scipy.linalg.lapack import dstebz, dstein

    base, up = _chain_layout(n_trunc)
    off = np.full(2 * n_trunc, 0.25 * amplitude)
    diag = np.empty_like(base)
    down = diag[1 - up :: 2]

    def solve(omega: float, s: float, count: int = 1, abstol: float = 0.0) -> tuple[np.ndarray, float]:
        np.multiply(base, omega, out=diag)
        np.add(down, s, out=down)
        _, w, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 1.0, n_trunc + 1, n_trunc + count, abstol, "B")
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
# the two exact references: the coherent one-period propagator from closed-
# form Magnus steps, and the damped periodic steady state from a continued
# fraction over Fourier blocks
def period_steps(params: ModelParams) -> int:
    """Magnus steps per drive period, n = max(2000, ceil(300 max(A, omega0)/omega)),
    so A h and omega0 h stay <= 2 pi/300 for the step h = T/n.  Above 2**19
    steps (U(T) there takes about 0.2 s and 100 MB) it raises DomainError
    before anything is allocated."""
    steps = 300.0 * max(params.amplitude, params.omega0) / params.omega
    if steps > 2**19:
        raise DomainError(f"period map needs {steps:.3g} steps, above the cap of 2**19")
    return max(2000, math.ceil(steps))


def _magnus_steps(params: ModelParams) -> np.ndarray:
    """The period_steps(params) step propagators of i dU/dt = H(t) U over one
    period, each the closed-form exponential of a fourth-order Magnus step.

    With H = h.sigma, h = (A cos(omega t)/2, 0, omega0/2), sampled at the two
    Gauss points h1, h2 of a step dt, the step is exp(-i v.sigma) with v =
    (dt/2)(h1 + h2) + (sqrt(3) dt^2/6)(h2 x h1), that is cos|v| - i
    sin|v| (v/|v|).sigma: unitary to rounding.
    """
    n_steps = period_steps(params)
    dt = 2.0 * math.pi / params.omega / n_steps
    mid, half_gauss = (np.arange(n_steps) + 0.5) * dt, dt / (2.0 * math.sqrt(3.0))
    a1, a2 = (0.5 * params.amplitude * np.cos(params.omega * (mid + d)) for d in (-half_gauss, half_gauss))
    vx = 0.5 * dt * (a1 + a2)
    vy = (math.sqrt(3.0) / 12.0) * dt * dt * params.omega0 * (a1 - a2)
    vz = 0.5 * dt * params.omega0
    norm = np.sqrt(vx * vx + vy * vy + vz * vz)
    sinc = np.sinc(norm / math.pi)
    diag, off = np.cos(norm) - 1j * sinc * vz, -sinc * (vy + 1j * vx)
    return np.stack([diag, off, -off.conj(), diag.conj()], axis=-1).reshape(n_steps, 2, 2)


def propagator_samples(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Times and propagators U(t_k) on one drive period, t_k = k*T/period_steps,
    the Magnus steps multiplied in sequence."""
    us = np.concatenate([np.eye(2, dtype=complex)[None], _magnus_steps(params)])
    for k in range(1, len(us)):
        us[k] = us[k] @ us[k - 1]
    ts = np.linspace(0.0, 2.0 * math.pi / params.omega, len(us))
    return ts, us


def _period_map(params: ModelParams) -> np.ndarray:
    """U(T), the product of the Magnus steps by pairwise halving: multiply
    neighbours, carry an odd last step into the next round, and repeat until
    one matrix is left, so no prefix is kept."""
    u = _magnus_steps(params)
    while len(u) > 1:
        pairs = u[1::2] @ u[:-1:2]
        u = np.concatenate([pairs, u[-1:]]) if len(u) % 2 else pairs
    return u[0]


def monodromy_quasienergies(params: ModelParams) -> tuple[float, float]:
    """Quasienergy pair from the eigenphases of the one-period propagator.

    U(T) eigenvalues exp(-i q T) give q = -arg(lambda)/T, folded into the
    first zone.
    """
    lam = np.linalg.eigvals(_period_map(params))
    period = 2.0 * math.pi / params.omega
    qs = sorted(fold_to_zone(float(-np.angle(x) / period), params.omega) for x in lam)
    return qs[0], qs[1]


def monodromy_gap(params: ModelParams) -> float:
    """Zone-circle gap between the two monodromy quasienergies."""
    q1, q2 = monodromy_quasienergies(params)
    return circle_gap(q1, q2, params.omega)


def _harmonic_cutoff(amplitude: float, omega: float) -> int:
    """Fourier cutoff K = ceil(x + 4 x^(1/3)) + 20, x = A/omega, of the steady
    state's continued fraction: the blocks r_k fall off like J_k(x) past
    k ~ x, whose turning-point width grows as x^(1/3).  Against K + 40
    P-bar moved by at most 2.8e-16 (omega0 in {0.3, 1, 7}, omega in
    [0.1, 10], A in [0.1, 1000], A/omega <= 1000, kappa in {2e-3, 0.1})."""
    x = amplitude / omega
    return math.ceil(x + 4.0 * x ** (1.0 / 3.0)) + 20


def periodic_steady_state(params: ModelParams) -> float:
    """Period-averaged excited population of the exact periodic steady state.

    Lab-frame Bloch equation of the driven, decaying atom: the Bloch vector
    r = (x, y, z) precesses about (A cos(omega t), 0, omega0) and relaxes
    at kappa/2 (x, y) and kappa (z, towards -1), dr/dt = (G0 + cos(omega t)
    G1) r + c.  Its periodic solution r = sum_k r_k exp(i k omega t) obeys
    (i k omega - G0) r_k - B (r_(k-1) + r_(k+1)) = c delta_k0 with B = G1/2
    and r_(-k) = conj(r_k).  The backward matrix continued fraction S_k =
    (i k omega - G0 - B S_(k+1))^-1 B from k = _harmonic_cutoff down to 1
    gives r_1 = S_1 r_0, so (-G0 - 2 B Re S_1) r_0 = c, and z_0 is the period
    average of z.  No frame, no time step and no settling time enter, so
    this is the ground truth for population_avg.
    """
    if params.kappa <= 0.0:
        raise DegenerateInputError("a periodic steady state needs kappa > 0")
    omega0, kappa = params.omega0, params.kappa
    g0 = np.array([[-0.5 * kappa, -omega0, 0.0], [omega0, -0.5 * kappa, 0.0], [0.0, 0.0, -kappa]])
    b = np.zeros((3, 3))
    b[1, 2], b[2, 1] = -0.5 * params.amplitude, 0.5 * params.amplitude
    ks = np.arange(_harmonic_cutoff(params.amplitude, params.omega), 0, -1)
    s = np.zeros((3, 3), dtype=complex)
    for diag in (1j * params.omega * ks)[:, None, None] * np.eye(3) - g0:
        s = np.linalg.solve(diag - b @ s, b)
    r0 = np.linalg.solve(-g0 - 2.0 * b @ s.real, np.array([0.0, 0.0, -kappa]))
    return float(0.5 * (1.0 + r0[2]))
