"""Normal modes and Lamb-Dicke couplings of a linear chain of equal ions.

Lengths are measured in the standard Coulomb length scale of the axial trap,
so the equilibrium conditions and the mode Hessian are dimensionless; mode
frequencies come out in units of the axial trap frequency nu_1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NEWTON_TOL = 1e-13  # equilibrium_positions stops once max |residual| is below this
NEWTON_MAX_ITER = 200

@dataclass(frozen=True, eq=False)
class LaserDrive:
    """One traveling-wave laser beam addressing one ion.

    Frequencies are in units of the axial trap frequency nu_1; k_L is in the
    inverse of the dimensionless length unit, so k_L cos(phi_beam) /
    sqrt(2 mu nu_1) is the dimensionless Lamb-Dicke prefactor.

    Parameters
    ----------
    ion : int
        1-based index of the addressed ion in the chain.
    Omega_R : float
        Rabi frequency (dipole moment times field amplitude), >= 0.
    omega_L : float
        Laser frequency.
    k_L : float
        Wavevector magnitude, > 0.
    phi_beam : float
        Angle between the trap axis and the wavevector.
    phase : float
        Initial optical phase of the beam.
    omega_ge : float
        Atomic transition frequency (shared across all drives of a model).
    """

    ion: int
    Omega_R: float
    omega_L: float
    k_L: float
    phi_beam: float = 0.0
    phase: float = 0.0
    omega_ge: float = 0.0

    def __post_init__(self):
        if self.ion < 1:
            raise ValueError("ion index must be >= 1")
        if self.Omega_R < 0:
            raise ValueError("Omega_R must be >= 0")
        if self.k_L <= 0:
            raise ValueError("k_L must be > 0")

    @property
    def detuning(self) -> float:
        """Ion-laser detuning delta = omega_ge - omega_L."""
        return self.omega_ge - self.omega_L


def equilibrium_residual(u: np.ndarray) -> np.ndarray:
    """Gradient of the dimensionless trap-plus-Coulomb potential at u."""
    u = np.asarray(u, dtype=float)
    d = u[:, None] - u[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv2 = np.where(np.eye(len(u), dtype=bool), 0.0, np.sign(d) / d**2)
    return u - inv2.sum(axis=1)


def _hessian(u: np.ndarray) -> np.ndarray:
    d = np.abs(u[:, None] - u[None, :])
    with np.errstate(divide="ignore"):
        inv3 = np.where(np.eye(len(u), dtype=bool), 0.0, 2.0 / d**3)
    return np.diag(1.0 + inv3.sum(axis=1)) - inv3


def equilibrium_positions(n_ions: int) -> np.ndarray:
    """Dimensionless equilibrium positions of n_ions in a harmonic axial trap.

    Solves u_m - sum_{n<m} (u_m - u_n)^-2 + sum_{n>m} (u_m - u_n)^-2 = 0 by
    damped Newton iteration from a uniformly spaced seed.  Positions come out
    strictly increasing and antisymmetric about the trap center.

    Raises
    ------
    RuntimeError
        If Newton iteration does not converge (not expected for n_ions <= 10).
    """
    if n_ions < 1:
        raise ValueError("n_ions must be >= 1")
    if n_ions == 1:
        return np.zeros(1)
    # uniform seed with the c / N^0.56 spacing heuristic
    u = (np.arange(n_ions) - (n_ions - 1) / 2.0) * (2.0 / n_ions**0.56)
    for _ in range(NEWTON_MAX_ITER):
        res = equilibrium_residual(u)
        if np.abs(res).max() < NEWTON_TOL:
            break
        step = np.linalg.solve(_hessian(u), res)
        lam = 1.0
        base = np.linalg.norm(res)
        while lam > 2**-30:
            trial = u - lam * step
            if np.all(np.diff(trial) > 0) and np.linalg.norm(equilibrium_residual(trial)) < base:
                u = trial
                break
            lam /= 2.0
        else:
            raise RuntimeError("Newton step rejected; bad seed for equilibrium positions")
    else:
        raise RuntimeError(f"equilibrium positions did not converge for N = {n_ions}")
    u = (u - u[::-1]) / 2.0  # enforce exact reflection antisymmetry
    if np.abs(equilibrium_residual(u)).max() > 1e-12:
        raise RuntimeError("equilibrium residual above tolerance after symmetrization")
    return u


def normal_modes(n_ions: int) -> tuple[np.ndarray, np.ndarray]:
    """Dimensionless mode matrix M and mode frequencies in units of nu_1.

    Diagonalizes the Hessian of the trap-plus-Coulomb potential at
    equilibrium.  Columns are sorted by ascending frequency; the first mode is
    the center-of-mass mode (frequency 1), the second the breathing mode
    (frequency sqrt(3) for every N >= 2).  Eigenvector signs are fixed so each
    column sums positive, falling back to a positive leading component for the
    antisymmetric modes whose column sum vanishes.

    The displacement of ion j is x_j = (2 mu nu_1)^(-1/2) sum_p M_jp (a_p +
    a_p^dag) with M_jp = s_jp sqrt(nu_1 / nu_p), s the orthonormal eigenvector
    matrix.  M is generally not symmetric; only its rows enter the Lamb-Dicke
    couplings.

    Returns
    -------
    M : ndarray, shape (N, N)
        Dimensionless mode matrix, rows indexed by ion.
    nu : ndarray, shape (N,)
        Mode frequencies in units of nu_1, ascending.
    """
    u = equilibrium_positions(n_ions)
    w, s = np.linalg.eigh(_hessian(u))
    nu = np.sqrt(w)
    for p in range(n_ions):
        col = s[:, p]
        total = col.sum()
        if abs(total) > 1e-8:
            if total < 0:
                s[:, p] = -col
        else:
            lead = col[np.abs(col) > 1e-8][0]
            if lead < 0:
                s[:, p] = -col
    m = s / np.sqrt(nu)[None, :]
    return m, nu


@dataclass(frozen=True, eq=False)
class ChainModel:
    """Static description of the ion chain and its normal modes."""

    N: int
    mu: float
    nu1: float
    M: np.ndarray
    nu: np.ndarray

    @classmethod
    def build(cls, n_ions: int, mu: float = 0.5, nu1: float = 1.0) -> "ChainModel":
        """Solve the chain for n_ions equal ions of mass mu in a trap at nu1.

        The default mu = 0.5, nu1 = 1 makes sqrt(2 mu nu1) = 1, so a drive's
        Lamb-Dicke prefactor is simply k_L cos(phi_beam).
        """
        if mu <= 0 or nu1 <= 0:
            raise ValueError("mu and nu1 must be positive")
        m, nu = normal_modes(n_ions)
        return cls(N=n_ions, mu=mu, nu1=nu1, M=m, nu=nu)


def lamb_dicke_matrix(chain: ChainModel, drives) -> np.ndarray:
    """Lamb-Dicke rows eta_jp = (k_L cos(phi) / sqrt(2 mu nu1)) M_jp.

    One row per drive, ordered like the drive list; columns run over modes.
    """
    rows = []
    for drive in drives:
        if not 1 <= drive.ion <= chain.N:
            raise ValueError(f"drive targets ion {drive.ion}, chain has {chain.N}")
        prefactor = drive.k_L * np.cos(drive.phi_beam) / np.sqrt(2.0 * chain.mu * chain.nu1)
        rows.append(prefactor * chain.M[drive.ion - 1, :])
    return np.array(rows)
