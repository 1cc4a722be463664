"""Evolution operators: exact oracle, balanced-frame pipeline, and RWA closed forms.

The exact propagator undoes the rotating frame around the matrix exponential
of the time-independent Hamiltonian and includes the frame factor at the
initial time, so U(t0, t0) = 1 holds for every t0 and optical phase.  The
pipeline propagators sandwich the balanced-frame evolution between the
balanced transform and the same frame factors, carrying the tracked scalar
offsets as global phases so that the exact pipeline matches the oracle
including phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .fock import HERMITIAN_ATOL, UNITARY_ATOL, HilbertConfig, NumericalValidationError, OperatorMatrix, parity_gauge
from .hamiltonians import ModelSpec, balanced_hamiltonian, balanced_offset, free_diagonal, rotating_frame_hamiltonian
from .transforms import balanced_transform, rotating_frame_diagonal, rotating_frame_phases

# rwa_jc is the bare interaction-picture closed form, useful for inspecting
# the undressed sideband exchange
METHODS = ("exact", "pipeline_exact", "pipeline_rwa", "standard_rwa", "rwa_jc")


def _normalize_pairs(model: ModelSpec, resonant_pairs) -> list[tuple[int, int]]:
    if resonant_pairs is None:
        raise ValueError("RWA propagation needs at least one resonant (drive, mode) pair")
    if isinstance(resonant_pairs, tuple) and len(resonant_pairs) == 2 and isinstance(resonant_pairs[0], int):
        resonant_pairs = [resonant_pairs]
    pairs = [(int(j), int(k)) for j, k in resonant_pairs]
    drives = [j for j, _ in pairs]
    modes = [k for _, k in pairs]
    for j, k in pairs:
        if not 1 <= j <= model.config.n_spins:
            raise ValueError(f"drive index {j} out of range 1..{model.config.n_spins}")
        if not 1 <= k <= model.config.n_modes:
            raise ValueError(f"mode index {k} out of range 1..{model.config.n_modes}")
    if len(set(drives)) != len(drives) or len(set(modes)) != len(modes):
        raise ValueError(
            "simultaneous resonances must touch distinct drives and distinct modes; "
            "overlapping resonances have no tensor-product evolution"
        )
    return pairs


def jc_coupling(model: ModelSpec, drive: int, mode: int) -> float:
    """Balanced sideband coupling (eta_eff / Delta) nu for one (drive, mode) pair."""
    par = model.balanced()[drive - 1]
    return float(par.eta_eff_by_Delta[mode - 1] * model.chain.nu[mode - 1])


def _gauge_real(config: HilbertConfig, m: np.ndarray, atol: float) -> np.ndarray:
    """Re(P^dag m P) for the parity gauge P, rejecting m if the imaginary part exceeds atol."""
    gauge = parity_gauge(config)
    g = m * gauge  # exact: every gauge entry is 1, i, -1 or -i
    g *= gauge.conj()[:, None]
    err = np.abs(g.imag).max()
    if err > atol:
        raise NumericalValidationError(
            f"matrix is not real in the parity gauge: ||Im(P^dag M P)||_max = {err:.3e} > {atol}"
        )
    return np.ascontiguousarray(g.real)


def _real_matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for a real matrix m and a complex vector x, without a complex copy of m."""
    return m @ x.real + 1j * (m @ x.imag)


@dataclass(frozen=True, eq=False)
class _Plan:
    """U(t, t0) = conj(R_t) [T^dag] e^{-i offset tau} [e^{-i d t}] core(tau) [e^{i d t0}] [T] R_t0.

    tau = t - t0; R is the rotating frame (left out when frame is False), T the
    balanced transform and d a free diagonal.  The core is either exp(-i H tau)
    from an eigendecomposition or the banded product of closed-form sideband
    exchanges (drive, mode, g).

    An eigen plan works in the parity gauge P (fock.parity_gauge), in which H
    and T are real: eigen = (w, back) holds the eigenvalues w of the real
    symmetric P^dag H P = V' diag(w) V'^T and the real matrix back, V' for H
    alone or T'^T V' with T' = P^dag T P.  Then
    U = conj(R_t) P back e^{-i (w + offset) tau} back^T P^dag R_t0: P joins the
    frame diagonals (eigen plans always carry the frame) and the plan holds no
    transform.  back is never upcast to complex; products with it are real.

    matrix and apply each fix one association order, so their outputs are
    reproducible bit for bit.  apply costs O(dim) per time point, plus one
    O(dim^2) mat-vec with back or the transform where the plan has one; the
    frame enters per point through its 2^n_spins spin phases.
    """

    model: ModelSpec
    eigen: tuple[np.ndarray, np.ndarray] | None = None
    exchanges: tuple[tuple[int, int, float], ...] = ()
    transform: np.ndarray | None = None
    diag: np.ndarray | None = None
    offset: float = 0.0
    frame: bool = True

    def _exchange(self, x: np.ndarray, tau: float) -> np.ndarray:
        """Apply prod exp(g tau (a_mode sigma_+^drive - a_mode^dag sigma_-^drive)) to the columns of x.

        Each factor exchanges |n, e> with |n+1, g> on its (mode, drive) axes:
        e[n] <- cos(g tau sqrt(n+1)) e[n] + s[n] g[n+1], g[n] <- cos(g tau sqrt(n))
        g[n] - s[n-1] e[n-1], s[n] = sin(g tau sqrt(n+1)); the top |e> level has
        no partner under hard truncation and stays invariant.  O(dim) per column.
        """
        config = self.model.config
        y = x.reshape((config.n_max,) * config.n_modes + (2,) * config.n_spins + x.shape[1:])
        root = np.sqrt(np.arange(1, config.n_max, dtype=float))  # sqrt(n + 1), n < n_max - 1
        for j, k, g in self.exchanges:
            upper = g * tau * root
            cos_e, cos_g = np.append(np.cos(upper), 1.0), np.insert(np.cos(upper), 0, 1.0)
            s = np.sin(upper) / root * root  # (sin / sqrt(n+1)) times a's sqrt(n+1), rounded like f(n) a
            out = np.empty_like(y)  # views v (input) and w (output) end in the (mode, spin) axes
            v, w = (np.moveaxis(a, (k - 1, config.n_modes + j - 1), (-2, -1)) for a in (y, out))
            w[..., 0] = cos_e * v[..., 0]
            w[..., :-1, 0] += s * v[..., 1:, 1]
            w[..., 1] = cos_g * v[..., 1]
            w[..., 1:, 1] -= s * v[..., :-1, 0]
            y = out
        return y.reshape(x.shape)

    def _framed(self, x: np.ndarray, t: float, left: bool) -> np.ndarray:
        """x times the diagonal conj(R_t) [P] (left) or [P^dag] R_t (right), via the spin phases."""
        phases = rotating_frame_phases(self.model.drives, t)
        y = x.reshape(-1, phases.size)
        y = np.conj(phases) * y if left else phases * y
        if self.eigen is not None:
            gauge = parity_gauge(self.model.config).reshape(y.shape)
            y = gauge * y if left else gauge.conj() * y
        return y.reshape(x.shape)

    def matrix(self, t: float, t0: float = 0.0) -> OperatorMatrix:
        config, tr, d = self.model.config, self.transform, self.diag
        tau = t - t0
        if self.eigen is not None:
            w, back = self.eigen
            phase = (w + self.offset) * tau
            u = (back * np.cos(phase)) @ back.T - 1j * ((back * np.sin(phase)) @ back.T)
        elif tr is None:
            u = self._exchange(np.eye(config.dim, dtype=complex), tau)
        else:  # d sits between the transform and the core
            u = np.exp(-1j * d * t)[:, None] * self._exchange(np.exp(1j * d * t0)[:, None] * tr, tau)
            u = np.exp(-1j * self.offset * tau) * (tr.conj().T @ u)
        if self.frame:
            left = np.conj(rotating_frame_diagonal(config, self.model.drives, t))
            right = rotating_frame_diagonal(config, self.model.drives, t0)
            if tr is None and d is not None:  # no transform between: fold d into the frame
                left, right = left * np.exp(-1j * d * t), np.exp(1j * d * t0) * right
            if self.eigen is not None:  # the parity gauge of the eigen core
                gauge = parity_gauge(config)
                left, right = left * gauge, gauge.conj() * right
            u = (left[:, None] * u) * right[None, :]
        return OperatorMatrix(config, u, unitary=True)

    def apply(
        self, psi0: np.ndarray, times: Iterable[float], t0: float = 0.0
    ) -> Iterator[tuple[float, np.ndarray]]:
        """Yield (t, U(t, t0) psi0) along a time grid without forming U."""
        tr, d = self.transform, self.diag
        x = self._framed(psi0, t0, left=False) if self.frame else psi0
        if tr is not None:
            x = tr @ x
            tr_dag = tr.conj().T
        if d is not None:
            x = np.exp(1j * d * t0) * x
        if self.eigen is not None:
            w, back = self.eigen
            x = _real_matvec(back.T, x)
        for t in times:
            tau = t - t0
            if self.eigen is not None:
                y = _real_matvec(back, np.exp(-1j * (w + self.offset) * tau) * x)
            else:
                y = self._exchange(x, tau)
                if d is not None:
                    y = np.exp(-1j * d * t) * y
                if tr is not None:
                    y = np.exp(-1j * self.offset * tau) * (tr_dag @ y)
            if self.frame:
                y = self._framed(y, t, left=True)
            yield t, y


def _plan(model: ModelSpec, method: str, resonant_pairs=None) -> _Plan:
    """The propagator plan of one method; resonant_pairs feed the closed-form methods."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    config = model.config
    if method == "exact":
        h = _gauge_real(config, rotating_frame_hamiltonian(model).matrix.entries, HERMITIAN_ATOL)
        return _Plan(model, eigen=np.linalg.eigh(h))
    if method == "pipeline_exact":
        h0, flip = balanced_hamiltonian(model)
        transform = _gauge_real(config, balanced_transform(config, model.balanced()).entries, UNITARY_ATOL)
        w, v = np.linalg.eigh(_gauge_real(config, h0.matrix.entries + flip.entries, HERMITIAN_ATOL))
        return _Plan(model, eigen=(w, transform.T @ v), offset=h0.offset)
    pairs = _normalize_pairs(model, resonant_pairs)
    if method == "standard_rwa":
        if len(pairs) != 1:
            raise ValueError("standard RWA takes a single resonant pair")
        (j, k), = pairs
        g = float(model.eta_matrix()[j - 1, k - 1] * model.drives[j - 1].Omega_R)
        return _Plan(model, exchanges=((j, k, g),), diag=free_diagonal(model, [d.detuning for d in model.drives]))
    exchanges = tuple((j, k, jc_coupling(model, j, k)) for j, k in pairs)
    if method == "rwa_jc":
        return _Plan(model, exchanges=exchanges, frame=False)
    # pipeline_rwa needs only the diagonal part of the balanced Hamiltonian
    params = model.balanced()
    transform = balanced_transform(model.config, params).entries
    d0 = free_diagonal(model, [par.delta_eff for par in params])
    return _Plan(model, exchanges=exchanges, transform=transform, diag=d0, offset=balanced_offset(model))


def exact_propagator(model: ModelSpec, t: float, t0: float = 0.0) -> OperatorMatrix:
    """Oracle propagator R_t^dag exp(-i (t - t0) H) R_t0 in the lab frame.

    H is the time-independent rotating-frame Hamiltonian; the frame factors
    make the result solve the time-dependent problem with U(t0, t0) = 1.
    Exactly unitary on the truncated space.
    """
    return _plan(model, "exact").matrix(t, t0)


def rwa_jc_propagator(model: ModelSpec, drive: int, mode: int, t: float, t0: float = 0.0) -> OperatorMatrix:
    """Closed-form balanced-RWA propagator for one resonant (drive, mode) pair."""
    return rwa_jc_propagator_multi(model, [(drive, mode)], t, t0)


def rwa_jc_propagator_multi(
    model: ModelSpec, resonant_pairs: Iterable[tuple[int, int]], t: float, t0: float = 0.0
) -> OperatorMatrix:
    """Tensor product of closed-form factors, one per resonant (drive, mode) pair.

    Pairs must touch distinct drives and distinct modes, so the factors
    commute and the product order is immaterial.
    """
    return _plan(model, "rwa_jc", resonant_pairs).matrix(t, t0)


def standard_rwa_propagator(
    model: ModelSpec, drive: int, mode: int, t: float, t0: float = 0.0
) -> OperatorMatrix:
    """Conventional-RWA propagator mapped back to the lab frame.

    The closed-form exchange factor with coupling eta Omega_R is composed with
    its own interaction-picture frame exp(-i H_free t) and the rotating-frame
    factors, so it is directly comparable to the exact oracle.
    """
    return _plan(model, "standard_rwa", [(drive, mode)]).matrix(t, t0)


def pipeline_propagator(
    model: ModelSpec,
    t: float,
    t0: float = 0.0,
    mode: str = "exact",
    resonant_pairs: Sequence[tuple[int, int]] | None = None,
) -> OperatorMatrix:
    """Propagator reconstructed through the balanced-frame decomposition.

    mode="exact" exponentiates the full balanced Hamiltonian (diagonal plus
    flip part) and must reproduce the exact oracle up to the tracked offset
    phase and truncation error.  mode="rwa" substitutes the closed-form
    exchange propagator for the interaction-picture evolution.
    """
    if mode not in ("exact", "rwa"):
        raise ValueError("mode must be 'exact' or 'rwa'")
    return _plan(model, f"pipeline_{mode}", resonant_pairs).matrix(t, t0)


def turn_on_propagator(model: ModelSpec, t: float, t0: float) -> OperatorMatrix:
    """Propagator with the laser switched on at time zero, for t0 < 0 < t.

    Composes the driven evolution over [0, t] with free evolution as
    exp(i H_free t0); with t0 negative this is ordinary forward free evolution
    over [t0, 0].
    """
    if not t0 < 0.0 < t:
        raise ValueError("turn-on propagator needs t0 < 0 < t; use exact_propagator otherwise")
    free = np.exp(1j * free_diagonal(model, [model.omega_ge] * model.config.n_spins) * t0)
    u = exact_propagator(model, t, 0.0)
    return OperatorMatrix(model.config, u.entries * free[None, :], unitary=True)


def evolve_states(
    model: ModelSpec,
    psi0: np.ndarray,
    times: Sequence[float],
    method: str = "exact",
    t0: float = 0.0,
    resonant_pairs: Sequence[tuple[int, int]] | None = None,
) -> Iterator[tuple[float, np.ndarray]]:
    """Yield (t, state) along a time grid, reusing one eigendecomposition or closed form.

    Equivalent to applying the corresponding propagator at every grid time
    without forming it: O(dim) work per point for the closed-form core, plus one
    O(dim^2) mat-vec where the transform or an eigenbasis is applied.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (model.config.dim,):
        raise ValueError("initial state has wrong dimension")
    yield from _plan(model, method, resonant_pairs).apply(psi0, times, t0)
