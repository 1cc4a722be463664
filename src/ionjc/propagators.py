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

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .fock import OperatorMatrix, check_matrix, parity_gauge
from .hamiltonians import (ModelSpec, balanced_offset, free_diagonal, gauged_balanced_flip,
                           gauged_rotating_frame_hamiltonian)
from .transforms import gauged_balanced_transform, rotating_frame_phases

# rwa_jc is the bare interaction-picture closed form, useful for inspecting
# the undressed sideband exchange
METHODS = ("exact", "pipeline_exact", "pipeline_rwa", "standard_rwa", "rwa_jc")

# bytes of one block of complex states in _Plan.apply: 4 MiB holds 163 states at
# dim 1600, enough columns for level-3 BLAS while a block stays a few MiB
_BLOCK_BYTES = 4 << 20


def _normalize_pairs(model: ModelSpec, resonant_pairs) -> list[tuple[int, int]]:
    if resonant_pairs is None:
        raise ValueError("RWA propagation needs at least one resonant (drive, mode) pair")
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


def _real_matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for a real matrix m and a complex vector or block x, without a complex copy of m."""
    return m @ x.real + 1j * (m @ x.imag)


@dataclass(frozen=True, eq=False)
class _Plan:
    """U(t, t0) = conj(R_t) P [B] core(tau) [B^T] P^dag R_t0 in the parity gauge.

    tau = t - t0; R is the rotating frame (left out when frame is False) and P
    the parity gauge (fock.parity_gauge), in which the model's Hamiltonians and
    the balanced transform T are assembled real.  back is the real B: V' for
    exact, T'^T V' for pipeline_exact and T'^T for pipeline_rwa, with T' =
    P^dag T P and V' diag(w) V'^T the eigendecomposition of P^dag H P.  The
    core is e^{-i d t} X(tau) e^{i d t0}: d is w or a free diagonal plus the
    frame's scalar offset (d = 0 for rwa_jc), and X the banded product of gauged
    sideband exchanges (drive, mode, g), if any.  back is never upcast to complex.

    matrix and apply both end in _finish, conj(R_t) P [B] y, and fix one
    association order, so their outputs are reproducible bit for bit.  apply
    evolves the time grid in blocks of k = _BLOCK_BYTES // (16 dim) points,
    each block one complex (dim, k) array: O(dim) core work per point, plus
    one real GEMM pair per block where the plan has back; the frame and the
    gauge enter through the 2^n_spins spin phases of each point and a diagonal.
    """

    model: ModelSpec
    diag: np.ndarray
    back: np.ndarray | None = None
    exchanges: tuple[tuple[int, int, float], ...] = ()
    frame: bool = True

    def _exchange(self, x: np.ndarray, tau: float | np.ndarray) -> np.ndarray:
        """Apply prod exp(i g tau (a_mode sigma_+^drive + a_mode^dag sigma_-^drive)) to the columns of x.

        That is the exchange exp(g tau (a sigma_+ - a^dag sigma_-)) in the parity
        gauge: P^dag (a sigma_+ - a^dag sigma_-) P = i (a sigma_+ + a^dag sigma_-).
        Each factor exchanges |n, e> with |n+1, g> on its (mode, drive) axes:
        e[n] <- cos(g tau sqrt(n+1)) e[n] + i s[n] g[n+1], g[n] <- cos(g tau sqrt(n))
        g[n] + i s[n-1] e[n-1], s[n] = sin(g tau sqrt(n+1)); the top |e> level has
        no partner under hard truncation and stays invariant.  O(dim) per column.
        tau is one time for every column, or a vector with one time per column of
        the block x; then cos_e, cos_g and s hold one row per column.
        """
        config = self.model.config
        y = x.reshape(config.shape + x.shape[1:])
        root = np.sqrt(np.arange(1, config.n_max, dtype=float))  # sqrt(n + 1), n < n_max - 1
        tau = np.asarray(tau, dtype=float)[..., None]
        for j, k, g in self.exchanges:
            upper = g * tau * root
            cos, one = np.cos(upper), np.ones(upper.shape[:-1] + (1,))
            cos_e, cos_g = np.concatenate([cos, one], axis=-1), np.concatenate([one, cos], axis=-1)
            s = 1j * (np.sin(upper) / root * root)  # (sin / sqrt(n+1)) times a's sqrt(n+1), rounded like f(n) a
            out = np.empty_like(y)  # views v (input) and w (output) end in the (mode, spin) axes
            v, w = (np.moveaxis(a, (k - 1, config.n_modes + j - 1), (-2, -1)) for a in (y, out))
            w[..., 0] = cos_e * v[..., 0]
            w[..., :-1, 0] += s * v[..., 1:, 1]
            w[..., 1] = cos_g * v[..., 1]
            w[..., 1:, 1] += s * v[..., :-1, 0]
            y = out
        return y.reshape(x.shape)

    def _framed(self, x: np.ndarray, t: float | np.ndarray, left: bool) -> np.ndarray:
        """x times the diagonal conj(R_t) P (left) or P^dag R_t (right); t is one time or one per column of x."""
        config = self.model.config
        shape = (-1, 2**config.n_spins) + (1,) * (x.ndim - 1)
        y = x.reshape(shape[:2] + x.shape[1:])
        if self.frame:
            phases = rotating_frame_phases(self.model.drives, t)
            phases = phases.reshape(phases.shape + (1,) * (x.ndim - phases.ndim))
            y = np.conj(phases) * y if left else phases * y
        gauge = parity_gauge(config).reshape(shape)
        y = gauge * y if left else gauge.conj() * y
        return y.reshape(x.shape)

    def _core(self, x: np.ndarray, t: float | np.ndarray, t0: float) -> np.ndarray:
        """core(t - t0) times x, a vector or a block of columns.

        A vector of times t takes a vector x and returns the block with columns core(t[c] - t0) x.
        """
        t = np.asarray(t, dtype=float)
        rows = (slice(None),) + (None,) * (x.ndim - 1)
        y = np.exp(1j * self.diag * t0)[rows] * x
        if t.ndim:
            y = np.broadcast_to(y[:, None], y.shape + t.shape)
        y = self._exchange(y, t - t0)
        phases = np.exp(-1j * np.multiply.outer(self.diag, t))
        return phases.reshape(phases.shape + (1,) * (y.ndim - phases.ndim)) * y

    def _finish(self, y: np.ndarray, t: float | np.ndarray) -> np.ndarray:
        """conj(R_t) P [B] y for a core output y, a vector or a block of columns; t as in _framed."""
        if self.back is not None:
            y = _real_matvec(self.back, y)
        return self._framed(y, t, left=True)

    def matrix(self, t: float, t0: float = 0.0) -> OperatorMatrix:
        config = self.model.config
        # no local may hold the start or the unframed product while OperatorMatrix runs its check
        u = self._finish(self._core(np.eye(config.dim, dtype=complex) if self.back is None else self.back.T, t, t0), t)
        u *= self._framed(np.ones(config.dim, dtype=complex), t0, left=False)
        return OperatorMatrix(config, u, unitary=True)

    def apply(
        self, psi0: np.ndarray, times: Iterable[float], t0: float = 0.0
    ) -> Iterator[tuple[float, np.ndarray]]:
        """Yield (t, U(t, t0) psi0) along a time grid without forming U, one (dim, k) block of states at a time."""
        x = self._framed(psi0, t0, left=False)
        if self.back is not None:
            x = _real_matvec(self.back.T, x)
        times, size = iter(times), max(1, _BLOCK_BYTES // (16 * self.model.config.dim))
        while block := list(itertools.islice(times, size)):
            ts = np.array(block, dtype=float)
            yield from zip(block, self._finish(self._core(x, ts, t0), ts).T.copy())


def _plan(model: ModelSpec, method: str, resonant_pairs=None) -> _Plan:
    """The propagator plan of one method; resonant_pairs feed the closed-form methods."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    config = model.config
    if method == "exact":
        w, v = np.linalg.eigh(check_matrix(gauged_rotating_frame_hamiltonian(model), hermitian=True))
        return _Plan(model, diag=w, back=v)
    if method == "pipeline_exact":
        params = model.balanced()
        transform = check_matrix(gauged_balanced_transform(config, params), unitary=True)
        h = gauged_balanced_flip(model)
        h[np.diag_indices(config.dim)] += free_diagonal(model, [par.delta_eff for par in params])
        w, v = np.linalg.eigh(check_matrix(h, hermitian=True))
        return _Plan(model, diag=w + balanced_offset(model), back=transform.T @ v)
    pairs = _normalize_pairs(model, resonant_pairs)
    if method == "standard_rwa":
        if len(pairs) != 1:
            raise ValueError("standard RWA takes a single resonant pair")
        (j, k), = pairs
        g = float(model.eta_matrix()[j - 1, k - 1] * model.drives[j - 1].Omega_R)
        return _Plan(model, diag=free_diagonal(model, [d.detuning for d in model.drives]), exchanges=((j, k, g),))
    exchanges = tuple((j, k, jc_coupling(model, j, k)) for j, k in pairs)
    if method == "rwa_jc":
        return _Plan(model, diag=np.zeros(config.dim), exchanges=exchanges, frame=False)
    # pipeline_rwa needs only the diagonal part of the balanced Hamiltonian
    params = model.balanced()
    transform = check_matrix(gauged_balanced_transform(config, params), unitary=True)
    d0 = free_diagonal(model, [par.delta_eff for par in params]) + balanced_offset(model)
    return _Plan(model, diag=d0, back=transform.T, exchanges=exchanges)


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
    without forming it.  The grid is evolved in blocks of k = _BLOCK_BYTES //
    (16 dim) points: O(dim) work per point for the closed-form core, plus one
    real GEMM pair per block where the transform or an eigenbasis is applied.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (model.config.dim,):
        raise ValueError("initial state has wrong dimension")
    yield from _plan(model, method, resonant_pairs).apply(psi0, times, t0)
