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

from .fock import (COLUMN_BLOCK, UNITARY_ATOL, HilbertConfig, NumericalValidationError, OperatorMatrix,
                   check_matrix, parity_gauge)
from .hamiltonians import (ModelSpec, balanced_offset, free_axes, free_diagonal, gauged_balanced_flip,
                           gauged_rotating_frame_hamiltonian)
from .transforms import FactoredTransform, factored_balanced_transform, rotating_frame_phases

# the methods that take resonant (drive, mode) pairs; rwa_jc is the bare
# interaction-picture closed form, useful for inspecting the undressed sideband exchange
RWA_METHODS = ("pipeline_rwa", "standard_rwa", "rwa_jc")
METHODS = ("exact", "pipeline_exact") + RWA_METHODS

# bytes of one block of complex states in _Plan.apply: 4 MiB holds 163 states at
# dim 1600, enough columns for level-3 BLAS while a block stays a few MiB
_BLOCK_BYTES = 4 << 20


def _normalize_pairs(model: ModelSpec, resonant_pairs) -> list[tuple[int, int]]:
    if resonant_pairs is None:
        raise ValueError("RWA propagation needs at least one resonant (drive, mode) pair")
    pairs = [tuple(pair) for pair in resonant_pairs]
    if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for pair in pairs for i in pair):
        raise ValueError(f"resonant pairs {pairs} must hold integer (drive, mode) indices")
    pairs = [(int(j), int(k)) for j, k in pairs]
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
    """m @ x for a real matrix m and a complex block x, without a complex copy of m.

    One real GEMM on the interleaved float view of x, (dim, 2k) with the real and
    imaginary part of each column side by side; x is copied only if not C-contiguous.
    """
    x = np.ascontiguousarray(x)
    return (m @ x.view(float).reshape(len(x), -1)).view(complex).reshape(x.shape)


def _unit_columns(dim: int, index: np.ndarray) -> np.ndarray:
    """The identity's columns I[:, index], C-ordered, built without the dim x dim identity."""
    out = np.zeros((dim, index.size), dtype=complex)
    out[index, np.arange(index.size)] = 1.0
    return out


def _certified(config: HilbertConfig, u: np.ndarray) -> OperatorMatrix:
    """A plan's dense propagator u as a unitary-tagged OperatorMatrix, its real factors checked before u was built.

    The frame, the gauge and the core's phases are unimodular diagonals, each
    exchange is a product of 2 x 2 rotations and T's factors were certified
    with the plan, so the eigenbasis V' is u's one other inexact factor and
    U^dag U - I is their real residuals up to rounding (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., on products of
    orthogonal matrices).  What is left is u's column norms, the diagonal of
    U^dag U: O(dim^2), and they fail on any non-finite entry, a NaN frame phase say.
    """
    parts = u.view(float).reshape(config.dim, config.dim, 2)  # real and imaginary part of each entry
    err = np.abs(np.einsum("ijk,ijk->j", parts, parts) - 1.0).max()
    if not err <= UNITARY_ATOL:  # NaN-safe: a NaN residual fails
        raise NumericalValidationError(
            f"propagator tagged unitary violates max_j |(U^dag U)_jj - 1| <= {UNITARY_ATOL} (got {err:.3e})"
        )
    record = OperatorMatrix(config, u)  # the shape check only: the tag is earned above
    object.__setattr__(record, "unitary", True)
    return record


def _axis_phases(rows: Sequence[np.ndarray], t: np.ndarray, sign: float) -> np.ndarray:
    """exp(sign i d t) at k times t for d = sum_a rows[a][n_a] over a run of axes of config.shape: (size, k).

    One exponential per row entry and time, joined by outer products in the layout's C order; no rows give (1, k) ones.
    """
    phase = np.ones((1, t.size), dtype=complex)
    for row in rows:
        phase = (phase[:, None, :] * np.exp(sign * 1j * np.multiply.outer(row, t))).reshape(-1, t.size)
    return phase


@dataclass(frozen=True, eq=False)
class _Plan:
    """U(t, t0) = conj(R_t) [T^dag] [P V'] core(tau) [V'^T P^dag] [T] R_t0.

    tau = t - t0 and R is the rotating frame (left out when frame is False).
    The eigen plans diagonalise a Hamiltonian where it is real, in the parity
    gauge P (fock.parity_gauge): basis is the real eigenbasis V' of P^dag H P,
    H the rotating-frame Hamiltonian for exact and the balanced one for
    pipeline_exact, and diag its eigenvalues w (plus the frame's scalar offset
    for pipeline_exact).  Their core is e^{-i w t} e^{i w t0}.  The closed
    forms need no gauge: their core is e^{-i d t} X(tau) e^{i d t0}, d a free
    diagonal plus the frame's scalar offset kept as one row per axis (axes,
    hamiltonians.free_axes; none for rwa_jc, whose d is 0), and X the banded
    product of sideband exchanges (drive, mode, g).  Both pipeline plans hold
    the balanced transform T as its factors (transforms.FactoredTransform),
    certified when the plan is built, and never as a dim x dim matrix.  basis
    is never upcast to complex, and it is the only factor neither unitary by
    construction nor certified at build, so a dense propagator is certified
    through basis's real Gram and its column norms.

    Every step takes one shape: a (dim, k) block with a vector of k times, or
    of one time shared by every column.  columns (with matrix its certified
    all-columns case) and apply both run _evolve, conj(R_t) [T^dag] [P V']
    core(t - t0) x, in one association order, so their outputs are
    reproducible bit for bit.  Each diagonal product is multiplied into the
    block in place.  columns evolves its start columns [V'^T P^dag] [T]
    I[:, cols] in blocks of fock.COLUMN_BLOCK into one preallocated output, so
    a dense propagator holds two (dim, 128) blocks besides itself and basis.
    apply evolves its (dim, 1) start at blocks of k = _BLOCK_BYTES // (16 dim)
    grid points: per point O(dim) core work and O(dim n_max) for T^dag, plus
    one real GEMM per block on its interleaved float view where the plan has
    basis; the frame enters through the 2^n_spins spin phases of each point.
    """

    model: ModelSpec
    diag: np.ndarray | None = None
    axes: tuple[np.ndarray, ...] = ()
    basis: np.ndarray | None = None
    transform: FactoredTransform | None = None
    exchanges: tuple[tuple[int, int, float], ...] = ()
    frame: bool = True

    def _exchange(self, x: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Apply prod exp(g tau (a_mode sigma_+^drive - a_mode^dag sigma_-^drive)) to the columns of x.

        Each factor is a real rotation of |n, e> and |n+1, g> on its (mode,
        drive) axes: e[n] <- cos(g tau sqrt(n+1)) e[n] + s[n] g[n+1], g[n] <-
        cos(g tau sqrt(n)) g[n] - s[n-1] e[n-1], s[n] = sin(g tau sqrt(n+1));
        the top |e> level has no partner under hard truncation and stays
        invariant.  O(dim) per column.  x is a (dim, k) block and tau holds one
        time per column or one for every column; cos_e, cos_g and s hold one row
        per time, and a (dim, 1) x is broadcast to one column per time.  A plan
        without exchanges returns x itself.
        """
        if not self.exchanges:
            return x
        config = self.model.config
        x = np.broadcast_to(x, np.broadcast_shapes(x.shape, tau.shape))
        y = x.reshape(config.shape + x.shape[1:])
        root = np.sqrt(np.arange(1, config.n_max, dtype=float))  # sqrt(n + 1), n < n_max - 1
        tau = tau[:, None]
        for j, k, g in self.exchanges:
            upper = g * tau * root
            cos, one = np.cos(upper), np.ones((len(tau), 1))
            cos_e, cos_g = np.concatenate([cos, one], axis=-1), np.concatenate([one, cos], axis=-1)
            s = np.sin(upper) / root * root  # (sin / sqrt(n+1)) times a's sqrt(n+1), rounded like f(n) a
            out = np.empty_like(y)  # views v (input) and w (output) end in the (column, mode, spin) axes
            v, w = (np.moveaxis(a, (k - 1, config.n_modes + j - 1), (-2, -1)) for a in (y, out))
            np.multiply(cos_e, v[..., 0], out=w[..., 0])
            np.multiply(cos_g, v[..., 1], out=w[..., 1])
            partner = np.multiply(s, v[..., 1:, 1])  # one temporary for both partner terms
            w[..., :-1, 0] += partner
            w[..., 1:, 1] -= np.multiply(s, v[..., :-1, 0], out=partner)
            y = out
        return y.reshape(x.shape)

    def _framed(self, x: np.ndarray, t: np.ndarray, left: bool) -> np.ndarray:
        """x multiplied in place by the diagonal conj(R_t) [P] (left) or [P^dag] R_t (right); x and t as in _evolve.

        The gauge sits at the frame for exact alone; pipeline_exact's sits between V' and T.
        """
        config = self.model.config
        y = x.reshape(-1, 2**config.n_spins, x.shape[1])  # splits the first axis: always a view of x
        if self.frame:
            phases = rotating_frame_phases(self.model.drives, t)
            np.multiply(np.conj(phases) if left else phases, y, out=y)
        if self.basis is not None and self.transform is None:
            gauge = parity_gauge(config).reshape(y.shape[:2] + (1,))
            np.multiply(gauge if left else gauge.conj(), y, out=y)
        return x

    def _start(self, x: np.ndarray) -> np.ndarray:
        """[V'^T P^dag] [T] x for a C-ordered (dim, k) block x, after the right frame: the core's start block."""
        if self.transform is not None:
            x = self.transform.apply(x, overwrite=True)
            if self.basis is not None:
                x *= parity_gauge(self.model.config).conj()[:, None]
        if self.basis is not None:
            x = _real_matvec(self.basis.T, x)
        return x

    def _phased(self, x: np.ndarray, t: np.ndarray, sign: float, copy: bool = False) -> np.ndarray:
        """x times e^{sign i d t}, the core's diagonal at x's times t; x and t as in _evolve.

        The eigenvalues w are exponentiated entry by entry.  A free d is
        exponentiated axis by axis (n_modes n_max + 2 n_spins exponentials per
        time instead of dim) and multiplied in as its mode and its spin part.
        In place unless copy asks for a new C-ordered block or one start column
        meets several times and the product widens it.
        """
        config = self.model.config
        spins = 2**config.n_spins
        if self.diag is not None:
            factors = [np.exp(sign * 1j * np.multiply.outer(self.diag, t)).reshape(-1, spins, t.size)]
        else:  # no rows (rwa_jc) give factors of ones
            factors = [_axis_phases(self.axes[:config.n_modes], t, sign)[:, None, :],
                       _axis_phases(self.axes[config.n_modes:], t, sign)]
        y = x.reshape(-1, spins, x.shape[1])  # splits the first axis: a view of x in either order
        for f in factors:
            if copy or np.broadcast_shapes(f.shape, y.shape) != y.shape:
                y, copy = np.multiply(f, y, order="C"), False
            else:
                np.multiply(f, y, out=y)
        return y.reshape(-1, y.shape[-1])

    def _evolve(self, x: np.ndarray, t: np.ndarray, t0: float) -> np.ndarray:
        """conj(R_t) [T^dag] [P V'] core(t - t0) x for a (dim, k) start block x; t: k times or one for every column.

        A (dim, 1) x with k times gives one column per time.  The core's output is C-ordered:
        an F-ordered x (a start block of V'^T) is transposed by the first product.
        """
        y = self._phased(x, np.array([t0], dtype=float), 1.0, copy=True)
        y = self._phased(self._exchange(y, t - t0), t, -1.0)
        if self.basis is not None:
            y = _real_matvec(self.basis, y)
        if self.transform is not None:
            if self.basis is not None:
                y *= parity_gauge(self.model.config)[:, None]
            y = self.transform.apply(y, adjoint=True, overwrite=True)
        return self._framed(y, t, left=True)

    def columns(self, cols: slice | np.ndarray, t: float, t0: float = 0.0) -> np.ndarray:
        """U(t, t0)[:, cols], unchecked: the start [V'^T P^dag] [T] I[:, cols] through _evolve and the right frame.

        The (dim, k) output is allocated once and filled COLUMN_BLOCK columns at
        a time, each block's start taken and evolved on its own, so every
        temporary besides the output is (dim, COLUMN_BLOCK).  Every step acts
        on each column alone, so a column block equals the same columns of
        matrix, bit for bit.  The right frame is applied to the output in place.
        """
        config = self.model.config
        index = np.arange(config.dim)[cols]
        u = np.empty((config.dim, index.size), dtype=complex)
        ts = np.array([t], dtype=float)
        for i in range(0, index.size, COLUMN_BLOCK):
            block = index[i:i + COLUMN_BLOCK]
            if self.basis is None or self.transform is not None:
                start = self._start(_unit_columns(config.dim, block))
            elif (np.diff(block) == 1).all():  # a run of adjacent columns: a view of V'^T, not a copy
                start = self.basis.T[:, block[0]:block[-1] + 1]
            else:
                start = self.basis.T[:, block]
            u[:, i:i + COLUMN_BLOCK] = self._evolve(start, ts, t0)
        u *= self._framed(np.ones((config.dim, 1), dtype=complex), np.array([t0], dtype=float), left=False)[cols, 0]
        return u

    def matrix(self, t: float, t0: float = 0.0) -> OperatorMatrix:
        """U(t, t0) as a unitary-tagged OperatorMatrix.

        basis is checked by check_matrix's real Gram, about a sixth of the
        complex one, before the output is allocated; the output by _certified.
        """
        if self.basis is not None:
            check_matrix(self.basis, unitary=True)
        return _certified(self.model.config, self.columns(slice(None), t, t0))

    def apply(
        self, psi0: np.ndarray, times: Iterable[float], t0: float = 0.0
    ) -> Iterator[tuple[float, np.ndarray]]:
        """Yield (t, U(t, t0) psi0) along a time grid without forming U, one (dim, k) block of states at a time."""
        x = self._start(self._framed(psi0[:, None].copy(), np.array([t0], dtype=float), left=False))
        times, size = iter(times), max(1, _BLOCK_BYTES // (16 * self.model.config.dim))
        while block := list(itertools.islice(times, size)):
            ts = np.array(block, dtype=float)
            yield from zip(block, self._evolve(x, ts, t0).T.copy())


def _plan(model: ModelSpec, method: str, resonant_pairs=None) -> _Plan:
    """The propagator plan of one method; resonant_pairs feed the closed-form methods."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    config = model.config
    if method == "exact":
        w, v = np.linalg.eigh(check_matrix(gauged_rotating_frame_hamiltonian(model), hermitian=True))
        return _Plan(model, diag=w, basis=v)
    pairs = _normalize_pairs(model, resonant_pairs) if method in RWA_METHODS else None
    if method in ("pipeline_exact", "pipeline_rwa"):
        # the balanced frame, once for both pipeline plans: T as its certified factors and the delta_eff spins
        params = model.balanced()
        transform = factored_balanced_transform(config, params)
        delta_eff = [par.delta_eff for par in params]
    if method == "pipeline_exact":
        h = gauged_balanced_flip(model)
        h[np.diag_indices(config.dim)] += free_diagonal(model, delta_eff)
        w, v = np.linalg.eigh(check_matrix(h, hermitian=True))
        return _Plan(model, diag=w + balanced_offset(model), basis=v, transform=transform)
    if method == "standard_rwa":
        if len(pairs) != 1:
            raise ValueError("standard RWA takes a single resonant pair")
        (j, k), = pairs
        g = float(model.eta_matrix()[j - 1, k - 1] * model.drives[j - 1].Omega_R)
        return _Plan(model, axes=free_axes(model, [d.detuning for d in model.drives]), exchanges=((j, k, g),))
    exchanges = tuple((j, k, jc_coupling(model, j, k)) for j, k in pairs)
    if method == "rwa_jc":
        return _Plan(model, exchanges=exchanges, frame=False)
    # pipeline_rwa needs only the diagonal part of the balanced Hamiltonian
    return _Plan(model, axes=free_axes(model, delta_eff, balanced_offset(model)), transform=transform,
                 exchanges=exchanges)


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
    over [t0, 0].  Certified like exact_propagator(model, t, 0), its columns
    scaled in place by the unimodular free phases before _certified.
    """
    if not (np.isfinite(t) and np.isfinite(t0)):  # before any phase: 0 * inf would put NaN in the free phases
        raise ValueError(f"turn-on propagator needs finite times, got t = {t!r}, t0 = {t0!r}")
    if not t0 < 0.0 < t:
        raise ValueError("turn-on propagator needs t0 < 0 < t; use exact_propagator otherwise")
    plan = _plan(model, "exact")
    check_matrix(plan.basis, unitary=True)
    u = plan.columns(slice(None), t, 0.0)
    u *= np.exp(1j * free_diagonal(model, [model.omega_ge] * model.config.n_spins) * t0)
    return _certified(model.config, u)


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
    real GEMM per block where the transform or an eigenbasis is applied.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (model.config.dim,):
        raise ValueError("initial state has wrong dimension")
    yield from _plan(model, method, resonant_pairs).apply(psi0, times, t0)
