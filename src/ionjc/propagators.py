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
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .fock import (COLUMN_BLOCK, UNITARY_ATOL, HilbertConfig, NumericalValidationError, OperatorMatrix,
                   check_matrix, parity_gauge)
from .hamiltonians import (ModelSpec, balanced_offset, free_axes, free_diagonal, gauged_balanced_flip,
                           gauged_rotating_frame_hamiltonian)
from .transforms import FactoredTransform, corrected_detuning, factored_balanced_transform, rotating_frame_phases

# the methods that take resonant (drive, mode) pairs; rwa_jc is the bare
# interaction-picture closed form, useful for inspecting the undressed sideband exchange
RWA_METHODS = ("pipeline_rwa", "standard_rwa", "rwa_jc")
METHODS = ("exact", "pipeline_exact") + RWA_METHODS
BALANCED_METHODS = ("pipeline_exact", "pipeline_rwa", "rwa_jc")  # the methods in the balanced frame

# bytes of a closed form's whole workspace in _Plan.apply, which takes the dozen passes over each block: on a
# 2-core Xeon with 2 MiB of L2 per core, a cold evolve of 300 points at dim 576 ran fastest at 1 MiB, and 9-15%
# slower with a workspace of 0.5, 2 or 4 MiB
_CLOSED_FORM_WORKSPACE_BYTES = 1 << 20


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


def sweep_point_models(model: ModelSpec, drive: int, mode: int,
                       omega_r: float) -> tuple[ModelSpec, ModelSpec, float | None, float]:
    """The two models of one Rabi-sweep point at Rabi frequency omega_r on (drive, mode), and its pulse time.

    Returns the balanced model, whose drive sits on the corrected resonance
    delta_eff = nu_k, or at the closest achievable delta = 0 where 2 omega_r >
    nu_k; the standard model, on the uncorrected resonance delta = nu_k; the
    corrected |delta|, None where it is unreachable; and the balanced pi-pulse
    time pi / (2 |g|), g the balanced sideband coupling (infinite where g underflows to 0).
    """
    nu_k = float(model.chain.nu[mode - 1])
    required = corrected_detuning(nu_k, omega_r)
    delta = required if required is not None else 0.0
    balanced_model = model.with_drive(drive, Omega_R=omega_r, omega_L=model.omega_ge - delta)
    standard_model = model.with_drive(drive, Omega_R=omega_r, omega_L=model.omega_ge - nu_k)
    g = jc_coupling(balanced_model, drive, mode)
    return balanced_model, standard_model, required, np.pi / (2.0 * abs(g)) if g else np.inf


def _real_matvec(m: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """m @ x for a real matrix m and a complex block x, written into out, without a complex copy of m.

    One real GEMM on the interleaved float view of x, (dim, 2k) with the real and
    imaginary part of each column side by side; x is copied only if not C-contiguous,
    and out is a C-ordered complex block of x's shape.
    """
    x = np.ascontiguousarray(x)
    np.matmul(m, x.view(float).reshape(len(x), -1), out=out.view(float).reshape(len(x), -1))
    return out


def _unit_columns(out: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The identity's columns I[:, index] written into the C-ordered (dim, index.size) block out, no identity formed."""
    out[...] = 0.0
    out[index, np.arange(index.size)] = 1.0
    return out


def _blocks(work: np.ndarray, dim: int, k: int) -> list[np.ndarray]:
    """Each flat buffer (row) of a workspace as a C-ordered (dim, k) block; a narrower block takes its start."""
    return [flat[:dim * k].reshape(dim, k) for flat in work]


def _spare(work: Sequence[np.ndarray], busy: np.ndarray) -> np.ndarray:
    """The first block of work that is not busy."""
    return next((b for b in work if b is not busy), None)


def _norm_defect(y: np.ndarray, scale: float = 1.0) -> float:
    """max_k | ||y_k||^2 - scale | over the columns of a C-ordered complex block, in one pass over its float view.

    The float view holds the real and imaginary part of each column side by
    side; one einsum sums their squares down the rows with no temporary of
    the block's size, about 8x faster than over the (dim, k, 2) view.
    """
    f = y.view(float)
    return np.abs(np.einsum("ij,ij->j", f, f).reshape(-1, 2).sum(axis=1) - scale).max()


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
    err = _norm_defect(u)
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
    for pipeline_exact).  Their core is e^{-i w t} e^{i w t0}, and in both the
    gauge sits beside V': P^dag right before V'^T, P right after V'.  The closed
    forms need no gauge: their core is e^{-i d t} X(tau) e^{i d t0}, d a free
    diagonal plus the frame's scalar offset kept as one row per axis (axes,
    hamiltonians.free_axes; none for rwa_jc, whose d is 0), and X the banded
    product of sideband exchanges (drive, mode, g).  Both pipeline plans hold
    the balanced transform T as its factors (transforms.FactoredTransform),
    certified when the plan is built, and never as a dim x dim matrix.  basis
    is never upcast to complex, and it is the only factor neither unitary by
    construction nor certified at build, so a dense propagator is certified
    through basis's real Gram and its column norms.

    Every step has one calling convention: a C-ordered (dim, k) block of the
    call's workspace goes in, with a vector of k times or one time shared by
    every column, and the result comes out in a block of the same workspace.
    Each call allocates one workspace, _buffers flat buffers that every block
    reuses as (dim, k) blocks: each product is written into a block that does
    not hold its input, and each diagonal is multiplied into its block in
    place.  columns (with matrix its certified all-columns case) and apply both
    run _evolve, conj(R_t) [T^dag] [P V'] e^{-i d t} X(t - t0) on a start that
    carries e^{i d t0}, in one association order, so their outputs are
    reproducible bit for bit.  columns evolves its start columns
    [V'^T P^dag] [T] I[:, cols] COLUMN_BLOCK at a time into one preallocated
    output, so an eigen plan's dense propagator holds two (dim, 128) blocks
    besides itself and basis.  apply forms its (dim, 1) start once, in a
    one-column workspace of its own, and keeps it while it evolves the grid in
    blocks of block points: per point O(dim) core work and O(dim n_max) for
    T^dag, plus one real GEMM per block on its interleaved float view where the
    plan has basis; the frame enters through the 2^n_spins spin phases of each
    point.
    """

    model: ModelSpec
    diag: np.ndarray | None = None
    axes: tuple[np.ndarray, ...] = ()
    basis: np.ndarray | None = None
    transform: FactoredTransform | None = None
    exchanges: tuple[tuple[int, int, float], ...] = ()
    frame: bool = True

    def _buffers(self, kept: bool) -> int:
        """Blocks in a workspace: two that the products write in turn, and one more for the exchanges' partner terms.

        With kept, the core's start lies outside the workspace (apply's), so a
        lone exchange writes its partner terms into the second block.
        """
        return 2 + (len(self.exchanges) > (1 if kept else 0))

    @property
    def block(self) -> int:
        """Grid points per block of apply.

        An eigen plan streams its dense V' through one GEMM per block, so a
        block spreads V' over COLUMN_BLOCK columns, as columns' blocks do.  A
        closed form has no dense factor to spread and makes a dozen passes over
        each block, so its whole workspace takes _CLOSED_FORM_WORKSPACE_BYTES.
        """
        if self.basis is not None:
            return COLUMN_BLOCK
        return max(1, _CLOSED_FORM_WORKSPACE_BYTES // (16 * self.model.config.dim * self._buffers(kept=True)))

    def _workspace(self, k: int, kept: bool) -> np.ndarray:
        """One call's workspace: _buffers(kept) flat buffers of dim k complex entries, see _blocks."""
        return np.empty((self._buffers(kept), self.model.config.dim * k), dtype=complex)

    def _exchange(self, x: np.ndarray, tau: np.ndarray, work: list[np.ndarray]) -> np.ndarray:
        """Apply prod exp(g tau (a_mode sigma_+^drive - a_mode^dag sigma_-^drive)) to the columns of x.

        Each factor is a real rotation of |n, e> and |n+1, g> on its (mode,
        drive) axes: e[n] <- cos(g tau sqrt(n+1)) e[n] + s[n] g[n+1], g[n] <-
        cos(g tau sqrt(n)) g[n] - s[n-1] e[n-1], s[n] = sin(g tau sqrt(n+1));
        the top |e> level has no partner under hard truncation and stays
        invariant.  O(dim) per column.  x is a (dim, k) block, or a (dim, 1) one
        broadcast to one column per time, and tau holds one time per column or
        one for every column; cos_e, cos_g and s hold one column per time.
        Each factor writes into a block of work that does not hold its input,
        its partner terms into another, and runs its six half-block passes on
        the (pre, n, mid, 2, post, k) view that splits out its mode and its spin
        axis and keeps the column axis innermost, so that every pass runs over
        contiguous columns.  A plan without exchanges returns x itself.
        """
        config = self.model.config
        n = config.n_max
        root = np.sqrt(np.arange(1, n, dtype=float))[:, None]  # sqrt(n + 1), n < n_max - 1
        one = np.ones((1, tau.size))
        for j, k, g in self.exchanges:
            out, scratch = [b for b in work if b is not x][:2]
            upper = np.multiply.outer(root[:, 0], g * tau)  # g tau sqrt(n + 1), one column per time
            cos = np.cos(upper)
            cos_e, cos_g = np.concatenate([cos, one]), np.concatenate([one, cos])
            s = np.sin(upper) / root * root  # (sin / sqrt(n+1)) times a's sqrt(n+1), rounded like f(n) a
            cos_e, cos_g, s = (c[:, None, None, :] for c in (cos_e, cos_g, s))  # against (pre, n, mid, post, k)
            shape = (n**(k - 1), n, n**(config.n_modes - k) * 2**(j - 1), 2, 2**(config.n_spins - j))
            v, w = x.reshape(shape + x.shape[1:]), out.reshape(shape + out.shape[1:])  # a (dim, 1) x broadcasts
            np.multiply(cos_e, v[:, :, :, 0], out=w[:, :, :, 0])
            np.multiply(cos_g, v[:, :, :, 1], out=w[:, :, :, 1])
            half = w[:, 1:, :, 1].shape
            partner = scratch.reshape(-1)[:math.prod(half)].reshape(half)  # one buffer for both partner terms
            w[:, :-1, :, 0] += np.multiply(s, v[:, 1:, :, 1], out=partner)
            w[:, 1:, :, 1] -= np.multiply(s, v[:, :-1, :, 0], out=partner)
            x = out
        return x

    def _framed(self, x: np.ndarray, t: np.ndarray, left: bool) -> np.ndarray:
        """x multiplied in place by the frame's diagonal conj(R_t) (left) or R_t (right); x and t as in _evolve."""
        if self.frame:
            y = x.reshape(-1, 2**self.model.config.n_spins, x.shape[1])  # splits the first axis: a view of x
            phases = rotating_frame_phases(self.model.drives, t)
            np.multiply(np.conj(phases) if left else phases, y, out=y)
        return x

    def _start(self, x: np.ndarray, work: Sequence[np.ndarray]) -> np.ndarray:
        """[V'^T P^dag] [T] x for a (dim, k) block x of work, after the right frame: the core's start, in a work block.

        x is overwritten, and each product is written into a block of work that does not hold its input.
        """
        if self.transform is not None:
            x = self.transform.apply(x, _spare(work, x))
        if self.basis is not None:
            x *= parity_gauge(self.model.config).conj()[:, None]
            x = _real_matvec(self.basis.T, x, _spare(work, x))
        return x

    def _phased(self, x: np.ndarray, t: np.ndarray, sign: float, work: Sequence[np.ndarray]) -> np.ndarray:
        """x times e^{sign i d t}, the core's diagonal at x's times t, in a block of work; x and t as in _evolve.

        The eigenvalues w are exponentiated entry by entry.  A free d is
        exponentiated axis by axis (n_modes n_max + 2 n_spins exponentials per
        time instead of dim) and multiplied in as its mode and its spin part.
        A block of work is multiplied in place.  apply's kept start, which meets
        k times, is multiplied into work[0], where an eigen plan first forms its
        (dim, k) phases, their w t in work[1].
        """
        config = self.model.config
        spins = 2**config.n_spins
        out = x if any(x is b for b in work) else work[0]
        if self.diag is None:  # no rows (rwa_jc) give factors of ones
            factors = [_axis_phases(self.axes[:config.n_modes], t, sign)[:, None, :],
                       _axis_phases(self.axes[config.n_modes:], t, sign)]
        else:
            if out is x:  # in place, at the one time of a start or a column block: (dim, 1) phases
                phase = sign * 1j * np.multiply.outer(self.diag, t)
            else:
                wt = np.multiply.outer(self.diag, t, out=work[1].reshape(-1).view(float)[:out.size].reshape(out.shape))
                phase = np.multiply(sign * 1j, wt, out=out)
            factors = [np.exp(phase, out=phase).reshape(-1, spins, t.size)]
        y, dest = x.reshape(-1, spins, x.shape[1]), out.reshape(-1, spins, out.shape[1])  # views: split first axes
        for f in factors:  # the first product moves into out, the rest multiply in place
            np.multiply(f, y, out=dest)
            y = dest
        return out

    def _evolve(self, x: np.ndarray, t: np.ndarray, t0: float, work: list[np.ndarray]) -> np.ndarray:
        """conj(R_t) [T^dag] [P V'] e^{-i d t} X(t - t0) x, x the core's start times e^{i d t0}; t: k times or one.

        x is a (dim, k) block, or a (dim, 1) one that meets k times; it is kept
        unless it is a block of work, and the result is one of work's (dim, k)
        blocks.  The core's output is C-ordered.
        """
        y = self._phased(self._exchange(x, t - t0, work), t, -1.0, work)
        if self.basis is not None:
            y = _real_matvec(self.basis, y, _spare(work, y))
            y *= parity_gauge(self.model.config)[:, None]
        if self.transform is not None:
            y = self.transform.apply(y, _spare(work, y), adjoint=True)
        return self._framed(y, t, left=True)

    def columns(self, cols: slice | np.ndarray, t: float, t0: float = 0.0) -> np.ndarray:
        """U(t, t0)[:, cols], unchecked: the start [V'^T P^dag] [T] I[:, cols] through _evolve and the right frame.

        The (dim, k) output is allocated once and filled COLUMN_BLOCK columns at
        a time, each block's start taken and evolved on its own in the call's
        workspace, so every temporary besides the output is (dim, COLUMN_BLOCK).
        Every step acts on each column alone, so a column block equals the same
        columns of matrix, bit for bit.  The right frame is applied to the
        output in place.
        """
        config = self.model.config
        index = np.arange(config.dim)[cols]
        u = np.empty((config.dim, index.size), dtype=complex)
        ts, t0s = np.array([t], dtype=float), np.array([t0], dtype=float)
        work = self._workspace(min(COLUMN_BLOCK, index.size), kept=False)
        for i in range(0, index.size, COLUMN_BLOCK):
            block = index[i:i + COLUMN_BLOCK]
            blocks = _blocks(work, config.dim, block.size)
            if self.basis is None or self.transform is not None:
                start = self._start(_unit_columns(blocks[0], block), blocks)
            else:  # exact: V'^T's columns, a view where they are adjacent, times their conjugate gauge
                view = slice(block[0], block[-1] + 1) if (np.diff(block) == 1).all() else block
                start = np.multiply(self.basis.T[:, view], parity_gauge(config).conj()[block], out=blocks[0])
            u[:, i:i + COLUMN_BLOCK] = self._evolve(self._phased(start, t0s, 1.0, blocks), ts, t0, blocks)
        u *= self._framed(np.ones((config.dim, 1), dtype=complex), t0s, left=False)[cols, 0]
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
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (ts, Y) along a time grid without forming U: ts holds the next k grid times, Y = U(ts, t0) psi0.

        Y is a (dim, k) block with one state per column.  The start
        e^{i d t0} [V'^T P^dag] [T] R_t0 psi0 is formed once, and the grid is
        evolved block points at a time in one workspace, allocated at the first
        block: Y is one of its blocks, valid until the next block is asked for,
        and the caller may overwrite it.  Each Y is certified like a dense
        propagator's columns (_certified): max_k | ||Y_k||^2 - ||psi0||^2 | <=
        UNITARY_ATOL ||psi0||^2, which fails on a non-orthogonal V' or a
        non-finite entry.
        """
        config = self.model.config
        scale = float(np.vdot(psi0, psi0).real)
        t0s = np.array([t0], dtype=float)
        start = _blocks(self._workspace(1, kept=False), config.dim, 1)
        start[0][:, 0] = psi0
        x = self._phased(self._start(self._framed(start[0], t0s, left=False), start), t0s, 1.0, start)
        times, work = iter(times), None
        while block := list(itertools.islice(times, self.block)):
            ts = np.array(block, dtype=float)
            if work is None:
                work = self._workspace(ts.size, kept=True)
            y = self._evolve(x, ts, t0, _blocks(work, config.dim, ts.size))
            err = _norm_defect(y, scale)
            if not err <= UNITARY_ATOL * scale:  # NaN-safe: a NaN residual fails
                raise NumericalValidationError(f"evolved states violate max_k | ||Y_k||^2 - ||psi0||^2 | <= "
                                               f"{UNITARY_ATOL} ||psi0||^2 (got {err:.3e})")
            yield ts, y


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


def phase_rate_bound(model: ModelSpec, method: str, resonant_pairs=None) -> float:
    """An upper bound W on the rate of every core phase the method's plan multiplies by a time, without an eigh.

    An eigen plan's rates are its eigenvalues, so W bounds the spectral radius
    of its Hamiltonian by the largest free-diagonal entry plus the norm of each
    drive term; a closed form's rates are its free diagonal and its exchange
    angles per unit time, g sqrt(n + 1) <= |g| sqrt(n_max - 1).  With
    top = n_max - 1:

    - exact: top sum_p nu_p + sum_j (|delta_j| / 2 + Omega_j), each drive term
      Omega_j (sigma_+ D_j^2 + h.c.) having norm Omega_j (D_j is unitary);
    - pipeline_exact, pipeline_rwa: top sum_p nu_p + sum_j delta_eff_j / 2 +
      sum_jp (eta_jp^2 / 4 + |alpha_jp|^2 + 2 sqrt(top) |eta_eff_jp / Delta_j|)
      nu_p: the offset's two constants, and each flip term bounded through
      ||a_p + a_p^dag|| <= 2 sqrt(top), which also bounds each exchange rate;
    - standard_rwa: exact's free part plus sqrt(top) |eta_jk Omega_j| per pair;
    - rwa_jc, which has no free phases: sqrt(top) |g| per pair.

    The methods that need balanced parameters (BALANCED_METHODS) form them once
    here, so an undriven ion raises NoDriveError as their plan would.  W leaves
    out the rotating frame's phases (omega_L t + phase) / 2: one phase per spin
    configuration, which every output reads only as |amplitude|^2 within a spin
    configuration or, in a sweep's U^dag V, cancels between two equal frames.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    pairs = _normalize_pairs(model, resonant_pairs) if method in RWA_METHODS else []
    top, nu, drives = model.config.n_max - 1, model.chain.nu, model.drives
    free = top * float(nu.sum())
    if method not in BALANCED_METHODS:
        free += sum(0.5 * abs(d.detuning) for d in drives)
        if method == "exact":
            return free + sum(d.Omega_R for d in drives)
        eta = model.eta_matrix()
        return free + np.sqrt(top) * sum(abs(eta[j - 1, k - 1] * drives[j - 1].Omega_R) for j, k in pairs)
    params = model.balanced()
    if method == "rwa_jc":
        return np.sqrt(top) * sum(abs(params[j - 1].eta_eff_by_Delta[k - 1] * nu[k - 1]) for j, k in pairs)
    rates = sum((par.eta**2 / 4 + np.abs(par.alpha)**2 + 2.0 * np.sqrt(top) * np.abs(par.eta_eff_by_Delta)) @ nu
                for par in params)
    return free + sum(0.5 * par.delta_eff for par in params) + float(rates)


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
    without forming it: the per-state view of _Plan.apply's blocks, each state
    a copy out of its block.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (model.config.dim,):
        raise ValueError("initial state has wrong dimension")
    for ts, states in _plan(model, method, resonant_pairs).apply(psi0, times, t0):
        yield from zip(ts.tolist(), states.T.copy())
