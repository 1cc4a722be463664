"""Truncated multi-mode Fock x multi-spin operators.

Operators are dense matrices on the space

    (C^n_max)^(x n_modes)  (x)  (C^2)^(x n_spins)

in Kronecker order, the C-order layout of ``HilbertConfig.shape``: mode 1 is
the slowest index, then mode 2, ..., then the spin factors (fastest).  Each
spin factor orders |e> before |g>, so sigma_z = diag(+1, -1) and 2x2
operator-block notation over (e, g) maps directly onto Kronecker products.
Every operator of the model is a sum of Kronecker terms, mode factors times
one 2x2 factor per ion, and ``kron_terms``, the one assembler of such sums,
is the only code that splits a matrix into mode x mode blocks between spin
states.  It has one rule: every term, and when asked its adjoint, is added,
in list order, into a new matrix of zeros, so a Hermitian operator is given
by its sigma_+ half alone.  The package's builders return complex ndarrays in
this basis, each checked by ``check_matrix`` against its hermitian or unitary
tag before it returns; the propagators build real ones in the mode-parity
gauge (``parity_gauge``) and return a dense propagator as the certified
record below.

Truncation is hard: a_dag annihilates the top Fock level.  Displacements and
propagators are built by exponentiating the *truncated* generator, so they are
exactly unitary on the truncated space; identities that hold in infinite
dimension are then verified only on a guarded subspace (all mode indices below
``n_max - guard``), which isolates truncation error from method error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Mapping, Sequence

import numpy as np

UNITARY_ATOL = 1e-12
HERMITIAN_ATOL = 1e-10
DENSE_MATRIX_BYTES = 2**30  # largest single dense complex dim x dim matrix a configuration may need
# width of every blocked loop: (dim, 128) column blocks of a dense propagator and of the guarded overlap,
# 128 x 128 tiles of the hermiticity residual, instead of dim x dim temporaries; narrower blocks cost BLAS speed
COLUMN_BLOCK = 128


class NumericalValidationError(RuntimeError):
    """A tagged matrix failed its unitarity or hermiticity check."""


@dataclass(frozen=True)
class HilbertConfig:
    """Dimensions and basis conventions of the truncated state space.

    Parameters
    ----------
    n_modes : int
        Number of vibrational modes.
    n_max : int
        Fock cutoff per mode; levels |0> .. |n_max - 1> are kept.
    n_spins : int
        Number of two-level ions carried in the state space.
    guard : int
        Width of the truncation guard band.  Basis states with any mode
        index >= n_max - guard are excluded from guarded norms.
    """

    n_modes: int
    n_max: int
    n_spins: int = 1
    guard: int = 0

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if self.n_max < 2:
            raise ValueError("n_max must be >= 2")
        if self.n_spins < 1:
            raise ValueError("n_spins must be >= 1")
        if not 0 <= self.guard < self.n_max:
            raise ValueError("guard must satisfy 0 <= guard < n_max")
        if 16 * self.dim**2 > DENSE_MATRIX_BYTES:
            raise ValueError(f"dim {self.dim} needs {16 * self.dim**2} bytes per dense complex matrix, "
                             f"above the {DENSE_MATRIX_BYTES}-byte budget; lower n_max or the ion/drive count")

    @property
    def shape(self) -> tuple[int, ...]:
        """Axes of a state reshaped in C order: one per mode, then one per spin with |e> = 0, |g> = 1."""
        return (self.n_max,) * self.n_modes + (2,) * self.n_spins

    @property
    def dim(self) -> int:
        return math.prod(self.shape)


@lru_cache(maxsize=None)
def guard_mask(config: HilbertConfig) -> np.ndarray:
    """Boolean mask of basis states whose every mode index is < n_max - guard."""
    keep = (mode_occupations(config) < config.n_max - config.guard).all(axis=0)
    keep.setflags(write=False)
    return keep


def _unitary_residual(m: np.ndarray) -> float:
    """max|U^dag U - I| bit for bit, with 1 subtracted on the Gram matrix's diagonal in place of a dense identity.

    A real m's .conj() is m itself, so its Gram matrix is one m.T @ m, which
    numpy runs as a symmetric rank-k update.
    """
    gram = m.conj().T @ m
    gram[np.diag_indices_from(gram)] -= 1.0
    return np.abs(gram).max()


def _hermitian_residual(m: np.ndarray) -> float:
    """max|H - H^dag| bit for bit, over the COLUMN_BLOCK x COLUMN_BLOCK tiles on and above the diagonal.

    |H_ij - conj(H_ji)| is symmetric in i and j, so the tiles below the diagonal
    repeat those above; a tile and its mirror stay in cache together.
    """
    n, b = len(m), COLUMN_BLOCK
    # np.max, unlike the builtin max, keeps a NaN tile residual, as the dense formula would
    return np.max([np.abs(m[i:i + b, j:j + b] - m[j:j + b, i:i + b].conj().T).max()
                   for i in range(0, n, b) for j in range(i, n, b)])


def check_matrix(m: np.ndarray, hermitian: bool = False, unitary: bool = False) -> np.ndarray:
    """Verify a real or complex square matrix against the tolerance of each tag it carries; return it.

    Both residuals are their dense formulas bit for bit; the hermiticity one is
    taken in tiles, the unitarity one holds the dim x dim Gram matrix.
    """
    if unitary:
        err = _unitary_residual(m)
        if not err <= UNITARY_ATOL:  # NaN-safe: a NaN residual fails
            raise NumericalValidationError(
                f"matrix tagged unitary violates ||U^dag U - I||_max <= {UNITARY_ATOL} (got {err:.3e})"
            )
    if hermitian:
        err = _hermitian_residual(m)
        if not err <= HERMITIAN_ATOL:
            raise NumericalValidationError(
                f"matrix tagged hermitian violates ||H - H^dag||_max <= {HERMITIAN_ATOL} (got {err:.3e})"
            )
    return m


def _checked(m: np.ndarray, hermitian: bool = False, unitary: bool = False) -> np.ndarray:
    """m as a complex128 matrix, verified by check_matrix against each tag it carries: a builder's return."""
    return check_matrix(np.asarray(m, dtype=complex), hermitian=hermitian, unitary=unitary)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A dense propagator: a complex square matrix with its Hilbert-space metadata.

    ``propagators._certified`` builds it and sets the ``unitary`` tag from its
    plan's certificate; a record built with ``unitary=True`` is verified by
    ``check_matrix`` instead.  Every other operator is a checked ndarray.
    Instances are treated as immutable.
    """

    config: HilbertConfig
    entries: np.ndarray
    unitary: bool = False

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (self.config.dim, self.config.dim):
            raise ValueError(f"matrix shape {m.shape} does not match config dimension {self.config.dim}")
        object.__setattr__(self, "entries", m)
        check_matrix(m, unitary=self.unitary)


def _mode_destroy(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n_max, dtype=float)), 1)


_SPIN_2X2 = {
    "plus": np.array([[0.0, 1.0], [0.0, 0.0]]),   # |e><g|
    "minus": np.array([[0.0, 0.0], [1.0, 0.0]]),  # |g><e|
    "z": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "ee": np.array([[1.0, 0.0], [0.0, 0.0]]),     # |e><e|
    "gg": np.array([[0.0, 0.0], [0.0, 1.0]]),     # |g><g|
}


def kron_terms(
    config: HilbertConfig,
    terms: Iterable[tuple[complex, Mapping[int, np.ndarray], Mapping[int, np.ndarray]]],
    adjoint: bool = False,
) -> np.ndarray:
    """Sum of the Kronecker terms c (x)_p M_p (x) (x)_j s_j, one per (c, mode_ops, spin_ops), identity elsewhere.

    Keys are 1-based mode / ion indices.  In the layout of config.shape a term
    is its mode product times one scalar in each mode x mode block between spin
    states where its spin product is non-zero, and it is added block by block,
    never formed at dim x dim.  One rule: every term is added into a new matrix
    of zeros.  adjoint=True adds each term's adjoint right after it, each mode
    block's conjugate transpose into the spin-swapped block: S + S^dag, Hermitian.
    """
    terms = [(c, {p: np.asarray(m) for p, m in (mode_ops or {}).items()},
              {j: np.asarray(s) for j, s in (spin_ops or {}).items()}) for c, mode_ops, spin_ops in terms]
    for _, mode_ops, spin_ops in terms:
        for p in mode_ops:
            if not 1 <= p <= config.n_modes:
                raise ValueError(f"mode index {p} out of range 1..{config.n_modes}")
        for j in spin_ops:
            if not 1 <= j <= config.n_spins:
                raise ValueError(f"ion index {j} out of range 1..{config.n_spins}")
    dtype = reduce(np.promote_types, [np.result_type(c, *m.values(), *s.values()) for c, m, s in terms], float)
    out = np.zeros((config.dim, config.dim), dtype)
    spins = 2**config.n_spins
    blocks = out.reshape(config.dim // spins, spins, config.dim // spins, spins)
    eye_m, eye_s = np.eye(config.n_max), np.eye(2)
    for c, mode_ops, spin_ops in terms:
        modes = reduce(np.kron, [mode_ops.get(p, eye_m) for p in range(1, config.n_modes + 1)])
        scaled = {}  # (c scale) modes, formed once per distinct scale for the blocks it is added into
        spin = reduce(np.kron, [spin_ops.get(j, eye_s) for j in range(1, config.n_spins + 1)])
        for r, col in zip(*np.nonzero(spin)):
            scale = spin[r, col]
            if scale not in scaled:
                scaled[scale] = (c * scale) * modes
            blocks[:, r, :, col] += scaled[scale]
            if adjoint:
                blocks[:, col, :, r] += scaled[scale].conj().T
    return out


def embed_factors(
    config: HilbertConfig,
    mode_ops: Mapping[int, np.ndarray] | None = None,
    spin_ops: Mapping[int, np.ndarray] | None = None,
) -> np.ndarray:
    """Kronecker-assemble single-factor operators, identity elsewhere: the one-term case of kron_terms."""
    return kron_terms(config, [(1.0, mode_ops, spin_ops)])


def _expm_hermitian(entries: np.ndarray, t: float) -> np.ndarray:
    """exp(-i * entries * t) for a hermitian matrix, via eigendecomposition."""
    w, v = np.linalg.eigh(entries)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _displacement_1mode(n_max: int, alpha: complex) -> np.ndarray:
    """exp(alpha a_dag - alpha* a) on a single truncated mode, exactly unitary; real orthogonal for real alpha."""
    a = _mode_destroy(n_max)
    gen = alpha * a.conj().T - np.conj(alpha) * a
    d = _expm_hermitian(1j * gen, 1.0)
    if alpha.imag != 0.0:
        return d
    err = np.abs(d.imag).max()  # rounding residue only: the exact value is real
    if not err <= UNITARY_ATOL:
        raise NumericalValidationError(f"real-argument displacement has ||Im D||_max = {err:.3e} > {UNITARY_ATOL}")
    return d.real


@lru_cache(maxsize=None)
def quadrature_basis(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues xi and real orthogonal eigenvectors X of the truncated quadrature a + a^dag on one mode.

    Every displacement with an imaginary argument is a function of this one
    generator, D(i y) = exp(i y (a + a^dag)) = X diag(e^{i y xi}) X^T, so it is
    diagonal in the basis X on the truncated space too.  Cached read-only.
    """
    a = _mode_destroy(n_max)
    xi, x = np.linalg.eigh(a + a.T)
    for m in (xi, x):
        m.setflags(write=False)
    return xi, x


def displacement_factors(config: HilbertConfig, alphas: Sequence[complex]) -> dict[int, np.ndarray]:
    """Single-mode factors {p: D_p(alphas[p - 1])} of prod_p D_p, keyed like embed_factors."""
    if len(alphas) != config.n_modes:
        raise ValueError("need one displacement amplitude per mode")
    return {p + 1: _displacement_1mode(config.n_max, complex(al)) for p, al in enumerate(alphas)}


def displacement_product(config: HilbertConfig, alphas: Sequence[complex]) -> np.ndarray:
    """prod_p D_p(alphas[p]) as a raw full-space matrix (one alpha per mode)."""
    return embed_factors(config, displacement_factors(config, alphas))


def guarded_infidelity(u: OperatorMatrix | np.ndarray, v: OperatorMatrix) -> float:
    """1 - |tr(P U^dag V P)| / tr(P), a phase-insensitive unitary mismatch.

    u may also be given as its guarded columns alone, the (dim, n_keep) block
    U[:, guard_mask(v.config)]; the trace reads no other column of U.
    """
    keep = guard_mask(v.config)
    if isinstance(u, OperatorMatrix):
        if u.config != v.config:
            raise ValueError("operands have different Hilbert configurations")
        u = u.entries[:, keep]
    elif u.shape != (v.config.dim, np.count_nonzero(keep)):
        raise ValueError(f"column block shape {u.shape} is not the guarded columns of dim {v.config.dim}")
    # conj(U) * V[:, keep] in one F-ordered array, multiplied in place COLUMN_BLOCK kept columns of V at a
    # time and summed in column-major order whatever the layout of u, so a block scores bit for bit like its matrix
    terms = np.conj(u, order="F")
    index = np.flatnonzero(keep)
    for i in range(0, index.size, COLUMN_BLOCK):
        terms[:, i:i + COLUMN_BLOCK] *= v.entries[:, index[i:i + COLUMN_BLOCK]]
    return float(1.0 - abs(np.sum(terms)) / index.size)


@lru_cache(maxsize=None)
def mode_occupations(config: HilbertConfig) -> np.ndarray:
    """Fock index of every mode for every basis state; shape (n_modes, dim)."""
    index = np.unravel_index(np.arange(config.dim), config.shape)
    occ = np.array(index[:config.n_modes], dtype=np.int64)
    occ.setflags(write=False)
    return occ


@lru_cache(maxsize=None)
def parity_gauge(config: HilbertConfig) -> np.ndarray:
    """Diagonal of the mode-parity gauge P = prod_p i^{n_p}, i.e. i^(sum_p n_p) per basis state.

    P^dag a_p P = i a_p, so P^dag (a_p + a_p^dag) P = i (a_p - a_p^dag) and
    P^dag D_p(i eta) P = exp(-eta (a_p - a_p^dag)) is real orthogonal for real
    eta.  Every displacement of the model has such an imaginary argument, the
    spin factors are real and the free part is diagonal, so the rotating-frame
    and balanced Hamiltonians and the balanced transform are real matrices in
    this gauge.  The entries are exactly 1, i, -1, -i.
    """
    gauge = np.array([1, 1j, -1, -1j])[mode_occupations(config).sum(axis=0) % 4]
    gauge.setflags(write=False)
    return gauge


def ungauge(config: HilbertConfig, m: np.ndarray) -> np.ndarray:
    """P m P^dag for the parity gauge P: a matrix assembled in the gauge, in the standard basis."""
    gauge = parity_gauge(config)
    return gauge[:, None] * m * gauge.conj()  # exact: every gauge entry is 1, i, -1 or -i


@lru_cache(maxsize=None)
def spin_signs(config: HilbertConfig) -> np.ndarray:
    """sigma_z eigenvalue (+1 for e, -1 for g) per ion and basis state."""
    index = np.unravel_index(np.arange(config.dim), config.shape)
    signs = 1.0 - 2.0 * np.array(index[config.n_modes:], dtype=float)
    signs.setflags(write=False)
    return signs


def _spin_index(config: HilbertConfig, spins: Sequence[str]) -> tuple[int, ...]:
    """Basis index of each ion's definite spin: 0 for 'e', 1 for 'g'."""
    if len(spins) != config.n_spins or any(s not in ("e", "g") for s in spins):
        raise ValueError("need one spin label 'e' or 'g' per ion")
    return tuple(0 if s == "e" else 1 for s in spins)


def basis_state(config: HilbertConfig, fock: Sequence[int], spins: Sequence[str]) -> np.ndarray:
    """Product basis state |n_1 .. n_k> (x) |s_1 .. s_m>, spins 'e' or 'g'."""
    spin = _spin_index(config, spins)
    if len(fock) != config.n_modes or not all(
            isinstance(n, (int, np.integer)) and not isinstance(n, bool) and 0 <= n < config.n_max for n in fock):
        raise ValueError(f"need one Fock index in 0..{config.n_max - 1} per mode")
    vec = np.zeros(config.shape, dtype=complex)
    vec[tuple(fock) + spin] = 1.0
    return vec.ravel()


def coherent_state(config: HilbertConfig, alphas: Sequence[complex], spins: Sequence[str]) -> np.ndarray:
    """Normalized truncated coherent state on every mode, definite spin per ion."""
    spin = _spin_index(config, spins)
    if len(alphas) != config.n_modes:
        raise ValueError("need one coherent amplitude per mode")
    cols = []
    for al in alphas:
        col = np.zeros(config.n_max, dtype=complex)
        try:
            col[0] = math.exp(-abs(al) ** 2 / 2.0)
        except OverflowError:  # |alpha|^2 past the float range: the weight underflows, as past |alpha| = 38.6
            col[0] = 0.0
        for n in range(1, config.n_max):
            col[n] = col[n - 1] * al / math.sqrt(n)
        cols.append(col)
    vec = np.zeros(config.shape, dtype=complex)
    vec[(Ellipsis,) + spin] = reduce(np.multiply.outer, cols)
    norm = np.linalg.norm(vec)
    if not norm > 0.0:  # exp(-|alpha|^2 / 2) underflows to 0 once |alpha| exceeds about 38.6
        raise ValueError(f"coherent amplitudes {list(alphas)} underflow to a zero state")
    return vec.ravel() / norm


def population_above_guard(config: HilbertConfig, state: np.ndarray) -> float:
    """Probability weight the state carries outside the guarded subspace."""
    keep = guard_mask(config)
    return float(np.sum(np.abs(state[~keep]) ** 2))
