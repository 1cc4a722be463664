"""Hamiltonians of the driven ion chain, in every frame of the pipeline.

All frequencies are in units of the axial trap frequency.  The rotating frame
is one hermitian-checked complex ndarray; every later frame is
``IntermediateParts`` (h0, flip, offset), two such arrays and the scalar its
transformation would otherwise drop tracked as the offset, so
unitary-equivalence checks close including global phases: h0 + flip + offset I
is unitarily equivalent to the rotating frame.

The anharmonic part of the Coulomb interaction is not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import NamedTuple, Sequence

import numpy as np

from .chain import ChainModel, LaserDrive, lamb_dicke_matrix
from .fock import (
    _SPIN_2X2,
    HilbertConfig,
    _checked,
    _mode_destroy,
    displacement_factors,
    kron_terms,
    ungauge,
)
from .transforms import BalancedParams, balanced_params, corrected_detuning


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Chain, drives and Hilbert settings of one simulation instance."""

    chain: ChainModel
    drives: tuple[LaserDrive, ...]
    config: HilbertConfig
    omega_ge: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "drives", tuple(self.drives))
        if self.config.n_modes != self.chain.N:
            raise ValueError("config.n_modes must equal the chain ion count")
        if len(self.drives) != self.config.n_spins:
            raise ValueError("need exactly one drive per spin factor")
        ions = [d.ion for d in self.drives]
        if sorted(set(ions)) != ions:
            raise ValueError("drive ions must be distinct and listed in increasing order")
        for d in self.drives:
            if d.ion > self.chain.N:
                raise ValueError(f"drive targets ion {d.ion}, chain has {self.chain.N}")
            if d.omega_ge != self.omega_ge:
                raise ValueError("all drives must share the model's omega_ge")

    def eta_matrix(self) -> np.ndarray:
        """Lamb-Dicke rows, one per drive."""
        return lamb_dicke_matrix(self.chain, self.drives)

    def balanced(self) -> tuple[BalancedParams, ...]:
        """Balanced parameters per drive; rejects undriven ions."""
        eta = self.eta_matrix()
        return tuple(balanced_params(d, eta[i]) for i, d in enumerate(self.drives))

    def with_drive(self, index: int, **changes) -> "ModelSpec":
        """Copy of the model with one drive's fields replaced (1-based index)."""
        drives = list(self.drives)
        drives[index - 1] = replace(drives[index - 1], **changes)
        return replace(self, drives=tuple(drives))


def free_axes(model: ModelSpec, spin_freqs: Sequence[float], offset: float = 0.0) -> tuple[np.ndarray, ...]:
    """sum_p nu_p n_p + sum_j (w_j / 2) sigma_z^j plus a scalar offset as one row per axis: d = sum_a rows[a][n_a].

    Mode p's row is nu_p n (mode 1's carries the offset) and ion j's is
    (w_j / 2) (+1, -1), one w_j per spin factor in order, so e^{-i d t} is a
    product of per-axis phases.
    """
    n = np.arange(model.config.n_max, dtype=float)
    modes = [nu * n + (offset if p == 0 else 0.0) for p, nu in enumerate(model.chain.nu)]
    return tuple(modes) + tuple(0.5 * w * np.array([1.0, -1.0]) for w in spin_freqs)


def free_diagonal(model: ModelSpec, spin_freqs: Sequence[float]) -> np.ndarray:
    """Diagonal of sum_p nu_p n_p + sum_j (w_j / 2) sigma_z^j: free_axes' rows summed over the layout."""
    return reduce(np.add, np.ix_(*free_axes(model, spin_freqs))).ravel()


def gauged_rotating_frame_hamiltonian(model: ModelSpec) -> np.ndarray:
    """P^dag H P of rotating_frame_hamiltonian in the parity gauge P, real: D_p(i eta_jp) becomes D_p(eta_jp)."""
    config = model.config
    eta = model.eta_matrix()
    # Omega_j (sigma_+^j P^dag D_j^2 P + its transpose); drives reach disjoint off-diagonal
    # blocks, so no entry of h gets more than one term
    terms = [(drive.Omega_R, displacement_factors(config, eta[j - 1]), {j: _SPIN_2X2["plus"]})
             for j, drive in enumerate(model.drives, start=1)]
    h = kron_terms(config, terms, adjoint=True)
    h[np.diag_indices(config.dim)] += free_diagonal(model, [d.detuning for d in model.drives])
    return h


def rotating_frame_hamiltonian(model: ModelSpec) -> np.ndarray:
    """Time-independent Hamiltonian in the frame rotating at the laser frequencies.

    sum_p nu_p n_p + sum_j [ delta_j sigma_z^j / 2
                             + Omega_j (sigma_-^j D_j^dag2 + sigma_+^j D_j^2) ]

    with D_j^2 = prod_p D_p(i eta_jp).  Hermitian exactly, including at the
    Fock cutoff.
    """
    return _checked(ungauge(model.config, gauged_rotating_frame_hamiltonian(model)), hermitian=True)


def standard_rwa_generator(
    model: ModelSpec, resonance: str, mode: int | None = None, drive: int = 1
) -> np.ndarray:
    """Effective generator kept by the conventional rotating wave approximation.

    resonance selects the carrier, the blue sideband of one mode
    (i eta Omega (a^dag sigma_+ - a sigma_-)) or the red sideband
    (i eta Omega (a sigma_+ - a^dag sigma_-)); the red sideband is the
    Jaynes-Cummings generator.
    """
    config = model.config
    d = model.drives[drive - 1]
    eta = model.eta_matrix()[drive - 1]
    if resonance == "carrier":
        c, modes = d.Omega_R, {}
    elif resonance in ("blue", "red"):
        if mode is None or not 1 <= mode <= config.n_modes:
            raise ValueError(f"resonance {resonance!r} needs a mode index in 1..{config.n_modes}")
        a = _mode_destroy(config.n_max)
        c, modes = 1j * eta[mode - 1] * d.Omega_R, {mode: a.conj().T if resonance == "blue" else a}
    else:
        raise ValueError(f"unknown resonance kind {resonance!r}")
    terms = [(c, modes, {drive: _SPIN_2X2["plus"]})]  # the sigma_+ half; kron_terms adds the sigma_- half
    return _checked(kron_terms(config, terms, adjoint=True), hermitian=True)


class IntermediateParts(NamedTuple):
    """Hamiltonian of the linearized, mixed or balanced frame: large part h0, bounded flip part, scalar offset.

    For every frame, h0 + flip + offset I is unitarily equivalent to the
    rotating-frame Hamiltonian up to truncation error.  Each frame is built from
    its own closed expressions, independently of the transformation builders.
    """

    h0: np.ndarray
    flip: np.ndarray
    offset: float


def _require_single_drive(model: ModelSpec) -> LaserDrive:
    if len(model.drives) != 1:
        raise ValueError("intermediate-frame construction is defined for a single drive")
    return model.drives[0]


def dropped_linearization_constant(eta_row: np.ndarray, nu: np.ndarray) -> float:
    """Constant (1/4) sum_p eta_p^2 nu_p absorbed by the linearization step."""
    return float(0.25 * np.sum(np.asarray(eta_row) ** 2 * nu))


def linearized_hamiltonian(model: ModelSpec) -> IntermediateParts:
    """sum nu n + Omega sigma_z - (delta/2) sigma_x, plus the residual mode-spin coupling.

    The flip part is i sum_p (eta_p nu_p / 2)(a_p - a_p^dag) sigma_x.
    """
    drive = _require_single_drive(model)
    config = model.config
    eta = model.eta_matrix()[0]
    nu = model.chain.nu
    sz, sx = {1: _SPIN_2X2["z"]}, {1: _SPIN_2X2["x"]}
    h0 = kron_terms(config, [(drive.Omega_R, {}, sz), (-0.5 * drive.detuning, {}, sx)])
    h0[np.diag_indices(config.dim)] += free_diagonal(model, [0.0])
    a1 = _mode_destroy(config.n_max)
    flip = kron_terms(config, [(0.5 * eta[p - 1] * nu[p - 1], {p: 1j * (a1 - a1.conj().T)}, sx)
                               for p in range(1, config.n_modes + 1)])
    return IntermediateParts(_checked(h0, hermitian=True), _checked(flip, hermitian=True),
                             dropped_linearization_constant(eta, nu))


def mixed_hamiltonian(model: ModelSpec) -> IntermediateParts:
    """Frame in which the large component is (delta_eff/2) sigma_z plus a mode shift.

    h0 = sum nu n + [ delta_eff/2 - (Delta/(2 sqrt(4+Delta^2))) sum eta nu
    i(a - a^dag) ] sigma_z; the flip part couples i(a - a^dag) to sigma_x with
    the bounded weight 1/sqrt(4 + Delta^2).
    """
    drive = _require_single_drive(model)
    config = model.config
    par = model.balanced()[0]
    nu = model.chain.nu
    a1 = _mode_destroy(config.n_max)
    x = 1j * (a1 - a1.conj().T)
    sz, sx = {1: _SPIN_2X2["z"]}, {1: _SPIN_2X2["x"]}
    root = 1.0 / np.sqrt(4.0 + par.Delta**2)
    modes = range(1, config.n_modes + 1)
    h0 = kron_terms(config, [(0.5 * par.delta_eff, {}, sz)]
                    + [(-(par.Delta * root / 2.0) * par.eta[p - 1] * nu[p - 1], {p: x}, sz) for p in modes])
    h0[np.diag_indices(config.dim)] += free_diagonal(model, [0.0])
    flip = kron_terms(config, [(root * par.eta[p - 1] * nu[p - 1], {p: x}, sx) for p in modes])
    return IntermediateParts(_checked(h0, hermitian=True), _checked(flip, hermitian=True),
                             dropped_linearization_constant(par.eta, nu))


def restored_displacement_constant(par: BalancedParams, nu: np.ndarray) -> float:
    """Constant sum_p |alpha_p|^2 nu_p restored by the conditional displacement."""
    return float(np.sum(np.abs(par.alpha) ** 2 * nu))


def balanced_offset(model: ModelSpec) -> float:
    """Scalar offset of the balanced frame: dropped linearization minus restored displacement constants."""
    nu = model.chain.nu
    offset = 0.0
    for par in model.balanced():
        offset += dropped_linearization_constant(par.eta, nu) - restored_displacement_constant(par, nu)
    return offset


def gauged_balanced_flip(model: ModelSpec) -> np.ndarray:
    """P^dag F P of balanced_hamiltonian's flip part F in the parity gauge P, real: i (a - a^dag) -> -(a + a^dag)."""
    config = model.config
    nu = model.chain.nu
    a1 = _mode_destroy(config.n_max)
    x = -(a1 + a1.T)
    terms = []
    for j, par in enumerate(model.balanced(), start=1):
        d2 = displacement_factors(config, par.eta_eff)
        for p in range(1, config.n_modes + 1):  # (coup / 2) (x_p Dj^2 + Dj^2 x_p) sigma_+^j, factor by factor
            coup = par.eta_eff_by_Delta[p - 1] * nu[p - 1]
            terms.append((0.5 * coup, {**d2, p: x @ d2[p] + d2[p] @ x}, {j: _SPIN_2X2["plus"]}))
    return kron_terms(config, terms, adjoint=True)


def balanced_hamiltonian(model: ModelSpec) -> IntermediateParts:
    """Balanced-frame Hamiltonian: exactly diagonal part plus bounded flip part.

    The diagonal part h0 is sum_p nu_p n_p + sum_j (delta_eff_j / 2) sigma_z^j,
    and the offset is balanced_offset.  The paper's flip part is

        sum_jp (i/Delta_j) etaeff_jp nu_p (a_p - a_p^dag)
               (sigma_-^j Dj^dag2 + sigma_+^j Dj^2)
      - sum_jp (1/Delta_j) etaeff_jp^2 nu_p (sigma_-^j Dj^dag2 - sigma_+^j Dj^2)

    with Dj^2 = prod_p D_p(i etaeff_jp).  On the truncated space it is
    hermitian only away from the Fock cutoff, so F is its hermitian part, which
    leaves the guarded interior untouched.  The kappa term is anti-hermitian
    and drops out: F is the sigma_+ half sum_jp (i/(2 Delta_j)) etaeff_jp nu_p
    (L_p Dj^2 + Dj^2 L_p) sigma_+^j, L_p = a_p - a_p^dag, plus its adjoint.

    With several drives the expression drops cross-ion couplings of order
    eta_j eta_j'; the single-drive form is unitarily equivalent to the
    rotating-frame Hamiltonian up to truncation error only.
    """
    h0 = _checked(np.diag(free_diagonal(model, [par.delta_eff for par in model.balanced()])), hermitian=True)
    flip = _checked(ungauge(model.config, gauged_balanced_flip(model)), hermitian=True)
    return IntermediateParts(h0, flip, balanced_offset(model))


def jc_interaction(model: ModelSpec, t: float) -> np.ndarray:
    """Interaction-picture coupling JC(t) relative to the balanced diagonal part.

    Built directly from the closed expression with phase factors
    e^{-i omega_p^- t} and e^{-i omega_p^+ t}, where
    omega_p^+- = nu_p +- delta_eff; equals the conjugation of the flip part by
    exp(i H0 t): like the flip part, its sigma_+ half plus its adjoint.
    """
    config = model.config
    nu = model.chain.nu
    a1 = _mode_destroy(config.n_max)
    terms = []
    for j, par in enumerate(model.balanced(), start=1):
        # prod_p exp(i etaeff_p (e^{-i nu_p t} a_p + e^{i nu_p t} a_p^dag)), one factor per mode
        dt = displacement_factors(config, 1j * par.eta_eff * np.exp(1j * nu * t))
        for p in range(1, config.n_modes + 1):
            coup = par.eta_eff_by_Delta[p - 1] * nu[p - 1]
            # L_p rotated by exp(i H0 t): e^{i delta_eff t} (e^{-i nu_p t} a_p - e^{i nu_p t} a_p^dag)
            ph_minus = np.exp(-1j * (nu[p - 1] - par.delta_eff) * t)
            ph_plus = np.exp(-1j * (nu[p - 1] + par.delta_eff) * t)
            quad = ph_minus * a1 - np.conj(ph_plus) * a1.conj().T
            terms.append((0.5j * coup, {**dt, p: quad @ dt[p] + dt[p] @ quad}, {j: _SPIN_2X2["plus"]}))
    return _checked(kron_terms(config, terms, adjoint=True), hermitian=True)


@dataclass(frozen=True)
class ResonanceRow:
    """Sideband offsets of one (drive, mode) pair, in units of nu_1."""

    ion: int
    mode: int
    nu: float
    omega_minus: float
    omega_plus: float
    required_abs_delta: float | None  # detuning that zeroes omega_minus, None if unreachable


@dataclass(frozen=True)
class ResonanceReport:
    rows: tuple[ResonanceRow, ...]
    nearest_ion: int
    nearest_mode: int


def resonance_offsets(model: ModelSpec) -> ResonanceReport:
    """Intensity-corrected sideband offsets omega_jp^+- = nu_p +- delta_eff_j.

    For each pair also reports the |detuning| that would put the pair exactly
    on resonance at the given Rabi frequency (transforms.corrected_detuning);
    a mode below 2 Omega is unreachable because delta_eff >= 2 Omega.
    """
    nu = model.chain.nu
    params = model.balanced()
    rows = []
    best = (np.inf, 1, 1)
    for j, (drive, par) in enumerate(zip(model.drives, params), start=1):
        for p in range(1, model.config.n_modes + 1):
            w_minus = float(nu[p - 1] - par.delta_eff)
            w_plus = float(nu[p - 1] + par.delta_eff)
            rows.append(
                ResonanceRow(
                    ion=drive.ion,
                    mode=p,
                    nu=float(nu[p - 1]),
                    omega_minus=w_minus,
                    omega_plus=w_plus,
                    required_abs_delta=corrected_detuning(nu[p - 1], drive.Omega_R),
                )
            )
            if abs(w_minus) < best[0]:
                best = (abs(w_minus), j, p)
    return ResonanceReport(rows=tuple(rows), nearest_ion=model.drives[best[1] - 1].ion, nearest_mode=best[2])
