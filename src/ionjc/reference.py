"""The paper's dense constructions, the independent references the tests score the solver against.

Each builder returns a checked dense ndarray assembled straight from the
paper's expressions: single-mode and single-ion operators, the conventional
RWA generator, the linearized and mixed frames, the interaction-picture
coupling, and the balanced transform as the per-ion chain and in its closed
block form.  This module imports the solver modules; none of them imports it,
and the command line runs none of it.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from .chain import LaserDrive
from .fock import (_SPIN_2X2, HilbertConfig, _checked, _displacement_1mode, _expm_hermitian, _mode_destroy, check_matrix,
                   displacement_factors, embed_factors, guard_mask, kron_terms)
from .hamiltonians import IntermediateParts, ModelSpec, dropped_linearization_constant, free_diagonal
from .transforms import BalancedParams


def ladder(config: HilbertConfig, mode: int, kind: str) -> np.ndarray:
    """Truncated annihilation / creation / number operator on one mode.

    a|n> = sqrt(n)|n-1>, a_dag|n> = sqrt(n+1)|n+1> for n+1 < n_max, and
    a_dag|n_max - 1> = 0 (hard truncation).
    """
    a = _mode_destroy(config.n_max)
    if kind == "annihilate":
        op, herm = a, False
    elif kind == "create":
        op, herm = a.conj().T, False
    elif kind == "number":
        op, herm = a.conj().T @ a, True
    else:
        raise ValueError(f"unknown ladder kind {kind!r}")
    return _checked(embed_factors(config, {mode: op}), hermitian=herm)


def spin_op(config: HilbertConfig, ion: int, kind: str) -> np.ndarray:
    """Pauli operator or |e>/|g> projector on the ion-th spin factor (|e> before |g>)."""
    try:
        s = _SPIN_2X2[kind]
    except KeyError:
        raise ValueError(f"unknown spin kind {kind!r}") from None
    return _checked(embed_factors(config, spin_ops={ion: s}), hermitian=kind not in ("plus", "minus"))


def displacement(config: HilbertConfig, mode: int, alpha: complex) -> np.ndarray:
    """Displacement operator D(alpha) = exp(alpha a_dag - alpha* a) on one mode.

    Built from the truncated generator, so D is exactly unitary on the
    truncated space; the shift property D a D^dag = a - alpha holds only on
    the guarded subspace.
    """
    d1 = _displacement_1mode(config.n_max, complex(alpha))
    return _checked(embed_factors(config, {mode: d1}), unitary=True)


def dagger_factors(factors: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Factor-wise adjoint: the Kronecker product of the results is the adjoint of the product."""
    return {p: m.conj().T for p, m in factors.items()}


def expm_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for hermitian H, via eigendecomposition.

    Rejects input that fails the numerical hermiticity check.
    """
    return _checked(_expm_hermitian(check_matrix(h, hermitian=True), t), unitary=True)


def guarded_norm(m: np.ndarray, config: HilbertConfig) -> float:
    """Spectral norm ||P M P||_2 with P the guard-band projector."""
    keep = guard_mask(config)
    sub = m[np.ix_(keep, keep)]
    return float(np.linalg.norm(sub, 2))


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


def _require_single_drive(model: ModelSpec) -> LaserDrive:
    if len(model.drives) != 1:
        raise ValueError("intermediate-frame construction is defined for a single drive")
    return model.drives[0]


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


def linearizing_transform(config: HilbertConfig, eta_row: Sequence[float], ion: int) -> np.ndarray:
    """Unitary mapping the exponential spin-flip coupling of one ion onto sigma_z.

    Block form over (e, g): (1/sqrt(2)) [[D^dag, D], [-D^dag, D]] with
    D = prod_p D_p(i eta_p / 2).
    """
    d = displacement_factors(config, 0.5j * np.asarray(eta_row, dtype=float))
    t1 = kron_terms(config, [(1.0, dagger_factors(d), {ion: (_SPIN_2X2["ee"] - _SPIN_2X2["minus"]) / np.sqrt(2.0)}),
                             (1.0, d, {ion: (_SPIN_2X2["plus"] + _SPIN_2X2["gg"]) / np.sqrt(2.0)})])
    return _checked(t1, unitary=True)


def mixing_rotation(config: HilbertConfig, theta: float, ion: int) -> np.ndarray:
    """Spin rotation by theta about the y axis on one ion."""
    if not -np.pi / 2 <= theta <= np.pi / 2:
        raise ValueError("theta must lie in [-pi/2, pi/2]")
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    return _checked(embed_factors(config, spin_ops={ion: rot}), unitary=True)


def conditional_displacement(
    config: HilbertConfig, alpha_row: Sequence[complex], ion: int
) -> np.ndarray:
    """Block-diagonal spin-conditioned displacement diag(D({alpha}), D({alpha})^dag)."""
    d = displacement_factors(config, np.asarray(alpha_row, dtype=complex))
    t3 = kron_terms(config, [(1.0, d, {ion: _SPIN_2X2["ee"]}), (1.0, dagger_factors(d), {ion: _SPIN_2X2["gg"]})])
    return _checked(t3, unitary=True)


_UNITS = ((_SPIN_2X2["ee"], _SPIN_2X2["plus"]), (_SPIN_2X2["minus"], _SPIN_2X2["gg"]))  # |r><q| over (e, g)


def _ion_product(config: HilbertConfig, ions: Sequence) -> np.ndarray:
    """prod_j B_j for one 2 x 2 block operator per ion, ions[j - 1][r][q] = (scale, {mode: factor}) its (r, q) block.

    Blocks of different ions commute, so the product is one Kronecker term per
    choice of an entry (r, q) of each ion: the product of the scales, per mode
    the product of the factors in ion order, and |r><q| on each ion.
    """
    if len(ions) != config.n_spins:
        raise ValueError("need balanced parameters for every spin factor")
    terms = []
    for rq in itertools.product(itertools.product(range(2), repeat=2), repeat=len(ions)):
        blocks = [ion[r][q] for ion, (r, q) in zip(ions, rq)]
        modes = {p: reduce(np.matmul, [m[p] for _, m in blocks]) for p in range(1, config.n_modes + 1)}
        terms.append((np.prod([scale for scale, _ in blocks]), modes,
                      {j: _UNITS[r][q] for j, (r, q) in enumerate(rq, start=1)}))
    return kron_terms(config, terms)


def balanced_transform_closed(
    config: HilbertConfig, params: Sequence[BalancedParams]
) -> np.ndarray:
    """Closed block form of the balanced transform.

    Per ion: [[k+ D(i eps- eta), k- D(i eps+ eta)], [-k- D(i eps+ eta)^dag,
    k+ D(i eps- eta)^dag]], built from kappa/eps alone and expanded over the
    ions by _ion_product, so it stays a dense cross-check of the factors
    independent of them.
    """
    ions = []
    for par in params:
        d_minus = displacement_factors(config, 1j * par.eps_minus * par.eta)
        d_plus = displacement_factors(config, 1j * par.eps_plus * par.eta)
        ions.append([[(par.kappa_plus, d_minus), (par.kappa_minus, d_plus)],
                     [(-par.kappa_minus, dagger_factors(d_plus)), (par.kappa_plus, dagger_factors(d_minus))]])
    return _checked(_ion_product(config, ions), unitary=True)
