"""Unitary transformations that balance the ion-laser coupling.

The chain of transformations acts per driven ion: a spin-flip linearization
(mapping the exponential coupling onto sigma_z), a spin rotation by theta with
tan(theta) = Delta / 2, and a spin-conditioned displacement.  Their product is
the balanced transform whose closed block form has displacement entries
weighted by kappa_plus / kappa_minus.

All displacement arguments in this chain are purely imaginary multiples of the
same per-mode generator a_p + a_p^dag, so products of these operators compose
exactly even on the truncated space; only conjugations of ladder operators
feel the cutoff.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .chain import LaserDrive
from .fock import (
    _SPIN_2X2,
    HilbertConfig,
    _checked,
    check_matrix,
    dagger_factors,
    displacement_factors,
    embed_factors,
    kron_terms,
    mode_occupations,
    quadrature_basis,
    spin_signs,
)


class NoDriveError(ValueError):
    """Raised when balanced parameters are requested at a Rabi frequency zero or too small for the detuning."""


@dataclass(frozen=True, eq=False)
class BalancedParams:
    """Derived per-drive bundle consumed by the transformation builders.

    Attributes
    ----------
    Delta : float
        Dimensionless detuning ratio delta / Omega_R.
    delta_eff : float
        Intensity-corrected detuning sqrt(4 Omega_R^2 + delta^2); always
        >= max(2 Omega_R, |delta|).
    theta : float
        Mixing angle, tan(theta) = Delta / 2, in [-pi/2, pi/2].
    eta : ndarray
        Bare Lamb-Dicke row of the driven ion.
    eta_eff : ndarray
        Balanced Lamb-Dicke row (Delta / sqrt(4 + Delta^2)) eta; tends to
        sign(delta) eta at weak field and to 0 at strong field.
    eta_eff_by_Delta : ndarray
        eta_eff / Delta evaluated stably as eta / sqrt(4 + Delta^2); this is
        the bounded sideband coupling row, |eta_eff / Delta| <= |eta| / 2.
    kappa_plus, kappa_minus : float
        Closed-block-form weights; kappa_plus^2 + kappa_minus^2 = 1 and
        kappa_plus kappa_minus = r = 1 / s, s = sqrt(4 + Delta^2).  The larger
        is sqrt(1/4 + r/2) + |Delta| / (2 sqrt(s) sqrt(s + 2)) and the smaller r
        over it, so no difference of square roots cancels at any Delta.
    eps_plus, eps_minus : float
        Displacement fractions; eps_plus - eps_minus = 1 and
        eps_plus + eps_minus = Delta / sqrt(4 + Delta^2).
    alpha : ndarray
        Spin-conditioned displacement amplitudes i (Delta / (2 sqrt(4 +
        Delta^2))) eta.
    """

    Delta: float
    delta_eff: float
    theta: float
    eta: np.ndarray
    eta_eff: np.ndarray
    eta_eff_by_Delta: np.ndarray
    kappa_plus: float
    kappa_minus: float
    eps_plus: float
    eps_minus: float
    alpha: np.ndarray


def balanced_params(drive: LaserDrive, eta_row: Sequence[float]) -> BalancedParams:
    """Balanced parameters of one drive, given its Lamb-Dicke row.

    sign(Delta) is taken as +1 at Delta = 0; the term it weights vanishes
    there, the convention just keeps outputs deterministic.  A Delta whose
    square leaves the float range (|Delta| above about 1.3e154), or a corrected
    detuning delta_eff = hypot(2 Omega_R, delta) past it, is rejected like Omega_R = 0.
    """
    if drive.Omega_R <= 0.0:
        raise NoDriveError(
            "balanced parameters are undefined at Omega_R = 0; use the free Hamiltonian instead"
        )
    eta = np.asarray(eta_row, dtype=float)
    delta = drive.detuning
    big_delta = delta / drive.Omega_R
    try:
        square = big_delta**2
    except OverflowError:  # a float power checks its range
        square = math.inf
    if not math.isfinite(square):
        raise NoDriveError(f"Omega_R = {drive.Omega_R!r} is too small for the detuning {delta!r}: "
                           f"Delta = delta / Omega_R = {big_delta!r} squares past the float range")
    if not math.isfinite(math.hypot(2.0 * drive.Omega_R, delta)):  # Python floats: no warning
        raise NoDriveError(f"the corrected detuning hypot(2 Omega_R, delta) of Omega_R = {drive.Omega_R!r} and "
                           f"delta = {delta!r} leaves the float range")
    s = np.sqrt(4.0 + square)
    root = 1.0 / s
    larger = np.sqrt(0.25 + root / 2.0) + abs(big_delta) / (2.0 * np.sqrt(s) * np.sqrt(s + 2.0))
    kappa = (larger, root / larger) if big_delta >= 0 else (root / larger, larger)
    return BalancedParams(
        Delta=big_delta,
        delta_eff=float(np.hypot(2.0 * drive.Omega_R, delta)),
        theta=float(np.arctan(big_delta / 2.0)),
        eta=eta,
        eta_eff=big_delta * root * eta,
        eta_eff_by_Delta=root * eta,
        kappa_plus=float(kappa[0]),
        kappa_minus=float(kappa[1]),
        eps_plus=float(big_delta * root / 2.0 + 0.5),
        eps_minus=float(big_delta * root / 2.0 - 0.5),
        alpha=1j * (big_delta * root / 2.0) * eta,
    )


def corrected_detuning(nu: float, omega_r: float) -> float | None:
    """|delta| with delta_eff = sqrt(4 Omega_R^2 + delta^2) = nu, balanced_params inverted; None if 2 Omega_R > nu."""
    if 2.0 * omega_r > nu:  # exact in floating point, unlike the sign of the rounded nu^2 - 4 Omega_R^2
        return None
    return float(np.sqrt(max(nu**2 - 4.0 * omega_r**2, 0.0)))


def rotating_frame_phases(drives: Sequence[LaserDrive], t: float | np.ndarray) -> np.ndarray:
    """Spin part of rotating_frame_diagonal: its 2^n_spins phases, which repeat for every mode state.

    t is a time or an array of times; the result has shape (2^n_spins,) + t.shape,
    and each of its columns equals the call at that one time bit for bit.
    """
    t = np.asarray(t, dtype=float)
    diag = np.ones((1,) + t.shape, dtype=complex)
    for drive in drives:
        beta = drive.omega_L * t + drive.phase
        pair = np.stack([np.exp(1j * beta / 2), np.exp(-1j * beta / 2)])
        # np.kron order: the last drive varies fastest
        diag = (diag[:, None] * pair[None, :]).reshape((-1,) + t.shape)
    return diag


def rotating_frame_diagonal(
    config: HilbertConfig, drives: Sequence[LaserDrive], t: float
) -> np.ndarray:
    """Diagonal of the frame rotation prod_j exp(i (omega_L^j t + phase^j) sigma_z^j / 2).

    Returned as a phase vector over the standard basis; drives are matched to
    spin factors in list order.
    """
    return np.kron(np.ones(math.prod(config.shape[:config.n_modes])), rotating_frame_phases(drives, t))


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


def _mixing_block(theta: float) -> np.ndarray:
    """R(theta) [[1, 1], [-1, 1]] / sqrt(2), the real orthogonal 2 x 2 spin factor of one ion's balanced transform."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c + s, c - s], [s - c, s + c]]) / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class FactoredTransform:
    """balanced_transform's T = X L C R X^T, kept as its factors and applied to (dim, k) blocks of columns.

    Every displacement in T is exp(i y (a_p + a_p^dag)) of one quadrature per
    mode, diagonal in its real eigenbasis X (fock.quadrature_basis).  In the
    basis (x)_p X, at mode eigenvalues xi, ion j's 2 x 2 block
    diag(Da, Da^dag) C_j diag(D^dag, D) of balanced_transform is
    diag(e^{i phi_j}, e^{-i phi_j}) C_j diag(e^{-i chi_j}, e^{i chi_j}), with
    phi_j = sum_p xi_p Im(alpha_jp), chi_j = sum_p xi_p eta_jp / 2 and C_j the
    real rotation _mixing_block(theta_j).  So R and L are unimodular diagonals
    over the basis states and C = (x)_j C_j acts on the spin axes alone.  One
    application costs 2 n_modes n_max + 2^n_spins real-by-complex
    multiply-adds per entry, O(dim n_max) per column, against dim for a dense T.

    Construction certifies the factors that are not unitary by construction:
    X through its n_max x n_max real Gram and each C_j through its 2 x 2 one.
    """

    config: HilbertConfig
    basis: np.ndarray  # X, (n_max, n_max) real orthogonal
    right: np.ndarray  # R, (dim,) unimodular
    mixing: np.ndarray  # C, (2^n_spins, 2^n_spins) real orthogonal
    left: np.ndarray  # L, (dim,) unimodular

    def apply(self, x: np.ndarray, work: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """T x, or T^dag x = X R^* C^T L^* X^T x, for a C-ordered complex (dim, k) block x: the result lands in work.

        Each product is one real GEMM on the interleaved float view, over one
        mode axis or over the spin axes, written into work and x in turn: x is
        overwritten, and work is a C-ordered complex block of x's shape.  There
        are 2 n_modes + 1 products, so the last one writes into work.
        """
        config, k = self.config, x.shape[1]
        right, mixing, left = ((self.left.conj(), self.mixing.T, self.right.conj()) if adjoint
                               else (self.right, self.mixing, self.left))
        y = x
        modes = [(config.n_max**p, config.n_max, -1) for p in range(config.n_modes)]
        products = [(self.basis.T, shape) for shape in modes] + [(mixing, (-1, len(mixing), 2 * k))]
        products += [(self.basis, shape) for shape in modes]
        for i, (m, shape) in enumerate(products):
            out = (work, x)[i % 2]
            np.matmul(m, y.view(float).reshape(shape), out=out.view(float).reshape(shape))
            y = out
            if i == config.n_modes - 1:
                y *= right[:, None]
            elif i == config.n_modes:
                y *= left[:, None]
        return y


def factored_balanced_transform(config: HilbertConfig, params: Sequence[BalancedParams]) -> FactoredTransform:
    """The balanced transform of balanced_transform as a certified FactoredTransform; no dim x dim matrix is formed."""
    if len(params) != config.n_spins:
        raise ValueError("need balanced parameters for every spin factor")
    xi, basis = quadrature_basis(config.n_max)
    check_matrix(basis, unitary=True)
    blocks = [check_matrix(_mixing_block(par.theta), unitary=True) for par in params]
    quad = xi[mode_occupations(config)]  # xi_p of every basis state, (n_modes, dim)
    signs = spin_signs(config)  # +1 on e, -1 on g, (n_spins, dim)
    chi = np.einsum("jd,jp,pd->d", signs, 0.5 * np.array([par.eta for par in params]), quad)
    phi = np.einsum("jd,jp,pd->d", signs, np.array([par.alpha.imag for par in params]), quad)
    return FactoredTransform(config, basis, np.exp(-1j * chi), reduce(np.kron, blocks), np.exp(1j * phi))


def balanced_transform(config: HilbertConfig, params: Sequence[BalancedParams]) -> np.ndarray:
    """The balanced transform T as a dense matrix: factored_balanced_transform applied to the identity's columns.

    Per driven ion T is the composition conditional_displacement *
    mixing_rotation * linearizing_transform, over its (e, g) spin the 2 x 2
    block matrix diag(Da, Da^dag) R(theta) [[1, 1], [-1, 1]] diag(D^dag, D) /
    sqrt(2) with D = prod_p D_p(i eta_p / 2), Da = prod_p D_p(alpha_p);
    factors of different ions commute.  That per-ion chain and
    balanced_transform_closed are its independent dense references.
    """
    transform = factored_balanced_transform(config, params)
    eye = np.eye(config.dim, dtype=complex)
    return _checked(transform.apply(eye, np.empty_like(eye)), unitary=True)


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
