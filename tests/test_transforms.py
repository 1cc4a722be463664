import math
import sys

import numpy as np
import pytest

from ionjc.chain import LaserDrive
from ionjc.fock import HilbertConfig, NumericalValidationError, basis_state, displacement_product, embed_factors
from ionjc.reference import (
    balanced_transform_closed,
    conditional_displacement,
    guarded_norm,
    ladder,
    linearizing_transform,
    mixing_rotation,
    spin_op,
)
from ionjc.transforms import (
    NoDriveError,
    balanced_params,
    balanced_transform,
    corrected_detuning,
    rotating_frame_diagonal,
    rotating_frame_phases,
)


def drive(Omega_R, delta, phase=0.0):
    return LaserDrive(ion=1, Omega_R=Omega_R, omega_L=-delta, k_L=0.1, phase=phase)


def test_balanced_params_on_resonance_values():
    par = balanced_params(drive(0.5, 0.0), [0.1])
    assert par.Delta == 0.0
    assert par.delta_eff == pytest.approx(1.0)
    assert par.theta == 0.0
    assert par.eta_eff == pytest.approx([0.0])
    assert par.kappa_plus == pytest.approx(1 / np.sqrt(2.0))
    assert par.kappa_minus == pytest.approx(1 / np.sqrt(2.0))
    assert par.eps_plus == pytest.approx(0.5)
    assert par.eps_minus == pytest.approx(-0.5)


def test_balanced_params_weak_field_limit():
    eta = np.array([0.1, -0.05])
    for sgn in (+1.0, -1.0):
        par = balanced_params(drive(1e-7, sgn * 1.0), eta)
        assert par.eta_eff == pytest.approx(sgn * eta, abs=1e-6)


def test_balanced_params_strong_field_limit():
    eta = np.array([0.1])
    par = balanced_params(drive(1e6, 1.0), eta)
    assert np.abs(par.eta_eff).max() <= 1e-6
    assert par.eta_eff_by_Delta == pytest.approx(eta / 2.0, abs=1e-6)


def test_balanced_params_rejects_zero_drive():
    with pytest.raises(NoDriveError):
        balanced_params(drive(0.0, 1.0), [0.1])


@pytest.mark.parametrize("omega_r, delta", [(1e-160, 0.9), (0.25, 1e160), (5e-324, 0.9), (5e-324, -0.9)])
def test_balanced_params_rejects_delta_whose_square_overflows(omega_r, delta):
    with pytest.raises(NoDriveError, match="squares past the float range"):
        balanced_params(drive(omega_r, delta), [0.1])


@pytest.mark.parametrize("omega_r, delta", [(1e308, 0.9), (8e307, 1.7e308)])
def test_balanced_params_rejects_a_corrected_detuning_past_the_float_range(omega_r, delta):
    # delta_eff = hypot(2 Omega_R, delta) is checked where it is formed, so a library caller gets it too, and before
    # numpy's hypot could overflow with a warning (2 Omega_R finite)
    with pytest.raises(NoDriveError, match=r"^the corrected detuning hypot\(2 Omega_R, delta\) of .* leaves the float"):
        balanced_params(drive(omega_r, delta), [0.1])


def test_balanced_params_keeps_the_largest_delta_that_squares():
    big = math.sqrt(sys.float_info.max)  # its square is finite, the next float's is not
    par = balanced_params(drive(1.0, big), [0.1])
    assert par.Delta == big and np.isfinite(par.eta_eff).all()


@pytest.mark.parametrize("nu, omega_r", [
    (1.0, 0.3), (1.0, 0.5), (1.0, 0.6), (1.7320508075688772, 1e-3), (0.5, 2.0),
    # one ulp either side of 2 Omega_R = nu: reachability follows the exact comparison, not the rounded nu^2 - 4 Omega_R^2
    (6.766184153134855, 3.3830920765674275), (1.0, float(np.nextafter(0.5, 1.0))),
])
def test_corrected_detuning_inverts_delta_eff(nu, omega_r):
    delta = corrected_detuning(nu, omega_r)
    assert (delta is None) == (2.0 * omega_r > nu)
    if delta is not None:
        assert delta >= 0.0
        assert balanced_params(drive(omega_r, delta), [0.1]).delta_eff == pytest.approx(nu, rel=1e-12)
        # a numpy scalar nu, as the resonance report passes it, gives the same bits as a Python float
        assert corrected_detuning(np.float64(nu), omega_r) == delta


def test_balanced_params_invariants_random():
    rng = np.random.default_rng(2024)
    nu = np.array([1.0, np.sqrt(3.0)])
    for _ in range(1000):
        omega_r = 10.0 ** rng.uniform(-3, 3)
        delta = rng.uniform(-5.0, 5.0)
        eta = rng.uniform(-0.3, 0.3, size=2)
        par = balanced_params(drive(omega_r, delta), eta)
        assert par.kappa_plus**2 + par.kappa_minus**2 == pytest.approx(1.0, abs=1e-12)
        assert par.kappa_plus * par.kappa_minus == pytest.approx(
            1.0 / np.sqrt(4.0 + par.Delta**2), abs=1e-12
        )
        assert par.eps_plus - par.eps_minus == pytest.approx(1.0, abs=1e-12)
        assert par.eps_plus + par.eps_minus == pytest.approx(
            par.Delta / np.sqrt(4.0 + par.Delta**2), abs=1e-12
        )
        # the two displacement-fraction forms of the closed block entries
        assert par.eps_minus * eta == pytest.approx((par.eta_eff - eta) / 2.0, abs=1e-12)
        assert par.eps_plus * eta == pytest.approx((par.eta_eff + eta) / 2.0, abs=1e-12)
        assert np.all(np.abs(par.eta_eff) <= np.abs(eta) + 1e-15)
        assert par.delta_eff >= max(2.0 * omega_r, abs(delta)) - 1e-12
        assert -np.pi / 2 <= par.theta <= np.pi / 2
        # bounded-coupling properties
        assert np.all(np.abs(par.eta_eff_by_Delta) <= np.abs(eta) / 2.0 + 1e-15)
        assert np.all(np.abs(par.eta_eff_by_Delta * par.eta_eff) <= eta**2 / 4.0 + 1e-15)


def test_bounded_coupling_approaches_half_eta():
    eta = np.array([0.2])
    vals = [abs(balanced_params(drive(om, 1.0), eta).eta_eff_by_Delta[0]) for om in (1.0, 10.0, 1e3)]
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] == pytest.approx(0.1, rel=1e-6)


def test_rotating_frame_identity_and_phases():
    cfg = HilbertConfig(n_modes=1, n_max=4)
    d0 = drive(0.3, 0.5)
    assert np.allclose(np.diag(rotating_frame_diagonal(cfg, [d0], 0.0)), np.eye(cfg.dim))
    # omega_L t = pi gives diag(e^{i pi/2}, e^{-i pi/2}) on the spin factor
    d1 = LaserDrive(ion=1, Omega_R=0.3, omega_L=1.0, k_L=0.1)
    r = rotating_frame_diagonal(cfg, [d1], np.pi)
    expected = embed_factors(cfg, spin_ops={1: np.diag([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 2)])})
    assert np.allclose(np.diag(r), expected, atol=1e-14)


def test_rotating_frame_composes_additively():
    cfg = HilbertConfig(n_modes=1, n_max=4, n_spins=2)
    drives = [LaserDrive(ion=j, Omega_R=0.2, omega_L=0.9 * j, k_L=0.1) for j in (1, 2)]
    t, s = 1.7, 2.9
    left = rotating_frame_diagonal(cfg, drives, t) * rotating_frame_diagonal(cfg, drives, s)
    right = rotating_frame_diagonal(cfg, drives, t + s)
    # with nonzero initial phases the product double-counts them, so use phase = 0
    assert np.abs(left - right).max() <= 1e-12
    # a vector of times gives the single-time phases as its columns, bit for bit
    phased = [LaserDrive(ion=j, Omega_R=0.2, omega_L=0.9 * j, k_L=0.1, phase=1.7 - 1.3 * j) for j in (1, 2)]
    times = [t, s, t + s, -4.2, 0.0]
    block = rotating_frame_phases(phased, np.array(times))
    assert block.shape == (4, len(times))
    assert (block == np.stack([rotating_frame_phases(phased, u) for u in times], axis=1)).all()


def test_linearizing_transform_zero_eta_block():
    cfg = HilbertConfig(n_modes=1, n_max=4)
    t1 = linearizing_transform(cfg, [0.0], 1)
    expected = embed_factors(cfg, spin_ops={1: np.array([[1, 1], [-1, 1]]) / np.sqrt(2.0)})
    assert np.allclose(t1, expected, atol=1e-14)


def test_linearizing_transform_flips_sigma_z():
    cfg = HilbertConfig(n_modes=1, n_max=20)
    t1 = linearizing_transform(cfg, [0.17], 1)
    sz = spin_op(cfg, 1, "z")
    sx = spin_op(cfg, 1, "x")
    assert np.abs(t1 @ sz @ t1.conj().T + sx).max() <= 1e-12


def test_linearizing_transform_maps_coupling_to_sigma_z():
    cfg = HilbertConfig(n_modes=1, n_max=30, guard=8)
    eta = [0.1]
    t1 = linearizing_transform(cfg, eta, 1)
    d2 = displacement_product(cfg, [1j * eta[0]])
    sp = spin_op(cfg, 1, "plus")
    sm = spin_op(cfg, 1, "minus")
    coupling = sm @ d2.conj().T + sp @ d2
    got = t1 @ coupling @ t1.conj().T
    sz = spin_op(cfg, 1, "z")
    assert guarded_norm(got - sz, cfg) <= 1e-8


def test_mixing_rotation_relations():
    cfg = HilbertConfig(n_modes=1, n_max=3)
    assert np.allclose(mixing_rotation(cfg, 0.0, 1), np.eye(cfg.dim))
    theta = 0.43
    t2 = mixing_rotation(cfg, theta, 1)
    sz = spin_op(cfg, 1, "z")
    sx = spin_op(cfg, 1, "x")
    got = t2 @ sz @ t2.conj().T
    assert np.abs(got - (np.cos(theta) * sz + np.sin(theta) * sx)).max() <= 1e-12
    t2_half = mixing_rotation(cfg, np.pi / 2, 1)
    assert np.abs(t2_half @ sz @ t2_half.conj().T - sx).max() <= 1e-12
    # number operators are untouched by a spin-only rotation
    n = ladder(cfg, 1, "number")
    assert np.abs(t2 @ n @ t2.conj().T - n).max() <= 1e-14


def test_conditional_displacement_basics():
    cfg = HilbertConfig(n_modes=1, n_max=20)
    assert np.allclose(conditional_displacement(cfg, [0.0], 1), np.eye(cfg.dim))
    alpha = 0.2j
    t3 = conditional_displacement(cfg, [alpha], 1)
    d = displacement_product(cfg, [alpha])
    # <g, n| T3 |g, n> equals the bare-mode element <n| D(alpha)^dag |n>
    for n in range(5):
        ket = basis_state(cfg, [n], ["g"])
        assert np.vdot(ket, t3 @ ket) == pytest.approx(np.vdot(ket, d.conj().T @ ket), abs=1e-14)


def test_balanced_transform_product_vs_closed_form():
    cfg = HilbertConfig(n_modes=1, n_max=40, guard=10)
    par = [balanced_params(drive(0.3, 0.3), [0.1])]  # Delta = 1
    prod = balanced_transform(cfg, par)
    closed = balanced_transform_closed(cfg, par)
    assert guarded_norm(prod - closed, cfg) <= 1e-10
    assert np.abs(prod - closed).max() <= 1e-10


@pytest.mark.parametrize("big_delta", [0.0, 1e-9, -1e-9, 1e-6, 1e-4, 1e9])
def test_closed_form_equals_factor_chain_at_every_delta(big_delta):
    # kappa+- as a difference of square roots lost half their digits as Delta -> 0 (1.7e-10 off the chain at
    # Delta = 1e-9) and kappa- all of them above |Delta| ~ 1e8; the larger plus r over the larger loses none
    cfg = HilbertConfig(n_modes=1, n_max=12, guard=2)
    par = balanced_params(drive(0.3, 0.3 * big_delta), [0.1])
    chain = (conditional_displacement(cfg, par.alpha, 1) @ mixing_rotation(cfg, par.theta, 1)
             @ linearizing_transform(cfg, par.eta, 1))
    assert np.abs(balanced_transform_closed(cfg, [par]) - chain).max() <= 1e-13


@pytest.mark.parametrize("n_ions, n_max", [(2, 6), (3, 5)], ids=["2-ions", "3-ions"])
def test_balanced_transform_blocks_equal_dense_factor_product(n_ions, n_max):
    # two modes: the ion expansion of both forms against the dense product of the per-ion builders
    cfg = HilbertConfig(n_modes=2, n_max=n_max, n_spins=n_ions, guard=1)
    eta_rows = np.array([[0.1, 0.05], [0.07, -0.06], [0.04, 0.08]])
    pars = [
        balanced_params(LaserDrive(ion=j, Omega_R=0.3, omega_L=-0.4 * j, k_L=0.1), eta_rows[j - 1])
        for j in range(1, n_ions + 1)
    ]
    ref = np.eye(cfg.dim)
    for ion, par in enumerate(pars, start=1):
        t1 = linearizing_transform(cfg, par.eta, ion)
        t2 = mixing_rotation(cfg, par.theta, ion)
        ref = conditional_displacement(cfg, par.alpha, ion) @ t2 @ t1 @ ref
    assert np.abs(balanced_transform(cfg, pars) - ref).max() <= 1e-13
    assert np.abs(balanced_transform_closed(cfg, pars) - ref).max() <= 1e-13


def test_balanced_transform_on_resonance_pattern():
    # Delta = 0: entries reduce to (1/sqrt2) D(-+ i eta / 2)
    cfg = HilbertConfig(n_modes=1, n_max=30, guard=6)
    eta = 0.1
    par = [balanced_params(drive(0.5, 0.0), [eta])]
    t = balanced_transform(cfg, par)
    d_half = displacement_product(cfg, [0.5j * eta])
    e_ee = embed_factors(cfg, spin_ops={1: np.array([[1, 0], [0, 0]], dtype=complex)})
    e_eg = embed_factors(cfg, spin_ops={1: np.array([[0, 1], [0, 0]], dtype=complex)})
    e_ge = embed_factors(cfg, spin_ops={1: np.array([[0, 0], [1, 0]], dtype=complex)})
    e_gg = embed_factors(cfg, spin_ops={1: np.array([[0, 0], [0, 1]], dtype=complex)})
    expected = (
        d_half.conj().T @ e_ee + d_half @ e_eg - d_half.conj().T @ e_ge + d_half @ e_gg
    ) / np.sqrt(2.0)
    assert np.abs(t - expected).max() <= 1e-12


def test_balanced_transform_columns_are_displaced_states():
    # action on |n, e> and |n, g>: displaced states weighted by kappa_plus / kappa_minus
    cfg = HilbertConfig(n_modes=1, n_max=30, guard=6)
    par = balanced_params(drive(0.4, 0.6), [0.12])
    t = balanced_transform(cfg, [par])
    d_minus = displacement_product(cfg, 1j * par.eps_minus * par.eta)
    d_plus = displacement_product(cfg, 1j * par.eps_plus * par.eta)
    for n in (0, 2, 5):
        ket_e = basis_state(cfg, [n], ["e"])
        ket_g = basis_state(cfg, [n], ["g"])
        expected_e = par.kappa_plus * (d_minus @ ket_e) - par.kappa_minus * (d_plus.conj().T @ ket_g)
        expected_g = par.kappa_minus * (d_plus @ ket_e) + par.kappa_plus * (d_minus.conj().T @ ket_g)
        assert np.abs(t @ ket_e - expected_e).max() <= 1e-12
        assert np.abs(t @ ket_g - expected_g).max() <= 1e-12


def test_builders_exactly_unitary():
    cfg = HilbertConfig(n_modes=2, n_max=10, n_spins=2, guard=2)
    eta_rows = np.array([[0.1, 0.05], [0.07, -0.06]])
    pars = [
        balanced_params(LaserDrive(ion=j, Omega_R=0.3, omega_L=-0.4, k_L=0.1), eta_rows[j - 1])
        for j in (1, 2)
    ]
    eye = np.eye(cfg.dim)
    for u in (
        linearizing_transform(cfg, eta_rows[0], 1),
        mixing_rotation(cfg, 0.3, 2),
        conditional_displacement(cfg, pars[0].alpha, 1),
        balanced_transform(cfg, pars),
        balanced_transform_closed(cfg, pars),
    ):
        assert np.abs(u.conj().T @ u - eye).max() <= 1e-12


@pytest.mark.parametrize("build", [
    lambda cfg, pars: linearizing_transform(cfg, pars[0].eta, 1),
    lambda cfg, pars: mixing_rotation(cfg, pars[0].theta, 1),
    lambda cfg, pars: conditional_displacement(cfg, pars[0].alpha, 1),
    balanced_transform,
    balanced_transform_closed,
])
def test_builders_check_unitarity_before_returning(monkeypatch, build):
    # the unitarity check a builder's record ran at construction now runs on the array it returns
    import dataclasses

    from ionjc import reference, transforms

    cfg = HilbertConfig(n_modes=1, n_max=6, n_spins=1)
    pars = [balanced_params(LaserDrive(ion=1, Omega_R=0.3, omega_L=-0.4, k_L=0.1), [0.1])]
    assert build(cfg, pars).dtype == np.complex128
    for name in ("kron_terms", "embed_factors"):
        original = getattr(reference, name)
        monkeypatch.setattr(reference, name, lambda *a, f=original, **kw: (1.0 + 1e-9) * f(*a, **kw))
    factored = transforms.factored_balanced_transform
    monkeypatch.setattr(transforms, "factored_balanced_transform",
                        lambda *a: dataclasses.replace(factored(*a), left=(1.0 + 1e-9) * factored(*a).left))
    with pytest.raises(NumericalValidationError,
                       match=r"matrix tagged unitary violates \|\|U\^dag U - I\|\|_max <= 1e-12 \(got 2\.000e-09\)"):
        build(cfg, pars)
