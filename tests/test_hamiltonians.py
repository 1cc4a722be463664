import tracemalloc

import numpy as np
import pytest

from conftest import make_single_model, make_two_ion_model
from ionjc.chain import ChainModel, LaserDrive
from ionjc.fock import (
    _SPIN_2X2,
    HilbertConfig,
    NumericalValidationError,
    _mode_destroy,
    basis_state,
    check_matrix,
    dagger_factors,
    displacement_factors,
    embed_factors,
    guarded_norm,
    kron_terms,
    mode_occupations,
    spin_op,
)
from ionjc.hamiltonians import (
    IntermediateParts,
    ModelSpec,
    balanced_hamiltonian,
    balanced_offset,
    dropped_linearization_constant,
    free_diagonal,
    gauged_balanced_flip,
    gauged_rotating_frame_hamiltonian,
    jc_interaction,
    linearized_hamiltonian,
    mixed_hamiltonian,
    resonance_offsets,
    restored_displacement_constant,
    rotating_frame_hamiltonian,
    standard_rwa_generator,
)
from ionjc.transforms import (
    NoDriveError,
    conditional_displacement,
    linearizing_transform,
    mixing_rotation,
)


def test_model_spec_validation():
    chain = ChainModel.build(2)
    cfg = HilbertConfig(n_modes=2, n_max=6, n_spins=2)
    good = [LaserDrive(ion=j, Omega_R=0.1, omega_L=0.0, k_L=0.1) for j in (1, 2)]
    ModelSpec(chain=chain, drives=tuple(good), config=cfg)
    with pytest.raises(ValueError):  # wrong drive count
        ModelSpec(chain=chain, drives=(good[0],), config=cfg)
    with pytest.raises(ValueError):  # duplicate ions
        ModelSpec(chain=chain, drives=(good[0], good[0]), config=cfg)
    with pytest.raises(ValueError):  # mode count mismatch
        ModelSpec(chain=ChainModel.build(3), drives=tuple(good), config=cfg)
    with pytest.raises(ValueError):  # omega_ge mismatch
        ModelSpec(chain=chain, drives=tuple(good), config=cfg, omega_ge=1.0)


def test_rotating_frame_hamiltonian_free_case():
    model = make_single_model(Omega_R=0.0, delta=0.7, n_max=6, guard=0)
    ht = rotating_frame_hamiltonian(model)
    diag = np.diag(ht)
    assert np.abs(ht - np.diag(diag)).max() == 0.0
    # |g, 1>: nu * 1 - delta / 2
    ket = basis_state(model.config, [1], ["g"])
    assert np.vdot(ket, ht @ ket) == pytest.approx(1.0 - 0.35)


def test_rotating_frame_hamiltonian_zero_eta_flip_block():
    # with eta = 0 the coupling is Omega sigma_x; realized by a perpendicular beam
    model = make_single_model(Omega_R=0.4, delta=0.3, n_max=6, guard=0, phi_beam=np.pi / 2)
    ht = rotating_frame_hamiltonian(model)
    n_part = np.diag(np.repeat(np.arange(6.0), 2))
    sz = spin_op(model.config, 1, "z")
    sx = spin_op(model.config, 1, "x")
    expected = n_part + 0.15 * sz + 0.4 * sx
    assert np.abs(ht - expected).max() <= 1e-12


def test_rotating_frame_hamiltonian_vacuum_matrix_element():
    # <e,0|H|g,0> = Omega e^{-sum eta^2 / 2}, via the exponential power series
    model = make_single_model(Omega_R=0.3, delta=0.7, k_L=0.1, n_max=30, guard=8)
    ht = rotating_frame_hamiltonian(model)
    bra = basis_state(model.config, [0], ["e"])
    ket = basis_state(model.config, [0], ["g"])
    x = -0.1**2 / 2.0
    series, term = 0.0, 1.0
    for k in range(60):
        series += term
        term *= x / (k + 1)
    assert np.vdot(bra, ht @ ket) == pytest.approx(0.3 * series, abs=1e-12)
    assert 0.3 * series == pytest.approx(0.3 * 0.99501247919268, abs=1e-10)


def test_rotating_frame_hamiltonian_exactly_hermitian():
    model = make_two_ion_model()
    ht = rotating_frame_hamiltonian(model)
    assert np.abs(ht - ht.conj().T).max() <= 1e-15


def test_standard_rwa_generator_kinds():
    model = make_single_model(Omega_R=0.25, delta=1.0, k_L=0.1, n_max=8, guard=0)
    carrier = standard_rwa_generator(model, "carrier")
    sx = spin_op(model.config, 1, "x")
    assert np.abs(carrier - 0.25 * sx).max() == 0.0

    red = standard_rwa_generator(model, "red", mode=1)
    bra = basis_state(model.config, [0], ["e"])
    ket = basis_state(model.config, [1], ["g"])
    elem = np.vdot(bra, red @ ket)
    assert abs(elem) == pytest.approx(0.1 * 0.25, abs=1e-15)
    assert elem == pytest.approx(1j * 0.1 * 0.25, abs=1e-15)

    blue = standard_rwa_generator(model, "blue", mode=1)
    bra2 = basis_state(model.config, [1], ["e"])
    ket2 = basis_state(model.config, [0], ["g"])
    assert np.vdot(bra2, blue @ ket2) == pytest.approx(1j * 0.1 * 0.25, abs=1e-15)

    # zero Lamb-Dicke coupling gives the zero matrix (up to cos(pi/2) roundoff)
    perp = make_single_model(Omega_R=0.25, delta=1.0, n_max=8, guard=0, phi_beam=np.pi / 2)
    assert np.abs(standard_rwa_generator(perp, "red", mode=1)).max() <= 1e-16

    with pytest.raises(ValueError):
        standard_rwa_generator(model, "red", mode=2)
    with pytest.raises(ValueError):
        standard_rwa_generator(model, "sideways")


def test_transformation_chain_closes_step_by_step(single_model):
    """Each frame, built from its own closed expression, matches the conjugated previous frame."""
    model = single_model
    cfg = model.config
    par = model.balanced()[0]
    ht = rotating_frame_hamiltonian(model)
    eye = np.eye(cfg.dim)

    lin = linearized_hamiltonian(model)
    t1 = linearizing_transform(cfg, par.eta, 1)
    conj1 = t1 @ (ht - lin.offset * eye) @ t1.conj().T
    assert guarded_norm(conj1 - (lin.h0 + lin.flip), cfg) <= 1e-8

    mix = mixed_hamiltonian(model)
    t2 = mixing_rotation(cfg, par.theta, 1)
    conj2 = t2 @ (lin.h0 + lin.flip) @ t2.conj().T
    # spin-only rotation: exact even on the truncated space
    assert np.abs(conj2 - (mix.h0 + mix.flip)).max() <= 1e-12

    h0, flip, _ = balanced_hamiltonian(model)
    t3 = conditional_displacement(cfg, par.alpha, 1)
    c2 = restored_displacement_constant(par, model.chain.nu)
    conj3 = t3 @ (mix.h0 + mix.flip + c2 * eye) @ t3.conj().T
    assert guarded_norm(conj3 - (h0 + flip), cfg) <= 1e-8


def test_mixing_rotation_diagonalizes_linearized_h0(single_model):
    model = single_model
    cfg = model.config
    par = model.balanced()[0]
    lin = linearized_hamiltonian(model)
    t2 = mixing_rotation(cfg, par.theta, 1)
    got = t2 @ lin.h0 @ t2.conj().T
    n_diag = model.chain.nu @ mode_occupations(cfg)
    expected = np.diag(n_diag.astype(complex)) + 0.5 * par.delta_eff * spin_op(cfg, 1, "z")
    assert np.abs(got - expected).max() <= 1e-12


def test_conditional_displacement_diagonalizes_mixed_h0(single_model):
    model = single_model
    cfg = model.config
    par = model.balanced()[0]
    mix = mixed_hamiltonian(model)
    t3 = conditional_displacement(cfg, par.alpha, 1)
    got = t3 @ mix.h0 @ t3.conj().T
    off_diagonal = got - np.diag(np.diag(got))
    assert guarded_norm(off_diagonal, cfg) <= 1e-8


@pytest.mark.parametrize("model_name", ["single_model", "two_ion_model"])
def test_balanced_frame_is_intermediate_parts(request, model_name):
    # the balanced frame has the (h0, flip, offset) shape of the linearized and mixed frames
    model = request.getfixturevalue(model_name)
    parts = balanced_hamiltonian(model)
    assert isinstance(parts, IntermediateParts)
    h0, flip, offset = parts
    assert np.array_equal(h0, np.diag(free_diagonal(model, [par.delta_eff for par in model.balanced()])))
    assert h0.dtype == flip.dtype == np.complex128
    assert offset == balanced_offset(model)
    if model_name == "single_model":
        assert isinstance(linearized_hamiltonian(model), IntermediateParts)
        assert isinstance(mixed_hamiltonian(model), IntermediateParts)


def test_rotating_frame_and_standard_generator_are_checked_operators(single_model):
    for op in (rotating_frame_hamiltonian(single_model), standard_rwa_generator(single_model, "carrier"),
               standard_rwa_generator(single_model, "red", mode=1)):
        assert isinstance(op, np.ndarray) and op.dtype == np.complex128


@pytest.mark.parametrize("build", [
    rotating_frame_hamiltonian,
    lambda m: standard_rwa_generator(m, "carrier"),
    lambda m: standard_rwa_generator(m, "red", mode=1),
    lambda m: jc_interaction(m, 0.7),
    lambda m: linearized_hamiltonian(m).flip,
    lambda m: mixed_hamiltonian(m).h0,
    lambda m: balanced_hamiltonian(m).flip,
])
def test_hamiltonian_builders_check_hermiticity_before_returning(monkeypatch, build):
    # the hermiticity check a builder's record ran at construction now runs on the array it returns
    from ionjc import hamiltonians

    model = make_single_model(n_max=6, guard=1)
    for name in ("kron_terms", "ungauge"):
        original = getattr(hamiltonians, name)
        monkeypatch.setattr(hamiltonians, name, lambda *a, f=original, **kw: f(*a, **kw) + 1e-6 * np.tri(12, k=-1))
    with pytest.raises(NumericalValidationError,
                       match=r"matrix tagged hermitian violates \|\|H - H\^dag\|\|_max <= 1e-10 \(got [12]\.\d+e-06\)"):
        build(model)


def test_balanced_h0_exactly_diagonal_and_flip_hermitian(single_model):
    h0, flip, _ = balanced_hamiltonian(single_model)
    m = h0
    assert np.abs(m - np.diag(np.diag(m))).max() == 0.0
    assert np.abs(flip - flip.conj().T).max() <= 1e-15
    # eigenvalue of |e, n>: sum nu n + delta_eff / 2
    par = single_model.balanced()[0]
    ket = basis_state(single_model.config, [3], ["e"])
    assert np.vdot(ket, m @ ket) == pytest.approx(3.0 + par.delta_eff / 2.0)


def test_balanced_offsets_and_spectrum_preservation():
    for omega_r, delta in [(0.3, 0.7), (2.0, 0.5)]:
        model = make_single_model(Omega_R=omega_r, delta=delta)
        ht = rotating_frame_hamiltonian(model)
        h0, flip, offset = balanced_hamiltonian(model)
        par = model.balanced()[0]
        expected_offset = dropped_linearization_constant(par.eta, model.chain.nu) - restored_displacement_constant(par, model.chain.nu)
        assert offset == pytest.approx(expected_offset, abs=1e-15)
        e_ref = np.linalg.eigvalsh(ht)
        e_bal = np.linalg.eigvalsh(h0 + flip) + offset
        interior = 2 * (model.config.n_max - model.config.guard)
        assert np.abs(e_ref - e_bal)[:interior].max() <= 1e-8


def test_balanced_flip_weak_field_scale():
    # || flip || ~ Omega at fixed detuning
    model = make_single_model(Omega_R=1e-6, delta=1.0, n_max=20, guard=5)
    _, flip, _ = balanced_hamiltonian(model)
    assert np.linalg.norm(flip, 2) <= 1e-5 * 0.1  # well under nu1 * max eta scale


def test_balanced_flip_strong_field_limit():
    # Omega -> inf: flip -> (i/2) sum eta nu (a - a^dag) sigma_x, to 1e-5 relative
    model = make_single_model(Omega_R=1e6, delta=1.0, n_max=20, guard=5)
    _, flip, _ = balanced_hamiltonian(model)
    cfg = model.config
    from ionjc.fock import _mode_destroy, embed_factors

    a = embed_factors(cfg, {1: _mode_destroy(cfg.n_max)})
    sx = spin_op(cfg, 1, "x")
    limit = 0.5 * 0.1 * 1.0 * (1j * (a - a.conj().T)) @ sx
    limit = (limit + limit.conj().T) / 2.0
    rel = np.linalg.norm(flip - limit, 2) / np.linalg.norm(limit, 2)
    assert rel <= 1e-5


def test_balanced_flip_small_eta_linearization():
    # distance(flip, linear-coupling form) = O(eta^2): the ratio stays bounded as eta halves
    ratios = []
    for k_l in (0.02, 0.01, 0.005):
        model = make_single_model(Omega_R=0.4, delta=0.6, k_L=k_l, n_max=25, guard=6)
        cfg = model.config
        par = model.balanced()[0]
        _, flip, _ = balanced_hamiltonian(model)
        from ionjc.fock import _mode_destroy, embed_factors

        a = embed_factors(cfg, {1: _mode_destroy(cfg.n_max)})
        sx = spin_op(cfg, 1, "x")
        approx = par.eta_eff_by_Delta[0] * model.chain.nu[0] * (1j * (a - a.conj().T)) @ sx
        dist = guarded_norm(flip - approx, cfg)
        ratios.append(dist / k_l**2)
    assert max(ratios) <= 2.0 * min(ratios)


def test_jc_interaction_at_zero_time_is_flip(single_model):
    _, flip, _ = balanced_hamiltonian(single_model)
    jc0 = jc_interaction(single_model, 0.0)
    assert np.abs(jc0 - flip).max() <= 1e-12


@pytest.mark.parametrize("t", [0.37, 2.14, 9.81])
def test_jc_interaction_matches_frame_conjugation(single_model, t):
    h0, flip, _ = balanced_hamiltonian(single_model)
    d0 = np.real(np.diag(h0))
    phases = np.exp(1j * d0 * t)
    conj = (phases[:, None] * flip) * np.conj(phases)[None, :]
    jc = jc_interaction(single_model, t)
    assert guarded_norm(jc - conj, single_model.config) <= 1e-9
    assert np.abs(jc - jc.conj().T).max() <= 1e-12


def test_jc_interaction_multi_drive_consistency(two_ion_model):
    h0, flip, _ = balanced_hamiltonian(two_ion_model)
    t = 1.3
    d0 = np.real(np.diag(h0))
    phases = np.exp(1j * d0 * t)
    conj = (phases[:, None] * flip) * np.conj(phases)[None, :]
    jc = jc_interaction(two_ion_model, t)
    assert guarded_norm(jc - conj, two_ion_model.config) <= 1e-9


def test_resonance_offsets_inversion():
    model = make_single_model(Omega_R=0.25, delta=0.5, n_max=6, guard=0)
    report = resonance_offsets(model)
    row = report.rows[0]
    assert row.required_abs_delta == pytest.approx(np.sqrt(0.75), abs=1e-12)
    assert row.omega_minus == pytest.approx(1.0 - np.sqrt(4 * 0.25**2 + 0.5**2))


def test_resonance_offsets_unreachable():
    model = make_single_model(Omega_R=0.6, delta=0.5, n_max=6, guard=0)
    report = resonance_offsets(model)
    assert report.rows[0].required_abs_delta is None  # 2 Omega = 1.2 > nu = 1


def test_resonance_offsets_weak_field_recovers_standard_condition():
    model = make_single_model(Omega_R=1e-8, delta=0.5, n_max=6, guard=0)
    report = resonance_offsets(model)
    assert report.rows[0].required_abs_delta == pytest.approx(1.0, abs=1e-12)


def test_resonance_offsets_nearest_pair(two_ion_model):
    report = resonance_offsets(two_ion_model)
    # both drives sit on their own resonances; nearest must be one of them with ~0 offset
    gaps = {(r.ion, r.mode): abs(r.omega_minus) for r in report.rows}
    assert gaps[(report.nearest_ion, report.nearest_mode)] <= min(gaps.values()) + 1e-12
    assert gaps[(report.nearest_ion, report.nearest_mode)] <= 1e-10


def _embedded_gauged_hamiltonian(model):
    """Reference assembly of P^dag H P as a sum of full-space embedded Kronecker products."""
    config, eta = model.config, model.eta_matrix()
    h = np.diag(free_diagonal(model, [d.detuning for d in model.drives]))
    for j, drive in enumerate(model.drives, start=1):
        w = embed_factors(config, displacement_factors(config, eta[j - 1]), {j: _SPIN_2X2["plus"]})
        h += drive.Omega_R * (w.T + w)
    return h


def _embedded_gauged_flip(model):
    """Reference assembly of P^dag F P, term by term in the builder's order: each sigma_+ term, then its transpose."""
    config, nu = model.config, model.chain.nu
    flip = np.zeros((config.dim, config.dim))
    a1 = _mode_destroy(config.n_max)
    x = -(a1 + a1.T)
    for j, par in enumerate(model.balanced(), start=1):
        d2 = displacement_factors(config, par.eta_eff)
        for p in range(1, config.n_modes + 1):
            coup = par.eta_eff_by_Delta[p - 1] * nu[p - 1]
            w = 0.5 * coup * embed_factors(config, {**d2, p: x @ d2[p] + d2[p] @ x}, {j: _SPIN_2X2["plus"]})
            flip += w
            flip += w.T
    return flip


def _paper_gauged_flip(model):
    """P^dag F P from the paper's full flip part: its sigma_+- terms plus the kappa term K, then (F + F^T) / 2.

    Returns the symmetrized flip and K.
    """
    config, nu = model.config, model.chain.nu
    a1 = _mode_destroy(config.n_max)
    x = -(a1 + a1.T)
    terms, kappa_terms = [], []
    for j, par in enumerate(model.balanced(), start=1):
        sp, sm = {j: _SPIN_2X2["plus"]}, {j: _SPIN_2X2["minus"]}
        d2 = displacement_factors(config, par.eta_eff)
        d2_dag = dagger_factors(d2)
        for p in range(1, config.n_modes + 1):  # x_p (sigma_-^j Dj^dag2 + sigma_+^j Dj^2), factor by factor
            coup = par.eta_eff_by_Delta[p - 1] * nu[p - 1]
            terms += [(coup, {**d2_dag, p: x @ d2_dag[p]}, sm), (coup, {**d2, p: x @ d2[p]}, sp)]
        kappa = float(np.sum(par.eta_eff_by_Delta * par.eta_eff * nu))
        kappa_terms += [(-kappa, d2_dag, sm), (kappa, d2, sp)]  # - kappa_j (sigma_-^j Dj^dag2 - sigma_+^j Dj^2)
    flip = kron_terms(config, terms + kappa_terms)
    return (flip + flip.T) / 2.0, kron_terms(config, kappa_terms)


def _three_ion_outer_drives():
    chain = ChainModel.build(3)
    config = HilbertConfig(n_modes=3, n_max=4, n_spins=2, guard=1)
    drives = (LaserDrive(ion=1, Omega_R=0.3, omega_L=-0.8, k_L=0.12, phase=0.3),
              LaserDrive(ion=3, Omega_R=0.5, omega_L=1.1, k_L=0.09, phi_beam=0.4))
    return ModelSpec(chain=chain, drives=drives, config=config)


@pytest.mark.parametrize("model", [
    make_single_model(n_max=6, guard=2),
    make_two_ion_model(phases=(0.4, -1.2), phi_beams=(0.3, 0.8)),
    _three_ion_outer_drives(),
    make_two_ion_model(Om1=0.0, n_max=6, guard=2),
], ids=["1ion", "2ions", "3ions-drives-1-3", "2ions-undriven"])
def test_spin_block_assembly_equals_embedded_products(model):
    # writing the mode blocks into place gives every entry the one term the embedded sum gives it
    assert np.array_equal(gauged_rotating_frame_hamiltonian(model), _embedded_gauged_hamiltonian(model))
    if model.drives[0].Omega_R == 0.0:
        with pytest.raises(NoDriveError):
            gauged_balanced_flip(model)
    else:
        assert np.array_equal(gauged_balanced_flip(model), _embedded_gauged_flip(model))


@pytest.mark.parametrize("model", [
    make_single_model(n_max=6, guard=2),
    make_two_ion_model(phases=(0.4, -1.2), phi_beams=(0.3, 0.8)),
    _three_ion_outer_drives(),
], ids=["1ion", "2ions", "3ions-drives-1-3"])
def test_flip_is_the_hermitian_part_of_the_papers_flip(model):
    # the kappa term is exactly antisymmetric in the gauge, so the symmetrization cancels it, and the
    # sigma_- terms are the transposes of sigma_+ ones: the flip is the hermitian part of its sigma_+ half
    full, kappa = _paper_gauged_flip(model)
    assert np.abs(kappa).max() > 0.0
    assert np.array_equal(kappa + kappa.T, np.zeros_like(kappa))
    assert np.abs(gauged_balanced_flip(model) - full).max() <= 1e-15


def test_flip_and_jc_hold_no_dense_temporaries():
    model = make_two_ion_model(n_max=12)
    real_bytes = model.config.dim**2 * 8
    gauged_balanced_flip(model)  # fill the basis caches outside the measurement
    jc_interaction(model, 0.7)
    tracemalloc.start()
    try:
        gauged_balanced_flip(model)
        _, flip_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        jc_interaction(model, 0.7)
        _, jc_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert flip_peak <= 1.5 * real_bytes  # the flip itself plus mode-block temporaries
    assert jc_peak - base <= 1.5 * 2 * real_bytes  # JC(t), complex, and its row-block hermiticity check


def test_gauged_hamiltonian_and_its_check_hold_no_dense_temporaries():
    model = make_two_ion_model(n_max=12)
    matrix_bytes = model.config.dim**2 * 8
    gauged_rotating_frame_hamiltonian(model)  # fill the basis caches outside the measurement
    tracemalloc.start()
    try:
        h = gauged_rotating_frame_hamiltonian(model)
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        check_matrix(h, hermitian=True)
        _, check_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert build_peak <= 1.5 * matrix_bytes  # h itself plus mode-block temporaries
    assert check_peak - base < matrix_bytes
