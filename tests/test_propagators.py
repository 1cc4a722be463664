import json
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest

from conftest import make_single_model, make_two_ion_model
from ionjc import fock, propagators, transforms
from ionjc.cli import main
from ionjc.config import parse_config, serialize_config
from ionjc.experiments import _sweep_point, run_evolve, run_sweep_rabi
from ionjc.fock import (
    NumericalValidationError,
    OperatorMatrix,
    _mode_destroy,
    basis_state,
    check_matrix,
    coherent_state,
    embed_factors,
    expm_unitary,
    guard_mask,
    guarded_distance,
    guarded_infidelity,
    guarded_norm,
    parity_gauge,
    quadrature_basis,
    spin_op,
    spin_signs,
)
from ionjc.hamiltonians import (balanced_hamiltonian, balanced_offset, free_diagonal, gauged_balanced_flip,
                                rotating_frame_hamiltonian)
from ionjc.propagators import (
    METHODS,
    _plan,
    evolve_states,
    exact_propagator,
    jc_coupling,
    pipeline_propagator,
    rwa_jc_propagator,
    rwa_jc_propagator_multi,
    standard_rwa_propagator,
    turn_on_propagator,
)
from ionjc.transforms import (NoDriveError, _mixing_block, balanced_transform, balanced_transform_closed,
                              rotating_frame_diagonal, rotating_frame_phases)


def _gauge_models():
    """1- and 2-ion models with optical phases, both detuning signs and angled beams."""
    return [
        make_single_model(Omega_R=0.6, delta=0.8, k_L=0.2, phase=0.7, phi_beam=0.5, n_max=14, guard=4),
        make_single_model(Omega_R=0.4, delta=-1.3, k_L=0.2, phase=-2.1, phi_beam=1.1, n_max=14, guard=4),
        make_two_ion_model(delta1=0.9, delta2=-1.4, k_L=0.15, n_max=6, guard=2,
                           phases=(0.4, -1.2), phi_beams=(0.3, 0.8)),
    ]


def test_exact_propagator_identity_at_equal_times():
    # frame bookkeeping keeps U(t0, t0) = 1 even with t0 != 0 and optical phase
    model = make_single_model(Omega_R=0.3, delta=0.7, phase=0.9, n_max=12, guard=3)
    u = exact_propagator(model, 2.7, 2.7)
    assert np.abs(u.entries - np.eye(model.config.dim)).max() <= 1e-12


def test_exact_propagator_free_case_is_diagonal():
    model = make_single_model(Omega_R=0.0, delta=0.7, n_max=8, guard=0)
    t = 3.1
    u = exact_propagator(model, t)
    off = u.entries - np.diag(np.diag(u.entries))
    assert np.abs(off).max() <= 1e-14
    # |g, n>: phase from nu n - delta/2 in the rotating frame, plus omega_L n... frame restores lab phases
    ket = basis_state(model.config, [2], ["g"])
    got = np.vdot(ket, u.entries @ ket)
    # lab-frame energy of |g, 2> is 2 nu - omega_ge / 2 = 2 (omega_ge = 0)
    assert got == pytest.approx(np.exp(-1j * 2.0 * t), abs=1e-12)


def _method_propagator(model, method, pairs, t, t0=0.0):
    """U(t, t0) of one evolve method through its public matrix builder."""
    if method == "exact":
        return exact_propagator(model, t, t0)
    if method == "pipeline_exact":
        return pipeline_propagator(model, t, t0, mode="exact")
    if method == "pipeline_rwa":
        return pipeline_propagator(model, t, t0, mode="rwa", resonant_pairs=pairs)
    if method == "rwa_jc":
        return rwa_jc_propagator_multi(model, pairs, t, t0)
    return standard_rwa_propagator(model, *pairs[0], t, t0)


@pytest.mark.parametrize("method", ["exact", "pipeline_exact", "pipeline_rwa", "standard_rwa", "rwa_jc"])
def test_exact_propagator_group_property(method):
    # U(t2, t1) U(t1, t0) = U(t2, t0) checks the t0 bookkeeping of every method's core and frame
    model = make_single_model(n_max=16, guard=4, phase=0.4)
    pairs = [(1, 1)]
    u21 = _method_propagator(model, method, pairs, 9.0, 4.0)
    u10 = _method_propagator(model, method, pairs, 4.0, 1.5)
    u20 = _method_propagator(model, method, pairs, 9.0, 1.5)
    assert np.abs(check_matrix(u21.entries @ u10.entries, unitary=True) - u20.entries).max() <= 1e-10


def test_pipeline_exact_matches_oracle(single_model):
    for t in (0.9, 7.3, 18.0):
        u_exact = exact_propagator(single_model, t)
        u_pipe = pipeline_propagator(single_model, t, mode="exact")
        assert guarded_infidelity(u_pipe, u_exact) <= 1e-8
        # offsets are tracked, so the match holds including global phase
        assert guarded_distance(u_pipe, u_exact) <= 1e-8


def test_pipeline_identity_at_equal_times(single_model):
    for mode, pairs in (("exact", None), ("rwa", [(1, 1)])):
        u = pipeline_propagator(single_model, 4.2, 4.2, mode=mode, resonant_pairs=pairs)
        assert np.abs(u.entries - np.eye(single_model.config.dim)).max() <= 1e-12


def test_pipeline_weak_drive_approaches_free_evolution():
    # the flip part scales with Omega, so a tiny drive evolves almost freely
    t = 5.0
    weak = pipeline_propagator(make_single_model(Omega_R=1e-4, delta=1.0), t, mode="exact")
    free = exact_propagator(make_single_model(Omega_R=0.0, delta=1.0), t)
    assert guarded_distance(weak, free) <= 5e-3  # scale: Omega t
    weaker = pipeline_propagator(make_single_model(Omega_R=1e-5, delta=1.0), t, mode="exact")
    assert guarded_distance(weaker, free) <= 5e-4


def test_pipeline_rejects_zero_drive():
    model = make_single_model(Omega_R=0.0, delta=1.0, n_max=8, guard=2)
    with pytest.raises(NoDriveError):
        pipeline_propagator(model, 1.0, mode="exact")


def test_pipeline_rwa_requires_pair(single_model):
    with pytest.raises(ValueError):
        pipeline_propagator(single_model, 1.0, mode="rwa")


def test_rwa_jc_identity_and_stationary_state(single_model):
    u = rwa_jc_propagator(single_model, 1, 1, 3.3, 3.3)
    assert np.abs(u.entries - np.eye(single_model.config.dim)).max() == 0.0
    u2 = rwa_jc_propagator(single_model, 1, 1, 5.0)
    ground = basis_state(single_model.config, [0], ["g"])
    assert np.abs(u2.entries @ ground - ground).max() == 0.0


def test_rwa_jc_single_quantum_exchange_law(single_model):
    g = jc_coupling(single_model, 1, 1)
    config = single_model.config
    excited = basis_state(config, [0], ["e"])
    for tau in (0.3, 2.0, 11.0):
        u = rwa_jc_propagator(single_model, 1, 1, tau)
        psi = u.entries @ basis_state(config, [1], ["g"])
        pop_e = abs(np.vdot(excited, psi)) ** 2
        assert pop_e == pytest.approx(np.sin(g * tau) ** 2, abs=1e-10)


def _red_sideband_generator(model, g, drive=1, mode=1):
    config = model.config
    a = embed_factors(config, {mode: _mode_destroy(config.n_max)})
    sp = embed_factors(config, spin_ops={drive: np.array([[0, 1], [0, 0]], complex)})
    sm = embed_factors(config, spin_ops={drive: np.array([[0, 0], [1, 0]], complex)})
    return OperatorMatrix(config, 1j * g * (a @ sp - a.conj().T @ sm), hermitian=True)


def test_rwa_jc_closed_form_equals_generator_exponential(single_model):
    g = jc_coupling(single_model, 1, 1)
    gen = _red_sideband_generator(single_model, g)
    for tau in (0.7, 4.1):
        closed = rwa_jc_propagator(single_model, 1, 1, tau)
        ref = expm_unitary(gen, tau)
        assert np.abs(closed.entries - ref.entries).max() <= 1e-10


def test_rwa_jc_crossed_pairs_equal_generator_exponential():
    # drive j on mode k != j: the banded exchange acts on spin and mode axes that are not aligned
    model = make_two_ion_model(n_max=8, guard=2, phases=(0.3, -0.5))
    pairs = [(1, 2), (2, 1)]
    parts = [_red_sideband_generator(model, jc_coupling(model, j, k), drive=j, mode=k).entries for j, k in pairs]
    gen = OperatorMatrix(model.config, sum(parts), hermitian=True)
    rng = np.random.default_rng(7)
    psi0 = rng.normal(size=model.config.dim) + 1j * rng.normal(size=model.config.dim)
    psi0 /= np.linalg.norm(psi0)
    times = [0.0, 3.7, 150.0]
    states = dict(evolve_states(model, psi0, times, method="rwa_jc", resonant_pairs=pairs))
    for t in times:
        ref = expm_unitary(gen, t).entries
        assert np.abs(rwa_jc_propagator_multi(model, pairs, t).entries - ref).max() <= 1e-10
        assert np.abs(states[t] - ref @ psi0).max() <= 1e-10


def test_rwa_jc_verbatim_functional_calculus_differs_only_at_orphan(single_model):
    # the unpatched cos(g tau sqrt(n+1)) form deviates only on the top |e> level
    config = single_model.config
    g = jc_coupling(single_model, 1, 1)
    tau = 2.6
    n = np.arange(config.n_max, dtype=float)
    a1 = _mode_destroy(config.n_max)
    with np.errstate(invalid="ignore", divide="ignore"):
        f_ge = np.where(n > 0, np.sin(g * tau * np.sqrt(n)) / np.sqrt(np.maximum(n, 1.0)), g * tau)
    verbatim = (
        embed_factors(config, {1: np.diag(np.cos(g * tau * np.sqrt(n + 1.0)).astype(complex))},
                      {1: np.array([[1, 0], [0, 0]], complex)})
        + embed_factors(config, {1: np.diag((np.sin(g * tau * np.sqrt(n + 1.0)) / np.sqrt(n + 1.0)).astype(complex)) @ a1},
                        {1: np.array([[0, 1], [0, 0]], complex)})
        + embed_factors(config, {1: -(np.diag(f_ge.astype(complex)) @ a1.conj().T)},
                        {1: np.array([[0, 0], [1, 0]], complex)})
        + embed_factors(config, {1: np.diag(np.cos(g * tau * np.sqrt(n)).astype(complex))},
                        {1: np.array([[0, 0], [0, 1]], complex)})
    )
    produced = rwa_jc_propagator(single_model, 1, 1, tau).entries
    diff = np.abs(produced - verbatim)
    assert guarded_norm(produced - verbatim, config) == 0.0
    top = basis_state(config, [config.n_max - 1], ["e"])
    idx = int(np.argmax(top))
    mask = np.ones_like(diff, dtype=bool)
    mask[idx, idx] = False
    assert diff[mask].max() == 0.0
    assert diff[idx, idx] == pytest.approx(abs(1.0 - np.cos(g * tau * np.sqrt(config.n_max))))


def test_rwa_jc_multi_requires_disjoint_pairs(two_ion_model):
    with pytest.raises(ValueError):
        rwa_jc_propagator_multi(two_ion_model, [(1, 1), (2, 1)], 1.0)
    with pytest.raises(ValueError):
        rwa_jc_propagator_multi(two_ion_model, [(1, 1), (1, 2)], 1.0)
    with pytest.raises(ValueError):
        rwa_jc_propagator_multi(two_ion_model, [(1, 3)], 1.0)


@pytest.mark.parametrize("pair", [(1.9, 1), (1, 1.0), (True, 1), (1, True), (1, "1")])
def test_resonant_pair_indices_must_be_integers(two_ion_model, pair):
    with pytest.raises(ValueError, match="integer"):
        rwa_jc_propagator_multi(two_ion_model, [pair], 1.0)


def test_resonant_pair_accepts_numpy_integers(two_ion_model):
    pair = (np.int64(1), np.int64(2))
    assert np.array_equal(rwa_jc_propagator_multi(two_ion_model, [pair], 1.0).entries,
                          rwa_jc_propagator(two_ion_model, 1, 2, 1.0).entries)


def test_rwa_jc_multi_is_commuting_tensor_product(two_ion_model):
    t = 3.0
    u1 = rwa_jc_propagator(two_ion_model, 1, 1, t)
    u2 = rwa_jc_propagator(two_ion_model, 2, 2, t)
    comm = u1.entries @ u2.entries - u2.entries @ u1.entries
    assert np.abs(comm).max() <= 1e-12
    u12 = rwa_jc_propagator_multi(two_ion_model, [(1, 1), (2, 2)], t)
    assert np.abs(check_matrix(u1.entries @ u2.entries, unitary=True) - u12.entries).max() <= 1e-12


def test_pipeline_rwa_two_resonances_tracks_oracle():
    # both drives on their corrected resonances: the tensor-product RWA stays
    # within the scale set by the dropped fast-rotating terms (~couplings/nu)
    model = make_two_ion_model()
    pairs = [(1, 1), (2, 2)]
    for t in (5.0, 20.0):
        u_ref = exact_propagator(model, t)
        u_rwa = pipeline_propagator(model, t, mode="rwa", resonant_pairs=pairs)
        assert guarded_infidelity(u_rwa, u_ref) <= 5e-3


def test_standard_rwa_propagator_zero_coupling_is_free():
    model = make_single_model(Omega_R=0.25, delta=1.0, n_max=10, guard=2, phi_beam=np.pi / 2)
    t = 2.0
    u = standard_rwa_propagator(model, 1, 1, t)
    free = exact_propagator(make_single_model(Omega_R=0.0, delta=1.0, n_max=10, guard=2), t)
    assert np.abs(u.entries - free.entries).max() <= 1e-12


def test_standard_rwa_pi_pulse_full_transfer():
    model = make_single_model(Omega_R=0.25, delta=1.0, n_max=12, guard=3)
    g = 0.1 * 0.25  # eta Omega
    tau = np.pi / (2.0 * g)
    u = standard_rwa_propagator(model, 1, 1, tau)
    psi = u.entries @ basis_state(model.config, [1], ["g"])
    excited = spin_signs(model.config)[0] > 0
    pop_e = float(np.sum(np.abs(psi[excited]) ** 2))
    assert pop_e == pytest.approx(1.0, abs=1e-12)


def test_rwa_couplings_converge_quadratically_in_field():
    # standard minus balanced coupling shrinks like Omega^3 at fixed delta = nu
    errs = []
    for omega_r in (0.04, 0.02, 0.01):
        model = make_single_model(Omega_R=omega_r, delta=1.0, n_max=8, guard=2)
        g_bal = jc_coupling(model, 1, 1)
        g_std = 0.1 * omega_r
        errs.append(g_std - g_bal)
    assert errs[0] > 0
    assert errs[1] / errs[0] == pytest.approx(1 / 8, rel=0.02)
    assert errs[2] / errs[1] == pytest.approx(1 / 8, rel=0.02)
    # and the propagators themselves converge at fixed time
    dists = []
    for omega_r in (0.04, 0.02):
        model = make_single_model(Omega_R=omega_r, delta=1.0, n_max=20, guard=5)
        tau = 3.0
        u_bal = rwa_jc_propagator(model, 1, 1, tau)
        gen = _red_sideband_generator(model, 0.1 * omega_r)
        u_std = expm_unitary(gen, tau)
        dists.append(guarded_distance(u_bal, u_std))
    assert dists[1] < dists[0] / 4.0


def test_turn_on_propagator_composition():
    model = make_single_model(Omega_R=0.3, delta=0.7, n_max=16, guard=4)
    t = 2.5
    # vanishing free segment reduces to the driven evolution from 0
    almost = turn_on_propagator(model, t, -1e-12)
    driven = exact_propagator(model, t, 0.0)
    assert np.abs(almost.entries - driven.entries).max() <= 1e-10
    with pytest.raises(ValueError):
        turn_on_propagator(model, t, 0.5)
    with pytest.raises(ValueError):
        turn_on_propagator(model, -1.0, -2.0)


def test_turn_on_propagator_free_segment_only_phases():
    model = make_single_model(Omega_R=0.3, delta=0.7, n_max=16, guard=4)
    u = turn_on_propagator(model, 1.7, -3.4)
    ref = exact_propagator(model, 1.7, 0.0)
    # before the switch-on each lab eigenstate only acquires a phase
    for n, spin in [(0, "g"), (2, "g"), (1, "e")]:
        ket = basis_state(model.config, [n], [spin])
        amp_u = u.entries @ ket
        amp_ref = ref.entries @ ket
        assert np.abs(np.abs(amp_u) - np.abs(amp_ref)).max() <= 1e-12


def test_turn_on_zero_drive_is_free_evolution():
    model = make_single_model(Omega_R=0.0, delta=0.7, n_max=10, guard=2)
    u = turn_on_propagator(model, 2.0, -1.0)
    assert np.abs(np.abs(np.diag(u.entries)) - 1.0).max() <= 1e-12
    off = u.entries - np.diag(np.diag(u.entries))
    assert np.abs(off).max() <= 1e-14


def test_infidelity_examples(single_model):
    u = exact_propagator(single_model, 2.0)
    assert guarded_infidelity(u, u) == pytest.approx(0.0, abs=1e-14)
    v = OperatorMatrix(single_model.config, np.exp(1.3j) * u.entries, unitary=True)
    assert guarded_infidelity(u, v) == pytest.approx(0.0, abs=1e-14)
    eye = OperatorMatrix(single_model.config, np.eye(single_model.config.dim), unitary=True)
    flip = OperatorMatrix(single_model.config, spin_op(single_model.config, 1, "x").entries, unitary=True)
    assert guarded_infidelity(eye, flip) == pytest.approx(1.0)


def test_all_propagators_exactly_unitary(single_model):
    eye = np.eye(single_model.config.dim)
    t = 6.1
    mats = [
        exact_propagator(single_model, t),
        pipeline_propagator(single_model, t, mode="exact"),
        pipeline_propagator(single_model, t, mode="rwa", resonant_pairs=[(1, 1)]),
        rwa_jc_propagator(single_model, 1, 1, t),
        standard_rwa_propagator(single_model, 1, 1, t),
        turn_on_propagator(single_model, t, -1.0),
    ]
    for u in mats:
        assert np.abs(u.entries.conj().T @ u.entries - eye).max() <= 1e-12


def test_unknown_method_rejected(single_model):
    psi0 = basis_state(single_model.config, [0], ["g"])
    with pytest.raises(ValueError):
        list(evolve_states(single_model, psi0, [0.0, 1.0], method="magnus"))
    with pytest.raises(ValueError):
        pipeline_propagator(single_model, 1.0, mode="magnus")


@pytest.mark.parametrize("method,pairs", [
    ("exact", None),
    ("pipeline_exact", None),
    ("pipeline_rwa", [(1, 1)]),
    ("standard_rwa", [(1, 1)]),
    ("rwa_jc", [(1, 1)]),
    ("pipeline_rwa", [(1, 1), (2, 2)]),
])
def test_evolve_states_matches_propagators(method, pairs, monkeypatch):
    if pairs is not None and len(pairs) > 1:
        model = make_two_ion_model(n_max=8, guard=2, phases=(0.3, -0.5))
    else:
        model = make_single_model(n_max=16, guard=4, phase=0.3)
    config = model.config
    psi0 = basis_state(config, [1] * config.n_modes, ["g"] * config.n_spins)
    # blocks of 3 times: the 7-point grids span two full blocks and a partial one
    monkeypatch.setattr(propagators._Plan, "block", 3)
    for t0 in (0.0, 1.3):
        times = [t0 + tau for tau in (0.0, 0.8, 2.9, -1.1, 4.4, 0.3, 7.6)]
        states = list(evolve_states(model, psi0, times, method=method, t0=t0, resonant_pairs=pairs))
        assert [t for t, _ in states] == times
        for t, psi in states:
            u = _method_propagator(model, method, pairs, t, t0)
            assert np.abs(psi - u.entries @ psi0).max() <= 1e-11
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)
        again = evolve_states(model, psi0, (t for t in times), method=method, t0=t0, resonant_pairs=pairs)
        assert all((psi == other).all() for (_, psi), (_, other) in zip(states, again, strict=True))
    assert list(evolve_states(model, psi0, [], method=method, resonant_pairs=pairs)) == []


@pytest.mark.parametrize("index", range(3))
def test_model_operators_real_in_parity_gauge(index):
    model = _gauge_models()[index]
    gauge = parity_gauge(model.config)
    h0, flip, _ = balanced_hamiltonian(model)
    for m in (
        rotating_frame_hamiltonian(model).entries,
        h0.entries + flip.entries,
        balanced_transform(model.config, model.balanced()).entries,
    ):
        assert np.abs((gauge.conj()[:, None] * m * gauge[None, :]).imag).max() <= 1e-14


@pytest.mark.parametrize("index", range(3))
def test_exact_propagator_matches_complex_exponential_at_t0(index):
    # expm_unitary diagonalises the complex hermitian H, independently of the gauged plan
    model = _gauge_models()[index]
    config = model.config
    t0, t = 1.7, 9.4
    core = expm_unitary(rotating_frame_hamiltonian(model), t - t0).entries
    left = np.conj(rotating_frame_diagonal(config, model.drives, t))
    ref = (left[:, None] * core) * rotating_frame_diagonal(config, model.drives, t0)[None, :]
    assert np.abs(exact_propagator(model, t, t0).entries - ref).max() <= 1e-10
    psi0 = coherent_state(config, [0.6 - 0.3j] * config.n_modes, ["e"] + ["g"] * (config.n_spins - 1))
    (_, exact_state), = evolve_states(model, psi0, [t], method="exact", t0=t0)
    assert np.abs(exact_state - ref @ psi0).max() <= 1e-10
    (_, pipeline_state), = evolve_states(model, psi0, [t], method="pipeline_exact", t0=t0)
    u = pipeline_propagator(model, t, t0, mode="exact").entries
    assert np.abs(pipeline_state - u @ psi0).max() <= 1e-11


def test_real_matvec_is_one_product_of_real_and_imaginary_parts():
    # one GEMM on the interleaved float view equals the two real products it replaces, in any input layout
    rng = np.random.default_rng(3)
    dim = 48
    m = rng.normal(size=(dim, dim))
    z = rng.normal(size=(dim, 20)) + 1j * rng.normal(size=(dim, 20))
    keep = rng.random(20) < 0.5
    for x in (z[:, 0], z, np.asfortranarray(z), np.asfortranarray(z)[:, keep], z[:, keep]):
        got = propagators._real_matvec(m, x, np.empty(x.shape, dtype=complex))
        ref = m @ x.real + 1j * (m @ x.imag)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _two_ion_sweep_config():
    """Sweep of drive 1 on mode 1 (nu_1 = 1): three reachable points, then 2 Omega_R = 1.8 > nu_1."""
    return parse_config({
        "experiment": "sweep-rabi",
        "chain": {"N": 2},
        "hilbert": {"n_max": 6, "guard": 2},
        "drives": [{"ion": 1, "Omega_R": 0.2, "delta": 0.9, "k_L": 0.1, "phase": 0.4},
                   {"ion": 2, "Omega_R": 0.15, "delta": 1.4, "k_L": 0.05}],
        "sweep": {"points": 4, "start": 0.05, "stop": 0.9, "scale": "log", "drive": 1, "mode": 1},
    })


@pytest.mark.parametrize("method", METHODS)
def test_plan_columns_are_the_matrix_columns(method):
    # matrix is the all-columns block, and a guarded block is those columns of it, bit for bit; at dim 576
    # matrix takes five column blocks of 128 (the last partial) and the guarded block two, on other boundaries
    for n_max, guard in ((6, 2), (12, 4)):
        model = make_two_ion_model(n_max=n_max, guard=guard, phases=(0.4, -1.2), phi_beams=(0.3, 0.8))
        plan = _plan(model, method, None if method in ("exact", "pipeline_exact") else [(1, 1)])
        keep = guard_mask(model.config)
        t, t0 = 9.4, 1.7
        full = plan.matrix(t, t0).entries
        assert (plan.columns(slice(None), t, t0) == full).all()
        assert (plan.columns(keep, t, t0) == full[:, keep]).all()


def test_dense_propagator_and_sweep_point_hold_column_blocks():
    # the dense oracle, its unitarity check and the guarded score hold (dim, 128) temporaries, not dim x dim ones
    cfg = parse_config({
        "experiment": "sweep-rabi",
        "chain": {"N": 2},
        "hilbert": {"n_max": 12, "guard": 4},
        "drives": [{"ion": 1, "Omega_R": 0.2, "delta": 0.9, "k_L": 0.1, "phase": 0.4},
                   {"ion": 2, "Omega_R": 0.15, "delta": 1.4, "k_L": 0.05}],
        "sweep": {"points": 2, "start": 0.05, "stop": 0.9, "scale": "log", "drive": 1, "mode": 1},
    })
    real_bytes = 8 * cfg.model.config.dim**2
    omega_r = float(cfg.sweep.grid[0])
    _sweep_point(cfg, omega_r)  # fill the basis caches outside the measurement
    tracemalloc.start()
    try:
        exact_propagator(cfg.model, 200.0)
        _, oracle_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _sweep_point(cfg, omega_r)
        _, point_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert oracle_peak <= 2.5 * 2 * real_bytes  # the eigenbasis, the output and column-block temporaries
    assert point_peak <= 6 * real_bytes  # one oracle build beside one guarded column block


def test_turn_on_propagator_is_certified_through_its_plan(monkeypatch):
    # the free phases scale the plan's columns in place; the plan's real eigenbasis is the one matrix checked
    # by the dense Gram formula, and the result is tagged by its column norms, with no complex U^dag U
    model = make_single_model(Omega_R=0.3, delta=0.7, n_max=16, guard=4)
    free = np.exp(1j * free_diagonal(model, [model.omega_ge]) * -3.4)
    expected = exact_propagator(model, 1.7, 0.0).entries * free[None, :]
    checked, residual = [], fock._unitary_residual

    def recorded_residual(m):
        checked.append(m.dtype)
        return residual(m)

    monkeypatch.setattr(fock, "_unitary_residual", recorded_residual)
    u = turn_on_propagator(model, 1.7, -3.4)
    assert checked == [np.float64] and u.unitary
    assert (u.entries == expected).all()


@pytest.mark.parametrize("t, t0", [(1.7, -np.inf), (np.inf, -3.4), (1.7, np.nan), (np.nan, -3.4)],
                         ids=["t0-inf", "t-inf", "t0-nan", "t-nan"])
def test_turn_on_propagator_rejects_non_finite_times(t, t0):
    # t0 = -inf passes the t0 < 0 < t guard; the finiteness check runs first, so no numpy warning is raised
    model = make_single_model(Omega_R=0.3, delta=0.7, n_max=16, guard=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite times"):
            turn_on_propagator(model, t, t0)


def test_sweep_scores_columns_like_dense_propagators():
    cfg = _two_ion_sweep_config()
    model, table = cfg.model, run_sweep_rabi(cfg)
    nu = float(model.chain.nu[0])
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    assert [row["reachable"] for row in rows] == [True, True, True, False]
    for row in rows:
        om, t = row["Omega_R"], row["t_pulse"]
        balanced = model.with_drive(1, Omega_R=om, omega_L=model.omega_ge - row["delta"])
        standard = model.with_drive(1, Omega_R=om, omega_L=model.omega_ge - nu)
        dense_balanced = guarded_infidelity(
            pipeline_propagator(balanced, t, mode="rwa", resonant_pairs=[(1, 1)]), exact_propagator(balanced, t))
        dense_standard = guarded_infidelity(standard_rwa_propagator(standard, 1, 1, t), exact_propagator(standard, t))
        assert abs(row["infidelity_balanced_rwa"] - dense_balanced) <= 1e-14
        assert abs(row["infidelity_standard_rwa"] - dense_standard) <= 1e-14


def _scaled_quadrature_basis(n_max):
    xi, x = quadrature_basis(n_max)
    return xi, (1.0 + 1e-9) * x


def test_non_orthogonal_transform_rejected_by_plan_and_sweep(tmp_path, capsys, monkeypatch):
    # the sweep scores unchecked RWA columns: the factored transform's certificate at plan build guards them,
    # the real Gram of its quadrature basis X and of each ion's 2 x 2 spin block, each off by 1e-9 here
    path = tmp_path / "sweep.json"
    path.write_text(serialize_config(_two_ion_sweep_config()), encoding="utf-8")
    out = tmp_path / "sweep.csv"
    for name, scaled in (("quadrature_basis", _scaled_quadrature_basis),
                         ("_mixing_block", lambda theta: (1.0 + 1e-9) * _mixing_block(theta))):
        with monkeypatch.context() as patch:
            patch.setattr(transforms, name, scaled)
            for method, pairs in (("pipeline_rwa", [(1, 1)]), ("pipeline_exact", None)):
                with pytest.raises(NumericalValidationError, match="unitary"):
                    _plan(make_two_ion_model(n_max=6, guard=2), method, pairs)
            assert main(["sweep-rabi", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numerical validation failed: matrix tagged unitary")
        assert not out.exists()


def test_no_plan_builds_the_dense_transform(tmp_path, monkeypatch):
    # both pipeline plans, the sweep and both pipeline evolves run on the factored transform alone
    def dense(*args):
        raise AssertionError("a plan built the dense balanced transform")

    monkeypatch.setattr(transforms, "balanced_transform", dense)
    monkeypatch.setattr(transforms, "_ion_product", dense)
    model = make_two_ion_model(n_max=6, guard=2)
    _plan(model, "pipeline_rwa", [(1, 1)])
    _plan(model, "pipeline_exact")
    run_sweep_rabi(_two_ion_sweep_config())
    configs = _small_cli_configs()
    for method in ("pipeline_exact", "pipeline_rwa"):
        assert len(run_evolve(parse_config(configs[f"evolve-{method}"])).rows) == 4


def test_non_orthogonal_eigenbasis_rejected_by_oracle_and_sweep(tmp_path, capsys, monkeypatch):
    # a dense propagator is certified through its plan's real factor: a V' off by 1e-9 fails V'^T V' = I
    cfg = _two_ion_sweep_config()
    dim, eigh = cfg.model.config.dim, np.linalg.eigh

    def scaled_eigh(h):
        w, v = eigh(h)
        return w, (1.0 + 1e-9) * v if len(h) == dim else v  # the plans' full-space eigh only

    monkeypatch.setattr(np.linalg, "eigh", scaled_eigh)
    for build in (lambda: exact_propagator(cfg.model, 3.0), lambda: turn_on_propagator(cfg.model, 3.0, -1.0)):
        with pytest.raises(NumericalValidationError, match=r"\|\|U\^dag U - I\|\|_max"):
            build()
    path = tmp_path / "sweep.json"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    out = tmp_path / "sweep.csv"
    assert main(["sweep-rabi", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical validation failed: matrix tagged unitary")
    assert not out.exists()


@pytest.mark.parametrize("method", ["exact", "pipeline_exact", "pipeline_rwa", "standard_rwa", "turn_on"])
def test_non_finite_frame_phase_rejected_by_column_norms(method, monkeypatch):
    # a NaN frame phase leaves every real factor orthogonal; the output's column norms catch it
    # (rwa_jc is the one method without the frame; turn_on is turn_on_propagator, certified like exact)
    model = make_two_ion_model(n_max=6, guard=2)

    def nan_phases(drives, t):
        phases = rotating_frame_phases(drives, t)
        phases[0] = np.nan
        return phases

    monkeypatch.setattr(propagators, "rotating_frame_phases", nan_phases)
    with pytest.raises(NumericalValidationError, match=r"max_j \|\(U\^dag U\)_jj - 1\|"):
        if method == "turn_on":
            turn_on_propagator(model, 2.5, -0.5)
        else:
            _method_propagator(model, method, [(1, 1)], 2.5, 0.5)


@pytest.mark.parametrize("method", METHODS)
def test_certified_propagators_pass_the_dense_unitarity_check_at_dim_576(method):
    # the complex U^dag U that the plan's certificate replaced still holds at the benchmark's size
    model = make_two_ion_model(n_max=12, guard=4, phases=(0.4, -1.2), phi_beams=(0.3, 0.8))
    u = _method_propagator(model, method, [(1, 1)], 9.4, 1.7)
    assert u.unitary and fock._unitary_residual(u.entries) <= fock.UNITARY_ATOL


def _small_cli_configs():
    """One small config per CLI experiment, evolve once per method: two ions, two drives, dim 144."""
    base = {"chain": {"N": 2}, "hilbert": {"n_max": 6, "guard": 2},
            "drives": [{"ion": 1, "Omega_R": 0.2, "delta": 0.9, "k_L": 0.1, "phase": 0.4},
                       {"ion": 2, "Omega_R": 0.15, "delta": 1.4, "k_L": 0.05}]}
    configs = {"sweep-rabi": json.loads(serialize_config(_two_ion_sweep_config())),
               "modes": {"experiment": "modes", **base}, "resonance": {"experiment": "resonance", **base}}
    for method in METHODS:
        configs[f"evolve-{method}"] = {"experiment": "evolve", **base, "evolve": {
            "t_stop": 5.0, "steps": 4, "method": method, "resonant_drive": 1, "resonant_mode": 1,
            "initial_state": {"fock": [0, 0], "spins": ["g", "g"]}}}
    return configs


def test_sweep_checks_only_real_matrices(tmp_path, monkeypatch):
    # the unitarity checks of every CLI run, the sweep's and each other experiment's, take the plans' real
    # factors, never a complex dim x dim Gram: no CLI path reaches the dense complex formula
    checked, residual = [], fock._unitary_residual

    def recorded_residual(m):
        checked.append((name, m.dtype))
        return residual(m)

    monkeypatch.setattr(fock, "_unitary_residual", recorded_residual)
    for name, raw in _small_cli_configs().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main([raw["experiment"], "--config", str(path), "--out", str(tmp_path / f"{name}.csv"),
                     "--threads", "2"]) == 0
    assert {name for name, _ in checked} >= {"sweep-rabi", "evolve-pipeline_exact", "evolve-pipeline_rwa"}
    assert all(dtype == np.float64 for _, dtype in checked), checked


def test_exact_columns_hold_two_column_blocks():
    # each block's core phase, frame and gauge are multiplied in place and a run of start columns is a view
    # of V': at dim 576 the temporaries are two (dim, 128) complex blocks, under half the complex output
    model = make_two_ion_model(n_max=12, guard=4, phases=(0.4, -1.2), phi_beams=(0.3, 0.8))
    plan = _plan(model, "exact")
    plan.columns(slice(None), 200.0)  # fill the basis caches outside the measurement
    tracemalloc.start()
    try:
        u = plan.columns(slice(None), 200.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - u.nbytes <= 0.5 * u.nbytes


@pytest.mark.parametrize("points_per_block", [8, None], ids=["8-point-blocks", "default-blocks"])
def test_pipeline_rwa_plan_and_apply_hold_no_dense_matrix(monkeypatch, points_per_block):
    # at dim 576 the plan holds the transform's factors, not a dim x dim T': the plan and a 300-point apply peak
    # below half a real dim x dim matrix besides the (dim, k) state blocks of apply's workspace, k the plan's block
    model = make_two_ion_model(n_max=12, guard=4, phases=(0.4, -1.2), phi_beams=(0.3, 0.8))
    config = model.config
    psi0, times = basis_state(config, [1, 0], ["g", "g"]), np.linspace(0.0, 200.0, 300)
    if points_per_block is not None:
        monkeypatch.setattr(propagators._Plan, "block", points_per_block)
    plan = _plan(model, "pipeline_rwa", [(1, 1)])
    states = plan._buffers(kept=True) * 16 * config.dim * min(len(times), plan.block)
    list(plan.apply(psi0, times))  # fill the basis caches outside the measurement
    tracemalloc.start()
    try:
        assert sum(ts.size for ts, _ in _plan(model, "pipeline_rwa", [(1, 1)]).apply(psi0, times)) == len(times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - states <= 0.5 * 8 * config.dim**2, (peak, states)


@pytest.mark.parametrize("model_name", ["single_model", "two_ion_model"])
def test_pipeline_plans_are_the_balanced_frame(request, model_name):
    # both pipeline plans against the dense balanced frame: the transform T of the closed block form, the
    # delta_eff free diagonal plus the offset, and the eigenbasis of the gauged balanced Hamiltonian
    model = request.getfixturevalue(model_name)
    config, params = model.config, model.balanced()
    transform = balanced_transform_closed(config, params).entries
    d0 = free_diagonal(model, [par.delta_eff for par in params])
    eye = np.eye(config.dim, dtype=complex)
    rwa = _plan(model, "pipeline_rwa", [(1, 1)])
    assert rwa.basis is None and rwa.diag is None
    assert np.abs(rwa.transform.apply(eye.copy(), np.empty_like(eye)) - transform).max() <= 1e-13
    assert np.abs(rwa.transform.apply(eye.copy(), np.empty_like(eye), adjoint=True) - transform.conj().T).max() <= 1e-13
    d = reduce(np.add, np.ix_(*rwa.axes)).ravel()  # sum_a axes[a][n_a] over the layout
    assert np.abs(d - (d0 + balanced_offset(model))).max() <= 1e-14 * np.abs(d0).max()
    h = gauged_balanced_flip(model)
    h[np.diag_indices(config.dim)] += d0
    w, v = np.linalg.eigh(h)
    exact = _plan(model, "pipeline_exact")
    assert np.array_equal(exact.diag, w + balanced_offset(model))
    assert np.array_equal(exact.basis, v)
    # U = conj(R_t) T^dag P V' e^{-i w tau} V'^T P^dag T R_t0, every factor dense
    t, t0 = 9.4, 1.7
    gauge = parity_gauge(config)
    eigen = (gauge[:, None] * v) * np.exp(-1j * (w + balanced_offset(model)) * (t - t0)) @ (v.T * gauge.conj())
    dense = transform.conj().T @ eigen @ transform
    dense = np.conj(rotating_frame_diagonal(config, model.drives, t))[:, None] * dense
    dense = dense * rotating_frame_diagonal(config, model.drives, t0)[None, :]
    assert np.abs(exact.matrix(t, t0).entries - dense).max() <= 1e-12
