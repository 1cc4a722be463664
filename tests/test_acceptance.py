"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.  Tolerances are fixed here, not tuned at runtime.
"""

import time

import numpy as np

from conftest import make_single_model, make_two_ion_model
from ionjc.chain import LaserDrive, equilibrium_positions, normal_modes
from ionjc.config import parse_config
from ionjc.experiments import run_sweep_rabi
from ionjc.fock import basis_state, check_matrix, guarded_infidelity
from ionjc.hamiltonians import balanced_hamiltonian
from ionjc.propagators import (
    exact_propagator,
    jc_coupling,
    pipeline_propagator,
    rwa_jc_propagator,
    rwa_jc_propagator_multi,
)
from ionjc.reference import (
    balanced_transform_closed,
    conditional_displacement,
    expm_unitary,
    guarded_norm,
    jc_interaction,
    linearized_hamiltonian,
    linearizing_transform,
    mixed_hamiltonian,
    mixing_rotation,
    spin_op,
)
from ionjc.transforms import balanced_params, balanced_transform


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_cascade_closure():
    rng = np.random.default_rng(20240801)
    start = time.time()
    worst = 0.0
    for _ in range(50):
        omega_r = 10.0 ** rng.uniform(-2, 1)
        delta = rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.0, 20.0)
        model = make_single_model(Omega_R=omega_r, delta=delta, k_L=0.1, n_max=40, guard=10)
        infid = guarded_infidelity(
            pipeline_propagator(model, t, mode="exact"), exact_propagator(model, t)
        )
        worst = max(worst, infid)
    elapsed = time.time() - start
    _verdict(1, "cascade closure", worst <= 1e-8 and elapsed <= 120.0,
             f"worst infidelity {worst:.3e} over 50 draws in {elapsed:.1f}s")


def test_criterion_2_exact_tier_identities():
    model = make_single_model(Omega_R=0.3, delta=0.7, k_L=0.1, n_max=40, guard=10)
    cfg = model.config
    par = model.balanced()[0]
    worst = 0.0

    t1 = linearizing_transform(cfg, par.eta, 1)
    sz = spin_op(cfg, 1, "z")
    sx = spin_op(cfg, 1, "x")
    worst = max(worst, np.abs(t1 @ sz @ t1.conj().T + sx).max())

    lin = linearized_hamiltonian(model)
    t2 = mixing_rotation(cfg, par.theta, 1)
    rotated = t2 @ lin.h0 @ t2.conj().T
    target = np.diag(np.diag(rotated))  # expected exactly diagonal
    worst = max(worst, np.abs(rotated - target).max())
    ket_e = basis_state(cfg, [0], ["e"])
    worst = max(worst, abs(np.vdot(ket_e, rotated @ ket_e) - par.delta_eff / 2.0))

    rng = np.random.default_rng(7)
    floor_ok = True
    for _ in range(200):
        om = 10.0 ** rng.uniform(-3, 3)
        de = rng.uniform(-5.0, 5.0)
        drive = LaserDrive(ion=1, Omega_R=om, omega_L=-de, k_L=0.1)
        p = balanced_params(drive, [rng.uniform(-0.3, 0.3)])
        worst = max(worst, abs(p.kappa_plus**2 + p.kappa_minus**2 - 1.0))
        worst = max(worst, abs(p.eps_plus - p.eps_minus - 1.0))
        floor_ok &= p.delta_eff >= max(2 * om, abs(de)) - 1e-12
    _verdict(2, "exact-tier identities", worst <= 1e-12 and floor_ok,
             f"worst residual {worst:.3e}")


def test_criterion_3_guarded_tier_identities():
    model = make_single_model(Omega_R=0.3, delta=0.7, k_L=0.1, n_max=40, guard=10)
    cfg = model.config
    par = model.balanced()[0]
    worst = 0.0

    # spin-flip linearization onto sigma_z
    from ionjc.fock import displacement_product

    t1 = linearizing_transform(cfg, par.eta, 1)
    d2 = displacement_product(cfg, [1j * par.eta[0]])
    sp = spin_op(cfg, 1, "plus")
    sm = spin_op(cfg, 1, "minus")
    coupling = sm @ d2.conj().T + sp @ d2
    worst = max(worst, guarded_norm(t1 @ coupling @ t1.conj().T - spin_op(cfg, 1, "z"), cfg))

    # conditional displacement diagonalizes the mixed-frame large part
    mix = mixed_hamiltonian(model)
    t3 = conditional_displacement(cfg, par.alpha, 1)
    rotated = t3 @ mix.h0 @ t3.conj().T
    worst = max(worst, guarded_norm(rotated - np.diag(np.diag(rotated)), cfg))

    # product form vs closed block form of the balanced transform
    worst = max(worst, guarded_norm(
        balanced_transform(cfg, [par]) - balanced_transform_closed(cfg, [par]), cfg
    ))

    # interaction-picture coupling vs frame conjugation of the flip part
    h0, flip, _ = balanced_hamiltonian(model)
    d0 = np.real(np.diag(h0))
    for t in (0.9, 4.7):
        phases = np.exp(1j * d0 * t)
        conj = (phases[:, None] * flip) * np.conj(phases)[None, :]
        worst = max(worst, guarded_norm(jc_interaction(model, t) - conj, cfg))

    _verdict(3, "guarded-tier identities", worst <= 1e-8, f"worst guarded residual {worst:.3e}")


def test_criterion_4_closed_form_propagator():
    rng = np.random.default_rng(42)
    worst_matrix = 0.0
    worst_law = 0.0
    for _ in range(20):
        omega_r = 10.0 ** rng.uniform(-1.5, 0.5)
        delta = rng.uniform(-1.5, 1.5)
        k_l = rng.uniform(0.02, 0.15)
        tau = rng.uniform(0.1, 15.0)
        model = make_single_model(Omega_R=omega_r, delta=delta, k_L=k_l, n_max=24, guard=6)
        cfg = model.config
        g = jc_coupling(model, 1, 1)
        closed = rwa_jc_propagator(model, 1, 1, tau)

        from ionjc.fock import _mode_destroy, embed_factors

        a = embed_factors(cfg, {1: _mode_destroy(cfg.n_max)})
        sp = spin_op(cfg, 1, "plus")
        sm = spin_op(cfg, 1, "minus")
        gen = check_matrix(1j * g * (a @ sp - a.conj().T @ sm), hermitian=True)
        ref = expm_unitary(gen, tau)
        worst_matrix = max(worst_matrix, np.abs(closed.entries - ref).max())

        psi = closed.entries @ basis_state(cfg, [1], ["g"])
        pop_e = abs(np.vdot(basis_state(cfg, [0], ["e"]), psi)) ** 2
        worst_law = max(worst_law, abs(pop_e - np.sin(g * tau) ** 2))
    _verdict(4, "closed-form propagator", worst_matrix <= 1e-10 and worst_law <= 1e-10,
             f"matrix {worst_matrix:.3e}, exchange law {worst_law:.3e}")


def test_criterion_5_limit_behavior():
    # weak field: || flip ||_2 scales like Omega (slope -1 on log-log within 2%)
    norms = []
    exponents = [-3, -4, -5, -6]
    for m in exponents:
        model = make_single_model(Omega_R=10.0**m, delta=1.0, k_L=0.1, n_max=20, guard=5)
        _, flip, _ = balanced_hamiltonian(model)
        norms.append(np.linalg.norm(flip, 2))
    slope = np.polyfit(exponents, np.log10(norms), 1)[0]
    slope_ok = abs(slope - 1.0) <= 0.02  # norm ~ Omega^1

    # strong field: flip matches its limit operator to 1e-5 relative
    model = make_single_model(Omega_R=1e6, delta=1.0, k_L=0.1, n_max=20, guard=5)
    _, flip, _ = balanced_hamiltonian(model)
    from ionjc.fock import _mode_destroy, embed_factors

    cfg = model.config
    a = embed_factors(cfg, {1: _mode_destroy(cfg.n_max)})
    limit = 0.05 * (1j * (a - a.conj().T)) @ spin_op(cfg, 1, "x")
    limit = (limit + limit.conj().T) / 2.0
    rel = np.linalg.norm(flip - limit, 2) / np.linalg.norm(limit, 2)

    # balanced Lamb-Dicke parameter limits
    eta = np.array([0.1])
    weak = balanced_params(LaserDrive(ion=1, Omega_R=1e-6, omega_L=-1.0, k_L=0.1), eta)
    strong = balanced_params(LaserDrive(ion=1, Omega_R=1e6, omega_L=-1.0, k_L=0.1), eta)
    lim_ok = abs(weak.eta_eff[0] - 0.1) <= 1e-6 and abs(strong.eta_eff[0]) <= 1e-6

    _verdict(5, "limit behavior", slope_ok and rel <= 1e-5 and lim_ok,
             f"slope {slope:.4f}, strong-field rel {rel:.3e}")


def test_criterion_6_normal_modes():
    worst = 0.0
    u2 = equilibrium_positions(2)
    worst = max(worst, np.abs(u2 - np.array([-1, 1]) * 0.25 ** (1 / 3)).max())
    u3 = equilibrium_positions(3)
    worst = max(worst, np.abs(u3 - np.array([-1, 0, 1]) * 1.25 ** (1 / 3)).max())
    _, nu2 = normal_modes(2)
    worst = max(worst, np.abs(nu2 - [1.0, np.sqrt(3.0)]).max())
    _, nu3 = normal_modes(3)
    worst = max(worst, np.abs(nu3 - [1.0, np.sqrt(3.0), np.sqrt(29.0 / 5.0)]).max())
    _verdict(6, "normal modes", worst <= 1e-10, f"worst deviation {worst:.3e}")


def test_criterion_7_intensity_robustness_ordering():
    start = time.time()
    cfg = parse_config({
        "experiment": "sweep-rabi",
        "chain": {"N": 1},
        "drives": [{"ion": 1, "Omega_R": 0.1, "delta": 1.0, "k_L": 0.05}],
    })  # default grid: 25 log points over [1e-2, 10]
    table = run_sweep_rabi(cfg, threads=2)
    rows = [dict(zip(table.columns, r)) for r in table.rows]
    strong = [r for r in rows if r["Omega_R"] >= 1.0 - 1e-12]
    ordering_ok = all(r["infidelity_balanced_rwa"] <= r["infidelity_standard_rwa"] for r in strong)
    growth = rows[-1]["infidelity_standard_rwa"] / rows[0]["infidelity_standard_rwa"]
    elapsed = time.time() - start
    _verdict(7, "intensity robustness", ordering_ok and growth >= 10.0 and elapsed <= 600.0,
             f"ordering at {len(strong)} strong-field points, standard-RWA growth {growth:.1f}x, {elapsed:.1f}s")


def test_criterion_8_multi_drive_smoke():
    start = time.time()
    model = make_two_ion_model()  # N = 2, n_max = 12, guard = 4, both resonances reachable
    worst = 0.0
    for t in (0.8, 2.5, 5.0):
        infid = guarded_infidelity(
            pipeline_propagator(model, t, mode="exact"), exact_propagator(model, t)
        )
        worst = max(worst, infid)
    u1 = rwa_jc_propagator(model, 1, 1, 3.0)
    u2 = rwa_jc_propagator(model, 2, 2, 3.0)
    comm = np.abs(u1.entries @ u2.entries - u2.entries @ u1.entries).max()
    u12 = rwa_jc_propagator_multi(model, [(1, 1), (2, 2)], 3.0)
    product = np.abs(check_matrix(u1.entries @ u2.entries, unitary=True) - u12.entries).max()
    elapsed = time.time() - start
    _verdict(8, "multi-drive smoke", worst <= 1e-6 and comm <= 1e-12 and product <= 1e-12
             and elapsed <= 600.0,
             f"closure {worst:.3e}, commutator {comm:.3e}, {elapsed:.1f}s")


def test_criterion_9_deterministic_output(tmp_path):
    import json

    from ionjc.cli import main

    payload = {
        "experiment": "sweep-rabi",
        "chain": {"N": 1},
        "drives": [{"ion": 1, "Omega_R": 0.1, "delta": 1.0, "k_L": 0.05}],
        "sweep": {"points": 6, "start": 0.02, "stop": 5.0},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    rc1 = main(["sweep-rabi", "--config", str(path), "--out", str(out1)])
    rc2 = main(["sweep-rabi", "--config", str(path), "--out", str(out2)])
    body1 = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    body2 = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
    _verdict(9, "deterministic output", rc1 == 0 and rc2 == 0 and body1 == body2 and len(body1) == 7,
             f"{len(body1)} data lines byte-identical")
