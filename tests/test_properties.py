"""Property tests over random one-ion models, random drives and random configs."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import make_single_model  # noqa: E402
from ionjc import propagators  # noqa: E402
from ionjc.chain import LaserDrive  # noqa: E402
from ionjc.config import ConfigError, parse_config, serialize_config  # noqa: E402
from ionjc.fock import check_matrix, coherent_state  # noqa: E402
from ionjc.propagators import METHODS, evolve_states  # noqa: E402
from ionjc.transforms import balanced_params  # noqa: E402
from test_propagators import _method_propagator  # noqa: E402

MODELS = st.builds(
    make_single_model,
    Omega_R=st.floats(0.05, 1.0),
    delta=st.floats(-2.0, 2.0),
    k_L=st.floats(0.01, 0.3),
    phase=st.floats(-np.pi, np.pi),
    n_max=st.integers(10, 16),
    guard=st.just(2),
)
TIMES = st.floats(-5.0, 15.0)


@settings(max_examples=200, deadline=None)
@given(log_omega=st.floats(-3.0, 3.0), delta=st.floats(-5.0, 5.0),
       eta=st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=3))
def test_balanced_params_invariants(log_omega, delta, eta):
    # the tolerances of test_transforms.test_balanced_params_invariants_random
    omega_r = 10.0**log_omega
    par = balanced_params(LaserDrive(ion=1, Omega_R=omega_r, omega_L=-delta, k_L=0.1), eta)
    eta = np.asarray(eta)
    assert par.kappa_plus**2 + par.kappa_minus**2 == pytest.approx(1.0, abs=1e-12)
    assert par.kappa_plus * par.kappa_minus == pytest.approx(1.0 / np.sqrt(4.0 + par.Delta**2), abs=1e-12)
    assert par.eps_plus - par.eps_minus == pytest.approx(1.0, abs=1e-12)
    assert par.delta_eff >= max(2.0 * omega_r, abs(delta)) - 1e-12
    assert np.all(np.abs(par.eta_eff_by_Delta) <= np.abs(eta) / 2.0 + 1e-15)
    assert -np.pi / 2 <= par.theta <= np.pi / 2
    assert par.eta_eff == pytest.approx(par.Delta * par.eta_eff_by_Delta, abs=1e-12)


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=20, deadline=None)
@given(model=MODELS, t0=TIMES, t1=TIMES, t2=TIMES)
def test_group_law_on_random_models(method, model, t0, t1, t2):
    # U(t2, t1) U(t1, t0) = U(t2, t0) holds exactly on the truncated space for every method
    pairs = [(1, 1)]
    u21 = _method_propagator(model, method, pairs, t2, t1)
    u10 = _method_propagator(model, method, pairs, t1, t0)
    u20 = _method_propagator(model, method, pairs, t2, t0)
    assert np.abs(check_matrix(u21.entries @ u10.entries, unitary=True) - u20.entries).max() <= 1e-10


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=20, deadline=None)
@given(model=MODELS, t0=TIMES, times=st.lists(TIMES, max_size=25), columns=st.integers(1, 8))
def test_evolve_states_on_random_grids(method, model, t0, times, columns):
    # any block size and grid length: each yielded state is U(t, t0) psi0 at its own time
    pairs = [(1, 1)]
    psi0 = coherent_state(model.config, [0.4 - 0.3j], ["e"])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(propagators, "_BLOCK_BYTES", columns * 16 * model.config.dim)
        states = list(evolve_states(model, psi0, times, method=method, t0=t0, resonant_pairs=pairs))
    assert [t for t, _ in states] == times
    for t, psi in states:
        u = _method_propagator(model, method, pairs, t, t0)
        assert np.abs(psi - u.entries @ psi0).max() <= 1e-10


@st.composite
def raw_configs(draw):
    """Valid config mappings of every experiment, in either unit system."""
    n_ions = draw(st.integers(1, 3))
    si = draw(st.booleans())
    freq = 2.0e6 if si else 1.0  # SI frequencies in rad/s, times in s
    ions = sorted(draw(st.lists(st.integers(1, n_ions), min_size=1, max_size=n_ions, unique=True)))
    drives = []
    for ion in ions:
        drive = {"ion": ion, "Omega_R": draw(st.floats(0.01, 2.0)) * freq,
                 "k_L": draw(st.floats(0.01, 0.3)) * (1.0e7 if si else 1.0),
                 draw(st.sampled_from(["delta", "omega_L"])): draw(st.floats(-3.0, 3.0)) * freq}
        if draw(st.booleans()):
            drive.update(phi_beam=draw(st.floats(-1.5, 1.5)), phase=draw(st.floats(-np.pi, np.pi)))
        drives.append(drive)
    n_max = draw(st.integers(2, 6))
    raw = {
        "experiment": draw(st.sampled_from(["modes", "resonance", "sweep-rabi", "evolve"])),
        "units": "si" if si else "nu1",
        "chain": {"N": n_ions, "mu": 40.0, "nu1": freq} if si else {"N": n_ions},
        "hilbert": {"n_max": n_max, "guard": draw(st.integers(0, n_max - 1))},
        "omega_ge": draw(st.floats(-2.0, 2.0)) * freq,
        "drives": drives,
        "output": {"format": draw(st.sampled_from(["csv", "json"]))},
    }
    if raw["experiment"] == "sweep-rabi":
        start = draw(st.floats(0.01, 1.0))
        raw["sweep"] = {"drive": draw(st.integers(1, len(drives))), "mode": draw(st.integers(1, n_ions)),
                        "points": draw(st.integers(2, 5)), "start": start * freq,
                        "stop": (start + draw(st.floats(0.1, 5.0))) * freq,
                        "scale": draw(st.sampled_from(["log", "linear"]))}
    elif raw["experiment"] == "evolve":
        method = draw(st.sampled_from(METHODS))
        spins = draw(st.lists(st.sampled_from(["e", "g"]), min_size=len(drives), max_size=len(drives)))
        kept = n_max - raw["hilbert"]["guard"]  # the parser rejects a start state above the guard band
        if draw(st.booleans()):
            state = {"fock": draw(st.lists(st.integers(0, kept - 1), min_size=n_ions, max_size=n_ions))}
        else:  # small enough to stay below the band even when the guard keeps only the vacuum
            state = {"coherent": draw(st.lists(st.floats(-1e-4, 1e-4), min_size=n_ions, max_size=n_ions))}
        raw["evolve"] = {"t_stop": draw(st.floats(0.1, 50.0)) / freq, "steps": draw(st.integers(2, 6)),
                         "method": method, "initial_state": {**state, "spins": spins}}
        if method in ("pipeline_rwa", "standard_rwa", "rwa_jc"):
            raw["evolve"].update(resonant_drive=draw(st.integers(1, len(drives))),
                                 resonant_mode=draw(st.integers(1, n_ions)))
    return raw


@settings(max_examples=25, deadline=None)
@given(raw=raw_configs())
def test_serialize_then_parse_is_identity(raw):
    try:
        cfg = parse_config(raw)
    except ConfigError:  # a swept drive that does not couple to its mode (eta = 0)
        assume(False)
    text = serialize_config(cfg)
    again = parse_config(json.loads(text))
    assert serialize_config(again) == text
