"""Property tests over random models, random drives and random configs."""

import contextlib
import copy
import io
import json
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import make_single_model  # noqa: E402
from ionjc import fock, propagators  # noqa: E402
from ionjc.cli import main  # noqa: E402
from ionjc.chain import ChainModel, LaserDrive  # noqa: E402
from ionjc.config import ConfigError, parse_config, serialize_config  # noqa: E402
from ionjc.fock import HilbertConfig, check_matrix, coherent_state  # noqa: E402
from ionjc.hamiltonians import ModelSpec  # noqa: E402
from ionjc.propagators import METHODS, _plan, evolve_states, phase_rate_bound  # noqa: E402
from ionjc.transforms import (balanced_params, balanced_transform_closed,  # noqa: E402
                              factored_balanced_transform)
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
@given(model=MODELS, t0=TIMES, t=TIMES)
def test_certified_propagators_pass_the_dense_unitarity_check(method, model, t0, t):
    # a plan certifies its unitary tag through its real factor and the column norms; the complex
    # U^dag U check that this replaced still holds on every random model
    u = _method_propagator(model, method, [(1, 1)], t, t0)
    assert u.unitary and fock._unitary_residual(u.entries) <= fock.UNITARY_ATOL


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=20, deadline=None)
@given(model=MODELS, t0=TIMES, times=st.lists(TIMES, max_size=25), columns=st.integers(1, 8))
def test_evolve_states_on_random_grids(method, model, t0, times, columns):
    # any block size and grid length: each yielded state is U(t, t0) psi0 at its own time
    pairs = [(1, 1)]
    psi0 = coherent_state(model.config, [0.4 - 0.3j], ["e"])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(propagators._Plan, "block", columns)
        states = list(evolve_states(model, psi0, times, method=method, t0=t0, resonant_pairs=pairs))
    assert [t for t, _ in states] == times
    for t, psi in states:
        u = _method_propagator(model, method, pairs, t, t0)
        assert np.abs(psi - u.entries @ psi0).max() <= 1e-10


@st.composite
def balanced_models(draw):
    """1 to 3 ions, n_max 2 to 8 (2 to 4 with 3 ions, dim <= 512), a drive on each of a random set of ions."""
    n_ions = draw(st.integers(1, 3))
    n_max = draw(st.integers(2, 8 if n_ions < 3 else 4))
    ions = sorted(draw(st.lists(st.integers(1, n_ions), min_size=1, max_size=n_ions, unique=True)))
    drives = tuple(LaserDrive(ion=ion, Omega_R=draw(st.floats(0.05, 2.0)), omega_L=-draw(st.floats(-3.0, 3.0)),
                              k_L=draw(st.floats(0.01, 0.5)), phi_beam=draw(st.floats(-1.5, 1.5)),
                              phase=draw(st.floats(-np.pi, np.pi))) for ion in ions)
    config = HilbertConfig(n_modes=n_ions, n_max=n_max, n_spins=len(drives), guard=0)
    return ModelSpec(chain=ChainModel.build(n_ions), drives=drives, config=config)


@settings(max_examples=40, deadline=None)
@given(model=balanced_models())
def test_factored_transform_is_the_dense_transform(model):
    # T and T^dag through the factors, on the identity's columns, against the closed block form
    config, params = model.config, model.balanced()
    dense = balanced_transform_closed(config, params)
    factored = factored_balanced_transform(config, params)
    eye = np.eye(config.dim, dtype=complex)
    for adjoint, want in ((False, dense), (True, dense.conj().T)):
        assert np.abs(factored.apply(eye.copy(), np.empty_like(eye), adjoint=adjoint) - want).max() <= 1e-13


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=25, deadline=None)
@given(model=balanced_models())
def test_phase_rate_bound_covers_every_rate(method, model):
    # W, from the free diagonal and the drive norms, bounds every eigenvalue of an eigen plan's Hamiltonian and
    # a closed form's free diagonal plus its exchange rates |g| sqrt(n_max - 1)
    plan = _plan(model, method, [(1, 1)])
    if plan.diag is not None:
        rate = np.abs(plan.diag).max()
    else:
        free = np.abs(reduce(np.add, np.ix_(*plan.axes))).max() if plan.axes else 0.0
        rate = free + np.sqrt(model.config.n_max - 1) * sum(abs(g) for _, _, g in plan.exchanges)
    assert rate <= phase_rate_bound(model, method, [(1, 1)]) * (1.0 + 1e-12)


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


def _small(cfg: dict) -> dict:
    """A shipped config cut to n_max <= 16, steps <= 50 and points <= 4, its coherent start inside the guard band."""
    if "hilbert" in cfg:
        cfg["hilbert"] = {"n_max": min(cfg["hilbert"]["n_max"], 16), "guard": min(cfg["hilbert"]["guard"], 4)}
    if "evolve" in cfg:
        cfg["evolve"]["steps"] = min(cfg["evolve"]["steps"], 50)
        if "coherent" in cfg["evolve"]["initial_state"]:
            cfg["evolve"]["initial_state"]["coherent"] = [1.0]
    if "sweep" in cfg:
        cfg["sweep"]["points"] = min(cfg["sweep"]["points"], 4)
    return cfg


SMALL_CONFIGS = {path.stem: _small(json.loads(path.read_text()))
                 for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))}
# every leaf of a mutated config gets one of these: zero, negative, huge (at the float range's edge among them), tiny
# and subnormal numbers, an integer past the float digits, and each json kind that is not a number
LEAF_VALUES = (0, -1, 1e300, -1e300, 1.7e308, -1.7e308, 1e-300, 5e-324, 1e6, 10**20, True, "x", None, [], {})
_NU1_SI = 2 * np.pi * 1.0e6  # a 1 MHz trap, 40 amu ions and a 729 nm beam: eta about 0.1
_K_L_SI = 2 * np.pi / 729e-9
# SI bases, which no shipped config is: an evolve with an explicit times list and omega_L, a sweep with a grid list
SI_CONFIGS = {
    "si_evolve": {
        "experiment": "evolve", "units": "si", "chain": {"N": 1, "mu": 40.0, "nu1": _NU1_SI},
        "hilbert": {"n_max": 12, "guard": 4}, "omega_ge": 0.0,
        "drives": [{"ion": 1, "Omega_R": 0.25 * _NU1_SI, "omega_L": -0.8660254037844386 * _NU1_SI, "k_L": _K_L_SI,
                    "phi_beam": 0.0, "phase": 0.0}],
        "evolve": {"times": [0.0, 1e-6, 2e-6, 5e-6], "method": "pipeline_rwa", "resonant_drive": 1,
                   "resonant_mode": 1, "initial_state": {"fock": [1], "spins": ["g"]}},
        "output": {"path": "si_evolve.csv", "format": "csv"},
    },
    "si_sweep": {
        "experiment": "sweep-rabi", "units": "si", "chain": {"N": 1, "mu": 40.0, "nu1": _NU1_SI},
        "hilbert": {"n_max": 8, "guard": 2},
        "drives": [{"ion": 1, "Omega_R": 0.1 * _NU1_SI, "delta": _NU1_SI, "k_L": _K_L_SI}],
        "sweep": {"grid": [0.05 * _NU1_SI, 0.2 * _NU1_SI], "drive": 1, "mode": 1},
        "output": {"path": "si_sweep.csv", "format": "json"},
    },
}
FUZZ_BASES = {**SMALL_CONFIGS, **SI_CONFIGS}
HUGE_VALUES = tuple(v for v in LEAF_VALUES if isinstance(v, float) and abs(v) >= 1e300)
# the keys of the values an SI config converts to units of nu1; any value under one of them is unit-bearing
UNIT_FIELDS = {"nu1", "Omega_R", "delta", "omega_L", "k_L", "omega_ge", "times", "t_start", "t_stop", "start",
               "stop", "grid"}


def _leaves(node, path=()):
    """The key paths of a json value's leaves: its scalars and its empty containers."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(value, (dict, list)) and value:
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


@st.composite
def mutated_configs(draw):
    """A small shipped config with one or two of its leaves replaced from LEAF_VALUES."""
    name = draw(st.sampled_from(sorted(SMALL_CONFIGS)))
    cfg = copy.deepcopy(SMALL_CONFIGS[name])
    for path in draw(st.lists(st.sampled_from(list(_leaves(cfg))), min_size=1, max_size=2, unique=True)):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(draw(st.sampled_from(LEAF_VALUES)))
    return name, cfg


def _nodes(node, path=()):
    """The key paths of every value in a json value, containers and the top level (the empty path) included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _nodes(value, path + (key,))


@st.composite
def edited_configs(draw):
    """A small shipped or SI config with one or two of its values deleted or replaced whole from LEAF_VALUES.

    Any value may be picked: a leaf, a container (a drive, the drive list, a
    section) or the whole config.  Unit conversions past the float range are
    drawn often: half the cases start from an SI base, half the edits of an
    SI base pick a unit-bearing value, and half the values put there are
    HUGE_VALUES.
    """
    name = draw(st.sampled_from(sorted(FUZZ_BASES)) | st.sampled_from(sorted(SI_CONFIGS)))
    cfg = copy.deepcopy(FUZZ_BASES[name])
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_nodes(cfg))
        units = [p for p in paths if UNIT_FIELDS.intersection(map(str, p))] if name in SI_CONFIGS else []
        path = draw(st.sampled_from(units) | st.sampled_from(paths) if units else st.sampled_from(paths))
        values = st.sampled_from(LEAF_VALUES)
        value = copy.deepcopy(draw(st.sampled_from(HUGE_VALUES) | values if path in units else values))
        if not path:  # the top level replaced: nothing is left to edit
            return FUZZ_BASES[name]["experiment"], value
        parent = reduce(lambda node, key: node[key], path[:-1], cfg)
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return FUZZ_BASES[name]["experiment"], cfg


def _cli(tmp: Path, cfg: dict, experiment: str) -> tuple[int, str]:
    """cli.main's exit code and stderr on cfg, written to tmp, with its output in tmp."""
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([experiment, "--config", str(path), "--out", str(tmp / "out.csv")])
    return code, err.getvalue()


def test_small_shipped_configs_run(tmp_path):
    # the mutations start from configs that run, so they reach past the parser
    for name, cfg in FUZZ_BASES.items():
        (tmp_path / name).mkdir()
        assert _cli(tmp_path / name, cfg, cfg["experiment"]) == (0, ""), name


@settings(max_examples=500, deadline=None)
@given(case=mutated_configs())
def test_cli_exit_code_contract_on_mutated_configs(tmp_path_factory, case):
    # 0 or 3, or 2 with one stderr line, and never 1 (an internal error, a numpy warning under filterwarnings =
    # error among them): every input the parser lets through runs, and every one it rejects is named on one line
    name, cfg = case
    code, err = _cli(tmp_path_factory.mktemp("contract"), cfg, SMALL_CONFIGS[name]["experiment"])
    assert code in (0, 2, 3), err
    assert (code == 0) == (err == "") and len(err.splitlines()) == (code != 0), err


@settings(max_examples=500, deadline=None)
@given(case=edited_configs())
def test_cli_exit_code_contract_on_edited_configs(tmp_path_factory, case):
    # the same contract where a field goes missing, a container or the whole config is replaced, and the bases
    # include SI configs, whose every unit-bearing field is converted
    experiment, cfg = case
    code, err = _cli(tmp_path_factory.mktemp("contract"), cfg, experiment)
    assert code in (0, 2, 3), err
    assert (code == 0) == (err == "") and len(err.splitlines()) == (code != 0), err
