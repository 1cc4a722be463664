import json
import math
import os
import re
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ionjc import experiments
from ionjc.cli import _build_parser, main
from ionjc.config import (
    AMU_SI,
    EXPERIMENTS,
    HBAR_SI,
    MAX_GRID_POINTS,
    MAX_IONS,
    PHASE_ERROR_BOUND,
    ConfigError,
    parse_config,
    serialize_config,
)
from ionjc.experiments import (
    Table,
    initial_state,
    run_evolve,
    run_modes,
    run_resonance,
    run_sweep_rabi,
    write_table,
)
from ionjc.fock import NumericalValidationError, basis_state, coherent_state
from ionjc.propagators import exact_propagator
from ionjc.transforms import NoDriveError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def minimal_modes_config(**over):
    cfg = {
        "experiment": "modes",
        "chain": {"N": 2},
        "drives": [{"ion": 1, "Omega_R": 0.25, "delta": 0.5, "k_L": 0.1},
                   {"ion": 2, "Omega_R": 0.25, "delta": 0.5, "k_L": 0.1}],
    }
    cfg.update(over)
    return cfg


def evolve_config(**evolve_over):
    evolve = {
        "t_stop": 5.0,
        "steps": 6,
        "method": "rwa_jc",
        "resonant_drive": 1,
        "resonant_mode": 1,
        "initial_state": {"fock": [1], "spins": ["g"]},
    }
    evolve.update(evolve_over)
    return {
        "experiment": "evolve",
        "chain": {"N": 1},
        "hilbert": {"n_max": 24, "guard": 6},
        "drives": [{"ion": 1, "Omega_R": 0.25, "delta": 0.8660254037844386, "k_L": 0.1}],
        "evolve": evolve,
    }


def test_parse_defaults_single_ion():
    cfg = parse_config({
        "experiment": "modes",
        "chain": {"N": 1},
        "drives": [{"ion": 1, "Omega_R": 0.1, "delta": 1.0, "k_L": 0.05}],
    })
    assert cfg.model.config.n_max == 40 and cfg.model.config.guard == 10
    assert cfg.model.chain.mu == 0.5 and cfg.model.chain.nu1 == 1.0
    assert cfg.model.drives[0].detuning == pytest.approx(1.0)
    assert cfg.out_format == "csv" and cfg.out_path is None


def test_parse_defaults_two_ion():
    cfg = parse_config(minimal_modes_config())
    assert cfg.model.config.n_max == 12 and cfg.model.config.guard == 4


def test_roundtrip_identity():
    raw = {
        "experiment": "sweep-rabi",
        "chain": {"N": 1},
        "drives": [{"ion": 1, "Omega_R": 0.1, "delta": 1.0, "k_L": 0.05}],
        "sweep": {"points": 5, "start": 0.01, "stop": 2.0},
    }
    cfg = parse_config(raw)
    text = serialize_config(cfg)
    again = parse_config(json.loads(text))
    assert serialize_config(again) == text


def test_parse_errors_are_anchored(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "experiment": "modes",\n  oops\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert ":3:" in str(err.value)  # line number of the syntax error

    with pytest.raises(ConfigError, match=r"\$\.experiment"):
        parse_config({"experiment": "bogus", "chain": {"N": 1}, "drives": []})
    with pytest.raises(ConfigError, match="N exceeds supported range"):
        parse_config(minimal_modes_config(chain={"N": 11}))
    with pytest.raises(ConfigError, match="delta or omega_L"):
        parse_config({
            "experiment": "modes", "chain": {"N": 1},
            "drives": [{"ion": 1, "Omega_R": 0.1, "delta": 1.0, "omega_L": 0.5, "k_L": 0.1}],
        })
    with pytest.raises(ConfigError, match=r"\$\.drives\[0\]"):
        parse_config({
            "experiment": "modes", "chain": {"N": 1},
            "drives": [{"ion": 1, "Omega_R": -0.1, "delta": 1.0, "k_L": 0.1}],
        })
    with pytest.raises(ConfigError, match="grid"):
        parse_config({
            "experiment": "sweep-rabi", "chain": {"N": 1},
            "drives": [{"ion": 1, "Omega_R": 0.1, "delta": 1.0, "k_L": 0.1}],
            "sweep": {"grid": [0.5]},
        })
    with pytest.raises(ConfigError, match="points"):
        parse_config({
            "experiment": "sweep-rabi", "chain": {"N": 1},
            "drives": [{"ion": 1, "Omega_R": 0.1, "delta": 1.0, "k_L": 0.1}],
            "sweep": {"points": 1},
        })


def test_parse_rejects_dense_matrix_over_budget():
    # 3 ions, n_max 12, 3 drives: dim 13824, 3.06 GB per dense complex matrix
    drives = [{"ion": j, "Omega_R": 0.2, "delta": 0.5, "k_L": 0.1} for j in (1, 2, 3)]
    raw = {"experiment": "modes", "chain": {"N": 3}, "hilbert": {"n_max": 12}, "drives": drives}
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"dim 13824 needs 3057647616 bytes"):
            parse_config(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**24  # rejected before anything of matrix size is allocated
    single = {"experiment": "modes", "chain": {"N": 1}, "drives": drives[:1]}
    assert parse_config({**single, "hilbert": {"n_max": 4096}}).model.config.dim == 8192  # exactly the budget
    with pytest.raises(ConfigError, match="dim 8194"):
        parse_config({**single, "hilbert": {"n_max": 4097}})


@pytest.mark.parametrize("hilbert", [{"n_max": 1}, {"n_max": 5, "guard": 5}, {"n_max": 5, "guard": -1}])
def test_parse_rejects_bad_hilbert_space(tmp_path, capsys, hilbert):
    # HilbertConfig makes the n_max and guard checks; parse_config anchors them
    with pytest.raises(ConfigError, match=r"\$\.hilbert"):
        parse_config(minimal_modes_config(hilbert=hilbert))
    path = write_config(tmp_path, minimal_modes_config(hilbert=hilbert))
    assert main(["modes", "--config", path]) == 2
    assert "config error: $.hilbert" in capsys.readouterr().err


def test_parse_accepts_shipped_and_benchmark_sizes():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) == 5
    for path in paths:
        parse_config(path)
    for n_max in (12, 20):  # two ions and two drives: dim 576 and 1600
        cfg = parse_config(minimal_modes_config(hilbert={"n_max": n_max, "guard": 4}))
        assert cfg.model.config.dim == 4 * n_max**2


def test_si_units_conversion():
    # 40 amu, nu1 = 2 pi MHz, 729 nm beam: eta = k sqrt(hbar / (2 m nu1)) ~ 0.097
    nu1 = 2 * np.pi * 1.0e6
    k_l = 2 * np.pi / 729e-9
    cfg = parse_config({
        "experiment": "modes",
        "units": "si",
        "chain": {"N": 1, "mu": 40.0, "nu1": nu1},
        "drives": [{"ion": 1, "Omega_R": 0.1 * nu1, "delta": 1.0 * nu1, "k_L": k_l}],
    })
    eta = cfg.model.eta_matrix()[0, 0]
    expected = k_l * np.sqrt(HBAR_SI / (2.0 * 40.0 * AMU_SI * nu1))
    assert eta == pytest.approx(expected, rel=1e-12)
    assert cfg.model.drives[0].Omega_R == pytest.approx(0.1)
    assert cfg.model.drives[0].detuning == pytest.approx(1.0)


@pytest.mark.parametrize("mu, nu1", [(40.0, 1e-300), (1e-300, 1e6), (1e300, 1e300)],
                         ids=["2-mu-nu1-underflows", "mu-underflows", "2-mu-nu1-overflows"])
def test_si_scale_out_of_double_range_exits_2(tmp_path, capsys, mu, nu1):
    # 2 mu nu1 in SI leaves double range: at 0 the length scale sqrt(hbar / (2 mu nu1)) would divide by zero,
    # at inf it is 0 and every k_L would read 0
    cfg = minimal_modes_config(units="si", chain={"N": 1, "mu": mu, "nu1": nu1},
                               drives=[{"ion": 1, "Omega_R": 1.0, "delta": 1.0, "k_L": 1.0}])
    assert main(["modes", "--config", write_config(tmp_path, cfg)]) == 2
    assert re.fullmatch(r"config error: \$\.chain: .*length scale.* must be finite and non-zero\n",
                        capsys.readouterr().err)


@pytest.mark.parametrize("units, extra, drive, field", [
    ("si", {}, {"Omega_R": 1e20, "delta": 1.0, "k_L": 1.0}, "$.drives[0].Omega_R"),
    ("si", {}, {"Omega_R": 1.0, "delta": 1e20, "k_L": 1.0}, "$.drives[0].delta"),
    ("si", {}, {"Omega_R": 1.0, "omega_L": 1e20, "k_L": 1.0}, "$.drives[0].omega_L"),
    ("si", {"omega_ge": 1e20}, {"Omega_R": 1.0, "omega_L": 1.0, "k_L": 1.0}, "$.omega_ge"),
    ("si", {}, {"Omega_R": 1.0, "delta": 1.0, "k_L": 1e170}, "$.drives[0].k_L"),
    ("nu1", {"omega_ge": 1.5e308}, {"Omega_R": 1.0, "delta": -1.5e308, "k_L": 0.1}, "$.drives[0].delta"),
], ids=["Omega_R", "delta", "omega_L", "omega_ge", "k_L", "omega_ge-minus-delta"])
def test_conversion_out_of_double_range_exits_2(tmp_path, capsys, units, extra, drive, field):
    # SI nu1 = 1e-290 rad/s divides each frequency past the float range (the length scale stays finite, so k_L
    # is scaled by 2.8e140); in nu1 units omega_L = omega_ge - delta can overflow alone
    chain = {"N": 1, "mu": 40.0, "nu1": 1e-290} if units == "si" else {"N": 1}
    cfg = minimal_modes_config(units=units, chain=chain, drives=[{"ion": 1, **drive}], **extra)
    assert main(["resonance", "--config", write_config(tmp_path, {**cfg, "experiment": "resonance"})]) == 2
    assert capsys.readouterr().err == (f"config error: {field}: converts to inf in units of nu1; "
                                       "it must stay finite\n")


def test_modes_table_values():
    table = run_modes(parse_config(minimal_modes_config()))
    assert table.columns[:2] == ["mode", "nu_over_nu1"]
    assert [row[0] for row in table.rows] == [1, 2]
    assert table.rows[0][1] == pytest.approx(1.0)
    assert table.rows[1][1] == pytest.approx(np.sqrt(3.0))
    # eta columns: prefactor 0.1 over the COM mode gives 0.1 / sqrt(2)
    assert abs(table.rows[0][4]) == pytest.approx(0.1 / np.sqrt(2.0))


def test_single_ion_modes_table():
    table = run_modes(parse_config({
        "experiment": "modes", "chain": {"N": 1},
        "drives": [{"ion": 1, "Omega_R": 0.1, "delta": 1.0, "k_L": 0.1}],
    }))
    assert len(table.rows) == 1
    assert table.rows[0][2] == pytest.approx(1.0)  # M = [[1]]


def test_resonance_table_values():
    cfg = parse_config({
        "experiment": "resonance", "chain": {"N": 1},
        "drives": [{"ion": 1, "Omega_R": 0.25, "delta": 0.5, "k_L": 0.1}],
    })
    table = run_resonance(cfg)
    row = table.rows[0]
    assert row[5] == pytest.approx(np.sqrt(0.75))

    unreachable = parse_config({
        "experiment": "resonance", "chain": {"N": 1},
        "drives": [{"ion": 1, "Omega_R": 0.6, "delta": 0.5, "k_L": 0.1}],
    })
    assert run_resonance(unreachable).rows[0][5] == "unreachable"

    weak = parse_config({
        "experiment": "resonance", "chain": {"N": 1},
        "drives": [{"ion": 1, "Omega_R": 1e-8, "delta": 0.5, "k_L": 0.1}],
    })
    assert run_resonance(weak).rows[0][5] == pytest.approx(1.0, abs=1e-12)


def sweep_config(points=7, start=0.01, stop=10.0):
    return {
        "experiment": "sweep-rabi",
        "chain": {"N": 1},
        "drives": [{"ion": 1, "Omega_R": 0.1, "delta": 1.0, "k_L": 0.05}],
        "sweep": {"points": points, "start": start, "stop": stop},
    }


def test_sweep_rabi_weak_field_row():
    # at Omega = 1e-2 both approximations are comparably accurate
    cfg = parse_config(sweep_config(points=2, start=0.01, stop=0.02))
    table = run_sweep_rabi(cfg)
    row = dict(zip(table.columns, table.rows[0]))
    assert row["reachable"] is True
    assert row["infidelity_balanced_rwa"] <= 0.05
    assert row["infidelity_standard_rwa"] <= 0.05
    ratio = row["infidelity_standard_rwa"] / row["infidelity_balanced_rwa"]
    assert 0.1 <= ratio <= 10.0


def test_sweep_rabi_strong_field_ordering_and_flags():
    cfg = parse_config(sweep_config(points=3, start=1.8, stop=2.6))
    table = run_sweep_rabi(cfg, threads=2)
    for row in map(lambda r: dict(zip(table.columns, r)), table.rows):
        assert row["reachable"] is False  # 2 Omega > nu everywhere here
        assert row["delta"] == 0.0
        assert row["infidelity_standard_rwa"] > row["infidelity_balanced_rwa"]


def test_sweep_threading_matches_serial():
    cfg = parse_config(sweep_config(points=5, start=0.05, stop=0.4))
    serial = run_sweep_rabi(cfg, threads=1)
    threaded = run_sweep_rabi(cfg, threads=4)
    assert serial.rows == threaded.rows


def test_sweep_workers_capped_at_cpu_count(monkeypatch):
    # a thread count far above the usable core count starts no more workers than the process may run on
    cfg = parse_config(sweep_config(points=6, start=0.05, stop=0.4))
    serial = run_sweep_rabi(cfg, threads=1)
    baseline, peak = threading.active_count(), []
    sweep_point = experiments._sweep_point

    def counting(*args):
        peak.append(threading.active_count())
        return sweep_point(*args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # pinned to one of two cores
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(experiments, "_sweep_point", counting)
    assert run_sweep_rabi(cfg, threads=64).rows == serial.rows
    assert len(peak) == 6 and max(peak) <= baseline + 1
    # without an affinity call the cap falls back to the core count
    peak.clear()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert run_sweep_rabi(cfg, threads=64).rows == serial.rows
    assert len(peak) == 6 and max(peak) <= baseline + 2


def test_evolve_stationary_ground_state():
    cfg = parse_config(evolve_config(initial_state={"fock": [0], "spins": ["g"]}))
    table = run_evolve(cfg)
    cols = table.columns
    assert cols == ["t", "pop_e_ion1", "nbar_mode1", "overlap_initial"]
    for row in table.rows:
        assert row[1] == pytest.approx(0.0, abs=1e-12)
        assert row[2] == pytest.approx(0.0, abs=1e-12)
        assert row[3] == pytest.approx(1.0, abs=1e-12)


def test_evolve_single_quantum_oscillation():
    cfg = parse_config(evolve_config())
    table = run_evolve(cfg)
    model = cfg.model
    from ionjc.propagators import jc_coupling

    g = jc_coupling(model, 1, 1)
    for row in table.rows:
        t, pop_e = row[0], row[1]
        assert pop_e == pytest.approx(np.sin(g * t) ** 2, abs=1e-9)


def test_evolve_coherent_state_bounded_populations():
    cfg = parse_config(evolve_config(
        method="pipeline_exact",
        initial_state={"coherent": [2.0], "spins": ["g"]},
    ))
    table = run_evolve(cfg)
    for row in table.rows:
        assert -1e-12 <= row[1] <= 1.0 + 1e-12


def test_evolve_rejects_leaky_coherent_state(tmp_path, capsys):
    # a start state leaking past the guard band is rejected by the parser, before any run
    with pytest.raises(ConfigError, match=r"^\$\.evolve\.initial_state: .*guard"):
        parse_config(evolve_config(initial_state={"coherent": [3.5], "spins": ["g"]}))
    # amplitude 40 underflows exp(-|alpha|^2 / 2) to 0: a config error, not NaN rows
    cfg_dict = evolve_config(initial_state={"coherent": [40.0], "spins": ["g"]})
    cfg_dict["hilbert"] = {"n_max": 40, "guard": 10}
    with pytest.raises(ConfigError, match=r"\$\.evolve\.initial_state: "):
        parse_config(cfg_dict)
    out = tmp_path / "out.csv"
    assert main(["evolve", "--config", write_config(tmp_path, cfg_dict), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("state, rule", [
    ({"fock": [1], "spins": ["g", "g"]}, "one spin label 'e' or 'g' per ion"),
    ({"fock": [1], "spins": ["x"]}, "one spin label 'e' or 'g' per ion"),
    ({"fock": [24], "spins": ["g"]}, r"one Fock index in 0\.\.23 per mode"),
    ({"fock": [-1], "spins": ["g"]}, r"one Fock index in 0\.\.23 per mode"),
    ({"coherent": [0.5, 0.5], "spins": ["g"]}, "one coherent amplitude per mode"),
    ({"coherent": [40.0], "spins": ["g"]}, "underflow to a zero state"),
    ({"coherent": [3.5], "spins": ["g"]}, "above the guard band"),
], ids=["spin-count", "spin-label", "fock-above", "fock-below", "coherent-length", "underflow", "leak"])
def test_evolve_start_state_rejected_at_parse_time(tmp_path, capsys, state, rule):
    cfg_dict = evolve_config(initial_state=state)
    with pytest.raises(ConfigError, match=r"^\$\.evolve\.initial_state: .*" + rule):
        parse_config(cfg_dict)
    out = tmp_path / "out.csv"
    assert main(["evolve", "--config", write_config(tmp_path, cfg_dict), "--out", str(out)]) == 2
    assert "config error: $.evolve.initial_state: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("state", [
    {"fock": [3], "spins": ["e"]},
    {"coherent": [-1.5], "spins": ["g"]},
])
def test_initial_state_is_the_parsed_start_state(state):
    cfg = parse_config(evolve_config(initial_state=state))
    config = cfg.model.config
    direct = (basis_state(config, state["fock"], state["spins"]) if "fock" in state
              else coherent_state(config, state["coherent"], state["spins"]))
    psi0 = initial_state(cfg)
    assert psi0 is cfg.evolve.psi0 and not psi0.flags.writeable
    assert np.array_equal(psi0, direct)


@pytest.mark.parametrize("path", ["$.evolve.steps", "$.sweep.points", "$.evolve.times", "$.sweep.grid"])
def test_grid_size_bounded_before_allocation(tmp_path, capsys, path):
    _, section, key = path.split(".")
    value = 10**12 if key in ("steps", "points") else list(range(1, MAX_GRID_POINTS + 2))
    cfg_dict = evolve_config(**{key: value}) if section == "evolve" else {**sweep_config(), "sweep": {key: value}}
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"^" + re.escape(path) + ": "):
            parse_config(cfg_dict)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**24  # rejected before anything of grid size is allocated
    out = tmp_path / "out.csv"
    assert main([cfg_dict["experiment"], "--config", write_config(tmp_path, cfg_dict), "--out", str(out)]) == 2
    assert f"config error: {path}: " in capsys.readouterr().err
    assert not out.exists()


def test_grid_size_bound_is_inclusive():
    assert MAX_GRID_POINTS == 2**20
    assert len(parse_config(evolve_config(steps=MAX_GRID_POINTS)).evolve.times) == MAX_GRID_POINTS


@pytest.mark.parametrize("experiment, field", [("evolve", "$.evolve.t_stop"), ("sweep-rabi", "$.sweep.grid[0]")])
def test_phases_that_lose_every_digit_exit_2(tmp_path, capsys, experiment, field):
    # an exact evolve to t = 1e300, and an SI sweep whose 1e30-amu ions put its pi pulse at 5.1e16 / nu1: both
    # exited 0 with rows of rounding noise; eps W t now exceeds PHASE_ERROR_BOUND before anything dim-sized exists
    if experiment == "evolve":
        cfg = evolve_config(method="exact", t_stop=1e300)
    else:
        nu1 = 2 * np.pi * 1.0e6
        cfg = {"experiment": "sweep-rabi", "units": "si", "chain": {"N": 1, "mu": 1e30, "nu1": nu1},
               "hilbert": {"n_max": 8, "guard": 2},
               "drives": [{"ion": 1, "Omega_R": 0.1 * nu1, "delta": nu1, "k_L": 2 * np.pi / 729e-9}],
               "sweep": {"points": 2, "start": 0.05 * nu1, "stop": 0.4 * nu1, "scale": "linear"}}
    out = tmp_path / "out.csv"
    assert main([experiment, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config error: {field}: the phases reach W t = ")
    assert f"exceeds {PHASE_ERROR_BOUND:g}" in err
    assert not out.exists()


@pytest.mark.parametrize("warnings_as_errors", [False, True], ids=["warnings-recorded", "warnings-as-errors"])
@pytest.mark.parametrize("name, experiment", [("evolve_sideband", "evolve"), ("sweep_rabi", "sweep-rabi")])
def test_lamb_dicke_prefactor_past_the_float_range_names_k_L(tmp_path, capsys, name, experiment, warnings_as_errors):
    # k_L = 1e300 is finite, but the rate bound squared its Lamb-Dicke row past the float range: numpy warned
    # "overflow encountered in square" and the run blamed $.evolve.t_stop or $.sweep.grid[0] (exit 1 with warnings
    # as errors); the prefactor is now checked against the float range before any bound is formed from it
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    cfg["drives"][0]["k_L"] = 1e300
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error" if warnings_as_errors else "always")
        assert main([experiment, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: $.drives[0].k_L: the Lamb-Dicke prefactor ")
    assert not out.exists()


def test_lamb_dicke_prefactor_at_its_limit_keeps_the_rate_bound_finite(tmp_path, capsys):
    # two drives just below the limit: the rate bound adds both squares and stays finite, so the time is blamed,
    # and eps W t past the float range reads inf without a numpy overflow warning
    cfg = evolve_config(method="pipeline_rwa", t_stop=1e30)
    cfg["chain"] = {"N": 2}
    cfg["hilbert"] = {"n_max": 6, "guard": 2}
    k_l = 0.999 * math.sqrt(sys.float_info.max / MAX_IONS)
    cfg["drives"] = [{"ion": j, "Omega_R": 0.25, "delta": 0.5, "k_L": k_l} for j in (1, 2)]
    cfg["evolve"]["initial_state"] = {"fock": [1, 0], "spins": ["g", "g"]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: $.evolve.t_stop: the phases reach W t = ")
    assert "rate bound W = inf" not in err


def test_write_table_formats(tmp_path):
    table = Table(columns=["a", "b"], rows=[(1, 0.5), (2, None)], comments=["note"])
    csv_path = tmp_path / "t.csv"
    with open(csv_path, "w") as fh:
        write_table(table, fh, "csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# generated:")
    assert lines[1] == "# note"
    assert lines[2] == "a,b"
    assert lines[3] == "1,0.5"
    assert lines[4] == "2,"
    with open(tmp_path / "t.json", "w") as fh:
        write_table(table, fh, "json")
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc["columns"] == ["a", "b"]
    assert doc["rows"][1] == [2, None]


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_cli_modes_roundtrip(tmp_path, capsys):
    path = write_config(tmp_path, minimal_modes_config())
    out = tmp_path / "modes.csv"
    assert main(["modes", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# generated:")
    header = lines[2].split(",")
    assert header[:2] == ["mode", "nu_over_nu1"]
    assert float(lines[4].split(",")[1]) == pytest.approx(np.sqrt(3.0))


def test_cli_stdout_and_json(tmp_path, capsys):
    path = write_config(tmp_path, minimal_modes_config())
    assert main(["modes", "--config", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["columns"][0] == "mode"


def test_cli_exit_code_config_error(tmp_path, capsys):
    path = write_config(tmp_path, minimal_modes_config(chain={"N": 11}))
    assert main(["modes", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


# json reads NaN, Infinity and -Infinity, an overflowing literal as inf, and a long integer literal exactly
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400]


@pytest.mark.parametrize("spelling", NON_FINITE)
@pytest.mark.parametrize("keys, path", [
    (("drives", 0, "Omega_R"), "$.drives[0].Omega_R"),
    (("drives", 0, "delta"), "$.drives[0].delta"),
    (("drives", 0, "k_L"), "$.drives[0].k_L"),
    (("omega_ge",), "$.omega_ge"),
    (("evolve", "t_stop"), "$.evolve.t_stop"),
    (("evolve", "initial_state", "coherent", 0), "$.evolve.initial_state.coherent[*]"),
])
def test_non_finite_numbers_rejected(tmp_path, capsys, spelling, keys, path):
    cfg = evolve_config(initial_state={"coherent": [0.5], "spins": ["g"]})
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = "@"
    text = json.dumps(cfg).replace('"@"', spelling)
    with pytest.raises(ConfigError, match=r"^" + re.escape(path) + ": expected a finite number"):
        parse_config(json.loads(text))
    config_path = tmp_path / "cfg.json"
    config_path.write_text(text, encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["evolve", "--config", str(config_path), "--out", str(out)]) == 2
    assert f"config error: {path}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", [
    b'{"experiment": "modes", "chain": {"N": ' + b"7" * 5001 + b"}}",  # past the int-conversion digit limit
    b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
    b'{"experiment": "modes\xff"}',  # not UTF-8
], ids=["long-integer", "deep-nesting", "not-utf8"])
def test_cli_unreadable_config_exits_2_with_its_path(tmp_path, capsys, content):
    config_path = tmp_path / "cfg.json"
    config_path.write_bytes(content)
    out = tmp_path / "out.csv"
    assert main(["modes", "--config", str(config_path), "--out", str(out)]) == 2
    assert f"config error: {config_path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, keys, value", [
    ("evolve_sideband", ("drives", 0, "delta"), 1e160),
    ("evolve_sideband", ("drives", 0, "Omega_R"), 1e-160),
    ("evolve_sideband", ("drives", 0, "Omega_R"), 5e-324),  # Delta = delta / Omega_R is inf
    ("resonance", ("drives", 0, "Omega_R"), 1e-200),
    ("sweep_rabi", ("sweep", "start"), 1e-160),
])
def test_cli_rabi_frequency_too_small_for_the_detuning_exits_2(tmp_path, capsys, name, keys, value):
    # Delta = delta / Omega_R whose square leaves the float range: an undriven ion, not an overflow, named by the
    # drive, or by the sweep point that sets its Omega_R
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    out = tmp_path / "out.csv"
    assert main([cfg["experiment"], "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    field = "$.sweep.grid[0]" if keys[0] == "sweep" else f"$.drives[{keys[1]}]"
    assert err.startswith(f"config error: {field}: Omega_R = ") and "squares past the float range" in err
    assert not out.exists()


@pytest.mark.parametrize("warnings_as_errors", [False, True], ids=["warnings-recorded", "warnings-as-errors"])
@pytest.mark.parametrize("name, keys, value, field, message", [
    ("evolve_sideband", ("drives", 0, "delta"), 1e308, "$.drives[0]", "Omega_R = 0.25 is too small"),
    ("evolve_sideband", ("drives", 0, "Omega_R"), 0, "$.drives[0]", "balanced parameters are undefined"),
    ("resonance", ("drives", 0, "Omega_R"), 0, "$.drives[0]", "balanced parameters are undefined"),
    ("sweep_rabi", ("sweep", "grid"), [1e-300, 0.1], "$.sweep.grid[0]", "Omega_R = 1e-300 is too small"),
])
def test_drive_without_balanced_parameters_names_its_field(tmp_path, capsys, name, keys, value, field, message,
                                                           warnings_as_errors):
    # NoDriveError from the balanced parameters reached cli.main without a path: the parser now forms them for
    # every drive that its method, the resonance report or a sweep point needs (the resonance at run time before)
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error" if warnings_as_errors else "always")
        assert main([cfg["experiment"], "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config error: {field}: {message}")
    assert not out.exists()


def test_sweep_checks_the_drives_it_keeps_not_the_swept_one():
    # each sweep point sets the swept drive's Omega_R and detuning, so only a drive the sweep keeps is named
    cfg = {"experiment": "sweep-rabi", "chain": {"N": 2}, "hilbert": {"n_max": 6, "guard": 2},
           "drives": [{"ion": 1, "Omega_R": 0.0, "delta": 1.0, "k_L": 0.05},
                      {"ion": 2, "Omega_R": 0.1, "delta": 1.4, "k_L": 0.05}],
           "sweep": {"points": 2, "start": 0.05, "stop": 0.1, "drive": 1, "mode": 1}}
    assert parse_config(cfg).sweep.drive == 1
    cfg["drives"][1]["Omega_R"] = 0.0
    with pytest.raises(ConfigError, match=r"^\$\.drives\[1\]: balanced parameters are undefined at Omega_R = 0"):
        parse_config(cfg)


@pytest.mark.parametrize("warnings_as_errors", [False, True], ids=["warnings-recorded", "warnings-as-errors"])
@pytest.mark.parametrize("omega_r, delta", [(1e308, 0.8660254037844386), (8e307, 1.7e308)])
def test_corrected_detuning_past_the_float_range_names_its_drive(tmp_path, capsys, omega_r, delta,
                                                                 warnings_as_errors):
    # delta_eff = hypot(2 Omega_R, delta) = inf made the rate bound W = inf, and the run blamed $.evolve.t_stop;
    # with 2 Omega_R finite, numpy's hypot warned of the overflow
    cfg = json.loads((CONFIG_DIR / "evolve_sideband.json").read_text())
    cfg["drives"][0].update(Omega_R=omega_r, delta=delta)
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error" if warnings_as_errors else "always")
        assert main(["evolve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: $.drives[0]: the corrected detuning hypot(2 Omega_R, delta) of ")
    assert err.rstrip().endswith("leaves the float range")
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_cli_bad_output_path_exits_2_before_the_run(tmp_path, capsys, monkeypatch, where):
    def never(cfg, threads=1):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr("ionjc.cli.run_experiment", never)
    if where == "missing-directory":  # from --out
        out = tmp_path / "missing" / "x.csv"
        path, flags = write_config(tmp_path, minimal_modes_config()), ["--out", str(out)]
    else:  # from output.path
        out = tmp_path / "existing"
        out.mkdir()
        path, flags = write_config(tmp_path, minimal_modes_config(output={"path": str(out)})), []
    assert main(["modes", "--config", path, *flags]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: output path {str(out)!r} is a directory or lies in no existing directory\n"
    assert not out.parent.exists() if where == "missing-directory" else out.is_dir() and not any(out.iterdir())


def test_cli_failed_write_keeps_the_previous_output(tmp_path, capsys, monkeypatch):
    # the table is written beside --out under a temporary name and moved into place only when complete
    path = write_config(tmp_path, minimal_modes_config())
    out = tmp_path / "out" / "modes.csv"
    out.parent.mkdir()
    assert main(["modes", "--config", path, "--out", str(out)]) == 0
    before = out.read_bytes()

    def one_line_then_fail(table, stream, fmt="csv"):
        stream.write("# generated: partial\n")
        raise OSError("No space left on device")

    monkeypatch.setattr("ionjc.cli.write_table", one_line_then_fail)
    assert main(["modes", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("internal error: OSError")
    assert out.read_bytes() == before
    assert [p.name for p in out.parent.iterdir()] == ["modes.csv"]


def test_cli_output_keeps_its_link_and_mode(tmp_path, capsys):
    # the replacing write follows a symlink to its file and gives the file the mode a plain open would
    path = write_config(tmp_path, minimal_modes_config())
    target, link = tmp_path / "modes.csv", tmp_path / "link.csv"
    umask = os.umask(0o022)
    try:
        assert main(["modes", "--config", path, "--out", str(target)]) == 0
        assert target.stat().st_mode & 0o777 == 0o644
        target.chmod(0o640)
        link.symlink_to(target.name)
        target.write_text("old\n")
        assert main(["modes", "--config", path, "--out", str(link)]) == 0
    finally:
        os.umask(umask)
    assert link.is_symlink() and target.read_text().startswith("# generated:")
    assert target.stat().st_mode & 0o777 == 0o640


def test_cli_exit_code_experiment_mismatch(tmp_path, capsys):
    path = write_config(tmp_path, minimal_modes_config())
    assert main(["resonance", "--config", path]) == 2


def test_cli_exit_code_numerical_failure(tmp_path, capsys, monkeypatch):
    def boom(cfg, threads=1):
        raise NumericalValidationError("hermiticity check failed")

    monkeypatch.setattr("ionjc.cli.run_experiment", boom)
    path = write_config(tmp_path, minimal_modes_config())
    assert main(["modes", "--config", path]) == 3
    assert "numerical validation" in capsys.readouterr().err


def test_asymmetric_gauged_hamiltonian_rejected(tmp_path, capsys, monkeypatch):
    # the exact plan checks the real gauged H before its eigh; a failure there exits 3
    def lopsided(model):
        return np.triu(np.ones((model.config.dim, model.config.dim)))

    monkeypatch.setattr("ionjc.propagators.gauged_rotating_frame_hamiltonian", lopsided)
    cfg = parse_config(evolve_config(method="exact"))
    with pytest.raises(NumericalValidationError, match="hermitian"):
        exact_propagator(cfg.model, 1.0)
    path = write_config(tmp_path, evolve_config(method="exact"))
    assert main(["evolve", "--config", path]) == 3
    assert "numerical validation" in capsys.readouterr().err


@pytest.mark.parametrize("exc, code", [
    (NoDriveError("balanced parameters are undefined at Omega_R = 0"), 2),
    (np.linalg.LinAlgError("Eigenvalues did not converge"), 1),
    (RuntimeError("worker died"), 1),
    (MemoryError(), 1),
])
def test_cli_exit_code_by_cause(tmp_path, capsys, monkeypatch, exc, code):
    # LinAlgError subclasses ValueError: it is not a config error
    def boom(cfg, threads=1):
        raise exc

    monkeypatch.setattr("ionjc.cli.run_experiment", boom)
    path = write_config(tmp_path, minimal_modes_config())
    assert main(["modes", "--config", path]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert ("config error" in err) == (code == 2)
    assert code == 2 or type(exc).__name__ in err


def test_cli_threads_come_from_the_flag_only(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, sweep_config(points=2, start=0.05, stop=0.1))
    monkeypatch.setenv("IONJC_THREADS", "zero")  # an inherited variable is not read
    out = tmp_path / "sweep.csv"
    assert main(["sweep-rabi", "--config", path, "--out", str(out)]) == 0
    assert out.read_text() != ""
    bad = tmp_path / "bad.csv"
    assert main(["sweep-rabi", "--config", path, "--threads", "0", "--out", str(bad)]) == 2
    assert "config error: thread count must be >= 1" in capsys.readouterr().err
    assert not bad.exists()


@pytest.mark.parametrize("command", EXPERIMENTS)
def test_every_command_takes_the_four_options(command):
    parser = _build_parser()
    args = parser.parse_args([command, "--config", "c.json", "--out", "o.csv", "--format", "json", "--threads", "3"])
    assert (args.command, args.config, args.out, args.format, args.threads) == (command, "c.json", "o.csv", "json", 3)
    args = parser.parse_args([command, "--config", "c.json"])
    assert (args.out, args.format, args.threads) == (None, None, 1)


def test_bad_command_exits_2_and_help_lists_the_experiments(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bogus", "--config", "c.json"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "{" + ",".join(EXPERIMENTS) + "}" in capsys.readouterr().out


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_cli_writes_a_pipe_in_place(tmp_path, capsys):
    # an output path that exists and is not a regular file, a FIFO here, is written directly: its reader gets the
    # table a regular file gets, and no temporary file is left beside it
    path = write_config(tmp_path, minimal_modes_config())
    regular = tmp_path / "modes.csv"
    assert main(["modes", "--config", path, "--out", str(regular)]) == 0
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True)
    reader.start()
    assert main(["modes", "--config", path, "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert strip_timestamp(received[0]) == strip_timestamp(regular.read_text(encoding="utf-8"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "modes.csv", "pipe"]


def test_coherent_amplitude_past_the_float_range_exits_2(tmp_path, capsys):
    # |alpha|^2 of alpha = -1e300 raised OverflowError in coherent_state, an exit 1; its weight underflows to 0
    # like that of any |alpha| above about 38.6, and the parser rejects the zero state
    cfg = evolve_config(initial_state={"coherent": [-1e300], "spins": ["g"]})
    assert main(["evolve", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: $.evolve.initial_state: coherent amplitudes ") and "zero state" in err


def strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.startswith("#"))


def test_cli_byte_determinism(tmp_path):
    path = write_config(tmp_path, sweep_config(points=4, start=0.05, stop=0.8))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep-rabi", "--config", path, "--out", str(out1)]) == 0
    assert main(["sweep-rabi", "--config", path, "--out", str(out2)]) == 0
    assert strip_timestamp(out1.read_text()) == strip_timestamp(out2.read_text())
    assert out1.read_text() != ""
