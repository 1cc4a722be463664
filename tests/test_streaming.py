"""The evolve path in blocks: block observables, the streamed writers, the workspace and the run's memory."""

import datetime as _dt
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ionjc import propagators  # noqa: E402
from ionjc.cli import main  # noqa: E402
from ionjc.config import parse_config  # noqa: E402
from ionjc.experiments import Table, initial_state, run_evolve, run_experiment, write_table  # noqa: E402
from ionjc.fock import basis_state, mode_occupations, spin_signs  # noqa: E402
from ionjc.propagators import METHODS, _plan, evolve_states  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted((ROOT / "configs").glob("*.json"))


def reference_write_table(table, stream, fmt="csv"):
    """The writer before rows were streamed: every row formatted through _fmt, the JSON through one json.dump."""
    def fmt_value(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    now = _dt.datetime.now(_dt.timezone.utc).isoformat()
    if fmt == "csv":
        stream.write(f"# generated: {now}\n")
        for comment in table.comments:
            stream.write(f"# {comment}\n")
        stream.write(",".join(table.columns) + "\n")
        for row in table.rows:
            stream.write(",".join(fmt_value(v) for v in row) + "\n")
    elif fmt == "json":
        doc = {
            "comments": list(table.comments),
            "columns": list(table.columns),
            "rows": [[None if v is None else (v.item() if isinstance(v, np.generic) else v) for v in row]
                     for row in table.rows],
        }
        doc["generated"] = now
        json.dump(doc, stream, indent=2, sort_keys=True)
        stream.write("\n")
    else:
        raise ValueError("format must be 'csv' or 'json'")


def written(writer, table, fmt):
    """The writer's text without its timestamp line."""
    out = io.StringIO()
    writer(table, out, fmt)
    return "".join(line for line in out.getvalue().splitlines(keepends=True) if "generated" not in line)


def _two_drives(n_max, guard):
    return {"chain": {"N": 2}, "hilbert": {"n_max": n_max, "guard": guard},
            "drives": [{"ion": 1, "Omega_R": 0.25, "delta": 0.8660254037844386, "k_L": 0.08},
                       {"ion": 2, "Omega_R": 0.2, "delta": 1.4, "k_L": 0.05}]}


# the three benchmark workloads' shapes (two ions, two drives) at n_max 5 or 6 and a few points
REDUCED_WORKLOADS = {
    "sweep": {"experiment": "sweep-rabi", **_two_drives(5, 1),
              "sweep": {"points": 4, "start": 0.01, "stop": 1.2, "scale": "log", "drive": 1, "mode": 1}},
    "evolve-rwa": {"experiment": "evolve", **_two_drives(5, 1),
                   "evolve": {"t_stop": 200.0, "steps": 9, "method": "pipeline_rwa", "resonant_drive": 1,
                              "resonant_mode": 1, "initial_state": {"fock": [1, 0], "spins": ["g", "g"]}}},
    "evolve-exact": {"experiment": "evolve", **_two_drives(6, 0),
                     "evolve": {"t_stop": 200.0, "steps": 9, "method": "exact",
                                "initial_state": {"coherent": [0.9, 0.4], "spins": ["g", "g"]}}},
}


@pytest.mark.parametrize("source", SHIPPED + list(REDUCED_WORKLOADS), ids=lambda s: getattr(s, "stem", s))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_output_is_the_reference_writers(source, fmt, monkeypatch):
    # blocks of 3 points, so an evolve table reaches the writer as several blocks and a partial one
    monkeypatch.setattr(propagators._Plan, "block", 3)
    cfg = parse_config(REDUCED_WORKLOADS.get(source, source))
    table = run_experiment(cfg, threads=2)
    assert written(write_table, table, fmt) == written(reference_write_table, table, fmt)


def test_streamed_output_of_every_value_kind():
    # None, bools, ints, numpy scalars, text, non-finite floats, empty and non-finite float blocks
    rows = [(1, 0.5, None, True, "unreachable"), (np.int64(2), np.float64(-0.0), float("nan"), False, "x\"y")]
    blocks = [rows, np.empty((0, 3)), np.array([[1e-300, -np.inf, 3.0], [np.nan, 2.5, 1e22]]),
              np.array([[0.1, 0.2, 0.30000000000000004]])]
    for table in (Table(["a", "b", "c", "d", "e"], rows, comments=["note", "ü"]),
                  Table(["a", "b", "c"], comments=[], blocks=lambda: blocks[1:]),
                  Table(["a"], [])):
        for fmt in ("csv", "json"):
            assert written(write_table, table, fmt) == written(reference_write_table, table, fmt)
    with pytest.raises(ValueError, match="format"):
        write_table(Table(["a"], [(1,)]), io.StringIO(), "xml")
    with pytest.raises(ValueError, match="rows or blocks"):
        Table(["a"], [(1,)], blocks=lambda: [])


def evolve_config(method, times, n_max=5):
    return {"experiment": "evolve", **_two_drives(n_max, 0),
            "evolve": {"times": times, "method": method, "resonant_drive": 1, "resonant_mode": 1,
                       "initial_state": {"coherent": [0.6, 0.3], "spins": ["e", "g"]}}}


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=15, deadline=None)
@given(times=st.lists(st.floats(-5.0, 40.0), min_size=2, max_size=20, unique=True), block=st.integers(1, 8))
def test_block_observables_are_the_per_state_formulas(method, times, block):
    # pop_e and nbar through one GEMM on |Y|^2 and the overlap through psi0^H Y, against each state's own sums
    cfg = parse_config(evolve_config(method, sorted(times)))
    config = cfg.model.config
    psi0 = initial_state(cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(propagators._Plan, "block", block)
        rows = run_evolve(cfg).rows
        states = list(evolve_states(cfg.model, psi0, cfg.evolve.times, method=method,
                                    resonant_pairs=[cfg.evolve.resonant_pair] if cfg.evolve.resonant_pair else None))
    assert len(rows) == len(states) == len(times)
    occ, excited = mode_occupations(config).astype(float), (spin_signs(config) > 0).astype(float)
    for row, (t, psi) in zip(rows, states):
        weights = np.abs(psi) ** 2
        want = [t, *(excited @ weights), *(occ @ weights), abs(np.vdot(psi0, psi)) ** 2]
        assert all(isinstance(v, float) for v in row)
        assert row[0] == t
        assert np.abs(np.array(row) - want).max() <= 1e-14


@pytest.mark.parametrize("method", ["exact", "pipeline_rwa"])
def test_apply_evolves_every_block_in_one_workspace(method):
    # each yielded block is a view of the same workspace, allocated once per call
    model = parse_config(evolve_config(method, [0.0, 1.0])).model
    plan = _plan(model, method, [(1, 1)])
    psi0 = basis_state(model.config, [1, 0], ["g", "g"])
    times = np.linspace(0.0, 30.0, 3 * plan.block + 1)
    blocks = list(plan.apply(psi0, times))
    assert [ts.size for ts, _ in blocks] == [plan.block] * 3 + [1]
    assert all(np.shares_memory(blocks[0][1], y) for _, y in blocks[1:])
    assert np.array_equal(np.concatenate([ts for ts, _ in blocks]), times)


def test_failed_stream_keeps_the_previous_output(tmp_path, capsys, monkeypatch):
    # a run that fails after its first block: --out keeps its old file, stdout keeps the rows already written
    path = tmp_path / "evolve.json"
    path.write_text(json.dumps(evolve_config("pipeline_rwa", [0.5 * i for i in range(12)])), encoding="utf-8")
    monkeypatch.setattr(propagators._Plan, "block", 4)
    out = tmp_path / "out" / "evolve.csv"
    out.parent.mkdir()
    assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
    before = out.read_bytes()
    apply = propagators._Plan.apply

    def one_block_then_fail(self, psi0, times, t0=0.0):
        blocks = apply(self, psi0, times, t0)
        yield next(blocks)
        raise RuntimeError("stream broke")

    monkeypatch.setattr(propagators._Plan, "apply", one_block_then_fail)
    assert main(["evolve", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "internal error: RuntimeError('stream broke')\n"
    assert out.read_bytes() == before
    assert [p.name for p in out.parent.iterdir()] == ["evolve.csv"]
    assert main(["evolve", "--config", str(path)]) == 1
    streamed = capsys.readouterr().out
    assert streamed.splitlines()[3:] == before.decode().splitlines()[3:7]  # the header, then the first block


@pytest.mark.parametrize("method", ["exact", "pipeline_rwa"])
def test_run_memory_does_not_grow_with_the_grid(tmp_path, method):
    # parse, run and write hold one block of states and rows: at 100,000 points the tracemalloc peak stays within
    # twice the peak at 300 points (one ion, n_max 100: dim 200, where 300 points fill the first block, so both
    # runs hold the same workspace, and the 100,000-point grid itself takes 0.8 MB)
    peaks = []
    for steps in (300, 300, 100_000):  # the first run fills the basis caches outside the measurement
        path = tmp_path / f"{steps}.json"
        path.write_text(json.dumps({
            "experiment": "evolve", "chain": {"N": 1}, "hilbert": {"n_max": 100, "guard": 2},
            "drives": [{"ion": 1, "Omega_R": 0.25, "delta": 0.8660254037844386, "k_L": 0.1}],
            "evolve": {"t_stop": 200.0, "steps": steps, "method": method, "resonant_drive": 1, "resonant_mode": 1,
                       "initial_state": {"fock": [1], "spins": ["g"]}}}), encoding="utf-8")
        tracemalloc.start()
        try:
            assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        with open(tmp_path / "out.csv") as fh:
            assert sum(1 for _ in fh) == steps + 3
    assert peaks[2] <= 2 * peaks[1], peaks


def test_evolve_run_does_not_import_concurrent_futures(tmp_path):
    # only the sweep starts threads; an evolve run through the CLI leaves concurrent.futures unimported
    path = tmp_path / "evolve.json"
    path.write_text(json.dumps(evolve_config("pipeline_rwa", [0.0, 1.0, 2.0])), encoding="utf-8")
    code = ("import sys, ionjc.cli; "
            "code = ionjc.cli.main(['evolve', '--config', sys.argv[1], '--out', sys.argv[2]]); "
            "print(code, 'concurrent.futures' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "out.csv")],
                            env=env, capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["0", "False"]
