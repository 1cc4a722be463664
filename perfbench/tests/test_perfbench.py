"""Benchmark-local tests: run with ``python3 -m pytest perfbench/tests -q``."""

import dataclasses
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import gate
import spans
from workloads import DEFAULT_SEED, WORKLOADS, Workload, make_config


def tiny(name: str) -> Workload:
    # guard 0: the coherent start is never rejected at this small cutoff
    return dataclasses.replace(WORKLOADS[name], n_max=5, guard=0, points=6)


def run_cli(workload, cfg: dict, tmp_path) -> str:
    import ionjc.cli

    cfg_path, out = tmp_path / "config.json", tmp_path / "out.csv"
    cfg_path.write_text(json.dumps(cfg))
    code = ionjc.cli.main([workload.command, "--config", str(cfg_path), "--out", str(out),
                           "--threads", str(workload.threads)])
    assert code == 0
    return out.read_text()


def test_generator_is_seeded_and_keeps_the_problem_size():
    from ionjc.config import parse_config

    for workload in WORKLOADS.values():
        assert make_config(workload, 3) == make_config(workload, 3)
        assert make_config(workload, 3) != make_config(workload, 4)
        for seed in range(20):
            cfg = parse_config(make_config(workload, seed))
            assert cfg.model.config.dim == workload.dim
            drive = cfg.model.drives[0]
            assert abs(4 * drive.Omega_R**2 + drive.detuning**2 - 1.0) < 1e-12
            if cfg.sweep is not None:
                assert len(cfg.sweep.grid) == workload.points
                assert cfg.sweep.grid[0] < 0.5 < cfg.sweep.grid[-1]
            else:
                assert len(cfg.evolve.times) == workload.points


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_the_gate(name, tmp_path):
    workload = tiny(name)
    cfg = make_config(workload, 5)
    check = gate.Gate(workload, cfg, default_seed=False)
    check.check(run_cli(workload, cfg, tmp_path))


def perturb(text: str, row: int, col: int, delta: float) -> str:
    lines = text.splitlines()
    data = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][1:]
    cells = lines[data[row]].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[data[row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_perturbed_reference_row_is_rejected():
    workload = WORKLOADS["sweep-576"]
    reference = (gate.REFERENCE_DIR / f"{workload.name}.csv").read_text()
    columns, rows = gate.read_table(reference)
    gate.compare_reference(columns, rows, reference)
    columns, rows = gate.read_table(perturb(reference, 2, columns.index("infidelity_balanced_rwa"), 1e-6))
    with pytest.raises(gate.GateError, match="reference"):
        gate.compare_reference(columns, rows, reference)


def test_perturbed_evolve_output_is_rejected(tmp_path):
    workload = tiny("evolve-rwa-576")
    cfg = make_config(workload, DEFAULT_SEED)
    check = gate.Gate(workload, cfg, default_seed=False)
    text = run_cli(workload, cfg, tmp_path)
    check.check(text)
    with pytest.raises(gate.GateError, match="oracle"):
        check.check(perturb(text, workload.points - 1, 3, 1e-6))
    with pytest.raises(gate.GateError, match="overlap at t0"):
        check.check(perturb(text, 0, 5, -1e-6))


def test_perturbed_sweep_output_is_rejected(tmp_path):
    workload = tiny("sweep-576")
    cfg = make_config(workload, DEFAULT_SEED)
    check = gate.Gate(workload, cfg, default_seed=False)
    text = run_cli(workload, cfg, tmp_path)
    columns, _ = gate.read_table(text)
    with pytest.raises(gate.GateError, match="delta_eff"):
        check.check(perturb(text, 0, columns.index("delta_eff"), 1e-6))


def test_self_time_subtracts_the_union_of_children():
    # 1 [0, 10] has children 2 [1, 4] and 3 [3, 6] that overlap (two threads),
    # and 2 has child 4 [2, 3]; 5 [12, 13] is a second root
    recorded = [
        (1, None, "a", 0.0, 10.0),
        (2, 1, "b", 1.0, 4.0),
        (3, 1, "b", 3.0, 6.0),
        (4, 2, "c", 2.0, 3.0),
        (5, None, "a", 12.0, 13.0),
    ]
    assert spans.self_times(recorded) == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0}
    assert spans.covered([(1.0, 4.0), (3.0, 6.0), (8.0, 20.0)], 0.0, 10.0) == 7.0


def test_worker_spans_nest_under_the_submitting_span():
    rec = spans.SpanRecorder()

    def leaf():
        opened = rec.begin()
        rec.end("leaf", opened)
        return threading.get_ident()

    opened = rec.begin()
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(rec.adopt(leaf, rec.current())) for _ in range(4)]
        [f.result() for f in futures]
    rec.end("root", opened)
    root = next(s for s in rec.spans if s[2] == "root")
    assert [s[1] for s in rec.spans if s[2] == "leaf"] == [root[0]] * 4


def test_traced_tiny_sweep_reports_every_layer(tmp_path):
    import ionjc.cli
    import numpy as np

    workload = tiny("sweep-576")
    cfg = make_config(workload, DEFAULT_SEED)
    cfg_path, out = tmp_path / "config.json", tmp_path / "out.csv"
    cfg_path.write_text(json.dumps(cfg))
    original_eigh = np.linalg.eigh
    rec = spans.SpanRecorder()
    uninstall = spans.install(rec, workload.dim)
    try:
        start = time.perf_counter()
        ionjc.cli.main([workload.command, "--config", str(cfg_path), "--out", str(out), "--threads", "2"])
        stop = time.perf_counter()
    finally:
        uninstall()
    assert np.linalg.eigh is original_eigh
    doc = {**rec.to_doc(), "main_start": start, "main_stop": stop}
    metrics = spans.layer_metrics(doc, untraced_run_s=1.0, traced_run_s=1.5)
    assert list(metrics) == [f"{layer}.{m}" for layer, m, _ in spans.LAYER_METRICS]
    assert metrics["propagators.exact_propagator.calls"] == 2 * workload.points
    assert metrics["linalg.eigh.full_calls"] == 2 * workload.points
    assert metrics["propagators.evolve_states.first_s"] == 0.0
    assert metrics["trace.overhead_s"] == 0.5
    assert metrics["trace.coverage"] >= 0.95
    # spans recorded in the sweep's worker threads still descend from run_experiment
    by_id = {s[0]: s for s in rec.spans}
    for _sid, parent, name, _, _ in rec.spans:
        if name == "propagators.exact_propagator":
            while by_id[parent][2] != "experiments.run_experiment":
                parent = by_id[parent][1]
                assert parent is not None
