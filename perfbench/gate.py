"""Correctness gate for one CLI output of a benchmark workload.

A run passes only if all of these hold:

1. at the default seed, every row matches the reference output of the seed
   commit (``reference/<workload>.csv``) to within 1e-9 absolute;
2. evolve rows at sampled times match the propagator oracle applied to psi0
   (``exact_propagator`` for method exact, ``pipeline_propagator(mode="rwa")``
   for pipeline_rwa), with row values recomputed here from the state;
3. invariants: populations in [0, 1], overlap 1 at t0, the time or Omega_R
   column equals the config grid, and delta_eff = nu_k on reachable sweep rows.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_ATOL = 1e-9
ORACLE_ATOL = 1e-9
INVARIANT_ATOL = 1e-9


class GateError(Exception):
    """The output failed a check; the message names the row and column."""


def read_table(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of the CLI's CSV, without '#' comment lines."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise GateError("output has no header row")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _cell(value: str):
    if value in ("true", "false"):
        return value == "true"
    return float(value)


def compare_reference(columns, rows, ref_text: str, atol: float = REFERENCE_ATOL) -> None:
    ref_columns, ref_rows = read_table(ref_text)
    if columns != ref_columns or len(rows) != len(ref_rows):
        raise GateError("output shape differs from the reference output")
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, got, want in zip(columns, row, ref):
            got, want = _cell(got), _cell(want)
            if isinstance(want, bool) or isinstance(got, bool):
                ok = got == want
            else:
                ok = abs(got - want) <= atol
            if not ok:
                raise GateError(f"row {i} {col}: {got!r} differs from reference {want!r}")


def state_row(psi: np.ndarray, psi0: np.ndarray, config) -> list[float]:
    """pop_e per ion, nbar per mode and overlap with psi0, from a state vector."""
    from ionjc.fock import mode_occupations, spin_signs

    weights = np.abs(psi) ** 2
    pops = [weights[excited].sum() for excited in spin_signs(config) > 0]
    nbars = [occ @ weights for occ in mode_occupations(config)]
    return [float(v) for v in pops + nbars] + [float(abs(np.vdot(psi0, psi)) ** 2)]


def oracle_rows(cfg_dict: dict, sample_idx: list[int]) -> dict[int, list[float]]:
    """Oracle row values (without t) at the sampled time indices of an evolve config."""
    from ionjc.config import parse_config
    from ionjc.experiments import initial_state
    from ionjc.propagators import exact_propagator, pipeline_propagator

    cfg = parse_config(cfg_dict)
    psi0 = initial_state(cfg)
    out = {}
    for i in sample_idx:
        t = float(cfg.evolve.times[i])
        if cfg.evolve.method == "exact":
            u = exact_propagator(cfg.model, t)
        else:
            u = pipeline_propagator(cfg.model, t, mode="rwa", resonant_pairs=[cfg.evolve.resonant_pair])
        out[i] = state_row(u.entries @ psi0, psi0, cfg.model.config)
    return out


def check_sweep(columns, rows, cfg_dict: dict) -> None:
    from ionjc.config import parse_config

    cfg = parse_config(cfg_dict)
    nu_k = float(cfg.model.chain.nu[cfg.sweep.mode - 1])
    grid = cfg.sweep.grid
    if len(rows) != len(grid):
        raise GateError(f"{len(rows)} sweep rows for {len(grid)} grid points")
    col = {name: k for k, name in enumerate(columns)}
    for i, row in enumerate(rows):
        v = {name: _cell(row[k]) for name, k in col.items()}
        reachable = 2.0 * grid[i] <= nu_k
        if v["Omega_R"] != grid[i] or v["reachable"] != reachable:
            raise GateError(f"row {i}: Omega_R or reachable flag does not match the grid")
        for name in ("infidelity_balanced_rwa", "infidelity_standard_rwa"):
            if not -INVARIANT_ATOL <= v[name] <= 1.0 + INVARIANT_ATOL:
                raise GateError(f"row {i} {name}: {v[name]!r} outside [0, 1]")
        if not (math.isfinite(v["t_pulse"]) and v["t_pulse"] > 0.0):
            raise GateError(f"row {i}: t_pulse {v['t_pulse']!r} is not a positive time")
        if reachable and abs(v["delta_eff"] - nu_k) > INVARIANT_ATOL:
            raise GateError(f"row {i}: delta_eff {v['delta_eff']!r} != nu_k {nu_k!r} on a reachable point")


def check_evolve(columns, rows, cfg_dict: dict, oracle: dict[int, list[float]]) -> None:
    from ionjc.config import parse_config

    cfg = parse_config(cfg_dict)
    times = cfg.evolve.times
    if len(rows) != len(times):
        raise GateError(f"{len(rows)} evolve rows for {len(times)} time points")
    pop_cols = [k for k, name in enumerate(columns) if name.startswith("pop_e_")]
    overlap_col = columns.index("overlap_initial")
    values = np.array([[float(x) for x in row] for row in rows])
    if np.abs(values[:, 0] - times).max() > INVARIANT_ATOL:
        raise GateError("time column does not match the config grid")
    for k in pop_cols + [overlap_col]:
        if values[:, k].min() < -INVARIANT_ATOL or values[:, k].max() > 1.0 + INVARIANT_ATOL:
            raise GateError(f"{columns[k]} leaves [0, 1]")
    if abs(values[0, overlap_col] - 1.0) > INVARIANT_ATOL:
        raise GateError(f"overlap at t0 is {values[0, overlap_col]!r}, not 1")
    for i, want in oracle.items():
        err = np.abs(values[i, 1:] - np.array(want)).max()
        if err > ORACLE_ATOL:
            raise GateError(f"row {i} differs from the propagator oracle by {err:.3e}")


class Gate:
    """Checks every output of one workload config; the oracle is computed once."""

    def __init__(self, workload, cfg_dict: dict, default_seed: bool):
        self.workload = workload
        self.cfg = cfg_dict
        self.reference = None
        if default_seed:
            self.reference = (REFERENCE_DIR / f"{workload.name}.csv").read_text(encoding="utf-8")
        self.oracle = {}
        if workload.command == "evolve":
            n = workload.points
            # the oracle costs one full-space eigh per sample; at dim 1600 sample only the end
            samples = [n - 1] if workload.dim > 1000 else [1, n // 2, n - 1]
            self.oracle = oracle_rows(cfg_dict, samples)

    def check(self, text: str) -> None:
        columns, rows = read_table(text)
        if self.reference is not None:
            compare_reference(columns, rows, self.reference)
        if self.workload.command == "evolve":
            check_evolve(columns, rows, self.cfg, self.oracle)
        else:
            check_sweep(columns, rows, self.cfg)
