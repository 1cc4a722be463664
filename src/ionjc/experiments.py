"""Named experiments: mode tables, resonance reports, Rabi sweeps, time evolution.

Each experiment returns a Table whose rows are plain Python values; writers
emit CSV (header row, '#'-prefixed comments, full-precision decimals) or the
JSON equivalent.  Re-running with the same configuration byte-reproduces the
output except for the timestamp comment.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .config import ConfigError, ExperimentConfig
from .fock import guard_mask, guarded_infidelity, mode_occupations, spin_signs
from .hamiltonians import resonance_offsets
from .propagators import _plan, evolve_states, exact_propagator, jc_coupling
from .transforms import corrected_detuning


@dataclass
class Table:
    columns: list[str]
    rows: list[tuple]
    comments: list[str] = field(default_factory=list)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_table(table: Table, stream: IO[str], fmt: str = "csv") -> None:
    """Write a table as CSV or JSON; the timestamp lands in a '#' comment."""
    now = _dt.datetime.now(_dt.timezone.utc).isoformat()
    if fmt == "csv":
        stream.write(f"# generated: {now}\n")
        for comment in table.comments:
            stream.write(f"# {comment}\n")
        stream.write(",".join(table.columns) + "\n")
        for row in table.rows:
            stream.write(",".join(_fmt(v) for v in row) + "\n")
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


def run_modes(cfg: ExperimentConfig) -> Table:
    """Normal-mode table: frequency, mode-matrix column and Lamb-Dicke rows."""
    chain = cfg.model.chain
    eta = cfg.model.eta_matrix()
    columns = ["mode", "nu_over_nu1"]
    columns += [f"M_ion{j}" for j in range(1, chain.N + 1)]
    columns += [f"eta_ion{d.ion}" for d in cfg.model.drives]
    rows = []
    for p in range(chain.N):
        row = [p + 1, float(chain.nu[p])]
        row += [float(chain.M[j, p]) for j in range(chain.N)]
        row += [float(eta[i, p]) for i in range(len(cfg.model.drives))]
        rows.append(tuple(row))
    return Table(columns, rows, comments=[f"normal modes of a {chain.N}-ion chain"])


def run_resonance(cfg: ExperimentConfig) -> Table:
    """Sideband offsets, nearest resonance and the detuning that closes each gap."""
    report = resonance_offsets(cfg.model)
    columns = ["ion", "mode", "nu_over_nu1", "omega_minus", "omega_plus", "required_abs_delta", "nearest"]
    rows = []
    for r in report.rows:
        nearest = r.ion == report.nearest_ion and r.mode == report.nearest_mode
        required = "unreachable" if r.required_abs_delta is None else r.required_abs_delta
        rows.append((r.ion, r.mode, r.nu, r.omega_minus, r.omega_plus, required, nearest))
    return Table(columns, rows, comments=["corrected resonance condition: nu_p = delta_eff"])


def _sweep_point(cfg: ExperimentConfig, omega_r: float) -> tuple:
    model = cfg.model
    drive_idx, mode = cfg.sweep.drive, cfg.sweep.mode
    nu_k = float(model.chain.nu[mode - 1])
    omega_ge = model.omega_ge

    # corrected resonance: delta_eff = nu_k, else the closest achievable (delta = 0)
    required = corrected_detuning(nu_k, omega_r)
    reachable = required is not None
    delta = required if reachable else 0.0
    balanced_model = model.with_drive(drive_idx, Omega_R=omega_r, omega_L=omega_ge - delta)
    par = balanced_model.balanced()[drive_idx - 1]
    g = jc_coupling(balanced_model, drive_idx, mode)
    t_pulse = np.pi / (2.0 * abs(g))

    # each approximation is scored from its guarded columns against the dense oracle; their
    # unitarity rests on the plan's checked transform and cores that are unitary by construction.
    # The columns are not bound to a local, so the first block is gone before the second oracle is built
    keep, pair = guard_mask(model.config), [(drive_idx, mode)]
    infid_balanced = guarded_infidelity(_plan(balanced_model, "pipeline_rwa", pair).columns(keep, t_pulse),
                                        exact_propagator(balanced_model, t_pulse))

    # conventional comparator sits on the uncorrected resonance delta = nu_k
    standard_model = model.with_drive(drive_idx, Omega_R=omega_r, omega_L=omega_ge - nu_k)
    infid_standard = guarded_infidelity(_plan(standard_model, "standard_rwa", pair).columns(keep, t_pulse),
                                        exact_propagator(standard_model, t_pulse))

    return (
        omega_r,
        delta,
        par.delta_eff,
        float(par.eta_eff[mode - 1]),
        float(t_pulse),
        infid_balanced,
        infid_standard,
        float(nu_k - par.delta_eff),
        reachable,
    )


def run_sweep_rabi(cfg: ExperimentConfig, threads: int = 1) -> Table:
    """Rabi-frequency sweep comparing balanced and conventional RWA to the oracle.

    At each grid point the drive detuning is re-solved to sit on the corrected
    resonance (or its closest achievable point, flagged unreachable), and both
    approximations are scored against the exact propagator at the balanced
    pi-pulse time.
    """
    if cfg.sweep is None:
        raise ConfigError("sweep-rabi experiment needs a sweep section")
    grid = [float(v) for v in cfg.sweep.grid]
    with ThreadPoolExecutor(max_workers=min(threads, len(grid), os.cpu_count() or 1)) as pool:
        rows = list(pool.map(lambda om: _sweep_point(cfg, om), grid))
    columns = [
        "Omega_R", "delta", "delta_eff", "eta_eff", "t_pulse",
        "infidelity_balanced_rwa", "infidelity_standard_rwa", "omega_minus", "reachable",
    ]
    comments = [
        f"pi-pulse comparison on mode {cfg.sweep.mode} of drive {cfg.sweep.drive}",
        "standard comparator stays on delta = nu_k; balanced row re-solves delta",
    ]
    return Table(columns, rows, comments=comments)


def initial_state(cfg: ExperimentConfig) -> np.ndarray:
    """Read-only start state of the evolve experiment, built and checked by ``parse_config``."""
    return cfg.evolve.psi0


def run_evolve(cfg: ExperimentConfig) -> Table:
    """Population and overlap time series under the selected propagator."""
    if cfg.evolve is None:
        raise ConfigError("evolve experiment needs an evolve section")
    model = cfg.model
    config = model.config
    psi0 = initial_state(cfg)
    occ = mode_occupations(config).astype(float)
    excited = (spin_signs(config) > 0).astype(float)
    columns = (
        ["t"]
        + [f"pop_e_ion{d.ion}" for d in model.drives]
        + [f"nbar_mode{p}" for p in range(1, config.n_modes + 1)]
        + ["overlap_initial"]
    )
    pairs = [cfg.evolve.resonant_pair] if cfg.evolve.resonant_pair else None
    rows = []
    for t, psi in evolve_states(model, psi0, cfg.evolve.times, method=cfg.evolve.method,
                                resonant_pairs=pairs):
        weights = np.abs(psi) ** 2
        row = [float(t)] + (excited @ weights).tolist() + (occ @ weights).tolist()
        row.append(float(abs(np.vdot(psi0, psi)) ** 2))
        rows.append(tuple(row))
    return Table(columns, rows, comments=[f"method: {cfg.evolve.method}"])


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> Table:
    if cfg.experiment == "modes":
        return run_modes(cfg)
    if cfg.experiment == "resonance":
        return run_resonance(cfg)
    if cfg.experiment == "sweep-rabi":
        return run_sweep_rabi(cfg, threads=threads)
    return run_evolve(cfg)
