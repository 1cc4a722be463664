"""Named experiments: mode tables, resonance reports, Rabi sweeps, time evolution.

Each experiment returns a Table of plain Python values or float blocks;
writers emit CSV (header row, '#'-prefixed comments, full-precision decimals)
or the JSON equivalent, one block of rows at a time.  Re-running with the same
configuration byte-reproduces the output except for the timestamp comment.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
from typing import IO, Callable, Iterable

import numpy as np

from .config import ConfigError, ExperimentConfig
from .fock import guard_mask, guarded_infidelity, mode_occupations, spin_signs
from .hamiltonians import resonance_offsets
from .propagators import _plan, exact_propagator, sweep_point_models


class Table:
    """Columns, '#' comments and rows, held as blocks: lists of row tuples, or 2-D float arrays of all-float rows.

    A table takes its rows, or blocks: a callable that returns an iterable of
    blocks and is called anew for every pass over the rows.  An evolve table
    computes each block as it is reached, so a writer holds one block at a
    time.
    """

    def __init__(self, columns: list[str], rows: Iterable[tuple] | None = None, comments: Iterable[str] = (),
                 blocks: Callable[[], Iterable] | None = None):
        if rows is not None and blocks is not None:
            raise ValueError("a table takes rows or blocks, not both")
        self.columns, self.comments = list(columns), list(comments)
        rows = [] if rows is None else list(rows)
        self.blocks = blocks if blocks is not None else lambda: [rows]

    @property
    def rows(self) -> list[tuple]:
        """Every row as a tuple of Python values, from one new pass over the blocks.

        On a table of computed blocks each read runs the computation again (an
        evolve table its whole propagation), so read rows once and keep the list.
        """
        return [tuple(row) for block in self.blocks()
                for row in (block.tolist() if isinstance(block, np.ndarray) else block)]


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


def _csv_lines(block) -> str:
    """One block's CSV lines, each ending in a newline: a float array through repr, other rows through _fmt."""
    if isinstance(block, np.ndarray):
        return "".join([",".join(map(repr, row)) + "\n" for row in block.tolist()])
    return "".join([",".join(map(_fmt, row)) + "\n" for row in block])


def _json_rows(block) -> list[str]:
    """One block's rows as json.dump(indent=2) writes them two levels deep; NaN and infinities as json spells them."""
    if isinstance(block, np.ndarray) and np.isfinite(block).all():
        return ["    [\n      " + ",\n      ".join(map(repr, row)) + "\n    ]" for row in block.tolist()]
    rows = block.tolist() if isinstance(block, np.ndarray) else block
    return ["    " + json.dumps([None if v is None else (v.item() if isinstance(v, np.generic) else v) for v in row],
                                indent=2).replace("\n", "\n    ") for row in rows]


def write_table(table: Table, stream: IO[str], fmt: str = "csv") -> None:
    """Write a table as CSV or JSON, one block of rows at a time; the timestamp lands in a '#' comment.

    The JSON text is json.dump(doc, indent=2, sort_keys=True) of the whole
    table, byte for byte, with "rows" written last as the blocks arrive.
    """
    if fmt not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    now = _dt.datetime.now(_dt.timezone.utc).isoformat()
    if fmt == "csv":
        stream.write("".join(f"# {line}\n" for line in [f"generated: {now}"] + table.comments)
                     + ",".join(table.columns) + "\n")
        for block in table.blocks():
            stream.write(_csv_lines(block))
        return
    head = json.dumps({"columns": table.columns, "comments": table.comments, "generated": now},
                      indent=2, sort_keys=True)
    stream.write(head[:-2] + ',\n  "rows": [')
    sep = "\n"
    for block in table.blocks():
        rows = _json_rows(block)
        if rows:
            stream.write(sep + ",\n".join(rows))
            sep = ",\n"
    stream.write(("]" if sep == "\n" else "\n  ]") + "\n}\n")


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
    balanced_model, standard_model, required, t_pulse = sweep_point_models(model, drive_idx, mode, omega_r)
    reachable = required is not None
    delta = required if reachable else 0.0
    par = balanced_model.balanced()[drive_idx - 1]

    # each approximation is scored from its guarded columns against the dense oracle; their
    # unitarity rests on the plan's checked transform and cores that are unitary by construction.
    # The columns are not bound to a local, so the first block is gone before the second oracle is built
    keep, pair = guard_mask(model.config), [(drive_idx, mode)]
    infid_balanced = guarded_infidelity(_plan(balanced_model, "pipeline_rwa", pair).columns(keep, t_pulse),
                                        exact_propagator(balanced_model, t_pulse))
    # the conventional comparator sits on the uncorrected resonance delta = nu_k
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
    from concurrent.futures import ThreadPoolExecutor  # imported here: no other experiment starts threads

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=min(threads, len(grid), cpus)) as pool:
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
    """Population and overlap time series under the selected propagator, computed a block of times at a time.

    The plan (its eigh or its certified transform) is built here; the rows of
    each block of states Y come as the table is written: pop_e and nbar as one
    GEMM of their observable rows on |Y|^2, the overlap as |psi0^H Y|^2 over
    psi0's support.
    """
    if cfg.evolve is None:
        raise ConfigError("evolve experiment needs an evolve section")
    model = cfg.model
    config = model.config
    psi0 = initial_state(cfg)
    # excited-state indicator of each ion, then the occupation of each mode: one row per observable
    observables = np.concatenate([(spin_signs(config) > 0).astype(float), mode_occupations(config).astype(float)])
    columns = (
        ["t"]
        + [f"pop_e_ion{d.ion}" for d in model.drives]
        + [f"nbar_mode{p}" for p in range(1, config.n_modes + 1)]
        + ["overlap_initial"]
    )
    pairs = [cfg.evolve.resonant_pair] if cfg.evolve.resonant_pair else None
    plan = _plan(model, cfg.evolve.method, pairs)
    support = np.flatnonzero(psi0)
    bra = psi0[support].conj()

    def blocks():
        for ts, states in plan.apply(psi0, cfg.evolve.times):
            rows = np.empty((ts.size, len(columns)))
            rows[:, 0] = ts
            rows[:, -1] = np.abs(bra @ states[support]) ** 2
            squares = np.square(states.view(float), out=states.view(float))  # |Y|^2 as re^2 and im^2 side by side
            rows[:, 1:-1] = (observables @ squares).reshape(len(observables), ts.size, 2).sum(axis=2).T
            yield rows

    return Table(columns, comments=[f"method: {cfg.evolve.method}"], blocks=blocks)


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> Table:
    if cfg.experiment == "modes":
        return run_modes(cfg)
    if cfg.experiment == "resonance":
        return run_resonance(cfg)
    if cfg.experiment == "sweep-rabi":
        return run_sweep_rabi(cfg, threads=threads)
    return run_evolve(cfg)
