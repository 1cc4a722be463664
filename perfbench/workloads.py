"""Seeded ionjc configs for the benchmark workloads.

The seed draws every physical parameter from a fixed range; the ranges are
chosen so that the size of the problem never depends on the seed:

* the Hilbert-space dimension and the grid size are constants;
* drive 1 always sits on the corrected resonance of pair (1, 1),
  sqrt(4 Omega_R^2 + delta^2) = nu_1 = 1, so the RWA methods stay meaningful;
* the coherent start of ``evolve-exact-1600`` keeps its population above the
  guard band below the 1e-6 that the CLI's guard-band check accepts;
* every sweep reaches past Omega_R = nu_1 / 2, so it always contains
  unreachable points as well as reachable ones.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    method: str | None  # evolve method
    threads: int  # value of --threads (only the sweep uses it)
    n_max: int
    guard: int
    points: int  # sweep rows or time points

    @property
    def dim(self) -> int:
        # 2 ions: two modes and two driven spins
        return self.n_max**2 * 2**2


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-576", "sweep-rabi", None, threads=2, n_max=12, guard=4, points=8),
        Workload("evolve-rwa-576", "evolve", "pipeline_rwa", threads=1, n_max=12, guard=4, points=300),
        Workload("evolve-exact-1600", "evolve", "exact", threads=1, n_max=20, guard=4, points=400),
    )
}


def _resonant_drive(rng: random.Random) -> dict:
    """Drive on ion 1 tuned to delta_eff = nu_1 = 1 (pair (1, 1) on resonance)."""
    omega_r = rng.uniform(0.15, 0.35)
    return {"ion": 1, "Omega_R": omega_r, "delta": math.sqrt(1.0 - 4.0 * omega_r**2),
            "k_L": rng.uniform(0.05, 0.12)}


def _spectator_drive(rng: random.Random) -> dict:
    """Off-resonant drive on ion 2."""
    return {"ion": 2, "Omega_R": rng.uniform(0.1, 0.3), "delta": rng.uniform(1.2, 1.6),
            "k_L": rng.uniform(0.03, 0.08)}


def make_config(workload: Workload, seed: int) -> dict:
    """The ionjc JSON config of one workload; the same seed gives the same config."""
    rng = random.Random(f"{workload.name}:{seed}")
    drives = [_resonant_drive(rng), _spectator_drive(rng)]
    cfg = {
        "experiment": workload.command,
        "chain": {"N": 2},
        "hilbert": {"n_max": workload.n_max, "guard": workload.guard},
        "drives": drives,
        "output": {"format": "csv"},
    }
    if workload.command == "sweep-rabi":
        # log grid from ~0.01 to past 1: its top points have 2 Omega_R > nu_1
        cfg["sweep"] = {"points": workload.points, "start": rng.uniform(0.008, 0.015),
                        "stop": rng.uniform(1.0, 1.5), "scale": "log", "drive": 1, "mode": 1}
    elif workload.method == "pipeline_rwa":
        cfg["evolve"] = {"t_start": 0.0, "t_stop": 200.0, "steps": workload.points,
                         "method": "pipeline_rwa", "resonant_drive": 1, "resonant_mode": 1,
                         "initial_state": {"fock": [1, 0], "spins": ["g", "g"]}}
    else:
        # |alpha|^2 <= 2.25: the Poisson tail above level n_max - guard = 16 stays < 1e-7
        cfg["evolve"] = {"t_start": 0.0, "t_stop": 200.0, "steps": workload.points,
                         "method": "exact",
                         "initial_state": {"coherent": [rng.uniform(0.8, 1.5), rng.uniform(0.3, 1.0)],
                                           "spins": ["g", "g"]}}
    return cfg
