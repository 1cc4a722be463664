"""Experiment configuration: a single JSON object, parsed to dimensionless form.

Frequencies are dimensionless (units of the axial trap frequency) when
``units`` is "nu1"; with "si" the chain is given in SI (mass in amu, nu1 in
rad/s, wavevector in 1/m, times in seconds) and every quantity is converted at
parse time.  ``serialize_config`` writes the parsed configuration as a fully
defaulted dimensionless mapping; parsing that text and serializing it again is
the identity.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chain import ChainModel, LaserDrive
from .fock import DENSE_MATRIX_BYTES, HilbertConfig, basis_state, coherent_state, population_above_guard
from .hamiltonians import ModelSpec
from .propagators import METHODS, RWA_METHODS, phase_rate_bound, sweep_point_models
from .transforms import NoDriveError, balanced_params

HBAR_SI = 1.054571817e-34
AMU_SI = 1.66053906892e-27

EXPERIMENTS = ("modes", "resonance", "sweep-rabi", "evolve")
MAX_IONS = 10
MAX_GRID_POINTS = DENSE_MATRIX_BYTES // 1024  # 2**20 sweep or time points: 1 KiB of output row each
# largest rounding error eps W t, in rad, that a run's phases may carry: W bounds their rates, t the largest time
PHASE_ERROR_BOUND = 1e-6
# largest Lamb-Dicke prefactor g = k_L cos(phi_beam) / sqrt(2 mu nu1): sum_p eta_p^2 nu_p = g^2 for every drive, the
# rate bounds add at most g^2 / 2 per drive, and g^2 <= max / MAX_IONS keeps every bound formed from eta finite
_LAMB_DICKE_LIMIT = np.sqrt(sys.float_info.max / MAX_IONS)


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the JSON path."""


@dataclass(frozen=True, eq=False)
class SweepSpec:
    grid: np.ndarray  # Rabi frequencies, strictly increasing
    drive: int  # 1-based index into the drive list
    mode: int  # target mode for the corrected resonance


@dataclass(frozen=True, eq=False)
class EvolveSpec:
    """Time grid, method and start state; ``psi0`` is built, guard-checked and made read-only at parse time."""

    times: np.ndarray
    method: str
    resonant_pair: tuple[int, int] | None
    fock: tuple[int, ...] | None
    coherent: tuple[complex, ...] | None
    spins: tuple[str, ...]
    psi0: np.ndarray


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    experiment: str
    model: ModelSpec
    sweep: SweepSpec | None
    evolve: EvolveSpec | None
    out_path: str | None
    out_format: str


def _require(mapping, key, path, kind=None):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: required field is missing")
    return _typed(mapping[key], kind, f"{path}.{key}") if kind else mapping[key]


def _typed(value, kind, path):
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, +-Infinity (json reads 1e999 as inf), ints past float range
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if kind is str and not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    if kind is dict and not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    if kind is list and not isinstance(value, list):
        raise ConfigError(f"{path}: expected an array, got {value!r}")
    return value


def _grid_list(value, path) -> list:
    """An explicit grid array, bounded before any of its points is converted."""
    value = _typed(value, list, path)
    if len(value) > MAX_GRID_POINTS:
        raise ConfigError(f"{path}: at most {MAX_GRID_POINTS} points")
    return value


def _load(source) -> dict:
    if isinstance(source, dict):
        return source
    path = Path(source)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, nesting past the recursion limit
        raise ConfigError(f"{path}: cannot decode config file: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
    return raw


def _converted(value: float, path: str) -> float:
    """A value after unit conversion, rejected with its field's path where the conversion left the float range."""
    if not np.isfinite(value):
        raise ConfigError(f"{path}: converts to {float(value)!r} in units of nu1; it must stay finite")
    return value


def _check_phases(rate: float, t: float, path: str) -> None:
    """Reject, naming the field, a run whose phases W t round off by more than PHASE_ERROR_BOUND rad."""
    rate, t = float(rate), float(t)  # Python floats: a product past the float range reads inf without a warning
    error = sys.float_info.epsilon * rate * t
    if not error <= PHASE_ERROR_BOUND:  # NaN-safe
        raise ConfigError(f"{path}: the phases reach W t = {rate * t:.3e} rad (rate bound W = {rate:.3e}, "
                          f"time t = {t:.3e}); their rounding eps W t = {error:.1e} exceeds {PHASE_ERROR_BOUND:g}")


def _check_balanced(model: ModelSpec, swept: int | None = None) -> None:
    """Form the balanced parameters of every drive but the swept one, rejecting one that has none with its path.

    A drive has none at Omega_R = 0, at an Omega_R too small for its detuning,
    and where its corrected detuning hypot(2 Omega_R, delta) leaves the float
    range; each sweep point sets the swept drive's Omega_R and detuning.
    """
    eta = model.eta_matrix()
    for i, drive in enumerate(model.drives):
        if i + 1 == swept:
            continue
        if not math.isfinite(math.hypot(2.0 * drive.Omega_R, drive.detuning)):  # Python floats: no warning
            raise ConfigError(f"$.drives[{i}]: the corrected detuning hypot(2 Omega_R, delta) of Omega_R = "
                              f"{drive.Omega_R!r} and delta = {drive.detuning!r} leaves the float range")
        try:
            balanced_params(drive, eta[i])
        except NoDriveError as exc:
            raise ConfigError(f"$.drives[{i}]: {exc}") from exc


def parse_config(source) -> ExperimentConfig:
    """Parse and validate a config file path or already-loaded mapping."""
    raw = _load(source)
    experiment = _require(raw, "experiment", "$", str)
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"$.experiment: unknown experiment {experiment!r}; pick from {EXPERIMENTS}")
    units = _typed(raw.get("units", "nu1"), str, "$.units")
    if units not in ("nu1", "si"):
        raise ConfigError(f"$.units: must be 'nu1' or 'si', got {units!r}")

    chain_raw = _require(raw, "chain", "$", dict)
    n_ions = _require(chain_raw, "N", "$.chain", int)
    if not 1 <= n_ions <= MAX_IONS:
        raise ConfigError(f"$.chain.N: N exceeds supported range 1..{MAX_IONS}")

    if units == "si":
        mu_amu = _require(chain_raw, "mu", "$.chain", float)
        nu1_si = _require(chain_raw, "nu1", "$.chain", float)
        if mu_amu <= 0 or nu1_si <= 0:
            raise ConfigError("$.chain: mu and nu1 must be positive")
        freq_scale = nu1_si  # divide SI angular frequencies by this
        mass_freq = 2.0 * (mu_amu * AMU_SI) * nu1_si  # 2 mu nu1 in SI; 0 or inf where it leaves double range
        k_scale = float(np.sqrt(HBAR_SI / mass_freq)) if mass_freq > 0.0 else np.inf  # k_L -> dimensionless prefactor
        if not 0.0 < k_scale < np.inf:
            raise ConfigError(f"$.chain: mu = {mu_amu!r} amu and nu1 = {nu1_si!r} rad/s put the length scale "
                              f"sqrt(hbar / (2 mu nu1)) at {float(k_scale)!r} m; it must be finite and non-zero")
        mu, nu1 = 0.5, 1.0  # so sqrt(2 mu nu1) = 1 after conversion
    else:
        mu = _typed(chain_raw.get("mu", 0.5), float, "$.chain.mu")
        nu1 = _typed(chain_raw.get("nu1", 1.0), float, "$.chain.nu1")
        if mu <= 0 or nu1 <= 0:
            raise ConfigError("$.chain: mu and nu1 must be positive")
        freq_scale = 1.0
        k_scale = 1.0
    length = np.sqrt(2.0 * mu * nu1)  # g's divisor, 0 or inf where 2 mu nu1 leaves the float range: compare products

    hilbert = _typed(raw.get("hilbert", {}), dict, "$.hilbert")
    n_max = _typed(hilbert.get("n_max", 40 if n_ions == 1 else 12), int, "$.hilbert.n_max")
    guard = _typed(hilbert.get("guard", 10 if n_ions == 1 else 4), int, "$.hilbert.guard")

    omega_ge = _converted(_typed(raw.get("omega_ge", 0.0), float, "$.omega_ge") / freq_scale, "$.omega_ge")

    drives_raw = _require(raw, "drives", "$", list)
    if not drives_raw:
        raise ConfigError("$.drives: at least one drive is required")
    drives = []
    for i, d in enumerate(drives_raw):
        path = f"$.drives[{i}]"
        d = _typed(d, dict, path)
        ion = _require(d, "ion", path, int)
        omega_r = _converted(_require(d, "Omega_R", path, float) / freq_scale, f"{path}.Omega_R")
        if "delta" in d and "omega_L" in d:
            raise ConfigError(f"{path}: give either delta or omega_L, not both")
        if "delta" in d:
            delta = _converted(_typed(d["delta"], float, f"{path}.delta") / freq_scale, f"{path}.delta")
            omega_l = _converted(omega_ge - delta, f"{path}.delta")
        elif "omega_L" in d:
            omega_l = _converted(_typed(d["omega_L"], float, f"{path}.omega_L") / freq_scale, f"{path}.omega_L")
        else:
            raise ConfigError(f"{path}: needs delta or omega_L")
        k_l = _converted(_require(d, "k_L", path, float) * k_scale, f"{path}.k_L")
        phi = _typed(d.get("phi_beam", 0.0), float, f"{path}.phi_beam")
        phase = _typed(d.get("phase", 0.0), float, f"{path}.phase")
        try:
            drives.append(
                LaserDrive(ion=ion, Omega_R=omega_r, omega_L=omega_l, k_L=k_l,
                           phi_beam=phi, phase=phase, omega_ge=omega_ge)
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not abs(k_l * np.cos(phi)) <= _LAMB_DICKE_LIMIT * length:
            raise ConfigError(f"{path}.k_L: the Lamb-Dicke prefactor k_L cos(phi_beam) / sqrt(2 mu nu1) exceeds "
                              f"{_LAMB_DICKE_LIMIT:.3e}, past which the rate bounds formed from its square overflow")

    try:  # checks n_max, guard and the dense-matrix budget before the chain or any matrix is built
        hconf = HilbertConfig(n_modes=n_ions, n_max=n_max, n_spins=len(drives), guard=guard)
    except ValueError as exc:
        raise ConfigError(f"$.hilbert: {exc}") from exc

    try:
        chain = ChainModel.build(n_ions, mu=mu, nu1=nu1)
        model = ModelSpec(chain=chain, drives=tuple(drives), config=hconf, omega_ge=omega_ge)
    except ValueError as exc:
        raise ConfigError(f"$: {exc}") from exc

    if experiment == "resonance":
        _check_balanced(model)
    sweep = _parse_sweep(raw, model, freq_scale) if experiment == "sweep-rabi" else None
    evolve = _parse_evolve(raw, model, freq_scale) if experiment == "evolve" else None

    output = _typed(raw.get("output", {}), dict, "$.output")
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("$.output.path: expected a string")
    out_format = _typed(output.get("format", "csv"), str, "$.output.format")
    if out_format not in ("csv", "json"):
        raise ConfigError("$.output.format: must be 'csv' or 'json'")

    return ExperimentConfig(
        experiment=experiment, model=model, sweep=sweep, evolve=evolve, out_path=out_path, out_format=out_format,
    )


def _parse_sweep(raw, model, freq_scale) -> SweepSpec:
    s = _typed(raw.get("sweep", {}), dict, "$.sweep")
    drive = _typed(s.get("drive", 1), int, "$.sweep.drive")
    mode = _typed(s.get("mode", 1), int, "$.sweep.mode")
    if not 1 <= drive <= len(model.drives):
        raise ConfigError("$.sweep.drive: out of range")
    if not 1 <= mode <= model.chain.N:
        raise ConfigError("$.sweep.mode: out of range")
    if "grid" in s:
        grid = np.array([_typed(v, float, "$.sweep.grid[*]") for v in _grid_list(s["grid"], "$.sweep.grid")])
        grid = grid / freq_scale
    else:
        start = _typed(s.get("start", 1e-2), float, "$.sweep.start") / freq_scale
        stop = _typed(s.get("stop", 10.0), float, "$.sweep.stop") / freq_scale
        points = _typed(s.get("points", 25), int, "$.sweep.points")
        scale = _typed(s.get("scale", "log"), str, "$.sweep.scale")
        if not 2 <= points <= MAX_GRID_POINTS:
            raise ConfigError(f"$.sweep.points: need 2..{MAX_GRID_POINTS} grid points")
        if start <= 0 or stop <= start:
            raise ConfigError("$.sweep: need 0 < start < stop")
        if scale == "log":
            grid = np.logspace(np.log10(start), np.log10(stop), points)
        elif scale == "linear":
            grid = np.linspace(start, stop, points)
        else:
            raise ConfigError("$.sweep.scale: must be 'log' or 'linear'")
    if len(grid) < 2 or not np.all(np.diff(grid) > 0) or grid[0] <= 0:
        raise ConfigError("$.sweep.grid: must be positive and strictly increasing with >= 2 points")
    eta_k = model.eta_matrix()[drive - 1, mode - 1]
    if eta_k == 0.0:
        raise ConfigError("$.sweep: the swept drive does not couple to the target mode (eta = 0)")
    _check_balanced(model, swept=drive)
    pair = [(drive, mode)]
    for i, omega_r in enumerate(grid):  # both models run the exact oracle and their closed form to the pulse time
        try:
            balanced, standard, _, t_pulse = sweep_point_models(model, drive, mode, float(omega_r))
        except NoDriveError as exc:
            raise ConfigError(f"$.sweep.grid[{i}]: {exc}") from exc
        rate = max(phase_rate_bound(balanced, "exact"), phase_rate_bound(balanced, "pipeline_rwa", pair),
                   phase_rate_bound(standard, "exact"), phase_rate_bound(standard, "standard_rwa", pair))
        _check_phases(rate, t_pulse, f"$.sweep.grid[{i}]")
    return SweepSpec(grid=grid, drive=drive, mode=mode)


def _parse_evolve(raw, model, freq_scale) -> EvolveSpec:
    e = _require(raw, "evolve", "$", dict)
    if "times" in e:
        times = np.array([_typed(v, float, "$.evolve.times[*]") for v in _grid_list(e["times"], "$.evolve.times")])
        times = times * freq_scale
    else:
        t_stop = _require(e, "t_stop", "$.evolve", float) * freq_scale
        t_start = _typed(e.get("t_start", 0.0), float, "$.evolve.t_start") * freq_scale
        steps = _typed(e.get("steps", 200), int, "$.evolve.steps")
        if not 2 <= steps <= MAX_GRID_POINTS:
            raise ConfigError(f"$.evolve.steps: need 2..{MAX_GRID_POINTS} time points")
        if t_stop <= t_start:
            raise ConfigError("$.evolve: need t_stop > t_start")
        times = np.linspace(t_start, t_stop, steps)
    if len(times) < 2 or not np.all(np.diff(times) > 0):
        raise ConfigError("$.evolve.times: must be strictly increasing with >= 2 points")

    method = _typed(e.get("method", "exact"), str, "$.evolve.method")
    if method not in METHODS:
        raise ConfigError(f"$.evolve.method: unknown method {method!r}; pick from {METHODS}")
    pair = None
    if method in RWA_METHODS:
        ion = _require(e, "resonant_drive", "$.evolve", int)
        mode = _require(e, "resonant_mode", "$.evolve", int)
        if not 1 <= ion <= len(model.drives) or not 1 <= mode <= model.chain.N:
            raise ConfigError("$.evolve: resonant pair out of range")
        pair = (ion, mode)
    if method not in ("exact", "standard_rwa"):  # the methods in the balanced frame
        _check_balanced(model)
    # the run's t0 is 0, so its largest |t - t0| is its largest |t|, at one end of the increasing grid
    t_max, end = max((abs(float(times[-1])), "t_stop"), (abs(float(times[0])), "t_start"))
    _check_phases(phase_rate_bound(model, method, None if pair is None else [pair]), t_max,
                  "$.evolve.times" if "times" in e else f"$.evolve.{end}")

    st = _require(e, "initial_state", "$.evolve", dict)
    spins = tuple(_typed(s, str, "$.evolve.initial_state.spins[*]")
                  for s in _require(st, "spins", "$.evolve.initial_state", list))
    fock = coherent = None
    if ("fock" in st) == ("coherent" in st):
        raise ConfigError("$.evolve.initial_state: give exactly one of fock or coherent")
    if "fock" in st:
        fock = tuple(_typed(n, int, "$.evolve.initial_state.fock[*]")
                     for n in _typed(st["fock"], list, "$.evolve.initial_state.fock"))
    else:
        coherent = tuple(complex(_typed(a, float, "$.evolve.initial_state.coherent[*]"))
                         for a in _typed(st["coherent"], list, "$.evolve.initial_state.coherent"))
    try:  # fock owns the spin, Fock-range and amplitude rules
        psi0 = (basis_state(model.config, fock, spins) if fock is not None
                else coherent_state(model.config, coherent, spins))
    except ValueError as exc:
        raise ConfigError(f"$.evolve.initial_state: {exc}") from exc
    leak = population_above_guard(model.config, psi0)
    if leak > 1e-6:
        raise ConfigError(f"$.evolve.initial_state: {leak:.3e} population above the guard band; raise n_max")
    psi0.setflags(write=False)
    return EvolveSpec(times=times, method=method, resonant_pair=pair,
                      fock=fock, coherent=coherent, spins=spins, psi0=psi0)


def _normalize(cfg: ExperimentConfig) -> dict:
    model, sweep, evolve = cfg.model, cfg.sweep, cfg.evolve
    out = {
        "experiment": cfg.experiment,
        "units": "nu1",
        "chain": {"N": model.chain.N, "mu": model.chain.mu, "nu1": model.chain.nu1},
        "hilbert": {"n_max": model.config.n_max, "guard": model.config.guard},
        "omega_ge": model.omega_ge,
        "drives": [
            {"ion": d.ion, "Omega_R": d.Omega_R, "omega_L": d.omega_L, "k_L": d.k_L,
             "phi_beam": d.phi_beam, "phase": d.phase}
            for d in model.drives
        ],
        "output": {"path": cfg.out_path, "format": cfg.out_format},
    }
    if sweep is not None:
        out["sweep"] = {"drive": sweep.drive, "mode": sweep.mode, "grid": [float(v) for v in sweep.grid]}
    if evolve is not None:
        state = {"spins": list(evolve.spins)}
        if evolve.fock is not None:
            state["fock"] = list(evolve.fock)
        else:
            state["coherent"] = [float(a.real) for a in evolve.coherent]
        out["evolve"] = {
            "times": [float(t) for t in evolve.times],
            "method": evolve.method,
            "initial_state": state,
        }
        if evolve.resonant_pair is not None:
            out["evolve"]["resonant_drive"] = evolve.resonant_pair[0]
            out["evolve"]["resonant_mode"] = evolve.resonant_pair[1]
    return out


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON text of the normalized configuration."""
    return json.dumps(_normalize(cfg), indent=2, sort_keys=True) + "\n"
