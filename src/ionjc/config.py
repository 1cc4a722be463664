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
from .propagators import BALANCED_METHODS, METHODS, RWA_METHODS, phase_rate_bound, sweep_point_models
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


def _field(mapping, key, path, kind, default=None):
    """mapping[key], or default where the key is absent (no default: required), checked as kind at path.key.

    kind is a json type, or a unit conversion: a function from a number to its value in units of nu1, checked finite.
    """
    path = f"{path}.{key}"
    if key not in mapping and default is None:
        raise ConfigError(f"{path}: required field is missing")
    value = mapping.get(key, default)
    if isinstance(kind, type):
        return _typed(value, kind, path)
    return _converted(kind(_typed(value, float, path)), path)


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
    if not isinstance(value, kind):  # str, dict or list
        name = {str: "a string", dict: "an object", list: "an array"}[kind]
        raise ConfigError(f"{path}: expected {name}, got {value!r}")
    return value


def _grid_list(mapping, key, path, convert) -> np.ndarray:
    """An explicit grid array, bounded before any of its points is typed, then converted to units of nu1 at once."""
    values = _field(mapping, key, path, list)
    path = f"{path}.{key}"
    if len(values) > MAX_GRID_POINTS:
        raise ConfigError(f"{path}: at most {MAX_GRID_POINTS} points")
    point = f"{path}[*]"
    with np.errstate(over="ignore"):  # a point converted past the float range is named below
        grid = convert(np.array([_typed(v, float, point) for v in values]))
    for i in np.flatnonzero(~np.isfinite(grid))[:1]:
        _converted(grid[i], f"{path}[{i}]")
    return grid


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
    if not math.isfinite(value):
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
    """Name the first drive but the swept one (each sweep point sets its own) that balanced_params rejects."""
    eta = model.eta_matrix()
    for i, drive in enumerate(model.drives):
        if i + 1 == swept:
            continue
        try:
            balanced_params(drive, eta[i])
        except NoDriveError as exc:
            raise ConfigError(f"$.drives[{i}]: {exc}") from exc


def parse_config(source) -> ExperimentConfig:
    """Parse and validate a config file path or already-loaded mapping."""
    raw = _load(source)
    experiment = _field(raw, "experiment", "$", str)
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"$.experiment: unknown experiment {experiment!r}; pick from {EXPERIMENTS}")
    units = _field(raw, "units", "$", str, "nu1")
    if units not in ("nu1", "si"):
        raise ConfigError(f"$.units: must be 'nu1' or 'si', got {units!r}")

    chain_raw = _field(raw, "chain", "$", dict)
    n_ions = _field(chain_raw, "N", "$.chain", int)
    if not 1 <= n_ions <= MAX_IONS:
        raise ConfigError(f"$.chain.N: N exceeds supported range 1..{MAX_IONS}")
    si = units == "si"  # mu and nu1 are required in SI, and every unit-bearing field is converted as it is read
    mu = _field(chain_raw, "mu", "$.chain", float, None if si else 0.5)
    nu1 = _field(chain_raw, "nu1", "$.chain", float, None if si else 1.0)
    if mu <= 0 or nu1 <= 0:
        raise ConfigError("$.chain: mu and nu1 must be positive")
    freq_scale = k_scale = 1.0  # SI angular frequencies are divided by freq_scale, k_L multiplied by k_scale
    if si:
        mass_freq = 2.0 * (mu * AMU_SI) * nu1  # 2 mu nu1 in SI; 0 or inf where it leaves double range
        k_scale = float(np.sqrt(HBAR_SI / mass_freq)) if mass_freq > 0.0 else np.inf  # k_L -> dimensionless prefactor
        if not 0.0 < k_scale < np.inf:
            raise ConfigError(f"$.chain: mu = {mu!r} amu and nu1 = {nu1!r} rad/s put the length scale "
                              f"sqrt(hbar / (2 mu nu1)) at {float(k_scale)!r} m; it must be finite and non-zero")
        freq_scale, mu, nu1 = nu1, 0.5, 1.0  # so sqrt(2 mu nu1) = 1 after conversion
    frequency, time, wavevector = (lambda v: v / freq_scale), (lambda v: v * freq_scale), (lambda v: v * k_scale)
    length = np.sqrt(2.0 * mu * nu1)  # g's divisor, 0 or inf where 2 mu nu1 leaves the float range: compare products

    hilbert = _field(raw, "hilbert", "$", dict, {})
    n_max = _field(hilbert, "n_max", "$.hilbert", int, 40 if n_ions == 1 else 12)
    guard = _field(hilbert, "guard", "$.hilbert", int, 10 if n_ions == 1 else 4)

    omega_ge = _field(raw, "omega_ge", "$", frequency, 0.0)

    drives_raw = _field(raw, "drives", "$", list)
    if not drives_raw:
        raise ConfigError("$.drives: at least one drive is required")
    drives = []
    for i, d in enumerate(drives_raw):
        path = f"$.drives[{i}]"
        d = _typed(d, dict, path)
        ion = _field(d, "ion", path, int)
        omega_r = _field(d, "Omega_R", path, frequency)
        if "delta" in d and "omega_L" in d:
            raise ConfigError(f"{path}: give either delta or omega_L, not both")
        if "delta" in d:
            omega_l = _converted(omega_ge - _field(d, "delta", path, frequency), f"{path}.delta")
        elif "omega_L" in d:
            omega_l = _field(d, "omega_L", path, frequency)
        else:
            raise ConfigError(f"{path}: needs delta or omega_L")
        k_l = _field(d, "k_L", path, wavevector)
        phi = _field(d, "phi_beam", path, float, 0.0)
        phase = _field(d, "phase", path, float, 0.0)
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
    sweep = _parse_sweep(raw, model, frequency) if experiment == "sweep-rabi" else None
    evolve = _parse_evolve(raw, model, time) if experiment == "evolve" else None

    output = _field(raw, "output", "$", dict, {})
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("$.output.path: expected a string")
    out_format = _field(output, "format", "$.output", str, "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError("$.output.format: must be 'csv' or 'json'")

    return ExperimentConfig(
        experiment=experiment, model=model, sweep=sweep, evolve=evolve, out_path=out_path, out_format=out_format,
    )


def _parse_sweep(raw, model, frequency) -> SweepSpec:
    s = _field(raw, "sweep", "$", dict, {})
    drive = _field(s, "drive", "$.sweep", int, 1)
    mode = _field(s, "mode", "$.sweep", int, 1)
    if not 1 <= drive <= len(model.drives):
        raise ConfigError("$.sweep.drive: out of range")
    if not 1 <= mode <= model.chain.N:
        raise ConfigError("$.sweep.mode: out of range")
    if "grid" in s:
        grid = _grid_list(s, "grid", "$.sweep", frequency)
    else:
        start = _field(s, "start", "$.sweep", frequency, 1e-2)
        stop = _field(s, "stop", "$.sweep", frequency, 10.0)
        points = _field(s, "points", "$.sweep", int, 25)
        scale = _field(s, "scale", "$.sweep", str, "log")
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
    if len(grid) < 2 or not np.all(grid[1:] > grid[:-1]) or grid[0] <= 0:  # compared, not differenced
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


def _parse_evolve(raw, model, time) -> EvolveSpec:
    e = _field(raw, "evolve", "$", dict)
    if "times" in e:
        times = _grid_list(e, "times", "$.evolve", time)
    else:
        t_stop = _field(e, "t_stop", "$.evolve", time)
        t_start = _field(e, "t_start", "$.evolve", time, 0.0)
        steps = _field(e, "steps", "$.evolve", int, 200)
        if not 2 <= steps <= MAX_GRID_POINTS:
            raise ConfigError(f"$.evolve.steps: need 2..{MAX_GRID_POINTS} time points")
        if t_stop <= t_start:
            raise ConfigError("$.evolve: need t_stop > t_start")
        if not math.isfinite(t_stop - t_start):  # Python floats: checked before linspace forms the span
            raise ConfigError("$.evolve: the span t_stop - t_start leaves the float range")
        times = np.linspace(t_start, t_stop, steps)
    if len(times) < 2 or not np.all(times[1:] > times[:-1]):  # compared, not differenced: no overflow
        raise ConfigError("$.evolve.times: must be strictly increasing with >= 2 points")

    method = _field(e, "method", "$.evolve", str, "exact")
    if method not in METHODS:
        raise ConfigError(f"$.evolve.method: unknown method {method!r}; pick from {METHODS}")
    pair = None
    if method in RWA_METHODS:
        ion = _field(e, "resonant_drive", "$.evolve", int)
        mode = _field(e, "resonant_mode", "$.evolve", int)
        if not 1 <= ion <= len(model.drives) or not 1 <= mode <= model.chain.N:
            raise ConfigError("$.evolve: resonant pair out of range")
        pair = (ion, mode)
    if method in BALANCED_METHODS:
        _check_balanced(model)
    rate = phase_rate_bound(model, method, None if pair is None else [pair])
    # t0 is 0, so the largest |t - t0| is at one end of the increasing grid; a W past the float range names the drives
    t_max, end = max((abs(float(times[-1])), "t_stop"), (abs(float(times[0])), "t_start"))
    field = "$.evolve.times" if "times" in e else f"$.evolve.{end}"
    _check_phases(rate, t_max, field if math.isfinite(rate) else "$.drives")

    st = _field(e, "initial_state", "$.evolve", dict)
    spins = tuple(_typed(s, str, "$.evolve.initial_state.spins[*]")
                  for s in _field(st, "spins", "$.evolve.initial_state", list))
    fock = coherent = None
    if ("fock" in st) == ("coherent" in st):
        raise ConfigError("$.evolve.initial_state: give exactly one of fock or coherent")
    if "fock" in st:
        fock = tuple(_typed(n, int, "$.evolve.initial_state.fock[*]")
                     for n in _field(st, "fock", "$.evolve.initial_state", list))
    else:
        coherent = tuple(complex(_typed(a, float, "$.evolve.initial_state.coherent[*]"))
                         for a in _field(st, "coherent", "$.evolve.initial_state", list))
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
