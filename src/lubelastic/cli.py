"""Experiment runner: configuration, presets, batch ladders, artifact output.

Configurations are strict JSON documents with a ``version`` field.  Each
mode's keys, types and defaults are the fields of its dataclass in
MODE_CONFIGS, an INLINE field's class adding its own; `decode` rejects
unknown or missing keys and mistyped values, since a silently ignored typo
in an exponent would invalidate a rate study.
Every artifact is written atomically (temp file plus rename, see `artifacts`),
with a manifest of the files and a hash of the canonical configuration, so
reruns are identical.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical
breakdown (a diagnostic JSON is written in that case).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from fractions import Fraction
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import thinfilm, verify
from .artifacts import write_atomic, write_csv, write_grid
from .errors import (AssemblyError, DegenerateFitError, InvariantError, ParameterError,
                     PositivityError, UsageError, check_range)
from .fsi import (FsiParams, check_invariants, factored_operators, harmonic_ramp_forcing,
                  run_fsi, stepped_modes)
from .scaling import ModelParams, NonlinearScalingPreset
from .spectral import PeriodicGrid, VerticalNodes

CONFIG_VERSION = 1
INLINE = {"inline": True}  # field metadata: the field's dataclass keys sit in the same object

# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------

_THINFILM_BASE = {
    "n": 64,
    "steps": 1000,
    "snapshot_stride": 100,
    "eta0": {"kind": "one-plus-sin", "amplitude": 0.3, "wavenumber": 1},
    "v_D": 1.0,
    "drift_prefactor": 6.0,
    "mobility_scale": 1.0,
    "linearized": False,
    "potential": None,
    "c": 1.0,
}

_LADDER_BASE = {
    "eps_list": [0.125, 0.0625, 0.03125, 0.015625], "n": 16, "m": 20, "dt": 5e-5,
    "t_end": 0.5, "snapshot_stride": 200, "amplitude": 1.0, "ramp_time": 0.1,
    "dim": 1, "rho_f": 40.0, "rho_s": 40.0, "B": 1.0, "nu": 1.0, "theta": 20.0,
}

PRESETS: dict[str, dict] = {
    "pm-paper": {
        "mode": "thinfilm",
        "summary": "porous-medium balance: d/dt eta = d2/dx2(eta^4) - 6 d/dx(eta v_D)",
        "config": {**_THINFILM_BASE, "alpha": 1, "mobility_scale": 4.0, "dt": 1e-5},
    },
    "tf-surface-tension": {
        "mode": "thinfilm",
        "summary": "surface-tension balance: fourth-order film equation",
        "config": {**_THINFILM_BASE, "alpha": 3, "dt": 1e-6},
    },
    "stf-bending": {
        "mode": "thinfilm",
        "summary": "bending balance under an elastic plate: sixth-order film equation",
        "config": {**_THINFILM_BASE, "alpha": 5, "dt": 1e-7},
    },
    "nonlinear-3.3": {
        "mode": "thinfilm",
        "summary": "sixth-order film run documented against the thin-film scaling "
                   "targets (energy ~ t*eps^3, sup displacement ~ eps)",
        "config": {**_THINFILM_BASE, "alpha": 5, "dt": 1e-7,
                   "nonlinear_scaling": {"eps": 0.1, "B_hat": 1.0, "D_hat": 1.0,
                                          "rho_s_hat": 1.0}},
    },
    "theorem-e0-kappa1": {
        "mode": "rates",
        "summary": "thickness ladder at rigidity exponent kappa = 1",
        "config": {**_LADDER_BASE, "kappa": "1"},
    },
    "theorem-e0-kappa2": {
        "mode": "rates",
        "summary": "thickness ladder at rigidity exponent kappa = 2 "
                   "(rate targets 3, 1, 2.5)",
        "config": {**_LADDER_BASE, "kappa": "2"},
    },
    "theorem-e0-kappa52": {
        "mode": "rates",
        "summary": "thickness ladder at the boundary exponent kappa = 5/2, "
                   "eps = 2^-5 ... 2^-9: coarser thicknesses are pre-asymptotic "
                   "for the velocity and pressure rates",
        "config": {**_LADDER_BASE, "kappa": "5/2",
                   "eps_list": [0.03125, 0.015625, 0.0078125, 0.00390625, 0.001953125]},
    },
    "fsi-single-mode": {
        "mode": "fsi",
        "summary": "one coupled channel/plate run under single-harmonic forcing",
        "config": {"kappa": "2", "eps": 0.125, "n": 16, "m": 20, "dt": 1e-3,
                   "t_end": 0.1, "snapshot_stride": 10, "dim": 1,
                   "rho_f": 1.0, "rho_s": 1.0, "B": 1.0, "nu": 1.0, "theta": 1.0,
                   "forcing": {"kind": "harmonic-ramp", "amplitude": 1.0,
                                "wavevector": [1], "component": 0,
                                "ramp_time": 0.1}},
    },
    "reynolds-slider": {
        "mode": "reynolds",
        "summary": "stationary pressure under a sinusoidal profile sliding at v_D",
        "config": {"n": 256, "v_D": 1.0, "nu": 1.0,
                   "eta0": {"kind": "one-plus-sin", "amplitude": 0.5, "wavenumber": 1}},
    },
}

_COMMON_KEYS = {"version", "mode", "preset", "output_dir"}


def list_presets() -> dict[str, dict]:
    """Stable catalog of documented preset ids."""
    return {name: {"mode": spec["mode"], "summary": spec["summary"]}
            for name, spec in sorted(PRESETS.items())}


def preset_config(name: str) -> dict:
    if not isinstance(name, str) or name not in PRESETS:
        raise UsageError(f"unknown preset id {name!r}; known: {sorted(PRESETS)}")
    spec = PRESETS[name]
    doc = {"version": CONFIG_VERSION, "mode": spec["mode"], "preset": name}
    doc.update(json.loads(json.dumps(spec["config"])))  # deep copy
    return doc


# ----------------------------------------------------------------------
# typed configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WaveProfile:
    """Initial height 1 + a sin(2 pi k x) (one-plus-sin) or a cos(2 pi k x)."""

    kind: Literal["one-plus-sin", "cosine"]
    amplitude: float
    wavenumber: int = 1

    def sample(self, grid: PeriodicGrid) -> np.ndarray:
        if abs(self.wavenumber) >= grid.n // 2:  # the same rule as a forcing wavevector
            raise ParameterError(f"wavenumber {self.wavenumber} is not resolved on "
                                 f"n = {grid.n}: |k| must be below {grid.n // 2}")
        arg = 2.0 * np.pi * self.wavenumber * grid.meshes[0]
        if self.kind == "cosine":
            return self.amplitude * np.cos(arg)
        return 1.0 + self.amplitude * np.sin(arg)


@dataclass(frozen=True)
class ConstantProfile:
    kind: Literal["constant"]
    value: float

    def sample(self, grid: PeriodicGrid) -> np.ndarray:
        return np.full(grid.shape, self.value)


@dataclass(frozen=True)
class HarmonicRampForcing:
    """Arguments of `fsi.harmonic_ramp_forcing` (wavevector default: all ones)."""

    kind: Literal["harmonic-ramp"]
    amplitude: float = 1.0
    wavevector: tuple[int, ...] | None = None
    component: int = 0
    ramp_time: float = 0.1


@dataclass(frozen=True)
class ThinFilmRun:
    """Keys of a ``thinfilm`` document: film model, initial height, mesh and steps."""

    model: thinfilm.ThinFilmModel = field(metadata=INLINE)
    n: int
    dt: float
    steps: int
    eta0: WaveProfile | ConstantProfile
    snapshot_stride: int | None = None  # None: max(1, steps // 10)
    nonlinear_scaling: NonlinearScalingPreset | None = None

    def __post_init__(self):
        check_range(1, closed=True, steps=self.steps)
        if self.snapshot_stride is None:
            object.__setattr__(self, "snapshot_stride", max(1, self.steps // 10))
        check_range(1, closed=True, snapshot_stride=self.snapshot_stride)


@dataclass(frozen=True)
class FsiRun:
    """Keys of an ``fsi`` document: model parameters, mesh, step and forcing."""

    model: ModelParams = field(metadata=INLINE)
    n: int
    m: int
    dt: float
    t_end: float
    snapshot_stride: int = 1
    forcing: HarmonicRampForcing | None = None


@dataclass(frozen=True)
class ReynoldsRun:
    """Keys of a ``reynolds`` document."""

    n: int
    eta0: WaveProfile | ConstantProfile
    v_D: float = 1.0
    nu: float = 1.0


MODE_CONFIGS = {"thinfilm": ThinFilmRun, "fsi": FsiRun, "reynolds": ReynoldsRun,
                "rates": verify.RateStudyConfig}

_SCALARS = {  # JSON values accepted for each scalar annotation
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, "a finite number"),
}


def _keys(cls) -> dict:
    """Document key -> (annotation, required) for the init fields of `cls`,
    where an INLINE field contributes its own dataclass's keys in its place."""
    hints = get_type_hints(cls)
    keys = {}
    for f in fields(cls):
        if f.metadata.get("inline"):
            keys.update(_keys(hints[f.name]))
        elif f.init:
            keys[f.name] = (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
    return keys


def _build(cls, values: dict):
    """`cls` from decoded values keyed as in `_keys`."""
    hints = get_type_hints(cls)
    return cls(**{f.name: _build(hints[f.name], values) if f.metadata.get("inline")
                  else values[f.name] for f in fields(cls)
                  if f.metadata.get("inline") or f.name in values})


def decode(cls, doc, prefix: str = ""):
    """Build the dataclass `cls` from a JSON object whose keys are its init
    fields (an INLINE field's dataclass takes its keys from the same object),
    each value checked against the field's annotation (see _SCALARS;
    Fraction, tuple[T, ...], Literal, X | None, nested dataclasses, and
    unions of dataclasses told apart by their ``kind``).  Unknown or missing
    keys and wrong types raise UsageError; range checks are left to `cls`."""
    if not isinstance(doc, dict):
        raise UsageError(f"{prefix.rstrip('.') or cls.__name__} must be a JSON object, got {doc!r}")
    keys = _keys(cls)
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise UsageError(f"unknown configuration keys: {[prefix + k for k in unknown]}")
    missing = [prefix + k for k, (_, required) in keys.items() if required and k not in doc]
    if missing:
        raise UsageError(f"missing configuration keys: {missing}")
    return _build(cls, {k: _decode_value(keys[k][0], v, prefix + k) for k, v in doc.items()})


def _decode_value(tp, value, key: str):
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        if value is None and type(None) in args:
            return None
        options = [a for a in args if a is not type(None)]
        if len(options) == 1:
            return _decode_value(options[0], value, key)
        kinds = {kind: a for a in options for kind in get_args(get_type_hints(a)["kind"])}
        kind = value.get("kind") if isinstance(value, dict) else None
        cls = kinds.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise UsageError(f"{key} must be an object with kind in {sorted(kinds)}, got {value!r}")
        return decode(cls, value, key + ".")
    if origin is Literal:
        if isinstance(value, str) and value in args:
            return value
        raise UsageError(f"{key} must be one of {list(args)}, got {value!r}")
    if origin is tuple:
        if not isinstance(value, list):
            raise UsageError(f"{key} must be an array, got {value!r}")
        return tuple(_decode_value(args[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    if is_dataclass(tp):
        return decode(tp, value, key + ".")
    if tp is Fraction:
        if type(value) is int or isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                pass
        raise UsageError(f'{key} must be an integer or a "p/q" string, got {value!r}')
    accepts, expected = _SCALARS[tp]
    if accepts(value):
        return tp(value)
    raise UsageError(f"{key} must be {expected}, got {value!r}")


def parse_config(doc: dict) -> tuple[dict, object]:
    """Strict validation: version pinned, mode known, the other keys decoded
    into the mode's dataclass in MODE_CONFIGS.  A ``preset`` key pulls in that
    preset's values as defaults; explicit keys override them.  Returns the
    merged document and the decoded run configuration."""
    if not isinstance(doc, dict):
        raise UsageError("configuration must be a JSON object")
    if doc.get("version") != CONFIG_VERSION:
        raise UsageError(f"configuration version must be {CONFIG_VERSION}")
    merged = dict(doc)
    if "preset" in doc and doc["preset"] is not None:
        base = preset_config(doc["preset"])
        if "mode" in doc and doc["mode"] != base["mode"]:
            raise UsageError(
                f"preset {doc['preset']!r} is a {base['mode']} preset, "
                f"config says {doc['mode']!r}"
            )
        merged = {**base, **doc, "mode": base["mode"]}
    mode = merged.get("mode")
    if not isinstance(mode, str) or mode not in MODE_CONFIGS:
        raise UsageError(f"mode must be one of {sorted(MODE_CONFIGS)}, got {mode!r}")
    if not isinstance(merged.get("output_dir", ""), (str, type(None))):
        raise UsageError(f"output_dir must be a string, got {merged['output_dir']!r}")
    params = {k: v for k, v in merged.items() if k not in _COMMON_KEYS}
    return merged, decode(MODE_CONFIGS[mode], params)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read configuration {path}: {exc}") from exc
    return parse_config(doc)[0]


def config_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_json(path: str, payload) -> None:
    write_atomic(path, [json.dumps(payload, indent=2, sort_keys=True), "\n"])


# ----------------------------------------------------------------------
# command implementations
# ----------------------------------------------------------------------

def _run_thinfilm(cfg: ThinFilmRun, outdir: str) -> list[str]:
    grid = PeriodicGrid(dim=1, n=cfg.n)
    eta0 = cfg.eta0.sample(grid)
    run = thinfilm.evolve(cfg.model, grid, eta0, cfg.dt, cfg.steps,
                          snapshot_stride=cfg.snapshot_stride)
    mass0 = float(eta0.mean())
    mass1 = float(run.snapshots.eta[-1].mean())

    traj_path = os.path.join(outdir, "trajectory.csv")
    write_csv(traj_path, ["t"] + [f"eta_{i:04d}" for i in range(grid.n)],
              [run.snapshots.times, *run.snapshots.eta.T])
    energy_path = os.path.join(outdir, "energy.csv")
    write_csv(energy_path, ["t", "energy"], [run.t, run.energy])

    summary = {
        "mass_initial": mass0,
        "mass_final": mass1,
        "mass_drift_rel": abs(mass1 - mass0) / (1.0 + abs(mass0)),
        "min_eta": run.min_eta,
        "steps": len(run.t) - 1,
        "substeps": run.substeps,
    }
    if cfg.nonlinear_scaling is not None:
        summary["scaling_targets"] = cfg.nonlinear_scaling.coefficients()
    summary_path = os.path.join(outdir, "summary.json")
    _write_json(summary_path, summary)
    return [traj_path, energy_path, summary_path]


def _ledger_health(ledger) -> dict:
    """The largest per-step identity residual and the smallest slack, both
    relative to the step's scale, and the step of that slack."""
    slack_rel = ledger.slack() / ledger.scale()
    return {
        "max_identity_residual_rel": float(np.max(ledger.identity_residual_rel())),
        "min_slack_rel": float(np.min(slack_rel)),
        "min_slack_step": int(np.argmin(slack_rel)) + 1,
    }


def _run_fsi(cfg: FsiRun, outdir: str) -> list[str]:
    grid = PeriodicGrid(dim=cfg.model.dim, n=cfg.n)
    vnodes = VerticalNodes(cfg.m)
    spec = cfg.forcing or HarmonicRampForcing("harmonic-ramp")
    forcing = harmonic_ramp_forcing(
        grid, vnodes, amplitude=spec.amplitude, component=spec.component,
        ramp_time=spec.ramp_time,
        wavevector=(1,) * grid.dim if spec.wavevector is None else spec.wavevector)
    params = FsiParams(model=cfg.model, grid=grid, vnodes=vnodes, dt=cfg.dt, forcing=forcing)
    traj = run_fsi(params, cfg.t_end, snapshot_stride=cfg.snapshot_stride)
    invariants = check_invariants(params, traj.times, traj.v, traj.eta, traj.eta_t)
    written = traj.save(outdir)
    audit = verify.energy_audit(traj.ledger, params)
    summary_path = os.path.join(outdir, "summary.json")
    _write_json(summary_path, {
        "energy_audit_ok": bool(audit.ok),
        **_ledger_health(traj.ledger),
        "terminal_energy": float(traj.ledger.total_energy()[-1]),
        "terminal_lhs": float(traj.ledger.lhs()[-1]),
        "terminal_work": float(traj.ledger.work[-1]),
        "snapshots": len(traj.times),
        "steps": len(traj.ledger),
        "modes": int(np.prod(grid.spectral_shape)),
        "modes_stepped": len(stepped_modes(forcing, grid)),
        "operators_factored": factored_operators(forcing, grid),
        "invariants": {key: float(np.max(x)) for key, x in invariants.items()},
    })
    written.append(summary_path)
    return written


def _run_reynolds(cfg: ReynoldsRun, outdir: str) -> list[str]:
    grid = PeriodicGrid(dim=1, n=cfg.n)
    eta = cfg.eta0.sample(grid)
    p = thinfilm.solve_reynolds_stationary(grid, eta, cfg.v_D, cfg.nu)
    residual = thinfilm.reynolds_residual(grid, eta, p, cfg.v_D, cfg.nu)
    grid_path = write_grid(outdir, grid)
    p_path = os.path.join(outdir, "pressure.csv")
    write_csv(p_path, ["value"], [p])
    summary_path = os.path.join(outdir, "summary.json")
    _write_json(summary_path, {"residual_l2": residual,
                               "pressure_mean": float(p.mean()),
                               "v_D": cfg.v_D, "nu": cfg.nu})
    return [grid_path, p_path, summary_path]


RATE_THRESHOLDS = {"velocity": 2.7, "pressure": 0.6}
R2_THRESHOLD = 0.98


def _run_rates(cfg: verify.RateStudyConfig, outdir: str, jobs: int) -> list[str]:
    result = verify.run_rate_study(cfg, jobs=jobs)

    reports_path = os.path.join(outdir, "reports.csv")
    header = ["eps", "kappa", "err_velocity", "err_pressure", "err_displacement",
              "energy_ratio"]
    write_csv(reports_path, header,
              [[float(getattr(r, h)) for r in result.reports] for h in header])

    disp_threshold = float(cfg.kappa) + 0.5 - 0.3
    thresholds = dict(RATE_THRESHOLDS, displacement=disp_threshold)
    rates = {}
    for which, fit in result.fits.items():
        rates[which] = {
            "slope": fit.slope,
            "r2": fit.r2,
            "threshold": thresholds[which],
            "pass": bool(fit.slope >= thresholds[which] and fit.r2 >= R2_THRESHOLD),
        }
    ratios = [r.energy_ratio for r in result.reports]
    payload = {
        "rates": rates,
        "r2_threshold": R2_THRESHOLD,
        "energy_audit_ok": bool(all(a.ok for a in result.audits)),
        "energy_ratio_spread": max(ratios) / min(ratios),
        "chain_closure_error": result.chain_closure_error,
        "points": [{"eps": r.eps, **_ledger_health(ledger)}
                   for r, ledger in zip(result.reports, result.ledgers)],
        "pass": bool(all(v["pass"] for v in rates.values())
                     and all(a.ok for a in result.audits)),
    }
    rates_path = os.path.join(outdir, "rates.json")
    _write_json(rates_path, payload)
    return [reports_path, rates_path]


def _output_dir(doc: dict, output_dir: str | None) -> str:
    """Artifact directory: output_dir if given, else the document's
    output_dir, else the working directory."""
    return output_dir or doc.get("output_dir") or "."


def run(doc: dict, output_dir: str | None = None, jobs: int = 1) -> dict:
    """Execute a configuration document; returns the artifact manifest."""
    doc, config = parse_config(doc)
    outdir = _output_dir(doc, output_dir)
    mode = doc["mode"]
    runners = {"thinfilm": _run_thinfilm, "fsi": _run_fsi, "reynolds": _run_reynolds}
    files = _run_rates(config, outdir, jobs) if mode == "rates" else runners[mode](config, outdir)
    manifest = {
        "config_hash": config_hash(doc),
        "mode": mode,
        "files": sorted(os.path.basename(f) for f in files),
    }
    manifest_path = os.path.join(outdir, "manifest.json")
    _write_json(manifest_path, manifest)
    return manifest


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--config", required=False, help="path to a JSON configuration")
    parser.add_argument("--output", default=None,
                        help="artifact directory, created with the first artifact")
    parser.add_argument("--resolution", default=None,
                        help="override resolution as n or n,m")


_COMMANDS = {  # command: (help, subcommand, subcommand help)
    "thinfilm": ("film-height evolution runs", "run", "integrate a film model"),
    "fsi": ("coupled channel/plate runs", "run", "run the coupled solver"),
    "reynolds": ("stationary pressure problems", "solve", "solve the stationary pressure equation"),
    "verify": ("verification studies", "rates", "run a thickness ladder and fit rates"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lubelastic",
        description="thin-film models, coupled channel/plate runs and rate studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, subcommand, sub_help) in _COMMANDS.items():
        group = sub.add_parser(command, help=help_).add_subparsers(dest="subcommand", required=True)
        leaf = group.add_parser(subcommand, help=sub_help)
        _add_common(leaf)
        if command == "verify":
            leaf.add_argument("--jobs", type=int, default=1,
                              help="ladder points run in parallel processes")
    group = sub.add_parser("presets", help="preset catalog").add_subparsers(
        dest="subcommand", required=True)
    group.add_parser("list", help="list documented preset ids")
    return parser


def _apply_resolution(doc: dict, resolution: str | None) -> dict:
    if resolution is None:
        return doc
    names = ("n", "m") if "m" in _keys(MODE_CONFIGS[doc["mode"]]) else ("n",)
    parts = resolution.split(",")
    if len(parts) > len(names):
        raise UsageError(f"--resolution {resolution!r} has {len(parts)} parts; "
                         f"a {doc['mode']} run takes {','.join(names)}")
    try:
        return {**doc, **{name: int(part) for name, part in zip(names, parts)}}
    except ValueError as exc:
        raise UsageError(f"bad --resolution value {resolution!r}") from exc


def main(argv=None) -> int:
    level = os.environ.get("LUBELASTIC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    doc: dict = {}
    try:
        if args.command == "presets":  # its one subcommand is list
            for name, info in list_presets().items():
                print(f"{name:22s} [{info['mode']}] {info['summary']}")
            return 0
        if not args.config:
            raise UsageError("--config is required (point it at a preset-based JSON)")
        doc = _apply_resolution(load_config(args.config), args.resolution)
        expected = "rates" if args.command == "verify" else args.command
        if doc["mode"] != expected:
            raise UsageError(
                f"configuration mode {doc['mode']!r} does not match the "
                f"{args.command} command (expected {expected!r})"
            )
        manifest = run(doc, output_dir=args.output, jobs=getattr(args, "jobs", 1))
        print(json.dumps(manifest, sort_keys=True))
        return 0
    except (UsageError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PositivityError, AssemblyError, DegenerateFitError, InvariantError) as exc:
        outdir = _output_dir(doc, args.output)
        diag = {"error": "numerical breakdown", "detail": str(exc)}
        last_state = getattr(exc, "last_state", None)
        if last_state is not None:
            diag["last_valid_time"] = last_state.times[-1]
        _write_json(os.path.join(outdir, "breakdown.json"), diag)
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
