"""Experiment runner: configuration, presets, batch ladders, artifact output.

Configurations are strict JSON documents with a ``version`` field; unknown
keys are rejected because a silently ignored typo in an exponent would
invalidate a rate study.  All artifacts are written atomically (temp file
plus rename) and a manifest records the files together with a hash of the
canonical configuration, so identical configs produce byte-identical runs.

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
import tempfile
from fractions import Fraction

import numpy as np

from . import thinfilm, verify
from .errors import (AssemblyError, DegenerateFitError, ParameterError,
                     PositivityError, UsageError)
from .fsi import FsiParams, harmonic_ramp_forcing, run_fsi
from .scaling import ModelParams, NonlinearScalingPreset
from .spectral import PeriodicField, PeriodicGrid, VerticalNodes

logger = logging.getLogger("lubelastic.cli")

CONFIG_VERSION = 1

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
        "config": {"kappa": "1", "eps_list": [0.125, 0.0625, 0.03125, 0.015625],
                   "n": 16, "m": 20, "dt": 5e-5, "t_end": 0.5,
                   "snapshot_stride": 200, "amplitude": 1.0, "ramp_time": 0.1,
                   "dim": 1, "rho_f": 40.0, "rho_s": 40.0, "B": 1.0, "nu": 1.0,
                   "theta": 20.0},
    },
    "theorem-e0-kappa2": {
        "mode": "rates",
        "summary": "thickness ladder at rigidity exponent kappa = 2 "
                   "(rate targets 3, 1, 2.5)",
        "config": {"kappa": "2", "eps_list": [0.125, 0.0625, 0.03125, 0.015625],
                   "n": 16, "m": 20, "dt": 5e-5, "t_end": 0.5,
                   "snapshot_stride": 200, "amplitude": 1.0, "ramp_time": 0.1,
                   "dim": 1, "rho_f": 40.0, "rho_s": 40.0, "B": 1.0, "nu": 1.0,
                   "theta": 20.0},
    },
    "theorem-e0-kappa52": {
        "mode": "rates",
        "summary": "thickness ladder at the boundary exponent kappa = 5/2 "
                   "(displacement rate is sharp here; the pressure error is "
                   "pre-asymptotic on this ladder)",
        "config": {"kappa": "5/2", "eps_list": [0.125, 0.0625, 0.03125, 0.015625],
                   "n": 16, "m": 20, "dt": 5e-5, "t_end": 0.5,
                   "snapshot_stride": 200, "amplitude": 1.0, "ramp_time": 0.1,
                   "dim": 1, "rho_f": 40.0, "rho_s": 40.0, "B": 1.0, "nu": 1.0,
                   "theta": 20.0},
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

_MODE_KEYS = {
    "thinfilm": {"alpha", "c", "mobility_scale", "potential", "v_D",
                 "drift_prefactor", "linearized", "n", "dt", "steps",
                 "snapshot_stride", "eta0", "nonlinear_scaling"},
    "fsi": {"kappa", "eps", "n", "m", "dt", "t_end", "snapshot_stride", "dim",
            "rho_f", "rho_s", "B", "nu", "theta", "forcing"},
    "reynolds": {"n", "v_D", "nu", "eta0"},
    "rates": {"kappa", "eps_list", "n", "m", "dt", "t_end", "snapshot_stride",
              "amplitude", "ramp_time", "dim", "rho_f", "rho_s", "B", "nu",
              "theta", "wavevector", "component"},
}
_COMMON_KEYS = {"version", "mode", "preset", "output_dir"}


def list_presets() -> dict[str, dict]:
    """Stable catalog of documented preset ids."""
    return {name: {"mode": spec["mode"], "summary": spec["summary"]}
            for name, spec in sorted(PRESETS.items())}


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise UsageError(f"unknown preset id {name!r}; known: {sorted(PRESETS)}")
    spec = PRESETS[name]
    doc = {"version": CONFIG_VERSION, "mode": spec["mode"], "preset": name}
    doc.update(json.loads(json.dumps(spec["config"])))  # deep copy
    return doc


# ----------------------------------------------------------------------
# configuration handling
# ----------------------------------------------------------------------

def validate_config(doc: dict) -> dict:
    """Strict-mode validation: version pinned, mode known, no unknown keys.

    A ``preset`` key pulls in that preset's values as defaults; explicit
    keys override them.
    """
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
    if mode not in _MODE_KEYS:
        raise UsageError(f"mode must be one of {sorted(_MODE_KEYS)}, got {mode!r}")
    allowed = _MODE_KEYS[mode] | _COMMON_KEYS
    unknown = set(merged) - allowed
    if unknown:
        raise UsageError(f"unknown configuration keys: {sorted(unknown)}")
    return merged


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read configuration {path}: {exc}") from exc
    return validate_config(doc)


class ExperimentConfig:
    """A validated experiment: mode, parameter document, output directory.

    Thin wrapper over the strict JSON schema so callers can hold a checked
    configuration object instead of a raw dict.
    """

    def __init__(self, document: dict):
        merged = validate_config(document)
        self.mode: str = merged["mode"]
        self.preset: str | None = merged.get("preset")
        self.output_dir: str | None = merged.get("output_dir")
        self.params: dict = {k: v for k, v in merged.items() if k not in _COMMON_KEYS}
        self.document: dict = merged

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        return cls(load_config(path))

    @classmethod
    def from_preset(cls, name: str) -> "ExperimentConfig":
        return cls(preset_config(name))


def config_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _atomic_write(path: str, writer) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload) -> None:
    def writer(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    _atomic_write(path, writer)


def _profile_field(grid: PeriodicGrid, spec: dict) -> PeriodicField:
    kind = spec.get("kind")
    x = grid.meshes[0]
    if kind == "constant":
        return PeriodicField(grid, np.full(grid.shape, float(spec["value"])))
    if kind == "one-plus-sin":
        a, k = float(spec["amplitude"]), int(spec.get("wavenumber", 1))
        return PeriodicField(grid, 1.0 + a * np.sin(2.0 * np.pi * k * x))
    if kind == "cosine":
        a, k = float(spec["amplitude"]), int(spec.get("wavenumber", 1))
        return PeriodicField(grid, a * np.cos(2.0 * np.pi * k * x))
    raise UsageError(f"unknown profile kind {kind!r}")


def _potential_fn(spec):
    if spec is None:
        return None
    if spec.get("kind") != "power":
        raise UsageError(f"unknown potential kind {spec.get('kind')!r}")
    strength, exponent = float(spec["strength"]), float(spec["exponent"])
    return lambda eta: strength * eta**exponent


# ----------------------------------------------------------------------
# command implementations
# ----------------------------------------------------------------------

def _run_thinfilm(doc: dict, outdir: str) -> list[str]:
    grid = PeriodicGrid(dim=1, n=int(doc["n"]))
    model = thinfilm.ThinFilmModel(
        alpha=int(doc["alpha"]),
        c=float(doc.get("c", 1.0)),
        mobility_scale=float(doc.get("mobility_scale", 1.0)),
        potential_dPhi=_potential_fn(doc.get("potential")),
        v_D=float(doc.get("v_D", 0.0)),
        drift_prefactor=float(doc.get("drift_prefactor", 6.0)),
        linearized=bool(doc.get("linearized", False)),
    )
    state = thinfilm.FilmState(_profile_field(grid, doc["eta0"]), 0.0)
    dt = float(doc["dt"])
    steps = int(doc["steps"])
    stride = int(doc.get("snapshot_stride", max(1, steps // 10)))
    mass0 = state.eta.mean()
    rows = [(0.0, state.eta.values.copy())]
    energy = [thinfilm.film_energy(model, state.eta)]
    energy_t = [0.0]
    min_eta = float(state.eta.values.min())
    for i in range(steps):
        state = thinfilm.step(model, state, dt)
        min_eta = min(min_eta, float(state.eta.values.min()))
        energy.append(thinfilm.film_energy(model, state.eta))
        energy_t.append(state.t)
        if (i + 1) % stride == 0 or i == steps - 1:
            rows.append((state.t, state.eta.values.copy()))
    mass1 = state.eta.mean()

    traj_path = os.path.join(outdir, "trajectory.csv")

    def write_traj(tmp):
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            header = ["t"] + [f"eta_{i:04d}" for i in range(grid.n)]
            fh.write(",".join(header) + "\n")
            for t, vals in rows:
                fh.write(",".join([repr(float(t))] + [repr(float(v)) for v in vals]) + "\n")

    _atomic_write(traj_path, write_traj)

    summary = {
        "mass_initial": mass0,
        "mass_final": mass1,
        "mass_drift_rel": abs(mass1 - mass0) / (1.0 + abs(mass0)),
        "min_eta": min_eta,
        "energy": {"t": energy_t, "value": energy},
    }
    if "nonlinear_scaling" in doc and doc["nonlinear_scaling"] is not None:
        ns = doc["nonlinear_scaling"]
        preset = NonlinearScalingPreset(B_hat=float(ns["B_hat"]),
                                        D_hat=float(ns["D_hat"]),
                                        rho_s_hat=float(ns["rho_s_hat"]))
        summary["scaling_targets"] = preset.coefficients(float(ns["eps"]))
    summary_path = os.path.join(outdir, "summary.json")
    _write_json(summary_path, summary)
    return [traj_path, summary_path]


def _forcing_from_doc(doc: dict, grid: PeriodicGrid, vnodes: VerticalNodes):
    spec = doc.get("forcing") or {"kind": "harmonic-ramp", "amplitude": 1.0,
                                   "wavevector": [1] * grid.dim, "component": 0,
                                   "ramp_time": 0.1}
    if spec.get("kind") != "harmonic-ramp":
        raise UsageError(f"unknown forcing kind {spec.get('kind')!r}")
    return harmonic_ramp_forcing(
        grid, vnodes, amplitude=float(spec.get("amplitude", 1.0)),
        wavevector=tuple(int(k) for k in spec.get("wavevector", [1] * grid.dim)),
        component=int(spec.get("component", 0)),
        ramp_time=float(spec.get("ramp_time", 0.1)),
    )


def _run_fsi(doc: dict, outdir: str) -> list[str]:
    dim = int(doc.get("dim", 1))
    grid = PeriodicGrid(dim=dim, n=int(doc["n"]))
    vnodes = VerticalNodes(int(doc["m"]))
    model = ModelParams(
        rho_f=float(doc.get("rho_f", 1.0)), nu=float(doc.get("nu", 1.0)),
        rho_s=float(doc.get("rho_s", 1.0)), B=float(doc.get("B", 1.0)),
        theta=float(doc.get("theta", 0.0)), eps=float(doc["eps"]),
        kappa=Fraction(str(doc["kappa"])), dim=dim,
    )
    params = FsiParams(model=model, grid=grid, vnodes=vnodes,
                       dt=float(doc["dt"]),
                       forcing=_forcing_from_doc(doc, grid, vnodes))
    traj = run_fsi(params, float(doc["t_end"]),
                   snapshot_stride=int(doc.get("snapshot_stride", 1)))
    written = traj.save(outdir)
    audit = verify.energy_audit(traj.ledger, params)
    summary_path = os.path.join(outdir, "summary.json")
    _write_json(summary_path, {
        "energy_audit_ok": bool(audit.ok),
        "terminal_energy": float(traj.ledger.total_energy()[-1]),
        "terminal_lhs": float(traj.ledger.lhs()[-1]),
        "terminal_work": float(traj.ledger.work[-1]),
        "snapshots": len(traj.states),
    })
    written.append(summary_path)
    return written


def _run_reynolds(doc: dict, outdir: str) -> list[str]:
    grid = PeriodicGrid(dim=1, n=int(doc["n"]))
    eta = _profile_field(grid, doc["eta0"])
    v_D = float(doc.get("v_D", 1.0))
    nu = float(doc.get("nu", 1.0))
    p = thinfilm.solve_reynolds_stationary(eta, v_D, nu)
    residual = thinfilm.reynolds_residual(eta, p, v_D, nu)
    p_path = os.path.join(outdir, "pressure.csv")
    _atomic_write(p_path, lambda tmp: p.to_csv(tmp))
    summary_path = os.path.join(outdir, "summary.json")
    _write_json(summary_path, {"residual_l2": residual,
                               "pressure_mean": p.mean(),
                               "v_D": v_D, "nu": nu})
    return [p_path, summary_path]


RATE_THRESHOLDS = {"velocity": 2.7, "pressure": 0.6}
R2_THRESHOLD = 0.98


def _run_rates(doc: dict, outdir: str, jobs: int) -> list[str]:
    eps_list = tuple(float(e) for e in doc.get("eps_list", ()))
    if not eps_list:
        raise UsageError("eps_list must not be empty")
    try:
        cfg = verify.RateStudyConfig(
            kappa=Fraction(str(doc["kappa"])), eps_list=eps_list,
            dim=int(doc.get("dim", 1)), n=int(doc["n"]), m=int(doc["m"]),
            dt=float(doc["dt"]), t_end=float(doc["t_end"]),
            snapshot_stride=int(doc.get("snapshot_stride", 1)),
            amplitude=float(doc.get("amplitude", 1.0)),
            ramp_time=float(doc.get("ramp_time", 0.1)),
            wavevector=tuple(int(k) for k in doc.get("wavevector", [1])),
            component=int(doc.get("component", 0)),
            rho_f=float(doc.get("rho_f", 1.0)), rho_s=float(doc.get("rho_s", 1.0)),
            B=float(doc.get("B", 1.0)), nu=float(doc.get("nu", 1.0)),
            theta=float(doc.get("theta", 1.0)),
        )
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc
    result = verify.run_rate_study(cfg, jobs=jobs)

    reports_path = os.path.join(outdir, "reports.csv")

    def write_reports(tmp):
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.write("eps,kappa,err_velocity,err_pressure,err_displacement,energy_ratio\n")
            for r in result.reports:
                fh.write(",".join(repr(float(v)) for v in (
                    r.eps, r.kappa, r.err_velocity, r.err_pressure,
                    r.err_displacement, r.energy_ratio)) + "\n")

    _atomic_write(reports_path, write_reports)

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
        "energy_ratio_spread": max(ratios) / min(ratios) if ratios else None,
        "pass": bool(all(v["pass"] for v in rates.values())
                     and all(a.ok for a in result.audits)),
    }
    rates_path = os.path.join(outdir, "rates.json")
    _write_json(rates_path, payload)
    return [reports_path, rates_path]


def run(doc, output_dir: str | None = None, jobs: int = 1) -> dict:
    """Execute a configuration (dict or ExperimentConfig); returns the
    artifact manifest."""
    if isinstance(doc, ExperimentConfig):
        doc = doc.document
    doc = validate_config(doc)
    outdir = output_dir or doc.get("output_dir") or "."
    os.makedirs(outdir, exist_ok=True)
    mode = doc["mode"]
    if mode == "thinfilm":
        files = _run_thinfilm(doc, outdir)
    elif mode == "fsi":
        files = _run_fsi(doc, outdir)
    elif mode == "reynolds":
        files = _run_reynolds(doc, outdir)
    elif mode == "rates":
        files = _run_rates(doc, outdir, jobs)
    else:  # pragma: no cover - validate_config guards this
        raise UsageError(f"unhandled mode {mode!r}")
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
    parser.add_argument("--output", default=None, help="artifact directory")
    parser.add_argument("--jobs", type=int, default=1, help="concurrent batch items")
    parser.add_argument("--resolution", default=None,
                        help="override resolution as n or n,m")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lubelastic",
        description="thin-film models, coupled channel/plate runs and rate studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tf = sub.add_parser("thinfilm", help="film-height evolution runs")
    tf_sub = p_tf.add_subparsers(dest="subcommand", required=True)
    _add_common(tf_sub.add_parser("run", help="integrate a film model"))

    p_fsi = sub.add_parser("fsi", help="coupled channel/plate runs")
    fsi_sub = p_fsi.add_subparsers(dest="subcommand", required=True)
    _add_common(fsi_sub.add_parser("run", help="run the coupled solver"))

    p_rey = sub.add_parser("reynolds", help="stationary pressure problems")
    rey_sub = p_rey.add_subparsers(dest="subcommand", required=True)
    _add_common(rey_sub.add_parser("solve", help="solve the stationary pressure equation"))

    p_ver = sub.add_parser("verify", help="verification studies")
    ver_sub = p_ver.add_subparsers(dest="subcommand", required=True)
    _add_common(ver_sub.add_parser("rates", help="run a thickness ladder and fit rates"))

    p_pre = sub.add_parser("presets", help="preset catalog")
    pre_sub = p_pre.add_subparsers(dest="subcommand", required=True)
    pre_sub.add_parser("list", help="list documented preset ids")
    return parser


def _apply_resolution(doc: dict, resolution: str | None) -> dict:
    if resolution is None:
        return doc
    parts = resolution.split(",")
    try:
        doc = dict(doc)
        doc["n"] = int(parts[0])
        if len(parts) > 1 and "m" in _MODE_KEYS[doc["mode"]]:
            doc["m"] = int(parts[1])
    except (ValueError, KeyError) as exc:
        raise UsageError(f"bad --resolution value {resolution!r}") from exc
    return doc


def _config_for(args) -> dict:
    if args.config:
        doc = load_config(args.config)
    else:
        raise UsageError("--config is required (point it at a preset-based JSON)")
    return _apply_resolution(doc, args.resolution)


def main(argv=None) -> int:
    level = os.environ.get("LUBELASTIC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "presets" and args.subcommand == "list":
            for name, info in list_presets().items():
                print(f"{name:22s} [{info['mode']}] {info['summary']}")
            return 0
        doc = _config_for(args)
        expected = {"thinfilm": "thinfilm", "fsi": "fsi",
                    "reynolds": "reynolds", "verify": "rates"}[args.command]
        if doc["mode"] != expected:
            raise UsageError(
                f"configuration mode {doc['mode']!r} does not match the "
                f"{args.command} command (expected {expected!r})"
            )
        manifest = run(doc, output_dir=args.output, jobs=args.jobs)
        print(json.dumps(manifest, sort_keys=True))
        return 0
    except (UsageError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PositivityError, AssemblyError, DegenerateFitError) as exc:
        outdir = args.output or "."
        os.makedirs(outdir, exist_ok=True)
        diag = {"error": "numerical breakdown", "detail": str(exc)}
        last_state = getattr(exc, "last_state", None)
        if last_state is not None:
            diag["last_valid_time"] = last_state.t
        _write_json(os.path.join(outdir, "breakdown.json"), diag)
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
