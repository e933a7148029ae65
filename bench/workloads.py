"""The three seeded workloads: their inputs, the operations of one pass and
the correctness gates each operation must pass.

Inputs come only from the seed.  A workload is a list of operations, run
one at a time in a closed loop; `run()` is the timed library call and
`check()` evaluates gates on its result outside the timed region.

Sizes: "full" is the benchmark; "toy" is the same code on small problems,
used by the self-check so the harness cannot rot.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
from fractions import Fraction

import numpy as np

from lubelastic import cli, fsi, verify
from lubelastic.scaling import ModelParams
from lubelastic.spectral import PeriodicGrid, VerticalNodes

WORKLOADS = ("ladder-k2", "fsi2d-patch", "cli-artifacts")

# The one failure recorded as a false positive: on 2D runs whose plate has
# settled, the kinematic-trace tolerance of FsiState.check_invariants scales
# with max|top velocity|, which tends to zero, so roundoff trips it.
KNOWN_INVARIANT_FALSE_POSITIVE = "kinematic trace violated"
# A recorded defect: EnergyLedger.to_csv writes repr() of the fluid kinetic
# energy, a numpy scalar, which numpy 2 prints as "np.float64(...)", so the
# column is not plain CSV numbers.  The residual gate still reads the values.
KNOWN_LEDGER_CSV_DEFECT = "np.float64("

IDENTITY_RESIDUAL_BOUND = 1e-12  # measured: 2e-14 on the ladder, 4e-15 on the patch
# A single 2D mode at |k| ~ 5 carries all the energy, and its roundoff is
# larger: up to 5.6e-13 (wavevector (4, 3)) over the seeded wavevectors.
CLI_IDENTITY_RESIDUAL_BOUND = 1e-11
MASS_DRIFT_BOUND = 1e-10
SLOPE_REL_TOL = 1e-9
R2_MIN = 0.98
SLOPE_THRESHOLDS = {"velocity": 2.7, "pressure": 0.6, "displacement": 2.2}


class Gates:
    """(operation, gate) pairs attempted and failed, per gate name."""

    def __init__(self):
        self.table: dict[str, dict] = {}

    def check(self, name: str, ok: bool, message: str = "", known: str | None = None) -> None:
        row = self.table.setdefault(
            name, {"attempted": 0, "failed": 0, "known_failed": 0, "message": ""})
        row["attempted"] += 1
        if not ok:
            row["failed"] += 1
            if known is not None and known in message:
                row["known_failed"] += 1
            if not row["message"]:
                row["message"] = message[:300]

    def merge(self, other: "Gates") -> None:
        for name, row in other.table.items():
            mine = self.table.setdefault(
                name, {"attempted": 0, "failed": 0, "known_failed": 0, "message": ""})
            for key in ("attempted", "failed", "known_failed"):
                mine[key] += row[key]
            mine["message"] = mine["message"] or row["message"]

    def totals(self) -> tuple[int, int, int]:
        """(pairs attempted, pairs failed, pairs failed unexpectedly)."""
        rows = self.table.values()
        return (sum(r["attempted"] for r in rows), sum(r["failed"] for r in rows),
                sum(r["failed"] - r["known_failed"] for r in rows))


def identity_residual_rel(ledger) -> float:
    """Largest per-step |energy identity residual| over the step's scale."""
    residual = np.abs(ledger.identity_residual())
    scale = np.maximum(np.abs(ledger.lhs(include_numerical=True)),
                       np.abs(np.asarray(ledger.work)))
    return float(np.max(residual / np.maximum(scale, 1e-300)))


def _smooth_ramp(t: float, ramp_time: float) -> float:
    return 0.0 if t <= 0.0 else float(-np.expm1(-((t / ramp_time) ** 2)))


# ----------------------------------------------------------------------
# ladder-k2: the theorem-e0-kappa2 rate study
# ----------------------------------------------------------------------

# The theorem-e0-kappa2 preset's physics, ladder and mesh with a coarser time
# step: dt = 5e-4 instead of 5e-5, so a ladder is 4 x 1000 steps (about 2 s)
# instead of 4 x 10 000 (about 20 s), and a run repeats it often enough for
# the median of its passes to be steady on a shared host.  Stepping still takes
# most of the time; a coarser dt would leave the ChebOps builds dominant.
# The toy size is coarser.
_LADDER = {
    "full": dict(kappa=Fraction(2), eps_list=(0.125, 0.0625, 0.03125, 0.015625),
                 dim=1, n=16, m=20, dt=5e-4, t_end=0.5, snapshot_stride=20,
                 ramp_time=0.1, rho_f=40.0, rho_s=40.0, B=1.0, nu=1.0, theta=20.0),
    "toy": dict(kappa=Fraction(2), eps_list=(0.125, 0.0625, 0.03125, 0.015625),
                dim=1, n=8, m=12, dt=2e-3, t_end=0.5, snapshot_stride=5,
                ramp_time=0.1, rho_f=40.0, rho_s=40.0, B=1.0, nu=1.0, theta=20.0),
}
# Fitted slopes measured at the seed commit (amplitude 1.0).  The problem is
# linear, so they do not depend on the seeded amplitude: amplitudes 0.37 and
# 3.3 agree to 3e-13.
_SLOPE_REFERENCE = {
    "full": {"velocity": 4.45704944750678, "pressure": 2.3215246824661047,
             "displacement": 4.416443775415916},
    "toy": {"velocity": 4.723014096632802, "pressure": 2.5770297783974807,
            "displacement": 4.493534419073645},
}


def _ladder_inputs(seed: int, size: str) -> dict:
    rng = np.random.default_rng(seed)
    amplitude = float(rng.uniform(0.25, 4.0))
    return {"config": verify.RateStudyConfig(amplitude=amplitude, **_LADDER[size]),
            "reference": _SLOPE_REFERENCE[size], "amplitude": amplitude}


def _ladder_operations(inputs: dict):
    config = inputs["config"]
    reference = inputs["reference"]

    def run():
        return verify.run_rate_study(config)

    def check(result, gates: Gates, values: dict) -> None:
        for which, fit in result.fits.items():
            ref = reference[which]
            gates.check(f"ladder.slope_matches_seed.{which}",
                        abs(fit.slope - ref) <= SLOPE_REL_TOL * abs(ref),
                        f"{which} slope {fit.slope!r}, seed commit {ref!r}")
            gates.check(f"ladder.slope_threshold.{which}",
                        fit.slope >= SLOPE_THRESHOLDS[which],
                        f"{which} slope {fit.slope:.4f} < {SLOPE_THRESHOLDS[which]}")
            gates.check(f"ladder.r2.{which}", fit.r2 >= R2_MIN,
                        f"{which} r2 {fit.r2:.5f} < {R2_MIN}")
            values[f"verify.slope_{which}"] = fit.slope
        values["verify.r2_min"] = min(fit.r2 for fit in result.fits.values())
        worst = 0.0
        for audit, ledger in zip(result.audits, result.ledgers):
            gates.check("ladder.energy_audit", bool(audit.ok), audit.message)
            rel = identity_residual_rel(ledger)
            worst = max(worst, rel)
            gates.check("ladder.identity_residual", rel <= IDENTITY_RESIDUAL_BOUND,
                        f"identity residual {rel:.3e} > {IDENTITY_RESIDUAL_BOUND:.0e}")
        values["fsi.identity_residual_rel"] = max(values.get("fsi.identity_residual_rel", 0.0), worst)

    return [("ladder", run, check)]


# ----------------------------------------------------------------------
# fsi2d-patch: 2D coupled runs under a localized Gaussian load
# ----------------------------------------------------------------------

_PATCH = {
    # dt = 4e-3: 90 steps to t = 0.36, snapshots at t = 0.12, 0.24 and 0.36.
    # By t = 0.24 the plate has settled for every seed tried, so the false
    # positive below fails the same 2 of 3 snapshots whatever the seed; at
    # t = 0.16 it still passed for 2 seeds in 20.
    "full": dict(n=32, m=16, dt=4e-3, t_end=0.36, snapshot_stride=30, width=(0.115, 0.13)),
    "toy": dict(n=16, m=8, dt=1e-3, t_end=0.03, snapshot_stride=10, width=(0.28, 0.32)),
}
PATCH_EPS = (2.0**-3, 2.0**-6)
PATCH_RAMP_TIME = 0.05


def _patch_inputs(seed: int, size: str) -> dict:
    """Periodic Gaussian bump in one horizontal force component, constant
    across the depth, switched on by the smooth ramp.  It is wide enough
    for the grid that its Nyquist modes carry < 1e-9 of its spectrum; an
    unresolved load trips the divergence check at the Nyquist modes."""
    rng = np.random.default_rng(seed)
    spec = _PATCH[size]
    center = rng.uniform(0.0, 1.0, 2)
    width = float(rng.uniform(*spec["width"]))
    amplitude = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
    component = int(rng.integers(0, 2))
    grid = PeriodicGrid(dim=2, n=spec["n"])
    X, Y = grid.meshes
    bump = np.exp(-(2.0 - np.cos(2 * np.pi * (X - center[0]))
                    - np.cos(2 * np.pi * (Y - center[1]))) / (2 * np.pi**2 * width**2))
    profile = amplitude * bump[..., None] * np.ones(spec["m"])
    return {"spec": spec, "profile": profile, "component": component,
            "center": center.tolist(), "width": width, "amplitude": amplitude}


def _patch_forcing(inputs: dict):
    profile = inputs["profile"]
    component = inputs["component"]
    zero = np.zeros_like(profile)

    def force(t: float):
        r = _smooth_ramp(t, PATCH_RAMP_TIME)
        return tuple(profile * r if i == component else zero for i in range(3))

    return force


def _patch_operations(inputs: dict):
    spec = inputs["spec"]
    forcing = _patch_forcing(inputs)

    def operation(eps: float):
        def run():
            grid = PeriodicGrid(dim=2, n=spec["n"])
            vnodes = VerticalNodes(spec["m"])
            model = ModelParams(rho_f=1.0, nu=1.0, rho_s=1.0, B=1.0, theta=1.0,
                                eps=eps, kappa=Fraction(2), dim=2)
            params = fsi.FsiParams(model=model, grid=grid, vnodes=vnodes,
                                   dt=spec["dt"], forcing=forcing)
            traj = fsi.run_fsi(params, spec["t_end"], snapshot_stride=spec["snapshot_stride"])
            audit = verify.energy_audit(traj.ledger, params)
            invariants = []
            for state in traj.states[1:]:
                try:
                    state.check_invariants(params)
                    invariants.append("")
                except AssertionError as exc:
                    invariants.append(str(exc) or "AssertionError")
            return traj.ledger, audit, invariants

        def check(result, gates: Gates, values: dict) -> None:
            ledger, audit, invariants = result
            gates.check("fsi2d.energy_audit", bool(audit.ok), audit.message)
            rel = identity_residual_rel(ledger)
            gates.check("fsi2d.identity_residual", rel <= IDENTITY_RESIDUAL_BOUND,
                        f"identity residual {rel:.3e} > {IDENTITY_RESIDUAL_BOUND:.0e}")
            values["fsi.identity_residual_rel"] = max(values.get("fsi.identity_residual_rel", 0.0), rel)
            for message in invariants:
                gates.check("fsi2d.check_invariants", not message, message,
                            known=KNOWN_INVARIANT_FALSE_POSITIVE)
                values["fsi.invariant_failures"] = values.get("fsi.invariant_failures", 0) + bool(message)

        return (f"fsi2d.eps={eps:g}", run, check)

    return [operation(eps) for eps in PATCH_EPS]


# ----------------------------------------------------------------------
# cli-artifacts: cli.run with artifacts for every non-ladder preset plus a
# 2D fsi document
# ----------------------------------------------------------------------

CLI_PRESETS = ("pm-paper", "tf-surface-tension", "stf-bending", "nonlinear-3.3",
               "fsi-single-mode", "reynolds-slider")
_CLI_TOY_OVERRIDES = {
    "pm-paper": {"steps": 20, "snapshot_stride": 10},
    "tf-surface-tension": {"steps": 20, "snapshot_stride": 10},
    "stf-bending": {"steps": 20, "snapshot_stride": 10},
    "nonlinear-3.3": {"steps": 20, "snapshot_stride": 10},
    "fsi-single-mode": {"t_end": 0.02},
    "reynolds-slider": {"n": 64},
}
_CLI_2D = {
    # 10 steps, snapshots at t = 0 and 0.01: short, so a run repeats it ~10 times
    "full": dict(n=32, m=16, t_end=0.01, snapshot_stride=10),
    "toy": dict(n=8, m=8, t_end=0.02, snapshot_stride=10),
}


def _cli_inputs(seed: int, size: str, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    docs = []
    for name in CLI_PRESETS:
        doc = {"version": 1, "preset": name}
        if size == "toy":
            doc.update(_CLI_TOY_OVERRIDES[name])
        docs.append((name, doc))
    # Both wavenumbers nonzero: with one of them zero some fields vanish
    # identically, and writing exact zeros is cheaper, so the seed would
    # change the amount of work.
    wavevector = [int(rng.integers(1, 5)), int(rng.integers(1, 5))]
    docs.append(("fsi-2d", {
        "version": 1, "mode": "fsi", "kappa": "2", "eps": 0.125, "dt": 1e-3,
        "dim": 2, "rho_f": 1.0, "rho_s": 1.0, "B": 1.0, "nu": 1.0, "theta": 1.0,
        **_CLI_2D[size],
        "forcing": {"kind": "harmonic-ramp", "amplitude": float(rng.uniform(0.5, 2.0)),
                    "wavevector": wavevector, "component": int(rng.integers(0, 2)),
                    "ramp_time": 0.1},
    }))
    return {"docs": docs, "workdir": workdir}


def _read_ledger_csv(path: str) -> tuple[np.ndarray, list[str]]:
    """Ledger columns as floats, plus the fields that are not plain numbers."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    odd = []
    values = []
    for row in rows:
        for field in row:
            try:
                float(field)
            except ValueError:
                odd.append(field)
        values.append([float(re.sub(r"^np\.float64\((.*)\)$", r"\1", f)) for f in row])
    return np.array(values, ndmin=2), odd


def _ledger_residual(data: np.ndarray) -> float:
    lhs = data[:, 2:8].sum(axis=1)  # energies, dissipations, numerical dissipation
    work = data[:, 8]
    scale = np.maximum(np.abs(lhs), np.abs(work))
    return float(np.max(np.abs(lhs - work) / np.maximum(scale, 1e-300)))


def _cli_operations(inputs: dict):
    workdir = inputs["workdir"]

    def operation(label: str, doc: dict):
        def run():
            outdir = tempfile.mkdtemp(prefix="cli-", dir=workdir)
            return cli.run(doc, output_dir=outdir), outdir

        def check(result, gates: Gates, values: dict) -> None:
            manifest, outdir = result
            try:
                files = list(manifest["files"]) + ["manifest.json"]
                paths = [os.path.join(outdir, f) for f in files]
                missing = [f for f, p in zip(files, paths) if not os.path.isfile(p)]
                gates.check("cli.manifest_files_exist", not missing,
                            f"{label}: missing {missing}")
                present = [p for p in paths if os.path.isfile(p)]
                values["cli.artifact_files"] = values.get("cli.artifact_files", 0) + len(present)
                values["cli.artifact_bytes"] = (values.get("cli.artifact_bytes", 0)
                                                + sum(os.path.getsize(p) for p in present))
                with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
                    summary = json.load(fh)
                if manifest["mode"] == "thinfilm":
                    drift = summary["mass_drift_rel"]
                    gates.check("cli.thinfilm_mass_drift", drift <= MASS_DRIFT_BOUND,
                                f"{label}: mass drift {drift:.3e} > {MASS_DRIFT_BOUND:.0e}")
                elif manifest["mode"] == "fsi":
                    gates.check("cli.fsi_energy_audit", bool(summary["energy_audit_ok"]),
                                f"{label}: energy_audit_ok is false")
                    data, odd = _read_ledger_csv(os.path.join(outdir, "energy_ledger.csv"))
                    gates.check("cli.fsi_ledger_csv_numeric", not odd,
                                f"{label}: {len(odd)} ledger fields are not numbers, "
                                f"e.g. {odd[:1]}", known=KNOWN_LEDGER_CSV_DEFECT)
                    rel = _ledger_residual(data)
                    gates.check("cli.fsi_identity_residual", rel <= CLI_IDENTITY_RESIDUAL_BOUND,
                                f"{label}: ledger identity residual {rel:.3e}")
                    values["fsi.identity_residual_rel"] = max(
                        values.get("fsi.identity_residual_rel", 0.0), rel)
            finally:
                shutil.rmtree(outdir, ignore_errors=True)

        return (f"cli.{label}", run, check)

    return [operation(label, doc) for label, doc in inputs["docs"]]


# ----------------------------------------------------------------------

def make_inputs(workload: str, seed: int, size: str, workdir: str) -> dict:
    if workload == "ladder-k2":
        return _ladder_inputs(seed, size)
    if workload == "fsi2d-patch":
        return _patch_inputs(seed, size)
    if workload == "cli-artifacts":
        return _cli_inputs(seed, size, workdir)
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def operations(workload: str, inputs: dict):
    """The fixed list of (label, run, check) operations of one pass."""
    return {"ladder-k2": _ladder_operations, "fsi2d-patch": _patch_operations,
            "cli-artifacts": _cli_operations}[workload](inputs)


def describe(workload: str, inputs: dict) -> dict:
    """The seeded input parameters, for the run record."""
    if workload == "ladder-k2":
        return {"amplitude": inputs["amplitude"]}
    if workload == "fsi2d-patch":
        return {k: inputs[k] for k in ("center", "width", "amplitude", "component")}
    return {"fsi-2d": inputs["docs"][-1][1]["forcing"]}
