"""Error norms, empirical convergence rates and energy audits.

The three norms mirror the error bounds of the reduced-model theory:
velocity and pressure differences are measured in L2 of time and of the thin
channel (the vertical measure carries the thickness eps), the displacement
difference in L-infinity of time with values in H2.  Rates are least-squares
slopes on log-log axes over a ladder of thicknesses; the theory provides
upper bounds, so acceptance checks are one-sided and superconvergence
passes.
"""
from __future__ import annotations

import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DegenerateFitError, GridMismatchError, ParameterError, check_range
from .fsi import (
    EnergyLedger,
    FsiParams,
    FsiTrajectory,
    harmonic_ramp_forcing,
    run_batch,
    stepped_modes,
)
from .reconstruction import ApproxTriple, LimitFields, solve_reduced
from .scaling import ModelParams, eps_power
from .spectral import PeriodicGrid, VerticalNodes, laplacian_symbol
from .thinfilm import FilmTrajectory

logger = logging.getLogger("lubelastic.verify")


# ----------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------

def thin_norm_L2L2(components: Sequence[np.ndarray], vnodes: VerticalNodes, eps: float,
                   times) -> float:
    """L2(0,T; L2 of the thin channel) norm of a snapshot series: components
    holds one array (N,) + grid.shape + (m,) per vector component (one for a
    scalar), the N snapshots along its leading axis and m the vertical nodes'
    count (GridMismatchError otherwise).  The thin-channel measure
    contributes one factor eps.  Time integration is trapezoidal on the N
    times, which must be finite and strictly increasing (ParameterError)."""
    check_range(eps=eps)
    times = np.asarray(times, dtype=float)
    if len(times) < 2:
        raise ParameterError("need at least two time samples")
    if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
        raise ParameterError("snapshot times must be finite and strictly increasing")
    shape = components[0].shape
    if any(c.shape != shape for c in components) or not (
            len(shape) > 2 and shape[0] == len(times) and shape[-1] == vnodes.m):
        raise GridMismatchError(f"components of shapes {[c.shape for c in components]} do not "
                                f"hold {len(times)} snapshots on {vnodes.m} vertical nodes")
    # equal-weight horizontal nodes: the channel integral is their mean
    sq = sum(np.mean(c**2 @ vnodes.weights, axis=tuple(range(1, c.ndim - 1)))
             for c in components)
    return float(np.sqrt(eps * np.trapezoid(sq, times)))


def norm_LinfH2(grid: PeriodicGrid, values: np.ndarray) -> float:
    """Max over a snapshot series, values (N,) + grid.shape with the N >= 1
    snapshots along its leading axis, of the full H2 norm: L2 of the value,
    the gradient and all second derivatives.  GridMismatchError unless the
    trailing shape is the grid's."""
    if values.shape[1:] != grid.shape:
        raise GridMismatchError(f"snapshots of shape {values.shape[1:]} on a grid of shape "
                                f"{grid.shape}")
    if not len(values):
        raise ParameterError("need at least one snapshot")
    xi2 = -laplacian_symbol(grid)
    sym = 1.0 + xi2 + xi2**2
    # one transform, the horizontal axes leading; then each snapshot's
    # coefficients contiguous again
    hat = np.ascontiguousarray(np.moveaxis(grid.rfft(np.moveaxis(values, 0, -1)), -1, 0))
    return float(np.max(np.sqrt(np.sum(grid.mode_weights * sym * np.abs(hat) ** 2,
                                       axis=tuple(range(1, hat.ndim))))))


# ----------------------------------------------------------------------
# reports and rate fits
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorReport:
    """Model-error norms for one thickness, plus the energy-audit ratio."""

    eps: float
    kappa: float
    err_velocity: float
    err_pressure: float
    err_displacement: float
    energy_ratio: float


_NORM_FIELDS = {
    "velocity": "err_velocity",
    "pressure": "err_pressure",
    "displacement": "err_displacement",
}


@dataclass(frozen=True)
class RateFit:
    which: str
    pairs: tuple[tuple[float, float], ...]
    slope: float
    r2: float


def fit_rate(reports: Sequence[ErrorReport], which: str) -> RateFit:
    """Least-squares slope of log(error) against log(eps)."""
    if which not in _NORM_FIELDS:
        raise ParameterError(f"unknown norm selector {which!r}")
    if len(reports) < 3:
        raise ParameterError("need at least three ladder points for a rate fit")
    kappas = {r.kappa for r in reports}
    if len(kappas) != 1:
        raise ParameterError(f"ladder mixes rigidity exponents: {sorted(kappas)}")
    pairs = tuple((r.eps, getattr(r, _NORM_FIELDS[which])) for r in reports)
    errs = np.array([e for _, e in pairs])
    if not np.all(np.isfinite(errs) & (errs >= 1e-300)):
        raise DegenerateFitError(
            f"{which} errors contain machine-exact zeros or non-finite values; "
            "no rate can be fitted"
        )
    x = np.log(np.array([e for e, _ in pairs]))
    y = np.log(errs)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(which=which, pairs=pairs, slope=float(slope), r2=r2)


# ----------------------------------------------------------------------
# energy audit
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AuditResult:
    ok: bool
    first_violation: int | None
    ratios: np.ndarray
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def energy_audit(ledger: EnergyLedger, params) -> AuditResult:
    """Check the discrete energy inequality at every step.

    The left side (energies plus accumulated dissipation) must not exceed
    the accumulated work of forcing beyond 1e-12 times the scale of the
    terms involved, and each dissipation integral must be nonnegative and
    nondecreasing.  The ratio series reports lhs(t) / (t_physical * eps^3),
    with t_physical = eps^tau * t, the combination the energy bound keeps
    of order one.  A ledger entry that is not finite fails the audit at its
    step.
    """
    model = params.model if isinstance(params, FsiParams) else params
    n = len(ledger)
    if n == 0:
        return AuditResult(ok=True, first_violation=None, ratios=np.array([]))
    finite = np.isfinite([getattr(ledger, f.name) for f in fields(ledger)]).all(axis=0)
    if not finite.all():
        step = int(np.argmin(finite)) + 1
        return AuditResult(ok=False, first_violation=step, ratios=np.array([]),
                           message=f"ledger entry not finite at step {step}")
    lhs = ledger.lhs()
    work = ledger.work
    for name in ("viscous_dissipation", "viscoelastic_dissipation", "numerical_dissipation"):
        arr = getattr(ledger, name)
        increments = np.diff(np.concatenate([[0.0], arr]))
        bad = np.nonzero(increments < -1e-12 * np.maximum.accumulate(np.abs(arr) + 1e-300))[0]
        if bad.size:
            return AuditResult(
                ok=False, first_violation=int(bad[0] + 1), ratios=np.array([]),
                message=f"negative {name} increment at step {int(bad[0] + 1)}",
            )
    scale = np.maximum.reduce([np.abs(lhs), np.abs(work), ledger.numerical_dissipation])
    scale = np.maximum(scale, 1e-300)
    slack = work - lhs
    bad = np.nonzero(slack < -1e-12 * scale)[0]
    denom = ledger.t * eps_power(model.eps, model.tau + 3)
    ratios = lhs / np.maximum(denom, 1e-300)
    if bad.size:
        step = int(bad[0] + 1)
        return AuditResult(
            ok=False, first_violation=step, ratios=ratios,
            message=f"energy inequality violated at step {step}: "
                    f"slack {slack[bad[0]]:.3e} vs scale {scale[bad[0]]:.3e}",
        )
    return AuditResult(ok=True, first_violation=None, ratios=ratios)


# ----------------------------------------------------------------------
# ladder pipeline
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RateStudyConfig:
    """One rate study: a thickness ladder at fixed rigidity exponent."""

    kappa: Fraction = Fraction(2)
    eps_list: tuple[float, ...] = (0.125, 0.0625, 0.03125, 0.015625)
    dim: int = 1
    n: int = 16
    m: int = 24
    dt: float = 1e-4
    t_end: float = 0.5
    snapshot_stride: int = 20
    amplitude: float = 1.0
    ramp_time: float = 0.1
    wavevector: tuple[int, ...] = (1,)
    component: int = 0
    rho_f: float = 1.0
    rho_s: float = 1.0
    B: float = 1.0
    nu: float = 1.0
    theta: float = 1.0

    def __post_init__(self):
        check_range(dt=self.dt, t_end=self.t_end, ramp_time=self.ramp_time)
        check_range(-np.inf, np.inf, amplitude=self.amplitude)
        check_range(1, closed=True, integer=True, snapshot_stride=self.snapshot_stride)
        check_range(0, closed=True, integer=True, component=self.component)
        if len(self.eps_list) < 1:
            raise ParameterError("eps ladder must not be empty")
        if np.any(np.diff(self.eps_list) >= 0):
            raise ParameterError("eps ladder must be strictly decreasing")
        for e in self.eps_list:
            if not (0 < e < 1) or 2.0 ** round(np.log2(e)) != e:
                raise ParameterError(f"ladder entries must be powers of two in (0,1), got {e}")

    def model_for(self, eps: float) -> ModelParams:
        return ModelParams(rho_f=self.rho_f, nu=self.nu, rho_s=self.rho_s,
                           B=self.B, theta=self.theta, eps=eps, kappa=self.kappa,
                           dim=self.dim)

    def setting(self):
        """The grid, vertical nodes and forcing that every thickness shares."""
        grid = PeriodicGrid(dim=self.dim, n=self.n)
        vnodes = VerticalNodes(self.m)
        forcing = harmonic_ramp_forcing(
            grid, vnodes, amplitude=self.amplitude, wavevector=self.wavevector,
            component=self.component, ramp_time=self.ramp_time,
        )
        return grid, vnodes, forcing


@dataclass(frozen=True)
class RateStudyResult:
    config: RateStudyConfig
    reports: tuple[ErrorReport, ...]
    fits: dict
    audits: tuple[AuditResult, ...]
    ledgers: tuple[EnergyLedger, ...]
    reduced: FilmTrajectory
    chain_closure_error: float


def compare_trajectories(traj: FsiTrajectory, approx: ApproxTriple) -> tuple[float, float, float]:
    """Error-norm distances between a full-order trajectory and a
    reconstructed triple on matching snapshot times: the norms of the
    differences of their snapshot arrays."""
    if len(traj.times) != len(approx.times):
        raise GridMismatchError("trajectories have different snapshot counts")
    if np.max(np.abs(traj.times - approx.times)) > 1e-8 * max(traj.times[-1], 1e-300):
        raise GridMismatchError("trajectories sample different times")
    vnodes, eps, times = traj.params.vnodes, traj.params.model.eps, traj.times
    return (thin_norm_L2L2([a - b for a, b in zip(traj.v, approx.v)], vnodes, eps, times),
            thin_norm_L2L2([traj.p - approx.p], vnodes, eps, times),
            norm_LinfH2(traj.params.grid, traj.eta - approx.eta))


def _ladder_points(config: RateStudyConfig, limit: LimitFields,
                   eps_list: Sequence[float]) -> list:
    """(report, ledger, audit) per thickness: the coupled runs step together
    on the setting of the ladder's limit fields (the grid, vertical nodes and
    forcing of `RateStudyConfig.setting`), then each point is reconstructed
    from those limit fields."""
    start = time.perf_counter()
    grid, vnodes, forcing = limit.reduced.grid, limit.vnodes, limit.forcing
    params = [FsiParams(model=config.model_for(eps), grid=grid, vnodes=vnodes, dt=config.dt,
                        forcing=forcing) for eps in eps_list]
    trajs = run_batch(params, config.t_end, config.snapshot_stride)
    modes = f"{len(stepped_modes(forcing, grid))} of {np.prod(grid.spectral_shape)} modes"
    outcomes = []
    for eps, p, traj in zip(eps_list, params, trajs):
        errs = compare_trajectories(traj, limit.approx(p.model))
        t_phys = config.t_end * eps_power(eps, p.model.tau)
        ratio = float(traj.ledger.lhs()[-1] / (t_phys * eps**3))
        report = ErrorReport(eps, float(p.model.kappa), *errs, energy_ratio=ratio)
        audit = energy_audit(traj.ledger, p)
        logger.info("ladder point eps = %g: %.3f s, %s stepped, errors velocity %.6e, "
                    "pressure %.6e, displacement %.6e", eps, time.perf_counter() - start, modes,
                    *errs)
        outcomes.append((report, traj.ledger, audit))
    return outcomes


def run_rate_study(config: RateStudyConfig, jobs: int = 1) -> RateStudyResult:
    """Run the full ladder, fit the three rates and take the chain closure.

    The setting, the reduced problem and its limit fields do not depend on
    eps, so each is built once, for every point and the closure.  With
    jobs = 1 the points' coupled runs step together in one loop
    (`fsi.run_batch`); with jobs > 1 each point runs in its own process,
    which takes the same limit fields, pickled.  Results are ordered by the
    configured ladder either way.
    """
    if len(config.eps_list) < 3:
        raise ParameterError("need at least three ladder points for a rate fit")
    check_range(1, closed=True, integer=True, jobs=jobs)
    setting = config.setting()
    _, vnodes, forcing = setting
    model = config.model_for(config.eps_list[0])
    reduced = solve_reduced(model, *setting, config.t_end, config.dt,
                            snapshot_stride=config.snapshot_stride)
    limit = LimitFields(reduced, model, forcing, vnodes)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(config.eps_list))) as pool:
            futures = [pool.submit(_ladder_points, config, limit, (eps,))
                       for eps in config.eps_list]
            outcomes = [o for f in futures for o in f.result()]
    else:
        outcomes = _ladder_points(config, limit, config.eps_list)
    reports = tuple(o[0] for o in outcomes)
    ledgers = tuple(o[1] for o in outcomes)
    audits = tuple(o[2] for o in outcomes)
    fits = {which: fit_rate(reports, which) for which in _NORM_FIELDS}
    return RateStudyResult(config=config, reports=reports, fits=fits, audits=audits,
                           ledgers=ledgers, reduced=limit.reduced,
                           chain_closure_error=limit.closure_error())
