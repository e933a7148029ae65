"""Full-order linear solver for a thin viscous channel coupled to a bending plate.

The unknowns are the fluid velocity and pressure on the fixed reference
channel omega x (-1, 0) together with the vertical plate displacement on the
top boundary, evolved in the slow time scale T = eps**tau.  The channel
geometry enters through the scaled gradient (grad', eps**-1 d/dy3) and the
plate through its fourth-order bending operator; the plate feels the fluid
normal stress and the fluid inherits the plate velocity as its top trace.

Discretization.  Horizontal directions are Fourier-diagonal, so one backward
Euler step decouples into independent vertical problems per wavenumber.  Per
mode the trial space consists of horizontal velocity profiles vanishing at
both walls, with the vertical velocity reconstructed by exact antiderivative
of the scaled divergence constraint and the plate velocity tied to its top
value.  The constraint and both kinematic conditions therefore hold exactly,
the per-mode matrices are real symmetric positive definite, and testing the
discrete system with its own solution yields the discrete energy identity

    E(t_n) + sum(viscous + plate dissipation + numerical dissipation)
        = sum(work of forcing)

to roundoff, with every dissipation term nonnegative.

The frame.  Each mode's horizontal velocity is held in the frame
e0 = xi/|xi| (the first axis at xi = 0; e0 = 1 in 1D), e1 = e0 turned by a
right angle.  The operator is made of I and xi xi^T only, so the part along
xi is the 1D problem at xi_L = e0 . xi and alone meets the plate, the
pressure and the vertical load, while the part across xi is a decoupled
diffusion.  A state is P*K rows of mi interior coefficients (P = dim): rows
:K hold the parts along xi, in 2D rows K: those across.  The forcing rotates
into the frame in the quadrature, the velocity back in `materialize`.  The
pressure is not a primal unknown; it comes from the along-xi momentum
balance, and for the zero mode from the vertical balance pinned by the
plate row.

The load.  A mode that is never loaded stays exactly zero, so a run under
a `HarmonicLoad` (from `harmonic_ramp_forcing`) steps only its support, the
K modes it loads, with its envelope times its coefficients as the load:
no sampling, no transform.  `materialize` scatters those modes back into
the full spectra.  Any other callable is sampled at every step time, its
loaded components transformed together, and all K stored modes stepped.

The step.  Every operator meets a mode through |xi|^2 alone (xi_L = |xi|),
so a batch builds one per distinct |xi|^2 it steps (146 for the 544 modes
at n = 32) and gathers the rows.  On x = (c, i eta, 0) a step is two real
products per row: w = Maug x + load = (M c + load, i eta, i eta_t), then
x_new = Gh w.  Gh = A^-1 [fluid_mass/dt I | bending g | plate inertia g]
comes from the Cholesky factor as L^-T (L^-1 X), which keeps the energy
identity at roundoff (a stored A^-1 biased it to 6e-11 on the kappa = 5/2
ladder); fields differ from that older step at roundoff.  Maug's last two
rows give eta by Euler and eta_t = trace g . c; the load is prescaled by
dt / fluid_mass once per block.

A run advances in blocks of about 64 KiB of states (227 steps at K = 1,
one step in 2D at n = 32).  Points that share the grid, dt and forcing (a
ladder's) step together in `run_batch`, their coefficients arrays over
the points and their matrices stacked on a leading axis; a run alone is
one.  Around the step loop everything is one pass per block for all the
points: the load quadrature, the ledger columns (from the stored states
and the loop's M c), the snapshot pressures, and one inverse transform per
field kind in `materialize`.  A trajectory holds one array per field kind,
the snapshots leading; `check_invariants` checks them at once.  The ledger
is one (8, steps) buffer per point of per-step increments, summed in step
order after the last block.
"""
from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .artifacts import save_snapshots, write_csv
from .errors import AssemblyError, GridMismatchError, InvariantError, ParameterError, check_range
from .scaling import ModelParams, eps_power, validate_theorem_regime
from .spectral import (PeriodicGrid, VerticalNodes, _step_count, _steps_per_block,
                       drop_nyquist)

logger = logging.getLogger("lubelastic.fsi")

Forcing = Callable[[float], tuple[np.ndarray, ...]]


# ----------------------------------------------------------------------
# parameters, state, ledger
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FsiParams:
    """Everything one coupled run needs.

    forcing(t) must return d = dim + 1 arrays of shape grid.shape + (m,),
    the volume-force components sampled on the reference channel; it must be
    bounded in time.  Only forcing(0.0) is checked here; a run rejects the
    first step time whose forcing is not finite.  A `HarmonicLoad` answers
    the call too, but a run reads its coefficients instead.
    """

    model: ModelParams
    grid: PeriodicGrid
    vnodes: VerticalNodes
    dt: float
    forcing: Forcing

    def __post_init__(self):
        if self.model.dim != self.grid.dim:
            raise ParameterError(
                f"model dim {self.model.dim} does not match grid dim {self.grid.dim}"
            )
        check_range(dt=self.dt)
        f0 = self.forcing(0.0)
        if len(f0) != self.grid.dim + 1:
            raise ParameterError(
                f"forcing must return {self.grid.dim + 1} components, got {len(f0)}"
            )
        for comp in f0:
            if np.asarray(comp).shape != self.grid.shape + (self.vnodes.m,):
                raise ParameterError("forcing component has wrong shape")
            if not np.all(np.isfinite(comp)):
                raise ParameterError("forcing must be finite")


@dataclass(frozen=True, eq=False)
class FsiState:
    """One snapshot as plain arrays: the velocity components v and the
    pressure p, grid.shape + (m,) each, the plate displacement eta and
    velocity eta_t, grid.shape each, at rescaled time t."""

    v: tuple[np.ndarray, ...]
    p: np.ndarray
    eta: np.ndarray
    eta_t: np.ndarray
    t: float

    def check_invariants(self, params: "FsiParams") -> dict:
        """`check_invariants` of this snapshot alone, its measurements as floats."""
        found = check_invariants(params, [self.t], tuple(c[None] for c in self.v),
                                 self.eta[None], self.eta_t[None])
        return {key: float(x[0]) for key, x in found.items()}


def check_invariants(params: "FsiParams", times, v: Sequence[np.ndarray], eta: np.ndarray,
                     eta_t: np.ndarray) -> dict[str, np.ndarray]:
    """Verify the discrete constraints at N snapshots held as a trajectory
    holds them: times (N,), velocity components v, (N,) + grid.shape + (m,)
    each, and eta, eta_t, (N,) + grid.shape.  Returns each measurement as
    an (N,) array; raises InvariantError for the first snapshot that breaks
    a bound, naming its index and time.

    The bounds: the scaled divergence integrated up from the bottom wall,
    v3 / eps + int_{-1}^{y3} div' v', is within 1e-9 of the velocity
    gradient's norm; the top vertical velocity matches eps**-tau * eta_t
    within 1e-10 of the largest velocity value; the horizontal top traces
    and the mean of eta are within 1e-13 and 1e-12 of their scales.  The
    integral is the constraint as the solver holds it; the derivative of the
    nodal v3 reads its interpolation error (7e-7 of the gradient at m = 10).
    """
    eps = params.model.eps
    grid, ops, quad = params.grid, params.vnodes.ops, params.vnodes.weights
    dh, N = grid.dim, len(times)
    vs = np.stack(v)  # (d, N) + grid.shape + (m,)
    # one transform of every component and snapshot, the horizontal axes leading
    hat = np.moveaxis(grid.rfft(np.moveaxis(vs, (0, 1), (-2, -1))), (-2, -1), (0, 1))
    prof = hat.reshape(dh + 1, N, -1, vs.shape[-1])  # (d, N, K, m)
    xi = _xi_stack(grid)  # (K, dh)
    w = grid.mode_weights.ravel()
    # the weighted channel integral of |f|^2 over every mode
    sq = lambda f, weights=w: (np.abs(f) ** 2 @ quad) @ weights
    div_norm = np.sqrt(sq(prof[dh] / eps + ops.antiderivative(
        sum(1j * xi[:, a, None] * prof[a] for a in range(dh)))))
    grad_norm = np.sqrt((sq(ops.differentiate(prof) / eps)
                         + sq(prof, w * np.einsum("ka,ka->k", xi, xi))).sum(axis=0))
    per_snapshot = lambda a: a.reshape(N, -1).max(axis=1)
    v_scale = np.maximum(per_snapshot(np.abs(vs).max(axis=0)), 1e-300)
    # kinematic trace: top v3 is eps**-tau * eta_t; the tolerance follows the
    # whole field, since the top trace itself tends to zero as the plate settles
    t_scale = eps_power(eps, -params.model.tau)
    kin_gap = per_snapshot(np.abs(vs[dh, ..., -1] - t_scale * np.asarray(eta_t)))
    # plate moves vertically only: horizontal top traces vanish
    horiz_top = per_snapshot(np.abs(vs[:dh, ..., -1]).max(axis=0))
    eta = np.asarray(eta).reshape(N, -1)
    mean_eta = np.abs(eta.mean(axis=1))
    checks = [  # each bound, and the message of a snapshot j that breaks it
        # absolute floor covers force-balanced steady states with no flow
        (div_norm <= 1e-9 * grad_norm + 1e-15 * np.maximum(1.0, grad_norm),
         lambda j: f"scaled divergence {div_norm[j]:.3e} exceeds 1.0e-09 * {grad_norm[j]:.3e}"),
        (kin_gap <= 1e-10 * v_scale + 1e-300,
         lambda j: f"kinematic trace violated by {kin_gap[j]:.3e}"),
        (horiz_top <= 1e-13 * v_scale,
         lambda j: f"horizontal top trace {horiz_top[j]:.3e} not zero"),
        (mean_eta <= 1e-12 * np.maximum(np.abs(eta).max(axis=1), 1e-300),
         lambda j: f"eta mean {mean_eta[j]:.3e} not zero"),
    ]
    held = np.array([ok for ok, _ in checks])
    if not held.all():
        j = int(np.argmin(held.all(axis=0)))
        message = checks[int(np.argmin(held[:, j]))][1](j)
        raise InvariantError(f"{message} at snapshot {j}, t = {times[j]}")
    return {"div_norm": div_norm, "grad_norm": grad_norm, "kinematic_gap": kin_gap,
            "horizontal_top_trace": horiz_top, "eta_mean": mean_eta}


@dataclass(eq=False)
class EnergyLedger:
    """Per-step energy bookkeeping, one float array per entry.

    Instantaneous entries (fluid_kinetic, plate_kinetic, bending) are state
    energies after the step; dissipation and work entries are running time
    integrals.  All entries are nonnegative except work.
    """

    t: np.ndarray
    fluid_kinetic: np.ndarray
    plate_kinetic: np.ndarray
    bending: np.ndarray
    viscous_dissipation: np.ndarray
    viscoelastic_dissipation: np.ndarray
    numerical_dissipation: np.ndarray
    work: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, np.asarray(getattr(self, f.name), dtype=float))

    def __len__(self) -> int:
        return len(self.t)

    def lhs(self, include_numerical: bool = False) -> np.ndarray:
        """Left side of the energy inequality at each step: energies plus
        accumulated dissipation."""
        out = (self.fluid_kinetic + self.plate_kinetic + self.bending
               + self.viscous_dissipation + self.viscoelastic_dissipation)
        if include_numerical:
            out = out + self.numerical_dissipation
        return out

    def slack(self) -> np.ndarray:
        """work - lhs, nonnegative for a dissipative scheme."""
        return self.work - self.lhs()

    def identity_residual(self) -> np.ndarray:
        """lhs including numerical dissipation minus work; zero to roundoff."""
        return self.lhs(include_numerical=True) - self.work

    def scale(self) -> np.ndarray:
        """Per-step max(|lhs including numerical dissipation|, |work|, 1e-300)."""
        return np.maximum(np.abs(self.lhs(True)), np.maximum(np.abs(self.work), 1e-300))

    def identity_residual_rel(self) -> np.ndarray:
        """|identity_residual| relative to the step's scale()."""
        return np.abs(self.identity_residual()) / self.scale()

    def total_energy(self) -> np.ndarray:
        return self.fluid_kinetic + self.plate_kinetic + self.bending

    def to_csv(self, path) -> None:
        """Write one row per step: its number, every entry and the slack."""
        names = [f.name for f in fields(self)]
        write_csv(path, ["step", *names, "slack"],
                  [np.arange(1, len(self) + 1), *(getattr(self, n) for n in names), self.slack()])


@dataclass(frozen=True, eq=False)
class FsiTrajectory:
    """A run's N snapshots, one array per field kind with the snapshots along
    its leading axis: the d = dim + 1 velocity components v and the pressure
    p, (N,) + grid.shape + (m,) each, and the plate displacement eta and
    velocity eta_t, (N,) + grid.shape each; and the run's energy ledger."""

    params: FsiParams
    times: np.ndarray
    v: tuple[np.ndarray, ...]
    p: np.ndarray
    eta: np.ndarray
    eta_t: np.ndarray
    ledger: EnergyLedger

    @cached_property
    def states(self) -> tuple[FsiState, ...]:
        """The snapshots as `FsiState` records of views, built when first read."""
        return tuple(FsiState(v=tuple(comp[j] for comp in self.v), p=self.p[j],
                              eta=self.eta[j], eta_t=self.eta_t[j], t=t)
                     for j, t in enumerate(self.times.tolist()))

    def save(self, outdir) -> list[str]:
        """Write the grid, every snapshot's fields and the ledger as CSV files."""
        *horizontal, v3 = self.v
        written = save_snapshots(outdir, self.params.grid, self.params.vnodes, {
            "eta": self.eta, "eta_t": self.eta_t,
            **{f"v{a + 1}": comp for a, comp in enumerate(horizontal)}, "v3": v3, "p": self.p})
        path = os.path.join(outdir, "energy_ledger.csv")
        self.ledger.to_csv(path)
        return written + [path]


# ----------------------------------------------------------------------
# the batch's operator
# ----------------------------------------------------------------------

def _xi_stack(grid: PeriodicGrid) -> np.ndarray:
    """Angular wavenumber vectors for every stored mode, shape (K, dim)."""
    mesh = np.meshgrid(*(k.astype(float) for k in grid.wavenumbers), indexing="ij")
    return 2.0 * np.pi * np.stack([k.ravel() for k in mesh], axis=1)


def _real(c: np.ndarray) -> np.ndarray:
    """Complex vectors (..., s) as a view of their interleaved real and
    imaginary parts, (..., s, 2)."""
    return c.view(float).reshape(c.shape + (2,))


def _apply(mats: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Real stacked matrices (..., K, r, s) times complex vectors (..., K, s):
    one real matmul on the interleaved parts, without copies."""
    return (mats @ _real(c)).view(complex)[..., 0]


def _re_inner(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k w_k Re(conj(a_k) . b_k) for complex stacks (B, S, K, s) of B
    steps and S solvers, shape (S, B): one product per solver."""
    return (a.view(float) * b.view(float)).sum(axis=-1).swapaxes(0, 1) @ w


class _Batch:
    """The S parameter sets of one `run_batch` call, which share the grid, dt
    and forcing (ParameterError otherwise): the grid's geometry once, and
    every eps-dependent coefficient and step matrix stacked along a leading
    solver axis.

    The batch steps the K modes `stepped_modes` names, modes (their flat
    indices, or slice(None) for all); every per-mode array covers those
    only.  frame[p, k] is stepped mode k's unit vector e_p, row p*K + k of a
    state holds e_p . v', and xi_L = e0 . xi.  Coefficients are (S,) arrays,
    and Gh, Maug (the module docstring's step) and visc (S, P*K, ...) stacks.
    A dt so small that A overflows at any mode raises ParameterError.
    """

    def __init__(self, params: Sequence[FsiParams]):
        first = params[0]
        shared = lambda p: (p.grid, p.dt, p.forcing)  # the forcing's shape fixes m
        if any(shared(p) != shared(first) for p in params):
            raise ParameterError("runs stepped together must share the grid, dt and forcing")
        for p in params:
            check = validate_theorem_regime(p.model.kappa)
            if not check.ok:
                logger.warning("running outside the guaranteed-rate regime: %s", check.reason)
        self.params = list(params)
        self.grid, self.vnodes, self.dt = first.grid, first.vnodes, first.dt
        modes = stepped_modes(first.forcing, self.grid)
        # the geometry and the operator are assembled on all the grid's Kg
        # modes, for the overflow check, then only the stepped modes are kept
        xi = _xi_stack(self.grid)
        Kg, P = xi.shape[0], self.grid.dim
        self.K, self.P = len(modes), P
        # all of them as a slice, so that what is kept is views, not copies
        modes = self.modes = slice(None) if self.K == Kg else modes
        mi = self.mi = self.vnodes.m - 2
        xi2 = np.einsum("ka,ka->k", xi, xi)
        e0 = np.zeros_like(xi)
        e0[:, 0] = 1.0
        np.divide(xi, np.sqrt(xi2)[:, None], out=e0, where=xi2[:, None] > 0)
        across = [np.stack([-e0[:, 1], e0[:, 0]], axis=1)] if P == 2 else []
        frame = np.stack([e0, *across])
        xi_L = np.sqrt(xi2)  # e0 . xi, a function of |xi|^2 alone as rounded

        models = [p.model for p in params]
        col = lambda value: np.array([value(mdl) for mdl in models])
        e = lambda expo: col(lambda mdl: eps_power(mdl.eps, expo(mdl)))
        rho_f, rho_s = col(lambda mdl: mdl.rho_f), col(lambda mdl: mdl.rho_s)
        theta, B = col(lambda mdl: mdl.theta), col(lambda mdl: mdl.B)
        self.eps, self.eps2, self.nu = (col(lambda mdl: mdl.eps), col(lambda mdl: mdl.eps**2),
                                        col(lambda mdl: mdl.nu))
        # step-operator coefficients; the plate test function equals the
        # vertical test trace, while the solution's plate velocity is
        # eps^tau times its own vertical trace
        self.fluid_mass = rho_f * e(lambda mdl: 1 - mdl.tau)
        self.rho_s_mass = rho_s * e(lambda mdl: 2 - mdl.kappa - mdl.tau)
        self.theta_rank1 = theta * e(lambda mdl: 2)
        self.bending_rank1 = B * e(lambda mdl: mdl.tau + 2 - mdl.kappa)
        # trace relation (the work's factor too), ledger and pressure coefficients
        self.trace = e(lambda mdl: mdl.tau + 1)
        self.plate_kin = rho_s * e(lambda mdl: -mdl.kappa - 2 * mdl.tau)
        self.bend = B * e(lambda mdl: -mdl.kappa)
        self.viscoelastic = theta * e(lambda mdl: -mdl.tau)
        self.fluid_kin = rho_f * self.eps
        self.inert = rho_f * e(lambda mdl: -mdl.tau)

        ops = self.vnodes.ops
        sl = slice(1, -1)
        self.Mint, self.MAint = ops.M[sl, :], ops.M_Al[sl, :]
        Mi, Ki, MAi, Ci = ops.M[sl, sl], ops.K[sl, sl], ops.MA[sl, sl], ops.C_dA[sl, sl]
        Csym = Ci + Ci.T
        # a mode enters every operator through |xi|^2 alone (xi_L = |xi|):
        # assemble one per distinct value u of the grid's, rows p*U + u
        u, rep, group = np.unique(xi2, return_index=True, return_inverse=True)
        U = len(u)
        u_rows = np.tile(u, P)[:, None, None]   # |xi|^2 on every row
        lam = np.zeros_like(u_rows)
        lam[:U] = u_rows[:U]
        # the coefficients scale the solver axis of (S, P*U, mi, mi) stacks
        eps, eps2 = self.eps[:, None, None, None], self.eps2[:, None, None, None]
        mass = Mi + eps2 * (lam * MAi)
        visc = (0.5 * u_rows) * Mi + (1.5 * lam) * Mi + 0.5 * (
            Ki / eps2 + lam * Csym + eps2 * ((u_rows * lam) * MAi))
        visc *= (2.0 * self.nu)[:, None, None, None]
        g = xi_L[:, None] * ops.weights[sl]
        gu, u4, dt = g[rep], u**2, self.dt
        with np.errstate(over="ignore", invalid="ignore"):  # a tiny dt: checked below
            plate = ((self.rho_s_mass / dt)[:, None] + self.theta_rank1[:, None] * u4
                     + (self.bending_rank1 * dt)[:, None] * u4)
            A = (self.fluid_mass / dt)[:, None, None, None] * mass + eps * visc
            A[:, :U] += plate[:, :, None, None] * (gu[:, :, None] * gu[:, None, :])
        # whether dt is refused does not depend on the modes stepped
        if not np.isfinite(A).all():
            raise ParameterError(f"dt = {dt} is so small that the step operator overflows")
        # the step of the module docstring, on the values the stepped modes take
        used, pick = np.unique(group[modes], return_inverse=True)
        part = lambda x: x.reshape((len(x), P, U) + x.shape[2:])[:, :, used]
        try:
            Linv = np.linalg.inv(np.linalg.cholesky(part(A)))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - signals a bug
            raise AssemblyError(f"step operator factorization failed: {exc}") from exc
        gu, tg = gu[used], self.trace[:, None, None] * gu[used]
        X = np.zeros(Linv.shape[:-1] + (mi + 2,))
        X[..., :mi] = (self.fluid_mass / dt)[:, None, None, None, None] * np.eye(mi)
        X[:, 0, :, :, mi] = (-self.eps * self.bend)[:, None, None] * (u4[used, None] * gu)
        X[:, 0, :, :, mi + 1] = (self.eps / dt * self.plate_kin)[:, None, None] * gu
        Gh = np.zeros(X.shape[:-2] + (mi + 2, mi + 2))  # square: faster; row mi + 1 idle
        Gh[..., :mi, :], Gh[..., mi, mi] = np.swapaxes(Linv, -1, -2) @ (Linv @ X), 1.0
        Maug = np.zeros_like(Gh)
        Maug[..., :mi, :mi], Maug[..., mi, mi] = part(mass), 1.0
        Maug[:, 0, :, mi, :mi], Maug[:, 0, :, mi + 1, :mi] = dt * tg, tg
        # the stepped modes' rows p*K + k of each stack, and their vectors
        rows = lambda x: x[:, :, pick].reshape((len(x), P * self.K) + x.shape[3:])
        self.Gh, self.Maug, self.visc = rows(Gh), rows(Maug), rows(part(visc))
        self.xi2, self.xi4, self.xi_L = xi2[modes], xi2[modes]**2, xi_L[modes]
        self.frame = frame[:, modes]
        self.w = self.grid.mode_weights.ravel()[modes]
        self.wr = np.tile(self.w, P)  # the rows' weights

    def profiles(self, c: np.ndarray) -> np.ndarray:
        """Embed interior coefficients (..., mi) into full vertical profiles
        (..., m)."""
        full = np.zeros(c.shape[:-1] + (self.vnodes.m,), dtype=complex)
        full[..., 1:-1] = c
        return full

    def in_frame(self, fhat: dict) -> np.ndarray | None:
        """The loaded horizontal forcing components, coefficients (..., K, m)
        each, rotated into the frame: rows (..., P*K, m), or None when no
        horizontal component is loaded."""
        # the frame is real: scale the interleaved real and imaginary parts
        parts = [(self.frame[:, :, a, None]
                  * np.ascontiguousarray(fhat[a]).view(float)[..., None, :, :]).view(complex)
                 for a in range(self.P) if a in fhat]
        if not parts:
            return None
        rows = sum(parts[1:], parts[0])
        return rows.reshape(rows.shape[:-3] + (self.P * self.K, -1))


# ----------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------

def _quadrature(batch: _Batch, fhat: dict, nb: int) -> np.ndarray:
    """Forcing quadrature against the velocity basis, rows (B, S, P*K, mi),
    from the loaded components' coefficients (B, K, m).  The frame, xi_L and
    the Gram matrices are the shared grid's, so every product is taken once;
    only the vertical load's eps differs between the solvers."""
    K, P = batch.K, batch.P
    Fq = np.zeros((nb, len(batch.params), P * K, batch.mi), dtype=complex)
    rows = batch.in_frame(fhat)
    if rows is not None:
        Fq += (rows @ batch.Mint.T)[:, None]
    if P in fhat:
        # integrals of A_i * f3 profile; the vertical load works on the
        # along-xi part only
        eps = batch.eps[:, None, None]
        Fq[:, :, :K] += (1j * eps * batch.xi_L[:, None]) * (fhat[P] @ batch.MAint.T)[:, None]
    return Fq


def _record(batch: _Batch, columns: np.ndarray, t, c, eta, eta_t, Fq, mass_c) -> None:
    """Write a block's ledger columns (S, 8, B) for every solver, in
    `EnergyLedger` field order, with the viscous, viscoelastic, numerical
    and work integrals as per-step increments.  c, eta, eta_t and mass_c
    stack the state before the block and the block's B states, (B + 1, S,
    ...); mass_c holds their M c, from the step loop."""
    w, wr = batch.w, batch.wr
    wx = w * batch.xi4
    dt = batch.dt
    fluid, plate_kin = 0.5 * batch.fluid_kin[:, None], 0.5 * batch.plate_kin[:, None]
    bend = 0.5 * batch.bend[:, None]
    work, viscoelastic = dt * batch.trace[:, None], dt * batch.viscoelastic[:, None]
    # sum_k weights_k |x_k|^2 per step and solver, as (S, B)
    sq = lambda weights, x: np.sum(weights * np.abs(x) ** 2, axis=-1).T
    ef = fluid * _re_inner(wr, c[1:], mass_c[1:])
    epk = plate_kin * sq(w, eta_t[1:])
    eb = bend * sq(wx, eta[1:])
    bad = (np.minimum(ef, np.minimum(epk, eb))
           < -1e-12 * np.maximum(np.maximum(ef, epk), np.maximum(eb, 1e-300)))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise AssemblyError(
            f"negative energy encountered at t = {t[j]} (fluid {ef[i, j]:.3e}, "
            f"plate {epk[i, j]:.3e}, bending {eb[i, j]:.3e}); quadratic-form "
            f"assembly is inconsistent"
        )
    # M dc is the difference of the two mass products
    dn = (fluid * _re_inner(wr, c[1:] - c[:-1], mass_c[1:] - mass_c[:-1])
          + plate_kin * sq(w, eta_t[1:] - eta_t[:-1]) + bend * sq(wx, eta[1:] - eta[:-1]))
    columns[:, 0] = t
    columns[:, 1:] = np.stack([ef, epk, eb,
                               work * _re_inner(wr, c[1:], _apply(batch.visc, c[1:])),
                               viscoelastic * sq(wx, eta_t[1:]), dn,
                               work * _re_inner(wr, c[1:], Fq)], axis=1)


def pressure_hat(batch: _Batch, c_old: np.ndarray, c_new: np.ndarray, fhat: dict,
                 c_older: np.ndarray | None = None) -> np.ndarray:
    """Pressure profiles per mode, (..., S, K, m), from the along-xi
    momentum balance; the zero mode comes from the vertical balance pinned
    by the plate.

    c_old and c_new stack the solvers' rows (..., S, P*K, mi) before and
    after the step; fhat maps each loaded forcing component to its
    coefficients (..., K, m) at the step's end.  With the states before
    c_old as well, the inertia term uses the second-order backward quotient,
    otherwise the first-order one.
    """
    ops = batch.vnodes.ops
    K, dt, xi2 = batch.K, batch.dt, batch.xi2
    eps, eps2, nu, inert = (x[:, None, None] for x in (batch.eps, batch.eps2, batch.nu,
                                                       batch.inert))
    v, v_old = batch.profiles(c_new[..., :K, :]), batch.profiles(c_old[..., :K, :])
    if c_older is None:
        dv = (v - v_old) / dt
    else:
        dv = (3.0 * v - 4.0 * v_old + batch.profiles(c_older[..., :K, :])) / (2.0 * dt)
    force = batch.in_frame(fhat)
    D2 = ops.D @ ops.D
    rhs = ((0.0 if force is None else force[..., None, :K, :])
           + nu * (-xi2[:, None] * v + (v @ D2.T) / eps2)
           - inert * dv)
    phat = np.zeros(v.shape, dtype=complex)
    nz = xi2 > 0
    phat[..., nz, :] = -1j * (batch.xi_L[:, None] * rhs)[..., nz, :] / xi2[nz, None]
    # zero mode: d/dy3 p = eps * f3, level pinned by the plate row, which
    # reads zero because the mean plate harmonic never moves
    if batch.P in fhat and not nz.all():
        anti = ops.antiderivative(fhat[batch.P][..., ~nz, :])
        phat[..., ~nz, :] = eps * (anti - anti[..., -1:])[..., None, :, :]
    return phat


def materialize(batch: _Batch, c: np.ndarray, eta: np.ndarray, eta_t: np.ndarray,
                phat: np.ndarray) -> list[np.ndarray]:
    """The fields of the states with rows c (N, S, P*K, mi), plate harmonics
    eta, eta_t (N, S, K) and pressure coefficients phat (N, S, K, m) of the
    stepped modes: the velocity components, the pressure, eta and eta_t, each
    an array (S, N) + grid.shape, with (m,) behind it for the channel
    fields.  Each field kind is scattered into the grid's full spectrum,
    every other mode 0, and takes one transform over all N * S states."""
    grid, vn = batch.grid, batch.vnodes
    N, S = c.shape[:2]
    full = batch.profiles(c)
    # back to Cartesian components: v_a = sum_p (e_p)_a v_p
    cart = (batch.frame[..., None] * full.reshape(N, S, batch.P, batch.K, 1, vn.m)).sum(axis=2)

    def nodal(hat: np.ndarray) -> np.ndarray:
        spectrum = np.zeros((N, S) + grid.spectral_shape + hat.shape[3:], dtype=complex)
        spectrum.reshape((N, S, -1) + hat.shape[3:])[:, :, batch.modes] = hat
        # the horizontal axes lead the transform, the states follow them
        values = grid.irfft(np.moveaxis(spectrum, (0, 1), (grid.dim, grid.dim + 1)))
        return np.moveaxis(values, (grid.dim + 1, grid.dim), (0, 1))

    v = [nodal(cart[..., a, :]) for a in range(grid.dim)]
    # the vertical velocity from the divergence xi . v' = xi_L v_L
    eps = batch.eps[:, None, None]
    v.append(nodal((-1j * eps) * vn.ops.antiderivative(batch.xi_L[:, None] * full[:, :, :batch.K])))
    return [*v, nodal(phat), nodal(eta), nodal(eta_t)]


def run_batch(params: Sequence[FsiParams], t_end: float,
              snapshot_stride: int = 1) -> list[FsiTrajectory]:
    """Step every parameter set from the zero state to t_end in one loop,
    keeping every snapshot_stride-th state and the last one, and the energy
    ledger; each trajectory is bitwise the one its parameters make alone.
    The parameter sets must share the grid, dt and forcing objects
    (ParameterError otherwise).  Each step solves, row by row,
    A c_new = (fluid_mass / dt) M c + eps Fq + plate_rhs g by the augmented
    product pair of the module docstring.  Only the modes `stepped_modes`
    names are stepped, and each block's load comes from one `sample_forcing`
    call.  A forcing that is not finite at some step time raises
    ParameterError naming that time.
    """
    nsteps = _step_count(t_end, params[0].dt)
    check_range(1, closed=True, integer=True, snapshot_stride=snapshot_stride)
    batch = _Batch(params)
    dt, forcing = batch.dt, params[0].forcing
    S, K, P, mi = len(params), batch.K, batch.P, batch.mi
    block = _steps_per_block(16 * P * max(K, 1) * mi)  # an unloaded run steps no mode
    # the loop's x[j - 1] and w[j] of the block's j-th states, w[0] of the
    # state before the block, and the prescaled load on c's entries
    x = np.zeros((block, S, P * K, mi + 2), dtype=complex)
    w = np.zeros((block + 1, S, P * K, mi + 2), dtype=complex)
    load, rhs = np.zeros_like(w[1:]), np.zeros_like(w[0])
    # the stored states: rows 0 and 1 hold the solvers' two states before a
    # block, row j + 1 their j-th states
    c = np.zeros((block + 2, S, P * K, mi), dtype=complex)
    eta, eta_t = np.zeros((2, block + 2, S, K), dtype=complex)
    # one column per step, in EnergyLedger field order
    ledgers = np.empty((S, 8, nsteps))
    steps = np.arange(1, nsteps + 1)
    kept = steps[(steps % snapshot_stride == 0) | (steps == nsteps)]
    times = np.concatenate([[0.0], dt * kept])
    # one array per field kind, (S, snapshots) + the field's shape, in the
    # order `materialize` gives them, every row the zero state until written
    fields = [np.repeat(f, len(times), axis=1) for f in materialize(
        batch, c[1:2], eta[1:2], eta_t[1:2], np.zeros((1, S, K, batch.vnodes.m), dtype=complex))]
    Gh, Maug = batch.Gh, batch.Maug
    scale = (batch.eps * dt / batch.fluid_mass)[:, None, None]
    # the step's products write their results in place
    x_re, w_re, rhs_re = _real(x), _real(w), _real(rhs)
    for n0 in range(0, nsteps, block):
        nb = min(block, nsteps - n0)
        t = (dt * np.arange(n0 + 1, n0 + nb + 1)).tolist()
        fhat = {i: h.reshape(nb, -1, batch.vnodes.m)[:, batch.modes]
                for i, h in sample_forcing(forcing, batch.grid, t).items()}
        Fq = _quadrature(batch, fhat, nb)
        np.multiply(scale, Fq, out=load[:nb, ..., :mi])
        for j in range(nb):
            np.add(w[j], load[j], out=rhs)
            np.matmul(Gh, rhs_re, out=x_re[j])
            np.matmul(Maug, x_re[j], out=w_re[j + 1])
        # the stored states, and M c, as contiguous copies: the passes below
        # are faster on them
        c[2:nb + 2] = x[:nb, ..., :mi]
        eta[2:nb + 2], eta_t[2:nb + 2] = np.moveaxis(-1j * w[1:nb + 1, :, :K, mi:], -1, 0)
        span = slice(1, nb + 2)
        _record(batch, ledgers[:, :, n0:n0 + nb], t, c[span], eta[span], eta_t[span], Fq,
                w[:nb + 1, ..., :mi].copy())
        # the block's snapshots, rows lo + 1 to hi of the fields, at its steps
        # j: row j + 2 of c holds step j's state, j and j + 1 those before
        lo, hi = np.searchsorted(kept, [n0 + 1, n0 + nb + 1])
        at = kept[lo:hi] - (n0 + 1)
        if at.size:
            phat = pressure_hat(batch, c[at + 1], c[at + 2],
                                {a: h[at] for a, h in fhat.items()}, c[at])
            if n0 + at[0] == 0:  # the first step has no state two back
                phat[0] = pressure_hat(batch, c[1], c[2], {a: h[0] for a, h in fhat.items()})
            for f, values in zip(fields, materialize(batch, c[at + 2], eta[at + 2],
                                                     eta_t[at + 2], phat)):
                f[:, lo + 1:hi + 1] = values
        for buf in (c, eta, eta_t):
            buf[:2] = buf[nb:nb + 2]
        w[0] = w[nb]
    # the integrals' increments summed in step order, in place
    np.cumsum(ledgers[:, 4:], axis=2, out=ledgers[:, 4:])
    *v, p, eta, eta_t = fields
    return [FsiTrajectory(params=params[i], times=times, v=tuple(comp[i] for comp in v),
                          p=p[i], eta=eta[i], eta_t=eta_t[i], ledger=EnergyLedger(*ledgers[i]))
            for i in range(S)]


def run_fsi(params: FsiParams, t_end: float, snapshot_stride: int = 1) -> FsiTrajectory:
    """Run from trivial initial data to t_end; returns trajectory and ledger."""
    return run_batch([params], t_end, snapshot_stride)[0]


# ----------------------------------------------------------------------
# forcing helpers
# ----------------------------------------------------------------------

def stepped_modes(forcing: Forcing, grid: PeriodicGrid) -> np.ndarray:
    """The flat indices of the grid's modes that a run under this forcing
    steps: a `HarmonicLoad`'s support, every mode for any other callable.
    The problem is linear, Fourier-diagonal and starts at rest, so a mode
    that is never loaded stays exactly zero."""
    if isinstance(forcing, HarmonicLoad):
        return forcing.support
    return np.arange(np.prod(grid.spectral_shape))


def factored_operators(forcing: Forcing, grid: PeriodicGrid) -> int:
    """The step operators a run under this forcing factors, one per |xi|^2 it steps."""
    xi = _xi_stack(grid)[stepped_modes(forcing, grid)]
    return len(np.unique(np.einsum("ka,ka->k", xi, xi)))


def sample_forcing(forcing: Forcing, grid: PeriodicGrid, times) -> dict[int, np.ndarray]:
    """Coefficients of the loaded forcing components at each of the given
    times: component index -> array (len(times),) + grid.spectral_shape + (m,).

    A `HarmonicLoad` gives its envelope at the times times its coefficients
    (nothing when its support is empty).  Any other forcing is called once
    per time.  The components that carry load at any of the times, found by
    one reduction over the stacked samples, are transformed together, in one
    batched transform; the others are left out.  The coefficients at the
    Nyquist index n/2 of every horizontal axis are zeroed: the solver steps
    each stored mode on its own, and only a load without them keeps the
    stored (k1, n/2) and (n - k1, n/2) pairs complex conjugate.  Raises
    ParameterError naming the first time whose forcing is not finite.
    """
    if isinstance(forcing, HarmonicLoad):
        if not forcing.support.size:
            return {}
        r = smooth_ramp(np.asarray(times, dtype=float), forcing.ramp_time)
        return {forcing.component: r.reshape((-1,) + (1,) * forcing.hat.ndim) * forcing.hat}
    times = [float(t) for t in times]
    samples = np.array([forcing(t) for t in times], dtype=float)
    loaded = np.flatnonzero(samples.any(axis=(0, *range(2, samples.ndim)))).tolist()
    if not loaded:
        return {}
    stack = samples[:, loaded]
    # time and component axes go behind the horizontal and vertical ones
    hats = grid.rfft(np.moveaxis(stack, (0, 1), (-1, -2)))
    finite = np.isfinite(hats).reshape(-1, len(times)).all(axis=0)
    if not finite.all():
        raise ParameterError(f"forcing is not finite at t = {times[np.argmin(finite)]}")
    hats = np.moveaxis(drop_nyquist(grid, hats), (-2, -1), (0, 1))
    return dict(zip(loaded, hats))


def smooth_ramp(t, ramp_time: float):
    """C-infinity ramp 1 - exp(-(t/ramp_time)^2) for t > 0, 0 before, flat
    at t = 0; t is a time or an array of times."""
    t = np.asarray(t, dtype=float)
    return np.where(t <= 0.0, 0.0, -np.expm1(-((t / ramp_time) ** 2)))[()]


@dataclass(frozen=True, eq=False)
class HarmonicLoad:
    """A volume force held as data: one velocity component whose
    coefficients are hat, shape grid.spectral_shape + (m,), times the
    envelope smooth_ramp(t, ramp_time); it checks all three and freezes a
    copy of hat less its Nyquist coefficients, which `sample_forcing` drops
    from a sampled load too.  support holds the flat indices of the modes
    whose coefficients are not all zero.  Called at t, the load gives its
    d = dim + 1 nodal components, as any forcing callable does."""

    grid: PeriodicGrid
    component: int
    hat: np.ndarray
    ramp_time: float
    support: np.ndarray = field(init=False)

    def __post_init__(self):
        check_range(0, self.grid.dim + 1, closed=True, integer=True, component=self.component)
        check_range(ramp_time=self.ramp_time)
        hat = np.array(self.hat, dtype=complex)
        if hat.shape[:-1] != self.grid.spectral_shape:
            raise GridMismatchError(f"load coefficients of shape {hat.shape} are not "
                                    f"{self.grid.spectral_shape} plus one vertical axis")
        drop_nyquist(self.grid, hat)
        hat.flags.writeable = False
        object.__setattr__(self, "hat", hat)
        per_mode = hat.reshape(-1, hat.shape[-1])
        object.__setattr__(self, "support", np.flatnonzero(per_mode.any(axis=1)))

    def __call__(self, t: float) -> tuple[np.ndarray, ...]:
        profile = smooth_ramp(t, self.ramp_time) * self.grid.irfft(self.hat)
        zero = np.zeros_like(profile)
        return tuple(profile if i == self.component else zero
                     for i in range(self.grid.dim + 1))


def harmonic_ramp_forcing(grid: PeriodicGrid, vnodes: VerticalNodes,
                          amplitude: float = 1.0, wavevector: Sequence[int] = (1,),
                          component: int = 0, ramp_time: float = 0.1) -> HarmonicLoad:
    """Volume force amplitude*sin(2*pi*k.x')*ramp(t) in one velocity component,
    constant across the channel depth.  The rule for its support: the
    coefficients are set, not transformed from a sampled sine (which leaves
    roundoff in every mode), at the stored entries of +-k, -i amplitude/2
    at k and +i amplitude/2 at -k, each where the half spectrum holds it;
    every other coefficient is exactly 0, so no threshold is needed."""
    wavevector = tuple(wavevector)
    if len(wavevector) != grid.dim:
        raise ParameterError(f"wavevector must have {grid.dim} entries")
    check_range(-np.inf, np.inf, amplitude=amplitude)
    if any(abs(k) >= grid.n // 2 or not hasattr(type(k), "__index__") for k in wavevector):
        # |k| > n/2 aliases, k = n/2 samples sin to zero, a fractional k is not periodic
        raise ParameterError(
            f"wavevector {wavevector} is not resolved on n = {grid.n}: "
            f"every k must be an integer with |k| below {grid.n // 2}"
        )
    hat = np.zeros(grid.spectral_shape + (vnodes.m,), dtype=complex)
    for sign in (1, -1):
        k = [sign * int(kk) for kk in wavevector]
        if k[-1] >= 0:
            hat[tuple(kk % grid.n for kk in k[:-1]) + (k[-1],)] += -0.5j * sign * amplitude
    return HarmonicLoad(grid, component, hat, ramp_time)
