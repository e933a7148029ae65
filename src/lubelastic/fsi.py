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

to roundoff, with every dissipation term nonnegative.  The step's mass
product and the ledger's quadratic forms are batched real products of the
stored per-mode matrices with the coefficients' real and imaginary parts.
The pressure is not a primal unknown; it is recovered from the horizontal
momentum balance per mode, and for the zero mode from the vertical momentum
balance pinned by the plate row.
"""
from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .artifacts import save_snapshots, velocity_named, write_csv
from .errors import AssemblyError, InvariantError, ParameterError, RegimeError
from .scaling import ModelParams, eps_power, validate_theorem_regime
from .spectral import ChannelField, PeriodicField, PeriodicGrid, VerticalNodes

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
    bounded in time.  The coupled scaling regime tau = kappa - 3 is enforced.
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
        if not self.model.coupled_regime:
            raise RegimeError(
                f"coupled runs require tau = kappa - 3, got tau={self.model.tau}, "
                f"kappa={self.model.kappa}"
            )
        if self.dt <= 0:
            raise ParameterError(f"dt must be positive, got {self.dt}")
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
    """Coupled state: velocity components, pressure, plate displacement and
    velocity, at one instant of rescaled time."""

    v: tuple[ChannelField, ...]
    p: ChannelField
    eta: PeriodicField
    eta_t: PeriodicField
    t: float

    def check_invariants(self, params: "FsiParams", div_tol: float = 1e-9,
                         trace_tol: float = 1e-13) -> dict:
        """Verify the discrete constraints; raises InvariantError on failure.

        Returns the measured quantities for reporting.
        """
        eps = params.model.eps
        ops = params.vnodes.ops
        grid = params.grid
        dh = grid.dim
        vhat = [comp.hat for comp in self.v]
        xi = _xi_stack(grid)  # (K, dh)
        K = xi.shape[0]
        m = params.vnodes.m
        prof = [vh.reshape(K, m) for vh in vhat]
        div_h = sum(1j * xi[:, a][:, None] * prof[a] for a in range(dh))
        dv3 = ops.differentiate(prof[dh])
        div_full = div_h + dv3 / eps
        w = grid.mode_weights.ravel()
        quad = params.vnodes.weights
        div_norm = np.sqrt(np.sum(w * (np.abs(div_full) ** 2 @ quad)).real)
        grad_sq = 0.0
        for a in range(dh + 1):
            dvert = ops.differentiate(prof[a]) / eps
            grad_sq += np.sum(w * (np.abs(dvert) ** 2 @ quad)).real
            for b in range(dh):
                dh_ab = 1j * xi[:, b][:, None] * prof[a]
                grad_sq += np.sum(w * (np.abs(dh_ab) ** 2 @ quad)).real
        grad_norm = np.sqrt(grad_sq)
        # absolute floor covers force-balanced steady states with no flow
        div_floor = div_tol * grad_norm + 1e-15 * max(1.0, grad_norm)
        if not div_norm <= div_floor:
            raise InvariantError(
                f"scaled divergence {div_norm:.3e} exceeds {div_tol:.1e} * {grad_norm:.3e}"
            )
        v_scale = max(max(np.max(np.abs(c.values)) for c in self.v), 1e-300)
        # kinematic trace: top vertical velocity is eps**-tau * eta_t; the
        # tolerance follows the whole velocity field because the top trace
        # itself tends to zero once the plate settles
        t_scale = eps_power(eps, -params.model.tau)
        top = self.v[dh].values[..., -1]
        kin_gap = np.max(np.abs(top - t_scale * self.eta_t.values))
        kin_scale = max(np.max(np.abs(top)), v_scale)
        if not kin_gap <= 1e-10 * kin_scale + 1e-300:
            raise InvariantError(f"kinematic trace violated by {kin_gap:.3e}")
        # plate moves vertically only: horizontal top traces vanish
        horiz_top = max(np.max(np.abs(self.v[a].values[..., -1])) for a in range(dh))
        if not horiz_top <= trace_tol * max(v_scale, 1.0):
            raise InvariantError(f"horizontal top trace {horiz_top:.3e} not zero")
        mean_eta = abs(self.eta.mean())
        eta_scale = max(np.max(np.abs(self.eta.values)), 1e-300)
        if not mean_eta <= 1e-12 * max(eta_scale, 1.0):
            raise InvariantError(f"eta mean {mean_eta:.3e} not zero")
        return {
            "div_norm": div_norm,
            "grad_norm": grad_norm,
            "kinematic_gap": kin_gap,
            "horizontal_top_trace": horiz_top,
            "eta_mean": mean_eta,
        }


@dataclass
class EnergyLedger:
    """Per-step energy bookkeeping.

    Instantaneous entries (fluid_kinetic, plate_kinetic, bending) are state
    energies after the step; dissipation and work entries are running time
    integrals.  All entries are nonnegative except work.
    """

    t: list[float] = field(default_factory=list)
    fluid_kinetic: list[float] = field(default_factory=list)
    plate_kinetic: list[float] = field(default_factory=list)
    bending: list[float] = field(default_factory=list)
    viscous_dissipation: list[float] = field(default_factory=list)
    viscoelastic_dissipation: list[float] = field(default_factory=list)
    numerical_dissipation: list[float] = field(default_factory=list)
    work: list[float] = field(default_factory=list)

    def append(self, t, ef, epk, eb, dv, dve, dn, w):
        self.t.append(t)
        self.fluid_kinetic.append(ef)
        self.plate_kinetic.append(epk)
        self.bending.append(eb)
        self.viscous_dissipation.append(dv)
        self.viscoelastic_dissipation.append(dve)
        self.numerical_dissipation.append(dn)
        self.work.append(w)

    def __len__(self) -> int:
        return len(self.t)

    def lhs(self, include_numerical: bool = False) -> np.ndarray:
        """Left side of the energy inequality at each step: energies plus
        accumulated dissipation."""
        out = (np.array(self.fluid_kinetic) + np.array(self.plate_kinetic)
               + np.array(self.bending) + np.array(self.viscous_dissipation)
               + np.array(self.viscoelastic_dissipation))
        if include_numerical:
            out = out + np.array(self.numerical_dissipation)
        return out

    def slack(self) -> np.ndarray:
        """work - lhs, nonnegative for a dissipative scheme."""
        return np.array(self.work) - self.lhs()

    def identity_residual(self) -> np.ndarray:
        """lhs including numerical dissipation minus work; zero to roundoff."""
        return self.lhs(include_numerical=True) - np.array(self.work)

    def scale(self) -> np.ndarray:
        """Per-step max(|lhs including numerical dissipation|, |work|, 1e-300)."""
        return np.maximum(np.abs(self.lhs(True)), np.maximum(np.abs(self.work), 1e-300))

    def identity_residual_rel(self) -> np.ndarray:
        """|identity_residual| relative to the step's scale()."""
        return np.abs(self.identity_residual()) / self.scale()

    def total_energy(self) -> np.ndarray:
        return (np.array(self.fluid_kinetic) + np.array(self.plate_kinetic)
                + np.array(self.bending))

    def to_csv(self, path) -> None:
        """Write one row per step: its number, every entry and the slack."""
        names = [f.name for f in fields(self)]
        write_csv(path, ["step", *names, "slack"],
                  [np.arange(1, len(self) + 1), *(getattr(self, n) for n in names), self.slack()])


@dataclass(frozen=True, eq=False)
class FsiTrajectory:
    params: FsiParams
    times: np.ndarray
    states: tuple[FsiState, ...]
    ledger: EnergyLedger

    def save(self, outdir) -> list[str]:
        """Write every snapshot's fields and the energy ledger as CSV files."""
        written = save_snapshots(outdir, [
            [("eta", s.eta), ("eta_t", s.eta_t), *velocity_named(s.v), ("p", s.p)]
            for s in self.states])
        path = os.path.join(outdir, "energy_ledger.csv")
        self.ledger.to_csv(path)
        return written + [path]


# ----------------------------------------------------------------------
# per-mode assembly
# ----------------------------------------------------------------------

def _xi_stack(grid: PeriodicGrid) -> np.ndarray:
    """Angular wavenumber vectors for every stored mode, shape (K, dim)."""
    if grid.dim == 1:
        return (2.0 * np.pi * grid.wavenumbers[0].astype(float))[:, None]
    k1, k2 = grid.wavenumbers
    K1, K2 = np.meshgrid(k1.astype(float), k2.astype(float), indexing="ij")
    return 2.0 * np.pi * np.stack([K1.ravel(), K2.ravel()], axis=1)


class _Assembled:
    """Stacked per-mode matrices of the step operator for params.dt, with
    its per-mode inverse."""

    def __init__(self, solver: "FsiSolver"):
        p = solver.params
        dt = p.dt
        dh = p.grid.dim
        mi = p.vnodes.m - 2
        s = dh * mi
        xi = solver.xi
        K = xi.shape[0]
        ops = p.vnodes.ops
        sl = slice(1, -1)
        Mi = ops.M[sl, sl]
        Ki = ops.K[sl, sl]
        MAi = ops.MA[sl, sl]
        Ci = ops.C_dA[sl, sl]
        Csym = Ci + Ci.T
        a0 = ops.weights[sl]
        eps = p.model.eps
        nu = p.model.nu

        outer = xi[:, :, None] * xi[:, None, :]          # (K, dh, dh)
        xi2 = np.einsum("ka,ka->k", xi, xi)              # |xi|^2
        eye = np.eye(dh)

        def blockify(coef_ab, mat):
            # coef_ab: (K, dh, dh); mat: (mi, mi) -> (K, s, s)
            blk = coef_ab[:, :, None, :, None] * mat[None, None, :, None, :]
            return blk.reshape(K, s, s)

        # one buffer holds mass and viscosity, so one product applies both
        mass, visc = mass_visc = np.empty((2, K, s, s))
        mass[...] = blockify(np.broadcast_to(eye, (K, dh, dh)).copy(), Mi) \
            + eps**2 * blockify(outer, MAi)
        visc[...] = (
            blockify(0.5 * xi2[:, None, None] * eye, Mi)
            + blockify(1.5 * outer, Mi)
            + 0.5 * (
                blockify(np.broadcast_to(eye, (K, dh, dh)).copy(), Ki) / eps**2
                + blockify(outer, Csym)
                + eps**2 * blockify(xi2[:, None, None] * outer, MAi)
            )
        )
        visc *= 2.0 * nu
        g = (xi[:, :, None] * a0[None, None, :]).reshape(K, s)

        xi4 = xi2**2
        plate_coef = (
            solver.coef["rho_s_mass"] / dt
            + solver.coef["theta_rank1"] * xi4
            + solver.coef["bending_rank1"] * dt * xi4
        )
        A = (
            (solver.coef["fluid_mass"] / dt) * mass
            + eps * visc
            + plate_coef[:, None, None] * (g[:, :, None] * g[:, None, :])
        )
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - signals a bug
            raise AssemblyError(f"step operator factorization failed: {exc}") from exc
        Linv = np.linalg.inv(L)

        self.A = A
        self.mass_visc = mass_visc
        self.mass, self.visc = mass_visc
        self.g = g
        self.xi4 = xi4
        self.inv = np.swapaxes(Linv, 1, 2) @ Linv   # A^-1 = L^-T L^-1

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve every mode's system for a stacked complex right-hand side (K, s)."""
        return _apply(self.inv, rhs)


def _apply(mats: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Real stacked matrices (..., K, r, s) times complex vectors (K, s): one
    real matmul on the interleaved real and imaginary parts, without copies."""
    return (mats @ c.view(float).reshape(c.shape + (2,))).view(complex)[..., 0]


def _re_inner(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """sum_k w_k Re(conj(a_k) . b_k) for complex stacks (K, s)."""
    return float(w @ (a.view(float) * b.view(float)).sum(axis=1))


class _SpectralState:
    """Internal evolving state: interior profile coefficients per mode plus
    plate harmonics."""

    __slots__ = ("c", "eta", "eta_t", "t")

    def __init__(self, c, eta, eta_t, t):
        self.c = c          # (K, s) complex
        self.eta = eta      # (K,) complex
        self.eta_t = eta_t  # (K,) complex
        self.t = t


class FsiSolver:
    """Backward-Euler integrator for the coupled channel/plate system.

    The per-mode step operator is assembled and factored once per solver, so
    repeated stepping with the same params should hold one solver rather
    than call step_fsi in a loop.
    """

    def __init__(self, params: FsiParams):
        self.params = params
        check = validate_theorem_regime(params.model.kappa)
        if not check.ok:
            logger.warning("running outside the guaranteed-rate regime: %s", check.reason)
        self.xi = _xi_stack(params.grid)
        self.K = self.xi.shape[0]
        self.mi = params.vnodes.m - 2
        self.s = params.grid.dim * self.mi
        mdl = params.model
        eps, kappa, tau = mdl.eps, mdl.kappa, mdl.tau
        e = lambda expo: eps_power(eps, expo)
        self.coef = {
            # step-operator coefficients; the plate test function equals the
            # vertical test trace, while the solution's plate velocity is
            # eps^tau times its own vertical trace
            "fluid_mass": mdl.rho_f * e(1 - tau),
            "rho_s_mass": mdl.rho_s * e(2 - kappa - tau),
            "theta_rank1": mdl.theta * e(2),
            "bending_rank1": mdl.B * e(tau + 2 - kappa),
            # trace relation and ledger coefficients
            "trace": e(tau + 1),
            "plate_test": e(1),
            "work": e(tau + 1),
            "plate_kin": mdl.rho_s * e(-kappa - 2 * tau),
            "bend": mdl.B * e(-kappa),
            "viscoelastic": mdl.theta * e(-tau),
        }
        self._assembled: _Assembled | None = None
        ops = params.vnodes.ops
        sl = slice(1, -1)
        self._Mint = ops.M[sl, :]
        self._MAint = ops.M_Al[sl, :]
        self._w = params.grid.mode_weights.ravel()

    # -- assembly ------------------------------------------------------

    def assembled(self) -> _Assembled:
        """Per-mode step operator for params.dt, built on first use."""
        if self._assembled is None:
            self._assembled = _Assembled(self)
        return self._assembled

    # -- state conversion ----------------------------------------------

    def zero_state(self) -> _SpectralState:
        return _SpectralState(
            np.zeros((self.K, self.s), dtype=complex),
            np.zeros(self.K, dtype=complex),
            np.zeros(self.K, dtype=complex),
            0.0,
        )

    def from_state(self, state: FsiState) -> _SpectralState:
        grid = self.params.grid
        m = self.params.vnodes.m
        dh = grid.dim
        c = np.empty((self.K, self.s), dtype=complex)
        for a in range(dh):
            prof = state.v[a].hat.reshape(self.K, m)
            c[:, a * self.mi:(a + 1) * self.mi] = prof[:, 1:-1]
        return _SpectralState(
            c,
            state.eta.hat.ravel().astype(complex),
            state.eta_t.hat.ravel().astype(complex),
            state.t,
        )

    def _profiles(self, c: np.ndarray) -> np.ndarray:
        """Embed interior coefficients into full vertical profiles,
        shape (K, dh, m)."""
        dh = self.params.grid.dim
        m = self.params.vnodes.m
        full = np.zeros((self.K, dh, m), dtype=complex)
        for a in range(dh):
            full[:, a, 1:-1] = c[:, a * self.mi:(a + 1) * self.mi]
        return full

    def vertical_profile(self, c: np.ndarray) -> np.ndarray:
        """Reconstructed vertical velocity profiles, shape (K, m)."""
        ops = self.params.vnodes.ops
        eps = self.params.model.eps
        full = self._profiles(c)
        div_h = np.einsum("ka,kam->km", self.xi, full)  # xi . v', times -i below
        return -1j * eps * ops.antiderivative(div_h)

    def materialize(self, spec: _SpectralState, pressure_hat: np.ndarray | None = None) -> FsiState:
        grid = self.params.grid
        vn = self.params.vnodes
        dh = grid.dim
        full = self._profiles(spec.c)
        spectral_shape = grid.spectral_shape
        comps = []
        for a in range(dh):
            comps.append(ChannelField.from_hat(grid, vn, full[:, a, :].reshape(spectral_shape + (vn.m,))))
        v3 = self.vertical_profile(spec.c)
        comps.append(ChannelField.from_hat(grid, vn, v3.reshape(spectral_shape + (vn.m,))))
        if pressure_hat is None:
            p = ChannelField.zeros(grid, vn)
        else:
            p = ChannelField.from_hat(grid, vn, pressure_hat.reshape(spectral_shape + (vn.m,)))
        eta = PeriodicField.from_hat(grid, spec.eta.reshape(spectral_shape))
        eta_t = PeriodicField.from_hat(grid, spec.eta_t.reshape(spectral_shape))
        return FsiState(v=tuple(comps), p=p, eta=eta, eta_t=eta_t, t=spec.t)

    def _forcing_hat(self, t: float) -> np.ndarray:
        """Forcing coefficients; a component that carries no load stays zero."""
        comps = self.params.forcing(t)
        grid = self.params.grid
        m = self.params.vnodes.m
        out = np.zeros((len(comps), self.K, m), dtype=complex)
        for i, comp in enumerate(comps):
            if np.any(comp):
                out[i] = grid.rfft(np.asarray(comp, dtype=float)).reshape(self.K, m)
        return out

    # -- stepping --------------------------------------------------------

    def advance(self, spec: _SpectralState, t_new: float | None = None):
        """One backward-Euler step.  Returns (new_state, ledger_increments)."""
        p = self.params
        dt = p.dt
        asm = self.assembled()
        dh = p.grid.dim
        eps = p.model.eps
        if t_new is None:
            t_new = spec.t + dt
        fhat = self._forcing_hat(t_new)

        # forcing quadrature against the velocity basis
        Fq = np.empty((self.K, self.s), dtype=complex)
        f3q = fhat[dh] @ self._MAint.T  # (K, mi): integrals of A_i * f3 profile
        for a in range(dh):
            Fq[:, a * self.mi:(a + 1) * self.mi] = (
                fhat[a] @ self._Mint.T
                + 1j * eps * self.xi[:, a][:, None] * f3q
            )

        mass_old = _apply(asm.mass, spec.c)
        plate_rhs = (1j * self.coef["plate_test"]) * (
            self.coef["plate_kin"] * spec.eta_t / dt
            - self.coef["bend"] * asm.xi4 * spec.eta
        )
        rhs = (
            (self.coef["fluid_mass"] / dt) * mass_old
            + eps * Fq
            + plate_rhs[:, None] * asm.g
        )
        c_new = asm.solve(rhs)
        eta_t_new = -1j * self.coef["trace"] * (asm.g * c_new).sum(axis=1)
        eta_new = spec.eta + dt * eta_t_new

        new = _SpectralState(c_new, eta_new, eta_t_new, t_new)
        mass_new, visc_new = _apply(asm.mass_visc, c_new)
        return new, self._ledger_increments(asm, spec, new, Fq, dt, mass_old, mass_new, visc_new)

    def _ledger_increments(self, asm, old, new, Fq, dt, mass_old, mass_new, visc_new):
        w = self._w
        coef = self.coef
        eps = self.params.model.eps
        dc = new.c - old.c
        d_eta = new.eta - old.eta
        d_eta_t = new.eta_t - old.eta_t
        ef = 0.5 * self.params.model.rho_f * eps * _re_inner(w, new.c, mass_new)
        epk = 0.5 * coef["plate_kin"] * np.sum(w * np.abs(new.eta_t) ** 2)
        eb = 0.5 * coef["bend"] * np.sum(w * asm.xi4 * np.abs(new.eta) ** 2)
        if min(ef, epk, eb) < -1e-12 * max(ef, epk, eb, 1e-300):
            raise AssemblyError(
                f"negative energy encountered (fluid {ef:.3e}, plate {epk:.3e}, "
                f"bending {eb:.3e}); quadratic-form assembly is inconsistent"
            )
        dn = (  # M dc is the difference of the two mass products
            0.5 * self.params.model.rho_f * eps * _re_inner(w, dc, mass_new - mass_old)
            + 0.5 * coef["plate_kin"] * np.sum(w * np.abs(d_eta_t) ** 2)
            + 0.5 * coef["bend"] * np.sum(w * asm.xi4 * np.abs(d_eta) ** 2)
        )
        dv = dt * coef["work"] * _re_inner(w, new.c, visc_new)
        dve = dt * coef["viscoelastic"] * np.sum(w * asm.xi4 * np.abs(new.eta_t) ** 2)
        work = dt * coef["work"] * _re_inner(w, new.c, Fq)
        return dict(fluid_kinetic=float(ef), plate_kinetic=float(epk), bending=float(eb),
                    numerical=float(dn), viscous=float(dv), viscoelastic=float(dve),
                    work=float(work))

    # -- pressure recovery ----------------------------------------------

    def pressure_hat(self, old: _SpectralState, new: _SpectralState,
                     fhat: np.ndarray, dt: float,
                     older: _SpectralState | None = None) -> np.ndarray:
        """Pressure profiles per mode from the horizontal momentum balance;
        the zero mode comes from the vertical balance pinned by the plate.

        With two history states the inertia term uses the second-order
        backward quotient, otherwise the first-order one.
        """
        p = self.params
        ops = p.vnodes.ops
        eps = p.model.eps
        nu = p.model.nu
        dh = p.grid.dim
        m = p.vnodes.m
        full_new = self._profiles(new.c)
        full_old = self._profiles(old.c)
        full_older = None if older is None else self._profiles(older.c)
        inert = p.model.rho_f * eps_power(eps, -p.model.tau)
        xi2 = np.einsum("ka,ka->k", self.xi, self.xi)
        D2 = ops.D @ ops.D
        rhs_h = np.empty((self.K, dh, m), dtype=complex)
        for a in range(dh):
            va, va_old = full_new[:, a, :], full_old[:, a, :]
            if full_older is None:
                dva = (va - va_old) / dt
            else:
                dva = (3.0 * va - 4.0 * va_old + full_older[:, a, :]) / (2.0 * dt)
            rhs_h[:, a, :] = (
                fhat[a]
                + nu * (-xi2[:, None] * va + (va @ D2.T) / eps**2)
                - inert * dva
            )
        phat = np.zeros((self.K, m), dtype=complex)
        nz = xi2 > 0
        proj = np.einsum("ka,kam->km", self.xi, rhs_h)
        phat[nz] = -1j * proj[nz] / xi2[nz, None]
        # zero mode: d/dy3 p = eps * f3, level pinned by the plate row, which
        # reads zero because the mean plate harmonic never moves
        f3_0 = fhat[dh][~nz]
        if f3_0.size:
            anti = ops.antiderivative(f3_0)
            phat[~nz] = eps * (anti - anti[:, -1][:, None])
        return phat

    # -- full run ---------------------------------------------------------

    def run(self, t_end: float, snapshot_stride: int = 1,
            with_pressure: bool = True) -> FsiTrajectory:
        p = self.params
        dt = p.dt
        nsteps = int(round(t_end / dt))
        if nsteps < 1 or abs(nsteps * dt - t_end) > 1e-9 * max(t_end, dt):
            raise ParameterError(f"t_end = {t_end} is not an integer multiple of dt = {dt}")
        if snapshot_stride < 1:
            raise ParameterError(f"snapshot_stride must be at least 1, got {snapshot_stride}")
        ledger = EnergyLedger()
        spec = self.zero_state()
        states = [self.materialize(spec)]
        times = [0.0]
        cum = dict(viscous=0.0, viscoelastic=0.0, numerical=0.0, work=0.0)
        prev2 = None
        for i in range(nsteps):
            prev = spec
            spec, inc = self.advance(spec, t_new=(i + 1) * dt)
            for key in cum:
                cum[key] += inc[key]
            ledger.append(
                spec.t, inc["fluid_kinetic"], inc["plate_kinetic"], inc["bending"],
                cum["viscous"], cum["viscoelastic"], cum["numerical"], cum["work"],
            )
            if (i + 1) % snapshot_stride == 0 or i == nsteps - 1:
                phat = None
                if with_pressure:
                    phat = self.pressure_hat(prev, spec, self._forcing_hat(spec.t),
                                             dt, older=prev2)
                states.append(self.materialize(spec, phat))
                times.append(spec.t)
            prev2 = prev
        return FsiTrajectory(params=p, times=np.array(times),
                             states=tuple(states), ledger=ledger)


# ----------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------

def step_fsi(params: FsiParams, state: FsiState) -> FsiState:
    """Advance a coupled state by one backward-Euler step of params.dt.

    Builds and factors a new solver on every call; to take many steps, hold
    one FsiSolver instead.
    """
    solver = FsiSolver(params)
    spec = solver.from_state(state)
    new, _ = solver.advance(spec)
    phat = solver.pressure_hat(spec, new, solver._forcing_hat(new.t), params.dt)
    return solver.materialize(new, phat)


def run_fsi(params: FsiParams, t_end: float, snapshot_stride: int = 1,
            with_pressure: bool = True) -> FsiTrajectory:
    """Run from trivial initial data to t_end; returns trajectory and ledger."""
    return FsiSolver(params).run(t_end, snapshot_stride=snapshot_stride,
                                 with_pressure=with_pressure)


# ----------------------------------------------------------------------
# forcing helpers
# ----------------------------------------------------------------------

def smooth_ramp(t: float, ramp_time: float) -> float:
    """C-infinity ramp 1 - exp(-(t/ramp_time)^2), flat at t = 0."""
    if t <= 0.0:
        return 0.0
    return -np.expm1(-((t / ramp_time) ** 2))


def harmonic_ramp_forcing(grid: PeriodicGrid, vnodes: VerticalNodes,
                          amplitude: float = 1.0, wavevector: Sequence[int] = (1,),
                          component: int = 0, ramp_time: float = 0.1) -> Forcing:
    """Volume force amplitude*sin(2*pi*k.x')*ramp(t) in one velocity component,
    constant across the channel depth."""
    wavevector = tuple(wavevector)
    if len(wavevector) != grid.dim:
        raise ParameterError(f"wavevector must have {grid.dim} entries")
    if not 0 <= component <= grid.dim:
        raise ParameterError(f"component must lie in 0..{grid.dim}, got {component}")
    if not ramp_time > 0:
        raise ParameterError(f"ramp_time must be positive, got {ramp_time}")
    if any(abs(k) >= grid.n // 2 for k in wavevector):
        # larger wavenumbers alias on the grid; k = n/2 samples sin to zero
        raise ParameterError(
            f"wavevector {wavevector} is not resolved on n = {grid.n}: "
            f"every |k| must be below {grid.n // 2}"
        )
    phase = sum(2.0 * np.pi * k * x for k, x in zip(wavevector, grid.meshes))
    profile = amplitude * np.sin(phase)[..., None] * np.ones(vnodes.m)
    zero = np.zeros(grid.shape + (vnodes.m,))
    ncomp = grid.dim + 1

    def force(t: float):
        r = smooth_ramp(t, ramp_time)
        return tuple(profile * r if i == component else zero for i in range(ncomp))

    return force


def zero_forcing(grid: PeriodicGrid, vnodes: VerticalNodes) -> Forcing:
    zero = np.zeros(grid.shape + (vnodes.m,))
    ncomp = grid.dim + 1

    def force(t: float):
        return (zero,) * ncomp

    return force
