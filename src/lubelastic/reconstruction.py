"""Approximate full-order solutions rebuilt from the reduced plate evolution.

Knowing only the limit displacement eta, the limit pressure is the bending
load B*(Lap')^2 eta, the horizontal velocities follow a channel profile
driven by the pressure gradient and the depth-integrated force, and the
vertical velocity is the antiderivative of the horizontal divergence.  The
triple scaled back to the thin channel,

    v = eps^2 * (v_1, v_2, v3_inner),   p(x) = p(x'),   eta_eps = eps^kappa * eta,

is the object whose distance to the full-order solution the rate study
measures.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GridMismatchError, ParameterError
from .fsi import sample_forcing
from .scaling import ModelParams, eps_power
from .spectral import (
    ChannelField,
    PeriodicField,
    PeriodicGrid,
    VerticalNodes,
    _steps_per_block,
    derivative_symbol,
    laplacian_symbol,
    spectral_derivative,
)
from .thinfilm import solve_linear_sixth


@dataclass(frozen=True, eq=False)
class ReducedSolution:
    """Snapshots of the reduced displacement."""

    times: np.ndarray
    eta: tuple[PeriodicField, ...]

    def __post_init__(self):
        if len(self.eta) != len(self.times):
            raise ParameterError("one displacement snapshot per time is required")
        if np.any(np.diff(self.times) <= 0):
            raise ParameterError("snapshot times must be strictly increasing")
        for f in self.eta:
            if abs(f.mean()) > 1e-10 * (1.0 + np.max(np.abs(f.values))):
                raise ParameterError("reduced displacement snapshots must have zero mean")


@dataclass(frozen=True, eq=False)
class ApproxTriple:
    """Snapshots of the reconstructed velocity, pressure and displacement."""

    times: np.ndarray
    v: tuple[tuple[ChannelField, ...], ...]
    p: tuple[ChannelField, ...]
    eta: tuple[PeriodicField, ...]


def limit_pressure(eta: PeriodicField, B: float) -> PeriodicField:
    """Limit pressure B * (Lap')^2 eta; independent of the vertical variable."""
    grid = eta.grid
    return PeriodicField.from_hat(grid, B * laplacian_symbol(grid) ** 2 * eta.hat)


def _force_profiles(f_alpha: np.ndarray, nu: float, vnodes: VerticalNodes) -> np.ndarray:
    """Channel profile driven by one horizontal force component: the unique
    solution of nu * F_a'' = -f_a vanishing at both walls,

        F_a(y) = -(y+1)/nu * int_{-1}^0 z f_a(z) dz
                 - 1/nu * int_{-1}^{y} (y - z) f_a(z) dz,

    so that v_a = y(y+1)/(2 nu) * d_a p + F_a solves the depth-wise momentum
    balance -nu * v_a'' + d_a p = f_a.  The running integral is evaluated as
    an exact double antiderivative, which makes F_a vanish identically at
    both walls for any sampled profile.
    """
    ops = vnodes.ops
    y = vnodes.nodes
    f = np.asarray(f_alpha, dtype=float)
    moment = f @ ops.moment1
    return -((y + 1.0) * moment[..., None] + ops.second_antiderivative(f)) / nu


def horizontal_velocity(p: PeriodicField, f_horizontal, nu: float,
                        vnodes: VerticalNodes) -> tuple[ChannelField, ...]:
    """Limit horizontal velocity profiles

        v_a = 1/(2 nu) * y (y+1) * d_a p + F_a,

    vanishing at the bottom wall and at the plate (which moves vertically
    only).  f_horizontal is a sequence of horizontal force components sampled
    on grid.shape + (m,), or None for an unforced channel.
    """
    grid = p.grid
    y = vnodes.nodes
    poise = y * (y + 1.0) / (2.0 * nu)
    out = []
    for a in range(grid.dim):
        dp = spectral_derivative(p, 1, axis=a)
        vals = dp.values[..., None] * poise
        if f_horizontal is not None:
            vals = vals + _force_profiles(np.asarray(f_horizontal[a]), nu, vnodes)
        out.append(ChannelField(grid, vnodes, vals))
    return tuple(out)


def vertical_velocity(v1: ChannelField, v2: ChannelField | None = None,
                      eps: float = 1.0) -> ChannelField:
    """Inner vertical velocity -eps * int_{-1}^{y} div'(v') of the profile pair;
    zero at the bottom wall by construction."""
    grid = v1.grid
    vnodes = v1.vnodes
    comps = [v1] if v2 is None else [v1, v2]
    if grid.dim != len(comps):
        raise GridMismatchError(
            f"{len(comps)} horizontal components supplied for dim {grid.dim}"
        )
    div = np.zeros(grid.shape + (vnodes.m,))
    for a, comp in enumerate(comps):
        if comp.grid is not grid and comp.grid.shape != grid.shape:
            raise GridMismatchError("components live on different grids")
        hat = comp.hat
        xi = grid.xi[a]
        div += grid.irfft(1j * xi[..., None] * hat)
    anti = vnodes.ops.antiderivative(div)
    return ChannelField(grid, vnodes, -eps * anti)


def flux_rate(v_components: Sequence[ChannelField]) -> PeriodicField:
    """Rate of displacement implied by the depth flux:
    -sum_a d_a int_{-1}^0 v_a dy3."""
    grid = v_components[0].grid
    out = np.zeros(grid.shape)
    for a, comp in enumerate(v_components):
        depth = comp.values @ comp.vnodes.weights
        out -= spectral_derivative(PeriodicField(grid, depth), 1, axis=a).values
    return PeriodicField(grid, out)


def reduced_source(forcing, nu: float, grid: PeriodicGrid, vnodes: VerticalNodes):
    """Zero-mean source of the reduced evolution, the flux rate of the force
    profiles F = -int_{-1}^0 div'(F_1, F_2) dy3, as a map from an array of
    times to its coefficients, shape (len(times),) + grid.spectral_shape.

    The profile map is linear along the depth, so F^ = -sum_a (i xi_a)
    (f^_a . u), where u holds the depth integrals of the profiles of the
    nodal basis vectors and f^_a the coefficients of the horizontal force
    components from `sample_forcing`.
    """
    u = _force_profiles(np.eye(vnodes.m), nu, vnodes) @ vnodes.weights
    symbols = [derivative_symbol(grid, 1, axis=a) for a in range(grid.dim)]
    # one call transforms as many times as one component's coefficients
    # fill a block
    chunk = _steps_per_block(16 * vnodes.m * int(np.prod(grid.spectral_shape)))

    def source(times) -> np.ndarray:
        out = np.zeros((len(times),) + grid.spectral_shape, dtype=complex)
        for lo in range(0, len(times), chunk):
            for a, fhat in sample_forcing(forcing, grid, times[lo:lo + chunk]).items():
                if a < grid.dim:
                    out[lo:lo + chunk] -= symbols[a] * (fhat @ u)
        return out

    return source


def solve_reduced(params: ModelParams, grid: PeriodicGrid, vnodes: VerticalNodes,
                  forcing, t_end: float, dt: float,
                  snapshot_stride: int = 1) -> ReducedSolution:
    """Drive the reduced evolution d/dt eta - c (Lap')^3 eta = F(t) by the
    depth-integrated force of the full-order problem."""
    source = reduced_source(forcing, params.nu, grid, vnodes)
    traj = solve_linear_sixth(params.reduced_coefficient, source, PeriodicField.zeros(grid),
                              t_end, dt, snapshot_stride=snapshot_stride)
    return ReducedSolution(times=traj.times, eta=tuple(traj.fields))


def assemble_approx(reduced: ReducedSolution, params: ModelParams,
                    forcing, vnodes: VerticalNodes) -> ApproxTriple:
    """Scale the reduced solution back to the thin channel.

    Velocity components carry the common eps^2 prefactor, the pressure is
    extended constant in the vertical, and the displacement is eps^kappa
    times the reduced one.
    """
    eps = params.eps
    eps_kappa = eps_power(eps, params.kappa)
    grid = reduced.eta[0].grid
    v_all, p_all, eta_all = [], [], []
    for t, eta in zip(reduced.times, reduced.eta):
        p = limit_pressure(eta, params.B)
        f_comps = forcing(float(t)) if forcing is not None else None
        f_h = None if f_comps is None else f_comps[: grid.dim]
        v_h = horizontal_velocity(p, f_h, params.nu, vnodes)
        v3 = vertical_velocity(*v_h, eps=eps)
        comps = tuple(eps**2 * c for c in v_h) + (eps**2 * v3,)
        p_ext = ChannelField(grid, vnodes,
                             np.repeat(p.values[..., None], vnodes.m, axis=-1))
        v_all.append(comps)
        p_all.append(p_ext)
        eta_all.append(eps_kappa * eta)
    return ApproxTriple(times=reduced.times, v=tuple(v_all), p=tuple(p_all),
                        eta=tuple(eta_all))


def trajectory_time_derivative(times: np.ndarray,
                               fields: Sequence[PeriodicField]) -> list[PeriodicField]:
    """Second-order finite-difference time derivative of a snapshot sequence
    (central inside, one-sided at the ends); uniform spacing required."""
    times = np.asarray(times, dtype=float)
    if len(times) < 3:
        raise ParameterError("need at least three snapshots")
    dts = np.diff(times)
    if np.max(np.abs(dts - dts[0])) > 1e-9 * dts[0]:
        raise ParameterError("snapshots must be uniformly spaced in time")
    h = float(dts[0])
    grid = fields[0].grid
    vals = np.stack([f.values for f in fields], axis=0)
    out = np.empty_like(vals)
    out[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * h)
    out[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h)
    out[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * h)
    return [PeriodicField(grid, out[j]) for j in range(len(fields))]


def chain_closure_error(reduced: ReducedSolution, params: ModelParams,
                        forcing, vnodes: VerticalNodes) -> float:
    """Distance, in L2 of time and space, between the displacement rate
    implied by pressure -> velocity -> flux and the stored trajectory's own
    time derivative.  Closes the derivation loop of the reduced model."""
    grid = reduced.eta[0].grid
    eta_dot = trajectory_time_derivative(reduced.times, reduced.eta)
    sq = np.empty(len(reduced.times))
    for j, (t, eta) in enumerate(zip(reduced.times, reduced.eta)):
        p = limit_pressure(eta, params.B)
        f_comps = forcing(float(t)) if forcing is not None else None
        f_h = None if f_comps is None else f_comps[: grid.dim]
        v_h = horizontal_velocity(p, f_h, params.nu, vnodes)
        rate = flux_rate(v_h)
        diff = rate.values - eta_dot[j].values
        sq[j] = np.mean(diff**2)
    return float(np.sqrt(np.trapezoid(sq, reduced.times)))
