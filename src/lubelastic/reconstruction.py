"""Approximate full-order solutions rebuilt from the reduced plate evolution.

Knowing only the limit displacement eta, the limit pressure is the bending
load B*(Lap')^2 eta, the horizontal velocities follow a channel profile
driven by the pressure gradient and the depth-integrated force, and the
vertical velocity is the antiderivative of the horizontal divergence.  The
triple scaled back to the thin channel,

    v = eps^2 * (v_1, v_2, v3_inner),   p(x) = p(x'),   eta_eps = eps^kappa * eta,

is the object whose distance to the full-order solution the rate study
measures.  One map in coefficient space, `_limit_map`, takes the displacement
snapshots, in one transform, and the forcing coefficients from
`fsi.sample_forcing` to the displacement, pressure and horizontal velocity
coefficients.  It reads B and nu but not eps, so a ladder builds it once.
`assemble_approx` scales it to one thickness (`_approx_from_limit`): it
adds the vertical velocity and transforms each component of the triple to
the nodes, all snapshots together; the triple holds one array per field
kind, the snapshots along its leading axis.  `chain_closure_error`
compares the flux rate of the same velocities with the right side of the
reduced equation, -c |xi|^6 eta^ + F^, at every snapshot
(`_closure_from_limit` on the same map).  Like the solver and the reduced
source, both read the load without its Nyquist modes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ParameterError
from .fsi import sample_forcing
from .scaling import ModelParams, eps_power
from .spectral import (
    PeriodicGrid,
    VerticalNodes,
    _steps_per_block,
    derivative_symbol,
    laplacian_symbol,
)
from .thinfilm import solve_linear_sixth


@dataclass(frozen=True, eq=False)
class ReducedSolution:
    """N snapshots of the reduced displacement: finite, strictly increasing
    times, (N,), and finite zero-mean values eta, (N,) + grid.shape."""

    grid: PeriodicGrid
    times: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        times, eta = np.asarray(self.times, dtype=float), np.asarray(self.eta, dtype=float)
        if times.ndim != 1 or eta.shape != times.shape + self.grid.shape:
            raise GridMismatchError(f"{eta.shape} displacement snapshots at {times.shape} "
                                    f"times on a grid of shape {self.grid.shape}")
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise ParameterError("snapshot times must be finite and strictly increasing")
        axes = tuple(range(1, eta.ndim))
        if not (np.all(np.isfinite(eta)) and np.all(
                np.abs(eta.mean(axis=axes)) <= 1e-10 * np.max(np.abs(eta), axis=axes))):
            raise ParameterError("reduced displacement snapshots must be finite, of zero mean")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "eta", eta)


@dataclass(frozen=True, eq=False)
class ApproxTriple:
    """The N snapshots of the reconstructed velocity, pressure and
    displacement, one array per field kind with the snapshots along its
    leading axis: the d = dim + 1 velocity components v and the pressure p,
    (N,) + grid.shape + (m,) each, and eta, (N,) + grid.shape."""

    times: np.ndarray
    v: tuple[np.ndarray, ...]
    p: np.ndarray
    eta: np.ndarray


def _force_profiles(f_alpha: np.ndarray, nu: float, vnodes: VerticalNodes) -> np.ndarray:
    """Channel profile driven by one horizontal force component: the unique
    solution of nu * F_a'' = -f_a vanishing at both walls,

        F_a(y) = -(y+1)/nu * int_{-1}^0 z f_a(z) dz
                 - 1/nu * int_{-1}^{y} (y - z) f_a(z) dz,

    so that v_a = y(y+1)/(2 nu) * d_a p + F_a solves the depth-wise momentum
    balance -nu * v_a'' + d_a p = f_a.  The running integral is evaluated as
    an exact double antiderivative, which makes F_a vanish identically at
    both walls for any sampled profile.  The map is linear along the last
    axis, so it takes nodal profiles and their complex coefficients alike.
    """
    ops = vnodes.ops
    y = vnodes.nodes
    f = np.asarray(f_alpha)
    moment = f @ ops.moment1
    return -((y + 1.0) * moment[..., None] + ops.second_antiderivative(f)) / nu


def _limit_map(reduced: ReducedSolution, params: ModelParams, forcing,
               vnodes: VerticalNodes) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Coefficients of the displacement, the limit pressure and the horizontal
    velocity profiles at every snapshot of the reduced solution:

        eta^,   p^ = B |xi|^4 eta^,   v^_a = y (y+1)/(2 nu) * (i xi_a p^) + F_a(f^_a),

    with f^_a the coefficients of the horizontal force components from
    `sample_forcing` (None: an unforced channel).  Shapes (S,) +
    spectral_shape for eta^ and p^, (S,) + spectral_shape + (m,) for v^_a.
    """
    grid = reduced.grid
    # one transform, the snapshots behind the horizontal axes
    eta_hat = np.moveaxis(grid.rfft(np.moveaxis(reduced.eta, 0, -1)), -1, 0)
    p_hat = params.B * laplacian_symbol(grid) ** 2 * eta_hat
    y = vnodes.nodes
    poise = y * (y + 1.0) / (2.0 * params.nu)
    fhat = {} if forcing is None else sample_forcing(forcing, grid, reduced.times)
    v_hat = []
    for a in range(grid.dim):
        vh = (derivative_symbol(grid, 1, axis=a) * p_hat)[..., None] * poise
        if a in fhat:
            vh = vh + _force_profiles(fhat[a], params.nu, vnodes)
        v_hat.append(vh)
    return eta_hat, p_hat, v_hat


def reduced_source(forcing, nu: float, grid: PeriodicGrid, vnodes: VerticalNodes):
    """Zero-mean source of the reduced evolution, the flux rate of the force
    profiles F = -int_{-1}^0 div'(F_1, F_2) dy3, as a map from an array of
    times to its coefficients, shape (len(times),) + grid.spectral_shape.

    The profile map is linear along the depth, so F^ = -sum_a (i xi_a)
    (f^_a . u), where u holds the depth integrals of the profiles of the
    nodal basis vectors and f^_a the coefficients of the horizontal force
    components from `sample_forcing`: for a `fsi.HarmonicLoad` its envelope
    times its coefficients, with no sampling; a callable is sampled and
    transformed, a block of times per call.
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
    traj = solve_linear_sixth(params.reduced_coefficient, source, grid, np.zeros(grid.shape),
                              t_end, dt, snapshot_stride=snapshot_stride)
    return ReducedSolution(grid, traj.times, traj.eta)


def _approx_from_limit(reduced: ReducedSolution, limit, params: ModelParams,
                       vnodes: VerticalNodes) -> ApproxTriple:
    """The limit map's coefficients (`_limit_map`, which does not depend on
    eps) scaled back to the thin channel of params.eps, with one transform
    per field component over all snapshots."""
    eps = params.eps
    grid = reduced.grid
    _, p_hat, v_hat = limit
    div = sum(derivative_symbol(grid, 1, axis=a)[..., None] * vh for a, vh in enumerate(v_hat))
    v_hat = [*v_hat, -eps * vnodes.ops.antiderivative(div)]
    # snapshots behind the horizontal axes, which the transforms lead with
    v = [np.moveaxis(grid.irfft(np.moveaxis(eps**2 * vh, 0, -2)), -2, 0) for vh in v_hat]
    p = np.moveaxis(grid.irfft(np.moveaxis(p_hat, 0, -1)), -1, 0)
    return ApproxTriple(times=reduced.times, v=tuple(v),
                        p=np.repeat(p[..., None], vnodes.m, axis=-1),
                        eta=eps_power(eps, params.kappa) * reduced.eta)


def assemble_approx(reduced: ReducedSolution, params: ModelParams,
                    forcing, vnodes: VerticalNodes) -> ApproxTriple:
    """Scale the reduced solution back to the thin channel.

    Velocity components carry the common eps^2 prefactor, the vertical one
    is v^_3 = -eps * int_{-1}^{y} sum_a (i xi_a v^_a), the pressure is
    extended constant in the vertical, and the displacement is eps^kappa
    times the reduced one.
    """
    return _approx_from_limit(reduced, _limit_map(reduced, params, forcing, vnodes), params,
                              vnodes)


def _closure_from_limit(reduced: ReducedSolution, limit, params: ModelParams,
                        forcing, vnodes: VerticalNodes) -> float:
    """The chain closure from the limit map's coefficients (`_limit_map`)."""
    grid = reduced.grid
    eta_hat, _, v_hat = limit
    rate = -sum(derivative_symbol(grid, 1, axis=a) * (vh @ vnodes.weights)
                for a, vh in enumerate(v_hat))
    rhs = params.reduced_coefficient * laplacian_symbol(grid) ** 3 * eta_hat
    if forcing is not None:
        rhs = rhs + reduced_source(forcing, params.nu, grid, vnodes)(reduced.times)
    # Parseval: the nodal mean of each snapshot's squared difference
    sq = np.sum(grid.mode_weights * np.abs(rate - rhs) ** 2, axis=tuple(range(1, rate.ndim)))
    return float(np.sqrt(np.trapezoid(sq, reduced.times)))


def chain_closure_error(reduced: ReducedSolution, params: ModelParams,
                        forcing, vnodes: VerticalNodes) -> float:
    """Distance, in L2 of time and space, between the displacement rate
    implied by pressure -> velocity -> flux, -sum_a i xi_a int_{-1}^0 v^_a dy3,
    and the right side of the reduced equation at the same snapshots,
    -c |xi|^6 eta^ + F^(t), with c = B/(12 nu) and F the reduced source:
    the rate that the reduced equation gives each snapshot.  It is roundoff
    exactly when c and F are the flux of the limit velocity, and it reads no
    time differences, so any snapshot times will do.  Closes the derivation
    loop of the reduced model."""
    return _closure_from_limit(reduced, _limit_map(reduced, params, forcing, vnodes), params,
                               forcing, vnodes)
