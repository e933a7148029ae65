"""Approximate full-order solutions rebuilt from the reduced plate evolution.

Knowing only the limit displacement eta, the limit pressure is the bending
load B*(Lap')^2 eta, the horizontal velocities follow a channel profile
driven by the pressure gradient and the depth-integrated force, and the
vertical velocity is the antiderivative of the horizontal divergence.  The
triple scaled back to the thin channel,

    v = eps^2 * (v_1, v_2, v3_inner),   p(x) = p(x'),   eta_eps = eps^kappa * eta,

is the object whose distance to the full-order solution the rate study
measures.  `solve_reduced` returns the reduced displacement as a
`thinfilm.FilmTrajectory`, its coefficients as the solve made them.
`LimitFields` takes those coefficients and the forcing coefficients from
`fsi.sample_forcing` to the limit pressure and horizontal velocity
coefficients at every snapshot.  It reads B and nu but not eps, so a ladder
builds it once.  `LimitFields.approx` scales it to one thickness: it adds
the vertical velocity and transforms each component of the triple to the
nodes, all snapshots together; the triple holds one array per field kind,
the snapshots along its leading axis.  `LimitFields.closure_error`
compares the flux rate of the same velocities with the right side of the
reduced equation, -c |xi|^6 eta^ + F^, at every snapshot.  Like the solver
and the reduced source, both read the load without its Nyquist modes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .fsi import Forcing, sample_forcing
from .scaling import ModelParams, eps_power
from .spectral import (
    PeriodicGrid,
    VerticalNodes,
    _steps_per_block,
    derivative_symbol,
    laplacian_symbol,
)
from .thinfilm import FilmTrajectory, solve_linear_sixth


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
                  snapshot_stride: int = 1) -> FilmTrajectory:
    """Drive the reduced evolution d/dt eta - c (Lap')^3 eta = F(t) by the
    depth-integrated force of the full-order problem, from rest."""
    source = reduced_source(forcing, params.nu, grid, vnodes)
    return solve_linear_sixth(params.reduced_coefficient, source, grid, np.zeros(grid.shape),
                              t_end, dt, snapshot_stride=snapshot_stride)


@dataclass(frozen=True, eq=False)
class LimitFields:
    """The limit fields at every snapshot of a reduced solution, in
    coefficient space:

        p^ = B |xi|^4 eta^,   v^_a = y (y+1)/(2 nu) * (i xi_a p^) + F_a(f^_a),

    with eta^ the reduced solution's coefficients, taken as they are, and
    f^_a the coefficients of the horizontal force components from
    `sample_forcing` (forcing None: an unforced channel).  p_hat has shape
    (N,) + spectral_shape, each of the dim arrays of v_hat (N,) +
    spectral_shape + (m,).  The reduced displacement must be of zero mean,
    each snapshot's mean within 1e-10 of its largest value (ParameterError).
    params gives B, nu and the reduced coefficient; eps plays no part.
    """

    reduced: FilmTrajectory
    params: ModelParams
    forcing: Forcing | None
    vnodes: VerticalNodes
    p_hat: np.ndarray = field(init=False)
    v_hat: tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self):
        grid, eta, params = self.reduced.grid, self.reduced.eta, self.params
        axes = tuple(range(1, eta.ndim))
        if not np.all(np.abs(eta.mean(axis=axes)) <= 1e-10 * np.max(np.abs(eta), axis=axes)):
            raise ParameterError("reduced displacement snapshots must be of zero mean")
        p_hat = params.B * laplacian_symbol(grid) ** 2 * self.reduced.hat
        y = self.vnodes.nodes
        poise = y * (y + 1.0) / (2.0 * params.nu)
        fhat = ({} if self.forcing is None
                else sample_forcing(self.forcing, grid, self.reduced.times))
        v_hat = []
        for a in range(grid.dim):
            vh = (derivative_symbol(grid, 1, axis=a) * p_hat)[..., None] * poise
            if a in fhat:
                vh = vh + _force_profiles(fhat[a], params.nu, self.vnodes)
            v_hat.append(vh)
        object.__setattr__(self, "p_hat", p_hat)
        object.__setattr__(self, "v_hat", tuple(v_hat))

    def approx(self, params: ModelParams) -> ApproxTriple:
        """The limit scaled back to the thin channel of params.eps, with one
        transform per field component over all snapshots.

        Velocity components carry the common eps^2 prefactor, the vertical
        one is v^_3 = -eps * int_{-1}^{y} sum_a (i xi_a v^_a), the pressure
        is extended constant in the vertical, and the displacement is
        eps^kappa times the reduced one.
        """
        eps, grid, vnodes = params.eps, self.reduced.grid, self.vnodes
        div = sum(derivative_symbol(grid, 1, axis=a)[..., None] * vh
                  for a, vh in enumerate(self.v_hat))
        v_hat = [*self.v_hat, -eps * vnodes.ops.antiderivative(div)]
        # snapshots behind the horizontal axes, which the transforms lead with
        v = [np.moveaxis(grid.irfft(np.moveaxis(eps**2 * vh, 0, -2)), -2, 0) for vh in v_hat]
        p = np.moveaxis(grid.irfft(np.moveaxis(self.p_hat, 0, -1)), -1, 0)
        return ApproxTriple(times=self.reduced.times, v=tuple(v),
                            p=np.repeat(p[..., None], vnodes.m, axis=-1),
                            eta=eps_power(eps, params.kappa) * self.reduced.eta)

    def closure_error(self) -> float:
        """Distance, in L2 of time and space, between the displacement rate
        implied by pressure -> velocity -> flux, -sum_a i xi_a int_{-1}^0
        v^_a dy3, and the right side of the reduced equation at the same
        snapshots, -c |xi|^6 eta^ + F^(t), with c = B/(12 nu) and F the
        reduced source: the rate that the reduced equation gives each
        snapshot.  It is roundoff exactly when c and F are the flux of the
        limit velocity, and it reads no time differences, so any snapshot
        times will do.  Closes the derivation loop of the reduced model."""
        grid, vnodes, times = self.reduced.grid, self.vnodes, self.reduced.times
        rate = -sum(derivative_symbol(grid, 1, axis=a) * (vh @ vnodes.weights)
                    for a, vh in enumerate(self.v_hat))
        rhs = self.params.reduced_coefficient * laplacian_symbol(grid) ** 3 * self.reduced.hat
        if self.forcing is not None:
            rhs = rhs + reduced_source(self.forcing, self.params.nu, grid, vnodes)(times)
        # Parseval: the nodal mean of each snapshot's squared difference
        sq = np.sum(grid.mode_weights * np.abs(rate - rhs) ** 2, axis=tuple(range(1, rate.ndim)))
        return float(np.sqrt(np.trapezoid(sq, times)))
