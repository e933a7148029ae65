"""Degenerate-parabolic film-height models on the periodic line.

The family solved here is

    d/dt eta = (-1)**((alpha-1)/2) d/dx(eta**3 d^alpha/dx^alpha eta)
               + d/dx(eta**3 d/dx Phi'(eta)) - P d/dx(eta * v_D),

with alpha in {1, 3, 5} selecting the pressure balance (gravity, surface
tension, plate bending), an optional potential Phi and a bottom-wall drift
of speed v_D with prefactor P (default 6).  A linearized variant replaces
the cubic mobility by the constant coefficient c.

Time stepping is semi-implicit: the leading operator with the mobility
frozen at its maximum is inverted through its Fourier symbol, everything
else is explicit; a step whose new height is not finite, or dips below the
positivity floor under cubic mobility, is halved.  The divergence form is
applied spectrally as the last operation, so the mean of eta is conserved
to roundoff.  Heights and pressures are plain arrays of nodal values on a
`PeriodicGrid`, passed with the grid.  A `FilmTrajectory` is the one record
of a height series: the grid, the times and the nodal values and Fourier
coefficients of every snapshot, one array per field with the snapshots
along the leading axis.  `evolve` integrates a whole run in one call, on
raw (values, coefficients) arrays, and returns its snapshots as one; so
does the mode-exact solve.

A mode-exact exponential integrator is provided for the linear sixth-order
evolution d/dt eta - c (Lap')^3 eta = F, and the classical stationary
pressure problem -d/dx(eta**3 dp/dx) = -6 nu v_D d/dx eta is solved in
closed form through the periodic flux balance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .errors import GridMismatchError, ParameterError, PositivityError, check_range
from .spectral import (
    PeriodicGrid,
    _step_count,
    dealiased_product,
    derivative_symbol,
    laplacian_symbol,
    padded_values,
    spectral_derivative,
    truncated_hat,
)

POSITIVITY_FLOOR = 1e-6
MAX_HALVINGS = 20


@dataclass(frozen=True)
class PowerPotential:
    """Potential derivative Phi'(eta) = strength * eta**exponent; kind tags it in a document."""

    kind: Literal["power"]
    strength: float
    exponent: float

    def __post_init__(self):
        check_range(-np.inf, np.inf, strength=self.strength, exponent=self.exponent)

    def __call__(self, eta):
        return self.strength * eta**self.exponent


@dataclass(frozen=True)
class ThinFilmModel:
    """One member of the film-height model family.

    alpha selects the leading operator order (the equation is of order
    alpha + 1); mobility_scale multiplies the cubic mobility of the leading
    term only.  With linearized=True the mobility is the constant 1 and c is
    the leading coefficient; a potential is not meaningful in that case.
    """

    alpha: int
    c: float = 1.0
    mobility_scale: float = 1.0
    potential: Optional[PowerPotential] = None
    v_D: float = 0.0
    drift_prefactor: float = 6.0
    linearized: bool = False

    def __post_init__(self):
        check_range(1, 6, closed=True, integer=True, alpha=self.alpha)
        if self.alpha not in (1, 3, 5):
            raise ParameterError(f"alpha must be one of 1, 3, 5, got {self.alpha}")
        check_range(closed=True, c=self.c)
        check_range(-np.inf, np.inf, mobility_scale=self.mobility_scale, v_D=self.v_D,
                    drift_prefactor=self.drift_prefactor)
        if self.linearized and self.potential is not None:
            raise ParameterError("a potential term is not defined for the linearized model")

    @property
    def sign(self) -> float:
        return (-1.0) ** ((self.alpha - 1) // 2)


@dataclass(frozen=True, eq=False)
class FilmTrajectory:
    """N snapshots of a periodic height, the snapshots along the leading
    axis: finite, strictly increasing times (N,), finite nodal values eta,
    (N,) + grid.shape, and their coefficients hat, (N,) + grid.spectral_shape,
    computed from eta when omitted.  Times and values are held as floats."""

    grid: PeriodicGrid
    times: np.ndarray
    eta: np.ndarray
    hat: Optional[np.ndarray] = None

    def __post_init__(self):
        times, eta = np.asarray(self.times, dtype=float), np.asarray(self.eta, dtype=float)
        if times.ndim != 1 or eta.shape != times.shape + self.grid.shape:
            raise GridMismatchError(f"{eta.shape} height snapshots at {times.shape} times "
                                    f"on a grid of shape {self.grid.shape}")
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise ParameterError("snapshot times must be finite and strictly increasing")
        if not np.all(np.isfinite(eta)):
            raise ParameterError("height snapshots must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "eta", eta)
        if self.hat is None:
            # one transform, the snapshots behind the horizontal axes
            object.__setattr__(self, "hat",
                               np.moveaxis(self.grid.rfft(np.moveaxis(eta, 0, -1)), -1, 0))


@dataclass(frozen=True)
class FilmRun:
    """What `evolve` returns.

    snapshots holds the initial state and every snapshot_stride-th step (the
    last step always); t and energy hold the time and the film energy after
    every step, the initial ones first: 1/2 |Lap' eta|^2 for alpha = 5,
    1/2 |d/dx eta|^2 for alpha = 3, 1/2 |eta|^2 for alpha = 1 and linearized
    runs.  min_eta is the smallest height at the initial state and the step
    ends; substeps counts accepted sub-steps, which exceed the steps exactly
    when the height rule (finite, and above the positivity floor under cubic
    mobility) halved a step.
    """

    snapshots: FilmTrajectory
    t: np.ndarray
    energy: np.ndarray
    min_eta: float
    substeps: int


class _FilmOperator:
    """The symbols of one model on one grid, built once per run, and the
    spatial right-hand side on raw (values, coefficients) arrays."""

    def __init__(self, model: ThinFilmModel, grid: PeriodicGrid):
        if grid.dim != 1:
            raise ParameterError("the film family is one-dimensional")
        self.model, self.grid = model, grid
        xi = grid.xi[0]
        self.div = derivative_symbol(grid, 1)  # d/dx with the Nyquist mode zeroed
        self.xi_power = xi ** (model.alpha + 1)
        self.drift = None
        if model.v_D != 0.0:
            self.drift = model.drift_prefactor * model.v_D * self.div
        self.energy_weights = _energy_weights(model, grid)
        if model.linearized:
            self.leading = model.sign * model.c * (1j * xi) ** (model.alpha + 1)
            self.linear_L = -model.c * self.xi_power
        else:
            self.d_alpha = derivative_symbol(grid, model.alpha)
            # rows: eta, d^alpha eta[, d/dx Phi'(eta)], padded in one transform
            rows = 2 if model.potential is None else 3
            self.stack = np.empty((rows, len(xi)), dtype=complex)

    def frozen_symbol(self, hi: float) -> np.ndarray:
        """Fourier symbol of the leading operator with the mobility frozen
        at the largest height hi."""
        if self.model.linearized:
            return self.linear_L
        return -(self.model.mobility_scale * float(hi) ** 3) * self.xi_power

    def rhs(self, values: np.ndarray, hat: np.ndarray) -> np.ndarray:
        """Coefficients of the right-hand side; zero mean by divergence form."""
        model, grid = self.model, self.grid
        if model.linearized:
            out = self.leading * hat
        else:
            stack = self.stack
            stack[0] = hat
            np.multiply(self.d_alpha, hat, out=stack[1])
            if model.potential is not None:
                stack[2] = self.div * grid.rfft(model.potential(values))
            e, slope, *potential = padded_values(grid, stack.T).T
            slope = model.sign * model.mobility_scale * slope
            if potential:
                slope = slope + potential[0]
            out = self.div * truncated_hat(grid, e * e * e * slope)
        if self.drift is not None:
            out -= self.drift * hat
        out[0] = 0.0
        return out

    def energy(self, hat: np.ndarray) -> float:
        return 0.5 * np.sum(self.energy_weights * np.abs(hat) ** 2)


# a candidate whose height or energy overflows is halved: nothing to warn of
@np.errstate(over="ignore", invalid="ignore")
def evolve(model: ThinFilmModel, grid: PeriodicGrid, eta0, dt: float, steps: int,
           snapshot_stride: int = 1) -> FilmRun:
    """Advance the height eta0 (nodal values on grid) from t = 0 by steps
    semi-implicit steps of size dt.

    The initial height must be finite, and positive under cubic mobility
    (ParameterError).  The run's symbols are built once; the loop carries
    raw (values, coefficients) arrays and stacks the snapshots' once, at the
    end.  An accepted sub-step makes three transforms (four with a
    potential): one stacked padded inverse transform of eta and d^alpha eta
    (and of the potential's gradient), one forward transform of the padded
    flux, and one inverse transform of the new coefficients.  If the
    candidate height or its film energy is not finite, or the height dips
    below `POSITIVITY_FLOOR` under cubic mobility, the sub-step is halved (at
    most `MAX_HALVINGS` times in a step; PositivityError after that) and the
    run goes on from the last valid height until the step's end.
    """
    check_range(dt=dt)
    check_range(1, closed=True, integer=True, steps=steps, snapshot_stride=snapshot_stride)
    values = grid.check(eta0)
    lo, hi = values.min(), values.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ParameterError("initial film height contains non-finite values")
    if not model.linearized and lo <= 0.0:
        raise ParameterError(f"initial film height must be positive under cubic mobility, "
                             f"min is {lo:.3e}")
    floor = POSITIVITY_FLOOR
    op = _FilmOperator(model, grid)
    hat, t = grid.rfft(values), 0.0
    times = np.empty(steps + 1)
    energy = np.empty(steps + 1)
    times[0], energy[0] = t, op.energy(hat)
    min_eta = float(lo)
    snapshots = [(t, values, hat)]
    substeps = 0
    for i in range(steps):
        remaining = sub = dt
        halvings = 0
        while remaining > 1e-14 * dt:
            L = op.frozen_symbol(hi)
            drive = op.rhs(values, hat) - L * hat
            sub = min(sub, remaining)
            while True:
                new_hat = (hat + sub * drive) / (1.0 - sub * L)
                new_values = grid.irfft(new_hat)
                new_lo, new_hi = new_values.min(), new_values.max()
                new_e = op.energy(new_hat)
                if (np.isfinite([new_lo, new_hi, new_e]).all()
                        and (model.linearized or not new_lo < floor)):
                    break
                halvings += 1
                if halvings > MAX_HALVINGS:
                    raise PositivityError(
                        f"finite height and energy (the height above the floor {floor} "
                        f"under cubic mobility) unreachable after {MAX_HALVINGS} halvings",
                        last_state=FilmTrajectory(grid, [t + (dt - remaining)], values[None],
                                                  hat[None]),
                    )
                sub *= 0.5
            remaining -= sub
            substeps += 1
            values, hat, lo, hi, e_now = new_values, new_hat, new_lo, new_hi, new_e
        t = t + dt
        times[i + 1], energy[i + 1] = t, e_now
        min_eta = min(min_eta, float(lo))
        if (i + 1) % snapshot_stride == 0 or i == steps - 1:
            snapshots.append((t, values, hat))
    return FilmRun(FilmTrajectory(grid, *map(np.array, zip(*snapshots))), times, energy,
                   min_eta, substeps)


def _energy_weights(model: ThinFilmModel, grid: PeriodicGrid) -> np.ndarray:
    """Parseval weights times the energy symbol |xi|^(alpha-1); 1 for
    linearized runs."""
    xi2 = -laplacian_symbol(grid)
    if model.linearized or model.alpha == 1:
        sym = np.ones_like(xi2)
    elif model.alpha == 3:
        sym = xi2
    else:
        sym = xi2**2
    return grid.mode_weights * sym


def solve_linear_sixth(c: float, F, grid: PeriodicGrid, eta0, t_end: float, dt: float,
                       snapshot_stride: int = 1) -> FilmTrajectory:
    """Integrate d/dt eta - c (Lap')^3 eta = F mode-exactly.

    Parameters
    ----------
    c : positive coefficient of the sixth-order operator.
    F : source; None, or a callable mapping an array of times to the stack
        of the source's coefficients at those times, shape
        (len(times),) + grid.spectral_shape, finite.  Sampled at all step
        endpoints in one call and integrated by the exponential
        trapezoidal rule, which is exact for sources at most linear in time
        at any stiffness, second-order accurate otherwise.
    grid, eta0 : the grid and the initial height's nodal values on it.
    t_end, dt : horizon and step; t_end must be an integer number of steps.
    snapshot_stride : keep every stride-th state (the initial and final states
        are always kept).

    The zero mode is untouched whenever F has zero mean, so a zero-mean eta
    stays zero-mean.
    """
    check_range(c=c)
    nsteps = _step_count(t_end, dt)
    check_range(1, closed=True, integer=True, snapshot_stride=snapshot_stride)
    eta0 = grid.check(eta0)
    lam = c * (-laplacian_symbol(grid)) ** 3  # decay rate per mode, >= 0
    z = -lam * dt
    decay = np.exp(z)
    phi1, phi2 = _phi1(z), _phi2(z)

    times = dt * np.arange(nsteps + 1)
    hat = grid.rfft(eta0)
    kept, hats = [0], [hat]
    gain = None
    if F is not None:
        s = np.asarray(F(times))
        if s.shape != (len(times),) + grid.spectral_shape:
            raise ParameterError(f"the source gives shape {s.shape} at {len(times)} times, "
                                 f"not {(len(times),) + grid.spectral_shape}")
        finite = np.isfinite(s).reshape(len(times), -1).all(axis=1)
        if not finite.all():
            raise ParameterError(f"the source is not finite at t = {times[np.argmin(finite)]}")
        gain = dt * ((phi1 - phi2) * s[:-1] + phi2 * s[1:])
    for i in range(nsteps):
        hat = decay * hat
        if gain is not None:
            hat = hat + gain[i]
        if (i + 1) % snapshot_stride == 0 or i == nsteps - 1:
            kept.append(i + 1)
            hats.append(hat)
    hats = np.array(hats)
    # the initial height as given, one inverse transform for all the others
    eta = np.concatenate([eta0[None],
                          np.moveaxis(grid.irfft(np.moveaxis(hats[1:], 0, -1)), -1, 0)])
    return FilmTrajectory(grid, times[kept], eta, hats)


def _phi1(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1)/z, its Taylor polynomial near z = 0."""
    big = np.abs(z) > 1e-8
    return np.where(big, np.expm1(z) / np.where(big, z, 1.0), 1.0 + 0.5 * z)


def _phi2(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1 - z)/z**2, its Taylor polynomial near z = 0."""
    big = np.abs(z) > 1e-6
    return np.where(big, (np.expm1(z) - z) / np.where(big, z, 1.0) ** 2, 0.5 + z / 6.0)


def solve_reynolds_stationary(grid: PeriodicGrid, eta, v_D: float, nu: float = 1.0) -> np.ndarray:
    """Stationary pressure under a profile eta sliding over a wall at speed v_D.

    Solves -d/dx(eta**3 dp/dx) = -6 nu v_D d/dx eta on the periodic line in
    closed form: integrating once gives eta**3 p' = 6 nu v_D eta + const,
    and the constant is fixed by requiring p' to have zero mean so that p is
    periodic.  nu = 1 recovers the classical normalized equation.  Returns
    the nodal values of the unique zero-mean pressure.
    """
    if grid.dim != 1:
        raise ParameterError("the stationary pressure problem is one-dimensional")
    check_range(nu=nu)
    check_range(-np.inf, np.inf, v_D=v_D)
    h = grid.check(eta)
    if not h.min() > 0.0:
        raise ParameterError(f"profile must be strictly positive, min is {h.min():.3e}")
    inv2 = h**-2
    inv3 = h**-3
    flux_const = -6.0 * nu * v_D * inv2.mean() / inv3.mean()
    dp = (6.0 * nu * v_D * h + flux_const) * inv3
    dp_hat = grid.rfft(dp)
    p_hat = np.zeros_like(dp_hat)
    p_hat[1:] = dp_hat[1:] / (1j * grid.xi[0][1:])
    return grid.irfft(p_hat)


def reynolds_residual(grid: PeriodicGrid, eta, p, v_D: float, nu: float = 1.0) -> float:
    """L2 residual of the stationary strong form for a candidate pressure,
    both given as nodal values on the grid."""
    check_range(nu=nu)
    check_range(-np.inf, np.inf, v_D=v_D)
    flux = dealiased_product(grid, eta, eta, eta, spectral_derivative(grid, p, 1))
    lhs = -spectral_derivative(grid, flux, 1)
    rhs_ = -6.0 * nu * v_D * spectral_derivative(grid, eta, 1)
    return float(np.sqrt(np.mean((lhs - rhs_) ** 2)))
