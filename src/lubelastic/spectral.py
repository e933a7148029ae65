"""Periodic pseudo-spectral machinery and vertical Chebyshev discretization.

Horizontal directions live on the unit torus (0,1)^dim sampled at n uniform
nodes per direction, with derivatives applied through the Fourier symbol
(2*pi*i*k)**order.  A horizontal field is a plain array of nodal values,
shape grid.shape; `PeriodicGrid.check` is the one shape rule of every
function that takes one.  The vertical direction lives on (-1, 0) sampled at
Chebyshev-Gauss-Lobatto points.  `ChebOps` inverts the Vandermonde matrix
once, differentiates and integrates all cardinal polynomials together in
Chebyshev coefficient space, and evaluates the results through Vandermonde
matrices; the Gram matrices are sums over one (m+1)-point Gauss-Legendre
rule, which is exact for every product of two profiles, so quadrature is
exact for every polynomial the solvers produce.

Nonlinear products of the 1D film and pressure models are formed nodally on
a 3/2 zero-padded grid (Orszag's rule); the cubic mobility of the film models
aliases badly at marginal resolution otherwise.  `padded_values` and
`truncated_hat` are the two halves of that rule and work on the coefficients
of a 1D grid, so a caller that holds a field's coefficients pads each
distinct factor once, with one transform each way.

A grid transforms along the leading (horizontal) axes of an array; trailing
axes, such as the vertical nodes of a channel field, are transformed
independently, and so are the trailing axes of a stack of coefficients
handed to `padded_values` or `truncated_hat`.  A 1D grid calls
`np.fft.rfft`/`irfft`, whose inverse zero-pads a short spectrum itself.
The arrays a grid caches (`nodes`, `meshes`, `wavenumbers`, `xi`,
`mode_weights`) are shared by every user of the grid and are read-only.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np
from numpy.polynomial import chebyshev as C

from .errors import GridMismatchError, ParameterError, check_range

__all__ = [
    "PeriodicGrid",
    "VerticalNodes",
    "spectral_derivative",
    "dealiased_product",
]


# ----------------------------------------------------------------------
# horizontal grids
# ----------------------------------------------------------------------

def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class PeriodicGrid:
    """Uniform periodic grid on (0,1)^dim with power-of-two resolution."""

    dim: int
    n: int

    def __post_init__(self):
        check_range(1, 3, closed=True, integer=True, dim=self.dim)
        check_range(8, closed=True, integer=True, n=self.n)
        if self.n & (self.n - 1):
            raise ParameterError(f"n must be a power of two >= 8, got {self.n}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @cached_property
    def nodes(self) -> tuple[np.ndarray, ...]:
        x = _read_only(np.arange(self.n) / self.n)
        return (x,) * self.dim

    @cached_property
    def meshes(self) -> tuple[np.ndarray, ...]:
        return tuple(map(_read_only, np.meshgrid(*self.nodes, indexing="ij")))

    @cached_property
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Integer wavenumbers for each axis of the half-spectrum layout: the
        full set on the leading axes, the nonnegative half on the last."""
        full = _read_only(np.fft.fftfreq(self.n, d=1.0 / self.n).astype(int))
        return (full,) * (self.dim - 1) + (_read_only(np.arange(self.n // 2 + 1)),)

    @cached_property
    def xi(self) -> tuple[np.ndarray, ...]:
        """Angular wavenumbers 2*pi*k broadcast over the spectral layout."""
        ks = np.meshgrid(*self.wavenumbers, indexing="ij", sparse=True)
        return tuple(_read_only(2.0 * np.pi * k) for k in ks)

    @cached_property
    def mode_weights(self) -> np.ndarray:
        """Parseval multiplicities of the half-spectrum layout.

        With coefficients normalized by n**dim, the nodal mean of |g|^2
        equals sum(mode_weights * |ghat|^2).
        """
        w = np.full(self.spectral_shape, 2.0)
        w[..., 0] = w[..., -1] = 1.0
        return _read_only(w)

    @property
    def spectral_shape(self) -> tuple[int, ...]:
        return (self.n,) * (self.dim - 1) + (self.n // 2 + 1,)

    def check(self, values) -> np.ndarray:
        """values as a float array; GridMismatchError unless it has the grid's shape."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.shape:
            raise GridMismatchError(
                f"values shape {values.shape} does not match grid shape {self.shape}"
            )
        return values

    def rfft(self, values: np.ndarray) -> np.ndarray:
        """Forward real transform over the horizontal axes, normalized."""
        if self.dim == 1:
            return np.fft.rfft(values, axis=0) / self.n
        return np.fft.rfftn(values, axes=(0, 1)) / self.n**2

    def irfft(self, coeffs: np.ndarray) -> np.ndarray:
        if self.dim == 1:
            return np.fft.irfft(coeffs * self.n, n=self.n, axis=0)
        return np.fft.irfftn(coeffs * self.n**2, s=self.shape, axes=(0, 1))


def spectral_derivative(grid: PeriodicGrid, values, order: int, axis: int = 0) -> np.ndarray:
    """Nodal derivative of nodal values through the Fourier symbol; exact for
    band-limited values.

    Odd orders zero the Nyquist mode (its derivative is not representable on
    the grid) and always return zero-mean values.
    """
    return grid.irfft(grid.rfft(grid.check(values)) * derivative_symbol(grid, order, axis))


def derivative_symbol(grid: PeriodicGrid, order: int, axis: int = 0) -> np.ndarray:
    """(i xi)**order along one axis; odd orders zero the Nyquist mode, whose
    imaginary part no real grid function has."""
    check_range(1, 7, closed=True, integer=True, order=order)
    check_range(0, grid.dim, closed=True, integer=True, axis=axis)
    sym = (1j * grid.xi[axis]) ** order
    if order % 2 == 1:
        sym[nyquist_index(grid, axis)] = 0.0
    return sym


def nyquist_index(grid: PeriodicGrid, axis: int) -> tuple:
    """Index of the Nyquist modes of the spectral layout, n/2 along the
    given horizontal axis."""
    return (slice(None),) * axis + (grid.n // 2,)


def drop_nyquist(grid: PeriodicGrid, hat: np.ndarray) -> np.ndarray:
    """Zero, in place, the coefficients at index n/2 of every horizontal
    axis of hat, whose horizontal axes lead; returns hat."""
    for axis in range(grid.dim):
        hat[nyquist_index(grid, axis)] = 0.0
    return hat


_BLOCK_BYTES = 64 * 1024


def _steps_per_block(step_bytes: int) -> int:
    """Time steps a solver batches together when one step's stacked data
    takes step_bytes: a block stays near 64 KiB, and at least one step."""
    return max(1, _BLOCK_BYTES // step_bytes)


def _step_count(t_end: float, dt: float) -> int:
    """Steps of size dt from 0 to t_end.  Raises ParameterError unless t_end,
    dt and their ratio are positive and finite and t_end is a whole number
    of steps, within 1e-9 of the larger of the two."""
    if not (0 < t_end < np.inf and 0 < dt < np.inf and t_end / dt < np.inf):
        raise ParameterError(f"t_end = {t_end} and dt = {dt} must be positive and finite, "
                             "with a finite ratio")
    nsteps = int(round(t_end / dt))
    if not nsteps >= 1 or abs(nsteps * dt - t_end) > 1e-9 * max(t_end, dt):
        raise ParameterError(f"t_end = {t_end} is not an integer multiple of dt = {dt}")
    return nsteps


def laplacian_symbol(grid: PeriodicGrid) -> np.ndarray:
    """Symbol of the horizontal Laplacian, -|xi|^2, on the spectral layout."""
    return -sum(x**2 for x in grid.xi)


def dealiased_product(grid: PeriodicGrid, *factors) -> np.ndarray:
    """Nodal product of nodal values on a 3/2 zero-padded 1D grid; a factor
    passed more than once (the same object) is padded once."""
    if not factors:
        raise ParameterError("need at least one factor")
    if grid.dim != 1:
        raise ParameterError("the 3/2 dealiasing is one-dimensional")
    distinct = {id(f): f for f in factors}
    padded = {key: padded_values(grid, grid.rfft(grid.check(f))) for key, f in distinct.items()}
    prod = reduce(np.multiply, (padded[id(f)] for f in factors))
    return grid.irfft(truncated_hat(grid, prod))


def padded_values(grid: PeriodicGrid, hat: np.ndarray) -> np.ndarray:
    """Nodal values on the 3/2 grid of the 1D field with coefficients hat."""
    npad = 3 * grid.n // 2
    return np.fft.irfft(hat * npad, n=npad, axis=0)


def truncated_hat(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """Coefficients on the 1D grid of a nodal field sampled on its 3/2 grid."""
    npad = 3 * grid.n // 2
    return np.fft.rfft(values, axis=0)[: grid.n // 2 + 1] / npad


# ----------------------------------------------------------------------
# vertical discretization on (-1, 0)
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class VerticalNodes:
    """Chebyshev-Gauss-Lobatto nodes on (-1, 0) with exact quadrature.

    nodes[0] = -1 and nodes[m-1] = 0; the weights integrate every polynomial
    of degree <= m-1 exactly over (-1, 0).  The default resolution is ample
    for the smooth per-mode channel profiles.
    """

    m: int = 32
    nodes: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        check_range(4, closed=True, integer=True, m=self.m)
        u = -np.cos(np.pi * np.arange(self.m) / (self.m - 1))  # increasing on [-1, 1]
        y = (u - 1.0) / 2.0  # increasing on [-1, 0]
        y[0], y[-1] = -1.0, 0.0
        object.__setattr__(self, "nodes", y)
        object.__setattr__(self, "_u", u)
        object.__setattr__(self, "weights", self.ops.weights)

    @cached_property
    def ops(self) -> "ChebOps":
        return ChebOps(self._u)


class ChebOps:
    """Exact collocation operators for profiles sampled at mapped CGL nodes.

    Built as the module docstring says, on the reference variable u in
    [-1, 1] with y = (u - 1)/2.  The columns of the inverse Vandermonde
    matrix are the cardinal polynomials l_j (degree m-1); their
    antiderivatives A_j have degree m, so the (m+1)-point Gauss-Legendre
    rule, exact to degree 2m+1, integrates every Gram product.
    """

    def __init__(self, u_nodes: np.ndarray):
        self.u = np.asarray(u_nodes, dtype=float)
        self.m = m = len(self.u)
        coeff = np.linalg.inv(C.chebvander(self.u, m - 1))  # nodal values -> coefficients
        dcoeff = 2.0 * C.chebder(coeff, axis=0)             # d/dy = 2 d/du
        # first and second antiderivatives with lower bound y = -1 (u = -1)
        int1 = C.chebint(coeff, m=1, lbnd=-1, scl=0.5, axis=0)
        int2 = C.chebint(coeff, m=2, lbnd=-1, scl=0.5, axis=0)
        self.D = C.chebvander(self.u, m - 2) @ dcoeff
        self.Q = C.chebvander(self.u, m) @ int1
        self.Q2 = C.chebvander(self.u, m + 1) @ int2
        self.Q[0, :] = 0.0   # running integrals start at the bottom wall
        self.Q2[0, :] = 0.0
        self.weights = int1.sum(axis=0)  # T_k(1) = 1
        # first moment, integral of y * l_j over (-1, 0); by parts -int A_j
        self.moment1 = -int2.sum(axis=0)
        # Gram matrices over (-1, 0): dy = du / 2
        g, w = np.polynomial.legendre.leggauss(m + 1)
        L, dL, A = (C.chebvander(g, c.shape[0] - 1) @ c for c in (coeff, dcoeff, int1))
        wL, wdL, wA = ((0.5 * w[:, None]) * v for v in (L, dL, A))
        self.M = wL.T @ L
        self.K = wdL.T @ dL
        self.MA = wA.T @ A
        self.C_dA = wdL.T @ A   # int l_i' * A_j
        self.M_Al = wA.T @ L    # int A_i * l_j

    def antiderivative(self, profile: np.ndarray) -> np.ndarray:
        """Running integral from -1, applied along the last axis."""
        return np.asarray(profile) @ self.Q.T

    def second_antiderivative(self, profile: np.ndarray) -> np.ndarray:
        return np.asarray(profile) @ self.Q2.T

    def differentiate(self, profile: np.ndarray) -> np.ndarray:
        return np.asarray(profile) @ self.D.T

