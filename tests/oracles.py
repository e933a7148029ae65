"""Independent reference computations used by the tests.

Everything here is deliberately built from different algorithms than the
library paths it checks: fixed-point iteration instead of the closed-form
flux balance, raw FFT arithmetic instead of the field classes.
"""
from fractions import Fraction

import numpy as np


def reynolds_fixed_point(eta_vals: np.ndarray, v_D: float, nu: float = 1.0,
                         tol: float = 1e-13, maxit: int = 20000) -> np.ndarray:
    """Stationary pressure under a sliding profile by damped fixed-point
    iteration: split the mobility about its midrange value and invert the
    constant-coefficient part spectrally.  The midrange split keeps the
    iteration a contraction even when the mobility varies strongly.
    """
    n = len(eta_vals)
    xi = 2.0 * np.pi * np.arange(n // 2 + 1)
    m3 = eta_vals**3
    mbar = 0.5 * (m3.max() + m3.min())
    rhs_hat = (-6.0 * nu * v_D) * 1j * xi * (np.fft.rfft(eta_vals) / n)
    p = np.zeros(n)
    sym = mbar * xi**2
    for _ in range(maxit):
        dp = np.fft.irfft(1j * xi * np.fft.rfft(p), n)
        corr = 1j * xi * (np.fft.rfft((m3 - mbar) * dp) / n)
        new_hat = np.zeros(n // 2 + 1, dtype=complex)
        new_hat[1:] = (rhs_hat[1:] + corr[1:]) / sym[1:]
        p_new = np.fft.irfft(new_hat * n, n)
        if np.max(np.abs(p_new - p)) < tol * max(1.0, np.max(np.abs(p_new))):
            p = p_new
            break
        p = p_new
    return p - p.mean()


def quadrature_inner(grid_values_a: np.ndarray, grid_values_b: np.ndarray) -> float:
    """Plain nodal quadrature of a product over the unit torus."""
    return float(np.mean(grid_values_a * grid_values_b))


class CollocationModeOracle:
    """Primal velocity/pressure collocation for one coupled mode.

    Independent discretization of the same per-wavenumber problem the
    production solver treats in a divergence-free Galerkin space: here the
    velocity components, the pressure profile and the plate harmonics are
    all explicit unknowns, boundary and coupling conditions are explicit
    matrix rows, and one backward-Euler step solves the dense system.
    """

    def __init__(self, vnodes, model, k: int, dt: float):
        import lubelastic as lb

        self.m = m = vnodes.m
        self.dt = dt
        self.model = model
        eps = model.eps
        nu = model.nu
        xi = 2.0 * np.pi * k
        D = vnodes.ops.D
        D2 = D @ D
        e = lambda expo: lb.eps_power(eps, expo)
        inert = model.rho_f * e(-model.tau) / dt
        tinv = e(-model.tau)

        N = 3 * m + 2
        A = np.zeros((N, N), dtype=complex)
        sl_v1 = slice(0, m)
        sl_v3 = slice(m, 2 * m)
        sl_p = slice(2 * m, 3 * m)
        i_eta, i_etat = 3 * m, 3 * m + 1

        visc = -nu * (-xi**2 * np.eye(m) + D2 / eps**2)
        row = 0
        for i in range(1, m - 1):  # horizontal momentum, interior
            A[row, sl_v1] = visc[i]
            A[row, i + 0] += inert
            A[row, 2 * m + i] = 1j * xi
            row += 1
        A[row, 0] = 1.0; row += 1          # no slip bottom
        A[row, m - 1] = 1.0; row += 1      # plate moves vertically only
        for i in range(1, m - 1):  # vertical momentum, interior
            A[row, sl_v3] = visc[i]
            A[row, m + i] += inert
            A[row, sl_p] = D[i] / eps
            row += 1
        A[row, m] = 1.0; row += 1          # no slip bottom
        A[row, 2 * m - 1] = 1.0            # kinematic trace
        A[row, i_etat] = -tinv; row += 1
        for j in range(m):  # scaled divergence at every node
            A[row, j] = 1j * xi
            A[row, sl_v3] = A[row, sl_v3] + D[j] / eps
            row += 1
        # plate momentum with the fluid normal load
        A[row, i_etat] = (model.rho_s * e(-model.kappa - 2 * model.tau) / dt
                          + model.theta * e(-model.tau) * xi**4)
        A[row, i_eta] = model.B * e(-model.kappa) * xi**4
        A[row, 3 * m - 1] = -1.0
        A[row, sl_v3] = A[row, sl_v3] + 2.0 * nu * D[m - 1] / eps
        row += 1
        A[row, i_eta] = 1.0
        A[row, i_etat] = -dt
        self.A = A
        self.lu = None
        self.inert = inert
        self.plate_inert = model.rho_s * e(-model.kappa - 2 * model.tau) / dt
        self.state = np.zeros(N, dtype=complex)
        self.sl_v1, self.sl_v3, self.sl_p = sl_v1, sl_v3, sl_p
        self.i_eta, self.i_etat = i_eta, i_etat

    def step(self, f1_profile: np.ndarray) -> None:
        # rhs layout matches the assembly order: interior momentum rows,
        # boundary rows, divergence rows (homogeneous), plate rows
        m = self.m
        rhs = np.zeros_like(self.state)
        row = 0
        rhs[row: row + m - 2] = f1_profile[1:-1] + self.inert * self.state[self.sl_v1][1:-1]
        row += m - 2 + 2
        rhs[row: row + m - 2] = self.inert * self.state[self.sl_v3][1:-1]
        row += m - 2 + 2
        row += m
        rhs[row] = self.plate_inert * self.state[self.i_etat]
        rhs[row + 1] = self.state[self.i_eta]
        self.state = np.linalg.solve(self.A, rhs)

    @property
    def eta(self) -> complex:
        return self.state[self.i_eta]

    @property
    def v1(self) -> np.ndarray:
        return self.state[self.sl_v1]


def hand_built_rate_config(doc: dict):
    """RateStudyConfig copied key by key from a rates document, the way the
    CLI and the acceptance fixture built it before configurations were
    decoded from the dataclass fields."""
    from lubelastic import verify

    return verify.RateStudyConfig(
        kappa=Fraction(doc["kappa"]),
        eps_list=tuple(doc["eps_list"]),
        dim=doc["dim"], n=doc["n"], m=doc["m"], dt=doc["dt"],
        t_end=doc["t_end"], snapshot_stride=doc["snapshot_stride"],
        amplitude=doc["amplitude"], ramp_time=doc["ramp_time"],
        rho_f=doc["rho_f"], rho_s=doc["rho_s"], B=doc["B"], nu=doc["nu"],
        theta=doc["theta"],
    )
