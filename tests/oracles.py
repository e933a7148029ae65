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


class LoopChebOps:
    """The Chebyshev operators built entry by entry through per-column
    `chebint`/`chebmul` loops, the way `spectral.ChebOps` assembled them
    before it moved to matrix algebra and one Gauss-Legendre rule."""

    def __init__(self, u_nodes: np.ndarray):
        from numpy.polynomial import chebyshev as C

        self.u = np.asarray(u_nodes, dtype=float)
        self.m = m = len(self.u)
        V = C.chebvander(self.u, m - 1)
        coeff = np.linalg.solve(V, np.eye(m))
        cols = [coeff[:, j] for j in range(m)]
        self.D = np.stack([C.chebval(self.u, 2.0 * C.chebder(c)) for c in cols], axis=1)
        int1 = [C.chebint(c, m=1, lbnd=-1, scl=0.5) for c in cols]
        int2 = [C.chebint(c, m=2, lbnd=-1, scl=0.5) for c in cols]
        self.Q = np.stack([C.chebval(self.u, c) for c in int1], axis=1)
        self.Q2 = np.stack([C.chebval(self.u, c) for c in int2], axis=1)
        self.Q[0, :] = 0.0
        self.Q2[0, :] = 0.0
        self.weights = np.array([C.chebval(1.0, c) for c in int1])
        ymul = np.array([-0.5, 0.5])
        self.moment1 = np.array(
            [C.chebval(1.0, C.chebint(C.chebmul(ymul, c), m=1, lbnd=-1, scl=0.5)) for c in cols]
        )

        def gram(rows, columns):
            out = np.empty((len(rows), len(columns)))
            for i, a in enumerate(rows):
                for j, b in enumerate(columns):
                    out[i, j] = C.chebval(1.0, C.chebint(C.chebmul(a, b), m=1, lbnd=-1, scl=0.5))
            return out

        dcols = [2.0 * C.chebder(c) for c in cols]
        self.M = gram(cols, cols)
        self.K = gram(dcols, dcols)
        self.MA = gram(int1, int1)
        self.C_dA = gram(dcols, int1)
        self.M_Al = gram(int1, cols)


# The row-loop CSV writers the field, ledger and CLI artifacts used before
# they shared one writer.  The `csv` module ends rows with "\r\n".

def periodic_field_csv(f, path) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if f.grid.dim == 1:
            writer.writerow(["x", "value"])
            for x, v in zip(f.grid.nodes[0], f.values):
                writer.writerow([repr(float(x)), repr(float(v))])
        else:
            writer.writerow(["x1", "x2", "value"])
            X, Y = f.grid.meshes
            for x, y, v in zip(X.ravel(), Y.ravel(), f.values.ravel()):
                writer.writerow([repr(float(x)), repr(float(y)), repr(float(v))])


def channel_field_csv(f, path) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        y = f.vnodes.nodes
        if f.grid.dim == 1:
            writer.writerow(["x", "y3", "value"])
            for i, x in enumerate(f.grid.nodes[0]):
                for k in range(f.vnodes.m):
                    writer.writerow([repr(float(x)), repr(float(y[k])), repr(float(f.values[i, k]))])
        else:
            writer.writerow(["x1", "x2", "y3", "value"])
            X, Y = f.grid.meshes
            for idx in np.ndindex(*f.grid.shape):
                for k in range(f.vnodes.m):
                    writer.writerow([
                        repr(float(X[idx])), repr(float(Y[idx])),
                        repr(float(y[k])), repr(float(f.values[idx + (k,)])),
                    ])


def ledger_csv(ledger, path) -> None:
    import csv

    cols = ["step", "t", "fluid_kinetic", "plate_kinetic", "bending",
            "viscous_dissipation", "viscoelastic_dissipation",
            "numerical_dissipation", "work", "slack"]
    slack = ledger.slack()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i in range(len(ledger)):
            writer.writerow([
                i + 1, repr(ledger.t[i]), repr(ledger.fluid_kinetic[i]),
                repr(ledger.plate_kinetic[i]), repr(ledger.bending[i]),
                repr(ledger.viscous_dissipation[i]),
                repr(ledger.viscoelastic_dissipation[i]),
                repr(ledger.numerical_dissipation[i]),
                repr(ledger.work[i]), repr(float(slack[i])),
            ])


def trajectory_csv(rows, n: int, path) -> None:
    """thinfilm `trajectory.csv` from (t, eta values) snapshot rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        header = ["t"] + [f"eta_{i:04d}" for i in range(n)]
        fh.write(",".join(header) + "\n")
        for t, vals in rows:
            fh.write(",".join([repr(float(t))] + [repr(float(v)) for v in vals]) + "\n")


def reports_csv(reports, path) -> None:
    """rates `reports.csv` from the ladder's error reports."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("eps,kappa,err_velocity,err_pressure,err_displacement,energy_ratio\n")
        for r in reports:
            fh.write(",".join(repr(float(v)) for v in (
                r.eps, r.kappa, r.err_velocity, r.err_pressure,
                r.err_displacement, r.energy_ratio)) + "\n")


# The coupled step as `fsi.FsiSolver.advance` took it before the mass
# product and the ledger's quadratic forms became batched real products:
# every forcing component transformed, M c and the three quadratic forms by
# `einsum`, and the solve on stacked real and imaginary parts.

def einsum_forcing_hat(solver, t):
    comps = solver.params.forcing(t)
    grid = solver.params.grid
    m = solver.params.vnodes.m
    out = np.empty((len(comps), solver.K, m), dtype=complex)
    for i, comp in enumerate(comps):
        out[i] = grid.rfft(np.asarray(comp, dtype=float)).reshape(solver.K, m)
    return out


def einsum_ledger_increments(solver, asm, old, new, Fq, dt):
    w = solver._w
    coef = solver.coef
    rho_f = solver.params.model.rho_f
    eps = solver.params.model.eps
    mass_q = lambda c: np.einsum("ks,kst,kt->", w[:, None] * np.conj(c), asm.mass, c).real
    visc_q = np.einsum("ks,kst,kt->", w[:, None] * np.conj(new.c), asm.visc, new.c).real
    dc = new.c - old.c
    d_eta = new.eta - old.eta
    d_eta_t = new.eta_t - old.eta_t
    return dict(
        fluid_kinetic=float(0.5 * rho_f * eps * mass_q(new.c)),
        plate_kinetic=float(0.5 * coef["plate_kin"] * np.sum(w * np.abs(new.eta_t) ** 2)),
        bending=float(0.5 * coef["bend"] * np.sum(w * asm.xi4 * np.abs(new.eta) ** 2)),
        numerical=float(
            0.5 * rho_f * eps * mass_q(dc)
            + 0.5 * coef["plate_kin"] * np.sum(w * np.abs(d_eta_t) ** 2)
            + 0.5 * coef["bend"] * np.sum(w * asm.xi4 * np.abs(d_eta) ** 2)),
        viscous=float(dt * coef["work"] * visc_q),
        viscoelastic=float(dt * coef["viscoelastic"]
                           * np.sum(w * asm.xi4 * np.abs(new.eta_t) ** 2)),
        work=float(dt * coef["work"] * np.sum(w * (Fq * np.conj(new.c)).sum(axis=1).real)),
    )


def einsum_advance(solver, spec, t_new):
    """One backward-Euler step of `solver` from `spec`; returns
    (new_state, ledger_increments) like `FsiSolver.advance`."""
    from lubelastic.fsi import _SpectralState

    dt = solver.params.dt
    asm = solver.assembled()
    dh = solver.params.grid.dim
    eps = solver.params.model.eps
    coef = solver.coef
    mi = solver.mi
    fhat = einsum_forcing_hat(solver, t_new)
    Fq = np.empty((solver.K, solver.s), dtype=complex)
    f3q = fhat[dh] @ solver._MAint.T
    for a in range(dh):
        Fq[:, a * mi:(a + 1) * mi] = (fhat[a] @ solver._Mint.T
                                      + 1j * eps * solver.xi[:, a][:, None] * f3q)
    mass_cn = np.einsum("kij,kj->ki", asm.mass, spec.c)
    plate_rhs = (1j * coef["plate_test"]) * (
        coef["plate_kin"] * spec.eta_t / dt - coef["bend"] * asm.xi4 * spec.eta)
    rhs = (coef["fluid_mass"] / dt) * mass_cn + eps * Fq + plate_rhs[:, None] * asm.g
    sol = asm.inv @ np.stack([rhs.real, rhs.imag], axis=2)
    c_new = sol[:, :, 0] + 1j * sol[:, :, 1]
    eta_t_new = -1j * coef["trace"] * np.einsum("ks,ks->k", asm.g, c_new)
    new = _SpectralState(c_new, spec.eta + dt * eta_t_new, eta_t_new, t_new)
    return new, einsum_ledger_increments(solver, asm, spec, new, Fq, dt)
