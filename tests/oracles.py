"""Independent reference computations used by the tests.

Everything here is deliberately built from different algorithms than the
library paths it checks: fixed-point iteration instead of the closed-form
flux balance, raw FFT arithmetic instead of the field classes.
"""
from collections import namedtuple
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

def periodic_field_csv(grid, values, path) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if grid.dim == 1:
            writer.writerow(["x", "value"])
            for x, v in zip(grid.nodes[0], values):
                writer.writerow([repr(float(x)), repr(float(v))])
        else:
            writer.writerow(["x1", "x2", "value"])
            X, Y = grid.meshes
            for x, y, v in zip(X.ravel(), Y.ravel(), values.ravel()):
                writer.writerow([repr(float(x)), repr(float(y)), repr(float(v))])


def channel_field_csv(grid, vnodes, values, path) -> None:
    """The old rows of a channel field of nodal values grid.shape + (m,)."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        y = vnodes.nodes
        if grid.dim == 1:
            writer.writerow(["x", "y3", "value"])
            for i, x in enumerate(grid.nodes[0]):
                for k in range(vnodes.m):
                    writer.writerow([repr(float(x)), repr(float(y[k])), repr(float(values[i, k]))])
        else:
            writer.writerow(["x1", "x2", "y3", "value"])
            X, Y = grid.meshes
            for idx in np.ndindex(*grid.shape):
                for k in range(vnodes.m):
                    writer.writerow([
                        repr(float(X[idx])), repr(float(Y[idx])),
                        repr(float(y[k])), repr(float(values[idx + (k,)])),
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
                i + 1, *(repr(float(getattr(ledger, name)[i])) for name in cols[1:-1]),
                repr(float(slack[i])),
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


# One coupled solver's setup as `fsi.FsiSolver` and `fsi._Assembled` held it
# before `fsi.run_batch` built the coefficients and step matrices of all its
# points at once, stacked along a solver axis: the frame, a string-keyed
# dict of Python scalar coefficients, and the per-row step operator
# assembled and factored for this solver alone, on first use.  The oracles
# below read a solver through this class.

class Assembled:
    """Per-row matrices (P*K, mi, mi) of the step operator for params.dt,
    with their inverses, and every row's augmented step (Gh, Maug).  lam is
    |xi|^2 on the along-xi rows and 0 on the across-xi rows; the plate's
    rank-one term g g^T enters rows :K only."""

    def __init__(self, solver):
        p = solver.params
        dt = p.dt
        K, P, mi = solver.K, solver.P, solver.mi
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

        xi2 = np.tile(solver.xi2, P)[:, None, None]   # |xi|^2 on every row
        lam = np.zeros_like(xi2)
        lam[:K] = xi2[:K]
        mass = Mi + eps**2 * (lam * MAi)
        visc = (0.5 * xi2) * Mi + (1.5 * lam) * Mi + 0.5 * (
            Ki / eps**2 + lam * Csym + eps**2 * ((xi2 * lam) * MAi))
        visc *= 2.0 * nu
        g = solver.xi_L[:, None] * a0

        xi4 = solver.xi2**2
        plate_coef = (
            solver.coef["rho_s_mass"] / dt
            + solver.coef["theta_rank1"] * xi4
            + solver.coef["bending_rank1"] * dt * xi4
        )
        A = (solver.coef["fluid_mass"] / dt) * mass + eps * visc
        A[:K] += plate_coef[:, None, None] * (g[:, :, None] * g[:, None, :])
        L = np.linalg.cholesky(A)
        Linv = np.linalg.inv(L)

        self.A = A
        self.mass, self.visc = mass, visc
        self.g = g
        self.xi4 = xi4
        self.inv = np.swapaxes(Linv, 1, 2) @ Linv   # A^-1 = L^-T L^-1

        # the augmented step of every row, built as `fsi._Batch` builds it per
        # distinct |xi|^2: w = Maug x + the prescaled load = (M c + load, i eta,
        # i eta_t) goes to x = Gh w = (c_new, i eta, 0), c_new = A^-1 X w by
        # the triangular inverses, X = [fluid_mass/dt I | bending g | plate
        # inertia g]; Maug x = (M c, i eta + dt trace g . c, trace g . c)
        coef = solver.coef
        tg = coef["trace"] * g
        X = np.zeros((P * K, mi, mi + 2))
        X[..., :mi] = (coef["fluid_mass"] / dt) * np.eye(mi)
        X[:K, :, mi] = (-eps * coef["bend"]) * (xi4[:, None] * g)
        X[:K, :, mi + 1] = (eps / dt * coef["plate_kin"]) * g
        Gh = np.zeros((P * K, mi + 2, mi + 2))
        Gh[:, :mi] = np.swapaxes(Linv, 1, 2) @ (Linv @ X)
        Gh[:, mi, mi] = 1.0
        Maug = np.zeros_like(Gh)
        Maug[:, :mi, :mi] = mass
        Maug[:, mi, mi] = 1.0
        Maug[:K, mi, :mi], Maug[:K, mi + 1, :mi] = dt * tg, tg
        self.Gh, self.Maug = Gh, Maug


class FsiSolver:
    """One solver's frame, coefficients and step operator.  frame[p, k] is
    mode k's unit vector e_p, row p*K + k of a state holds e_p . v', and
    xi_L = e0 . xi."""

    def __init__(self, params):
        from lubelastic.fsi import _xi_stack
        from lubelastic.scaling import eps_power

        self.params = params
        xi = _xi_stack(params.grid)
        self.K = xi.shape[0]
        self.P = params.grid.dim
        self.mi = params.vnodes.m - 2
        self.xi2 = np.einsum("ka,ka->k", xi, xi)
        e0 = np.zeros_like(xi)
        e0[:, 0] = 1.0
        np.divide(xi, np.sqrt(self.xi2)[:, None], out=e0, where=self.xi2[:, None] > 0)
        across = [np.stack([-e0[:, 1], e0[:, 0]], axis=1)] if self.P == 2 else []
        self.frame = np.stack([e0, *across])
        self.xi_L = np.sqrt(self.xi2)  # e0 . xi, as `fsi._Batch` takes it
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
        self._assembled = None
        ops = params.vnodes.ops
        sl = slice(1, -1)
        self._Mint = ops.M[sl, :]
        self._MAint = ops.M_Al[sl, :]
        self._w = params.grid.mode_weights.ravel()

    def assembled(self) -> Assembled:
        """Per-row step operator for params.dt, built on first use."""
        if self._assembled is None:
            self._assembled = Assembled(self)
        return self._assembled

    def _profiles(self, c):
        """Embed interior coefficients (..., mi) into full vertical profiles
        (..., m)."""
        full = np.zeros(c.shape[:-1] + (self.params.vnodes.m,), dtype=complex)
        full[..., 1:-1] = c
        return full

    def _in_frame(self, fhat):
        """The loaded horizontal forcing components, coefficients (..., K, m)
        each, rotated into the frame: rows (..., P*K, m), or None when no
        horizontal component is loaded."""
        parts = [(self.frame[:, :, a, None]
                  * np.ascontiguousarray(fhat[a]).view(float)[..., None, :, :]).view(complex)
                 for a in range(self.P) if a in fhat]
        if not parts:
            return None
        rows = sum(parts[1:], parts[0])
        return rows.reshape(rows.shape[:-3] + (self.P * self.K, -1))


# The coupled solver's evolving state: interior profile coefficients in the
# solver's row layout (P*K, mi) and plate harmonics (K,), as
# `fsi.materialize` takes them.
SpectralState = namedtuple("SpectralState", "c eta eta_t t")
# a state's nodal fields: the velocity components, the pressure, eta and eta_t
FieldState = namedtuple("FieldState", "v p eta eta_t")


def zero_state(solver):
    K = solver.K
    return SpectralState(np.zeros((solver.P * K, solver.mi), dtype=complex),
                         np.zeros(K, dtype=complex), np.zeros(K, dtype=complex), 0.0)


def cartesian_frame(grid):
    """Each mode's unit vectors (e0, e1), shape (P, K, dim), built apart from
    the solver: e0 = xi/|xi| (the first axis at xi = 0), e1 = e0 turned by a
    right angle."""
    from lubelastic.fsi import _xi_stack

    xi = _xi_stack(grid)
    norm = np.linalg.norm(xi, axis=1)
    e0 = np.eye(grid.dim)[np.zeros(len(xi), dtype=int)]
    e0[norm > 0] = xi[norm > 0] / norm[norm > 0, None]
    if grid.dim == 1:
        return e0[None]
    return np.stack([e0, e0 @ np.array([[0.0, 1.0], [-1.0, 0.0]])])


def to_rows(frame, cart):
    """Cartesian coefficients (..., K, dim * mi) to rows (..., P*K, mi)."""
    P, K, dim = frame.shape
    parts = cart.reshape(cart.shape[:-2] + (K, dim, -1))
    rows = np.einsum("pka,...kam->...pkm", frame, parts)
    return rows.reshape(rows.shape[:-3] + (P * K, -1))


def to_cartesian(frame, rows):
    """Rows (..., P*K, mi) to Cartesian coefficients (..., K, dim * mi)."""
    P, K = frame.shape[:2]
    parts = rows.reshape(rows.shape[:-2] + (P, K, -1))
    cart = np.einsum("pka,...pkm->...kam", frame, parts)
    return cart.reshape(cart.shape[:-3] + (K, -1))


def cartesian_quadrature(solver, fhat):
    """The forcing quadrature in Cartesian components, (K, dim * mi), from
    every component's coefficients fhat (d, K, m)."""
    from lubelastic.fsi import _xi_stack

    dh = solver.P
    mi = solver.mi
    eps = solver.params.model.eps
    xi = _xi_stack(solver.params.grid)
    Fq = np.empty((solver.K, dh * mi), dtype=complex)
    f3q = fhat[dh] @ solver._MAint.T
    for a in range(dh):
        Fq[:, a * mi:(a + 1) * mi] = fhat[a] @ solver._Mint.T + 1j * eps * xi[:, a][:, None] * f3q
    return Fq


# The coupled step as `fsi.FsiSolver.advance` took it before the mass
# product and the ledger's quadratic forms became batched real products:
# every forcing component transformed, M c and the three quadratic forms by
# `einsum`, and the solve on stacked real and imaginary parts.  It works on
# the solver's rows; the forcing quadrature is taken in Cartesian components
# and rotated by `cartesian_frame`.

def einsum_forcing_hat(solver, t):
    comps = solver.params.forcing(t)
    grid = solver.params.grid
    m = solver.params.vnodes.m
    out = np.empty((len(comps), solver.K, m), dtype=complex)
    for i, comp in enumerate(comps):
        out[i] = grid.rfft(np.asarray(comp, dtype=float)).reshape(solver.K, m)
    return out


def einsum_ledger_increments(solver, asm, old, new, Fq, dt):
    """Ledger increments of the step old -> new.  The coefficients may be
    rows or Cartesian stacks, with asm's mass and viscosity to match."""
    w = solver._w
    wc = np.tile(w, len(new.c) // len(w))
    coef = solver.coef
    rho_f = solver.params.model.rho_f
    eps = solver.params.model.eps
    mass_q = lambda c: np.einsum("ks,kst,kt->", wc[:, None] * np.conj(c), asm.mass, c).real
    visc_q = np.einsum("ks,kst,kt->", wc[:, None] * np.conj(new.c), asm.visc, new.c).real
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
        work=float(dt * coef["work"] * np.sum(wc * (Fq * np.conj(new.c)).sum(axis=1).real)),
    )


def augmented_rhs(solver, mass_c, Fq, eta, eta_t):
    """The right side (P*K, mi + 2) that the augmented step operator
    `Assembled.Gh` takes from a state's M c, its plate harmonics and the
    step's forcing quadrature: (M c + eps dt / fluid_mass Fq, i eta, i eta_t),
    the plate entries on the along-xi rows."""
    p = solver.params
    K, mi = solver.K, solver.mi
    rhs = np.zeros((len(mass_c), mi + 2), dtype=complex)
    rhs[:, :mi] = mass_c + (p.model.eps * p.dt / solver.coef["fluid_mass"]) * Fq
    rhs[:K, mi], rhs[:K, mi + 1] = 1j * eta, 1j * eta_t
    return rhs


def augmented_step(solver, c, eta, eta_t, Fq):
    """One step of the augmented operator from the state (c, eta, eta_t)
    under the forcing quadrature Fq, as `fsi.run_batch` takes it: M c from
    the rows of `Assembled.Maug` that read c alone, x = Gh (M c + load, i eta,
    i eta_t) = (c_new, i eta, 0), and eta and eta_t of the new state from
    Maug x.  Returns (c_new, eta_new, eta_t_new)."""
    from lubelastic.fsi import _apply

    asm = solver.assembled()
    K, mi = solver.K, solver.mi
    x = np.zeros((len(c), mi + 2), dtype=complex)
    x[:, :mi] = c
    x = _apply(asm.Gh, augmented_rhs(solver, _apply(asm.Maug, x)[:, :mi], Fq, eta, eta_t))
    w = _apply(asm.Maug, x)
    return x[:, :mi], -1j * w[:K, mi], -1j * w[:K, mi + 1]


def einsum_advance(solver, spec, t_new):
    """One backward-Euler step of `solver` from `spec`; returns
    (new_state, ledger_increments) like `FsiSolver.advance`."""
    dt = solver.params.dt
    asm = solver.assembled()
    K = solver.K
    coef = solver.coef
    fhat = einsum_forcing_hat(solver, t_new)
    Fq = to_rows(cartesian_frame(solver.params.grid), cartesian_quadrature(solver, fhat))
    mass_cn = np.einsum("kij,kj->ki", asm.mass, spec.c)
    rhs = augmented_rhs(solver, mass_cn, Fq, spec.eta, spec.eta_t)
    sol = asm.Gh @ np.stack([rhs.real, rhs.imag], axis=2)
    c_new = sol[:, :solver.mi, 0] + 1j * sol[:, :solver.mi, 1]
    eta_t_new = -1j * coef["trace"] * np.einsum("ks,ks->k", asm.g, c_new[:K])
    new = SpectralState(c_new, spec.eta + dt * eta_t_new, eta_t_new, t_new)
    return new, einsum_ledger_increments(solver, asm, spec, new, Fq, dt)


# The coupled step as `fsi._Assembled` built it before each 2D mode was
# split into its parts along and across xi: one (K, dim*mi, dim*mi) block per
# mode in Cartesian components, coupled by the coefficient stacks I and
# xi xi^T (`blockify`), and the pressure from the momentum balance of every
# horizontal component.

class StackedStep:
    """The stacked Cartesian step operator of a solver's params, and the
    step equation, ledger increments and pressure in Cartesian components."""

    def __init__(self, solver):
        from lubelastic.fsi import _xi_stack

        p = solver.params
        self.solver = solver
        self.frame = cartesian_frame(p.grid)
        dt = p.dt
        dh = p.grid.dim
        mi = p.vnodes.m - 2
        s = dh * mi
        xi = self.xi = _xi_stack(p.grid)
        K = xi.shape[0]
        ops = p.vnodes.ops
        sl = slice(1, -1)
        Mi, Ki, MAi = ops.M[sl, sl], ops.K[sl, sl], ops.MA[sl, sl]
        Ci = ops.C_dA[sl, sl]
        Csym = Ci + Ci.T
        a0 = ops.weights[sl]
        eps = p.model.eps
        nu = p.model.nu
        outer = xi[:, :, None] * xi[:, None, :]
        xi2 = np.einsum("ka,ka->k", xi, xi)
        eye = np.broadcast_to(np.eye(dh), (K, dh, dh))

        def blockify(coef_ab, mat):
            blk = coef_ab[:, :, None, :, None] * mat[None, None, :, None, :]
            return blk.reshape(K, s, s)

        self.mass = blockify(eye, Mi) + eps**2 * blockify(outer, MAi)
        self.visc = 2.0 * nu * (
            blockify(0.5 * xi2[:, None, None] * eye, Mi) + blockify(1.5 * outer, Mi)
            + 0.5 * (blockify(eye, Ki) / eps**2 + blockify(outer, Csym)
                     + eps**2 * blockify(xi2[:, None, None] * outer, MAi)))
        self.g = (xi[:, :, None] * a0[None, None, :]).reshape(K, s)
        self.xi4 = xi2**2
        coef = solver.coef
        plate_coef = (coef["rho_s_mass"] / dt + coef["theta_rank1"] * self.xi4
                      + coef["bending_rank1"] * dt * self.xi4)
        self.A = ((coef["fluid_mass"] / dt) * self.mass + eps * self.visc
                  + plate_coef[:, None, None] * (self.g[:, :, None] * self.g[:, None, :]))

    def cartesian(self, spec):
        """The state with its coefficients in Cartesian components."""
        return spec._replace(c=to_cartesian(self.frame, spec.c))

    def forcing_hat(self, t):
        """Every forcing component's coefficients (d, K, m) at time t, less
        the Nyquist ones, which the solver's load leaves out."""
        from lubelastic.spectral import nyquist_index

        grid = self.solver.params.grid
        fhat = einsum_forcing_hat(self.solver, t)
        spectral = fhat.reshape(fhat.shape[:1] + grid.spectral_shape + fhat.shape[-1:])
        for axis in range(grid.dim):
            spectral[(slice(None),) + nyquist_index(grid, axis)] = 0.0
        return fhat

    def step_equation(self, old, t_new):
        """A and the right-hand side of the step from the Cartesian state old
        to t_new, with the forcing quadrature."""
        solver = self.solver
        dt = solver.params.dt
        coef = solver.coef
        Fq = cartesian_quadrature(solver, self.forcing_hat(t_new))
        plate_rhs = (1j * coef["plate_test"]) * (
            coef["plate_kin"] * old.eta_t / dt - coef["bend"] * self.xi4 * old.eta)
        rhs = ((coef["fluid_mass"] / dt) * np.einsum("kij,kj->ki", self.mass, old.c)
               + solver.params.model.eps * Fq + plate_rhs[:, None] * self.g)
        return rhs, Fq

    def backward_errors(self, old, new):
        """Per mode |A c - b| / (|A| |c| + |b|) in 2-norms, for Cartesian
        states old and new, and the norms |b|."""
        b, _ = self.step_equation(old, new.t)
        r = np.einsum("kij,kj->ki", self.A, new.c) - b
        a_norm = np.linalg.norm(self.A, ord=2, axis=(1, 2))
        b_norm = np.linalg.norm(b, axis=1)
        scale = a_norm * np.linalg.norm(new.c, axis=1) + b_norm
        err = np.divide(np.linalg.norm(r, axis=1), scale, out=np.zeros_like(scale),
                        where=scale > 0)
        return err, b_norm

    def increments(self, old, new):
        """Ledger increments of the step between Cartesian states."""
        _, Fq = self.step_equation(old, new.t)
        return einsum_ledger_increments(self.solver, self, old, new, Fq,
                                        self.solver.params.dt)

    def pressure_hat(self, c_old, c_new, fhat, dt, c_older=None):
        """Pressure profiles (K, m) from the horizontal momentum balance of
        every Cartesian component, for Cartesian coefficients."""
        from lubelastic.scaling import eps_power

        p = self.solver.params
        ops = p.vnodes.ops
        eps, nu = p.model.eps, p.model.nu
        dh, m, mi = p.grid.dim, p.vnodes.m, p.vnodes.m - 2
        K = self.xi.shape[0]

        def profiles(c):
            full = np.zeros((K, dh, m), dtype=complex)
            full[:, :, 1:-1] = c.reshape(K, dh, mi)
            return full

        full_new, full_old = profiles(c_new), profiles(c_old)
        inert = p.model.rho_f * eps_power(eps, -p.model.tau)
        xi2 = np.einsum("ka,ka->k", self.xi, self.xi)
        D2 = ops.D @ ops.D
        rhs_h = np.empty((K, dh, m), dtype=complex)
        for a in range(dh):
            va, va_old = full_new[:, a], full_old[:, a]
            if c_older is None:
                dva = (va - va_old) / dt
            else:
                dva = (3.0 * va - 4.0 * va_old + profiles(c_older)[:, a]) / (2.0 * dt)
            rhs_h[:, a] = (fhat.get(a, 0.0) + nu * (-xi2[:, None] * va + (va @ D2.T) / eps**2)
                           - inert * dva)
        phat = np.zeros((K, m), dtype=complex)
        nz = xi2 > 0
        proj = np.einsum("ka,kam->km", self.xi, rhs_h)
        phat[nz] = -1j * proj[nz] / xi2[nz, None]
        if dh in fhat and not nz.all():
            anti = ops.antiderivative(fhat[dh][~nz])
            phat[~nz] = eps * (anti - anti[:, -1][:, None])
        return phat


# The film step as it was taken before the state carried its
# Fourier coefficients: every sub-step transforms the nodal height afresh,
# differentiates through nodal values, and pads every factor of a product
# separately; every coefficient is a new forward transform.

def nodal_dealiased_product(grid, *factors):
    """1D product of nodal values on the 3/2 grid, each factor padded on its own."""
    n = grid.n
    npad = 3 * n // 2
    prod = np.ones(npad)
    for f in factors:
        pad = np.zeros(npad // 2 + 1, dtype=complex)
        pad[: n // 2 + 1] = np.fft.rfft(f) / n
        prod = prod * np.fft.irfft(pad * npad, npad)
    hat = np.fft.rfft(prod)[: n // 2 + 1] / npad
    return grid.irfft(hat)


def nodal_film_rhs(model, grid, eta):
    from lubelastic.spectral import spectral_derivative

    xi = grid.xi[0]
    hat = grid.rfft(eta)
    out = np.zeros_like(hat)
    if model.linearized:
        out += model.sign * model.c * (1j * xi) ** (model.alpha + 1) * hat
    else:
        if eta.min() <= 0.0:
            raise ValueError("nonpositive film height under cubic mobility")
        d_alpha = spectral_derivative(grid, eta, model.alpha)
        flux = nodal_dealiased_product(grid, eta, eta, eta, d_alpha)
        out += model.sign * model.mobility_scale * (1j * xi) * grid.rfft(flux)
        if model.potential is not None:
            dphi = np.asarray(model.potential(eta), dtype=float)
            dphi_x = spectral_derivative(grid, dphi, 1)
            pot_flux = nodal_dealiased_product(grid, eta, eta, eta, dphi_x)
            out += (1j * xi) * grid.rfft(pot_flux)
    if model.v_D != 0.0:
        out -= model.drift_prefactor * model.v_D * (1j * xi) * hat
    out[0] = 0.0
    return grid.irfft(out)


def nodal_film_step(model, grid, eta, t, dt, floor=1e-6, max_halvings=20):
    """Advance the nodal height eta at t by dt; returns (eta, t, number of
    sub-steps tried)."""
    xi = grid.xi[0]
    remaining = dt
    sub = dt
    halvings = 0
    tried = 0
    while remaining > 1e-14 * dt:
        tried += 1
        sub = min(sub, remaining)
        gain = model.c if model.linearized else model.mobility_scale * float(eta.max()) ** 3
        L = -gain * xi ** (model.alpha + 1)
        hat = grid.rfft(eta)
        rhs = grid.rfft(nodal_film_rhs(model, grid, eta))
        new_hat = (hat + sub * (rhs - L * hat)) / (1.0 - sub * L)
        candidate = grid.irfft(new_hat)
        if not model.linearized and candidate.min() < floor:
            halvings += 1
            if halvings > max_halvings:
                raise ValueError("positivity floor unreachable")
            sub *= 0.5
            continue
        eta = candidate
        remaining -= sub
    return eta, t + dt, tried


def nodal_film_energy(model, grid, eta):
    w = grid.mode_weights
    xi2 = grid.xi[0] ** 2
    if model.linearized or model.alpha == 1:
        sym = np.ones_like(xi2)
    elif model.alpha == 3:
        sym = xi2
    else:
        sym = xi2**2
    return float(0.5 * np.sum(w * sym * np.abs(grid.rfft(eta)) ** 2))


# The transforms as `spectral` made them before 1D grids called
# `np.fft.rfft`/`irfft`: every grid through `rfftn`/`irfftn`, and the 3/2
# pad through an explicit zero buffer.

def rfftn_rfft(grid, values):
    return np.fft.rfftn(values, axes=tuple(range(grid.dim))) / grid.n**grid.dim


def rfftn_irfft(grid, coeffs):
    return np.fft.irfftn(coeffs * grid.n**grid.dim, s=grid.shape, axes=tuple(range(grid.dim)))


def rfftn_padded_values(grid, hat):
    n, dim = grid.n, grid.dim
    npad = 3 * n // 2
    if dim == 1:
        pad = np.zeros((npad // 2 + 1,) + hat.shape[1:], dtype=complex)
        pad[: n // 2 + 1] = hat
    else:
        half = n // 2
        pad = np.zeros((npad, npad // 2 + 1), dtype=complex)
        pad[: half + 1, : half + 1] = hat[: half + 1, :]
        pad[npad - (n - half - 1):, : half + 1] = hat[half + 1:, :]
    return np.fft.irfftn(pad * npad**dim, s=(npad,) * dim, axes=tuple(range(dim)))


def rfftn_truncated_hat(grid, values):
    n, dim = grid.n, grid.dim
    npad = 3 * n // 2
    hat_pad = np.fft.rfftn(values, axes=tuple(range(dim))) / npad**dim
    if dim == 1:
        return hat_pad[: n // 2 + 1].copy()
    half = n // 2
    out = np.zeros((n, half + 1), dtype=complex)
    out[: half + 1, :] = hat_pad[: half + 1, : half + 1]
    out[half + 1:, :] = hat_pad[npad - (n - half - 1):, : half + 1]
    return out


# The grid's cached arrays and the Laplacian symbol as `spectral` built
# them with one branch per dimension, before each became one expression for
# both.

def branched_grid_arrays(grid):
    """meshes, wavenumbers, xi, mode_weights, spectral_shape and the
    Laplacian symbol of grid, by name."""
    def read_only(a):
        a.flags.writeable = False
        return a

    n = grid.n
    x = read_only(np.arange(n) / n)
    full = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    half = read_only(np.arange(n // 2 + 1))
    wlast = np.full(n // 2 + 1, 2.0)
    wlast[0] = 1.0
    wlast[-1] = 1.0
    if grid.dim == 1:
        xi = (read_only(2.0 * np.pi * half),)
        return dict(meshes=(x,), wavenumbers=(half,), xi=xi,
                    mode_weights=read_only(wlast), spectral_shape=(n // 2 + 1,),
                    laplacian=-xi[0] ** 2)
    xi = (read_only(2.0 * np.pi * full[:, None].astype(float)),
          read_only(2.0 * np.pi * half[None, :].astype(float)))
    return dict(meshes=tuple(map(read_only, np.meshgrid(x, x, indexing="ij"))),
                wavenumbers=(read_only(full), half), xi=xi,
                mode_weights=read_only(np.broadcast_to(wlast[None, :], (n, n // 2 + 1)).copy()),
                spectral_shape=(n, n // 2 + 1), laplacian=-(xi[0] ** 2 + xi[1] ** 2))


# The film step as it was taken before runs were integrated in
# one call: every sub-step rebuilds the symbols, transforms through the
# `rfftn` helpers above, pads each factor into a fresh buffer and checks
# the height it starts from; the energy is a separate call.

def spectral_film_rhs_hat(model, grid, eta, hat):
    """Coefficients of the right-hand side at the height of nodal values
    eta and coefficients hat."""
    from lubelastic.errors import ParameterError, PositivityError
    from lubelastic.spectral import derivative_symbol

    if grid.dim != 1:
        raise ParameterError("the film family is one-dimensional")
    if not np.all(np.isfinite(eta)):
        raise ParameterError("film height contains non-finite values")
    div = derivative_symbol(grid, 1)
    if model.linearized:
        out = model.sign * model.c * (1j * grid.xi[0]) ** (model.alpha + 1) * hat
    else:
        if eta.min() <= 0.0:
            raise PositivityError("nonpositive film height under cubic mobility")
        gain = model.sign * model.mobility_scale
        slope = gain * rfftn_padded_values(grid, derivative_symbol(grid, model.alpha) * hat)
        if model.potential is not None:
            dphi = rfftn_rfft(grid, np.asarray(model.potential(eta), dtype=float))
            slope = slope + rfftn_padded_values(grid, div * dphi)
        e = rfftn_padded_values(grid, hat)
        out = div * rfftn_truncated_hat(grid, e * e * e * slope)
    if model.v_D != 0.0:
        out -= model.drift_prefactor * model.v_D * div * hat
    out[0] = 0.0
    return out


def spectral_film_step(model, grid, t, eta, hat, dt, floor=1e-6, max_halvings=20):
    """Advance the height at t, nodal values eta and coefficients hat, by
    dt; returns (t + dt, eta, hat, accepted sub-steps)."""
    from lubelastic.errors import PositivityError

    xi = grid.xi[0]
    remaining = dt
    sub = dt
    halvings = 0
    accepted = 0
    while remaining > 1e-14 * dt:
        sub = min(sub, remaining)
        if model.linearized:
            gain = model.c
        else:
            gain = model.mobility_scale * float(eta.max()) ** 3
        L = -gain * xi ** (model.alpha + 1)
        new_hat = (hat + sub * (spectral_film_rhs_hat(model, grid, eta, hat) - L * hat)) / (
            1.0 - sub * L)
        new_eta = rfftn_irfft(grid, new_hat)
        if not model.linearized and new_eta.min() < floor:
            halvings += 1
            if halvings > max_halvings:
                raise PositivityError("positivity floor unreachable")
            sub *= 0.5
            continue
        remaining -= sub
        accepted += 1
        eta, hat = new_eta, new_hat
    return t + dt, eta, hat, accepted


def spectral_film_energy(model, grid, hat):
    xi2 = grid.xi[0] ** 2
    if model.linearized or model.alpha == 1:
        sym = np.ones_like(xi2)
    elif model.alpha == 3:
        sym = xi2
    else:
        sym = xi2**2
    return float(0.5 * np.sum(grid.mode_weights * sym * np.abs(hat) ** 2))


# `thinfilm.evolve` as it was before its sub-step became the shortest
# sequence of array operations: the symbols held by an operator object, the
# spatial right-hand side through `padded_values`/`truncated_hat`, the
# candidate (hat + sub (R - L hat)) / (1 - sub L), and the energy as a
# weighted sum.  It is bit for bit the per-step `spectral_film_step` above.

class SteppedFilmOperator:
    """The symbols of one model on one grid and the spatial right-hand side
    on raw (values, coefficients) arrays."""

    def __init__(self, model, grid):
        from lubelastic.spectral import derivative_symbol, laplacian_symbol

        self.model, self.grid = model, grid
        xi = grid.xi[0]
        self.div = derivative_symbol(grid, 1)
        self.xi_power = xi ** (model.alpha + 1)
        self.drift = None
        if model.v_D != 0.0:
            self.drift = model.drift_prefactor * model.v_D * self.div
        xi2 = -laplacian_symbol(grid)
        if model.linearized or model.alpha == 1:
            sym = np.ones_like(xi2)
        elif model.alpha == 3:
            sym = xi2
        else:
            sym = xi2**2
        self.energy_weights = grid.mode_weights * sym
        if model.linearized:
            self.leading = model.sign * model.c * (1j * xi) ** (model.alpha + 1)
            self.linear_L = -model.c * self.xi_power
        else:
            self.d_alpha = derivative_symbol(grid, model.alpha)
            rows = 2 if model.potential is None else 3
            self.stack = np.empty((rows, len(xi)), dtype=complex)

    def frozen_symbol(self, hi):
        if self.model.linearized:
            return self.linear_L
        return -(self.model.mobility_scale * float(hi) ** 3) * self.xi_power

    def rhs(self, values, hat):
        from lubelastic.spectral import padded_values, truncated_hat

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

    def energy(self, hat):
        return 0.5 * np.sum(self.energy_weights * np.abs(hat) ** 2)


@np.errstate(over="ignore", invalid="ignore")
def stepped_evolve(model, grid, eta0, dt, steps, snapshot_stride=1, floor=1e-6,
                   max_halvings=20):
    """A whole film run from the nodal height eta0 at t = 0, as a
    `thinfilm.FilmRun`; a finite and, under cubic mobility, positive eta0."""
    from lubelastic.errors import PositivityError
    from lubelastic.thinfilm import FilmRun, FilmTrajectory

    values = np.asarray(eta0, dtype=float)
    lo, hi = values.min(), values.max()
    op = SteppedFilmOperator(model, grid)
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
                if halvings > max_halvings:
                    raise PositivityError(
                        "finite height and energy unreachable",
                        last_state=FilmTrajectory(grid, [t + (dt - remaining)], values[None],
                                                  hat[None]))
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


# The mode-exact sixth-order solve as it was before its snapshots were held
# as arrays: one inverse transform and one (t, eta, hat) tuple per snapshot,
# and the phi functions filled through boolean masks.

def masked_phi1(z):
    """(exp(z) - 1)/z, stable at z = 0."""
    out = np.ones_like(z)
    big = np.abs(z) > 1e-8
    out[big] = np.expm1(z[big]) / z[big]
    out[~big] = 1.0 + 0.5 * z[~big]
    return out


def masked_phi2(z):
    """(exp(z) - 1 - z)/z**2, stable at z = 0."""
    out = np.full_like(z, 0.5)
    big = np.abs(z) > 1e-6
    out[big] = (np.expm1(z[big]) - z[big]) / z[big] ** 2
    out[~big] = 0.5 + z[~big] / 6.0
    return out


def snapshot_solve_linear_sixth(c, F, grid, eta0, t_end, dt, snapshot_stride=1):
    """The kept snapshots (t, eta, hat) of d/dt eta - c (Lap')^3 eta = F,
    integrated mode-exactly by the exponential trapezoidal rule."""
    from lubelastic.spectral import _step_count, laplacian_symbol

    nsteps = _step_count(t_end, dt)
    lam = c * (-laplacian_symbol(grid)) ** 3
    z = -lam * dt
    decay, phi1, phi2 = np.exp(z), masked_phi1(z), masked_phi2(z)
    eta0 = np.asarray(eta0, dtype=float)
    hat = grid.rfft(eta0)
    states = [(0.0, eta0, hat)]
    times = dt * np.arange(nsteps + 1)
    gain = None
    if F is not None:
        s = F(times)
        gain = dt * ((phi1 - phi2) * s[:-1] + phi2 * s[1:])
    for i in range(nsteps):
        hat = decay * hat
        if gain is not None:
            hat = hat + gain[i]
        if (i + 1) % snapshot_stride == 0 or i == nsteps - 1:
            states.append((float(times[i + 1]), grid.irfft(hat), hat))
    return states


# `fsi.sample_forcing` zeroes a load's coefficients at index n/2 of every
# horizontal axis.  The old coupled paths above transform the load
# themselves, so they are fed a load filtered by the same rule.

def without_nyquist(grid, values):
    """A nodal load (horizontal axes first) less its Nyquist coefficients."""
    axes = tuple(range(grid.dim))
    hat = np.fft.rfftn(values, axes=axes)
    for axis in axes:
        hat[(slice(None),) * axis + (grid.n // 2,)] = 0.0
    return np.fft.irfftn(hat, s=grid.shape, axes=axes)


def nyquist_free(grid, forcing):
    """The forcing callable with every component filtered by `without_nyquist`."""
    return lambda t: tuple(without_nyquist(grid, np.asarray(f, dtype=float)) for f in forcing(t))


# The coupled run as `fsi.FsiSolver.run` took it before it stepped in
# blocks: every step samples and transforms the forcing on its own
# (`_forcing_hat`), `advance` takes one step and returns its ledger
# increments, and a snapshot transforms the forcing again for its pressure.

def stepwise_forcing_hat(solver, t):
    """Forcing coefficients (d, K, m); an unloaded component stays zero."""
    comps = solver.params.forcing(t)
    grid = solver.params.grid
    m = solver.params.vnodes.m
    out = np.zeros((len(comps), solver.K, m), dtype=complex)
    for i, comp in enumerate(comps):
        if np.any(comp):
            out[i] = grid.rfft(np.asarray(comp, dtype=float)).reshape(solver.K, m)
    return out


def stepwise_advance(solver, spec, t_new):
    """One backward-Euler step to t_new; returns (new_state, increments)."""
    from lubelastic.fsi import _apply

    def _re_inner(w, a, b):
        return float(w @ (a.view(float) * b.view(float)).sum(axis=1))

    p = solver.params
    dt = p.dt
    asm = solver.assembled()
    eps = p.model.eps
    coef = solver.coef
    fhat = stepwise_forcing_hat(solver, t_new)
    Fq = to_rows(cartesian_frame(p.grid), cartesian_quadrature(solver, fhat))
    mass_old = _apply(asm.mass, spec.c)
    new = SpectralState(*augmented_step(solver, spec.c, spec.eta, spec.eta_t, Fq), t_new)
    mass_new, visc_new = _apply(np.stack([asm.mass, asm.visc]), new.c)

    w = solver._w
    wr = np.tile(w, solver.P)
    rho_f = p.model.rho_f
    dc = new.c - spec.c
    d_eta = new.eta - spec.eta
    d_eta_t = new.eta_t - spec.eta_t
    inc = dict(
        fluid_kinetic=0.5 * rho_f * eps * _re_inner(wr, new.c, mass_new),
        plate_kinetic=0.5 * coef["plate_kin"] * np.sum(w * np.abs(new.eta_t) ** 2),
        bending=0.5 * coef["bend"] * np.sum(w * asm.xi4 * np.abs(new.eta) ** 2),
        numerical=(0.5 * rho_f * eps * _re_inner(wr, dc, mass_new - mass_old)
                   + 0.5 * coef["plate_kin"] * np.sum(w * np.abs(d_eta_t) ** 2)
                   + 0.5 * coef["bend"] * np.sum(w * asm.xi4 * np.abs(d_eta) ** 2)),
        viscous=dt * coef["work"] * _re_inner(wr, new.c, visc_new),
        viscoelastic=dt * coef["viscoelastic"] * np.sum(w * asm.xi4 * np.abs(new.eta_t) ** 2),
        work=dt * coef["work"] * _re_inner(wr, new.c, Fq),
    )
    return new, {key: float(value) for key, value in inc.items()}


def stepwise_run(solver, t_end, snapshot_stride=1):
    """Run step by step from the zero state; returns the trajectory and the
    spectral states of its snapshots after the initial one."""
    from lubelastic.fsi import EnergyLedger

    dt = solver.params.dt
    nsteps = int(round(t_end / dt))
    rows = []
    spec = zero_state(solver)
    states = [materialize(solver, *spec[:3])]
    times = [0.0]
    spectral = []
    cum = dict(viscous=0.0, viscoelastic=0.0, numerical=0.0, work=0.0)
    prev2 = None
    for i in range(nsteps):
        prev = spec
        spec, inc = stepwise_advance(solver, spec, (i + 1) * dt)
        for key in cum:
            cum[key] += inc[key]
        rows.append((spec.t, inc["fluid_kinetic"], inc["plate_kinetic"], inc["bending"],
                     cum["viscous"], cum["viscoelastic"], cum["numerical"], cum["work"]))
        if (i + 1) % snapshot_stride == 0 or i == nsteps - 1:
            fhat = dict(enumerate(stepwise_forcing_hat(solver, spec.t)))
            phat = pressure_hat(solver, prev.c, spec.c, fhat, dt,
                                None if prev2 is None else prev2.c)
            states.append(materialize(solver, *spec[:3], phat))
            times.append(spec.t)
            spectral.append(spec)
        prev2 = prev
    return (stacked_trajectory(solver.params, times, states, EnergyLedger(*np.array(rows).T)),
            spectral)


def stacked_trajectory(params, times, states, ledger):
    """The trajectory of per-snapshot `FieldState`s, each field kind
    stacked along a leading snapshot axis, as `fsi.run_batch` holds them."""
    from lubelastic.fsi import FsiTrajectory

    stack = lambda get: np.stack([get(s) for s in states])
    return FsiTrajectory(params=params, times=np.array(times),
                         v=tuple(stack(lambda s: s.v[a]) for a in range(len(states[0].v))),
                         p=stack(lambda s: s.p), eta=stack(lambda s: s.eta),
                         eta_t=stack(lambda s: s.eta_t), ledger=ledger)


def stacked_triple(times, v, p, eta):
    """The reconstructed triple of per-snapshot nodal fields (v: one tuple
    of velocity components per snapshot), each field kind stacked along a
    leading snapshot axis, as `reconstruction.ApproxTriple` holds them."""
    from lubelastic.reconstruction import ApproxTriple

    return ApproxTriple(times=times, v=tuple(np.stack(comp) for comp in zip(*v)), p=np.stack(p),
                        eta=np.stack(eta))


# The per-solver work around the step loop as `fsi.FsiSolver` methods did
# it before `fsi.run_batch` took it once per block for all its solvers: one
# solver's load quadrature, ledger columns, snapshot pressure and fields, each
# state's fields by their own transforms.

def vertical_profile(solver, c):
    """Reconstructed vertical velocity profiles, shape (K, m), from the
    divergence xi . v' = xi_L v_L."""
    ops = solver.params.vnodes.ops
    eps = solver.params.model.eps
    div_h = solver.xi_L[:, None] * solver._profiles(c[:solver.K])  # times -i below
    return -1j * eps * ops.antiderivative(div_h)


def materialize(solver, c, eta, eta_t, pressure_hat=None):
    """The `FieldState` of the state with rows c (P*K, mi) and plate
    harmonics eta, eta_t (K,), one transform per field."""
    grid = solver.params.grid
    vn = solver.params.vnodes
    shape = grid.spectral_shape + (vn.m,)
    rows = solver._profiles(c).reshape(solver.P, solver.K, vn.m)
    # back to Cartesian components: v_a = sum_p (e_p)_a v_p
    cart = (solver.frame[..., None] * rows[:, :, None, :]).sum(axis=0)
    comps = [grid.irfft(cart[:, a].reshape(shape)) for a in range(grid.dim)]
    comps.append(grid.irfft(vertical_profile(solver, c).reshape(shape)))
    p = (np.zeros(grid.shape + (vn.m,)) if pressure_hat is None
         else grid.irfft(pressure_hat.reshape(shape)))
    return FieldState(v=tuple(comps), p=p, eta=grid.irfft(eta.reshape(grid.spectral_shape)),
                      eta_t=grid.irfft(eta_t.reshape(grid.spectral_shape)))


def quadrature(solver, fhat, nb):
    """Forcing quadrature against the velocity basis, rows (B, P*K, mi),
    from the loaded components' coefficients (B, K, m)."""
    Fq = np.zeros((nb, solver.P * solver.K, solver.mi), dtype=complex)
    rows = solver._in_frame(fhat)
    if rows is not None:
        Fq += rows @ solver._Mint.T
    if solver.P in fhat:
        Fq[:, :solver.K] += (1j * solver.params.model.eps * solver.xi_L[:, None]
                             * (fhat[solver.P] @ solver._MAint.T))
    return Fq


def record(solver, columns, t, c, eta, eta_t, Fq, mass_c):
    """Write a block's ledger columns (8, B), with the integrals as per-step
    increments, from the state before the block and the block's B states,
    and their M c, mass_c."""
    from lubelastic.errors import AssemblyError
    from lubelastic.fsi import _apply

    def re_inner(w, a, b):
        return (a.view(float) * b.view(float)).sum(axis=-1) @ w

    asm = solver.assembled()
    w = solver._w
    wr = np.tile(w, solver.P)
    wx = w * asm.xi4
    coef = solver.coef
    dt = solver.params.dt
    fluid = 0.5 * solver.params.model.rho_f * solver.params.model.eps
    mass, visc = mass_c[1:], _apply(asm.visc, c[1:])
    ef = fluid * re_inner(wr, c[1:], mass)
    epk = 0.5 * coef["plate_kin"] * np.sum(w * np.abs(eta_t[1:]) ** 2, axis=-1)
    eb = 0.5 * coef["bend"] * np.sum(wx * np.abs(eta[1:]) ** 2, axis=-1)
    bad = (np.minimum(ef, np.minimum(epk, eb))
           < -1e-12 * np.maximum(np.maximum(ef, epk), np.maximum(eb, 1e-300)))
    if bad.any():
        i = int(np.argmax(bad))
        raise AssemblyError(
            f"negative energy encountered at t = {t[i]} (fluid {ef[i]:.3e}, "
            f"plate {epk[i]:.3e}, bending {eb[i]:.3e}); quadratic-form "
            f"assembly is inconsistent"
        )
    dn = (fluid * re_inner(wr, c[1:] - c[:-1], mass - mass_c[:-1])
          + 0.5 * coef["plate_kin"] * np.sum(w * np.abs(eta_t[1:] - eta_t[:-1]) ** 2, axis=-1)
          + 0.5 * coef["bend"] * np.sum(wx * np.abs(eta[1:] - eta[:-1]) ** 2, axis=-1))
    dv = dt * coef["work"] * re_inner(wr, c[1:], visc)
    dve = dt * coef["viscoelastic"] * np.sum(wx * np.abs(eta_t[1:]) ** 2, axis=-1)
    work = dt * coef["work"] * re_inner(wr, c[1:], Fq)
    columns[:] = t, ef, epk, eb, dv, dve, dn, work


def pressure_hat(solver, c_old, c_new, fhat, dt, c_older=None):
    """Pressure profiles (K, m) of one solver from the along-xi momentum
    balance, and for the zero mode from the vertical balance."""
    from lubelastic.scaling import eps_power

    p = solver.params
    ops = p.vnodes.ops
    eps = p.model.eps
    K = solver.K
    xi2 = solver.xi2
    v, v_old = solver._profiles(c_new[:K]), solver._profiles(c_old[:K])
    if c_older is None:
        dv = (v - v_old) / dt
    else:
        dv = (3.0 * v - 4.0 * v_old + solver._profiles(c_older[:K])) / (2.0 * dt)
    force = solver._in_frame(fhat)
    inert = p.model.rho_f * eps_power(eps, -p.model.tau)
    D2 = ops.D @ ops.D
    rhs = ((0.0 if force is None else force[:K])
           + p.model.nu * (-xi2[:, None] * v + (v @ D2.T) / eps**2)
           - inert * dv)
    phat = np.zeros((K, p.vnodes.m), dtype=complex)
    nz = xi2 > 0
    phat[nz] = -1j * (solver.xi_L[:, None] * rhs)[nz] / xi2[nz, None]
    if solver.P in fhat and not nz.all():
        anti = ops.antiderivative(fhat[solver.P][~nz])
        phat[~nz] = eps * (anti - anti[:, -1][:, None])
    return phat


# The coupled run of one solver as `fsi.FsiSolver.run` took it before the
# points of a thickness ladder stepped together in `fsi.run_batch`: the same
# blocks, with one solver's matrices and Python scalar coefficients.  By
# default a step applies the augmented operator as `fsi.run_batch` does
# (`Assembled.Gh` and `Assembled.Maug`).  Given a solve, it takes the step
# as `fsi.run_batch` did before that operator: the right side assembled
# from M c, the load and the plate terms, solved by `solve`, then eta_t
# from g . c_new and eta by one Euler step.  `stored_inverse` is the solve
# it had, the product with A^-1 = L^-T L^-1; a test can swap in another
# factorization.

def stored_inverse(solver):
    """The solve that multiplies a right side by the stored A^-1."""
    from lubelastic.fsi import _apply

    inv = solver.assembled().inv
    return lambda rhs: _apply(inv, rhs)


def single_run(solver, t_end, snapshot_stride=1, solve=None):
    """The blocked run of one solver; returns its trajectory."""
    from lubelastic.errors import check_range
    from lubelastic.fsi import EnergyLedger, _apply
    from lubelastic.spectral import _step_count, _steps_per_block, drop_nyquist

    p = solver.params
    dt = p.dt
    nsteps = _step_count(t_end, dt)
    check_range(1, closed=True, snapshot_stride=snapshot_stride)
    asm = solver.assembled()
    K, coef, mi = solver.K, solver.coef, solver.mi
    rows = (solver.P * K, mi)
    block = _steps_per_block(16 * rows[0] * rows[1])
    c = np.zeros((block + 2,) + rows, dtype=complex)
    x = np.zeros((block + 2, rows[0], mi + 2), dtype=complex)  # rows as c's
    eta = np.zeros((block + 2, K), dtype=complex)
    eta_t = np.zeros((block + 2, K), dtype=complex)
    ledger = np.empty((8, nsteps))
    states = [materialize(solver, c[1], eta[1], eta_t[1])]
    times = [0.0]
    mass, g = asm.mass, asm.g
    fluid = coef["fluid_mass"] / dt
    plate_test = 1j * coef["plate_test"]
    plate_kin = coef["plate_kin"]
    bend = coef["bend"] * asm.xi4
    trace = -1j * coef["trace"]
    for n0 in range(0, nsteps, block):
        nb = min(block, nsteps - n0)
        t = (dt * np.arange(n0 + 1, n0 + nb + 1)).tolist()
        # the loaded components, sampled and transformed together, less
        # their Nyquist coefficients, on all K modes
        samples = np.array([p.forcing(tt) for tt in t], dtype=float)
        loaded = [i for i in range(samples.shape[1]) if samples[:, i].any()]
        hats = drop_nyquist(p.grid, p.grid.rfft(np.moveaxis(samples[:, loaded], (0, 1),
                                                            (-1, -2))))
        fhat = {i: np.moveaxis(hats[..., j, :], -1, 0).reshape(nb, K, -1)
                for j, i in enumerate(loaded)}
        Fq = quadrature(solver, fhat, nb)
        span = slice(1, nb + 2)
        if solve is None:
            for j in range(1, nb + 1):
                rhs = _apply(asm.Maug, x[j])
                rhs[:, :mi] += (p.model.eps * dt / coef["fluid_mass"]) * Fq[j - 1]
                x[j + 1] = _apply(asm.Gh, rhs)
            w = _apply(asm.Maug, x[span])
            c[2:nb + 2] = x[2:nb + 2, :, :mi]
            eta[2:nb + 2], eta_t[2:nb + 2] = -1j * w[1:, :K, mi], -1j * w[1:, :K, mi + 1]
            mass_c = w[..., :mi]
        else:
            load = p.model.eps * Fq
            for j in range(1, nb + 1):
                plate_rhs = plate_test * (plate_kin * eta_t[j] / dt - bend * eta[j])
                rhs = fluid * _apply(mass, c[j]) + load[j - 1]
                rhs[:K] += plate_rhs[:, None] * g
                c[j + 1] = solve(rhs)
                eta_t[j + 1] = trace * (g * c[j + 1, :K]).sum(axis=1)
                eta[j + 1] = eta[j] + dt * eta_t[j + 1]
            mass_c = _apply(mass, c[span])
        record(solver, ledger[:, n0:n0 + nb], t, c[span], eta[span], eta_t[span], Fq, mass_c)
        for j in range(nb):
            n = n0 + j + 1
            if n % snapshot_stride == 0 or n == nsteps:
                phat = pressure_hat(solver, c[j + 1], c[j + 2],
                                    {i: h[j] for i, h in fhat.items()}, dt,
                                    None if n == 1 else c[j])
                states.append(materialize(solver, c[j + 2], eta[j + 2], eta_t[j + 2], phat))
                times.append(t[j])
        for buf in (c, x, eta, eta_t):
            buf[:2] = buf[nb:nb + 2]
    np.cumsum(ledger[4:], axis=1, out=ledger[4:])
    return stacked_trajectory(p, times, states, EnergyLedger(*ledger))


# The reconstruction and error norms of one ladder point as `verify` took
# them before the limit map was built once per ladder and the norms became
# reductions over the stacked snapshots: each point builds its own
# `LimitFields` and transforms every snapshot's components one by one, and
# `compare_trajectories` takes the norms snapshot by snapshot on differences
# of fields.

def snapshot_assemble_approx(reduced, params, forcing, vnodes):
    """The reconstructed triple, one transform per snapshot and component."""
    from lubelastic.reconstruction import LimitFields
    from lubelastic.scaling import eps_power
    from lubelastic.spectral import derivative_symbol

    eps = params.eps
    eps_kappa = eps_power(eps, params.kappa)
    grid = reduced.grid
    limit = LimitFields(reduced, params, forcing, vnodes)
    p_hat, v_hat = limit.p_hat, list(limit.v_hat)
    div = sum(derivative_symbol(grid, 1, axis=a)[..., None] * vh for a, vh in enumerate(v_hat))
    v_hat.append(-eps * vnodes.ops.antiderivative(div))
    v = tuple(tuple(grid.irfft(eps**2 * vh[j]) for vh in v_hat)
              for j in range(len(reduced.times)))
    p = tuple(np.repeat(grid.irfft(ph)[..., None], vnodes.m, axis=-1) for ph in p_hat)
    eta = [eps_kappa * e for e in reduced.eta]
    return stacked_triple(reduced.times, v, p, eta)


def snapshot_channel_sq(comps, vnodes):
    """Integral of |.|^2 over the unit-depth reference channel, summed over
    a sequence of nodal fields, grid.shape + (m,) each."""
    total = 0.0
    for comp in comps:
        vertical = comp**2 @ vnodes.weights
        total += float(np.mean(vertical))
    return total


def snapshot_h2_norm(grid, values):
    """Full H2 norm of one field's nodal values."""
    from lubelastic.spectral import laplacian_symbol

    xi2 = -laplacian_symbol(grid)
    sym = 1.0 + xi2 + xi2**2
    return float(np.sqrt(np.sum(grid.mode_weights * sym * np.abs(grid.rfft(values)) ** 2)))


def snapshot_compare(traj, approx):
    """The three error norms between a trajectory and a triple, snapshot by
    snapshot."""
    eps = traj.params.model.eps
    grid, vnodes = traj.params.grid, traj.params.vnodes
    v_diffs, p_diffs, eta_diffs = [], [], []
    for j in range(len(traj.times)):
        v_diffs.append(tuple(sv[j] - av[j] for sv, av in zip(traj.v, approx.v)))
        p_diffs.append((traj.p[j] - approx.p[j],))
        eta_diffs.append(traj.eta[j] - approx.eta[j])
    l2l2 = lambda diffs: float(np.sqrt(eps * np.trapezoid(
        np.array([snapshot_channel_sq(d, vnodes) for d in diffs]), traj.times)))
    return l2l2(v_diffs), l2l2(p_diffs), max(snapshot_h2_norm(grid, e) for e in eta_diffs)


# The reconstruction as `LimitFields.approx` and `LimitFields.closure_error`
# built it before they worked in coefficient space:
# per snapshot, the limit pressure on the nodes, the forcing callable
# sampled again, nodal force profiles and spectral derivatives of each
# nodal field.

def limit_pressure(grid, eta, B):
    """Limit pressure B * (Lap')^2 eta; independent of the vertical variable."""
    from lubelastic.spectral import laplacian_symbol

    return grid.irfft(B * laplacian_symbol(grid) ** 2 * grid.rfft(eta))


def horizontal_velocity(grid, p, f_horizontal, nu, vnodes):
    """Limit horizontal velocity profiles v_a = y (y+1)/(2 nu) * d_a p + F_a,
    nodal, from the nodal horizontal force components (None: unforced)."""
    from lubelastic.reconstruction import _force_profiles
    from lubelastic.spectral import spectral_derivative

    y = vnodes.nodes
    poise = y * (y + 1.0) / (2.0 * nu)
    out = []
    for a in range(grid.dim):
        vals = spectral_derivative(grid, p, 1, axis=a)[..., None] * poise
        if f_horizontal is not None:
            vals = vals + _force_profiles(np.asarray(f_horizontal[a], dtype=float), nu, vnodes)
        out.append(vals)
    return tuple(out)


def vertical_velocity(grid, vnodes, *horizontal, eps=1.0):
    """Inner vertical velocity -eps * int_{-1}^{y} div'(v') of the nodal
    horizontal profiles; zero at the bottom wall by construction."""
    from lubelastic.errors import GridMismatchError

    if grid.dim != len(horizontal):
        raise GridMismatchError(f"{len(horizontal)} horizontal components supplied for dim "
                                f"{grid.dim}")
    div = np.zeros(grid.shape + (vnodes.m,))
    for a, comp in enumerate(horizontal):
        div += grid.irfft(1j * grid.xi[a][..., None] * grid.rfft(comp))
    return -eps * vnodes.ops.antiderivative(div)


def flux_rate(grid, vnodes, v_components):
    """Rate of displacement implied by the depth flux of the nodal
    horizontal velocities: -sum_a d_a int_{-1}^0 v_a dy3."""
    from lubelastic.spectral import spectral_derivative

    out = np.zeros(grid.shape)
    for a, comp in enumerate(v_components):
        out -= spectral_derivative(grid, comp @ vnodes.weights, 1, axis=a)
    return out


def _nodal_horizontal(t, grid, eta, params, forcing, vnodes):
    p = limit_pressure(grid, eta, params.B)
    f_h = None if forcing is None else forcing(float(t))[: grid.dim]
    return p, horizontal_velocity(grid, p, f_h, params.nu, vnodes)


def nodal_assemble_approx(reduced, params, forcing, vnodes):
    """The reconstructed triple, one snapshot at a time on the nodes."""
    from lubelastic.scaling import eps_power

    eps = params.eps
    eps_kappa = eps_power(eps, params.kappa)
    grid = reduced.grid
    v_all, p_all, eta_all = [], [], []
    for t, eta in zip(reduced.times, reduced.eta):
        p, v_h = _nodal_horizontal(t, grid, eta, params, forcing, vnodes)
        v3 = vertical_velocity(grid, vnodes, *v_h, eps=eps)
        v_all.append(tuple(eps**2 * c for c in v_h) + (eps**2 * v3,))
        p_all.append(np.repeat(p[..., None], vnodes.m, axis=-1))
        eta_all.append(eps_kappa * eta)
    return stacked_triple(reduced.times, v_all, p_all, eta_all)


def nodal_laplacian(grid, f):
    """Lap' f, one spectral second derivative per horizontal axis."""
    from lubelastic.spectral import spectral_derivative

    out = spectral_derivative(grid, f, 2, axis=0)
    for a in range(1, grid.dim):
        out = out + spectral_derivative(grid, f, 2, axis=a)
    return out


def nodal_chain_closure_error(reduced, params, forcing, vnodes):
    """The chain closure on the nodes, one snapshot at a time: the flux rate
    of the nodal velocities against the reduced equation's right side
    c (Lap')^3 eta + F, with F the nodal source `forcing_F`."""
    grid = reduced.grid
    sq = np.empty(len(reduced.times))
    for j, (t, eta) in enumerate(zip(reduced.times, reduced.eta)):
        _, v_h = _nodal_horizontal(t, grid, eta, params, forcing, vnodes)
        f_h = None if forcing is None else forcing(float(t))[: grid.dim]
        bending = nodal_laplacian(grid, nodal_laplacian(grid, nodal_laplacian(grid, eta)))
        rhs = bending * params.reduced_coefficient + forcing_F(f_h, params.nu, grid, vnodes)
        sq[j] = np.mean((flux_rate(grid, vnodes, v_h) - rhs) ** 2)
    return float(np.sqrt(np.trapezoid(sq, reduced.times)))


def rhs_term_norms(red, model, forcing, vnodes):
    """L2 norms in time and space of the two terms of the reduced equation's
    right side at the snapshots: -c |xi|^6 eta^ and the source F^."""
    from lubelastic.reconstruction import reduced_source
    from lubelastic.spectral import laplacian_symbol

    grid = red.grid
    bending = model.reduced_coefficient * laplacian_symbol(grid) ** 3 * np.array(
        [grid.rfft(eta) for eta in red.eta])
    source = (np.zeros_like(bending) if forcing is None
              else reduced_source(forcing, model.nu, grid, vnodes)(red.times))
    axes = tuple(range(1, bending.ndim))
    return [float(np.sqrt(np.trapezoid(np.sum(grid.mode_weights * np.abs(term) ** 2, axis=axes),
                                       red.times)))
            for term in (bending, source)]


# The time derivative `LimitFields.closure_error` compared the flux
# rate with before it read the reduced equation's right side: second-order
# finite differences of the snapshots.

def trajectory_time_derivative(times, fields):
    """Second-order finite-difference time derivative of a sequence of nodal
    snapshots (central inside, one-sided at the ends); uniform spacing
    required."""
    from lubelastic.errors import ParameterError

    times = np.asarray(times, dtype=float)
    if len(times) < 3:
        raise ParameterError("need at least three snapshots")
    dts = np.diff(times)
    if np.max(np.abs(dts - dts[0])) > 1e-9 * dts[0]:
        raise ParameterError("snapshots must be uniformly spaced in time")
    h = float(dts[0])
    vals = np.stack(fields, axis=0)
    out = np.empty_like(vals)
    out[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * h)
    out[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h)
    out[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * h)
    return out


# The reduced source as `reconstruction.forcing_F` built it at every step:
# force profiles on the nodal grid, their depth integral, and a spectral
# derivative of each horizontal component.

def forcing_F(f_horizontal, nu, grid, vnodes):
    """Zero-mean source F = -int_{-1}^0 div'(F_1, F_2) dy3 of the force
    profiles, as nodal values."""
    from lubelastic.reconstruction import _force_profiles

    if f_horizontal is None:
        return np.zeros(grid.shape)
    return flux_rate(grid, vnodes, [_force_profiles(np.asarray(f), nu, vnodes)
                                    for f in f_horizontal])


# The invariants check as `fsi.FsiState.check_invariants` took it before
# `fsi.check_invariants` checked every snapshot at once: one snapshot, one
# transform per velocity component, a loop over the gradient's entries.

def state_invariants(params, v, eta, eta_t):
    """The five measurements of one snapshot, velocity components v
    (grid.shape + (m,) each) and eta, eta_t (grid.shape), as floats; raises
    InvariantError on the first bound it breaks."""
    from lubelastic.errors import InvariantError
    from lubelastic.fsi import _xi_stack
    from lubelastic.scaling import eps_power

    eps = params.model.eps
    ops = params.vnodes.ops
    grid = params.grid
    dh = grid.dim
    vhat = [grid.rfft(comp) for comp in v]
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
    div_floor = 1e-9 * grad_norm + 1e-15 * max(1.0, grad_norm)
    if not div_norm <= div_floor:
        raise InvariantError(
            f"scaled divergence {div_norm:.3e} exceeds 1.0e-09 * {grad_norm:.3e}"
        )
    v_scale = max(max(np.max(np.abs(c)) for c in v), 1e-300)
    t_scale = eps_power(eps, -params.model.tau)
    top = v[dh][..., -1]
    kin_gap = np.max(np.abs(top - t_scale * eta_t))
    kin_scale = max(np.max(np.abs(top)), v_scale)
    if not kin_gap <= 1e-10 * kin_scale + 1e-300:
        raise InvariantError(f"kinematic trace violated by {kin_gap:.3e}")
    horiz_top = max(np.max(np.abs(v[a][..., -1])) for a in range(dh))
    if not horiz_top <= 1e-13 * v_scale:
        raise InvariantError(f"horizontal top trace {horiz_top:.3e} not zero")
    mean_eta = abs(float(eta.mean()))
    eta_scale = max(np.max(np.abs(eta)), 1e-300)
    if not mean_eta <= 1e-12 * eta_scale:
        raise InvariantError(f"eta mean {mean_eta:.3e} not zero")
    return {
        "div_norm": div_norm,
        "grad_norm": grad_norm,
        "kinematic_gap": kin_gap,
        "horizontal_top_trace": horiz_top,
        "eta_mean": mean_eta,
    }
