import csv
import logging
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import lubelastic as lb
from lubelastic.errors import InvariantError, ParameterError, RegimeError

from oracles import ledger_csv

# the directory lubelastic was imported from, for subprocess tests
SRC = os.path.dirname(os.path.dirname(os.path.abspath(lb.__file__)))


def make_params(eps=0.125, kappa=2, n=16, m=16, dt=1e-3, dim=1, theta=1.0,
                forcing=None, **model_kw):
    grid = lb.PeriodicGrid(dim=dim, n=n)
    vnodes = lb.VerticalNodes(m)
    model = lb.ModelParams(eps=eps, kappa=Fraction(kappa), theta=theta, dim=dim,
                           **model_kw)
    if forcing is None:
        forcing = lb.harmonic_ramp_forcing(grid, vnodes, wavevector=(1,) * dim,
                                           ramp_time=0.05)
    return lb.FsiParams(model=model, grid=grid, vnodes=vnodes, dt=dt, forcing=forcing)


class TestParams:
    def test_coupled_regime_enforced(self):
        grid = lb.PeriodicGrid(dim=1, n=16)
        vn = lb.VerticalNodes(12)
        model = lb.ModelParams(eps=0.25, kappa=2, tau=Fraction(0), dim=1)
        with pytest.raises(RegimeError):
            lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=1e-3,
                         forcing=lb.zero_forcing(grid, vn))

    def test_forcing_shape_checked(self):
        grid = lb.PeriodicGrid(dim=1, n=16)
        vn = lb.VerticalNodes(12)
        model = lb.ModelParams(eps=0.25, kappa=2, dim=1)
        bad = lambda t: (np.zeros((16, 12)),)  # too few components
        with pytest.raises(ParameterError):
            lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=1e-3, forcing=bad)


class TestModeOperator:
    def test_symmetric_positive_definite(self):
        params = make_params(m=12)
        A = lb.FsiSolver(params).assembled().A[2]
        assert np.max(np.abs(A - A.T)) < 1e-10 * np.max(np.abs(A))
        assert np.min(np.linalg.eigvalsh(A)) > 0

    def test_viscous_block_positive_semidefinite(self):
        # dense eigensolve on a small vertical resolution
        params = make_params(m=12)
        asm = lb.FsiSolver(params).assembled()
        for k in (0, 1, 3, 8):
            eig = np.linalg.eigvalsh(asm.visc[k])
            assert eig.min() > -1e-12 * max(1.0, eig.max())

    def test_small_dt_limit_is_mass_structure(self):
        params = make_params(m=12)
        gaps = []
        for dt in (1e-4, 1e-5, 1e-6):
            solver = lb.FsiSolver(replace(params, dt=dt))
            asm = solver.assembled()
            limit = (solver.coef["fluid_mass"] * asm.mass[2]
                     + solver.coef["rho_s_mass"] * np.outer(asm.g[2], asm.g[2]))
            gaps.append(np.linalg.norm(dt * asm.A[2] - limit) / np.linalg.norm(limit))
        assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=0.1)
        assert gaps[1] / gaps[2] == pytest.approx(10.0, rel=0.1)

    def test_factorization_cached(self):
        params = make_params(m=12)
        solver = lb.FsiSolver(params)
        asm = solver.assembled()
        assert solver.assembled() is asm
        eye = np.broadcast_to(np.eye(solver.s), asm.A.shape)
        assert np.max(np.abs(asm.inv @ asm.A - eye)) < 1e-10

    def test_wavenumber_outside_lattice(self):
        # |k| >= n/2 aliases on the grid, and k = n/2 samples sin to zero
        grid = lb.PeriodicGrid(dim=1, n=16)
        vnodes = lb.VerticalNodes(12)
        for k in (8, 9, -9):
            with pytest.raises(ParameterError, match="not resolved"):
                lb.harmonic_ramp_forcing(grid, vnodes, wavevector=(k,))
        grid2 = lb.PeriodicGrid(dim=2, n=8)
        with pytest.raises(ParameterError):
            lb.harmonic_ramp_forcing(grid2, vnodes, wavevector=(1, 4))
        lb.harmonic_ramp_forcing(grid2, vnodes, wavevector=(-3, 3))

    def test_zero_mode_plate_harmonic_stays_zero(self):
        # zero-horizontal-mean forcing never moves the mean plate harmonic
        params = make_params(dt=1e-3)
        traj = lb.run_fsi(params, 0.02, snapshot_stride=5)
        for state in traj.states:
            assert abs(state.eta.hat[0]) < 1e-20


class TestStep:
    def test_zero_forcing_stays_zero(self):
        grid = lb.PeriodicGrid(dim=1, n=16)
        vn = lb.VerticalNodes(12)
        model = lb.ModelParams(eps=0.25, kappa=2, dim=1)
        params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=1e-3,
                              forcing=lb.zero_forcing(grid, vn))
        traj = lb.run_fsi(params, 0.01, snapshot_stride=1)
        for state in traj.states:
            assert all(np.max(np.abs(c.values)) == 0.0 for c in state.v)
            assert np.max(np.abs(state.eta.values)) == 0.0
        assert np.all(traj.ledger.lhs() == 0.0)

    def test_mode_locality(self):
        params = make_params(dt=1e-3)
        traj = lb.run_fsi(params, 0.05, snapshot_stride=50)
        state = traj.states[-1]
        eh = np.abs(state.eta.hat)
        active = eh[1]
        others = np.delete(eh, 1)
        assert active > 0
        assert np.max(others) < 1e-12 * active
        vh = np.abs(state.v[0].hat)
        assert np.max(np.delete(vh, 1, axis=0)) < 1e-12 * np.max(vh)

    def test_linearity_in_forcing(self):
        grid = lb.PeriodicGrid(dim=1, n=16)
        vn = lb.VerticalNodes(12)
        scale = 3.0
        states = []
        for amp in (1.0, scale):
            model = lb.ModelParams(eps=0.125, kappa=2, theta=1.0, dim=1)
            forcing = lb.harmonic_ramp_forcing(grid, vn, amplitude=amp, ramp_time=0.05)
            params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=1e-3,
                                  forcing=forcing)
            states.append(lb.run_fsi(params, 0.02, snapshot_stride=20).states[-1])
        a, b = states
        for ca, cb in zip(a.v, b.v):
            ref = np.max(np.abs(cb.values))
            assert np.max(np.abs(scale * ca.values - cb.values)) <= 1e-12 * max(ref, 1e-300)
        assert np.max(np.abs(scale * a.eta.values - b.eta.values)) <= 1e-12 * np.max(np.abs(b.eta.values))
        assert np.max(np.abs(scale * a.p.values - b.p.values)) <= 1e-11 * np.max(np.abs(b.p.values))

    def test_depth_varying_vertical_force_gives_hydrostatic_pressure(self):
        # a horizontally uniform vertical force drives no flow; the recovered
        # zero-mode pressure is its running integral, pinned to zero at the top
        grid = lb.PeriodicGrid(dim=1, n=16)
        vn = lb.VerticalNodes(16)
        model = lb.ModelParams(eps=0.25, kappa=2, dim=1)
        zero = np.zeros(grid.shape + (vn.m,))
        profile = np.broadcast_to(vn.nodes**2, grid.shape + (vn.m,)).copy()

        def forcing(t):
            return (zero, profile)

        params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=1e-3,
                              forcing=forcing)
        traj = lb.run_fsi(params, 0.01, snapshot_stride=10)
        state = traj.states[-1]
        assert all(np.max(np.abs(c.values)) < 1e-18 for c in state.v)
        # d/dy p = eps * y^2 with p(0) = 0 gives p = eps * (y^3 + 1)/3 - eps/3
        ref = model.eps * (vn.nodes**3) / 3.0
        got = state.p.values[0]
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_step_fsi_round_trip(self):
        params = make_params(dt=1e-3)
        traj = lb.run_fsi(params, 0.005, snapshot_stride=1)
        state = lb.step_fsi(params, traj.states[-2])
        ref = traj.states[-1]
        assert np.max(np.abs(state.eta.values - ref.eta.values)) < 1e-14
        assert state.t == pytest.approx(ref.t)

    def test_energy_identity_each_step(self):
        params = make_params(dt=5e-4, theta=0.5)
        traj = lb.run_fsi(params, 0.05, snapshot_stride=100)
        led = traj.ledger
        scale = np.maximum(np.abs(led.lhs(include_numerical=True)), np.abs(led.work))
        resid = led.identity_residual()
        assert np.max(np.abs(resid) / np.maximum(scale, 1e-300)) < 1e-12
        # dropping the nonnegative numerical dissipation leaves slack >= 0
        assert np.min(led.slack()) >= -1e-15 * np.max(scale)


class TestCollocationCrossCheck:
    def test_matches_independent_discretization(self):
        # drive one wavenumber with the same force through the production
        # solver and a primal velocity/pressure collocation oracle; the two
        # vertical discretizations must agree to spectral accuracy
        from oracles import CollocationModeOracle
        from lubelastic.fsi import smooth_ramp

        grid = lb.PeriodicGrid(dim=1, n=16)
        vn = lb.VerticalNodes(20)
        model = lb.ModelParams(eps=0.125, kappa=Fraction(2), theta=1.0, dim=1)
        dt, nsteps = 1e-3, 100
        forcing = lb.harmonic_ramp_forcing(grid, vn, amplitude=1.0, ramp_time=0.05)
        params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=dt, forcing=forcing)
        traj = lb.run_fsi(params, nsteps * dt, snapshot_stride=10)

        oracle = CollocationModeOracle(vn, model, k=1, dt=dt)
        mode_coeff = -0.5j  # coefficient of e^{2 pi i x} in sin(2 pi x)
        eta_oracle = {}
        for i in range(nsteps):
            t_new = (i + 1) * dt
            oracle.step(mode_coeff * smooth_ramp(t_new, 0.05) * np.ones(vn.m))
            eta_oracle[round(t_new, 9)] = oracle.eta

        for state in traj.states[1:]:
            ref = eta_oracle[round(state.t, 9)]
            got = state.eta.hat[1]
            assert abs(got - ref) <= 1e-8 * abs(ref)
        v1_final = traj.states[-1].v[0].hat[1]
        rel = np.max(np.abs(v1_final - oracle.v1)) / np.max(np.abs(oracle.v1))
        assert rel <= 1e-8


class TestInvariantsAndRuns:
    def test_state_invariants(self):
        params = make_params(dt=1e-3, theta=1.0)
        traj = lb.run_fsi(params, 0.05, snapshot_stride=10)
        info = traj.states[-1].check_invariants(params)
        assert info["horizontal_top_trace"] == 0.0

    def test_dt_self_convergence_first_order(self):
        results = []
        for dt in (2e-3, 1e-3, 5e-4):
            params = make_params(dt=dt, theta=1.0)
            traj = lb.run_fsi(params, 0.1, snapshot_stride=10**9, with_pressure=False)
            results.append(traj.states[-1].eta.values)
        d1 = np.max(np.abs(results[0] - results[1]))
        d2 = np.max(np.abs(results[1] - results[2]))
        assert 1.7 <= d1 / d2 <= 2.3

    def test_energy_scales_like_thickness_cubed(self, caplog):
        # at kappa = 3 the rescaled horizon keeps t_phys = t, and the total
        # energy at fixed horizon contracts by ~8 per thickness halving
        caplog.set_level(logging.ERROR, logger="lubelastic.fsi")

        def terminal(eps):
            params = make_params(eps=eps, kappa=3, n=8, m=12, dt=5e-4)
            traj = lb.run_fsi(params, 0.1, snapshot_stride=10**9, with_pressure=False)
            return traj.ledger.lhs()[-1]

        ratio = terminal(1 / 32) / terminal(1 / 64)
        assert 6.0 <= ratio <= 10.0

    def test_three_dimensional_step(self):
        params = make_params(dim=2, n=8, m=10, dt=1e-3)
        traj = lb.run_fsi(params, 0.01, snapshot_stride=5)
        traj.states[-1].check_invariants(params)
        assert len(traj.ledger) == 10

    def test_run_requires_integer_steps(self):
        params = make_params(dt=3e-3)
        with pytest.raises(ParameterError):
            lb.run_fsi(params, 0.01)

    def test_run_rejects_zero_snapshot_stride(self):
        with pytest.raises(ParameterError, match="snapshot_stride"):
            lb.FsiSolver(make_params(dt=1e-3)).run(0.01, snapshot_stride=0)

    def test_ledger_csv(self, tmp_path):
        params = make_params(dt=1e-3)
        traj = lb.run_fsi(params, 0.01, snapshot_stride=5)
        path = tmp_path / "ledger.csv"
        traj.ledger.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["step", "t", "fluid_kinetic", "plate_kinetic"]
        assert len(rows) == len(traj.ledger) + 1
        for row in rows[1:]:
            assert len(row) == len(rows[0])
            for value in row:
                float(value)  # plain numbers, no numpy reprs

    def test_ledger_csv_matches_row_writer(self, tmp_path):
        traj = lb.run_fsi(make_params(dt=1e-3), 0.01, snapshot_stride=5)
        traj.ledger.to_csv(tmp_path / "new.csv")
        ledger_csv(traj.ledger, tmp_path / "old.csv")
        want = (tmp_path / "old.csv").read_bytes().replace(b"\r\n", b"\n")
        assert (tmp_path / "new.csv").read_bytes() == want

    def test_settled_plate_passes_invariants(self):
        # the top velocity decays once the plate settles; the kinematic gap is
        # measured against the whole velocity field, not the vanishing trace
        params = make_params(dim=2, n=8, m=10, dt=4e-3)
        traj = lb.run_fsi(params, 0.36, snapshot_stride=30)
        assert len(traj.states) == 4
        for state in traj.states:
            state.check_invariants(params)

    def test_corrupted_state_raises(self):
        params = make_params(dt=1e-3)
        state = lb.run_fsi(params, 0.005, snapshot_stride=5).states[-1]
        bad = replace(state, eta=lb.PeriodicField(params.grid, state.eta.values + 1.0))
        with pytest.raises(InvariantError, match="eta mean"):
            bad.check_invariants(params)

    def test_invariant_checks_survive_optimize_flag(self):
        script = textwrap.dedent("""
            import dataclasses
            import lubelastic as lb
            from lubelastic.errors import InvariantError
            grid = lb.PeriodicGrid(dim=1, n=8)
            vn = lb.VerticalNodes(8)
            model = lb.ModelParams(eps=0.25, kappa=2, dim=1)
            params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=1e-3,
                                  forcing=lb.zero_forcing(grid, vn))
            state = lb.run_fsi(params, 1e-3).states[-1]
            bad = dataclasses.replace(state, eta=lb.PeriodicField(grid, state.eta.values + 1.0))
            try:
                bad.check_invariants(params)
            except InvariantError:
                print("raised")
        """)
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"


class TestDependencies:
    def test_import_does_not_load_scipy(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, lubelastic; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestSparseLuOracle:
    def test_batched_solve_matches_sparse_lu(self):
        # the block solve used to run through one sparse LU of the
        # block-diagonal step operator; rebuild it from the stacked blocks and
        # step the same broadband 2D load through both solves
        import scipy.sparse
        import scipy.sparse.linalg

        grid = lb.PeriodicGrid(dim=2, n=16)
        vn = lb.VerticalNodes(12)
        X, Y = grid.meshes
        bump = np.exp((np.cos(2 * np.pi * (X - 0.3)) + np.cos(2 * np.pi * (Y - 0.7)) - 2.0)
                      / (2 * np.pi**2 * 0.08**2))
        depth = 1.0 + vn.nodes
        profiles = (bump[..., None] * depth, 0.5 * bump[..., None] * depth**2,
                    -bump[..., None] * np.ones(vn.m))

        def forcing(t):
            r = lb.fsi.smooth_ramp(t, 0.02)
            return tuple(r * prof for prof in profiles)

        model = lb.ModelParams(eps=2.0**-6, kappa=Fraction(2), theta=1.0, dim=2)
        params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=2e-3, forcing=forcing)

        oracle = lb.FsiSolver(params)
        asm = oracle.assembled()
        lu = scipy.sparse.linalg.splu(scipy.sparse.block_diag(list(asm.A), format="csc"))

        def lu_solve(rhs):
            b = rhs.reshape(-1)
            sol = lu.solve(np.stack([b.real, b.imag], axis=1))
            return (sol[:, 0] + 1j * sol[:, 1]).reshape(rhs.shape)

        asm.solve = lu_solve
        t_scale = lb.eps_power(model.eps, -model.tau)
        t_end = 0.06
        old = oracle.run(t_end, snapshot_stride=10)
        new = lb.FsiSolver(params).run(t_end, snapshot_stride=10)

        for traj in (old, new):
            led = traj.ledger
            scale = np.maximum(np.abs(led.lhs(include_numerical=True)), np.abs(led.work))
            assert np.max(np.abs(led.identity_residual()) / scale) <= 1e-12
        for a, b in zip(old.states[1:], new.states[1:]):
            v_scale = max(np.max(np.abs(c.values)) for c in a.v)
            assert v_scale > 0
            for ca, cb in zip(a.v, b.v):
                assert np.max(np.abs(ca.values - cb.values)) <= 1e-12 * v_scale
            assert (np.max(np.abs(a.eta.values - b.eta.values))
                    <= 1e-12 * np.max(np.abs(a.eta.values)))
            # the plate velocity is a velocity trace: top v3 = t_scale * eta_t
            assert (t_scale * np.max(np.abs(a.eta_t.values - b.eta_t.values))
                    <= 1e-12 * v_scale)
            assert (np.max(np.abs(a.p.values - b.p.values))
                    <= 1e-11 * np.max(np.abs(a.p.values)))


def _bump_forcing(grid, vn, component, ramp_time=0.02):
    """A localized 2D load with a depth-varying profile in one component."""
    X, Y = grid.meshes
    bump = np.exp((np.cos(2 * np.pi * (X - 0.3)) + np.cos(2 * np.pi * (Y - 0.7)) - 2.0)
                  / (2 * np.pi**2 * 0.08**2))
    profile = bump[..., None] * (1.0 + vn.nodes)
    zero = np.zeros(grid.shape + (vn.m,))

    def forcing(t):
        r = lb.fsi.smooth_ramp(t, ramp_time)
        return tuple(r * profile if i == component else zero for i in range(grid.dim + 1))

    return forcing


class TestEinsumLedgerOracle:
    @pytest.mark.parametrize("dim, eps, component", [
        (1, 2.0**-3, 0), (1, 2.0**-3, 1),
        (2, 2.0**-3, 0), (2, 2.0**-3, 2), (2, 2.0**-6, 0), (2, 2.0**-6, 2),
    ])
    def test_batched_step_matches_einsum_step(self, dim, eps, component):
        # the mass product and the ledger's quadratic forms used to be
        # einsum contractions, and every forcing component was transformed;
        # step the same state through both paths
        from oracles import einsum_advance

        grid = lb.PeriodicGrid(dim=dim, n=16)
        vn = lb.VerticalNodes(20 if dim == 1 else 12)
        if dim == 1:
            forcing = lb.harmonic_ramp_forcing(grid, vn, component=component, ramp_time=0.02)
        else:
            forcing = _bump_forcing(grid, vn, component)
        model = lb.ModelParams(eps=eps, kappa=Fraction(2), theta=1.0, dim=dim)
        params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=2e-3, forcing=forcing)
        solver = lb.FsiSolver(params)
        asm = solver.assembled()
        spec = solver.zero_state()
        for i in range(25):
            t_new = (i + 1) * params.dt
            new, inc = solver.advance(spec, t_new=t_new)
            ref, ref_inc = einsum_advance(solver, spec, t_new)
            scale = max(abs(v) for v in ref_inc.values())
            assert scale > 0
            assert inc.keys() == ref_inc.keys()
            for key in inc:
                assert abs(inc[key] - ref_inc[key]) <= 1e-12 * scale, key
            for a, b in ((new.c, ref.c), (new.eta, ref.eta)):
                assert np.max(np.abs(b)) > 0
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
            # the plate velocity is a strongly cancelling sum g . c: any
            # float64 summation of it, the einsum's included, lies ~1e-12
            # relative from the exact sum, so its roundoff is measured
            # against the size of the summands
            terms = solver.coef["trace"] * np.max(np.sum(np.abs(asm.g * ref.c), axis=1))
            assert np.max(np.abs(new.eta_t - ref.eta_t)) <= 1e-13 * terms
            spec = new


class TestForcingTransforms:
    @staticmethod
    def _count_transforms(monkeypatch, params, nsteps):
        calls = []
        rfft = lb.PeriodicGrid.rfft

        def counting(grid, values):
            calls.append(1)
            return rfft(grid, values)

        monkeypatch.setattr(lb.PeriodicGrid, "rfft", counting)
        traj = lb.run_fsi(params, nsteps * params.dt, snapshot_stride=nsteps,
                          with_pressure=False)
        return len(calls), traj

    def test_only_loaded_component_transformed(self, monkeypatch):
        params = make_params(dim=2, n=8, m=10, dt=1e-3)
        count, traj = self._count_transforms(monkeypatch, params, 10)
        assert count == 10
        assert traj.ledger.work[-1] > 0

    def test_zero_forcing_makes_no_transform(self, monkeypatch):
        grid = lb.PeriodicGrid(dim=2, n=8)
        vn = lb.VerticalNodes(10)
        params = make_params(dim=2, n=8, m=10, dt=1e-3, forcing=lb.zero_forcing(grid, vn))
        count, traj = self._count_transforms(monkeypatch, params, 10)
        assert count == 0
        assert all(w == 0.0 for w in traj.ledger.work)
