import csv
import logging
import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

import lubelastic as lb
from lubelastic.errors import GridMismatchError, InvariantError, ParameterError
from lubelastic.spectral import _steps_per_block

from oracles import (FsiSolver, cartesian_frame, ledger_csv, nyquist_free, snapshot_channel_sq,
                     state_invariants, to_cartesian, vertical_profile)

# the directory lubelastic was imported from, for subprocess tests
SRC = os.path.dirname(os.path.dirname(os.path.abspath(lb.__file__)))


def unloaded_forcing(grid, vnodes):
    """A forcing that loads no component."""
    zero = np.zeros(grid.shape + (vnodes.m,))
    return lambda t: (zero,) * (grid.dim + 1)


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


def check(params, traj):
    """`fsi.check_invariants` over every snapshot of a trajectory."""
    return lb.fsi.check_invariants(params, traj.times, traj.v, traj.eta, traj.eta_t)


def last_snapshot(traj):
    """The arrays `fsi.check_invariants` takes, of a trajectory's last
    snapshot alone: copies, with a snapshot axis of one."""
    return (traj.times[-1:], tuple(c[-1:].copy() for c in traj.v), traj.eta[-1:].copy(),
            traj.eta_t[-1:].copy())


def plain(forcing):
    """The same load as a plain callable, which a run samples and transforms
    at every step, stepping every mode of the grid."""
    return lambda t: forcing(t)


def plain_params(**kw):
    """`make_params` with its load as a plain callable."""
    params = make_params(**kw)
    return replace(params, forcing=plain(params.forcing))


class TestParams:
    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1e-3])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ParameterError, match=r"dt must lie in \(0, inf\)"):
            make_params(dt=dt)

    @pytest.mark.parametrize("dt", [1e-308, 5e-309])
    def test_dt_that_overflows_the_step_operator_rejected(self, dt):
        # 1/dt times the mass coefficients passes the largest float: the run
        # used to end with a NaN ledger; now the batch names dt, warning-free
        params = make_params(n=16, m=20, dt=dt, rho_f=1.0, rho_s=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=f"dt = {dt} is so small"):
                lb.run_fsi(params, 10 * dt)

    def test_tiny_dt_that_fits_runs_clean(self):
        params = make_params(n=16, m=20, dt=1e-305, rho_f=1.0, rho_s=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ledger = lb.run_fsi(params, 1e-304).ledger
        assert all(np.isfinite(getattr(ledger, f.name)).all() for f in fields(ledger))

    @pytest.mark.parametrize("t_end", [np.nan, np.inf])
    def test_non_finite_horizon_rejected(self, t_end):
        with pytest.raises(ParameterError, match="positive and finite"):
            lb.run_fsi(make_params(n=8, m=8), t_end)

    def test_forcing_shape_checked(self):
        grid = lb.PeriodicGrid(dim=1, n=16)
        vn = lb.VerticalNodes(12)
        model = lb.ModelParams(eps=0.25, kappa=2, dim=1)
        bad = lambda t: (np.zeros((16, 12)),)  # too few components
        with pytest.raises(ParameterError):
            lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=1e-3, forcing=bad)


class TestModeOperator:
    def test_symmetric_positive_definite(self):
        # the batch keeps only the augmented step; the operator is the
        # oracle's assembly, from whose factor the batch builds it bit for bit
        params = make_params(m=12)
        A = FsiSolver(params).assembled().A[2]
        assert np.max(np.abs(A - A.T)) < 1e-10 * np.max(np.abs(A))
        assert np.min(np.linalg.eigvalsh(A)) > 0

    def test_viscous_block_positive_semidefinite(self):
        # dense eigensolve on a small vertical resolution, every mode stepped
        params = plain_params(m=12)
        batch = lb.fsi._Batch([params])
        for k in (0, 1, 3, 8):
            eig = np.linalg.eigvalsh(batch.visc[0, k])
            assert eig.min() > -1e-12 * max(1.0, eig.max())

    def test_viscosity_operator_linear_in_nu(self):
        base = lb.fsi._Batch([make_params(m=12)]).visc
        visc = lb.fsi._Batch([make_params(m=12, nu=2.5)]).visc
        assert np.max(np.abs(visc - 2.5 * base)) <= 1e-14 * np.max(np.abs(visc))

    def test_small_dt_limit_is_mass_structure(self):
        params = plain_params(m=12)
        gaps = []
        for dt in (1e-4, 1e-5, 1e-6):
            batch = lb.fsi._Batch([replace(params, dt=dt)])
            asm = FsiSolver(replace(params, dt=dt)).assembled()
            mass = batch.Maug[0, 2, :batch.mi, :batch.mi]  # M c on the c rows
            limit = (batch.fluid_mass[0] * mass
                     + batch.rho_s_mass[0] * np.outer(asm.g[2], asm.g[2]))
            A = asm.A[2]
            gaps.append(np.linalg.norm(dt * A - limit) / np.linalg.norm(limit))
        assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=0.1)
        assert gaps[1] / gaps[2] == pytest.approx(10.0, rel=0.1)

    def test_factorization_cached(self, monkeypatch):
        # a run assembles and factors the step operators of all its points
        # once, in one batch, on the modes its load reaches
        params = make_params(m=12)
        built = []
        init = lb.fsi._Batch.__init__

        def counting(batch, params):
            built.append(batch)
            init(batch, params)

        monkeypatch.setattr(lb.fsi._Batch, "__init__", counting)
        points = [params, replace(params, model=replace(params.model, eps=0.0625))]
        lb.fsi.run_batch(points, 0.005)
        [batch] = built
        assert batch.modes.tolist() == [1]
        A = np.stack([FsiSolver(p).assembled().A[batch.modes] for p in points])
        mi = batch.mi
        assert batch.Gh.shape == A.shape[:2] + (mi + 2, mi + 2)
        # the c rows of the augmented step solve A c = fluid_mass/dt M c + ...
        eye = (batch.fluid_mass / params.dt)[:, None, None, None] * np.eye(mi)
        assert np.max(np.abs(A @ batch.Gh[..., :mi, :mi] - eye)) < 1e-10 * np.max(eye)

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

    def test_fractional_wavevector_rejected(self):
        # sin(2 pi 1.5 x) is not periodic on the grid
        grid, vnodes = lb.PeriodicGrid(dim=2, n=16), lb.VerticalNodes(12)
        for k in ((1.5, 1), (1, 2.0)):
            with pytest.raises(ParameterError, match="every k must be an integer"):
                lb.harmonic_ramp_forcing(grid, vnodes, wavevector=k)
        force = lb.harmonic_ramp_forcing(grid, vnodes, wavevector=(np.int64(1), 2),
                                         component=np.int64(2))
        assert np.any(force(1.0)[2])

    def test_smooth_ramp_values(self):
        assert lb.fsi.smooth_ramp(-0.1, 0.1) == 0.0
        assert lb.fsi.smooth_ramp(0.0, 0.1) == 0.0
        assert lb.fsi.smooth_ramp(0.1, 0.1) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-15)
        assert lb.fsi.smooth_ramp(0.2, 0.1) == pytest.approx(1.0 - np.exp(-4.0), rel=1e-15)

    def test_zero_mode_plate_harmonic_stays_zero(self):
        # zero-horizontal-mean forcing never moves the mean plate harmonic
        params = make_params(dt=1e-3)
        traj = lb.run_fsi(params, 0.02, snapshot_stride=5)
        for eta in traj.eta:
            assert abs(params.grid.rfft(eta)[0]) < 1e-20


class TestStep:
    def test_zero_forcing_stays_zero(self):
        grid = lb.PeriodicGrid(dim=1, n=16)
        vn = lb.VerticalNodes(12)
        model = lb.ModelParams(eps=0.25, kappa=2, dim=1)
        params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=1e-3,
                              forcing=unloaded_forcing(grid, vn))
        traj = lb.run_fsi(params, 0.01, snapshot_stride=1)
        assert not any(np.any(c) for c in traj.v)
        assert not np.any(traj.eta)
        assert np.all(traj.ledger.lhs() == 0.0)

    def test_mode_locality(self):
        params = make_params(dt=1e-3)
        traj = lb.run_fsi(params, 0.05, snapshot_stride=50)
        eh = np.abs(params.grid.rfft(traj.eta[-1]))
        active = eh[1]
        others = np.delete(eh, 1)
        assert active > 0
        assert np.max(others) < 1e-12 * active
        vh = np.abs(params.grid.rfft(traj.v[0][-1]))
        assert np.max(np.delete(vh, 1, axis=0)) < 1e-12 * np.max(vh)

    def test_linearity_in_forcing(self):
        grid = lb.PeriodicGrid(dim=1, n=16)
        vn = lb.VerticalNodes(12)
        scale = 3.0
        runs = []
        for amp in (1.0, scale):
            model = lb.ModelParams(eps=0.125, kappa=2, theta=1.0, dim=1)
            forcing = lb.harmonic_ramp_forcing(grid, vn, amplitude=amp, ramp_time=0.05)
            params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=1e-3,
                                  forcing=forcing)
            runs.append(lb.run_fsi(params, 0.02, snapshot_stride=20))
        a, b = runs
        for ca, cb in zip(a.v, b.v):
            ref = np.max(np.abs(cb[-1]))
            assert np.max(np.abs(scale * ca[-1] - cb[-1])) <= 1e-12 * max(ref, 1e-300)
        assert np.max(np.abs(scale * a.eta[-1] - b.eta[-1])) <= 1e-12 * np.max(np.abs(b.eta[-1]))
        assert np.max(np.abs(scale * a.p[-1] - b.p[-1])) <= 1e-11 * np.max(np.abs(b.p[-1]))

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
        assert all(np.max(np.abs(c[-1])) < 1e-18 for c in traj.v)
        # d/dy p = eps * y^2 with p(0) = 0 gives p = eps * (y^3 + 1)/3 - eps/3
        ref = model.eps * (vn.nodes**3) / 3.0
        got = traj.p[-1][0]
        assert np.max(np.abs(got - ref)) < 1e-12

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

        for t, eta in zip(traj.times[1:], traj.eta[1:]):
            ref = eta_oracle[round(t, 9)]
            got = grid.rfft(eta)[1]
            assert abs(got - ref) <= 1e-8 * abs(ref)
        v1_final = grid.rfft(traj.v[0][-1])[1]
        rel = np.max(np.abs(v1_final - oracle.v1)) / np.max(np.abs(oracle.v1))
        assert rel <= 1e-8


class TestInvariantsAndRuns:
    def test_state_invariants(self):
        # a trajectory's states are records of views of its arrays, and a
        # state's check is the function's on its snapshot alone
        params = make_params(dt=1e-3, theta=1.0)
        traj = lb.run_fsi(params, 0.05, snapshot_stride=10)
        found = check(params, traj)
        assert len(traj.states) == len(traj.times) == 6
        for j, state in enumerate(traj.states):
            assert state.t == traj.times[j]
            for got, want in zip((*state.v, state.p, state.eta, state.eta_t),
                                 (*traj.v, traj.p, traj.eta, traj.eta_t)):
                assert np.shares_memory(got, want) and np.array_equal(got, want[j])
            info = state.check_invariants(params)
            assert all(type(x) is float for x in info.values())
            assert info == pytest.approx({key: x[j] for key, x in found.items()}, rel=1e-13,
                                         abs=0.0)
        assert not np.any(found["horizontal_top_trace"])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_gradient_norm_matches_field_derivatives(self, dim):
        # the scale of the divergence bound, against derivatives of the
        # materialized fields and the per-field channel quadrature
        params = make_params(dim=dim, n=8, m=10, dt=1e-3)
        traj = lb.run_fsi(params, 0.01, snapshot_stride=10)
        grid, vn, eps = params.grid, params.vnodes, params.model.eps
        parts = []
        for comp in traj.v:
            parts.append(vn.ops.differentiate(comp[-1]) / eps)
            for b in range(dim):
                sym = lb.spectral.derivative_symbol(grid, 1, b)[..., None]
                parts.append(grid.irfft(grid.rfft(comp[-1]) * sym))
        want = np.sqrt(snapshot_channel_sq(parts, vn))
        assert check(params, traj)["grad_norm"][-1] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_check_equals_the_per_state_one(self, dim):
        # every snapshot of a run against the per-state check it replaced
        # (`oracles.state_invariants`): the gradient's norm to 1e-13, the
        # maxima and the mean exactly.  The divergence is now integrated up
        # from the bottom wall, not differentiated: both read roundoff here
        if dim == 1:
            params = make_params(dt=1e-3, theta=0.5)
            traj = lb.run_fsi(params, 0.06, snapshot_stride=10)
        else:
            # every mode loaded; m = 16 resolves the vertical velocity, whose
            # divergence reads 7e-7 of the gradient at m = 10
            grid, vn = lb.PeriodicGrid(dim=2, n=8), lb.VerticalNodes(16)
            model = lb.ModelParams(eps=2.0**-3, kappa=Fraction(2), theta=1.0, dim=2)
            params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=4e-3,
                                  forcing=nyquist_free(grid, _loaded_bump_forcing(grid, vn)))
            traj = lb.run_fsi(params, 0.12, snapshot_stride=10)
        found = check(params, traj)
        assert all(x.shape == traj.times.shape for x in found.values())
        for j in range(len(traj.times)):
            want = state_invariants(params, tuple(c[j] for c in traj.v), traj.eta[j],
                                    traj.eta_t[j])
            assert want["grad_norm"] > 0 or j == 0
            assert abs(found["grad_norm"][j] - want["grad_norm"]) <= 1e-13 * want["grad_norm"]
            for key in ("kinematic_gap", "horizontal_top_trace", "eta_mean"):
                assert found[key][j] == want[key], key
            assert found["div_norm"][j] <= 1e-15 * want["grad_norm"]
            assert want["div_norm"] <= 1e-12 * want["grad_norm"]

    def test_divergence_holds_where_its_nodal_derivative_does_not(self):
        # at m = 10 the nodal v3 of this 2D run, a profile of degree m on m
        # nodes, differentiates to a divergence above the bound in the
        # per-state check; integrated up from the wall it reads roundoff
        params = make_params(dim=2, n=8, m=10, dt=1e-3, forcing=lb.harmonic_ramp_forcing(
            lb.PeriodicGrid(dim=2, n=8), lb.VerticalNodes(10), wavevector=(1, 2), component=2,
            ramp_time=0.02))
        traj = lb.run_fsi(params, 0.01, snapshot_stride=5)
        with pytest.raises(InvariantError, match="scaled divergence"):
            state_invariants(params, tuple(c[-1] for c in traj.v), traj.eta[-1], traj.eta_t[-1])
        found = check(params, traj)
        assert np.all(found["div_norm"] <= 1e-15 * found["grad_norm"])

    def test_first_bad_snapshot_is_named(self):
        # snapshots 2 and 3 both break a bound: the message names snapshot 2,
        # its time and its own bound
        params = make_params(dt=1e-3)
        traj = lb.run_fsi(params, 0.02, snapshot_stride=5)
        eta, v1 = traj.eta.copy(), traj.v[0].copy()
        eta[2:] += 1.0
        v1[3] += 1.0
        with pytest.raises(InvariantError,
                           match=r"^eta mean .* at snapshot 2, t = 0\.01$"):
            lb.fsi.check_invariants(params, traj.times, (v1, traj.v[1]), eta, traj.eta_t)
        with pytest.raises(InvariantError, match=r"^horizontal top trace .* at snapshot 3, "):
            lb.fsi.check_invariants(params, traj.times, (v1, traj.v[1]), traj.eta, traj.eta_t)

    @pytest.mark.parametrize("kappa", [Fraction(5, 2), 3])
    def test_energy_identity_away_from_kappa_two(self, kappa, caplog):
        # at kappa = 2 several of the ledger's and the step's eps powers are 1
        caplog.set_level(logging.ERROR, logger="lubelastic.fsi")
        params = make_params(kappa=kappa, n=8, m=12, dt=1e-3)
        ledger = lb.run_fsi(params, 0.05, snapshot_stride=50).ledger
        assert np.max(ledger.identity_residual_rel()) <= 1e-12
        assert lb.verify.energy_audit(ledger, params).ok

    def test_negative_energy_guard_bound(self):
        # one energy term at -1e-13 of the largest passes the guard, at
        # -1e-6 it raises: the plate's kinetic coefficient turned negative
        # and sized against the fluid energy of a random state
        params = make_params(dt=1e-3)
        batch = lb.fsi._Batch([params])
        rng = np.random.default_rng(7)
        shape = (2, 1, batch.P * batch.K, batch.mi)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        eta = np.zeros((2, 1, batch.K), dtype=complex)
        eta_t = np.ones((2, 1, batch.K), dtype=complex)
        Fq = np.zeros((1,) + shape[1:], dtype=complex)

        mass_c = lb.fsi._apply(batch.Maug[..., :batch.mi, :batch.mi], c)

        def record():
            columns = np.empty((1, 8, 1))
            lb.fsi._record(batch, columns, [params.dt], c, eta, eta_t, Fq, mass_c)
            return columns[0, 1:4, 0]

        batch.plate_kin = np.zeros(1)
        fluid = record()[0]
        assert fluid > 0
        plate = 0.5 * np.sum(batch.w * np.abs(eta_t[1, 0]) ** 2)
        batch.plate_kin = np.array([-1e-13 * fluid / plate])
        assert record()[1] < 0
        batch.plate_kin = np.array([-1e-6 * fluid / plate])
        with pytest.raises(lb.AssemblyError, match="negative energy"):
            record()

    def test_negative_energy_raises(self, monkeypatch):
        # a mass operator of the wrong sign makes the fluid energy negative
        init = lb.fsi._Batch.__init__

        def flipped(batch, params):
            init(batch, params)
            batch.Maug[..., :batch.mi, :batch.mi] *= -1.0

        monkeypatch.setattr(lb.fsi._Batch, "__init__", flipped)
        with pytest.raises(lb.AssemblyError, match="negative energy"):
            lb.run_fsi(make_params(dt=1e-3), 0.005)

    def test_dt_self_convergence_first_order(self):
        results = []
        for dt in (2e-3, 1e-3, 5e-4):
            params = make_params(dt=dt, theta=1.0)
            traj = lb.run_fsi(params, 0.1, snapshot_stride=10**9)
            results.append(traj.eta[-1])
        d1 = np.max(np.abs(results[0] - results[1]))
        d2 = np.max(np.abs(results[1] - results[2]))
        assert 1.7 <= d1 / d2 <= 2.3

    def test_energy_scales_like_thickness_cubed(self, caplog):
        # at kappa = 3 the rescaled horizon keeps t_phys = t, and the total
        # energy at fixed horizon contracts by ~8 per thickness halving
        caplog.set_level(logging.ERROR, logger="lubelastic.fsi")

        def terminal(eps):
            params = make_params(eps=eps, kappa=3, n=8, m=12, dt=5e-4)
            traj = lb.run_fsi(params, 0.1, snapshot_stride=10**9)
            return traj.ledger.lhs()[-1]

        ratio = terminal(1 / 32) / terminal(1 / 64)
        assert 6.0 <= ratio <= 10.0

    def test_three_dimensional_step(self):
        params = make_params(dim=2, n=8, m=10, dt=1e-3)
        traj = lb.run_fsi(params, 0.01, snapshot_stride=5)
        check(params, traj)
        assert len(traj.ledger) == 10

    def test_run_requires_integer_steps(self):
        params = make_params(dt=3e-3)
        with pytest.raises(ParameterError):
            lb.run_fsi(params, 0.01)

    def test_run_rejects_zero_snapshot_stride(self):
        with pytest.raises(ParameterError, match="snapshot_stride"):
            lb.run_fsi(make_params(dt=1e-3), 0.01, snapshot_stride=0)

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

    def test_ledger_from_lists_holds_float_arrays(self):
        # lists are coerced, so the entries add instead of concatenating
        led = lb.EnergyLedger([0.1, 0.2], [1, 2], [0.5, 0.5], [0.25, 0.25], [0.0, 1.0],
                              [0.0, 0.0], [0.0, 0.125], [2.0, 4.0])
        for f in fields(led):
            value = getattr(led, f.name)
            assert isinstance(value, np.ndarray) and value.dtype == float
        assert isinstance(led.lhs(), np.ndarray)
        np.testing.assert_array_equal(led.lhs(), [1.75, 3.75])
        np.testing.assert_array_equal(led.identity_residual(), [-0.25, -0.125])
        np.testing.assert_array_equal(led.identity_residual_rel(), [0.125, 0.03125])
        np.testing.assert_array_equal(led.total_energy(), [1.75, 2.75])

    def test_settled_plate_passes_invariants(self):
        # the top velocity decays once the plate settles; the kinematic gap is
        # measured against the whole velocity field, not the vanishing trace
        params = make_params(dim=2, n=8, m=10, dt=4e-3)
        traj = lb.run_fsi(params, 0.36, snapshot_stride=30)
        assert len(traj.times) == 4
        check(params, traj)

    def test_corrupted_state_raises(self):
        params = make_params(dt=1e-3)
        traj = lb.run_fsi(params, 0.005, snapshot_stride=5)
        with pytest.raises(InvariantError, match="eta mean"):
            lb.fsi.check_invariants(params, traj.times, traj.v, traj.eta + 1.0, traj.eta_t)

    # the last snapshot of test_corrupted_state_raises has a velocity scale
    # of 4.5e-7 and max|eta| 3.9e-9: both bounds are relative to those
    # scales, so a corruption far below 1 still trips them
    def test_small_horizontal_top_trace_raises(self):
        params = make_params(dt=1e-3)
        times, v, eta, eta_t = last_snapshot(lb.run_fsi(params, 0.005, snapshot_stride=5))
        lb.fsi.check_invariants(params, times, v, eta, eta_t)
        v[0][:] += 0.9e-13
        with pytest.raises(InvariantError, match="horizontal top trace"):
            lb.fsi.check_invariants(params, times, v, eta, eta_t)

    def test_small_eta_mean_raises(self):
        params = make_params(dt=1e-3)
        times, v, eta, eta_t = last_snapshot(lb.run_fsi(params, 0.005, snapshot_stride=5))
        with pytest.raises(InvariantError, match="eta mean"):
            lb.fsi.check_invariants(params, times, v, eta + 0.9e-12, eta_t)

    @pytest.mark.parametrize("branch", ["scaled divergence", "kinematic trace",
                                        "horizontal top trace", "eta mean"])
    def test_corrupted_velocity_raises(self, branch):
        # each corruption trips only its own bound and is sized against it:
        # at half the bound the check passes, at twice it raises.  A
        # wall-free horizontal wave breaks the divergence, a plate velocity
        # off the top trace the kinematic condition, a uniform horizontal
        # shift only the horizontal top trace, a uniform lift of the plate
        # only its mean.  In this 2D state the horizontal components set
        # the velocity scale, 160 times the vertical one
        params = make_params(dim=2, n=8, m=10, dt=1e-3)
        traj = lb.run_fsi(params, 0.005, snapshot_stride=5)
        grid, vn, model = params.grid, params.vnodes, params.model
        x, y = grid.meshes[0][..., None], vn.nodes
        grad_norm = lb.fsi.check_invariants(params, *last_snapshot(traj))["grad_norm"][0]
        v_scale = max(np.max(np.abs(c[-1])) for c in traj.v)
        assert grad_norm > 0 and v_scale > 100 * np.max(np.abs(traj.v[-1][-1]))

        def corrupted(factor):
            times, v, eta, eta_t = last_snapshot(traj)
            if branch == "scaled divergence":
                # the wave's divergence 2 pi cos(2 pi x) y (1 + y),
                # integrated up from the wall, is 2 pi cos(2 pi x) (y^3 / 3 +
                # y^2 / 2 - 1 / 6), whose channel norm is 2 pi sqrt(13 / 2520)
                amp = factor * 1e-9 * grad_norm / (2 * np.pi * np.sqrt(13 / 2520))
                v[0][:] += amp * np.sin(2 * np.pi * x) * y * (1.0 + y)
            elif branch == "kinematic trace":
                lift = factor * 1e-10 * v_scale / lb.eps_power(model.eps, -model.tau)
                eta_t[:] += lift * np.cos(2 * np.pi * grid.meshes[0])
            elif branch == "horizontal top trace":
                v[0][:] += factor * 1e-13 * v_scale
            else:
                eta[:] += factor * 1e-12 * np.max(np.abs(eta))
            return times, v, eta, eta_t

        lb.fsi.check_invariants(params, *corrupted(0.5))
        with pytest.raises(InvariantError, match=branch):
            lb.fsi.check_invariants(params, *corrupted(2.0))

    def test_invariant_checks_survive_optimize_flag(self):
        script = textwrap.dedent("""
            import numpy as np
            import lubelastic as lb
            from lubelastic.errors import InvariantError
            grid = lb.PeriodicGrid(dim=1, n=8)
            vn = lb.VerticalNodes(8)
            model = lb.ModelParams(eps=0.25, kappa=2, dim=1)
            params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=1e-3,
                                  forcing=lambda t: (np.zeros((8, 8)),) * 2)
            traj = lb.run_fsi(params, 1e-3)
            try:
                lb.fsi.check_invariants(params, traj.times, traj.v, traj.eta + 1.0, traj.eta_t)
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

    def test_import_does_not_load_the_process_pool(self):
        # concurrent.futures.process pulls in multiprocessing and socket;
        # only a verify run with jobs > 1 needs it
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, lubelastic; print('concurrent.futures.process' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


def _loaded_bump_forcing(grid, vn):
    """A localized 2D load with depth-varying profiles in all three components."""
    X, Y = grid.meshes
    bump = np.exp((np.cos(2 * np.pi * (X - 0.3)) + np.cos(2 * np.pi * (Y - 0.7)) - 2.0)
                  / (2 * np.pi**2 * 0.08**2))
    depth = 1.0 + vn.nodes
    profiles = (bump[..., None] * depth, 0.5 * bump[..., None] * depth**2,
                -bump[..., None] * np.ones(vn.m))

    def forcing(t):
        r = lb.fsi.smooth_ramp(t, 0.02)
        return tuple(r * prof for prof in profiles)

    return forcing


class TestNyquistLoad:
    def test_materialized_fields_hold_the_solver_coefficients(self, monkeypatch):
        # a load's coefficients at the Nyquist indices are zeroed, so the
        # (k1, n/2) and (n - k1, n/2) pairs of the half spectrum stay complex
        # conjugate and the fields carry the coefficients the solver stepped
        grid = lb.PeriodicGrid(dim=2, n=16)
        vn = lb.VerticalNodes(12)
        model = lb.ModelParams(eps=2.0**-6, kappa=Fraction(2), theta=1.0, dim=2)
        params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=2e-3,
                              forcing=_loaded_bump_forcing(grid, vn))
        solver = FsiSolver(params)
        spectral = _record_spectral_states(monkeypatch, params)
        traj = lb.run_fsi(params, 10 * params.dt, snapshot_stride=1)
        assert len(traj.times) == len(spectral) == 11
        shape = grid.spectral_shape + (vn.m,)
        frame = cartesian_frame(grid)
        for j, spec in enumerate(spectral[1:], 1):
            profiles = np.zeros((solver.K, grid.dim, vn.m), dtype=complex)
            profiles[..., 1:-1] = to_cartesian(frame, spec.c).reshape(solver.K, grid.dim, -1)
            want = [profiles[:, a] for a in range(grid.dim)] + [vertical_profile(solver, spec.c)]
            scale = max(np.max(np.abs(w)) for w in want)
            assert scale > 0
            for field, coeffs in zip(traj.v, want):
                assert np.max(np.abs(grid.rfft(field[j]) - coeffs.reshape(shape))) <= 1e-12 * scale
            eta = spec.eta.reshape(grid.spectral_shape)
            assert np.max(np.abs(grid.rfft(traj.eta[j]) - eta)) <= 1e-12 * np.max(np.abs(eta))


class TestPressureRecovery:
    @staticmethod
    def _run(monkeypatch, dim):
        if dim == 1:
            params = plain_params(n=16, m=16, dt=2e-3, theta=0.5)
        else:
            grid = lb.PeriodicGrid(dim=2, n=16)
            vn = lb.VerticalNodes(12)
            model = lb.ModelParams(eps=2.0**-3, kappa=Fraction(2), theta=1.0, dim=2)
            params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=2e-3,
                                  forcing=_loaded_bump_forcing(grid, vn))
        states = _record_spectral_states(monkeypatch, params)
        traj = lb.run_fsi(params, 4 * params.dt, snapshot_stride=1)
        return params, states, traj

    @staticmethod
    def _pressure(params, c_old, c_new, fhat, c_older=None):
        """`fsi.pressure_hat` with batch axes of one: one state, one solver."""
        one = lambda c: None if c is None else c[None, None]
        return lb.fsi.pressure_hat(lb.fsi._Batch([params]), one(c_old), one(c_new),
                                   {a: h[None] for a, h in fhat.items()}, one(c_older))[0, 0]

    @staticmethod
    def _fhat(params, t):
        return {a: h[0].reshape(-1, params.vnodes.m)
                for a, h in lb.fsi.sample_forcing(params.forcing, params.grid, [t]).items()}

    @pytest.mark.parametrize("dim", [1, 2])
    def test_single_previous_state_balances_momentum(self, dim, monkeypatch):
        # from one previous state the pressure must satisfy the step's
        # momentum balance along xi, with v' from the materialized fields:
        #   |xi|^2 p = -i xi . (f + nu (-|xi|^2 v + d2 v / eps^2)
        #                       - rho_f eps^-tau (v - v_old) / dt)
        params, states, traj = self._run(monkeypatch, dim)
        grid, vn, model, dt = params.grid, params.vnodes, params.model, params.dt
        shape = grid.spectral_shape + (vn.m,)
        xi = [np.broadcast_to(x, grid.spectral_shape)[..., None] for x in grid.xi]
        xi2 = sum(x**2 for x in xi)
        D2 = vn.ops.D @ vn.ops.D
        inert = model.rho_f * lb.eps_power(model.eps, -model.tau) / dt
        for i in (1, 2, 3):
            assert np.max(np.abs(states[i].c)) > 0
            fhat = self._fhat(params, states[i + 1].t)
            p = self._pressure(params, states[i].c, states[i + 1].c, fhat).reshape(shape)
            balance, scale = 0.0, 0.0
            for a in range(dim):
                v = grid.rfft(traj.v[a][i + 1])
                v_old = grid.rfft(traj.v[a][i])
                f = fhat[a].reshape(shape) if a in fhat else np.zeros(shape)
                terms = (f, -model.nu * xi2 * v, model.nu * (v @ D2.T) / model.eps**2,
                         -inert * (v - v_old))
                balance = balance + xi[a] * sum(terms)
                scale = max(scale, *(np.max(np.abs(xi[a] * term)) for term in terms))
            assert scale > 0
            assert np.max(np.abs(xi2 * p + 1j * balance)) <= 1e-12 * scale

    @pytest.mark.parametrize("dim", [1, 2])
    def test_steady_state_quotients_agree(self, dim, monkeypatch):
        # with c_old == c_new both backward quotients vanish
        params, states, _ = self._run(monkeypatch, dim)
        c = states[3].c
        fhat = self._fhat(params, states[3].t)
        first = self._pressure(params, c, c, fhat)
        second = self._pressure(params, c, c, fhat, c_older=c)
        assert np.max(np.abs(first)) > 0
        assert np.max(np.abs(first - second)) <= 1e-14 * np.max(np.abs(first))


class TestSparseLuOracle:
    def test_batched_solve_matches_sparse_lu(self):
        # the block solve used to run through one sparse LU of the
        # block-diagonal step operator; rebuild it from the stacked blocks and
        # step the same broadband 2D load through both solves
        import scipy.sparse
        import scipy.sparse.linalg
        from oracles import single_run

        grid = lb.PeriodicGrid(dim=2, n=16)
        vn = lb.VerticalNodes(12)
        model = lb.ModelParams(eps=2.0**-6, kappa=Fraction(2), theta=1.0, dim=2)
        params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=2e-3,
                              forcing=_loaded_bump_forcing(grid, vn))

        oracle = FsiSolver(params)
        asm = oracle.assembled()
        lu = scipy.sparse.linalg.splu(scipy.sparse.block_diag(list(asm.A), format="csc"))

        def lu_solve(rhs):
            b = rhs.reshape(-1)
            sol = lu.solve(np.stack([b.real, b.imag], axis=1))
            return (sol[:, 0] + 1j * sol[:, 1]).reshape(rhs.shape)

        t_scale = lb.eps_power(model.eps, -model.tau)
        t_end = 0.06
        old = single_run(oracle, t_end, snapshot_stride=10, solve=lu_solve)
        new = lb.run_fsi(params, t_end, snapshot_stride=10)

        for traj in (old, new):
            led = traj.ledger
            scale = np.maximum(np.abs(led.lhs(include_numerical=True)), np.abs(led.work))
            assert np.max(np.abs(led.identity_residual()) / scale) <= 1e-12
        for j in range(1, len(old.times)):
            v_scale = max(np.max(np.abs(c[j])) for c in old.v)
            assert v_scale > 0
            for ca, cb in zip(old.v, new.v):
                assert np.max(np.abs(ca[j] - cb[j])) <= 1e-12 * v_scale
            assert (np.max(np.abs(old.eta[j] - new.eta[j]))
                    <= 1e-12 * np.max(np.abs(old.eta[j])))
            # the plate velocity is a velocity trace: top v3 = t_scale * eta_t
            assert (t_scale * np.max(np.abs(old.eta_t[j] - new.eta_t[j]))
                    <= 1e-12 * v_scale)
            assert (np.max(np.abs(old.p[j] - new.p[j]))
                    <= 1e-11 * np.max(np.abs(old.p[j])))


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


def _record_spectral_states(monkeypatch, params):
    """The coefficients (c, eta, eta_t, t) of every state of the run of
    `params` that `fsi.materialize` builds, copied before the run's buffers
    move on; the list fills as the run goes, and the states' times come
    from the trajectory's when `fsi.run_batch` returns."""
    from oracles import SpectralState

    seen = []
    materialize, run_batch = lb.fsi.materialize, lb.fsi.run_batch

    def spy(batch, c, eta, eta_t, phat):
        for i, p in enumerate(batch.params):
            if p is params:
                seen.extend(SpectralState(c[j, i].copy(), eta[j, i].copy(), eta_t[j, i].copy(),
                                          None) for j in range(len(c)))
        return materialize(batch, c, eta, eta_t, phat)

    def timed(points, *args, **kwargs):
        trajs = run_batch(points, *args, **kwargs)
        for p, traj in zip(points, trajs):
            if p is params:
                seen[:] = [s._replace(t=t) for s, t in zip(seen, traj.times.tolist(), strict=True)]
        return trajs

    monkeypatch.setattr(lb.fsi, "materialize", spy)
    monkeypatch.setattr(lb.fsi, "run_batch", timed)
    return seen


def _assert_state_matches(solver, got, ref):
    """A spectral state against a reference one, within 1e-13 of the
    reference's largest entry."""
    asm = solver.assembled()
    assert got.t == ref.t
    for a, b in ((got.c, ref.c), (got.eta, ref.eta)):
        assert np.max(np.abs(b)) > 0
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
    # the plate velocity is a strongly cancelling sum g . c: any float64
    # summation of it, the einsum's included, lies ~1e-12 relative from the
    # exact sum, so its roundoff is measured against the size of the summands
    terms = solver.coef["trace"] * np.max(np.sum(np.abs(asm.g * ref.c[:solver.K]), axis=1))
    assert np.max(np.abs(got.eta_t - ref.eta_t)) <= 1e-13 * terms


def _ledger_increments(led):
    """A run's per-step ledger increments: the energies as they stand, the
    integrals as differences of their running sums."""
    inc = dict(fluid_kinetic=np.array(led.fluid_kinetic),
               plate_kinetic=np.array(led.plate_kinetic),
               bending=np.array(led.bending))
    for key, name in (("viscous", "viscous_dissipation"),
                      ("viscoelastic", "viscoelastic_dissipation"),
                      ("numerical", "numerical_dissipation"), ("work", "work")):
        inc[key] = np.diff(getattr(led, name), prepend=0.0)
    return inc


class TestEinsumLedgerOracle:
    @pytest.mark.parametrize("dim, eps, component", [
        (1, 2.0**-3, 0), (1, 2.0**-3, 1),
        (2, 2.0**-3, 0), (2, 2.0**-3, 2), (2, 2.0**-6, 0), (2, 2.0**-6, 2),
    ])
    def test_batched_step_matches_einsum_step(self, dim, eps, component, monkeypatch):
        # the mass product and the ledger's quadratic forms used to be
        # einsum contractions, and every forcing component was transformed;
        # step each state of the blocked run through the einsum step and
        # compare with the run's next state and ledger increments
        from oracles import einsum_advance

        grid = lb.PeriodicGrid(dim=dim, n=16)
        vn = lb.VerticalNodes(20 if dim == 1 else 12)
        if dim == 1:
            forcing = plain(lb.harmonic_ramp_forcing(grid, vn, component=component,
                                                     ramp_time=0.02))
        else:
            forcing = nyquist_free(grid, _bump_forcing(grid, vn, component))
        model = lb.ModelParams(eps=eps, kappa=Fraction(2), theta=1.0, dim=dim)
        params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=2e-3, forcing=forcing)
        solver = FsiSolver(params)
        states = _record_spectral_states(monkeypatch, params)
        led = lb.run_fsi(params, 25 * params.dt, snapshot_stride=1).ledger
        assert len(states) == 26
        inc = _ledger_increments(led)
        for i in range(25):
            ref, ref_inc = einsum_advance(solver, states[i], (i + 1) * params.dt)
            _assert_state_matches(solver, states[i + 1], ref)
            scale = max(abs(v) for v in ref_inc.values())
            assert scale > 0
            assert inc.keys() == ref_inc.keys()
            for key in inc:
                assert abs(inc[key][i] - ref_inc[key]) <= 1e-12 * scale, key
        assert np.max(led.identity_residual_rel()) <= 1e-12


class TestStackedCartesianOracle:
    """The split row layout against the stacked Cartesian step it replaced
    (`oracles.StackedStep`: one (K, 2mi, 2mi) block per 2D mode)."""

    @staticmethod
    def _params(eps):
        grid = lb.PeriodicGrid(dim=2, n=16)
        vn = lb.VerticalNodes(12)
        model = lb.ModelParams(eps=eps, kappa=Fraction(2), theta=1.0, dim=2)
        return lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=2e-3,
                            forcing=nyquist_free(grid, _loaded_bump_forcing(grid, vn)))

    def test_frame(self):
        # in 1D e0 = 1, so the along-xi rows see xi itself, bit for bit
        params = make_params(m=12)
        batch = lb.fsi._Batch([params])
        assert np.all(batch.frame == 1.0)
        assert np.array_equal(batch.xi_L, lb.fsi._xi_stack(params.grid)[batch.modes, 0])
        batch = lb.fsi._Batch([self._params(2.0**-3)])
        e0, e1 = batch.frame
        assert np.max(np.abs(np.einsum("ka,ka->k", e0, e1))) <= 1e-15
        for e in (e0, e1):
            assert np.max(np.abs(np.linalg.norm(e, axis=1) - 1.0)) <= 1e-15
        np.testing.assert_allclose(batch.xi_L, np.sqrt(batch.xi2), rtol=1e-15)
        assert np.array_equal(batch.frame[:, 0], np.eye(2))

    @pytest.mark.parametrize("eps", [2.0**-3, 2.0**-6])
    def test_rotated_stacked_operator_is_the_split_one(self, eps):
        from oracles import StackedStep

        params = self._params(eps)
        batch, stacked = lb.fsi._Batch([params]), StackedStep(FsiSolver(params))
        K, mi = batch.K, batch.mi
        # R maps the rows of one mode, (along, across), to Cartesian
        # components, so R^T X R is the stacked matrix X in the frame
        R = np.einsum("pka,ij->kaipj", stacked.frame, np.eye(mi)).reshape(K, 2 * mi, 2 * mi)
        split_A = FsiSolver(params).assembled().A  # the batch keeps only its step
        for mat, split in ((stacked.A, split_A), (stacked.mass, batch.Maug[0, :, :mi, :mi]),
                           (stacked.visc, batch.visc[0])):
            rot = (np.swapaxes(R, 1, 2) @ mat @ R).reshape(K, 2, mi, 2, mi)
            scale = np.max(np.abs(mat), axis=(1, 2))[:, None, None]
            for p in range(2):
                assert np.max(np.abs(rot[:, p, :, p] - split[p * K:(p + 1) * K]) / scale) <= 1e-14
            assert np.max(np.abs(rot[:, 0, :, 1]) / scale) <= 1e-14

    @pytest.mark.parametrize("eps", [2.0**-3, 2.0**-6])
    def test_split_run_solves_the_stacked_steps(self, eps, monkeypatch):
        # from each recorded state, the split step's solution must satisfy
        # the stacked step equation to roundoff, and the ledger increments and
        # pressures must agree; forward states are not compared, as cond(A)
        # reaches 2e7 and the two factorizations differ at that level
        from oracles import StackedStep

        params = self._params(eps)
        solver = FsiSolver(params)
        states = _record_spectral_states(monkeypatch, params)
        nsteps = 25
        led = lb.run_fsi(params, nsteps * params.dt, snapshot_stride=1).ledger
        assert len(states) == nsteps + 1
        stacked = StackedStep(solver)
        cart = [stacked.cartesian(s) for s in states]
        inc = _ledger_increments(led)
        for i in range(nsteps):
            err, b_norm = stacked.backward_errors(cart[i], cart[i + 1])
            loaded = b_norm > 0
            assert loaded.sum() > solver.K // 2
            assert np.max(err[loaded]) <= 1e-14
            ref = stacked.increments(cart[i], cart[i + 1])
            scale = max(abs(v) for v in ref.values())
            for key in inc:
                assert abs(inc[key][i] - ref[key]) <= 1e-12 * scale, key
            fhat = dict(enumerate(stacked.forcing_hat(states[i + 1].t)))
            older = None if i == 0 else states[i - 1].c
            got = TestPressureRecovery._pressure(params, states[i].c, states[i + 1].c, fhat,
                                                 older)
            want = stacked.pressure_hat(cart[i].c, cart[i + 1].c, fhat, params.dt,
                                        None if i == 0 else cart[i - 1].c)
            assert np.max(np.abs(want)) > 0
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestBlockedRunOracle:
    """The blocked run against the per-step loop it replaced
    (`oracles.stepwise_run`: one `advance` and one forcing transform per
    step, and another transform for each snapshot's pressure).  Both step
    every mode, so the loads are plain callables."""

    @staticmethod
    def _compare(monkeypatch, params, nsteps, stride):
        from oracles import stepwise_run

        solver = FsiSolver(params)
        states = _record_spectral_states(monkeypatch, params)
        traj = lb.run_fsi(params, nsteps * params.dt, snapshot_stride=stride)
        ref, ref_states = stepwise_run(FsiSolver(params), nsteps * params.dt, stride)
        np.testing.assert_array_equal(traj.times, ref.times)
        assert len(states) == len(ref_states) + 1
        for got, want in zip(states[1:], ref_states):
            _assert_state_matches(solver, got, want)
        for got, want in zip(traj.p[1:], ref.p[1:]):
            p_scale = np.max(np.abs(want))
            assert p_scale > 0
            assert np.max(np.abs(got - want)) <= 1e-12 * p_scale
        for name in ("fluid_kinetic", "plate_kinetic", "bending", "viscous_dissipation",
                     "viscoelastic_dissipation", "numerical_dissipation", "work"):
            got, want = np.array(getattr(traj.ledger, name)), np.array(getattr(ref.ledger, name))
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), name
        assert np.max(traj.ledger.identity_residual_rel()) <= 1e-12
        return solver, traj

    @staticmethod
    def _block(solver):
        return _steps_per_block(16 * solver.P * solver.K * solver.mi)

    def test_stride_across_blocks_and_partial_last_block(self, monkeypatch):
        params = plain_params(n=16, m=20, dt=2e-3, theta=0.5)
        solver, traj = self._compare(monkeypatch, params, 60, 7)
        block = self._block(solver)
        assert block > 7 and block % 7 and 60 % block
        assert len(traj.times) == 1 + 60 // 7 + 1

    def test_snapshot_on_first_step_of_block(self, monkeypatch):
        # its second-order pressure quotient reaches two states back, into
        # the previous block
        params = plain_params(n=16, m=20, dt=2e-3)
        solver, traj = self._compare(monkeypatch, params, 52, 13)
        block = self._block(solver)
        steps = np.rint(traj.times / params.dt).astype(int)
        assert any(n > 1 and (n - 1) % block == 0 for n in steps)

    def test_snapshot_at_the_first_step(self, monkeypatch):
        # the first step has no state two back: its pressure takes the
        # first-order quotient
        params = plain_params(n=16, m=20, dt=2e-3)
        _, traj = self._compare(monkeypatch, params, 3, 1)
        assert traj.times[1] == params.dt

    def test_two_dimensional_one_step_blocks(self, monkeypatch):
        grid = lb.PeriodicGrid(dim=2, n=16)
        vn = lb.VerticalNodes(12)
        model = lb.ModelParams(eps=2.0**-6, kappa=Fraction(2), theta=1.0, dim=2)
        params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=2e-3,
                              forcing=nyquist_free(grid, _loaded_bump_forcing(grid, vn)))
        # every step starts a block; the snapshot at step 2 is the first
        # whose pressure reaches two states back
        solver, traj = self._compare(monkeypatch, params, 11, 2)
        assert self._block(solver) == 1
        assert traj.times[1] == 2 * params.dt

    def test_forcing_that_turns_nan_names_its_time(self):
        grid = lb.PeriodicGrid(dim=1, n=16)
        vn = lb.VerticalNodes(12)
        ramp = lb.harmonic_ramp_forcing(grid, vn, ramp_time=0.05)

        def forcing(t):
            comps = ramp(t)
            return comps if t <= 0.005 else (comps[0] * np.nan, comps[1])

        params = make_params(n=16, m=12, dt=1e-3, forcing=forcing)
        with pytest.raises(ParameterError, match="not finite at t = 0.006"):
            lb.run_fsi(params, 0.02)


class TestRunBatch:
    """Ladder points stepped together in `fsi.run_batch` against each point
    run alone and against the one-solver loop it replaced
    (`oracles.single_run`: per-solver quadrature, ledger columns, pressures
    and fields), bit for bit when both step every mode, as under a plain
    callable load."""

    @staticmethod
    def _ladder(dim):
        grid = lb.PeriodicGrid(dim=dim, n=16 if dim == 1 else 8)
        vn = lb.VerticalNodes(20 if dim == 1 else 10)
        if dim == 1:
            forcing = plain(lb.harmonic_ramp_forcing(grid, vn, component=1, ramp_time=0.02))
            eps_list = (2.0**-3, 2.0**-4, 2.0**-5)
        else:
            forcing = _loaded_bump_forcing(grid, vn)
            eps_list = (2.0**-3, 2.0**-6)
        return [lb.FsiParams(model=lb.ModelParams(eps=eps, kappa=Fraction(2), theta=0.5,
                                                  dim=dim),
                             grid=grid, vnodes=vn, dt=2e-3, forcing=forcing)
                for eps in eps_list]

    @staticmethod
    def _assert_states_equal(traj, ref):
        """Times and every snapshot field, all bit for bit."""
        assert np.array_equal(traj.times, ref.times)
        for x, y in zip((*traj.v, traj.p, traj.eta, traj.eta_t),
                        (*ref.v, ref.p, ref.eta, ref.eta_t), strict=True):
            assert np.array_equal(x, y)

    @classmethod
    def _assert_equal(cls, got, want):
        (traj, spectral), (ref, ref_spectral) = got, want
        cls._assert_states_equal(traj, ref)
        assert len(spectral) == len(ref_spectral) == len(traj.times)
        for a, b in zip(spectral, ref_spectral):
            assert a.t == b.t
            for x, y in zip(a[:3], b[:3]):
                assert np.array_equal(x, y)
        for f in fields(traj.ledger):
            assert np.array_equal(getattr(traj.ledger, f.name), getattr(ref.ledger, f.name))

    @staticmethod
    def _spied(monkeypatch, params):
        return [_record_spectral_states(monkeypatch, p) for p in params]

    @staticmethod
    def _block(params):
        solver = FsiSolver(params)
        return _steps_per_block(16 * solver.P * solver.K * solver.mi)

    @pytest.mark.parametrize("dim, nsteps, stride", [(1, 60, 7), (2, 15, 4)])
    def test_together_equals_alone_and_the_oracle(self, dim, nsteps, stride, monkeypatch):
        from oracles import single_run

        params = self._ladder(dim)
        t_end = nsteps * params[0].dt
        seen = self._spied(monkeypatch, params)
        block = self._block(params[0])
        assert 1 < block < nsteps and block % stride and nsteps % block
        together = lb.fsi.run_batch(params, t_end, snapshot_stride=stride)
        assert len(together) == len(params)
        # each point again alone, as a copy that the spies tell apart
        alone_params = [replace(p) for p in params]
        alone_seen = self._spied(monkeypatch, alone_params)
        for i, p in enumerate(params):
            assert together[i].params is p
            assert np.max(np.abs(together[i].ledger.work)) > 0
            alone = lb.run_fsi(alone_params[i], t_end, snapshot_stride=stride)
            self._assert_equal((together[i], seen[i]), (alone, alone_seen[i]))
            oracle = single_run(FsiSolver(p), t_end, snapshot_stride=stride)
            self._assert_states_equal(together[i], oracle)
            for f in fields(oracle.ledger):
                assert np.array_equal(getattr(together[i].ledger, f.name),
                                      getattr(oracle.ledger, f.name))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_points_that_differ_beyond_eps(self, dim, caplog):
        # every coefficient must be each point's own, not the first point's:
        # the points differ in kappa, rho_s, theta and nu as well as eps
        caplog.set_level(logging.ERROR, logger="lubelastic.fsi")
        shared = self._ladder(dim)[0]
        models = [dict(eps=2.0**-3, kappa=Fraction(2), rho_s=1.0, theta=0.5, nu=1.0),
                  dict(eps=2.0**-4, kappa=Fraction(5, 2), rho_s=3.0, theta=2.0, nu=0.5),
                  dict(eps=2.0**-5, kappa=Fraction(3), rho_s=0.25, theta=0.0, nu=4.0)]
        params = [replace(shared, model=lb.ModelParams(dim=dim, **kw)) for kw in models]
        nsteps = 2 * self._block(shared) + 3
        together = lb.fsi.run_batch(params, nsteps * shared.dt, snapshot_stride=4)
        for p, traj in zip(params, together):
            alone = lb.run_fsi(p, nsteps * shared.dt, snapshot_stride=4)
            self._assert_states_equal(traj, alone)
            assert np.max(np.abs(traj.ledger.work)) > 0
            for f in fields(traj.ledger):
                assert np.array_equal(getattr(traj.ledger, f.name), getattr(alone.ledger, f.name))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_stacked_operator_is_the_per_solver_one(self, dim):
        # the batch's coefficient arrays and stacked matrices against each
        # point's own assembly (`oracles.FsiSolver`), bit for bit: the bench
        # ladder's four thicknesses and setting in 1D, a pair in 2D
        if dim == 1:
            grid, vn = lb.PeriodicGrid(dim=1, n=16), lb.VerticalNodes(20)
            eps_list = (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6)
            physics = dict(rho_f=40.0, rho_s=40.0, theta=20.0)
        else:
            grid, vn = lb.PeriodicGrid(dim=2, n=16), lb.VerticalNodes(12)
            eps_list = (2.0**-3, 2.0**-6)
            physics = dict(theta=1.0)
        forcing = unloaded_forcing(grid, vn)
        params = [lb.FsiParams(model=lb.ModelParams(eps=eps, kappa=Fraction(2), dim=dim,
                                                    **physics),
                               grid=grid, vnodes=vn, dt=5e-4, forcing=forcing)
                  for eps in eps_list]
        batch = lb.fsi._Batch(params)
        # the batch keeps one array per value: eps^1 is eps, and the work's
        # eps^(tau + 1) is the trace's
        kept_as = {"plate_test": "eps", "work": "trace"}
        for i, p in enumerate(params):
            solver = FsiSolver(p)
            asm = solver.assembled()
            for name, value in solver.coef.items():
                assert getattr(batch, kept_as.get(name, name))[i] == value, name
            mdl = p.model
            assert (batch.eps[i], batch.eps2[i], batch.nu[i]) == (mdl.eps, mdl.eps**2, mdl.nu)
            assert batch.inert[i] == mdl.rho_f * lb.eps_power(mdl.eps, -mdl.tau)
            assert batch.fluid_kin[i] == mdl.rho_f * mdl.eps
            assert np.array_equal(batch.xi4, asm.xi4)
            # built once per distinct |xi|^2 and gathered, against every row's own
            for name in ("Gh", "Maug", "visc"):
                assert np.array_equal(getattr(batch, name)[i], getattr(asm, name)), name

    def test_ladder_size_batch_matches_the_oracle(self):
        # the bench ladder's four thicknesses and setting (n = 16, m = 20,
        # dt = 5e-4) at its snapshot stride of 20: the batch steps the load's
        # one mode in one partial 227-step block, the oracle all 9 modes in
        # 25-step blocks that the stride crosses; agreement is to roundoff,
        # not bit for bit
        from oracles import single_run

        cfg = lb.verify.RateStudyConfig(kappa=Fraction(2), n=16, m=20, dt=5e-4,
                                        t_end=0.055, snapshot_stride=20, theta=1.0)
        grid, vnodes, forcing = cfg.setting()
        params = [lb.FsiParams(model=cfg.model_for(eps), grid=grid, vnodes=vnodes, dt=cfg.dt,
                               forcing=forcing) for eps in cfg.eps_list]
        assert len(params) == 4
        assert self._block(params[0]) == 25
        assert _steps_per_block(16 * len(forcing.support) * 18) == 227
        together = lb.fsi.run_batch(params, cfg.t_end, cfg.snapshot_stride)
        for p, traj in zip(params, together):
            oracle = single_run(FsiSolver(p), cfg.t_end, cfg.snapshot_stride)
            assert len(traj.times) == 1 + 110 // 20 + 1
            _assert_fields_close(traj, oracle)
            for name in ("fluid_kinetic", "plate_kinetic", "bending", "viscous_dissipation",
                         "viscoelastic_dissipation", "numerical_dissipation", "work"):
                got, want = getattr(traj.ledger, name), getattr(oracle.ledger, name)
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), name
            assert np.array_equal(traj.ledger.t, oracle.ledger.t)
            assert np.max(traj.ledger.identity_residual_rel()) <= 1e-12

    @pytest.mark.parametrize("change", ["dt", "grid", "forcing"])
    def test_solvers_must_share_the_setting(self, change):
        # a grid or a forcing equal in every value is still another object
        base = make_params(n=16, m=12, dt=1e-3)
        other = {"dt": lambda: replace(base, dt=2e-3),
                 "grid": lambda: replace(base, grid=lb.PeriodicGrid(dim=1, n=16)),
                 "forcing": lambda: replace(base, forcing=lb.harmonic_ramp_forcing(
                     base.grid, base.vnodes, ramp_time=0.05))}[change]()
        with pytest.raises(ParameterError, match="must share"):
            lb.fsi.run_batch([base, other], 0.01)


class TestAugmentedStep:
    """The step as one augmented product pair per row, built once per
    distinct |xi|^2 from the Cholesky factor's triangular inverses."""

    @pytest.mark.parametrize("dim, eps, component", [
        (1, 2.0**-3, 0), (1, 2.0**-3, 1), (1, 2.0**-6, 0), (1, 2.0**-6, 1),
        (2, 2.0**-3, 0), (2, 2.0**-3, 2), (2, 2.0**-6, 0), (2, 2.0**-6, 2)])
    def test_matches_the_stored_inverse_loop(self, dim, eps, component):
        # against the per-step loop that multiplied each right side by the
        # stored A^-1 (`oracles.single_run` with `oracles.stored_inverse`),
        # all modes stepped under a plain callable: each field kind within
        # 2e-13 of its largest value over the run and each ledger entry
        # within 1e-13 of its largest (measured: 9.7e-14 and 3.8e-14)
        from oracles import single_run, stored_inverse

        grid = lb.PeriodicGrid(dim=dim, n=16 if dim == 1 else 8)
        vn = lb.VerticalNodes(20 if dim == 1 else 10)
        load = lb.harmonic_ramp_forcing(grid, vn, wavevector=(1,) * dim, component=component,
                                        ramp_time=0.02)
        model = lb.ModelParams(eps=eps, kappa=Fraction(2), theta=0.5, dim=dim)
        params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=2e-3, forcing=plain(load))
        nsteps, stride = (60, 7) if eps == 2.0**-3 else (200, 20)
        traj = lb.run_fsi(params, nsteps * params.dt, snapshot_stride=stride)
        solver = FsiSolver(params)
        ref = single_run(solver, nsteps * params.dt, stride, solve=stored_inverse(solver))
        _assert_fields_close(traj, ref, rtol=2e-13)
        for f in fields(traj.ledger)[1:]:
            got, want = getattr(traj.ledger, f.name), getattr(ref.ledger, f.name)
            assert np.max(np.abs(want)) > 0, f.name
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), f.name
        assert np.array_equal(traj.ledger.t, ref.ledger.t)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_factorization_per_distinct_wavenumber(self, dim, monkeypatch):
        # every mode enters the operator through |xi|^2 alone, so a plain
        # callable that steps all the grid's modes factors one operator per
        # distinct |xi|^2 (per row kind), fewer than the modes in 2D
        factored, cholesky = [], np.linalg.cholesky

        def counting(a):
            factored.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        params = plain_params(n=16, m=10, dim=dim)
        lb.run_fsi(params, 2 * params.dt)
        xi = lb.fsi._xi_stack(params.grid)
        modes = len(xi)
        distinct = len(np.unique(np.einsum("ka,ka->k", xi, xi)))
        [shape] = factored
        assert shape[:3] == (1, dim, distinct)
        assert lb.fsi.factored_operators(params.forcing, params.grid) == distinct
        assert distinct == modes if dim == 1 else distinct < modes // 3
        # a harmonic load steps its support alone: one mode, one operator
        assert lb.fsi.factored_operators(make_params(dim=dim).forcing, params.grid) == 1

    def test_step_loop_makes_two_products_per_step(self, monkeypatch):
        # np.matmul as `lubelastic.fsi` sees it, counted: a run of N steps in
        # B blocks makes at most two products per step plus a constant per
        # block, so that the per-step calls cannot creep back unnoticed
        class Counting:
            products = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, *args, **kwargs):
                Counting.products += 1
                return np.matmul(*args, **kwargs)

        params = make_params(n=16, m=12, dt=1e-3)
        block = _steps_per_block(16 * 1 * 10)  # the load steps one mode
        nsteps = 2 * block + 5
        monkeypatch.setattr(lb.fsi, "np", Counting())
        lb.run_fsi(params, nsteps * params.dt, snapshot_stride=nsteps)
        assert nsteps <= Counting.products <= 2 * nsteps + 4 * 3


def _assert_fields_close(traj, ref, rtol=1e-12):
    """Times equal, and every snapshot of each field kind within rtol of
    the kind's largest value over the reference run."""
    assert np.array_equal(traj.times, ref.times)
    kinds = lambda t: (*t.v, t.p, t.eta, t.eta_t)
    for i, (got, want) in enumerate(zip(kinds(traj), kinds(ref), strict=True)):
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want)), i


class TestHarmonicLoad:
    """The load held as coefficients, stepped on its support, against the
    same load as a plain callable: sampled at the nodes every step,
    transformed, and every mode stepped."""

    @pytest.mark.parametrize("dim, wavevector, component, n_support", [
        (1, (-3,), 0, 1), (2, (1, 2), 0, 1), (2, (2, -1), 1, 1), (2, (3, 0), 0, 2),
        (2, (-1, 0), 1, 2), (2, (0, 3), 2, 1)])
    def test_coefficients_are_the_sampled_sine(self, dim, wavevector, component, n_support):
        grid, vn = lb.PeriodicGrid(dim=dim, n=16), lb.VerticalNodes(8)
        load = lb.harmonic_ramp_forcing(grid, vn, amplitude=1.7, wavevector=wavevector,
                                        component=component, ramp_time=0.1)
        assert len(load.support) == n_support
        phase = sum(2 * np.pi * k * x for k, x in zip(wavevector, grid.meshes))
        sampled = 1.7 * np.sin(phase)[..., None] * np.ones(vn.m)
        hat = grid.rfft(sampled)
        # the transform of the sample is the load's coefficients to
        # roundoff, which it leaves in the unloaded modes too
        assert np.max(np.abs(hat - load.hat)) <= 1e-15
        per_mode = np.abs(hat).reshape(-1, vn.m).max(axis=1)
        assert np.array_equal(np.flatnonzero(per_mode > 1e-12), load.support)
        r = lb.fsi.smooth_ramp(0.07, 0.1)
        comps = load(0.07)
        assert len(comps) == dim + 1
        for i, comp in enumerate(comps):
            want = r * sampled if i == component else np.zeros_like(sampled)
            assert np.max(np.abs(comp - want)) <= 1e-14
        # sampled, the load gives its support's rows, and a callable every mode's
        rows = load.hat.reshape(-1, vn.m)
        [(a, coeffs)] = lb.fsi.sample_forcing(load, grid, [0.0, 0.07]).items()
        assert a == component and coeffs.shape == (2, n_support, vn.m)
        assert np.array_equal(coeffs, np.stack([0.0 * rows[load.support],
                                                r * rows[load.support]]))
        [(a, coeffs)] = lb.fsi.sample_forcing(plain(load), grid, [0.07]).items()
        assert a == component and coeffs.shape == (1,) + rows.shape
        assert np.max(np.abs(coeffs[0] - r * rows)) <= 1e-15

    @staticmethod
    def _load_parts(dim=1):
        grid, vn = lb.PeriodicGrid(dim=dim, n=16), lb.VerticalNodes(8)
        return grid, vn, lb.harmonic_ramp_forcing(grid, vn, wavevector=(1,) * dim).hat.copy()

    @pytest.mark.parametrize("dim, component", [(1, -1), (1, 2), (1, 5), (1, 0.5), (2, 3)])
    def test_component_that_is_no_velocity_component_rejected(self, dim, component):
        # component 5 of a 1D load used to run with no load at all
        grid, _, hat = self._load_parts(dim)
        with pytest.raises(ParameterError, match="component"):
            lb.fsi.HarmonicLoad(grid, component, hat, 0.1)

    @pytest.mark.parametrize("ramp_time", [np.nan, -1.0, 0.0, np.inf])
    def test_ramp_time_that_is_not_positive_and_finite_rejected(self, ramp_time):
        # NaN used to run to NaN fields, and -1 was accepted
        grid, _, hat = self._load_parts()
        with pytest.raises(ParameterError, match="ramp_time"):
            lb.fsi.HarmonicLoad(grid, 0, hat, ramp_time)

    @pytest.mark.parametrize("dim, shape", [(1, (9,)), (1, (9, 8, 1)), (1, (8, 8)), (1, (17, 8)),
                                            (2, (16, 9)), (2, (9, 16, 8)), (2, (16, 8))])
    def test_coefficients_of_another_shape_rejected(self, dim, shape):
        grid, _, _ = self._load_parts(dim)
        with pytest.raises(GridMismatchError, match="plus one vertical axis"):
            lb.fsi.HarmonicLoad(grid, 0, np.zeros(shape, dtype=complex), 0.1)

    def test_holds_a_read_only_copy_of_its_coefficients(self):
        # the caller's array stays writeable, and a write to it leaves the load as built
        grid, _, hat = self._load_parts()
        want = hat.copy()
        load = lb.fsi.HarmonicLoad(grid, 0, hat, 0.1)
        assert load.hat is not hat and np.array_equal(load.hat, want)
        assert not load.hat.flags.writeable and hat.flags.writeable
        hat[...] = 0.0
        assert np.array_equal(load.hat, want) and np.array_equal(load.support, [1])
        with pytest.raises(ValueError):
            load.hat[1] = 0.0

    @pytest.mark.parametrize("value", [1.0, -0.5j])
    @pytest.mark.parametrize("dim, nyquist", [(1, [(8,)]), (2, [(8, 1), (3, 8), (8, 8)])],
                             ids=["1d", "2d"])
    def test_nyquist_coefficients_run_as_the_callable_does(self, dim, nyquist, value):
        # the load drops its coefficients at index n/2 of every horizontal
        # axis, as `sample_forcing` drops a sampled load's.  As data they
        # used to be stepped (work 2.3e-14, |v| up to 1.7e-11 on a lone 1D
        # Nyquist mode, and a failed divergence invariant), while through
        # the load's own call they were not
        grid, vn, hat = self._load_parts(dim)
        support = lb.harmonic_ramp_forcing(grid, vn, wavevector=(1,) * dim).support
        for index in nyquist:
            hat[index] = value
        load = lb.fsi.HarmonicLoad(grid, 0, hat, 0.1)
        assert not any(load.hat[index].any() for index in nyquist)
        assert np.array_equal(load.support, support)
        params = make_params(dim=dim, n=16, m=8, forcing=load)
        data = lb.run_fsi(params, 0.02, snapshot_stride=5)
        called = lb.run_fsi(replace(params, forcing=plain(load)), 0.02, snapshot_stride=5)
        for traj in (data, called):
            check(params, traj)
            assert traj.ledger.work[-1] > 0
        _assert_fields_close(data, called, 1e-12)

    def test_smooth_ramp_takes_arrays(self):
        t = np.array([-0.1, 0.0, 0.03, 0.1, 0.25])
        assert np.array_equal(lb.fsi.smooth_ramp(t, 0.1),
                              [lb.fsi.smooth_ramp(float(x), 0.1) for x in t])
        assert np.isnan(lb.fsi.smooth_ramp(np.nan, 0.1))

    @staticmethod
    def _pair(params, t_end, stride, rtol=1e-12):
        """The runs of params under their load and under its plain callable."""
        callable_load = plain(params[0].forcing)
        modal = lb.fsi.run_batch(params, t_end, stride)
        sampled = lb.fsi.run_batch([replace(p, forcing=callable_load) for p in params],
                                   t_end, stride)
        for a, b in zip(modal, sampled):
            _assert_fields_close(a, b, rtol)
            for traj in (a, b):
                assert np.max(np.abs(traj.ledger.work)) > 0
                assert np.max(traj.ledger.identity_residual_rel()) <= 1e-12
        return modal, sampled

    def test_ladder_setting(self, monkeypatch):
        # the bench ladder's physics, mesh and step, across several blocks
        cfg = lb.verify.RateStudyConfig(kappa=Fraction(2), n=16, m=20, dt=5e-4, t_end=0.25,
                                        snapshot_stride=20, rho_f=40.0, rho_s=40.0,
                                        theta=20.0, amplitude=2.3)
        grid, vnodes, forcing = cfg.setting()
        params = [lb.FsiParams(model=cfg.model_for(eps), grid=grid, vnodes=vnodes, dt=cfg.dt,
                               forcing=forcing) for eps in cfg.eps_list]
        batches = []
        init = lb.fsi._Batch.__init__

        def spy(batch, params):
            init(batch, params)
            batches.append(batch)

        monkeypatch.setattr(lb.fsi._Batch, "__init__", spy)
        self._pair(params, cfg.t_end, cfg.snapshot_stride)
        # the load steps its one mode, the callable all 9 of the grid
        assert [b.K for b in batches] == [1, 9]

    @pytest.mark.parametrize("wavevector, component, n_support", [
        ((1, 2), 1, 1),    # k2 > 0: one stored mode, loaded along and across xi
        ((3, 0), 0, 2),    # k2 = 0: k and -k both stored
        ((2, 1), 2, 1),    # the vertical component
    ])
    def test_two_dimensional_loads(self, wavevector, component, n_support):
        # 2D fields hold 1e-11 of their run's largest value: the step
        # operator's condition number reaches 2e7 here, and a one-ulp change
        # of the amplitude alone moves the (3, 0) fields by up to 2.4e-12 of
        # that scale within either path (measured at eps = 2^-6)
        grid, vn = lb.PeriodicGrid(dim=2, n=16), lb.VerticalNodes(12)
        load = lb.harmonic_ramp_forcing(grid, vn, wavevector=wavevector, component=component,
                                        ramp_time=0.02)
        assert len(load.support) == n_support
        params = [lb.FsiParams(model=lb.ModelParams(eps=eps, kappa=Fraction(2), theta=1.0,
                                                    dim=2),
                               grid=grid, vnodes=vn, dt=2e-3, forcing=load)
                  for eps in (2.0**-3, 2.0**-6)]
        self._pair(params, 0.06, 7, rtol=1e-11)

    def test_vertical_load(self):
        params = make_params(n=16, m=16, dt=1e-3,
                             forcing=lb.harmonic_ramp_forcing(
                                 lb.PeriodicGrid(dim=1, n=16), lb.VerticalNodes(16),
                                 wavevector=(2,), component=1, ramp_time=0.05))
        self._pair([params, replace(params, model=replace(params.model, eps=2.0**-5))],
                   0.08, 9)

    def test_empty_support_runs(self):
        # amplitude 0, or a zero wavevector, loads no mode: the run steps
        # none and its ledger is zero
        for kw in ({"amplitude": 0.0}, {"wavevector": (0,)}):
            params = make_params(n=16, m=12, forcing=lb.harmonic_ramp_forcing(
                lb.PeriodicGrid(dim=1, n=16), lb.VerticalNodes(12), **kw))
            assert params.forcing.support.size == 0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                traj = lb.run_fsi(params, 0.01, snapshot_stride=5)
            assert len(traj.times) == 3
            for f in fields(traj.ledger)[1:]:
                assert not np.any(getattr(traj.ledger, f.name)), f.name
            assert not np.any(traj.p) and not np.any(traj.eta)


class TestForcingTransforms:
    @staticmethod
    def _count_transforms(monkeypatch, params, nsteps, stride=None):
        calls = []
        rfft = lb.PeriodicGrid.rfft

        def counting(grid, values):
            calls.append(1)
            return rfft(grid, values)

        monkeypatch.setattr(lb.PeriodicGrid, "rfft", counting)
        traj = lb.run_fsi(params, nsteps * params.dt, snapshot_stride=stride or nsteps)
        return len(calls), traj

    def test_only_loaded_component_transformed(self, monkeypatch):
        # a plain callable is transformed once per block, and snapshot
        # pressures reuse the block's coefficients; the load it calls is
        # held as coefficients and makes no transform
        params = make_params(dim=2, n=8, m=10, dt=1e-3)
        solver = FsiSolver(params)
        block = _steps_per_block(16 * solver.P * solver.K * solver.mi)
        assert 1 < block < 10
        for stride in (10, 1):
            count, traj = self._count_transforms(
                monkeypatch, replace(params, forcing=plain(params.forcing)), 10, stride)
            assert count == -(-10 // block)
            assert traj.ledger.work[-1] > 0
            count, traj = self._count_transforms(monkeypatch, params, 10, stride)
            assert count == 0
            assert traj.ledger.work[-1] > 0

    def test_zero_forcing_makes_no_transform(self, monkeypatch):
        grid = lb.PeriodicGrid(dim=2, n=8)
        vn = lb.VerticalNodes(10)
        params = make_params(dim=2, n=8, m=10, dt=1e-3, forcing=unloaded_forcing(grid, vn))
        count, traj = self._count_transforms(monkeypatch, params, 10)
        assert count == 0
        assert all(w == 0.0 for w in traj.ledger.work)
