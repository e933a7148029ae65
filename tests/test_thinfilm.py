import dataclasses

import numpy as np
import pytest

from lubelastic import cli
from lubelastic import thinfilm as tf
from lubelastic.errors import GridMismatchError, ParameterError, PositivityError
from lubelastic.spectral import (PeriodicGrid, dealiased_product, derivative_symbol,
                                 spectral_derivative)

from oracles import (
    masked_phi1,
    masked_phi2,
    nodal_film_energy,
    nodal_film_step,
    reynolds_fixed_point,
    rfftn_rfft,
    snapshot_solve_linear_sixth,
    spectral_film_energy,
    spectral_film_step,
)


@pytest.fixture
def grid():
    return PeriodicGrid(dim=1, n=64)


def one_plus_sin(grid, amp=0.3, k=1):
    x = grid.nodes[0]
    return 1.0 + amp * np.sin(2 * np.pi * k * x)


def film_rhs(model, grid, eta):
    """The model's spatial right-hand side at the nodal height eta, nodal."""
    op = tf._FilmOperator(model, grid)
    return grid.irfft(op.rhs(eta, grid.rfft(eta)))


def film_energy(model, state):
    return tf._FilmOperator(model, state.grid).energy(state.hat)


def snapshots(model, state, dt, steps=1):
    """The snapshots of steps steps of `evolve`, one array per field."""
    return tf.evolve(model, state, dt, steps).snapshots


class TestModelValidation:
    def test_alpha_restricted(self):
        with pytest.raises(ParameterError):
            tf.ThinFilmModel(alpha=2)

    def test_linearized_forbids_potential(self):
        with pytest.raises(ParameterError):
            tf.ThinFilmModel(alpha=5, linearized=True,
                              potential=tf.PowerPotential("power", 1.0, 1.0))


    def test_leading_coefficient_may_vanish(self, grid):
        with pytest.raises(ParameterError, match=r"c must lie in \[0, inf\)"):
            tf.ThinFilmModel(alpha=5, c=-1e-12, linearized=True)
        # with c = 0 and no drift the linearized right-hand side vanishes
        model = tf.ThinFilmModel(alpha=5, c=0.0, linearized=True)
        state = tf.FilmState(grid, one_plus_sin(grid), 0.0)
        run = tf.evolve(model, state, 1e-3, 5)
        assert np.array_equal(run.snapshots.hat[-1], state.hat)
        assert np.max(np.abs(run.snapshots.eta[-1] - state.eta)) <= 1e-15


class TestFilmState:
    def test_a_frozen_record_of_plain_arrays(self, grid):
        eta = one_plus_sin(grid)
        state = tf.FilmState(grid, eta, 0.5)
        assert state.grid is grid and state.eta is eta and state.t == 0.5
        assert np.array_equal(state.hat, grid.rfft(eta))
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.t = 1.0
        # equality is identity, so no array is ever compared
        assert state == state and state != tf.FilmState(grid, eta.copy(), 0.5)

    def test_values_become_floats_and_given_coefficients_are_kept(self, grid):
        hat = np.zeros(grid.spectral_shape, dtype=complex)
        state = tf.FilmState(grid, [1] * grid.n, hat=hat)
        assert state.eta.dtype == float and np.array_equal(state.eta, np.ones(grid.shape))
        assert state.hat is hat and state.t == 0.0


class TestRhs:
    def test_constant_profile_is_stationary(self, grid):
        model = tf.ThinFilmModel(alpha=3, v_D=2.0)
        eta = np.full(grid.shape, 1.5)
        assert np.max(np.abs(film_rhs(model, grid, eta))) < 1e-12

    def test_linearized_symbol(self):
        grid = PeriodicGrid(dim=1, n=16)
        model = tf.ThinFilmModel(alpha=5, c=2.0, linearized=True)
        eta = np.cos(2 * np.pi * grid.meshes[0])
        r = film_rhs(model, grid, eta)
        ref = -2.0 * (2 * np.pi) ** 6 * np.cos(2 * np.pi * grid.nodes[0])
        assert np.max(np.abs(r - ref)) < 1e-9 * np.max(np.abs(ref))

    def test_porous_medium_form(self, grid):
        # with mobility scale 4 the alpha=1 member is exactly d2/dx2(eta^4)
        model = tf.ThinFilmModel(alpha=1, mobility_scale=4.0)
        eta = one_plus_sin(grid, amp=0.1)
        r = film_rhs(model, grid, eta)
        eta4 = dealiased_product(grid, eta, eta, eta, eta)
        oracle = spectral_derivative(grid, eta4, 2)
        assert np.max(np.abs(r - oracle)) < 1e-10

    def test_rhs_zero_mean(self, grid):
        model = tf.ThinFilmModel(alpha=5, v_D=1.0,
                                 potential=tf.PowerPotential("power", 0.3, 2.0))
        r = film_rhs(model, grid, one_plus_sin(grid))
        assert abs(r.mean()) < 1e-13

    def test_positivity_guard(self, grid):
        model = tf.ThinFilmModel(alpha=3)
        eta = np.sin(2 * np.pi * grid.meshes[0])
        with pytest.raises(PositivityError):
            tf.evolve(model, tf.FilmState(grid, eta), 1e-6, 1)


class TestStep:
    @pytest.mark.parametrize("dt", [1e-3, 5e-4])
    def test_one_step_close_to_exact_factor(self, dt):
        grid = PeriodicGrid(dim=1, n=32)
        c = 1e-5
        model = tf.ThinFilmModel(alpha=5, c=c, linearized=True)
        eta0 = np.cos(2 * np.pi * grid.meshes[0])
        new = snapshots(model, tf.FilmState(grid, eta0, 0.0), dt)
        factor = np.exp(-c * (2 * np.pi) ** 6 * dt)
        err = np.max(np.abs(new.eta[-1] - factor * eta0))
        assert err <= 10 * dt**2

    def test_zero_state_stays_zero(self, grid):
        model = tf.ThinFilmModel(alpha=5, c=1.0, linearized=True)
        state = tf.FilmState(grid, np.zeros(grid.shape), 0.0)
        new = snapshots(model, state, 1e-3, 5)
        assert np.max(np.abs(new.eta[-1])) == 0.0

    def test_mass_conserved_per_step(self, grid):
        model = tf.ThinFilmModel(alpha=5, v_D=1.0)
        state = tf.FilmState(grid, one_plus_sin(grid), 0.0)
        m0 = state.eta.mean()
        new = snapshots(model, state, 1e-7)
        assert abs(new.eta[-1].mean() - m0) <= 1e-12 * (1 + abs(m0))

    def test_breakdown_reports_last_state(self, grid):
        model = tf.ThinFilmModel(alpha=5)
        state = tf.FilmState(grid, one_plus_sin(grid), 0.0)
        # a floor above the profile minimum can never be honored
        with pytest.raises(PositivityError) as ei:
            tf.evolve(model, state, 1e-6, 1, floor=0.9)
        assert ei.value.last_state is not None
        assert ei.value.last_state.eta.min() >= 0.5

    def test_dt_must_be_positive(self, grid):
        model = tf.ThinFilmModel(alpha=1)
        with pytest.raises(ParameterError):
            tf.evolve(model, tf.FilmState(grid, one_plus_sin(grid), 0.0), 0.0, 1)

    @pytest.mark.parametrize("steps, stride", [(0, 1), (3, 0)])
    def test_run_counts_must_be_positive(self, grid, steps, stride):
        model = tf.ThinFilmModel(alpha=1)
        with pytest.raises(ParameterError):
            tf.evolve(model, tf.FilmState(grid, one_plus_sin(grid), 0.0), 1e-5, steps,
                      snapshot_stride=stride)

    def test_last_step_is_a_snapshot_off_the_stride(self, grid):
        model = tf.ThinFilmModel(alpha=5, c=1e-5, linearized=True)
        state = tf.FilmState(grid, one_plus_sin(grid), 0.0)
        dt = 1e-3
        run = tf.evolve(model, state, dt, 10, snapshot_stride=3)
        every = tf.evolve(model, state, dt, 10)
        assert np.array_equal(run.snapshots.times, run.t[[0, 3, 6, 9, 10]])
        np.testing.assert_allclose(run.snapshots.times, dt * np.array([0, 3, 6, 9, 10]),
                                   rtol=1e-14)
        got, want = run.snapshots, every.snapshots
        assert got.times[-1] == want.times[-1]
        assert np.array_equal(got.eta[-1], want.eta[-1])
        assert np.array_equal(got.hat[-1], want.hat[-1])
        assert got.eta.shape == (5,) + grid.shape
        assert got.hat.shape == (5,) + grid.spectral_shape


    def test_nonpositive_state_reports_its_time(self, grid):
        eta = np.sin(2 * np.pi * grid.meshes[0])
        with pytest.raises(PositivityError) as ei:
            tf.evolve(tf.ThinFilmModel(alpha=3), tf.FilmState(grid, eta, 2.0), 1e-6, 1)
        assert ei.value.last_state.t == 2.0
        assert ei.value.last_state.eta is eta

    def test_zero_height_counts_as_nonpositive(self, grid):
        eta = 1.0 - np.cos(2 * np.pi * grid.meshes[0])  # exactly 0 at x = 0
        with pytest.raises(PositivityError, match="nonpositive film height"):
            tf.evolve(tf.ThinFilmModel(alpha=3), tf.FilmState(grid, eta), 1e-6, 1)

    def test_drift_speed_is_prefactor_times_v_D(self, grid):
        # with c = 0 the linearized right-hand side is the drift alone, and
        # a step is the explicit Euler step of -P v_D d/dx eta
        model = tf.ThinFilmModel(alpha=5, c=0.0, v_D=0.5, drift_prefactor=6.0, linearized=True)
        state = tf.FilmState(grid, one_plus_sin(grid), 0.0)
        new = snapshots(model, state, 1e-3)
        want = state.hat - 1e-3 * 3.0 * derivative_symbol(grid, 1) * state.hat
        np.testing.assert_allclose(new.hat[-1], want, rtol=0, atol=1e-15)


    def test_height_exactly_at_the_floor_is_accepted(self, grid):
        # only a height below the floor halves the step: with the floor set
        # to the smallest height of a first run's step, the same step is
        # taken whole again
        model = tf.ThinFilmModel(alpha=3, v_D=1.0)
        state = tf.FilmState(grid, one_plus_sin(grid, amp=0.6))
        first = tf.evolve(model, state, 1e-4, 1)
        floor = first.snapshots.eta[-1].min()
        assert floor > 0.4 and first.substeps == 1
        again = tf.evolve(model, state, 1e-4, 1, floor=floor)
        assert again.substeps == 1
        assert np.array_equal(again.snapshots.eta, first.snapshots.eta)


def dipping_case():
    # a sixth-order film whose minimum falls from 0.42 towards 0.2 over its
    # first microsecond: under a floor of 0.35 later sub-steps of a step
    # halve again, so a step needs three halvings in all
    grid = PeriodicGrid(dim=1, n=64)
    x = grid.meshes[0]
    eta0 = 1.0 - 0.5 * np.cos(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x)
    return tf.ThinFilmModel(alpha=5), tf.FilmState(grid, eta0), 1e-7


class TestHalvingBudget:
    def test_a_step_may_halve_max_halvings_times(self, monkeypatch):
        model, state, dt = dipping_case()
        monkeypatch.setattr(tf, "MAX_HALVINGS", 3)
        run = tf.evolve(model, state, dt, 40, floor=0.35)
        assert run.substeps > 40 and run.min_eta >= 0.35

    def test_breakdown_mid_step_reports_the_accepted_time(self, monkeypatch):
        model, state, dt = dipping_case()
        monkeypatch.setattr(tf, "MAX_HALVINGS", 2)
        with pytest.raises(PositivityError, match="unreachable") as ei:
            tf.evolve(model, state, dt, 40, floor=0.35)
        # the second step accepted a quarter step, then ran out of halvings
        assert ei.value.last_state.t == pytest.approx(1.25 * dt, rel=1e-12)
        assert ei.value.last_state.eta.min() >= 0.35


def halving_case():
    # a deep trough under a floor close to its minimum forces step halving
    grid = PeriodicGrid(dim=1, n=64)
    eta0 = 1.0 - 0.9 * np.exp(-(((grid.meshes[0] - 0.5) / 0.1) ** 2))
    return tf.ThinFilmModel(alpha=3, v_D=1.0), tf.FilmState(grid, eta0), 1e-4


def oracle_case(label):
    grid = PeriodicGrid(dim=1, n=64)
    if label == "alpha3-potential":
        model = tf.ThinFilmModel(alpha=3, v_D=1.0, potential=tf.PowerPotential("power", 0.3, 2.0))
        return model, tf.FilmState(grid, one_plus_sin(grid)), 1e-6, 200, tf.POSITIVITY_FLOOR
    if label == "linearized-alpha5":
        x = grid.meshes[0]
        eta0 = 0.3 * np.cos(2 * np.pi * x) + 0.1 * np.sin(6 * np.pi * x)
        model = tf.ThinFilmModel(alpha=5, c=1.0, v_D=1.0, linearized=True)
        return model, tf.FilmState(grid, eta0), 1e-7, 200, tf.POSITIVITY_FLOOR
    if label == "halving":
        return (*halving_case(), 3, 0.095)
    cfg = cli.parse_config(cli.preset_config(label))[1]  # a film preset at n = 64
    return cfg.model, tf.FilmState(grid, cfg.eta0.sample(grid)), cfg.dt, 200, tf.POSITIVITY_FLOOR


ORACLE_CASES = ["pm-paper", "tf-surface-tension", "stf-bending", "nonlinear-3.3",
                "alpha3-potential", "linearized-alpha5", "halving"]


class TestFilmStepOracle:
    """The coefficient-carrying step against the nodal step it replaced, and
    the run-level integrator against the per-step spectral-state step it
    replaced (`oracles.spectral_film_step`)."""

    @pytest.mark.parametrize("label", ORACLE_CASES)
    def test_matches_nodal_step(self, label):
        model, state, dt, steps, floor = oracle_case(label)
        run = tf.evolve(model, state, dt, steps, floor=floor)
        snaps = run.snapshots
        grid, eta, t = state.grid, state.eta, 0.0
        for j in range(1, len(snaps.times)):
            eta, t, _ = nodal_film_step(model, grid, eta, t, dt, floor=floor)
            assert snaps.times[j] == t
            scale = np.max(np.abs(eta))
            assert np.max(np.abs(snaps.eta[j] - eta)) <= 1e-12 * scale
            energy = nodal_film_energy(model, grid, eta)
            assert abs(run.energy[j] - energy) <= 1e-12 * abs(energy)
            assert snaps.hat[j][0] == state.hat[0]

    @pytest.mark.parametrize("label", ORACLE_CASES)
    def test_integrator_bitwise_equal_to_spectral_step(self, label):
        model, state, dt, _, floor = oracle_case(label)
        steps = 200
        run = tf.evolve(model, state, dt, steps, floor=floor)
        snaps = run.snapshots
        assert len(snaps.times) == len(snaps.eta) == len(snaps.hat) == steps + 1
        assert (run.substeps > steps) == (label == "halving")
        state = tf.FilmState(state.grid, state.eta, 0.0, rfftn_rfft(state.grid, state.eta))
        times, energies, accepted = [0.0], [spectral_film_energy(model, state)], 0
        for j in range(1, steps + 1):
            state, n = spectral_film_step(model, state, dt, floor=floor)
            accepted += n
            assert snaps.times[j] == state.t
            assert np.array_equal(snaps.eta[j], state.eta)
            assert np.array_equal(snaps.hat[j], state.hat)
            times.append(state.t)
            energies.append(spectral_film_energy(model, state))
        assert np.array_equal(run.t, times)
        assert np.array_equal(run.energy, energies)
        assert run.substeps == accepted
        assert run.min_eta == snaps.eta.min()

    def test_halving_reaches_the_horizon(self):
        model, state, dt = halving_case()
        run = tf.evolve(model, state, dt, 3, floor=0.095)
        last = run.snapshots.eta[-1]
        eta, t, tried = state.eta, 0.0, 0
        for _ in range(3):
            eta, t, n = nodal_film_step(model, state.grid, eta, t, dt, floor=0.095)
            tried += n
        assert tried == 25  # 3 requested steps, each halved at least once
        assert run.snapshots.times[-1] == pytest.approx(3e-4, rel=1e-12)
        assert last.min() >= 0.095
        assert np.max(np.abs(last - eta)) <= 1e-12
        assert run.substeps > 3


FFT_NAMES = ["fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"]


class TestFilmTransforms:
    """Transforms per accepted sub-step: each distinct factor is padded once."""

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        for name in FFT_NAMES:
            def counted(*args, _fn=getattr(np.fft, name), **kwargs):
                calls.append(1)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        return calls

    @pytest.mark.parametrize("potential, per_step",
                             [(None, 3), pytest.param(tf.PowerPotential("power", 0.3, 2.0), 4,
                                                      id="power-4")])
    def test_transforms_per_step(self, grid, monkeypatch, potential, per_step):
        model = tf.ThinFilmModel(alpha=3, v_D=1.0, potential=potential)
        state = tf.FilmState(grid, one_plus_sin(grid), 0.0)
        calls = self._counting(monkeypatch)
        run = tf.evolve(model, state, 1e-6, 10)
        assert run.substeps == 10
        assert len(calls) == 10 * per_step
        del calls[:]
        last = tf.FilmState(grid, run.snapshots.eta[-1], hat=run.snapshots.hat[-1])
        assert run.energy[-1] == film_energy(model, last)
        assert len(calls) == 0


MASS_CONFIGS = [
    dict(alpha=1, v_D=0.0, potential=None, dt=1e-5),
    dict(alpha=3, v_D=1.0, potential=None, dt=1e-6),
    dict(alpha=5, v_D=1.0, potential=tf.PowerPotential("power", 0.2, 1.0), dt=1e-7),
]


class TestInvariants:
    @pytest.mark.parametrize("cfg", MASS_CONFIGS)
    def test_mass_conservation_along_run(self, grid, cfg):
        model = tf.ThinFilmModel(alpha=cfg["alpha"], v_D=cfg["v_D"],
                                 potential=cfg["potential"])
        state = tf.FilmState(grid, one_plus_sin(grid), 0.0)
        m0 = state.eta.mean()
        new = snapshots(model, state, cfg["dt"], 300)
        assert abs(new.eta[-1].mean() - m0) <= 1e-10 * (1 + abs(m0))

    def test_dissipation_bending_regime(self, grid):
        model = tf.ThinFilmModel(alpha=5)
        run = tf.evolve(model, tf.FilmState(grid, one_plus_sin(grid), 0.0), 1e-7, 200)
        energy = run.energy
        assert np.all(energy[1:] <= energy[:-1] + 1e-10 * (1 + np.abs(energy[:-1])))
        assert run.min_eta >= 0.1

    def test_linearized_decay_rate_matches_symbol(self):
        # window chosen so the mode stays far above the transform noise floor
        grid = PeriodicGrid(dim=1, n=32)
        c = 1e-6
        k = 2
        eta0 = np.cos(2 * np.pi * k * grid.meshes[0])
        traj = tf.solve_linear_sixth(c, None, grid, eta0, 0.5, 1e-3, snapshot_stride=100)
        amps = [abs(grid.rfft(e)[k]) for e in traj.eta]
        times = traj.times
        rate = -np.log(amps[-1] / amps[0]) / (times[-1] - times[0])
        assert rate == pytest.approx(c * (2 * np.pi * k) ** 6, rel=1e-8)


class TestSolveLinearSixth:
    def test_single_mode_decay(self):
        grid = PeriodicGrid(dim=1, n=32)
        c = 1.0 / 3600.0
        lam = c * (2 * np.pi) ** 6
        eta0 = np.cos(2 * np.pi * grid.meshes[0])
        traj = tf.solve_linear_sixth(c, None, grid, eta0, 0.5, 1e-3, snapshot_stride=500)
        ref = np.exp(-lam * 0.5) * eta0
        got = traj.eta[-1]
        assert np.max(np.abs(got - ref)) < 1e-8 * np.max(np.abs(ref))

    def test_steady_limit_under_constant_source(self):
        grid = PeriodicGrid(dim=1, n=32)
        c = 1.0 / 3600.0
        lam = c * (2 * np.pi) ** 6
        hat = grid.rfft(np.cos(2 * np.pi * grid.meshes[0]))
        source = lambda times: np.broadcast_to(hat, (len(times),) + hat.shape)
        traj = tf.solve_linear_sixth(c, source, grid, np.zeros(grid.shape), 1.0,
                                     1e-3, snapshot_stride=100)
        for t, eta in zip(traj.times[1:], traj.eta[1:]):
            # scalar benchmark: y' = -lam y + 1, y(t) = (1 - exp(-lam t))/lam
            ref = (1.0 - np.exp(-lam * t)) / lam
            got = grid.rfft(eta)[1] * 2.0  # cosine amplitude
            assert got.real == pytest.approx(ref, rel=1e-10)

    def test_linear_in_time_source_is_exact(self):
        # the exponential trapezoidal rule is exact for a source linear in
        # time; one call samples it at every step endpoint
        grid = PeriodicGrid(dim=1, n=32)
        c = 1.0 / 3600.0
        lam = c * (2 * np.pi) ** 6
        a, b = 1.0, -3.0
        hat = grid.rfft(np.cos(2 * np.pi * grid.meshes[0]))
        calls = []

        def source(times):
            calls.append(len(times))
            return (a + b * np.asarray(times))[:, None] * hat

        traj = tf.solve_linear_sixth(c, source, grid, np.zeros(grid.shape), 1.0,
                                     1e-3, snapshot_stride=7)
        assert calls == [1001]
        for t, eta in zip(traj.times[1:], traj.eta[1:]):
            ref = (a / lam - b / lam**2) * (1.0 - np.exp(-lam * t)) + b * t / lam
            assert (grid.rfft(eta)[1] * 2.0).real == pytest.approx(ref, rel=1e-11)

    def test_zero_data_zero_source(self):
        grid = PeriodicGrid(dim=1, n=32)
        traj = tf.solve_linear_sixth(0.5, None, grid, np.zeros(grid.shape), 0.1, 1e-3)
        assert np.max(np.abs(traj.eta)) == 0.0

    def test_every_step_is_kept_by_default(self):
        grid = PeriodicGrid(dim=1, n=8)
        eta0 = np.cos(2 * np.pi * grid.meshes[0])
        traj = tf.solve_linear_sixth(1e-3, None, grid, eta0, 0.01, 1e-3)
        assert np.array_equal(traj.times, 1e-3 * np.arange(11))
        assert traj.eta.shape == (11,) + grid.shape and traj.hat.shape == (11, 5)
        assert np.array_equal(traj.eta[0], eta0)

    def test_rejects_zero_snapshot_stride(self):
        grid = PeriodicGrid(dim=1, n=32)
        with pytest.raises(ParameterError, match="snapshot_stride"):
            tf.solve_linear_sixth(0.5, None, grid, np.zeros(grid.shape), 0.1, 1e-3,
                                  snapshot_stride=0)

    def test_zero_mean_preserved(self):
        grid = PeriodicGrid(dim=1, n=32)
        hat = grid.rfft(np.sin(4 * np.pi * grid.meshes[0]))
        source = lambda times: np.broadcast_to(hat, (len(times),) + hat.shape)
        traj = tf.solve_linear_sixth(1e-4, source, grid, np.zeros(grid.shape), 0.2,
                                     1e-3, snapshot_stride=20)
        for eta in traj.eta:
            assert abs(eta.mean()) < 1e-15

    def test_rejects_zero_coefficient(self):
        grid = PeriodicGrid(dim=1, n=8)
        with pytest.raises(ParameterError, match=r"c must lie in \(0, inf\)"):
            tf.solve_linear_sixth(0.0, None, grid, np.zeros(grid.shape), 0.1, 1e-3)

    def test_phi_functions_equal_the_masked_ones(self):
        # both branches and the thresholds between them, bitwise
        z = np.concatenate([-np.logspace(-12, 3, 200), [0.0, -1e-8, 1e-8, -1e-6, 1e-6],
                            np.logspace(-12, 1, 50)])
        assert np.array_equal(tf._phi1(z), masked_phi1(z))
        assert np.array_equal(tf._phi2(z), masked_phi2(z))

    def test_small_argument_branches_match_taylor(self):
        z = np.array([-1e-9, 1e-9])
        np.testing.assert_allclose(tf._phi1(z), 1.0 + z / 2 + z**2 / 6, rtol=1e-14)
        z = np.array([-1e-8, 1e-8])
        np.testing.assert_allclose(tf._phi2(z), 0.5 + z / 6 + z**2 / 24, rtol=1e-14)

    def test_time_grid_validation(self):
        grid = PeriodicGrid(dim=1, n=32)
        with pytest.raises(ParameterError):
            tf.solve_linear_sixth(1.0, None, grid, np.zeros(grid.shape), 1.0, 0.3)

    @pytest.mark.parametrize("t_end, dt", [
        (0.1, 0.0), (0.1, -0.0), (0.1, np.nan), (np.nan, 1e-3), (np.inf, 1e-3),
        (1e300, 1e-300),  # finite, but the step count is not
        (0.0, 1e-3), (0.1, np.inf),
    ])
    def test_bad_horizon_or_step_rejected(self, t_end, dt):
        grid = PeriodicGrid(dim=1, n=8)
        with pytest.raises(ParameterError, match="positive and finite"):
            tf.solve_linear_sixth(1.0, None, grid, np.zeros(grid.shape), t_end, dt)

    def test_source_stack_of_another_shape_rejected(self):
        # a source that leaves out the time axis used to fail with a bare
        # broadcasting ValueError
        grid = PeriodicGrid(dim=1, n=8)
        hat = grid.rfft(np.sin(2 * np.pi * grid.meshes[0]))
        for source in (lambda times: hat, lambda times: np.zeros((len(times) - 1,) + hat.shape)):
            with pytest.raises(ParameterError, match="the source gives shape"):
                tf.solve_linear_sixth(1.0, source, grid, np.zeros(grid.shape), 0.1, 1e-2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_source_that_is_not_finite_rejected(self, bad):
        # the first bad time is named; the run used to return NaN snapshots
        grid = PeriodicGrid(dim=1, n=8)

        def source(times):
            out = np.zeros((len(times),) + grid.spectral_shape, dtype=complex)
            out[times >= 0.045, 1] = bad
            return out

        with pytest.raises(ParameterError, match=r"not finite at t = 0\.05$"):
            tf.solve_linear_sixth(1.0, source, grid, np.zeros(grid.shape), 0.1, 1e-2)


class TestSnapshotArrays:
    """The trajectory's arrays against the per-snapshot solve they replaced
    (`oracles.snapshot_solve_linear_sixth`), and what a run builds."""

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_arrays_equal_the_per_snapshot_solve(self, dim, forced, stride):
        grid = PeriodicGrid(dim=dim, n=16)
        rng = np.random.default_rng(5 + dim)
        eta0 = rng.standard_normal(grid.shape)
        source = None
        if forced:
            shape = grid.spectral_shape
            rate = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            rate[(0,) * dim] = 0.0
            source = lambda times: np.sin(7.0 * np.asarray(times))[(...,) + (None,) * dim] * rate
        traj = tf.solve_linear_sixth(1e-5, source, grid, eta0, 0.05, 1e-3, snapshot_stride=stride)
        want = snapshot_solve_linear_sixth(1e-5, source, grid, eta0, 0.05, 1e-3,
                                           snapshot_stride=stride)
        assert traj.grid is grid
        assert np.array_equal(traj.times, [s.t for s in want])
        assert np.array_equal(traj.eta, np.array([s.eta for s in want]))
        assert np.array_equal(traj.hat, np.array([s.hat for s in want]))
        assert traj.eta.shape == (len(want),) + grid.shape

    def test_runs_build_no_state_and_one_inverse_transform(self, grid, monkeypatch):
        # the initial state is the only FilmState, made by the caller; the
        # linear solve transforms every snapshot after its first in one call
        state = tf.FilmState(grid, one_plus_sin(grid), 0.0)
        built, inverse = [], []
        post_init = tf.FilmState.__post_init__
        monkeypatch.setattr(tf.FilmState, "__post_init__",
                            lambda s: (built.append(s), post_init(s)))
        irfft = PeriodicGrid.irfft
        monkeypatch.setattr(PeriodicGrid, "irfft",
                            lambda g, coeffs: (inverse.append(coeffs.shape), irfft(g, coeffs))[1])
        run = tf.evolve(tf.ThinFilmModel(alpha=3, v_D=1.0), state, 1e-6, 10, snapshot_stride=3)
        assert len(run.snapshots.times) == 5
        assert built == []
        del inverse[:]
        source = lambda times: np.zeros((len(times),) + grid.spectral_shape, dtype=complex)
        traj = tf.solve_linear_sixth(1e-4, source, grid, state.eta, 0.1, 1e-3, snapshot_stride=10)
        assert len(traj.times) == 11
        assert built == []
        assert inverse == [(grid.spectral_shape[0], 10)]


class TestStationaryPressure:
    def test_flat_profile_no_pressure(self, grid):
        eta = np.full(grid.shape, 2.0)
        p = tf.solve_reynolds_stationary(grid, eta, 1.0)
        assert np.max(np.abs(p)) < 1e-12

    def test_linear_in_drift_speed(self, grid):
        eta = one_plus_sin(grid, amp=0.5)
        p1 = tf.solve_reynolds_stationary(grid, eta, 1.0)
        p2 = tf.solve_reynolds_stationary(grid, eta, 2.0)
        assert np.max(np.abs(p2 - 2.0 * p1)) <= 1e-12 * np.max(np.abs(p2))

    def test_residual_small(self, grid):
        eta = one_plus_sin(grid, amp=0.5)
        p = tf.solve_reynolds_stationary(grid, eta, 1.0)
        assert tf.reynolds_residual(grid, eta, p, 1.0) < 1e-8
        assert abs(p.mean()) < 1e-13

    def test_against_fixed_point_oracle(self):
        grid = PeriodicGrid(dim=1, n=128)
        eta = one_plus_sin(grid, amp=0.5)
        p = tf.solve_reynolds_stationary(grid, eta, 1.0)
        fine = 1024
        x = np.arange(fine) / fine
        oracle = reynolds_fixed_point(1.0 + 0.5 * np.sin(2 * np.pi * x), 1.0)
        sub = oracle[:: fine // grid.n]
        rel = np.sqrt(np.mean((p - sub) ** 2) / np.mean(sub**2))
        assert rel < 1e-8

    def test_residual_of_no_pressure_is_the_drive(self, grid):
        # with p = 0 the flux term vanishes, and the residual is the L2 norm
        # of 6 nu v_D d/dx eta: 6 nu v_D 2 pi a / sqrt(2) for a sine of amplitude a
        eta = one_plus_sin(grid, amp=0.5)
        residual = tf.reynolds_residual(grid, eta, np.zeros(grid.shape), 1.5, nu=0.4)
        assert residual == pytest.approx(6 * 0.4 * 1.5 * 2 * np.pi * 0.5 / np.sqrt(2), rel=1e-12)

    def test_two_dimensional_grid_rejected(self):
        grid = PeriodicGrid(dim=2, n=8)
        with pytest.raises(ParameterError, match="one-dimensional"):
            tf.solve_reynolds_stationary(grid, np.ones(grid.shape), 1.0)
        with pytest.raises(ParameterError, match="one-dimensional"):
            tf.reynolds_residual(grid, np.ones(grid.shape), np.zeros(grid.shape), 1.0)

    def test_rejects_nonpositive_profile(self, grid):
        eta = np.sin(2 * np.pi * grid.meshes[0])
        with pytest.raises(ParameterError):
            tf.solve_reynolds_stationary(grid, eta, 1.0)

    def test_rejects_zero_viscosity_and_a_touching_profile(self, grid):
        with pytest.raises(ParameterError, match=r"nu must lie in \(0, inf\)"):
            tf.solve_reynolds_stationary(grid, one_plus_sin(grid), 1.0, nu=0.0)
        touching = 1.0 - np.cos(2 * np.pi * grid.meshes[0])  # 0 at x = 0
        with pytest.raises(ParameterError, match="strictly positive"):
            tf.solve_reynolds_stationary(grid, touching, 1.0)

    def test_scales_with_viscosity_times_drift_speed(self, grid):
        eta = one_plus_sin(grid, amp=0.5)
        p = tf.solve_reynolds_stationary(grid, eta, 1.5, nu=0.4)
        unit = tf.solve_reynolds_stationary(grid, eta, 1.0)
        assert np.max(np.abs(p - 0.6 * unit)) <= 1e-12 * np.max(np.abs(p))
        assert tf.reynolds_residual(grid, eta, p, 1.5, nu=0.4) < 1e-8


class TestFilmEnergy:
    def test_zero_field(self, grid):
        state = tf.FilmState(grid, np.zeros(grid.shape))
        assert film_energy(tf.ThinFilmModel(alpha=5), state) == 0.0

    def test_bending_energy_of_cosine(self, grid):
        model = tf.ThinFilmModel(alpha=5)
        eta = np.cos(2 * np.pi * grid.meshes[0])
        assert film_energy(model, tf.FilmState(grid, eta)) == pytest.approx((2 * np.pi) ** 4 / 4,
                                                                          rel=1e-12)

    def test_translation_invariance(self, grid):
        model = tf.ThinFilmModel(alpha=3)
        x = grid.nodes[0]
        e1 = film_energy(model, tf.FilmState(grid, np.sin(2 * np.pi * x)))
        e2 = film_energy(model, tf.FilmState(grid, np.sin(2 * np.pi * (x - 0.3))))
        assert e1 == pytest.approx(e2, rel=1e-12)


# every boundary that takes nodal values applies `PeriodicGrid.check`
SHAPE_SITES = {
    "FilmState": lambda grid, bad: tf.FilmState(grid, bad),
    "solve_linear_sixth": lambda grid, bad: tf.solve_linear_sixth(1.0, None, grid, bad, 0.1, 1e-2),
    "solve_reynolds_stationary": lambda grid, bad: tf.solve_reynolds_stationary(grid, 1.0 + bad,
                                                                                1.0),
    "reynolds_residual.eta": lambda grid, bad: tf.reynolds_residual(grid, 1.0 + bad,
                                                                    np.zeros(grid.shape), 1.0),
    "reynolds_residual.p": lambda grid, bad: tf.reynolds_residual(grid, np.ones(grid.shape), bad,
                                                                  1.0),
    "spectral_derivative": lambda grid, bad: spectral_derivative(grid, bad, 1),
    "dealiased_product": lambda grid, bad: dealiased_product(grid, np.ones(grid.shape), bad),
}


@pytest.mark.parametrize("shape", [(32,), (65,), (64, 1), ()], ids=["short", "long", "2d", "0d"])
@pytest.mark.parametrize("site", SHAPE_SITES)
def test_values_of_another_shape_rejected(grid, site, shape):
    with pytest.raises(GridMismatchError, match=r"does not match grid shape \(64,\)"):
        SHAPE_SITES[site](grid, np.zeros(shape))
