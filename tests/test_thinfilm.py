import dataclasses

import numpy as np
import pytest

from lubelastic import cli
from lubelastic import thinfilm as tf
from lubelastic.errors import GridMismatchError, ParameterError, PositivityError
from lubelastic.spectral import (PeriodicGrid, dealiased_product, derivative_symbol,
                                 spectral_derivative)

from oracles import (
    SteppedFilmOperator,
    masked_phi1,
    masked_phi2,
    nodal_film_energy,
    nodal_film_step,
    reynolds_fixed_point,
    rfftn_rfft,
    snapshot_solve_linear_sixth,
    spectral_film_energy,
    spectral_film_step,
    stepped_evolve,
)


@pytest.fixture
def grid():
    return PeriodicGrid(dim=1, n=64)


def one_plus_sin(grid, amp=0.3, k=1):
    x = grid.nodes[0]
    return 1.0 + amp * np.sin(2 * np.pi * k * x)


def film_rhs(model, grid, eta):
    """The model's spatial right-hand side at the nodal height eta, nodal, as
    the oracle loop forms it; `evolve` matches that loop at roundoff
    (`TestFilmStepOracle`)."""
    op = SteppedFilmOperator(model, grid)
    return grid.irfft(op.rhs(eta, grid.rfft(eta)))


def film_energy(model, grid, eta):
    """The model's film energy of the nodal height eta."""
    return tf._energy(tf._energy_root(model, grid), grid.rfft(eta))


def snapshots(model, grid, eta0, dt, steps=1):
    """The snapshots of steps steps of `evolve`, one array per field."""
    return tf.evolve(model, grid, eta0, dt, steps).snapshots


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
        eta0 = one_plus_sin(grid)
        run = tf.evolve(model, grid, eta0, 1e-3, 5)
        assert np.array_equal(run.snapshots.hat[-1], run.snapshots.hat[0])
        assert np.array_equal(run.snapshots.hat[0], grid.rfft(eta0))
        assert np.max(np.abs(run.snapshots.eta[-1] - eta0)) <= 1e-15


class TestFilmTrajectory:
    """The one record of a height series; `test_reconstruction.py::
    TestReducedSolution` holds its checks of shapes, times and values."""

    def test_a_frozen_record_of_plain_arrays(self, grid):
        eta = np.array([one_plus_sin(grid), one_plus_sin(grid, k=2)])
        traj = tf.FilmTrajectory(grid, np.array([0.0, 0.5]), eta)
        assert traj.grid is grid and traj.eta is eta
        # the coefficients of every snapshot, computed when omitted
        assert traj.hat.shape == (2,) + grid.spectral_shape
        for e, h in zip(eta, traj.hat):
            np.testing.assert_allclose(h, grid.rfft(e), rtol=0, atol=1e-16)
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.times = np.array([0.0, 1.0])
        # equality is identity, so no array is ever compared
        assert traj == traj and traj != tf.FilmTrajectory(grid, traj.times, eta.copy())

    def test_values_become_floats_and_given_coefficients_are_kept(self, grid):
        hat = np.zeros((1,) + grid.spectral_shape, dtype=complex)
        traj = tf.FilmTrajectory(grid, [0], [[1] * grid.n], hat=hat)
        assert traj.eta.dtype == traj.times.dtype == float
        assert np.array_equal(traj.eta, np.ones((1,) + grid.shape))
        assert traj.hat is hat and np.array_equal(traj.times, [0.0])


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
        # a nonpositive initial height is bad input, not a breakdown
        with pytest.raises(ParameterError, match="must be positive"):
            tf.evolve(model, grid, eta, 1e-6, 1)


class TestStep:
    @pytest.mark.parametrize("dt", [1e-3, 5e-4])
    def test_one_step_close_to_exact_factor(self, dt):
        grid = PeriodicGrid(dim=1, n=32)
        c = 1e-5
        model = tf.ThinFilmModel(alpha=5, c=c, linearized=True)
        eta0 = np.cos(2 * np.pi * grid.meshes[0])
        new = snapshots(model, grid, eta0, dt)
        factor = np.exp(-c * (2 * np.pi) ** 6 * dt)
        err = np.max(np.abs(new.eta[-1] - factor * eta0))
        assert err <= 10 * dt**2

    def test_zero_state_stays_zero(self, grid):
        model = tf.ThinFilmModel(alpha=5, c=1.0, linearized=True)
        new = snapshots(model, grid, np.zeros(grid.shape), 1e-3, 5)
        assert np.max(np.abs(new.eta[-1])) == 0.0

    def test_mass_conserved_per_step(self, grid):
        model = tf.ThinFilmModel(alpha=5, v_D=1.0)
        eta0 = one_plus_sin(grid)
        m0 = eta0.mean()
        new = snapshots(model, grid, eta0, 1e-7)
        assert abs(new.eta[-1].mean() - m0) <= 1e-12 * (1 + abs(m0))

    def test_breakdown_reports_last_state(self, grid, monkeypatch):
        model = tf.ThinFilmModel(alpha=5)
        eta0 = one_plus_sin(grid)
        # a floor above the profile minimum can never be honored
        monkeypatch.setattr(tf, "POSITIVITY_FLOOR", 0.9)
        with pytest.raises(PositivityError) as ei:
            tf.evolve(model, grid, eta0, 1e-6, 1)
        # the initial height, as a one-snapshot trajectory
        last = ei.value.last_state
        assert isinstance(last, tf.FilmTrajectory)
        assert np.array_equal(last.times, [0.0]) and np.array_equal(last.eta, eta0[None])
        assert np.array_equal(last.hat, grid.rfft(eta0)[None])

    def test_dt_must_be_positive(self, grid):
        model = tf.ThinFilmModel(alpha=1)
        with pytest.raises(ParameterError):
            tf.evolve(model, grid, one_plus_sin(grid), 0.0, 1)

    @pytest.mark.parametrize("steps, stride", [(0, 1), (3, 0)])
    def test_run_counts_must_be_positive(self, grid, steps, stride):
        model = tf.ThinFilmModel(alpha=1)
        with pytest.raises(ParameterError):
            tf.evolve(model, grid, one_plus_sin(grid), 1e-5, steps, snapshot_stride=stride)

    def test_last_step_is_a_snapshot_off_the_stride(self, grid):
        model = tf.ThinFilmModel(alpha=5, c=1e-5, linearized=True)
        eta0 = one_plus_sin(grid)
        dt = 1e-3
        run = tf.evolve(model, grid, eta0, dt, 10, snapshot_stride=3)
        every = tf.evolve(model, grid, eta0, dt, 10)
        assert np.array_equal(run.snapshots.times, run.t[[0, 3, 6, 9, 10]])
        np.testing.assert_allclose(run.snapshots.times, dt * np.array([0, 3, 6, 9, 10]),
                                   rtol=1e-14)
        got, want = run.snapshots, every.snapshots
        assert got.times[-1] == want.times[-1]
        assert np.array_equal(got.eta[-1], want.eta[-1])
        assert np.array_equal(got.hat[-1], want.hat[-1])
        assert got.eta.shape == (5,) + grid.shape
        assert got.hat.shape == (5,) + grid.spectral_shape
        # at a stride of 4 too: the kept steps are the multiples of the stride
        fours = tf.evolve(model, grid, eta0, dt, 10, snapshot_stride=4).snapshots
        assert np.array_equal(fours.times, want.times[[0, 4, 8, 10]])
        assert np.array_equal(fours.eta, want.eta[[0, 4, 8, 10]])


    def test_nonpositive_initial_height_names_its_minimum(self, grid):
        eta = np.sin(2 * np.pi * grid.meshes[0])
        with pytest.raises(ParameterError, match=r"must be positive .* min is -1\.000e\+00$"):
            tf.evolve(tf.ThinFilmModel(alpha=3), grid, eta, 1e-6, 1)

    def test_zero_height_counts_as_nonpositive(self, grid):
        eta = 1.0 - np.cos(2 * np.pi * grid.meshes[0])  # exactly 0 at x = 0
        with pytest.raises(ParameterError, match="must be positive under cubic mobility"):
            tf.evolve(tf.ThinFilmModel(alpha=3), grid, eta, 1e-6, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("linearized", [False, True], ids=["cubic", "linearized"])
    def test_initial_height_that_is_not_finite_rejected(self, grid, bad, linearized):
        eta = one_plus_sin(grid)
        eta[5] = bad
        model = tf.ThinFilmModel(alpha=5, linearized=linearized)
        with pytest.raises(ParameterError, match="initial film height contains non-finite"):
            tf.evolve(model, grid, eta, 1e-6, 1)

    @pytest.mark.parametrize("steps", [2, 3])
    def test_height_that_is_not_finite_is_a_breakdown(self, grid, steps):
        # a drift of 1e300 overflows the second step's height; such a run
        # used to return NaN snapshots (2 steps) or raise ParameterError (3
        # steps).  The first step's height is finite, of order 1e296, but its
        # film energy overflows, so that step is halved like one below the
        # floor, and the last valid height, the initial one, is reported
        model = tf.ThinFilmModel(alpha=5, linearized=True, v_D=1e300)
        with pytest.raises(PositivityError, match="finite height .* unreachable after 20") as ei:
            tf.evolve(model, grid, one_plus_sin(grid), 1e-3, steps)
        last = ei.value.last_state
        assert np.array_equal(last.times, [0.0]) and np.all(np.isfinite(last.eta))

    def test_initial_film_energy_that_overflows_to_infinity_is_refused(self, grid):
        # finite heights and coefficients whose energy is +inf, not NaN: with
        # c = 0 and no drift every candidate was the initial height, so the
        # run used to halve to a PositivityError instead of refusing the input
        model = tf.ThinFilmModel(alpha=5, linearized=True, c=0.0)
        eta0 = 1e160 * np.cos(2 * np.pi * grid.meshes[0])
        assert tf._energy(tf._energy_root(model, grid), grid.rfft(eta0)) == np.inf
        with pytest.raises(ParameterError, match="initial film energy is not finite"):
            tf.evolve(model, grid, eta0, 1e-3, 1)

    def test_halved_step_that_is_finite_again_is_accepted(self, grid, monkeypatch):
        # a candidate that overflows only at the full step is halved, and
        # the run goes on from the halves
        model = tf.ThinFilmModel(alpha=5, linearized=True, c=0.0, v_D=1.0)
        eta0 = one_plus_sin(grid)
        halves = tf.evolve(model, grid, eta0, 5e-4, 2)
        irfft, calls = np.fft.irfft, []

        def overflowing_once(*args, **kwargs):
            calls.append(1)
            out = irfft(*args, **kwargs)
            return np.full_like(out, np.inf) if len(calls) == 1 else out

        # a linearized run's only inverse transform is the candidate's
        monkeypatch.setattr(np.fft, "irfft", overflowing_once)
        run = tf.evolve(model, grid, eta0, 1e-3, 1)
        assert run.substeps == 2 and len(calls) == 3
        assert np.array_equal(run.snapshots.eta[-1], halves.snapshots.eta[-1])

    def test_drift_speed_is_prefactor_times_v_D(self, grid):
        # with c = 0 the linearized right-hand side is the drift alone, and
        # a step is the explicit Euler step of -P v_D d/dx eta
        model = tf.ThinFilmModel(alpha=5, c=0.0, v_D=0.5, drift_prefactor=6.0, linearized=True)
        hat = grid.rfft(one_plus_sin(grid))
        new = snapshots(model, grid, one_plus_sin(grid), 1e-3)
        want = hat - 1e-3 * 3.0 * derivative_symbol(grid, 1) * hat
        np.testing.assert_allclose(new.hat[-1], want, rtol=0, atol=1e-15)


    def test_height_exactly_at_the_floor_is_accepted(self, grid, monkeypatch):
        # only a height below the floor halves the step: with the floor set
        # to the smallest height of a first run's step, the same step is
        # taken whole again
        model = tf.ThinFilmModel(alpha=3, v_D=1.0)
        eta0 = one_plus_sin(grid, amp=0.6)
        first = tf.evolve(model, grid, eta0, 1e-4, 1)
        floor = first.snapshots.eta[-1].min()
        assert floor > 0.4 and first.substeps == 1
        monkeypatch.setattr(tf, "POSITIVITY_FLOOR", floor)
        again = tf.evolve(model, grid, eta0, 1e-4, 1)
        assert again.substeps == 1
        assert np.array_equal(again.snapshots.eta, first.snapshots.eta)


def dipping_case():
    # a sixth-order film whose minimum falls from 0.42 towards 0.2 over its
    # first microsecond: under a floor of 0.35 later sub-steps of a step
    # halve again, so a step needs three halvings in all
    grid = PeriodicGrid(dim=1, n=64)
    x = grid.meshes[0]
    eta0 = 1.0 - 0.5 * np.cos(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x)
    return tf.ThinFilmModel(alpha=5), grid, eta0, 1e-7


class TestHalvingBudget:
    def test_a_step_may_halve_max_halvings_times(self, monkeypatch):
        model, grid, eta0, dt = dipping_case()
        monkeypatch.setattr(tf, "MAX_HALVINGS", 3)
        monkeypatch.setattr(tf, "POSITIVITY_FLOOR", 0.35)
        run = tf.evolve(model, grid, eta0, dt, 40)
        assert run.substeps > 40 and run.min_eta >= 0.35

    def test_breakdown_mid_step_reports_the_accepted_time(self, monkeypatch):
        model, grid, eta0, dt = dipping_case()
        monkeypatch.setattr(tf, "MAX_HALVINGS", 2)
        monkeypatch.setattr(tf, "POSITIVITY_FLOOR", 0.35)
        with pytest.raises(PositivityError, match="unreachable") as ei:
            tf.evolve(model, grid, eta0, dt, 40)
        # the second step accepted a quarter step, then ran out of halvings
        assert ei.value.last_state.times[-1] == pytest.approx(1.25 * dt, rel=1e-12)
        assert ei.value.last_state.eta.min() >= 0.35

    def test_a_step_halved_ten_times_runs_to_its_end(self, monkeypatch):
        # ten overflowing candidates leave sub = dt/1024, and the step goes
        # on to its end: the last sub-step starts with dt/1024 remaining
        model = tf.ThinFilmModel(alpha=5, linearized=True, c=0.0, v_D=1.0)
        grid = PeriodicGrid(dim=1, n=64)
        eta0, dt = one_plus_sin(grid), 2.0**-10
        small = tf.evolve(model, grid, eta0, dt / 1024, 1024)
        irfft, calls = np.fft.irfft, []

        def overflowing(*args, **kwargs):
            calls.append(1)
            out = irfft(*args, **kwargs)
            return np.full_like(out, np.inf) if len(calls) <= 10 else out

        monkeypatch.setattr(np.fft, "irfft", overflowing)
        run = tf.evolve(model, grid, eta0, dt, 1)
        assert run.substeps == 1024 and len(calls) == 10 + 1024
        assert run.t[-1] == dt
        assert np.array_equal(run.snapshots.eta[-1], small.snapshots.eta[-1])

    def test_time_rescaled_by_a_power_of_two_is_exact(self, monkeypatch):
        # dt times 2^30, the mobility and the drift over 2^30: every product
        # in a sub-step scales exactly, and so does the step's end tolerance,
        # relative to dt, so the halved run is the same bit for bit, sub-steps
        # included (an absolute tolerance would take the roundoff left of a
        # halved step, about 1e-11 here, as one more sub-step)
        scale = 2.0**30
        model, grid, eta0, dt = halving_case()
        monkeypatch.setattr(tf, "POSITIVITY_FLOOR", 0.095)
        run = tf.evolve(model, grid, eta0, dt, 200)
        slow = dataclasses.replace(model, mobility_scale=model.mobility_scale / scale,
                                   v_D=model.v_D / scale)
        scaled = tf.evolve(slow, grid, eta0, dt * scale, 200)
        assert run.substeps > 200 and scaled.substeps == run.substeps
        assert np.array_equal(scaled.t, run.t * scale)
        assert np.array_equal(scaled.snapshots.eta, run.snapshots.eta)
        assert np.array_equal(scaled.energy, run.energy)


def halving_case():
    # a deep trough under a floor close to its minimum forces step halving
    grid = PeriodicGrid(dim=1, n=64)
    eta0 = 1.0 - 0.9 * np.exp(-(((grid.meshes[0] - 0.5) / 0.1) ** 2))
    return tf.ThinFilmModel(alpha=3, v_D=1.0), grid, eta0, 1e-4


def oracle_case(label):
    grid = PeriodicGrid(dim=1, n=64)
    if label == "alpha3-potential":
        model = tf.ThinFilmModel(alpha=3, v_D=1.0, potential=tf.PowerPotential("power", 0.3, 2.0))
        return model, grid, one_plus_sin(grid), 1e-6, 200, tf.POSITIVITY_FLOOR
    if label == "linearized-alpha5":
        x = grid.meshes[0]
        eta0 = 0.3 * np.cos(2 * np.pi * x) + 0.1 * np.sin(6 * np.pi * x)
        model = tf.ThinFilmModel(alpha=5, c=1.0, v_D=1.0, linearized=True)
        return model, grid, eta0, 1e-7, 200, tf.POSITIVITY_FLOOR
    if label == "halving":
        return (*halving_case(), 3, 0.095)
    cfg = cli.parse_config(cli.preset_config(label))[1]  # a film preset at n = 64
    return cfg.model, grid, cfg.eta0.sample(grid), cfg.dt, 200, tf.POSITIVITY_FLOOR


FILM_PRESETS = ["pm-paper", "tf-surface-tension", "stf-bending", "nonlinear-3.3"]
ORACLE_CASES = FILM_PRESETS + ["alpha3-potential", "linearized-alpha5", "halving"]

# `evolve` against the `stepped_evolve` oracle: the largest gaps measured,
# over every case below, are 9.9e-15 of a snapshot's largest height
# (linearized-alpha5) and 1.0e-13 of an energy (halving)
HEIGHT_GAP, ENERGY_GAP = 2e-14, 2e-13


class TestFilmStepOracle:
    """The coefficient-carrying step against the nodal step it replaced; the
    run-level integrator against the operation-by-operation loop it replaced
    (`oracles.stepped_evolve`), and that loop against the per-step
    spectral-state step before it (`oracles.spectral_film_step`)."""

    @pytest.mark.parametrize("label", ORACLE_CASES)
    def test_matches_nodal_step(self, label, monkeypatch):
        model, grid, eta0, dt, steps, floor = oracle_case(label)
        monkeypatch.setattr(tf, "POSITIVITY_FLOOR", floor)
        run = tf.evolve(model, grid, eta0, dt, steps)
        snaps = run.snapshots
        eta, t = eta0, 0.0
        for j in range(1, len(snaps.times)):
            eta, t, _ = nodal_film_step(model, grid, eta, t, dt, floor=floor)
            assert snaps.times[j] == t
            scale = np.max(np.abs(eta))
            assert np.max(np.abs(snaps.eta[j] - eta)) <= 1e-12 * scale
            energy = nodal_film_energy(model, grid, eta)
            assert abs(run.energy[j] - energy) <= 1e-12 * abs(energy)
            assert snaps.hat[j][0] == snaps.hat[0][0]

    @pytest.mark.parametrize("label, steps", [(label, 200) for label in ORACLE_CASES]
                             + [(label, 1000) for label in FILM_PRESETS],
                             ids=ORACLE_CASES + [f"preset-{label}" for label in FILM_PRESETS])
    def test_integrator_matches_the_stepped_loop(self, label, steps, monkeypatch):
        if steps == 200:
            model, grid, eta0, dt, _, floor = oracle_case(label)
        else:  # the preset as `thinfilm run` takes it, every step kept
            cfg = cli.parse_config(cli.preset_config(label))[1]
            assert cfg.steps == steps
            grid = PeriodicGrid(dim=1, n=cfg.n)
            model, eta0, dt, floor = cfg.model, cfg.eta0.sample(grid), cfg.dt, tf.POSITIVITY_FLOOR
        monkeypatch.setattr(tf, "POSITIVITY_FLOOR", floor)
        run = tf.evolve(model, grid, eta0, dt, steps)
        ref = stepped_evolve(model, grid, eta0, dt, steps, floor=floor)
        got, want = run.snapshots, ref.snapshots
        assert np.array_equal(run.t, ref.t) and np.array_equal(got.times, want.times)
        assert run.substeps == ref.substeps
        assert (run.substeps > steps) == (label == "halving")
        assert np.array_equal(got.hat[:, 0], want.hat[:, 0])
        assert run.min_eta == got.eta.min()
        scale = np.max(np.abs(want.eta), axis=1)
        assert np.all(np.max(np.abs(got.eta - want.eta), axis=1) <= HEIGHT_GAP * scale)
        assert np.all(np.max(np.abs(got.hat - want.hat), axis=1) <= HEIGHT_GAP * scale)
        assert abs(run.min_eta - ref.min_eta) <= HEIGHT_GAP * np.max(scale)
        assert np.all(np.abs(run.energy - ref.energy) <= ENERGY_GAP * np.abs(ref.energy))

    @pytest.mark.parametrize("label", ORACLE_CASES)
    def test_integrator_bitwise_equal_to_spectral_step(self, label):
        model, grid, eta0, dt, _, floor = oracle_case(label)
        steps = 200
        run = stepped_evolve(model, grid, eta0, dt, steps, floor=floor)
        snaps = run.snapshots
        assert len(snaps.times) == len(snaps.eta) == len(snaps.hat) == steps + 1
        assert (run.substeps > steps) == (label == "halving")
        t, eta, hat = 0.0, eta0, rfftn_rfft(grid, eta0)
        times, energies, accepted = [0.0], [spectral_film_energy(model, grid, hat)], 0
        for j in range(1, steps + 1):
            t, eta, hat, n = spectral_film_step(model, grid, t, eta, hat, dt, floor=floor)
            accepted += n
            assert snaps.times[j] == t
            assert np.array_equal(snaps.eta[j], eta)
            assert np.array_equal(snaps.hat[j], hat)
            times.append(t)
            energies.append(spectral_film_energy(model, grid, hat))
        assert np.array_equal(run.t, times)
        assert np.array_equal(run.energy, energies)
        assert run.substeps == accepted
        assert run.min_eta == snaps.eta.min()

    def test_halving_reaches_the_horizon(self, monkeypatch):
        model, grid, eta0, dt = halving_case()
        monkeypatch.setattr(tf, "POSITIVITY_FLOOR", 0.095)
        run = tf.evolve(model, grid, eta0, dt, 3)
        last = run.snapshots.eta[-1]
        eta, t, tried = eta0, 0.0, 0
        for _ in range(3):
            eta, t, n = nodal_film_step(model, grid, eta, t, dt, floor=0.095)
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
        eta0 = one_plus_sin(grid)
        calls = self._counting(monkeypatch)
        run = tf.evolve(model, grid, eta0, 1e-6, 10)
        # one more transform: the initial height's coefficients
        assert run.substeps == 10
        assert len(calls) == 10 * per_step + 1
        del calls[:]
        root = tf._energy_root(model, grid)
        assert run.energy[-1] == tf._energy(root, run.snapshots.hat[-1])
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
        eta0 = one_plus_sin(grid)
        m0 = eta0.mean()
        new = snapshots(model, grid, eta0, cfg["dt"], 300)
        assert abs(new.eta[-1].mean() - m0) <= 1e-10 * (1 + abs(m0))

    def test_dissipation_bending_regime(self, grid):
        model = tf.ThinFilmModel(alpha=5)
        run = tf.evolve(model, grid, one_plus_sin(grid), 1e-7, 200)
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
        assert np.array_equal(traj.times, [t for t, _, _ in want])
        assert np.array_equal(traj.eta, np.array([eta for _, eta, _ in want]))
        assert np.array_equal(traj.hat, np.array([hat for _, _, hat in want]))
        assert traj.eta.shape == (len(want),) + grid.shape

    def test_runs_build_no_state_and_one_inverse_transform(self, grid, monkeypatch):
        # a run builds one trajectory record, of all its snapshots; the
        # linear solve transforms every snapshot after its first in one call
        eta0 = one_plus_sin(grid)
        built, inverse = [], []
        post_init = tf.FilmTrajectory.__post_init__
        monkeypatch.setattr(tf.FilmTrajectory, "__post_init__",
                            lambda s: (built.append(s), post_init(s)))
        irfft = PeriodicGrid.irfft
        monkeypatch.setattr(PeriodicGrid, "irfft",
                            lambda g, coeffs: (inverse.append(coeffs.shape), irfft(g, coeffs))[1])
        run = tf.evolve(tf.ThinFilmModel(alpha=3, v_D=1.0), grid, eta0, 1e-6, 10,
                        snapshot_stride=3)
        assert len(run.snapshots.times) == 5
        assert built == [run.snapshots]
        del inverse[:], built[:]
        source = lambda times: np.zeros((len(times),) + grid.spectral_shape, dtype=complex)
        traj = tf.solve_linear_sixth(1e-4, source, grid, eta0, 0.1, 1e-3, snapshot_stride=10)
        assert len(traj.times) == 11
        assert built == [traj]
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
        assert film_energy(tf.ThinFilmModel(alpha=5), grid, np.zeros(grid.shape)) == 0.0

    def test_bending_energy_of_cosine(self, grid):
        model = tf.ThinFilmModel(alpha=5)
        eta = np.cos(2 * np.pi * grid.meshes[0])
        assert film_energy(model, grid, eta) == pytest.approx((2 * np.pi) ** 4 / 4, rel=1e-12)

    def test_translation_invariance(self, grid):
        model = tf.ThinFilmModel(alpha=3)
        x = grid.nodes[0]
        e1 = film_energy(model, grid, np.sin(2 * np.pi * x))
        e2 = film_energy(model, grid, np.sin(2 * np.pi * (x - 0.3)))
        assert e1 == pytest.approx(e2, rel=1e-12)


# every boundary that takes nodal values applies `PeriodicGrid.check`
SHAPE_SITES = {
    "evolve": lambda grid, bad: tf.evolve(tf.ThinFilmModel(alpha=1), grid, 1.0 + bad, 1e-6, 1),
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
