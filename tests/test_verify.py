import concurrent.futures
import dataclasses
import logging
from concurrent.futures import Future
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import lubelastic as lb
from lubelastic import verify
from lubelastic.errors import DegenerateFitError, GridMismatchError, ParameterError
from lubelastic.fsi import EnergyLedger
from lubelastic.spectral import PeriodicGrid, VerticalNodes


@pytest.fixture
def grid():
    return PeriodicGrid(dim=1, n=32)


@pytest.fixture
def vnodes():
    return VerticalNodes(12)


def const_series(grid, vnodes, value, count):
    """A series of count channel snapshots, each of constant value."""
    return np.full((count,) + grid.shape + (vnodes.m,), value)


class TestThinNorm:
    def test_zero(self, grid, vnodes):
        snaps = const_series(grid, vnodes, 0.0, 3)
        assert verify.thin_norm_L2L2([snaps], vnodes, 0.25, [0.0, 0.5, 1.0]) == 0.0

    def test_constant_difference(self, grid, vnodes):
        snaps = const_series(grid, vnodes, 1.0, 5)
        eps = 0.125
        val = verify.thin_norm_L2L2([snaps], vnodes, eps, np.linspace(0, 1, 5))
        assert val == pytest.approx(np.sqrt(eps), rel=1e-12)

    def test_sine_profile(self, grid, vnodes):
        x = grid.nodes[0]
        vals = np.sin(2 * np.pi * x)[:, None] * np.ones(vnodes.m)
        snaps = np.stack([vals] * 5)
        val = verify.thin_norm_L2L2([snaps], vnodes, 1.0, np.linspace(0, 1, 5))
        assert val == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_component_sequences(self, grid, vnodes):
        comps = [const_series(grid, vnodes, 1.0, 3), const_series(grid, vnodes, 0.0, 3)]
        val = verify.thin_norm_L2L2(comps, vnodes, 1.0, [0.0, 0.5, 1.0])
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_two_samples(self, grid, vnodes):
        snaps = const_series(grid, vnodes, 1.0, 2)
        assert verify.thin_norm_L2L2([snaps], vnodes, 0.25, [0.0, 1.0]) == pytest.approx(
            0.5, rel=1e-15)

    def test_mismatched_lengths(self, grid, vnodes):
        with pytest.raises(GridMismatchError):
            verify.thin_norm_L2L2([const_series(grid, vnodes, 1.0, 1)], vnodes, 0.5, [0.0, 1.0])

    @pytest.mark.parametrize("times", [[0.0, 0.5, 0.25], [0.0, 0.5, 0.5], [0.0, np.nan, 1.0],
                                       [0.0, 0.5, np.inf]],
                             ids=["decreasing", "repeated", "nan", "inf"])
    def test_times_that_do_not_increase_rejected(self, grid, vnodes, times):
        # on such times the trapezoid rule gives NaN, inf or a number that
        # is no norm, without an error
        with pytest.raises(ParameterError, match="finite and strictly increasing"):
            verify.thin_norm_L2L2([const_series(grid, vnodes, 1.0, 3)], vnodes, 0.5, times)

    @pytest.mark.parametrize("shapes", [[(3, 32, 11)], [(3, 32, 12), (3, 16, 12)],
                                        [(3, 12)], [(2, 32, 12)]],
                             ids=["vertical", "components", "no-horizontal", "count"])
    def test_shape_that_is_not_the_series_rejected(self, vnodes, shapes):
        with pytest.raises(GridMismatchError, match="vertical nodes"):
            verify.thin_norm_L2L2([np.ones(shape) for shape in shapes], vnodes, 0.5,
                                  [0.0, 0.5, 1.0])

    def test_triangle_and_homogeneity(self, grid, vnodes):
        rng = np.random.default_rng(17)
        times = np.linspace(0.0, 1.0, 4)
        a = rng.standard_normal((len(times),) + grid.shape + (vnodes.m,))
        b = rng.standard_normal((len(times),) + grid.shape + (vnodes.m,))
        norm = lambda x: verify.thin_norm_L2L2([x], vnodes, 0.25, times)
        na, nb = norm(a), norm(b)
        nab = norm(a + b)
        assert nab <= na + nb + 1e-12 * (na + nb)
        n3a = norm(3.0 * a)
        assert n3a == pytest.approx(3.0 * na, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_stacked_reduction_is_the_per_snapshot_one(self, dim):
        # the norm reduces the stacked snapshots; each snapshot's integral
        # must be bitwise the per-field one (`oracles.snapshot_channel_sq`)
        from oracles import snapshot_channel_sq

        grid, vnodes = PeriodicGrid(dim=dim, n=16), VerticalNodes(12)
        rng = np.random.default_rng(23)
        values = rng.standard_normal((7,) + grid.shape + (vnodes.m,))
        times = np.linspace(0.0, 0.6, 7)
        want = [snapshot_channel_sq([v], vnodes) for v in values]
        assert verify.thin_norm_L2L2([values], vnodes, 0.25, times) == float(
            np.sqrt(0.25 * np.trapezoid(np.array(want), times)))


class TestH2Norm:
    def test_zero_trajectory(self, grid):
        assert verify.norm_LinfH2(grid, np.zeros((3,) + grid.shape)) == 0.0

    def test_single_cosine(self, grid):
        f = np.cos(2 * np.pi * grid.meshes[0])
        ref = np.sqrt(0.5 * (1 + (2 * np.pi) ** 2 + (2 * np.pi) ** 4))
        assert verify.norm_LinfH2(grid, f[None]) == pytest.approx(ref, rel=1e-12)

    def test_monotone_under_more_snapshots(self, grid):
        f1 = np.cos(2 * np.pi * grid.meshes[0])
        f2 = 2.0 * f1
        assert verify.norm_LinfH2(grid, np.stack([f1, f2])) >= verify.norm_LinfH2(grid, f1[None])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_stacked_norms_are_the_per_field_ones(self, dim):
        # one transform over the stacked fields, then each field's sum over
        # its own contiguous coefficients, bitwise `oracles.snapshot_h2_norm`
        from oracles import snapshot_h2_norm

        grid = PeriodicGrid(dim=dim, n=32)
        values = np.random.default_rng(29).standard_normal((51,) + grid.shape)
        want = [snapshot_h2_norm(grid, v) for v in values]
        assert [verify.norm_LinfH2(grid, v[None]) for v in values] == want
        assert verify.norm_LinfH2(grid, values) == max(want)

    @pytest.mark.parametrize("shape", [(3, 16), (3, 32, 32), (32,)])
    def test_shape_that_is_not_the_grid_rejected(self, grid, shape):
        with pytest.raises(GridMismatchError, match="grid of shape"):
            verify.norm_LinfH2(grid, np.ones(shape))

    def test_empty_series_rejected(self, grid):
        with pytest.raises(ParameterError, match="at least one snapshot"):
            verify.norm_LinfH2(grid, np.zeros((0,) + grid.shape))

    def test_triangle_and_homogeneity(self, grid):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(grid.shape)
        b = rng.standard_normal(grid.shape)
        h2 = lambda f: verify.norm_LinfH2(grid, f[None])
        na, nb = h2(a), h2(b)
        assert h2(a + b) <= na + nb + 1e-12 * (na + nb)
        assert h2(3.0 * a) == pytest.approx(3.0 * na, rel=1e-12)


def reports_from_errors(eps_list, errors, kappa=2.0):
    return [verify.ErrorReport(eps=e, kappa=kappa, err_velocity=err,
                               err_pressure=err, err_displacement=err,
                               energy_ratio=1.0)
            for e, err in zip(eps_list, errors)]


class TestRateFit:
    EPS = (0.125, 0.0625, 0.03125, 0.015625)

    def test_exact_cubic(self):
        fit = verify.fit_rate(reports_from_errors(self.EPS, [e**3 for e in self.EPS]),
                              "velocity")
        assert fit.slope == pytest.approx(3.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_fractional_power(self):
        fit = verify.fit_rate(reports_from_errors(self.EPS, [e**2.5 for e in self.EPS]),
                              "pressure")
        assert fit.slope == pytest.approx(2.5, abs=1e-12)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(42)
        noisy = [e**3 * (1.0 + 0.05 * (2 * rng.random() - 1)) for e in self.EPS]
        fit = verify.fit_rate(reports_from_errors(self.EPS, noisy), "displacement")
        assert 2.9 <= fit.slope <= 3.1

    def test_r2_is_squared_correlation(self):
        noisy = [e**3 * f for e, f in zip(self.EPS, (1.3, 0.8, 1.1, 0.9))]
        fit = verify.fit_rate(reports_from_errors(self.EPS, noisy), "velocity")
        r = np.corrcoef(np.log(self.EPS), np.log(noisy))[0, 1]
        assert fit.r2 == pytest.approx(r**2, rel=1e-12)
        assert fit.r2 < 0.999  # the points are off the line

    def test_scale_invariance_of_slope(self):
        errors = [e**2 for e in self.EPS]
        f1 = verify.fit_rate(reports_from_errors(self.EPS, errors), "velocity")
        f2 = verify.fit_rate(reports_from_errors(self.EPS, [7.3 * e for e in errors]),
                             "velocity")
        assert f1.slope == pytest.approx(f2.slope, abs=1e-12)

    def test_degenerate_zero_errors(self):
        with pytest.raises(DegenerateFitError):
            verify.fit_rate(reports_from_errors(self.EPS, [0.0] * 4), "velocity")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_error_rejected(self, bad):
        # a NaN slope would reach rates.json as NaN, which is not JSON
        with pytest.raises(DegenerateFitError, match="non-finite"):
            verify.fit_rate(reports_from_errors(self.EPS, [1e-3, bad, 1e-5, 1e-6]),
                            "velocity")

    def test_requires_three_points(self):
        with pytest.raises(ParameterError):
            verify.fit_rate(reports_from_errors(self.EPS[:2], [1e-3, 1e-4]), "velocity")

    def test_rejects_mixed_kappa(self):
        reports = reports_from_errors(self.EPS[:2], [1e-3, 1e-4], kappa=2.0) + \
            reports_from_errors(self.EPS[2:], [1e-5, 1e-6], kappa=1.0)
        with pytest.raises(ParameterError):
            verify.fit_rate(reports, "velocity")

    def test_unknown_selector(self):
        with pytest.raises(ParameterError):
            verify.fit_rate(reports_from_errors(self.EPS, [1e-3] * 4), "vorticity")


def synthetic_ledger(nsteps=5, dissipative=True):
    rows = []
    work = 0.0
    dv = 0.0
    for i in range(nsteps):
        work += 1.0
        dv += 0.3 if dissipative else -0.3
        # energies chosen so lhs stays below cumulative work
        rows.append((0.01 * (i + 1), 0.2, 0.1, 0.1, dv, 0.0,
                     max(work - (0.4 + dv), 0.0), work))
    return EnergyLedger(*np.array(rows).T)


def edge_ledger(work, viscous, energy=1.0):
    """Steps with the given fluid energy, viscous dissipation integrals and
    work; every other entry zero."""
    n = len(work)
    zero = np.zeros(n)
    return EnergyLedger(0.01 * np.arange(1, n + 1), np.full(n, energy), zero, zero, viscous,
                        zero, zero, work)


class TestEnergyAudit:
    @pytest.mark.parametrize("shortfall, ok", [(0.5e-12, True), (2e-12, False)])
    def test_slack_tolerance_edge(self, shortfall, ok, size=1.0):
        # the scale is size at every step, so step 2's slack is -shortfall * size
        led = edge_ledger(work=[size, size * (1.0 - shortfall), size], viscous=[0.0, 0.0, 0.0],
                          energy=size)
        result = verify.energy_audit(led, lb.ModelParams(eps=0.125, kappa=2))
        assert result.ok is ok
        if not ok:
            assert result.first_violation == 2
            assert "energy inequality violated at step 2" in result.message

    @pytest.mark.parametrize("shortfall, ok", [(0.5e-12, True), (2e-12, False)])
    def test_slack_tolerance_edge_is_relative(self, shortfall, ok):
        self.test_slack_tolerance_edge(shortfall, ok, size=4.0)

    @pytest.mark.parametrize("shortfall, ok", [(0.5e-12, True), (2e-12, False)])
    def test_dissipation_increment_tolerance_edge(self, shortfall, ok, size=1.0):
        # the running largest dissipation is size, so step 2's increment is
        # -shortfall * size
        led = edge_ledger(work=[3.0 * size] * 3,
                          viscous=[size, size * (1.0 - shortfall), size * (1.0 - shortfall)])
        result = verify.energy_audit(led, lb.ModelParams(eps=0.125, kappa=2))
        assert result.ok is ok
        if not ok:
            assert result.first_violation == 2
            assert "negative viscous_dissipation increment at step 2" in result.message

    @pytest.mark.parametrize("shortfall, ok", [(0.5e-12, True), (2e-12, False)])
    def test_dissipation_increment_tolerance_edge_is_relative(self, shortfall, ok):
        self.test_dissipation_increment_tolerance_edge(shortfall, ok, size=4.0)

    def test_zero_run_passes(self):
        led = EnergyLedger(0.01 * np.arange(1, 5), *np.zeros((7, 4)))
        model = lb.ModelParams(eps=0.125, kappa=2)
        result = verify.energy_audit(led, model)
        assert result.ok

    @pytest.mark.parametrize("name", ["work", "fluid_kinetic", "numerical_dissipation"])
    def test_non_finite_entry_fails_at_its_step(self, name):
        # comparisons with NaN are all false, so a NaN ledger used to pass
        led = synthetic_ledger(nsteps=6)
        values = getattr(led, name)
        values[2:] = [np.nan] * (len(values) - 2)
        model = lb.ModelParams(eps=0.125, kappa=2)
        result = verify.energy_audit(led, model)
        assert not result.ok
        assert result.first_violation == 3
        assert "not finite" in result.message

    def test_negated_dissipation_fails_at_first_step(self):
        led = synthetic_ledger(dissipative=False)
        model = lb.ModelParams(eps=0.125, kappa=2)
        result = verify.energy_audit(led, model)
        assert not result.ok
        assert result.first_violation == 1

    def test_inequality_violation_reported_with_step(self):
        led = synthetic_ledger()
        # corrupt a later step: energies exceeding total work
        led.fluid_kinetic[3] = 100.0
        model = lb.ModelParams(eps=0.125, kappa=2)
        result = verify.energy_audit(led, model)
        assert not result.ok
        assert result.first_violation == 4

    def test_ratios_follow_definition(self):
        # lhs / (t * eps^(tau + 3)), and tau + 3 = kappa
        led = synthetic_ledger()
        result = verify.energy_audit(led, lb.ModelParams(eps=0.125, kappa=Fraction(5, 2)))
        assert result.ok
        np.testing.assert_allclose(result.ratios, led.lhs() / (led.t * 0.125**2.5), rtol=1e-14)

    def test_real_run_passes_and_reports_ratio(self):
        grid = PeriodicGrid(dim=1, n=16)
        vn = VerticalNodes(12)
        model = lb.ModelParams(eps=0.125, kappa=Fraction(2), theta=1.0, dim=1)
        forcing = lb.harmonic_ramp_forcing(grid, vn, ramp_time=0.05)
        params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=1e-3,
                              forcing=forcing)
        traj = lb.run_fsi(params, 0.05, snapshot_stride=10)
        result = verify.energy_audit(traj.ledger, params)
        assert result.ok
        assert result.ratios.shape == (len(traj.ledger),)
        assert np.all(result.ratios >= 0.0)


class TestLadderConfig:
    def test_requires_decreasing_powers_of_two(self):
        with pytest.raises(ParameterError):
            verify.RateStudyConfig(eps_list=(0.1, 0.05))
        with pytest.raises(ParameterError):
            verify.RateStudyConfig(eps_list=(0.0625, 0.125))
        with pytest.raises(ParameterError):
            verify.RateStudyConfig(eps_list=())
        for eps_list in ((0.125, 0.125, 0.0625), (1.0, 0.5, 0.25), (0.125, 0.0)):
            with pytest.raises(ParameterError):
                verify.RateStudyConfig(eps_list=eps_list)

    def test_fractional_wavevector_rejected_before_any_work(self, monkeypatch):
        # the ladder's forcing is built first, so (1.5,) stops the study
        # before the reduced solve
        monkeypatch.setattr(verify, "solve_reduced", lambda *args, **kwargs: pytest.fail())
        with pytest.raises(ParameterError, match="every k must be an integer"):
            verify.run_rate_study(verify.RateStudyConfig(wavevector=(1.5,)))

    def test_info_log_line_per_ladder_point(self, caplog):
        cfg = verify.RateStudyConfig(
            kappa=Fraction(2), eps_list=(0.125, 0.0625, 0.03125), n=8, m=10,
            dt=1e-3, t_end=0.02, snapshot_stride=10, theta=1.0)
        caplog.set_level(logging.INFO, logger="lubelastic.verify")
        result = verify.run_rate_study(cfg)
        lines = [r.getMessage() for r in caplog.records if r.name == "lubelastic.verify"]
        assert len(lines) == 3
        for line, report in zip(lines, result.reports):
            assert line.startswith(f"ladder point eps = {report.eps:g}: ")
            assert ", 1 of 5 modes stepped, " in line
            for err in (report.err_velocity, report.err_pressure, report.err_displacement):
                assert f"{err:.6e}" in line

    def test_ladder_steps_the_loaded_mode_only(self, monkeypatch):
        # the bench's ladder-k2 study against the same load as a plain
        # callable in the coupled runs, which sample it at every step and
        # step all 9 modes (the reduced side takes the load itself): slopes
        # within the bench's 1e-9, every identity residual at roundoff, and
        # the load itself called only by FsiParams' check
        cfg = verify.RateStudyConfig(
            kappa=Fraction(2), eps_list=(0.125, 0.0625, 0.03125, 0.015625), n=16, m=20,
            dt=5e-4, t_end=0.5, snapshot_stride=20, ramp_time=0.1, rho_f=40.0, rho_s=40.0,
            theta=20.0, amplitude=1.7)
        stepped, calls = [], []
        init, call = lb.fsi._Batch.__init__, lb.fsi.HarmonicLoad.__call__

        def spy(batch, params):
            init(batch, params)
            stepped.append(batch.K)

        monkeypatch.setattr(lb.fsi._Batch, "__init__", spy)
        monkeypatch.setattr(lb.fsi.HarmonicLoad, "__call__",
                            lambda load, t: calls.append(t) or call(load, t))
        modal = verify.run_rate_study(cfg)
        assert stepped == [1]
        assert calls == [0.0] * 4
        run_batch = verify.run_batch

        def sampled_batch(params, *args):
            called = (lambda load: lambda t: load(t))(params[0].forcing)
            return run_batch([dataclasses.replace(p, forcing=called) for p in params], *args)

        monkeypatch.setattr(verify, "run_batch", sampled_batch)
        sampled = verify.run_rate_study(cfg)
        assert stepped == [1, 9]
        for which, fit in modal.fits.items():
            want = sampled.fits[which].slope
            assert abs(fit.slope - want) <= 1e-9 * abs(want), which
        for ledger in modal.ledgers + sampled.ledgers:
            assert np.max(ledger.identity_residual_rel()) <= 1e-12

    def test_mini_ladder_pipeline(self, monkeypatch):
        cfg = verify.RateStudyConfig(
            kappa=Fraction(2), eps_list=(0.125, 0.0625, 0.03125), n=8, m=10,
            dt=1e-3, t_end=0.05, snapshot_stride=10, theta=1.0)
        solves = []
        solve = verify.solve_reduced
        monkeypatch.setattr(verify, "solve_reduced",
                            lambda *a, **kw: solves.append(solve(*a, **kw)) or solves[-1])
        result = verify.run_rate_study(cfg)
        # the reduced problem does not depend on eps: one solve per ladder
        assert solves == [result.reduced]
        assert len(result.reports) == 3
        assert set(result.fits) == {"velocity", "pressure", "displacement"}
        assert all(a.ok for a in result.audits)
        errs = [r.err_velocity for r in result.reports]
        assert errs[0] > errs[-1] > 0

    def test_parallel_ladder_matches_sequential(self):
        cfg = verify.RateStudyConfig(
            kappa=Fraction(2), eps_list=(0.125, 0.0625, 0.03125), n=8, m=10,
            dt=1e-3, t_end=0.05, snapshot_stride=10, theta=1.0)
        seq = verify.run_rate_study(cfg, jobs=1)
        par = verify.run_rate_study(cfg, jobs=2)
        assert seq.reports == par.reports
        assert seq.chain_closure_error == par.chain_closure_error
        for which in seq.fits:
            a, b = seq.fits[which], par.fits[which]
            assert (a.slope.hex(), a.r2.hex()) == (b.slope.hex(), b.r2.hex())
        assert len(seq.ledgers) == len(par.ledgers) == 3
        for a, b in zip(seq.ledgers, par.ledgers):
            for f in dataclasses.fields(a):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name))

    @staticmethod
    def _oracle_report(cfg, eps, reduced):
        """One point's report from its run alone and the per-snapshot
        reconstruction and norms (`oracles.snapshot_assemble_approx`,
        `oracles.snapshot_compare`).  The run steps the load's support, as
        the ladder's does; `test_fsi.py::TestHarmonicLoad` holds it against
        a run of every mode."""
        from oracles import snapshot_assemble_approx, snapshot_compare

        grid, vnodes, forcing = cfg.setting()
        params = lb.FsiParams(model=cfg.model_for(eps), grid=grid, vnodes=vnodes, dt=cfg.dt,
                              forcing=forcing)
        traj = lb.run_fsi(params, cfg.t_end, cfg.snapshot_stride)
        errs = snapshot_compare(traj, snapshot_assemble_approx(reduced, params.model, forcing,
                                                               vnodes))
        t_phys = cfg.t_end * lb.eps_power(eps, params.model.tau)
        ratio = float(traj.ledger.lhs()[-1] / (t_phys * eps**3))
        return verify.ErrorReport(eps, float(params.model.kappa), *errs, energy_ratio=ratio)

    @staticmethod
    def _hex(report):
        return [float(getattr(report, f.name)).hex() for f in dataclasses.fields(report)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reports_match_the_per_snapshot_oracle(self, jobs):
        cfg = verify.RateStudyConfig(
            kappa=Fraction(2), eps_list=(0.125, 0.0625, 0.03125), n=8, m=10,
            dt=1e-3, t_end=0.05, snapshot_stride=10, theta=1.0)
        result = verify.run_rate_study(cfg, jobs=jobs)
        for report in result.reports:
            want = self._oracle_report(cfg, report.eps, result.reduced)
            assert self._hex(report) == self._hex(want)

    def test_two_dimensional_reports_match_the_per_snapshot_oracle(self):
        # the channel norms average over both horizontal axes at once
        cfg = verify.RateStudyConfig(
            kappa=Fraction(2), eps_list=(0.125, 0.0625), dim=2, n=8, m=10,
            dt=1e-3, t_end=0.02, snapshot_stride=5, theta=1.0, wavevector=(1, 2))
        grid, vnodes, forcing = cfg.setting()
        reduced = lb.solve_reduced(cfg.model_for(0.125), grid, vnodes, forcing, cfg.t_end,
                                   cfg.dt, snapshot_stride=cfg.snapshot_stride)
        points = self._points(cfg, cfg.eps_list, reduced)
        assert len(points) == 2
        for eps, (report, _, _) in zip(cfg.eps_list, points):
            assert report.err_velocity > 0 and report.err_pressure > 0
            assert self._hex(report) == self._hex(self._oracle_report(cfg, eps, reduced))

    def test_one_limit_map_and_one_pass_per_block(self, monkeypatch):
        # the bench times the ladder but cannot see inside `fsi.run_batch`:
        # a ladder builds one set of limit fields, for its points and its
        # chain closure, each block of steps makes one quadrature, ledger,
        # pressure and field pass for all its points, as many as one point
        # alone, and no state record is built
        from lubelastic.spectral import _steps_per_block

        cfg = verify.RateStudyConfig(
            kappa=Fraction(2), eps_list=(0.125, 0.0625, 0.03125), n=8, m=20,
            dt=1e-3, t_end=0.5, snapshot_stride=50, theta=1.0)
        counts = {}

        def count(holder, name):
            fn = getattr(holder, name)

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(holder, name, counted)

        for name in ("_quadrature", "_record", "pressure_hat", "materialize"):
            count(lb.fsi, name)
        # the forward transforms inside the limit fields and the chain
        # closure: the load's coefficients need none, and the displacement's
        # come with the reduced solution
        inside = []
        for name in ("__post_init__", "closure_error"):
            fn = getattr(lb.LimitFields, name)

            def during(*args, fn=fn, name=name, **kwargs):
                counts[f"LimitFields.{name}"] = counts.get(f"LimitFields.{name}", 0) + 1
                inside.append(fn)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside.pop()

            monkeypatch.setattr(lb.LimitFields, name, during)
        rfft = PeriodicGrid.rfft

        def counting_rfft(grid, values):
            if inside:
                counts["limit rfft"] = counts.get("limit rfft", 0) + 1
            return rfft(grid, values)

        monkeypatch.setattr(PeriodicGrid, "rfft", counting_rfft)
        # the state records built: the coupled runs hold one array per field
        # kind and build no FsiState; the reduced solve builds the one
        # trajectory it returns
        for cls in (lb.FsiState, lb.FilmTrajectory):
            def built(obj, *args, init=cls.__init__, name=cls.__name__, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                init(obj, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", built)
        result = verify.run_rate_study(cfg)
        # 1D rows: the load's one mode of m - 2 interior coefficients
        blocks = -(-500 // _steps_per_block(16 * (cfg.m - 2)))
        assert 1 < blocks < 500 // cfg.snapshot_stride
        # every block holds a snapshot, none of them at the first step
        assert len(result.reduced.times) == 11
        want = {"LimitFields.__post_init__": 1, "LimitFields.closure_error": 1,
                "FilmTrajectory": 1, "_quadrature": blocks, "_record": blocks,
                "pressure_hat": blocks, "materialize": 1 + blocks}
        assert counts == want
        # the points take the ladder's limit fields and build none of their own
        _, vnodes, forcing = cfg.setting()
        limit = lb.LimitFields(result.reduced, cfg.model_for(0.125), forcing, vnodes)
        counts.clear()
        verify._ladder_points(cfg, limit, cfg.eps_list[:1])
        for key in ("LimitFields.__post_init__", "LimitFields.closure_error", "FilmTrajectory"):
            del want[key]
        assert counts == want

    def test_one_setting_per_sequential_ladder(self, monkeypatch):
        # a jobs = 1 ladder builds its grid, vertical nodes and forcing once,
        # for the reduced solve and the coupled runs alike
        builds = []
        init = lb.spectral.ChebOps.__init__

        def counting(ops, *args, **kwargs):
            builds.append(ops)
            init(ops, *args, **kwargs)

        monkeypatch.setattr(lb.spectral.ChebOps, "__init__", counting)
        cfg = verify.RateStudyConfig(
            kappa=Fraction(2), eps_list=(0.125, 0.0625, 0.03125), n=8, m=10,
            dt=1e-3, t_end=0.02, snapshot_stride=10, theta=1.0)
        verify.run_rate_study(cfg, jobs=1)
        assert len(builds) == 1

    @staticmethod
    def _points(cfg, eps_list, reduced):
        """`verify._ladder_points` with the limit fields that `run_rate_study`
        builds for the ladder."""
        _, vnodes, forcing = cfg.setting()
        limit = lb.LimitFields(reduced, cfg.model_for(cfg.eps_list[0]), forcing, vnodes)
        return verify._ladder_points(cfg, limit, eps_list)

    @staticmethod
    def _fake_points(config, limit, eps_list):
        assert limit.reduced == "reduced"
        return [(verify.ErrorReport(eps=eps, kappa=2.0, err_velocity=eps**3,
                                    err_pressure=eps, err_displacement=eps**2.5,
                                    energy_ratio=1.0),
                 None, verify.AuditResult(ok=True, first_violation=None, ratios=np.array([])))
                for eps in eps_list]

    @staticmethod
    def _in_process_pool(started, submitted):
        """A pool class that runs each submitted call in this process, forking
        nothing, and records its worker count and the submitted arguments."""
        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                submitted.append(args)
                future = Future()
                future.set_result(fn(*args))
                return future

        return RecordingPool

    @pytest.mark.parametrize("jobs,workers", [(2, 2), (3, 3), (4096, 3)])
    def test_pool_capped_at_ladder_length(self, jobs, workers, monkeypatch):
        started = []
        # run_rate_study imports the pool class from concurrent.futures when it is called
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            self._in_process_pool(started, []))
        monkeypatch.setattr(verify, "_ladder_points", self._fake_points)
        monkeypatch.setattr(verify, "solve_reduced", lambda *args, **kwargs: "reduced")
        monkeypatch.setattr(verify, "LimitFields", lambda reduced, *args: SimpleNamespace(
            reduced=reduced, closure_error=lambda: 0.0))
        cfg = verify.RateStudyConfig(eps_list=(0.125, 0.0625, 0.03125))
        result = verify.run_rate_study(cfg, jobs=jobs)
        assert started == [workers]
        assert [r.eps for r in result.reports] == list(cfg.eps_list)
        assert result.reduced == "reduced"

    def test_pool_workers_take_the_study_setting(self, monkeypatch):
        # every call submitted to the pool carries the ladder's one set of
        # limit fields, on the setting that the reduced solve used, so a
        # jobs = 2 ladder builds its vertical operators once, and its
        # reports are the jobs = 1 ones
        builds, settings, submitted = [], [], []
        init, setting = lb.spectral.ChebOps.__init__, verify.RateStudyConfig.setting

        def counting(ops, *args, **kwargs):
            builds.append(ops)
            init(ops, *args, **kwargs)

        monkeypatch.setattr(lb.spectral.ChebOps, "__init__", counting)
        monkeypatch.setattr(verify.RateStudyConfig, "setting",
                            lambda cfg: settings.append(setting(cfg)) or settings[-1])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            self._in_process_pool([], submitted))
        cfg = verify.RateStudyConfig(
            kappa=Fraction(2), eps_list=(0.125, 0.0625, 0.03125), n=8, m=10,
            dt=1e-3, t_end=0.02, snapshot_stride=10, theta=1.0)
        result = verify.run_rate_study(cfg, jobs=2)
        assert len(builds) == 1
        [study_setting] = settings
        assert len(submitted) == 3
        limit = submitted[0][1]
        assert all(args[1] is limit for args in submitted)
        assert limit.reduced is result.reduced
        assert (limit.reduced.grid, limit.vnodes, limit.forcing) == study_setting
        assert result.reports == verify.run_rate_study(cfg, jobs=1).reports

    def test_pickled_forcing_samples_bitwise(self):
        # the pool pickles the setting; its forcing must sample the same bits
        import pickle

        cfg = verify.RateStudyConfig(dim=2, n=8, m=10, wavevector=(1, 2), component=1,
                                     amplitude=0.7, ramp_time=0.05)
        grid, vnodes, forcing = cfg.setting()
        again = pickle.loads(pickle.dumps((grid, vnodes, forcing)))[2]
        for t in (0.0, 0.013, 0.05, 1.0):
            for a, b in zip(forcing(t), again(t)):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs, monkeypatch):
        calls = []
        monkeypatch.setattr(verify, "_ladder_points", lambda *args: calls.append(args))
        with pytest.raises(ParameterError, match="jobs"):
            verify.run_rate_study(verify.RateStudyConfig(), jobs=jobs)
        assert calls == []

    def test_two_horizontal_dimensions(self):
        # one ladder point of the three-dimensional fluid configuration
        cfg = verify.RateStudyConfig(
            kappa=Fraction(2), eps_list=(0.125,), dim=2, n=8, m=10,
            dt=1e-3, t_end=0.02, snapshot_stride=5, theta=1.0,
            wavevector=(1, 0))
        grid, vnodes, forcing = cfg.setting()
        reduced = lb.solve_reduced(cfg.model_for(0.125), grid, vnodes, forcing, cfg.t_end,
                                   cfg.dt, snapshot_stride=cfg.snapshot_stride)
        [(report, ledger, audit)] = self._points(cfg, (0.125,), reduced)
        assert audit.ok
        assert report.err_velocity > 0
        assert report.err_displacement > 0


class TestCompareTrajectories:
    @pytest.fixture(scope="class")
    def traj(self):
        grid = PeriodicGrid(dim=1, n=8)
        vn = VerticalNodes(8)
        model = lb.ModelParams(eps=0.125, kappa=2, dim=1)
        forcing = lb.harmonic_ramp_forcing(grid, vn, ramp_time=0.05)
        params = lb.FsiParams(model=model, grid=grid, vnodes=vn, dt=1e-3, forcing=forcing)
        return lb.run_fsi(params, 0.004)

    @staticmethod
    def own_triple(traj, times):
        return lb.ApproxTriple(times=times, v=traj.v, p=traj.p, eta=traj.eta)

    def test_own_states_have_zero_distance(self, traj):
        assert verify.compare_trajectories(traj, self.own_triple(traj, traj.times)) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("shift, ok", [(0.5e-8, True), (2e-8, False)])
    def test_time_tolerance_is_relative_to_the_horizon(self, traj, shift, ok):
        # the horizon is 0.004 and the first step 0.001
        approx = self.own_triple(traj, traj.times + shift * traj.times[-1])
        if ok:
            verify.compare_trajectories(traj, approx)
        else:
            with pytest.raises(GridMismatchError, match="different times"):
                verify.compare_trajectories(traj, approx)

    def test_snapshot_count_mismatch(self, traj):
        with pytest.raises(GridMismatchError, match="snapshot counts"):
            verify.compare_trajectories(traj, self.own_triple(traj, traj.times[:-1]))
