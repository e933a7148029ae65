from fractions import Fraction

import numpy as np
import pytest

import lubelastic as lb
from lubelastic import reconstruction as rc
from lubelastic.errors import GridMismatchError, ParameterError
from lubelastic.spectral import PeriodicGrid, VerticalNodes
from lubelastic.thinfilm import FilmTrajectory

from oracles import (horizontal_velocity, limit_pressure, nodal_assemble_approx,
                     nodal_chain_closure_error, quadrature_inner, rhs_term_norms,
                     trajectory_time_derivative, vertical_velocity, without_nyquist)


@pytest.fixture
def grid():
    return PeriodicGrid(dim=1, n=32)


@pytest.fixture
def vnodes():
    return VerticalNodes(16)


def band_limited(grid, rng, kmax=6):
    hat = np.zeros(grid.spectral_shape, dtype=complex)
    hat[1:kmax] = rng.standard_normal(kmax - 1) + 1j * rng.standard_normal(kmax - 1)
    return grid.irfft(hat)


def reduced(grid, times, etas):
    """The reduced solution of the nodal displacements etas at times."""
    return FilmTrajectory(grid, times, np.array(etas))


def limit(red, model, vnodes, forcing=None):
    """The limit fields of the reduced solution red, checked for zero mean."""
    return rc.LimitFields(red, model, forcing, vnodes)


def approx(red, model, forcing, vnodes):
    """The triple of red at the thickness of model."""
    return rc.LimitFields(red, model, forcing, vnodes).approx(model)


def rebuilt(grid, vnodes, etas, forcing=None, eps=0.5, kappa=2, **model_kw):
    """The reconstructed triple of the given displacement snapshots, taken
    0.1 apart from t = 1; eps = 1/2, so dividing a velocity by eps^2 is exact."""
    model = lb.ModelParams(eps=eps, kappa=kappa, dim=grid.dim, **model_kw)
    red = reduced(grid, 1.0 + 0.1 * np.arange(len(etas)), etas)
    return approx(red, model, forcing, vnodes)


def closure(red, model, forcing, vnodes):
    """The chain closure of red's limit fields."""
    return rc.LimitFields(red, model, forcing, vnodes).closure_error()


def load(grid, component, profile, ramp_time=0.1):
    """The one-component `fsi.HarmonicLoad` of the nodal profile's coefficients."""
    return lb.fsi.HarmonicLoad(grid, component, grid.rfft(profile), ramp_time)


def steady(grid, component, profile):
    """The load of the nodal profile whose envelope is exactly 1.0 at the
    snapshots of `rebuilt`: from t = 1 on, exp(-(t / 1e-3)^2) underflows."""
    assert lb.fsi.smooth_ramp(1.0, 1e-3) == 1.0
    return load(grid, component, profile, ramp_time=1e-3)


class TestLimitPressure:
    """The pressure of the rebuilt triple, B * (Lap')^2 eta at every depth."""

    def test_biharmonic_symbol(self, grid, vnodes):
        eta = np.cos(2 * np.pi * grid.meshes[0])
        p = rebuilt(grid, vnodes, [eta], B=1.0).p[0]
        ref = (2 * np.pi) ** 4 * np.cos(2 * np.pi * grid.nodes[0])
        assert np.max(np.abs(p - ref[:, None])) < 1e-9 * np.max(np.abs(ref))

    def test_zero(self, grid, vnodes):
        p = rebuilt(grid, vnodes, [np.zeros(grid.shape)], B=2.0).p[0]
        assert np.max(np.abs(p)) == 0.0

    def test_weak_form_against_quadrature(self, grid, vnodes):
        rng = np.random.default_rng(21)
        eta = band_limited(grid, rng)
        B = 1.7
        p = rebuilt(grid, vnodes, [eta], B=B).p[0][..., 0]
        lap_eta = lb.spectral_derivative(grid, eta, 2)
        for _ in range(20):
            psi = band_limited(grid, rng)
            lhs = quadrature_inner(p, psi)
            rhs = B * quadrature_inner(lap_eta, lb.spectral_derivative(grid, psi, 2))
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-10 * scale


class TestHorizontalVelocity:
    """The horizontal velocity of the rebuilt triple over eps^2,
    y (y+1)/(2 nu) * d_a p + F_a."""

    def test_pressure_driven_profile(self, vnodes):
        # B (2 pi)^4 = 1 makes the pressure cos(2 pi x).  The pressure
        # gradient is the fifth derivative of eta, which lifts the roundoff
        # of eta's transform by (2 pi k)^5 at mode k, so the grid is coarse
        # (2e-11 at n = 32, 5e-15 at n = 8)
        grid = PeriodicGrid(dim=1, n=8)
        nu = 2.0
        eta = np.cos(2 * np.pi * grid.meshes[0])
        triple = rebuilt(grid, vnodes, [eta], nu=nu, B=(2 * np.pi) ** -4)
        v1 = triple.v[0][0] / 0.25
        x = grid.nodes[0]
        y = vnodes.nodes
        ref = -(2 * np.pi / (2 * nu)) * np.sin(2 * np.pi * x)[:, None] * (y * (y + 1.0))
        assert np.max(np.abs(v1 - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_force_driven_profile(self, grid, vnodes):
        # depth-constant force: the profile solves nu F'' = -f with wall zeros
        nu = 0.5
        f_const = 2.0
        f1 = np.full(grid.shape + (vnodes.m,), f_const)
        triple = rebuilt(grid, vnodes, [np.zeros(grid.shape)], steady(grid, 0, f1), nu=nu)
        v1 = triple.v[0][0] / 0.25
        y = vnodes.nodes
        ref = -(f_const / (2 * nu)) * y * (y + 1.0)
        assert np.max(np.abs(v1 - ref[None, :])) < 1e-13

    def test_wall_traces_vanish(self, grid, vnodes):
        rng = np.random.default_rng(3)
        eta = band_limited(grid, rng)
        f1 = rng.standard_normal(grid.shape + (vnodes.m,))
        triple = rebuilt(grid, vnodes, [eta], steady(grid, 0, f1), nu=1.0)
        v1 = triple.v[0][0] / 0.25
        scale = max(1.0, np.max(np.abs(v1)))
        assert np.max(np.abs(v1[..., 0])) <= 1e-13 * scale
        assert np.max(np.abs(v1[..., -1])) <= 1e-13 * scale


class TestVerticalVelocity:
    """The vertical velocity of the rebuilt triple over eps^2,
    -eps * int_{-1}^{y} div'(v')."""

    def test_divergence_free_pair_gives_zero(self):
        # with no pressure, a horizontally divergence-free force
        # (d2 psi, -d1 psi) drives a divergence-free pair: a load holds one
        # component, and the vertical velocity is linear in the load, so
        # the two loads' vertical velocities cancel
        grid = PeriodicGrid(dim=2, n=16)
        vn = VerticalNodes(10)
        x1, x2 = grid.meshes
        prof = np.ones(vn.m)
        f1 = (2 * np.pi * np.sin(2 * np.pi * x1) * -np.sin(2 * np.pi * x2))[..., None] * prof
        f2 = (-2 * np.pi * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * x2))[..., None] * prof
        v3 = [rebuilt(grid, vn, [np.zeros(grid.shape)], steady(grid, a, f)).v[-1][0] / 0.25
              for a, f in enumerate((f1, f2))]
        assert min(np.max(np.abs(w)) for w in v3) > 1.0
        assert np.max(np.abs(v3[0] + v3[1])) < 1e-10

    def test_bottom_trace_zero(self, grid, vnodes):
        rng = np.random.default_rng(9)
        eta = band_limited(grid, rng)
        f1 = rng.standard_normal(grid.shape + (vnodes.m,))
        triple = rebuilt(grid, vnodes, [eta], steady(grid, 0, f1), eps=0.25)
        assert np.max(np.abs(triple.v[-1][0][..., 0])) == 0.0


class TestForcingSource:
    times = np.array([0.0, 0.05, 0.1, 0.3])

    def test_zero_force(self, grid, vnodes):
        zero = lb.fsi.HarmonicLoad(grid, 0, np.zeros(grid.spectral_shape + (vnodes.m,)), 0.1)
        source = rc.reduced_source(zero, 1.0, grid, vnodes)
        assert np.max(np.abs(source(self.times))) == 0.0

    def test_single_harmonic_value(self, grid, vnodes):
        # depth-constant f1 = sin(2 pi x): source is -(1/12 nu) d/dx f1
        nu = 1.5
        x = grid.nodes[0]
        f1 = np.sin(2 * np.pi * x)[:, None] * np.ones(vnodes.m)
        hat = rc.reduced_source(load(grid, 0, f1), nu, grid, vnodes)(np.array([1.0]))[0]
        F = grid.irfft(hat)
        ref = -(2 * np.pi / (12 * nu)) * np.cos(2 * np.pi * x) * lb.fsi.smooth_ramp(1.0, 0.1)
        assert np.max(np.abs(F - ref)) < 1e-12
        assert abs(F.mean()) < 1e-14

    def test_linearity(self, grid, vnodes):
        rng = np.random.default_rng(4)
        f1 = rng.standard_normal(grid.shape + (vnodes.m,))
        Fa = rc.reduced_source(load(grid, 0, f1), 1.0, grid, vnodes)(self.times)
        Fb = rc.reduced_source(load(grid, 0, 2.5 * f1), 1.0, grid, vnodes)(self.times)
        assert np.max(np.abs(Fb - 2.5 * Fa)) < 1e-12 * max(1, np.max(np.abs(Fb)))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_nodal_flux_rate(self, dim):
        # the source used to be rebuilt at every step as the flux rate of
        # the nodal force profiles (`oracles.forcing_F`); here of a load in
        # each horizontal component
        from oracles import forcing_F

        grid = PeriodicGrid(dim=dim, n=16 if dim == 1 else 8)
        vnodes = VerticalNodes(12)
        rng = np.random.default_rng(11 + dim)
        nu = 0.7
        times = np.linspace(0.0, 0.5, 301)
        for a in range(dim):
            forcing = load(grid, a, rng.standard_normal(grid.shape + (vnodes.m,)))
            got = rc.reduced_source(forcing, nu, grid, vnodes)(times)
            assert got.shape == (len(times),) + grid.spectral_shape
            want = np.array([grid.rfft(forcing_F(forcing(t)[:dim], nu, grid, vnodes))
                             for t in times])
            assert np.max(np.abs(want)) > 0
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_vertical_load_adds_no_source(self, dim):
        # F comes from the horizontal components only: a load in f3 gives
        # none, and leaves the limit velocities as an unforced channel's,
        # while a load in each horizontal component gives one
        grid = PeriodicGrid(dim=dim, n=16 if dim == 1 else 8)
        vnodes = VerticalNodes(12)
        rng = np.random.default_rng(5 + dim)
        source = lambda a: rc.reduced_source(
            load(grid, a, rng.standard_normal(grid.shape + (vnodes.m,))), 0.7, grid,
            vnodes)(self.times)
        for a in range(dim):
            assert np.max(np.abs(source(a))) > 0
        assert np.max(np.abs(source(dim))) == 0.0
        model = lb.ModelParams(eps=0.5, kappa=2, dim=dim, nu=0.7)
        etas = [without_nyquist(grid, rng.standard_normal(grid.shape)) for _ in self.times]
        red = reduced(grid, self.times, [eta - eta.mean() for eta in etas])
        vertical = load(grid, dim, rng.standard_normal(grid.shape + (vnodes.m,)))
        for got, want in zip(limit(red, model, vnodes, vertical).v_hat,
                             limit(red, model, vnodes).v_hat, strict=True):
            assert np.array_equal(got, want)


class TestLoadChecks:
    """The reduced side takes a `fsi.HarmonicLoad` that fits its grid and
    vertical nodes, and refuses any other load up front."""

    @staticmethod
    def entries(grid, vnodes):
        model = lb.ModelParams(eps=0.5, kappa=2, dim=grid.dim)
        red = reduced(grid, np.array([0.0, 0.1]), np.zeros((2,) + grid.shape))
        return {"solve_reduced": lambda forcing: rc.solve_reduced(model, grid, vnodes, forcing,
                                                                  0.01, 1e-3),
                "LimitFields": lambda forcing: rc.LimitFields(red, model, forcing, vnodes)}

    @pytest.mark.parametrize("entry", ["solve_reduced", "LimitFields"])
    def test_callable_load_refused(self, grid, vnodes, entry):
        # the reduced side reads the load's coefficients: unchecked, a
        # callable would fail with an AttributeError deep inside
        called = lb.harmonic_ramp_forcing(grid, vnodes)
        with pytest.raises(ParameterError, match="HarmonicLoad"):
            self.entries(grid, vnodes)[entry](lambda t: called(t))

    @pytest.mark.parametrize("other", ["grid", "vertical"])
    @pytest.mark.parametrize("entry", ["solve_reduced", "LimitFields"])
    def test_load_of_another_shape_refused(self, grid, vnodes, entry, other):
        forcing = {"grid": lambda: lb.harmonic_ramp_forcing(PeriodicGrid(dim=1, n=16), vnodes),
                   "vertical": lambda: lb.harmonic_ramp_forcing(grid, VerticalNodes(12))}[other]()
        with pytest.raises(GridMismatchError, match="do not fit"):
            self.entries(grid, vnodes)[entry](forcing)


class TestNodalOracle:
    """`LimitFields.approx` and `.closure_error` against the per-snapshot
    nodal rebuild they replaced (`oracles.nodal_assemble_approx`)."""

    @staticmethod
    def cases(dim, forced):
        """The unforced case, or one forced case per horizontal component."""
        grid = PeriodicGrid(dim=dim, n=16 if dim == 1 else 8)
        vnodes = VerticalNodes(12)
        model = lb.ModelParams(eps=0.125, kappa=2, dim=dim, nu=0.7, B=1.3)
        rng = np.random.default_rng(31 + dim)
        if not forced:
            etas = []
            for _ in range(5):
                vals = without_nyquist(grid, rng.standard_normal(grid.shape))
                etas.append(vals - vals.mean())
            return [(grid, vnodes, model, None, reduced(grid, 0.05 * np.arange(5), etas))]
        out = []
        for a in range(dim):
            forcing = load(grid, a, rng.standard_normal(grid.shape + (vnodes.m,)))
            solved = rc.solve_reduced(model, grid, vnodes, forcing, 0.2, 1e-3, snapshot_stride=20)
            # the solve's coefficients are not bitwise the transform of its
            # nodal values, which the nodal rebuild reads: both rebuilds take
            # the nodal values
            out.append((grid, vnodes, model, forcing, reduced(grid, solved.times, solved.eta)))
        return out

    @staticmethod
    def term_scales(grid, vnodes, model, forcing, t, eta):
        """Per field of the triple, the largest of the terms it sums: the
        pressure- and force-driven parts of each horizontal velocity, and
        the vertical velocity of each of those parts alone."""
        eps2 = model.eps**2
        p = limit_pressure(grid, eta, model.B)
        parts = [horizontal_velocity(grid, p, None, model.nu, vnodes)]
        if forcing is not None:
            parts.append(horizontal_velocity(grid, np.zeros(grid.shape),
                                             forcing(t)[:grid.dim], model.nu, vnodes))
        zero = np.zeros(grid.shape + (vnodes.m,))
        vertical = 0.0
        for part in parts:
            for a in range(grid.dim):
                alone = [zero] * grid.dim
                alone[a] = part[a]
                w = vertical_velocity(grid, vnodes, *alone, eps=model.eps)
                vertical = max(vertical, eps2 * np.max(np.abs(w)))
        horizontal = [eps2 * max(np.max(np.abs(part[a])) for part in parts)
                      for a in range(grid.dim)]
        return horizontal + [vertical], np.max(np.abs(p))

    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_triple_matches_nodal_rebuild(self, dim, forced):
        for grid, vnodes, model, forcing, red in self.cases(dim, forced):
            got = approx(red, model, forcing, vnodes)
            want = nodal_assemble_approx(red, model, forcing, vnodes)
            assert np.array_equal(got.times, want.times)
            for j, (t, eta) in enumerate(zip(red.times, red.eta)):
                v_scales, p_scale = self.term_scales(grid, vnodes, model, forcing, t, eta)
                # a forced run starts from rest under no load
                assert min(v_scales) > 0 or (forced and j == 0)
                for g, w, scale in zip(got.v, want.v, v_scales):
                    assert np.max(np.abs(g[j] - w[j])) <= 1e-13 * scale
                assert np.max(np.abs(got.p[j] - want.p[j])) <= 1e-13 * p_scale
                assert np.array_equal(got.eta[j], want.eta[j])

    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_closure_matches_nodal_rebuild(self, dim, forced):
        # both sides are an identity, so both read roundoff of the right
        # side's larger term
        for _, vnodes, model, forcing, red in self.cases(dim, forced):
            got = closure(red, model, forcing, vnodes)
            want = nodal_chain_closure_error(red, model, forcing, vnodes)
            scale = max(rhs_term_norms(red, model, forcing, vnodes))
            assert scale > 0
            assert got <= 1e-12 * scale
            assert want <= 1e-12 * scale


def criterion_preset(eps=0.125):
    grid = PeriodicGrid(dim=1, n=16)
    vnodes = VerticalNodes(20)
    model = lb.ModelParams(eps=eps, kappa=Fraction(2), theta=20.0, rho_f=40.0,
                           rho_s=40.0, dim=1)
    forcing = lb.harmonic_ramp_forcing(grid, vnodes, ramp_time=0.1)
    return grid, vnodes, model, forcing


class TestReducedSolution:
    """A reduced solution is a `FilmTrajectory`: its checks of shapes, times
    and values, and the zero-mean rule that `LimitFields` adds."""

    def test_repeated_time_rejected(self, grid):
        with pytest.raises(ParameterError, match="strictly increasing"):
            reduced(grid, np.array([0.0, 0.1, 0.1]), [np.zeros(grid.shape)] * 3)

    @pytest.mark.parametrize("times", [[0.0, np.nan], [np.nan], [0.0, np.inf], [-np.inf, 0.0]],
                             ids=["nan-second", "nan-only", "inf", "-inf"])
    def test_times_that_are_not_finite_rejected(self, grid, times):
        # NaN used to pass: np.diff(times) <= 0 is False on it
        with pytest.raises(ParameterError, match="finite and strictly increasing"):
            reduced(grid, np.array(times), [np.zeros(grid.shape)] * len(times))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_snapshot_that_is_not_finite_rejected(self, grid, bad):
        # a NaN snapshot used to pass: the zero-mean test is False on NaN
        eta = np.zeros((2,) + grid.shape)
        eta[1, 3] = bad
        with pytest.raises(ParameterError, match="finite"):
            FilmTrajectory(grid, np.array([0.0, 0.1]), eta)
        eta[1] = bad
        with pytest.raises(ParameterError, match="finite"):
            FilmTrajectory(grid, np.array([0.0, 0.1]), eta)

    @pytest.mark.parametrize("shape", [(3, 32), (2, 16), (2, 32, 1), (32,)],
                             ids=["count", "grid", "extra-axis", "no-time-axis"])
    def test_shape_that_is_not_the_series_rejected(self, grid, shape):
        with pytest.raises(GridMismatchError):
            FilmTrajectory(grid, np.array([0.0, 0.1]), np.zeros(shape))

    def test_times_of_more_than_one_axis_rejected(self, grid):
        # even with snapshots behind both of their axes
        with pytest.raises(GridMismatchError):
            FilmTrajectory(grid, np.zeros((2, 1)), np.zeros((2, 1) + grid.shape))

    def test_holds_float_arrays(self, grid):
        red = FilmTrajectory(grid, [0, 1], [[0] * 32] * 2)
        assert red.times.dtype == red.eta.dtype == float
        assert red.eta.shape == (2,) + grid.shape

    def test_mean_tolerance_follows_the_size(self, grid):
        # the bound is 1e-10 of the size: on a displacement of size 1e3 a mean
        # of 1e-9 passes and one of 1e-6 does not
        model = lb.ModelParams(eps=0.5, kappa=2, dim=1)
        wave = 1e3 * np.sin(2 * np.pi * grid.meshes[0])
        limit(reduced(grid, np.array([0.0]), [wave + 1e-9]), model, VerticalNodes(8))
        with pytest.raises(ParameterError, match="zero mean"):
            limit(reduced(grid, np.array([0.0]), [wave + 1e-6]), model, VerticalNodes(8))

    def test_mean_tolerance_is_relative_below_unit_size(self, grid):
        # reduced displacements are small: on a size of 1e-3 a mean of 9e-11
        # is 9e-8 of the size and is rejected, one of 9e-14 passes
        model = lb.ModelParams(eps=0.5, kappa=2, dim=1)
        wave = 1e-3 * np.sin(2 * np.pi * grid.meshes[0])
        limit(reduced(grid, np.array([0.0]), [wave + 9e-14]), model, VerticalNodes(8))
        with pytest.raises(ParameterError, match="zero mean"):
            limit(reduced(grid, np.array([0.0]), [wave + 9e-11]), model, VerticalNodes(8))


class TestLimitFields:
    """The eps-free limit of one reduced solution, built once."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_takes_the_reduced_coefficients_with_no_transform(self, dim, monkeypatch):
        grid = PeriodicGrid(dim=dim, n=8)
        vnodes = VerticalNodes(10)
        model = lb.ModelParams(eps=0.125, kappa=2, dim=dim, nu=0.7, B=1.3)
        forcing = lb.harmonic_ramp_forcing(grid, vnodes, wavevector=(1,) * dim, ramp_time=0.05)
        red = rc.solve_reduced(model, grid, vnodes, forcing, 0.05, 1e-3, snapshot_stride=10)
        calls = []
        for name in ("rfft", "irfft"):
            fn = getattr(PeriodicGrid, name)
            monkeypatch.setattr(PeriodicGrid, name,
                                lambda g, a, fn=fn: calls.append(1) or fn(g, a))
        limit = rc.LimitFields(red, model, forcing, vnodes)
        assert calls == []
        monkeypatch.undo()
        assert limit.reduced is red and limit.forcing is forcing and limit.vnodes is vnodes
        assert np.array_equal(limit.p_hat, model.B * lb.spectral.laplacian_symbol(grid) ** 2
                              * red.hat)
        assert len(limit.v_hat) == dim
        for vh in limit.v_hat:
            assert vh.shape == red.hat.shape + (vnodes.m,)
        # the pressure gradient and the load both drive the velocity
        unforced = rc.LimitFields(red, model, None, vnodes)
        assert np.array_equal(unforced.p_hat, limit.p_hat)
        assert np.max(np.abs(unforced.v_hat[0] - limit.v_hat[0])) > 0
        assert np.max(np.abs(unforced.v_hat[0])) > 0

    def test_one_limit_serves_every_thickness(self):
        # a ladder builds one: its triple at any eps is the one of limit
        # fields built at that eps, bitwise
        grid, vnodes, model, forcing = criterion_preset()
        red = rc.solve_reduced(model, grid, vnodes, forcing, 0.05, 1e-3, snapshot_stride=10)
        limit = rc.LimitFields(red, model, forcing, vnodes)
        for eps in (0.25, 0.03125):
            thin = lb.ModelParams(eps=eps, kappa=Fraction(2), theta=20.0, rho_f=40.0,
                                  rho_s=40.0, dim=1)
            got = limit.approx(thin)
            want = rc.LimitFields(red, thin, forcing, vnodes).approx(thin)
            assert np.array_equal(got.times, want.times)
            for g, w in zip((*got.v, got.p, got.eta), (*want.v, want.p, want.eta), strict=True):
                assert np.array_equal(g, w)

    def test_pickles_to_the_same_fields(self):
        # a --jobs worker takes the ladder's limit fields, pickled
        import pickle

        grid, vnodes, model, forcing = criterion_preset()
        red = rc.solve_reduced(model, grid, vnodes, forcing, 0.05, 1e-3, snapshot_stride=10)
        limit = rc.LimitFields(red, model, forcing, vnodes)
        again = pickle.loads(pickle.dumps(limit))
        assert np.array_equal(again.p_hat, limit.p_hat)
        assert np.array_equal(again.approx(model).v[0], limit.approx(model).v[0])
        assert again.closure_error() == limit.closure_error()


class TestAssembleApprox:
    def test_zero_reduced_solution(self, grid, vnodes):
        model = lb.ModelParams(eps=0.25, kappa=2, dim=1)
        times = np.array([0.0, 0.1, 0.2])
        zeros = tuple(np.zeros(grid.shape) for _ in times)
        red = reduced(grid, times, zeros)
        triple = approx(red, model, None, vnodes)
        for j in range(len(times)):
            assert all(np.max(np.abs(c[j])) == 0.0 for c in triple.v)
            assert np.max(np.abs(triple.p[j])) == 0.0
            assert np.max(np.abs(triple.eta[j])) == 0.0

    def test_eps_squared_prefactor(self, vnodes):
        grid = PeriodicGrid(dim=1, n=16)
        times = np.array([0.0, 0.05, 0.1])
        rng = np.random.default_rng(8)
        etas = tuple(band_limited(grid, rng, kmax=4) for _ in times)
        triples = {}
        for eps in (0.25, 0.5):
            model = lb.ModelParams(eps=eps, kappa=2, dim=1)
            red = reduced(grid, times, etas)
            triples[eps] = approx(red, model, None, vnodes)
        v_small = triples[0.25].v[0][1]
        v_big = triples[0.5].v[0][1]
        assert np.max(np.abs(v_big - 4.0 * v_small)) < 1e-13 * max(1, np.max(np.abs(v_big)))

    def test_displacement_scaling_and_mean(self, vnodes):
        grid = PeriodicGrid(dim=1, n=16)
        rng = np.random.default_rng(12)
        eta = band_limited(grid, rng, kmax=4)
        times = np.array([0.0, 0.1, 0.2])
        red = reduced(grid, times, [eta, eta, eta])
        model = lb.ModelParams(eps=0.25, kappa=2, dim=1)
        triple = approx(red, model, None, vnodes)
        assert np.max(np.abs(triple.eta[0] - 0.0625 * eta)) < 1e-15
        assert abs(triple.eta[0].mean()) < 1e-16

    def test_displacement_scaling_follows_kappa(self, grid, vnodes):
        eta = band_limited(grid, np.random.default_rng(13), kmax=4)
        triple = rebuilt(grid, vnodes, [eta], eps=0.25, kappa=Fraction(3, 2))
        assert np.array_equal(triple.eta[0], 0.125 * eta)

    def test_pressure_constant_in_vertical(self, vnodes):
        grid = PeriodicGrid(dim=1, n=16)
        rng = np.random.default_rng(14)
        eta = band_limited(grid, rng, kmax=4)
        times = np.array([0.0, 0.1])
        red = reduced(grid, times, [eta, eta])
        model = lb.ModelParams(eps=0.25, kappa=2, dim=1)
        triple = approx(red, model, None, vnodes)
        spread = np.max(triple.p[0], axis=-1) - np.min(triple.p[0], axis=-1)
        assert np.max(np.abs(spread)) < 1e-12 * max(1, np.max(np.abs(triple.p[0])))


class TestChainClosure:
    def test_time_derivative_exact_for_quadratic(self, grid):
        times = np.linspace(0.0, 1.0, 11)
        base = np.sin(2 * np.pi * grid.meshes[0])
        fields = [(2.0 + 3.0 * t + 0.5 * t**2) * base for t in times]
        dots = trajectory_time_derivative(times, fields)
        for t, d in zip(times, dots):
            ref = (3.0 + t) * base
            assert np.max(np.abs(d - ref)) < 1e-10

    def test_nonuniform_times_rejected(self, grid):
        times = np.array([0.0, 0.1, 0.25])
        fields = [np.zeros(grid.shape)] * 3
        with pytest.raises(ParameterError):
            trajectory_time_derivative(times, fields)

    def test_three_snapshots_suffice(self, grid):
        times = np.array([0.0, 0.1, 0.2])
        base = np.sin(2 * np.pi * grid.meshes[0])
        fields = [(1.0 + t**2) * base for t in times]
        dots = trajectory_time_derivative(times, fields)
        for t, d in zip(times, dots):
            assert np.max(np.abs(d - 2.0 * t * base)) < 1e-12

    def test_spacing_tolerance_follows_the_step(self, grid):
        # spacing off by 2e-9 of a step of 0.01 is not uniform
        times = np.array([0.0, 0.01, 0.02 + 2e-11])
        fields = [np.zeros(grid.shape)] * 3
        with pytest.raises(ParameterError, match="uniformly spaced"):
            trajectory_time_derivative(times, fields)

    def test_closure_on_reduced_trajectory(self):
        grid, vnodes, model, forcing = criterion_preset()
        red = rc.solve_reduced(model, grid, vnodes, forcing, 0.25, 1e-4,
                               snapshot_stride=10)
        err = closure(red, model, forcing, vnodes)
        assert err <= 1e-6

    def test_closure_with_two_horizontal_dimensions(self):
        grid = PeriodicGrid(dim=2, n=8)
        vnodes = VerticalNodes(12)
        model = lb.ModelParams(eps=0.125, kappa=Fraction(2), theta=1.0, dim=2)
        forcing = lb.harmonic_ramp_forcing(grid, vnodes, wavevector=(1, 1),
                                           ramp_time=0.1)
        red = rc.solve_reduced(model, grid, vnodes, forcing, 0.2, 1e-4,
                               snapshot_stride=10)
        assert closure(red, model, forcing, vnodes) <= 1e-5

    @pytest.mark.parametrize("stride", [10, 7], ids=["even", "uneven"])
    def test_closure_is_roundoff_at_any_stride(self, stride):
        # 2500 steps at stride 7 end on a shorter last interval
        grid, vnodes, model, forcing = criterion_preset()
        red = rc.solve_reduced(model, grid, vnodes, forcing, 0.25, 1e-4,
                               snapshot_stride=stride)
        _, source = rhs_term_norms(red, model, forcing, vnodes)
        assert source > 0
        assert closure(red, model, forcing, vnodes) <= 1e-12 * source

    @pytest.mark.parametrize("flaw", ["coefficient", "source"])
    def test_closure_sees_a_wrong_coefficient_or_source(self, flaw, monkeypatch):
        grid, vnodes, model, forcing = criterion_preset()
        red = rc.solve_reduced(model, grid, vnodes, forcing, 0.25, 1e-4,
                               snapshot_stride=10)
        _, source = rhs_term_norms(red, model, forcing, vnodes)
        if flaw == "coefficient":
            c = 1.01 * model.reduced_coefficient
            monkeypatch.setattr(lb.ModelParams, "reduced_coefficient", property(lambda _: c))
        else:
            build = rc.reduced_source
            monkeypatch.setattr(rc, "reduced_source",
                                lambda *args: lambda times: 0.5 * build(*args)(times))
        assert closure(red, model, forcing, vnodes) >= 1e-3 * source

    def test_top_trace_matches_displacement_rate(self):
        # the reconstructed vertical velocity at the plate equals the slow-time
        # derivative of the scaled displacement
        grid, vnodes, model, forcing = criterion_preset()
        red = rc.solve_reduced(model, grid, vnodes, forcing, 0.2, 1e-4,
                               snapshot_stride=1)
        triple = approx(red, model, forcing, vnodes)
        eta_dot = trajectory_time_derivative(triple.times, triple.eta)
        t_scale = lb.eps_power(model.eps, model.tau)
        worst = 0.0
        for j in range(len(triple.times)):
            top = triple.v[-1][j][..., -1]
            ref = eta_dot[j] / t_scale
            worst = max(worst, np.max(np.abs(top - ref)))
        assert worst <= 1e-8
