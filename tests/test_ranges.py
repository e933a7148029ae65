"""Every scalar parameter is checked by `errors.check_range`: NaN and +-inf
are out of range for all of them, and each range keeps its sign rule at 0."""
from fractions import Fraction

import numpy as np
import pytest

import lubelastic as lb
from lubelastic import cli, scaling, spectral, thinfilm as tf, verify
from lubelastic.errors import ParameterError, check_range

GRID = lb.PeriodicGrid(dim=1, n=16)
VNODES = lb.VerticalNodes(8)
FILM = 1.0 + 0.3 * np.sin(2 * np.pi * GRID.meshes[0])
ZERO = np.zeros(GRID.shape)


def _model(**kw):
    return scaling.ModelParams(**{"kappa": 2, "eps": 0.125, **kw})


def _fsi_params(dt=1e-3):
    forcing = lb.harmonic_ramp_forcing(GRID, VNODES)
    return lb.FsiParams(model=_model(), grid=GRID, vnodes=VNODES, dt=dt, forcing=forcing)


def _ladder(jobs):
    config = verify.RateStudyConfig(kappa=Fraction(2), eps_list=(0.25, 0.125, 0.0625),
                                    dim=1, n=8, m=8, dt=0.1, t_end=0.1, snapshot_stride=1)
    return verify.run_rate_study(config, jobs=jobs)


def _film_run(**kw):
    return cli.ThinFilmRun(**{"model": tf.ThinFilmModel(alpha=5), "n": 16, "dt": 1e-6,
                              "steps": 10, "eta0": cli.WaveProfile("one-plus-sin", 0.3),
                              **kw})


# one call per scalar parameter, taking the value under test
SITES = {
    **{f"ModelParams.{k}": (lambda k: lambda x: _model(**{k: x}))(k)
       for k in ("kappa", "eps", "rho_f", "nu", "rho_s", "B", "theta")},
    **{f"NonlinearScalingPreset.{k}": (lambda k: lambda x: scaling.NonlinearScalingPreset(
        **{"eps": 0.1, "B_hat": 1.0, "D_hat": 1.0, "rho_s_hat": 1.0, k: x}))(k)
       for k in ("eps", "B_hat", "D_hat", "rho_s_hat")},
    "LameParams.mu": lambda x: scaling.LameParams(mu=x),
    "LameParams.lam": lambda x: scaling.LameParams(mu=1.0, lam=x),
    "reduced_coefficient_e0.B": lambda x: scaling.reduced_coefficient_e0(x, 1.0),
    "reduced_coefficient_e0.nu": lambda x: scaling.reduced_coefficient_e0(1.0, x),
    "reduced_coefficient_eh.nu": lambda x: scaling.reduced_coefficient_eh(
        scaling.LameParams(mu=1.0), x),
    "eps_power.eps": lambda x: scaling.eps_power(x, 2),
    "eps_power.exponent": lambda x: scaling.eps_power(0.5, x),
    **{f"ThinFilmModel.{k}": (lambda k: lambda x: tf.ThinFilmModel(alpha=5, **{k: x}))(k)
       for k in ("c", "mobility_scale", "v_D", "drift_prefactor")},
    "ThinFilmModel.alpha": lambda x: tf.ThinFilmModel(alpha=x),
    "PowerPotential.strength": lambda x: tf.PowerPotential("power", x, 1.0),
    "PowerPotential.exponent": lambda x: tf.PowerPotential("power", 1.0, x),
    "evolve.dt": lambda x: tf.evolve(tf.ThinFilmModel(alpha=1), GRID, FILM, x, 3),
    "evolve.steps": lambda x: tf.evolve(tf.ThinFilmModel(alpha=1), GRID, FILM, 1e-6, x),
    "evolve.snapshot_stride": lambda x: tf.evolve(tf.ThinFilmModel(alpha=1), GRID, FILM, 1e-6,
                                                  3, snapshot_stride=x),
    "solve_linear_sixth.c": lambda x: tf.solve_linear_sixth(x, None, GRID, ZERO, 0.1, 1e-2),
    "solve_linear_sixth.snapshot_stride": lambda x: tf.solve_linear_sixth(
        1.0, None, GRID, ZERO, 0.1, 1e-2, snapshot_stride=x),
    "solve_reynolds_stationary.nu": lambda x: tf.solve_reynolds_stationary(GRID, FILM, 1.0,
                                                                           nu=x),
    "solve_reynolds_stationary.v_D": lambda x: tf.solve_reynolds_stationary(GRID, FILM, x),
    "reynolds_residual.v_D": lambda x: tf.reynolds_residual(GRID, FILM, ZERO, x),
    "reynolds_residual.nu": lambda x: tf.reynolds_residual(GRID, FILM, ZERO, 1.0, nu=x),
    "FsiParams.dt": _fsi_params,
    "run_fsi.snapshot_stride": lambda x: lb.run_fsi(_fsi_params(), 1e-3, snapshot_stride=x),
    "harmonic_ramp_forcing.ramp_time": lambda x: lb.harmonic_ramp_forcing(
        GRID, VNODES, ramp_time=x),
    "harmonic_ramp_forcing.component": lambda x: lb.harmonic_ramp_forcing(
        GRID, VNODES, component=x),
    "harmonic_ramp_forcing.amplitude": lambda x: lb.harmonic_ramp_forcing(
        GRID, VNODES, amplitude=x),
    "derivative_symbol.axis": lambda x: spectral.derivative_symbol(GRID, 1, axis=x),
    "derivative_symbol.order": lambda x: spectral.derivative_symbol(GRID, x),
    "VerticalNodes.m": lambda x: lb.VerticalNodes(x),
    "PeriodicGrid.dim": lambda x: lb.PeriodicGrid(dim=x, n=16),
    "PeriodicGrid.n": lambda x: lb.PeriodicGrid(dim=1, n=x),
    "run_rate_study.jobs": _ladder,
    "thin_norm_L2L2.eps": lambda x: verify.thin_norm_L2L2(
        [np.zeros((2,) + GRID.shape + (VNODES.m,))], VNODES, x, [0.0, 1.0]),
    **{f"RateStudyConfig.{k}": (lambda k: lambda x: verify.RateStudyConfig(**{k: x}))(k)
       for k in ("dt", "t_end", "ramp_time", "amplitude", "snapshot_stride", "component")},
    "ThinFilmRun.steps": lambda x: _film_run(steps=x),
    "ThinFilmRun.snapshot_stride": lambda x: _film_run(snapshot_stride=x),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_non_finite_value_rejected(site, value):
    with pytest.raises(ParameterError):
        SITES[site](value)


# the sites that take a count, an index or a stride
INTEGER_SITES = ["ThinFilmModel.alpha", "evolve.steps", "evolve.snapshot_stride",
                 "solve_linear_sixth.snapshot_stride", "run_fsi.snapshot_stride",
                 "harmonic_ramp_forcing.component", "derivative_symbol.axis",
                 "derivative_symbol.order", "VerticalNodes.m", "PeriodicGrid.dim",
                 "PeriodicGrid.n", "run_rate_study.jobs", "RateStudyConfig.snapshot_stride",
                 "RateStudyConfig.component"]


@pytest.mark.parametrize("value", [2.5, 2.0, 0.5])
@pytest.mark.parametrize("site", INTEGER_SITES)
def test_value_that_is_no_integer_rejected(site, value):
    # operator.index's rule: 2.0 is refused like 2.5; 2.5 used to pass, and
    # a stride of 2.5 kept every fifth step
    with pytest.raises(ParameterError, match="must be an integer"):
        SITES[site](value)


@pytest.mark.parametrize("size", [{"dim": 1.0, "n": 16}, {"dim": 1, "n": 16.0}],
                         ids=["dim", "n"])
def test_grid_size_that_is_no_integer_rejected(size):
    # dim = 1.0 used to be accepted and fail at the grid's first shape with
    # a TypeError; n = 16.0 raised a bare TypeError
    with pytest.raises(ParameterError, match="must be an integer"):
        lb.PeriodicGrid(**size)


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_numpy_integer_accepted(site):
    try:
        SITES[site](np.int64(1))
    except ParameterError as exc:  # a range the site keeps, not the type
        assert "must be an integer" not in str(exc)


@pytest.mark.parametrize("site", ["ModelParams.nu", "ModelParams.B", "LameParams.mu",
                                  "evolve.dt", "FsiParams.dt", "solve_linear_sixth.c",
                                  "RateStudyConfig.dt", "RateStudyConfig.t_end",
                                  "RateStudyConfig.ramp_time", "reynolds_residual.nu",
                                  "thin_norm_L2L2.eps"])
def test_zero_rejected(site):
    with pytest.raises(ParameterError, match="must lie in \\(0, inf\\), got 0"):
        SITES[site](0.0)


@pytest.mark.parametrize("site", ["ModelParams.rho_f", "ModelParams.rho_s",
                                  "ModelParams.theta", "LameParams.lam", "ThinFilmModel.c"])
def test_zero_accepted(site):
    SITES[site](0.0)
    with pytest.raises(ParameterError, match="must lie in \\[0, inf\\)"):
        SITES[site](-1e-300)


@pytest.mark.parametrize("kappa", ["1/0", "two", None])
def test_kappa_that_is_no_fraction_rejected(kappa):
    with pytest.raises(ParameterError, match="kappa must be a finite rational number"):
        _model(kappa=kappa)


def test_check_range_names_the_first_failure():
    check_range(0.0, 1.0, a=0.5, b=0.25)
    check_range(1, closed=True, steps=1)
    with pytest.raises(ParameterError, match=r"^b must lie in \(0, 1\), got 1.0$"):
        check_range(0.0, 1.0, a=0.5, b=1.0, c=np.nan)
    with pytest.raises(ParameterError, match=r"^a must lie in \[0, 1\), got -0.5$"):
        check_range(0.0, 1.0, closed=True, a=-0.5)
