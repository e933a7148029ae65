"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy thickness-ladder run is shared between the rate-reproduction and
energy-inequality criteria through a module-scoped fixture.
"""
import json
import time
from fractions import Fraction

import numpy as np
import pytest

import lubelastic as lb
from lubelastic import cli, thinfilm as tf, verify
from lubelastic.reconstruction import LimitFields, solve_reduced
from lubelastic.spectral import PeriodicGrid, VerticalNodes

from oracles import reynolds_fixed_point


def _report(criterion, ok, detail):
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def ladder_config():
    return cli.parse_config(cli.preset_config("theorem-e0-kappa2"))[1]


@pytest.fixture(scope="module")
def ladder_result():
    start = time.time()
    result = verify.run_rate_study(ladder_config())
    result_elapsed = time.time() - start
    return result, result_elapsed


# thresholds pinned from the rate targets 3, 1 and kappa + 1/2, one-sided
SLOPE_MIN = {"velocity": 2.7, "pressure": 0.6, "displacement": 2.2}
R2_MIN = 0.98


def test_criterion_1_rate_reproduction(ladder_result):
    result, elapsed = ladder_result
    assert len(result.reports) == 4
    lines = []
    ok = True
    for which, minimum in SLOPE_MIN.items():
        fit = result.fits[which]
        this_ok = fit.slope >= minimum and fit.r2 >= R2_MIN
        ok = ok and this_ok
        lines.append(f"{which} slope {fit.slope:.3f} (>= {minimum}), r2 {fit.r2:.4f}")
    detail = "; ".join(lines) + f"; wall time {elapsed:.1f}s"
    _report(1, ok, detail)
    for which, minimum in SLOPE_MIN.items():
        assert result.fits[which].slope >= minimum
        assert result.fits[which].r2 >= R2_MIN
    assert elapsed <= 600.0


@pytest.fixture(scope="module")
def boundary_rates(tmp_path_factory):
    """rates.json of the theorem-e0-kappa52 preset, and the run's wall time."""
    out = tmp_path_factory.mktemp("kappa52")
    start = time.time()
    cli.run({"version": 1, "preset": "theorem-e0-kappa52"}, output_dir=str(out))
    return json.loads((out / "rates.json").read_text()), time.time() - start


def test_criterion_1_rates_at_the_boundary_exponent(boundary_rates):
    # kappa = 5/2 closes the theorem regime; its preset gates with the
    # kappa = 2 velocity and pressure thresholds
    rates, elapsed = boundary_rates
    detail = "; ".join(f"{which} slope {r['slope']:.3f} (>= {r['threshold']}), r2 {r['r2']:.4f}"
                       for which, r in rates["rates"].items())
    _report("1 (kappa = 5/2)", rates["pass"], detail + f"; wall time {elapsed:.1f}s")
    assert rates["pass"] is True


def test_criterion_2_energy_inequality(ladder_result):
    result, _ = ladder_result
    # dissipative sign with relative slack >= -1e-12 at every step of every run
    for report, ledger, audit in zip(result.reports, result.ledgers, result.audits):
        assert audit.ok, f"energy audit failed at eps={report.eps}: {audit.message}"
        lhs = ledger.lhs()
        work = np.array(ledger.work)
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(work)), 1e-300)
        assert np.min((work - lhs) / scale) >= -1e-12
    ratios = [r.energy_ratio for r in result.reports]
    spread = max(ratios) / min(ratios)
    ok = spread <= 3.0
    _report(2, ok, f"terminal energy/(t*eps^3) spread {spread:.3f} (<= 3) across "
                   f"{[r.eps for r in result.reports]}")
    assert ok


def test_criterion_2_identity_residual_at_roundoff(ladder_result, boundary_rates):
    # the discrete energy identity holds to roundoff at every point of the
    # kappa = 2 and kappa = 5/2 ladders: each point's largest per-step
    # |residual| over its scale, as rates.json reports it
    result, _ = ladder_result
    worst = {"kappa = 2": [float(np.max(led.identity_residual_rel())) for led in result.ledgers],
             "kappa = 5/2": [p["max_identity_residual_rel"] for p in boundary_rates[0]["points"]]}
    ok = max(max(r) for r in worst.values()) <= 1e-12
    _report("2 (identity residual)", ok, "; ".join(
        f"{k}: largest per point {max(r):.2e} (<= 1e-12)" for k, r in worst.items()))
    assert all(len(r) >= 4 for r in worst.values())
    assert ok


def test_criterion_3_exact_single_mode_decay():
    start = time.time()
    B, nu = 1.0, 300.0
    c = lb.reduced_coefficient_e0(B, nu)
    lam = c * (2 * np.pi) ** 6
    grid = PeriodicGrid(dim=1, n=32)
    eta0 = np.cos(2 * np.pi * grid.meshes[0])
    worst = 0.0
    for t_eval in (0.1, 1.0):
        traj = tf.solve_linear_sixth(c, None, grid, eta0, t_eval, 1e-3,
                                     snapshot_stride=10**9)
        ref = np.exp(-lam * t_eval) * eta0
        rel = np.max(np.abs(traj.eta[-1] - ref)) / np.max(np.abs(ref))
        worst = max(worst, rel)
    elapsed = time.time() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    _report(3, ok, f"max relative error {worst:.2e} (<= 1e-8) at t in {{0.1, 1}}, "
                   f"{elapsed:.2f}s (< 1s)")
    assert worst <= 1e-8
    assert elapsed < 1.0


def test_criterion_4_conservation_and_dissipation():
    start = time.time()
    grid = PeriodicGrid(dim=1, n=64)
    eta0 = 1.0 + 0.3 * np.sin(2 * np.pi * grid.meshes[0])
    dts = {1: 1e-5, 3: 1e-6, 5: 1e-7}
    details = []
    for alpha in (1, 3, 5):
        for v_D in (0.0, 1.0):
            model = tf.ThinFilmModel(alpha=alpha, v_D=v_D)
            mass0 = eta0.mean()
            run = tf.evolve(model, grid, eta0, dts[alpha], 1000, snapshot_stride=1000)
            final = run.snapshots.eta[-1]
            if alpha == 5 and v_D == 0.0:
                energy = run.energy
                assert np.all(energy[1:] <= energy[:-1] + 1e-10 * (1 + np.abs(energy[:-1]))), \
                    "energy increased at alpha=5, v_D=0"
                assert run.min_eta >= 0.1
            drift = abs(final.mean() - mass0) / (1 + abs(mass0))
            assert drift <= 1e-10, f"mass drift {drift} at alpha={alpha}, v_D={v_D}"
            details.append(f"a{alpha}/vD{v_D:g}: drift {drift:.1e}")
    elapsed = time.time() - start
    ok = elapsed < 30.0
    _report(4, ok, "; ".join(details) + f"; {elapsed:.1f}s (< 30s)")
    assert ok


def test_criterion_5_reynolds_oracle_equivalence():
    start = time.time()
    grid = PeriodicGrid(dim=1, n=256)
    eta = 1.0 + 0.5 * np.sin(2 * np.pi * grid.meshes[0])
    p = tf.solve_reynolds_stationary(grid, eta, v_D=1.0, nu=1.0)
    n_fine = 4096
    x = np.arange(n_fine) / n_fine
    oracle = reynolds_fixed_point(1.0 + 0.5 * np.sin(2 * np.pi * x), v_D=1.0, nu=1.0)
    sub = oracle[:: n_fine // grid.n]
    rel = float(np.sqrt(np.mean((p - sub) ** 2) / np.mean(sub**2)))
    elapsed = time.time() - start
    ok = rel <= 1e-6 and elapsed < 5.0
    _report(5, ok, f"relative L2 difference {rel:.2e} (<= 1e-6), {elapsed:.2f}s (< 5s)")
    assert rel <= 1e-6
    assert elapsed < 5.0


def test_criterion_6_derivation_chain_closure():
    cfg = ladder_config()
    grid = PeriodicGrid(dim=1, n=cfg.n)
    vnodes = VerticalNodes(cfg.m)
    model = cfg.model_for(cfg.eps_list[0])
    forcing = lb.harmonic_ramp_forcing(grid, vnodes, amplitude=cfg.amplitude,
                                       ramp_time=cfg.ramp_time)
    reduced = solve_reduced(model, grid, vnodes, forcing, cfg.t_end, 1e-4,
                            snapshot_stride=10)
    err = LimitFields(reduced, model, forcing, vnodes).closure_error()
    ok = err <= 1e-6
    _report(6, ok, f"pressure->velocity->flux loop reproduces the displacement "
                   f"rate to {err:.2e} (<= 1e-6)")
    assert ok


def test_criterion_7_coefficient_maps():
    eh = lb.reduced_coefficient_eh(lb.LameParams(1.0, 1.0), 1.0)
    t3 = lb.ModelParams(kappa=3, eps=0.125).tau
    t1 = lb.ModelParams(kappa=1, eps=0.125).tau
    ok = eh == 4.0 / 27.0 and t3 == 0 and t1 == -2
    _report(7, ok, f"layer coefficient {eh} == 4/27; exponents tau(3)={t3}, tau(1)={t1}")
    assert eh == 4.0 / 27.0
    assert t3 == 0 and isinstance(t3, Fraction)
    assert t1 == -2


def test_criterion_8_three_dimensional_smoke():
    start = time.time()
    grid = PeriodicGrid(dim=2, n=16)
    vnodes = VerticalNodes(14)
    model = lb.ModelParams(eps=0.125, kappa=Fraction(2), theta=1.0, dim=2)
    forcing = lb.harmonic_ramp_forcing(grid, vnodes, wavevector=(1, 2),
                                       component=0, ramp_time=0.05)
    params = lb.FsiParams(model=model, grid=grid, vnodes=vnodes, dt=1e-3,
                          forcing=forcing)
    traj = lb.run_fsi(params, 0.05, snapshot_stride=10)
    lb.fsi.check_invariants(params, traj.times, traj.v, traj.eta, traj.eta_t)
    audit = verify.energy_audit(traj.ledger, params)
    elapsed = time.time() - start
    ok = audit.ok and elapsed <= 120.0
    _report(8, ok, f"d=3 run (n=16, eps=1/8): invariants hold, energy audit "
                   f"{'ok' if audit.ok else 'FAILED'}, {elapsed:.1f}s (<= 120s)")
    assert audit.ok
    assert elapsed <= 120.0
