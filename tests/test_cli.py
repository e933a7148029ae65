import json
import os
import re
import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import lubelastic as lb
from lubelastic import cli, scaling, thinfilm, verify
from lubelastic.errors import AssemblyError, DegenerateFitError, ParameterError, UsageError
from lubelastic.spectral import PeriodicGrid

from oracles import hand_built_rate_config, reports_csv, rhs_term_norms, trajectory_csv


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestPresets:
    def test_catalog_contains_documented_ids(self):
        catalog = cli.list_presets()
        assert "stf-bending" in catalog
        assert "pm-paper" in catalog
        assert "theorem-e0-kappa2" in catalog
        assert catalog["stf-bending"]["mode"] == "thinfilm"

    def test_presets_list_command(self, capsys):
        assert cli.main(["presets", "list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(cli.PRESETS)
        assert any(line.startswith("theorem-e0-kappa2 ") and "[rates]" in line for line in lines)

    def test_stf_bending_maps_to_sixth_order(self):
        doc = cli.preset_config("stf-bending")
        assert doc["alpha"] == 5

    def test_pm_paper_mobility_scale(self):
        doc = cli.preset_config("pm-paper")
        assert doc["mobility_scale"] == 4.0
        assert doc["alpha"] == 1

    def test_unknown_preset(self):
        with pytest.raises(UsageError, match="unknown preset"):
            cli.preset_config("does-not-exist")

    def test_presets_round_trip_validation(self):
        for name in cli.PRESETS:
            doc = cli.preset_config(name)
            merged = cli.parse_config(doc)[0]
            assert merged["mode"] == cli.PRESETS[name]["mode"]


class TestConfigValidation:
    def test_unknown_key_rejected(self):
        doc = cli.preset_config("reynolds-slider")
        doc["vD"] = 2.0  # typo for v_D
        with pytest.raises(UsageError, match="unknown configuration keys"):
            cli.parse_config(doc)[0]

    def test_version_required(self):
        with pytest.raises(UsageError, match="version"):
            cli.parse_config({"mode": "reynolds"})

    def test_mode_preset_conflict(self):
        doc = {"version": 1, "mode": "fsi", "preset": "reynolds-slider"}
        with pytest.raises(UsageError):
            cli.parse_config(doc)[0]

    def test_preset_reference_takes_overrides(self):
        merged, cfg = cli.parse_config({"version": 1, "preset": "fsi-single-mode",
                                        "dt": 2e-3})
        assert merged["mode"] == "fsi"
        assert (cfg.dt, cfg.t_end, cfg.model.kappa) == (2e-3, 0.1, 2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(UsageError, match="mode must be one of"):
            cli.parse_config({"version": 1, "mode": "bogus"})

    def test_kind_checked_when_a_spec_is_decoded_alone(self):
        with pytest.raises(UsageError, match="kind must be one of"):
            cli.decode(cli.WaveProfile, {"kind": "bogus", "amplitude": 1.0})

    def test_empty_eps_list_is_usage_error(self, tmp_path):
        doc = cli.preset_config("theorem-e0-kappa2")
        doc["eps_list"] = []
        path = write_config(tmp_path, doc)
        rc = cli.main(["verify", "rates", "--config", path,
                       "--output", str(tmp_path / "out")])
        assert rc == 2

    def test_command_mode_mismatch(self, tmp_path):
        path = write_config(tmp_path, cli.preset_config("reynolds-slider"))
        rc = cli.main(["thinfilm", "run", "--config", path,
                       "--output", str(tmp_path / "out")])
        assert rc == 2


# config_hash of parse_config(preset_config(name))[0], recorded before the
# configuration schema was derived from the dataclasses
PRESET_HASHES = {
    "fsi-single-mode": "841e018b43a49100d8cee90672512981a5b39b60a2caff5043d4bf3cd714012d",
    "nonlinear-3.3": "d6161a296960ee2cf75e70af70ac989d8efd34756f33c6ed63fbfb682103a07e",
    "pm-paper": "d4c60d911f35200f9070f168fe58429a1714e6afc8306e3c207a37e72c692d21",
    "reynolds-slider": "7ba4ea6853a0181f58947b377bfa651181bd5ec9db5de254b313ab7a16866847",
    "stf-bending": "a739094b2abbc57ca4e145419705d7df3961b21f8aed1df797a15ed41cfcd74c",
    "tf-surface-tension": "e61a56cf3268a567ca961d704aa0f8ee598274f2a4884e0f0c7a1252a220d75d",
    "theorem-e0-kappa1": "26f04d65ffec93de174257f73eaaf201b68fe3aae0c8499fd204ff406861aaf3",
    "theorem-e0-kappa2": "abc709253f11078e590414346c526bb6a4aebb607b2eb05f364f787b53132bc2",
    "theorem-e0-kappa52": "2d7fd3aa230d91c9133743006359fbb09de9376613ed81d9f264c0d0ea72d95f",
}


def preset_with(name, **overrides):
    doc = cli.preset_config(name)
    doc.update(overrides)
    return doc


# Documents that must exit 2 with a one-line error: mistyped, non-finite or
# missing values, malformed nested specs, and ranges the library rejects.
BAD_DOCUMENTS = {
    "n-string": preset_with("reynolds-slider", n="abc"),
    "n-fractional": preset_with("reynolds-slider", n=64.7),
    "bool-string": preset_with("stf-bending", linearized="no"),
    "v_D-infinite": preset_with("reynolds-slider", v_D=float("inf")),
    "fsi-missing-keys": {"version": 1, "mode": "fsi"},
    "rates-two-points": {"version": 1, "mode": "rates", "eps_list": [0.125, 0.0625]},
    "kappa-word": preset_with("fsi-single-mode", kappa="two"),
    "theta-null": preset_with("fsi-single-mode", theta=None),
    "dt-nan": preset_with("fsi-single-mode", dt=float("nan")),
    "forcing-string": preset_with("fsi-single-mode", forcing="sin"),
    "eps_list-string": preset_with("theorem-e0-kappa2", eps_list="0.125"),
    "eta0-string": preset_with("reynolds-slider", eta0="sin"),
    "eta0-no-amplitude": preset_with("reynolds-slider", eta0={"kind": "one-plus-sin"}),
    "potential-incomplete": preset_with("stf-bending", potential={"kind": "power"}),
    "scaling-incomplete": preset_with("nonlinear-3.3", nonlinear_scaling={"eps": 0.1}),
    "fsi-stride-zero": preset_with("fsi-single-mode", n=8, m=12, t_end=0.01,
                                   snapshot_stride=0),
    "thinfilm-stride-zero": preset_with("stf-bending", n=32, steps=5, snapshot_stride=0),
    "fsi-ramp-time-zero": preset_with("fsi-single-mode", n=8, m=12, t_end=0.01, forcing={
        "kind": "harmonic-ramp", "ramp_time": 0.0}),
    "fsi-component-above-dim": preset_with("fsi-single-mode", n=8, m=12, t_end=0.01, forcing={
        "kind": "harmonic-ramp", "component": 5}),
    "fsi-component-negative": preset_with("fsi-single-mode", n=8, m=12, t_end=0.01, forcing={
        "kind": "harmonic-ramp", "component": -1}),
    # 1/dt times a mass coefficient overflows the step operator
    "fsi-dt-overflows": preset_with("fsi-single-mode", dt=1e-308, t_end=10 * 1e-308),
    "fsi-dt-subnormal": preset_with("fsi-single-mode", dt=5e-309, t_end=10 * 5e-309),
    "rates-ramp-time-zero": preset_with("theorem-e0-kappa2", ramp_time=0.0),
    "rates-component-above-dim": preset_with("theorem-e0-kappa2", component=2),
    "eta0-wavenumber-aliased": preset_with("reynolds-slider", n=64, eta0={
        "kind": "one-plus-sin", "amplitude": 0.5, "wavenumber": 100}),
    "eta0-dips-below-zero": preset_with("tf-surface-tension", eta0={
        "kind": "one-plus-sin", "amplitude": 1.2, "wavenumber": 1}),
    "eta0-negative-constant": preset_with("pm-paper", eta0={"kind": "constant", "value": -1.0}),
    "thinfilm-steps-zero": preset_with("stf-bending", steps=0),
    "thinfilm-steps-negative": preset_with("stf-bending", steps=-5),
}
_COMMAND = {"thinfilm": ["thinfilm", "run"], "fsi": ["fsi", "run"],
            "reynolds": ["reynolds", "solve"], "rates": ["verify", "rates"]}


def assert_exits_2_without_output(doc, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(_COMMAND[doc["mode"]] + ["--config", write_config(tmp_path, doc),
                                           "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("label", sorted(BAD_DOCUMENTS))
def test_bad_document_exits_2(label, tmp_path, capsys):
    assert_exits_2_without_output(BAD_DOCUMENTS[label], tmp_path, capsys)


# One out-of-range value per library class that a document decodes into.
# The class's own check runs at decode, so each is rejected before any work
# or file.
_SCALING = {"eps": 0.1, "B_hat": 1.0, "D_hat": 1.0, "rho_s_hat": 1.0}
OUT_OF_RANGE_DOCUMENTS = {
    "nonlinear_scaling-eps": preset_with("nonlinear-3.3",
                                         nonlinear_scaling={**_SCALING, "eps": 2.0}),
    "nonlinear_scaling-B_hat": preset_with("nonlinear-3.3",
                                           nonlinear_scaling={**_SCALING, "B_hat": 0}),
    "fsi-eps": preset_with("fsi-single-mode", eps=1.0),
    "fsi-kappa": preset_with("fsi-single-mode", kappa=0),
    "thinfilm-alpha": preset_with("stf-bending", alpha=2),
    "thinfilm-c": preset_with("stf-bending", c=-1.0),
    "linearized-potential": preset_with("stf-bending", linearized=True, potential={
        "kind": "power", "strength": 1.0, "exponent": 1.0}),
}


@pytest.mark.parametrize("label", sorted(OUT_OF_RANGE_DOCUMENTS))
def test_out_of_range_value_exits_2_before_any_work(label, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(thinfilm, "evolve", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(cli, "run_fsi", lambda *args, **kwargs: calls.append(args))
    assert_exits_2_without_output(OUT_OF_RANGE_DOCUMENTS[label], tmp_path, capsys)
    assert calls == []


class TestDecode:
    def test_reynolds_preset_decodes(self):
        cfg = cli.parse_config(cli.preset_config("reynolds-slider"))[1]
        assert cfg == cli.ReynoldsRun(n=256, eta0=cli.WaveProfile("one-plus-sin", 0.5, 1),
                                      v_D=1.0, nu=1.0)

    def test_unknown_key_without_preset_rejected(self):
        with pytest.raises(UsageError, match="bogus"):
            cli.parse_config({"version": 1, "mode": "reynolds", "bogus": 1})

    def test_key_errors_name_inlined_keys(self):
        # the keys of the inlined library class are checked in the same pass
        with pytest.raises(UsageError, match=re.escape("['kappa', 'eps', 'n', 'm', 'dt', 't_end']")):
            cli.parse_config({"version": 1, "mode": "fsi"})
        with pytest.raises(UsageError, match=re.escape("['alpha', 'n', 'dt', 'steps', 'eta0']")):
            cli.parse_config({"version": 1, "mode": "thinfilm"})
        with pytest.raises(UsageError, match=re.escape("['alpha', 'bogus']")):
            cli.parse_config(preset_with("fsi-single-mode", alpha=5, bogus=1))

    def test_preset_hashes_unchanged(self):
        assert set(PRESET_HASHES) == set(cli.PRESETS)
        for name, digest in PRESET_HASHES.items():
            assert cli.config_hash(cli.parse_config(cli.preset_config(name))[0]) == digest

    @pytest.mark.parametrize("name", ["theorem-e0-kappa1", "theorem-e0-kappa2",
                                      "theorem-e0-kappa52"])
    def test_rates_preset_matches_hand_built_config(self, name):
        doc = cli.preset_config(name)
        assert cli.parse_config(doc)[1] == hand_built_rate_config(doc)

    def test_mode_defaults(self):
        fsi = cli.decode(cli.FsiRun, {"kappa": "2", "eps": 0.125, "n": 16, "m": 20,
                                      "dt": 1e-3, "t_end": 0.1})
        assert (fsi.model.theta, fsi.snapshot_stride, fsi.forcing) == (0.0, 1, None)
        film = {"alpha": 5, "n": 32, "dt": 1e-7, "steps": 35,
                "eta0": {"kind": "cosine", "amplitude": 0.1}}
        cfg = cli.decode(cli.ThinFilmRun, film)
        assert (cfg.model.v_D, cfg.snapshot_stride, cfg.eta0.wavenumber) == (0.0, 3, 1)
        assert cli.decode(cli.ThinFilmRun, {**film, "steps": 5}).snapshot_stride == 1
        assert cli.decode(cli.ReynoldsRun, {"n": 64, "eta0": film["eta0"]}).v_D == 1.0
        assert cli.parse_config({"version": 1, "mode": "rates"})[1] == verify.RateStudyConfig()

    def test_scalar_types(self):
        flat = {"kind": "constant", "value": 1}
        ok = cli.decode(cli.ReynoldsRun, {"n": 64, "v_D": 2, "nu": 0.5, "eta0": flat})
        assert ok.v_D == 2.0 and isinstance(ok.v_D, float)
        assert ok.eta0 == cli.ConstantProfile("constant", 1.0)
        edge = cli.decode(cli.ReynoldsRun, {"n": 64, "v_D": -sys.float_info.max, "eta0": flat})
        assert edge.v_D == -sys.float_info.max  # the largest finite number is finite
        for bad in (True, "1", 1e400, float("-inf"), float("nan")):
            with pytest.raises(UsageError, match="v_D must be a finite number"):
                cli.decode(cli.ReynoldsRun, {"n": 64, "v_D": bad, "eta0": flat})
        with pytest.raises(UsageError, match="n must be an integer"):
            cli.decode(cli.ReynoldsRun, {"n": True, "eta0": flat})
        for eta0 in ({"kind": "square"}, {"kind": ["constant"]}, {"value": 1.0}):
            with pytest.raises(UsageError, match="eta0 must be an object with kind in"):
                cli.decode(cli.ReynoldsRun, {"n": 64, "eta0": eta0})
        with pytest.raises(UsageError, match=r"forcing.wavevector\[1\] must be an integer"):
            cli.decode(cli.FsiRun, {"kappa": 2, "eps": 0.125, "n": 8, "m": 8, "dt": 1e-3,
                                    "t_end": 0.01, "forcing": {"kind": "harmonic-ramp",
                                                                "wavevector": [1, 2.0]}})
        for kappa, want in (("5/2", Fraction(5, 2)), (3, Fraction(3))):
            assert cli.decode(scaling.ModelParams, {"kappa": kappa, "eps": 0.125}).kappa == want
        for kappa in (2.5, "1/0", True):
            with pytest.raises(UsageError, match="kappa"):
                cli.decode(scaling.ModelParams, {"kappa": kappa, "eps": 0.125})


class TestWaveProfile:
    def test_samples_follow_their_formula(self):
        grid = PeriodicGrid(dim=1, n=16)
        arg = 2.0 * np.pi * 3 * grid.meshes[0]
        one_plus_sin = cli.WaveProfile("one-plus-sin", 0.3, 3).sample(grid)
        assert np.array_equal(one_plus_sin, 1.0 + 0.3 * np.sin(arg))
        cosine = cli.WaveProfile("cosine", 0.3, 3).sample(grid)
        assert np.array_equal(cosine, 0.3 * np.cos(arg))

    def test_wavenumber_below_half_the_grid(self):
        grid = PeriodicGrid(dim=1, n=16)
        cli.WaveProfile("cosine", 1.0, 7).sample(grid)
        with pytest.raises(ParameterError, match="not resolved"):
            cli.WaveProfile("cosine", 1.0, -8).sample(grid)


class TestBreakdownPath:
    def test_height_below_positivity_floor_exits_3(self, tmp_path):
        # positive, so the document is valid, but no step can keep the 1e-6 floor
        doc = cli.preset_config("pm-paper")
        doc.update({"n": 32, "steps": 5, "snapshot_stride": 1,
                    "eta0": {"kind": "constant", "value": 5e-7}})
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        rc = cli.main(["thinfilm", "run", "--config", path, "--output", str(out)])
        assert rc == 3
        diag = json.loads((out / "breakdown.json").read_text())
        assert diag["error"] == "numerical breakdown"
        assert diag["last_valid_time"] == 0.0
        assert not (out / "manifest.json").exists()

    def test_film_energy_that_overflows_exits_3(self, tmp_path):
        # the height stays finite, of order 1e296, but its film energy
        # overflows: a breakdown, not an energy.csv holding inf
        doc = cli.preset_config("stf-bending")
        doc.update({"n": 32, "steps": 1, "snapshot_stride": 1, "dt": 1e-3, "linearized": True,
                    "v_D": 1e300})
        out = tmp_path / "out"
        rc = cli.main(["thinfilm", "run", "--config", write_config(tmp_path, doc),
                       "--output", str(out)])
        assert rc == 3
        assert sorted(os.listdir(out)) == ["breakdown.json"]
        diag = json.loads((out / "breakdown.json").read_text())
        assert diag["error"] == "numerical breakdown"
        assert "finite height and energy" in diag["detail"]
        assert diag["last_valid_time"] == 0.0

    def test_breakdown_goes_to_document_output_dir(self, tmp_path, monkeypatch):
        # without --output, breakdown.json lands where the artifacts would
        monkeypatch.chdir(tmp_path)
        doc = cli.preset_config("stf-bending")
        doc.update({"n": 32, "steps": 5, "output_dir": "want",
                    "eta0": {"kind": "constant", "value": 5e-7}})
        rc = cli.main(["thinfilm", "run", "--config", write_config(tmp_path, doc)])
        assert rc == 3
        diag = json.loads((tmp_path / "want" / "breakdown.json").read_text())
        assert diag["error"] == "numerical breakdown"
        assert not (tmp_path / "breakdown.json").exists()

    def test_linearized_run_may_start_nonpositive(self, tmp_path):
        doc = cli.preset_config("stf-bending")
        doc.update({"n": 32, "steps": 2, "linearized": True,
                    "eta0": {"kind": "cosine", "amplitude": 0.3, "wavenumber": 1}})
        out = tmp_path / "out"
        rc = cli.main(["thinfilm", "run", "--config", write_config(tmp_path, doc),
                       "--output", str(out)])
        assert rc == 0

    @pytest.mark.parametrize("steps", [2, 3])
    def test_height_that_overflows_exits_3(self, tmp_path, steps, capsys):
        # a drift of 1e300 overflows the second step's height and already the
        # first step's film energy: the run used to exit 0 with NaN in
        # summary.json (2 steps) or exit 2 (3 steps), and then broke down
        # only at the second step, after a first one of infinite energy
        doc = cli.preset_config("stf-bending")
        doc.update({"n": 32, "steps": steps, "snapshot_stride": 1, "linearized": True,
                    "v_D": 1e300, "dt": 1e-3})
        out = tmp_path / "out"
        rc = cli.main(["thinfilm", "run", "--config", write_config(tmp_path, doc),
                       "--output", str(out)])
        assert rc == 3
        assert "finite height" in capsys.readouterr().err
        diag = json.loads((out / "breakdown.json").read_text())
        assert diag["last_valid_time"] == 0.0
        assert not (out / "summary.json").exists()


    def test_factorization_failure_exits_3(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssemblyError("step operator factorization failed")

        monkeypatch.setattr(cli, "run_fsi", fail)
        doc = cli.preset_config("fsi-single-mode")
        doc.update({"n": 8, "m": 12, "dt": 1e-3, "t_end": 0.01})
        out = tmp_path / "out"
        rc = cli.main(["fsi", "run", "--config", write_config(tmp_path, doc),
                       "--output", str(out)])
        assert rc == 3
        diag = json.loads((out / "breakdown.json").read_text())
        assert diag["error"] == "numerical breakdown"
        assert "factorization" in diag["detail"]

    def test_invariant_failure_exits_3(self, tmp_path, monkeypatch):
        # a run whose plate has left its zero mean fails the invariants check
        # before any artifact is written
        run_fsi = cli.run_fsi

        def lifted(*args, **kwargs):
            traj = run_fsi(*args, **kwargs)
            return replace(traj, eta=traj.eta + 1.0)

        monkeypatch.setattr(cli, "run_fsi", lifted)
        doc = cli.preset_config("fsi-single-mode")
        doc.update({"n": 8, "m": 12, "dt": 1e-3, "t_end": 0.01})
        out = tmp_path / "out"
        rc = cli.main(["fsi", "run", "--config", write_config(tmp_path, doc),
                       "--output", str(out)])
        assert rc == 3
        assert sorted(os.listdir(out)) == ["breakdown.json"]
        diag = json.loads((out / "breakdown.json").read_text())
        assert diag["error"] == "numerical breakdown"
        assert diag["detail"].startswith("eta mean ")
        assert diag["detail"].endswith(" at snapshot 0, t = 0.0")

    def test_degenerate_fit_exits_3(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise DegenerateFitError("all errors are exactly zero")

        monkeypatch.setattr(verify, "run_rate_study", fail)
        doc = cli.preset_config("theorem-e0-kappa2")
        doc.update({"eps_list": [0.125, 0.0625, 0.03125], "n": 8, "m": 10,
                    "dt": 1e-3, "t_end": 0.05, "snapshot_stride": 10})
        out = tmp_path / "out"
        rc = cli.main(["verify", "rates", "--config", write_config(tmp_path, doc),
                       "--output", str(out)])
        assert rc == 3
        diag = json.loads((out / "breakdown.json").read_text())
        assert "zero" in diag["detail"]


class TestReynoldsCommand:
    def test_solve_writes_artifacts(self, tmp_path):
        path = write_config(tmp_path, cli.preset_config("reynolds-slider"))
        out = tmp_path / "out"
        rc = cli.main(["reynolds", "solve", "--config", path, "--output", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["residual_l2"] < 1e-8
        manifest = json.loads((out / "manifest.json").read_text())
        assert "pressure.csv" in manifest["files"]
        assert "grid.csv" in manifest["files"]

    def test_resolution_override(self, tmp_path):
        path = write_config(tmp_path, cli.preset_config("reynolds-slider"))
        out = tmp_path / "out"
        rc = cli.main(["reynolds", "solve", "--config", path, "--output", str(out),
                       "--resolution", "64"])
        assert rc == 0
        with open(out / "pressure.csv") as fh:
            rows = fh.readlines()
        assert len(rows) == 65  # header + 64 nodes

    @pytest.mark.parametrize("preset,resolution", [
        ("reynolds-slider", "64,12"),      # reynolds has no m
        ("pm-paper", "32,12"),             # nor has thinfilm
        ("fsi-single-mode", "8,12,4"),     # fsi takes n,m and no more
    ])
    def test_resolution_parts_beyond_mode_exit_2(self, preset, resolution, tmp_path, capsys):
        doc = cli.preset_config(preset)
        out = tmp_path / "out"
        rc = cli.main(_COMMAND[doc["mode"]] + ["--config", write_config(tmp_path, doc),
                                               "--output", str(out),
                                               "--resolution", resolution])
        assert rc == 2
        assert "--resolution" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["reynolds", "solve"], ["thinfilm", "run"],
                                         ["fsi", "run"]])
    def test_jobs_only_on_verify_rates(self, command, tmp_path):
        path = write_config(tmp_path, cli.preset_config("reynolds-slider"))
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--config", path, "--jobs", "1"])
        assert exc.value.code == 2


class TestThinfilmCommand:
    def _tiny_config(self, preset="pm-paper", steps=50):
        doc = cli.preset_config(preset)
        doc.update({"n": 32, "steps": steps, "snapshot_stride": 10})
        return doc

    def test_run_and_summary(self, tmp_path):
        path = write_config(tmp_path, self._tiny_config())
        out = tmp_path / "out"
        rc = cli.main(["thinfilm", "run", "--config", path, "--output", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mass_drift_rel"] < 1e-10
        assert summary["min_eta"] > 0
        assert summary["steps"] == summary["substeps"] == 50  # no step halved
        assert "energy" not in summary
        # the energy series sits beside the trajectory, the initial row first
        with open(out / "energy.csv") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh]
        assert rows[0] == ["t", "energy"]
        assert len(rows) == 52 and float(rows[1][0]) == 0.0
        assert "energy.csv" in json.loads((out / "manifest.json").read_text())["files"]
        with open(out / "trajectory.csv") as fh:
            header = fh.readline().split(",")
        assert header[0] == "t"
        assert len(header) == 33

    def test_touching_initial_height_exits_2(self, tmp_path):
        # a zero of the height is rejected up front, not left to the
        # positivity check of the run (exit 3)
        doc = self._tiny_config(steps=2)
        doc["eta0"] = {"kind": "one-plus-sin", "amplitude": 1.0}
        out = tmp_path / "out"
        assert cli.main(["thinfilm", "run", "--config", write_config(tmp_path, doc),
                         "--output", str(out)]) == 2
        assert not out.exists()

    def test_nonlinear_preset_documents_scaling_targets(self, tmp_path):
        doc = cli.preset_config("nonlinear-3.3")
        doc.update({"n": 32, "steps": 20, "snapshot_stride": 10})
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["thinfilm", "run", "--config", path, "--output", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        targets = summary["scaling_targets"]
        assert targets["B"] == pytest.approx(10.0)
        assert targets["time_scale"] == pytest.approx(100.0)
        assert targets["energy_bound_exponent"] == 3

    def test_determinism_byte_identical(self, tmp_path):
        path = write_config(tmp_path, self._tiny_config(steps=30))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["thinfilm", "run", "--config", path, "--output", str(out1)]) == 0
        assert cli.main(["thinfilm", "run", "--config", path, "--output", str(out2)]) == 0
        for name in ("trajectory.csv", "summary.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestFsiCommand:
    def test_run_smoke(self, tmp_path):
        doc = cli.preset_config("fsi-single-mode")
        doc.update({"n": 8, "m": 12, "dt": 1e-3, "t_end": 0.01, "snapshot_stride": 5})
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        rc = cli.main(["fsi", "run", "--config", path, "--output", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["energy_audit_ok"]
        assert (out / "energy_ledger.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "energy_ledger.csv" in manifest["files"]

    def test_determinism_byte_identical(self, tmp_path):
        doc = cli.preset_config("fsi-single-mode")
        doc.update({"dim": 2, "n": 8, "m": 10, "dt": 1e-3, "t_end": 0.004,
                    "snapshot_stride": 2, "forcing": {"kind": "harmonic-ramp"}})
        path = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli.main(["fsi", "run", "--config", path, "--output", str(out)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["files"].count("grid.csv") == 1
        for name in manifest["files"] + ["manifest.json"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        axes = [row.split(",")[0] for row in (out1 / "grid.csv").read_text().splitlines()]
        assert axes == ["axis"] + ["x1"] * 8 + ["x2"] * 8 + ["y3"] * 10
        # snapshots at steps 0, 2 and 4; eta and eta_t live on the plate,
        # v1, v2, v3 and p on the channel
        fields = [f for f in manifest["files"] if f.endswith(("_0000.csv", "_0001.csv", "_0002.csv"))]
        assert len(fields) == 3 * 6
        for name in fields:
            nodes = 8 * 8 * (1 if name.startswith("eta") else 10)
            assert len((out1 / name).read_text().splitlines()) == nodes + 1, name

    @pytest.mark.parametrize("update", [
        {"n": 8, "m": 12, "dt": 1e-3, "t_end": 0.01, "snapshot_stride": 5},
        {"dim": 2, "n": 8, "m": 10, "dt": 1e-3, "t_end": 0.01, "snapshot_stride": 5,
         "forcing": {"kind": "harmonic-ramp", "wavevector": [1, 2], "component": 2,
                     "ramp_time": 0.02}},
    ])
    def test_summary_health_fields(self, tmp_path, update):
        doc = cli.preset_config("fsi-single-mode")
        doc.update(update)
        out = tmp_path / "out"
        assert cli.main(["fsi", "run", "--config", write_config(tmp_path, doc),
                         "--output", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["max_identity_residual_rel"] <= 1e-12
        # the slack equals the numerical dissipation up to roundoff, so it is
        # positive once the load moves the fluid
        assert 0.0 < summary["min_slack_rel"] <= 1.0
        assert summary["min_slack_step"] in range(1, 11)  # t_end / dt steps
        assert summary["steps"] == 10
        # the terminal entries are the ledger's last row
        rows = (out / "energy_ledger.csv").read_text().splitlines()
        last = dict(zip(rows[0].split(","), map(float, rows[-1].split(","))))
        energy = last["fluid_kinetic"] + last["plate_kinetic"] + last["bending"]
        assert summary["terminal_energy"] == energy
        assert summary["terminal_lhs"] == (energy + last["viscous_dissipation"]
                                           + last["viscoelastic_dissipation"])
        assert summary["terminal_work"] == last["work"]
        # the harmonic load steps its one stored mode of the grid's, and
        # factors that mode's one operator
        assert (summary["modes"], summary["modes_stepped"], summary["operators_factored"]) == (
            (5, 1, 1) if doc["dim"] == 1 else (40, 1, 1))

    def test_summary_counts_one_operator_per_distinct_wavenumber(self, tmp_path):
        # a 2D wavevector whose last entry is 0 loads both stored modes +-k,
        # which share |xi|^2 and so one factored operator
        doc = cli.preset_config("fsi-single-mode")
        doc.update({"dim": 2, "n": 8, "m": 10, "dt": 1e-3, "t_end": 0.005, "snapshot_stride": 5,
                    "forcing": {"kind": "harmonic-ramp", "wavevector": [1, 0]}})
        out = tmp_path / "out"
        assert cli.main(["fsi", "run", "--config", write_config(tmp_path, doc),
                         "--output", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["modes"], summary["modes_stepped"], summary["operators_factored"]) == (
            40, 2, 1)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_summary_holds_the_largest_invariants(self, tmp_path, monkeypatch, dim):
        # the run checks every snapshot once, and the summary holds each
        # measurement's largest value
        # the spy hands each measurement back sorted from the largest down
        seen, check = [], cli.check_invariants

        def spy(params, times, *fields):
            found = {key: np.sort(x)[::-1] for key, x in check(params, times, *fields).items()}
            seen.append((len(times), found))
            return found

        monkeypatch.setattr(cli, "check_invariants", spy)
        doc = cli.preset_config("fsi-single-mode")
        doc.update({"dim": dim, "n": 8, "m": 12, "dt": 1e-3, "t_end": 0.01,
                    "snapshot_stride": 5, "forcing": {"kind": "harmonic-ramp",
                                                      "wavevector": [1] * dim}})
        out = tmp_path / "out"
        assert cli.main(["fsi", "run", "--config", write_config(tmp_path, doc),
                         "--output", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        [(snapshots, found)] = seen
        assert snapshots == summary["snapshots"] == 3
        assert summary["invariants"] == {key: float(np.max(x)) for key, x in found.items()}
        assert set(summary["invariants"]) == {"div_norm", "grad_norm", "kinematic_gap",
                                              "horizontal_top_trace", "eta_mean"}
        assert found["grad_norm"][-1] == 0.0 < summary["invariants"]["grad_norm"]

    def test_unloaded_run_exits_0_with_zero_ledger(self, tmp_path):
        # amplitude 0 loads no mode: the run steps none and still writes
        # every artifact
        doc = cli.preset_config("fsi-single-mode")
        doc["forcing"] = {**doc["forcing"], "amplitude": 0.0}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["fsi", "run", "--config", write_config(tmp_path, doc),
                             "--output", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["terminal_work"] == 0.0
        assert summary["terminal_energy"] == 0.0
        assert (summary["modes"], summary["modes_stepped"], summary["operators_factored"]) == (
            9, 0, 0)
        assert not any(summary["invariants"].values())
        assert summary["energy_audit_ok"]


    def test_unresolved_wavevector_exits_2(self, tmp_path, capsys):
        doc = cli.preset_config("fsi-single-mode")
        doc.update({"n": 16, "m": 12, "dt": 1e-3, "t_end": 0.01,
                    "forcing": {"kind": "harmonic-ramp", "wavevector": [9]}})
        out = tmp_path / "out"
        rc = cli.main(["fsi", "run", "--config", write_config(tmp_path, doc),
                       "--output", str(out)])
        assert rc == 2
        assert "not resolved" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestRatesCommand:
    def test_mini_ladder(self, tmp_path, monkeypatch):
        studies = []
        study = verify.run_rate_study
        monkeypatch.setattr(verify, "run_rate_study",
                            lambda *a, **kw: studies.append(study(*a, **kw)) or studies[-1])
        doc = cli.preset_config("theorem-e0-kappa2")
        doc.update({"eps_list": [0.125, 0.0625, 0.03125], "n": 8, "m": 10,
                    "dt": 1e-3, "t_end": 0.05, "snapshot_stride": 10})
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        rc = cli.main(["verify", "rates", "--config", path, "--output", str(out)])
        assert rc == 0
        with open(out / "reports.csv") as fh:
            rows = fh.readlines()
        assert len(rows) == 4  # header + one row per thickness
        rates = json.loads((out / "rates.json").read_text())
        assert set(rates["rates"]) == {"velocity", "pressure", "displacement"}
        assert rates["energy_audit_ok"] is True
        for entry in rates["rates"].values():
            assert "slope" in entry and "r2" in entry and "pass" in entry
        # the displacement target kappa + 1/2, less a 0.3 margin
        assert rates["rates"]["displacement"]["threshold"] == 2.0 + 0.5 - 0.3
        ratios = [r.energy_ratio for r in studies[0].reports]
        assert rates["energy_ratio_spread"] == max(ratios) / min(ratios)
        # per ladder point, the ledger health that `fsi run` reports
        points = rates["points"]
        assert [p["eps"] for p in points] == [0.125, 0.0625, 0.03125]
        for point, ledger in zip(points, studies[0].ledgers):
            assert 0.0 <= point["max_identity_residual_rel"] <= 1e-12
            assert point["max_identity_residual_rel"] == max(ledger.identity_residual_rel())
            slack_rel = ledger.slack() / ledger.scale()
            assert point["min_slack_rel"] == min(slack_rel) >= 0.0
            assert 1 <= point["min_slack_step"] <= len(ledger)
            assert slack_rel[point["min_slack_step"] - 1] == point["min_slack_rel"]
        reports_csv(studies[0].reports, tmp_path / "oracle.csv")
        assert (out / "reports.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_chain_closure_once_per_ladder(self, tmp_path):
        # the reduced solution does not depend on eps, so neither does its
        # closure: rates.json holds the one value, which a reduced solve of
        # its own reproduces
        doc = preset_with("theorem-e0-kappa2", eps_list=[0.125, 0.0625, 0.03125], n=8, m=10,
                          dt=1e-3, t_end=0.05, snapshot_stride=10)
        cli.run(doc, output_dir=str(tmp_path / "out"))
        rates = json.loads((tmp_path / "out" / "rates.json").read_text())
        assert rates["chain_closure_error"] == self.closure(stride=10)

    def test_chain_closure_at_an_uneven_stride(self, tmp_path):
        # 50 steps at stride 20 keep t = 0, 0.02, 0.04 and 0.05
        doc = preset_with("theorem-e0-kappa2", eps_list=[0.125, 0.0625, 0.03125], n=8, m=10,
                          dt=1e-3, t_end=0.05, snapshot_stride=20)
        cli.run(doc, output_dir=str(tmp_path / "out"))
        rates = json.loads((tmp_path / "out" / "rates.json").read_text())
        assert rates["chain_closure_error"] == self.closure(stride=20)
        assert rates["energy_audit_ok"] is True

    @staticmethod
    def closure(stride):
        """The mini ladder's chain closure from a reduced solve of its own,
        checked to be roundoff of the reduced source."""
        grid, vn = lb.PeriodicGrid(dim=1, n=8), lb.VerticalNodes(10)
        model = lb.ModelParams(rho_f=40.0, rho_s=40.0, theta=20.0, eps=0.03125,
                               kappa=Fraction(2), dim=1)
        forcing = lb.harmonic_ramp_forcing(grid, vn, ramp_time=0.1)
        reduced = lb.solve_reduced(model, grid, vn, forcing, 0.05, 1e-3,
                                   snapshot_stride=stride)
        want = lb.LimitFields(reduced, model, forcing, vn).closure_error()
        _, source = rhs_term_norms(reduced, model, forcing, vn)
        assert want <= 1e-12 * source
        return want

    def test_one_setting_and_one_limit_map_per_ladder(self, tmp_path, monkeypatch):
        # a jobs = 1 ladder's points, reduced solve and chain closure share
        # one set of vertical operators and one set of limit fields
        counts = {"ChebOps": 0, "LimitFields": 0}
        init = lb.spectral.ChebOps.__init__

        def counting_init(ops, *args, **kwargs):
            counts["ChebOps"] += 1
            init(ops, *args, **kwargs)

        monkeypatch.setattr(lb.spectral.ChebOps, "__init__", counting_init)
        post_init = lb.LimitFields.__post_init__

        def counting_limit(limit):
            counts["LimitFields"] += 1
            post_init(limit)

        monkeypatch.setattr(lb.LimitFields, "__post_init__", counting_limit)
        doc = preset_with("theorem-e0-kappa2", eps_list=[0.125, 0.0625, 0.03125], n=8, m=10,
                          dt=1e-3, t_end=0.05, snapshot_stride=10)
        cli.run(doc, output_dir=str(tmp_path / "out"), jobs=1)
        assert counts == {"ChebOps": 1, "LimitFields": 1}

    @pytest.mark.parametrize("velocity, audit_ok, passes", [
        ((9.0, 0.5), True, [False, True, True]),  # steep enough, but r^2 too low
        ((2.0, 1.0), True, [False, True, True]),  # on the line, but too shallow
        ((9.0, 1.0), False, [True, True, True]),  # every rate passes, one audit fails
        ((2.7, 0.98), True, [True, True, True]),  # both thresholds are inclusive
    ])
    def test_pass_needs_slope_r2_and_audit(self, velocity, audit_ok, passes, tmp_path,
                                           monkeypatch):
        study = verify.run_rate_study

        def doctored(*args, **kwargs):
            result = study(*args, **kwargs)
            slope, r2 = velocity
            fits = {"velocity": replace(result.fits["velocity"], slope=slope, r2=r2),
                    "pressure": replace(result.fits["pressure"], slope=9.0, r2=1.0),
                    "displacement": replace(result.fits["displacement"], slope=9.0, r2=1.0)}
            audits = (replace(result.audits[0], ok=audit_ok),) + result.audits[1:]
            return replace(result, fits=fits, audits=audits)

        monkeypatch.setattr(verify, "run_rate_study", doctored)
        doc = preset_with("theorem-e0-kappa2", eps_list=[0.125, 0.0625, 0.03125], n=8, m=10,
                          dt=1e-3, t_end=0.05, snapshot_stride=10)
        cli.run(doc, output_dir=str(tmp_path / "out"))
        rates = json.loads((tmp_path / "out" / "rates.json").read_text())
        assert [rates["rates"][w]["pass"] for w in ("velocity", "pressure",
                                                    "displacement")] == passes
        assert rates["energy_audit_ok"] is audit_ok
        assert rates["pass"] is (all(passes) and audit_ok)

    def test_two_point_ladder_rejected_before_any_work(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(verify, "_ladder_points", lambda *args: calls.append(args))
        doc = preset_with("theorem-e0-kappa2", eps_list=[0.125, 0.0625])
        rc = cli.main(["verify", "rates", "--config", write_config(tmp_path, doc),
                       "--output", str(tmp_path / "out")])
        assert rc == 2
        assert len(calls) == 0

    def test_jobs_below_one_exits_2(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(verify, "_ladder_points", lambda *args: calls.append(args))
        out = tmp_path / "out"
        rc = cli.main(["verify", "rates", "--jobs", "0", "--output", str(out), "--config",
                       write_config(tmp_path, cli.preset_config("theorem-e0-kappa2"))])
        assert rc == 2
        assert "jobs" in capsys.readouterr().err
        assert len(calls) == 0
        assert not out.exists()

    def test_manifest_hash_stable(self, tmp_path):
        doc = cli.preset_config("theorem-e0-kappa2")
        doc.update({"eps_list": [0.125, 0.0625, 0.03125], "n": 8, "m": 10,
                    "dt": 1e-3, "t_end": 0.05, "snapshot_stride": 10})
        path = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["verify", "rates", "--config", path, "--output", str(out1)]) == 0
        assert cli.main(["verify", "rates", "--config", path, "--output", str(out2)]) == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1 == m2
        assert (out1 / "reports.csv").read_bytes() == (out2 / "reports.csv").read_bytes()
        assert (out1 / "rates.json").read_bytes() == (out2 / "rates.json").read_bytes()


# One small document per mode that writes snapshot series, plus a 2D fsi run.
ARTIFACT_DOCUMENTS = {
    "fsi-1d": preset_with("fsi-single-mode", n=8, m=12, t_end=0.01, snapshot_stride=5),
    "fsi-2d": preset_with("fsi-single-mode", dim=2, n=8, m=10, t_end=0.004,
                          snapshot_stride=2, forcing={"kind": "harmonic-ramp"}),
    "thinfilm": preset_with("stf-bending", n=32, steps=6, snapshot_stride=3),
    "reynolds": preset_with("reynolds-slider", n=64),
}


class TestArtifacts:
    @pytest.mark.parametrize("label", sorted(ARTIFACT_DOCUMENTS))
    def test_every_file_is_renamed_into_place(self, label, tmp_path, monkeypatch):
        targets = []
        rename = os.replace

        def recording_replace(src, dst):
            targets.append(os.path.basename(dst))
            rename(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        manifest = cli.run(ARTIFACT_DOCUMENTS[label], output_dir=str(tmp_path / "out"))
        assert sorted(targets) == sorted(manifest["files"] + ["manifest.json"])
        assert sorted(os.listdir(tmp_path / "out")) == sorted(targets)  # no temp files left

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640)],
                             ids=["022", "027"])
    def test_files_keep_umask_mode(self, umask, mode, tmp_path):
        previous = os.umask(umask)
        try:
            cli.run(ARTIFACT_DOCUMENTS["fsi-1d"], output_dir=str(tmp_path / "out"))
        finally:
            os.umask(previous)
        modes = {f.name: f.stat().st_mode & 0o777 for f in (tmp_path / "out").iterdir()}
        assert len(modes) > 10
        assert set(modes.values()) == {mode}, modes

    @pytest.mark.parametrize("label, names", [("fsi-1d", {"v1", "v3"}),
                                              ("fsi-2d", {"v1", "v2", "v3"})])
    def test_velocity_series_named_by_axis(self, label, names, tmp_path):
        # the vertical component is v3 in 1D as in 2D
        manifest = cli.run(ARTIFACT_DOCUMENTS[label], output_dir=str(tmp_path / "out"))
        assert {f.split("_")[0] for f in manifest["files"] if f.startswith("v")} == names

    def test_trajectory_csv_matches_row_writer(self, tmp_path):
        # integrate the document's film keeping the initial state and every
        # step, then rebuild the rows the way the CLI selects them: every
        # third one
        cfg = cli.parse_config(ARTIFACT_DOCUMENTS["thinfilm"])[1]
        grid = PeriodicGrid(1, cfg.n)
        snaps = thinfilm.evolve(cfg.model, grid, cfg.eta0.sample(grid), cfg.dt,
                                cfg.steps).snapshots
        cli.run(ARTIFACT_DOCUMENTS["thinfilm"], output_dir=str(tmp_path / "out"))
        assert len(snaps.times) == 7
        rows = list(zip(snaps.times[::3].tolist(), snaps.eta[::3]))
        trajectory_csv(rows, 32, tmp_path / "oracle.csv")
        assert ((tmp_path / "out" / "trajectory.csv").read_bytes()
                == (tmp_path / "oracle.csv").read_bytes())

    def test_energy_csv_holds_the_run_series(self, tmp_path):
        # one row per step, the initial one first, each number as the run
        # holds it
        cfg = cli.parse_config(ARTIFACT_DOCUMENTS["thinfilm"])[1]
        grid = PeriodicGrid(1, cfg.n)
        run = thinfilm.evolve(cfg.model, grid, cfg.eta0.sample(grid), cfg.dt, cfg.steps)
        cli.run(ARTIFACT_DOCUMENTS["thinfilm"], output_dir=str(tmp_path / "out"))
        lines = (tmp_path / "out" / "energy.csv").read_text().splitlines()
        assert lines == ["t,energy", *(f"{t!r},{e!r}" for t, e in
                                       zip(run.t.tolist(), run.energy.tolist()))]
