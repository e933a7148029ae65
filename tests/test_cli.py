import json
import os
from fractions import Fraction

import pytest

from lubelastic import cli, scaling, thinfilm, verify
from lubelastic.errors import AssemblyError, DegenerateFitError, UsageError

from oracles import hand_built_rate_config, reports_csv, trajectory_csv


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
            merged = cli.validate_config(doc)
            assert merged["mode"] == cli.PRESETS[name]["mode"]


class TestConfigValidation:
    def test_unknown_key_rejected(self):
        doc = cli.preset_config("reynolds-slider")
        doc["vD"] = 2.0  # typo for v_D
        with pytest.raises(UsageError, match="unknown configuration keys"):
            cli.validate_config(doc)

    def test_version_required(self):
        with pytest.raises(UsageError, match="version"):
            cli.validate_config({"mode": "reynolds"})

    def test_mode_preset_conflict(self):
        doc = {"version": 1, "mode": "fsi", "preset": "reynolds-slider"}
        with pytest.raises(UsageError):
            cli.validate_config(doc)

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


# config_hash of validate_config(preset_config(name)), recorded before the
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
    "theorem-e0-kappa52": "5f78dccc93a088934482c1f4690e288e89b1246237df4ff9f79e367956a8ba4e",
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
    "rates-ramp-time-zero": preset_with("theorem-e0-kappa2", ramp_time=0.0),
    "rates-component-above-dim": preset_with("theorem-e0-kappa2", component=2),
    "eta0-wavenumber-aliased": preset_with("reynolds-slider", n=64, eta0={
        "kind": "one-plus-sin", "amplitude": 0.5, "wavenumber": 100}),
}
_COMMAND = {"thinfilm": ["thinfilm", "run"], "fsi": ["fsi", "run"],
            "reynolds": ["reynolds", "solve"], "rates": ["verify", "rates"]}


@pytest.mark.parametrize("label", sorted(BAD_DOCUMENTS))
def test_bad_document_exits_2(label, tmp_path, capsys):
    doc = BAD_DOCUMENTS[label]
    out = tmp_path / "out"
    rc = cli.main(_COMMAND[doc["mode"]] + ["--config", write_config(tmp_path, doc),
                                           "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


class TestDecode:
    def test_reynolds_preset_decodes(self):
        cfg = cli.parse_config(cli.preset_config("reynolds-slider"))[1]
        assert cfg == cli.ReynoldsRun(n=256, eta0=cli.WaveProfile("one-plus-sin", 0.5, 1),
                                      v_D=1.0, nu=1.0)

    def test_unknown_key_without_preset_rejected(self):
        with pytest.raises(UsageError, match="bogus"):
            cli.validate_config({"version": 1, "mode": "reynolds", "bogus": 1})

    def test_preset_hashes_unchanged(self):
        assert set(PRESET_HASHES) == set(cli.PRESETS)
        for name, digest in PRESET_HASHES.items():
            assert cli.config_hash(cli.validate_config(cli.preset_config(name))) == digest

    @pytest.mark.parametrize("name", ["theorem-e0-kappa1", "theorem-e0-kappa2",
                                      "theorem-e0-kappa52"])
    def test_rates_preset_matches_hand_built_config(self, name):
        doc = cli.preset_config(name)
        assert cli.parse_config(doc)[1] == hand_built_rate_config(doc)

    def test_mode_defaults(self):
        fsi = cli.decode(cli.FsiRun, {"kappa": "2", "eps": 0.125, "n": 16, "m": 20,
                                      "dt": 1e-3, "t_end": 0.1})
        assert (fsi.theta, fsi.snapshot_stride, fsi.forcing) == (0.0, 1, None)
        film = {"alpha": 5, "n": 32, "dt": 1e-7, "steps": 35,
                "eta0": {"kind": "cosine", "amplitude": 0.1}}
        cfg = cli.decode(cli.ThinFilmRun, film)
        assert (cfg.v_D, cfg.snapshot_stride, cfg.eta0.wavenumber) == (0.0, 3, 1)
        assert cli.decode(cli.ThinFilmRun, {**film, "steps": 5}).snapshot_stride == 1
        assert cli.decode(cli.ReynoldsRun, {"n": 64, "eta0": film["eta0"]}).v_D == 1.0
        assert cli.parse_config({"version": 1, "mode": "rates"})[1] == verify.RateStudyConfig()

    def test_scalar_types(self):
        flat = {"kind": "constant", "value": 1}
        ok = cli.decode(cli.ReynoldsRun, {"n": 64, "v_D": 2, "nu": 0.5, "eta0": flat})
        assert ok.v_D == 2.0 and isinstance(ok.v_D, float)
        assert ok.eta0 == cli.ConstantProfile("constant", 1.0)
        for bad in (True, "1", 1e400, float("-inf")):
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
            assert cli.decode(scaling.ModelParams, {"kappa": kappa}).kappa == want
        for kappa in (2.5, "1/0", True):
            with pytest.raises(UsageError, match="kappa"):
                cli.decode(scaling.ModelParams, {"kappa": kappa})


class TestBreakdownPath:
    def test_nonpositive_initial_profile_exits_3(self, tmp_path):
        doc = cli.preset_config("stf-bending")
        doc.update({"n": 32, "steps": 5, "snapshot_stride": 1,
                    "eta0": {"kind": "one-plus-sin", "amplitude": 1.5,
                             "wavenumber": 1}})
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        rc = cli.main(["thinfilm", "run", "--config", path, "--output", str(out)])
        assert rc == 3
        diag = json.loads((out / "breakdown.json").read_text())
        assert diag["error"] == "numerical breakdown"


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

    def test_resolution_override(self, tmp_path):
        path = write_config(tmp_path, cli.preset_config("reynolds-slider"))
        out = tmp_path / "out"
        rc = cli.main(["reynolds", "solve", "--config", path, "--output", str(out),
                       "--resolution", "64"])
        assert rc == 0
        with open(out / "pressure.csv") as fh:
            rows = fh.readlines()
        assert len(rows) == 65  # header + 64 nodes


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
        with open(out / "trajectory.csv") as fh:
            header = fh.readline().split(",")
        assert header[0] == "t"
        assert len(header) == 33

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
        reports_csv(studies[0].reports, tmp_path / "oracle.csv")
        assert (out / "reports.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_two_point_ladder_rejected_before_any_work(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(verify, "_ladder_point", lambda *args: calls.append(args))
        doc = preset_with("theorem-e0-kappa2", eps_list=[0.125, 0.0625])
        rc = cli.main(["verify", "rates", "--config", write_config(tmp_path, doc),
                       "--output", str(tmp_path / "out")])
        assert rc == 2
        assert len(calls) == 0

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

    def test_trajectory_csv_matches_row_writer(self, tmp_path, monkeypatch):
        # record the initial state and every state the integrator returns, then
        # rebuild the rows the way the CLI selects them: every third one
        states = []
        step = thinfilm.step

        def recording_step(model, state, dt):
            if not states:
                states.append(state)
            states.append(step(model, state, dt))
            return states[-1]

        monkeypatch.setattr(thinfilm, "step", recording_step)
        cli.run(ARTIFACT_DOCUMENTS["thinfilm"], output_dir=str(tmp_path / "out"))
        assert len(states) == 7
        rows = [(s.t, s.eta.values) for s in states[::3]]
        trajectory_csv(rows, 32, tmp_path / "oracle.csv")
        assert ((tmp_path / "out" / "trajectory.csv").read_bytes()
                == (tmp_path / "oracle.csv").read_bytes())
