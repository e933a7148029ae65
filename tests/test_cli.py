import json
import os

import numpy as np
import pytest

from lubelastic import cli, verify
from lubelastic.errors import AssemblyError, DegenerateFitError, UsageError


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


class TestExperimentConfig:
    def test_from_preset(self):
        cfg = cli.ExperimentConfig.from_preset("reynolds-slider")
        assert cfg.mode == "reynolds"
        assert cfg.params["n"] == 256
        assert "version" not in cfg.params

    def test_run_accepts_config_object(self, tmp_path):
        cfg = cli.ExperimentConfig.from_preset("reynolds-slider")
        manifest = cli.run(cfg, output_dir=str(tmp_path / "out"))
        assert "pressure.csv" in manifest["files"]

    def test_invalid_document_rejected(self):
        with pytest.raises(UsageError):
            cli.ExperimentConfig({"version": 1, "mode": "reynolds", "bogus": 1})


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
    def test_mini_ladder(self, tmp_path):
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
