import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mgnet
from mgnet.cli import run_cli, table_preset


class TestVerifyCommand:
    def test_all_theorems_pass(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(["verify", "--theorem", "all", "--seed", "7",
                        "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        assert len(report["reports"]) == 4
        assert {r["theorem_id"] for r in report["reports"]} == \
            {"mg0", "dual", "sigma", "embed"}
        printed = capsys.readouterr().out
        assert printed.count("pass") == 4

    def test_single_theorem(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["verify", "--theorem", "sigma", "--seed", "1",
                        "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["reports"]) == 1

    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["verify", "--theorem", "all", "--seed", "3", "--out", str(a)])
        run_cli(["verify", "--theorem", "all", "--seed", "3", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestSolvePoissonCommand:
    def test_writes_monotone_history_and_small_error(self, tmp_path):
        out = tmp_path / "results.json"
        code = run_cli(["solve-poisson", "--size", "17", "--levels", "3",
                        "--nu", "2", "--omega", "0.8", "--cycles", "50",
                        "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        hist = payload["residual_history"]
        assert all(b < a for a, b in zip(hist, hist[1:]))
        assert payload["relative_error_vs_direct"] < 1e-8
        assert payload["converged"] is True

    def test_unconverged_solve_is_check_failure(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        code = run_cli(["solve-poisson", "--size", "17", "--levels", "3",
                        "--cycles", "1", "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["converged"] is False
        assert "did not converge after 1 cycles" in capsys.readouterr().err

    def test_above_65_skips_direct_comparison(self, tmp_path, capsys):
        # the backslash cycle reduces the residual by about 0.86 per cycle here
        out = tmp_path / "results.json"
        assert run_cli(["solve-poisson", "--size", "129", "--levels", "5",
                        "--cycles", "200", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert payload["relative_error_vs_direct"] is None
        assert "direct-solve comparison skipped" in capsys.readouterr().out

    def test_zero_cycles_is_usage_error(self, tmp_path):
        assert run_cli(["solve-poisson", "--cycles", "0",
                        "--out", str(tmp_path / "r.json")]) == 2

    def test_bad_size_is_usage_error(self, tmp_path):
        code = run_cli(["solve-poisson", "--size", "16",
                        "--out", str(tmp_path / "r.json")])
        assert code == 2


class TestUsage:
    def test_no_arguments_prints_help(self, capsys):
        assert run_cli([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli(["verify", "--frobnicate"]) == 2

    def test_unknown_command_is_usage_error(self):
        assert run_cli(["transmogrify"]) == 2


class TestCountParams:
    def test_runs_as_module(self):
        src = Path(mgnet.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "mgnet.cli", "count-params",
                               "--model", "resnet18"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["model"] == "resnet18"

    def test_resnet18_near_published(self, capsys):
        assert run_cli(["count-params", "--model", "resnet18", "--classes", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["params"] - 11.2e6) / 11.2e6 < 0.02

    def test_preset_names(self, capsys):
        assert run_cli(["count-params", "--model", "mgnet-2-256-512-pi2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["params"] - 17.7e6) / 17.7e6 < 0.05

    def test_mgnet_requires_config(self, capsys):
        assert run_cli(["count-params", "--model", "mgnet"]) == 2

    def test_mgnet_with_config_file(self, tmp_path, capsys):
        cfg = table_preset("mgnet-2-256-256-pi0")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert run_cli(["count-params", "--model", "mgnet",
                        "--config", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["params"] - 7.1e6) / 7.1e6 < 0.05


class TestTrainEvalCommands:
    def test_train_then_eval_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "J": 2, "nu": [1, 1], "c_u": 4, "c_f": 4, "pi_variant": "pi1",
            "use_batchnorm": True, "f_in_variant": "conv_relu",
            "in_channels": 1, "classes": 2, "kernel_half_width": 1,
            "smoothing_variant": "single", "extractor_strategy": "variable",
            "shared_data_map": False}))
        run_dir = tmp_path / "run"
        code = run_cli(["train", "--config", str(cfg_path), "--data", "synthetic",
                        "--out", str(run_dir), "--epochs", "2",
                        "--batch-size", "50", "--lr", "0.05", "--seed", "0"])
        assert code == 0
        metrics = [json.loads(line) for line in
                   (run_dir / "metrics.ndjson").read_text().splitlines()]
        assert [m["epoch"] for m in metrics] == [1, 2]
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["final"]["epoch"] == 2
        assert (run_dir / "checkpoint.mgnet").exists()

        capsys.readouterr()
        code = run_cli(["eval", "--checkpoint", str(run_dir / "checkpoint.mgnet"),
                        "--data", "synthetic", "--seed", "1"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert 0.0 <= result["accuracy"] <= 1.0
        assert result["items"] == 400

    def test_zero_epochs_is_usage_error(self, tmp_path, capsys):
        assert run_cli(["train", "--epochs", "0", "--out", str(tmp_path / "run")]) == 2
        assert "error: epochs must be >= 1" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_training_is_check_failure(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"J": 2, "nu": [1, 1], "c_u": 4, "c_f": 4,
                                        "in_channels": 1, "classes": 2}))
        run_dir = tmp_path / "run"
        code = run_cli(["train", "--config", str(cfg_path), "--out", str(run_dir),
                        "--epochs", "4", "--batch-size", "50", "--lr", "1e6"])
        assert code == 1
        assert "error: training loss is nan" in capsys.readouterr().err
        metrics = [json.loads(line) for line in
                   (run_dir / "metrics.ndjson").read_text().splitlines()]
        assert metrics and all(np.isfinite(m["loss"]) for m in metrics)
        assert not (run_dir / "checkpoint.mgnet").exists()

    def test_eval_without_config_is_input_error(self, tmp_path, capsys):
        ckpt = tmp_path / "model.mgnet"
        from mgnet.data_io import save_checkpoint
        save_checkpoint(ckpt, {})
        assert run_cli(["eval", "--checkpoint", str(ckpt)]) == 2

    def test_train_on_cifar_file(self, tmp_path, capsys):
        # one constructed 20-record binary batch
        payload = bytearray()
        rng = np.random.default_rng(0)
        for i in range(20):
            payload.append(i % 2)
            payload.extend(rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes())
        data_path = tmp_path / "data_batch.bin"
        data_path.write_bytes(bytes(payload))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "J": 2, "nu": [1, 1], "c_u": 3, "c_f": 3, "pi_variant": "pi0",
            "use_batchnorm": True, "f_in_variant": "conv_relu",
            "in_channels": 3, "classes": 2, "kernel_half_width": 1,
            "smoothing_variant": "single", "extractor_strategy": "variable",
            "shared_data_map": False}))
        code = run_cli(["train", "--config", str(cfg_path), "--data", str(data_path),
                        "--out", str(tmp_path / "run"), "--epochs", "1",
                        "--batch-size", "10", "--lr", "0.01"])
        assert code == 0
