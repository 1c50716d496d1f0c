import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mgnet
from mgnet.cli import run_cli, table_preset
from mgnet.data_io import save_checkpoint
from mgnet.mgnet_model import MgNetConfig, count_params, init_weights

from conftest import cifar_file


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
        # with the exact coarse solve this converges in under 30 cycles
        out = tmp_path / "results.json"
        assert run_cli(["solve-poisson", "--size", "129", "--levels", "5",
                        "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert payload["relative_error_vs_direct"] is None
        assert "direct-solve comparison skipped" in capsys.readouterr().out

    def test_records_convergence_factor(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        assert run_cli(["solve-poisson", "--size", "33", "--levels", "4",
                        "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        f = np.random.default_rng(0).standard_normal((33, 33))
        final = payload["residual_history"][-1] / np.linalg.norm(f)
        assert payload["convergence_factor"] == pytest.approx(
            final ** (1.0 / payload["cycles_run"]), rel=1e-12)
        assert 0.0 < payload["convergence_factor"] < 0.6
        assert f"convergence factor {payload['convergence_factor']:.3f}" in \
            capsys.readouterr().out

    def test_too_shallow_hierarchy_is_usage_error(self, tmp_path, capsys):
        assert run_cli(["solve-poisson", "--size", "129", "--levels", "2",
                        "--out", str(tmp_path / "r.json")]) == 2
        assert "at least 3 levels" in capsys.readouterr().err

    def test_six_levels_at_65_converge(self, tmp_path):
        # coarse boundary diagonals reach 23.4 here; Jacobi weighted by
        # omega / 4 instead of omega / diag diverges
        out = tmp_path / "results.json"
        assert run_cli(["solve-poisson", "--size", "65", "--levels", "6",
                        "--out", str(out)]) == 0
        assert json.loads(out.read_text())["converged"] is True

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

    @pytest.mark.parametrize("command", [["verify", "--theorem", "mg0"], ["solve-poisson"],
                                         ["train"], ["eval", "--checkpoint", "model.mgnet"]],
                             ids=lambda c: c[0])
    def test_negative_seed_is_usage_error(self, capsys, command):
        assert run_cli(command + ["--seed", "-1"]) == 2
        assert "error: argument --seed: must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve-poisson", "--nu", "0", "--out", "{tmp}/r.json"],
        ["solve-poisson", "--nu", "-1", "--out", "{tmp}/r.json"],
        ["solve-poisson", "--rtol", "nan", "--out", "{tmp}/r.json"],
        ["solve-poisson", "--rtol", "1.5", "--out", "{tmp}/r.json"],
        ["count-params", "--model", "mgnet", "--config", "{tmp}/cfg.json"],
        ["train", "--lr", "nan", "--out", "{tmp}/run"],
        ["count-params", "--model", "resnet18", "--classes", "-5"],
    ], ids=["nu-zero", "nu-negative", "rtol-nan", "rtol-above-one", "negative-half-width",
            "lr-nan", "resnet-negative-classes"])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, argv):
        (tmp_path / "cfg.json").write_text(
            json.dumps({"J": 2, "nu": [1, 1], "kernel_half_width": -1}))
        assert run_cli([a.format(tmp=tmp_path) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")


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

    @pytest.mark.parametrize("text", [
        '{"J": 2, "nu": [1, 1], "bogus": 1}', '{"J": 2, "nu": 3}', '[1, 2]', '{bad json',
        '{"c_u": 2.5}', '{"J": 2, "nu": [1.7, 1]}', '{"kernel_half_width": 1.5}',
        '{"use_batchnorm": "no"}', '{"J": 0, "nu": []}', '{"in_channels": 0}',
        '{"classes": -3}', '{"c_u": NaN}', '{"c_f": 1e400}',
    ], ids=["unknown-key", "scalar-nu", "list", "malformed", "float-channels", "float-nu",
            "float-half-width", "string-flag", "no-levels", "no-input-channels",
            "negative-classes", "nan-channels", "infinite-channels"])
    def test_bad_config_file_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert run_cli(["count-params", "--model", "mgnet", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_classes_counted_as_printed(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"J": 2, "nu": [1, 1], "classes": 3}))
        for argv, classes in ((["--classes", "100"], 100), ([], 3)):
            assert run_cli(["count-params", "--model", "mgnet", "--config", str(path)]
                           + argv) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["classes"] == classes
            assert payload["params"] == count_params(MgNetConfig(J=2, nu=(1, 1),
                                                                 classes=classes))

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_eval_loss_is_check_failure(self, tmp_path, capsys):
        cfg = MgNetConfig(J=2, nu=(1, 1), c_u=4, c_f=4, in_channels=1, classes=2)
        (tmp_path / "config.json").write_text(json.dumps(cfg.to_dict()))
        state = init_weights(cfg).state_dict()
        state["head/bias"] = np.array([1e308, -1e308])  # finite logits, infinite loss
        save_checkpoint(tmp_path / "checkpoint.mgnet", state)
        assert run_cli(["eval", "--checkpoint", str(tmp_path / "checkpoint.mgnet")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: evaluation loss is inf" in captured.err

    def test_eval_without_config_is_input_error(self, tmp_path, capsys):
        ckpt = tmp_path / "model.mgnet"
        from mgnet.data_io import save_checkpoint
        save_checkpoint(ckpt, {})
        assert run_cli(["eval", "--checkpoint", str(ckpt)]) == 2

    def test_train_on_cifar_file(self, tmp_path, capsys):
        data_path = cifar_file(tmp_path / "data_batch.bin", [i % 2 for i in range(20)])
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

    @pytest.mark.parametrize("fmt,label_bytes,classes", [("cifar10", 1, 10),
                                                         ("cifar100", 2, 100)])
    def test_default_model_follows_cifar_data(self, tmp_path, fmt, label_bytes, classes):
        data_path = cifar_file(tmp_path / "data_batch.bin",
                               [(7 * i) % classes for i in range(20)], label_bytes)
        run_dir = tmp_path / "run"
        assert run_cli(["train", "--data", str(data_path), "--data-format", fmt,
                        "--out", str(run_dir), "--epochs", "1", "--batch-size", "20"]) == 0
        cfg = json.loads((run_dir / "config.json").read_text())
        assert (cfg["in_channels"], cfg["classes"]) == (3, classes)

    def test_labels_beyond_the_model_classes_are_input_errors(self, tmp_path, capsys):
        data_path = cifar_file(tmp_path / "data_batch.bin", [5] * 4)
        cfg = MgNetConfig(J=2, nu=(1, 1), c_u=4, c_f=4, in_channels=3, classes=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        ckpt = tmp_path / "model.mgnet"
        save_checkpoint(ckpt, init_weights(cfg).state_dict())
        for argv in (["train", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                      "--epochs", "1"],
                     ["eval", "--checkpoint", str(ckpt), "--config", str(cfg_path)]):
            assert run_cli(argv + ["--data", str(data_path)]) == 2
            assert "error: label 5 is outside [0, 2)" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("fields,message", [
        ({"classes": 2}, "label 5 is outside [0, 2)"),
        ({"in_channels": 1}, "images have 3 channels but the model takes in_channels=1"),
    ], ids=["labels", "channels"])
    def test_rejected_train_run_writes_nothing(self, tmp_path, capsys, fields, message):
        data_path = cifar_file(tmp_path / "data_batch.bin", [5] * 4)
        cfg = MgNetConfig(**dict(dict(J=2, nu=(1, 1), c_u=4, c_f=4, in_channels=3,
                                      classes=10), **fields))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        run_dir = tmp_path / "out" / "run"
        assert run_cli(["train", "--config", str(cfg_path), "--data", str(data_path),
                        "--out", str(run_dir), "--epochs", "1"]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_data_file_is_input_error(self, tmp_path, capsys, command):
        data_path = tmp_path / "empty.bin"
        data_path.write_bytes(b"")
        cfg = MgNetConfig(J=2, nu=(1, 1), c_u=4, c_f=4, in_channels=3, classes=10)
        (tmp_path / "config.json").write_text(json.dumps(cfg.to_dict()))
        ckpt = tmp_path / "checkpoint.mgnet"
        save_checkpoint(ckpt, init_weights(cfg).state_dict())
        argv = {"train": ["train", "--out", str(tmp_path / "run")],
                "eval": ["eval", "--checkpoint", str(ckpt)]}[command]
        assert run_cli(argv + ["--data", str(data_path)]) == 2
        assert "no CIFAR records" in capsys.readouterr().err
