from __future__ import annotations

import json

import numpy as np
import pytest

from arclab import cli
from arclab.checkpoint import load, save
from arclab.errors import ConfigError


def write_config(tmp_path, **overrides):
    doc = {
        "backbone": {"image_size": 8, "patch_size": 4, "channels": 1, "embed_dim": 16,
                     "layers": 2, "heads": 2, "classes": 4},
        "arc": {"bottleneck": 4, "dropout_rate": 0.0},
        "train": {"lr": 0.01, "epochs": 3, "batch_size": 8, "warmup_epochs": 1, "seed": 3},
        "task": {"classes": 4, "image_size": 8, "channels": 1, "noise_sigma": 0.0,
                 "train_count": 16, "eval_count": 8},
        "io": {"seed": 7},
    }
    for section, keys in overrides.items():
        doc.setdefault(section, {}).update(keys)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestRunConfig:
    def test_defaults_materialized(self, tmp_path) -> None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"arc": {"bottleneck": 4}}))
        cfg = cli.load_run_config(path)
        doc = cfg.as_dict()
        assert doc["backbone"]["embed_dim"] == 16
        assert doc["arc"]["sharing"] == "intra_inter"
        assert doc["train"]["schedule"] == "cosine"
        assert doc["io"]["seed"] == 0

    def test_unknown_key_rejected_by_name(self, tmp_path) -> None:
        path = write_config(tmp_path, train={"learning_rate": 0.1})
        with pytest.raises(ConfigError, match="learning_rate"):
            cli.load_run_config(path)

    def test_unknown_section_rejected(self, tmp_path) -> None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"optimizer": {}}))
        with pytest.raises(ConfigError, match="optimizer"):
            cli.load_run_config(path)

    def test_shape_cross_check(self, tmp_path) -> None:
        path = write_config(tmp_path, task={"image_size": 16})
        with pytest.raises(ConfigError, match="backbone input"):
            cli.load_run_config(path)

    @pytest.mark.parametrize("doc, where, expected", [
        ({"arc": {"bottleneck": "4"}}, "arc.bottleneck", "an integer"),
        ({"arc": {"bottleneck": 4.5}}, "arc.bottleneck", "an integer"),
        ({"arc": {"positions": "before_mha"}}, "arc.positions", "a list of strings"),
        ({"train": {"batch_size": True}}, "train.batch_size", "an integer"),
    ])
    def test_mistyped_value_exit_2(self, tmp_path, capsys, doc, where, expected) -> None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        (value,) = next(iter(doc.values())).values()
        assert f"{where} must be {expected}, got {value!r}" in err

    def test_digest_stable_under_out_dir(self, tmp_path) -> None:
        a = cli.load_run_config(write_config(tmp_path))
        b = cli.load_run_config(write_config(tmp_path, io={"out_dir": "elsewhere"}))
        assert a.digest() == b.digest()


class TestCommands:
    def test_count_prints_value(self, capsys) -> None:
        rc = cli.main(["count", "--method", "arc", "--D", "768", "--L", "12",
                       "--Dprime", "50"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "96432" in out

    def test_count_sweep_csv(self, tmp_path, capsys) -> None:
        csv_path = tmp_path / "t.csv"
        rc = cli.main(["count", "--method", "arc", "--Dprime", "50",
                       "--sweep", "backbones", "--csv", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "method,label,D,L,finetune,inference"
        assert len(lines) == 4

    def test_count_missing_knob_is_config_error(self, capsys) -> None:
        rc = cli.main(["count", "--method", "arc"])
        assert rc == cli.EXIT_CONFIG
        assert "bottleneck" in capsys.readouterr().err

    def test_train_unknown_key_exit_2(self, tmp_path, capsys) -> None:
        path = write_config(tmp_path, train={"momentum": 0.9})
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_CONFIG
        assert "momentum" in capsys.readouterr().err

    def test_train_fuse_verify_pipeline(self, tmp_path, capsys) -> None:
        config = write_config(tmp_path)
        run_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(run_dir)]) == 0
        assert (run_dir / "checkpoint.arcl").exists()
        assert (run_dir / "loss.csv").exists()
        echoed = json.loads((run_dir / "config.json").read_text())
        assert echoed["arc"]["bottleneck"] == 4

        fused_path = tmp_path / "fused.arcl"
        assert cli.main(["fuse", "--checkpoint", str(run_dir / "checkpoint.arcl"),
                         "--out", str(fused_path)]) == 0
        header, _ = load(fused_path)
        assert header.fused is True

        rc = cli.main(["verify", "--checkpoint", str(run_dir / "checkpoint.arcl"),
                       "--fused", str(fused_path), "--trials", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_fuse_and_verify_draw_no_bank(self, tmp_path, capsys, monkeypatch) -> None:
        config = write_config(tmp_path)
        run_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(run_dir)]) == 0

        def no_draws(*args):
            raise AssertionError("init_adapters called outside train")

        monkeypatch.setattr(cli, "init_adapters", no_draws)
        fused_path = tmp_path / "fused.arcl"
        assert cli.main(["fuse", "--checkpoint", str(run_dir / "checkpoint.arcl"),
                         "--out", str(fused_path)]) == 0
        assert cli.main(["verify", "--checkpoint", str(run_dir / "checkpoint.arcl"),
                         "--fused", str(fused_path), "--trials", "4"]) == 0

    def test_verify_detects_corruption(self, tmp_path, capsys) -> None:
        config = write_config(tmp_path)
        run_dir = tmp_path / "run"
        cli.main(["train", "--config", str(config), "--out", str(run_dir)])
        fused_path = tmp_path / "fused.arcl"
        cli.main(["fuse", "--checkpoint", str(run_dir / "checkpoint.arcl"),
                  "--out", str(fused_path)])
        from arclab.checkpoint import load as ck_load, save as ck_save
        header, tensors = ck_load(fused_path)
        tensors["enc.1.ffn.w1"][0, 0] += 1e-3
        ck_save(fused_path, tensors, header.config_digest, fused=True)
        rc = cli.main(["verify", "--checkpoint", str(run_dir / "checkpoint.arcl"),
                       "--fused", str(fused_path), "--trials", "8"])
        assert rc == cli.EXIT_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_verify_rejects_mismatched_config(self, tmp_path, capsys) -> None:
        config = write_config(tmp_path)
        run_dir = tmp_path / "run"
        cli.main(["train", "--config", str(config), "--out", str(run_dir)])
        other_dir = tmp_path / "other"
        other_dir.mkdir()
        other = write_config(other_dir, io={"seed": 99})
        rc = cli.main(["verify", "--checkpoint", str(run_dir / "checkpoint.arcl"),
                       "--fused", str(run_dir / "checkpoint.arcl"),
                       "--config", str(other)])
        assert rc == cli.EXIT_CONFIG

    def test_spectrum_command(self, tmp_path, capsys) -> None:
        config = write_config(tmp_path, arc={"variant": "full_rank", "bottleneck": 4})
        run_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(run_dir)]) == 0
        out_dir = tmp_path / "spec"
        rc = cli.main(["spectrum", "--checkpoint", str(run_dir / "checkpoint.arcl"),
                       "--bins", "10", "--out", str(out_dir)])
        assert rc == 0
        assert (out_dir / "spectrum_summary.csv").exists()
        assert (out_dir / "spectrum_layer1_mha.csv").exists()

    def test_spectrum_rejects_bottleneck_bank(self, tmp_path, capsys) -> None:
        config = write_config(tmp_path)
        run_dir = tmp_path / "run"
        cli.main(["train", "--config", str(config), "--out", str(run_dir)])
        rc = cli.main(["spectrum", "--checkpoint", str(run_dir / "checkpoint.arcl"),
                       "--out", str(tmp_path / "s")])
        assert rc == cli.EXIT_CONFIG

    def test_spectrum_non_finite_delta_exit_3(self, tmp_path, capfd) -> None:
        config = write_config(tmp_path, arc={"variant": "full_rank", "bottleneck": 4})
        run_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(run_dir)]) == 0
        ckpt = run_dir / "checkpoint.arcl"
        header, tensors = load(ckpt)
        tensors["arc.mha.2.delta"][1, 2] = np.inf
        tensors["arc.ffn.2.delta"][0, 0] = np.nan
        save(ckpt, tensors, header.config_digest)
        capfd.readouterr()
        out_dir = tmp_path / "spec"
        rc = cli.main(["spectrum", "--checkpoint", str(ckpt), "--out", str(out_dir)])
        err = capfd.readouterr().err
        assert rc == cli.EXIT_NUMERICAL
        assert "layer 2 group mha" in err and "non-finite" in err
        assert "DLASCL" not in err
        assert not (out_dir / "spectrum_summary.csv").exists()

    def test_fuse_non_finite_adapter_exit_3(self, tmp_path, capsys) -> None:
        config = write_config(tmp_path)
        run_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(run_dir)]) == 0
        ckpt = run_dir / "checkpoint.arcl"
        header, tensors = load(ckpt)
        tensors["arc.ffn.1.bias"][0, 0] = np.inf
        save(ckpt, tensors, header.config_digest)
        capsys.readouterr()
        fused = tmp_path / "fused.arcl"
        rc = cli.main(["fuse", "--checkpoint", str(ckpt), "--out", str(fused)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_NUMERICAL
        assert "'arc.ffn.1.bias'" in err and "non-finite" in err
        assert not fused.exists()

    def test_gradcheck_command(self, tmp_path, capsys) -> None:
        config = write_config(tmp_path)
        rc = cli.main(["gradcheck", "--config", str(config), "--tol", "1e-5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_numerical_abort_exit_3(self, tmp_path, capsys) -> None:
        config = write_config(tmp_path, train={"lr": 1e18, "epochs": 30,
                                               "warmup_epochs": 0})
        rc = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
        # gigantic lr must either blow up (3) or, if it survives, still exit 0
        assert rc in (cli.EXIT_NUMERICAL, cli.EXIT_OK)

    def test_missing_config_file_exit_2(self, tmp_path, capsys) -> None:
        rc = cli.main(["train", "--config", str(tmp_path / "nope.json")])
        assert rc == cli.EXIT_CONFIG

    def test_run_reproducible_from_echoed_config(self, tmp_path) -> None:
        config = write_config(tmp_path)
        first = tmp_path / "first"
        assert cli.main(["train", "--config", str(config), "--out", str(first)]) == 0
        second = tmp_path / "second"
        assert cli.main(["train", "--config", str(first / "config.json"),
                         "--out", str(second)]) == 0
        assert (first / "checkpoint.arcl").read_bytes() == \
            (second / "checkpoint.arcl").read_bytes()
        assert (first / "loss.csv").read_text() == (second / "loss.csv").read_text()
