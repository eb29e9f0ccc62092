from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arclab import analysis, cli, model, reparam, training
from arclab.adapters import AdapterBank
from arclab.checkpoint import load, save
from arclab.errors import ConfigError
from arclab.kernel import Rng


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


def readme_config_text() -> str:
    """The README's "Run config" example, as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("### Run config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]


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
        """A typo, and each key that earlier versions accepted and echoed."""
        cases = [("train", "learning_rate", 0.1), ("arc", "form", "sequential"),
                 ("train", "optimizer", "adamw"), ("train", "dropout_rate", 0.0)]
        for section, key, value in cases:
            path = write_config(tmp_path, **{section: {key: value}})
            with pytest.raises(ConfigError, match=f"unknown key '{key}' in section '{section}'"):
                cli.load_run_config(path)

    def test_readme_run_config_loads(self, tmp_path) -> None:
        """The README's "Run config" example is a valid config."""
        example = readme_config_text()
        path = tmp_path / "config.json"
        path.write_text(example, encoding="utf-8")
        echoed = json.loads(json.dumps(cli.load_run_config(path).as_dict()))
        for section, keys in json.loads(example).items():
            assert {key: echoed[section][key] for key in keys} == keys, section

    def test_task_defaults_to_backbone(self, tmp_path) -> None:
        """The task's classes and image shape default to the backbone's; an
        explicit conflicting value is still rejected, and the configs that
        loaded before keep their effective values and digests."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"backbone": {"classes": 10, "image_size": 12,
                                                 "channels": 3}}))
        task = cli.load_run_config(path).task
        assert (task.classes, task.image_size, task.channels) == (10, 12, 3)
        path.write_text(json.dumps({"backbone": {"classes": 10}, "task": {"classes": 4}}))
        with pytest.raises(ConfigError, match="task classes 4 do not match backbone head 10"):
            cli.load_run_config(path)
        for doc, digest in [
            ({}, "f97302dfeb70d82e938e60269c6558e3b016239bf1b0e6866da28036bdd4695c"),
            ({"task": {"classes": 4}},
             "f97302dfeb70d82e938e60269c6558e3b016239bf1b0e6866da28036bdd4695c"),
            ({"backbone": {"channels": 1}, "task": {"image_size": 8, "eval_count": 4}},
             "e51296c3dcd44f892e858cf93bc7e7ad79730fa57e789aece182bd1489c0c8f6"),
        ]:
            path.write_text(json.dumps(doc))
            assert cli.load_run_config(path).digest().hex() == digest, doc

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

    @pytest.mark.parametrize("doc, message", [
        ({"backbone": {"patch_size": 5}},
         "backbone.image_size 8 not divisible by backbone.patch_size 5"),
        ({"backbone": {"heads": 3}}, "backbone.embed_dim 16 not divisible by backbone.heads 3"),
        ({"train": {"epochs": 1, "warmup_epochs": 3}},
         "train.warmup_epochs must lie in [0, train.epochs], got 3"),
        ({"task": {"train_count": 2}}, "task.train_count must be >= task.classes 4, got 2"),
        # a quoted value that spells a key of the section stays as it is
        ({"arc": {"variant": "x"}},
         "arc.variant must be one of ('bottleneck', 'full_rank'), got 'x'"),
        ({"arc": {"positions": ["bottleneck"]}},
         "arc.positions holds unknown sites ['bottleneck']; valid sites are "
         "('before_mha', 'after_mha', 'before_ffn', 'after_ffn')"),
    ], ids=["patch_size", "heads", "warmup_epochs", "train_count", "variant", "positions"])
    def test_rejected_value_names_every_key(self, tmp_path, capsys, doc, message) -> None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("section, key", [
        ("train", "lr"), ("task", "noise_sigma"), ("backbone", "ln_eps"), ("task", "mean_scale"),
    ])
    def test_non_finite_constant_exit_2(self, tmp_path, capsys, section, key) -> None:
        """Python's json reads NaN, Infinity and -Infinity, which are not JSON
        numbers, and turns a literal beyond the float range into an
        infinity; a config holding either is rejected before anything runs."""
        for value, constant in ((float("nan"), "NaN"), (float("inf"), "Infinity"),
                                (float("-inf"), "-Infinity")):
            path = write_config(tmp_path, **{section: {key: value}})
            assert constant in path.read_text()
            rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
            assert rc == cli.EXIT_CONFIG, constant
            assert f"non-finite JSON constant {constant}" in capsys.readouterr().err
            assert not (tmp_path / "run").exists()
        path = write_config(tmp_path, **{section: {key: 0.125}})
        path.write_text(path.read_text().replace("0.125", "-1e400"))  # parses to -inf
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_CONFIG
        assert "number -1e400, which overflows a float" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["io", "train"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, section) -> None:
        """numpy's PCG64 takes non-negative seeds only: seed 0 loads, and -1
        is a config error naming its key, raised before anything is drawn."""
        cli.load_run_config(write_config(tmp_path, **{section: {"seed": 0}}))
        path = write_config(tmp_path, **{section: {"seed": -1}})
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {section}.seed must be >= 0, got -1\n"
        assert not (tmp_path / "run").exists()

    def test_zero_layer_backbone_exit_2(self, tmp_path, capsys, monkeypatch) -> None:
        """A backbone with no encoder layer is rejected as the config loads,
        before any backbone is drawn."""
        monkeypatch.setattr(model, "init_backbone", lambda *args: pytest.fail("backbone drawn"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"backbone": {"layers": 0}}))
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: backbone.layers must be a positive integer, got 0\n")
        assert not (tmp_path / "run").exists()

    def test_digest_stable_under_out_dir(self, tmp_path) -> None:
        a = cli.load_run_config(write_config(tmp_path))
        b = cli.load_run_config(write_config(tmp_path, io={"out_dir": "elsewhere"}))
        assert a.digest() == b.digest()

    @pytest.mark.parametrize("text, key", [
        ('{"train": {"epochs": 1, "epochs": 2}}', "epochs"),
        ('{"io": {"seed": 1}, "io": {"seed": 2}}', "io"),
    ], ids=["key", "section"])
    def test_repeated_key_exit_2(self, tmp_path, capsys, text, key) -> None:
        """Python's json keeps the last of a repeated key; a config that
        repeats one is rejected instead, naming the file and the key."""
        path = tmp_path / "c.json"
        path.write_text(text)
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: config {path} repeats the key {key!r}\n"
        assert not (tmp_path / "run").exists()

    def test_empty_out_dir_exit_2(self, tmp_path, capsys, monkeypatch) -> None:
        """An empty io.out_dir is rejected, not read as "no directory"."""
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, io={"out_dir": ""})
        assert cli.main(["train", "--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: io.out_dir must be a non-empty path or null\n")
        assert sorted(tmp_path.iterdir()) == [path]


def _json_kind(value) -> str:
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


# the README config cut to one epoch (and so one warmup epoch at most), and its keys
_SHORT_README = json.loads(readme_config_text())
_SHORT_README["train"].update(epochs=1, warmup_epochs=1)
_README_KEYS = [(section, key) for section, keys in _SHORT_README.items() for key in keys]


class TestConfigMutations:
    """Any single-key mutation of the README config trains (exit 0) or is
    rejected as a config error (exit 2); it never aborts (exit 3) or
    raises. A value of the wrong JSON type says ``section.key must be``, and
    an unknown key names itself and its section. Every other rejection names
    ``section.key``, also where the value conflicts with another key of its
    section (``patch_size`` does not divide ``image_size``), except a task
    value that contradicts the backbone, which names both sections."""

    def test_unmutated_config_trains(self, tmp_path) -> None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_SHORT_README))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 0

    @settings(max_examples=40, deadline=None)
    @given(where=st.sampled_from(_README_KEYS),
           mutation=st.sampled_from(["x", True, [1], 0, -1, "+1", "-1", "removed", "unknown"]))
    def test_single_key_mutation(self, tmp_path_factory, where, mutation) -> None:
        section, key = where
        doc = json.loads(json.dumps(_SHORT_README))
        old = doc[section][key]
        if mutation == "removed":
            del doc[section][key]
        elif mutation == "unknown":
            doc[section][f"{key}_typo"] = 1
        elif mutation in ("+1", "-1"):
            assume(_json_kind(old) == "number")
            doc[section][key] = old + int(mutation)
        else:
            doc[section][key] = mutation
        run = tmp_path_factory.mktemp("mutation")
        (run / "config.json").write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["train", "--config", str(run / "config.json"), "--out", str(run / "out")])
        assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG), (doc, err.getvalue())
        if mutation == "unknown":
            assert rc == cli.EXIT_CONFIG
            assert f"unknown key '{key}_typo' in section '{section}'" in err.getvalue()
        elif mutation not in ("removed", "+1", "-1") and _json_kind(mutation) != _json_kind(old):
            assert rc == cli.EXIT_CONFIG
            assert f"{section}.{key} must be" in err.getvalue(), err.getvalue()
        if rc == cli.EXIT_CONFIG and mutation != "unknown":
            message = err.getvalue()
            if "do not match backbone" in message:
                assert section in ("task", "backbone") and message.startswith("config error: task ")
                assert key in ("classes", "image_size", "channels"), message
            else:
                assert f"{section}.{key}" in message, message


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One trained toy run and its fused checkpoint, shared read-only."""
    root = tmp_path_factory.mktemp("trained")
    run_dir = root / "run"
    assert cli.main(["train", "--config", str(write_config(root)), "--out", str(run_dir)]) == 0
    fused = run_dir / "fused.arcl"
    assert cli.main(["fuse", "--checkpoint", str(run_dir / "checkpoint.arcl"),
                     "--out", str(fused)]) == 0
    return run_dir


class TestCheckpointInputs:
    """Every checkpoint fuse, verify and spectrum open is checked against the
    run config, the fused flag the command expects and the backbone; a
    file that fails exits 2 naming it."""

    def test_verify_fused_from_other_config_exit_2(self, trained_run, tmp_path, capsys) -> None:
        other = tmp_path / "other"
        assert cli.main(["train", "--config", str(write_config(tmp_path, io={"seed": 8})),
                         "--out", str(other)]) == 0
        foreign = tmp_path / "foreign_fused.arcl"
        assert cli.main(["fuse", "--checkpoint", str(other / "checkpoint.arcl"),
                         "--out", str(foreign)]) == 0
        capsys.readouterr()
        rc = cli.main(["verify", "--checkpoint", str(trained_run / "checkpoint.arcl"),
                       "--fused", str(foreign), "--trials", "4"])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG
        assert f"checkpoint {foreign} was not produced by config " \
               f"{trained_run / 'config.json'}" in err
        assert "max_logit_deviation" not in out

    def test_fused_flag_checked(self, trained_run, tmp_path, capsys) -> None:
        ckpt, fused = trained_run / "checkpoint.arcl", trained_run / "fused.arcl"
        config = trained_run / "config.json"
        cases = [
            (["fuse", "--checkpoint", str(fused), "--config", str(config),
              "--out", str(tmp_path / "twice.arcl")], f"{fused} already carries the fused flag"),
            (["verify", "--checkpoint", str(fused), "--fused", str(fused), "--config", str(config)],
             f"{fused} already carries the fused flag"),
            (["verify", "--checkpoint", str(ckpt), "--fused", str(ckpt)],
             f"{ckpt} does not carry the fused flag"),
            (["spectrum", "--checkpoint", str(fused), "--config", str(config),
              "--out", str(tmp_path / "s")], f"{fused} already carries the fused flag"),
        ]
        for argv, message in cases:
            rc = cli.main(argv)
            err = capsys.readouterr().err
            assert rc == cli.EXIT_CONFIG, argv
            assert message in err, (argv, err)
        assert not (tmp_path / "twice.arcl").exists() and not (tmp_path / "s").exists()

    def test_fused_file_holding_adapters_exit_2(self, trained_run, tmp_path, capsys) -> None:
        header, tensors = load(trained_run / "checkpoint.arcl")
        _, fused = load(trained_run / "fused.arcl")
        fused.update({name: arr for name, arr in tensors.items() if name.startswith("arc.")})
        path = tmp_path / "fused_with_arc.arcl"
        save(path, fused, header.config_digest, fused=True)
        rc = cli.main(["verify", "--checkpoint", str(trained_run / "checkpoint.arcl"),
                       "--fused", str(path), "--config", str(trained_run / "config.json")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        assert str(path) in err and "unexpected ['arc.ffn.1.bias'" in err

    @pytest.mark.parametrize("fault", ["foreign digest", "no fused flag", "missing"])
    def test_verify_non_finite_bank_wins_over_bad_fused_file(self, trained_run, tmp_path, capsys,
                                                             fault) -> None:
        """verify checks the unfused checkpoint, bank included, before it
        opens the fused file: a non-finite bank exits 3 whatever is wrong
        with the fused file."""
        header, tensors = load(trained_run / "checkpoint.arcl")
        tensors["arc.ffn.1.bias"][0, 0] = np.inf
        ckpt = tmp_path / "checkpoint.arcl"
        save(ckpt, tensors, header.config_digest)
        bad = {"foreign digest": tmp_path / "foreign.arcl", "no fused flag": ckpt,
               "missing": tmp_path / "missing.arcl"}[fault]
        if fault == "foreign digest":
            save(bad, load(trained_run / "fused.arcl")[1], b"\x01" * 32, fused=True)
        rc = cli.main(["verify", "--checkpoint", str(ckpt), "--fused", str(bad),
                       "--config", str(trained_run / "config.json")])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_NUMERICAL
        assert "'arc.ffn.1.bias'" in err and "non-finite" in err and str(bad) not in err
        assert "max_logit_deviation" not in out

    @pytest.mark.parametrize("command", ["fuse", "verify --checkpoint", "verify --fused",
                                         "spectrum"])
    @pytest.mark.parametrize("fault", ["missing", "empty", "truncated", "foreign"])
    def test_unreadable_checkpoint_exit_2(self, trained_run, tmp_path, capsys,
                                          command, fault) -> None:
        bad = tmp_path / "bad.arcl"
        if fault == "empty":
            bad.write_bytes(b"")
        elif fault == "truncated":
            blob = (trained_run / "checkpoint.arcl").read_bytes()
            bad.write_bytes(blob[: len(blob) // 2])
        elif fault == "foreign":
            bad.write_bytes(b"PK\x03\x04" + bytes(64))
        ckpt, fused = trained_run / "checkpoint.arcl", trained_run / "fused.arcl"
        config = ["--config", str(trained_run / "config.json")]
        argv = {
            "fuse": ["fuse", "--checkpoint", str(bad), "--out", str(tmp_path / "f.arcl")],
            "verify --checkpoint": ["verify", "--checkpoint", str(bad), "--fused", str(fused)],
            "verify --fused": ["verify", "--checkpoint", str(ckpt), "--fused", str(bad)],
            "spectrum": ["spectrum", "--checkpoint", str(bad), "--out", str(tmp_path / "s")],
        }[command] + config
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        assert str(bad) in err, err
        assert not (tmp_path / "f.arcl").exists() and not (tmp_path / "s").exists()

    def test_spectrum_reads_only_the_bank(self, trained_run, tmp_path, monkeypatch) -> None:
        """spectrum loads the adapter tensors alone, and its CSVs are those of
        a bank taken from the whole file."""
        ckpt = trained_run / "checkpoint.arcl"
        read = []

        def recording_load(path, keep=None):
            header, tensors = load(path, keep=keep)
            read.extend(tensors)
            return header, tensors

        monkeypatch.setattr(cli.checkpoint, "load", recording_load)
        assert cli.main(["spectrum", "--checkpoint", str(ckpt), "--out", str(tmp_path / "s")]) == 0
        _, tensors = load(ckpt)
        assert read == [name for name in tensors if name.startswith("arc.")] != []
        cfg = cli.load_run_config(trained_run / "config.json")
        bank = AdapterBank(cfg.arc, cfg.backbone,
                           {k: v for k, v in tensors.items() if k.startswith("arc.")})
        analysis.write_spectrum_csvs(analysis.rank_sweep(bank), tmp_path / "whole")
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == \
            sorted(p.name for p in (tmp_path / "whole").iterdir())
        for path in (tmp_path / "whole").iterdir():
            assert (tmp_path / "s" / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("fault", ["cut inside pos", "wrong shape", "missing tensor"])
    def test_spectrum_checks_the_backbone_it_skips(self, trained_run, tmp_path, capsys,
                                                   fault) -> None:
        """The backbone payloads spectrum does not read are still checked from
        their record heads: a cut inside one, or a backbone tensor of the
        wrong shape or missing, exits 2 naming the file and writes nothing."""
        header, tensors = load(trained_run / "checkpoint.arcl")
        bad = tmp_path / "bad.arcl"
        if fault == "cut inside pos":  # the last record, a backbone payload
            assert list(tensors)[-1] == "pos"
            blob = (trained_run / "checkpoint.arcl").read_bytes()
            bad.write_bytes(blob[:-8])
            message = "truncated while reading payload of 'pos'"
        elif fault == "wrong shape":
            tensors["pos"] = tensors["pos"][:-1]
            save(bad, tensors, header.config_digest)
            message = f"pos: expected shape {header.shapes['pos']}, got {tensors['pos'].shape}"
        else:
            del tensors["cls"]
            save(bad, tensors, header.config_digest)
            message = "missing ['cls']"
        rc = cli.main(["spectrum", "--checkpoint", str(bad), "--out", str(tmp_path / "s"),
                       "--config", str(trained_run / "config.json")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        assert str(bad) in err and message in err, err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("fault", ["missing", "empty", "not UTF-8"])
    def test_unreadable_train_config_exit_2(self, tmp_path, capsys, fault) -> None:
        config = tmp_path / "config.json"
        if fault == "empty":
            config.write_bytes(b"")
        elif fault == "not UTF-8":
            config.write_bytes(b'{"io": {"out_dir": "\xff"}}')
        rc = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        assert str(config) in err, err
        assert not (tmp_path / "run").exists()


class TestCommands:
    def test_count_prints_value(self, capsys) -> None:
        rc = cli.main(["count", "--method", "arc", "--D", "768", "--L", "12",
                       "--Dprime", "50"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "96432" in out
        assert cli.main(["count", "--method", "arc", "--Dprime", "50"]) == 0
        assert capsys.readouterr().out == out  # --D and --L default to 768 and 12

    def test_count_sweep_csv(self, tmp_path, capsys) -> None:
        csv_path = tmp_path / "t.csv"
        rc = cli.main(["count", "--method", "arc", "--Dprime", "50",
                       "--sweep", "backbones", "--csv", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "method,label,D,L,finetune,inference"
        assert len(lines) == 4

    @pytest.mark.parametrize("argv, message", [
        (["--method", "arc", "--D", "16", "--L", "3", "--Dprime", "50"],
         "bottleneck 50 exceeds embed_dim 16"),
        (["--method", "arc_att", "--D", "16", "--L", "3", "--Dprime", "17"],
         "bottleneck 17 exceeds embed_dim 16"),
        (["--method", "adapter", "--D", "16", "--L", "3", "--Dprime", "50", "--sweep", "layers"],
         "bottleneck 50 exceeds embed_dim 16"),
        (["--method", "lora", "--w", "2", "--Dprime", "1000", "--sweep", "backbones"],
         "bottleneck 1000 exceeds embed_dim 768"),
        (["--method", "arc", "--Dprime", "4", "--L", "0", "--sweep", "layers"],
         "--sweep layers needs --L >= 1, got 0"),
        (["--method", "arc", "--Dprime", "4", "--L", "0"], "L=0"),
        (["--method", "ssf", "--o", "2", "--Dprime", "4"],
         "does not take knob 'bottleneck' (--Dprime)"),
        (["--method", "arc", "--Dprime", "4", "--D", "0"], "D and L must be positive, got D=0"),
        (["--method", "arc", "--Dprime", "4", "--D", "-5"], "D and L must be positive, got D=-5"),
        (["--method", "arc", "--Dprime", "4", "--D", "0", "--sweep", "layers"],
         "D and L must be positive, got D=0"),
        (["--method", "arc"], "method 'arc' needs knob 'bottleneck' (--Dprime)"),
        (["--method", "lora", "--Dprime", "4"], "method 'lora' needs knob 'attn_matrices' (--w)"),
        (["--method", "vpt_deep"], "method 'vpt_deep' needs knob 'prompts' (--m)"),
        (["--method", "ssf"], "method 'ssf' needs knob 'operations' (--o)"),
        (["--method", "arc", "--Dprime", "0"], "knob 'bottleneck' (--Dprime) must be >= 1"),
        (["--method", "arc", "--Dprime", "4", "--sweep", "backbones", "--D", "16"],
         "--sweep backbones takes its D and L from each backbone; drop --D"),
        (["--method", "arc", "--Dprime", "4", "--sweep", "backbones", "--L", "2"],
         "--sweep backbones takes its D and L from each backbone; drop --L"),
        (["--method", "arc", "--Dprime", "4", "--sweep", "backbones", "--D", "768", "--L", "12"],
         "drop --D and --L"),
    ], ids=["arc", "arc_att", "adapter-layers", "lora-backbones", "layers-L0", "L0",
            "ssf-Dprime", "D0", "D-5", "layers-D0", "arc-no-Dprime", "lora-no-w", "vpt-no-m",
            "ssf-no-o", "Dprime0", "backbones-D", "backbones-L", "backbones-D-L"])
    def test_count_rejects_exit_2(self, tmp_path, capsys, argv, message) -> None:
        csv_path = tmp_path / "t.csv"
        rc = cli.main(["count", *argv, "--csv", str(csv_path)])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG
        assert message in err and out == ""
        assert not csv_path.exists()

    def test_count_layer_sweep_csv(self, tmp_path, capsys) -> None:
        """--sweep layers counts every depth from 1 to --L at width --D."""
        csv_path = tmp_path / "t.csv"
        rc = cli.main(["count", "--method", "arc", "--Dprime", "8", "--D", "64", "--L", "3",
                       "--sweep", "layers", "--csv", str(csv_path)])
        assert rc == 0
        assert csv_path.read_text().splitlines() == [
            "method,label,D,L,finetune,inference",
            *(f"arc,L={n},64,{n},{2 * (64 * 8 + (8 + 64) * n)},0" for n in (1, 2, 3)),
        ]

    def test_count_csv_write_failure_prints_nothing(self, tmp_path, capsys) -> None:
        """The CSV is written before the table is printed, so a --csv that
        cannot be written (here a directory) exits 2 with nothing on stdout."""
        rc = cli.main(["count", "--method", "arc", "--Dprime", "4", "--sweep", "layers",
                       "--L", "3", "--csv", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG
        assert out == "" and err.startswith("config error: ")

    @staticmethod
    def _count_argv_env(*flags):
        """``arclab count --method arc --Dprime 50`` plus ``flags`` as a fresh
        process, and its environment, with stdout buffered as it is by default."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return [sys.executable, "-m", "arclab.cli", "count", "--method", "arc", "--Dprime", "50",
                *flags], env

    def test_count_into_a_closed_pipe_exits_141_silently(self) -> None:
        """A reader that takes one line and closes the pipe (``| head -1``)
        ends the command with 128 + SIGPIPE and nothing on stderr. The
        table, about 200 KB, outgrows the 64 KiB pipe buffer, so the write
        meets the closed pipe however the two processes are scheduled."""
        argv, env = self._count_argv_env("--sweep", "layers", "--L", "5000")
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.readline().split()[0] == b"method"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=300) == cli.EXIT_BROKEN_PIPE == 141
        assert err == b""

    def test_count_into_a_pipe_closed_before_it_runs(self) -> None:
        """Output small enough to sit in stdout's buffer until the end meets
        a closed pipe at the command's own flush: 141 and a silent stderr,
        not the interpreter's exit-time 120 and ``Exception ignored``."""
        argv, env = self._count_argv_env()
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  timeout=300)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (cli.EXIT_BROKEN_PIPE, b"")

    def test_count_bottleneck_equal_to_embedding(self, capsys) -> None:
        rc = cli.main(["count", "--method", "arc", "--D", "16", "--L", "3", "--Dprime", "16"])
        assert rc == 0
        assert str(2 * (16 * 16 + (16 + 16) * 3)) in capsys.readouterr().out

    def test_count_missing_knob_is_config_error(self, capsys) -> None:
        rc = cli.main(["count", "--method", "arc"])
        assert rc == cli.EXIT_CONFIG
        assert "bottleneck" in capsys.readouterr().err

    def test_train_unknown_key_exit_2(self, tmp_path, capsys) -> None:
        path = write_config(tmp_path, train={"momentum": 0.9})
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_CONFIG
        assert "momentum" in capsys.readouterr().err

    def test_defaults_train(self, tmp_path, capsys) -> None:
        """Without an arc section the bottleneck defaults to 4, which fits
        the default toy backbone, and the default warmup fits one epoch."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {"epochs": 1}}))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["arc"]["bottleneck"] == 4 and echoed["train"]["warmup_epochs"] == 1
        assert "steps 4" in capsys.readouterr().out

    def test_empty_eval_set_exit_2(self, tmp_path, capsys) -> None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"task": {"eval_count": 0}, "train": {"epochs": 1}}))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert "eval_count must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch) -> None:
        """An allocation that fails is a config error with numpy's message,
        which names the size, not a traceback."""
        message = ("Unable to allocate 11.6 PiB for an array with shape "
                   "(40000000, 40000000) and data type float64")

        def too_big(*args):
            raise MemoryError(message)

        monkeypatch.setattr(model, "init_backbone", too_big)
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG == 2
        assert err == f"out of memory: {message}\n" and "Traceback" not in err
        assert not out.exists()

    def test_train_empty_out_exit_2(self, tmp_path, capsys, monkeypatch) -> None:
        """``--out ""`` is rejected, not read as "use io.out_dir"."""
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, io={"out_dir": str(tmp_path / "elsewhere")})
        assert cli.main(["train", "--config", str(path), "--out", ""]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: --out must be a non-empty path\n"
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("command", ["spectrum", "fuse", "count"])
    def test_empty_output_path_exit_2(self, trained_run, tmp_path, capsys, monkeypatch,
                                      command) -> None:
        """An empty output path is refused before anything is read, not taken
        as the working directory (spectrum), its parent (fuse's temp file) or
        no file at all (count)."""
        def no_reads(*args, **kwargs):
            raise AssertionError(f"{command} read its input")

        monkeypatch.setattr(cli, "load_run_config", no_reads)
        monkeypatch.setattr(cli.checkpoint, "load", no_reads)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        ckpt = str(trained_run / "checkpoint.arcl")
        argv, flag = {
            "spectrum": (["spectrum", "--checkpoint", ckpt, "--out", ""], "--out"),
            "fuse": (["fuse", "--checkpoint", ckpt, "--out", ""], "--out"),
            "count": (["count", "--method", "arc", "--Dprime", "4", "--csv", ""], "--csv"),
        }[command]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {flag} must be a non-empty path\n")
        assert list(tmp_path.iterdir()) == [cwd] and list(cwd.iterdir()) == []

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_spectrum_bad_bins_exit_2_before_loading(self, tmp_path, capsys, bins) -> None:
        """A bin count below one is a config error naming --bins, raised
        before the config or the checkpoint is read."""
        missing = tmp_path / "missing.arcl"
        rc = cli.main(["spectrum", "--checkpoint", str(missing), "--bins", bins,
                       "--out", str(tmp_path / "s")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: --bins must be >= 1, got {bins}\n")
        assert list(tmp_path.iterdir()) == []

    def test_evaluation_out_of_memory_writes_nothing(self, tmp_path, capsys,
                                                     monkeypatch) -> None:
        """train evaluates before it writes: an evaluation that fails leaves
        no run directory behind."""
        def too_big(*args):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(training, "evaluate", too_big)
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "out of memory: Unable to allocate\n"
        assert not out.exists()

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

    def test_fuse_folds_the_tensors_it_loaded(self, trained_run, tmp_path, monkeypatch) -> None:
        """fuse saves the arrays it loaded, folded in place, so it holds no
        second weight set, and it never writes through to the checkpoint."""
        ckpt = trained_run / "checkpoint.arcl"
        blob = ckpt.read_bytes()
        cfg = cli.load_run_config(trained_run / "config.json")
        _, tensors = load(ckpt)
        bank = AdapterBank(cfg.arc, cfg.backbone,
                           {n: a for n, a in tensors.items() if n.startswith("arc.")})
        weights = {n: a for n, a in tensors.items() if not n.startswith("arc.")}
        want = model.checksum(reparam.fuse(weights, bank, cfg.backbone).tensors)
        loads, saved = [], []
        real_load, real_save = cli.checkpoint.load, cli.checkpoint.save

        def tracked_load(path, keep=None):
            header, loaded = real_load(path, keep=keep)
            loads.append(dict(loaded))
            return header, loaded

        def tracked_save(path, tensors, *args, **kwargs):
            saved.append(dict(tensors))
            return real_save(path, tensors, *args, **kwargs)

        monkeypatch.setattr(cli.checkpoint, "load", tracked_load)
        monkeypatch.setattr(cli.checkpoint, "save", tracked_save)
        out = tmp_path / "fused.arcl"
        assert cli.main(["fuse", "--checkpoint", str(ckpt), "--out", str(out)]) == 0
        [loaded], [written] = loads, saved
        assert set(written) == set(model.weight_shapes(cfg.backbone))
        assert all(arr is loaded[name] for name, arr in written.items())
        assert ckpt.read_bytes() == blob
        assert model.checksum(load(out)[1]) == want

    def test_verify_holds_one_checkpoint_at_a_time(self, trained_run, capsys, monkeypatch) -> None:
        """verify drops the unfused checkpoint before it reads the fused one,
        and prints the deviation of the two sides run with both in memory."""
        ckpt, fused = trained_run / "checkpoint.arcl", trained_run / "fused.arcl"
        cfg = cli.load_run_config(trained_run / "config.json")
        _, tensors = load(ckpt)
        bank = AdapterBank(cfg.arc, cfg.backbone,
                           {n: a for n, a in tensors.items() if n.startswith("arc.")})
        side = cfg.backbone.image_size
        images = Rng(5).normals((32, side, side, cfg.backbone.channels))
        adapted = model.eager_logits(cfg.backbone, tensors, images, bank=bank)
        plain = model.eager_logits(cfg.backbone, load(fused)[1], images)
        want = f"max_logit_deviation {np.abs(adapted - plain).max():.6e}  PASS"
        loads = []  # a weak reference to every tensor of each load
        real_load = cli.checkpoint.load

        def tracked_load(path, keep=None):
            if loads:
                gc.collect()
                held = [name for name, ref in loads[-1].items() if ref() is not None]
                assert not held, f"the unfused checkpoint's {held} are still held"
            header, loaded = real_load(path, keep=keep)
            loads.append({name: weakref.ref(t) for name, t in loaded.items()})
            return header, loaded

        monkeypatch.setattr(cli.checkpoint, "load", tracked_load)
        capsys.readouterr()
        rc = cli.main(["verify", "--checkpoint", str(ckpt), "--fused", str(fused),
                       "--trials", "32", "--seed", "5"])
        assert rc == cli.EXIT_OK and len(loads) == 2
        assert capsys.readouterr().out == want + "\n"

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
        capsys.readouterr()
        rc = cli.main(["spectrum", "--checkpoint", str(run_dir / "checkpoint.arcl"),
                       "--bins", "10", "--out", str(out_dir)])
        assert rc == 0
        assert (out_dir / "spectrum_layer1_mha.csv").exists()
        with open(out_dir / "spectrum_summary.csv", newline="") as fh:
            ranks = [int(row["effective_rank"]) for row in csv.DictReader(fh)]
        assert capsys.readouterr().out.splitlines() == [  # the summary line reads the CSV's ranks
            f"analyzed 4 matrices  median_effective_rank {np.median(ranks):.6g}",
            f"wrote 5 files under {out_dir}",
        ]

    def test_spectrum_of_bottleneck_bank(self, tmp_path, capsys) -> None:
        """A bottleneck bank's re-composed matrices have rank at most D' = 4."""
        config = write_config(tmp_path)
        run_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(run_dir)]) == 0
        out_dir = tmp_path / "s"
        rc = cli.main(["spectrum", "--checkpoint", str(run_dir / "checkpoint.arcl"),
                       "--out", str(out_dir)])
        assert rc == 0
        with open(out_dir / "spectrum_summary.csv", newline="") as fh:
            ranks = [int(row["effective_rank"]) for row in csv.DictReader(fh)]
        assert len(ranks) == 4 and all(1 <= rank <= 4 for rank in ranks), ranks

    def test_cached_parser_carries_nothing_between_calls(self, trained_run, tmp_path,
                                                         capsys) -> None:
        """main parses with one parser per process: a call's options, usage
        error or help screen leave nothing behind for the next call."""
        assert cli.build_parser() is cli.build_parser()
        ckpt = str(trained_run / "checkpoint.arcl")

        def histogram_rows(out_dir) -> set[int]:
            return {len(path.read_text().splitlines()) - 1
                    for path in out_dir.glob("spectrum_layer*.csv")}

        assert cli.main(["spectrum", "--checkpoint", ckpt, "--bins", "5",
                         "--out", str(tmp_path / "five")]) == 0
        assert histogram_rows(tmp_path / "five") == {5}
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectrum", "--out", str(tmp_path / "unread")])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "the following arguments are required: --checkpoint" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectrum", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: arclab spectrum ")
        assert cli.main(["spectrum", "--checkpoint", ckpt, "--out", str(tmp_path / "default")]) == 0
        assert histogram_rows(tmp_path / "default") == {analysis.DEFAULT_BINS} == {50}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["default", "five"]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:  # after a call that succeeded
            cli.main(["verify", "--checkpoint", ckpt, "--fused", ckpt, "--seed", "-1"])
        assert exc.value.code == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert "argument --seed: must be a non-negative integer, got '-1'" in err and out == ""

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

    @pytest.mark.parametrize("route", ["same path", "symlink", "hard link"])
    def test_fuse_out_naming_the_checkpoint_exit_2(self, trained_run, tmp_path, capsys,
                                                   route) -> None:
        """An --out that is the checkpoint file would replace the trained bank
        with the fused weights: fuse exits 2 naming both flags, writing nothing."""
        ckpt = tmp_path / "checkpoint.arcl"
        ckpt.write_bytes((trained_run / "checkpoint.arcl").read_bytes())
        blob = ckpt.read_bytes()
        out = tmp_path / "out.arcl"
        if route == "same path":
            out = ckpt
        elif route == "symlink":
            out.symlink_to(ckpt)
        else:
            os.link(ckpt, out)
        rc = cli.main(["fuse", "--checkpoint", str(ckpt), "--out", str(out),
                       "--config", str(trained_run / "config.json")])
        out_text, err = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG
        assert "--out" in err and "--checkpoint" in err and out_text == ""
        assert ckpt.read_bytes() == blob
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted({"checkpoint.arcl", out.name})

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

    def test_verify_non_finite_adapter_exit_3(self, tmp_path, capfd) -> None:
        config = write_config(tmp_path)
        run_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(run_dir)]) == 0
        ckpt = run_dir / "checkpoint.arcl"
        fused = tmp_path / "fused.arcl"
        assert cli.main(["fuse", "--checkpoint", str(ckpt), "--out", str(fused)]) == 0
        header, tensors = load(ckpt)
        tensors["arc.ffn.1.bias"][0, 0] = np.inf
        save(ckpt, tensors, header.config_digest)
        capfd.readouterr()
        rc = cli.main(["verify", "--checkpoint", str(ckpt), "--fused", str(fused)])
        out, err = capfd.readouterr()
        assert rc == cli.EXIT_NUMERICAL
        assert "'arc.ffn.1.bias'" in err and "non-finite" in err
        assert "RuntimeWarning" not in out + err and "max_logit_deviation" not in out

    @staticmethod
    def _set_coefficients(ckpt, value: float) -> None:
        """Re-save the checkpoint with every ``arc.*.coef`` entry at ``value``."""
        header, tensors = load(ckpt)
        for name, arr in tensors.items():
            if name.endswith(".coef"):
                arr[...] = value
        save(ckpt, tensors, header.config_digest)

    def test_spectrum_energy_share_at_huge_coefficients(self, tmp_path) -> None:
        """Coefficients of 1e300 give singular values whose squares overflow;
        the energy shares are those of unit coefficients, finite and with
        no numpy warning (which pyproject.toml makes an error)."""
        run_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(write_config(tmp_path)),
                         "--out", str(run_dir)]) == 0
        shares = {}
        for value in (1.0, 1e300):
            self._set_coefficients(run_dir / "checkpoint.arcl", value)
            out = tmp_path / f"spectra-{value}"
            assert cli.main(["spectrum", "--checkpoint", str(run_dir / "checkpoint.arcl"),
                             "--out", str(out)]) == 0
            with open(out / "spectrum_summary.csv", newline="") as fh:
                shares[value] = [float(row["energy_top10"]) for row in csv.DictReader(fh)]
        assert len(shares[1.0]) == 4 and all(0.0 < share <= 1.0 for share in shares[1.0])
        assert shares[1e300] == pytest.approx(shares[1.0], rel=1e-10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns as the forward overflows
    def test_verify_overflowing_forward_exit_3(self, tmp_path, capsys) -> None:
        """Coefficients of 1e300 fold (fuse exits 0) but overflow the adapted
        forward: a numerical abort naming that side, not the FAIL of a NaN
        deviation."""
        run_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(write_config(tmp_path)),
                         "--out", str(run_dir)]) == 0
        ckpt, fused = run_dir / "checkpoint.arcl", tmp_path / "fused.arcl"
        self._set_coefficients(ckpt, 1e300)
        assert cli.main(["fuse", "--checkpoint", str(ckpt), "--out", str(fused)]) == 0
        capsys.readouterr()
        rc = cli.main(["verify", "--checkpoint", str(ckpt), "--fused", str(fused),
                       "--trials", "4"])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_NUMERICAL
        assert err == "numerical abort: the adapted forward gave non-finite logits\n"
        assert out == ""

    def test_fuse_checkpoint_cut_at_record_boundary_exit_2(self, tmp_path, capsys) -> None:
        """A file cut exactly before its last tensor record loads as a shorter
        tensor set; the command then reports the missing weight."""
        config = write_config(tmp_path)
        run_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(run_dir)]) == 0
        ckpt = run_dir / "checkpoint.arcl"
        header, tensors = load(ckpt)
        last = sorted(tensors)[-1]
        blob = ckpt.read_bytes()
        record = 4 + len(last.encode()) + 4 + 4 * tensors[last].ndim + 8 * tensors[last].size
        ckpt.write_bytes(blob[:-record])
        _, partial = load(ckpt)
        assert sorted(partial) == sorted(tensors)[:-1]
        capsys.readouterr()
        rc = cli.main(["fuse", "--checkpoint", str(ckpt), "--out", str(tmp_path / "f.arcl")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        assert "missing" in err and last in err
        assert not (tmp_path / "f.arcl").exists()

    @pytest.mark.parametrize("doc", [{}, {"arc": {"variant": "full_rank"}}],
                             ids=["defaults", "full_rank"])
    def test_gradcheck_passes_at_tol_1e_5(self, tmp_path, capsys, doc) -> None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        rc = cli.main(["gradcheck", "--config", str(path)])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK, out
        assert "gradcheck PASS" in out and "(tol 1e-05)" in out

    def test_gradcheck_command(self, tmp_path, capsys) -> None:
        config = write_config(tmp_path)
        rc = cli.main(["gradcheck", "--config", str(config), "--tol", "1e-5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
    def test_gradcheck_bad_tol_exit_2(self, tmp_path, capsys, tol) -> None:
        """An infinite tol would pass any gradient and a NaN or negative one
        fail every gradient, so each is a config error naming --tol."""
        config = write_config(tmp_path)
        rc = cli.main(["gradcheck", "--config", str(config), "--tol", tol])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG
        assert "--tol must be finite and > 0" in err and "gradcheck" not in out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_verify_bad_trials_exit_2_before_loading(self, tmp_path, capsys, monkeypatch,
                                                     trials) -> None:
        """A trial count below one is a config error naming --trials, raised
        before either checkpoint is read."""
        def no_loads(*args, **kwargs):
            raise AssertionError("verify read a checkpoint")

        monkeypatch.setattr(cli, "_load_checkpoint", no_loads)
        monkeypatch.setattr(cli.checkpoint, "load", no_loads)
        missing = str(tmp_path / "missing.arcl")
        rc = cli.main(["verify", "--checkpoint", missing, "--fused", missing,
                       "--trials", trials])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG
        assert f"--trials must be >= 1, got {trials}" in err and out == ""

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_verify_bad_seed_rejected_by_the_parser(self, tmp_path, capsys, monkeypatch,
                                                    seed) -> None:
        """numpy's PCG64 takes non-negative seeds only: the parser exits 2
        naming --seed, before either checkpoint is read."""
        monkeypatch.setattr(cli.checkpoint, "load", None)
        missing = str(tmp_path / "missing.arcl")
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--checkpoint", missing, "--fused", missing, "--seed", seed])
        out, err = capsys.readouterr()
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"argument --seed: must be a non-negative integer, got '{seed}'" in err
        assert out == ""

    def test_numerical_abort_exit_3(self, tmp_path, capsys) -> None:
        config = write_config(tmp_path, train={"lr": 1e18, "epochs": 30,
                                               "warmup_epochs": 0})
        rc = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
        # gigantic lr must either blow up (3) or, if it survives, still exit 0
        assert rc in (cli.EXIT_NUMERICAL, cli.EXIT_OK)

    def test_missing_config_file_exit_2(self, tmp_path, capsys) -> None:
        """A missing path, a directory or a non-UTF-8 file exits 2 naming the path."""
        config = write_config(tmp_path)
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes(b"\xff\xfe" + config.read_text().encode("utf-16-le"))
        folder = tmp_path / "folder"
        folder.mkdir()
        cases = [
            (["train", "--config", str(tmp_path / "nope.json")], tmp_path / "nope.json"),
            (["gradcheck", "--config", str(folder)], folder),
            (["gradcheck", "--config", str(utf16)], utf16),
            (["fuse", "--checkpoint", str(folder), "--config", str(config),
              "--out", str(tmp_path / "x")], folder),
        ]
        for argv, named in cases:
            rc = cli.main(argv)
            err = capsys.readouterr().err
            assert rc == cli.EXIT_CONFIG, argv
            assert str(named) in err, (argv, err)
        assert not (tmp_path / "x").exists()

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


# Blocks every import of scipy, imports each arclab module, runs the four
# file commands and prints their exit codes and the scipy modules loaded.
class TestSizesNumpyRefuses:
    """A size numpy refuses before it allocates anything, from a flag or a
    config key, exits 2 with one out-of-memory line naming it; a config
    nested past the parser's depth is a config error."""

    HUGE = "1000000000000000000000000"  # 10**24, past numpy's largest array dimension

    def _refused(self, capsys, argv, where: str) -> None:
        assert cli.main(argv) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert err.startswith(f"out of memory: numpy cannot size an array grown from {where}, ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_verify_trials(self, trained_run, capsys) -> None:
        self._refused(capsys, ["verify", "--checkpoint", str(trained_run / "checkpoint.arcl"),
                               "--fused", str(trained_run / "fused.arcl"), "--trials", self.HUGE],
                      f"--trials {self.HUGE}")

    def test_spectrum_bins(self, trained_run, tmp_path, capsys) -> None:
        out = tmp_path / "spectra"
        self._refused(capsys, ["spectrum", "--checkpoint", str(trained_run / "checkpoint.arcl"),
                               "--bins", self.HUGE, "--out", str(out)], f"--bins {self.HUGE}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_embed_dim(self, tmp_path, capsys, command) -> None:
        """D = 10**12 with one head: the backbone's one draw of about 12 D**2
        values is a size numpy refuses."""
        config = write_config(tmp_path, backbone={"embed_dim": 10**12, "heads": 1})
        out = tmp_path / "run"
        argv = ["train", "--config", str(config), "--out", str(out)] if command == "train" \
            else ["gradcheck", "--config", str(config)]
        self._refused(capsys, argv, "backbone.embed_dim 1000000000000")
        assert not out.exists()

    def test_other_value_errors_keep_their_traceback(self, tmp_path, monkeypatch) -> None:
        def bug(*args):
            raise ValueError("a program bug")

        monkeypatch.setattr(model, "init_backbone", bug)
        with pytest.raises(ValueError, match="a program bug"):
            cli.main(["train", "--config", str(write_config(tmp_path)),
                      "--out", str(tmp_path / "run")])

    def test_deeply_nested_config(self, tmp_path, capsys) -> None:
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr() == (
            "", f"config error: config {path} nests arrays or objects too deeply to parse\n")
        assert list(tmp_path.iterdir()) == [path]


_WITHOUT_SCIPY = """
import importlib, json, pkgutil, sys
sys.modules["scipy"] = None  # an import of scipy or a submodule raises ImportError
import arclab
for found in pkgutil.iter_modules(arclab.__path__):
    importlib.import_module("arclab." + found.name)
from arclab import cli
config, run = sys.argv[1:]
codes = [cli.main(argv) for argv in (
    ["train", "--config", config, "--out", run],
    ["fuse", "--checkpoint", run + "/checkpoint.arcl", "--out", run + "/fused.arcl"],
    ["verify", "--checkpoint", run + "/checkpoint.arcl", "--fused", run + "/fused.arcl",
     "--trials", "4"],
    ["spectrum", "--checkpoint", run + "/checkpoint.arcl", "--out", run + "/spectra"],
)]
loaded = sorted(name for name, module in sys.modules.items()
                if name.startswith("scipy") and module is not None)
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_runs_without_scipy(tmp_path) -> None:
    """numpy is arclab's only dependency: with scipy unimportable, every
    module imports and train, fuse, verify and spectrum exit 0."""
    config = write_config(tmp_path, train={"epochs": 1, "warmup_epochs": 1})
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _WITHOUT_SCIPY,
                           str(config), str(tmp_path / "run")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"codes": [0, 0, 0, 0], "scipy": []}
