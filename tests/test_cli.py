from __future__ import annotations

import builtins
import contextlib
import csv
import dataclasses
import gc
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arclab import analysis, checkpoint, cli, model, reparam, training
from arclab.adapters import AdapterBank, adapter_shapes
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


class FailAfterFirstRow:
    """A ``csv.writer`` whose ``writerows`` writes the first row and then
    fails as a full disk would."""

    real_writer = staticmethod(csv.writer)

    def __init__(self, fh):
        self.rows = self.real_writer(fh)

    def writerows(self, rows):
        self.rows.writerow(next(iter(rows)))
        raise OSError(28, "No space left on device")


def snapshot(root) -> dict:
    """Every path under ``root``, with a file's bytes or None for a directory."""
    return {p: p.read_bytes() if p.is_file() else None for p in Path(root).rglob("*")}


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

    @settings(max_examples=40, deadline=None)
    @given(positions=st.lists(st.sampled_from(["before_mha", "after_mha", "before_ffn",
                                               "after_ffn"]), min_size=1, max_size=4),
           layers=st.none() | st.lists(st.integers(1, 3), min_size=1, max_size=3),
           sharing=st.sampled_from(["intra_inter", "non_intra_non_inter"]),
           lr=st.floats(1e-6, 1.0), seed=st.integers(0, 2**63),
           out_dir=st.none() | st.text(min_size=1, max_size=8))
    def test_as_dict_is_asdict(self, tmp_path_factory, positions, layers, sharing, lr, seed,
                               out_dir) -> None:
        """``as_dict`` equals ``dataclasses.asdict`` of each section, on the
        README config and on drawn ones with tuple, None and str fields, so
        the echoed JSON and the digest are the ones asdict gave."""
        path = tmp_path_factory.mktemp("as_dict") / "config.json"
        docs = [json.loads(readme_config_text()),
                {"arc": {"bottleneck": 4, "positions": positions, "insertion_layers": layers,
                         "sharing": sharing},
                 "train": {"lr": lr}, "io": {"seed": seed, "out_dir": out_dir}}]
        for doc in docs:
            path.write_text(json.dumps(doc))
            cfg = cli.load_run_config(path)
            want = {name: dataclasses.asdict(getattr(cfg, name)) for name in cli._SECTIONS}
            assert cfg.as_dict() == want
            want["io"]["out_dir"] = None
            assert cfg.digest() == checkpoint.config_digest(want)

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

    def test_full_rank_ignores_bottleneck_sharing_and_dropout(self, tmp_path) -> None:
        """A full_rank bank is one square delta per layer and group with no
        dropout: arc.bottleneck, arc.sharing and arc.dropout_rate are checked
        but train to the same tensors and loss curve as their defaults."""
        runs = []
        for name, arc in (("defaults", {}), ("set", {"bottleneck": 16, "dropout_rate": 0.5,
                                                     "sharing": "non_intra_non_inter"})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"arc": {"variant": "full_rank", **arc},
                                        "train": {"epochs": 2}}))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / name)]) == 0
            _, tensors = load(tmp_path / name / "checkpoint.arcl")
            runs.append(({k: v.tobytes() for k, v in tensors.items()},
                         (tmp_path / name / "loss.csv").read_bytes()))
        assert runs[0] == runs[1]

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

    def test_spectrum_reads_the_payloads_adapter_shapes_names(self, trained_run, tmp_path,
                                                              monkeypatch) -> None:
        """The bank-only load reads one payload per name of the bank's shape
        table, each of its size, and no other."""
        cfg = cli.load_run_config(trained_run / "config.json")
        reads, preadv = [], os.preadv

        def spy_preadv(fd, buffers, offset):
            reads.append(preadv(fd, buffers, offset))
            return reads[-1]

        monkeypatch.setattr(os, "preadv", spy_preadv)
        assert cli.main(["spectrum", "--checkpoint", str(trained_run / "checkpoint.arcl"),
                         "--out", str(tmp_path / "s")]) == 0
        shapes = adapter_shapes(cfg.arc, cfg.backbone)
        assert sorted(reads) == sorted(8 * rows * cols for rows, cols in shapes.values())

    @pytest.mark.parametrize("command", ["fuse", "spectrum"])
    @pytest.mark.parametrize("fault", ["extra", "missing"])
    def test_bank_record_extra_or_missing_exit_2(self, trained_run, tmp_path, capsys, command,
                                                 fault) -> None:
        """A bank record the config does not name, or one it names that the
        file lacks, exits 2 naming the file and the record."""
        header, tensors = load(trained_run / "checkpoint.arcl")
        if fault == "extra":
            tensors["arc.ffn.9.bias"] = np.zeros((1, 16))
            mismatch = "missing [], unexpected ['arc.ffn.9.bias']"
        else:
            del tensors["arc.ffn.1.bias"]
            mismatch = "missing ['arc.ffn.1.bias'], unexpected []"
        bad = tmp_path / "bad.arcl"
        save(bad, tensors, header.config_digest)
        out = tmp_path / ("f.arcl" if command == "fuse" else "s")
        rc = cli.main([command, "--checkpoint", str(bad), "--out", str(out),
                       "--config", str(trained_run / "config.json")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"config error: checkpoint {bad}: tensor set mismatch: {mismatch}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fuse", "verify", "spectrum"])
    @pytest.mark.parametrize("where", ["beside no config", "in no directory"])
    def test_missing_default_config_exit_2(self, trained_run, tmp_path, capsys, command,
                                           where) -> None:
        """Without --config, a checkpoint with no config.json beside it exits 2
        saying that --config was not given and naming the file looked for
        beside the --checkpoint path, not only a path the user never typed."""
        ckpt = tmp_path / "alone" / "checkpoint.arcl"
        if where == "beside no config":
            ckpt.parent.mkdir()
            ckpt.write_bytes((trained_run / "checkpoint.arcl").read_bytes())
        out = tmp_path / "out"
        argv = {"fuse": ["--out", out], "verify": ["--fused", ckpt], "spectrum": ["--out", out]}
        rc = cli.main([command, "--checkpoint", str(ckpt), *map(str, argv[command])])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"config error: --config was not given, and --checkpoint {ckpt} has no "
                f"config.json beside it: {ckpt.parent / 'config.json'} does not exist\n")
        assert not out.exists()

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


def _arclab_process(*argv, **kwargs) -> subprocess.Popen:
    """``arclab <argv>`` started as a fresh process, its output piped as text."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-m", "arclab.cli", *map(str, argv)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                            **kwargs)


def _arclab(*argv, **kwargs) -> subprocess.CompletedProcess:
    """``arclab <argv>`` run to its exit, under a timeout a hang would meet."""
    with _arclab_process(*argv, **kwargs) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


class TestFifoPaths:
    """A FIFO given as a checkpoint exits 2 at once, writer or not: a
    checkpoint must be a regular file. A FIFO given as a config is read as
    ``cat`` reads it: the open waits for a writer, and the read runs to EOF.
    Every wait here has a timeout, so a regression fails instead of hanging."""

    @pytest.fixture
    def fifo(self, tmp_path):
        path = tmp_path / "fifo"
        os.mkfifo(path)
        return path

    @staticmethod
    @contextlib.contextmanager
    def _writer(fifo, text: str, delay: float):
        """A thread that opens ``fifo`` for writing ``delay`` seconds from now
        and writes ``text``. On exit it is joined, given a reader first if it
        still waits for one, so no test leaves it blocked in its open."""
        def write() -> None:
            time.sleep(delay)
            fifo.write_text(text)

        thread = threading.Thread(target=write, daemon=True)
        thread.start()
        try:
            yield thread
        finally:
            if thread.is_alive():
                reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
                thread.join(timeout=10)
                os.close(reader)
            assert not thread.is_alive()

    @pytest.mark.parametrize("command", ["spectrum", "fuse", "verify"])
    def test_checkpoint_fifo_refused(self, trained_run, tmp_path, fifo, command) -> None:
        config = trained_run / "config.json"
        argv = {
            "spectrum": ["--checkpoint", fifo, "--config", config, "--out", tmp_path / "spectra"],
            "fuse": ["--checkpoint", fifo, "--config", config, "--out", tmp_path / "fused.arcl"],
            "verify": ["--checkpoint", trained_run / "checkpoint.arcl", "--fused", fifo,
                       "--trials", "1"],
        }[command]
        done = _arclab(command, *argv)
        assert (done.returncode, done.stdout) == (cli.EXIT_CONFIG, "")
        assert done.stderr == f"config error: {fifo}: not a regular file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo"]

    def test_config_fifo_late_writer_read_whole(self, tmp_path, fifo) -> None:
        """A writer that opens about 0.3 s after the read starts is waited for
        and read to EOF, by the library and by ``train``."""
        text = write_config(tmp_path, train={"epochs": 1, "warmup_epochs": 1}).read_text()
        want = cli.load_run_config(tmp_path / "config.json").digest()
        with self._writer(fifo, text, 0.3) as writer:
            assert cli.load_run_config(fifo).digest() == want
            writer.join(timeout=10)
        proc = _arclab_process("train", "--config", fifo, "--out", tmp_path / "run")
        try:
            with self._writer(fifo, text, 0.3):
                stdout, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.communicate()
        assert proc.returncode == cli.EXIT_OK, stderr
        assert cli.load_run_config(tmp_path / "run" / "config.json").digest() == want

    def test_config_fifo_with_no_writer_waits(self, tmp_path, fifo) -> None:
        """``train --config <fifo>`` with no writer is still waiting after
        0.5 s, and exits 0 once a writer opens and writes the config."""
        text = write_config(tmp_path, train={"epochs": 1, "warmup_epochs": 1}).read_text()
        proc = _arclab_process("train", "--config", fifo, "--out", tmp_path / "run")
        try:
            with pytest.raises(subprocess.TimeoutExpired):
                proc.wait(timeout=0.5)
            with self._writer(fifo, text, 0.0):
                stdout, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.communicate()
        assert proc.returncode == cli.EXIT_OK, stderr
        assert (tmp_path / "run" / "checkpoint.arcl").exists()

    def test_config_from_a_pipe(self, tmp_path) -> None:
        """``--config <(cat config.json)``: a pipe whose writer has written
        is read whole."""
        text = write_config(tmp_path, train={"epochs": 1, "warmup_epochs": 1}).read_text()
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "w") as fh:
            fh.write(text)
        try:
            done = _arclab("train", "--config", f"/dev/fd/{read_end}", "--out",
                           tmp_path / "run", pass_fds=(read_end,))
        finally:
            os.close(read_end)
        assert done.returncode == cli.EXIT_OK, done.stderr
        assert (cli.load_run_config(tmp_path / "run" / "config.json").digest()
                == cli.load_run_config(tmp_path / "config.json").digest())


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

    def test_count_csv_failed_write_keeps_the_old_file(self, tmp_path, capsys,
                                                       monkeypatch) -> None:
        """A CSV write that fails after its first row exits 2 with nothing on
        stdout, leaves the old --csv byte for byte as it was and leaves no
        temp file beside it."""
        csv_path = tmp_path / "t.csv"
        csv_path.write_bytes(b"the,old,table\r\n")
        monkeypatch.setattr(csv, "writer", FailAfterFirstRow)
        rc = cli.main(["count", "--method", "arc", "--Dprime", "4", "--sweep", "layers",
                       "--L", "3", "--csv", str(csv_path)])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG
        assert out == "" and "No space left on device" in err
        assert csv_path.read_bytes() == b"the,old,table\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

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

    def test_train_hashes_no_weights(self, tmp_path, monkeypatch) -> None:
        """The frozen backbone is training.train's to keep: train runs no
        checksum before or after it."""
        def no_checksum(weights):
            raise AssertionError("train hashed the weights")

        monkeypatch.setattr(model, "frozen_checksum", no_checksum)
        monkeypatch.setattr(model, "checksum", no_checksum)
        assert cli.main(["train", "--config", str(write_config(tmp_path)),
                         "--out", str(tmp_path / "run")]) == 0

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
        """A bin count below one is refused by the parser naming --bins
        (exit 2), before the config or the checkpoint is read."""
        missing = tmp_path / "missing.arcl"
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectrum", "--checkpoint", str(missing), "--bins", bins,
                      "--out", str(tmp_path / "s")])
        assert exc.value.code == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and f"argument --bins: must be an integer >= 1, got '{bins}'" in err
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

    def test_train_failed_loss_csv_keeps_the_old_file(self, tmp_path, capsys,
                                                      monkeypatch) -> None:
        """A loss.csv write that fails after its first row exits 2 with
        nothing on stdout, leaves the old loss.csv byte for byte as it was
        and leaves no temp file beside it."""
        out = tmp_path / "run"
        out.mkdir()
        (out / "loss.csv").write_bytes(b"the,old,curve\r\n")
        monkeypatch.setattr(csv, "writer", FailAfterFirstRow)
        rc = cli.main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG == 2
        assert stdout == "" and "No space left on device" in err
        assert (out / "loss.csv").read_bytes() == b"the,old,curve\r\n"
        assert sorted(p.name for p in out.iterdir()) == ["checkpoint.arcl", "config.json",
                                                         "loss.csv"]

    def test_train_failed_config_write_keeps_the_old_file(self, tmp_path, capsys,
                                                          monkeypatch) -> None:
        """A config.json write that fails after its first bytes exits 2 with
        nothing on stdout, leaves the old config.json byte for byte as it
        was, leaves no temp file beside it and saves no checkpoint."""
        out = tmp_path / "run"
        out.mkdir()
        old = b'{"the": "old config"}\n'
        (out / "config.json").write_bytes(old)
        real_open = io.open

        class FailAfterFirstBytes:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data[:8])
                self.fh.flush()
                raise OSError(28, "No space left on device")

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        def open_failing_config_writes(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if (isinstance(file, (str, os.PathLike)) and mode[0] in "wxa"
                    and Path(file).parent == out and "config.json" in Path(file).name):
                return FailAfterFirstBytes(fh)
            return fh

        monkeypatch.setattr(io, "open", open_failing_config_writes)
        monkeypatch.setattr(builtins, "open", open_failing_config_writes)
        rc = cli.main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG == 2
        assert stdout == "" and "No space left on device" in err
        assert (out / "config.json").read_bytes() == old
        assert [p.name for p in out.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("where", ["the file", "under the file"])
    def test_train_out_at_a_file_exits_before_training(self, tmp_path, capsys, monkeypatch,
                                                       where) -> None:
        """An --out that is an existing file, or lies under one, exits 2
        naming it before training runs, and leaves the file as it was."""
        calls = []
        monkeypatch.setattr(training, "train", lambda *args, **kwargs: calls.append(args))
        blocker = tmp_path / "afile"
        blocker.write_bytes(b"not a directory\n")
        out = blocker if where == "the file" else blocker / "run"
        rc = cli.main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG and stdout == "" and calls == []
        assert err == f"config error: --out {out}: {blocker} exists and is not a directory\n"
        assert blocker.read_bytes() == b"not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]

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
        """spectrum writes its two tables and nothing else, and its summary
        line reads the summary table's ranks."""
        config = write_config(tmp_path, arc={"variant": "full_rank", "bottleneck": 4})
        run_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(run_dir)]) == 0
        out_dir = tmp_path / "spec"
        capsys.readouterr()
        rc = cli.main(["spectrum", "--checkpoint", str(run_dir / "checkpoint.arcl"),
                       "--bins", "10", "--out", str(out_dir)])
        assert rc == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["spectrum_bins.csv",
                                                             "spectrum_summary.csv"]
        with open(out_dir / "spectrum_bins.csv", newline="") as fh:
            sites = [(row["layer"], row["group"]) for row in csv.DictReader(fh)]
        with open(out_dir / "spectrum_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sites == [(row["layer"], row["group"]) for row in rows for _ in range(10)]
        ranks = [int(row["effective_rank"]) for row in rows]
        assert capsys.readouterr().out.splitlines() == [
            f"analyzed 4 matrices  median_effective_rank {np.median(ranks):.6g}",
            f"wrote 2 files under {out_dir}",
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
            """The bin count of each (layer, group) in the bins table."""
            with open(out_dir / "spectrum_bins.csv", newline="") as fh:
                sites = [(row["layer"], row["group"]) for row in csv.DictReader(fh)]
            return {sites.count(site) for site in sites}

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

    @pytest.mark.parametrize("command", ["train", "fuse", "verify", "count", "spectrum",
                                         "gradcheck"])
    def test_help_screens(self, capsys, command) -> None:
        """``arclab --help`` lists every subcommand, and ``arclab <command>
        --help`` exits 0 printing its usage. argparse reads a help string only
        when it formats one, so a bad string (a stray ``%``) fails only here."""
        screens = []
        for argv in (["--help"], [command, "--help"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == cli.EXIT_OK, argv
            screens.append(capsys.readouterr())
        (listing, listing_err), (usage, usage_err) = screens
        assert listing_err == usage_err == ""
        assert re.search(rf"^ +{command}( |$)", listing, re.MULTILINE), listing
        assert usage.startswith(f"usage: arclab {command} "), usage

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

    def test_spectrum_range_too_narrow_for_bins_exit_3(self, tmp_path, capfd) -> None:
        """A delta whose one non-zero value is 1e-322 spans [0, 1e-322], which
        holds no 50 bins of positive width: a fresh process exits 3 naming
        the layer and group, with no traceback, and writes nothing."""
        config = write_config(tmp_path, arc={"variant": "full_rank", "bottleneck": 4})
        run_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(run_dir)]) == 0
        ckpt = run_dir / "checkpoint.arcl"
        header, tensors = load(ckpt)
        tensors["arc.mha.2.delta"][:] = 0.0
        tensors["arc.mha.2.delta"][0, 0] = 1e-322
        save(ckpt, tensors, header.config_digest)
        capfd.readouterr()
        out_dir = tmp_path / "spec"
        done = _arclab("spectrum", "--checkpoint", ckpt, "--bins", 50, "--out", out_dir)
        assert done.returncode == cli.EXIT_NUMERICAL, done.stderr
        assert done.stdout == "" and "Traceback" not in done.stderr
        assert done.stderr.startswith("numerical abort: layer 2 group mha matrix: ")
        assert "cannot hold 50 bins" in done.stderr and done.stderr.count("\n") == 1
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("given", [False, True])
    def test_fuse_out_naming_the_config_exit_2(self, trained_run, tmp_path, capsys, monkeypatch,
                                               given) -> None:
        """An --out that is the run config, the --config given or the
        config.json beside the checkpoint by default, would replace it with
        the fused weights: fuse exits 2 naming --config before reading
        either file, and writes nothing."""
        run = tmp_path / "run"
        run.mkdir()
        for name in ("checkpoint.arcl", "config.json"):
            (run / name).write_bytes((trained_run / name).read_bytes())
        blob = (run / "config.json").read_bytes()
        argv = ["fuse", "--checkpoint", str(run / "checkpoint.arcl"), "--out"]
        if given:  # the config by another spelling of its path
            argv += [str(run / ".." / "run" / "config.json"), "--config", str(run / "config.json")]
        else:
            argv += [str(run / "config.json")]

        def no_read(*args, **kwargs):
            raise AssertionError("fuse read an input")

        monkeypatch.setattr(checkpoint, "load", no_read)
        monkeypatch.setattr(cli, "load_run_config", no_read)
        rc = cli.main(argv)
        stdout, err = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG and stdout == ""
        assert err.startswith("config error: --out ") and "--config" in err, err
        assert (run / "config.json").read_bytes() == blob
        assert sorted(p.name for p in run.iterdir()) == ["checkpoint.arcl", "config.json"]
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_fuse_out_a_directory_names_it(self, trained_run, tmp_path, capsys) -> None:
        """An --out that is a directory exits 2 with an error that names that
        path, not a temp file, and writes nothing into it."""
        out = tmp_path / "run"
        out.mkdir()
        (out / "kept").write_bytes(b"kept")
        rc = cli.main(["fuse", "--checkpoint", str(trained_run / "checkpoint.arcl"),
                       "--out", str(out), "--config", str(trained_run / "config.json")])
        stdout, err = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG and stdout == ""
        assert err == f"config error: [Errno 21] Is a directory: '{out}'\n"
        assert [p.name for p in out.iterdir()] == ["kept"]
        assert (out / "kept").read_bytes() == b"kept"

    @pytest.mark.parametrize("kind", ["directory", "checkpoint"])
    def test_fuse_out_refused_before_the_checkpoint_is_read(self, trained_run, tmp_path, capsys,
                                                            monkeypatch, kind) -> None:
        """An --out that is a directory, or the checkpoint file itself, exits 2
        naming the path as given, and the checkpoint is never loaded."""
        ckpt = trained_run / "checkpoint.arcl"
        if kind == "directory":
            out = tmp_path / "run"
            out.mkdir()
        else:  # the checkpoint by another spelling of its path
            out = trained_run / ".." / trained_run.name / ckpt.name

        def no_load(*args, **kwargs):
            raise AssertionError("fuse loaded the checkpoint")

        monkeypatch.setattr(checkpoint, "load", no_load)
        rc = cli.main(["fuse", "--checkpoint", str(ckpt), "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG and stdout == ""
        assert err.startswith("config error: ") and str(out) in err

    @pytest.mark.parametrize("parent, errno_", [("nodir", 2)])
    def test_count_csv_under_no_directory_names_it(self, tmp_path, capsys, monkeypatch,
                                                   parent, errno_) -> None:
        """A --csv under a missing directory exits 2 with the write's error,
        which names the --csv path as given, not a temp file, and creates
        nothing. (A --csv under a file is refused earlier, by
        test_output_at_or_under_a_file_refused_before_reading.)"""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_bytes(b"a file")
        target = f"{parent}/t.csv"
        rc = cli.main(["count", "--method", "arc", "--Dprime", "4", "--D", "16", "--L", "3",
                       "--csv", target])
        stdout, err = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG and stdout == ""
        assert err.startswith(f"config error: [Errno {errno_}] ")
        assert err.endswith(f": '{target}'\n") and ".tmp" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]
        assert (tmp_path / "afile").read_bytes() == b"a file"

    @pytest.mark.parametrize("command, where", [
        ("fuse", "afile/f.arcl"), ("spectrum", "afile"), ("spectrum", "afile/sub"),
        ("count", "afile/x.csv")], ids=["fuse-under", "spectrum-at", "spectrum-under",
                                         "count-under"])
    def test_output_at_or_under_a_file_refused_before_reading(
            self, trained_run, tmp_path, capsys, monkeypatch, command, where) -> None:
        """An output path whose writes could never land, a directory's path at
        a file or any path under one, exits 2 naming the path as given and the
        file in the way, before the config or the checkpoint is read: nothing
        on stdout, and no file changed or made."""
        def no_reads(*args, **kwargs):
            raise AssertionError(f"{command} read its input")

        monkeypatch.setattr(cli, "load_run_config", no_reads)
        monkeypatch.setattr(cli.checkpoint, "load", no_reads)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_bytes(b"a file")
        ckpt = str(trained_run / "checkpoint.arcl")
        before = snapshot(tmp_path), snapshot(trained_run)
        argv, flag = {
            "fuse": (["fuse", "--checkpoint", ckpt, "--out", where], "--out"),
            "spectrum": (["spectrum", "--checkpoint", ckpt, "--out", where], "--out"),
            "count": (["count", "--method", "arc", "--Dprime", "4", "--csv", where], "--csv"),
        }[command]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"config error: {flag} {where}: afile exists and is not a directory\n")
        assert (snapshot(tmp_path), snapshot(trained_run)) == before

    @pytest.mark.parametrize("table", ["bins", "summary"])
    def test_spectrum_failed_table_write(self, trained_run, tmp_path, capsys, monkeypatch,
                                         table) -> None:
        """A table write that fails after its first row exits 2 with nothing
        on stdout and no temp file left. The bins table is written first: a
        failure there leaves both old tables as they were, and one in the
        summary leaves the new bins table beside the old summary."""
        ckpt = str(trained_run / "checkpoint.arcl")
        fresh = tmp_path / "fresh"
        assert cli.main(["spectrum", "--checkpoint", ckpt, "--out", str(fresh)]) == 0
        out = tmp_path / "out"
        out.mkdir()
        old = {"spectrum_bins.csv": b"the,old,bins\r\n",
               "spectrum_summary.csv": b"the,old,summary\r\n"}
        for name, blob in old.items():
            (out / name).write_bytes(blob)
        writers = []

        def writer(fh):  # the bins table's writer is the first, the summary's the second
            writers.append(fh)
            failing = len(writers) == ("bins", "summary").index(table) + 1
            return (FailAfterFirstRow if failing else FailAfterFirstRow.real_writer)(fh)

        monkeypatch.setattr(csv, "writer", writer)
        capsys.readouterr()
        assert cli.main(["spectrum", "--checkpoint", ckpt, "--out", str(out)]) == cli.EXIT_CONFIG
        stdout, err = capsys.readouterr()
        assert stdout == "" and "No space left on device" in err
        if table == "summary":
            old["spectrum_bins.csv"] = (fresh / "spectrum_bins.csv").read_bytes()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == old

    def test_every_file_is_written_through_a_temp_file(self, tmp_path, capsys,
                                                       monkeypatch) -> None:
        """train, fuse, spectrum and count --csv open files for writing only as
        hidden temp files beside their targets, and os.replace moves each one
        onto its target: every file they leave was written whole, and no temp
        file is left."""
        config = write_config(tmp_path)
        opened, replaced = [], []
        real_open, real_io_open, real_os_open, real_replace = (
            builtins.open, io.open, os.open, os.replace)

        def spy(real, writes):
            def call(file, mode_or_flags="r", *args, **kwargs):
                if isinstance(file, (str, os.PathLike)) and writes(mode_or_flags):
                    opened.append(Path(file))
                return real(file, mode_or_flags, *args, **kwargs)
            return call

        def replace(src, dst, **kwargs):
            replaced.append((Path(src), Path(dst)))
            return real_replace(src, dst, **kwargs)

        def mode_writes(mode: str) -> bool:
            return mode[0] in "wxa" or "+" in mode

        def flags_write(flags: int) -> bool:
            return bool(flags & (os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_TRUNC | os.O_APPEND))

        monkeypatch.setattr(builtins, "open", spy(real_open, mode_writes))
        monkeypatch.setattr(io, "open", spy(real_io_open, mode_writes))
        monkeypatch.setattr(os, "open", spy(real_os_open, flags_write))
        monkeypatch.setattr(os, "replace", replace)
        run = tmp_path / "run"
        for argv in (["train", "--config", str(config), "--out", str(run)],
                     ["fuse", "--checkpoint", str(run / "checkpoint.arcl"),
                      "--out", str(run / "fused.arcl")],
                     ["spectrum", "--checkpoint", str(run / "checkpoint.arcl"),
                      "--out", str(run / "spectra")],
                     ["count", "--method", "arc", "--Dprime", "4", "--csv", str(run / "t.csv")]):
            assert cli.main(argv) == 0, argv
        monkeypatch.undo()
        assert opened and [src for src, _ in replaced] == opened
        for src, dst in replaced:
            assert src.parent == dst.parent and src.name.startswith(f".{dst.name}.")
            assert src.name.endswith(".tmp") and not src.exists()
        written = sorted(str(dst.relative_to(run)) for _, dst in replaced)
        assert written == ["checkpoint.arcl", "config.json", "fused.arcl", "loss.csv",
                           "spectra/spectrum_bins.csv", "spectra/spectrum_summary.csv", "t.csv"]
        assert sorted(str(p.relative_to(run)) for p in run.rglob("*") if p.is_file()) == written

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

    @pytest.mark.parametrize("doc", [
        {},
        {"arc": {"variant": "full_rank"}},
        # two configs whose correct gradients read 3.6e-05 and 1.6e-05 when the
        # numeric derivative took h = 1e-3
        {"train": {"epochs": 1}, "arc": {"insertion_layers": [2]}},
        {"arc": {"sharing": "non_intra_non_inter", "positions": ["after_ffn"]},
         "train": {"epochs": 1}},
    ], ids=["defaults", "full_rank", "g1", "g2"])
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

    def test_gradcheck_checks_the_recorded_training_step(self, tmp_path, capsys,
                                                         monkeypatch) -> None:
        """train and gradcheck record through ``training.record_step``, and
        on one config they record the same graph: the same primitives, the
        same needs-grad flags and the same parameters, over a batch of
        ``batch_size`` images with a dropout mask."""
        graphs = []
        real = training.record_step

        def spy(tape, *args):
            logits, loss = real(tape, *args)
            graphs.append(([(node.prim, node.needs, node.value.shape) for node in tape._nodes],
                           list(tape._params)))
            return logits, loss

        monkeypatch.setattr(training, "record_step", spy)
        config = write_config(tmp_path, arc={"dropout_rate": 0.1}, train={"epochs": 1})
        assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        assert cli.main(["gradcheck", "--config", str(config)]) == 0
        assert "gradcheck PASS" in capsys.readouterr().out
        (trained, trained_names), (checked, checked_names) = graphs
        assert checked == trained and checked_names == trained_names
        assert trained[-1][2] == (1, 1) and any(shape[0] == 8 for _, _, shape in trained)

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
    def test_gradcheck_bad_tol_exit_2(self, tmp_path, capsys, tol) -> None:
        """An infinite tol would pass any gradient and a NaN or negative one
        fail every gradient, so the parser refuses each naming --tol (exit 2)."""
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["gradcheck", "--config", str(config), "--tol", tol])
        out, err = capsys.readouterr()
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"argument --tol: must be finite and > 0, got '{tol}'" in err and out == ""

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_verify_bad_trials_exit_2_before_loading(self, tmp_path, capsys, monkeypatch,
                                                     trials) -> None:
        """A trial count below one is refused by the parser naming --trials
        (exit 2), before either checkpoint is read."""
        def no_loads(*args, **kwargs):
            raise AssertionError("verify read a checkpoint")

        monkeypatch.setattr(cli, "_load_checkpoint", no_loads)
        monkeypatch.setattr(cli.checkpoint, "load", no_loads)
        missing = str(tmp_path / "missing.arcl")
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--checkpoint", missing, "--fused", missing,
                      "--trials", trials])
        out, err = capsys.readouterr()
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"argument --trials: must be an integer >= 1, got '{trials}'" in err and out == ""

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

    DEEP = "4000000000000000000000"

    @pytest.mark.parametrize("command", ["train", "count", "count-knob"])
    def test_bare_memory_error_names_the_largest_size(self, tmp_path, capsys, monkeypatch,
                                                      command) -> None:
        """A MemoryError with no message, as Python raises when a dict or a
        list outgrows memory, names the largest size given, by the flag
        that gave it."""
        def out_of_memory(*args):
            raise MemoryError()

        if command == "train":
            monkeypatch.setattr(model, "weight_shapes", out_of_memory)
            config = write_config(tmp_path, backbone={"layers": int(self.DEEP)})
            argv = ["train", "--config", str(config), "--out", str(tmp_path / "run")]
            where = f"backbone.layers {self.DEEP}"
        else:
            monkeypatch.setattr(cli.accounting, "scaling_table", out_of_memory)
            sizes = {"count": ("4", self.DEEP), "count-knob": (self.DEEP, "12")}[command]
            argv = ["count", "--method", "arc", "--Dprime", sizes[0], "--D", "16", "--L", sizes[1]]
            where = f"--L {self.DEEP}" if command == "count" else f"--Dprime {self.DEEP}"
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"out of memory: an allocation grown from {where}, the largest size given, "
                "failed\n")
        assert not (tmp_path / "run").exists()

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
