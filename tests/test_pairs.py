from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]


class TestVerdict:
    def test_gain_needs_nine_tenths_won_and_a_gap_past_the_iqr(self) -> None:
        change = [b * 0.8 for b in BASE]
        v = pairs.verdict(BASE, change, "lower", 0.25)
        assert (v["verdict"], v["wins"]) == ("gain", 10)
        # eight wins of ten is no gain, however large the gap
        v = pairs.verdict(BASE, change[:8] + [1.5, 1.5], "lower", 0.25)
        assert (v["verdict"], v["wins"]) == ("unresolved", 8)
        # nor are nine wins of nine pairs
        assert pairs.verdict(BASE[:9], change[:9], "lower", 0.25)["verdict"] == "flat"

    def test_a_gap_inside_the_iqr_is_no_gain(self) -> None:
        v = pairs.verdict(BASE, [b - 0.001 for b in BASE], "lower", 0.25)
        assert v["wins"] == 10 and v["verdict"] == "flat"

    def test_higher_is_better(self) -> None:
        assert pairs.verdict(BASE, [b * 1.2 for b in BASE], "higher", 0.1)["verdict"] == "gain"
        assert pairs.verdict(BASE, [b * 0.8 for b in BASE], "higher", 0.1)["verdict"] == "worse"

    def test_worse_is_past_the_bound_of_the_base_median(self) -> None:
        assert pairs.verdict(BASE, [b * 1.3 for b in BASE], "lower", 0.25)["verdict"] == "worse"
        assert pairs.verdict(BASE, [b * 1.2 for b in BASE], "lower", 0.25)["verdict"] == "flat"

    def test_ratios_spread_wider_than_the_gap_are_unresolved(self) -> None:
        change = [b * r for b, r in zip(BASE, [0.9, 1.1] * 5)]
        v = pairs.verdict(BASE, change, "lower", 0.25)
        assert v["verdict"] == "unresolved" and v["ratio_max"] - v["ratio_min"] > v["gap"]

    def test_ties_count_for_neither_side(self) -> None:
        assert pairs.verdict(BASE, BASE, "lower", 0.25)["wins"] == 0

    def test_each_sides_maximum(self) -> None:
        v = pairs.verdict(BASE, [b * 0.8 for b in BASE[:9]] + [1.5], "lower", 0.25)
        assert (v["base_max"], v["change_max"]) == (1.03, 1.5)


class TestSummary:
    def test_table_prints_each_sides_maximum(self, tmp_path, capsys, monkeypatch) -> None:
        """The summary row of a metric holds both medians, the base's
        quartiles, then each side's maximum, the wins and the verdict."""
        spec = [{"name": "cycle_s", "better": "lower", "bound": 0.25}]
        trees = []
        for name in ("a", "b"):
            tree = TestArguments._tree(tmp_path / name)
            (tree / "BENCHMARK.json").write_text(json.dumps({"end_to_end": spec}))
            trees.append(str(tree))
        values = {(trees[0], 1): 1.0, (trees[1], 1): 0.5, (trees[0], 2): 1.2,
                  (trees[1], 2): 0.7}

        def fake_run(tree, args, seed):
            metrics = {"cycle_s": {"value": values[(str(tree), seed)]}}
            return {"fingerprints": {}}, {"failed": 0, "attempted": 1, "metrics": metrics}

        monkeypatch.setattr(pairs, "run", fake_run)
        assert pairs.main(["--base", trees[0], "--change", trees[1], "--workload", "train",
                           "--pairs", "2", "--seconds", "1"]) == 0
        header, row = capsys.readouterr().out.splitlines()[-2:]
        assert "base max" in header and "change max" in header
        assert row.split()[:7] == ["cycle_s", "1.1", "0.95-1.25", "0.6", "1.2", "0.7", "2/2"]


class TestArguments:
    @staticmethod
    def _tree(path: Path) -> Path:
        (path / "bench").mkdir(parents=True)
        (path / "bench" / "run.py").write_text("")
        return path

    def test_paths_of_unequal_length_exit_2(self, tmp_path, capsys) -> None:
        base, change = self._tree(tmp_path / "a"), self._tree(tmp_path / "bb")
        with pytest.raises(SystemExit) as exc:
            pairs.parse_args(["--base", str(base), "--change", str(change), "--workload",
                              "train", "--pairs", "1", "--seconds", "1"])
        assert exc.value.code == 2
        assert "paths of one length" in capsys.readouterr().err

    def test_paths_of_equal_length_parse(self, tmp_path) -> None:
        base, change = self._tree(tmp_path / "a"), self._tree(tmp_path / "b")
        args = pairs.parse_args(["--base", str(base), "--change", str(change), "--workload",
                                 "train", "--pairs", "10", "--seconds", "2"])
        assert (args.pairs, args.seconds, args.first_seed) == (10, 2.0, 1)
