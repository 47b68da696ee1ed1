import json
import os

import pytest

from cryptoyield.errors import CryptoYieldError
from cryptoyield.reporting import Report, config_hash, render_value


class TestRendering:
    def test_float_uses_repr(self):
        assert render_value(0.1) == "0.1"
        assert render_value(1 / 3) == "0.3333333333333333"

    def test_none_renders_empty(self):
        assert render_value(None) == ""

    def test_config_hash_key_order_invariant(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})


class TestReportWrite:
    def make_report(self):
        report = Report(command="demo", summary={"answer": 42})
        report.add_series("numbers", ("i", "x"), [{"i": 1, "x": 0.5}, {"i": 2, "x": 0.25}])
        report.finalize_provenance({"command": "demo"}, input_paths=(), seed=7)
        return report

    def test_round_trip(self, tmp_path):
        written = self.make_report().write(tmp_path / "out")
        assert sorted(os.path.basename(p) for p in written) == ["numbers.csv", "report.json"]
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["summary"] == {"answer": 42}
        assert payload["provenance"]["config"] == {"command": "demo"}
        assert payload["provenance"]["seed"] == 7
        assert (tmp_path / "out" / "numbers.csv").read_text() == "i,x\n1,0.5\n2,0.25\n"

    def test_write_is_byte_deterministic(self, tmp_path):
        self.make_report().write(tmp_path / "a")
        self.make_report().write(tmp_path / "b")
        for name in ("numbers.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_partial_outputs_removed_on_failure(self, tmp_path):
        report = Report(command="demo", summary={})
        report.add_series("good", ("i",), [{"i": 1}])
        report.add_series("bad", ("i", "missing"), [{"i": 1}])  # KeyError mid-write
        out = tmp_path / "out"
        with pytest.raises(KeyError):
            report.write(out)
        assert not out.exists()

    def test_failed_write_keeps_existing_directory(self, tmp_path):
        report = Report(command="demo", summary={})
        report.add_series("bad", ("i", "missing"), [{"i": 1}])
        (tmp_path / "keep.txt").write_text("x")
        with pytest.raises(KeyError):
            report.write(tmp_path / "new" / "out")
        assert not (tmp_path / "new").exists()
        with pytest.raises(KeyError):
            report.write(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.txt"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_summary_refused_before_writing(self, tmp_path, bad):
        report = self.make_report()
        report.summary["answer"] = bad
        out = tmp_path / "out"
        with pytest.raises(CryptoYieldError):
            report.write(out)
        assert not out.exists()
