"""Command line behavior: exit codes, tables, JSON documents."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diskcomplex.cli import (
    SCHEMA_BBM,
    SCHEMA_GAMMA,
    load_document,
    payload_sha256,
    run,
)
from diskcomplex.errors import SchemaError


def cap(capsys, argv):
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestDims:
    def test_table(self, capsys):
        code, out, _ = cap(capsys, ["dims", "-g", "2", "-b", "0"])
        assert code == 0
        assert "dimension     2" in out
        assert "connectivity  2" in out

    def test_json(self, capsys):
        code, out, _ = cap(capsys, ["dims", "-g", "2", "-b", "0", "--json"])
        assert code == 0
        assert json.loads(out) == {
            "genus": 2, "boundaries": 0, "dimension": 2, "connectivity": 2}

    def test_small_surface_exits_two(self, capsys):
        code, _, err = cap(capsys, ["dims", "-g", "1", "-b", "0"])
        assert code == 2
        assert "too small" in err


class TestIntersect:
    def test_crossing_cores(self, capsys):
        code, out, _ = cap(capsys, ["intersect", "-g", "2", "g1", "g2"])
        assert code == 0
        assert "geometric  1" in out
        assert "algebraic  -1" in out

    def test_json(self, capsys):
        code, out, _ = cap(
            capsys, ["intersect", "-g", "2", "g1", "g2", "--json"])
        assert json.loads(out) == {
            "word1": "g1", "word2": "g2", "geometric": 1, "algebraic": -1}

    def test_same_class_redirects_to_disk_check(self, capsys):
        code, _, err = cap(capsys, ["intersect", "-g", "2", "g1", "g1"])
        assert code == 2
        assert "disk-check" in err

    def test_bad_token_exits_two(self, capsys):
        code, _, err = cap(capsys, ["intersect", "-g", "2", "g1", "g0"])
        assert code == 2
        assert "token" in err


class TestDiskCheck:
    def test_separating_frontier(self, capsys):
        code, out, _ = cap(capsys, ["disk-check", "-g", "2", "g1 g2 -g1 -g2"])
        assert code == 0
        assert "disk sides         E O" in out
        assert "disk vertex        yes" in out

    def test_json_for_a_non_vertex(self, capsys):
        code, out, _ = cap(capsys, ["disk-check", "-g", "2", "g1 g2", "--json"])
        assert code == 0
        assert json.loads(out) == {
            "word": "g1 g2",
            "self_intersection": 0,
            "peripheral": False,
            "sides": [],
            "disk_vertex": False,
        }


class TestSplit:
    def test_two_cores(self, capsys):
        code, out, _ = cap(capsys, ["split", "-g", "2", "--curves", "z1,z3"])
        assert code == 0
        assert "components  (0,5)" in out
        assert "check       ok" in out

    def test_json(self, capsys):
        code, out, _ = cap(
            capsys, ["split", "-g", "2", "--curves", "z1", "--json"])
        assert json.loads(out) == {
            "ambient": [2, 1],
            "curves": ["z1"],
            "components": [[1, 3]],
            "check": True,
        }

    def test_crossing_curves_exit_two(self, capsys):
        code, _, err = cap(capsys, ["split", "-g", "2", "--curves", "z1,z2"])
        assert code == 2
        assert "intersect" in err

    def test_corrupt_report_exits_one(self, capsys, monkeypatch):
        import diskcomplex.cli as cli

        monkeypatch.setattr(
            cli, "bookkeeping_check", lambda report: False)
        code, _, err = cap(capsys, ["split", "-g", "2", "--curves", "z1"])
        assert code == 1
        assert "bookkeeping" in err


class TestGammaSample:
    def test_table(self, capsys):
        code, out, _ = cap(capsys, ["gamma", "sample", "-g", "2", "-L", "2"])
        assert code == 0
        assert "vertices          6" in out
        assert "conclusive        no" in out

    def test_budget_cap_exits_two(self, capsys):
        code, _, err = cap(
            capsys,
            ["gamma", "sample", "-g", "2", "-L", "12", "--cap", "500"])
        assert code == 2
        assert "cap" in err

    def test_non_disk_include_exits_two(self, capsys):
        code, _, err = cap(
            capsys,
            ["gamma", "sample", "-g", "2", "-L", "1", "--include", "g1 g2"])
        assert code == 2
        assert "disk" in err


class TestPersistence:
    def test_build_then_homology_round_trip(self, capsys, tmp_path):
        path = tmp_path / "g2.json"
        code, out, _ = cap(
            capsys, ["bbm", "build", "-g", "2", "--out", str(path)])
        assert code == 0
        assert str(path) in out

        code, out, _ = cap(capsys, ["homology", str(path)])
        assert code == 0
        assert "f-vector  (9, 21, 14)" in out
        assert "betti     (0, 0, 1)" in out
        assert "leftover  (0, 0, 1)" in out
        assert "sphere    yes (dimension 2)" in out

        code, out, _ = cap(capsys, ["homology", str(path), "--json"])
        assert code == 0
        result = json.loads(out)
        assert result["betti"] == [0, 0, 1]
        assert result["leftover"] == [0, 0, 1]

    def test_payload_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cap(capsys, ["bbm", "build", "-g", "2", "--out", str(a)])
        cap(capsys, ["bbm", "build", "-g", "2", "--out", str(b)])
        da = json.loads(a.read_text())
        db = json.loads(b.read_text())
        assert da["payload"] == db["payload"]
        assert da["manifest"]["payload_sha256"] == (
            db["manifest"]["payload_sha256"])

    def test_document_shape(self, capsys):
        code, out, _ = cap(capsys, ["bbm", "build", "-g", "2", "--json"])
        doc = json.loads(out)
        assert sorted(doc) == ["manifest", "payload", "schema"]
        assert doc["schema"] == SCHEMA_BBM
        assert doc["manifest"]["command"] == "bbm build -g 2"
        assert sorted(doc["manifest"]) == [
            "command", "created", "payload_sha256", "tool", "version",
            "wall_ms"]
        assert sorted(doc["payload"]) == [
            "edges", "facets", "genus", "odd_choices", "vertices"]

    def test_gamma_document_homology(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        code, _, _ = cap(
            capsys,
            ["gamma", "sample", "-g", "2", "-L", "3", "--out", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["schema"] == SCHEMA_GAMMA

        code, out, _ = cap(capsys, ["homology", str(path)])
        assert code == 0
        assert "f-vector  (6, 9, 2)" in out
        assert "sphere" not in out

    def test_unknown_schema_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        cap(capsys, ["bbm", "build", "-g", "2", "--out", str(path)])
        doc = json.loads(path.read_text())
        doc["schema"] = "diskcx/unknown/9"
        path.write_text(json.dumps(doc))
        code, _, err = cap(capsys, ["homology", str(path)])
        assert code == 2
        assert "schema" in err

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = cap(capsys, ["homology", str(path)])
        assert code == 2

    def test_load_document_validates_keys(self, tmp_path):
        path = tmp_path / "thin.json"
        path.write_text(json.dumps({"schema": SCHEMA_BBM}))
        with pytest.raises(SchemaError):
            load_document(path)

    # Each defect but the first re-signs the payload, so that the shape
    # check, not the hash check, has to catch it.
    @pytest.mark.parametrize("defect, resign, message", [
        ("facet_deleted", False, "payload_sha256"),
        ("no_facets", True, "facets"),
        ("mixed_ids", True, "facets"),
        ("string_ids", True, "facets"),
        ("no_genus", True, "genus"),
        ("payload_list", True, "payload"),
    ])
    def test_tampered_document_exits_two(self, capsys, tmp_path, defect,
                                         resign, message):
        path = tmp_path / "g2.json"
        cap(capsys, ["bbm", "build", "-g", "2", "--out", str(path)])
        doc = json.loads(path.read_text())
        payload = doc["payload"]
        if defect == "facet_deleted":
            del payload["facets"][0]
        elif defect == "no_facets":
            del payload["facets"]
        elif defect == "mixed_ids":
            payload["facets"][0][0] = str(payload["facets"][0][0])
        elif defect == "string_ids":
            payload["facets"] = [[str(v) for v in f] for f in payload["facets"]]
        elif defect == "no_genus":
            del payload["genus"]
        else:
            doc["payload"] = payload = payload["facets"]
        if resign:
            doc["manifest"]["payload_sha256"] = payload_sha256(payload)
        path.write_text(json.dumps(doc))
        code, out, err = cap(capsys, ["homology", str(path)])
        assert code == 2
        assert out == ""
        assert message in err
        with pytest.raises(SchemaError):
            load_document(path)


class TestDependencies:
    def test_cli_import_loads_no_networkx(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, diskcomplex.cli; print('networkx' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestParser:
    def test_missing_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["split", "-g", "2", "z1"])
        assert exc.value.code == 2

    def test_no_command_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            run([])
