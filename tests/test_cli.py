"""Command line behavior: exit codes, tables, JSON documents."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from diskcomplex import SimplicialComplex, cli, reduced_homology
from diskcomplex.cli import (
    SCHEMA_BBM,
    SCHEMA_GAMMA,
    canonical_json,
    load_document,
    make_document,
    payload_sha256,
    run,
    write_document,
)
from diskcomplex.errors import SchemaError
from test_complexes import HOLLOW_TRIANGLE, PROJECTIVE_PLANE


SRC = Path(__file__).resolve().parent.parent / "src"

NOTE = ("no; finite sample probe; a full subcomplex of the infinite complex "
        "can have homology the full complex lacks")


def cap(capsys, argv):
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestDims:
    def test_table(self, capsys):
        code, out, _ = cap(capsys, ["dims", "-g", "2", "-b", "0"])
        assert code == 0
        assert out == (
            "genus         2\n"
            "boundaries    0\n"
            "dimension     2\n"
            "connectivity  2\n"
        )

    def test_json(self, capsys):
        code, out, _ = cap(capsys, ["dims", "-g", "2", "-b", "0", "--json"])
        assert code == 0
        assert out == (
            '{"boundaries":0,"connectivity":2,"dimension":2,"genus":2}\n')

    def test_small_surface_exits_two(self, capsys):
        code, _, err = cap(capsys, ["dims", "-g", "1", "-b", "0"])
        assert code == 2
        assert "too small" in err


class TestIntersect:
    def test_crossing_cores(self, capsys):
        code, out, _ = cap(capsys, ["intersect", "-g", "2", "g1", "g2"])
        assert code == 0
        assert out == (
            "class 1    g1\n"
            "class 2    g2\n"
            "geometric  1\n"
            "algebraic  -1\n"
        )

    def test_json(self, capsys):
        code, out, _ = cap(
            capsys, ["intersect", "-g", "2", "g1", "g2", "--json"])
        assert code == 0
        assert out == (
            '{"algebraic":-1,"geometric":1,"word1":"g1","word2":"g2"}\n')

    def test_same_class_redirects_to_disk_check(self, capsys):
        code, _, err = cap(capsys, ["intersect", "-g", "2", "g1", "g1"])
        assert code == 2
        assert "disk-check" in err

    def test_bad_token_exits_two(self, capsys):
        code, _, err = cap(capsys, ["intersect", "-g", "2", "g1", "g0"])
        assert code == 2
        assert "token" in err

    def test_genus_past_the_link_table_limit_exits_two_at_once(self, capsys):
        t0 = time.monotonic()
        code, out, err = cap(capsys, ["intersect", "-g", "200", "g1", "g2"])
        assert time.monotonic() - t0 < 1.0
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "link table" in err
        assert "Traceback" not in err


class TestDiskCheck:
    def test_separating_frontier(self, capsys):
        code, out, _ = cap(capsys, ["disk-check", "-g", "2", "g1 g2 -g1 -g2"])
        assert code == 0
        assert out == (
            "class              g1 g2 -g1 -g2\n"
            "self-intersection  0\n"
            "peripheral         no\n"
            "disk sides         E O\n"
            "disk vertex        yes\n"
        )

    def test_json_for_a_non_vertex(self, capsys):
        code, out, _ = cap(capsys, ["disk-check", "-g", "2", "g1 g2", "--json"])
        assert code == 0
        assert out == (
            '{"disk_vertex":false,"peripheral":false,"self_intersection":0,'
            '"sides":[],"word":"g1 g2"}\n'
        )


class TestSplit:
    def test_two_cores(self, capsys):
        code, out, _ = cap(capsys, ["split", "-g", "2", "--curves", "z1,z3"])
        assert code == 0
        assert out == (
            "ambient     genus 2, 1 boundary\n"
            "curves      z1 z3\n"
            "components  (0,5)\n"
            "check       ok\n"
        )

    def test_json(self, capsys):
        code, out, _ = cap(
            capsys, ["split", "-g", "2", "--curves", "z1", "--json"])
        assert code == 0
        assert out == (
            '{"ambient":[2,1],"check":true,"components":[[1,3]],'
            '"curves":["z1"]}\n'
        )

    @pytest.mark.parametrize("g, curves, components", [
        ("4", "z2,z4,z6,x:1-4", "(1,4) (0,5)"),
        ("3", "z1,z3,z6,x:1-4", "(0,5) (0,4)"),
        # a facet of the interval sphere: nested frontiers and the cores
        # inside and beyond each
        ("4", "z1,x:1-2,x:1-4,x:1-6,z4,z6,z8", "(0,4) (0,4) (0,4) (0,3)"),
        # frontiers one circle apart
        ("3", "x:1-2,x:4-5", "(1,3) (1,1) (1,1)"),
    ])
    def test_cores_inside_and_beyond_an_interval(
            self, capsys, g, curves, components):
        code, out, _ = cap(capsys, ["split", "-g", g, "--curves", curves])
        assert code == 0
        assert out == (
            f"ambient     genus {g}, 1 boundary\n"
            f"curves      {curves.replace(',', ' ')}\n"
            f"components  {components}\n"
            "check       ok\n"
        )

    def test_crossing_curves_exit_two(self, capsys):
        code, _, err = cap(capsys, ["split", "-g", "2", "--curves", "z1,z2"])
        assert code == 2
        assert "intersect" in err

    @pytest.mark.parametrize("curves", ["x:1-2,x:3-4", "z3,x:1-2"])
    def test_crossing_frontiers_exit_two(self, capsys, curves):
        code, _, err = cap(capsys, ["split", "-g", "2", "--curves", curves])
        assert code == 2
        assert f"{curves.replace(',', ' and ')} intersect" in err

    def test_corrupt_report_exits_one(self, capsys, monkeypatch):
        import diskcomplex.split as split

        monkeypatch.setattr(
            split, "bookkeeping_check", lambda report: False)
        code, _, err = cap(capsys, ["split", "-g", "2", "--curves", "z1"])
        assert code == 1
        assert "bookkeeping" in err


class TestGammaSample:
    def test_table(self, capsys):
        code, out, _ = cap(capsys, ["gamma", "sample", "-g", "2", "-L", "2"])
        assert code == 0
        assert out == (
            "genus             2\n"
            "budget            2\n"
            "enumerated        64\n"
            "vertices          6\n"
            "edges             9\n"
            "max simplex dim   2\n"
            "betti0 (reduced)  0\n"
            "betti1            2\n"
            f"conclusive        {NOTE}\n"
        )

    def test_json(self, capsys):
        code, out, _ = cap(
            capsys, ["gamma", "sample", "-g", "2", "-L", "2", "--json"])
        assert code == 0
        assert out == (
            '{"betti0":0,"betti1":2,"conclusive":false,"edges":9,'
            '"max_simplex_dim":2,"n_enumerated":64,"vertices":6}\n'
        )

    def test_budget_cap_exits_two(self, capsys):
        code, _, err = cap(
            capsys,
            ["gamma", "sample", "-g", "2", "-L", "12", "--cap", "500"])
        assert code == 2
        assert "cap" in err

    def test_budget_past_the_class_search_exits_two_at_once(self, capsys):
        # a 1,301-digit cap admits L = 1200, but the class search nests one
        # frame per letter and stops at handles.MAX_CLASS_LENGTH
        t0 = time.monotonic()
        code, out, err = cap(
            capsys, ["gamma", "sample", "-g", "2", "-L", "1200",
                     "--cap", "1" + "0" * 1300])
        assert time.monotonic() - t0 < 1.0
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "1200" in err
        assert "Traceback" not in err

    def test_non_disk_include_exits_two(self, capsys):
        code, _, err = cap(
            capsys,
            ["gamma", "sample", "-g", "2", "-L", "1", "--include", "g1 g2"])
        assert code == 2
        assert "disk" in err


class TestPersistence:
    def test_build_summary_table(self, capsys):
        code, out, _ = cap(capsys, ["bbm", "build", "-g", "2"])
        assert code == 0
        assert out == (
            "genus      2\n"
            "vertices   9\n"
            "edges      21\n"
            "f-vector   (9, 21, 14)\n"
            "dimension  2\n"
        )

    def test_build_then_homology_round_trip(self, capsys, tmp_path):
        path = tmp_path / "g2.json"
        code, out, _ = cap(
            capsys, ["bbm", "build", "-g", "2", "--out", str(path)])
        assert code == 0
        assert out == f"wrote {path}\n"

        code, out, _ = cap(capsys, ["homology", str(path)])
        assert code == 0
        assert out == (
            "schema    diskcx/bbm-complex/1\n"
            "path      faces\n"
            "f-vector  (9, 21, 14)\n"
            "betti     (0, 0, 1)\n"
            "torsion   none\n"
            "leftover  (0, 0, 1)\n"
            "sphere    yes (dimension 2)\n"
        )

        code, out, _ = cap(capsys, ["homology", str(path), "--json"])
        assert code == 0
        assert out == (
            '{"betti":[0,0,1],"f_vector":[9,21,14],"is_sphere":true,'
            '"leftover":[0,0,1],"path":"faces",'
            '"schema":"diskcx/bbm-complex/1",'
            '"sphere_dimension":2,"torsion":[[],[],[]]}\n'
        )

    def test_payload_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cap(capsys, ["bbm", "build", "-g", "2", "--out", str(a)])
        cap(capsys, ["bbm", "build", "-g", "2", "--out", str(b)])
        da = json.loads(a.read_text())
        db = json.loads(b.read_text())
        assert da["payload"] == db["payload"]
        assert da["manifest"]["payload_sha256"] == (
            db["manifest"]["payload_sha256"])

    @pytest.mark.parametrize("argv", [
        ["bbm", "build", "-g", "3"],
        ["gamma", "sample", "-g", "2", "-L", "4"],
        ["gamma", "sample", "-g", "3", "-L", "2",
         "--include", "g1 g2 g4 -g1 g3 -g4 -g3 -g2"],
    ], ids=["bbm", "gamma", "gamma-include"])
    def test_written_document_is_its_canonical_json(self, capsys, tmp_path,
                                                    argv):
        # the payload text is made once and spliced into the file; the
        # file is still canonical_json of the document, byte for byte, and
        # the manifest hashes that payload text
        path = tmp_path / "d.json"
        assert cap(capsys, argv + ["--out", str(path)])[0] == 0
        text = path.read_text()
        doc = json.loads(text)
        assert text == canonical_json(doc) + "\n"
        assert doc["manifest"]["payload_sha256"] == payload_sha256(
            doc["payload"])
        assert load_document(path) == doc

    def test_write_document_splices_the_payload_text(self, tmp_path):
        payload = {"facets": [[0, 1], [1, 2]], "z": "\u00e9", "a": {"b": 1}}
        text = canonical_json(payload)
        doc = make_document(SCHEMA_GAMMA, payload, command="x \"y\"",
                            payload_text=text)
        assert doc == make_document(SCHEMA_GAMMA, payload, command="x \"y\"")
        path = tmp_path / "d.json"
        write_document(path, doc, text)
        assert path.read_text() == canonical_json(doc) + "\n"

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

    def test_printed_document_splices_the_written_payload_text(
            self, capsys, tmp_path):
        # --json and --out render one document text; only the manifest's
        # timestamp and wall time may differ between the two runs
        code, out, _ = cap(capsys, ["bbm", "build", "-g", "3", "--json"])
        assert code == 0
        assert out == canonical_json(json.loads(out)) + "\n"
        path = tmp_path / "g3.json"
        assert cap(capsys, ["bbm", "build", "-g", "3", "--out", str(path)])[0] == 0

        def payload_text(text):
            return text[text.index('"payload":'):text.rindex(',"schema":')]

        assert payload_text(out) == payload_text(path.read_text())

    def test_gamma_document_homology(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        code, _, _ = cap(
            capsys,
            ["gamma", "sample", "-g", "2", "-L", "3", "--out", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["schema"] == SCHEMA_GAMMA

        code, out, _ = cap(capsys, ["homology", str(path)])
        assert code == 0
        assert out == (
            "schema    diskcx/gamma-sample/1\n"
            "path      core\n"
            "f-vector  (6, 9, 2)\n"
            "betti     (0, 2, 0)\n"
            "torsion   none\n"
            "leftover  (0, 2, 0)\n"
        )

    def test_homology_prints_torsion(self, capsys, tmp_path):
        # the projective plane keeps a Z/2 that only the Smith form finds
        path = tmp_path / "rp2.json"
        path.write_text(json.dumps(make_document(
            SCHEMA_GAMMA, {"facets": [list(f) for f in PROJECTIVE_PLANE]})))
        code, out, _ = cap(capsys, ["homology", str(path)])
        assert code == 0
        assert out == (
            "schema    diskcx/gamma-sample/1\n"
            "path      faces\n"
            "f-vector  (6, 15, 10)\n"
            "betti     (0, 0, 0)\n"
            "torsion   ((), (2,), ())\n"
            "leftover  (0, 5, 5)\n"
        )
        code, out, _ = cap(capsys, ["homology", str(path), "--json"])
        assert code == 0
        assert out == (
            '{"betti":[0,0,0],"f_vector":[6,15,10],"leftover":[0,5,5],'
            '"path":"faces","schema":"diskcx/gamma-sample/1",'
            '"torsion":[[],[2],[]]}\n')

    @pytest.mark.parametrize("build", [
        ["bbm", "build", "-g", "2"],
        ["gamma", "sample", "-g", "2", "-L", "4"],
        ["bbm", "build", "-g", "3"],
    ], ids=["bbm_g2", "gamma_2_4", "bbm_g3"])
    def test_homology_of_a_resigned_messy_document(self, capsys, tmp_path,
                                                   build):
        # the facets shuffled, each one's vertices permuted, some repeated
        # and some faces of them added: the same complex, the same output
        clean = tmp_path / "clean.json"
        assert cap(capsys, build + ["--out", str(clean)])[0] == 0
        doc = json.loads(clean.read_text())
        facets = doc["payload"]["facets"]
        rng = random.Random(43)
        messy = [rng.sample(f, len(f)) for f in facets]
        messy += rng.sample(messy, len(messy) // 3)
        messy += [rng.sample(f, rng.randint(1, len(f) - 1))
                  for f in rng.sample(facets, len(facets) // 2) if len(f) > 1]
        rng.shuffle(messy)
        assert len(messy) > len(facets) and messy[:len(facets)] != facets
        doc["payload"]["facets"] = messy
        doc["manifest"]["payload_sha256"] = payload_sha256(doc["payload"])
        resigned = tmp_path / "messy.json"
        resigned.write_text(json.dumps(doc))
        for flags in ([], ["--json"]):
            want = cap(capsys, ["homology", str(clean)] + flags)
            assert want[0] == 0
            assert cap(capsys, ["homology", str(resigned)] + flags) == want

    def test_homology_of_a_resigned_low_dimensional_document(self, capsys,
                                                            tmp_path):
        # the ridges of the g=2 sphere form a circle, not a 2-sphere: its
        # Betti numbers stop below the degree the verdict reads
        path = tmp_path / "g2.json"
        cap(capsys, ["bbm", "build", "-g", "2", "--out", str(path)])
        doc = json.loads(path.read_text())
        doc["payload"]["facets"] = [[0, 1], [1, 2], [0, 2]]
        doc["manifest"]["payload_sha256"] = payload_sha256(doc["payload"])
        path.write_text(json.dumps(doc))
        code, out, _ = cap(capsys, ["homology", str(path)])
        assert code == 0
        assert out == (
            "schema    diskcx/bbm-complex/1\n"
            "path      faces\n"
            "f-vector  (3, 3)\n"
            "betti     (0, 1)\n"
            "torsion   none\n"
            "leftover  (0, 1)\n"
            "sphere    NO (dimension 2)\n"
        )

    def test_unknown_schema_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        cap(capsys, ["bbm", "build", "-g", "2", "--out", str(path)])
        doc = json.loads(path.read_text())
        doc["schema"] = "diskcx/unknown/9"
        path.write_text(json.dumps(doc))
        code, _, err = cap(capsys, ["homology", str(path)])
        assert code == 2
        assert "schema" in err

    def test_too_many_relative_cells_exits_two_at_once(self, capsys, tmp_path):
        # the second of two disjoint 30-vertex facets stays outside A, and
        # its 2^30 vertex subsets would exhaust memory
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(make_document(
            SCHEMA_GAMMA, {"facets": [list(range(30)), list(range(30, 60))]})))
        t0 = time.monotonic()
        code, out, err = cap(capsys, ["homology", str(path)])
        assert time.monotonic() - t0 < 1.0
        assert code == 2 and out == ""
        assert "1073741824 vertex subsets, above the limit of 12000000" in err

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


class TestCorePath:
    """homology reads a gamma document off the dominated-edge core of its
    edges when they generate the complex its facets list, and otherwise
    takes the face path; both give the same f-vector, Betti numbers and
    torsion."""

    @staticmethod
    def write(path, payload):
        path.write_text(json.dumps(make_document(SCHEMA_GAMMA, payload)))
        return path

    @pytest.mark.parametrize("genus, budget", [
        (2, 1), (2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (3, 4),
        (3, 5), (4, 3)])
    def test_core_path_agrees_with_the_face_path(self, capsys, tmp_path,
                                                 genus, budget):
        path = tmp_path / "s.json"
        assert cap(capsys, ["gamma", "sample", "-g", str(genus), "-L",
                            str(budget), "--out", str(path)])[0] == 0
        code, out, _ = cap(capsys, ["homology", str(path), "--json"])
        assert code == 0
        got = json.loads(out)
        assert got["path"] == "core"
        facets = json.loads(path.read_text())["payload"]["facets"]
        full = reduced_homology(SimplicialComplex.from_facets(facets))
        assert got["f_vector"] == list(full.cells)
        assert got["betti"] == list(full.betti)
        assert got["torsion"] == [list(t) for t in full.torsion]

    def test_the_g3_L5_leftover_is_the_cores(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        cap(capsys, ["gamma", "sample", "-g", "3", "-L", "5", "--out",
                     str(path)])
        code, out, _ = cap(capsys, ["homology", str(path)])
        assert code == 0
        assert out == (
            "schema    diskcx/gamma-sample/1\n"
            "path      core\n"
            "f-vector  (105, 813, 2157, 2506, 1380, 292)\n"
            "betti     (0, 0, 32, 2, 0, 0)\n"
            "torsion   none\n"
            "leftover  (0, 0, 34, 4, 0, 0)\n"
        )

    @pytest.mark.parametrize("facets, edges", [
        # the edges fill the hollow triangle
        (HOLLOW_TRIANGLE, HOLLOW_TRIANGLE),
        # a listed face is no clique of the edges
        ([(0, 1, 2)], [(0, 1), (1, 2)]),
        # an edge to a vertex no listed face holds
        ([(0, 1), (1, 2), (0, 2)], [(0, 1), (1, 2), (0, 2), (2, 3)]),
    ], ids=["filled", "no_clique", "new_vertex"])
    def test_forged_edges_fall_back_to_the_face_path(self, capsys, tmp_path,
                                                     facets, edges):
        forged = self.write(tmp_path / "forged.json", {
            "edges": [list(e) for e in edges],
            "facets": [list(f) for f in facets]})
        bare = self.write(tmp_path / "bare.json",
                          {"facets": [list(f) for f in facets]})
        code, out, _ = cap(capsys, ["homology", str(forged), "--json"])
        assert code == 0
        assert json.loads(out)["path"] == "faces"
        assert cap(capsys, ["homology", str(bare), "--json"]) == (0, out, "")

    @pytest.mark.parametrize("edges", [
        "0-1", [0, 1], [[0]], [[0, 1, 2]], [["0", 1]], [[0, 1.0]],
        [[True, 1]], [[1, 1]]],
        ids=["string", "flat", "single", "triple", "string_id", "float_id",
             "bool_id", "loop"])
    def test_malformed_edges_exit_two(self, capsys, tmp_path, edges):
        path = self.write(tmp_path / "bad.json",
                          {"edges": edges, "facets": [[0, 1], [1, 2]]})
        code, out, err = cap(capsys, ["homology", str(path)])
        assert code == 2 and out == ""
        assert "payload.edges" in err

    def test_wide_faces_with_edges_exit_two_at_once(self, capsys, tmp_path):
        # two disjoint 30-vertex faces whose edges generate them: the walk
        # is not tried, and the face path refuses the second face's 2^30
        # vertex subsets
        faces = [list(range(30)), list(range(30, 60))]
        path = self.write(tmp_path / "wide.json", {
            "edges": [[a, b] for f in faces for a in f for b in f if a < b],
            "facets": faces})
        t0 = time.monotonic()
        code, out, err = cap(capsys, ["homology", str(path)])
        assert time.monotonic() - t0 < 1.0
        assert code == 2 and out == ""
        assert "1073741824 vertex subsets, above the limit of 12000000" in err


class TestUnwritableOut:
    @pytest.mark.parametrize("build", [
        ["bbm", "build", "-g", "2"],
        ["gamma", "sample", "-g", "2", "-L", "2"],
    ], ids=["bbm", "gamma"])
    @pytest.mark.parametrize("where", ["missing_parent", "directory"])
    def test_exits_two(self, capsys, tmp_path, build, where):
        path = tmp_path
        if where == "missing_parent":
            path = tmp_path / "absent" / "x.json"
        code, out, err = cap(capsys, build + ["--out", str(path)])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: cannot write document ")
        assert str(path) in err
        assert "Traceback" not in err
        assert not (tmp_path / "absent").exists()

    @pytest.mark.parametrize("build", [
        ["bbm", "build", "-g", "5"],
        ["gamma", "sample", "-g", "3", "-L", "6", "--cap", "100000000"],
    ], ids=["bbm", "gamma"])
    @pytest.mark.parametrize("where", ["missing_parent", "parent_is_a_file",
                                       "directory"])
    def test_checked_before_the_work(self, capsys, tmp_path, monkeypatch,
                                     build, where):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the --out check")

        monkeypatch.setattr(cli, "build_complex", no_work)
        monkeypatch.setattr(cli, "sample_gamma", no_work)
        (tmp_path / "file").write_text("")
        path = {
            "missing_parent": tmp_path / "absent" / "x.json",
            "parent_is_a_file": tmp_path / "file" / "x.json",
            "directory": tmp_path,
        }[where]
        reason = {
            "missing_parent": "[Errno 2] No such file or directory",
            "parent_is_a_file": "[Errno 20] Not a directory",
            "directory": "[Errno 21] Is a directory",
        }[where]
        code, out, err = cap(capsys, build + ["--out", str(path)])
        assert (code, out) == (2, "")
        # the line write_document prints when the write itself fails
        assert err == f"error: cannot write document {path}: {reason}: '{path}'\n"


class TestDependencies:
    def test_cli_import_loads_no_networkx(self):
        # no runtime dependency: every module the import loads is from
        # the standard library or from diskcomplex (site hooks that load
        # before it, such as a setuptools .pth, are not its doing)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; before = set(sys.modules); import diskcomplex.cli; "
             "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
             " - set(sys.stdlib_module_names) - {'diskcomplex'}))"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestParser:
    def test_missing_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["split", "-g", "2", "z1"])
        assert exc.value.code == 2

    def test_build_out_with_json_is_a_usage_error(self, tmp_path):
        out = tmp_path / "g2.json"
        with pytest.raises(SystemExit) as exc:
            run(["bbm", "build", "-g", "2", "--out", str(out), "--json"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_no_command_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            run([])


class TestMain:
    @pytest.mark.parametrize("genus, code", [("2", 0), ("1", 2)])
    def test_module_exit_code(self, genus, code):
        proc = subprocess.run(
            [sys.executable, "-m", "diskcomplex", "dims", "-g", genus,
             "-b", "0"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == code, proc.stderr
