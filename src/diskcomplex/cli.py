"""Command line front end.

Commands build the interval complex and persist it as a versioned JSON
document, certify homology of a persisted complex, and expose the curve
algebra (intersection numbers, disk sides), the cutting bookkeeping, the
dimension and connectivity table, and the sampling probe.

One result, rendered once.  Each command returns its result as ordered
(label, key, value) rows, and run renders them once: with --json as the
canonical JSON object of the keyed rows, otherwise as an aligned table
of the labelled rows.  Unkeyed rows are table-only (the sphere verdict
of homology), unlabelled rows JSON-only (is_sphere, sphere_dimension).
bbm build with --json prints its document, and with --out (which
excludes --json) writes it and prints the path; both render it as
document_text, which splices in the payload text made once.

Document format.  Every file this tool writes is a single JSON object

    {"manifest": {...}, "payload": {...}, "schema": "diskcx/<kind>/<v>"}

serialized with sorted keys and compact separators.  The payload is a
pure function of the mathematical input, so rebuilding the same object
yields byte-identical payload text; anything environmental (timestamp,
tool version) lives in the manifest.  A writer serialises the payload
once: the manifest hashes that text, and the file splices it between the
manifest and the schema, byte for byte canonical_json(doc).  Readers
reject unknown schema strings with SchemaError instead of guessing, and
so are documents whose payload no longer matches manifest.payload_sha256
or lacks the fields `homology` reads.  The digest is checked against the
text read when the file is laid out as a writer lays it out (the
canonical manifest, the payload, the canonical schema, a newline), and
against the payload re-serialised otherwise, say for a re-indented copy.
So a file laid out that way whose digest is that of its own
non-canonical payload text is accepted too; no writer here makes one.

homology names the path it took.  A gamma document's payload lists the
edges of the disjointness graph beside the facets; when the facets
generate exactly the flag complex of those edges (complexes.flag_cells),
the homology is read off the graph's dominated-edge core
(sampler.flag_homology) and the path is "core".  Every other document,
every bbm document among them, takes the "faces" path: reduced_homology
of the listed facets.  The two give the same f-vector, Betti numbers and
torsion; leftover describes the complex that was reduced, so on the core
path it is the core's.

Exit codes: 0 on success, 2 on rejected input (DomainError), 1 on a
violated internal invariant, which means a bug, not bad input.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from functools import cache
from itertools import chain, starmap
from operator import ne
from pathlib import Path

from . import __version__
from .complexes import SimplicialComplex, flag_cells, reduced_homology
from .errors import DomainError, InternalInvariantError, SchemaError
from .handles import bounds_disk_sides
from .intervals import build_complex
from .ribbon import chain_surface
from .sampler import (
    connectivity_probe,
    flag_homology,
    max_simplex_probe,
    sample_gamma,
)
from .split import cut_along, dims
from .words import (
    CurveClass,
    algebraic_intersection,
    geometric_intersection,
    self_intersection,
)

SCHEMA_BBM = "diskcx/bbm-complex/1"
SCHEMA_GAMMA = "diskcx/gamma-sample/1"

# document_text's layout: the three members in sorted order, no spaces
_MANIFEST, _PAYLOAD, _SCHEMA = '{"manifest":', ',"payload":', ',"schema":'
_raw_decode = json.JSONDecoder().raw_decode


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def payload_sha256(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def make_document(schema: str, payload: dict, command: str = "",
                  wall_ms: int = 0, payload_text: str | None = None) -> dict:
    """The document of a payload; payload_text is canonical_json(payload)
    when the caller already holds it, so it is hashed, not made again."""
    if payload_text is None:
        payload_text = canonical_json(payload)
    digest = hashlib.sha256(payload_text.encode()).hexdigest()
    return {
        "manifest": {
            "command": command,
            "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "payload_sha256": digest,
            "tool": "diskcx",
            "version": __version__,
            "wall_ms": wall_ms,
        },
        "payload": payload,
        "schema": schema,
    }


def _spliced(text: str):
    """(doc, payload text) of a document laid out as document_text writes
    it, with a trailing newline; None for any other layout.  The payload
    text is located by decoding the three members in place, so it is the
    payload's own text, one JSON value, and the text is decoded once."""
    if not (text.startswith(_MANIFEST) and text.endswith("}\n")):
        return None
    try:
        manifest, i = _raw_decode(text, len(_MANIFEST))
        if not text.startswith(_PAYLOAD, i):
            return None
        start = i + len(_PAYLOAD)
        payload, end = _raw_decode(text, start)
        if not text.startswith(_SCHEMA, end):
            return None
        schema, stop = _raw_decode(text, end + len(_SCHEMA))
    except json.JSONDecodeError:
        return None
    if (stop != len(text) - 2
            or text[len(_MANIFEST):i] != canonical_json(manifest)
            or text[end + len(_SCHEMA):stop] != canonical_json(schema)):
        return None
    doc = {"manifest": manifest, "payload": payload, "schema": schema}
    return doc, text[start:end]


def load_document(path: Path) -> dict:
    """The document at path, once its schema, payload digest and the
    fields `homology` reads are checked; SchemaError otherwise."""
    try:
        text = Path(path).read_text()
        spliced = _spliced(text)
        if spliced is None:
            doc, payload_text = json.loads(text), None
        else:
            doc, payload_text = spliced
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaError(f"cannot read document {path}: {exc}") from exc
    if not isinstance(doc, dict) or "schema" not in doc or "payload" not in doc:
        raise SchemaError(f"{path} is not a diskcx document")
    if doc["schema"] not in (SCHEMA_BBM, SCHEMA_GAMMA):
        raise SchemaError(f"unsupported document schema {doc['schema']!r}")
    payload = doc["payload"]
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: payload is not an object")
    if payload_text is None:
        payload_text = canonical_json(payload)
    manifest = doc.get("manifest")
    if not isinstance(manifest, dict) or manifest.get("payload_sha256") != (
        hashlib.sha256(payload_text.encode()).hexdigest()
    ):
        raise SchemaError(f"{path}: payload does not match manifest.payload_sha256")
    facets = payload.get("facets")
    if not (
        isinstance(facets, list)
        and facets
        and set(map(type, facets)) == {list}
        and all(facets)
        and set(map(type, chain.from_iterable(facets))) == {int}
    ):
        raise SchemaError(
            f"{path}: payload.facets must be a non-empty list of non-empty "
            "lists of int vertex ids"
        )
    if doc["schema"] == SCHEMA_BBM:
        genus = payload.get("genus")
        if type(genus) is not int or genus < 2:
            raise SchemaError(f"{path}: payload.genus must be an int >= 2")
    elif "edges" in payload:
        edges = payload["edges"]
        if not (
            isinstance(edges, list)
            and set(map(type, edges)) <= {list}
            and set(map(len, edges)) <= {2}
            and set(map(type, chain.from_iterable(edges))) <= {int}
            and all(starmap(ne, edges))
        ):
            raise SchemaError(
                f"{path}: payload.edges must be a list of pairs of distinct "
                "int vertex ids"
            )
    return doc


def document_text(doc: dict, payload_text: str) -> str:
    """canonical_json(doc), for a doc of make_document whose payload
    serialises to payload_text.  Sorted keys put the payload between the
    manifest and the schema, so only those two are serialised here."""
    return (f'{_MANIFEST}{canonical_json(doc["manifest"])}'
            f'{_PAYLOAD}{payload_text}'
            f'{_SCHEMA}{canonical_json(doc["schema"])}}}')


def write_document(path: Path, doc: dict, payload_text: str) -> None:
    """Write document_text(doc, payload_text) and a newline."""
    try:
        Path(path).write_text(document_text(doc, payload_text) + "\n")
    except OSError as exc:
        raise DomainError(f"cannot write document {path}: {exc}") from exc


def check_writable(path: Path) -> None:
    """Raise, before any work, the error write_document would raise when
    the path is a directory or its parent is not a writable directory."""
    path = Path(path)
    parent = path.parent
    if path.is_dir():
        code = errno.EISDIR
    elif not parent.exists():
        code = errno.ENOENT
    elif not parent.is_dir():
        code = errno.ENOTDIR
    elif not os.access(path if path.exists() else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    exc = OSError(code, os.strerror(code), str(path))
    raise DomainError(f"cannot write document {path}: {exc}")


# ---------------------------------------------------------------- commands


def cmd_bbm_build(args) -> list:
    if args.out is not None:
        check_writable(args.out)
    t0 = time.monotonic()
    build = build_complex(chain_surface(args.genus))
    if args.out is None and not args.json:
        return [
            ("genus", None, args.genus),
            ("vertices", None, len(build.vertices)),
            ("edges", None, len(build.edges)),
            ("f-vector", None, reduced_homology(build.complex).cells),
            ("dimension", None, build.complex.dimension),
        ]
    payload = {  # tuples serialise as arrays
        "edges": build.edges,
        "facets": build.complex.facets,
        "genus": args.genus,
        "odd_choices": [
            {
                "ambiguous": c.ambiguous,
                "chosen": str(c.chosen),
                "interval": [c.interval.j, c.interval.m],
                "predicted": c.predicted.value,
                "rejected": str(c.rejected),
            }
            for c in build.odd_choices
        ],
        "vertices": [
            {
                "interval": [v.interval.j, v.interval.m],
                "sides": sorted(s.value for s in v.sides),
                "word": str(v.curve),
            }
            for v in build.vertices
        ],
    }
    text = canonical_json(payload)
    doc = make_document(
        SCHEMA_BBM, payload,
        command=f"bbm build -g {args.genus}",
        wall_ms=int(1000 * (time.monotonic() - t0)),
        payload_text=text,
    )
    if args.out is None:
        print(document_text(doc, text))
        return []
    write_document(args.out, doc, text)
    print(f"wrote {args.out}")
    return []


def cmd_homology(args) -> list:
    doc = load_document(args.path)
    payload = doc["payload"]
    complex_ = SimplicialComplex.from_facets(payload["facets"])
    cells = None
    if doc["schema"] == SCHEMA_GAMMA and "edges" in payload:
        cells = flag_cells(complex_, payload["edges"])
    if cells is None:
        path, profile = "faces", reduced_homology(complex_)
    else:
        vertices = {v for f in complex_.facets for v in f}
        path = "core"
        profile = replace(
            flag_homology(vertices, payload["edges"], len(cells) - 1),
            cells=cells)
    rows = [
        ("schema", "schema", doc["schema"]),
        ("path", "path", path),
        ("f-vector", "f_vector", profile.cells),
        ("betti", "betti", profile.betti),
        ("torsion", None, profile.torsion if any(profile.torsion) else "none"),
        (None, "torsion", profile.torsion),
        ("leftover", "leftover", profile.leftover),
    ]
    if doc["schema"] == SCHEMA_BBM:
        dim = 2 * payload["genus"] - 2
        sphere = profile.is_reduced_sphere(dim)
        rows += [
            ("sphere", None, f"{'yes' if sphere else 'NO'} (dimension {dim})"),
            (None, "is_sphere", sphere),
            (None, "sphere_dimension", dim),
        ]
    return rows


def cmd_intersect(args) -> list:
    surface = chain_surface(args.genus)
    rank = 2 * args.genus
    u = CurveClass.from_string(args.word1, rank)
    v = CurveClass.from_string(args.word2, rank)
    if u == v:
        raise DomainError(
            "the two words give one unoriented class; "
            "use disk-check for its self-intersection"
        )
    return [
        ("class 1", "word1", str(u)),
        ("class 2", "word2", str(v)),
        ("geometric", "geometric", geometric_intersection(surface, u, v)),
        ("algebraic", "algebraic", algebraic_intersection(surface, u, v)),
    ]


def cmd_disk_check(args) -> list:
    surface = chain_surface(args.genus)
    c = CurveClass.from_string(args.word, 2 * args.genus)
    sides = bounds_disk_sides(surface, c)
    return [
        ("class", "word", str(c)),
        ("self-intersection", "self_intersection", self_intersection(surface, c)),
        ("peripheral", "peripheral", c == surface.boundary_class),
        ("disk sides", "sides", sorted(s.value for s in sides)),
        ("disk vertex", "disk_vertex", bool(sides)),
    ]


def cmd_split(args) -> list:
    surface = chain_surface(args.genus)
    tokens = [t for t in (s.strip() for s in args.curves.split(",")) if t]
    report = cut_along(surface, tokens)
    g, b = report.ambient_genus, report.ambient_boundaries
    pieces = " ".join(f"({cg},{cb})" for cg, cb in report.components)
    return [
        ("ambient", None, f"genus {g}, {b} boundary"),
        (None, "ambient", [g, b]),
        ("curves", "curves", list(report.curve_names)),
        ("components", None, pieces),
        (None, "components", report.components),
        ("check", None, "ok"),
        (None, "check", True),
    ]


def cmd_gamma_sample(args) -> list:
    if args.out is not None:
        check_writable(args.out)
    t0 = time.monotonic()
    surface = chain_surface(args.genus)
    sample = sample_gamma(surface, args.budget, cap=args.cap,
                          include=args.include or [])
    top = max_simplex_probe(sample)
    probe = connectivity_probe(sample)
    if args.out is not None:
        payload = {  # tuples serialise as arrays
            "edges": sample.edges,
            "facets": sample.complex.facets,
            "genus": args.genus,
            "max_length": sample.max_length,
            "n_enumerated": sample.n_enumerated,
            "vertices": [
                {"sides": sorted(s.value for s in sd), "word": str(c)}
                for c, sd in zip(sample.vertices, sample.sides)
            ],
        }
        text = canonical_json(payload)
        doc = make_document(
            SCHEMA_GAMMA, payload,
            command=f"gamma sample -g {args.genus} -L {args.budget}",
            wall_ms=int(1000 * (time.monotonic() - t0)),
            payload_text=text,
        )
        write_document(args.out, doc, text)
    return [
        ("genus", None, args.genus),
        ("budget", None, args.budget),
        ("enumerated", "n_enumerated", sample.n_enumerated),
        ("vertices", "vertices", len(sample.vertices)),
        ("edges", "edges", len(sample.edges)),
        ("max simplex dim", "max_simplex_dim", top),
        ("betti0 (reduced)", "betti0", probe.betti0),
        ("betti1", "betti1", probe.betti1),
        ("conclusive", None, "no; " + probe.note),
        (None, "conclusive", probe.conclusive),
    ]


def cmd_dims(args) -> list:
    t = dims(args.genus, args.boundaries)
    return [
        ("genus", "genus", t.genus),
        ("boundaries", "boundaries", t.boundaries),
        ("dimension", "dimension", t.dimension),
        ("connectivity", "connectivity", t.connectivity),
    ]


# ------------------------------------------------------------------ parser


@cache
def build_parser() -> argparse.ArgumentParser:
    """The diskcx parser, built on the first call and then shared: parsing
    reads it and changes nothing in it."""
    p = argparse.ArgumentParser(
        prog="diskcx",
        description="interval curves, disk sides, and the sphere certificate "
                    "for chain surfaces",
    )
    sub = p.add_subparsers(dest="command", required=True)

    bbm = sub.add_parser("bbm", help="interval complex")
    bbm_sub = bbm.add_subparsers(dest="subcommand", required=True)
    bb = bbm_sub.add_parser("build", help="build the interval complex")
    bb.add_argument("-g", "--genus", type=int, required=True)
    bb_output = bb.add_mutually_exclusive_group()
    bb_output.add_argument("--out", type=Path, help="write a JSON document here")
    bb_output.add_argument("--json", action="store_true", help="print the document")
    bb.set_defaults(func=cmd_bbm_build)

    h = sub.add_parser("homology", help="homology of a persisted complex")
    h.add_argument("path", type=Path)
    h.add_argument("--json", action="store_true")
    h.set_defaults(func=cmd_homology)

    i = sub.add_parser("intersect", help="intersection numbers of two classes")
    i.add_argument("-g", "--genus", type=int, required=True)
    i.add_argument("word1", help="like 'g1 g2 -g1 -g2'")
    i.add_argument("word2")
    i.add_argument("--json", action="store_true")
    i.set_defaults(func=cmd_intersect)

    d = sub.add_parser("disk-check", help="disk sides of one class")
    d.add_argument("-g", "--genus", type=int, required=True)
    d.add_argument("word")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=cmd_disk_check)

    s = sub.add_parser("split", help="cut along curves and report pieces")
    s.add_argument("-g", "--genus", type=int, required=True)
    s.add_argument("--curves", required=True,
                   help="comma separated, like z1,z3 or x:1-2")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_split)

    g = sub.add_parser("gamma", help="disk-class sampling")
    g_sub = g.add_subparsers(dest="subcommand", required=True)
    gs = g_sub.add_parser("sample", help="sample classes up to a length budget")
    gs.add_argument("-g", "--genus", type=int, required=True)
    gs.add_argument("-L", "--budget", type=int, required=True)
    gs.add_argument("--cap", type=int, default=10**6,
                    help="bound on the number of freely reduced words of "
                         "length <= L, checked in closed form before "
                         "enumerating; a larger count exits 2")
    gs.add_argument("--include", action="append",
                    help="extra class like 'g1 g2 -g1 -g2'; repeatable")
    gs.add_argument("--out", type=Path)
    gs.add_argument("--json", action="store_true")
    gs.set_defaults(func=cmd_gamma_sample)

    dm = sub.add_parser("dims", help="dimension and connectivity table")
    dm.add_argument("-g", "--genus", type=int, required=True)
    dm.add_argument("-b", "--boundaries", type=int, required=True)
    dm.add_argument("--json", action="store_true")
    dm.set_defaults(func=cmd_dims)

    return p


def _text(value) -> str:
    """A table cell: yes/no for a bool, the words of a list of str, else str."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return " ".join(value) or "-"
    return str(value)


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rows = args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1
    if not rows:
        return 0
    if args.json:
        print(canonical_json({key: value for _, key, value in rows if key}))
    else:
        shown = [(label, _text(value)) for label, _, value in rows if label]
        width = max(len(label) for label, _ in shown)
        print("\n".join(f"{label.ljust(width)}  {text}" for label, text in shown))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
