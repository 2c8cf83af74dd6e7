"""Command line front end.

Commands build the interval complex and persist it as a versioned JSON
document, certify homology of a persisted complex, and expose the curve
algebra (intersection numbers, disk sides), the cutting bookkeeping, the
dimension and connectivity table, and the sampling probe.

Document format.  Every file this tool writes is a single JSON object

    {"manifest": {...}, "payload": {...}, "schema": "diskcx/<kind>/<v>"}

serialized with sorted keys and compact separators.  The payload is a
pure function of the mathematical input, so rebuilding the same object
yields byte-identical payload text; anything environmental (timestamp,
tool version) lives in the manifest.  Readers reject unknown schema
strings with SchemaError instead of guessing, and so are documents whose
payload no longer matches manifest.payload_sha256 or lacks the fields
`homology` reads.

Exit codes: 0 on success, 2 on rejected input (DomainError), 1 on a
violated internal invariant, which means a bug, not bad input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .complexes import SimplicialComplex, reduced_homology
from .errors import DomainError, InternalInvariantError, SchemaError
from .handles import bounds_disk_sides
from .intervals import build_complex
from .ribbon import chain_surface
from .sampler import connectivity_probe, max_simplex_probe, sample_gamma
from .split import bookkeeping_check, cut_along, dims
from .words import (
    CurveClass,
    algebraic_intersection,
    geometric_intersection,
    self_intersection,
)

SCHEMA_BBM = "diskcx/bbm-complex/1"
SCHEMA_GAMMA = "diskcx/gamma-sample/1"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def payload_sha256(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def make_document(schema: str, payload: dict, command: str = "",
                  wall_ms: int = 0) -> dict:
    return {
        "manifest": {
            "command": command,
            "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "payload_sha256": payload_sha256(payload),
            "tool": "diskcx",
            "version": __version__,
            "wall_ms": wall_ms,
        },
        "payload": payload,
        "schema": schema,
    }


def load_document(path: Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read document {path}: {exc}") from exc
    if not isinstance(doc, dict) or "schema" not in doc or "payload" not in doc:
        raise SchemaError(f"{path} is not a diskcx document")
    if doc["schema"] not in (SCHEMA_BBM, SCHEMA_GAMMA):
        raise SchemaError(f"unsupported document schema {doc['schema']!r}")
    payload = doc["payload"]
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: payload is not an object")
    manifest = doc.get("manifest")
    if not isinstance(manifest, dict) or (
        manifest.get("payload_sha256") != payload_sha256(payload)
    ):
        raise SchemaError(f"{path}: payload does not match manifest.payload_sha256")
    facets = payload.get("facets")
    if not (
        isinstance(facets, list)
        and facets
        and all(
            isinstance(f, list) and f and all(type(v) is int for v in f)
            for f in facets
        )
    ):
        raise SchemaError(
            f"{path}: payload.facets must be a non-empty list of non-empty "
            "lists of int vertex ids"
        )
    if doc["schema"] == SCHEMA_BBM:
        genus = payload.get("genus")
        if type(genus) is not int or genus < 2:
            raise SchemaError(f"{path}: payload.genus must be an int >= 2")
    return doc


def _emit(doc: dict, out) -> None:
    text = canonical_json(doc)
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n")


def _table(rows) -> str:
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _sides_str(sides) -> str:
    return " ".join(sorted(s.value for s in sides)) or "-"


# ---------------------------------------------------------------- commands


def cmd_bbm_build(args) -> int:
    t0 = time.monotonic()
    surface = chain_surface(args.genus)
    build = build_complex(surface)
    payload = {
        "edges": [list(e) for e in build.edges],
        "facets": [list(f) for f in build.complex.facets],
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
    if args.out is None and not args.json:
        print(_table([
            ("genus", str(args.genus)),
            ("vertices", str(len(build.vertices))),
            ("edges", str(len(build.edges))),
            ("f-vector", str(build.complex.f_vector())),
            ("dimension", str(build.complex.dimension)),
        ]))
        return 0
    doc = make_document(
        SCHEMA_BBM, payload,
        command=f"bbm build -g {args.genus}",
        wall_ms=int(1000 * (time.monotonic() - t0)),
    )
    _emit(doc, args.out)
    if args.out is not None:
        print(f"wrote {args.out}")
    return 0


def cmd_homology(args) -> int:
    doc = load_document(args.path)
    payload = doc["payload"]
    complex_ = SimplicialComplex.from_facets(payload["facets"])
    profile = reduced_homology(complex_)
    fv = complex_.f_vector()
    rows = [
        ("schema", doc["schema"]),
        ("f-vector", str(fv)),
        ("betti", str(profile.betti)),
        ("torsion", str(profile.torsion) if any(profile.torsion) else "none"),
        ("leftover", str(profile.leftover)),
    ]
    result = {
        "betti": list(profile.betti),
        "f_vector": list(fv),
        "leftover": list(profile.leftover),
        "schema": doc["schema"],
        "torsion": [list(t) for t in profile.torsion],
    }
    if doc["schema"] == SCHEMA_BBM:
        dim = 2 * payload["genus"] - 2
        sphere = profile.is_reduced_sphere(dim)
        rows.append(("sphere", f"{'yes' if sphere else 'NO'} (dimension {dim})"))
        result["sphere_dimension"] = dim
        result["is_sphere"] = sphere
    if args.json:
        print(canonical_json(result))
    else:
        print(_table(rows))
    return 0


def cmd_intersect(args) -> int:
    surface = chain_surface(args.genus)
    rank = 2 * args.genus
    u = CurveClass.from_string(args.word1, rank)
    v = CurveClass.from_string(args.word2, rank)
    if u == v:
        raise DomainError(
            "the two words give one unoriented class; "
            "use disk-check for its self-intersection"
        )
    geo = geometric_intersection(surface, u, v)
    alg = algebraic_intersection(surface, u, v)
    if args.json:
        print(canonical_json({
            "algebraic": alg,
            "geometric": geo,
            "word1": str(u),
            "word2": str(v),
        }))
    else:
        print(_table([
            ("class 1", str(u)),
            ("class 2", str(v)),
            ("geometric", str(geo)),
            ("algebraic", str(alg)),
        ]))
    return 0


def cmd_disk_check(args) -> int:
    surface = chain_surface(args.genus)
    c = CurveClass.from_string(args.word, 2 * args.genus)
    si = self_intersection(surface, c)
    peripheral = c == surface.boundary_class
    if si == 0 and not peripheral:
        sides = bounds_disk_sides(surface, c)
    else:
        sides = frozenset()
    rows = [
        ("class", str(c)),
        ("self-intersection", str(si)),
        ("peripheral", "yes" if peripheral else "no"),
        ("disk sides", _sides_str(sides)),
        ("disk vertex", "yes" if sides else "no"),
    ]
    if args.json:
        print(canonical_json({
            "disk_vertex": bool(sides),
            "peripheral": peripheral,
            "self_intersection": si,
            "sides": sorted(s.value for s in sides),
            "word": str(c),
        }))
    else:
        print(_table(rows))
    return 0


def cmd_split(args) -> int:
    surface = chain_surface(args.genus)
    tokens = [t for t in (s.strip() for s in args.curves.split(",")) if t]
    report = cut_along(surface, tokens)
    ok = bookkeeping_check(report)
    if not ok:
        raise InternalInvariantError("splitting report fails its bookkeeping")
    comps = " ".join(f"({g},{b})" for g, b in report.components)
    if args.json:
        print(canonical_json({
            "ambient": [report.ambient_genus, report.ambient_boundaries],
            "check": ok,
            "components": [list(c) for c in report.components],
            "curves": list(report.curve_names),
        }))
    else:
        print(_table([
            ("ambient", f"genus {report.ambient_genus}, "
                        f"{report.ambient_boundaries} boundary"),
            ("curves", " ".join(report.curve_names)),
            ("components", comps),
            ("check", "ok"),
        ]))
    return 0


def cmd_gamma_sample(args) -> int:
    t0 = time.monotonic()
    surface = chain_surface(args.genus)
    include = args.include or []
    sample = sample_gamma(surface, args.budget, cap=args.cap, include=include)
    top = max_simplex_probe(sample)
    probe = connectivity_probe(sample)
    payload = {
        "edges": [list(e) for e in sample.edges],
        "facets": [list(f) for f in sample.complex.facets],
        "genus": args.genus,
        "max_length": sample.max_length,
        "n_enumerated": sample.n_enumerated,
        "vertices": [
            {"sides": sorted(s.value for s in sd), "word": str(c)}
            for c, sd in zip(sample.vertices, sample.sides)
        ],
    }
    if args.out is not None:
        doc = make_document(
            SCHEMA_GAMMA, payload,
            command=f"gamma sample -g {args.genus} -L {args.budget}",
            wall_ms=int(1000 * (time.monotonic() - t0)),
        )
        _emit(doc, args.out)
    rows = [
        ("genus", str(args.genus)),
        ("budget", str(args.budget)),
        ("enumerated", str(sample.n_enumerated)),
        ("vertices", str(len(sample.vertices))),
        ("edges", str(len(sample.edges))),
        ("max simplex dim", str(top)),
        ("betti0 (reduced)", str(probe.betti0)),
        ("betti1", str(probe.betti1)),
        ("conclusive", "no; " + probe.note),
    ]
    if args.json:
        print(canonical_json({
            "betti0": probe.betti0,
            "betti1": probe.betti1,
            "conclusive": probe.conclusive,
            "edges": len(sample.edges),
            "max_simplex_dim": top,
            "n_enumerated": sample.n_enumerated,
            "vertices": len(sample.vertices),
        }))
    else:
        print(_table(rows))
    return 0


def cmd_dims(args) -> int:
    t = dims(args.genus, args.boundaries)
    if args.json:
        print(canonical_json({
            "boundaries": t.boundaries,
            "connectivity": t.connectivity,
            "dimension": t.dimension,
            "genus": t.genus,
        }))
    else:
        print(_table([
            ("genus", str(t.genus)),
            ("boundaries", str(t.boundaries)),
            ("dimension", str(t.dimension)),
            ("connectivity", str(t.connectivity)),
        ]))
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
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
    bb.add_argument("--out", type=Path, help="write a JSON document here")
    bb.add_argument("--json", action="store_true", help="print the document")
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
    gs.add_argument("--cap", type=int, default=10**6)
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


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
