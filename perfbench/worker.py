"""One benchmark session in a fresh interpreter.

Reads a JSON spec on stdin, runs the session and prints one JSON result
line on stdout.  The orchestrator (run.py) starts one worker per session,
so the package's process-global caches start cold every time, as they do
for a user of the CLI.

Session: set up (import the package and its CLI, build the surface), then
two timed CLI calls -- the workload's build command, and `homology` on the
document it wrote -- and finally untimed output checks.  With "setup_only"
the worker stops after set-up; the orchestrator uses that to sample set-up
time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import monotonic, perf_counter

import workloads


def cli_call(cli, argv):
    """Run one diskcx command in-process; returns (seconds, exit code, stdout)."""
    out = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return perf_counter() - t0, code, out.getvalue()


def payload_sha(doc: dict) -> str:
    text = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def parse_json(text: str) -> dict:
    try:
        return json.loads(text)
    except ValueError:
        return {}


def check_certify(build, homology, doc) -> list:
    """Failed operations of a certify-g4 session, as messages."""
    from diskcomplex import SimplicialComplex, pseudomanifold_check

    want = workloads.SPHERE_G4
    payload = doc.get("payload", {})
    facets = tuple(tuple(f) for f in payload.get("facets", ()))
    failed = []
    if not (build[1] == 0 and payload_sha(doc) == want["sha"]
            and doc.get("manifest", {}).get("payload_sha256") == want["sha"]
            and len(facets) == want["facets"]
            and pseudomanifold_check(SimplicialComplex(facets), want["dim"]).ok):
        failed.append(f"bbm build: exit {build[1]}, payload differs or is no pseudomanifold")
    got = parse_json(homology[2])
    if not (homology[1] == 0 and got.get("is_sphere") is True
            and got.get("sphere_dimension") == want["dim"]
            and tuple(got.get("f_vector", ())) == want["f_vector"]
            and tuple(got.get("betti", ())) == want["betti"]
            and not any(got.get("torsion", [[0]]))):
        failed.append(f"homology: exit {homology[1]}, {homology[2].strip()[:300]}")
    return failed


def check_sample(build, homology, doc) -> list:
    """Failed operations of a sample-g3-L5 session, as messages."""
    want = workloads.SAMPLE_G3_L5
    payload = doc.get("payload", {})
    got = parse_json(build[2])
    failed = []
    if not (build[1] == 0 and payload_sha(doc) == want["sha"]
            and doc.get("manifest", {}).get("payload_sha256") == want["sha"]
            and got.get("n_enumerated") == want["n_enumerated"]
            and got.get("vertices") == len(payload.get("vertices", ())) == want["vertices"]
            and got.get("edges") == len(payload.get("edges", ())) == want["edges"]
            and len(payload.get("facets", ())) == want["facets"]
            and got.get("max_simplex_dim") == want["max_simplex_dim"]
            and (got.get("betti0"), got.get("betti1")) == (want["betti0"], want["betti1"])):
        failed.append(f"gamma sample: exit {build[1]}, {build[2].strip()[:300]}")
    got = parse_json(homology[2])
    if not (homology[1] == 0
            and tuple(got.get("f_vector", ())) == want["f_vector"]
            and tuple(got.get("betti", ())) == want["betti"]
            and not any(got.get("torsion", [[0]]))):
        failed.append(f"homology: exit {homology[1]}, {homology[2].strip()[:300]}")
    return failed


CHECKS = {"certify-g4": check_certify, "sample-g3-L5": check_sample}


def session(spec, ready, tracer) -> dict:
    import diskcomplex.cli as cli

    name = spec["workload"]
    doc_path = Path(spec["tmp"]) / f"{name}.json"
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    build = cli_call(cli, workloads.WORKLOADS[name]["build"] + ["--out", str(doc_path)])
    homology = cli_call(cli, ["homology", str(doc_path), "--json"])
    wall_s = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer = None
    if tracer is not None:
        tracer.uninstall()
        layer = tracer.metrics()
        layer["cli.build_s"] = build[0]
        layer["cli.homology_s"] = homology[0]
        layer["cli.document_bytes"] = doc_path.stat().st_size

    try:
        doc = json.loads(doc_path.read_text())
    except (OSError, ValueError):
        doc = {"manifest": {}, "payload": {}}
    errors = CHECKS[name](build, homology, doc)
    return {
        "ready": ready,
        "wall_s": wall_s,
        "build_s": build[0],
        "homology_s": homology[0],
        "peak_rss_mb": peak_rss_mb,
        "attempted": 2,
        "failed": len(errors),
        "errors": errors,
        "layer": layer,
        "spans": tracer.spans if tracer is not None else None,
    }


def main():
    spec = json.loads(sys.stdin.read())
    root = Path(spec["root"]).resolve()
    import diskcomplex
    import diskcomplex.cli  # noqa: F401  (the CLI is part of what users load)
    from diskcomplex import chain_surface

    if root / "src" not in Path(diskcomplex.__file__).resolve().parents:
        raise SystemExit(f"diskcomplex imported from {diskcomplex.__file__}, not {root}/src")
    chain_surface(workloads.WORKLOADS[spec["workload"]]["genus"])
    ready = monotonic()
    if spec.get("setup_only"):
        print(json.dumps({"ready": ready}))
        return
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
    print(json.dumps(session(spec, ready, tracer)))


if __name__ == "__main__":
    main()
