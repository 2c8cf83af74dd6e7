"""Cold-process benchmark of diskcomplex.

    python3 perfbench/run.py --workload certify-g4 --seed 1 --seconds 60 --trace 0

Runs from the root of a source checkout and benchmarks the package under
src/.  Every session runs in a fresh interpreter (worker.py), one at a
time, closed loop with one caller; sessions repeat while the next one is
expected to end within --seconds.  Set-up time is also sampled by workers
that only import the package and build the surface.  --seed sets the
workers' PYTHONHASHSEED; the workloads' inputs are fixed.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced sessions and prints the per-layer metrics of the traced ones, plus
the tracing overhead.  The last line of stdout is the JSON result; a
readable summary and the run context go to stderr, and a record of the run
(context, per-session numbers and, when traced, the spans) is written to
perfbench/out/.  A wrong output counts as a failed operation and makes the
exit code 1; a run that cannot measure at all exits with 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import monotonic

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 5
MIN_SESSIONS = 2
SESSION_TIMEOUT_S = 100
RUN_BUDGET_S = 120  # no session starts that would end past this

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def spawn(spec: dict) -> dict:
    """One worker process; returns its result with setup_s filled in."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED=str(spec["seed"] % 2**32))
    t0 = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(spec), capture_output=True, text=True,
            timeout=SESSION_TIMEOUT_S, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker passed {SESSION_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def context(args) -> dict:
    conf = workloads.WORKLOADS[args.workload]
    try:
        networkx = metadata.version("networkx")
    except metadata.PackageNotFoundError:
        networkx = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "input": conf["input"],
        "why": conf["why"],
        "loop": "closed, one caller, one worker process at a time",
        "run_seconds": args.seconds,
        "setup_probes": SETUP_PROBES,
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "networkx": networkx,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def run_sessions(args, base):
    """Setup probes, then sessions while the next one is expected to end in time.

    At least MIN_SESSIONS run, so a traced run has an untraced session to
    compare with and every median has two samples.
    """
    setups = [spawn({**base, "setup_only": True})["setup_s"] for _ in range(SETUP_PROBES)]
    sessions, errors, durations = [], [], []
    t_start = monotonic()
    while True:
        traced = bool(args.trace) and len(sessions) % 2 == 1
        t0 = monotonic()
        try:
            sessions.append(spawn({**base, "trace": traced}))
        except WorkerError as exc:
            errors.append(str(exc))
            break
        durations.append(monotonic() - t0)
        elapsed = monotonic() - t_start
        expected_end = elapsed + statistics.median(durations)
        if expected_end > RUN_BUDGET_S:
            break
        if len(sessions) >= MIN_SESSIONS and expected_end > args.seconds:
            break
    return setups, sessions, errors


def end_to_end(setups, sessions) -> dict:
    med = statistics.median
    return {
        "setup_s": med(setups + [s["setup_s"] for s in sessions]),
        "wall_s": med(s["wall_s"] for s in sessions),
        "peak_rss_mb": med(s["peak_rss_mb"] for s in sessions),
    }


def per_layer(sessions) -> dict:
    traced = [s for s in sessions if s["layer"] is not None]
    plain = [s for s in sessions if s["layer"] is None]
    names = traced[0]["layer"].keys()
    m = {k: statistics.median(s["layer"][k] for s in traced) for k in names}
    m["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                             - statistics.median(s["wall_s"] for s in plain))
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "diskcomplex" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'diskcomplex'}", file=sys.stderr)
        return 2
    ctx = context(args)
    print(json.dumps({"context": ctx}, indent=1), file=sys.stderr)

    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    base = {"workload": args.workload, "seed": args.seed, "root": str(ROOT), "tmp": str(tmp)}
    try:
        setups, sessions, errors = run_sessions(args, base)
    except WorkerError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not sessions or (args.trace and len(sessions) < 2):
        print("error: no session completed: " + " | ".join(errors), file=sys.stderr)
        return 2

    attempted = sum(s["attempted"] for s in sessions) + len(errors)
    failed = sum(s["failed"] for s in sessions) + len(errors)
    errors += [e for s in sessions for e in s["errors"]]
    if args.trace:
        metrics = per_layer(sessions)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = end_to_end(setups, sessions)
        units = END_TO_END

    ctx["sessions"] = len(sessions)
    record = {
        "context": ctx,
        "setup_probes_s": setups,
        "sessions": [{k: v for k, v in s.items() if k != "spans"} for s in sessions],
        "metrics": metrics,
        "errors": errors,
        "spans": next((s["spans"] for s in sessions if s["spans"]), None),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    width = max(map(len, metrics))
    for k, v in metrics.items():
        print(f"{k.ljust(width)}  {v:.6g} {units[k]}", file=sys.stderr)
    print(f"sessions {len(sessions)}", file=sys.stderr)
    for e in errors[:20]:
        print(f"FAILED: {e}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
