"""Benchmark of the sawkit samplers: one workload per process.

    python3 perfbench/run.py --workload saw-n200 --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs the same outputs untraced and traced and prints the
per-layer metrics.  ``--workload all`` runs every workload, each in its
own child process.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` of the checkout this file sits in;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
WORKLOAD_NAMES = ("saw-n200", "aztec-k8", "glauber-k8")


def _import_program() -> None:
    """Put the checkout's own sawkit first on the path, or exit 2."""
    src = ROOT / "src"
    if not (src / "sawkit" / "__init__.py").is_file():
        print(f"error: no sawkit package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import sawkit

    if Path(sawkit.__file__).resolve().parent != src / "sawkit":
        print(f"error: sawkit imported from {sawkit.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced problem sizes, for the benchmark's own tests")
    p.add_argument("--spans", default=None, help="traced run: write every span to this JSONL file")
    return p


def _run_all(args) -> int:
    """Each workload in a child process; a combined result with prefixed names."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit status {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    _import_program()
    os.environ.pop("SAWKIT_CACHE_DIR", None)  # a cache would turn cold set-up into a load
    if args.workload == "all":
        return _run_all(args)

    from perfbench import workloads

    wl = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            res = workloads.trace(wl, args.seed, args.seconds, workdir, args.spans)
        else:
            res = workloads.measure(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}" + ("  (smoke sizes)" if args.smoke else ""))
    for note in res.notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name:34s} {res.metrics[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':34s} {res.failed / res.attempted:>16.6g} ratio  ({res.failed}/{res.attempted})")
    for problem in res.problems[:20]:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": not res.failed,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": res.metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not res.failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
