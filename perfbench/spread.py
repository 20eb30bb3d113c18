"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload aztec-k8 --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the quartiles of its values (``statistics.quantiles(n=4)``) and the
spread (Q3 - Q1) / median.  For end-to-end metrics the spread is compared
with a third of the metric's bound in BENCHMARK.json.  ``--record`` stores
the quartiles as the workload's baseline in ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartiles  # noqa: E402


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [line.strip() for line in lines if line.lstrip().startswith(("host slowdown", "raw:"))]
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed (status {proc.returncode})\n{proc.stdout}")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="store the quartiles in reference.json")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = _seeds(args.seeds)
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in seeds:
        result = run_once(args.workload, seed, seconds, args.trace)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + "  ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
              flush=True)
        for line in result["notes"]:
            print(f"    {line}")

    summary = {}
    print(f"\n{args.workload}: {len(seeds)} runs of {seconds:g} s")
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread < bound / 3 else f"OVER bound/3 = {bound / 3:.3f}")
        print(f"  {name:34s} median {med:12.6g} {units[name]:6s} q1 {q1:12.6g} q3 {q3:12.6g} "
              f"spread {spread:7.4f} {flag}")
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3, "spread": spread}

    if args.record:
        ref_path = HERE / "reference.json"
        ref = json.loads(ref_path.read_text())
        key = "baseline" if args.trace == 0 else "baseline_traced"
        ref.setdefault(key, {})[args.workload] = {"seeds": seeds, "seconds": seconds, "metrics": summary}
        ref_path.write_text(json.dumps(ref, indent=2) + "\n")
        print(f"recorded in {ref_path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
