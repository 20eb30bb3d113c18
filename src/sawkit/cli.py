"""Command-line front door.

Exit codes: 0 success, 1 usage error, 2 resource error (memory cap),
3 sampling budget exhausted.  Sampling commands require --seed and, when
given --out, write their outputs next to a manifest.json recording the
full configuration; `sawkit rerun manifest.json --out DIR` checks the
manifest and reproduces the outputs byte for byte.  --memory-cap bounds
the estimated size of all the DP tables of one command, a whole family
of them for `aztec sample`; tables over it exit 2 before any is built.
sawkit reads no environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext

from . import __version__
from .aztec import AztecRegion, OmegaParams, partition_family, partition_to_path, sample_partition
from .counting import DEFAULT_MEMORY_CAP, ResourceLimitError, build_table
from .lattice import FullLattice, LatticeBox, Point, Walk
from .oracle import DEFAULT_PARTITION_CAP, DEFAULT_WALK_CAP
from .render import render_partition_svg, render_walk_svg
from .sampling import RngStream, SamplingBudgetError, sample_saw
from .paths import base_path, bump

# The params each sampling command records in its manifest: its option dests.
_MANIFEST_PARAMS = {
    ("sample", "saw"): ("n1", "n2", "k", "l", "seed", "count", "format", "max_attempts", "region"),
    ("aztec", "sample"): ("k", "C", "eps", "l", "seed", "count", "format", "max_attempts"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _ints(option: str, spec: str, values: str, form: str) -> tuple[int, ...]:
    """The comma-separated integers of ``values``, a part of ``spec``, as many as ``form`` names."""
    try:
        out = tuple(int(v) for v in values.split(","))
    except ValueError:
        out = ()
    if len(out) != form.count(",") + 1:
        raise ValueError(f"{option} must be of the form {form}, got {spec!r}")
    return out


def _parse_region(text: str):
    if text in (None, "", "full"):
        return FullLattice()
    kind, _, rest = text.partition(":")
    if kind == "aztec":
        (k,) = _ints("--region", text, rest, "aztec:<k>")
        return AztecRegion(k)
    if kind == "box":
        x0, y0, x1, y1 = _ints("--region", text, rest, "box:x0,y0,x1,y1")
        return LatticeBox(Point(x0, y0), Point(x1, y1))
    raise ValueError(f"unknown region spec {text!r} (use aztec:<k> or box:x0,y0,x1,y1)")


def _regime_warning(n: int, k: int, girth: int) -> None:
    if k >= 1 and n > 1:
        delta = 1.0 - math.log(max(k, 1)) / math.log(n)
        if girth * delta <= 1.0:
            print(
                f"warning: l*delta = {girth*delta:.2f} <= 1 with delta inferred from "
                f"k = n^(1-delta); acceptance is not guaranteed in this regime",
                file=sys.stderr,
            )


def _emit(args, command: tuple[str, str], files: dict[str, str], name: str, lines: list[str], note: str = "") -> None:
    """Print the output lines; with --out, write them as file ``name`` next to ``files`` and manifest.json."""
    body = "".join(line + "\n" for line in lines)
    if not args.out:
        sys.stdout.write(body)
        return
    files[name] = body
    manifest = {
        "tool": "sawkit",
        "version": __version__,
        "command": list(command),
        "params": {key: getattr(args, key) for key in _MANIFEST_PARAMS[command]},
    }
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for file_name, content in files.items():
        with open(os.path.join(args.out, file_name), "w") as fh:
            fh.write(content)
    print(f"wrote {len(files)} files to {args.out}{note}")


def _check_memory_cap(args) -> None:
    """Refuse a memory cap no table fits under, before any table is sized."""
    if args.memory_cap < 1:
        raise ValueError(f"--memory-cap must be >= 1, got {args.memory_cap}")


def _check_sampling(args) -> None:
    """Refuse a sample count, attempt budget or memory cap no run can meet, before any table is built."""
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    if args.max_attempts < 1:
        raise ValueError(f"--max-attempts must be >= 1, got {args.max_attempts}")
    _check_memory_cap(args)


def _walk_json(walk: Walk, attempts: int) -> dict:
    return {
        "start": [walk.start.x, walk.start.y],
        "moves": walk.moves,
        "length": len(walk),
        "attempts": attempts,
    }


# -- command implementations ----------------------------------------------------


def _cmd_count_walks(args) -> int:
    from .combinatorics import walk_count

    print(walk_count(args.n1, args.n2, args.t))
    return 0


def _cmd_count_low_girth(args) -> int:
    _check_memory_cap(args)
    region = _parse_region(args.region)
    if args.origin is None:
        origin = Point(0, 0)
    else:
        origin = Point(*_ints("--origin", args.origin, args.origin, "x,y"))
    table = build_table(region, origin, Point(args.n1, args.n2), args.l, args.k,
                        memory_cap=args.memory_cap)
    for length, count in sorted(table.counts().items()):
        print(f"{length} {count}")
    return 0


def _cmd_paths_base(args) -> int:
    walk = Walk.from_text(args.walk)
    print(base_path(walk).to_text())
    return 0


def _cmd_paths_bump(args) -> int:
    walk = Walk.from_text(args.walk)
    try:
        indices = [int(x) for x in args.at.split(",") if x]
    except ValueError:
        raise ValueError(f"--at must be comma-separated 1-based move indices, got {args.at!r}") from None
    print(bump(walk, indices).to_text())
    return 0


def _cmd_sample_saw(args) -> int:
    _check_sampling(args)
    if args.n1 < 0 or args.n2 < 0:
        raise ValueError(f"--n1 and --n2 must be >= 0, got {args.n1} and {args.n2}")
    n = args.n1 + args.n2
    region = _parse_region(args.region)
    table = build_table(region, Point(0, 0), Point(args.n1, args.n2), args.l, args.k,
                        memory_cap=args.memory_cap)
    _regime_warning(n, args.k, args.l)
    rng = RngStream(args.seed)
    length = n + 2 * args.k
    reports = [sample_saw(table, rng.substream(i), length, args.max_attempts) for i in range(args.count)]
    files: dict[str, str] = {}
    lines = []
    for i, rep in enumerate(reports):
        if args.format == "svg":
            files[f"sample_{i:04d}.svg"] = render_walk_svg(rep.walk)
            lines.append(json.dumps(_walk_json(rep.walk, rep.attempts), sort_keys=True))
        elif args.format == "json":
            lines.append(json.dumps(_walk_json(rep.walk, rep.attempts), sort_keys=True))
        else:
            lines.append(rep.walk.to_text())
    name = "samples.txt" if args.format == "udlr" else "samples.jsonl"
    total = sum(r.attempts for r in reports)
    _emit(args, ("sample", "saw"), files, name, lines, f" (acceptance {args.count}/{total})")
    return 0


def _cmd_aztec_sample(args) -> int:
    _check_sampling(args)
    params = OmegaParams(args.C, args.eps)
    rng = RngStream(args.seed)
    family = partition_family(args.k, params, args.l, memory_cap=args.memory_cap)
    results = []
    for i in range(args.count):
        part, rep = sample_partition(args.k, params, args.l, rng.substream(i),
                                     family=family, max_attempts=args.max_attempts)
        results.append((part, rep))
    files: dict[str, str] = {}
    lines = []
    for i, (part, rep) in enumerate(results):
        walk = partition_to_path(part)
        record = {
            "k": part.k,
            "class1": sorted([a, b] for (a, b) in part.class1),
            "path": walk.to_text(),
            "boundaries": list(part.boundary_sizes),
            "attempts": rep.attempts,
        }
        lines.append(json.dumps(record, sort_keys=True))
        if args.format == "svg":
            files[f"partition_{i:04d}.svg"] = render_partition_svg(part)
    _emit(args, ("aztec", "sample"), files, "partitions.jsonl", lines)
    return 0


def _cmd_glauber_run(args) -> int:
    from .glauber import run_chain

    params = OmegaParams(args.C, args.eps)
    rng = RngStream(args.seed)
    record_every = args.record_every
    if not args.trace and record_every >= 1:
        # only a trace reads the records; run_chain still refuses a bad --record-every or --steps
        record_every = max(args.steps, 1)
    # the trace file is opened before the chain runs, so a bad path costs no steps
    with open(args.trace, "w") if args.trace else nullcontext() as fh:
        trace = run_chain(args.k, params, args.steps, rng, record_every=record_every)
        if fh is not None:
            for step, endpoints, in_s, bounds in trace.records:
                fh.write(json.dumps({
                    "step": step, "endpoints": [list(endpoints[0]), list(endpoints[1])],
                    "in_s": in_s, "boundaries": list(bounds),
                }, sort_keys=True) + "\n")
    print(f"steps={trace.steps} moves={trace.moves} crossings={trace.crossings}")
    return 0


def _cmd_glauber_conductance(args) -> int:
    from .glauber import check_open_cuts, conductance_of_cut, enumerate_omega, ordered_endpoints

    params = OmegaParams(args.C, args.eps)
    check_open_cuts(args.k, params)
    omega = enumerate_omega(args.k, params, cap=args.cap)
    rep = conductance_of_cut(omega, params, ordered_endpoints)
    print(f"k={args.k} |Omega|={rep.state_count} |S|={rep.cut_size}")
    print(f"mass={rep.mass} flow={rep.flow} ratio={rep.ratio}")
    print(f"t_mix_lower_bound={rep.mixing_lower_bound}")
    return 0


def _cmd_oracle_enumerate(args) -> int:
    from . import oracle

    capped = {} if args.cap is None else {"cap": args.cap}  # each kind keeps its own default
    if args.kind == "partitions":
        params = OmegaParams(args.C, args.eps)
        res = oracle.enumerate_partitions(args.k, params, **capped)
        for p in res.items:
            print(json.dumps({"k": p.k, "class1": sorted([a, b] for (a, b) in p.class1),
                              "boundaries": list(p.boundary_sizes)}, sort_keys=True))
        return 0
    region = _parse_region(args.region)
    start, end = Point(0, 0), Point(args.n1, args.n2)
    if args.kind == "saw":
        res = oracle.enumerate_saws(region, start, end, args.length, **capped)
    elif args.kind == "lowgirth":
        res = oracle.enumerate_low_girth_walks(region, start, end, args.length, args.l, **capped)
    else:
        res = oracle.enumerate_walks(region, start, end, args.length, **capped)
    for w in res.items:
        print(json.dumps({"start": [w.start.x, w.start.y], "moves": w.moves}, sort_keys=True))
    print(json.dumps({"count": res.count, "instance": res.instance}, sort_keys=True), file=sys.stderr)
    return 0


def _cmd_render(args) -> int:
    if args.what == "walk":
        doc = render_walk_svg(Walk.from_text(args.walk))
    else:
        from .aztec import path_to_partition

        if args.k is None:
            raise ValueError("render partition needs --k, the diamond order")
        walk = Walk.from_text(args.walk)
        doc = render_partition_svg(path_to_partition(args.k, walk))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance

    try:
        selected = [int(x) for x in args.criteria.split(",")] if args.criteria else None
    except ValueError:
        raise ValueError(f"--criteria must be comma-separated criterion numbers, got {args.criteria!r}") from None
    unknown = sorted(set(selected or ()) - {number for number, _, _ in acceptance.CRITERIA})
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; the criteria are numbered 1..{len(acceptance.CRITERIA)}")
    results = acceptance.run_criteria(selected)
    ok = all(r.passed for r in results)
    return 0 if ok else 1


def _rerun_argv(manifest) -> list[str]:
    """The command line a manifest records; ValueError for anything else."""
    if not isinstance(manifest, dict) or manifest.get("tool") != "sawkit":
        raise ValueError("manifest is not a sawkit manifest object")
    if manifest.get("version") != __version__:
        raise ValueError(f"manifest version {manifest.get('version')!r} is not {__version__}")
    command = next((c for c in _MANIFEST_PARAMS if list(c) == manifest.get("command")), None)
    if command is None:
        raise ValueError(f"manifest command {manifest.get('command')!r} cannot be rerun")
    params = manifest.get("params")
    if not isinstance(params, dict):
        raise ValueError("manifest params must be an object")
    unknown = sorted(set(params) - set(_MANIFEST_PARAMS[command]))
    if unknown:
        raise ValueError(f"manifest params {unknown} are not recorded by {' '.join(command)}")
    argv = list(command)
    for key, value in sorted(params.items()):
        if value is None:
            continue
        if type(value) not in (int, float, str):
            raise ValueError(f"manifest param {key!r} is a {type(value).__name__}, not a number or string")
        argv.append(f"--{key.replace('_', '-')}={value}")
    return argv


def _cmd_rerun(args) -> int:
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    return main(_rerun_argv(manifest) + ["--out", args.out])


# -- parser ----------------------------------------------------------------------


def _add_memory_cap(p) -> None:
    p.add_argument("--memory-cap", type=int, default=DEFAULT_MEMORY_CAP, dest="memory_cap",
                   help="bytes the estimated DP tables of the command may take, all together "
                        f"(default {DEFAULT_MEMORY_CAP}); over it the command exits 2 before building any")


def _add_common_sampling(p, with_region=True) -> None:
    p.add_argument("--seed", type=int, required=True, help="rng seed (required)")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--max-attempts", type=int, default=1000, dest="max_attempts")
    p.add_argument("--out", default=None, help="output directory (writes manifest.json)")
    _add_memory_cap(p)
    if with_region:
        p.add_argument("--region", default="full")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="sawkit", description="Exact sampling of nearly-shortest self-avoiding walks")
    top.add_argument("--version", action="version", version=f"sawkit {__version__}")
    sub = top.add_subparsers(dest="cmd", required=True)

    count = sub.add_parser("count", help="exact counts").add_subparsers(dest="sub", required=True)
    cw = count.add_parser("walks", help="closed-form walk count")
    cw.add_argument("--n1", type=int, required=True)
    cw.add_argument("--n2", type=int, required=True)
    cw.add_argument("--t", type=int, required=True)
    cw.set_defaults(run=_cmd_count_walks)
    cl = count.add_parser("low-girth", help="DP count of girth-restricted walks")
    cl.add_argument("--n1", type=int, required=True)
    cl.add_argument("--n2", type=int, required=True)
    cl.add_argument("--k", type=int, required=True)
    cl.add_argument("--l", type=int, required=True)
    cl.add_argument("--region", default="full")
    cl.add_argument("--origin", default=None)
    _add_memory_cap(cl)
    cl.set_defaults(run=_cmd_count_low_girth)

    paths = sub.add_parser("paths", help="base paths and bumping").add_subparsers(dest="sub", required=True)
    pb = paths.add_parser("base")
    pb.add_argument("--walk", required=True, help="walk in (x,y)URDL text form")
    pb.set_defaults(run=_cmd_paths_base)
    pp = paths.add_parser("bump")
    pp.add_argument("--walk", required=True)
    pp.add_argument("--at", required=True, help="comma-separated 1-based move indices")
    pp.set_defaults(run=_cmd_paths_bump)

    sample = sub.add_parser("sample", help="exact samplers").add_subparsers(dest="sub", required=True)
    ss = sample.add_parser("saw", help="uniform self-avoiding walks")
    ss.add_argument("--n1", type=int, required=True)
    ss.add_argument("--n2", type=int, required=True)
    ss.add_argument("--k", type=int, required=True)
    ss.add_argument("--l", type=int, required=True)
    ss.add_argument("--format", choices=("udlr", "json", "svg"), default="udlr")
    _add_common_sampling(ss)
    ss.set_defaults(run=_cmd_sample_saw)

    aztec = sub.add_parser("aztec", help="Aztec diamond partitions").add_subparsers(dest="sub", required=True)
    az = aztec.add_parser("sample", help="uniform perimeter-constrained 2-partitions")
    az.add_argument("--k", type=int, required=True)
    az.add_argument("--C", type=float, required=True)
    az.add_argument("--eps", type=float, required=True)
    az.add_argument("--l", type=int, required=True)
    az.add_argument("--format", choices=("json", "svg"), default="json")
    _add_common_sampling(az, with_region=False)
    az.set_defaults(run=_cmd_aztec_sample)

    gl = sub.add_parser("glauber", help="Glauber dynamics diagnostics").add_subparsers(dest="sub", required=True)
    gr = gl.add_parser("run")
    gr.add_argument("--k", type=int, required=True)
    gr.add_argument("--C", type=float, required=True)
    gr.add_argument("--eps", type=float, required=True)
    gr.add_argument("--steps", type=int, required=True)
    gr.add_argument("--seed", type=int, required=True)
    gr.add_argument("--trace", default=None, help="write JSONL trace to this file")
    gr.add_argument("--record-every", type=int, default=1, dest="record_every")
    gr.set_defaults(run=_cmd_glauber_run)
    gc = gl.add_parser("conductance")
    gc.add_argument("--k", type=int, required=True)
    gc.add_argument("--C", type=float, required=True)
    gc.add_argument("--eps", type=float, required=True)
    gc.add_argument("--cap", type=int, default=DEFAULT_PARTITION_CAP,
                    help=f"largest diamond order to enumerate Omega for (default {DEFAULT_PARTITION_CAP})")
    gc.set_defaults(run=_cmd_glauber_conductance)

    orc = sub.add_parser("oracle", help="brute-force enumeration").add_subparsers(dest="sub", required=True)
    oe = orc.add_parser("enumerate")
    oe.add_argument("--kind", choices=("saw", "lowgirth", "walks", "partitions"), required=True)
    oe.add_argument("--n1", type=int, default=0)
    oe.add_argument("--n2", type=int, default=0)
    oe.add_argument("--length", type=int, default=0)
    oe.add_argument("--l", type=int, default=1)
    oe.add_argument("--k", type=int, default=1)
    oe.add_argument("--C", type=float, default=2.0)
    oe.add_argument("--eps", type=float, default=0.5)
    oe.add_argument("--region", default="full")
    oe.add_argument("--cap", type=int, default=None,
                    help=f"largest walk length (walk kinds, default {DEFAULT_WALK_CAP}) or diamond order "
                         f"(partitions, default {DEFAULT_PARTITION_CAP}) to enumerate")
    oe.set_defaults(run=_cmd_oracle_enumerate)

    rn = sub.add_parser("render", help="render a walk or partition to SVG")
    rn.add_argument("what", choices=("walk", "partition"))
    rn.add_argument("--walk", required=True)
    rn.add_argument("--k", type=int, default=None, help="diamond order (partition rendering)")
    rn.add_argument("-o", "--output", default=None)
    rn.set_defaults(run=_cmd_render)

    vf = sub.add_parser("verify", help="run the acceptance suite; criterion 4 samples the n=200 and n=300 walks live")
    vf.add_argument("--criteria", default=None, help="comma-separated criterion numbers (default: all)")
    vf.set_defaults(run=_cmd_verify)

    rr = sub.add_parser("rerun", help="re-execute a sampling manifest")
    rr.add_argument("manifest")
    rr.add_argument("--out", required=True)
    rr.set_defaults(run=_cmd_rerun)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.run(args)
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except SamplingBudgetError as exc:
        print(f"sampling budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
