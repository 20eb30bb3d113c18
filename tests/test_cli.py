import inspect
import json
import re
from pathlib import Path

import pytest

from sawkit import __version__, counting
from sawkit.cli import main
from sawkit.counting import CountTable, WindowAutomaton, _automaton_build_bytes, window_automaton
from sawkit.glauber import enumerate_omega
from sawkit.oracle import DEFAULT_PARTITION_CAP


def test_count_walks(capsys):
    assert main(["count", "walks", "--n1", "1", "--n2", "0", "--t", "1"]) == 0
    assert capsys.readouterr().out.strip() == "9"


def test_count_low_girth(capsys):
    assert main(["count", "low-girth", "--n1", "1", "--n2", "1", "--k", "1", "--l", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["2 2", "4 4"]


def test_count_low_girth_region(capsys):
    assert main(["count", "low-girth", "--n1", "1", "--n2", "0", "--k", "2", "--l", "1",
                 "--region", "box:0,-1,1,1"]) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["1 1", "3 2", "5 2"]


def test_paths_commands(capsys):
    assert main(["paths", "base", "--walk", "(0,0)RDRU"]) == 0
    assert capsys.readouterr().out.strip() == "(0,0)RR"
    assert main(["paths", "bump", "--walk", "(0,0)UU", "--at", "2"]) == 0
    assert capsys.readouterr().out.strip() == "(0,0)ULUR"


def test_unknown_flag_exits_1(capsys):
    assert main(["count", "walks", "--n1", "1", "--n2", "0", "--bogus", "3"]) == 1


def test_missing_seed_exits_1():
    assert main(["sample", "saw", "--n1", "2", "--n2", "2", "--k", "1", "--l", "1"]) == 1


def test_memory_cap_exits_2(capsys):
    rc = main(["sample", "saw", "--n1", "150", "--n2", "150", "--k", "10", "--l", "5",
               "--seed", "1", "--count", "1"])
    assert rc == 2


def test_memory_cap_exits_2_before_the_automaton(capsys, monkeypatch):
    def no_build(self, girth):
        raise AssertionError("window automaton built before the memory cap check")

    monkeypatch.setattr(WindowAutomaton, "__init__", no_build)
    rc = main(["sample", "saw", "--n1", "3", "--n2", "3", "--k", "1", "--l", "6", "--seed", "1",
               "--memory-cap", "50000000"])
    assert rc == 2
    assert "window automaton" in capsys.readouterr().err


def test_memory_cap_exits_2_before_geometry(capsys, monkeypatch):
    def no_geometry(self):
        raise AssertionError("geometry built before the memory cap check")

    monkeypatch.setattr(CountTable, "_build_geometry", no_geometry)
    rc = main(["sample", "saw", "--n1", "1000", "--n2", "1000", "--k", "10", "--l", "2",
               "--seed", "1", "--count", "1"])
    assert rc == 2
    assert "exceeds memory cap" in capsys.readouterr().err


def test_budget_exhaustion_exits_3():
    rc = main(["sample", "saw", "--n1", "1", "--n2", "0", "--k", "2", "--l", "1",
               "--seed", "1", "--count", "1", "--region", "box:0,-1,1,1",
               "--max-attempts", "16"])
    assert rc == 3


def test_sample_saw_stdout(capsys):
    rc = main(["sample", "saw", "--n1", "2", "--n2", "2", "--k", "1", "--l", "2",
               "--seed", "5", "--count", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and all(line.startswith("(0,0)") for line in lines)


def test_sample_saw_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["sample", "saw", "--n1", "3", "--n2", "2", "--k", "1", "--l", "2",
               "--seed", "9", "--count", "2", "--format", "svg", "--out", str(out)])
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.json", "sample_0000.svg", "sample_0001.svg", "samples.jsonl"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == ["sample", "saw"]
    record = json.loads((out / "samples.jsonl").read_text().splitlines()[0])
    assert record["length"] == 7 and record["attempts"] >= 1


def test_aztec_sample_stdout(capsys):
    rc = main(["aztec", "sample", "--k", "1", "--C", "1", "--eps", "1", "--l", "2",
               "--seed", "3", "--count", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["k"] == 1 and len(rec["class1"]) in (1, 2, 3)


def test_glauber_commands(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    rc = main(["glauber", "run", "--k", "2", "--C", "3", "--eps", "0.5",
               "--steps", "500", "--seed", "4", "--trace", str(trace),
               "--record-every", "100"])
    assert rc == 0
    assert "steps=500" in capsys.readouterr().out
    lines = trace.read_text().splitlines()
    assert len(lines) == 6
    assert {"step", "endpoints", "in_s", "boundaries"} <= set(json.loads(lines[0]))
    rc = main(["glauber", "conductance", "--k", "2", "--C", "3", "--eps", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ratio=" in out and "t_mix_lower_bound=" in out


def test_glauber_run_without_trace_keeps_no_step_records(capsys, monkeypatch):
    from sawkit.glauber import run_chain as real_run_chain

    traces = []

    def run_chain(*args, **kwargs):
        traces.append(real_run_chain(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr("sawkit.glauber.run_chain", run_chain)
    argv = ["glauber", "run", "--k", "4", "--C", "2", "--eps", "0.5", "--steps", "5000", "--seed", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(traces[-1].records) == 2  # step 0 and the last step, not one per step
    assert main(argv + ["--record-every", "5000"]) == 0
    assert capsys.readouterr().out == out


def test_glauber_run_bad_trace_path_fails_before_the_chain(capsys, tmp_path, monkeypatch):
    def no_chain(*args, **kwargs):
        raise AssertionError("the chain ran")

    monkeypatch.setattr("sawkit.glauber.run_chain", no_chain)
    bad = tmp_path / "missing" / "x.jsonl"
    err = _usage_error(capsys, ["glauber", "run", "--k", "3", "--C", "2", "--eps", "0.5", "--steps", "10",
                                "--seed", "1", "--trace", str(bad)])
    assert str(bad) in err and not bad.exists()


def test_oracle_enumerate(capsys):
    rc = main(["oracle", "enumerate", "--kind", "saw", "--n1", "1", "--n2", "1", "--length", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4


def test_oracle_enumerate_partitions_honours_cap(capsys):
    err = _usage_error(capsys, ["oracle", "enumerate", "--kind", "partitions", "--k", "2", "--cap", "1"])
    assert "capped at k=1" in err


def test_glauber_conductance_cap_is_the_partition_cap(capsys):
    assert inspect.signature(enumerate_omega).parameters["cap"].default == DEFAULT_PARTITION_CAP
    assert main(["glauber", "conductance", "--help"]) == 0
    assert f"(default {DEFAULT_PARTITION_CAP})" in capsys.readouterr().out
    err = _usage_error(capsys, ["glauber", "conductance", "--k", "5", "--C", "2", "--eps", "0.5"])
    assert "capped at k=4" in err


def test_render_walk(tmp_path):
    out = tmp_path / "walk.svg"
    rc = main(["render", "walk", "--walk", "(0,0)RRUU", "-o", str(out)])
    assert rc == 0
    assert out.read_text().startswith("<svg ")


def test_render_partition(tmp_path):
    out = tmp_path / "part.svg"
    rc = main(["render", "partition", "--walk", "(-1,0)RR", "--k", "1", "-o", str(out)])
    assert rc == 0
    assert "<rect" in out.read_text()


def test_rerun_reproduces_outputs(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    argv = ["sample", "saw", "--n1", "4", "--n2", "3", "--k", "1", "--l", "2",
            "--seed", "21", "--count", "2", "--format", "json"]
    assert main(argv + ["--out", str(d1)]) == 0
    assert main(["rerun", str(d1 / "manifest.json"), "--out", str(d2)]) == 0
    for name in ("manifest.json", "samples.jsonl"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


GOLDEN = Path(__file__).parent / "data" / "saw_n10_8_k3_l2_seed5"


def test_rerun_committed_manifest(tmp_path, capsys):
    assert main(["rerun", str(GOLDEN / "manifest.json"), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("change", [
    {"manifest": [1, 2]},
    {"tool": "other"},
    {"version": "0.0.0"},
    {"command": ["glauber", "run"]},
    {"command": "sample saw"},
    {"command": [["sample"], "saw"]},
    {"params": "n1=2"},
    {"params": ["n1", 2]},
    {"param": ("out", "elsewhere")},
    {"param": ("compact", True)},
    {"param": ("C", 2.0)},
    {"param": ("seed", [1])},
    {"param": ("seed", {"a": 1})},
    {"param": ("seed", True)},
], ids=["list", "tool", "version", "command", "command-string", "command-nested", "params-string",
        "params-list", "out", "unknown-key", "other-command-key", "list-value", "object-value", "bool-value"])
def test_rerun_rejects_malformed_manifest(tmp_path, capsys, change):
    manifest = json.loads((GOLDEN / "manifest.json").read_text())  # reruns, see above
    assert manifest["version"] == __version__
    if "manifest" in change:
        manifest = change["manifest"]
    elif "param" in change:
        key, value = change["param"]
        manifest["params"][key] = value
    else:
        manifest.update(change)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    assert main(["rerun", str(path), "--out", str(out)]) == 1
    assert "error: manifest" in capsys.readouterr().err
    assert not out.exists()


def test_sample_saw_has_no_compact_flag(capsys):
    assert main(["sample", "saw", "--n1", "2", "--n2", "1", "--k", "1", "--l", "2",
                 "--seed", "1", "--compact"]) == 1


def test_regime_warning(capsys):
    rc = main(["sample", "saw", "--n1", "4", "--n2", "4", "--k", "3", "--l", "1",
               "--seed", "2", "--count", "1"])
    assert rc == 0
    assert "regime" in capsys.readouterr().err


def _usage_error(capsys, argv) -> str:
    """The stderr of a command that must exit 1 with a one-line typed error."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    return err


def test_glauber_run_record_every_zero_exits_1(capsys):
    err = _usage_error(capsys, ["glauber", "run", "--k", "2", "--C", "3", "--eps", "0.5", "--steps", "10",
                                "--seed", "1", "--record-every", "0"])
    assert "record_every" in err


def test_render_partition_without_k_exits_1(capsys):
    assert "--k" in _usage_error(capsys, ["render", "partition", "--walk", "(-1,0)RR"])


def test_render_partition_off_the_lower_left_edge_exits_1(capsys):
    # (-1,-1)L steps to (-2,-1), off A_2' below its leftmost column
    err = _usage_error(capsys, ["render", "partition", "--k", "2", "--walk", "(-1,-1)L"])
    assert err.strip() == "error: walk leaves the diamond"


# the commands that take OmegaParams, without --k and --C
_omega_commands = pytest.mark.parametrize(
    "argv",
    [
        ["aztec", "sample", "--eps", "0.5", "--l", "2", "--seed", "1"],
        ["glauber", "run", "--eps", "0.5", "--steps", "10", "--seed", "1"],
        ["glauber", "conductance", "--eps", "0.5"],
        ["oracle", "enumerate", "--kind", "partitions", "--eps", "0.5"],
    ],
    ids=["aztec-sample", "glauber-run", "glauber-conductance", "oracle-partitions"],
)


@pytest.mark.parametrize("C", ["inf", "nan"])
@_omega_commands
def test_non_finite_C_exits_1(capsys, argv, C):
    assert "C must be a positive finite number" in _usage_error(capsys, argv + ["--k", "2", "--C", C])


@pytest.mark.parametrize("k", ["-1", "0"])
@_omega_commands
def test_diamond_order_below_1_exits_1(capsys, argv, k):
    assert "diamond order k must be >= 1" in _usage_error(capsys, argv + ["--k", k, "--C", "2"])


@pytest.mark.parametrize(
    "argv",
    [
        ["glauber", "run", "--k", "2", "--eps", "0.5", "--steps", "200000", "--seed", "1"],
        ["glauber", "conductance", "--k", "2", "--eps", "0.5"],
    ],
    ids=["glauber-run", "glauber-conductance"],
)
def test_closed_cut_budget_exits_1(capsys, argv):
    """Budget 20 = 8k + 4 at k=2 admits an enclosed class: refused before any step or enumeration."""
    err = _usage_error(capsys, argv + ["--C", "5.7"])
    assert "budget 20 >= 8k+4 = 20" in err
    assert main(argv + ["--C", "4.3"]) == 0  # budget 18
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("criteria,unknown", [("14", "[14]"), ("0,99", "[0, 99]"), ("3,14", "[14]")])
def test_verify_unknown_criteria_exits_1(capsys, criteria, unknown):
    err = _usage_error(capsys, ["verify", "--criteria", criteria])
    assert f"unknown criteria {unknown}" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sample", "saw", "--n1", "2", "--n2", "2", "--k", "1", "--l", "2", "--seed", "1", "--count", "-1"],
         "--count must be >= 0, got -1"),
        (["aztec", "sample", "--k", "2", "--C", "3", "--eps", "0.5", "--l", "2", "--seed", "1", "--count", "-3"],
         "--count must be >= 0, got -3"),
        (["glauber", "run", "--k", "2", "--C", "3", "--eps", "0.5", "--steps", "-5", "--seed", "1"],
         "steps must be >= 0, got -5"),
    ],
    ids=["sample-saw-count", "aztec-sample-count", "glauber-run-steps"],
)
def test_negative_size_exits_1(capsys, tmp_path, argv, message):
    """A negative sample count or chain length is a typed error: no output, no manifest."""
    out = tmp_path / "run"
    extra = [] if argv[0] == "glauber" else ["--out", str(out)]
    assert main(argv + extra) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == "" and not out.exists()


def test_verify_has_no_draws_flag(monkeypatch):
    """verify takes --criteria only: --draws, --calibration and --write-calibration are usage errors."""
    def no_criteria(*args, **kwargs):
        raise AssertionError("criteria ran")

    monkeypatch.setattr("sawkit.acceptance.run_criteria", no_criteria)
    assert main(["verify", "--draws", "2000"]) == 1
    assert main(["verify", "--calibration"]) == 1
    assert main(["verify", "--write-calibration", "calibration.json"]) == 1


_SAMPLE_SAW = ["sample", "saw", "--n1", "2", "--n2", "2", "--k", "1", "--l", "2", "--seed", "1"]
_AZTEC_SAMPLE = ["aztec", "sample", "--k", "2", "--C", "3", "--eps", "0.5", "--l", "2", "--seed", "1"]
_samplers = pytest.mark.parametrize("argv", [_SAMPLE_SAW, _AZTEC_SAMPLE], ids=["sample-saw", "aztec-sample"])


@pytest.mark.parametrize("attempts", ["0", "-4"])
@_samplers
def test_max_attempts_below_1_exits_1(capsys, tmp_path, monkeypatch, argv, attempts):
    """An attempt budget no draw can meet is refused before any table is built."""
    def no_table(*args, **kwargs):
        raise AssertionError("table built before the --max-attempts check")

    monkeypatch.setattr("sawkit.cli.build_table", no_table)
    monkeypatch.setattr("sawkit.cli.partition_family", no_table)
    out = tmp_path / "run"
    err = _usage_error(capsys, argv + ["--max-attempts", attempts, "--out", str(out)])
    assert err == f"error: --max-attempts must be >= 1, got {attempts}\n"
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["udlr", "json", "svg"])
def test_sample_saw_count_0_writes_nothing(capsys, tmp_path, fmt):
    assert main(_SAMPLE_SAW + ["--count", "0", "--format", fmt]) == 0
    assert capsys.readouterr().out == ""
    out = tmp_path / "run"
    assert main(_SAMPLE_SAW + ["--count", "0", "--format", fmt, "--out", str(out)]) == 0
    name = "samples.txt" if fmt == "udlr" else "samples.jsonl"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", name]
    assert (out / name).read_text() == ""


def test_aztec_sample_count_0_writes_nothing(capsys, tmp_path):
    assert main(_AZTEC_SAMPLE + ["--count", "0"]) == 0
    assert capsys.readouterr().out == ""
    out = tmp_path / "run"
    assert main(_AZTEC_SAMPLE + ["--count", "0", "--out", str(out)]) == 0
    assert (out / "partitions.jsonl").read_text() == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sample", "saw", "--n1", "-3", "--n2", "3", "--k", "1", "--l", "2", "--seed", "1"],
         "--n1 and --n2 must be >= 0"),
        (_SAMPLE_SAW + ["--region", "box:0,0,3"], "box:x0,y0,x1,y1"),
        (["count", "low-girth", "--n1", "1", "--n2", "1", "--k", "1", "--l", "2", "--origin", "1"], "x,y"),
        (["paths", "bump", "--walk", "(0,0)UU", "--at", "x"], "--at must be comma-separated 1-based move indices"),
        # refused by the table build, before the l*delta regime warning could print
        (["sample", "saw", "--n1", "2", "--n2", "2", "--k", "1", "--l", "0", "--seed", "1"],
         "girth parameter must be >= 1"),
        (["verify", "--criteria", "1,x"], "--criteria must be comma-separated criterion numbers"),
    ],
    ids=["negative-n1", "short-box", "short-origin", "bump-at", "girth-0", "verify-criteria"],
)
def test_malformed_arguments_name_the_rule(capsys, argv, message):
    err = _usage_error(capsys, argv)
    assert message in err and "unpack" not in err and "not covered" not in err and "int()" not in err
    assert "warning" not in err


_COUNT_LOW_GIRTH = ["count", "low-girth", "--n1", "2", "--n2", "2", "--k", "1", "--l", "2"]
_table_commands = pytest.mark.parametrize(
    "argv", [_SAMPLE_SAW, _COUNT_LOW_GIRTH, _AZTEC_SAMPLE], ids=["sample-saw", "count-low-girth", "aztec-sample"]
)


@pytest.mark.parametrize("cap", ["0", "-1"])
@_table_commands
def test_memory_cap_below_1_exits_1(capsys, monkeypatch, argv, cap):
    """A cap no table fits under is a usage error, refused before any table is sized."""
    def no_sizing(*args, **kwargs):
        raise AssertionError("table sized before the --memory-cap check")

    monkeypatch.setattr(CountTable, "_size", no_sizing)
    err = _usage_error(capsys, argv + ["--memory-cap", cap])
    assert err == f"error: --memory-cap must be >= 1, got {cap}\n"


@_table_commands
def test_memory_cap_message_tells_estimate_from_cap(capsys, argv):
    """A cap one byte under the estimate exits 2, and the message's two sizes read apart."""
    window_automaton(2)  # built, so the tables' estimate is the only one; the next test has it unbuilt
    assert main(argv + ["--memory-cap", "1"]) == 2
    est = int(re.search(r"estimated .* ([\d,]+) bytes exceeds", capsys.readouterr().err)[1].replace(",", ""))
    assert main(argv + ["--memory-cap", str(est - 1)]) == 2
    err = capsys.readouterr().err
    assert f"{est:,} bytes exceeds memory cap {est - 1:,} bytes" in err
    assert main(argv + ["--memory-cap", str(est)]) == 0


@_table_commands
def test_memory_cap_message_tells_automaton_estimate_first(capsys, monkeypatch, argv):
    """Before its girth's automaton is built, a cap under the build's bound is refused with that bound, exactly."""
    monkeypatch.setattr(counting, "_AUTOMATA", {})
    est = _automaton_build_bytes(2)
    for cap in (1, est - 1):
        assert main(argv + ["--memory-cap", str(cap)]) == 2
        err = capsys.readouterr().err
        assert f"estimated window automaton build {est:,} bytes exceeds memory cap {cap:,} bytes" in err
    main(argv + ["--memory-cap", str(est)])
    assert "window automaton" not in capsys.readouterr().err


def test_aztec_sample_reads_no_cache_environment(capsys, tmp_path, monkeypatch):
    """The disk cache is gone: a SAWKIT_CACHE_DIR left in the environment is neither read nor written."""
    monkeypatch.setenv("SAWKIT_CACHE_DIR", str(tmp_path))
    assert main(["aztec", "sample", "--k", "2", "--C", "3", "--eps", "0.5", "--l", "2", "--seed", "1"]) == 0
    assert list(tmp_path.iterdir()) == []
