"""Seeded CLI outputs compared byte for byte against committed golden files.

The files under tests/data were written by the commands below; a change
that keeps the exact counts and the random-number use must reproduce them.
"""

from pathlib import Path

from sawkit.cli import main

DATA = Path(__file__).parent / "data"


def test_aztec_sample_golden(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["aztec", "sample", "--k", "4", "--C", "2.0", "--eps", "0.5", "--l", "2",
               "--seed", "7", "--count", "20", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    got = (out / "partitions.jsonl").read_bytes()
    assert got == (DATA / "aztec_k4_seed7_partitions.jsonl").read_bytes()


def test_glauber_run_golden(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    rc = main(["glauber", "run", "--k", "4", "--C", "2.0", "--eps", "0.5", "--steps", "20000",
               "--seed", "3", "--record-every", "100", "--trace", str(trace)])
    assert rc == 0
    assert capsys.readouterr().out == (DATA / "glauber_k4_seed3_stdout.txt").read_text()
    assert trace.read_bytes() == (DATA / "glauber_k4_seed3_trace.jsonl").read_bytes()


def test_sample_saw_golden(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["sample", "saw", "--n1", "10", "--n2", "8", "--k", "3", "--l", "2",
               "--seed", "5", "--count", "20", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    golden = DATA / "saw_n10_8_k3_l2_seed5"
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes()
