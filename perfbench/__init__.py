"""Benchmark harness for sawkit; run it with ``python3 perfbench/run.py``."""
