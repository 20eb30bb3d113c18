"""Every sawkit name the benchmark traces still exists, so a change to the package cannot drop a span unseen."""

import sys
from pathlib import Path

# perfbench sits beside src/, at the repository root
ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import TRACE_POINTS  # noqa: E402


def test_every_trace_point_resolves():
    tracer = Tracer()
    try:
        for module, attr, units in TRACE_POINTS:
            tracer.install("sawkit", module, attr, units)
        assert tracer.missing == []
    finally:
        tracer.uninstall()
