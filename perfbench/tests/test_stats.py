import pytest

from perfbench.stats import latency_summary, nearest_rank, tail_percentile


@pytest.mark.parametrize("n, pct", [
    (10_000, 95),
    (200, 95),  # exactly 10 samples above rank 190
    (199, 94),  # p95 would leave 9 above rank 190
    (100, 90),
    (40, 75),
    (20, 50),
    (19, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct
    if pct is not None:
        rank = -(-pct * n // 100)
        assert n - rank >= 10


def test_nearest_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 95) == 95
    assert nearest_rank([7.0], 95) == 7.0


def test_latency_summary_reports_percentile_used_and_count():
    out = latency_summary([i / 1000 for i in range(1, 101)])  # 1..100 ms
    assert out["n"] == 100
    assert out["tail_pct"] == 90
    assert out["tail_ms"] == pytest.approx(90.0)
    assert out["p50_ms"] == pytest.approx(50.5)
