"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines,
or ``sawkit verify`` for the same output outside pytest.
"""

import pytest

from sawkit import acceptance
from sawkit.acceptance import CALIBRATION_DRAWS, CALIBRATION_INSTANCES, CRITERIA


@pytest.mark.parametrize("number,name,func", CRITERIA, ids=[f"criterion_{n:02d}" for n, _, _ in CRITERIA])
def test_criterion(number, name, func):
    passed, details = func()
    print(f"{'PASS' if passed else 'FAIL'}  criterion {number:2d}  {name}: {details}")
    assert passed, f"criterion {number} ({name}): {details}"


@pytest.mark.parametrize(
    "target,attempts_shift,rate",
    [(0, 1, None), (1, 0, 0.49)],
    ids=["n200-attempts-one-off-pin", "n300-rate-below-half"],
)
def test_criterion_4_fails_and_names_the_instance(monkeypatch, target, attempts_shift, rate):
    """Criterion 4 fails, naming the instance, on any attempt count but the pinned one or a rate below 0.5.

    The small instances run for real; the two large ones are faked, each at its pin but for ``target``.
    """
    real = acceptance._acceptance_rate
    large = {inst[1:6]: inst for inst in CALIBRATION_INSTANCES}

    def fake(n1, n2, k, girth, draws, seed):
        inst = large.get((n1, n2, k, girth, seed))
        if inst is None:
            return real(n1, n2, k, girth, draws, seed)
        attempts = inst[6]
        if inst is CALIBRATION_INSTANCES[target]:
            attempts += attempts_shift
            if rate is not None:
                return rate, attempts
        return CALIBRATION_DRAWS / attempts, attempts

    monkeypatch.setattr(acceptance, "_acceptance_rate", fake)
    passed, details = acceptance.criterion_4()
    assert not passed
    assert CALIBRATION_INSTANCES[target][0] in details
    assert ("below 0.5" in details) == (rate is not None)
