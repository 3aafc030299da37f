"""The end-to-end time estimator, the speed sampler and the round count."""
import pytest

import run
from run import OpRecord


def rec(rnd, index, seconds, ref):
    return OpRecord(rnd, index, "op", seconds, True, ref=ref)


def test_round_ref_sums_per_operation_medians_of_ratios():
    records = [
        rec(0, 0, 2.0, 0.010), rec(0, 1, 0.5, 0.010),
        rec(1, 0, 3.0, 0.015), rec(1, 1, 0.8, 0.010),
        rec(2, 0, 9.0, 0.030), rec(2, 1, 0.6, 0.010),
    ]
    # op 0 reads 200 in every round: its slow rounds ran on a slow machine
    assert run.round_ref(records) == pytest.approx(200.0 + 60.0)


def test_round_ref_ignores_a_uniform_slowdown():
    fast = [rec(k, i, 0.1 * (i + 1), 0.01) for k in range(3) for i in range(4)]
    slow = [rec(k, i, 0.16 * (i + 1), 0.016) for k in range(3) for i in range(4)]
    assert run.round_ref(slow) == pytest.approx(run.round_ref(fast))


class _Workload:
    NOMINAL_ROUND_S = 4.0


def test_round_count_depends_on_seconds_only():
    assert run.round_count(_Workload, 20) == 5
    assert run.round_count(_Workload, 9.9) == 2
    assert run.round_count(_Workload, 1) == run.MIN_ROUNDS


def test_sampler_windows():
    sampler = run.SpeedSampler()
    sampler.samples = [(0.00, 0.001), (0.05, 0.002), (1.00, 0.003), (1.50, 0.004)]
    assert sampler.busy(0.0, 1.0) == pytest.approx(0.003)
    # an operation from 0.2 s to 0.95 s also counts the sample 50 ms after it
    assert sampler.speed(0.2, 0.95) == pytest.approx(0.003)
    assert sampler.speed(0.0, 1.0) == pytest.approx(0.002)
