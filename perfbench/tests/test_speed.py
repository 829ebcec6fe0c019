import time

import pytest

import child


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_speed_probe_samples_and_subtracts_its_own_cost():
    with child.SpeedProbe() as probe:
        busy(0.1)
    report = probe.report()
    assert report["wall_s"] >= 0.1
    assert 0 < report["net_s"] < report["wall_s"]
    assert report["nominal_s"] > 0


def test_nominal_time_weights_each_moment_by_the_cpus_speed():
    probe = child.SpeedProbe()
    probe.wall_s = 3.0 + 1.0e-3
    # half the samples at nominal speed, half 1.5 times slower
    probe.samples = [probe.NOMINAL_S] * 5 + [1.5 * probe.NOMINAL_S] * 5
    probe.samples[0] += 1.0e-3 - sum(probe.samples)  # the samples took 1 ms in all
    report = probe.report()
    assert report["net_s"] == pytest.approx(3.0)
    weights = [probe.NOMINAL_S / r for r in probe.samples]
    assert report["nominal_s"] == pytest.approx(3.0 * sum(weights) / len(weights))


def test_speed_probe_refuses_a_block_it_never_sampled():
    with child.SpeedProbe() as probe:
        pass
    with pytest.raises(RuntimeError):
        probe.report()


def test_only_times_are_taken_to_nominal_speed():
    timing = {"wall_s": 4.0, "net_s": 3.96, "nominal_s": 3.0}
    assert child.at_nominal_speed(2.0, "s", timing) == pytest.approx(1.5)
    assert child.at_nominal_speed(100.0, "ns", timing) == pytest.approx(75.0)
    assert child.at_nominal_speed(451, "count", timing) == 451
