"""Host-speed scaling: the sample window of a job and the scaled medians."""

import calibrate
import run


def test_window_takes_samples_before_during_and_after_the_job():
    n = calibrate.BETWEEN
    s = calibrate.Sampler()
    # (end time, seconds): n + 1 before the job, two during, n + 1 after
    s.samples = ([(0.0, 9.0)] + [(0.1 * (i + 1), 1.0) for i in range(n)]
                 + [(1.5, 2.0), (1.9, 2.0)]
                 + [(2.0 + 0.1 * (i + 1), 3.0) for i in range(n)] + [(3.0, 9.0)])
    mean, sampling = s.window(1.0, 2.0)
    assert mean == (n * 1.0 + 2 * 2.0 + n * 3.0) / (2 * n + 2)
    assert sampling == 4.0


def test_window_of_a_job_without_samples_inside():
    n = calibrate.BETWEEN
    s = calibrate.Sampler()
    s.samples = [(0.1 * i, 1.0) for i in range(n)] + [(1.0 + 0.1 * i, 2.0) for i in range(n)]
    assert s.window(0.9, 0.95) == (1.5, 0)


def test_kernel_is_timed():
    s = calibrate.Sampler()
    s.between()
    assert len(s.samples) == calibrate.BETWEEN
    assert all(d > 0 for _, d in s.samples)


def test_job_costs_scale_each_job_then_take_the_median():
    ref = calibrate.REFERENCE_S
    passes = [{"latencies": [1.0, 2.0], "kernel_means": [ref, 2 * ref]},
              {"latencies": [3.0, 2.0], "kernel_means": [2 * ref, ref]},
              {"latencies": [1.2, 1.0], "kernel_means": [ref, ref]}]
    assert run.job_costs(passes, "latencies") == [1.2, 1.0]
    assert run.job_costs(passes, "latencies", scaled=False) == [1.2, 2.0]
