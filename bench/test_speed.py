"""Self-tests of the speed-scaled clock.

    python3 -m pytest bench/test_speed.py
"""

import signal
import time

import pytest

import speed


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_plain_clock_reads_the_wall_clock():
    with speed.SpeedClock(None) as clock:
        busy(0.05)
    assert not clock.samples
    assert clock.scaled == clock.raw == pytest.approx(0.05, rel=0.2)


def test_each_stretch_is_scaled_by_reference_over_kernel_time(monkeypatch):
    # a kernel that takes at least twice its reference time: the scaled
    # time is at most half the raw one, and the ticks' time is left out
    monkeypatch.setitem(speed.KERNELS, "slow", (lambda: time.sleep(0.002), 0.001))
    with speed.SpeedClock("slow") as clock:
        busy(0.5)
    kernel_s = sum(spent for _, spent, _ in clock.samples)
    assert len(clock.samples) >= 8
    assert clock.raw + kernel_s == pytest.approx(0.5, rel=0.1)
    assert 0.3 * clock.raw < clock.scaled <= 0.5 * clock.raw


def test_timer_and_handler_are_restored():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedClock("python"):
        busy(0.12)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
