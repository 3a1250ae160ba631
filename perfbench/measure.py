"""Timing of job-list passes, normalised to a fixed machine speed.

On a shared VM the time of one fixed piece of Python work drifts by tens of
percent over seconds to minutes, with every job alike.  Each timed call is
therefore bracketed by a calibration loop: a fixed mpmath workload that
touches no code of the package, so a change to the package cannot move it.
A call's time is divided by the mean of the two calibrations around it and
multiplied by ``CAL_REF_S``, the loop's typical time on the machine the
benchmark was sized on.  The result reads as seconds at that reference
speed.  The raw times stay in the run's details line.
"""

from __future__ import annotations

import statistics
import time
from typing import NamedTuple

import mpmath
from mpmath import mp, mpf

from workloads import Mismatch, compare

CAL_REF_S = 0.01

with mp.workprec(256):
    _CAL_XS = [mpf(k) / 7 + 1 for k in range(1, 600)]


def calibrate() -> tuple[float, float]:
    """(wall, CPU) seconds of the calibration loop."""
    w0, c0 = time.perf_counter(), time.process_time()
    with mp.workprec(256):
        acc = mpf(0)
        for x in _CAL_XS:
            acc = (acc + mpmath.ln(x) * x) / (x + 1)
    counts: dict[int, int] = {}
    for k in range(3000):
        counts[k % 97] = counts.get(k % 97, 0) + k
    return time.perf_counter() - w0, time.process_time() - c0


class Sample(NamedTuple):
    wall: float
    cpu: float
    cal_wall: float  # mean calibration time around the call
    cal_cpu: float

    def normalised(self) -> tuple[float, float]:
        """(wall, CPU) at the reference speed."""
        return self.wall * CAL_REF_S / self.cal_wall, self.cpu * CAL_REF_S / self.cal_cpu


def timed(fn, before: tuple[float, float] | None = None):
    """(result, exception or None, Sample, calibration after) of fn().

    ``before`` reuses the calibration that ended the previous call.
    """
    before = before or calibrate()
    result = error = None
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        result = fn()
    except (Exception, SystemExit) as e:
        error = e
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    after = calibrate()
    sample = Sample(wall, cpu, (before[0] + after[0]) / 2, (before[1] + after[1]) / 2)
    return result, error, sample, after


class Tally:
    """Operations attempted and failed, with one line per failure."""

    def __init__(self):
        self.attempted = 0
        self.reasons: list[str] = []

    def fail(self, job: str, reason: str) -> None:
        self.reasons.append(f"{job}: {' '.join(reason.split())}"[:300])

    @property
    def error_rate(self) -> float:
        return len(self.reasons) / self.attempted if self.attempted else 0.0


def run_pass(jobs, reference: dict, tally: Tally, times: dict) -> None:
    """Run the job list once, appending a Sample per job to ``times``.

    Every exception or non-zero exit counts as one failed operation and the
    pass goes on.  Output checks run outside the timed intervals.
    """
    after = None
    for job in jobs:
        tally.attempted += 1
        out, error, sample, after = timed(job.run, after)
        times.setdefault(job.name, []).append(sample)
        if error is None:
            try:
                if job.name not in reference:
                    raise Mismatch("no frozen reference for this job")
                compare(job.check(out), reference[job.name])
            except Exception as e:
                error = e
        if error is not None:
            tally.fail(job.name, f"{type(error).__name__}: {error}")


def job_list_seconds(times: dict) -> tuple[float, float]:
    """(wall, CPU) of the job list at the reference speed.

    Each job's normalised time is its median over the passes; the job list's
    time is their sum.
    """
    wall = sum(statistics.median(s.normalised()[0] for s in runs) for runs in times.values())
    cpu = sum(statistics.median(s.normalised()[1] for s in runs) for runs in times.values())
    return wall, cpu


def repeat_for(seconds: float, run_once) -> int:
    """Call run_once until about ``seconds`` have passed, at least once.

    Stops when one more call would end more than half a call past the
    target; returns the number of calls.
    """
    start = time.perf_counter()
    calls = 0
    while True:
        run_once()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / calls / 2 >= seconds:
            return calls
