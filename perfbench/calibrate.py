"""Two fixed slices of work that measure the host's current speed.

The machine this benchmark runs on is a virtual CPU on a shared host whose
speed changes from second to second and, at times, by a factor of two over
half an hour: the same round of program calls has taken 1.4 s of CPU time in
one half hour and 3.0 s in the next. CPU time does not remove that, since
the slow phases are not time given to other guests. So every timing is also
divided by the CPU time of a slice of fixed work, measured in the same
process between the same calls, and reported as seconds at the reference
speed at which that slice takes its reference time.

The host's changes do not slow all work alike. Interpreted code, scalar
scipy.special calls and numpy calls on short arrays slow together; numpy
passes over arrays of 10^5 values and more slow by about a third as much
(over 0.1-second blocks of a minute the first three had a log-time standard
deviation of 0.11 and correlations of 0.8-0.9, and on them the long-array
passes had slopes of 0.3-0.4). The program's calls mix both kinds. So a
calibration point runs two slices: `interp`, of the first kind, and `array`,
of the second. The samplers and the Stein Monte Carlo report, which spend
their time in long-array passes, are scaled by the `array` slice alone
(kind "array"); every other call by the two together (kind "whole"), which
tracked the interpreter-bound workloads more closely than `interp` alone.
Neither slice imports the program.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.special as sc

# CPU seconds of each slice at the reference speed: a call of t CPU seconds
# timed between slices of c seconds is reported as t * REFERENCE_S[kind] / c.
# They are round values near the medians measured on the machine of the
# README's reference figures (7-10 ms whole, 3.5-4.5 ms array, depending on
# the host's phase), so that a reference second is about a CPU second there.
REFERENCE_S = {"whole": 0.0080, "array": 0.0040}

_X = np.linspace(0.01, 5.0, 200)
_V = np.random.default_rng(0).standard_normal(100_000)
_RNG = np.random.default_rng(1)


def _interp():
    s = 0.0
    for i in range(1, 12000):
        s += math.log(i) * 0.5 / i
    n = 1
    for i in range(1, 200):
        n = n * i + 1
    for i in range(1, 300):
        s += float(sc.betainc(0.5 + i % 7, 1.5, 0.3)) + float(sc.gammaln(i * 0.1))
    for _ in range(300):
        s += float(np.dot(_X, np.exp(-_X)))
    return s + n.bit_length()


def _array():
    s = float(np.exp(-_V * _V).sum())
    return s + float(_RNG.standard_normal(200_000).sum())


def _cpu(work) -> float:
    t0 = time.process_time()
    work()
    return time.process_time() - t0


def measure() -> dict:
    """CPU seconds of one calibration point, by kind."""
    interp, array = _cpu(_interp), _cpu(_array)
    return {"whole": interp + array, "array": array}


def warm_up():
    _interp()
    _array()


def to_reference(seconds: float, kind: str, slice_seconds: float) -> float:
    return seconds * REFERENCE_S[kind] / slice_seconds
