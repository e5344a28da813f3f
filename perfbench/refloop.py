"""A fixed reference loop that measures how fast the host runs right now.

The benchmark's host is a few vCPUs of a shared machine whose speed drifts
by up to 2x within a minute as other tenants come and go; wall time and CPU
time drift alike. ``run.py`` times this loop between operations and divides
each stretch of operations by the loop time around it, so the drift cancels
while a change to hbft still moves the quotient in full: the loop imports
nothing from hbft.

The loop mixes three kinds of work in hbft's proportions of interpreter and
small-array cost: a hand-written RK4 on frozen-dataclass states with
1-element numpy arrays and per-step recording (the shape of hbft's
integrator), bare 1-element numpy updates, and plain float arithmetic. The
mix tracks the host's speed on hbft's workloads better than any one part.
It takes about 0.4 s on a 2-vCPU Intel Xeon virtual machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# Seconds the loop takes on the 2-vCPU host in its common, slower state. A
# set-up time divided by the loop time around it is reported in seconds as
# that quotient times NOMINAL_S, so setup_s reads close to real seconds on
# that host while the host's drift cancels.
NOMINAL_S = 0.4

RK4_STEPS = 1_500
ARRAY_STEPS = 15_000
FLOAT_STEPS = 360_000


@dataclass(frozen=True)
class _State:
    t: float
    x: np.ndarray
    v: np.ndarray


def _field(state: _State):
    if not (np.all(np.isfinite(state.x)) and np.all(np.isfinite(state.v))):
        raise FloatingPointError("reference loop diverged")
    lam = 0.5 if state.t >= 0.0 else 0.0
    return state.v, -lam * state.v - 1.0 * state.x


def _rk4(steps: int, h: float = 0.01) -> float:
    s = _State(0.0, np.array([1.0]), np.array([0.0]))
    rows_x, rows_v, rows_e = [], [], []
    for _ in range(steps):
        t, x, v = s.t, s.x, s.v
        k1x, k1v = _field(s)
        k2x, k2v = _field(_State(t + h / 2, x + h / 2 * k1x, v + h / 2 * k1v))
        k3x, k3v = _field(_State(t + h / 2, x + h / 2 * k2x, v + h / 2 * k2v))
        k4x, k4v = _field(_State(t + h, x + h * k3x, v + h * k3v))
        s = _State(
            t + h,
            x + h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x),
            v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v),
        )
        rows_x.append(s.x.copy())
        rows_v.append(s.v.copy())
        rows_e.append(0.5 * float(s.v @ s.v) + 0.5 * float(np.linalg.norm(s.x)) ** 2)
    return float(np.array(rows_e)[-1] + np.array(rows_x)[-1, 0] + np.array(rows_v)[-1, 0])


def _arrays(steps: int) -> float:
    x = np.zeros(1)
    v = np.ones(1)
    for _ in range(steps):
        a = -x - 0.5 * v
        x = x + 0.01 * v
        v = v + 0.01 * a
    return float(x[0])


def _floats(steps: int, h: float = 0.01) -> float:
    x, v = 0.0, 1.0
    for _ in range(steps):
        k1x, k1v = v, -x - 0.5 * v
        k2x = v + 0.5 * h * k1v
        k2v = -(x + 0.5 * h * k1x) - 0.5 * k2x
        x += h * k2x
        v += h * k2v
    return x


def seconds() -> float:
    """Wall time of one run of the reference loop."""
    t0 = time.perf_counter()
    _rk4(RK4_STEPS)
    _arrays(ARRAY_STEPS)
    _floats(FLOAT_STEPS)
    return time.perf_counter() - t0
