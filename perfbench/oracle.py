"""Closed-form damped harmonic oscillator: the reference for `ensemble` and `certify`.

Solves x'' + lam x' + k x = 0 (the `quadratic` potential with `scale` k under
a `constant` schedule) componentwise, in its under-, critically and
over-damped branches.
"""

from __future__ import annotations

import numpy as np


def branch(lam: float, k: float = 1.0) -> str:
    """Name the damping regime of lam against the critical value 2*sqrt(k)."""
    disc = 0.25 * lam * lam - k
    if disc < 0.0:
        return "under"
    if disc == 0.0:
        return "critical"
    return "over"


def damped_state(t, x0, v0, lam: float, k: float = 1.0):
    """Position and velocity at times t (array) from x(0)=x0, v(0)=v0.

    t has shape (n,); x0 and v0 have shape (dim,); both results have shape
    (n, dim).
    """
    t = np.asarray(t, dtype=float)[:, None]
    x0 = np.asarray(x0, dtype=float)[None, :]
    v0 = np.asarray(v0, dtype=float)[None, :]
    a = 0.5 * lam
    w0 = np.sqrt(k)
    kind = branch(lam, k)
    if kind == "under":
        wd = np.sqrt(k - a * a)
        e, c, s = np.exp(-a * t), np.cos(wd * t), np.sin(wd * t)
        x = e * (x0 * c + (v0 + a * x0) / wd * s)
        v = e * (v0 * c - (k * x0 + a * v0) / wd * s)
    elif kind == "critical":
        e = np.exp(-w0 * t)
        b = v0 + w0 * x0
        x = e * (x0 + b * t)
        v = e * (v0 - w0 * b * t)
    else:
        beta = np.sqrt(a * a - k)
        r1, r2 = -a + beta, -a - beta
        c1 = (v0 - r2 * x0) / (r1 - r2)
        c2 = (r1 * x0 - v0) / (r1 - r2)
        e1, e2 = np.exp(r1 * t), np.exp(r2 * t)
        x = c1 * e1 + c2 * e2
        v = r1 * c1 * e1 + r2 * c2 * e2
    return x, v
