"""Potential landscapes Φ: ℝⁿ → ℝ and their sampled hypothesis checks.

A :class:`Potential` bundles the value, the gradient, and (optionally) the
Hessian quadratic form of a landscape, together with whatever structural
facts are known about it: a global lower bound, known critical points, and
whether the landscape is unbounded below. The simulation layer only ever
calls the three evaluation functions; the diagnostics layer consumes the
structural facts.

Builtin catalogue (see :func:`builtin_potentials` / :func:`make_potential`):

- ``quadratic``: Φ(x) = scale · ½|x|², the isotropic bowl.
- ``anisotropic_quadratic``: Φ(x) = ½ Σ dᵢ xᵢ², a bowl with per-axis
  curvatures dᵢ > 0.
- ``rosenbrock``: Φ(x, y) = (a − x)² + b (y − x²)², the classic curved
  valley.
- ``double_well``: Φ(x) = x⁴/4 − x²/2, two basins at x = ±1 and a saddle
  at 0.
- ``eggcrate``: Φ(x) = ½|x|² + A Σ sin² xᵢ, a bowl with periodic ripples.
- ``flat``: Φ ≡ 0.
- ``tilted_plane``: Φ(x) = s·x, unbounded below; kept in the catalogue so
  the refusal path for unbounded landscapes can be exercised.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, DimensionMismatchError

Vector = np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class Potential:
    """A landscape with value, gradient, and optional curvature information.

    Attributes:
        name: Human-readable identifier, used in reports and error messages.
        dim: Dimension n of the domain ℝⁿ.
        value_fn: x ↦ Φ(x).
        gradient_fn: x ↦ ∇Φ(x), shape (n,).
        hessian_quadform_fn: (x, v) ↦ vᵀ∇²Φ(x)v, or None when the landscape
            does not provide second derivatives. The full surface model and
            the reaction force need this; the reduced model does not.
        lower_bound: A number L with Φ(x) ≥ L for all x, or None when no
            bound is known.
        known_critical_points: Points where ∇Φ vanishes exactly, if any are
            known in closed form. Used by the hypothesis checks.
        unbounded_below: True when the landscape is known to have no lower
            bound. Such landscapes can be simulated but never certified.
        float_gradient_fn: ∇Φ on Python floats, for dim 1 and 2 only: x ↦ g
            for dim 1, (x₀, x₁) ↦ (g₀, g₁) for dim 2. It must give the doubles
            ``gradient_fn`` gives, inf and nan included, and must not raise.
            With it, ``integrate`` steps the reduced model on floats (see
            :mod:`hbft.integrate`) and :func:`gradient_rows` runs per row.
        column_value_fn: Φ over the rows of an (N, dim) array, (N, dim) →
            (N,), for dim 1 and 2 only. It must give the doubles ``value``
            gives row by row. With it, ``integrate`` builds the energy
            column in one pass instead of one ``value`` call per sample.
    """

    name: str
    dim: int
    value_fn: Callable[[Vector], float] = dataclasses.field(repr=False)
    gradient_fn: Callable[[Vector], Vector] = dataclasses.field(repr=False)
    hessian_quadform_fn: Optional[Callable[[Vector, Vector], float]] = dataclasses.field(
        default=None, repr=False
    )
    lower_bound: Optional[float] = None
    known_critical_points: tuple = ()
    unbounded_below: bool = False
    float_gradient_fn: Optional[Callable] = dataclasses.field(default=None, repr=False)
    column_value_fn: Optional[Callable] = dataclasses.field(default=None, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"potential dim must be >= 1, got {self.dim}")
        if self.unbounded_below and self.lower_bound is not None:
            raise ValueError("a potential cannot both declare a lower bound and be unbounded below")


# Plain float64 arrays of the right shape pass through unconverted: the
# conversions below would return them unchanged, only more slowly.
_FLOAT = np.dtype(float)


def _as_point(p: Potential, x, name: str = "x") -> Vector:
    if type(x) is np.ndarray and x.dtype is _FLOAT and x.shape == (p.dim,):
        return x
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.shape != (p.dim,):
        raise DimensionMismatchError(
            f"{name} has shape {arr.shape}, expected ({p.dim},) for potential '{p.name}'"
        )
    return arr


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a·b per row of (N, dim) arrays (or of one and a (dim,) row), in one
    batched matmul that takes numpy's dot per row, as ``a @ b`` on rows does;
    at dim 1, the product plus 0.0, as the dot's ``0 + a*b`` (-0.0 -> +0.0)."""
    if a.shape[-1] == 1:
        return a[..., 0] * b[..., 0] + 0.0
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def float_rows(x: np.ndarray):
    """The rows of the (N, dim) array ``x`` as tuples of Python floats,
    converted 4096 rows at a time, so that a long column never holds one
    Python float per entry at once."""
    for i in range(0, len(x), 4096):
        yield from zip(*x[i : i + 4096].T.tolist())


def gradient_rows(p: Potential, x: np.ndarray) -> np.ndarray:
    """∇Φ at each row of the (N, dim) array ``x``, the rows ``gradient`` gives:
    through the float form where ``p`` has one."""
    form = p.float_gradient_fn
    if form is None or p.dim > 2 or x.shape[1] != p.dim:
        return np.fromiter((gradient(p, xk) for xk in x), (float, (p.dim,)), len(x))
    rows = itertools.starmap(form, float_rows(x))
    if p.dim == 2:
        rows = itertools.chain.from_iterable(rows)
    return np.fromiter(rows, float, x.size).reshape(x.shape)


def value(p: Potential, x) -> float:
    """Evaluate Φ(x)."""
    return float(p.value_fn(_as_point(p, x)))


def gradient(p: Potential, x) -> Vector:
    """Evaluate ∇Φ(x) as a float array of shape (dim,)."""
    g = p.gradient_fn(_as_point(p, x))
    if type(g) is not np.ndarray or g.dtype is not _FLOAT:
        g = np.asarray(g, dtype=float)
    if g.shape != (p.dim,):
        raise DimensionMismatchError(
            f"gradient of '{p.name}' returned shape {g.shape}, expected ({p.dim},)"
        )
    return g


def hessian_quadform(p: Potential, x, v) -> float:
    """Evaluate vᵀ∇²Φ(x)v.

    Raises:
        CapabilityError: if the potential carries no second-derivative
            information.
    """
    if p.hessian_quadform_fn is None:
        raise CapabilityError(
            f"potential '{p.name}' has no Hessian quadratic form; "
            "fall back to a central second difference of value() along v"
        )
    xa = _as_point(p, x)
    va = _as_point(p, v, name="v")
    return float(p.hessian_quadform_fn(xa, va))


def validate_gradient(p: Potential, x, h: float = 1e-5) -> float:
    """Compare the analytic gradient against central differences at x.

    Each coordinate of ∇Φ is checked against (Φ(x+h eᵢ) − Φ(x−h eᵢ)) / 2h.

    Args:
        p: Potential under test.
        x: Point where the comparison happens.
        h: Difference step. The default balances O(h²) truncation against
            rounding for landscapes with values of order one.

    Returns:
        The largest absolute per-coordinate discrepancy.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    xa = _as_point(p, x)
    g = gradient(p, xa)
    worst = 0.0
    for i in range(p.dim):
        step = np.zeros(p.dim)
        step[i] = h
        fd = (value(p, xa + step) - value(p, xa - step)) / (2.0 * h)
        worst = max(worst, abs(fd - g[i]))
    return worst


def estimate_gradient_lipschitz(
    p: Potential,
    center,
    radius: float,
    n_pairs: int = 200,
    seed: int = 0,
) -> float:
    """Estimate the Lipschitz constant of ∇Φ on a ball by random pairs.

    Draws ``n_pairs`` point pairs uniformly from the ball of the given
    radius around ``center`` and returns the largest observed ratio
    |∇Φ(a) − ∇Φ(b)| / |a − b|. A sampled lower estimate of the true local
    constant; pairs closer than 1e-9 are skipped to avoid 0/0.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    c = _as_point(p, center, name="center")
    rng = np.random.default_rng(seed)

    def draw() -> Vector:
        # Uniform in the ball: gaussian direction, radius ~ U^(1/dim).
        d = rng.normal(size=p.dim)
        d /= max(np.linalg.norm(d), 1e-300)
        r = radius * rng.uniform() ** (1.0 / p.dim)
        return c + r * d

    best = 0.0
    for _ in range(n_pairs):
        a, b = draw(), draw()
        sep = float(np.linalg.norm(a - b))
        if sep < 1e-9:
            continue
        ratio = float(np.linalg.norm(gradient(p, a) - gradient(p, b))) / sep
        best = max(best, ratio)
    return best


@dataclasses.dataclass(frozen=True)
class PotentialHypothesesReport:
    """Sampled evidence for the structural assumptions on a landscape.

    The checks are sampled surrogates, not proofs: ``gradient_consistent``
    certifies agreement with finite differences at the sample points only,
    and ``gradient_lipschitz_estimate`` is a lower estimate of the local
    Lipschitz constant of ∇Φ.
    """

    potential_name: str
    n_points: int
    box_halfwidth: float
    max_gradient_residual: float
    gradient_consistent: bool
    gradient_lipschitz_estimate: float
    min_sampled_value: float
    lower_bound: Optional[float]
    lower_bound_violations: int
    critical_point_max_grad_norm: Optional[float]
    unbounded_below: bool

    @property
    def satisfied(self) -> bool:
        """True when every sampled surrogate passed and a lower bound exists."""
        cp_ok = (
            self.critical_point_max_grad_norm is None
            or self.critical_point_max_grad_norm <= 1e-10
        )
        return (
            self.gradient_consistent
            and not self.unbounded_below
            and self.lower_bound_violations == 0
            and cp_ok
        )


def verify_potential_hypotheses(
    p: Potential,
    box_halfwidth: float = 2.0,
    n_points: int = 100,
    h: float = 1e-5,
    grad_tol: float = 1e-4,
    seed: int = 0,
) -> PotentialHypothesesReport:
    """Check the landscape assumptions on a sampled box.

    Samples ``n_points`` uniform points in [−box_halfwidth, box_halfwidth]ⁿ
    and gathers: the worst finite-difference gradient residual, the number
    of sampled values below the declared lower bound, the gradient norm at
    every known critical point, and a random-pair Lipschitz estimate for
    the gradient.
    """
    if box_halfwidth <= 0:
        raise ValueError(f"box_halfwidth must be positive, got {box_halfwidth}")
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-box_halfwidth, box_halfwidth, size=(n_points, p.dim))

    worst_resid = 0.0
    min_val = math.inf
    violations = 0
    for row in pts:
        worst_resid = max(worst_resid, validate_gradient(p, row, h=h))
        val = value(p, row)
        min_val = min(min_val, val)
        if p.lower_bound is not None and val < p.lower_bound - 1e-12 * (1.0 + abs(p.lower_bound)):
            violations += 1

    cp_norm: Optional[float] = None
    if p.known_critical_points:
        cp_norm = max(
            float(np.linalg.norm(gradient(p, cp))) for cp in p.known_critical_points
        )

    lip = estimate_gradient_lipschitz(
        p, np.zeros(p.dim), radius=box_halfwidth * math.sqrt(p.dim), seed=seed + 1
    )

    return PotentialHypothesesReport(
        potential_name=p.name,
        n_points=n_points,
        box_halfwidth=box_halfwidth,
        max_gradient_residual=worst_resid,
        gradient_consistent=worst_resid <= grad_tol,
        gradient_lipschitz_estimate=lip,
        min_sampled_value=min_val,
        lower_bound=p.lower_bound,
        lower_bound_violations=violations,
        critical_point_max_grad_norm=cp_norm,
        unbounded_below=p.unbounded_below,
    )


# --- builtin catalogue -----------------------------------------------------
#
# The float forms mirror the numpy expressions term by term. +, * and math.sin
# give the doubles numpy gives elementwise, and x ** k on a float equals
# x[0] ** k on an np.float64 scalar; ** 3 on a whole array does not (it differs
# on about 2.7% of inputs), so the numpy forms keep their scalar powers. The
# column forms follow the same rule: dots go through row_dots, and scalar
# powers run on each row's floats (_by_rows).


def _up_to_dim2(dim: int, *forms: Callable) -> Optional[Callable]:
    """The form for ``dim``: ``forms[dim - 1]``, or the one form given, at dim
    1 and 2; None beyond, where the float kernel does not run and a sum along
    rows may add in another order than per row."""
    return forms[min(dim, len(forms)) - 1] if dim <= 2 else None


def _whole_dim(name: str, dim) -> int:
    """``dim`` as an int >= 1: ``2.0`` passes, a bool or ``1.9`` is refused, not truncated."""
    if isinstance(dim, bool) or not isinstance(dim, numbers.Real) or not 1 <= dim < math.inf or dim % 1:
        raise ValueError(f"{name}: dim must be a whole number >= 1, got {dim!r}")
    return int(dim)


def _or_numpy(p: Potential) -> Potential:
    """``p`` with a float form that gives ``gradient_fn``'s doubles where its
    own raises: x ** k overflowing and math.sin(inf) raise on floats where
    numpy gives inf or nan, and numpy's value is the reference."""
    form, numpy_form = p.float_gradient_fn, p.gradient_fn

    def checked(*x):
        try:
            return form(*x)
        except (OverflowError, ValueError):
            g = numpy_form(np.array(x)).tolist()
            return g[0] if len(x) == 1 else tuple(g)

    return p if form is None else dataclasses.replace(p, float_gradient_fn=checked)


def _by_rows(form: Callable) -> Callable:
    """The column form of ``form``(x0, ...), which ``value_fn`` calls on a
    row's np.float64 scalars: it runs on each row's Python floats, and on
    the numpy scalars, which overflow to inf, where floats raise."""

    def column(x: np.ndarray) -> np.ndarray:
        try:
            return np.fromiter(itertools.starmap(form, float_rows(x)), float, len(x))
        except OverflowError:
            return np.fromiter(map(form, *x.T), float, len(x))

    return column


def quadratic(dim: int = 1, scale: float = 1.0) -> Potential:
    """Isotropic bowl Φ(x) = scale · ½|x|²."""
    dim = _whole_dim("quadratic", dim)
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"quadratic: scale must be positive and finite, got {scale}")
    return Potential(
        name=f"quadratic(dim={dim}, scale={scale:g})",
        dim=dim,
        value_fn=lambda x: 0.5 * scale * float(x @ x),
        gradient_fn=lambda x: scale * x,
        hessian_quadform_fn=lambda x, v: scale * float(v @ v),
        lower_bound=0.0,
        known_critical_points=(np.zeros(dim),),
        float_gradient_fn=_up_to_dim2(dim, lambda x: scale * x,
                                      lambda x0, x1: (scale * x0, scale * x1)),
        column_value_fn=_up_to_dim2(dim, lambda x: 0.5 * scale * row_dots(x, x)),
    )


def anisotropic_quadratic(diag=(1.0, 4.0)) -> Potential:
    """Axis-aligned bowl Φ(x) = ½ Σ dᵢ xᵢ² with curvatures dᵢ > 0."""
    d = np.atleast_1d(np.asarray(diag, dtype=float))
    if d.ndim != 1 or d.size < 1:
        raise ValueError("anisotropic_quadratic: diag must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(d)) or np.any(d <= 0):
        raise ValueError(f"anisotropic_quadratic: all diag entries must be positive and finite, got {d.tolist()}")
    dim = d.size
    d0, d1 = d.tolist()[0], d.tolist()[-1]
    return Potential(
        name=f"anisotropic_quadratic(diag={d.tolist()})",
        dim=dim,
        value_fn=lambda x: 0.5 * float(d @ (x * x)),
        gradient_fn=lambda x: d * x,
        hessian_quadform_fn=lambda x, v: float(d @ (v * v)),
        lower_bound=0.0,
        known_critical_points=(np.zeros(dim),),
        float_gradient_fn=_up_to_dim2(dim, lambda x: d0 * x, lambda x0, x1: (d0 * x0, d1 * x1)),
        column_value_fn=_up_to_dim2(dim, lambda x: 0.5 * row_dots(d, x * x)),
    )


def rosenbrock(a: float = 1.0, b: float = 100.0) -> Potential:
    """Curved valley Φ(x, y) = (a − x)² + b (y − x²)², minimum at (a, a²)."""
    if not (math.isfinite(a) and math.isfinite(b) and b > 0):
        raise ValueError(f"rosenbrock: need finite a and b > 0, got a={a}, b={b}")

    # phi and dphi run on np.float64 scalars in the numpy forms and on Python
    # floats in the float and column forms.
    def phi(x0, x1):
        return (a - x0) ** 2 + b * (x1 - x0 ** 2) ** 2

    def dphi(x0, x1):
        gap = x1 - x0 ** 2
        return -2.0 * (a - x0) - 4.0 * b * x0 * gap, 2.0 * b * gap

    def quad(x: Vector, v: Vector) -> float:
        # Hessian entries: Φ_xx = 2 + 12 b x² − 4 b y, Φ_xy = −4 b x, Φ_yy = 2 b.
        pxx = 2.0 + 12.0 * b * x[0] ** 2 - 4.0 * b * x[1]
        pxy = -4.0 * b * x[0]
        pyy = 2.0 * b
        return pxx * v[0] ** 2 + 2.0 * pxy * v[0] * v[1] + pyy * v[1] ** 2

    return _or_numpy(Potential(
        name=f"rosenbrock(a={a:g}, b={b:g})",
        dim=2,
        value_fn=lambda x: phi(x[0], x[1]),
        gradient_fn=lambda x: np.array(dphi(x[0], x[1])),
        hessian_quadform_fn=quad,
        lower_bound=0.0,
        known_critical_points=(np.array([a, a * a]),),
        float_gradient_fn=dphi,
        column_value_fn=_by_rows(phi),
    ))


def double_well() -> Potential:
    """Two-basin landscape Φ(x) = x⁴/4 − x²/2: minima at ±1, saddle at 0."""

    def phi(x0):  # on an np.float64 scalar in value_fn, on a float in the column form
        return 0.25 * x0 ** 4 - 0.5 * x0 ** 2

    return _or_numpy(Potential(
        name="double_well",
        dim=1,
        value_fn=lambda x: phi(x[0]),
        gradient_fn=lambda x: np.array([x[0] ** 3 - x[0]]),
        hessian_quadform_fn=lambda x, v: (3.0 * x[0] ** 2 - 1.0) * v[0] ** 2,
        lower_bound=-0.25,
        known_critical_points=(np.array([-1.0]), np.array([0.0]), np.array([1.0])),
        float_gradient_fn=lambda x: x ** 3 - x,
        column_value_fn=_by_rows(phi),
    ))


def eggcrate(dim: int = 2, amplitude: float = 1.0) -> Potential:
    """Rippled bowl Φ(x) = ½|x|² + A Σ sin² xᵢ with A ≥ 0."""
    dim = _whole_dim("eggcrate", dim)
    if not (amplitude >= 0 and math.isfinite(amplitude)):
        raise ValueError(f"eggcrate: amplitude must be >= 0 and finite, got {amplitude}")
    amp = float(amplitude)
    return _or_numpy(Potential(
        name=f"eggcrate(dim={dim}, amplitude={amp:g})",
        dim=dim,
        value_fn=lambda x: 0.5 * float(x @ x) + amp * float(np.sum(np.sin(x) ** 2)),
        gradient_fn=lambda x: x + amp * np.sin(2.0 * x),
        hessian_quadform_fn=lambda x, v: float(np.sum((1.0 + 2.0 * amp * np.cos(2.0 * x)) * v * v)),
        lower_bound=0.0,
        known_critical_points=(np.zeros(dim),),
        float_gradient_fn=_up_to_dim2(
            dim,
            lambda x: x + amp * math.sin(2.0 * x),
            lambda x0, x1: (x0 + amp * math.sin(2.0 * x0), x1 + amp * math.sin(2.0 * x1)),
        ),
        column_value_fn=_up_to_dim2(
            dim, lambda x: 0.5 * row_dots(x, x) + amp * np.sum(np.sin(x) ** 2, axis=1)
        ),
    ))


def flat(dim: int = 1) -> Potential:
    """The trivial landscape Φ ≡ 0 (free motion under friction alone)."""
    dim = _whole_dim("flat", dim)
    return Potential(
        name=f"flat(dim={dim})",
        dim=dim,
        value_fn=lambda x: 0.0,
        gradient_fn=lambda x: np.zeros(dim),
        hessian_quadform_fn=lambda x, v: 0.0,
        lower_bound=0.0,
        known_critical_points=(np.zeros(dim),),
        float_gradient_fn=_up_to_dim2(dim, lambda x: 0.0, lambda x0, x1: (0.0, 0.0)),
        column_value_fn=_up_to_dim2(dim, lambda x: np.zeros(len(x))),
    )


def tilted_plane(slope=(1.0,)) -> Potential:
    """Linear landscape Φ(x) = s·x, unbounded below.

    Simulation is allowed, certification is not: there is no lower bound,
    so the energy-based guarantees have nothing to anchor to.
    """
    s = np.atleast_1d(np.asarray(slope, dtype=float))
    if s.ndim != 1 or s.size < 1:
        raise ValueError("tilted_plane: slope must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(s)):
        raise ValueError(f"tilted_plane: slope entries must be finite, got {s.tolist()}")
    if np.linalg.norm(s) == 0.0:
        raise ValueError("tilted_plane: slope must be nonzero (use 'flat' for a level landscape)")
    dim = s.size
    s0, s1 = s.tolist()[0], s.tolist()[-1]
    return Potential(
        name=f"tilted_plane(slope={s.tolist()})",
        dim=dim,
        value_fn=lambda x: float(s @ x),
        gradient_fn=lambda x: s.copy(),
        hessian_quadform_fn=lambda x, v: 0.0,
        lower_bound=None,
        known_critical_points=(),
        unbounded_below=True,
        float_gradient_fn=_up_to_dim2(dim, lambda x: s0, lambda x0, x1: (s0, s1)),
        column_value_fn=_up_to_dim2(dim, lambda x: row_dots(s, x)),
    )


_BUILTINS: dict[str, tuple[Callable[..., Potential], str]] = {
    "quadratic": (quadratic, "isotropic bowl scale*0.5*|x|^2 (params: dim, scale)"),
    "anisotropic_quadratic": (
        anisotropic_quadratic,
        "axis-aligned bowl 0.5*sum(d_i x_i^2) (params: diag)",
    ),
    "rosenbrock": (rosenbrock, "curved valley (a-x)^2 + b(y-x^2)^2 (params: a, b)"),
    "double_well": (double_well, "x^4/4 - x^2/2, minima at +-1 (no params)"),
    "eggcrate": (eggcrate, "0.5*|x|^2 + A*sum(sin^2 x_i) (params: dim, amplitude)"),
    "flat": (flat, "zero landscape (params: dim)"),
    "tilted_plane": (
        tilted_plane,
        "linear s.x, unbounded below, simulation only (params: slope)",
    ),
}


def builtin_potentials() -> list[tuple[str, str]]:
    """List (name, description) for every builtin landscape, sorted by name."""
    return sorted((name, desc) for name, (_, desc) in _BUILTINS.items())


def make_potential(name: str, **params) -> Potential:
    """Construct a builtin landscape by name.

    Raises:
        ValueError: for an unknown name (the message lists the catalogue) or
            for parameters the factory rejects.
    """
    if name not in _BUILTINS:
        known = ", ".join(sorted(_BUILTINS))
        raise ValueError(f"unknown potential '{name}'; builtin potentials: {known}")
    factory, _ = _BUILTINS[name]
    try:
        return factory(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for potential '{name}': {exc}") from None
