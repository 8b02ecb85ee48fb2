"""Physical setup for the two-component Dirac equation on a periodic box.

This module holds the pieces that define a concrete problem instance:
dimensionless physical parameters, the uniform periodic grid, electric
potentials V(t, x), Gaussian initial data, and the spinor field container
together with its basic observables (mass, probability density, current
density).

Everything here is plain data; time propagation lives in
:mod:`diracsplit.spectral` and :mod:`diracsplit.schemes`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PhysParams",
    "Grid",
    "make_grid",
    "SpinorField",
    "SpinorBatch",
    "Potential",
    "zero_potential",
    "constant_potential",
    "rational_potential_1d",
    "honeycomb_potential",
    "custom_sampled_potential",
    "gaussian_ic",
    "mass",
    "density",
    "current",
]

@dataclass(frozen=True)
class PhysParams:
    """Dimensionless parameters delta, nu, epsilon, each in (0, 1].

    delta scales time, nu the mass term, epsilon the speed of light;
    epsilon -> 0 is the nonrelativistic regime.
    """

    delta: float = 1.0
    nu: float = 1.0
    epsilon: float = 1.0

    def __post_init__(self) -> None:
        for name in ("delta", "nu", "epsilon"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
            if not 0.0 < float(value) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")
            object.__setattr__(self, name, float(value))


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on (a, b)^dim with M nodes per axis.

    Nodes are x_j = a + j*h for j = 0..M-1 with h = (b - a)/M; the node at
    x = b is identified with x = a and never stored.  2D fields are stored
    row-major over (x-index, y-index): values[..., j, l] lives at
    (a + j*h, a + l*h).
    """

    dim: int
    a: float
    b: float
    M: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"need finite a < b, got a={self.a}, b={self.b}")
        if not (isinstance(self.M, int) and self.M >= 2 and self.M % 2 == 0):
            raise ValueError(f"M must be an even integer >= 2, got {self.M}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.M

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.M,) * self.dim

    def axis_nodes(self) -> np.ndarray:
        """Node coordinates along one axis, shape (M,)."""
        return self.a + self.h * np.arange(self.M)

    def nodes(self) -> tuple[np.ndarray, ...]:
        """Node coordinate arrays, one per axis, broadcastable to `shape`."""
        x = self.axis_nodes()
        if self.dim == 1:
            return (x,)
        return (x[:, None], x[None, :])

    def nearest_index(self, x: Sequence[float] | float) -> tuple[int, ...]:
        """Index of the grid node nearest to x, wrapped periodically."""
        coords = (x,) if self.dim == 1 and np.isscalar(x) else tuple(np.atleast_1d(x))
        if len(coords) != self.dim:
            raise ValueError(f"point has {len(coords)} coordinates, grid is {self.dim}D")
        return tuple(int(round((float(c) - self.a) / self.h)) % self.M for c in coords)


def make_grid(dim: int, a: float, b: float, M: int) -> Grid:
    """Build a periodic grid; rejects odd or non-positive M and a >= b."""
    return Grid(dim=int(dim), a=float(a), b=float(b), M=int(M))


class SpinorField:
    """Two-component complex field on a grid: values[k] is component k+1.

    values has shape (2, M) in 1D and (2, M, M) in 2D (row-major over the
    (x, y) node indices).  The array is owned by the field; propagation
    routines update it in place.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.ascontiguousarray(values, dtype=np.complex128)
        if values.shape != (2, *grid.shape):
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {(2, *grid.shape)}"
            )
        self.grid = grid
        self.values = values

    def copy(self) -> "SpinorField":
        return SpinorField(self.grid, self.values.copy())

    def check_finite(self) -> "SpinorField":
        if not np.all(np.isfinite(self.values.view(np.float64))):
            raise FloatingPointError("spinor field contains non-finite entries")
        return self


class SpinorBatch:
    """Copies of k spinor fields on one grid, propagated as one.

    values has shape (2, k, *grid.shape): values[0] and values[1] are still
    the two components, now of every member, so the T and W flows apply to
    a batch exactly as to one field.  A batch of one drops the batch axis
    and is laid out like a plain field.
    """

    __slots__ = ("grid", "values")

    def __init__(self, fields: Sequence[SpinorField]):
        if not fields:
            raise ValueError("a batch needs at least one field")
        grid = fields[0].grid
        for f in fields[1:]:
            if f.grid != grid:
                raise ValueError(f"batch member on grid {f.grid} does not match {grid}")
        self.grid = grid
        if len(fields) == 1:
            self.values = fields[0].values.copy()
        else:
            self.values = np.stack([f.values for f in fields], axis=1)

    def members(self) -> list[SpinorField]:
        """The k fields, in the order they were given."""
        if self.values.ndim == 1 + self.grid.dim:
            return [SpinorField(self.grid, self.values)]
        return [SpinorField(self.grid, self.values[:, i]) for i in range(self.values.shape[1])]


class Potential:
    """Electric potential V(t, x), real-valued, evaluated at grid nodes.

    A potential is a pure function of (t, x); `sample_grid` evaluates it on
    every node of a grid at once.  `time_independent` lets the propagator
    cache per-node phase factors; `cache_token` is a stable description used
    in reference-cache keys.
    """

    __slots__ = ("kind", "time_independent", "cache_token", "_point", "_on_grid")

    def __init__(
        self,
        kind: str,
        point: Callable[[float, tuple[float, ...]], float],
        on_grid: Callable[[float, Grid], np.ndarray],
        *,
        time_independent: bool,
        cache_token: str,
    ):
        self.kind = kind
        self.time_independent = bool(time_independent)
        self.cache_token = cache_token
        self._point = point
        self._on_grid = on_grid

    def sample(self, t: float, x: Sequence[float] | float) -> float:
        """V at a single point; x is a scalar (1D) or coordinate pair (2D)."""
        coords = (float(x),) if np.isscalar(x) else tuple(float(c) for c in x)
        return float(self._point(float(t), coords))

    def sample_grid(self, t: float, grid: Grid) -> np.ndarray:
        """V at every grid node, shape grid.shape, dtype float64.

        The result may be the potential's own read-only table, so callers
        must not write into it.
        """
        out = np.asarray(self._on_grid(float(t), grid), dtype=np.float64)
        if out.shape != grid.shape:
            raise ValueError(f"potential returned shape {out.shape}, expected {grid.shape}")
        return out


def zero_potential() -> Potential:
    """V identically zero (free Dirac equation)."""
    return Potential(
        "zero",
        lambda t, x: 0.0,
        lambda t, grid: np.zeros(grid.shape),
        time_independent=True,
        cache_token="zero",
    )


def constant_potential(value: float) -> Potential:
    """V identically equal to `value`; useful because it commutes with T."""
    v = float(value)
    return Potential(
        "constant",
        lambda t, x: v,
        lambda t, grid: np.full(grid.shape, v),
        time_independent=True,
        cache_token=f"constant:{v!r}",
    )


def rational_potential_1d() -> Potential:
    """The 1D potential V(x) = (1 - x) / (1 + x^2), time independent."""

    def point(t: float, x: tuple[float, ...]) -> float:
        return (1.0 - x[0]) / (1.0 + x[0] * x[0])

    def on_grid(t: float, grid: Grid) -> np.ndarray:
        if grid.dim != 1:
            raise ValueError("rational_potential_1d requires a 1D grid")
        (x,) = grid.nodes()
        return (1.0 - x) / (1.0 + x * x)

    return Potential(
        "analytic-1d",
        point,
        on_grid,
        time_independent=True,
        cache_token="analytic-1d:rational",
    )


_THETA_FUNCS: dict[str, Callable[[float], float]] = {
    "constant": lambda t: math.pi,
    "linear": lambda t: math.pi + math.pi * t,
    "cosine": lambda t: math.pi + math.pi * math.cos(math.pi * t),
}


def honeycomb_potential(theta_mode: str = "constant") -> Potential:
    """2D honeycomb lattice potential with a (possibly rotating) orientation.

    V(t, x) = sum_{k=1..3} cos(kappa * e_k(t) . x) with kappa = 4*pi/sqrt(3)
    and unit vectors e_k(t) at angles theta(t) + 2*(k-1)*pi/3.  theta_mode
    selects theta(t): "constant" (pi), "linear" (pi + pi*t) or "cosine"
    (pi + pi*cos(pi*t)).  Only the constant mode is time independent.
    """
    if theta_mode not in _THETA_FUNCS:
        raise ValueError(
            f"unknown theta_mode {theta_mode!r}; expected one of {sorted(_THETA_FUNCS)}"
        )
    theta = _THETA_FUNCS[theta_mode]
    kappa = 4.0 * math.pi / math.sqrt(3.0)

    def point(t: float, x: tuple[float, ...]) -> float:
        th = theta(t)
        total = 0.0
        for k in range(3):
            ang = th + 2.0 * k * math.pi / 3.0
            total += math.cos(kappa * (math.cos(ang) * x[0] + math.sin(ang) * x[1]))
        return total

    def on_grid(t: float, grid: Grid) -> np.ndarray:
        # cos(p x + q y) = cos(p x) cos(q y) - sin(p x) sin(q y), so V is the
        # rank-6 product of two (M, 6) tables of 1D cos/sin: 12*M trig
        # evaluations instead of 3*M^2.
        if grid.dim != 2:
            raise ValueError("honeycomb_potential requires a 2D grid")
        ang = theta(t) + 2.0 * np.arange(3) * math.pi / 3.0
        x = grid.axis_nodes()
        px = np.multiply.outer(x, kappa * np.cos(ang))
        qy = np.multiply.outer(x, kappa * np.sin(ang))
        cx = np.concatenate((np.cos(px), -np.sin(px)), axis=1)
        cy = np.concatenate((np.cos(qy), np.sin(qy)), axis=1)
        return cx @ cy.T

    return Potential(
        "honeycomb-2d",
        point,
        on_grid,
        time_independent=(theta_mode == "constant"),
        cache_token=f"honeycomb-2d:{theta_mode}",
    )


def custom_sampled_potential(grid: Grid, values: np.ndarray) -> Potential:
    """Time-independent potential tabulated at the nodes of `grid`.

    Point evaluation uses nearest-node lookup (no interpolation); grid
    evaluation requires the same grid shape the table was built on.
    """
    table = np.array(values, dtype=np.float64)  # a copy the caller cannot reach
    if table.shape != grid.shape:
        raise ValueError(f"values shape {table.shape} does not match grid shape {grid.shape}")
    if not np.all(np.isfinite(table)):
        raise ValueError("sampled potential contains non-finite entries")
    table.flags.writeable = False
    digest = hashlib.sha256(table.tobytes()).hexdigest()[:16]

    def point(t: float, x: tuple[float, ...]) -> float:
        return float(table[grid.nearest_index(x)])

    def on_grid(t: float, g: Grid) -> np.ndarray:
        if g.shape != grid.shape or g.a != grid.a or g.b != grid.b:
            raise ValueError("custom-sampled potential queried on a different grid")
        return table

    return Potential(
        "custom-sampled",
        point,
        on_grid,
        time_independent=True,
        cache_token=f"custom-sampled:{digest}",
    )


def gaussian_ic(grid: Grid, centers: Sequence) -> SpinorField:
    """Gaussian initial data: component k is exp(-|x - c_k|^2 / 2).

    `centers` gives one center per spinor component: a scalar or a
    1-tuple in 1D, a coordinate pair in 2D.
    """
    if len(centers) != 2:
        raise ValueError("centers must give one center per spinor component")
    values = np.empty((2, *grid.shape), dtype=np.complex128)
    coords = grid.nodes()
    for k, ck in enumerate(centers):
        c = (float(ck),) if np.isscalar(ck) else tuple(float(v) for v in ck)
        if len(c) != grid.dim:
            raise ValueError(f"center {ck!r} has wrong dimension for a {grid.dim}D grid")
        r2 = sum((xi - ci) ** 2 for xi, ci in zip(coords, c))
        values[k] = np.exp(-r2 / 2.0)
    return SpinorField(grid, values)


def mass(field: SpinorField) -> float:
    """Discrete mass h^dim * sum_j |Phi_j|^2 over both components."""
    v = field.values
    return field.grid.h ** field.grid.dim * float(np.sum(v.real**2 + v.imag**2))


def density(field: SpinorField) -> np.ndarray:
    """Probability density |phi_1|^2 + |phi_2|^2 at every node."""
    v = field.values
    return (v.real**2 + v.imag**2).sum(axis=0)


def current(field: SpinorField) -> np.ndarray:
    """Current density J_k = Phi* sigma_k Phi, shape (dim, *grid.shape).

    J_1 = 2 Re(conj(phi_1) phi_2); in 2D also J_2 = 2 Im(conj(phi_1) phi_2).
    """
    cross = np.conj(field.values[0]) * field.values[1]
    if field.grid.dim == 1:
        return 2.0 * cross.real[None, :]
    return np.stack((2.0 * cross.real, 2.0 * cross.imag))
