"""Physics checks on benchmark outputs.

Every check compares against a property of the equation or an independent
computation, never against a stored copy of earlier output:

- unitarity: both split flows are unitary, so every cell and every
  reference conserves the discrete mass to round-off;
- convergence order: fitted orders of the sixth-order schemes lie in the
  acceptance windows;
- super-resolution: the max-over-epsilon rates of a sweep lie in the
  resonant / nonresonant windows;
- the dense propagator: a 1D reference agrees with exp(t (T + W)) built
  here as a 2M x 2M matrix from the operator's definition, using numpy
  only (nothing from diracsplit.spectral).

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

MASS_DRIFT_MAX = 1e-12
ORDER_WINDOW = (5.5, 6.5)
RATE_WINDOWS = {"resonant": (0.35, 0.75), "nonresonant": (1.0, 2.2)}
# The reference at tau_e differs from the exact semi-discrete flow by about
# 1/63 of its self-distance (sixth order, tau_e vs 2 tau_e); allowing the
# whole self-distance leaves room for round-off in the dense eigensolver.
ORACLE_FLOOR = 1e-10


def check_mass(label: str, drifts: Sequence[float]) -> list[str]:
    """Every relative mass drift must be at most MASS_DRIFT_MAX."""
    return [
        f"{label}: cell {i} relative mass drift {d:.3e} > {MASS_DRIFT_MAX:g}"
        for i, d in enumerate(drifts)
        if not (math.isfinite(d) and d <= MASS_DRIFT_MAX)
    ]


def check_order(label: str, order: float | None) -> list[str]:
    lo, hi = ORDER_WINDOW
    if order is None or not (lo <= order <= hi):
        return [f"{label}: fitted order {order} outside [{lo}, {hi}]"]
    return []


def check_rates(label: str, mode: str, rates: Sequence[float | None]) -> list[str]:
    lo, hi = RATE_WINDOWS[mode]
    got = [r for r in rates if r is not None]
    if not got:
        return [f"{label}: no max-over-epsilon rates"]
    return [
        f"{label}: max-over-epsilon rate {r:.3f} outside [{lo}, {hi}]"
        for r in got
        if not (lo <= r <= hi)
    ]


def rational_potential(x: np.ndarray) -> np.ndarray:
    """V(x) = (1 - x)/(1 + x^2), the 1D benchmark potential, written out here."""
    return (1.0 - x) / (1.0 + x * x)


def relative_mass_drift(values: np.ndarray, initial: np.ndarray) -> float:
    m0 = float(np.sum(np.abs(initial) ** 2))
    return abs(float(np.sum(np.abs(values) ** 2)) - m0) / m0


# ---------------------------------------------------------------------------
# dense semi-discrete propagator


def dense_generator_1d(
    a: float,
    b: float,
    M: int,
    delta: float,
    nu: float,
    epsilon: float,
    potential: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """T + W on the 2M unknowns (component-major), from the definitions

        T = -(1/eps) sigma_1 d/dx - i nu/(delta eps^2) sigma_3
        W = -(i/delta) V(x) I_2

    with d/dx the Fourier spectral derivative on x_j = a + j (b - a)/M.
    """
    j = np.arange(M)
    ell = np.where(j < M // 2, j, j - M)  # mode numbers -M/2..M/2-1
    mu = 2.0 * math.pi * ell / (b - a)
    dft = np.exp(-2.0j * math.pi * np.outer(j, j) / M) / M  # (l, j)
    idft = np.exp(2.0j * math.pi * np.outer(j, j) / M)  # (j, l)
    deriv = idft @ (1.0j * mu[:, None] * dft)
    x = a + (b - a) / M * j
    eye = np.eye(M)
    sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma3 = np.array([[1.0, 0.0], [0.0, -1.0]])
    T = -(1.0 / epsilon) * np.kron(sigma1, deriv) - 1.0j * nu / (delta * epsilon**2) * np.kron(
        sigma3, eye
    )
    W = -(1.0j / delta) * np.kron(np.eye(2), np.diag(potential(x)))
    return T + W


def dense_propagate(generator: np.ndarray, t: float, values: np.ndarray) -> np.ndarray:
    """exp(t A) applied to values for an anti-Hermitian A = -i H."""
    H = 1.0j * generator
    H = 0.5 * (H + H.conj().T)  # Hermitian up to round-off by construction
    lam, Q = np.linalg.eigh(H)
    flat = values.reshape(-1)
    out = Q @ (np.exp(-1.0j * t * lam) * (Q.conj().T @ flat))
    return out.reshape(values.shape)


def l2_distance(u: np.ndarray, v: np.ndarray, h: float) -> float:
    d = u - v
    return math.sqrt(h * float(np.sum(d.real**2 + d.imag**2)))


def check_oracle(
    label: str,
    reference: np.ndarray,
    initial: np.ndarray,
    generator: np.ndarray,
    t: float,
    h: float,
    self_distance: float,
) -> tuple[list[str], float]:
    """The reference must lie within its own self-distance of exp(tA) u0."""
    exact = dense_propagate(generator, t, initial)
    dist = l2_distance(reference, exact, h)
    tol = max(self_distance, ORACLE_FLOOR)
    if not dist <= tol:
        return [f"{label}: |reference - exp(t(T+W)) u0| = {dist:.3e} > {tol:.3e}"], dist
    return [], dist
