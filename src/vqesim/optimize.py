"""Derivative-free minimizers for noisy objectives.

The workhorse is a Nelder-Mead simplex search with a restarting
strategy: whenever the simplex energy spread collapses below tolerance
or the best value stagnates, the simplex is rebuilt around the
incumbent best point at the initial scale. Restarting both polishes
noiseless runs and un-sticks the simplex when shot noise has degraded
its geometry. A fixed-step finite-difference gradient descent is kept
as the comparison baseline; under shot noise its difference quotients
are dominated by noise, which is the point of the comparison.

Both methods have fixed coefficients, module constants rather than
settings: the simplex moves use Nelder and Mead's standard coefficients
(1, 2, 1/2, 1/2), and the gradient is a central difference of fixed
step FD_STEP.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .pauli import _is_int, _is_real

REASON_TOLERANCE = "tolerance"
REASON_BUDGET = "evaluation_budget"
REASON_RESTART_LIMIT = "restart_limit"

# Nelder and Mead's standard simplex coefficients (Computer Journal 7, 1965).
REFLECTION, EXPANSION, CONTRACTION, SHRINK = 1.0, 2.0, 0.5, 0.5
# The central-difference step of gradient descent.
FD_STEP = 1e-3

Objective = Callable[[np.ndarray], float]


class ObjectiveValueError(ValueError):
    """Objective returned a non-finite value; carries the offending point."""


def _check_types(config) -> None:
    """Each `int` field holds an integer and each `float` field a finite number, as typed."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type == "int" and not _is_int(value):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if f.type == "float" and not _is_real(value):
            raise ValueError(f"{f.name} must be a finite number, got {value!r}")


@dataclass
class NelderMeadConfig:
    initial_scale: float = 0.3
    tolerance: float = 1e-10
    stagnation_window: int = 300
    restart_limit: int = 5
    max_evaluations: int = 6000

    def __post_init__(self) -> None:
        _check_types(self)
        if self.initial_scale <= 0:
            raise ValueError("initial simplex scale must be > 0")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        if self.stagnation_window < 1:
            raise ValueError("stagnation window must be >= 1")
        if self.restart_limit < 0:
            raise ValueError("restart limit must be >= 0")
        # A run with no evaluation has no energy to report.
        if self.max_evaluations < 1:
            raise ValueError("evaluation budget must be >= 1")


@dataclass
class GradientDescentConfig:
    step_size: float = 0.1
    max_evaluations: int = 2000

    def __post_init__(self) -> None:
        _check_types(self)
        if self.step_size <= 0:
            raise ValueError("step size must be > 0")
        if self.max_evaluations < 1:
            raise ValueError("evaluation budget must be >= 1")


@dataclass
class OptimizerResult:
    x_best: np.ndarray
    f_best: float
    evaluations: int
    restarts: int
    converged: bool
    reason: str


class _BudgetExhausted(Exception):
    pass


class _CountingObjective:
    """Wraps the objective: budget enforcement, best-ever and stagnation tracking."""

    def __init__(self, objective: Objective, max_evaluations: int):
        self._objective = objective
        self.max_evaluations = max_evaluations
        self.evaluations = 0
        self.x_best: np.ndarray | None = None
        self.f_best = math.inf
        self.last_improvement = 0

    def __call__(self, x: np.ndarray) -> float:
        if self.evaluations >= self.max_evaluations:
            raise _BudgetExhausted
        value = float(self._objective(x))
        self.evaluations += 1
        if not math.isfinite(value):
            raise ObjectiveValueError(
                f"objective returned non-finite value {value!r} at x={np.asarray(x).tolist()}"
            )
        if value < self.f_best:
            self.f_best = value
            self.x_best = np.array(x, dtype=float)
            self.last_improvement = self.evaluations
        return value


def _finalize(f: _CountingObjective, restarts: int, converged: bool, reason: str) -> OptimizerResult:
    return OptimizerResult(f.x_best.copy(), f.f_best, f.evaluations, restarts, converged, reason)


def nelder_mead(
    objective: Objective,
    x0: Sequence[float],
    config: NelderMeadConfig | None = None,
    on_restart: Callable[[], None] | None = None,
) -> OptimizerResult:
    """Minimize with the four Nelder-Mead simplex moves, plus restarts.

    The initial simplex is x0, which needs at least one coordinate,
    plus per-coordinate offsets of `initial_scale`. A restart rebuilds
    the simplex around the best point seen so far (the incumbent is kept
    as a vertex and re-evaluated), up to `restart_limit` times; the best
    point ever evaluated is returned regardless of where the final
    simplex sits.
    """
    cfg = config or NelderMeadConfig()
    x0 = np.asarray(x0, dtype=float)
    dims = x0.size
    if dims == 0:
        raise ValueError("Nelder-Mead needs at least one parameter; x0 is empty")
    f = _CountingObjective(objective, cfg.max_evaluations)
    restarts = 0

    def build_simplex(center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        points = [center.copy()]
        for k in range(dims):
            vertex = center.copy()
            vertex[k] += cfg.initial_scale
            points.append(vertex)
        xs = np.array(points)
        vals = np.array([f(p) for p in xs])
        return xs, vals

    try:
        xs, vals = build_simplex(x0)
        while True:
            order = np.argsort(vals, kind="stable")
            xs, vals = xs[order], vals[order]

            trigger = None
            if vals[-1] - vals[0] < cfg.tolerance:
                trigger = "tolerance"
            elif f.evaluations - f.last_improvement > cfg.stagnation_window:
                trigger = "stagnation"
            if trigger is not None:
                if restarts >= cfg.restart_limit:
                    converged = trigger == "tolerance"
                    reason = REASON_TOLERANCE if converged else REASON_RESTART_LIMIT
                    return _finalize(f, restarts, converged, reason)
                restarts += 1
                if on_restart is not None:
                    on_restart()
                xs, vals = build_simplex(f.x_best)
                f.last_improvement = f.evaluations
                continue

            centroid = xs[:-1].mean(axis=0)
            worst = xs[-1]
            reflected = centroid + REFLECTION * (centroid - worst)
            f_reflected = f(reflected)
            if f_reflected < vals[0]:
                expanded = centroid + EXPANSION * (reflected - centroid)
                f_expanded = f(expanded)
                if f_expanded < f_reflected:
                    xs[-1], vals[-1] = expanded, f_expanded
                else:
                    xs[-1], vals[-1] = reflected, f_reflected
            elif f_reflected < vals[-2]:
                xs[-1], vals[-1] = reflected, f_reflected
            else:
                if f_reflected < vals[-1]:
                    contracted = centroid + CONTRACTION * (reflected - centroid)
                    f_contracted = f(contracted)
                    accept = f_contracted <= f_reflected
                else:
                    contracted = centroid - CONTRACTION * (centroid - worst)
                    f_contracted = f(contracted)
                    accept = f_contracted < vals[-1]
                if accept:
                    xs[-1], vals[-1] = contracted, f_contracted
                else:
                    for k in range(1, dims + 1):
                        xs[k] = xs[0] + SHRINK * (xs[k] - xs[0])
                        vals[k] = f(xs[k])
    except _BudgetExhausted:
        return _finalize(f, restarts, False, REASON_BUDGET)


def gradient_descent(
    objective: Objective,
    x0: Sequence[float],
    config: GradientDescentConfig | None = None,
) -> OptimizerResult:
    """Fixed-step descent along a central finite-difference gradient.

    Runs until the evaluation budget is spent and returns the best
    point evaluated (probe points included).
    """
    cfg = config or GradientDescentConfig()
    x0 = np.asarray(x0, dtype=float)
    f = _CountingObjective(objective, cfg.max_evaluations)
    x = x0.copy()
    try:
        f(x)
        while True:
            grad = np.zeros_like(x)
            for k in range(x.size):
                probe = x.copy()
                probe[k] += FD_STEP
                upper = f(probe)
                probe[k] -= 2.0 * FD_STEP
                lower = f(probe)
                grad[k] = (upper - lower) / (2.0 * FD_STEP)
            x = x - cfg.step_size * grad
            f(x)
    except _BudgetExhausted:
        return _finalize(f, 0, False, REASON_BUDGET)
