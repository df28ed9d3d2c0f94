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

The objective takes a batch: a (B, dims) array of points, one per row,
and returns their B values in row order. Where the points do not depend
on each other's values the optimizers pass them together (Lee and
Wiswall, Computational Economics 30, 2007): Nelder-Mead's dims + 1
simplex vertices and its dims-point shrink, and gradient descent's
2 * dims central-difference probes, in the order a point-by-point search
would evaluate them. Every other point is a batch of one. The rows
count against the budget one by one; a batch that would overrun it is
cut, and only the rows that fit are evaluated.
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

# (B, dims) points in, their B values out, in row order.
Objective = Callable[[np.ndarray], Sequence[float]]


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
    restart_steps: tuple[int, ...]  # the evaluation index where each restart's simplex began
    converged: bool
    reason: str

    @property
    def restarts(self) -> int:
        return len(self.restart_steps)


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

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        """Values of the rows of xs, taken in order; the first lowest value ever wins.

        Rows past the budget are not evaluated: the ones that fit are, then
        the budget's end is raised. A non-finite value raises
        ObjectiveValueError for the first row that has one.
        """
        room = self.max_evaluations - self.evaluations
        if room <= 0:
            raise _BudgetExhausted
        batch = xs[:room]
        values = [float(v) for v in self._objective(batch)]
        if len(values) != len(batch):
            raise ValueError(f"objective returned {len(values)} values for {len(batch)} points")
        for x, value in zip(batch, values):
            self.evaluations += 1
            if not math.isfinite(value):
                raise ObjectiveValueError(
                    f"objective returned non-finite value {value!r} at x={x.tolist()}"
                )
            if value < self.f_best:
                self.f_best = value
                self.x_best = np.array(x, dtype=float)
                self.last_improvement = self.evaluations
        if len(batch) < len(xs):
            raise _BudgetExhausted
        return np.array(values)

    def one(self, x: np.ndarray) -> float:
        """The value of a single point: a batch of one."""
        return float(self(x[None])[0])


def _finalize(f: _CountingObjective, restart_steps: list[int], converged: bool, reason: str) -> OptimizerResult:
    return OptimizerResult(f.x_best.copy(), f.f_best, f.evaluations, tuple(restart_steps), converged, reason)


def nelder_mead(
    objective: Objective,
    x0: Sequence[float],
    config: NelderMeadConfig | None = None,
) -> OptimizerResult:
    """Minimize with the four Nelder-Mead simplex moves, plus restarts.

    The initial simplex is x0, which needs at least one coordinate,
    plus per-coordinate offsets of `initial_scale`. A restart rebuilds
    the simplex around the best point seen so far (the incumbent is kept
    as a vertex and re-evaluated), up to `restart_limit` times; the best
    point ever evaluated is returned regardless of where the final
    simplex sits, with each restart's first evaluation index. A restart
    the budget leaves no evaluation for is not made, and not counted.
    """
    cfg = config or NelderMeadConfig()
    x0 = np.asarray(x0, dtype=float)
    dims = x0.size
    if dims == 0:
        raise ValueError("Nelder-Mead needs at least one parameter; x0 is empty")
    f = _CountingObjective(objective, cfg.max_evaluations)
    restart_steps: list[int] = []

    def build_simplex(center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        xs = np.repeat(center[None], dims + 1, axis=0)
        for k in range(dims):
            xs[k + 1, k] += cfg.initial_scale
        return xs, f(xs)

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
                if len(restart_steps) >= cfg.restart_limit:
                    converged = trigger == "tolerance"
                    reason = REASON_TOLERANCE if converged else REASON_RESTART_LIMIT
                    return _finalize(f, restart_steps, converged, reason)
                if f.evaluations >= cfg.max_evaluations:  # no evaluation left for the new simplex
                    return _finalize(f, restart_steps, False, REASON_BUDGET)
                restart_steps.append(f.evaluations)
                xs, vals = build_simplex(f.x_best)
                f.last_improvement = f.evaluations
                continue

            # mean(axis=0) without its wrapper: the same sum, divided by the same count.
            centroid = np.add.reduce(xs[:-1], axis=0) / dims
            worst = xs[-1]
            reflected = centroid + REFLECTION * (centroid - worst)
            f_reflected = f.one(reflected)
            if f_reflected < vals[0]:
                expanded = centroid + EXPANSION * (reflected - centroid)
                f_expanded = f.one(expanded)
                if f_expanded < f_reflected:
                    xs[-1], vals[-1] = expanded, f_expanded
                else:
                    xs[-1], vals[-1] = reflected, f_reflected
            elif f_reflected < vals[-2]:
                xs[-1], vals[-1] = reflected, f_reflected
            else:
                if f_reflected < vals[-1]:
                    contracted = centroid + CONTRACTION * (reflected - centroid)
                    f_contracted = f.one(contracted)
                    accept = f_contracted <= f_reflected
                else:
                    contracted = centroid - CONTRACTION * (centroid - worst)
                    f_contracted = f.one(contracted)
                    accept = f_contracted < vals[-1]
                if accept:
                    xs[-1], vals[-1] = contracted, f_contracted
                else:
                    xs[1:] = xs[0] + SHRINK * (xs[1:] - xs[0])
                    vals[1:] = f(xs[1:])
    except _BudgetExhausted:
        return _finalize(f, restart_steps, False, REASON_BUDGET)


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
        f.one(x)
        while True:
            # Rows 2k and 2k + 1 step coordinate k up, then down from there.
            probes = np.repeat(x[None], 2 * x.size, axis=0)
            for k in range(x.size):
                probes[2 * k, k] += FD_STEP
                probes[2 * k + 1, k] = probes[2 * k, k] - 2.0 * FD_STEP
            values = f(probes)
            grad = (values[0::2] - values[1::2]) / (2.0 * FD_STEP)
            x = x - cfg.step_size * grad
            f.one(x)
    except _BudgetExhausted:
        return _finalize(f, [], False, REASON_BUDGET)
