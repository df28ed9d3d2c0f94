import re

import numpy as np
import pytest

from conftest import drive
from vqesim import GradientDescentConfig, NelderMeadConfig, gradient_descent_search, nelder_mead_search
from vqesim.optimize import (
    ObjectiveValueError,
    REASON_BUDGET,
    REASON_RESTART_LIMIT,
    REASON_TOLERANCE,
)


def nelder_mead(objective, x0, config=None):
    """The Nelder-Mead search driven to its result, its batches answered by `objective`."""
    return drive(nelder_mead_search(x0, config), objective)


def gradient_descent(objective, x0, config=None):
    """The gradient-descent search driven to its result, its batches answered by `objective`."""
    return drive(gradient_descent_search(x0, config), objective)


def batched(fn):
    """A function of one point as an optimizer objective: one value per row, in row order."""
    return lambda xs: [fn(x) for x in xs]


def recording(fn, batches):
    """An objective that appends a copy of every batch it is given to `batches`."""

    def objective(xs):
        batches.append(np.array(xs))
        return [fn(x) for x in xs]

    return objective


def sphere(x):
    return float(np.sum(np.square(x)))


def rosenbrock(x):
    return float((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)


class TestNelderMeadConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_scale": 0.0},
            {"stagnation_window": 0},
            {"restart_limit": -1},
            {"tolerance": -1e-12},
            {"max_evaluations": -1},
        ],
    )
    def test_validity_ranges(self, kwargs):
        with pytest.raises(ValueError):
            NelderMeadConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_evaluations": 2.5}, "max_evaluations must be an integer, got 2.5"),
            ({"stagnation_window": True}, "stagnation_window must be an integer, got True"),
            ({"restart_limit": "3"}, "restart_limit must be an integer, got '3'"),
            ({"tolerance": float("nan")}, "tolerance must be a finite number, got nan"),
            ({"initial_scale": float("inf")}, "initial_scale must be a finite number, got inf"),
            ({"initial_scale": True}, "initial_scale must be a finite number, got True"),
        ],
    )
    def test_types_and_finiteness(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NelderMeadConfig(**kwargs)

    def test_numbers_as_typed_accepted(self):
        config = NelderMeadConfig(initial_scale=1, max_evaluations=np.int64(5), tolerance=np.float64(0.0))
        assert nelder_mead(batched(sphere), np.array([1.0]), config).evaluations == 5


class TestNelderMead:
    def test_convex_quadratic(self):
        result = nelder_mead(batched(sphere), np.array([1.0, 1.0]))
        assert result.f_best <= 1e-8
        assert result.converged and result.reason == REASON_TOLERANCE

    def test_rosenbrock(self):
        result = nelder_mead(batched(rosenbrock), np.array([-1.2, 1.0]))
        assert np.max(np.abs(result.x_best - np.array([1.0, 1.0]))) < 1e-3

    def test_nan_objective_aborts_with_diagnostic(self):
        def broken(x):
            return float("nan")

        with pytest.raises(ObjectiveValueError, match="non-finite"):
            nelder_mead(batched(broken), np.array([0.5]))

    def test_budget_respected(self):
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return sphere(x)

        result = nelder_mead(batched(counted), np.array([1.0, 1.0, 1.0]), NelderMeadConfig(max_evaluations=37))
        assert calls == 37 and result.evaluations == 37
        assert result.reason == REASON_BUDGET and not result.converged

    def test_zero_budget_refused(self):
        with pytest.raises(ValueError, match="^evaluation budget must be >= 1$"):
            NelderMeadConfig(max_evaluations=0)

    def test_empty_start_rejected(self):
        with pytest.raises(ValueError, match="x0 is empty"):
            nelder_mead(batched(sphere), np.zeros(0), NelderMeadConfig(tolerance=0.0))

    def test_returns_best_ever_evaluated(self):
        seen = []

        def tracking(x):
            value = sphere(x)
            seen.append(value)
            return value

        result = nelder_mead(batched(tracking), np.array([1.5, -0.5]), NelderMeadConfig(max_evaluations=200))
        assert result.f_best == min(seen)

    def test_restart_rebuilds_around_incumbent(self):
        evaluated = []

        def noisy(x):
            # deterministic pseudo-noise keyed on the point
            evaluated.append(np.array(x))
            wobble = 0.05 * np.sin(1000.0 * float(np.sum(x)))
            return sphere(x) + wobble

        result = nelder_mead(
            batched(noisy),
            np.array([1.0, 1.0]),
            NelderMeadConfig(max_evaluations=400, restart_limit=3, stagnation_window=40),
        )
        assert 0 < result.restarts == len(result.restart_steps) <= 3
        # the incumbent best-so-far survives every restart as the first
        # vertex of the rebuilt simplex
        for eval_count in result.restart_steps:
            values = [sphere(x) + 0.05 * np.sin(1000.0 * float(np.sum(x))) for x in evaluated[:eval_count]]
            incumbent = evaluated[int(np.argmin(values))]
            assert np.array_equal(evaluated[eval_count], incumbent)

    def test_restart_limit_reason_under_stagnation(self):
        # objective is flat except pseudo-noise: stagnates, never meets tolerance
        def flat(x):
            return 1.0 + 1e-3 * np.sin(1e4 * float(np.sum(x)))

        result = nelder_mead(
            batched(flat),
            np.array([0.0, 0.0]),
            NelderMeadConfig(
                max_evaluations=10_000,
                tolerance=1e-15,
                restart_limit=1,
                stagnation_window=20,
            ),
        )
        assert result.reason in (REASON_RESTART_LIMIT, REASON_BUDGET)
        assert not result.converged

    @pytest.mark.parametrize("seed", range(5))
    def test_random_convex_quadratics(self, seed):
        rng = np.random.default_rng(seed)
        scales = rng.uniform(0.5, 3.0, size=4)
        shift = rng.uniform(-1.0, 1.0, size=4)

        def quadratic(x):
            return float(np.sum(scales * np.square(x - shift)))

        result = nelder_mead(batched(quadratic), np.zeros(4), NelderMeadConfig(max_evaluations=4000))
        assert result.f_best <= 1e-7


class TestGradientDescent:
    def test_quadratic_noiseless(self):
        result = gradient_descent(batched(sphere), np.array([1.0, -1.0]), GradientDescentConfig(step_size=0.2, max_evaluations=500))
        assert result.f_best <= 1e-6

    def test_zero_budget_refused(self):
        with pytest.raises(ValueError, match="^evaluation budget must be >= 1$"):
            GradientDescentConfig(max_evaluations=0)

    def test_budget_respected(self):
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return sphere(x)

        result = gradient_descent(batched(counted), np.zeros(3), GradientDescentConfig(max_evaluations=25))
        assert calls == 25 and result.evaluations == 25
        assert result.reason == REASON_BUDGET

    def test_nan_objective_aborts(self):
        with pytest.raises(ObjectiveValueError):
            gradient_descent(batched(lambda x: float("nan")), np.array([0.1]), GradientDescentConfig(max_evaluations=10))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GradientDescentConfig(step_size=0.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"step_size": float("inf")}, "step_size must be a finite number, got inf"),
            ({"step_size": float("nan")}, "step_size must be a finite number, got nan"),
            ({"max_evaluations": True}, "max_evaluations must be an integer, got True"),
            ({"max_evaluations": 10.0}, "max_evaluations must be an integer, got 10.0"),
        ],
    )
    def test_config_types_and_finiteness(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GradientDescentConfig(**kwargs)


def spike(x):
    """0 at the origin and 1 everywhere else: every move fails, so Nelder-Mead shrinks."""
    return 0.0 if not np.any(x) else 1.0


class TestBatches:
    """Independent points reach the objective together, in the order of a point-by-point search."""

    def test_nelder_mead_builds_then_shrinks_in_batches(self):
        batches = []
        nelder_mead(recording(spike, batches), np.zeros(2), NelderMeadConfig(max_evaluations=11))
        assert [len(b) for b in batches] == [3, 1, 1, 2, 1, 1, 2]
        # The simplex: x0, then x0 plus the initial scale along each coordinate.
        assert np.array_equal(batches[0], [[0.0, 0.0], [0.3, 0.0], [0.0, 0.3]])
        # The reflection of the worst vertex through the centroid (0.15, 0), then the
        # inside contraction; both fail, and the two other vertices move halfway to the best.
        assert np.array_equal(batches[1], [[0.3, -0.3]])
        assert np.array_equal(batches[2], [[0.075, 0.15]])
        assert np.array_equal(batches[3], [[0.15, 0.0], [0.0, 0.15]])

    def test_restart_rebuilds_in_one_batch(self):
        batches = []
        config = NelderMeadConfig(max_evaluations=60, stagnation_window=5, restart_limit=1)
        result = nelder_mead(recording(spike, batches), np.zeros(3), config)
        assert result.restarts == 1
        sizes = [len(b) for b in batches]
        assert sizes[0] == 4 and set(sizes) == {1, 3, 4}
        rebuild = batches[sizes.index(4, 1)]
        assert np.array_equal(rebuild, batches[0])  # around the incumbent, the origin

    def test_gradient_descent_probes_in_one_batch(self):
        batches = []
        x0 = np.array([0.5, -0.25])
        gradient_descent(recording(sphere, batches), x0, GradientDescentConfig(max_evaluations=11))
        assert [len(b) for b in batches] == [1, 4, 1, 4, 1]
        probes = []
        for k in range(2):
            up = x0.copy()
            up[k] += 1e-3
            down = up.copy()
            down[k] -= 2e-3
            probes += [up, down]
        assert np.array_equal(batches[1], probes)

    @pytest.mark.parametrize("budget", [1, 2])
    def test_budget_cuts_a_batch(self, budget):
        batches = []
        result = nelder_mead(recording(sphere, batches), np.ones(3), NelderMeadConfig(max_evaluations=budget))
        assert [len(b) for b in batches] == [budget]
        assert result.evaluations == budget and result.reason == REASON_BUDGET

    def test_tie_inside_a_batch_keeps_the_first_row(self):
        def values(xs):
            return [2.0, 1.0, 1.0][: len(xs)]

        result = nelder_mead(values, np.zeros(2), NelderMeadConfig(max_evaluations=3))
        assert result.f_best == 1.0
        assert np.array_equal(result.x_best, [0.3, 0.0])

    def test_non_finite_row_raises_for_that_row(self):
        def values(xs):
            return [1.0, float("inf"), float("nan")][: len(xs)]

        with pytest.raises(ObjectiveValueError, match=re.escape("non-finite value inf at x=[0.3, 0.0]")):
            nelder_mead(values, np.zeros(2))

    def test_wrong_number_of_values_refused(self):
        with pytest.raises(ValueError, match="objective returned 1 values for 3 points"):
            nelder_mead(lambda xs: [0.0], np.zeros(2))
