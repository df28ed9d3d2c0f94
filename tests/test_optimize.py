import re

import numpy as np
import pytest

from vqesim import GradientDescentConfig, NelderMeadConfig, gradient_descent, nelder_mead
from vqesim.optimize import (
    ObjectiveValueError,
    REASON_BUDGET,
    REASON_RESTART_LIMIT,
    REASON_TOLERANCE,
)


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
        assert nelder_mead(sphere, np.array([1.0]), config).evaluations == 5


class TestNelderMead:
    def test_convex_quadratic(self):
        result = nelder_mead(sphere, np.array([1.0, 1.0]))
        assert result.f_best <= 1e-8
        assert result.converged and result.reason == REASON_TOLERANCE

    def test_rosenbrock(self):
        result = nelder_mead(rosenbrock, np.array([-1.2, 1.0]))
        assert np.max(np.abs(result.x_best - np.array([1.0, 1.0]))) < 1e-3

    def test_nan_objective_aborts_with_diagnostic(self):
        def broken(x):
            return float("nan")

        with pytest.raises(ObjectiveValueError, match="non-finite"):
            nelder_mead(broken, np.array([0.5]))

    def test_budget_respected(self):
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return sphere(x)

        result = nelder_mead(counted, np.array([1.0, 1.0, 1.0]), NelderMeadConfig(max_evaluations=37))
        assert calls == 37 and result.evaluations == 37
        assert result.reason == REASON_BUDGET and not result.converged

    def test_zero_budget_refused(self):
        with pytest.raises(ValueError, match="^evaluation budget must be >= 1$"):
            NelderMeadConfig(max_evaluations=0)

    def test_empty_start_rejected(self):
        with pytest.raises(ValueError, match="x0 is empty"):
            nelder_mead(sphere, np.zeros(0), NelderMeadConfig(tolerance=0.0))

    def test_returns_best_ever_evaluated(self):
        seen = []

        def tracking(x):
            value = sphere(x)
            seen.append(value)
            return value

        result = nelder_mead(tracking, np.array([1.5, -0.5]), NelderMeadConfig(max_evaluations=200))
        assert result.f_best == min(seen)

    def test_restart_rebuilds_around_incumbent(self):
        restarts = []
        evaluated = []

        def noisy(x):
            # deterministic pseudo-noise keyed on the point
            evaluated.append(np.array(x))
            wobble = 0.05 * np.sin(1000.0 * float(np.sum(x)))
            return sphere(x) + wobble

        result = nelder_mead(
            noisy,
            np.array([1.0, 1.0]),
            NelderMeadConfig(max_evaluations=400, restart_limit=3, stagnation_window=40),
            on_restart=lambda: restarts.append(len(evaluated)),
        )
        assert result.restarts == len(restarts) <= 3
        # the incumbent best-so-far survives every restart as the first
        # vertex of the rebuilt simplex
        for eval_count in restarts:
            values = [sphere(x) + 0.05 * np.sin(1000.0 * float(np.sum(x))) for x in evaluated[:eval_count]]
            incumbent = evaluated[int(np.argmin(values))]
            assert np.array_equal(evaluated[eval_count], incumbent)

    def test_restart_limit_reason_under_stagnation(self):
        # objective is flat except pseudo-noise: stagnates, never meets tolerance
        def flat(x):
            return 1.0 + 1e-3 * np.sin(1e4 * float(np.sum(x)))

        result = nelder_mead(
            flat,
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

        result = nelder_mead(quadratic, np.zeros(4), NelderMeadConfig(max_evaluations=4000))
        assert result.f_best <= 1e-7


class TestGradientDescent:
    def test_quadratic_noiseless(self):
        result = gradient_descent(sphere, np.array([1.0, -1.0]), GradientDescentConfig(step_size=0.2, max_evaluations=500))
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

        result = gradient_descent(counted, np.zeros(3), GradientDescentConfig(max_evaluations=25))
        assert calls == 25 and result.evaluations == 25
        assert result.reason == REASON_BUDGET

    def test_nan_objective_aborts(self):
        with pytest.raises(ObjectiveValueError):
            gradient_descent(lambda x: float("nan"), np.array([0.1]), GradientDescentConfig(max_evaluations=10))

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
