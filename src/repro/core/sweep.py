"""Parameter sweeps: sensitivity analysis over calibration constants.

The reproduction's claims are shapes, and shapes should be robust to the
calibration constants around them.  A :class:`CalibrationSweep` reruns a
measurement under a grid of calibration overrides and tabulates the
metric, making "how sensitive is Fig 12 to the scale interval?" a
three-line question.

Example
-------
>>> from repro.core.sweep import CalibrationSweep
>>> sweep = CalibrationSweep(platform="azure",
...                          parameter="scale_interval_s",
...                          values=[5.0, 10.0, 20.0])
>>> len(sweep.points())
3
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

from repro.core.testbed import Testbed
from repro.platforms.backend import backend_names, get_backend


def _evaluate_point(overrides: Dict[str, Any], seed: int,
                    measure: Callable[[Testbed], Any]) -> Any:
    """One grid point on a fresh testbed.

    ``overrides`` keys are ``"<platform>.field"`` names; a bare field
    name is applied to the platform given by the sweep (see the callers,
    which prefix it).
    """
    calibrations = {name: get_backend(name).default_calibration()
                    for name in backend_names()}
    for name, value in overrides.items():
        platform, _, parameter = name.partition(".")
        setattr(calibrations[platform], parameter, value)
    testbed = Testbed(seed=seed, calibrations=calibrations)
    return measure(testbed)


@dataclass
class SweepPoint:
    """One grid point: the overrides applied and the measured value."""

    overrides: Dict[str, Any]
    value: Any = None


class CalibrationSweep:
    """A one-parameter sweep over a platform calibration constant."""

    def __init__(self, platform: str, parameter: str,
                 values: Sequence[Any], seed: int = 0):
        if platform not in backend_names():
            raise ValueError(
                f"platform must be one of {backend_names()}")
        if not values:
            raise ValueError("sweep needs at least one value")
        template = get_backend(platform).default_calibration()
        if not hasattr(template, parameter):
            raise AttributeError(
                f"{type(template).__name__} has no field {parameter!r}")
        self.platform = platform
        self.parameter = parameter
        self.values = list(values)
        self.seed = seed

    def points(self) -> List[SweepPoint]:
        return [SweepPoint(overrides={self.parameter: value})
                for value in self.values]

    def run(self, measure: Callable[[Testbed], Any]) -> List[SweepPoint]:
        """Evaluate ``measure`` on a fresh testbed per grid point.

        ``measure`` receives a testbed whose calibration carries the
        point's override and returns the metric to record.
        """
        points = self.points()
        for point in points:
            prefixed = {f"{self.platform}.{name}": value
                        for name, value in point.overrides.items()}
            point.value = _evaluate_point(prefixed, self.seed, measure)
        return points


class GridSweep:
    """A multi-parameter grid over any registered platforms' calibrations.

    ``grid`` maps ``"<platform>.field"`` names (``"aws.field"``,
    ``"azure.field"``, ``"gcp.field"``, ...) to value lists; the
    cartesian product is evaluated.
    """

    def __init__(self, grid: Dict[str, Sequence[Any]], seed: int = 0):
        if not grid:
            raise ValueError("grid must not be empty")
        for name in grid:
            platform, _, parameter = name.partition(".")
            if platform not in backend_names() or not parameter:
                raise ValueError(
                    f"grid keys look like '<platform>.field' with a "
                    f"registered platform {backend_names()}, got {name!r}")
            template = get_backend(platform).default_calibration()
            if not hasattr(template, parameter):
                raise AttributeError(
                    f"{type(template).__name__} has no field {parameter!r}")
        self.grid = {name: list(values) for name, values in grid.items()}
        self.seed = seed

    def points(self) -> List[SweepPoint]:
        names = sorted(self.grid)
        combinations = itertools.product(
            *(self.grid[name] for name in names))
        return [SweepPoint(overrides=dict(zip(names, combo)))
                for combo in combinations]

    def run(self, measure: Callable[[Testbed], Any]) -> List[SweepPoint]:
        points = self.points()
        for point in points:
            point.value = _evaluate_point(point.overrides, self.seed, measure)
        return points


def tabulate(points: List[SweepPoint],
             value_label: str = "value") -> List[List[Any]]:
    """Rows ``[override..., value]`` ready for ``render_table``."""
    if not points:
        raise ValueError("no sweep points")
    names = sorted(points[0].overrides)
    rows = []
    for point in points:
        rows.append([point.overrides[name] for name in names]
                    + [point.value])
    return rows
