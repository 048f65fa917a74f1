"""Linear regression (Figure 8 fits).

A tiny ordinary-least-squares implementation with the statistics the paper
reports: slope, intercept, coefficient of determination and the p-value of
the slope (two-sided t-test against a zero slope).  The fit is plain
Python (``math.fsum`` sums), and the p-value is Student's t tail computed
from the regularized incomplete beta function, so the package needs
nothing beyond the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class LinearFit:
    """Result of an ordinary-least-squares fit ``y = slope * x + intercept``."""

    slope: float
    intercept: float
    r_squared: float
    p_value: float
    n: int

    def predict(self, x: float) -> float:
        """Predicted value at ``x``."""
        return self.slope * x + self.intercept

    def equation(self, precision: int = 2) -> str:
        """Human-readable equation, like the annotations of Figure 8."""
        sign = "+" if self.intercept >= 0 else "-"
        return (
            f"y={self.slope:.{precision}f}x{sign}{abs(self.intercept):.{precision}f}"
        )


def linear_fit(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Fit ``y = a x + b`` by ordinary least squares.

    Raises
    ------
    ValueError
        If fewer than two points are given or all ``x`` are identical.
    """
    xs = [float(value) for value in x]
    ys = [float(value) for value in y]
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} x values vs {len(ys)} y values")
    if len(xs) < 2:
        raise ValueError("at least two points are required for a linear fit")
    # numpy.allclose's default tolerances.
    if all(math.isclose(value, xs[0], rel_tol=1e-5, abs_tol=1e-8) for value in xs):
        raise ValueError("all x values are identical; the slope is undefined")

    n = len(xs)
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    dxs = [value - x_mean for value in xs]
    sxx = math.fsum(dx * dx for dx in dxs)
    sxy = math.fsum(dx * (value - y_mean) for dx, value in zip(dxs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean

    ss_res = math.fsum((value - (slope * xv + intercept)) ** 2
                       for xv, value in zip(xs, ys))
    ss_tot = math.fsum((value - y_mean) ** 2 for value in ys)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot

    p_value = _slope_p_value(n, slope, sxx, ss_res)
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared,
                     p_value=p_value, n=n)


def _slope_p_value(n: int, slope: float, sxx: float, ss_res: float) -> float:
    """Two-sided p-value of the slope against the null hypothesis slope=0.

    Student's t with ``dof`` degrees of freedom has the two-sided tail
    ``P(|T| > t) = I_x(dof/2, 1/2)`` with ``x = dof / (dof + t^2)``.
    """
    dof = n - 2
    if dof <= 0:
        return float("nan")
    if ss_res <= 0:
        return 0.0 if slope != 0 else 1.0
    stderr = math.sqrt(ss_res / dof / sxx)
    if stderr == 0:
        return 0.0
    t_squared = (slope / stderr) ** 2
    # x and 1 - x are formed separately so neither loses digits to the
    # subtraction when t is very small or very large.
    denominator = dof + t_squared
    return _regularized_beta(0.5 * dof, 0.5, dof / denominator,
                             t_squared / denominator)


def _regularized_beta(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta function ``I_x(a, b)``, ``y = 1 - x``.

    Evaluated with the continued fraction of Numerical Recipes (section
    6.4) by the modified Lentz method, on whichever side of the symmetry
    ``I_x(a, b) = 1 - I_y(b, a)`` converges quickly.
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    swap = x > (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x, y = b, a, y, x
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    fraction = d
    for m in range(1, 10_000):
        # One even and one odd term of the continued fraction.
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x
                          / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + numerator / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            step = c * d
            fraction *= step
        if abs(step - 1.0) < 1e-15:
            break
    value = front * fraction / a
    return 1.0 - value if swap else value
