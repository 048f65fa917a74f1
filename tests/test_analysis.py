"""Unit tests for regression and table formatting utilities."""

import math

import pytest

from repro.analysis.regression import LinearFit, _slope_p_value, linear_fit
from repro.analysis.tables import format_series, format_table


class TestLinearFit:
    def test_perfect_line(self):
        fit = linear_fit([1, 2, 3, 4], [3, 5, 7, 9])  # y = 2x + 1
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.p_value < 1e-6
        assert fit.n == 4

    def test_closed_form_fit(self):
        # x_mean 2.5, y_mean 4: Sxx = 5, Sxy = 7, SSres = 0.2, SStot = 10.
        fit = linear_fit([1, 2, 3, 4], [2, 3, 5, 6])
        assert fit.slope == pytest.approx(1.4, rel=1e-12)
        assert fit.intercept == pytest.approx(0.5, rel=1e-12)
        assert fit.r_squared == pytest.approx(0.98, rel=1e-12)

    def test_noisy_line_recovers_slope(self):
        xs = list(range(1, 33))
        ys = [0.05 * x - 0.19 + ((-1) ** x) * 0.01 for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.slope == pytest.approx(0.05, abs=0.005)
        assert fit.intercept == pytest.approx(-0.19, abs=0.05)
        assert fit.r_squared > 0.95

    def test_predict(self):
        fit = linear_fit([0, 1], [1, 3])
        assert fit.predict(2) == pytest.approx(5.0)

    def test_equation_format(self):
        fit = LinearFit(slope=0.05, intercept=-0.19, r_squared=1.0, p_value=0.0, n=5)
        assert fit.equation() == "y=0.05x-0.19"
        positive = LinearFit(slope=0.01, intercept=0.02, r_squared=1.0, p_value=0.0, n=5)
        assert positive.equation() == "y=0.01x+0.02"

    def test_errors(self):
        with pytest.raises(ValueError):
            linear_fit([1], [2])
        with pytest.raises(ValueError):
            linear_fit([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            linear_fit([2, 2, 2], [1, 2, 3])

    def test_flat_line_p_value(self):
        fit = linear_fit([1, 2, 3, 4], [5, 5, 5, 5])
        assert fit.slope == pytest.approx(0.0)
        assert not math.isnan(fit.p_value)


class TestSlopePValue:
    """Student's t two-sided tail against its closed forms.

    Three points with slope t, Sxx 1 and SSres 1 (or four points with
    SSres 2) give a standard error of 1, so the t statistic is t.
    """

    T_VALUES = [10.0 ** (k / 8) for k in range(-24, 49)]  # 1e-3 .. 1e6

    def test_one_degree_of_freedom(self):
        for t in self.T_VALUES:
            exact = (2 / math.pi) * math.atan(1 / t)
            assert _slope_p_value(3, t, 1.0, 1.0) == pytest.approx(
                exact, rel=1e-12), t

    def test_two_degrees_of_freedom(self):
        for t in self.T_VALUES:
            s = math.sqrt(t * t + 2)
            exact = 2 / (s * (s + t))
            assert _slope_p_value(4, t, 1.0, 2.0) == pytest.approx(
                exact, rel=1e-12), t

    def test_four_point_fit(self):
        # t = 1.4 / sqrt(0.1 / 5) = 9.90 on 2 degrees of freedom.
        fit = linear_fit([1, 2, 3, 4], [2, 3, 5, 6])
        assert fit.p_value == pytest.approx(0.01005, rel=1e-3)


class TestFormatTable:
    def test_alignment_and_rounding(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["bb", 10.0]],
                            precision=2)
        lines = text.splitlines()
        assert lines[0].endswith("value")
        assert "1.23" in text
        assert "10.00" in text

    def test_title(self):
        text = format_table(["x"], [[1]], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_series(self):
        text = format_series("curve", [[1, 2.0]], headers=["x", "y"])
        assert text.splitlines()[0] == "curve"
        assert "2.00" in text
