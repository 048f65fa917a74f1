"""Error metrics used by the evaluation.

The paper reports *absolute relative simulation errors*: for each traced
operation, ``|simulated - real| / real``, expressed as a percentage in the
figures.  Averages are taken over operations (excluding operations whose
reference duration is zero).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence


def absolute_relative_error(simulated: float, reference: float) -> float:
    """Absolute relative error ``|simulated - reference| / reference``.

    Returns ``0.0`` when both values are zero and ``inf`` when only the
    reference is zero (an operation simulated as instantaneous in the
    reference but not in the simulator).
    """
    if reference == 0:
        return 0.0 if simulated == 0 else float("inf")
    return abs(simulated - reference) / abs(reference)


def relative_error_percent(simulated: float, reference: float) -> float:
    """Absolute relative error expressed in percent (as in Figures 4a, 6)."""
    return 100.0 * absolute_relative_error(simulated, reference)


def mean_absolute_relative_error(simulated: Sequence[float],
                                 reference: Sequence[float]) -> float:
    """Mean absolute relative error over paired observations.

    Pairs whose reference value is zero are skipped (they carry no error
    information); raises ``ValueError`` if the sequences differ in length
    or no usable pair remains.
    """
    if len(simulated) != len(reference):
        raise ValueError(
            f"length mismatch: {len(simulated)} simulated vs {len(reference)} reference"
        )
    errors = [
        absolute_relative_error(sim, ref)
        for sim, ref in zip(simulated, reference)
        if ref != 0
    ]
    if not errors:
        raise ValueError("no usable (non-zero reference) observation")
    return sum(errors) / len(errors)


def per_operation_errors(simulated: Mapping[str, float],
                         reference: Mapping[str, float]) -> Dict[str, float]:
    """Per-operation absolute relative errors (percent), keyed like the inputs.

    Only operations present in both mappings are compared.
    """
    errors: Dict[str, float] = {}
    for key, ref in reference.items():
        if key in simulated:
            errors[key] = relative_error_percent(simulated[key], ref)
    return errors


def mean_error_percent(errors: Iterable[float]) -> float:
    """Mean of a collection of per-operation errors in percent."""
    values = [value for value in errors if value != float("inf")]
    if not values:
        return 0.0
    return sum(values) / len(values)


def error_reduction_factor(baseline_errors: Iterable[float],
                           improved_errors: Iterable[float]) -> float:
    """How many times smaller the improved mean error is vs the baseline.

    This is the paper's headline "up to an order of magnitude" metric.
    Returns ``inf`` if the improved error is zero.
    """
    baseline = mean_error_percent(baseline_errors)
    improved = mean_error_percent(improved_errors)
    if improved == 0:
        return float("inf")
    return baseline / improved
