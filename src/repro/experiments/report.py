"""Plain-text reports for each paper artifact.

These helpers turn the raw experiment outputs into the rows/series the
paper reports.  The benchmark harness prints them so that running
``pytest benchmarks/ --benchmark-only`` regenerates, in text form, every
table and figure of the evaluation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.tables import format_table
from repro.experiments.calibration import table1_rows, table2_rows, TABLE3_BANDWIDTHS
from repro.experiments.exp1_single import EXP1_OPERATIONS
from repro.experiments.exp2_concurrent import ConcurrencyPoint
from repro.experiments.exp4_nighres import EXP4_OPERATIONS
from repro.experiments.exp5_scaling import ScalingPoint
from repro.analysis.regression import LinearFit
from repro.units import GB


def table1_report() -> str:
    """Table I as text."""
    return format_table(
        ["Input size (GB)", "CPU time (s)"],
        table1_rows(),
        precision=1,
        title="Table I: Synthetic application parameters",
    )


def table2_report() -> str:
    """Table II as text."""
    return format_table(
        ["Workflow step", "Input size (MB)", "Output size (MB)", "CPU time (s)"],
        table2_rows(),
        precision=0,
        title="Table II: Nighres application parameters",
    )


def table3_report() -> str:
    """Table III as text."""
    return format_table(
        ["Device", "Real read (MBps)", "Real write (MBps)", "Simulator (MBps)"],
        TABLE3_BANDWIDTHS.rows(),
        precision=0,
        title="Table III: Bandwidth benchmarks and simulator configurations",
    )


def exp1_error_report(file_size: float, errors: Dict[str, Dict[str, float]]) -> str:
    """Figure 4a (one file size) as a table of per-operation errors (%)."""
    simulators = list(errors)
    rows: List[List[object]] = []
    for label in EXP1_OPERATIONS:
        rows.append([label] + [errors[sim].get(label, float("nan")) for sim in simulators])
    return format_table(
        ["Operation"] + [f"{sim} error (%)" for sim in simulators],
        rows,
        precision=1,
        title=f"Figure 4a: absolute relative simulation errors ({file_size / GB:.0f} GB)",
    )


def exp1_cache_report(contents: Dict[str, Dict[str, float]], files: Sequence[str]) -> str:
    """Figure 4c as a table: cached GB per file after each operation."""
    rows: List[List[object]] = []
    for label in EXP1_OPERATIONS:
        per_file = contents.get(label, {})
        rows.append([label] + [per_file.get(name, 0.0) / GB for name in files])
    return format_table(
        ["After operation"] + [str(name) for name in files],
        rows,
        precision=1,
        title="Figure 4c: cache contents after application I/O operations (GB)",
    )


def concurrency_report(title: str, series: Dict[str, List[ConcurrencyPoint]]) -> str:
    """Figures 5/7 as a table: read/write time per simulator and concurrency."""
    simulators = list(series)
    counts = [point.n_apps for point in series[simulators[0]]]
    rows: List[List[object]] = []
    for index, count in enumerate(counts):
        row: List[object] = [count]
        for simulator in simulators:
            point = series[simulator][index]
            row.extend([point.read_time, point.write_time])
        rows.append(row)
    headers = ["Apps"]
    for simulator in simulators:
        headers.extend([f"{simulator} read (s)", f"{simulator} write (s)"])
    return format_table(headers, rows, precision=1, title=title)


def exp4_error_report(errors: Dict[str, Dict[str, float]]) -> str:
    """Figure 6 as a table of per-operation errors (%)."""
    simulators = list(errors)
    rows: List[List[object]] = []
    for label in EXP4_OPERATIONS:
        rows.append([label] + [errors[sim].get(label, float("nan")) for sim in simulators])
    return format_table(
        ["Operation"] + [f"{sim} error (%)" for sim in simulators],
        rows,
        precision=1,
        title="Figure 6: real application (Nighres) simulation errors",
    )


def scaling_report(curves: Dict[str, List[ScalingPoint]],
                   fits: Dict[str, LinearFit]) -> str:
    """Figure 8 as a table plus the fitted regression for each curve."""
    rows: List[List[object]] = []
    for label, points in curves.items():
        fit = fits[label]
        for point in points:
            rows.append([label, point.n_apps, point.wallclock_time, fit.equation(3)])
    return format_table(
        ["Configuration", "Apps", "Simulation time (s)", "Linear fit"],
        rows,
        precision=3,
        title="Figure 8: simulation time vs number of concurrent applications",
    )
