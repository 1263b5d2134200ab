"""Plain-text reporting of experiment results.

The benchmark harness prints, for every figure of the paper, the same rows
or series the paper plots.  Since the environment has no plotting stack, the
output is an aligned text table (one column per series); the committed
tables are discussed in docs/reproduction.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.evaluation.runner import Experiment

__all__ = ["format_series_table", "format_experiment", "format_key_values"]


def _format_number(value: float) -> str:
    if value is None:  # pragma: no cover - defensive
        return "-"
    if abs(value) >= 1000 or (value != 0 and abs(value) < 0.01):
        return f"{value:.3e}"
    return f"{value:.3f}"


def format_series_table(experiment: Experiment, metric: str, *,
                        x_label: Optional[str] = None) -> str:
    """Render one metric of every series of an experiment as an aligned table.

    Rows are the swept parameter values (the union across series); columns
    are the series.  Missing observations show as ``-``.
    """
    x_label = x_label or experiment.swept_parameter
    series_names = sorted(experiment.series)
    all_xs: List[float] = sorted({
        point.x for series in experiment.series.values() for point in series.points
    })
    header = [x_label] + series_names
    rows: List[List[str]] = []
    for x in all_xs:
        row = [_format_number(x)]
        for name in series_names:
            series = experiment.series[name]
            match = next((p for p in series.points if p.x == x), None)
            row.append(_format_number(match.metric(metric)) if match is not None
                       and metric in match.metrics else "-")
        rows.append(row)
    widths = [max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
              for i in range(len(header))]
    lines = [
        "  ".join(header[i].rjust(widths[i]) for i in range(len(header))),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for row in rows:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def format_experiment(experiment: Experiment, metrics: Sequence[str]) -> str:
    """Render an experiment: a header plus one table per requested metric."""
    blocks = [f"== {experiment.experiment_id}: {experiment.description} =="]
    for metric in metrics:
        blocks.append(f"-- metric: {metric} --")
        blocks.append(format_series_table(experiment, metric))
    return "\n".join(blocks)


def format_key_values(title: str, values: Dict[str, float]) -> str:
    """Render a flat mapping of metric name → value (used for summary blocks)."""
    width = max((len(key) for key in values), default=0)
    lines = [f"== {title} =="]
    for key in sorted(values):
        lines.append(f"{key.ljust(width)} : {_format_number(values[key])}")
    return "\n".join(lines)
