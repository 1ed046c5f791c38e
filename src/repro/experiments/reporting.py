"""Render experiment results as markdown tables (used by the CLI)."""

from __future__ import annotations

from typing import Mapping, Sequence


def format_value(value) -> str:
    """Human-friendly formatting for mixed numeric/str cell values."""

    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    if isinstance(value, (list, tuple)):
        return ", ".join(format_value(item) for item in value)
    return str(value)


def markdown_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str] | None = None) -> str:
    """Render a list of row dictionaries as a GitHub-flavoured markdown table."""

    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    header = "| " + " | ".join(columns) + " |"
    separator = "|" + "|".join("---" for _ in columns) + "|"
    body = []
    for row in rows:
        body.append("| " + " | ".join(format_value(row.get(column, "")) for column in columns) + " |")
    return "\n".join([header, separator] + body)


def nested_dict_table(data: Mapping[str, Mapping[str, object]], index_name: str = "name") -> str:
    """Render ``{row_name: {column: value}}`` mappings as a markdown table."""

    rows = []
    columns: list[str] = [index_name]
    for name, values in data.items():
        row: dict[str, object] = {index_name: name}
        if isinstance(values, Mapping):
            for key, value in values.items():
                row[key] = value
                if key not in columns:
                    columns.append(key)
        else:
            row["value"] = values
            if "value" not in columns:
                columns.append("value")
        rows.append(row)
    return markdown_table(rows, columns)


def _render_design_space(result: Mapping[str, object]) -> str:
    """Readable rendering of the DSE/roofline payload: frontier + demotions."""

    sections = []
    columns = ["target", "latency_ms", "energy_mj", "area_mm2", "peak_gmacs"]
    points = result.get("points") or []
    if any("dram_gbps" in point for point in points):
        columns += ["dram_gbps", "memory_bound_layers"]
    sections.append("## Pareto frontier\n\n"
                    + markdown_table(result["pareto_frontier"], columns))
    demotions = result.get("demotions")
    if demotions:
        sections.append("## Demotions (bigger array beaten by smaller + "
                        "bandwidth)\n\n"
                        + markdown_table(demotions,
                                         ["demoted", "demoted_by",
                                          "latency_ratio",
                                          "memory_bound_layers"]))
    sections.append(f"{len(result['pareto_frontier'])} Pareto-optimal of "
                    f"{result.get('evaluated', len(points))} design points")
    return "\n\n".join(sections)


def render_experiment(identifier: str, result) -> str:
    """Best-effort markdown rendering of any experiment driver's return value."""

    if isinstance(result, Mapping):
        if "pareto_frontier" in result and "points" in result:
            return _render_design_space(result)
        if result and all(isinstance(value, Mapping) for value in result.values()):
            return nested_dict_table(result)
        return nested_dict_table({identifier: result})
    if isinstance(result, Sequence) and not isinstance(result, str):
        if result and isinstance(result[0], Mapping):
            return markdown_table(result)
        rows = [{"index": index, "value": value} for index, value in enumerate(result)]
        return markdown_table(rows, ["index", "value"])
    return format_value(result)
