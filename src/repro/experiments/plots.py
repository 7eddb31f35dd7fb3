"""Terminal plotting: ASCII line charts for convergence curves.

The repository has no plotting dependency, so the figures the paper
draws as line charts (Figure 7's RMSE-vs-epoch and RMSE-vs-time) are
rendered as fixed-width ASCII — good enough to *see* the crossovers the
tests assert, in any terminal or CI log.

``repro reproduce fig7`` draws Figure 7d-f's charts with it;
``tests/test_experiments_plots.py`` checks the rendering.
"""

from __future__ import annotations

from typing import Mapping, Sequence

#: glyphs assigned to series, in order
_GLYPHS = "*+ox#@%&"


def ascii_line_chart(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    width: int = 68,
    height: int = 18,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render ``{name: (xs, ys)}`` as an ASCII chart.

    Each series gets a glyph; later series overwrite earlier ones on
    collisions (draw the most important last).  Axes are linear and
    annotated with their ranges.
    """
    if width < 20 or height < 5:
        raise ValueError("chart too small")
    if not series:
        raise ValueError("no series to plot")
    for name, (xs, ys) in series.items():
        if len(xs) != len(ys):
            raise ValueError(f"series {name!r}: x/y length mismatch")
        if len(xs) == 0:
            raise ValueError(f"series {name!r} is empty")

    all_x = [v for xs, _ in series.values() for v in xs]
    all_y = [v for _, ys in series.values() for v in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    x_span = max(x_hi - x_lo, 1e-12)
    y_span = max(y_hi - y_lo, 1e-12)

    grid = [[" "] * width for _ in range(height)]
    legend = []
    for idx, (name, (xs, ys)) in enumerate(series.items()):
        glyph = _GLYPHS[idx % len(_GLYPHS)]
        legend.append(f"{glyph} {name}")
        prev: tuple[int, int] | None = None
        for x, y in zip(xs, ys):
            col = int((x - x_lo) / x_span * (width - 1))
            row = height - 1 - int((y - y_lo) / y_span * (height - 1))
            if prev is not None:
                # connect with a straight segment so sparse curves read
                pr, pc = prev
                steps = max(abs(col - pc), abs(row - pr), 1)
                for s in range(steps + 1):
                    rr = round(pr + (row - pr) * s / steps)
                    cc = round(pc + (col - pc) * s / steps)
                    grid[rr][cc] = glyph
            else:
                grid[row][col] = glyph
            prev = (row, col)

    lines = [f"{y_hi:10.4g} +" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append(" " * 10 + " |" + "".join(row))
    lines.append(f"{y_lo:10.4g} +" + "".join(grid[-1]))
    lines.append(
        " " * 12 + f"{x_lo:<10.4g}{x_label:^{max(width - 20, 1)}}{x_hi:>10.4g}"
    )
    lines.append(" " * 12 + f"[{y_label}]   " + "   ".join(legend))
    return "\n".join(lines)


def convergence_chart(
    curves: Mapping[str, Mapping[str, Sequence[float]]],
    against: str = "epoch",
    width: int = 68,
    height: int = 16,
) -> str:
    """Chart Figure 7-style curves: ``{method: {"rmse": [...], "time": [...]}}``.

    ``against='epoch'`` plots RMSE vs epoch (Fig. 7a-c); ``'time'``
    plots RMSE vs the modeled time axis (Fig. 7d-f).
    """
    series: dict[str, tuple[Sequence[float], Sequence[float]]] = {}
    for name, data in curves.items():
        rmse = data["rmse"]
        if against == "epoch":
            xs: Sequence[float] = list(range(1, len(rmse) + 1))
        elif against == "time":
            xs = data["time"]
        else:
            raise ValueError("against must be 'epoch' or 'time'")
        series[name] = (xs, rmse)
    return ascii_line_chart(
        series, width=width, height=height,
        x_label=against, y_label="RMSE",
    )
