"""Tiny dependency-free SVG scatter for binned correlations.

Writes a fixed-size plot over angles 0..360 degrees: the reference curve
-cos as a polyline and the binned means as circles. Good enough to eyeball
a run; anything fancier belongs in a real plotting package.
"""

from __future__ import annotations

import math
from typing import Sequence

from .oracle import epr_expectation

WIDTH, HEIGHT = 640, 420
MARGIN = 48
ANGLE_MAX = 360.0           # the angle axis runs from 0 to here, in degrees


def _x(angle: float) -> float:
    return MARGIN + angle / ANGLE_MAX * (WIDTH - 2 * MARGIN)


def _y(value: float) -> float:
    # correlation axis fixed to [-1.1, 1.1]
    return MARGIN + (1.1 - value) / 2.2 * (HEIGHT - 2 * MARGIN)


def render_correlation_svg(bins: Sequence, title: str) -> str:
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
        % (WIDTH, HEIGHT),
        '<rect width="100%" height="100%" fill="white"/>',
        '<text x="%d" y="24" font-family="monospace" font-size="14">%s</text>'
        % (MARGIN, title),
    ]
    # axes
    ax = (MARGIN, HEIGHT - MARGIN, WIDTH - MARGIN, HEIGHT - MARGIN)
    parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>' % ax)
    parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
                 % (MARGIN, MARGIN, MARGIN, HEIGHT - MARGIN))
    for v in (-1.0, 0.0, 1.0):
        y = _y(v)
        parts.append(
            '<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#cccccc"/>'
            % (MARGIN, y, WIDTH - MARGIN, y))
        parts.append(
            '<text x="6" y="%.1f" font-family="monospace" font-size="11">'
            '%+.0f</text>' % (y + 4, v))
    step = ANGLE_MAX / 4.0
    for i in range(5):
        a = i * step
        parts.append(
            '<text x="%.1f" y="%d" font-family="monospace" font-size="11">'
            '%.0f</text>' % (_x(a) - 10, HEIGHT - MARGIN + 16, a))

    # reference curve
    pts = []
    n = 240
    for i in range(n + 1):
        a = ANGLE_MAX * i / n
        pts.append("%.2f,%.2f" % (_x(a), _y(epr_expectation(math.radians(a)))))
    parts.append('<polyline points="%s" fill="none" stroke="#1f77b4"/>'
                 % " ".join(pts))

    # binned means: connected line plus markers
    if bins:
        mean_pts = " ".join(
            "%.2f,%.2f" % (_x(b["angle_deg"]), _y(b["mean_corr"]))
            for b in bins)
        parts.append('<polyline points="%s" fill="none" stroke="#d62728"/>'
                     % mean_pts)
    for b in bins:
        parts.append(
            '<circle cx="%.2f" cy="%.2f" r="3" fill="#d62728"/>'
            % (_x(b["angle_deg"]), _y(b["mean_corr"])))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_run_svg(path, summary: dict) -> None:
    """Plot the bins of a run summary, the dict ``stream_trials`` returns."""
    title = "%s run, %d trials, seed %d" % (
        summary["mode"], summary["trials"], summary["seed"])
    svg = render_correlation_svg(summary["bins"], title)
    with open(path, "w") as fh:
        fh.write(svg)
