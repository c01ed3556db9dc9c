"""Dependency-free SVG rendering for regime scans and orbits.

All output is plain hand-assembled SVG so plots are diff-able in tests and
need no raster libraries.
"""

from __future__ import annotations

from .model import TWO_PI

REGIME_COLORS = {
    "InvariantCurve": "#4878cf",
    "PeriodicSink": "#6acc65",
    "TransientChaos": "#d5bb67",
    "StrangeAttractorCandidate": "#d65f5f",
    "Escaped": "#b8b8b8",
}

_PAD = 50.0


def _header(width: float, height: float, provenance: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f"<!-- {provenance} -->",
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
    ]


def _text(x: float, y: float, s: str, size: int = 12, anchor="start") -> str:
    return (f'<text x="{x:g}" y="{y:g}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}">{s}</text>')


def _legend(parts: list[str], x: float, y: float, labels) -> float:
    for lab in labels:
        color = REGIME_COLORS.get(lab, "#000000")
        parts.append(f'<rect x="{x:g}" y="{y:g}" width="14" height="14" '
                     f'fill="{color}"/>')
        parts.append(_text(x + 20, y + 12, lab))
        y += 20
    return y


def regime_map_svg(result, provenance: str = "") -> str:
    """Colored (lambda, K_omega) grid with a legend; one rect per cell."""
    n_lam, n_k = len(result.lam_grid), len(result.k_grid)
    cell = 36.0
    width = _PAD * 2 + cell * n_lam + 220
    height = _PAD * 2 + cell * n_k
    parts = _header(width, height, provenance)
    labels_seen = []
    for i in range(n_lam):
        for j in range(n_k):
            c = result.cells[i][j]
            color = REGIME_COLORS.get(c.label, "#000000")
            if c.label not in labels_seen:
                labels_seen.append(c.label)
            x = _PAD + i * cell
            y = _PAD + (n_k - 1 - j) * cell
            parts.append(f'<rect x="{x:g}" y="{y:g}" width="{cell:g}" '
                         f'height="{cell:g}" fill="{color}" '
                         f'stroke="black" stroke-width="0.5"/>')
    for i, lam in enumerate(result.lam_grid):
        parts.append(_text(_PAD + (i + 0.5) * cell, height - _PAD + 16,
                           f"{lam:g}", 10, "middle"))
    for j, k in enumerate(result.k_grid):
        parts.append(_text(_PAD - 6, _PAD + (n_k - 1 - j + 0.6) * cell,
                           f"{k:g}", 10, "end"))
    parts.append(_text(width / 2 - 110, height - 12, "lambda", 12, "middle"))
    parts.append(_text(14, _PAD - 14, "K_omega"))
    _legend(parts, _PAD + cell * n_lam + 20, _PAD, labels_seen)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def orbit_scatter_svg(points, provenance: str = "", title: str = "") -> str:
    """Scatter of orbit points (x, y) with data-driven axis ranges."""
    w, h = 560.0, 360.0
    width, height = w + 2 * _PAD, h + 2 * _PAD
    parts = _header(width, height, provenance)
    ys = [p[1] for p in points]
    ylo, yhi = min(ys), max(ys)
    if yhi - ylo < 1e-300:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad_y = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad_y, yhi + pad_y
    parts.append(f'<rect x="{_PAD:g}" y="{_PAD:g}" width="{w:g}" '
                 f'height="{h:g}" fill="none" stroke="black"/>')
    if title:
        parts.append(_text(width / 2, _PAD - 10, title, 12, "middle"))
    for x, y in points:
        px = _PAD + w * float(x) / TWO_PI
        py = _PAD + h * (1.0 - (float(y) - ylo) / (yhi - ylo))
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="1" '
                     'fill="#4878cf"/>')
    parts.append(_text(width / 2, height - 10, "x", 12, "middle"))
    parts.append(_text(12, _PAD - 10, "y"))
    parts.append(_text(_PAD, height - _PAD + 16, "0", 10, "middle"))
    parts.append(_text(_PAD + w, height - _PAD + 16, "2pi", 10, "middle"))
    parts.append(_text(_PAD - 6, _PAD + h, f"{ylo:.3g}", 10, "end"))
    parts.append(_text(_PAD - 6, _PAD + 10, f"{yhi:.3g}", 10, "end"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
