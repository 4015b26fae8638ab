"""Byte-stable SVG and CSV emission for suite reports.

Hand-rolled SVG keeps output deterministic: identical inputs produce
identical bytes (no timestamps, no library version strings).
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

DOMINANCE_CLASSES = ("diagonal", "gaussian", "jump")
DOMINANCE_COLORS = {"diagonal": "#1f3b70", "gaussian": "#2e8b57", "jump": "#d2691e"}
_CHUNK = 8192   # rows or rects per write
CELL = 4        # side of a heatmap cell, px


def svg_heatmap(labels, path, title: str = "dominance map"):
    """Categorical heatmap of dominance labels (0 diagonal, 1 gaussian,
    2 jump), ``CELL`` px a cell, with all three classes in the legend.
    Each horizontal run of equal labels is one rect; the rects are written
    one class and one bounded batch at a time."""
    labels = np.asarray(labels)
    h, w = labels.shape
    width = w * CELL + 160
    height = max(h * CELL, 70) + 30
    # a run starts at each row's first cell and wherever the label changes
    starts = np.ones((h, w), dtype=bool)
    starts[:, 1:] = labels[:, 1:] != labels[:, :-1]
    ys, xs = np.nonzero(starts)
    lengths = np.diff(ys * w + xs, append=h * w)
    kinds = labels[ys, xs]
    with open(path, "w") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                 f'height="{height}">\n<title>{title}</title>\n')
        for k, name in enumerate(DOMINANCE_CLASSES):
            fh.write(f'<g class="region-{name}">\n')
            rect = (f'<rect x="{{}}" y="{{}}" width="{{}}" height="{CELL}" '
                    f'fill="{DOMINANCE_COLORS[name]}"/>\n')
            sel = np.nonzero(kinds == k)[0]
            for lo in range(0, len(sel), _CHUNK):
                part = sel[lo:lo + _CHUNK]
                fh.write("".join(map(rect.format, (xs[part] * CELL).tolist(),
                                     (ys[part] * CELL).tolist(),
                                     (lengths[part] * CELL).tolist())))
            fh.write("</g>\n")
        for k, name in enumerate(DOMINANCE_CLASSES):
            y0 = 20 + 18 * k
            fh.write(
                f'<rect x="{w * CELL + 12}" y="{y0}" width="12" height="12" '
                f'fill="{DOMINANCE_COLORS[name]}" class="legend-{name}"/>\n'
                f'<text x="{w * CELL + 30}" y="{y0 + 11}" font-size="12" '
                f'font-family="monospace">{name}</text>\n'
            )
        fh.write("</svg>\n")


def svg_curves(series, path, title: str = "curves"):
    """520 x 320 log10-y polyline plot of (label, xs, ys) ``series``."""
    width, height = 520, 320
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">',
        f'<title>{title}</title>',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    curves = [[(x, np.log10(y)) for x, y in zip(xs, ys)
               if np.isfinite(y) and y > 0.0] for _, xs, ys in series]
    pts_all = [p for curve in curves for p in curve]
    if pts_all:
        xv, yv = zip(*pts_all)
        x0, x1 = min(xv), max(xv)
        y0, y1 = min(yv), max(yv)
        x1 = x1 if x1 > x0 else x0 + 1.0
        y1 = y1 if y1 > y0 else y0 + 1.0
        colors = ["#1f3b70", "#d2691e", "#2e8b57", "#8b1f70", "#707070"]
        for k, ((label, _, _), curve) in enumerate(zip(series, curves)):
            pts = [f"{40 + (x - x0) / (x1 - x0) * (width - 60):.2f},"
                   f"{height - 25 - (y - y0) / (y1 - y0) * (height - 50):.2f}"
                   for x, y in curve]
            col = colors[k % len(colors)]
            if pts:
                parts.append(
                    f'<polyline points="{" ".join(pts)}" fill="none" '
                    f'stroke="{col}" stroke-width="1.5"/>'
                )
            parts.append(
                f'<text x="45" y="{18 + 14 * k}" font-size="11" '
                f'font-family="monospace" fill="{col}">{label}</text>'
            )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def write_rows_csv(rows, path):
    """Flat CSV from a list of dict rows (nested values skipped), one
    column at a time and one bounded batch of rows at a time.  Cells that
    hold a comma, a quote or a line break are quoted as in RFC 4180."""
    flat = [r for r in rows if isinstance(r, dict)]
    types = set(map(type, chain.from_iterable(map(dict.values, flat))))
    if any(issubclass(t, (list, dict)) for t in types):
        flat = [r for r in flat
                if all(not isinstance(v, (list, dict)) for v in r.values())]
    if not flat:
        return False
    keys = sorted(set(chain.from_iterable(flat)))
    with open(path, "w") as fh:
        fh.write(",".join(map(_quote, keys)) + "\n")
        for lo in range(0, len(flat), _CHUNK):
            part = flat[lo:lo + _CHUNK]
            cols = [_column(list(map(dict.get, part, repeat(k)))) for k in keys]
            fh.write("\n".join(map(",".join, zip(*cols))) + "\n")
    return True


def _column(values):
    if set(map(type, values)) == {float}:
        return list(map(float.__repr__, values))
    return list(map(_cell, values))


def _cell(v):
    if isinstance(v, np.generic):
        v = v.item()
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return _quote(str(v))


def _quote(text):
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text
