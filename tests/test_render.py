"""The column-wise CSV writer against an in-test copy of the row-by-row
writer it replaced: the bytes must be equal for every row the old writer
already wrote correctly.  Numpy scalars and cells that need quoting are the
two places where the bytes change on purpose.  The SVG heatmap is read back
into the label grid its rects paint, and the curve plot is held to the bytes
of its earlier point-by-point loop on a log y axis."""

import csv
import math
import re

import numpy as np
import pytest

from formlab.render import (CELL, DOMINANCE_CLASSES, DOMINANCE_COLORS,
                            _CHUNK, _cell, svg_curves, svg_heatmap,
                            write_rows_csv)


def old_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def old_write_rows_csv(rows, path):
    flat = [r for r in rows if isinstance(r, dict)
            and all(not isinstance(v, (list, dict)) for v in r.values())]
    if not flat:
        return False
    keys = sorted({k for r in flat for k in r})
    with open(path, "w") as fh:
        fh.write(",".join(keys) + "\n")
        for r in flat:
            fh.write(",".join(old_cell(r.get(k)) for k in keys) + "\n")
    return True


SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-320, 0.1, -2.5e300]


def mixed_rows(count):
    rng = np.random.RandomState(count)
    rows = []
    for i in range(count):
        row = {"t": SPECIAL[i % len(SPECIAL)],
               "base": float(rng.standard_normal()),
               "fn": i % 7}
        if i % 5 == 0:
            row["x0"] = None
        if i % 11 == 0:
            row["fn"] = 1.5            # a float among ints
        if i % 13 == 0:
            row["label"] = "worst"
        if i % 17 == 0:
            row["trace"] = [1.0, 2.0]  # nested: the row is skipped
        rows.append(row)
    return rows + ["not a row", 3]


def written(writer, rows, tmp_path, name):
    path = tmp_path / name
    return writer(rows, path), (path.read_bytes() if path.exists() else None)


@pytest.mark.parametrize("count", [1, 40, 2 * _CHUNK + 5])
def test_csv_bytes_equal_row_writer(tmp_path, count):
    rows = mixed_rows(count)
    assert (written(write_rows_csv, rows, tmp_path, "new.csv")
            == written(old_write_rows_csv, rows, tmp_path, "old.csv"))


def test_csv_float_only_and_empty_tables(tmp_path):
    rows = [{"t": 1.0, "m": m, "base": abs(m) ** 0.5} for m in SPECIAL * 3]
    assert (written(write_rows_csv, rows, tmp_path, "new.csv")
            == written(old_write_rows_csv, rows, tmp_path, "old.csv"))
    for rows in ([], [{"a": [1]}], ["x"]):
        assert written(write_rows_csv, rows, tmp_path, "e.csv") == (False, None)


def test_numpy_scalars_written_as_python_values():
    assert _cell(np.float64(1.2599210498948732)) == "1.2599210498948732"
    assert _cell(np.float64(-0.0)) == "-0.0"
    assert _cell(np.int64(9)) == "9"
    assert _cell(np.bool_(True)) == "True"
    assert _cell(np.float64(np.nan)) == "nan"


def test_cells_quoted_as_rfc4180(tmp_path):
    text = 'Traceback (most recent call last):\n  File "x.py", line 1\nValueError: a, b'
    rows = [{"traceback": text, "n": 1}, {"traceback": "plain", "n": 2}]
    path = tmp_path / "q.csv"
    assert write_rows_csv(rows, path)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert back == [{"n": "1", "traceback": text}, {"n": "2", "traceback": "plain"}]
    assert _cell('b,"c"') == '"b,""c"""'


RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" '
                  r'height="(\d+)" fill="(#[0-9a-f]{6})"/>')


def old_svg_curves(series, path, title):
    width, height = 520, 320
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">',
        f'<title>{title}</title>',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    pts_all = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)
               if np.isfinite(y) and y > 0.0]
    if pts_all:
        xv = [p[0] for p in pts_all]
        yv = [np.log10(p[1]) for p in pts_all]
        x0, x1 = min(xv), max(xv)
        y0, y1 = min(yv), max(yv)
        x1 = x1 if x1 > x0 else x0 + 1.0
        y1 = y1 if y1 > y0 else y0 + 1.0
        colors = ["#1f3b70", "#d2691e", "#2e8b57", "#8b1f70", "#707070"]
        for k, (label, xs, ys) in enumerate(series):
            pts = []
            for x, y in zip(xs, ys):
                if not np.isfinite(y) or y <= 0.0:
                    continue
                yy = np.log10(y)
                px = 40 + (x - x0) / (x1 - x0) * (width - 60)
                py = height - 25 - (yy - y0) / (y1 - y0) * (height - 50)
                pts.append(f"{px:.2f},{py:.2f}")
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


@pytest.mark.parametrize("series", [
    [],
    [("flat", [0, 1], [2.0, 2.0])],
    [("dropped", [0, 1, 2], [0.0, -1.0, math.nan])],
    [("a", np.arange(len(SPECIAL)), np.array(SPECIAL)),
     ("b", [0.5, 1.5, 2.5], [1e-12, 3.0, math.inf]),
     ("empty", [], [])] * 2,
])
def test_svg_curves_bytes_equal_point_loop(tmp_path, series):
    svg_curves(series, tmp_path / "new.svg", title="t")
    old_svg_curves(series, tmp_path / "old.svg", title="t")
    assert ((tmp_path / "new.svg").read_bytes()
            == (tmp_path / "old.svg").read_bytes())


def rasterise(svg, shape, cell):
    """The label grid the region rects of ``svg`` paint, -1 where none
    does; each rect must be ``cell`` high, cover whole cells and paint
    cells no other rect paints."""
    grid = np.full(shape, -1)
    groups = re.findall(r'<g class="region-(\w+)">\n(.*?)</g>', svg, re.S)
    assert [name for name, _ in groups] == list(DOMINANCE_CLASSES)
    for k, (name, body) in enumerate(groups):
        rects = RECT.findall(body)
        assert len(rects) == body.count("<rect")
        for x, y, width, height, fill in rects:
            x, y, width = int(x), int(y), int(width)
            assert int(height) == cell and fill == DOMINANCE_COLORS[name]
            assert x % cell == y % cell == width % cell == 0 and width > 0
            row = grid[y // cell, x // cell:(x + width) // cell]
            assert row.size == width // cell and (row == -1).all()
            row[:] = k
    return grid


@pytest.mark.parametrize("shape", [(1, 1), (37, 53), (200, 200)])
def test_svg_heatmap_rasterises_to_labels(tmp_path, shape):
    labels = np.random.RandomState(shape[0]).randint(0, 3, size=shape)
    labels[0, 0] = 2
    if shape == (200, 200):
        # more runs of each class than one write batch
        starts = np.ones(shape, dtype=bool)
        starts[:, 1:] = labels[:, 1:] != labels[:, :-1]
        assert np.bincount(labels[starts]).min() > _CHUNK
    path = tmp_path / "map.svg"
    svg_heatmap(labels, path, title="t=0.5")
    svg = path.read_text()
    assert (rasterise(svg, shape, CELL) == labels).all()
    # one rect per horizontal run: no two rects of a row could merge
    runs = shape[0] + int((labels[:, 1:] != labels[:, :-1]).sum())
    assert svg.count("<rect") == runs + len(DOMINANCE_CLASSES)   # + legend
    h, w = shape
    assert svg.startswith(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w * CELL + 160}" '
        f'height="{max(h * CELL, 70) + 30}">\n<title>t=0.5</title>\n')
    for name in DOMINANCE_CLASSES:
        assert f'class="legend-{name}"' in svg
