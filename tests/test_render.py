"""The column-wise CSV writer against an in-test copy of the row-by-row
writer it replaced: the bytes must be equal for every row the old writer
already wrote correctly.  Numpy scalars and cells that need quoting are the
two places where the bytes change on purpose.  The SVG heatmap is read back
into the label grid its rects paint."""

import csv
import math
import re

import numpy as np
import pytest

from formlab.render import (DOMINANCE_CLASSES, DOMINANCE_COLORS, _CHUNK,
                            _cell, svg_heatmap, write_rows_csv)


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


@pytest.mark.parametrize("shape,cell", [((1, 1), 4), ((37, 53), 4),
                                        ((200, 200), 3)])
def test_svg_heatmap_rasterises_to_labels(tmp_path, shape, cell):
    # the 200 x 200 map has more runs of each class than one write batch
    labels = np.random.RandomState(shape[0]).randint(0, 3, size=shape)
    labels[0, 0] = 2
    path = tmp_path / "map.svg"
    svg_heatmap(labels, path, cell=cell, title="t=0.5")
    svg = path.read_text()
    assert (rasterise(svg, shape, cell) == labels).all()
    # one rect per horizontal run: no two rects of a row could merge
    runs = shape[0] + int((labels[:, 1:] != labels[:, :-1]).sum())
    assert svg.count("<rect") == runs + len(DOMINANCE_CLASSES)   # + legend
    h, w = shape
    assert svg.startswith(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w * cell + 160}" '
        f'height="{max(h * cell, 70) + 30}">\n<title>t=0.5</title>\n')
    for name in DOMINANCE_CLASSES:
        assert f'class="legend-{name}"' in svg
