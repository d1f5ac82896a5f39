import numpy as np
import pytest

from meshshape.errors import NotPure, ParseError
from meshshape.fileio import read_mesh, write_mesh, write_svg
from meshshape.mesh import make_disc_mesh


def test_round_trip(tmp_path, square5):
    cx, q = square5
    path = tmp_path / "m.mesh"
    write_mesh(path, cx, q)
    rcx, rq = read_mesh(path)
    assert np.array_equal(rcx.triangles, cx.triangles)
    assert np.max(np.abs(rq - q)) <= 1e-15


def test_round_trip_full_precision(tmp_path):
    cx, q = make_disc_mesh(3)
    path = tmp_path / "m.mesh"
    write_mesh(path, cx, q)
    _, rq = read_mesh(path)
    assert np.array_equal(rq, q)  # repr round-trips doubles exactly


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.mesh"
    path.write_text("# comment\n3 1\n0 0\n\n1 0\n0 1\n# another\n0 1 2\n")
    cx, q = read_mesh(path)
    assert cx.num_triangles == 1


def test_index_out_of_range(tmp_path):
    path = tmp_path / "m.mesh"
    path.write_text("3 1\n0 0\n1 0\n0 1\n0 1 3\n")
    with pytest.raises(ParseError):
        read_mesh(path)


def test_wrong_counts(tmp_path):
    path = tmp_path / "m.mesh"
    path.write_text("3 2\n0 0\n1 0\n0 1\n0 1 2\n")
    with pytest.raises(ParseError):
        read_mesh(path)


def test_bad_number(tmp_path):
    path = tmp_path / "m.mesh"
    path.write_text("3 1\n0 zero\n1 0\n0 1\n0 1 2\n")
    with pytest.raises(ParseError):
        read_mesh(path)


# Each case: the data lines of a malformed mesh after a comment and a blank line, the line the
# error names and what it says that line should hold.
MALFORMED_LINES = {
    "header-fields": ("3\n0 0\n1 0\n0 1\n0 1 2\n", 3, "2 integers 'N_V N_T'"),
    "header-number": ("3 one\n0 0\n1 0\n0 1\n0 1 2\n", 3, "2 integers 'N_V N_T'"),
    "header-negative": ("-1 5\n0 0\n1 0\n0 1\n0 1 2\n", 3, "2 nonnegative integers 'N_V N_T'"),
    "header-count": ("3 2\n0 0\n1 0\n0 1\n0 1 2\n", 3, "count the 4 data lines after it"),
    "coordinate-fields": ("3 1\n0 0\n1 0 0\n0 1\n0 1 2\n", 5, "2 numbers 'x y'"),
    "coordinate-number": ("3 1\n0 0\n1 zero\n0 1\n0 1 2\n", 5, "2 numbers 'x y'"),
    "triangle-fields": ("3 1\n0 0\n1 0\n0 1\n0 1\n", 7, "3 integers 'i0 i1 i2'"),
    "triangle-number": ("3 1\n0 0\n1 0\n0 1\n0 1 2.0\n", 7, "3 integers 'i0 i1 i2'"),
    "triangle-range": ("4 2\n0 0\n1 0\n0 1\n1 1\n0 1 2\n1 3 -1\n", 9, "3 vertex indices from 0 to 3"),
}


@pytest.mark.parametrize("text,lineno,holds", MALFORMED_LINES.values(), ids=MALFORMED_LINES.keys())
def test_malformed_line_names_its_line(tmp_path, text, lineno, holds):
    path = tmp_path / "m.mesh"
    path.write_text("# comment\n\n" + text)
    with pytest.raises(ParseError) as info:
        read_mesh(path)
    assert str(info.value).startswith(f"{path}:{lineno}: expected ")
    assert holds in str(info.value)


def test_empty_triangle_section(tmp_path):
    path = tmp_path / "m.mesh"
    path.write_text("3 0\n0 0\n1 0\n0 1\n")
    with pytest.raises(NotPure):
        read_mesh(path)


def test_svg_output(tmp_path, square5):
    cx, q = square5
    path = tmp_path / "m.svg"
    write_svg(path, cx, q)
    text = path.read_text()
    assert text.count("<line") == len(cx.edges)
    assert "viewBox" in text


def _loop_write_mesh(path, complex, coords):
    # The writer as it was, one numpy scalar at a time: the byte reference.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{complex.num_vertices} {complex.num_triangles}\n")
        for x, y in coords:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for a, b, c in complex.triangles:
            fh.write(f"{a} {b} {c}\n")


def _loop_write_svg(path, complex, coords):
    # The SVG writer as it was, indexing ``coords`` once per edge endpoint.
    xmin, ymin = coords.min(axis=0)
    xmax, ymax = coords.max(axis=0)
    w = max(xmax - xmin, 1e-12)
    h = max(ymax - ymin, 1e-12)
    pad_x, pad_y = 0.05 * w, 0.05 * h
    view = (xmin - pad_x, -(ymax + pad_y), w + 2 * pad_x, h + 2 * pad_y)
    stroke = 0.002 * max(w, h)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{view[0]:.6g} {view[1]:.6g} {view[2]:.6g} {view[3]:.6g}">\n'
    ]
    for a, b in complex.edges:
        x1, y1 = coords[a]
        x2, y2 = coords[b]
        parts.append(
            f'<line x1="{x1:.8g}" y1="{-y1:.8g}" x2="{x2:.8g}" y2="{-y2:.8g}" '
            f'stroke="black" stroke-width="{stroke:.4g}"/>\n'
        )
    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))


@pytest.mark.parametrize("mesh", ["square5", "disc3"])
def test_writers_match_scalar_loops(tmp_path, mesh, request, rng):
    cx, q = request.getfixturevalue(mesh)
    q = q.copy()
    q[cx.interior_vertices] += rng.uniform(-0.01, 0.01, size=(len(cx.interior_vertices), 2))
    q[0] = (0.0, -0.0)  # signed zeros print as "0.0"/"-0.0" and "0"/"-0"
    for new, old, name in ((write_mesh, _loop_write_mesh, "m.mesh"), (write_svg, _loop_write_svg, "m.svg")):
        new(tmp_path / f"new-{name}", cx, q)
        old(tmp_path / f"old-{name}", cx, q)
        assert (tmp_path / f"new-{name}").read_bytes() == (tmp_path / f"old-{name}").read_bytes()
