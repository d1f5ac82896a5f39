"""Reading and writing the line-oriented mesh text format, plus SVG output.

Format (UTF-8): first line ``N_V N_T``, then ``N_V`` lines ``x y`` with full
precision decimals, then ``N_T`` lines ``i0 i1 i2`` with 0-based vertex
indices.  Lines starting with ``#`` are ignored.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ParseError
from .mesh import ConnectivityComplex, build_complex

HISTORY_HEADER = "iter,Obj,Penalty,Total,mshQua,step,backtracks"
_NOUNS = {int: "integers", float: "numbers"}


def data_lines(path):
    """``(lineno, line)`` for each line of the UTF-8 text file ``path``, stripped, that is
    neither blank nor a ``#`` comment."""
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _fields(path, line, kind, form):
    """The fields of the data line ``(lineno, text)``, each read by ``kind``; the line must hold
    as many as ``form`` names, or the error says what it should hold."""
    lineno, text = line
    parts = text.split()
    try:
        if len(parts) == len(form.split()):
            return [kind(part) for part in parts]
    except ValueError:
        pass
    raise ParseError(f"{path}:{lineno}: expected {len(form.split())} {_NOUNS[kind]} '{form}'")


def read_mesh(path):
    """Read ``(complex, coords)`` from a mesh text file.

    Raises :class:`ParseError`, naming ``path:line``, on malformed content
    (wrong counts, bad numbers, indices out of range) and propagates the
    errors of :func:`~meshshape.mesh.build_complex` for invalid connectivity.
    """
    lines = list(data_lines(path))
    if not lines:
        raise ParseError(f"{path}: empty file, expected an 'N_V N_T' header")
    n_v, n_t = _fields(path, lines[0], int, "N_V N_T")
    if min(n_v, n_t) < 0 or 1 + n_v + n_t != len(lines):
        raise ParseError(f"{path}:{lines[0][0]}: expected 2 nonnegative integers 'N_V N_T' that count "
                         f"the {len(lines) - 1} data lines after it")
    vertices, triangles = lines[1 : 1 + n_v], lines[1 + n_v :]
    coords = np.array([_fields(path, line, float, "x y") for line in vertices]).reshape(n_v, 2)
    triangles = np.array([_fields(path, line, int, "i0 i1 i2") for line in triangles], np.int64).reshape(n_t, 3)
    outside = ((triangles < 0) | (triangles >= n_v)).any(axis=1)
    if outside.any():
        lineno = lines[1 + n_v + int(outside.argmax())][0]
        raise ParseError(f"{path}:{lineno}: expected 3 vertex indices from 0 to {n_v - 1}")
    return build_complex(triangles, n_v), coords


def write_mesh(path, complex: ConnectivityComplex, coords: np.ndarray) -> None:
    """Write a mesh in the text format; round-trips coordinates exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{complex.num_vertices} {complex.num_triangles}\n")
        fh.writelines(f"{x!r} {y!r}\n" for x, y in coords.tolist())
        fh.writelines(f"{a} {b} {c}\n" for a, b, c in complex.triangles.tolist())


def write_svg(path, complex: ConnectivityComplex, coords: np.ndarray) -> None:
    """Render all mesh edges as SVG lines, viewport fitted to the bounding box."""
    xmin, ymin = coords.min(axis=0)
    xmax, ymax = coords.max(axis=0)
    w = max(xmax - xmin, 1e-12)
    h = max(ymax - ymin, 1e-12)
    pad_x, pad_y = 0.05 * w, 0.05 * h
    view = (xmin - pad_x, -(ymax + pad_y), w + 2 * pad_x, h + 2 * pad_y)
    stroke = 0.002 * max(w, h)

    tail = f'stroke="black" stroke-width="{stroke:.4g}"/>\n'
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
            f'viewBox="{view[0]:.6g} {view[1]:.6g} {view[2]:.6g} {view[3]:.6g}">\n'
        )
        # SVG y grows downward; mirror so the drawing matches math orientation.
        fh.writelines(
            f'<line x1="{x1:.8g}" y1="{-y1:.8g}" x2="{x2:.8g}" y2="{-y2:.8g}" {tail}'
            for x1, y1, x2, y2 in coords[complex.edges].reshape(-1, 4).tolist()
        )
        fh.write("</svg>\n")


def format_float(x: float) -> str:
    return repr(float(x))


def write_history(path, history):
    """Write one CSV row per iteration record under :data:`HISTORY_HEADER`."""
    lines = [HISTORY_HEADER]
    for rec in history:
        lines.append(
            f"{rec.iter},{format_float(rec.objective)},{format_float(rec.penalty)},"
            f"{format_float(rec.total)},{format_float(rec.theta)},"
            f"{format_float(rec.step)},{rec.backtracks}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_timing(path, timer):
    """Write the per-phase seconds of a ``PhaseTimer`` as CSV."""
    lines = ["phase,seconds"]
    for name, seconds in timer.seconds.items():
        lines.append(f"{name},{seconds:.6f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
