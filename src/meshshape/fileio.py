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


def _data_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def read_mesh(path):
    """Read ``(complex, coords)`` from a mesh text file.

    Raises :class:`ParseError` on malformed content (wrong counts, bad
    numbers, indices out of range) and propagates the errors of
    :func:`~meshshape.mesh.build_complex` for invalid connectivity.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = list(_data_lines(text))
    if not lines:
        raise ParseError(f"{path}: empty file")

    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"{path}:{lineno}: expected 'N_V N_T' header")
    try:
        n_v, n_t = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: non-integer header") from exc
    if n_v < 0 or n_t < 0:
        raise ParseError(f"{path}:{lineno}: negative counts")
    if len(lines) != 1 + n_v + n_t:
        raise ParseError(
            f"{path}: expected {1 + n_v + n_t} data lines, found {len(lines)}"
        )

    coords = np.empty((n_v, 2))
    for i in range(n_v):
        lineno, line = lines[1 + i]
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'x y'")
        try:
            coords[i, 0] = float(parts[0])
            coords[i, 1] = float(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad coordinate") from exc

    triangles = np.empty((n_t, 3), dtype=np.int64)
    for i in range(n_t):
        lineno, line = lines[1 + n_v + i]
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'i0 i1 i2'")
        try:
            triangles[i] = [int(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad vertex index") from exc
        if triangles[i].min() < 0 or triangles[i].max() >= n_v:
            raise ParseError(f"{path}:{lineno}: vertex index out of range")

    complex = build_complex(triangles, n_v)
    return complex, coords


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
