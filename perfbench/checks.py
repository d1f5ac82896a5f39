"""Result checks for the benchmark, computed apart from the program.

The P1 stiffness, the centroid-rule load, the model right-hand side, the
penalty terms and the signed areas are computed here from coordinates and
triangles alone; nothing in this module imports ``meshshape``.  Each check
returns a list of problems, empty when the result passes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

SQRT3 = math.sqrt(3.0)

# Relative tolerance for the terminal Obj and Total against this module's
# own P1 solve (a different assembly and solver path, same discretization).
VALUE_RTOL = 1e-10
# Fourth-order central differences against shape_derivative +
# penalty_gradient, relative to the sum of |g_i v_i| along the direction.
# The step is a share of the shortest edge; at it the error measured at most
# about 3e-9 on every workload.
DERIVATIVE_RTOL = 1e-6
DERIVATIVE_STEP = 1e-3
DERIVATIVE_DIRECTIONS = 3
# Relative Hamiltonian drift allowed per geodesic integration (largest seen
# on compcomp-disc1 at 1024 steps: about 1.3e-6).
HAMILTONIAN_DRIFT_BOUND = 1e-5
# Experiment 2: the three metrics of one penalty set reach the same Total.
BATCH_TOTAL_AGREEMENT = 1e-3


def signed_areas(coords, triangles):
    p = coords[triangles]
    a = p[:, 1] - p[:, 0]
    b = p[:, 2] - p[:, 0]
    return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])


def model_rhs(x, y):
    """The paper's right-hand side r = 2.5 (x + 0.4 - y^2)^2 + x^2 + y^2 - 1."""
    w = x + 0.4 - y * y
    return 2.5 * w * w + x * x + y * y - 1.0


def boundary_vertices(triangles):
    """Vertices of the edges that belong to exactly one triangle."""
    edges = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    unique, counts = np.unique(edges, axis=0, return_counts=True)
    return np.unique(unique[counts == 1])


def reduced_objective(coords, triangles):
    """Integral of the P1 solution of -Laplace(y) = r, y = 0 on the boundary.

    The element stiffness is ``e_l . e_m / (4 A)`` with ``e_l`` the edge
    opposite local vertex ``l``; the load puts ``A r(centroid) / 3`` on each
    vertex of a triangle.
    """
    n = len(coords)
    p = coords[triangles]
    areas = signed_areas(coords, triangles)
    edges = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]
    k_loc = np.einsum("tld,tmd->tlm", edges, edges) / (4.0 * areas)[:, None, None]
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    stiffness = sparse.csr_matrix((k_loc.ravel(), (rows, cols)), shape=(n, n))
    centroid = p.mean(axis=1)
    load = np.bincount(
        triangles.ravel(),
        weights=np.repeat(areas * model_rhs(centroid[:, 0], centroid[:, 1]) / 3.0, 3),
        minlength=n,
    )
    free = np.setdiff1d(np.arange(n), boundary_vertices(triangles))
    y = np.zeros(n)
    y[free] = spsolve(stiffness[free][:, free].tocsc(), load[free])
    return float(np.sum(areas * y[triangles].mean(axis=1)))


def penalty(coords, qref, triangles, alpha):
    """Mean quality reciprocal, reciprocal total area and reference distance.

    The boundary-proximity weight ``a3`` is zero in every workload and every
    preset of experiment 2; it is not reproduced here.
    """
    a1, a2, a3, a4 = alpha
    if a3 != 0.0:
        raise ValueError("the boundary-proximity term is not reproduced")
    p = coords[triangles]
    areas = signed_areas(coords, triangles)
    edges = p[:, [1, 2, 0]] - p
    quality = np.sum(edges * edges, axis=(1, 2)) / (4.0 * SQRT3 * areas)
    diff = coords - qref
    return float(
        a1 * np.mean(quality) + a2 / np.sum(areas) + 0.5 * a4 * np.sum(diff * diff)
    )


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check_areas(iterates, triangles):
    """Every visited iterate has strictly positive signed areas."""
    problems = []
    for n, coords in enumerate(iterates):
        smallest = float(np.min(signed_areas(coords, triangles)))
        if not smallest > 0.0:
            problems.append(f"iterate {n}: smallest signed area {smallest!r}")
    return problems


def check_armijo(records, sigma):
    """Each accepted step satisfies Total[n+1] <= Total[n] + sigma step pairing.

    ``records`` are rows ``(iter, Obj, Penalty, Total, mshQua, step,
    backtracks, pairing)``; a row with a positive step was accepted and is
    followed by the row of the new iterate.
    """
    problems = []
    for row, nxt in zip(records, records[1:]):
        step, pairing = row[5], row[7]
        if not step > 0.0:
            problems.append(f"row {row[0]} has step {step!r} but is not terminal")
        elif not nxt[3] <= row[3] + sigma * step * pairing:
            problems.append(
                f"step {row[0]}: Total {nxt[3]!r} > {row[3]!r} + {sigma} * {step!r} * {pairing!r}"
            )
    if records and records[-1][5] != 0.0:
        problems.append("terminal row has a nonzero step")
    return problems


def check_terminal_values(coords, qref, triangles, alpha, terminal):
    """Own P1 objective and penalty reproduce the terminal Obj and Total."""
    obj = reduced_objective(coords, triangles)
    total = obj + penalty(coords, qref, triangles, alpha)
    problems = []
    if not _close(obj, terminal[1], VALUE_RTOL):
        problems.append(f"terminal Obj {terminal[1]!r}, own P1 solve gives {obj!r}")
    if not _close(total, terminal[3], VALUE_RTOL):
        problems.append(f"terminal Total {terminal[3]!r}, own evaluation gives {total!r}")
    return problems


def check_derivative(coords, qref, triangles, alpha, gradient, rng):
    """Central differences of the own reduced objective match ``gradient``.

    Each direction moves every vertex by at most the shortest edge length, so
    the difference step is relative to the mesh scale.
    """
    p = coords[triangles]
    shortest = float(np.min(np.linalg.norm(p[:, [1, 2, 0]] - p, axis=2)))
    problems = []
    for k in range(DERIVATIVE_DIRECTIONS):
        v = rng.uniform(-1.0, 1.0, size=coords.shape) * shortest
        def f(t):
            c = coords + t * v
            return reduced_objective(c, triangles) + penalty(c, qref, triangles, alpha)

        h = DERIVATIVE_STEP
        fd = (8.0 * (f(h) - f(-h)) - (f(2.0 * h) - f(-2.0 * h))) / (12.0 * h)
        flat = v.ravel()
        exact = float(gradient @ flat)
        scale = float(np.abs(gradient) @ np.abs(flat))
        if not abs(fd - exact) <= DERIVATIVE_RTOL * scale:
            problems.append(
                f"direction {k}: central difference {fd!r}, derivative {exact!r} (scale {scale:.3e})"
            )
    return problems


def check_geodesics(paths):
    """No area warnings and bounded Hamiltonian drift on every integration.

    ``paths`` are ``(initial H, final H, area warnings, steps)`` tuples.
    """
    problems = []
    for k, (h0, h1, warnings, _steps) in enumerate(paths):
        if warnings:
            problems.append(f"geodesic {k}: {warnings} area warnings")
        drift = abs(h1 - h0) / abs(h0)
        if not drift <= HAMILTONIAN_DRIFT_BOUND:
            problems.append(f"geodesic {k}: relative Hamiltonian drift {drift:.3e}")
    return problems


def check_history_csv(text, records):
    """``history.csv`` holds the run's records, every float in repr form."""
    lines = text.splitlines()
    problems = []
    if lines[0] != "iter,Obj,Penalty,Total,mshQua,step,backtracks":
        problems.append(f"history.csv header {lines[0]!r}")
    if len(lines) - 1 != len(records):
        return problems + [f"history.csv has {len(lines) - 1} rows for {len(records)} iterates"]
    for line, rec in zip(lines[1:], records):
        expected = [str(rec[0])] + [repr(float(x)) for x in rec[1:6]] + [str(rec[6])]
        if line.split(",") != expected:
            problems.append(f"history.csv row {line!r} differs from {expected}")
            break
    return problems


def parse_summary(text):
    """Rows of an experiment ``summary.csv`` as dictionaries keyed by header."""
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_summary_row(row, terminal, status):
    """Every numeric column parses and matches the run's terminal history row.

    Returns ``(problems, known)``: ``known`` lists the Total cells written as
    ``np.float64(<repr>)`` whose inner value matches, a fault of the summary
    formatter under numpy 2 that the benchmark counts as one failed operation.
    """
    problems, known = [], []
    if row["status"] != status:
        problems.append(f"{row['label']}: status {row['status']!r}, run ended {status!r}")
    try:
        if int(row["iterations"]) != terminal[0]:
            problems.append(f"{row['label']}: iterations {row['iterations']!r}")
    except ValueError:
        problems.append(f"{row['label']}: iterations {row['iterations']!r} is not an integer")
    for column, index in (("Obj", 1), ("Total", 3), ("mshQua", 4)):
        cell = row[column]
        try:
            value = float(cell)
        except ValueError:
            inner = cell[len("np.float64("):-1] if cell.startswith("np.float64(") and cell.endswith(")") else None
            if column == "Total" and inner is not None and _parses_to(inner, terminal[index]):
                known.append(f"{row['label']}: Total cell {cell!r} does not parse")
            else:
                problems.append(f"{row['label']}: {column} cell {cell!r} does not parse")
            continue
        if value != terminal[index]:
            problems.append(f"{row['label']}: {column} {value!r} differs from history {terminal[index]!r}")
    return problems, known


def _parses_to(text, expected):
    try:
        return float(text) == expected
    except ValueError:
        return False


def check_batch_agreement(totals):
    """``totals`` maps penalty set to the final Totals of its three variants."""
    problems = []
    for key, values in sorted(totals.items()):
        if max(values) - min(values) > BATCH_TOTAL_AGREEMENT:
            problems.append(f"{key}: final Totals {values} disagree by more than {BATCH_TOTAL_AGREEMENT}")
    return problems
