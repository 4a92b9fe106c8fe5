"""Per-mask enumeration of small graphs: the tests' independent oracle.

A graph on n vertices is an edge-subset mask over the pairs of K_n in
lexicographic (i < j) order, the order of ``DenseGraph.from_mask``. The
per-mask (edges, triangles) tables cover every mask for n <= 7 (2^21 entries
at n = 7); the canonical log-weights over them are the reference for the
library's cell-based exact ensembles.

The library reads the density of states N_n(e, t), n = 1..8, from the
committed module ``ergraphon._dos_cells``. This module builds it and, run as
a script, prints that module:

    python tests/enum_oracle.py > src/ergraphon/_dos_cells.py
"""

import math
import sys
from functools import lru_cache
from itertools import combinations

import numpy as np

DOS_MAX_N = 8


def pairs(n: int) -> list:
    return list(combinations(range(n), 2))


def popcount_u32(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint32, copy=True)
    v = v - ((v >> np.uint32(1)) & np.uint32(0x55555555))
    v = (v & np.uint32(0x33333333)) + ((v >> np.uint32(2)) & np.uint32(0x33333333))
    v = (v + (v >> np.uint32(4))) & np.uint32(0x0F0F0F0F)
    return ((v * np.uint32(0x01010101)) >> np.uint32(24)).astype(np.int64)


def triangle_masks(n: int) -> list:
    bit = {p: b for b, p in enumerate(pairs(n))}
    masks = []
    for i, j, k in combinations(range(n), 3):
        masks.append((1 << bit[(i, j)]) | (1 << bit[(j, k)]) | (1 << bit[(i, k)]))
    return masks


@lru_cache(maxsize=8)
def enum_tables(n: int) -> tuple:
    """(edge counts, triangle counts) for every graph mask on n vertices, n <= 7."""
    m = n * (n - 1) // 2
    masks = np.arange(1 << m, dtype=np.uint32)
    edges = popcount_u32(masks)
    tris = np.zeros(masks.size, dtype=np.int16)
    for tm in triangle_masks(n):
        tm = np.uint32(tm)
        tris += ((masks & tm) == tm).astype(np.int16)
    return edges, tris


def log_weights(n: int, theta) -> tuple:
    """(log canonical weights over all masks, psi_n)."""
    edges, tris = enum_tables(n)
    th1, th2 = float(theta[0]), float(theta[1])
    # n^2 theta . T(G) = 2 th1 C1 + (6/n) th2 C3
    h = 2.0 * th1 * edges + (6.0 / n) * th2 * tris
    hmax = float(h.max())
    logz = hmax + math.log(float(np.exp(h - hmax).sum()))
    psi = logz / n ** 2
    return h - logz, psi


def dos_by_vertex(n: int) -> tuple:
    """Density of states N_n(e, t) as (edges, triangles, counts) over its nonzero cells.

    1 <= n <= DOS_MAX_N; cells in row-major (e, t) order. Vertex n - 1 is
    added to every graph G on n - 1 vertices: a neighbourhood S of size k
    adds k edges and e(G[S]) triangles. Relabelling maps any k-set onto
    {0, ..., k - 1} and keeps the joint law of (e(G), t(G), e(G[S])), so one
    representative S per size, weighted by C(n - 1, k), stands for all
    2^(n-1) neighbourhoods.
    """
    edges, tris = enum_tables(n - 1)
    masks = np.arange(edges.size, dtype=np.uint32)
    bit = {p: b for b, p in enumerate(pairs(n - 1))}
    width = math.comb(n, 3) + 1
    base = edges * width + tris
    table = np.zeros((n * (n - 1) // 2 + 1, width), dtype=np.int64)
    for k in range(n):
        inside = np.uint32(sum(1 << bit[p] for p in combinations(range(k), 2)))
        hist = np.bincount(base + popcount_u32(masks & inside), minlength=table.size)
        table[k:] += math.comb(n - 1, k) * hist.reshape(table.shape)[: table.shape[0] - k]
    e, t = np.nonzero(table)
    return e, t, table[e, t]


def _wrapped(items: list, indent: str, width: int = 79) -> list:
    """``items`` joined by ", " and packed greedily into lines of at most ``width``."""
    lines, line = [], indent
    for item in items:
        if line != indent and len(line) + len(item) + 1 > width:
            lines.append(line.rstrip())
            line = indent
        line += item + ", "
    lines.append(line.rstrip())
    return lines


def dos_cells_source() -> str:
    """Text of ``src/ergraphon/_dos_cells.py``: N_1..N_8 as (e, t, count) cells."""
    out = [
        '"""Density of states N_n(e, t), n = 1..8, as nonzero (e, t, count) cells.',
        "",
        "Generated by tests/enum_oracle.py; do not edit. Regenerate with",
        "",
        "    python tests/enum_oracle.py > src/ergraphon/_dos_cells.py",
        "",
        "Cells are in row-major (edges, triangles) order. Loaded lazily by",
        "ergraphon.ensembles._dos.",
        '"""',
        "",
        "CELLS = {",
    ]
    for n in range(1, DOS_MAX_N + 1):
        cells = [f"({e}, {t}, {c})" for e, t, c in zip(*dos_by_vertex(n))]
        out.append(f"    {n}: (")
        out.extend(_wrapped(cells, " " * 8))
        out.append("    ),")
    out.append("}")
    return "\n".join(out) + "\n"


if __name__ == "__main__":
    sys.stdout.write(dos_cells_source())
