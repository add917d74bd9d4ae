"""Geometric primitives for netlist extraction.

Everything operates on axis-aligned integer rectangles in database units
(nm), as ``(x0, y0, x1, y1)`` with ``x0 <= x1``, ``y0 <= y1``.  Touch is
the **closed-interval** test: rectangles sharing only an edge or corner
count as connected — the same convention the fabric generator
(:mod:`repro.layout.fabric`) uses when it guarantees foreign nets stay
>= 2 nm apart.

The connectivity kernel works on whole layers at once: each layer is one
``(n, 4)`` int64 array of rects, :func:`touching_pairs` finds every
touching pair between two such arrays with a sort-and-search sweep, and
:func:`components` merges the pairs into connected components labelled
by their lowest element id — a labelling that does not depend on the
order in which pairs are found or merged.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

Rect = tuple[int, int, int, int]

#: Candidate pairs tested per numpy batch.  Bounds the sweep's working
#: memory (a few dozen MB) when a stream's shapes overlap wholesale.
_BATCH = 1 << 20


def touches(a: Rect, b: Rect) -> bool:
    """Closed-interval intersection (edge/corner contact connects)."""
    return (
        a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]
    )


def rect_array(rects: Iterable[Rect]) -> np.ndarray:
    """``(n, 4)`` int64 array of rects (``(0, 4)`` when empty)."""
    return np.array(list(rects), dtype=np.int64).reshape(-1, 4)


def touching_pairs(
    a: np.ndarray, b: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(i, j)`` index arrays, batch by batch, of every pair with
    rect ``a[i]`` touching rect ``b[j]`` (self pairs included when ``a``
    is ``b``).

    ``b`` is sorted by start coordinate along the sweep axis — the axis
    on which the two sides' longest shapes are shortest — and each
    ``a[i]`` selects, by binary search, the ``b`` shapes starting within
    ``[a[i].start - longest b, a[i].end]``; the candidates then take the
    full closed-interval test.  Work is linear in the candidates, so the
    worst case is a layer whose shapes are long on both axes.
    """
    if not len(a) or not len(b):
        return
    longest = (a[:, 2:] - a[:, :2]).max(axis=0)
    longest += (b[:, 2:] - b[:, :2]).max(axis=0)
    axis = 1 if longest[1] < longest[0] else 0
    order = np.argsort(b[:, axis], kind="stable")
    starts = b[order, axis]
    reach = (b[:, axis + 2] - b[:, axis]).max()
    lo = np.searchsorted(starts, a[:, axis] - reach, "left")
    hi = np.searchsorted(starts, a[:, axis + 2], "right")
    counts = hi - lo
    ends = np.cumsum(counts)
    first = 0
    while first < len(a):
        base = int(ends[first - 1]) if first else 0
        last = max(first + 1,
                   int(np.searchsorted(ends, base + _BATCH, "right")))
        n = counts[first:last]
        i = np.repeat(np.arange(first, last), n)
        # Position in ``order`` of each candidate: its row's window
        # start plus its rank within the row.
        skip = lo[first:last] - (ends[first:last] - n - base)
        j = order[np.arange(int(ends[last - 1]) - base) + np.repeat(skip, n)]
        ra, rb = a[i], b[j]
        hit = (
            (ra[:, 0] <= rb[:, 2]) & (rb[:, 0] <= ra[:, 2])
            & (ra[:, 1] <= rb[:, 3]) & (rb[:, 1] <= ra[:, 3])
        )
        yield i[hit], j[hit]
        first = last


def components(
    n: int, pairs: Iterable[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Label each of ``n`` elements with the lowest element id in its
    connected component, given batches of edges ``(a[k], b[k])``.

    The labels form a forest in which every element points at a lower
    (or its own) id, kept flat between merge rounds; each round hooks
    the larger root of every edge that still joins two trees onto the
    smaller.  The root of a component is therefore its lowest id,
    whatever the order of edges.
    """
    label = np.arange(n)
    for a, b in pairs:
        while len(a):
            ra, rb = label[a], label[b]
            join = ra != rb
            if not join.any():
                break
            a, b, ra, rb = a[join], b[join], ra[join], rb[join]
            label[np.maximum(ra, rb)] = np.minimum(ra, rb)
            while True:
                up = label[label]
                if np.array_equal(up, label):
                    break
                label = up
    return label
