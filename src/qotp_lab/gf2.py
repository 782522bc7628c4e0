"""GF(2) linear algebra on integer bitmasks.

Vectors over GF(2) are Python integers (bit j = coordinate j), matrices are
lists of row masks.  Everything here is exact and allocation-light; it backs
the symbolic code/trap classification paths.
"""

from __future__ import annotations


def dot(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


def rref(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column per row).
    """
    reduced: list[int] = []
    pivots: list[int] = []
    for row in rows:
        for r, p in zip(reduced, pivots):
            if (row >> p) & 1:
                row ^= r
        if row == 0:
            continue
        p = row.bit_length() - 1  # leading (highest) set bit as pivot
        keep_r, keep_p = [], []
        for r, q in zip(reduced, pivots):
            if (r >> p) & 1:
                r ^= row
            keep_r.append(r)
            keep_p.append(q)
        reduced = keep_r + [row]
        pivots = keep_p + [p]
    return reduced, pivots


def relations(vectors: list[int]) -> list[int]:
    """Basis of the linear relations among ``vectors``: masks c whose
    selected vectors (bit u of c selects vectors[u]) XOR to zero."""
    pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (vector, c)
    basis = []
    for u, v in enumerate(vectors):
        c = 1 << u
        while v:
            p = v.bit_length() - 1
            if p not in pivots:
                pivots[p] = (v, c)
                break
            pv, pc = pivots[p]
            v ^= pv
            c ^= pc
        else:
            basis.append(c)
    return basis
