"""Error-free float transformations (Dekker/Knuth) used by the 2-norm kernels.

Areas of nearly dependent vector pairs cancel catastrophically in plain double
precision, so the norm kernels accumulate in double-double. Every function here
works elementwise on python floats and numpy arrays alike; no branching on
values, so vectorised and scalar evaluation produce bit-identical doubles.
"""

from __future__ import annotations

# Dekker split constant for 53-bit doubles.
_SPLIT = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    """a + b as (rounded sum, exact roundoff)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def two_prod(a, b):
    """a * b as (rounded product, exact roundoff)."""
    p = a * b
    ah = _SPLIT * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLIT * b
    bh = bh - (bh - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def two_square(a):
    """two_prod(a, a) bit for bit, with a split once."""
    p = a * a
    ah = _SPLIT * a
    ah = ah - (ah - a)
    al = a - ah
    return p, ((ah * ah - p) + ah * al + al * ah) + al * al


def dd_add(xh, xl, yh, yl):
    s, e = two_sum(xh, yh)
    e = e + (xl + yl)
    return two_sum(s, e)


def dd_mul(xh, xl, yh, yl):
    p, e = two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return two_sum(p, e)


def dot_dd(xs, ys):
    """Double-double dot product of two coordinate sequences.

    The sequences may hold floats (one point) or same-shape numpy arrays
    (one array per coordinate, many points at once).
    """
    h, l = 0.0, 0.0
    for a, b in zip(xs, ys):
        p, e = two_prod(a, b)
        h, l = dd_add(h, l, p, e)
    return h, l


def det2_dd(a, b, c, d):
    """a*d - b*c with a single final rounding (Kahan-style determinant)."""
    p1, e1 = two_prod(a, d)
    p2, e2 = two_prod(b, c)
    h, _ = dd_add(p1, e1, -p2, -e2)
    return h
