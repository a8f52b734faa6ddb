"""Error bounds of the float32 screens that ranking and block scoring use.

Both screens project entity rows through (n, n) matrices in float32 and
take ell norms of the difference vectors; the bound here covers one such
energy.  Ranking compares it with a threshold, block scoring sums it into
hinge costs; each caller states how it uses the bound.
"""

from __future__ import annotations

import numpy as np

_U32 = 2.0**-24  # float32 unit roundoff
# largest norm the float32 screens take: every value they form, squares
# included, then stays far inside float32's range
_NORM_LIMIT = 2.0**60
_ROW_BLOCK = 4096  # rows per block of _max_row_norm


def _matrix_norm(w: np.ndarray, ell: int) -> float:
    """Bound on the ell-operator norm of |W|: its largest column ell-1 norm
    for ell 1; for ell 2 the geometric mean of that and its largest row
    ell-1 norm, which bounds the spectral norm."""
    a = np.abs(w)
    col = a.sum(axis=0).max()
    return float(col if ell == 1 else np.sqrt(col * a.sum(axis=1).max()))


def _max_row_norm(rows: np.ndarray, ell: int) -> float:
    """Largest ell-norm of a row (NaN if any entry is), taken a block of
    rows at a time so that no temporary the size of ``rows`` is made."""
    return float(np.max([np.linalg.norm(rows[lo:lo + _ROW_BLOCK], ord=ell, axis=1).max()
                         for lo in range(0, len(rows), _ROW_BLOCK)], initial=0.0))


def _error_bound(n: int, w_norm, ent_norm, fixed_norm):
    """δ: a screened energy is no further than δ from its float64 re-score.

    Let x = W e + f be an exact difference vector (W, e, f the float64
    values: W a projection, transe takes W = I; e an entity row; f a fixed
    vector), X = ‖x‖ its exact energy and a = |W||e| + |f| ≥ |x|.  With
    u = 2⁻²⁴ and γ_k = ku / (1 - ku), for which γ_a + γ_b + γ_a γ_b ≤ γ_{a+b}:

    - rounding W and e to float32 and the n-term GEMM, in any order and
      with or without FMA, leave the projected coordinates within
      γ_{n+2}|W||e| of W e; rounding f and the add leave d within γ_{n+4} a
      of x;
    - ell 1: ‖a‖₁ ≤ B = (max column ell-1 norm of W)·‖e‖₁ + ‖f‖₁; the
      n-term sum of |d|, in any order, is within γ_{n-1}‖d‖₁ of ‖d‖₁, so the
      screened energy is within γ_{n+4}B + γ_{n-1}(1 + γ_{n+4})B ≤ γ_{2n+3}B
      of X;
    - ell 2: ‖a‖₂ ≤ B = ‖|W|‖₂‖e‖₂ + ‖f‖₂, and ‖|W|‖₂ is at most the
      geometric mean of |W|'s largest column and row sums; |‖d‖₂ - X| ≤
      ‖d - x‖₂ ≤ γ_{n+4}B; the sum of n rounded squares is Σd²(1 + θ) with
      |θ| ≤ γ_n, so its root is within γ_n‖d‖₂ of ‖d‖₂, and the float32
      square root adds u: within γ_{2n+5}B of X;
    - the float64 re-score obeys the same bounds with u = 2⁻⁵³, below uB/2
      for any n under 2²⁰, and so do the float64 norms behind B and the
      forming of X ± δ, which err by at most 2⁻⁵²(X + δ);
    - each float32 operation that underflows adds up to 2⁻¹⁵⁰ absolutely;
      over a coordinate's operations, and through the ell-2 square root,
      less than (n + 2)·2⁻⁷⁴·(1 + ‖W‖ + ‖e‖).

    So γ_{2n+8}B, plus the underflow term, covers the screen, the float64
    re-score and the thresholds, with at least uB to spare.  ``w_norm`` is
    :func:`_matrix_norm` of W, ``ent_norm`` and ``fixed_norm`` the ell
    norms of e and f; the real norms are used, none is assumed to be 1.
    The bound is affine in ``ent_norm`` and ``fixed_norm``, and the
    arguments may be arrays.
    """
    k = 2 * n + 8
    gamma = k * _U32 / (1 - k * _U32)
    return gamma * (w_norm * ent_norm + fixed_norm) + (n + 2) * 2.0**-74 * (1 + w_norm + ent_norm)
