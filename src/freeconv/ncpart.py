"""Non-crossing partitions and the moment <-> free-cumulant transforms.

Two routes are implemented for the cumulant-to-moment map: explicit
enumeration of NC(n) (the reference oracle, n <= 14) and the triangular
recursion obtained by conditioning on the block containing 1 (the
production path, orders up to 32).
"""

from __future__ import annotations

import math
from itertools import combinations

from .errors import NTooLarge, OrderTooLarge, OutOfRange

ENUMERATION_MAX = 14   # Catalan(14) = 2674440
RECURSION_MAX = 32
NARAYANA_MAX = 60


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def is_noncrossing(blocks) -> bool:
    """Check the non-crossing property: no a < b < c < d with {a,c}, {b,d} split."""
    owner = {v: i for i, blk in enumerate(blocks) for v in blk}
    closer = {i: max(blk) for i, blk in enumerate(blocks)}
    stack = []
    for v in sorted(owner):
        b = owner[v]
        if not stack or stack[-1] != b:
            if b in stack:
                return False
            stack.append(b)
        if v == closer[b]:
            stack.pop()
    return True


def _nc_partitions(elems: tuple) -> list:
    """All non-crossing partitions of a sorted element tuple."""
    if not elems:
        return [[]]
    first, rest = elems[0], elems[1:]
    out = []
    for k in range(len(rest) + 1):
        for idx in combinations(range(len(rest)), k):
            block = [first] + [rest[i] for i in idx]
            # elements strictly between consecutive block members (and after
            # the last) must partition independently: that is exactly the
            # non-crossing constraint
            gaps = []
            prev = -1
            for i in idx:
                gaps.append(rest[prev + 1:i])
                prev = i
            gaps.append(rest[prev + 1:])
            partials = [[]]
            for gap in gaps:
                if not gap:
                    continue
                subs = _nc_partitions(gap)
                partials = [p + s for p in partials for s in subs]
            out.extend([block] + p for p in partials)
    return out


def enumerate_nc(n: int) -> list:
    """All non-crossing partitions of {1..n} as lists of sorted blocks."""
    if n < 1 or n > ENUMERATION_MAX:
        raise NTooLarge(f"n={n} outside [1, {ENUMERATION_MAX}]")
    return _nc_partitions(tuple(range(1, n + 1)))


def count_nc_blocks(n: int, s: int) -> int:
    """Narayana number: non-crossing partitions of [n] with s blocks."""
    if n < 1 or n > NARAYANA_MAX or s < 1 or s > n:
        raise OutOfRange(f"(n={n}, s={s}) outside 1 <= s <= n <= {NARAYANA_MAX}")
    return math.comb(n, s) * math.comb(n, s - 1) // n


def moments_via_enumeration(alpha) -> list[float]:
    """Moments m_1..m_K from free cumulants by summing over NC(n): the
    reference oracle for cumulants_to_moments, K <= ENUMERATION_MAX."""
    alpha = list(alpha)
    K = len(alpha)
    if K > ENUMERATION_MAX:
        raise OrderTooLarge(f"enumeration path limited to K <= {ENUMERATION_MAX}")
    moments = []
    for n in range(1, K + 1):
        total = 0.0
        for part in enumerate_nc(n):
            term = 1.0
            for blk in part:
                term *= alpha[len(blk) - 1]
            total += term
        moments.append(total)
    return moments


def _triangular(seq, to_moments: bool) -> list[float]:
    """The recursion m_n = alpha_n + sum_{s<n} alpha_s [x^(n-s)] M(x)^s.

    seq holds the cumulants (to_moments) or the moments, and the other
    sequence is solved for term by term.  M(x) = 1 + m_1 x + m_2 x^2 + ... is
    the moment series, and column j of the power table
    P[s][j] = [x^j] M(x)^s is filled once m_j is known, which makes the whole
    map O(K^3).
    """
    K = len(seq)
    out: list[float] = []
    alpha, m = (seq, out) if to_moments else (out, seq)
    sign = 1.0 if to_moments else -1.0
    P = [[1.0] + [0.0] * (K - 1) for _ in range(K)]
    base = [1.0]
    for n in range(1, K + 1):
        val = seq[n - 1]
        for s in range(1, n):
            val += sign * alpha[s - 1] * P[s][n - s]
        out.append(val)
        if n == K:
            break
        base.append(m[n - 1])
        for s in range(1, K):
            prev = P[s - 1]
            acc = 0.0
            for i in range(n + 1):
                if base[i] != 0.0 and prev[n - i] != 0.0:
                    acc += base[i] * prev[n - i]
            P[s][n] = acc
    return out


def cumulants_to_moments(alpha) -> list[float]:
    """Moments m_1..m_K from free cumulants alpha_1..alpha_K.

    The recursion conditions on the size s of the block containing 1:
    m_n = sum_s alpha_s * [x^(n-s)] M(x)^s with M the moment series.
    """
    alpha = list(alpha)
    K = len(alpha)
    if K < 1:
        raise ValueError("empty cumulant vector")
    if K > RECURSION_MAX:
        raise OrderTooLarge(f"recursion path limited to K <= {RECURSION_MAX}")
    return _triangular(alpha, to_moments=True)


def moments_to_cumulants(m) -> list[float]:
    """Free cumulants alpha_1..alpha_K from moments m_1..m_K (inverse map)."""
    m = list(m)
    K = len(m)
    if K < 1:
        raise ValueError("empty moment vector")
    if K > RECURSION_MAX:
        raise OrderTooLarge(f"limited to K <= {RECURSION_MAX}")
    return _triangular(m, to_moments=False)
