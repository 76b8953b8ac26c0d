"""Slow reference computations of q(lambda) and collinear triples, used
as oracles independent of the discrete-log path."""

import numpy as np

from fpcomb import IntegerProfile, ResidueSet, convolve_add


def q_lambda_cubic(a: ResidueSet) -> dict[int, int]:
    """q(lambda) by the O(|A|^3) loop over (a0, a2, a1)."""
    p = a.p
    counts = [0] * p
    elems = a.elements
    for a0 in elems:
        for a2 in elems:
            if a2 == a0:
                continue
            denom_inv = pow(a2 - a0, p - 2, p)
            for a1 in elems:
                counts[(a1 - a0) * denom_inv % p] += 1
    return {lam: c for lam, c in enumerate(counts) if c > 0}


def collinear_line_sweep(a: ResidueSet) -> int:
    """T(A) as the sum over the p^2 + p affine lines of n_l^3, minus the
    overcount of all-equal triples (each grid point lies on p + 1 lines);
    one convolution per slope."""
    p = a.p
    n = len(a)
    ind = IntegerProfile.from_set(a)
    # horizontal lines y = b and vertical lines x = c: |A|^3 for each b, c in A
    total = 2 * n**4
    # slanted lines y = m x + b, m != 0: n_{m,b} = (A_{-m} * A)(b)
    for m in range(1, p):
        dil = np.zeros(p, dtype=np.int64)
        dil[[(p - m) * e % p for e in a.elements]] = 1
        conv = convolve_add(IntegerProfile(a.field, dil), ind)
        total += sum(v**3 for v in conv.values.tolist())
    return total - p * n * n
