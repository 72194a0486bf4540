"""Test-only oracles and helpers for the pinning recursions.

brute_force_partition enumerates renewal paths and shares nothing with the
engine but K and omega; pinned_table runs the engine on one row of contact
energies beta * omega_m + h.
"""

import math

import numpy as np

from sparsepin import kernel_tail, pinned_recursions

BRUTE_FORCE_LIMIT = 14


def pinned_table(omega, kernel, beta, h, n):
    """The partition table of one (omega, beta, h) up to length n."""
    (table,) = pinned_recursions([beta * np.asarray(omega[:n], dtype=float) + h], kernel)
    return table


def brute_force_partition(omega, kernel, beta, h, n):
    """(Z_n, z^c_n) by enumerating every renewal path 0 = t_0 < t_1 <= ... <= n.

    Exponential in n; guarded at n <= 14.
    """
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is guarded at n <= {BRUTE_FORCE_LIMIT}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1.0, 1.0
    free_terms = [kernel_tail(kernel, n)]  # the empty path: tau stays at 0
    pinned_terms = [0.0]
    stack = [(0, 1.0)]
    while stack:
        last, w = stack.pop()
        for k in range(1, min(kernel.n_max, n - last) + 1):
            kw = float(kernel.weights[k - 1])
            if kw == 0.0:
                continue
            t = last + k
            w2 = w * kw * math.exp(beta * omega[t - 1] + h)
            free_terms.append(w2 * kernel_tail(kernel, n - t))
            if t == n:
                pinned_terms.append(w2)
            else:
                stack.append((t, w2))
    return math.fsum(free_terms), math.fsum(pinned_terms)
