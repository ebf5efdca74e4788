"""Dense and loop-by-loop reference implementations of the banded and
vectorized kernels, kept for the tests to compare against."""

import numpy as np

from opentoda.brackets import cv_unpack


def dense(v, c):
    n = v.size
    L = np.zeros((n, n))
    for i in range(n):
        L[i, i] = v[i]
    for i in range(n - 1):
        L[i, i + 1] = c[i]
        L[i + 1, i] = c[i]
    return L


def dense_power(v, c, k):
    """Dense k-th power of the symmetric tridiagonal matrix with diagonal v, off-diagonal c."""
    L = dense(v, c)
    P = np.eye(v.size)
    for _ in range(k):
        P = P @ L
    return P


def lax_commutator(v, c, k):
    """Right-hand side of the k-th Lax flow from dense matrices.

    Builds A_k as the skew part of L^k (strict upper minus strict lower, over
    two) and forms [A_k, L]. Returns (vdot, cdot, off) where off is the largest
    entry outside the symmetric tridiagonal pattern.
    """
    n = v.size
    L = dense(v, c)
    P = dense_power(v, c, k)
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if j > i:
                A[i, j] = 0.5 * P[i, j]
            elif j < i:
                A[i, j] = -0.5 * P[i, j]
    B = A @ L - L @ A
    vdot = np.array([B[i, i] for i in range(n)])
    cdot = np.array([B[i, i + 1] for i in range(n - 1)])
    off = 0.0
    for i in range(n):
        for j in range(n):
            if j - i >= 2 or i - j >= 2:
                off = max(off, abs(B[i, j]))
            elif j == i + 1:
                off = max(off, abs(B[i, j] - B[j, i]))
    return vdot, cdot, off


def pi_cv_loop(p, n, x):
    """The c-v tensor of pi_p at x, filled one coordinate pair at a time."""
    v, c = cv_unpack(np.asarray(x, dtype=float), n)
    d = 2 * n - 1
    M = np.zeros((d, d))
    for k in range(n - 1):
        if p == 0:
            M[n + k, k] = -0.5 * c[k]
            M[n + k, k + 1] = 0.5 * c[k]
        elif p == 1:
            M[n + k, k] = -0.5 * c[k] * v[k]
            M[n + k, k + 1] = 0.5 * c[k] * v[k + 1]
            M[k, k + 1] = c[k] ** 2
            if k + 1 < n - 1:
                M[n + k, n + k + 1] = 0.25 * c[k] * c[k + 1]
        else:
            M[n + k, k] = -0.5 * (c[k] * v[k] ** 2 + c[k] ** 3)
            M[n + k, k + 1] = 0.5 * (c[k] * v[k + 1] ** 2 + c[k] ** 3)
            M[k, k + 1] = c[k] ** 2 * (v[k] + v[k + 1])
            if k + 1 < n - 1:
                M[n + k, n + k + 1] = 0.5 * c[k] * c[k + 1] * v[k + 1]
            if k + 2 <= n - 1:
                M[n + k, k + 2] = 0.5 * c[k] * c[k + 1] ** 2
            if k + 1 <= n - 2:
                M[n + k + 1, k] = -0.5 * c[k] ** 2 * c[k + 1]
    return M - M.T
