"""Test-side references for the spectra layer: a pure-Python cyclic
Jacobi eigensolver, which the LAPACK path of mosls.spectra.numeric_spectrum
is checked against; the modular chain of mosls.spectra._chain with each
product one n x n call, which checks its row panels; long division of
integer polynomials by a monic divisor, which checks the synthetic
division in mosls.switching.switched_charpoly_expected; the switching
theorem's joining quartic as expanded coefficients in q and r, which
checks the structured form of mosls.switching.switched_quartic; and the
row cycles of mosls.switching.row_cycle_decompose walked through a
symbol-to-symbol map, which checks its walk over the columns.
"""

import math

import numpy as np

from mosls.designs import _max_abs
from mosls.spectra import IntPolynomial, _coprime_moduli, _modulus_limit, _symmetric_float
from mosls.switching import RowCycle, SwitchError, _check_lines


class ConvergenceError(ArithmeticError):
    """An iterative eigensolver ran out of sweeps above its tolerance."""


def one_call_chain(A: np.ndarray, c, bound: int):
    """mosls.spectra._chain on the same moduli, each product B @ Y one
    call and each reduction written out: yields m, the traces mod m and
    the last Y."""
    n, amax = A.shape[0], _max_abs(A)
    limit = max(_modulus_limit(n, amax), math.isqrt(2**52 // max(n, 1)))
    for m in _coprime_moduli(limit, bound):
        B = A.astype(np.float64) if amax < m else np.mod(A, m).astype(np.float64)
        Y, traces = np.eye(n), []
        for cj in c:
            T = B @ Y + (cj % m) * np.eye(n)
            Y = T - m * np.rint(T * (1.0 / m))
            traces.append(int(Y.trace()) % m)
        yield m, traces, Y


def poly_divmod(num: IntPolynomial, den: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Division by a monic divisor; exact integer arithmetic throughout."""
    if den.coeffs[-1] != 1:
        raise ValueError("divisor must be monic")
    work = list(num.coeffs)
    dd = den.degree
    if num.degree < dd:
        return IntPolynomial((0,)), num
    quot = [0] * (num.degree - dd + 1)
    for i in range(num.degree, dd - 1, -1):
        c = work[i]
        if c:
            quot[i - dd] = c
            for j in range(dd + 1):
                work[i - dd + j] -= c * den.coeffs[j]
    rem = work[:dd] if dd else [0]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return IntPolynomial(tuple(quot)), IntPolynomial(tuple(rem))


def poly_divexact(num: IntPolynomial, den: IntPolynomial) -> IntPolynomial:
    quot, rem = poly_divmod(num, den)
    if rem.coeffs != (0,):
        raise ValueError("division is not exact")
    return quot


def switched_quartic_expanded(q: int, r: int) -> IntPolynomial:
    """The joining quartic of a type (q, r) switch, each coefficient
    expanded as a polynomial in q and r."""
    c3 = -2 * q * r + 2 * r + 8
    c2 = q * q * r * r - 3 * q * r * r - 12 * q * r + r * r + 12 * r + 24
    c1 = (
        q * q * r**3
        + 4 * q * q * r * r
        - q * r**3
        - 12 * q * r * r
        - 24 * q * r
        + 4 * r * r
        + 24 * r
        + 32
    )
    c0 = (
        2 * q * q * r**3
        + 8 * q * q * r * r
        - 8 * q * q * r
        + 4 * q * q
        - 2 * q * r**3
        - 12 * q * r * r
        - 16 * q * r
        + 4 * r * r
        + 16 * r
        + 16
    )
    return IntPolynomial((c0, c1, c2, c3, 1))


def row_cycles_by_symbol(L, row_a: int, row_b: int) -> list[RowCycle]:
    """mosls.switching.row_cycle_decompose with two maps, symbol to column
    and symbol to symbol, walking the symbols of row_a."""
    n = L.order
    if row_a == row_b:
        raise SwitchError("rows must differ")
    _check_lines("row", (row_a, row_b), n)
    top = L.entries[row_a - 1]
    bot = L.entries[row_b - 1]
    col_of = {int(s): c for c, s in enumerate(top)}
    succ = {int(top[c]): int(bot[c]) for c in range(n)}
    if len(col_of) != n or set(succ.values()) != col_of.keys():
        raise SwitchError(f"rows {row_a} and {row_b} do not hold the same {n} distinct symbols")
    cycles = []
    visited = set()
    for c in range(n):
        start = int(top[c])
        if start in visited:
            continue
        cols = []
        cur = start
        while cur not in visited:
            visited.add(cur)
            cols.append(col_of[cur] + 1)
            cur = succ[cur]
        cycles.append(RowCycle(row_a, row_b, tuple(cols)))
    return cycles


def jacobi_eigenvalues(M, tol: float = 1e-12, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius norm falls below
    tol * ||M||_F; ConvergenceError is raised if max_sweeps sweeps do not
    get there.  Returns eigenvalues in descending order.  This pure-Python
    solver is the independent reference that tests check the LAPACK path
    of numeric_spectrum against.
    """
    A = _symmetric_float(M)
    n = A.shape[0]
    if n == 1:
        return A.diagonal().copy()
    target = tol * max(np.linalg.norm(A), 1e-300)

    def offnorm():
        # taken directly: sqrt(||A||^2 - ||diag A||^2) loses every digit
        # below about sqrt(eps) * ||A||, so it reads 0 too early or never
        # reaches the default target
        return float(np.linalg.norm(A - np.diag(A.diagonal())))

    sweeps = 0
    while offnorm() > target:
        if sweeps == max_sweeps:
            raise ConvergenceError(
                f"Jacobi stopped after {sweeps} sweeps with off-diagonal norm "
                f"{offnorm():.3e} above the target {target:.3e}"
            )
        sweeps += 1
        for i in range(n - 1):
            for j in range(i + 1, n):
                aij = A[i, j]
                if abs(aij) < 1e-300:
                    continue
                theta = (A[j, j] - A[i, i]) / (2.0 * aij)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                A[[i, j], :] = rot.T @ A[[i, j], :]
                A[:, [i, j]] = A[:, [i, j]] @ rot
                A[i, j] = A[j, i] = 0.0
    return np.sort(A.diagonal())[::-1]
