"""Test-side references for the spectra layer: a pure-Python cyclic
Jacobi eigensolver, which the LAPACK path of mosls.spectra.numeric_spectrum
is checked against, and long division of integer polynomials by a monic
divisor, which checks the synthetic division in
mosls.switching.switched_charpoly_expected.
"""

import math

import numpy as np

from mosls.spectra import IntPolynomial, _symmetric_float


class ConvergenceError(ArithmeticError):
    """An iterative eigensolver ran out of sweeps above its tolerance."""


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
