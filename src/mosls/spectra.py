"""Exact and numeric spectra of integer symmetric matrices, plus the
closed-form spectra predicted for MOLS/MOSLS cell graphs.

Characteristic polynomials are exact over the integers, by one of two
paths.  A symmetric matrix is tried first with a certified guess: its
LAPACK eigenvalues are grouped and rounded into a candidate
P = prod F_j**m_j with monic integer factors F_j, and certify_charpoly
proves det(tI - A) = P from R(A) = 0 for R = prod F_j and the power sums
tr(A**k) for k < deg R, all checked modulo a few pairwise coprime moduli
with float64 BLAS products (proof at charpoly_exact).  The same
certificate checks a closed-form spectrum against a graph too large for a
charpoly.

Any other matrix, and a guess that cannot be rounded or fails its
certificate, takes the general path: the matrix is reduced to Hessenberg
form modulo a battery of word-sized primes, the charpoly recurrence is
evaluated mod each prime, and the integer coefficients are recovered by
Chinese remaindering against an a-priori coefficient bound.  Reduction
mod p commutes with taking det(tI - M), so no prime is "unlucky" and the
reconstruction is exact.  The bound is
B = max_k isqrt(C(n,k)**2 * F**k // n**k) + 1 with F = sum of a_ij**2
(Schur's and Maclaurin's inequalities; proof at charpoly_exact), and
primes are taken until their product exceeds 2B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import CheckFailed, _max_abs

EXACT_SIZE_CAP = 150


class SrgParameterError(CheckFailed):
    """Multiplicity formulas gave a negative or non-integer value."""


class ClosedFormRangeError(ValueError):
    """A closed-form multiplicity is negative for these parameters."""


class ConvergenceError(ArithmeticError):
    """An iterative eigensolver ran out of sweeps above its tolerance."""


# ---------------------------------------------------------------------------
# integer polynomials


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, ascending coefficients, arbitrary precision."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def decimal_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    return poly_product(((a, 1), (b, 1)))


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


def poly_from_roots(roots) -> IntPolynomial:
    return poly_product((IntPolynomial((-root, 1)), 1) for root in roots)


def poly_product(factors) -> IntPolynomial:
    """prod F**m over the (F, m) pairs; object arrays keep Python ints."""
    acc = np.ones(1, dtype=object)
    for poly, mult in factors:
        coeffs = np.array(poly.coeffs, dtype=object)
        for _ in range(mult):
            acc = np.convolve(acc, coeffs)
    return IntPolynomial(tuple(acc.tolist()))


# ---------------------------------------------------------------------------
# exact characteristic polynomial

_PRIME_POOL: list[int] = []
_SIEVE_WINDOW = 1 << 12  # about 230 primes per window just below 2**26


def _primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with 2 <= lo <= p < hi, ascending, by a numpy segmented sieve."""
    root = math.isqrt(hi - 1)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for d in range(2, math.isqrt(root) + 1):
        if small[d]:
            small[d * d :: d] = False
    keep = np.ones(hi - lo, dtype=bool)
    for d in np.flatnonzero(small).tolist():
        first = max(d * d, -(-lo // d) * d)
        keep[first - lo :: d] = False
    return (np.flatnonzero(keep) + lo).tolist()


def _more_primes(count: int) -> list[int]:
    """Primes just below 2**26, largest first; products of two residues and
    sums of up to 150 such products stay inside int64."""
    hi = _PRIME_POOL[-1] if _PRIME_POOL else 1 << 26
    while len(_PRIME_POOL) < count:
        lo = max(hi - _SIEVE_WINDOW, 2)
        _PRIME_POOL.extend(reversed(_primes_between(lo, hi)))
        hi = lo
    return _PRIME_POOL[:count]


def _hessenberg_charpoly_mod(M: np.ndarray, p: int) -> list[int]:
    """Charpoly of M over Z_p via Hessenberg reduction, ascending coeffs."""
    n = M.shape[0]
    # every dot product below sums at most n products of residues
    if n * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"{n} products of residues mod {p} may overflow int64")
    H = np.mod(M, p).astype(np.int64)
    for k in range(n - 2):
        col = H[k + 1 :, k]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = k + 1 + int(nz[0])
        if piv != k + 1:
            H[[k + 1, piv]] = H[[piv, k + 1]]
            H[:, [k + 1, piv]] = H[:, [piv, k + 1]]
        inv = pow(int(H[k + 1, k]), p - 2, p)
        factors = (H[k + 2 :, k] * inv) % p
        # rows k+1 and below are already zero left of column k, so the
        # elimination only touches columns k onwards
        H[k + 2 :, k:] = (H[k + 2 :, k:] - factors[:, None] * H[k + 1, k:]) % p
        H[:, k + 1] = (H[:, k + 1] + H[:, k + 2 :] @ factors) % p

    # P[k] holds coeffs of det(tI - H[:k,:k]); expand along last columns
    P = np.zeros((n + 1, n + 1), dtype=np.int64)
    P[0, 0] = 1
    prods = np.zeros(n, dtype=np.int64)  # prods[i] = H[i+1,i]*...*H[k-1,k-2]
    for k in range(1, n + 1):
        if k >= 2:
            sub = int(H[k - 1, k - 2])
            prods[: k - 2] = (prods[: k - 2] * sub) % p
            prods[k - 2] = sub
        P[k, 1 : k + 1] = P[k - 1, :k]
        P[k, :k] -= (int(H[k - 1, k - 1]) * P[k - 1, :k]) % p
        if k >= 2:
            w = (H[: k - 1, k - 1] * prods[: k - 1]) % p
            P[k, :k] -= (w @ P[: k - 1, :k]) % p
        P[k] %= p
    return [int(c) for c in P[n]]


def check_exact_size(n: int) -> None:
    """Refuse an exact charpoly of an n x n matrix above EXACT_SIZE_CAP."""
    if n > EXACT_SIZE_CAP:
        raise ValueError(f"matrix size {n} exceeds exact cap {EXACT_SIZE_CAP}")


def _coefficient_bound(A: np.ndarray) -> int:
    """B with |c_k| < B for every coefficient of det(tI - A); see
    charpoly_exact for the proof."""
    n = A.shape[0]
    frob = sum(v * v for v in A.ravel().tolist())  # Python ints, exact
    return max(math.isqrt(math.comb(n, k) ** 2 * frob**k // n**k) for k in range(n + 1)) + 1


def _primes_above(bound: int) -> list[int]:
    """Pool primes, largest first, until their product exceeds bound."""
    primes: list[int] = []
    prod = 1
    while prod <= bound:
        primes.append(_more_primes(len(primes) + 1)[-1])
        prod *= primes[-1]
    return primes


def _hessenberg_crt(A: np.ndarray) -> IntPolynomial:
    """det(tI - A) for any square int64 matrix: Hessenberg charpolys mod
    primes whose product exceeds 2 * _coefficient_bound(A), recombined by
    the Chinese remainder theorem into symmetric residues."""
    primes = _primes_above(2 * _coefficient_bound(A))
    residues = [_hessenberg_charpoly_mod(A, p) for p in primes]
    coeffs = []
    for k in range(A.shape[0] + 1):
        x, mod = 0, 1
        for p, res in zip(primes, residues):
            delta = (res[k] - x) * pow(mod % p, p - 2, p) % p
            x += mod * delta
            mod *= p
        if x > mod // 2:
            x -= mod
        coeffs.append(x)
    return IntPolynomial(tuple(coeffs))


# Eigenvalues of a guess closer than this form one group, and a group this
# close to an integer gives a linear factor.  It is fixed, not the caller's
# group_tol: a wrong guess costs a fallback, never a wrong result.
_GUESS_TOL = 1e-6
# np.poly coefficients of a guessed factor must lie this close to integers
_ROUND_TOL = 1e-3


def _guess_factors(A: np.ndarray) -> list[tuple[IntPolynomial, int]] | None:
    """Candidate factors (F, m) of det(tI - A) for symmetric A, read off
    grouped eigvalsh values, or None when a factor does not round.

    Near-integer groups give linear factors; the other groups of each
    multiplicity give one factor, the rounded np.poly of their values."""
    groups = _group_values(np.linalg.eigvalsh(A.astype(np.float64))[::-1], _GUESS_TOL)
    factors = []
    irrational: dict[int, list[float]] = {}
    for value, mult in groups:
        root = round(value)
        if abs(value - root) <= _GUESS_TOL:
            factors.append((IntPolynomial((-root, 1)), mult))
        else:
            irrational.setdefault(mult, []).append(value)
    for mult, roots in irrational.items():
        coeffs = np.poly(roots)[::-1]  # ascending, monic
        rounded = np.rint(coeffs)
        if np.abs(coeffs).max() >= 2**52 or np.abs(coeffs - rounded).max() > _ROUND_TOL:
            return None
        factors.append((IntPolynomial(tuple(int(c) for c in rounded)), mult))
    return factors


def _power_sums(poly: IntPolynomial, count: int) -> list[int]:
    """p_k, the sum of the k-th powers of the roots of the monic poly, for
    k < count, by Newton's identities in Python ints."""
    d = poly.degree
    c = poly.coeffs
    sums = [d]
    for k in range(1, count):
        acc = k * c[d - k] if k <= d else 0
        for i in range(1, min(k, d + 1)):
            acc += c[d - i] * sums[k - i]
        sums.append(-acc)
    return sums


def _modulus_limit(n: int, amax: int) -> int:
    """Largest modulus m for which every float64 value that
    certify_charpoly computes mod m on an n x n matrix with |a_ij| <= amax
    is an exact integer.

    Residues y satisfy |y| <= m - 1.  With a = max(amax, 1): an entry of
    A @ Y, and each of its partial sums, is at most n a (m - 1) in
    magnitude; adding a residue to the diagonal gives at most
    (n a + 1)(m - 1); reducing such a T subtracts m * rint(T / m), at most
    |T| + m; a trace of residues is at most n (m - 1).  All of them are
    below 2**53 iff (n a + 1)(m - 1) + m < 2**53.
    """
    na = n * max(amax, 1)
    return (2**53 + na) // (na + 2)


def _coprime_moduli(limit: int, bound: int) -> list[int]:
    """Pairwise coprime moduli from limit down, largest first, until their
    product exceeds bound; ValueError if they would fall below 5."""
    moduli: list[int] = []
    prod, m = 1, limit
    while prod <= bound:
        if m < 5:
            raise ValueError(
                f"no pairwise coprime moduli up to {limit} exceed a {bound.bit_length()}-bit bound"
            )
        if math.gcd(m, prod) == 1:
            moduli.append(m)
            prod *= m
        m -= 1
    return moduli


def _certificate_bound(n: int, rho: int, R: IntPolynomial, sums: list[int]) -> int:
    """Q such that, for an n x n integer matrix with largest absolute row
    sum rho, R(A) = 0 and tr(A**k) = sums[k] follow from their residues
    modulo any modulus above Q.

    Entries of A**k are at most rho**k in magnitude, so
    |R(A)_ij| <= sum |r_k| rho**k; every eigenvalue is at most rho, so
    |tr(A**k) - sums[k]| <= n rho**k + |sums[k]|.
    """
    return max(
        sum(abs(c) * rho**k for k, c in enumerate(R.coeffs)),
        max((n * rho**k + abs(s) for k, s in enumerate(sums)), default=0),
    )


def certify_charpoly(M, factors) -> bool:
    """Whether det(tI - M) = prod F**m over the (F, m) pairs, exactly.

    M is a square integer matrix and each F a monic integer polynomial of
    degree at least 1.  With R = prod F and D = deg R, the answer is True
    iff R(M) = 0 and tr(M**k) equals the power sum p_k of the candidate for
    every k < D; charpoly_exact proves that this decides the claim for
    symmetric M (for any square M, True is still a proof).

    Both are checked modulo pairwise coprime moduli whose product exceeds
    _certificate_bound, one modulus m at a time, by the Horner chain
    Y_0 = I, Y_j = M @ Y_(j-1) + r_(D-j) I mod m on float64 BLAS products.
    Y_D = R(M), and tr(Y_j) = sum_(i<=j) r_(D-j+i) tr(M**i) with r_D = 1 is
    unit triangular in the traces, so tr(Y_j) = sum_(i<=j) r_(D-j+i) p_i
    for 0 < j < D holds mod m iff tr(M**k) = p_k does for k < D.  Each
    modulus is at most _modulus_limit, which keeps every float64 value an
    exact integer; residues are reduced as T - m * rint(T / m), whose
    rounded quotient is within 1/2 + 2/m of T / m, so |residue| < m for
    m >= 5.  ValueError is raised when the moduli would fall below 5.
    """
    A = np.asarray(M, dtype=np.int64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if any(poly.degree < 1 or poly.coeffs[-1] != 1 for poly, _ in factors):
        raise ValueError("factors must be monic of degree at least 1")
    n = A.shape[0]
    if sum(m * poly.degree for poly, m in factors) != n:
        return False  # tr(M**0) = n = p_0
    R = poly_product((poly, 1) for poly, _ in factors)
    r, D = R.coeffs, R.degree
    sums = [0] * D
    for poly, mult in factors:
        for k, s in enumerate(_power_sums(poly, D)):
            sums[k] += mult * s
    expected = [sum(r[D - j + i] * sums[i] for i in range(j + 1)) for j in range(D)]
    amax = _max_abs(A)

    Af = A.astype(np.float64)
    T = np.abs(Af)
    # exact float row sums: below 2**51 whenever _modulus_limit allows a
    # modulus of 5, and otherwise _coprime_moduli raises for any bound
    rho = int(T.sum(axis=1).max(initial=0))
    Y = np.empty_like(Af)
    diagonal = T.reshape(-1)[:: n + 1]
    for m in _coprime_moduli(_modulus_limit(n, amax), _certificate_bound(n, rho, R, sums)):
        for j in range(1, D + 1):
            if j == 1:
                np.copyto(T, Af)  # M @ Y_0
            else:
                np.matmul(Af, Y, out=T)
            diagonal += r[D - j] % m
            np.multiply(T, 1.0 / m, out=Y)
            np.rint(Y, out=Y)
            Y *= -m
            Y += T
            if j < D and (int(Y.trace()) - expected[j]) % m:
                return False
        if Y.any():
            return False
    return True


def charpoly_exact(M) -> IntPolynomial:
    """det(tI - M) with exact integer coefficients.

    M must be a square integer matrix with at most EXACT_SIZE_CAP rows; the cap
    keeps the modular reconstruction comfortably fast.

    Certified guess.  A symmetric M with n * max|m_ij| <= 2**27 gets a
    candidate P = prod F_j**m_j from its grouped eigvalsh values
    (_guess_factors), and P is returned when certify_charpoly accepts it.  Let R = prod F_j and D = deg R.
    Claim: if R(M) = 0 and tr(M**k) = p_k(P) for 0 <= k < D, then
    det(tI - M) = P, for any square M.  Proof: R(M) = 0 means the minimal
    polynomial of M divides R, so every eigenvalue of M is one of the
    distinct roots s_1..s_E of R, with E <= D; so are the roots of P.
    Let a_i and b_i be the multiplicities of s_i in det(tI - M) and in P.
    Then tr(M**k) - p_k(P) = sum_i (a_i - b_i) s_i**k = 0 for k < E is a
    Vandermonde system in the distinct s_i, which is nonsingular, so
    a_i = b_i for every i.  Conversely, when P is the charpoly of a
    symmetric M, M is diagonalizable, its minimal polynomial is the
    squarefree product of t - s_i over its eigenvalues, which divides R,
    so R(M) = 0 and the traces agree: a candidate the certificate rejects
    is wrong.  The residues decide the integers because the product of
    the pairwise coprime moduli exceeds every |R(M)_ij| and every
    |tr(M**k) - p_k(P)| (_certificate_bound).

    General path.  Non-symmetric M, and a guess that does not round or is
    rejected, go to Hessenberg reduction mod primes (_hessenberg_crt).
    Coefficient bound: let lambda_1..lambda_n be the complex eigenvalues
    of M and F = sum a_ij**2.  Schur's inequality gives
    sum |lambda_i|**2 <= F for any square matrix, symmetric or not, and
    Cauchy-Schwarz then gives S = sum |lambda_i| <= sqrt(n F).  The
    coefficient of t**(n-k) is (-1)**k e_k(lambda), so
    |c_(n-k)| <= e_k(|lambda|) <= C(n,k) (S/n)**k <= sqrt(C(n,k)**2 F**k / n**k)
    by Maclaurin's inequality for the non-negative |lambda_i|.  Since
    isqrt(floor(x)) + 1 > sqrt(x), every |c| is below
    B = max_k isqrt(C(n,k)**2 * F**k // n**k) + 1.  Primes are added until
    their product exceeds 2B, so the symmetric CRT residue is the
    coefficient itself.
    """
    A = np.array(M, dtype=np.int64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    n = A.shape[0]
    check_exact_size(n)
    if n == 0:
        return IntPolynomial((1,))
    # n * max|m_ij| <= 2**27 gives a modulus limit L >= 2**26; every prime
    # in (L/2, L], at least 1.8 million of them and each above 2**25, is
    # taken before the moduli could run out, far more than the at most
    # 2n (2 rho)**n of _certificate_bound needs below a million rows
    if np.array_equal(A, A.T) and _modulus_limit(n, _max_abs(A)) >= 2**26:
        factors = _guess_factors(A)
        if factors is not None and certify_charpoly(A, factors):
            return poly_product(factors)
    return _hessenberg_crt(A)


# ---------------------------------------------------------------------------
# numeric spectrum


def _symmetric_float(M) -> np.ndarray:
    """M as a float64 array; raises ValueError unless square and symmetric."""
    A = np.array(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if not np.array_equal(A, A.T):
        raise ValueError("matrix must be symmetric")
    return A


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


@dataclass
class SpectrumReport:
    """Exact charpoly (when available) with grouped numeric eigenvalues."""

    charpoly: IntPolynomial | None
    numeric: list[tuple[float, int]]
    residual: float

    def to_json_dict(self) -> dict:
        out = {}
        if self.charpoly is not None:
            out["charpoly"] = self.charpoly.decimal_strings()
        out["numeric"] = [{"value": v, "mult": m} for v, m in self.numeric]
        if self.charpoly is not None:
            out["residual"] = self.residual
        return out


def _group_values(values: np.ndarray, group_tol: float) -> list[tuple[float, int]]:
    groups: list[list[float]] = []
    for v in values:  # descending
        # compare with the group's first member so that close values
        # cannot chain a long run into one group
        if groups and abs(groups[-1][0] - v) <= group_tol:
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    return [(sum(g) / len(g), len(g)) for g in groups]


def _relative_residual(poly: IntPolynomial, points) -> float:
    """max |p(x)| / sum |c_k x^k| over the points, each taken as the exact
    rational a/b nearest to it with b <= 10**15.

    Both sums are scaled by b**n and evaluated by integer Horner; int / int
    true division is correctly rounded, so the quotient is the float of the
    exact rational ratio."""
    # imported here: fractions pulls in decimal, which costs every process
    # that never computes a residual start-up time and resident memory
    from fractions import Fraction

    worst = 0.0
    coeffs = poly.coeffs[::-1]  # descending
    for x in points:
        fx = Fraction(x).limit_denominator(10**15)
        a, b = fx.numerator, fx.denominator
        num = den = 0
        bpow = 1
        for c in coeffs:
            num = num * a + c * bpow
            den = den * abs(a) + abs(c) * bpow
            bpow *= b
        if den == 0:
            continue
        worst = max(worst, abs(num / den))
    return worst


def numeric_spectrum(
    M,
    *,
    group_tol: float = 1e-6,
    with_charpoly: bool = True,
) -> SpectrumReport:
    """LAPACK eigenvalues (eigvalsh) grouped into multiplicities, with the
    exact charpoly and a relative evaluation residual when requested.

    The options are keyword-only: a positional call written for the old
    (M, tol, group_tol, with_charpoly) signature raises TypeError instead
    of silently shifting its arguments."""
    values = np.linalg.eigvalsh(_symmetric_float(M))[::-1]
    numeric = _group_values(values, group_tol)
    if not with_charpoly:
        return SpectrumReport(None, numeric, 0.0)
    poly = charpoly_exact(M)
    points = [v for v, _ in numeric]
    if poly.coeffs[0] == 0:
        # the group of the exact root 0: its float mean, about 1e-15, would
        # read a relative residual of 1 against a zero constant term
        points = [0.0 if abs(v) <= group_tol else v for v in points]
    residual = _relative_residual(poly, points)
    return SpectrumReport(poly, numeric, residual)


# ---------------------------------------------------------------------------
# closed-form spectra


def _linear_factors(pairs) -> list[tuple[IntPolynomial, int]]:
    """(t - root, m) per distinct integer root in first-seen order, the
    multiplicities of a repeated root summed and zero ones dropped."""
    merged: dict[int, int] = {}
    for root, mult in pairs:
        if mult < 0:
            raise ClosedFormRangeError(f"negative multiplicity {mult} for eigenvalue {root}")
        if mult:
            merged[root] = merged.get(root, 0) + mult
    return [(IntPolynomial((-root, 1)), mult) for root, mult in merged.items()]


def srg_spectrum(n: int, k: int, lam: int, mu: int) -> list[tuple[IntPolynomial, int]]:
    """Spectrum of a strongly regular graph with parameters (n, k, lam, mu),
    as monic integer factors with multiplicities: t - k once, and the roots
    of t**2 - (lam - mu) t - (k - mu) either as two linear factors or, when
    they are irrational, as that quadratic with multiplicity (n - 1) / 2.

    Raises SrgParameterError when the multiplicity formulas do not give
    non-negative integers.
    """
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    if disc <= 0:
        raise SrgParameterError(f"non-positive discriminant {disc}")
    numer = 2 * k + (n - 1) * (lam - mu)
    root = math.isqrt(disc)
    if root * root == disc:
        if numer % root:
            raise SrgParameterError(f"multiplicity split {numer}/{root} is not integral")
        half = n - 1 - numer // root
        if half % 2:
            raise SrgParameterError("multiplicities are not integers")
        s = half // 2
        t = n - 1 - s
        if s < 0 or t < 0:
            raise SrgParameterError(f"negative multiplicities s={s}, t={t}")
        # disc is (lam - mu)**2 mod 4, so root has the parity of lam - mu
        # and both halves are exact
        theta, tau = (lam - mu + root) // 2, (lam - mu - root) // 2
        return _linear_factors([(k, 1), (theta, s), (tau, t)])
    if numer != 0 or n < 1 or (n - 1) % 2:
        raise SrgParameterError(
            f"irrational eigenvalues need 2k + (n-1)(lam-mu) = 0, got {numer}"
        )
    factors = [(IntPolynomial((-k, 1)), 1), (IntPolynomial((mu - k, mu - lam, 1)), (n - 1) // 2)]
    return [(poly, mult) for poly, mult in factors if mult]


def quotient_spectrum(q: int, r: int, f: int) -> list[tuple[IntPolynomial, int]]:
    """Spectrum of the block quotient of a MOSLS cell graph, as linear
    factors with multiplicities."""
    return _linear_factors(
        [
            (3 * q * r - q - r - 1 + f * (q * r - 1), 1),
            (2 * q * r - q - r - 1 - f, q + r - 2),
            (q * r - q - r - 1 - f, (q - 1) * (r - 1)),
        ]
    )


def mosls_graph_spectrum(q: int, r: int, f: int) -> list[tuple[IntPolynomial, int]]:
    """Closed-form spectrum of the MOSLS cell graph on f squares of type
    (q, r), as linear factors with multiplicities, valid when the Latin
    adjacency commutes with the block adjacency (true for
    block-permutational families)."""
    if f < 1:
        raise ValueError("need at least one square")
    e = (q - 1) * (r - 1)
    lines = [
        (e + (q * r - 1) * (f + 2), 1),
        (e + q * r - 2 - f, q + r - 2),
        (e - 2 - f, (q - 1) * (r - 1)),
        (q * r - 1 - f, f * (q - 1) * (r - 1)),
        (q * r - q - 1 - f, (r - 1) * (q + f)),
        (q * r - r - 1 - f, (q - 1) * (r + f)),
        (-1 - f, (q - 1) * (r - 1) * (q * r - f)),
        (-q - 1 - f, (r - 1) * (q * r - q - f)),
        (-r - 1 - f, (q - 1) * (q * r - r - f)),
    ]
    factors = _linear_factors(lines)
    assert sum(mult for _, mult in factors) == (q * r) ** 2
    return factors


def cospectral(a: IntPolynomial, b: IntPolynomial) -> bool:
    """Equality test for charpolys of equal degree."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    return a.coeffs == b.coeffs
