"""Exact and numeric spectra of integer symmetric matrices, plus the
closed-form spectra predicted for MOLS/MOSLS cell graphs.

Characteristic polynomials are exact over the integers, from one engine:
tr(A**k) computed exactly, modulo a few pairwise coprime moduli on float64
BLAS products and recombined by the Chinese remainder theorem, and
Newton's identities on those power sums.  A symmetric matrix first takes
its linear factors from the near-integer groups of its LAPACK eigenvalues;
the power sums then give the remaining factor of degree d, and
certify_charpoly proves the product from R(A) = 0 and the power sums
tr(A**k) for k < deg R on the same modular chain.  Any other matrix, and a
guess that the certificate rejects, takes d = n: Newton's identities on
all n traces give the charpoly directly (proof at charpoly_exact), unless
d * n > EXACT_SIZE_CAP**2 (_power_sum_quotient).  The same certificate
checks a closed-form spectrum against a graph without a charpoly.  A
spectrum is held as a factor list [(F, m), ...], as the closed forms are:
SpectrumReport stores the certified one, expanding charpoly on first read.
_closed_form_verdict alone decides `spectrum --verify-closed-form`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

# graph, then designs: every layer compiles before designs imports numpy,
# so numpy's import reuses the compiler's heap when no bytecode is cached
from . import graph
from .designs import CheckFailed, _int_matrix, _max_abs

import numpy as np

# the power sums give a degree d of an n x n charpoly while d * n <= this**2
EXACT_SIZE_CAP = 150


class SrgParameterError(CheckFailed):
    """Multiplicity formulas gave a negative or non-integer value."""


class ClosedFormRangeError(ValueError):
    """A closed-form multiplicity is negative for these parameters."""


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


def poly_product(factors) -> IntPolynomial:
    """prod F**m over the (F, m) pairs; object arrays keep Python ints."""
    acc = np.ones(1, dtype=object)
    for poly, mult in factors:
        coeffs = np.array(poly.coeffs, dtype=object)
        for _ in range(mult):
            acc = np.convolve(acc, coeffs)
    return IntPolynomial(tuple(acc.tolist()))


def _same_product(a, b) -> bool:
    """Whether the (F, m) pairs of a and b have equal products.  Equal factors
    cancel, as Z[t] has no zero divisors, and only the rest is expanded: none
    when the lists differ only in order or in how a multiplicity is split."""
    diff = Counter()
    for sign, pairs in ((1, a), (-1, b)):
        for poly, mult in pairs:
            diff[poly] += sign * mult
    left = [(poly, mult) for poly, mult in diff.items() if mult > 0]
    right = [(poly, -mult) for poly, mult in diff.items() if mult < 0]
    return not (left or right) or poly_product(left) == poly_product(right)


# ---------------------------------------------------------------------------
# exact characteristic polynomial


# Eigenvalues of a guess closer than this form one group, and a group this
# close to an integer gives a linear factor.  It is fixed, not the caller's
# group_tol: a wrong guess costs a fallback, never a wrong result.
_GUESS_TOL = 1e-6


def _linear_guess(values: np.ndarray) -> list[tuple[IntPolynomial, int]]:
    """(t - v, m) per integer v, m the descending eigvalsh values in the
    groups near v (_linear_factors merges two groups near one v)."""
    return _linear_factors(
        (round(value), mult)
        for value, mult in _group_values(values, _GUESS_TOL)
        if abs(value - round(value)) <= _GUESS_TOL
    )


def _power_sums(factors, count: int) -> list[int]:
    """p_k, the sum of the k-th powers of the roots of prod F**m over the
    (F, m) pairs of monic F, for k < count, by Newton's identities."""
    sums = [0] * count
    for poly, mult in factors:
        d, c, own = poly.degree, poly.coeffs, [poly.degree]
        for k in range(1, count):
            acc = k * c[d - k] if k <= d else 0
            own.append(-acc - sum(c[d - i] * own[k - i] for i in range(1, min(k, d + 1))))
        sums = [s + mult * p for s, p in zip(sums, own)]
    return sums


def _modulus_limit(n: int, amax: int) -> int:
    """Largest modulus m for which every float64 value that _chain computes
    mod m on an n x n matrix with |a_ij| <= amax is an exact integer.

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


def _abs_row_sum(A: np.ndarray) -> int:
    """max_i sum_j |a_ij| as a Python int, exact: int64 sums cannot overflow
    while n max|a_ij| < 2**63; beyond that the magnitudes are summed as
    Python ints, read as uint64, since np.abs maps -2**63 to itself."""
    if A.shape[0] * _max_abs(A) < 2**63:
        return int(np.abs(A).sum(axis=1).max(initial=0))
    return max(np.abs(A).view(np.uint64).sum(axis=1, dtype=object))


# OpenBLAS runs a dgemm of at most this many multiply-adds on the calling thread
_SERIAL_MACS = 10**6


def _chain(A: np.ndarray, c, bound: int):
    """Residues of Y_0 = I, Y_j = A @ Y_(j-1) + c_j I for j = 1..len(c)
    (the powers A**j when every c_j = 0; R(A) by Horner when the c_j are
    the coefficients of a monic R below its leading one, top down): yields
    m, [tr(Y_j) mod m for each j] and the last Y_j for each of the
    pairwise coprime moduli m, until their product exceeds bound.

    Each step is a float64 BLAS product, reduced as T - m * rint(T / m),
    whose rounded quotient is within 1/2 + 2/m of T / m, so |residue| < m
    for m >= 5.  A is reduced to residues in [0, m) when max|a_ij| >= m,
    so its entries are at most a = min(max|a_ij|, m - 1), and every value
    is exact while (n a + 1)(m - 1) + m < 2**53 (_modulus_limit): for m up
    to _modulus_limit(n, max|a_ij|), and for any entries up to
    isqrt(2**52 // n), as then (n (m - 1) + 1)(m - 1) + m <= n m**2 + m,
    with n m**2 <= 2**52.

    While n**3 <= 4 * _SERIAL_MACS (n <= 158) a product runs in row panels
    of at most _SERIAL_MACS multiply-adds, on the calling thread, so no
    worker can stall it.  Each entry is the same dot product, its partial
    sums integers below 2**53 in any order: the residues are unchanged.
    """
    n, amax = A.shape[0], _max_abs(A)
    limit = max(_modulus_limit(n, amax), math.isqrt(2**52 // max(n, 1)))
    h = max(1, _SERIAL_MACS // max(n * n, 1)) if n**3 <= 4 * _SERIAL_MACS else n
    Af = A.astype(np.float64)
    T, Y = np.empty_like(Af), np.empty_like(Af)
    for m in _coprime_moduli(limit, bound):
        B = Af if amax < m else np.mod(A, m).astype(np.float64)
        traces = []
        for j, cj in enumerate(c):
            if j:
                for i in range(0, n, h):
                    np.matmul(B[i : i + h], Y, out=T[i : i + h])
            else:
                np.copyto(T, B)  # A @ Y_0
            T.reshape(-1)[:: n + 1] += cj % m
            np.multiply(T, 1.0 / m, out=Y)
            np.rint(Y, out=Y)
            Y *= -m
            Y += T
            traces.append(int(Y.trace()) % m)
        yield m, traces, Y


def _exact_traces(A: np.ndarray, d: int) -> list[int]:
    """tr(A**k) for k = 1..d: the symmetric CRT residue of the power chain
    modulo moduli whose product exceeds 2 n rho**d (charpoly_exact); no
    chain, and so no float64 copy of A, when d = 0."""
    if not d:
        return []
    values, prod = [0] * d, 1
    for m, traces, _ in _chain(A, [0] * d, 2 * A.shape[0] * _abs_row_sum(A) ** d):
        inv = pow(prod, -1, m)
        values = [x + prod * ((t - x) * inv % m) for x, t in zip(values, traces)]
        prod *= m
    return [x - prod if 2 * x > prod else x for x in values]


def _power_sum_quotient(A: np.ndarray, known) -> IntPolynomial:
    """det(tI - A) / prod F**m over the (F, m) pairs of monic F in known,
    when they divide it: t**d + a_1 t**(d-1) + ... + a_d, d = n - sum m deg F,
    by Newton's identities k a_k = -(a_(k-1) p_1 + ... + a_0 p_k), a_0 = 1,
    on the exact power sums p_k = tr(A**k) - p_k(prod F**m).

    Every division by k is exact: these are the identities of the power
    series f(x) = det(I - xA) / prod F~(x)**m, F~ the reversed F, whose
    logarithmic derivative -x f'/f is sum p_k x**k; f has integer
    coefficients, as each F~ has constant term 1.  When the known factors
    divide the charpoly, f is the reversed quotient; when not, the result
    is f cut at degree d, which the certificate rejects.  ValueError,
    before any product, when d * n > EXACT_SIZE_CAP**2 (d = 50, n = 729
    took 9.4 s on 2 CPUs)."""
    n = A.shape[0]
    d = n - sum(mult * poly.degree for poly, mult in known)
    if d * n > EXACT_SIZE_CAP**2:
        raise ValueError(
            f"exact charpoly refused: {d} of {n} eigenvalues uncertified, "
            f"{d} * {n} > {EXACT_SIZE_CAP**2}; spectrum --numeric needs no charpoly"
        )
    sums = [t - s for t, s in zip(_exact_traces(A, d), _power_sums(known, d + 1)[1:])]
    a = [1]
    for k in range(1, d + 1):
        quot, rem = divmod(-sum(a[k - i] * sums[i - 1] for i in range(1, k + 1)), k)
        assert rem == 0, "inexact division in Newton's identities"
        a.append(quot)
    return IntPolynomial(tuple(a[::-1]))


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
    _certificate_bound, by the Horner chain Y_0 = I,
    Y_j = M @ Y_(j-1) + r_(D-j) I (_chain).  Y_D = R(M), and
    tr(Y_j) = sum_(i<=j) r_(D-j+i) tr(M**i) with r_D = 1 is unit triangular
    in the traces, so tr(Y_j) = sum_(i<=j) r_(D-j+i) p_i for 0 < j < D
    holds mod m iff tr(M**k) = p_k does for k < D.
    """
    A = _int_matrix(M)
    if any(poly.degree < 1 or poly.coeffs[-1] != 1 for poly, _ in factors):
        raise ValueError("factors must be monic of degree at least 1")
    n = A.shape[0]
    if sum(m * poly.degree for poly, m in factors) != n:
        return False  # tr(M**0) = n = p_0
    R = poly_product((poly, 1) for poly, _ in factors)
    r, D = R.coeffs, R.degree
    sums = _power_sums(factors, D)
    expected = [sum(r[D - j + i] * sums[i] for i in range(j + 1)) for j in range(1, D)]
    bound = _certificate_bound(n, _abs_row_sum(A), R, sums)
    for m, traces, Y in _chain(A, [r[D - j] for j in range(1, D + 1)], bound):
        if any((t - e) % m for t, e in zip(traces, expected)) or Y.any():
            return False
    return True


def charpoly_exact(M) -> IntPolynomial:
    """det(tI - M) with exact integer coefficients.

    M must be a square integer matrix; ValueError when d * n exceeds
    EXACT_SIZE_CAP**2 (_power_sum_quotient), which no n <= 150 does.

    One engine: exact power sums.  Given linear factors (t - v_j)**m_j and
    d = n - sum m_j, _power_sum_quotient computes tr(M**k) for k <= d and
    runs Newton's identities on p_k = tr(M**k) - sum_j m_j v_j**k, whose
    divisions are exact (proof there); if the linear factors divide
    det(tI - M), the result Q is the quotient.  The traces are
    exact: every eigenvalue is at most rho = max_i sum_j |m_ij| in
    magnitude, so |tr(M**k)| <= n rho**k, and the moduli multiply to more
    than 2 n rho**d, so the symmetric CRT residue is the trace itself.
    Moduli cannot run out for n up to graph.MAX_VERTICES = 2401: _chain
    reduces M modulo each modulus when its entries are large, which keeps
    every modulus up to isqrt(2**52 // n) > 2**20 exact, and the moduli
    from there down are together divisible by every prime from 5 to 2**20,
    whose product exceeds 2**(2**20) (theta(x) > x (1 - 1/ln x), x >= 41).
    Every bound is below 2**(91 n + 13) < 2**(2**18): int64 entries give
    rho < 2**75; a linear root is a rounded eigvalsh value, at most 2 rho;
    Q's coefficients, from det(I - xM) prod (1 - v_j x)**-m_j, are at most
    C(3n, k) (2 rho)**k < 2**(89 k), so its roots are under 2**90
    (Fujiwara); and _certificate_bound is at most prod (rho + |s|) over
    the D <= n roots s of R, or n rho**k plus n powers s**k, k < D.  Above
    2401 vertices _coprime_moduli may raise ValueError, never mis-round.

    Certified guess.  A symmetric M takes its linear factors from the
    near-integer groups of its eigvalsh values (_linear_guess); with Q the
    quotient above, P = prod (t - v_j)**m_j * Q is returned when
    certify_charpoly accepts it.  Let R = prod F over its factors F and
    D = deg R.  Claim: if R(M) = 0 and tr(M**k) = p_k(P) for 0 <= k < D,
    then det(tI - M) = P, for any square M.  Proof: R(M) = 0 means the
    minimal polynomial of M divides R, so every eigenvalue of M is one of
    the distinct roots s_1..s_E of R, with E <= D; so are the roots of P.
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

    General path.  Non-symmetric M, a symmetric M without a near-integer
    eigenvalue, and a rejected guess run the same code with no linear
    factors: d = n, and Newton's identities on all n exact traces give
    det(tI - M) itself, as they hold for the eigenvalues of any square
    matrix.  A direct computation needs no certificate.
    """
    return poly_product(_charpoly(_int_matrix(M)))


def _charpoly(A: np.ndarray, values=None) -> list[tuple[IntPolynomial, int]]:
    """charpoly_exact of the int matrix A as the certified guess's factors,
    or [(P, 1)] on the general path, given its descending eigvalsh values if
    known: numeric_spectrum passes them only once _symmetric_float has found
    A symmetric, and the certificate is a proof for any square A."""
    if values is None and np.array_equal(A, A.T):
        values = np.linalg.eigvalsh(A.astype(np.float64))[::-1]
    if values is not None and (linear := _linear_guess(values)):
        rest = _power_sum_quotient(A, linear)
        factors = linear + [(rest, 1)] if rest.degree else linear
        if certify_charpoly(A, factors):
            return factors
    return [(_power_sum_quotient(A, []), 1)]


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


@dataclass
class SpectrumReport:
    """Exact charpoly factors (when available) with grouped numeric eigenvalues."""

    factors: list[tuple[IntPolynomial, int]] | None
    numeric: list[tuple[float, int]]
    residual: float | None

    @cached_property
    def charpoly(self) -> IntPolynomial | None:  # expanded when first read
        return None if self.factors is None else poly_product(self.factors)

    def to_json_dict(self) -> dict:
        out = {}
        if self.charpoly is not None:
            out["charpoly"] = self.charpoly.decimal_strings()
        out["numeric"] = [{"value": v, "mult": m} for v, m in self.numeric]
        if self.residual is not None:
            out["residual"] = self.residual
        return out


def _check_group_tol(group_tol: float) -> None:
    """ValueError unless the width is finite and >= 0: negative or NaN groups none, inf all."""
    if not 0 <= group_tol < math.inf:
        raise ValueError(f"group_tol must be finite and >= 0, got {group_tol!r}")


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


def _nearest_ratio(x: float, max_den: int) -> tuple[int, int]:
    """Fraction(x).limit_denominator(max_den) as (numerator, denominator):
    of the last convergent p1/q1 of x = n/d with q1 <= max_den and the next
    semiconvergent p/q, the nearer to x, a tie to p1/q1 as in CPython.
    They lie 1/(q1 q) apart, and p1/q1 lies den/(q1 d) from x."""
    n, d = x.as_integer_ratio()
    if d <= max_den:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while q0 + (a := num // den) * q1 <= max_den:
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        num, den = den, num - a * den
    k = (max_den - q0) // q1
    if 2 * den * (q0 + k * q1) <= d:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _relative_residual(poly: IntPolynomial, points) -> float:
    """max |p(x)| / sum |c_k x^k| over the points, each taken as the exact
    rational a/b nearest to it with b <= 10**15.

    Both sums are scaled by b**n and evaluated by integer Horner; int / int
    true division is correctly rounded, so the quotient is the float of the
    exact rational ratio."""
    worst = 0.0
    coeffs = poly.coeffs[::-1]  # descending
    for x in points:
        a, b = _nearest_ratio(x, 10**15)
        num = den = 0
        bpow = 1
        for c in coeffs:
            term = c * bpow  # the one product of two large ints per step
            num = num * a + term
            den = den * abs(a) + abs(term)
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
    exact charpoly (its guess reuses them) and a residual when requested.

    The options are keyword-only: a positional call written for the old
    (M, tol, group_tol, with_charpoly) signature raises TypeError instead
    of silently shifting its arguments; _check_group_tol checks the width."""
    _check_group_tol(group_tol)
    values = np.linalg.eigvalsh(_symmetric_float(M))[::-1]
    numeric = _group_values(values, group_tol)
    if not with_charpoly:
        return SpectrumReport(None, numeric, None)
    report = SpectrumReport(_charpoly(_int_matrix(M), values), numeric, None)
    points = [v for v, _ in numeric]
    if report.charpoly.coeffs[0] == 0:
        # the groups of the exact root 0: their float means, about 1e-15,
        # would read a relative residual of 1 against a zero constant term;
        # a width below _GUESS_TOL (0 included) leaves them in many groups
        near = max(group_tol, _GUESS_TOL)
        points = [0.0 if abs(v) <= near else v for v in points]
    report.residual = _relative_residual(report.charpoly, points) if points else None
    return report


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


def _quotient_lines(q: int, r: int, f: int) -> list[tuple[int, int]]:
    """(eigenvalue, multiplicity) of the block quotient of the MOSLS cell
    graph; the partition into blocks is equitable, so they are also the
    first lines of mosls_graph_spectrum."""
    e = (q - 1) * (r - 1)
    return [
        (e + (q * r - 1) * (f + 2), 1),
        (e + q * r - 2 - f, q + r - 2),
        (e - 2 - f, (q - 1) * (r - 1)),
    ]


def quotient_spectrum(q: int, r: int, f: int) -> list[tuple[IntPolynomial, int]]:
    """Spectrum of the block quotient of a MOSLS cell graph, as linear
    factors with multiplicities."""
    return _linear_factors(_quotient_lines(q, r, f))


def mosls_graph_spectrum(q: int, r: int, f: int) -> list[tuple[IntPolynomial, int]]:
    """Closed-form spectrum of the MOSLS cell graph on f squares of type
    (q, r), as linear factors with multiplicities, valid when the Latin
    adjacency commutes with the block adjacency: graph.commute_check decides
    that on the graph, and block-permutational squares ensure it (proof,
    and where the converse fails, at designs.is_block_permutational)."""
    if f < 1:
        raise ValueError("need at least one square")
    lines = _quotient_lines(q, r, f) + [
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


def _closed_form_verdict(g, factors) -> str:
    """`spectrum --verify-closed-form`: the closed form of the cell graph g
    against its certified factors, or certified on g when factors is None
    (--numeric), MOLS for any family, MOSLS once graph.commute_check(g)."""
    n, f = g.order, len(g.squares)
    if g.flavor == "mols":
        closed = srg_spectrum(n * n, (f + 2) * (n - 1), n - 2 + f * (f + 1), (f + 1) * (f + 2))
    elif graph.commute_check(g):
        closed = mosls_graph_spectrum(g.shape.q, g.shape.r, f)
    else:
        return "INAPPLICABLE (adjacency layers do not commute)"
    match = certify_charpoly(g.adjacency, closed) if factors is None else _same_product(factors, closed)
    return "MATCH" if match else "MISMATCH"
