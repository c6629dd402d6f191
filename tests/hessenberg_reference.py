"""Test-side reference for the exact charpoly: Hessenberg reduction modulo
word-sized primes, recombined by the Chinese remainder theorem against an
a-priori coefficient bound.  It shares no arithmetic with
mosls.spectra.charpoly_exact (exact power sums on a float64 BLAS chain),
which the tests check against it.

Reduction mod p commutes with taking det(tI - M), so no prime is "unlucky"
and the reconstruction is exact.  Coefficient bound: let
lambda_1..lambda_n be the complex eigenvalues of M and F = sum a_ij**2.
Schur's inequality gives sum |lambda_i|**2 <= F for any square matrix,
symmetric or not, and Cauchy-Schwarz then gives S = sum |lambda_i| <=
sqrt(n F).  The coefficient of t**(n-k) is (-1)**k e_k(lambda), so
|c_(n-k)| <= e_k(|lambda|) <= C(n,k) (S/n)**k <= sqrt(C(n,k)**2 F**k / n**k)
by Maclaurin's inequality for the non-negative |lambda_i|.  Since
isqrt(floor(x)) + 1 > sqrt(x), every |c| is below
B = max_k isqrt(C(n,k)**2 * F**k // n**k) + 1.  Primes are added until
their product exceeds 2B, so the symmetric CRT residue is the coefficient
itself.
"""

import math

import numpy as np

from mosls.spectra import IntPolynomial

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


def _hessenberg_charpoly_mod(M: np.ndarray, primes) -> list[list[int]]:
    """Charpoly of M over Z_p for each p in primes, ascending coeffs, via
    Hessenberg reduction with the primes on a leading array axis: each
    prime takes its own pivot, the first nonzero entry mod that prime."""
    n = M.shape[0]
    # every dot product below sums at most n products of residues
    if any(n * (p - 1) ** 2 >= 2**63 for p in primes):
        raise ValueError(f"{n} products of residues mod {max(primes)} may overflow int64")
    mods = np.array(primes, dtype=np.int64)
    each = np.arange(len(primes))
    H = np.mod(M[None], mods[:, None, None]).astype(np.int64)
    for k in range(n - 2):
        # first nonzero entry below the subdiagonal position per prime; a
        # prime with none swaps row k+1 with itself and eliminates nothing
        piv = k + 1 + np.argmax(H[:, k + 1 :, k] != 0, axis=1)
        H[each, k + 1], H[each, piv] = H[each, piv], H[each, k + 1]
        H[each, :, k + 1], H[each, :, piv] = H[each, :, piv], H[each, :, k + 1]
        inv = np.array([pow(int(h), p - 2, p) for h, p in zip(H[:, k + 1, k], primes)])
        factors = (H[:, k + 2 :, k] * inv[:, None]) % mods[:, None]
        # rows k+1 and below are already zero left of column k, so the
        # elimination only touches columns k onwards
        H[:, k + 2 :, k:] -= factors[:, :, None] * H[:, None, k + 1, k:]
        H[:, k + 2 :, k:] %= mods[:, None, None]
        H[:, :, k + 1] += (H[:, :, k + 2 :] @ factors[:, :, None])[:, :, 0]
        H[:, :, k + 1] %= mods[:, None]

    # P[:, k] holds coeffs of det(tI - H[:k,:k]); expand along last columns
    P = np.zeros((len(primes), n + 1, n + 1), dtype=np.int64)
    P[:, 0, 0] = 1
    prods = np.zeros((len(primes), n), dtype=np.int64)  # prods[:, i] = H[i+1,i]*...*H[k-1,k-2]
    for k in range(1, n + 1):
        if k >= 2:
            sub = H[:, k - 1, k - 2]
            prods[:, : k - 2] = (prods[:, : k - 2] * sub[:, None]) % mods[:, None]
            prods[:, k - 2] = sub
        P[:, k, 1 : k + 1] = P[:, k - 1, :k]
        P[:, k, :k] -= (H[:, k - 1, k - 1, None] * P[:, k - 1, :k]) % mods[:, None]
        if k >= 2:
            w = (H[:, : k - 1, k - 1] * prods[:, : k - 1]) % mods[:, None]
            P[:, k, :k] -= (w[:, None, :] @ P[:, : k - 1, :k])[:, 0, :] % mods[:, None]
        P[:, k] %= mods[:, None]
    return P[:, n].tolist()


def _coefficient_bound(A: np.ndarray) -> int:
    """B with |c_k| < B for every coefficient of det(tI - A); the module
    docstring has the proof."""
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


_MEMO: dict[bytes, IntPolynomial] = {}


def reference_charpoly(A: np.ndarray) -> IntPolynomial:
    """_hessenberg_crt(A), memoised by the matrix, since several tests check
    the same cell graphs."""
    A = np.ascontiguousarray(A, dtype=np.int64)
    key = A.shape[0].to_bytes(2, "big") + A.tobytes()
    if key not in _MEMO:
        _MEMO[key] = _hessenberg_crt(A)
    return _MEMO[key]


def _hessenberg_crt(A: np.ndarray) -> IntPolynomial:
    """det(tI - A) for any square int64 matrix: Hessenberg charpolys mod
    primes whose product exceeds 2 * _coefficient_bound(A), recombined by
    the Chinese remainder theorem into symmetric residues."""
    primes = _primes_above(2 * _coefficient_bound(A))
    residues = _hessenberg_charpoly_mod(A, primes)
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
