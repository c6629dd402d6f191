"""Deterministic finite-field arithmetic for GF(p**d), as lookup tables.

An element is its canonical index 0..p**d - 1: the base-p value of its
coefficients over Z_p in ascending powers of t, reduced modulo a canonical
irreducible polynomial.  The modulus is always the lexicographically
smallest monic irreducible of the requested degree, so equal parameters
produce identical fields and everything built on top of them is
reproducible.  Arithmetic is numpy fancy indexing into the add, neg and
mul tables of the field context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class FieldError(ValueError):
    """Bad field parameters."""


# The add and mul tables and the work arrays of a multiplication table take
# about 32*size**2 bytes, 32 MB for the 1024 elements of GF(2**10).
MAX_FIELD_SIZE = 1024


# Miller-Rabin with the twelve primes up to 37 as bases has no strong
# pseudoprime below 3.3e24, so below 2**64 it is deterministic.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality; FieldError from 2**64 on."""
    if p >= 2**64:
        raise FieldError(f"primality of {p} is not tested at 2**64 and above")
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s, d odd
    for a in _WITNESSES:
        x = pow(a, (p - 1) >> s, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldCtx:
    """GF(p**d) represented as Z_p[t]/(modulus), with its operation tables.

    modulus holds ascending coefficients, length d + 1, leading coefficient 1.
    add[a, b], neg[a] and mul[a, b] are canonical indices; the tables are
    read-only and do not take part in equality.
    """

    p: int
    d: int
    modulus: tuple[int, ...]
    add: np.ndarray = field(compare=False, repr=False)
    neg: np.ndarray = field(compare=False, repr=False)
    mul: np.ndarray = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return self.p ** self.d


def _digits(p: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient vectors of every canonical index, and the base-p weights
    that map a coefficient vector back to its index."""
    if p ** d > MAX_FIELD_SIZE:
        raise FieldError(f"GF({p}**{d}) has {p ** d} elements; tables stop at {MAX_FIELD_SIZE}")
    weights = p ** np.arange(d)
    return (np.arange(p ** d)[:, None] // weights) % p, weights


def _tables(p: int, modulus) -> tuple[np.ndarray, np.ndarray]:
    """Addition and multiplication tables of Z_p[t]/(modulus) on canonical
    indices, for a monic modulus of degree d >= 1 given by ascending
    coefficients mod p.  Addition is digitwise mod p; a*b is the sum over i
    of b_i * (a*t**i)."""
    d = len(modulus) - 1
    size = p ** d
    digits, weights = _digits(p, d)
    add = np.zeros((size, size), dtype=np.int64)
    for i in range(d):
        add += (digits[:, None, i] + digits[None, :, i]) % p * weights[i]
    # scale[c, x] is c*x for a constant c
    scale = (np.arange(p)[:, None, None] * digits) % p @ weights
    # x*t: coefficients move up one place and t**d is replaced by the rest
    # of the modulus, negated
    shifted = np.pad(digits[:, :-1], ((0, 0), (1, 0))) - digits[:, -1:] * np.asarray(modulus[:d])
    times_t = shifted % p @ weights
    mul = np.zeros_like(add)
    a_times_ti = np.arange(size)
    for i in range(d):
        mul = add[mul, scale[digits[None, :, i], a_times_ti[:, None]]]
        a_times_ti = times_t[a_times_ti]
    return add, mul


def _no_zero_divisors(mul: np.ndarray) -> bool:
    return bool((mul[1:, 1:] != 0).all())


def is_irreducible(p: int, poly) -> bool:
    """True iff Z_p[t]/(poly) has no zero divisors, which for a monic poly
    of degree >= 1 means poly is irreducible over Z_p."""
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    nonzero = [i for i, c in enumerate(poly) if c]
    if not nonzero or nonzero[-1] < 1:
        raise FieldError("polynomial degree must be at least 1")
    deg = nonzero[-1]
    if poly[deg] != 1:
        raise FieldError("polynomial must be monic")
    _, mul = _tables(p, [c % p for c in poly[: deg + 1]])
    return _no_zero_divisors(mul)


def make_field(p: int, d: int) -> FieldCtx:
    """Build GF(p**d) with the lex-smallest monic irreducible modulus."""
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if d < 1:
        raise FieldError("degree must be at least 1")
    digits, weights = _digits(p, d)
    for low in digits:
        modulus = (*(int(c) for c in low), 1)
        add, mul = _tables(p, modulus)
        if _no_zero_divisors(mul):
            neg = (-digits) % p @ weights
            for table in (add, neg, mul):
                table.setflags(write=False)
            return FieldCtx(p, d, modulus, add, neg, mul)
    raise FieldError(f"no irreducible polynomial of degree {d} over Z_{p}")  # unreachable
