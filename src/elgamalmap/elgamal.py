"""The exponentiation map x -> g**x mod p as an explicit permutation of
{1, ..., p-1}, plus a minimal ElGamal signature sign/verify pair built
from the same arithmetic.

The permutation's domain is {1, ..., p-1}, so x = p-1 maps to
g**(p-1) = 1; it reads the power table, which is indexed by exponents in
Z_{p-1}, at x mod (p-1).  Messages and keys in the signature scheme
are raw residues mod p-1; there is no hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .numth import GroupParams

__all__ = ["Permutation", "Signature", "elgamal_permutation", "sign", "verify"]


@dataclass(frozen=True)
class Permutation:
    """An explicit bijection on {1, ..., n} stored as an image table.

    `image[i-1]` is the image of element i.  Construction verifies the
    bijection property.
    """

    n: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.image) != self.n:
            raise ValueError(f"image table must have length n = {self.n}")
        if sorted(self.image) != list(range(1, self.n + 1)):
            raise ValueError("image is not a bijection on {1..n}")


def elgamal_permutation(params: GroupParams) -> Permutation:
    """The permutation x -> g**x mod p of {1, ..., p-1}."""
    p, d = params.p, params.d
    image = params.table[np.arange(1, p) % d]
    return Permutation(d, tuple(image.tolist()))


@dataclass(frozen=True)
class Signature:
    """A signature (K, b): the public session key K = g**k in [1, p-1]
    and the residue b in [0, p-2]."""

    K: int
    b: int


def sign(params: GroupParams, secret_a: int, session_k: int, message_m: int) -> Signature:
    """Sign message_m with global key secret_a and session key session_k.

    K = g**k mod p and b = k^(-1) * (m - a*K) mod (p-1), where K is read
    as an integer in [1, p-1] inside the exponent arithmetic.

    Raises:
        ValueError: if session_k is not invertible mod p-1.
    """
    p, g, d = params.p, params.g, params.d
    if gcd(session_k % d, d) != 1:
        raise ValueError(f"session key {session_k} is not invertible mod {d}")
    K = pow(g, session_k % d, p)
    b = pow(session_k, -1, d) * (message_m - secret_a * K) % d
    return Signature(K, b)


def verify(params: GroupParams, public_A: int, message_m: int, sig: Signature) -> bool:
    """Check that K lies in [1, p-1] and b in [0, p-2], then the
    verification identity g**m == A**K * K**b (mod p).

    For an honest signature, m = a*K + k*b (mod p-1), so both sides equal
    g**m.  Without the range check on K, anyone holding one signature could
    sign any message: K' = K + j*p is the same residue mod p but another
    residue mod p-1 (Handbook of Applied Cryptography, note 11.66(iii)).
    """
    p, g = params.p, params.g
    if not (1 <= sig.K <= p - 1 and 0 <= sig.b <= p - 2):
        return False
    return pow(g, message_m % params.d, p) == pow(public_A, sig.K, p) * pow(sig.K, sig.b, p) % p
