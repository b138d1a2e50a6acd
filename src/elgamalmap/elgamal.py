"""A minimal ElGamal signature sign/verify pair, and `Permutation`, an
explicit image table.

A signature is the pair (K, b) of ints that `sign` returns and `verify`
checks.  Messages and keys are raw residues mod p-1; there is no
hashing.  The cycle statistics of x -> g**x read the power table
directly (`permstat`), so nothing in the package builds a `Permutation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .numth import GroupParams

__all__ = ["Permutation", "sign", "verify"]


# Kept for perfbench/child.py's DATACLASS_HOOKS: every traced child dies without it.
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


def sign(params: GroupParams, secret_a: int, session_k: int, message_m: int) -> tuple[int, int]:
    """Sign message_m with global key secret_a and session key session_k.

    Returns:
        (K, b): the public session key K = g**k mod p, in [1, p-1], and
        b = k^(-1) * (m - a*K) mod (p-1), in [0, p-2], with K read as an
        integer inside the exponent arithmetic.

    Raises:
        ValueError: if session_k is not invertible mod p-1.
    """
    p, g, d = params.p, params.g, params.d
    if gcd(session_k % d, d) != 1:
        raise ValueError(f"session key {session_k} is not invertible mod {d}")
    K = pow(g, session_k % d, p)
    b = pow(session_k, -1, d) * (message_m - secret_a * K) % d
    return K, b


def verify(params: GroupParams, public_A: int, message_m: int, signature: tuple[int, int]) -> bool:
    """Check that the signature (K, b) has K in [1, p-1] and b in
    [0, p-2], then the verification identity g**m == A**K * K**b (mod p).

    For an honest signature, m = a*K + k*b (mod p-1), so both sides equal
    g**m.  Without the range check on K, anyone holding one signature could
    sign any message: K' = K + j*p is the same residue mod p but another
    residue mod p-1 (Handbook of Applied Cryptography, note 11.66(iii)).
    """
    p, g = params.p, params.g
    K, b = signature
    if not (1 <= K <= p - 1 and 0 <= b <= p - 2):
        return False
    return pow(g, message_m % params.d, p) == pow(public_A, K, p) * pow(K, b, p) % p
