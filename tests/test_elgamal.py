from math import gcd

import numpy as np
import pytest

from elgamalmap.elgamal import Permutation, Signature, sign, verify
from elgamalmap.numth import GroupParams, all_generators

from perm_oracle import elgamal_permutation


def test_permutation_examples():
    assert elgamal_permutation(GroupParams(3, 2)).image == (2, 1)
    assert elgamal_permutation(GroupParams(5, 2)).image == (2, 4, 3, 1)


def test_permutation_at_1009_is_bijection():
    perm = elgamal_permutation(GroupParams(1009, 11))
    assert perm.n == 1008
    assert sorted(perm.image) == list(range(1, 1009))


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation(3, (1, 1, 2))
    with pytest.raises(ValueError):
        Permutation(3, (1, 2))
    with pytest.raises(ValueError):
        Permutation(2, (0, 1))


def test_image_of_is_one_indexed():
    perm = elgamal_permutation(GroupParams(5, 2))
    assert [perm.image[x - 1] for x in (1, 2, 3, 4)] == [2, 4, 3, 1]


def test_incremental_construction_agrees_with_powering():
    """1000 random spot checks of image[x] == g**x mod p."""
    rng = np.random.default_rng(1234)
    params = GroupParams(1009, 11)
    perm = elgamal_permutation(params)
    for x in rng.integers(1, 1009, size=1000):
        assert perm.image[int(x) - 1] == pow(11, int(x), 1009)


def test_every_generator_yields_a_permutation():
    for p in (3, 5, 7, 11, 13, 101):
        for g in all_generators(p):
            elgamal_permutation(GroupParams(p, g))  # validates internally


def test_sign_examples():
    params = GroupParams(5, 2)
    sig = sign(params, secret_a=0, session_k=1, message_m=0)
    assert (sig.K, sig.b) == (2, 0)
    sig = sign(params, secret_a=1, session_k=3, message_m=2)
    assert (sig.K, sig.b) == (3, 1)


def test_sign_rejects_noninvertible_session_key():
    with pytest.raises(ValueError):
        sign(GroupParams(5, 2), 1, 2, 3)  # gcd(2, 4) = 2


def test_round_trip_at_1009():
    params = GroupParams(1009, 11)
    public_A = pow(11, 5, 1009)
    # 7 divides 1008, so k=7 has no inverse and must be rejected
    with pytest.raises(ValueError):
        sign(params, secret_a=5, session_k=7, message_m=100)
    sig = sign(params, secret_a=5, session_k=5, message_m=100)
    assert verify(params, public_A, 100, sig)


def test_verify_trivial_case():
    # m=0, a=0, k=1: A=1, K=g, b=0, and g^0 = 1 = 1^g * g^0
    params = GroupParams(5, 2)
    sig = sign(params, 0, 1, 0)
    assert verify(params, 1, 0, sig)


def test_verify_rejects_tampered_message():
    params = GroupParams(5, 2)
    sig = sign(params, 1, 3, 2)
    public_A = pow(2, 1, 5)
    assert verify(params, public_A, 2, sig)
    assert not verify(params, public_A, 3, sig)


def test_verify_rejects_signature_outside_its_ranges():
    """K' = K + 804*p is K mod p but another residue mod p-1, so without
    the check 1 <= K <= p-1 one honest signature forges any message."""
    params = GroupParams(1009, 11)
    public_A = pow(11, 123, 1009)
    honest = sign(params, secret_a=123, session_k=5, message_m=11)
    assert (honest.K, honest.b) == (620, 475)
    assert verify(params, public_A, 11, honest)
    assert not verify(params, public_A, 500, Signature(811856, 148))
    assert not verify(params, public_A, 11, Signature(620, 475 + 1008))
    assert not verify(params, public_A, 0, Signature(0, 0))


@pytest.mark.parametrize("p", [3, 5])
def test_completeness_exhaustive_tiny(p):
    params = GroupParams(p, 2)
    d = p - 1
    for a in range(d):
        public_A = pow(2, a, p)
        for k in (k for k in range(1, d + 1) if gcd(k, d) == 1):
            for m in range(d):
                sig = sign(params, a, k, m)
                assert verify(params, public_A, m, sig)
                assert not verify(params, public_A, (m + 1) % d, sig)


@pytest.mark.parametrize("p,g", [(101, 2), (1009, 11)])
def test_completeness_randomized(p, g):
    params = GroupParams(p, g)
    d = p - 1
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = int(rng.integers(0, d))
        k = int(rng.integers(1, d))
        while gcd(k, d) != 1:
            k = int(rng.integers(1, d))
        m = int(rng.integers(0, d))
        sig = sign(params, a, k, m)
        public_A = pow(g, a, p)
        assert verify(params, public_A, m, sig)
        assert not verify(params, public_A, (m + 1) % d, sig)
