// Demonstration-grade RSA signatures for the paper's digital watermark.
//
// The proxy signs each document's MD5 digest with its private key; any client
// verifies with the proxy's public key but cannot forge a matching watermark.
// Keys are small (default 256-bit modulus) because the reproduction needs the
// protocol's algebraic shape, not production security; the sizes are knobs.
//
// Every private-key operation goes through rsa_private_op, which works modulo
// p and q separately (Chinese Remainder Theorem) and recombines with Garner's
// formula: two half-size exponentiations cost about a quarter of one full
// one, and the result is exactly x^d mod n.
//
// Keys carry their Montgomery contexts (biguint.hpp): the public key one for
// n, the private key one each for p and q.
// generate_rsa_keypair and make_rsa_public_key build them once, so a sign or
// verify does no setup. A key whose context is missing or was built for
// another modulus (a default-constructed or hand-assembled key) still gives
// the right answer: the operation builds a context for that call.
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/biguint.hpp"
#include "crypto/md5.hpp"

namespace baps::crypto {

struct RsaPublicKey {
  BigUInt n;  ///< modulus
  BigUInt e;  ///< public exponent (65537)
  MontgomeryModulus mont_n;  ///< n's context
};

struct RsaPrivateKey {
  BigUInt n;
  /// Private exponent. No program path reads it: rsa_private_op uses the CRT
  /// fields below. It is kept for the textbook identity test.
  BigUInt d;
  BigUInt p;     ///< prime factor of n
  BigUInt q;     ///< the other prime factor
  BigUInt dp;    ///< d mod (p - 1)
  BigUInt dq;    ///< d mod (q - 1)
  BigUInt qinv;  ///< q^-1 mod p
  MontgomeryModulus mont_p;  ///< p's context
  MontgomeryModulus mont_q;  ///< q's context
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

/// Miller–Rabin probabilistic primality test with `rounds` random witnesses.
bool is_probable_prime(const BigUInt& n, int rounds, std::uint64_t seed);

/// Random prime with exactly `bits` bits (top bit set), deterministic in seed.
BigUInt generate_prime(std::size_t bits, std::uint64_t seed);

/// RSA key pair with a modulus of ~`modulus_bits` bits. Deterministic in seed.
/// modulus_bits must be >= 136 so a 16-byte MD5 digest embeds below n.
RsaKeyPair generate_rsa_keypair(std::size_t modulus_bits, std::uint64_t seed);

/// A public key received as (n, e), with its context built. nullopt unless
/// n is odd and wider than 128 bits, so every MD5 digest embeds below it
/// (generate_rsa_keypair's 136-bit minimum can give a 135-bit n), and e is
/// odd and at least 3.
std::optional<RsaPublicKey> make_rsa_public_key(const BigUInt& n,
                                                const BigUInt& e);

/// x^d mod n by CRT: m1 = x^dp mod p, m2 = x^dq mod q, then
/// m2 + q * ((m1 - m2 mod p) * qinv mod p). Requires x < n.
BigUInt rsa_private_op(const BigUInt& x, const RsaPrivateKey& key);

/// Signature over an MD5 digest: sig = digest^d mod n.
BigUInt rsa_sign_digest(const Md5Digest& digest, const RsaPrivateKey& key);

/// Verifies sig^e mod n == digest.
bool rsa_verify_digest(const Md5Digest& digest, const BigUInt& signature,
                       const RsaPublicKey& key);

}  // namespace baps::crypto
