#include "crypto/rsa.hpp"

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace baps::crypto {
namespace {

BigUInt random_biguint(std::size_t bits, Xoshiro256& rng) {
  BAPS_REQUIRE(bits >= 2, "need at least 2 bits");
  std::vector<std::uint8_t> bytes((bits + 7) / 8);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  // Force exactly `bits` bits and oddness (prime candidates).
  const std::size_t top_bit = (bits - 1) % 8;
  bytes[0] |= static_cast<std::uint8_t>(1u << top_bit);
  bytes[0] &= static_cast<std::uint8_t>((2u << top_bit) - 1u);
  bytes.back() |= 1;
  return BigUInt::from_bytes(bytes);
}

// Every 16-byte MD5 digest embeds below a modulus wider than this.
constexpr std::size_t kDigestBits = 128;

}  // namespace

bool is_probable_prime(const BigUInt& n, int rounds, std::uint64_t seed) {
  if (n < BigUInt(2)) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    const BigUInt bp(p);
    if (n == bp) return true;
    if ((n % bp).is_zero()) return false;
  }
  // Write n - 1 = d * 2^r with d odd.
  const BigUInt n_minus_1 = n - BigUInt(1);
  BigUInt d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d.shifted_right(1);
    ++r;
  }
  Xoshiro256 rng(seed);
  const std::size_t bits = n.bit_length();
  const MontgomeryModulus mont(n);  // shared by every round
  for (int round = 0; round < rounds; ++round) {
    // Witness in [2, n-2]: draw random values until one lands in range —
    // rejection terminates fast because bits matches n's size.
    BigUInt a;
    do {
      a = random_biguint(bits, rng) % n;
    } while (a < BigUInt(2) || a > n - BigUInt(2));
    BigUInt x = mont.pow(a, d);
    if (x == BigUInt(1) || x == n_minus_1) continue;
    bool composite = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = (x * x) % n;
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigUInt generate_prime(std::size_t bits, std::uint64_t seed) {
  BAPS_REQUIRE(bits >= 8, "prime size too small");
  SplitMix64 mixer(seed);
  Xoshiro256 rng(mixer.next());
  for (;;) {
    BigUInt candidate = random_biguint(bits, rng);
    if (is_probable_prime(candidate, 20, mixer.next())) return candidate;
  }
}

RsaKeyPair generate_rsa_keypair(std::size_t modulus_bits, std::uint64_t seed) {
  BAPS_REQUIRE(modulus_bits >= 136,
               "modulus must exceed the 128-bit MD5 digest");
  SplitMix64 mixer(seed);
  const BigUInt e(65537);
  for (;;) {
    const std::size_t half = modulus_bits / 2;
    const BigUInt p = generate_prime(half, mixer.next());
    const BigUInt q = generate_prime(modulus_bits - half, mixer.next());
    if (p == q) continue;
    const BigUInt n = p * q;
    const BigUInt phi = (p - BigUInt(1)) * (q - BigUInt(1));
    if (!(BigUInt::gcd(e, phi) == BigUInt(1))) continue;
    const BigUInt d = BigUInt::mod_inverse(e, phi);
    if (d.is_zero()) continue;
    const BigUInt dp = d % (p - BigUInt(1));
    const BigUInt dq = d % (q - BigUInt(1));
    const BigUInt qinv = BigUInt::mod_inverse(q, p);
    return RsaKeyPair{
        RsaPublicKey{n, e, MontgomeryModulus(n)},
        RsaPrivateKey{n, d, p, q, dp, dq, qinv, MontgomeryModulus(p),
                      MontgomeryModulus(q)}};
  }
}

std::optional<RsaPublicKey> make_rsa_public_key(const BigUInt& n,
                                                const BigUInt& e) {
  if (!n.is_odd() || n.bit_length() <= kDigestBits || !e.is_odd() ||
      e < BigUInt(3)) {
    return std::nullopt;
  }
  return RsaPublicKey{n, e, MontgomeryModulus(n)};
}

BigUInt rsa_private_op(const BigUInt& x, const RsaPrivateKey& key) {
  BAPS_REQUIRE(x < key.n, "private-key input must be below the modulus");
  if (key.mont_p.matches(key.p) && key.mont_q.matches(key.q)) {
    return crt_mod_pow(x, key.mont_p, key.dp, key.mont_q, key.dq, key.qinv);
  }
  return crt_mod_pow(x, MontgomeryModulus(key.p), key.dp,
                     MontgomeryModulus(key.q), key.dq, key.qinv);
}

BigUInt rsa_sign_digest(const Md5Digest& digest, const RsaPrivateKey& key) {
  const BigUInt m = BigUInt::from_bytes(digest.bytes);
  BAPS_REQUIRE(m < key.n, "digest must embed below the modulus");
  return rsa_private_op(m, key);
}

bool rsa_verify_digest(const Md5Digest& digest, const BigUInt& signature,
                       const RsaPublicKey& key) {
  if (!(signature < key.n)) return false;
  const BigUInt recovered = key.mont_n.matches(key.n)
                                ? key.mont_n.pow(signature, key.e)
                                : BigUInt::mod_pow(signature, key.e, key.n);
  return recovered == BigUInt::from_bytes(digest.bytes);
}

}  // namespace baps::crypto
