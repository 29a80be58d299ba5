#include "crypto/rsa.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace baps::crypto {
namespace {

TEST(PrimalityTest, KnownSmallPrimesAndComposites) {
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 97ULL, 7919ULL, 1000000007ULL}) {
    EXPECT_TRUE(is_probable_prime(BigUInt(p), 20, 1)) << p;
  }
  for (std::uint64_t c : {0ULL, 1ULL, 4ULL, 100ULL, 7917ULL, 1000000001ULL}) {
    EXPECT_FALSE(is_probable_prime(BigUInt(c), 20, 1)) << c;
  }
}

TEST(PrimalityTest, CarmichaelNumbersAreRejected) {
  // Fermat pseudoprimes to every base; Miller–Rabin must still reject.
  for (std::uint64_t c : {561ULL, 1105ULL, 1729ULL, 41041ULL, 825265ULL}) {
    EXPECT_FALSE(is_probable_prime(BigUInt(c), 20, 7)) << c;
  }
}

TEST(PrimeGenerationTest, HasExactBitLengthAndIsOdd) {
  for (std::size_t bits : {64u, 96u, 128u}) {
    const BigUInt p = generate_prime(bits, 42);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_odd());
    EXPECT_TRUE(is_probable_prime(p, 30, 99));
  }
}

TEST(PrimeGenerationTest, DeterministicInSeed) {
  EXPECT_EQ(generate_prime(64, 5), generate_prime(64, 5));
  EXPECT_NE(generate_prime(64, 5), generate_prime(64, 6));
}

class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    keys_ = new RsaKeyPair(generate_rsa_keypair(256, 2024));
  }
  static void TearDownTestSuite() {
    delete keys_;
    keys_ = nullptr;
  }
  static RsaKeyPair* keys_;
};
RsaKeyPair* RsaTest::keys_ = nullptr;

TEST_F(RsaTest, KeypairIsDeterministicInSeed) {
  const RsaKeyPair again = generate_rsa_keypair(256, 2024);
  EXPECT_EQ(again.pub.n, keys_->pub.n);
  EXPECT_EQ(again.priv.d, keys_->priv.d);
}

TEST_F(RsaTest, SignVerifyRoundTrip) {
  const Md5Digest d = md5("the quick brown fox");
  const BigUInt sig = rsa_sign_digest(d, keys_->priv);
  EXPECT_TRUE(rsa_verify_digest(d, sig, keys_->pub));
}

TEST_F(RsaTest, VerifyRejectsWrongDigest) {
  const BigUInt sig = rsa_sign_digest(md5("original"), keys_->priv);
  EXPECT_FALSE(rsa_verify_digest(md5("tampered"), sig, keys_->pub));
}

TEST_F(RsaTest, VerifyRejectsMangledSignature) {
  const Md5Digest d = md5("payload");
  BigUInt sig = rsa_sign_digest(d, keys_->priv);
  sig = sig + BigUInt(1);
  EXPECT_FALSE(rsa_verify_digest(d, sig, keys_->pub));
}

TEST_F(RsaTest, VerifyRejectsSignatureFromOtherKey) {
  const RsaKeyPair other = generate_rsa_keypair(256, 777);
  const Md5Digest d = md5("payload");
  const BigUInt sig = rsa_sign_digest(d, other.priv);
  EXPECT_FALSE(rsa_verify_digest(d, sig, keys_->pub));
}

TEST_F(RsaTest, VerifyRejectsOversizedSignature) {
  const Md5Digest d = md5("payload");
  EXPECT_FALSE(rsa_verify_digest(d, keys_->pub.n + BigUInt(1), keys_->pub));
}

TEST_F(RsaTest, TextbookIdentityHolds) {
  // m^(e*d) ≡ m (mod n) for m below n.
  const BigUInt m(123456789ULL);
  const BigUInt c = BigUInt::mod_pow(m, keys_->pub.e, keys_->pub.n);
  EXPECT_EQ(BigUInt::mod_pow(c, keys_->priv.d, keys_->priv.n), m);
}

TEST(RsaKeygenTest, GoldenKeyAndSignature) {
  // Pins the bytes the runtime's default key seed produces, so a change to
  // the big-integer arithmetic cannot silently change keys or watermarks.
  const RsaKeyPair keys = generate_rsa_keypair(256, 7);
  EXPECT_EQ(keys.pub.n.to_hex(),
            "82ff930df92ccc86c84bd7d5fa25a3298d207db1e690e4e5772afc8062be00db");
  const BigUInt sig = rsa_sign_digest(md5("doc-0"), keys.priv);
  EXPECT_EQ(sig.to_hex(),
            "1580dee74203b4077811bfa243196b5363bdaa3350540d27b5c9b0eea170cca0");
  EXPECT_TRUE(rsa_verify_digest(md5("doc-0"), sig, keys.pub));
}

// Uniform-ish value below `bound` from random bytes one byte wider.
BigUInt random_below(const BigUInt& bound, Xoshiro256& rng) {
  std::vector<std::uint8_t> bytes(bound.to_bytes().size() + 1);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return BigUInt::from_bytes(bytes) % bound;
}

TEST(RsaCrtTest, PrivateOpMatchesTextbookExponentiation) {
  // The CRT path must agree with x^d mod n on every key and input. Odd
  // sizes give primes of unequal length, so both p > q and p < q occur.
  Xoshiro256 rng(0xc47);
  int keys_checked = 0;
  bool saw_p_greater = false, saw_q_greater = false;
  for (std::size_t bits : {136u, 200u, 255u, 256u, 257u, 512u}) {
    for (std::uint64_t seed = 0; seed < 34; ++seed) {
      const RsaKeyPair keys = generate_rsa_keypair(bits, 1000 * bits + seed);
      const RsaPrivateKey& k = keys.priv;
      const BigUInt one(1);
      ASSERT_EQ(k.p * k.q, k.n) << bits << "/" << seed;
      ASSERT_EQ(k.dp, k.d % (k.p - one));
      ASSERT_EQ(k.dq, k.d % (k.q - one));
      ASSERT_EQ((k.q * k.qinv) % k.p, one);
      (k.p > k.q ? saw_p_greater : saw_q_greater) = true;

      std::vector<BigUInt> inputs = {
          BigUInt(), one, k.p, k.q, k.p + one, k.q + one,
          k.p * random_below(k.q - one, rng) + k.p,  // ≡ 0 (mod p)
          k.q * random_below(k.p - one, rng) + k.q,  // ≡ 0 (mod q)
          k.n - one};
      for (int i = 0; i < 4; ++i) inputs.push_back(random_below(k.n, rng));
      for (const BigUInt& m : inputs) {
        ASSERT_EQ(rsa_private_op(m, k), BigUInt::mod_pow(m, k.d, k.n))
            << "m=" << m.to_hex() << " n=" << k.n.to_hex();
      }

      Md5Digest digest;
      for (auto& b : digest.bytes) b = static_cast<std::uint8_t>(rng());
      const BigUInt m = BigUInt::from_bytes(digest.bytes);
      const BigUInt sig = rsa_sign_digest(digest, k);
      ASSERT_EQ(sig, BigUInt::mod_pow(m, k.d, k.n)) << k.n.to_hex();
      ASSERT_TRUE(rsa_verify_digest(digest, sig, keys.pub));
      ++keys_checked;
    }
  }
  EXPECT_GE(keys_checked, 200);
  EXPECT_TRUE(saw_p_greater);
  EXPECT_TRUE(saw_q_greater);
}

// 1200 bits gives 10-word primes: the run-time-width kernel, also for the
// CRT halves run in lockstep.
TEST(RsaContextTest, KeyContextsMatchOneShotModPow) {
  Xoshiro256 rng(0x3c7);
  for (std::size_t bits : {136u, 256u, 257u, 512u, 1200u}) {
    const RsaKeyPair keys = generate_rsa_keypair(bits, bits);
    const RsaPublicKey& pub = keys.pub;
    const RsaPrivateKey& k = keys.priv;
    ASSERT_TRUE(pub.mont_n.matches(pub.n)) << bits;
    ASSERT_TRUE(k.mont_p.matches(k.p)) << bits;
    ASSERT_TRUE(k.mont_q.matches(k.q)) << bits;
    for (int i = 0; i < 8; ++i) {
      const BigUInt x = random_below(k.n, rng);
      EXPECT_EQ(pub.mont_n.pow(x, pub.e), BigUInt::mod_pow(x, pub.e, pub.n));
      EXPECT_EQ(k.mont_p.pow(x, k.dp), BigUInt::mod_pow(x, k.dp, k.p));
      EXPECT_EQ(k.mont_q.pow(x, k.dq), BigUInt::mod_pow(x, k.dq, k.q));
      EXPECT_EQ(rsa_private_op(x, k), BigUInt::mod_pow(x, k.d, k.n));
    }
  }
}

TEST(RsaContextTest, MissingOrMismatchedContextStillSignsAndVerifies) {
  const RsaKeyPair keys = generate_rsa_keypair(256, 7);
  const RsaKeyPair other = generate_rsa_keypair(256, 777);
  const Md5Digest digest = md5("doc-0");
  const BigUInt expected = rsa_sign_digest(digest, keys.priv);

  RsaPrivateKey bare = keys.priv;
  bare.mont_p = MontgomeryModulus();
  bare.mont_q = MontgomeryModulus();
  EXPECT_EQ(rsa_sign_digest(digest, bare), expected);

  RsaPrivateKey stale = keys.priv;
  stale.mont_p = other.priv.mont_p;
  stale.mont_q = other.priv.mont_q;
  EXPECT_EQ(rsa_sign_digest(digest, stale), expected);

  RsaPrivateKey swapped = keys.priv;
  std::swap(swapped.mont_p, swapped.mont_q);
  EXPECT_EQ(rsa_sign_digest(digest, swapped), expected);

  // A key assembled field by field, and one carrying another key's context.
  RsaPublicKey assembled;
  assembled.n = keys.pub.n;
  assembled.e = keys.pub.e;
  RsaPublicKey stale_pub = keys.pub;
  stale_pub.mont_n = other.pub.mont_n;
  for (const RsaPublicKey& pub : {assembled, stale_pub}) {
    EXPECT_TRUE(rsa_verify_digest(digest, expected, pub));
    EXPECT_FALSE(rsa_verify_digest(md5("doc-1"), expected, pub));
    EXPECT_FALSE(rsa_verify_digest(digest, expected + BigUInt(1), pub));
  }
}

TEST(RsaContextTest, MakeRsaPublicKeyChecksTheKey) {
  const RsaKeyPair keys = generate_rsa_keypair(256, 7);
  const BigUInt& n = keys.pub.n;
  const BigUInt& e = keys.pub.e;
  const auto made = make_rsa_public_key(n, e);
  ASSERT_TRUE(made.has_value());
  EXPECT_EQ(made->n, n);
  EXPECT_EQ(made->e, e);
  EXPECT_TRUE(made->mont_n.matches(n));
  const Md5Digest digest = md5("doc-0");
  EXPECT_TRUE(rsa_verify_digest(digest, rsa_sign_digest(digest, keys.priv),
                                *made));

  const BigUInt one(1);
  const BigUInt r128 = one.shifted_left(128);
  EXPECT_FALSE(make_rsa_public_key(n + one, e).has_value());  // even n
  EXPECT_FALSE(make_rsa_public_key(BigUInt(), e).has_value());
  EXPECT_FALSE(make_rsa_public_key(r128 - one, e).has_value());  // 128 bits
  EXPECT_TRUE(make_rsa_public_key(r128 + one, e).has_value());   // 129 bits
  EXPECT_FALSE(make_rsa_public_key(n, e + one).has_value());     // even e
  EXPECT_FALSE(make_rsa_public_key(n, one).has_value());
  EXPECT_FALSE(make_rsa_public_key(n, BigUInt()).has_value());
  EXPECT_TRUE(make_rsa_public_key(n, BigUInt(3)).has_value());
  // The smallest generated size can give a 135-bit n; such keys pass.
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const RsaKeyPair small = generate_rsa_keypair(136, seed);
    EXPECT_TRUE(make_rsa_public_key(small.pub.n, small.pub.e).has_value())
        << small.pub.n.bit_length() << " bits";
  }
}

TEST(RsaCrtTest, PrivateOpRejectsInputAtOrAboveModulus) {
  const RsaKeyPair keys = generate_rsa_keypair(256, 7);
  EXPECT_THROW(rsa_private_op(keys.priv.n, keys.priv), baps::InvariantError);
}

TEST(RsaKeygenTest, RejectsTooSmallModulus) {
  EXPECT_THROW(generate_rsa_keypair(128, 1), baps::InvariantError);
}

}  // namespace
}  // namespace baps::crypto
