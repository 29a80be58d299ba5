#include "crypto/biguint.hpp"

#include <gtest/gtest.h>

#include <iterator>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace baps::crypto {
namespace {

// Reference implementations the word-wise code is checked against: the
// library's original bit-serial long division, and its square-and-multiply
// with `%` after every product (`%` itself is checked against the bit-serial
// division by the differential below).
std::pair<BigUInt, BigUInt> bit_serial_divmod(const BigUInt& num,
                                              const BigUInt& den) {
  BigUInt quotient, remainder;
  for (std::size_t i = num.bit_length(); i-- > 0;) {
    remainder = remainder.shifted_left(1);
    if (num.bit(i)) remainder = remainder + BigUInt(1);
    quotient = quotient.shifted_left(1);
    if (remainder >= den) {
      remainder = remainder - den;
      quotient = quotient + BigUInt(1);
    }
  }
  return {quotient, remainder};
}

BigUInt square_and_multiply(const BigUInt& base, const BigUInt& exp,
                            const BigUInt& m) {
  if (m == BigUInt(1)) return BigUInt();
  BigUInt result(1);
  BigUInt b = base % m;
  for (std::size_t i = 0, n = exp.bit_length(); i < n; ++i) {
    if (exp.bit(i)) result = (result * b) % m;
    b = (b * b) % m;
  }
  return result;
}

// A random operand of `limbs` 32-bit limbs, built with shifts and adds so it
// does not depend on from_bytes. Limbs are often 0, 1 or all-ones, and the
// top limb is never zero.
BigUInt random_operand(std::size_t limbs, Xoshiro256& rng) {
  static constexpr std::uint32_t kSpecial[] = {0u, 1u, 0x7fffffffu,
                                               0x80000000u, 0xffffffffu};
  BigUInt out;
  for (std::size_t i = 0; i < limbs; ++i) {
    std::uint32_t limb = rng.below(3) == 0
                             ? kSpecial[rng.below(std::size(kSpecial))]
                             : static_cast<std::uint32_t>(rng());
    if (i == 0 && limb == 0) limb = 0xffffffffu;
    out = out.shifted_left(32) + BigUInt(limb);
  }
  return out;
}

std::size_t random_limbs(Xoshiro256& rng) { return 1 + rng.below(16); }

TEST(BigUIntTest, ZeroProperties) {
  BigUInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_odd());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_TRUE(z.to_bytes().empty());
}

TEST(BigUIntTest, U64RoundTrip) {
  for (std::uint64_t v : {0ULL, 1ULL, 255ULL, 0x123456789abcdefULL, ~0ULL}) {
    EXPECT_EQ(BigUInt(v).to_u64(), v);
  }
}

TEST(BigUIntTest, HexRoundTrip) {
  const std::string hex = "deadbeefcafebabe0123456789abcdef";
  EXPECT_EQ(BigUInt::from_hex(hex).to_hex(), hex);
  // Leading zeros, mixed case, and lengths that end mid-limb.
  EXPECT_EQ(BigUInt::from_hex("000000000000abc").to_hex(), "abc");
  EXPECT_EQ(BigUInt::from_hex("ABCdef").to_u64(), 0xabcdefu);
  EXPECT_TRUE(BigUInt::from_hex("").is_zero());
  EXPECT_TRUE(BigUInt::from_hex("0000").is_zero());
  const std::string wide = "1" + std::string(64, '0') + "f";  // 66 nibbles
  EXPECT_EQ(BigUInt::from_hex(wide).to_hex(), wide);
  EXPECT_EQ(BigUInt::from_hex(wide),
            BigUInt(1).shifted_left(260) + BigUInt(15));
  EXPECT_THROW(BigUInt::from_hex("12g4"), baps::InvariantError);
}

TEST(BigUIntTest, FromBytesBigEndian) {
  const std::vector<std::uint8_t> bytes = {0x01, 0x02, 0x03};
  EXPECT_EQ(BigUInt::from_bytes(bytes).to_u64(), 0x010203u);
  EXPECT_EQ(BigUInt::from_bytes(bytes).to_bytes(), bytes);

  const std::vector<std::uint8_t> padded = {0x00, 0x00, 0x00, 0x00, 0x00,
                                            0x07, 0x00, 0x01};
  EXPECT_EQ(BigUInt::from_bytes(padded).to_u64(), 0x070001u);
  EXPECT_EQ(BigUInt::from_bytes(padded).to_bytes(),
            std::vector<std::uint8_t>(padded.begin() + 5, padded.end()));
  EXPECT_TRUE(BigUInt::from_bytes(std::vector<std::uint8_t>(9, 0)).is_zero());

  // 33 bytes: one more than a whole number of limbs.
  std::vector<std::uint8_t> wide(33);
  for (std::size_t i = 0; i < wide.size(); ++i) {
    wide[i] = static_cast<std::uint8_t>(0xa5 ^ (i * 37));
  }
  const BigUInt x = BigUInt::from_bytes(wide);
  EXPECT_EQ(x.bit_length(), 33u * 8u);
  EXPECT_EQ(x.to_bytes(), wide);
  BigUInt by_shifts;
  for (std::uint8_t b : wide) by_shifts = by_shifts.shifted_left(8) + BigUInt(b);
  EXPECT_EQ(x, by_shifts);
}

TEST(BigUIntTest, ArithmeticAgainstU64Reference) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng() >> 33;  // keep products in range
    const std::uint64_t b = rng() >> 33;
    EXPECT_EQ((BigUInt(a) + BigUInt(b)).to_u64(), a + b);
    EXPECT_EQ((BigUInt(std::max(a, b)) - BigUInt(std::min(a, b))).to_u64(),
              std::max(a, b) - std::min(a, b));
    EXPECT_EQ((BigUInt(a) * BigUInt(b)).to_u64(), a * b);
    if (b != 0) {
      EXPECT_EQ((BigUInt(a) / BigUInt(b)).to_u64(), a / b);
      EXPECT_EQ((BigUInt(a) % BigUInt(b)).to_u64(), a % b);
    }
  }
}

TEST(BigUIntTest, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigUInt(1) - BigUInt(2), baps::InvariantError);
}

TEST(BigUIntTest, DivisionByZeroThrows) {
  EXPECT_THROW(BigUInt::divmod(BigUInt(1), BigUInt()), baps::InvariantError);
}

TEST(BigUIntTest, DivmodIdentityHoldsOnWideValues) {
  Xoshiro256 rng(23);
  for (int i = 0; i < 200; ++i) {
    // Build a ~192-bit numerator and ~96-bit denominator.
    BigUInt num = (BigUInt(rng()) * BigUInt(rng())) * BigUInt(rng());
    BigUInt den = BigUInt(rng()) * BigUInt(rng() | 1);
    auto [q, r] = BigUInt::divmod(num, den);
    EXPECT_TRUE(r < den);
    EXPECT_EQ(q * den + r, num);
  }
}

TEST(BigUIntTest, DivmodMatchesBitSerialReference) {
  Xoshiro256 rng(0xd1f);
  for (int i = 0; i < 10000; ++i) {
    const BigUInt den = random_operand(random_limbs(rng), rng);
    BigUInt num;
    switch (rng.below(3)) {
      case 0:  // independent operands, often num < den
        num = random_operand(random_limbs(rng), rng);
        break;
      case 1:  // num's top limbs repeat den's: q̂ estimates run high
        num = den.shifted_left(32 * (1 + rng.below(4))) +
              random_operand(1 + rng.below(4), rng);
        break;
      default:  // the largest remainder: num = den * q + (den - 1)
        num = den * random_operand(1 + rng.below(8), rng) + (den - BigUInt(1));
        break;
    }
    const auto [q, r] = BigUInt::divmod(num, den);
    const auto [ref_q, ref_r] = bit_serial_divmod(num, den);
    ASSERT_EQ(q, ref_q) << num.to_hex() << " / " << den.to_hex();
    ASSERT_EQ(r, ref_r) << num.to_hex() << " % " << den.to_hex();
  }
}

TEST(BigUIntTest, DivmodAddBackStep) {
  // Algorithm D's q̂ survives the two-limb test but is still one too large
  // here, so the quotient digit needs the add-back correction (step D6).
  const BigUInt num =
      BigUInt::from_hex("80000000000000000000ffff7fffffff00000001");
  const BigUInt den = BigUInt::from_hex("8000000080000000ffffffff");
  const auto [q, r] = BigUInt::divmod(num, den);
  const auto [ref_q, ref_r] = bit_serial_divmod(num, den);
  EXPECT_EQ(q, ref_q);
  EXPECT_EQ(r, ref_r);
  EXPECT_EQ(q * den + r, num);
}

TEST(BigUIntTest, ModPowMatchesSquareAndMultiplyReference) {
  Xoshiro256 rng(0x90d);
  for (int i = 0; i < 10000; ++i) {
    BigUInt m = random_operand(random_limbs(rng), rng);
    if (!m.is_odd()) m = m + BigUInt(1);
    const BigUInt base = random_operand(random_limbs(rng), rng);
    const BigUInt exp = random_operand(1 + rng.below(8), rng);
    ASSERT_EQ(BigUInt::mod_pow(base, exp, m), square_and_multiply(base, exp, m))
        << base.to_hex() << " ^ " << exp.to_hex() << " mod " << m.to_hex();
  }
}

// mod_pow's Montgomery products run on 64-bit words with R = 2^(64w) for a
// w-word modulus. A carry out of the top word, and a borrow through a word
// the final subtraction leaves equal, need a modulus just below R and an
// operand just below the modulus; random operands almost never reach them.
TEST(BigUIntTest, ModPowModulusJustBelowWordBoundary) {
  Xoshiro256 rng(0xed6e);
  for (int i = 0; i < 2000; ++i) {
    const BigUInt r = BigUInt(1).shifted_left(64 * (1 + rng.below(8)));
    const BigUInt m = r - BigUInt(2 * rng.below(1000) + 1);
    const BigUInt base = m - BigUInt(rng.below(3) + 1);
    const BigUInt exp = random_operand(1 + rng.below(4), rng);
    ASSERT_EQ(BigUInt::mod_pow(base, exp, m), square_and_multiply(base, exp, m))
        << base.to_hex() << " ^ " << exp.to_hex() << " mod " << m.to_hex();
  }
}

TEST(BigUIntTest, ShiftsAreInverse) {
  const BigUInt x = BigUInt::from_hex("123456789abcdef0123456789");
  for (std::size_t s : {1u, 7u, 32u, 33u, 95u}) {
    EXPECT_EQ(x.shifted_left(s).shifted_right(s), x) << "shift " << s;
  }
}

TEST(BigUIntTest, ShiftLeftMultipliesByPowerOfTwo) {
  EXPECT_EQ(BigUInt(5).shifted_left(3).to_u64(), 40u);
  EXPECT_EQ(BigUInt(1).shifted_left(100).shifted_right(100).to_u64(), 1u);
}

TEST(BigUIntTest, ComparisonOrdersByValue) {
  EXPECT_TRUE(BigUInt(3) < BigUInt(5));
  EXPECT_TRUE(BigUInt::from_hex("ffffffffffffffff") <
              BigUInt::from_hex("10000000000000000"));
  EXPECT_TRUE(BigUInt() < BigUInt(1));
}

TEST(BigUIntTest, ModPowSmallCases) {
  // 4^13 mod 497 = 445 (classic textbook example).
  EXPECT_EQ(BigUInt::mod_pow(BigUInt(4), BigUInt(13), BigUInt(497)).to_u64(),
            445u);
  // The modulus must be odd.
  EXPECT_THROW(BigUInt::mod_pow(BigUInt(2), BigUInt(10), BigUInt(1000)),
               baps::InvariantError);
  EXPECT_THROW(BigUInt::mod_pow(BigUInt(2), BigUInt(10), BigUInt()),
               baps::InvariantError);
  EXPECT_EQ(BigUInt::mod_pow(BigUInt(2), BigUInt(10), BigUInt(1001)).to_u64(),
            23u);
  EXPECT_TRUE(BigUInt::mod_pow(BigUInt(5), BigUInt(3), BigUInt(1)).is_zero());
  EXPECT_TRUE(
      BigUInt::mod_pow(BigUInt(7), BigUInt(0), BigUInt(13)) == BigUInt(1));
}

TEST(BigUIntTest, ModPowMatchesFermatOnPrimeModulus) {
  // a^(p-1) ≡ 1 mod p for prime p and a not divisible by p.
  const BigUInt p(1000000007ULL);
  Xoshiro256 rng(3);
  for (int i = 0; i < 50; ++i) {
    const BigUInt a(rng.below(1000000006ULL) + 1);
    EXPECT_EQ(BigUInt::mod_pow(a, p - BigUInt(1), p), BigUInt(1));
  }
}

TEST(BigUIntTest, GcdMatchesReference) {
  EXPECT_EQ(BigUInt::gcd(BigUInt(48), BigUInt(18)).to_u64(), 6u);
  EXPECT_EQ(BigUInt::gcd(BigUInt(17), BigUInt(13)).to_u64(), 1u);
  EXPECT_EQ(BigUInt::gcd(BigUInt(), BigUInt(5)).to_u64(), 5u);
}

TEST(BigUIntTest, ModInverseProducesUnitProduct) {
  Xoshiro256 rng(41);
  const BigUInt m(1000000007ULL);  // prime modulus: everything invertible
  for (int i = 0; i < 100; ++i) {
    const BigUInt a(rng.below(1000000006ULL) + 1);
    const BigUInt inv = BigUInt::mod_inverse(a, m);
    EXPECT_EQ((a * inv) % m, BigUInt(1));
  }
}

TEST(BigUIntTest, ModInverseOfNonInvertibleIsZero) {
  EXPECT_TRUE(BigUInt::mod_inverse(BigUInt(6), BigUInt(9)).is_zero());
}

// An odd modulus of exactly `words` 64-bit words.
BigUInt random_modulus(std::size_t words, Xoshiro256& rng) {
  const BigUInt m = random_operand(2 * words, rng);  // top limb nonzero
  return m.is_odd() ? m : m + BigUInt(1);
}

// An exponent of exactly `bits` bits.
BigUInt random_exponent(std::size_t bits, Xoshiro256& rng) {
  const BigUInt top = BigUInt(1).shifted_left(bits - 1);
  return top + random_operand((bits + 31) / 32, rng) % top;
}

// Every fixed width (1–8 words) and the run-time-width fallback (9–12), with
// exponents on both sides of the 32-bit square-and-multiply / 4-bit window
// threshold, and bases below m, in [m, R) (no division) and wider than m.
TEST(BigUIntTest, ModPowEveryWidthAndWindowMatchesReference) {
  Xoshiro256 rng(0x3017);
  for (std::size_t words = 1; words <= 12; ++words) {
    for (int i = 0; i < 6; ++i) {
      const BigUInt m = random_modulus(words, rng);
      const BigUInt r = BigUInt(1).shifted_left(64 * words);
      const MontgomeryModulus mont(m);
      for (std::size_t bits :
           {1u, 2u, 17u, 31u, 32u, 33u, 34u, 64u, 65u, 127u, 128u, 200u}) {
        const BigUInt exp = random_exponent(bits, rng);
        const BigUInt bases[] = {
            random_operand(2 * words, rng) % m,
            m + random_operand(2 * words, rng) % (r - m),
            random_operand(2 * words + 1 + rng.below(4), rng)};
        for (const BigUInt& base : bases) {
          const BigUInt expected = square_and_multiply(base, exp, m);
          ASSERT_EQ(mont.pow(base, exp), expected)
              << base.to_hex() << " ^ " << exp.to_hex() << " mod "
              << m.to_hex();
          ASSERT_EQ(BigUInt::mod_pow(base, exp, m), expected);
        }
      }
    }
  }
}

TEST(MontgomeryModulusTest, MatchesOnlyItsOwnModulus) {
  const BigUInt m = BigUInt::from_hex("f00dfacecafebabe0123456789abcdef1");
  const MontgomeryModulus mont(m);
  EXPECT_TRUE(mont.matches(m));
  EXPECT_FALSE(mont.matches(m + BigUInt(2)));
  EXPECT_FALSE(MontgomeryModulus().matches(m));
  EXPECT_FALSE(MontgomeryModulus().matches(BigUInt()));
  EXPECT_THROW(MontgomeryModulus(BigUInt(1000)), baps::InvariantError);
  EXPECT_THROW(MontgomeryModulus{BigUInt()}, baps::InvariantError);
}

}  // namespace
}  // namespace baps::crypto
