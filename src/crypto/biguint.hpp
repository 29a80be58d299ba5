// Arbitrary-precision unsigned integers, just enough for demonstration-grade
// RSA: schoolbook multiplication, Knuth's word-wise long division, and
// Montgomery (CIOS) modular exponentiation. Values are stored in 32-bit limbs
// so the schoolbook and division products fit in uint64_t.
//
// Exponentiation runs on 64-bit words, with unsigned __int128 intermediates,
// through a MontgomeryModulus: the modulus's words, -m^-1 mod 2^64 and
// R^2 mod m, built once per modulus. RSA keys carry one for n, p and q, so a
// sign or verify does no setup. Moduli of 1 to 8 words (up to 512 bits: the
// CRT halves, 256-bit n, Miller–Rabin candidates and 512-bit keys) run a
// fixed-width kernel over stack arrays that the compiler unrolls; wider ones
// run the same kernel at run-time width. Exponents longer than 32 bits walk
// a fixed 4-bit window over a 15-entry table; shorter ones (e = 65537) use
// plain square-and-multiply. A CRT private-key operation runs its two halves
// in lockstep, so the CPU overlaps their chains of dependent multiplies.
// Nothing on these paths allocates but the result.
//
// This is NOT a constant-time implementation and the library's RSA keys are
// deliberately small (256–512 bits): the reproduction needs the *protocol
// shape* of the paper's integrity scheme, not production cryptography.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace baps::crypto {

class MontgomeryModulus;

class BigUInt {
 public:
  BigUInt() = default;
  /// From a machine word.
  explicit BigUInt(std::uint64_t v);
  /// From big-endian bytes (as in a digest).
  static BigUInt from_bytes(std::span<const std::uint8_t> big_endian);
  /// From lowercase/uppercase hex.
  static BigUInt from_hex(const std::string& hex);

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1u); }
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;

  /// Big-endian byte serialization, no leading zeros (empty for zero).
  std::vector<std::uint8_t> to_bytes() const;
  std::string to_hex() const;
  /// Value as uint64_t; requires bit_length() <= 64.
  std::uint64_t to_u64() const;

  friend std::strong_ordering operator<=>(const BigUInt& a, const BigUInt& b);
  friend bool operator==(const BigUInt& a, const BigUInt& b) {
    return a.limbs_ == b.limbs_;
  }

  friend BigUInt operator+(const BigUInt& a, const BigUInt& b);
  /// Requires a >= b.
  friend BigUInt operator-(const BigUInt& a, const BigUInt& b);
  friend BigUInt operator*(const BigUInt& a, const BigUInt& b);
  /// Quotient and remainder; divisor must be nonzero.
  static std::pair<BigUInt, BigUInt> divmod(const BigUInt& num,
                                            const BigUInt& den);
  friend BigUInt operator/(const BigUInt& a, const BigUInt& b) {
    return divmod(a, b).first;
  }
  friend BigUInt operator%(const BigUInt& a, const BigUInt& b) {
    return divmod(a, b).second;
  }

  BigUInt shifted_left(std::size_t bits) const;
  BigUInt shifted_right(std::size_t bits) const;

  /// (base ^ exp) mod m through a MontgomeryModulus built for this call.
  /// m must be odd (RSA moduli, their prime factors and Miller–Rabin
  /// candidates are). Callers that reuse a modulus keep the context instead.
  static BigUInt mod_pow(const BigUInt& base, const BigUInt& exp,
                         const BigUInt& m);
  static BigUInt gcd(BigUInt a, BigUInt b);
  /// Modular inverse of a mod m; returns zero BigUInt if gcd(a, m) != 1.
  static BigUInt mod_inverse(const BigUInt& a, const BigUInt& m);

 private:
  friend class MontgomeryModulus;
  friend BigUInt crt_mod_pow(const BigUInt& x, const MontgomeryModulus& p,
                             const BigUInt& dp, const MontgomeryModulus& q,
                             const BigUInt& dq, const BigUInt& qinv);

  void trim();
  /// Packs the value into `n` little-endian 64-bit words; requires it to fit.
  void to_words(std::uint64_t* out, std::size_t n) const;
  static BigUInt from_words(const std::uint64_t* words, std::size_t n);

  // Little-endian 32-bit limbs; empty vector represents zero.
  std::vector<std::uint32_t> limbs_;
};

/// Montgomery arithmetic modulo one odd m of w 64-bit words, R = 2^(64w).
/// A default-constructed context is empty and matches no modulus.
class MontgomeryModulus {
 public:
  /// Widths up to this many words run the fixed-width kernels.
  static constexpr std::size_t kMaxFixedWords = 8;

  MontgomeryModulus() = default;
  /// Requires m odd.
  explicit MontgomeryModulus(const BigUInt& m);

  /// True when this context was built for exactly m.
  bool matches(const BigUInt& m) const {
    return !words_.empty() && modulus_ == m;
  }

  /// (base ^ exp) mod m. Only a base wider than m is divided first.
  BigUInt pow(const BigUInt& base, const BigUInt& exp) const;

 private:
  friend BigUInt crt_mod_pow(const BigUInt& x, const MontgomeryModulus& p,
                             const BigUInt& dp, const MontgomeryModulus& q,
                             const BigUInt& dq, const BigUInt& qinv);

  /// Packs base into out[0, words_.size()), reduced first only if wider.
  void load_base(const BigUInt& base, std::uint64_t* out) const;
  /// (base ^ exp) mod m into out[0, words_.size()).
  void pow_words(const BigUInt& base, const BigUInt& exp,
                 std::uint64_t* out) const;
  /// a * b * R^-1 mod m over words_.size() words, for a < R and b < m.
  void mul_words(const std::uint64_t* a, const std::uint64_t* b,
                 std::uint64_t* out) const;

  BigUInt modulus_;
  std::vector<std::uint64_t> words_;  ///< m, little-endian
  std::vector<std::uint64_t> r2_;     ///< R^2 mod m
  std::uint64_t m_inv_ = 0;           ///< -m^-1 mod 2^64
};

/// x^d mod pq by the Chinese Remainder Theorem, from the contexts of the two
/// primes: m1 = x^dp mod p and m2 = x^dq mod q, run in lockstep when p and q
/// have one width, recombined with Garner's formula
/// m2 + q * ((m1 - m2) * qinv mod p) on the same words. qinv = q^-1 mod p.
/// Requires x < pq.
BigUInt crt_mod_pow(const BigUInt& x, const MontgomeryModulus& p,
                    const BigUInt& dp, const MontgomeryModulus& q,
                    const BigUInt& dq, const BigUInt& qinv);

}  // namespace baps::crypto
