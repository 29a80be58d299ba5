// Arbitrary-precision unsigned integers, just enough for demonstration-grade
// RSA: schoolbook multiplication, Knuth's word-wise long division, and
// Montgomery (CIOS) modular exponentiation. Values are stored in 32-bit limbs
// so the schoolbook and division products fit in uint64_t; mod_pow packs them
// into 64-bit words on entry and runs its Montgomery products on those, with
// unsigned __int128 intermediates, then unpacks the result.
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

  /// (base ^ exp) mod m, left-to-right square-and-multiply in Montgomery
  /// form over 64-bit words. m must be odd (RSA moduli, their prime factors
  /// and Miller–Rabin candidates are).
  static BigUInt mod_pow(const BigUInt& base, const BigUInt& exp,
                         const BigUInt& m);
  static BigUInt gcd(BigUInt a, BigUInt b);
  /// Modular inverse of a mod m; returns zero BigUInt if gcd(a, m) != 1.
  static BigUInt mod_inverse(const BigUInt& a, const BigUInt& m);

 private:
  void trim();

  // Little-endian 32-bit limbs; empty vector represents zero.
  std::vector<std::uint32_t> limbs_;
};

}  // namespace baps::crypto
