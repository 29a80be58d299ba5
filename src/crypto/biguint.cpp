#include "crypto/biguint.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace baps::crypto {

BigUInt::BigUInt(std::uint64_t v) {
  if (v) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigUInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUInt BigUInt::from_bytes(std::span<const std::uint8_t> big_endian) {
  BigUInt out;
  const std::size_t n = big_endian.size();
  out.limbs_.assign((n + 3) / 4, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t pos = n - 1 - i;  // byte position from the low end
    out.limbs_[pos / 4] |= static_cast<std::uint32_t>(big_endian[i])
                           << (8 * (pos % 4));
  }
  out.trim();
  return out;
}

BigUInt BigUInt::from_hex(const std::string& hex) {
  BigUInt out;
  const std::size_t n = hex.size();
  out.limbs_.assign((n + 7) / 8, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const char c = hex[i];
    std::uint32_t nib;
    if (c >= '0' && c <= '9') {
      nib = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nib = static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      nib = static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      BAPS_REQUIRE(false, std::string("invalid hex character: ") + c);
      return out;
    }
    const std::size_t pos = n - 1 - i;  // nibble position from the low end
    out.limbs_[pos / 8] |= nib << (4 * (pos % 8));
  }
  out.trim();
  return out;
}

std::size_t BigUInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * 32;
  std::uint32_t top = limbs_.back();
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigUInt::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1u;
}

std::vector<std::uint8_t> BigUInt::to_bytes() const {
  std::vector<std::uint8_t> out;
  out.reserve(limbs_.size() * 4);
  for (auto it = limbs_.rbegin(); it != limbs_.rend(); ++it) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      out.push_back(static_cast<std::uint8_t>(*it >> shift));
    }
  }
  // Strip leading zeros.
  std::size_t first = 0;
  while (first < out.size() && out[first] == 0) ++first;
  out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(first));
  return out;
}

std::string BigUInt::to_hex() const {
  if (limbs_.empty()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (auto it = limbs_.rbegin(); it != limbs_.rend(); ++it) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out += kDigits[(*it >> shift) & 0xF];
    }
  }
  const std::size_t first = out.find_first_not_of('0');
  return out.substr(first);
}

std::uint64_t BigUInt::to_u64() const {
  BAPS_REQUIRE(bit_length() <= 64, "BigUInt does not fit in 64 bits");
  std::uint64_t v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return v;
}

std::strong_ordering operator<=>(const BigUInt& a, const BigUInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() <=> b.limbs_.size();
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] <=> b.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigUInt operator+(const BigUInt& a, const BigUInt& b) {
  BigUInt out;
  const std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t s = carry;
    if (i < a.limbs_.size()) s += a.limbs_[i];
    if (i < b.limbs_.size()) s += b.limbs_[i];
    out.limbs_[i] = static_cast<std::uint32_t>(s);
    carry = s >> 32;
  }
  if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

BigUInt operator-(const BigUInt& a, const BigUInt& b) {
  BAPS_REQUIRE(a >= b, "BigUInt subtraction underflow");
  BigUInt out;
  out.limbs_.resize(a.limbs_.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::int64_t d = static_cast<std::int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) d -= b.limbs_[i];
    if (d < 0) {
      d += (1LL << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<std::uint32_t>(d);
  }
  out.trim();
  return out;
}

BigUInt operator*(const BigUInt& a, const BigUInt& b) {
  if (a.is_zero() || b.is_zero()) return BigUInt();
  BigUInt out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      std::uint64_t cur = out.limbs_[i + j] +
                          static_cast<std::uint64_t>(a.limbs_[i]) * b.limbs_[j] +
                          carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + b.limbs_.size();
    while (carry) {
      std::uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.trim();
  return out;
}

BigUInt BigUInt::shifted_left(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigUInt copy = *this;
    return copy;
  }
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigUInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.trim();
  return out;
}

BigUInt BigUInt::shifted_right(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return BigUInt();
  const std::size_t bit_shift = bits % 32;
  BigUInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(limbs_[i + limb_shift]) >>
                      bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.trim();
  return out;
}

std::pair<BigUInt, BigUInt> BigUInt::divmod(const BigUInt& num,
                                            const BigUInt& den) {
  BAPS_REQUIRE(!den.is_zero(), "division by zero");
  if (num < den) return {BigUInt(), num};
  const std::size_t n = den.limbs_.size();
  const std::size_t m = num.limbs_.size() - n;
  BigUInt quotient;
  quotient.limbs_.assign(m + 1, 0);

  if (n == 1) {  // short division by one limb
    const std::uint64_t d = den.limbs_[0];
    std::uint64_t rem = 0;
    for (std::size_t i = num.limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | num.limbs_[i];
      quotient.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    quotient.trim();
    return {quotient, BigUInt(rem)};
  }

  // Knuth, TAOCP vol. 2, 4.3.1, Algorithm D. D1: shift both operands left
  // so the divisor's top limb has its high bit set; the numerator gains one
  // limb. 64-bit intermediates keep every shift in range when s == 0.
  const int s = std::countl_zero(den.limbs_.back());
  std::vector<std::uint32_t> v(n), u(m + n + 1);
  const auto shift_into = [s](const std::vector<std::uint32_t>& from,
                              std::vector<std::uint32_t>& to) {
    std::uint32_t carry = 0;
    for (std::size_t i = 0; i < from.size(); ++i) {
      const std::uint64_t w = static_cast<std::uint64_t>(from[i]) << s;
      to[i] = static_cast<std::uint32_t>(w) | carry;
      carry = static_cast<std::uint32_t>(w >> 32);
    }
    if (to.size() > from.size()) to[from.size()] = carry;
  };
  shift_into(den.limbs_, v);
  shift_into(num.limbs_, u);

  constexpr std::uint64_t kBase = 1ULL << 32;
  const std::uint64_t v_top = v[n - 1];
  const std::uint64_t v_next = v[n - 2];
  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate q̂ from the top two numerator limbs; the two-limb test
    // makes it at most one too large.
    const std::uint64_t top =
        (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t qhat = top / v_top;
    std::uint64_t rhat = top % v_top;
    while (qhat >= kBase || qhat * v_next > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat >= kBase) break;
    }
    // D4: u[j..j+n] -= q̂ * v.
    std::uint64_t mul_carry = 0;
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = qhat * v[i] + mul_carry;
      mul_carry = p >> 32;
      const std::uint64_t sub = (p & 0xFFFFFFFFu) + borrow;
      borrow = u[i + j] < sub ? 1 : 0;
      u[i + j] = static_cast<std::uint32_t>(u[i + j] - sub);
    }
    const std::uint64_t sub = mul_carry + borrow;
    const bool negative = u[j + n] < sub;
    u[j + n] = static_cast<std::uint32_t>(u[j + n] - sub);
    // D6: q̂ was one too large; add the divisor back.
    if (negative) {
      --qhat;
      std::uint64_t carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t t = static_cast<std::uint64_t>(u[i + j]) + v[i] +
                                carry;
        u[i + j] = static_cast<std::uint32_t>(t);
        carry = t >> 32;
      }
      u[j + n] = static_cast<std::uint32_t>(u[j + n] + carry);
    }
    quotient.limbs_[j] = static_cast<std::uint32_t>(qhat);
  }

  // D8: the remainder is u[0..n) shifted back down.
  BigUInt remainder;
  remainder.limbs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pair =
        (static_cast<std::uint64_t>(u[i + 1]) << 32) | u[i];
    remainder.limbs_[i] = static_cast<std::uint32_t>(pair >> s);
  }
  quotient.trim();
  remainder.trim();
  return {quotient, remainder};
}

namespace {

using u128 = unsigned __int128;

// One Montgomery product, CIOS form (Koç, Acar and Kaliski 1996), over
// 64-bit words with 128-bit products: out = a * b * 2^(-64n) mod m, for
// a, b < m and m odd with n words. t holds n + 2 words of scratch; out may
// alias a or b.
void mont_mul(const std::uint64_t* a, const std::uint64_t* b,
              const std::uint64_t* m, std::uint64_t m_inv, std::size_t n,
              std::uint64_t* t, std::uint64_t* out) {
  std::fill(t, t + n + 2, std::uint64_t{0});
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur = static_cast<u128>(a[j]) * b[i] + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[n]) + carry;
    t[n] = static_cast<std::uint64_t>(cur);
    t[n + 1] = static_cast<std::uint64_t>(cur >> 64);

    // Add q * m with q chosen so the low word cancels, then drop that word.
    const std::uint64_t q = t[0] * m_inv;
    carry = static_cast<std::uint64_t>((static_cast<u128>(q) * m[0] + t[0]) >>
                                       64);
    for (std::size_t j = 1; j < n; ++j) {
      cur = static_cast<u128>(q) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    cur = static_cast<u128>(t[n]) + carry;
    t[n - 1] = static_cast<std::uint64_t>(cur);
    t[n] = t[n + 1] + static_cast<std::uint64_t>(cur >> 64);
  }
  // t < 2m: one conditional subtraction brings it below m.
  bool ge = t[n] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t j = n; j-- > 0;) {
      if (t[j] != m[j]) {
        ge = t[j] > m[j];
        break;
      }
    }
  }
  std::uint64_t borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t sub = ge ? m[j] : 0;
    out[j] = t[j] - sub - borrow;
    borrow = (t[j] < sub || (t[j] == sub && borrow)) ? 1 : 0;
  }
}

// Packs 32-bit limbs into 64-bit words; `out` must start zeroed.
void pack_words(const std::vector<std::uint32_t>& limbs, std::uint64_t* out) {
  for (std::size_t i = 0; i < limbs.size(); ++i) {
    out[i / 2] |= static_cast<std::uint64_t>(limbs[i]) << (32 * (i % 2));
  }
}

}  // namespace

BigUInt BigUInt::mod_pow(const BigUInt& base, const BigUInt& exp,
                         const BigUInt& m) {
  BAPS_REQUIRE(m.is_odd(), "mod_pow modulus must be odd");
  if (m == BigUInt(1)) return BigUInt();
  if (exp.is_zero()) return BigUInt(1);
  const std::size_t n = (m.limbs_.size() + 1) / 2;  // 64-bit words

  // Operands live padded to n words in one buffer: the modulus, R^2 mod m,
  // the base in Montgomery form, the accumulator, and the CIOS scratch.
  const BigUInt r2 = BigUInt(1).shifted_left(128 * n) % m;
  const BigUInt b = base % m;
  std::vector<std::uint64_t> buf(5 * n + 2);
  std::uint64_t* const ml = buf.data();
  std::uint64_t* const mont_base = ml + n;
  std::uint64_t* const acc = mont_base + n;
  std::uint64_t* const r2_words = acc + n;
  std::uint64_t* const t = r2_words + n;
  pack_words(m.limbs_, ml);

  // -m^-1 mod 2^64 by Newton's iteration: each step doubles the correct
  // low bits, and an odd m0 is its own inverse mod 8 (3 -> 96 bits).
  const std::uint64_t m0 = ml[0];
  std::uint64_t inv = m0;
  for (int i = 0; i < 5; ++i) inv *= 2u - m0 * inv;
  const std::uint64_t m_inv = 0u - inv;

  pack_words(r2.limbs_, r2_words);
  pack_words(b.limbs_, acc);
  mont_mul(acc, r2_words, ml, m_inv, n, t, mont_base);

  // Left to right: the top exponent bit seeds the accumulator.
  std::copy(mont_base, mont_base + n, acc);
  for (std::size_t i = exp.bit_length() - 1; i-- > 0;) {
    mont_mul(acc, acc, ml, m_inv, n, t, acc);
    if (exp.bit(i)) mont_mul(acc, mont_base, ml, m_inv, n, t, acc);
  }
  // Out of Montgomery form: multiply by plain 1 (reuse r2_words).
  std::fill(r2_words, r2_words + n, std::uint64_t{0});
  r2_words[0] = 1;
  mont_mul(acc, r2_words, ml, m_inv, n, t, acc);

  BigUInt out;
  out.limbs_.resize(2 * n);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    out.limbs_[i] = static_cast<std::uint32_t>(acc[i / 2] >> (32 * (i % 2)));
  }
  out.trim();
  return out;
}

BigUInt BigUInt::gcd(BigUInt a, BigUInt b) {
  while (!b.is_zero()) {
    BigUInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigUInt BigUInt::mod_inverse(const BigUInt& a, const BigUInt& m) {
  // Extended Euclid over non-negative values: track coefficients of 'a'
  // (mod m) as (sign, magnitude) to stay within unsigned arithmetic.
  BigUInt r0 = m, r1 = a % m;
  BigUInt t0, t1(1);
  bool neg0 = false, neg1 = false;
  while (!r1.is_zero()) {
    auto [q, r2] = divmod(r0, r1);
    // t2 = t0 - q * t1 with explicit sign handling.
    BigUInt qt = q * t1;
    BigUInt t2;
    bool neg2;
    if (neg0 == neg1) {
      if (t0 >= qt) {
        t2 = t0 - qt;
        neg2 = neg0;
      } else {
        t2 = qt - t0;
        neg2 = !neg0;
      }
    } else {
      t2 = t0 + qt;
      neg2 = neg0;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    neg0 = neg1;
    t1 = std::move(t2);
    neg1 = neg2;
  }
  if (!(r0 == BigUInt(1))) return BigUInt();  // not invertible
  if (neg0) return m - (t0 % m);
  return t0 % m;
}

}  // namespace baps::crypto
