#include "crypto/biguint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <type_traits>

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

void BigUInt::to_words(std::uint64_t* out, std::size_t n) const {
  BAPS_REQUIRE(limbs_.size() <= 2 * n, "value does not fit the word count");
  std::fill(out, out + n, std::uint64_t{0});
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out[i / 2] |= static_cast<std::uint64_t>(limbs_[i]) << (32 * (i % 2));
  }
}

BigUInt BigUInt::from_words(const std::uint64_t* words, std::size_t n) {
  BigUInt out;
  out.limbs_.resize(2 * n);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    out.limbs_[i] = static_cast<std::uint32_t>(words[i / 2] >> (32 * (i % 2)));
  }
  out.trim();
  return out;
}

namespace {

using u128 = unsigned __int128;
using u64 = std::uint64_t;

// Words of mont_mul's accumulator held on its own stack: n + 2 at a fixed
// width, none at a run-time width (the caller's scratch holds them).
template <typename Width>
constexpr std::size_t kLocalWords = 0;
template <std::size_t N>
constexpr std::size_t kLocalWords<std::integral_constant<std::size_t, N>> =
    N + 2;

// One Montgomery product, CIOS form (Koç, Acar and Kaliski 1996), over
// 64-bit words with 128-bit products: out = a * b * R^-1 mod m for a < R,
// b < m and m odd with n words, R = 2^(64n). `width` is a std::size_t, or a
// std::integral_constant for a fixed width: there the loops unroll and the
// accumulator t, a local array no operand can alias, stays in registers.
// At a run-time width `scratch` holds t's n + 2 words. out may alias a or b.
template <typename Width>
void mont_mul(const u64* a, const u64* b, const u64* m, u64 m_inv,
              Width width, u64* scratch, u64* out) {
  const std::size_t n = width;
  std::array<u64, kLocalWords<Width>> local;
  u64* const t = kLocalWords<Width> != 0 ? local.data() : scratch;
  std::fill(t, t + n + 2, u64{0});
  for (std::size_t i = 0; i < n; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur = static_cast<u128>(a[j]) * b[i] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[n]) + carry;
    t[n] = static_cast<u64>(cur);
    t[n + 1] = static_cast<u64>(cur >> 64);

    // Add q * m with q chosen so the low word cancels, then drop that word.
    const u64 q = t[0] * m_inv;
    carry = static_cast<u64>((static_cast<u128>(q) * m[0] + t[0]) >> 64);
    for (std::size_t j = 1; j < n; ++j) {
      cur = static_cast<u128>(q) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    cur = static_cast<u128>(t[n]) + carry;
    t[n - 1] = static_cast<u64>(cur);
    t[n] = t[n + 1] + static_cast<u64>(cur >> 64);
  }
  // t < 2m: one conditional subtraction brings it below m. Subtract into
  // out, then keep t instead if that borrowed past t's top word.
  u64 borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const u128 diff = static_cast<u128>(t[j]) - m[j] - borrow;
    out[j] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1u;
  }
  if (borrow > t[n]) std::copy(t, t + n, out);
}

// Runs f(width, scratch). Moduli of 1..kMaxFixedWords words get a
// std::integral_constant width and PerWord * n + Extra words of stack
// scratch; wider ones get a run-time width and heap scratch.
template <std::size_t PerWord, std::size_t Extra, typename F>
void with_width(std::size_t n, F&& f) {
  const auto fixed = [&f]<std::size_t N>(std::integral_constant<std::size_t, N>
                                             width) {
    std::array<u64, PerWord * N + Extra> scratch;
    f(width, scratch.data());
  };
  static_assert(MontgomeryModulus::kMaxFixedWords == 8);
  switch (n) {
    case 1: return fixed(std::integral_constant<std::size_t, 1>{});
    case 2: return fixed(std::integral_constant<std::size_t, 2>{});
    case 3: return fixed(std::integral_constant<std::size_t, 3>{});
    case 4: return fixed(std::integral_constant<std::size_t, 4>{});
    case 5: return fixed(std::integral_constant<std::size_t, 5>{});
    case 6: return fixed(std::integral_constant<std::size_t, 6>{});
    case 7: return fixed(std::integral_constant<std::size_t, 7>{});
    case 8: return fixed(std::integral_constant<std::size_t, 8>{});
    default: {
      std::vector<u64> scratch(PerWord * n + Extra);
      f(n, scratch.data());
    }
  }
}

// n words of scratch: on the stack when they fit in Cap, else on the heap.
template <std::size_t Cap>
class WordBuffer {
 public:
  explicit WordBuffer(std::size_t n) {
    if (n > Cap) {
      heap_.resize(n);
      data_ = heap_.data();
    }
  }
  WordBuffer(const WordBuffer&) = delete;
  WordBuffer& operator=(const WordBuffer&) = delete;

  u64* data() { return data_; }

 private:
  std::array<u64, Cap> local_;
  std::vector<u64> heap_;
  u64* data_ = local_.data();
};

// Exponents up to this many bits use square-and-multiply; longer ones a
// fixed 4-bit window, whose 14-product table costs less than the
// multiplications it saves.
constexpr std::size_t kWindowMinBits = 33;

// Scratch per exponentiation: t (n + 2), the accumulator (n) and the window
// table (16 entries of n words; entry 0 holds the plain 1 for the exit).
constexpr std::size_t kPowScratchPerWord = 18;
constexpr std::size_t kPowScratchExtra = 2;

// One exponentiation for mont_pow: base^exp mod m, where `inout` holds the
// base (any value below R) on entry and the result on return. exp is
// nonzero, as trimmed little-endian 32-bit limbs.
struct PowJob {
  const u64* m;
  u64 m_inv;
  const u64* r2;
  std::span<const std::uint32_t> exp;
  u64* scratch;
  u64* inout;
};

// Runs K exponentiations of one width in lockstep, left to right over
// windows of 1 or 4 exponent bits. A Montgomery product is one long chain of
// dependent multiplies, so K = 2 (the two CRT halves) lets the CPU overlap
// two chains. Windows never straddle a 32-bit limb. The jobs come by value:
// no store through an output pointer can then change a job's fields, so the
// compiler keeps them in registers.
template <std::size_t K, typename Width>
void mont_pow(const std::array<PowJob, K> jobs, Width width) {
  const std::size_t n = width;
  const auto acc = [&](std::size_t k) { return jobs[k].scratch + n + 2; };
  const auto entry = [&](std::size_t k, std::size_t i) {
    return jobs[k].scratch + (i + 2) * n + 2;
  };
  const auto mul = [&](std::size_t k, const u64* a, const u64* b, u64* out) {
    mont_mul(a, b, jobs[k].m, jobs[k].m_inv, width, jobs[k].scratch, out);
  };
  const auto set_one = [&](std::size_t k) {
    std::fill(entry(k, 0), entry(k, 0) + n, u64{0});
    entry(k, 0)[0] = 1;
  };

  std::size_t bits = 0;
  for (const PowJob& job : jobs) {
    const auto top_zeros = std::countl_zero(job.exp.back());
    bits = std::max(bits, 32 * job.exp.size() -
                              static_cast<std::size_t>(top_zeros));
  }
  const std::size_t window_bits = bits < kWindowMinBits ? 1 : 4;
  const std::uint32_t mask = (1u << window_bits) - 1;
  const auto window = [&](std::size_t k, std::size_t w) -> std::uint32_t {
    const std::size_t bit = w * window_bits;
    const auto exp = jobs[k].exp;
    return bit / 32 < exp.size() ? (exp[bit / 32] >> (bit % 32)) & mask : 0;
  };

  // entry(d) = base^d in Montgomery form.
  for (std::size_t k = 0; k < K; ++k) {
    mul(k, jobs[k].inout, jobs[k].r2, entry(k, 1));
  }
  for (std::size_t d = 2; d <= mask; ++d) {
    for (std::size_t k = 0; k < K; ++k) {
      mul(k, entry(k, d - 1), entry(k, 1), entry(k, d));
    }
  }
  // The top window seeds each accumulator. A shorter exponent's top window
  // is zero: it starts from the Montgomery one, R mod m = R^2 * 1 / R.
  std::size_t w = (bits - 1) / window_bits;
  for (std::size_t k = 0; k < K; ++k) {
    if (const std::uint32_t d = window(k, w)) {
      std::copy(entry(k, d), entry(k, d) + n, acc(k));
    } else {
      set_one(k);
      mul(k, jobs[k].r2, entry(k, 0), acc(k));
    }
  }
  while (w-- > 0) {
    for (std::size_t s = 0; s < window_bits; ++s) {
      for (std::size_t k = 0; k < K; ++k) mul(k, acc(k), acc(k), acc(k));
    }
    for (std::size_t k = 0; k < K; ++k) {
      if (const std::uint32_t d = window(k, w)) {
        mul(k, acc(k), entry(k, d), acc(k));
      }
    }
  }
  // Out of Montgomery form: multiply by plain 1.
  for (std::size_t k = 0; k < K; ++k) {
    set_one(k);
    mul(k, acc(k), entry(k, 0), jobs[k].inout);
  }
}

}  // namespace

MontgomeryModulus::MontgomeryModulus(const BigUInt& m) : modulus_(m) {
  BAPS_REQUIRE(m.is_odd(), "Montgomery modulus must be odd");
  const std::size_t n = (m.limbs_.size() + 1) / 2;
  words_.resize(n);
  m.to_words(words_.data(), n);
  r2_.resize(n);
  (BigUInt(1).shifted_left(128 * n) % m).to_words(r2_.data(), n);
  // -m^-1 mod 2^64 by Newton's iteration: each step doubles the correct
  // low bits, and an odd m0 is its own inverse mod 8 (3 -> 96 bits).
  const u64 m0 = words_[0];
  u64 inv = m0;
  for (int i = 0; i < 5; ++i) inv *= 2u - m0 * inv;
  m_inv_ = 0u - inv;
}

void MontgomeryModulus::mul_words(const u64* a, const u64* b, u64* out) const {
  with_width<1, 2>(words_.size(), [&](auto width, u64* t) {
    mont_mul(a, b, words_.data(), m_inv_, width, t, out);
  });
}

void MontgomeryModulus::load_base(const BigUInt& base, u64* out) const {
  // mont_pow takes any base below R, so only a wider one needs dividing.
  const std::size_t n = words_.size();
  if (base.limbs_.size() <= 2 * n) {
    base.to_words(out, n);
  } else {
    (base % modulus_).to_words(out, n);
  }
}

void MontgomeryModulus::pow_words(const BigUInt& base, const BigUInt& exp,
                                  u64* out) const {
  const std::size_t n = words_.size();
  if (exp.is_zero()) {
    std::fill(out, out + n, u64{0});
    out[0] = modulus_ == BigUInt(1) ? 0 : 1;
    return;
  }
  load_base(base, out);
  with_width<kPowScratchPerWord, kPowScratchExtra>(
      n, [&](auto width, u64* scratch) {
        mont_pow<1>({PowJob{words_.data(), m_inv_, r2_.data(), exp.limbs_,
                            scratch, out}},
                    width);
      });
}

BigUInt MontgomeryModulus::pow(const BigUInt& base, const BigUInt& exp) const {
  WordBuffer<kMaxFixedWords> out(words_.size());
  pow_words(base, exp, out.data());
  return BigUInt::from_words(out.data(), words_.size());
}

BigUInt BigUInt::mod_pow(const BigUInt& base, const BigUInt& exp,
                         const BigUInt& m) {
  BAPS_REQUIRE(m.is_odd(), "mod_pow modulus must be odd");
  return MontgomeryModulus(m).pow(base, exp);
}

BigUInt crt_mod_pow(const BigUInt& x, const MontgomeryModulus& p,
                    const BigUInt& dp, const MontgomeryModulus& q,
                    const BigUInt& dq, const BigUInt& qinv) {
  const std::size_t wp = p.words_.size();
  const std::size_t wq = q.words_.size();
  // Seven buffers of the wider prime's width.
  const std::size_t w = std::max(wp, wq);
  WordBuffer<7 * MontgomeryModulus::kMaxFixedWords> buf(7 * w);
  u64* const m1 = buf.data();
  u64* const m2 = m1 + w;
  u64* const m2_p = m2 + w;  // m2 in p's width, possibly unreduced
  u64* const qinv_mont = m2_p + w;
  u64* const h = qinv_mont + w;
  u64* const out = h + w;  // 2w words

  if (wp == wq && !dp.is_zero() && !dq.is_zero()) {
    // One width (p and q of one size, as an even modulus size gives): both
    // halves in lockstep.
    p.load_base(x, m1);
    q.load_base(x, m2);
    const std::size_t per_job = kPowScratchPerWord * wp + kPowScratchExtra;
    with_width<2 * kPowScratchPerWord, 2 * kPowScratchExtra>(
        wp, [&](auto width, u64* scratch) {
          mont_pow<2>({PowJob{p.words_.data(), p.m_inv_, p.r2_.data(),
                              dp.limbs_, scratch, m1},
                       PowJob{q.words_.data(), q.m_inv_, q.r2_.data(),
                              dq.limbs_, scratch + per_job, m2}},
                      width);
        });
  } else {
    p.pow_words(x, dp, m1);
    q.pow_words(x, dq, m2);
  }
  // q may exceed p. Garner's products below take any m2 below p's R; only
  // a q wider than p needs a division first.
  if (wq <= wp) {
    std::copy(m2, m2 + wq, m2_p);
    std::fill(m2_p + wq, m2_p + wp, u64{0});
  } else {
    (BigUInt::from_words(m2, wq) % p.modulus_).to_words(m2_p, wp);
  }
  // h = (m1 - m2) * qinv mod p, as m1 * qinv - m2 * qinv: with qinv in
  // Montgomery form (one product by R^2) each product comes out plain and
  // below p.
  p.load_base(qinv, qinv_mont);
  p.mul_words(qinv_mont, p.r2_.data(), qinv_mont);
  p.mul_words(m1, qinv_mont, m1);
  p.mul_words(m2_p, qinv_mont, m2_p);
  u64 borrow = 0;
  for (std::size_t j = 0; j < wp; ++j) {
    const u128 diff = static_cast<u128>(m1[j]) - m2_p[j] - borrow;
    h[j] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1u;
  }
  if (borrow != 0) {
    u64 carry = 0;
    for (std::size_t j = 0; j < wp; ++j) {
      const u128 sum = static_cast<u128>(h[j]) + p.words_[j] + carry;
      h[j] = static_cast<u64>(sum);
      carry = static_cast<u64>(sum >> 64);
    }
  }
  // out = m2 + q * h: below q * p, so it fits wp + wq words.
  std::fill(out, out + wp + wq, u64{0});
  std::copy(m2, m2 + wq, out);
  for (std::size_t i = 0; i < wp; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < wq; ++j) {
      const u128 cur = static_cast<u128>(q.words_[j]) * h[i] + out[i + j] +
                       carry;
      out[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    for (std::size_t k = i + wq; carry != 0; ++k) {
      const u128 cur = static_cast<u128>(out[k]) + carry;
      out[k] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
  }
  return BigUInt::from_words(out, wp + wq);
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
