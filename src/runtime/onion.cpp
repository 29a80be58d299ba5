#include "runtime/onion.hpp"

#include <cstring>

#include "crypto/xtea.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace baps::runtime {
namespace {

constexpr std::uint8_t kMagic[4] = {'O', 'N', 'I', '1'};
constexpr std::uint8_t kTypeRelay = 0;
constexpr std::uint8_t kTypeExit = 1;
constexpr std::size_t kSessionKeyBytes = 16;

void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 3; i >= 0; --i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

/// One encryption layer around `inner` for one relay.
std::vector<std::uint8_t> wrap_layer(const crypto::RsaPublicKey& pub,
                                     std::uint8_t type,
                                     std::optional<ClientId> next,
                                     std::span<const std::uint8_t> inner,
                                     baps::SplitMix64& mixer) {
  BAPS_REQUIRE(pub.n.bit_length() >= 136,
               "relay modulus must exceed the 128-bit session key");
  // Fresh session key and nonce per layer.
  std::array<std::uint8_t, kSessionKeyBytes> key_bytes{};
  for (std::size_t i = 0; i < kSessionKeyBytes; i += 8) {
    const std::uint64_t w = mixer.next();
    for (std::size_t j = 0; j < 8; ++j) {
      key_bytes[i + j] = static_cast<std::uint8_t>(w >> (8 * j));
    }
  }
  const std::uint64_t nonce = mixer.next();

  // Plaintext: magic | type | [next] | inner.
  std::vector<std::uint8_t> plain;
  plain.insert(plain.end(), std::begin(kMagic), std::end(kMagic));
  plain.push_back(type);
  if (type == kTypeRelay) append_u32(plain, *next);
  plain.insert(plain.end(), inner.begin(), inner.end());

  const crypto::XteaKey xkey = crypto::xtea_key_from_bytes(key_bytes);
  const std::vector<std::uint8_t> body =
      crypto::xtea_ctr_crypt(plain, xkey, nonce);

  // Session key travels RSA-encrypted to the relay.
  const crypto::BigUInt m = crypto::BigUInt::from_bytes(key_bytes);
  const std::vector<std::uint8_t> ct =
      crypto::BigUInt::mod_pow(m, pub.e, pub.n).to_bytes();
  BAPS_ENSURE(ct.size() <= 0xFFFF, "rsa ciphertext too large to frame");

  std::vector<std::uint8_t> out;
  append_u16(out, static_cast<std::uint16_t>(ct.size()));
  out.insert(out.end(), ct.begin(), ct.end());
  append_u64(out, nonce);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

}  // namespace

std::vector<std::uint8_t> build_onion(const std::vector<RelayKeys>& path,
                                      std::vector<std::uint8_t> payload,
                                      std::uint64_t seed) {
  BAPS_REQUIRE(!path.empty(), "onion path needs at least one relay");
  baps::SplitMix64 mixer(seed ^ 0x04010A);
  // Innermost (exit) layer first, then wrap outward.
  std::vector<std::uint8_t> blob =
      wrap_layer(path.back().pub, kTypeExit, std::nullopt, payload, mixer);
  for (std::size_t i = path.size() - 1; i-- > 0;) {
    blob = wrap_layer(path[i].pub, kTypeRelay, path[i + 1].node, blob, mixer);
  }
  return blob;
}

std::optional<PeeledLayer> peel_onion(std::span<const std::uint8_t> blob,
                                      const crypto::RsaPrivateKey& priv) {
  // Frame: [2B ct_len][ct][8B nonce][body].
  if (blob.size() < 2) return std::nullopt;
  const std::size_t ct_len =
      (static_cast<std::size_t>(blob[0]) << 8) | blob[1];
  if (blob.size() < 2 + ct_len + 8) return std::nullopt;

  const crypto::BigUInt ct =
      crypto::BigUInt::from_bytes(blob.subspan(2, ct_len));
  if (!(ct < priv.n)) return std::nullopt;
  const std::vector<std::uint8_t> key_raw =
      crypto::rsa_private_op(ct, priv).to_bytes();
  if (key_raw.size() > kSessionKeyBytes) return std::nullopt;
  // Left-pad to the fixed key width (to_bytes strips leading zeros).
  std::array<std::uint8_t, kSessionKeyBytes> key_bytes{};
  std::memcpy(key_bytes.data() + (kSessionKeyBytes - key_raw.size()),
              key_raw.data(), key_raw.size());

  std::uint64_t nonce = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    nonce = (nonce << 8) | blob[2 + ct_len + i];
  }
  const auto body = blob.subspan(2 + ct_len + 8);
  const crypto::XteaKey xkey = crypto::xtea_key_from_bytes(key_bytes);
  const std::vector<std::uint8_t> plain =
      crypto::xtea_ctr_crypt(body, xkey, nonce);

  // Validate: wrong keys or tampering garble the magic with overwhelming
  // probability, and the relay just drops the message.
  if (plain.size() < sizeof(kMagic) + 1 ||
      std::memcmp(plain.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  const std::uint8_t type = plain[4];
  PeeledLayer out;
  if (type == kTypeRelay) {
    if (plain.size() < 9) return std::nullopt;
    ClientId next = 0;
    for (std::size_t i = 0; i < 4; ++i) next = (next << 8) | plain[5 + i];
    out.next = next;
    out.blob.assign(plain.begin() + 9, plain.end());
  } else if (type == kTypeExit) {
    out.blob.assign(plain.begin() + 5, plain.end());
  } else {
    return std::nullopt;
  }
  return out;
}

}  // namespace baps::runtime
