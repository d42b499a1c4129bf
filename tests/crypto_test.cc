// Tests for src/crypto: SHA-256 against FIPS/NIST vectors, HMAC-SHA256
// against RFC 4231, the dispatched SHA-256 kernel against the portable one,
// identities, and Merkle trees.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/identity.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace fabricpp::crypto {
namespace {

std::string HashHex(std::string_view input) {
  return DigestToHex(Sha256::Hash(input));
}

// --- SHA-256 (NIST FIPS 180-4 examples + boundary cases) ---

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HashHex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HashHex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      HashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestToHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundaries) {
  // 55/56/64 bytes hit the padding edge cases.
  for (const size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string input(len, 'x');
    // Incremental 1-byte updates must equal one-shot hashing.
    Sha256 h;
    for (const char c : input) h.Update(&c, 1);
    EXPECT_EQ(h.Finalize(), Sha256::Hash(input)) << "len=" << len;
  }
}

TEST(Sha256Test, ResetReuses) {
  Sha256 h;
  h.Update("garbage");
  (void)h.Finalize();
  h.Reset();
  h.Update("abc");
  EXPECT_EQ(DigestToHex(h.Finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// --- SHA-256 kernels: the dispatched kernel against the portable one ---

constexpr uint32_t kSha256Iv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                   0xa54ff53a, 0x510e527f, 0x9b05688c,
                                   0x1f83d9ab, 0x5be0cd19};

/// One-shot SHA-256 over an explicit compression kernel, with its own
/// padding: a reference that shares no code with Sha256::Update/Finalize.
Digest HashWith(internal::CompressFn compress, const uint8_t* data,
                size_t size) {
  uint32_t state[8];
  std::copy(std::begin(kSha256Iv), std::end(kSha256Iv), state);
  const size_t whole = size / 64;
  if (whole > 0) compress(state, data, whole);
  std::vector<uint8_t> tail(data + whole * 64, data + size);
  tail.push_back(0x80);
  while (tail.size() % 64 != 56) tail.push_back(0);
  const uint64_t bits = static_cast<uint64_t>(size) * 8;
  for (int i = 0; i < 8; ++i) {
    tail.push_back(static_cast<uint8_t>(bits >> (56 - 8 * i)));
  }
  compress(state, tail.data(), tail.size() / 64);
  Digest out;
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

Digest HashWith(internal::CompressFn compress, std::string_view s) {
  return HashWith(compress, reinterpret_cast<const uint8_t*>(s.data()),
                  s.size());
}

/// RFC 2104 HMAC over HashWith.
Digest HmacWith(internal::CompressFn compress, const Bytes& key,
                const Bytes& msg) {
  Bytes block(64, 0);
  if (key.size() > 64) {
    const Digest kd = HashWith(compress, key.data(), key.size());
    std::copy(kd.begin(), kd.end(), block.begin());
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }
  Bytes inner, outer;
  for (const uint8_t b : block) {
    inner.push_back(b ^ 0x36);
    outer.push_back(b ^ 0x5c);
  }
  inner.insert(inner.end(), msg.begin(), msg.end());
  const Digest inner_digest = HashWith(compress, inner.data(), inner.size());
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return HashWith(compress, outer.data(), outer.size());
}

Bytes ToBytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

/// Deterministic pseudo-random bytes (xorshift64).
std::vector<uint8_t> PseudoRandomBytes(size_t n) {
  std::vector<uint8_t> out(n);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x >> 32);
  }
  return out;
}

struct NamedKernel {
  const char* name;
  internal::CompressFn fn;
};

std::vector<NamedKernel> BothKernels() {
  return {{"portable", &internal::CompressPortable},
          {internal::ActiveKernelName(), internal::ActiveCompress()}};
}

TEST(Sha256KernelTest, ReportsActiveKernel) {
  const std::string name = internal::ActiveKernelName();
  // Printed so test logs show whether the hardware path ran.
  std::printf("[ kernel   ] sha256 dispatched kernel: %s\n", name.c_str());
  RecordProperty("sha256_kernel", name);
  EXPECT_TRUE(name == "sha-ni" || name == "portable") << name;
  if (name == "portable") {
    EXPECT_EQ(internal::ActiveCompress(), &internal::CompressPortable);
  }
}

TEST(Sha256KernelTest, MultiBlockCompressMatchesBlockByBlock) {
  const std::vector<uint8_t> data = PseudoRandomBytes(64 * 9);
  uint32_t reference[8];
  std::copy(std::begin(kSha256Iv), std::end(kSha256Iv), reference);
  for (size_t i = 0; i < 9; ++i) {
    internal::CompressPortable(reference, data.data() + 64 * i, 1);
  }
  for (const NamedKernel& k : BothKernels()) {
    uint32_t state[8];
    std::copy(std::begin(kSha256Iv), std::end(kSha256Iv), state);
    k.fn(state, data.data(), 9);
    EXPECT_TRUE(std::equal(state, state + 8, reference)) << k.name;
  }
}

TEST(Sha256KernelTest, DispatchedMatchesPortableAtEveryLength) {
  const std::vector<uint8_t> data = PseudoRandomBytes(1100);
  for (size_t len = 0; len <= data.size(); ++len) {
    const Digest portable =
        HashWith(&internal::CompressPortable, data.data(), len);
    ASSERT_EQ(HashWith(internal::ActiveCompress(), data.data(), len),
              portable)
        << "len=" << len;
    ASSERT_EQ(Sha256::Hash(data.data(), len), portable) << "len=" << len;
  }
}

TEST(Sha256KernelTest, EverySplitPointOfTwoUpdatesMatchesPortable) {
  const std::vector<uint8_t> data = PseudoRandomBytes(1000);
  for (const size_t len : {55u, 56u, 63u, 64u, 65u, 127u, 128u, 1000u}) {
    const Digest portable =
        HashWith(&internal::CompressPortable, data.data(), len);
    for (size_t split = 0; split <= len; ++split) {
      Sha256 h;
      h.Update(data.data(), split);
      h.Update(data.data() + split, len - split);
      ASSERT_EQ(h.Finalize(), portable) << "len=" << len << " split=" << split;
    }
  }
}

TEST(Sha256KernelTest, NistVectorsOnBothKernels) {
  const std::vector<std::pair<std::string, std::string>> vectors = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const NamedKernel& k : BothKernels()) {
    for (const auto& [input, hex] : vectors) {
      EXPECT_EQ(DigestToHex(HashWith(k.fn, input)), hex)
          << k.name << " len=" << input.size();
    }
  }
}

TEST(Sha256KernelTest, Rfc4231VectorsOnBothKernels) {
  struct Case {
    Bytes key;
    Bytes msg;
    const char* tag;
  };
  const std::vector<Case> cases = {
      {Bytes(20, 0x0b), ToBytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {ToBytes("Jefe"), ToBytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {Bytes(131, 0xaa),
       ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  for (const NamedKernel& k : BothKernels()) {
    for (const Case& c : cases) {
      const Digest d = HmacWith(k.fn, c.key, c.msg);
      EXPECT_EQ(HexEncode(Bytes(d.begin(), d.end())), c.tag) << k.name;
    }
  }
}

// --- HMAC-SHA256 (RFC 4231 test cases) ---

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Digest d = HmacSha256(key, "Hi There");
  EXPECT_EQ(HexEncode(Bytes(d.begin(), d.end())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const Bytes key = {'J', 'e', 'f', 'e'};
  const Digest d = HmacSha256(key, "what do ya want for nothing?");
  EXPECT_EQ(HexEncode(Bytes(d.begin(), d.end())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  const Digest d = HmacSha256(key, msg);
  EXPECT_EQ(HexEncode(Bytes(d.begin(), d.end())),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  const Digest d =
      HmacSha256(key, "Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(HexEncode(Bytes(d.begin(), d.end())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, DifferentKeysDifferentTags) {
  const Bytes k1 = {1, 2, 3};
  const Bytes k2 = {1, 2, 4};
  EXPECT_NE(HmacSha256(k1, "msg"), HmacSha256(k2, "msg"));
}

// --- Identity ---

TEST(IdentityTest, SignVerifyRoundTrip) {
  const Identity id(42, "A1");
  const Bytes msg = {1, 2, 3, 4};
  const Signature sig = id.Sign(msg);
  EXPECT_EQ(sig.signer, "A1");
  EXPECT_TRUE(id.Verify(msg, sig));
}

TEST(IdentityTest, TamperedMessageFails) {
  const Identity id(42, "A1");
  Bytes msg = {1, 2, 3, 4};
  const Signature sig = id.Sign(msg);
  msg[0] ^= 0xff;
  EXPECT_FALSE(id.Verify(msg, sig));
}

TEST(IdentityTest, WrongSignerNameFails) {
  const Identity a(42, "A1");
  const Identity b(42, "B1");
  const Bytes msg = {9};
  Signature sig = a.Sign(msg);
  EXPECT_FALSE(b.Verify(msg, sig));
  sig.signer = "B1";  // Claiming to be B1 with A1's tag.
  EXPECT_FALSE(b.Verify(msg, sig));
}

TEST(IdentityTest, SameSeedSameKeys) {
  // Validators reconstruct endorser identities from (seed, name): the two
  // instances must agree.
  const Identity original(7, "peer");
  const Identity reconstructed(7, "peer");
  const Bytes msg = {5, 5, 5};
  EXPECT_TRUE(reconstructed.Verify(msg, original.Sign(msg)));
}

TEST(IdentityTest, DifferentSeedsDiffer) {
  const Identity a(1, "peer");
  const Identity b(2, "peer");
  const Bytes msg = {5};
  EXPECT_FALSE(b.Verify(msg, a.Sign(msg)));
}

// --- Merkle ---

TEST(MerkleTest, EmptyTreeIsHashOfNothing) {
  EXPECT_EQ(MerkleRoot({}), Sha256::Hash("", 0));
}

TEST(MerkleTest, SingleLeafIsItself) {
  const Digest leaf = Sha256::Hash("tx0");
  EXPECT_EQ(MerkleRoot({leaf}), leaf);
}

TEST(MerkleTest, RootChangesWithAnyLeaf) {
  std::vector<Digest> leaves;
  for (int i = 0; i < 7; ++i) {
    leaves.push_back(Sha256::Hash("tx" + std::to_string(i)));
  }
  const Digest root = MerkleRoot(leaves);
  for (size_t i = 0; i < leaves.size(); ++i) {
    auto tampered = leaves;
    tampered[i] = Sha256::Hash("evil");
    EXPECT_NE(MerkleRoot(tampered), root) << "leaf " << i;
  }
}

TEST(MerkleTest, OrderMatters) {
  const Digest a = Sha256::Hash("a");
  const Digest b = Sha256::Hash("b");
  EXPECT_NE(MerkleRoot({a, b}), MerkleRoot({b, a}));
}

TEST(MerkleTest, ProofsVerifyForAllLeavesAndSizes) {
  for (const size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 13u}) {
    std::vector<Digest> leaves;
    for (size_t i = 0; i < n; ++i) {
      leaves.push_back(Sha256::Hash("leaf" + std::to_string(i)));
    }
    const Digest root = MerkleRoot(leaves);
    for (size_t i = 0; i < n; ++i) {
      const MerkleProof proof = BuildMerkleProof(leaves, i);
      EXPECT_TRUE(VerifyMerkleProof(leaves[i], proof, root))
          << "n=" << n << " leaf=" << i;
      // A proof for the wrong leaf must fail (except in the 1-leaf tree).
      if (n > 1) {
        EXPECT_FALSE(
            VerifyMerkleProof(Sha256::Hash("other"), proof, root))
            << "n=" << n << " leaf=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace fabricpp::crypto
