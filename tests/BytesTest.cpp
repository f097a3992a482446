//===- BytesTest.cpp - Byte codec and CRC-32 primitive tests ---------------===//
//
// The primitives every persisted format is built from (support/Bytes.h,
// support/Crc.h): the CRC-32 check value and its continuation identity,
// little-endian writer/reader agreement, and the reader's bounds contract —
// a read past the end returns 0, sets a failure flag that stays set, and
// never touches a byte outside the span (run under ASan in CI).
//
//===----------------------------------------------------------------------===//

#include "support/Bytes.h"
#include "support/Crc.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace er;

namespace {

TEST(Crc32, CheckValue) {
  const std::string Check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const uint8_t *>(Check.data()),
                  Check.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, ContinuationEqualsWholeBuffer) {
  Rng R(20261018);
  for (int Round = 0; Round < 200; ++Round) {
    std::vector<uint8_t> Buf(R.nextBounded(64));
    for (uint8_t &B : Buf)
      B = static_cast<uint8_t>(R.next());
    size_t Split = R.nextBounded(Buf.size() + 1);
    uint32_t Whole = crc32(Buf.data(), Buf.size());
    uint32_t Head = crc32(Buf.data(), Split);
    EXPECT_EQ(crc32(Buf.data() + Split, Buf.size() - Split, Head), Whole)
        << "round " << Round << " split " << Split << " of " << Buf.size();
  }
}

TEST(Bytes, WriterAndReaderAgreeLittleEndian) {
  std::vector<uint8_t> Out = {0xAA};
  ByteWriter W(Out);
  W.u8(0x01);
  size_t Patch = W.size();
  W.u32(0);
  W.u64(0x0807060504030201ULL);
  W.bytes("xyz", 3);
  W.bytes(nullptr, 0);
  W.patchU32(Patch, 0x44332211u);
  EXPECT_EQ(Out, (std::vector<uint8_t>{0xAA, 0x01, 0x11, 0x22, 0x33, 0x44,
                                       0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
                                       0x07, 0x08, 'x', 'y', 'z'}));

  ByteReader R(Out.data() + 1, Out.size() - 1);
  EXPECT_EQ(R.u8(), 0x01u);
  EXPECT_EQ(R.u32(), 0x44332211u);
  EXPECT_EQ(R.u64(), 0x0807060504030201ULL);
  const uint8_t *Tail = R.bytes(3);
  ASSERT_NE(Tail, nullptr);
  EXPECT_EQ(std::string(reinterpret_cast<const char *>(Tail), 3), "xyz");
  EXPECT_TRUE(R.atEnd());
  EXPECT_FALSE(R.failed());
}

// For every buffer length up to 16 and every position in it, each kind of
// read either fits (and returns the all-ones bytes) or fails: 0/nullptr,
// position unchanged, flag set — and every later read fails too, even one
// that would have fit.
TEST(Bytes, EveryReadPastTheEndFails) {
  enum Kind { U8, U32, U64, Raw5 };
  const size_t Width[] = {1, 4, 8, 5};
  for (size_t Cut = 0; Cut <= 16; ++Cut) {
    // Exactly Cut bytes on the heap, so ASan flags any out-of-span read.
    std::vector<uint8_t> Buf(Cut, 0xFF);
    for (size_t Skip = 0; Skip <= Cut; ++Skip) {
      for (Kind K : {U8, U32, U64, Raw5}) {
        ByteReader R(Buf.data(), Buf.size());
        ASSERT_TRUE(R.bytes(Skip) != nullptr || Skip == 0);
        ASSERT_FALSE(R.failed());
        bool Fits = Cut - Skip >= Width[K];
        uint64_t V = 0;
        switch (K) {
        case U8: V = R.u8(); break;
        case U32: V = R.u32(); break;
        case U64: V = R.u64(); break;
        case Raw5: V = R.bytes(5) ? 1 : 0; break;
        }
        SCOPED_TRACE("cut " + std::to_string(Cut) + " skip " +
                     std::to_string(Skip) + " kind " + std::to_string(K));
        if (Fits) {
          EXPECT_NE(V, 0u);
          EXPECT_FALSE(R.failed());
          EXPECT_EQ(R.pos(), Skip + Width[K]);
          continue;
        }
        EXPECT_EQ(V, 0u);
        EXPECT_TRUE(R.failed());
        EXPECT_EQ(R.pos(), Skip);
        EXPECT_EQ(R.u8(), 0u);
        EXPECT_EQ(R.bytes(0), nullptr);
        EXPECT_TRUE(R.failed());
        EXPECT_EQ(R.pos(), Skip);
      }
    }
  }
}

} // namespace
