#include "common/serialize.h"

#include <gtest/gtest.h>

namespace cmh {
namespace {

TEST(Serialize, U8RoundTrip) {
  Bytes buf;
  Writer w(buf);
  w.u8(0);
  w.u8(255);
  Reader r(buf);
  std::uint8_t a = 1;
  std::uint8_t b = 1;
  ASSERT_TRUE(r.u8(a).ok());
  ASSERT_TRUE(r.u8(b).ok());
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 255);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, U32RoundTrip) {
  Bytes buf;
  Writer w(buf);
  w.u32(0);
  w.u32(0xdeadbeef);
  w.u32(0xffffffff);
  Reader r(buf);
  std::uint32_t v = 0;
  ASSERT_TRUE(r.u32(v).ok());
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(r.u32(v).ok());
  EXPECT_EQ(v, 0xdeadbeefu);
  ASSERT_TRUE(r.u32(v).ok());
  EXPECT_EQ(v, 0xffffffffu);
}

TEST(Serialize, U64RoundTrip) {
  Bytes buf;
  Writer w(buf);
  w.u64(0x0123456789abcdefULL);
  Reader r(buf);
  std::uint64_t v = 0;
  ASSERT_TRUE(r.u64(v).ok());
  EXPECT_EQ(v, 0x0123456789abcdefULL);
}

TEST(Serialize, LittleEndianLayout) {
  Bytes buf;
  Writer w(buf);
  w.u32(0x01020304);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(Serialize, IdRoundTrip) {
  Bytes buf;
  Writer w(buf);
  w.id(ProcessId{77});
  w.id(SiteId{3});
  Reader r(buf);
  ProcessId p;
  SiteId s;
  ASSERT_TRUE(r.id(p).ok());
  ASSERT_TRUE(r.id(s).ok());
  EXPECT_EQ(p, ProcessId{77});
  EXPECT_EQ(s, SiteId{3});
}

TEST(Serialize, AgentRoundTrip) {
  Bytes buf;
  Writer w(buf);
  w.agent(AgentId{TransactionId{5}, SiteId{9}});
  Reader r(buf);
  AgentId a;
  ASSERT_TRUE(r.agent(a).ok());
  EXPECT_EQ(a, (AgentId{TransactionId{5}, SiteId{9}}));
}

TEST(Serialize, ProbeTagRoundTrip) {
  Bytes buf;
  Writer w(buf);
  w.probe_tag(ProbeTag{ProcessId{2}, 0xffffffffffULL});
  Reader r(buf);
  ProbeTag t;
  ASSERT_TRUE(r.probe_tag(t).ok());
  EXPECT_EQ(t, (ProbeTag{ProcessId{2}, 0xffffffffffULL}));
}

TEST(Serialize, TruncatedU32Fails) {
  const Bytes data{1, 2, 3};
  Reader r(data);
  std::uint32_t v = 0;
  EXPECT_FALSE(r.u32(v).ok());
}

TEST(Serialize, TruncatedU64Fails) {
  const Bytes data{1, 2, 3, 4, 5, 6, 7};
  Reader r(data);
  std::uint64_t v = 0;
  EXPECT_FALSE(r.u64(v).ok());
}

TEST(Serialize, EmptyReaderReportsDone) {
  const Bytes empty;
  Reader r(empty);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
  std::uint8_t v = 0;
  EXPECT_FALSE(r.u8(v).ok());
}

TEST(Serialize, MixedSequenceRoundTrip) {
  StackWriter<13> w;
  w.u8(9);
  w.u64(123456789);
  w.id(ResourceId{44});
  Reader r(w.view());
  std::uint8_t a = 0;
  std::uint64_t v = 0;
  ResourceId res;
  ASSERT_TRUE(r.u8(a).ok());
  ASSERT_TRUE(r.u64(v).ok());
  ASSERT_TRUE(r.id(res).ok());
  EXPECT_EQ(a, 9);
  EXPECT_EQ(v, 123456789u);
  EXPECT_EQ(res, ResourceId{44});
  EXPECT_TRUE(r.done());
}

}  // namespace
}  // namespace cmh
