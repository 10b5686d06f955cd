// satd wire-protocol layer in isolation: encode/decode round-trips,
// malformed-frame rejection, incremental (byte-at-a-time) decoding, a
// seeded mutation run over untrusted bytes, and the doc conformance check —
// the canonical example frame embedded in docs/satd.md must decode to
// exactly what the spec says, so the byte-level layout in the doc and the
// implemented codec cannot drift apart.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/satd/protocol.hpp"
#include "tools/satd/queue.hpp"
#include "util/rng.hpp"

namespace {

using satd::DecodeStatus;
using satd::Dtype;
using satd::ErrorCode;
using satd::Frame;
using satd::Type;

std::vector<std::uint8_t> i32_payload(std::uint32_t rows, std::uint32_t cols,
                                      const std::vector<std::int32_t>& vals) {
  return satd::encode_matrix_payload(rows, cols, Dtype::kI32, vals.data());
}

TEST(SatdProtocol, ComputeRoundTrip) {
  const std::vector<std::int32_t> vals{1, 2, 3, 4, 5, 6};
  const auto bytes =
      satd::encode_frame(Type::kCompute, 0xABCDEF0123456789ull,
                         i32_payload(2, 3, vals));

  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(satd::decode_frame(bytes.data(), bytes.size(), frame, consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.type, Type::kCompute);
  EXPECT_EQ(frame.trace_id, 0xABCDEF0123456789ull);

  satd::MatrixPayload m;
  ASSERT_TRUE(satd::parse_matrix_payload(frame.payload, m));
  EXPECT_EQ(m.rows, 2u);
  EXPECT_EQ(m.cols, 3u);
  EXPECT_EQ(m.dtype, Dtype::kI32);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    std::int32_t v = 0;
    std::memcpy(&v, m.data + 4 * i, 4);
    EXPECT_EQ(v, vals[i]);
  }
}

TEST(SatdProtocol, ErrorRoundTrip) {
  const auto bytes = satd::encode_frame(
      Type::kError, 7,
      satd::encode_error_payload(ErrorCode::kOverloaded, "queue full"));
  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(satd::decode_frame(bytes.data(), bytes.size(), frame, consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(frame.type, Type::kError);
  satd::ErrorPayload err;
  ASSERT_TRUE(satd::parse_error_payload(frame.payload, err));
  EXPECT_EQ(err.code, ErrorCode::kOverloaded);
  EXPECT_EQ(err.message, "queue full");
}

TEST(SatdProtocol, EmptyPayloadTypes) {
  for (const Type t : {Type::kPing, Type::kPong, Type::kShutdown}) {
    const auto bytes = satd::encode_frame(t, 42);
    EXPECT_EQ(bytes.size(), 4 + satd::kHeaderBytes);
    Frame frame;
    std::size_t consumed = 0;
    ASSERT_EQ(satd::decode_frame(bytes.data(), bytes.size(), frame, consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(frame.type, t);
    EXPECT_EQ(frame.trace_id, 42u);
    EXPECT_TRUE(frame.payload.empty());
  }
}

TEST(SatdProtocol, IncrementalDecodeByteAtATime) {
  const auto bytes =
      satd::encode_frame(Type::kCompute, 99, i32_payload(1, 2, {10, 20}));
  std::vector<std::uint8_t> buf;
  Frame frame;
  std::size_t consumed = 0;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    buf.push_back(bytes[i]);
    EXPECT_EQ(satd::decode_frame(buf.data(), buf.size(), frame, consumed),
              DecodeStatus::kNeedMore)
        << "after " << buf.size() << " bytes";
  }
  buf.push_back(bytes.back());
  ASSERT_EQ(satd::decode_frame(buf.data(), buf.size(), frame, consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.trace_id, 99u);
}

TEST(SatdProtocol, TwoFramesBackToBack) {
  auto bytes = satd::encode_frame(Type::kPing, 1);
  const auto second = satd::encode_frame(Type::kPing, 2);
  bytes.insert(bytes.end(), second.begin(), second.end());

  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(satd::decode_frame(bytes.data(), bytes.size(), frame, consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(frame.trace_id, 1u);
  ASSERT_EQ(satd::decode_frame(bytes.data() + consumed,
                               bytes.size() - consumed, frame, consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(frame.trace_id, 2u);
}

TEST(SatdProtocol, RejectsGarbageMagic) {
  auto bytes = satd::encode_frame(Type::kPing, 1);
  bytes[4] ^= 0xFF;  // corrupt the magic
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(satd::decode_frame(bytes.data(), bytes.size(), frame, consumed),
            DecodeStatus::kBadMagic);
}

TEST(SatdProtocol, RejectsWrongVersion) {
  auto bytes = satd::encode_frame(Type::kPing, 1);
  bytes[8] = 0x7F;  // version low byte
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(satd::decode_frame(bytes.data(), bytes.size(), frame, consumed),
            DecodeStatus::kBadVersion);
}

TEST(SatdProtocol, RejectsShortLength) {
  std::vector<std::uint8_t> bytes;
  satd::put_u32(bytes, 8);  // frame_len smaller than the 16-byte header
  for (int i = 0; i < 8; ++i) bytes.push_back(0);
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(satd::decode_frame(bytes.data(), bytes.size(), frame, consumed),
            DecodeStatus::kBadLength);
}

TEST(SatdProtocol, RejectsOversizedBeforeBuffering) {
  // Only the 4-byte prefix has arrived; the limit check must fire without
  // waiting for (or allocating) the advertised body.
  std::vector<std::uint8_t> bytes;
  satd::put_u32(bytes, 1u << 30);
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(satd::decode_frame(bytes.data(), bytes.size(), frame, consumed,
                               /*max_frame_bytes=*/1 << 20),
            DecodeStatus::kTooLarge);
}

TEST(SatdProtocol, MatrixPayloadRejectsMalformed) {
  satd::MatrixPayload m;
  // Truncated metadata.
  EXPECT_FALSE(satd::parse_matrix_payload({1, 2, 3}, m));
  // Zero shape.
  EXPECT_FALSE(satd::parse_matrix_payload(i32_payload(0, 4, {}), m));
  // Element bytes shorter than rows*cols.
  auto p = i32_payload(2, 2, {1, 2, 3, 4});
  p.pop_back();
  EXPECT_FALSE(satd::parse_matrix_payload(p, m));
  // Trailing junk.
  p = i32_payload(2, 2, {1, 2, 3, 4});
  p.push_back(0);
  EXPECT_FALSE(satd::parse_matrix_payload(p, m));
  // Unknown dtype.
  p = i32_payload(2, 2, {1, 2, 3, 4});
  p[8] = 0x55;
  EXPECT_FALSE(satd::parse_matrix_payload(p, m));
  // Unknown storage mode (valid values are 0 and 2): 3 was never
  // assigned, 1 (tiled residual) is retired.
  for (const std::uint8_t storage : {1, 3}) {
    p = i32_payload(2, 2, {1, 2, 3, 4});
    p[10] = storage;
    EXPECT_FALSE(satd::parse_matrix_payload(p, m)) << int{storage};
  }
  // Reserved byte set.
  p = i32_payload(2, 2, {1, 2, 3, 4});
  p[11] = 1;
  EXPECT_FALSE(satd::parse_matrix_payload(p, m));
  // kKahan storage requires an f32 matrix.
  p = i32_payload(2, 2, {1, 2, 3, 4});
  p[10] = static_cast<std::uint8_t>(satd::WireStorage::kKahan);
  EXPECT_FALSE(satd::parse_matrix_payload(p, m));
}

// Shapes whose byte count wraps u64 claim a body that their bytes do not
// hold: 2^31 × 2^31 f32 and i32, and 2^31 × 2^30 i64, wrap to 0 bytes, and
// (2^31 − 2^16 + 1)(2^31 + 2^16 + 1) = 2^62 + 1 f32 elements wrap to one.
TEST(SatdProtocol, MatrixPayloadRejectsShapesWhoseBytesWrap) {
  auto payload = [](std::uint32_t rows, std::uint32_t cols, Dtype dtype,
                    std::size_t body) {
    std::vector<std::uint8_t> p;
    satd::put_u32(p, rows);
    satd::put_u32(p, cols);
    satd::put_u16(p, static_cast<std::uint16_t>(dtype));
    p.push_back(0);  // storage: dense
    p.push_back(0);  // reserved
    p.resize(p.size() + body, 0);
    return p;
  };
  satd::MatrixPayload m;
  EXPECT_FALSE(satd::parse_matrix_payload(
      payload(1u << 31, 1u << 31, Dtype::kF32, 0), m));
  EXPECT_FALSE(satd::parse_matrix_payload(
      payload(1u << 31, 1u << 31, Dtype::kI32, 0), m));
  EXPECT_FALSE(satd::parse_matrix_payload(
      payload(1u << 31, 1u << 30, Dtype::kI64, 0), m));
  EXPECT_FALSE(satd::parse_matrix_payload(
      payload(2147418113u, 2147549185u, Dtype::kF32, 4), m));
  // The same builder makes a well-formed payload when the bytes match.
  EXPECT_TRUE(satd::parse_matrix_payload(payload(3, 5, Dtype::kI64, 120), m));
}

TEST(SatdProtocol, MatrixPayloadStorageByteRoundTrips) {
  // storage rides in byte 10 of the metadata (low half of the former
  // reserved u16); the default-dense encoding keeps historical frames
  // byte-identical.
  auto dense = i32_payload(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(dense[10], 0u);
  satd::MatrixPayload m;
  ASSERT_TRUE(satd::parse_matrix_payload(dense, m));
  EXPECT_EQ(m.storage, satd::WireStorage::kDense);

  // kKahan is accepted for f32 payloads.
  const std::vector<float> vals{1.0f, 2.0f, 3.0f, 4.0f};
  auto kah = satd::encode_matrix_payload(2, 2, Dtype::kF32, vals.data(),
                                         satd::WireStorage::kKahan);
  ASSERT_TRUE(satd::parse_matrix_payload(kah, m));
  EXPECT_EQ(m.storage, satd::WireStorage::kKahan);
}

TEST(SatdProtocol, ErrorPayloadRejectsLengthMismatch) {
  auto p = satd::encode_error_payload(ErrorCode::kInternal, "boom");
  p.push_back('!');  // msg_len no longer matches
  satd::ErrorPayload err;
  EXPECT_FALSE(satd::parse_error_payload(p, err));
}

TEST(SatdProtocol, MutatedFramesDecodeSafelyAndReencodeExactly) {
  // satd's loop decodes whatever a client sends, so the codec must hold on
  // any bytes. 20,000 seeded mutations of valid COMPUTE, PING and ERROR
  // frames: byte flips, truncations and rewritten length prefixes. Each
  // buffer is an exact-size heap copy, so under ASan a read past `len`
  // faults. Every frame accepted must re-encode to exactly the bytes it
  // consumed, and both payload parsers must return cleanly on it.
  const std::vector<float> f32{0.5f, 1.5f, -2.0f};
  const std::vector<std::vector<std::uint8_t>> valid = {
      satd::encode_frame(Type::kCompute, 1,
                         i32_payload(2, 3, {1, 2, 3, 4, 5, 6})),
      satd::encode_frame(
          Type::kCompute, 2,
          satd::encode_matrix_payload(3, 1, Dtype::kF32, f32.data(),
                                      satd::WireStorage::kKahan)),
      satd::encode_frame(Type::kPing, 3),
      satd::encode_frame(Type::kError, 4,
                         satd::encode_error_payload(ErrorCode::kOverloaded,
                                                    "queue full")),
  };
  satutil::Rng rng(18);
  std::size_t accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<std::uint8_t> bytes = valid[rng.next_below(valid.size())];
    // Sometimes a second frame follows, as on a pipelined connection.
    if (rng.next_below(4) == 0) {
      const auto& more = valid[rng.next_below(valid.size())];
      bytes.insert(bytes.end(), more.begin(), more.end());
    }
    switch (rng.next_below(3)) {
      case 0:  // flip 1-4 bytes
        for (std::uint64_t k = 1 + rng.next_below(4); k > 0; --k)
          bytes[rng.next_below(bytes.size())] ^=
              static_cast<std::uint8_t>(1 + rng.next_below(255));
        break;
      case 1:  // truncate
        bytes.resize(rng.next_below(bytes.size()));
        break;
      default: {  // rewrite the length prefix: anywhere, near the truth, tiny
        const std::uint64_t near = bytes.size() - 8 + rng.next_below(9);
        const std::uint64_t choices[3] = {rng.next_u64(), near,
                                          rng.next_below(24)};
        const auto len = static_cast<std::uint32_t>(choices[rng.next_below(3)]);
        for (int b = 0; b < 4; ++b)
          bytes[b] = static_cast<std::uint8_t>(len >> (8 * b));
      }
    }
    const std::vector<std::uint8_t> exact(bytes);  // capacity == size
    const std::size_t limit = rng.next_below(2) == 0
                                  ? satd::kDefaultMaxFrameBytes
                                  : 4 + rng.next_below(64);
    for (std::size_t off = 0;;) {
      Frame frame;
      std::size_t consumed = 0;
      const DecodeStatus st = satd::decode_frame(
          exact.data() + off, exact.size() - off, frame, consumed, limit);
      if (st != DecodeStatus::kOk) {
        ASSERT_EQ(consumed, 0u) << "iteration " << iter;
        break;
      }
      ASSERT_LE(consumed, exact.size() - off) << "iteration " << iter;
      ASSERT_EQ(satd::encode_frame(frame.type, frame.trace_id, frame.payload),
                std::vector<std::uint8_t>(exact.begin() + off,
                                          exact.begin() + off + consumed))
          << "iteration " << iter;
      off += consumed;
      ++accepted;

      satd::MatrixPayload m;
      if (satd::parse_matrix_payload(frame.payload, m)) {
        const std::size_t elem = satd::dtype_size(m.dtype);
        const std::size_t data = frame.payload.size() - satd::kComputeMeta;
        EXPECT_EQ(data % elem, 0u) << "iteration " << iter;
        EXPECT_EQ(std::uint64_t{m.rows} * m.cols, data / elem)
            << "iteration " << iter;
        EXPECT_EQ(m.data, frame.payload.data() + satd::kComputeMeta);
      }
      satd::ErrorPayload err;
      if (satd::parse_error_payload(frame.payload, err)) {
        EXPECT_EQ(8 + err.message.size(), frame.payload.size());
      }
    }
  }
  // The run must reach the accepting path, not only the rejections.
  EXPECT_GT(accepted, 2000u);
}

// --- doc conformance ----------------------------------------------------

/// Extracts the hex bytes of the fenced code block that follows the
/// `<!-- frame-example -->` marker in docs/satd.md.
std::vector<std::uint8_t> doc_example_frame() {
  std::ifstream in(SATD_DOC_PATH);
  EXPECT_TRUE(in.good()) << "cannot open " << SATD_DOC_PATH;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();

  const std::size_t marker = doc.find("<!-- frame-example -->");
  EXPECT_NE(marker, std::string::npos) << "frame-example marker missing";
  const std::size_t open = doc.find("```", marker);
  EXPECT_NE(open, std::string::npos);
  const std::size_t start = doc.find('\n', open) + 1;
  const std::size_t close = doc.find("```", start);
  EXPECT_NE(close, std::string::npos);

  std::vector<std::uint8_t> bytes;
  unsigned nibble = 0, have = 0;
  for (std::size_t i = start; i < close; ++i) {
    const char c = doc[i];
    int v = -1;
    if (c >= '0' && c <= '9') v = c - '0';
    if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
    if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
    if (c == '#') {  // per-line commentary: skip to end of line
      i = doc.find('\n', i);
      if (i == std::string::npos) break;
      continue;
    }
    if (v < 0) continue;
    nibble = (nibble << 4) | static_cast<unsigned>(v);
    if (++have == 2) {
      bytes.push_back(static_cast<std::uint8_t>(nibble));
      nibble = have = 0;
    }
  }
  EXPECT_EQ(have, 0u) << "odd number of hex digits in the doc example";
  return bytes;
}

TEST(SatdProtocol, DocExampleFrameDecodes) {
  // The spec's example: COMPUTE, trace id 0x0102030405060708, 2x2 i32
  // [[1,2],[3,4]]. If this fails, docs/satd.md and protocol.hpp disagree.
  const std::vector<std::uint8_t> bytes = doc_example_frame();
  ASSERT_FALSE(bytes.empty());

  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(satd::decode_frame(bytes.data(), bytes.size(), frame, consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, bytes.size()) << "doc example has trailing bytes";
  EXPECT_EQ(frame.type, Type::kCompute);
  EXPECT_EQ(frame.trace_id, 0x0102030405060708ull);

  satd::MatrixPayload m;
  ASSERT_TRUE(satd::parse_matrix_payload(frame.payload, m));
  EXPECT_EQ(m.rows, 2u);
  EXPECT_EQ(m.cols, 2u);
  EXPECT_EQ(m.dtype, Dtype::kI32);
  const std::int32_t want[4] = {1, 2, 3, 4};
  for (int i = 0; i < 4; ++i) {
    std::int32_t v = 0;
    std::memcpy(&v, m.data + 4 * i, 4);
    EXPECT_EQ(v, want[i]) << "element " << i;
  }

  // And the encoder must produce the doc's bytes exactly, not merely
  // accept them.
  EXPECT_EQ(satd::encode_frame(Type::kCompute, 0x0102030405060708ull,
                               satd::encode_matrix_payload(2, 2, Dtype::kI32,
                                                           want)),
            bytes);
}

// --- bounded queue ------------------------------------------------------

struct FakeJob {
  int shape;
  int seq;
};

TEST(SatdQueue, TryPushRejectsWhenFull) {
  satd::BoundedQueue<FakeJob> q(2);
  EXPECT_TRUE(q.try_push({1, 0}));
  EXPECT_TRUE(q.try_push({1, 1}));
  EXPECT_FALSE(q.try_push({1, 2}));  // full: immediate rejection, no block
  EXPECT_EQ(q.size(), 2u);
}

TEST(SatdQueue, PopBatchCoalescesSameShapePreservingOthers) {
  satd::BoundedQueue<FakeJob> q(8);
  ASSERT_TRUE(q.try_push({7, 0}));
  ASSERT_TRUE(q.try_push({9, 1}));
  ASSERT_TRUE(q.try_push({7, 2}));
  ASSERT_TRUE(q.try_push({7, 3}));
  const auto same = [](const FakeJob& a, const FakeJob& b) {
    return a.shape == b.shape;
  };
  auto batch = q.pop_batch(8, same);
  ASSERT_EQ(batch.size(), 3u);  // all shape-7 jobs, arrival order
  EXPECT_EQ(batch[0].seq, 0);
  EXPECT_EQ(batch[1].seq, 2);
  EXPECT_EQ(batch[2].seq, 3);
  batch = q.pop_batch(8, same);
  ASSERT_EQ(batch.size(), 1u);  // shape 9 kept its place
  EXPECT_EQ(batch[0].seq, 1);
}

TEST(SatdQueue, PopBatchHonorsMaxBatch) {
  satd::BoundedQueue<FakeJob> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.try_push({1, i}));
  const auto batch = q.pop_batch(
      2, [](const FakeJob& a, const FakeJob& b) { return a.shape == b.shape; });
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(q.size(), 3u);
}

TEST(SatdQueue, CloseDrainsThenReturnsEmpty) {
  satd::BoundedQueue<FakeJob> q(4);
  ASSERT_TRUE(q.try_push({1, 0}));
  q.close();
  EXPECT_FALSE(q.try_push({1, 1}));  // closed: no new admissions
  auto batch = q.pop_batch(4, [](const FakeJob&, const FakeJob&) {
    return true;
  });
  EXPECT_EQ(batch.size(), 1u);  // queued work still drains
  batch = q.pop_batch(4, [](const FakeJob&, const FakeJob&) { return true; });
  EXPECT_TRUE(batch.empty());  // drained + closed: the shutdown signal
}

}  // namespace
