// satd wire protocol: length-prefixed binary frames over a byte stream.
//
// This header is the single source of truth for the byte layout; the spec
// in docs/satd.md mirrors it field for field and embeds a canonical example
// frame that tests/test_satd_protocol.cpp decodes against these routines,
// so the doc cannot silently drift from the code.
//
// Layout (every integer little-endian):
//
//   frame     := u32 frame_len | body[frame_len]
//   body      := header | payload
//   header    := u32 magic("SATD") | u16 version | u16 type | u64 trace_id
//   COMPUTE / RESULT payload
//             := u32 rows | u32 cols | u16 dtype | u8 storage | u8 reserved(0)
//                | rows*cols elements, row-major
//   ERROR payload
//             := u32 code | u32 msg_len | msg bytes
//   PING / PONG / SHUTDOWN payload := empty
//
// frame_len covers the body only (not the length prefix itself) and is
// bounded by the server's --max-frame-mb; oversized prefixes are rejected
// before any allocation. Decoding is incremental: feed whatever bytes have
// arrived, get kNeedMore until a whole frame is buffered.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace satd {

inline constexpr std::uint32_t kMagic = 0x44544153;  // "SATD" on the wire
inline constexpr std::uint16_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 16;   // magic+version+type+trace
inline constexpr std::size_t kComputeMeta = 12;  // rows+cols+dtype+storage+rsvd
inline constexpr std::size_t kDefaultMaxFrameBytes = 64ull << 20;

/// Frame types. Requests have the high payload bit clear, replies set it;
/// ERROR is deliberately distinct from both ranges.
enum class Type : std::uint16_t {
  kCompute = 0x0001,   ///< client → server: one SAT job
  kPing = 0x0002,      ///< client → server: liveness probe
  kShutdown = 0x0003,  ///< client → server: request clean server exit
  kResult = 0x0081,    ///< server → client: SAT of the matching kCompute
  kPong = 0x0082,      ///< server → client: reply to kPing
  kError = 0x00EE,     ///< server → client: rejection, see ErrorCode
};

/// Element type of a COMPUTE/RESULT matrix.
enum class Dtype : std::uint16_t {
  kF32 = 0,
  kI32 = 1,
  kI64 = 2,
};

[[nodiscard]] inline std::size_t dtype_size(Dtype d) {
  switch (d) {
    case Dtype::kF32: return 4;
    case Dtype::kI32: return 4;
    case Dtype::kI64: return 8;
  }
  return 0;
}

[[nodiscard]] inline bool dtype_valid(std::uint16_t raw) {
  return raw <= static_cast<std::uint16_t>(Dtype::kI64);
}

/// Storage-mode byte of a COMPUTE payload (sat::Storage on the wire). It
/// selects how the SERVER computes the table; RESULT matrices are always
/// dense row-major regardless (storage byte 0 in replies), so clients need
/// no decompressor. kKahan is only meaningful for f32 jobs — the parser
/// rejects it for integer dtypes. Value 1 (tiled residual) is retired: the
/// reply is dense either way, so it only added an encode and a decode.
enum class WireStorage : std::uint8_t {
  kDense = 0,  ///< dense output (the default; the pre-v1.1 behavior)
  kKahan = 2,  ///< f32 Kahan-compensated column scans
};

[[nodiscard]] inline bool storage_valid(std::uint8_t raw) {
  return raw == static_cast<std::uint8_t>(WireStorage::kDense) ||
         raw == static_cast<std::uint8_t>(WireStorage::kKahan);
}

/// ERROR payload codes (docs/satd.md "Error and backpressure codes").
enum class ErrorCode : std::uint32_t {
  kBadFrame = 1,      ///< malformed frame; connection is closed after send
  kTooLarge = 2,      ///< frame_len exceeds the server's --max-frame-mb
  kUnsupported = 3,   ///< unknown type/version/dtype; connection survives
  kOverloaded = 4,    ///< backpressure: queue full — retry with backoff
  kShuttingDown = 5,  ///< server is draining; no new jobs accepted
  kInternal = 6,      ///< engine failure; details in the message
};

// --- little-endian scalar put/get --------------------------------------

inline void put_u16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

[[nodiscard]] inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

[[nodiscard]] inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

[[nodiscard]] inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// --- frames ------------------------------------------------------------

/// A decoded frame: header fields plus the raw payload bytes.
struct Frame {
  Type type = Type::kPing;
  std::uint64_t trace_id = 0;
  std::vector<std::uint8_t> payload;
};

enum class DecodeStatus {
  kOk,          ///< one frame decoded; `consumed` bytes eaten
  kNeedMore,    ///< buffer holds a frame prefix; feed more bytes
  kBadMagic,    ///< header magic mismatch — not a satd stream
  kBadVersion,  ///< protocol version != kVersion
  kBadLength,   ///< frame_len smaller than the fixed header
  kTooLarge,    ///< frame_len exceeds the given limit
};

[[nodiscard]] inline std::string_view decode_status_name(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadLength: return "bad-length";
    case DecodeStatus::kTooLarge: return "too-large";
  }
  return "?";
}

/// Serializes one frame: length prefix + header + payload.
[[nodiscard]] inline std::vector<std::uint8_t> encode_frame(
    Type type, std::uint64_t trace_id,
    const std::vector<std::uint8_t>& payload = {}) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + kHeaderBytes + payload.size());
  put_u32(out, static_cast<std::uint32_t>(kHeaderBytes + payload.size()));
  put_u32(out, kMagic);
  put_u16(out, kVersion);
  put_u16(out, static_cast<std::uint16_t>(type));
  put_u64(out, trace_id);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// Attempts to decode one frame from the front of `buf` (`len` valid
/// bytes). On kOk fills `out` and sets `consumed` to the bytes eaten; on
/// kNeedMore nothing is consumed; on any error the stream is unsalvageable
/// (framing is lost) and the connection should be dropped after an ERROR
/// reply. `max_frame_bytes` bounds frame_len *before* payload allocation.
[[nodiscard]] inline DecodeStatus decode_frame(
    const std::uint8_t* buf, std::size_t len, Frame& out,
    std::size_t& consumed, std::size_t max_frame_bytes = kDefaultMaxFrameBytes) {
  consumed = 0;
  if (len < 4) return DecodeStatus::kNeedMore;
  const std::uint32_t frame_len = get_u32(buf);
  if (frame_len < kHeaderBytes) return DecodeStatus::kBadLength;
  if (frame_len > max_frame_bytes) return DecodeStatus::kTooLarge;
  if (len < 4 + static_cast<std::size_t>(frame_len))
    return DecodeStatus::kNeedMore;
  const std::uint8_t* body = buf + 4;
  if (get_u32(body) != kMagic) return DecodeStatus::kBadMagic;
  if (get_u16(body + 4) != kVersion) return DecodeStatus::kBadVersion;
  out.type = static_cast<Type>(get_u16(body + 6));
  out.trace_id = get_u64(body + 8);
  out.payload.assign(body + kHeaderBytes, body + frame_len);
  consumed = 4 + frame_len;
  return DecodeStatus::kOk;
}

// --- payload builders / parsers ----------------------------------------

/// View into a decoded COMPUTE or RESULT payload. `data` points into the
/// owning Frame's payload vector — same lifetime.
struct MatrixPayload {
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  Dtype dtype = Dtype::kF32;
  WireStorage storage = WireStorage::kDense;
  const std::uint8_t* data = nullptr;  ///< rows*cols*dtype_size bytes, LE
};

/// Builds a COMPUTE/RESULT payload from raw little-endian element bytes.
/// `storage` selects the server-side storage mode for COMPUTE frames;
/// RESULT frames always use kDense (the default keeps pre-v1.1 byte
/// layouts, including the canonical doc frame, unchanged).
[[nodiscard]] inline std::vector<std::uint8_t> encode_matrix_payload(
    std::uint32_t rows, std::uint32_t cols, Dtype dtype, const void* elements,
    WireStorage storage = WireStorage::kDense) {
  const std::size_t nbytes =
      static_cast<std::size_t>(rows) * cols * dtype_size(dtype);
  std::vector<std::uint8_t> p;
  p.reserve(kComputeMeta + nbytes);
  put_u32(p, rows);
  put_u32(p, cols);
  put_u16(p, static_cast<std::uint16_t>(dtype));
  p.push_back(static_cast<std::uint8_t>(storage));
  p.push_back(0);  // reserved
  const auto* src = static_cast<const std::uint8_t*>(elements);
  p.insert(p.end(), src, src + nbytes);
  return p;
}

/// Parses a COMPUTE/RESULT payload. Returns false (and leaves `out`
/// unspecified) when the metadata is malformed: short payload, zero or
/// absurd shape, unknown dtype, unknown storage byte, reserved != 0,
/// kKahan storage with a non-f32 dtype, or element bytes that do not match
/// rows*cols*dtype_size exactly.
[[nodiscard]] inline bool parse_matrix_payload(
    const std::vector<std::uint8_t>& payload, MatrixPayload& out) {
  if (payload.size() < kComputeMeta) return false;
  out.rows = get_u32(payload.data());
  out.cols = get_u32(payload.data() + 4);
  const std::uint16_t raw_dtype = get_u16(payload.data() + 8);
  const std::uint8_t raw_storage = payload[10];
  const std::uint8_t reserved = payload[11];
  if (out.rows == 0 || out.cols == 0) return false;
  if (!dtype_valid(raw_dtype) || !storage_valid(raw_storage)) return false;
  if (reserved != 0) return false;
  out.dtype = static_cast<Dtype>(raw_dtype);
  out.storage = static_cast<WireStorage>(raw_storage);
  if (out.storage == WireStorage::kKahan && out.dtype != Dtype::kF32)
    return false;
  // rows·cols fits u64, but the byte count can wrap: 2^31 × 2^31 f32
  // elements would otherwise claim a 0-byte body.
  const std::uint64_t elems = std::uint64_t{out.rows} * out.cols;
  const std::size_t esize = dtype_size(out.dtype);
  if (elems > std::numeric_limits<std::uint64_t>::max() / esize) return false;
  if (payload.size() - kComputeMeta != elems * esize) return false;
  out.data = payload.data() + kComputeMeta;
  return true;
}

/// Builds an ERROR payload.
[[nodiscard]] inline std::vector<std::uint8_t> encode_error_payload(
    ErrorCode code, std::string_view msg) {
  std::vector<std::uint8_t> p;
  p.reserve(8 + msg.size());
  put_u32(p, static_cast<std::uint32_t>(code));
  put_u32(p, static_cast<std::uint32_t>(msg.size()));
  p.insert(p.end(), msg.begin(), msg.end());
  return p;
}

struct ErrorPayload {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

[[nodiscard]] inline bool parse_error_payload(
    const std::vector<std::uint8_t>& payload, ErrorPayload& out) {
  if (payload.size() < 8) return false;
  out.code = static_cast<ErrorCode>(get_u32(payload.data()));
  const std::uint32_t msg_len = get_u32(payload.data() + 4);
  if (payload.size() - 8 != msg_len) return false;
  out.message.assign(payload.begin() + 8, payload.end());
  return true;
}

}  // namespace satd
