// XDR (RFC 4506) serialization.
//
// Every message that crosses the simulated wire is encoded and decoded
// through these codecs, so the protocol engines on either side can only
// communicate through well-defined wire formats — exactly as a real NFS
// implementation would.  Quantities are big-endian; opaque/string data is
// padded to 4-byte alignment.
//
// Bulk file data travels as a `Payload` (see payload.hpp): either inline
// bytes (fully materialized, used by tests and small I/O) or a counted
// virtual extent (used by large benchmarks to avoid gigabytes of memcpy
// while still charging the wire for every byte).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "rpc/payload.hpp"
#include "util/pool.hpp"

namespace dpnfs::rpc {

/// Thrown on malformed or truncated XDR input.
class XdrError : public std::runtime_error {
 public:
  explicit XdrError(const std::string& what) : std::runtime_error(what) {}
};

class XdrEncoder {
 public:
  // Encoder buffers come from (and return to) the byte-buffer pool: one
  // encoder per message means steady-state encoding allocates nothing.
  XdrEncoder() : buf_(util::BufferPool::take(192)) {}
  XdrEncoder(XdrEncoder&&) = default;
  XdrEncoder& operator=(XdrEncoder&& other) noexcept {
    if (this != &other) {
      util::BufferPool::give(std::move(buf_));
      buf_ = std::move(other.buf_);
      virtual_bytes_ = other.virtual_bytes_;
    }
    return *this;
  }
  XdrEncoder(const XdrEncoder&) = default;
  XdrEncoder& operator=(const XdrEncoder&) = default;
  ~XdrEncoder() { util::BufferPool::give(std::move(buf_)); }

  // Hot primitives are inline: a single 4/8-byte insert (one capacity
  // check) instead of per-byte push_backs — these run tens of millions of
  // times in a scale sweep.
  void put_u32(uint32_t v) {
    const std::byte b[4] = {
        static_cast<std::byte>((v >> 24) & 0xFF),
        static_cast<std::byte>((v >> 16) & 0xFF),
        static_cast<std::byte>((v >> 8) & 0xFF),
        static_cast<std::byte>(v & 0xFF)};
    buf_.insert(buf_.end(), b, b + 4);
  }
  void put_u64(uint64_t v) {
    const std::byte b[8] = {
        static_cast<std::byte>((v >> 56) & 0xFF),
        static_cast<std::byte>((v >> 48) & 0xFF),
        static_cast<std::byte>((v >> 40) & 0xFF),
        static_cast<std::byte>((v >> 32) & 0xFF),
        static_cast<std::byte>((v >> 24) & 0xFF),
        static_cast<std::byte>((v >> 16) & 0xFF),
        static_cast<std::byte>((v >> 8) & 0xFF),
        static_cast<std::byte>(v & 0xFF)};
    buf_.insert(buf_.end(), b, b + 8);
  }
  void put_i32(int32_t v) { put_u32(static_cast<uint32_t>(v)); }
  void put_i64(int64_t v) { put_u64(static_cast<uint64_t>(v)); }
  void put_bool(bool v) { put_u32(v ? 1 : 0); }

  /// Fixed-length opaque: bytes plus padding, no length prefix.
  void put_opaque_fixed(std::span<const std::byte> data);

  /// Variable-length opaque: u32 length, bytes, padding.
  void put_opaque_var(std::span<const std::byte> data);

  void put_string(std::string_view s);

  /// Bulk data: discriminant + length (+ bytes when inline).  The virtual
  /// portion is charged to `wire_size()` but not materialized.
  void put_payload(const Payload& p);

  template <typename T>
  void put(const T& value) {
    value.encode(*this);
  }

  template <typename T>
  void put_array(const std::vector<T>& items) {
    put_u32(static_cast<uint32_t>(items.size()));
    for (const auto& item : items) put(item);
  }

  /// Overwrites a previously written u32 at byte position `pos` (used to
  /// back-patch counts, e.g. the COMPOUND op count).
  void patch_u32(size_t pos, uint32_t v);

  /// Bytes materialized so far.
  size_t encoded_size() const noexcept { return buf_.size(); }

  /// Total bytes this message occupies on the wire, including virtual
  /// payload bytes that were counted but not materialized.
  uint64_t wire_size() const noexcept { return buf_.size() + virtual_bytes_; }

  /// Consumes the encoder, returning the materialized buffer.  The caller
  /// pairs it with `wire_size()` when handing it to the transport.
  std::vector<std::byte> take() && { return std::move(buf_); }

 private:
  void pad();

  std::vector<std::byte> buf_;
  uint64_t virtual_bytes_ = 0;
};

class XdrDecoder {
 public:
  explicit XdrDecoder(std::span<const std::byte> data) : data_(data) {}

  uint32_t get_u32();
  uint64_t get_u64();
  int32_t get_i32() { return static_cast<int32_t>(get_u32()); }
  int64_t get_i64() { return static_cast<int64_t>(get_u64()); }
  bool get_bool();

  std::vector<std::byte> get_opaque_fixed(size_t len);
  std::vector<std::byte> get_opaque_var();
  std::string get_string();
  Payload get_payload();

  template <typename T>
  T get() {
    return T::decode(*this);
  }

  template <typename T>
  std::vector<T> get_array() {
    const uint32_t n = get_u32();
    if (n > kMaxArrayLen) throw XdrError("array length implausible");
    std::vector<T> items;
    items.reserve(n);
    for (uint32_t i = 0; i < n; ++i) items.push_back(get<T>());
    return items;
  }

  size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }

 private:
  static constexpr uint32_t kMaxArrayLen = 1u << 20;

  void need(size_t n) const {
    if (pos_ + n > data_.size()) throw XdrError("XDR underflow");
  }
  void skip_pad();

  std::span<const std::byte> data_;
  size_t pos_ = 0;
};

}  // namespace dpnfs::rpc
