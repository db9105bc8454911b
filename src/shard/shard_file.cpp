#include "shard/shard_file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/faultpoint.hpp"

namespace lr90::shard {

namespace {

// The I/O edges of the slab format, one fault site each (chaos coverage:
// tests/fault_test.cpp arms every site and asserts a typed outcome).
fault::FaultSite f_write_open{"shard.write.open",
                              "shard-file fopen fails (EACCES)"};
fault::FaultSite f_write_io{"shard.write.io", "fwrite fails mid-slab (EIO)"};
fault::FaultSite f_write_nospc{"shard.write.nospc",
                               "fwrite fails mid-slab (ENOSPC)"};
fault::FaultSite f_write_short{"shard.write.short",
                               "fwrite writes a short count (torn slab)"};
fault::FaultSite f_map_open{"shard.map.open",
                            "slab open/fstat fails on reload (EIO)"};
fault::FaultSite f_map_mmap{"shard.map.mmap",
                            "mmap fails (address-space pressure)"};
fault::FaultSite f_map_checksum{"shard.map.checksum",
                                "payload checksum mismatch (bit rot)"};
fault::FaultSite f_reclaim_unlink{"shard.reclaim.unlink",
                                  "spill-file unlink fails (EBUSY)"};

/// Pad to the value_t alignment boundary between the next[] and value[]
/// payload sections.
std::size_t align8(std::size_t x) { return (x + 7) & ~std::size_t{7}; }

}  // namespace

std::size_t shard_payload_bytes(std::size_t len) {
  return align8(len * sizeof(index_t)) + len * sizeof(value_t);
}

void Checksum64::update(const void* data, std::size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  total_ += len;
  auto mix = [this](std::uint64_t word) {
    state_ ^= word * 0x9ddfea08eb382d69ull;
    state_ = (state_ << 31) | (state_ >> 33);
    state_ *= 0x9e3779b97f4a7c15ull;
  };
  // Top up the carry buffer first so chunk boundaries are split-invariant.
  if (carry_len_ > 0) {
    const std::size_t take = std::min(len, 8 - carry_len_);
    std::memcpy(carry_ + carry_len_, p, take);
    carry_len_ += take;
    p += take;
    len -= take;
    if (carry_len_ < 8) return;
    std::uint64_t word;
    std::memcpy(&word, carry_, 8);
    mix(word);
    carry_len_ = 0;
  }
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    mix(word);
  }
  if (len > 0) {
    std::memcpy(carry_, p, len);
    carry_len_ = len;
  }
}

std::uint64_t Checksum64::digest() const {
  // Fold the tail (zero-padded) and the total length without consuming
  // the running state, so digest() can be called mid-stream.
  std::uint64_t s = state_;
  if (carry_len_ > 0) {
    unsigned char tail[8] = {};
    std::memcpy(tail, carry_, carry_len_);
    std::uint64_t word;
    std::memcpy(&word, tail, 8);
    s ^= word * 0x9ddfea08eb382d69ull;
    s = (s << 31) | (s >> 33);
    s *= 0x9e3779b97f4a7c15ull;
  }
  s ^= total_;
  s ^= s >> 33;
  s *= 0xff51afd7ed558ccdull;
  s ^= s >> 29;
  return s;
}

std::uint64_t checksum64(const void* data, std::size_t len) {
  Checksum64 c;
  c.update(data, len);
  return c.digest();
}

std::string shard_file_name(unsigned index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard_%06u.lr90", index);
  return buf;
}

bool write_shard_file(const std::string& path, const ShardHeader& header,
                      const index_t* next, const value_t* value) {
  const std::size_t len = shard_header_len(header);
  const std::size_t pad =
      align8(len * sizeof(index_t)) - len * sizeof(index_t);
  const char zeros[8] = {};

  // The writer owns the checksum: whatever the caller put in the header's
  // checksum slot is recomputed from the actual payload bytes.
  ShardHeader h = header;
  {
    Checksum64 sum;
    if (len > 0) sum.update(next, len * sizeof(index_t));
    if (pad > 0) sum.update(zeros, pad);
    if (len > 0) sum.update(value, len * sizeof(value_t));
    h.payload_checksum = sum.digest();
  }

  if (f_write_open.fire()) {
    errno = EACCES;
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(&h, sizeof(h), 1, f) == 1;
  if (ok && (f_write_io.fire() || f_write_nospc.fire())) {
    errno = f_write_nospc.armed() ? ENOSPC : EIO;
    ok = false;
  }
  if (ok && f_write_short.fire() && len > 0) {
    // A torn write: half the links land, then the device gives up. The
    // run never reads a shard whose write failed; the site exists so the
    // degraded path is testable end to end.
    (void)std::fwrite(next, sizeof(index_t), len / 2, f);
    ok = false;
  }
  ok = ok && (len == 0 || std::fwrite(next, sizeof(index_t), len, f) == len);
  if (ok && pad > 0) ok = std::fwrite(zeros, 1, pad, f) == pad;
  ok = ok && (len == 0 || std::fwrite(value, sizeof(value_t), len, f) == len);
  ok = std::fflush(f) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) std::remove(path.c_str());
  return ok;
}

bool read_shard_header(const std::string& path, ShardHeader& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  const bool ok = std::fread(&out, sizeof(out), 1, f) == 1;
  std::fclose(f);
  return ok && out.magic == kShardMagic;
}

bool shard_header_matches(const ShardHeader& h, unsigned index,
                          std::size_t begin, std::size_t end,
                          std::size_t total_n) {
  return h.magic == kShardMagic && h.version == kShardFormatVersion &&
         h.shard_index == index && h.begin == begin && h.end == end &&
         h.total_n == total_n &&
         h.payload_bytes == shard_payload_bytes(end - begin);
}

bool ShardMap::open(const std::string& path, unsigned index,
                    std::size_t begin, std::size_t end, std::size_t total_n) {
  close();
  ShardHeader h;
  if (!read_shard_header(path, h)) {
    error_ = ShardLoadError::kNotFound;
    return false;
  }
  if (!shard_header_matches(h, index, begin, end, total_n)) {
    error_ = ShardLoadError::kHeaderMismatch;
    return false;
  }
  const std::size_t len = shard_header_len(h);
  const std::size_t total =
      sizeof(ShardHeader) + static_cast<std::size_t>(h.payload_bytes);
  if (f_map_open.fire()) {
    error_ = ShardLoadError::kIoError;
    return false;
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    error_ = ShardLoadError::kIoError;
    return false;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    error_ = ShardLoadError::kIoError;
    return false;
  }
  if (static_cast<std::size_t>(st.st_size) < total) {
    // Shorter than the header promises: a torn slab (the header made it
    // to disk but the payload did not).
    ::close(fd);
    error_ = ShardLoadError::kCorrupt;
    return false;
  }
  void* base = f_map_mmap.fire()
                   ? MAP_FAILED
                   : ::mmap(nullptr, total, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // on success the mapping keeps its own reference
  if (base == MAP_FAILED) {
    error_ = ShardLoadError::kIoError;
    return false;
  }
  base_ = base;
  map_bytes_ = total;
  const char* payload = static_cast<const char*>(base_) + sizeof(ShardHeader);
  // Verify the payload against the header's checksum. This reads every
  // payload byte, so the pages are resident when the ranking pass walks
  // them.
  const std::uint64_t sum =
      checksum64(payload, static_cast<std::size_t>(h.payload_bytes));
  if (sum != h.payload_checksum || f_map_checksum.fire()) {
    close();
    error_ = ShardLoadError::kCorrupt;
    return false;
  }
  next_ = reinterpret_cast<const index_t*>(payload);
  value_ = reinterpret_cast<const value_t*>(
      payload + align8(len * sizeof(index_t)));
  len_ = len;
  error_ = ShardLoadError::kOk;
  return true;
}

void ShardMap::close() {
  if (base_ != nullptr) ::munmap(base_, map_bytes_);
  base_ = nullptr;
  map_bytes_ = 0;
  len_ = 0;
  next_ = nullptr;
  value_ = nullptr;
}

void drop_spill_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (dir.empty() || !fs::is_directory(dir, ec)) return;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const bool is_shard =
        (name.rfind("shard_", 0) == 0 &&
         name.size() > 5 && name.compare(name.size() - 5, 5, ".lr90") == 0);
    if (!is_shard) continue;
    // A file that refuses to go (EBUSY, EACCES, EROFS) stays, and so does
    // the directory; the run's answer is already out.
    if (f_reclaim_unlink.fire()) continue;
    fs::remove(entry.path(), ec);
  }
  ec.clear();
  fs::remove(dir, ec);  // succeeds only if now empty; foreign files keep it
}

}  // namespace lr90::shard
