// The out-of-core shard slab format (`ShardFile`) and its mmap loader.
//
// A shard is a contiguous vertex-id range [begin, end) of one list, stored
// as the raw subranges of the next[] and value[] arrays behind a small
// versioned header. The format is deliberately dumb -- a straight memcpy of
// the structure-of-arrays representation -- so spilling a shard writes at
// streaming bandwidth and loading one is a single mmap plus sequential page
// faults (the Gigablast BigFile idiom: big flat files, position-addressed,
// no record framing).
//
// Versioning: the header carries a magic, a format version, and the shard's
// identity (index, range, total list length). A loader rejects anything
// that does not match what the run expects, so a file that is not the one
// the run wrote -- another format, another shard of the plan -- is not
// read: its shard degrades to the resident source, never to a wrong
// answer. No file is shared between runs: each run writes every shard
// afresh into a directory of its own, reads a shard only after its own
// write of it succeeded, and removes the files when it ends.
#pragma once

#include <cstdint>
#include <string>

#include "lists/linked_list.hpp"

namespace lr90::shard {

/// Shard-file magic: "LR90SHRD" read as a little-endian 64-bit word.
inline constexpr std::uint64_t kShardMagic =
    (std::uint64_t{'L'}) | (std::uint64_t{'R'} << 8) |
    (std::uint64_t{'9'} << 16) | (std::uint64_t{'0'} << 24) |
    (std::uint64_t{'S'} << 32) | (std::uint64_t{'H'} << 40) |
    (std::uint64_t{'R'} << 48) | (std::uint64_t{'D'} << 56);

/// Current shard-file format version. Bump on any layout change; loaders
/// reject other versions (a mismatched file is not read).
/// v2 added the payload checksum.
inline constexpr std::uint32_t kShardFormatVersion = 2;

/// Fixed 64-byte header at offset 0 of every shard file. The payload
/// follows at offset 64: next[] (index_t each), padded to an 8-byte
/// boundary, then value[] (value_t each). Links are GLOBAL vertex ids --
/// exactly the source subrange -- so a loaded shard is usable without any
/// translation pass.
struct ShardHeader {
  std::uint64_t magic = kShardMagic;      ///< kShardMagic
  std::uint32_t version = kShardFormatVersion;  ///< kShardFormatVersion
  std::uint32_t shard_index = 0;          ///< which shard of the plan
  std::uint64_t begin = 0;                ///< first global vertex id
  std::uint64_t end = 0;                  ///< one past the last vertex id
  std::uint64_t total_n = 0;              ///< full list length (plan identity)
  std::uint64_t payload_bytes = 0;        ///< bytes after the header
  /// checksum64 of the payload bytes (next + pad + value), filled by the
  /// writer; loaders verify it so a torn or bit-flipped slab is detected
  /// before any of its links are walked.
  std::uint64_t payload_checksum = 0;
  std::uint64_t reserved = 0;             ///< zero; future use
};
static_assert(sizeof(ShardHeader) == 64, "shard header is 64 bytes on disk");

/// Vertices covered by `h`.
inline std::size_t shard_header_len(const ShardHeader& h) {
  return static_cast<std::size_t>(h.end - h.begin);
}

/// Payload bytes for a shard of `len` vertices: next[], pad to 8, value[].
std::size_t shard_payload_bytes(std::size_t len);

/// Streaming 64-bit integrity checksum (not cryptographic): 8-byte-chunk
/// multiply-rotate mixer with the total length folded into the digest.
/// update() accepts arbitrary spans in any split -- a carry buffer keeps
/// the chunking split-invariant, so writer (three spans) and loader (one
/// contiguous payload) agree.
class Checksum64 {
 public:
  /// Folds `len` bytes at `data` into the running state.
  void update(const void* data, std::size_t len);
  /// The digest of everything updated so far (state is not consumed).
  std::uint64_t digest() const;

 private:
  std::uint64_t state_ = 0x243f6a8885a308d3ull;  ///< running hash state
  std::uint64_t total_ = 0;                      ///< bytes folded in
  unsigned char carry_[8] = {};                  ///< sub-chunk tail bytes
  std::size_t carry_len_ = 0;                    ///< valid bytes in carry_
};

/// One-shot Checksum64 over a single span.
std::uint64_t checksum64(const void* data, std::size_t len);

/// The canonical file name of shard `index` inside a spill directory.
std::string shard_file_name(unsigned index);

/// Writes one shard file (header + next/value subranges) to `path`. The
/// payload checksum is computed here and stamped into the written header
/// (the caller's `header.payload_checksum` is ignored). `next`/`value`
/// point at `len` elements (the global subrange). Returns true only when
/// every write, the flush and the close succeeded; on any I/O failure it
/// removes the partial file and returns false (the caller treats the
/// shard as unspillable).
bool write_shard_file(const std::string& path, const ShardHeader& header,
                      const index_t* next, const value_t* value);

/// Reads just the header of `path` into `out`. Returns false when the file
/// is missing, short, or fails the magic check.
bool read_shard_header(const std::string& path, ShardHeader& out);

/// True iff `h` identifies exactly the expected shard of the expected plan
/// (version, index, range, total length, payload size all match).
bool shard_header_matches(const ShardHeader& h, unsigned index,
                          std::size_t begin, std::size_t end,
                          std::size_t total_n);

/// Why a ShardMap::open failed (kOk on success). kCorrupt is the typed
/// "this slab is torn or bit-flipped" signal: header and identity match
/// but the payload fails its checksum (or the file is shorter than the
/// header promises) -- the store serves the shard from the resident
/// source instead of serving garbage.
enum class ShardLoadError {
  kOk,              ///< the map is live
  kNotFound,        ///< the file is missing / unreadable
  kHeaderMismatch,  ///< wrong magic/version/identity (not this shard)
  kCorrupt,         ///< identity matches but the payload is torn/corrupt
  kIoError,         ///< open/fstat/mmap failed
};

/// One mapped shard file: RAII over the mapping, exposing the next/value
/// subranges zero-copy. Neither copyable nor movable; unmaps on
/// destruction.
class ShardMap {
 public:
  ShardMap() = default;
  ShardMap(const ShardMap&) = delete;             ///< not copyable
  ShardMap& operator=(const ShardMap&) = delete;  ///< not copyable
  ~ShardMap() { close(); }  ///< unmaps

  /// Maps `path` read-only, validates its header against the expected
  /// shard identity, and verifies the payload checksum (which also faults
  /// every payload page in). On success the next()/value() spans are
  /// live. Returns false (and stays empty) on any mismatch, corruption,
  /// or I/O failure, a failed mmap included; error() says which.
  bool open(const std::string& path, unsigned index, std::size_t begin,
            std::size_t end, std::size_t total_n);

  /// Why the last open() failed (kOk after a successful open).
  ShardLoadError error() const { return error_; }

  /// Unmaps; the object returns to the empty state.
  void close();

  /// True iff a file is mapped.
  explicit operator bool() const { return next_ != nullptr; }

  /// The shard's link subrange: next()[i] is the GLOBAL successor of
  /// global vertex begin + i.
  const index_t* next() const { return next_; }
  /// The shard's value subrange.
  const value_t* value() const { return value_; }
  /// Vertices in the shard.
  std::size_t size() const { return len_; }

 private:
  void* base_ = nullptr;         ///< mmap base
  std::size_t map_bytes_ = 0;    ///< mapped length
  std::size_t len_ = 0;          ///< vertices
  const index_t* next_ = nullptr;
  const value_t* value_ = nullptr;
  ShardLoadError error_ = ShardLoadError::kOk;  ///< last open() outcome
};

/// Removes every shard file in `dir` and then the directory itself (only
/// files matching the shard naming scheme are touched; a missing directory
/// is a no-op). A file that refuses to go keeps the directory; that is
/// never an error.
void drop_spill_dir(const std::string& dir);

}  // namespace lr90::shard
