#pragma once
// Streaming on-disk result store for scheduler sessions (DESIGN.md
// section 7): a JSONL file with one TrackedPath record per line, flushed
// per record so a killed run loses at most the line being written, plus an
// index/offset footer appended on clean shutdown.  Doubles are framed as
// their IEEE-754 bits in hex (store/record_codec.hpp), because resumed
// sessions must reproduce results bit for bit and diverged paths
// legitimately carry NaN endpoints.
//
// File layout (the line formats live in store/record_codec.hpp, the ONE
// codec shared with the read side):
//   {"pph_result_store":{"version":3,...}}                  header
//   {"i":...,"w":...,"sec":"<hex>", ... ,"x":"<hex...>"}    one per record
//   ...
//   {"footer":{"records":N,...,"offsets":[[id,byte],...]}}  clean close only
//
// Resume protocol: load_result_store parses records up to the footer (clean
// close) or up to the first truncated/corrupt line (killed run; the partial
// tail is dropped and its jobs simply re-track -- tracking is deterministic,
// so the resumed store is identical).  A resuming JsonlStoreSink cuts the
// footer/tail and appends; the session skips the restored indices and only
// tracks the remainder.  Resuming keeps the on-disk format version (v2
// stores stay v2 -- mixing record schemas in one file would corrupt it);
// a v1 store restarts fresh, as it always has.
//
// This header is the WRITE side plus the legacy whole-store loader.  For
// queries, prefer store/store_reader.hpp: mmapped, footer-indexed O(1)
// random access, lazy per-record decode.

#include <cstdio>
#include <string>
#include <unordered_set>
#include <utility>

#include "sched/session.hpp"
#include "store/record_codec.hpp"

namespace pph::sched {

/// One parsed store file.
struct StoreLoad {
  std::vector<TrackedPath> records;  // file order; first occurrence of an id wins
  std::vector<std::pair<JobId, std::uint64_t>> offsets;  // byte offset per record
  std::uint64_t append_offset = 0;  // where a resuming writer continues
  int version = 0;                  // header format version (0: none readable)
  store::StoreMeta meta;            // writer metadata (v3 headers only)
  bool had_footer = false;          // clean close
  bool truncated = false;           // partial/corrupt tail dropped
};

/// Render / parse one record line (no trailing newline) in the current
/// format version.  Thin wrappers over store/record_codec.hpp, kept for the
/// round-trip tests; throw std::invalid_argument on malformed input.
std::string store_record_line(const TrackedPath& tp);
TrackedPath parse_store_record(const std::string& line);

/// Parse a store file into memory.  A missing file loads as empty and
/// clean; a file whose header is unreadable loads as empty with truncated
/// set (the resuming writer starts over).  Thin wrapper over
/// store::StoreReader -- there is exactly one parser.
StoreLoad load_result_store(const std::string& path);

/// ResultSink streaming every accepted record to a JSONL store.
class JsonlStoreSink final : public ResultSink {
 public:
  /// Open `path`.  resume=true loads whatever the store already holds
  /// (restored()/restored_ids()), cuts any footer or corrupt tail, and
  /// appends in the store's own format version; resume=false starts a
  /// fresh store in the current version.  `meta` is the writer provenance
  /// stamped into a fresh header (ignored when resuming -- the on-disk
  /// header stays).
  explicit JsonlStoreSink(std::string path, bool resume = false,
                          store::StoreMeta meta = {});
  ~JsonlStoreSink() override;
  JsonlStoreSink(const JsonlStoreSink&) = delete;
  JsonlStoreSink& operator=(const JsonlStoreSink&) = delete;

  void accept(const TrackedPath& tp) override;  // append + flush (checkpoint)
  void finish() override;                       // footer + close

  /// Format version of the records this sink writes (the on-disk version
  /// when resuming, store::kFormatVersion for a fresh store).
  int version() const { return version_; }

  const std::vector<TrackedPath>& restored() const { return restored_; }
  std::unordered_set<JobId> restored_ids() const;
  /// Records on disk: restored plus appended this session.
  std::size_t stored_count() const { return restored_.size() + appended_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  int version_ = store::kFormatVersion;
  std::vector<TrackedPath> restored_;
  std::vector<std::pair<JobId, std::uint64_t>> offsets_;
  std::uint64_t offset_ = 0;
  std::size_t appended_ = 0;
  bool finished_ = false;
};

/// Facade: track `workload` through a session streaming to the store at
/// `store_path`, resuming from whatever the store already holds -- a
/// restarted session loads the completed indices and only tracks the
/// remainder.  The report contains restored and new paths alike, so a
/// killed-then-resumed run reports identically to an uninterrupted one.
struct StoreRunResult {
  ParallelRunReport report;
  SessionStats stats;
  std::size_t restored = 0;  // records loaded from a previous session
  bool completed = false;    // the store now holds every workload path
};
StoreRunResult run_with_store(const PathWorkload& workload, int ranks,
                              const std::string& store_path,
                              const SessionOptions& opts = {});

}  // namespace pph::sched
