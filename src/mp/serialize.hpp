#pragma once
// Byte-level serialization for message payloads: the in-process runtime
// moves bytes exactly like MPI would, so job and result messages are packed
// and unpacked explicitly rather than sharing pointers.

#include <complex>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace pph::mp {

/// Append-only byte writer.
class Packer {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write(const T& value) {
    const auto* bytes = reinterpret_cast<const std::byte*>(&value);
    buffer_.insert(buffer_.end(), bytes, bytes + sizeof(T));
  }

  void write_string(const std::string& s);

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_vector(const std::vector<T>& v) {
    write(static_cast<std::uint64_t>(v.size()));
    if (v.empty()) return;  // data() may be null for an empty vector
    const auto* bytes = reinterpret_cast<const std::byte*>(v.data());
    buffer_.insert(buffer_.end(), bytes, bytes + v.size() * sizeof(T));
  }

  const std::vector<std::byte>& bytes() const { return buffer_; }
  std::vector<std::byte> take() { return std::move(buffer_); }

 private:
  std::vector<std::byte> buffer_;
};

/// Sequential byte reader; throws std::out_of_range on underrun.
class Unpacker {
 public:
  explicit Unpacker(const std::vector<std::byte>& buffer) : buffer_(buffer) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    T value;
    ensure(sizeof(T));
    std::memcpy(&value, buffer_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string read_string();

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> read_vector() {
    const auto n = read<std::uint64_t>();
    // Check the count before multiplying: a corrupt n * sizeof(T) wraps.
    if (n > (buffer_.size() - pos_) / sizeof(T)) underrun();
    std::vector<T> v(n);
    if (n != 0) std::memcpy(v.data(), buffer_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  bool exhausted() const { return pos_ == buffer_.size(); }

 private:
  /// Throws unless `n` more bytes remain (compares against the remainder,
  /// so a corrupt length cannot wrap the check).
  void ensure(std::uint64_t n) const;
  [[noreturn]] static void underrun();

  const std::vector<std::byte>& buffer_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Work-stealing and session job framing.  These are byte-level payload
// shapes, not protocol -- tags live in sched/job_pool.hpp.  The scheduler
// sessions (sched/session.hpp) move *framed* jobs: an opaque per-source
// payload prefixed with the job id the master uses for ownership
// bookkeeping.
// ---------------------------------------------------------------------------

/// Steal request: ask a busy victim to donate part of its local queue
/// directly to rank `thief` (the victim ships the stolen frames with
/// pack_job_frame_batch, possibly empty -- a refusal).
struct StealRequest {
  int thief = -1;
};
std::vector<std::byte> pack_steal_request(const StealRequest& req);
StealRequest unpack_steal_request(const std::vector<std::byte>& payload);

struct JobFrame {
  std::uint64_t id = 0;
  /// Per-dispatch control bits, opaque at this layer (the scheduler's
  /// kFrame* constants live in sched/session.hpp): cooperative-cancel
  /// enablement and brownout degradation ride the frame so a slave needs
  /// no side channel to know how to run the job (DESIGN.md section 13).
  std::uint32_t flags = 0;
  std::vector<std::byte> payload;  // source-defined job description
};
std::vector<std::byte> pack_job_frame(const JobFrame& frame);
JobFrame unpack_job_frame(const std::vector<std::byte>& payload);

/// A batch of framed jobs (a master batch hand-out, or the bulk half of a
/// session steal reply, which must carry payloads -- tree-source jobs are
/// not reconstructible from an index).
std::vector<std::byte> pack_job_frame_batch(const std::vector<JobFrame>& frames);
std::vector<JobFrame> unpack_job_frame_batch(const std::vector<std::byte>& payload);

}  // namespace pph::mp
