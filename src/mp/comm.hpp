#pragma once
// In-process message-passing runtime: ranks are threads, communication is
// explicit tagged messages.
//
// The paper's parallel code is C + MPI on a cluster; this runtime keeps the
// same programming model (rank/size, blocking and immediate sends, blocking
// and timed receive, a barrier) so the schedulers in src/sched read like the
// paper's pseudo-code and their protocols are tested for correctness on any
// machine.  Messaging is any-to-any: slave-to-slave traffic (the batch
// policy's steal replies, see serialize.hpp) rides the same per-rank
// mailboxes as master dispatch.  See DESIGN.md section 1 for the
// substitution rationale.

#include <functional>
#include <memory>

#include "mp/mailbox.hpp"
#include "mp/serialize.hpp"

namespace pph::mp {

class FaultInjector;
class World;

/// Per-rank communicator handle passed to each rank's main function.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Blocking send (completes immediately: delivery is a queue push, which
  /// is also why isend and send coincide in this runtime).
  void send(int dest, int tag, std::vector<std::byte> payload) const;
  void send(int dest, int tag, const Packer& packer) const;

  /// Immediate send, MPI_Isend-style.  Provided for API fidelity with the
  /// paper's non-blocking overlap of communication and computation.
  void isend(int dest, int tag, std::vector<std::byte> payload) const {
    send(dest, tag, std::move(payload));
  }

  /// Blocking receive with optional source/tag filters.
  Message recv(int source = kAnySource, int tag = kAnyTag) const;
  std::optional<Message> try_recv(int source = kAnySource, int tag = kAnyTag) const;
  /// Timed receive: block up to `seconds` for a matching message (nullopt
  /// on timeout).  MPI would spell this probe-with-timeout; the serve loop
  /// uses it to sleep until a result lands or the next arrival is due.
  std::optional<Message> recv_for(double seconds, int source = kAnySource,
                                  int tag = kAnyTag) const;

  /// All ranks must call; returns when every rank has arrived.
  void barrier() const;

 private:
  friend class World;
  Comm(World* world, int rank) : world_(world), rank_(rank) {}
  World* world_;
  int rank_;
};

/// A communicator world running `size` ranks, each executing `main` on its
/// own thread.  The constructor-run-join lifecycle is wrapped in run().
class World {
 public:
  using RankMain = std::function<void(Comm&)>;

  /// Spawn `size` ranks, run `main` on each, join all (exceptions from rank
  /// functions are rethrown on the caller thread, first rank wins).  When a
  /// rank's main throws, the world is poisoned: sibling ranks blocked in
  /// recv/recv_for/barrier unblock with WorldAborted instead of deadlocking,
  /// so the join always completes.
  static void run(int size, const RankMain& main);
  /// As above with a fault injector (mp/fault.hpp): Comm::send consults it
  /// for armed per-rank send delays; the rank loops consult it at job
  /// boundaries.  nullptr behaves exactly like the two-argument overload.
  static void run(int size, const RankMain& main, FaultInjector* fault);

 private:
  friend class Comm;
  explicit World(int size);

  /// Wake every blocked rank: poison all mailboxes and the barrier.
  void poison();

  int size_ = 0;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  FaultInjector* fault_ = nullptr;

  // Barrier state.
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;
  bool barrier_poisoned_ = false;
};

}  // namespace pph::mp
