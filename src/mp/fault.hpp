#pragma once
// Deterministic fault injection for the in-process message-passing runtime.
//
// The paper's target environment is a cluster where nodes die without
// warning, hang mid-computation, or simply run slow; a supervision layer
// (DESIGN.md section 11) is only trustworthy if those failures can be
// reproduced on demand.  A FaultPlan is a seeded, declarative list of
// fault actions -- kill rank 2 after 3 jobs, hang rank 1 on job 17, make
// rank 3 a 50 ms straggler -- compiled into a FaultInjector that the rank
// loops consult at job boundaries and Comm::send consults per message.
// The same plan replays bit-identically on every run, so chaos tests can
// assert exact recovery behaviour instead of hoping a race shows up.
//
// This is the single fault source of the runtime: sessions take it as
// SessionOptions::fault_plan (ParallelPieriOptions::fault_plan for run_pieri).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace pph::mp {

/// Target "whichever rank executes the trigger job" (poison-job modeling);
/// only valid together with FaultAction::on_job.
inline constexpr int kAnyFaultRank = -1;

enum class FaultKind : int {
  /// The rank's thread returns without sending anything -- no kTagDead, no
  /// result, no heartbeat.  Only a supervisor notices.
  kDieSilently = 0,
  /// The rank announces its death (kTagDead) before returning: a
  /// cooperative death the master handles without supervision.
  kDieAnnounced = 1,
  /// The rank stops working and sending (not even heartbeats) but its
  /// thread stays parked on the mailbox so the world remains joinable;
  /// only the shutdown/abort broadcast releases it.
  kHang = 2,
  /// The rank sleeps `seconds` before every job from the trigger onward: a
  /// persistent straggler.
  kStraggle = 3,
  /// Every message the rank sends from the trigger onward is delayed by
  /// `seconds` (modeled in Comm::send as a pre-send sleep).
  kDelaySends = 4,
};

/// True for kinds that end the rank's participation without telling anyone.
inline constexpr bool fault_is_uncooperative(FaultKind k) {
  return k == FaultKind::kDieSilently || k == FaultKind::kHang;
}

/// True for kinds after which the rank does no further work.
inline constexpr bool fault_is_terminal(FaultKind k) {
  return k == FaultKind::kDieSilently || k == FaultKind::kDieAnnounced ||
         k == FaultKind::kHang;
}

struct FaultAction {
  int rank = kAnyFaultRank;
  FaultKind kind = FaultKind::kDieSilently;
  /// Fires at the first job boundary where the rank has completed at least
  /// this many jobs (ignored when on_job is set).
  std::size_t after_jobs = 0;
  /// Alternative trigger: fires when the rank is about to execute this job
  /// id.  Required for rank == kAnyFaultRank.
  std::optional<std::uint64_t> on_job;
  /// Magnitude for kStraggle / kDelaySends.
  double seconds = 0.0;
};

/// Knobs for FaultPlan::random -- how much chaos a seeded plan may contain.
struct ChaosOptions {
  /// Terminal faults (silent deaths + hangs); capped so at least one slave
  /// always survives.
  std::size_t max_terminal = 1;
  std::size_t max_stragglers = 1;
  std::size_t max_delayed = 1;
  /// Triggers are drawn uniformly from [0, max_jobs_before_fault].
  std::size_t max_jobs_before_fault = 8;
  double straggle_min_seconds = 0.005;
  double straggle_max_seconds = 0.02;
  double send_delay_seconds = 0.0005;
};

/// A declarative, replayable list of fault actions.  Fluent adders mirror
/// the SessionOptions style; random() draws a bounded plan from a seed.
class FaultPlan {
 public:
  FaultPlan& add(FaultAction a) {
    actions_.push_back(a);
    return *this;
  }
  FaultPlan& kill(int rank, std::size_t after_jobs) {
    return add({rank, FaultKind::kDieSilently, after_jobs, std::nullopt, 0.0});
  }
  FaultPlan& kill_announced(int rank, std::size_t after_jobs) {
    return add({rank, FaultKind::kDieAnnounced, after_jobs, std::nullopt, 0.0});
  }
  FaultPlan& hang(int rank, std::size_t after_jobs) {
    return add({rank, FaultKind::kHang, after_jobs, std::nullopt, 0.0});
  }
  FaultPlan& straggle(int rank, std::size_t after_jobs, double seconds) {
    return add({rank, FaultKind::kStraggle, after_jobs, std::nullopt, seconds});
  }
  FaultPlan& delay_sends(int rank, std::size_t after_jobs, double seconds) {
    return add({rank, FaultKind::kDelaySends, after_jobs, std::nullopt, seconds});
  }
  /// Poison job: whichever rank starts `job_id` suffers `kind` (so the job
  /// repeatedly coincides with worker death until quarantined).
  FaultPlan& poison(std::uint64_t job_id, FaultKind kind = FaultKind::kDieSilently) {
    return add({kAnyFaultRank, kind, 0, job_id, 0.0});
  }

  /// Seeded random plan over a world of `ranks` ranks (rank 0 is never
  /// targeted).  Deterministic: the same (seed, ranks, opts) always yields
  /// the same plan.  Terminal faults hit distinct ranks and always leave at
  /// least one slave untouched.
  static FaultPlan random(std::uint64_t seed, int ranks, const ChaosOptions& opts = {});

  const std::vector<FaultAction>& actions() const { return actions_; }
  bool empty() const { return actions_.empty(); }

 private:
  std::vector<FaultAction> actions_;
};

/// Compiled per-rank fault state.  Each rank's entry is touched only from
/// that rank's own thread (job boundaries and its own sends), so no
/// locking is needed.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, int ranks);

  /// Consult at a job boundary: `completed` jobs done so far on `rank`,
  /// about to execute `job_id`.  Arms straggle/send-delay state that is due
  /// and returns the terminal fault to act on, if any.
  std::optional<FaultKind> on_job_start(int rank, std::size_t completed,
                                        std::uint64_t job_id);

  /// Armed straggler sleep for this rank (0 when healthy).
  double straggle_seconds(int rank) const;
  /// Armed per-message send delay for this rank (0 when healthy).
  double send_delay(int rank) const;

  bool active() const { return active_; }

  /// Sleep helper shared by the injection sites (no-op for seconds <= 0).
  static void sleep_for(double seconds);

 private:
  struct RankState {
    std::vector<FaultAction> pending;
    double straggle = 0.0;
    double send_delay = 0.0;
  };
  std::vector<RankState> state_;
  std::vector<FaultAction> any_rank_;  // on_job-triggered, any executing rank
  bool active_ = false;
};

}  // namespace pph::mp
