#pragma once
// Unified scheduler sessions (DESIGN.md section 7).  The paper's two
// parallel workloads -- a fixed list of start solutions (section II) and the
// dynamically expanding Pieri tree (section III-D) -- and every dispatch
// protocol built for them compose here from three orthogonal axes:
//
//   JobSource  -- where jobs come from: a fixed pool (VectorJobSource) or a
//                 master-side expansion that creates jobs from results
//                 (PieriTreeJobSource in sched/pieri_scheduler.hpp);
//   Policy     -- how jobs reach slaves: per-job FCFS dispatch, static
//                 pre-assignment, or guided batches with master-brokered
//                 work stealing -- one shared master loop, one set of
//                 message tags (job_pool.hpp), one death-requeue
//                 implementation;
//   ResultSink -- where finished jobs go: an in-memory report
//                 (InMemoryReportSink), a streaming on-disk store
//                 (JsonlStoreSink in sched/result_store.hpp), or several at
//                 once (tee(...)).
//
// The option/stat/policy types a session is composed from live in the
// front-door header sched/api.hpp.  Scheduling never changes the numerics:
// for a given source, every policy produces bit-identical result sets.
//
// Robustness (DESIGN.md section 11): with SessionOptions::supervisor
// enabled, the master tracks slave liveness via heartbeats (kTagHeartbeat)
// and per-job EWMA service times, declares silent slaves suspect -> dead
// and re-queues their work, speculatively re-dispatches straggling jobs
// (first result wins), and quarantines jobs that repeatedly coincide with
// worker death.  Faults themselves are injected deterministically through
// SessionOptions::fault_plan (mp/fault.hpp).

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_set>

#include "sched/api.hpp"
#include "sched/job_pool.hpp"

namespace pph::sched {

/// Master-side job identity: how the session's ownership map, the result
/// store, and death re-queuing name a job.  For a VectorJobSource the id IS
/// the path index; tree sources hand out sequential ids.
using JobId = std::uint64_t;

// ---------------------------------------------------------------------------
// ResultSink: where finished jobs go (rank 0 only, master arrival order).
// ---------------------------------------------------------------------------

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  /// One finished job.  Called on the master in arrival order (NOT sorted
  /// by index); sinks that need order sort at assembly time.
  virtual void accept(const TrackedPath& tp) = 0;
  /// Called exactly once when the session ends (flush point for stores).
  virtual void finish() {}
};

/// Collects every record in memory and assembles the ParallelRunReport.
class InMemoryReportSink final : public ResultSink {
 public:
  void accept(const TrackedPath& tp) override { paths_.push_back(tp); }
  std::size_t count() const { return paths_.size(); }
  /// The ParallelRunReport: paths sorted + tallied, stats folded in.
  /// One-shot: moves the collected records out of the sink (a second copy
  /// of a million-path result set has no business existing on the master).
  ParallelRunReport report(const SessionStats& stats);

 private:
  std::vector<TrackedPath> paths_;
};

/// Drops every record: for sources that accumulate what they need inside
/// consume() (the Pieri tree keeps only live instances -- the paper's
/// section III-C memory argument), buffering per-edge records on the
/// master would defeat the point.
class DiscardSink final : public ResultSink {
 public:
  void accept(const TrackedPath&) override {}
};

/// Fan a session's results into any number of sinks (e.g. report +
/// on-disk store).  Compose through the variadic
/// tee(...) factory below; the referenced sinks must outlive the fan-out.
class FanoutSink final : public ResultSink {
 public:
  explicit FanoutSink(std::vector<ResultSink*> sinks) : sinks_(std::move(sinks)) {}
  void accept(const TrackedPath& tp) override {
    for (ResultSink* s : sinks_) s->accept(tp);
  }
  void finish() override {
    for (ResultSink* s : sinks_) s->finish();
  }

 private:
  std::vector<ResultSink*> sinks_;
};

/// tee(report, store, ...): one sink that forwards to all of its arguments
/// in order.  Replaces the old two-arm TeeSink constructor.
template <typename... Sinks>
FanoutSink tee(Sinks&... sinks) {
  return FanoutSink({static_cast<ResultSink*>(&sinks)...});
}

// ---------------------------------------------------------------------------
// JobSource: where jobs come from and how a slave executes one.
// ---------------------------------------------------------------------------

/// Scheduler-level bits carried in mp::JobFrame::flags (DESIGN.md section
/// 13).  The master sets them at dispatch; slaves translate them into an
/// ExecContext.  Numerics are untouched when no flag is set.
inline constexpr std::uint32_t kFrameCancellable = 1u << 0;  // honor kTagCancel
inline constexpr std::uint32_t kFrameDegraded = 1u << 1;     // brownout: no endgame

/// Per-dispatch execution context a slave passes into the source's 3-arg
/// execute().  `cancelled` is empty unless the frame was cancellable; when
/// set, the source polls it once per tracker step (TrackerOptions::
/// cancel_poll) and stops with PathStatus::kCancelled within one step.
struct ExecContext {
  std::function<bool()> cancelled;
  bool degraded = false;  // brownout level >= kNoEndgame at dispatch time
};

class JobSource {
 public:
  virtual ~JobSource() = default;

  // ---- master side (rank 0 only; never called concurrently) ----

  /// Jobs dispatchable right now.  For tree sources this can grow when
  /// consume() turns a result into new jobs.
  virtual std::size_t ready() const = 0;
  /// Pop the next ready job.  Precondition: ready() > 0.
  virtual JobId pop() = 0;
  /// Return a job to the FRONT of the ready queue (death re-queue).  The
  /// source must retain enough state to re-issue job_payload(id) for any
  /// popped-but-unconsumed job.
  virtual void requeue(JobId id) = 0;
  /// The job description a slave needs to execute `id`.
  virtual std::vector<std::byte> job_payload(JobId id) const = 0;
  /// Consume a finished job on the master.  May create new ready jobs (the
  /// session wakes parked slaves afterwards).  Returns false for a stale
  /// result the sink must not see (e.g. a superseded Pieri retry attempt).
  /// The record is mutable so sources can stamp master-side provenance
  /// (PieriTreeJobSource sets tp.level) before the sink sees it.
  virtual bool consume(TrackedPath& tp) = 0;
  /// Job count of a fixed pool, or nullopt for dynamically expanding
  /// sources.  Static pre-assignment requires a fixed pool.
  virtual std::optional<std::size_t> fixed_total() const { return std::nullopt; }

  // ---- slave side (called concurrently from rank threads: must touch
  // only read-only shared state plus the caller-owned workspace; for the
  // static policy job_payload(id) must be thread-safe too) ----

  virtual homotopy::TrackerWorkspace make_workspace() const = 0;
  virtual PathResult execute(const std::vector<std::byte>& payload,
                             homotopy::TrackerWorkspace& ws) const = 0;
  /// Context-aware variant the slave loops call: sources that can honor
  /// cancellation/degradation override this; the default ignores the
  /// context, so existing sources keep their exact behavior.
  virtual PathResult execute(const std::vector<std::byte>& payload,
                             homotopy::TrackerWorkspace& ws, const ExecContext&) const {
    return execute(payload, ws);
  }
};

/// The paper's section-II workload: a fixed pool of start solutions,
/// replicated read-only on every rank.  JobId == path index.
class VectorJobSource final : public JobSource {
 public:
  explicit VectorJobSource(const PathWorkload& workload);

  /// Resume support: drop jobs a previous session already completed.
  /// Returns how many were skipped.
  std::size_t skip_completed(const std::unordered_set<JobId>& done);

  std::size_t ready() const override { return ready_.size(); }
  JobId pop() override;
  void requeue(JobId id) override { ready_.push_front(id); }
  std::vector<std::byte> job_payload(JobId id) const override;
  bool consume(TrackedPath&) override { return true; }
  std::optional<std::size_t> fixed_total() const override { return workload_->size(); }

  homotopy::TrackerWorkspace make_workspace() const override;
  PathResult execute(const std::vector<std::byte>& payload,
                     homotopy::TrackerWorkspace& ws) const override;
  /// Cancellable/degraded variant (DESIGN.md section 13): with a default
  /// context it delegates to the 2-arg overload (bit-identity preserved);
  /// otherwise it tracks under a copy of the workload's TrackerOptions with
  /// cancel_poll installed and, when degraded, endgame + dd-refine off.
  PathResult execute(const std::vector<std::byte>& payload, homotopy::TrackerWorkspace& ws,
                     const ExecContext& exec) const override;

 private:
  const PathWorkload* workload_;
  std::deque<JobId> ready_;
};

// ---------------------------------------------------------------------------
// Session: one run loop over (source, policy, sink).  Options and stats
// live in sched/api.hpp (the front-door header).
// ---------------------------------------------------------------------------

class Session {
 public:
  Session(JobSource& source, ResultSink& sink, SessionOptions opts = {});
  /// Run on `ranks` ranks.  FCFS/BatchSteal need >= 2 (rank 0 = master);
  /// static runs on >= 1 (every rank tracks its share).
  SessionStats run(int ranks);
  /// Long-lived solve service (DESIGN.md section 10): the source must be a
  /// StreamJobSource (sched/stream_source.hpp).  Admits jobs as their
  /// modeled arrival times come due, dispatches under the session policy,
  /// and drains in-flight work on shutdown (deadline via
  /// SessionOptions::serve_deadline_seconds, or stream exhaustion).  The
  /// returned stats carry the queueing metrics in .service.  FCFS and
  /// BatchSteal only; needs >= 2 ranks.
  SessionStats serve(int ranks);

 private:
  JobSource& source_;
  ResultSink& sink_;
  SessionOptions opts_;
};

/// Facade for the common composition: track a PathWorkload under
/// opts.policy, collecting the ParallelRunReport.
ParallelRunReport run_paths(const PathWorkload& workload, int ranks,
                            const SessionOptions& opts = {});

}  // namespace pph::sched
