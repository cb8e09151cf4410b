#pragma once
// StreamJobSource: jobs that arrive over time (DESIGN.md section 10).
//
// A streaming decorator over any JobSource.  At construction it drains the
// inner source's ready queue into a pending request list and pairs request
// i with the i-th entry of a modeled arrival trace (sched/arrival.hpp).
// Until poll() observes a request's arrival time as due, the session cannot
// see it; once due it enters the bounded admission queue -- or hits
// backpressure (StreamOptions: drop the request, or block it at the door
// until the queue drains).  Inner sources that EXPAND (the Pieri tree
// creates continuation jobs inside consume()) stay streamable: freshly
// created jobs are internal continuations of admitted work and are promoted
// into the ready queue immediately, bypassing the arrival gate.
//
// The master-side serve loop (Session::serve) drives begin()/poll()/close()
// and reads the queueing metrics out of take_service().  All master-side
// calls are single-threaded; the slave-side JobSource methods delegate to
// the inner source and stay thread-safe iff the inner source's are.

#include <functional>
#include <limits>
#include <unordered_map>

#include "sched/api.hpp"
#include "sched/session.hpp"
#include "util/timer.hpp"

namespace pph::sched {

class OverloadController;

class StreamJobSource final : public JobSource {
 public:
  /// Wrap `inner`, whose CURRENT ready jobs become the request list:
  /// request i arrives at arrival_seconds[i] (absolute seconds from
  /// begin(); must be non-decreasing and cover every request -- extra
  /// trace entries are ignored).  The inner source must outlive this.
  StreamJobSource(JobSource& inner, std::vector<double> arrival_seconds,
                  StreamOptions opts = {});

  // ---- serve-loop interface (master side, rank 0 only) ----

  /// Start (or restart) the service clock: arrivals are measured from here.
  void begin();
  /// Admit every request whose arrival time is due, subject to the
  /// admission queue bound (kDrop rejects the overflow, kBlock holds it at
  /// the door for a later poll).  Returns how many jobs were admitted.
  std::size_t poll();
  /// Graceful-shutdown gate: requests that have not arrived (or are stuck
  /// at the door) are shed; nothing new will arrive.  Admitted and
  /// in-flight jobs are unaffected -- the serve loop drains them.
  void close();
  /// No further arrivals possible: close() was called or the whole trace
  /// has been admitted.
  bool closed() const;
  /// Seconds until the next pending arrival is due (0 if one is already
  /// due, +inf if none remain -- a request blocked at the door is waiting
  /// on dispatch, not on the clock, and does not count).
  double seconds_until_next_arrival() const;
  /// Snapshot the queueing metrics, finalizing the time-weighted average
  /// queue depth up to now.
  ServiceStats take_service() const;

  // ---- reliability-layer hooks (DESIGN.md section 13) ----

  /// Attach the brownout controller: every queue-depth change (admit,
  /// dispatch pop, requeue, readmit) is reported through observe(), and at
  /// BrownoutLevel::kShedding arrivals are shed at the door instead of
  /// admitted.  The controller must outlive the attachment; nullptr
  /// detaches.
  void set_overload(OverloadController* controller) { overload_ = controller; }

  /// Admission hook, called with (id, service-clock seconds) at each FIRST
  /// admission -- the reliability layer stamps deadlines here.  An empty
  /// function detaches it.
  void set_admit_hook(std::function<void(JobId, double)> hook) {
    admit_hook_ = std::move(hook);
  }

  /// The service clock (seconds since begin()); deadlines and retry
  /// backoffs are measured on this clock.
  double now() const { return clock_.seconds(); }

  /// Arrivals shed at the door by brownout level 3 (a subset of
  /// ServiceStats::shed).
  std::size_t brownout_shed() const { return brownout_shed_; }

  /// Re-admit a failed request once its retry backoff elapses: back of the
  /// ready queue, but NO admitted/arrivals counters (its first admission
  /// counted) and the original admit stamp is kept, so the final sojourn
  /// sample spans every attempt.
  void readmit(JobId id);

  /// Drop an in-queue job whose deadline expired before dispatch.  True if
  /// the id was in the ready queue.
  bool remove_ready(JobId id);

  /// How a master-synthesized terminal record is accounted.
  enum class SyntheticKind { kExpired, kQuarantined };

  /// Route a synthesized terminal record (deadline expiry, quarantine)
  /// through the inner source WITHOUT counting a completion: the request
  /// lands in its own ServiceStats bucket, takes no sojourn sample, and any
  /// continuations the inner source creates inside consume() are promoted
  /// past the arrival gate exactly as in consume().
  bool consume_synthetic(TrackedPath& tp, SyntheticKind kind);

  // ---- JobSource interface (what the session sees) ----

  std::size_t ready() const override { return ready_.size(); }
  JobId pop() override;
  void requeue(JobId id) override;
  std::vector<std::byte> job_payload(JobId id) const override {
    return inner_.job_payload(id);
  }
  bool consume(TrackedPath& tp) override;
  /// Streamed pools are never "fixed": the static policy cannot pre-assign
  /// jobs that have not arrived yet.
  std::optional<std::size_t> fixed_total() const override { return std::nullopt; }

  homotopy::TrackerWorkspace make_workspace() const override {
    return inner_.make_workspace();
  }
  PathResult execute(const std::vector<std::byte>& payload,
                     homotopy::TrackerWorkspace& ws) const override {
    return inner_.execute(payload, ws);
  }
  PathResult execute(const std::vector<std::byte>& payload, homotopy::TrackerWorkspace& ws,
                     const ExecContext& exec) const override {
    return inner_.execute(payload, ws, exec);
  }

 private:
  void admit(JobId id, double now);
  void note_queue_change(double now);
  void observe_depth(double now);

  JobSource& inner_;
  std::vector<JobId> requests_;       // request i = requests_[i]
  std::vector<double> trace_;         // arrives at trace_[i]
  std::size_t next_ = 0;              // first request not yet arrived
  std::deque<JobId> door_;            // arrived, blocked by a full queue
  std::deque<JobId> ready_;           // admitted, awaiting dispatch
  StreamOptions opts_;
  bool closed_ = false;

  util::WallTimer clock_;
  std::function<void(JobId, double)> admit_hook_;
  OverloadController* overload_ = nullptr;
  std::size_t brownout_shed_ = 0;
  std::unordered_map<JobId, double> admit_seconds_;

  // Queueing metrics (ServiceStats), accumulated as events happen.
  ServiceStats service_;
  double queue_area_ = 0.0;  // integral of ready-queue depth over time
  double last_queue_event_ = 0.0;
};

}  // namespace pph::sched
