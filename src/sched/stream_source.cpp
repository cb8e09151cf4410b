#include "sched/stream_source.hpp"

#include <algorithm>
#include <stdexcept>

#include "sched/reliability.hpp"

namespace pph::sched {

const char* admission_policy_name(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kDrop:
      return "drop";
    case AdmissionPolicy::kBlock:
      return "block";
  }
  return "?";
}

StreamJobSource::StreamJobSource(JobSource& inner, std::vector<double> arrival_seconds,
                                 StreamOptions opts)
    : inner_(inner), trace_(std::move(arrival_seconds)), opts_(opts) {
  while (inner_.ready() > 0) requests_.push_back(inner_.pop());
  if (trace_.size() < requests_.size())
    throw std::invalid_argument(
        "StreamJobSource: arrival trace shorter than the request list");
  trace_.resize(requests_.size());
  if (!std::is_sorted(trace_.begin(), trace_.end()))
    throw std::invalid_argument("StreamJobSource: arrival trace must be non-decreasing");
}

void StreamJobSource::begin() {
  clock_.reset();
  last_queue_event_ = 0.0;
}

void StreamJobSource::note_queue_change(double now) {
  queue_area_ += static_cast<double>(ready_.size()) * (now - last_queue_event_);
  last_queue_event_ = now;
}

void StreamJobSource::observe_depth(double now) {
  if (overload_ != nullptr) overload_->observe(now, ready_.size());
}

void StreamJobSource::admit(JobId id, double now) {
  note_queue_change(now);
  ready_.push_back(id);
  ++service_.admitted;
  service_.max_queue_depth = std::max(service_.max_queue_depth, ready_.size());
  admit_seconds_[id] = now;
  if (admit_hook_) admit_hook_(id, now);
  observe_depth(now);
}

std::size_t StreamJobSource::poll() {
  if (closed_) return 0;
  const double now = clock_.seconds();
  // Everything due crosses from pending to the door...
  while (next_ < requests_.size() && trace_[next_] <= now) {
    door_.push_back(requests_[next_]);
    ++next_;
    ++service_.arrivals;
  }
  // ...and the door admits what the queue bound and the brownout allow
  // (each admit feeds the controller, so shedding can trip mid-drain).
  std::size_t admitted = 0;
  const std::size_t cap = opts_.queue_capacity;
  while (!door_.empty() && (cap == 0 || ready_.size() < cap) &&
         !(overload_ != nullptr && overload_->at_least(BrownoutLevel::kShedding))) {
    admit(door_.front(), now);
    door_.pop_front();
    ++admitted;
  }
  // Brownout level 3 sheds what is left at the door outright -- arrivals
  // were already counted, so the request conservation identity still holds.
  if (!door_.empty() && overload_ != nullptr &&
      overload_->at_least(BrownoutLevel::kShedding)) {
    service_.shed += door_.size();
    brownout_shed_ += door_.size();
    door_.clear();
  }
  // kDrop rejects the overflow outright; kBlock keeps it at the door for a
  // later poll, once dispatch has drained some queue slots.
  if (!door_.empty() && opts_.on_full == AdmissionPolicy::kDrop) {
    service_.dropped += door_.size();
    door_.clear();
  }
  return admitted;
}

void StreamJobSource::close() {
  if (closed_) return;
  closed_ = true;
  service_.shed += (requests_.size() - next_) + door_.size();
  next_ = requests_.size();
  door_.clear();
}

bool StreamJobSource::closed() const {
  return closed_ || (next_ == requests_.size() && door_.empty());
}

double StreamJobSource::seconds_until_next_arrival() const {
  // A request blocked at the door is NOT a timed event: only dispatch can
  // free a queue slot, and dispatch is message-driven -- the serve loop
  // re-polls after every message, so reporting "no timed event" here keeps
  // it from busy-spinning on a full queue.
  if (closed_ || next_ == requests_.size())
    return std::numeric_limits<double>::infinity();
  const double wait = trace_[next_] - clock_.seconds();
  return wait > 0.0 ? wait : 0.0;
}

ServiceStats StreamJobSource::take_service() const {
  const double now = clock_.seconds();
  ServiceStats out = service_;
  const double area =
      queue_area_ + static_cast<double>(ready_.size()) * (now - last_queue_event_);
  out.avg_queue_depth = now > 0.0 ? area / now : 0.0;
  return out;
}

JobId StreamJobSource::pop() {
  const double now = clock_.seconds();
  note_queue_change(now);  // integrate the PRE-change depth
  const JobId id = ready_.front();
  ready_.pop_front();
  observe_depth(now);
  return id;
}

void StreamJobSource::requeue(JobId id) {
  const double now = clock_.seconds();
  note_queue_change(now);
  ready_.push_front(id);
  service_.max_queue_depth = std::max(service_.max_queue_depth, ready_.size());
  observe_depth(now);
}

void StreamJobSource::readmit(JobId id) {
  const double now = clock_.seconds();
  note_queue_change(now);
  ready_.push_back(id);
  service_.max_queue_depth = std::max(service_.max_queue_depth, ready_.size());
  observe_depth(now);
}

bool StreamJobSource::remove_ready(JobId id) {
  const auto it = std::find(ready_.begin(), ready_.end(), id);
  if (it == ready_.end()) return false;
  const double now = clock_.seconds();
  note_queue_change(now);
  ready_.erase(it);
  observe_depth(now);
  return true;
}

bool StreamJobSource::consume(TrackedPath& tp) {
  const bool fresh = inner_.consume(tp);
  const double now = clock_.seconds();
  if (fresh) {
    ++service_.completed;
    const auto it = admit_seconds_.find(tp.index);
    if (it != admit_seconds_.end()) {
      const double sojourn = now - it->second;
      service_.sojourn.add(sojourn);
      if (overload_ != nullptr) overload_->note_sojourn(sojourn);
      admit_seconds_.erase(it);
    }
  }
  // Continuation jobs the inner source just created (the Pieri tree expands
  // inside consume()) are follow-ups of admitted work: promote them past
  // the arrival gate immediately.
  while (inner_.ready() > 0) {
    const JobId id = inner_.pop();
    ++service_.arrivals;
    admit(id, now);
  }
  return fresh;
}

bool StreamJobSource::consume_synthetic(TrackedPath& tp, SyntheticKind kind) {
  const bool fresh = inner_.consume(tp);
  const double now = clock_.seconds();
  if (fresh) {
    if (kind == SyntheticKind::kExpired) {
      ++service_.expired;
    } else {
      ++service_.quarantined;
    }
    // No sojourn sample: the request was never served, and feeding its wait
    // into the latency percentiles would conflate queueing with service.
    admit_seconds_.erase(tp.index);
  }
  while (inner_.ready() > 0) {
    const JobId id = inner_.pop();
    ++service_.arrivals;
    admit(id, now);
  }
  return fresh;
}

}  // namespace pph::sched
