// Tests for the solve service (DESIGN.md section 10): arrival-process
// determinism, streamed-vs-drained bit-identity (admission timing must
// never change the numerics), backpressure (drop and block), graceful
// deadline shutdown with zero loss, runtime-vs-simulator agreement on a
// fixed trace, the tee(...) sink combinator, and the fluent SessionOptions
// front door.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "sched/arrival.hpp"
#include "sched/session.hpp"
#include "sched/stream_source.hpp"
#include "scheduler_fixture.hpp"
#include "simcluster/service_sim.hpp"

namespace {

namespace sched = pph::sched;
namespace simcluster = pph::simcluster;
using pph::testing::SchedulerTest;
using pph::util::Prng;

// ---- arrival processes ------------------------------------------------------

TEST(ArrivalProcess, PoissonTraceIsSeedDeterministic) {
  sched::PoissonArrivals a(100.0), b(100.0);
  Prng ra(7), rb(7), rc(8);
  const auto ta = sched::arrival_times(a, ra, 50);
  const auto tb = sched::arrival_times(b, rb, 50);
  EXPECT_EQ(ta, tb);  // same seed -> bitwise-equal trace
  sched::PoissonArrivals c(100.0);
  const auto tc = sched::arrival_times(c, rc, 50);
  EXPECT_NE(ta, tc);
  EXPECT_TRUE(std::is_sorted(ta.begin(), ta.end()));
}

TEST(ArrivalProcess, PoissonMeanInterarrivalNearInverseRate) {
  sched::PoissonArrivals p(200.0);
  Prng rng(11);
  double sum = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) sum += p.next_interarrival(rng);
  EXPECT_NEAR(sum / n, 1.0 / 200.0, 0.001);  // CLT: ~4 sigma margin
}

TEST(ArrivalProcess, BernoulliGapsAreSlotMultiples) {
  const double slot = 0.001;
  sched::BernoulliArrivals b(0.25, slot);
  EXPECT_NEAR(b.rate(), 250.0, 1e-9);
  Prng rng(12);
  double sum = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const double g = b.next_interarrival(rng);
    EXPECT_GE(g, slot * 0.999);
    EXPECT_NEAR(std::round(g / slot) * slot, g, 1e-12) << "gap not a slot multiple";
    sum += g;
  }
  // Geometric(p) mean slot count = 1/p = 4 slots.
  EXPECT_NEAR(sum / n, slot / 0.25, 4e-4);
}

TEST(ArrivalProcess, OnOffLongRunRateBetweenSilenceAndBurst) {
  sched::OnOffArrivals oo(/*burst_rate=*/1000.0, /*mean_on=*/0.01, /*mean_off=*/0.03);
  EXPECT_NEAR(oo.rate(), 250.0, 1e-9);
  Prng rng(13);
  const auto t = sched::arrival_times(oo, rng, 3000);
  const double measured = 3000.0 / t.back();
  EXPECT_GT(measured, 100.0);   // far below the burst rate (off phases)...
  EXPECT_LT(measured, 1000.0);  // ...but clearly not silent
  EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
}

TEST(ArrivalProcess, RejectsBadParameters) {
  EXPECT_THROW(sched::PoissonArrivals(0.0), std::invalid_argument);
  EXPECT_THROW(sched::BernoulliArrivals(0.0, 0.001), std::invalid_argument);
  EXPECT_THROW(sched::BernoulliArrivals(1.5, 0.001), std::invalid_argument);
  EXPECT_THROW(sched::OnOffArrivals(100.0, 0.0, 0.01), std::invalid_argument);
}

// ---- percentile accumulator (util/stats surface the service relies on) ------

TEST(PercentileAccumulator, PercentilesAndMerge) {
  pph::util::PercentileAccumulator acc;
  for (int i = 100; i >= 1; --i) acc.add(static_cast<double>(i));
  EXPECT_EQ(acc.count(), 100u);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 100.0);
  EXPECT_NEAR(acc.p50(), 50.5, 1e-9);
  EXPECT_NEAR(acc.p99(), 99.01, 1e-9);
  pph::util::PercentileAccumulator other;
  other.add(1000.0);
  acc.merge(other);
  EXPECT_EQ(acc.count(), 101u);
  EXPECT_DOUBLE_EQ(acc.max(), 1000.0);
  pph::util::PercentileAccumulator empty;
  EXPECT_EQ(empty.percentile(50.0), 0.0);
}

// ---- streamed == drained bit-identity ---------------------------------------

TEST_F(SchedulerTest, StreamedFcfsServeMatchesDrainedRun) {
  // A fast Poisson trace: arrivals interleave with tracking, yet the
  // result set must be bit-identical to a batch drain of the same pool.
  sched::PoissonArrivals proc(4000.0);
  Prng rng(21);
  const auto trace = sched::arrival_times(proc, rng, starts_.size());

  sched::VectorJobSource inner(workload_);
  sched::StreamJobSource stream(inner, trace);
  sched::InMemoryReportSink sink;
  sched::Session session(stream, sink, sched::SessionOptions());
  const auto stats = session.serve(4);

  EXPECT_EQ(stats.service.arrivals, starts_.size());
  EXPECT_EQ(stats.service.admitted, starts_.size());
  EXPECT_EQ(stats.service.dropped, 0u);
  EXPECT_TRUE(stats.service.drained());
  // One admit->accept sojourn sample per request.
  EXPECT_EQ(stats.service.sojourn.count(), starts_.size());
  EXPECT_GT(stats.service.sojourn.p50(), 0.0);
  EXPECT_LE(stats.service.sojourn.p50(), stats.service.sojourn.p99());
  const auto streamed = sink.report(stats);
  const auto drained = sched::run_paths(workload_, 4);
  expect_identical_results(streamed, drained);
}

TEST_F(SchedulerTest, StreamedBatchStealServeMatchesDrainedRun) {
  sched::PoissonArrivals proc(4000.0);
  Prng rng(22);
  const auto trace = sched::arrival_times(proc, rng, starts_.size());

  sched::VectorJobSource inner(workload_);
  sched::StreamJobSource stream(inner, trace);
  sched::InMemoryReportSink sink;
  sched::Session session(
      stream, sink, sched::SessionOptions().with_policy(sched::Policy::kBatchSteal));
  const auto stats = session.serve(4);

  EXPECT_TRUE(stats.service.drained());
  const auto streamed = sink.report(stats);
  const auto drained = sched::run_paths(
      workload_, 4, sched::SessionOptions().with_policy(sched::Policy::kBatchSteal));
  expect_identical_results(streamed, drained);
}

// ---- backpressure -----------------------------------------------------------

TEST_F(SchedulerTest, BurstDropsOverflowDeterministically) {
  // Every request arrives at t=0; a 30-deep queue with kDrop must admit
  // exactly the first 30 and reject the other 90 -- deterministically,
  // because poll() runs to completion before any dispatch.
  const std::vector<double> burst(starts_.size(), 0.0);
  sched::VectorJobSource inner(workload_);
  sched::StreamJobSource stream(
      inner, burst,
      sched::StreamOptions().with_capacity(30, sched::AdmissionPolicy::kDrop));
  sched::InMemoryReportSink sink;
  sched::Session session(stream, sink, sched::SessionOptions());
  const auto stats = session.serve(4);

  EXPECT_EQ(stats.service.arrivals, 120u);
  EXPECT_EQ(stats.service.admitted, 30u);
  EXPECT_EQ(stats.service.dropped, 90u);
  EXPECT_EQ(stats.service.completed, 30u);
  EXPECT_EQ(stats.service.max_queue_depth, 30u);
  EXPECT_TRUE(stats.service.drained());
  // The first 30 requests in pool order survive, tracked bit-identically.
  const auto report = sink.report(stats);
  ASSERT_EQ(report.paths.size(), 30u);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(report.paths[i].index, i);
    EXPECT_EQ(static_cast<int>(report.paths[i].result.status),
              static_cast<int>(baseline_[i].status));
  }
}

TEST_F(SchedulerTest, BlockingDoorAdmitsEverythingWithinCapacity) {
  const std::vector<double> burst(starts_.size(), 0.0);
  sched::VectorJobSource inner(workload_);
  sched::StreamJobSource stream(
      inner, burst,
      sched::StreamOptions().with_capacity(8, sched::AdmissionPolicy::kBlock));
  sched::InMemoryReportSink sink;
  sched::Session session(stream, sink, sched::SessionOptions());
  const auto stats = session.serve(4);

  EXPECT_EQ(stats.service.admitted, 120u);  // flow control, no loss
  EXPECT_EQ(stats.service.dropped, 0u);
  EXPECT_LE(stats.service.max_queue_depth, 8u);
  EXPECT_TRUE(stats.service.drained());
  expect_matches_baseline(sink.report(stats));
}

// ---- graceful shutdown ------------------------------------------------------

TEST_F(SchedulerTest, DeadlineShedsUnarrivedAndDrainsInFlight) {
  // 40 requests arrive immediately; the rest are scheduled far past the
  // deadline and must be shed, while everything admitted drains.
  std::vector<double> trace(starts_.size(), 100.0);
  for (std::size_t i = 0; i < 40; ++i) trace[i] = 0.0;
  sched::VectorJobSource inner(workload_);
  sched::StreamJobSource stream(inner, trace);
  sched::InMemoryReportSink sink;
  sched::Session session(stream, sink,
                         sched::SessionOptions().with_serve_deadline(0.25));
  const auto stats = session.serve(4);

  EXPECT_EQ(stats.service.arrivals, 40u);
  EXPECT_EQ(stats.service.admitted, 40u);
  EXPECT_EQ(stats.service.shed, 80u);
  EXPECT_EQ(stats.service.completed, 40u);
  EXPECT_TRUE(stats.service.drained());  // zero-loss drain
  EXPECT_GE(stats.wall_seconds, 0.25);
  const auto report = sink.report(stats);
  ASSERT_EQ(report.paths.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) EXPECT_EQ(report.paths[i].index, i);
}

// ---- fail injection under serve ---------------------------------------------

TEST_F(SchedulerTest, ServeSurvivesWorkerDeathWithZeroLoss) {
  const std::vector<double> burst(starts_.size(), 0.0);
  sched::VectorJobSource inner(workload_);
  sched::StreamJobSource stream(inner, burst);
  sched::InMemoryReportSink sink;
  sched::Session session(stream, sink,
                         sched::SessionOptions().with_fault_plan(
                             pph::mp::FaultPlan().kill_announced(/*rank=*/2, 3)));
  const auto stats = session.serve(4);
  EXPECT_TRUE(stats.service.drained());
  EXPECT_EQ(stats.service.completed, 120u);
  expect_matches_baseline(sink.report(stats));
}

// ---- runtime vs simulator on a fixed trace ----------------------------------

TEST_F(SchedulerTest, SimulatorAgreesWithRuntimeOnBurstTrace) {
  const std::vector<double> burst(starts_.size(), 0.0);
  sched::VectorJobSource inner(workload_);
  sched::StreamJobSource stream(
      inner, burst,
      sched::StreamOptions().with_capacity(30, sched::AdmissionPolicy::kDrop));
  sched::DiscardSink sink;
  sched::Session session(stream, sink, sched::SessionOptions());
  const auto real = session.serve(4);

  // Same trace, same queue bound, 3 workers; service times are irrelevant
  // to the admission counters on a burst.
  simcluster::ServiceSimOptions opts;
  opts.queue_capacity = 30;
  opts.on_full = sched::AdmissionPolicy::kDrop;
  const std::vector<double> durations(starts_.size(), 1e-3);
  const auto sim = simcluster::simulate_service(durations, burst, 3, opts);

  EXPECT_EQ(sim.service.arrivals, real.service.arrivals);
  EXPECT_EQ(sim.service.admitted, real.service.admitted);
  EXPECT_EQ(sim.service.dropped, real.service.dropped);
  EXPECT_EQ(sim.service.shed, real.service.shed);
  EXPECT_EQ(sim.service.completed, real.service.completed);
  EXPECT_EQ(sim.service.max_queue_depth, real.service.max_queue_depth);
  EXPECT_EQ(sim.dispatches, 30u);
}

TEST(ServiceSim, QueueDrainsAndMeasuresSojourn) {
  // 4 unit jobs on 1 worker arriving together: sojourns 1,2,3,4.
  const std::vector<double> durations(4, 1.0);
  const std::vector<double> arrivals(4, 0.0);
  const auto out = simcluster::simulate_service(durations, arrivals, 1);
  EXPECT_EQ(out.service.completed, 4u);
  EXPECT_EQ(out.service.max_queue_depth, 4u);
  EXPECT_DOUBLE_EQ(out.makespan, 4.0);
  EXPECT_EQ(out.service.sojourn.count(), 4u);
  EXPECT_DOUBLE_EQ(out.service.sojourn.min(), 1.0);
  EXPECT_DOUBLE_EQ(out.service.sojourn.max(), 4.0);
  EXPECT_EQ(out.dispatches, 4u);
}

TEST(ServiceSim, DeadlineShedsLateArrivals) {
  const std::vector<double> durations(3, 0.5);
  const std::vector<double> arrivals{0.0, 0.0, 10.0};
  simcluster::ServiceSimOptions opts;
  opts.deadline_seconds = 1.0;
  const auto out = simcluster::simulate_service(durations, arrivals, 2, opts);
  EXPECT_EQ(out.service.arrivals, 2u);
  EXPECT_EQ(out.service.shed, 1u);
  EXPECT_EQ(out.service.completed, 2u);
  EXPECT_TRUE(out.service.drained());
}

// ---- request reliability (DESIGN.md section 13) -----------------------------

using pph::homotopy::PathStatus;

TEST_F(SchedulerTest, ReliabilityIsServeOnly) {
  // Budgets attach at the stream's admission gate; a drain run has none.
  sched::VectorJobSource source(workload_);
  sched::DiscardSink sink;
  sched::Session session(source, sink,
                         sched::SessionOptions().with_reliability(
                             sched::ReliabilityOptions().with_deadline(1.0)));
  EXPECT_THROW(session.run(4), std::invalid_argument);
}

TEST_F(SchedulerTest, ReliabilityOptionsAreValidated) {
  const std::vector<double> burst(starts_.size(), 0.0);
  sched::DiscardSink sink;
  const auto serve_with = [&](sched::ReliabilityOptions ro) {
    sched::VectorJobSource inner(workload_);
    sched::StreamJobSource stream(inner, burst);
    sched::Session session(stream, sink, sched::SessionOptions().with_reliability(ro));
    session.serve(4);
  };
  sched::ReliabilityOptions zero_attempts;
  zero_attempts.budget.max_attempts = 0;
  EXPECT_THROW(serve_with(zero_attempts), std::invalid_argument);
  EXPECT_THROW(serve_with(sched::ReliabilityOptions().with_attempts(2, -0.5)),
               std::invalid_argument);
  EXPECT_THROW(serve_with(sched::ReliabilityOptions().with_attempts(2, 0.1, 0.5)),
               std::invalid_argument);
  EXPECT_THROW(serve_with(sched::ReliabilityOptions().with_attempts(2, 0.1, 2.0, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(serve_with(sched::ReliabilityOptions().with_deadline(-1.0)),
               std::invalid_argument);
  // Brownout watermarks must be ordered: shedding may not trip before the
  // shallower degradations.
  EXPECT_THROW(serve_with(sched::ReliabilityOptions().with_overload(
                   sched::OverloadOptions().with_depths(30, 20, 10))),
               std::invalid_argument);
  EXPECT_THROW(serve_with(sched::ReliabilityOptions().with_overload(
                   sched::OverloadOptions().with_depths(5, 10, 20).with_hysteresis(0.0, 0.0))),
               std::invalid_argument);
}

TEST_F(SchedulerTest, GenerousBudgetLeavesResultsBitIdentical) {
  // A cancellable frame threads a cancel poll into every tracker call; the
  // poll must never change the numerics.  With a deadline no request can
  // miss, the served results are bit-identical to a drained run without
  // the layer.
  const std::vector<double> burst(starts_.size(), 0.0);
  sched::VectorJobSource inner(workload_);
  sched::StreamJobSource stream(inner, burst);
  sched::InMemoryReportSink sink;
  sched::Session session(stream, sink,
                         sched::SessionOptions().with_reliability(
                             sched::ReliabilityOptions().with_deadline(1000.0)));
  const auto stats = session.serve(4);
  EXPECT_TRUE(stats.service.drained());
  EXPECT_EQ(stats.service.completed, starts_.size());
  EXPECT_EQ(stats.service.expired, 0u);
  EXPECT_EQ(stats.reliability.cancelled, 0u);
  EXPECT_EQ(stats.reliability.retried, 0u);
  EXPECT_EQ(stats.service.terminal_requests(), starts_.size());
  const auto drained = sched::run_paths(workload_, 4);
  expect_identical_results(sink.report(stats), drained);
}

TEST_F(SchedulerTest, DeadlineZeroExpiresEveryRequestAtAdmission) {
  // A zero budget is due the instant on_admit stamps it: the sweep right
  // after the first poll() expires the whole burst before any dispatch,
  // and the sink sees one synthesized kDeadlineExpired record per request.
  const std::vector<double> burst(starts_.size(), 0.0);
  sched::VectorJobSource inner(workload_);
  sched::StreamJobSource stream(inner, burst);
  sched::InMemoryReportSink sink;
  sched::Session session(stream, sink,
                         sched::SessionOptions().with_reliability(
                             sched::ReliabilityOptions().with_deadline(0.0)));
  const auto stats = session.serve(4);
  EXPECT_EQ(stats.service.arrivals, starts_.size());
  EXPECT_EQ(stats.service.admitted, starts_.size());
  EXPECT_EQ(stats.service.expired, starts_.size());
  EXPECT_EQ(stats.service.completed, 0u);
  EXPECT_EQ(stats.reliability.cancelled, 0u);  // nothing ever dispatched
  EXPECT_TRUE(stats.service.drained());
  EXPECT_EQ(stats.service.terminal_requests(), starts_.size());
  const auto report = sink.report(stats);
  ASSERT_EQ(report.paths.size(), starts_.size());
  EXPECT_EQ(report.expired, starts_.size());
  for (std::size_t i = 0; i < report.paths.size(); ++i) {
    EXPECT_EQ(report.paths[i].index, i);
    EXPECT_EQ(report.paths[i].result.status, PathStatus::kDeadlineExpired);
    EXPECT_EQ(report.paths[i].worker, -1);
  }
  // The simulator twin on the same trace: every counter bit-equal.
  simcluster::ServiceSimOptions sopts;
  sopts.reliability = sched::ReliabilityOptions().with_deadline(0.0);
  const std::vector<double> durations(starts_.size(), 1e-3);
  const auto sim = simcluster::simulate_service(durations, burst, 3, sopts);
  EXPECT_EQ(sim.service.admitted, stats.service.admitted);
  EXPECT_EQ(sim.service.expired, stats.service.expired);
  EXPECT_EQ(sim.service.completed, stats.service.completed);
  EXPECT_EQ(sim.service.terminal_requests(), stats.service.terminal_requests());
  EXPECT_EQ(sim.reliability.cancelled, stats.reliability.cancelled);
  EXPECT_EQ(sim.dispatches, 0u);
}

TEST_F(SchedulerTest, InFlightCancelStopsTheTrackerMidPath) {
  // One slave, two requests, and a microscopic step cap that makes each
  // track take effectively forever: request 0 expires IN FLIGHT (the
  // cancel poll stops the tracker within one step and the slave's stub is
  // dropped by the ownerless-result path -- exactly once), request 1
  // expires in queue before any worker saw it.
  std::vector<pph::linalg::CVector> two(starts_.begin(), starts_.begin() + 2);
  sched::PathWorkload slow = workload_;
  slow.starts = &two;
  slow.tracker.initial_step = 1e-7;
  slow.tracker.max_step = 1e-7;
  slow.tracker.max_steps = 100000000;  // hours of work: the deadline always wins
  sched::VectorJobSource inner(slow);
  sched::StreamJobSource stream(inner, std::vector<double>(2, 0.0));
  sched::InMemoryReportSink sink;
  sched::Session session(stream, sink,
                         sched::SessionOptions().with_initial_jobs(1).with_reliability(
                             sched::ReliabilityOptions().with_deadline(0.05)));
  const auto stats = session.serve(2);
  EXPECT_EQ(stats.service.admitted, 2u);
  EXPECT_EQ(stats.service.expired, 2u);
  EXPECT_EQ(stats.service.completed, 0u);
  EXPECT_EQ(stats.reliability.cancelled, 1u);  // only request 0 was dispatched
  EXPECT_TRUE(stats.service.drained());
  const auto report = sink.report(stats);
  ASSERT_EQ(report.paths.size(), 2u);  // the cancelled stub was not double-counted
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(report.paths[i].index, i);
    EXPECT_EQ(report.paths[i].result.status, PathStatus::kDeadlineExpired);
    EXPECT_EQ(report.paths[i].worker, -1);
  }
  // Twin: 1 worker, service times far past the deadline -> same counters
  // (one mid-flight cancellation, two expiries).
  simcluster::ServiceSimOptions sopts;
  sopts.reliability = sched::ReliabilityOptions().with_deadline(0.05);
  const auto sim = simcluster::simulate_service(std::vector<double>(2, 10.0),
                                                std::vector<double>(2, 0.0), 1, sopts);
  EXPECT_EQ(sim.reliability.cancelled, stats.reliability.cancelled);
  EXPECT_EQ(sim.service.expired, stats.service.expired);
  EXPECT_EQ(sim.service.completed, stats.service.completed);
  EXPECT_EQ(sim.service.terminal_requests(), stats.service.terminal_requests());
}

TEST_F(SchedulerTest, FailedRequestsRetryWithBackoffThenDeliver) {
  // A one-step budget makes every track fail instantly and
  // deterministically.  Each request burns its 3 attempts (2 retries with
  // deterministic jittered backoff), then the exhausted attempt delivers
  // its genuine kFailed result -- completed, never expired.  The simulator
  // twin scripts the same failures and must draw bit-identical backoffs.
  sched::PathWorkload failing = workload_;
  failing.tracker.max_steps = 1;
  sched::VectorJobSource inner(failing);
  const std::vector<double> burst(starts_.size(), 0.0);
  sched::StreamJobSource stream(inner, burst);
  sched::InMemoryReportSink sink;
  const auto rel = sched::ReliabilityOptions()
                       .with_attempts(3, 0.002, 2.0, 0.25)
                       .with_jitter_seed(42);
  sched::Session session(stream, sink, sched::SessionOptions().with_reliability(rel));
  const auto stats = session.serve(4);
  const std::size_t n = starts_.size();
  EXPECT_EQ(stats.service.completed, n);
  EXPECT_EQ(stats.service.expired, 0u);
  EXPECT_TRUE(stats.service.drained());
  EXPECT_EQ(stats.reliability.retried, 2 * n);
  EXPECT_EQ(stats.reliability.backoff_wait.count(), 2 * n);
  // Jittered exponential backoff: attempt 1 in [1.5, 2.5] ms, attempt 2
  // doubled -- every draw inside the jitter envelope.
  EXPECT_GE(stats.reliability.backoff_wait.min(), 0.002 * 0.75);
  EXPECT_LE(stats.reliability.backoff_wait.max(), 0.004 * 1.25);
  const auto report = sink.report(stats);
  ASSERT_EQ(report.paths.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(report.paths[i].index, i);
    EXPECT_EQ(report.paths[i].result.status, PathStatus::kFailed);
  }

  simcluster::ServiceSimOptions sopts;
  sopts.reliability = rel;
  sopts.fails.assign(n, 3);  // every attempt fails; the budget caps at 3
  const std::vector<double> durations(n, 1e-4);
  const auto sim = simcluster::simulate_service(durations, burst, 3, sopts);
  EXPECT_EQ(sim.reliability.retried, stats.reliability.retried);
  EXPECT_EQ(sim.service.completed, stats.service.completed);
  EXPECT_EQ(sim.service.expired, stats.service.expired);
  // The backoff draws depend only on (seed, id, attempt): the sample
  // multisets must match bit for bit, runtime vs simulator.
  auto a = stats.reliability.backoff_wait.samples();
  auto b = sim.reliability.backoff_wait.samples();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST_F(SchedulerTest, SimulatorMatchesRuntimeBrownoutTransitions) {
  // A 120-request burst through watermarks 5/10/20 with time-free
  // hysteresis (dwell 0): admission escalates 0->1->2->3 at depths 5, 10,
  // 20, the 100 requests still at the door are shed, and the drain
  // de-escalates 3->2->1->0 as the queue empties.  The runtime and the
  // twin drive the SAME OverloadController through the same depth
  // sequence, so every brownout counter is bit-equal.
  const auto rel = sched::ReliabilityOptions().with_overload(
      sched::OverloadOptions().with_depths(5, 10, 20).with_hysteresis(0.5, 0.0));
  const std::vector<double> burst(starts_.size(), 0.0);
  sched::VectorJobSource inner(workload_);
  sched::StreamJobSource stream(inner, burst);
  sched::DiscardSink sink;
  sched::Session session(stream, sink, sched::SessionOptions().with_reliability(rel));
  const auto stats = session.serve(3);

  EXPECT_EQ(stats.service.admitted, 20u);
  EXPECT_EQ(stats.service.shed, 100u);
  EXPECT_EQ(stats.reliability.brownout_shed, 100u);
  EXPECT_EQ(stats.service.completed, 20u);
  EXPECT_EQ(stats.reliability.max_brownout_level, 3u);
  EXPECT_EQ(stats.reliability.brownout_transitions, 6u);  // 3 up + 3 down
  EXPECT_EQ(stats.service.terminal_requests(), starts_.size());

  simcluster::ServiceSimOptions sopts;
  sopts.reliability = rel;
  const std::vector<double> durations(starts_.size(), 1e-3);
  const auto sim = simcluster::simulate_service(durations, burst, 2, sopts);
  EXPECT_EQ(sim.service.admitted, stats.service.admitted);
  EXPECT_EQ(sim.service.shed, stats.service.shed);
  EXPECT_EQ(sim.reliability.brownout_shed, stats.reliability.brownout_shed);
  EXPECT_EQ(sim.service.completed, stats.service.completed);
  EXPECT_EQ(sim.reliability.max_brownout_level, stats.reliability.max_brownout_level);
  EXPECT_EQ(sim.reliability.brownout_transitions, stats.reliability.brownout_transitions);
  EXPECT_EQ(sim.service.terminal_requests(), stats.service.terminal_requests());
}

TEST(StatsJson, RendersSingleLineObjects) {
  sched::ServiceStats svc;
  svc.arrivals = 7;
  svc.completed = 5;
  svc.expired = 2;
  const auto sj = sched::to_json(svc);
  EXPECT_NE(sj.find("\"arrivals\":7"), std::string::npos);
  EXPECT_NE(sj.find("\"expired\":2"), std::string::npos);
  EXPECT_NE(sj.find("\"terminal_requests\":7"), std::string::npos);
  EXPECT_EQ(sj.find('\n'), std::string::npos);

  sched::ReliabilityStats rel;
  rel.cancelled = 3;
  rel.backoff_wait.add(0.25);
  const auto rj = sched::to_json(rel);
  EXPECT_NE(rj.find("\"cancelled\":3"), std::string::npos);
  EXPECT_NE(rj.find("\"backoff_wait_count\":1"), std::string::npos);
  EXPECT_EQ(rj.find('\n'), std::string::npos);

  sched::SupervisionStats sup;
  sup.quarantined = 1;
  const auto pj = sched::to_json(sup);
  EXPECT_NE(pj.find("\"quarantined\":1"), std::string::npos);
  EXPECT_EQ(pj.find('\n'), std::string::npos);
}

// ---- sink combinators -------------------------------------------------------

TEST_F(SchedulerTest, TeeFansOutToEverySink) {
  sched::InMemoryReportSink a, b;
  auto fan = sched::tee(a, b);
  const sched::TrackedPath tp{/*index=*/3, /*worker=*/1, /*seconds=*/0.0,
                              /*level=*/0, baseline_[3]};
  fan.accept(tp);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(b.count(), 1u);
}

// ---- front-door validation --------------------------------------------------

TEST_F(SchedulerTest, FluentOptionsSetEveryField) {
  const auto opts = sched::SessionOptions()
                        .with_policy(sched::Policy::kBatchSteal)
                        .with_assignment(sched::StaticAssignment::kBlock)
                        .with_initial_jobs(2)
                        .with_batch(3.0, 4)
                        .with_latency(0.001)
                        .with_stop_after(7)
                        .with_serve_deadline(1.5)
                        .with_supervision(pph::sched::SupervisorOptions()
                                              .with_heartbeat(0.05)
                                              .with_miss_budget(10, 3.0)
                                              .with_hang_factor(8.0)
                                              .with_speculation(4.0, 6)
                                              .with_max_attempts(2)
                                              .with_ewma_alpha(0.5))
                        .with_fault_plan(pph::mp::FaultPlan()
                                             .kill(2, 5)
                                             .straggle(1, 0, 0.01)
                                             .kill_announced(3, 6))
                        .with_name("fluent-test");
  EXPECT_EQ(opts.policy, sched::Policy::kBatchSteal);
  EXPECT_EQ(opts.assignment, sched::StaticAssignment::kBlock);
  EXPECT_EQ(opts.initial_jobs_per_slave, 2u);
  EXPECT_DOUBLE_EQ(opts.factor, 3.0);
  EXPECT_EQ(opts.min_batch, 4u);
  EXPECT_DOUBLE_EQ(opts.injected_latency, 0.001);
  EXPECT_EQ(opts.stop_after_results, std::optional<std::size_t>(7));
  EXPECT_EQ(opts.serve_deadline_seconds, std::optional<double>(1.5));
  EXPECT_TRUE(opts.supervisor.enabled);  // with_supervision is the opt-in
  EXPECT_DOUBLE_EQ(opts.supervisor.heartbeat_seconds, 0.05);
  EXPECT_EQ(opts.supervisor.miss_budget, 10u);
  EXPECT_DOUBLE_EQ(opts.supervisor.death_multiplier, 3.0);
  EXPECT_DOUBLE_EQ(opts.supervisor.hang_factor, 8.0);
  EXPECT_TRUE(opts.supervisor.speculate);
  EXPECT_DOUBLE_EQ(opts.supervisor.speculation_factor, 4.0);
  EXPECT_EQ(opts.supervisor.speculation_min_samples, 6u);
  EXPECT_EQ(opts.supervisor.max_attempts, 2u);
  EXPECT_DOUBLE_EQ(opts.supervisor.ewma_alpha, 0.5);
  ASSERT_EQ(opts.fault_plan.actions().size(), 3u);
  EXPECT_EQ(opts.fault_plan.actions()[0].kind, pph::mp::FaultKind::kDieSilently);
  EXPECT_EQ(opts.fault_plan.actions()[1].kind, pph::mp::FaultKind::kStraggle);
  EXPECT_EQ(opts.fault_plan.actions()[2].kind, pph::mp::FaultKind::kDieAnnounced);
  EXPECT_EQ(opts.fault_plan.actions()[2].rank, 3);
  EXPECT_EQ(opts.fault_plan.actions()[2].after_jobs, 6u);
  EXPECT_FALSE(pph::sched::SessionOptions().supervisor.enabled);  // default off
  EXPECT_STREQ(opts.who, "fluent-test");
}

TEST_F(SchedulerTest, ServeValidatesSourceAndPolicy) {
  // serve() requires a StreamJobSource...
  sched::VectorJobSource plain(workload_);
  sched::DiscardSink sink;
  sched::Session wrong_source(plain, sink, sched::SessionOptions());
  EXPECT_THROW(wrong_source.serve(4), std::invalid_argument);

  // ...rejects the static policy (unarrived jobs cannot be pre-assigned)...
  sched::VectorJobSource inner(workload_);
  const std::vector<double> burst(starts_.size(), 0.0);
  sched::StreamJobSource stream(inner, burst);
  sched::Session wrong_policy(
      stream, sink, sched::SessionOptions().with_policy(sched::Policy::kStatic));
  EXPECT_THROW(wrong_policy.serve(4), std::invalid_argument);

  // ...and needs a master plus at least one slave.
  sched::VectorJobSource inner2(workload_);
  sched::StreamJobSource stream2(inner2, burst);
  sched::Session too_small(stream2, sink, sched::SessionOptions());
  EXPECT_THROW(too_small.serve(1), std::invalid_argument);
}

TEST_F(SchedulerTest, StreamRejectsShortOrUnsortedTrace) {
  sched::VectorJobSource inner(workload_);
  EXPECT_THROW(sched::StreamJobSource(inner, std::vector<double>(10, 0.0)),
               std::invalid_argument);
  sched::VectorJobSource inner2(workload_);
  std::vector<double> unsorted(starts_.size(), 0.0);
  unsorted[5] = 1.0;  // decreasing after index 5
  EXPECT_THROW(sched::StreamJobSource(inner2, unsorted), std::invalid_argument);
}

}  // namespace
