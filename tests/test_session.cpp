// Tests for the unified scheduler sessions (sched/session.hpp): the
// JobSource x Policy x ResultSink composition must reproduce the sequential
// baseline under every policy knob, the Pieri tree source must ride both
// dispatch policies with one solution set, fault-plan injection must cover
// the Pieri scheduler (death re-queue), and the checkpoint control
// (stop_after_results) must stop a session early without losing results.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sched/pieri_scheduler.hpp"
#include "scheduler_fixture.hpp"

namespace {

using pph::linalg::Complex;
using pph::schubert::PieriProblem;
using pph::sched::Policy;
using pph::sched::SessionOptions;
using pph::testing::SchedulerTest;
using pph::util::Prng;

TEST_F(SchedulerTest, FcfsHonorsInitialJobsPerSlave) {
  SessionOptions opts;
  opts.policy = Policy::kFCFS;
  opts.initial_jobs_per_slave = 3;
  const auto report = pph::sched::run_paths(workload_, 4, opts);
  expect_matches_baseline(report);
}

// ---- checkpoint control -----------------------------------------------------

TEST_F(SchedulerTest, StopAfterResultsStopsEarly) {
  pph::sched::VectorJobSource source(workload_);
  pph::sched::InMemoryReportSink sink;
  SessionOptions opts;
  opts.stop_after_results = 10;
  pph::sched::Session session(source, sink, opts);
  const auto stats = session.run(4);
  EXPECT_TRUE(stats.stopped_early);
  EXPECT_GE(stats.accepted, 10u);
  EXPECT_LT(stats.accepted, starts_.size());
  const auto report = sink.report(stats);
  // Every accepted result is a real, correctly tracked path.
  for (const auto& tp : report.paths) {
    EXPECT_EQ(static_cast<int>(tp.result.status),
              static_cast<int>(baseline_[tp.index].status));
  }
}

TEST_F(SchedulerTest, StaticPolicyRejectsEarlyStop) {
  SessionOptions opts;
  opts.policy = Policy::kStatic;
  opts.stop_after_results = 10;
  EXPECT_THROW(pph::sched::run_paths(workload_, 3, opts), std::invalid_argument);
}

// ---- the Pieri tree on both policies ---------------------------------------

// Two runs must produce equal canonical solution keys -- tracking is
// deterministic per edge, so the policies must agree to the bit.  The key
// comes from the shared sched::canonical_solution_set (the same helper the
// ablation bench's CI guard uses, so the checks cannot drift).
using pph::sched::canonical_solution_set;

TEST(ParallelPieriSession, BatchStealMatchesFcfsSolutionSet) {
  const PieriProblem pb{2, 2, 1};
  Prng rng(42);
  const auto input = pph::schubert::random_pieri_input(pb, rng);

  const auto fcfs = pph::sched::run_pieri(input, 4);
  ASSERT_TRUE(fcfs.complete());

  pph::sched::ParallelPieriOptions opts;
  opts.policy = Policy::kBatchSteal;
  const auto batch = pph::sched::run_pieri(input, 4, opts);
  EXPECT_TRUE(batch.complete());
  EXPECT_EQ(batch.total_jobs, fcfs.total_jobs);
  EXPECT_EQ(batch.jobs_per_level, fcfs.jobs_per_level);
  // Per-job FCFS dispatches every job exactly once (the baseline the
  // (3,2,1) batching test below measures against).
  EXPECT_EQ(fcfs.dispatches, fcfs.total_jobs);

  // Identical solution sets, bit for bit.
  const auto a = canonical_solution_set(fcfs.solutions);
  const auto b = canonical_solution_set(batch.solutions);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (std::size_t k = 0; k < a[i].size(); ++k) {
      EXPECT_EQ(a[i][k].real(), b[i][k].real());
      EXPECT_EQ(a[i][k].imag(), b[i][k].imag());
    }
  }
}

TEST(ParallelPieriSession, BatchStealBatchesDispatches) {
  // Level batches: the batch policy must hand out fewer, larger messages
  // than per-job FCFS on the same tree.  A clean FCFS run dispatches every
  // job exactly once (dispatches == total_jobs, and job counts are
  // policy-invariant -- asserted on the smaller tree above), so the
  // per-job baseline is total_jobs: no second full solve needed, which
  // keeps this suite inside the sanitizer-leg time budget.
  const PieriProblem pb{3, 2, 1};  // 252 jobs
  Prng rng(44);
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  pph::sched::ParallelPieriOptions opts;
  opts.policy = Policy::kBatchSteal;
  const auto batch = pph::sched::run_pieri(input, 4, opts);
  ASSERT_TRUE(batch.complete());
  EXPECT_LT(batch.dispatches, (batch.total_jobs * 2) / 3);
}

TEST(ParallelPieriSession, RejectsStaticPolicy) {
  const PieriProblem pb{2, 2, 0};
  Prng rng(46);
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  pph::sched::ParallelPieriOptions opts;
  opts.policy = Policy::kStatic;
  EXPECT_THROW(pph::sched::run_pieri(input, 3, opts), std::invalid_argument);
}

// ---- Pieri fault injection --------------------------------------------------

TEST(ParallelPieriSession, SurvivesWorkerDeathUnderFcfs) {
  const PieriProblem pb{2, 2, 1};
  Prng rng(42);
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  const auto healthy = pph::sched::run_pieri(input, 4);
  ASSERT_TRUE(healthy.complete());

  pph::sched::ParallelPieriOptions opts;
  opts.fault_plan.kill_announced(/*rank=*/2, /*after_jobs=*/3);  // dies on its 4th edge
  const auto report = pph::sched::run_pieri(input, 4, opts);
  // The master re-queues the dead slave's edges; the survivors finish the
  // tree with the full solution set.
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.solutions.size(), healthy.solutions.size());
  const auto a = canonical_solution_set(healthy.solutions);
  const auto b = canonical_solution_set(report.solutions);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ParallelPieriSession, SurvivesWorkerDeathUnderBatchSteal) {
  const PieriProblem pb{2, 2, 1};
  Prng rng(43);
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  pph::sched::ParallelPieriOptions opts;
  opts.policy = Policy::kBatchSteal;
  opts.fault_plan.kill_announced(/*rank=*/1, /*after_jobs=*/2);
  const auto report = pph::sched::run_pieri(input, 4, opts);
  EXPECT_TRUE(report.complete());
}

TEST(ParallelPieriSession, RejectsKillingTheMaster) {
  const PieriProblem pb{2, 2, 0};
  Prng rng(46);
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  pph::sched::ParallelPieriOptions opts;
  opts.fault_plan.kill_announced(/*rank=*/0, /*after_jobs=*/1);
  EXPECT_THROW(pph::sched::run_pieri(input, 4, opts), std::invalid_argument);
}

TEST(ParallelPieriSession, RejectsOutOfRangeKillRank) {
  const PieriProblem pb{2, 2, 0};
  Prng rng(46);
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  pph::sched::ParallelPieriOptions opts;
  opts.fault_plan.kill_announced(/*rank=*/9, /*after_jobs=*/1);
  EXPECT_THROW(pph::sched::run_pieri(input, 4, opts), std::invalid_argument);
}

TEST(ParallelPieriSession, RejectsKillingEverySlave) {
  const PieriProblem pb{2, 2, 0};
  Prng rng(46);
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  pph::sched::ParallelPieriOptions opts;
  opts.fault_plan.kill_announced(/*rank=*/1, /*after_jobs=*/1);
  EXPECT_THROW(pph::sched::run_pieri(input, 2, opts), std::invalid_argument);
}

}  // namespace
