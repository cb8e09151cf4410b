#pragma once
// Shared fixture for the parallel path-scheduler tests (test_sched.cpp,
// test_batch_sched.cpp): the cyclic-5 workload (120 paths, 70 finite
// roots) plus the sequential baseline every scheduler must reproduce.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "homotopy/start_total_degree.hpp"
#include "sched/job_pool.hpp"
#include "systems/cyclic.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"

namespace pph::testing {

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<util::Prng>(1234);
    target_ = systems::cyclic(5);
    start_ = std::make_unique<homotopy::TotalDegreeStart>(target_, *rng_);
    homotopy_ =
        std::make_unique<homotopy::ConvexHomotopy>(start_->system(), target_, rng_->unit_complex());
    starts_ = start_->all_solutions();
    workload_.homotopy = homotopy_.get();
    workload_.starts = &starts_;
    util::WallTimer timer;
    baseline_ = homotopy::track_all(*homotopy_, starts_, workload_.tracker);
    baseline_seconds_ = timer.seconds();
  }

  static std::multiset<int> status_multiset(const sched::ParallelRunReport& report) {
    std::multiset<int> s;
    for (const auto& tp : report.paths) s.insert(static_cast<int>(tp.result.status));
    return s;
  }

  void expect_matches_baseline(const sched::ParallelRunReport& report) {
    ASSERT_EQ(report.paths.size(), starts_.size());
    // Every index exactly once (report is sorted by tally()).
    for (std::size_t i = 0; i < report.paths.size(); ++i) {
      EXPECT_EQ(report.paths[i].index, i);
    }
    // Identical results to the sequential run (the tracker is
    // deterministic given the same homotopy and start).
    for (std::size_t i = 0; i < report.paths.size(); ++i) {
      EXPECT_EQ(static_cast<int>(report.paths[i].result.status),
                static_cast<int>(baseline_[i].status))
          << "path " << i;
      if (baseline_[i].status == homotopy::PathStatus::kConverged) {
        EXPECT_LT(linalg::distance2(report.paths[i].result.x, baseline_[i].x), 1e-8);
      }
    }
  }

  /// Scheduler-independence invariant: two runs must produce *identical*
  /// PathResult sets -- same status, step counts, and endpoint bits --
  /// because scheduling only changes who tracks a path, never the numerics.
  /// The verdict comes from the shared sched::identical_path_results (the
  /// same predicate the ablation bench's CI guard uses); the per-field
  /// EXPECTs below only localize a failure.
  static void expect_identical_results(const sched::ParallelRunReport& a,
                                       const sched::ParallelRunReport& b) {
    EXPECT_TRUE(sched::identical_path_results(a, b));
    ASSERT_EQ(a.paths.size(), b.paths.size());
    for (std::size_t i = 0; i < a.paths.size(); ++i) {
      const auto& ra = a.paths[i].result;
      const auto& rb = b.paths[i].result;
      ASSERT_EQ(a.paths[i].index, b.paths[i].index);
      EXPECT_EQ(static_cast<int>(ra.status), static_cast<int>(rb.status)) << "path " << i;
      EXPECT_EQ(ra.steps, rb.steps) << "path " << i;
      EXPECT_EQ(ra.rejections, rb.rejections) << "path " << i;
      EXPECT_EQ(ra.newton_iterations, rb.newton_iterations) << "path " << i;
      EXPECT_EQ(ra.t_reached, rb.t_reached) << "path " << i;
      EXPECT_EQ(ra.residual, rb.residual) << "path " << i;
      ASSERT_EQ(ra.x.size(), rb.x.size()) << "path " << i;
      for (std::size_t k = 0; k < ra.x.size(); ++k) {
        EXPECT_EQ(ra.x[k].real(), rb.x[k].real()) << "path " << i << " coord " << k;
        EXPECT_EQ(ra.x[k].imag(), rb.x[k].imag()) << "path " << i << " coord " << k;
      }
    }
  }

  std::unique_ptr<util::Prng> rng_;
  poly::PolySystem target_;
  std::unique_ptr<homotopy::TotalDegreeStart> start_;
  std::unique_ptr<homotopy::ConvexHomotopy> homotopy_;
  std::vector<linalg::CVector> starts_;
  sched::PathWorkload workload_;
  std::vector<homotopy::PathResult> baseline_;
  /// Wall time of the sequential baseline on this build and machine: a
  /// test whose timing window must outlast a whole drain sizes the window
  /// from this, so a slow (sanitizer, coverage) build widens it too.
  double baseline_seconds_ = 0.0;
};

}  // namespace pph::testing
