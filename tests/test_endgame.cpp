// The endgame/rescue tier and root-count certification (DESIGN.md section
// 9): double-double utilities, the tracker's final-stretch policy, suspect
// diagnostics, rescue targeting and tracker ladders, the solver-level
// fresh-gamma rescue on a deterministic singular-deformation fixture,
// certification property tests (dropped / duplicated / perturbed solutions
// must be rejected), Pieri solves certified against the exact chain count,
// rescue fault injection under a killed slave, and the env-gated (2,2,4)
// seed sweep that replays the historically path-losing instances.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "homotopy/certify.hpp"
#include "homotopy/solver.hpp"
#include "sched/pieri_scheduler.hpp"
#include "schubert/pieri_solver.hpp"
#include "util/dd.hpp"
#include "util/prng.hpp"

namespace {

using pph::homotopy::CertificateReport;
using pph::homotopy::CertifyOptions;
using pph::homotopy::ConvexHomotopy;
using pph::homotopy::PathResult;
using pph::homotopy::PathStatus;
using pph::homotopy::SolveOptions;
using pph::homotopy::TrackerOptions;
using pph::linalg::Complex;
using pph::linalg::CVector;
using pph::poly::Monomial;
using pph::poly::Polynomial;
using pph::poly::PolySystem;
using pph::schubert::PieriProblem;
using pph::schubert::PieriSolverOptions;
using pph::util::Prng;

/// Univariate x^2 - c as a 1x1 system.
PolySystem quadratic_system(Complex c) {
  Monomial sq(1);
  sq.set_exponent(0, 2);
  return PolySystem(1, {Polynomial(1, {{Complex{1, 0}, sq}, {-c, Monomial(1)}})});
}

// ---- double-double utilities ------------------------------------------------

TEST(DoubleDouble, TwoSumCapturesTheLostBit) {
  // 1 + 2^-60 rounds to 1 in double; the error term holds the remainder.
  const auto r = pph::util::two_sum(1.0, std::ldexp(1.0, -60));
  EXPECT_EQ(r.s, 1.0);
  EXPECT_EQ(r.e, std::ldexp(1.0, -60));
}

TEST(DoubleDouble, TwoProdCapturesTheRoundedProduct) {
  // (1 + 2^-30)(1 - 2^-30) = 1 - 2^-60: the product rounds to 1.
  const double a = 1.0 + std::ldexp(1.0, -30);
  const double b = 1.0 - std::ldexp(1.0, -30);
  const auto r = pph::util::two_prod(a, b);
  EXPECT_EQ(r.s, 1.0);
  EXPECT_EQ(r.e, -std::ldexp(1.0, -60));
}

TEST(DoubleDouble, AddSubRecoversWhatDoubleLoses) {
  const pph::util::DD one{1.0};
  const pph::util::DD tiny{std::ldexp(1.0, -60)};
  const auto d = pph::util::dd_sub(pph::util::dd_add(one, tiny), one);
  EXPECT_EQ(d.to_double(), std::ldexp(1.0, -60));
  // The same computation collapses to zero in plain double.
  EXPECT_EQ((1.0 + std::ldexp(1.0, -60)) - 1.0, 0.0);
}

TEST(DoubleDouble, CompensatedFmaBeatsNaiveAccumulation) {
  // (1e8+1)^2 - 1e8*1e8 - 2e8*1 = 1 exactly; the first product needs 54
  // bits, so naive double accumulation lands on 2.
  const double x = 1e8 + 1.0;
  double naive = x * x;
  naive += -1e8 * 1e8;
  naive += -2e8 * 1.0;
  EXPECT_NE(naive, 1.0);

  pph::util::DDComplex acc;
  pph::util::ddc_fma(acc, Complex{x, 0}, Complex{x, 0});
  pph::util::ddc_fma(acc, Complex{-1e8, 0}, Complex{1e8, 0});
  pph::util::ddc_fma(acc, Complex{-2e8, 0}, Complex{1, 0});
  EXPECT_EQ(acc.to_complex().real(), 1.0);
  EXPECT_EQ(acc.to_complex().imag(), 0.0);
}

TEST(DoubleDouble, RefinedCorrectorConverges) {
  const PolySystem f = quadratic_system(Complex{4, 0});
  ConvexHomotopy h(f, f, Complex{1, 0});
  CVector x{Complex{2.02, -0.01}};
  pph::homotopy::CorrectorOptions opts;
  opts.dd_refine = true;
  const auto r = pph::homotopy::correct(h, x, 1.0, opts);
  EXPECT_EQ(r.status, pph::homotopy::CorrectorStatus::kConverged);
  EXPECT_NEAR(std::abs(x[0] - Complex{2, 0}), 0.0, 1e-12);
}

// ---- the tracker endgame ----------------------------------------------------

TEST(Endgame, GeometricApproachAddsFinalStretchSteps) {
  Prng rng(21);
  const PolySystem f = quadratic_system(Complex{3, 1});
  pph::homotopy::TotalDegreeStart start(f, rng);
  ConvexHomotopy h(start.system(), f, rng.unit_complex());

  TrackerOptions off;
  off.endgame.enabled = false;
  TrackerOptions on;
  on.endgame.enabled = true;
  // Threshold below 1 - max_step so the tracker cannot hop over the whole
  // endgame window in one step.
  on.endgame.threshold = 0.8;

  const auto a = pph::homotopy::track_path(h, start.solution(0), off);
  const auto b = pph::homotopy::track_path(h, start.solution(0), on);
  ASSERT_TRUE(a.converged());
  ASSERT_TRUE(b.converged());
  // Same root either way; the endgame halves the remaining gap per step, so
  // it spends ~log2((1-threshold)/min_gap) extra steps on the final stretch.
  EXPECT_NEAR(std::abs(a.x[0] - b.x[0]), 0.0, 1e-8);
  EXPECT_GT(b.steps, a.steps);
}

TEST(Endgame, DiagnosticsPopulatedOnConvergedPaths) {
  Prng rng(22);
  const PolySystem f = quadratic_system(Complex{2, 2});
  pph::homotopy::TotalDegreeStart start(f, rng);
  ConvexHomotopy h(start.system(), f, rng.unit_complex());
  const auto r = pph::homotopy::track_path(h, start.solution(0));
  ASSERT_TRUE(r.converged());
  EXPECT_GT(r.last_step, 0.0);
  EXPECT_EQ(r.rescue_attempts, 0u);
  EXPECT_FALSE(r.rescued);
}

TEST(Endgame, SuspectPredicateFlagsHighResidualConvergence) {
  PathResult r;
  r.status = PathStatus::kConverged;
  r.residual = 1e-5;
  EXPECT_TRUE(pph::homotopy::suspect_path(r, 1e-7));
  r.residual = 1e-9;
  EXPECT_FALSE(pph::homotopy::suspect_path(r, 1e-7));
  r.status = PathStatus::kFailed;
  r.residual = 1.0;
  EXPECT_FALSE(pph::homotopy::suspect_path(r, 1e-7));  // failed, not suspect
}

// ---- rescue targeting and tracker ladders -----------------------------------

PathResult make_result(PathStatus status, double residual, Complex endpoint) {
  PathResult r;
  r.status = status;
  r.residual = residual;
  r.x = {endpoint};
  return r;
}

TEST(Rescue, TargetsFailedSuspectAndCollidingPaths) {
  PieriSolverOptions opts;
  std::vector<PathResult> results;
  results.push_back(make_result(PathStatus::kConverged, 1e-12, Complex{10, 0}));  // clean
  results.push_back(make_result(PathStatus::kFailed, 1.0, Complex{0, 0}));        // failed
  results.push_back(make_result(PathStatus::kConverged, 1e-3, Complex{1, 0}));    // suspect
  results.push_back(make_result(PathStatus::kConverged, 1e-12, Complex{5, 0}));   // collides...
  results.push_back(
      make_result(PathStatus::kConverged, 1e-12, Complex{5 + 1e-9, 0}));          // ...with this
  const auto targets = pph::schubert::rescue_targets(results, opts);
  EXPECT_EQ(targets, (std::vector<std::size_t>{1, 2, 3, 4}));
}

TEST(Rescue, CleanResultsProduceNoTargets) {
  PieriSolverOptions opts;
  std::vector<PathResult> results;
  results.push_back(make_result(PathStatus::kConverged, 1e-12, Complex{1, 0}));
  results.push_back(make_result(PathStatus::kConverged, 1e-12, Complex{2, 0}));
  EXPECT_TRUE(pph::schubert::rescue_targets(results, opts).empty());
}

TEST(Rescue, AttemptTrackerLadderShrinksStepsAndArmsTheEndgame) {
  PieriSolverOptions opts;
  const TrackerOptions base = opts.tracker;

  const auto retry = pph::schubert::attempt_tracker(opts, 1);
  EXPECT_LT(retry.initial_step, base.initial_step);
  EXPECT_LT(retry.max_step, base.max_step);
  EXPECT_GT(retry.corrector.max_iterations, base.corrector.max_iterations);

  const auto r1 = pph::schubert::attempt_tracker(opts, 0, 1);
  EXPECT_LT(r1.initial_step, base.initial_step);
  EXPECT_TRUE(r1.endgame.enabled);
  EXPECT_TRUE(r1.endgame.dd_refine);
  EXPECT_DOUBLE_EQ(r1.endgame.threshold, 0.9);
  // Tightened but clamped above the double rounding floor: an unreachable
  // corrector tolerance rejects every step and kills the re-track.
  EXPECT_GE(r1.corrector.residual_tolerance, 1e-12);

  const auto r3 = pph::schubert::attempt_tracker(opts, 0, 3);
  EXPECT_GE(r3.corrector.residual_tolerance, 1e-12);
  EXPECT_TRUE(r3.corrector.dd_refine);
  EXPECT_GT(r3.corrector.stagnation_tolerance, 0.0);
  EXPECT_LT(r3.corrector.stagnation_tolerance, opts.suspect_residual);
  EXPECT_LE(r3.min_step, 1e-12);
  EXPECT_LT(r3.initial_step, r1.initial_step);
}

// ---- solver-level rescue on a deterministic singular deformation ------------

// With gamma = 1 the straight-line homotopy from x^2 - 1 to x^2 + 1/9 has
// coefficient line a(t) = 1 - (10/9)t, which crosses ZERO at t* = 0.9: both
// paths x(t) = +/-sqrt(a(t)) hit a genuine singularity mid-path and no step
// size survives.  A fresh random gamma bends the line away from the origin,
// so the rescue tier's fresh-deformation re-track recovers both roots
// +/-i/3.  This is the unit-size replica of the (2,2,4) Pieri losses.
class SingularDeformation : public ::testing::Test {
 protected:
  SingularDeformation()
      : start_(quadratic_system(Complex{1, 0})),
        target_(quadratic_system(Complex{-1.0 / 9.0, 0})),
        h_(start_, target_, Complex{1, 0}),
        starts_{{Complex{1, 0}}, {Complex{-1, 0}}} {}

  pph::homotopy::RescueFamily family() {
    return [this](std::size_t attempt) -> std::unique_ptr<pph::homotopy::Homotopy> {
      Prng rng(1234 + attempt);
      return std::make_unique<ConvexHomotopy>(start_, target_, rng.unit_complex());
    };
  }

  PolySystem start_;
  PolySystem target_;
  ConvexHomotopy h_;
  std::vector<CVector> starts_;
};

TEST_F(SingularDeformation, FailsWithDiagnosticsWhenRescueIsOff) {
  SolveOptions opts;
  opts.rescue.enabled = false;
  const auto s = pph::homotopy::track_and_summarize(h_, starts_, target_, opts, family());
  EXPECT_EQ(s.failed, 2u);
  EXPECT_EQ(s.converged, 0u);
  EXPECT_EQ(s.rescue_retracks, 0u);
  for (const auto& p : s.paths) {
    EXPECT_EQ(p.status, PathStatus::kFailed);
    // The suspect-path diagnostics: stuck at the singular t* with the
    // underflowed step recorded.
    EXPECT_NEAR(p.t_reached, 0.9, 1e-3);
    EXPECT_GT(p.last_step, 0.0);
    EXPECT_LT(p.last_step, opts.tracker.min_step * 2);
  }
  // Certification turns the silent loss into a machine-readable failure.
  const auto cert = pph::homotopy::certify(target_, s.solutions, 2);
  EXPECT_FALSE(cert.ok());
  EXPECT_FALSE(cert.count_ok());
}

TEST_F(SingularDeformation, FreshGammaRescueRecoversBothRoots) {
  SolveOptions opts;
  const auto s = pph::homotopy::track_and_summarize(h_, starts_, target_, opts, family());
  EXPECT_EQ(s.converged, 2u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.rescued_paths, 2u);
  EXPECT_GE(s.rescue_retracks, 2u);
  EXPECT_GE(s.rescue_seconds, 0.0);
  ASSERT_EQ(s.solutions.size(), 2u);
  for (const auto& p : s.paths) {
    EXPECT_TRUE(p.rescued);
    EXPECT_GE(p.rescue_attempts, 1u);
    EXPECT_NEAR(std::abs(p.x[0] - Complex{0, p.x[0].imag() > 0 ? 1.0 / 3.0 : -1.0 / 3.0}), 0.0,
                1e-9);
  }
  const auto cert = pph::homotopy::certify(target_, s.solutions, 2);
  EXPECT_TRUE(cert.ok()) << cert.summary();
}

// ---- certification properties -----------------------------------------------

std::vector<CVector> separated_points(std::size_t n) {
  std::vector<CVector> pts;
  for (std::size_t i = 0; i < n; ++i) pts.push_back({Complex{double(i), -double(i)}});
  return pts;
}

TEST(Certify, AcceptsACleanSet) {
  const auto pts = separated_points(4);
  const std::vector<double> res(4, 1e-12);
  const auto cert = pph::homotopy::certify_solution_set(pts, res, 4);
  EXPECT_TRUE(cert.ok());
  EXPECT_TRUE(cert.count_ok());
  EXPECT_TRUE(cert.residuals_ok());
  EXPECT_TRUE(cert.distinct_ok());
  EXPECT_EQ(cert.residual_ok, 4u);
  EXPECT_TRUE(std::isinf(cert.min_pairwise_distance));
  EXPECT_NE(cert.summary().find("certified"), std::string::npos);
  EXPECT_NE(cert.to_json().find("\"ok\":true"), std::string::npos);
}

TEST(Certify, RejectsADroppedSolution) {
  const auto pts = separated_points(3);
  const std::vector<double> res(3, 1e-12);
  const auto cert = pph::homotopy::certify_solution_set(pts, res, 4);
  EXPECT_FALSE(cert.count_ok());
  EXPECT_FALSE(cert.ok());
  EXPECT_NE(cert.summary().find("FAILED"), std::string::npos);
  EXPECT_NE(cert.to_json().find("\"ok\":false"), std::string::npos);
}

TEST(Certify, RejectsADuplicatedSolution) {
  auto pts = separated_points(4);
  pts.push_back({pts[2][0] + Complex{1e-9, 0}});
  const std::vector<double> res(5, 1e-12);
  // Count matches the (wrong) expectation of 5, so ONLY distinctness trips.
  const auto cert = pph::homotopy::certify_solution_set(pts, res, 5);
  EXPECT_TRUE(cert.count_ok());
  ASSERT_EQ(cert.duplicates.size(), 1u);
  EXPECT_EQ(cert.duplicates[0].a, 2u);
  EXPECT_EQ(cert.duplicates[0].b, 4u);
  EXPECT_FALSE(cert.distinct_ok());
  EXPECT_FALSE(cert.ok());
}

TEST(Certify, RejectsAPerturbedSolution) {
  const auto pts = separated_points(4);
  std::vector<double> res(4, 1e-12);
  res[1] = 1e-3;  // a perturbed/garbage endpoint shows up as residual
  const auto cert = pph::homotopy::certify_solution_set(pts, res, 4);
  EXPECT_TRUE(cert.count_ok());
  EXPECT_FALSE(cert.residuals_ok());
  EXPECT_FALSE(cert.ok());
  ASSERT_EQ(cert.residual_failures.size(), 1u);
  EXPECT_EQ(cert.residual_failures[0], 1u);
  EXPECT_DOUBLE_EQ(cert.max_residual, 1e-3);
}

TEST(Certify, ReportsNearDuplicatesWithoutFailing) {
  auto pts = separated_points(4);
  pts.push_back({pts[0][0] + Complex{5e-6, 0}});  // inside the 10x band
  const std::vector<double> res(5, 1e-12);
  const auto cert = pph::homotopy::certify_solution_set(pts, res, 5);
  EXPECT_TRUE(cert.ok());
  EXPECT_TRUE(cert.duplicates.empty());
  ASSERT_EQ(cert.near_duplicates.size(), 1u);
  EXPECT_NEAR(cert.near_duplicates[0].distance, 5e-6, 1e-9);
  EXPECT_NEAR(cert.min_pairwise_distance, 5e-6, 1e-9);
}

TEST(Certify, RequiresOneResidualPerSolution) {
  const auto pts = separated_points(3);
  const std::vector<double> res(2, 1e-12);
  EXPECT_THROW(pph::homotopy::certify_solution_set(pts, res, 3), std::invalid_argument);
}

TEST(Certify, ComputesResidualsAgainstTheTarget) {
  const PolySystem f = quadratic_system(Complex{4, 0});
  const std::vector<CVector> roots{{Complex{2, 0}}, {Complex{-2, 0}}};
  EXPECT_TRUE(pph::homotopy::certify(f, roots, 2).ok());
  const std::vector<CVector> wrong{{Complex{2, 0}}, {Complex{3, 0}}};
  const auto cert = pph::homotopy::certify(f, wrong, 2);
  EXPECT_FALSE(cert.ok());
  EXPECT_FALSE(cert.residuals_ok());
}

// ---- Pieri solves certified against the exact chain count -------------------

TEST(PieriCertify, RandomInstancesCertifyAgainstChainCount) {
  for (std::uint64_t seed : {1, 2, 3}) {
    Prng rng(seed);
    const auto input =
        pph::schubert::random_pieri_input(PieriProblem{2, 2, 2}, rng);
    const auto summary = pph::schubert::solve_pieri(input);
    EXPECT_TRUE(summary.complete()) << "seed " << seed;
    const auto cert = pph::schubert::certify_pieri(input, summary);
    EXPECT_TRUE(cert.ok()) << "seed " << seed << ": " << cert.summary();
    EXPECT_EQ(cert.expected_count, 32u);
  }
}

TEST(PieriCertify, ForcedRescueKeepsTheSolutionSetComplete) {
  // suspect_residual = 0 marks every converged path suspect, forcing the
  // targeted re-track machinery through its full budget on every instance;
  // the solve must still certify and carry rescue provenance.
  Prng rng(7);
  const auto input = pph::schubert::random_pieri_input(PieriProblem{2, 2, 1}, rng);
  PieriSolverOptions opts;
  opts.suspect_residual = 0.0;
  const auto summary = pph::schubert::solve_pieri(input, opts);
  EXPECT_TRUE(summary.complete());
  EXPECT_TRUE(pph::schubert::certify_pieri(input, summary).ok());
  EXPECT_GT(summary.rescue_retracks, 0u);
  EXPECT_GT(summary.suspect_paths, 0u);
  EXPECT_GT(summary.rescued_instances, 0u);
}

// ---- fault injection: rescue re-tracks are scheduling-invariant -------------

TEST(PieriRescueFaultInjection, KilledSlaveLeavesRescueBitIdentical) {
  Prng rng(42);
  const auto input = pph::schubert::random_pieri_input(PieriProblem{2, 2, 1}, rng);
  pph::sched::ParallelPieriOptions opts;
  opts.solver.suspect_residual = 0.0;  // force rescue rounds on every instance
  const auto healthy = pph::sched::run_pieri(input, 4, opts);
  ASSERT_TRUE(healthy.complete());
  EXPECT_GT(healthy.rescue_retracks, 0u);
  EXPECT_GT(healthy.rescued_instances, 0u);
  EXPECT_GT(healthy.suspect_paths, 0u);

  pph::sched::ParallelPieriOptions kill = opts;
  kill.fault_plan.kill_announced(/*rank=*/2, /*after_jobs=*/3);
  const auto wounded = pph::sched::run_pieri(input, 4, kill);
  EXPECT_TRUE(wounded.complete());
  // The re-queued rescue re-tracks are deterministic, so the canonical
  // solution set and the rescue ledger both survive the death untouched.
  EXPECT_EQ(wounded.rescue_retracks, healthy.rescue_retracks);
  EXPECT_EQ(wounded.rescued_instances, healthy.rescued_instances);
  const auto a = pph::sched::canonical_solution_set(healthy.solutions);
  const auto b = pph::sched::canonical_solution_set(wounded.solutions);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (std::size_t k = 0; k < a[i].size(); ++k) {
      EXPECT_EQ(a[i][k].real(), b[i][k].real());
      EXPECT_EQ(a[i][k].imag(), b[i][k].imag());
    }
  }
}

TEST(PieriRescueFaultInjection, SequentialAndParallelAgreeOnTheRootCount) {
  Prng rng(11);
  const auto input = pph::schubert::random_pieri_input(PieriProblem{2, 2, 1}, rng);
  const auto sequential = pph::schubert::solve_pieri(input);
  const auto parallel = pph::sched::run_pieri(input, 3);
  EXPECT_TRUE(sequential.complete());
  EXPECT_TRUE(parallel.complete());
  EXPECT_EQ(parallel.solutions.size(), sequential.solutions.size());
}

// ---- the (2,2,4) seed sweep (the paper-scale known-loss replay) -------------

// Seeds 1..6 of the (2,2,4) problem historically lost 16-72 paths each to
// mid-path jumps and interior near-singular points (EXPERIMENTS.md Table
// IV).  With the rescue tier on, every seed must reach the full certified
// 512.  ~80s in Release, so the deep sweep only runs when PPH_ENDGAME_DEEP
// is set (the Release CI leg); the suites above cover the machinery at
// unit scale on every leg.
TEST(EndgameDeep, HistoricallyLossySeedsCertifyComplete) {
  if (std::getenv("PPH_ENDGAME_DEEP") == nullptr) {
    GTEST_SKIP() << "set PPH_ENDGAME_DEEP=1 to run the (2,2,4) seed sweep";
  }
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Prng rng(seed);
    const auto input =
        pph::schubert::random_pieri_input(PieriProblem{2, 2, 4}, rng);
    const auto summary = pph::schubert::solve_pieri(input);
    EXPECT_TRUE(summary.complete()) << "seed " << seed;
    EXPECT_EQ(summary.solutions.size(), 512u) << "seed " << seed;
    const auto cert = pph::schubert::certify_pieri(input, summary);
    EXPECT_TRUE(cert.ok()) << "seed " << seed << ": " << cert.summary();
  }
}

}  // namespace
