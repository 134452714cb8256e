// Churn oracle for the incremental admission controller.
//
// The contract of core/admission.hpp is strong: after ANY sequence of
// arrivals, departures, and budget updates, AdmissionController::current()
// is *bit-identical* to admission_check() run from scratch over the
// resident set — same booleans, same x down to the last ulp. These tests
// drive randomized churn sequences (mixed criticalities, constrained
// deadlines, near-saturation sets, eps-tied deadline instants, exact-U=1
// hyperperiod sets) through both departure-rebuild modes and check the
// contract after every single step, along with the safety invariant that
// the resident set is never in a known-infeasible state. The
// DemandBackend suites extend the oracle to the kDemand escalation:
// the deadline-tightening search admits a strict superset of the
// utilization backend, and the incremental verdict (including the
// demand_admitted/demand_x fields) stays bit-identical under churn.
#include "core/admission.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sched/dbf.hpp"
#include "sched/edf_vd.hpp"

namespace mcs::core {
namespace {

void expect_verdict_eq(const AdmissionVerdict& incremental,
                       const AdmissionVerdict& scratch,
                       const std::string& context) {
  EXPECT_EQ(incremental.admitted, scratch.admitted) << context;
  EXPECT_EQ(incremental.vd.schedulable, scratch.vd.schedulable) << context;
  EXPECT_EQ(incremental.vd.plain_edf, scratch.vd.plain_edf) << context;
  // Bitwise, not EXPECT_DOUBLE_EQ: the incremental fold must reproduce
  // the exact double, not a neighbour.
  EXPECT_EQ(std::memcmp(&incremental.vd.x, &scratch.vd.x, sizeof(double)), 0)
      << context << "  x_inc=" << incremental.vd.x
      << " x_scratch=" << scratch.vd.x;
  EXPECT_EQ(incremental.dbf_schedulable, scratch.dbf_schedulable) << context;
  EXPECT_EQ(incremental.dbf_inconclusive, scratch.dbf_inconclusive)
      << context;
  EXPECT_EQ(incremental.demand_admitted, scratch.demand_admitted) << context;
  EXPECT_EQ(std::memcmp(&incremental.demand_x, &scratch.demand_x,
                        sizeof(double)),
            0)
      << context << "  demand_x_inc=" << incremental.demand_x
      << " demand_x_scratch=" << scratch.demand_x;
}

/// The resident set must never be known-infeasible: either the base
/// verdict holds (EDF-VD plus a verified-or-inconclusive demand scan) or,
/// under kDemand, the deadline-tightening search holds a certificate.
void expect_never_infeasible(const AdmissionVerdict& v,
                             const std::string& context) {
  const bool base_holds =
      v.vd.schedulable && (v.dbf_schedulable || v.dbf_inconclusive);
  EXPECT_TRUE(base_holds || v.demand_admitted) << context;
}

struct ChurnProfile {
  double u_lo = 0.01;   ///< per-task LO utilization range
  double u_hi = 0.12;
  double constrained_p = 0.0;  ///< probability of a constrained deadline
  bool integral_periods = false;
};

mc::McTask random_task(common::Rng& rng, int serial,
                       const ChurnProfile& profile) {
  const bool hc = rng.bernoulli(0.4);
  double period;
  if (profile.integral_periods) {
    // Harmonic-ish integral periods keep hyperperiods computable for the
    // U ≈ 1 branch.
    const double choices[] = {8.0, 10.0, 16.0, 20.0, 40.0};
    period = choices[rng.uniform_u64(0, 4)];
  } else {
    period = std::pow(10.0, rng.uniform(1.0, 3.0));
  }
  const double u = rng.uniform(profile.u_lo, profile.u_hi);
  const double wcet_lo = std::max(1e-6, u * period);
  const std::string name = "t" + std::to_string(serial);
  mc::McTask task;
  if (hc) {
    const double wcet_hi =
        std::min(period, wcet_lo * rng.uniform(1.3, 3.0));
    task = mc::McTask::high(name, wcet_lo, wcet_hi, period);
  } else {
    task = mc::McTask::low(name, wcet_lo, period);
  }
  if (profile.constrained_p > 0.0 && rng.bernoulli(profile.constrained_p)) {
    const double floor_d = task.wcet_hi;
    task.deadline_override = rng.uniform(
        std::min(period, std::max(floor_d, 0.4 * period)), period);
    if (!task.valid()) task.deadline_override = 0.0;  // keep implicit
  }
  return task;
}

/// One randomized churn sequence: ~30 steps of arrive/depart/update, the
/// oracle checked after every step. `stats_out`, when given, receives the
/// final controller stats so callers can assert the exercised paths
/// (gtest ASSERT_* forces a void return type here).
void run_churn_sequence(
    std::uint64_t seed, const ChurnProfile& profile, bool eager,
    AdmissionBackend backend = AdmissionBackend::kUtilization,
    AdmissionController::Stats* stats_out = nullptr) {
  common::Rng rng(seed);
  AdmissionController::Config config;
  config.eager_departure_rebuild = eager;
  config.backend = backend;
  AdmissionController ctl(config);
  std::vector<std::uint64_t> ids;
  int serial = 0;
  for (int step = 0; step < 30; ++step) {
    const std::string context = "seed=" + std::to_string(seed) +
                                " step=" + std::to_string(step) +
                                (eager ? " eager" : " lazy");
    const double r = rng.uniform01();
    if (r < 0.55 || ids.empty()) {
      const mc::McTask task = random_task(rng, serial++, profile);
      // Build the candidate set BEFORE mutating, then compare verdicts.
      mc::TaskSet candidate = ctl.resident_set();
      candidate.add(task);
      const AdmissionVerdict scratch = admission_check(candidate, backend);
      const AdmissionController::Decision d = ctl.try_admit(task);
      expect_verdict_eq(d.verdict, scratch, context + " (arrival)");
      if (d.admitted) ids.push_back(d.id);
      EXPECT_EQ(d.admitted, scratch.admitted) << context;
    } else if (r < 0.85) {
      const std::size_t pick = rng.uniform_u64(0, ids.size() - 1);
      ASSERT_TRUE(ctl.remove(ids[pick])) << context;
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const std::size_t pick = rng.uniform_u64(0, ids.size() - 1);
      const mc::McTask* task = ctl.find(ids[pick]);
      ASSERT_NE(task, nullptr) << context;
      const double scale = rng.uniform(0.7, 1.3);
      double new_wcet = task->wcet_lo * scale;
      if (task->criticality == mc::Criticality::kHigh)
        new_wcet = std::min(new_wcet, task->wcet_hi);
      new_wcet = std::max(new_wcet, 1e-9);
      if (task->criticality == mc::Criticality::kLow &&
          new_wcet > task->deadline())
        new_wcet = task->deadline();
      const AdmissionController::UpdateResult res =
          ctl.try_update(ids[pick], new_wcet);
      // Verify the reported verdict against a from-scratch build of the
      // modified set (whether applied or not).
      mc::TaskSet modified = ctl.resident_set();
      if (!res.applied) {
        // Re-apply the attempted change by name.
        for (std::size_t i = 0; i < modified.size(); ++i) {
          if (modified[i].name != task->name) continue;
          modified[i].wcet_lo = new_wcet;
          if (modified[i].criticality == mc::Criticality::kLow)
            modified[i].wcet_hi = new_wcet;
        }
      }
      expect_verdict_eq(res.verdict, admission_check(modified, backend),
                        context + " (update)");
    }
    // The standing contract: current() is bit-identical to a from-scratch
    // recompute of the resident set, and that set is never infeasible.
    expect_verdict_eq(ctl.current(),
                      admission_check(ctl.resident_set(), backend),
                      context + " (resident)");
    expect_never_infeasible(ctl.current(), context);
    EXPECT_EQ(ctl.resident_count(), ids.size()) << context;
  }
  if (stats_out != nullptr) *stats_out = ctl.stats();
}

// ~200 randomized sequences over both departure modes and three churn
// profiles (the ISSUE's oracle requirement). Light per-sequence cost
// keeps the suite in test-suite time budget.
TEST(AdmissionOracle, RandomChurnImplicitDeadlines) {
  ChurnProfile profile;
  for (std::uint64_t seq = 0; seq < 60; ++seq)
    run_churn_sequence(common::index_seed(9001, seq), profile,
                       /*eager=*/(seq % 2) == 0);
}

TEST(AdmissionOracle, RandomChurnConstrainedDeadlines) {
  ChurnProfile profile;
  profile.constrained_p = 0.35;
  for (std::uint64_t seq = 0; seq < 60; ++seq)
    run_churn_sequence(common::index_seed(9002, seq), profile,
                       /*eager=*/(seq % 2) == 1);
}

TEST(AdmissionOracle, RandomChurnNearSaturation) {
  // Fat tasks saturate the processor quickly: plenty of rejections, x
  // factors near the feasibility edge, and integral periods that push
  // sets into the U ≈ 1 hyperperiod branch.
  ChurnProfile profile;
  profile.u_lo = 0.10;
  profile.u_hi = 0.35;
  profile.constrained_p = 0.25;
  profile.integral_periods = true;
  for (std::uint64_t seq = 0; seq < 80; ++seq)
    run_churn_sequence(common::index_seed(9003, seq), profile,
                       /*eager=*/(seq % 2) == 0);
}

TEST(AdmissionOracle, EmptyControllerMatchesScratch) {
  AdmissionController ctl;
  expect_verdict_eq(ctl.current(), admission_check(mc::TaskSet{}), "empty");
  EXPECT_TRUE(ctl.current().admitted);
  EXPECT_EQ(ctl.resident_count(), 0u);
}

TEST(AdmissionOracle, RejectionLeavesStateUntouched) {
  AdmissionController ctl;
  ASSERT_TRUE(ctl.try_admit(mc::McTask::low("a", 4.0, 10.0)).admitted);
  const AdmissionVerdict before = ctl.current();
  // 0.4 + 0.9 > 1: EDF-VD and the demand test both fail.
  const AdmissionController::Decision d =
      ctl.try_admit(mc::McTask::low("hog", 9.0, 10.0));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.id, 0u);
  EXPECT_FALSE(d.verdict.vd.schedulable);
  EXPECT_TRUE(verdict_equal(ctl.current(), before));
  EXPECT_EQ(ctl.resident_count(), 1u);
  expect_verdict_eq(ctl.current(), admission_check(ctl.resident_set()),
                    "after reject");
}

TEST(AdmissionOracle, RemoveUnknownIdIsFalse) {
  AdmissionController ctl;
  EXPECT_FALSE(ctl.remove(42));
  ASSERT_TRUE(ctl.try_admit(mc::McTask::low("a", 1.0, 10.0)).admitted);
  EXPECT_FALSE(ctl.remove(999));
  EXPECT_EQ(ctl.resident_count(), 1u);
}

TEST(AdmissionOracle, ResidentSetPreservesAdmissionOrder) {
  AdmissionController ctl;
  ASSERT_TRUE(ctl.try_admit(mc::McTask::low("first", 1.0, 10.0)).admitted);
  ASSERT_TRUE(
      ctl.try_admit(mc::McTask::high("second", 1.0, 2.0, 20.0)).admitted);
  ASSERT_TRUE(ctl.try_admit(mc::McTask::low("third", 1.0, 40.0)).admitted);
  const auto d2 = ctl.resident_set();
  ASSERT_EQ(d2.size(), 3u);
  EXPECT_EQ(d2[0].name, "first");
  EXPECT_EQ(d2[1].name, "second");
  EXPECT_EQ(d2[2].name, "third");
  // Removing the middle task keeps relative order.
  std::uint64_t second_id = 0;
  for (std::uint64_t id = 1; id <= 3; ++id)
    if (ctl.find(id) && ctl.find(id)->name == "second") second_id = id;
  ASSERT_TRUE(ctl.remove(second_id));
  const auto d3 = ctl.resident_set();
  ASSERT_EQ(d3.size(), 2u);
  EXPECT_EQ(d3[0].name, "first");
  EXPECT_EQ(d3[1].name, "third");
  expect_verdict_eq(ctl.current(), admission_check(ctl.resident_set()),
                    "after middle removal");
}

TEST(AdmissionOracle, EpsTiedDeadlinesMatchScratch) {
  // Deadline instants within kDbfEps of each other exercise the dedup
  // anchor bookkeeping in the cached trace: t2's first deadline lands
  // 0.4 eps after t1's, and t3's lands between them on arrival.
  AdmissionController ctl;
  mc::McTask t1 = mc::McTask::low("t1", 1.0, 10.0);
  mc::McTask t2 = mc::McTask::low("t2", 1.0, 10.0 + 0.4e-9);
  mc::McTask t3 = mc::McTask::low("t3", 1.0, 10.0 + 0.2e-9);
  for (const mc::McTask& t : {t1, t2, t3}) {
    mc::TaskSet candidate = ctl.resident_set();
    candidate.add(t);
    const AdmissionVerdict scratch = admission_check(candidate);
    const auto d = ctl.try_admit(t);
    expect_verdict_eq(d.verdict, scratch, "eps-tie arrival " + t.name);
    expect_verdict_eq(ctl.current(), admission_check(ctl.resident_set()),
                      "eps-tie resident " + t.name);
  }
}

TEST(AdmissionOracle, ExactFullUtilizationHyperperiodBranch) {
  // U == 1 exactly: the from-scratch scan uses the hyperperiod horizon;
  // the append path must reproduce the same horizon fold — including the
  // arrival that *enters* the U ≈ 1 branch (horizon can shrink).
  AdmissionController ctl;
  const mc::McTask a = mc::McTask::low("a", 4.0, 8.0);     // u = 0.5
  const mc::McTask b = mc::McTask::low("b", 4.0, 16.0);    // u = 0.25
  const mc::McTask c = mc::McTask::low("c", 10.0, 40.0);   // u = 0.25
  for (const mc::McTask& t : {a, b, c}) {
    mc::TaskSet candidate = ctl.resident_set();
    candidate.add(t);
    const AdmissionVerdict scratch = admission_check(candidate);
    const auto d = ctl.try_admit(t);
    expect_verdict_eq(d.verdict, scratch, "U=1 arrival " + t.name);
  }
  expect_verdict_eq(ctl.current(), admission_check(ctl.resident_set()),
                    "U=1 resident");
  // Departure from the exact-U=1 set (lazy mode covered by churn tests).
  ASSERT_TRUE(ctl.remove(1));
  expect_verdict_eq(ctl.current(), admission_check(ctl.resident_set()),
                    "U=1 after departure");
}

TEST(AdmissionOracle, LazyAndEagerModesAgreeOnVerdicts) {
  common::Rng rng(77);
  AdmissionController::Config lazy_cfg;
  lazy_cfg.eager_departure_rebuild = false;
  AdmissionController eager;  // default config is eager
  AdmissionController lazy(lazy_cfg);
  std::vector<std::uint64_t> eager_ids;
  std::vector<std::uint64_t> lazy_ids;
  ChurnProfile profile;
  profile.u_lo = 0.05;
  profile.u_hi = 0.2;
  int serial = 0;
  for (int step = 0; step < 60; ++step) {
    if (rng.uniform01() < 0.6 || eager_ids.empty()) {
      const mc::McTask task = random_task(rng, serial++, profile);
      const auto de = eager.try_admit(task);
      const auto dl = lazy.try_admit(task);
      EXPECT_TRUE(verdict_equal(de.verdict, dl.verdict)) << "step " << step;
      if (de.admitted) eager_ids.push_back(de.id);
      if (dl.admitted) lazy_ids.push_back(dl.id);
      ASSERT_EQ(eager_ids.size(), lazy_ids.size());
    } else {
      const std::size_t pick = rng.uniform_u64(0, eager_ids.size() - 1);
      ASSERT_TRUE(eager.remove(eager_ids[pick]));
      ASSERT_TRUE(lazy.remove(lazy_ids[pick]));
      eager_ids.erase(eager_ids.begin() + static_cast<std::ptrdiff_t>(pick));
      lazy_ids.erase(lazy_ids.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    EXPECT_TRUE(verdict_equal(eager.current(), lazy.current()))
        << "step " << step;
  }
  // The lazy mode must actually have taken shortcuts for this test to
  // mean anything.
  EXPECT_GT(lazy.stats().shortcut_departures, 0u);
  EXPECT_EQ(eager.stats().shortcut_departures, 0u);
}

TEST(AdmissionOracle, AppendPathIsActuallyUsed) {
  // The incrementality claim: under arrival-only churn, every decision
  // after the first rides the cached append path; full scans stay O(1)
  // in the number of arrivals.
  AdmissionController ctl;
  common::Rng rng(31);
  ChurnProfile profile;
  int serial = 0;
  for (int i = 0; i < 40; ++i)
    (void)ctl.try_admit(random_task(rng, serial++, profile));
  EXPECT_EQ(ctl.stats().arrivals, 40u);
  EXPECT_EQ(ctl.stats().append_scans, 40u);
  EXPECT_EQ(ctl.stats().full_scans, 0u);
  // Eager departures rebuild immediately; arrivals stay on the append
  // path afterwards.
  const auto ids = [&] {
    std::vector<std::uint64_t> v;
    for (std::uint64_t id = 1; id <= 40; ++id)
      if (ctl.find(id)) v.push_back(id);
    return v;
  }();
  ASSERT_FALSE(ids.empty());
  ASSERT_TRUE(ctl.remove(ids[ids.size() / 2]));
  EXPECT_EQ(ctl.stats().full_scans, 1u);
  (void)ctl.try_admit(random_task(rng, serial++, profile));
  EXPECT_EQ(ctl.stats().append_scans, 41u);
  EXPECT_EQ(ctl.stats().full_scans, 1u);
}

TEST(AdmissionOracle, UpdateRejectionKeepsOldBudget) {
  AdmissionController ctl;
  ASSERT_TRUE(ctl.try_admit(mc::McTask::low("a", 4.0, 10.0)).admitted);
  const auto d = ctl.try_admit(mc::McTask::low("b", 4.0, 10.0));
  ASSERT_TRUE(d.admitted);
  // Inflating b to u = 0.7 overloads the processor: rejected, old budget
  // and verdict stand.
  const auto res = ctl.try_update(d.id, 7.0);
  EXPECT_FALSE(res.applied);
  EXPECT_FALSE(res.verdict.admitted);
  EXPECT_EQ(ctl.find(d.id)->wcet_lo, 4.0);
  EXPECT_TRUE(ctl.current().admitted);
  expect_verdict_eq(ctl.current(), admission_check(ctl.resident_set()),
                    "after rejected update");
  EXPECT_EQ(ctl.stats().updates_rejected, 1u);
  // A feasible shrink applies.
  const auto ok = ctl.try_update(d.id, 3.0);
  EXPECT_TRUE(ok.applied);
  EXPECT_EQ(ctl.find(d.id)->wcet_lo, 3.0);
  expect_verdict_eq(ctl.current(), admission_check(ctl.resident_set()),
                    "after applied update");
}

// --- kDemand backend: deadline-tightening escalation -----------------

// A concrete set where Eq. 8 rejects but the demand-based search holds a
// certificate (found by randomized probing, pinned here): the LO-mode
// demand test passes at the true deadlines, and x = 7/24 satisfies both
// mode scans.
mc::TaskSet demand_flip_set() {
  mc::TaskSet set;
  set.add(mc::McTask::low("lc_a", 9.5, 37.5));
  set.add(mc::McTask::high("hc_b", 3.0, 8.25, 11.75));
  set.add(mc::McTask::low("lc_c", 43.0, 90.5));
  return set;
}

TEST(DemandBackend, FlipCertificateExample) {
  const mc::TaskSet set = demand_flip_set();
  const AdmissionVerdict base =
      admission_check(set, AdmissionBackend::kUtilization);
  EXPECT_FALSE(base.admitted);
  EXPECT_FALSE(base.vd.schedulable);
  EXPECT_TRUE(base.dbf_schedulable);
  EXPECT_FALSE(base.demand_admitted);  // never set under kUtilization
  EXPECT_EQ(base.demand_x, 0.0);

  const AdmissionVerdict dem = admission_check(set, AdmissionBackend::kDemand);
  EXPECT_TRUE(dem.admitted);
  EXPECT_TRUE(dem.demand_admitted);
  EXPECT_EQ(dem.demand_x, 7.0 / 24.0);
  // The escalation only ever flips rejections: the base fields still
  // record the rejected utilization verdict.
  EXPECT_FALSE(dem.vd.schedulable);

  // The search agrees when invoked directly.
  const sched::DemandVdResult search = sched::edf_vd_demand_search(set);
  EXPECT_TRUE(search.schedulable);
  EXPECT_EQ(search.x, 7.0 / 24.0);
}

TEST(DemandBackend, ControllerAdmitsWhatUtilizationRejects) {
  AdmissionController::Config config;
  config.backend = AdmissionBackend::kDemand;
  AdmissionController demand_ctl(config);
  AdmissionController util_ctl;  // default backend
  const mc::TaskSet set = demand_flip_set();
  for (std::size_t i = 0; i < set.size(); ++i) {
    const bool last = i + 1 == set.size();
    EXPECT_TRUE(demand_ctl.try_admit(set[i]).admitted) << set[i].name;
    EXPECT_EQ(util_ctl.try_admit(set[i]).admitted, !last) << set[i].name;
  }
  EXPECT_EQ(demand_ctl.resident_count(), 3u);
  EXPECT_EQ(util_ctl.resident_count(), 2u);
  EXPECT_TRUE(demand_ctl.current().demand_admitted);
  EXPECT_GE(demand_ctl.stats().demand_searches, 1u);
  EXPECT_EQ(demand_ctl.stats().demand_admissions, 1u);
  EXPECT_EQ(util_ctl.stats().demand_searches, 0u);
  // The incremental demand-backend verdict matches the from-scratch one,
  // including after a departure from a demand-certified set.
  expect_verdict_eq(demand_ctl.current(),
                    admission_check(demand_ctl.resident_set(),
                                    AdmissionBackend::kDemand),
                    "demand resident");
  ASSERT_TRUE(demand_ctl.remove(1));
  expect_verdict_eq(demand_ctl.current(),
                    admission_check(demand_ctl.resident_set(),
                                    AdmissionBackend::kDemand),
                    "demand after departure");
  expect_never_infeasible(demand_ctl.current(), "demand after departure");
}

TEST(DemandBackend, AcceptsSupersetOfUtilization) {
  // Over randomized mixed sets: every utilization-admitted set is
  // demand-admitted (the escalation never flips an admission), and at
  // least one rejection flips (the backend is not a no-op).
  common::Rng rng(1);
  int flips = 0;
  for (int trial = 0; trial < 600; ++trial) {
    mc::TaskSet set;
    const int n = 2 + static_cast<int>(rng.uniform_u64(0, 3));
    for (int i = 0; i < n; ++i) {
      const bool hc = rng.bernoulli(0.5);
      const double period = std::pow(10.0, rng.uniform(1.0, 2.0));
      const double wcet_lo = std::max(1e-6, rng.uniform(0.1, 0.5) * period);
      mc::McTask task;
      if (hc) {
        const double wcet_hi =
            std::min(period, wcet_lo * rng.uniform(1.3, 3.0));
        task = mc::McTask::high(std::string("h").append(std::to_string(i)),
                                wcet_lo, wcet_hi, period);
      } else {
        task = mc::McTask::low(std::string("l").append(std::to_string(i)),
                               wcet_lo, period);
      }
      if (rng.bernoulli(0.5)) {
        task.deadline_override =
            rng.uniform(std::max(task.wcet_hi, 0.4 * period), period);
        if (!task.valid()) task.deadline_override = 0.0;
      }
      set.add(task);
    }
    if (!set.valid()) continue;
    const AdmissionVerdict base =
        admission_check(set, AdmissionBackend::kUtilization);
    const AdmissionVerdict dem =
        admission_check(set, AdmissionBackend::kDemand);
    EXPECT_FALSE(base.admitted && !dem.admitted) << "trial " << trial;
    if (!base.admitted && dem.admitted) {
      ++flips;
      EXPECT_TRUE(dem.demand_admitted) << "trial " << trial;
      EXPECT_GT(dem.demand_x, 0.0) << "trial " << trial;
      EXPECT_LT(dem.demand_x, 1.0) << "trial " << trial;
    }
  }
  EXPECT_GT(flips, 0);
}

TEST(DemandBackend, RandomChurnMatchesScratch) {
  // The churn oracle under kDemand: the incremental verdict (including
  // the demand_admitted/demand_x fields) stays bit-identical to a
  // from-scratch admission_check at every step. The fat profile drives
  // plenty of rejections, so the escalation path actually runs.
  ChurnProfile profile;
  profile.u_lo = 0.10;
  profile.u_hi = 0.35;
  profile.constrained_p = 0.25;
  std::uint64_t searches = 0;
  std::uint64_t admissions = 0;
  for (std::uint64_t seq = 0; seq < 40; ++seq) {
    AdmissionController::Stats stats;
    run_churn_sequence(common::index_seed(9004, seq), profile,
                       /*eager=*/(seq % 2) == 0, AdmissionBackend::kDemand,
                       &stats);
    searches += stats.demand_searches;
    admissions += stats.demand_admissions;
  }
  EXPECT_GT(searches, 0u);
  EXPECT_LE(admissions, searches);
}

TEST(DemandBackend, SearchValidationAndNoHcCase) {
  EXPECT_THROW((void)sched::edf_vd_demand_search(demand_flip_set(), 1),
               std::invalid_argument);
  // No HC task: no mode switch exists, LO-mode EDF at the true deadlines
  // decides and the factor is reported as 1.
  mc::TaskSet lc_only;
  lc_only.add(mc::McTask::low("a", 2.0, 10.0));
  lc_only.add(mc::McTask::low("b", 3.0, 12.0));
  const sched::DemandVdResult res = sched::edf_vd_demand_search(lc_only);
  EXPECT_TRUE(res.schedulable);
  EXPECT_EQ(res.x, 1.0);
  // The combined test takes the Eq. 8 shortcut on easy implicit sets.
  mc::TaskSet easy;
  easy.add(mc::McTask::low("a", 1.0, 10.0));
  easy.add(mc::McTask::high("b", 1.0, 2.0, 10.0));
  const sched::DemandVdResult combined = sched::edf_vd_demand_test(easy);
  EXPECT_TRUE(combined.schedulable);
  EXPECT_TRUE(combined.via_eq8);
}

TEST(DemandBackend, BackendNamesRoundTrip) {
  EXPECT_EQ(to_string(AdmissionBackend::kUtilization), "utilization");
  EXPECT_EQ(to_string(AdmissionBackend::kDemand), "demand");
  EXPECT_EQ(parse_admission_backend("utilization"),
            AdmissionBackend::kUtilization);
  EXPECT_EQ(parse_admission_backend("util"), AdmissionBackend::kUtilization);
  EXPECT_EQ(parse_admission_backend("eq8"), AdmissionBackend::kUtilization);
  EXPECT_EQ(parse_admission_backend("demand"), AdmissionBackend::kDemand);
  EXPECT_THROW((void)parse_admission_backend("dbf"), std::invalid_argument);
  EXPECT_THROW((void)parse_admission_backend(""), std::invalid_argument);
}

TEST(AdmissionOracle, InvalidInputsThrow) {
  AdmissionController ctl;
  mc::McTask bad = mc::McTask::low("bad", 0.0, 10.0);  // wcet_lo = 0
  EXPECT_THROW((void)ctl.try_admit(bad), std::invalid_argument);
  EXPECT_THROW((void)ctl.try_update(7, 1.0), std::invalid_argument);
  ASSERT_TRUE(ctl.try_admit(mc::McTask::low("a", 1.0, 10.0)).admitted);
  EXPECT_THROW((void)ctl.try_update(1, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace mcs::core
