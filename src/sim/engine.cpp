#include "sim/engine.hpp"

#include "common/reservoir.hpp"
#include "common/thread_pool.hpp"
#include "sim/event_queue.hpp"
#include "sim/trace_sink.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

namespace mcs::sim {

namespace {

constexpr double kTimeEps = 1e-9;

/// A released, not-yet-finished job instance, held in an arena slot.
struct Job {
  std::uint32_t task = 0;
  std::uint64_t seq = 0;  ///< global release order (FIFO tie-break key)
  common::Millis release = 0.0;
  common::Millis deadline = 0.0;          ///< absolute (real) deadline
  common::Millis virtual_deadline = 0.0;  ///< dispatch key for HC in LO mode
  common::Millis exec_total = 0.0;        ///< this instance's true demand
  common::Millis exec_done = 0.0;
  common::Millis budget = 0.0;            ///< allowed execution (C^LO/C^HI)
  bool hc = false;
  bool overran = false;  ///< already counted as a C^LO overrun
  bool degraded = false; ///< running under a degraded LC budget
  bool live = false;     ///< slot currently holds a pending job
};

/// Heap payload: arena slot plus the job's seq, so a reused slot can be
/// told apart from a stale heap entry of its previous occupant.
struct JobRef {
  std::uint32_t slot = 0;
  std::uint64_t seq = 0;
};

/// Draws one job's actual execution demand for `task`.
common::Millis draw_execution_time(const mc::McTask& task,
                                   const SimConfig& config,
                                   common::Rng& rng) {
  if (task.stats.has_value() && task.stats->distribution != nullptr) {
    const double sample = task.stats->distribution->sample(rng);
    // Certified bound: no job may demand more than C^HI; and every job
    // needs some positive demand.
    return std::clamp(sample, kTimeEps, task.wcet_hi);
  }
  const double fraction =
      rng.uniform(config.exec_fraction_lo, config.exec_fraction_hi);
  return std::max(kTimeEps, fraction * task.wcet_lo);
}

}  // namespace

// The ready set is indexed, not scanned: per-class EventQueue min-heaps
// keyed on the dispatch (effective) deadline give the EDF pick in O(log n),
// a deadline heap over every pending job gives expiry processing and the
// step bound in O(log n), and a per-task next-release heap replaces the
// all-tasks release rescan. Heap removal is lazy — a popped JobRef whose
// (slot, seq) no longer matches a live arena job is a stale entry of a
// completed/dropped job and is discarded. Everything remains bit-identical
// to the historical linear-scan engine: ties resolve by release order
// (seq), releases are processed in task-index order so the shared RNG
// stream is consumed in the historical order, and mode-switch sweeps walk
// jobs in release order.
SimResult simulate(const mc::TaskSet& tasks, const SimConfig& config) {
  if (!tasks.valid())
    throw std::invalid_argument("simulate: invalid task set");
  if (config.horizon <= 0.0)
    throw std::invalid_argument("simulate: horizon must be > 0");
  if (config.x <= 0.0 || config.x > 1.0)
    throw std::invalid_argument("simulate: x must be in (0, 1]");
  if (config.lc_policy == LcPolicy::kServer &&
      (config.server_capacity <= 0.0 || config.server_period <= 0.0))
    throw std::invalid_argument(
        "simulate: server policy requires positive capacity and period");
  if (config.release_jitter < 0.0)
    throw std::invalid_argument("simulate: release_jitter must be >= 0");

  SimResult result;
  result.trace = Trace(config.trace_capacity);
  SimMetrics& m = result.metrics;
  m.horizon = config.horizon;
  m.per_task.resize(tasks.size());
  Trace& trace = result.trace;

  // Event recording is skipped wholesale when neither the in-memory trace
  // nor the binary sink is attached — the hot path then never constructs
  // a TraceEvent.
  std::unique_ptr<BinaryTraceWriter> sink;
  const bool mem_trace = trace.enabled();
  if (mem_trace || !config.trace_binary_path.empty()) {
    std::vector<std::string> names;
    names.reserve(tasks.size());
    for (const mc::McTask& task : tasks) names.push_back(task.name);
    if (!config.trace_binary_path.empty())
      sink = std::make_unique<BinaryTraceWriter>(config.trace_binary_path,
                                                 names);
    if (mem_trace) trace.set_task_names(std::move(names));
  }
  const bool tracing = mem_trace || sink != nullptr;
  auto record = [&](const TraceEvent& event) {
    if (mem_trace) trace.record(event);
    if (sink) sink->record(event);
  };
  auto record_kind = [&](common::Millis time, TraceEventKind kind,
                         std::uint32_t task) {
    record(TraceEvent{time, kind, task});
  };

  common::Rng rng(config.seed);
  mc::Mode mode = mc::Mode::kLow;
  common::Millis now = 0.0;
  common::Millis hi_since = 0.0;
  common::Millis pending_overhead = 0.0;
  std::size_t last_task = static_cast<std::size_t>(-1);
  common::Millis last_release = -1.0;
  // LC budget server (LcPolicy::kServer): polling-style replenishment.
  double server_budget = config.server_capacity;
  common::Millis next_replenish = config.server_period;
  const bool server_mode = config.lc_policy == LcPolicy::kServer;
  // Optional response-time reservoirs (one per task).
  std::vector<common::ReservoirSampler> response_samplers;
  if (config.response_reservoir > 0) {
    response_samplers.reserve(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i)
      response_samplers.emplace_back(config.response_reservoir,
                                     config.seed + 977 * (i + 1));
  }

  // Job arena with free-list slot reuse; no per-release allocation once
  // the arena reaches the high-water pending count.
  std::vector<Job> arena;
  std::vector<std::uint32_t> free_slots;
  std::uint64_t next_seq = 0;
  std::size_t live_total = 0;
  std::size_t live_hc = 0;
  std::size_t live_lc = 0;
  // Release-ordered list of (lazily pruned) job refs: mode-switch sweeps
  // and the final pending scan must visit jobs in release order to
  // reproduce the historical ready-vector iteration order.
  std::vector<JobRef> order;
  std::size_t order_dead = 0;

  auto alive = [&](const JobRef& ref) {
    const Job& job = arena[ref.slot];
    return job.live && job.seq == ref.seq;
  };
  auto compact_order = [&] {
    if (order_dead < 64 || order_dead < order.size() / 2) return;
    std::size_t keep = 0;
    for (const JobRef& ref : order)
      if (alive(ref)) order[keep++] = ref;
    order.resize(keep);
    order_dead = 0;
  };
  auto alloc_slot = [&]() -> std::uint32_t {
    if (!free_slots.empty()) {
      const std::uint32_t slot = free_slots.back();
      free_slots.pop_back();
      return slot;
    }
    arena.emplace_back();
    return static_cast<std::uint32_t>(arena.size() - 1);
  };
  auto kill = [&](const JobRef& ref) {
    Job& job = arena[ref.slot];
    job.live = false;
    free_slots.push_back(ref.slot);
    --live_total;
    if (job.hc) --live_hc;
    else --live_lc;
    ++order_dead;
  };

  EventQueue<JobRef> hc_ready;  ///< keyed on the HC dispatch deadline
  EventQueue<JobRef> lc_ready;  ///< keyed on the LC (real) deadline
  EventQueue<JobRef> expiry;    ///< keyed on the real deadline, every job
  EventQueue<std::uint32_t> release_q;  ///< keyed on next_release[task]
  auto purge = [&](EventQueue<JobRef>& queue) {
    while (!queue.empty() && !alive(queue.peek())) queue.pop();
  };

  std::vector<common::Millis> next_release(tasks.size(), 0.0);
  // The nominal periodic grid: jitter perturbs each release independently
  // around it. (Adding the draw into next_release itself — the historical
  // behaviour — compounded the offsets into unbounded drift away from the
  // nominal period.)
  std::vector<common::Millis> release_grid(tasks.size(), 0.0);
  for (std::uint32_t i = 0; i < tasks.size(); ++i) release_q.push(0.0, i);

  std::vector<std::uint32_t> due;
  auto release_due_jobs = [&] {
    if (release_q.empty() || release_q.next_time() > now + kTimeEps) return;
    // Collect every due task, then release in task-index order: execution
    // time draws consume the shared RNG stream, so the draw order must
    // match the historical all-tasks scan.
    due.clear();
    while (!release_q.empty() && release_q.next_time() <= now + kTimeEps)
      due.push_back(release_q.pop());
    std::sort(due.begin(), due.end());
    for (const std::uint32_t i : due) {
      const mc::McTask& task = tasks[i];
      const bool hc = task.criticality == mc::Criticality::kHigh;
      while (next_release[i] <= now + kTimeEps &&
             next_release[i] < config.horizon) {
        if (hc) ++m.hc_jobs_released;
        else ++m.lc_jobs_released;
        ++m.per_task[i].released;

        if (!hc && mode == mc::Mode::kHigh &&
            config.lc_policy == LcPolicy::kDropAll) {  // server/degrade admit
          // LC releases are rejected outright while in HI mode: the job
          // never enters the queue, so it counts as a drop only — not a
          // deadline miss (see metrics.hpp).
          ++m.lc_jobs_dropped;
          ++m.per_task[i].dropped;
          if (tracing) record_kind(now, TraceEventKind::kDropLc, i);
        } else {
          const std::uint32_t slot = alloc_slot();
          Job& job = arena[slot];
          job.task = i;
          job.seq = next_seq++;
          job.release = next_release[i];
          job.deadline = job.release + task.deadline();
          job.virtual_deadline = job.release + config.x * task.period;
          job.exec_total = draw_execution_time(task, config, rng);
          job.exec_done = 0.0;
          job.budget = hc ? (mode == mc::Mode::kHigh ? task.wcet_hi
                                                     : task.wcet_lo)
                          : task.wcet_lo;
          job.hc = hc;
          job.overran = false;
          job.degraded = false;
          if (!hc && mode == mc::Mode::kHigh &&
              config.lc_policy == LcPolicy::kDegradeHalf) {
            job.budget = 0.5 * task.wcet_lo;
            job.degraded = true;
          }
          job.live = true;
          const JobRef ref{slot, job.seq};
          order.push_back(ref);
          expiry.push(job.deadline, ref);
          if (hc) {
            hc_ready.push(mode == mc::Mode::kLow ? job.virtual_deadline
                                                 : job.deadline,
                          ref);
            ++live_hc;
          } else {
            lc_ready.push(job.deadline, ref);
            ++live_lc;
          }
          ++live_total;
          if (tracing) record_kind(now, TraceEventKind::kRelease, i);
        }
        release_grid[i] += task.period;
        next_release[i] = release_grid[i];
        if (config.release_jitter > 0.0)
          next_release[i] +=
              rng.uniform(0.0, config.release_jitter * task.period);
      }
      if (next_release[i] < config.horizon)
        release_q.push(next_release[i], i);
    }
  };

  auto next_release_time = [&] {
    return release_q.empty() ? std::numeric_limits<double>::infinity()
                             : release_q.next_time();
  };

  auto switch_to_hi = [&](std::uint32_t overrun_task) {
    mode = mc::Mode::kHigh;
    hi_since = now;
    ++m.mode_switches;
    pending_overhead += config.mode_switch_ms;
    if (tracing)
      record_kind(now, TraceEventKind::kModeSwitchHi, overrun_task);
    // HC budgets inflate to C^HI; LC jobs are dropped, degraded to half
    // of the *remaining* budget, or left intact behind the budget server
    // — visiting jobs in release order (the historical ready order).
    for (const JobRef& ref : order) {
      if (!alive(ref)) continue;
      Job& job = arena[ref.slot];
      if (job.hc) {
        job.budget = tasks[job.task].wcet_hi;
        continue;
      }
      if (config.lc_policy == LcPolicy::kDropAll) {
        ++m.lc_jobs_dropped;
        ++m.per_task[job.task].dropped;
        if (tracing) record_kind(now, TraceEventKind::kDropLc, job.task);
        kill(ref);
      } else if (config.lc_policy == LcPolicy::kDegradeHalf &&
                 !job.degraded) {
        job.budget = job.exec_done + 0.5 * (job.budget - job.exec_done);
        job.degraded = true;
      }
      // LcPolicy::kServer: nothing to do — LC jobs stay ready but execute
      // through the server.
    }
    // HC dispatch deadlines change (virtual -> real): rebuild the HC heap
    // in release order so FIFO tie-breaking is preserved.
    hc_ready = {};
    for (const JobRef& ref : order) {
      if (!alive(ref)) continue;
      const Job& job = arena[ref.slot];
      if (job.hc) hc_ready.push(job.deadline, ref);
    }
    if (config.lc_policy == LcPolicy::kDropAll) lc_ready = {};
  };

  auto maybe_switch_to_lo = [&] {
    if (mode != mc::Mode::kHigh) return;
    const bool blocked = config.back_switch == BackSwitchPolicy::kIdleInstant
                             ? live_total > 0
                             : live_hc > 0;
    if (blocked) return;
    mode = mc::Mode::kLow;
    m.hi_mode_time += now - hi_since;
    pending_overhead += config.mode_switch_ms;
    // Back in LO mode every guarantee is restored: still-pending LC jobs
    // degraded while the system was in HI mode get their full C^LO budget
    // back. Without this, jobs released under kDegradeHalf kept a halved
    // budget (and the degraded flag) across the back-switch, inflating
    // lc_jobs_degraded / drop counts. HC budgets need no action here:
    // pending HC work blocks the back-switch (and under kIdleInstant the
    // ready queue is empty), so no HC job can carry a C^HI budget across.
    // LC dispatch keys are real deadlines in both modes, so no rebuild.
    for (const JobRef& ref : order) {
      if (!alive(ref)) continue;
      Job& job = arena[ref.slot];
      if (job.hc || !job.degraded) continue;
      job.budget = tasks[job.task].wcet_lo;
      job.degraded = false;
      if (tracing && config.trace_dispatch)
        record(TraceEvent{now, TraceEventKind::kBudgetRestore, job.task,
                          /*hi_mode=*/false,
                          /*virtual_deadline=*/false, job.release,
                          job.budget});
    }
    if (tracing) record_kind(now, TraceEventKind::kModeSwitchLo, kNoTraceTask);
  };

  release_due_jobs();
  std::vector<JobRef> expired;
  while (now < config.horizon - kTimeEps) {
    compact_order();
    // Expire jobs whose deadline passed while pending (overload handling).
    // An expired job is a deadline miss *and* a lost job: it is removed
    // without completing, so it counts as dropped — globally for LC jobs
    // (lc_jobs_dropped feeds lc_drop_rate) and per task for both levels
    // (the released == completed + dropped + pending identity).
    purge(expiry);
    if (!expiry.empty() && expiry.next_time() <= now + kTimeEps) {
      expired.clear();
      do {
        expired.push_back(expiry.pop());
        purge(expiry);
      } while (!expiry.empty() && expiry.next_time() <= now + kTimeEps);
      // The heap yields (deadline, release) order; the historical scan
      // removed expired jobs in release order alone.
      std::sort(expired.begin(), expired.end(),
                [](const JobRef& a, const JobRef& b) { return a.seq < b.seq; });
      for (const JobRef& ref : expired) {
        const Job& job = arena[ref.slot];
        if (job.hc) {
          ++m.hc_deadline_misses;
        } else {
          ++m.lc_deadline_misses;
          ++m.lc_jobs_dropped;
        }
        TaskSimStats& ts = m.per_task[job.task];
        ++ts.deadline_misses;
        ++ts.dropped;
        if (tracing) record_kind(now, TraceEventKind::kDeadlineMiss, job.task);
        kill(ref);
      }
    }
    // Replenish the LC server at its period boundaries.
    if (server_mode) {
      while (next_replenish <= now + kTimeEps) {
        server_budget = config.server_capacity;
        next_replenish += config.server_period;
      }
    }
    maybe_switch_to_lo();

    // Pay any accumulated overhead (mode-switch / context-switch costs)
    // as processor time before dispatching.
    if (pending_overhead > kTimeEps) {
      const common::Millis step =
          std::min(pending_overhead, config.horizon - now);
      if (step <= kTimeEps) break;
      now += step;
      m.busy_time += step;
      m.overhead_time += step;
      pending_overhead -= step;
      release_due_jobs();
      continue;
    }

    // EDF pick: each class heap yields its earliest effective deadline
    // (FIFO on ties); between the two class winners the historical fold
    // rule applies — the later-released candidate only wins when strictly
    // earlier by more than eps.
    purge(hc_ready);
    purge(lc_ready);
    const bool lc_blocked = server_mode && mode == mc::Mode::kHigh &&
                            server_budget <= kTimeEps;
    const bool have_hc = !hc_ready.empty();
    const bool have_lc = !lc_blocked && !lc_ready.empty();
    JobRef current{};
    if (have_hc && have_lc) {
      const JobRef hc_top = hc_ready.peek();
      const JobRef lc_top = lc_ready.peek();
      const common::Millis hc_ed = hc_ready.next_time();
      const common::Millis lc_ed = lc_ready.next_time();
      if (hc_top.seq < lc_top.seq)
        current = lc_ed < hc_ed - kTimeEps ? lc_top : hc_top;
      else
        current = hc_ed < lc_ed - kTimeEps ? hc_top : lc_top;
    } else if (have_hc) {
      current = hc_ready.peek();
    } else if (have_lc) {
      current = lc_ready.peek();
    } else {
      // Idle until the next release, the next server replenishment (when
      // LC work is waiting on budget), or the horizon.
      common::Millis t = std::min(next_release_time(), config.horizon);
      const bool lc_waiting = lc_blocked && live_lc > 0;
      if (lc_waiting) t = std::min(t, next_replenish);
      if (t <= now + kTimeEps) break;  // nothing left to simulate
      now = t;
      release_due_jobs();
      continue;
    }

    Job& job = arena[current.slot];

    if (tracing && config.trace_dispatch)
      record(TraceEvent{now, TraceEventKind::kDispatch, job.task,
                        mode == mc::Mode::kHigh,
                        job.hc && mode == mc::Mode::kLow, job.release,
                        (job.hc && mode == mc::Mode::kLow)
                            ? job.virtual_deadline
                            : job.deadline});

    // Dispatching a different job than last time is a context switch.
    if (job.task != last_task ||
        std::abs(job.release - last_release) > kTimeEps) {
      ++m.context_switches;
      last_task = job.task;
      last_release = job.release;
      if (config.context_switch_ms > 0.0) {
        pending_overhead += config.context_switch_ms;
        continue;
      }
    }

    // The job runs until the soonest of: completion, budget exhaustion
    // (mode-switch trigger for HC in LO mode), next release, deadline
    // expiry of any pending job, or the horizon.
    const common::Millis effective_demand =
        std::min(job.exec_total, job.budget);
    common::Millis step = effective_demand - job.exec_done;
    step = std::min(step, next_release_time() - now);
    if (!expiry.empty()) step = std::min(step, expiry.next_time() - now);
    step = std::min(step, config.horizon - now);
    // LC execution in HI mode under the server consumes server budget and
    // is interrupted by replenishment boundaries.
    const bool on_server =
        server_mode && !job.hc && mode == mc::Mode::kHigh;
    if (on_server) {
      step = std::min(step, server_budget);
      step = std::min(step, next_replenish - now);
    }
    step = std::max(step, 0.0);

    job.exec_done += step;
    m.busy_time += step;
    if (on_server) {
      server_budget -= step;
      // Server slices carry their start time and duration so oracle
      // tests can re-derive the budget trajectory and check replenishment
      // boundaries without trusting server_budget itself.
      if (tracing && config.trace_dispatch && step > kTimeEps)
        record(TraceEvent{now, TraceEventKind::kServerSlice, job.task,
                          /*hi_mode=*/true,
                          /*virtual_deadline=*/false, job.release, step});
    }
    now += step;

    if (job.exec_done + kTimeEps >= job.exec_total) {
      // Completed within budget.
      if (job.hc) ++m.hc_jobs_completed;
      else {
        ++m.lc_jobs_completed;
        if (job.degraded) ++m.lc_jobs_degraded;
      }
      TaskSimStats& ts = m.per_task[job.task];
      ++ts.completed;
      const common::Millis response = now - job.release;
      ts.total_response += response;
      ts.max_response = std::max(ts.max_response, response);
      if (!response_samplers.empty())
        response_samplers[job.task].add(response);
      if (now > job.deadline + kTimeEps) {
        if (job.hc) ++m.hc_deadline_misses;
        else ++m.lc_deadline_misses;
        ++ts.deadline_misses;
        if (tracing) record_kind(now, TraceEventKind::kDeadlineMiss, job.task);
      }
      if (tracing) record_kind(now, TraceEventKind::kComplete, job.task);
      kill(current);
    } else if (job.exec_done + kTimeEps >= job.budget) {
      if (job.hc && mode == mc::Mode::kLow) {
        // C^LO exhausted but the job is not done: overrun -> HI mode.
        ++m.hc_jobs_overrun;
        job.overran = true;
        if (tracing) record_kind(now, TraceEventKind::kOverrun, job.task);
        switch_to_hi(job.task);
      } else {
        // Budget exhausted in HI mode (HC at C^HI cannot happen — demand
        // is clamped — so this is a degraded LC job): abandon it.
        ++m.lc_jobs_dropped;
        ++m.per_task[job.task].dropped;
        if (tracing) record_kind(now, TraceEventKind::kDropLc, job.task);
        kill(current);
      }
    }
    release_due_jobs();
  }

  if (mode == mc::Mode::kHigh) m.hi_mode_time += config.horizon - hi_since;
  // Whatever is still queued was released but neither completed nor
  // dropped — close the per-task accounting identity.
  for (const JobRef& ref : order)
    if (alive(ref)) ++m.per_task[arena[ref.slot].task].pending_at_horizon;
  if (!response_samplers.empty()) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      m.per_task[i].p95_response = response_samplers[i].quantile(0.95);
      m.per_task[i].p99_response = response_samplers[i].quantile(0.99);
    }
  }
  if (sink) sink->close();  // surface any trace write failure
  return result;
}

MulticoreSimResult simulate_partitioned(const std::vector<mc::TaskSet>& cores,
                                        const std::vector<double>& xs,
                                        const SimConfig& config) {
  if (cores.size() != xs.size())
    throw std::invalid_argument(
        "simulate_partitioned: one x factor per core required");
  MulticoreSimResult result;
  result.combined.horizon = config.horizon;
  // Each core's simulation owns an independent seed, so the cores run in
  // parallel; the combined metrics are reduced in core order below, which
  // keeps the result bit-identical to the serial loop at any job count.
  result.cores = common::parallel_map(cores.size(), [&](std::size_t c) {
    if (cores[c].empty()) return SimResult();
    SimConfig core_config = config;
    core_config.x = xs[c];
    core_config.seed = config.seed + 0x9E37'79B9U * (c + 1);
    if (!config.trace_binary_path.empty())
      core_config.trace_binary_path =
          config.trace_binary_path + ".core" + std::to_string(c);
    return simulate(cores[c], core_config);
  });
  for (std::size_t c = 0; c < cores.size(); ++c) {
    if (cores[c].empty()) continue;
    const SimMetrics& m = result.cores[c].metrics;
    result.combined.busy_time += m.busy_time;
    result.combined.hi_mode_time += m.hi_mode_time;
    result.combined.hc_jobs_released += m.hc_jobs_released;
    result.combined.hc_jobs_completed += m.hc_jobs_completed;
    result.combined.hc_jobs_overrun += m.hc_jobs_overrun;
    result.combined.hc_deadline_misses += m.hc_deadline_misses;
    result.combined.lc_jobs_released += m.lc_jobs_released;
    result.combined.lc_jobs_completed += m.lc_jobs_completed;
    result.combined.lc_jobs_dropped += m.lc_jobs_dropped;
    result.combined.lc_jobs_degraded += m.lc_jobs_degraded;
    result.combined.lc_deadline_misses += m.lc_deadline_misses;
    result.combined.mode_switches += m.mode_switches;
    result.combined.context_switches += m.context_switches;
    result.combined.overhead_time += m.overhead_time;
    // Per-task stats concatenate in core order, preserving response data
    // (see MulticoreSimResult::combined).
    result.combined.per_task.insert(result.combined.per_task.end(),
                                    m.per_task.begin(), m.per_task.end());
  }
  return result;
}

}  // namespace mcs::sim
