// Dynamic cycle accounting for the instrumented benchmark kernels.
//
// This is the library's stand-in for MEET, the ARM instruction-level
// simulator the paper uses to collect 20 000 execution-time samples per
// application (Section V-A). Instead of simulating an ISA, each kernel is a
// real C++ algorithm annotated with the abstract operations it performs;
// the counter prices them with the *typical* cost table (cache hits,
// predicted branches). Because the kernels' operation counts are genuinely
// data-dependent, the resulting cycle distributions have the multi-modal,
// input-driven shape of real measured execution times (Fig. 1).
//
// Every annotation sits in a kernel's inner loop, so add() is inline and
// only bumps a per-class count; total() prices the counts once. Cycles are
// unsigned 64-bit, so sum_i count_i * cost_i equals the running sum of
// n * cost over the individual add() calls exactly (both are taken modulo
// 2^64): the per-class form changes no sample bit.
#pragma once

#include <array>
#include <cstddef>

#include "common/units.hpp"
#include "wcet/cost_model.hpp"

namespace mcs::apps {

/// Accumulates cycles for dynamically executed abstract operations.
class CycleCounter {
 public:
  /// Prices operations with `model` (default: the typical/hit table).
  explicit CycleCounter(
      const wcet::CostModel& model = wcet::CostModel::typical())
      : model_(model) {}

  void alu(std::size_t n = 1) { add(wcet::OpClass::kAlu, n); }
  void mul(std::size_t n = 1) { add(wcet::OpClass::kMul, n); }
  void div(std::size_t n = 1) { add(wcet::OpClass::kDiv, n); }
  void fpu(std::size_t n = 1) { add(wcet::OpClass::kFpu, n); }
  void load(std::size_t n = 1) { add(wcet::OpClass::kLoad, n); }
  void store(std::size_t n = 1) { add(wcet::OpClass::kStore, n); }
  void branch(std::size_t n = 1) { add(wcet::OpClass::kBranch, n); }
  void call(std::size_t n = 1) { add(wcet::OpClass::kCall, n); }

  /// Adds `n` dynamic instances of `op`.
  void add(wcet::OpClass op, std::size_t n) {
    counts_[static_cast<std::size_t>(op)] += n;
  }

  /// Cycles consumed so far: each class's count priced by the model.
  [[nodiscard]] common::Cycles total() const {
    common::Cycles cycles = 0;
    for (std::size_t c = 0; c < wcet::kOpClassCount; ++c)
      cycles += static_cast<common::Cycles>(counts_[c]) * model_.cost[c];
    return cycles;
  }

  /// Dynamic instruction count so far.
  [[nodiscard]] std::size_t instructions() const {
    std::size_t n = 0;
    for (const std::size_t count : counts_) n += count;
    return n;
  }

  /// Clears every class count.
  void reset() { counts_.fill(0); }

 private:
  wcet::CostModel model_;
  std::array<std::size_t, wcet::kOpClassCount> counts_{};
};

}  // namespace mcs::apps
