// Measurement helpers of the end-to-end benchmark: order statistics, the
// result digest, the operation ledger, and the outside-in layer probes the
// traced run attaches through public seams of the simulator and service.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netsim/scheduler.hpp"
#include "obs/trace.hpp"
#include "service/arrivals.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- order statistics -------------------------------------------------------

// Median (mean of the two middle samples for even counts); 0 when empty.
[[nodiscard]] double median(std::vector<double> samples);

// A tail percentile by the nearest-rank rule, with the evidence behind it.
struct Tail {
  double percentile = 0.0;  // e.g. 99.0
  double value = 0.0;
  std::size_t samples = 0;  // sample count
  std::size_t beyond = 0;   // samples strictly ranked above the reported one
};

// The highest percentile of the ladder {99.9, 99, 98, 95, 90, 75, 50} that
// does not exceed `max_percentile` and leaves at least 10 samples beyond
// it. nullopt when even the median leaves fewer than 10 (n < 20).
[[nodiscard]] std::optional<Tail> tail_percentile(std::vector<double> samples,
                                                  double max_percentile);

// --- result digest ----------------------------------------------------------

// FNV-1a over the exact bit images of the values fed in: equal inputs give
// equal digests, and any single flipped bit of a double changes it.
class Digest {
 public:
  void u64(std::uint64_t v) noexcept;
  void f64(double v) noexcept;
  void str(std::string_view s) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void byte(unsigned char b) noexcept;
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

[[nodiscard]] std::string hex(std::uint64_t v);

// --- operation ledger -------------------------------------------------------

// Counts operations (one experiment, one sweep, one serve run or one
// restore) and their failures: an operation fails when it throws or when
// the caller reports a wrong result.
class OpLedger {
 public:
  // Runs `op`, counting it; an exception marks it failed. Returns whether
  // it completed without throwing.
  template <class Fn>
  bool run(std::string_view what, Fn&& op) {
    ++attempted_;
    try {
      op();
      return true;
    } catch (const std::exception& e) {
      fail(what, e.what());
    } catch (...) {
      fail(what, "unknown exception");
    }
    return false;
  }
  // Marks the most recent operation failed (wrong result).
  void fail(std::string_view what, std::string_view why);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
    return errors_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

// Returns the heap's free memory to the system, so the next operation
// does not inherit the free lists the previous one left behind. Service
// runs and restores started this way vary about half as much from run to
// run; batch runs on several threads vary more, so they do not use it.
void release_free_memory();

// --- layer probes (traced run only) -----------------------------------------

// Trace sink that stamps the host clock on control-plane events. The
// simulator emits kSchedPass right before the scheduler's control() and the
// allocator emits kAllocPass at the end of its pass, so kSchedPass -> next
// kAllocPass brackets one control pass (scheduler + allocator).
class HostStampSink final : public echelon::obs::TraceSink {
 public:
  using TraceSink::record;
  void record(const echelon::obs::TraceEvent& ev,
              std::string_view label) override;

  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  [[nodiscard]] double control_s() const noexcept { return control_s_; }

 private:
  std::uint64_t events_ = 0;
  double control_s_ = 0.0;
  std::optional<Clock::time_point> open_;
};

// Forwards every hook to the wrapped scheduler and times control().
class TimedScheduler final : public echelon::netsim::NetworkScheduler {
 public:
  explicit TimedScheduler(echelon::netsim::NetworkScheduler* inner)
      : inner_(inner) {}

  void on_flow_arrival(echelon::netsim::Simulator& sim,
                       const echelon::netsim::Flow& flow) override {
    inner_->on_flow_arrival(sim, flow);
  }
  void on_flow_departure(echelon::netsim::Simulator& sim,
                         const echelon::netsim::Flow& flow) override {
    inner_->on_flow_departure(sim, flow);
  }
  void on_topology_change(echelon::netsim::Simulator& sim) override {
    inner_->on_topology_change(sim);
  }
  void mark_job_dirty(echelon::JobId job) override {
    inner_->mark_job_dirty(job);
  }
  void mark_all_jobs_dirty() override { inner_->mark_all_jobs_dirty(); }
  void control(echelon::netsim::Simulator& sim,
               std::span<echelon::netsim::Flow*> active) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] double control_s() const noexcept { return control_s_; }

 private:
  echelon::netsim::NetworkScheduler* inner_;
  double control_s_ = 0.0;
};

// Forwards next() to the wrapped generator and times it.
class TimedArrivals final : public echelon::service::ArrivalGenerator {
 public:
  explicit TimedArrivals(
      std::unique_ptr<echelon::service::ArrivalGenerator> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::optional<echelon::service::Arrival> next() override;
  [[nodiscard]] const char* kind() const noexcept override {
    return inner_->kind();
  }
  [[nodiscard]] double next_s() const noexcept { return next_s_; }

 private:
  std::unique_ptr<echelon::service::ArrivalGenerator> inner_;
  double next_s_ = 0.0;
};

}  // namespace perfbench
