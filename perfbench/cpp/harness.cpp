#include "harness.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<Tail> tail_percentile(std::vector<double> samples,
                                    double max_percentile) {
  constexpr double kLadder[] = {99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0};
  constexpr std::size_t kMinBeyond = 10;
  const std::size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  for (const double p : kLadder) {
    if (p > max_percentile) continue;
    // Nearest rank: the smallest k with k / n >= p / 100, computed in
    // per-mille integers so 99.9 has no rounding slack.
    const auto permille = static_cast<std::size_t>(p * 10.0 + 0.5);
    const std::size_t rank = (permille * n + 999) / 1000;
    if (rank == 0 || n - rank < kMinBeyond) continue;
    return Tail{.percentile = p,
                .value = samples[rank - 1],
                .samples = n,
                .beyond = n - rank};
  }
  return std::nullopt;
}

void Digest::byte(unsigned char b) noexcept {
  h_ ^= b;
  h_ *= 0x100000001b3ull;
}

void Digest::u64(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
}

void Digest::f64(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void Digest::str(std::string_view s) noexcept {
  u64(s.size());
  for (const char c : s) byte(static_cast<unsigned char>(c));
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

void OpLedger::fail(std::string_view what, std::string_view why) {
  ++failed_;
  errors_.push_back(std::string(what) + ": " + std::string(why));
}

void HostStampSink::record(const echelon::obs::TraceEvent& ev,
                           std::string_view) {
  ++events_;
  using echelon::obs::TraceKind;
  if (ev.kind == TraceKind::kSchedPass) {
    open_ = Clock::now();
  } else if (ev.kind == TraceKind::kAllocPass && open_) {
    control_s_ += seconds_since(*open_);
    open_.reset();
  }
}

void TimedScheduler::control(echelon::netsim::Simulator& sim,
                             std::span<echelon::netsim::Flow*> active) {
  const Clock::time_point t0 = Clock::now();
  inner_->control(sim, active);
  control_s_ += seconds_since(t0);
}

std::optional<echelon::service::Arrival> TimedArrivals::next() {
  const Clock::time_point t0 = Clock::now();
  std::optional<echelon::service::Arrival> a = inner_->next();
  next_s_ += seconds_since(t0);
  return a;
}

}  // namespace perfbench
