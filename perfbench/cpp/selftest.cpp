// Tests of the benchmark's own logic: the tail-percentile helper, the
// result digest and the operation ledger. Exits non-zero on any failure.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_tail_percentile() {
  using perfbench::tail_percentile;
  // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
  auto t = tail_percentile(iota(1000), 99.0);
  expect(t && t->percentile == 99.0 && t->value == 990.0 &&
             t->samples == 1000 && t->beyond == 10,
         "p99 of 1000 samples");
  // 999 samples leave only 9 beyond p99; the helper falls back to p98.
  t = tail_percentile(iota(999), 99.0);
  expect(t && t->percentile == 98.0 && t->beyond >= 10 && t->samples == 999,
         "p98 fallback at 999 samples");
  // The cap is honoured even when a higher percentile would qualify.
  t = tail_percentile(iota(100000), 99.0);
  expect(t && t->percentile == 99.0, "cap at p99 with 100000 samples");
  t = tail_percentile(iota(100000), 100.0);
  expect(t && t->percentile == 99.9 && t->beyond == 100, "p99.9 uncapped");
  // Input order does not matter.
  std::vector<double> rev = iota(1000);
  std::reverse(rev.begin(), rev.end());
  t = tail_percentile(rev, 99.0);
  expect(t && t->value == 990.0, "unsorted input");
  // 20 samples: only the median leaves 10 beyond.
  t = tail_percentile(iota(20), 99.0);
  expect(t && t->percentile == 50.0 && t->beyond == 10, "median at 20");
  expect(!tail_percentile(iota(19), 99.0), "nothing below 20 samples");
  expect(!tail_percentile({}, 99.0), "nothing for no samples");
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
}

void test_digest() {
  auto digest = [](const std::vector<double>& v) {
    perfbench::Digest d;
    for (const double x : v) d.f64(x);
    return d.value();
  };
  const std::vector<double> a = {0.1, 2.5, 1e-9, 3.0};
  expect(digest(a) == digest(a), "digest is stable for equal inputs");
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (int bit = 0; bit < 64; ++bit) {
      std::vector<double> b = a;
      std::uint64_t bits = 0;
      std::memcpy(&bits, &b[i], sizeof bits);
      bits ^= 1ull << bit;
      std::memcpy(&b[i], &bits, sizeof bits);
      if (digest(b) == digest(a)) {
        expect(false, "a single flipped bit changes the digest");
        return;
      }
    }
  }
  // -0.0 == 0.0 numerically, but the bit images differ.
  expect(digest({0.0}) != digest({-0.0}), "digest sees the sign bit");
  perfbench::Digest s1, s2;
  s1.str("ab");
  s1.str("c");
  s2.str("a");
  s2.str("bc");
  expect(s1.value() != s2.value(), "string boundaries are hashed");
}

void test_ledger() {
  perfbench::OpLedger ops;
  expect(ops.run("ok", [] {}), "a completed op reports success");
  expect(!ops.run("throws", [] { throw std::runtime_error("boom"); }),
         "a throwing op reports failure");
  expect(!ops.run("throws-int", [] { throw 7; }),
         "a non-std exception reports failure");
  expect(ops.attempted() == 3 && ops.failed() == 2,
         "throwing ops count as attempted and failed");
  ops.fail("digest", "mismatch");
  expect(ops.attempted() == 3 && ops.failed() == 3,
         "a wrong result counts as failed");
  expect(ops.errors().size() == 3 && ops.errors()[0] == "throws: boom",
         "failures are named");
}

}  // namespace

int main() {
  test_tail_percentile();
  test_digest();
  test_ledger();
  if (failures == 0) std::cout << "perfbench selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
