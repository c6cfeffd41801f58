// selftest.cpp — tests of the benchmark's own arithmetic: the percentile
// helper and its ten-beyond rule, span self time, and the non-negative
// serve residual on real in-process reports.  Run with
// `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "serve/job_server.hpp"
#include "trace.hpp"

namespace {

using perfbench::percentile;
using perfbench::percentile_rank;
using perfbench::samples_beyond;
using perfbench::Span;
using perfbench::tail_supported;

TEST(Percentile, NearestRank) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  EXPECT_EQ(percentile(v, 50), 50.0);
  EXPECT_EQ(percentile(v, 99), 99.0);
  EXPECT_EQ(percentile(v, 100), 100.0);
  std::vector<double> one = {7.0};
  EXPECT_EQ(percentile(one, 99), 7.0);
  std::vector<double> none;
  EXPECT_EQ(percentile(none, 50), 0.0);
}

TEST(Percentile, SortsUnorderedInput) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(v, 50), 3.0);
  EXPECT_EQ(percentile(v, 99), 5.0);
}

TEST(Percentile, RankIsExactAtRoundNumbers) {
  // 0.99 * 1000 is not exactly 990 in floating point; the rank must be.
  EXPECT_EQ(percentile_rank(1000, 99), 990u);
  EXPECT_EQ(percentile_rank(1001, 99), 991u);
  EXPECT_EQ(percentile_rank(1, 50), 1u);
  EXPECT_EQ(percentile_rank(0, 50), 1u);
}

TEST(Percentile, TenBeyondRule) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(samples_beyond(0, 99), 0u);
  EXPECT_FALSE(tail_supported(999, 99));
  EXPECT_TRUE(tail_supported(1000, 99));
  EXPECT_TRUE(tail_supported(20, 50));
  EXPECT_FALSE(tail_supported(19, 50));
}

TEST(SpanSelfTime, SubtractsUnionOfChildrenClippedToParent) {
  // parent [0,100]; children [10,30] and [20,50] overlap, [90,120] runs
  // past the parent's end; a grandchild sits inside the first child.
  std::vector<Span> s = {
      {0, -1, 1, 0, 100},  {1, 0, 1, 10, 30}, {1, 0, 1, 20, 50},
      {2, 0, 1, 90, 120},  {3, 1, 1, 12, 18},
  };
  const auto self = perfbench::self_times(s);
  EXPECT_EQ(self[0], 100 - (40 + 10));
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(SpanSelfTime, TracerLinksParentsAndSkipsWhenOff) {
  perfbench::Tracer tr(true);
  const auto outer = tr.intern("bench.job");
  const auto inner = tr.intern("arch.run");
  {
    perfbench::Scope a(tr, outer, 7);
    perfbench::Scope b(tr, inner, 7);
  }
  tr.set_on(false);
  {
    perfbench::Scope c(tr, outer, 8);
  }
  ASSERT_EQ(tr.spans().size(), 2u);
  EXPECT_EQ(tr.spans()[0].parent, -1);
  EXPECT_EQ(tr.spans()[1].parent, 0);
  EXPECT_EQ(tr.spans()[1].job, 7u);
  const auto self = perfbench::self_times(tr.spans());
  const auto& p = tr.spans()[0];
  const auto& c = tr.spans()[1];
  EXPECT_EQ(self[0], (p.t1 - p.t0) - (c.t1 - c.t0));
  EXPECT_GE(self[0], 0);
  EXPECT_EQ(tr.durations_us("arch.run").size(), 1u);
}

TEST(ServeResidual, NonNegativeOnRealReports) {
  // Measured the way the benchmark measures it: client clock before
  // submit_spec and after wait, against the report's own queue/exec clocks.
  tangled::serve::JobServerConfig cfg;
  cfg.threads = 2;
  cfg.queue_capacity = 64;
  tangled::serve::JobServer server(cfg);
  tangled::serve::JobSpec spec;
  spec.source = "lex $1,1\nsys\n";
  spec.max_instructions = 100;
  std::vector<std::pair<tangled::serve::JobServer::JobId, std::int64_t>> ids;
  for (int i = 0; i < 64; ++i) {
    const std::int64_t t0 = perfbench::now_ns();
    const auto id = server.submit_spec(spec);
    ASSERT_TRUE(id.has_value());
    ids.emplace_back(*id, t0);
  }
  for (const auto& [id, t0] : ids) {
    const auto rep = server.wait(id);
    const double lat = (perfbench::now_ns() - t0) / 1e6;
    EXPECT_GE(perfbench::residual_ms(lat, rep.queue_ms, rep.exec_ms), 0.0)
        << "latency " << lat << " queue " << rep.queue_ms << " exec "
        << rep.exec_ms;
  }
}

}  // namespace
