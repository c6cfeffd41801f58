// perfbench.cpp — the repository benchmark.  One workload per process: a
// closed loop of 64-job batches that drives the public API of tangled_isa,
// tangled_asm, tangled_arch, pbp and tangled_serve (serve/net included) from
// one load-generator thread, checks every output, and prints one JSON
// object.  README.md lists the workloads, why each exists, and which layer
// every metric belongs to; run.py builds this program and drives it.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--t0-ns NS] [--setup-only] [--scratch DIR] [--out DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// spends half the time untraced and half traced (the difference is the
// tracing overhead), derives the per-layer metrics from the spans and
// counters of the traced half, and replays the layers the loop does not
// call directly on the workload's own inputs, outside the timed loop.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "arch/checkpoint.hpp"
#include "arch/multicycle_fsm.hpp"
#include "arch/rtl_pipeline.hpp"
#include "arch/simulators.hpp"
#include "asm/assembler.hpp"
#include "asm/programs.hpp"
#include "isa/isa.hpp"
#include "pbp/simd.hpp"
#include "serve/job_server.hpp"
#include "serve/journal.hpp"
#include "serve/net/client.hpp"
#include "serve/net/server.hpp"
#include "serve/net/wire.hpp"
#include "trace.hpp"

namespace {

using namespace tangled;
using namespace tangled::serve;
using perfbench::now_ns;
using perfbench::percentile;
using perfbench::Scope;
using perfbench::Tracer;

constexpr unsigned kBatch = 64;
constexpr std::uint64_t kFig10Instructions = 91;
constexpr std::uint16_t kFig10Reg0 = 5;
constexpr std::uint16_t kFig10Reg1 = 3;
/// Figure 10 retires 91 instructions, so a journaled job persists about one
/// resume image.
constexpr std::uint64_t kJournalCheckpointEvery = 48;
constexpr const char* kTrivialSource = "lex $1,1\nsys\n";
constexpr std::uint64_t kTrivialInstructions = 2;
constexpr std::uint64_t kTrivialCycles = 2;  // single-cycle model
constexpr auto kReportTimeout = std::chrono::milliseconds{30'000};

/// The seven models with Figure 10's exact modelled cycle count (the same
/// at every ways).
struct Model {
  SimKind kind;
  const char* name;
  std::uint64_t fig10_cycles;
};
constexpr std::array<Model, 7> kModels = {{
    {SimKind::kFunc, "func", 91},
    {SimKind::kMulti, "multi", 447},
    {SimKind::kMultiFsm, "multi-fsm", 447},
    {SimKind::kPipe4, "pipe4", 177},
    {SimKind::kPipe5, "pipe5", 178},
    {SimKind::kPipe5NoFwd, "pipe5-nofwd", 185},
    {SimKind::kRtl, "rtl", 178},
}};
constexpr std::array<unsigned, 2> kWays = {8, 16};

/// JobServer workers: half the CPUs.  With the load generator that keeps
/// the busy threads within nproc and leaves room for the NetServer's reader
/// and pump threads; on a shared host, keeping every vCPU busy invites
/// hypervisor steal that swamps the program's own variation.
unsigned worker_threads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 1 ? static_cast<unsigned>(n / 2) : 1u;
}

// ---------------------------------------------------------------------------
// Output checking.

/// Counts jobs attempted and failed.  A job fails on any wrong output; the
/// first few reasons are kept for stderr.  Simulated statistics must repeat
/// exactly for each key, across the untraced and traced halves too.  Keys:
/// a model index for serve reports, kSimStatsKey plus the case index for
/// direct simulator runs.  Messages are built only for failures, so checking
/// stays cheap inside the timed loop.
class Checker {
 public:
  using Stats = std::array<std::uint64_t, 7>;
  static constexpr std::size_t kSimStatsKey = 100;

  template <typename Why>
  void job(bool ok, Why&& why) {
    ++attempted_;
    if (!ok) fail_note(why());
  }
  /// A job that never produced a report (refused, lost).
  void lost(const std::string& why) {
    ++attempted_;
    fail_note(why);
  }
  void same_stats(std::size_t key, const char* name, const Stats& stats) {
    const auto [it, fresh] = stats_.emplace(key, stats);
    if (!fresh && it->second != stats) {
      fail_note(std::string("simulated statistics differ for ") + name);
    }
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  void fail_note(const std::string& why) {
    ++failed_;
    if (notes_.size() < 10) notes_.push_back(why);
  }
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> notes_;
  std::map<std::size_t, Stats> stats_;
};

Checker::Stats report_stats(const JobReport& r) {
  return {r.instructions, r.cycles,       r.qat_ops, r.ecc_corrected,
          r.ecc_detected, r.attempts,     r.retries};
}

/// Serialized report with the per-delivery fields (id, deduped) cleared: a
/// deduped re-delivery must equal the original in every other byte.
std::vector<std::uint8_t> report_identity(JobReport r) {
  r.id = 0;
  r.deduped = false;
  pbp::ByteWriter w;
  r.serialize(w);
  return w.take();
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Every per-layer metric, in BENCHMARK.json order, with its unit.  A
/// workload that does not exercise a layer reports 0 for its loop metrics.
std::vector<std::pair<std::string, std::string>> per_layer_defs() {
  std::vector<std::pair<std::string, std::string>> d = {
      {"isa.decode_ns_per_instr", "ns"}};
  for (const Model& m : kModels) {
    for (unsigned w : kWays) {
      d.emplace_back(std::string("arch.run_us.") + m.name + ".w" +
                         std::to_string(w),
                     "us");
    }
  }
  d.insert(d.end(), {{"arch.host_ns_per_instr.w8", "ns"},
                     {"arch.reset_us", "us"},
                     {"arch.load_us", "us"},
                     {"arch.load_us.ecc", "us"},
                     {"arch.checkpoint_encode_us.w8", "us"},
                     {"arch.checkpoint_encode_us.w16", "us"}});
  for (const char* op : {"ccnot", "xor3"}) {
    for (const char* tier : {"scalar", "avx2", "avx512"}) {
      d.emplace_back(std::string("pbp.aob_gate_ns.") + op + ".w16." + tier,
                     "ns");
    }
  }
  for (const char* tier : {"scalar", "avx2", "avx512"}) {
    d.emplace_back(std::string("pbp.secded_encode_gbps.") + tier, "GB/s");
  }
  d.insert(d.end(), {{"asm.to_job_us", "us"},
                     {"serve.submit_us", "us"},
                     {"serve.submit_us.p99", "us"},
                     {"serve.queue_ms", "ms"},
                     {"serve.queue_ms.p99", "ms"},
                     {"serve.exec_ms", "ms"},
                     {"serve.exec_ms.p99", "ms"},
                     {"serve.residual_ms", "ms"},
                     {"serve.residual_ms.p99", "ms"},
                     {"serve.worker_busy_frac", "fraction"},
                     {"serve.pool_hit_ratio", "ratio"},
                     {"serve.dedupe_ratio", "ratio"},
                     {"serve.journal.append_us", "us"},
                     {"serve.journal.append_us.p99", "us"},
                     {"serve.journal.bytes_per_job", "B"},
                     {"net.frame_encode_us", "us"},
                     {"net.frame_decode_us", "us"},
                     {"net.report_codec_us", "us"},
                     {"net.submit_rtt_us.per_frame", "us"},
                     {"net.submit_rtt_us.per_frame.p99", "us"},
                     {"net.submit_batch_us", "us"},
                     {"net.report_wait_us", "us"},
                     {"net.report_wait_us.p99", "us"},
                     {"net.frames_per_job", "count"},
                     {"net.retry_after_frac", "fraction"},
                     {"net.wire_tax_us.per_frame", "us"},
                     {"net.wire_tax_us.batched", "us"},
                     {"trace_overhead_frac", "fraction"}});
  return d;
}

/// Set `name` (p50) and, when the sample has ten points beyond p99,
/// `name.p99`.
void put_p50_p99(Metrics& m, const std::string& name, const std::string& unit,
                 std::vector<double> v) {
  m[name] = {percentile(v, 50), unit};
  if (perfbench::tail_supported(v.size(), 99)) {
    m[name + ".p99"] = {percentile(v, 99), unit};
  }
}

// ---------------------------------------------------------------------------
// Workloads.

struct JobRecord {
  double latency_ms = 0.0;
  double queue_ms = -1.0;  // < 0: no fresh server-side clocks (sim, dedupe)
  double exec_ms = -1.0;
  bool batched = false;
};

/// A timed phase.  The end-to-end figures cover all of it: jobs over the
/// phase's wall time, and latency percentiles over every job.  The phase is
/// also cut into windows of at least a second, whose figures go to the
/// result file only, to show when in the run a slowdown happened (a
/// program that degrades as it serves, or a burst of load from outside).
struct Phase {
  std::vector<JobRecord> jobs;
  std::vector<std::size_t> window_end;  // jobs[window_end[i-1]..window_end[i])
  std::vector<double> window_s;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;  // once run_phase's rss_jobs were done

  double jobs_per_s() const {
    return wall_s > 0 ? static_cast<double>(jobs.size()) / wall_s : 0.0;
  }

  double latency_ms(unsigned pct) const {
    std::vector<double> v;
    v.reserve(jobs.size());
    for (const JobRecord& j : jobs) v.push_back(j.latency_ms);
    return percentile(v, pct);
  }

  std::vector<double> window_rates() const {
    std::vector<double> rates;
    std::size_t begin = 0;
    for (std::size_t i = 0; i < window_end.size(); ++i) {
      rates.push_back(static_cast<double>(window_end[i] - begin) / window_s[i]);
      begin = window_end[i];
    }
    return rates;
  }

  /// Each window's `pct`-th latency percentile.
  std::vector<double> window_latency_ms(unsigned pct) const {
    std::vector<double> out;
    std::size_t begin = 0;
    for (const std::size_t end : window_end) {
      std::vector<double> v;
      for (std::size_t i = begin; i < end; ++i) v.push_back(jobs[i].latency_ms);
      out.push_back(percentile(v, pct));
      begin = end;
    }
    return out;
  }
};

/// One kind of direct simulator run: a model at a ways, the program, the
/// ECC settings a serve worker would apply, and the exact expected outcome.
struct ArchCase {
  std::size_t model = 0;  // index into kModels
  unsigned ways = 8;
  Program program;
  pbp::EccMode ecc = pbp::EccMode::kOff;
  std::uint64_t ecc_epoch = 1;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> expect;
};

std::size_t model_index(SimKind k) {
  for (std::size_t m = 0; m < kModels.size(); ++m) {
    if (kModels[m].kind == k) return m;
  }
  throw std::logic_error("unknown SimKind");
}

/// The run a serve worker makes of `spec`, expecting `instructions` retired
/// in `cycles` modelled cycles.
ArchCase arch_case(const JobSpec& spec, std::uint64_t instructions,
                   std::uint64_t cycles) {
  ArchCase c;
  c.model = model_index(spec.sim);
  c.ways = spec.ways;
  c.program = spec.to_job().program;
  c.ecc = spec.ecc;
  c.ecc_epoch = spec.ecc_epoch;
  c.instructions = instructions;
  c.cycles = cycles;
  c.expect = spec.expect;
  return c;
}

/// The workload's own inputs, handed to the layer replays: its specs and
/// reports, and the simulator runs its jobs make (one case per model and
/// ways).
struct ReplayInputs {
  std::vector<JobSpec> specs;
  std::vector<JobReport> reports;
  std::vector<ArchCase> arch;
};

class Workload {
 public:
  Workload(Tracer& tr, Checker& chk) : tr_(tr), chk_(chk) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Everything before the first timed job, warm-up included.
  virtual void setup() = 0;
  /// One closed-loop batch: submit, then wait for every report.
  virtual void batch(Phase& ph) = 0;
  /// Snapshot counters at the start of the traced half.
  virtual void mark() {}
  /// Per-layer metrics from the traced half's spans, records and counters.
  virtual void layer_metrics(const Phase& traced, Metrics& m) = 0;
  virtual ReplayInputs replay_inputs() const = 0;

 protected:
  Tracer& tr_;
  Checker& chk_;
};

/// One warm simulator behind a common face (the models come in three class
/// shapes).
class WarmSim {
 public:
  virtual ~WarmSim() = default;
  virtual void reset() = 0;
  virtual void load(const Program& p) = 0;
  virtual void set_ecc(pbp::EccMode mode, std::uint64_t epoch) = 0;
  virtual SimStats run() = 0;
  virtual const CpuState& cpu() const = 0;
};

template <typename S>
class WarmSimOf final : public WarmSim {
 public:
  template <typename... A>
  explicit WarmSimOf(A&&... a) : s_(std::forward<A>(a)...) {}
  void reset() override { s_.reset(); }
  void load(const Program& p) override { s_.load(p); }
  void set_ecc(pbp::EccMode mode, std::uint64_t epoch) override {
    s_.set_ecc_mode(mode);
    s_.set_ecc_epoch(epoch);
  }
  SimStats run() override { return s_.run(); }
  const CpuState& cpu() const override { return s_.cpu(); }

 private:
  S s_;
};

std::unique_ptr<WarmSim> make_sim(SimKind k, unsigned ways) {
  switch (k) {
    case SimKind::kFunc:
      return std::make_unique<WarmSimOf<FunctionalSim>>(ways);
    case SimKind::kMulti:
      return std::make_unique<WarmSimOf<MultiCycleSim>>(ways);
    case SimKind::kMultiFsm:
      return std::make_unique<WarmSimOf<MultiCycleFsmSim>>(ways);
    case SimKind::kPipe4:
      return std::make_unique<WarmSimOf<PipelineSim>>(
          ways, PipelineConfig{.stages = 4, .forwarding = true});
    case SimKind::kPipe5:
      return std::make_unique<WarmSimOf<PipelineSim>>(
          ways, PipelineConfig{.stages = 5, .forwarding = true});
    case SimKind::kPipe5NoFwd:
      return std::make_unique<WarmSimOf<PipelineSim>>(
          ways, PipelineConfig{.stages = 5, .forwarding = false});
    case SimKind::kRtl:
      return std::make_unique<WarmSimOf<RtlPipelineSim>>(ways);
  }
  throw std::logic_error("unknown SimKind");
}

JobSpec fig10_spec(SimKind sim, unsigned ways) {
  JobSpec s;
  s.source = figure10_source();
  s.sim = sim;
  s.ways = ways;
  s.expect = {{0, kFig10Reg0}, {1, kFig10Reg1}};
  return s;
}

ArchCase fig10_case(const JobSpec& spec) {
  return arch_case(spec, kFig10Instructions,
                   kModels[model_index(spec.sim)].fig10_cycles);
}

/// Direct simulator runs of a set of cases, each a given number of times
/// per batch in a seeded order, on one warm simulator per case: reset(),
/// load(), the case's ECC settings (as a serve worker applies them; skipped
/// with ECC off), run().  This is the sim_fig10 workload, and the arch-layer
/// replay of the other workloads on their own cases.
class ArchLoop final : public Workload {
 public:
  ArchLoop(Tracer& tr, Checker& chk, std::uint64_t seed,
           std::vector<std::pair<ArchCase, unsigned>> cases)
      : Workload(tr, chk), rng_(seed) {
    for (std::size_t c = 0; c < cases.size(); ++c) {
      cases_.push_back(std::move(cases[c].first));
      order_.insert(order_.end(), cases[c].second, c);
    }
  }

  /// sim_fig10: every model once at ways 8 and twice at ways 16, ECC off.
  static std::vector<std::pair<ArchCase, unsigned>> fig10_cases() {
    std::vector<std::pair<ArchCase, unsigned>> out;
    for (const Model& m : kModels) {
      out.emplace_back(fig10_case(fig10_spec(m.kind, 8)), 1);
      out.emplace_back(fig10_case(fig10_spec(m.kind, 16)), 2);
    }
    return out;
  }

  void setup() override {
    n_job_ = tr_.intern("bench.job");
    n_reset_ = tr_.intern("arch.reset");
    n_load_ = tr_.intern("arch.load");
    for (const ArchCase& c : cases_) {
      sims_.push_back(make_sim(kModels[c.model].kind, c.ways));
      n_run_.push_back(tr_.intern(run_name(c)));
    }
    Phase warm;
    for (std::size_t c = 0; c < cases_.size(); ++c) run_one(c, warm);
  }

  void batch(Phase& ph) override {
    std::shuffle(order_.begin(), order_.end(), rng_);
    for (const std::size_t c : order_) run_one(c, ph);
  }

  /// arch.* metrics from the spans of the traced runs.  A (model, ways) the
  /// cases do not run reads 0.
  void layer_metrics(const Phase&, Metrics& out) override {
    std::vector<double> w8_ns_per_instr;
    for (const ArchCase& c : cases_) {
      std::vector<double> us = tr_.durations_us(run_name(c));
      if (c.ways == 8) {
        for (double u : us) w8_ns_per_instr.push_back(u * 1e3 / c.instructions);
      }
      out["arch.run_us." + std::string(kModels[c.model].name) + ".w" +
          std::to_string(c.ways)] = {percentile(us, 50), "us"};
    }
    out["arch.host_ns_per_instr.w8"] = {percentile(w8_ns_per_instr, 50), "ns"};
    auto reset = tr_.durations_us("arch.reset");
    auto load = tr_.durations_us("arch.load");
    out["arch.reset_us"] = {percentile(reset, 50), "us"};
    out["arch.load_us"] = {percentile(load, 50), "us"};
  }

  ReplayInputs replay_inputs() const override {
    ReplayInputs in;
    for (const Model& m : kModels) {
      in.specs.push_back(fig10_spec(m.kind, 8));
      JobReport r;
      r.name = m.name;
      r.outcome = JobOutcome::kCompleted;
      r.attempts = 1;
      r.instructions = kFig10Instructions;
      r.cycles = m.fig10_cycles;
      in.reports.push_back(r);
    }
    return in;
  }

 private:
  static std::string run_name(const ArchCase& c) {
    return std::string("arch.run.") + kModels[c.model].name + ".w" +
           std::to_string(c.ways);
  }

  void run_one(std::size_t c, Phase& ph) {
    const ArchCase& k = cases_[c];
    WarmSim& s = *sims_[c];
    const std::uint64_t job = ++jobs_;
    const std::int64_t t0 = now_ns();
    SimStats st;
    {
      Scope js(tr_, n_job_, job);
      {
        Scope a(tr_, n_reset_, job);
        s.reset();
      }
      {
        Scope a(tr_, n_load_, job);
        s.load(k.program);
        if (k.ecc != pbp::EccMode::kOff) s.set_ecc(k.ecc, k.ecc_epoch);
      }
      {
        Scope a(tr_, n_run_[c], job);
        st = s.run();
      }
    }
    ph.jobs.push_back({(now_ns() - t0) / 1e6});
    bool ok = st.halted && !st.trap && st.instructions == k.instructions &&
              st.cycles == k.cycles;
    for (const auto& [reg, value] : k.expect) ok = ok && s.cpu().reg(reg) == value;
    const char* name = kModels[k.model].name;
    chk_.job(ok, [&] {
      return std::string("sim ") + name + " ways " + std::to_string(k.ways) +
             ": cycles " + std::to_string(st.cycles) + ", instructions " +
             std::to_string(st.instructions) + ", $0=" +
             std::to_string(s.cpu().reg(0)) + ", $1=" +
             std::to_string(s.cpu().reg(1));
    });
    chk_.same_stats(Checker::kSimStatsKey + c, name,
                    {st.instructions, st.cycles, st.taken_branches,
                     st.data_stall_cycles, st.flush_cycles,
                     st.fetch_extra_cycles, st.halted ? 1u : 0u});
  }

  std::mt19937_64 rng_;
  std::vector<ArchCase> cases_;
  std::vector<std::unique_ptr<WarmSim>> sims_;
  std::vector<std::uint32_t> n_run_;
  std::vector<std::size_t> order_;
  std::uint32_t n_job_ = 0;
  std::uint32_t n_reset_ = 0;
  std::uint32_t n_load_ = 0;
  std::uint64_t jobs_ = 0;
};

/// Per-job serve-side records shared by the serve workloads.
void serve_record_metrics(const Phase& ph, unsigned threads, Metrics& m) {
  std::vector<double> q, e, r;
  double exec_sum = 0.0;
  for (const JobRecord& j : ph.jobs) {
    if (j.queue_ms < 0) continue;
    q.push_back(j.queue_ms);
    e.push_back(j.exec_ms);
    r.push_back(perfbench::residual_ms(j.latency_ms, j.queue_ms, j.exec_ms));
    exec_sum += j.exec_ms;
  }
  put_p50_p99(m, "serve.queue_ms", "ms", q);
  put_p50_p99(m, "serve.exec_ms", "ms", e);
  put_p50_p99(m, "serve.residual_ms", "ms", r);
  if (ph.wall_s > 0) {
    m["serve.worker_busy_frac"] = {
        exec_sum / (ph.wall_s * 1e3 * threads), "fraction"};
  }
}

double pool_hit_ratio(const ServerStats& before, const ServerStats& after) {
  const double hits =
      static_cast<double>(after.sim_pool_hits - before.sim_pool_hits);
  const double misses =
      static_cast<double>(after.sim_pool_misses - before.sim_pool_misses);
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

/// tcp_trivial: loopback-TCP NetServer + ServeClient, 2-instruction jobs,
/// batches alternating between per-frame submit() and one submit_batch().
class TcpTrivial final : public Workload {
 public:
  TcpTrivial(Tracer& tr, Checker& chk, std::uint64_t seed)
      : Workload(tr, chk), next_batched_((seed & 1) != 0) {
    // The seed only picks which mode goes first: the job itself is the
    // fixed-cost floor.
    for (unsigned i = 0; i < kBatch; ++i) {
      JobSpec s;
      s.name = "trivial-" + std::to_string(i);
      s.source = kTrivialSource;
      s.max_instructions = 100;
      s.expect = {{1, 1}};
      specs_.push_back(s);
    }
  }

  void setup() override {
    n_batch_ = tr_.intern("bench.batch");
    n_submit_ = tr_.intern("net.submit");
    n_submit_batch_ = tr_.intern("net.submit_batch");
    n_wait_ = tr_.intern("net.report_wait");
    n_inproc_submit_ = tr_.intern("serve.submit");
    n_inproc_wait_ = tr_.intern("serve.wait");
    net::NetServerConfig cfg;
    cfg.jobs = server_config();
    server_ = std::make_unique<net::NetServer>(cfg);
    if (!server_->ok()) throw std::runtime_error(server_->error());
    net::ServeClientConfig cc;
    cc.port = server_->port();
    client_ = std::make_unique<net::ServeClient>(cc);
    const net::ClientResult r = client_->connect();
    if (!r.ok) throw std::runtime_error("connect: " + r.message);
    Phase warm;
    batch(warm);
    batch(warm);
  }

  void batch(Phase& ph) override {
    const bool batched = next_batched_;
    next_batched_ = !next_batched_;
    const std::uint64_t first = jobs_ + 1;
    Scope bs(tr_, n_batch_, first);
    std::unordered_map<std::uint64_t, std::pair<std::int64_t, std::size_t>>
        pending;
    if (batched) {
      std::vector<net::SubmitBatchOk::Item> items;
      net::ClientResult res;
      const std::int64_t t0 = now_ns();
      bool ok = false;
      {
        Scope s(tr_, n_submit_batch_, first);
        ok = client_->submit_batch(specs_, &items, &res);
      }
      jobs_ += kBatch;
      for (std::size_t i = 0; i < kBatch; ++i) {
        if (ok && i < items.size() &&
            items[i].status == net::SubmitBatchOk::Status::kAdmitted) {
          pending.emplace(items[i].id, std::make_pair(t0, i));
        } else {
          chk_.lost("batch submit refused: " +
                    (ok ? (i < items.size() ? items[i].message
                                            : std::string("missing item"))
                        : res.message));
        }
      }
    } else {
      for (std::size_t i = 0; i < kBatch; ++i) {
        const std::uint64_t job = ++jobs_;
        net::ClientResult res;
        const std::int64_t t0 = now_ns();
        std::optional<std::uint64_t> id;
        {
          Scope s(tr_, n_submit_, job);
          id = client_->submit(net::SubmitRequest{specs_[i]}, &res);
        }
        if (id) {
          pending.emplace(*id, std::make_pair(t0, i));
        } else {
          chk_.lost("submit refused: " + res.message);
        }
      }
    }
    while (!pending.empty()) {
      std::optional<JobReport> rep;
      net::ClientResult res;
      {
        Scope s(tr_, n_wait_, first);
        rep = client_->next_report(kReportTimeout, &res);
      }
      const std::int64_t t1 = now_ns();
      if (!rep) {
        for (std::size_t i = 0; i < pending.size(); ++i) {
          chk_.lost("report missing: " + res.message);
        }
        break;
      }
      const auto it = pending.find(rep->id);
      if (it == pending.end()) {
        chk_.lost("report for unknown id " + std::to_string(rep->id));
        continue;
      }
      const auto [t0, idx] = it->second;
      pending.erase(it);
      ph.jobs.push_back({(t1 - t0) / 1e6, rep->queue_ms, rep->exec_ms,
                         batched});
      check_trivial(*rep, specs_[idx].name);
      if (replay_.reports.size() < kBatch) replay_.reports.push_back(*rep);
    }
  }

  void mark() override {
    net0_ = server_->net_stats();
    jobs0_ = server_->jobs().stats();
  }

  void layer_metrics(const Phase& ph, Metrics& m) override {
    const net::NetStats net1 = server_->net_stats();
    const ServerStats jobs1 = server_->jobs().stats();
    const double jobs = static_cast<double>(ph.jobs.size());
    serve_record_metrics(ph, server_->jobs().config().threads, m);
    m["serve.pool_hit_ratio"] = {pool_hit_ratio(jobs0_, jobs1), "ratio"};
    put_p50_p99(m, "net.submit_rtt_us.per_frame", "us",
                tr_.durations_us("net.submit"));
    auto batch_us = tr_.durations_us("net.submit_batch");
    m["net.submit_batch_us"] = {percentile(batch_us, 50), "us"};
    put_p50_p99(m, "net.report_wait_us", "us",
                tr_.durations_us("net.report_wait"));
    const double frames = static_cast<double>(
        (net1.frames_rx - net0_.frames_rx) + (net1.frames_tx - net0_.frames_tx));
    m["net.frames_per_job"] = {jobs > 0 ? frames / jobs : 0.0, "count"};
    const double shed =
        static_cast<double>(net1.retry_after_sent - net0_.retry_after_sent);
    m["net.retry_after_frac"] = {jobs > 0 ? shed / (jobs + shed) : 0.0,
                                 "fraction"};

    // Wire tax: the same trivial batch through an in-process JobServer,
    // traced the same way, against the TCP latencies of each mode.
    std::vector<double> frame_ms, batch_ms;
    for (const JobRecord& j : ph.jobs) {
      (j.batched ? batch_ms : frame_ms).push_back(j.latency_ms);
    }
    std::vector<double> inproc_ms = inproc_latencies(ph.wall_s / 4);
    const double base = percentile(inproc_ms, 50);
    m["net.wire_tax_us.per_frame"] = {(percentile(frame_ms, 50) - base) * 1e3,
                                      "us"};
    m["net.wire_tax_us.batched"] = {(percentile(batch_ms, 50) - base) * 1e3,
                                    "us"};
    put_p50_p99(m, "serve.submit_us", "us", tr_.durations_us("serve.submit"));
  }

  ReplayInputs replay_inputs() const override {
    ReplayInputs in = replay_;
    in.specs = specs_;
    in.arch.push_back(
        arch_case(specs_[0], kTrivialInstructions, kTrivialCycles));
    return in;
  }

 private:
  JobServerConfig server_config() const {
    JobServerConfig c;
    c.threads = worker_threads();
    c.queue_capacity = 2 * kBatch;
    return c;
  }

  void check_trivial(const JobReport& r, const std::string& name) {
    const bool ok = r.outcome == JobOutcome::kCompleted &&
                    r.instructions == kTrivialInstructions &&
                    r.cycles == kTrivialCycles && r.name == name &&
                    !r.deduped;
    chk_.job(ok, [&] { return "trivial job " + name + ": " + r.to_string(); });
    chk_.same_stats(0, "trivial", report_stats(r));
  }

  std::vector<double> inproc_latencies(double seconds) {
    JobServer js(server_config());
    std::vector<double> lat;
    const std::int64_t stop = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    std::uint64_t job = jobs_;
    do {
      std::vector<std::pair<JobServer::JobId, std::int64_t>> ids;
      std::vector<std::size_t> idx;
      for (std::size_t i = 0; i < kBatch; ++i) {
        const std::int64_t t0 = now_ns();
        std::optional<JobServer::JobId> id;
        {
          Scope s(tr_, n_inproc_submit_, ++job);
          id = js.submit_spec(specs_[i]);
        }
        if (id) {
          ids.emplace_back(*id, t0);
          idx.push_back(i);
        } else {
          chk_.lost("in-process submit refused");
        }
      }
      for (std::size_t k = 0; k < ids.size(); ++k) {
        JobReport r;
        {
          Scope s(tr_, n_inproc_wait_, ids[k].first);
          r = js.wait(ids[k].first);
        }
        lat.push_back((now_ns() - ids[k].second) / 1e6);
        check_trivial(r, specs_[idx[k]].name);
      }
    } while (now_ns() < stop || !perfbench::tail_supported(lat.size(), 99));
    return lat;
  }

  std::vector<JobSpec> specs_;
  bool next_batched_;
  std::unique_ptr<net::NetServer> server_;
  std::unique_ptr<net::ServeClient> client_;
  net::NetStats net0_;
  ServerStats jobs0_;
  ReplayInputs replay_;
  std::uint64_t jobs_ = 0;
  std::uint32_t n_batch_ = 0;
  std::uint32_t n_submit_ = 0;
  std::uint32_t n_submit_batch_ = 0;
  std::uint32_t n_wait_ = 0;
  std::uint32_t n_inproc_submit_ = 0;
  std::uint32_t n_inproc_wait_ = 0;
};

/// A directory created fresh under `parent` and removed with its contents
/// when this object goes.
class TempDir {
 public:
  explicit TempDir(const std::string& parent, const std::string& stem) {
    std::filesystem::create_directories(parent);
    std::string tmpl = parent + "/" + stem + "-XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp " + tmpl + ": " + std::strerror(errno));
    }
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// serve_fig10_ecc and journal_keyed: in-process JobServer::submit_spec of
/// Figure 10 source across the seven models at ways 8.  `journal` selects
/// journal_keyed: ECC off, idempotency keys, a fresh journal directory, and
/// one submission in four reusing the key of a finished job.
class InProcFig10 final : public Workload {
 public:
  InProcFig10(Tracer& tr, Checker& chk, std::uint64_t seed, bool journal,
              const std::string& scratch)
      : Workload(tr, chk), rng_(seed), seed_(seed), journal_(journal) {
    if (journal_) dir_ = std::make_unique<TempDir>(scratch, "journal");
    for (std::size_t i = 0; i < kModels.size(); ++i) perm_.push_back(i);
    std::shuffle(perm_.begin(), perm_.end(), rng_);
  }

  void setup() override {
    n_batch_ = tr_.intern("bench.batch");
    n_submit_ = tr_.intern("serve.submit");
    n_wait_ = tr_.intern("serve.wait");
    JobServerConfig c;
    c.threads = worker_threads();
    c.queue_capacity = kBatch;
    if (journal_) {
      c.journal_dir = dir_->path();
      c.checkpoint_every_default = kJournalCheckpointEvery;
    }
    server_ = std::make_unique<JobServer>(c);
    Phase warm;
    batch(warm);
  }

  void batch(Phase& ph) override {
    const std::size_t off = rng_() % kModels.size();
    // journal_keyed: 16 of the 64 slots resubmit a finished job's key.
    std::vector<bool> dup(kBatch, false);
    if (journal_ && !done_.empty()) {
      for (unsigned i = 0; i < kBatch / 4; ++i) dup[i] = true;
      std::shuffle(dup.begin(), dup.end(), rng_);
    }
    struct Pending {
      JobServer::JobId id;
      std::int64_t t0;
      std::size_t model;
      JobSpec spec;
      long dup_of;  // index into done_, or -1
    };
    std::vector<Pending> pending;
    Scope bs(tr_, n_batch_, jobs_ + 1);
    for (unsigned j = 0; j < kBatch; ++j) {
      const std::size_t model = perm_[(j + off) % kModels.size()];
      JobSpec spec = model_spec(model);
      const std::uint64_t job = ++jobs_;
      long dup_of = -1;
      if (dup[j]) {
        dup_of = static_cast<long>(rng_() % done_.size());
        spec = done_[static_cast<std::size_t>(dup_of)].spec;
      } else {
        spec.name = "fig10-" + std::to_string(job);
        if (journal_) {
          spec.idempotency_key =
              "s" + std::to_string(seed_) + "/" + std::to_string(job);
        }
      }
      if (replay_.specs.size() < kBatch) replay_.specs.push_back(spec);
      std::string reason;
      const std::int64_t t0 = now_ns();
      std::optional<JobServer::JobId> id;
      {
        Scope s(tr_, n_submit_, job);
        id = server_->submit_spec(spec, &reason);
      }
      if (!id) {
        chk_.lost("submit refused: " + reason);
        continue;
      }
      pending.push_back({*id, t0, model, std::move(spec), dup_of});
    }
    for (Pending& p : pending) {
      JobReport r;
      {
        Scope s(tr_, n_wait_, p.id);
        r = server_->wait(p.id);
      }
      const double lat = (now_ns() - p.t0) / 1e6;
      if (p.dup_of >= 0) {
        const Done& orig = done_[static_cast<std::size_t>(p.dup_of)];
        const bool ok = r.deduped &&
                        report_identity(r) == report_identity(orig.report);
        chk_.job(ok, [&] {
          return "dedupe of " + orig.spec.idempotency_key +
                 (r.deduped ? " differs from the original" : " was not deduped");
        });
        ph.jobs.push_back({lat});
        continue;
      }
      ph.jobs.push_back({lat, r.queue_ms, r.exec_ms});
      const Model& m = kModels[p.model];
      const bool ok = r.outcome == JobOutcome::kCompleted && !r.deduped &&
                      r.instructions == kFig10Instructions &&
                      r.cycles == m.fig10_cycles && r.name == p.spec.name &&
                      r.ecc_detected == 0;
      chk_.job(ok, [&] {
        return std::string("fig10 on ") + m.name + ": " + r.to_string() +
               ", cycles " + std::to_string(r.cycles) + " (expected " +
               std::to_string(m.fig10_cycles) + ")";
      });
      chk_.same_stats(p.model, m.name, report_stats(r));
      if (replay_.reports.size() < kBatch) replay_.reports.push_back(r);
      if (journal_) done_.push_back({std::move(p.spec), r});
    }
  }

  void mark() override { stats0_ = server_->stats(); }

  void layer_metrics(const Phase& ph, Metrics& m) override {
    const ServerStats s1 = server_->stats();
    serve_record_metrics(ph, server_->config().threads, m);
    put_p50_p99(m, "serve.submit_us", "us", tr_.durations_us("serve.submit"));
    m["serve.pool_hit_ratio"] = {pool_hit_ratio(stats0_, s1), "ratio"};
    const double submitted =
        static_cast<double>(s1.submitted - stats0_.submitted);
    if (submitted > 0) {
      m["serve.dedupe_ratio"] = {
          static_cast<double>(s1.reports_deduped - stats0_.reports_deduped) /
              submitted,
          "ratio"};
    }
  }

  ReplayInputs replay_inputs() const override {
    ReplayInputs in = replay_;
    for (std::size_t m = 0; m < kModels.size(); ++m) {
      in.arch.push_back(fig10_case(model_spec(m)));
    }
    return in;
  }

  /// The journal directory ("" without a journal).
  std::string journal_dir() const { return dir_ ? dir_->path() : ""; }

 private:
  struct Done {
    JobSpec spec;
    JobReport report;
  };

  /// Figure 10 on model `m` at ways 8; ECC correct unless journaled.
  JobSpec model_spec(std::size_t m) const {
    JobSpec spec = fig10_spec(kModels[m].kind, 8);
    if (!journal_) {
      spec.ecc = pbp::EccMode::kCorrect;
      spec.ecc_epoch = 1;
    }
    return spec;
  }

  std::mt19937_64 rng_;
  std::uint64_t seed_;
  bool journal_;
  // Declared before server_: the journal directory outlives the server.
  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<JobServer> server_;
  std::vector<std::size_t> perm_;
  std::vector<Done> done_;
  ServerStats stats0_;
  ReplayInputs replay_;
  std::uint64_t jobs_ = 0;
  std::uint32_t n_batch_ = 0;
  std::uint32_t n_submit_ = 0;
  std::uint32_t n_wait_ = 0;
};

// ---------------------------------------------------------------------------
// Layer replays (traced run only, outside the timed loop).

/// Time `fn` `reps` times per block and return the per-call ns of each of
/// `blocks` blocks.
template <typename Fn>
std::vector<double> per_call_ns(unsigned blocks, unsigned reps, Fn&& fn) {
  std::vector<double> out;
  for (unsigned b = 0; b < blocks; ++b) {
    const std::int64_t t0 = now_ns();
    for (unsigned r = 0; r < reps; ++r) fn();
    out.push_back(static_cast<double>(now_ns() - t0) / reps);
  }
  return out;
}

volatile std::uint64_t g_sink = 0;

void replay_isa(const Program& prog, Metrics& m) {
  const auto& w = prog.words;
  std::uint64_t instrs = 0;
  for (std::size_t pc = 0; pc < w.size(); ++instrs) {
    pc += decode(w[pc], pc + 1 < w.size() ? w[pc + 1] : 0).words;
  }
  auto ns = per_call_ns(40, 200, [&] {
    std::uint64_t acc = 0;
    for (std::size_t pc = 0; pc < w.size();) {
      const Decoded d = decode(w[pc], pc + 1 < w.size() ? w[pc + 1] : 0);
      acc += static_cast<std::uint64_t>(d.instr.op) + d.instr.qa;
      pc += d.words;
    }
    g_sink = g_sink + acc;
  });
  m["isa.decode_ns_per_instr"] = {
      percentile(ns, 50) / static_cast<double>(instrs), "ns"};
}

void replay_arch_state(const Program& prog, Checker& chk, Metrics& m) {
  FunctionalSim ecc(8);
  std::vector<double> load_us;
  for (int i = 0; i < 400; ++i) {
    ecc.reset();
    ecc.set_ecc_mode(pbp::EccMode::kCorrect);
    const std::int64_t t0 = now_ns();
    ecc.load(prog);
    load_us.push_back((now_ns() - t0) / 1e3);
  }
  const SimStats st = ecc.run();
  chk.job(st.halted && !st.trap && ecc.cpu().reg(0) == kFig10Reg0 &&
              ecc.cpu().reg(1) == kFig10Reg1,
          [] { return std::string("ECC-correct replay gave a wrong answer"); });
  m["arch.load_us.ecc"] = {percentile(load_us, 50), "us"};

  // Machine states as journal_keyed persists them: Figure 10 stopped at
  // the journal's checkpoint cadence.
  for (unsigned ways : kWays) {
    FunctionalSim s(ways);
    s.load(prog);
    s.run(kJournalCheckpointEvery);
    std::vector<double> us;
    const int reps = ways == 8 ? 300 : 30;
    for (int i = 0; i < reps; ++i) {
      const std::int64_t t0 = now_ns();
      const auto image = save_checkpoint(s.cpu(), s.memory(), s.qat());
      us.push_back((now_ns() - t0) / 1e3);
      g_sink = g_sink + image.size();
    }
    m["arch.checkpoint_encode_us.w" + std::to_string(ways)] = {
        percentile(us, 50), "us"};
  }
}

void replay_pbp(std::uint64_t seed, Metrics& m) {
  namespace simd = pbp::simd;
  constexpr std::size_t kWords = (std::size_t{1} << 16) / 64;  // ways 16
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> a(kWords), b(kWords), c(kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    a[i] = rng();
    b[i] = rng();
    c[i] = rng();
  }
  std::vector<std::uint8_t> checks(kWords);
  const simd::Tier saved = simd::active();
  const std::pair<const char*, simd::Tier> tiers[] = {
      {"scalar", simd::Tier::kScalar},
      {"avx2", simd::Tier::kAvx2},
      {"avx512", simd::Tier::kAvx512}};
  for (const auto& [name, tier] : tiers) {
    // An unsupported tier keeps its metrics at 0.
    if (!simd::set_tier(tier)) continue;
    auto ccnot = per_call_ns(40, 200, [&] {
      simd::ccnot(a.data(), b.data(), c.data(), kWords);
    });
    auto xor3 = per_call_ns(40, 200, [&] {
      simd::xor3(a.data(), b.data(), c.data(), kWords);
    });
    auto enc = per_call_ns(40, 100, [&] {
      simd::secded64_encode(a.data(), checks.data(), kWords);
    });
    g_sink = g_sink + a[0] + checks[0];
    m[std::string("pbp.aob_gate_ns.ccnot.w16.") + name] = {
        percentile(ccnot, 50), "ns"};
    m[std::string("pbp.aob_gate_ns.xor3.w16.") + name] = {
        percentile(xor3, 50), "ns"};
    // Payload bytes per ns is GB/s.
    m[std::string("pbp.secded_encode_gbps.") + name] = {
        static_cast<double>(kWords * 8) / percentile(enc, 50), "GB/s"};
  }
  simd::set_tier(saved);
}

/// The receive side of the wire codec: header check, payload copy (as the
/// socket reader makes it) and CRC.  False on any frame error.
bool unframe(const std::vector<std::uint8_t>& frame,
             std::vector<std::uint8_t>* payload) {
  net::FrameHeader h;
  if (net::parse_header(frame.data(), net::kDefaultMaxFrameBytes, &h) !=
      net::FrameCheck::kOk) {
    return false;
  }
  payload->assign(frame.begin() + net::kHeaderBytes, frame.end());
  return net::verify_payload(h, *payload) == net::FrameCheck::kOk;
}

void replay_asm_net(const ReplayInputs& in, Checker& chk, Metrics& m) {
  std::vector<double> to_job, enc, dec, rep_codec;
  for (int i = 0; i < 300; ++i) {
    const JobSpec& s = in.specs[static_cast<std::size_t>(i) % in.specs.size()];
    std::int64_t t0 = now_ns();
    const Job job = s.to_job();
    to_job.push_back((now_ns() - t0) / 1e3);
    g_sink = g_sink + job.program.words.size();

    t0 = now_ns();
    const auto frame =
        net::encode_message(net::MsgType::kSubmit, net::SubmitRequest{s});
    enc.push_back((now_ns() - t0) / 1e3);

    t0 = now_ns();
    std::vector<std::uint8_t> payload;
    const bool ok = unframe(frame, &payload);
    pbp::ByteReader r(payload);
    const net::SubmitRequest back = net::SubmitRequest::decode(r);
    dec.push_back((now_ns() - t0) / 1e3);
    chk.job(ok && back.source == s.source && back.sim == s.sim,
            [] { return std::string("submit frame did not round-trip"); });
  }
  for (int i = 0; i < 300; ++i) {
    const JobReport& rep =
        in.reports[static_cast<std::size_t>(i) % in.reports.size()];
    const std::int64_t t0 = now_ns();
    pbp::ByteWriter w;
    net::encode_report(rep, w);
    const auto frame = net::encode_frame(net::MsgType::kReport, w.bytes());
    std::vector<std::uint8_t> payload;
    const bool ok = unframe(frame, &payload);
    pbp::ByteReader r(payload);
    const JobReport back = net::decode_report(r);
    rep_codec.push_back((now_ns() - t0) / 1e3);
    chk.job(ok && report_identity(back) == report_identity(rep),
            [] { return std::string("report frame did not round-trip"); });
  }
  m["asm.to_job_us"] = {percentile(to_job, 50), "us"};
  m["net.frame_encode_us"] = {percentile(enc, 50), "us"};
  m["net.frame_decode_us"] = {percentile(dec, 50), "us"};
  m["net.report_codec_us"] = {percentile(rep_codec, 50), "us"};
}

/// Journal::append_admit / append_report of the workload's own specs and
/// reports into a scratch journal on the same filesystem.
void replay_journal(const ReplayInputs& in, const std::string& scratch,
                    Checker& chk, Metrics& m) {
  TempDir dir(scratch, "journal-replay");
  Journal::Recovery rec;
  std::string err;
  auto j = Journal::open({dir.path()}, &rec, &err);
  if (!j) throw std::runtime_error("journal replay: " + err);
  std::vector<double> us;
  const std::uint64_t bytes0 = j->bytes();
  // 1000+ appends, so the p99 has ten samples beyond it.
  constexpr std::size_t kJobs = 512;
  for (std::size_t i = 0; i < kJobs; ++i) {
    JobSpec s = in.specs[i % in.specs.size()];
    s.idempotency_key = "replay/" + std::to_string(i);
    JobReport r = in.reports[i % in.reports.size()];
    r.idem_key = s.idempotency_key;
    std::int64_t t0 = now_ns();
    bool ok = j->append_admit(s);
    us.push_back((now_ns() - t0) / 1e3);
    t0 = now_ns();
    ok = j->append_report(r) && ok;
    us.push_back((now_ns() - t0) / 1e3);
    chk.job(ok, [] { return std::string("journal replay append failed"); });
  }
  put_p50_p99(m, "serve.journal.append_us", "us", us);
  m["serve.journal.bytes_per_job"] = {
      static_cast<double>(j->bytes() - bytes0) / kJobs, "B"};
}

// ---------------------------------------------------------------------------
// Host fingerprint.

std::string fs_type_name(const std::string& path) {
  struct statfs sf {};
  if (statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fingerprint_json(const std::string& journal_dir) {
  const std::string fs = fs_type_name(journal_dir);
#ifdef __clang__
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef TANGLED_HAVE_OPENMP
  const bool openmp = true;
#else
  const bool openmp = false;
#endif
  return std::string("{") +
         "\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu_model\": " + json_str(cpu_model()) +
         ", \"simd_tier\": " + json_str(pbp::simd::tier_name(pbp::simd::active())) +
         ", \"gfni\": " + (pbp::simd::gfni_active() ? "true" : "false") +
         ", \"compiler\": " + json_str(compiler) +
         ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
         ", \"openmp\": " + (openmp ? "true" : "false") +
         ", \"journal_fs\": " + json_str(fs) + "}";
}

// ---------------------------------------------------------------------------
// Main.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::int64_t t0_ns = 0;
  std::string scratch = ".bench_build/scratch";
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sim_fig10|tcp_trivial|serve_fig10_ecc|journal_keyed --seed N "
               "--seconds S --trace 0|1 [--t0-ns NS] [--setup-only] "
               "[--scratch DIR] [--out DIR]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  try {
    std::size_t used = 0;
    const unsigned long long x = std::stoull(v, &used, 10);
    if (used == v.size() && !v.empty() && v[0] != '-') return x;
  } catch (const std::exception&) {
  }
  usage("invalid value for " + flag + ": " + v);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + f);
    const std::string v = argv[++i];
    if (f == "--workload") {
      a.workload = v;
    } else if (f == "--seed") {
      a.seed = parse_u64(f, v);
    } else if (f == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(f, v));
      if (a.seconds < 1 || a.seconds > 120) usage("--seconds out of range");
    } else if (f == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (f == "--t0-ns") {
      a.t0_ns = static_cast<std::int64_t>(parse_u64(f, v));
    } else if (f == "--scratch") {
      a.scratch = v;
    } else if (f == "--out") {
      a.out = v;
    } else {
      usage("unknown flag " + f);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// peak_rss_mb is read once this many jobs are done: the JobServer keeps
/// every report it publishes, so RSS grows with the jobs served, and a fixed
/// amount of work keeps a faster program from being charged for serving
/// more jobs in the same time.
constexpr std::size_t kRssJobs = std::size_t{1} << 16;

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Batches until `seconds` have passed, `rss_jobs` jobs are done and the
/// p99 has ten samples beyond it (or until the hard stop).
Phase run_phase(Workload& w, double seconds, std::int64_t hard_stop,
                std::size_t rss_jobs = 0) {
  constexpr std::int64_t kWindowNs = 1'000'000'000;
  Phase ph;
  // Reserved, not touched: untouched pages are not resident, and the
  // vector never reallocates while RSS is being read.
  ph.jobs.reserve(std::size_t{1} << 22);
  const std::int64_t t0 = now_ns();
  const auto limit = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t window_t0 = t0;
  for (;;) {
    w.batch(ph);
    const std::int64_t now = now_ns();
    if (ph.peak_rss_mb == 0.0 && ph.jobs.size() >= rss_jobs) {
      ph.peak_rss_mb = peak_rss_mb();
    }
    const bool stop = now >= hard_stop ||
                      (now - t0 >= limit && ph.peak_rss_mb != 0.0 &&
                       perfbench::tail_supported(ph.jobs.size(), 99));
    if (stop || now - window_t0 >= kWindowNs) {
      ph.window_end.push_back(ph.jobs.size());
      ph.window_s.push_back((now - window_t0) / 1e9);
      window_t0 = now;
    }
    if (stop) {
      ph.wall_s = (now - t0) / 1e9;
      break;
    }
  }
  if (ph.peak_rss_mb == 0.0) ph.peak_rss_mb = peak_rss_mb();
  return ph;
}

/// Writes the first 200,000 spans (about 20 MB); the metrics use them all.
void write_spans(const Tracer& tr, const std::string& path) {
  constexpr std::size_t kMaxSpansWritten = 200'000;
  std::ofstream out(path);
  out << "span,parent,job,name,start_ns,end_ns,self_ns\n";
  const auto self = perfbench::self_times(tr.spans());
  const std::size_t n = std::min(tr.spans().size(), kMaxSpansWritten);
  for (std::size_t i = 0; i < n; ++i) {
    const perfbench::Span& s = tr.spans()[i];
    out << i << ',' << s.parent << ',' << s.job << ',' << tr.names()[s.name]
        << ',' << s.t0 << ',' << s.t1 << ',' << self[i] << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Self time per job by layer (the span name's prefix before the first
/// '.'): where each job's time went, outside the layers' own internals.
std::map<std::string, double> self_us_per_job(const Tracer& tr,
                                              std::size_t jobs) {
  std::map<std::string, double> out;
  const auto self = perfbench::self_times(tr.spans());
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    const std::string& name = tr.names()[tr.spans()[i].name];
    out[name.substr(0, name.find('.'))] += self[i] / 1e3;
  }
  for (auto& [layer, us] : out) us /= static_cast<double>(jobs ? jobs : 1);
  return out;
}

int run(const Args& a) {
  const std::int64_t start = a.t0_ns != 0 ? a.t0_ns : now_ns();
  const std::int64_t hard_stop = now_ns() + std::int64_t{150} * 1'000'000'000;
  Tracer tr(false);
  Checker chk;
  std::unique_ptr<Workload> w;
  InProcFig10* inproc = nullptr;
  if (a.workload == "sim_fig10") {
    w = std::make_unique<ArchLoop>(tr, chk, a.seed, ArchLoop::fig10_cases());
  } else if (a.workload == "tcp_trivial") {
    w = std::make_unique<TcpTrivial>(tr, chk, a.seed);
  } else if (a.workload == "serve_fig10_ecc" || a.workload == "journal_keyed") {
    auto p = std::make_unique<InProcFig10>(
        tr, chk, a.seed, a.workload == "journal_keyed", a.scratch);
    inproc = p.get();
    w = std::move(p);
  } else {
    usage("unknown workload " + a.workload);
  }
  w->setup();
  const double setup_s = (now_ns() - start) / 1e9;
  const std::string journal_dir =
      inproc != nullptr && !inproc->journal_dir().empty() ? inproc->journal_dir()
                                                          : a.scratch;
  std::filesystem::create_directories(a.scratch);

  Metrics m;
  std::map<std::string, double> self_us;
  std::size_t lat_samples = 0;
  std::vector<double> rates, p50s, p99s;
  if (a.setup_only) {
    // Set-up time only; run.py takes the median over several processes.
  } else if (!a.trace) {
    const Phase ph = run_phase(*w, a.seconds, hard_stop, kRssJobs);
    lat_samples = ph.jobs.size();
    rates = ph.window_rates();
    p50s = ph.window_latency_ms(50);
    p99s = ph.window_latency_ms(99);
    m["jobs_per_s"] = {ph.jobs_per_s(), "1/s"};
    m["job_p50_ms"] = {ph.latency_ms(50), "ms"};
    m["job_p99_ms"] = {ph.latency_ms(99), "ms"};
    m["peak_rss_mb"] = {ph.peak_rss_mb, "MB"};
  } else {
    const Phase untraced = run_phase(*w, a.seconds / 2, hard_stop);
    w->mark();
    tr.set_on(true);
    const Phase traced = run_phase(*w, a.seconds / 2, hard_stop);
    lat_samples = traced.jobs.size();
    rates = traced.window_rates();
    self_us = self_us_per_job(tr, traced.jobs.size());
    w->layer_metrics(traced, m);
    tr.set_on(false);
    m["trace_overhead_frac"] = {
        untraced.jobs_per_s() > 0
            ? 1.0 - traced.jobs_per_s() / untraced.jobs_per_s()
            : 0.0,
        "fraction"};
    std::filesystem::create_directories(a.out);
    write_spans(tr, a.out + "/trace-" + a.workload + "-seed" +
                        std::to_string(a.seed) + ".csv");

    const ReplayInputs in = w->replay_inputs();
    const Program fig10 = assemble(figure10_source());
    replay_isa(fig10, m);
    if (!in.arch.empty()) {
      // The loop reaches the arch layer only through the serve layer:
      // replay the simulator runs its jobs make, briefly, on a tracer of
      // their own.
      std::vector<std::pair<ArchCase, unsigned>> cases;
      for (const ArchCase& c : in.arch) cases.emplace_back(c, 1);
      Tracer atr(true);
      ArchLoop arch(atr, chk, a.seed, std::move(cases));
      arch.setup();
      const Phase ph = run_phase(arch, 0.3, hard_stop);
      arch.layer_metrics(ph, m);
    }
    replay_arch_state(fig10, chk, m);
    replay_pbp(a.seed, m);
    replay_asm_net(in, chk, m);
    replay_journal(in, a.scratch, chk, m);
    for (const auto& [name, unit] : per_layer_defs()) {
      m.emplace(name, Metric{0.0, unit});
    }
  }

  std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
              "\"setup_s\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"latency_samples\": %zu, \"samples_beyond_p99\": %zu, "
              "\"fingerprint\": %s, \"failures\": [",
              json_str(a.workload).c_str(),
              static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
              json_num(setup_s).c_str(),
              static_cast<unsigned long long>(chk.attempted()),
              static_cast<unsigned long long>(chk.failed()), lat_samples,
              perfbench::samples_beyond(lat_samples, 99),
              fingerprint_json(journal_dir).c_str());
  for (std::size_t i = 0; i < chk.notes().size(); ++i) {
    std::printf("%s%s", i ? ", " : "", json_str(chk.notes()[i]).c_str());
  }
  for (const auto& [key, v] : {std::pair{"window_jobs_per_s", &rates},
                                std::pair{"window_p50_ms", &p50s},
                                std::pair{"window_p99_ms", &p99s}}) {
    std::printf("], \"%s\": [", key);
    for (std::size_t i = 0; i < v->size(); ++i) {
      std::printf("%s%s", i ? ", " : "", json_num((*v)[i]).c_str());
    }
  }
  std::printf("], \"self_us_per_job\": {");
  bool first = true;
  for (const auto& [layer, us] : self_us) {
    std::printf("%s%s: %s", first ? "" : ", ", json_str(layer).c_str(),
                json_num(us).c_str());
    first = false;
  }
  std::printf("}, \"metrics\": {");
  first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s%s: {\"value\": %s, \"unit\": %s}", first ? "" : ", ",
                json_str(name).c_str(), json_num(metric.value).c_str(),
                json_str(metric.unit).c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return chk.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
