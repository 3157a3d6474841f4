// served_bench — the served-query benchmark defined in BENCHMARK.json.
//
//   served_bench --workload=NAME --seed=N --seconds=S --trace=0|1
//                [--tiny] [--inject-failure]
//
// One process runs Party B, Party A and the clients over real loopback TCP
// (the sknn_server_a / sknn_server_b code path). Every workload is a closed
// loop: each client sends its next query only after its previous answer
// arrived, so a faster system is offered more load instead of a fixed rate
// sized for today's throughput. Queries are the mixed population of
// bench_load (~50% fresh uniform points, ~30% from a shared hot pool, ~20%
// perturbed database points). Every answer is checked against plaintext
// brute force after the timed interval.
//
// --trace=0 measures the end-to-end metrics with the global tracer off, over
// S seconds or, on a host too slow for that, until 100 answers arrived (p90
// with ten samples beyond it), for at most 2.5 S.
// --trace=1 runs an untraced pass and a traced pass of S/2 seconds each and
// reports the per-layer metrics: self time of the spans the library already
// records, the always-on counters and histograms, a time ledger per query,
// and probes that time single layers at the workload's own parameters.
//
// --tiny shrinks every workload to the toy preset (self-check only);
// --inject-failure makes one query fail with a typed error and corrupts one
// answer, so the self-check can see both counted.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. The exit code is non-zero on any verification failure and when
// a --trace=0 run has too few timed samples for p90 to have ten beyond it.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bgv/decryptor.h"
#include "bgv/encoder.h"
#include "bgv/encryptor.h"
#include "bgv/evaluator.h"
#include "bgv/serialization.h"
#include "bgv/symmetric.h"
#include "common/metrics_registry.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/trace.h"
#include "common/trace_id.h"
#include "core/server.h"
#include "data/generators.h"
#include "knn/knn.h"
#include "math/simd/kernels.h"
#include "net/frame.h"
#include "net/resilient_channel.h"
#include "net/socket_link.h"
#include "obs/telemetry_http.h"

namespace {

using namespace sknn;  // NOLINT
using Clock = std::chrono::steady_clock;
using Points = std::vector<std::vector<uint64_t>>;

// Why each workload exists is recorded in BENCHMARK.json.
struct Workload {
  const char* name;
  core::Layout layout;
  size_t n, d, k;
  size_t clients, workers;
};

// Each workload has one A worker, so the served queries leave spare cores
// on a 4-vCPU host and a noisy neighbour moves the figures less.
constexpr Workload kWorkloads[] = {
    {"small-solo", core::Layout::kPacked, 256, 2, 3, 1, 1},
    {"queued-packed", core::Layout::kPacked, 2048, 8, 4, 2, 1},
    {"perpoint-bulk", core::Layout::kPerPoint, 16, 4, 4, 1, 1},
};

constexpr int kCoordBits = 4;
constexpr uint64_t kMaxCoord = (uint64_t{1} << kCoordBits) - 1;
constexpr size_t kSetupRepeats = 7;
constexpr size_t kWarmupPerClient = 2;
constexpr int kShedAttempts = 5;
// p90 needs ten samples beyond it; a traced pass only reports means and
// its p50.
constexpr size_t kMinTimedSamples = 100;
constexpr size_t kMinTracedSamples = 10;
constexpr double kMaxStretch = 2.5;

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool inject_failure = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    const size_t eq = s.find('=');
    const std::string key = s.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : s.substr(eq + 1);
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (val == w.name) a->workload = &w;
      }
      if (a->workload == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", val.c_str());
        return false;
      }
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (s == "--tiny") {
      a->tiny = true;
    } else if (s == "--inject-failure") {
      a->inject_failure = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", s.c_str());
      return false;
    }
  }
  if (a->workload == nullptr || a->seconds <= 0) {
    std::fprintf(stderr, "need --workload=NAME and --seconds>0\n");
    return false;
  }
  return true;
}

double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Deployment: dataset, both servers, clients.

struct SetupTiming {
  double derive_b_s = 0, derive_a_s = 0, start_s = 0;
  double total() const { return derive_b_s + derive_a_s + start_s; }
};

struct Servers {
  core::Deployment deployment_b;  // B's and the clients' key material
  std::unique_ptr<core::PartyBServer> b;
  std::unique_ptr<core::PartyAServer> a;  // destroyed (shut down) first
};

// Time from the dataset being in hand to both servers accepting, with every
// A worker handshaken to B: key generation, DB encryption,
// LoadEncryptedDatabase and the handshakes.
StatusOr<std::unique_ptr<Servers>> SetUp(const core::ProtocolConfig& cfg,
                                         const data::Dataset& dataset,
                                         uint64_t seed, size_t workers,
                                         SetupTiming* timing) {
  auto servers = std::make_unique<Servers>();
  const auto t0 = Clock::now();
  SKNN_ASSIGN_OR_RETURN(
      servers->deployment_b,
      core::Deployment::Derive(cfg, dataset, seed, /*role_a=*/false));
  const auto t1 = Clock::now();
  SKNN_ASSIGN_OR_RETURN(
      core::Deployment dep_a,
      core::Deployment::Derive(cfg, dataset, seed, /*role_a=*/true));
  const auto t2 = Clock::now();
  core::ServerOptions b_options;
  SKNN_ASSIGN_OR_RETURN(servers->b, core::PartyBServer::Start(
                                        servers->deployment_b, b_options));
  core::ServerOptions a_options;
  a_options.peer_port = servers->b->port();
  a_options.workers = workers;
  SKNN_ASSIGN_OR_RETURN(servers->a,
                        core::PartyAServer::Start(dep_a, a_options));
  const auto t3 = Clock::now();
  timing->derive_b_s = MsSince(t0, t1) / 1000;
  timing->derive_a_s = MsSince(t1, t2) / 1000;
  timing->start_s = MsSince(t2, t3) / 1000;
  return servers;
}

struct Sample {
  std::vector<uint64_t> query;
  Status status;
  Points neighbours;
  double ms = 0;
};

struct BenchClient {
  std::unique_ptr<core::RemoteClient> remote;
  std::unique_ptr<Chacha20Rng> rng;
  std::vector<Sample> samples;  // of the current phase
};

std::vector<uint64_t> NextQuery(Chacha20Rng* rng, const data::Dataset& dataset,
                                const Points& hot) {
  const uint64_t roll = rng->NextU64() % 10;
  if (roll < 5) {
    std::vector<uint64_t> q(dataset.dims());
    for (auto& v : q) v = rng->NextU64() % (kMaxCoord + 1);
    return q;
  }
  if (roll < 8) return hot[rng->NextU64() % hot.size()];
  std::vector<uint64_t> q =
      dataset.point(rng->NextU64() % dataset.num_points());
  for (auto& v : q) {
    const uint64_t delta = rng->NextU64() % 3;  // 0, +1, -1 (clamped)
    if (delta == 1 && v < kMaxCoord) ++v;
    if (delta == 2 && v > 0) --v;
  }
  return q;
}

// One client-observed query: a shed (typed kUnavailable) is retried with
// backoff, and the backoff counts in the latency. When the tracer is on,
// the query runs under a fresh trace id so the client's, A's and B's spans
// of this query can be grouped.
Sample RunQuery(BenchClient* client, std::vector<uint64_t> query) {
  Sample s;
  s.query = std::move(query);
  const bool traced = trace::Tracer::Global().enabled();
  trace::ScopedTraceId scoped_id(traced ? trace::MintTraceId() : 0);
  trace::TraceSpan span("bench.query");
  const auto t0 = Clock::now();
  for (int attempt = 0; attempt < kShedAttempts; ++attempt) {
    auto answer = client->remote->Query(s.query);
    if (answer.ok()) {
      s.status = Status::Ok();
      s.neighbours = std::move(answer).value();
      break;
    }
    s.status = answer.status();
    if (s.status.code() != StatusCode::kUnavailable) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5 * (attempt + 1)));
  }
  s.ms = MsSince(t0, Clock::now());
  return s;
}

// The protocol returns neighbour points in an implementation-defined order,
// so compare the sorted multiset of squared distances with the plaintext
// top-k.
bool VerifyAnswer(const data::Dataset& dataset, const Sample& s, size_t k) {
  if (!s.status.ok()) return false;
  auto expected = knn::PlaintextKnn(dataset, s.query, k);
  if (!expected.ok() || s.neighbours.size() != expected->size()) return false;
  std::vector<uint64_t> got, want;
  for (const auto& p : s.neighbours) {
    if (p.size() != s.query.size()) return false;
    uint64_t dist = 0;
    for (size_t j = 0; j < p.size(); ++j) {
      const uint64_t diff =
          p[j] > s.query[j] ? p[j] - s.query[j] : s.query[j] - p[j];
      dist += diff * diff;
    }
    got.push_back(dist);
  }
  for (const auto& nb : *expected) want.push_back(nb.squared_distance);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  return got == want;
}

// A timed closed-loop pass: all clients start together at a barrier and
// each issues queries until `seconds` have elapsed; the pass ends when the
// last in-flight answer arrives.
struct Pass {
  std::vector<Sample> samples;
  double wall_s = 0;
  double cpu_s = 0;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, MetricsRegistry::HistogramSnapshot> histograms;
  std::vector<trace::SpanRecord> records;
  double scrape_ms = 0;

  std::vector<double> Latencies() const {
    std::vector<double> v;
    for (const Sample& s : samples) {
      if (s.status.ok()) v.push_back(s.ms);
    }
    return v;
  }
  uint64_t completed() const { return Latencies().size(); }
  double Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : static_cast<double>(it->second);
  }
};

// Runs `per_client` on every client, each on its own thread, released
// together once all threads exist.
template <typename Fn>
void OnAllClients(std::vector<BenchClient>* clients, Fn per_client,
                  Clock::time_point* released_at) {
  std::mutex mu;
  std::condition_variable cv;
  bool go = false;
  std::vector<std::thread> threads;
  for (BenchClient& c : *clients) {
    threads.emplace_back([&, cp = &c] {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return go; });
      }
      per_client(cp);
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    go = true;
    *released_at = Clock::now();
  }
  cv.notify_all();
  for (auto& t : threads) t.join();
}

Pass RunPass(std::vector<BenchClient>* clients, const data::Dataset& dataset,
             const Points& hot, double seconds, size_t min_samples,
             bool traced, uint16_t admin_port) {
  Pass pass;
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.ResetValues();
  if (traced) trace::Tracer::Global().Enable();
  for (BenchClient& c : *clients) c.samples.clear();
  // One /metrics scrape a third of the way into a traced pass.
  std::atomic<bool> done{false};
  std::thread scraper;
  if (admin_port != 0) {
    scraper = std::thread([&] {
      const auto at = Clock::now() + std::chrono::duration<double>(seconds / 3);
      while (!done.load() && Clock::now() < at) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      auto res = obs::HttpGet("127.0.0.1", admin_port, "/metrics", 5000);
      if (res.ok() && res->status == 200) pass.scrape_ms = res->latency_ms;
    });
  }
  const double cpu0 = CpuSeconds();
  Clock::time_point start;
  // A host (or a commit) too slow to finish `min_samples` queries in
  // `seconds` keeps the pass going until it has them, up to kMaxStretch
  // times as long.
  const auto duration = std::chrono::duration<double>(seconds);
  std::atomic<size_t> completed{0};
  OnAllClients(
      clients,
      [&](BenchClient* c) {
        const auto begin = Clock::now();
        for (;;) {
          const auto elapsed = Clock::now() - begin;
          if (elapsed >= duration * kMaxStretch) break;
          if (elapsed >= duration && completed.load() >= min_samples) break;
          Sample s = RunQuery(c, NextQuery(c->rng.get(), dataset, hot));
          if (s.status.ok()) completed.fetch_add(1);
          c->samples.push_back(std::move(s));
        }
      },
      &start);
  const auto stop = Clock::now();
  pass.cpu_s = CpuSeconds() - cpu0;
  pass.wall_s = MsSince(start, stop) / 1000;
  done.store(true);
  if (scraper.joinable()) scraper.join();
  pass.counters = registry.CounterValues();
  pass.histograms = registry.HistogramValues();
  if (traced) {
    pass.records = trace::Tracer::Global().Records();
    trace::Tracer::Global().Disable();
  }
  for (BenchClient& c : *clients) {
    for (Sample& s : c.samples) pass.samples.push_back(std::move(s));
    c.samples.clear();
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Span analysis. Spans of one query share its trace id; a span's parent is
// the enclosing span of the same trace whose path is its path prefix
// (preferring the same thread, since per-unit spans run on pool threads).

struct SpanForest {
  std::vector<trace::SpanRecord> rec;
  std::vector<std::string> name, parent_path;
  std::vector<std::vector<size_t>> children;

  explicit SpanForest(std::vector<trace::SpanRecord> records)
      : rec(std::move(records)) {
    const size_t n = rec.size();
    name.resize(n);
    parent_path.resize(n);
    children.resize(n);
    std::map<std::pair<uint64_t, std::string>, std::vector<size_t>> by_path;
    for (size_t i = 0; i < n; ++i) {
      const size_t slash = rec[i].path.rfind('/');
      name[i] = slash == std::string::npos ? rec[i].path
                                           : rec[i].path.substr(slash + 1);
      parent_path[i] =
          slash == std::string::npos ? "" : rec[i].path.substr(0, slash);
      by_path[{rec[i].trace_id, rec[i].path}].push_back(i);
    }
    for (size_t i = 0; i < n; ++i) {
      if (parent_path[i].empty()) continue;
      auto it = by_path.find({rec[i].trace_id, parent_path[i]});
      if (it == by_path.end()) continue;
      long best = -1;
      for (size_t j : it->second) {
        if (rec[j].start_ns > rec[i].start_ns || end(j) < end(i)) continue;
        if (best < 0 || rec[j].tid == rec[i].tid) best = static_cast<long>(j);
        if (rec[j].tid == rec[i].tid) break;
      }
      if (best >= 0) children[best].push_back(i);
    }
  }

  uint64_t end(size_t i) const { return rec[i].start_ns + rec[i].dur_ns; }

  // Duration minus the part of the interval its children cover.
  uint64_t SelfNs(size_t i) const {
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (size_t c : children[i]) iv.push_back({rec[c].start_ns, end(c)});
    return rec[i].dur_ns - UnionNs(std::move(iv));
  }

  static uint64_t UnionNs(std::vector<std::pair<uint64_t, uint64_t>> iv) {
    std::sort(iv.begin(), iv.end());
    uint64_t total = 0, cur_s = 0, cur_e = 0;
    bool open = false;
    for (const auto& [s, e] : iv) {
      if (open && s <= cur_e) {
        cur_e = std::max(cur_e, e);
        continue;
      }
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    }
    if (open) total += cur_e - cur_s;
    return total;
  }

  // Σ self time (ms) of every span whose name is in `names`.
  double SelfMs(std::initializer_list<const char*> names) const {
    uint64_t total = 0;
    for (size_t i = 0; i < rec.size(); ++i) {
      for (const char* n : names) {
        if (name[i] == n) total += SelfNs(i);
      }
    }
    return total * 1e-6;
  }

  // Σ duration (ms) of every span with this exact path.
  double PathMs(const std::string& path) const {
    uint64_t total = 0;
    for (const auto& r : rec) {
      if (r.path == path) total += r.dur_ns;
    }
    return total * 1e-6;
  }
};

// Client wall time per query split into parts that should never overlap in
// time: the client's own spans, admission-queue wait, Party A's phase spans,
// and Party B's phase spans where A was not also running. The rest (wire,
// serialization, poll windows, handoffs) is the unattributed residual. Parts
// that did overlap would be counted twice and drive the residual negative,
// per query or overall; `overlapping_traces` counts the queries where that
// happened (the queue wait is known only in total, so it is left out of the
// per-query check).
struct Ledger {
  double queries = 0;  // traced bench.query spans
  double wall_ms = 0, client_ms = 0, queue_ms = 0, a_ms = 0, b_ms = 0;
  double overlapping_traces = 0;
  double unattributed_ms() const {
    return wall_ms - client_ms - queue_ms - a_ms - b_ms;
  }
};

Ledger BuildLedger(const SpanForest& f, double queue_wait_ms_total) {
  Ledger l;
  using Intervals = std::vector<std::pair<uint64_t, uint64_t>>;
  struct Trace {
    uint64_t wall_ns = 0, client_ns = 0;
    Intervals a, ab;
  };
  std::map<uint64_t, Trace> traces;
  for (size_t i = 0; i < f.rec.size(); ++i) {
    const trace::SpanRecord& r = f.rec[i];
    if (r.trace_id == 0) continue;
    Trace& t = traces[r.trace_id];
    if (r.path == "bench.query") {
      t.wall_ns += r.dur_ns;
      l.queries += 1;
    }
    if (f.name[i] == "client.encrypt" || f.name[i] == "client.decrypt") {
      t.client_ns += r.dur_ns;
    }
    if (f.parent_path[i] == "server.query") {
      t.a.push_back({r.start_ns, f.end(i)});
      t.ab.push_back({r.start_ns, f.end(i)});
    }
    if (f.parent_path[i] == "b.serve_query") {
      t.ab.push_back({r.start_ns, f.end(i)});
    }
  }
  for (auto& [id, t] : traces) {
    const uint64_t a = SpanForest::UnionNs(std::move(t.a));
    const uint64_t b = SpanForest::UnionNs(std::move(t.ab)) - a;
    if (t.client_ns + a + b > t.wall_ns) l.overlapping_traces += 1;
    l.wall_ms += t.wall_ns * 1e-6;
    l.client_ms += t.client_ns * 1e-6;
    l.a_ms += a * 1e-6;
    l.b_ms += b * 1e-6;
  }
  l.queue_ms = queue_wait_ms_total;
  return l;
}

// ---------------------------------------------------------------------------
// Probes: single layers timed at the workload's own parameters.

template <typename Prepare, typename Op>
double MedianUs(int reps, Prepare prepare, Op op) {
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    auto input = prepare();
    const auto t0 = Clock::now();
    op(&input);
    us.push_back(MsSince(t0, Clock::now()) * 1000);
  }
  return Median(us);
}

struct BgvUnitCosts {
  std::map<std::string, double> us;
};

StatusOr<BgvUnitCosts> ProbeBgv(const core::Deployment& dep, uint64_t seed,
                                int reps) {
  const auto& ctx = dep.ctx;
  bgv::BatchEncoder encoder(ctx);
  bgv::Evaluator ev(ctx);
  Chacha20Rng rng(seed ^ 0xB6E0ull);
  bgv::Encryptor enc(ctx, dep.pk, &rng);
  bgv::Decryptor dec(ctx, dep.sk);
  bgv::SymmetricEncryptor sym(ctx, dep.sk, &rng);
  std::vector<uint64_t> slots(ctx->n());
  for (auto& v : slots) v = rng.UniformBelow(ctx->t());
  SKNN_ASSIGN_OR_RETURN(bgv::Plaintext pt, encoder.Encode(slots));
  SKNN_ASSIGN_OR_RETURN(bgv::Ciphertext top, enc.Encrypt(pt));
  bgv::Ciphertext low = top;
  SKNN_RETURN_IF_ERROR(ev.ModSwitchToLevelInplace(&low, 0));
  ByteSink low_sink;
  bgv::WriteCiphertext(low, &low_sink);
  const std::vector<uint8_t> low_bytes = low_sink.bytes();

  BgvUnitCosts out;
  const auto copy_top = [&] { return top; };
  const auto none = [] { return 0; };
  out.us["multiply_relin"] = MedianUs(reps, none, [&](int*) {
    (void)ev.MultiplyRelin(top, top, dep.relin);
  });
  out.us["multiply"] = MedianUs(reps, none, [&](int*) {
    (void)ev.Multiply(top, top);
  });
  out.us["rotate"] = 0;
  if (!dep.galois.keys.empty()) {
    const uint64_t elt = dep.galois.keys.begin()->first;
    out.us["rotate"] = MedianUs(reps, copy_top, [&](bgv::Ciphertext* c) {
      (void)ev.ApplyGaloisInplace(c, elt, dep.galois);
    });
  }
  out.us["multiply_plain"] = MedianUs(reps, copy_top, [&](bgv::Ciphertext* c) {
    (void)ev.MultiplyPlainInplace(c, pt);
  });
  out.us["mod_switch"] = MedianUs(reps, copy_top, [&](bgv::Ciphertext* c) {
    (void)ev.ModSwitchToNextInplace(c);
  });
  out.us["add"] = MedianUs(reps, copy_top, [&](bgv::Ciphertext* c) {
    (void)ev.AddInplace(c, top);
  });
  // Party B's O(nk) indicator encryptions and O(n) transport-level
  // decryptions, as the protocol runs them.
  out.us["encrypt"] = MedianUs(reps, none, [&](int*) {
    (void)sym.EncryptSeeded(pt, dep.config.indicator_level);
  });
  out.us["decrypt"] = MedianUs(reps, none, [&](int*) {
    (void)dec.Decrypt(low);
  });
  out.us["serialize"] = MedianUs(reps, none, [&](int*) {
    ByteSink sink;
    bgv::WriteCiphertext(low, &sink);
  });
  out.us["deserialize"] = MedianUs(reps, none, [&](int*) {
    ByteSource src(low_bytes);
    (void)bgv::ReadCiphertext(&src);
  });
  return out;
}

void ProbeNtt(const core::Deployment& dep, int reps, double* fwd_us,
              double* inv_us) {
  const NttTables& tables = dep.ctx->key_base().ntt(0);
  Chacha20Rng rng(0x4E77ull);
  std::vector<uint64_t> a(tables.n());
  for (auto& v : a) v = rng.UniformBelow(tables.modulus().value());
  *fwd_us = MedianUs(reps, [&] { return a; },
                     [&](std::vector<uint64_t>* x) { tables.ForwardNtt(x); });
  *inv_us = MedianUs(reps, [&] { return a; },
                     [&](std::vector<uint64_t>* x) { tables.InverseNtt(x); });
}

// `frames` frames whose payloads share `bytes` evenly: the workload's
// measured per-query frame count and wire bytes.
std::vector<uint8_t> ProbePayload(double frames, double bytes) {
  const double per_frame = bytes / std::max(1.0, frames);
  const size_t payload =
      per_frame > net::kFrameHeaderBytes
          ? static_cast<size_t>(per_frame) - net::kFrameHeaderBytes
          : 0;
  std::vector<uint8_t> p(payload);
  for (size_t i = 0; i < p.size(); ++i) p[i] = static_cast<uint8_t>(i * 131);
  return p;
}

double ProbeFrameCodecMs(size_t frames, const std::vector<uint8_t>& payload,
                         int reps) {
  return MedianUs(reps, [] { return 0; }, [&](int*) {
           for (size_t f = 0; f < frames; ++f) {
             auto frame = net::DecodeFrame(
                 net::EncodeFrame(net::MessageType::kDistances, f, payload));
             if (!frame.ok()) std::abort();
           }
         }) /
         1000;
}

// One "query" = `frames` frames one way through a loopback SocketChannel
// pair under the servers' ResilientChannel policy, then a one-frame reply.
StatusOr<double> ProbeLoopbackMs(size_t frames,
                                 const std::vector<uint8_t>& payload,
                                 int reps) {
  const core::ServerOptions options;
  SKNN_ASSIGN_OR_RETURN(auto listener,
                        net::SocketListener::Listen("127.0.0.1", 0));
  SKNN_ASSIGN_OR_RETURN(
      auto tx, net::ConnectSocket("127.0.0.1", listener->port(),
                                  options.connect_timeout_ms, "probe tx"));
  StatusOr<std::unique_ptr<net::SocketChannel>> rx =
      UnavailableError("not accepted");
  for (int i = 0; i < 100 && !rx.ok(); ++i) {
    rx = listener->Accept(options.accept_poll_ms, "probe rx");
  }
  if (!rx.ok()) return rx.status();
  tx->set_io_poll_ms(options.io_poll_ms);
  (*rx)->set_io_poll_ms(options.io_poll_ms);
  net::ResilientChannel tx_ch(tx.get(), options.retry, 1, "probe tx");
  net::ResilientChannel rx_ch(rx->get(), options.retry, 2, "probe rx");
  const int rounds = reps + 1;  // the first round warms the socket buffers
  Status rx_status;
  std::thread receiver([&] {
    for (int r = 0; r < rounds && rx_status.ok(); ++r) {
      for (size_t f = 0; f < frames && rx_status.ok(); ++f) {
        rx_status = rx_ch.Receive().status();
      }
      if (rx_status.ok()) {
        rx_status = rx_ch.SendMessage(net::MessageType::kControl, {1});
      }
    }
  });
  std::vector<double> ms;
  Status tx_status;
  for (int r = 0; r < rounds && tx_status.ok(); ++r) {
    const auto t0 = Clock::now();
    for (size_t f = 0; f < frames && tx_status.ok(); ++f) {
      tx_status = tx_ch.SendMessage(net::MessageType::kDistances, payload);
    }
    if (tx_status.ok()) tx_status = tx_ch.Receive().status();
    if (r > 0) ms.push_back(MsSince(t0, Clock::now()));
  }
  if (!tx_status.ok()) tx->Close();
  receiver.join();
  SKNN_RETURN_IF_ERROR(tx_status);
  SKNN_RETURN_IF_ERROR(rx_status);
  return Median(ms);
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", metrics[i].value);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Every bgv.evaluator.<op> counter the evaluator keeps.
const char* const kEvaluatorOps[] = {
    "add",        "sub",        "add_plain",       "multiply",
    "relinearize", "multiply_plain", "multiply_scalar", "mod_switch",
    "galois_automorphism", "hoisted_rotation",
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const Workload& w = *args.workload;
  const size_t n = args.tiny ? (w.layout == core::Layout::kPacked ? 16 : 8)
                             : w.n;
  const size_t d = args.tiny ? 2 : w.d;
  const size_t k = args.tiny ? 2 : w.k;

  core::ProtocolConfig cfg;
  cfg.layout = w.layout;
  cfg.k = k;
  cfg.dims = d;
  cfg.coord_bits = kCoordBits;
  cfg.poly_degree = 2;
  cfg.preset =
      args.tiny ? bgv::SecurityPreset::kToy : bgv::SecurityPreset::kBench;
  cfg.levels = cfg.MinimumLevels();

  const data::Dataset dataset =
      data::UniformDataset(n, d, kMaxCoord, args.seed);
  Points hot;
  for (uint64_t i = 0; i < 4; ++i) {
    hot.push_back(data::UniformQuery(d, kMaxCoord, args.seed + 500 + i));
  }
  std::fprintf(stderr, "served_bench: %s n=%zu d=%zu k=%zu layout=%s "
               "clients=%zu workers=%zu seed=%llu trace=%d simd=%s\n",
               w.name, n, d, k, core::LayoutName(w.layout), w.clients,
               w.workers, static_cast<unsigned long long>(args.seed),
               args.trace ? 1 : 0, simd::ActiveKernels().name);

  // --- Set-up, repeated; the last deployment serves the run.
  std::vector<SetupTiming> setups(kSetupRepeats);
  std::unique_ptr<Servers> servers;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    servers.reset();
    auto s = SetUp(cfg, dataset, args.seed, w.workers, &setups[r]);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up: %s\n", s.status().ToString().c_str());
      return 1;
    }
    servers = std::move(s).value();
  }
  const auto setup_median = [&](double (*part)(const SetupTiming&)) {
    std::vector<double> v;
    for (const SetupTiming& t : setups) v.push_back(part(t));
    return Median(v);
  };
  const uint16_t port = servers->a->port();

  // --- Clients connect, then warm up (not timed) before any pass.
  std::vector<BenchClient> clients(w.clients);
  for (size_t c = 0; c < w.clients; ++c) {
    auto remote = core::RemoteClient::Connect(servers->deployment_b,
                                              "127.0.0.1", port, {});
    if (!remote.ok()) {
      std::fprintf(stderr, "client %zu: %s\n", c,
                   remote.status().ToString().c_str());
      return 1;
    }
    clients[c].remote = std::move(remote).value();
    clients[c].rng =
        std::make_unique<Chacha20Rng>(args.seed ^ (0xC11E47ull * (c + 1)));
  }
  std::vector<Sample> checked;  // every query issued, verified at the end
  Clock::time_point released;
  OnAllClients(
      &clients,
      [&](BenchClient* c) {
        for (size_t q = 0; q < kWarmupPerClient; ++q) {
          c->samples.push_back(
              RunQuery(c, NextQuery(c->rng.get(), dataset, hot)));
        }
      },
      &released);
  for (BenchClient& c : clients) {
    for (Sample& s : c.samples) checked.push_back(std::move(s));
    c.samples.clear();
  }

  if (args.inject_failure) servers->a->inject_worker_faults_for_test(2);

  std::vector<Metric> metrics;
  bool enough_samples = true;
  std::vector<Pass> passes;
  if (!args.trace) {
    passes.push_back(
        RunPass(&clients, dataset, hot, args.seconds, kMinTimedSamples,
                false, 0));
    const Pass& p = passes.back();
    const std::vector<double> lat = p.Latencies();
    const double done = static_cast<double>(std::max<size_t>(1, lat.size()));
    enough_samples = lat.size() >= kMinTimedSamples;
    metrics = {
        {"setup_s", setup_median([](const SetupTiming& t) { return t.total(); }),
         "s"},
        {"latency_p50_ms", Percentile(lat, 0.50), "ms"},
        {"latency_p90_ms", Percentile(lat, 0.90), "ms"},
        {"qps", lat.size() / p.wall_s, "1/s"},
        {"cpu_ms_per_query", p.cpu_s * 1000 / done, "ms"},
        {"wire_bytes_per_query", p.Counter("net.socket.bytes_sent") / done,
         "bytes"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    auto admin = obs::TelemetryHttpServer::Start("127.0.0.1", 0);
    if (!admin.ok()) {
      std::fprintf(stderr, "admin: %s\n", admin.status().ToString().c_str());
      return 1;
    }
    obs::BuildInfo info;
    info.role = "served_bench";
    info.simd_backend = simd::ActiveKernels().name;
    obs::RegisterStandardEndpoints(admin->get(), info,
                                   [] { return Status::Ok(); });
    passes.push_back(
        RunPass(&clients, dataset, hot, args.seconds / 2,
                kMinTracedSamples, false, 0));
    passes.push_back(RunPass(&clients, dataset, hot, args.seconds / 2,
                             kMinTracedSamples, true, (*admin)->port()));
    (*admin)->Shutdown();
  }
  servers->a->Shutdown();
  servers->b->Shutdown();

  if (args.inject_failure) {
    for (Sample& s : passes.front().samples) {
      if (s.status.ok() && !s.neighbours.empty()) {
        s.neighbours[0][0] ^= 1;
        break;
      }
    }
  }
  // Verification, outside every timed interval.
  uint64_t failed = 0, verify_failures = 0, attempted = 0;
  const auto check = [&](const Sample& s) {
    ++attempted;
    if (!s.status.ok()) {
      ++failed;
      std::fprintf(stderr, "query failed: %s\n", s.status.ToString().c_str());
    } else if (!VerifyAnswer(dataset, s, k)) {
      ++failed;
      ++verify_failures;
      std::fprintf(stderr, "VERIFICATION FAILED: answer does not match "
                           "plaintext brute force\n");
    }
  };
  for (const Sample& s : checked) check(s);
  for (const Pass& p : passes) {
    for (const Sample& s : p.samples) check(s);
  }

  if (!args.trace) {
    metrics.push_back({"success_ratio",
                       static_cast<double>(attempted - failed) /
                           static_cast<double>(attempted),
                       "ratio"});
  } else {
    const Pass& plain = passes[0];
    const Pass& traced = passes[1];
    const double done_plain =
        static_cast<double>(std::max<uint64_t>(1, plain.completed()));
    enough_samples = plain.completed() >= kMinTracedSamples &&
                     traced.completed() >= kMinTracedSamples;
    const SpanForest forest(traced.records);
    const auto hist = [](const Pass& p, const std::string& name) {
      auto it = p.histograms.find(name);
      return it == p.histograms.end() ? MetricsRegistry::HistogramSnapshot{}
                                      : it->second;
    };
    const Ledger ledger = BuildLedger(
        forest, hist(traced, "latency_ns.server.queue_wait").sum * 1e-6);
    // Span time per traced query, failed ones included: the spans and the
    // queue-wait histogram cover every query of the traced pass.
    const auto per_q = [&](double v) {
      return v / std::max(1.0, ledger.queries);
    };

    // Probes, at the workload's own context and measured message sizes.
    const int reps = args.tiny ? 5 : 15;
    auto bgv_costs = ProbeBgv(servers->deployment_b, args.seed, reps);
    if (!bgv_costs.ok()) {
      std::fprintf(stderr, "bgv probe: %s\n",
                   bgv_costs.status().ToString().c_str());
      return 1;
    }
    double ntt_fwd = 0, ntt_inv = 0;
    ProbeNtt(servers->deployment_b, 200, &ntt_fwd, &ntt_inv);
    const double frames_pq = plain.Counter("net.frames.sent") / done_plain;
    const double bytes_pq = plain.Counter("net.socket.bytes_sent") / done_plain;
    const size_t probe_frames =
        std::max<size_t>(1, static_cast<size_t>(frames_pq + 0.5));
    const std::vector<uint8_t> payload = ProbePayload(frames_pq, bytes_pq);
    const double codec_ms = ProbeFrameCodecMs(probe_frames, payload, 5);
    auto loopback_ms = ProbeLoopbackMs(probe_frames, payload, 5);
    if (!loopback_ms.ok()) {
      std::fprintf(stderr, "loopback probe: %s\n",
                   loopback_ms.status().ToString().c_str());
      return 1;
    }

    // Cost model: exact op counts x unit costs, against the measured self
    // time of every span under A's and B's query spans.
    const std::map<std::string, double>& us = bgv_costs->us;
    const auto ops = [&](const char* op) {
      return plain.Counter(std::string("bgv.evaluator.") + op) / done_plain;
    };
    const size_t units = servers->deployment_b.layout.num_units();
    const double k_eff = static_cast<double>(std::min(k, n));
    const double modelled_us =
        (ops("add") + ops("sub") + ops("add_plain")) * us.at("add") +
        ops("multiply") * us.at("multiply") +
        ops("relinearize") *
            std::max(0.0, us.at("multiply_relin") - us.at("multiply")) +
        (ops("multiply_plain") + ops("multiply_scalar")) *
            us.at("multiply_plain") +
        ops("mod_switch") * us.at("mod_switch") +
        (ops("galois_automorphism") + ops("hoisted_rotation")) *
            us.at("rotate") +
        units * us.at("decrypt") + k_eff * units * us.at("encrypt");
    uint64_t measured_ns = 0;
    for (size_t i = 0; i < forest.rec.size(); ++i) {
      const std::string& path = forest.rec[i].path;
      if (path.rfind("server.query/", 0) == 0 ||
          path.rfind("b.serve_query/", 0) == 0) {
        measured_ns += forest.SelfNs(i);
      }
    }
    const double measured_ms = per_q(measured_ns * 1e-6);
    const double modelled_ms = modelled_us / 1000;

    const double hits = plain.Counter("bgv.alloc.pool_hits");
    const double misses = plain.Counter("bgv.alloc.pool_misses");
    std::vector<std::vector<uint64_t>> seen;
    for (const Sample& s : plain.samples) seen.push_back(s.query);
    const double total_q = static_cast<double>(std::max<size_t>(1, seen.size()));
    std::sort(seen.begin(), seen.end());
    const double distinct = static_cast<double>(
        std::unique(seen.begin(), seen.end()) - seen.begin());
    const auto isa_lanes = [] {
      switch (simd::ActiveIsa()) {
        case simd::Isa::kAvx512: return 8.0;
        case simd::Isa::kAvx2: return 4.0;
        default: return 1.0;
      }
    };

    metrics = {
        {"server.queue_wait_ms",
         hist(plain, "latency_ns.server.queue_wait").p50 * 1e-6, "ms"},
        {"server.worker_busy_share",
         forest.PathMs("server.query") /
             (1000 * traced.wall_s * static_cast<double>(w.workers)),
         "ratio"},
        {"server.shed_per_query",
         plain.Counter("server.queries.shed") / done_plain, "count"},
        {"server.reexecutions_per_query",
         plain.Counter("server.query.reexecutions") / done_plain, "count"},
        {"ledger.client_wall_ms", per_q(ledger.wall_ms), "ms"},
        {"ledger.client_ms", per_q(ledger.client_ms), "ms"},
        {"ledger.queue_wait_ms", per_q(ledger.queue_ms), "ms"},
        {"ledger.party_a_ms", per_q(ledger.a_ms), "ms"},
        {"ledger.party_b_ms", per_q(ledger.b_ms), "ms"},
        {"ledger.unattributed_ms", per_q(ledger.unattributed_ms()), "ms"},
        {"ledger.overlapping_traces", ledger.overlapping_traces, "count"},
        {"net.receive_retries_per_query",
         plain.Counter("net.retries") / done_plain, "count"},
        {"net.frames_per_query", frames_pq, "count"},
        {"net.frame_codec_ms_per_query", codec_ms, "ms"},
        {"net.loopback_ms_per_query", *loopback_ms, "ms"},
        {"client.encrypt_ms", per_q(forest.SelfMs({"client.encrypt"})), "ms"},
        {"client.decrypt_ms", per_q(forest.SelfMs({"client.decrypt"})), "ms"},
        {"party_a.distance_ms",
         per_q(forest.SelfMs({"party_a.distance", "unit"})), "ms"},
        {"party_a.square_fold_ms", per_q(forest.SelfMs({"square_fold"})),
         "ms"},
        {"party_a.mask_ms", per_q(forest.SelfMs({"mask"})), "ms"},
        {"party_a.permute_ms",
         per_q(forest.SelfMs({"permute", "party_a.permute"})), "ms"},
        {"party_a.absorb_ms", per_q(forest.SelfMs({"party_a.absorb"})), "ms"},
        {"party_a.retrieve_ms", per_q(forest.SelfMs({"party_a.retrieve"})),
         "ms"},
        {"party_b.decrypt_select_ms",
         per_q(forest.SelfMs({"party_b.decrypt_select"})), "ms"},
        {"party_b.indicator_ms", per_q(forest.SelfMs({"party_b.indicator"})),
         "ms"},
    };
    for (const char* op : kEvaluatorOps) {
      metrics.push_back(
          {std::string("bgv.ops_per_query.") + op, ops(op), "count"});
    }
    for (const auto& [op, cost] : us) {
      metrics.push_back({"bgv.unit_us." + op, cost, "us"});
    }
    const std::vector<Metric> rest = {
        {"bgv.modelled_ms_per_query", modelled_ms, "ms"},
        {"bgv.measured_ms_per_query", measured_ms, "ms"},
        {"bgv.model_residual_share",
         measured_ms > 0 ? (measured_ms - modelled_ms) / measured_ms : 0,
         "ratio"},
        {"bgv.alloc.pool_hit_ratio",
         hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"},
        {"math.ntt_forward_us", ntt_fwd, "us"},
        {"math.ntt_inverse_us", ntt_inv, "us"},
        {"math.simd_lanes", isa_lanes(), "count"},
        {"setup.derive_b_s",
         setup_median([](const SetupTiming& t) { return t.derive_b_s; }), "s"},
        {"setup.derive_a_s",
         setup_median([](const SetupTiming& t) { return t.derive_a_s; }), "s"},
        {"setup.start_s",
         setup_median([](const SetupTiming& t) { return t.start_s; }), "s"},
        {"obs.scrape_ms", traced.scrape_ms, "ms"},
        {"trace.overhead_ms",
         Percentile(traced.Latencies(), 0.5) -
             Percentile(plain.Latencies(), 0.5),
         "ms"},
        {"workload.repeat_share", (total_q - distinct) / total_q, "ratio"},
        {"failure_ratio",
         static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
  }

  PrintResult(verify_failures == 0, attempted, failed, metrics);
  if (verify_failures > 0) return 1;
  if (!enough_samples) {
    std::fprintf(stderr, "too few timed samples (need %zu for p90 with ten "
                         "beyond it); raise --seconds\n",
                 args.trace ? kMinTracedSamples : kMinTimedSamples);
    return 3;
  }
  return 0;
}
