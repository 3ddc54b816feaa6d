// Paper-scale end-to-end benchmark program.
//
// Runs one workload (the six paper dwarfs at --factor 1.0 on one
// architecture and host backend) in this process for a fixed window,
// through public entry points only, and prints one JSON object on the
// last line of stdout: every simulation's result digest (checked
// against the stored reference by run.py) and the raw metric values.
//
//   simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   simbench --workload <name> --pool      (every pool dataset once,
//                                           for reference generation)
//
// Datasets: each dwarf draws kDatasetsPerDwarf distinct dataset seeds
// from a fixed pool of kPoolSize (so every simulated result has a
// stored reference digest), chosen by --seed. One "batch" runs all of
// them, each right after its native reference run; the window repeats
// the batch and reports medians, which damps host noise without
// changing the inputs.
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 splits the window: untraced batches first (run_s, and the
// base of trace.overhead_x), then batches through LayerCtx (layer_ctx.h) plus
// the existing HostProfiler, whose round phases exist only on the
// parallel host (the LayerCtx split covers the sequential workloads).
// Every traced simulation's digest is reported too, so run.py rejects
// the per-layer numbers unless the traced run reproduced the untraced
// results.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "config/arch_config.h"
#include "core/engine.h"
#include "dwarfs/dwarfs.h"
#include "layer_ctx.h"
#include "obs/critpath.h"
#include "obs/export.h"
#include "obs/host_profile.h"
#include "obs/telemetry.h"
#include "runtime/native_sim.h"

using namespace simany;
using namespace perfbench;

namespace {

constexpr double kFactor = 1.0;
constexpr std::uint32_t kPoolSize = 8;
constexpr std::uint32_t kDatasetsPerDwarf = 5;
/// Native reference: repeat each dataset until this much host time has
/// accumulated (bench/runner.h does the same with 20 ms).
constexpr double kNativeMinSeconds = 0.02;

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload {
  const char* name;
  /// Reference digests are shared with this workload's architecture.
  const char* reference;
  ArchConfig (*arch)();
  bool observed;
};

ArchConfig seq_1024() { return ArchConfig::shared_mesh(1024); }
ArchConfig par4_1024() {
  ArchConfig c = ArchConfig::shared_mesh(1024);
  c.host.mode = HostMode::kParallel;
  c.host.threads = 4;
  return c;
}
ArchConfig dist_64() { return ArchConfig::distributed_mesh(64); }

const Workload kWorkloads[] = {
    {"seq-1024", "seq-1024", seq_1024, false},
    {"par4-1024", "par4-1024", par4_1024, false},
    {"dist-64", "dist-64", dist_64, false},
    {"observed-1024", "seq-1024", seq_1024, true},
};

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Dataset {
  const dwarfs::DwarfSpec* spec;
  std::uint64_t seed;
};

/// kDatasetsPerDwarf distinct pool entries per dwarf, drawn from --seed
/// by a partial Fisher-Yates shuffle; dataset seeds are 1..kPoolSize.
std::vector<Dataset> pick_datasets(std::uint64_t seed) {
  std::vector<Dataset> out;
  std::uint64_t state = seed;
  for (const auto& spec : dwarfs::all_dwarfs()) {
    std::vector<std::uint64_t> pool(kPoolSize);
    for (std::uint32_t i = 0; i < kPoolSize; ++i) pool[i] = i + 1;
    for (std::uint32_t i = 0; i < kDatasetsPerDwarf; ++i) {
      const std::uint32_t j =
          i + static_cast<std::uint32_t>(splitmix64(state) % (kPoolSize - i));
      std::swap(pool[i], pool[j]);
      out.push_back(Dataset{&spec, pool[i]});
    }
  }
  return out;
}

std::vector<Dataset> whole_pool() {
  std::vector<Dataset> out;
  for (const auto& spec : dwarfs::all_dwarfs()) {
    for (std::uint64_t s = 1; s <= kPoolSize; ++s) {
      out.push_back(Dataset{&spec, s});
    }
  }
  return out;
}

// ---- Result digest ------------------------------------------------------

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
};

/// Digest of the simulated result: completion time, the architectural
/// SimStats counters, per-core busy time and the network statistics.
/// Host-side observations are left out on purpose: wall time, host
/// rounds and inbox allocations, fiber switches and live-fiber peaks,
/// drift-limit recompute counts, and the sampled parallelism and drift
/// high-water marks all describe how the host simulated, and a faster
/// host path (an incremental drift limit, fewer fiber switches) may
/// change them without changing the answer.
std::uint64_t result_digest(const SimStats& s) {
  Fnv f;
  f.add(s.completion_ticks);
  f.add(s.tasks_spawned);
  f.add(s.tasks_inlined);
  f.add(s.tasks_migrated);
  f.add(s.probes_sent);
  f.add(s.probes_denied);
  f.add(s.messages);
  f.add(s.sync_stalls);
  f.add(s.joins_suspended);
  f.add(s.core_busy_ticks.size());
  for (const Tick t : s.core_busy_ticks) f.add(t);
  f.add(s.network.messages);
  f.add(s.network.bytes);
  f.add(s.network.hops);
  f.add(s.network.contention_ticks);
  return f.h;
}

// ---- One simulation -------------------------------------------------------

struct Instruments {
  bool layers = false;        // LayerCtx decorator
  bool host_profile = false;  // HostProfiler (records on the parallel host)
  bool observe = false;       // full telemetry + critpath + exports
};

struct SimResult {
  std::string dwarf;
  std::uint64_t dataset = 0;
  std::string phase;
  std::string error;
  std::uint64_t digest = 0;
  double setup_s = 0;
  double run_s = 0;
  SimStats stats;
  LayerTotals layers;
  std::int64_t live_peak = 0;
  double host_phase_s[5] = {0, 0, 0, 0, 0};  // indexed by obs::HostPhase
  std::uint64_t obs_events = 0;
  double critpath_s = 0;
  double export_s = 0;
  std::uint64_t export_bytes = 0;
};

SimResult simulate(const Workload& wl, const Dataset& d,
                   const Instruments& ins, const char* phase) {
  SimResult r;
  r.dwarf = d.spec->name;
  r.dataset = d.seed;
  r.phase = phase;
  // Declared before the engine, which keeps pointers to both until it
  // is destroyed.
  std::optional<obs::Telemetry> tel;
  LayerProfile prof;
  try {
    const auto t0 = Clock::now();
    ArchConfig cfg = wl.arch();
    cfg.seed = d.seed;
    Engine engine(std::move(cfg));
    TaskFn root = d.spec->make_root(d.seed, kFactor);
    r.setup_s = since(t0);

    if (ins.observe || ins.host_profile) {
      obs::TelemetryOptions opt;
      opt.events = ins.observe;
      opt.sync_events = ins.observe;
      opt.profile_host = ins.host_profile;
      tel.emplace(opt);
      engine.set_telemetry(&*tel);
    }
    if (ins.layers) root = prof.wrap(std::move(root));

    const auto t1 = Clock::now();
    r.stats = engine.run(std::move(root));
    if (ins.observe) {
      const auto tc = Clock::now();
      const obs::CritPathReport cp = obs::analyze_critical_path(tel->events());
      r.critpath_s = since(tc);
      const auto te = Clock::now();
      std::ostringstream trace;
      std::ostringstream critpath;
      obs::ChromeTraceOptions copt;
      copt.critpath = &cp;
      obs::write_chrome_trace(trace, *tel, copt);
      obs::write_critpath_json(critpath, cp);
      r.export_bytes = static_cast<std::uint64_t>(trace.tellp()) +
                       static_cast<std::uint64_t>(critpath.tellp());
      r.export_s = since(te);
      r.obs_events = tel->events().size();
    }
    r.run_s = since(t1);

    r.digest = result_digest(r.stats);
    if (ins.layers) {
      r.layers = prof.totals();
      r.live_peak = prof.live_peak();
    }
    if (ins.host_profile) {
      const obs::HostProfiler& hp = tel->host_profiler();
      const auto add = [&](const std::vector<obs::HostSpan>& spans) {
        for (const obs::HostSpan& s : spans) {
          r.host_phase_s[static_cast<int>(s.phase)] +=
              static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9;
        }
      };
      for (std::uint32_t s = 0; s < hp.num_shards(); ++s) {
        add(hp.shard_spans(s));
      }
      add(hp.serial_spans());
    }
  } catch (const std::exception& e) {
    r.error = e.what();
    if (r.error.empty()) r.error = "exception";
  }
  return r;
}

// ---- Batches and their metrics -------------------------------------------

using Metrics = std::map<std::string, double>;

/// Native host time of one dataset through runtime::NativeCtx, the
/// denominator of slowdown_x (the paper's Fig 7 normalization). Short
/// runs repeat until kNativeMinSeconds have accumulated.
struct Native {
  double seconds = 0;
  std::uint64_t reps = 0;
};

Native native_seconds(const Dataset& d) {
  const auto t0 = Clock::now();
  Native n;
  double elapsed = 0;
  do {
    runtime::NativeCtx ctx(d.seed);
    d.spec->make_root(d.seed, kFactor)(ctx);
    ++n.reps;
    elapsed = since(t0);
  } while (elapsed < kNativeMinSeconds);
  n.seconds = elapsed / static_cast<double>(n.reps);
  return n;
}

/// One pass over the workload's datasets. Each simulation follows its
/// dataset's native run directly, so the two see the same host load.
struct Batch {
  std::vector<SimResult> sims;
  std::vector<Native> native;  // same order as sims
};

/// Per-layer metrics of one batch: sums over its simulations (maxima
/// and ratios where a sum means nothing).
Metrics layer_metrics(const Batch& b) {
  Metrics m;
  std::uint64_t par_sum = 0, par_samples = 0, probes = 0, denied = 0;
  double drift_max = 0, live_peak = 0;
  for (std::size_t i = 0; i < b.sims.size(); ++i) {
    const SimResult& r = b.sims[i];
    const SimStats& s = r.stats;
    for (int f = 0; f < kNative; ++f) {
      const std::string fam = kFamilyNames[f];
      m["core." + fam + "_s"] += r.layers.seconds[f];
      m["core." + fam + "_calls"] += static_cast<double>(r.layers.calls[f]);
    }
    m["dwarfs.native_s"] += r.layers.seconds[kNative];
    m["core.sync.limit_recomputes"] += static_cast<double>(s.limit_recomputes);
    m["core.sync.stalls"] += static_cast<double>(s.sync_stalls);
    drift_max = std::max(drift_max, static_cast<double>(s.drift_max_cycles()));
    par_sum += s.parallelism_sum;
    par_samples += s.parallelism_samples;
    m["core.tasks.spawned"] += static_cast<double>(s.tasks_spawned);
    m["core.tasks.inlined"] += static_cast<double>(s.tasks_inlined);
    m["core.tasks.migrated"] += static_cast<double>(s.tasks_migrated);
    m["core.tasks.joins_suspended"] += static_cast<double>(s.joins_suspended);
    probes += s.probes_sent;
    denied += s.probes_denied;
    m["core.fiber.switches"] += static_cast<double>(s.fiber_switches);
    live_peak = std::max(live_peak, static_cast<double>(r.live_peak));
    m["net.messages"] += static_cast<double>(s.network.messages);
    m["net.bytes"] += static_cast<double>(s.network.bytes);
    m["net.hops"] += static_cast<double>(s.network.hops);
    m["net.contention_cycles"] += cycles_fp(s.network.contention_ticks);
    static const char* const kHostNames[] = {"drain", "execute", "publish",
                                             "barrier", "serial"};
    for (int p = 0; p < 5; ++p) {
      m[std::string("host.") + kHostNames[p] + "_s"] += r.host_phase_s[p];
    }
    m["host.rounds"] += static_cast<double>(s.host_rounds);
    m["host.inbox_heap_allocs"] += static_cast<double>(s.inbox_heap_allocs);
    m["obs.events"] += static_cast<double>(r.obs_events);
    m["obs.critpath_s"] += r.critpath_s;
    m["obs.export_s"] += r.export_s;
    m["obs.export_bytes"] += static_cast<double>(r.export_bytes);
    m["runtime.native_ref_s"] += b.native[i].seconds;
    m["runtime.native_reps"] += static_cast<double>(b.native[i].reps);
  }
  m["core.sync.drift_max_cycles"] = drift_max;
  m["core.sync.avg_parallelism"] =
      par_samples == 0 ? 0.0
                       : static_cast<double>(par_sum) /
                             static_cast<double>(par_samples);
  m["core.tasks.probe_success"] =
      probes == 0 ? 0.0
                  : 1.0 - static_cast<double>(denied) /
                              static_cast<double>(probes);
  m["core.fiber.live_peak"] = live_peak;
  return m;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The timing metrics of a phase. Each simulation's time is its median
/// over the phase's batches, so a burst of host load that hits one
/// batch does not move the result; run_s and setup_s sum those medians.
/// slowdown_x is the geometric mean of the per-simulation medians of
/// (simulation seconds / native seconds), so each dwarf weighs the same
/// whatever its native cost (dijkstra's native run, dominated by its
/// reference check, costs 100x the others').
Metrics timing_metrics(const std::vector<Batch>& batches) {
  Metrics m;
  double log_slowdown = 0;
  const std::size_t n = batches.front().sims.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> run, setup, ratio;
    for (const Batch& b : batches) {
      run.push_back(b.sims[i].run_s);
      setup.push_back(b.sims[i].setup_s);
      ratio.push_back(b.sims[i].run_s / b.native[i].seconds);
    }
    m["run_s"] += median(run);
    m["setup_s"] += median(setup);
    log_slowdown += std::log(median(ratio));
  }
  m["slowdown_x"] = std::exp(log_slowdown / static_cast<double>(n));
  return m;
}

/// Metric-wise median of the per-batch layer metrics.
Metrics median_layer_metrics(const std::vector<Batch>& batches) {
  std::vector<Metrics> per;
  for (const Batch& b : batches) per.push_back(layer_metrics(b));
  Metrics out;
  for (const auto& [name, _] : per.front()) {
    std::vector<double> v;
    for (const Metrics& b : per) v.push_back(b.at(name));
    out[name] = median(v);
  }
  return out;
}

/// Repeats the batch for `seconds`: at least once, and again only while
/// another batch as long as the last one still fits in the window.
std::vector<Batch> run_phase(const Workload& wl,
                             const std::vector<Dataset>& datasets,
                             const Instruments& ins, const char* name,
                             double seconds, std::vector<SimResult>& all) {
  std::vector<Batch> batches;
  const auto t0 = Clock::now();
  double last = 0;
  do {
    const auto tb = Clock::now();
    Batch b;
    for (const Dataset& d : datasets) {
      b.native.push_back(native_seconds(d));
      b.sims.push_back(simulate(wl, d, ins, name));
    }
    all.insert(all.end(), b.sims.begin(), b.sims.end());
    batches.push_back(std::move(b));
    last = since(tb);
  } while (since(t0) + last <= seconds);
  return batches;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- Output ---------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

void print_result(const Workload& wl, const std::vector<SimResult>& sims,
                  const Metrics& m) {
  std::printf("{\"reference\": %s, \"pool_size\": %u, \"sims\": [",
              json_string(wl.reference).c_str(), kPoolSize);
  for (std::size_t i = 0; i < sims.size(); ++i) {
    const SimResult& r = sims[i];
    std::printf("%s{\"dwarf\": %s, \"dataset\": %" PRIu64
                ", \"phase\": %s, \"digest\": \"%016" PRIx64
                "\", \"error\": %s}",
                i == 0 ? "" : ", ", json_string(r.dwarf).c_str(), r.dataset,
                json_string(r.phase).c_str(), r.digest,
                json_string(r.error).c_str());
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s%s: %.17g", first ? "" : ", ", json_string(name).c_str(),
                value);
    first = false;
  }
  std::printf("}}\n");
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload <name> "
               "(--seed <n> --seconds <s> --trace <0|1> | --pool)\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* wl = nullptr;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  bool pool = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        const std::string name = value();
        for (const Workload& w : kWorkloads) {
          if (name == w.name) wl = &w;
        }
        if (wl == nullptr) usage(("unknown workload " + name).c_str());
      } else if (a == "--seed") {
        seed = std::stoull(value());
      } else if (a == "--seconds") {
        seconds = std::stod(value());
      } else if (a == "--trace") {
        trace = std::stoi(value());
      } else if (a == "--pool") {
        pool = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (wl == nullptr) usage("--workload is required");

  Instruments plain;
  plain.observe = wl->observed;
  std::vector<SimResult> sims;
  if (pool) {
    for (const Dataset& d : whole_pool()) {
      sims.push_back(simulate(*wl, d, plain, "pool"));
    }
    print_result(*wl, sims, {});
    return 0;
  }
  if (seconds <= 0 || (trace != 0 && trace != 1)) {
    usage("--seconds > 0 and --trace 0|1 are required");
  }

  const std::vector<Dataset> datasets = pick_datasets(seed);
  Metrics out;
  if (trace == 0) {
    const Metrics t = timing_metrics(
        run_phase(*wl, datasets, plain, "untraced", seconds, sims));
    out["slowdown_x"] = t.at("slowdown_x");
    out["setup_s"] = t.at("setup_s");
    out["peak_rss_mb"] = peak_rss_mb();
  } else {
    // The observed workload also times the bare sequential batch, the
    // base of obs.overhead_x; every workload times an untraced batch,
    // the base of trace.overhead_x.
    const int phases = wl->observed ? 3 : 2;
    const double share = seconds / phases;
    Metrics bare;
    if (wl->observed) {
      bare = timing_metrics(
          run_phase(*wl, datasets, Instruments{}, "bare", share, sims));
    }
    const Metrics untraced = timing_metrics(
        run_phase(*wl, datasets, plain, "untraced", share, sims));
    // The HostProfiler is attached on every workload. The sequential
    // host has no rounds, so it records only the closing serial phase
    // there and the other host.*_s read 0.
    Instruments traced = plain;
    traced.layers = true;
    traced.host_profile = true;
    const std::vector<Batch> tr =
        run_phase(*wl, datasets, traced, "traced", share, sims);

    out = median_layer_metrics(tr);
    out["run_s"] = untraced.at("run_s");
    // 0 where src/obs is not attached (every workload but observed-1024).
    out["obs.overhead_x"] =
        wl->observed ? untraced.at("run_s") / bare.at("run_s") : 0.0;
    out["trace.overhead_x"] =
        timing_metrics(tr).at("run_s") / untraced.at("run_s");
  }
  print_result(*wl, sims, out);
  return 0;
}
