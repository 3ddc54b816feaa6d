// Outside-in host-time split for the traced benchmark run.
//
// LayerCtx is a forwarding TaskCtx decorator: it wraps the context the
// engine hands a task, forwards every call unchanged, and charges host
// time to the call family through which it was entered. Each interval
// runs from entering a TaskCtx call until dwarf code next resumes on
// that host thread, so time the engine spends on other cores or fibers
// before control returns to dwarf code lands on the call that yielded.
// Time between a resume and the next call is the dwarf's own native
// time. Spawned TaskFns are rewrapped, so every task of the run is
// observed, whatever core or worker thread it lands on.
//
// Accounting is per host thread (a fiber only ever resumes on the
// thread that owns its shard, and the per-thread view needs no fiber
// state anyway), so the hot path takes no lock; LayerProfile merges the
// per-thread accumulators after Engine::run() returns.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/task_ctx.h"

namespace perfbench {

enum Family : std::uint8_t {
  kCompute,  // compute(), function_boundary()
  kMem,      // mem_read(), mem_write()
  kProbe,    // probe()
  kSpawn,    // spawn(), make_group()
  kJoin,     // join()
  kLock,     // make_lock(), lock(), unlock()
  kCell,     // make_cell(), make_cell_at(), cell_acquire(), cell_release()
  kOther,    // introspection, and task return until the next resume
  kNative,   // dwarf code between calls
  kNumFamilies
};

/// Metric names of the call families (kNative is reported apart).
inline constexpr const char* kFamilyNames[kNative] = {
    "compute", "mem", "probe", "spawn", "join", "lock", "cell", "other"};

struct LayerTotals {
  std::array<double, kNumFamilies> seconds{};
  std::array<std::uint64_t, kNumFamilies> calls{};
};

class LayerProfile {
 public:
  LayerProfile() = default;
  LayerProfile(const LayerProfile&) = delete;
  LayerProfile& operator=(const LayerProfile&) = delete;

  /// Call entry: closes the running interval and opens one for `f`.
  void enter(Family f) { mark(f, true); }
  /// Dwarf code resumes: closes the running interval, opens native.
  void resume() { mark(kNative, false); }
  /// A task returned to the engine.
  void task_exit() { mark(kOther, false); }

  /// Most tasks started and not yet returned at any one time: each
  /// holds a fiber, so this is the live-fiber high-water mark.
  [[nodiscard]] std::int64_t live_peak() const noexcept {
    return live_peak_.load(std::memory_order_relaxed);
  }

  /// Sum over every thread that ran dwarf code. Call after run().
  [[nodiscard]] LayerTotals totals() const {
    LayerTotals t;
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& a : threads_) {
      for (int f = 0; f < kNumFamilies; ++f) {
        t.seconds[f] += static_cast<double>(a->ns[f]) * 1e-9;
        t.calls[f] += a->calls[f];
      }
    }
    return t;
  }

  /// Wraps a task so it runs against a LayerCtx bound to this profile.
  [[nodiscard]] simany::TaskFn wrap(simany::TaskFn fn);

 private:
  using clock = std::chrono::steady_clock;

  struct ThreadAcc {
    std::array<std::uint64_t, kNumFamilies> ns{};
    std::array<std::uint64_t, kNumFamilies> calls{};
    Family open = kOther;
    bool running = false;
    clock::time_point since{};
  };

  ThreadAcc& acc() {
    // One slot per (thread, profile): a profile lives for one run, and
    // a thread that outlives it re-registers with the next profile. The
    // key is a serial number, not the address, which a later profile
    // may reuse.
    thread_local std::uint64_t owner = 0;
    thread_local ThreadAcc* slot = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> lk(mu_);
      threads_.push_back(std::make_unique<ThreadAcc>());
      slot = threads_.back().get();
      owner = id_;
    }
    return *slot;
  }

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> n{0};
    return ++n;
  }

  void mark(Family next, bool is_call) {
    ThreadAcc& a = acc();
    const auto now = clock::now();
    if (a.running) {
      a.ns[a.open] += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - a.since)
              .count());
    }
    a.open = next;
    a.since = now;
    a.running = true;
    if (is_call) ++a.calls[next];
  }

  void task_start() {
    const std::int64_t n = live_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::int64_t peak = live_peak_.load(std::memory_order_relaxed);
    while (n > peak && !live_peak_.compare_exchange_weak(
                           peak, n, std::memory_order_relaxed)) {
    }
  }

  const std::uint64_t id_ = next_id();
  std::atomic<std::int64_t> live_{0};
  std::atomic<std::int64_t> live_peak_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadAcc>> threads_;
};

class LayerCtx final : public simany::TaskCtx {
 public:
  LayerCtx(simany::TaskCtx& inner, LayerProfile& prof)
      : in_(inner), p_(prof) {}

  void compute(simany::Cycles cycles) override {
    Call c(p_, kCompute);
    in_.compute(cycles);
  }
  void compute(const simany::timing::InstMix& mix) override {
    Call c(p_, kCompute);
    in_.compute(mix);
  }
  void function_boundary() override {
    Call c(p_, kCompute);
    in_.function_boundary();
  }
  void mem_read(std::uint64_t addr, std::uint32_t bytes) override {
    Call c(p_, kMem);
    in_.mem_read(addr, bytes);
  }
  void mem_write(std::uint64_t addr, std::uint32_t bytes) override {
    Call c(p_, kMem);
    in_.mem_write(addr, bytes);
  }
  simany::GroupId make_group() override {
    Call c(p_, kSpawn);
    return in_.make_group();
  }
  bool probe() override {
    Call c(p_, kProbe);
    return in_.probe();
  }
  void spawn(simany::GroupId group, simany::TaskFn fn,
             std::uint32_t arg_bytes) override {
    simany::TaskFn wrapped = p_.wrap(std::move(fn));
    Call c(p_, kSpawn);
    in_.spawn(group, std::move(wrapped), arg_bytes);
  }
  void join(simany::GroupId group) override {
    Call c(p_, kJoin);
    in_.join(group);
  }
  simany::LockId make_lock() override {
    Call c(p_, kLock);
    return in_.make_lock();
  }
  void lock(simany::LockId id) override {
    Call c(p_, kLock);
    in_.lock(id);
  }
  void unlock(simany::LockId id) override {
    Call c(p_, kLock);
    in_.unlock(id);
  }
  simany::CellId make_cell(std::uint32_t bytes) override {
    Call c(p_, kCell);
    return in_.make_cell(bytes);
  }
  simany::CellId make_cell_at(std::uint32_t bytes,
                              simany::CoreId home) override {
    Call c(p_, kCell);
    return in_.make_cell_at(bytes, home);
  }
  void cell_acquire(simany::CellId cell, simany::AccessMode mode) override {
    Call c(p_, kCell);
    in_.cell_acquire(cell, mode);
  }
  void cell_release(simany::CellId cell) override {
    Call c(p_, kCell);
    in_.cell_release(cell);
  }
  simany::CoreId core_id() const override {
    Call c(p_, kOther);
    return in_.core_id();
  }
  std::uint32_t num_cores() const override {
    Call c(p_, kOther);
    return in_.num_cores();
  }
  simany::Cycles now_cycles() const override {
    Call c(p_, kOther);
    return in_.now_cycles();
  }
  simany::mem::MemoryModel memory_model() const override {
    Call c(p_, kOther);
    return in_.memory_model();
  }
  simany::Rng& rng() override {
    Call c(p_, kOther);
    return in_.rng();
  }

 private:
  // Entry on construction, resume on destruction: the destructor runs
  // when the forwarded call returns to dwarf code, however long the
  // engine kept this fiber suspended inside it.
  struct Call {
    Call(LayerProfile& p, Family f) : p_(p) { p_.enter(f); }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;
    ~Call() { p_.resume(); }
    LayerProfile& p_;
  };

  simany::TaskCtx& in_;
  LayerProfile& p_;
};

inline simany::TaskFn LayerProfile::wrap(simany::TaskFn fn) {
  return [this, fn = std::move(fn)](simany::TaskCtx& ctx) {
    struct Exit {
      LayerProfile& p;
      ~Exit() {
        p.live_.fetch_sub(1, std::memory_order_relaxed);
        p.task_exit();
      }
    } exit{*this};
    task_start();
    resume();
    LayerCtx lc(ctx, *this);
    fn(lc);
  };
}

}  // namespace perfbench
