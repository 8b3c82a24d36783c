// Query throughput through the versioned snapshot API: queries/sec from
// 1-8 reader threads, each pinning a ResultView (DeepDive::Query) and doing
// one tuple lookup per pin — first against an idle serving thread, then
// while the serving thread streams updates (data inserts and analysis
// steps) with background rematerializations swapping snapshots underneath.
// Readers never take a lock, so throughput should scale with reader count
// and the update stream should cost readers nothing beyond cache traffic.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/deepdive.h"
#include "util/logging.h"
#include "util/thread_role.h"
#include "util/timer.h"

namespace deepdive::bench {
namespace {

constexpr double kSecondsPerConfig = 0.4;
constexpr size_t kSentences = 60;

std::unique_ptr<core::DeepDive> BuildServing() REQUIRES(serving_thread) {
  const char* program = R"(
    relation Person(sent: int, mention: int).
    relation Phrase(m1: int, m2: int, words: string).
    query relation HasSpouse(m1: int, m2: int).
    evidence HasSpouseLabel(m1: int, m2: int, l: bool) for HasSpouse.
    rule CAND: HasSpouse(m1, m2) :-
      Person(s, m1), Person(s, m2), m1 != m2.
    factor FE1: HasSpouse(m1, m2) :- Phrase(m1, m2, w)
      weight = w(w) semantics = ratio.
  )";
  core::DeepDiveConfig config = core::FastTestConfig();
  config.materialization.async = true;
  config.materialization.remat_after_updates = 4;
  config.engine.mh_target_steps = 50;
  config.engine.gibbs.burn_in_sweeps = 5;
  config.engine.gibbs.sample_sweeps = 50;
  config.engine.rerun_gibbs.burn_in_sweeps = 5;
  config.engine.rerun_gibbs.sample_sweeps = 50;
  auto dd = core::DeepDive::Create(program, config);
  DD_CHECK(dd.ok()) << dd.status().ToString();
  std::vector<Tuple> persons, phrases;
  for (size_t s = 1; s <= kSentences; ++s) {
    const auto sent = static_cast<int64_t>(s);
    persons.push_back({Value(sent), Value(sent * 10)});
    persons.push_back({Value(sent), Value(sent * 10 + 1)});
    phrases.push_back({Value(sent * 10), Value(sent * 10 + 1),
                       Value(s % 2 ? "and his wife" : "met with")});
  }
  const std::vector<Tuple> labels = {{Value(10), Value(11), Value(true)},
                                     {Value(20), Value(21), Value(false)}};
  DD_CHECK((*dd)->LoadRows("Person", persons).ok());
  DD_CHECK((*dd)->LoadRows("Phrase", phrases).ok());
  DD_CHECK((*dd)->LoadRows("HasSpouseLabel", labels).ok());
  DD_CHECK((*dd)->Initialize().ok());
  return std::move(dd).value();
}

/// Runs `readers` query threads for kSecondsPerConfig against `dd` and
/// returns total queries served. Each pin does one indexed lookup so the
/// workload is a realistic point query, not just a pointer load.
uint64_t RunReaders(const core::DeepDive& dd, size_t readers) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total{0};
  // analysis:allow(raw-thread): the reader threads ARE the benchmark: plain
  // threads pinning views at full tilt, deliberately not ThreadPool tasks.
  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (size_t t = 0; t < readers; ++t) {
    threads.emplace_back([&dd, &stop, &total] {
      uint64_t queries = 0;
      uint64_t last_epoch = 0;
      // ordering: relaxed — quit hint; join() below publishes the tallies.
      while (!stop.load(std::memory_order_relaxed)) {
        const auto view = dd.Query();
        DD_CHECK(view->epoch >= last_epoch);
        last_epoch = view->epoch;
        const auto* entries = view->Relation("HasSpouse");
        if (entries != nullptr && !entries->empty()) {
          const auto& probe = (*entries)[queries % entries->size()];
          DD_CHECK(view->MarginalOf("HasSpouse", probe.first) == probe.second);
        }
        ++queries;
      }
      total.fetch_add(queries);
    });
  }
  Timer timer;
  while (timer.Seconds() < kSecondsPerConfig) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  return total.load();
}

/// The concurrent update stream: applied by the serving thread until
/// `stop`, cycling data inserts (structural deltas that trigger remats) and
/// analysis-only refreshes.
void StreamUpdates(core::DeepDive* dd, const std::atomic<bool>* stop,
                   size_t* updates_applied) {
  // Serving-role handoff: main() builds the instance, then stays off the
  // serving surface until after join() — for the streaming window this
  // writer thread IS the serving thread.
  serving_thread.AssertHeld();
  size_t u = 0;
  // ordering: relaxed — quit hint; the caller's join() orders *updates_applied.
  while (!stop->load(std::memory_order_relaxed)) {
    core::UpdateSpec spec;
    spec.label = "stream#" + std::to_string(u);
    if (u % 2 == 0) {
      const auto m = static_cast<int64_t>(10000 + u * 10);
      spec.inserts["Person"] = {{Value(1000 + static_cast<int64_t>(u)), Value(m)},
                                {Value(1000 + static_cast<int64_t>(u)), Value(m + 1)}};
      spec.inserts["Phrase"] = {
          {Value(m), Value(m + 1), Value(u % 4 ? "and his wife" : "met with")}};
    } else {
      spec.analysis_only = true;
    }
    auto report = dd->ApplyUpdate(spec);
    DD_CHECK(report.ok()) << report.status().ToString();
    ++u;
  }
  *updates_applied = u;
}

void Run() REQUIRES(serving_thread) {
  PrintHeader("query throughput vs reader count (versioned snapshot API)");
  std::printf("%8s  %16s  %16s  %10s\n", "readers", "idle q/s",
              "streaming q/s", "updates");
  for (const size_t readers : {1u, 2u, 4u, 8u}) {
    // Fresh serving instance per config: the streaming run grows the graph,
    // and reusing it would skew the next config's per-query cost.
    auto idle_dd = BuildServing();
    const uint64_t idle = RunReaders(*idle_dd, readers);

    auto streaming_dd = BuildServing();
    std::atomic<bool> stop_updates{false};
    size_t updates_applied = 0;
    std::thread writer(StreamUpdates, streaming_dd.get(), &stop_updates,
                       &updates_applied);
    const uint64_t streaming = RunReaders(*streaming_dd, readers);
    stop_updates.store(true);
    writer.join();
    DD_CHECK(streaming_dd->incremental_engine()->WaitForMaterialization().ok());

    std::printf("%8zu  %16.0f  %16.0f  %10zu\n", readers,
                static_cast<double>(idle) / kSecondsPerConfig,
                static_cast<double>(streaming) / kSecondsPerConfig,
                updates_applied);
  }
  std::printf("\n(each pin = one Query() + one indexed MarginalOf; streaming "
              "column races a\n live update stream with background "
              "rematerialization swaps)\n");
}

}  // namespace
}  // namespace deepdive::bench

int main() {
  // Trusted root: the process main thread is the serving thread (it hands
  // the role to the StreamUpdates writer for the streaming window).
  deepdive::serving_thread.AssertHeld();
  deepdive::bench::Run();
  return 0;
}
