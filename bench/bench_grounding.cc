// Incremental grounding (Section 3.1 / Section 4.2 text): DRed delta rules
// vs re-evaluating the candidate-generation and feature queries from
// scratch. The paper reports up to 360x for rule FE1 on News; the shape to
// reproduce is speedup growing with corpus size for a fixed-size update.
// Emits BENCH_grounding.json (or --out PATH) for the CI artifact, and exits
// non-zero when the update's rows visited at the largest corpus exceed twice
// those at the smallest: delta grounding must cost work in proportion to the
// update, not to the corpus.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dsl/program.h"
#include "engine/view_maintenance.h"
#include "grounding/grounder.h"
#include "grounding/incremental_grounder.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace deepdive::bench {
namespace {

constexpr char kProgram[] = R"(
  relation Person(s: int, m: int).
  relation Feature(m1: int, m2: int, f: string).
  query relation HasSpouse(m1: int, m2: int).
  evidence HasSpouseEv(m1: int, m2: int, l: bool) for HasSpouse.
  rule CAND: HasSpouse(m1, m2) :- Person(s, m1), Person(s, m2), m1 != m2.
  factor FE1: HasSpouse(m1, m2) :- Feature(m1, m2, f) weight = w(f) semantics = ratio.
)";

struct System {
  dsl::Program program;
  Database db;
  std::unique_ptr<engine::ViewMaintainer> vm;
  grounding::GroundGraph ground;
  std::unique_ptr<grounding::IncrementalGrounder> grounder;
  double ground_seconds = 0.0;  // GroundAll wall time
};

std::unique_ptr<System> Build(size_t sentences, uint64_t seed,
                              grounding::GroundingOptions options = {}) {
  auto sys = std::make_unique<System>();
  auto p = dsl::CompileProgram(kProgram);
  if (!p.ok()) return nullptr;
  sys->program = std::move(p).value();
  if (!sys->program.InstantiateSchema(&sys->db).ok()) return nullptr;
  Rng rng(seed);
  Table* person = sys->db.GetTable("Person");
  Table* feature = sys->db.GetTable("Feature");
  for (size_t s = 0; s < sentences; ++s) {
    const int64_t m1 = static_cast<int64_t>(s * 10 + 1);
    const int64_t m2 = static_cast<int64_t>(s * 10 + 2);
    (void)person->Insert({Value(static_cast<int64_t>(s)), Value(m1)});
    (void)person->Insert({Value(static_cast<int64_t>(s)), Value(m2)});
    (void)feature->Insert(
        {Value(m1), Value(m2), Value(StrFormat("f%zu", rng.UniformInt(30)))});
  }
  sys->vm = std::make_unique<engine::ViewMaintainer>(&sys->program, &sys->db);
  if (!sys->vm->Initialize().ok()) return nullptr;
  sys->grounder = std::make_unique<grounding::IncrementalGrounder>(
      &sys->program, &sys->db, &sys->ground, options);
  if (!sys->grounder->Initialize().ok()) return nullptr;
  Timer ground_timer;
  if (!sys->grounder->GroundAll().ok()) return nullptr;
  sys->ground_seconds = ground_timer.Seconds();
  return sys;
}

/// Thread-count sweep over the largest synthetic program: per-thread
/// grounding throughput for recording speedup curves on multi-core hosts.
/// Output must be bit-identical at every thread count (the determinism suite
/// asserts this; here we only cross-check the aggregate stats).
void RunThreadSweep() {
  PrintHeader("Sharded grounding: thread-count sweep (full GroundAll)");
  constexpr size_t kSentences = 20000;
  std::printf("%8s | %12s %16s | %8s\n", "threads", "ground (s)", "clauses/s",
              "speedup");
  double base_seconds = 0.0;
  size_t base_clauses = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    grounding::GroundingOptions options;
    options.num_threads = threads;
    auto sys = Build(kSentences, 3, options);
    if (sys == nullptr) {
      std::printf("build failed\n");
      return;
    }
    const size_t clauses = sys->ground.graph.NumClauses();
    if (threads == 1) {
      base_seconds = sys->ground_seconds;
      base_clauses = clauses;
    } else if (clauses != base_clauses) {
      std::printf("DETERMINISM VIOLATION: %zu clauses at %zu threads vs %zu\n",
                  clauses, threads, base_clauses);
      return;
    }
    std::printf("%8zu | %12.4f %16.0f | %7.2fx\n", threads, sys->ground_seconds,
                sys->ground_seconds > 0
                    ? static_cast<double>(clauses) / sys->ground_seconds
                    : 0.0,
                sys->ground_seconds > 0 ? base_seconds / sys->ground_seconds : 0.0);
  }
}

struct SizeResult {
  size_t sentences = 0;
  double full_seconds = 0.0;
  double delta_seconds = 0.0;
  uint64_t rows_visited = 0;  // by the delta update's joins
};

bool Run(std::vector<SizeResult>* results) {
  PrintHeader("Incremental grounding: DRed delta rules vs full regrounding");
  std::printf("%10s | %14s %14s | %8s | %12s\n", "#sentences", "full (s)",
              "delta (s)", "speedup", "rows visited");
  for (size_t sentences : {500u, 2000u, 8000u, 20000u}) {
    auto inc = Build(sentences, 3);
    if (inc == nullptr) {
      std::printf("build failed\n");
      return false;
    }

    // The update: 10 new sentences worth of data.
    engine::RelationDeltas external;
    for (size_t i = 0; i < 10; ++i) {
      const int64_t s = static_cast<int64_t>(sentences + i);
      const int64_t m1 = s * 10 + 1, m2 = s * 10 + 2;
      external["Person"].Add({Value(s), Value(m1)}, 1);
      external["Person"].Add({Value(s), Value(m2)}, 1);
      external["Feature"].Add({Value(m1), Value(m2), Value("fnew")}, 1);
    }

    const uint64_t rows_before = inc->vm->rows_visited() + inc->grounder->rows_visited();
    Timer delta_timer;
    auto set_deltas = inc->vm->ApplyUpdate(external);
    if (!set_deltas.ok()) return false;
    auto gdelta = inc->grounder->ApplyRelationDeltas(*set_deltas);
    if (!gdelta.ok()) return false;
    SizeResult r;
    r.sentences = sentences;
    r.delta_seconds = delta_timer.Seconds();
    r.rows_visited = inc->vm->rows_visited() + inc->grounder->rows_visited() - rows_before;

    // Full regrounding of the updated state: fresh views + fresh grounding.
    Timer full_timer;
    auto full = Build(sentences + 10, 3);
    if (full == nullptr) return false;
    r.full_seconds = full_timer.Seconds();

    std::printf("%10zu | %14.5f %14.5f | %7.1fx | %12llu\n", sentences, r.full_seconds,
                r.delta_seconds,
                r.delta_seconds > 0 ? r.full_seconds / r.delta_seconds : 0.0,
                static_cast<unsigned long long>(r.rows_visited));
    results->push_back(r);
  }
  return true;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_grounding.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return 2;
    }
  }

  std::vector<SizeResult> results;
  if (!Run(&results)) return 1;
  RunThreadSweep();

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"grounding\",\n  \"update_sentences\": 10,\n"
                    "  \"sizes\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    std::fprintf(out,
                 "    {\"sentences\": %zu, \"full_s\": %.6f, \"delta_s\": %.6f, "
                 "\"speedup\": %.2f, \"delta_rows_visited\": %llu}%s\n",
                 r.sentences, r.full_seconds, r.delta_seconds,
                 r.delta_seconds > 0 ? r.full_seconds / r.delta_seconds : 0.0,
                 static_cast<unsigned long long>(r.rows_visited),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());

  const SizeResult& smallest = results.front();
  const SizeResult& largest = results.back();
  if (largest.rows_visited > 2 * smallest.rows_visited) {
    std::fprintf(stderr,
                 "PROPORTIONALITY VIOLATION: the update visited %llu rows at %zu "
                 "sentences vs %llu at %zu\n",
                 static_cast<unsigned long long>(largest.rows_visited), largest.sentences,
                 static_cast<unsigned long long>(smallest.rows_visited),
                 smallest.sentences);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace deepdive::bench

int main(int argc, char** argv) { return deepdive::bench::Main(argc, argv); }
