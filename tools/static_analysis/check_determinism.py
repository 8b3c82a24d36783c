"""Determinism checker.

The engine's headline guarantee is bit-identical marginals at any thread or
replica count; incremental-vs-rerun parity tests compare EXPECT_EQ, not NEAR.
Three hazard classes can silently break it:

  determinism-unordered   iterating a std::unordered_{map,set} in a path that
                          emits or merges ordered state (grounding emission,
                          delta merge, marginal/checksum computation) makes
                          output depend on hash-table layout.
  determinism-fp          floating-point accumulation inside a parallel
                          region (a lambda handed to ParallelFor/Submit)
                          makes the sum depend on thread interleaving unless
                          it goes through an ordered shard reduction.
  determinism-rng         an Rng constructed from seed arithmetic
                          (`seed + worker`) instead of Rng::MixSeed keying
                          produces correlated streams — the exact hazard
                          PR 4 fixed by hand; this rule keeps it fixed.

A fourth rule guards the checker's own scope:

  determinism-seed        a SCOPE_SEEDS entry that matches no function
                          (renamed or deleted) silently scopes nothing.
                          Reported on whole-tree scans only, since a
                          --files scan sees part of the tree; not waivable
                          — fix the seed list.

Scope: the first two rules apply to functions *reachable* from the seed set
below (name-level call-graph BFS over the whole library — an
overapproximation, which is the right direction for a determinism gate).
The RNG rule applies to all of src/. Waive with
`// analysis:allow(<rule>): <rationale>`.
"""

import os
import re

from sa_common import Finding, allow_waiver, replay_fixture

# Entry points of the grounding emission/merge paths and of marginal /
# checksum computation. Matched as qualified-name suffixes against the
# function index; everything they (transitively) call is in scope.
SCOPE_SEEDS = [
    # grounding emission + merge
    "IncrementalGrounder::GroundAll",
    "IncrementalGrounder::AddFactorRule",
    "IncrementalGrounder::ApplyRelationDeltas",
    "GraphDelta::Merge",
    # marginal and checksum computation
    "DeepDive::PublishView",
    "ResultPublisher::Publish",
    "ResultView::Fingerprint",
    "CompiledGraph::Checksum",
    "Fnv1aHash",
    "EstimateMarginals",
    "EstimateMarginalsAuto",
    # incremental inference: strategy execution, including the variational
    # image splice, where row order decides floating-point order
    "IncrementalEngine::ApplyDelta",
    # rule mining: candidate generation and trial order must be
    # bit-reproducible (the miner's promote/reject decisions — and thus the
    # evolved program itself — depend on it)
    "GenerateCandidates",
    "CooccurrenceStats::Observe",
    "RuleMiner::Mine",
]

# Seed-derivation helpers that implement decorrelated stream keying; an Rng
# constructed through any of these is correctly keyed. (AuxSeed is
# replicated_gibbs' wrapper over MixSeed.)
BLESSED_SEED_HELPERS = ("MixSeed", "AuxSeed")

# Parallel-region introducers: a lambda passed to one of these runs
# concurrently, so FP accumulation inside it is order-sensitive.
PARALLEL_CALLS = ("ParallelFor", "Submit")

# Calls that perform a deterministically-ordered reduction; accumulation
# inside their callees is sequenced by construction.
BLESSED_REDUCERS = ("OrderedShardReduce",)

# Functions that ARE the blessed ordered-reduction helpers: their bodies may
# iterate unordered containers because they exist to impose order (collect,
# sort, then visit). Matched by unqualified name.
BLESSED_ORDERED_HELPERS = ("ForEachOrdered", "OrderedShardReduce")

RULES = ("determinism-unordered", "determinism-fp", "determinism-rng",
         "determinism-seed")

_UNORDERED_DECL = re.compile(r"\bunordered_(?:map|set)\s*<")
_RANGE_FOR = re.compile(r"\bfor\s*\(\s*[^;:()]*?:\s*([^)]+)\)")
_RNG_CTOR = re.compile(r"\bRng\s+\w+\s*(?:\(([^;]*?)\)|\{([^;]*?)\})\s*[;,)]"
                       r"|=\s*Rng\s*\(([^;]*?)\)\s*;")
_STD_RNG = re.compile(r"\bstd::(?:mt19937(?:_64)?|minstd_rand0?|"
                      r"random_device|default_random_engine)\b")
_SEED_ASSIGN = re.compile(r"[\w.\->]*\bseed\s*(?:[+\-*^|]=|=)\s*([^;=][^;]*);")
_STREAM_MAKER = re.compile(r"\bMakeRngStreams\s*\(([^;()]*)\)")
_FP_DECL = re.compile(r"\b(?:double|float)\s+([A-Za-z_]\w*)\s*[;={]")
_FP_VEC_DECL = re.compile(r"\bvector\s*<\s*(?:double|float)\s*>[&\s]*"
                          r"([A-Za-z_]\w*)\s*[;={(]")
_ACCUM = re.compile(r"([A-Za-z_][\w.\->\[\]]*?)\s*(?:\[[^\]]*\]\s*)?"
                    r"[+\-*]=[^=]")


def _names_after_template(text):
    """Variable names declared with an unordered type: from each
    `unordered_map<`/`unordered_set<` occurrence, balance the angle brackets
    and read the declared identifier(s) after them."""
    names = set()
    for m in _UNORDERED_DECL.finditer(text):
        i = m.end() - 1  # at '<'
        depth = 0
        while i < len(text):
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            elif text[i] in ";{}":
                break
            i += 1
        tail = text[i + 1:i + 200]
        dm = re.match(r"[&\s]*([A-Za-z_]\w*)\s*[;={(,]", tail)
        if dm:
            names.add(dm.group(1))
    return names


def build_symbol_tables(sources):
    """Global (cross-file) tables of unordered-container and floating-point
    variable/member names, keyed by bare name. Name-level resolution is an
    overapproximation shared with the call graph."""
    unordered = set()
    fp = set()
    for sf in sources:
        unordered |= _names_after_template(sf.stripped)
        for m in _FP_DECL.finditer(sf.stripped):
            fp.add(m.group(1))
        for m in _FP_VEC_DECL.finditer(sf.stripped):
            fp.add(m.group(1))
    return unordered, fp


def build_function_index(sources):
    index = {}
    for sf in sources:
        for fn in sf.functions:
            index.setdefault(fn.name, []).append(fn)
    return index


_CALL = re.compile(r"\b([A-Za-z_]\w*)\s*\(")


def reachable_functions(sources, seeds=SCOPE_SEEDS):
    """Name-level BFS: all Function records reachable from the seed set, and
    the seeds that matched no function."""
    index = build_function_index(sources)
    work = []
    seen = set()
    unmatched = []
    for seed in seeds:
        last = seed.split("::")[-1]
        matches = [fn for fn in index.get(last, [])
                   if fn.qual.endswith(seed) or fn.name == seed]
        if not matches:
            unmatched.append(seed)
        for fn in matches:
            key = (fn.path, fn.start_line)
            if key not in seen:
                seen.add(key)
                work.append(fn)
    reach = []
    while work:
        fn = work.pop()
        reach.append(fn)
        for m in _CALL.finditer(fn.body):
            callee = m.group(1)
            for cand in index.get(callee, []):
                key = (cand.path, cand.start_line)
                if key not in seen:
                    seen.add(key)
                    work.append(cand)
    return reach, unmatched


def unmatched_seed_findings(root, unmatched):
    """One finding per seed that matched no function, at its line in the
    SCOPE_SEEDS list."""
    path = os.path.relpath(os.path.abspath(__file__), os.path.abspath(root))
    with open(__file__) as f:
        lines = f.read().split("\n")
    findings = []
    for seed in unmatched:
        line = next((i + 1 for i, text in enumerate(lines)
                     if text.strip() == f'"{seed}",'), 1)
        findings.append(Finding(
            path, line, "determinism-seed",
            f"scope seed '{seed}' matches no function — it checks nothing; "
            "update or remove it"))
    return findings


def _base_identifier(expr):
    expr = expr.strip().rstrip(")")
    toks = re.findall(r"[A-Za-z_]\w*", expr)
    return toks[-1] if toks else ""


_ORDERED_TYPES = (r"\b(?:std\s*::\s*)?(?:vector|map|set|multimap|multiset|"
                  r"deque|array|span|list|basic_string|string)\s*<")


def _locally_ordered(fn, base):
    """True if this function declares `base` (param or local) with an ordered
    container type — which shadows any same-named unordered member elsewhere
    in the tree (the global table is name-level)."""
    pat = re.compile(_ORDERED_TYPES + r"[^;(){}]{0,200}?[&*\s]" +
                     re.escape(base) + r"\b")
    return bool(pat.search(fn.decl)) or bool(pat.search(fn.body))


def _lambda_regions(body, introducers):
    """(start, end) offsets of lambda bodies inside calls to `introducers`."""
    regions = []
    for name in introducers:
        for m in re.finditer(r"\b" + name + r"\s*\(", body):
            # First lambda after the call site, within its argument list.
            close = m.end()
            lb = body.find("[", m.end())
            if lb < 0:
                continue
            brace = body.find("{", lb)
            if brace < 0:
                continue
            depth = 0
            for j in range(brace, len(body)):
                if body[j] == "{":
                    depth += 1
                elif body[j] == "}":
                    depth -= 1
                    if depth == 0:
                        regions.append((brace, j + 1))
                        break
    return regions


def _offset_line(fn, offset):
    return fn.start_line + fn.body.count("\n", 0, offset)


def check_function(fn, lines, unordered, fp_names):
    findings = []
    if fn.name in BLESSED_ORDERED_HELPERS:
        return findings
    body = fn.body
    local_unordered = unordered | _names_after_template(body)

    # unordered iteration
    for m in _RANGE_FOR.finditer(body):
        expr = m.group(1).strip()
        if "(" in expr or expr.endswith(")"):
            # A call expression: `program_->relations()` returns whatever the
            # method returns; the name-level table only knows *variables*.
            # Accessor-returning-unordered is caught at the accessor's own
            # definition when it is in scope.
            continue
        base = _base_identifier(expr)
        if base in local_unordered and _locally_ordered(fn, base):
            continue  # ordered param/local shadows a same-named member
        if base in local_unordered:
            line = _offset_line(fn, m.start())
            if not allow_waiver(lines, line, "determinism-unordered"):
                findings.append(Finding(
                    fn.path, line, "determinism-unordered",
                    f"{fn.qual}: iterates unordered container '{base}' in a "
                    "determinism-scoped path — iterate a sorted/ordered "
                    "structure, or waive with a rationale proving order "
                    "independence"))

    # parallel FP accumulation
    blessed_spans = _lambda_regions(body, BLESSED_REDUCERS)
    for (s, e) in _lambda_regions(body, PARALLEL_CALLS):
        region = body[s:e]
        for m in _ACCUM.finditer(region):
            target = _base_identifier(m.group(1))
            if target not in fp_names:
                continue
            off = s + m.start()
            if any(bs <= off < be for (bs, be) in blessed_spans):
                continue
            line = _offset_line(fn, off)
            if not allow_waiver(lines, line, "determinism-fp"):
                findings.append(Finding(
                    fn.path, line, "determinism-fp",
                    f"{fn.qual}: floating-point accumulation into '{target}' "
                    "inside a parallel region — reduce per-shard and merge "
                    "in shard order (see util's ordered-reduction pattern), "
                    "or waive with a rationale"))
    if "std::reduce" in body or "std::execution" in body:
        off = body.find("std::reduce")
        if off < 0:
            off = body.find("std::execution")
        line = _offset_line(fn, off)
        if not allow_waiver(lines, line, "determinism-fp"):
            findings.append(Finding(
                fn.path, line, "determinism-fp",
                f"{fn.qual}: std::reduce/parallel execution policies have "
                "unspecified accumulation order"))
    return findings


def check_rng_in_file(sf):
    findings = []
    text = sf.stripped
    for m in _RNG_CTOR.finditer(text):
        args = next((g for g in m.groups() if g is not None), "")
        args = args.strip()
        line = text.count("\n", 0, m.start()) + 1
        if not args:
            continue  # default seed: a fixed constant
        if any(h + "(" in args.replace(" ", "") or h in args
               for h in BLESSED_SEED_HELPERS):
            continue
        # Arithmetic on the seed expression = hand-rolled stream derivation.
        if re.search(r"[+\-^|]|\*(?!\))", args) and not re.fullmatch(
                r"[\d'+\-*^| xXa-fA-F()uUlL]+", args):
            if not allow_waiver(sf.lines, line, "determinism-rng"):
                findings.append(Finding(
                    sf.path, line, "determinism-rng",
                    f"Rng seeded with arithmetic '{args}' — derive stream "
                    "seeds via Rng::MixSeed(seed, stream[, substream]) so "
                    "streams are decorrelated (seed+k collides with seed'=s+1"
                    ", k-1)"))
    # Seed plumbing that bypasses MixSeed: arithmetic assigned into a .seed
    # field, or arithmetic handed to a stream-maker helper. `x.seed = y.seed`
    # (plain copy) is fine; `x.seed = y.seed + k` / `x.seed += k` is the
    # correlated-streams hazard in option-struct form.
    for m in _SEED_ASSIGN.finditer(text):
        rhs = m.group(1)
        line = text.count("\n", 0, m.start()) + 1
        if any(h in rhs for h in BLESSED_SEED_HELPERS):
            continue
        # `->` is member access, not subtraction.
        if not re.search(r"[+\-^|]|\*(?!\))", rhs.replace("->", ".")):
            continue
        if not allow_waiver(sf.lines, line, "determinism-rng"):
            findings.append(Finding(
                sf.path, line, "determinism-rng",
                f"seed derived by arithmetic '{rhs.strip()}' — use "
                "Rng::MixSeed(seed, stream[, substream]) so derived streams "
                "are decorrelated"))
    for m in _STREAM_MAKER.finditer(text):
        args = m.group(1)
        line = text.count("\n", 0, m.start()) + 1
        if any(h in args for h in BLESSED_SEED_HELPERS):
            continue
        if not re.search(r"[+\-^|]|\*(?!\))", args):
            continue
        if not allow_waiver(sf.lines, line, "determinism-rng"):
            findings.append(Finding(
                sf.path, line, "determinism-rng",
                f"stream maker seeded with arithmetic '{args.strip()}' — "
                "key the base seed with Rng::MixSeed first"))
    for m in _STD_RNG.finditer(text):
        line = text.count("\n", 0, m.start()) + 1
        if not allow_waiver(sf.lines, line, "determinism-rng"):
            findings.append(Finding(
                sf.path, line, "determinism-rng",
                "standard-library RNG in engine code — use deepdive::Rng "
                "(explicitly seeded, MixSeed-keyable)"))
    return findings


def run(root, sources, scope_all=False, whole_tree=False, seeds=SCOPE_SEEDS):
    """`whole_tree` marks a scan of the full library, the only one on which
    a seed matching no function proves the seed stale."""
    unordered, fp_names = build_symbol_tables(sources)
    by_path = {sf.path: sf for sf in sources}
    scoped, unmatched = reachable_functions(sources, seeds)
    if scope_all:
        scoped = [fn for sf in sources for fn in sf.functions]
    findings = []
    if whole_tree:
        findings += unmatched_seed_findings(root, unmatched)
    for fn in scoped:
        sf = by_path.get(fn.path)
        if sf is None:
            continue
        findings += check_function(fn, sf.lines, unordered, fp_names)
    for sf in sources:
        if sf.path.startswith("src"):
            findings += check_rng_in_file(sf)
    # De-duplicate (a function reachable via several seeds is checked once).
    seen = set()
    unique = []
    for f in findings:
        key = (f.path, f.line, f.rule)
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique


# ---------------------------------------------------------------------------

SELF_TEST_CASES = [
    ("unordered_iteration.cc", """
#include <unordered_map>
namespace deepdive {
struct IncrementalGrounder {
  std::unordered_map<int, double> weights_;
  void GroundAll() { Helper(); }
  void Helper() {
    for (const auto& [k, v] : weights_) { Emit(k, v); }
  }
  void Emit(int, double);
};
}
""", ["determinism-unordered"]),
    ("unordered_waived.cc", """
#include <unordered_map>
namespace deepdive {
struct IncrementalGrounder {
  std::unordered_map<int, double> weights_;
  void GroundAll() {
    // analysis:allow(determinism-unordered): buckets are per-key
    // independent and sorted before publication below.
    for (const auto& [k, v] : weights_) { Emit(k, v); }
  }
  void Emit(int, double);
};
}
""", []),
    ("unordered_unreachable.cc", """
#include <unordered_map>
namespace deepdive {
struct NotInScope {
  std::unordered_map<int, double> cache_;
  void DebugDump() {
    for (const auto& [k, v] : cache_) { Print(k, v); }
  }
  void Print(int, double);
};
}
""", []),
    ("parallel_fp_accumulation.cc", """
namespace deepdive {
struct Est {
  double total_ = 0.0;
  void EstimateMarginals(ThreadPool& pool) {
    pool.ParallelFor(0, 8, [&](size_t t) { total_ += Chunk(t); });
  }
  double Chunk(size_t);
};
}
""", ["determinism-fp"]),
    ("sequential_fp_ok.cc", """
namespace deepdive {
struct Est {
  void EstimateMarginals() {
    double total = 0.0;
    for (int i = 0; i < 8; ++i) total += Chunk(i);
  }
  double Chunk(int);
};
}
""", []),
    ("rng_arithmetic.cc", """
namespace deepdive {
void Sweep(uint64_t seed, size_t worker) {
  Rng rng(seed + worker);
}
}
""", ["determinism-rng"]),
    ("rng_mixseed_ok.cc", """
namespace deepdive {
void Sweep(uint64_t seed, size_t worker) {
  Rng rng(Rng::MixSeed(seed, worker));
  Rng plain(seed);
}
}
""", []),
    ("std_rng.cc", """
namespace deepdive {
void F() { std::mt19937 gen(42); }
}
""", ["determinism-rng"]),
    # Candidate generation is in scope: hash-order iteration would make the
    # proposal order (and thus the mined program) layout-dependent.
    ("miner_unordered_candidates.cc", """
#include <unordered_map>
namespace deepdive::mining {
struct Gen {
  std::unordered_map<int, int> supports_;
  void GenerateCandidates() {
    for (const auto& [p, s] : supports_) { Emit(p, s); }
  }
  void Emit(int, int);
};
}
""", ["determinism-unordered"]),
    ("miner_ordered_candidates_ok.cc", """
#include <map>
namespace deepdive::mining {
struct Gen {
  std::map<int, int> supports_;
  void GenerateCandidates() {
    for (const auto& [p, s] : supports_) { Emit(p, s); }
  }
  void Emit(int, int);
};
}
""", []),
    # The blessed ordered helper may iterate unordered state: it imposes
    # order itself (collect, sort, visit).
    ("blessed_helper_exempt.cc", """
#include <unordered_map>
namespace deepdive {
struct IncrementalGrounder {
  std::unordered_map<int, double> entries_;
  void GroundAll() { ForEachOrdered(); }
  void ForEachOrdered() {
    for (const auto& [k, v] : entries_) { Collect(k, v); }
  }
  void Collect(int, double);
};
}
""", []),
    ("seed_assign_arith.cc", """
namespace deepdive {
void Configure(GibbsOptions& gopts, uint64_t base, size_t update) {
  gopts.seed = base + update;
}
}
""", ["determinism-rng"]),
    ("seed_assign_ok.cc", """
namespace deepdive {
void Configure(GibbsOptions& gopts, const Options& options, size_t update) {
  gopts.seed = options.seed;
  gopts.seed = Rng::MixSeed(options.seed, update);
}
}
""", []),
    ("stream_maker_arith.cc", """
namespace deepdive {
void Sweep(Sampler& s, uint64_t seed, size_t update) {
  auto rngs = s.MakeRngStreams(seed + update);
}
}
""", ["determinism-rng"]),
    # A vector parameter whose name collides with an unordered member
    # declared elsewhere must not be flagged (local shadows global table).
    ("ordered_param_shadows.cc", """
#include <unordered_map>
namespace deepdive {
struct View { std::unordered_map<int, int> relations; };
struct IncrementalGrounder {
  void GroundAll(const std::vector<int>& relations) {
    for (const int r : relations) { Emit(r); }
  }
  void Emit(int);
};
}
""", []),
    # Range over a call expression is not a variable lookup.
    ("call_range_not_flagged.cc", """
#include <unordered_map>
namespace deepdive {
struct View { std::unordered_map<int, int> relations; };
struct IncrementalGrounder {
  void GroundAll() {
    for (const int r : program_.relations()) { Emit(r); }
  }
  void Emit(int);
};
}
""", []),
]


_SEED_SOURCE = """
namespace deepdive {
struct IncrementalGrounder { void GroundAll() {} };
}
"""

# Seed-list cases over _SEED_SOURCE: (name, seeds, whole_tree, expected).
SEED_SELF_TEST_CASES = [
    ("seed_unmatched.cc",
     ("IncrementalGrounder::GroundAll", "RetiredEngine::PublishView"), True,
     ["determinism-seed"]),
    ("seed_all_matched.cc", ("IncrementalGrounder::GroundAll",), True, []),
    # A --files scan sees part of the tree: an unmatched seed proves nothing.
    ("seed_unmatched_partial_scan.cc",
     ("IncrementalGrounder::GroundAll", "RetiredEngine::PublishView"), False,
     []),
]


def _self_test_source(name, content):
    import sa_common
    rel = "src/selftest/" + name
    stripped = sa_common.strip_comments(content)
    sf = sa_common.SourceFile(path=rel, lines=content.split("\n"),
                              stripped=stripped)
    sf.functions = sa_common.scan_functions(rel, stripped)
    return sf


def self_test():
    failures = replay_fixture(
        "tests/analysis_fail/determinism_bad.cc",
        [(14, "determinism-unordered")], run)
    for name, content, expected in SELF_TEST_CASES:
        found = sorted({f.rule for f in run(".", [_self_test_source(name, content)])})
        if sorted(expected) != found:
            failures.append(f"{name}: expected {expected}, got {found}")
    for name, seeds, whole_tree, expected in SEED_SELF_TEST_CASES:
        found = sorted(f.rule for f in run(
            ".", [_self_test_source(name, _SEED_SOURCE)],
            whole_tree=whole_tree, seeds=seeds))
        if sorted(expected) != found:
            failures.append(f"{name}: expected {expected}, got {found}")
    return failures
