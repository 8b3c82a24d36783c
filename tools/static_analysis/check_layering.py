"""Layering-DAG checker.

The module layering is declared once, as data, and validated over the full
`#include` graph:

    util -> storage -> dsl -> engine
    util -> factor -> grounding/inference -> incremental -> core -> serve/*
    kbc above core; tools/bench/tests/examples are sinks.

MODULE_DAG maps each module to the modules its files may directly include.
The table is deliberately *direct* (no transitive closure): serve/handlers
may include serve/service, and serve/service may include core, but a
serve/handlers file including core/deepdive.h is still a violation — the
engine's writer surface is the service tier's private capability.

Three failure classes:
  layering        an include edge absent from MODULE_DAG
  layering-cycle  a cycle in the file-level include graph (witness printed)
  layering-dag    the declared table itself is cyclic or names unknown
                  modules (defends the declaration, not just the tree)

Waiver: `// analysis:allow(layering): <rationale>` on/above the include.
"""

import os
import re

from sa_common import (REPO_ROOT, Finding, allow_waiver, project_includes,
                       replay_fixture)

# Module -> modules whose headers its files may #include (besides its own).
# Order within the lists is cosmetic; the DAG property is validated.
MODULE_DAG = {
    "util": [],
    "storage": ["util"],
    "dsl": ["storage", "util"],
    "engine": ["dsl", "storage", "util"],
    "factor": ["util"],
    "grounding": ["dsl", "engine", "factor", "storage", "util"],
    "inference": ["factor", "storage", "util"],
    "incremental": ["factor", "inference", "storage", "util"],
    "core": ["dsl", "engine", "factor", "grounding", "incremental",
             "inference", "storage", "util"],
    "kbc": ["core", "dsl", "factor", "incremental", "inference", "storage",
            "util"],
    # Rule mining drives the engine's public rule-delta surface from above:
    # it may see core (DeepDive) and the layers core re-exports, but nothing
    # below core may ever include mining — the miner is a client, not a
    # dependency, of the engine.
    "mining": ["core", "dsl", "engine", "inference", "storage", "util"],
    # Serving tiers: comm is pure framing/codec (util only); handlers dispatch
    # verbs onto the service tier; only service may touch the engine (via
    # core); srv accepts connections and feeds handlers.
    "serve/comm": ["util"],
    "serve/handlers": ["serve/comm", "serve/service", "storage", "util"],
    "serve/service": ["core", "factor", "incremental", "inference", "mining",
                      "serve/comm", "storage", "util"],
    "serve/srv": ["serve/comm", "serve/handlers", "util"],
    # The serve.h umbrella re-exports the whole stack for out-of-tree users.
    "serve": ["serve/comm", "serve/handlers", "serve/service", "serve/srv",
              "util"],
}

# Directories whose files may include anything (consumers of the library).
SINK_DIRS = ("tools", "bench", "tests", "examples")

RULE = "layering"

# The negative fixture's root, under which its path is a serve/comm file.
FIXTURE_ROOT = os.path.join(REPO_ROOT, "tests", "analysis_fail", "layering")


def module_of(rel_path):
    """Module name for a repo-relative file path, or None for sinks/unknown.

    Returns (module, is_sink)."""
    parts = rel_path.replace(os.sep, "/").split("/")
    if parts[0] in SINK_DIRS:
        return parts[0], True
    if parts[0] != "src" or len(parts) < 3:
        return None, True  # not ours, or a file directly under src/
    if parts[1] == "serve":
        if len(parts) >= 4 and parts[2] in ("comm", "handlers", "service", "srv"):
            return "serve/" + parts[2], False
        return "serve", False
    return parts[1], False


def module_of_include(include_path):
    """Module a quoted include path points into (paths are src-relative)."""
    return module_of("src/" + include_path)[0]


def edge_allowed(from_module, include_path):
    """May a file in `from_module` include `include_path`? Unknown modules
    are allowed here — check_file reports them as layering-dag problems
    instead."""
    to_module = module_of_include(include_path)
    if to_module is None or from_module is None:
        return True
    if from_module == to_module:
        return True
    allowed = MODULE_DAG.get(from_module)
    if allowed is None:
        return True
    return to_module in allowed


def validate_dag():
    """Findings about the declared table itself (unknown refs, cycles)."""
    findings = []
    for mod, deps in MODULE_DAG.items():
        for d in deps:
            if d not in MODULE_DAG:
                findings.append(Finding(
                    "tools/static_analysis/check_layering.py", 0,
                    "layering-dag", f"module '{mod}' depends on unknown "
                    f"module '{d}'"))
    # Cycle check by DFS over the declared edges.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {m: WHITE for m in MODULE_DAG}
    stack = []

    def dfs(m):
        color[m] = GRAY
        stack.append(m)
        for d in MODULE_DAG.get(m, ()):
            if d not in color:
                continue
            if color[d] == GRAY:
                cyc = stack[stack.index(d):] + [d]
                findings.append(Finding(
                    "tools/static_analysis/check_layering.py", 0,
                    "layering-dag",
                    "declared module table is cyclic: " + " -> ".join(cyc)))
            elif color[d] == WHITE:
                dfs(d)
        stack.pop()
        color[m] = BLACK

    for m in MODULE_DAG:
        if color[m] == WHITE:
            dfs(m)
    return findings


def _find_file_cycle(graph):
    """One cycle in the file-level include graph, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    stack = []

    def dfs(f):
        color[f] = GRAY
        stack.append(f)
        for g in sorted(graph.get(f, ())):
            st = color.get(g, WHITE)
            if st == GRAY:
                return stack[stack.index(g):] + [g]
            if st == WHITE:
                cyc = dfs(g)
                if cyc:
                    return cyc
        stack.pop()
        color[f] = BLACK
        return None

    for f in sorted(graph):
        if color.get(f, WHITE) == WHITE:
            cyc = dfs(f)
            if cyc:
                return cyc
    return None


def check_file(rel, lines, assume_module=None):
    """Per-file edge validation. `assume_module` overrides path-derived
    module resolution so self-test cases can impersonate a tier."""
    module, is_sink = module_of(rel)
    if assume_module is not None:
        module, is_sink = assume_module, False
    if is_sink or module is None:
        return []
    findings = []
    if module not in MODULE_DAG:
        findings.append(Finding(rel, 1, "layering-dag",
                                f"file's module '{module}' is not declared in "
                                "MODULE_DAG — add it with its dependencies"))
        return findings
    for line_no, inc in project_includes(lines):
        to_module = module_of_include(inc)
        if to_module is None:
            continue  # system-style or unresolvable: not ours to judge
        if edge_allowed(module, inc):
            continue
        if allow_waiver(lines, line_no, RULE):
            continue
        findings.append(Finding(
            rel, line_no, RULE,
            f"module '{module}' must not include '{inc}' (module "
            f"'{to_module}'): allowed direct deps are "
            f"[{', '.join(MODULE_DAG[module]) or 'none'}] — move the "
            "dependency down a layer or route through an allowed tier"))
    return findings


def run(root, sources):
    findings = list(validate_dag())
    include_graph = {}
    for sf in sources:
        findings += check_file(sf.path, sf.lines)
        edges = set()
        for _, inc in project_includes(sf.lines):
            target = "src/" + inc
            if os.path.exists(os.path.join(root, target)):
                edges.add(target)
        include_graph[sf.path] = edges
    cyc = _find_file_cycle(include_graph)
    if cyc:
        findings.append(Finding(
            cyc[0], 1, "layering-cycle",
            "include cycle: " + " -> ".join(cyc)))
    return findings


# ---------------------------------------------------------------------------
# Self-test: seeded positive/negative cases per failure class.

SELF_TEST_CASES = [
    # (name, assume_module, content, expected_rule_or_None)
    ("handlers_includes_engine.cc", "serve/handlers",
     '#include "incremental/engine.h"\nvoid h() {}\n', "layering"),
    ("comm_includes_deepdive.cc", "serve/comm",
     '#include "core/deepdive.h"\nvoid h() {}\n', "layering"),
    ("comm_includes_inference.cc", "serve/comm",
     '#include "inference/result_view.h"\nvoid h() {}\n', "layering"),
    ("comm_includes_result_view.cc", "serve/comm",
     '#include "incremental/result_view.h"\nvoid h() {}\n', "layering"),
    ("inference_includes_core.cc", "inference",
     '#include "core/deepdive.h"\nvoid f() {}\n', "layering"),
    ("util_includes_factor.cc", "util",
     '#include "factor/factor_graph.h"\nvoid f() {}\n', "layering"),
    ("core_includes_mining.cc", "core",
     '#include "mining/miner.h"\nvoid f() {}\n', "layering"),
    ("handlers_include_mining.cc", "serve/handlers",
     '#include "mining/candidates.h"\nvoid h() {}\n', "layering"),
    ("mining_above_core_ok.cc", "mining",
     '#include "core/deepdive.h"\n#include "dsl/ast.h"\n'
     '#include "engine/view_maintenance.h"\nvoid m() {}\n', None),
    ("service_owns_miner.cc", "serve/service",
     '#include "mining/miner.h"\nvoid h() {}\n', None),
    ("handlers_ok.cc", "serve/handlers",
     '#include "serve/service/tenant.h"\n#include "serve/comm/messages.h"\n'
     '#include "util/status.h"\nvoid h() {}\n', None),
    ("service_owns_engine.cc", "serve/service",
     '#include "incremental/engine.h"\n#include "core/deepdive.h"\n'
     "void h() {}\n", None),
    ("waived_edge.cc", "serve/comm",
     "// analysis:allow(layering): test-only shim, torn out in PR 10.\n"
     '#include "core/deepdive.h"\nvoid h() {}\n', None),
    ("waiver_needs_rationale.cc", "serve/comm",
     "// analysis:allow(layering):\n"
     '#include "core/deepdive.h"\nvoid h() {}\n', "layering"),
    ("sink_is_free.cc", None,  # resolved by path below: tests/ sink
     '#include "core/deepdive.h"\n#include "incremental/engine.h"\n'
     "int main() {}\n", None),
]


def self_test():
    # Under its own root the fixture's path makes it a serve/comm file.
    failures = replay_fixture(
        "src/serve/comm/layering_bad.cc", [(5, RULE), (6, RULE)], run,
        root=FIXTURE_ROOT)
    for name, mod, content, expected in SELF_TEST_CASES:
        rel = ("tests/" + name) if mod is None else ("src/x/" + name)
        found = [f.rule for f in
                 check_file(rel, content.split("\n"), assume_module=mod)]
        if expected is None and found:
            failures.append(f"{name}: expected clean, got {found}")
        elif expected is not None and expected not in found:
            failures.append(f"{name}: expected [{expected}], got {found}")
    # The declared table must itself be a DAG over known modules...
    if validate_dag():
        failures.append("MODULE_DAG: validate_dag() found problems")
    # ...and the validator must bite on a bad table.
    saved = dict(MODULE_DAG)
    try:
        MODULE_DAG["util"] = ["core"]  # closes util -> core -> util
        if not any(f.rule == "layering-dag" for f in validate_dag()):
            failures.append("validate_dag: seeded cycle not detected")
    finally:
        MODULE_DAG.clear()
        MODULE_DAG.update(saved)
    # File-level cycle detector on a synthetic 3-cycle.
    cyc = _find_file_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}})
    if not cyc:
        failures.append("file cycle: synthetic a->b->c->a not detected")
    acyclic = _find_file_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()})
    if acyclic:
        failures.append(f"file cycle: false positive on a DAG: {acyclic}")
    return failures
