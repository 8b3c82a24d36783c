"""Concurrency-contract checker.

Clang Thread Safety Analysis proves lock and role discipline at compile
time; four conventions it cannot see are checked here:

  ordering          An explicit std::memory_order_{relaxed,acquire,release,
                    acq_rel,consume} needs an `// ordering:` comment on its
                    line or within the twelve lines above, arguing why that
                    ordering suffices. Default (seq_cst) operations are
                    exempt. The comment is the rule's only mechanism, so it
                    takes no analysis:allow.
  raw-thread        std::thread is spelled only in src/util/thread_pool.*.
                    Any other file needs an `analysis:allow(raw-thread):`
                    saying why a plain thread and not a ThreadPool task; the
                    waiver covers the whole file, because the uses it
                    justifies sit far apart.
  ref-accessor      A reference-returning method in a src/ header aliases
                    state, so its declaration carries a REQUIRES,
                    RETURN_CAPABILITY or GUARDED_BY annotation, or a doc
                    comment within the eight lines above states its thread
                    contract. Waiver: analysis:allow(ref-accessor) on or
                    just above the line.
  tsan-suppression  Every .tsan-suppressions entry sits under a `#` block
                    containing `rationale:` that explains the false positive
                    and how it was verified.

Scope: .h, .cc and .cpp files under src/, tools/, tests/, bench/ and
examples/, plus the root .tsan-suppressions. The rules read lines only, so
this checker needs no function scan.
"""

import os
import re
from dataclasses import dataclass

from sa_common import Finding, allow_waiver, list_files

SCAN_DIRS = ("src", "tools", "tests", "bench", "examples")
SUPPRESSIONS = ".tsan-suppressions"
THREAD_POOL_FILES = ("src/util/thread_pool.h", "src/util/thread_pool.cc")

ORDERING_RE = re.compile(
    r"std::memory_order_(relaxed|acquire|release|acq_rel|consume)\b")
ORDERING_COMMENT = "ordering:"
ORDERING_WINDOW = 12  # lines above that a justification block may span

RAW_THREAD_RE = re.compile(r"std::thread\b")

# A member-ish declaration returning T& (not T&&): indented, a return type
# ending in a single '&', a name, an open paren on the same line.
REF_ACCESSOR_RE = re.compile(
    r"^\s+(?:virtual\s+)?(?:const\s+)?[\w:<>,\* ]+?&\s+(\w+)\s*\(")
REF_ACCESSOR_DOC_WINDOW = 8
REF_ACCESSOR_DOC_TOKENS = (
    "thread", "immutable", "guarded", "caller", "requires(", "serving",
    "synchroniz", "lock", "concurren",
)
REF_ACCESSOR_ANNOTATIONS = ("REQUIRES(", "RETURN_CAPABILITY(", "GUARDED_BY(")

SUPPRESSION_RATIONALE = "rationale:"


@dataclass
class LintFile:
    path: str    # repo-relative
    lines: list


def check_ordering(path, lines):
    findings = []
    for i, line in enumerate(lines):
        if not ORDERING_RE.search(line):
            continue
        window = lines[max(0, i - ORDERING_WINDOW):i + 1]
        if not any(ORDERING_COMMENT in w for w in window):
            findings.append(Finding(
                path, i + 1, "ordering",
                "explicit memory_order without an '// ordering:' "
                "justification comment"))
    return findings


def check_raw_thread(path, lines):
    if path in THREAD_POOL_FILES or allow_waiver(
            lines, len(lines), "raw-thread", window=len(lines)):
        return []
    return [Finding(path, i + 1, "raw-thread",
                    "std::thread outside ThreadPool; wrap the work in "
                    "util/thread_pool.h or say why in an "
                    "'// analysis:allow(raw-thread): <reason>' comment")
            for i, line in enumerate(lines) if RAW_THREAD_RE.search(line)]


def _declaration_has_annotation(lines, i):
    """The declaration may continue past line i; scan to its ';' or '{'."""
    for chunk in lines[i:]:
        if any(a in chunk for a in REF_ACCESSOR_ANNOTATIONS):
            return True
        if ";" in chunk or "{" in chunk:
            return False
    return False


def check_ref_accessor(path, lines):
    if not (path.startswith("src/") and path.endswith(".h")):
        return []
    findings = []
    for i, line in enumerate(lines):
        if line.strip().startswith(("//", "*")):
            continue
        m = REF_ACCESSOR_RE.match(line)
        if not m:
            continue
        name = m.group(1)
        # Control-flow keywords and operators are not accessors.
        if name in ("if", "for", "while", "switch", "return", "operator"):
            continue
        if allow_waiver(lines, i + 1, "ref-accessor"):
            continue
        if _declaration_has_annotation(lines, i):
            continue
        doc = lines[max(0, i - REF_ACCESSOR_DOC_WINDOW):i]
        doc_comments = " ".join(
            d.strip() for d in doc if d.strip().startswith(("//", "*", "/*")))
        haystack = (doc_comments + " " + line).lower()
        if any(tok in haystack for tok in REF_ACCESSOR_DOC_TOKENS):
            continue
        findings.append(Finding(
            path, i + 1, "ref-accessor",
            f"'{name}' returns a reference without a documented thread "
            "contract (REQUIRES(...) annotation, a comment stating the "
            "threading rules, or 'analysis:allow(ref-accessor): <reason>')"))
    return findings


def check_suppressions(path, lines):
    findings = []
    comment_block = []  # consecutive entries share one block
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            comment_block = []
            continue
        if stripped.startswith("#"):
            comment_block.append(stripped.lower())
            continue
        if not any(SUPPRESSION_RATIONALE in c for c in comment_block):
            findings.append(Finding(
                path, i + 1, "tsan-suppression",
                f"suppression '{stripped}' lacks a preceding comment block "
                "containing 'rationale:'"))
    return findings


def check_file(path, lines):
    if os.path.basename(path) == SUPPRESSIONS:
        return check_suppressions(path, lines)
    return (check_ordering(path, lines) + check_raw_thread(path, lines) +
            check_ref_accessor(path, lines))


def collect(root, files=None):
    """LintFile records for `files` (repo-relative), or for the whole scope."""
    if not files:
        files = list_files(root, SCAN_DIRS)
        if os.path.exists(os.path.join(root, SUPPRESSIONS)):
            files.append(SUPPRESSIONS)
    out = []
    for rel in files:
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as f:
            out.append(LintFile(rel, f.read().split("\n")))
    return out


def run(files):
    return [f for lf in files for f in check_file(lf.path, lf.lines)]


# ---------------------------------------------------------------------------
# Self-test: one violation and one clean sample per rule, in memory.

SELF_TEST_CASES = [
    # (path, content, expected rules in order)
    ("src/bad_ordering.cc",
     "int f(std::atomic<int>& a) {\n"
     "  return a.load(std::memory_order_relaxed);\n}\n",
     ["ordering"]),
    ("src/good_ordering.cc",
     "int f(std::atomic<int>& a) {\n"
     "  // ordering: relaxed — monotone counter, join publishes.\n"
     "  return a.load(std::memory_order_relaxed);\n}\n",
     []),
    ("src/bad_thread.cc",
     "#include <thread>\nvoid g() { std::thread t([]{}); t.join(); }\n",
     ["raw-thread"]),
    ("src/good_thread.cc",
     "// analysis:allow(raw-thread): the thread under test must be raw.\n"
     "#include <thread>\nvoid g() { std::thread t([]{}); t.join(); }\n",
     []),
    ("src/bare_waiver_thread.cc",
     "// analysis:allow(raw-thread):\n"
     "#include <thread>\nvoid g() { std::thread t([]{}); t.join(); }\n",
     ["raw-thread"]),
    ("src/bad_ref.h",
     "class C {\n public:\n  std::vector<int>& data() { return d_; }\n"
     " private:\n  std::vector<int> d_;\n};\n",
     ["ref-accessor"]),
    ("src/good_ref.h",
     "class C {\n public:\n"
     "  /// Serving thread only: aliases state the writer mutates.\n"
     "  std::vector<int>& data() { return d_; }\n"
     " private:\n  std::vector<int> d_;\n};\n",
     []),
    ("src/waived_ref.h",
     "class C {\n public:\n"
     "  // analysis:allow(ref-accessor): a test double no thread shares.\n"
     "  std::vector<int>& data() { return d_; }\n"
     " private:\n  std::vector<int> d_;\n};\n",
     []),
    (".tsan-suppressions",
     "# no reason given\nrace:some_header.h\n",
     ["tsan-suppression"]),
    ("good/.tsan-suppressions",
     "# Rationale: lock-bit artifact, verified 2026-08 by\n"
     "# rebuilding concurrent_query_test without suppressions.\n"
     "race:bits/shared_ptr_atomic.h\n",
     []),
]


def self_test():
    failures = []
    for path, content, expected in SELF_TEST_CASES:
        found = [f.rule for f in check_file(path, content.split("\n"))]
        if found != expected:
            failures.append(f"{path}: expected {expected}, got {found}")
    return failures
