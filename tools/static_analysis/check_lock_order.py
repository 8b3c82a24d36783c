"""Lock-order checker.

Builds the global lock-acquisition graph and fails on cycles — each cycle is
a potential deadlock, reported with its witness path and the acquisition
sites that create every edge.

Edge sources, in order of authority:

  1. TSA annotations from PR 6: ACQUIRED_BEFORE/ACQUIRED_AFTER declarations
     on Mutex members are *declared* edges, merged into the graph.
  2. MutexLock RAII sites (and manual .Lock()/.Unlock() pairs) inside
     function bodies: acquiring B while A is held adds edge A -> B.
  3. REQUIRES(mu) on a function means mu is held on entry, so every lock the
     body acquires gets an edge mu -> lock.
  4. Holding a lock across a call into a function that acquires locks
     (directly or transitively) adds edges to the callee's acquisitions.
     Name-level resolution — an overapproximation, which for deadlock
     detection errs on the side of reporting.

Lock identity is `Class::member` when the member is declared in a known
class (global member table scanned from all sources), else the bare
expression. The serving_thread ThreadRole is a fake capability (asserted,
never blocking) and is excluded. Waive a reported edge with
`// analysis:allow(lock-order): <rationale>` at the acquisition site.
"""

import re

from sa_common import Finding, allow_waiver, replay_fixture

RULE = "lock-order"

# Capabilities that are roles, not blocking locks.
EXCLUDED_CAPS = {"serving_thread"}

_MUTEX_MEMBER = re.compile(r"\bMutex\s+([A-Za-z_]\w*)\s*"
                           r"((?:GUARDED_BY|ACQUIRED_BEFORE|ACQUIRED_AFTER)"
                           r"\s*\(([^()]*)\))?\s*;")
_MUTEXLOCK = re.compile(r"\bMutexLock\s+\w+\s*[({]\s*([^;()]+?)\s*[)}]\s*;")
_MANUAL_LOCK = re.compile(r"\b([A-Za-z_][\w.\->]*?)\s*[.\->]+\s*Lock\s*\(\s*\)")
_MANUAL_UNLOCK = re.compile(r"\b([A-Za-z_][\w.\->]*?)\s*[.\->]+\s*Unlock\s*\(\s*\)")
_REQUIRES = re.compile(r"\bREQUIRES\s*\(([^()]*)\)")
_CALL = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
_ACQ_ORDER = re.compile(r"\bMutex\s+([A-Za-z_]\w*)\s*"
                        r"ACQUIRED_(BEFORE|AFTER)\s*\(([^()]*)\)")


def _normalize(expr, cls, member_owners):
    """Canonical lock key for an acquisition expression."""
    e = expr.strip()
    e = e.lstrip("&*").replace("this->", "").strip()
    # obj->mu_ / obj.mu_ : key by the member name, owner-qualified if the
    # member name is declared by exactly one class.
    m = re.search(r"([A-Za-z_]\w*)\s*$", e)
    if not m:
        return None
    member = m.group(1)
    owners = member_owners.get(member, set())
    if e == member and cls and (cls, member) in {(c, member) for c in owners}:
        return f"{cls}::{member}"
    if len(owners) == 1:
        return f"{next(iter(owners))}::{member}"
    return member


def build_member_tables(sources):
    """member name -> set of declaring classes, plus declared order edges."""
    member_owners = {}
    declared_edges = []  # (lock_a, lock_b, path, line) meaning a before b
    for sf in sources:
        # Re-scan with class context: walk functions' files via a light pass.
        cls_stack = []
        depth_stack = []
        depth = 0
        for line_no, line in enumerate(sf.stripped.split("\n"), start=1):
            m = re.search(r"\b(?:class|struct)\s+([A-Za-z_]\w*)"
                          r"(?:\s+final)?(?:\s*:[^;{]*)?\s*\{", line)
            if m:
                cls_stack.append(m.group(1))
                depth_stack.append(depth)
            depth += line.count("{") - line.count("}")
            while depth_stack and depth <= depth_stack[-1]:
                depth_stack.pop()
                cls_stack.pop()
            dm = _MUTEX_MEMBER.search(line)
            if dm and cls_stack:
                member_owners.setdefault(dm.group(1), set()).add(cls_stack[-1])
            om = _ACQ_ORDER.search(line)
            if om and cls_stack:
                cls = cls_stack[-1]
                this_lock = f"{cls}::{om.group(1)}"
                for other in re.findall(r"[A-Za-z_]\w*", om.group(3)):
                    other_lock = f"{cls}::{other}"
                    if om.group(2) == "BEFORE":
                        declared_edges.append((this_lock, other_lock,
                                               sf.path, line_no))
                    else:
                        declared_edges.append((other_lock, this_lock,
                                               sf.path, line_no))
    return member_owners, declared_edges


def _entry_locks(fn, member_owners):
    """Locks held on entry per REQUIRES annotations on the definition."""
    held = []
    for m in _REQUIRES.finditer(fn.decl):
        for expr in m.group(1).split(","):
            key = _normalize(expr, fn.cls, member_owners)
            if key and key.split("::")[-1] not in EXCLUDED_CAPS:
                held.append(key)
    return held


def _body_acquisitions(fn, member_owners):
    """[(offset, key)] for every acquisition in the body, in order."""
    acqs = []
    for m in _MUTEXLOCK.finditer(fn.body):
        key = _normalize(m.group(1), fn.cls, member_owners)
        if key and key.split("::")[-1] not in EXCLUDED_CAPS:
            acqs.append((m.start(), key, "scoped"))
    for m in _MANUAL_LOCK.finditer(fn.body):
        key = _normalize(m.group(1), fn.cls, member_owners)
        if key and key.split("::")[-1] not in EXCLUDED_CAPS:
            acqs.append((m.start(), key, "manual"))
    return sorted(acqs)


def _brace_depth_at(body, offset):
    return body.count("{", 0, offset) - body.count("}", 0, offset)


def _offset_line(fn, offset):
    return fn.start_line + fn.body.count("\n", 0, offset)


def build_lock_graph(sources):
    """edges: {(a, b): (path, line, why)}; functions' direct+transitive
    acquisition sets for call-edge propagation."""
    member_owners, declared_edges = build_member_tables(sources)
    index = {}
    for sf in sources:
        for fn in sf.functions:
            index.setdefault(fn.name, []).append(fn)

    lines_by_path = {sf.path: sf.lines for sf in sources}
    edges = {}

    def add_edge(a, b, path, line, why):
        if a == b:
            return
        if allow_waiver(lines_by_path.get(path, []), line, RULE):
            return
        edges.setdefault((a, b), (path, line, why))

    # Declared ACQUIRED_BEFORE/AFTER edges.
    for a, b, path, line in declared_edges:
        add_edge(a, b, path, line, "declared by annotation")

    # Direct acquisitions per function (for transitive call edges).
    direct = {}
    for sf in sources:
        for fn in sf.functions:
            acqs = _body_acquisitions(fn, member_owners)
            direct[(fn.path, fn.start_line)] = {k for (_, k, _) in acqs}

    # Transitive closure of "may acquire" through calls (name-level).
    may_acquire = dict(direct)
    changed = True
    while changed:
        changed = False
        for sf in sources:
            for fn in sf.functions:
                key = (fn.path, fn.start_line)
                acc = may_acquire[key]
                before = len(acc)
                for m in _CALL.finditer(fn.body):
                    for cand in index.get(m.group(1), []):
                        acc |= may_acquire.get((cand.path, cand.start_line),
                                               set())
                if len(acc) != before:
                    changed = True

    # Intra-function ordering + held-across-call edges.
    for sf in sources:
        for fn in sf.functions:
            entry = _entry_locks(fn, member_owners)
            acqs = _body_acquisitions(fn, member_owners)
            # Held set as (key, depth_acquired, kind, offset); scoped locks
            # release when depth drops below their depth, manual on Unlock.
            held = [(k, -1, "entry", 0) for k in entry]
            events = [(off, "acq", key, kind) for (off, key, kind) in acqs]
            for m in _MANUAL_UNLOCK.finditer(fn.body):
                k = _normalize(m.group(1), fn.cls, member_owners)
                if k:
                    events.append((m.start(), "rel", k, "manual"))
            for m in _CALL.finditer(fn.body):
                events.append((m.start(), "call", m.group(1), ""))
            events.sort()
            for off, kind, name, how in events:
                depth = _brace_depth_at(fn.body, off)
                held = [h for h in held
                        if h[2] != "scoped" or h[1] <= depth]
                if kind == "acq":
                    line = _offset_line(fn, off)
                    for (h, _, _, hoff) in held:
                        add_edge(h, name, fn.path, line,
                                 f"{fn.qual} acquires '{name}' while "
                                 f"holding '{h}'")
                    held.append((name, depth, how, off))
                elif kind == "rel":
                    held = [h for h in held if not (h[0] == name and
                                                    h[2] == "manual")]
                else:  # call while holding
                    if not held:
                        continue
                    if name == "MutexLock" or name in ("Lock", "Unlock"):
                        continue
                    for cand in index.get(name, []):
                        for target in sorted(
                                may_acquire.get((cand.path, cand.start_line),
                                                set())):
                            line = _offset_line(fn, off)
                            for (h, _, _, _) in held:
                                add_edge(h, target, fn.path, line,
                                         f"{fn.qual} calls {name}() (which "
                                         f"may acquire '{target}') while "
                                         f"holding '{h}'")
    return edges


def find_cycles(edges):
    graph = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    stack = []
    cycles = []

    def dfs(v):
        color[v] = GRAY
        stack.append(v)
        for w in sorted(graph.get(v, ())):
            st = color.get(w, WHITE)
            if st == GRAY:
                cycles.append(stack[stack.index(w):] + [w])
            elif st == WHITE:
                dfs(w)
        stack.pop()
        color[v] = BLACK

    for v in sorted(graph):
        if color.get(v, WHITE) == WHITE:
            dfs(v)
    return cycles


def run(root, sources):
    edges = build_lock_graph(sources)
    findings = []
    for cyc in find_cycles(edges):
        parts = []
        for a, b in zip(cyc, cyc[1:]):
            path, line, why = edges[(a, b)]
            parts.append(f"  {a} -> {b}   ({path}:{line}: {why})")
        anchor = edges[(cyc[0], cyc[1])]
        findings.append(Finding(
            anchor[0], anchor[1], RULE,
            "potential deadlock: lock-order cycle\n" + "\n".join(parts)))
    return findings


# ---------------------------------------------------------------------------

SELF_TEST_CASES = [
    ("ab_ba_cycle.cc", """
namespace deepdive {
class Pair {
 public:
  void First() {
    MutexLock la(a_mu_);
    MutexLock lb(b_mu_);
  }
  void Second() {
    MutexLock lb(b_mu_);
    MutexLock la(a_mu_);
  }
 private:
  Mutex a_mu_;
  Mutex b_mu_;
};
}
""", True),
    ("consistent_order.cc", """
namespace deepdive {
class Pair {
 public:
  void First() {
    MutexLock la(a_mu_);
    MutexLock lb(b_mu_);
  }
  void Second() {
    MutexLock la(a_mu_);
    Use();
    MutexLock lb(b_mu_);
  }
  void Use();
 private:
  Mutex a_mu_;
  Mutex b_mu_;
};
}
""", False),
    ("nested_scope_releases.cc", """
namespace deepdive {
class Scoped {
 public:
  void F() {
    {
      MutexLock la(a_mu_);
    }
    MutexLock lb(b_mu_);
  }
  void G() {
    {
      MutexLock lb(b_mu_);
    }
    MutexLock la(a_mu_);
  }
 private:
  Mutex a_mu_;
  Mutex b_mu_;
};
}
""", False),
    ("cross_function_cycle.cc", """
namespace deepdive {
class Deep {
 public:
  void Outer() {
    MutexLock la(a_mu_);
    Inner();
  }
  void Inner() {
    MutexLock lb(b_mu_);
  }
  void Reversed() {
    MutexLock lb(b_mu_);
    MutexLock la(a_mu_);
  }
 private:
  Mutex a_mu_;
  Mutex b_mu_;
};
}
""", True),
    ("requires_cycle.cc", """
namespace deepdive {
class Annotated {
 public:
  void TakesB() REQUIRES(b_mu_) {
    MutexLock la(a_mu_);
  }
  void Other() {
    MutexLock la(a_mu_);
    MutexLock lb(b_mu_);
  }
 private:
  Mutex a_mu_;
  Mutex b_mu_;
};
}
""", True),
    ("declared_before_cycle.cc", """
namespace deepdive {
class Declared {
 public:
  void F() {
    MutexLock lb(b_mu_);
    MutexLock la(a_mu_);
  }
 private:
  Mutex a_mu_ ACQUIRED_BEFORE(b_mu_);
  Mutex b_mu_;
};
}
""", True),
    ("waived_edge.cc", """
namespace deepdive {
class Waived {
 public:
  void First() {
    MutexLock la(a_mu_);
    MutexLock lb(b_mu_);
  }
  void Second() {
    MutexLock lb(b_mu_);
    // analysis:allow(lock-order): b is a leaf trylock here; proven
    // non-blocking by construction in this test fixture.
    MutexLock la(a_mu_);
  }
 private:
  Mutex a_mu_;
  Mutex b_mu_;
};
}
""", False),
]


def self_test():
    import sa_common
    failures = replay_fixture(
        "tests/analysis_fail/lock_order_bad.cc", [(12, RULE)], run)
    for name, content, expect_cycle in SELF_TEST_CASES:
        rel = "src/selftest/" + name
        stripped = sa_common.strip_comments(content)
        sf = sa_common.SourceFile(path=rel, lines=content.split("\n"),
                                  stripped=stripped)
        sf.functions = sa_common.scan_functions(rel, stripped)
        findings = run(".", [sf])
        if expect_cycle and not findings:
            failures.append(f"{name}: expected a lock-order cycle, got none")
        if not expect_cycle and findings:
            failures.append(f"{name}: expected clean, got "
                            f"{[f.msg.splitlines()[0] for f in findings]}")
    return failures
