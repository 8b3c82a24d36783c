"""Shared C++ parsing layer for the invariant analyzers.

Two front ends feed the same downstream checkers:

  libclang      When python `clang.cindex` is importable and a libclang
                shared object can be located, function extents come from real
                AST cursors (see sa_clang.py). Used whenever it imports;
                --no-libclang turns it off. Never required.

  token/AST-lite  The canonical, dependency-free path (what CI and ctest
                gate on): comments and string literals are blanked with
                positions preserved, then a brace-matching scanner recovers
                namespace/class context and function bodies. It is an
                approximation — it may merge or miss exotic definitions
                (macro-generated functions, functions returning function
                pointers spelled C-style) — but it is deterministic, and the
                seeded self-tests in each checker pin the constructs the
                project actually uses.

Both front ends produce `Function` records; checkers only consume those plus
the raw line arrays, so they cannot tell which parser ran.
"""

import os
import re
from dataclasses import dataclass, field

SOURCE_EXTS = (".h", ".cc", ".cpp")

# tools/static_analysis/sa_common.py -> the repository root is two up.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

# Unified suppression syntax, checked by every analyzer:
#   // analysis:allow(<rule>): <non-empty rationale>
# The rationale is mandatory — a bare waiver is itself a finding.
ALLOW_RE = re.compile(r"analysis:allow\(([\w-]+)\)\s*:\s*(.*)")
ALLOW_WINDOW = 4  # lines above a flagged line that a waiver may sit on


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    msg: str

    def render(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


@dataclass
class Function:
    name: str            # unqualified name, e.g. "Merge"
    qual: str            # qualified, e.g. "GraphDelta::Merge"
    cls: str             # enclosing/explicit class ("" for free functions)
    path: str            # repo-relative path
    start_line: int      # 1-based line of the body's '{'
    end_line: int        # 1-based line of the body's '}'
    body: str            # stripped body text, braces included
    decl: str            # stripped declarator text preceding the body


@dataclass
class SourceFile:
    path: str                       # repo-relative
    lines: list                     # original lines (with comments)
    stripped: str                   # comment/string-blanked text
    functions: list = field(default_factory=list)

    def stripped_lines(self):
        return self.stripped.split("\n")


def strip_comments(text):
    """Blanks comments, string and char literals; preserves every newline and
    column so line/offset arithmetic on the result matches the original."""
    out = []
    i, n = 0, len(text)
    state = None  # None | "line" | "block" | "str" | "chr" | "raw"
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
                if m:
                    state, raw_delim = "raw", ")" + m.group(1) + '"'
                    out.append('"' + " " * (len(m.group(0)) - 1))
                    i += len(m.group(0))
                    continue
                state = "str"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line":
            if c == "\n":
                state = None
                out.append("\n")
            elif c == "\\" and nxt == "\n":
                out.append(" \n")
                i += 1
            else:
                out.append(" ")
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        elif state == "str":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = None
                out.append('"')
            else:
                out.append("\n" if c == "\n" else " ")
            i += 1
        elif state == "chr":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = None
                out.append("'")
            else:
                out.append(" ")
            i += 1
        else:  # raw string
            if text.startswith(raw_delim, i):
                state = None
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
    return "".join(out)


_KEYWORDS_NOT_FUNCS = {
    "if", "for", "while", "switch", "return", "catch", "sizeof", "alignof",
    "static_assert", "decltype", "new", "delete", "defined", "alignas",
    "noexcept", "requires",
}

# Trailing qualifiers that may sit between the parameter list's ')' and the
# body '{' (thread-safety macros included — they look like calls).
_QUAL_RE = re.compile(
    r"(?:\s|const|noexcept|override|final|mutable|try|->\s*[\w:<>,&*\s]+?"
    r"|REQUIRES(?:_SHARED)?\s*\([^()]*\)|EXCLUDES\s*\([^()]*\)"
    r"|ACQUIRE(?:_SHARED)?\s*\([^()]*\)|RELEASE(?:_SHARED|_GENERIC)?\s*\([^()]*\)"
    r"|TRY_ACQUIRE(?:_SHARED)?\s*\([^()]*\)|ASSERT_CAPABILITY\s*\([^()]*\)"
    r"|RETURN_CAPABILITY\s*\([^()]*\)|NO_THREAD_SAFETY_ANALYSIS"
    r"|GUARDED_BY\s*\([^()]*\)|ACQUIRED_(?:BEFORE|AFTER)\s*\([^()]*\))*$")


def _match_brace(text, open_idx):
    """Index of the '}' matching text[open_idx] == '{' (or len(text))."""
    depth = 0
    for j in range(open_idx, len(text)):
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            depth -= 1
            if depth == 0:
                return j
    return len(text)


def _line_of(text, idx):
    return text.count("\n", 0, idx) + 1


def scan_functions(path, stripped):
    """Token-lite function-definition scanner. Walks top-level and nested
    braces, tracking namespace/class/struct context, and yields a Function for
    every body whose declarator looks like `name(params) quals... {`
    (constructor initializer lists are handled)."""
    functions = []
    stack = []  # per open brace: ("namespace", name) | ("class", name) | ("other", "")
    i = 0
    n = len(stripped)
    while i < n:
        c = stripped[i]
        if c == "}":
            if stack:
                stack.pop()
            i += 1
            continue
        if c != "{":
            i += 1
            continue
        # Classify this brace by what precedes it.
        seg_start = max(stripped.rfind(";", 0, i), stripped.rfind("}", 0, i),
                        stripped.rfind("{", 0, i)) + 1
        decl = stripped[seg_start:i]
        m = re.search(r"\bnamespace\s+([\w:]+)?\s*$", decl)
        if m:
            stack.append(("namespace", m.group(1) or "<anon>"))
            i += 1
            continue
        if re.search(r"\benum\b[^;{}]*$", decl):
            i = _match_brace(stripped, i) + 1  # enum bodies hold no functions
            continue
        m = re.search(r"\b(class|struct|union)\s+([A-Za-z_]\w*)"
                      r"(?:\s+final)?(?:\s*:[^;{]*)?\s*$", decl)
        if m:
            stack.append(("class", m.group(2)))
            i += 1
            continue
        ctx = [(k, name) for (k, name) in stack if k in ("namespace", "class")]
        func = _try_parse_function(path, stripped, decl, seg_start, i, ctx)
        if func is not None:
            functions.append(func)
            i = _match_brace(stripped, i) + 1  # lambdas inside stay in body
            continue
        # Some other brace (initializer list, array init, extern "C", …).
        stack.append(("other", ""))
        i += 1
    return functions


def _try_parse_function(path, stripped, decl, seg_start, brace_idx, ctx):
    d = decl.rstrip()
    # Constructor initializer list: strip `: member(expr), member{expr}...`
    # back to the parameter list's ')'.
    init = re.search(r"\)\s*(?:noexcept(?:\([^()]*\))?\s*)?:"
                     r"(?:\s*[\w:]+\s*(?:\([^()]*\)|\{[^{}]*\})\s*,?)+\s*$", d)
    if init:
        d = d[:init.start() + 1]
    if not d.endswith(")"):
        q = _QUAL_RE.search(d)
        if q is None or q.start() == len(d):
            return None
        d = d[:q.start()].rstrip()
        if not d.endswith(")"):
            return None
    # Find the '(' matching the trailing ')'.
    depth = 0
    open_idx = -1
    for j in range(len(d) - 1, -1, -1):
        if d[j] == ")":
            depth += 1
        elif d[j] == "(":
            depth -= 1
            if depth == 0:
                open_idx = j
                break
    if open_idx <= 0:
        return None
    before = d[:open_idx].rstrip()
    m = re.search(r"((?:~)?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*"
                  r"|operator\s*(?:[^\s\w]{1,3}|\(\)|\[\]|\s+[\w:&*<>]+))$",
                  before)
    if m is None:
        return None
    qual = re.sub(r"\s+", "", m.group(1))
    name = qual.split("::")[-1]
    if name in _KEYWORDS_NOT_FUNCS:
        return None
    # `Type x(args)` variable definitions end with ';', never '{' — safe.
    # But reject control-macros in all caps with no return type and args that
    # look like a macro invocation at namespace scope (e.g. TEST(a, b) is a
    # function-like macro that DOES open a body — treat as a function, its
    # name just isn't meaningful; keep it, harmless).
    cls = qual.split("::")[-2] if "::" in qual else ""
    if not cls:
        for kind, cname in reversed(ctx):
            if kind == "class":
                cls = cname
                break
    body_end = _match_brace(stripped, brace_idx)
    return Function(
        name=name.replace("~", ""),
        qual=(cls + "::" + name) if (cls and "::" not in qual) else qual,
        cls=cls,
        path=path,
        start_line=_line_of(stripped, brace_idx),
        end_line=_line_of(stripped, body_end),
        body=stripped[brace_idx:body_end + 1],
        decl=decl,
    )


def load_source(root, rel, use_libclang=False):
    abspath = os.path.join(root, rel)
    with open(abspath, encoding="utf-8", errors="replace") as f:
        text = f.read()
    stripped = strip_comments(text)
    sf = SourceFile(path=rel, lines=text.split("\n"), stripped=stripped)
    functions = None
    if use_libclang:
        try:
            from sa_clang import scan_functions_clang
            functions = scan_functions_clang(abspath, rel, stripped)
        except Exception:
            functions = None  # any cursor trouble: fall back per-file
    if functions is None:
        functions = scan_functions(rel, stripped)
    sf.functions = functions
    return sf


def list_files(root, dirs=("src",), exts=SOURCE_EXTS):
    """Sorted repo-relative paths of the files under `dirs` ending in `exts`."""
    rels = []
    for d in dirs:
        for dirpath, _, names in os.walk(os.path.join(root, d)):
            rels += [os.path.relpath(os.path.join(dirpath, name), root)
                     for name in names if name.endswith(exts)]
    return sorted(rels)


def collect_sources(root, files=None, use_libclang=False):
    """Loaded SourceFile records for src/ (or an explicit file list)."""
    rels = sorted(files) if files else list_files(root)
    return [load_source(root, rel, use_libclang=use_libclang)
            for rel in rels]


def replay_fixture(rel, expected, run, root=REPO_ROOT):
    """Self-test failures unless `run(root, sources)` over the fixture `rel`
    (relative to `root`) reports exactly the (line, rule) pairs in
    `expected`. A missing or emptied fixture fails, and so does one that
    crashes `run`."""
    shown = os.path.relpath(os.path.join(root, rel), REPO_ROOT)
    try:
        sources = collect_sources(root, files=[rel])
        found = sorted((f.line, f.rule) for f in run(root, sources))
    except Exception as e:  # any crash must fail the self-test, not abort it
        return [f"{shown}: {type(e).__name__}: {e}"]
    if found != sorted(expected):
        return [f"{shown}: expected {sorted(expected)}, got {found}"]
    return []


def allow_waiver(lines, line_no, rule, window=ALLOW_WINDOW):
    """True if an `analysis:allow(rule): rationale` waiver covers 1-based
    line_no: on it or within `window` lines above. An allow with an empty
    rationale never matches (the driver reports it via `bad_waivers`)."""
    lo = max(0, line_no - 1 - window)
    for raw in lines[lo:line_no]:
        m = ALLOW_RE.search(raw)
        if m and m.group(1) == rule and m.group(2).strip():
            return True
    return False


# Every rule any analyzer can emit — waivers must name one of these.
KNOWN_RULES = (
    "determinism-unordered", "determinism-fp", "determinism-rng",
    "layering", "layering-cycle", "layering-dag",
    "lock-order", "untrusted-input", "raw-thread", "ref-accessor",
)


def bad_waivers(sources):
    """Findings for malformed waivers: empty rationale or unknown rule."""
    known = set(KNOWN_RULES)
    out = []
    for sf in sources:
        for i, raw in enumerate(sf.lines):
            m = ALLOW_RE.search(raw)
            if not m:
                continue
            rule, rationale = m.group(1), m.group(2).strip()
            if rule not in known:
                out.append(Finding(
                    sf.path, i + 1, "waiver",
                    f"analysis:allow names unknown rule '{rule}'"))
            elif not rationale:
                out.append(Finding(
                    sf.path, i + 1, "waiver",
                    f"analysis:allow({rule}) has no rationale — every "
                    "suppression must say why"))
    return out


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def project_includes(lines):
    """(line_no, include_path) for every quoted #include."""
    out = []
    for i, raw in enumerate(lines):
        m = INCLUDE_RE.match(raw)
        if m:
            out.append((i + 1, m.group(1)))
    return out
