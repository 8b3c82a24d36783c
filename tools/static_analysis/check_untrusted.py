"""Untrusted-input checker.

Every value decoded from the wire (serve/comm/wire.cc, messages.cc,
frame.cc) and every section read from a graph image
(factor/compiled_graph.cc) is attacker-controlled until it flows through a
bounds-check. This checker does per-function lexical taint tracking:

  sources     r.GetU32()/GetU64()/GetString()/GetBytes() results, frame
              length fields, and header_/hdr-> field reads in the image
              profile
  sanitizers  Need(x), ValidateShallow(...), CheckOffsets(...), an explicit
              comparison of the variable against a bound (`x > kMax`,
              `x <= limit`, `x >= n`, `x < n`) before the sink, or — for
              decode loops — an `ok()` conjunct in the loop condition
              (the codec is sticky-error: every Get inside the loop
              re-checks, so the loop cannot overrun on a lying count)
  sinks       resize(x), reserve(x), substr(_, x) and friends, `new T[x]`,
              container indexing `v[x]`, and `for (...; i < x; ...)` loop
              bounds

A tainted variable reaching a sink with no prior sanitizer in the same
function body is a finding. Waive with
`// analysis:allow(untrusted-input): <rationale>` when the bound is
enforced structurally (and say where).

This is an approximation — same-function, name-level — tuned so the blessed
patterns in the tree (Need-before-substr, `i < n && r.ok()` decode loops,
ValidateShallow-before-reinterpret_cast) pass without waivers and their
absence fails.
"""

import re

from sa_common import Finding, allow_waiver, replay_fixture

RULE = "untrusted-input"

# Files under contract, with their taint profile.
SCOPE = {
    "src/serve/comm/wire.cc": "codec",
    "src/serve/comm/messages.cc": "codec",
    "src/serve/comm/frame.cc": "codec",
    "src/factor/compiled_graph.cc": "image",
}

_DECODE_CALL = re.compile(
    r"\b(?:\w+\s*[.\->]+\s*)?(GetU8|GetU16|GetU32|GetU64|GetI64|GetF64|"
    r"GetVarint|GetLength|GetCount|GetString|GetBytes)\s*\(")
_ASSIGN_FROM_DECODE = re.compile(
    r"\b(?:(?:const\s+)?(?:auto|uint8_t|uint16_t|uint32_t|uint64_t|int64_t|"
    r"size_t|std::string)\s+)?([A-Za-z_]\w*)\s*=\s*"
    r"(?:\w+\s*[.\->]+\s*)?(?:GetU8|GetU16|GetU32|GetU64|GetI64|GetVarint|"
    r"GetLength|GetCount)\s*\(")
_IMAGE_SOURCE = re.compile(
    r"\b(?:(?:const\s+)?(?:auto|uint32_t|uint64_t|size_t)\s+)?"
    r"([A-Za-z_]\w*)\s*=\s*(?:header_|hdr|h)\s*(?:->|\.)\s*([A-Za-z_]\w*)")

_SANITIZER_CALLS = ("Need", "ValidateShallow", "CheckOffsets")

_SINKS = [
    ("resize", re.compile(r"\bresize\s*\(\s*([A-Za-z_]\w*)")),
    ("reserve", re.compile(r"\breserve\s*\(\s*([A-Za-z_]\w*)")),
    ("substr", re.compile(r"\bsubstr\s*\([^;)]*?\b([A-Za-z_]\w*)\s*\)")),
    ("new[]", re.compile(r"\bnew\s+[A-Za-z_][\w:<>]*\s*\[\s*([A-Za-z_]\w*)")),
    ("alloc", re.compile(r"\b(?:malloc|calloc|alloca)\s*\(\s*([A-Za-z_]\w*)")),
]
_INDEX_SINK = re.compile(r"\w\s*\[\s*([A-Za-z_]\w*)\s*\]")
_LOOP_BOUND = re.compile(
    r"\bfor\s*\(([^;]*);([^;]*?)<=?\s*([A-Za-z_]\w*)\s*(&&[^;]*)?;")


def _sanitized_before(body, var, offset):
    """Has `var` passed through a bounds check earlier in this body?"""
    prefix = body[:offset]
    for call in _SANITIZER_CALLS:
        if re.search(r"\b" + call + r"\s*\([^;]*\b" + re.escape(var) + r"\b",
                     prefix):
            return True
        # ValidateShallow/CheckOffsets sanitize the whole image, argument
        # list or not: once the header is validated every count it carries
        # is in-bounds by construction.
        if call != "Need" and re.search(r"\b" + call + r"\s*\(", prefix):
            return True
    # Explicit comparison against anything: `var > kMax`, `var >= n`,
    # `var <= cap`, `var < n`, or the symmetric forms.
    v = re.escape(var)
    if re.search(r"\b" + v + r"\s*(?:[<>]=?|==|!=)", prefix):
        return True
    # Lookbehind keeps `hdr->var` and `a >> var` from reading as comparisons.
    if re.search(r"(?<![-<>=])(?:[<>]=?|==|!=)\s*" + v + r"\b", prefix):
        return True
    # min()-clamping counts as a bound.
    if re.search(r"\bmin\s*\([^;]*\b" + v + r"\b", prefix):
        return True
    return False


def _line_at(fn, offset):
    return fn.start_line + fn.body.count("\n", 0, offset)


def _tainted_vars(fn, profile):
    """var -> first-definition offset for attacker-controlled values."""
    tainted = {}
    for m in _ASSIGN_FROM_DECODE.finditer(fn.body):
        tainted.setdefault(m.group(1), m.start())
    if profile == "image":
        for m in _IMAGE_SOURCE.finditer(fn.body):
            # Only count/offset-ish fields are dangerous as sizes.
            field = m.group(2)
            if re.search(r"(count|size|len|off|num|bytes)", field,
                         re.IGNORECASE):
                tainted.setdefault(m.group(1), m.start())
    return tainted


def check_function(fn, lines, profile):
    findings = []
    tainted = _tainted_vars(fn, profile)
    if not tainted:
        return findings

    def emit(offset, var, sink):
        line = _line_at(fn, offset)
        if allow_waiver(lines, line, RULE):
            return
        findings.append(Finding(
            fn.path, line, RULE,
            f"{fn.qual}: untrusted '{var}' reaches {sink} without a prior "
            f"bounds check — guard with Need()/an explicit limit (or "
            f"ValidateShallow for image headers) before using it as a "
            f"size/index"))

    for sink_name, sink_re in _SINKS:
        for m in sink_re.finditer(fn.body):
            var = m.group(1)
            if var not in tainted or m.start() < tainted[var]:
                continue
            if _sanitized_before(fn.body, var, m.start()):
                continue
            emit(m.start(), var, f"{sink_name}({var})")

    for m in _INDEX_SINK.finditer(fn.body):
        var = m.group(1)
        if var not in tainted or m.start() < tainted[var]:
            continue
        if _sanitized_before(fn.body, var, m.start()):
            continue
        emit(m.start(), var, f"index [{var}]")

    for m in _LOOP_BOUND.finditer(fn.body):
        bound = m.group(3)
        if bound not in tainted or m.start() < tainted[bound]:
            continue
        cond_tail = m.group(4) or ""
        # A sticky-error conjunct makes the loop self-limiting: each Get
        # inside re-checks remaining bytes and trips the error state.
        if re.search(r"\bok\s*\(\s*\)", cond_tail) or \
           re.search(r"\bok\s*\(\s*\)", m.group(2)):
            continue
        if _sanitized_before(fn.body, bound, m.start()):
            continue
        emit(m.start(), bound, f"loop bound '{bound}'")

    return findings


def run(root, sources, scope_all=False):
    findings = []
    for sf in sources:
        profile = SCOPE.get(sf.path)
        if profile is None:
            if not scope_all:
                continue
            profile = "codec"
        for fn in sf.functions:
            findings += check_function(fn, sf.lines, profile)
    return findings


# ---------------------------------------------------------------------------

SELF_TEST_CASES = [
    # (name, profile, content, expect_finding)
    ("unchecked_resize.cc", "codec", """
namespace deepdive {
struct D {
  void Decode(WireReader& r, std::vector<int>* out) {
    uint32_t n = r.GetU32();
    out->resize(n);
  }
};
}
""", True),
    ("need_before_resize.cc", "codec", """
namespace deepdive {
struct D {
  void Decode(WireReader& r, std::vector<int>* out) {
    uint32_t n = r.GetU32();
    if (!r.Need(n)) return;
    out->resize(n);
  }
};
}
""", False),
    ("limit_before_resize.cc", "codec", """
namespace deepdive {
struct D {
  void Decode(WireReader& r, std::vector<int>* out) {
    uint32_t n = r.GetU32();
    if (n > kMaxItems) return;
    out->resize(n);
  }
};
}
""", False),
    ("unchecked_loop.cc", "codec", """
namespace deepdive {
struct D {
  void Decode(WireReader& r, std::vector<int>* out) {
    uint32_t n = r.GetU32();
    for (uint32_t i = 0; i < n; ++i) out->push_back(r.GetU32());
  }
};
}
""", True),
    ("sticky_ok_loop.cc", "codec", """
namespace deepdive {
struct D {
  void Decode(WireReader& r, std::vector<int>* out) {
    uint32_t n = r.GetU32();
    for (uint32_t i = 0; i < n && r.ok(); ++i) out->push_back(r.GetU32());
  }
};
}
""", False),
    ("unchecked_substr.cc", "codec", """
namespace deepdive {
struct D {
  std::string Decode(WireReader& r, const std::string& buf) {
    uint32_t len = r.GetU32();
    return buf.substr(0, len);
  }
};
}
""", True),
    ("image_unchecked_header.cc", "image", """
namespace deepdive {
struct G {
  void Load(const Header* hdr, std::vector<int>* v) {
    uint64_t var_count = hdr->var_count;
    v->resize(var_count);
  }
};
}
""", True),
    ("image_validated_header.cc", "image", """
namespace deepdive {
struct G {
  void Load(const Header* hdr, std::vector<int>* v) {
    if (!ValidateShallow(hdr, size_)) return;
    uint64_t var_count = hdr->var_count;
    v->resize(var_count);
  }
};
}
""", False),
    ("waived_sink.cc", "codec", """
namespace deepdive {
struct D {
  void Decode(WireReader& r, std::vector<int>* out) {
    uint32_t n = r.GetU32();
    // analysis:allow(untrusted-input): n is re-checked element-wise by the
    // sticky reader; resize is bounded by kMaxFrameBytes upstream.
    out->resize(n);
  }
};
}
""", False),
]


def self_test():
    import sa_common
    # The fixture is outside SCOPE, so it replays as --scope-all reads it.
    failures = replay_fixture(
        "tests/analysis_fail/untrusted_bad.cc",
        [(12, RULE), (13, RULE), (17, RULE)],
        lambda root, sources: run(root, sources, scope_all=True))
    for name, profile, content, expect in SELF_TEST_CASES:
        rel = "src/selftest/" + name
        stripped = sa_common.strip_comments(content)
        sf = sa_common.SourceFile(path=rel, lines=content.split("\n"),
                                  stripped=stripped)
        sf.functions = sa_common.scan_functions(rel, stripped)
        findings = []
        for fn in sf.functions:
            findings += check_function(fn, sf.lines, profile)
        if expect and not findings:
            failures.append(f"{name}: expected a finding, got none")
        if not expect and findings:
            failures.append(f"{name}: expected clean, got "
                            f"{[f.msg for f in findings]}")
    return failures
