"""Invariant analyzer suite driver.

Usage:
    python3 tools/static_analysis [--checker NAME|all] [--self-test]
                                  [--root DIR] [--files F...] [--scope-all]
                                  [--no-libclang]

Checkers: concurrency, determinism, layering, lock-order, untrusted-input.
Exit 0 on clean, 1 on findings (or self-test failure), 2 on usage error.

All checkers run on the pure-python token scanner by default; when the
python clang bindings are importable the libclang front end takes over
transparently (see sa_clang.py). `--self-test` runs each checker's seeded
positive/negative cases, and replays its tests/analysis_fail/ fixture,
instead of scanning the tree.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import sa_common
import check_concurrency
import check_determinism
import check_layering
import check_lock_order
import check_untrusted

CHECKERS = {
    "concurrency": check_concurrency,
    "determinism": check_determinism,
    "layering": check_layering,
    "lock-order": check_lock_order,
    "untrusted-input": check_untrusted,
}


def main(argv=None):
    ap = argparse.ArgumentParser(prog="static_analysis")
    ap.add_argument("--checker", default="all",
                    choices=sorted(CHECKERS) + ["all"])
    ap.add_argument("--self-test", action="store_true",
                    help="run the seeded self-test cases instead of the tree")
    ap.add_argument("--root", default=sa_common.REPO_ROOT,
                    help="repo root (default: two dirs up from this file)")
    ap.add_argument("--files", nargs="*", default=None,
                    help="restrict the scan to these repo-relative files")
    ap.add_argument("--scope-all", action="store_true",
                    help="widen determinism/untrusted checks beyond their "
                    "default scopes (exploratory, not the CI contract)")
    ap.add_argument("--no-libclang", action="store_true",
                    help="force the token scanner even if clang.cindex "
                    "is importable")
    args = ap.parse_args(argv)

    selected = sorted(CHECKERS) if args.checker == "all" else [args.checker]

    if args.self_test:
        failures = []
        for name in selected:
            fails = CHECKERS[name].self_test()
            for f in fails:
                failures.append(f"[{name}] {f}")
            print(f"self-test {name}: "
                  f"{'FAIL' if fails else 'ok'}")
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1 if failures else 0

    root = os.path.abspath(args.root)
    missing = [f for f in args.files or ()
               if not os.path.isfile(os.path.join(root, f))]
    if missing:  # a usage error, not a finding
        ap.error(f"no such file under {root}: {', '.join(missing)}")
    sources = sa_common.collect_sources(
        root, files=args.files, use_libclang=not args.no_libclang)
    # Waiver hygiene covers every file a selected checker reads.
    waiver_files = {sf.path: sf for sf in sources}

    findings = []
    for name in selected:
        mod = CHECKERS[name]
        if name == "concurrency":
            lint_files = mod.collect(root, args.files)
            findings += mod.run(lint_files)
            waiver_files.update((lf.path, lf) for lf in lint_files)
        elif name == "determinism":
            findings += mod.run(root, sources, scope_all=args.scope_all,
                                whole_tree=args.files is None)
        elif name == "untrusted-input":
            findings += mod.run(root, sources, scope_all=args.scope_all)
        else:
            findings += mod.run(root, sources)

    # Waiver hygiene: unknown rules and empty rationales are findings too.
    findings += sa_common.bad_waivers(waiver_files.values())

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.msg}")
    if findings:
        print(f"\nstatic_analysis: {len(findings)} finding(s) "
              f"across {len(waiver_files)} file(s)", file=sys.stderr)
        return 1
    print(f"static_analysis: clean ({len(waiver_files)} file(s), "
          f"checkers: {', '.join(selected)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
