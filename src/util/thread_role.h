#ifndef DEEPDIVE_UTIL_THREAD_ROLE_H_
#define DEEPDIVE_UTIL_THREAD_ROLE_H_

#include "util/thread_annotations.h"

namespace deepdive {

/// A *thread role* modeled as a fake lock (the Clang Thread Safety Analysis
/// thread-role idiom): an empty, annotation-only capability with no runtime
/// state whatsoever. Holding the capability means "this code runs on the
/// named thread"; a function annotated REQUIRES(role) is a compile error to
/// call from code that has not acquired or asserted the role — which turns
/// the project's "serving-thread-only" comments into contracts the compiler
/// enforces on every build, for every interleaving.
///
/// Because the lock is fake, *correctness of the binding is declared, not
/// detected*: the one place a thread claims the role (a ScopedThreadRole at
/// the top of a serving loop, or an AssertHeld() in a function that is the
/// serving thread by construction) is the trusted root; everything
/// transitively called from it is then checked.
class CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  /// Annotation-only acquire/release; prefer ScopedThreadRole.
  void Acquire() const ACQUIRE() {}
  void Release() const RELEASE() {}

  /// Declares that the current thread holds this role for the remainder of
  /// the calling function. Used at the trusted roots: the single thread that
  /// drives LoadRows/Initialize/ApplyUpdate (tests' main thread, the CLI
  /// driver, a bench's dedicated writer thread). No runtime effect.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}
};

/// RAII role acquisition for a lexical scope (e.g. the body of a serving
/// loop). Zero-cost; exists only for the analysis.
class SCOPED_CAPABILITY ScopedThreadRole {
 public:
  explicit ScopedThreadRole(const ThreadRole& role) ACQUIRE(role) : role_(role) {
    role_.Acquire();
  }
  ~ScopedThreadRole() RELEASE() { role_.Release(); }

  ScopedThreadRole(const ScopedThreadRole&) = delete;
  ScopedThreadRole& operator=(const ScopedThreadRole&) = delete;

 private:
  const ThreadRole& role_;
};

/// The process-wide *serving thread* role: the single writer of the
/// one-writer/many-reader discipline that DeepDive, IncrementalEngine, and
/// ResultPublisher share. All mutating entry points and accessors on those
/// classes are REQUIRES(serving_thread); concurrent readers use
/// DeepDive::Query() (no capability needed) instead.
///
/// One global role (rather than one per engine) follows the Clang
/// documentation's thread-role idiom: the analysis is function-local, so a
/// per-object role would not distinguish objects any better, and a single
/// role keeps call sites to one declaration per function.
inline ThreadRole serving_thread;

}  // namespace deepdive

#endif  // DEEPDIVE_UTIL_THREAD_ROLE_H_
