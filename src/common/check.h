// Lightweight invariant checking used across the Cowbird codebase.
//
// CHECK() is always on: simulator correctness depends on invariants that are
// cheap relative to event dispatch, and a silently-corrupt simulation is worse
// than an aborted one. DCHECK() compiles out in release builds and is meant
// for hot paths (per-packet, per-ring-slot).
#pragma once

#include <cstdio>
#include <cstdlib>

namespace cowbird {

// Names the run this thread is executing (a chaos run sets its engine and
// seed), so a failed CHECK says which of a sweep's runs aborted. Null when
// no run is named.
inline thread_local const char* check_context = nullptr;

// Sets check_context for a scope; the caller keeps `context` alive.
class ScopedCheckContext {
 public:
  explicit ScopedCheckContext(const char* context)
      : previous_(check_context) {
    check_context = context;
  }
  ~ScopedCheckContext() { check_context = previous_; }
  ScopedCheckContext(const ScopedCheckContext&) = delete;
  ScopedCheckContext& operator=(const ScopedCheckContext&) = delete;

 private:
  const char* previous_;
};

[[noreturn]] inline void CheckFailed(const char* expr, const char* file,
                                     int line) {
  if (check_context != nullptr) {
    std::fprintf(stderr, "CHECK failed in run [%s]: %s at %s:%d\n",
                 check_context, expr, file, line);
  } else {
    std::fprintf(stderr, "CHECK failed: %s at %s:%d\n", expr, file, line);
  }
  std::abort();
}

}  // namespace cowbird

#define COWBIRD_CHECK(expr)                             \
  do {                                                  \
    if (!(expr)) [[unlikely]] {                         \
      ::cowbird::CheckFailed(#expr, __FILE__, __LINE__); \
    }                                                   \
  } while (0)

// Sanitizer builds keep DCHECKs on: ASan cannot see inside the host
// mappings behind SparseMemory, so those bounds are checked by hand.
#if defined(__SANITIZE_ADDRESS__)
#define COWBIRD_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define COWBIRD_SANITIZED 1
#endif
#endif

#if !defined(NDEBUG) || defined(COWBIRD_SANITIZED)
#define COWBIRD_DCHECK(expr) COWBIRD_CHECK(expr)
#else
#define COWBIRD_DCHECK(expr) \
  do {                       \
  } while (0)
#endif
