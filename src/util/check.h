#ifndef MBTA_UTIL_CHECK_H_
#define MBTA_UTIL_CHECK_H_

#include <cstdio>
#include <cstdlib>

/// Lightweight invariant checking used across the library.
///
/// MBTA_CHECK(cond) aborts with a diagnostic when `cond` is false. It is
/// always on (also in release builds): the library is a research artifact
/// whose correctness matters more than the last few percent of speed.
/// Most checks sit outside inner loops; the min-cost flow's reduced-cost
/// check runs once per scanned arc, a compare and a never-taken branch.
#define MBTA_CHECK(cond)                                                    \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "MBTA_CHECK failed at %s:%d: %s\n", __FILE__,    \
                   __LINE__, #cond);                                        \
      std::abort();                                                         \
    }                                                                       \
  } while (0)

/// Like MBTA_CHECK but with a printf-style explanation.
#define MBTA_CHECK_MSG(cond, ...)                                           \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "MBTA_CHECK failed at %s:%d: %s: ", __FILE__,    \
                   __LINE__, #cond);                                        \
      std::fprintf(stderr, __VA_ARGS__);                                    \
      std::fprintf(stderr, "\n");                                           \
      std::abort();                                                         \
    }                                                                       \
  } while (0)

#endif  // MBTA_UTIL_CHECK_H_
