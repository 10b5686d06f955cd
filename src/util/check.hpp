// Lightweight runtime checking macros.
//
// SAT_CHECK is always on (used to validate user-facing preconditions and
// simulator invariants whose violation would silently corrupt results).
// SAT_DCHECK compiles out in NDEBUG builds and guards hot inner loops.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace satutil {

/// Thrown when a SAT_CHECK fails. what() carries the failing expression,
/// its source location and the message; message() is the message alone,
/// for a caller that reports the refusal to a user.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what, std::string message = {})
      : std::logic_error(what), message_(std::move(message)) {}

  /// SAT_CHECK_MSG's message; what() for a bare SAT_CHECK, which has none.
  [[nodiscard]] std::string message() const {
    return message_.empty() ? what() : message_;
  }

 private:
  std::string message_;
};

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str(), msg);
}

}  // namespace satutil

#define SAT_CHECK(expr)                                                \
  do {                                                                 \
    if (!(expr)) ::satutil::check_failed(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define SAT_CHECK_MSG(expr, msg)                                     \
  do {                                                               \
    if (!(expr)) {                                                   \
      std::ostringstream sat_check_os_;                              \
      sat_check_os_ << msg;                                          \
      ::satutil::check_failed(#expr, __FILE__, __LINE__,             \
                              sat_check_os_.str());                  \
    }                                                                \
  } while (0)

#ifdef NDEBUG
#define SAT_DCHECK(expr) ((void)0)
#else
#define SAT_DCHECK(expr) SAT_CHECK(expr)
#endif
