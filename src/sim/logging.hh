/**
 * @file
 * Error/status reporting in the gem5 style: panic() for internal
 * invariant violations, fatal() for user/configuration errors,
 * warn() for warnings.
 */

#ifndef JUMANJI_SIM_LOGGING_HH
#define JUMANJI_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace jumanji {

/** Thrown by fatal(): the configuration is invalid, not a bug. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    using std::logic_error::logic_error;
};

/** Reports an unrecoverable user/configuration error. */
[[noreturn]] void fatal(const std::string &msg);

/** Reports an internal simulator bug. */
[[noreturn]] void panic(const std::string &msg);

/** Prints a warning to stderr. */
void warn(const std::string &msg);

/**
 * Prints a warning to stderr even under setQuiet: for diagnostics
 * about the user's own input (a malformed env knob), which the
 * quiet mode that silences simulator chatter must not hide.
 */
void warnAlways(const std::string &msg);

/** Globally silences warn() (used by tests). */
void setQuiet(bool quiet);

} // namespace jumanji

#endif // JUMANJI_SIM_LOGGING_HH
