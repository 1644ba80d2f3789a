/**
 * @file
 * Status and error reporting helpers, modeled on the gem5 logging
 * conventions: fatal() for user errors, panic() for internal invariant
 * violations, warn()/inform() for non-fatal status messages.
 */

#ifndef QCC_COMMON_LOGGING_HH
#define QCC_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace qcc {

/**
 * Terminate because of a user-level error (bad configuration, invalid
 * argument). Prints the message and exits with status 1.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Terminate because of an internal library bug (an invariant that should
 * never be violated regardless of user input). Prints and aborts.
 */
[[noreturn]] void panic(const std::string &msg);

/** Print a warning about suspicious but non-fatal conditions. */
void warn(const std::string &msg);

/** Print a non-fatal error (CLI failure paths that keep going). */
void error(const std::string &msg);

/** Print an informational status message. */
void inform(const std::string &msg);

/** Print a debug-level message (QCC_LOG=debug only). */
void debug(const std::string &msg);

/**
 * Output levels, in increasing verbosity. warn()/error() always
 * print; inform() needs Info, debug() needs Debug. The initial
 * level comes from QCC_LOG (quiet|info|debug, default info).
 */
enum class LogLevel { Quiet = 0, Info = 1, Debug = 2 };

LogLevel logLevel();

/**
 * Set a program's default level (benches and tests pick Quiet, the
 * services Info). An explicit QCC_LOG wins: the call is then a
 * no-op, so a user can force bench/CI output verbosity from the
 * environment in one place.
 */
void setLogLevel(LogLevel level);

/**
 * Resolve the output path for one machine-readable result file under
 * the QCC_JSON convention shared by every producer (TRACE_* run
 * traces, BENCH_* bench tables, RESULT_* experiment records):
 * unset/"0"/empty disables (returns ""), "1" targets the current
 * directory, anything else is the output directory.
 */
std::string qccJsonPath(const std::string &file_name);

/**
 * Write one output document to `path` through atomicWriteFile
 * (common/binio): the bytes land in a temp file that is renamed into
 * place, so a reader, or a kill at any moment, sees the previous
 * complete file or the new one, never a torn one. Returns `path`, or
 * "" after a warning naming `writer` when the write fails.
 */
std::string writeOutputFile(const std::string &path,
                            const std::string &doc,
                            const std::string &writer);

} // namespace qcc

#endif // QCC_COMMON_LOGGING_HH
