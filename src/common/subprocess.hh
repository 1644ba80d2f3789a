/**
 * @file
 * Process spawn/reap and pipe-framing helpers for the forked sweep
 * runner (src/sweepd). A service thread forks a worker, feeds it
 * framed requests over stdin, and reads each framed response from its
 * stdout under a hard wall-clock deadline; when the deadline passes
 * the child is SIGKILLed and reaped, which is the enforcement a soft
 * in-process timeout cannot provide. A healthy worker is retired by
 * closing its stdin (stopChildProcess). Frames are
 * magic + length + payload + FNV-1a checksum (host byte order — the
 * two ends are always the same binary on the same machine), so a
 * truncated or interleaved stream is detected as Corrupt rather than
 * silently mis-parsed.
 *
 * Everything here is POSIX (fork/execve/poll/waitpid); the repo's CI
 * and deployment targets are Linux.
 */

#ifndef QCC_COMMON_SUBPROCESS_HH
#define QCC_COMMON_SUBPROCESS_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qcc {

/** One spawned child and the parent's ends of its stdio pipes. */
struct ChildProcess
{
    long pid = -1;
    int stdinFd = -1;  ///< parent writes the child's stdin here
    int stdoutFd = -1; ///< parent reads the child's stdout here

    bool valid() const { return pid > 0; }
};

/**
 * fork + execve `argv` (argv[0] is the executable path) with stdin
 * and stdout piped back to the caller and stderr inherited. The
 * child's environment is the parent's plus `env_overrides`
 * (replacing any existing value for the same name). Returns an
 * invalid ChildProcess on failure; an exec failure surfaces as the
 * child exiting 127. The caller owns both returned fds.
 */
ChildProcess
spawnChildProcess(const std::vector<std::string> &argv,
                  const std::vector<std::pair<std::string, std::string>>
                      &env_overrides = {});

/** Close an fd if it is open (idempotent convenience). */
void closeFd(int &fd);

/** Outcome of one framed read. */
enum class FrameStatus
{
    Ok,      ///< a whole valid frame landed in `payload`
    Eof,     ///< stream closed before a frame (child exited/crashed)
    Timeout, ///< deadline passed mid-frame or before one started
    Corrupt, ///< bad magic, absurd length, or checksum mismatch
    IoError, ///< read(2)/poll(2) failure
};

const char *frameStatusName(FrameStatus status);

/**
 * Write one frame (magic, u64 length, payload, u64 FNV-1a of the
 * payload); false on any write failure (e.g. EPIPE after the peer
 * died — callers must have SIGPIPE ignored, see ignoreSigpipe()).
 */
bool writeFrame(int fd, std::string_view payload);

/**
 * Read one frame into `payload`, waiting at most `timeout_ms`
 * (<= 0 waits indefinitely). The deadline covers the whole frame,
 * not each byte, so a trickling writer cannot extend it.
 */
FrameStatus readFrame(int fd, std::string &payload,
                      double timeout_ms);

/** Result of reaping a child. */
struct ExitStatus
{
    bool exited = false;   ///< normal termination; `code` is valid
    int code = 0;
    bool signaled = false; ///< killed by a signal; `sig` is valid
    int sig = 0;

    bool ok() const { return exited && code == 0; }

    /** "exit 3", "signal 6 (Aborted)", ... for failure records. */
    std::string describe() const;
};

/** Blocking waitpid; safe to call after killProcess. */
ExitStatus reapProcess(long pid);

/** SIGKILL (idempotent; reapProcess must still be called). */
void killProcess(long pid);

/**
 * Retire a child: close its stdin, give it `grace_ms` to exit (0:
 * none), SIGKILL it if it has not, reap it and close its stdout.
 * Leaves `child` invalid and returns how it ended.
 */
ExitStatus stopChildProcess(ChildProcess &child, double grace_ms);

/**
 * Ignore SIGPIPE process-wide (once). Any code writing to child
 * pipes must call this first, or a worker that crashes mid-read
 * kills the whole service — the exact failure the forked sweep
 * runner exists to contain.
 */
void ignoreSigpipe();

} // namespace qcc

#endif // QCC_COMMON_SUBPROCESS_HH
