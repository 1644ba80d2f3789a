#include "common/subprocess.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <mutex>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/binio.hh"

extern char **environ;

namespace qcc {

namespace {

using clock_type = std::chrono::steady_clock;

/** 'QCCF' — distinguishes a frame stream from stray stdout text. */
constexpr uint32_t kFrameMagic = 0x46434351u;

/** A frame larger than this is treated as corruption, not a load. */
constexpr uint64_t kMaxFramePayload = uint64_t{1} << 30;

double
millisUntil(clock_type::time_point deadline)
{
    return std::chrono::duration<double, std::milli>(deadline -
                                                     clock_type::now())
        .count();
}

/**
 * Read exactly n bytes, honoring the deadline (ignored when
 * `have_deadline` is false). Partial data at EOF/timeout reports the
 * stronger diagnostic: Corrupt mid-frame is decided by the caller.
 */
FrameStatus
readFully(int fd, char *buf, size_t n, bool have_deadline,
          clock_type::time_point deadline)
{
    size_t got = 0;
    while (got < n) {
        int waitMs = -1;
        if (have_deadline) {
            const double remaining = millisUntil(deadline);
            if (remaining <= 0.0)
                return FrameStatus::Timeout;
            // Round up so a sub-millisecond budget still polls once.
            waitMs = int(remaining) + 1;
        }
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        const int pr = ::poll(&pfd, 1, waitMs);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return FrameStatus::IoError;
        }
        if (pr == 0)
            return FrameStatus::Timeout;
        const ssize_t r = ::read(fd, buf + got, n - got);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return FrameStatus::IoError;
        }
        if (r == 0)
            return FrameStatus::Eof;
        got += size_t(r);
    }
    return FrameStatus::Ok;
}

ExitStatus
exitStatusOf(int status)
{
    ExitStatus out;
    if (WIFEXITED(status)) {
        out.exited = true;
        out.code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
        out.signaled = true;
        out.sig = WTERMSIG(status);
    }
    return out;
}

bool
writeFully(int fd, const char *buf, size_t n)
{
    size_t put = 0;
    while (put < n) {
        const ssize_t w = ::write(fd, buf + put, n - put);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        put += size_t(w);
    }
    return true;
}

} // namespace

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

ChildProcess
spawnChildProcess(
    const std::vector<std::string> &argv,
    const std::vector<std::pair<std::string, std::string>>
        &env_overrides)
{
    ChildProcess child;
    if (argv.empty())
        return child;

    // Build argv/envp before fork: only async-signal-safe calls are
    // allowed between fork and exec in a multithreaded parent.
    std::vector<char *> argvp;
    argvp.reserve(argv.size() + 1);
    for (const auto &a : argv)
        argvp.push_back(const_cast<char *>(a.c_str()));
    argvp.push_back(nullptr);

    std::vector<std::string> envStorage;
    std::vector<char *> envp;
    for (char **e = environ; e && *e; ++e) {
        const char *eq = std::strchr(*e, '=');
        const std::string name =
            eq ? std::string(*e, size_t(eq - *e)) : std::string(*e);
        bool overridden = false;
        for (const auto &[k, v] : env_overrides)
            overridden |= k == name;
        if (!overridden)
            envp.push_back(*e);
    }
    for (const auto &[k, v] : env_overrides)
        envStorage.push_back(k + "=" + v);
    for (const auto &kv : envStorage)
        envp.push_back(const_cast<char *>(kv.c_str()));
    envp.push_back(nullptr);

    // Close-on-exec, so a worker exec'd for one job never inherits
    // the ends the parent holds for another job's worker.
    int inPipe[2] = {-1, -1}, outPipe[2] = {-1, -1};
    if (::pipe2(inPipe, O_CLOEXEC) != 0)
        return child;
    if (::pipe2(outPipe, O_CLOEXEC) != 0) {
        ::close(inPipe[0]);
        ::close(inPipe[1]);
        return child;
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        for (int fd : {inPipe[0], inPipe[1], outPipe[0], outPipe[1]})
            ::close(fd);
        return child;
    }
    if (pid == 0) {
        // Child: wire the pipes to stdio and exec. The dup2 copies
        // on fds 0 and 1 do not carry FD_CLOEXEC; the other pipe
        // ends close at the exec. A parent started with fd 0 or 1
        // closed gets that fd back from pipe2, where dup2 is a
        // no-op that would keep the flag: clear it instead.
        auto wire = [](int fd, int target) {
            if (fd == target)
                ::fcntl(fd, F_SETFD, 0);
            else
                ::dup2(fd, target);
        };
        wire(inPipe[0], STDIN_FILENO);
        wire(outPipe[1], STDOUT_FILENO);
        ::execve(argvp[0], argvp.data(), envp.data());
        _exit(127);
    }

    ::close(inPipe[0]);
    ::close(outPipe[1]);
    child.pid = pid;
    child.stdinFd = inPipe[1];
    child.stdoutFd = outPipe[0];
    return child;
}

const char *
frameStatusName(FrameStatus status)
{
    switch (status) {
      case FrameStatus::Ok: return "ok";
      case FrameStatus::Eof: return "eof";
      case FrameStatus::Timeout: return "timeout";
      case FrameStatus::Corrupt: return "corrupt";
      case FrameStatus::IoError: return "io_error";
    }
    return "?";
}

bool
writeFrame(int fd, std::string_view payload)
{
    BinaryWriter header;
    header.u32(kFrameMagic);
    header.u64(payload.size());
    if (!writeFully(fd, header.bytes().data(),
                    header.bytes().size()))
        return false;
    if (!writeFully(fd, payload.data(), payload.size()))
        return false;
    const uint64_t sum = fnv1a(payload.data(), payload.size());
    BinaryWriter tail;
    tail.u64(sum);
    return writeFully(fd, tail.bytes().data(), tail.bytes().size());
}

FrameStatus
readFrame(int fd, std::string &payload, double timeout_ms)
{
    const bool haveDeadline = timeout_ms > 0.0;
    const auto deadline =
        clock_type::now() +
        std::chrono::duration_cast<clock_type::duration>(
            std::chrono::duration<double, std::milli>(
                haveDeadline ? timeout_ms : 0.0));

    char header[12];
    FrameStatus st =
        readFully(fd, header, sizeof(header), haveDeadline, deadline);
    if (st != FrameStatus::Ok)
        return st;

    uint32_t magic;
    uint64_t len;
    std::memcpy(&magic, header, sizeof(magic));
    std::memcpy(&len, header + 4, sizeof(len));
    if (magic != kFrameMagic || len > kMaxFramePayload)
        return FrameStatus::Corrupt;

    payload.resize(size_t(len));
    st = readFully(fd, payload.data(), payload.size(), haveDeadline,
                   deadline);
    if (st == FrameStatus::Eof)
        return FrameStatus::Corrupt; // header but no body: truncated
    if (st != FrameStatus::Ok)
        return st;

    char tail[8];
    st = readFully(fd, tail, sizeof(tail), haveDeadline, deadline);
    if (st == FrameStatus::Eof)
        return FrameStatus::Corrupt;
    if (st != FrameStatus::Ok)
        return st;
    uint64_t sum;
    std::memcpy(&sum, tail, sizeof(sum));
    if (sum != fnv1a(payload.data(), payload.size()))
        return FrameStatus::Corrupt;
    return FrameStatus::Ok;
}

std::string
ExitStatus::describe() const
{
    if (exited)
        return "exit " + std::to_string(code);
    if (signaled) {
        const char *name = strsignal(sig);
        return "signal " + std::to_string(sig) + " (" +
               (name ? name : "?") + ")";
    }
    return "unknown termination";
}

ExitStatus
reapProcess(long pid)
{
    if (pid <= 0)
        return {};
    int status = 0;
    pid_t r;
    do {
        r = ::waitpid(pid_t(pid), &status, 0);
    } while (r < 0 && errno == EINTR);
    return r == pid_t(pid) ? exitStatusOf(status) : ExitStatus{};
}

ExitStatus
stopChildProcess(ChildProcess &child, double grace_ms)
{
    closeFd(child.stdinFd);
    ExitStatus out;
    bool reaped = child.pid <= 0;
    const auto deadline =
        clock_type::now() +
        std::chrono::duration_cast<clock_type::duration>(
            std::chrono::duration<double, std::milli>(grace_ms));
    // Poll with a growing sleep: an idle worker exits within a few
    // milliseconds of seeing EOF on its stdin.
    for (useconds_t sleepUs = 50; !reaped;) {
        int status = 0;
        const pid_t r = ::waitpid(pid_t(child.pid), &status, WNOHANG);
        if (r == pid_t(child.pid)) {
            out = exitStatusOf(status);
            reaped = true;
        } else if (r < 0 && errno != EINTR) {
            reaped = true; // no longer our child: nothing to kill
        } else if (clock_type::now() >= deadline) {
            break;
        } else {
            ::usleep(sleepUs);
            sleepUs = std::min<useconds_t>(2 * sleepUs, 5000);
        }
    }
    if (!reaped) {
        killProcess(child.pid);
        out = reapProcess(child.pid);
    }
    closeFd(child.stdoutFd);
    child.pid = -1;
    return out;
}

void
killProcess(long pid)
{
    if (pid > 0)
        ::kill(pid_t(pid), SIGKILL);
}

void
ignoreSigpipe()
{
    static std::once_flag once;
    std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

} // namespace qcc
