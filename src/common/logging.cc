#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/binio.hh"

namespace qcc {

namespace {

/** QCC_LOG parse; true when the env pins the level explicitly. */
bool
envLogLevel(LogLevel &out)
{
    const char *env = std::getenv("QCC_LOG");
    if (!env || !*env)
        return false;
    if (!std::strcmp(env, "quiet") || !std::strcmp(env, "0")) {
        out = LogLevel::Quiet;
        return true;
    }
    if (!std::strcmp(env, "debug") || !std::strcmp(env, "2")) {
        out = LogLevel::Debug;
        return true;
    }
    if (!std::strcmp(env, "info") || !std::strcmp(env, "1")) {
        out = LogLevel::Info;
        return true;
    }
    std::fprintf(stderr, "warn: QCC_LOG=%s not recognized "
                         "(quiet|info|debug)\n",
                 env);
    return false;
}

/** One env parse per process, shared by pin check and level. */
struct LevelState
{
    LogLevel level = LogLevel::Info;
    bool pinned = false;
};

LevelState &
levelState()
{
    static LevelState state = [] {
        LevelState s;
        s.pinned = envLogLevel(s.level);
        return s;
    }();
    return state;
}

bool
logLevelPinned()
{
    return levelState().pinned;
}

LogLevel &
logLevelRef()
{
    return levelState().level;
}

} // namespace

void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
error(const std::string &msg)
{
    std::fprintf(stderr, "error: %s\n", msg.c_str());
}

void
inform(const std::string &msg)
{
    if (logLevelRef() >= LogLevel::Info)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
debug(const std::string &msg)
{
    if (logLevelRef() >= LogLevel::Debug)
        std::fprintf(stderr, "debug: %s\n", msg.c_str());
}

LogLevel
logLevel()
{
    return logLevelRef();
}

void
setLogLevel(LogLevel level)
{
    // An explicit QCC_LOG in the environment outranks the program's
    // default (benches pick Quiet; QCC_LOG lets the user turn that
    // output back on without a rebuild).
    if (logLevelPinned())
        return;
    logLevelRef() = level;
}

std::string
qccJsonPath(const std::string &file_name)
{
    const char *env = std::getenv("QCC_JSON");
    if (!env)
        return {};
    const std::string dir(env);
    if (dir.empty() || dir == "0")
        return {};
    return (dir == "1" ? std::string() : dir + "/") + file_name;
}

std::string
writeOutputFile(const std::string &path, const std::string &doc,
                const std::string &writer)
{
    if (atomicWriteFile(path, doc))
        return path;
    warn(writer + ": cannot write " + path);
    return {};
}

} // namespace qcc
