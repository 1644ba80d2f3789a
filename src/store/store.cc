#include "store/store.hh"

#include <cstdlib>
#include <filesystem>
#include <mutex>

namespace qcc {

namespace {

/**
 * Runtime configuration with env fallback. The mutex makes the
 * override setters safe against concurrent store probes; steady-state
 * reads are a lock + two small copies, dwarfed by the file IO they
 * gate.
 */
struct Config
{
    std::mutex mtx;
    bool dirOverridden = false;
    std::string dirOverride;
    bool enabledOverridden = false;
    bool enabledOverride = true;
};

Config &
config()
{
    static Config c;
    return c;
}

} // namespace

std::string
storeDir()
{
    Config &c = config();
    std::lock_guard<std::mutex> lock(c.mtx);
    if (c.dirOverridden)
        return c.dirOverride;
    const char *env = std::getenv("QCC_STORE_DIR");
    return env ? std::string(env) : std::string();
}

bool
storeEnabled()
{
    {
        Config &c = config();
        std::lock_guard<std::mutex> lock(c.mtx);
        if (c.enabledOverridden && !c.enabledOverride)
            return false;
        if (!c.enabledOverridden) {
            const char *env = std::getenv("QCC_STORE");
            if (env && std::string(env) == "0")
                return false;
        }
    }
    return !storeDir().empty();
}

void
setStoreDir(const std::string &dir)
{
    Config &c = config();
    std::lock_guard<std::mutex> lock(c.mtx);
    c.dirOverridden = true;
    c.dirOverride = dir;
}

void
setStoreEnabled(bool enabled)
{
    Config &c = config();
    std::lock_guard<std::mutex> lock(c.mtx);
    c.enabledOverridden = true;
    c.enabledOverride = enabled;
}

bool
ensureDirectory(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return !ec && std::filesystem::is_directory(dir, ec);
}

} // namespace qcc
