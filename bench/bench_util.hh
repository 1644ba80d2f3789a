/**
 * @file
 * Shared helpers for the reproduction benches: quick/full profile
 * selection (QCC_FULL=1 environment variable), table formatting, and
 * machine-readable JSON capture. Every bench prints the rows of the
 * paper table/figure it regenerates; quick mode trims molecule sizes
 * and Monte-Carlo / optimizer budgets so the whole suite runs in
 * minutes on a laptop, while full mode matches the paper's scale.
 *
 * Setting QCC_JSON=1 (or QCC_JSON=<directory>) additionally writes
 * each bench's headline numbers as BENCH_<name>.json, so result
 * trajectories can be captured across revisions without scraping
 * stdout.
 */

#ifndef QCC_BENCH_BENCH_UTIL_HH
#define QCC_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace qccbench {

/** True when QCC_FULL=1 requests the paper-scale sweep. */
inline bool
fullMode()
{
    const char *env = std::getenv("QCC_FULL");
    return env && std::string(env) == "1";
}

/** Print a separator line. */
inline void
rule(char c = '-', int width = 78)
{
    for (int i = 0; i < width; ++i)
        std::putchar(c);
    std::putchar('\n');
}

/** Bench banner with mode note. */
inline void
banner(const std::string &title)
{
    rule('=');
    std::printf("%s  [%s mode]\n", title.c_str(),
                fullMode() ? "full" : "quick");
    rule('=');
}

/**
 * Machine-readable result sink. Rows of labeled metric maps are
 * collected during the run and flushed to BENCH_<name>.json on
 * destruction when QCC_JSON is set; otherwise every call is a no-op.
 * The file is written atomically, so a bench killed mid-write leaves
 * the previous BENCH_<name>.json whole.
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string bench_name)
        : name(std::move(bench_name)),
          path(qcc::qccJsonPath("BENCH_" + name + ".json"))
    {
    }

    JsonReport(const JsonReport &) = delete;
    JsonReport &operator=(const JsonReport &) = delete;

    ~JsonReport() { write(); }

    bool enabled() const { return !path.empty(); }

    /** Append one labeled row of metric key/value pairs. */
    void
    row(const std::string &label,
        std::vector<std::pair<std::string, double>> metrics)
    {
        if (enabled())
            rows.emplace_back(label, std::move(metrics));
    }

    /** Flush to disk (idempotent; also run by the destructor). */
    void
    write()
    {
        if (!enabled() || written)
            return;
        written = true; // one attempt, even if it fails
        // Appends only: GCC 12's -Wrestrict misfires on
        // "literal" + std::string.
        std::string doc = "{\n  \"bench\": \"";
        doc += name;
        doc += "\",\n  \"mode\": \"";
        doc += fullMode() ? "full" : "quick";
        doc += "\",\n  \"rows\": [";
        for (size_t r = 0; r < rows.size(); ++r) {
            doc += r ? ",\n    {\"label\": \"" : "\n    {\"label\": \"";
            doc += rows[r].first;
            doc += '"';
            for (const auto &[k, v] : rows[r].second) {
                char num[32];
                std::snprintf(num, sizeof(num), "%.12g", v);
                doc += ", \"";
                doc += k;
                doc += "\": ";
                doc += num;
            }
            doc += '}';
        }
        doc += "\n  ]\n}\n";
        if (!qcc::writeOutputFile(path, doc, "JsonReport").empty())
            std::printf("[json] wrote %s\n", path.c_str());
    }

  private:
    std::string name;
    std::string path;
    std::vector<std::pair<
        std::string, std::vector<std::pair<std::string, double>>>>
        rows;
    bool written = false;
};

} // namespace qccbench

#endif // QCC_BENCH_BENCH_UTIL_HH
