#include "sweep/result_store.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace qcc {

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Pending: return "pending";
      case JobStatus::Running: return "running";
      case JobStatus::Done: return "done";
      case JobStatus::Failed: return "failed";
      case JobStatus::TimedOut: return "timed_out";
      case JobStatus::Skipped: return "skipped";
    }
    return "?";
}

const char *
timeoutKindName(TimeoutKind kind)
{
    switch (kind) {
      case TimeoutKind::None: return "";
      case TimeoutKind::Soft: return "soft";
      case TimeoutKind::Hard: return "hard";
    }
    return "";
}

namespace {

/**
 * The record writer: one jobs[] entry. `br` is each of its line
 * breaks, "\n   " in the aggregate (a newline and the entry's
 * indent) and " " on a journal line, which is what keeps the line
 * one line: the embedded documents escape every newline in their
 * strings.
 */
void
appendRecord(std::string &out, const SweepJobRecord &r, bool timings,
             std::string_view br)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "{\"index\": %zu, \"status\": \"%s\", "
                  "\"attempts\": %d",
                  r.index, jobStatusName(r.status), r.attempts);
    out += buf;
    if (!r.specHash.empty())
        out += ", \"spec_hash\": \"" + r.specHash + "\"";
    if (r.status == JobStatus::TimedOut &&
        r.timeoutKind != TimeoutKind::None)
        out += std::string(", \"timeout_kind\": \"") +
               timeoutKindName(r.timeoutKind) + "\"";
    if (!r.error.empty())
        out += ", \"error\": \"" + jsonEscape(r.error) + "\"";
    if (timings) {
        std::snprintf(buf, sizeof(buf), ", \"wall_ms\": %.6g",
                      r.wallMillis);
        out += buf;
    }
    std::string doc;
    out += ",";
    out += br;
    if (r.finished()) {
        ExperimentResult::JsonOptions jo;
        jo.timings = timings;
        jo.trace = false;
        doc = r.result.json(jo);
        out += "\"result\": ";
    } else {
        doc = r.spec.json();
        out += "\"spec\": ";
    }
    while (!doc.empty() && doc.back() == '\n')
        doc.pop_back();
    for (size_t pos = 0;;) {
        const size_t eol = doc.find('\n', pos);
        out.append(doc, pos, eol - pos);
        if (eol == std::string::npos)
            break;
        out += br;
        pos = eol + 1;
    }
    out += "}";
}

} // namespace

std::string
sweepJournalPath(const std::string &sweep_name)
{
    return qccJsonPath("SWEEP_" + sweep_name + ".journal");
}

ResultStore::ResultStore(std::string sweep_name, bool emit_timings)
    : sweepName(std::move(sweep_name)), emitTimings(emit_timings),
      mutex(std::make_unique<std::mutex>())
{
}

void
ResultStore::reset(const std::vector<ExperimentSpec> &jobs)
{
    std::lock_guard<std::mutex> lock(*mutex);
    records.clear();
    records.resize(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        records[i].index = i;
        records[i].spec = jobs[i];
        records[i].specHash = sweepJobHash(jobs[i]);
    }
}

bool
ResultStore::adoptEntry(const JsonValue &entry)
{
    const JsonValue *idx = entry.find("index");
    uint64_t i = 0;
    if (!idx || !idx->asUint64(i) || i >= records.size())
        return false;
    SweepJobRecord &rec = records[i];
    const JsonValue *hash = entry.find("spec_hash");
    const JsonValue *status = entry.find("status");
    const JsonValue *result = entry.find("result");
    ExperimentResult rehydrated;
    // A changed spec re-runs; failures get a second chance on
    // resume. Either way an earlier journal line loses its say.
    if (!hash || !hash->isString() || hash->text != rec.specHash ||
        !status || !status->isString() || status->text != "done" ||
        !result || !ExperimentResult::fromJsonDom(*result, rehydrated)) {
        SweepJobRecord pending;
        pending.index = rec.index;
        pending.spec = std::move(rec.spec);
        pending.specHash = std::move(rec.specHash);
        rec = std::move(pending);
        return false;
    }
    rec.status = JobStatus::Done;
    rec.timeoutKind = TimeoutKind::None;
    rec.result = std::move(rehydrated);
    rec.error.clear();
    rec.attempts = 1;
    if (const JsonValue *attempts = entry.find("attempts")) {
        uint64_t a = 0;
        if (attempts->asUint64(a))
            rec.attempts = int(a);
    }
    rec.wallMillis = 0.0;
    if (const JsonValue *wall = entry.find("wall_ms"))
        if (wall->isNumber())
            rec.wallMillis = wall->number;
    return true;
}

size_t
ResultStore::adoptCompleted(const std::string &prior_doc)
{
    const JsonValue doc = JsonValue::parse(prior_doc);
    const JsonValue *jobs = doc.find("jobs");
    if (jobs && jobs->isArray()) {
        std::lock_guard<std::mutex> lock(*mutex);
        for (const JsonValue &entry : jobs->items)
            adoptEntry(entry);
    }
    return countWithStatus(JobStatus::Done);
}

size_t
ResultStore::adoptJournal(const std::string &journal)
{
    {
        std::lock_guard<std::mutex> lock(*mutex);
        // Only newline-terminated lines: a torn last line is
        // dropped, and so is a whole line that does not parse.
        for (size_t pos = 0, eol;
             (eol = journal.find('\n', pos)) != std::string::npos;
             pos = eol + 1) {
            try {
                adoptEntry(
                    JsonValue::parse(journal.substr(pos, eol - pos)));
            } catch (const JsonError &) {
            }
        }
    }
    return countWithStatus(JobStatus::Done);
}

std::string
ResultStore::journalLine(const SweepJobRecord &record) const
{
    std::string line;
    appendRecord(line, record, emitTimings, " ");
    line += '\n';
    return line;
}

void
ResultStore::record(SweepJobRecord r)
{
    metricCounter(std::string("sweep.jobs.") +
                  jobStatusName(r.status))
        .add();
    std::lock_guard<std::mutex> lock(*mutex);
    const size_t i = r.index;
    if (i < records.size())
        records[i] = std::move(r);
}

void
ResultStore::markRunning(size_t index)
{
    std::lock_guard<std::mutex> lock(*mutex);
    if (index < records.size() &&
        records[index].status == JobStatus::Pending)
        records[index].status = JobStatus::Running;
}

size_t
ResultStore::countWithStatus(JobStatus status) const
{
    std::lock_guard<std::mutex> lock(*mutex);
    size_t n = 0;
    for (const auto &r : records)
        n += r.status == status ? 1 : 0;
    return n;
}

std::string
ResultStore::json() const
{
    std::lock_guard<std::mutex> lock(*mutex);
    char buf[256];

    size_t done = 0, failed = 0, timedOut = 0, skipped = 0,
           pending = 0;
    uint64_t totalShots = 0;
    for (const auto &r : records) {
        switch (r.status) {
          case JobStatus::Done: ++done; break;
          case JobStatus::Failed: ++failed; break;
          case JobStatus::TimedOut: ++timedOut; break;
          case JobStatus::Skipped: ++skipped; break;
          default: ++pending; break;
        }
        if (r.finished())
            totalShots += r.result.shots;
    }

    std::string out = "{\n";
    out += "\"sweep\": \"" + jsonEscape(sweepName) + "\",\n";
    std::snprintf(buf, sizeof(buf),
                  "\"summary\": {\"jobs\": %zu, \"done\": %zu, "
                  "\"failed\": %zu, \"timed_out\": %zu, "
                  "\"skipped\": %zu, \"pending\": %zu, "
                  "\"total_shots\": %llu},\n",
                  records.size(), done, failed, timedOut, skipped,
                  pending, (unsigned long long)totalShots);
    out += buf;

    // ---- best energy per molecule (Done jobs, job order) --------
    // Ground-state aggregates are a VQE notion: estimate jobs carry
    // only the HF placeholder energy and evolve jobs report
    // <psi(t)|H|psi(t)>, so both would pollute "best".
    std::vector<std::string> moleculeOrder;
    std::map<std::string, const SweepJobRecord *> best;
    for (const auto &r : records) {
        if (r.status != JobStatus::Done ||
            r.effectiveSpec().kind != "vqe")
            continue;
        auto it = best.find(r.spec.molecule);
        if (it == best.end()) {
            moleculeOrder.push_back(r.spec.molecule);
            best[r.spec.molecule] = &r;
        } else if (r.result.energy() < it->second->result.energy()) {
            it->second = &r;
        }
    }
    out += "\"best_energy\": [";
    for (size_t m = 0; m < moleculeOrder.size(); ++m) {
        const SweepJobRecord *r = best[moleculeOrder[m]];
        std::snprintf(buf, sizeof(buf),
                      "%s\n  {\"molecule\": \"%s\", \"job\": %zu, "
                      "\"bond\": %.17g, \"energy\": %.17g}",
                      m ? "," : "", moleculeOrder[m].c_str(),
                      r->index, r->effectiveSpec().bond,
                      r->result.energy());
        out += buf;
    }
    out += moleculeOrder.empty() ? "],\n" : "\n],\n";

    // ---- dissociation curves (>= 2 distinct bonds) --------------
    out += "\"curves\": [";
    bool anyCurve = false;
    for (const auto &mol : moleculeOrder) {
        std::vector<const SweepJobRecord *> points;
        for (const auto &r : records)
            if (r.status == JobStatus::Done &&
                r.effectiveSpec().kind == "vqe" &&
                r.spec.molecule == mol)
                points.push_back(&r);
        std::stable_sort(points.begin(), points.end(),
                         [](const SweepJobRecord *a,
                            const SweepJobRecord *b) {
                             return a->effectiveSpec().bond <
                                    b->effectiveSpec().bond;
                         });
        bool distinct = false;
        for (size_t i = 1; i < points.size(); ++i)
            distinct |= points[i]->effectiveSpec().bond !=
                        points[0]->effectiveSpec().bond;
        if (!distinct)
            continue;
        out += anyCurve ? "," : "";
        anyCurve = true;
        out += "\n  {\"molecule\": \"" + jsonEscape(mol) +
               "\", \"points\": [";
        for (size_t i = 0; i < points.size(); ++i) {
            const SweepJobRecord *r = points[i];
            std::snprintf(buf, sizeof(buf),
                          "%s\n    {\"job\": %zu, \"bond\": %.17g, "
                          "\"energy\": %.17g, "
                          "\"hartree_fock\": %.17g",
                          i ? "," : "", r->index,
                          r->effectiveSpec().bond,
                          r->result.energy(),
                          r->result.hartreeFock);
            out += buf;
            if (r->result.haveFci) {
                std::snprintf(buf, sizeof(buf), ", \"fci\": %.17g",
                              r->result.fci);
                out += buf;
            }
            out += "}";
        }
        out += "\n  ]}";
    }
    out += anyCurve ? "\n],\n" : "],\n";

    // ---- measurement settings per Hamiltonian x grouping --------
    // The Hamiltonian (and so the settings count) depends on the
    // molecule, geometry, and basis, not just the molecule: key on
    // all of them so a bond-swept comparison reports every distinct
    // problem rather than silently keeping the first.
    out += "\"grouping_settings\": [";
    std::vector<std::string> seen;
    bool anyGrouping = false;
    for (const auto &r : records) {
        if (r.status != JobStatus::Done)
            continue;
        const ExperimentSpec &spec = r.effectiveSpec();
        char keyBuf[160];
        std::snprintf(keyBuf, sizeof(keyBuf), "%s|%.17g|%d|%s",
                      spec.molecule.c_str(), spec.bond, spec.basisNg,
                      spec.grouping.c_str());
        if (std::find(seen.begin(), seen.end(),
                      std::string(keyBuf)) != seen.end())
            continue;
        seen.push_back(keyBuf);
        std::snprintf(buf, sizeof(buf),
                      "%s\n  {\"molecule\": \"%s\", "
                      "\"bond\": %.17g, "
                      "\"grouping\": \"%s\", \"settings\": %zu, "
                      "\"terms\": %zu}",
                      anyGrouping ? "," : "",
                      spec.molecule.c_str(), spec.bond,
                      spec.grouping.c_str(),
                      r.result.measurementSettings,
                      r.result.hamiltonianTerms);
        out += buf;
        anyGrouping = true;
    }
    out += anyGrouping ? "\n],\n" : "],\n";

    // ---- per-job records, job order -----------------------------
    out += "\"jobs\": [";
    for (size_t i = 0; i < records.size(); ++i) {
        out += i ? ",\n  " : "\n  ";
        appendRecord(out, records[i], emitTimings, "\n   ");
    }
    out += records.empty() ? "]\n" : "\n]\n";
    out += "}\n";
    return out;
}

std::string
ResultStore::write() const
{
    const std::string path =
        qccJsonPath("SWEEP_" + sweepName + ".json");
    if (path.empty())
        return {};
    return writeTo(path);
}

std::string
ResultStore::writeTo(const std::string &path) const
{
    return writeOutputFile(path, json(), "ResultStore::writeTo");
}

SweepJournal::SweepJournal(const std::string &path,
                           const std::string &lines)
    : filePath(path)
{
    // Atomic, like every output document: a kill here leaves the
    // previous journal or the new one.
    if (!writeOutputFile(path, lines, "SweepJournal").empty())
        fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0)
        warn("SweepJournal: cannot append to " + path);
}

SweepJournal::~SweepJournal()
{
    if (fd >= 0)
        ::close(fd);
}

void
SweepJournal::append(const std::string &line)
{
    if (fd < 0)
        return;
    if (::write(fd, line.data(), line.size()) != ssize_t(line.size())) {
        // Stop at the first failed append, so no later line lands
        // behind a torn one and every whole line stays adoptable.
        warn("SweepJournal: cannot append to " + filePath +
             "; journaling stops");
        ::close(fd);
        fd = -1;
    }
}

} // namespace qcc
