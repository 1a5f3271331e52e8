/**
 * @file
 * Crash-resumable campaign journal: an append-only JSONL record of
 * every finished grid point, written atomically (tmp + rename) after
 * each point so a campaign killed at any instant can be resumed with
 * `--resume` and produce the exact final report an uninterrupted run
 * would have produced (docs/ROBUSTNESS.md, "Resume contract").
 *
 * Each line is one JSON object keyed by (point key, config digest):
 * the key names the grid coordinates a human recognizes, the digest
 * fingerprints every result-affecting configuration field, so a
 * journal written under different knobs — or by an older grid — can
 * never satisfy a lookup it shouldn't. Execution-only settings (--jobs,
 * --check) are deliberately excluded from the digest: they do not
 * change results, and a campaign may be resumed at any parallelism.
 */

#ifndef GEX_HARNESS_JOURNAL_HPP
#define GEX_HARNESS_JOURNAL_HPP

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness/sweep.hpp"

namespace gex::harness {

/** Human-readable grid coordinates of @p spec (journal lookup key). */
std::string pointKey(const RunSpec &spec);

/**
 * FNV-1a digest over every field of @p spec that can change the
 * simulation result. Two specs with equal keys and equal digests are
 * guaranteed to produce identical SimResults.
 */
std::uint64_t specDigest(const RunSpec &spec);

/**
 * The journal proper. Thread-safe: SweepEngine workers record
 * completed points concurrently. A journal with an empty path is
 * inert (lookup misses, record drops) so call sites need no guards.
 */
class CampaignJournal
{
  public:
    explicit CampaignJournal(std::string path = {});

    const std::string &path() const { return path_; }
    bool active() const { return !path_.empty(); }

    /**
     * Load existing entries from path() if the file exists. Malformed
     * lines (a torn write from a previous crash, a corrupt byte) are
     * skipped with a warning — everything parseable still resumes.
     * Returns the number of entries loaded.
     */
    std::size_t load();

    /**
     * Look up a completed point. On a hit, fills @p out's result,
     * status, error and attempts fields (the spec is the caller's) and
     * returns true.
     */
    bool lookup(const RunSpec &spec, RunRecord *out) const;

    /**
     * Record a finished point and rewrite the journal file atomically
     * (write to "<path>.tmp", then rename over path()). The journal
     * is therefore a complete, valid JSONL document after every
     * point, whatever instant the process dies.
     */
    void record(const RunRecord &rec);

    std::size_t size() const;

  private:
    struct Entry {
        std::string line; ///< serialized JSONL line (kept for rewrite)
        RunRecord rec;    ///< result/status fields only
    };

    void writeAllLocked() const;

    std::string path_;
    mutable std::mutex mu_;
    std::map<std::string, Entry> entries_; ///< "<key>#<digest>" -> entry
};

} // namespace gex::harness

#endif // GEX_HARNESS_JOURNAL_HPP
