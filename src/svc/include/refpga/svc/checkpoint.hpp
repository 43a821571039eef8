// Checkpoint journal for campaign runs: crash-safe record of committed
// scenario ranges so a killed run resumes without recomputing.
//
// Plain-text, append-only format:
//
//   refpga-svc-checkpoint v2 codec <codec> model <model> fingerprint <hex16> scenarios <N>
//   b <first> <count>
//   <count outcome_codec lines>
//   e <first>
//   ... more records ...
//
// Each committed batch is bracketed by a `b` header and an `e` trailer that
// repeats the batch's first index; a record missing its trailer (the
// process died mid-append) is an *expected* torn tail and is dropped by
// load(). Every other malformation — wrong magic, fingerprint mismatch,
// codec mismatch, count/trailer disagreement, undecodable outcome line,
// overlapping ranges — throws CheckpointError naming the line: a corrupt
// journal must fail loudly, not silently resume a wrong campaign. So does a
// journal written under another simulation model (fleet::kModelVersion; a
// v1 header predates the field and counts as model 1): its outcomes are
// valid, but merging them with this build's would make a report neither
// build produces. A journal of another outcome codec is refused too (codec
// 1 lines still carried their scenario; codec 2 lines carry only what was
// measured, and the coordinator attaches each scenario from its grid, which
// the fingerprint binds the journal to).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "refpga/fleet/campaign.hpp"

namespace refpga::svc {

class CheckpointError : public std::runtime_error {
public:
    explicit CheckpointError(const std::string& what)
        : std::runtime_error(what) {}
};

struct CheckpointContents;

/// Append-side writer. Batches are flushed to the OS after each append; a
/// torn final record is recoverable, a reordered one is not possible.
class CheckpointWriter {
public:
    /// Creates/truncates `path` and writes the header. Throws on I/O error.
    CheckpointWriter(const std::string& path, std::uint64_t fingerprint,
                     std::size_t scenario_count);

    /// Opens `path` for append after `loaded = load_checkpoint(path, ...)`
    /// validated it against the job (resume), and truncates the file to
    /// loaded.valid_bytes so a dropped torn tail leaves it too.
    static CheckpointWriter resume(const std::string& path,
                                   const CheckpointContents& loaded);

    CheckpointWriter(CheckpointWriter&& other) noexcept;
    CheckpointWriter& operator=(CheckpointWriter&& other) noexcept;

    /// Appends one committed batch (encoded outcome lines starting at
    /// scenario index `first`). Throws CheckpointError on I/O failure.
    void append(std::uint64_t first, const std::vector<std::string>& lines);

    /// Durability policy: fsync after every n-th append (0 = never, the
    /// default — a torn tail is already recoverable; fsync buys power-loss
    /// durability at measured cost). Coordinators also call sync() once
    /// after the final record regardless of cadence when a policy is set.
    void set_fsync_every(std::uint64_t n) { fsync_every_ = n; }
    /// Flushes the journal to stable storage now. Throws CheckpointError.
    void sync();

    [[nodiscard]] std::size_t records_written() const { return records_; }

private:
    struct Tag {};
    CheckpointWriter(Tag, const std::string& path);

    std::string path_;
    int fd_ = -1;
    std::size_t records_ = 0;
    std::uint64_t fsync_every_ = 0;
    std::uint64_t appends_since_sync_ = 0;

public:
    ~CheckpointWriter();
    CheckpointWriter(const CheckpointWriter&) = delete;
    CheckpointWriter& operator=(const CheckpointWriter&) = delete;
};

/// One recovered batch: the decoded outcomes of scenario indices
/// [first, first + outcomes.size()).
struct CheckpointBatch {
    std::uint64_t first = 0;
    std::vector<fleet::ScenarioOutcome> outcomes;
};

struct CheckpointContents {
    std::uint64_t fingerprint = 0;
    std::size_t scenario_count = 0;
    std::vector<CheckpointBatch> batches;
    /// True when the file ended inside a record (torn tail was dropped).
    bool torn_tail = false;
    /// Byte offset just past the last valid record (the header when there
    /// are none). resume() truncates the file here so a dropped torn tail
    /// cannot end up mid-file — where the next load would treat it as hard
    /// corruption — once new records are appended after it.
    std::uint64_t valid_bytes = 0;
};

/// Loads and validates a journal. `expected_fingerprint`/`expected_count`
/// of 0 skip that check (used by inspection tools); coordinators always
/// pass the real values. Throws CheckpointError on any malformation other
/// than a torn tail.
[[nodiscard]] CheckpointContents load_checkpoint(const std::string& path,
                                                 std::uint64_t expected_fingerprint,
                                                 std::size_t expected_count);

}  // namespace refpga::svc
