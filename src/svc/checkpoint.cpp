#include "refpga/svc/checkpoint.hpp"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "refpga/common/interval_set.hpp"
#include "refpga/fleet/outcome_codec.hpp"

namespace refpga::svc {

namespace {

constexpr std::string_view kMagic = "refpga-svc-checkpoint";

std::string header_line(std::uint64_t fingerprint, std::size_t scenario_count) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s v2 codec %d model %d fingerprint %016" PRIx64
                  " scenarios %zu\n",
                  std::string(kMagic).c_str(), fleet::kOutcomeCodecVersion,
                  fleet::kModelVersion, fingerprint, scenario_count);
    return buf;
}

[[noreturn]] void fail(const std::string& path, std::size_t line,
                       const std::string& why) {
    throw CheckpointError("checkpoint " + path + ":" + std::to_string(line) +
                          ": " + why);
}

/// Full-write loop shared by header and record appends: short writes and
/// EINTR are continuations, not errors.
void write_all(int fd, const char* data, std::size_t n,
               const std::string& path) {
    while (n > 0) {
        const ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR) continue;
            throw CheckpointError("checkpoint write to " + path + " failed: " +
                                  std::strerror(errno));
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
}

}  // namespace

CheckpointWriter::CheckpointWriter(Tag, const std::string& path) : path_(path) {}

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   std::uint64_t fingerprint,
                                   std::size_t scenario_count)
    : path_(path) {
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd_ < 0)
        throw CheckpointError("cannot create checkpoint " + path + ": " +
                              std::strerror(errno));
    const std::string header = header_line(fingerprint, scenario_count);
    write_all(fd_, header.data(), header.size(), path_);
}

CheckpointWriter CheckpointWriter::resume(const std::string& path,
                                          const CheckpointContents& loaded) {
    CheckpointWriter writer(Tag{}, path);
    writer.fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (writer.fd_ < 0)
        throw CheckpointError("cannot reopen checkpoint " + path + ": " +
                              std::strerror(errno));
    // A torn tail that load dropped must also leave the file: O_APPEND lands
    // new records at physical EOF, and a partial record stranded mid-file
    // reads as hard corruption on the next load.
    if (::ftruncate(writer.fd_, static_cast<off_t>(loaded.valid_bytes)) != 0)
        throw CheckpointError("cannot drop torn tail of checkpoint " + path +
                              ": " + std::strerror(errno));
    return writer;
}

CheckpointWriter::CheckpointWriter(CheckpointWriter&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      records_(other.records_),
      fsync_every_(other.fsync_every_),
      appends_since_sync_(other.appends_since_sync_) {}

CheckpointWriter& CheckpointWriter::operator=(CheckpointWriter&& other) noexcept {
    if (this != &other) {
        if (fd_ >= 0) ::close(fd_);
        path_ = std::move(other.path_);
        fd_ = std::exchange(other.fd_, -1);
        records_ = other.records_;
        fsync_every_ = other.fsync_every_;
        appends_since_sync_ = other.appends_since_sync_;
    }
    return *this;
}

CheckpointWriter::~CheckpointWriter() {
    if (fd_ >= 0) ::close(fd_);
}

void CheckpointWriter::append(std::uint64_t first,
                              const std::vector<std::string>& lines) {
    // One buffered record per write(2): the `e` trailer lands in the same
    // syscall as the data it seals, so a crash can only tear the last record.
    std::string record =
        "b " + std::to_string(first) + ' ' + std::to_string(lines.size()) + '\n';
    for (const std::string& line : lines) {
        record += line;
        record += '\n';
    }
    record += "e " + std::to_string(first) + '\n';
    write_all(fd_, record.data(), record.size(), path_);
    ++records_;
    if (fsync_every_ > 0 && ++appends_since_sync_ >= fsync_every_) sync();
}

void CheckpointWriter::sync() {
    if (fd_ < 0) return;
    if (::fsync(fd_) != 0)
        throw CheckpointError("fsync of checkpoint " + path_ + " failed: " +
                              std::strerror(errno));
    appends_since_sync_ = 0;
}

CheckpointContents load_checkpoint(const std::string& path,
                                   std::uint64_t expected_fingerprint,
                                   std::size_t expected_count) {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        throw CheckpointError("cannot open checkpoint " + path);

    CheckpointContents contents;
    std::string line;
    std::size_t line_no = 1;
    // Bytes consumed by the line just read: its text plus the '\n' getline
    // swallowed — absent exactly when the file ended without one (eofbit),
    // which only happens inside a torn record we are about to drop anyway.
    const auto line_bytes = [&in](const std::string& l) {
        return static_cast<std::uint64_t>(l.size()) + (in.eof() ? 0 : 1);
    };
    if (!std::getline(in, line)) fail(path, line_no, "empty file");
    if (in.eof())
        fail(path, line_no, "header missing trailing newline (torn header)");
    contents.valid_bytes = line_bytes(line);

    {
        std::istringstream header(line);
        std::string magic, version, codec_kw, model_kw, fp_kw, fp_hex, sc_kw;
        int codec = -1;
        int model = -1;
        std::size_t scenarios = 0;
        const auto refuse_model = [&](int written_by) {
            fail(path, line_no,
                 "written by simulation model " + std::to_string(written_by) +
                     ", this build runs model " + std::to_string(fleet::kModelVersion) +
                     ": resuming would merge outcomes of two models into one report;"
                     " rerun the job without --resume");
        };
        if (!(header >> magic >> version) || magic != kMagic)
            fail(path, line_no, "malformed header '" + line + "'");
        // v1 headers predate the model field; model 1 wrote them.
        if (version == "v1") refuse_model(1);
        if (version != "v2")
            fail(path, line_no, "unsupported checkpoint version '" + version + "'");
        if (!(header >> codec_kw >> codec >> model_kw >> model >> fp_kw >> fp_hex >>
              sc_kw >> scenarios) ||
            codec_kw != "codec" || model_kw != "model" || fp_kw != "fingerprint" ||
            sc_kw != "scenarios")
            fail(path, line_no, "malformed header '" + line + "'");
        if (codec != fleet::kOutcomeCodecVersion)
            fail(path, line_no,
                 "written by outcome codec " + std::to_string(codec) +
                     ", this build reads outcome codec " +
                     std::to_string(fleet::kOutcomeCodecVersion) +
                     ": its outcome lines do not decode here;"
                     " rerun the job without --resume");
        if (model != fleet::kModelVersion) refuse_model(model);
        if (fp_hex.size() != 16 ||
            std::sscanf(fp_hex.c_str(), "%16" SCNx64, &contents.fingerprint) != 1)
            fail(path, line_no, "malformed fingerprint '" + fp_hex + "'");
        contents.scenario_count = scenarios;
    }
    if (expected_fingerprint != 0 && contents.fingerprint != expected_fingerprint)
        fail(path, 1, "job fingerprint mismatch: checkpoint belongs to a different job spec");
    if (expected_count != 0 && contents.scenario_count != expected_count)
        fail(path, 1,
             "scenario count " + std::to_string(contents.scenario_count) +
                 " != expected " + std::to_string(expected_count));

    // A record that goes wrong exactly at end-of-file is the signature of a
    // write torn by a crash and is dropped; the same malformation followed
    // by more data means real corruption and is fatal.
    const auto at_eof = [&in] { return in.peek() == std::ifstream::traits_type::eof(); };

    IntervalSet covered;
    while (std::getline(in, line)) {
        ++line_no;
        std::uint64_t first = 0;
        std::size_t count = 0;
        {
            std::istringstream head(line);
            std::string tag;
            if (!(head >> tag >> first >> count) || tag != "b" ||
                !(head >> std::ws).eof()) {
                if (at_eof()) {
                    contents.torn_tail = true;
                    break;
                }
                fail(path, line_no, "expected batch header, got '" + line + "'");
            }
        }
        if (count == 0) fail(path, line_no, "empty batch record");

        const std::size_t header_line_no = line_no;
        std::uint64_t record_bytes = line_bytes(line);
        CheckpointBatch batch;
        batch.first = first;
        bool torn = false;
        for (std::size_t i = 0; i < count; ++i) {
            if (!std::getline(in, line)) {
                torn = true;
                break;
            }
            ++line_no;
            record_bytes += line_bytes(line);
            try {
                batch.outcomes.push_back(fleet::decode_outcome_line(line));
            } catch (const fleet::CodecError& e) {
                if (at_eof()) {
                    torn = true;
                    break;
                }
                fail(path, line_no, std::string("bad outcome line: ") + e.what());
            }
        }
        if (!torn) {
            if (!std::getline(in, line)) {
                torn = true;
            } else {
                ++line_no;
                record_bytes += line_bytes(line);
                if (line != "e " + std::to_string(first)) {
                    if (at_eof()) {
                        torn = true;
                    } else {
                        fail(path, line_no,
                             "batch trailer mismatch: expected 'e " +
                                 std::to_string(first) + "', got '" + line + "'");
                    }
                } else if (in.eof()) {
                    // Trailer text landed but its newline did not: the write
                    // tore one byte short. Drop the record so a resumed run
                    // never appends onto an unterminated line.
                    torn = true;
                }
            }
        }
        if (torn) {
            // The process died mid-append; everything before this record is
            // intact. Drop the tail and report it.
            contents.torn_tail = true;
            break;
        }
        if (first + count > contents.scenario_count)
            fail(path, header_line_no,
                 "batch [" + std::to_string(first) + ", " +
                     std::to_string(first + count) + ") exceeds scenario count " +
                     std::to_string(contents.scenario_count));
        try {
            covered.add(first, count);
        } catch (const std::exception&) {
            fail(path, header_line_no,
                 "batch [" + std::to_string(first) + ", " +
                     std::to_string(first + count) +
                     ") overlaps an earlier record");
        }
        contents.batches.push_back(std::move(batch));
        contents.valid_bytes += record_bytes;
    }
    return contents;
}

}  // namespace refpga::svc
