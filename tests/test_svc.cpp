// refpga::svc — sharded campaign service.
//
// Covers the layers bottom-up: frame protocol, JSON parser, job specs,
// checkpoint journal (including the corrupt/truncated failure paths), the
// worker protocol driven directly over pipes, and end-to-end coordinator
// runs that must render byte-identical reports to the single-process
// CampaignRunner — including after a SIGKILLed worker's shard is reassigned
// and after a graceful stop plus checkpoint resume.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/outcome_codec.hpp"
#include "refpga/fleet/report.hpp"
#include "refpga/svc/chaos.hpp"
#include "refpga/svc/checkpoint.hpp"
#include "refpga/svc/coordinator.hpp"
#include "refpga/svc/http.hpp"
#include "refpga/svc/job.hpp"
#include "refpga/svc/json.hpp"
#include "refpga/svc/wire.hpp"
#include "refpga/svc/worker.hpp"

namespace refpga::svc {
namespace {

std::string temp_path(const char* tag) {
    return testing::TempDir() + "refpga_svc_" + tag + "_" +
           std::to_string(::getpid());
}

// ---------------------------------------------------------------- wire

TEST(Wire, FrameReaderReassemblesByteDribble) {
    std::string stream;
    {
        // Build a wire image by writing frames into a pipe and draining it.
        int p[2];
        ASSERT_EQ(::pipe(p), 0);
        write_frame(p[1], MsgType::Assign, "1 0 8 2");
        write_frame(p[1], MsgType::Batch, "1 0 1\n{}\n");
        write_frame(p[1], MsgType::Shutdown, "");
        ::close(p[1]);
        char buf[512];
        ssize_t r = 0;
        while ((r = ::read(p[0], buf, sizeof buf)) > 0)
            stream.append(buf, static_cast<std::size_t>(r));
        ::close(p[0]);
    }

    FrameReader reader;
    std::vector<Frame> frames;
    for (const char byte : stream) {  // worst case: one byte per feed
        reader.feed(&byte, 1);
        while (auto frame = reader.next()) frames.push_back(*frame);
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].type, MsgType::Assign);
    EXPECT_EQ(frames[0].payload, "1 0 8 2");
    EXPECT_EQ(frames[1].type, MsgType::Batch);
    EXPECT_EQ(frames[2].type, MsgType::Shutdown);
    EXPECT_TRUE(frames[2].payload.empty());
    EXPECT_FALSE(reader.mid_frame());
}

TEST(Wire, CorruptPrefixThrows) {
    FrameReader reader;
    const char bogus[] = "\xff\xff\xff\xff\x01";  // 4 GiB payload claim
    reader.feed(bogus, sizeof bogus - 1);
    EXPECT_THROW((void)reader.next(), WireError);
}

TEST(Wire, PayloadHelpersValidateShape) {
    EXPECT_EQ(parse_fields("3 14 15", 3),
              (std::vector<std::uint64_t>{3, 14, 15}));
    EXPECT_THROW((void)parse_fields("3 14", 3), WireError);
    EXPECT_THROW((void)parse_fields("3 x 15", 3), WireError);

    // Fields that overflow u64 must throw, not wrap; kNothingStolen (the
    // largest legitimate value, 2^64-1) must still round-trip.
    EXPECT_THROW((void)parse_fields("99999999999999999999999", 1), WireError);
    EXPECT_THROW((void)parse_fields("18446744073709551616", 1), WireError);
    EXPECT_EQ(parse_fields("18446744073709551615", 1)[0], kNothingStolen);

    const std::vector<std::string> lines{"{\"a\":1}", "{\"b\":2}"};
    const BatchPayload batch = parse_batch(encode_batch(7, 40, lines));
    EXPECT_EQ(batch.shard, 7u);
    EXPECT_EQ(batch.first, 40u);
    EXPECT_EQ(batch.lines, lines);
    EXPECT_THROW((void)parse_batch("7 40 2\n{\"a\":1}\n"), WireError);
}

// ---------------------------------------------------------------- json

TEST(Json, ParsesDocumentsStrictly) {
    const JsonValue doc = parse_json(
        " {\"s\": \"a\\nb\", \"n\": -2.5e2, \"l\": [1, true, null]} ");
    EXPECT_EQ(doc.find("s")->as_string(), "a\nb");
    EXPECT_EQ(doc.find("n")->as_number(), -250.0);
    ASSERT_EQ(doc.find("l")->as_array().size(), 3u);
    EXPECT_TRUE(doc.find("l")->as_array()[1].as_bool());
    EXPECT_TRUE(doc.find("l")->as_array()[2].is(JsonValue::Kind::Null));
    EXPECT_EQ(doc.find("missing"), nullptr);

    EXPECT_THROW((void)parse_json("{\"a\":1} trailing"), JsonError);
    EXPECT_THROW((void)parse_json("{\"a\":1,\"a\":2}"), JsonError);
    EXPECT_THROW((void)parse_json("{\"a\":}"), JsonError);
    EXPECT_THROW((void)parse_json("\"unterminated"), JsonError);
}

// ---------------------------------------------------------------- job

TEST(Job, SpecRoundTripsThroughCanonicalJson) {
    JobSpec spec;
    spec.variants = {app::SystemVariant::MonolithicHw,
                     app::SystemVariant::ReconfiguredHw};
    spec.parts = {fabric::PartName::XC3S200, fabric::PartName::XC3S1000};
    spec.ports = {fleet::PortKind::Icap};
    spec.noise_levels = {1e-3, 5e-3};
    spec.upset_rates = {0.0, 0.2};
    spec.fault_defaults.load_corruption_prob = 0.1;
    spec.fills = {{0.1, 0.9}, {0.9, 0.1}};
    spec.cycles = 3;
    spec.campaign_seed = 0xdeadbeefcafef00dULL;

    const JobSpec back = JobSpec::from_json(spec.canonical_json());
    EXPECT_EQ(back.canonical_json(), spec.canonical_json());
    EXPECT_EQ(back.fingerprint(), spec.fingerprint());
    EXPECT_EQ(back.campaign_seed, spec.campaign_seed);

    // The expansion must match SweepBuilder's scenario for scenario.
    const auto a = spec.expand();
    const auto b = back.expand();
    ASSERT_EQ(a.size(), spec.grid_size());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].seed, b[i].seed);
    }
}

TEST(Job, RejectsUnknownAndMalformedFields) {
    EXPECT_THROW((void)JobSpec::from_json("[1]"), JobError);
    EXPECT_THROW((void)JobSpec::from_json("{\"bogus\":1}"), JobError);
    EXPECT_THROW((void)JobSpec::from_json("{\"variants\":[\"vax\"]}"), JobError);
    EXPECT_THROW((void)JobSpec::from_json("{\"parts\":[\"xc9999\"]}"), JobError);
    EXPECT_THROW((void)JobSpec::from_json("{\"cycles\":0}"), JobError);
    EXPECT_THROW((void)JobSpec::from_json("{\"upset_rates\":[-1]}"), JobError);
    EXPECT_THROW((void)JobSpec::from_json("{\"cycles\":2.5}"), JobError);
    EXPECT_THROW((void)JobSpec::from_json("{\"cycles\":1e12}"), JobError);
}

void expect_rejected(const std::string& doc, const std::string& key) {
    try {
        (void)JobSpec::from_json(doc);
        ADD_FAILURE() << doc << " accepted";
    } catch (const JobError& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << doc << ": " << e.what();
    }
}

TEST(Job, RejectsNonFiniteAndOutOfRangeValues) {
    // Every double field ("@" marks the value): 1e999 overflows strtod to
    // inf, and both number parsers accept the "inf" and "nan" spellings.
    const std::vector<std::pair<std::string, std::string>> fields = {
        {"noise_levels", "{\"noise_levels\":[@]}"},
        {"upset_rates", "{\"upset_rates\":[@]}"},
        {"fills", "{\"fills\":[{\"start\":@}]}"},
        {"fills", "{\"fills\":[{\"end\":@}]}"},
        {"load_corruption_prob", "{\"fault\":{\"load_corruption_prob\":@}}"},
        {"flash_error_prob", "{\"fault\":{\"flash_error_prob\":@}}"},
        {"glitch_prob_per_cycle", "{\"fault\":{\"glitch_prob_per_cycle\":@}}"},
    };
    for (const auto& [key, doc] : fields)
        for (const char* value : {"1e999", "-1e999", "\"inf\"", "\"nan\""}) {
            std::string text = doc;
            text.replace(text.find('@'), 1, value);
            expect_rejected(text, key);
        }
    expect_rejected("{\"fills\":[{\"start\":1.5}]}", "fills");
    expect_rejected("{\"fills\":[{\"end\":-0.25}]}", "fills");
    expect_rejected("{\"fault\":{\"load_corruption_prob\":1.5}}", "load_corruption_prob");
    expect_rejected("{\"fault\":{\"flash_error_prob\":2}}", "flash_error_prob");
    expect_rejected("{\"fault\":{\"glitch_prob_per_cycle\":1.01}}",
                    "glitch_prob_per_cycle");
    expect_rejected("{\"noise_levels\":[-1e-3]}", "noise_levels");
    expect_rejected("{\"cycles\":0}", "cycles");
    expect_rejected("{\"ports\":[]}", "ports");
}

TEST(Job, SeedStringsRejectOverflowButAcceptMaxU64) {
    // A >20-digit seed must fail loudly, not wrap modulo 2^64 into a
    // different (accepted!) seed.
    EXPECT_THROW((void)JobSpec::from_json(
                     "{\"campaign_seed\":\"99999999999999999999999\"}"),
                 JobError);
    EXPECT_THROW(
        (void)JobSpec::from_json("{\"campaign_seed\":\"18446744073709551616\"}"),
        JobError);
    const JobSpec spec =
        JobSpec::from_json("{\"campaign_seed\":\"18446744073709551615\"}");
    EXPECT_EQ(spec.campaign_seed, UINT64_MAX);
}

TEST(Job, NumericSeedsFrom2To53AreRejected) {
    // A JSON number is a double: from 2^53 on it may name a different seed
    // than the one written (9007199254740993 parses as 2^53), and far beyond
    // 2^64 a cast would be undefined. Such seeds must travel as strings.
    for (const char* seed :
         {"1e30", "18446744073709551616", "9007199254740993"}) {
        try {
            (void)JobSpec::from_json(std::string("{\"campaign_seed\":") + seed + "}");
            ADD_FAILURE() << seed << " accepted";
        } catch (const JobError& e) {
            EXPECT_NE(std::string(e.what()).find("decimal string"), std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(JobSpec::from_json("{\"campaign_seed\":9007199254740991}").campaign_seed,
              9007199254740991ULL);
}

TEST(Job, FingerprintSeparatesDifferentJobs) {
    JobSpec a;
    JobSpec b;
    b.campaign_seed = a.campaign_seed + 1;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    JobSpec c;
    c.noise_levels = {1e-3 + 1e-12};
    EXPECT_NE(a.fingerprint(), c.fingerprint());
}

// ---------------------------------------------------------------- checkpoint

std::vector<std::string> sample_lines(std::size_t first, std::size_t count) {
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < count; ++i) {
        fleet::ScenarioOutcome o;
        o.scenario.name = "s" + std::to_string(first + i);
        o.scenario.seed = first + i;
        o.ok = true;
        lines.push_back(fleet::encode_outcome_line(o));
    }
    return lines;
}

TEST(Checkpoint, WritesAndReloadsBatches) {
    const std::string path = temp_path("ckpt_ok");
    {
        CheckpointWriter writer(path, 0x1234, 10);
        writer.append(0, sample_lines(0, 3));
        writer.append(6, sample_lines(6, 4));
        EXPECT_EQ(writer.records_written(), 2u);
    }
    const CheckpointContents contents = load_checkpoint(path, 0x1234, 10);
    EXPECT_FALSE(contents.torn_tail);
    ASSERT_EQ(contents.batches.size(), 2u);
    EXPECT_EQ(contents.batches[0].first, 0u);
    EXPECT_EQ(contents.batches[0].lines.size(), 3u);
    EXPECT_EQ(contents.batches[1].first, 6u);

    // Resume appends more records to the same journal.
    {
        CheckpointWriter writer = CheckpointWriter::resume(path, 0x1234, 10);
        writer.append(3, sample_lines(3, 3));
    }
    EXPECT_EQ(load_checkpoint(path, 0x1234, 10).batches.size(), 3u);
}

TEST(Checkpoint, TornTailIsDroppedNotFatal) {
    const std::string path = temp_path("ckpt_torn");
    {
        CheckpointWriter writer(path, 0x1234, 10);
        writer.append(0, sample_lines(0, 3));
        writer.append(3, sample_lines(3, 3));
    }
    // Chop the file mid-way through the second record, as a crash would.
    std::ifstream in(path, std::ios::binary);
    std::stringstream all;
    all << in.rdbuf();
    in.close();
    const std::string full = all.str();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << full.substr(0, full.size() - 30);
    out.close();

    const CheckpointContents contents = load_checkpoint(path, 0x1234, 10);
    EXPECT_TRUE(contents.torn_tail);
    ASSERT_EQ(contents.batches.size(), 1u);
    EXPECT_EQ(contents.batches[0].first, 0u);
}

TEST(Checkpoint, ResumeAfterTornTailTruncatesAndStaysLoadable) {
    const std::string path = temp_path("ckpt_torn_resume");
    {
        CheckpointWriter writer(path, 0x1234, 10);
        writer.append(0, sample_lines(0, 3));
        writer.append(3, sample_lines(3, 3));
    }
    // Crash shape: chop the file mid-way through the second record.
    std::ifstream in(path, std::ios::binary);
    std::stringstream all;
    all << in.rdbuf();
    in.close();
    const std::string full = all.str();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << full.substr(0, full.size() - 30);
    out.close();

    // Resume must drop the torn tail from the file itself before appending;
    // otherwise the partial record ends up mid-file and the next load sees
    // hard corruption instead of a clean journal.
    {
        CheckpointWriter writer = CheckpointWriter::resume(path, 0x1234, 10);
        writer.append(3, sample_lines(3, 3));
        writer.append(6, sample_lines(6, 4));
    }
    const CheckpointContents contents = load_checkpoint(path, 0x1234, 10);
    EXPECT_FALSE(contents.torn_tail);
    ASSERT_EQ(contents.batches.size(), 3u);
    EXPECT_EQ(contents.batches[1].first, 3u);
    EXPECT_EQ(contents.batches[2].first, 6u);
    EXPECT_EQ(contents.batches[2].lines.size(), 4u);

    // A second crash + resume cycle over the same journal must also work.
    std::ifstream in2(path, std::ios::binary);
    std::stringstream all2;
    all2 << in2.rdbuf();
    in2.close();
    const std::string full2 = all2.str();
    std::ofstream out2(path, std::ios::binary | std::ios::trunc);
    out2 << full2.substr(0, full2.size() - 1);  // tear just the final newline
    out2.close();
    {
        CheckpointWriter writer = CheckpointWriter::resume(path, 0x1234, 10);
        writer.append(6, sample_lines(6, 4));
    }
    EXPECT_EQ(load_checkpoint(path, 0x1234, 10).batches.size(), 3u);
}

TEST(Checkpoint, CorruptJournalsFailLoudly) {
    const std::string path = temp_path("ckpt_bad");
    const auto rewrite = [&](const std::string& content) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << content;
    };

    rewrite("");
    EXPECT_THROW((void)load_checkpoint(path, 0, 0), CheckpointError);

    rewrite("not-a-checkpoint v1 codec 1 fingerprint 0000000000001234 scenarios 10\n");
    EXPECT_THROW((void)load_checkpoint(path, 0, 0), CheckpointError);

    rewrite("refpga-svc-checkpoint v9 codec 1 fingerprint 0000000000001234 scenarios 10\n");
    EXPECT_THROW((void)load_checkpoint(path, 0, 0), CheckpointError);

    const std::string header = "refpga-svc-checkpoint v2 codec 1 model " +
                               std::to_string(fleet::kModelVersion) +
                               " fingerprint 0000000000001234 scenarios 10\n";
    // Mid-file garbage where a batch header belongs (at EOF it would be an
    // ambiguous crash tear and load would drop it instead).
    rewrite(header + "x 0 1\nmore garbage\n");
    EXPECT_THROW((void)load_checkpoint(path, 0, 0), CheckpointError);

    rewrite(header + "b 0 1\ngarbage that is not an outcome line\ne 0\n");
    EXPECT_THROW((void)load_checkpoint(path, 0, 0), CheckpointError);

    // A wrong trailer mid-file is corruption (at EOF it would be an
    // ambiguous tear, which load treats as a dropped tail instead).
    const std::string line = sample_lines(0, 1)[0];
    const std::string line2 = sample_lines(5, 1)[0];
    rewrite(header + "b 0 1\n" + line + "\ne 5\nb 5 1\n" + line2 + "\ne 5\n");
    EXPECT_THROW((void)load_checkpoint(path, 0, 0), CheckpointError);

    rewrite(header + "b 0 1\n" + line + "\ne 0\nb 0 1\n" + line + "\ne 0\n");
    EXPECT_THROW((void)load_checkpoint(path, 0, 0), CheckpointError)
        << "overlapping records must be rejected";

    rewrite(header + "b 9 2\n" + line + "\n" + line + "\ne 9\n");
    EXPECT_THROW((void)load_checkpoint(path, 0, 10), CheckpointError)
        << "records beyond the scenario count must be rejected";

    // Identity checks: wrong fingerprint or grid size refuse to resume.
    rewrite(header);
    EXPECT_THROW((void)load_checkpoint(path, 0x9999, 10), CheckpointError);
    EXPECT_THROW((void)load_checkpoint(path, 0x1234, 11), CheckpointError);
    EXPECT_NO_THROW((void)load_checkpoint(path, 0x1234, 10));
}

TEST(Checkpoint, RefusesJournalOfAnotherModel) {
    // A journal whose outcomes another simulation model produced must not be
    // resumed: merging them with this build's outcomes would make a report
    // neither build produces. The v1 header is the format written before
    // the model field existed (model 1).
    const std::string path = temp_path("ckpt_model");
    const std::string record = "b 0 1\n" + sample_lines(0, 1)[0] + "\ne 0\n";
    const auto expect_refused = [&](const std::string& header) {
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << header << record;
        }
        try {
            (void)load_checkpoint(path, 0x1234, 10);
            ADD_FAILURE() << "loaded: " << header;
        } catch (const CheckpointError& e) {
            EXPECT_NE(std::string(e.what()).find("simulation model"), std::string::npos)
                << e.what();
        }
        EXPECT_THROW((void)CheckpointWriter::resume(path, 0x1234, 10), CheckpointError);
    };
    expect_refused(
        "refpga-svc-checkpoint v1 codec 1 fingerprint 0000000000001234 scenarios 10\n");
    expect_refused("refpga-svc-checkpoint v2 codec 1 model " +
                   std::to_string(fleet::kModelVersion - 1) +
                   " fingerprint 0000000000001234 scenarios 10\n");

    // The writer stamps this build's model, and the same journal loads.
    {
        CheckpointWriter writer(path, 0x1234, 10);
        writer.append(0, sample_lines(0, 1));
    }
    EXPECT_EQ(load_checkpoint(path, 0x1234, 10).batches.size(), 1u);
}

TEST(Checkpoint, TearAtEveryByteOffsetLoadsOrFailsThenResumes) {
    const std::string path = temp_path("ckpt_offsets");
    {
        CheckpointWriter writer(path, 0xabcd, 10);
        writer.set_fsync_every(1);  // durability policy: sync every append
        writer.append(0, sample_lines(0, 3));
        writer.append(3, sample_lines(3, 2));
        writer.sync();
        EXPECT_EQ(writer.records_written(), 2u);
    }
    std::ifstream in(path, std::ios::binary);
    std::stringstream all;
    all << in.rdbuf();
    in.close();
    const std::string full = all.str();
    const std::size_t header_end = full.find('\n') + 1;
    ASSERT_GT(header_end, 1u);

    // A crash can land at any byte. For every prefix of the journal: a cut
    // inside the header is hard corruption; any later cut must load as a
    // valid prefix (complete records kept, the torn tail dropped), and a
    // resume against that prefix must truncate the tear and stay appendable.
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << full.substr(0, cut);
        }
        if (cut < header_end) {
            EXPECT_THROW((void)load_checkpoint(path, 0xabcd, 10),
                         CheckpointError)
                << "cut=" << cut;
            continue;
        }
        CheckpointContents contents;
        ASSERT_NO_THROW(contents = load_checkpoint(path, 0xabcd, 10))
            << "cut=" << cut;
        EXPECT_LE(contents.batches.size(), 2u);
        {
            CheckpointWriter writer = CheckpointWriter::resume(path, 0xabcd, 10);
            writer.append(8, sample_lines(8, 1));
        }
        const CheckpointContents again = load_checkpoint(path, 0xabcd, 10);
        EXPECT_FALSE(again.torn_tail) << "cut=" << cut;
        ASSERT_EQ(again.batches.size(), contents.batches.size() + 1)
            << "cut=" << cut;
        EXPECT_EQ(again.batches.back().first, 8u);
    }
}

// ---------------------------------------------------------------- chaos

TEST(Chaos, SameSeedInjectsIdenticalTrace) {
    ChaosSpec spec;
    spec.torn_frame_prob = 0.2;
    spec.corrupt_length_prob = 0.1;
    spec.corrupt_payload_prob = 0.1;
    spec.drop_frame_prob = 0.15;
    spec.delay_frame_prob = 0.15;
    spec.hang_prob = 0.0;
    spec.slow_batch_prob = 0.3;

    ChaosPlan a(spec, 42);
    ChaosPlan b(spec, 42);
    for (int i = 0; i < 200; ++i) {
        const WireAction wa = a.next_wire_action(64, 59);
        const WireAction wb = b.next_wire_action(64, 59);
        EXPECT_EQ(static_cast<int>(wa.kind), static_cast<int>(wb.kind));
        EXPECT_EQ(wa.cut, wb.cut);
        EXPECT_EQ(wa.offset, wb.offset);
        EXPECT_EQ(a.next_slow(), b.next_slow());
    }
    EXPECT_GT(a.stats().total(), 0u) << "nothing fired in 200 frames";
    EXPECT_EQ(a.trace(), b.trace());

    // A different seed must produce a different schedule.
    ChaosPlan c(spec, 43);
    for (int i = 0; i < 200; ++i) {
        (void)c.next_wire_action(64, 59);
        (void)c.next_slow();
    }
    EXPECT_NE(a.trace(), c.trace());
}

TEST(Chaos, CategoryStreamsAreIndependent) {
    // The drop schedule must be byte-identical whether or not the delay
    // category is also armed: every category draws from its own stream and
    // draws exactly once per frame regardless of what fires.
    ChaosSpec drops_only;
    drops_only.drop_frame_prob = 0.3;
    ChaosSpec drops_and_delays = drops_only;
    drops_and_delays.delay_frame_prob = 0.5;

    ChaosPlan a(drops_only, 7);
    ChaosPlan b(drops_and_delays, 7);
    std::vector<int> drop_frames_a;
    std::vector<int> drop_frames_b;
    for (int i = 0; i < 300; ++i) {
        if (a.next_wire_action(32, 27).kind == WireAction::Kind::Drop)
            drop_frames_a.push_back(i);
        if (b.next_wire_action(32, 27).kind == WireAction::Kind::Drop)
            drop_frames_b.push_back(i);
    }
    EXPECT_FALSE(drop_frames_a.empty());
    EXPECT_EQ(drop_frames_a, drop_frames_b);
    EXPECT_GT(b.stats().delayed_frames, 0u);
}

TEST(Chaos, EveryCategoryFiresAndIsCounted) {
    {
        ChaosSpec spec;
        spec.torn_frame_prob = 1.0;
        ChaosPlan plan(spec, 1);
        const WireAction action = plan.next_wire_action(16, 11);
        EXPECT_EQ(action.kind, WireAction::Kind::Torn);
        EXPECT_GE(action.cut, 1u);
        EXPECT_LT(action.cut, 16u);
        EXPECT_EQ(plan.stats().torn_frames, 1u);
    }
    {
        ChaosSpec spec;
        spec.corrupt_length_prob = 1.0;
        ChaosPlan plan(spec, 1);
        EXPECT_EQ(plan.next_wire_action(16, 11).kind,
                  WireAction::Kind::CorruptLength);
        EXPECT_EQ(plan.stats().corrupt_lengths, 1u);
    }
    {
        ChaosSpec spec;
        spec.corrupt_payload_prob = 1.0;
        ChaosPlan plan(spec, 1);
        const WireAction action = plan.next_wire_action(16, 11);
        EXPECT_EQ(action.kind, WireAction::Kind::CorruptPayload);
        EXPECT_LT(action.offset, 8u);
        EXPECT_EQ(plan.stats().corrupt_payloads, 1u);
    }
    {
        ChaosSpec spec;
        spec.drop_frame_prob = 1.0;
        ChaosPlan plan(spec, 1);
        EXPECT_EQ(plan.next_wire_action(16, 11).kind, WireAction::Kind::Drop);
        EXPECT_EQ(plan.stats().dropped_frames, 1u);
    }
    {
        ChaosSpec spec;
        spec.delay_frame_prob = 1.0;
        spec.delay_ms = 1;
        ChaosPlan plan(spec, 1);
        EXPECT_EQ(plan.next_wire_action(16, 11).kind, WireAction::Kind::Delay);
        EXPECT_EQ(plan.stats().delayed_frames, 1u);
    }
    {
        ChaosSpec spec;
        spec.hang_prob = 1.0;
        spec.slow_batch_prob = 1.0;
        ChaosPlan plan(spec, 1);
        EXPECT_TRUE(plan.next_hang());
        EXPECT_TRUE(plan.next_slow());
        EXPECT_EQ(plan.stats().hangs, 1u);
        EXPECT_EQ(plan.stats().slow_batches, 1u);
    }
    {
        ChaosSpec spec;
        spec.crash_phase = CrashPhase::MidBatch;
        spec.crash_after = 3;
        ChaosPlan plan(spec, 1);
        EXPECT_FALSE(plan.crash_now(CrashPhase::PreInit));  // wrong phase
        EXPECT_FALSE(plan.crash_now(CrashPhase::MidBatch));  // opportunity 1
        EXPECT_FALSE(plan.crash_now(CrashPhase::MidBatch));  // opportunity 2
        EXPECT_TRUE(plan.crash_now(CrashPhase::MidBatch));   // opportunity 3
        EXPECT_EQ(plan.stats().crashes, 1u);
    }
    {
        ChaosSpec spec;
        spec.checkpoint_tear_after = 2;
        ChaosPlan plan(spec, 1);
        EXPECT_FALSE(plan.tear_checkpoint_now());
        EXPECT_TRUE(plan.tear_checkpoint_now());
        EXPECT_EQ(plan.stats().checkpoint_tears, 1u);
    }
}

TEST(Chaos, DisarmedPlanInjectsNothing) {
    ChaosPlan plan(ChaosSpec{}, 99);
    EXPECT_FALSE(plan.armed());
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(plan.next_wire_action(16, 11).kind, WireAction::Kind::None);
        EXPECT_FALSE(plan.next_hang());
        EXPECT_FALSE(plan.next_slow());
        EXPECT_FALSE(plan.crash_now(CrashPhase::MidBatch));
        EXPECT_FALSE(plan.tear_checkpoint_now());
    }
    EXPECT_EQ(plan.stats().total(), 0u);
    EXPECT_TRUE(plan.trace().empty());
}

TEST(Chaos, EncodeParseRoundTripsExactly) {
    ChaosSpec spec;
    spec.torn_frame_prob = 0.1;  // not exactly representable: hexfloat must
    spec.corrupt_length_prob = 0.25;  // round-trip bit-exactly anyway
    spec.corrupt_payload_prob = 1.0 / 3.0;
    spec.delay_frame_prob = 0.05;
    spec.delay_ms = 7;
    spec.drop_frame_prob = 0.9;
    spec.hang_prob = 0.125;
    spec.slow_batch_prob = 1e-9;
    spec.slow_ms = 33;
    spec.crash_phase = CrashPhase::PreTruncateAck;
    spec.crash_after = 5;

    const std::string encoded = encode_chaos(spec, 0xfeedULL);
    ASSERT_EQ(encoded.compare(0, 6, "chaos "), 0);
    const auto [back, seed] = parse_chaos(encoded.substr(6));
    EXPECT_EQ(seed, 0xfeedULL);
    EXPECT_EQ(back.torn_frame_prob, spec.torn_frame_prob);
    EXPECT_EQ(back.corrupt_length_prob, spec.corrupt_length_prob);
    EXPECT_EQ(back.corrupt_payload_prob, spec.corrupt_payload_prob);
    EXPECT_EQ(back.delay_frame_prob, spec.delay_frame_prob);
    EXPECT_EQ(back.delay_ms, spec.delay_ms);
    EXPECT_EQ(back.drop_frame_prob, spec.drop_frame_prob);
    EXPECT_EQ(back.hang_prob, spec.hang_prob);
    EXPECT_EQ(back.slow_batch_prob, spec.slow_batch_prob);
    EXPECT_EQ(back.slow_ms, spec.slow_ms);
    EXPECT_EQ(back.crash_phase, spec.crash_phase);
    EXPECT_EQ(back.crash_after, spec.crash_after);

    // Same (spec, seed) on both sides of the wire: same injected trace.
    ChaosPlan local(spec, seed);
    ChaosPlan remote(back, seed);
    for (int i = 0; i < 64; ++i) {
        const WireAction a = local.next_wire_action(40, 35);
        const WireAction b = remote.next_wire_action(40, 35);
        EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
    }
    EXPECT_EQ(local.trace(), remote.trace());

    EXPECT_TRUE(encode_chaos(ChaosSpec{}, 1).empty())
        << "an unarmed spec must keep the Init line chaos-free";
    EXPECT_THROW((void)parse_chaos("1 2 3"), std::runtime_error);
    EXPECT_THROW((void)parse_chaos("x 0 0 0 0 2 0 0 0 20 none 1"),
                 std::runtime_error);

    // Per-worker derived seeds must differ across slots and generations.
    EXPECT_NE(worker_chaos_seed(1, 0, 0), worker_chaos_seed(1, 1, 0));
    EXPECT_NE(worker_chaos_seed(1, 0, 0), worker_chaos_seed(1, 0, 1));
}

// ---------------------------------------------------------------- worker

struct WorkerHandle {
    pid_t pid = -1;
    int to = -1;    ///< write instructions here
    int from = -1;  ///< read worker frames here

    ~WorkerHandle() {
        if (to >= 0) ::close(to);
        if (from >= 0) ::close(from);
        if (pid > 0) {
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
    }
};

void spawn_worker(WorkerHandle& w) {
    int to_pipe[2];
    int from_pipe[2];
    ASSERT_EQ(::pipe(to_pipe), 0);
    ASSERT_EQ(::pipe(from_pipe), 0);
    w.pid = ::fork();
    ASSERT_GE(w.pid, 0);
    if (w.pid == 0) {
        ::close(to_pipe[1]);
        ::close(from_pipe[0]);
        _exit(worker_main(to_pipe[0], from_pipe[1]));
    }
    ::close(to_pipe[0]);
    ::close(from_pipe[1]);
    w.to = to_pipe[1];
    w.from = from_pipe[0];
}

JobSpec small_spec() {
    JobSpec spec;
    spec.variants = {app::SystemVariant::MonolithicHw,
                     app::SystemVariant::ReconfiguredHw};
    spec.parts = {fabric::PartName::XC3S200, fabric::PartName::XC3S400};
    spec.ports = {fleet::PortKind::Jcap, fleet::PortKind::JcapAccelerated};
    spec.cycles = 2;
    spec.campaign_seed = 909;
    return spec;  // 8 scenarios
}

TEST(Worker, TruncateHandshakeIsExactAtBatchBoundary) {
    WorkerHandle w;
    spawn_worker(w);
    const JobSpec spec = small_spec();
    write_frame(w.to, MsgType::Init, encode_init(1, spec.canonical_json()));
    // Assign all 8 scenarios as shard 0 with batch size 2, then immediately
    // steal everything past index 4. The worker drains control frames
    // before each batch, so it sees the Truncate before running anything
    // and must settle on effective end 4 exactly.
    write_frame(w.to, MsgType::Assign, "0 0 8 2");
    write_frame(w.to, MsgType::Truncate, "0 4");

    bool done = false;
    std::uint64_t acked_end = 0;
    std::uint64_t done_end = 0;
    std::size_t outcomes = 0;
    Frame frame;
    while (!done || acked_end == 0) {
        ASSERT_TRUE(read_frame(w.from, frame)) << "worker hung up early";
        switch (frame.type) {
            case MsgType::Batch: {
                const BatchPayload batch = parse_batch(frame.payload);
                EXPECT_EQ(batch.first, outcomes);
                outcomes += batch.lines.size();
                break;
            }
            case MsgType::ShardDone:
                done = true;
                done_end = parse_fields(frame.payload, 2)[1];
                break;
            case MsgType::TruncateAck:
                acked_end = parse_fields(frame.payload, 2)[1];
                break;
            default:
                FAIL() << "unexpected " << msg_type_name(frame.type);
        }
    }
    EXPECT_EQ(acked_end, 4u);
    EXPECT_EQ(done_end, 4u);
    EXPECT_EQ(outcomes, 4u) << "no outcome past the truncated end may arrive";
    write_frame(w.to, MsgType::Shutdown, "");
}

TEST(Worker, AcksNothingStolenForUnknownShard) {
    WorkerHandle w;
    spawn_worker(w);
    write_frame(w.to, MsgType::Init,
                encode_init(1, small_spec().canonical_json()));
    write_frame(w.to, MsgType::Truncate, "42 0");
    Frame frame;
    ASSERT_TRUE(read_frame(w.from, frame));
    ASSERT_EQ(frame.type, MsgType::TruncateAck);
    EXPECT_EQ(parse_fields(frame.payload, 2)[1], kNothingStolen);
    write_frame(w.to, MsgType::Shutdown, "");
}

TEST(Worker, AnswersPingWithEchoedPong) {
    WorkerHandle w;
    spawn_worker(w);
    write_frame(w.to, MsgType::Init,
                encode_init(1, small_spec().canonical_json()));
    write_frame(w.to, MsgType::Ping, "1729");
    Frame frame;
    ASSERT_TRUE(read_frame(w.from, frame));
    EXPECT_EQ(frame.type, MsgType::Pong);
    EXPECT_EQ(frame.payload, "1729");
    write_frame(w.to, MsgType::Shutdown, "");
}

TEST(Worker, ChaosCrashPreInitDiesBeforeAnyFrame) {
    WorkerHandle w;
    spawn_worker(w);
    ChaosSpec chaos;
    chaos.crash_phase = CrashPhase::PreInit;
    const std::string head = "1 " + encode_chaos(chaos, 5);
    write_frame(w.to, MsgType::Init,
                head + '\n' + small_spec().canonical_json());
    Frame frame;
    EXPECT_FALSE(read_frame(w.from, frame))
        << "a pre-Init crash must close the pipe without producing";
    int status = 0;
    ASSERT_EQ(::waitpid(w.pid, &status, 0), w.pid);
    w.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 9) << "chaos deaths exit with code 9";
}

// ---------------------------------------------------------------- http

TEST(Http, ServesHandlerBodiesOverTcp) {
    HttpEndpoint http;
    http.listen(0);
    ASSERT_TRUE(http.listening());
    const std::uint16_t port = http.port();
    ASSERT_NE(port, 0);

    std::thread client([port] {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof addr),
                  0);
        const std::string req = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
        ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
                  static_cast<ssize_t>(req.size()));
        std::string reply;
        char buf[1024];
        ssize_t r = 0;
        while ((r = ::recv(fd, buf, sizeof buf, 0)) > 0)
            reply.append(buf, static_cast<std::size_t>(r));
        ::close(fd);
        EXPECT_NE(reply.find("200 OK"), std::string::npos);
        EXPECT_NE(reply.find("svc_demo_total 7"), std::string::npos);
    });

    ASSERT_TRUE(http.serve_ready([](const std::string& path, std::string& body) {
        EXPECT_EQ(path, "/metrics");
        body = "svc_demo_total 7\n";
        return true;
    }));
    client.join();
}

TEST(Http, SilentClientCannotWedgeServeReady) {
    HttpEndpoint http;
    http.listen(0);
    ASSERT_TRUE(http.listening());

    // Connect and send nothing: serve_ready runs on the coordinator's event
    // loop, so it must give up on the head read and return, not block.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(http.port());
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);

    const auto start = std::chrono::steady_clock::now();
    EXPECT_TRUE(http.serve_ready(
        [](const std::string&, std::string&) { return false; }));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::seconds(10))
        << "serve_ready must time out on a silent client";
    ::close(fd);
}

// ---------------------------------------------------------------- e2e

std::pair<std::string, std::string> reference_renderings(const JobSpec& spec) {
    fleet::CampaignOptions options(2);
    options.stream_block_ticks = spec.stream_block_ticks;
    const fleet::CampaignResult result =
        fleet::CampaignRunner(options).run(spec.expand());
    const fleet::CampaignReport report = fleet::CampaignReport::from(result);
    return {report.render_text(), report.render_json()};
}

JobSpec fault_spec() {
    JobSpec spec;
    spec.variants = {app::SystemVariant::ReconfiguredHw};
    spec.ports = {fleet::PortKind::Jcap, fleet::PortKind::Icap};
    spec.upset_rates = {0.0, 0.2, 1.0};
    spec.fault_defaults.load_corruption_prob = 0.10;
    spec.cycles = 4;
    spec.campaign_seed = 910;
    return spec;  // 6 scenarios
}

TEST(Job, CanonicalJsonIsStable) {
    // Checkpoints embed fingerprint(), so these literal bytes must never
    // drift: if they do, every existing checkpoint refuses to resume.
    EXPECT_EQ(JobSpec{}.canonical_json(),
              "{\"variants\":[\"reconfigured-hw\"],\"parts\":[\"xc3s400\"],"
              "\"ports\":[\"jcap\"],"
              "\"noise_levels\":[\"0x1.0624dd2f1a9fcp-10\"],"
              "\"upset_rates\":[\"0x0p+0\"],"
              "\"fault\":{\"load_corruption_prob\":\"0x0p+0\","
              "\"flash_error_prob\":\"0x0p+0\","
              "\"glitch_prob_per_cycle\":\"0x0p+0\"},"
              "\"fills\":[{\"start\":\"0x1.999999999999ap-4\","
              "\"end\":\"0x1.ccccccccccccdp-1\"}],\"cycles\":8,"
              "\"campaign_seed\":\"2008\",\"stream_block_ticks\":4096}");
    EXPECT_EQ(JobSpec{}.fingerprint(), 0xf7f911b69143f12aULL);
    EXPECT_EQ(fault_spec().canonical_json(),
              "{\"variants\":[\"reconfigured-hw\"],\"parts\":[\"xc3s400\"],"
              "\"ports\":[\"jcap\",\"icap\"],"
              "\"noise_levels\":[\"0x1.0624dd2f1a9fcp-10\"],"
              "\"upset_rates\":[\"0x0p+0\",\"0x1.999999999999ap-3\","
              "\"0x1p+0\"],"
              "\"fault\":{\"load_corruption_prob\":\"0x1.999999999999ap-4\","
              "\"flash_error_prob\":\"0x0p+0\","
              "\"glitch_prob_per_cycle\":\"0x0p+0\"},"
              "\"fills\":[{\"start\":\"0x1.999999999999ap-4\","
              "\"end\":\"0x1.ccccccccccccdp-1\"}],\"cycles\":4,"
              "\"campaign_seed\":\"910\",\"stream_block_ticks\":4096}");
    EXPECT_EQ(fault_spec().fingerprint(), 0xa90e25dc8bd736b9ULL);
}

TEST(Coordinator, RejectsInvalidSpecBeforeForking) {
    // Built in code, so from_json's validation never saw it: the
    // coordinator must refuse it before creating a spool or forking a
    // worker, instead of letting every worker die on it.
    JobSpec spec = small_spec();
    spec.upset_rates = {0.0, std::nan("")};
    CoordinatorOptions options;
    options.spool_path = temp_path("invalid_spool");
    EXPECT_THROW(Coordinator(spec, options), std::invalid_argument);
    EXPECT_NE(::access(options.spool_path.c_str(), F_OK), 0);
}

TEST(Coordinator, RemovesSpoolWhenDestroyed) {
    CoordinatorOptions options;
    options.workers = 2;
    options.batch = 4;
    options.spool_path = temp_path("removed_spool");
    {
        Coordinator coordinator(small_spec(), options);
        ASSERT_TRUE(coordinator.run().completed);
        EXPECT_EQ(::access(options.spool_path.c_str(), F_OK), 0);
    }
    EXPECT_NE(::access(options.spool_path.c_str(), F_OK), 0)
        << "spool left behind";
}

TEST(Coordinator, MatchesSingleProcessReportByteForByte) {
    for (const JobSpec& spec : {small_spec(), fault_spec()}) {
        const auto [want_text, want_json] = reference_renderings(spec);

        CoordinatorOptions options;
        options.workers = 2;
        options.batch = 2;
        options.spool_path = temp_path("e2e_spool");
        Coordinator coordinator(spec, options);
        const CoordinatorResult result = coordinator.run();
        ASSERT_TRUE(result.completed) << result.error;
        EXPECT_EQ(result.scenarios_committed, spec.grid_size());
        EXPECT_LE(result.max_retained_rows, options.batch);
        EXPECT_EQ(coordinator.report().render_text(), want_text);
        EXPECT_EQ(coordinator.report().render_json(), want_json);
    }
}

TEST(Coordinator, SurvivesWorkerKillWithIdenticalReport) {
    JobSpec spec = small_spec();
    spec.noise_levels = {1e-3, 5e-3};  // 16 scenarios: room for a mid-shard kill
    const auto [want_text, want_json] = reference_renderings(spec);

    CoordinatorOptions options;
    options.workers = 2;
    options.batch = 1;
    options.spool_path = temp_path("kill_spool");
    options.kill_worker = 0;
    options.kill_after_commits = 1;
    options.max_worker_restarts = 2;
    // Pace every generation-0 batch so the kill lands with work
    // outstanding: unpaced, the killed worker can already have finished its
    // shard, and then nothing is left to reassign.
    options.chaos.slow_batch_prob = 1.0;
    options.chaos.slow_ms = 20;

    obs::Recorder recorder;
    options.recorder = &recorder;
    Coordinator coordinator(spec, options);
    const CoordinatorResult result = coordinator.run();
    ASSERT_TRUE(result.completed) << result.error;
    EXPECT_GE(result.shards_reassigned + result.shards_stolen, 1u)
        << "the killed worker's remainder must have been redistributed";
    EXPECT_EQ(coordinator.report().render_text(), want_text);
    EXPECT_EQ(coordinator.report().render_json(), want_json);
    EXPECT_GT(recorder.metrics().value("svc.scenarios_committed_total"),
              0.0);
}

TEST(Coordinator, StopCheckpointResumeCompletesWithoutRecomputing) {
    JobSpec spec = small_spec();
    spec.noise_levels = {1e-3, 5e-3};  // 16 scenarios
    const auto [want_text, want_json] = reference_renderings(spec);
    const std::string ckpt = temp_path("resume_ckpt");

    std::size_t committed_first = 0;
    {
        CoordinatorOptions options;
        options.workers = 2;
        options.batch = 1;
        options.checkpoint_path = ckpt;
        options.spool_path = temp_path("resume_spool_a");
        options.stop_after_commits = 3;
        // Pace every batch so the stop lands with work outstanding: a
        // 2-cycle hardware scenario takes about a millisecond, and unpaced
        // workers can finish the grid before the stop reaches them.
        options.chaos.slow_batch_prob = 1.0;
        options.chaos.slow_ms = 20;
        options.chaos_seed = 10;
        Coordinator coordinator(spec, options);
        const CoordinatorResult result = coordinator.run();
        EXPECT_FALSE(result.completed);
        committed_first = result.scenarios_committed;
        EXPECT_GE(committed_first, 3u);
        EXPECT_LT(committed_first, spec.grid_size());
    }
    {
        CoordinatorOptions options;
        options.workers = 2;
        options.batch = 1;
        options.checkpoint_path = ckpt;
        options.resume = true;
        options.spool_path = temp_path("resume_spool_b");
        Coordinator coordinator(spec, options);
        const CoordinatorResult result = coordinator.run();
        ASSERT_TRUE(result.completed) << result.error;
        EXPECT_EQ(result.scenarios_resumed, committed_first)
            << "resume must replay exactly what the first run committed";
        EXPECT_EQ(coordinator.report().render_text(), want_text);
        EXPECT_EQ(coordinator.report().render_json(), want_json);
    }

    // A resume against a different job must refuse the journal.
    JobSpec other = spec;
    other.campaign_seed += 1;
    CoordinatorOptions options;
    options.checkpoint_path = ckpt;
    options.resume = true;
    options.spool_path = temp_path("resume_spool_c");
    Coordinator coordinator(other, options);
    EXPECT_THROW((void)coordinator.run(), CheckpointError);
}

// ---------------------------------------------------------------- e2e chaos

JobSpec chaos_spec() {
    JobSpec spec = small_spec();
    spec.noise_levels = {1e-3, 5e-3};  // 16 scenarios
    return spec;
}

// Multiplier for every liveness tolerance below. Sanitizer builds (and
// heavily loaded CI runners) slow scenario compute 10-20x, which would push
// healthy workers past reap windows tuned for a plain build and exhaust the
// restart budget on workers that were never faulty. The injected faults
// themselves (an infinite hang, a crash) don't need scaling — only the
// windows that separate "slow" from "dead", and the slow-batch delay that
// must stay distinguishable from ambient slowness. The CI TSan job exports
// REFPGA_TEST_TIME_SCALE=20.
int time_scale() {
    static const int scale = [] {
        const char* raw = std::getenv("REFPGA_TEST_TIME_SCALE");
        const int value = (raw != nullptr) ? std::atoi(raw) : 1;
        return value > 1 ? value : 1;
    }();
    return scale;
}

TEST(Coordinator, HeartbeatReapsHungWorkerWithIdenticalReport) {
    const JobSpec spec = chaos_spec();
    const auto [want_text, want_json] = reference_renderings(spec);

    CoordinatorOptions options;
    options.workers = 2;
    options.batch = 1;
    options.spool_path = temp_path("hang_spool");
    options.chaos.hang_prob = 1.0;  // slot 0 wedges at its first batch
    options.chaos.only_worker = 0;
    options.chaos_seed = 11;
    options.heartbeat_interval_ms = 25 * time_scale();
    options.heartbeat_miss_limit = 2;
    options.liveness_timeout_ms = 120 * time_scale();
    options.max_worker_restarts = 2;
    Coordinator coordinator(spec, options);
    const CoordinatorResult result = coordinator.run();
    ASSERT_TRUE(result.completed) << result.error;
    EXPECT_GE(result.heartbeat_misses, 1u);
    EXPECT_GE(result.liveness_kills, 1u);
    EXPECT_GE(result.worker_restarts, 1u)
        << "the reaped slot must have been restarted (clean) to finish";
    EXPECT_EQ(coordinator.report().render_text(), want_text);
    EXPECT_EQ(coordinator.report().render_json(), want_json);
}

TEST(Coordinator, ProgressDeadlineReapsSilentShardHolder) {
    const JobSpec spec = chaos_spec();
    const auto [want_text, want_json] = reference_renderings(spec);

    // No heartbeats at all: the progress deadline alone must catch a worker
    // that holds a shard and commits nothing.
    CoordinatorOptions options;
    options.workers = 2;
    options.batch = 1;
    options.spool_path = temp_path("deadline_spool");
    options.chaos.hang_prob = 1.0;
    options.chaos.only_worker = 0;
    options.chaos_seed = 12;
    options.progress_timeout_ms = 100 * time_scale();
    options.max_worker_restarts = 2;
    Coordinator coordinator(spec, options);
    const CoordinatorResult result = coordinator.run();
    ASSERT_TRUE(result.completed) << result.error;
    EXPECT_GE(result.deadline_kills, 1u);
    EXPECT_EQ(result.liveness_kills, 0u);
    EXPECT_EQ(coordinator.report().render_text(), want_text);
    EXPECT_EQ(coordinator.report().render_json(), want_json);
}

TEST(Coordinator, CrashPhasesRecoverThroughBackoffRestarts) {
    const JobSpec spec = chaos_spec();
    const auto [want_text, want_json] = reference_renderings(spec);

    for (const CrashPhase phase : {CrashPhase::PreInit, CrashPhase::MidBatch}) {
        SCOPED_TRACE(crash_phase_name(phase));
        CoordinatorOptions options;
        options.workers = 2;
        options.batch = 1;
        options.spool_path = temp_path("crash_spool");
        options.chaos.crash_phase = phase;  // every slot dies once (gen 0)
        options.chaos.crash_after = 1;
        options.chaos_seed = 13;
        options.restart_backoff_ms = 1;  // exercise the scheduled-restart path
        options.restart_backoff_cap_ms = 20;
        options.max_worker_restarts = 2;
        Coordinator coordinator(spec, options);
        const CoordinatorResult result = coordinator.run();
        ASSERT_TRUE(result.completed) << result.error;
        EXPECT_EQ(result.worker_restarts, 2u);
        EXPECT_EQ(coordinator.report().render_text(), want_text);
        EXPECT_EQ(coordinator.report().render_json(), want_json);
    }
}

TEST(Coordinator, QuarantinesCorruptStreamsAndRecovers) {
    const JobSpec spec = chaos_spec();
    const auto [want_text, want_json] = reference_renderings(spec);

    struct Case {
        const char* name;
        double ChaosSpec::*prob;
        bool counts_protocol_error;
    };
    // A torn frame is a clean death (EOF mid-frame, dropped silently); the
    // two corruptions poison the stream and must go through quarantine.
    const Case cases[] = {
        {"torn", &ChaosSpec::torn_frame_prob, false},
        {"corrupt-length", &ChaosSpec::corrupt_length_prob, true},
        {"corrupt-payload", &ChaosSpec::corrupt_payload_prob, true},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        CoordinatorOptions options;
        options.workers = 2;
        options.batch = 1;
        options.spool_path = temp_path("corrupt_spool");
        options.chaos.*(c.prob) = 1.0;  // every slot-0 gen-0 frame affected
        options.chaos.only_worker = 0;
        options.chaos_seed = 14;
        options.max_worker_restarts = 2;
        Coordinator coordinator(spec, options);
        const CoordinatorResult result = coordinator.run();
        ASSERT_TRUE(result.completed) << result.error;
        EXPECT_GE(result.worker_restarts, 1u);
        if (c.counts_protocol_error) {
            EXPECT_GE(result.protocol_errors, 1u);
        }
        EXPECT_EQ(coordinator.report().render_text(), want_text);
        EXPECT_EQ(coordinator.report().render_json(), want_json);
    }
}

TEST(Coordinator, SpeculatesStragglerAndDiscardsDuplicatesExactly) {
    const JobSpec spec = chaos_spec();
    const auto [want_text, want_json] = reference_renderings(spec);

    CoordinatorOptions options;
    options.workers = 2;
    options.batch = 1;
    options.shard = 8;          // one shard per worker
    options.steal_min = 1000;   // disable the exact-steal path entirely
    options.spool_path = temp_path("straggler_spool");
    options.chaos.slow_batch_prob = 1.0;  // slot 0 sleeps before every batch
    options.chaos.slow_ms = 60 * time_scale();
    options.chaos.only_worker = 0;
    options.chaos_seed = 15;
    options.straggler_factor = 2.0;
    options.straggler_min_ms = 40 * time_scale();
    Coordinator coordinator(spec, options);
    const CoordinatorResult result = coordinator.run();
    ASSERT_TRUE(result.completed) << result.error;
    EXPECT_GE(result.speculations, 1u)
        << "the idle fast worker must have re-executed the laggard's range";
    EXPECT_GE(result.duplicates_discarded, 1u)
        << "the losing copy's commits must be discarded, not double-merged";
    EXPECT_EQ(result.shards_stolen, 0u);
    EXPECT_EQ(coordinator.report().render_text(), want_text);
    EXPECT_EQ(coordinator.report().render_json(), want_json);
}

TEST(Coordinator, MinWorkersFailsFastWhenFleetCannotRecover) {
    // The healthy worker's share must outlast slot 0's crash-restart-crash
    // loop, or it finishes the grid and the run legitimately completes. The
    // chaos spec is scoped to slot 0, so its slow-batch knob cannot pace the
    // healthy slot; 64-cycle scenarios do.
    JobSpec spec = chaos_spec();
    spec.cycles = 64;

    CoordinatorOptions options;
    options.workers = 2;
    options.batch = 1;
    options.spool_path = temp_path("minworkers_spool");
    options.chaos.crash_phase = CrashPhase::MidBatch;
    options.chaos.crash_after = 1;
    options.chaos.only_worker = 0;  // slot 0 dies in every generation
    options.chaos_all_generations = true;
    options.chaos_seed = 16;
    options.max_worker_restarts = 1;
    options.min_workers = 2;
    Coordinator coordinator(spec, options);
    const CoordinatorResult result = coordinator.run();
    EXPECT_FALSE(result.completed);
    EXPECT_FALSE(result.partial);
    EXPECT_NE(result.error.find("min_workers"), std::string::npos)
        << result.error;
    EXPECT_EQ(result.worker_restarts, 1u);
}

TEST(Coordinator, PartialOkFinishesDegradedWithExplicitlyPartialReport) {
    const JobSpec spec = chaos_spec();

    // Persistent fault: every incarnation of every worker commits one batch
    // and dies. Once the restart budget is gone the run must finish with
    // what it has and say so in both renderings.
    CoordinatorOptions options;
    options.workers = 2;
    options.batch = 1;
    options.spool_path = temp_path("partial_spool");
    options.chaos.crash_phase = CrashPhase::MidBatch;
    options.chaos.crash_after = 2;
    options.chaos_all_generations = true;
    options.chaos_seed = 17;
    options.max_worker_restarts = 2;
    options.partial_ok = true;
    Coordinator coordinator(spec, options);
    const CoordinatorResult result = coordinator.run();
    EXPECT_FALSE(result.completed);
    ASSERT_TRUE(result.partial) << result.error;
    EXPECT_TRUE(result.error.empty()) << result.error;
    EXPECT_GE(result.scenarios_committed, 2u);
    EXPECT_LT(result.scenarios_committed, spec.grid_size());

    const std::string text = coordinator.report().render_text();
    EXPECT_NE(text.find("partial: " +
                        std::to_string(result.scenarios_committed) + "/" +
                        std::to_string(spec.grid_size()) +
                        " scenarios committed; missing:"),
              std::string::npos)
        << text.substr(0, 200);
    const std::string json = coordinator.report().render_json();
    EXPECT_NE(json.find("\"partial\":{\"expected_count\":" +
                        std::to_string(spec.grid_size()) +
                        ",\"missing_ranges\":["),
              std::string::npos);
}

TEST(Coordinator, ChaosCheckpointTearAbortsThenResumeCompletes) {
    const JobSpec spec = chaos_spec();
    const auto [want_text, want_json] = reference_renderings(spec);
    const std::string ckpt = temp_path("chaos_tear_ckpt");

    {
        CoordinatorOptions options;
        options.workers = 2;
        options.batch = 1;
        options.checkpoint_path = ckpt;
        options.spool_path = temp_path("chaos_tear_spool_a");
        options.chaos.checkpoint_tear_after = 3;  // 3rd append lands torn
        options.chaos.checkpoint_tear_bytes = 7;
        options.chaos_seed = 18;
        Coordinator coordinator(spec, options);
        const CoordinatorResult result = coordinator.run();
        EXPECT_FALSE(result.completed);
        EXPECT_NE(result.error.find("chaos"), std::string::npos)
            << result.error;
        EXPECT_EQ(result.chaos_faults_injected, 1u);
    }
    // The journal must hold exactly the two complete records plus a
    // recoverable torn tail — the on-disk shape of a real crash mid-append.
    const CheckpointContents contents =
        load_checkpoint(ckpt, spec.fingerprint(), spec.grid_size());
    EXPECT_TRUE(contents.torn_tail);
    ASSERT_EQ(contents.batches.size(), 2u);
    {
        CoordinatorOptions options;
        options.workers = 2;
        options.batch = 1;
        options.checkpoint_path = ckpt;
        options.resume = true;
        options.spool_path = temp_path("chaos_tear_spool_b");
        Coordinator coordinator(spec, options);
        const CoordinatorResult result = coordinator.run();
        ASSERT_TRUE(result.completed) << result.error;
        EXPECT_EQ(result.scenarios_resumed, 2u);
        EXPECT_EQ(coordinator.report().render_text(), want_text);
        EXPECT_EQ(coordinator.report().render_json(), want_json);
    }
}

TEST(Coordinator, PreCheckpointCrashAbortsThenResumeCompletes) {
    const JobSpec spec = chaos_spec();
    const auto [want_text, want_json] = reference_renderings(spec);
    const std::string ckpt = temp_path("chaos_crash_ckpt");

    {
        CoordinatorOptions options;
        options.workers = 2;
        options.batch = 1;
        options.checkpoint_path = ckpt;
        options.spool_path = temp_path("chaos_crash_spool_a");
        options.chaos.crash_phase = CrashPhase::PreCheckpoint;
        options.chaos.crash_after = 2;  // die right before the 2nd append
        options.chaos_seed = 19;
        Coordinator coordinator(spec, options);
        const CoordinatorResult result = coordinator.run();
        EXPECT_FALSE(result.completed);
        EXPECT_NE(result.error.find("chaos"), std::string::npos)
            << result.error;
        EXPECT_EQ(result.chaos_faults_injected, 1u);
    }
    const CheckpointContents contents =
        load_checkpoint(ckpt, spec.fingerprint(), spec.grid_size());
    EXPECT_FALSE(contents.torn_tail);
    ASSERT_EQ(contents.batches.size(), 1u);
    {
        CoordinatorOptions options;
        options.workers = 2;
        options.batch = 1;
        options.checkpoint_path = ckpt;
        options.resume = true;
        options.spool_path = temp_path("chaos_crash_spool_b");
        Coordinator coordinator(spec, options);
        const CoordinatorResult result = coordinator.run();
        ASSERT_TRUE(result.completed) << result.error;
        EXPECT_EQ(result.scenarios_resumed, 1u);
        EXPECT_EQ(coordinator.report().render_text(), want_text);
        EXPECT_EQ(coordinator.report().render_json(), want_json);
    }
}

}  // namespace
}  // namespace refpga::svc
