// refpga::svc — sharded campaign service.
//
// Covers the layers bottom-up: frame protocol, JSON parser, job specs,
// checkpoint journal (including the corrupt/truncated failure paths), the
// worker protocol driven directly over pipes, and end-to-end coordinator
// runs that must render byte-identical reports to the single-process
// CampaignRunner — including after a SIGKILLed worker's batch is requeued
// and after a graceful stop plus checkpoint resume, at the same or another
// batch size. Worker faults are injected through the test-support
// FaultScript.
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
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "refpga/common/json.hpp"
#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/outcome_codec.hpp"
#include "refpga/fleet/report.hpp"
#include "refpga/svc/checkpoint.hpp"
#include "refpga/svc/coordinator.hpp"
#include "refpga/svc/fault_script.hpp"
#include "refpga/svc/http.hpp"
#include "refpga/svc/job.hpp"
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
        write_frame(p[1], MsgType::Assign, "0 8");
        write_frame(p[1], MsgType::Batch, "0 1\n{}\n");
        write_frame(p[1], MsgType::WorkerError, "");
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
    EXPECT_EQ(frames[0].payload, "0 8");
    EXPECT_EQ(frames[1].type, MsgType::Batch);
    EXPECT_EQ(frames[2].type, MsgType::WorkerError);
    EXPECT_TRUE(frames[2].payload.empty());
}

TEST(Wire, CorruptPrefixThrows) {
    FrameReader reader;
    const char bogus[] = "\xff\xff\xff\xff\x01";  // 4 GiB payload claim
    reader.feed(bogus, sizeof bogus - 1);
    EXPECT_THROW((void)reader.next(), WireError);
}

TEST(Wire, RejectsUnknownFrameTypes) {
    // Message types are 1 (Assign) to 3 (WorkerError). 4 and 5 are what a
    // peer of the five-type protocol would send as Batch and WorkerError.
    for (const int type : {0, 4, 5, 255}) {
        SCOPED_TRACE(type);
        const char header[5] = {0, 0, 0, 0, static_cast<char>(type)};
        FrameReader reader;
        reader.feed(header, sizeof header);
        EXPECT_THROW((void)reader.next(), WireError);

        int p[2];
        ASSERT_EQ(::pipe(p), 0);
        ASSERT_EQ(::write(p[1], header, sizeof header),
                  static_cast<ssize_t>(sizeof header));
        ::close(p[1]);
        Frame frame;
        EXPECT_THROW((void)read_frame(p[0], frame), WireError);
        ::close(p[0]);
    }
}

TEST(Wire, PayloadHelpersValidateShape) {
    EXPECT_EQ(parse_fields("3 14 15", 3),
              (std::vector<std::uint64_t>{3, 14, 15}));
    EXPECT_THROW((void)parse_fields("3 14", 3), WireError);
    EXPECT_THROW((void)parse_fields("3 x 15", 3), WireError);

    // Fields that overflow u64 must throw, not wrap; the largest value,
    // 2^64-1, must still round-trip.
    EXPECT_THROW((void)parse_fields("99999999999999999999999", 1), WireError);
    EXPECT_THROW((void)parse_fields("18446744073709551616", 1), WireError);
    EXPECT_EQ(parse_fields("18446744073709551615", 1)[0],
              18446744073709551615ULL);

    const std::vector<std::string> lines{"{\"a\":1}", "{\"b\":2}"};
    const BatchPayload batch = parse_batch(encode_batch(40, lines));
    EXPECT_EQ(batch.first, 40u);
    EXPECT_EQ(batch.lines, lines);
    EXPECT_THROW((void)parse_batch("40 2\n{\"a\":1}\n"), WireError);
    EXPECT_THROW((void)parse_batch("7 40 1\n{\"a\":1}\n"), WireError);
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

    EXPECT_NO_THROW(
        (void)parse_json(R"({"a":[1,2.5,-3e4],"b":"x\"y","c":true,"d":null})"));
    EXPECT_THROW((void)parse_json("{\"a\":1} trailing"), JsonError);
    EXPECT_THROW((void)parse_json("{} trailing"), JsonError);
    EXPECT_THROW((void)parse_json("{\"a\":1,\"a\":2}"), JsonError);
    EXPECT_THROW((void)parse_json("{\"a\":}"), JsonError);
    EXPECT_THROW((void)parse_json("{\"a\":1"), JsonError);
    EXPECT_THROW((void)parse_json("[1,]"), JsonError);
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

TEST(Job, WronglyTypedValuesNameTheirKey) {
    // Each key given a value of the wrong kind, and each list key an element
    // of the wrong kind: a JobError that starts with the key, never a bare
    // JsonError.
    const std::vector<std::pair<std::string, std::string>> docs = {
        {"variants", "{\"variants\":\"software\"}"},
        {"variants", "{\"variants\":[3]}"},
        {"parts", "{\"parts\":3}"},
        {"parts", "{\"parts\":[3]}"},
        {"ports", "{\"ports\":\"jcap\"}"},
        {"ports", "{\"ports\":[null]}"},
        {"noise_levels", "{\"noise_levels\":3}"},
        {"noise_levels", "{\"noise_levels\":[true]}"},
        {"upset_rates", "{\"upset_rates\":{}}"},
        {"upset_rates", "{\"upset_rates\":[[]]}"},
        {"fills", "{\"fills\":3}"},
        {"fills", "{\"fills\":[3]}"},
        {"campaign_seed", "{\"campaign_seed\":true}"},
        {"campaign_seed", "{\"campaign_seed\":[1]}"},
    };
    for (const auto& [key, doc] : docs) {
        try {
            (void)JobSpec::from_json(doc);
            ADD_FAILURE() << doc << " accepted";
        } catch (const JobError& e) {
            EXPECT_EQ(std::string(e.what()).rfind(key + ": ", 0), 0u)
                << doc << ": " << e.what();
        }
    }
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
    EXPECT_EQ(contents.batches[0].outcomes.size(), 3u);
    EXPECT_EQ(contents.batches[1].first, 6u);

    // Resume appends more records to the same journal.
    {
        CheckpointWriter writer =
            CheckpointWriter::resume(path, load_checkpoint(path, 0x1234, 10));
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
        CheckpointWriter writer =
            CheckpointWriter::resume(path, load_checkpoint(path, 0x1234, 10));
        writer.append(3, sample_lines(3, 3));
        writer.append(6, sample_lines(6, 4));
    }
    const CheckpointContents contents = load_checkpoint(path, 0x1234, 10);
    EXPECT_FALSE(contents.torn_tail);
    ASSERT_EQ(contents.batches.size(), 3u);
    EXPECT_EQ(contents.batches[1].first, 3u);
    EXPECT_EQ(contents.batches[2].first, 6u);
    EXPECT_EQ(contents.batches[2].outcomes.size(), 4u);

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
        CheckpointWriter writer =
            CheckpointWriter::resume(path, load_checkpoint(path, 0x1234, 10));
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

    const std::string header = "refpga-svc-checkpoint v2 codec " +
                               std::to_string(fleet::kOutcomeCodecVersion) + " model " +
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
        EXPECT_THROW(
            (void)CheckpointWriter::resume(path, load_checkpoint(path, 0x1234, 10)),
            CheckpointError);
    };
    expect_refused(
        "refpga-svc-checkpoint v1 codec 1 fingerprint 0000000000001234 scenarios 10\n");
    expect_refused("refpga-svc-checkpoint v2 codec " +
                   std::to_string(fleet::kOutcomeCodecVersion) + " model " +
                   std::to_string(fleet::kModelVersion - 1) +
                   " fingerprint 0000000000001234 scenarios 10\n");

    // The writer stamps this build's model, and the same journal loads.
    {
        CheckpointWriter writer(path, 0x1234, 10);
        writer.append(0, sample_lines(0, 1));
    }
    EXPECT_EQ(load_checkpoint(path, 0x1234, 10).batches.size(), 1u);
}

/// A record as codec 1 wrote it: the scenario's 13 keys, then ok, error and
/// the measured fields.
const char* const kCodec1Line =
    "{\"name\":\"monolithic-hw|xc3s200|jcap|n0.001|u0|f0.10-0.90\",\"variant\":1,"
    "\"part\":1,\"port\":0,\"fill_start\":\"0x1.999999999999ap-4\","
    "\"fill_end\":\"0x1.ccccccccccccdp-1\",\"noise_rms_v\":\"0x1.0624dd2f1a9fcp-10\","
    "\"upset_rate\":\"0x0p+0\",\"load_corruption_prob\":\"0x0p+0\","
    "\"flash_error_prob\":\"0x0p+0\",\"glitch_prob_per_cycle\":\"0x0p+0\","
    "\"cycles\":1,\"seed\":7,\"ok\":true,\"error\":\"\","
    "\"level_error_mean\":\"0x1p-7\",\"level_error_max\":\"0x1p-6\","
    "\"cycle_busy_ms\":\"0x1.8p+3\",\"reconfig_ms_per_cycle\":\"0x0p+0\","
    "\"static_mw\":\"0x1.4p+5\",\"dynamic_mw\":\"0x1p+1\","
    "\"reconfig_energy_mj\":\"0x0p+0\",\"upsets_injected\":0,\"upsets_detected\":0,"
    "\"columns_repaired\":0,\"load_retries\":0,\"load_failures\":0,"
    "\"rejected_cycles\":0,\"fallback_cycles\":0,\"availability\":\"0x1p+0\","
    "\"mttd_ms\":\"0x0p+0\",\"mttr_ms\":\"0x0p+0\",\"scrub_ms_per_cycle\":\"0x0p+0\","
    "\"resident_slices\":1200,\"fitted_part\":\"xc3s200\",\"device_fits\":true}";

TEST(Checkpoint, RefusesJournalOfAnotherCodec) {
    // Codec 1 lines carried their scenario; this build's lines carry only
    // what was measured. A journal of the old codec must be refused with
    // both versions named, not decoded or half-resumed.
    const std::string path = temp_path("ckpt_codec");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "refpga-svc-checkpoint v2 codec 1 model " << fleet::kModelVersion
            << " fingerprint 0000000000001234 scenarios 10\nb 0 1\n"
            << kCodec1Line << "\ne 0\n";
    }
    try {
        (void)load_checkpoint(path, 0x1234, 10);
        ADD_FAILURE() << "a codec-1 journal loaded";
    } catch (const CheckpointError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("codec 1"), std::string::npos) << what;
        EXPECT_NE(what.find("codec " + std::to_string(fleet::kOutcomeCodecVersion)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("without --resume"), std::string::npos) << what;
    }
    EXPECT_THROW((void)fleet::decode_outcome_line(kCodec1Line), fleet::CodecError);
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
            CheckpointWriter writer = CheckpointWriter::resume(path, contents);
            writer.append(8, sample_lines(8, 1));
        }
        const CheckpointContents again = load_checkpoint(path, 0xabcd, 10);
        EXPECT_FALSE(again.torn_tail) << "cut=" << cut;
        ASSERT_EQ(again.batches.size(), contents.batches.size() + 1)
            << "cut=" << cut;
        EXPECT_EQ(again.batches.back().first, 8u);
    }
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

/// Forks a worker over `spec`'s grid, as the coordinator does.
void spawn_worker(WorkerHandle& w, const JobSpec& spec,
                  WorkerFaults* faults = nullptr) {
    const std::vector<fleet::Scenario> scenarios = spec.expand();
    fleet::CampaignOptions options;
    options.stream_block_ticks = spec.stream_block_ticks;
    int to_pipe[2];
    int from_pipe[2];
    ASSERT_EQ(::pipe(to_pipe), 0);
    ASSERT_EQ(::pipe(from_pipe), 0);
    w.pid = ::fork();
    ASSERT_GE(w.pid, 0);
    if (w.pid == 0) {
        ::close(to_pipe[1]);
        ::close(from_pipe[0]);
        if (faults != nullptr) faults->start(0, 0);
        _exit(worker_main(to_pipe[0], from_pipe[1], scenarios, options, faults));
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

/// Reaps the worker and returns its exit code (-1 unless it exited).
int exit_code(WorkerHandle& w) {
    int status = 0;
    if (::waitpid(w.pid, &status, 0) != w.pid) return -1;
    w.pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(Worker, RunsOneBatchPerAssignThenIdles) {
    WorkerHandle w;
    const JobSpec spec = small_spec();
    spawn_worker(w, spec);
    write_frame(w.to, MsgType::Assign, "2 3");

    // The assignment is answered by exactly one Batch frame holding it...
    Frame frame;
    ASSERT_TRUE(read_frame(w.from, frame)) << "worker hung up early";
    ASSERT_EQ(frame.type, MsgType::Batch) << msg_type_name(frame.type);
    const BatchPayload batch = parse_batch(frame.payload);
    EXPECT_EQ(batch.first, 2u);
    ASSERT_EQ(batch.lines.size(), 3u);
    // Lines carry no scenario: they must be the outcomes of scenarios [2, 5)
    // of the inherited grid, as an in-process run measures them.
    const std::vector<fleet::Scenario> scenarios = spec.expand();
    fleet::CampaignOptions options;
    options.stream_block_ticks = spec.stream_block_ticks;
    const fleet::CampaignResult want = fleet::CampaignRunner(options).run(
        {scenarios.begin() + 2, scenarios.begin() + 5});
    for (std::size_t i = 0; i < batch.lines.size(); ++i)
        EXPECT_EQ(batch.lines[i], fleet::encode_outcome_line(want.outcomes[i]));

    // ...and by nothing else: once its input pipe is closed the stream ends
    // cleanly at a frame boundary and the worker exits 0.
    ::close(w.to);
    w.to = -1;
    EXPECT_FALSE(read_frame(w.from, frame))
        << "unexpected " << msg_type_name(frame.type) << " after the Batch";
    EXPECT_EQ(exit_code(w), 0);
}

TEST(Worker, ClosedInputStillDeliversTheHeldBatch) {
    // The drain closes a worker's input pipe whatever it holds: a worker
    // that is running a batch must still send it, and only then exit 0.
    WorkerHandle w;
    FaultScript slow(FaultScript::Hook::BeforeBatch, FaultScript::Action::Sleep);
    slow.sleep_ms = 100;
    spawn_worker(w, small_spec(), &slow);
    write_frame(w.to, MsgType::Assign, "0 2");
    ::close(w.to);
    w.to = -1;

    Frame frame;
    ASSERT_TRUE(read_frame(w.from, frame)) << "the held batch was lost";
    ASSERT_EQ(frame.type, MsgType::Batch) << msg_type_name(frame.type);
    EXPECT_EQ(parse_batch(frame.payload).lines.size(), 2u);
    EXPECT_FALSE(read_frame(w.from, frame));
    EXPECT_EQ(exit_code(w), 0);
}

TEST(Worker, ExitBeforeBatchDiesBeforeAnyFrame) {
    WorkerHandle w;
    FaultScript exit_early(FaultScript::Hook::BeforeBatch,
                           FaultScript::Action::Exit);
    spawn_worker(w, small_spec(), &exit_early);
    write_frame(w.to, MsgType::Assign, "0 1");
    Frame frame;
    EXPECT_FALSE(read_frame(w.from, frame))
        << "a crash before the batch must close the pipe without producing";
    EXPECT_EQ(exit_code(w), 9) << "scripted exits use code 9";
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

// Multiplier for every deadline in the e2e tests. Sanitizer builds (and
// heavily loaded CI runners) slow scenario compute 10-20x, which would push
// healthy workers past deadlines tuned for a plain build and exhaust the
// restart budget on workers that were never faulty. The injected faults
// themselves (an infinite hang, a crash) don't need scaling — only the
// deadlines that separate "slow" from "dead", and the slow-batch delay that
// must stay distinguishable from ambient slowness.
// The CI TSan job exports REFPGA_TEST_TIME_SCALE=20.
int time_scale() {
    static const int scale = [] {
        const char* raw = std::getenv("REFPGA_TEST_TIME_SCALE");
        const int value = (raw != nullptr) ? std::atoi(raw) : 1;
        return value > 1 ? value : 1;
    }();
    return scale;
}

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
    // coordinator must refuse it before forking a worker, instead of
    // letting every worker die on it.
    JobSpec spec = small_spec();
    spec.upset_rates = {0.0, std::nan("")};
    EXPECT_THROW(Coordinator(spec, CoordinatorOptions{}), std::invalid_argument);
}

TEST(Coordinator, RejectsMinWorkersAboveWorkers) {
    // A fleet that starts below min_workers can never satisfy it: refused
    // like an invalid spec, before a worker is forked.
    CoordinatorOptions options;
    options.workers = 2;
    options.min_workers = 3;
    EXPECT_THROW(Coordinator(small_spec(), options), std::invalid_argument);
}

TEST(Coordinator, MatchesSingleProcessReportByteForByte) {
    for (const JobSpec& spec : {small_spec(), fault_spec()}) {
        const auto [want_text, want_json] = reference_renderings(spec);

        CoordinatorOptions options;
        options.workers = 2;
        options.batch = 2;
        Coordinator coordinator(spec, options);
        const CoordinatorResult result = coordinator.run();
        ASSERT_TRUE(result.completed) << result.error;
        EXPECT_EQ(result.scenarios_committed, spec.grid_size());
        // One assignment per batch, none of them ever handed out twice.
        EXPECT_EQ(result.shards_dispatched,
                  (spec.grid_size() + options.batch - 1) / options.batch);
        EXPECT_EQ(result.shards_reassigned, 0u);
        EXPECT_EQ(result.worker_restarts, 0u);
        EXPECT_EQ(result.max_retained_rows, spec.grid_size());
        EXPECT_EQ(coordinator.report().render_text(), want_text);
        EXPECT_EQ(coordinator.report().render_json(), want_json);
    }
}

TEST(Coordinator, SurvivesWorkerKillWithIdenticalReport) {
    JobSpec spec = small_spec();
    spec.noise_levels = {1e-3, 5e-3};  // 16 scenarios: room for a mid-run kill
    const auto [want_text, want_json] = reference_renderings(spec);

    CoordinatorOptions options;
    options.workers = 2;
    options.batch = 1;
    options.max_worker_restarts = 2;
    // Slot 0 SIGKILLs itself while it holds its first batch: the batch must
    // be requeued and the slot reforked.
    FaultScript self_kill(FaultScript::Hook::BeforeBatch,
                          FaultScript::Action::Kill);
    self_kill.slot = 0;
    options.worker_faults = &self_kill;

    obs::Recorder recorder;
    options.recorder = &recorder;
    Coordinator coordinator(spec, options);
    const CoordinatorResult result = coordinator.run();
    ASSERT_TRUE(result.completed) << result.error;
    EXPECT_EQ(result.shards_reassigned, 1u)
        << "the killed worker's in-flight batch must have been requeued";
    EXPECT_EQ(result.worker_restarts, 1u);
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
        options.stop_after_commits = 3;
        // Pace every batch so the stop lands with work outstanding: a
        // 2-cycle hardware scenario takes about a millisecond, and unpaced
        // workers can finish the grid before the stop reaches them.
        FaultScript pace(FaultScript::Hook::BeforeBatch,
                         FaultScript::Action::Sleep);
        pace.sleep_ms = 20;
        options.worker_faults = &pace;
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
    Coordinator coordinator(other, options);
    EXPECT_THROW((void)coordinator.run(), CheckpointError);
}

TEST(Coordinator, ResumeWithAnotherBatchSizeCompletes) {
    JobSpec spec = small_spec();
    spec.noise_levels = {1e-3, 5e-3};  // 16 scenarios
    const auto [want_text, want_json] = reference_renderings(spec);
    const std::string ckpt = temp_path("rebatch_ckpt");

    // One worker commits strictly in order, so stopping after 3 commits of
    // batch 3 leaves exactly [0, 9) in the journal and the gap [9, 16).
    std::size_t committed_first = 0;
    {
        CoordinatorOptions options;
        options.workers = 1;
        options.batch = 3;
        options.checkpoint_path = ckpt;
        options.stop_after_commits = 3;
        Coordinator coordinator(spec, options);
        const CoordinatorResult result = coordinator.run();
        EXPECT_FALSE(result.completed);
        committed_first = result.scenarios_committed;
        EXPECT_EQ(committed_first, 9u);
    }
    // Resumed at batch 2, the 7-scenario gap is handed out as 2 + 2 + 2 + 1:
    // the last assignment is shorter than a batch.
    {
        CoordinatorOptions options;
        options.workers = 2;
        options.batch = 2;
        options.checkpoint_path = ckpt;
        options.resume = true;
        Coordinator coordinator(spec, options);
        const CoordinatorResult result = coordinator.run();
        ASSERT_TRUE(result.completed) << result.error;
        EXPECT_EQ(result.scenarios_resumed, committed_first);
        EXPECT_EQ(result.shards_dispatched, 4u);
        EXPECT_EQ(coordinator.report().render_text(), want_text);
        EXPECT_EQ(coordinator.report().render_json(), want_json);
    }
}

// ---------------------------------------------------------------- e2e faults

JobSpec drill_spec() {
    JobSpec spec = small_spec();
    spec.noise_levels = {1e-3, 5e-3};  // 16 scenarios
    return spec;
}

TEST(Coordinator, ProgressDeadlineReapsSilentShardHolder) {
    const JobSpec spec = drill_spec();
    const auto [want_text, want_json] = reference_renderings(spec);

    // The deadline must catch a worker that holds a shard and commits
    // nothing.
    CoordinatorOptions options;
    options.workers = 2;
    options.batch = 1;
    FaultScript hang(FaultScript::Hook::BeforeBatch, FaultScript::Action::Hang);
    hang.slot = 0;
    options.worker_faults = &hang;
    options.progress_timeout_ms = 100 * time_scale();
    options.max_worker_restarts = 2;
    Coordinator coordinator(spec, options);
    const CoordinatorResult result = coordinator.run();
    ASSERT_TRUE(result.completed) << result.error;
    EXPECT_GE(result.deadline_kills, 1u);
    EXPECT_GE(result.worker_restarts, 1u)
        << "the reaped slot must have been restarted (clean) to finish";
    EXPECT_EQ(coordinator.report().render_text(), want_text);
    EXPECT_EQ(coordinator.report().render_json(), want_json);
}

TEST(Coordinator, DeadlineRecoversDroppedBatch) {
    const JobSpec spec = drill_spec();
    const auto [want_text, want_json] = reference_renderings(spec);

    // Slot 0 computes its first batch and drops the Batch frame: it is idle
    // and alive, and the batch it owes never arrives. Only the deadline can
    // free that batch.
    CoordinatorOptions options;
    options.workers = 2;
    options.batch = 1;
    FaultScript drop(FaultScript::Hook::FrameWrite, FaultScript::Action::Drop);
    drop.slot = 0;
    options.worker_faults = &drop;
    options.progress_timeout_ms = 100 * time_scale();
    Coordinator coordinator(spec, options);
    const CoordinatorResult result = coordinator.run();
    ASSERT_TRUE(result.completed) << result.error;
    EXPECT_GE(result.deadline_kills, 1u);
    EXPECT_EQ(coordinator.report().render_text(), want_text);
    EXPECT_EQ(coordinator.report().render_json(), want_json);
}

TEST(Coordinator, StopWithHungWorkerReturnsWithinDeadline) {
    const JobSpec spec = drill_spec();
    const auto [want_text, want_json] = reference_renderings(spec);
    const std::string ckpt = temp_path("hung_stop_ckpt");

    // Slot 0 hangs at its first batch. The deadline leaves slot 1 ample time
    // to commit the two batches that stop the run, so the drain starts with
    // slot 0 still holding its batch and must end at that batch's deadline.
    const int deadline_ms = 500 * time_scale();
    {
        CoordinatorOptions options;
        options.workers = 2;
        options.batch = 1;
        options.checkpoint_path = ckpt;
        FaultScript hang(FaultScript::Hook::BeforeBatch,
                         FaultScript::Action::Hang);
        hang.slot = 0;
        options.worker_faults = &hang;
        options.progress_timeout_ms = deadline_ms;
        options.stop_after_commits = 2;
        Coordinator coordinator(spec, options);
        const auto begin = std::chrono::steady_clock::now();
        const CoordinatorResult result = coordinator.run();
        const auto elapsed = std::chrono::steady_clock::now() - begin;
        EXPECT_FALSE(result.completed);
        EXPECT_EQ(result.scenarios_committed, 2u);
        EXPECT_EQ(result.deadline_kills, 1u);
        EXPECT_LT(elapsed, std::chrono::milliseconds(3 * deadline_ms));
    }
    {
        CoordinatorOptions options;
        options.workers = 2;
        options.batch = 1;
        options.checkpoint_path = ckpt;
        options.resume = true;
        Coordinator coordinator(spec, options);
        const CoordinatorResult result = coordinator.run();
        ASSERT_TRUE(result.completed) << result.error;
        EXPECT_EQ(result.scenarios_resumed, 2u);
        EXPECT_EQ(coordinator.report().render_text(), want_text);
        EXPECT_EQ(coordinator.report().render_json(), want_json);
    }
}

TEST(Coordinator, CrashPhasesRecoverThroughRestarts) {
    const JobSpec spec = drill_spec();
    const auto [want_text, want_json] = reference_renderings(spec);

    const std::pair<const char*, FaultScript::Hook> phases[] = {
        {"before-batch", FaultScript::Hook::BeforeBatch},
        {"after-batch", FaultScript::Hook::AfterBatch},
    };
    for (const auto& [name, hook] : phases) {
        SCOPED_TRACE(name);
        CoordinatorOptions options;
        options.workers = 2;
        options.batch = 1;
        // Every slot dies once, in its first generation.
        FaultScript crash(hook, FaultScript::Action::Exit);
        options.worker_faults = &crash;
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
    const JobSpec spec = drill_spec();
    const auto [want_text, want_json] = reference_renderings(spec);

    struct Case {
        const char* name;
        FaultScript::Action action;
        bool counts_protocol_error;
    };
    // A torn frame is a clean death (EOF mid-frame, dropped silently); the
    // two corruptions poison the stream and must go through quarantine.
    const Case cases[] = {
        {"torn", FaultScript::Action::Tear, false},
        {"corrupt-length", FaultScript::Action::CorruptLength, true},
        {"corrupt-payload", FaultScript::Action::CorruptPayload, true},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        CoordinatorOptions options;
        options.workers = 2;
        options.batch = 1;
        FaultScript fault(FaultScript::Hook::FrameWrite, c.action);
        fault.slot = 0;  // every frame of slot 0's first generation
        options.worker_faults = &fault;
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

TEST(Coordinator, QuarantinesBatchThatDoesNotMatchItsAssignment) {
    const JobSpec spec = drill_spec();
    // The worker's outcome lines stay valid, so the mismatch is the only
    // thing to reject.
    const std::pair<const char*, FaultScript::Action> rewrites[] = {
        {"first", FaultScript::Action::RewriteFirst},
        {"count", FaultScript::Action::RewriteCount},
    };
    for (const auto& [field, action] : rewrites) {
        SCOPED_TRACE(field);
        CoordinatorOptions options;
        options.workers = 1;
        options.batch = 2;
        FaultScript rewrite(FaultScript::Hook::FrameWrite, action);
        options.worker_faults = &rewrite;
        options.max_worker_restarts = 0;
        Coordinator coordinator(spec, options);
        const CoordinatorResult result = coordinator.run();
        EXPECT_FALSE(result.completed);
        EXPECT_EQ(result.protocol_errors, 1u);
        EXPECT_EQ(result.scenarios_committed, 0u)
            << "a batch that does not match its assignment must not commit";
    }
}

TEST(Coordinator, DeadlineReapsWorkerThatDoesNotExitOnClose) {
    const JobSpec spec = drill_spec();
    const auto [want_text, want_json] = reference_renderings(spec);

    // The worker commits the whole grid (4 batches) and then hangs, so it
    // never reads its closed input pipe: an idle worker's deadline starts
    // where the drain closes the pipe, and the run returns once it expires.
    const int deadline_ms = 300 * time_scale();
    CoordinatorOptions options;
    options.workers = 1;
    options.batch = 4;
    FaultScript linger(FaultScript::Hook::FrameWrite, FaultScript::Action::Hang);
    linger.at = 4;
    options.worker_faults = &linger;
    options.progress_timeout_ms = deadline_ms;
    Coordinator coordinator(spec, options);
    const auto begin = std::chrono::steady_clock::now();
    const CoordinatorResult result = coordinator.run();
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    ASSERT_TRUE(result.completed) << result.error;
    EXPECT_EQ(result.deadline_kills, 1u);
    EXPECT_EQ(result.shards_reassigned, 0u);
    EXPECT_LT(elapsed, std::chrono::milliseconds(3 * deadline_ms));
    EXPECT_EQ(coordinator.report().render_text(), want_text);
    EXPECT_EQ(coordinator.report().render_json(), want_json);
}

TEST(Coordinator, StragglerFinishesWithoutReassignment) {
    const JobSpec spec = drill_spec();
    const auto [want_text, want_json] = reference_renderings(spec);

    // Slot 0 runs 60 ms slower per batch. It holds one batch at a time, so
    // the other worker pulls the rest of the grid: nothing dies, nothing is
    // requeued.
    CoordinatorOptions options;
    options.workers = 2;
    options.batch = 1;
    FaultScript slow(FaultScript::Hook::BeforeBatch, FaultScript::Action::Sleep);
    slow.slot = 0;
    slow.sleep_ms = 60;
    options.worker_faults = &slow;
    Coordinator coordinator(spec, options);
    const CoordinatorResult result = coordinator.run();
    ASSERT_TRUE(result.completed) << result.error;
    EXPECT_EQ(result.shards_reassigned, 0u);
    EXPECT_EQ(result.worker_restarts, 0u);
    EXPECT_EQ(coordinator.report().render_text(), want_text);
    EXPECT_EQ(coordinator.report().render_json(), want_json);
}

TEST(Coordinator, WorkersIgnoreTerminalSignals) {
    // A terminal's Ctrl-C signals the whole process group. The coordinator
    // ends its workers itself, so a worker hit by SIGINT or SIGTERM keeps
    // its batch and the run loses nothing.
    struct Interrupted : WorkerFaults {
        void before_batch() override {
            ::raise(SIGINT);
            ::raise(SIGTERM);
        }
    } interrupted;
    const JobSpec spec = drill_spec();
    const auto [want_text, want_json] = reference_renderings(spec);
    CoordinatorOptions options;
    options.workers = 2;
    options.batch = 4;
    options.worker_faults = &interrupted;
    Coordinator coordinator(spec, options);
    const CoordinatorResult result = coordinator.run();
    ASSERT_TRUE(result.completed) << result.error;
    EXPECT_EQ(result.shards_reassigned, 0u);
    EXPECT_EQ(result.worker_restarts, 0u);
    EXPECT_EQ(coordinator.report().render_text(), want_text);
    EXPECT_EQ(coordinator.report().render_json(), want_json);
}

TEST(Coordinator, MinWorkersFailsFastWhenFleetCannotRecover) {
    // The healthy worker's share must outlast slot 0's crash-restart-crash
    // loop, or it finishes the grid and the run legitimately completes. The
    // fault is scoped to slot 0, so 64-cycle scenarios pace the healthy
    // slot.
    JobSpec spec = drill_spec();
    spec.cycles = 64;

    CoordinatorOptions options;
    options.workers = 2;
    options.batch = 1;
    FaultScript crash(FaultScript::Hook::AfterBatch, FaultScript::Action::Exit);
    crash.slot = 0;  // slot 0 dies in every generation
    crash.every_generation = true;
    options.worker_faults = &crash;
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
    const JobSpec spec = drill_spec();

    // Persistent fault: every incarnation of every worker commits one batch
    // and dies. Once the restart budget is gone the run must finish with
    // what it has and say so in both renderings.
    CoordinatorOptions options;
    options.workers = 2;
    options.batch = 1;
    FaultScript crash(FaultScript::Hook::AfterBatch, FaultScript::Action::Exit);
    crash.at = 2;
    crash.every_generation = true;
    options.worker_faults = &crash;
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

/// Completes the drill grid under a journal (batch 1: one record per
/// scenario), cuts the journal `extra_bytes` past the start of record
/// `record` (0-based), the shape a coordinator crash leaves on disk, and
/// resumes it: the resume must replay `kept` records and render the
/// reference bytes.
void resume_after_journal_cut(const std::string& tag, std::size_t record,
                              std::size_t extra_bytes, bool torn,
                              std::size_t kept) {
    const JobSpec spec = drill_spec();
    const auto [want_text, want_json] = reference_renderings(spec);
    const std::string ckpt = temp_path((tag + "_ckpt").c_str());
    CoordinatorOptions options;
    options.workers = 2;
    options.batch = 1;
    options.checkpoint_path = ckpt;
    ASSERT_TRUE(Coordinator(spec, options).run().completed);

    std::ifstream in(ckpt, std::ios::binary);
    std::stringstream all;
    all << in.rdbuf();
    in.close();
    const std::string journal = all.str();
    std::vector<std::size_t> starts;  // outcome lines start with '{'
    for (std::size_t pos = journal.find("\nb "); pos != std::string::npos;
         pos = journal.find("\nb ", pos + 1))
        starts.push_back(pos + 1);
    ASSERT_EQ(starts.size(), spec.grid_size());
    std::ofstream(ckpt, std::ios::binary | std::ios::trunc)
        << journal.substr(0, starts[record] + extra_bytes);
    const CheckpointContents contents =
        load_checkpoint(ckpt, spec.fingerprint(), spec.grid_size());
    EXPECT_EQ(contents.torn_tail, torn);
    ASSERT_EQ(contents.batches.size(), kept);

    options.resume = true;
    Coordinator coordinator(spec, options);
    const CoordinatorResult result = coordinator.run();
    ASSERT_TRUE(result.completed) << result.error;
    EXPECT_EQ(result.scenarios_resumed, kept);
    EXPECT_EQ(coordinator.report().render_text(), want_text);
    EXPECT_EQ(coordinator.report().render_json(), want_json);
}

TEST(Coordinator, CheckpointTearThenResumeCompletes) {
    // Killed mid-append: the journal ends 7 bytes into its 3rd record, a
    // torn tail that resume drops.
    resume_after_journal_cut("tear", 2, 7, /*torn=*/true, /*kept=*/2);
}

TEST(Coordinator, PreCheckpointCrashThenResumeCompletes) {
    // Killed before the 2nd append: the journal ends with its 1st record.
    resume_after_journal_cut("precrash", 1, 0, /*torn=*/false, /*kept=*/1);
}

}  // namespace
}  // namespace refpga::svc
