#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "refpga/netlist/builder.hpp"
#include "refpga/netlist/drc.hpp"
#include "refpga/netlist/netlist.hpp"
#include "refpga/netlist/simgraph.hpp"
#include "refpga/netlist/stats.hpp"

namespace refpga::netlist {
namespace {

std::size_t count_kind(const Netlist& nl, CellKind kind) {
    return static_cast<std::size_t>(std::count_if(
        nl.cells().begin(), nl.cells().end(), [&](const Cell& c) { return c.kind == kind; }));
}

Netlist make_with_clock(NetId& clk) {
    Netlist nl;
    clk = nl.add_input_port("clk", 1)[0];
    return nl;
}

// ---------------------------------------------------------------- netlist core

TEST(Netlist, LutCreatesDrivenOutput) {
    Netlist nl;
    const NetId a = nl.add_net("a");
    const NetId o = nl.add_lut(0x1, std::vector<NetId>{a}, "inv");
    EXPECT_TRUE(nl.net(o).driven());
    EXPECT_EQ(nl.sinks(a).size(), 1u);
}

TEST(Netlist, FfMarksClock) {
    NetId clk;
    Netlist nl = make_with_clock(clk);
    const NetId d = nl.add_input_port("d", 1)[0];
    (void)nl.add_ff(d, clk, NetId{}, "ff");
    EXPECT_TRUE(nl.net(clk).is_clock);
    EXPECT_EQ(nl.clock_nets().size(), 1u);
}

TEST(Netlist, LutRejectsTooManyInputs) {
    Netlist nl;
    std::vector<NetId> ins;
    for (int i = 0; i < 5; ++i) ins.push_back(nl.add_net("n"));
    EXPECT_THROW(nl.add_lut(0, ins, "bad"), ContractViolation);
}

TEST(Netlist, PortsAreRecorded) {
    Netlist nl;
    const auto bus = nl.add_input_port("in", 4);
    nl.add_output_port("out", bus);
    ASSERT_NE(nl.find_port("in"), nullptr);
    ASSERT_NE(nl.find_port("out"), nullptr);
    EXPECT_EQ(nl.find_port("in")->nets.size(), 4u);
    EXPECT_EQ(nl.find_port("missing"), nullptr);
}

TEST(Netlist, DuplicatePortNameRejected) {
    Netlist nl;
    (void)nl.add_input_port("p", 1);
    EXPECT_THROW(nl.add_input_port("p", 1), ContractViolation);
}

TEST(Netlist, ConstantsAreSingletons) {
    Netlist nl;
    EXPECT_EQ(nl.add_gnd(), nl.add_gnd());
    EXPECT_EQ(nl.add_vcc(), nl.add_vcc());
    EXPECT_NE(nl.add_gnd(), nl.add_vcc());
}

TEST(Netlist, PartitionsAssignCells) {
    Netlist nl;
    const PartitionId p1 = nl.add_partition("module1");
    const NetId a = nl.add_net("a");
    nl.set_current_partition(p1);
    const NetId o = nl.add_lut(0x1, std::vector<NetId>{a}, "inv");
    EXPECT_EQ(nl.cell(nl.net(o).driver.cell).partition, p1);
}

TEST(Netlist, BramRoundTripConfig) {
    NetId clk;
    Netlist nl = make_with_clock(clk);
    const auto addr = nl.add_input_port("addr", 4);
    BramConfig cfg;
    cfg.addr_bits = 4;
    cfg.data_bits = 8;
    cfg.init = {1, 2, 3};
    const auto out = nl.add_bram(cfg, addr, clk, NetId{}, {}, "rom");
    EXPECT_EQ(out.size(), 8u);
    const Cell& cell = nl.cell(nl.net(out[0]).driver.cell);
    EXPECT_EQ(nl.bram_config(cell).depth(), 16u);
    EXPECT_EQ(nl.bram_config(cell).init.size(), 16u);  // padded
}

// ---------------------------------------------------------------- builder

class BuilderTest : public ::testing::Test {
protected:
    BuilderTest() : clk_(), nl_(make_with_clock(clk_)), b_(nl_, clk_) {}
    NetId clk_;
    Netlist nl_;
    Builder b_;
};

TEST_F(BuilderTest, ConstantWidthAndCells) {
    const Bus c = b_.constant(0b1010, 4);
    EXPECT_EQ(c.size(), 4u);
    EXPECT_EQ(nl_.net(c[0]).driver.cell, nl_.net(c[2]).driver.cell);  // both gnd
    EXPECT_EQ(nl_.net(c[1]).driver.cell, nl_.net(c[3]).driver.cell);  // both vcc
}

TEST_F(BuilderTest, AddCreatesExpectedLutCount) {
    const Bus a = nl_.add_input_port("a", 8);
    const Bus x = nl_.add_input_port("x", 8);
    const std::size_t before = count_kind(nl_, CellKind::Lut);
    (void)b_.add(a, x);
    // 8 sum LUTs + 7 carry LUTs.
    EXPECT_EQ(count_kind(nl_, CellKind::Lut) - before, 15u);
}

TEST_F(BuilderTest, RegUsesFfPerBit) {
    const Bus a = nl_.add_input_port("a", 5);
    (void)b_.reg(a);
    EXPECT_EQ(count_kind(nl_, CellKind::Ff), 5u);
}

TEST_F(BuilderTest, ScopedNames) {
    b_.push_scope("top");
    b_.push_scope("sub");
    const NetId o = b_.not_(nl_.add_input_port("a", 1)[0]);
    b_.pop_scope();
    b_.pop_scope();
    EXPECT_EQ(nl_.name(nl_.net(o).driver.cell).rfind("top/sub/", 0), 0u);
}

TEST_F(BuilderTest, SliceAndConcat) {
    const Bus a = nl_.add_input_port("a", 8);
    const Bus hi = Builder::slice(a, 4, 4);
    EXPECT_EQ(hi[0], a[4]);
    const Bus cat = Builder::concat(Builder::slice(a, 0, 4), hi);
    EXPECT_EQ(cat.size(), 8u);
    EXPECT_EQ(cat[7], a[7]);
}

TEST_F(BuilderTest, ExtendWidths) {
    const Bus a = nl_.add_input_port("a", 3);
    EXPECT_EQ(b_.zero_extend(a, 6).size(), 6u);
    const Bus s = b_.sign_extend(a, 6);
    EXPECT_EQ(s[5], a[2]);
}

TEST_F(BuilderTest, CounterPassesDrc) {
    (void)b_.counter(4);
    EXPECT_TRUE(run_drc(nl_).empty());
}

// A feedback splice appends the FF's D pin after the next-state net's
// earlier sinks, which were created after the FF and so have higher cell
// indices: the sink list keeps connection order, not cell-index order. That
// order sets route order, timing's sink index and every report digest.
TEST_F(BuilderTest, FeedbackSpliceKeepsConnectionOrder) {
    const NetId en = nl_.add_input_port("en", 1)[0];
    NetId next;
    const Bus q = b_.feedback_reg(
        1,
        [&](const Bus& state) {
            next = b_.not_(state[0]);
            (void)b_.and_(next, en);  // sinks `next` before the splice
            return Bus{next};
        },
        NetId{}, "t");
    (void)b_.or_(next, en);  // sinks `next` after the splice

    const CellId ff = nl_.net(q[0]).driver.cell;
    EXPECT_EQ(nl_.name(ff), "t0_0");
    EXPECT_EQ(nl_.name(q[0]), "t0_0.q");
    EXPECT_EQ(nl_.name(next), "not_1.o");
    EXPECT_EQ(nl_.inputs(ff)[0], next);

    const auto sinks = nl_.sinks(next);
    ASSERT_EQ(sinks.size(), 3u);
    EXPECT_EQ(nl_.name(sinks[0].cell), "and_2");
    EXPECT_EQ(sinks[1], (PinRef{ff, 0}));
    EXPECT_EQ(nl_.name(sinks[2].cell), "or_3");
    EXPECT_LT(ff.value(), sinks[0].cell.value());

    // The placeholder D net keeps its name and loses its one sink.
    NetId placeholder;
    for (std::uint32_t i = 0; i < nl_.net_count(); ++i)
        if (nl_.name(NetId{i}) == "t_d0") placeholder = NetId{i};
    ASSERT_TRUE(placeholder.valid());
    EXPECT_EQ(nl_.net(placeholder).fanout(), 0u);
    EXPECT_TRUE(nl_.sinks(placeholder).empty());
    EXPECT_TRUE(run_drc(nl_).empty());
}

TEST_F(BuilderTest, FeedbackRegWidthMismatchRejected) {
    EXPECT_THROW(b_.feedback_reg(4, [&](const Bus&) { return b_.constant(0, 3); }),
                 ContractViolation);
}

TEST_F(BuilderTest, RomLutUsesNoBram) {
    const Bus addr = nl_.add_input_port("addr", 6);
    (void)b_.rom_lut(addr, {1, 2, 3, 4}, 8);
    EXPECT_EQ(count_kind(nl_, CellKind::Bram), 0u);
    EXPECT_GT(count_kind(nl_, CellKind::Lut), 0u);
}

TEST_F(BuilderTest, MulUsesOneMult18) {
    const Bus a = nl_.add_input_port("a", 12);
    const Bus x = nl_.add_input_port("x", 10);
    (void)b_.mul_mult18(a, x, 22, 0);
    EXPECT_EQ(count_kind(nl_, CellKind::Mult18), 1u);
}

// Readers of a const netlist may race to its first sink list and SimGraph:
// each is built once and every reader gets the same one.
TEST_F(BuilderTest, ConcurrentFirstReadersShareOneDerivedState) {
    const Bus q = b_.counter(12);
    const Netlist& nl = nl_;
    std::vector<const SimGraph*> graphs(4);
    std::vector<const PinRef*> sinks(4);
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < graphs.size(); ++t)
        readers.emplace_back([&, t] {
            sinks[t] = nl.sinks(q[0]).data();
            graphs[t] = &nl.sim_graph();
        });
    for (std::thread& r : readers) r.join();
    for (std::size_t t = 1; t < graphs.size(); ++t) {
        EXPECT_EQ(graphs[t], graphs[0]);
        EXPECT_EQ(sinks[t], sinks[0]);
    }
    EXPECT_EQ(graphs[0], &nl.sim_graph());
    EXPECT_FALSE(nl.sinks(q[0]).empty());
}

// ---------------------------------------------------------------- drc

TEST(Drc, CleanDesignHasNoIssues) {
    NetId clk;
    Netlist nl = make_with_clock(clk);
    Builder b(nl, clk);
    const Bus a = nl.add_input_port("a", 4);
    nl.add_output_port("o", b.reg(b.increment(a)));
    EXPECT_TRUE(run_drc(nl).empty());
    EXPECT_NO_THROW(require_clean(nl));
}

TEST(Drc, DetectsUndrivenNet) {
    Netlist nl;
    const NetId floating = nl.add_net("floating");
    (void)nl.add_lut(0x1, std::vector<NetId>{floating}, "inv");
    const auto issues = run_drc(nl);
    ASSERT_FALSE(issues.empty());
    EXPECT_EQ(issues[0].kind, DrcIssue::Kind::UndrivenNet);
    EXPECT_THROW(require_clean(nl), ContractViolation);
}

TEST(Drc, DetectsCombinationalLoop) {
    Netlist nl;
    const NetId seed = nl.add_input_port("a", 1)[0];
    const NetId o1 = nl.add_lut(0x1, std::vector<NetId>{seed}, "l1");
    // Rewire l1's input to its own output to create a loop.
    nl.rewire(PinRef{nl.net(o1).driver.cell, 0}, o1);
    EXPECT_EQ(nl.net(seed).fanout(), 0u);
    const auto issues = run_drc(nl);
    bool found = false;
    for (const auto& i : issues)
        if (i.kind == DrcIssue::Kind::CombinationalLoop) found = true;
    EXPECT_TRUE(found);
}

TEST(Drc, DetectsClockUsedAsData) {
    NetId clk;
    Netlist nl = make_with_clock(clk);
    const NetId d = nl.add_input_port("d", 1)[0];
    (void)nl.add_ff(d, clk, NetId{}, "ff");
    (void)nl.add_lut(0x1, std::vector<NetId>{clk}, "bad");
    const auto issues = run_drc(nl);
    bool found = false;
    for (const auto& i : issues)
        if (i.kind == DrcIssue::Kind::ClockUsedAsData) found = true;
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------- stats

TEST(Stats, CountsPerPartition) {
    NetId clk;
    Netlist nl = make_with_clock(clk);
    Builder b(nl, clk);
    const Bus a = nl.add_input_port("a", 4);
    (void)b.reg(b.not_bus(a));  // 4 LUTs + 4 FFs in static
    const PartitionId p1 = nl.add_partition("mod");
    nl.set_current_partition(p1);
    (void)b.not_bus(a);  // 4 LUTs in mod
    const auto stats = partition_stats(nl);
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].luts, 4u);
    EXPECT_EQ(stats[0].ffs, 4u);
    EXPECT_EQ(stats[1].luts, 4u);
    EXPECT_EQ(stats[1].ffs, 0u);
}

TEST(Stats, SliceEstimatePacksTwoPerSlice) {
    PartitionStats s;
    s.luts = 10;
    s.ffs = 4;
    EXPECT_EQ(s.slices(), 5u);
    s.ffs = 13;
    EXPECT_EQ(s.slices(), 7u);
}

TEST(Stats, TotalMatchesSum) {
    NetId clk;
    Netlist nl = make_with_clock(clk);
    Builder b(nl, clk);
    (void)b.counter(8);
    const auto total = total_stats(nl);
    const auto per = partition_stats(nl);
    std::size_t luts = 0;
    for (const auto& p : per) luts += p.luts;
    EXPECT_EQ(total.luts, luts);
    EXPECT_EQ(total.ffs, 8u);
}

}  // namespace
}  // namespace refpga::netlist
