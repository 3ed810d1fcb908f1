/**
 * @file
 * Unit tests for the litmus representation, the text-format parser, and
 * the built-in registry's integrity.
 */

#include <gtest/gtest.h>

#include "axiomatic/checker.hh"
#include "axiomatic/params.hh"
#include "base/logging.hh"
#include "litmus/herd_parser.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"

namespace rex {
namespace {

TEST(Locations, AddressMapping)
{
    EXPECT_EQ(locationAddress(0), 0x1000u);
    EXPECT_EQ(locationAddress(1), 0x2000u);
    EXPECT_EQ(addressToLocation(0x1000, 2), LocationId{0});
    EXPECT_EQ(addressToLocation(0x2000, 2), LocationId{1});
    EXPECT_FALSE(addressToLocation(0, 2).has_value());
    EXPECT_FALSE(addressToLocation(0x3000, 2).has_value());
    EXPECT_FALSE(addressToLocation(0x1008, 2).has_value());
}

TEST(Parser, FullTest)
{
    LitmusTest test = parseLitmus(
        "name: demo\n"
        "desc: a demo\n"
        "init: *x=0; *y=5; 0:X1=x; 1:X3=y; 1:X0=7; 1:PSTATE.EL=1;"
        " 1:PSTATE.I=1; 1:EOIMode=1\n"
        "thread 0:\n"
        "    MOV X0,#1\n"
        "    STR X0,[X1]\n"
        "thread 1:\n"
        "    LDR X2,[X3]\n"
        "handler 1:\n"
        "    ERET\n"
        "forbidden: 1:X2=0 & *x=1\n"
        "variant SEA_R: allowed\n");
    EXPECT_EQ(test.name, "demo");
    EXPECT_EQ(test.description, "a demo");
    ASSERT_EQ(test.threads.size(), 2u);
    ASSERT_EQ(test.locations.size(), 2u);
    EXPECT_EQ(test.initValues[test.locationId("y")], 5u);
    EXPECT_EQ(test.threads[0].initRegs[1], locationAddress(0));
    EXPECT_EQ(test.threads[1].initRegs[0], 7u);
    EXPECT_EQ(test.threads[1].initialEl, 1);
    EXPECT_TRUE(test.threads[1].initialMasked);
    EXPECT_TRUE(test.threads[1].eoiMode1);
    EXPECT_FALSE(test.expectedAllowed);
    ASSERT_EQ(test.finalCond.atoms.size(), 2u);
    EXPECT_EQ(test.finalCond.atoms[0].kind, CondAtom::Kind::Register);
    EXPECT_EQ(test.finalCond.atoms[1].kind, CondAtom::Kind::Memory);
    ASSERT_EQ(test.variantAllowed.count("SEA_R"), 1u);
    EXPECT_TRUE(test.variantAllowed.at("SEA_R"));
    EXPECT_EQ(test.threads[0].handler.code.size(), 0u);
    EXPECT_EQ(test.threads[1].handler.code.size(), 1u);
}

TEST(Parser, InterruptDirective)
{
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=0; 0:X1=x\n"
        "thread 0:\n"
        "L:\n"
        "    NOP\n"
        "handler 0:\n"
        "    LDR X0,[X1]\n"
        "interrupt 0 at L intid 5\n"
        "allowed: 0:X0=0\n");
    ASSERT_TRUE(test.threads[0].interruptAt.has_value());
    EXPECT_EQ(*test.threads[0].interruptAt, "L");
    EXPECT_EQ(test.threads[0].interruptIntid, 5u);
    EXPECT_FALSE(test.threads[0].sgiReceiver);
}

TEST(Parser, SgiReceiverAutoDetection)
{
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=0; 1:X1=x\n"
        "thread 0:\n"
        "    MOV X2,#1,LSL #40\n"
        "    MSR ICC_SGI1R_EL1,X2\n"
        "thread 1:\n"
        "    NOP\n"
        "handler 1:\n"
        "    LDR X0,[X1]\n"
        "allowed: 1:X0=0\n");
    EXPECT_TRUE(test.generatesSgis());
    EXPECT_FALSE(test.threads[0].sgiReceiver);  // no handler
    EXPECT_TRUE(test.threads[1].sgiReceiver);
}

TEST(Parser, ConditionWithSlashBackslashConjunction)
{
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *x=0; 0:X1=x\n"
        "thread 0:\n"
        "    LDR X0,[X1]\n"
        "allowed: 0:X0=0 /\\ *x=0\n");
    EXPECT_EQ(test.finalCond.atoms.size(), 2u);
}

TEST(Parser, Errors)
{
    EXPECT_THROW(parseLitmus(""), FatalError);
    EXPECT_THROW(parseLitmus("name: x\n"), FatalError);  // no condition
    EXPECT_THROW(parseLitmus(
        "name: x\ninit: bogus\nthread 0:\n NOP\nallowed: *x=0\n"),
        FatalError);
    EXPECT_THROW(parseLitmus(
        "name: x\nthread zz:\n NOP\nallowed: *x=0\n"), FatalError);
    EXPECT_THROW(parseLitmus(
        "name: x\n NOP\nallowed: *x=0\n"), FatalError);  // outside section
    EXPECT_THROW(parseLitmus(
        "name: x\nthread 0:\n NOP\nvariant X allowed\nallowed: *x=0\n"),
        FatalError);
}

TEST(Parser, TruncatedInputsDiagnoseCleanly)
{
    // Truncated init entries.
    EXPECT_THROW(parseLitmus(
        "name: x\ninit: 0:X1=\nthread 0:\n NOP\nallowed: *x=0\n"),
        FatalError);
    EXPECT_THROW(parseLitmus(
        "name: x\ninit: *x\nthread 0:\n NOP\nallowed: *x=0\n"),
        FatalError);
    EXPECT_THROW(parseLitmus(
        "name: x\ninit: 0:\nthread 0:\n NOP\nallowed: *x=0\n"),
        FatalError);
    // Unterminated/truncated conditions.
    EXPECT_THROW(parseLitmus(
        "name: x\nthread 0:\n NOP\nallowed: 0:X0\n"), FatalError);
    EXPECT_THROW(parseLitmus(
        "name: x\nthread 0:\n NOP\nallowed: 0:X0=\n"), FatalError);
    EXPECT_THROW(parseLitmus(
        "name: x\nthread 0:\n NOP\nvariant ExS\n"), FatalError);
}

TEST(Parser, ResourceBoundsAreEnforced)
{
    // A huge thread id must be refused, not used as a resize() count.
    EXPECT_THROW(parseLitmus(
        "name: x\ninit: 999999999:X1=x\nthread 0:\n NOP\n"
        "allowed: *x=0\n"), FatalError);
    EXPECT_THROW(parseLitmus(
        "name: x\nthread 999999999:\n NOP\nallowed: *x=0\n"),
        FatalError);
    EXPECT_THROW(parseLitmus(
        "name: x\ninterrupt 999999999 at L0\nthread 0:\n NOP\n"
        "allowed: *x=0\n"), FatalError);

    // Program size cap.
    std::string big = "name: x\nthread 0:\n";
    for (std::size_t i = 0; i <= kMaxProgramInstructions; ++i)
        big += "    MOV X0,#1\n";
    big += "allowed: *x=0\n";
    EXPECT_THROW(parseLitmus(big), FatalError);

    // Location count cap.
    std::string locs = "name: x\ninit:";
    for (std::size_t i = 0; i <= kMaxLocations; ++i)
        locs += " *loc" + std::to_string(i) + "=0;";
    locs += "\nthread 0:\n NOP\nallowed: *loc0=0\n";
    EXPECT_THROW(parseLitmus(locs), FatalError);
}

TEST(Parser, UnknownLocationInConditionIsCreated)
{
    // Referencing a fresh location in the condition interns it with
    // initial value 0 (convenient for tests that only read).
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: 0:X1=x\n"
        "thread 0:\n"
        "    LDR X0,[X1]\n"
        "allowed: *x=0\n");
    EXPECT_EQ(test.locations.size(), 1u);
    EXPECT_EQ(test.initValues[0], 0u);
}

TEST(Parser, ConditionOnAMissingThreadIsRefused)
{
    // A condition atom must name a thread of the test: without the
    // check, the model reads the atom as false and the machine reads
    // past its threads.
    const std::string head = "name: t\ninit: *x=0\nthread 0:\n NOP\n";
    EXPECT_NO_THROW(parseLitmus(head + "allowed: 0:X0=0\n"));
    EXPECT_THROW(parseLitmus(head + "allowed: 1:X0=0\n"), FatalError);
    EXPECT_THROW(parseLitmus(head + "allowed: *x=0 & 3:X0=0\n"),
                 FatalError);
    EXPECT_THROW(parseLitmus(head + "forbidden: 2000000000:X0=0\n"),
                 FatalError);
    // 2^32 must not narrow to thread 0.
    EXPECT_THROW(parseLitmus(head + "allowed: 4294967296:X0=0\n"),
                 FatalError);
    try {
        parseLitmus(head + "allowed: 3:X0=0\n");
        ADD_FAILURE() << "a condition on thread 3 was accepted";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("3:X0"),
                  std::string::npos) << error.what();
    }
}

TEST(FinalState, FieldsKeyAndCondition)
{
    LitmusTest test = parseLitmus(
        "name: t\n"
        "init: *y=5; *x=0; 0:X1=x; 1:X1=y\n"
        "thread 0:\n NOP\n"
        "thread 1:\n NOP\n"
        "allowed: 1:X2=1 & *x=2 & 0:X10=3 & 1:X2=1\n");
    EXPECT_EQ(atomName(test, test.finalCond.atoms[0]), "1:X2");
    EXPECT_EQ(atomName(test, test.finalCond.atoms[1]), "*x");

    // The condition's registers and every location, sorted by name,
    // each once.
    const FinalState final_state(test);
    std::vector<std::string> names;
    for (const FinalState::Field &field : final_state.fields())
        names.push_back(field.name);
    EXPECT_EQ(names, (std::vector<std::string>{"*x", "*y", "0:X10",
                                               "1:X2"}));

    struct Source {
        std::uint64_t finalReg(ThreadId tid, isa::RegId reg) const
        {
            return static_cast<std::uint64_t>(tid) * 100 + reg;
        }
        std::uint64_t finalMemValue(LocationId loc) const
        {
            return 7 + loc;
        }
    };
    std::string key = "stale";
    final_state.key(Source{}, key);
    EXPECT_EQ(key, "*x=8;*y=7;0:X10=10;1:X2=102;");
    EXPECT_FALSE(conditionHolds(test.finalCond, Source{}));

    struct Satisfying {
        std::uint64_t finalReg(ThreadId tid, isa::RegId) const
        {
            return tid == 0 ? 3 : 1;
        }
        std::uint64_t finalMemValue(LocationId) const { return 2; }
    };
    EXPECT_TRUE(conditionHolds(test.finalCond, Satisfying{}));
}

TEST(HerdFormat, ClassicMpParsesAndChecks)
{
    const char *herd = R"(AArch64 MP-herd
"classic message passing, herd format"
{
0:X1=x; 0:X3=y;
1:X1=y; 1:X3=x;
x=0; y=0;
}
 P0          | P1          ;
 MOV X0,#1   | LDR X0,[X1] ;
 STR X0,[X1] | LDR X2,[X3] ;
 DMB SY      |             ;
 MOV X2,#1   |             ;
 STR X2,[X3] |             ;
exists (1:X0=1 /\ 1:X2=0)
)";
    ASSERT_TRUE(looksLikeHerdFormat(herd));
    LitmusTest test = parseLitmus(herd);
    EXPECT_EQ(test.name, "MP-herd");
    EXPECT_EQ(test.description,
              "classic message passing, herd format");
    ASSERT_EQ(test.threads.size(), 2u);
    EXPECT_EQ(test.threads[0].program.code.size(), 5u);
    EXPECT_EQ(test.threads[1].program.code.size(), 2u);
    EXPECT_TRUE(test.expectedAllowed);
    EXPECT_EQ(test.finalCond.atoms.size(), 2u);

    // The parsed test behaves like the built-in MP+dmb.sy+po: allowed.
    EXPECT_TRUE(isAllowed(test, ModelParams::base()));
}

TEST(HerdFormat, NegatedExistsIsForbidden)
{
    const char *herd =
        "AArch64 CoWW-herd\n"
        "{ x=0; 0:X1=x; }\n"
        " P0          ;\n"
        " MOV X0,#1   ;\n"
        " STR X0,[X1] ;\n"
        " MOV X2,#2   ;\n"
        " STR X2,[X1] ;\n"
        "~exists ([x]=1)\n";
    LitmusTest test = parseLitmus(herd);
    EXPECT_FALSE(test.expectedAllowed);
    ASSERT_EQ(test.finalCond.atoms.size(), 1u);
    EXPECT_EQ(test.finalCond.atoms[0].kind, CondAtom::Kind::Memory);
    EXPECT_FALSE(isAllowed(test, ModelParams::base()));
}

TEST(HerdFormat, UnsupportedConstructsRejected)
{
    EXPECT_THROW(parseLitmus(
        "AArch64 t\n{ x=0; }\n P0 ;\n NOP ;\n"
        "exists (0:X0=0 \\/ 0:X1=1)\n"), FatalError);
    EXPECT_THROW(parseLitmus(
        "AArch64 t\n{ x=0; }\n P0 ;\n NOP ;\n"
        "forall (0:X0=0)\n"), FatalError);
}

TEST(HerdFormat, MalformedInputsDiagnoseCleanly)
{
    // Unterminated init block: program rows land in the init phase.
    EXPECT_THROW(parseLitmus(
        "AArch64 t\n{ x=0;\n P0 ;\n NOP ;\nexists (0:X0=0)\n"),
        FatalError);
    // Garbage between header and init.
    EXPECT_THROW(parseLitmus(
        "AArch64 t\nwhat is this\n{ x=0; }\n P0 ;\n NOP ;\n"
        "exists (0:X0=0)\n"), FatalError);
    // Unterminated condition parenthesis.
    EXPECT_THROW(parseLitmus(
        "AArch64 t\n{ x=0; }\n P0 ;\n NOP ;\nexists (0:X0=0\n"),
        FatalError);
    // No condition at all.
    EXPECT_THROW(parseLitmus(
        "AArch64 t\n{ x=0; }\n P0 ;\n NOP ;\n"), FatalError);
    // Huge thread id in init.
    EXPECT_THROW(parseLitmus(
        "AArch64 t\n{ 999999999:X1=x; }\n P0 ;\n NOP ;\n"
        "exists (0:X0=0)\n"), FatalError);
}

TEST(HerdFormat, ConditionOnAMissingThreadIsRefused)
{
    const std::string head =
        "AArch64 t\n{ x=0; 0:X1=x; }\n P0 ;\n LDR X0,[X1] ;\n";
    EXPECT_NO_THROW(parseLitmus(head + "exists (0:X0=0)\n"));
    EXPECT_THROW(parseLitmus(head + "exists (1:X0=0)\n"), FatalError);
    EXPECT_THROW(parseLitmus(head + "~exists (x=0 /\\ 5:X0=0)\n"),
                 FatalError);
    EXPECT_THROW(parseHerdLitmus(head + "exists (2000000000:X0=0)\n"),
                 FatalError);
    EXPECT_THROW(parseHerdLitmus(head + "exists (4294967296:X0=0)\n"),
                 FatalError);
}

/**
 * Parsing arbitrary mutilations of valid inputs must either succeed or
 * throw FatalError — never crash, hang, or throw anything else. This is
 * the wire-input contract rexd relies on to turn parser complaints into
 * 400 responses.
 */
TEST(ParserFuzz, TruncationsAndCorruptionsNeverCrash)
{
    const std::string native =
        TestRegistry::instance().sourceText("MP+dmb.sy+addr");
    const std::string herd =
        "AArch64 MP-fuzz\n"
        "{ x=0; y=0; 0:X1=x; 0:X3=y; 1:X1=y; 1:X3=x; }\n"
        " P0          | P1          ;\n"
        " MOV X0,#1   | LDR X0,[X1] ;\n"
        " STR X0,[X1] | LDR X2,[X3] ;\n"
        "exists (1:X0=1 /\\ 1:X2=0)\n";

    auto parseSafely = [](const std::string &text) {
        try {
            parseLitmus(text);
        } catch (const FatalError &) {
            // The contract: diagnose, don't crash.
        }
    };

    for (const std::string &seed : {native, herd}) {
        // Every prefix.
        for (std::size_t len = 0; len <= seed.size(); ++len)
            parseSafely(seed.substr(0, len));
        // Single-byte corruption at every offset.
        for (std::size_t i = 0; i < seed.size(); ++i) {
            for (char c : {'\0', '\xff', '=', ':', ';', '|', '}'}) {
                std::string mutated = seed;
                mutated[i] = c;
                parseSafely(mutated);
            }
        }
        // Single-byte deletion at every offset.
        for (std::size_t i = 0; i < seed.size(); ++i) {
            std::string mutated = seed;
            mutated.erase(i, 1);
            parseSafely(mutated);
        }
    }
}

TEST(Registry, LookupAndSuites)
{
    const TestRegistry &registry = TestRegistry::instance();
    EXPECT_TRUE(registry.has("SB+dmb.sy+eret"));
    EXPECT_FALSE(registry.has("not-a-test"));
    EXPECT_THROW(registry.get("not-a-test"), FatalError);
    EXPECT_EQ(registry.get("MP+dmb.sy+fault").name, "MP+dmb.sy+fault");

    std::size_t total = 0;
    for (const char *suite :
         {"core", "exceptions", "sea", "gic", "generated"})
        total += registry.suite(suite).size();
    EXPECT_EQ(total, registry.all().size());
}

TEST(Registry, NamesAreUniqueAndSorted)
{
    auto names = TestRegistry::instance().names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_TRUE(std::adjacent_find(names.begin(), names.end()) ==
                names.end());
}

TEST(Registry, PaperFigureTestsPresent)
{
    const TestRegistry &registry = TestRegistry::instance();
    for (const char *name : {
             "SB+dmb.sy+eret",              // Fig. 4
             "MP+dmb.sy+ctrlsvc",           // Fig. 5
             "SB+dmb.sy+rfisvc-addr",       // Fig. 6
             "MP.EL1+dmb.sy+dataesrsvc",    // Fig. 7 top
             "MP+dmb.sy+ctrlelr",           // Fig. 7 bottom
             "MP+dmb.sy+fault",             // Fig. 8 top
             "MP+dmb.sy+int",               // Fig. 8 bottom
             "MP+dmb.sy+svc",               // §3.2.2
             "MPviaSGIEIOmode1sequence",    // Fig. 11
             "MPviaSGI",                    // Fig. 12
             "RCU-MP",                      // Fig. 13
         }) {
        EXPECT_TRUE(registry.has(name)) << name;
    }
}

TEST(Files, ShippedLitmusFilesParseAndMatchVerdicts)
{
    for (const char *file : {"SB+dmb.sy+eret.litmus",
                             "MP+dmb.sy+fault.litmus",
                             "MPviaSGI.litmus"}) {
        LitmusTest test = parseLitmusFile(
            std::string(REX_LITMUS_DIR) + "/" + file);
        EXPECT_FALSE(test.name.empty()) << file;
        EXPECT_FALSE(test.threads.empty()) << file;
        EXPECT_FALSE(test.finalCond.atoms.empty()) << file;
    }
    EXPECT_THROW(parseLitmusFile("/nonexistent.litmus"), FatalError);
}

TEST(Registry, VariantNamesAreKnown)
{
    for (const LitmusTest *test : TestRegistry::instance().all()) {
        for (const auto &[variant, allowed] : test->variantAllowed) {
            EXPECT_NO_THROW(ModelParams::byName(variant))
                << test->name << " declares unknown variant " << variant;
        }
    }
}

} // namespace
} // namespace rex
