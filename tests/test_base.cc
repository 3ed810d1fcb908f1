/**
 * @file
 * Unit tests for the base utilities: logging discipline, string
 * helpers, and the stable hashes every persisted or exchanged value is
 * derived from.
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/hash.hh"
#include "base/logging.hh"
#include "base/strings.hh"
#include "engine/cache.hh"
#include "engine/continuation.hh"
#include "gen/hammer.hh"
#include "harness/runner.hh"
#include "litmus/registry.hh"
#include "server/client.hh"
#include "server/service.hh"

namespace rex {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("user error"), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("library bug"), PanicError);
}

TEST(Logging, AssertPassesAndFails)
{
    EXPECT_NO_THROW(rexAssert(true, "fine"));
    EXPECT_THROW(rexAssert(false, "boom"), PanicError);
}

TEST(Logging, ThresholdRoundTrips)
{
    LogLevel old = logThreshold();
    setLogThreshold(LogLevel::Error);
    EXPECT_EQ(logThreshold(), LogLevel::Error);
    setLogThreshold(old);
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("abc"), "abc");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(Strings, Split)
{
    auto fields = split("a;b;;c", ';');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[2], "");
    EXPECT_EQ(split("", ';').size(), 1u);
}

TEST(Strings, SplitWhitespace)
{
    auto tokens = splitWhitespace("  one\ttwo \n three ");
    ASSERT_EQ(tokens.size(), 3u);
    EXPECT_EQ(tokens[1], "two");
    EXPECT_TRUE(splitWhitespace("   ").empty());
}

TEST(Strings, Case)
{
    EXPECT_EQ(toUpper("dmb sy"), "DMB SY");
    EXPECT_EQ(toLower("ERET"), "eret");
}

TEST(Strings, Affixes)
{
    EXPECT_TRUE(startsWith("thread 0:", "thread "));
    EXPECT_FALSE(startsWith("th", "thread"));
    EXPECT_TRUE(endsWith("x.cat", ".cat"));
    EXPECT_FALSE(endsWith("cat", ".cat"));
}

TEST(Strings, ParseIntegerDecimal)
{
    std::int64_t v = 0;
    EXPECT_TRUE(parseInteger("42", v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseInteger("-7", v));
    EXPECT_EQ(v, -7);
    EXPECT_TRUE(parseInteger("0", v));
    EXPECT_EQ(v, 0);
}

TEST(Strings, ParseIntegerHexAndBinary)
{
    std::int64_t v = 0;
    EXPECT_TRUE(parseInteger("0xFF", v));
    EXPECT_EQ(v, 255);
    EXPECT_TRUE(parseInteger("0b101", v));
    EXPECT_EQ(v, 5);
    EXPECT_TRUE(parseInteger("0xf", v));
    EXPECT_EQ(v, 15);
}

TEST(Strings, ParseIntegerRejectsGarbage)
{
    std::int64_t v = 0;
    EXPECT_FALSE(parseInteger("", v));
    EXPECT_FALSE(parseInteger("x", v));
    EXPECT_FALSE(parseInteger("12z", v));
    EXPECT_FALSE(parseInteger("-", v));
    EXPECT_FALSE(parseInteger("0x", v));
}

TEST(Strings, Format)
{
    EXPECT_EQ(format("%d/%s", 3, "x"), "3/x");
    EXPECT_EQ(format("%s", ""), "");
}

TEST(Strings, ParseCanonicalU64AcceptsOnlyWhatPrintfPrints)
{
    std::uint64_t v = 7;
    EXPECT_TRUE(parseCanonicalU64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseCanonicalU64("18446744073709551615", v));
    EXPECT_EQ(v, ~std::uint64_t(0));
    for (const char *bad : {"", "00", "012", "+1", "-1", " 1", "1 ", "1x",
                            "0x10", "18446744073709551616"}) {
        EXPECT_FALSE(parseCanonicalU64(bad, v)) << bad;
    }
}

TEST(Strings, TakeFieldLineReadsOneNamedLine)
{
    const std::string text = "name value\nempty \nbare\nlast 1";
    std::size_t pos = 0;
    EXPECT_FALSE(takeFieldLine(text, pos, "nam"));
    EXPECT_EQ(takeFieldLine(text, pos, "name"), "value");
    EXPECT_EQ(takeFieldLine(text, pos, "empty"), "");
    EXPECT_FALSE(takeFieldLine(text, pos, "bare")) << "no value separator";
    EXPECT_EQ(pos, text.find("bare"))
        << "a refused line leaves the position alone";
    pos = text.find("last");
    EXPECT_FALSE(takeFieldLine(text, pos, "last")) << "unterminated line";
}

TEST(StableHashes, DerivedValuesArePinned)
{
    // Every value below is persisted (cache file names, hammer
    // checkpoints) or exchanged (ETags, continuation tokens, client
    // jitter), so none may ever change. The model revision is spelled
    // out so a later revision bump leaves these pins valid, except the
    // hammer fingerprint: it covers the current kModelRevision and
    // kGeneratorRevision, so a bump of either re-pins it.
    const std::string revision = "fig9-catc-r2";
    const LitmusTest &test = TestRegistry::instance().get("SB+pos");
    const engine::VerdictKey key =
        engine::VerdictKey::make(test, ModelParams::base(), revision);
    EXPECT_EQ(key.hashHex(), "70e3e1ffe507c043");
    EXPECT_EQ(server::verdictETag(key.text, revision),
              "\"00583e87ddf33d10\"");

    engine::ContinuationState state;
    state.planTarget = 256;
    state.planSize = 17;
    state.nextShard = 3;
    state.nextOffset = 41;
    state.prefix.candidates = 812;
    state.prefix.consistent = 33;
    state.prefix.witnesses = 2;
    state.prefix.constrainedUnpredictable = 5;
    state.prefix.unknownSideEffects = 1;
    state.prefix.forbiddingAxiom = "external";
    state.prefix.forbiddingCycle = {0, 7, 4294967295u};
    EXPECT_EQ(engine::shardJobFingerprint("src", "base", revision, 256),
              0xb260887c1f14a62eull);
    EXPECT_EQ(engine::continuationFingerprint("src", "base", revision,
                                              state),
              0x7415cc4f39ed6b5cull);

    gen::HammerConfig config;
    config.seedEnd = 1000;
    EXPECT_EQ(gen::Hammer(config).fingerprint(), 0xbdb589e7cb79996aull);

    harness::FigureOptions options;
    EXPECT_EQ(options.seedFor("SB+pos", "maxRelaxed"),
              0xb7773ca6dd00d4b0ull);

    server::RetryPolicy policy;
    std::vector<int> delays;
    for (int attempt = 1; attempt <= 6; ++attempt)
        delays.push_back(server::retryDelayMs(policy, attempt, 0));
    EXPECT_EQ(delays, (std::vector<int>{121, 176, 421, 775, 1906, 2153}));
    policy.jitterSeed = 0x5eed;
    delays.clear();
    for (int attempt = 1; attempt <= 6; ++attempt)
        delays.push_back(server::retryDelayMs(policy, attempt, 0));
    EXPECT_EQ(delays, (std::vector<int>{103, 166, 353, 831, 1674, 2477}));

    EXPECT_EQ(fnv1a(kFnvOffset, ""), kFnvOffset);
    EXPECT_EQ(fnv1a(kFnvOffset, "a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafull);
}

} // namespace
} // namespace rex
