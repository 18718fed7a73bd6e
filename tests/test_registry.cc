/**
 * @file
 * Unit tests for the MemOrganization scheme registry: enumeration
 * order (which the bench matrices and the per-scheme fuzz ctest list
 * in bench/CMakeLists.txt depend on), baseline/matrix trait queries,
 * which schemes get tier 2 of the oracle, alias resolution, and the
 * unknown-scheme fatal.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "policy/registry.hh"
#include "sim/system.hh"

using namespace silc;
using policy::SchemeRegistry;

TEST(SchemeRegistry, EnumerationOrderIsStable)
{
    // This order is an output contract: bench matrices print columns in
    // it, and bench/CMakeLists.txt hardcodes the same list for the
    // per-scheme fuzz_check ctest entries.  Update both together.
    const std::vector<std::string> expected = {
        "fmonly", "rand",      "hma",      "cam",   "camp",
        "pom",    "dramcache", "memcache", "silcfm"};
    EXPECT_EQ(SchemeRegistry::instance().names(), expected);
}

TEST(SchemeRegistry, MatrixExcludesBaselineAndEndsWithSilcFm)
{
    const std::vector<std::string> matrix =
        SchemeRegistry::instance().matrixNames();
    // fmonly is the normalization baseline, not a matrix column.
    for (const std::string &name : matrix)
        EXPECT_NE(name, "fmonly");
    // Comparison footers read means.back() as the SILC-FM column.
    ASSERT_FALSE(matrix.empty());
    EXPECT_EQ(matrix.back(), "silcfm");
    EXPECT_EQ(matrix.size(), 8u);
}

TEST(SchemeRegistry, BaselineIsFmOnly)
{
    const SchemeRegistry &reg = SchemeRegistry::instance();
    EXPECT_EQ(reg.baselineName(), "fmonly");
    for (const std::string &name : reg.names())
        EXPECT_EQ(reg.resolve(name).traits.baseline, name == "fmonly")
            << name;
}

TEST(SchemeRegistry, ResolveReturnsMatchingName)
{
    const SchemeRegistry &reg = SchemeRegistry::instance();
    for (const std::string &name : reg.names())
        EXPECT_EQ(reg.resolve(name).name, name);
}

TEST(SchemeRegistry, AliasesResolveToCanonicalSchemes)
{
    const SchemeRegistry &reg = SchemeRegistry::instance();
    EXPECT_TRUE(reg.known("cameo"));
    EXPECT_TRUE(reg.known("silc"));
    EXPECT_EQ(reg.resolve("cameo").name, "cam");
    EXPECT_EQ(reg.resolve("silc").name, "silcfm");
}

TEST(SchemeRegistry, TraitsDistinguishTheRivals)
{
    const SchemeRegistry &reg = SchemeRegistry::instance();
    // Tier 2 of the oracle (the metadata-lockstep reference model)
    // attaches to SILC-FM alone; tier 1 (shadow data) to every scheme.
    // Each tier counts every demand it checks, so a checked run counts
    // each demand twice for SILC-FM and once for every other scheme.
    for (const std::string &name : reg.names()) {
        sim::SystemConfig cfg = sim::SystemConfig::defaults();
        cfg.scheme = name;
        cfg.cores = 1;
        cfg.instructions_per_core = 5'000;
        cfg.check = true;
        sim::System sys(cfg);
        sys.run();
        const uint64_t demands = sys.policyRef().demandRequests();
        ASSERT_GT(demands, 0u) << name;
        EXPECT_EQ(sys.accessesChecked(),
                  (name == "silcfm" ? 2 : 1) * demands)
            << name;
    }
    // The cache-side rivals do not consume FM:NM ratio validation.
    EXPECT_FALSE(reg.resolve("dramcache").traits.fm_multiple_of_nm);
    EXPECT_FALSE(reg.resolve("memcache").traits.fm_multiple_of_nm);
    EXPECT_TRUE(reg.resolve("silcfm").traits.fm_multiple_of_nm);
}

TEST(SchemeRegistry, KnownRejectsUnregisteredNames)
{
    const SchemeRegistry &reg = SchemeRegistry::instance();
    EXPECT_FALSE(reg.known(""));
    EXPECT_FALSE(reg.known("alloy"));
    EXPECT_FALSE(reg.known("SILCFM")); // names are case-sensitive
}

TEST(SchemeRegistryDeath, ResolveUnknownIsFatalAndListsKnown)
{
    EXPECT_DEATH(SchemeRegistry::instance().resolve("alloy"),
                 "unknown scheme 'alloy'.*fmonly.*silcfm");
}
