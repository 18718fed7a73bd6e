/**
 * @file
 * Unit tests for the MemOrganization scheme registry: enumeration
 * order (which the bench matrices and the per-scheme fuzz ctest list
 * in bench/CMakeLists.txt depend on), baseline/matrix trait queries,
 * alias resolution, and the unknown-scheme fatal.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "policy/registry.hh"

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
    const policy::SchemeInfo &info = reg.resolve("fmonly");
    EXPECT_TRUE(info.traits.baseline);
    EXPECT_FALSE(info.traits.needs_nm);
    EXPECT_FALSE(info.traits.in_matrix);
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
    // Only SILC-FM has a lockstep reference oracle; every scheme gets
    // the shadow-data tier.
    for (const std::string &name : reg.names()) {
        EXPECT_EQ(reg.resolve(name).traits.has_reference_oracle,
                  name == "silcfm")
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
