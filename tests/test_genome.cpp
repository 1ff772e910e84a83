/**
 * @file
 * Unit tests for sf::genome — base handling, genome container,
 * synthetic builders, the mutation engine and FASTA I/O.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.hpp"
#include "genome/fasta.hpp"
#include "genome/genome.hpp"
#include "genome/mutate.hpp"
#include "genome/synthetic.hpp"

namespace sf::genome {
namespace {

TEST(Base, ComplementPairs)
{
    EXPECT_EQ(complement(Base::A), Base::T);
    EXPECT_EQ(complement(Base::T), Base::A);
    EXPECT_EQ(complement(Base::C), Base::G);
    EXPECT_EQ(complement(Base::G), Base::C);
}

TEST(Base, CharRoundTrip)
{
    for (Base b : {Base::A, Base::C, Base::G, Base::T}) {
        Base parsed;
        ASSERT_TRUE(charToBase(baseToChar(b), parsed));
        EXPECT_EQ(parsed, b);
    }
}

TEST(Base, ParsesLowerCaseAndUracil)
{
    Base b;
    ASSERT_TRUE(charToBase('a', b));
    EXPECT_EQ(b, Base::A);
    ASSERT_TRUE(charToBase('u', b));
    EXPECT_EQ(b, Base::T);
    EXPECT_FALSE(charToBase('N', b));
    EXPECT_FALSE(charToBase('x', b));
}

TEST(Genome, StringConstructionRoundTrip)
{
    const Genome g("toy", std::string("ACGTACGT"));
    EXPECT_EQ(g.size(), 8u);
    EXPECT_EQ(g.toString(), "ACGTACGT");
    EXPECT_EQ(g[0], Base::A);
    EXPECT_EQ(g[3], Base::T);
}

TEST(Genome, InvalidCharacterIsFatal)
{
    EXPECT_THROW(Genome("bad", std::string("ACGX")), FatalError);
}

TEST(Genome, AtBoundsChecked)
{
    const Genome g("toy", std::string("ACGT"));
    EXPECT_EQ(g.at(3), Base::T);
    EXPECT_THROW(g.at(4), FatalError);
}

TEST(Genome, SliceClampsAtEnd)
{
    const Genome g("toy", std::string("ACGTACGT"));
    EXPECT_EQ(basesToString(g.slice(6, 10)), "GT");
    EXPECT_TRUE(g.slice(100, 5).empty());
    EXPECT_EQ(basesToString(g.slice(2, 3)), "GTA");
}

TEST(Genome, ReverseComplementKnown)
{
    const Genome g("toy", std::string("AACGT"));
    EXPECT_EQ(g.reverseComplement().toString(), "ACGTT");
}

TEST(Genome, ReverseComplementIsInvolution)
{
    const Genome g = makeSynthetic("t", {.length = 500, .seed = 5});
    EXPECT_EQ(g.reverseComplement().reverseComplement().toString(),
              g.toString());
}

TEST(Genome, GcContent)
{
    EXPECT_DOUBLE_EQ(Genome("g", std::string("GGCC")).gcContent(), 1.0);
    EXPECT_DOUBLE_EQ(Genome("a", std::string("AATT")).gcContent(), 0.0);
    EXPECT_DOUBLE_EQ(Genome("m", std::string("ACGT")).gcContent(), 0.5);
}

TEST(Genome, BaseCountsSumToSize)
{
    const Genome g = makeSynthetic("t", {.length = 2000, .seed = 6});
    const auto counts = g.baseCounts();
    std::size_t total = 0;
    for (auto c : counts)
        total += c;
    EXPECT_EQ(total, g.size());
}

TEST(Synthetic, DeterministicForSeed)
{
    const SyntheticSpec spec{.length = 1000, .seed = 77};
    EXPECT_EQ(makeSynthetic("a", spec).toString(),
              makeSynthetic("b", spec).toString());
}

TEST(Synthetic, SeedChangesSequence)
{
    SyntheticSpec a{.length = 1000, .seed = 1};
    SyntheticSpec b{.length = 1000, .seed = 2};
    EXPECT_NE(makeSynthetic("a", a).toString(),
              makeSynthetic("b", b).toString());
}

TEST(Synthetic, RespectsLengthExactly)
{
    for (std::size_t len : {100u, 999u, 30000u}) {
        EXPECT_EQ(makeSynthetic("t", {.length = len, .seed = 3}).size(),
                  len);
    }
}

TEST(Synthetic, GcContentApproximatesTarget)
{
    SyntheticSpec spec{.length = 50000, .gcContent = 0.38, .seed = 4};
    const Genome g = makeSynthetic("t", spec);
    EXPECT_NEAR(g.gcContent(), 0.38, 0.03);
}

TEST(Synthetic, ZeroLengthIsFatal)
{
    EXPECT_THROW(makeSynthetic("t", {.length = 0}), FatalError);
}

TEST(Synthetic, ReferenceGenomesHavePaperLengths)
{
    EXPECT_EQ(makeSarsCov2().size(), 29903u);
    EXPECT_EQ(makeLambdaPhage().size(), 48502u);
    EXPECT_EQ(makeHumanBackground(100000).size(), 100000u);
}

TEST(Synthetic, CatalogueMatchesFigure10Shape)
{
    // Every single-stranded epidemic genome is under 50 kb; only the
    // dsDNA outliers exceed it (paper §4.4, Figure 10).
    for (const auto &virus : epidemicVirusCatalogue()) {
        if (!virus.doubleStranded) {
            EXPECT_LT(virus.genomeLength, 50000u) << virus.name;
        }
    }
    bool has_large_ds = false;
    for (const auto &virus : epidemicVirusCatalogue()) {
        if (virus.doubleStranded && virus.genomeLength > 100000)
            has_large_ds = true;
    }
    EXPECT_TRUE(has_large_ds);
}

TEST(Mutate, SubstitutionCountMatchesHamming)
{
    const Genome ref = makeSynthetic("ref", {.length = 5000, .seed = 9});
    MutationSpec spec;
    spec.substitutions = 25;
    spec.seed = 10;
    const Strain strain = mutate(ref, spec, "strain");
    EXPECT_EQ(strain.genome.size(), ref.size());
    EXPECT_EQ(hammingDistance(ref, strain.genome), 25u);
    EXPECT_EQ(strain.variants.size(), 25u);
}

TEST(Mutate, VariantsSortedAndInRange)
{
    const Genome ref = makeSynthetic("ref", {.length = 5000, .seed = 9});
    MutationSpec spec;
    spec.substitutions = 10;
    spec.insertions = 5;
    spec.deletions = 5;
    spec.seed = 11;
    const Strain strain = mutate(ref, spec, "strain");
    EXPECT_EQ(strain.variants.size(), 20u);
    for (std::size_t i = 1; i < strain.variants.size(); ++i) {
        EXPECT_LT(strain.variants[i - 1].position,
                  strain.variants[i].position);
    }
    for (const auto &v : strain.variants)
        EXPECT_LT(v.position, ref.size());
}

TEST(Mutate, IndelsChangeLengthConsistently)
{
    const Genome ref = makeSynthetic("ref", {.length = 8000, .seed = 12});
    MutationSpec spec;
    spec.insertions = 6;
    spec.deletions = 4;
    spec.seed = 13;
    const Strain strain = mutate(ref, spec, "strain");
    long expected_delta = 0;
    for (const auto &v : strain.variants) {
        if (v.type == VariantType::Insertion)
            expected_delta += long(v.alt.size());
        else if (v.type == VariantType::Deletion)
            expected_delta -= long(v.ref.size());
    }
    EXPECT_EQ(long(strain.genome.size()) - long(ref.size()),
              expected_delta);
}

TEST(Mutate, SubstitutionNeverKeepsReferenceBase)
{
    const Genome ref = makeSynthetic("ref", {.length = 4000, .seed = 14});
    MutationSpec spec;
    spec.substitutions = 50;
    spec.seed = 15;
    const Strain strain = mutate(ref, spec, "strain");
    for (const auto &v : strain.variants) {
        ASSERT_EQ(v.type, VariantType::Substitution);
        EXPECT_NE(v.ref.front(), v.alt.front());
        EXPECT_EQ(v.ref.front(), ref[v.position]);
    }
}

TEST(Mutate, TooManyMutationsIsFatal)
{
    const Genome ref = makeSynthetic("ref", {.length = 200, .seed = 16});
    MutationSpec spec;
    spec.substitutions = 150;
    EXPECT_THROW(mutate(ref, spec, "x"), FatalError);
}

TEST(Mutate, CladesMatchTable2Counts)
{
    const Genome ref = makeSarsCov2();
    const auto clades = makeSarsCov2Clades(ref);
    ASSERT_EQ(clades.size(), 5u);
    const std::size_t expected[] = {23, 18, 22, 17, 17};
    for (std::size_t i = 0; i < clades.size(); ++i) {
        EXPECT_EQ(clades[i].variants.size(), expected[i]);
        EXPECT_EQ(hammingDistance(ref, clades[i].genome), expected[i]);
        for (const auto &v : clades[i].variants)
            EXPECT_EQ(v.type, VariantType::Substitution);
    }
}

TEST(Fasta, RoundTripPreservesSequences)
{
    const Genome a = makeSynthetic("genome-a", {.length = 137, .seed = 1});
    const Genome b = makeSynthetic("genome-b", {.length = 201, .seed = 2});
    std::stringstream ss;
    writeFasta(ss, {a, b}, 60);
    const auto parsed = readFasta(ss);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].name(), "genome-a");
    EXPECT_EQ(parsed[0].toString(), a.toString());
    EXPECT_EQ(parsed[1].name(), "genome-b");
    EXPECT_EQ(parsed[1].toString(), b.toString());
}

TEST(Fasta, SkipsAmbiguityCodes)
{
    std::stringstream ss(">r desc here\nACGTN\nNNGT\n");
    const auto parsed = readFasta(ss);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].name(), "r");
    EXPECT_EQ(parsed[0].toString(), "ACGTGT");
}

TEST(Fasta, HandlesCrLfAndEmptyLines)
{
    std::stringstream ss(">r\r\nAC\r\n\r\nGT\r\n");
    const auto parsed = readFasta(ss);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].toString(), "ACGT");
}

/** readFasta(@p text) must raise FatalError naming @p line. */
void
expectFastaFatalAt(const std::string &text, const std::string &line)
{
    std::stringstream ss(text);
    try {
        const auto parsed = readFasta(ss);
        ADD_FAILURE() << "parsed " << parsed.size() << " record(s)";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
            << e.what();
    }
}

TEST(Fasta, SequenceBeforeFirstHeaderIsFatal)
{
    expectFastaFatalAt("ACGT\n>b\nGG\n", "FASTA line 1:");
}

TEST(Fasta, HeaderWithoutNameIsFatal)
{
    expectFastaFatalAt(">\nACGT\n>b\nGG\n", "FASTA line 1:");
}

TEST(Fasta, HeaderWithOnlyADescriptionIsFatal)
{
    expectFastaFatalAt("> desc\nACGT\n", "FASTA line 1:");
}

} // namespace
} // namespace sf::genome
