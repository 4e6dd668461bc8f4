//===- ParallelDeterminismTest.cpp - batch-width byte equivalence --------------===//
//
// The in-process batch's contract (DESIGN.md, "Batch parallelism"):
// analyses running concurrently in one process produce the same bytes
// as a lone analysis. Every corpus program is analyzed alone, then as
// four concurrent copies through support::parallelFor — the shape of
// `pta-tool --batch --analysis-threads=4` — and every mcpta-result-v3
// blob must match the lone one exactly.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "driver/Pipeline.h"
#include "serve/Serialize.h"
#include "support/ParallelFor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace mcpta;

namespace {

std::string analyzeToBlob(const std::string &Source,
                          const pta::Analyzer::Options &Opts) {
  Pipeline P = Pipeline::analyzeSource(Source, Opts);
  EXPECT_FALSE(P.Diags.hasErrors()) << P.Diags.dump();
  EXPECT_TRUE(P.Analysis.Analyzed);
  serve::ResultSnapshot Snap = serve::ResultSnapshot::capture(
      *P.Prog, P.Analysis, serve::optionsFingerprint(Opts));
  return serve::serialize(Snap);
}

/// EXPECT_EQ on the blobs would dump megabytes on failure; report only
/// the verdict plus the first divergence offset.
void expectSameBlob(const std::string &Lone, const std::string &Batched,
                    const std::string &What) {
  if (Lone == Batched)
    return;
  size_t Off = 0;
  while (Off < Lone.size() && Off < Batched.size() && Lone[Off] == Batched[Off])
    ++Off;
  ADD_FAILURE() << What << ": batched blob diverges from the lone one at byte "
                << Off << " (sizes " << Batched.size() << " vs " << Lone.size()
                << ")";
}

class ParallelDeterminism : public ::testing::TestWithParam<const char *> {};

TEST_P(ParallelDeterminism, ByteIdenticalAcrossThreadCounts) {
  const corpus::CorpusProgram *CP = corpus::find(GetParam());
  ASSERT_NE(CP, nullptr);
  pta::Analyzer::Options Opts;
  Opts.RecordStmtSets = true;
  const std::string Lone = analyzeToBlob(CP->Source, Opts);
  ASSERT_FALSE(Lone.empty());

  constexpr unsigned Width = 4;
  std::vector<std::string> Batched(Width);
  support::parallelFor(Width, Width, [&](size_t I) {
    Batched[I] = analyzeToBlob(CP->Source, Opts);
  });
  for (unsigned I = 0; I < Width; ++I)
    expectSameBlob(Lone, Batched[I],
                   std::string(GetParam()) + " copy " + std::to_string(I));
}

INSTANTIATE_TEST_SUITE_P(
    AllCorpus, ParallelDeterminism,
    ::testing::Values("genetic", "dry", "clinpack", "config", "toplev",
                      "compress", "mway", "hash", "misr", "xref", "stanford",
                      "fixoutput", "sim", "travel", "csuite", "msc", "lws",
                      "incrstress"),
    [](const ::testing::TestParamInfo<const char *> &Info) {
      return std::string(Info.param);
    });

// The fnptr resolution policies drive different IG growth; analyses
// under different policies running side by side must not leak into
// each other.
TEST(ParallelDeterminism, HoldsAcrossFnptrPolicies) {
  const corpus::CorpusProgram *CP = corpus::find("toplev");
  ASSERT_NE(CP, nullptr);
  const std::vector<pta::FnPtrMode> Modes = {pta::FnPtrMode::Precise,
                                            pta::FnPtrMode::AllFunctions,
                                            pta::FnPtrMode::AddressTaken};
  auto OptsFor = [&Modes](size_t I) {
    pta::Analyzer::Options Opts;
    Opts.FnPtr = Modes[I % Modes.size()];
    return Opts;
  };
  std::vector<std::string> Lone;
  for (size_t I = 0; I < Modes.size(); ++I)
    Lone.push_back(analyzeToBlob(CP->Source, OptsFor(I)));

  // Two copies of each policy, interleaved, four at a time.
  std::vector<std::string> Batched(2 * Modes.size());
  support::parallelFor(Batched.size(), 4, [&](size_t I) {
    Batched[I] = analyzeToBlob(CP->Source, OptsFor(I));
  });
  for (size_t I = 0; I < Batched.size(); ++I)
    expectSameBlob(Lone[I % Modes.size()], Batched[I],
                   "fnptr mode " + std::to_string(I % Modes.size()));
}

} // namespace
