// Weighted MSC: the sigma/mu/nu evaluators and the instance-level sandwich
// with per-pair weights.
#include <gtest/gtest.h>

#include "core/aea.h"
#include "core/bounds.h"
#include "core/greedy.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "helpers.h"
#include "util/rng.h"

namespace {

using msc::core::CandidateSet;
using msc::core::Instance;
using msc::core::Shortcut;
using msc::core::ShortcutList;

std::vector<double> unitWeights(const Instance& inst) {
  return std::vector<double>(static_cast<std::size_t>(inst.pairCount()), 1.0);
}

TEST(Weighted, UnitWeightsReduceToUnweighted) {
  const auto inst = msc::test::randomInstance(20, 8, 1.2, 1);
  const auto cands = CandidateSet::allPairs(20);
  msc::core::SigmaEvaluator sigma(inst);
  msc::core::SigmaEvaluator wsigma(inst, unitWeights(inst));
  msc::core::MuEvaluator mu(inst, cands);
  msc::core::MuEvaluator wmu(inst, cands, unitWeights(inst));
  msc::core::NuEvaluator nu(inst);
  msc::core::NuEvaluator wnu(inst, unitWeights(inst));

  msc::util::Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const auto f = msc::test::randomPlacement(
        20, static_cast<int>(rng.below(5)), rng);
    EXPECT_DOUBLE_EQ(wsigma.value(f), sigma.value(f));
    EXPECT_DOUBLE_EQ(wmu.value(f), mu.value(f));
    EXPECT_EQ(wnu.value(f), nu.value(f));
  }
}

TEST(Weighted, WeightValidation) {
  const auto inst = msc::test::randomInstance(10, 4, 1.0, 2);
  EXPECT_THROW(msc::core::SigmaEvaluator(inst, {1.0}),
               std::invalid_argument);
  std::vector<double> negative(4, 1.0);
  negative[2] = -0.5;
  EXPECT_THROW(msc::core::SigmaEvaluator(inst, negative),
               std::invalid_argument);
  std::vector<double> nan(4, 1.0);
  nan[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(msc::core::NuEvaluator(inst, nan),
               std::invalid_argument);
}

TEST(Weighted, HeavyPairDominatesGreedyChoice) {
  // Line 0..9; pair (0,9) weight 10, pair (4,5) weight 1; k = 1, dt small.
  // Direct shortcut to the heavy pair wins even though both pairs are
  // individually fixable.
  Instance inst(msc::test::lineGraph(10), {{0, 9}, {3, 6}}, 0.5);
  std::vector<double> weights{10.0, 1.0};
  msc::core::SigmaEvaluator sigma(inst, weights);
  const auto cands = CandidateSet::allPairs(10);
  const auto res = msc::core::greedyMaximize(sigma, cands, {.k = 1});
  EXPECT_DOUBLE_EQ(res.value, 10.0);
  ASSERT_EQ(res.placement.size(), 1u);
  EXPECT_EQ(res.placement[0], Shortcut::make(0, 9));
}

TEST(Weighted, IncrementalConsistency) {
  const auto inst = msc::test::randomInstance(18, 6, 1.0, 3);
  std::vector<double> weights;
  msc::util::Rng wrng(5);
  for (int i = 0; i < inst.pairCount(); ++i) {
    weights.push_back(wrng.uniform(0.1, 5.0));
  }
  msc::core::SigmaEvaluator sigma(inst, weights);
  msc::util::Rng rng(7);
  const auto placement = msc::test::randomPlacement(18, 4, rng);
  sigma.reset();
  for (const auto& f : placement) {
    const double before = sigma.currentValue();
    const double gain = sigma.gainIfAdd(f);
    sigma.add(f);
    EXPECT_NEAR(sigma.currentValue(), before + gain, 1e-9);
  }
  EXPECT_NEAR(sigma.currentValue(), sigma.value(placement), 1e-9);
}

// ----------------------------------------------------------- Property ----

class WeightedProperty : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<double> randomWeights(const Instance& inst, std::uint64_t seed) {
  msc::util::Rng rng(seed);
  std::vector<double> w;
  for (int i = 0; i < inst.pairCount(); ++i) w.push_back(rng.uniform(0.0, 4.0));
  return w;
}

TEST_P(WeightedProperty, BoundsBracketWeightedSigma) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(20, 8, 1.2, seed);
  const auto cands = CandidateSet::allPairs(20);
  const auto weights = randomWeights(inst, seed ^ 0x11ULL);
  msc::core::SigmaEvaluator sigma(inst, weights);
  msc::core::MuEvaluator mu(inst, cands, weights);
  msc::core::NuEvaluator nu(inst, weights);
  msc::util::Rng rng(seed ^ 0x22ULL);
  for (int trial = 0; trial < 10; ++trial) {
    const auto f = msc::test::randomPlacement(
        20, static_cast<int>(rng.below(6)), rng);
    const double s = sigma.value(f);
    EXPECT_LE(mu.value(f), s + 1e-9);
    EXPECT_GE(nu.value(f), s - 1e-9);
  }
}

TEST_P(WeightedProperty, WeightedBoundsAreSubmodular) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(16, 6, 1.0, seed);
  const auto cands = CandidateSet::allPairs(16);
  const auto weights = randomWeights(inst, seed ^ 0x33ULL);
  msc::core::MuEvaluator mu(inst, cands, weights);
  msc::core::NuEvaluator nu(inst, weights);
  msc::util::Rng rng(seed ^ 0x44ULL);
  for (int trial = 0; trial < 15; ++trial) {
    const auto y = msc::test::randomPlacement(16, 4, rng);
    ShortcutList x;
    for (const auto& f : y) {
      if (rng.chance(0.5)) x.push_back(f);
    }
    Shortcut f = msc::test::randomPlacement(16, 1, rng)[0];
    while (msc::core::contains(y, f)) {
      f = msc::test::randomPlacement(16, 1, rng)[0];
    }
    auto xf = x;
    xf.push_back(f);
    auto yf = y;
    yf.push_back(f);
    EXPECT_GE(mu.value(xf) - mu.value(x), mu.value(yf) - mu.value(y) - 1e-9);
    EXPECT_GE(nu.value(xf) - nu.value(x), nu.value(yf) - nu.value(y) - 1e-9);
  }
}

TEST_P(WeightedProperty, WeightedSandwichSelfConsistent) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(18, 8, 1.2, seed);
  const auto cands = CandidateSet::allPairs(18);
  const auto weights = randomWeights(inst, seed ^ 0x55ULL);
  const auto aa =
      msc::core::sandwichApproximation(inst, cands, {.k = 3}, weights);
  msc::core::SigmaEvaluator sigma(inst, weights);
  EXPECT_NEAR(sigma.value(aa.placement), aa.sigma, 1e-9);
  EXPECT_GE(aa.sigma, aa.sigmaOfSigma - 1e-9);
  if (const auto ratio = aa.dataDependentRatio()) {
    EXPECT_GE(*ratio, 0.0);
    EXPECT_LE(*ratio, 1.0 + 1e-9);
  }
}

// Weighted sigma gets every exact strategy the unweighted one has; both
// sum the weights in pair order, so they agree bit for bit.
TEST_P(WeightedProperty, SigmaRowsEqualOverlay) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(20, 8, 1.2, seed);
  const auto weights = randomWeights(inst, seed ^ 0x66ULL);
  msc::core::SigmaEvaluator sigma(inst, weights);
  msc::util::Rng rng(seed ^ 0x77ULL);
  for (int trial = 0; trial < 10; ++trial) {
    const auto f = msc::test::randomPlacement(
        20, static_cast<int>(rng.below(6)), rng);
    EXPECT_EQ(sigma.valueByRows(f), sigma.valueByOverlay(f));
  }
}

// Explicit unit weights take the weighted code paths; their sums of 1.0
// are exact, so every solver returns the unweighted answer bit for bit.
TEST_P(WeightedProperty, UnitWeightsBitIdenticalSolvers) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(18, 8, 1.2, seed);
  const auto cands = CandidateSet::allPairs(18);
  const auto unit = unitWeights(inst);
  for (const int threads : {1, 4}) {
    const msc::core::SolveOptions opts{.k = 3, .threads = threads,
                                       .seed = seed};
    SCOPED_TRACE(threads);

    msc::core::SigmaEvaluator plain(inst);
    msc::core::SigmaEvaluator weighted(inst, unit);
    const auto g = msc::core::greedyMaximize(plain, cands, opts);
    const auto gw = msc::core::greedyMaximize(weighted, cands, opts);
    EXPECT_EQ(gw.placement, g.placement);
    EXPECT_EQ(gw.value, g.value);
    EXPECT_EQ(gw.trajectory, g.trajectory);

    const auto aa = msc::core::sandwichApproximation(inst, cands, opts);
    const auto aw = msc::core::sandwichApproximation(inst, cands, opts, unit);
    EXPECT_EQ(aw.placement, aa.placement);
    EXPECT_EQ(aw.sigma, aa.sigma);
    EXPECT_EQ(aw.winner, aa.winner);
    EXPECT_EQ(aw.nuOfFnu, aa.nuOfFnu);
    EXPECT_EQ(aw.sigmaOfFnu, aa.sigmaOfFnu);

    const msc::core::AeaConfig aeaCfg{.iterations = 30, .populationSize = 6};
    const auto ea =
        msc::core::adaptiveEvolutionaryAlgorithm(plain, cands, opts, aeaCfg);
    const auto ew = msc::core::adaptiveEvolutionaryAlgorithm(weighted, cands,
                                                             opts, aeaCfg);
    EXPECT_EQ(ew.placement, ea.placement);
    EXPECT_EQ(ew.value, ea.value);
    EXPECT_EQ(ew.bestByIteration, ea.bestByIteration);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
