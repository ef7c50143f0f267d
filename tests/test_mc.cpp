// Monte-Carlo reliability engine: world sampling determinism, exact
// cross-checks on enumerable graphs, the common-random-numbers contract,
// parallel bit-identity of mc::greedy, and serve's mc_reliability
// objective against the direct solver path.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/candidates.h"
#include "core/instance.h"
#include "core/options.h"
#include "graph/graph_io.h"
#include "helpers.h"
#include "mc/reliability.h"
#include "mc/solver.h"
#include "mc/world_sampler.h"
#include "reference/mc_gain.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "wireless/link_model.h"

namespace {

namespace json = msc::serve::json;
using msc::core::CandidateSet;
using msc::core::Instance;
using msc::core::Shortcut;
using msc::core::ShortcutList;
using msc::core::SocialPair;
using msc::core::SolveOptions;
using msc::graph::Graph;
using msc::mc::Objective;
using msc::mc::ReliabilityEvaluator;
using msc::mc::WorldConfig;
using msc::mc::WorldSet;

// Diamond 0-1-3 / 0-2-3: two edge-disjoint two-hop paths, no direct link.
// With p_t = 0.4 the best single path (failure ~0.551) misses the surrogate
// requirement while the true two-path reliability (~0.652) exceeds 1 - p_t
// = 0.6 — the smallest graph exhibiting the surrogate gap.
Graph diamondGraph() {
  Graph g(4);
  g.addEdge(0, 1, 0.4);
  g.addEdge(1, 3, 0.4);
  g.addEdge(0, 2, 0.5);
  g.addEdge(2, 3, 0.5);
  return g;
}

// Ring of 10 with varied lengths plus chords: n = 10, m = 15 <= 20, so all
// 2^15 worlds are enumerable, and the chords create multi-path redundancy.
Graph ringWithChords() {
  Graph g(10);
  const double ring[] = {0.3, 0.5, 0.2, 0.6, 0.4, 0.3, 0.5, 0.2, 0.4, 0.6};
  for (int i = 0; i < 10; ++i) g.addEdge(i, (i + 1) % 10, ring[i]);
  g.addEdge(0, 5, 0.7);
  g.addEdge(2, 7, 0.5);
  g.addEdge(1, 6, 0.6);
  g.addEdge(3, 8, 0.4);
  g.addEdge(4, 9, 0.5);
  return g;
}

// ------------------------------------------------------------- WorldSet ---

TEST(WorldSet, DeterministicForSeedAndRejectsBadWorldCount) {
  const Graph g = msc::test::randomGraph(20, 0.2, 3);
  const WorldSet a(g, {.worlds = 256, .seed = 7});
  const WorldSet b(g, {.worlds = 256, .seed = 7});
  ASSERT_EQ(a.worlds(), 256);
  for (std::size_t e = 0; e < g.edgeCount(); ++e) {
    EXPECT_EQ(a.edgePlane(e), b.edgePlane(e));
  }
  const WorldSet c(g, {.worlds = 256, .seed = 8});
  bool anyDiffer = false;
  for (std::size_t e = 0; e < g.edgeCount(); ++e) {
    if (!(a.edgePlane(e) == c.edgePlane(e))) anyDiffer = true;
  }
  EXPECT_TRUE(anyDiffer);
  EXPECT_THROW(WorldSet(g, {.worlds = 0, .seed = 1}), std::invalid_argument);
}

TEST(WorldSet, SurvivalRateTracksEdgeProbability) {
  Graph g(2);
  g.addEdge(0, 1, 0.5);  // pUp = e^-0.5 ~ 0.6065
  const int w = 8192;
  const WorldSet ws(g, {.worlds = w, .seed = 11});
  const double rate =
      static_cast<double>(ws.edgePlane(0).count()) / static_cast<double>(w);
  EXPECT_NEAR(rate, std::exp(-0.5), 0.02);
}

TEST(WorldSet, ZeroLengthEdgeUpInEveryWorld) {
  Graph g(2);
  g.addEdge(0, 1, 0.0);
  const WorldSet ws(g, {.worlds = 100, .seed = 1});
  EXPECT_EQ(ws.edgePlane(0).count(), 100u);
}

TEST(WorldSet, UpFlagsMatchPlanes) {
  const Graph g = msc::test::randomGraph(12, 0.3, 5);
  const WorldSet ws(g, {.worlds = 70, .seed = 2});
  for (const int world : {0, 31, 69}) {
    const auto up = ws.upFlags(world);
    ASSERT_EQ(up.size(), g.edgeCount());
    for (std::size_t e = 0; e < up.size(); ++e) {
      EXPECT_EQ(up[e] != 0, ws.edgeUpIn(world, e));
    }
  }
  EXPECT_THROW(ws.upFlags(70), std::out_of_range);
  EXPECT_THROW(ws.upFlags(-1), std::out_of_range);
}

// ------------------------------------------- estimator vs exact worlds ---

TEST(Reliability, DiamondMatchesClosedFormWithinHalfWidth) {
  const Graph g = diamondGraph();
  const std::vector<SocialPair> pairs = {{0, 3}};
  const auto inst = Instance::fromFailureThreshold(g, pairs, 0.4);

  // Exact: both 2-hop paths are edge-disjoint, R = a + b - ab.
  const double a = std::exp(-0.8), b = std::exp(-1.0);
  const double exact = a + b - a * b;
  const auto viaEnum = msc::mc::exactPairReliabilities(inst, {});
  ASSERT_EQ(viaEnum.size(), 1u);
  EXPECT_NEAR(viaEnum[0], exact, 1e-12);

  const WorldSet ws(g, {.worlds = 4096, .seed = 1});
  ReliabilityEvaluator eval(inst, ws);
  eval.reset();
  const auto est = eval.pairEstimates(3.29);  // 99.9% band
  ASSERT_EQ(est.size(), 1u);
  EXPECT_NEAR(est[0].reliability, exact, est[0].halfWidth);
  // The surrogate misses this pair (best path failure ~0.551 > p_t = 0.4)
  // but the true multi-path reliability maintains it.
  EXPECT_GT(inst.baseDistance(pairs[0]),
            inst.distanceThreshold());  // surrogate: unsatisfied
  EXPECT_TRUE(est[0].maintained);
  EXPECT_EQ(eval.maintainedCount(), 1);
  EXPECT_EQ(msc::mc::exactSigma(inst, {}), 1);
}

TEST(Reliability, SampledSigmaConvergesToExactOnEnumerableGraph) {
  const Graph g = ringWithChords();
  const std::vector<SocialPair> pairs = {{0, 4}, {1, 7}, {2, 9},
                                         {3, 6}, {5, 8}};
  const auto inst = Instance::fromFailureThreshold(g, pairs, 0.35);

  const auto exact = msc::mc::exactPairReliabilities(inst, {});
  const int exactSig = msc::mc::exactSigma(inst, {});

  const WorldSet ws(g, {.worlds = 4096, .seed = 9});
  ReliabilityEvaluator eval(inst, ws);
  const auto est = eval.pairEstimates(3.29);
  ASSERT_EQ(est.size(), pairs.size());
  for (std::size_t i = 0; i < est.size(); ++i) {
    EXPECT_NEAR(est[i].reliability, exact[i], est[i].halfWidth)
        << "pair " << i;
  }
  // σ̂ may only disagree with exact σ on pairs flagged uncertain.
  EXPECT_LE(std::abs(eval.maintainedCount() - exactSig),
            eval.uncertainCount(3.29));

  // And with a placement: a shortcut is up in every world.
  const ShortcutList placement = {Shortcut::make(0, 4)};
  const auto exactWith = msc::mc::exactPairReliabilities(inst, placement);
  EXPECT_NEAR(exactWith[0], 1.0, 1e-12);
  ReliabilityEvaluator eval2(inst, ws);
  eval2.evaluate(placement);
  EXPECT_EQ(eval2.reachedWorlds(0), static_cast<std::size_t>(ws.worlds()));
}

// -------------------------------------------- incremental consistency ---

TEST(Reliability, IncrementalMatchesSetFunctionAndGainsAreExactDeltas) {
  const Graph g = ringWithChords();
  const std::vector<SocialPair> pairs = {{0, 4}, {1, 7}, {2, 9}, {3, 6}};
  const auto inst = Instance::fromFailureThreshold(g, pairs, 0.3);
  const WorldSet ws(g, {.worlds = 512, .seed = 4});

  for (const Objective obj :
       {Objective::MaintainedCount, Objective::TotalReliability}) {
    ReliabilityEvaluator eval(inst, ws, obj);
    const ShortcutList placement = {Shortcut::make(0, 4),
                                    Shortcut::make(2, 9)};
    ShortcutList sofar;
    for (const Shortcut& f : placement) {
      const double before = eval.currentValue();
      const double gain = eval.gainIfAdd(f);
      EXPECT_GE(gain, 0.0);  // reachability only grows
      eval.add(f);
      sofar.push_back(f);
      EXPECT_DOUBLE_EQ(eval.currentValue(), before + gain);
      EXPECT_DOUBLE_EQ(eval.value(sofar), eval.currentValue());
    }
    eval.reset();
    EXPECT_DOUBLE_EQ(eval.currentValue(), eval.value({}));
  }
}

TEST(Reliability, CommonRandomNumbersMakeValuesMonotoneAcrossNestedSets) {
  // Under one WorldSet the objective is a deterministic set function, so
  // F ⊆ F' implies value(F) <= value(F') exactly — no sampling noise can
  // reorder nested placements. (Independent resampling per evaluation
  // would break this; sharing the worlds is what makes greedy's argmax
  // comparisons meaningful.)
  const Graph g = msc::test::randomGraph(16, 0.2, 6);
  std::vector<SocialPair> pairs = {{0, 15}, {1, 14}, {2, 13}};
  const auto inst = Instance::fromFailureThreshold(g, pairs, 0.25);
  const WorldSet ws(g, {.worlds = 256, .seed = 3});
  ReliabilityEvaluator eval(inst, ws, Objective::TotalReliability);

  msc::util::Rng rng(99);
  ShortcutList nested;
  double prev = eval.value(nested);
  for (int step = 0; step < 5; ++step) {
    const auto more = msc::test::randomPlacement(16, 1, rng);
    if (msc::core::contains(nested, more[0])) continue;
    nested.push_back(more[0]);
    const double next = eval.value(nested);
    EXPECT_GE(next, prev);
    prev = next;
  }
}

TEST(Reliability, ClosedFormGainMatchesFreshEvaluatorReference) {
  // Every candidate of every greedy round on seeded random graphs: the
  // closed-form gain must equal counts(F ∪ {f}) − counts(F) scored from
  // scratch. All node pairs are candidates, so the scan includes shortcuts
  // that coincide with a pair, touch a pair endpoint, or duplicate a base
  // edge or a committed shortcut; W covers full and partial last words.
  using msc::test::reference::mcCounts;
  const int worldCounts[] = {64, 71, 200, 1024};
  int coincide = 0, touch = 0, dupEdge = 0, dupShortcut = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    msc::util::Rng rng(seed * 7919);
    const int n = 8 + static_cast<int>(rng.below(7));
    const Graph g = msc::test::randomGraph(n, 0.3, seed);
    // Pairs 0 and 1 share endpoint x; the rest are random.
    const auto node = [&] {
      return static_cast<msc::graph::NodeId>(
          rng.below(static_cast<std::uint64_t>(n)));
    };
    const msc::graph::NodeId x = node();
    std::vector<SocialPair> pairs = {{x, (x + 1) % n}, {(x + 3) % n, x}};
    while (pairs.size() < 4) {
      const auto u = node(), w = node();
      if (u != w) pairs.push_back({u, w});
    }
    const auto inst = Instance::fromFailureThreshold(g, pairs, 0.2);
    const int w = worldCounts[seed % 4];
    const WorldSet ws(g, {.worlds = w, .seed = seed});
    const auto cands = CandidateSet::allPairs(n);

    // Both objectives' gains are checked on every candidate; which one
    // picks the round's shortcut alternates across seeds, for every W.
    const Objective steer = (seed / 4) % 2 == 0 ? Objective::MaintainedCount
                                                : Objective::TotalReliability;
    ReliabilityEvaluator hard(inst, ws, Objective::MaintainedCount);
    ReliabilityEvaluator soft(inst, ws, Objective::TotalReliability);
    ShortcutList placement;
    for (int round = 0; round < 4; ++round) {
      const auto before = mcCounts(inst, ws, placement);
      std::size_t best = 0;
      double bestGain = -1.0;
      for (std::size_t c = 0; c < cands.size(); ++c) {
        const Shortcut& f = cands[c];
        ShortcutList grown = placement;
        grown.push_back(f);
        const auto after = mcCounts(inst, ws, grown);
        const double hardGain = hard.gainIfAdd(f);
        const double softGain = soft.gainIfAdd(f);
        ASSERT_EQ(hardGain,
                  static_cast<double>(after.maintained - before.maintained))
            << "seed " << seed << " round " << round << " f " << f.a
            << "-" << f.b;
        ASSERT_EQ(softGain,
                  static_cast<double>(after.reachedWorlds -
                                      before.reachedWorlds) /
                      static_cast<double>(w))
            << "seed " << seed << " round " << round << " f " << f.a
            << "-" << f.b;
        const double gain =
            steer == Objective::MaintainedCount ? hardGain : softGain;
        if (gain > bestGain) {
          bestGain = gain;
          best = c;
        }
        for (const SocialPair& p : pairs) {
          if (f == Shortcut::make(p.u, p.w)) ++coincide;
          if (f.a == p.u || f.a == p.w || f.b == p.u || f.b == p.w) {
            ++touch;
          }
        }
        if (g.hasEdge(f.a, f.b)) ++dupEdge;
        if (msc::core::contains(placement, f)) ++dupShortcut;
      }
      // A flat round commits a random candidate so later rounds still
      // start from varied placements.
      const Shortcut pick =
          bestGain > 0.0 ? cands[best] : cands[rng.below(cands.size())];
      placement.push_back(pick);
      hard.add(pick);
      soft.add(pick);
    }
  }
  EXPECT_GT(coincide, 0);
  EXPECT_GT(touch, 0);
  EXPECT_GT(dupEdge, 0);
  EXPECT_GT(dupShortcut, 0);
}

// --------------------------------------------------- solver contracts ---

TEST(McSolver, GreedyThreadsBitIdentity) {
  const Graph g = msc::test::randomGraph(30, 0.12, 3);
  const std::vector<SocialPair> pairs = {{0, 29}, {1, 27}, {2, 25},
                                         {3, 23}, {4, 21}, {5, 19}};
  const auto inst = Instance::fromFailureThreshold(g, pairs, 0.3);
  const auto cands = CandidateSet::allPairs(g.nodeCount());

  const msc::mc::McOptions mcOpts{.worlds = 256};
  const auto one = msc::mc::greedy(
      inst, cands, SolveOptions{.k = 4, .threads = 1, .seed = 5}, mcOpts);
  const auto four = msc::mc::greedy(
      inst, cands, SolveOptions{.k = 4, .threads = 4, .seed = 5}, mcOpts);
  EXPECT_EQ(one.placement, four.placement);
  EXPECT_EQ(one.sigmaHat, four.sigmaHat);
  ASSERT_EQ(one.estimates.size(), four.estimates.size());
  for (std::size_t i = 0; i < one.estimates.size(); ++i) {
    EXPECT_EQ(one.estimates[i].reliability, four.estimates[i].reliability);
  }

  const auto sw1 = msc::mc::sandwich(
      inst, cands, SolveOptions{.k = 4, .threads = 1, .seed = 5}, mcOpts);
  const auto sw4 = msc::mc::sandwich(
      inst, cands, SolveOptions{.k = 4, .threads = 4, .seed = 5}, mcOpts);
  EXPECT_EQ(sw1.placement, sw4.placement);
  EXPECT_EQ(sw1.winner, sw4.winner);
  EXPECT_EQ(sw1.sigmaHat, sw4.sigmaHat);
}

TEST(McSolver, SandwichNeverBelowGreedyAndFillsResultFields) {
  const Graph g = ringWithChords();
  const std::vector<SocialPair> pairs = {{0, 4}, {1, 7}, {2, 9},
                                         {3, 6}, {5, 8}};
  const auto inst = Instance::fromFailureThreshold(g, pairs, 0.35);
  const auto cands = CandidateSet::allPairs(g.nodeCount());
  const SolveOptions options{.k = 3, .threads = 1, .seed = 2};
  const msc::mc::McOptions mcOpts{.worlds = 512};

  const auto gr = msc::mc::greedy(inst, cands, options, mcOpts);
  const auto sw = msc::mc::sandwich(inst, cands, options, mcOpts);
  EXPECT_GE(sw.sigmaHat, gr.sigmaHat);
  EXPECT_EQ(gr.winner, "mc_greedy");
  EXPECT_TRUE(sw.winner == "mc_greedy" || sw.winner == "mc_soft" ||
              sw.winner == "surrogate");
  EXPECT_EQ(gr.worlds, 512);
  EXPECT_EQ(gr.pairs, 5);
  EXPECT_EQ(gr.estimates.size(), 5u);
  EXPECT_GT(gr.gainEvaluations, 0u);
  EXPECT_GE(gr.wallSeconds, 0.0);
}

// --------------------------------------------------------------- serve ---

std::string graphText(const Graph& g) {
  std::ostringstream os;
  msc::graph::writeEdgeList(os, g);
  return os.str();
}

std::string jsonEscape(const std::string& raw) {
  std::string out;
  for (const char c : raw) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

TEST(McServe, SolveMcReliabilityMatchesDirectPath) {
  const double pt = 0.3;
  const Graph g = msc::test::randomGraph(24, 0.15, 7);
  msc::serve::Engine engine;
  ASSERT_EQ(json::parse(engine.handleLine(
                            "{\"cmd\":\"load_graph\",\"as\":\"g\",\"text\":\"" +
                            jsonEscape(graphText(g)) + "\"}"))
                .find("status")
                ->asString(),
            "ok");
  ASSERT_EQ(json::parse(engine.handleLine(
                            "{\"cmd\":\"load_pairs\",\"as\":\"p\",\"text\":\"" +
                            jsonEscape("0 23\n1 21\n2 19\n3 17\n") + "\"}"))
                .find("status")
                ->asString(),
            "ok");

  const std::vector<SocialPair> pairs = {{0, 23}, {1, 21}, {2, 19}, {3, 17}};
  const auto inst = Instance::fromFailureThreshold(g, pairs, pt);
  const auto cands = CandidateSet::allPairs(g.nodeCount());
  const SolveOptions options{.k = 3, .threads = 2, .seed = 1};
  const msc::mc::McOptions mcOpts{.worlds = 512};

  {
    const auto direct = msc::mc::greedy(inst, cands, options, mcOpts);
    const auto resp = json::parse(engine.handleLine(
        "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.3,"
        "\"objective\":\"mc_reliability\",\"algo\":\"greedy\",\"worlds\":512,"
        "\"k\":3,\"threads\":2,\"seed\":1}"));
    ASSERT_EQ(resp.find("status")->asString(), "ok");
    EXPECT_EQ(resp.find("objective")->asString(), "mc_reliability");
    EXPECT_EQ(resp.find("placement")->asString(),
              msc::serve::placementSpec(direct.placement));
    EXPECT_DOUBLE_EQ(resp.find("value")->asNumber(), direct.sigmaHat);
    EXPECT_EQ(resp.find("worlds")->asNumber(), 512);
    EXPECT_EQ(resp.find("uncertain_pairs")->asNumber(),
              direct.uncertainPairs);
    EXPECT_EQ(static_cast<std::size_t>(resp.find("gain_evals")->asNumber()),
              direct.gainEvaluations);
  }
  {
    const auto direct = msc::mc::sandwich(inst, cands, options, mcOpts);
    const auto resp = json::parse(engine.handleLine(
        "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.3,"
        "\"objective\":\"mc_reliability\",\"algo\":\"sandwich\","
        "\"worlds\":512,\"k\":3,\"threads\":2,\"seed\":1}"));
    ASSERT_EQ(resp.find("status")->asString(), "ok");
    EXPECT_EQ(resp.find("placement")->asString(),
              msc::serve::placementSpec(direct.placement));
    EXPECT_DOUBLE_EQ(resp.find("value")->asNumber(), direct.sigmaHat);
    EXPECT_EQ(resp.find("winner")->asString(), direct.winner);
  }
  // Default objective stays the surrogate and rejects unknown names.
  {
    const auto resp = json::parse(engine.handleLine(
        "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.3,"
        "\"k\":2}"));
    ASSERT_EQ(resp.find("status")->asString(), "ok");
    EXPECT_EQ(resp.find("objective")->asString(), "sigma");
    EXPECT_EQ(resp.find("worlds"), nullptr);
  }
  {
    const auto resp = json::parse(engine.handleLine(
        "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.3,"
        "\"objective\":\"quantum\",\"k\":2}"));
    EXPECT_EQ(resp.find("status")->asString(), "error");
  }
  {
    const auto resp = json::parse(engine.handleLine(
        "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.3,"
        "\"objective\":\"mc_reliability\",\"algo\":\"ea\",\"k\":2}"));
    EXPECT_EQ(resp.find("status")->asString(), "error");
  }
}

TEST(McServe, RefusesWorldsWhosePlanesExceedTheCacheBudget) {
  // 1 MB budget; 4 pairs over 24 nodes with 8 distinct endpoints: at
  // W = 2^20 one evaluator's planes need (8 * 24 + m) * 16384 * 8 bytes
  // (> 25 MB), at W = 512 a few KB.
  const Graph g = msc::test::randomGraph(24, 0.15, 7);
  msc::serve::Engine engine(msc::serve::EngineConfig{.cacheBytes = 1 << 20});
  ASSERT_EQ(json::parse(engine.handleLine(
                            "{\"cmd\":\"load_graph\",\"as\":\"g\",\"text\":\"" +
                            jsonEscape(graphText(g)) + "\"}"))
                .find("status")
                ->asString(),
            "ok");
  ASSERT_EQ(json::parse(engine.handleLine(
                            "{\"cmd\":\"load_pairs\",\"as\":\"p\",\"text\":\"" +
                            jsonEscape("0 23\n1 21\n2 19\n3 17\n") + "\"}"))
                .find("status")
                ->asString(),
            "ok");
  const std::string solve =
      "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.3,"
      "\"objective\":\"mc_reliability\",\"algo\":\"greedy\",\"k\":2,"
      "\"threads\":1,\"seed\":1,\"worlds\":";
  const auto refused = json::parse(engine.handleLine(solve + "1048576}"));
  ASSERT_EQ(refused.find("status")->asString(), "error");
  const std::string error = refused.find("error")->asString();
  EXPECT_NE(error.find("plane memory"), std::string::npos) << error;
  EXPECT_NE(error.find("MSC_SERVE_CACHE_MB"), std::string::npos) << error;
  const std::size_t estimate = (8 * 24 + g.edgeCount()) * 16384 * 8;
  EXPECT_NE(error.find(std::to_string(estimate) + " bytes"), std::string::npos)
      << error;
  EXPECT_NE(error.find(std::to_string(1 << 20) + " bytes"), std::string::npos)
      << error;

  // The engine keeps serving, and a small W passes admission.
  const auto ok = json::parse(engine.handleLine(solve + "512}"));
  EXPECT_EQ(ok.find("status")->asString(), "ok");
  EXPECT_EQ(ok.find("worlds")->asNumber(), 512);
}

// ----------------------------------------------------------- edge cases ---

TEST(Reliability, MismatchedWorldSetGraphThrows) {
  const Graph g = diamondGraph();
  const auto inst =
      Instance::fromFailureThreshold(g, {{0, 3}}, 0.4);
  const Graph other = msc::test::lineGraph(7);
  const WorldSet ws(other, {.worlds = 64, .seed = 1});
  EXPECT_THROW(ReliabilityEvaluator(inst, ws), std::invalid_argument);
}

TEST(Reliability, DirectShortcutMaintainsPairInAllWorlds) {
  const Graph g = msc::test::lineGraph(6, 2.0);  // long links, low survival
  const auto inst = Instance::fromFailureThreshold(g, {{0, 5}}, 0.1);
  const WorldSet ws(g, {.worlds = 128, .seed = 1});
  ReliabilityEvaluator eval(inst, ws);
  EXPECT_EQ(eval.maintainedCount(), 0);
  eval.add(Shortcut::make(0, 5));
  EXPECT_EQ(eval.maintainedCount(), 1);
  EXPECT_EQ(eval.reachedWorlds(0), 128u);
  const auto est = eval.pairEstimates();
  EXPECT_DOUBLE_EQ(est[0].reliability, 1.0);
  EXPECT_DOUBLE_EQ(est[0].halfWidth, 0.0);
  EXPECT_FALSE(est[0].uncertain);
}

}  // namespace
