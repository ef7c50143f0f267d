// `paper`: one closed-loop client driving serve::Engine::handleLine over
// paper-regime instances.
//
// Setup generates a pool of episodes from the seed — of every eight, five
// RG n = 100 with m = 17, two Gowalla-like n = 134 with m = 63 and one RG
// n = 300 with m = 30 — and renders each as edge-list and pair-list texts.
// Each episode is one script: load_graph, load_pairs (a new instance: the
// first solve misses
// the APSP cache, later ones hit), solve greedy / aa / ea / aea at k in
// [2, 10] (k cycles with the episode, so every seed runs the same mix of
// budgets), each followed by an eval of the returned placement, then a
// stats scrape and, every other episode, a metrics scrape. One request is
// one op. The traced phase also replays every solve through the library
// with counting evaluators and checks it returns the serve placement.
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/candidates.h"
#include "core/instance.h"
#include "graph/graph_io.h"
#include "inputs.h"
#include "probe.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace core = msc::core;
namespace json = msc::serve::json;

struct Episode {
  std::string graphText;
  std::string pairsText;
  std::vector<core::SocialPair> pairs;
  double pt = 0.0;
  double dt = 0.0;
};

enum class Step { LoadGraph, LoadPairs, Solve, Eval, Stats, Metrics };

struct ScriptOp {
  std::size_t episode = 0;
  Step step = Step::Stats;
  std::string algo;      // solves only
  std::size_t slot = 0;  // solve's position in its episode
};

const char* const kAlgos[] = {"greedy", "aa", "ea", "aea"};
constexpr int kEaIterations = 500;
constexpr int kAeaIterations = 100;

const char* stepName(Step s) {
  switch (s) {
    case Step::LoadGraph: return "load_graph";
    case Step::LoadPairs: return "load_pairs";
    case Step::Solve: return "solve";
    case Step::Eval: return "eval";
    case Step::Stats: return "stats";
    case Step::Metrics: return "metrics";
  }
  return "?";
}

double numberField(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->isNumber() ? f->asNumber() : -1.0;
}

std::string stringField(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->isString() ? f->asString() : std::string();
}

double phaseField(const json::Value& reply, const char* phase) {
  const json::Value* usage = reply.find("usage");
  const json::Value* phases = usage ? usage->find("phases") : nullptr;
  return phases ? numberField(*phases, phase) : -1.0;
}

class PaperWorkload final : public Workload {
 public:
  explicit PaperWorkload(const RunConfig& cfg)
      : cfg_(cfg), episodes_(cfg.tiny ? 3 : 160), probe_(cfg.threads) {
    for (std::size_t e = 0; e < episodes_; ++e) {
      const auto add = [&](Step s, std::string algo = "", std::size_t slot = 0) {
        script_.push_back({e, s, std::move(algo), slot});
      };
      add(Step::LoadGraph);
      add(Step::LoadPairs);
      for (std::size_t a = 0; a < std::size(kAlgos); ++a) {
        add(Step::Solve, kAlgos[a], a);
        add(Step::Eval);
      }
      add(Step::Stats);
      if (e % 2 == 1) add(Step::Metrics);
    }
  }

  void setup(Tracer* tracer) override {
    probe_.setTracer(tracer);
    pool_.clear();
    for (std::size_t e = 0; e < episodes_; ++e) {
      const std::uint64_t s = mixSeed(cfg_.seed, 10 + e);
      GeneratedInput in;
      // One RG300 episode in eight: each costs about as much as the other
      // seven together (aea over 44850 candidates).
      if (e % 8 == 7) {
        in = makeRgInput(cfg_.tiny ? 120 : 300, 0.09, 30, 0.14, s, probe_,
                         tracer);
      } else if (e % 4 == 1) {
        in = makeGowallaInput(cfg_.tiny ? 20 : 63, 0.23, s, probe_, tracer);
      } else {
        in = makeRgInput(100, 0.15, 17, 0.14, s, probe_, tracer);
      }
      const Tracer::Scope span(tracer, "bench.render_inputs", "bench");
      Episode ep;
      std::ostringstream g;
      msc::graph::writeEdgeList(g, in.graph);
      ep.graphText = g.str();
      std::ostringstream p;
      for (const core::SocialPair& pr : in.pairs) p << pr.u << ' ' << pr.w << '\n';
      ep.pairsText = p.str();
      ep.pairs = std::move(in.pairs);
      ep.pt = in.pt;
      ep.dt = in.dt;
      pool_.push_back(std::move(ep));
    }
  }

  void beginPhase(bool traced) override {
    msc::serve::EngineConfig ec;
    // A small cache fills within a few dozen episodes and then evicts, so
    // peak RSS does not grow with how many episodes a run gets through.
    ec.cacheBytes = std::size_t{8} << 20;
    ec.defaultThreads = cfg_.threads;
    ec.oracleRowBytes = 0;
    engine_.reset();
    engine_ = std::make_unique<msc::serve::Engine>(ec);
    traced_ = traced;
    replayInstances_.clear();
  }

  OpResult runOp(std::size_t index, Tracer* tracer, OpTimer& timer) override {
    probe_.setTracer(tracer);
    const ScriptOp& op = script_[index % script_.size()];
    const Episode& ep = pool_[op.episode];
    const std::string tag = std::to_string(op.episode);
    msc::util::Rng rng(mixSeed(cfg_.seed, 100000 + index));

    json::Object req;
    req["id"] = static_cast<long long>(index);
    req["cmd"] = stepName(op.step);
    switch (op.step) {
      case Step::LoadGraph:
        req["as"] = "g" + tag;
        req["text"] = ep.graphText;
        break;
      case Step::LoadPairs:
        req["as"] = "p" + tag;
        req["text"] = ep.pairsText;
        break;
      case Step::Solve:
        req["graph"] = "g" + tag;
        req["pairs"] = "p" + tag;
        req["p_t"] = ep.pt;
        req["algo"] = op.algo;
        req["k"] = static_cast<long long>(2 + (op.episode + op.slot) % 9);
        req["threads"] = cfg_.threads;
        req["seed"] = static_cast<long long>(1 + rng.below(1000));
        req["iters"] = op.algo == "ea" ? kEaIterations : kAeaIterations;
        break;
      case Step::Eval:
        req["graph"] = "g" + tag;
        req["pairs"] = "p" + tag;
        req["p_t"] = ep.pt;
        req["placement"] = cfg_.corrupt ? std::string() : lastPlacement_;
        break;
      case Step::Stats:
      case Step::Metrics:
        break;
    }
    const std::string line = json::dump(json::Value(req));

    std::string reply;
    timer.start();
    {
      const Tracer::Scope span(tracer, std::string("serve.") + stepName(op.step),
                               "serve");
      reply = engine_->handleLine(line);
    }
    timer.stop();

    OpResult r;
    r.kind = op.step == Step::Solve ? "solve." + op.algo : stepName(op.step);
    r.solve = op.step == Step::Solve;
    const json::Value doc = json::parse(reply);
    r.failed = stringField(doc, "status") != "ok";
    if (traced_) record(op.step, timer.wall(), doc);
    switch (op.step) {
      case Step::LoadGraph:
        r.answer = stringField(doc, "graph");
        break;
      case Step::LoadPairs:
        r.answer = stringField(doc, "pairs");
        break;
      case Step::Solve: {
        lastPlacement_ = stringField(doc, "placement");
        lastValue_ = numberField(doc, "value");
        r.quality = lastValue_;
        std::ostringstream a;
        a.precision(17);
        a << lastPlacement_ << " = " << lastValue_;
        r.answer = a.str();
        if (traced_ && !r.failed) {
          r.failed = replay(op, ep, req, tracer) != lastPlacement_;
        }
        break;
      }
      case Step::Eval: {
        // The eval of the solve's placement must reproduce its value.
        const double sigma = numberField(doc, "sigma");
        r.failed = r.failed || sigma != lastValue_;
        std::ostringstream a;
        a.precision(17);
        a << sigma;
        r.answer = a.str();
        break;
      }
      case Step::Stats:
      case Step::Metrics:
        break;  // time-dependent content; status checked above
    }
    if (r.failed && firstFailure_.empty()) {
      firstFailure_ = "first failed request " + std::to_string(index) + ": " +
                      reply.substr(0, 300);
    }
    return r;
  }

  // The first 18 episodes: every k in [2, 10] twice for each algorithm.
  std::size_t qualitySolves() const override { return cfg_.tiny ? 4 : 72; }

  void layerMetrics(const Tracer& tracer, LayerMetrics& out) override {
    for (const auto& [cmd, samples] : requestSeconds_) {
      out["serve.request_s." + cmd] = median(samples);
    }
    out["serve.other_s"] = median(otherSeconds_);
    const double lookups = static_cast<double>(cacheHits_ + cacheMisses_);
    out["serve.cache_hit_ratio"] = lookups > 0 ? cacheHits_ / lookups : 0.0;

    const double setup = tracer.totalSeconds("setup");
    out["share.gen_oracle_of_setup"] =
        setup > 0.0 ? (tracer.totalSeconds("gen.random_geometric") +
                       tracer.totalSeconds("gen.gowalla") +
                       tracer.totalSeconds("graph.apsp")) /
                          setup
                    : 0.0;
    out["share.dijkstra_oracle_of_op"] =
        serveSeconds_ > 0.0 ? apspSeconds_ / serveSeconds_ : 0.0;
    probe_.setTracer(nullptr);
    for (std::size_t e = 0; e < 4 && e < pool_.size(); ++e) {
      std::istringstream in(pool_[e].graphText);
      probe_.sampleDijkstra(msc::graph::readEdgeList(in), mixSeed(cfg_.seed, 20 + e), 16);
    }
    probe_.fill(out);
  }

  std::vector<std::string> notes() const override {
    if (firstFailure_.empty()) return {};
    return {firstFailure_};
  }

 private:
  void record(Step step, double seconds, const json::Value& doc) {
    requestSeconds_[stepName(step)].push_back(seconds);
    serveSeconds_ += seconds;
    if (step != Step::Solve && step != Step::Eval) return;
    const double other = phaseField(doc, "other");
    if (other >= 0.0) otherSeconds_.push_back(other);
    if (stringField(doc, "apsp_cache") == "hit") {
      ++cacheHits_;
    } else {
      ++cacheMisses_;
      const double apsp = phaseField(doc, "apsp");
      if (apsp >= 0.0) {
        probe_.addApsp(apsp);
        apspSeconds_ += apsp;
      }
    }
  }

  /// Re-runs a serve solve through the library with counting evaluators
  /// and returns its placement spec.
  std::string replay(const ScriptOp& op, const Episode& ep,
                     const json::Object& req, Tracer* tracer) {
    auto it = replayInstances_.find(op.episode);
    if (it == replayInstances_.end()) {
      const Tracer::Scope span(tracer, "oracle.instance", "oracle");
      const std::int64_t t0 = nowNs();
      std::istringstream in(ep.graphText);
      auto inst = std::make_unique<core::Instance>(
          msc::graph::readEdgeList(in), ep.pairs, ep.dt,
          core::InstanceOptions{.threads = cfg_.threads,
                                .distanceMode = msc::graph::DistanceMode::Dense});
      probe_.addPrefetch(secondsSince(t0));
      auto cands = std::make_unique<core::CandidateSet>(
          core::CandidateSet::allPairs(inst->graph().nodeCount()));
      it = replayInstances_
               .emplace(op.episode, Replay{std::move(inst), std::move(cands)})
               .first;
    }
    const core::Instance& inst = *it->second.instance;
    const core::CandidateSet& cands = *it->second.candidates;
    const core::SolveOptions opts{
        .k = static_cast<int>(req.at("k").asNumber()),
        .threads = cfg_.threads,
        .seed = static_cast<std::uint64_t>(req.at("seed").asNumber())};
    core::ShortcutList placement;
    if (op.algo == "greedy") {
      placement = probe_.sigmaGreedy(inst, cands, opts).placement;
    } else if (op.algo == "aa") {
      placement = probe_.sandwich(inst, cands, opts).placement;
    } else if (op.algo == "ea") {
      placement = probe_.ea(inst, cands, opts, kEaIterations).placement;
    } else {
      placement = probe_.aea(inst, cands, opts, kAeaIterations).placement;
    }
    return msc::serve::placementSpec(placement);
  }

  struct Replay {
    std::unique_ptr<core::Instance> instance;
    std::unique_ptr<core::CandidateSet> candidates;
  };

  RunConfig cfg_;
  std::size_t episodes_;
  LayerProbe probe_;
  std::vector<ScriptOp> script_;
  std::vector<Episode> pool_;
  std::unique_ptr<msc::serve::Engine> engine_;
  bool traced_ = false;
  std::string lastPlacement_;
  double lastValue_ = 0.0;
  std::string firstFailure_;
  std::map<std::size_t, Replay> replayInstances_;
  std::map<std::string, std::vector<double>> requestSeconds_;
  std::vector<double> otherSeconds_;
  std::size_t cacheHits_ = 0, cacheMisses_ = 0;
  double apspSeconds_ = 0.0;
  double serveSeconds_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> makePaperWorkload(const RunConfig& cfg) {
  return std::make_unique<PaperWorkload>(cfg);
}

}  // namespace perfbench
