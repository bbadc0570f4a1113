// Reproduces Fig 11 (a,b,c): the Google Plus experiment on the attributed
// gplus stand-in served through the restricted per-user interface.
//  (a) estimated average degree as a function of query cost (one SRW and one
//      MTO trajectory), showing MTO's lower variance / faster settling;
//  (b) relative error vs query cost for the average degree;
//  (c) relative error vs query cost for the average self-description length.
// As in the paper, ground truth is taken to be the converged value of a long
// run ("presumptive ground truth"); since the stand-in's exact population
// values are also available, both are printed.

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "src/experiments/error_vs_cost.h"
#include "src/graph/datasets.h"
#include "src/util/table.h"

namespace {

using namespace mto;

/// The two compared samplers: registry name, legend, and the offset that
/// derives each one's base seed.
struct Sampled {
  const char* program;
  const char* legend;
  int seed_offset;
};
constexpr Sampled kSamplers[] = {{"srw", "SRW", 0}, {"mto", "MTO", 3}};

void Trajectories(const SocialNetwork& net) {
  PrintBanner(std::cout, "Fig 11(a): estimated average degree vs query cost");
  Table table({"sampler", "query cost", "estimate"});
  for (const Sampled& sampled : kSamplers) {
    WalkRunConfig config;
    config.program = sampled.program;
    config.num_samples = 900;
    config.thinning = 3;
    config.geweke_min_length = 100;
    config.max_burn_in_steps = 2000;
    WalkRunResult run = RunAggregateEstimation(net, config, 0xF11A);
    // Subsample the trace to ~15 printed points per sampler.
    size_t stride = run.trace.size() / 15 + 1;
    for (size_t i = 0; i < run.trace.size(); i += stride) {
      table.AddRow({sampled.legend,
                    std::to_string(run.trace[i].query_cost),
                    Table::Num(run.trace[i].estimate, 3)});
    }
  }
  table.PrintText(std::cout);
}

double ConvergedValue(const SocialNetwork& net, Attribute attribute,
                      uint64_t seed) {
  WalkRunConfig config;
  config.attribute = attribute;
  config.num_samples = 20000;
  config.thinning = 3;
  config.max_burn_in_steps = 30000;
  return RunAggregateEstimation(net, config, seed).final_estimate;
}

void ErrorCurve(const SocialNetwork& net, Attribute attribute,
                const std::string& label, double population_truth,
                size_t runs) {
  const double converged = ConvergedValue(net, attribute, 0xC04);
  PrintBanner(std::cout, label + " (converged value " +
                             Table::Num(converged, 3) + ", population truth " +
                             Table::Num(population_truth, 3) + ")");
  Table table({"rel. error", "SRW query cost", "MTO query cost"});
  std::vector<double> thresholds{0.50, 0.40, 0.30, 0.20, 0.15, 0.10};
  std::vector<std::vector<double>> cols;
  for (const Sampled& sampled : kSamplers) {
    WalkRunConfig config;
    config.program = sampled.program;
    config.attribute = attribute;
    config.restart_per_sample = true;  // Algorithm 1's outer loop
    config.num_samples = 300;
    config.geweke_min_length = 100;
    config.max_burn_in_steps = 2500;
    auto curve = MeasureErrorVsCost(net, config, converged, thresholds, runs,
                                    0xF11B + sampled.seed_offset);
    cols.push_back(curve.mean_query_cost);
  }
  for (size_t t = 0; t < thresholds.size(); ++t) {
    table.AddRow({Table::Num(thresholds[t], 2), Table::Num(cols[0][t], 0),
                  Table::Num(cols[1][t], 0)});
  }
  table.PrintText(std::cout);
  std::cout << "CSV:\n";
  table.PrintCsv(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  if (mto::bench::SmokeOrHelpExit(argc, argv, "bench_fig11_gplus", "[--runs N] [--small]")) return 0;
  size_t runs = 10;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      runs = static_cast<size_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    }
  }
  SocialNetwork net = SocialNetwork::WithSyntheticProfiles(
      MakeDataset(small ? "gplus_small" : "gplus"), 0x6B1);
  Trajectories(net);
  ErrorCurve(net, Attribute::kDegree, "Fig 11(b): average degree",
             net.TrueAverageDegree(), runs);
  ErrorCurve(net, Attribute::kDescriptionLength,
             "Fig 11(c): average self-description length",
             net.TrueAverageDescriptionLength(), runs);
  return 0;
}
