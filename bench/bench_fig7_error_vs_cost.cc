// Reproduces Fig 7 (a,b,c): relative error vs query cost for SRW, MTO, MHRW
// and RJ on the three local datasets, estimating the average degree. Each
// point is, as in the paper, the mean over independent runs of the maximum
// query cost at which the running estimate still exceeded the error level;
// the random-jump probability is 0.5 (Section V-B). Samples are retrieved
// with Algorithm 1's restart-per-sample protocol (each sample re-burns in
// from the start vertex under the Geweke rule, duplicates answered from the
// local cache) — the regime the paper's cost numbers were produced in.
//
// Pass `--runs N` to change the repetition count (paper: 20) and `--small`
// to use the 1/8-1/16-scale stand-ins for a quick look.

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

/// One column per sampler: its registry name, legend, and the offset that
/// derives its base seed.
struct Column {
  const char* program;
  const char* legend;
  int seed_offset;
};
constexpr Column kColumns[] = {{"srw", "SRW", 0},
                               {"mto", "MTO", 3},
                               {"mhrw", "MHRW", 1},
                               {"random_jump", "RJ", 2}};

void RunDataset(const std::string& name, const std::string& figure,
                const std::vector<double>& thresholds, size_t runs) {
  SocialNetwork net(MakeDataset(name));
  const double truth = net.TrueAverageDegree();
  PrintBanner(std::cout, "Fig 7" + figure + ": " + name +
                             " (avg degree, truth = " + Table::Num(truth, 3) +
                             ", runs = " + std::to_string(runs) + ")");
  Table table([&] {
    std::vector<std::string> headers{"rel. error"};
    for (const Column& column : kColumns) {
      headers.push_back(std::string(column.legend) + " query cost");
    }
    return headers;
  }());
  std::vector<std::vector<double>> columns;
  for (const Column& column : kColumns) {
    WalkRunConfig config;
    config.program = column.program;
    config.restart_per_sample = true;  // Algorithm 1's outer loop
    config.num_samples = 400;
    config.geweke_min_length = 100;
    config.max_burn_in_steps = 3000;
    auto curve = MeasureErrorVsCost(net, config, truth, thresholds, runs,
                                    0xF16700 + column.seed_offset);
    columns.push_back(curve.mean_query_cost);
  }
  for (size_t t = 0; t < thresholds.size(); ++t) {
    std::vector<std::string> row{Table::Num(thresholds[t], 2)};
    for (const auto& col : columns) row.push_back(Table::Num(col[t], 0));
    table.AddRow(std::move(row));
  }
  table.PrintText(std::cout);
  std::cout << "CSV:\n";
  table.PrintCsv(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  if (mto::bench::SmokeOrHelpExit(argc, argv, "bench_fig7_error_vs_cost", "[--runs N] [--small]")) return 0;
  size_t runs = 20;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      runs = static_cast<size_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    }
  }
  const std::string suffix = small ? "_small" : "";
  // Paper x-axes: Slashdot 0.10-0.20, Epinions 0.10-0.30.
  RunDataset("slashdot_a" + suffix, "(a)",
             {0.20, 0.18, 0.16, 0.14, 0.12, 0.10}, runs);
  RunDataset("slashdot_b" + suffix, "(b)",
             {0.20, 0.18, 0.16, 0.14, 0.12, 0.10}, runs);
  RunDataset("epinions" + suffix, "(c)", {0.30, 0.25, 0.20, 0.15, 0.10},
             runs);
  return 0;
}
