// Reproduces Fig 9: varying the Geweke convergence threshold from 0.1 to
// 0.8 on Slashdot B and reporting, for SRW and MTO, the measured bias
// (symmetrized KL divergence) and query cost. Runs Algorithm 1's literal
// restart-per-sample protocol (every sample re-burns in from the start
// vertex under the Geweke rule), which is what makes the threshold trade
// query cost against bias: stricter thresholds mean longer burn-ins, wider
// coverage per restart, and samples closer to stationarity.

#include <cstring>
#include <iostream>

#include "bench/bench_flags.h"
#include "src/experiments/harness.h"
#include "src/graph/datasets.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  if (mto::bench::SmokeOrHelpExit(argc, argv, "bench_fig9_geweke_threshold", "[--samples N]")) return 0;
  using namespace mto;
  size_t samples = 3000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      samples = static_cast<size_t>(std::stoul(argv[++i]));
    }
  }
  SocialNetwork net(MakeDataset("slashdot_b_small"));
  PrintBanner(std::cout, "Fig 9: Geweke threshold sweep on Slashdot B");
  Table table({"threshold", "KL_SRW", "KL_MTO", "QC_SRW", "QC_MTO"});
  for (double threshold : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}) {
    double kl[2];
    uint64_t qc[2];
    int i = 0;
    for (const char* program : {"srw", "mto"}) {
      WalkRunConfig config;
      config.program = program;
      config.num_samples = samples;
      config.restart_per_sample = true;  // Algorithm 1's outer loop
      config.geweke_threshold = threshold;
      config.geweke_min_length = 100;
      config.max_burn_in_steps = 4000;
      KlRunResult result = RunKlExperiment(net, config, 0xF19000);
      kl[i] = result.symmetrized_kl;
      qc[i] = result.query_cost;
      ++i;
    }
    table.AddRow({Table::Num(threshold, 1), Table::Num(kl[0], 4),
                  Table::Num(kl[1], 4), std::to_string(qc[0]),
                  std::to_string(qc[1])});
  }
  table.PrintText(std::cout);
  std::cout << "CSV:\n";
  table.PrintCsv(std::cout);
  return 0;
}
