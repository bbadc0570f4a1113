// Reproduces Fig 8: query cost and the symmetrized Kullback–Leibler
// divergence (Section V-A.3) of SRW vs MTO over the three local datasets,
// from one long execution per sampler (Geweke threshold 0.1).
//
// Substitution note (DESIGN.md §3): node-level sampling distributions need
// every node visited many times, so this experiment runs on the small-scale
// stand-ins with 200k samples (the paper used 20k samples on the full
// snapshots; both choices oversample each node by a similar factor).

#include <cstring>
#include <iostream>
#include <string>
#include <utility>

#include "bench/bench_flags.h"
#include "src/experiments/harness.h"
#include "src/graph/datasets.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  if (mto::bench::SmokeOrHelpExit(argc, argv, "bench_fig8_kl_query", "[--samples N]")) return 0;
  using namespace mto;
  size_t samples = 200000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      samples = static_cast<size_t>(std::stoul(argv[++i]));
    }
  }
  PrintBanner(std::cout,
              "Fig 8: query cost vs symmetrized KL divergence, SRW vs MTO");
  Table table({"dataset", "sampler", "samples", "query cost", "sym. KL"});
  for (const char* name :
       {"epinions_small", "slashdot_a_small", "slashdot_b_small"}) {
    SocialNetwork net(MakeDataset(name));
    for (const auto& [program, legend] :
         {std::pair{"srw", "SRW"}, std::pair{"mto", "MTO"}}) {
      WalkRunConfig config;
      config.program = program;
      config.num_samples = samples;
      config.thinning = 2;
      config.geweke_threshold = 0.1;
      config.max_burn_in_steps = 20000;
      KlRunResult result = RunKlExperiment(net, config, 0xF18000);
      table.AddRow({name, legend,
                    std::to_string(result.num_samples),
                    std::to_string(result.query_cost),
                    Table::Num(result.symmetrized_kl, 4)});
    }
  }
  table.PrintText(std::cout);
  std::cout << "CSV:\n";
  table.PrintCsv(std::cout);
  return 0;
}
