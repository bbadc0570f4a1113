// Ablation bench for the design choices called out in DESIGN.md §5:
// each MTO variant is measured on the slowest-mixing stand-in with the
// Fig-7 protocol (mean query cost to hold a relative-error level), plus
// mean burn-in cost and final-estimate error.
//
// Variants:
//   MTO (default)  removals + replacements, overlay-view weights, freeze
//   no-freeze      Algorithm 1 as printed: rewiring continues while sampling
//   lazy           Algorithm 1's rand<1/2 lazy step enabled
//   probe-8        the paper's probed overlay-degree estimator
//   exact-k*       classify every incident edge of each sample
//   removal-only   Theorem 3 only (paper Fig 10 "MTO_RM")
//   replace-only   Theorem 4 only (paper Fig 10 "MTO_RP")
//   extension      Theorem 5 degree extension enabled
//   restart        Algorithm 1's restart-per-sample outer loop
//   SRW baseline   for reference

#include <cmath>
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

struct Variant {
  std::string name;
  WalkRunConfig config;
};

}  // namespace

int main(int argc, char** argv) {
  if (mto::bench::SmokeOrHelpExit(argc, argv, "bench_ablation_rules", "[--runs N]")) return 0;
  size_t runs = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      runs = static_cast<size_t>(std::stoul(argv[++i]));
    }
  }
  SocialNetwork net(MakeDataset("slashdot_b_small"));
  const double truth = net.TrueAverageDegree();

  WalkRunConfig base;
  base.program = "mto";
  base.num_samples = 1000;
  base.thinning = 4;
  base.max_burn_in_steps = 8000;

  std::vector<Variant> variants;
  variants.push_back({"MTO (default)", base});
  {
    auto v = base;
    v.mto_freeze_after_burn_in = false;
    variants.push_back({"no-freeze", v});
  }
  {
    auto v = base;
    v.mto.lazy = true;
    variants.push_back({"lazy", v});
  }
  {
    // Weight modes only differ while rewiring is live, so these two run
    // without the freeze (the frozen walk reads the overlay view directly).
    auto v = base;
    v.mto_freeze_after_burn_in = false;
    v.mto.weight_mode = OverlayDegreeMode::kProbe;
    v.mto.degree_probe = 8;
    variants.push_back({"probe-8 (no freeze)", v});
  }
  {
    auto v = base;
    v.mto_freeze_after_burn_in = false;
    v.mto.weight_mode = OverlayDegreeMode::kExact;
    variants.push_back({"exact-k* (no freeze)", v});
  }
  {
    auto v = base;
    v.mto.enable_replacement = false;
    variants.push_back({"removal-only", v});
  }
  {
    auto v = base;
    v.mto.enable_removal = false;
    variants.push_back({"replace-only", v});
  }
  {
    auto v = base;
    v.mto.use_degree_extension = true;
    variants.push_back({"extension", v});
  }
  {
    auto v = base;
    v.mto.criterion_basis = CriterionBasis::kOriginal;
    variants.push_back({"original-basis", v});
  }
  {
    auto v = base;
    v.restart_per_sample = true;
    v.num_samples = 200;  // each sample re-burns in; keep runtime sane
    variants.push_back({"restart", v});
  }
  {
    auto v = base;
    v.program = "srw";
    variants.push_back({"SRW baseline", v});
  }

  PrintBanner(std::cout, "Ablation on slashdot_b_small (truth " +
                             Table::Num(truth, 3) + ", runs " +
                             std::to_string(runs) + ")");
  Table table({"variant", "burn-in cost", "total cost", "final est",
               "|rel err|", "cost@0.10", "cost@0.05"});
  for (const Variant& variant : variants) {
    std::vector<WalkRunResult> results;
    for (size_t r = 0; r < runs; ++r) {
      results.push_back(
          RunAggregateEstimation(net, variant.config, 0xAB1A + 37 * r));
    }
    auto summary = SummarizeRuns(results);
    auto curve = MeasureErrorVsCost(net, variant.config, truth, {0.10, 0.05},
                                    runs, 0xAB1B);
    table.AddRow({variant.name, Table::Num(summary.mean_burn_in_cost, 0),
                  Table::Num(summary.mean_total_cost, 0),
                  Table::Num(summary.mean_final_estimate, 3),
                  Table::Num(std::abs(summary.mean_final_estimate - truth) /
                                 truth, 4),
                  Table::Num(curve.mean_query_cost[0], 0),
                  Table::Num(curve.mean_query_cost[1], 0)});
  }
  table.PrintText(std::cout);
  std::cout << "CSV:\n";
  table.PrintCsv(std::cout);
  return 0;
}
