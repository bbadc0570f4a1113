// Google-Plus-style API session: the paper's online experiment shape.
// A third party with a hard daily request limit (e.g. 350/hour like
// Twitter, or the Google Social Graph API quota) wants the average
// self-description length of users. We simulate day-by-day crawling under a
// strict unique-query budget and watch the estimate settle, for SRW and MTO.
//
// Build & run:   ./build/examples/gplus_api_sim

#include <iostream>

#include "src/core/mto_sampler.h"
#include "src/estimate/estimators.h"
#include "src/experiments/harness.h"
#include "src/graph/datasets.h"
#include "src/util/table.h"
#include "src/walk/walk_program.h"

int main() {
  using namespace mto;
  SocialNetwork network = SocialNetwork::WithSyntheticProfiles(
      MakeDataset("gplus_small"), /*seed=*/99);
  const double truth = network.TrueAverageDescriptionLength();
  const uint64_t kDailyQuota = 600;  // Facebook's documented 600/600s limit
  const int kDays = 6;

  PrintBanner(std::cout, "Rate-limited API crawl: avg self-description length"
                         " (truth " + Table::Num(truth, 1) + ")");
  Table table({"day", "sampler", "unique queries", "estimate", "rel. error"});

  for (const char* program : {"srw", "mto"}) {
    RestrictedInterface api(network);
    Rng rng(13);
    auto sampler =
        GetWalkProgram(program).MakeWalker(api, rng, 0, WalkProgramParams{});
    RunningImportanceMean estimate;
    int samples_between = 0;
    for (int day = 1; day <= kDays; ++day) {
      api.SetBudget(kDailyQuota * day);  // quota refreshes daily
      // Walk until today's quota is gone (Step() freezes once exhausted,
      // detected by the cost no longer moving).
      uint64_t last_cost = api.QueryCost();
      int stalled = 0;
      while (stalled < 50) {
        sampler->Step();
        if (++samples_between >= 4) {
          estimate.Add(AttributeValue(*sampler, Attribute::kDescriptionLength),
                       sampler->ImportanceWeight());
          samples_between = 0;
        }
        stalled = api.QueryCost() == last_cost ? stalled + 1 : 0;
        last_cost = api.QueryCost();
      }
      double est = estimate.Valid() ? estimate.Estimate() : 0.0;
      table.AddRow({std::to_string(day), sampler->name(),
                    std::to_string(api.QueryCost()), Table::Num(est, 1),
                    Table::Num(RelativeError(est, truth), 3)});
    }
  }
  table.PrintText(std::cout);
  std::cout << "\nMTO should close in on the truth in fewer metered days.\n";
  return 0;
}
