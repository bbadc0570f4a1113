// Aggregate census: a market-research scenario from the paper's intro —
// estimate several big-picture aggregates (average degree, average age,
// average posting activity, and the COUNT of highly-active users) over an
// online social network, comparing all four samplers at a fixed query
// budget. Demonstrates AVG with selection conditions and COUNT/SUM recovery
// via the public population size (paper footnote 4).
//
// Build & run:   ./build/examples/aggregate_census

#include <iostream>

#include "src/estimate/estimators.h"
#include "src/graph/datasets.h"
#include "src/util/table.h"
#include "src/walk/walk_program.h"

int main() {
  using namespace mto;
  SocialNetwork network = SocialNetwork::WithSyntheticProfiles(
      MakeDataset("epinions_small"), /*seed=*/42);

  // Ground truth for the report card.
  double true_posts = 0.0, true_active = 0.0;
  for (NodeId v = 0; v < network.num_users(); ++v) {
    true_posts += network.profile(v).num_posts;
    if (network.profile(v).num_posts >= 50) true_active += 1.0;
  }
  true_posts /= network.num_users();

  PrintBanner(std::cout, "Aggregate census over " +
                             std::to_string(network.num_users()) + " users");
  Table table({"sampler", "avg degree", "avg age", "avg posts",
               "# users with 50+ posts", "unique queries"});

  for (const char* program : {"srw", "mhrw", "random_jump", "mto"}) {
    RestrictedInterface api(network);
    Rng rng(7);
    auto sampler =
        GetWalkProgram(program).MakeWalker(api, rng, 0, WalkProgramParams{});
    // Fixed-budget session: walk until ~2500 unique queries are spent.
    api.SetBudget(2500);
    for (int i = 0; i < 800; ++i) sampler->Step();  // burn-in
    RunningImportanceMean degree, age, posts, active;
    for (int i = 0; i < 2000; ++i) {
      double w = sampler->ImportanceWeight();
      UserProfile profile = sampler->CurrentProfile();
      degree.Add(sampler->CurrentDegree(), w);
      age.Add(profile.age, w);
      posts.Add(profile.num_posts, w);
      active.Add(profile.num_posts >= 50 ? 1.0 : 0.0, w);
      for (int t = 0; t < 3; ++t) sampler->Step();
    }
    // COUNT = population * AVG of the 0/1 selection indicator.
    double active_count =
        SumFromMean(active.Estimate(), network.num_users());
    table.AddRow({sampler->name(), Table::Num(degree.Estimate(), 2),
                  Table::Num(age.Estimate(), 2),
                  Table::Num(posts.Estimate(), 1),
                  Table::Num(active_count, 0),
                  std::to_string(api.QueryCost())});
  }
  table.AddRow({"(truth)", Table::Num(network.TrueAverageDegree(), 2),
                Table::Num(network.TrueAverageAge(), 2),
                Table::Num(true_posts, 1), Table::Num(true_active, 0), "-"});
  table.PrintText(std::cout);
  return 0;
}
