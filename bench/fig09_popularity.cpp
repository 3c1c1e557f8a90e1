// Figure 9: popularity distributions for authors and articles (log-log
// power laws). The paper observes BibFinder/NetBib/CiteSeer request counts;
// we reproduce the procedure on synthetic request logs drawn from power-law
// models fitted the same way ("the minimum square method" of Section V-C).
#include <cstdio>

#include "bench_util.hpp"
#include "workload/popularity.hpp"

using namespace dhtidx;
using namespace dhtidx::bench;

namespace {

void show_curve(const std::string& name, std::size_t population, std::size_t requests,
                double c, double alpha, std::uint64_t seed) {
  const workload::PopularityModel model{population, c, alpha};
  Rng rng{seed};
  const workload::PopularityCurve curve = workload::observe_model(model, requests, rng);
  const PowerLawFit fit = curve.fit();

  std::printf("\n%s: %zu items, %zu requests\n", name.c_str(), population, requests);
  std::printf("  rank -> observed probability (log-spaced samples)\n");
  for (std::size_t rank = 1; rank <= curve.probabilities_by_rank.size(); rank *= 4) {
    std::printf("  %6zu   %.6f\n", rank, curve.probabilities_by_rank[rank - 1]);
  }
  std::printf("  least-squares power-law fit: p(i) = %.4f * i^%.3f   (R^2 = %.3f)\n",
              fit.k, fit.exponent, fit.r_squared);
}

}  // namespace

int main(int argc, char** argv) {
  // Common CLI only: four fast curve fits, printed as they are computed.
  parse_options(argc, argv, "this exhibit builds no world to stream");
  banner("Figure 9: Popularity distributions (power laws on log-log scales)");
  std::printf(
      "The paper plots request probability vs. rank for BibFinder authors,\n"
      "NetBib authors, BibFinder articles and CiteSeer articles; all follow\n"
      "power laws. We regenerate each curve from a fitted model of the same\n"
      "family and re-fit it with least squares, as Section V-C does.\n");

  // Parameterizations chosen to mirror the four traces' spans in Figure 9:
  // a few thousand ranked items, probabilities from ~1e-1 down to ~1e-5.
  show_curve("BibFinder authors", 3000, 9108, 0.063, 0.30, 11);
  show_curve("NetBib authors", 2500, 5924, 0.055, 0.32, 22);
  show_curve("BibFinder articles", 4000, 9108, 0.045, 0.35, 33);
  show_curve("CiteSeer articles", 10000, 100000, 0.063, 0.30, 44);

  std::printf(
      "\nAll four observed curves are near-straight lines in log-log space\n"
      "(R^2 close to 1 on the sampled head), matching Figure 9's conclusion\n"
      "that popularity follows a power law.\n");
  return 0;
}
