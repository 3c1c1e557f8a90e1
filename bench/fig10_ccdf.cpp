// Figure 10: complementary cumulative distribution function of the article
// ranking, Fbar(i) = 1 - 0.063 * i^0.3 over the 10,000-article population.
// Prints the analytic curve and the empirical CCDF observed from sampling.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "workload/popularity.hpp"

using namespace dhtidx;
using namespace dhtidx::bench;

int main(int argc, char** argv) {
  // Common CLI only: one sequential sampling stream, no cells to spread out.
  parse_options(argc, argv, "this exhibit builds no world to stream");
  banner("Figure 10: CCDF of the article ranking");
  const workload::PopularityModel model{10000};

  // Empirical CCDF from the generator's own samples.
  Rng rng{55};
  std::vector<std::uint64_t> counts(10001, 0);
  constexpr std::size_t kRequests = 500000;
  for (std::size_t i = 0; i < kRequests; ++i) ++counts[model.sample(rng)];
  std::vector<double> empirical_ccdf(10001, 0.0);
  std::uint64_t acc = 0;
  for (std::size_t i = 1; i <= 10000; ++i) {
    acc += counts[i];
    empirical_ccdf[i] = 1.0 - static_cast<double>(acc) / kRequests;
  }

  std::printf("%8s %14s %14s %14s\n", "rank", "paper formula", "model CCDF", "empirical");
  for (const std::size_t rank :
       {1u, 10u, 50u, 100u, 500u, 1000u, 2000u, 4000u, 6000u, 8000u, 10000u}) {
    const double paper = 1.0 - 0.063 * std::pow(static_cast<double>(rank), 0.3);
    std::printf("%8zu %14.4f %14.4f %14.4f\n", static_cast<std::size_t>(rank), paper,
                model.ccdf(rank), empirical_ccdf[rank]);
  }
  std::printf(
      "\nThe skew means a handful of articles receive most requests: restricting\n"
      "the simulation to 10,000 articles loses almost nothing, exactly as the\n"
      "paper argues from this figure.\n");
  return 0;
}
