#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/traffic/alias_table.h"
#include "src/traffic/poisson_source.h"
#include "src/traffic/traffic_matrix.h"

namespace arpanet::traffic {
namespace {

TEST(TrafficMatrixTest, UniformSplitsEvenly) {
  const TrafficMatrix m = TrafficMatrix::uniform(4, 1200.0);
  EXPECT_NEAR(m.total_bps(), 1200.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 100.0);  // 12 ordered pairs
  EXPECT_DOUBLE_EQ(m.at(3, 2), 100.0);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 0.0);
}

TEST(TrafficMatrixTest, SetAddValidate) {
  TrafficMatrix m{3};
  m.set(0, 1, 50.0);
  m.add(0, 1, 25.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 75.0);
  EXPECT_THROW(m.set(1, 1, 10.0), std::invalid_argument);
  EXPECT_THROW(m.set(0, 2, -1.0), std::invalid_argument);
}

TEST(TrafficMatrixTest, ScaleAndNormalize) {
  TrafficMatrix m = TrafficMatrix::uniform(3, 600.0);
  m.scale(2.0);
  EXPECT_NEAR(m.total_bps(), 1200.0, 1e-9);
  m.normalize_total(300.0);
  EXPECT_NEAR(m.total_bps(), 300.0, 1e-9);
}

TEST(TrafficMatrixTest, GravityProportionalToWeights) {
  const TrafficMatrix m = TrafficMatrix::gravity({1.0, 2.0, 1.0}, 1000.0);
  EXPECT_NEAR(m.total_bps(), 1000.0, 1e-9);
  // Pair (0,1) has weight 2, pair (0,2) weight 1.
  EXPECT_NEAR(m.at(0, 1) / m.at(0, 2), 2.0, 1e-9);
}

TEST(TrafficMatrixTest, PeakHourIsDeterministicAndSkewed) {
  const TrafficMatrix a = TrafficMatrix::peak_hour(20, 1e6, util::Rng{5});
  const TrafficMatrix b = TrafficMatrix::peak_hour(20, 1e6, util::Rng{5});
  EXPECT_NEAR(a.total_bps(), 1e6, 1e-3);
  double max_pair = 0;
  double min_pair = 1e18;
  for (net::NodeId s = 0; s < 20; ++s) {
    for (net::NodeId d = 0; d < 20; ++d) {
      EXPECT_DOUBLE_EQ(a.at(s, d), b.at(s, d));
      if (s == d) continue;
      max_pair = std::max(max_pair, a.at(s, d));
      min_pair = std::min(min_pair, a.at(s, d));
    }
  }
  // Skew: the busiest pair is much larger than the quietest.
  EXPECT_GT(max_pair / min_pair, 5.0);
}

TEST(PoissonProcessTest, MeanGapMatchesRate) {
  const PoissonProcess p{50.0};  // 50 pkts/sec
  util::Rng rng{31};
  double total = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) total += p.next_gap(rng).sec();
  EXPECT_NEAR(total / n, 0.02, 0.001);
}

TEST(PoissonProcessTest, RejectsZeroRate) {
  EXPECT_THROW(PoissonProcess(0.0), std::invalid_argument);
}

TEST(AliasTableTest, ReconstructsEveryWeightExactly) {
  const std::vector<double> w{5.0, 0.25, 3.0, 1.0, 0.75, 12.0, 2.0};
  const AliasTable t{w};
  ASSERT_EQ(t.size(), w.size());
  double sum = 0.0;
  for (const double x : w) sum += x;
  for (std::uint32_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(t.probability(i), w[i] / sum, 1e-12) << "outcome " << i;
  }
}

TEST(AliasTableTest, ZeroWeightsAreNeverDrawn) {
  const std::vector<double> w{0.0, 3.0, 0.0, 0.0, 1.0, 0.0, 0.5, 0.0};
  const AliasTable t{w};
  for (std::uint32_t i = 0; i < w.size(); ++i) {
    if (w[i] == 0.0) {
      EXPECT_EQ(t.probability(i), 0.0) << "outcome " << i;
    }
  }
  util::Rng rng{41};
  for (int i = 0; i < 100'000; ++i) {
    const std::uint32_t k = t.sample(rng);
    ASSERT_LT(k, w.size());
    ASSERT_GT(w[k], 0.0) << "drew zero-weight outcome " << k;
  }
}

TEST(AliasTableTest, SingleEntryAlwaysDrawsIt) {
  const std::vector<double> w{7.5};
  const AliasTable t{w};
  EXPECT_EQ(t.size(), 1u);
  EXPECT_NEAR(t.probability(0), 1.0, 1e-12);
  util::Rng rng{43};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(t.sample(rng), 0u);
}

TEST(AliasTableTest, RejectsEmptyNegativeAndAllZeroWeights) {
  EXPECT_THROW(AliasTable{std::vector<double>{}}, std::invalid_argument);
  EXPECT_THROW((AliasTable{std::vector<double>{1.0, -1.0}}),
               std::invalid_argument);
  EXPECT_THROW((AliasTable{std::vector<double>{0.0, 0.0}}),
               std::invalid_argument);
}

TEST(AliasTableTest, ChiSquareOnASkewedPeakHourRow) {
  // The busiest row of a 47-node peak-hour matrix: heavy gravity skew
  // across its 46 nonzero destinations.
  const std::size_t n = 47;
  const TrafficMatrix m = TrafficMatrix::peak_hour(n, 600e3, util::Rng{7});
  net::NodeId busiest = 0;
  double busiest_bps = 0.0;
  for (net::NodeId s = 0; s < n; ++s) {
    double row = 0.0;
    for (net::NodeId d = 0; d < n; ++d) row += m.at(s, d);
    if (row > busiest_bps) {
      busiest_bps = row;
      busiest = s;
    }
  }
  std::vector<double> w;
  for (net::NodeId d = 0; d < n; ++d) {
    if (m.at(busiest, d) > 0.0) w.push_back(m.at(busiest, d));
  }
  ASSERT_EQ(w.size(), n - 1);
  const AliasTable t{w};
  const int draws = 200'000;
  std::vector<int> counts(w.size(), 0);
  util::Rng rng{2024};
  for (int i = 0; i < draws; ++i) ++counts[t.sample(rng)];
  double chi2 = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k) {
    const double expected = draws * w[k] / busiest_bps;
    ASSERT_GT(expected, 5.0) << "chi-square needs >= 5 expected per cell";
    chi2 += (counts[k] - expected) * (counts[k] - expected) / expected;
  }
  // 45 degrees of freedom: the 0.1% upper critical value is 80.08.
  EXPECT_LT(chi2, 80.08) << "chi2=" << chi2;
}

TEST(PacketSizerTest, MeanAndFloor) {
  PacketSizer sizer{600.0};
  util::Rng rng{37};
  double total = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double bits = sizer.sample(rng);
    EXPECT_GE(bits, 32.0);
    total += bits;
  }
  EXPECT_NEAR(total / n, 600.0, 5.0);
}

TEST(PacketSizerTest, RejectsMeanBelowFloor) {
  EXPECT_THROW(PacketSizer(10.0, 32.0), std::invalid_argument);
}

}  // namespace
}  // namespace arpanet::traffic
