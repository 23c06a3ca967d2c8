#include <gtest/gtest.h>

#include "attack/chain_attack.h"
#include "poi/city_model.h"
#include "traj/generators.h"

namespace poiprivacy {
namespace {

poi::City make_city() { return poi::generate_city(poi::test_preset(), 7); }

class ChainAttackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    city_ = std::make_unique<poi::City>(make_city());
    common::Rng rng(13);
    traj::TaxiConfig config;
    config.num_taxis = 40;
    config.points_per_taxi = 50;
    trajectories_ =
        traj::generate_taxi_trajectories(*city_, config, rng);
    pairs_ = traj::extract_release_pairs(trajectories_, city_->db, r_, 600);
    ASSERT_GT(pairs_.size(), 60u);
    pairwise_ = std::make_unique<attack::TrajectoryAttack>(
        city_->db, std::span(pairs_.data(), pairs_.size() / 2), r_,
        attack::TrajectoryAttackConfig{}, rng);
  }

  std::vector<attack::TimedRelease> releases_for(const traj::Trajectory& t,
                                                 std::size_t start,
                                                 std::size_t n) const {
    std::vector<attack::TimedRelease> out;
    for (std::size_t i = start; i < start + n && i < t.points.size(); ++i) {
      out.push_back(
          {city_->db.freq(t.points[i].pos, r_), t.points[i].time});
    }
    return out;
  }

  const double r_ = 0.8;
  std::unique_ptr<poi::City> city_;
  std::vector<traj::Trajectory> trajectories_;
  std::vector<traj::ReleasePair> pairs_;
  std::unique_ptr<attack::TrajectoryAttack> pairwise_;
};

TEST_F(ChainAttackTest, EmptyChainIsUndecided) {
  const attack::ChainAttack chain(city_->db, *pairwise_, r_);
  const attack::ChainInferenceResult result = chain.infer({});
  EXPECT_FALSE(result.unique());
  EXPECT_TRUE(result.layers.empty());
}

TEST_F(ChainAttackTest, SingleReleaseMatchesBaseline) {
  const attack::ChainAttack chain(city_->db, *pairwise_, r_);
  const attack::RegionReidentifier reid(city_->db);
  for (std::size_t k = 0; k < 10; ++k) {
    const auto& t = trajectories_[k];
    const auto releases = releases_for(t, 0, 1);
    const attack::ChainInferenceResult result = chain.infer(releases);
    const attack::ReidResult baseline = reid.infer(releases[0].freq, r_);
    EXPECT_EQ(result.surviving_first_candidates, baseline.candidates);
  }
}

TEST_F(ChainAttackTest, SurvivorsAreSubsetOfBaselineCandidates) {
  const attack::ChainAttack chain(city_->db, *pairwise_, r_);
  for (std::size_t k = 0; k < 15; ++k) {
    const auto releases = releases_for(trajectories_[k], 5, 4);
    if (releases.size() < 4) continue;
    const attack::ChainInferenceResult result = chain.infer(releases);
    for (const poi::PoiId id : result.surviving_first_candidates) {
      EXPECT_NE(std::find(result.layers[0].begin(), result.layers[0].end(),
                          id),
                result.layers[0].end());
    }
    EXPECT_EQ(result.estimated_step_km.size(), releases.size() - 1);
  }
}

TEST_F(ChainAttackTest, LongerChainsNeverReduceAggregateSuccess) {
  const attack::ChainAttack chain(city_->db, *pairwise_, r_);
  std::size_t successes_1 = 0;
  std::size_t successes_3 = 0;
  std::size_t attempts = 0;
  for (const auto& t : trajectories_) {
    const auto chain3 = releases_for(t, 10, 3);
    if (chain3.size() < 3) continue;
    ++attempts;
    const auto chain1 = releases_for(t, 10, 1);
    successes_1 += chain.success(chain.infer(chain1), t.points[10].pos);
    successes_3 += chain.success(chain.infer(chain3), t.points[10].pos);
  }
  ASSERT_GT(attempts, 20u);
  // Longer chains add evidence; allow tiny regression from regressor noise.
  EXPECT_GE(successes_3 + 2, successes_1);
}

}  // namespace
}  // namespace poiprivacy
