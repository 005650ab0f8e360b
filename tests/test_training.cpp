// Training contracts shared by every learner: the trained-score digests
// that pin what each detector learns, bit for bit; the MLP lockstep kernel's
// equivalence to training each member alone; and the standardisation guard
// against non-finite training inputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ml/bagging.h"
#include "ml/classifier.h"
#include "ml/dataset.h"
#include "ml/mlp.h"
#include "support/check.h"
#include "test_util.h"

namespace hmd::ml {
namespace {

using testutil::gaussian_blobs;

void fnv_mix(std::uint64_t& h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (double x : v) out.push_back(bits_of(x));
  return out;
}

/// The first `nf` columns of `data`.
Dataset first_features(const Dataset& data, std::size_t nf) {
  std::vector<std::size_t> keep(nf);
  for (std::size_t f = 0; f < nf; ++f) keep[f] = f;
  return data.select_features(keep);
}

/// FNV-1a over the bits of predict_proba on every probe row, after
/// training `make_detector(kind, ensemble)` on `train`.
std::uint64_t trained_score_digest(ClassifierKind kind, EnsembleKind ensemble,
                                   const Dataset& train,
                                   const Dataset& probe) {
  auto detector = make_detector(kind, ensemble, /*seed=*/7);
  detector->train(train);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < probe.num_rows(); ++i) {
    fnv_mix(h, bits_of(detector->predict_proba(probe.row(i))));
  }
  return h;
}

// What every detector learns is a contract: fig3 tables, checkpointed
// models and verdict hashes are all functions of these scores. A training
// change that moves any of them must be deliberate and re-baselined on
// purpose; a performance change must leave all of them as they are.
TEST(Ml, TrainedScoreDigestsArePinned) {
  // Overlapping blobs (spread 3 around ±2) so trees, rules and boosting
  // grow real structure: 2 informative and 14 noise columns; the 4-feature
  // set keeps both informative columns and two noise ones. The tied set has
  // exact value ties and non-unit weights, where the sweep order of the
  // tree/rule learners decides every split.
  const Dataset train16 = gaussian_blobs(60, 2, 14, 3.0, 2018);
  const Dataset probe16 = gaussian_blobs(25, 2, 14, 3.0, 2019);
  const Dataset train4 = first_features(train16, 4);
  const Dataset probe4 = first_features(probe16, 4);
  const Dataset train_tied = testutil::tied_weighted(8);
  const Dataset probe_tied = testutil::tied_weighted(9);

  // [kind][ensemble] -> {16 features, 4 features, tied}
  constexpr std::uint64_t kPinned[kClassifierKindCount][kEnsembleKindCount]
                                 [3] = {
      // BayesNet: General, Boosted, Bagging
      {{0x6c064b42320719eaULL, 0x6c064b42320719eaULL,
        0xe6f59bb18021f80fULL},
       {0x2137dd9aec9ad35cULL, 0xb9eaaec9f009f74bULL,
        0xb87e4689eb2fb16bULL},
       {0xe2658efbc0b2afd3ULL, 0x1ca443d830fdd673ULL,
        0x5bc8f54a6e26101aULL}},
      // J48: General, Boosted, Bagging
      {{0xb664050e57c6d69dULL, 0x3aa315f22bb049a1ULL,
        0x4debbfda8d341c80ULL},
       {0x81b999fdf2b83754ULL, 0x06490de2360aacf2ULL,
        0xb5da5935b4dd69a9ULL},
       {0xa1be9d92166f4d39ULL, 0xc08c76bca2dc8051ULL,
        0x54b9e731bef5cd68ULL}},
      // JRip: General, Boosted, Bagging
      {{0x92e59a881d6ee36eULL, 0xea88e038013c1411ULL,
        0xacb08b4d369916b9ULL},
       {0xadb9b0afdeac6d39ULL, 0x004b602c80c1b69bULL,
        0x82bf338e90235211ULL},
       {0xafdf60eb40ab08ebULL, 0x43d07c43b150f4d7ULL,
        0x02b5e3878881ca85ULL}},
      // MLP: General, Boosted, Bagging
      {{0xaea88fccf2e19949ULL, 0x0ecf5b0132d826acULL,
        0x14e6480d8eedf6a2ULL},
       {0x36b76af33123e158ULL, 0x281b329f6525a21bULL,
        0xd50b42bf885a6713ULL},
       {0x4f90efb25b612435ULL, 0x2ea35ffeb6386693ULL,
        0xa3809df6528c5e0aULL}},
      // OneR: General, Boosted, Bagging
      {{0x4d08b7b2fc0f52e5ULL, 0x4d08b7b2fc0f52e5ULL,
        0xe94d56395801ba8eULL},
       {0x0cb19592055e0861ULL, 0xe8a6902a89246d97ULL,
        0x8c01571bb017c8beULL},
       {0xa5925cfda17614d2ULL, 0xa5925cfda17614d2ULL,
        0x22ffe244d389ef28ULL}},
      // REPTree: General, Boosted, Bagging
      {{0x010a74ce0574b819ULL, 0x2171f455eb9dfda0ULL,
        0xed889ed2e2f1fed6ULL},
       {0xe7305d00825362aaULL, 0x452622bc65b7a1a0ULL,
        0x94dab4cd08f5edf8ULL},
       {0x85951be69651ba4bULL, 0x8c61c454e06ba390ULL,
        0x8939efd4531529c4ULL}},
      // SGD: General, Boosted, Bagging
      {{0xcc180dd5712005f8ULL, 0x64df4718f7c2a818ULL,
        0xb24e743b1e90c005ULL},
       {0x0fb70f4a7f613435ULL, 0xbe6530bfdbe55040ULL,
        0x25e72d8c7383e3c3ULL},
       {0xf96719c2fc96d031ULL, 0xd9701a0c49896efdULL,
        0xa73f63d487726cb4ULL}},
      // SMO: General, Boosted, Bagging
      {{0x11b2cea46bb9f125ULL, 0xdf0ea71d3cde54c5ULL,
        0xb24e743b1e90c005ULL},
       {0x76504c57e43ebf75ULL, 0x7d0362c1360f4915ULL,
        0x15fe38a1e84af556ULL},
       {0x1ef7b5ecf3545c48ULL, 0x4180dd0ea47d7cc7ULL,
        0x4c89875650d947e1ULL}},
  };
  for (std::size_t k = 0; k < kClassifierKindCount; ++k)
    for (std::size_t e = 0; e < kEnsembleKindCount; ++e) {
      const ClassifierKind kind = all_classifier_kinds()[k];
      const EnsembleKind ensemble = all_ensemble_kinds()[e];
      EXPECT_EQ(trained_score_digest(kind, ensemble, train16, probe16),
                kPinned[k][e][0])
          << classifier_kind_name(kind) << " x "
          << ensemble_kind_name(ensemble) << " at 16 features";
      EXPECT_EQ(trained_score_digest(kind, ensemble, train4, probe4),
                kPinned[k][e][1])
          << classifier_kind_name(kind) << " x "
          << ensemble_kind_name(ensemble) << " at 4 features";
      EXPECT_EQ(
          trained_score_digest(kind, ensemble, train_tied, probe_tied),
          kPinned[k][e][2])
          << classifier_kind_name(kind) << " x "
          << ensemble_kind_name(ensemble) << " on tied weighted data";
    }
}

// ------------------------------------------------------ lockstep training --

/// Every trained parameter of `got` is bitwise equal to `want`'s.
void expect_same_mlp(const Mlp& got, const Mlp& want, const std::string& ctx) {
  EXPECT_EQ(got.num_inputs(), want.num_inputs()) << ctx;
  EXPECT_EQ(got.hidden_units(), want.hidden_units()) << ctx;
  EXPECT_EQ(bits_of(got.hidden_weights()), bits_of(want.hidden_weights()))
      << ctx;
  EXPECT_EQ(bits_of(got.hidden_bias()), bits_of(want.hidden_bias())) << ctx;
  EXPECT_EQ(bits_of(got.output_weights()), bits_of(want.output_weights()))
      << ctx;
  EXPECT_EQ(bits_of(got.output_bias()), bits_of(want.output_bias())) << ctx;
  EXPECT_EQ(bits_of(got.input_mean()), bits_of(want.input_mean())) << ctx;
  EXPECT_EQ(bits_of(got.input_stdev()), bits_of(want.input_stdev())) << ctx;
}

// Bagging(MLP) trains its members in lane groups of 8, 4, 2 and 1; every
// group width must produce exactly the Mlp trained alone on that member's
// bootstrap. 1, 3, 7, 10 and 11 bags run every width and every remainder.
TEST(MlpLockstep, BaggedMembersMatchMlpsTrainedAlone) {
  const Dataset data16 = gaussian_blobs(40, 2, 14, 3.0, 77);
  for (std::size_t nf : {16u, 2u}) {
    const Dataset data = first_features(data16, nf);
    for (std::size_t hidden : {0u, 5u}) {
      const Mlp prototype(hidden, 0.3, 0.2, /*epochs=*/25, /*seed=*/11);
      for (std::size_t bags : {1u, 3u, 7u, 10u, 11u}) {
        Bagging bagging(prototype.clone_untrained(), bags, /*seed=*/5);
        bagging.train(data);
        ASSERT_EQ(bagging.num_members(), bags);
        const Rng rng(5);
        for (std::size_t b = 0; b < bags; ++b) {
          Rng bag_rng = rng.fork(b);
          Mlp alone(hidden, 0.3, 0.2, 25, 11);
          alone.train(data.bootstrap(bag_rng));
          const auto* member = dynamic_cast<const Mlp*>(&bagging.member(b));
          ASSERT_NE(member, nullptr);
          expect_same_mlp(*member, alone,
                          std::to_string(nf) + " features, hidden " +
                              std::to_string(hidden) + ", member " +
                              std::to_string(b) + " of " +
                              std::to_string(bags));
        }
      }
    }
  }
}

// The lanes carry their own instance weights: AdaBoost-style weighted
// samples through train_replicas match train() on each sample.
TEST(MlpLockstep, WeightedReplicasMatchTrainingAlone) {
  const Dataset data = gaussian_blobs(30, 3, 5, 2.0, 13);
  std::vector<Dataset> samples;
  for (std::size_t s = 0; s < 5; ++s) {
    Dataset sample = data;
    std::vector<double> w(sample.num_rows());
    for (std::size_t i = 0; i < w.size(); ++i)
      w[i] = 0.25 + static_cast<double>((i * 7 + s * 3) % 11) / 4.0;
    sample.set_weights(std::move(w));
    samples.push_back(std::move(sample));
  }
  const Mlp prototype(0, 0.3, 0.2, /*epochs=*/20, /*seed=*/3);
  const auto replicas = prototype.train_replicas(samples);
  ASSERT_EQ(replicas.size(), samples.size());
  for (std::size_t s = 0; s < samples.size(); ++s) {
    Mlp alone(0, 0.3, 0.2, 20, 3);
    alone.train(samples[s]);
    expect_same_mlp(dynamic_cast<const Mlp&>(*replicas[s]), alone,
                    "replica " + std::to_string(s));
  }
}

TEST(MlpLockstep, RejectsSamplesOfUnequalShape) {
  const Dataset data = gaussian_blobs(20, 2, 2, 1.0, 1);
  const std::vector<std::size_t> fewer_rows{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::vector<std::size_t> fewer_features{0, 1, 2};
  const Mlp prototype(0, 0.3, 0.2, 5, 1);
  const std::vector<Dataset> rows{data, data, data.subset(fewer_rows)};
  EXPECT_THROW(prototype.train_replicas(rows), PreconditionError);
  const std::vector<Dataset> cols{data, data.select_features(fewer_features)};
  EXPECT_THROW(prototype.train_replicas(cols), PreconditionError);
}

// Learners without an override train replicas one by one, exactly as
// clone_untrained() + train() would.
TEST(TrainReplicas, DefaultMatchesCloneAndTrain) {
  const Dataset data = gaussian_blobs(40, 2, 4, 2.5, 21);
  std::vector<Dataset> samples;
  const Rng rng(9);
  for (std::size_t b = 0; b < 3; ++b) {
    Rng bag_rng = rng.fork(b);
    samples.push_back(data.bootstrap(bag_rng));
  }
  for (ClassifierKind kind : all_classifier_kinds()) {
    const auto prototype = make_classifier(kind, /*seed=*/4);
    const auto replicas = prototype->train_replicas(samples);
    ASSERT_EQ(replicas.size(), samples.size());
    for (std::size_t s = 0; s < samples.size(); ++s) {
      auto alone = prototype->clone_untrained();
      alone->train(samples[s]);
      for (std::size_t i = 0; i < data.num_rows(); ++i)
        ASSERT_EQ(bits_of(replicas[s]->predict_proba(data.row(i))),
                  bits_of(alone->predict_proba(data.row(i))))
            << classifier_kind_name(kind) << " replica " << s << " row " << i;
    }
  }
}

// ------------------------------------------------ non-finite training data --

TEST(Standardization, ConstantColumnsGetUnitStdev) {
  Dataset data(std::vector<std::string>{"flat", "ramp"});
  for (int i = 0; i < 4; ++i)
    data.add_row({3.0, static_cast<double>(i)}, i % 2);
  const Standardization st = standardization(data);
  EXPECT_EQ(st.mean, (std::vector<double>{3.0, 1.5}));
  EXPECT_EQ(st.stdev[0], 1.0);
  EXPECT_GT(st.stdev[1], 1.0);
}

// One NaN or infinity in a training column used to turn every weight of the
// standardising learners into NaN, and every prediction into a silent 0.
TEST(Standardization, StandardisingLearnersRejectNonFiniteInputs) {
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (double bad : bad_values) {
    Dataset data = gaussian_blobs(20, 2, 2, 1.0, 3);
    std::vector<double> row(data.row(5).begin(), data.row(5).end());
    row[2] = bad;
    data.add_row(row, 1);
    for (ClassifierKind kind :
         {ClassifierKind::kMlp, ClassifierKind::kSgd, ClassifierKind::kSmo})
      for (EnsembleKind ensemble : all_ensemble_kinds()) {
        auto clf = make_detector(kind, ensemble, /*seed=*/7);
        try {
          clf->train(data);
          ADD_FAILURE() << clf->name() << " trained on " << bad;
        } catch (const PreconditionError& e) {
          EXPECT_NE(std::string(e.what()).find("feature 'f2'"),
                    std::string::npos)
              << e.what();
        }
      }
  }
}

}  // namespace
}  // namespace hmd::ml
