// Algorithm-specific properties of individual detectors (beyond the shared
// planted-outlier suite in test_outlier.cpp).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "outlier/density_detectors.h"
#include "outlier/ensemble_detectors.h"
#include "outlier/knn_detectors.h"
#include "outlier/statistical_detectors.h"
#include "outlier/subspace_detectors.h"
#include "outlier_shapes.h"

namespace nurd::outlier {
namespace {

TEST(KnnDetail, KthDistanceGrowsWithK) {
  // For the same data, the k-th neighbour distance is non-decreasing in k,
  // so the mean KNN score must be too.
  Rng rng(201);
  Matrix x(80, 3);
  for (std::size_t i = 0; i < 80; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = rng.normal();
  }
  double prev = 0.0;
  for (std::size_t k : {1u, 3u, 8u, 20u}) {
    KnnDetector det(k);
    det.fit(x);
    double mean_score = 0.0;
    for (double s : det.scores()) mean_score += s;
    mean_score /= 80.0;
    EXPECT_GE(mean_score, prev);
    prev = mean_score;
  }
}

TEST(AbodDetail, CentralPointHasHighAngleVariance) {
  // A point surrounded by neighbours in all directions sees high variance
  // of angles; a point far outside sees all neighbours in a narrow cone
  // (low variance ⇒ higher score after negation).
  Matrix x(0, 0);
  Rng rng(202);
  for (int i = 0; i < 40; ++i) {
    const std::vector<double> p{rng.normal(), rng.normal()};
    x.push_row(p);
  }
  const std::vector<double> center{0.0, 0.0};
  const std::vector<double> far{30.0, 30.0};
  x.push_row(center);  // index 40
  x.push_row(far);     // index 41
  AbodDetector det(15);
  det.fit(x);
  EXPECT_GT(det.scores()[41], det.scores()[40]);
}

TEST(HbosDetail, ScoreIsAdditiveAcrossIndependentFeatures) {
  // HBOS treats features independently: a point anomalous in two features
  // scores higher than one anomalous in a single feature.
  Rng rng(203);
  Matrix x(0, 0);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> p{rng.normal(), rng.normal()};
    x.push_row(p);
  }
  const std::vector<double> one_dim{6.0, 0.0};
  const std::vector<double> two_dim{6.0, 6.0};
  x.push_row(one_dim);  // 100
  x.push_row(two_dim);  // 101
  HbosDetector det;
  det.fit(x);
  EXPECT_GT(det.scores()[101], det.scores()[100]);
}

TEST(McdDetail, RobustToContaminationClump) {
  // 25% contamination in a tight distant clump inflates the CLASSICAL
  // covariance enough to mask itself; MCD's concentration steps should
  // still score the clump above the inliers.
  Rng rng(204);
  Matrix x(0, 0);
  for (int i = 0; i < 90; ++i) {
    const std::vector<double> p{rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
    x.push_row(p);
  }
  for (int i = 0; i < 30; ++i) {
    const std::vector<double> p{rng.normal(12.0, 0.2), rng.normal(12.0, 0.2)};
    x.push_row(p);
  }
  McdDetector det;
  det.fit(x);
  const auto& s = det.scores();
  double mean_in = 0.0, mean_out = 0.0;
  for (int i = 0; i < 90; ++i) mean_in += s[static_cast<std::size_t>(i)];
  for (int i = 90; i < 120; ++i) mean_out += s[static_cast<std::size_t>(i)];
  EXPECT_GT(mean_out / 30.0, 2.0 * (mean_in / 90.0));
}

TEST(CblofDetail, SmallClusterScoredByDistanceToLargeCluster) {
  // One dominant cluster and a small satellite: satellite points should
  // score roughly their distance to the dominant centroid, far above the
  // dominant cluster's internal distances.
  Rng rng(205);
  Matrix x(0, 0);
  for (int i = 0; i < 120; ++i) {
    const std::vector<double> p{rng.normal(0.0, 0.5), rng.normal(0.0, 0.5)};
    x.push_row(p);
  }
  for (int i = 0; i < 6; ++i) {
    const std::vector<double> p{rng.normal(10.0, 0.2), rng.normal(10.0, 0.2)};
    x.push_row(p);
  }
  CblofParams params;
  params.n_clusters = 4;
  CblofDetector det(params);
  det.fit(x);
  const auto& s = det.scores();
  double max_in = 0.0;
  for (int i = 0; i < 120; ++i) {
    max_in = std::max(max_in, s[static_cast<std::size_t>(i)]);
  }
  for (int i = 120; i < 126; ++i) {
    EXPECT_GT(s[static_cast<std::size_t>(i)], max_in);
  }
}

TEST(LofDetail, DensityContrastDetected) {
  // A sparse halo point next to a dense cluster has LOF >> 1, while cluster
  // members stay near 1 — the density-ratio property that plain KNN misses.
  Rng rng(206);
  Matrix x(0, 0);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> p{rng.normal(0.0, 0.2), rng.normal(0.0, 0.2)};
    x.push_row(p);
  }
  const std::vector<double> halo{1.2, 1.2};
  x.push_row(halo);  // close, but in a much sparser region
  LofDetector det(10);
  det.fit(x);
  EXPECT_GT(det.scores()[100], 1.5);
}

TEST(PcaDetail, VarianceWeightingFlagsMinorComponentDeviations) {
  // Data on a strongly anisotropic Gaussian: a deviation along the MINOR
  // axis is more anomalous than an equal deviation along the major axis.
  Rng rng(207);
  Matrix x(0, 0);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> p{rng.normal(0.0, 5.0), rng.normal(0.0, 0.3)};
    x.push_row(p);
  }
  // Compare a 1.2σ major-axis point against a 6σ minor-axis point whose raw
  // norm is much smaller — variance weighting must rank the latter higher.
  const std::vector<double> along_major{6.0, 0.0};  // 1.2σ on major axis
  const std::vector<double> minor_big{0.0, 1.8};    // 6σ on minor axis
  x.push_row(along_major);  // index 200
  x.push_row(minor_big);    // index 201
  PcaDetector det;
  det.fit(x);
  EXPECT_GT(det.scores()[201], det.scores()[200]);
}

TEST(SosDetail, PerplexityBoundsRespected) {
  // Degenerate tiny inputs must not crash and must yield probabilities.
  Rng rng(208);
  Matrix x(5, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
  }
  SosDetector det(30.0);  // perplexity above n−1 gets clamped internally
  det.fit(x);
  for (double s : det.scores()) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

void expect_finite_scores(const std::string& what, std::size_t n,
                          const std::vector<double>& scores) {
  ASSERT_EQ(scores.size(), n) << what;
  for (double s : scores) EXPECT_TRUE(std::isfinite(s)) << what;
}

TEST(DegenerateShapes, NeighbourAndCovarianceDetectorsStayFinite) {
  // n = 3, n = 20 (LSCP's region and largest k clamp to n − 1), identical
  // rows (LOF's infinite-lrd path) and a constant column. Their score bits
  // are pinned in tests/golden/detector_scores.json.
  for (const auto& shape : shapes::degenerate_shapes()) {
    const std::size_t n = shape.x.rows();
    std::vector<std::unique_ptr<Detector>> dets;
    dets.push_back(std::make_unique<LscpDetector>());
    dets.push_back(std::make_unique<SodDetector>());
    dets.push_back(std::make_unique<McdDetector>());
    dets.push_back(std::make_unique<SosDetector>());
    dets.push_back(std::make_unique<KnnDetector>());
    dets.push_back(std::make_unique<LofDetector>());
    for (auto& det : dets) {
      const std::string what = det->name() + " on " + shape.name;
      ASSERT_NO_THROW(det->fit(shape.x)) << what;
      expect_finite_scores(what, n, det->scores());
    }
    XgbodDetector xgbod;
    ASSERT_NO_THROW(xgbod.fit(shape.x, shape.labels)) << shape.name;
    expect_finite_scores("XGBOD on " + shape.name, n, xgbod.scores());
  }
}

TEST(DegenerateShapes, IdenticalRowsAreAllInliersForLof) {
  const Matrix x(25, 3, 1.5);
  LofDetector det(10);
  det.fit(x);
  for (double s : det.scores()) EXPECT_EQ(s, 1.0);
}

}  // namespace
}  // namespace nurd::outlier
