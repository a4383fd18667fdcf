// Unit tests: gamma-matrix algebra in both bases, the numerically-derived
// basis rotation, spin projectors, and the fast projection/reconstruction
// path used by the dslash kernels.

#include "su3/gamma.h"

#include <gtest/gtest.h>

#include <random>

namespace quda {
namespace {

Spinor<double> random_spinor(std::mt19937_64& rng) {
  std::normal_distribution<double> d(0.0, 1.0);
  Spinor<double> s;
  for (std::size_t spin = 0; spin < 4; ++spin)
    for (std::size_t c = 0; c < 3; ++c) s.s[spin][c] = complexd(d(rng), d(rng));
  return s;
}

class GammaBases : public ::testing::TestWithParam<GammaBasis> {};

TEST_P(GammaBases, CliffordAlgebra) {
  const GammaBasis basis = GetParam();
  for (int mu = 0; mu < 4; ++mu)
    for (int nu = 0; nu < 4; ++nu) {
      const SpinMatrix anti = gamma(basis, mu) * gamma(basis, nu) +
                              gamma(basis, nu) * gamma(basis, mu);
      SpinMatrix expect;
      if (mu == nu) {
        expect = SpinMatrix::identity();
        expect *= complexd(2.0);
      }
      EXPECT_LT(frobenius_dist2(anti, expect), 1e-24)
          << "{gamma_" << mu << ", gamma_" << nu << "} != 2 delta";
    }
}

TEST_P(GammaBases, GammasAreHermitianAndUnitary) {
  const GammaBasis basis = GetParam();
  for (int mu = 0; mu < 4; ++mu) {
    const SpinMatrix& g = gamma(basis, mu);
    EXPECT_LT(frobenius_dist2(g, adjoint(g)), 1e-24);
    EXPECT_LT(frobenius_dist2(g * g, SpinMatrix::identity()), 1e-24);
  }
}

TEST_P(GammaBases, Gamma5AnticommutesWithGammas) {
  const GammaBasis basis = GetParam();
  const SpinMatrix& g5 = gamma5(basis);
  EXPECT_LT(frobenius_dist2(g5 * g5, SpinMatrix::identity()), 1e-24);
  for (int mu = 0; mu < 4; ++mu) {
    const SpinMatrix anti = g5 * gamma(basis, mu) + gamma(basis, mu) * g5;
    EXPECT_LT(frobenius_dist2(anti, SpinMatrix::zero()), 1e-24);
  }
}

TEST_P(GammaBases, SigmaMunuHermitianAndChiral) {
  const GammaBasis basis = GetParam();
  const SpinMatrix& g5 = gamma5(basis);
  for (int mu = 0; mu < 4; ++mu)
    for (int nu = mu + 1; nu < 4; ++nu) {
      const SpinMatrix s = sigma_munu(basis, mu, nu);
      EXPECT_LT(frobenius_dist2(s, adjoint(s)), 1e-24) << "sigma not Hermitian";
      EXPECT_LT(frobenius_dist2(s * g5, g5 * s), 1e-24) << "sigma does not commute with g5";
    }
}

INSTANTIATE_TEST_SUITE_P(BothBases, GammaBases,
                         ::testing::Values(GammaBasis::DeGrandRossi,
                                           GammaBasis::NonRelativistic),
                         [](const auto& info) {
                           return info.param == GammaBasis::DeGrandRossi ? "DeGrandRossi"
                                                                         : "NonRelativistic";
                         });

TEST(GammaBasisSpecifics, DRGamma5IsDiagonal) {
  const SpinMatrix& g5 = gamma5(GammaBasis::DeGrandRossi);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      if (r != c) {
        EXPECT_LT(norm2(g5.e[r][c]), 1e-24);
      }
}

TEST(GammaBasisSpecifics, NRTemporalProjectorsAreDiagonal) {
  // the paper's equation (6): in the non-relativistic basis P+4 =
  // diag(2,2,0,0) and P-4 = diag(0,0,2,2)
  const SpinMatrix pp = projector(GammaBasis::NonRelativistic, 3, +1);
  const SpinMatrix pm = projector(GammaBasis::NonRelativistic, 3, -1);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) {
      if (r != c) {
        EXPECT_LT(norm2(pp.e[r][c]), 1e-24);
        EXPECT_LT(norm2(pm.e[r][c]), 1e-24);
      }
    }
  EXPECT_NEAR(pp.e[0][0].re, 2.0, 1e-14);
  EXPECT_NEAR(pp.e[1][1].re, 2.0, 1e-14);
  EXPECT_NEAR(pp.e[2][2].re, 0.0, 1e-14);
  EXPECT_NEAR(pm.e[3][3].re, 2.0, 1e-14);
}

TEST(BasisRotation, IntertwinesAllGammas) {
  const SpinMatrix& s = basis_rotation_dr_to_nr();
  // unitary
  EXPECT_LT(frobenius_dist2(s * adjoint(s), SpinMatrix::identity()), 1e-20);
  for (int mu = 0; mu < 4; ++mu) {
    const SpinMatrix rotated = s * gamma(GammaBasis::DeGrandRossi, mu) * adjoint(s);
    EXPECT_LT(frobenius_dist2(rotated, gamma(GammaBasis::NonRelativistic, mu)), 1e-20)
        << "rotation fails for mu = " << mu;
  }
}

TEST(BasisRotation, RotateBasisRoundTrip) {
  std::mt19937_64 rng(11);
  const Spinor<double> psi = random_spinor(rng);
  const Spinor<double> nr =
      rotate_basis(GammaBasis::DeGrandRossi, GammaBasis::NonRelativistic, psi);
  const Spinor<double> back =
      rotate_basis(GammaBasis::NonRelativistic, GammaBasis::DeGrandRossi, nr);
  EXPECT_NEAR(norm2(psi - back), 0.0, 1e-24);
  EXPECT_NEAR(norm2(nr), norm2(psi), 1e-12); // unitary
}

TEST(ChiralTransform, DiagonalizesGamma5) {
  const SpinMatrix& w = chiral_transform();
  EXPECT_LT(frobenius_dist2(w * adjoint(w), SpinMatrix::identity()), 1e-20);
  const SpinMatrix d = adjoint(w) * gamma5(GammaBasis::NonRelativistic) * w;
  EXPECT_NEAR(d.e[0][0].re, 1.0, 1e-12);
  EXPECT_NEAR(d.e[1][1].re, 1.0, 1e-12);
  EXPECT_NEAR(d.e[2][2].re, -1.0, 1e-12);
  EXPECT_NEAR(d.e[3][3].re, -1.0, 1e-12);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      if (r != c) {
        EXPECT_LT(norm2(d.e[r][c]), 1e-20);
      }
}

struct ProjCase {
  int mu;
  int sign;
};

class Projection : public ::testing::TestWithParam<ProjCase> {};

TEST_P(Projection, ProjectorSquaredIsTwiceProjector) {
  const auto [mu, sign] = GetParam();
  const SpinMatrix p = projector(GammaBasis::NonRelativistic, mu, sign);
  SpinMatrix twice = p;
  twice *= complexd(2.0);
  EXPECT_LT(frobenius_dist2(p * p, twice), 1e-24);
}

TEST_P(Projection, FastPathMatchesDenseProjector) {
  const auto [mu, sign] = GetParam();
  std::mt19937_64 rng(mu * 17 + sign + 100);
  const Spinor<double> psi = random_spinor(rng);

  // dense: (1 + sign*gamma_mu) psi
  const SpinMatrix p = projector(GammaBasis::NonRelativistic, mu, sign);
  const Spinor<double> dense = apply_spin(p, psi);

  // fast: project to half spinor, reconstruct
  const HalfSpinor<double> h = project(mu, sign, psi);
  Spinor<double> fast{};
  reconstruct_add(mu, sign, h, fast);

  EXPECT_LT(norm2(dense - fast), 1e-24)
      << "projection path mismatch at mu=" << mu << " sign=" << sign;
}

INSTANTIATE_TEST_SUITE_P(AllDirections, Projection,
                         ::testing::Values(ProjCase{0, +1}, ProjCase{0, -1}, ProjCase{1, +1},
                                           ProjCase{1, -1}, ProjCase{2, +1}, ProjCase{2, -1},
                                           ProjCase{3, +1}, ProjCase{3, -1}),
                         [](const auto& info) {
                           return "mu" + std::to_string(info.param.mu) +
                                  (info.param.sign > 0 ? "_plus" : "_minus");
                         });

} // namespace
} // namespace quda
