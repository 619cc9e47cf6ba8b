#include "la/matrix.h"

#include <cmath>

#include <gtest/gtest.h>

namespace vexus::la {
namespace {

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 0.0);
  m(1, 2) = 5.5;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.5);
}

TEST(MatrixTest, FillConstructor) {
  Matrix m(2, 2, 3.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 3.0);
}

TEST(MatrixTest, Identity) {
  Matrix i = Matrix::Identity(3);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixTest, Transpose) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(t(2, 0), 3.0);
}

TEST(MatrixTest, Multiply) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MultiplyByIdentity) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix r = a * Matrix::Identity(2);
  EXPECT_DOUBLE_EQ(r.MaxAbsDiff(a), 0.0);
}

TEST(MatrixTest, MultiplyVector) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  auto v = a.MultiplyVector({1.0, 1.0});
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[1], 7.0);
}

TEST(MatrixTest, AddSubtractScale) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{4, 3}, {2, 1}});
  Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(sum(1, 1), 5.0);
  Matrix diff = sum - b;
  EXPECT_DOUBLE_EQ(diff.MaxAbsDiff(a), 0.0);
  a.Scale(2.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 8.0);
}

TEST(MatrixTest, AddToDiagonal) {
  Matrix a(3, 3);
  a.AddToDiagonal(2.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(a(2, 2), 2.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix a = Matrix::FromRows({{3, 4}});
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), 5.0);
}

TEST(MatrixTest, IsSymmetric) {
  Matrix sym = Matrix::FromRows({{2, 1}, {1, 2}});
  Matrix asym = Matrix::FromRows({{2, 1}, {0, 2}});
  Matrix rect(2, 3);
  EXPECT_TRUE(sym.IsSymmetric());
  EXPECT_FALSE(asym.IsSymmetric());
  EXPECT_FALSE(rect.IsSymmetric());
}

TEST(CholeskyTest, FactorizesSpdMatrix) {
  Matrix a = Matrix::FromRows({{4, 2}, {2, 3}});
  auto l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  Matrix rec = l->Multiply(l->Transpose());
  EXPECT_LT(rec.MaxAbsDiff(a), 1e-12);
  EXPECT_DOUBLE_EQ((*l)(0, 1), 0.0);  // lower-triangular
}

TEST(CholeskyTest, RejectsIndefiniteMatrix) {
  Matrix a = Matrix::FromRows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  auto l = Cholesky(a);
  EXPECT_FALSE(l.ok());
  EXPECT_TRUE(l.status().IsFailedPrecondition());
}

TEST(CholeskyTest, IdentityFactorsToIdentity) {
  auto l = Cholesky(Matrix::Identity(4));
  ASSERT_TRUE(l.ok());
  EXPECT_LT(l->MaxAbsDiff(Matrix::Identity(4)), 1e-15);
}

TEST(SubstitutionTest, SolvesTriangularSystems) {
  Matrix a = Matrix::FromRows({{4, 2, 0.5}, {2, 5, 1}, {0.5, 1, 3}});
  auto l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  std::vector<double> b = {1.0, 2.0, 3.0};
  // Solve L y = b and multiply back.
  auto y = ForwardSubstitute(*l, b);
  auto ly = l->MultiplyVector(y);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(ly[i], b[i], 1e-10);
}

TEST(InvertLowerTriangularTest, ProducesInverse) {
  Matrix a = Matrix::FromRows({{9, 3, 1}, {3, 8, 2}, {1, 2, 7}});
  auto l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  Matrix linv = InvertLowerTriangular(*l);
  Matrix prod = linv.Multiply(*l);
  EXPECT_LT(prod.MaxAbsDiff(Matrix::Identity(3)), 1e-10);
}

TEST(VectorOpsTest, DotAndNorm) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Dot({}, {}), 0.0);
}

TEST(MatrixTest, ToStringRendersRows) {
  Matrix a = Matrix::FromRows({{1.5, 2}, {3, 4}});
  std::string s = a.ToString();
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("4"), std::string::npos);
}

}  // namespace
}  // namespace vexus::la
