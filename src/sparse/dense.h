#ifndef OCULAR_SPARSE_DENSE_H_
#define OCULAR_SPARSE_DENSE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace ocular {

/// Row-major dense matrix of doubles.
///
/// Used for the factor matrices F_user (n_u x K) and F_item (n_i x K).
/// Rows are contiguous so the inner products <f_u, f_i> of the paper's
/// model stream through cache lines.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(uint32_t rows, uint32_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, fill) {}

  uint32_t rows() const { return rows_; }
  uint32_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  double& At(uint32_t r, uint32_t c) {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double At(uint32_t r, uint32_t c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  std::span<double> Row(uint32_t r) {
    return {data_.data() + static_cast<size_t>(r) * cols_, cols_};
  }
  std::span<const double> Row(uint32_t r) const {
    return {data_.data() + static_cast<size_t>(r) * cols_, cols_};
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Sets every element to `v`.
  void Fill(double v);

  /// Fills with iid Uniform(lo, hi) draws.
  void FillUniform(Rng* rng, double lo, double hi);

  /// Grows or shrinks to `rows` rows in place, keeping the leading rows;
  /// appended rows are zero.
  void ResizeRows(uint32_t rows) {
    data_.resize(static_cast<size_t>(rows) * cols_, 0.0);
    rows_ = rows;
  }

  /// Column sums (length cols()). This is the Σ_u f_u precomputation of
  /// Section IV-D.
  std::vector<double> ColumnSums() const;

  /// Frobenius norm squared — the l2 regularizer Σ ||f||².
  double SquaredFrobeniusNorm() const;

  friend bool operator==(const DenseMatrix& a, const DenseMatrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  uint32_t rows_ = 0;
  uint32_t cols_ = 0;
  std::vector<double> data_;
};

/// Non-owning row-major view of a matrix of doubles — the read-side
/// counterpart of DenseMatrix. A DenseMatrix converts implicitly, so
/// kernels written against the view accept both owned matrices and
/// borrowed storage (e.g. the mmapped factor sections a ModelStore serves
/// straight out of the page cache, core/model_store.h). The viewed memory
/// must outlive the view.
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const double* data, uint32_t rows, uint32_t cols)
      : data_(data), rows_(rows), cols_(cols) {}
  /// Implicit: any DenseMatrix is viewable.
  ConstMatrixView(const DenseMatrix& m)  // NOLINT(runtime/explicit)
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()) {}

  uint32_t rows() const { return rows_; }
  uint32_t cols() const { return cols_; }
  size_t size() const { return static_cast<size_t>(rows_) * cols_; }

  double At(uint32_t r, uint32_t c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  std::span<const double> Row(uint32_t r) const {
    return {data_ + static_cast<size_t>(r) * cols_, cols_};
  }
  const double* data() const { return data_; }

 private:
  const double* data_ = nullptr;
  uint32_t rows_ = 0;
  uint32_t cols_ = 0;
};

/// Column sums of a borrowed matrix (length m.cols()). Accumulates in the
/// exact row-major order of DenseMatrix::ColumnSums, so the two agree
/// bit-for-bit on the same values — fold-in contexts built from an mmapped
/// ModelStore must match ones built from an in-memory model exactly.
std::vector<double> ColumnSums(ConstMatrixView m);

namespace vec {

/// <a, b> for equal-length spans.
double Dot(std::span<const double> a, std::span<const double> b);

/// y += alpha * x.
void Axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x *= alpha.
void Scale(double alpha, std::span<double> x);

/// Euclidean norm squared.
double SquaredNorm(std::span<const double> a);

/// Squared Euclidean distance between a and b.
double SquaredDistance(std::span<const double> a, std::span<const double> b);

/// Clamps each component to [0, +inf) — the projection step (f)_+ of
/// projected gradient descent.
void ProjectNonNegative(std::span<double> x);

}  // namespace vec

}  // namespace ocular

#endif  // OCULAR_SPARSE_DENSE_H_
