/**
 * @file
 * Approximate projection from the full hidden dimension D to the
 * shrunk screener dimension K (Section 2.1).
 *
 * The paper learns the projection offline with PyTorch; here we use a
 * seeded random Gaussian (Johnson-Lindenstrauss) projection, which
 * preserves inner products in expectation and therefore exercises the
 * same screening behaviour: rows with large true scores also get
 * large projected scores with high probability.
 */

#ifndef ECSSD_NUMERIC_PROJECTION_HH
#define ECSSD_NUMERIC_PROJECTION_HH

#include <cstdint>
#include <span>
#include <vector>

#include "numeric/matrix.hh"
#include "sim/rng.hh"

namespace ecssd
{
namespace sim
{
class ThreadPool;
} // namespace sim
} // namespace ecssd

namespace ecssd
{
namespace numeric
{

/**
 * A D -> K linear projection shared by weights and features so that
 * projected inner products approximate original inner products.
 */
class Projector
{
  public:
    /**
     * Build a projection matrix of shape K x D with entries
     * N(0, 1/K) so that E[<Px, Pw>] = <x, w>.
     */
    Projector(std::size_t full_dim, std::size_t shrunk_dim,
              std::uint64_t seed);

    /**
     * Wrap a pre-trained projection matrix (K x D).  This is how a
     * learned projection (the paper's setting) plugs in: when the
     * rows are an orthonormal basis of the weight manifold, the
     * projected inner products match the full-precision ones almost
     * exactly.
     */
    explicit Projector(const FloatMatrix &projection);

    std::size_t fullDim() const { return fullDim_; }
    std::size_t shrunkDim() const { return shrunkDim_; }

    /** Project one D-length vector down to K values. */
    std::vector<float> project(std::span<const float> vec) const;

    /** Project into an existing buffer (resized to K), reusing its
     *  storage across queries. */
    void projectInto(std::span<const float> vec,
                     std::vector<float> &out) const;

    /**
     * Project every row of @p weights (L x D) to an L x K matrix.
     * With a pool, rows project in parallel (each output row is an
     * independent slot: bit-identical for any thread count).
     */
    FloatMatrix projectRows(const FloatMatrix &weights,
                            sim::ThreadPool *pool = nullptr) const;

  private:
    std::size_t fullDim_;
    std::size_t shrunkDim_;
    /**
     * The K x D basis stored transposed (D x K, row-major): the GEMV
     * runs lanes across output rows k, so it wants the k values of
     * one input dimension contiguous.
     */
    std::vector<float> basisT_;
};

} // namespace numeric
} // namespace ecssd

#endif // ECSSD_NUMERIC_PROJECTION_HH
