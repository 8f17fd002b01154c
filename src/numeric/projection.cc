#include "projection.hh"

#include <cmath>

#include "numeric/kernels.hh"
#include "sim/logging.hh"
#include "sim/thread_pool.hh"

namespace ecssd
{
namespace numeric
{

Projector::Projector(std::size_t full_dim, std::size_t shrunk_dim,
                     std::uint64_t seed)
    : fullDim_(full_dim), shrunkDim_(shrunk_dim),
      basisT_(full_dim * shrunk_dim)
{
    ECSSD_ASSERT(shrunk_dim > 0 && shrunk_dim <= full_dim,
                 "projection must shrink the hidden dimension");
    sim::Rng rng(seed);
    const double stddev =
        1.0 / std::sqrt(static_cast<double>(shrunk_dim));
    // Drawn row by row of the K x D basis, stored transposed.
    for (std::size_t k = 0; k < shrunk_dim; ++k)
        for (std::size_t d = 0; d < full_dim; ++d)
            basisT_[d * shrunk_dim + k] =
                static_cast<float>(rng.gaussian(0.0, stddev));
}

Projector::Projector(const FloatMatrix &projection)
    : fullDim_(projection.cols()), shrunkDim_(projection.rows()),
      basisT_(fullDim_ * shrunkDim_)
{
    ECSSD_ASSERT(shrunkDim_ > 0 && shrunkDim_ <= fullDim_,
                 "projection must shrink the hidden dimension");
    for (std::size_t k = 0; k < shrunkDim_; ++k) {
        const std::span<const float> prow = projection.row(k);
        for (std::size_t d = 0; d < fullDim_; ++d)
            basisT_[d * shrunkDim_ + k] = prow[d];
    }
}

std::vector<float>
Projector::project(std::span<const float> vec) const
{
    std::vector<float> out;
    projectInto(vec, out);
    return out;
}

void
Projector::projectInto(std::span<const float> vec,
                       std::vector<float> &out) const
{
    ECSSD_ASSERT(vec.size() == fullDim_,
                 "projection input length mismatch");
    out.resize(shrunkDim_);
    projectGemv(std::span<const float>(basisT_), fullDim_,
                shrunkDim_, vec, out.data(), activeIsa());
}

FloatMatrix
Projector::projectRows(const FloatMatrix &weights,
                       sim::ThreadPool *pool) const
{
    ECSSD_ASSERT(weights.cols() == fullDim_,
                 "projection weight width mismatch");
    FloatMatrix out(weights.rows(), shrunkDim_);
    const auto project_rows = [&](std::size_t row_begin,
                                  std::size_t row_end) {
        std::vector<float> projected;
        for (std::size_t r = row_begin; r < row_end; ++r) {
            projectInto(weights.row(r), projected);
            std::span<float> orow = out.row(r);
            for (std::size_t k = 0; k < shrunkDim_; ++k)
                orow[k] = projected[k];
        }
    };
    if (pool)
        pool->parallelFor(0, weights.rows(), 64, project_rows);
    else
        project_rows(0, weights.rows());
    return out;
}

} // namespace numeric
} // namespace ecssd
