/**
 * @file
 * Quality metrics for the approximate screening evaluation: top-k
 * extraction and recall@k.
 */

#ifndef ECSSD_XCLASS_METRICS_HH
#define ECSSD_XCLASS_METRICS_HH

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

namespace ecssd
{
namespace xclass
{

/**
 * Indices of the @p k largest values in @p scores, largest first;
 * ties broken by lower index for determinism.
 *
 * Selection is nth_element (O(n)) followed by a bounded sort of the
 * k survivors (O(k log k)) — cheaper than a heap/partial_sort pass
 * over all n when k << n, which is the screening regime (top-k of
 * hundreds of thousands of scores).  The comparator is a strict
 * total order (score descending, index ascending on ties), so the
 * output is unique and identical to a full sort's first k entries.
 */
template <typename Score>
std::vector<std::uint64_t>
topKIndices(std::span<const Score> scores, std::size_t k)
{
    k = std::min(k, scores.size());
    std::vector<std::uint64_t> order(scores.size());
    std::iota(order.begin(), order.end(), 0);
    const auto better = [&](std::uint64_t a, std::uint64_t b) {
        if (scores[a] != scores[b])
            return scores[a] > scores[b];
        return a < b;
    };
    if (k < scores.size()) {
        const auto kth = order.begin() + static_cast<std::ptrdiff_t>(k);
        std::nth_element(order.begin(), kth, order.end(), better);
        // A fresh k-slot vector: resize(k) would keep all n slots held.
        order = std::vector<std::uint64_t>(order.begin(), kth);
    }
    std::sort(order.begin(), order.end(), better);
    return order;
}

/**
 * Recall@k: |truth ∩ approx| / |truth|.
 *
 * @param truth Exact top-k set.
 * @param approx Approximate top-k set.
 */
inline double
recall(std::span<const std::uint64_t> truth,
       std::span<const std::uint64_t> approx)
{
    if (truth.empty())
        return 1.0;
    std::vector<std::uint64_t> sorted_truth(truth.begin(),
                                            truth.end());
    std::sort(sorted_truth.begin(), sorted_truth.end());
    std::size_t hits = 0;
    for (const std::uint64_t idx : approx) {
        if (std::binary_search(sorted_truth.begin(),
                               sorted_truth.end(), idx))
            ++hits;
    }
    return static_cast<double>(hits)
        / static_cast<double>(truth.size());
}

} // namespace xclass
} // namespace ecssd

#endif // ECSSD_XCLASS_METRICS_HH
