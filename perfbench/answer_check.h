// Correctness gate: compares a served answer with brute-force network
// expansion (NetworkExpansionBaseline) over the same document store.
#ifndef KSPIN_PERFBENCH_ANSWER_CHECK_H_
#define KSPIN_PERFBENCH_ANSWER_CHECK_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "baselines/network_expansion.h"
#include "server/wire.h"

namespace kspin::perfbench {

/// Checks a served disjunctive BkNN answer (`ranked` false) or ranked
/// top-k answer (`ranked` true) for query (q, k, keywords). Every rank must
/// carry the brute-force key (distance, or score), and every returned
/// object must be a qualifying object with the brute-force distance and
/// score. Objects tied with the k-th key may differ from brute force's
/// pick: any of the tied objects is a correct answer. Returns an empty
/// string on success, else what differed.
std::string CheckAnswer(NetworkExpansionBaseline& brute, bool ranked,
                        VertexId q, std::uint32_t k,
                        std::span<const KeywordId> keywords,
                        const std::vector<server::WireResult>& served);

}  // namespace kspin::perfbench

#endif  // KSPIN_PERFBENCH_ANSWER_CHECK_H_
