#ifndef TWRS_PERFBENCH_INPUTS_H_
#define TWRS_PERFBENCH_INPUTS_H_

// Input generation and output checking for the benchmark, written against
// plain stdio on purpose: nothing here calls into the library, so a change
// to src/workload or src/io/record_io cannot change what is measured or
// what counts as a correct output.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The two input families of the paper's §5.2 that the workloads use.
/// Base keys are spaced 1000 apart and every record gets U[1,1000] noise.
enum class InputKind {
  kUniform,  ///< U[0, n * 1000) + U[1, 1000]
  kReverse,  ///< (n - 1 - i) * 1000 + U[1, 1000]
};

const char* InputKindName(InputKind kind);

/// Order-independent multiset hash of a key sequence: two sums of
/// independent 64-bit mixes plus the count. Equal for any permutation of
/// the same keys; a dropped, duplicated or altered key changes it.
struct MultisetHash {
  uint64_t count = 0;
  uint64_t sum_a = 0;
  uint64_t sum_b = 0;

  void Add(int64_t key);
  bool operator==(const MultisetHash& o) const {
    return count == o.count && sum_a == o.sum_a && sum_b == o.sum_b;
  }
};

/// Writes `n` records of `kind` generated from `seed` to `path` in the
/// library's record format: 8-byte little-endian signed keys, no header.
/// Returns false on an I/O error. `hash` receives the input's multiset hash.
bool WriteInput(InputKind kind, uint64_t n, uint64_t seed,
                const std::string& path, MultisetHash* hash);

/// Reads every key of a record file. Returns false on an I/O error or a
/// size that is not a whole number of records.
bool ReadKeys(const std::string& path, std::vector<int64_t>* keys);

/// The `k` smallest keys of the record file at `path`, ascending, computed
/// by streaming it through a K-bounded std::priority_queue (so it holds k
/// keys, never the whole input). Returns false on an I/O error.
bool SmallestK(const std::string& path, size_t k, std::vector<int64_t>* out);

/// Checks a full-sort output: non-decreasing, and the same multiset of keys
/// (hence the same count) as the input. On failure `why` says what broke.
bool CheckSorted(const std::string& path, const MultisetHash& input,
                 std::string* why);

/// Checks a top-K output: exactly the keys of `expected`, in order.
bool CheckExact(const std::string& path, const std::vector<int64_t>& expected,
                std::string* why);

}  // namespace perfbench

#endif  // TWRS_PERFBENCH_INPUTS_H_
