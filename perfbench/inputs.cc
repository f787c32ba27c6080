#include "inputs.h"

#include <cstdio>
#include <functional>
#include <memory>
#include <queue>

namespace perfbench {

namespace {

constexpr size_t kRecordBytes = 8;
constexpr size_t kChunkRecords = 8192;
constexpr uint64_t kStride = 1000;

// SplitMix64 (Steele, Lea & Flood): a full-period 64-bit generator whose
// finalizer is also a good integer mixer.
uint64_t Mix(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix(state_ += 0x9e3779b97f4a7c15ULL); }
  // Uniform in [0, bound) by multiply-shift (bias below 2^-40 here).
  uint64_t Below(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

 private:
  uint64_t state_;
};

void Encode(int64_t key, unsigned char* out) {
  const uint64_t u = static_cast<uint64_t>(key);
  for (size_t i = 0; i < kRecordBytes; ++i) {
    out[i] = static_cast<unsigned char>(u >> (8 * i));
  }
}

int64_t Decode(const unsigned char* in) {
  uint64_t u = 0;
  for (size_t i = 0; i < kRecordBytes; ++i) {
    u |= static_cast<uint64_t>(in[i]) << (8 * i);
  }
  return static_cast<int64_t>(u);
}

struct FileCloser {
  void operator()(FILE* f) const { std::fclose(f); }
};
using File = std::unique_ptr<FILE, FileCloser>;

// Streams every key of a record file to `visit`, which returns false to
// stop. Returns false on an I/O error or a trailing partial record.
bool ForEachKey(const std::string& path,
                const std::function<bool(int64_t)>& visit, std::string* why) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) {
    *why = "cannot open " + path;
    return false;
  }
  std::vector<unsigned char> buf(kChunkRecords * kRecordBytes);
  for (;;) {
    const size_t got = std::fread(buf.data(), 1, buf.size(), f.get());
    if (got % kRecordBytes != 0) {
      *why = path + " ends in a partial record";
      return false;
    }
    for (size_t off = 0; off < got; off += kRecordBytes) {
      if (!visit(Decode(buf.data() + off))) return true;
    }
    if (got < buf.size()) break;
  }
  if (std::ferror(f.get())) {
    *why = "read error on " + path;
    return false;
  }
  return true;
}

}  // namespace

const char* InputKindName(InputKind kind) {
  return kind == InputKind::kUniform ? "uniform" : "reverse";
}

void MultisetHash::Add(int64_t key) {
  const uint64_t u = static_cast<uint64_t>(key);
  ++count;
  sum_a += Mix(u ^ 0x5851f42d4c957f2dULL);
  sum_b += Mix(Mix(u) + 0x14057b7ef767814fULL);
}

bool WriteInput(InputKind kind, uint64_t n, uint64_t seed,
                const std::string& path, MultisetHash* hash) {
  File f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;
  // Separate streams for the base keys and the noise, so the reverse
  // family's noise is the same draw sequence as the uniform family's.
  Rng base(Mix(seed) ^ 0x243f6a8885a308d3ULL);
  Rng noise(Mix(seed) ^ 0x13198a2e03707344ULL);
  *hash = MultisetHash();
  std::vector<unsigned char> buf(kChunkRecords * kRecordBytes);
  size_t used = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t b = kind == InputKind::kUniform ? base.Below(n * kStride)
                                                   : (n - 1 - i) * kStride;
    const int64_t key = static_cast<int64_t>(b + 1 + noise.Below(kStride));
    hash->Add(key);
    Encode(key, buf.data() + used);
    used += kRecordBytes;
    if (used == buf.size()) {
      if (std::fwrite(buf.data(), 1, used, f.get()) != used) return false;
      used = 0;
    }
  }
  if (used > 0 && std::fwrite(buf.data(), 1, used, f.get()) != used) {
    return false;
  }
  return std::fclose(f.release()) == 0;
}

bool ReadKeys(const std::string& path, std::vector<int64_t>* keys) {
  keys->clear();
  std::string why;
  return ForEachKey(
      path,
      [keys](int64_t key) {
        keys->push_back(key);
        return true;
      },
      &why);
}

bool SmallestK(const std::string& path, size_t k, std::vector<int64_t>* out) {
  std::priority_queue<int64_t> kept;  // max-heap: top is the K-th smallest
  std::string why;
  const bool ok = ForEachKey(
      path,
      [&kept, k](int64_t key) {
        if (kept.size() < k) {
          kept.push(key);
        } else if (k > 0 && key < kept.top()) {
          kept.pop();
          kept.push(key);
        }
        return true;
      },
      &why);
  if (!ok) return false;
  out->assign(kept.size(), 0);
  for (size_t i = out->size(); i > 0; --i) {
    (*out)[i - 1] = kept.top();
    kept.pop();
  }
  return true;
}

bool CheckSorted(const std::string& path, const MultisetHash& input,
                 std::string* why) {
  MultisetHash seen;
  int64_t previous = 0;
  bool sorted = true;
  if (!ForEachKey(
          path,
          [&](int64_t key) {
            if (seen.count > 0 && key < previous) {
              *why = "output decreases at record " + std::to_string(seen.count);
              sorted = false;
              return false;
            }
            previous = key;
            seen.Add(key);
            return true;
          },
          why)) {
    return false;
  }
  if (!sorted) return false;
  if (seen.count != input.count) {
    *why = "output has " + std::to_string(seen.count) + " records, input " +
           std::to_string(input.count);
    return false;
  }
  if (!(seen == input)) {
    *why = "output keys are not a permutation of the input keys";
    return false;
  }
  return true;
}

bool CheckExact(const std::string& path, const std::vector<int64_t>& expected,
                std::string* why) {
  size_t i = 0;
  bool match = true;
  if (!ForEachKey(
          path,
          [&](int64_t key) {
            if (i >= expected.size() || key != expected[i]) {
              *why = "output differs from the reference at record " +
                     std::to_string(i);
              match = false;
              return false;
            }
            ++i;
            return true;
          },
          why)) {
    return false;
  }
  if (!match) return false;
  if (i != expected.size()) {
    *why = "output has " + std::to_string(i) + " records, expected " +
           std::to_string(expected.size());
    return false;
  }
  return true;
}

}  // namespace perfbench
