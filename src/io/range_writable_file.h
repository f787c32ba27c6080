#ifndef TWRS_IO_RANGE_WRITABLE_FILE_H_
#define TWRS_IO_RANGE_WRITABLE_FILE_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "io/env.h"
#include "util/status.h"

namespace twrs {

/// Where a merge puts its bytes. In append mode (the default) the merge
/// creates its output file. In positioned mode it writes into
/// [offset, offset + `length`) of the *existing* file without truncating
/// it, through a RangeWritableFile — the sharded sorter's direct-write
/// final pass and the partitioned final merge, where every merge owns one
/// range of a shared output.
struct MergeOutputRange {
  bool positioned = false;
  uint64_t offset = 0;
  uint64_t length = 0;  ///< exact bytes the merge must produce
};

/// WritableFile that fills the byte range [offset, offset + length) of a
/// shared file: each Append is one RandomRWFile::WriteAt at an advancing
/// offset. Several RangeWritableFiles over distinct handles of one file may
/// write concurrently as long as their ranges are disjoint — the Env
/// contract env_test pins down (extend-on-write, disjoint concurrent
/// writers). Synchronous; an AsyncWritableFile on top overlaps the writes
/// with the producer, as it does for append outputs.
///
/// An Append past the range fails with InvalidArgument, and Close fails
/// with Corruption unless the range was filled exactly: a merge that
/// produced fewer or more bytes than its range would otherwise leave a
/// hole in (or tear a neighbor of) the shared output. Errors are sticky.
class RangeWritableFile : public WritableFile {
 public:
  /// Takes ownership of `file`, a handle opened without truncation.
  RangeWritableFile(std::unique_ptr<RandomRWFile> file, uint64_t offset,
                    uint64_t length)
      : file_(std::move(file)), pos_(offset), end_(offset + length) {}

  /// Releases the handle without the exact-fill check (error-path
  /// unwinding); Close is the checked shutdown.
  ~RangeWritableFile() override;

  Status Append(const void* data, size_t n) override;
  Status Sync() override;
  Status Close() override;

 private:
  std::unique_ptr<RandomRWFile> file_;
  uint64_t pos_;  ///< absolute offset of the next write
  const uint64_t end_;
  Status status_;
  bool closed_ = false;
};

}  // namespace twrs

#endif  // TWRS_IO_RANGE_WRITABLE_FILE_H_
