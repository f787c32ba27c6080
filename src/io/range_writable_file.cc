#include "io/range_writable_file.h"

#include <string>

namespace twrs {

RangeWritableFile::~RangeWritableFile() {
  if (!closed_) TWRS_IGNORE_STATUS(file_->Close());
}

Status RangeWritableFile::Append(const void* data, size_t n) {
  TWRS_RETURN_IF_ERROR(status_);
  if (closed_) {
    status_ = Status::InvalidArgument("Append on closed RangeWritableFile");
  } else if (n > end_ - pos_) {
    status_ = Status::InvalidArgument(
        "write of " + std::to_string(n) + " bytes at offset " +
        std::to_string(pos_) + " runs past the range ending at " +
        std::to_string(end_));
  } else {
    status_ = file_->WriteAt(pos_, data, n);
    if (status_.ok()) pos_ += n;
  }
  return status_;
}

Status RangeWritableFile::Sync() {
  TWRS_RETURN_IF_ERROR(status_);
  status_ = file_->Sync();
  return status_;
}

Status RangeWritableFile::Close() {
  if (closed_) return status_;
  closed_ = true;
  if (status_.ok() && pos_ != end_) {
    status_ = Status::Corruption("range writer stopped " +
                                 std::to_string(end_ - pos_) +
                                 " bytes short of its range end " +
                                 std::to_string(end_));
  }
  Status close_status = file_->Close();
  if (status_.ok()) status_ = std::move(close_status);
  return status_;
}

}  // namespace twrs
