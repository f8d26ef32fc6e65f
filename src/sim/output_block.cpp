#include "sim/output_block.hpp"

namespace lssim {

void OutputBlock::flush() {
  if (pos_ == block_.get()) return;
  os_.write(block_.get(), pos_ - block_.get());
  pos_ = block_.get();
}

void OutputBlock::write_long(std::string_view text) {
  flush();
  if (text.size() >= kBytes) {
    os_.write(text.data(), static_cast<std::streamsize>(text.size()));
    return;
  }
  std::memcpy(pos_, text.data(), text.size());
  pos_ += text.size();
}

}  // namespace lssim
