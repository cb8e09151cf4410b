#include "mp/serialize.hpp"

#include <stdexcept>

namespace pph::mp {

void Packer::write_string(const std::string& s) {
  write(static_cast<std::uint64_t>(s.size()));
  const auto* bytes = reinterpret_cast<const std::byte*>(s.data());
  buffer_.insert(buffer_.end(), bytes, bytes + s.size());
}

std::string Unpacker::read_string() {
  const auto n = read<std::uint64_t>();
  ensure(n);
  std::string s(reinterpret_cast<const char*>(buffer_.data() + pos_), n);
  pos_ += n;
  return s;
}

void Unpacker::ensure(std::uint64_t n) const {
  if (n > buffer_.size() - pos_) underrun();
}

void Unpacker::underrun() { throw std::out_of_range("Unpacker: payload underrun"); }

std::vector<std::byte> pack_steal_request(const StealRequest& req) {
  Packer p;
  p.write(req.thief);
  return p.take();
}

StealRequest unpack_steal_request(const std::vector<std::byte>& payload) {
  Unpacker u(payload);
  StealRequest req;
  req.thief = u.read<int>();
  return req;
}

std::vector<std::byte> pack_job_frame(const JobFrame& frame) {
  Packer p;
  p.write(frame.id);
  p.write(frame.flags);
  p.write_vector(frame.payload);
  return p.take();
}

JobFrame unpack_job_frame(const std::vector<std::byte>& payload) {
  Unpacker u(payload);
  JobFrame frame;
  frame.id = u.read<std::uint64_t>();
  frame.flags = u.read<std::uint32_t>();
  frame.payload = u.read_vector<std::byte>();
  return frame;
}

std::vector<std::byte> pack_job_frame_batch(const std::vector<JobFrame>& frames) {
  Packer p;
  p.write(static_cast<std::uint64_t>(frames.size()));
  for (const auto& frame : frames) {
    p.write(frame.id);
    p.write(frame.flags);
    p.write_vector(frame.payload);
  }
  return p.take();
}

std::vector<JobFrame> unpack_job_frame_batch(const std::vector<std::byte>& payload) {
  Unpacker u(payload);
  const auto count = static_cast<std::size_t>(u.read<std::uint64_t>());
  std::vector<JobFrame> frames;
  frames.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    JobFrame frame;
    frame.id = u.read<std::uint64_t>();
    frame.flags = u.read<std::uint32_t>();
    frame.payload = u.read_vector<std::byte>();
    frames.push_back(std::move(frame));
  }
  return frames;
}

}  // namespace pph::mp
