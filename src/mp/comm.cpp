#include "mp/comm.hpp"

#include <exception>
#include <stdexcept>
#include <thread>

#include "mp/fault.hpp"

namespace pph::mp {

int Comm::size() const { return world_->size_; }

void Comm::send(int dest, int tag, std::vector<std::byte> payload) const {
  if (dest < 0 || dest >= world_->size_) throw std::out_of_range("Comm::send: bad destination");
  if (world_->fault_ != nullptr) {
    FaultInjector::sleep_for(world_->fault_->send_delay(rank_));
  }
  world_->mailboxes_[static_cast<std::size_t>(dest)]->push(
      Message{rank_, tag, std::move(payload)});
}

void Comm::send(int dest, int tag, const Packer& packer) const {
  send(dest, tag, std::vector<std::byte>(packer.bytes()));
}

Message Comm::recv(int source, int tag) const {
  return world_->mailboxes_[static_cast<std::size_t>(rank_)]->recv(source, tag);
}

std::optional<Message> Comm::try_recv(int source, int tag) const {
  return world_->mailboxes_[static_cast<std::size_t>(rank_)]->try_recv(source, tag);
}

std::optional<Message> Comm::recv_for(double seconds, int source, int tag) const {
  return world_->mailboxes_[static_cast<std::size_t>(rank_)]->recv_for(seconds, source, tag);
}

void Comm::barrier() const {
  std::unique_lock<std::mutex> lock(world_->barrier_mutex_);
  if (world_->barrier_poisoned_) throw WorldAborted();
  const std::uint64_t generation = world_->barrier_generation_;
  if (++world_->barrier_arrived_ == world_->size_) {
    world_->barrier_arrived_ = 0;
    ++world_->barrier_generation_;
    world_->barrier_cv_.notify_all();
  } else {
    world_->barrier_cv_.wait(lock, [&] {
      return world_->barrier_generation_ != generation || world_->barrier_poisoned_;
    });
    // A completed barrier wins over a concurrent poison; an incomplete one
    // can never complete (the failed rank will not arrive).
    if (world_->barrier_generation_ == generation) throw WorldAborted();
  }
}

World::World(int size) : size_(size) {
  if (size <= 0) throw std::invalid_argument("World: size must be positive");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) mailboxes_.push_back(std::make_unique<Mailbox>());
}

void World::poison() {
  for (auto& mb : mailboxes_) mb->poison();
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    barrier_poisoned_ = true;
  }
  barrier_cv_.notify_all();
}

void World::run(int size, const RankMain& main) { run(size, main, nullptr); }

void World::run(int size, const RankMain& main, FaultInjector* fault) {
  World world(size);
  world.fault_ = fault;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size));
  std::exception_ptr first_error;
  std::mutex error_mutex;
  for (int r = 0; r < size; ++r) {
    threads.emplace_back([&world, &main, r, &first_error, &error_mutex] {
      Comm comm(&world, r);
      try {
        main(comm);
      } catch (...) {
        {
          // The poison happens after the store, so a sibling's secondary
          // WorldAborted can never displace the original error.
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        world.poison();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace pph::mp
