// Tests for the in-process message-passing runtime: serialization
// round-trips, mailbox semantics (filtering, per-sender ordering, timed
// receives), world lifecycle, barrier, poisoning (one rank's exception must
// unblock every sibling so the join completes), and stress under contention.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <complex>
#include <numeric>
#include <thread>

#include "mp/comm.hpp"

namespace {

using pph::mp::Comm;
using pph::mp::kAnySource;
using pph::mp::kAnyTag;
using pph::mp::Mailbox;
using pph::mp::Message;
using pph::mp::Packer;
using pph::mp::Unpacker;
using pph::mp::World;

TEST(Serialize, PodRoundTrip) {
  Packer p;
  p.write(42);
  p.write(3.5);
  p.write(std::complex<double>{1.0, -2.0});
  Unpacker u(p.bytes());
  EXPECT_EQ(u.read<int>(), 42);
  EXPECT_DOUBLE_EQ(u.read<double>(), 3.5);
  EXPECT_EQ(u.read<std::complex<double>>(), (std::complex<double>{1.0, -2.0}));
  EXPECT_TRUE(u.exhausted());
}

TEST(Serialize, StringAndVectorRoundTrip) {
  Packer p;
  p.write_string("pieri");
  std::vector<std::complex<double>> v{{1, 2}, {3, 4}};
  p.write_vector(v);
  Unpacker u(p.bytes());
  EXPECT_EQ(u.read_string(), "pieri");
  EXPECT_EQ(u.read_vector<std::complex<double>>(), v);
}

TEST(Serialize, UnderrunThrows) {
  Packer p;
  p.write(1);
  Unpacker u(p.bytes());
  u.read<int>();
  EXPECT_THROW(u.read<double>(), std::out_of_range);
}

/// A frame whose length prefix is `count`, followed by 16 real bytes: the
/// count is corrupt whenever it claims more than those bytes.
std::vector<std::byte> frame_with_count(std::uint64_t count) {
  Packer p;
  p.write(count);
  p.write(std::complex<double>{1.0, 2.0});
  return p.take();
}

/// The typed underrun error, and nothing else (std::length_error or
/// std::bad_alloc from the library would mean the check was bypassed).
template <typename Read>
void expect_underrun(Read read) {
  try {
    read();
    ADD_FAILURE() << "corrupt length was accepted";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "Unpacker: payload underrun");
  }
}

TEST(Serialize, CorruptLengthsThrowTypedUnderrun) {
  // Each count wraps the byte check of a naive `pos + n > size` or
  // `n * sizeof(T)`: 2^64-1 bytes of string, 2^61 doubles (2^64 bytes), and
  // 2^60+1 complex doubles (2^64 + 16 bytes).
  const auto huge_string = frame_with_count(~std::uint64_t{0});
  expect_underrun([&] { Unpacker(huge_string).read_string(); });
  const auto huge_doubles = frame_with_count(std::uint64_t{1} << 61);
  expect_underrun([&] { Unpacker(huge_doubles).read_vector<double>(); });
  const auto huge_complex = frame_with_count((std::uint64_t{1} << 60) + 1);
  expect_underrun([&] { Unpacker(huge_complex).read_vector<std::complex<double>>(); });
  // One element past the real bytes is still an underrun.
  const auto one_past = frame_with_count(3);
  expect_underrun([&] { Unpacker(one_past).read_vector<double>(); });
  // The honest count reads back.
  const auto exact = frame_with_count(1);
  EXPECT_EQ(Unpacker(exact).read_vector<std::complex<double>>(),
            (std::vector<std::complex<double>>{{1.0, 2.0}}));
}

TEST(MailboxTest, FifoPerSender) {
  Mailbox box;
  for (int i = 0; i < 5; ++i) box.push(Message{0, 7, {std::byte(i)}});
  for (int i = 0; i < 5; ++i) {
    const Message m = box.recv(0, 7);
    EXPECT_EQ(m.payload[0], std::byte(i));
  }
}

TEST(MailboxTest, TagFilterSkipsNonMatching) {
  Mailbox box;
  box.push(Message{0, 1, {}});
  box.push(Message{0, 2, {}});
  const Message m = box.recv(kAnySource, 2);
  EXPECT_EQ(m.tag, 2);
  EXPECT_EQ(box.size(), 1u);
}

TEST(MailboxTest, SourceFilter) {
  Mailbox box;
  box.push(Message{3, 0, {}});
  box.push(Message{1, 0, {}});
  EXPECT_EQ(box.recv(1).source, 1);
  EXPECT_FALSE(box.try_recv(2).has_value());
  EXPECT_TRUE(box.try_recv(3).has_value());
}

TEST(MailboxTest, ProbeDoesNotConsume) {
  Mailbox box;
  box.push(Message{2, 9, {}});
  const auto probed = box.probe();
  ASSERT_TRUE(probed.has_value());
  EXPECT_EQ(probed->first, 2);
  EXPECT_EQ(probed->second, 9);
  EXPECT_EQ(box.size(), 1u);
}

// ---- timed receives ---------------------------------------------------------

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

TEST(MailboxTest, RecvForZeroOrNegativeDegeneratesToTryRecv) {
  Mailbox box;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(box.recv_for(0.0).has_value());
  EXPECT_FALSE(box.recv_for(-1.0).has_value());
  EXPECT_LT(seconds_since(t0), 1.0);  // no wait at all
  box.push(Message{1, 4, {}});
  const auto m = box.recv_for(0.0, kAnySource, 4);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->tag, 4);
}

TEST(MailboxTest, RecvForTimesOutEmptyHanded) {
  Mailbox box;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(box.recv_for(0.05).has_value());
  EXPECT_GE(seconds_since(t0), 0.04);  // waited (almost) the full budget
}

TEST(MailboxTest, NonMatchingArrivalsDoNotShortenTheWait) {
  // Spurious wakeups: pushes that fail the filter must send the receiver
  // back to sleep until the original deadline, not end the wait early.
  Mailbox box;
  std::thread producer([&box] {
    for (int i = 0; i < 3; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      box.push(Message{0, /*tag=*/1, {}});
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(box.recv_for(0.15, kAnySource, /*tag=*/2).has_value());
  EXPECT_GE(seconds_since(t0), 0.12);
  producer.join();
  EXPECT_EQ(box.size(), 3u);  // the mismatches stayed queued
}

TEST(MailboxTest, RecvForWakesOnMatchingConcurrentPush) {
  Mailbox box;
  std::thread producer([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.push(Message{3, /*tag=*/1, {}});  // decoy first...
    box.push(Message{3, /*tag=*/2, {}});  // ...then the match
  });
  const auto t0 = std::chrono::steady_clock::now();
  const auto m = box.recv_for(30.0, kAnySource, /*tag=*/2);
  producer.join();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->tag, 2);
  EXPECT_LT(seconds_since(t0), 10.0);  // long before the deadline
}

TEST(MailboxTest, FilteredRecvForDrainsOnlyMatchesUnderContention) {
  Mailbox box;
  constexpr int kEach = 50;
  std::thread producer([&box] {
    for (int i = 0; i < kEach; ++i) {
      box.push(Message{1, /*tag=*/1, {}});
      box.push(Message{1, /*tag=*/2, {std::byte(i)}});
    }
  });
  for (int i = 0; i < kEach; ++i) {
    const auto m = box.recv_for(30.0, kAnySource, /*tag=*/2);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->tag, 2);
    EXPECT_EQ(m->payload[0], std::byte(i));  // per-sender FIFO within the tag
  }
  producer.join();
  EXPECT_EQ(box.size(), static_cast<std::size_t>(kEach));  // tag-1 leftovers
}

// ---- poisoning --------------------------------------------------------------

TEST(MailboxTest, PoisonDrainsQueuedMessagesBeforeThrowing) {
  Mailbox box;
  box.push(Message{1, 7, {}});
  box.poison();
  EXPECT_EQ(box.recv(1, 7).tag, 7);  // queued traffic still delivered
  EXPECT_THROW(box.recv(), pph::mp::WorldAborted);
  EXPECT_THROW(box.recv_for(10.0), pph::mp::WorldAborted);
  EXPECT_FALSE(box.try_recv().has_value());  // non-blocking calls unaffected
  EXPECT_FALSE(box.probe().has_value());
}

TEST(WorldTest, RankAndSizeVisible) {
  std::atomic<int> sum{0};
  World::run(4, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 4);
    sum += comm.rank();
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3);
}

TEST(WorldTest, PingPong) {
  World::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      Packer p;
      p.write(123);
      comm.send(1, 5, p);
      const Message reply = comm.recv(1, 6);
      Unpacker u(reply.payload);
      EXPECT_EQ(u.read<int>(), 124);
    } else {
      const Message m = comm.recv(0, 5);
      Unpacker u(m.payload);
      Packer p;
      p.write(u.read<int>() + 1);
      comm.send(0, 6, p);
    }
  });
}

TEST(WorldTest, AllToRootGather) {
  constexpr int kRanks = 6;
  std::vector<int> received;
  World::run(kRanks, [&received](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 1; i < kRanks; ++i) {
        const Message m = comm.recv();
        Unpacker u(m.payload);
        received.push_back(u.read<int>());
      }
    } else {
      Packer p;
      p.write(comm.rank() * 10);
      comm.send(0, 0, p);
    }
  });
  EXPECT_EQ(received.size(), kRanks - 1u);
  EXPECT_EQ(std::accumulate(received.begin(), received.end(), 0), 10 + 20 + 30 + 40 + 50);
}

TEST(WorldTest, BarrierSynchronizes) {
  constexpr int kRanks = 5;
  std::atomic<int> before{0}, after_min_check{0};
  World::run(kRanks, [&](Comm& comm) {
    ++before;
    comm.barrier();
    // After the barrier every rank must observe all arrivals.
    if (before.load() == kRanks) ++after_min_check;
    comm.barrier();
  });
  EXPECT_EQ(after_min_check.load(), kRanks);
}

TEST(WorldTest, ExceptionPropagatesToCaller) {
  EXPECT_THROW(World::run(3,
                          [](Comm& comm) {
                            if (comm.rank() == 1) throw std::runtime_error("rank died");
                            // Other ranks finish normally.
                          }),
               std::runtime_error);
}

// One rank's exception must not leave its siblings blocked: the world is
// poisoned, every parked recv/recv_for/barrier throws WorldAborted, the
// join completes, and the ORIGINAL exception (std::logic_error here, which
// WorldAborted -- a runtime_error -- can never satisfy) is what the caller
// sees.  Before poisoning, each of these tests deadlocked.

TEST(WorldTest, ExceptionUnblocksSiblingBlockedInRecv) {
  EXPECT_THROW(World::run(3,
                          [](Comm& comm) {
                            if (comm.rank() == 1) throw std::logic_error("boom");
                            if (comm.rank() == 2) comm.recv();  // nobody will send
                          }),
               std::logic_error);
}

TEST(WorldTest, ExceptionUnblocksSiblingBlockedInTimedRecv) {
  EXPECT_THROW(World::run(2,
                          [](Comm& comm) {
                            if (comm.rank() == 1) throw std::logic_error("boom");
                            while (!comm.recv_for(60.0).has_value()) {
                            }
                          }),
               std::logic_error);
}

TEST(WorldTest, ExceptionUnblocksSiblingsParkedOnBarrier) {
  EXPECT_THROW(World::run(3,
                          [](Comm& comm) {
                            if (comm.rank() == 1) throw std::logic_error("boom");
                            comm.barrier();  // rank 1 never arrives
                          }),
               std::logic_error);
}

TEST(WorldTest, CompletedBarrierWinsOverConcurrentPoison) {
  // All ranks arrive at the barrier, THEN one throws: the completed barrier
  // must have released everyone (no spurious WorldAborted for survivors).
  std::atomic<int> released{0};
  EXPECT_THROW(World::run(4,
                          [&](Comm& comm) {
                            comm.barrier();
                            ++released;
                            if (comm.rank() == 2) throw std::logic_error("late");
                          }),
               std::logic_error);
  EXPECT_EQ(released.load(), 4);
}

TEST(WorldTest, StressManyMessages) {
  constexpr int kRanks = 4;
  constexpr int kPerRank = 500;
  std::atomic<long> total{0};
  World::run(kRanks, [&](Comm& comm) {
    if (comm.rank() == 0) {
      long sum = 0;
      for (int i = 0; i < (kRanks - 1) * kPerRank; ++i) {
        const Message m = comm.recv();
        Unpacker u(m.payload);
        sum += u.read<int>();
      }
      total = sum;
    } else {
      for (int i = 0; i < kPerRank; ++i) {
        Packer p;
        p.write(i);
        comm.send(0, 0, p);
      }
    }
  });
  const long expected = static_cast<long>(kRanks - 1) * (kPerRank * (kPerRank - 1) / 2);
  EXPECT_EQ(total.load(), expected);
}

TEST(WorldTest, InvalidDestinationThrows) {
  EXPECT_THROW(World::run(1, [](Comm& comm) { comm.send(5, 0, std::vector<std::byte>{}); }), std::out_of_range);
}

}  // namespace
