// Wake contract of the output endpoints (endpoints.hpp): after can_accept
// refused a waiter, the endpoint wakes it no later than the first cycle
// can_accept could return true — exactly then for Channel::Sender and
// SharedMedium::Writer — and each registration fires at most once.
//
// Each test registers, in network order, a scripted "upstream" probe that
// drives the endpoint (it stands in for the router: always dormant, so it
// runs only when woken), an always-active watcher that records which cycles
// the endpoint would accept (seen from a component evaluated before channels
// and media, like every router), and then the channel or medium itself.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "network/channel.hpp"
#include "network/shared_medium.hpp"
#include "sim/engine.hpp"

namespace ownsim {
namespace {

/// Runs `script(now)` on each eval and records the cycle; always dormant.
struct Probe final : Clocked {
  std::function<void(Cycle)> script;
  std::vector<Cycle> evals;
  void eval(Cycle now) override {
    evals.push_back(now);
    if (script) script(now);
  }
  void commit(Cycle) override {}
  bool is_idle() const override { return true; }
};

/// Records every cycle on which `ready(now)` held; evaluated every cycle.
struct Watcher final : Clocked {
  std::function<bool(Cycle)> ready;
  std::vector<Cycle> ready_at;
  void eval(Cycle now) override {
    if (ready(now)) ready_at.push_back(now);
  }
  void commit(Cycle) override {}
};

/// First cycle in `cycles` that is >= `from`, or kNeverCycle.
Cycle first_from(const std::vector<Cycle>& cycles, Cycle from) {
  for (const Cycle c : cycles) {
    if (c >= from) return c;
  }
  return kNeverCycle;
}

Flit flit_on(VcId vc, bool head, bool tail) {
  Flit flit;
  flit.vc = vc;
  flit.head = head;
  flit.tail = tail;
  return flit;
}

TEST(OutputWake, ChannelSenderWakesWhenSerializationEnds) {
  const std::vector<VcClassRange> classes = {{0, 2}};
  Channel channel(MediumType::kElectrical, 1, /*cycles_per_flit=*/4, 2, 8,
                  Length{}, &classes, "slow");
  OutputEndpoint* out = channel.out();
  Engine engine;
  engine.set_mode(KernelMode::kActivity);
  Probe up;
  Watcher watch;
  Flit next = flit_on(0, false, false);
  up.script = [&](Cycle now) {
    if (now != 0) return;
    next.vc = out->alloc_vc(0, now);
    out->accept(flit_on(next.vc, true, false), now);
    ASSERT_FALSE(out->can_accept(next, now));
    out->wake_when_ready(&up, now);
  };
  watch.ready = [&](Cycle now) { return out->can_accept(next, now); };
  engine.add(&up);
  engine.add(&watch);
  engine.add(&channel);
  engine.run(12);
  ASSERT_EQ(first_from(watch.ready_at, 1), 4);
  EXPECT_EQ(up.evals, (std::vector<Cycle>{0, 4}));
}

TEST(OutputWake, ChannelSenderWakesOnceOnCreditAbsorption) {
  // One VC, two buffer slots: two flits exhaust the credits.
  const std::vector<VcClassRange> classes = {{0, 1}};
  Channel channel(MediumType::kElectrical, 1, 1, 1, /*buffer_depth=*/2,
                  Length{}, &classes, "cr");
  OutputEndpoint* out = channel.out();
  InputEndpoint* in = channel.in();
  Engine engine;
  engine.set_mode(KernelMode::kActivity);
  Probe up;
  Probe down;
  Watcher watch;
  const Flit body = flit_on(0, false, false);
  up.script = [&](Cycle now) {
    if (now == 0) {
      ASSERT_EQ(out->alloc_vc(0, now), 0);
      out->accept(flit_on(0, true, false), now);
      up.request_wake(1);
    } else if (now == 1) {
      out->accept(body, now);  // last credit
    }
    // Refused: at cycle 1 by serialization (woken at 2), at 2 by credits
    // (remembered). Later wakes do not register again.
    if (now <= 2) {
      ASSERT_FALSE(out->can_accept(body, now));
      out->wake_when_ready(&up, now);
    }
  };
  // The downstream side frees one slot at 10 and another at 15.
  down.script = [&](Cycle now) {
    if (now != 10 && now != 15) return;
    in->pop(now);
    in->push_credit(0, now);
  };
  watch.ready = [&](Cycle now) { return out->can_accept(body, now); };
  engine.add(&up);
  engine.add(&down);
  engine.add(&watch);
  engine.add(&channel);
  down.request_wake(10);
  down.request_wake(15);
  engine.run(30);
  const Cycle ready = first_from(watch.ready_at, 3);
  ASSERT_EQ(ready, 12);  // credit returned at 10, absorbed at 11
  // Woken exactly when the credit becomes visible, and only once: the
  // second absorption (at 16) finds no registration and wakes nobody.
  EXPECT_EQ(up.evals, (std::vector<Cycle>{0, 1, 2, 12}));
  EXPECT_EQ(down.evals, (std::vector<Cycle>{0, 10, 15}));
}

TEST(OutputWake, ChannelWakesNobodyWithoutRegistration) {
  const std::vector<VcClassRange> classes = {{0, 1}};
  Channel channel(MediumType::kElectrical, 1, 2, 1, 1, Length{}, &classes,
                  "quiet");
  OutputEndpoint* out = channel.out();
  InputEndpoint* in = channel.in();
  Engine engine;
  engine.set_mode(KernelMode::kActivity);
  Probe up;
  Probe down;
  up.script = [&](Cycle now) {
    out->alloc_vc(0, now);
    out->accept(flit_on(0, true, true), now);
    EXPECT_FALSE(out->can_accept(flit_on(0, true, true), now));
  };
  down.script = [&](Cycle now) {
    if (now != 5) return;
    in->pop(now);
    in->push_credit(0, now);
  };
  engine.add(&up);
  engine.add(&down);
  engine.add(&channel);
  down.request_wake(5);
  engine.run(20);
  EXPECT_EQ(up.evals, (std::vector<Cycle>{0}));
}

/// Two writers, one reader, two-flit writer staging, token ring.
SharedMedium::Params two_writer_medium() {
  SharedMedium::Params params;
  params.medium = MediumType::kPhotonic;
  params.num_writers = 2;
  params.num_readers = 1;
  params.num_vcs = 2;
  params.buffer_depth = 8;
  params.max_packet_flits = 2;
  params.name = "wg";
  return params;
}

TEST(OutputWake, MediumWriterWakesOnceOnStagingPop) {
  const std::vector<VcClassRange> classes = {{0, 2}};
  SharedMedium medium(two_writer_medium(), &classes);
  OutputEndpoint* w0 = medium.writer(0);
  OutputEndpoint* w1 = medium.writer(1);
  Engine engine;
  engine.set_mode(KernelMode::kActivity);
  Probe up;     // registers on writer 0
  Probe other;  // sends a packet on writer 1 but never registers
  Watcher watch;
  const Flit tail = flit_on(0, false, true);
  Cycle woken = kNeverCycle;
  up.script = [&](Cycle now) {
    if (now == 0) {
      const VcId lane = w0->alloc_vc(0, now);
      w0->accept(flit_on(lane, true, false), now);
      w0->accept(flit_on(lane, false, false), now);  // staging now full
      ASSERT_FALSE(w0->can_accept(tail, now));
      w0->wake_when_ready(&up, now);
    } else if (woken == kNeverCycle) {
      // First wake: come back later to finish the packet, without
      // registering again.
      woken = now;
      up.request_wake(now + 10);
    } else {
      w0->accept(tail, now);
    }
  };
  other.script = [&](Cycle now) {
    if (now != 0) return;
    const VcId lane = w1->alloc_vc(0, now);
    w1->accept(flit_on(lane, true, false), now);
    w1->accept(flit_on(lane, false, true), now);
  };
  watch.ready = [&](Cycle now) { return w0->can_accept(tail, now); };
  engine.add(&up);
  engine.add(&other);
  engine.add(&watch);
  engine.add(&medium);
  engine.run(60);
  ASSERT_FALSE(watch.ready_at.empty());
  const Cycle ready = watch.ready_at.front();
  ASSERT_GT(ready, 1);
  // Woken on the cycle after the first pop of its staging — the first cycle
  // it can accept — and not by the second pop, one cycle later.
  EXPECT_EQ(woken, ready);
  EXPECT_EQ(up.evals, (std::vector<Cycle>{0, ready, ready + 10}));
  // Writer 1's staging drains too, and wakes nobody.
  EXPECT_EQ(other.evals, (std::vector<Cycle>{0}));
  EXPECT_EQ(medium.counters().flits, 5);
}

}  // namespace
}  // namespace ownsim
