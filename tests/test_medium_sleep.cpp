// Sleep contract of SharedMedium (DESIGN.md §5e "Shared media sleep"): under
// the activity kernel a medium skips the evals that would only move the
// token and count token-wait cycles — serialization gaps, token walks past
// writers whose head cannot start, heads parked on reader VCs — and
// reconstructs the token and its counters in closed form. Each scenario runs
// the same scripted writers and readers under lockstep and activity and must
// produce the same grants (cycle, writer == token holder), deliveries and
// counters, read after every slice of the run, with fewer medium evals.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <tuple>
#include <vector>

#include "network/shared_medium.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace ownsim {
namespace {

struct Packet {
  Cycle at = 0;    ///< first cycle its writer may send the head
  int writer = 0;
  int vc_class = 0;
  int reader = 0;  ///< carried in dst_router; select_reader maps it back
  int flits = 4;
};

struct Scenario {
  SharedMedium::Params params;
  std::vector<Packet> packets;
  Cycle credit_delay = 1;       ///< cycles a reader holds a flit's credit
  Cycle credit_hold_until = 0;  ///< no credit returns before this cycle
  Cycle set_cpf_at = -1;        ///< set_cycles_per_flit(new_cpf) then
  int new_cpf = 1;
  Cycle lose_token_at = -1;     ///< lose_token, recovered after the delay
  Cycle recover_after = 0;
  Cycle cycles = 600;
  Cycle slice = 37;             ///< counters are compared after each slice
};

struct Outcome {
  std::vector<std::pair<Cycle, std::string>> grants;  ///< (cycle, writer)
  std::vector<std::tuple<Cycle, int, PacketId, int>> deliveries;
  std::vector<std::int64_t> token_waits;  ///< after each slice
  std::vector<std::int64_t> arb_retries;  ///< after each slice
  std::int64_t flits = 0;
  std::int64_t evals = 0;
};

/// Plays every writer and reader router: evaluated every cycle, before the
/// medium (as routers are), one flit per writer per cycle.
struct Routers final : Clocked {
  SharedMedium* medium = nullptr;
  std::vector<std::deque<Packet>> queues;  ///< per writer
  std::vector<int> sent;                   ///< flits of the front packet sent
  std::vector<VcId> lane;                  ///< per writer: lane of the front
  struct Credit {
    Cycle due;
    int reader;
    VcId vc;
  };
  std::deque<Credit> credits;
  Scenario scenario;
  Outcome* out = nullptr;
  PacketId next_id = 0;

  void eval(Cycle now) override {
    for (std::size_t w = 0; w < queues.size(); ++w) send(static_cast<int>(w), now);
    for (int r = 0; r < medium->params().num_readers; ++r) {
      InputEndpoint* in = medium->reader(r);
      const Flit* flit = in->poll(now);
      if (flit == nullptr) continue;
      out->deliveries.emplace_back(now, r, flit->packet, flit->seq);
      credits.push_back({std::max(now + scenario.credit_delay,
                                  scenario.credit_hold_until),
                         r, flit->vc});
      in->pop(now);
    }
    // Return due credits in order (due cycles are not monotone).
    for (auto it = credits.begin(); it != credits.end();) {
      if (it->due > now) {
        ++it;
        continue;
      }
      medium->reader(it->reader)->push_credit(it->vc, now);
      it = credits.erase(it);
    }
  }

  void send(int w, Cycle now) {
    auto& queue = queues[static_cast<std::size_t>(w)];
    if (queue.empty() || queue.front().at > now) return;
    const Packet& p = queue.front();
    OutputEndpoint* wr = medium->writer(w);
    int& n = sent[static_cast<std::size_t>(w)];
    VcId& vc = lane[static_cast<std::size_t>(w)];
    if (n == 0 && vc == kInvalidId) {
      vc = wr->alloc_vc(p.vc_class, now);
      if (vc == kInvalidId) return;
    }
    Flit flit;
    flit.packet = next_id + w * 1000;
    flit.vc = vc;
    flit.vc_class = static_cast<std::int8_t>(p.vc_class);
    flit.dst_router = p.reader;
    flit.head = n == 0;
    flit.tail = n == p.flits - 1;
    flit.seq = static_cast<std::int16_t>(n);
    if (!wr->can_accept(flit, now)) return;
    wr->accept(flit, now);
    if (++n == p.flits) {
      n = 0;
      vc = kInvalidId;
      queue.pop_front();
      ++next_id;
    }
  }
  void commit(Cycle) override {}
};

/// Fault and adaptation actions, registered after the medium like the fault
/// campaign and the adaptation controller.
struct Late final : Clocked {
  SharedMedium* medium = nullptr;
  Scenario scenario;
  void eval(Cycle now) override {
    if (now == scenario.set_cpf_at) {
      medium->set_cycles_per_flit(scenario.new_cpf);
    }
    if (now == scenario.lose_token_at) {
      medium->lose_token(now, now + scenario.recover_after);
      medium->request_wake(now + 1);
    }
  }
  void commit(Cycle) override {}
};

Outcome run(const Scenario& scenario, KernelMode mode) {
  const std::vector<VcClassRange> classes = {{0, 2}, {2, 2}};
  SharedMedium::Params params = scenario.params;
  params.select_reader = [](NodeId, RouterId dst_router) {
    return static_cast<int>(dst_router);
  };
  SharedMedium medium(params, &classes);
  obs::Registry registry;
  medium.bind_obs(registry);
  obs::TraceWriter trace;
  medium.set_trace(&trace, 0);

  Outcome out;
  Routers routers;
  routers.medium = &medium;
  routers.scenario = scenario;
  routers.out = &out;
  const auto writers = static_cast<std::size_t>(params.num_writers);
  routers.queues.resize(writers);
  routers.sent.assign(writers, 0);
  routers.lane.assign(writers, kInvalidId);
  for (const Packet& p : scenario.packets) {
    routers.queues[static_cast<std::size_t>(p.writer)].push_back(p);
  }
  Late late;
  late.medium = &medium;
  late.scenario = scenario;

  Engine engine;
  engine.set_mode(mode);
  engine.add(&routers);
  engine.add(&medium);
  engine.add(&late);
  const std::string prefix = "medium." + params.name + ".";
  for (Cycle done = 0; done < scenario.cycles; done += scenario.slice) {
    engine.run(scenario.slice);
    out.token_waits.push_back(medium.counters().token_wait_cycles);
    out.arb_retries.push_back(registry.value(prefix + "arb_retries"));
  }
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.name != "grant") continue;
    out.grants.emplace_back(e.ts, e.args.at(0).second);
  }
  out.flits = medium.counters().flits;
  out.evals = medium.evals();
  return out;
}

SharedMedium::Params medium_params(int writers, int readers, int cpf) {
  SharedMedium::Params params;
  params.num_writers = writers;
  params.num_readers = readers;
  params.cycles_per_flit = cpf;
  params.latency = 2;
  params.num_vcs = 4;
  params.buffer_depth = 4;
  params.max_packet_flits = 4;
  params.name = "m";
  return params;
}

/// Runs `scenario` under both kernels and checks they agree; returns the
/// activity outcome.
Outcome expect_lockstep_identical(const Scenario& scenario) {
  const Outcome lockstep = run(scenario, KernelMode::kLockstep);
  const Outcome activity = run(scenario, KernelMode::kActivity);
  EXPECT_FALSE(lockstep.grants.empty());
  EXPECT_EQ(activity.grants, lockstep.grants);
  EXPECT_EQ(activity.deliveries, lockstep.deliveries);
  EXPECT_EQ(activity.token_waits, lockstep.token_waits);
  EXPECT_EQ(activity.arb_retries, lockstep.arb_retries);
  EXPECT_EQ(activity.flits, lockstep.flits);
  EXPECT_LT(activity.evals, lockstep.evals) << "the medium never slept";
  return activity;
}

/// Sparse packets from a few of many writers: the token walks past empty
/// writers to reach a staged one.
TEST(MediumSleep, TokenWalksPastEmptyWriters) {
  Scenario s;
  s.params = medium_params(12, 1, 1);
  for (int i = 0; i < 12; ++i) {
    s.packets.push_back({5 + 23 * i, (7 * i) % 12, i % 2, 0, 1 + i % 4});
    s.packets.push_back({9 + 31 * i, (5 * i + 3) % 12, 0, 0, 4});
  }
  const Outcome out = expect_lockstep_identical(s);
  EXPECT_GT(out.token_waits.back(), 0);
}

/// Readers keep their credits until cycle 200: staged heads park on a
/// reader VC, then a returning credit lets the nearest one start.
TEST(MediumSleep, HeadBlockedOnReaderVcStartsWhenCreditArrives) {
  Scenario s;
  s.params = medium_params(6, 2, 1);
  s.params.buffer_depth = 2;
  s.credit_hold_until = 200;
  s.credit_delay = 5;
  // Two-flit packets use up a reader VC's two credits each.
  for (int i = 0; i < 16; ++i) {
    s.packets.push_back({3 * i, i % 6, i % 2, (i / 2) % 2, 2});
  }
  const Outcome out = expect_lockstep_identical(s);
  EXPECT_GT(out.arb_retries.back(), 100);
}

TEST(MediumSleep, SerializationGapsAtFourAndEightCyclesPerFlit) {
  for (const int cpf : {4, 8}) {
    SCOPED_TRACE(cpf);
    Scenario s;
    s.params = medium_params(5, 2, cpf);
    s.cycles = 900;
    for (int i = 0; i < 20; ++i) {
      s.packets.push_back({2 * i, (3 * i) % 5, i % 2, i % 2, 4});
    }
    expect_lockstep_identical(s);
  }
}

/// The rate changes while a packet is on the bus: the launch already
/// scheduled keeps its slot, later ones use the new serialization.
TEST(MediumSleep, CyclesPerFlitChangedMidPacket) {
  for (const int to : {1, 7}) {
    SCOPED_TRACE(to);
    Scenario s;
    s.params = medium_params(4, 1, 4);
    s.set_cpf_at = 42;
    s.new_cpf = to;
    for (int i = 0; i < 10; ++i) s.packets.push_back({7 * i, i % 4, 0, 0, 4});
    expect_lockstep_identical(s);
  }
}

/// The token is lost while packets wait and regenerated at writer 0.
TEST(MediumSleep, LostTokenFreezesThenRecovers) {
  for (const Cycle lose_at : {Cycle{30}, Cycle{61}}) {
    SCOPED_TRACE(lose_at);
    Scenario s;
    s.params = medium_params(8, 1, 2);
    s.lose_token_at = lose_at;
    s.recover_after = 45;
    for (int i = 0; i < 14; ++i) {
      s.packets.push_back({4 * i, (3 * i + 1) % 8, i % 2, 0, 3});
    }
    expect_lockstep_identical(s);
  }
}

/// Zero-cost arbitration has no token: it only parks, while every staged
/// head is blocked on a reader VC.
TEST(MediumSleep, IdealArbitrationParksOnReaderVcs) {
  Scenario s;
  s.params = medium_params(7, 2, 2);
  s.params.arbitration = ArbitrationKind::kIdeal;
  s.params.buffer_depth = 2;
  s.credit_delay = 9;
  for (int i = 0; i < 24; ++i) {
    s.packets.push_back({2 * i, (5 * i) % 7, i % 2, i % 2, 1 + i % 4});
  }
  expect_lockstep_identical(s);
}

}  // namespace
}  // namespace ownsim
