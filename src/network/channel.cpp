#include "network/channel.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "fault/protocol.hpp"
#include "obs/trace.hpp"

namespace ownsim {

Channel::Channel(MediumType medium, int latency, int cycles_per_flit,
                 int num_vcs, int buffer_depth, Length distance,
                 const std::vector<VcClassRange>* classes, std::string name)
    : medium_(medium),
      latency_(latency),
      cycles_per_flit_(cycles_per_flit),
      distance_(distance),
      classes_(classes),
      name_(std::move(name)),
      credits_(static_cast<std::size_t>(num_vcs), buffer_depth),
      vc_busy_(static_cast<std::size_t>(num_vcs), false),
      rr_next_(classes != nullptr ? classes->size() : 1, 0) {
  if (latency < 1) throw std::invalid_argument("Channel: latency must be >= 1");
  if (cycles_per_flit < 1) {
    throw std::invalid_argument("Channel: cycles_per_flit must be >= 1");
  }
  if (num_vcs < 1 || buffer_depth < 1) {
    throw std::invalid_argument("Channel: need >=1 VC and >=1 buffer slot");
  }
  if (classes_ == nullptr) {
    throw std::invalid_argument("Channel: classes must not be null");
  }
}

VcId Channel::Sender::alloc_vc(int vc_class, Cycle /*now*/) {
  auto& ch = *channel;
  const auto& cls = (*ch.classes_).at(static_cast<std::size_t>(vc_class));
  // Round-robin over the class's VC range for fairness across packets.
  int& rr = ch.rr_next_[static_cast<std::size_t>(vc_class)];
  for (int i = 0; i < cls.count; ++i) {
    const VcId vc = cls.first + (rr + i) % cls.count;
    if (!ch.vc_busy_[vc]) {
      ch.vc_busy_[vc] = true;
      rr = (rr + i + 1) % cls.count;
      return vc;
    }
  }
  return kInvalidId;
}

bool Channel::Sender::can_accept(const Flit& flit, Cycle now) const {
  const auto& ch = *channel;
  assert(flit.vc >= 0 && flit.vc < ch.num_vcs());
  return now >= ch.next_free_ && ch.credits_[flit.vc] > 0;
}

void Channel::Sender::wake_when_ready(Waiter waiter, Cycle now) {
  auto& ch = *channel;
  // Serialization frees at a known cycle; a credit frees when eval absorbs
  // it, and the upstream component (evaluated before channels every cycle)
  // sees it from the next cycle on.
  if (now < ch.next_free_) {
    waiter.wake(ch.next_free_);
  } else {
    ch.credit_waiter_ = waiter;
  }
}

void Channel::Sender::accept(const Flit& flit, Cycle now) {
  auto& ch = *channel;
  assert(can_accept(flit, now));
  ch.credit_waiter_ = {};
  Timed timed{flit, now + ch.latency_};
  if (ch.fault_ != nullptr) ch.apply_fault_on_accept(timed);
  ch.staged_flits_.push_back(timed);
  // Quiescence contract: the staged flit must latch this cycle even if the
  // channel is dormant, and whoever polls the far end must be awake when the
  // flit completes the pipe.
  ch.request_commit();
  if (ch.sink_ != nullptr) ch.sink_->request_wake(timed.arrival);
  ch.next_free_ = now + ch.cycles_per_flit_;
  --ch.credits_[flit.vc];
  if (flit.tail) ch.vc_busy_[flit.vc] = false;
  ++ch.counters_.flits;
  ch.counters_.bits += flit.size_bits;
  ch.obs_flits_.inc();
  if (ch.trace_ != nullptr) ch.note_busy(now);
}

void Channel::bind_obs(obs::Registry& registry) {
  obs_flits_ = registry.counter("link." + name_ + ".flits");
}

// ---- runtime fault model ----------------------------------------------------

void Channel::set_fault_model(const fault::Protocol* protocol, Rng rng,
                              obs::Registry* registry) {
  if (protocol != nullptr && latency_ < 2) {
    // The CRC interception window (eval at arrival-1, see eval()) needs the
    // channel evaluating at least one full cycle before the receiver polls.
    throw std::invalid_argument(
        "Channel::set_fault_model: fault-protected links need latency >= 2");
  }
  if (protocol != nullptr && protocol->ack_timeout < 2) {
    throw std::invalid_argument(
        "Channel::set_fault_model: ack_timeout must cover a round trip (>=2)");
  }
  fault_ = protocol;
  fault_rng_ = rng;
  if (registry != nullptr) {
    // Registry names are shared across channels on purpose: the slots
    // aggregate network-wide (obs registration is idempotent).
    obs_crc_errors_ = registry->counter("fault.crc_errors");
    obs_retransmissions_ = registry->counter("fault.retransmissions");
  }
}

void Channel::set_cycles_per_flit(int cycles_per_flit) {
  if (cycles_per_flit < 1) {
    throw std::invalid_argument("Channel: cycles_per_flit must be >= 1");
  }
  cycles_per_flit_ = cycles_per_flit;
}

double Channel::flit_error_p(std::uint32_t bits) const {
  if (live_ber_ >= 0.0) return fault::flit_error_rate(live_ber_, bits);
  return fault_->flit_error_rate(bits);
}

void Channel::apply_fault_on_accept(Timed& timed) {
  if (dying_) {
    // Every copy on a dead channel is lost; the flit completes only after
    // the exhausted retransmission sequence (never dropped: wormhole bodies
    // must follow their head, and "zero packets lost" is the contract the
    // persistent-failure detector builds on).
    timed.arrival += fault_->exhausted_delay();
    timed.attempts = fault_->max_attempts;
    fault_counters_.crc_errors += fault_->max_attempts;
    fault_counters_.retransmissions += fault_->max_attempts;
    obs_crc_errors_.add(fault_->max_attempts);
    obs_retransmissions_.add(fault_->max_attempts);
    return;
  }
  if (fault_rng_.uniform() < flit_error_p(timed.flit.size_bits)) {
    timed.flit.crc_error = true;
    ++fault_counters_.crc_errors;
    obs_crc_errors_.inc();
  }
}

void Channel::set_outage(Cycle until, Cycle now) {
  if (until <= now) return;
  // Sender side: nothing launches before the channel comes back up.
  next_free_ = std::max(next_free_, until);
  // Copies in flight are lost to the outage and retransmitted once the
  // channel restores: first re-arrival a full pipe latency after `until`,
  // then FIFO serialization spacing. Copies the receiver already latched
  // (arrival <= now) are untouched.
  Cycle next_arrival = until + latency_;
  const auto push_out = [&](Timed& t) {
    if (t.arrival > now && t.arrival < next_arrival) {
      t.arrival = next_arrival;
      ++fault_counters_.retransmissions;
      obs_retransmissions_.inc();
      if (sink_ != nullptr) sink_->request_wake(t.arrival);
    }
    next_arrival = std::max(next_arrival, t.arrival + cycles_per_flit_);
  };
  for (auto& t : flit_pipe_) push_out(t);
  for (auto& t : staged_flits_) push_out(t);
}

void Channel::set_dying(Cycle now) {
  if (fault_ == nullptr) {
    throw std::logic_error("Channel::set_dying: no fault model attached");
  }
  if (dying_) return;
  dying_ = true;
  const Cycle penalty = fault_->exhausted_delay();
  const auto strand = [&](Timed& t) {
    if (t.arrival <= now) return;  // already latched by the receiver
    t.arrival += penalty;
    t.attempts = fault_->max_attempts;
    t.flit.crc_error = false;  // the penalty is final; no further NACK loop
    fault_counters_.crc_errors += fault_->max_attempts;
    fault_counters_.retransmissions += fault_->max_attempts;
    obs_crc_errors_.add(fault_->max_attempts);
    obs_retransmissions_.add(fault_->max_attempts);
    if (sink_ != nullptr) sink_->request_wake(t.arrival);
  };
  for (auto& t : flit_pipe_) strand(t);
  for (auto& t : staged_flits_) strand(t);
}

void Channel::dump_state(std::ostream& os) const {
  const auto line = [&](const Timed& t, const char* where) {
    os << "link " << name_ << ' ' << where << " pkt=" << t.flit.packet
       << " seq=" << t.flit.seq << " arrival=" << t.arrival
       << " attempts=" << t.attempts << (t.flit.crc_error ? " CRC" : "")
       << '\n';
  };
  for (const Timed& t : flit_pipe_) line(t, "pipe");
  for (const Timed& t : staged_flits_) line(t, "staged");
  for (const TimedCredit& c : credit_pipe_) {
    os << "link " << name_ << " credit vc=" << c.vc << " arrival=" << c.arrival
       << '\n';
  }
}

void Channel::set_trace(obs::TraceWriter* trace, int tid) {
  trace_ = trace;
  trace_tid_ = tid;
  busy_start_ = -1;
  busy_end_ = 0;
}

void Channel::note_busy(Cycle now) {
  if (busy_start_ < 0) {
    busy_start_ = now;
  } else if (now > busy_end_) {
    trace_->complete("busy", "link", obs::TraceWriter::kPidLinks, trace_tid_,
                     busy_start_, busy_end_ - busy_start_);
    busy_start_ = now;
  }
  busy_end_ = now + cycles_per_flit_;
}

void Channel::flush_trace() {
  if (trace_ == nullptr || busy_start_ < 0) return;
  trace_->complete("busy", "link", obs::TraceWriter::kPidLinks, trace_tid_,
                   busy_start_, busy_end_ - busy_start_);
  busy_start_ = -1;
}

const Flit* Channel::Receiver::poll(Cycle now) {
  auto& ch = *channel;
  if (ch.flit_pipe_.empty() || ch.flit_pipe_.front().arrival > now) {
    return nullptr;
  }
  return &ch.flit_pipe_.front().flit;
}

void Channel::Receiver::pop(Cycle now) {
  auto& ch = *channel;
  assert(!ch.flit_pipe_.empty());
  ch.flit_pipe_.pop_front();
  // Retransmission pushes arrivals out of FIFO order, so a follower can be
  // past due behind the popped front — its accept-time wake already fired
  // while the front still blocked the pipe. Re-arm the sink, or the activity
  // kernel strands the flit until an unrelated wake (lockstep polls every
  // cycle regardless, so this keeps the kernels bit-identical).
  if (ch.flit_pipe_.empty()) return;
  if (ch.port_sink_ != nullptr) ch.port_sink_->input_pending(ch.sink_port_);
  if (ch.sink_ != nullptr && ch.flit_pipe_.front().arrival <= now) {
    ch.sink_->request_wake(now + 1);
  }
}

void Channel::Receiver::push_credit(VcId vc, Cycle now) {
  channel->staged_credits_.push_back({vc, now + 1});
  // Latch this cycle; the non-empty credit pipe then keeps the channel active
  // until the credit is absorbed at its arrival cycle (no sink wake needed).
  channel->request_commit();
}

void Channel::eval(Cycle now) {
  // Apply credits that have completed their reverse-pipe trip. Doing this in
  // eval (against last cycle's commits) keeps results order-independent.
  while (!credit_pipe_.empty() && credit_pipe_.front().arrival <= now) {
    ++credits_[credit_pipe_.front().vc];
    credit_pipe_.pop_front();
    if (credit_waiter_) {
      credit_waiter_.wake(now + 1);
      credit_waiter_ = {};
    }
  }
  if (fault_ != nullptr) {
    // Receiver-side CRC check, one cycle before each corrupt copy would
    // become pollable: NACK + bounded-backoff retransmission pushes the
    // arrival out and redraws the corruption for the new copy. Scans the
    // whole pipe (not just the front) — a pushed-back front must not strand
    // a corrupt follower with an earlier arrival. The channel is active on
    // every cycle while the pipe is non-empty, so no window is ever missed.
    for (auto& t : flit_pipe_) {
      if (!t.flit.crc_error || t.arrival > now + 1) continue;
      t.arrival = now + 1 + fault_->backoff_delay(t.attempts);
      ++t.attempts;
      ++fault_counters_.retransmissions;
      obs_retransmissions_.inc();
      t.flit.crc_error = t.attempts < fault_->max_attempts &&
                         fault_rng_.uniform() < flit_error_p(t.flit.size_bits);
      if (t.flit.crc_error) {
        ++fault_counters_.crc_errors;
        obs_crc_errors_.inc();
      }
      if (sink_ != nullptr) sink_->request_wake(t.arrival);
    }
  }
}

void Channel::commit(Cycle /*now*/) {
  // Marked here, not at accept: under the parallel kernel a commit never
  // overlaps the NIC's eval, so the mark cannot race its walk (§5i).
  if (port_sink_ != nullptr && !staged_flits_.empty()) {
    port_sink_->input_pending(sink_port_);
  }
  for (auto& t : staged_flits_) flit_pipe_.push_back(std::move(t));
  staged_flits_.clear();
  for (auto& c : staged_credits_) credit_pipe_.push_back(c);
  staged_credits_.clear();
}

}  // namespace ownsim
