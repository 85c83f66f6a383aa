#include "network/shared_medium.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "fault/protocol.hpp"
#include "obs/trace.hpp"

namespace ownsim {

SharedMedium::SharedMedium(Params params, const std::vector<VcClassRange>* classes)
    : params_(std::move(params)),
      classes_(classes),
      staged_writers_(std::max(1, params_.num_writers)) {
  if (classes_ == nullptr) {
    throw std::invalid_argument("SharedMedium: classes must not be null");
  }
  if (params_.num_writers < 1 || params_.num_readers < 1) {
    throw std::invalid_argument("SharedMedium: need >=1 writer and reader");
  }
  if (params_.latency < 1 || params_.cycles_per_flit < 1) {
    throw std::invalid_argument("SharedMedium: latency/serialization >= 1");
  }
  if (!params_.select_reader) {
    if (params_.num_readers == 1) {
      params_.select_reader = [](NodeId, RouterId) { return 0; };
    } else {
      throw std::invalid_argument(
          "SharedMedium: select_reader required with multiple readers");
    }
  }
  const auto depth =
      static_cast<std::size_t>(std::max(1, params_.max_packet_flits));
  flit_slab_ = RingSlab<Flit>(static_cast<std::size_t>(params_.num_writers) *
                              classes_->size() * depth);
  Flit* slots = flit_slab_.slots();
  writers_.resize(static_cast<std::size_t>(params_.num_writers));
  int windex = 0;
  for (auto& w : writers_) {
    w.medium = this;
    w.index = windex++;
    w.per_class.resize(classes_->size());
    for (auto& cls : w.per_class) {
      cls.staging = RingBuffer<Flit>(slots, depth);
      slots += depth;
    }
  }
  readers_.resize(static_cast<std::size_t>(params_.num_readers));
  int index = 0;
  for (auto& r : readers_) {
    r.medium = this;
    r.index = index++;
    r.credits.assign(static_cast<std::size_t>(params_.num_vcs),
                     params_.buffer_depth);
    r.vc_busy.assign(static_cast<std::size_t>(params_.num_vcs), false);
  }
  rr_vc_next_.assign(classes_->size(), 0);
}

OutputEndpoint* SharedMedium::writer(int index) {
  return &writers_.at(static_cast<std::size_t>(index));
}

InputEndpoint* SharedMedium::reader(int index) {
  return &readers_.at(static_cast<std::size_t>(index));
}

void SharedMedium::bind_obs(obs::Registry& registry) {
  const std::string prefix = "medium." + params_.name + ".";
  obs_packets_ = registry.counter(prefix + "packets");
  obs_flits_ = registry.counter(prefix + "flits");
  obs_token_wait_ = registry.counter(prefix + "token_wait_cycles");
  obs_arb_retries_ = registry.counter(prefix + "arb_retries");
  obs_discards_ = registry.counter(prefix + "multicast_discard_flits");
}

void SharedMedium::set_trace(obs::TraceWriter* trace, int tid) {
  trace_ = trace;
  trace_tid_ = tid;
}

void SharedMedium::set_fault_model(const fault::Protocol* protocol, Rng rng,
                                   obs::Registry* registry) {
  fault_ = protocol;
  fault_rng_ = rng;
  if (registry != nullptr) {
    // Shared aggregate slots across all faulty channels and media
    // (registration is idempotent; see obs/counters.hpp).
    obs_crc_errors_ = registry->counter("fault.crc_errors");
    obs_retransmissions_ = registry->counter("fault.retransmissions");
    obs_token_recoveries_ = registry->counter("fault.token_recoveries");
  }
}

void SharedMedium::set_cycles_per_flit(int cycles_per_flit) {
  if (cycles_per_flit < 1) {
    throw std::invalid_argument(
        "SharedMedium: cycles_per_flit must be >= 1");
  }
  params_.cycles_per_flit = cycles_per_flit;
}

void SharedMedium::lose_token(Cycle now, Cycle recover_at) {
  if (params_.arbitration != ArbitrationKind::kTokenRing) {
    throw std::logic_error("SharedMedium::lose_token: medium has no token");
  }
  if (recover_at != kNeverCycle && recover_at <= now) {
    throw std::invalid_argument(
        "SharedMedium::lose_token: recovery must be in the future");
  }
  token_loss_pending_ = true;
  token_lost_until_ = recover_at;
}

// ---- Writer endpoint --------------------------------------------------------

VcId SharedMedium::Writer::alloc_vc(int vc_class, Cycle /*now*/) {
  // The medium assigns the real reader VC at transmission start; the sending
  // router only needs exclusivity over this writer port's class lane.
  ClassStaging& lane = per_class.at(static_cast<std::size_t>(vc_class));
  if (lane.packet_open) return kInvalidId;
  lane.packet_open = true;
  // Return the class id as a pseudo-VC; it rides along in flit.vc so both
  // this endpoint and the medium know the packet's lane.
  return static_cast<VcId>(vc_class);
}

bool SharedMedium::Writer::can_accept(const Flit& flit, Cycle /*now*/) const {
  const ClassStaging& lane = per_class.at(static_cast<std::size_t>(flit.vc));
  if (flit.head) {
    // A head may enter only once the lane fully drained, so a lane never
    // interleaves packets.
    return lane.staged_count == 0;
  }
  return lane.staged_count < static_cast<int>(lane.staging.capacity());
}

void SharedMedium::Writer::wake_when_ready(Waiter w, Cycle /*now*/) {
  // A lane only frees space when eval pops its staging; the writing router
  // (evaluated before media every cycle) sees the pop from the next cycle.
  waiter = w;
}

void SharedMedium::Writer::accept(const Flit& flit, Cycle now) {
  assert(can_accept(flit, now));
  (void)now;
  waiter = {};
  ClassStaging& lane = per_class[static_cast<std::size_t>(flit.vc)];
  if (flit.head) {
    lane.reader = medium->params_.select_reader(flit.dst, flit.dst_router);
  }
  if (lane.staged_in.empty()) {
    MutexLock lock(medium->dirty_mu_);
    medium->dirty_writers_.push_back(index);
  }
  lane.staged_in.push_back(flit);
  ++lane.staged_count;
  if (flit.tail) lane.packet_open = false;
  // Latch this cycle even if the medium is dormant; the merged staging then
  // leaves it non-idle, so it arbitrates from now+1 — when a lockstep medium
  // would first see the flit too.
  medium->request_commit();
}

// ---- Reader endpoint --------------------------------------------------------

const Flit* SharedMedium::Reader::poll(Cycle now) {
  if (delivery.empty() || delivery.front().arrival > now) return nullptr;
  return &delivery.front().flit;
}

void SharedMedium::Reader::pop(Cycle /*now*/) {
  assert(!delivery.empty());
  delivery.pop_front();
}

void SharedMedium::Reader::push_credit(VcId vc, Cycle now) {
  if (staged_credits.empty()) {
    MutexLock lock(medium->dirty_mu_);
    medium->dirty_readers_.push_back(index);
  }
  staged_credits.push_back({vc, now + 1});
  // Latch this cycle. No wake: a dormant medium has nothing to spend credits
  // on, every non-idle eval absorbs all credits due by then first, and a
  // medium sleeping on reader credits wakes when commit merges this one.
  medium->request_commit();
}

// ---- Medium core ------------------------------------------------------------

std::optional<SharedMedium::StartChoice> SharedMedium::choose_start(
    int w) const {
  const Writer& writer = writers_[static_cast<std::size_t>(w)];
  const int num_classes = static_cast<int>(writer.per_class.size());
  for (int k = 0; k < num_classes; ++k) {
    const int cls_idx = (writer.rr_class + k) % num_classes;
    const ClassStaging& lane = writer.per_class[static_cast<std::size_t>(cls_idx)];
    if (lane.staging.empty()) continue;
    assert(lane.staging.front().head &&
           "SharedMedium lane must start with a head flit");
    const Reader& reader = readers_[static_cast<std::size_t>(lane.reader)];
    const VcClassRange& cls = (*classes_)[static_cast<std::size_t>(cls_idx)];
    const int rr = rr_vc_next_[static_cast<std::size_t>(cls_idx)];
    for (int i = 0; i < cls.count; ++i) {
      const VcId vc = cls.first + (rr + i) % cls.count;
      if (!reader.vc_busy[vc] && reader.credits[vc] > 0) {
        return StartChoice{cls_idx, vc};
      }
    }
  }
  return std::nullopt;
}

bool SharedMedium::try_start(int w, Cycle now) {
  const std::optional<StartChoice> choice = choose_start(w);
  if (!choice) return false;
  Writer& writer = writers_[static_cast<std::size_t>(w)];
  const int cls_idx = choice->cls;
  const VcId vc = choice->vc;
  const int reader_idx =
      writer.per_class[static_cast<std::size_t>(cls_idx)].reader;
  const VcClassRange& cls = (*classes_)[static_cast<std::size_t>(cls_idx)];
  readers_[static_cast<std::size_t>(reader_idx)].vc_busy[vc] = true;
  rr_vc_next_[static_cast<std::size_t>(cls_idx)] =
      (vc - cls.first + 1) % cls.count;
  active_ = true;
  active_writer_ = w;
  active_class_ = cls_idx;
  active_reader_ = reader_idx;
  active_vc_ = vc;
  // Serialization carries across packets: the bus is one physical channel,
  // so the next flit slot is whatever the previous transmission left
  // behind, never earlier.
  next_tx_slot_ = std::max(next_tx_slot_, now);
  writer.rr_class =
      (cls_idx + 1) % static_cast<int>(writer.per_class.size());
  ++counters_.packets;
  obs_packets_.inc();
  if (trace_ != nullptr) {
    active_start_ = now;
    trace_->instant("grant", "token", obs::TraceWriter::kPidMedia, trace_tid_,
                    now,
                    {{"writer", std::to_string(w)},
                     {"reader", std::to_string(reader_idx)},
                     {"vc", std::to_string(vc)}});
  }
  return true;
}

void SharedMedium::catch_up(Cycle through) {
  // Every cycle skipped since the last eval would have changed nothing but
  // the token (plan_sleep): an active medium holds it (no change at all); an
  // inactive token ring failed arbitration every cycle, moving the token one
  // writer and, if a packet was staged, counting a token-wait cycle and an
  // arbitration retry. Whether a transfer is active or a packet staged
  // cannot change during the gap — a merge that could ends it — so the
  // state left by the last eval describes every gap cycle.
  const Cycle gap = through - last_eval_;
  if (gap <= 0) return;
  last_eval_ = through;
  if (active_ || params_.arbitration != ArbitrationKind::kTokenRing) return;
  token_ = static_cast<int>((token_ + gap % params_.num_writers) %
                            params_.num_writers);
  if (staged_at_eval_) {
    counters_.token_wait_cycles += gap;
    obs_token_wait_.add(gap);
    obs_arb_retries_.add(gap);
  }
}

void SharedMedium::eval(Cycle now) {
  ++evals_;
  // 0. Catch-up (activity kernel) over the cycles skipped since the last
  //    eval. Gated on scheduled() so manually driven media (unit tests) keep
  //    per-call semantics; under lockstep the gap is always 0.
  if (scheduled()) {
    catch_up(now - 1);
    last_eval_ = now;
  }

  // 0b. Token-loss recovery: the MAC regenerates the token at writer 0 once
  //     the recovery protocol completes. Runs before arbitration so the
  //     recovery cycle itself can grant — identically in both kernels, since
  //     a pending loss forces per-cycle evals (is_idle is false).
  if (token_loss_pending_ && token_lost_until_ != kNeverCycle &&
      now >= token_lost_until_) {
    token_loss_pending_ = false;
    token_ = 0;
    ++counters_.token_recoveries;
    obs_token_recoveries_.inc();
  }

  // 1. Absorb credits returned by reader routers (1-cycle reverse latency).
  for (auto& reader : readers_) {
    while (!reader.credit_pipe.empty() &&
           reader.credit_pipe.front().arrival <= now) {
      ++reader.credits[reader.credit_pipe.front().vc];
      reader.credit_pipe.pop_front();
    }
  }

  // 2. Drive the active transmission: one flit per `cycles_per_flit`,
  //    stalling (token held) when the writer hasn't staged the next flit yet
  //    or the reader is out of credits.
  if (active_) {
    Writer& writer = writers_[static_cast<std::size_t>(active_writer_)];
    ClassStaging& lane =
        writer.per_class[static_cast<std::size_t>(active_class_)];
    Reader& reader = readers_[static_cast<std::size_t>(active_reader_)];
    if (now >= next_tx_slot_ && !lane.staging.empty() &&
        reader.credits[active_vc_] > 0) {
      Flit flit = lane.staging.pop();
      --lane.staged_count;
      if (lane.staging.empty()) {
        --nonempty_stagings_;
        if (std::all_of(writer.per_class.begin(), writer.per_class.end(),
                        [](const ClassStaging& c) {
                          return c.staging.empty();
                        })) {
          staged_writers_.erase(active_writer_);
        }
      }
      if (writer.waiter) {
        writer.waiter.wake(now + 1);
        writer.waiter = {};
      }
      flit.vc = active_vc_;
      // Fault model: the copy may corrupt in transit; the writer retries
      // while holding the token (bus occupied through the NACK round trips),
      // so both the arrival and the next transmit slot slide by the summed
      // backoff. After max_attempts the reception is forced clean — a noisy
      // medium only costs latency, never a flit.
      Cycle retry_delay = 0;
      if (fault_ != nullptr) {
        const double p_flit =
            live_ber_ >= 0.0 ? fault::flit_error_rate(live_ber_, flit.size_bits)
                             : fault_->flit_error_rate(flit.size_bits);
        int attempt = 0;
        while (attempt < fault_->max_attempts &&
               fault_rng_.uniform() < p_flit) {
          retry_delay += fault_->backoff_delay(attempt);
          ++attempt;
        }
        if (attempt > 0) {
          counters_.crc_errors += attempt;
          counters_.retransmissions += attempt;
          obs_crc_errors_.add(attempt);
          obs_retransmissions_.add(attempt);
        }
      }
      const Cycle arrival = now + retry_delay + params_.latency;
      reader.delivery.push_back({flit, arrival});
      if (reader.sink != nullptr) {
        reader.sink->request_wake(arrival);
      }
      --reader.credits[active_vc_];
      next_tx_slot_ = now + retry_delay + params_.cycles_per_flit;
      ++counters_.flits;
      counters_.tx_bits += flit.size_bits;
      counters_.rx_bits += static_cast<std::int64_t>(flit.size_bits) *
                           (params_.multicast_rx ? params_.num_readers : 1);
      obs_flits_.inc();
      if (params_.multicast_rx) {
        // Every listening reader pays RX energy; all but the target throw
        // the copy away (Table II's SWMR discard path).
        counters_.multicast_discard_flits += params_.num_readers - 1;
        obs_discards_.add(params_.num_readers - 1);
      }
      if (flit.tail) {
        // Release: the reader VC frees at tail launch; deliveries are FIFO
        // per reader, so a follow-up packet on the same VC cannot overtake.
        reader.vc_busy[active_vc_] = false;
        active_ = false;
        // A lost token cannot be passed on; it reappears at writer 0 at
        // recovery (see eval step 0b).
        if (!token_loss_pending_) {
          token_ = (token_ + 1) % params_.num_writers;
        }
        if (trace_ != nullptr) {
          trace_->complete(
              "pkt w" + std::to_string(active_writer_) + "->r" +
                  std::to_string(active_reader_),
              "medium", obs::TraceWriter::kPidMedia, trace_tid_, active_start_,
              now + params_.cycles_per_flit - active_start_);
        }
      }
    }
  } else if (params_.arbitration == ArbitrationKind::kTokenRing) {
    // 3a. Token arbitration: the current holder starts if it has a complete
    //     head staged and a reader VC is available; otherwise the token
    //     moves one writer per cycle (this is the "few extra cycles" of
    //     token transfer the paper charges against OptXB throughput).
    //     While the token is lost there is no holder and no rotation —
    //     staged packets just accrue token-wait cycles.
    if (!token_loss_pending_ && !try_start(token_, now)) {
      token_ = (token_ + 1) % params_.num_writers;
      // A staged head exists but this cycle's holder could not launch it:
      // the token moves on and the packet retries under a later holder.
      if (nonempty_stagings_ > 0) obs_arb_retries_.inc();
    }
    // "Some packet is waiting for the token" cycles, not per-writer.
    if (nonempty_stagings_ > 0) {
      ++counters_.token_wait_cycles;
      obs_token_wait_.inc();
    }
  } else {
    // 3b. Ideal arbitration: grant the first pending writer round-robin
    //     from the pointer, all in one cycle (writers with nothing staged
    //     cannot start, so only staged ones are tried).
    staged_writers_.for_each_from(0, params_.num_writers, token_, [&](int w) {
      if (!try_start(w, now)) return true;
      token_ = w;  // tail launch advances past the granted writer
      return false;
    });
  }
  if (scheduled()) plan_sleep(now);
}

void SharedMedium::plan_sleep(Cycle now) {
  asleep_ = false;
  wake_on_merge_ = false;
  staged_at_eval_ = nonempty_stagings_ > 0;
  // A lost token forces per-cycle evals (is_idle); nothing to plan.
  if (token_loss_pending_) return;
  if (active_) {
    // The medium holds the token until the tail launches, so every eval
    // before the next launch is a no-op. With the next flit staged and a
    // credit in hand, that launch is at next_tx_slot_; otherwise it needs a
    // staging merge or a credit first, and commit ends the sleep.
    const ClassStaging& lane =
        writers_[static_cast<std::size_t>(active_writer_)]
            .per_class[static_cast<std::size_t>(active_class_)];
    const Reader& reader = readers_[static_cast<std::size_t>(active_reader_)];
    if (lane.staging.empty() || reader.credits[active_vc_] == 0) {
      asleep_ = wake_on_merge_ = true;
    } else if (now + 1 < next_tx_slot_) {
      asleep_ = true;
      request_wake(next_tx_slot_);
    }
    return;
  }
  if (nonempty_stagings_ == 0) return;  // dormant (is_idle)
  // Idle bus with staged heads. Readers' VCs and credits and the staged
  // heads change only through this medium's evals and commit merges, so
  // until a merge, the writers whose head can start stay the same. Ideal
  // arbitration grants one of them at the next eval; a token ring grants
  // when the token, moving one writer per cycle, reaches the nearest.
  const int n = params_.num_writers;
  int hit = -1;
  staged_writers_.for_each_from(0, n, token_, [&](int w) {
    if (!choose_start(w)) return true;
    hit = w;
    return false;
  });
  if (hit < 0) {
    asleep_ = wake_on_merge_ = true;  // park until a new head or a credit
    return;
  }
  if (params_.arbitration != ArbitrationKind::kTokenRing) return;
  const int distance = (hit - token_ + n) % n;
  if (distance > 0) {
    asleep_ = wake_on_merge_ = true;
    request_wake(now + 1 + distance);
  }
}

void SharedMedium::commit(Cycle /*now*/) {
  MutexLock lock(dirty_mu_);
  // A merge that fills an empty lane (a new head, or the active packet's
  // next flit) or returns a credit can end a sleep that waits on one.
  bool news = !dirty_readers_.empty();
  for (const int w : dirty_writers_) {
    Writer& writer = writers_[static_cast<std::size_t>(w)];
    for (auto& lane : writer.per_class) {
      if (lane.staged_in.empty()) continue;
      if (lane.staging.empty()) {
        ++nonempty_stagings_;
        staged_writers_.insert(w);
        news = true;
      }
      for (auto& flit : lane.staged_in) lane.staging.push(flit);
      lane.staged_in.clear();
    }
  }
  dirty_writers_.clear();
  if (news && wake_on_merge_) asleep_ = false;
  for (const int r : dirty_readers_) {
    Reader& reader = readers_[static_cast<std::size_t>(r)];
    for (const auto& credit : reader.staged_credits) {
      reader.credit_pipe.push_back(credit);
    }
    reader.staged_credits.clear();
  }
  dirty_readers_.clear();
}

}  // namespace ownsim
