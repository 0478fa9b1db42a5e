#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "policy/governor_factory.hpp"

namespace dvs::core {

namespace {

/// How long the WLAN stays active to receive one frame.
constexpr Seconds kWlanRxTime = seconds(0.002);
// A zero burst could put a WLAN-on between two equal-time WLAN-offs.
static_assert(kWlanRxTime.value() > 0.0, "WLAN reception time must be > 0");
/// Interarrival gaps at or above this are idle periods, not rate samples.
constexpr Seconds kSessionGapThreshold = seconds(2.0);
/// Hardware-idle filter before the DPM policy owns an idle period.
constexpr Seconds kDpmArmDelay = seconds(0.5);

}  // namespace

Engine::Engine(EngineConfig cfg, std::vector<PlaybackItem> items)
    : cfg_(std::move(cfg)),
      items_(std::move(items)),
      badge_(cfg_.cpu),
      buffer_(cfg_.buffer_capacity) {
  DVS_CHECK_MSG(!items_.empty(), "Engine: no playback items");
  DVS_CHECK_MSG(cfg_.target_delay.value() > 0.0, "Engine: target delay must be > 0");
  for (std::size_t i = 0; i < items_.size(); ++i) {
    DVS_CHECK_MSG(!items_[i].trace.frames().empty(), "Engine: empty trace item");
    DVS_CHECK_MSG(items_[i].decoder.max_frequency() == badge_.cpu().max_frequency(),
                  "Engine: item decoder parameterized for a different CPU");
    if (i > 0) {
      DVS_CHECK_MSG(items_[i].trace.frames().front().arrival >= items_[i - 1].end,
                    "Engine: overlapping playback items");
    }
  }
  if (!cfg_.dpm_policy) {
    cfg_.dpm_policy = std::make_shared<dpm::NeverSleepPolicy>();
  }
  // Characterize the change-point threshold table once on the engine's own
  // copy, so the per-media governors share it even when the caller passed an
  // unprepared config.  Callers sharing one config across runs (or threads)
  // prepare() it themselves and this is a no-op.
  if (cfg_.detector == DetectorKind::ChangePoint) cfg_.detectors.prepare();
  if (cfg_.flight_recorder) {
    flight_ = std::make_unique<obs::FlightRecorder>(cfg_.flight_capacity);
    if (!cfg_.flight_dump_path.empty()) {
      flight_->set_auto_dump(cfg_.flight_dump_path);
    }
  }
  // One probe for every decision site; null when no sink is on, so an
  // uninstrumented run pays one pointer test per site.
  probe_ = obs::Probe::make(
      {cfg_.trace, cfg_.metrics, cfg_.ledger, flight_.get()});
  pm_ = std::make_unique<dpm::PowerManager>(sim_, badge_, cfg_.dpm_policy,
                                            cfg_.seed ^ 0xd9a17ULL,
                                            probe_.get());
  if (cfg_.hw_faults.any()) {
    // A dedicated substream of the engine seed, disjoint from the DPM's,
    // so adding hardware faults never perturbs the fault-free draws.
    injector_ = std::make_unique<fault::HwFaultInjector>(
        cfg_.hw_faults, cfg_.seed ^ 0xfa017ULL, probe_.get());
    pm_->set_wakeup_fault_hook(
        [this](Seconds now) { return injector_->wakeup_penalty(now); });
  }
  if (cfg_.ledger != nullptr) {
    cfg_.ledger->set_freq_step(badge_.cpu_step());
    std::vector<double> mhz;
    mhz.reserve(badge_.cpu().num_steps());
    for (std::size_t s = 0; s < badge_.cpu().num_steps(); ++s) {
      mhz.push_back(badge_.cpu().frequency_at(s).value());
    }
    cfg_.ledger->set_freq_table(std::move(mhz));
  }
  if (probe_ != nullptr) {
    for (std::size_t i = 0; i < badge_.num_components(); ++i) {
      badge_.component(static_cast<hw::BadgeComponentId>(i))
          .attach_probe(probe_.get(), static_cast<std::uint16_t>(i));
    }
  }
  sim_.set_dispatch_hook(
      [](void* self, Seconds at, std::uint64_t seq) {
        static_cast<Engine*>(self)->apply_transitions_before(at, seq);
      },
      this);
  if (cfg_.profiler != nullptr) {
    // Pre-register the span tree so the hot path is a timestamp plus two
    // stores per handler — no name lookups while the simulation runs.
    profiler_ = cfg_.profiler;
    const int root = profiler_->root();
    span_arrival_ = profiler_->node(root, "arrival");
    span_decode_start_ = profiler_->node(root, "decode_start");
    span_decode_done_ = profiler_->node(root, "decode_done");
    span_governor_ = profiler_->node(span_decode_done_, "governor");
    span_dpm_idle_ = profiler_->node(root, "dpm_idle");
    span_power_sample_ = profiler_->node(root, "power_sample");
    span_telemetry_ = profiler_->node(root, "telemetry_snapshot");
    profiler_->enter(root);
  }
}

policy::Governor& Engine::governor_for(workload::MediaType type) {
  policy::Governor* gov = governors_[media_index(type)].get();
  DVS_CHECK_MSG(gov != nullptr, "Engine: no governor for media type");
  return *gov;
}

const workload::DecoderModel& Engine::decoder_for(workload::MediaType type) const {
  for (const auto& item : items_) {
    if (item.trace.type() == type) return item.decoder;
  }
  throw std::logic_error("Engine: no decoder for media type");
}

void Engine::note_frequency(Seconds now) {
  // Closes the segment since the last note at the *current* frequency; call
  // before any frequency change and once at the end of the run.
  DVS_CHECK(now >= last_freq_note_);
  freq_tw_.add(badge_.cpu_frequency().value(), (now - last_freq_note_).value());
  last_freq_note_ = now;
}

void Engine::ensure_media_context(const PlaybackItem& item) {
  const workload::MediaType type = item.trace.type();
  const Seconds now = sim_.now();
  policy::GovernorPtr& slot = governors_[media_index(type)];
  if (slot == nullptr) {
    // Build the governor for this media type through the policy factory.
    policy::GovernorContext ctx{badge_, item.decoder, cfg_.target_delay,
                                cfg_.service_cv2};
    ctx.probe = probe_.get();
    // A per-media substream of the engine seed, disjoint from the DPM's
    // (0xd9a17) and the fault injector's (0xfa017): learning policies draw
    // exploration randomness here without perturbing either.
    ctx.seed = dvs::mix_seed(cfg_.seed ^ 0x9d50ULL, media_index(type));
    if (cfg_.detector != DetectorKind::Max) {
      // The ideal detector reads the ground truth of whichever item is
      // playing at query time.
      ctx.make_arrival_detector = [this] {
        return make_detector(cfg_.detector, cfg_.detectors, [this](Seconds t) {
          const PlaybackItem& cur =
              items_[std::min(active_item_, items_.size() - 1)];
          return cur.trace.true_arrival_rate(t);
        });
      };
      ctx.make_service_detector = [this] {
        return make_detector(cfg_.detector, cfg_.detectors, [this](Seconds t) {
          const PlaybackItem& cur =
              items_[std::min(active_item_, items_.size() - 1)];
          return cur.trace.true_service_rate_at_max(t);
        });
      };
    }
    slot = policy::GovernorFactory::instance().create(cfg_.policy, ctx);
    slot->enable_watchdog(cfg_.watchdog, cfg_.target_delay);
    if (injector_ != nullptr) {
      slot->set_step_filter(
          [this](Seconds at, std::size_t current, std::size_t desired) {
            return injector_->filter_step(at, current, desired);
          });
    }
    note_frequency(now);
    slot->initialize(item.nominal_arrival, item.nominal_service_at_max, now);
    // The detectors start from nominal rates; the gap to the clip's true
    // rates is the change the detector has to find.
    if (probe_ != nullptr) probe_->rate_change(now);
  }
  return;
}

void Engine::schedule_arrival_cursor() {
  if (item_ >= items_.size()) {
    next_arrival_ = std::nullopt;
    return;
  }
  const PlaybackItem& it = items_[item_];
  const workload::TraceFrame& tf = it.trace.frames()[frame_idx_];
  next_arrival_ = tf.arrival;
  sim_.schedule_at(tf.arrival, [this] {
    handle_arrival();
    run_follow_ups();
  });
}

void Engine::handle_arrival() {
  const obs::ScopedSpan span{profiler_, span_arrival_};
  const Seconds now = sim_.now();
  const PlaybackItem& item = items_[item_];
  const workload::TraceFrame& tf = item.trace.frames()[frame_idx_];
  ++frames_arrived_;

  // DPM: cancel any pending sleep plan / idle filter; wake if sleeping.
  cancel_arm();
  const Seconds ready = pm_->on_request(now);
  device_ready_ = std::max(device_ready_, ready);

  // Media / governor context.
  const bool item_switch = active_item_ != item_;
  active_item_ = item_;
  ensure_media_context(item);
  policy::Governor& gov = governor_for(item.trace.type());
  if (item_switch && item_ > 0) {
    // New application launch: reseed the adaptive detectors with the app's
    // nominal rates (never the clip's true rates).
    note_frequency(now);
    gov.initialize(item.nominal_arrival, item.nominal_service_at_max, now);
    prev_arrival_.reset();
    if (probe_ != nullptr) probe_->rate_change(now);
  }

  start_wlan_burst(std::max(now, device_ready_));

  const workload::MediaType media = item.trace.type();
  const bool accepted =
      buffer_.push(workload::Frame{tf.id, media, now, tf.work}, now);
  if (probe_ != nullptr) {
    if (accepted) {
      probe_->frame_arrival(now, tf.id, media, buffer_.size());
    } else {
      probe_->frame_drop(now, tf.id, media);
    }
  }

  // Arrival-rate sample, gated against idle gaps — and against tail drops:
  // a dropped frame is never serviced, so it must not feed the λ estimate
  // the policy provisions for (the served rate is the admitted rate), nor
  // reset the interarrival clock of the admitted stream.
  if (accepted) {
    if (prev_arrival_) {
      const Seconds gap = now - *prev_arrival_;
      if (gap.value() > 0.0 && gap < kSessionGapThreshold) {
        gov.on_arrival(now, gap, static_cast<double>(buffer_.size()));
        if (probe_ != nullptr && probe_->tracing() && gov.adaptive()) {
          probe_->detector_sample(now, "arrival", gov.detector_name(), gap,
                                  gov.arrival_estimate());
        }
      }
    }
    prev_arrival_ = now;
  }
  maybe_start_decode(std::max(now, device_ready_));

  // Advance the cursor.
  ++frame_idx_;
  if (frame_idx_ >= item.trace.frames().size()) {
    frame_idx_ = 0;
    ++item_;
  }
  schedule_arrival_cursor();
}

bool Engine::defer_follow_up(Seconds at, FollowUp& follow_up) {
  if (at > sim_.now() || sim_.due_now()) return false;
  follow_up = FollowUp{sim_.reserve_seq(), true};
  return true;
}

void Engine::run_follow_ups() {
  const Seconds now = sim_.now();
  if (wlan_on_.due) {
    wlan_on_.due = false;
    apply_transitions_before(now, wlan_on_.seq);
    wlan_on();
  }
  if (decode_start_.due) {
    decode_start_.due = false;
    apply_transitions_before(now, decode_start_.seq);
    handle_decode_start();
  }
}

void Engine::apply_transitions_before(Seconds at, std::uint64_t seq) {
  const auto before = [](const Transition& t, Seconds at, std::uint64_t seq) {
    return t.at < at || (t.at == at && t.seq < seq);
  };
  while (true) {
    Transition* next = nullptr;
    for (Transition* t : {&wlan_off_, &mem_release_}) {
      if (t->pending && before(*t, at, seq) &&
          (next == nullptr || before(*t, next->at, next->seq))) {
        next = t;
      }
    }
    if (next == nullptr) return;
    next->pending = false;
    transitions_until_ = std::max(transitions_until_, next->at);
    auto& c = badge_.component(next->component);
    if (c.state() == hw::PowerState::Active && !c.transitioning()) {
      c.set_state(hw::PowerState::Idle, next->at);
    }
  }
}

void Engine::start_wlan_burst(Seconds at) {
  wlan_busy_until_ = std::max(wlan_busy_until_, at + kWlanRxTime);
  if (!defer_follow_up(at, wlan_on_)) {
    sim_.schedule_at(at, [this] { wlan_on(); });
  }
  // The burst's return to idle.  The record always sits at
  // wlan_busy_until_: a later burst that moves it supersedes the pending
  // one, whose idle test would have failed; an equal time keeps the
  // earlier seq, and the later one would have found the radio idle (the
  // reception time is > 0, so no WLAN-on lands between them).
  const std::uint64_t seq = sim_.reserve_seq();
  if (!wlan_off_.pending || wlan_busy_until_ > wlan_off_.at) {
    wlan_off_ = Transition{wlan_busy_until_, seq, hw::BadgeComponentId::WlanRf,
                           true};
  }
}

void Engine::wlan_on() {
  auto& wlan = badge_.component(hw::BadgeComponentId::WlanRf);
  if (wlan.state() == hw::PowerState::Idle && !wlan.transitioning()) {
    wlan.set_state(hw::PowerState::Active, sim_.now());
  }
}

void Engine::maybe_start_decode(Seconds at) {
  if (busy_ || decode_start_pending_ || buffer_.empty()) return;
  decode_start_pending_ = true;
  if (!defer_follow_up(at, decode_start_)) {
    sim_.schedule_at(std::max(at, sim_.now()), [this] { handle_decode_start(); });
  }
}

void Engine::handle_decode_start() {
  const obs::ScopedSpan span{profiler_, span_decode_start_};
  decode_start_pending_ = false;
  if (busy_ || buffer_.empty()) return;
  const Seconds now = sim_.now();
  if (now < device_ready_) {
    maybe_start_decode(device_ready_);
    return;
  }
  badge_.finish_wakeups(now);
  const Seconds pending = badge_.latest_wakeup_completion(now);
  if (pending > now) {
    maybe_start_decode(pending);
    return;
  }

  workload::Frame frame = *buffer_.pop(now);
  busy_ = true;

  policy::Governor& gov = governor_for(frame.type);
  note_frequency(now);
  const Seconds switch_latency = gov.apply(now);
  activate_components(frame.type, now);

  const workload::DecoderModel& dec = decoder_for(frame.type);
  const MegaHertz f = badge_.cpu_frequency();
  const Seconds pure = dec.decode_time(f, frame.work);

  if (probe_ != nullptr) {
    probe_->decode_start(now, frame.id, frame.type, f, switch_latency);
  }

  // The memory is busy only for the frequency-independent stall portion of
  // the decode (a fixed number of accesses per frame); slowing the CPU does
  // not stretch memory energy.  Release it early.
  const Seconds mem_busy = dec.memory_stall() * frame.work;
  if (mem_busy < pure) {
    const hw::BadgeComponentId mem = frame.type == workload::MediaType::Mp3Audio
                                         ? hw::BadgeComponentId::Sram
                                         : hw::BadgeComponentId::Dram;
    // One decode runs at a time and its release precedes its completion,
    // so the previous release has always been applied by now.
    DVS_CHECK(!mem_release_.pending);
    mem_release_ = Transition{now + switch_latency + mem_busy,
                              sim_.reserve_seq(), mem, true};
  }

  sim_.schedule_at(now + switch_latency + pure, [this, frame, pure, f] {
    handle_decode_complete(frame, pure, f);
    run_follow_ups();
  });
}

void Engine::handle_decode_complete(workload::Frame frame, Seconds pure_decode,
                                    MegaHertz freq) {
  const obs::ScopedSpan span{profiler_, span_decode_done_};
  const Seconds now = sim_.now();
  buffer_.record_departure(frame.arrival, now);
  deactivate_components(frame.type, now);
  busy_ = false;
  const Seconds delay = now - frame.arrival;
  if (probe_ != nullptr) {
    probe_->decode_done(now, frame.id, frame.type, pure_decode, delay,
                        buffer_.size(), cfg_.target_delay);
  }
  policy::Governor& gov = governor_for(frame.type);
  {
    // Nested span: the governor's detector + policy work inside the
    // decode-completion handler shows up as its own tree node.
    const obs::ScopedSpan gov_span{profiler_, span_governor_};
    gov.on_decode_complete(now, pure_decode, freq,
                           static_cast<double>(buffer_.size()), delay);
  }
  if (probe_ != nullptr && probe_->tracing() && gov.adaptive()) {
    probe_->detector_sample(now, "service", gov.detector_name(), pure_decode,
                            gov.service_estimate_at_max());
  }

  if (!buffer_.empty()) {
    maybe_start_decode(now);
    return;
  }
  arm_dpm(now);
}

void Engine::activate_components(workload::MediaType type, Seconds now) {
  badge_.component(hw::BadgeComponentId::Cpu).set_state(hw::PowerState::Active, now);
  if (type == workload::MediaType::Mp3Audio) {
    badge_.component(hw::BadgeComponentId::Sram).set_state(hw::PowerState::Active, now);
  } else {
    badge_.component(hw::BadgeComponentId::Dram).set_state(hw::PowerState::Active, now);
    auto& display = badge_.component(hw::BadgeComponentId::Display);
    if (display.state() != hw::PowerState::Active && !display.transitioning()) {
      display.set_state(hw::PowerState::Active, now);
    }
  }
}

void Engine::deactivate_components(workload::MediaType type, Seconds now) {
  badge_.component(hw::BadgeComponentId::Cpu).set_state(hw::PowerState::Idle, now);
  if (type == workload::MediaType::Mp3Audio) {
    badge_.component(hw::BadgeComponentId::Sram).set_state(hw::PowerState::Idle, now);
  } else {
    badge_.component(hw::BadgeComponentId::Dram).set_state(hw::PowerState::Idle, now);
    // The display stays lit between video frames; it auto-idles at the
    // hardware-idle filter (arm_dpm).
  }
}

void Engine::arm_dpm(Seconds now) {
  cancel_arm();
  // The pending arrival was scheduled before this filter would be, so at
  // the same time it runs first; either way it cancels the filter before
  // it could fire.  Skip the event the kernel would only tombstone.
  if (next_arrival_ && *next_arrival_ <= now + kDpmArmDelay) return;
  arm_event_ = sim_.schedule_at(now + kDpmArmDelay, [this] {
    const obs::ScopedSpan span{profiler_, span_dpm_idle_};
    const Seconds t = sim_.now();
    // Playback stopped: the display is no longer being accessed.
    auto& display = badge_.component(hw::BadgeComponentId::Display);
    if (display.state() == hw::PowerState::Active && !display.transitioning()) {
      display.set_state(hw::PowerState::Idle, t);
    }
    std::optional<Seconds> hint;
    if (next_arrival_) hint = *next_arrival_ - t;
    pm_->on_idle_enter(t, hint);
  });
}

void Engine::schedule_power_sample(Seconds at) {
  // The chain stops at the session end so it cannot keep the event loop
  // alive forever.
  if (at > items_.back().end) return;
  sim_.schedule_at(at, [this] {
    const obs::ScopedSpan span{profiler_, span_power_sample_};
    power_trace_.emplace_back(sim_.now().value(), badge_.total_power().value());
    schedule_power_sample(sim_.now() + cfg_.power_sample_period);
  });
}

void Engine::schedule_telemetry_snapshot(Seconds at) {
  // Same chain shape as the power sampler: stops at the session end so it
  // cannot keep the event loop alive.
  if (at > items_.back().end) return;
  sim_.schedule_at(at, [this] {
    const obs::ScopedSpan span{profiler_, span_telemetry_};
    take_telemetry_snapshot(sim_.now());
    schedule_telemetry_snapshot(sim_.now() + cfg_.telemetry_every);
  });
}

void Engine::take_telemetry_snapshot(Seconds now) {
  // The registry fills its counters/gauges only at end of run, so the
  // instantaneous readings a live feed needs ride in the snapshot's
  // "live" object instead of polluting the end-of-run registry.
  static const obs::MetricsRegistry kEmpty;
  const obs::MetricsRegistry& reg =
      cfg_.metrics != nullptr ? *cfg_.metrics : kEmpty;
  obs::TelemetrySnapshotter::Live live;
  live.reserve(8);
  live.emplace_back("sim_time_s", now.value());
  double energy = 0.0;
  for (std::size_t i = 0; i < badge_.num_components(); ++i) {
    energy += badge_.component(static_cast<hw::BadgeComponentId>(i))
                  .energy_consumed(now)
                  .value();
  }
  live.emplace_back("energy_j", energy);
  live.emplace_back("avg_power_mw",
                    now.value() > 0.0 ? energy / now.value() * 1e3 : 0.0);
  live.emplace_back("cpu_mhz", badge_.cpu_frequency().value());
  live.emplace_back("queue_frames", static_cast<double>(buffer_.size()));
  live.emplace_back("frames_arrived", static_cast<double>(frames_arrived_));
  live.emplace_back("frames_decoded",
                    static_cast<double>(buffer_.delay_stats().count()));
  live.emplace_back("frames_dropped", static_cast<double>(buffer_.dropped()));
  cfg_.telemetry->snapshot(now.value(), "engine", reg, live);
}

void Engine::cancel_arm() {
  if (arm_event_.valid()) {
    sim_.cancel(arm_event_);
    arm_event_ = sim::EventId{};
  }
}

Metrics Engine::run() {
  DVS_CHECK_MSG(!ran_, "Engine: run() is single-shot");
  ran_ = true;
  schedule_arrival_cursor();
  if (cfg_.power_sample_period.value() > 0.0) {
    // The sample chain runs to the session end on a fixed period, so the
    // trace size is known up front; reserving it avoids log(n) regrowth
    // copies on long (Table 5) sessions.
    const double expected =
        items_.back().end.value() / cfg_.power_sample_period.value();
    power_trace_.reserve(static_cast<std::size_t>(expected) + 2);
    schedule_power_sample(cfg_.power_sample_period);
  }
  if (cfg_.telemetry != nullptr && cfg_.telemetry->active() &&
      cfg_.telemetry_every.value() > 0.0) {
    schedule_telemetry_snapshot(cfg_.telemetry_every);
  }
  const auto started = std::chrono::steady_clock::now();
  try {
    sim_.run();
    // The transitions still held after the last event, at their own times.
    apply_transitions_before(Seconds{std::numeric_limits<double>::infinity()},
                             0);
  } catch (...) {
    // Abnormal exit: finalize trace sinks so JSONL/Chrome output stays
    // well-formed, and capture the flight-recorder window.  Post-mortem
    // plumbing must never mask the original error.
    try {
      if (cfg_.trace != nullptr) cfg_.trace->flush();
      if (flight_ != nullptr) {
        // A held transition that threw ran at its own time, past the clock.
        flight_->trigger(std::max(sim_.now(), transitions_until_).value(),
                         "exception");
      }
    } catch (...) {
    }
    throw;
  }
  if (cfg_.metrics != nullptr) {
    // Wall-clock self-profile: the simulator's speed, not simulated time.
    cfg_.metrics->gauge("wall.engine_run_s") +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
  }
  const Seconds end =
      std::max({sim_.now(), transitions_until_, items_.back().end});
  Metrics m = collect(end);
  if (cfg_.telemetry != nullptr && cfg_.telemetry->active() &&
      cfg_.telemetry_every.value() > 0.0) {
    // Final snapshot after fill_registry: the last JSONL line carries the
    // complete end-of-run registry, so a feed consumer never needs the
    // separate metrics JSON to close its series.
    take_telemetry_snapshot(end);
  }
  if (profiler_ != nullptr) profiler_->exit();  // the "engine" root span
  return m;
}

Metrics Engine::collect(Seconds end) {
  Metrics m;
  m.duration = end;
  note_frequency(end);
  for (std::size_t i = 0; i < badge_.num_components(); ++i) {
    const auto id = static_cast<hw::BadgeComponentId>(i);
    m.component_energy[i] = badge_.component(id).energy_consumed(end);
    m.total_energy += m.component_energy[i];
  }
  if (end.value() > 0.0) {
    m.average_power = MilliWatts{m.total_energy.value() / end.value() * 1e3};
  }
  m.frames_arrived = frames_arrived_;
  m.frames_admitted = buffer_.total_pushed();
  m.frames_decoded = buffer_.delay_stats().count();
  m.frames_dropped = buffer_.dropped();
  if (!buffer_.delay_stats().empty()) {
    m.mean_frame_delay = Seconds{buffer_.delay_stats().mean()};
    m.max_frame_delay = Seconds{buffer_.delay_stats().max()};
  }
  if (buffer_.occupancy_stats().total_time() > 0.0) {
    m.mean_buffered_frames = buffer_.occupancy_stats().mean();
  }
  m.cpu_switches = badge_.cpu_switch_count();
  if (freq_tw_.total_time() > 0.0) {
    m.mean_cpu_frequency = MegaHertz{freq_tw_.mean()};
  }
  m.dpm_idle_periods = pm_->idle_periods();
  m.dpm_sleeps = pm_->sleeps_commanded();
  m.dpm_wakeups = pm_->wakeups();
  m.dpm_total_wakeup_delay = pm_->total_wakeup_delay();
  if (injector_ != nullptr) m.faults_injected = injector_->faults_injected();
  for (const auto& gov : governors_) {
    if (gov == nullptr) continue;
    const policy::Watchdog* wd = gov->watchdog();
    if (wd == nullptr) continue;
    m.watchdog_escalations += wd->escalations();
    m.watchdog_recoveries += wd->recoveries();
    m.time_in_degraded += wd->time_in_degraded(end);
  }
  m.power_trace = std::move(power_trace_);
  if (cfg_.metrics != nullptr) fill_registry(m);
  return m;
}

void Engine::fill_registry(const Metrics& m) {
  obs::MetricsRegistry& reg = *cfg_.metrics;
  reg.counter("frames_arrived") += m.frames_arrived;
  reg.counter("frames_admitted") += m.frames_admitted;
  reg.counter("frames_decoded") += m.frames_decoded;
  reg.counter("frames_dropped") += m.frames_dropped;
  reg.counter("cpu_switches") += static_cast<std::uint64_t>(m.cpu_switches);
  reg.counter("dpm.idle_periods") +=
      static_cast<std::uint64_t>(m.dpm_idle_periods);
  reg.counter("dpm.sleeps") += static_cast<std::uint64_t>(m.dpm_sleeps);
  reg.counter("dpm.wakeups") += static_cast<std::uint64_t>(m.dpm_wakeups);
  reg.gauge("duration_s") = m.duration.value();
  reg.gauge("energy_j") = m.total_energy.value();
  reg.gauge("avg_power_mw") = m.average_power.value();
  reg.gauge("mean_frame_delay_s") = m.mean_frame_delay.value();
  reg.gauge("mean_cpu_mhz") = m.mean_cpu_frequency.value();
  reg.gauge("dpm.total_wakeup_delay_s") = m.dpm_total_wakeup_delay.value();
  if (m.faults_injected > 0 || m.watchdog_escalations > 0 ||
      m.watchdog_recoveries > 0) {
    reg.counter("faults_injected") += m.faults_injected;
    reg.counter("watchdog.escalations") +=
        static_cast<std::uint64_t>(m.watchdog_escalations);
    reg.counter("recoveries") +=
        static_cast<std::uint64_t>(m.watchdog_recoveries);
    reg.gauge("watchdog.time_in_degraded_s") = m.time_in_degraded.value();
  }

  // Kernel self-profile: how hard the simulator itself worked.
  const sim::SimulatorStats& s = sim_.stats();
  reg.counter("sim.events_scheduled") += s.scheduled;
  reg.counter("sim.events_executed") += s.executed;
  reg.counter("sim.events_cancelled") += s.cancelled;
  reg.counter("sim.tombstones_purged") += s.tombstones_purged;
  reg.counter("sim.heap_compactions") += s.compactions;
  reg.gauge("sim.max_heap_size") = static_cast<double>(s.max_heap_size);
  const double wall = reg.gauge_value("wall.engine_run_s");
  if (wall > 0.0) {
    reg.gauge("wall.events_per_sec") =
        static_cast<double>(s.executed) / wall;
  }
  if (cfg_.trace != nullptr) {
    reg.counter("trace.events_recorded") += cfg_.trace->events_recorded();
  }
  if (flight_ != nullptr) {
    reg.counter("flight.records") += flight_->records_stored();
    if (flight_->triggers() > 0) {
      reg.counter("flight.triggers") += flight_->triggers();
    }
  }
  if (cfg_.telemetry != nullptr && cfg_.telemetry->active()) {
    reg.counter("telemetry.snapshots") += cfg_.telemetry->snapshots_written();
  }
}

}  // namespace dvs::core
