#include "obs/sinks.hpp"

#include <stdexcept>

#include "common/json.hpp"

namespace dvs::obs {

namespace {

// Fixed Chrome-trace lanes; per-component lanes are assigned from 16 up.
constexpr int kFramesLane = 0;
constexpr int kDecoderLane = 1;
constexpr int kGovernorLane = 2;
constexpr int kDetectorLane = 3;
constexpr int kDpmLane = 4;

/// Builds the {"k":v,...} field list of one JSONL line.
class JsonFields {
 public:
  JsonFields& num(std::string_view key, double v) {
    return raw(key, json::fmt9(v));
  }
  JsonFields& num(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonFields& boolean(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonFields& str(std::string_view key, std::string_view v) {
    return raw(key, "\"" + json::escape(v) + "\"");
  }
  [[nodiscard]] const std::string& body() const { return body_; }

 private:
  JsonFields& raw(std::string_view key, const std::string& value) {
    body_ += ",\"";
    body_ += key;
    body_ += "\":";
    body_ += value;
    return *this;
  }
  std::string body_;
};

struct JsonlVisitor {
  JsonFields& f;
  void operator()(const FrameArrival& p) const {
    f.num("frame", p.frame_id).str("media", p.media).num("queue", p.queue_len);
  }
  void operator()(const FrameDrop& p) const {
    f.num("frame", p.frame_id).str("media", p.media);
  }
  void operator()(const DecodeStart& p) const {
    f.num("frame", p.frame_id)
        .str("media", p.media)
        .num("freq_mhz", p.freq_mhz)
        .num("switch_latency_s", p.switch_latency_s);
  }
  void operator()(const DecodeDone& p) const {
    f.num("frame", p.frame_id)
        .str("media", p.media)
        .num("decode_s", p.decode_s)
        .num("delay_s", p.delay_s)
        .num("queue", p.queue_len);
  }
  void operator()(const DetectorSample& p) const {
    f.str("stream", p.stream)
        .str("detector", p.detector)
        .num("interval_s", p.interval_s)
        .num("rate_hz", p.rate_hz);
  }
  void operator()(const DetectorDecision& p) const {
    f.str("stream", p.stream)
        .num("ln_p_max", p.ln_p_max)
        .num("threshold", p.threshold)
        .boolean("detected", p.detected)
        .num("rate_hz", p.rate_hz);
  }
  void operator()(const FreqCommit& p) const {
    f.num("step", p.step)
        .num("freq_mhz", p.freq_mhz)
        .num("voltage_v", p.voltage_v)
        .num("switch_latency_s", p.switch_latency_s);
  }
  void operator()(const DpmIdleEnter& p) const {
    if (p.hint_s >= 0.0) f.num("hint_s", p.hint_s);
  }
  void operator()(const DpmSleepCommand& p) const { f.str("state", p.state); }
  void operator()(const DpmWakeup& p) const {
    f.str("from", p.from_state)
        .num("latency_s", p.latency_s)
        .num("idle_s", p.idle_length_s);
  }
  void operator()(const ComponentState& p) const {
    f.str("component", p.component)
        .str("from", p.from)
        .str("to", p.to)
        .num("power_mw", p.power_mw);
  }
  void operator()(const FaultInjected& p) const {
    f.str("kind", p.kind).num("magnitude", p.magnitude);
  }
  void operator()(const WatchdogEscalate& p) const {
    f.num("delay_s", p.delay_s)
        .num("queue", p.queue_len)
        .num("backoff_s", p.backoff_s);
  }
  void operator()(const WatchdogRecover& p) const {
    f.num("degraded_s", p.time_degraded_s);
  }
};

/// Generic (label, id, a, b, c) projection for the CSV timeline.
struct CsvRow {
  std::string label;
  std::uint64_t id = 0;
  double a = 0.0, b = 0.0, c = 0.0;
};

struct CsvVisitor {
  CsvRow operator()(const FrameArrival& p) const {
    return {std::string(p.media), p.frame_id,
            static_cast<double>(p.queue_len), 0.0, 0.0};
  }
  CsvRow operator()(const FrameDrop& p) const {
    return {std::string(p.media), p.frame_id, 0.0, 0.0, 0.0};
  }
  CsvRow operator()(const DecodeStart& p) const {
    return {std::string(p.media), p.frame_id, p.freq_mhz, p.switch_latency_s, 0.0};
  }
  CsvRow operator()(const DecodeDone& p) const {
    return {std::string(p.media), p.frame_id, p.decode_s, p.delay_s,
            static_cast<double>(p.queue_len)};
  }
  CsvRow operator()(const DetectorSample& p) const {
    return {std::string(p.stream), 0, p.interval_s, p.rate_hz, 0.0};
  }
  CsvRow operator()(const DetectorDecision& p) const {
    return {std::string(p.stream), p.detected ? 1u : 0u, p.ln_p_max, p.threshold,
            p.rate_hz};
  }
  CsvRow operator()(const FreqCommit& p) const {
    return {"cpu", p.step, p.freq_mhz, p.voltage_v, p.switch_latency_s};
  }
  CsvRow operator()(const DpmIdleEnter& p) const {
    return {"dpm", 0, p.hint_s, 0.0, 0.0};
  }
  CsvRow operator()(const DpmSleepCommand& p) const {
    return {std::string(p.state), 0, 0.0, 0.0, 0.0};
  }
  CsvRow operator()(const DpmWakeup& p) const {
    return {std::string(p.from_state), 0, p.latency_s, p.idle_length_s, 0.0};
  }
  CsvRow operator()(const ComponentState& p) const {
    return {std::string(p.component) + ":" + std::string(p.to), 0, p.power_mw,
            0.0, 0.0};
  }
  CsvRow operator()(const FaultInjected& p) const {
    return {std::string(p.kind), 0, p.magnitude, 0.0, 0.0};
  }
  CsvRow operator()(const WatchdogEscalate& p) const {
    return {"watchdog", 0, p.delay_s, p.queue_len, p.backoff_s};
  }
  CsvRow operator()(const WatchdogRecover& p) const {
    return {"watchdog", 0, p.time_degraded_s, 0.0, 0.0};
  }
};

}  // namespace

StreamSinkBase::StreamSinkBase(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path)), os_(owned_.get()) {
  if (!*owned_) {
    throw std::runtime_error("obs: cannot open trace output file: " + path);
  }
}

void JsonlSink::on_event(const Event& event) {
  JsonFields f;
  std::visit(JsonlVisitor{f}, event.payload);
  out() << "{\"ts\":" << json::fmt9(event.ts) << ",\"type\":\""
        << type_name(event.payload) << "\"" << f.body() << "}\n";
}

void CsvTimelineSink::header_once() {
  if (wrote_header_) return;
  wrote_header_ = true;
  out() << "ts,type,label,id,a,b,c\n";
}

void CsvTimelineSink::on_event(const Event& event) {
  header_once();
  const CsvRow row = std::visit(CsvVisitor{}, event.payload);
  out() << json::fmt9(event.ts) << ',' << type_name(event.payload) << ','
        << row.label << ',' << row.id << ',' << json::fmt9(row.a) << ','
        << json::fmt9(row.b) << ',' << json::fmt9(row.c) << "\n";
}

int ChromeTraceSink::lane_for(const std::string& name) {
  auto it = lanes_.find(name);
  if (it != lanes_.end()) return it->second;
  const int lane = next_lane_++;
  lanes_.emplace(name, lane);
  emit(last_ts_us_, 'M', lane, "thread_name",
       "{\"name\":\"" + json::escape(name) + "\"}");
  return lane;
}

void ChromeTraceSink::emit(double ts_us, char ph, int tid,
                           const std::string& name,
                           const std::string& args_json) {
  if (finished_) return;
  if (!started_) {
    started_ = true;
    first_ = true;
    out() << "[\n";
    // Name the fixed lanes up front.
    const std::pair<int, const char*> fixed[] = {{kFramesLane, "frames"},
                                                 {kDecoderLane, "decoder"},
                                                 {kGovernorLane, "governor"},
                                                 {kDetectorLane, "detector"},
                                                 {kDpmLane, "dpm"}};
    for (const auto& [lane, lane_name] : fixed) {
      emit(ts_us, 'M', lane, "thread_name",
           std::string("{\"name\":\"") + lane_name + "\"}");
    }
  }
  if (!first_) out() << ",\n";
  first_ = false;
  last_ts_us_ = ts_us;
  out() << "{\"name\":\"" << json::escape(name) << "\",\"ph\":\"" << ph
        << "\",\"ts\":" << json::fmt9(ts_us) << ",\"pid\":1,\"tid\":" << tid;
  if (!args_json.empty()) out() << ",\"args\":" << args_json;
  out() << "}";
}

void ChromeTraceSink::counter(double ts_us, const std::string& name,
                              double value) {
  emit(ts_us, 'C', kGovernorLane, name,
       "{\"value\":" + json::fmt9(value) + "}");
}

void ChromeTraceSink::on_event(const Event& event) {
  if (finished_) return;
  const double us = event.ts * 1e6;

  struct Visitor {
    ChromeTraceSink& sink;
    double us;
    void operator()(const FrameArrival& p) {
      sink.emit(us, 'i', kFramesLane, "frame_arrival",
                "{\"frame\":" + std::to_string(p.frame_id) + "}");
      sink.counter(us, "queue_len", static_cast<double>(p.queue_len));
    }
    void operator()(const FrameDrop& p) {
      sink.emit(us, 'i', kFramesLane, "frame_drop",
                "{\"frame\":" + std::to_string(p.frame_id) + "}");
    }
    void operator()(const DecodeStart& p) {
      if (sink.decode_open_) sink.emit(us, 'E', kDecoderLane, "decode", "");
      sink.decode_open_ = true;
      sink.emit(us, 'B', kDecoderLane, "decode",
                "{\"frame\":" + std::to_string(p.frame_id) +
                    ",\"freq_mhz\":" + json::fmt9(p.freq_mhz) + "}");
    }
    void operator()(const DecodeDone& p) {
      if (sink.decode_open_) {
        sink.decode_open_ = false;
        sink.emit(us, 'E', kDecoderLane, "decode",
                  "{\"delay_s\":" + json::fmt9(p.delay_s) + "}");
      }
      sink.counter(us, "queue_len", static_cast<double>(p.queue_len));
    }
    void operator()(const DetectorSample& p) {
      sink.counter(us, "rate_hz:" + std::string(p.stream), p.rate_hz);
    }
    void operator()(const DetectorDecision& p) {
      if (!p.detected) return;  // non-detections would swamp the lane
      sink.emit(us, 'i', kDetectorLane,
                "rate_change:" + std::string(p.stream),
                "{\"ln_p_max\":" + json::fmt9(p.ln_p_max) +
                    ",\"rate_hz\":" + json::fmt9(p.rate_hz) + "}");
    }
    void operator()(const FreqCommit& p) {
      sink.counter(us, "cpu_mhz", p.freq_mhz);
      sink.emit(us, 'i', kGovernorLane, "freq_commit",
                "{\"step\":" + std::to_string(p.step) +
                    ",\"freq_mhz\":" + json::fmt9(p.freq_mhz) +
                    ",\"voltage_v\":" + json::fmt9(p.voltage_v) + "}");
    }
    void operator()(const DpmIdleEnter& p) {
      sink.emit(us, 'i', kDpmLane, "idle_enter",
                p.hint_s >= 0.0 ? "{\"hint_s\":" + json::fmt9(p.hint_s) + "}"
                                : std::string());
    }
    void operator()(const DpmSleepCommand& p) {
      sink.emit(us, 'i', kDpmLane, "sleep:" + std::string(p.state), "");
    }
    void operator()(const DpmWakeup& p) {
      sink.emit(us, 'i', kDpmLane, "wakeup",
                "{\"from\":\"" + json::escape(p.from_state) +
                    "\",\"latency_s\":" + json::fmt9(p.latency_s) + "}");
    }
    void operator()(const ComponentState& p) {
      const std::string comp(p.component);
      const int lane = sink.lane_for(comp);
      auto open = sink.open_span_.find(comp);
      if (open != sink.open_span_.end()) {
        sink.emit(us, 'E', lane, open->second, "");
      }
      sink.open_span_[comp] = std::string(p.to);
      sink.emit(us, 'B', lane, std::string(p.to),
                "{\"power_mw\":" + json::fmt9(p.power_mw) + "}");
    }
    void operator()(const FaultInjected& p) {
      sink.emit(us, 'i', kGovernorLane, "fault:" + std::string(p.kind),
                "{\"magnitude\":" + json::fmt9(p.magnitude) + "}");
    }
    void operator()(const WatchdogEscalate& p) {
      sink.emit(us, 'i', kGovernorLane, "watchdog_escalate",
                "{\"delay_s\":" + json::fmt9(p.delay_s) +
                    ",\"queue\":" + json::fmt9(p.queue_len) + "}");
    }
    void operator()(const WatchdogRecover& p) {
      sink.emit(us, 'i', kGovernorLane, "watchdog_recover",
                "{\"degraded_s\":" + json::fmt9(p.time_degraded_s) + "}");
    }
  };
  std::visit(Visitor{*this, us}, event.payload);
}

void ChromeTraceSink::flush() {
  if (finished_) return;
  if (started_) {
    // Close the open power-state spans and the JSON array.
    for (const auto& [comp, state] : open_span_) {
      emit(last_ts_us_, 'E', lane_for(comp), state, "");
    }
    open_span_.clear();
    if (decode_open_) {
      decode_open_ = false;
      emit(last_ts_us_, 'E', kDecoderLane, "decode", "");
    }
    out() << "\n]\n";
  } else {
    out() << "[]\n";
  }
  finished_ = true;
  out().flush();
}

}  // namespace dvs::obs
