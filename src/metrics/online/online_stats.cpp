#include "metrics/online/online_stats.hpp"

namespace wormsim::metrics {

namespace {
/// Windows with fewer deliveries than this don't update the latency
/// baseline: their percentiles are dominated by pipeline-fill noise.
constexpr std::uint64_t kBaselineMinDeliveries = 8;
}  // namespace

OnlineStats::OnlineStats(std::uint32_t num_nodes, const OnlineConfig& cfg)
    : cfg_(cfg), num_nodes_(num_nodes) {
  if (cfg_.window_cycles == 0) cfg_.window_cycles = 1;
  if (cfg_.onset_windows == 0) cfg_.onset_windows = 1;
}

void OnlineStats::close_window(Cycle t, const WindowSample& sample) {
  cur_.start_cycle = cur_start_;
  cur_.cycles = t + 1 - cur_start_;
  cur_.end = sample;
  cur_.offered_flits = sample.offered_flits - last_.offered_flits;
  cur_.accepted_flits = sample.accepted_flits - last_.accepted_flits;
  cur_.injected = sample.injected - last_.injected;
  cur_.delivered = sample.delivered - last_.delivered;
  cur_.deadlocks = sample.deadlocks - last_.deadlocks;
  cur_.credit_messages = sample.credit_messages - last_.credit_messages;
  last_ = sample;
  cur_.latency_count = window_hist_.count();
  cur_.latency_p99 = window_hist_.quantile(0.99);
  detect(cur_);
  windows_.push_back(cur_);
  cur_ = Window{};
  window_hist_.reset();
  cur_start_ = t + 1;
}

void OnlineStats::finish(Cycle now, const WindowSample& sample) {
  if (finished_) return;
  finished_ = true;
  if (now > cur_start_) close_window(now - 1, sample);
}

void OnlineStats::detect(Window& w) {
  const std::size_t index = windows_.size();  // index w will occupy

  // Signals. Occupancy starvation (from the limiter's status registers)
  // is the necessary condition: it separates genuine network saturation
  // from source-side overload, and is exactly what ALO's "at least one
  // completely free channel" rule keeps from happening.
  const bool starved =
      w.end.total_vcs != 0 &&
      static_cast<double>(w.end.free_vcs) <
          cfg_.free_vc_floor * static_cast<double>(w.end.total_vcs);
  const bool deficit =
      w.offered_flits > 0 &&
      static_cast<double>(w.accepted_flits) <
          cfg_.deficit_ratio * static_cast<double>(w.offered_flits);
  const bool blowup =
      baseline_p99_ > 0 && w.latency_count > 0 &&
      static_cast<double>(w.latency_p99) >
          cfg_.latency_blowup * static_cast<double>(baseline_p99_);
  const bool collapse =
      peak_accepted_ > 0 && w.accepted_flits * 2 < peak_accepted_;
  w.saturating = starved && (deficit || blowup || collapse);

  const bool settling = index < cfg_.settle_windows;
  if (!settling) {
    // Baselines are monotone (min / max), so post-saturation windows
    // can never corrupt them; settle windows are excluded because the
    // network is still filling.
    if (w.latency_count >= kBaselineMinDeliveries &&
        (baseline_p99_ == 0 || w.latency_p99 < baseline_p99_))
      baseline_p99_ = w.latency_p99;
    peak_accepted_ = std::max(peak_accepted_, w.accepted_flits);
  }

  if (settling || !w.saturating) {
    consecutive_ = 0;
    return;
  }
  ++consecutive_;
  if (!saturated_ && consecutive_ >= cfg_.onset_windows) {
    saturated_ = true;
    const std::size_t first = index + 1 - cfg_.onset_windows;
    onset_cycle_ = first == index ? w.start_cycle : windows_[first].start_cycle;
  }
}

}  // namespace wormsim::metrics
