#include "policy/admission.h"

#include <algorithm>

#include "common/check.h"

namespace s4d::policy {

bool AdmissionController::Admit(SimTime benefit, bool model_critical) {
  ++stats_.decisions;
  // LBICA-style veto: a saturated cache tier admits nothing until the
  // backlog drains through both tiers.
  if (config_.pressure_max_queue > 0.0 && pressure_probe_ &&
      pressure_probe_() > config_.pressure_max_queue) {
    ++stats_.pressure_vetoes;
    return false;
  }
  if (!model_critical) return false;
  if (benefit <= threshold_) {
    ++stats_.threshold_rejects;
    return false;
  }
  ++stats_.admits;
  return true;
}

void AdmissionController::OnCompletion(SimTime predicted_benefit,
                                       SimTime predicted_dserver,
                                       SimTime latency) {
  if (predicted_benefit <= 0) return;
  ++stats_.feedback_samples;
  // Realized gain: what the DServers were predicted to take minus what the
  // cache path actually took. Ratio of 1 = the model's promise held.
  const double realized =
      static_cast<double>(predicted_dserver) - static_cast<double>(latency);
  // Asymmetric clamp: one request stuck behind a flush batch can realize a
  // hugely negative gain, but it must weigh no more than a fully-kept
  // promise weighs positively — otherwise rare stragglers drag the EWMA
  // below the raise band on workloads the cache is clearly winning.
  const double ratio = std::clamp(
      realized / static_cast<double>(predicted_benefit), -1.0, 2.0);
  ewma_gain_ =
      (1.0 - config_.ewma_alpha) * ewma_gain_ + config_.ewma_alpha * ratio;
  if (stats_.feedback_samples < config_.warmup_samples) return;
  // Fixed-step integer control keeps the threshold deterministic: the
  // EWMA chooses the direction, never the magnitude.
  if (ewma_gain_ < kLowGain && threshold_ < config_.threshold_max) {
    threshold_ =
        std::min(threshold_ + config_.threshold_step, config_.threshold_max);
    ++stats_.threshold_raises;
  } else if (ewma_gain_ > kHighGain && threshold_ > 0) {
    threshold_ = std::max<SimTime>(threshold_ - config_.threshold_step, 0);
    ++stats_.threshold_decays;
  }
}

void AdmissionController::AuditInvariants() const {
  S4D_CHECK(threshold_ >= 0 && threshold_ <= config_.threshold_max)
      << "admission threshold out of bounds: " << threshold_;
  S4D_CHECK(stats_.admits + stats_.threshold_rejects +
                stats_.pressure_vetoes <=
            stats_.decisions)
      << "admission counters exceed decisions";
}

}  // namespace s4d::policy
