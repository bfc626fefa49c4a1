#include "policy/policy_engine.h"

#include <string>

#include "common/check.h"

namespace s4d::policy {

const char* PolicyModeName(PolicyMode mode) {
  switch (mode) {
    case PolicyMode::kPaperDefault: return "paper-default";
    case PolicyMode::kAdaptive: return "adaptive";
  }
  return "?";
}

Result<PolicyConfig> ParsePolicyConfig(const ConfigParser& config) {
  PolicyConfig out;
  const std::string mode = config.StringOr("policy", "mode", "paper-default");
  if (mode == "paper-default") {
    out.mode = PolicyMode::kPaperDefault;
  } else if (mode == "adaptive") {
    out.mode = PolicyMode::kAdaptive;
  } else {
    return Status::InvalidArgument("policy.mode: unknown mode '" + mode +
                                   "' (paper-default | adaptive)");
  }

  if (out.mode == PolicyMode::kPaperDefault) {
    // paper-default means *no engine at all*; any other [policy] key would
    // silently do nothing, so reject the combination loudly.
    for (const auto& [full_key, value] : config.entries()) {
      if (full_key.rfind("policy.", 0) == 0 && full_key != "policy.mode") {
        return Status::InvalidArgument(
            "policy.mode = paper-default is incompatible with '" + full_key +
            "' (the policy engine is disabled; remove the key or pick "
            "mode = adaptive)");
      }
    }
    return out;
  }

  out.admission.ewma_alpha =
      config.DoubleOr("policy", "ewma_alpha", out.admission.ewma_alpha);
  if (out.admission.ewma_alpha <= 0.0 || out.admission.ewma_alpha > 1.0) {
    return Status::InvalidArgument("policy.ewma_alpha must be in (0, 1]");
  }

  out.admission.threshold_step = config.DurationOr(
      "policy", "threshold_step", out.admission.threshold_step);
  if (out.admission.threshold_step <= 0) {
    return Status::InvalidArgument("policy.threshold_step must be > 0");
  }
  out.admission.threshold_max = config.DurationOr(
      "policy", "threshold_max", out.admission.threshold_max);
  if (out.admission.threshold_max < out.admission.threshold_step) {
    return Status::InvalidArgument(
        "policy.threshold_max must be >= policy.threshold_step");
  }

  out.admission.pressure_max_queue = config.DoubleOr(
      "policy", "pressure_max_queue", out.admission.pressure_max_queue);
  if (out.admission.pressure_max_queue < 0.0) {
    return Status::InvalidArgument("policy.pressure_max_queue must be >= 0");
  }
  return out;
}

PolicyEngine::PolicyEngine(PolicyConfig config)
    : config_(config), controller_(config.admission) {
  S4D_CHECK(config_.mode != PolicyMode::kPaperDefault)
      << "paper-default mode must not construct a PolicyEngine";
}

void PolicyEngine::Attach(core::S4DCache& cache, obs::Observability* obs) {
  S4D_CHECK(cache_ == nullptr) << "PolicyEngine attached twice";
  cache_ = &cache;

  if (config_.admission.pressure_max_queue > 0.0) {
    controller_.SetPressureProbe(
        [this]() { return cache_->CacheTierMeanQueueDepth(); });
  }

  cache.identifier().SetAdmissionFilter(
      [this](const core::AdmissionContext& ctx) {
        return controller_.Admit(ctx.benefit, ctx.model_critical);
      });

  cache.SetRequestObserver([this](const core::RequestOutcome& outcome) {
    // Feedback only from requests the cache served alone: a split request's
    // latency mixes both tiers and says nothing about the cache's delivery.
    if (outcome.admitted && outcome.cache_bytes > 0 &&
        outcome.dserver_bytes == 0) {
      controller_.OnCompletion(outcome.benefit, outcome.predicted_dserver,
                               outcome.latency);
    }
  });

  cache.SetExtraAudit([this]() { AuditInvariants(); });

  if (obs != nullptr) {
    obs::MetricsRegistry& m = obs->metrics;
    m.SetGaugeFn("policy.admission_threshold_ns", [this] {
      return static_cast<double>(controller_.threshold());
    });
    m.SetGaugeFn("policy.ewma_gain", [this] { return controller_.ewma_gain(); });
    m.SetGaugeFn("policy.admits", [this] {
      return static_cast<double>(controller_.stats().admits);
    });
    m.SetGaugeFn("policy.threshold_rejects", [this] {
      return static_cast<double>(controller_.stats().threshold_rejects);
    });
    m.SetGaugeFn("policy.pressure_vetoes", [this] {
      return static_cast<double>(controller_.stats().pressure_vetoes);
    });
  }
}

}  // namespace s4d::policy
