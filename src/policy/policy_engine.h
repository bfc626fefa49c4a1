// PolicyEngine: the admission-policy subsystem's front door.
//
// Wires an AdmissionController into an S4DCache through the core's hook
// points (the core never depends on this library):
//
//   admission filter  — the Data Identifier's verdict passes through
//                       AdmissionController::Admit (SetAdmissionFilter):
//                       EWMA feedback threshold, LBICA pressure veto.
//   request observer  — every admitted, fully-cache-served completion is a
//                       feedback sample (SetRequestObserver).
//
// Eviction stays the paper's clean-LRU and destage stays the Rebuilder's
// coalesced file-order flush: neither hook is installed.
//
// With PolicyMode::kPaperDefault the engine must not be constructed at
// all — s4dsim skips it entirely, leaving every core hook null, which the
// core guarantees is byte-identical to the pre-policy behaviour. An
// attached engine whose threshold never leaves 0 and whose veto is
// unbounded reproduces the paper's decisions exactly (the equivalence test
// pins this).
#pragma once

#include <cstdint>

#include "common/config_parser.h"
#include "common/status.h"
#include "core/s4d_cache.h"
#include "obs/observability.h"
#include "policy/admission.h"

namespace s4d::policy {

enum class PolicyMode : std::uint8_t { kPaperDefault, kAdaptive };

const char* PolicyModeName(PolicyMode mode);

struct PolicyConfig {
  PolicyMode mode = PolicyMode::kPaperDefault;
  AdmissionControllerConfig admission;
};

// Parses the [policy] section:
//   mode               = paper-default | adaptive
//   ewma_alpha         = <0..1>
//   threshold_step     = <duration>
//   threshold_max      = <duration>
//   pressure_max_queue = <mean queue depth; 0 disables the veto>
// Unknown keys are rejected by the caller's schema validation; this
// function rejects invalid *values* and any non-mode key present alongside
// mode=paper-default (those keys would silently do nothing otherwise).
Result<PolicyConfig> ParsePolicyConfig(const ConfigParser& config);

class PolicyEngine {
 public:
  explicit PolicyEngine(PolicyConfig config);

  // Installs the admission filter and request observer into `cache`. Call
  // once, before traffic; the cache must outlive the engine's use. `obs`
  // (nullable) receives policy.* metrics.
  void Attach(core::S4DCache& cache, obs::Observability* obs = nullptr);

  const PolicyConfig& config() const { return config_; }
  const AdmissionController& admission() const { return controller_; }

  // Audits the controller's invariants; Attach() registers it as the
  // cache's extra audit so it also rides the paranoid-build periodic
  // audits.
  void AuditInvariants() const { controller_.AuditInvariants(); }

 private:
  PolicyConfig config_;
  core::S4DCache* cache_ = nullptr;
  AdmissionController controller_;
};

}  // namespace s4d::policy
