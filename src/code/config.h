// Configuration of a protocol stack build: which of the paper's techniques
// are applied.  Section 3 techniques (outlining, cloning + layout strategy,
// path-inlining) shape the code image; Section 2 "RISC-motivated" toggles
// change both functional behaviour and dynamic instruction counts.
//
// The six named configurations match the paper's test cases:
//   STD  none of the Section-3 techniques (but all Section-2 improvements)
//   OUT  STD + outlining
//   CLO  OUT + cloning with the bipartite layout
//   BAD  CLO, but cloning used to construct a pessimal i-cache layout
//   PIN  OUT + path-inlining
//   ALL  PIN + cloning with the bipartite layout
#pragma once

#include <cstdint>
#include <string>

namespace l96::code {

/// Address-assignment strategy used by the cloning engine (Section 3.2).
enum class LayoutKind : std::uint8_t {
  kLinkOrder,      ///< functions at link order (the STD/OUT baseline)
  kBipartite,      ///< path/library partitions, invocation order within each
  kLinear,         ///< strict invocation order, no partitioning
  kMicroPosition,  ///< trace-driven per-function placement minimizing
                   ///< replacement misses (the paper's losing comparator)
  kPessimal,       ///< adversarial layout maximizing i-cache conflicts (BAD)
  kRandom,         ///< uniformly random placement (ablation)
};

/// Outlining discipline (Section 3.1).  The paper's approach is
/// language-based and conservative: only annotated (PREDICT_FALSE) blocks
/// are outlined.  Profile-based optimizers are "aggressive rather than
/// conservative: any code that is not covered by the collected profile will
/// be outlined" — implemented here as the comparator.
enum class OutlineMode : std::uint8_t {
  kConservative,       ///< annotated error/init/cold-loop blocks only
  kProfileAggressive,  ///< everything absent from the profile
};

struct StackConfig {
  std::string name = "STD";

  // ---- Section 3 techniques -------------------------------------------
  bool outlining = false;       ///< move PREDICT_FALSE blocks out of line
  OutlineMode outline_mode = OutlineMode::kConservative;
  bool cloning = false;         ///< re-place mainline code via `layout`
  LayoutKind layout = LayoutKind::kLinkOrder;
  bool path_inlining = false;   ///< collapse declared paths into composites

  /// Cloning-time specialization (Section 3.2): skip the first prologue
  /// instructions where the Alpha calling convention allows it, and use
  /// pc-relative branches (no GOT load) for spatially-close callees.
  bool specialize_prologue = true;
  bool pc_relative_calls = true;
  /// Delay cloning until connection establishment (Section 3.2's "next
  /// logical step"): connection state becomes a compile-time constant in
  /// the clone, trading one clone per connection (locality of reference)
  /// for deeper specialization.  The paper implements boot-time cloning
  /// only; this is its discussed extension.
  bool clone_at_connect = false;

  // ---- Section 2 toggles ----------------------------------------------
  bool tcb_word_fields = true;        ///< bytes/shorts -> words in TCP state
  bool msg_refresh_shortcut = true;   ///< skip free()+malloc() on refresh
  bool usc_sparse_descriptors = true; ///< LANCE: direct sparse-memory access
  bool inline_map_cache_test = true;  ///< conditional inlining of map lookup
  bool avoid_int_division = true;     ///< 33% shift/add window update
  bool careful_inlining = true;       ///< the "various inlining" item
  bool minor_opts = true;             ///< Table 1's "other minor changes"
  bool header_prediction = false;     ///< BSD header prediction (off: it
                                      ///< hurts bi-directional connections)

  static StackConfig Std() { return with_name("STD"); }
  static StackConfig Out() {
    auto c = with_name("OUT");
    c.outlining = true;
    return c;
  }
  static StackConfig Clo() {
    auto c = Out();
    c.name = "CLO";
    c.cloning = true;
    c.layout = LayoutKind::kBipartite;
    return c;
  }
  static StackConfig Bad() {
    auto c = Clo();
    c.name = "BAD";
    c.layout = LayoutKind::kPessimal;
    return c;
  }
  static StackConfig Pin() {
    auto c = Out();
    c.name = "PIN";
    c.path_inlining = true;
    return c;
  }
  static StackConfig All() {
    auto c = Pin();
    c.name = "ALL";
    c.cloning = true;
    c.layout = LayoutKind::kBipartite;
    return c;
  }
  /// The pre-Section-2 stack of Table 2's "Original" column.
  static StackConfig Original() {
    auto c = with_name("ORIG");
    c.tcb_word_fields = false;
    c.msg_refresh_shortcut = false;
    c.usc_sparse_descriptors = false;
    c.inline_map_cache_test = false;
    c.avoid_int_division = false;
    c.careful_inlining = false;
    c.minor_opts = false;
    return c;
  }

 private:
  static StackConfig with_name(const char* n) {
    StackConfig c;
    c.name = n;
    return c;
  }
};

}  // namespace l96::code
