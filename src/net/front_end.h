// The receive front end: one receive-interrupt activation, shared by every
// inbound NIC (net::Host's and the LB's client-facing one).
//
// Guard (Section 3.3): with path-inlining the optimized inbound code
// handles only packets that really follow the assumed path; everything
// else takes the standalone slow-path code.  receive() classifies the
// frame — through the flow cache when one is installed, re-binding the
// flow through a resolver when the caller pins flows (the LB's Maglev
// table) — and the frame is slow when it has no predicted path or its
// cached prediction is stale (connection churn or a pool change
// invalidated the binding).  A cold miss that resolves is not slow: the
// scan ran, but the path is still the predicted one.  Under path-inlining
// a slow activation is bracketed in slow-path markers, and one hook
// observes every classified frame.  The lookup itself is never traced: a
// capture holds protocol code only, and the flow cache's FlowCacheCosts
// prices the lookup.
//
// Capture model: on the client, one steady-state roundtrip's protocol
// processing is exactly one receive-interrupt activation — the reply's
// inbound processing, the upcall that sends the next request (the full
// outbound chain), and the post-transmit work (descriptor completion,
// message refresh) that overlaps the frame's flight time.  arm_capture()
// records the next activation; tx_split() reports where in the event
// stream the (last) frame left for the wire, separating critical-path
// work from overlapped work.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "code/classifier.h"
#include "code/flow_cache.h"
#include "code/model.h"
#include "code/trace.h"
#include "protocols/lance.h"

namespace l96::net {

class FrontEnd {
 public:
  /// Observes every classified frame: the lookup result and whether the
  /// activation took the standalone slow path.
  using Hook =
      std::function<void(const code::FlowLookupResult&, bool slow_path)>;

  /// `recorder` and `registry` are the owning host's; `registry` must hold
  /// lance_send by the time a capture completes.
  FrontEnd(code::Recorder& recorder, const code::CodeRegistry& registry,
           bool path_inlining, code::PacketClassifier classifier);
  // Topologies and hooks hold its address.
  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// One receive activation: classify `frame`, run the guard, and hand the
  /// frame to `nic` inside the slow-path bracket and the armed capture.
  /// A front end classifies under path-inlining, and always when
  /// `resolver` pins flows; a frame too short for the flow tuple cannot
  /// be pinned and skips the lookup (no path: slow).
  void receive(std::span<const std::uint8_t> frame, proto::Lance& nic,
               const code::FlowCache::PathResolver* resolver = nullptr);

  /// The current activation's lookup and verdict — what the protocol code
  /// under the NIC acts on (meaningful while the front end classifies).
  const code::FlowLookupResult& lookup() const noexcept { return lr_; }
  bool slow() const noexcept { return slow_; }
  /// Classified frames that passed / failed the guard.
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }

  void set_hook(Hook h) { hook_ = std::move(h); }
  void set_classifier(code::PacketClassifier c) { classifier_ = std::move(c); }
  /// Put `cache` in front of the classifier's rule scan.
  void set_flow_cache(std::unique_ptr<code::FlowCache> cache) {
    cache_ = std::move(cache);
  }
  code::FlowCache* flow_cache() noexcept { return cache_.get(); }

  /// Record the next receive activation into `sink`.
  void arm_capture(code::PathTrace* sink);
  /// Drop an armed capture (the host crashed before it ran).
  void cancel_capture();
  /// Event index just past the last lance_send kick of the captured
  /// activation; the trace size when nothing was transmitted.
  std::size_t tx_split() const noexcept { return tx_split_; }
  bool capture_complete() const noexcept { return capture_done_; }

 private:
  code::FlowLookupResult classify(
      std::span<const std::uint8_t> frame,
      const code::FlowCache::PathResolver* resolver);

  code::Recorder& recorder_;
  const code::CodeRegistry& registry_;
  const bool path_inlining_;
  code::PacketClassifier classifier_;
  std::unique_ptr<code::FlowCache> cache_;
  Hook hook_;

  code::FlowLookupResult lr_;
  bool slow_ = false;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;

  code::PathTrace* sink_ = nullptr;
  std::size_t tx_split_ = 0;
  bool capture_done_ = false;
};

}  // namespace l96::net
