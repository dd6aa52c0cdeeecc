#include "net/front_end.h"

#include "protocols/stack_code.h"

namespace l96::net {

FrontEnd::FrontEnd(code::Recorder& recorder,
                   const code::CodeRegistry& registry, bool path_inlining,
                   code::PacketClassifier classifier)
    : recorder_(recorder),
      registry_(registry),
      path_inlining_(path_inlining),
      classifier_(std::move(classifier)) {}

code::FlowLookupResult FrontEnd::classify(
    std::span<const std::uint8_t> frame,
    const code::FlowCache::PathResolver* resolver) {
  code::FlowLookupResult lr;
  if (cache_ == nullptr) {
    lr.path_id = classifier_.classify(frame);
  } else if (resolver == nullptr) {
    lr = cache_->lookup(classifier_, frame);
  } else if (cache_->key_spec().key_of(frame).has_value()) {
    lr = cache_->lookup(classifier_, frame, *resolver);
  }
  return lr;
}

void FrontEnd::receive(std::span<const std::uint8_t> frame, proto::Lance& nic,
                       const code::FlowCache::PathResolver* resolver) {
  const bool capturing = sink_ != nullptr;
  if (capturing) {
    sink_->clear();
    recorder_.enable(sink_);
  }
  slow_ = false;
  if (path_inlining_ || resolver != nullptr) {
    lr_ = classify(frame, resolver);
    slow_ = !lr_.path_id.has_value() || lr_.stale;
    ++(slow_ ? misses_ : hits_);
    if (hook_) hook_(lr_, slow_);
  }
  const bool mark = slow_ && path_inlining_;
  if (mark) recorder_.marker(code::Marker::kSlowPathBegin);
  nic.rx_frame(frame);
  if (mark) recorder_.marker(code::Marker::kSlowPathEnd);
  if (!capturing) return;

  recorder_.disable();
  // The events after the last outbound lance_send "kick" block overlap the
  // frame's flight.
  const std::vector<code::Event>& events = sink_->events;
  tx_split_ = events.size();
  const code::FnId lance_send = registry_.require("lance_send");
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == code::EventKind::kBlock &&
        events[i].fn == lance_send &&
        events[i].block == proto::blk::kLanceSendKick) {
      tx_split_ = i + 1;
    }
  }
  sink_ = nullptr;
  capture_done_ = true;
}

void FrontEnd::arm_capture(code::PathTrace* sink) {
  sink_ = sink;
  capture_done_ = false;
  tx_split_ = 0;
}

void FrontEnd::cancel_capture() {
  if (sink_ == nullptr) return;
  recorder_.disable();
  sink_ = nullptr;
}

}  // namespace l96::net
