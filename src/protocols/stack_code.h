// Code-model descriptors for every traced function in both stacks.
//
// Block-id enums here MUST match the registration order in stack_code.cc
// (asserted there).  Enum order mirrors *source order* in the imagined C
// code: error-handling blocks are interleaved with the mainline, exactly
// the layout a compiler produces without outlining (Section 3.1's "basic
// blocks are generated simply in the order of the corresponding source
// code lines").  With outlining enabled, the image builder moves every
// kError/kInit/kColdLoop block out of line.
//
// Runtime protocol code refers to blocks through these enums; instruction
// counts live only in stack_code.cc.
#pragma once

#include <cstddef>

#include "code/config.h"
#include "code/flow_cache.h"
#include "code/model.h"
#include "code/trace.h"

namespace l96::proto {

namespace blk {

// --- library -----------------------------------------------------------
enum Bcopy : code::BlockId { kBcopyMain = 0 };
enum InCksum : code::BlockId {
  kCksumSetup = 0,
  kCksumUnrolled,  // cold: unrolled loop, entered only for large payloads
  kCksumSmall,     // residual byte loop (the latency case)
  kCksumFold,
};
enum Divq : code::BlockId { kDivqMain = 0, kDivqFullLoop };
enum MapResolve : code::BlockId {
  kMapCacheProbe = 0,
  kMapHash,
  kMapMiss,   // error: key not bound
  kMapChain,
};
enum Malloc : code::BlockId { kMallocFreelist = 0, kMallocRefill };
enum Free : code::BlockId { kFreeMain = 0 };
enum EvtSchedule : code::BlockId { kEvtSchedMain = 0 };
enum EvtCancel : code::BlockId { kEvtCancelMain = 0 };
enum MsgPush : code::BlockId { kMsgPushMain = 0 };
enum MsgPop : code::BlockId { kMsgPopMain = 0 };
enum MsgRefresh : code::BlockId {
  kRefreshCheck = 0,
  kRefreshDestroy,    // error: slow path free()
  kRefreshShortcut,
  kRefreshConstruct,  // error: slow path malloc()
};
enum PoolGet : code::BlockId { kPoolGetMain = 0 };
enum PoolPut : code::BlockId { kPoolPutMain = 0 };
enum SemP : code::BlockId { kSemPMain = 0, kSemPBlock };
enum SemV : code::BlockId { kSemVMain = 0, kSemVWake };
enum CSwitch : code::BlockId { kCSwitchMain = 0 };
enum StackAttach : code::BlockId { kStackAttachMain = 0 };

// --- LANCE / ETH --------------------------------------------------------
enum LanceSend : code::BlockId {
  kLanceSendGetDesc = 0,
  kLanceSendRingFull,  // error
  kLanceSendSetup,     // descriptor update (USC vs copy sized)
  kLanceSendKick,
  kLanceSendComplete,  // completion-status descriptor update
};
enum LanceIntr : code::BlockId {
  kLanceIntrStatus = 0,  // descriptor status read (USC vs copy sized)
  kLanceIntrRxErr,       // error
  kLanceIntrGetBuf,
  kLanceIntrDeliver,
  kLanceIntrGiveBack,    // descriptor returned to chip
};
enum EthSend : code::BlockId { kEthSendHdr = 0, kEthSendBadAddr };
enum EthDemux : code::BlockId {
  kEthDemuxParse = 0,
  kEthDemuxBadType,  // error
  kEthDemuxDispatch,
};

// --- TCP/IP stack ----------------------------------------------------------
enum TcpTestSend : code::BlockId { kTtSendMain = 0 };
enum TcpTestRecv : code::BlockId { kTtRecvMain = 0 };
enum TcpUsrSend : code::BlockId { kUsrSendMain = 0 };
enum TcpOutput : code::BlockId {
  kOutPreamble = 0,
  kOutNoBuffer,      // error
  kOutWinCheck,
  kOutSillyWindow,   // error
  kOutWinCalc,       // 35% mul/div vs 33% shift/add sized
  kOutBuildHdr,
  kOutPersist,       // error
  kOutCksum,
  kOutSendDown,
  kOutSetRexmt,
};
enum IpOutput : code::BlockId {
  kIpOutRoute = 0,
  kIpOutOptsErr,     // error
  kIpOutHdr,
  kIpOutFragment,    // cold loop
  kIpOutCksum,
  kIpOutSend,
};
enum VnetOutput : code::BlockId { kVnetOutMain = 0 };
enum IpDemux : code::BlockId {
  kIpDemuxParse = 0,
  kIpDemuxBadSum,    // error
  kIpDemuxVerify,
  kIpDemuxOptions,   // error
  kIpDemuxDispatch,
  kIpDemuxReass,     // cold loop
};
enum TcpDemux : code::BlockId {
  kTcpDemuxKey = 0,
  kTcpDemuxNoConn,     // error
  kTcpDemuxCacheTest,  // inlined one-entry cache test (conditional inlining)
  kTcpDemuxFound,
};
enum TcpInput : code::BlockId {
  kInValidate = 0,
  kInBadCksum,       // error
  kInHdrPred,        // header prediction (hurts bi-directional traffic)
  kInRst,            // error
  kInAckProc,
  kInRexmtEntry,     // error
  kInCwndUpdate,     // mul/div vs fully-open fast test sized
  kInWindowProbe,    // error
  kInSeqProc,
  kInOutOfOrder,     // error
  kInDataDeliver,
  kInFin,            // error
  kInAckDecision,
  kInSlowState,      // error: non-ESTABLISHED state processing
};
enum TcpTimer : code::BlockId {
  kTimerMain = 0,
  kTimerRexmt,      // error
  kTimerKeepalive,  // error: keepalive probe of a silent peer
  kTimerGiveup,     // error: SYN-retry exhaustion / keepalive reap
};

// --- RPC stack -------------------------------------------------------------
enum XRpcCall : code::BlockId { kXRpcCallMain = 0 };
enum XRpcReply : code::BlockId { kXRpcReplyMain = 0 };
enum MSelectCall : code::BlockId { kMSelCallMain = 0, kMSelCallBadProc };
enum MSelectDemux : code::BlockId { kMSelDemuxMain = 0, kMSelDemuxNoSvc };
enum VchanCall : code::BlockId { kVchanCallAlloc = 0, kVchanCallWait };
enum VchanDemux : code::BlockId { kVchanDemuxMain = 0 };
enum ChanCall : code::BlockId {
  kChanCallSeq = 0,
  kChanCallHdr,
  kChanCallSend,
  kChanCallTimeout,
  kChanCallBlock,
};
enum ChanDemux : code::BlockId {
  kChanDemuxMatch = 0,
  kChanDemuxDup,      // error
  kChanDemuxDeliver,
  kChanDemuxOld,      // error
  kChanDemuxRexmt,    // error
};
enum ChanServer : code::BlockId {
  kChanSrvDispatch = 0,
  kChanSrvDupReq,  // error
  kChanSrvReply,
};
enum BidPush : code::BlockId { kBidPushMain = 0 };
enum BidDemux : code::BlockId { kBidDemuxMain = 0, kBidDemuxReboot };
enum BlastPush : code::BlockId {
  kBlastPushSingle = 0,
  kBlastPushMulti,   // cold loop: fragmentation
};
enum BlastDemux : code::BlockId {
  kBlastDemuxParse = 0,
  kBlastDemuxNack,   // error
  kBlastDemuxSingle,
  kBlastDemuxReass,  // cold loop
};

// --- LB forwarding tier ----------------------------------------------------
enum LbClassify : code::BlockId {
  kLbClsParse = 0,
  kLbClsBadFrame,  // error: not an inbound TCP/IPv4 frame
  kLbClsFields,
};
enum LbHash : code::BlockId { kLbHashMain = 0 };
enum LbMaglev : code::BlockId {
  kLbMaglevProbe = 0,
  kLbMaglevEmptyPool,  // error: no alive backend to steer to
  kLbMaglevEntry,
};
enum LbTrack : code::BlockId {
  kLbTrackProbe = 0,
  kLbTrackStale,  // error: conn-track binding invalidated by a pool change
  kLbTrackBind,
};
enum LbRewrite : code::BlockId { kLbRewriteMac = 0 };
enum LbForward : code::BlockId {
  kLbForwardTx = 0,
  kLbForwardLinkDown,  // error: backend leg dark at transmit time
};

// --- Packet classifier (tuple-space lookup at scale) -----------------------
// The scaled classifier's own code: the flow-cache front end plus the
// tuple-space lookup (code/classifier.h).  Function names are prefixed
// "classify_" so CodeImage::export_regions yields per-function owners a
// MissProfiler report can aggregate into one `classify` owner group.
enum ClsCache : code::BlockId {
  kClsCacheProbe = 0,
  kClsCacheHit,
  kClsCacheMiss,   // error: binding absent, full classification runs
  kClsCacheStale,  // error: churn-invalidated binding (slow-path packet)
};
enum ClsLookup : code::BlockId {
  kClsLookupSetup = 0,
  kClsLookupMiss,  // error: no path matched the frame
};
enum ClsHash : code::BlockId { kClsHashFields = 0, kClsHashMix };
enum ClsProbe : code::BlockId {
  kClsProbeBucket = 0,
  kClsProbeEmpty,  // error: bucket empty, probe moves to the next tuple
};
enum ClsVerify : code::BlockId {
  kClsVerifyRule = 0,
  kClsVerifyReject,  // error: candidate failed rule verification
};
enum ClsLinear : code::BlockId {
  kClsLinearRule = 0,
  kClsLinearMiss,  // error: every path tried, none matched
};

}  // namespace blk

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

void register_common_code(code::CodeRegistry& reg,
                          const code::StackConfig& cfg);
void register_tcpip_code(code::CodeRegistry& reg,
                         const code::StackConfig& cfg);
void register_rpc_code(code::CodeRegistry& reg, const code::StackConfig& cfg);
/// The LB forwarding tier: classify -> conn-track -> rewrite -> forward,
/// with the Maglev hash+lookup called only on a track miss (so the miss
/// cost lands in the slow/rebind activation, like any other cold path).
void register_lb_code(code::CodeRegistry& reg, const code::StackConfig& cfg);
/// The packet classifier's lookup code: flow-cache probe, tuple-space hash/
/// probe/verify, and the legacy linear scan.  Only the registry
/// harness::measure_classifier_costs builds carries it; host registries
/// never do, so protocol images and their measured numbers are unchanged.
void register_classifier_code(code::CodeRegistry& reg,
                              const code::StackConfig& cfg);

/// Simulated base address of the flow-cache entry array (distinct from the
/// message arena, the conflict-data base, and the classifier's tuple
/// tables at code::PacketClassifier::kTableBase).
inline constexpr std::uint64_t kFlowCacheBase = 0x2400'0000ULL;
/// Simulated address of flow-cache slot `slot` (32-byte entries).
inline constexpr std::uint64_t flow_cache_entry_addr(std::size_t slot) {
  return kFlowCacheBase + 32ull * slot;
}

/// Emit the event stream of one full flow-cache lookup (classify_cache
/// probe at `cache_entry_addr`, then — on a miss or stale hit — the scan
/// and the memoizing store).  The scan is the tuple engine's hash/probe/
/// verify calls driven by `log`, or the linear engine's per-rule blocks.
/// `lr` is the lookup's result; the probe log must come from the same
/// lookup's scan (empty for a linear-engine scan or a fresh hit).  The
/// registry must have register_classifier_code applied.
void trace_classification(code::Recorder& rec, const code::CodeRegistry& reg,
                          const code::FlowLookupResult& lr,
                          const code::ClassifyProbeLog& log,
                          std::uint64_t cache_entry_addr);

/// Path specs for path-inlining (members must already be registered).
code::PathSpec tcpip_output_path(const code::CodeRegistry& reg);
code::PathSpec tcpip_input_path(const code::CodeRegistry& reg);
code::PathSpec rpc_output_path(const code::CodeRegistry& reg);
code::PathSpec rpc_input_path(const code::CodeRegistry& reg);
/// The LB fast forwarding composite (pinned flow, fresh conn-track hit).
code::PathSpec lb_forward_path(const code::CodeRegistry& reg);

/// Flow-key field specs for the classifier flow cache (code/flow_cache.h):
/// which raw-frame fields identify a flow on each stack.
///
/// TCP/IP: source IP (the peer), source port, destination port — the
/// inbound half of the connection 4-tuple (the local IP is constant per
/// host).  key_of_values() order: {remote_ip, remote_port, local_port}.
code::FlowKeySpec tcpip_flow_key_spec();
/// RPC: CHAN channel id + MSELECT procedure id of single-fragment frames.
/// key_of_values() order: {channel, procedure}.
code::FlowKeySpec rpc_flow_key_spec();

}  // namespace l96::proto
