// Code-model descriptors: the "compiled shape" of every traced function.
//
// Instruction counts are calibrated constants (DESIGN.md §2): they are
// chosen so that (a) the Section-2 toggles change dynamic counts by the
// amounts in the paper's Table 1, and (b) the STD dynamic trace lengths and
// static path sizes land near the paper's Tables 7 and 9.  The *relative*
// results of every experiment come from the simulated memory hierarchy, not
// from these constants.
//
// Block declaration order mirrors source order: error blocks interleave
// with the mainline (see stack_code.h), so without outlining the executed
// path jumps over inline cold code — gaps and taken branches the outlining
// pass then removes.
#include "protocols/stack_code.h"

#include <cassert>

#include "protocols/codegen.h"
#include "protocols/eth.h"
#include "protocols/ip.h"
#include "protocols/rpc/bid.h"
#include "protocols/rpc/blast.h"
#include "protocols/rpc/chan.h"

namespace l96::proto {

using code::BlockClass;
using code::CodeRegistry;
using code::FnKind;
using code::StackConfig;

namespace {
constexpr BlockClass kErr = BlockClass::kError;
constexpr BlockClass kCold = BlockClass::kColdLoop;
using BO = BlockOpts;
std::uint16_t u16(int v) { return static_cast<std::uint16_t>(v); }
}  // namespace

void register_common_code(CodeRegistry& reg, const StackConfig& cfg) {
  // --- generic library ----------------------------------------------------
  {
    FnBuilder f("bcopy", FnKind::kLibrary);
    f.leaf();
    f.block("copy", 45, BlockClass::kMainline, BO{.stack_reads = 2});
    f.add_to(reg);
  }
  {
    FnBuilder f("in_cksum", FnKind::kLibrary);
    f.prologue(4).epilogue(3);
    [[maybe_unused]] auto b0 = f.block("setup", 22);
    [[maybe_unused]] auto b1 = f.block("unrolled_loop", 200, kCold);
    [[maybe_unused]] auto b2 = f.block("small_loop", 138, BlockClass::kMainline,
                      BO{.stack_reads = 2});
    [[maybe_unused]] auto b3 = f.block("fold", 18);
    assert(b0 == blk::kCksumSetup && b1 == blk::kCksumUnrolled &&
           b2 == blk::kCksumSmall && b3 == blk::kCksumFold);
    f.add_to(reg);
  }
  {
    // Software division: the Alpha has no integer divide instruction, so
    // this routine sits on the critical path whenever TCP divides.
    FnBuilder f("divq", FnKind::kPath);
    f.prologue(4).epilogue(3);
    [[maybe_unused]] auto b0 = f.block("divide", 48, BlockClass::kMainline,
                      BO{.stack_writes = 2});
    [[maybe_unused]] auto b1 = f.block("full_loop", 150, kCold);
    assert(b0 == blk::kDivqMain && b1 == blk::kDivqFullLoop);
    f.add_to(reg);
  }
  {
    FnBuilder f("map_resolve", FnKind::kLibrary);
    f.prologue(6).epilogue(5);
    [[maybe_unused]] auto b0 = f.block("cache_probe", 32, BlockClass::kMainline,
                      BO{.stack_reads = 1});
    [[maybe_unused]] auto b1 = f.block("hash", 68);
    [[maybe_unused]] auto b2 = f.block("miss", 54, kErr);
    [[maybe_unused]] auto b3 = f.block("chain", 80, BlockClass::kMainline,
                      BO{.stack_reads = 2});
    assert(b0 == blk::kMapCacheProbe && b1 == blk::kMapHash &&
           b2 == blk::kMapMiss && b3 == blk::kMapChain);
    f.add_to(reg);
  }
  {
    FnBuilder f("malloc", FnKind::kPath);
    f.prologue(6).epilogue(5);
    [[maybe_unused]] auto b0 = f.block("freelist", 52, BlockClass::kMainline,
                      BO{.stack_reads = 2, .stack_writes = 1});
    [[maybe_unused]] auto b1 = f.block("refill", 150, kErr);
    assert(b0 == blk::kMallocFreelist && b1 == blk::kMallocRefill);
    f.add_to(reg);
  }
  {
    FnBuilder f("free", FnKind::kPath);
    f.prologue(5).epilogue(4);
    f.block("main", 60, BlockClass::kMainline, BO{.stack_writes = 2});
    f.add_to(reg);
  }
  {
    FnBuilder f("evt_schedule", FnKind::kPath);
    f.prologue(6).epilogue(5);
    f.block("main", 135, BlockClass::kMainline,
            BO{.stack_reads = 3, .stack_writes = 3});
    f.add_to(reg);
  }
  {
    FnBuilder f("evt_cancel", FnKind::kPath);
    f.prologue(5).epilogue(4);
    f.block("main", 90, BlockClass::kMainline, BO{.stack_reads = 2});
    f.add_to(reg);
  }
  {
    // "Various inlining" (Table 1): with careful_inlining the message
    // header operations compile to small leaf routines.
    FnBuilder f("msg_push", FnKind::kLibrary);
    if (cfg.careful_inlining) {
      f.leaf();
      f.block("main", 26, BlockClass::kMainline, BO{.stack_writes = 1});
    } else {
      f.prologue(6).epilogue(5);
      f.block("main", 38, BlockClass::kMainline, BO{.stack_writes = 2});
    }
    f.add_to(reg);
  }
  {
    FnBuilder f("msg_pop", FnKind::kLibrary);
    if (cfg.careful_inlining) {
      f.leaf();
      f.block("main", 26, BlockClass::kMainline, BO{.stack_reads = 1});
    } else {
      f.prologue(6).epilogue(5);
      f.block("main", 38, BlockClass::kMainline, BO{.stack_reads = 2});
    }
    f.add_to(reg);
  }
  {
    // Message refresh (Section 2.2.2): the slow path destroys and
    // re-creates the buffer (free + malloc); the short-circuit reuses it.
    FnBuilder f("msg_refresh", FnKind::kPath);
    f.prologue(5).epilogue(4);
    [[maybe_unused]] auto b0 = f.block("check", 22, BlockClass::kMainline,
                      BO{.stack_reads = 1});
    [[maybe_unused]] auto b1 = f.block("destroy", 64, kErr, BO{.calls = 1});
    [[maybe_unused]] auto b2 = f.block("shortcut", 18);
    [[maybe_unused]] auto b3 = f.block("construct", 50, kErr, BO{.calls = 1});
    assert(b0 == blk::kRefreshCheck && b1 == blk::kRefreshDestroy &&
           b2 == blk::kRefreshShortcut && b3 == blk::kRefreshConstruct);
    f.add_to(reg);
  }
  {
    FnBuilder f("pool_get", FnKind::kLibrary);
    f.leaf();
    f.block("main", 32, BlockClass::kMainline, BO{.stack_reads = 1});
    f.add_to(reg);
  }
  {
    FnBuilder f("pool_put", FnKind::kLibrary);
    f.leaf();
    f.block("main", 32, BlockClass::kMainline, BO{.stack_writes = 1});
    f.add_to(reg);
  }
  {
    FnBuilder f("sem_p", FnKind::kLibrary);
    f.prologue(5).epilogue(4);
    [[maybe_unused]] auto b0 = f.block("main", 32, BlockClass::kMainline,
                      BO{.stack_writes = 1});
    [[maybe_unused]] auto b1 = f.block("block", 50, BlockClass::kMainline,
                      BO{.stack_writes = 2});
    assert(b0 == blk::kSemPMain && b1 == blk::kSemPBlock);
    f.add_to(reg);
  }
  {
    FnBuilder f("sem_v", FnKind::kLibrary);
    f.prologue(5).epilogue(4);
    [[maybe_unused]] auto b0 = f.block("main", 28);
    [[maybe_unused]] auto b1 = f.block("wake", 45, BlockClass::kMainline,
                      BO{.stack_reads = 2});
    assert(b0 == blk::kSemVMain && b1 == blk::kSemVWake);
    f.add_to(reg);
  }
  {
    // Context switch + continuation dispatch (Section 2.2.1).
    FnBuilder f("cswitch", FnKind::kPath);
    f.prologue(8, 0).epilogue(7).frame(128);
    f.block("main", 160, BlockClass::kMainline,
            BO{.stack_reads = 8, .stack_writes = 8});
    f.add_to(reg);
  }
  {
    FnBuilder f("stack_attach", FnKind::kPath);
    f.leaf();
    f.block("main", 40, BlockClass::kMainline, BO{.stack_reads = 1});
    f.add_to(reg);
  }

  // --- LANCE driver ----------------------------------------------------------
  const bool usc = cfg.usc_sparse_descriptors;
  {
    FnBuilder f("lance_send", FnKind::kPath);
    f.prologue(7).epilogue(6).frame(96);
    [[maybe_unused]] auto b0 = f.block("get_desc", 38, BlockClass::kMainline,
                      BO{.stack_reads = 2});
    [[maybe_unused]] auto b1 = f.block("ring_full", 90, kErr);
    // Descriptor update: USC writes the changed fields directly in sparse
    // memory; the copy discipline moves all 20 bytes in and out.
    [[maybe_unused]] auto b2 = f.block("desc_setup", u16(usc ? 36 : 82),
                      BlockClass::kMainline, BO{.stack_writes = 2});
    [[maybe_unused]] auto b3 = f.block("kick", u16(cfg.minor_opts ? 18 : 29));
    [[maybe_unused]] auto b4 = f.block("desc_complete", u16(usc ? 28 : 70));
    assert(b0 == blk::kLanceSendGetDesc && b1 == blk::kLanceSendRingFull &&
           b2 == blk::kLanceSendSetup && b3 == blk::kLanceSendKick &&
           b4 == blk::kLanceSendComplete);
    f.add_to(reg);
  }
  {
    FnBuilder f("lance_intr", FnKind::kPath);
    f.prologue(8, 0).epilogue(7).frame(96);
    [[maybe_unused]] auto b0 = f.block("desc_status", u16(usc ? 32 : 74),
                      BlockClass::kMainline, BO{.stack_reads = 1});
    [[maybe_unused]] auto b1 = f.block("rx_err", 108, kErr);
    [[maybe_unused]] auto b2 = f.block("get_buf", 30, BlockClass::kMainline, BO{.calls = 1});
    [[maybe_unused]] auto b3 = f.block("deliver", 22, BlockClass::kMainline, BO{.calls = 1});
    [[maybe_unused]] auto b4 = f.block("desc_giveback", u16(usc ? 26 : 67),
                      BlockClass::kMainline, BO{.stack_writes = 1});
    assert(b0 == blk::kLanceIntrStatus && b1 == blk::kLanceIntrRxErr &&
           b2 == blk::kLanceIntrGetBuf && b3 == blk::kLanceIntrDeliver &&
           b4 == blk::kLanceIntrGiveBack);
    f.add_to(reg);
  }
  {
    FnBuilder f("eth_send", FnKind::kPath);
    f.prologue(6).epilogue(5);
    [[maybe_unused]] auto b0 = f.block("hdr", u16(cfg.minor_opts ? 42 : 48),
                      BlockClass::kMainline,
                      BO{.stack_writes = 2, .calls = 2});
    [[maybe_unused]] auto b1 = f.block("bad_addr", 34, kErr);
    assert(b0 == blk::kEthSendHdr && b1 == blk::kEthSendBadAddr);
    f.add_to(reg);
  }
  {
    FnBuilder f("eth_demux", FnKind::kPath);
    f.prologue(6).epilogue(5);
    [[maybe_unused]] auto b0 = f.block("parse", 45, BlockClass::kMainline,
                      BO{.stack_reads = 2, .calls = 1});
    [[maybe_unused]] auto b1 = f.block("bad_type", 30, kErr);
    // Demux dispatch: with conditional inlining the one-entry map cache
    // test is expanded inline (+11); otherwise the general map_resolve
    // function is called.
    [[maybe_unused]] auto b2 = f.block("dispatch", u16(cfg.inline_map_cache_test ? 31 : 20),
                      BlockClass::kMainline, BO{.calls = 2});
    assert(b0 == blk::kEthDemuxParse && b1 == blk::kEthDemuxBadType &&
           b2 == blk::kEthDemuxDispatch);
    f.add_to(reg);
  }
}

void register_tcpip_code(CodeRegistry& reg, const StackConfig& cfg) {
  const bool word = cfg.tcb_word_fields;   // bytes/shorts -> words
  const bool nodiv = cfg.avoid_int_division;
  auto w = [&](int base, int delta) { return u16(word ? base : base + delta); };

  {
    FnBuilder f("tcptest_send", FnKind::kPath);
    f.prologue(6).epilogue(5);
    f.block("main", u16(cfg.minor_opts ? 52 : 64), BlockClass::kMainline,
            BO{.stack_writes = 1, .calls = 1});
    f.add_to(reg);
  }
  {
    FnBuilder f("tcptest_recv", FnKind::kPath);
    f.prologue(5).epilogue(4);
    f.block("main", 60, BlockClass::kMainline, BO{.stack_reads = 1});
    f.add_to(reg);
  }
  {
    FnBuilder f("tcp_usrsend", FnKind::kPath);
    f.prologue(7).epilogue(6).pin_discount(60).connect_discount(80);
    f.block("main", w(134, 16), BlockClass::kMainline,
            BO{.stack_reads = 2, .stack_writes = 2, .calls = 1});
    f.add_to(reg);
  }
  {
    FnBuilder f("tcp_output", FnKind::kPath);
    f.prologue(9, 0).epilogue(8).frame(160).pin_discount(50).connect_discount(100);
    [[maybe_unused]] auto b0 = f.block("preamble", w(210, 28), BlockClass::kMainline,
                      BO{.stack_reads = 4, .stack_writes = 3});
    [[maybe_unused]] auto b1 = f.block("no_buffer", 90, kErr);
    [[maybe_unused]] auto b2 = f.block("win_check", 85, BlockClass::kMainline,
                      BO{.stack_reads = 1});
    [[maybe_unused]] auto b3 = f.block("silly_window", 70, kErr);
    // Window-update threshold: 35% needs multiply+divide (and the divide
    // is a function call on the Alpha); 33% is a shift and an add.
    [[maybe_unused]] auto b4 = nodiv ? f.block("win_calc", 24)
                    : f.block("win_calc", 58, BlockClass::kMainline,
                              BO{.imuls = 2, .calls = 1});
    [[maybe_unused]] auto b5 = f.block("build_hdr", w(262, 32), BlockClass::kMainline,
                      BO{.stack_writes = 5});
    [[maybe_unused]] auto b6 = f.block("persist", 80, kErr);
    [[maybe_unused]] auto b7 = f.block("cksum", 30, BlockClass::kMainline, BO{.calls = 1});
    [[maybe_unused]] auto b8 = f.block("send_down", 42, BlockClass::kMainline, BO{.calls = 1});
    [[maybe_unused]] auto b9 = f.block("set_rexmt", 36, BlockClass::kMainline, BO{.calls = 1});
    assert(b0 == blk::kOutPreamble && b1 == blk::kOutNoBuffer &&
           b2 == blk::kOutWinCheck && b3 == blk::kOutSillyWindow &&
           b4 == blk::kOutWinCalc && b5 == blk::kOutBuildHdr &&
           b6 == blk::kOutPersist && b7 == blk::kOutCksum &&
           b8 == blk::kOutSendDown && b9 == blk::kOutSetRexmt);
    f.add_to(reg);
  }
  {
    FnBuilder f("ip_output", FnKind::kPath);
    f.prologue(7).epilogue(6).pin_discount(60).connect_discount(120);
    [[maybe_unused]] auto b0 = f.block("route", u16(cfg.minor_opts ? 124 : 134),
                      BlockClass::kMainline, BO{.stack_reads = 2});
    [[maybe_unused]] auto b1 = f.block("opts_err", 50, kErr);
    [[maybe_unused]] auto b2 = f.block("hdr", 165, BlockClass::kMainline,
                      BO{.stack_writes = 4});
    [[maybe_unused]] auto b3 = f.block("fragment", 260, kCold, BO{.calls = 2});
    [[maybe_unused]] auto b4 = f.block("cksum", 86);  // header checksum, inlined as in BSD
    [[maybe_unused]] auto b5 = f.block("send", 30, BlockClass::kMainline, BO{.calls = 1});
    assert(b0 == blk::kIpOutRoute && b1 == blk::kIpOutOptsErr &&
           b2 == blk::kIpOutHdr && b3 == blk::kIpOutFragment &&
           b4 == blk::kIpOutCksum && b5 == blk::kIpOutSend);
    f.add_to(reg);
  }
  {
    // VNET output processing is a pure pass-through; with path-inlining the
    // compiler removes it almost entirely.
    FnBuilder f("vnet_output", FnKind::kPath);
    f.prologue(4).epilogue(3).pin_discount(700);
    f.block("main", 25, BlockClass::kMainline, BO{.calls = 1});
    f.add_to(reg);
  }
  {
    FnBuilder f("ip_demux", FnKind::kPath);
    f.prologue(7).epilogue(6).pin_discount(50);
    [[maybe_unused]] auto b0 = f.block("parse", 146, BlockClass::kMainline,
                      BO{.stack_reads = 3, .calls = 1});
    [[maybe_unused]] auto b1 = f.block("bad_sum", 40, kErr);
    [[maybe_unused]] auto b2 = f.block("verify", 82, BlockClass::kMainline, BO{.calls = 1});
    [[maybe_unused]] auto b3 = f.block("options", 90, kErr);
    [[maybe_unused]] auto b4 = f.block("dispatch", u16(cfg.inline_map_cache_test ? 59 : 48),
                      BlockClass::kMainline, BO{.calls = 2});
    [[maybe_unused]] auto b5 = f.block("reassembly", 220, kCold, BO{.calls = 1});
    assert(b0 == blk::kIpDemuxParse && b1 == blk::kIpDemuxBadSum &&
           b2 == blk::kIpDemuxVerify && b3 == blk::kIpDemuxOptions &&
           b4 == blk::kIpDemuxDispatch && b5 == blk::kIpDemuxReass);
    f.add_to(reg);
  }
  {
    FnBuilder f("tcp_demux", FnKind::kPath);
    f.prologue(6).epilogue(5).pin_discount(50).connect_discount(150);
    [[maybe_unused]] auto b0 = f.block("key", w(108, 12), BlockClass::kMainline,
                      BO{.stack_reads = 2});
    [[maybe_unused]] auto b1 = f.block("no_conn", 50, kErr);
    [[maybe_unused]] auto b2 = f.block("cache_test", u16(cfg.inline_map_cache_test ? 11 : 4),
                      BlockClass::kMainline, BO{.calls = 1});
    [[maybe_unused]] auto b3 = f.block("found", 40, BlockClass::kMainline, BO{.calls = 1});
    assert(b0 == blk::kTcpDemuxKey && b1 == blk::kTcpDemuxNoConn &&
           b2 == blk::kTcpDemuxCacheTest && b3 == blk::kTcpDemuxFound);
    f.add_to(reg);
  }
  {
    FnBuilder f("tcp_input", FnKind::kPath);
    f.prologue(9, 0).epilogue(8).frame(192).pin_discount(40).connect_discount(80);
    [[maybe_unused]] auto b0 = f.block("validate", w(238, 48), BlockClass::kMainline,
                      BO{.stack_reads = 4});
    [[maybe_unused]] auto b1 = f.block("bad_cksum", 60, kErr);
    [[maybe_unused]] auto b2 = f.block("hdr_pred", u16(cfg.header_prediction ? 16 : 1),
                      BlockClass::kMainline);
    [[maybe_unused]] auto b3 = f.block("rst", 110, kErr);
    [[maybe_unused]] auto b4 = f.block("ack_proc", w(350, 84), BlockClass::kMainline,
                      BO{.stack_reads = 4, .stack_writes = 3});
    [[maybe_unused]] auto b5 = f.block("rexmt_entry", 160, kErr, BO{.calls = 1});
    // Congestion-window update: in the latency-sensitive common case the
    // window is fully open; testing for that avoids a multiply and the
    // divide-routine call.
    [[maybe_unused]] auto b6 = nodiv ? f.block("cwnd_update", 16)
                    : f.block("cwnd_update", 34, BlockClass::kMainline,
                              BO{.imuls = 1});
    [[maybe_unused]] auto b7 = f.block("window_probe", 80, kErr);
    [[maybe_unused]] auto b8 = f.block("seq_proc", w(266, 58), BlockClass::kMainline,
                      BO{.stack_reads = 3, .stack_writes = 2});
    [[maybe_unused]] auto b9 = f.block("out_of_order", 190, kErr, BO{.calls = 1});
    [[maybe_unused]] auto b10 = f.block("data_deliver", 92, BlockClass::kMainline,
                       BO{.calls = 2});
    [[maybe_unused]] auto b11 = f.block("fin", 140, kErr, BO{.calls = 1});
    [[maybe_unused]] auto b12 = f.block("ack_decision", w(100, 46), BlockClass::kMainline,
                       BO{.calls = 1});
    [[maybe_unused]] auto b13 = f.block("slow_state", 230, kErr, BO{.calls = 2});
    assert(b0 == blk::kInValidate && b1 == blk::kInBadCksum &&
           b2 == blk::kInHdrPred && b3 == blk::kInRst &&
           b4 == blk::kInAckProc && b5 == blk::kInRexmtEntry &&
           b6 == blk::kInCwndUpdate && b7 == blk::kInWindowProbe &&
           b8 == blk::kInSeqProc && b9 == blk::kInOutOfOrder &&
           b10 == blk::kInDataDeliver && b11 == blk::kInFin &&
           b12 == blk::kInAckDecision && b13 == blk::kInSlowState);
    f.add_to(reg);
  }
  {
    FnBuilder f("tcp_timer", FnKind::kPath);
    f.prologue(7).epilogue(6);
    [[maybe_unused]] auto b0 = f.block("main", 84, BlockClass::kMainline, BO{.calls = 1});
    [[maybe_unused]] auto b1 = f.block("rexmt", 154, kErr, BO{.calls = 1});
    // Failure-domain survival paths: both outlined error code, priced like
    // the retransmit path so the burst pricer charges the real i-cache cost
    // of a reconnect storm.
    [[maybe_unused]] auto b2 = f.block("keepalive", 96, kErr, BO{.calls = 1});
    [[maybe_unused]] auto b3 = f.block("giveup", 72, kErr, BO{.calls = 1});
    assert(b0 == blk::kTimerMain && b1 == blk::kTimerRexmt &&
           b2 == blk::kTimerKeepalive && b3 == blk::kTimerGiveup);
    f.add_to(reg);
  }
}

void register_rpc_code(CodeRegistry& reg, const StackConfig& cfg) {
  {
    FnBuilder f("xrpctest_call", FnKind::kPath);
    f.prologue(6).epilogue(5);
    f.block("main", 122, BlockClass::kMainline,
            BO{.stack_writes = 2, .calls = 1});
    f.add_to(reg);
  }
  {
    FnBuilder f("xrpctest_reply", FnKind::kPath);
    f.prologue(5).epilogue(4);
    f.block("main", 92, BlockClass::kMainline, BO{.stack_reads = 1});
    f.add_to(reg);
  }
  {
    FnBuilder f("mselect_call", FnKind::kPath);
    f.prologue(6).epilogue(5).pin_discount(80);
    [[maybe_unused]] auto b0 = f.block("main", 161, BlockClass::kMainline,
                      BO{.stack_writes = 2, .calls = 1});
    [[maybe_unused]] auto b1 = f.block("bad_proc", 76, kErr);
    assert(b0 == blk::kMSelCallMain && b1 == blk::kMSelCallBadProc);
    f.add_to(reg);
  }
  {
    FnBuilder f("mselect_demux", FnKind::kPath);
    f.prologue(6).epilogue(5).pin_discount(80);
    [[maybe_unused]] auto b0 = f.block("main", 131, BlockClass::kMainline, BO{.calls = 1});
    [[maybe_unused]] auto b1 = f.block("no_svc", 66, kErr);
    assert(b0 == blk::kMSelDemuxMain && b1 == blk::kMSelDemuxNoSvc);
    f.add_to(reg);
  }
  {
    FnBuilder f("vchan_call", FnKind::kPath);
    f.prologue(7).epilogue(6).pin_discount(70);
    [[maybe_unused]] auto b0 = f.block("alloc", 207, BlockClass::kMainline,
                      BO{.stack_reads = 2, .stack_writes = 2, .calls = 1});
    [[maybe_unused]] auto b1 = f.block("wait_chan", 131, kErr, BO{.calls = 1});
    assert(b0 == blk::kVchanCallAlloc && b1 == blk::kVchanCallWait);
    f.add_to(reg);
  }
  {
    FnBuilder f("vchan_demux", FnKind::kPath);
    f.prologue(5).epilogue(4).pin_discount(80);
    [[maybe_unused]] auto b0 = f.block("main", 116, BlockClass::kMainline, BO{.calls = 1});
    assert(b0 == blk::kVchanDemuxMain);
    f.add_to(reg);
  }
  {
    FnBuilder f("chan_call", FnKind::kPath);
    f.prologue(8, 0).epilogue(7).frame(128).pin_discount(50).connect_discount(90);
    [[maybe_unused]] auto b0 = f.block("seq", 213, BlockClass::kMainline,
                      BO{.stack_writes = 3});
    [[maybe_unused]] auto b1 = f.block("hdr", 156, BlockClass::kMainline,
                      BO{.stack_writes = 3, .calls = 1});
    [[maybe_unused]] auto b2 = f.block("send", 71, BlockClass::kMainline, BO{.calls = 1});
    [[maybe_unused]] auto b3 = f.block("set_timeout", 76, BlockClass::kMainline,
                      BO{.calls = 1});
    [[maybe_unused]] auto b4 = f.block("block", 86, BlockClass::kMainline, BO{.calls = 1});
    assert(b0 == blk::kChanCallSeq && b1 == blk::kChanCallHdr &&
           b2 == blk::kChanCallSend && b3 == blk::kChanCallTimeout &&
           b4 == blk::kChanCallBlock);
    f.add_to(reg);
  }
  {
    FnBuilder f("chan_demux", FnKind::kPath);
    f.prologue(8, 0).epilogue(7).frame(128).pin_discount(50).connect_discount(90);
    [[maybe_unused]] auto b0 = f.block("match", 243, BlockClass::kMainline,
                      BO{.stack_reads = 3, .calls = 1});
    [[maybe_unused]] auto b1 = f.block("dup", 156, kErr);
    [[maybe_unused]] auto b2 = f.block("deliver", 101, BlockClass::kMainline, BO{.calls = 2});
    [[maybe_unused]] auto b3 = f.block("old", 101, kErr);
    [[maybe_unused]] auto b4 = f.block("rexmt", 278, kErr, BO{.calls = 2});
    assert(b0 == blk::kChanDemuxMatch && b1 == blk::kChanDemuxDup &&
           b2 == blk::kChanDemuxDeliver && b3 == blk::kChanDemuxOld &&
           b4 == blk::kChanDemuxRexmt);
    f.add_to(reg);
  }
  {
    FnBuilder f("chan_server", FnKind::kPath);
    f.prologue(7).epilogue(6);
    [[maybe_unused]] auto b0 = f.block("dispatch", 177, BlockClass::kMainline, BO{.calls = 1});
    [[maybe_unused]] auto b1 = f.block("dup_req", 137, kErr, BO{.calls = 1});
    [[maybe_unused]] auto b2 = f.block("reply", 152, BlockClass::kMainline, BO{.calls = 1});
    assert(b0 == blk::kChanSrvDispatch && b1 == blk::kChanSrvDupReq &&
           b2 == blk::kChanSrvReply);
    f.add_to(reg);
  }
  {
    FnBuilder f("bid_push", FnKind::kPath);
    f.prologue(4).epilogue(3).pin_discount(150);
    [[maybe_unused]] auto b0 = f.block("main", 97, BlockClass::kMainline,
                      BO{.stack_writes = 1, .calls = 1});
    assert(b0 == blk::kBidPushMain);
    f.add_to(reg);
  }
  {
    FnBuilder f("bid_demux", FnKind::kPath);
    f.prologue(4).epilogue(3).pin_discount(150);
    [[maybe_unused]] auto b0 = f.block("main", 112, BlockClass::kMainline,
                      BO{.stack_reads = 1, .calls = 1});
    [[maybe_unused]] auto b1 = f.block("reboot", 127, kErr);
    assert(b0 == blk::kBidDemuxMain && b1 == blk::kBidDemuxReboot);
    f.add_to(reg);
  }
  {
    FnBuilder f("blast_push", FnKind::kPath);
    f.prologue(7).epilogue(6).pin_discount(60);
    [[maybe_unused]] auto b0 = f.block("single_frag", 243, BlockClass::kMainline,
                      BO{.stack_writes = 4, .calls = 2});
    [[maybe_unused]] auto b1 = f.block("multi_frag", 505, kCold, BO{.calls = 2});
    assert(b0 == blk::kBlastPushSingle && b1 == blk::kBlastPushMulti);
    f.add_to(reg);
  }
  {
    FnBuilder f("blast_demux", FnKind::kPath);
    f.prologue(7).epilogue(6).pin_discount(60);
    [[maybe_unused]] auto b0 = f.block("parse", 198, BlockClass::kMainline,
                      BO{.stack_reads = 3, .calls = 1});
    [[maybe_unused]] auto b1 = f.block("nack", 202, kErr, BO{.calls = 1});
    [[maybe_unused]] auto b2 = f.block("single", 116, BlockClass::kMainline, BO{.calls = 1});
    [[maybe_unused]] auto b3 = f.block("reassemble", 455, kCold, BO{.calls = 2});
    assert(b0 == blk::kBlastDemuxParse && b1 == blk::kBlastDemuxNack &&
           b2 == blk::kBlastDemuxSingle && b3 == blk::kBlastDemuxReass);
    f.add_to(reg);
  }
  (void)cfg;
}

void register_lb_code(CodeRegistry& reg, const StackConfig& cfg) {
  // The forwarding tier reuses the driver/library descriptors from
  // register_common_code; only the LB-specific functions live here.
  // Counts follow the same calibration style as the endpoint stacks: a
  // forwarding hop is far cheaper than full TCP input, dominated by the
  // classify/track probes.
  {
    FnBuilder f("lb_classify", FnKind::kPath);
    f.prologue(6).epilogue(5);
    [[maybe_unused]] auto b0 = f.block("parse", u16(cfg.minor_opts ? 30 : 38),
                                       BlockClass::kMainline,
                                       BO{.stack_reads = 2});
    [[maybe_unused]] auto b1 = f.block("bad_frame", 26, kErr);
    [[maybe_unused]] auto b2 =
        f.block("fields", 24, BlockClass::kMainline, BO{.stack_writes = 1});
    assert(b0 == blk::kLbClsParse && b1 == blk::kLbClsBadFrame &&
           b2 == blk::kLbClsFields);
    f.add_to(reg);
  }
  {
    // Flow-tuple hash: a short mix, mul-heavy unless division is avoided.
    FnBuilder f("lb_hash", FnKind::kPath);
    f.prologue(4).epilogue(3).leaf();
    [[maybe_unused]] auto b0 =
        f.block("main", u16(cfg.avoid_int_division ? 22 : 30),
                BlockClass::kMainline, BO{.imuls = 3});
    assert(b0 == blk::kLbHashMain);
    f.add_to(reg);
  }
  {
    // Maglev table lookup: called only on a conn-track miss or stale hit.
    FnBuilder f("lb_maglev", FnKind::kPath);
    f.prologue(5).epilogue(4);
    [[maybe_unused]] auto b0 = f.block("probe", 18, BlockClass::kMainline,
                                       BO{.stack_reads = 1});
    [[maybe_unused]] auto b1 = f.block("empty_pool", 20, kErr);
    [[maybe_unused]] auto b2 = f.block("entry", u16(cfg.minor_opts ? 14 : 20));
    assert(b0 == blk::kLbMaglevProbe && b1 == blk::kLbMaglevEmptyPool &&
           b2 == blk::kLbMaglevEntry);
    f.add_to(reg);
  }
  {
    // Connection tracking: the per-flow pin that keeps established flows
    // on their backend across rebuilds.
    FnBuilder f("lb_track", FnKind::kPath);
    f.prologue(5).epilogue(4);
    [[maybe_unused]] auto b0 = f.block("probe", 26, BlockClass::kMainline,
                                       BO{.stack_reads = 1, .calls = 1});
    [[maybe_unused]] auto b1 = f.block("stale", 34, kErr);
    [[maybe_unused]] auto b2 =
        f.block("bind", 16, BlockClass::kMainline, BO{.stack_writes = 1});
    assert(b0 == blk::kLbTrackProbe && b1 == blk::kLbTrackStale &&
           b2 == blk::kLbTrackBind);
    f.add_to(reg);
  }
  {
    // DSR rewrite: only the Ethernet destination MAC changes, no IP/TCP
    // checksum fixup.
    FnBuilder f("lb_rewrite", FnKind::kPath);
    f.prologue(4).epilogue(3).leaf();
    [[maybe_unused]] auto b0 = f.block("mac", u16(cfg.minor_opts ? 12 : 18),
                                       BlockClass::kMainline,
                                       BO{.stack_writes = 1});
    assert(b0 == blk::kLbRewriteMac);
    f.add_to(reg);
  }
  {
    FnBuilder f("lb_forward", FnKind::kPath);
    f.prologue(5).epilogue(4);
    [[maybe_unused]] auto b0 = f.block("tx", 20, BlockClass::kMainline,
                                       BO{.stack_reads = 1, .calls = 1});
    [[maybe_unused]] auto b1 = f.block("link_down", 28, kErr);
    assert(b0 == blk::kLbForwardTx && b1 == blk::kLbForwardLinkDown);
    f.add_to(reg);
  }
}

void register_classifier_code(CodeRegistry& reg, const StackConfig& cfg) {
  // The scaled classifier's compiled shape.  Counts follow the endpoint
  // calibration style: the cache probe and a single tuple probe are each a
  // few dozen instructions; per-rule verification is a short compare
  // ladder.  What makes classification expensive at scale is not any one
  // block but how many of them run — and where their tables land in the
  // simulated caches.
  {
    // Flow-cache front end (code/flow_cache.h): probe, guard, memoize.
    FnBuilder f("classify_cache", FnKind::kPath);
    f.prologue(5).epilogue(4);
    [[maybe_unused]] auto b0 = f.block("probe", 24, BlockClass::kMainline,
                                       BO{.stack_reads = 1});
    [[maybe_unused]] auto b1 = f.block("hit", u16(cfg.minor_opts ? 10 : 14));
    [[maybe_unused]] auto b2 = f.block("miss", 12, kErr, BO{.calls = 1});
    [[maybe_unused]] auto b3 = f.block("stale", 30, kErr, BO{.calls = 1});
    assert(b0 == blk::kClsCacheProbe && b1 == blk::kClsCacheHit &&
           b2 == blk::kClsCacheMiss && b3 == blk::kClsCacheStale);
    f.add_to(reg);
  }
  {
    // Scan driver: engine selection + the no-match epilogue.
    FnBuilder f("classify_lookup", FnKind::kPath);
    f.prologue(6).epilogue(5);
    [[maybe_unused]] auto b0 = f.block("setup", 18, BlockClass::kMainline,
                                       BO{.stack_writes = 1, .calls = 2});
    [[maybe_unused]] auto b1 = f.block("no_match", 16, kErr);
    assert(b0 == blk::kClsLookupSetup && b1 == blk::kClsLookupMiss);
    f.add_to(reg);
  }
  {
    // Tuple key hash: extract the tuple's masked fields, FNV-mix them.
    FnBuilder f("classify_hash", FnKind::kPath);
    f.prologue(4).epilogue(3).leaf();
    [[maybe_unused]] auto b0 = f.block("fields", u16(cfg.minor_opts ? 18 : 24),
                                       BlockClass::kMainline,
                                       BO{.stack_reads = 1});
    [[maybe_unused]] auto b1 = f.block("mix", 16, BlockClass::kMainline,
                                       BO{.imuls = 3});
    assert(b0 == blk::kClsHashFields && b1 == blk::kClsHashMix);
    f.add_to(reg);
  }
  {
    // One hash-table probe (the bucket load lands in the tuple table at
    // PacketClassifier::table_addr — real d-cache traffic, not a constant).
    FnBuilder f("classify_probe", FnKind::kPath);
    f.prologue(4).epilogue(3);
    [[maybe_unused]] auto b0 = f.block("bucket", 20, BlockClass::kMainline,
                                       BO{.stack_reads = 1});
    [[maybe_unused]] auto b1 = f.block("empty", 8, kErr);
    assert(b0 == blk::kClsProbeBucket && b1 == blk::kClsProbeEmpty);
    f.add_to(reg);
  }
  {
    // Candidate verification: the rule compare ladder, shared by both
    // engines' exact-match step.
    FnBuilder f("classify_verify", FnKind::kPath);
    f.prologue(4).epilogue(3);
    [[maybe_unused]] auto b0 = f.block("rule", 12, BlockClass::kMainline,
                                       BO{.stack_reads = 1});
    [[maybe_unused]] auto b1 = f.block("reject", 10, kErr);
    assert(b0 == blk::kClsVerifyRule && b1 == blk::kClsVerifyReject);
    f.add_to(reg);
  }
  {
    // Legacy linear scan: every registered path tried in priority order.
    FnBuilder f("classify_linear", FnKind::kPath);
    f.prologue(5).epilogue(4);
    [[maybe_unused]] auto b0 = f.block("rule", u16(cfg.minor_opts ? 10 : 12),
                                       BlockClass::kMainline,
                                       BO{.stack_reads = 1});
    [[maybe_unused]] auto b1 = f.block("all_missed", 14, kErr);
    assert(b0 == blk::kClsLinearRule && b1 == blk::kClsLinearMiss);
    f.add_to(reg);
  }
}

namespace {

/// One classifier scan's events: the tuple engine's hash/probe/verify
/// calls driven by the recorded probe log, or the linear engine's per-rule
/// blocks.
void trace_classifier_scan(code::Recorder& rec, const code::CodeRegistry& reg,
                           const code::ClassifyScan& scan,
                           const code::ClassifyProbeLog& log) {
  const code::FnId lookup = reg.require("classify_lookup");
  code::TracedCall tc(rec, lookup);
  rec.block(lookup, blk::kClsLookupSetup);
  if (scan.tuple_engine) {
    const code::FnId hash = reg.require("classify_hash");
    const code::FnId probe_fn = reg.require("classify_probe");
    const code::FnId verify = reg.require("classify_verify");
    for (const code::ClassifyProbe& p : log.probes) {
      {
        code::TracedCall h(rec, hash);
        rec.block(hash, blk::kClsHashFields);
        rec.block(hash, blk::kClsHashMix);
      }
      {
        code::TracedCall pr(rec, probe_fn);
        rec.block(probe_fn, blk::kClsProbeBucket);
        rec.load(code::PacketClassifier::table_addr(p.tuple, p.key), 32);
        if (p.candidates == 0) rec.block(probe_fn, blk::kClsProbeEmpty);
      }
      if (p.candidates > 0) {
        code::TracedCall v(rec, verify);
        for (std::uint16_t i = 0; i < p.rules; ++i) {
          rec.block(verify, blk::kClsVerifyRule);
        }
        const std::uint16_t rejected =
            static_cast<std::uint16_t>(p.candidates - (p.matched ? 1 : 0));
        for (std::uint16_t i = 0; i < rejected; ++i) {
          rec.block(verify, blk::kClsVerifyReject);
        }
      }
    }
  } else {
    const code::FnId lin = reg.require("classify_linear");
    code::TracedCall l(rec, lin);
    for (std::size_t i = 0; i < scan.rules_examined; ++i) {
      rec.block(lin, blk::kClsLinearRule);
    }
    if (!scan.path_id.has_value()) rec.block(lin, blk::kClsLinearMiss);
  }
  if (!scan.path_id.has_value()) rec.block(lookup, blk::kClsLookupMiss);
}

}  // namespace

void trace_classification(code::Recorder& rec, const code::CodeRegistry& reg,
                          const code::FlowLookupResult& lr,
                          const code::ClassifyProbeLog& log,
                          std::uint64_t cache_entry_addr) {
  code::ClassifyScan scan;
  if (lr.scan_matched) scan.path_id = 0;  // only has_value() matters here
  scan.rules_examined = lr.rules_examined;
  scan.tuples_probed = lr.tuples_probed;
  scan.candidates_verified = lr.candidates_verified;
  scan.tuple_engine = lr.tuple_engine;

  const code::FnId cache = reg.require("classify_cache");
  code::TracedCall tc(rec, cache);
  rec.block(cache, blk::kClsCacheProbe);
  rec.load(cache_entry_addr, 16);
  if (lr.cache_hit && !lr.stale) {
    rec.block(cache, blk::kClsCacheHit);
    return;
  }
  rec.block(cache, lr.stale ? blk::kClsCacheStale : blk::kClsCacheMiss);
  if (lr.scanned) trace_classifier_scan(rec, reg, scan, log);
  rec.store(cache_entry_addr, 16);  // memoize (or refresh) the binding
}

// ---------------------------------------------------------------------------
// Path specs (Section 3.3)
// ---------------------------------------------------------------------------

code::PathSpec tcpip_output_path(const code::CodeRegistry& reg) {
  // "one [function] for output processing": TCPTEST send down to LANCE.
  return {"tcpip_out",
          {reg.require("tcptest_send"), reg.require("tcp_usrsend"),
           reg.require("tcp_output"), reg.require("ip_output"),
           reg.require("vnet_output"), reg.require("eth_send"),
           reg.require("lance_send")}};
}

code::PathSpec tcpip_input_path(const code::CodeRegistry& reg) {
  // "one for input processing": LANCE interrupt up to TCPTEST.
  return {"tcpip_in",
          {reg.require("lance_intr"), reg.require("eth_demux"),
           reg.require("ip_demux"), reg.require("tcp_demux"),
           reg.require("tcp_input"), reg.require("tcptest_recv")}};
}

code::PathSpec rpc_output_path(const code::CodeRegistry& reg) {
  // XRPCTEST, MSELECT, VCHAN plus output processing of CHAN and below.
  return {"rpc_out",
          {reg.require("xrpctest_call"), reg.require("mselect_call"),
           reg.require("vchan_call"), reg.require("chan_call"),
           reg.require("bid_push"), reg.require("blast_push"),
           reg.require("eth_send"), reg.require("lance_send")}};
}

code::PathSpec rpc_input_path(const code::CodeRegistry& reg) {
  // Input processing up to CHAN (the waiting thread resumes above CHAN).
  return {"rpc_in",
          {reg.require("lance_intr"), reg.require("eth_demux"),
           reg.require("blast_demux"), reg.require("bid_demux"),
           reg.require("chan_demux")}};
}

code::PathSpec lb_forward_path(const code::CodeRegistry& reg) {
  // The forwarding fast path: a pinned flow with a fresh conn-track hit
  // never consults the Maglev table, so lb_hash / lb_maglev stay
  // standalone (they run inside the slow/rebind bracket, like any other
  // cold path).
  return {"lb_forward",
          {reg.require("lance_intr"), reg.require("lb_classify"),
           reg.require("lb_track"), reg.require("lb_rewrite"),
           reg.require("lb_forward"), reg.require("lance_send")}};
}

// ---------------------------------------------------------------------------
// Flow-key specs (code/flow_cache.h)
// ---------------------------------------------------------------------------

namespace {
// TCP/IP frame: ETH | IP (no options) | TCP.
constexpr std::size_t kIpSrcAddrOffset = 12;  // within the IP header
constexpr std::size_t kTcpAt = kEthHeaderBytes + kIpHeaderBytes;
constexpr std::size_t kIpSrcAt = kEthHeaderBytes + kIpSrcAddrOffset;
constexpr std::size_t kTcpSrcPortAt = kTcpAt;
constexpr std::size_t kTcpDstPortAt = kTcpAt + 2;
static_assert(kIpSrcAt == 26 && kTcpSrcPortAt == 34 && kTcpDstPortAt == 36,
              "published TCP/IP flow-key offsets");

// Single-fragment RPC frame: ETH | BLAST | BID | CHAN | MSELECT.  The CHAN
// channel id is its header's first two bytes; the MSELECT procedure id
// opens the header after CHAN's.
constexpr std::size_t kChanAt =
    kEthHeaderBytes + Blast::kHeaderBytes + Bid::kHeaderBytes;
constexpr std::size_t kMselectAt = kChanAt + Chan::kHeaderBytes;
static_assert(kChanAt == 34 && kMselectAt == 42,
              "published RPC flow-key offsets");
}  // namespace

code::FlowKeySpec tcpip_flow_key_spec() {
  return {{{.offset = kIpSrcAt, .size = 4},         // IP source address
           {.offset = kTcpSrcPortAt, .size = 2},    // TCP source port
           {.offset = kTcpDstPortAt, .size = 2}}};  // TCP destination port
}

code::FlowKeySpec rpc_flow_key_spec() {
  return {{{.offset = kChanAt, .size = 2},       // CHAN channel id
           {.offset = kMselectAt, .size = 2}}};  // MSELECT procedure id
}

}  // namespace l96::proto
