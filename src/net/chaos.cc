#include "net/chaos.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "net/lb.h"

namespace l96::net {

const char* to_string(ChaosKind k) {
  switch (k) {
    case ChaosKind::kLinkDown: return "link_down";
    case ChaosKind::kLinkUp: return "link_up";
    case ChaosKind::kHostCrash: return "crash";
    case ChaosKind::kHostReboot: return "reboot";
    case ChaosKind::kDrain: return "drain";
    case ChaosKind::kUndrain: return "undrain";
  }
  return "?";
}

const char* to_string(ChaosTarget t) {
  switch (t) {
    case ChaosTarget::kWire: return "wire";
    case ChaosTarget::kClient: return "client";
    case ChaosTarget::kServer: return "server";
    case ChaosTarget::kBackend: return "backend";
    case ChaosTarget::kBackendLink: return "backend";  // token form reuses it
  }
  return "?";
}

namespace {

/// A token of decimal digits only ("-5", "+2000" and "" fail) that fits
/// in 64 bits.
std::optional<std::uint64_t> parse_digits(std::string_view s) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

}  // namespace

ChaosTimeline ChaosTimeline::parse(std::string_view script) {
  ChaosTimeline tl;
  std::istringstream in{std::string(script)};
  std::string tok;
  std::uint64_t last_at = 0;
  bool first = true;
  while (in >> tok) {
    const auto at_pos = tok.find('@');
    if (at_pos == std::string::npos) {
      throw std::invalid_argument("chaos: missing '@' in \"" + tok + "\"");
    }
    const std::string verb = tok.substr(0, at_pos);
    std::string when = tok.substr(at_pos + 1);
    ChaosTarget target = ChaosTarget::kWire;
    std::uint16_t index = 0;
    const auto colon = when.find(':');
    if (colon != std::string::npos) {
      const std::string who = when.substr(colon + 1);
      when.resize(colon);
      if (who == "client") {
        target = ChaosTarget::kClient;
      } else if (who == "server") {
        target = ChaosTarget::kServer;
      } else if (who.rfind("backend", 0) == 0 && who.size() > 7) {
        const auto v = parse_digits(std::string_view(who).substr(7));
        if (!v || *v > 0xFFFF) {
          throw std::invalid_argument("chaos: bad backend index in \"" + tok +
                                      "\"");
        }
        index = static_cast<std::uint16_t>(*v);
        target = ChaosTarget::kBackend;
      } else {
        throw std::invalid_argument("chaos: unknown host \"" + who +
                                    "\" in \"" + tok + "\"");
      }
    }

    ChaosKind kind;
    if (verb == "link_down") {
      kind = ChaosKind::kLinkDown;
    } else if (verb == "link_up") {
      kind = ChaosKind::kLinkUp;
    } else if (verb == "crash") {
      kind = ChaosKind::kHostCrash;
    } else if (verb == "reboot") {
      kind = ChaosKind::kHostReboot;
    } else if (verb == "drain") {
      kind = ChaosKind::kDrain;
    } else if (verb == "undrain") {
      kind = ChaosKind::kUndrain;
    } else {
      throw std::invalid_argument("chaos: unknown verb \"" + verb +
                                  "\" in \"" + tok + "\"");
    }

    const bool host_verb =
        kind == ChaosKind::kHostCrash || kind == ChaosKind::kHostReboot;
    const bool drain_verb =
        kind == ChaosKind::kDrain || kind == ChaosKind::kUndrain;
    if (host_verb && target == ChaosTarget::kWire) {
      throw std::invalid_argument(
          "chaos: " + verb + " needs a :client, :server or :backendN target");
    }
    if (drain_verb && target != ChaosTarget::kBackend) {
      throw std::invalid_argument("chaos: " + verb +
                                  " needs a :backendN target in \"" + tok +
                                  "\"");
    }
    if (!host_verb && !drain_verb) {
      // Link verbs: bare (the client-side wire) or :backendN (that
      // backend's LB-side wire); never :client / :server.
      if (target == ChaosTarget::kClient || target == ChaosTarget::kServer) {
        throw std::invalid_argument("chaos: " + verb + " takes no host, only "
                                    ":backendN, in \"" + tok + "\"");
      }
      if (target == ChaosTarget::kBackend) target = ChaosTarget::kBackendLink;
    }

    const auto at = parse_digits(when);
    if (!at) {
      throw std::invalid_argument("chaos: bad time \"" + when + "\" in \"" +
                                  tok + "\"");
    }
    const std::uint64_t at_us = *at;
    if (!first && at_us < last_at) {
      throw std::invalid_argument("chaos: time goes backwards at \"" + tok +
                                  "\"");
    }
    first = false;
    last_at = at_us;

    tl.add(at_us, kind, target, index);
  }
  tl.validate();
  return tl;
}

ChaosTimeline& ChaosTimeline::add(std::uint64_t at_us, ChaosKind kind,
                                  ChaosTarget target, std::uint16_t index) {
  events_.push_back(ChaosEvent{at_us, kind, target, index});
  return *this;
}

void ChaosTimeline::validate() const {
  if (!std::is_sorted(events_.begin(), events_.end(),
                      [](const ChaosEvent& a, const ChaosEvent& b) {
                        return a.at_us < b.at_us;
                      })) {
    throw std::invalid_argument("chaos: events not sorted by time");
  }
  bool link_down = false;
  bool client_dead = false;
  bool server_dead = false;
  std::map<std::uint16_t, bool> blink_down;    // backend-link blackouts
  std::map<std::uint16_t, bool> backend_dead;  // backend host crashes
  std::map<std::uint16_t, bool> drained;       // administrative drains
  for (const ChaosEvent& e : events_) {
    switch (e.kind) {
      case ChaosKind::kLinkDown: {
        bool& down = e.target == ChaosTarget::kBackendLink
                         ? blink_down[e.index]
                         : link_down;
        if (down) throw std::invalid_argument("chaos: double link_down");
        down = true;
        break;
      }
      case ChaosKind::kLinkUp: {
        bool& down = e.target == ChaosTarget::kBackendLink
                         ? blink_down[e.index]
                         : link_down;
        if (!down) {
          throw std::invalid_argument("chaos: link_up without link_down");
        }
        down = false;
        break;
      }
      case ChaosKind::kHostCrash: {
        bool& dead = e.target == ChaosTarget::kBackend ? backend_dead[e.index]
                     : e.target == ChaosTarget::kClient ? client_dead
                                                        : server_dead;
        if (dead) throw std::invalid_argument("chaos: double crash");
        dead = true;
        break;
      }
      case ChaosKind::kHostReboot: {
        bool& dead = e.target == ChaosTarget::kBackend ? backend_dead[e.index]
                     : e.target == ChaosTarget::kClient ? client_dead
                                                        : server_dead;
        if (!dead) throw std::invalid_argument("chaos: reboot without crash");
        dead = false;
        break;
      }
      case ChaosKind::kDrain: {
        bool& d = drained[e.index];
        if (d) throw std::invalid_argument("chaos: double drain");
        d = true;
        break;
      }
      case ChaosKind::kUndrain: {
        bool& d = drained[e.index];
        if (!d) throw std::invalid_argument("chaos: undrain without drain");
        d = false;
        break;
      }
    }
  }
  if (link_down) throw std::invalid_argument("chaos: link never comes back");
  for (const auto& [idx, down] : blink_down) {
    if (down) {
      throw std::invalid_argument("chaos: backend" + std::to_string(idx) +
                                  " link never comes back");
    }
  }
  if (client_dead || server_dead) {
    throw std::invalid_argument("chaos: host never reboots");
  }
  for (const auto& [idx, dead] : backend_dead) {
    if (dead) {
      throw std::invalid_argument("chaos: backend" + std::to_string(idx) +
                                  " never reboots");
    }
  }
  for (const auto& [idx, d] : drained) {
    if (d) {
      throw std::invalid_argument("chaos: backend" + std::to_string(idx) +
                                  " never undrains");
    }
  }
}

std::vector<ChaosWindow> ChaosTimeline::windows() const {
  std::vector<ChaosWindow> out;
  std::uint64_t link_start = 0;
  std::uint64_t client_start = 0;
  std::uint64_t server_start = 0;
  std::map<std::uint16_t, std::uint64_t> blink_start;
  std::map<std::uint16_t, std::uint64_t> backend_start;
  std::map<std::uint16_t, std::uint64_t> drain_start;
  for (const ChaosEvent& e : events_) {
    switch (e.kind) {
      case ChaosKind::kLinkDown:
        (e.target == ChaosTarget::kBackendLink ? blink_start[e.index]
                                               : link_start) = e.at_us;
        break;
      case ChaosKind::kLinkUp:
        out.push_back({e.target == ChaosTarget::kBackendLink
                           ? blink_start[e.index]
                           : link_start,
                       e.at_us, false, false, e.target, e.index});
        break;
      case ChaosKind::kHostCrash:
        (e.target == ChaosTarget::kBackend ? backend_start[e.index]
         : e.target == ChaosTarget::kClient ? client_start
                                            : server_start) = e.at_us;
        break;
      case ChaosKind::kHostReboot:
        out.push_back({e.target == ChaosTarget::kBackend
                           ? backend_start[e.index]
                       : e.target == ChaosTarget::kClient ? client_start
                                                          : server_start,
                       e.at_us, true, false, e.target, e.index});
        break;
      case ChaosKind::kDrain:
        drain_start[e.index] = e.at_us;
        break;
      case ChaosKind::kUndrain:
        out.push_back({drain_start[e.index], e.at_us, false, true,
                       ChaosTarget::kBackend, e.index});
        break;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ChaosWindow& a, const ChaosWindow& b) {
              return a.start_us < b.start_us;
            });
  return out;
}

namespace {

[[noreturn]] void throw_no_such_target(const ChaosEvent& e,
                                       const std::string& why) {
  throw std::invalid_argument("chaos: target \"" +
                              std::string(to_string(e.target)) +
                              (e.target == ChaosTarget::kBackend ||
                                       e.target == ChaosTarget::kBackendLink
                                   ? std::to_string(e.index)
                                   : std::string()) +
                              "\" " + why);
}

}  // namespace

void ChaosTimeline::install(World& world, std::uint64_t base_us) const {
  validate();
  for (const ChaosEvent& e : events_) {
    // Target existence is checked against *this* world at install time: a
    // two-host world has no backends and no LB pool to drain.
    if (e.target == ChaosTarget::kBackend ||
        e.target == ChaosTarget::kBackendLink) {
      throw_no_such_target(e, "does not exist in this world (no backends)");
    }
    if (e.kind == ChaosKind::kDrain || e.kind == ChaosKind::kUndrain) {
      throw std::invalid_argument(
          "chaos: drain targets an LB pool; this world has none");
    }
    Host* host = e.target == ChaosTarget::kClient ? &world.client()
                                                  : &world.server();
    Wire* wire = &world.wire();
    // Infrastructure events (owner 0): the script must keep firing across
    // the crashes it inflicts.
    world.events().schedule_at(
        base_us + e.at_us,
        [kind = e.kind, host, wire] {
          switch (kind) {
            case ChaosKind::kLinkDown: wire->link_down(); break;
            case ChaosKind::kLinkUp: wire->link_up(); break;
            case ChaosKind::kHostCrash: host->crash(); break;
            case ChaosKind::kHostReboot: host->reboot(); break;
            case ChaosKind::kDrain:
            case ChaosKind::kUndrain: break;  // rejected above
          }
        },
        xk::EventManager::kInfraOwner);
  }
}

void ChaosTimeline::install(LbWorld& world, std::uint64_t base_us) const {
  validate();
  for (const ChaosEvent& e : events_) {
    if ((e.target == ChaosTarget::kBackend ||
         e.target == ChaosTarget::kBackendLink) &&
        e.index >= world.backend_count()) {
      throw_no_such_target(
          e, "does not exist in this world (" +
                 std::to_string(world.backend_count()) + " backends)");
    }
    if (e.target == ChaosTarget::kClient || e.target == ChaosTarget::kServer) {
      throw_no_such_target(
          e, "does not exist in this world (targets are :backendN)");
    }
    world.events().schedule_at(
        base_us + e.at_us,
        [&world, e] {
          switch (e.kind) {
            case ChaosKind::kLinkDown:
              (e.target == ChaosTarget::kBackendLink
                   ? world.backend_wire(e.index)
                   : world.client_wire())
                  .link_down();
              break;
            case ChaosKind::kLinkUp:
              (e.target == ChaosTarget::kBackendLink
                   ? world.backend_wire(e.index)
                   : world.client_wire())
                  .link_up();
              break;
            case ChaosKind::kHostCrash:
              world.backend(e.index).crash();
              break;
            case ChaosKind::kHostReboot:
              world.backend(e.index).reboot();
              break;
            case ChaosKind::kDrain:
              world.lb().drain(e.index);
              break;
            case ChaosKind::kUndrain:
              world.lb().undrain(e.index);
              break;
          }
        },
        xk::EventManager::kInfraOwner);
  }
}

std::string ChaosTimeline::str() const {
  std::string out;
  for (const ChaosEvent& e : events_) {
    if (!out.empty()) out += ' ';
    out += to_string(e.kind);
    out += '@';
    out += std::to_string(e.at_us);
    const bool backend = e.target == ChaosTarget::kBackend ||
                         e.target == ChaosTarget::kBackendLink;
    if (backend) {
      out += ":backend";
      out += std::to_string(e.index);
    } else if (e.kind == ChaosKind::kHostCrash ||
               e.kind == ChaosKind::kHostReboot) {
      out += ':';
      out += to_string(e.target);
    }
  }
  return out;
}

}  // namespace l96::net
