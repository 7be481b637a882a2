// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Network management — the third application domain the paper's motivation
// names (§2.1: "patient databases, portfolio management, and network
// management"). Routers and links are reactive objects defined long before
// anyone knows what the operations center will want to watch; monitoring
// policies arrive later as runtime rules:
//
//   * "LinkFlap"   — Every(3, end Link::Down): three drops of the same link
//                    trigger flap damping (a counting rule),
//   * "DeadRouter" — Not(probe sent, heartbeat, probe timeout): a probe
//                    answered by no heartbeat before the timeout marks the
//                    router dead (the Not operator's natural use),
//   * "Escalate"   — a higher-priority rule on the same events that pages a
//                    human when a core router dies (priorities order rules
//                    triggered by one event),
//   * the whole incident flow is recorded by the TraceRecorder — the rule
//     debugger's view of a cascading incident.
//
// Run:  ./build/examples/network [workdir]

#include <cstdio>
#include <filesystem>
#include <vector>

#include "core/database.h"
#include "events/operators.h"
#include "events/primitive_event.h"
#include "events/snoop_operators.h"
#include "rules/trace.h"

namespace {

using namespace sentinel;  // NOLINT: example brevity.

class Link : public ReactiveObject {
 public:
  explicit Link(std::string name) : ReactiveObject("Link") {
    SetAttrRaw("name", Value(std::move(name)));
    SetAttrRaw("damped", Value(false));
  }
  void Down(Transaction* txn) {
    MethodEventScope scope(this, "Down", {GetAttr("name")});
    SetAttr(txn, "up", Value(false));
  }
  void Up(Transaction* txn) {
    MethodEventScope scope(this, "Up", {GetAttr("name")});
    SetAttr(txn, "up", Value(true));
  }
  std::string name() const { return GetAttr("name").AsString(); }
};

class Router : public ReactiveObject {
 public:
  Router(std::string name, bool core) : ReactiveObject("Router") {
    SetAttrRaw("name", Value(std::move(name)));
    SetAttrRaw("core", Value(core));
    SetAttrRaw("alive", Value(true));
  }
  void Probe(Transaction* txn) {
    MethodEventScope scope(this, "Probe", {GetAttr("name")});
    SetAttr(txn, "probed", Value(true));
  }
  void Heartbeat(Transaction* txn) {
    MethodEventScope scope(this, "Heartbeat", {GetAttr("name")});
    SetAttr(txn, "probed", Value(false));
  }
  void ProbeTimeout(Transaction* /*txn*/) {
    MethodEventScope scope(this, "ProbeTimeout", {GetAttr("name")});
  }
  std::string name() const { return GetAttr("name").AsString(); }
};

Status Run(const std::string& dir) {
  SENTINEL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                            Database::Open({.dir = dir}));
  TraceRecorder trace;
  db->SetTracer(&trace);
  std::printf("== Network operations center (paper §2.1 domain) ==\n");

  SENTINEL_RETURN_IF_ERROR(db->RegisterClass(
      ClassBuilder("Link")
          .Reactive()
          .Method("Down", {.end = true})
          .Method("Up", {.end = true})
          .Build()));
  SENTINEL_RETURN_IF_ERROR(db->RegisterClass(
      ClassBuilder("Router")
          .Reactive()
          .Method("Probe", {.end = true})
          .Method("Heartbeat", {.end = true})
          .Method("ProbeTimeout", {.end = true})
          .Build()));

  Link trunk("trunk-1"), spur("spur-7");
  Router core("core-a", true), edge("edge-9", false);
  for (ReactiveObject* obj :
       std::initializer_list<ReactiveObject*>{&trunk, &spur, &core, &edge}) {
    SENTINEL_RETURN_IF_ERROR(db->RegisterLiveObject(obj));
  }
  std::printf("topology: links trunk-1, spur-7; routers core-a (core), "
              "edge-9\n\n");

  // --- Flap damping: Every(3, Down) per monitored link ----------------------
  SENTINEL_ASSIGN_OR_RETURN(EventPtr down,
                            db->CreatePrimitiveEvent("end Link::Down"));
  static_cast<PrimitiveEvent*>(down.get())->RestrictToInstance(trunk.oid());
  RuleSpec flap;
  flap.name = "LinkFlap";
  flap.event = Every(3, down);
  flap.action = [&](RuleContext& ctx) {
    trunk.SetAttr(ctx.txn, "damped", Value(true));
    std::printf("  -> LinkFlap: %s damped after 3 drops (constituents: "
                "%zu)\n",
                trunk.name().c_str(), ctx.constituents().size());
    return Status::OK();
  };
  SENTINEL_ASSIGN_OR_RETURN(RulePtr flap_rule, db->CreateRule(flap));
  SENTINEL_RETURN_IF_ERROR(db->ApplyRuleToInstance(flap_rule, &trunk));

  // --- Dead-router detection: Not(Probe, Heartbeat, ProbeTimeout) ------------
  SENTINEL_ASSIGN_OR_RETURN(EventPtr probe,
                            db->CreatePrimitiveEvent("end Router::Probe"));
  SENTINEL_ASSIGN_OR_RETURN(
      EventPtr heartbeat, db->CreatePrimitiveEvent("end Router::Heartbeat"));
  SENTINEL_ASSIGN_OR_RETURN(
      EventPtr timeout, db->CreatePrimitiveEvent("end Router::ProbeTimeout"));
  EventPtr silent_death = Not(probe, heartbeat, timeout);
  SENTINEL_RETURN_IF_ERROR(
      db->detector()->RegisterEvent("silent-death", silent_death));

  std::vector<std::string> pages;
  RuleSpec dead;
  dead.name = "DeadRouter";
  dead.event = silent_death;
  dead.priority = 1;
  dead.action = [&](RuleContext& ctx) {
    auto* router =
        static_cast<Router*>(db->FindLiveObject(ctx.detection->last().oid));
    if (router != nullptr) {
      router->SetAttr(ctx.txn, "alive", Value(false));
      std::printf("  -> DeadRouter: %s marked dead (probe unanswered)\n",
                  router->name().c_str());
    }
    return Status::OK();
  };
  SENTINEL_ASSIGN_OR_RETURN(RulePtr dead_rule,
                            db->DeclareClassRule("Router", dead));

  // --- Escalation: same event, higher priority, pages on core routers --------
  RuleSpec escalate;
  escalate.name = "Escalate";
  escalate.event = silent_death;  // Shared first-class event object.
  escalate.priority = 10;         // Runs before DeadRouter.
  escalate.condition = [&](const RuleContext& ctx) {
    auto* router =
        static_cast<Router*>(db->FindLiveObject(ctx.detection->last().oid));
    return router != nullptr && router->GetAttr("core") == Value(true);
  };
  escalate.action = [&](RuleContext& ctx) {
    auto* router =
        static_cast<Router*>(db->FindLiveObject(ctx.detection->last().oid));
    pages.push_back("PAGE: core router " + router->name() + " unreachable");
    std::printf("  -> Escalate: paging on-call for %s\n",
                router->name().c_str());
    return Status::OK();
  };
  SENTINEL_ASSIGN_OR_RETURN(RulePtr escalate_rule,
                            db->DeclareClassRule("Router", escalate));

  // --- A bad evening ----------------------------------------------------------
  std::printf("18:00 trunk-1 flaps twice (no damping yet):\n");
  SENTINEL_RETURN_IF_ERROR(db->WithTransaction([&](Transaction* txn) {
    trunk.Down(txn);
    trunk.Up(txn);
    trunk.Down(txn);
    trunk.Up(txn);
    spur.Down(txn);  // Unmonitored link: no rule sees it.
    return Status::OK();
  }));
  std::printf("  damped=%s\n", trunk.GetAttr("damped").ToString().c_str());

  std::printf("18:05 third drop:\n");
  SENTINEL_RETURN_IF_ERROR(db->WithTransaction([&](Transaction* txn) {
    trunk.Down(txn);
    return Status::OK();
  }));

  std::printf("18:10 edge-9 probed, answers in time:\n");
  SENTINEL_RETURN_IF_ERROR(db->WithTransaction([&](Transaction* txn) {
    edge.Probe(txn);
    edge.Heartbeat(txn);
    edge.ProbeTimeout(txn);  // Timeout fires but the heartbeat intervened.
    return Status::OK();
  }));
  std::printf("  edge-9 alive=%s (heartbeat cancelled the window)\n",
              edge.GetAttr("alive").ToString().c_str());

  std::printf("18:15 core-a probed, silence:\n");
  SENTINEL_RETURN_IF_ERROR(db->WithTransaction([&](Transaction* txn) {
    core.Probe(txn);
    core.ProbeTimeout(txn);
    return Status::OK();
  }));
  std::printf("  core-a alive=%s, pages sent=%zu\n",
              core.GetAttr("alive").ToString().c_str(), pages.size());

  std::printf("\nincident trace (%llu entries, last 12):\n",
              static_cast<unsigned long long>(trace.total()));
  auto entries = trace.Entries();
  size_t start = entries.size() > 12 ? entries.size() - 12 : 0;
  for (size_t i = start; i < entries.size(); ++i) {
    std::printf("  %s\n", entries[i].ToString().c_str());
  }

  return db->Close();
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : "/tmp/sentinel_network";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Status s = Run(dir);
  if (!s.ok()) {
    std::fprintf(stderr, "network failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("network OK\n");
  return 0;
}
