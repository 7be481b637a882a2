// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// sentinel shell: an interactive/scriptable front end that exercises the
// whole public API — runtime schema definition, object creation, method
// invocation with event generation, first-class event composition, rule
// construction with a tiny condition/action language, coupling modes,
// indexes, and persistence — without writing any C++.
//
// Run interactively:          ./build/examples/shell [workdir]
// Run a script:               ./build/examples/shell [workdir] < script.txt
//
// Commands (one per line; '#' starts a comment):
//   class <Name> [extends <Super>] [methods <M:begin|end|both>,...]
//   new <Class> <name> [attr=value ...]
//   call <obj> <Method> [args ...]         (raises bom/eom per interface)
//   set <obj> <attr> <value>               (quiet attribute write)
//   event <name> primitive "<signature>"
//   event <name> and|or|seq <e1> <e2>
//   rule <name> when <event> [if <attr OP value|param<i> OP value>]
//        [then print <msg>|abort|set <attr> <value>] [coupling immediate|
//        deferred|detached] [priority <n>]
//   on <obj> <rule>             (instance-level subscribe)
//   onclass <Class> <rule>      (class-level association)
//   enable|disable <rule>
//   index <Class> <attr>
//   find <Class> <attr> <value>
//   range <Class> <attr> <lo> <hi>
//   persist <obj>
//   save                        (rules + events)
//   show classes|objects|events|rules|stats
//   quit

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "core/database.h"
#include "events/operators.h"

namespace shell {

using namespace sentinel;  // NOLINT: example brevity.

/// Parses "42", "3.5", "true", "text" into a Value.
Value ParseValue(const std::string& token) {
  if (token == "true") return Value(true);
  if (token == "false") return Value(false);
  if (token == "null") return Value();
  char* end = nullptr;
  long long as_int = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() && *end == '\0') {
    return Value(static_cast<int64_t>(as_int));
  }
  double as_double = std::strtod(token.c_str(), &end);
  if (end != token.c_str() && *end == '\0') return Value(as_double);
  return Value(token);
}

/// Splits a line into tokens, honoring double quotes.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  bool in_quotes = false;
  for (char c : line) {
    if (c == '"') {
      if (in_quotes) {
        tokens.push_back(current);
        current.clear();
      }
      in_quotes = !in_quotes;
    } else if (!in_quotes && std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) {
        tokens.push_back(current);
        current.clear();
      }
    } else {
      current += c;
    }
  }
  if (!current.empty()) tokens.push_back(current);
  return tokens;
}

class Shell {
 public:
  explicit Shell(std::unique_ptr<Database> db) : db_(std::move(db)) {}

  ~Shell() {
    for (auto& [name, obj] : objects_) {
      db_->UnregisterLiveObject(obj.get()).ok();
    }
    db_->Close().ok();
  }

  /// Executes one command line; returns false on `quit`.
  bool Execute(const std::string& line) {
    std::vector<std::string> t = Tokenize(line);
    if (t.empty() || t[0][0] == '#') return true;
    const std::string& cmd = t[0];
    Status s = Status::OK();
    if (cmd == "quit" || cmd == "exit") return false;
    else if (cmd == "class") s = CmdClass(t);
    else if (cmd == "new") s = CmdNew(t);
    else if (cmd == "call") s = CmdCall(t);
    else if (cmd == "set") s = CmdSet(t);
    else if (cmd == "event") s = CmdEvent(t);
    else if (cmd == "rule") s = CmdRule(t);
    else if (cmd == "on") s = CmdOn(t);
    else if (cmd == "onclass") s = CmdOnClass(t);
    else if (cmd == "enable" || cmd == "disable") s = CmdEnableDisable(t);
    else if (cmd == "index") s = CmdIndex(t);
    else if (cmd == "find") s = CmdFind(t);
    else if (cmd == "range") s = CmdRange(t);
    else if (cmd == "persist") s = CmdPersist(t);
    else if (cmd == "save") s = db_->SaveRulesAndEvents();
    else if (cmd == "show") s = CmdShow(t);
    else s = Status::InvalidArgument("unknown command '" + cmd + "'");
    if (!s.ok()) std::printf("error: %s\n", s.ToString().c_str());
    return true;
  }

 private:
  Status CmdClass(const std::vector<std::string>& t) {
    if (t.size() < 2) return Status::InvalidArgument("class <Name> ...");
    ClassBuilder builder(t[1]);
    builder.Reactive();
    for (size_t i = 2; i < t.size(); ++i) {
      if (t[i] == "extends" && i + 1 < t.size()) {
        builder.Extends(t[++i]);
      } else if (t[i] == "methods" && i + 1 < t.size()) {
        std::stringstream ss(t[++i]);
        std::string item;
        while (std::getline(ss, item, ',')) {
          size_t colon = item.find(':');
          std::string method = item.substr(0, colon);
          std::string shade =
              colon == std::string::npos ? "end" : item.substr(colon + 1);
          EventSpec spec;
          spec.begin = shade == "begin" || shade == "both";
          spec.end = shade == "end" || shade == "both";
          builder.Method(method, spec);
        }
      }
    }
    SENTINEL_RETURN_IF_ERROR(db_->RegisterClass(builder.Build()));
    std::printf("class %s registered\n", t[1].c_str());
    return Status::OK();
  }

  Status CmdNew(const std::vector<std::string>& t) {
    if (t.size() < 3) return Status::InvalidArgument("new <Class> <name>");
    auto obj = std::make_unique<ReactiveObject>(t[1]);
    for (size_t i = 3; i < t.size(); ++i) {
      size_t eq = t[i].find('=');
      if (eq == std::string::npos) continue;
      obj->SetAttrRaw(t[i].substr(0, eq), ParseValue(t[i].substr(eq + 1)));
    }
    SENTINEL_RETURN_IF_ERROR(db_->RegisterLiveObject(obj.get()));
    std::printf("%s = %s (%s)\n", t[2].c_str(),
                OidToString(obj->oid()).c_str(), t[1].c_str());
    objects_[t[2]] = std::move(obj);
    return Status::OK();
  }

  Status CmdCall(const std::vector<std::string>& t) {
    if (t.size() < 3) return Status::InvalidArgument("call <obj> <Method>");
    auto it = objects_.find(t[1]);
    if (it == objects_.end()) return Status::NotFound("object " + t[1]);
    ValueList args;
    for (size_t i = 3; i < t.size(); ++i) args.push_back(ParseValue(t[i]));
    ReactiveObject* obj = it->second.get();
    const std::string& method = t[2];
    return db_->WithTransaction([&](Transaction* txn) {
      MethodEventScope scope(obj, method, args);
      // Convention: a one-argument Set<Attr> call writes the attribute.
      if (method.rfind("Set", 0) == 0 && args.size() == 1) {
        std::string attr = method.substr(3);
        for (char& c : attr) c = static_cast<char>(std::tolower(c));
        obj->SetAttr(txn, attr, args[0]);
      }
      return Status::OK();
    });
  }

  Status CmdSet(const std::vector<std::string>& t) {
    if (t.size() != 4) return Status::InvalidArgument("set <obj> <attr> <v>");
    auto it = objects_.find(t[1]);
    if (it == objects_.end()) return Status::NotFound("object " + t[1]);
    it->second->SetAttrRaw(t[2], ParseValue(t[3]));
    return Status::OK();
  }

  Status CmdEvent(const std::vector<std::string>& t) {
    if (t.size() < 4) return Status::InvalidArgument("event <name> <kind> ..");
    const std::string& name = t[1];
    const std::string& kind = t[2];
    EventPtr event;
    if (kind == "primitive") {
      SENTINEL_ASSIGN_OR_RETURN(event, db_->CreatePrimitiveEvent(t[3]));
    } else {
      if (t.size() < 5) return Status::InvalidArgument("need two operands");
      SENTINEL_ASSIGN_OR_RETURN(EventPtr left,
                                db_->detector()->GetEvent(t[3]));
      SENTINEL_ASSIGN_OR_RETURN(EventPtr right,
                                db_->detector()->GetEvent(t[4]));
      if (kind == "and") event = And(left, right);
      else if (kind == "or") event = Or(left, right);
      else if (kind == "seq") event = Seq(left, right);
      else return Status::InvalidArgument("kind must be and|or|seq");
    }
    SENTINEL_RETURN_IF_ERROR(db_->detector()->RegisterEvent(name, event));
    std::printf("event %s = %s\n", name.c_str(), event->Describe().c_str());
    return Status::OK();
  }

  Status CmdRule(const std::vector<std::string>& t) {
    // rule <name> when <event> [if X OP V] [then ...] [coupling ...] ...
    if (t.size() < 4 || t[2] != "when") {
      return Status::InvalidArgument("rule <name> when <event> ...");
    }
    RuleSpec spec;
    spec.name = t[1];
    spec.event_name = t[3];
    size_t i = 4;
    // Condition: if <lhs> <op> <value> where lhs = attr name or param<i>.
    if (i + 3 <= t.size() && t[i] == "if") {
      std::string lhs = t[i + 1], op = t[i + 2];
      Value rhs = ParseValue(t[i + 3]);
      i += 4;
      Database* db = db_.get();
      spec.condition = [lhs, op, rhs, db](const RuleContext& ctx) {
        Value actual;
        if (lhs.rfind("param", 0) == 0) {
          size_t idx = std::strtoul(lhs.c_str() + 5, nullptr, 10);
          if (idx >= ctx.params().size()) return false;
          actual = ctx.params()[idx];
        } else {
          ReactiveObject* obj =
              db->FindLiveObject(ctx.detection->last().oid);
          if (obj == nullptr) return false;
          actual = obj->GetAttr(lhs);
        }
        if (op == "<") return actual < rhs;
        if (op == "<=") return actual <= rhs;
        if (op == ">") return actual > rhs;
        if (op == ">=") return actual >= rhs;
        if (op == "==") return actual == rhs;
        if (op == "!=") return actual != rhs;
        return false;
      };
    }
    // Action.
    if (i < t.size() && t[i] == "then") {
      ++i;
      if (i < t.size() && t[i] == "print") {
        std::string msg = i + 1 < t.size() ? t[i + 1] : "";
        i += 2;
        std::string rule_name = spec.name;
        spec.action = [msg, rule_name](RuleContext& ctx) {
          std::printf("[rule %s] %s %s\n", rule_name.c_str(), msg.c_str(),
                      sentinel::ToString(ctx.params()).c_str());
          return Status::OK();
        };
      } else if (i < t.size() && t[i] == "abort") {
        ++i;
        spec.action = [](RuleContext& ctx) {
          if (ctx.txn != nullptr) ctx.txn->RequestAbort("rule veto");
          return Status::OK();
        };
      } else if (i + 2 < t.size() && t[i] == "set") {
        std::string attr = t[i + 1];
        Value value = ParseValue(t[i + 2]);
        i += 3;
        Database* db = db_.get();
        spec.action = [attr, value, db](RuleContext& ctx) {
          ReactiveObject* obj =
              db->FindLiveObject(ctx.detection->last().oid);
          if (obj != nullptr) obj->SetAttr(ctx.txn, attr, value);
          return Status::OK();
        };
      }
    }
    // Trailing options.
    for (; i + 1 < t.size(); ++i) {
      if (t[i] == "coupling") {
        const std::string& mode = t[++i];
        spec.coupling = mode == "deferred" ? CouplingMode::kDeferred
                        : mode == "detached" ? CouplingMode::kDetached
                                             : CouplingMode::kImmediate;
      } else if (t[i] == "priority") {
        spec.priority = std::atoi(t[++i].c_str());
      }
    }
    SENTINEL_ASSIGN_OR_RETURN(RulePtr rule, db_->CreateRule(spec));
    std::printf("rule %s created (%s, priority %d)\n", rule->name().c_str(),
                sentinel::ToString(rule->coupling()), rule->priority());
    return Status::OK();
  }

  Status CmdOn(const std::vector<std::string>& t) {
    if (t.size() != 3) return Status::InvalidArgument("on <obj> <rule>");
    auto it = objects_.find(t[1]);
    if (it == objects_.end()) return Status::NotFound("object " + t[1]);
    SENTINEL_ASSIGN_OR_RETURN(RulePtr rule, db_->rules()->GetRule(t[2]));
    return db_->ApplyRuleToInstance(rule, it->second.get());
  }

  Status CmdOnClass(const std::vector<std::string>& t) {
    if (t.size() != 3) return Status::InvalidArgument("onclass <Class> <r>");
    SENTINEL_ASSIGN_OR_RETURN(RulePtr rule, db_->rules()->GetRule(t[2]));
    return db_->ApplyRuleToClass(rule, t[1]);
  }

  Status CmdEnableDisable(const std::vector<std::string>& t) {
    if (t.size() != 2) return Status::InvalidArgument("enable|disable <r>");
    SENTINEL_ASSIGN_OR_RETURN(RulePtr rule, db_->rules()->GetRule(t[1]));
    if (t[0] == "enable") rule->Enable();
    else rule->Disable();
    return Status::OK();
  }

  Status CmdIndex(const std::vector<std::string>& t) {
    if (t.size() != 3) return Status::InvalidArgument("index <Class> <attr>");
    return db_->CreateIndex(t[1], t[2]);
  }

  Status CmdFind(const std::vector<std::string>& t) {
    if (t.size() != 4) return Status::InvalidArgument("find <C> <attr> <v>");
    SENTINEL_ASSIGN_OR_RETURN(
        std::vector<Oid> hits,
        db_->FindInstances(t[1], t[2], ParseValue(t[3])));
    PrintOids(hits);
    return Status::OK();
  }

  Status CmdRange(const std::vector<std::string>& t) {
    if (t.size() != 5) {
      return Status::InvalidArgument("range <C> <attr> <lo> <hi>");
    }
    SENTINEL_ASSIGN_OR_RETURN(
        std::vector<Oid> hits,
        db_->FindInstancesInRange(t[1], t[2], ParseValue(t[3]),
                                  ParseValue(t[4])));
    PrintOids(hits);
    return Status::OK();
  }

  Status CmdPersist(const std::vector<std::string>& t) {
    if (t.size() != 2) return Status::InvalidArgument("persist <obj>");
    auto it = objects_.find(t[1]);
    if (it == objects_.end()) return Status::NotFound("object " + t[1]);
    return db_->WithTransaction([&](Transaction* txn) {
      return db_->Persist(txn, it->second.get());
    });
  }

  Status CmdShow(const std::vector<std::string>& t) {
    std::string what = t.size() > 1 ? t[1] : "stats";
    if (what == "classes") {
      for (const std::string& name : db_->catalog()->ClassNames()) {
        std::printf("  %s%s\n", name.c_str(),
                    db_->catalog()->IsReactive(name) ? " (reactive)" : "");
      }
    } else if (what == "objects") {
      for (const auto& [name, obj] : objects_) {
        std::printf("  %s = %s (%s):", name.c_str(),
                    OidToString(obj->oid()).c_str(),
                    obj->class_name().c_str());
        for (const auto& [attr, value] : obj->attrs()) {
          std::printf(" %s=%s", attr.c_str(), value.ToString().c_str());
        }
        std::printf("\n");
      }
    } else if (what == "events") {
      for (const std::string& name : db_->detector()->EventNames()) {
        auto event = db_->detector()->GetEvent(name);
        std::printf("  %s = %s (signaled %llu)\n", name.c_str(),
                    event.value()->Describe().c_str(),
                    static_cast<unsigned long long>(
                        event.value()->signal_count()));
      }
    } else if (what == "rules") {
      for (const std::string& name : db_->rules()->RuleNames()) {
        auto rule = db_->rules()->GetRule(name).value();
        std::printf("  %s: %s, triggered %llu, fired %llu%s\n",
                    name.c_str(), sentinel::ToString(rule->coupling()),
                    static_cast<unsigned long long>(rule->triggered_count()),
                    static_cast<unsigned long long>(rule->fired_count()),
                    rule->enabled() ? "" : " (disabled)");
      }
    } else {
      std::printf("  objects: %zu live, %zu committed\n", objects_.size(),
                  db_->store()->ObjectCount());
      std::printf("  events: %zu named, %llu occurrences logged\n",
                  db_->detector()->event_count(),
                  static_cast<unsigned long long>(
                      db_->metrics()->counter("events.occurrences")->Value()));
      std::printf("  rules: %zu, executed %llu\n",
                  db_->rules()->rule_count(),
                  static_cast<unsigned long long>(
                      db_->metrics()->histogram("rules.dispatch_ns")->Count()));
    }
    return Status::OK();
  }

  void PrintOids(const std::vector<Oid>& oids) {
    std::printf("  %zu hit(s):", oids.size());
    for (Oid oid : oids) {
      // Resolve back to shell names where possible.
      const char* name = nullptr;
      for (const auto& [n, obj] : objects_) {
        if (obj->oid() == oid) {
          name = n.c_str();
          break;
        }
      }
      std::printf(" %s", name != nullptr ? name : OidToString(oid).c_str());
    }
    std::printf("\n");
  }

  std::unique_ptr<Database> db_;
  std::map<std::string, std::unique_ptr<ReactiveObject>> objects_;
};

}  // namespace shell

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : "/tmp/sentinel_shell";
  std::filesystem::create_directories(dir);
  auto opened = sentinel::Database::Open({.dir = dir});
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  shell::Shell sh(std::move(opened).value());
  std::printf("sentinel shell — type commands, 'quit' to exit\n");
  std::string line;
  bool tty = isatty(0);
  while (true) {
    if (tty) std::printf("> ");
    if (!std::getline(std::cin, line)) break;
    if (!tty) std::printf("> %s\n", line.c_str());
    if (!sh.Execute(line)) break;
  }
  return 0;
}
