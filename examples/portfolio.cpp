// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Portfolio management: the paper's motivating inter-object rule (§2.1).
//
//   RULE Purchase:
//     WHEN IBM!SetPrice And DowJones!SetValue            /* Event */
//     IF   IBM!GetPrice < $80 and DowJones!Change < 3.4% /* Condition */
//     THEN Parker!PurchaseIBMStock                       /* Action */
//
// The rule is defined independently of the Stock, FinancialInfo, and
// Portfolio classes and monitors two specific instances from two different
// classes — the "external monitoring viewpoint" that neither Ode nor ADAM
// supports directly.
//
// Run:  ./build/examples/portfolio [workdir]

#include <cstdio>
#include <filesystem>

#include "core/database.h"
#include "events/operators.h"
#include "events/primitive_event.h"

namespace {

using namespace sentinel;  // NOLINT: example brevity.

/// A reactive stock quoted on the exchange.
class Stock : public ReactiveObject {
 public:
  explicit Stock(std::string ticker) : ReactiveObject("Stock") {
    SetAttrRaw("ticker", Value(std::move(ticker)));
    SetAttrRaw("price", Value(0.0));
  }

  void SetPrice(Transaction* txn, double price) {
    MethodEventScope scope(this, "SetPrice", {Value(price)});
    SetAttr(txn, "price", Value(price));
  }

  double GetPrice() const { return GetAttr("price").AsDouble(); }
  std::string ticker() const { return GetAttr("ticker").AsString(); }
};

/// A reactive market index.
class FinancialInfo : public ReactiveObject {
 public:
  explicit FinancialInfo(std::string name) : ReactiveObject("FinancialInfo") {
    SetAttrRaw("name", Value(std::move(name)));
    SetAttrRaw("value", Value(0.0));
    SetAttrRaw("change", Value(0.0));
  }

  void SetValue(Transaction* txn, double value) {
    MethodEventScope scope(this, "SetValue", {Value(value)});
    double previous = GetAttr("value").AsDouble();
    SetAttr(txn, "value", Value(value));
    SetAttr(txn, "change",
            Value(previous == 0.0
                      ? 0.0
                      : 100.0 * (value - previous) / previous));
  }

  double Change() const { return GetAttr("change").AsDouble(); }
};

/// A passive-turned-notifiable portfolio: it owns positions and buys stock
/// when its rule fires. (Portfolios need no event interface of their own —
/// they are the *consumers*.)
class Portfolio : public ReactiveObject {
 public:
  explicit Portfolio(std::string owner) : ReactiveObject("Portfolio") {
    SetAttrRaw("owner", Value(std::move(owner)));
    SetAttrRaw("shares", Value(int64_t{0}));
    SetAttrRaw("spent", Value(0.0));
  }

  void PurchaseStock(Transaction* txn, const Stock& stock, int64_t shares) {
    SetAttr(txn, "shares", Value(GetAttr("shares").AsInt() + shares));
    SetAttr(txn, "spent",
            Value(GetAttr("spent").AsDouble() +
                  stock.GetPrice() * static_cast<double>(shares)));
  }

  int64_t shares() const { return GetAttr("shares").AsInt(); }
  double spent() const { return GetAttr("spent").AsDouble(); }
};

Status Run(const std::string& dir) {
  SENTINEL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                            Database::Open({.dir = dir}));
  std::printf("== Portfolio monitoring (paper §2.1) ==\n");

  SENTINEL_RETURN_IF_ERROR(db->RegisterClass(
      ClassBuilder("Stock")
          .Reactive()
          .Method("SetPrice", {.begin = false, .end = true})
          .Build()));
  SENTINEL_RETURN_IF_ERROR(db->RegisterClass(
      ClassBuilder("FinancialInfo")
          .Reactive()
          .Method("SetValue", {.begin = false, .end = true})
          .Build()));
  SENTINEL_RETURN_IF_ERROR(
      db->RegisterClass(ClassBuilder("Portfolio").Build()));

  Stock ibm("IBM"), hp("HP");
  FinancialInfo dow("DowJones");
  Portfolio parker("Parker");
  for (ReactiveObject* obj :
       std::initializer_list<ReactiveObject*>{&ibm, &hp, &dow, &parker}) {
    SENTINEL_RETURN_IF_ERROR(db->RegisterLiveObject(obj));
  }

  // Event: IBM!SetPrice And DowJones!SetValue — instance-restricted
  // primitives composed with conjunction.
  SENTINEL_ASSIGN_OR_RETURN(EventPtr set_price,
                            db->CreatePrimitiveEvent("end Stock::SetPrice"));
  static_cast<PrimitiveEvent*>(set_price.get())
      ->RestrictToInstance(ibm.oid());
  SENTINEL_ASSIGN_OR_RETURN(
      EventPtr set_value,
      db->CreatePrimitiveEvent("end FinancialInfo::SetValue"));
  static_cast<PrimitiveEvent*>(set_value.get())
      ->RestrictToInstance(dow.oid());
  EventPtr when = And(set_price, set_value);
  SENTINEL_RETURN_IF_ERROR(db->detector()->RegisterEvent("PurchaseWhen",
                                                         when));

  RuleSpec purchase;
  purchase.name = "Purchase";
  purchase.event = when;
  purchase.condition = [&](const RuleContext&) {
    return ibm.GetPrice() < 80.0 && dow.Change() < 3.4;
  };
  purchase.action = [&](RuleContext& ctx) {
    parker.PurchaseStock(ctx.txn, ibm, 100);
    std::printf("  -> Purchase fired: Parker buys 100 IBM @ %.2f\n",
                ibm.GetPrice());
    return Status::OK();
  };
  SENTINEL_ASSIGN_OR_RETURN(RulePtr rule, db->CreateRule(purchase));

  // The rule subscribes to exactly the two monitored objects.
  SENTINEL_RETURN_IF_ERROR(db->ApplyRuleToInstance(rule, &ibm));
  SENTINEL_RETURN_IF_ERROR(db->ApplyRuleToInstance(rule, &dow));
  std::printf("rule 'Purchase' monitors IBM (Stock) + DowJones "
              "(FinancialInfo); HP is not monitored\n\n");

  // Market activity. HP's updates raise events too but reach no rule.
  SENTINEL_RETURN_IF_ERROR(db->WithTransaction([&](Transaction* txn) {
    dow.SetValue(txn, 3400.0);  // Baseline; change = 0.
    hp.SetPrice(txn, 120.0);
    ibm.SetPrice(txn, 91.0);  // Conjunction complete, but price >= 80.
    return Status::OK();
  }));
  std::printf("tick 1: ibm=91.00 dow=3400 -> fired=%llu (condition false)\n",
              static_cast<unsigned long long>(rule->fired_count()));

  SENTINEL_RETURN_IF_ERROR(db->WithTransaction([&](Transaction* txn) {
    ibm.SetPrice(txn, 78.5);    // Below $80 ...
    dow.SetValue(txn, 3460.0);  // ... and the Dow moved +1.76% < 3.4%.
    return Status::OK();
  }));
  std::printf("tick 2: ibm=78.50 dow=3460 -> fired=%llu, Parker holds %lld "
              "shares ($%.2f)\n",
              static_cast<unsigned long long>(rule->fired_count()),
              static_cast<long long>(parker.shares()), parker.spent());

  SENTINEL_RETURN_IF_ERROR(db->WithTransaction([&](Transaction* txn) {
    SENTINEL_RETURN_IF_ERROR(db->Persist(txn, &parker));
    SENTINEL_RETURN_IF_ERROR(db->Persist(txn, &ibm));
    return db->Persist(txn, &dow);
  }));
  std::printf("\ntriggered=%llu fired=%llu; occurrences logged=%llu\n",
              static_cast<unsigned long long>(rule->triggered_count()),
              static_cast<unsigned long long>(rule->fired_count()),
              static_cast<unsigned long long>(
                  db->metrics()->counter("events.occurrences")->Value()));
  return db->Close();
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : "/tmp/sentinel_portfolio";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Status s = Run(dir);
  if (!s.ok()) {
    std::fprintf(stderr, "portfolio failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("portfolio OK\n");
  return 0;
}
