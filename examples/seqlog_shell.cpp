// seqlog_shell: an interactive Sequence/Transducer Datalog console.
//
//   $ ./seqlog_shell
//   seqlog> suffix(X[N:end]) :- r(X).
//   seqlog> +r acgt
//   seqlog> :run
//   seqlog> :query suffix
//
// Rule lines (anything containing ":-") accumulate into the program;
// "+pred arg1 arg2 ..." adds a database fact; commands start with ':'.
// The standard transducer library (append, reverse, complement, square,
// transcribe, translate, ...) is pre-registered, so @-terms work out of
// the box:
//
//   seqlog> sq(@square(X)) :- r(X).
//
// This example doubles as a manual-testing harness for every public
// surface of the Engine facade: program loading, fact entry, the three
// evaluation strategies, safety analysis, dependency-graph export, and
// budget configuration.
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint.h"
#include "analysis/safety.h"
#include "core/engine.h"
#include "serve/client.h"
#include "transducer/genome.h"
#include "transducer/library.h"
#include "transducer/network.h"

namespace {

using seqlog::Engine;
using seqlog::Status;

constexpr char kHelp[] = R"(seqlog shell commands
  <rule>.                 add a rule (any line containing ":-")
  +<pred> <arg> ...       add a database fact, e.g.  +r acgt
  ?- <pred>(<args>).      solve one goal by demand (magic sets)
  :run [naive|semi|strat] evaluate (default: semi-naive)
  :drain                  apply facts added since :run incrementally
                          (live ingest; retractions recompute cold)
  :query <pred>           print the predicate's tuples in the model
  :solve <goal>           same as ?- <goal>, e.g.  :solve suffix(acgt)
  :prepare <name> <goal>  compile a goal once, e.g. :prepare s suffix($1)
  :bind <name> <i> <val>  bind parameter $i of a prepared goal
  :exec <name> [v1 ...]   execute (optionally binding $1..$k first)
                          against a fresh snapshot of the facts
  :program                show the accumulated program
  :safety                 safety report (Definitions 8-10)
  :check [goal]           lint the program (analysis/lint.h); with a
                          goal also checks reachability/bindability
  :dot                    dependency graph in Graphviz format (Figure 3)
  :limits <iters> <facts> set evaluation budgets
  :stats                  time split of the last :run (firing vs closure)
  :serve-stats <host> <p> counters of a running seqlog-serve (STATS verb)
  :load <file>            append rules from a file
  :clear                  drop program and facts
  :machines               list registered transducers
  :help                   this text
  :quit                   exit
)";

/// Registers the standard machine library so @-terms resolve.
Status RegisterStandardMachines(Engine* engine) {
  auto reg = [&](auto result) -> Status {
    if (!result.ok()) return result.status();
    return engine->RegisterTransducer(result.value());
  };
  seqlog::SymbolTable* syms = engine->symbols();
  std::vector<seqlog::Symbol> dna = {
      syms->Intern("a"), syms->Intern("c"), syms->Intern("g"),
      syms->Intern("t")};
  SEQLOG_RETURN_IF_ERROR(reg(seqlog::transducer::MakeAppend("append", 2)));
  SEQLOG_RETURN_IF_ERROR(reg(seqlog::transducer::MakeIdentity("id")));
  SEQLOG_RETURN_IF_ERROR(reg(seqlog::transducer::MakeSquare("square")));
  SEQLOG_RETURN_IF_ERROR(
      reg(seqlog::transducer::MakeReverse("reverse", dna)));
  SEQLOG_RETURN_IF_ERROR(reg(seqlog::transducer::MakeEcho("echo", dna)));
  SEQLOG_RETURN_IF_ERROR(
      reg(seqlog::transducer::MakeTranscribe("transcribe", syms)));
  SEQLOG_RETURN_IF_ERROR(
      reg(seqlog::transducer::MakeTranslate("translate", syms)));
  // The genome pipeline as a compiled network: @rnapipe(X) is
  // translate(transcribe(X)) fused into one deterministic machine
  // (transducer/compile.h); :stats shows the compile counters after a
  // run that used it.
  {
    auto transcribe = seqlog::transducer::MakeTranscribe("t", syms);
    auto translate = seqlog::transducer::MakeTranslate("tr", syms);
    if (!transcribe.ok()) return transcribe.status();
    if (!translate.ok()) return translate.status();
    auto net =
        std::make_shared<seqlog::transducer::TransducerNetwork>("rnapipe", 1);
    SEQLOG_ASSIGN_OR_RETURN(
        size_t n0,
        net->AddNode(transcribe.value(),
                     {seqlog::transducer::InputSource::FromNetwork(0)}));
    SEQLOG_ASSIGN_OR_RETURN(
        size_t n1,
        net->AddNode(translate.value(),
                     {seqlog::transducer::InputSource::FromNode(n0)}));
    SEQLOG_RETURN_IF_ERROR(net->SetOutput(n1));
    SEQLOG_RETURN_IF_ERROR(net->Compile(dna));
    SEQLOG_RETURN_IF_ERROR(engine->RegisterTransducer(std::move(net)));
  }
  return Status::Ok();
}

/// Holds the shell's accumulated state; the Engine is rebuilt lazily on
/// :run so rules can arrive in any order.
class Shell {
 public:
  Shell() { Reset(); }

  int Loop() {
    std::string line;
    std::cout << "seqlog shell - :help for commands\n";
    while (true) {
      std::cout << "seqlog> " << std::flush;
      if (!std::getline(std::cin, line)) break;
      if (!Dispatch(line)) break;
    }
    return 0;
  }

 private:
  void Reset() {
    engine_ = std::make_unique<Engine>();
    Status s = RegisterStandardMachines(engine_.get());
    if (!s.ok()) std::cout << "! " << s.ToString() << "\n";
    program_.clear();
    facts_.clear();
    prepared_.clear();
    evaluated_ = false;
    engine_stale_ = false;
  }

  bool Dispatch(const std::string& line) {
    std::string trimmed = Trim(line);
    if (trimmed.empty()) return true;
    if (trimmed[0] == '+') return AddFact(trimmed.substr(1));
    if (trimmed[0] == ':') return Command(trimmed);
    if (trimmed.rfind("?-", 0) == 0) {
      Solve(trimmed);
      return true;
    }
    if (trimmed.find(":-") != std::string::npos ||
        trimmed.find("<=") != std::string::npos) {
      program_ += trimmed;
      program_ += '\n';
      evaluated_ = false;
      engine_stale_ = true;
      return true;
    }
    std::cout << "? not a rule, fact or command (:help)\n";
    return true;
  }

  bool AddFact(const std::string& rest) {
    std::istringstream in(rest);
    std::string pred;
    in >> pred;
    std::vector<std::string> args;
    std::string arg;
    while (in >> arg) args.push_back(arg == "eps" ? "" : arg);
    if (pred.empty()) {
      std::cout << "? usage: +pred arg1 arg2 ...\n";
      return true;
    }
    facts_.emplace_back(pred, args);
    evaluated_ = false;
    // Facts can be appended to the live engine without a rebuild;
    // prepared goals keep working and :exec snapshots pick them up.
    if (!engine_stale_) {
      Status s = engine_->AddFact(facts_.back().first, facts_.back().second);
      if (!s.ok()) {
        std::cout << "! " << s.ToString() << "\n";
        facts_.pop_back();
      }
    }
    return true;
  }

  bool Command(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == ":quit" || cmd == ":q") return false;
    if (cmd == ":help") {
      std::cout << kHelp;
    } else if (cmd == ":clear") {
      Reset();
      std::cout << "cleared\n";
    } else if (cmd == ":program") {
      std::cout << (program_.empty() ? "(empty)\n" : program_);
    } else if (cmd == ":machines") {
      for (const auto& [name, order] : engine_->registry()->Orders()) {
        std::cout << "  @" << name << "  (order " << order << ")\n";
      }
    } else if (cmd == ":limits") {
      in >> limits_.max_iterations >> limits_.max_facts;
      std::cout << "budgets: " << limits_.max_iterations << " iterations, "
                << limits_.max_facts << " facts\n";
    } else if (cmd == ":stats") {
      PrintStats();
    } else if (cmd == ":serve-stats") {
      std::string host;
      int port = 0;
      in >> host >> port;
      ServeStats(host, port);
    } else if (cmd == ":load") {
      std::string path;
      in >> path;
      LoadFile(path);
    } else if (cmd == ":run") {
      std::string mode;
      in >> mode;
      Run(mode);
    } else if (cmd == ":drain") {
      Drain();
    } else if (cmd == ":query") {
      std::string pred;
      in >> pred;
      Query(pred);
    } else if (cmd == ":solve") {
      std::string goal;
      std::getline(in, goal);
      Solve(goal);
    } else if (cmd == ":prepare") {
      std::string name, goal;
      in >> name;
      std::getline(in, goal);
      PrepareGoal(name, goal);
    } else if (cmd == ":bind") {
      std::string name, value;
      size_t index = 0;
      in >> name >> index >> value;
      BindParam(name, index, value);
    } else if (cmd == ":exec") {
      std::string name, value;
      in >> name;
      std::vector<std::string> values;
      while (in >> value) values.push_back(value == "eps" ? "" : value);
      Exec(name, values);
    } else if (cmd == ":check") {
      std::string goal;
      std::getline(in, goal);
      Check(goal);
    } else if (cmd == ":safety") {
      Safety(/*dot=*/false);
    } else if (cmd == ":dot") {
      Safety(/*dot=*/true);
    } else {
      std::cout << "? unknown command (:help)\n";
    }
    return true;
  }

  void LoadFile(const std::string& path) {
    std::ifstream file(path);
    if (!file) {
      std::cout << "! cannot open " << path << "\n";
      return;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    program_ += buffer.str();
    evaluated_ = false;
    engine_stale_ = true;
    std::cout << "loaded " << path << "\n";
  }

  /// (Re)loads program and facts into a fresh engine when rules changed
  /// since the last build; otherwise keeps the live engine (so prepared
  /// goals stay valid). Reports errors.
  bool Reload() {
    if (!engine_stale_) return true;
    std::unique_ptr<Engine> fresh = std::make_unique<Engine>();
    Status s = RegisterStandardMachines(fresh.get());
    if (s.ok()) s = fresh->LoadProgram(program_);
    if (!s.ok()) {
      std::cout << "! " << s.ToString() << "\n";
      return false;
    }
    for (const auto& [pred, args] : facts_) {
      s = fresh->AddFact(pred, args);
      if (!s.ok()) {
        std::cout << "! " << s.ToString() << "\n";
        return false;
      }
    }
    if (!prepared_.empty()) {
      std::cout << "(program changed: " << prepared_.size()
                << " prepared goal(s) dropped; re-:prepare)\n";
      prepared_.clear();
    }
    engine_ = std::move(fresh);
    engine_stale_ = false;
    return true;
  }

  void Run(const std::string& mode) {
    if (!Reload()) return;
    seqlog::eval::EvalOptions options;
    options.limits = limits_;
    if (mode == "naive") {
      options.strategy = seqlog::eval::Strategy::kNaive;
    } else if (mode == "strat") {
      options.strategy = seqlog::eval::Strategy::kStratified;
    } else {
      options.strategy = seqlog::eval::Strategy::kSemiNaive;
    }
    seqlog::eval::EvalOutcome outcome = engine_->Evaluate(options);
    if (!outcome.status.ok()) {
      std::cout << "! " << outcome.status.ToString() << "\n";
      std::cout << "  (partial model kept: " << outcome.stats.facts
                << " facts)\n";
    } else {
      std::cout << "fixpoint: " << outcome.stats.facts << " facts, "
                << outcome.stats.domain_sequences << " domain sequences, "
                << outcome.stats.iterations << " iterations, "
                << outcome.stats.millis << " ms\n";
    }
    last_stats_ = outcome.stats;
    have_stats_ = true;
    evaluated_ = true;
  }

  /// Applies facts added since the last :run incrementally — they sit
  /// in the EDB past the model's row watermark, and DrainIngest
  /// re-saturates the model from them as a delta (docs/STREAMING.md)
  /// instead of recomputing.
  void Drain() {
    // Facts added since :run flipped evaluated_, but the engine still
    // holds the model of the facts before them — exactly what a drain
    // catches up. Only new rules (engine_stale_) force a full :run.
    if (engine_stale_ || !engine_->live_model().built()) {
      std::cout << "? run :run first\n";
      return;
    }
    seqlog::eval::EvalOptions options;
    options.limits = limits_;
    seqlog::eval::EvalOutcome outcome = engine_->DrainIngest(options);
    if (!outcome.status.ok()) {
      std::cout << "! " << outcome.status.ToString() << "\n";
      return;
    }
    if (outcome.stats.ingested_facts == 0) {
      std::cout << "nothing staged\n";
      return;
    }
    last_stats_ = outcome.stats;
    have_stats_ = true;
    evaluated_ = true;  // the model covers every fact again
    if (outcome.stats.cold_fallback) {
      std::cout << "cold recompute (" << outcome.stats.ingested_facts
                << " staged facts): " << outcome.stats.facts << " facts, "
                << outcome.stats.iterations << " iterations, "
                << outcome.stats.millis << " ms\n";
    } else {
      std::cout << "resaturated: +" << outcome.stats.ingested_facts
                << " facts -> " << outcome.stats.facts << " total, "
                << outcome.stats.resaturate_rounds << " rounds, "
                << outcome.stats.resaturate_millis << " ms\n";
    }
  }

  /// Prints the time split of the last :run — clause firing vs the
  /// domain closure (EvalStats::fire_millis / domain_millis).
  void PrintStats() {
    if (!have_stats_) {
      std::cout << "? run :run first\n";
      return;
    }
    auto share = [&](double part) {
      return last_stats_.millis > 0
                 ? static_cast<int>(100.0 * part / last_stats_.millis + 0.5)
                 : 0;
    };
    std::cout << "last run: " << last_stats_.millis << " ms total\n"
              << "  firing:  " << last_stats_.fire_millis << " ms ("
              << share(last_stats_.fire_millis) << "%)\n"
              << "  closure: " << last_stats_.domain_millis() << " ms ("
              << share(last_stats_.domain_millis()) << "%)\n"
              << "    domain load:  " << last_stats_.domain_load_millis
              << " ms (" << share(last_stats_.domain_load_millis) << "%)\n"
              << "    domain merge: " << last_stats_.domain_merge_millis
              << " ms (" << share(last_stats_.domain_merge_millis)
              << "%)\n";
    if (last_stats_.ingested_facts > 0) {
      std::cout << "  live ingest: " << last_stats_.ingested_facts
                << " facts applied, " << last_stats_.resaturate_rounds
                << " resaturation rounds, " << last_stats_.resaturate_millis
                << " ms"
                << (last_stats_.cold_fallback ? " (cold fallback)" : "")
                << "\n";
    }
    const seqlog::TransducerStats& t = last_stats_.transducer;
    // Shown once a compiled network actually ran (the counters are
    // cumulative over the engine's lifetime); runs that never touch a
    // network keep the classic five-line output.
    if (t.compiled_node_runs + t.interpreted_node_runs > 0) {
      std::cout << "  transducers: " << t.machines_compiled
                << " machine(s) compiled (" << t.states_in << " -> "
                << t.states_out << " states), " << t.fusion_hits
                << " fusion(s), "
                << t.fusion_fallbacks << " fallback(s)\n"
                << "    node runs: " << t.compiled_node_runs
                << " compiled, " << t.interpreted_node_runs
                << " interpreted\n";
    }
  }

  /// The shell as a minimal monitoring client: fetches a running
  /// seqlog-serve's counters via the STATS verb (docs/SERVING.md).
  void ServeStats(const std::string& host, int port) {
    if (host.empty() || port <= 0 || port > 65535) {
      std::cout << "? usage: :serve-stats <host> <port>\n";
      return;
    }
    seqlog::serve::TextClient client;
    Status s = client.Connect(host, static_cast<uint16_t>(port));
    if (!s.ok()) {
      std::cout << "! " << s.ToString() << "\n";
      return;
    }
    auto reply = client.Roundtrip("STATS");
    if (!reply.ok()) {
      std::cout << "! " << reply.status().ToString() << "\n";
      return;
    }
    if (!reply.value().ok()) {
      std::cout << "! " << reply.value().header << "\n";
      return;
    }
    for (const std::string& line : reply.value().body) {
      std::cout << "  "
                << (line.rfind("STAT ", 0) == 0 ? line.substr(5) : line)
                << "\n";
    }
  }

  void Query(const std::string& pred) {
    if (!evaluated_) {
      std::cout << "? run :run first\n";
      return;
    }
    auto rows = engine_->Query(pred);
    if (!rows.ok()) {
      if (rows.status().code() == seqlog::StatusCode::kNotFound) {
        std::cout << "? unknown predicate '" << pred << "'\n";
      } else {
        std::cout << "! " << rows.status().ToString() << "\n";
      }
      return;
    }
    PrintRows(rows.value());
  }

  /// Answers one goal by demand evaluation; no :run needed.
  void Solve(const std::string& goal) {
    if (!Reload()) return;
    seqlog::query::SolveOptions options;
    options.eval.limits = limits_;
    seqlog::Result<seqlog::PreparedQuery> pq = engine_->Prepare(goal);
    const seqlog::ResultSet rs =
        pq.ok() ? pq->Execute(options) : seqlog::ResultSet();
    const seqlog::Status& status = pq.ok() ? rs.status() : pq.status();
    if (!status.ok()) {
      if (status.code() == seqlog::StatusCode::kNotFound) {
        std::cout << "? " << status.message() << "\n";
        return;
      }
      std::cout << "! " << status.ToString() << "\n";
      if (status.code() != seqlog::StatusCode::kResourceExhausted) return;
      std::cout << "  (partial answers kept)\n";
    }
    const seqlog::query::SolveStats& stats = rs.stats();
    PrintRows(rs.Materialize());
    std::cout << "  [adornment "
              << (stats.goal_adornment.empty() ? "-" : stats.goal_adornment)
              << ", " << stats.adorned_predicates
              << " adorned predicate(s), " << stats.derived_facts
              << " facts derived (" << stats.magic_facts << " magic), "
              << stats.eval.iterations << " iterations]\n";
  }

  /// Compiles a goal once under `name`; later :exec calls reuse the
  /// cached rewrite (zero parsing / rewriting per call).
  void PrepareGoal(const std::string& name, const std::string& goal) {
    if (name.empty() || goal.empty()) {
      std::cout << "? usage: :prepare <name> <goal>, e.g. "
                   ":prepare s suffix($1)\n";
      return;
    }
    if (!Reload()) return;
    auto pq = engine_->Prepare(goal);
    if (!pq.ok()) {
      std::cout << "! " << pq.status().ToString() << "\n";
      return;
    }
    std::cout << "prepared '" << name << "': " << pq->param_count()
              << " parameter(s), adornment "
              << (pq->goal_adornment().empty() ? "-" : pq->goal_adornment())
              << "\n";
    prepared_.insert_or_assign(name, std::move(pq).value());
  }

  void BindParam(const std::string& name, size_t index,
                 const std::string& value) {
    // Reload first: a rule change invalidates prepared goals (Reload
    // drops them with a message) — never bind into a stale engine.
    if (!Reload()) return;
    auto it = prepared_.find(name);
    if (it == prepared_.end()) {
      std::cout << "? no prepared goal '" << name << "' (:prepare first)\n";
      return;
    }
    Status s = it->second.Bind(index, value == "eps" ? "" : value);
    if (!s.ok()) {
      std::cout << "! " << s.ToString() << "\n";
      return;
    }
    std::cout << "bound $" << index << "\n";
  }

  /// Executes a prepared goal against a fresh snapshot of the facts,
  /// binding $1..$k positionally when values are given.
  void Exec(const std::string& name, const std::vector<std::string>& values) {
    // Reload first: rule changes drop prepared goals (with a message)
    // and buffered facts reach the fresh engine before the snapshot.
    if (!Reload()) return;
    auto it = prepared_.find(name);
    if (it == prepared_.end()) {
      std::cout << "? no prepared goal '" << name << "' (:prepare first)\n";
      return;
    }
    seqlog::PreparedQuery& pq = it->second;
    for (size_t i = 0; i < values.size(); ++i) {
      Status s = pq.Bind(i + 1, values[i]);
      if (!s.ok()) {
        std::cout << "! " << s.ToString() << "\n";
        return;
      }
    }
    seqlog::query::SolveOptions options;
    options.eval.limits = limits_;
    seqlog::Snapshot snap = engine_->PublishSnapshot();
    seqlog::ResultSet rs = pq.Execute(snap, options);
    if (!rs.ok()) {
      std::cout << "! " << rs.status().ToString() << "\n";
      if (rs.status().code() != seqlog::StatusCode::kResourceExhausted) {
        return;
      }
      std::cout << "  (partial answers kept)\n";
    }
    PrintRows(rs.Materialize());
    seqlog::PreparedQueryStats stats = pq.stats();
    std::cout << "  [snapshot v" << snap.version() << ", "
              << rs.stats().derived_facts << " facts derived ("
              << rs.stats().magic_facts << " magic); prepared once: "
              << stats.goal_parses << " parse / " << stats.magic_rewrites
              << " rewrite, " << stats.executions << " execution(s)]\n";
  }

  void PrintRows(const std::vector<seqlog::RenderedRow>& rows) {
    for (const seqlog::RenderedRow& row : rows) {
      std::cout << "  (";
      for (size_t i = 0; i < row.size(); ++i) {
        std::cout << (i > 0 ? ", " : "") << '"' << row[i] << '"';
      }
      std::cout << ")\n";
    }
    std::cout << rows.size() << " tuple(s)\n";
  }

  /// Lints the accumulated program text (even when it does not validate
  /// — the linter reports every problem, not just the first). Predicates
  /// with +facts count as extensional; a goal argument enables the
  /// reachability/bindability passes.
  void Check(const std::string& goal_text) {
    seqlog::analysis::LintOptions options;
    options.include_info = true;
    for (const auto& [pred, args] : facts_) {
      options.edb_predicates.insert(pred);
    }
    // Lint in a scratch pool/symbol table: the program text may not even
    // parse, and linting must not disturb the engine.
    seqlog::SymbolTable symbols;
    seqlog::SequencePool pool;
    std::string trimmed_goal = Trim(goal_text);
    if (!trimmed_goal.empty()) {
      auto goal = seqlog::parser::ParseGoal(trimmed_goal, &symbols, &pool);
      if (!goal.ok()) {
        std::cout << "! " << goal.status().ToString() << "\n";
        return;
      }
      options.goal = goal.value();
    }
    seqlog::analysis::DiagnosticReport report =
        seqlog::analysis::LintSource(program_, &symbols, &pool, options);
    if (report.empty()) {
      std::cout << "no findings\n";
      return;
    }
    std::cout << report.RenderText();
  }

  void Safety(bool dot) {
    if (!Reload()) return;
    seqlog::analysis::SafetyReport report = engine_->AnalyzeSafety();
    if (dot) {
      std::cout << report.graph.ToDot();
      return;
    }
    std::cout << "non-constructive: " << (report.non_constructive ? "yes"
                                                                  : "no")
              << "\nstrongly safe:    " << (report.strongly_safe ? "yes"
                                                                 : "no")
              << "\n";
    if (report.offending_edge.has_value()) {
      std::cout << "constructive cycle through "
                << report.offending_edge->first << " -> "
                << report.offending_edge->second << "\n";
    }
    std::cout << "strata:\n";
    for (size_t i = 0; i < report.strata.size(); ++i) {
      std::cout << "  " << i << ": {";
      const auto& preds = report.strata[i].predicates;
      for (size_t j = 0; j < preds.size(); ++j) {
        std::cout << (j > 0 ? ", " : "") << preds[j];
      }
      std::cout << "}  " << report.strata[i].constructive_clauses.size()
                << " constructive / "
                << report.strata[i].nonconstructive_clauses.size()
                << " plain clause(s)\n";
    }
  }

  static std::string Trim(const std::string& s) {
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos) return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
  }

  std::unique_ptr<Engine> engine_;
  std::string program_;
  std::vector<std::pair<std::string, std::vector<std::string>>> facts_;
  std::map<std::string, seqlog::PreparedQuery> prepared_;
  seqlog::eval::EvalLimits limits_;
  seqlog::eval::EvalStats last_stats_;  ///< of the last :run, for :stats
  bool have_stats_ = false;
  bool evaluated_ = false;
  bool engine_stale_ = false;
};

}  // namespace

int main() {
  Shell shell;
  return shell.Loop();
}
