// ops_validate — structural validator for the ops-plane artifacts.
//
// CI runs serve_demo, then points this tool at what came out. Each flag
// names one artifact; only named artifacts are checked, so partial runs
// (e.g. a trace-only smoke) validate just what they produced.
//
//   --trace <file>        Chrome trace: every event is ph X/s/f, every
//                         traced X span carries trace_id/span_id/parent_id,
//                         every non-root parent resolves to a span of the
//                         same trace, and s/f flow pairs match by id.
//   --ops-feed <file>     JSONL feed: each line parses, schema is
//                         tbs.ops_feed.v1, seq strictly increases.
//   --prometheus <file>   text exposition: tbs_-prefixed samples, at least
//                         one # TYPE line, histogram buckets end at +Inf.
//   --flight <file>       flight-recorder dump: schema + events array,
//                         and every event carries a 16-hex trace_id (the
//                         key that joins it to spans and the cost ledger).
//   --cost <file>         cost ledger: schema tbs.cost_ledger.v1, rollup
//                         sections present, recorded queries > 0, and every
//                         sharded recent entry's Σ tile seconds balances
//                         its launch phase within 1%.
//   --collapsed <file>    collapsed-stack profile: non-empty, every line
//                         is "frame[;frame...] <integer µs>".
//   --integrity <file>    integrity_chaos ledger: schema tbs.integrity.v1,
//                         totals reconcile with the per-case rows, zero
//                         escapes anywhere, and the always-on defense
//                         overhead under 1% of p50.
//   --require-exemplar    the prometheus file must carry at least one
//                         OpenMetrics exemplar (# {trace_id="..."}).
//   --expect-breach       the flight dump must have reason "slo_breach",
//                         a non-empty trace_id and a positive
//                         threshold_seconds naming the breached objective
//                         (SLO negative test).
//
// Exit codes: 0 all named artifacts valid, 1 validation failure,
// 2 usage / missing-file / JSON-parse errors.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace {

namespace json = tbs::obs::json;

int g_failures = 0;

/// Record a validation failure (exit-1 class, not exit-2) and keep going
/// so one run reports everything wrong with the artifact set.
template <typename... Args>
void fail_check(const char* fmt, Args... args) {
  std::fprintf(stderr, "FAIL: ");
  std::fprintf(stderr, fmt, args...);
  std::fprintf(stderr, "\n");
  ++g_failures;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  tbs::check(static_cast<bool>(is), "cannot open '" + path + "'");
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

bool is_hex_id(const std::string& s) {
  if (s.size() != 16) return false;
  for (char c : s)
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  return true;
}

void validate_trace(const std::string& path) {
  const json::Value doc = json::parse(slurp(path));
  const json::Value& events = doc.at("traceEvents");
  tbs::check(events.is_array(), path + ": traceEvents is not an array");
  if (events.array.empty()) {
    fail_check("%s: empty traceEvents", path.c_str());
    return;
  }

  // span_id -> trace_id over all traced complete events, for linkage.
  std::unordered_map<std::string, std::string> span_trace;
  std::size_t complete = 0, traced = 0;
  std::multiset<std::string> flow_starts, flow_finishes;

  for (const json::Value& e : events.array) {
    const std::string& ph = e.at("ph").string;
    if (ph == "s") {
      flow_starts.insert(e.at("id").string);
      continue;
    }
    if (ph == "f") {
      flow_finishes.insert(e.at("id").string);
      continue;
    }
    if (ph != "X") {
      fail_check("%s: unexpected ph \"%s\" on event \"%s\"", path.c_str(),
                 ph.c_str(), e.at("name").string.c_str());
      continue;
    }
    ++complete;
    tbs::check(e.at("ts").is_number() && e.at("dur").is_number(),
               path + ": X event missing ts/dur");
    const json::Value* args = e.find("args");
    if (args == nullptr || args->find("trace_id") == nullptr) continue;
    ++traced;
    const std::string& trace_id = args->at("trace_id").string;
    const std::string& span_id = args->at("span_id").string;
    const std::string& parent_id = args->at("parent_id").string;
    if (!is_hex_id(trace_id) || !is_hex_id(span_id) || !is_hex_id(parent_id))
      fail_check("%s: span \"%s\" has malformed trace ids", path.c_str(),
                 e.at("name").string.c_str());
    if (!span_trace.emplace(span_id, trace_id).second)
      fail_check("%s: duplicate span_id %s", path.c_str(), span_id.c_str());
  }
  if (traced == 0)
    fail_check("%s: no event carries a trace context", path.c_str());

  // Second pass: every non-root parent must be a recorded span of the
  // SAME trace — a cross-trace or dangling link means propagation broke.
  for (const json::Value& e : events.array) {
    if (e.at("ph").string != "X") continue;
    const json::Value* args = e.find("args");
    if (args == nullptr || args->find("parent_id") == nullptr) continue;
    const std::string& parent_id = args->at("parent_id").string;
    if (parent_id == "0000000000000000") continue;
    const auto it = span_trace.find(parent_id);
    if (it == span_trace.end()) {
      fail_check("%s: span \"%s\" has dangling parent %s", path.c_str(),
                 e.at("name").string.c_str(), parent_id.c_str());
    } else if (it->second != args->at("trace_id").string) {
      fail_check("%s: span \"%s\" parent %s belongs to a different trace",
                 path.c_str(), e.at("name").string.c_str(),
                 parent_id.c_str());
    }
  }

  if (flow_starts != flow_finishes)
    fail_check("%s: flow s/f events do not pair up (%zu starts, %zu finishes)",
               path.c_str(), flow_starts.size(), flow_finishes.size());

  std::printf("trace       %-40s %zu complete, %zu traced, %zu flows\n",
              path.c_str(), complete, traced, flow_starts.size());
}

void validate_ops_feed(const std::string& path) {
  std::ifstream is(path);
  tbs::check(static_cast<bool>(is), "cannot open '" + path + "'");
  std::string line;
  std::size_t lines = 0;
  double last_seq = -1.0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    const json::Value doc = json::parse(line);
    if (doc.at("schema").string != "tbs.ops_feed.v1") {
      fail_check("%s:%zu: bad schema \"%s\"", path.c_str(), lines,
                 doc.at("schema").string.c_str());
    }
    tbs::check(doc.at("t_us").is_number(), path + ": t_us is not a number");
    tbs::check(doc.at("metrics").is_object(),
               path + ": metrics is not an object");
    const double seq = doc.at("seq").number;
    if (seq <= last_seq)
      fail_check("%s:%zu: seq %g not strictly increasing (prev %g)",
                 path.c_str(), lines, seq, last_seq);
    last_seq = seq;
  }
  if (lines == 0)
    fail_check("%s: empty ops feed", path.c_str());
  else
    std::printf("ops-feed    %-40s %zu tick(s)\n", path.c_str(), lines);
}

void validate_prometheus(const std::string& path, bool require_exemplar) {
  std::ifstream is(path);
  tbs::check(static_cast<bool>(is), "cannot open '" + path + "'");
  std::string line;
  std::size_t samples = 0, types = 0, exemplars = 0, lineno = 0;
  bool saw_bucket = false, saw_inf_bucket = false;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0 || line.rfind("# HELP ", 0) == 0) {
      types += line.rfind("# TYPE ", 0) == 0 ? 1 : 0;
      continue;
    }
    if (line.rfind("tbs_", 0) != 0) {
      fail_check("%s:%zu: sample without tbs_ prefix: %s", path.c_str(),
                 lineno, line.c_str());
      continue;
    }
    ++samples;
    // name{labels} value [# {trace_id="..."} value]  — the value after the
    // metric must be numeric or one of the Prometheus specials.
    const std::size_t sp = line.find(' ', line.find('}') == std::string::npos
                                              ? 0
                                              : line.find('}'));
    if (sp == std::string::npos) {
      fail_check("%s:%zu: sample has no value: %s", path.c_str(), lineno,
                 line.c_str());
      continue;
    }
    std::string value = line.substr(sp + 1);
    const std::size_t hash = value.find(" # {");
    if (hash != std::string::npos) {
      if (value.find("trace_id=\"", hash) == std::string::npos)
        fail_check("%s:%zu: exemplar without trace_id", path.c_str(), lineno);
      ++exemplars;
      value = value.substr(0, hash);
    }
    if (value != "+Inf" && value != "-Inf" && value != "NaN") {
      try {
        (void)std::stod(value);
      } catch (const std::exception&) {
        fail_check("%s:%zu: non-numeric value \"%s\"", path.c_str(), lineno,
                   value.c_str());
      }
    }
    if (line.find("_bucket{le=") != std::string::npos) {
      saw_bucket = true;
      if (line.find("le=\"+Inf\"") != std::string::npos)
        saw_inf_bucket = true;
    }
  }
  if (samples == 0) fail_check("%s: no samples", path.c_str());
  if (types == 0) fail_check("%s: no # TYPE lines", path.c_str());
  if (saw_bucket && !saw_inf_bucket)
    fail_check("%s: histogram without a +Inf bucket", path.c_str());
  if (require_exemplar && exemplars == 0)
    fail_check("%s: --require-exemplar but no exemplar found", path.c_str());
  std::printf("prometheus  %-40s %zu sample(s), %zu exemplar(s)\n",
              path.c_str(), samples, exemplars);
}

void validate_flight(const std::string& path, bool expect_breach) {
  const json::Value doc = json::parse(slurp(path));
  if (doc.at("schema").string != "tbs.flight_recorder.v1")
    fail_check("%s: bad schema \"%s\"", path.c_str(),
               doc.at("schema").string.c_str());
  tbs::check(doc.at("events").is_array(), path + ": events is not an array");
  for (const json::Value& e : doc.at("events").array) {
    const json::Value* trace_id = e.find("trace_id");
    if (trace_id == nullptr || !is_hex_id(trace_id->string))
      fail_check("%s: event %g (%s) carries no 16-hex trace_id", path.c_str(),
                 e.at("ticket").number, e.at("event").string.c_str());
  }
  if (expect_breach) {
    if (doc.at("reason").string != "slo_breach")
      fail_check("%s: expected reason slo_breach, got \"%s\"", path.c_str(),
                 doc.at("reason").string.c_str());
    const json::Value* trace_id = doc.find("trace_id");
    if (trace_id == nullptr || trace_id->string.empty())
      fail_check("%s: SLO-breach dump does not name the breaching trace",
                 path.c_str());
    if (!(doc.at("threshold_seconds").number > 0.0))
      fail_check("%s: SLO-breach dump does not name the breached objective "
                 "(threshold_seconds %g)",
                 path.c_str(), doc.at("threshold_seconds").number);
  }
  std::printf("flight      %-40s reason \"%s\", %zu event(s)\n", path.c_str(),
              doc.at("reason").string.c_str(), doc.at("events").array.size());
}

void validate_cost(const std::string& path) {
  const json::Value doc = json::parse(slurp(path));
  if (doc.at("schema").string != "tbs.cost_ledger.v1")
    fail_check("%s: bad schema \"%s\"", path.c_str(),
               doc.at("schema").string.c_str());
  for (const char* section :
       {"total", "by_backend", "by_variant", "by_dataset"})
    if (const json::Value* v = doc.find(section);
        v == nullptr || !v->is_object())
      fail_check("%s: missing rollup section \"%s\"", path.c_str(), section);
  const double queries = doc.at("total").at("queries").number;
  if (queries <= 0.0)
    fail_check("%s: ledger recorded no queries", path.c_str());

  // The books must balance: in every sharded per-query ledger the tile
  // rows are the launch phase's decomposition, so their sum matches it
  // within 1%.
  std::size_t sharded = 0;
  const json::Value& recent = doc.at("recent");
  tbs::check(recent.is_array(), path + ": recent is not an array");
  for (const json::Value& q : recent.array) {
    const json::Value* tiles = q.find("tiles");
    if (tiles == nullptr || tiles->array.empty()) continue;
    ++sharded;
    double tile_sum = 0.0;
    for (const json::Value& t : tiles->array)
      tile_sum += t.at("seconds").number;
    const double launch = q.at("phases").at("launch").at("seconds").number;
    if (launch <= 0.0 || std::abs(tile_sum - launch) > 0.01 * launch)
      fail_check("%s: trace %s tile sum %g != launch phase %g (>1%%)",
                 path.c_str(), q.at("trace_id").string.c_str(), tile_sum,
                 launch);
  }
  std::printf("cost        %-40s %g query(s), %zu sharded balanced\n",
              path.c_str(), queries, sharded);
}

void validate_integrity(const std::string& path) {
  const json::Value doc = json::parse(slurp(path));
  if (doc.at("schema").string != "tbs.integrity.v1")
    fail_check("%s: bad schema \"%s\"", path.c_str(),
               doc.at("schema").string.c_str());
  const json::Value& cases = doc.at("cases");
  tbs::check(cases.is_array(), path + ": cases is not an array");
  if (cases.array.empty()) {
    fail_check("%s: empty chaos matrix", path.c_str());
    return;
  }
  double sum_queries = 0, sum_injected = 0, sum_caught = 0, sum_escapes = 0;
  for (const json::Value& c : cases.array) {
    const std::string& name = c.at("name").string;
    for (const char* field : {"queries", "injected", "caught", "escapes"})
      if (const json::Value* v = c.find(field);
          v == nullptr || !v->is_number() || v->number < 0.0)
        fail_check("%s: case \"%s\": missing/negative \"%s\"", path.c_str(),
                   name.c_str(), field);
    if (c.at("queries").number <= 0.0)
      fail_check("%s: case \"%s\" ran no queries", path.c_str(),
                 name.c_str());
    // The contract the whole integrity layer exists for: nothing escapes.
    if (c.at("escapes").number != 0.0)
      fail_check("%s: case \"%s\": %g corrupted result(s) ESCAPED",
                 path.c_str(), name.c_str(), c.at("escapes").number);
    sum_queries += c.at("queries").number;
    sum_injected += c.at("injected").number;
    sum_caught += c.at("caught").number;
    sum_escapes += c.at("escapes").number;
  }
  const json::Value& totals = doc.at("totals");
  for (const auto& [field, sum] :
       {std::pair<const char*, double>{"queries", sum_queries},
        {"injected", sum_injected},
        {"caught", sum_caught},
        {"escapes", sum_escapes}})
    if (totals.at(field).number != sum)
      fail_check("%s: totals.%s %g != case sum %g", path.c_str(), field,
                 totals.at(field).number, sum);
  const json::Value& oh = doc.at("overhead");
  const double frac = oh.at("frac_of_p50").number;
  if (!(frac >= 0.0) || oh.at("p50_query_seconds").number <= 0.0)
    fail_check("%s: degenerate overhead section", path.c_str());
  else if (frac >= 0.01)
    fail_check("%s: defense overhead %.3f%% of p50 breaches the 1%% budget",
               path.c_str(), frac * 100.0);
  std::printf("integrity   %-40s %g case(s), %g/%g caught, %g escaped\n",
              path.c_str(), double(cases.array.size()), sum_caught,
              sum_injected, sum_escapes);
}

void validate_collapsed(const std::string& path) {
  std::ifstream is(path);
  tbs::check(static_cast<bool>(is), "cannot open '" + path + "'");
  std::string line;
  std::size_t lines = 0, lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    ++lines;
    // "frame[;frame...] <integer µs>" — one space, positive integer value.
    const std::size_t sp = line.rfind(' ');
    bool ok = sp != std::string::npos && sp > 0 && sp + 1 < line.size();
    if (ok)
      for (std::size_t i = sp + 1; i < line.size(); ++i)
        ok = ok && line[i] >= '0' && line[i] <= '9';
    // Frames are sanitized at fold time: no spaces inside the stack.
    if (ok) ok = line.find(' ') == sp;
    if (!ok)
      fail_check("%s:%zu: not a collapsed-stack line: %s", path.c_str(),
                 lineno, line.c_str());
  }
  if (lines == 0)
    fail_check("%s: empty collapsed profile", path.c_str());
  else
    std::printf("collapsed   %-40s %zu stack(s)\n", path.c_str(), lines);
}

int run(int argc, char** argv) {
  std::string trace_path, feed_path, prom_path, flight_path;
  std::string cost_path, collapsed_path, integrity_path;
  bool require_exemplar = false, expect_breach = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      tbs::check(i + 1 < argc, arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--trace") {
      trace_path = value();
    } else if (arg == "--ops-feed") {
      feed_path = value();
    } else if (arg == "--prometheus") {
      prom_path = value();
    } else if (arg == "--flight") {
      flight_path = value();
    } else if (arg == "--cost") {
      cost_path = value();
    } else if (arg == "--collapsed") {
      collapsed_path = value();
    } else if (arg == "--integrity") {
      integrity_path = value();
    } else if (arg == "--require-exemplar") {
      require_exemplar = true;
    } else if (arg == "--expect-breach") {
      expect_breach = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: ops_validate [--trace f] [--ops-feed f] [--prometheus f]\n"
          "                    [--flight f] [--cost f] [--collapsed f]\n"
          "                    [--integrity f]\n"
          "                    [--require-exemplar] [--expect-breach]\n");
      return 0;
    } else {
      tbs::fail("unknown flag: " + arg);
    }
  }
  tbs::check(!trace_path.empty() || !feed_path.empty() || !prom_path.empty() ||
                 !flight_path.empty() || !cost_path.empty() ||
                 !collapsed_path.empty() || !integrity_path.empty(),
             "no artifacts given (see --help)");
  tbs::check(!expect_breach || !flight_path.empty(),
             "--expect-breach needs --flight");
  tbs::check(!require_exemplar || !prom_path.empty(),
             "--require-exemplar needs --prometheus");

  if (!trace_path.empty()) validate_trace(trace_path);
  if (!feed_path.empty()) validate_ops_feed(feed_path);
  if (!prom_path.empty()) validate_prometheus(prom_path, require_exemplar);
  if (!flight_path.empty()) validate_flight(flight_path, expect_breach);
  if (!cost_path.empty()) validate_cost(cost_path);
  if (!collapsed_path.empty()) validate_collapsed(collapsed_path);
  if (!integrity_path.empty()) validate_integrity(integrity_path);

  if (g_failures > 0) {
    std::fprintf(stderr, "ops_validate: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("ops_validate: all artifacts valid\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ops_validate: %s\n", e.what());
    return 2;
  }
}
