#include "scn/campaign.h"

#include <fstream>
#include <mutex>
#include <sstream>

#include "obs/obs.h"

namespace mobile::scn {

namespace {

/// Strips a '#' comment and surrounding whitespace.
std::string stripLine(const std::string& raw) {
  std::string line = raw;
  const std::size_t hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  const std::size_t b = line.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const std::size_t e = line.find_last_not_of(" \t\r");
  return line.substr(b, e - b + 1);
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Campaign parseCampaignText(const std::string& text) {
  Campaign c;
  Params defaults;
  std::istringstream is(text);
  std::string raw;
  int lineNo = 0;
  int unnamed = 0;
  while (std::getline(is, raw)) {
    ++lineNo;
    std::string line = stripLine(raw);
    // Trailing '\' joins the next physical line.
    while (!line.empty() && line.back() == '\\' && std::getline(is, raw)) {
      ++lineNo;
      line.pop_back();
      line += ' ';
      line += stripLine(raw);
    }
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string directive;
    ls >> directive;
    std::string rest;
    std::getline(ls, rest);
    try {
      if (directive == "name") {
        std::istringstream rs(rest);
        if (!(rs >> c.name))
          throw ScnError("'name' directive needs a label");
        if (c.name.find('"') != std::string::npos ||
            c.name.find('\\') != std::string::npos)
          throw ScnError("campaign name may not contain quotes or "
                         "backslashes");
      } else if (directive == "set") {
        const Params more = Params::fromTokens(rest);
        for (const auto& key : more.keys())
          defaults.set(key, more.str(key));
      } else if (directive == "scenario") {
        Scenario s;
        s.params = defaults;
        const Params own = Params::fromTokens(rest);
        for (const auto& key : own.keys())
          s.params.set(key, own.str(key));
        std::string autoName = "s";
        autoName += std::to_string(unnamed++);
        s.name = s.params.str("name", autoName);
        s.params.erase("name");
        if (s.params.keys().empty())
          throw ScnError("scenario line has no axes");
        c.scenarios.push_back(std::move(s));
      } else {
        throw ScnError("unknown directive '" + directive +
                       "' (name, set, scenario)");
      }
    } catch (const ScnError& e) {
      std::string msg = "campaign line ";
      msg += std::to_string(lineNo);
      msg += ": ";
      msg += e.what();
      throw ScnError(msg);
    }
  }
  return c;
}

Campaign loadCampaignFile(const std::string& path) {
  std::ifstream is(path);
  if (!is.is_open())
    throw ScnError("cannot open campaign file '" + path + "'");
  std::ostringstream buf;
  buf << is.rdbuf();
  return parseCampaignText(buf.str());
}

namespace {
std::string pointId(const Point& p) {
  return p.campaign + "|" + p.scenario + "|" + p.params.canonical();
}
}  // namespace

std::vector<Point> expandCampaign(const Campaign& c) {
  std::vector<Point> out;
  for (const auto& s : c.scenarios) {
    const std::vector<std::string> swept = sweptKeys(s.params);
    for (auto& params : expandGrid(s.params)) {
      Point p;
      p.campaign = c.name;
      p.scenario = s.name;
      p.group = groupLabel(s.name, params, swept);
      p.params = std::move(params);
      p.id = pointId(p);
      out.push_back(std::move(p));
    }
  }
  return out;
}

void applySeedOffset(std::vector<Point>& points, std::uint64_t offset) {
  if (offset == 0) return;
  for (auto& p : points) {
    const Params probe = p.params;
    const std::uint64_t seed = probe.u64("seed", 1) + offset;
    p.params.set("seed", std::to_string(seed));
    p.id = pointId(p);
  }
}

std::vector<exp::TrialSpec> buildCampaignSpecs(const Campaign& c,
                                               std::uint64_t seedOffset) {
  std::vector<Point> points = expandCampaign(c);
  applySeedOffset(points, seedOffset);
  TrialBuilder builder;
  std::vector<exp::TrialSpec> specs;
  specs.reserve(points.size());
  for (const auto& p : points)
    specs.push_back(builder.build(p.params, p.group));
  return specs;
}

void printScenarios(std::ostream& os, const Campaign& c) {
  os << "campaign " << c.name << ":\n";
  for (const auto& s : c.scenarios) {
    os << "  " << s.name << ": " << s.params.canonical() << " ("
       << expandGrid(s.params).size() << " points)\n";
  }
}

std::set<std::string> completedPoints(const std::string& jsonlPath) {
  std::set<std::string> done;
  std::ifstream is(jsonlPath);
  if (!is.is_open()) return done;
  const std::string marker = "\"point\":\"";
  std::string line;
  while (std::getline(is, line)) {
    // Crash-safe resume: a process killed mid-write leaves a torn final
    // line.  Only a complete record -- one that both opens and closes its
    // JSON object -- marks its point done; a torn line is skipped and the
    // point re-executes on resume.
    const std::size_t open = line.find_first_not_of(" \t\r");
    if (open == std::string::npos || line[open] != '{') continue;
    const std::size_t close = line.find_last_not_of(" \t\r");
    if (line[close] != '}') continue;
    const std::size_t at = line.find(marker);
    if (at == std::string::npos) continue;
    const std::size_t start = at + marker.size();
    const std::size_t end = line.find('"', start);
    if (end == std::string::npos) continue;
    done.insert(line.substr(start, end - start));
  }
  return done;
}

namespace {

void writeJsonlLine(std::ostream& os, const std::string& campaign,
                    const Point& pt, const exp::TrialResult& r) {
  std::ostringstream line;
  line << "{\"campaign\":\"" << jsonEscape(campaign) << "\",\"point\":\""
       << jsonEscape(pt.id) << "\",\"group\":\"" << jsonEscape(r.group)
       << "\",\"seed\":" << r.seed << ",\"rounds\":" << r.rounds
       << ",\"normalized_rounds\":" << r.normalizedRounds
       << ",\"messages\":" << r.messages
       << ",\"max_congestion\":" << r.maxCongestion
       << ",\"max_words\":" << r.maxWords
       << ",\"corruptions\":" << r.corruptions << ",\"fingerprint\":\"0x"
       << std::hex << r.fingerprint << std::dec << "\",\"ok\":"
       << (r.ok ? "true" : "false");
  if (!r.error.empty()) line << ",\"error\":\"" << jsonEscape(r.error) << "\"";
  line << ",\"wall_ms\":" << r.wallMs << ",\"peak_rss_kb\":" << r.peakRssKb;
  if (r.transport.present) {
    // World-summed transport tallies from the plane merge -- structural,
    // carried regardless of the obs build.
    const sim::TransportStats& t = r.transport;
    line << ",\"net\":{\"segments_sent\":" << t.segmentsSent
         << ",\"retransmits\":" << t.retransmits
         << ",\"dups_dropped\":" << t.dupsDropped
         << ",\"lossy_dropped\":" << t.lossyDropped
         << ",\"lossy_duplicated\":" << t.lossyDuplicated
         << ",\"lossy_reordered\":" << t.lossyReordered
         << ",\"barrier_wait_us\":" << t.barrierWaitUs << "}";
  }
  if (!r.extra.empty()) {
    // Per-trial metric snapshot (engine phase split when obs is enabled,
    // plus any observe-hook deposits).
    line << ",\"obs\":{";
    bool first = true;
    for (const auto& [k, v] : r.extra) {
      if (!first) line << ",";
      first = false;
      line << "\"" << jsonEscape(k) << "\":" << v;
    }
    line << "}";
  }
  line << "}";
  os << line.str() << "\n" << std::flush;
}

}  // namespace

CampaignRun runCampaign(const Campaign& c, const CampaignOptions& opts) {
  CampaignRun run;
  std::vector<Point> points = expandCampaign(c);
  applySeedOffset(points, opts.seedOffset);
  run.points = points.size();

  const bool replica = opts.worldSize > 1 && opts.rank != 0;
  std::set<std::string> done;
  if (opts.resume && !opts.jsonlPath.empty())
    done = completedPoints(opts.jsonlPath);

  TrialBuilder builder;
  builder.setEngineDefaults(opts.rankThreads, 0);
  std::vector<exp::TrialSpec> specs;
  for (auto& p : points) {
    if (done.count(p.id) != 0) {
      ++run.skipped;
      continue;
    }
    // Arena points are single-process: replicas drive only the points
    // whose plane spans ranks, in the same relative order as rank 0
    // (sessions are point-keyed, so the interleaved arena points on rank 0
    // never confuse the pairing).
    if (replica) {
      const Params probe = p.params;
      if (probe.str("transport", "arena") != "udp") continue;
    }
    specs.push_back(builder.build(p.params, p.group));
    run.ran.push_back(std::move(p));
  }

  std::ofstream out;
  std::mutex mu;
  if (!opts.jsonlPath.empty() && !replica) {
    out.open(opts.jsonlPath,
             opts.resume ? std::ios::app : std::ios::trunc);
    if (!out.is_open())
      throw ScnError("cannot open JSONL output '" + opts.jsonlPath + "'");
  }
  // Stream each finished trial from its worker (one line per trial,
  // flushed): an interrupted campaign leaves a resumable record.  The
  // completion hook (not observe) carries the record so a trial that
  // degrades with a transport error still leaves its structured line.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Point& pt = run.ran[i];
    const std::string campaignName = c.name;
    specs[i].onComplete = [&out, &mu, campaignName,
                           &pt](exp::TrialResult& r) {
      if (!out.is_open() || !r.record) return;
      const std::lock_guard<std::mutex> lock(mu);
      writeJsonlLine(out, campaignName, pt, r);
    };
  }

  // Per-rank execution policy (explicit, not incidental): under a
  // multi-process world every rank runs ONE trial at a time, in expansion
  // order -- the round barrier spans ranks, so concurrent trials on one
  // rank would interleave sessions on the shared transport.  Intra-trial
  // engine threads (opts.rankThreads / scenario threads=) are the
  // sanctioned way to parallelize a rank; single-process runs use the
  // full trial-lane count.
  const int threads = opts.worldSize > 1 ? 1 : opts.threads;
  exp::ExperimentDriver driver({threads});
  {
    const obs::TraceArg campaignArgs[] = {
        {"points", static_cast<std::int64_t>(specs.size())}};
    const obs::Span span("exp", "campaign", campaignArgs, 1);
    run.results = driver.runAll(specs);
  }
  run.executed = specs.size();
  return run;
}

}  // namespace mobile::scn
