//===- driver.cpp - Repository benchmark driver -----------------------------===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process runs one workload of the repository benchmark
/// (perfbench/README.md): it sets the workload up several times (reporting
/// the median set-up time), runs the timed pass, checks every op against
/// its reference, and prints one JSON result line. With --trace 1 it
/// sets up once and instead runs the layer probe: walks over the
/// workload's probe programs, alternately untraced and traced, and prints
/// the per-layer metrics.
///
/// Every layer is timed from outside, around calls into its public
/// functions; nothing in src/ is instrumented for the benchmark.
///
//===----------------------------------------------------------------------===//

#include "cfront/Parser.h"
#include "clients/AliasPairs.h"
#include "clients/ReadWriteSets.h"
#include "corpus/Corpus.h"
#include "demand/DemandQuery.h"
#include "driver/Pipeline.h"
#include "ig/InvocationGraph.h"
#include "incr/IncrementalEngine.h"
#include "serve/Json.h"
#include "serve/Serialize.h"
#include "serve/Server.h"
#include "serve/SummaryCache.h"
#include "simple/Simplifier.h"
#include "support/Telemetry.h"
#include "support/Version.h"
#include "wlgen/WorkloadGen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace mcpta;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Set-ups per run: at least kMinSetups, and more until they add up to
/// kMinSetupS, so a short set-up is sampled over as long a stretch of the
/// host's load as a long one. setup_s is their median.
constexpr unsigned kMinSetups = 3;
constexpr double kMinSetupS = 5.0;

//===----------------------------------------------------------------------===//
// Small utilities
//===----------------------------------------------------------------------===//

/// splitmix64: the benchmark's only source of randomness, so one seed
/// gives the same inputs on every platform.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }
};

/// Linear-interpolation quantile (the "inclusive" definition).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

std::string jsonString(std::string_view S) {
  return "\"" + support::Telemetry::jsonEscape(S) + "\"";
}

std::string digest(std::string_view Blob) {
  return serve::SummaryCache::key(Blob, "perfbench");
}

bool readFile(const fs::path &P, std::string &Out) {
  std::ifstream In(P, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool writeFile(const fs::path &P, const std::string &Data) {
  std::ofstream Out(P, std::ios::binary);
  Out << Data;
  return static_cast<bool>(Out);
}

/// Peak resident set of this process so far, in MB.
double peakRssMb() {
  return static_cast<double>(support::peakRssKb()) / 1024.0;
}

uint64_t counterOf(const support::Telemetry &T, std::string_view Name) {
  auto C = T.countersSnapshot();
  auto It = C.find(Name);
  return It == C.end() ? 0 : It->second;
}

uint64_t gaugeOf(const support::Telemetry &T, std::string_view Name) {
  auto G = T.gauges();
  auto It = G.find(Name);
  return It == G.end() ? 0 : It->second;
}

/// Discards the serve daemon's operational log.
struct NullBuf : std::streambuf {
  int overflow(int C) override { return C; }
};

//===----------------------------------------------------------------------===//
// Spans (traced runs only)
//===----------------------------------------------------------------------===//

/// In-memory span recorder: name, start, end, parent span and op id,
/// written out when the run ends. A null Tracer* records nothing.
class Tracer {
public:
  struct Span {
    std::string Name;
    double StartUs = 0, EndUs = 0;
    int Parent = -1;
    uint64_t Op = 0;
  };

  class Scope {
  public:
    Scope(Tracer *T, std::string Name) : T(T) {
      if (T)
        Idx = T->open(std::move(Name));
    }
    ~Scope() {
      if (T)
        T->close(Idx);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T;
    int Idx = -1;
  };

  void setOp(uint64_t Op) { CurOp = Op; }
  size_t size() const { return Spans.size(); }

  /// Sum of the self times (duration minus the direct children) of the
  /// spans named \p Name, in ms.
  double selfMs(std::string_view Name) const {
    std::vector<double> Child(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Child[S.Parent] += S.EndUs - S.StartUs;
    double Sum = 0;
    for (size_t I = 0; I < Spans.size(); ++I)
      if (Spans[I].Name == Name)
        Sum += (Spans[I].EndUs - Spans[I].StartUs - Child[I]) / 1000.0;
    return Sum;
  }

  /// Chrome trace_event JSON (complete events).
  bool write(const fs::path &P) const {
    std::ostringstream OS;
    OS << "{\"traceEvents\":[";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      OS << (I ? "," : "") << "{\"name\":" << jsonString(S.Name)
         << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << S.StartUs
         << ",\"dur\":" << (S.EndUs - S.StartUs)
         << ",\"args\":{\"op\":" << S.Op << ",\"parent\":" << S.Parent
         << "}}";
    }
    OS << "]}\n";
    return writeFile(P, OS.str());
  }

private:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - T0)
        .count();
  }
  int open(std::string Name) {
    Span S;
    S.Name = std::move(Name);
    S.Parent = Cur;
    S.Op = CurOp;
    S.StartUs = nowUs();
    Spans.push_back(std::move(S));
    Cur = static_cast<int>(Spans.size() - 1);
    return Cur;
  }
  void close(int Idx) {
    Spans[Idx].EndUs = nowUs();
    Cur = Spans[Idx].Parent;
  }

  Clock::time_point T0 = Clock::now();
  std::vector<Span> Spans;
  int Cur = -1;
  uint64_t CurOp = 0;
};

//===----------------------------------------------------------------------===//
// Run state shared by every workload
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Tool;    ///< pta-tool binary (batch-corpus)
  fs::path Work;       ///< scratch directory inside the checkout
  std::string OpsFile; ///< optional per-op (class, ms) dump
};

struct OpSample {
  double Ms = 0;
  std::string Class;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Everything one run reports.
struct Run {
  const Args &A;
  unsigned W = 1; ///< batch width: min(4, nproc)
  std::vector<OpSample> Ops;
  uint64_t Attempted = 0, Matched = 0;
  std::vector<std::string> Mismatches;
  std::vector<double> SetupS;
  double PassS = 0;
  double PeakRssMb = 0;
  std::vector<Metric> Layer;
  /// Workload-specific (key, JSON value) pairs for the metadata line.
  std::vector<std::pair<std::string, std::string>> Meta;
  std::unique_ptr<Tracer> Spans;

  explicit Run(const Args &A) : A(A) {}

  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      ++Matched;
    else if (Mismatches.size() < 20)
      Mismatches.push_back(What);
  }
  void layer(std::string Name, double Value, std::string Unit) {
    Layer.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

[[noreturn]] void fatal(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: error: %s\n", Msg.c_str());
  std::exit(1);
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// A band of the stratified generated-program draw: programs whose
/// statement-visit count lies in [Lo, Hi) until Quota are accepted.
struct Band {
  uint64_t Lo, Hi;
  unsigned Quota;
};

/// Seeded draw of generateProgram programs, stratified by the analyzer's
/// deterministic statement-visit count. One program's cost ranges over
/// two orders of magnitude across generator seeds, so a plain draw
/// would make every seed a different workload; fixed quotas per visit
/// band give every seed the same work profile from different programs.
/// At least \p Candidates candidates are examined whatever the seed, so
/// set-up time does not depend on how soon the quotas fill.
std::vector<std::string> drawPrograms(Rng &R, std::vector<Band> Bands,
                                      unsigned Candidates) {
  uint64_t MaxHi = 0;
  unsigned Left = 0;
  for (const Band &B : Bands) {
    MaxHi = std::max(MaxHi, B.Hi);
    Left += B.Quota;
  }
  std::vector<std::string> Out;
  unsigned Cand = 0;
  for (; (Left || Cand < Candidates) && Cand < 4000; ++Cand) {
    wlgen::GenConfig G;
    G.Seed = R.next();
    G.NumFunctions = 4 + static_cast<unsigned>(R.below(3));
    G.StmtsPerFunction = 8 + static_cast<unsigned>(R.below(5));
    G.UseFunctionPointers = R.below(4) == 0;
    G.UseRecursion = R.below(2) == 0;
    std::string Src = wlgen::generateProgram(G);
    support::Telemetry T(true);
    pta::Analyzer::Options O;
    O.RecordStmtSets = false;
    O.Telem = &T;
    // A candidate beyond every band is rejected as soon as it trips the
    // visit budget.
    O.Limits.MaxStmtVisits = MaxHi;
    Pipeline P = Pipeline::analyzeSource(Src, O);
    if (!P.ok() || P.degraded())
      continue;
    uint64_t V = counterOf(T, "pta.stmt_visits");
    for (Band &B : Bands)
      if (V >= B.Lo && V < B.Hi && B.Quota) {
        --B.Quota;
        --Left;
        Out.push_back(std::move(Src));
        break;
      }
  }
  if (Left)
    fatal("stratified draw could not fill its quotas");
  std::fprintf(stderr, "perfbench: drew %zu programs from %u candidates\n",
               Out.size(), Cand);
  return Out;
}

const std::string &incrstressSource() {
  static const std::string S = corpus::find("incrstress")->Source;
  return S;
}

/// The 17 Table 2 stand-ins (the corpus minus incrstress).
std::vector<const corpus::CorpusProgram *> standIns() {
  std::vector<const corpus::CorpusProgram *> Out;
  for (const corpus::CorpusProgram &C : corpus::corpus())
    if (std::string(C.Name) != "incrstress")
      Out.push_back(&C);
  return Out;
}

/// Queryable names of a program: globals, then main's params and
/// locals, skipping simplifier temporaries.
std::vector<std::string> queryNames(const simple::Program &Prog) {
  std::vector<std::string> Names;
  std::set<std::string> Seen;
  auto Add = [&](const std::string &N) {
    if (!N.empty() && N[0] != '.' && Seen.insert(N).second)
      Names.push_back(N);
  };
  for (const cfront::VarDecl *G : Prog.globals())
    Add(G->name());
  for (const simple::FunctionIR &F : Prog.functions())
    if (F.Decl && F.Decl->name() == "main") {
      for (const cfront::VarDecl *P : F.Decl->params())
        Add(P->name());
      for (const cfront::VarDecl *L : F.Locals)
        Add(L->name());
    }
  return Names;
}

//===----------------------------------------------------------------------===//
// Op helpers
//===----------------------------------------------------------------------===//

/// The blob of one cold analysis the way serve `analyze` and `pta-tool
/// --cache-dir` make it: analyzeSource (default options) -> capture ->
/// serialize. The from-scratch reference for edit-loop.
std::string coldBlob(const std::string &Src) {
  const pta::Analyzer::Options Opts;
  Pipeline P = Pipeline::analyzeSource(Src, Opts);
  if (!P.ok())
    return {};
  return serve::serialize(serve::ResultSnapshot::capture(
      *P.Prog, P.Analysis, serve::optionsFingerprint(Opts)));
}

/// Runs pta-tool with \p Argv (stdout to \p OutPath, stderr discarded);
/// returns the wall time in ms, the exit code and the child's peak RSS.
struct ChildRun {
  double Ms = 0;
  int Code = -1;
  double RssMb = 0;
};

ChildRun runTool(const std::string &Tool, const std::vector<std::string> &Argv,
                 const fs::path &OutPath) {
  std::vector<char *> CArgs;
  CArgs.push_back(const_cast<char *>(Tool.c_str()));
  for (const std::string &S : Argv)
    CArgs.push_back(const_cast<char *>(S.c_str()));
  CArgs.push_back(nullptr);
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 1, OutPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&FA, 2, "/dev/null", O_WRONLY, 0);
  ChildRun R;
  Clock::time_point T0 = Clock::now();
  pid_t Pid = 0;
  int Err = posix_spawn(&Pid, Tool.c_str(), &FA, nullptr, CArgs.data(),
                        environ);
  posix_spawn_file_actions_destroy(&FA);
  if (Err != 0)
    fatal("cannot start " + Tool + ": " + std::strerror(Err));
  int Status = 0;
  struct rusage RU;
  std::memset(&RU, 0, sizeof(RU));
  while (wait4(Pid, &Status, 0, &RU) < 0)
    if (errno != EINTR)
      fatal("wait4 failed");
  R.Ms = msSince(T0);
  R.Code = WIFEXITED(Status) ? WEXITSTATUS(Status) : 128;
  R.RssMb = static_cast<double>(RU.ru_maxrss) / 1024.0;
  return R;
}

/// Name -> digest of every blob in a summary-cache directory.
std::map<std::string, std::string> cacheDigests(const fs::path &Dir) {
  std::map<std::string, std::string> Out;
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC)) {
    std::string Blob;
    if (readFile(E.path(), Blob))
      Out[E.path().filename().string()] = digest(Blob);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One workload: set-up, ops, reference checks, and the layer probe.
class Workload {
public:
  explicit Workload(Run &R) : R(R) {}
  virtual ~Workload() = default;

  /// Builds every input and warms up; called several times, each from
  /// scratch (once in a traced run). Reference work users never pay for
  /// belongs in verify().
  virtual void setup() = 0;
  /// Runs the next op and returns its latency.
  virtual double op(OpSample &S) = 0;
  /// Reference checks for every op run so far (outside the timed pass).
  virtual void verify() = 0;
  /// Programs the layer probe walks.
  virtual std::vector<std::string> probePrograms() = 0;
  /// What one op completes, for ops_per_s (files, for a batch).
  virtual double unitsPerOp() const { return 1; }
  /// The op-kind handle overhead: handleLine minus the layer calls it
  /// makes, measured on the probe inputs.
  virtual double handleOverheadMs() = 0;

protected:
  Run &R;
};

//--- edit-loop --------------------------------------------------------------

class EditLoop : public Workload {
public:
  using Workload::Workload;

  void setup() override {
    ++Generation;
    Chain = Rng(R.A.Seed);
    Round.clear();
    Seen.clear();
    Current = incrstressSource();
    Seen.insert(digest(Current));
    Server.reset();
    CacheDir = R.A.Work / ("serve-cache-" + std::to_string(Generation));
    fs::remove_all(CacheDir);
    serve::Server::Config Cfg;
    Cfg.Cache.Dir = CacheDir.string();
    Server = std::make_unique<serve::Server>(Cfg);
    // The session's first cold analyze, then one warm-up edit.
    request(Current);
    request(nextEdit().second);
  }


  double op(OpSample &S) override {
    auto [Kind, Src] = nextEdit();
    std::string Line = analyzeLine(Src);
    NullBuf NB;
    std::ostream Null(&NB);
    bool Stop = false;
    Clock::time_point T0 = Clock::now();
    std::string Resp = Server->handleLine(Line, Stop, Null);
    double Ms = msSince(T0);
    serve::JsonValue V;
    std::string Err;
    Done D;
    D.Source = std::move(Src);
    // An edit the engine cannot take incrementally (it says why) is a
    // full analysis: a correct answer, but an op of another class.
    S.Class = std::string("edit/") + wlgen::mutationKindName(Kind);
    if (serve::parseJson(Resp, V, Err) && V.getBool("ok")) {
      if (!V.getBool("incremental")) {
        S.Class = "full/" + V.getString("fallback_reason");
        ++Fallbacks;
      }
      fs::path Blob = CacheDir / (V.getString("key") + ".mcpta");
      std::string Bytes;
      if (readFile(Blob, Bytes))
        D.Digest = digest(Bytes);
      fs::remove(Blob);
    }
    Ops.push_back(std::move(D));
    return Ms;
  }

  /// Each op's stored snapshot must re-serialize byte-equal to a
  /// from-scratch analysis of the same edited source. That reference
  /// costs several ops' worth, so it runs on min(4, nproc) threads. The
  /// share of ops that ran incrementally goes into the result metadata.
  void verify() override {
    std::vector<std::string> Ref(Ops.size());
    std::atomic<size_t> Next{0};
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T < R.W; ++T)
      Pool.emplace_back([&] {
        for (size_t I; (I = Next.fetch_add(1)) < Ops.size();)
          Ref[I] = digest(coldBlob(Ops[I].Source));
      });
    for (std::thread &T : Pool)
      T.join();
    for (size_t I = 0; I < Ops.size(); ++I)
      R.check(!Ops[I].Digest.empty() && Ops[I].Digest == Ref[I],
              "edit op " + std::to_string(I) +
                  " snapshot differs from a from-scratch analysis");
    R.Meta.emplace_back(
        "incremental_share",
        std::to_string(1.0 - static_cast<double>(Fallbacks) /
                                 static_cast<double>(Ops.size())));
  }

  std::vector<std::string> probePrograms() override {
    return {incrstressSource()};
  }

  double handleOverheadMs() override {
    // handleLine(incremental analyze) minus reanalyze + SummaryCache::store
    // to the same kind of disk tier, for five single edits of one base
    // source, in alternating order. Re-sending the base before each edit
    // makes it the daemon's baseline again.
    std::vector<double> Diffs;
    NullBuf NB;
    std::ostream Null(&NB);
    const pta::Analyzer::Options Opts;
    const std::string FP = serve::optionsFingerprint(Opts);
    const std::string Base = Current;
    Pipeline P = Pipeline::analyzeSource(Base, Opts);
    const serve::ResultSnapshot BaseSnap =
        serve::ResultSnapshot::capture(*P.Prog, P.Analysis, FP);
    serve::SummaryCache::Config CC;
    CC.Dir = (R.A.Work / "overhead-cache").string();
    serve::SummaryCache Cache(CC);
    for (int Rep = 0; Rep < 5; ++Rep) {
      Current = Base;
      std::string Src = nextEdit().second;
      bool Stop = false;
      Server->handleLine(analyzeLine(Base), Stop, Null);
      auto Handle = [&] {
        Clock::time_point T0 = Clock::now();
        Server->handleLine(analyzeLine(Src), Stop, Null);
        return msSince(T0);
      };
      auto Direct = [&] {
        Clock::time_point T0 = Clock::now();
        incr::IncrOutput O =
            incr::IncrementalEngine::reanalyze(BaseSnap, Src, Opts);
        Cache.store(serve::SummaryCache::key(Src, FP), std::move(O.Snapshot));
        return msSince(T0);
      };
      double D = 0, H = 0;
      if (Rep % 2) {
        D = Direct();
        H = Handle();
      } else {
        H = Handle();
        D = Direct();
      }
      Diffs.push_back(H - D);
    }
    return median(Diffs);
  }

  /// The next edit of the seeded chain: one mutateSource edit applied to
  /// the previous source, never repeating a source (a repeat would be a
  /// cache hit). Every round of five edits holds each kind once, in a
  /// seeded order, so the kind mix is the same for every seed.
  std::pair<wlgen::MutationKind, std::string> nextEdit() {
    if (Round.empty()) {
      Round.assign(std::begin(wlgen::AllMutationKinds),
                   std::end(wlgen::AllMutationKinds));
      Chain.shuffle(Round);
    }
    wlgen::MutationKind K = Round.back();
    Round.pop_back();
    for (int Try = 0; Try < 64; ++Try) {
      std::string S = wlgen::mutateSource(Current, K, Chain.next());
      if (S == Current || !Seen.insert(digest(S)).second)
        continue;
      Current = S;
      return {K, std::move(S)};
    }
    fatal("edit chain found no fresh edit");
  }

  struct Done {
    std::string Source, Digest;
  };
  std::vector<Done> Ops;
  size_t Fallbacks = 0;

private:
  static std::string analyzeLine(const std::string &Src) {
    return "{\"id\":1,\"method\":\"analyze\",\"incremental\":true,"
           "\"source\":" +
           jsonString(Src) + "}";
  }
  void request(const std::string &Src) {
    NullBuf NB;
    std::ostream Null(&NB);
    bool Stop = false;
    std::string Resp = Server->handleLine(analyzeLine(Src), Stop, Null);
    if (Resp.find("\"ok\":true") == std::string::npos)
      fatal("edit-loop set-up request failed: " + Resp.substr(0, 200));
  }

  unsigned Generation = 0;
  Rng Chain{1};
  std::vector<wlgen::MutationKind> Round;
  std::set<std::string> Seen;
  std::string Current;
  fs::path CacheDir;
  std::unique_ptr<serve::Server> Server;
};

//--- batch-corpus -----------------------------------------------------------

class BatchCorpus : public Workload {
public:
  using Workload::Workload;

  void setup() override {
    Rng G(R.A.Seed);
    ++Generation;
    Dir = R.A.Work / ("batch-" + std::to_string(Generation));
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    Programs.clear();
    for (const corpus::CorpusProgram *C : standIns())
      Programs.push_back(C->Source);
    Programs.push_back(wlgen::livcSource());
    // Many programs in two narrow visit bands: the batch's total work
    // (what its wall time follows at width W) is nearly seed-independent.
    for (std::string &S :
         drawPrograms(G, {{6000, 10000, 16}, {12000, 18000, 16}}, 220))
      Programs.push_back(std::move(S));
    // Seeded file names: name order and size order are unrelated.
    for (const std::string &S : Programs) {
      char Name[32];
      std::snprintf(Name, sizeof(Name), "p%016llx.c",
                    static_cast<unsigned long long>(G.next()));
      if (!writeFile(Dir / Name, S))
        fatal("cannot write batch input");
    }
    // Warm-up: one batch at the timed width.
    batch(R.W, Dir.string() + "-warm");
  }


  double op(OpSample &S) override {
    std::string Cache = Dir.string() + "-op";
    ChildRun C = batch(R.W, Cache);
    S.Class = "batch";
    R.PeakRssMb = std::max(R.PeakRssMb, C.RssMb);
    std::string Out;
    readFile(Cache + ".out", Out);
    // Reference: a width-1 batch of the same directory, taken once.
    if (RefOut.empty()) {
      ChildRun Ref = batch(1, Dir.string() + "-ref");
      readFile(Dir.string() + "-ref.out", RefOut);
      RefBlobs = cacheDigests(Dir.string() + "-ref");
      if (Ref.Code != 0 || RefBlobs.size() != Programs.size())
        fatal("width-1 reference batch failed");
    }
    R.check(C.Code == 0 && Out == RefOut && cacheDigests(Cache) == RefBlobs,
            "batch at width " + std::to_string(R.W) +
                " differs from the width-1 batch (exit " +
                std::to_string(C.Code) + ")");
    return C.Ms;
  }

  void verify() override {}

  std::vector<std::string> probePrograms() override { return Programs; }

  double handleOverheadMs() override {
    // handleLine(analyze) on a fresh daemon minus analyzeSource + capture
    // + SummaryCache::store of the same source: median of three, averaged
    // over four stand-ins.
    std::vector<double> Diffs;
    NullBuf NB;
    std::ostream Null(&NB);
    const pta::Analyzer::Options Opts;
    const std::string FP = serve::optionsFingerprint(Opts);
    for (size_t I = 0; I < 4; ++I) {
      const std::string &Src = Programs[I];
      std::string Line = "{\"id\":1,\"method\":\"analyze\",\"source\":" +
                         jsonString(Src) + "}";
      std::vector<double> Handle, Direct;
      for (int Rep = 0; Rep < 3; ++Rep) {
        {
          serve::Server S(serve::Server::Config{});
          bool Stop = false;
          Clock::time_point T0 = Clock::now();
          S.handleLine(Line, Stop, Null);
          Handle.push_back(msSince(T0));
        }
        serve::SummaryCache Cache(serve::SummaryCache::Config{});
        Clock::time_point T0 = Clock::now();
        Pipeline P = Pipeline::analyzeSource(Src, Opts);
        Cache.store(serve::SummaryCache::key(Src, FP),
                    serve::ResultSnapshot::capture(*P.Prog, P.Analysis, FP));
        Direct.push_back(msSince(T0));
      }
      Diffs.push_back(median(Handle) - median(Direct));
    }
    return (Diffs[0] + Diffs[1] + Diffs[2] + Diffs[3]) / 4;
  }

  /// One `pta-tool --batch DIR --analysis-threads=W` with a fresh
  /// summary-cache directory (a reused one would turn files into hits).
  ChildRun batch(unsigned Width, const std::string &Cache) {
    fs::remove_all(Cache);
    return runTool(R.A.Tool,
                   {"--batch", Dir.string(),
                    "--analysis-threads=" + std::to_string(Width),
                    "--cache-dir=" + Cache},
                   Cache + ".out");
  }

  double unitsPerOp() const override {
    return static_cast<double>(Programs.size());
  }

private:
  unsigned Generation = 0;
  fs::path Dir;
  std::vector<std::string> Programs;
  std::string RefOut;
  std::map<std::string, std::string> RefBlobs;
};

//===----------------------------------------------------------------------===//
// The passes
//===----------------------------------------------------------------------===//

/// Runs ops until their latencies sum to \p Seconds.
void pass(Workload &W, double Seconds, std::vector<OpSample> &Out) {
  for (double Sum = 0; Sum < Seconds * 1000.0;) {
    OpSample S;
    S.Ms = W.op(S);
    Sum += S.Ms;
    Out.push_back(S);
  }
}

double sumMs(const std::vector<OpSample> &Ops) {
  double S = 0;
  for (const OpSample &O : Ops)
    S += O.Ms;
  return S;
}

//===----------------------------------------------------------------------===//
// The layer probe (traced runs)
//===----------------------------------------------------------------------===//

/// What one walk of the probe programs counts. The counts are
/// deterministic, so every walk of a run must count the same.
struct ProbeCounts {
  uint64_t BasicStmts = 0, IGNodes = 0, Visits = 0, Bodies = 0, Memo = 0,
           Kernel = 0, HeapPeak = 0, BlobBytes = 0;
  uint64_t DemandQueries = 0, DemandWarm = 0, DemandAnswered = 0,
           DemandVisited = 0;
  uint64_t IncrRuns = 0, IncrUsed = 0, IncrDirty = 0, IncrReuse = 0;
  bool operator==(const ProbeCounts &) const = default;
};

/// One walk of every layer over the probe programs, with the analyzer's
/// pta.* / mem.* counters attached. With \p T set, each layer call runs
/// under a span, and the spans of one program share an op id from
/// \p FirstOp up. Adds each program's in-process file time (frontend
/// through serialize) to \p FileMs, checks that every blob round-trips
/// and every demand answer equals the snapshot's, and returns the walk's
/// wall time in ms.
double probeWalk(Run &R, const std::vector<std::string> &Progs, Tracer *T,
                 uint64_t FirstOp, ProbeCounts &C, std::vector<double> &FileMs) {
  const pta::Analyzer::Options Opts;
  const std::string FP = serve::optionsFingerprint(Opts);
  Rng G(R.A.Seed ^ 0x5eed);
  Clock::time_point W0 = Clock::now();
  for (size_t PI = 0; PI < Progs.size(); ++PI) {
    const std::string &Src = Progs[PI];
    if (T)
      T->setOp(FirstOp + PI);
    Tracer::Scope Op(T, "probe.program");
    DiagnosticsEngine Diags;
    cfront::ASTContext Ctx;
    std::unique_ptr<cfront::TranslationUnit> Unit;
    double FileThis = 0;
    Clock::time_point F0 = Clock::now();
    {
      Tracer::Scope S(T, "cfront.parse");
      Unit = cfront::Parser::parseSource(Src, Ctx, Diags);
    }
    std::unique_ptr<simple::Program> Prog;
    {
      Tracer::Scope S(T, "simple.simplify");
      Prog = simple::Simplifier(*Unit, Diags).run();
    }
    if (!Prog)
      fatal("probe program does not simplify");
    C.BasicStmts += Prog->numBasicStmts();
    FileThis += msSince(F0);
    {
      Tracer::Scope S(T, "ig.build");
      pta::InvocationGraph::build(*Prog);
    }
    F0 = Clock::now();
    support::Telemetry Telem(true);
    pta::Analyzer::Options Counted = Opts;
    Counted.Telem = &Telem;
    pta::Analyzer::Result Res;
    {
      Tracer::Scope S(T, "pointsto.analyze");
      Res = pta::Analyzer::run(*Prog, Counted);
    }
    C.IGNodes += Res.IG->numNodes();
    C.Visits += counterOf(Telem, "pta.stmt_visits");
    C.Bodies += counterOf(Telem, "pta.body_analyses");
    C.Memo += counterOf(Telem, "pta.memo_hits");
    C.Kernel += counterOf(Telem, "pta.set.kernel_calls");
    C.HeapPeak =
        std::max(C.HeapPeak, gaugeOf(Telem, "mem.set_heap_bytes_peak"));
    serve::ResultSnapshot Snap;
    {
      Tracer::Scope S(T, "serve.capture");
      Snap = serve::ResultSnapshot::capture(*Prog, Res, FP);
    }
    std::string Blob;
    {
      Tracer::Scope S(T, "serve.serialize");
      Blob = serve::serialize(Snap);
    }
    FileMs[PI] += FileThis + msSince(F0);
    C.BlobBytes += Blob.size();
    {
      Tracer::Scope S(T, "clients");
      if (Res.MainOut)
        clients::aliasPairs(*Res.MainOut, *Res.Locs);
      clients::ReadWriteSets::compute(*Prog, Res);
    }
    {
      // Counters attached here too, so record_ms compares like with like.
      support::Telemetry NoRecTelem(true);
      pta::Analyzer::Options NoRec = Counted;
      NoRec.RecordStmtSets = false;
      NoRec.Telem = &NoRecTelem;
      Res = pta::Analyzer::Result();
      Tracer::Scope S(T, "pointsto.analyze_norecord");
      Res = pta::Analyzer::run(*Prog, NoRec);
    }
    Res = pta::Analyzer::Result();
    {
      serve::ResultSnapshot Back;
      std::string Err;
      bool Ok;
      {
        Tracer::Scope S(T, "serve.deserialize");
        Ok = serve::deserialize(Blob, Back, Err);
      }
      R.check(Ok && serve::serialize(Back) == Blob,
              "probe program " + std::to_string(PI) +
                  " blob does not round-trip " + Err);
    }
    {
      serve::SummaryCache Cache(serve::SummaryCache::Config{});
      Tracer::Scope S(T, "serve.cache_store");
      Cache.store(serve::SummaryCache::key(Src, FP), Snap);
    }
    // Demand: engine construction with its first query, then warm ones.
    {
      std::vector<std::string> Known;
      for (const std::string &N : queryNames(*Prog))
        if (Snap.locationIdByName(N) >= 0)
          Known.push_back(N);
      if (Known.size() > 4)
        Known.resize(4);
      std::unique_ptr<demand::DemandEngine> E;
      for (size_t Q = 0; Q < Known.size(); ++Q) {
        demand::Answer A;
        if (Q == 0) {
          Tracer::Scope S(T, "demand.engine");
          E = std::make_unique<demand::DemandEngine>(*Prog,
                                                     demand::DemandOptions{});
          A = E->query(demand::Query::pointsTo(Known[Q]));
        } else {
          Tracer::Scope S(T, "demand.query");
          A = E->query(demand::Query::pointsTo(Known[Q]));
          ++C.DemandWarm;
        }
        ++C.DemandQueries;
        if (A.answeredByDemand()) {
          ++C.DemandAnswered;
          C.DemandVisited += A.VisitedStmts;
        }
        R.check(A.Ok && A.Targets == Snap.pointsToTargets(Known[Q]),
                "probe program " + std::to_string(PI) + ": demand answer for " +
                    Known[Q] + " differs from the snapshot");
      }
    }
    // Incremental: one seeded edit against this program's snapshot.
    {
      wlgen::MutationKind K = wlgen::AllMutationKinds[G.below(5)];
      std::string Edited = wlgen::mutateSource(Src, K, G.next());
      if (Edited != Src) {
        incr::IncrOutput O;
        {
          Tracer::Scope S(T, "incr.reanalyze");
          O = incr::IncrementalEngine::reanalyze(Snap, Edited, Opts);
        }
        ++C.IncrRuns;
        C.IncrUsed += O.Stats.UsedIncremental;
        C.IncrDirty += O.Stats.DirtyFunctions;
        C.IncrReuse += O.Stats.MemoReuse;
      }
    }
  }
  return msSince(W0);
}

/// The traced run. The probe walks alternate untraced and traced until
/// --seconds have passed (at least one of each): per-layer times are
/// means over the traced walks, and the tracing overhead compares the two
/// kinds of walk, where the spans are. Then the per-op-kind handle
/// overhead, the incrstress warm query and one --batch of the probe
/// programs.
void layerProbe(Run &R, Workload &W) {
  Tracer &T = *R.Spans;
  const std::vector<std::string> Progs = W.probePrograms();
  const double N = static_cast<double>(Progs.size());
  ProbeCounts First;
  std::vector<double> FileMs(Progs.size(), 0);
  double PlainMs = 0, TracedMs = 0;
  unsigned Walks = 0;
  size_t SpansPerWalk = 0;
  Clock::time_point T0 = Clock::now();
  do {
    for (bool Traced : {false, true}) {
      ProbeCounts C;
      size_t Before = T.size();
      double Ms = probeWalk(R, Progs, Traced ? &T : nullptr,
                            Walks * Progs.size(), C, FileMs);
      (Traced ? TracedMs : PlainMs) += Ms;
      if (Walks == 0 && !Traced)
        First = C;
      if (Traced)
        SpansPerWalk = T.size() - Before;
      R.check(C == First, "probe walk " + std::to_string(Walks) +
                              " counts differ from the first walk");
    }
    ++Walks;
  } while (msSince(T0) < R.A.Seconds * 1000.0);
  std::fprintf(stderr,
               "perfbench: %u untraced and %u traced probe walks over %zu "
               "programs, %.2f s\n",
               Walks, Walks, Progs.size(), msSince(T0) / 1000.0);

  // Times: mean ms per program and traced walk.
  const double Per = N * Walks;
  auto Mean = [&](std::string_view Name) { return T.selfMs(Name) / Per; };
  const double IG = Mean("ig.build");
  const double Clients = Mean("clients");
  auto Count = [](uint64_t V) { return static_cast<double>(V); };
  auto Ratio = [](uint64_t Num, uint64_t Den) {
    return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0;
  };
  R.layer("cfront.parse_ms", Mean("cfront.parse"), "ms");
  R.layer("simple.simplify_ms", Mean("simple.simplify"), "ms");
  R.layer("simple.basic_stmts", Count(First.BasicStmts), "count");
  R.layer("ig.build_ms", IG, "ms");
  R.layer("ig.nodes", Count(First.IGNodes), "count");
  R.layer("pointsto.run_ms", Mean("pointsto.analyze") - IG, "ms");
  R.layer("pointsto.record_ms",
          Mean("pointsto.analyze") - Mean("pointsto.analyze_norecord"), "ms");
  R.layer("pointsto.stmt_visits", Count(First.Visits), "count");
  R.layer("pointsto.body_analyses", Count(First.Bodies), "count");
  R.layer("pointsto.memo_hits", Count(First.Memo), "count");
  R.layer("pointsto.set_kernel_calls", Count(First.Kernel), "count");
  R.layer("pointsto.set_heap_peak_mb",
          static_cast<double>(First.HeapPeak) / (1024.0 * 1024.0), "MB");
  R.layer("clients.ms", Clients, "ms");
  R.layer("serve.capture_ms", Mean("serve.capture") - Clients, "ms");
  R.layer("serve.serialize_ms", Mean("serve.serialize"), "ms");
  R.layer("serve.deserialize_ms", Mean("serve.deserialize"), "ms");
  R.layer("serve.blob_kb", static_cast<double>(First.BlobBytes) / 1024.0 / N,
          "KB");
  R.layer("serve.cache_store_ms", Mean("serve.cache_store"), "ms");
  R.layer("serve.handle_overhead_ms", W.handleOverheadMs(), "ms");
  R.layer("demand.engine_ms", Mean("demand.engine"), "ms");
  R.layer("demand.query_ms",
          First.DemandWarm ? T.selfMs("demand.query") /
                                 static_cast<double>(First.DemandWarm * Walks)
                           : 0,
          "ms");
  R.layer("demand.answered_ratio",
          Ratio(First.DemandAnswered, First.DemandQueries), "ratio");
  R.layer("demand.visited_stmts", Count(First.DemandVisited), "count");
  R.layer("incr.reanalyze_ms",
          First.IncrRuns ? T.selfMs("incr.reanalyze") /
                               static_cast<double>(First.IncrRuns * Walks)
                         : 0,
          "ms");
  R.layer("incr.used_ratio", Ratio(First.IncrUsed, First.IncrRuns), "ratio");
  R.layer("incr.dirty_functions", Count(First.IncrDirty), "count");
  R.layer("incr.memo_reuse", Count(First.IncrReuse), "count");
  R.layer("trace.overhead_pct", 100.0 * (TracedMs - PlainMs) / PlainMs, "%");
  R.layer("trace.spans", Count(SpansPerWalk), "count");

  const uint64_t After = static_cast<uint64_t>(Walks) * Progs.size();
  // The ROADMAP's query-floor bar: a warm `points_to p` on incrstress.
  {
    Pipeline FE = Pipeline::frontend(incrstressSource());
    demand::DemandEngine E(*FE.Prog, demand::DemandOptions{});
    E.query(demand::Query::pointsTo("p"));
    std::vector<double> Warm;
    for (int I = 0; I < 5; ++I) {
      T.setOp(After + I);
      Tracer::Scope S(&T, "demand.incrstress_warm");
      Clock::time_point Q0 = Clock::now();
      E.query(demand::Query::pointsTo("p"));
      Warm.push_back(msSince(Q0));
    }
    R.layer("demand.incrstress_warm_ms", median(Warm), "ms");
  }

  // Driver: the probe programs as one --batch at width W, against their
  // in-process per-file times (mean over the walks).
  {
    fs::path Dir = R.A.Work / "probe";
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    double Max = 0, Sum = 0;
    for (size_t PI = 0; PI < Progs.size(); ++PI) {
      char Name[32];
      std::snprintf(Name, sizeof(Name), "probe%03zu.c", PI);
      if (!writeFile(Dir / Name, Progs[PI]))
        fatal("cannot write probe batch input");
      double Ms = FileMs[PI] / (2.0 * Walks);
      Max = std::max(Max, Ms);
      Sum += Ms;
    }
    fs::path Cache = R.A.Work / "probe-cache";
    fs::remove_all(Cache);
    T.setOp(After + 5);
    ChildRun C;
    {
      Tracer::Scope S(&T, "driver.pta_tool");
      C = runTool(R.A.Tool,
                  {"--batch", Dir.string(),
                   "--analysis-threads=" + std::to_string(R.W),
                   "--cache-dir=" + Cache.string()},
                  R.A.Work / "probe-batch.out");
    }
    if (C.Code != 0)
      fatal("probe batch failed");
    R.layer("driver.file_ms_max", Max, "ms");
    R.layer("driver.file_ms_sum", Sum, "ms");
    R.layer("driver.batch_efficiency",
            std::max(Max, Sum / static_cast<double>(R.W)) / C.Ms, "ratio");
  }
}

//===----------------------------------------------------------------------===//
// Main
//===----------------------------------------------------------------------===//

std::string buildRefusal() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||    \
    __has_feature(memory_sanitizer)
  return "sanitizer build";
#endif
#endif
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  return "unoptimized build (need CMAKE_BUILD_TYPE=Release)";
#endif
  return "";
}

std::string loadAverage() {
  std::string L;
  readFile("/proc/loadavg", L);
  std::istringstream In(L);
  std::string One;
  In >> One;
  return One.empty() ? "0" : One;
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      fatal("missing value for " + K);
    std::string V = Argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--tool")
      A.Tool = V;
    else if (K == "--work")
      A.Work = V;
    else if (K == "--ops-file")
      A.OpsFile = V;
    else
      fatal("unknown argument " + K);
  }
  if (A.Workload.empty() || A.Tool.empty() || A.Work.empty() ||
      A.Seconds <= 0)
    fatal("usage: perfbench_driver --workload W --seed N --seconds S "
          "--trace 0|1 --tool PTA_TOOL --work DIR [--ops-file F]");
  return A;
}

std::unique_ptr<Workload> makeWorkload(Run &R) {
  const std::string &N = R.A.Workload;
  if (N == "edit-loop")
    return std::make_unique<EditLoop>(R);
  if (N == "batch-corpus")
    return std::make_unique<BatchCorpus>(R);
  fatal("unknown workload '" + N + "'");
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  if (std::string Why = buildRefusal(); !Why.empty())
    fatal("refusing to benchmark a " + Why);
  const std::string Load = loadAverage();
  const unsigned NProc = std::max(1u, std::thread::hardware_concurrency());
  fs::create_directories(A.Work);

  Run R(A);
  R.W = std::min(4u, NProc);
  std::unique_ptr<Workload> W = makeWorkload(R);

  // A traced run reports no setup_s, so it sets up once.
  for (double Total = 0;
       R.SetupS.empty() ||
       (!A.Trace && (R.SetupS.size() < kMinSetups || Total < kMinSetupS));) {
    Clock::time_point T0 = Clock::now();
    W->setup();
    R.SetupS.push_back(msSince(T0) / 1000.0);
    Total += R.SetupS.back();
  }

  std::vector<Metric> Metrics;
  if (!A.Trace) {
    Clock::time_point T0 = Clock::now();
    pass(*W, A.Seconds, R.Ops);
    R.PassS = sumMs(R.Ops) / 1000.0;
    double PassWallS = msSince(T0) / 1000.0;
    if (A.Workload != "batch-corpus")
      R.PeakRssMb = peakRssMb();
    T0 = Clock::now();
    W->verify();
    std::fprintf(stderr,
                 "perfbench: %s: %zu ops, pass %.2f s of ops in %.2f s wall, "
                 "verify %.2f s\n",
                 A.Workload.c_str(), R.Ops.size(), R.PassS, PassWallS,
                 msSince(T0) / 1000.0);
    std::vector<double> Lat;
    for (const OpSample &O : R.Ops)
      Lat.push_back(O.Ms);
    double Done = static_cast<double>(R.Ops.size()) * W->unitsPerOp();
    Metrics.push_back({"setup_s", median(R.SetupS), "s"});
    Metrics.push_back({"ops_per_s", Done / R.PassS, "1/s"});
    Metrics.push_back({"op_p50_ms", quantile(Lat, 0.5), "ms"});
    Metrics.push_back({"op_p90_ms", quantile(Lat, 0.9), "ms"});
    Metrics.push_back({"peak_rss_mb", R.PeakRssMb, "MB"});
    Metrics.push_back(
        {"success_ratio",
         R.Attempted ? static_cast<double>(R.Matched) /
                           static_cast<double>(R.Attempted)
                     : 0,
         "ratio"});
  } else {
    R.Spans = std::make_unique<Tracer>();
    layerProbe(R, *W);
    Metrics = R.Layer;
    R.Spans->write(A.Work / ("spans-" + A.Workload + "-" +
                             std::to_string(A.Seed) + ".json"));
  }

  if (!A.OpsFile.empty()) {
    std::ostringstream OS;
    for (const OpSample &O : R.Ops)
      OS << O.Class << "\t" << O.Ms << "\n";
    writeFile(A.OpsFile, OS.str());
  }

  bool Correct = R.Mismatches.empty() && R.Attempted == R.Matched &&
                 R.Attempted > 0;
  for (const std::string &M : R.Mismatches)
    std::fprintf(stderr, "perfbench: MISMATCH: %s\n", M.c_str());

  std::string SetupList, Extra;
  for (double S : R.SetupS)
    SetupList += (SetupList.empty() ? "" : ",") + std::to_string(S);
  for (const auto &[K, V] : R.Meta)
    Extra += "," + jsonString(K) + ":" + V;
  std::printf("{\"meta\":{\"workload\":%s,\"seed\":%llu,\"nproc\":%u,"
              "\"width\":%u,\"loadavg_start\":%s,\"build_type\":%s,"
              "\"compiler\":%s,\"tool_version\":%s,\"ops\":%zu,"
              "\"setup_s\":[%s]%s}}\n",
              jsonString(A.Workload).c_str(),
              static_cast<unsigned long long>(A.Seed), NProc, R.W,
              Load.c_str(), jsonString(PERFBENCH_BUILD_TYPE).c_str(),
              jsonString(PERFBENCH_COMPILER).c_str(),
              jsonString(version::kToolVersion).c_str(), R.Ops.size(),
              SetupList.c_str(), Extra.c_str());
  std::ostringstream OS;
  OS.precision(10);
  OS << "{\"correct\":" << (Correct ? "true" : "false")
     << ",\"attempted\":" << R.Attempted
     << ",\"failed\":" << (R.Attempted - R.Matched) << ",\"metrics\":{";
  for (size_t I = 0; I < Metrics.size(); ++I)
    OS << (I ? "," : "") << jsonString(Metrics[I].Name) << ":{\"value\":"
       << Metrics[I].Value << ",\"unit\":" << jsonString(Metrics[I].Unit) << "}";
  OS << "}}";
  std::printf("%s\n", OS.str().c_str());
  return Correct ? 0 : 1;
}
