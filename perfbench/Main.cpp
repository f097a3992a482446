//===- Main.cpp - er_perfbench: one workload per process ------------------===//
//
// Usage: er_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--write-golden] [--golden-dir DIR] [--work-dir DIR]
//
// Runs one workload (table1-offline, fleet-wait, ingest-spool), prints a
// human-readable report, and ends with one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones, timed with tracing
// off. With --trace 1 the run adds a traced pass and reports every
// per-layer metric; it also writes a Chrome trace and the per-layer table
// into the work directory. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "er_perfbench: %s\nusage: er_perfbench --workload "
               "table1-offline|fleet-wait|ingest-spool --seed N --seconds S "
               "--trace 0|1 [--write-golden] [--golden-dir DIR] "
               "[--work-dir DIR]\n",
               Why);
  return 2;
}

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return *S && *End == 0;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  return fmt("%.17g", V);
}

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    bool HasValue = I + 1 < argc;
    uint64_t N = 0;
    if (A == "--workload" && HasValue)
      Opt.Workload = argv[++I];
    else if (A == "--seed" && HasValue && parseU64(argv[I + 1], N)) {
      Opt.Seed = N;
      HaveSeed = true;
      ++I;
    } else if (A == "--seconds" && HasValue && parseU64(argv[I + 1], N) &&
               N > 0) {
      Opt.Seconds = static_cast<double>(N);
      HaveSeconds = true;
      ++I;
    } else if (A == "--trace" && HasValue && parseU64(argv[I + 1], N) &&
               N <= 1) {
      Opt.Trace = N == 1;
      HaveTrace = true;
      ++I;
    } else if (A == "--write-golden")
      Opt.WriteGolden = true;
    else if (A == "--golden-dir" && HasValue)
      Opt.GoldenDir = argv[++I];
    else if (A == "--work-dir" && HasValue)
      Opt.WorkDir = argv[++I];
    else
      return usage(("bad argument '" + A + "'").c_str());
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--seed, --seconds and --trace are required");

  Result (*Run)(const Options &) = nullptr;
  if (Opt.Workload == "table1-offline")
    Run = runTable1;
  else if (Opt.Workload == "fleet-wait")
    Run = runFleet;
  else if (Opt.Workload == "ingest-spool")
    Run = runIngest;
  else
    return usage("unknown workload");
  if (!std::filesystem::is_directory(Opt.GoldenDir))
    return usage(("golden directory '" + Opt.GoldenDir + "' missing").c_str());
  std::filesystem::create_directories(Opt.WorkDir);

  std::printf("er_perfbench %s seed=%llu seconds=%g trace=%d\n",
              Opt.Workload.c_str(), (unsigned long long)Opt.Seed, Opt.Seconds,
              Opt.Trace ? 1 : 0);
  std::fflush(stdout);
  Result R = Run(Opt);
  for (const std::string &Line : R.Report)
    std::printf("%s\n", Line.c_str());

  double FailedFrac =
      R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 1;
  MetricMap E2E = {{"wall_s", R.WallSeconds}, {"setup_s", R.SetupSeconds}};
  std::printf("\nend-to-end (tracing off):\n");
  for (const MetricDef &D : endToEndMetrics())
    std::printf("  %-24s %14.6f %s\n", D.Name, E2E[D.Name], D.Unit);
  std::printf("  %-24s %14.6f MiB\n", "peak_rss_mb", peakRssMiB());
  std::printf("  %-24s %14.6f ratio (%llu failed of %llu attempted)\n",
              "failed_frac", FailedFrac, (unsigned long long)R.Failed,
              (unsigned long long)R.Attempted);

  const std::vector<MetricDef> *Defs = &endToEndMetrics();
  MetricMap *Values = &E2E;
  if (Opt.Trace) {
    R.Layers["failed_frac"] = FailedFrac;
    R.Layers["peak_rss_mb"] = peakRssMiB();
    for (const auto &[Name, V] : R.Layers) {
      bool Known = false;
      for (const MetricDef &D : perLayerMetrics())
        Known = Known || Name == D.Name;
      if (!Known) {
        std::fprintf(stderr, "internal error: metric '%s' not catalogued\n",
                     Name.c_str());
        return 3;
      }
    }
    std::string Base = Opt.WorkDir + "/" + Opt.Workload + ".seed" +
                       std::to_string(Opt.Seed);
    std::vector<std::string> Table;
    Table.push_back(fmt("%-28s %18s %s", "per-layer metric", "value", "unit"));
    for (const MetricDef &D : perLayerMetrics())
      Table.push_back(
          fmt("%-28s %18.6f %s", D.Name, R.Layers[D.Name], D.Unit));
    Table.push_back("");
    for (const std::string &L : selfTimeTable(tracer().snapshot()))
      Table.push_back(L);
    if (uint64_t Dropped = tracer().droppedSpans())
      Table.push_back(fmt("(%llu oldest spans dropped; the table covers the "
                          "rest)",
                          (unsigned long long)Dropped));
    std::ofstream OS(Base + ".layers.txt", std::ios::trunc);
    std::printf("\n");
    for (const std::string &L : Table) {
      OS << L << "\n";
      std::printf("%s\n", L.c_str());
    }
    bool TraceOk = er::obs::exportChromeTrace(tracer(), Base + ".trace.json");
    std::printf("chrome trace: %s.trace.json%s\nlayer table: %s.layers.txt\n",
                Base.c_str(), TraceOk ? "" : " (WRITE FAILED)", Base.c_str());
    Defs = &perLayerMetrics();
    Values = &R.Layers;
  }

  std::string Json = fmt("{\"correct\": %s, \"attempted\": %llu, "
                         "\"failed\": %llu, \"metrics\": {",
                         R.Failed == 0 && R.Attempted > 0 ? "true" : "false",
                         (unsigned long long)R.Attempted,
                         (unsigned long long)R.Failed);
  for (size_t I = 0; I < Defs->size(); ++I) {
    const MetricDef &D = (*Defs)[I];
    Json += fmt("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", I ? ", " : "",
                D.Name, jsonNumber((*Values)[D.Name]).c_str(), D.Unit);
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
