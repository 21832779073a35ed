// perfbench: the repository benchmark's binary.  Built and run by
// perfbench/run.py, which turns its output into the benchmark's result
// line; see perfbench/README.md.
//
//   perfbench --workload dense|lookup|graph|kv --seed N --seconds S --trace 0|1
//             [--out DIR]
//   perfbench --selftest
//
// Prints one JSON object on its last line: the output checks attempted and
// failed, and every measured value by name.  With --trace 1 it also runs
// the layer ladder and the native references, and writes the workload's
// spans to DIR/spans.{json,bin}.

#include "common.hpp"

#include <cmath>
#include <fstream>
#include <sys/resource.h>

namespace perfbench {

bool spans::write(std::string const& prefix)
{
  auto& g = global();
  std::ofstream js(prefix + ".json");
  js << "{\"locations\": " << g.per_location.size() << ", \"sites\": [";
  for (std::size_t i = 0; i < g.sites.size(); ++i) {
    auto const* s = g.sites[i];
    js << (i ? ", " : "") << "[\"" << s->layer << "\", \"" << s->name
       << "\", " << static_cast<unsigned>(s->k) << "]";
  }
  js << "]}\n";
  std::ofstream bin(prefix + ".bin", std::ios::binary);
  for (std::uint32_t loc = 0; loc < g.per_location.size(); ++loc)
    for (auto const& r : g.per_location[loc]) {
      std::uint32_t const head[4] = {loc, r.site,
                                     static_cast<std::uint32_t>(r.parent), 0};
      bin.write(reinterpret_cast<char const*>(head), sizeof head);
      bin.write(reinterpret_cast<char const*>(&r.t0), sizeof r.t0);
      bin.write(reinterpret_cast<char const*>(&r.t1), sizeof r.t1);
    }
  return static_cast<bool>(js) && static_cast<bool>(bin);
}

} // namespace perfbench

namespace {

void print_result(perfbench::report const& rep)
{
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  bool first = true;
  for (auto const& [k, v] : rep.metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(),
                std::isfinite(v) ? v : 0.0);
    first = false;
  }
  std::printf("}}\n");
}

[[noreturn]] void usage()
{
  std::fprintf(stderr, "usage: perfbench --workload dense|lookup|graph|kv "
                       "--seed N --seconds S --trace 0|1 [--out DIR] | "
                       "--selftest\n");
  std::exit(2);
}

} // namespace

int main(int argc, char** argv)
{
  perfbench::options opt;
  for (int i = 1; i < argc; ++i) {
    std::string const a = argv[i];
    if (a == "--selftest")
      return perfbench::run_selftest();
    if (i + 1 >= argc)
      usage();
    std::string const v = argv[++i];
    if (a == "--workload")
      opt.workload = v;
    else if (a == "--seed")
      opt.seed = std::stoull(v);
    else if (a == "--seconds")
      opt.seconds = std::stod(v);
    else if (a == "--trace")
      opt.trace = v == "1";
    else if (a == "--out")
      opt.out_dir = v;
    else
      usage();
  }

  perfbench::report rep;
  if (opt.workload == "dense")
    perfbench::run_dense(opt, rep);
  else if (opt.workload == "lookup")
    perfbench::run_kv(opt, rep, true);
  else if (opt.workload == "kv")
    perfbench::run_kv(opt, rep, false);
  else if (opt.workload == "graph")
    perfbench::run_graph(opt, rep);
  else
    usage();

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rep.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);

  if (opt.trace) {
    if (!perfbench::spans::write(opt.out_dir + "/spans"))
      rep.check(false, "spans written");
    perfbench::run_ladder(rep, opt.seed);
    perfbench::run_references(opt.seed, rep);
  }
  print_result(rep);
  return 0;
}
