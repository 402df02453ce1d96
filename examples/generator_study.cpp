/**
 * @file
 * Overlap vs. rank count on a generated workload: the scaling
 * question recorded traces cannot answer.
 *
 * A synthetic workload (src/gen/ — default: a 2-D halo-exchange
 * stencil) is re-targeted at every rank count of a grid, generated
 * with the same seed, and replayed on the 2:1 tapered fat tree as
 * the original and the real/ideal overlapped variants. The
 * interesting read is how the overlap benefit moves as the machine
 * grows: halo traffic per rank stays constant while the tapered
 * fabric's bisection tightens, so communication — and the value of
 * hiding it — climbs with scale.
 *
 *   ./generator_study [--kind stencil|ml-training|fan-in|dht]
 *                     [--workload file.wl] [--seed 1]
 *                     [--ranks 16,32,64,128,256]
 *                     [--chunks 16] [--bandwidth 1024]
 *                     [--threads N] [--csv out.csv] [--progress]
 *
 * With --workload the grid rides on a workload file (see
 * src/gen/workload_file.hh); otherwise --kind picks a default
 * config of that family.
 */

#include <climits>
#include <cstdio>
#include <iostream>
#include <memory>

#include "bench/bench_common.hh"
#include "core/analysis.hh"
#include "gen/gen.hh"
#include "gen/workload_file.hh"
#include "net/topology.hh"
#include "obs/progress.hh"
#include "util/line_reader.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "util/strings.hh"

using namespace ovlsim;

namespace {

std::vector<int>
parseRankGrid(const std::string &text)
{
    std::vector<int> grid;
    for (const auto &part : split(text, ',')) {
        // Exactly an int: a wider value must not wrap into a small
        // rank count.
        try {
            grid.push_back(parseNumber<int>(trim(part)));
        } catch (const FatalError &err) {
            fatal("--ranks: ", err.what());
        }
    }
    if (grid.empty())
        fatal("--ranks: empty rank grid");
    return grid;
}

int
toolMain(int argc, char **argv)
{
    Options options;
    options.declare("kind", "stencil",
                    "workload family: stencil ml-training fan-in "
                    "dht");
    options.declare("workload", "",
                    "optional workload config file (overrides "
                    "--kind)");
    options.declare("seed", "1", "generation seed");
    options.declare("ranks", "16,32,64,128,256",
                    "comma-separated rank-count grid");
    options.declare("chunks", "16", "chunks per message");
    options.declare("bandwidth", "1024",
                    "link bandwidth, MB/s");
    options.declare("threads", "0",
                    "worker threads (0 = all hardware cores)");
    options.declare("csv", "", "optional CSV output path");
    options.declare("progress", "false",
                    "report campaign progress to stderr");
    options.parse(argc, argv);

    gen::WorkloadConfig workload;
    if (!options.getString("workload").empty()) {
        workload = gen::readWorkloadConfigFile(
            options.getString("workload"));
    } else {
        workload.kind = gen::workloadKindFromName(
            options.getString("kind"));
        workload.name = options.getString("kind");
    }

    auto platform = sim::platforms::topologyCluster(
        net::topologies::taperedFatTree(4, 0.5));
    platform.bandwidthMBps = options.getDouble("bandwidth", Sign::positive);

    const auto grid =
        parseRankGrid(options.getString("ranks"));
    const auto variants = core::standardVariants(
        static_cast<std::size_t>(options.getInt("chunks", 1)));
    const auto seed =
        static_cast<std::uint64_t>(options.getInt("seed", 0));
    const int threads = ThreadPool::resolveThreads(
        static_cast<int>(options.getInt("threads", 0, INT_MAX)));

    std::printf("workload %s (%s), seed %llu, tapered fat tree "
                "@ %.0f MB/s\n",
                workload.name.c_str(),
                gen::workloadKindName(workload.kind),
                static_cast<unsigned long long>(seed),
                platform.bandwidthMBps);

    core::CampaignObs cobs;
    std::unique_ptr<obs::Progress> progress;
    if (options.getBool("progress")) {
        progress = std::make_unique<obs::Progress>(
            "scaling sweep", grid.size());
        cobs.progress = progress.get();
    }

    const auto sweep = core::scalingSweep(
        workload, seed, platform, grid, variants, threads, &cobs);
    if (progress != nullptr)
        progress->finish();

    TablePrinter table({"ranks", "messages", "MB sent",
                        "original", "comm%", "real speedup",
                        "ideal speedup"});
    for (const auto &point : sweep.points) {
        table.addRow(
            {strformat("%d", point.ranks),
             strformat("%zu", point.messages),
             strformat("%.1f",
                       static_cast<double>(point.sentBytes) /
                           (1024.0 * 1024.0)),
             humanTime(point.originalTime),
             strformat("%.0f",
                       point.originalCommFraction * 100.0),
             strformat("%+.1f%%",
                       (point.speedup(0) - 1.0) * 100.0),
             strformat("%+.1f%%",
                       (point.speedup(1) - 1.0) * 100.0)});
    }
    table.print(std::cout);

    if (!options.getString("csv").empty()) {
        CsvWriter csv(options.getString("csv"),
                      {"ranks", "messages", "sent_bytes",
                       "t_original_us", "t_real_us",
                       "t_ideal_us"});
        for (const auto &point : sweep.points) {
            csv.addRow(
                {strformat("%d", point.ranks),
                 strformat("%zu", point.messages),
                 strformat("%llu",
                           static_cast<unsigned long long>(
                               point.sentBytes)),
                 strformat("%.3f", point.originalTime.toUs()),
                 strformat("%.3f",
                           point.variantTimes[0].toUs()),
                 strformat("%.3f",
                           point.variantTimes[1].toUs())});
        }
        std::printf("\nCSV written to %s\n",
                    options.getString("csv").c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(toolMain, argc, argv);
}
