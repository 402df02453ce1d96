/**
 * @file
 * Experiment R2 (paper Sec. III, finding 2).
 *
 * "For intermediate bandwidths, where time spent in communication is
 *  comparable to time spent in computation, overlapping can achieve
 *  a significant speedup, such as: 30% in NAS-BT, 10% in NAS-CG, 10%
 *  in POP, 40% in Alya, 65% in SPECFEM and 160% in Sweep3D."
 *
 * For every application this bench locates its intermediate
 * bandwidth (where the original execution spends as much time
 * blocked on communication as computing), replays the original and
 * the overlapped variants there, and prints the measured speedups
 * next to the paper's reported numbers.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_common.hh"

using namespace ovlsim;
using namespace ovlsim::bench;

namespace {

int
toolMain(int argc, char **argv)
{
    const int threads = parseThreads(argc, argv);
    std::printf("R2: ideal-pattern overlap speedup at the "
                "intermediate bandwidth\n");
    std::printf("(comm time == compute time in the original "
                "execution; 16 chunks/message; %d threads)\n\n",
                threads);

    TablePrinter table({"app", "intermediate MB/s",
                        "t original", "t overlap-ideal",
                        "ideal speedup", "paper",
                        "real speedup"});
    CsvWriter csv("bench_intermediate_speedup.csv",
                  {"app", "intermediate_mbps", "t_original_us",
                   "t_ideal_us", "speedup_ideal_pct",
                   "paper_pct", "speedup_real_pct"});

    for (const auto &name : paperApps()) {
        const auto bundle = traceApp(name);
        auto platform = sim::platforms::defaultCluster();
        const double ib =
            core::findIntermediateBandwidth(bundle.traces, platform);
        platform.bandwidthMBps = ib;

        core::TransformConfig ideal;
        ideal.pattern = core::PatternModel::idealLinear;
        core::TransformConfig real;
        real.pattern = core::PatternModel::real;

        // The original and both variants at the operating point: a
        // one-point sweep.
        const auto sweep = core::bandwidthSweep(
            bundle, platform, {ib},
            {{"overlap-ideal", ideal}, {"overlap-real", real}},
            threads);
        const auto &point = sweep.points[0];
        const auto t_original = point.originalTime;
        const auto t_ideal = point.variantTimes[0];
        const auto t_real = point.variantTimes[1];

        const double ideal_pct = speedupPct(t_original, t_ideal);
        const double real_pct = speedupPct(t_original, t_real);

        table.addRow({name, mbps(ib),
                      humanTime(t_original),
                      humanTime(t_ideal), pct(ideal_pct),
                      strformat("+%.0f%%",
                                paperIntermediateSpeedupPct(
                                    name)),
                      pct(real_pct)});
        csv.addRow({name, strformat("%.3f", ib),
                    strformat("%.3f", t_original.toUs()),
                    strformat("%.3f", t_ideal.toUs()),
                    strformat("%.2f", ideal_pct),
                    strformat("%.0f",
                              paperIntermediateSpeedupPct(name)),
                    strformat("%.2f", real_pct)});
    }
    table.print(std::cout);
    std::printf(
        "\nThe paper column is the ISPASS 2010 reported value; "
        "the shape to reproduce\nis the ladder (sweep3d >> "
        "specfem > alya > nas-bt > pop ~ nas-cg) and the\n"
        "negligible real-pattern column.\n");
    std::printf("CSV written to bench_intermediate_speedup.csv\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(toolMain, argc, argv);
}
